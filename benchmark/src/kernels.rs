//! The two TVM kernels the transport workloads farm out, their seeded
//! inputs, and reference outputs from the legacy `tvm::execute` oracle.
//! Both kernels use only bit-exact IEEE operations (add, sub, mul, max,
//! lt), so every execution tier must reproduce the oracle bit for bit.

use netsim::Pcg32;
use transport::node::JobSpec;
use transport::proto::ModuleInfo;
use tvm::{ModuleBlob, SandboxPolicy};

/// Case-1-shaped: the E03 SPH smoothing weight `w = max(0, 1 - r²)³`, one
/// output per input, 23 instructions per element. Bytes dominate.
/// Locals: 0 = n, 1 = i.
const SPH_BODY: &str = "\
 inlen 0
 store 0
 push 0
 store 1
loop:
 load 1
 load 0
 lt
 jz end
 load 1
 inget 0
 dup
 mul
 push 1
 swap
 sub
 push 0
 max
 dup
 dup
 mul
 mul
 outpush 0
 load 1
 push 1
 add
 store 1
 jmp loop
end:
 halt
";

/// Case-2-shaped: 32-lag autocorrelation, `out[l] = Σ x[i]·x[i+l]`. About
/// 0.7 M instructions over 1024 inputs for 32 outputs: compute dominates
/// and the wire carries almost nothing. Locals: 0 = n, 1 = lag, 2 = i,
/// 3 = acc.
const LAGGED_BODY: &str = "\
 inlen 0
 store 0
 push 0
 store 1
outer:
 load 1
 push 32
 lt
 jz end
 push 0
 store 2
 push 0
 store 3
inner:
 load 2
 load 1
 add
 load 0
 lt
 jz emit
 load 2
 inget 0
 load 2
 load 1
 add
 inget 0
 mul
 load 3
 add
 store 3
 load 2
 push 1
 add
 store 2
 jmp inner
emit:
 load 3
 outpush 0
 load 1
 push 1
 add
 store 1
 jmp outer
end:
 halt
";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Sph,
    Lagged,
}

impl Kernel {
    fn body(self) -> (&'static str, u16) {
        match self {
            Kernel::Sph => (SPH_BODY, 2),
            Kernel::Lagged => (LAGGED_BODY, 4),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Sph => "SphKernel",
            Kernel::Lagged => "Lagged",
        }
    }
}

/// Assemble `kernel` as module `<name><variant>`, padded to about
/// `approx_bytes` with a second function that is verified and shipped but
/// never called, so module size and per-job instruction count vary
/// independently.
pub fn module(kernel: Kernel, variant: u32, approx_bytes: usize) -> (ModuleInfo, ModuleBlob) {
    let (body, locals) = kernel.body();
    let name = format!("{}{variant}", kernel.name());
    let mut src = format!(".module {name} 1 1 1\n.func main {locals}\n{body}.func pad 0\n");
    // `push <f64>` encodes to 9 bytes and `pop` to 1.
    for _ in 0..approx_bytes / 10 {
        src.push_str(" push 1\n pop\n");
    }
    src.push_str(" ret\n");
    let blob = tvm::asm::assemble(&src)
        .expect("benchmark kernel assembles")
        .to_blob();
    let info = ModuleInfo {
        name,
        version: 1,
        hash: blob.hash,
        blob_len: blob.bytes.len() as u64,
    };
    (info, blob)
}

/// `len` values in `[0, 1.25)`: most SPH weights are non-zero, a fifth
/// clamp to zero.
pub fn input(rng: &mut Pcg32, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.range_f64(0.0, 1.25)).collect()
}

/// One farm's jobs — job `j` runs module `j % modules.len()` — and the
/// oracle's outputs for each, computed with the legacy interpreter.
pub fn jobs_with_reference(
    modules: &[(ModuleInfo, ModuleBlob)],
    n_jobs: usize,
    input_len: usize,
    rng: &mut Pcg32,
) -> (Vec<JobSpec>, Vec<Vec<Vec<f64>>>) {
    let parsed: Vec<tvm::Module> = modules
        .iter()
        .map(|(_, blob)| tvm::Module::from_blob(blob).expect("own blob parses"))
        .collect();
    let policy = SandboxPolicy::standard();
    let mut jobs = Vec::with_capacity(n_jobs);
    let mut reference = Vec::with_capacity(n_jobs);
    for j in 0..n_jobs {
        let m = j % modules.len();
        let input = input(rng, input_len);
        let (outputs, _) =
            tvm::execute(&parsed[m], &[&input], &policy).expect("oracle runs the kernel");
        reference.push(outputs);
        jobs.push(JobSpec {
            module: modules[m].0.clone(),
            input,
        });
    }
    (jobs, reference)
}

/// Bit-for-bit comparison: `==` on f64 would let `0.0 == -0.0` through
/// and reject a NaN the oracle also produced.
pub fn bit_identical(got: &[Vec<f64>], want: &[Vec<f64>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_sets_size_without_touching_the_instruction_count() {
        let small = module(Kernel::Sph, 0, 0);
        let big = module(Kernel::Sph, 0, 32 * 1024);
        assert!((32 * 1024..34 * 1024).contains(&big.1.bytes.len()));
        let x = input(&mut Pcg32::new(1, 1), 64);
        let run = |blob: &ModuleBlob| {
            let m = tvm::Module::from_blob(blob).unwrap();
            tvm::execute(&m, &[&x], &SandboxPolicy::standard()).unwrap()
        };
        let (a, b) = (run(&small.1), run(&big.1));
        assert_eq!(a.1.instructions, b.1.instructions);
        assert!(bit_identical(&a.0, &b.0));
        assert_eq!(a.0[0].len(), 64);
    }

    #[test]
    fn lagged_is_the_autocorrelation_it_claims_to_be() {
        let (_, blob) = module(Kernel::Lagged, 0, 0);
        let x = input(&mut Pcg32::new(2, 2), 100);
        let m = tvm::Module::from_blob(&blob).unwrap();
        let (out, _) = tvm::execute(&m, &[&x], &SandboxPolicy::standard()).unwrap();
        assert_eq!(out[0].len(), 32);
        for (lag, &got) in out[0].iter().enumerate() {
            let mut acc = 0.0;
            for i in 0..100 - lag {
                acc += x[i] * x[i + lag];
            }
            assert_eq!(got.to_bits(), acc.to_bits(), "lag {lag}");
        }
    }

    #[test]
    fn bit_identity_is_stricter_than_equality() {
        assert!(bit_identical(
            &[vec![1.0, f64::NAN]],
            &[vec![1.0, f64::NAN]]
        ));
        assert!(!bit_identical(&[vec![0.0]], &[vec![-0.0]]));
        assert!(!bit_identical(&[vec![1.0]], &[vec![1.0, 2.0]]));
        assert!(!bit_identical(&[vec![1.0]], &[]));
    }
}
