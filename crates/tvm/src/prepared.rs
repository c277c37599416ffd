//! The prepared-execution pipeline: verify once, execute many.
//!
//! [`crate::execute`] re-runs the bytecode verifier on every invocation and
//! heap-allocates a locals `Vec` on every `Op::Call`. That is the wrong cost
//! model for the Consumer Grid, where the same module blob is dispatched to a
//! worker once and then executed for every job, pipeline token, and
//! redundant-execution vote. Like the lightweight-client engines that
//! prepare/cache executable modules once per client, this module splits the
//! lifecycle:
//!
//! * [`PreparedModule::prepare`] — the one-time pass: verify, then decode
//!   every function into a single flat instruction array, one prepared
//!   instruction per source instruction, with jump and call targets
//!   resolved to absolute indices.
//! * [`ExecContext`] — the reusable per-worker execution state: operand
//!   stack, frame stack, and a locals arena. After warm-up, repeated
//!   [`PreparedModule::run`] calls perform **zero heap allocations**,
//!   including on `Call` (callee locals live in the arena).
//!
//! Nothing is fused here. Instruction fusion lives in one place, the
//! register regions of [`crate::tier2`], which translate hot loops from the
//! *source* ops; the stack form is what runs everything else, and what a
//! region falls back to.
//!
//! # Determinism contract
//!
//! The prepared path is an exact semantic twin of [`crate::execute`]: same
//! outputs, same [`ExecStats`] (instruction count and high-water stack), and
//! the same error for every failing program. Each dispatched op retires
//! exactly one source instruction — budget check first, then the op's own
//! checks in the legacy interpreter's order — so hostile programs trip the
//! identical sandbox violation at the identical point. The differential
//! property tests in `tests/properties.rs` pin this equivalence.

use crate::interp::{ExecStats, TvmError};
use crate::isa::Op;
use crate::module::{Module, ModuleBlob};
use crate::sandbox::SandboxPolicy;
use crate::verify::{verify, VerifyError};
use std::fmt;

/// Modeled preparation throughput, in source instructions per virtual
/// microsecond. Used by [`PreparedModule::modeled_prepare_us`] so metering
/// of preparation cost stays deterministic (wall-clock timings belong in
/// the volatile snapshot section only).
pub(crate) const PREPARE_OPS_PER_US: u64 = 100;

/// A binary operation: pop `b`, pop `a`, push `a ∘ b`.
///
/// Comparisons are folded in (they push 1.0/0.0), which lets the region
/// translator treat `cmp; jz` like any other binop/branch pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    #[inline(always)]
    pub(crate) fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Pow => a.powf(b),
            BinOp::Eq => bool_f(a == b),
            BinOp::Ne => bool_f(a != b),
            BinOp::Lt => bool_f(a < b),
            BinOp::Le => bool_f(a <= b),
            BinOp::Gt => bool_f(a > b),
            BinOp::Ge => bool_f(a >= b),
        }
    }

    pub(crate) fn of(op: Op) -> Option<BinOp> {
        Some(match op {
            Op::Add => BinOp::Add,
            Op::Sub => BinOp::Sub,
            Op::Mul => BinOp::Mul,
            Op::Div => BinOp::Div,
            Op::Rem => BinOp::Rem,
            Op::Min => BinOp::Min,
            Op::Max => BinOp::Max,
            Op::Pow => BinOp::Pow,
            Op::Eq => BinOp::Eq,
            Op::Ne => BinOp::Ne,
            Op::Lt => BinOp::Lt,
            Op::Le => BinOp::Le,
            Op::Gt => BinOp::Gt,
            Op::Ge => BinOp::Ge,
            _ => return None,
        })
    }
}

/// A unary operation: pop `a`, push `f(a)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnOp {
    Neg,
    Abs,
    Floor,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Ln,
}

impl UnOp {
    #[inline(always)]
    pub(crate) fn eval(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Floor => a.floor(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::Sin => a.sin(),
            UnOp::Cos => a.cos(),
            UnOp::Exp => a.exp(),
            UnOp::Ln => a.ln(),
        }
    }

    pub(crate) fn of(op: Op) -> Option<UnOp> {
        Some(match op {
            Op::Neg => UnOp::Neg,
            Op::Abs => UnOp::Abs,
            Op::Floor => UnOp::Floor,
            Op::Sqrt => UnOp::Sqrt,
            Op::Sin => UnOp::Sin,
            Op::Cos => UnOp::Cos,
            Op::Exp => UnOp::Exp,
            Op::Ln => UnOp::Ln,
            _ => return None,
        })
    }
}

/// One prepared instruction: exactly one source instruction, with jump and
/// call targets resolved to absolute indices into the flat
/// [`PreparedModule::code`] array.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PInst {
    Push(f64),
    Pop,
    Dup,
    Swap,
    Over,
    Load(u16),
    Store(u16),
    Bin(BinOp),
    Un(UnOp),
    Jmp(u32),
    Jz(u32),
    Jnz(u32),
    Call { entry: u32, n_locals: u16 },
    Ret,
    Halt,
    InLen(u8),
    InGet(u8),
    OutPush(u8),
    OutSet(u8),
    OutLen(u8),
    HostIo,
}

/// Why a blob could not be prepared.
#[derive(Clone, Debug, PartialEq)]
pub enum PrepareError {
    /// Blob bytes do not match their content hash.
    Integrity,
    /// Blob failed to parse back into a module.
    Blob(crate::module::BlobError),
    /// The module failed static verification.
    Verify(VerifyError),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::Integrity => write!(f, "module blob failed integrity check"),
            PrepareError::Blob(e) => write!(f, "bad module blob: {e}"),
            PrepareError::Verify(e) => write!(f, "module rejected by verifier: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

/// A verified, flattened module, ready for repeated execution without
/// further checks or per-call allocation.
#[derive(Clone, Debug)]
pub struct PreparedModule {
    name: String,
    version: u32,
    n_inputs: u8,
    n_outputs: u8,
    /// Locals of function 0, allocated in the arena at run start.
    pub(crate) entry_locals: u16,
    pub(crate) code: Vec<PInst>,
    /// FNV-1a 64 of the source blob bytes — the same value as the blob
    /// content id, so integrity audits can tie a prepared module back to
    /// the library's ground truth.
    source_hash: u64,
}

/// The one-time pass: verify `module`, then flatten it. Also returns each
/// function's base offset in the flat array — source pc `p` of function
/// `f` sits at `bases[f] + p` — which is how tier 2 region detection
/// addresses flat code.
pub(crate) fn prepare_full(module: &Module) -> Result<(PreparedModule, Vec<u32>), VerifyError> {
    verify(module)?;
    let mut bases = Vec::with_capacity(module.functions.len());
    let mut total = 0u32;
    for f in &module.functions {
        bases.push(total);
        total += f.code.len() as u32;
    }
    let mut code = Vec::with_capacity(total as usize);
    for (f, &base) in module.functions.iter().zip(&bases) {
        code.extend(f.code.iter().map(|&op| match op {
            Op::Jmp(t) => PInst::Jmp(base + t),
            Op::Jz(t) => PInst::Jz(base + t),
            Op::Jnz(t) => PInst::Jnz(base + t),
            Op::Call(t) => PInst::Call {
                entry: bases[t as usize],
                n_locals: module.functions[t as usize].n_locals,
            },
            other => translate(other),
        }));
    }
    let prepared = PreparedModule {
        name: module.name.clone(),
        version: module.version,
        n_inputs: module.n_inputs,
        n_outputs: module.n_outputs,
        entry_locals: module.functions[0].n_locals,
        code,
        source_hash: crate::fnv1a64(&module.to_blob().bytes),
    };
    Ok((prepared, bases))
}

impl PreparedModule {
    /// The one-time pass: verify `module`, then flatten.
    pub fn prepare(module: &Module) -> Result<Self, VerifyError> {
        prepare_full(module).map(|(prepared, _)| prepared)
    }

    /// Admit a transferred blob: integrity check, parse, verify, prepare.
    pub fn from_blob(blob: &ModuleBlob) -> Result<Self, PrepareError> {
        if !blob.integrity_ok() {
            return Err(PrepareError::Integrity);
        }
        let module = Module::from_blob(blob).map_err(PrepareError::Blob)?;
        Self::prepare(&module).map_err(PrepareError::Verify)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn version(&self) -> u32 {
        self.version
    }

    pub fn n_inputs(&self) -> u8 {
        self.n_inputs
    }

    pub fn n_outputs(&self) -> u8 {
        self.n_outputs
    }

    /// Content id of the source blob (FNV-1a 64 of its bytes); equal to the
    /// `store` blob id, so cache-integrity audits can cover prepared code.
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }

    /// Source instruction count, the work-estimate signal.
    pub fn source_instructions(&self) -> usize {
        self.code.len()
    }

    /// Deterministic modeled preparation cost in virtual microseconds
    /// (source instructions at a fixed modeled rate). Wall-clock prepare
    /// timings are host-dependent and belong in the volatile snapshot
    /// section; this modeled figure is what deterministic metering records.
    pub fn modeled_prepare_us(&self) -> u64 {
        (self.code.len() as u64) / PREPARE_OPS_PER_US + 1
    }

    /// Execute and return owned outputs, mirroring [`crate::execute`]'s
    /// signature. Allocates for the returned `Vec`s; use [`Self::run`] for
    /// the allocation-free steady state.
    pub fn execute(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> Result<(Vec<Vec<f64>>, ExecStats), TvmError> {
        let stats = self.run(inputs, policy, ctx)?;
        Ok((ctx.outputs().to_vec(), stats))
    }

    /// Instrumented variant of [`Self::execute`]; records the same
    /// `tvm.*` counters as [`crate::execute_obs`].
    pub fn execute_obs(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
        observer: &obs::Obs,
    ) -> Result<(Vec<Vec<f64>>, ExecStats), TvmError> {
        let result = self.execute(inputs, policy, ctx);
        if observer.is_enabled() {
            let slim = result.as_ref().map(|(_, s)| *s).map_err(Clone::clone);
            crate::interp::record_execution(observer, &slim);
        }
        result
    }

    /// Execute in `ctx`, leaving the outputs in the context's reusable
    /// buffers (read them via [`ExecContext::outputs`]). After the context
    /// has warmed up, this performs no heap allocation.
    pub fn run(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> Result<ExecStats, TvmError> {
        if inputs.len() != self.n_inputs as usize {
            return Err(TvmError::BadArity {
                expected: self.n_inputs,
                got: inputs.len(),
            });
        }
        ctx.bind(self.entry_locals as usize, self.n_outputs as usize);
        crate::tier2::run_vm::<false>(self, None, inputs, policy, ctx)
    }
}

/// Reusable execution state: operand stack, frame stack, locals arena and
/// output buffers. One per worker (or per thread); repeated runs reuse all
/// four allocations.
#[derive(Debug, Default)]
pub struct ExecContext {
    /// Operand stack storage; `sp` lives in the interpreter loop.
    pub(crate) stack: Vec<f64>,
    /// Suspended caller frames: (return pc, caller locals base).
    pub(crate) frames: Vec<(u32, u32)>,
    /// Locals arena; each frame owns a `[base, top)` window.
    pub(crate) locals: Vec<f64>,
    /// Output port buffers; cleared (not freed) between runs.
    pub(crate) outputs: Vec<Vec<f64>>,
    /// Live output port count of the last bound module.
    n_outputs: usize,
    /// Tier-2 virtual-register frame; sized lazily per region.
    pub(crate) regs: Vec<f64>,
    /// Tier-2 fallback exits (region abandoned for precise stepping) taken
    /// by the most recent run; zero on stack-tier runs.
    pub(crate) tier2_fallbacks: u64,
}

impl ExecContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Output ports of the most recent [`PreparedModule::run`].
    pub fn outputs(&self) -> &[Vec<f64>] {
        &self.outputs[..self.n_outputs]
    }

    /// Tier-2 fallback exits taken by the most recent run: times a hot-loop
    /// region was abandoned mid-flight (budget or stack headroom exhausted)
    /// in favour of precise stack-form stepping.
    pub fn tier2_fallbacks(&self) -> u64 {
        self.tier2_fallbacks
    }

    /// Ready the context for a run: entry locals zeroed, output buffers
    /// cleared with capacity retained.
    pub(crate) fn bind(&mut self, entry_locals: usize, n_outputs: usize) {
        self.frames.clear();
        if self.locals.len() < entry_locals {
            self.locals.resize(entry_locals, 0.0);
        } else {
            self.locals[..entry_locals].fill(0.0);
        }
        if self.outputs.len() < n_outputs {
            self.outputs.resize_with(n_outputs, Vec::new);
        }
        for out in &mut self.outputs[..n_outputs] {
            out.clear();
        }
        self.n_outputs = n_outputs;
        self.tier2_fallbacks = 0;
    }
}

#[inline(always)]
fn bool_f(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// One-to-one translation of a source instruction that names no code
/// address (branches and calls are resolved by [`prepare_full`]).
fn translate(op: Op) -> PInst {
    if let Some(b) = BinOp::of(op) {
        return PInst::Bin(b);
    }
    if let Some(u) = UnOp::of(op) {
        return PInst::Un(u);
    }
    match op {
        Op::Push(x) => PInst::Push(x),
        Op::Pop => PInst::Pop,
        Op::Dup => PInst::Dup,
        Op::Swap => PInst::Swap,
        Op::Over => PInst::Over,
        Op::Load(i) => PInst::Load(i),
        Op::Store(i) => PInst::Store(i),
        Op::Ret => PInst::Ret,
        Op::Halt => PInst::Halt,
        Op::InLen(p) => PInst::InLen(p),
        Op::InGet(p) => PInst::InGet(p),
        Op::OutPush(p) => PInst::OutPush(p),
        Op::OutSet(p) => PInst::OutSet(p),
        Op::OutLen(p) => PInst::OutLen(p),
        Op::HostIo(_) => PInst::HostIo,
        _ => unreachable!("arithmetic, branches and calls handled by the callers"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Function;
    use crate::{execute, Module};
    use Op::*;

    fn module1(code: Vec<Op>, n_locals: u16, n_inputs: u8, n_outputs: u8) -> Module {
        Module {
            name: "t".into(),
            version: 1,
            n_inputs,
            n_outputs,
            functions: vec![Function {
                name: "main".into(),
                n_locals,
                code,
            }],
        }
    }

    type ExecOutcome = Result<(Vec<Vec<f64>>, ExecStats), TvmError>;

    fn both(m: &Module, inputs: &[&[f64]], policy: &SandboxPolicy) -> (ExecOutcome, ExecOutcome) {
        let legacy = execute(m, inputs, policy);
        let prepared = PreparedModule::prepare(m).expect("verifies");
        let mut ctx = ExecContext::new();
        let fast = prepared.execute(inputs, policy, &mut ctx);
        (legacy, fast)
    }

    #[test]
    fn doubler_loop_matches_legacy_exactly() {
        let m = module1(
            vec![
                InLen(0),
                Store(0),
                Push(0.0),
                Store(1),
                Load(1),
                Load(0),
                Lt,
                Jz(18),
                Load(1),
                InGet(0),
                Push(2.0),
                Mul,
                OutPush(0),
                Load(1),
                Push(1.0),
                Add,
                Store(1),
                Jmp(4),
                Halt,
            ],
            2,
            1,
            1,
        );
        let input = [1.0, 2.5, -3.0];
        let (legacy, fast) = both(&m, &[&input], &SandboxPolicy::standard());
        assert_eq!(legacy, fast);
        assert_eq!(fast.unwrap().0[0], vec![2.0, 5.0, -6.0]);
    }

    #[test]
    fn calls_use_the_arena_and_match_legacy() {
        let m = Module {
            name: "sq".into(),
            version: 1,
            n_inputs: 0,
            n_outputs: 1,
            functions: vec![
                Function {
                    name: "main".into(),
                    n_locals: 1,
                    code: vec![Push(3.0), Call(1), Call(1), OutPush(0), Halt],
                },
                Function {
                    name: "square".into(),
                    n_locals: 2,
                    code: vec![Dup, Mul, Ret],
                },
            ],
        };
        let (legacy, fast) = both(&m, &[], &SandboxPolicy::standard());
        assert_eq!(legacy, fast);
        assert_eq!(fast.unwrap().0[0], vec![81.0]);
    }

    #[test]
    fn deep_recursion_depth_error_matches() {
        let m = module1(vec![Call(0), Ret], 0, 0, 0);
        let policy = SandboxPolicy {
            max_call_depth: 8,
            ..SandboxPolicy::standard()
        };
        let (legacy, fast) = both(&m, &[], &policy);
        assert_eq!(legacy, fast);
        assert_eq!(fast, Err(TvmError::CallDepthExceeded));
    }

    #[test]
    fn host_io_denied_matches() {
        let m = module1(vec![Push(1.0), HostIo(0), Pop, Halt], 0, 0, 0);
        let (legacy, fast) = both(&m, &[], &SandboxPolicy::standard());
        assert_eq!(legacy, fast);
        assert_eq!(fast, Err(TvmError::HostIoDenied));
        let (legacy, fast) = both(&m, &[], &SandboxPolicy::trusted());
        assert_eq!(legacy, fast);
        assert!(fast.is_ok());
    }

    #[test]
    fn context_reuse_is_clean_across_runs_and_modules() {
        let m1 = module1(vec![Push(1.0), OutPush(0), Halt], 0, 0, 1);
        let m2 = module1(
            vec![Load(0), OutPush(0), Load(1), OutPush(1), Halt],
            2,
            0,
            2,
        );
        let p1 = PreparedModule::prepare(&m1).unwrap();
        let p2 = PreparedModule::prepare(&m2).unwrap();
        let mut ctx = ExecContext::new();
        for _ in 0..3 {
            let (out, _) = p1
                .execute(&[], &SandboxPolicy::standard(), &mut ctx)
                .unwrap();
            assert_eq!(out, vec![vec![1.0]]);
            // m2's locals must be zero despite m1 leaving stack residue.
            let (out, _) = p2
                .execute(&[], &SandboxPolicy::standard(), &mut ctx)
                .unwrap();
            assert_eq!(out, vec![vec![0.0], vec![0.0]]);
        }
    }

    #[test]
    fn from_blob_checks_integrity() {
        let m = module1(vec![Push(1.0), Pop, Halt], 0, 0, 0);
        let mut blob = m.to_blob();
        assert!(PreparedModule::from_blob(&blob).is_ok());
        let n = blob.bytes.len();
        blob.bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            PreparedModule::from_blob(&blob),
            Err(PrepareError::Integrity)
        ));
    }

    #[test]
    fn source_hash_is_the_blob_content_id() {
        let m = module1(vec![Push(1.0), Pop, Halt], 0, 0, 0);
        let p = PreparedModule::prepare(&m).unwrap();
        assert_eq!(p.source_hash(), crate::fnv1a64(&m.to_blob().bytes));
        assert_eq!(p.source_hash(), m.to_blob().hash);
    }

    #[test]
    fn modeled_prepare_cost_is_deterministic() {
        let m = module1(vec![Push(1.0), Pop, Halt], 0, 0, 0);
        let p = PreparedModule::prepare(&m).unwrap();
        assert_eq!(p.modeled_prepare_us(), 1);
        assert_eq!(
            PreparedModule::prepare(&m).unwrap().modeled_prepare_us(),
            p.modeled_prepare_us()
        );
    }
}
