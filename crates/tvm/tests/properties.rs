//! Property tests: the verifier/sandbox never let malformed or hostile
//! bytecode do anything undefined.

use proptest::prelude::*;
use tvm::asm::assemble;
use tvm::{
    execute, ExecContext, Function, Module, Op, PreparedModule, SandboxPolicy, Tier2Module,
    TvmError,
};

/// Arbitrary (possibly invalid) instruction.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Dup),
        Just(Op::Swap),
        Just(Op::Add),
        Just(Op::Mul),
        Just(Op::Div),
        Just(Op::Sqrt),
        Just(Op::Lt),
        (0u16..8).prop_map(Op::Load),
        (0u16..8).prop_map(Op::Store),
        (0u32..64).prop_map(Op::Jmp),
        (0u32..64).prop_map(Op::Jz),
        (0u16..4).prop_map(Op::Call),
        Just(Op::Ret),
        Just(Op::Halt),
        (0u8..3).prop_map(Op::InLen),
        (0u8..3).prop_map(Op::InGet),
        (0u8..3).prop_map(Op::OutPush),
        (0u8..3).prop_map(Op::OutLen),
        (0u8..2).prop_map(Op::HostIo),
    ]
}

/// Arbitrary instruction drawing from the *full* ISA (for the differential
/// prepared-vs-legacy tests, which need every opcode and fusion shape).
fn arb_full_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Dup),
        Just(Op::Swap),
        Just(Op::Over),
        (0u16..64).prop_map(Op::Load),
        (0u16..64).prop_map(Op::Store),
        prop_oneof![
            Just(Op::Add),
            Just(Op::Sub),
            Just(Op::Mul),
            Just(Op::Div),
            Just(Op::Rem),
            Just(Op::Min),
            Just(Op::Max),
            Just(Op::Pow),
        ],
        prop_oneof![
            Just(Op::Neg),
            Just(Op::Abs),
            Just(Op::Floor),
            Just(Op::Sqrt),
            Just(Op::Sin),
            Just(Op::Cos),
            Just(Op::Exp),
            Just(Op::Ln),
        ],
        prop_oneof![
            Just(Op::Eq),
            Just(Op::Ne),
            Just(Op::Lt),
            Just(Op::Le),
            Just(Op::Gt),
            Just(Op::Ge),
        ],
        (0u32..64).prop_map(Op::Jmp),
        (0u32..64).prop_map(Op::Jz),
        (0u32..64).prop_map(Op::Jnz),
        (0u16..8).prop_map(Op::Call),
        Just(Op::Ret),
        Just(Op::Halt),
        (0u8..8).prop_map(Op::InLen),
        (0u8..8).prop_map(Op::InGet),
        (0u8..8).prop_map(Op::OutPush),
        (0u8..8).prop_map(Op::OutSet),
        (0u8..8).prop_map(Op::OutLen),
        (0u8..2).prop_map(Op::HostIo),
    ]
}

/// Make an arbitrary op stream *valid by construction*: append a
/// terminator, then clamp every index/target into range so the verifier
/// accepts the function.
fn sanitize(mut code: Vec<Op>, n_locals: u16, n_funcs: u16, ports: u8, terminator: Op) -> Vec<Op> {
    code.push(terminator);
    let len = code.len() as u32;
    for op in &mut code {
        *op = match *op {
            Op::Load(i) => Op::Load(i % n_locals),
            Op::Store(i) => Op::Store(i % n_locals),
            Op::Call(t) => Op::Call(t % n_funcs),
            Op::Jmp(t) => Op::Jmp(t % len),
            Op::Jz(t) => Op::Jz(t % len),
            Op::Jnz(t) => Op::Jnz(t % len),
            Op::InLen(p) => Op::InLen(p % ports),
            Op::InGet(p) => Op::InGet(p % ports),
            Op::OutPush(p) => Op::OutPush(p % ports),
            Op::OutSet(p) => Op::OutSet(p % ports),
            Op::OutLen(p) => Op::OutLen(p % ports),
            other => other,
        };
    }
    code
}

const DIFF_LOCALS: u16 = 6;
const DIFF_PORTS: u8 = 3;

/// Build a verified multi-function module from arbitrary op streams.
fn diff_module(bodies: Vec<Vec<Op>>) -> Module {
    let n_funcs = bodies.len() as u16;
    let functions = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| Function {
            name: format!("f{i}"),
            n_locals: DIFF_LOCALS,
            code: sanitize(
                body,
                DIFF_LOCALS,
                n_funcs,
                DIFF_PORTS,
                if i == 0 { Op::Halt } else { Op::Ret },
            ),
        })
        .collect();
    Module {
        name: "diff".into(),
        version: 1,
        n_inputs: DIFF_PORTS,
        n_outputs: DIFF_PORTS,
        functions,
    }
}

/// f64 equality up to bit identity (NaN-safe): the prepared path must
/// reproduce legacy outputs *bit for bit*.
fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|port| port.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Error equality; `IndexOutOfBounds` carries the offending f64 index,
/// which may be NaN.
fn errs_eq(a: &TvmError, b: &TvmError) -> bool {
    match (a, b) {
        (
            TvmError::IndexOutOfBounds {
                port: p1,
                index: i1,
            },
            TvmError::IndexOutOfBounds {
                port: p2,
                index: i2,
            },
        ) => p1 == p2 && i1.to_bits() == i2.to_bits(),
        _ => a == b,
    }
}

/// Run every tier (each twice, to also exercise context reuse) and
/// describe the first divergence from legacy, if any. The N-way barrage:
/// Legacy is ground truth; Prepared and Tier2 must reproduce its outputs
/// bit for bit, its `ExecStats`, and its typed errors.
fn equiv_failure(module: &Module, inputs: &[&[f64]], policy: &SandboxPolicy) -> Option<String> {
    let legacy = execute(module, inputs, policy);
    let prepared = match PreparedModule::prepare(module) {
        Ok(p) => p,
        Err(e) => return Some(format!("prepare rejected a verified module: {e}")),
    };
    let tier2 = match Tier2Module::prepare(module) {
        Ok(t) => t,
        Err(e) => return Some(format!("tier2 prepare rejected a verified module: {e}")),
    };
    let mut ctx = ExecContext::new();
    for round in 0..2 {
        let runs = [
            ("prepared", prepared.execute(inputs, policy, &mut ctx)),
            ("tier2", tier2.execute(inputs, policy, &mut ctx)),
        ];
        for (tier, fast) in &runs {
            let same = match (&legacy, fast) {
                (Ok((lo, ls)), Ok((fo, fs))) => bits(lo) == bits(fo) && ls == fs,
                (Err(a), Err(b)) => errs_eq(a, b),
                _ => false,
            };
            if !same {
                return Some(format!(
                    "round {round} diverged:\n  legacy = {legacy:?}\n  {tier} = {fast:?}"
                ));
            }
        }
    }
    None
}

proptest! {
    /// Differential: for arbitrary *valid* modules and inputs, the
    /// prepared path produces identical outputs (bit for bit), identical
    /// `ExecStats`, and identical errors — including budget exhaustion,
    /// which the legacy interpreter checks before every source
    /// instruction and fused superinstructions must replicate mid-window.
    #[test]
    fn prepared_path_matches_legacy(
        bodies in proptest::collection::vec(
            proptest::collection::vec(arb_full_op(), 1..50), 1..4),
        lens in proptest::collection::vec(0usize..12, 3..4),
        seed in 0u64..1000,
    ) {
        let module = diff_module(bodies);
        let buffers: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(p, &n)| {
                (0..n)
                    .map(|j| (seed as f64 + p as f64 * 7.5 - j as f64 * 1.25).sin() * 50.0)
                    .collect()
            })
            .collect();
        let slices: Vec<&[f64]> = buffers.iter().map(Vec::as_slice).collect();
        let policy = SandboxPolicy {
            max_instructions: 20_000,
            max_stack: 64,
            max_call_depth: 8,
            max_output_cells: 1_024,
            allow_host_io: false,
        };
        let failure = equiv_failure(&module, &slices, &policy);
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }

    /// Differential under hostile-tight policies: every sandbox violation
    /// (budget, stack overflow, call depth, output cap, HostIo trap) must
    /// fire identically on both paths — at the exact same source
    /// instruction even when it sits inside a fused window.
    #[test]
    fn prepared_path_matches_legacy_under_tight_policies(
        bodies in proptest::collection::vec(
            proptest::collection::vec(arb_full_op(), 1..50), 1..4),
        max_instructions in 1u64..2_000,
        max_stack in 1usize..10,
        max_call_depth in 1usize..6,
        max_output_cells in 0usize..48,
        host_io in 0u8..2,
    ) {
        let module = diff_module(bodies);
        let input = [1.5, -2.0, 0.0, 40.0];
        let slices: Vec<&[f64]> = vec![&input; DIFF_PORTS as usize];
        let policy = SandboxPolicy {
            max_instructions,
            max_stack,
            max_call_depth,
            max_output_cells,
            allow_host_io: host_io == 1,
        };
        let failure = equiv_failure(&module, &slices, &policy);
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }
}

/// Straight-line op pool for loop bodies: no control flow, every index in
/// range by construction, so the loop skeleton stays verifiable.
fn arb_line_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-100f64..100.0).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Dup),
        Just(Op::Swap),
        Just(Op::Over),
        (0u16..DIFF_LOCALS).prop_map(Op::Load),
        (0u16..DIFF_LOCALS).prop_map(Op::Store),
        prop_oneof![
            Just(Op::Add),
            Just(Op::Sub),
            Just(Op::Mul),
            Just(Op::Div),
            Just(Op::Min),
            Just(Op::Max),
        ],
        prop_oneof![
            Just(Op::Neg),
            Just(Op::Abs),
            Just(Op::Sqrt),
            Just(Op::Floor),
        ],
        prop_oneof![Just(Op::Lt), Just(Op::Ge), Just(Op::Eq)],
        (0u8..DIFF_PORTS).prop_map(Op::InLen),
        (0u8..DIFF_PORTS).prop_map(Op::InGet),
        (0u8..DIFF_PORTS).prop_map(Op::OutPush),
        (0u8..DIFF_PORTS).prop_map(Op::OutLen),
    ]
}

/// A counted while-loop over local 5 around an arbitrary straight-line
/// body — the exact shape tier 2 hunts for. Some bodies translate to
/// register form, others defeat the translator (stack dips below entry
/// depth, interior traps); both kinds must agree with legacy either way.
/// `iters == 0` exercises zero-trip loops: the region's head exit fires
/// before any iteration retires.
fn loop_module(iters: u8, body: Vec<Op>) -> Module {
    let mut code = vec![Op::Push(iters as f64), Op::Store(5)];
    let head = code.len() as u32;
    code.push(Op::Load(5));
    let patch = code.len();
    code.push(Op::Jz(0)); // forward exit, target patched below
    code.extend(body);
    code.extend([Op::Load(5), Op::Push(1.0), Op::Sub, Op::Store(5)]);
    code.push(Op::Jmp(head));
    code[patch] = Op::Jz(code.len() as u32);
    code.push(Op::Halt);
    Module {
        name: "loopy".into(),
        version: 1,
        n_inputs: DIFF_PORTS,
        n_outputs: DIFF_PORTS,
        functions: vec![Function {
            name: "main".into(),
            n_locals: DIFF_LOCALS,
            code,
        }],
    }
}

proptest! {
    /// Tier barrage over loop-shaped modules: counted loops with
    /// arbitrary straight-line bodies, run under the standard policy.
    /// This is the generator most likely to admit a translated region, so
    /// every fused superinstruction path gets differential coverage.
    #[test]
    fn tier_barrage_on_loop_shaped_modules(
        iters in 0u8..9,
        body in proptest::collection::vec(arb_line_op(), 0..24),
        lens in proptest::collection::vec(0usize..12, 3..4),
        seed in 0u64..1000,
    ) {
        let module = loop_module(iters, body);
        let buffers: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(p, &n)| {
                (0..n)
                    .map(|j| (seed as f64 + p as f64 * 3.5 + j as f64 * 0.75).cos() * 20.0)
                    .collect()
            })
            .collect();
        let slices: Vec<&[f64]> = buffers.iter().map(Vec::as_slice).collect();
        let failure = equiv_failure(&module, &slices, &SandboxPolicy::standard());
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }

    /// The same barrage under hostile-tight policies: budget exhaustion
    /// must fire at the exact same source instruction whether the loop is
    /// running in register form (bulk-charged iterations plus a precise
    /// fallback) or stepping op by op.
    #[test]
    fn tier_barrage_on_loops_under_tight_policies(
        iters in 0u8..9,
        body in proptest::collection::vec(arb_line_op(), 0..24),
        max_instructions in 1u64..400,
        max_stack in 1usize..12,
        max_output_cells in 0usize..24,
    ) {
        let module = loop_module(iters, body);
        let input = [2.5, 0.0, -7.0];
        let slices: Vec<&[f64]> = vec![&input; DIFF_PORTS as usize];
        let policy = SandboxPolicy {
            max_instructions,
            max_stack,
            max_call_depth: 4,
            max_output_cells,
            allow_host_io: false,
        };
        let failure = equiv_failure(&module, &slices, &policy);
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }

    /// Verification is tier-independent: for raw (unsanitized) op streams,
    /// the standalone verifier, `PreparedModule::prepare`, and
    /// `Tier2Module::prepare` accept or reject in lockstep, with the same
    /// typed error.
    #[test]
    fn tiers_agree_on_verification_rejection(
        bodies in proptest::collection::vec(
            proptest::collection::vec(arb_full_op(), 1..30), 1..3),
    ) {
        let functions = bodies
            .into_iter()
            .enumerate()
            .map(|(i, code)| Function {
                name: format!("f{i}"),
                n_locals: 4,
                code,
            })
            .collect();
        let module = Module {
            name: "raw".into(),
            version: 1,
            n_inputs: 2,
            n_outputs: 2,
            functions,
        };
        let verdict = tvm::verify::verify(&module);
        let prepared = PreparedModule::prepare(&module);
        let tier2 = Tier2Module::prepare(&module);
        match verdict {
            Ok(()) => {
                prop_assert!(prepared.is_ok(), "prepared rejected a verified module");
                prop_assert!(tier2.is_ok(), "tier2 rejected a verified module");
            }
            Err(e) => {
                let want = format!("{e:?}");
                match (&prepared, &tier2) {
                    (Err(pe), Err(te)) => {
                        prop_assert_eq!(format!("{:?}", pe), want.clone());
                        prop_assert_eq!(format!("{:?}", te), want);
                    }
                    _ => prop_assert!(false, "a tier accepted a rejected module"),
                }
            }
        }
    }
}

proptest! {
    /// Whatever bytecode we throw at it — verified or rejected — execution
    /// never panics, never exceeds the sandbox, and always terminates
    /// (budget-bounded).
    #[test]
    fn execution_is_total_and_bounded(
        code in proptest::collection::vec(arb_op(), 1..80),
        n_locals in 0u16..8,
        n_inputs in 0u8..3,
        n_outputs in 0u8..3,
        input_len in 0usize..32,
    ) {
        let module = Module {
            name: "fuzz".into(),
            version: 0,
            n_inputs,
            n_outputs,
            functions: vec![Function {
                name: "main".into(),
                n_locals,
                code,
            }],
        };
        let policy = SandboxPolicy {
            max_instructions: 50_000,
            max_stack: 256,
            max_call_depth: 8,
            max_output_cells: 4_096,
            allow_host_io: false,
        };
        let buffers: Vec<Vec<f64>> = (0..n_inputs)
            .map(|i| vec![i as f64; input_len])
            .collect();
        let slices: Vec<&[f64]> = buffers.iter().map(Vec::as_slice).collect();
        // Rejection is fine; panicking is not.
        if let Ok((outputs, stats)) = execute(&module, &slices, &policy) {
            prop_assert!(stats.instructions <= policy.max_instructions);
            prop_assert!(stats.max_stack <= policy.max_stack);
            let cells: usize = outputs.iter().map(Vec::len).sum();
            prop_assert!(cells <= policy.max_output_cells);
        }
    }

    /// The caps themselves can be arbitrary (and hostile-tight): whatever
    /// the policy says is the budget, a successful run never exceeds it.
    #[test]
    fn random_tight_budgets_are_never_exceeded(
        code in proptest::collection::vec(arb_op(), 1..80),
        n_locals in 0u16..8,
        max_instructions in 1u64..5_000,
        max_stack in 1usize..64,
        max_call_depth in 1usize..8,
        max_output_cells in 0usize..256,
    ) {
        let module = Module {
            name: "budget".into(),
            version: 0,
            n_inputs: 0,
            n_outputs: 3,
            functions: vec![Function {
                name: "main".into(),
                n_locals,
                code,
            }],
        };
        let policy = SandboxPolicy {
            max_instructions,
            max_stack,
            max_call_depth,
            max_output_cells,
            allow_host_io: false,
        };
        if let Ok((outputs, stats)) = execute(&module, &[], &policy) {
            prop_assert!(stats.instructions <= max_instructions);
            prop_assert!(stats.max_stack <= max_stack);
            prop_assert!(outputs.iter().map(Vec::len).sum::<usize>() <= max_output_cells);
        }
    }

    /// A module that leads with `HostIo` under a no-host-I/O policy never
    /// runs to completion: either the verifier rejects it statically, or
    /// execution traps `HostIoDenied` on the very first instruction —
    /// before the op can observe or touch anything.
    #[test]
    fn host_io_without_capability_never_executes(
        tail in proptest::collection::vec(arb_op(), 0..40),
        port in 0u8..2,
    ) {
        let mut code = vec![Op::HostIo(port)];
        code.extend(tail);
        code.push(Op::Halt);
        let module = Module {
            name: "hostio".into(),
            version: 0,
            n_inputs: 0,
            n_outputs: 0,
            functions: vec![Function {
                name: "main".into(),
                n_locals: 0,
                code,
            }],
        };
        let policy = SandboxPolicy::standard(); // allow_host_io: false
        match execute(&module, &[], &policy) {
            Ok(_) => prop_assert!(false, "HostIo must not succeed without the capability"),
            Err(TvmError::Verify(_)) => {} // static rejection also denies
            Err(e) => prop_assert!(
                matches!(e, TvmError::HostIoDenied),
                "expected HostIoDenied, got {e:?}"
            ),
        }
    }

    /// Bytecode encode/decode round-trips arbitrary op streams.
    #[test]
    fn wire_round_trip(code in proptest::collection::vec(arb_op(), 0..100)) {
        let mut bytes = Vec::new();
        for op in &code {
            op.encode(&mut bytes);
        }
        let mut pos = 0;
        let mut back = Vec::new();
        while pos < bytes.len() {
            back.push(Op::decode(&bytes, &mut pos).unwrap());
        }
        prop_assert_eq!(back, code);
    }

    /// Assembler output always passes the verifier and the blob format.
    #[test]
    fn assembled_modules_verify(pushes in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
        let mut src = String::from(".module P 1 0 1\n.func main 0\n");
        for v in &pushes {
            src.push_str(&format!(" push {v}\n outpush 0\n"));
        }
        src.push_str(" halt\n");
        let module = assemble(&src).unwrap();
        tvm::verify::verify(&module).unwrap();
        let blob = module.to_blob();
        prop_assert!(blob.integrity_ok());
        let (out, _) = execute(&module, &[], &SandboxPolicy::standard()).unwrap();
        prop_assert_eq!(out[0].len(), pushes.len());
    }
}
