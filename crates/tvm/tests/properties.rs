//! Property tests: the verifier/sandbox never let malformed or hostile
//! bytecode do anything undefined.

use proptest::prelude::*;
use tvm::asm::assemble;
use tvm::{execute, ExecContext, Function, Module, Op, PreparedModule, SandboxPolicy, TvmError};

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

/// Run the prepared module (twice, to also exercise context reuse) and
/// describe the first divergence from the reference interpreter, if any.
/// The reference is ground truth: the prepared module must reproduce its
/// outputs bit for bit, its `ExecStats`, and its typed errors.
fn equiv_failure(module: &Module, inputs: &[&[f64]], policy: &SandboxPolicy) -> Option<String> {
    match PreparedModule::prepare(module) {
        Ok(prepared) => divergence(
            module,
            &prepared,
            &mut ExecContext::new(),
            inputs,
            policy,
            bits,
        ),
        Err(e) => Some(format!("prepare rejected a verified module: {e}")),
    }
}

/// [`equiv_failure`] for a module already prepared, in a context the
/// caller may reuse across policies, with outputs compared as `key`
/// renders them.
fn divergence(
    module: &Module,
    prepared: &PreparedModule,
    ctx: &mut ExecContext,
    inputs: &[&[f64]],
    policy: &SandboxPolicy,
    key: fn(&[Vec<f64>]) -> Vec<Vec<u64>>,
) -> Option<String> {
    let reference = execute(module, inputs, policy);
    for round in 0..2 {
        let fast = prepared.execute(inputs, policy, ctx);
        let same = match (&reference, &fast) {
            (Ok((lo, ls)), Ok((fo, fs))) => key(lo) == key(fo) && ls == fs,
            (Err(a), Err(b)) => errs_eq(a, b),
            _ => false,
        };
        if !same {
            return Some(format!(
                "round {round} diverged:\n  reference = {reference:?}\n  prepared = {fast:?}"
            ));
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

/// The local [`loop_module`]'s counter lives in. Statements and repeated
/// subexpressions store only below it, so most loops still end by count
/// rather than at the budget wall.
const COUNTER: u16 = DIFF_LOCALS - 1;

/// Every binary op, so value numbering sees each `BinOp` key.
fn arb_binop() -> impl Strategy<Value = Op> {
    prop_oneof![
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
            Just(Op::Eq),
            Just(Op::Ne),
            Just(Op::Lt),
            Just(Op::Le),
            Just(Op::Gt),
            Just(Op::Ge),
        ],
    ]
}

/// Every unary op, so value numbering sees each `UnOp` key.
fn arb_unop() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Neg),
        Just(Op::Abs),
        Just(Op::Floor),
        Just(Op::Sqrt),
        Just(Op::Sin),
        Just(Op::Cos),
        Just(Op::Exp),
        Just(Op::Ln),
    ]
}

fn arb_cmp() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Lt), Just(Op::Ge), Just(Op::Eq), Just(Op::Ne)]
}

/// A repeated subexpression `E` — `load a; load b; <binop>` or
/// `load a; <unop>` — computed twice with a store into `a`, `b` or
/// another local `t` between the two, in one of five shapes:
/// - `E; store t; E; store z`: the first result is stored, so its
///   producer is retargeted;
/// - `E; push k; store t; E; <bin>; store z`: the first result waits on
///   the stack while a constant is stored (a `Mov`);
/// - `E; dup; store t; E; <bin>; store z`: the first result is stored and
///   still waits on the stack (a `Mov` from it);
/// - `load t; E; store t; E; <bin>; store z`: the old value of `t` waits
///   beneath, so the store first copies it aside (the alias `Mov`, placed
///   before a retargeted producer);
/// - `E; pop; E; store z`: nothing is stored between, so the reuse's
///   producer is the one retargeted.
///
/// Value numbering may reuse the first result only when the store missed
/// every operand.
fn arb_repeat() -> impl Strategy<Value = Vec<Op>> {
    (
        (0u16..COUNTER, 0u16..COUNTER, 0u8..4),
        (arb_binop(), arb_unop(), arb_binop()),
        (0u8..3, 0u16..COUNTER),
        (0u8..5, 0u8..5),
        0u16..COUNTER,
    )
        .prop_map(
            |((a, b, unary), (op, un, bin), (into, other), (shape, k), z)| {
                let expr = if unary == 0 {
                    vec![Op::Load(a), un]
                } else {
                    vec![Op::Load(a), Op::Load(b), op]
                };
                let target = [a, b, other][into as usize];
                let store = Op::Store(target);
                let between = match shape {
                    0 | 3 => vec![store],
                    1 => vec![Op::Push(f64::from(k) - 2.0), store],
                    2 => vec![Op::Dup, store],
                    _ => vec![Op::Pop],
                };
                let mut ops = if shape == 3 {
                    vec![Op::Load(target)]
                } else {
                    Vec::new()
                };
                ops.extend(&expr);
                ops.extend(between);
                ops.extend(expr);
                if (1..=3).contains(&shape) {
                    ops.push(bin);
                }
                ops.push(Op::Store(z));
                ops
            },
        )
}

/// A stack-balanced statement: `load a; load b; <binop>; store c`,
/// `load a; <unop>; store c`, `load a; inget p; store c`, a gather pair
/// `load a; inget p; load b; inget q; <binop>; store c`, a dependent
/// gather `load a; inget p; inget q; store c`, `load a; outpush p`, a
/// constant operand `load a; push k; <binop>; store c`, a shuffle
/// `load a; load b; swap; <binop>; store c` or
/// `load a; load b; over; <binop>; <binop>; store c`, or lengths
/// `inlen p; outlen q; <binop>; store c`.
fn arb_statement() -> impl Strategy<Value = Vec<Op>> {
    (
        (0u8..10, -3i8..4),
        (0u16..COUNTER, 0u16..COUNTER, 0u16..COUNTER),
        (arb_binop(), arb_binop()),
        arb_unop(),
        (0u8..DIFF_PORTS, 0u8..DIFF_PORTS),
    )
        .prop_map(|((kind, k), (a, b, c), (bin, bin2), un, (p, q))| {
            let mut ops = match kind {
                0 => vec![Op::Load(a), Op::Load(b), bin],
                1 => vec![Op::Load(a), un],
                2 => vec![Op::Load(a), Op::InGet(p)],
                3 => vec![Op::Load(a), Op::InGet(p), Op::Load(b), Op::InGet(q), bin],
                4 => vec![Op::Load(a), Op::InGet(p), Op::InGet(q)],
                5 => return vec![Op::Load(a), Op::OutPush(p)],
                6 => vec![Op::Load(a), Op::Push(f64::from(k)), bin],
                7 => vec![Op::Load(a), Op::Load(b), Op::Swap, bin],
                8 => vec![Op::Load(a), Op::Load(b), Op::Over, bin, bin2],
                _ => vec![Op::InLen(p), Op::OutLen(q), bin],
            };
            ops.push(Op::Store(c));
            ops
        })
}

/// Operands `op` pops and results it pushes, for the ops of
/// [`arb_line_op`].
fn pops_pushes(op: Op) -> (usize, usize) {
    match op {
        Op::Push(_) | Op::Load(_) | Op::InLen(_) | Op::OutLen(_) => (0, 1),
        Op::Pop | Op::Store(_) | Op::OutPush(_) => (1, 0),
        Op::Dup => (1, 2),
        Op::Swap => (2, 2),
        Op::Over => (2, 3),
        Op::InGet(_) | Op::Neg | Op::Abs | Op::Sqrt | Op::Floor => (1, 1),
        _ => (2, 1),
    }
}

/// A stack-balanced run of arbitrary straight-line ops: three loads, the
/// ops of a random run that find enough operands on the stack (so stack
/// shuffles, repeats and stores into locals still loaded beneath all
/// occur inside a region that translates), then stores that drain what
/// is left.
fn arb_shuffle() -> impl Strategy<Value = Vec<Op>> {
    (
        (0u16..COUNTER, 0u16..COUNTER, 0u16..COUNTER),
        proptest::collection::vec(arb_line_op(), 0..12),
    )
        .prop_map(|((a, b, c), run)| {
            let mut ops = vec![Op::Load(a), Op::Load(b), Op::Load(c)];
            let mut depth = 3;
            for op in run {
                let (pops, pushes) = pops_pushes(op);
                if depth >= pops {
                    depth = depth - pops + pushes;
                    ops.push(op);
                }
            }
            ops.extend((0..depth).map(|i| Op::Store([a, b, c][i % 3])));
            ops
        })
}

/// A loop body of pieces: one in eight a lone straight-line op (which
/// usually unbalances the stack, so the loop stays in stack form), one
/// in eight a balanced run of arbitrary ops, two in eight a repeated
/// subexpression, the rest balanced statements.
fn arb_body() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..8,
            arb_line_op(),
            arb_shuffle(),
            arb_repeat(),
            arb_statement(),
        ),
        0..12,
    )
    .prop_map(|pieces| {
        pieces
            .into_iter()
            .flat_map(|(k, op, shuffle, repeat, statement)| match k {
                0 => vec![op],
                1 => shuffle,
                2 | 3 => repeat,
                _ => statement,
            })
            .collect()
    })
}

/// A second forward exit beside the counter's: `load 5; load k; <binop>`,
/// optionally `load j; <cmp>` after it, then `jz` or `jnz` — a compare
/// chain. It sits at the loop head or after the counter test; either way
/// no shape has two exits, so the loop runs in stack form. With `reuse`, the body opens by recomputing
/// `load 5; load k; <binop>` and pushing it to port 1, so that value
/// stays live past the exit: the chain's intermediate, as in
/// `lagged_autocorr`, or the tested value itself.
struct ChainExit {
    test: Vec<Op>,
    on_zero: bool,
    at_head: bool,
    reuse: bool,
}

fn arb_chain_exit() -> impl Strategy<Value = Option<ChainExit>> {
    (
        0u8..3,
        (0u16..DIFF_LOCALS, arb_binop()),
        (0u16..DIFF_LOCALS + 1, arb_cmp()),
        (0u8..2, 0u8..2, 0u8..2),
    )
        .prop_map(|(some, (k, op), (j, cmp), (on_zero, at_head, reuse))| {
            let mut test = vec![Op::Load(COUNTER), Op::Load(k), op];
            if j < DIFF_LOCALS {
                test.extend([Op::Load(j), cmp]);
            }
            (some > 0).then_some(ChainExit {
                test,
                on_zero: on_zero == 1,
                at_head: at_head == 1,
                reuse: reuse == 1,
            })
        })
}

/// A counted while-loop over local 5, `i < iters … i += 1`, around an
/// arbitrary straight-line body. Bodies that carry no value across the
/// back-edge translate to a map region; the others, and every loop with
/// a second exit, defeat the translator (a carried value, two pushes to a
/// port, stack dips below entry depth, interior traps) and run in stack
/// form. Both kinds must agree with the reference interpreter.
/// `iters == 0` exercises zero-trip loops: the region's head exit fires
/// before any iteration retires. `chain` adds a compare-chain exit; the
/// counter's test stays, so the loop still ends unless the body stores
/// into local 5. The other locals start distinct and non-zero, and every
/// exit ends by pushing all six locals to port 0, so a wrong register
/// value cannot stay hidden.
fn loop_module(iters: u8, chain: Option<ChainExit>, body: Vec<Op>) -> Module {
    let mut code = Vec::new();
    for i in 0..COUNTER {
        code.extend([Op::Push(f64::from(i) * 1.25 + 0.5), Op::Store(i)]);
    }
    code.extend([Op::Push(0.0), Op::Store(COUNTER)]);
    let head = code.len() as u32;
    // Forward exits, each a test and a `jz`/`jnz` whose target is
    // patched below.
    let counted = vec![Op::Load(COUNTER), Op::Push(iters as f64), Op::Lt];
    let mut tests = vec![(counted, true)];
    let mut reuse = Vec::new();
    if let Some(c) = chain {
        if c.reuse {
            reuse = c.test[..3].to_vec();
            reuse.push(Op::OutPush(1));
        }
        let at = if c.at_head { 0 } else { 1 };
        tests.insert(at, (c.test, c.on_zero));
    }
    let mut patches = Vec::new();
    for (test, on_zero) in tests {
        code.extend(test);
        patches.push(code.len());
        code.push(if on_zero { Op::Jz(0) } else { Op::Jnz(0) });
    }
    code.extend(reuse);
    code.extend(body);
    code.extend([
        Op::Load(COUNTER),
        Op::Push(1.0),
        Op::Add,
        Op::Store(COUNTER),
    ]);
    code.push(Op::Jmp(head));
    let end = code.len() as u32;
    for at in patches {
        code[at] = match code[at] {
            Op::Jz(_) => Op::Jz(end),
            _ => Op::Jnz(end),
        };
    }
    for i in 0..DIFF_LOCALS {
        code.extend([Op::Load(i), Op::OutPush(0)]);
    }
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

/// A spin: a prelude that sets every local, then a loop with no exit
/// around a run of pure shuffles — pushes, loads, `pop`, `dup`, `swap`,
/// `over` and arithmetic on what they leave — popped back to the entry
/// depth. Returns the module, its head pc and the loop's length.
fn arb_spin() -> impl Strategy<Value = (Module, u64, u64)> {
    let op = prop_oneof![
        (-4f64..4.0).prop_map(Op::Push),
        (0u16..DIFF_LOCALS).prop_map(Op::Load),
        Just(Op::Pop),
        Just(Op::Dup),
        Just(Op::Swap),
        Just(Op::Over),
        arb_binop(),
        prop_oneof![
            Just(Op::Neg),
            Just(Op::Abs),
            Just(Op::Sqrt),
            Just(Op::Floor)
        ],
    ];
    proptest::collection::vec(op, 0..10).prop_map(|run| {
        let mut code = Vec::new();
        for i in 0..DIFF_LOCALS {
            code.extend([Op::Push(f64::from(i) - 1.5), Op::Store(i)]);
        }
        let head = code.len();
        let mut depth = 0;
        for op in run {
            let (pops, pushes) = pops_pushes(op);
            if depth >= pops {
                depth = depth - pops + pushes;
                code.push(op);
            }
        }
        code.extend((0..depth).map(|_| Op::Pop));
        code.push(Op::Jmp(head as u32));
        let full = (code.len() - head) as u64;
        let module = Module {
            name: "spin".into(),
            version: 1,
            n_inputs: 0,
            n_outputs: 0,
            functions: vec![Function {
                name: "main".into(),
                n_locals: DIFF_LOCALS,
                code,
            }],
        };
        (module, head as u64, full)
    })
}

/// Twelve [`loop_module`]s per case: only some bodies translate, and only
/// some of those reach a given fusion or value-numbering shape, so one
/// module per case leaves the shim's fixed case count too thin. Half the
/// bodies are up to 24 arbitrary straight-line ops (random stack shuffles
/// and stores), half are built from [`arb_body`]'s pieces.
fn arb_loop_modules() -> impl Strategy<Value = Vec<Module>> {
    let body = prop_oneof![proptest::collection::vec(arb_line_op(), 0..24), arb_body()];
    proptest::collection::vec((0u8..9, arb_chain_exit(), body), 12..13).prop_map(|loops| {
        loops
            .into_iter()
            .map(|(iters, chain, body)| loop_module(iters, chain, body))
            .collect()
    })
}

proptest! {
    /// Barrage over loop-shaped modules: counted loops with
    /// arbitrary straight-line bodies, run under the standard policy.
    /// This is the generator most likely to admit a translated region, so
    /// every fused superinstruction path gets differential coverage.
    #[test]
    fn loop_barrage_matches_reference(
        modules in arb_loop_modules(),
        lens in proptest::collection::vec(0usize..12, 3..4),
        seed in 0u64..1000,
    ) {
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
        for module in &modules {
            let failure = equiv_failure(module, &slices, &SandboxPolicy::standard());
            prop_assert!(failure.is_none(), "{}", failure.unwrap());
        }
    }

    /// The same barrage under hostile-tight policies: budget exhaustion
    /// must fire at the exact same source instruction whether the loop is
    /// running in register form (bulk-charged iterations plus a precise
    /// fallback) or stepping op by op.
    #[test]
    fn loop_barrage_matches_reference_under_tight_policies(
        modules in arb_loop_modules(),
        max_instructions in 1u64..400,
        max_stack in 1usize..12,
        max_output_cells in 0usize..24,
    ) {
        let input = [2.5, 0.0, -7.0];
        let slices: Vec<&[f64]> = vec![&input; DIFF_PORTS as usize];
        let policy = SandboxPolicy {
            max_instructions,
            max_stack,
            max_call_depth: 4,
            max_output_cells,
            allow_host_io: false,
        };
        for module in &modules {
            let failure = equiv_failure(module, &slices, &policy);
            prop_assert!(failure.is_none(), "{}", failure.unwrap());
        }
    }

    /// Spin loops — no exit, only pure shuffles — under every budget from
    /// 1 to 64 and under stack caps. A budget ends every run, so the
    /// error alone cannot tell how many iterations the region charged:
    /// the dispatch and fallback counts pin that. The prelude's stores
    /// and the instructions the region's last full iteration leaves step
    /// in stack form; the iterations it charges dispatch nothing.
    #[test]
    fn spin_barrage_matches_reference_under_every_small_budget(
        spin in arb_spin(),
        max_stack in 1usize..6,
    ) {
        let (module, head, full) = spin;
        let prepared = PreparedModule::prepare(&module).expect("spins verify");
        prop_assert_eq!(prepared.regions_translated(), 1);
        let mut ctx = ExecContext::new();
        for max_instructions in 1..=64 {
            let policy = SandboxPolicy { max_instructions, ..SandboxPolicy::standard() };
            let failure = divergence(&module, &prepared, &mut ctx, &[], &policy, bits);
            prop_assert!(failure.is_none(), "{}", failure.unwrap());
            let iters = max_instructions.checked_sub(head).map_or(0, |b| b / full);
            prop_assert_eq!(ctx.dispatched_ops(), max_instructions - iters * full);
            prop_assert_eq!(ctx.tier2_fallbacks(), u64::from(iters > 0));
            let capped = SandboxPolicy { max_stack, ..policy };
            let failure = divergence(&module, &prepared, &mut ctx, &[], &capped, bits);
            prop_assert!(failure.is_none(), "{}", failure.unwrap());
        }
    }

    /// Preparation rejects exactly what the verifier rejects: for raw
    /// (unsanitized) op streams, the standalone verifier and
    /// `PreparedModule::prepare` accept or reject in lockstep, with the
    /// same typed error.
    #[test]
    fn prepare_agrees_with_the_verifier(
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
        match verdict {
            Ok(()) => prop_assert!(prepared.is_ok(), "prepare rejected a verified module"),
            Err(e) => match &prepared {
                Err(pe) => prop_assert_eq!(format!("{:?}", pe), format!("{e:?}")),
                Ok(_) => prop_assert!(false, "prepare accepted a rejected module"),
            },
        }
    }
}

/// NaN with payload `p`, so a swapped operand shows in the result bits.
fn nan(p: u64) -> f64 {
    f64::from_bits(0x7ff8_0000_0000_0000 | p)
}

/// Output bits for the multiply-accumulate and map barrages. When two NaNs with
/// different payloads meet in an add or multiply, which payload survives
/// is the compiler's choice at that site: Rust leaves it unspecified, and
/// an optimised build swaps operands freely (on a straight-line probe the
/// reference keeps the first operand's payload in a debug build and the
/// second's in a release build). A debug build swaps nothing, so there every payload
/// must match, and a swapped accumulate fails the barrage; an optimised
/// build compares every NaN as the one canonical NaN.
fn mac_bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    let canon = |v: f64| if v.is_nan() { f64::NAN } else { v };
    outputs
        .iter()
        .map(|port| {
            port.iter()
                .map(|&v| if cfg!(debug_assertions) { v } else { canon(v) }.to_bits())
                .collect()
        })
        .collect()
}

/// Index-register values for [`mac_module`]: integral, fractional,
/// negative, signed zero, NaN, ±inf, 2⁵² and past it (where `to_index`
/// refuses), so a gather can fail at any iteration a loop reaches.
fn mac_index(j: u8) -> f64 {
    const BIG: f64 = (1u64 << 52) as f64;
    [
        0.0,
        -0.0,
        1.0,
        0.5,
        -1.0,
        2.0,
        3.0,
        nan(1),
        f64::INFINITY,
        f64::NEG_INFINITY,
        BIG,
        BIG + 2.0,
    ][j as usize % 12]
}

/// Input and accumulator values: NaNs with distinct payloads, ±inf,
/// signed zero, negative, fractional and huge.
fn mac_value(j: u8) -> f64 {
    [
        1.5,
        -2.25,
        0.0,
        -0.0,
        nan(2),
        nan(3),
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e308,
        0.125,
        7.0,
        -3.0,
    ][j as usize % 12]
}

/// How a [`mac_module`] differs from a counted multiply-accumulate, if at
/// all. Each near miss but `LagIsBound` must run in stack form.
#[derive(Clone, Copy, Debug, PartialEq)]
enum MacMiss {
    None,
    /// `acc = acc - p` (or `p - acc`).
    SubAccumulate,
    /// `ge; jnz end` instead of `lt; jz end`.
    JnzPolarity,
    /// The accumulator is the index local `i`.
    AccIsIndex,
    /// The body writes the step local.
    StepWritten,
    /// The lag local is `n`: admitted, since the loop only reads both.
    LagIsBound,
}

/// A counted multiply-accumulate loop over locals `n, k, i, acc, s` (0 to
/// 4) in the shape of the corpus `matched_filter` and `lagged_autocorr`,
/// or one of its near misses.
#[derive(Clone, Copy, Debug)]
struct MacSpec {
    /// `n = inlen port` or a constant.
    n: Result<u8, f64>,
    /// 0: no lag; 1: the exit test compares `t = i + k`; 2: it computes
    /// `t`, drops it and compares `i` (the gathers still reuse `t`).
    lag: u8,
    i0: f64,
    k: f64,
    acc0: f64,
    /// The step, a constant in the back-edge or (`step_local`) local 4.
    s: f64,
    step_local: bool,
    /// Per gather: input port, and whether it reads at `t` (else `i`).
    g1: (u8, bool),
    g2: (u8, bool),
    acc_first: bool,
    miss: MacMiss,
}

impl MacSpec {
    /// Does `MacLoop` admit it? A near miss no. Nor a gather at `t` that
    /// the exit test did not compute.
    fn is_mac(&self) -> bool {
        let at_t = self.g1.1 || self.g2.1;
        matches!(self.miss, MacMiss::None | MacMiss::LagIsBound) && (self.lag > 0 || !at_t)
    }
}

fn arb_mac_spec() -> impl Strategy<Value = MacSpec> {
    (
        (0u8..18, 0u8..12, 0u8..12, 0u8..14, 0u8..3),
        (0u8..2, 0u8..2, 0u8..2, 0u8..2, 0u8..5),
        (0u8..2, 0u8..2, 0u8..15, 0u8..8),
    )
        .prop_map(
            |(
                (i0, k, acc0, s, lag),
                (p1, t1, p2, t2, n_kind),
                (acc_first, step_local, miss, n),
            )| {
                let steps = [1.0, 1.0, 1.0, 2.0, 0.5, 0.25, -1.0, 0.0, -0.0, nan(4)];
                let miss = match miss {
                    0 => MacMiss::SubAccumulate,
                    1 => MacMiss::JnzPolarity,
                    2 => MacMiss::AccIsIndex,
                    3 => MacMiss::StepWritten,
                    4 => MacMiss::LagIsBound,
                    _ => MacMiss::None,
                };
                let bounds = [0.0, 3.0, 6.0, 4.5, -1.0, nan(5), f64::INFINITY, 1e17];
                // These two misses need the lag or the step local in use.
                let lag_is_bound = miss == MacMiss::LagIsBound;
                MacSpec {
                    n: if n_kind == 0 {
                        Err(bounds[n as usize])
                    } else {
                        Ok(n_kind % 2)
                    },
                    lag: if lag_is_bound { 1 } else { lag },
                    // Over a third of the loops start at 0 and run a while.
                    i0: if i0 < 12 { mac_index(i0) } else { 0.0 },
                    k: mac_index(k),
                    acc0: mac_value(acc0),
                    s: if s < 10 {
                        steps[s as usize]
                    } else {
                        mac_index(s)
                    },
                    step_local: step_local == 1 || miss == MacMiss::StepWritten,
                    g1: (p1, t1 == 1 || lag_is_bound),
                    g2: (p2, t2 == 1),
                    acc_first: acc_first == 1,
                    miss,
                }
            },
        )
}

/// The integer-heavy arm: integer starts, lags and bounds with steps 1 to
/// 3, and the near miss 1.5. So most loops run a clean prefix (the
/// iterations `run_mac` decides at entry to pass every check), then leave
/// by the exit, by a gather that runs off its port or at the budget.
/// Starts and lags include −0.0, lags are also negative, and `n = inlen`
/// ends a gather exactly at its port's length.
fn arb_mac_int_spec() -> impl Strategy<Value = MacSpec> {
    (
        (0u8..6, 0u8..8, 0u8..12, 0u8..4, 0u8..3),
        (0u8..2, 0u8..2, 0u8..2, 0u8..2, 0u8..6),
        (0u8..2, 0u8..2, 0u8..2),
    )
        .prop_map(
            |((i0, k, acc0, s, lag), (p1, t1, p2, t2, n), (acc_first, step_local, n_port))| {
                let bounds = [2.0, 5.0, 9.0, 16.0];
                MacSpec {
                    n: if n < 4 {
                        Err(bounds[n as usize])
                    } else {
                        Ok(n_port)
                    },
                    lag,
                    i0: [0.0, -0.0, 1.0, 2.0, 0.0, -0.0][i0 as usize],
                    k: [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 4.0][k as usize],
                    acc0: mac_value(acc0),
                    s: [1.0, 2.0, 3.0, 1.5][s as usize],
                    step_local: step_local == 1,
                    g1: (p1, t1 == 1),
                    g2: (p2, t2 == 1),
                    acc_first: acc_first == 1,
                    miss: MacMiss::None,
                }
            },
        )
}

/// Build [`MacSpec`]'s loop; every exit ends by pushing all five locals
/// to port 0, so a wrong register value cannot stay hidden.
fn mac_module(m: &MacSpec) -> Module {
    use Op::*;
    let (n, k, i, s) = (0u16, 1u16, 2u16, 4u16);
    let acc = if m.miss == MacMiss::AccIsIndex { i } else { 3 };
    let lag = if m.miss == MacMiss::LagIsBound { n } else { k };
    let mut code = vec![match m.n {
        Ok(port) => InLen(port),
        Err(v) => Push(v),
    }];
    code.push(Store(n));
    for (l, v) in [(k, m.k), (i, m.i0), (3, m.acc0), (s, m.s)] {
        code.extend([Push(v), Store(l)]);
    }
    let head = code.len() as u32;
    code.push(Load(i));
    if m.lag > 0 {
        code.extend([Load(lag), Add]);
    }
    if m.lag == 2 {
        code.extend([Pop, Load(i)]);
    }
    code.push(Load(n));
    let jnz = m.miss == MacMiss::JnzPolarity;
    code.extend(if jnz { [Ge, Jnz(0)] } else { [Lt, Jz(0)] });
    let exit_at = code.len() - 1;
    if m.acc_first {
        code.push(Load(acc));
    }
    for (port, at_t) in [m.g1, m.g2] {
        code.push(Load(i));
        if at_t {
            code.extend([Load(lag), Add]);
        }
        code.push(InGet(port));
    }
    code.push(Mul);
    if !m.acc_first {
        code.push(Load(acc));
    }
    code.push(if m.miss == MacMiss::SubAccumulate {
        Sub
    } else {
        Add
    });
    code.push(Store(acc));
    if m.miss == MacMiss::StepWritten {
        code.extend([Load(3), Store(s)]);
    }
    code.push(Load(i));
    code.push(if m.step_local { Load(s) } else { Push(m.s) });
    code.extend([Add, Store(i), Jmp(head)]);
    let end = code.len() as u32;
    code[exit_at] = if jnz { Jnz(end) } else { Jz(end) };
    for l in 0..5 {
        code.extend([Load(l), OutPush(0)]);
    }
    code.push(Halt);
    Module {
        name: "mac".into(),
        version: 1,
        n_inputs: 2,
        n_outputs: 1,
        functions: vec![Function {
            name: "main".into(),
            n_locals: 5,
            code,
        }],
    }
}

/// Six [`mac_module`]s per case, two input ports of 0 to 11 [`mac_value`]s
/// each. A module must translate to one region exactly when
/// [`MacSpec::is_mac`].
fn arb_mac_case() -> impl Strategy<Value = (Vec<MacSpec>, Vec<Vec<f64>>)> {
    mac_case(arb_mac_spec(), 12)
}

/// Six `spec` loops per case over two input ports of fewer than
/// `max_len` [`mac_value`]s each.
fn mac_case(
    spec: impl Strategy<Value = MacSpec>,
    max_len: usize,
) -> impl Strategy<Value = (Vec<MacSpec>, Vec<Vec<f64>>)> {
    (
        proptest::collection::vec(spec, 6..7),
        proptest::collection::vec(proptest::collection::vec(0u8..12, 0..max_len), 2..3),
    )
        .prop_map(|(specs, ports)| {
            let inputs = ports
                .into_iter()
                .map(|p| p.into_iter().map(mac_value).collect())
                .collect();
            (specs, inputs)
        })
}

/// The barrage's budget: roomy for every loop that ends, yet it stops a
/// zero step soon.
const MAC_BUDGET: u64 = 4_000;

fn mac_prepared(spec: &MacSpec) -> (Module, PreparedModule) {
    let module = mac_module(spec);
    let prepared = PreparedModule::prepare(&module).expect("mac modules verify");
    assert_eq!(
        prepared.regions_translated(),
        usize::from(spec.is_mac()),
        "{spec:?}"
    );
    (module, prepared)
}

proptest! {
    /// Counted multiply-accumulate loops and their near misses under a
    /// roomy policy: outputs, `ExecStats` and errors (the gather that
    /// fails, at the iteration it fails) match the reference bit for bit.
    #[test]
    fn mac_barrage_matches_reference(case in arb_mac_case()) {
        let (specs, inputs) = case;
        let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let policy = SandboxPolicy {
            max_instructions: MAC_BUDGET,
            ..SandboxPolicy::standard()
        };
        for spec in &specs {
            let (module, prepared) = mac_prepared(spec);
            let mut ctx = ExecContext::new();
            let failure = divergence(&module, &prepared, &mut ctx, &slices, &policy, mac_bits);
            prop_assert!(failure.is_none(), "{spec:?}: {}", failure.unwrap());
        }
    }

    /// The same loops under a budget that stops at every instruction of
    /// the run, so at every iteration boundary and inside every
    /// iteration, and under stack and output caps that refuse entry or
    /// fail the tail.
    #[test]
    fn mac_barrage_matches_reference_under_tight_policies(case in arb_mac_case()) {
        let (specs, inputs) = case;
        let failure = mac_tight_failure(&specs, &inputs, 240);
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }

    /// The integer-heavy arm under every budget of the whole run, so the
    /// budget cuts each clean prefix at every length, at its end and past
    /// it, and under the same caps.
    #[test]
    fn mac_integer_barrage_matches_reference_under_tight_policies(
        case in mac_case(arb_mac_int_spec(), 17)
    ) {
        let (specs, inputs) = case;
        let failure = mac_tight_failure(&specs, &inputs, MAC_BUDGET);
        prop_assert!(failure.is_none(), "{}", failure.unwrap());
    }
}

/// The first divergence of `specs` over `inputs` from the reference, under
/// every instruction budget up to `sweep` past the roomy run's length,
/// three stack caps and five output caps.
fn mac_tight_failure(specs: &[MacSpec], inputs: &[Vec<f64>], sweep: u64) -> Option<String> {
    let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let roomy = SandboxPolicy {
        max_instructions: MAC_BUDGET,
        ..SandboxPolicy::standard()
    };
    for spec in specs {
        let (module, prepared) = mac_prepared(spec);
        let ran = match execute(&module, &slices, &roomy) {
            Ok((_, stats)) => stats.instructions,
            Err(_) => MAC_BUDGET,
        };
        let mut ctx = ExecContext::new();
        let budgets = (1..=ran.min(sweep) + 1).map(|max_instructions| SandboxPolicy {
            max_instructions,
            ..roomy
        });
        let caps = (1..4)
            .map(|max_stack| SandboxPolicy { max_stack, ..roomy })
            .chain((0..5).map(|max_output_cells| SandboxPolicy {
                max_output_cells,
                ..roomy
            }));
        for policy in budgets.chain(caps) {
            if let Some(f) = divergence(&module, &prepared, &mut ctx, &slices, &policy, mac_bits) {
                return Some(format!("{spec:?} over {inputs:?} under {policy:?}: {f}"));
            }
        }
    }
    None
}

/// How a [`map_module`] differs from a counted map, if at all. Each near
/// miss must run in stack form.
#[derive(Clone, Copy, Debug, PartialEq)]
enum MapMiss {
    None,
    /// A running maximum in local 4, read before the body writes it: a
    /// value carried across the back-edge.
    Carried,
    /// The body pushes port 0 twice.
    TwoPushes,
    /// The body reads `outlen 0`.
    OutLen,
}

/// A counted map loop over locals `n, k, i, s, m, x` (0 to 5) in the shape
/// of the corpus `sph_kernel`, with more of the admitted ops and more ways
/// to fail, or one of its near misses.
#[derive(Clone, Copy, Debug)]
struct MapSpec {
    n: f64,
    /// The exit test compares with `n - d`, computed in the head every
    /// iteration and hoisted into the region's entry.
    bound_sub: Option<f64>,
    /// The exit test compares `t = i + k` instead of `i`.
    lag: bool,
    i0: f64,
    k: f64,
    /// The step, a constant in the back-edge or (`step_local`) local 3.
    s: f64,
    step_local: bool,
    /// The SPH weight's gather port.
    p1: u8,
    /// A second gather `w = w ∘ in[port][x]`: its port, whether it reads
    /// at `i + k` (else `i`), and `∘`.
    g2: Option<(u8, bool, Op)>,
    un: Option<Op>,
    /// `w = w + inlen 1`.
    inlen: bool,
    /// `dup; store 5`: the body writes local 5 through a `Mov`.
    store_x: bool,
    /// A second push, of the counter (or `t`), to port 1.
    push_i: bool,
    /// `w = w + in[p1][i + s]`, whose `i + s` the back-edge reuses, so it
    /// closes with a `Mov` into `i`. In place of `un` and `inlen`, so the
    /// body still fits a map's columns.
    reuse_step: bool,
    miss: MapMiss,
}

impl MapSpec {
    fn is_map(&self) -> bool {
        self.miss == MapMiss::None
    }
}

/// The bounds the barrage cares about: either side of a chunk of 64
/// lanes, and a second chunk's edge.
const MAP_NS: [f64; 6] = [0.0, 1.0, 63.0, 64.0, 65.0, 129.0];

fn arb_map_spec() -> impl Strategy<Value = MapSpec> {
    (
        (0u8..9, 0u8..2, 0u8..12, 0u8..8, 0u8..9),
        (0u8..2, 0u8..2, 0u8..4, 0u8..2, arb_binop()),
        (0u8..3, arb_unop(), 0u8..2, 0u8..2, 0u8..2),
        (0u8..10, 0u8..6, 0u8..2),
    )
        .prop_map(
            |(
                (n, lag, i0, k, s),
                (step_local, p1, g2, g2_t, bin),
                (un, un_op, inlen, store_x, push_i),
                (miss, bound_sub, reuse_step),
            )| {
                let steps = [1.0, 1.0, 1.0, 0.1, 0.5, 2.0, -1.0, -0.5, 0.7];
                let starts = [0.0, 0.0, 0.0, 0.0, -0.0, 0.5, 3.0, 100.0];
                MapSpec {
                    n: if n < 6 {
                        MAP_NS[n as usize]
                    } else {
                        mac_index(n + 4)
                    },
                    bound_sub: [None, None, None, Some(1.0), Some(-2.0), Some(0.5)]
                        [bound_sub as usize],
                    lag: lag == 1,
                    i0: if i0 < 8 {
                        starts[i0 as usize]
                    } else {
                        mac_index(i0)
                    },
                    k: [0.0, 1.0, 2.0, -1.0, 0.5, 64.0, nan(6), -0.0][k as usize],
                    s: steps[s as usize],
                    step_local: step_local == 1,
                    p1,
                    g2: (g2 > 0).then_some((g2 % 2, g2_t == 1, bin)),
                    un: (un > 0 && reuse_step == 0).then_some(un_op),
                    inlen: inlen == 1 && reuse_step == 0,
                    store_x: store_x == 1,
                    push_i: push_i == 1,
                    reuse_step: reuse_step == 1,
                    miss: match miss {
                        0 => MapMiss::Carried,
                        1 => MapMiss::TwoPushes,
                        2 => MapMiss::OutLen,
                        _ => MapMiss::None,
                    },
                }
            },
        )
}

/// Build [`MapSpec`]'s loop; every exit ends by pushing all six locals
/// to port 0, so a wrong register value cannot stay hidden.
fn map_module(m: &MapSpec) -> Module {
    use Op::*;
    let (n, k, i, s, x) = (0u16, 1u16, 2u16, 3u16, 5u16);
    let mut code = Vec::new();
    for (l, v) in [(n, m.n), (k, m.k), (i, m.i0), (s, m.s), (4, -1.0), (x, 7.0)] {
        code.extend([Push(v), Store(l)]);
    }
    let head = code.len() as u32;
    let at = |t: bool| {
        if t {
            vec![Load(i), Load(k), Add]
        } else {
            vec![Load(i)]
        }
    };
    code.extend(at(m.lag));
    code.push(Load(n));
    if let Some(d) = m.bound_sub {
        code.extend([Push(d), Sub]);
    }
    code.extend([Lt, Jz(0)]);
    let exit_at = code.len() - 1;
    let step = if m.step_local { Load(s) } else { Push(m.s) };
    code.push(Load(i));
    code.extend([InGet(m.p1), Dup, Mul, Push(1.0), Swap, Sub, Push(0.0), Max]);
    if let Some((port, at_t, bin)) = m.g2 {
        code.extend(at(at_t));
        code.extend([InGet(port), bin]);
    }
    code.extend(m.un);
    if m.inlen {
        code.extend([InLen(1), Add]);
    }
    if m.reuse_step {
        code.extend([Load(i), step, Add, InGet(m.p1), Add]);
    }
    if m.store_x {
        code.extend([Dup, Store(x)]);
    }
    match m.miss {
        MapMiss::Carried => code.extend([Dup, Load(4), Max, Store(4)]),
        MapMiss::OutLen => code.extend([OutLen(0), Add]),
        _ => {}
    }
    code.push(OutPush(0));
    if m.miss == MapMiss::TwoPushes {
        code.extend([Load(i), OutPush(0)]);
    }
    if m.push_i {
        code.extend(at(m.lag));
        code.push(OutPush(1));
    }
    code.extend([Load(i), step, Add, Store(i), Jmp(head)]);
    let end = code.len() as u32;
    code[exit_at] = Jz(end);
    for l in 0..6 {
        code.extend([Load(l), OutPush(0)]);
    }
    code.push(Halt);
    Module {
        name: "map".into(),
        version: 1,
        n_inputs: 2,
        n_outputs: 2,
        functions: vec![Function {
            name: "main".into(),
            n_locals: 6,
            code,
        }],
    }
}

/// Four [`map_module`]s per case, two input ports of 0 to 130
/// [`mac_value`]s each, so a gather can fail at any lane of two chunks.
fn arb_map_case() -> impl Strategy<Value = (Vec<MapSpec>, Vec<Vec<f64>>)> {
    (
        proptest::collection::vec(arb_map_spec(), 4..5),
        proptest::collection::vec((0usize..131, 0u8..12), 2..3),
    )
        .prop_map(|(specs, ports)| {
            let inputs = ports
                .into_iter()
                .map(|(len, v)| (0..len).map(|j| mac_value(v + j as u8 % 5)).collect())
                .collect();
            (specs, inputs)
        })
}

/// Roomy for every loop that ends, yet it stops a zero or wrong-way step.
const MAP_BUDGET: u64 = 12_000;

fn map_prepared(spec: &MapSpec) -> (Module, PreparedModule) {
    let module = map_module(spec);
    let prepared = PreparedModule::prepare(&module).expect("map modules verify");
    assert_eq!(
        prepared.regions_translated(),
        usize::from(spec.is_map()),
        "{spec:?}"
    );
    (module, prepared)
}

/// Two fallible gathers in one map iteration, each failing at every lane
/// of two chunks: port 0 at `i` runs out at lane `len`, port 1 at `i + 1`
/// at lane `130 - len`, so either one raises the error. Each fault also
/// meets an output cap at its own lane, the one before and the one after.
#[test]
fn map_faults_at_every_lane() {
    let spec = MapSpec {
        n: 129.0,
        bound_sub: None,
        lag: false,
        i0: 0.0,
        k: 1.0,
        s: 1.0,
        step_local: false,
        p1: 0,
        g2: Some((1, true, Op::Add)),
        un: None,
        inlen: false,
        store_x: true,
        push_i: true,
        reuse_step: false,
        miss: MapMiss::None,
    };
    let (module, prepared) = map_prepared(&spec);
    let mut ctx = ExecContext::new();
    let roomy = SandboxPolicy {
        max_instructions: MAP_BUDGET,
        ..SandboxPolicy::standard()
    };
    for len in 0..=131 {
        let caps = [2 * len, 2 * len + 1, 2 * len + 2].map(|max_output_cells| SandboxPolicy {
            max_output_cells,
            ..roomy
        });
        for (a, b) in [(len, 131), (131, len + 1), (len, 131 - len)] {
            let inputs = [vec![0.5; a], vec![-0.25; b]];
            let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
            for policy in [roomy].into_iter().chain(caps) {
                let failure = divergence(&module, &prepared, &mut ctx, &slices, &policy, bits);
                assert!(
                    failure.is_none(),
                    "{a}/{b} under {policy:?}: {}",
                    failure.unwrap()
                );
            }
        }
    }
}

proptest! {
    /// Counted map loops and their near misses under a roomy policy:
    /// outputs, `ExecStats` and errors (the op that fails, at the
    /// iteration it fails) match the reference bit for bit.
    #[test]
    fn map_barrage_matches_reference(case in arb_map_case()) {
        let (specs, inputs) = case;
        let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let policy = SandboxPolicy {
            max_instructions: MAP_BUDGET,
            ..SandboxPolicy::standard()
        };
        for spec in &specs {
            let (module, prepared) = map_prepared(spec);
            let mut ctx = ExecContext::new();
            let failure = divergence(&module, &prepared, &mut ctx, &slices, &policy, mac_bits);
            prop_assert!(failure.is_none(), "{spec:?}: {}", failure.unwrap());
        }
    }

    /// The same loops under a budget at every iteration boundary (and
    /// one instruction either side), an output cap at every lane, and
    /// stack caps that refuse entry.
    #[test]
    fn map_barrage_matches_reference_under_tight_policies(case in arb_map_case()) {
        let (specs, inputs) = case;
        let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let roomy = SandboxPolicy {
            max_instructions: MAP_BUDGET,
            ..SandboxPolicy::standard()
        };
        for spec in &specs {
            let (module, prepared) = map_prepared(spec);
            let (ran, cells) = match execute(&module, &slices, &roomy) {
                Ok((out, stats)) => (stats.instructions, out.iter().map(Vec::len).sum()),
                Err(_) => (MAP_BUDGET, 2 * 130 + 6),
            };
            let code = &module.functions[0].code;
            let head = code.iter().position(|op| matches!(op, Op::Load(2))).unwrap() as u64;
            let back = code.iter().position(|op| matches!(op, Op::Jmp(_))).unwrap() as u64;
            let full = back - head + 1;
            let budgets = (0..=(ran - head) / full)
                .flat_map(|j| [head + j * full, head + j * full + 1, head + j * full + 2])
                .filter(|&b| b <= ran + 1)
                .map(|max_instructions| SandboxPolicy { max_instructions, ..roomy });
            let caps = (0..=cells + 1)
                .map(|max_output_cells| SandboxPolicy { max_output_cells, ..roomy })
                .chain((1..4).map(|max_stack| SandboxPolicy { max_stack, ..roomy }));
            let mut ctx = ExecContext::new();
            for policy in budgets.chain(caps) {
                let failure =
                    divergence(&module, &prepared, &mut ctx, &slices, &policy, mac_bits);
                prop_assert!(failure.is_none(), "{spec:?} under {policy:?}: {}", failure.unwrap());
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
