//! Register-translated hot loops, and the one dispatch loop every
//! [`PreparedModule`] runs through.
//!
//! This module hosts two things:
//!
//! 1. **The dispatch loop** (`run_vm`): a dense-dispatch loop over the
//!    1:1 flattened code in which every dispatched op retires exactly one
//!    source instruction. A translated loop's head op is replaced in the
//!    flat code by `PInst::Region`, whose arm diverts the loop into
//!    register form. So finding a region costs one more arm of the same
//!    match, and the region run itself stays out of line: straight-line
//!    code pays for neither.
//! 2. **The region pipeline** (`translate_loops`): at prepare time, detect
//!    back-edge loops whose bodies are straight-line and stack-balanced,
//!    and translate their stack traffic — from the *source* ops — into a
//!    fixed virtual-register frame (`LoopRegion`). Two passes: the
//!    `Translator` emits plain register ops only, numbering values so a
//!    pure `Bin`/`Un` already computed in the same iteration is reused
//!    rather than recomputed; then `peephole`, the one place instructions
//!    are fused, combines them into superinstructions. At run time the
//!    region executes whole iterations with no per-instruction
//!    budget/overflow/underflow checks — those are hoisted into two
//!    head-of-iteration preconditions — and with no operand-stack
//!    traffic at all. A counted loop (`Counted`: exit on `i < n` or
//!    `i + k < n`, back-edge `i += s`, matched once on the plain ops) runs
//!    one of two native bodies and dispatches nothing per iteration: a
//!    multiply-accumulate fold (`MacLoop`: `matched_filter`,
//!    `lagged_autocorr`) as one Rust loop with its carried values in
//!    locals, and a map that carries nothing but `i` (`MapLoop`:
//!    `sph_kernel`) a chunk of `LANES` iterations at a time, each body op
//!    once per chunk over a column per register. Every other region runs
//!    the generic loop: a leading exit test and the back-edge inline, and
//!    one `match` per op between them.
//!
//! # Fallback and the metering contract
//!
//! Entering a region requires that one *full* iteration fits both the
//! instruction budget and the stack headroom. When the precondition
//! fails, the region syncs its registers back to the locals window and
//! *falls back*: the dispatch loop resumes precise stack-form stepping at
//! the loop head, which reproduces the reference interpreter's
//! (`tvm::execute`) error, or partial-path success, at exactly its
//! instruction count. Region exits charge the exact number of source
//! instructions the exited path would have retired, and the stack
//! high-water mark is reconstructed from the region's translated peak,
//! so `ExecStats` stay bit-identical to the reference interpreter. The
//! ops a run sent through a dispatch `match` are charged the same way, at
//! region exit and run end, never per iteration
//! (`ExecContext::dispatched_ops`). The loop, multiply-accumulate and map
//! barrages in `tests/properties.rs` and the corpus runner in
//! `tests/corpus.rs` pin this contract.

use crate::interp::{ExecStats, TvmError};
use crate::isa::Op;
use crate::module::Module;
use crate::prepared::{BinOp, ExecContext, PInst, PreparedModule, UnOp};
use crate::sandbox::SandboxPolicy;

/// Longest source span (in ops) a region may cover.
const MAX_REGION_OPS: usize = 128;
/// Virtual-register frame cap (locals + constants + temporaries).
const MAX_REGION_REGS: usize = 4096;
/// [`RegOp::Bin2`] operand sentinel: "the result of the first binop".
/// Register ids stay far below it ([`MAX_REGION_REGS`]).
const SELF_OPERAND: u16 = u16::MAX;
/// Iterations a map region runs per chunk (see [`MapLoop`]).
const LANES: usize = 64;
/// Column cap of a map region's fixed stack frame.
const MAX_COLS: usize = 16;
/// [`RegOp::Back`] fall-through sentinel for unconditional back-edges.
const NO_EXIT: u16 = u16::MAX;

/// Back-edge condition of a translated loop.
#[derive(Clone, Copy, Debug)]
enum CondBack {
    /// `jmp head` — always loop.
    Always,
    /// `jz head` — loop while the register is zero.
    IfZero(u16),
    /// `jnz head` — loop while the register is non-zero.
    IfNonZero(u16),
}

/// One register-form instruction. Operands and destinations are indices
/// into the region's virtual-register frame: `[0, n_locals)` mirror the
/// frame's locals, then the constant pool, then single-assignment
/// temporaries.
#[derive(Clone, Copy, Debug)]
enum RegOp {
    /// `dst = src`.
    Mov { dst: u16, src: u16 },
    /// `dst = a ∘ b`.
    Bin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// Two fused binops: `t = a ∘₁ b; dst = c ∘₂ d`, where `c`/`d` may be
    /// [`SELF_OPERAND`] to mean `t`.
    Bin2 {
        op1: BinOp,
        a: u16,
        b: u16,
        op2: BinOp,
        c: u16,
        d: u16,
        dst: u16,
    },
    /// `dst = f(src)`.
    Un { op: UnOp, dst: u16, src: u16 },
    /// `dst = inputs[port].len()`.
    InLen { dst: u16, port: u8 },
    /// `dst = outputs[port].len()`.
    OutLen { dst: u16, port: u8 },
    /// `dst = inputs[port][idx]`, `IndexOutOfBounds` on a bad index.
    InGet { dst: u16, port: u8, idx: u16 },
    /// `outputs[port].push(src)`, `OutputLimitExceeded` past the cap.
    OutPush { port: u8, src: u16 },
    /// `outputs[port][idx] = val`, growing the port (both errors possible).
    OutSet { port: u8, idx: u16, val: u16 },
    /// Simulated syscall: `dst = 0.0`, `HostIoDenied` without capability.
    HostIo { dst: u16 },
    /// Fused `a ∘ b; jz/jnz target`: leave the region through `exit` when
    /// `(result == 0) == exit_if_zero`. `pre`, when set, is a fused
    /// leading `Bin` `(op, dst, a, b)` that runs first and leaves its
    /// result in `dst`, so a compare chain's intermediate stays readable.
    BinExit {
        pre: Option<(BinOp, u16, u16, u16)>,
        op: BinOp,
        a: u16,
        b: u16,
        exit_if_zero: bool,
        exit: u16,
    },
    /// `jz/jnz target` on a register: leave through `exit` when
    /// `(cond == 0) == exit_if_zero`.
    CondExit {
        cond: u16,
        exit_if_zero: bool,
        exit: u16,
    },
    /// The back-edge, always the region's last op: loop when `cond`
    /// holds, otherwise leave through `fall_exit` ([`NO_EXIT`] and
    /// unreachable for [`CondBack::Always`]).
    Back { cond: CondBack, fall_exit: u16 },
    // -- Peephole superinstructions (see `peephole`, which also builds
    // -- `Bin2` and `BinExit`): each is exactly the sequence of its
    // -- constituent ops, checks in the original order.
    /// Fused `InGet + InGet + Bin2`: fetch `inputs[port1][idx1]`, then
    /// `inputs[port2][idx2]` (port 1 checked first, as the unfused pair
    /// would), combine with `op1`, then `dst = c ∘₂ d` where
    /// [`SELF_OPERAND`] means the `op1` result.
    In2Bin2 {
        port1: u8,
        idx1: u16,
        port2: u8,
        idx2: u16,
        op1: BinOp,
        op2: BinOp,
        c: u16,
        d: u16,
        dst: u16,
    },
}

/// One way out of a region, with the exact metering of the exited path.
#[derive(Clone, Debug)]
struct RegionExit {
    /// Flat pc execution resumes at.
    target_flat: u32,
    /// Source instructions the partial iteration retired (head..=branch).
    cost: u64,
    /// Peak stack growth (relative to the entry sp) along that path.
    peak: usize,
    /// Registers to materialise onto the operand stack, bottom first.
    pushes: Vec<u16>,
}

/// A verified hot loop translated to register form.
#[derive(Clone, Debug)]
pub(crate) struct LoopRegion {
    /// Flat pc of the loop head (region entry — the only way in).
    head_flat: u32,
    /// The head's own op, which `PInst::Region` displaces in the flat
    /// code (set by `translate_loops`).
    head: PInst,
    /// Locals of the enclosing function, mirrored in registers `[0, n)`.
    n_locals: u16,
    /// Total virtual registers (locals + constants + temporaries).
    n_regs: u16,
    /// Constant pool: `(register, value)`, loaded at region entry.
    consts: Vec<(u16, f64)>,
    /// The translated loop body; last op is always [`RegOp::Back`].
    ops: Vec<RegOp>,
    /// Source instructions one full iteration retires.
    full_cost: u64,
    /// Peak stack growth (relative to entry sp) of a full iteration.
    peak_full: usize,
    exits: Vec<RegionExit>,
    /// Set when the region is a counted multiply-accumulate, which `run`
    /// executes as one native loop.
    mac: Option<MacLoop>,
    /// Set when the region is a counted map, which `run` executes a
    /// chunk of lanes at a time.
    map: Option<MapLoop>,
}

/// The counted head and back-edge shared by the native region runners,
/// matched once on the translator's plain ops by [`Counted::of`]: the
/// region opens with `[t = i + k;] c = x < n; jz exit`, where `x` is `i`
/// or `t` and `c` a dead temporary, and closes with `i = i + s; jmp head`.
/// The head writes only `t` (and `c`), the tail only `i`, and the body
/// none of `i`, `n`, `s`, `k` and `t`, so `n`, `k` and `s` hold still for
/// the whole run.
#[derive(Clone, Copy, Debug)]
struct Counted {
    i: u16,
    n: u16,
    s: u16,
    /// `(t, k)` when the exit test opens with `t = i + k`.
    lag: Option<(u16, u16)>,
    /// Which of `i` (false) or `t` (true) the exit test compares with `n`.
    test_t: bool,
    exit: u16,
    /// Plain ops the head takes: 2, or 3 with the lag.
    head_len: usize,
}

impl Counted {
    fn of(ops: &[RegOp], exits: &[RegionExit], is_temp: &dyn Fn(u16) -> bool) -> Option<Counted> {
        let bin = |j: usize| ops.get(j).and_then(as_bin);
        let lagged = matches!(
            (bin(0), bin(1)),
            (Some((BinOp::Add, ..)), Some((BinOp::Lt, ..)))
        );
        let head_len = 2 + usize::from(lagged);
        let tail = ops.len().checked_sub(2).filter(|&t| t >= head_len)?;
        let (Some((BinOp::Lt, c, x, n)), Some((BinOp::Add, i, i_read, s))) =
            (bin(head_len - 2), bin(tail))
        else {
            return None;
        };
        let RegOp::CondExit {
            cond,
            exit_if_zero: true,
            exit,
        } = ops[head_len - 1]
        else {
            return None;
        };
        let lag = match ops[0] {
            RegOp::Bin { dst, a, b, .. } if lagged && a == i => Some((dst, b)),
            _ if lagged => return None,
            _ => None,
        };
        let test_t = match lag {
            _ if x == i => false,
            Some((t, _)) if x == t => true,
            _ => return None,
        };
        let (t, k) = lag.unwrap_or((i, n));
        let held = [n, s, k];
        // The head's exit is the only way out, so the back-edge is a `jmp`.
        let fixed = i_read == i
            && exits.len() == 1
            && !held.contains(&i)
            && (lag.is_none() || t != i && !held.contains(&t))
            && cond == c
            && is_temp(c)
            && !ops[head_len..].iter().any(|op| reads(op, c))
            && !exits[0].pushes.contains(&c)
            && ops[head_len..tail]
                .iter()
                .filter_map(|&op| dst(op))
                .all(|d| ![i, t].contains(&d) && !held.contains(&d));
        fixed.then_some(Counted {
            i,
            n,
            s,
            lag,
            test_t,
            exit,
            head_len,
        })
    }
}

/// A counted multiply-accumulate region, `while x < n { acc += in[x1] *
/// in[x2]; i += s }`, where `x`, `x1` and `x2` are each `i` or `t = i +
/// k`: the inner loop of the corpus `matched_filter` and
/// `lagged_autocorr`, matched by [`MacLoop::of`] on its four plain body
/// ops at prepare time. Besides `acc` the body writes only dead
/// temporaries, so `i`, `acc` and `t` are all `run_mac` keeps.
#[derive(Clone, Copy, Debug)]
struct MacLoop {
    head: Counted,
    acc: u16,
    port1: u8,
    idx1_t: bool,
    port2: u8,
    idx2_t: bool,
    /// `acc + p` (true) or `p + acc`: the source's operand order, which
    /// decides the NaN payload that survives.
    acc_first: bool,
}

impl MacLoop {
    fn of(head: Counted, body: &[RegOp], is_temp: &dyn Fn(u16) -> bool) -> Option<MacLoop> {
        let [RegOp::InGet {
            dst: g1,
            port: port1,
            idx: idx1,
        }, RegOp::InGet {
            dst: g2,
            port: port2,
            idx: idx2,
        }, mul, add] = *body
        else {
            return None;
        };
        let (Some((BinOp::Mul, p, pa, pb)), Some((BinOp::Add, acc, a, b))) =
            (as_bin(&mul), as_bin(&add))
        else {
            return None;
        };
        let Counted { i, lag, .. } = head;
        // `i` (false) or `t` (true); anything else refuses the shape.
        let pick = |r: u16| match lag {
            _ if r == i => Some(false),
            Some((t, _)) if r == t => Some(true),
            _ => None,
        };
        let acc_first = match (a, b) {
            (x, y) if x == acc && y == p => true,
            (x, y) if x == p && y == acc => false,
            _ => return None,
        };
        if (pa, pb) != (g1, g2) || ![g1, g2, p].into_iter().all(is_temp) {
            return None;
        }
        Some(MacLoop {
            head,
            acc,
            port1,
            idx1_t: pick(idx1)?,
            port2,
            idx2_t: pick(idx2)?,
            acc_first,
        })
    }

    /// How many leading iterations from counter `i` pass every check of
    /// `run_mac`'s checked loop: the budget (`budget_iters`), the exit test
    /// against `n` and the gathers into ports of `lens`. Zero unless `i`,
    /// `s` and `k` are integers of magnitude at most 2⁵² and `s ≥ 1`.
    /// Then every admitted iteration gathers at a value in `[0, 2⁵²]`, and
    /// `i` and `t` lie within `|k|` of it, so each is an exact integer of
    /// magnitude at most 2⁵³ and equals the generic loop's repeated `i += s`.
    fn clean_iters(&self, [i, s, k, n]: [f64; 4], lens: [usize; 2], budget_iters: u64) -> u64 {
        const MAX: f64 = (1u64 << 52) as f64;
        let int = |x: f64| x.abs() <= MAX && x.trunc() == x;
        if !(int(i) && int(s) && int(k) && s >= 1.0) {
            return 0;
        }
        // Iteration `j`'s `t` or `i`, exact.
        let at = |x_t: bool, j: u64| (if x_t { i + k } else { i }) as i128 + j as i128 * s as i128;
        // `to_index` admits `[0, 2⁵²]` below `len`. The values only grow,
        // so each check, and so all of them, passes a prefix of the
        // iterations: bisect for its length. The exit test is the compare
        // itself, which any `n` (NaN, ±inf, fractional, huge) answers as
        // the checked loop does.
        let gather =
            |x_t, len: usize, j| at(x_t, 0) >= 0 && at(x_t, j) < len.min((1 << 52) + 1) as i128;
        let passes = |j| {
            gather(self.idx1_t, lens[0], j)
                && gather(self.idx2_t, lens[1], j)
                && BinOp::Lt.eval(at(self.head.test_t, j) as f64, n) != 0.0
        };
        let (mut lo, mut hi) = (0, budget_iters.min(lens[0].min(lens[1]) as u64));
        while lo < hi {
            let j = lo + (hi - lo) / 2;
            (lo, hi) = if passes(j) { (j + 1, hi) } else { (lo, j) };
        }
        lo
    }
}

/// A counted map region: a [`Counted`] loop whose plain body uses only
/// `Mov`, `Bin`, `Un`, `InLen`, `InGet` and `OutPush`, writes each
/// register once and reads it only after that write, and pushes each
/// output port from at most one op. So no value but `i` crosses the
/// back-edge, and `run_map` runs it [`LANES`] iterations at a time, one
/// column per register, each body op once per chunk.
#[derive(Clone, Debug)]
struct MapLoop {
    head: Counted,
    /// The body with every register renumbered to its column, so an op's
    /// operand columns all lie below its result's.
    body: Vec<RegOp>,
    /// The register each of the first `n_cols` columns holds: `i`, `t`
    /// when the head has a lag, then the body's operands and results in
    /// first-use order.
    cols: [u16; MAX_COLS],
    n_cols: usize,
    /// Bit `c` is set when the body writes column `c`'s register, which
    /// each chunk's last lane syncs back to `regs`. The other columns past
    /// `i` and `t` hold loop-invariant operands, filled once per run.
    written: u16,
    /// `OutPush` ops in the body, one per port.
    pushes: usize,
}

impl MapLoop {
    fn of(head: Counted, body: &[RegOp]) -> Option<MapLoop> {
        let writes = |r: u16| body.iter().any(|&op| dst(op) == Some(r));
        let mut m = MapLoop {
            head,
            body: Vec::with_capacity(body.len()),
            cols: [head.i; MAX_COLS],
            n_cols: 1 + usize::from(head.lag.is_some()),
            written: 0,
            pushes: 0,
        };
        m.cols[1] = head.lag.map_or(head.i, |(t, _)| t);
        // The column of register `r`, read or written, new on its first use.
        let col = |m: &mut MapLoop, r: u16, write: bool| {
            match m.cols[..m.n_cols].iter().position(|&x| x == r) {
                Some(c) if !write => Some(c as u16),
                // Written twice, read before its write (a value carried
                // across the back-edge), or out of columns.
                Some(_) => None,
                None if !write && writes(r) || m.n_cols == MAX_COLS => None,
                None => {
                    m.cols[m.n_cols] = r;
                    m.written |= u16::from(write) << m.n_cols;
                    m.n_cols += 1;
                    Some(m.n_cols as u16 - 1)
                }
            }
        };
        for mut op in body.iter().copied() {
            let pushed = |p: u8| {
                m.body
                    .iter()
                    .any(|o| matches!(*o, RegOp::OutPush { port, .. } if port == p))
            };
            let (reads, dst) = match &mut op {
                RegOp::Mov { dst, src }
                | RegOp::Un { dst, src, .. }
                | RegOp::InGet { dst, idx: src, .. } => ([Some(src), None], Some(dst)),
                RegOp::Bin { dst, a, b, .. } => ([Some(a), Some(b)], Some(dst)),
                RegOp::InLen { dst, .. } => ([None, None], Some(dst)),
                RegOp::OutPush { port, src } if !pushed(*port) => ([Some(src), None], None),
                _ => return None,
            };
            // Operands first: a result's column then lies above them all.
            for r in reads.into_iter().flatten() {
                *r = col(&mut m, *r, false)?;
            }
            if let Some(d) = dst {
                *d = col(&mut m, *d, true)?;
            }
            m.pushes += usize::from(matches!(op, RegOp::OutPush { .. }));
            m.body.push(op);
        }
        Some(m)
    }
}

/// Detect and translate the hot loops of every function of `module`,
/// whose function `f` starts at flat pc `bases[f]` of `code`. Returns the
/// regions in head order; `PInst::Region(i)` takes the place of region
/// `i`'s head op in `code`, and the region keeps that op.
pub(crate) fn translate_loops(
    module: &Module,
    bases: &[u32],
    code: &mut [PInst],
) -> Vec<LoopRegion> {
    let mut regions: Vec<LoopRegion> = Vec::new();
    for (f, &fbase) in module.functions.iter().zip(bases) {
        regions.extend(detect_function_regions(&f.code, f.n_locals, fbase));
    }
    regions.truncate(usize::from(u16::MAX));
    regions.sort_by_key(|r| r.head_flat);
    for (i, r) in regions.iter_mut().enumerate() {
        r.head = std::mem::replace(&mut code[r.head_flat as usize], PInst::Region(i as u16));
    }
    regions
}

/// Mutable interpreter state handed to a region run.
struct VmState {
    pc: usize,
    sp: usize,
    max_sp: usize,
    instr: u64,
    out_cells: usize,
    /// Register ops the region sent through its dispatch match, charged
    /// on every way out (errors included).
    dispatched: u64,
}

/// The dispatch loop. Exact reference-interpreter semantics: one source
/// instruction per dispatched op, budget check first, then the op's own
/// checks in `tvm::execute`'s order. A region head runs whole loop
/// iterations in register form. On every way out the run charges
/// `ctx.dispatched_ops`: each stack-form op counts one, and an accepted
/// region entry counts what its run dispatched in place of the head op.
pub(crate) fn run_vm(
    prepared: &PreparedModule,
    inputs: &[&[f64]],
    policy: &SandboxPolicy,
    ctx: &mut ExecContext,
) -> Result<ExecStats, TvmError> {
    let code = &prepared.code[..];
    let max_instr = policy.max_instructions;
    let max_stack = policy.max_stack;

    let stack = &mut ctx.stack;
    let frames = &mut ctx.frames;
    let locals = &mut ctx.locals;
    let outputs = &mut ctx.outputs;
    let regs = &mut ctx.regs;
    let fallbacks = &mut ctx.tier2_fallbacks;
    let dispatched = &mut ctx.dispatched_ops;

    let regions = &prepared.regions[..];

    let mut pc = 0usize;
    let mut sp = 0usize;
    let mut max_sp = 0usize;
    let mut instr = 0u64;
    // Current frame's locals window is [lb, lt).
    let mut lb = 0usize;
    let mut lt = prepared.entry_locals as usize;
    let mut out_cells = 0usize;
    // Source instructions retired inside regions, and the register ops
    // their runs dispatched: `instr` less the first is what stepped here.
    let mut region_retired = 0u64;
    let mut region_ops = 0u64;

    // Charge the dispatch count, then fail the run.
    macro_rules! fail {
        ($e:expr) => {{
            *dispatched = instr - region_retired + region_ops;
            return Err($e);
        }};
    }
    // Write `v` at `sp` after the overflow check, growing the backing
    // buffer only the first time a depth is reached.
    macro_rules! pushv {
        ($v:expr) => {{
            if sp >= max_stack {
                fail!(TvmError::StackOverflow);
            }
            let v = $v;
            if sp < stack.len() {
                stack[sp] = v;
            } else {
                stack.push(v);
            }
            sp += 1;
            if sp > max_sp {
                max_sp = sp;
            }
        }};
    }
    macro_rules! underflow {
        ($n:expr) => {{
            if sp < $n {
                fail!(TvmError::StackUnderflow);
            }
        }};
    }
    'run: loop {
        // Every dispatched op retires exactly one source instruction, and
        // the reference interpreter checks the budget before each. A region
        // head is no exception: with no budget left its region would
        // refuse entry, and the head op would trip this same check.
        if instr >= max_instr {
            fail!(TvmError::BudgetExceeded);
        }
        instr += 1;
        // pc is always in range: the verifier guarantees every function
        // ends in a terminator and all jump targets are mapped.
        let mut op = code[pc];
        pc += 1;
        // One pass per op; a second when a region refuses entry and its
        // head's own op runs instead.
        loop {
            match op {
                PInst::Push(x) => pushv!(x),
                PInst::Pop => {
                    underflow!(1);
                    sp -= 1;
                }
                PInst::Dup => {
                    underflow!(1);
                    let a = stack[sp - 1];
                    pushv!(a);
                }
                PInst::Swap => {
                    underflow!(2);
                    stack.swap(sp - 1, sp - 2);
                }
                PInst::Over => {
                    underflow!(2);
                    let a = stack[sp - 2];
                    pushv!(a);
                }
                PInst::Load(i) => {
                    let v = locals[lb + i as usize];
                    pushv!(v);
                }
                PInst::Store(i) => {
                    underflow!(1);
                    sp -= 1;
                    locals[lb + i as usize] = stack[sp];
                }
                PInst::Bin(op) => {
                    underflow!(2);
                    let b = stack[sp - 1];
                    let a = stack[sp - 2];
                    sp -= 1;
                    stack[sp - 1] = op.eval(a, b);
                }
                PInst::Un(op) => {
                    underflow!(1);
                    stack[sp - 1] = op.eval(stack[sp - 1]);
                }
                PInst::Jmp(t) => pc = t as usize,
                PInst::Jz(t) => {
                    underflow!(1);
                    sp -= 1;
                    if stack[sp] == 0.0 {
                        pc = t as usize;
                    }
                }
                PInst::Jnz(t) => {
                    underflow!(1);
                    sp -= 1;
                    if stack[sp] != 0.0 {
                        pc = t as usize;
                    }
                }
                PInst::Call { entry, n_locals } => {
                    // `frames` holds suspended callers, so depth = len + 1.
                    if frames.len() + 1 >= policy.max_call_depth {
                        fail!(TvmError::CallDepthExceeded);
                    }
                    frames.push((pc as u32, lb as u32));
                    lb = lt;
                    lt += n_locals as usize;
                    if locals.len() < lt {
                        locals.resize(lt, 0.0);
                    } else {
                        locals[lb..lt].fill(0.0);
                    }
                    pc = entry as usize;
                }
                PInst::Ret => match frames.pop() {
                    Some((ret_pc, caller_lb)) => {
                        lt = lb;
                        lb = caller_lb as usize;
                        pc = ret_pc as usize;
                    }
                    None => break 'run,
                },
                PInst::Halt => break 'run,
                PInst::InLen(p) => pushv!(inputs[p as usize].len() as f64),
                PInst::InGet(p) => {
                    underflow!(1);
                    let idx = stack[sp - 1];
                    let port = inputs[p as usize];
                    match to_index(idx, port.len()) {
                        Some(i) => stack[sp - 1] = port[i],
                        None => fail!(TvmError::IndexOutOfBounds {
                            port: p,
                            index: idx,
                        }),
                    }
                }
                PInst::OutPush(p) => {
                    underflow!(1);
                    sp -= 1;
                    let v = stack[sp];
                    if out_cells >= policy.max_output_cells {
                        fail!(TvmError::OutputLimitExceeded);
                    }
                    out_cells += 1;
                    outputs[p as usize].push(v);
                }
                PInst::OutSet(p) => {
                    underflow!(2);
                    let v = stack[sp - 1];
                    let idx = stack[sp - 2];
                    sp -= 2;
                    let out = &mut outputs[p as usize];
                    let i = match to_raw_index(idx) {
                        Some(i) => i,
                        None => fail!(TvmError::IndexOutOfBounds {
                            port: p,
                            index: idx,
                        }),
                    };
                    if i >= out.len() {
                        let grow = i + 1 - out.len();
                        if out_cells + grow > policy.max_output_cells {
                            fail!(TvmError::OutputLimitExceeded);
                        }
                        out_cells += grow;
                        out.resize(i + 1, 0.0);
                    }
                    out[i] = v;
                }
                PInst::OutLen(p) => pushv!(outputs[p as usize].len() as f64),
                PInst::HostIo => {
                    if !policy.allow_host_io {
                        fail!(TvmError::HostIoDenied);
                    }
                    underflow!(1);
                    stack[sp - 1] = 0.0; // simulated syscall result
                }
                PInst::Region(ri) => {
                    // The region starts at its head, before the head's
                    // budget charge above.
                    let region = &regions[ri as usize];
                    let nl = region.n_locals as usize;
                    let mut st = VmState {
                        pc: pc - 1,
                        sp,
                        max_sp,
                        instr: instr - 1,
                        out_cells,
                        dispatched: 0,
                    };
                    let ran = region.run(
                        inputs,
                        policy,
                        stack,
                        &mut locals[lb..lb + nl],
                        outputs,
                        regs,
                        &mut st,
                        fallbacks,
                    );
                    region_ops += st.dispatched;
                    let entered = match ran {
                        Ok(entered) => entered,
                        Err(e) => {
                            // The region took the head's dispatch.
                            instr -= 1;
                            fail!(e)
                        }
                    };
                    if entered {
                        // Resumed at an exit target, or back at the head
                        // after a fallback (where the next entry is
                        // refused and the head op steps precisely).
                        region_retired += st.instr - (instr - 1);
                        pc = st.pc;
                        sp = st.sp;
                        max_sp = st.max_sp;
                        instr = st.instr;
                        out_cells = st.out_cells;
                        continue 'run;
                    }
                    // Entry refused, state untouched: the head's own op
                    // (and everything after it) steps in stack form.
                    op = region.head;
                    continue;
                }
            }
            break;
        }
    }

    *dispatched = instr - region_retired + region_ops;
    Ok(ExecStats {
        instructions: instr,
        max_stack: max_sp,
    })
}

/// Write at `sp` (overflow already checked), growing the buffer if this
/// depth has never been reached. High-water update is the caller's duty.
#[inline(always)]
fn pushv_raw(stack: &mut Vec<f64>, sp: usize, v: f64) {
    if sp < stack.len() {
        stack[sp] = v;
    } else {
        stack.truncate(sp);
        stack.push(v);
    }
}

fn to_index(x: f64, len: usize) -> Option<usize> {
    let i = to_raw_index(x)?;
    (i < len).then_some(i)
}

/// `x` as an index when it lies in `[0, 2⁵²]`: NaN fails both compares
/// and ±inf one, so no separate finiteness test, and in range the
/// one-instruction `as i64` truncates exactly as `as usize` would.
fn to_raw_index(x: f64) -> Option<usize> {
    (0.0..=(1u64 << 52) as f64)
        .contains(&x)
        .then_some(x as i64 as usize)
}

/// `inputs[port][x]`, with the stack form's bounds check and error.
#[inline(always)]
fn fetch(inputs: &[&[f64]], port: u8, x: f64) -> Result<f64, TvmError> {
    let data = inputs[port as usize];
    match to_index(x, data.len()) {
        Some(i) => Ok(data[i]),
        None => Err(TvmError::IndexOutOfBounds { port, index: x }),
    }
}

/// `BinExit`'s test, shared by `run`'s inlined head and its dispatched
/// arm: run the fused leading `Bin`, if any, then report whether `a ∘ b`
/// leaves the region.
#[inline(always)]
fn bin_exit_taken(
    regs: &mut [f64],
    pre: Option<(BinOp, u16, u16, u16)>,
    op: BinOp,
    a: u16,
    b: u16,
    exit_if_zero: bool,
) -> bool {
    if let Some((op1, t, x, y)) = pre {
        regs[t as usize] = op1.eval(regs[x as usize], regs[y as usize]);
    }
    (op.eval(regs[a as usize], regs[b as usize]) == 0.0) == exit_if_zero
}

/// The second stage of `Bin2` and `In2Bin2`: `c ∘₂ d`, where
/// [`SELF_OPERAND`] means the first stage's result `t`.
#[inline(always)]
fn second(regs: &[f64], op2: BinOp, c: u16, d: u16, t: f64) -> f64 {
    let pick = |r: u16| {
        if r == SELF_OPERAND {
            t
        } else {
            regs[r as usize]
        }
    };
    op2.eval(pick(c), pick(d))
}

/// `d[j] = a[j] ∘ b[j]` over a chunk's live lanes: the op is matched
/// once, and each arm is a lane loop over [`BinOp::eval`] with the op
/// fixed, which the compiler specialises.
fn bin_lanes(op: BinOp, d: &mut [f64], a: &[f64], b: &[f64]) {
    macro_rules! lanes {
        ($($v:ident)*) => {
            match op {
                $(BinOp::$v => {
                    for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
                        *d = BinOp::$v.eval(x, y);
                    }
                })*
            }
        };
    }
    lanes!(Add Sub Mul Div Rem Min Max Pow Eq Ne Lt Le Gt Ge)
}

/// [`bin_lanes`] for a [`UnOp`].
fn un_lanes(op: UnOp, d: &mut [f64], a: &[f64]) {
    macro_rules! lanes {
        ($($v:ident)*) => {
            match op {
                $(UnOp::$v => {
                    for (d, &x) in d.iter_mut().zip(a) {
                        *d = UnOp::$v.eval(x);
                    }
                })*
            }
        };
    }
    lanes!(Neg Abs Floor Sqrt Sin Cos Exp Ln)
}

impl LoopRegion {
    /// Run whole iterations in register form. Returns `Ok(false)` when the
    /// entry preconditions refuse the first iteration (state untouched —
    /// the caller steps precisely), `Ok(true)` after an exit or a
    /// mid-flight fallback (state synced; `st.pc` names the resume point),
    /// and `Err` for data-dependent faults, which discard stats exactly as
    /// the stack form does. Kept out of line: inlined, it slows the
    /// dispatch loop that runs straight-line code.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        stack: &mut Vec<f64>,
        locals: &mut [f64],
        outputs: &mut [Vec<f64>],
        regs: &mut Vec<f64>,
        st: &mut VmState,
        fallbacks: &mut u64,
    ) -> Result<bool, TvmError> {
        let nl = self.n_locals as usize;
        if regs.len() < self.n_regs as usize {
            regs.resize(self.n_regs as usize, 0.0);
        }
        // Plain-slice view: keeps register access off the Vec indirection
        // inside the hot dispatch loop.
        let regs: &mut [f64] = &mut regs[..];
        // Head preconditions, hoisted out of the iteration loop. One full
        // iteration must fit the budget (the k-th of `full_cost` source ops
        // needs `instr + k <= max`) and the stack headroom (`peak_full`
        // pushes above entry sp). A partial path might fit where the full
        // one does not; the precise fallback path handles those exactly as
        // the reference interpreter does. The stack test is
        // iteration-invariant (sp only moves at exits) and the budget
        // admits exactly `budget_iters` full iterations, so the
        // per-iteration precondition collapses to one counter compare —
        // `st.instr` is charged in bulk on whichever path leaves the loop,
        // identical to per-iteration accrual.
        if st.instr + self.full_cost > policy.max_instructions
            || st.sp + self.peak_full > policy.max_stack
        {
            return Ok(false);
        }
        let budget_iters = (policy.max_instructions - st.instr) / self.full_cost;
        let mut iters: u64 = 0;
        regs[..nl].copy_from_slice(locals);
        for &(r, v) in &self.consts {
            regs[r as usize] = v;
        }
        if let Some(mac) = self.mac {
            return self.run_mac(
                mac,
                budget_iters,
                inputs,
                stack,
                locals,
                regs,
                st,
                fallbacks,
            );
        }
        if let Some(map) = &self.map {
            return self.run_map(
                map,
                budget_iters,
                inputs,
                policy,
                stack,
                locals,
                outputs,
                regs,
                st,
                fallbacks,
            );
        }
        // Counted loops open with a fused exit test and every region
        // closes with its back-edge; running both inline leaves only
        // `self.body()` on the dispatch loop. The head shares
        // `bin_exit_taken` with the `BinExit` arm below; the tail is the
        // unfused `Bin` + `Back`.
        let head = match self.ops[0] {
            RegOp::BinExit {
                pre,
                op,
                a,
                b,
                exit_if_zero,
                exit,
            } => Some((pre, op, a, b, exit_if_zero, exit)),
            _ => None,
        };
        let RegOp::Back { cond, fall_exit } = self.ops[self.ops.len() - 1] else {
            unreachable!("a translated region ends with its back-edge")
        };
        let tail_bin = self.tail_bin();
        let body = self.body();
        loop {
            if iters == budget_iters {
                return self.fall_back(iters, locals, regs, st, fallbacks);
            }
            if let Some((pre, op, a, b, exit_if_zero, exit)) = head {
                if bin_exit_taken(regs, pre, op, a, b, exit_if_zero) {
                    return self.take_exit(exit, iters, 0, stack, locals, regs, st);
                }
            }
            for (j, op) in body.iter().enumerate() {
                // Charge the `j + 1` ops this iteration dispatched, then
                // fail the run.
                macro_rules! fail {
                    ($e:expr) => {{
                        st.dispatched += iters * body.len() as u64 + j as u64 + 1;
                        return Err($e);
                    }};
                }
                match *op {
                    RegOp::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
                    RegOp::Bin { op, dst, a, b } => {
                        regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
                    }
                    RegOp::Bin2 {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        dst,
                    } => {
                        let t = op1.eval(regs[a as usize], regs[b as usize]);
                        regs[dst as usize] = second(regs, op2, c, d, t);
                    }
                    RegOp::Un { op, dst, src } => {
                        regs[dst as usize] = op.eval(regs[src as usize]);
                    }
                    RegOp::InLen { dst, port } => {
                        regs[dst as usize] = inputs[port as usize].len() as f64;
                    }
                    RegOp::OutLen { dst, port } => {
                        regs[dst as usize] = outputs[port as usize].len() as f64;
                    }
                    RegOp::InGet { dst, port, idx } => {
                        match fetch(inputs, port, regs[idx as usize]) {
                            Ok(v) => regs[dst as usize] = v,
                            Err(e) => fail!(e),
                        }
                    }
                    RegOp::OutPush { port, src } => {
                        if st.out_cells >= policy.max_output_cells {
                            fail!(TvmError::OutputLimitExceeded);
                        }
                        st.out_cells += 1;
                        outputs[port as usize].push(regs[src as usize]);
                    }
                    RegOp::OutSet { port, idx, val } => {
                        let x = regs[idx as usize];
                        let i = match to_raw_index(x) {
                            Some(i) => i,
                            None => fail!(TvmError::IndexOutOfBounds { port, index: x }),
                        };
                        let out = &mut outputs[port as usize];
                        if i >= out.len() {
                            let grow = i + 1 - out.len();
                            if st.out_cells + grow > policy.max_output_cells {
                                fail!(TvmError::OutputLimitExceeded);
                            }
                            st.out_cells += grow;
                            out.resize(i + 1, 0.0);
                        }
                        out[i] = regs[val as usize];
                    }
                    RegOp::HostIo { dst } => {
                        if !policy.allow_host_io {
                            fail!(TvmError::HostIoDenied);
                        }
                        regs[dst as usize] = 0.0; // simulated syscall result
                    }
                    RegOp::BinExit {
                        pre,
                        op,
                        a,
                        b,
                        exit_if_zero,
                        exit,
                    } => {
                        if bin_exit_taken(regs, pre, op, a, b, exit_if_zero) {
                            return self.take_exit(exit, iters, j + 1, stack, locals, regs, st);
                        }
                    }
                    RegOp::CondExit {
                        cond,
                        exit_if_zero,
                        exit,
                    } => {
                        if (regs[cond as usize] == 0.0) == exit_if_zero {
                            return self.take_exit(exit, iters, j + 1, stack, locals, regs, st);
                        }
                    }
                    RegOp::Back { .. } => {
                        unreachable!("the back-edge runs inline, after the body")
                    }
                    RegOp::In2Bin2 {
                        port1,
                        idx1,
                        port2,
                        idx2,
                        op1,
                        op2,
                        c,
                        d,
                        dst,
                    } => {
                        let v1 = match fetch(inputs, port1, regs[idx1 as usize]) {
                            Ok(v) => v,
                            Err(e) => fail!(e),
                        };
                        let v2 = match fetch(inputs, port2, regs[idx2 as usize]) {
                            Ok(v) => v,
                            Err(e) => fail!(e),
                        };
                        regs[dst as usize] = second(regs, op2, c, d, op1.eval(v1, v2));
                    }
                }
            }
            if let Some((op, dst, a, b)) = tail_bin {
                regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
            }
            let take = match cond {
                CondBack::Always => true,
                CondBack::IfZero(r) => regs[r as usize] == 0.0,
                CondBack::IfNonZero(r) => regs[r as usize] != 0.0,
            };
            if !take {
                // The fall-through exit's cost equals `full_cost`, charged
                // inside take_exit.
                return self.take_exit(fall_exit, iters, body.len(), stack, locals, regs, st);
            }
            iters += 1;
        }
    }

    /// `run` for a [`MacLoop`] region: the same iterations as the generic
    /// loop with nothing dispatched, and `i`, `acc` and `t` carried in
    /// locals instead of `regs`. The checks are decided once per entry:
    /// the first [`MacLoop::clean_iters`] iterations pass them all, so they
    /// run as a plain slice loop. The rest run checked, each check in its
    /// place: the budget test, then the exit test, then both gathers
    /// through `to_index` (port 1 first). Both loops keep the source's
    /// operand order in the accumulate. `regs` gets the three back on
    /// every way out, so `take_exit` and the fallback see what the generic
    /// loop would leave.
    #[allow(clippy::too_many_arguments)]
    fn run_mac(
        &self,
        m: MacLoop,
        budget_iters: u64,
        inputs: &[&[f64]],
        stack: &mut Vec<f64>,
        locals: &mut [f64],
        regs: &mut [f64],
        st: &mut VmState,
        fallbacks: &mut u64,
    ) -> Result<bool, TvmError> {
        enum Out {
            Budget,
            Exit,
            Fault(u8, f64),
        }
        let h = m.head;
        let (n, s) = (regs[h.n as usize], regs[h.s as usize]);
        let k = h.lag.map_or(0.0, |(_, k)| regs[k as usize]);
        let (in1, in2) = (inputs[m.port1 as usize], inputs[m.port2 as usize]);
        let mut i = regs[h.i as usize];
        let mut acc = regs[m.acc as usize];
        let mut t = h.lag.map_or(0.0, |(t, _)| regs[t as usize]);
        let clean = m.clean_iters([i, s, k, n], [in1.len(), in2.len()], budget_iters);
        if clean > 0 {
            // Integers below 2⁵³ (see `clean_iters`): the casts and `i₀ + j·s`
            // are exact, and iteration 0 keeps `i₀`'s zero sign. The add takes
            // its operands as a pair, as below: an unoptimised build commutes
            // a bare `acc + p`, which changes which NaN payload survives.
            let (step, j) = (s as usize, clean as usize - 1);
            let at = |x_t: bool| (if x_t { i + k } else { i }) as usize;
            let (b1, b2, span) = (at(m.idx1_t), at(m.idx2_t), j * step + 1);
            let (a, b) = (&in1[b1..b1 + span], &in2[b2..b2 + span]);
            for x in (0..span).step_by(step) {
                let p = a[x] * b[x];
                let (l, r) = if m.acc_first { (acc, p) } else { (p, acc) };
                acc = l + r;
            }
            let last = if j > 0 { i + (j * step) as f64 } else { i };
            t = if h.lag.is_some() { last + k } else { t };
            i = last + s;
        }
        let mut iters = clean;
        let out = loop {
            if iters == budget_iters {
                break Out::Budget;
            }
            if h.lag.is_some() {
                t = i + k;
            }
            if BinOp::Lt.eval(if h.test_t { t } else { i }, n) == 0.0 {
                break Out::Exit;
            }
            let x1 = if m.idx1_t { t } else { i };
            let v1 = match to_index(x1, in1.len()) {
                Some(j) => in1[j],
                None => break Out::Fault(m.port1, x1),
            };
            let x2 = if m.idx2_t { t } else { i };
            let v2 = match to_index(x2, in2.len()) {
                Some(j) => in2[j],
                None => break Out::Fault(m.port2, x2),
            };
            let p = v1 * v2;
            let (l, r) = if m.acc_first { (acc, p) } else { (p, acc) };
            acc = l + r;
            i += s;
            iters += 1;
        };
        #[cfg(test)]
        tests::CHECKED_ITERS.with(|c| c.set(c.get() + iters - clean));
        regs[h.i as usize] = i;
        regs[m.acc as usize] = acc;
        if let Some((tr, _)) = h.lag {
            regs[tr as usize] = t;
        }
        match out {
            Out::Budget => self.fall_back(iters, locals, regs, st, fallbacks),
            Out::Exit => self.take_exit(h.exit, iters, 0, stack, locals, regs, st),
            Out::Fault(port, index) => Err(TvmError::IndexOutOfBounds { port, index }),
        }
    }

    /// `run` for a [`MapLoop`] region: the generic loop's iterations,
    /// [`LANES`] at a time on fixed stack columns. Per chunk, the counter
    /// column is built by the tail's own repeated `i + s`, up to the
    /// budget and the first lane whose exit test leaves; then each body op
    /// runs once over the live lanes. A fallible op that fails at lane `L`
    /// records its error and cuts the live lanes to `L` for the ops after
    /// it, so the error returned is the last recorded: the first in
    /// (iteration, op) order, as the generic loop raises it. `regs` gets
    /// each chunk's last lane, and on the way out the counter, so the exit
    /// and fallback see what the generic loop leaves; each chunk charges
    /// its body ops once to `st.dispatched`.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn run_map(
        &self,
        m: &MapLoop,
        budget_iters: u64,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        stack: &mut Vec<f64>,
        locals: &mut [f64],
        outputs: &mut [Vec<f64>],
        regs: &mut [f64],
        st: &mut VmState,
        fallbacks: &mut u64,
    ) -> Result<bool, TvmError> {
        let h = m.head;
        let mut cols = [[0.0f64; LANES]; MAX_COLS];
        let fixed = 1 + usize::from(h.lag.is_some());
        for c in fixed..m.n_cols {
            if m.written >> c & 1 == 0 {
                cols[c] = [regs[m.cols[c] as usize]; LANES];
            }
        }
        let (n, s) = (regs[h.n as usize], regs[h.s as usize]);
        let k = h.lag.map_or(0.0, |(_, k)| regs[k as usize]);
        let mut i = regs[h.i as usize];
        let mut t = h.lag.map_or(0.0, |(t, _)| regs[t as usize]);
        let mut iters: u64 = 0;
        let mut chunks: u64 = 0;
        let exited = loop {
            let cap = (budget_iters - iters).min(LANES as u64) as usize;
            let mut live = 0;
            let mut exited = false;
            while live < cap {
                if h.lag.is_some() {
                    t = i + k;
                    cols[1][live] = t;
                }
                if BinOp::Lt.eval(if h.test_t { t } else { i }, n) == 0.0 {
                    exited = true;
                    break;
                }
                cols[0][live] = i;
                i += s;
                live += 1;
            }
            if live > 0 {
                chunks += 1;
                let mut fault = None;
                // This push's rank among the body's pushes: lane `j` pushes
                // the chunk's `j * pushes + q`-th cell.
                let mut q = 0;
                for op in &m.body {
                    if let RegOp::OutPush { port, src } = *op {
                        let room = policy
                            .max_output_cells
                            .saturating_sub(st.out_cells + q)
                            .div_ceil(m.pushes);
                        if room < live {
                            fault = Some(TvmError::OutputLimitExceeded);
                            live = room;
                        }
                        // Grow as one push at a time would: the same
                        // reallocations whatever the chunk width.
                        let out = &mut outputs[port as usize];
                        while out.capacity() - out.len() < live {
                            out.reserve(out.capacity() - out.len() + 1);
                        }
                        out.extend_from_slice(&cols[src as usize][..live]);
                        q += 1;
                        continue;
                    }
                    let (lo, hi) = cols.split_at_mut(usize::from(dst(*op).expect("a result")));
                    let d = &mut hi[0][..live];
                    match *op {
                        RegOp::Mov { src, .. } => d.copy_from_slice(&lo[src as usize][..live]),
                        RegOp::Bin { op, a, b, .. } => {
                            bin_lanes(op, d, &lo[a as usize][..live], &lo[b as usize][..live]);
                        }
                        RegOp::Un { op, src, .. } => un_lanes(op, d, &lo[src as usize][..live]),
                        RegOp::InLen { port, .. } => d.fill(inputs[port as usize].len() as f64),
                        RegOp::InGet { port, idx, .. } => {
                            let (data, x) = (inputs[port as usize], &lo[idx as usize]);
                            let mut ok = 0;
                            while ok < live {
                                match to_index(x[ok], data.len()) {
                                    Some(j) => d[ok] = data[j],
                                    None => break,
                                }
                                ok += 1;
                            }
                            if ok < live {
                                fault = Some(TvmError::IndexOutOfBounds { port, index: x[ok] });
                                live = ok;
                            }
                        }
                        _ => unreachable!("`MapLoop::of` admits no other op"),
                    }
                }
                if let Some(e) = fault {
                    st.dispatched += chunks * m.body.len() as u64;
                    return Err(e);
                }
                st.out_cells += live * m.pushes;
                iters += live as u64;
                for c in fixed..m.n_cols {
                    if m.written >> c & 1 == 1 {
                        regs[m.cols[c] as usize] = cols[c][live - 1];
                    }
                }
            }
            if exited || iters == budget_iters {
                break exited;
            }
        };
        regs[h.i as usize] = i;
        if let Some((tr, _)) = h.lag {
            regs[tr as usize] = t;
        }
        st.dispatched += chunks * m.body.len() as u64;
        if exited {
            self.take_exit(h.exit, iters, 0, stack, locals, regs, st)
        } else {
            self.fall_back(iters, locals, regs, st, fallbacks)
        }
    }

    /// How many ops of one full iteration go through `run`'s dispatch
    /// loop: none for a multiply-accumulate or a map region.
    pub(crate) fn dispatched_ops(&self) -> usize {
        if self.mac.is_some() || self.map.is_some() {
            0
        } else {
            self.body().len()
        }
    }

    /// The ops `run` sends through its dispatch loop: all but a leading
    /// `BinExit` and the closing back-edge with the `Bin` before it, which
    /// it runs inline.
    fn body(&self) -> &[RegOp] {
        let start = usize::from(matches!(self.ops[0], RegOp::BinExit { .. }));
        let end = self.ops.len() - 1 - usize::from(self.tail_bin().is_some());
        &self.ops[start..end]
    }

    /// The `Bin` right before the closing back-edge, if any.
    fn tail_bin(&self) -> Option<(BinOp, u16, u16, u16)> {
        self.ops[..self.ops.len() - 1].last().and_then(as_bin)
    }

    /// The budget refuses the next full iteration mid-flight: charge the
    /// `iters` run, sync the locals and resume at the head, where precise
    /// stepping takes over.
    fn fall_back(
        &self,
        iters: u64,
        locals: &mut [f64],
        regs: &[f64],
        st: &mut VmState,
        fallbacks: &mut u64,
    ) -> Result<bool, TvmError> {
        st.instr += iters * self.full_cost;
        st.dispatched += iters * self.dispatched_ops() as u64;
        *fallbacks += 1;
        if st.sp + self.peak_full > st.max_sp {
            st.max_sp = st.sp + self.peak_full;
        }
        locals.copy_from_slice(&regs[..self.n_locals as usize]);
        Ok(true)
    }

    /// Leave the region through exit `e` after `iters` full iterations and
    /// `partial` dispatched ops of the next: charge the path, restore the
    /// stack high-water mark, materialise the symbolic stack, sync the
    /// locals, and point `st.pc` at the resume target.
    #[allow(clippy::too_many_arguments)]
    fn take_exit(
        &self,
        e: u16,
        iters: u64,
        partial: usize,
        stack: &mut Vec<f64>,
        locals: &mut [f64],
        regs: &[f64],
        st: &mut VmState,
    ) -> Result<bool, TvmError> {
        let ex = &self.exits[e as usize];
        st.instr += iters * self.full_cost + ex.cost;
        st.dispatched += iters * self.dispatched_ops() as u64 + partial as u64;
        // Completed iterations reached the full-path peak; a first-iteration
        // exit only reached the peak of its partial path.
        let peak = if iters > 0 { self.peak_full } else { ex.peak };
        if st.sp + peak > st.max_sp {
            st.max_sp = st.sp + peak;
        }
        for &r in &ex.pushes {
            pushv_raw(stack, st.sp, regs[r as usize]);
            st.sp += 1;
        }
        locals.copy_from_slice(&regs[..self.n_locals as usize]);
        st.pc = ex.target_flat as usize;
        Ok(true)
    }
}

/// Detect and translate the hot-loop regions of one function.
///
/// A candidate is any branch at `b` whose target `h <= b` (a back-edge);
/// candidates are tried innermost-first (ascending span) and accepted
/// greedily when disjoint, translatable, and closed: no branch outside
/// `[h, b]` may land strictly inside `(h, b]` (the head is the only way
/// in), and the body must be straight-line (no calls, returns, halts, or
/// interior jumps) with its stack traffic never dipping below the depth
/// at entry.
fn detect_function_regions(code: &[Op], n_locals: u16, base: u32) -> Vec<LoopRegion> {
    let branch_target = |op: Op| -> Option<usize> {
        match op {
            Op::Jmp(t) | Op::Jz(t) | Op::Jnz(t) => Some(t as usize),
            _ => None,
        }
    };
    let mut cands: Vec<(usize, usize)> = Vec::new();
    for (pc, &op) in code.iter().enumerate() {
        if let Some(t) = branch_target(op) {
            if t <= pc {
                cands.push((t, pc));
            }
        }
    }
    cands.sort_by_key(|&(h, b)| (b - h, h));

    let mut accepted: Vec<(usize, usize)> = Vec::new();
    let mut out = Vec::new();
    'cand: for (h, b) in cands {
        if b - h + 1 > MAX_REGION_OPS {
            continue;
        }
        if accepted.iter().any(|&(ah, ab)| h <= ab && ah <= b) {
            continue;
        }
        // Closed-entry check: no outside branch into (h, b].
        for (pc, &op) in code.iter().enumerate() {
            if (h..=b).contains(&pc) {
                continue;
            }
            if let Some(t) = branch_target(op) {
                if t > h && t <= b {
                    continue 'cand;
                }
            }
        }
        if let Some(region) = translate_region(code, h, b, n_locals, base) {
            accepted.push((h, b));
            out.push(region);
        }
    }
    out
}

/// A pure computation the translator can number: same key, same
/// operand registers unwritten since, same value.
#[derive(Clone, Copy, PartialEq)]
enum Value {
    Bin(BinOp, u16, u16),
    Un(UnOp, u16),
}

impl Value {
    fn reads(self, r: u16) -> bool {
        match self {
            Value::Bin(_, a, b) => a == r || b == r,
            Value::Un(_, src) => src == r,
        }
    }
}

/// The stack-to-register translator. The symbolic operand stack holds
/// register ids; pure stack shuffles (push/load/dup/swap/over/pop) emit
/// no code at all, `store` tries to retarget the producing op's
/// destination straight into the local's register, and a `Bin`/`Un`
/// already computed this iteration is reused instead of emitted again.
/// It emits plain register ops only; fusing is `peephole`'s job.
struct Translator {
    n_locals: u16,
    next_reg: u16,
    /// Constant pool: value bits → register, for dedup.
    const_ids: Vec<(u64, u16)>,
    consts: Vec<(u16, f64)>,
    ops: Vec<RegOp>,
    /// Symbolic operand stack of register ids, relative to entry depth.
    stack: Vec<u16>,
    /// Peak symbolic depth so far (== peak stack growth of the path).
    peak: usize,
    exits: Vec<RegionExit>,
    /// Value numbering: computations whose result register still holds
    /// them. A write to a register drops every entry that mentions it;
    /// the table covers one pass over the body, so nothing survives the
    /// back-edge.
    values: Vec<(Value, u16)>,
}

impl Translator {
    fn new(n_locals: u16) -> Self {
        Translator {
            n_locals,
            next_reg: n_locals,
            const_ids: Vec::new(),
            consts: Vec::new(),
            ops: Vec::new(),
            stack: Vec::new(),
            peak: 0,
            exits: Vec::new(),
            values: Vec::new(),
        }
    }

    /// A fresh single-assignment temporary.
    fn temp(&mut self) -> Option<u16> {
        if self.next_reg as usize >= MAX_REGION_REGS {
            return None;
        }
        let r = self.next_reg;
        self.next_reg += 1;
        Some(r)
    }

    /// The pool register holding constant `k` (bit-exact dedup).
    fn const_reg(&mut self, k: f64) -> Option<u16> {
        let bits = k.to_bits();
        if let Some(&(_, r)) = self.const_ids.iter().find(|&&(b, _)| b == bits) {
            return Some(r);
        }
        let r = self.temp()?;
        self.const_ids.push((bits, r));
        self.consts.push((r, k));
        Some(r)
    }

    /// `r` names a temporary (not a local mirror, not a pool constant).
    fn is_temp(&self, r: u16) -> bool {
        r >= self.n_locals && !self.const_ids.iter().any(|&(_, cr)| cr == r)
    }

    /// A dead temporary whose producing op may be rewritten: on the
    /// symbolic stack nowhere, referenced by no recorded exit snapshot.
    fn can_absorb(&self, r: u16) -> bool {
        self.is_temp(r)
            && !self.stack.contains(&r)
            && !self.exits.iter().any(|e| e.pushes.contains(&r))
    }

    /// Net-push: grows the symbolic stack and the path peak.
    fn push_grow(&mut self, r: u16) {
        self.stack.push(r);
        if self.stack.len() > self.peak {
            self.peak = self.stack.len();
        }
    }

    /// Replacement push (a pop already made room): no peak change.
    fn push_flat(&mut self, r: u16) {
        self.stack.push(r);
    }

    fn pop(&mut self) -> Option<u16> {
        self.stack.pop()
    }

    fn add_exit(&mut self, target_flat: u32, cost: u64, peak: usize, pushes: Vec<u16>) -> u16 {
        self.exits.push(RegionExit {
            target_flat,
            cost,
            peak,
            pushes,
        });
        (self.exits.len() - 1) as u16
    }

    /// `store i`: protect live aliases of the local's old value, then
    /// either retarget the producing op's destination or emit a `Mov`.
    fn store(&mut self, i: u16) -> Option<()> {
        let top = self.pop()?;
        let alias = self.stack.contains(&i);
        let can_patch = top != i
            && self.can_absorb(top)
            && self.ops.last().and_then(|&op| dst(op)) == Some(top);
        // The alias-preserving Mov must read the local *before* the new
        // value lands, so it goes in front of a retargeted producer.
        let mov_pos = if can_patch {
            self.ops.len() - 1
        } else {
            self.ops.len()
        };
        if alias {
            let fresh = self.temp()?;
            self.ops.insert(mov_pos, RegOp::Mov { dst: fresh, src: i });
            for s in self.stack.iter_mut() {
                if *s == i {
                    *s = fresh;
                }
            }
        }
        if can_patch {
            *self.ops.last_mut().and_then(dst_mut).expect("a producer") = i;
            // `top` is never written now.
            self.forget(top);
        } else if top != i {
            self.ops.push(RegOp::Mov { dst: i, src: top });
        } else {
            // `top == i` without a patch is a no-op: a surviving `i` on
            // the symbolic stack means the local is unchanged since its
            // load.
            return Some(());
        }
        self.forget(i);
        Some(())
    }

    /// Register `r` is written (or its producer retargeted): no numbered
    /// value that reads it or lives in it stays valid.
    fn forget(&mut self, r: u16) {
        self.values.retain(|&(v, dst)| dst != r && !v.reads(r));
    }

    /// Push the register holding `v`: reuse a numbered one, or emit the
    /// op `emit` builds into a fresh temporary.
    fn value(&mut self, v: Value, emit: impl FnOnce(u16) -> RegOp) -> Option<()> {
        let dst = match self.values.iter().find(|&&(k, _)| k == v) {
            Some(&(_, dst)) => dst,
            None => {
                let dst = self.temp()?;
                self.ops.push(emit(dst));
                self.values.push((v, dst));
                dst
            }
        };
        self.push_flat(dst);
        Some(())
    }

    fn bin(&mut self, op: BinOp) -> Option<()> {
        let b = self.pop()?;
        let a = self.pop()?;
        self.value(Value::Bin(op, a, b), |dst| RegOp::Bin { op, dst, a, b })
    }

    fn un(&mut self, op: UnOp) -> Option<()> {
        let src = self.pop()?;
        self.value(Value::Un(op, src), |dst| RegOp::Un { op, dst, src })
    }
}

/// The result register of a plain producer op: the one `store` may
/// retarget, and the one a map body writes.
fn dst_mut(op: &mut RegOp) -> Option<&mut u16> {
    match op {
        RegOp::Mov { dst, .. }
        | RegOp::Bin { dst, .. }
        | RegOp::Un { dst, .. }
        | RegOp::InLen { dst, .. }
        | RegOp::OutLen { dst, .. }
        | RegOp::InGet { dst, .. }
        | RegOp::HostIo { dst } => Some(dst),
        _ => None,
    }
}

fn dst(mut op: RegOp) -> Option<u16> {
    dst_mut(&mut op).copied()
}

/// `(op, dst, a, b)` of a plain `Bin`.
fn as_bin(op: &RegOp) -> Option<(BinOp, u16, u16, u16)> {
    match *op {
        RegOp::Bin { op, dst, a, b } => Some((op, dst, a, b)),
        _ => None,
    }
}

/// Does `op` read register `r` (as an operand — destinations excluded)?
fn reads(op: &RegOp, r: u16) -> bool {
    let back_reads = |cond: &CondBack| match *cond {
        CondBack::Always => false,
        CondBack::IfZero(c) | CondBack::IfNonZero(c) => c == r,
    };
    match *op {
        RegOp::Mov { src, .. } => src == r,
        RegOp::Bin { a, b, .. } => a == r || b == r,
        RegOp::Bin2 { a, b, c, d, .. } => a == r || b == r || c == r || d == r,
        RegOp::Un { src, .. } => src == r,
        RegOp::InLen { .. } | RegOp::OutLen { .. } | RegOp::HostIo { .. } => false,
        RegOp::InGet { idx, .. } => idx == r,
        RegOp::In2Bin2 {
            idx1, idx2, c, d, ..
        } => idx1 == r || idx2 == r || c == r || d == r,
        RegOp::OutPush { src, .. } => src == r,
        RegOp::OutSet { idx, val, .. } => idx == r || val == r,
        RegOp::BinExit { pre, a, b, .. } => {
            a == r || b == r || pre.is_some_and(|(_, _, x, y)| x == r || y == r)
        }
        RegOp::CondExit { cond, .. } => cond == r,
        RegOp::Back { ref cond, .. } => back_reads(cond),
    }
}

/// Peephole combiner, the only place ops are fused: fuse runs of adjacent
/// ops into superinstructions, repeating until a pass makes no change.
/// Every fused op performs its constituent checks in the original order,
/// and nothing is fused across an exit-capable op — an exit test only
/// absorbs the ops before it — so outputs, metering, and the error
/// taxonomy are untouched; only dispatch count drops. A link register
/// the fused op no longer writes must be a dead temporary: `is_temp`
/// excludes local mirrors and pool constants, and a temp is dead when no
/// later op reads it and no exit snapshot pushes it.
fn peephole(
    mut ops: Vec<RegOp>,
    exits: &[RegionExit],
    is_temp: &dyn Fn(u16) -> bool,
) -> Vec<RegOp> {
    loop {
        let mut out: Vec<RegOp> = Vec::with_capacity(ops.len());
        let mut changed = false;
        for (i, op) in ops.iter().enumerate() {
            let dead = |t: u16| {
                is_temp(t)
                    && !ops[i + 1..].iter().any(|later| reads(later, t))
                    && !exits.iter().any(|e| e.pushes.contains(&t))
            };
            let fused = match (out.last().copied(), *op) {
                // Two gathers feeding a `Bin2`: the first sits just below
                // the second in `out`, and goes with it.
                (
                    Some(RegOp::InGet {
                        dst: dst2,
                        port: port2,
                        idx: idx2,
                    }),
                    RegOp::Bin2 {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        dst,
                    },
                ) => match out.len().checked_sub(2).map(|j| out[j]) {
                    Some(RegOp::InGet {
                        dst: dst1,
                        port: port1,
                        idx: idx1,
                    }) if (a, b) == (dst1, dst2)
                        && dst1 != idx2
                        && ![dst1, dst2].contains(&c)
                        && ![dst1, dst2].contains(&d)
                        && dead(dst1)
                        && dead(dst2) =>
                    {
                        out.pop();
                        Some(RegOp::In2Bin2 {
                            port1,
                            idx1,
                            port2,
                            idx2,
                            op1,
                            op2,
                            c,
                            d,
                            dst,
                        })
                    }
                    _ => None,
                },
                (
                    Some(RegOp::Bin {
                        op: op1,
                        dst: t,
                        a,
                        b,
                    }),
                    RegOp::Bin {
                        op: op2,
                        dst,
                        a: ra,
                        b: rb,
                    },
                ) if (ra == t || rb == t) && dead(t) => Some(RegOp::Bin2 {
                    op1,
                    a,
                    b,
                    op2,
                    c: if ra == t { SELF_OPERAND } else { ra },
                    d: if rb == t { SELF_OPERAND } else { rb },
                    dst,
                }),
                (
                    Some(RegOp::Bin { op, dst: t, a, b }),
                    RegOp::CondExit {
                        cond,
                        exit_if_zero,
                        exit,
                    },
                ) if cond == t && dead(t) => Some(RegOp::BinExit {
                    pre: None,
                    op,
                    a,
                    b,
                    exit_if_zero,
                    exit,
                }),
                // The `Bin` before an exit test rides in it as `pre` and
                // still writes its result, so a compare chain's
                // intermediate (`i + lag` in `lagged_autocorr`) stays
                // readable by the ops after the exit.
                (
                    Some(RegOp::Bin {
                        op: op1,
                        dst,
                        a: x,
                        b: y,
                    }),
                    RegOp::BinExit {
                        pre: None,
                        op,
                        a,
                        b,
                        exit_if_zero,
                        exit,
                    },
                ) => Some(RegOp::BinExit {
                    pre: Some((op1, dst, x, y)),
                    op,
                    a,
                    b,
                    exit_if_zero,
                    exit,
                }),
                _ => None,
            };
            match fused {
                Some(f) => {
                    *out.last_mut().unwrap() = f;
                    changed = true;
                }
                None => out.push(*op),
            }
        }
        ops = out;
        if !changed {
            return ops;
        }
    }
}

/// Translate source ops `[h, b]` (`code[b]` is the back-edge branch to
/// `h`) into register form, or `None` when the body defeats translation.
/// `base` is the function's offset in the flat code array.
fn translate_region(
    code: &[Op],
    h: usize,
    b: usize,
    n_locals: u16,
    base: u32,
) -> Option<LoopRegion> {
    let flat_of = |pc: usize| base + pc as u32;
    let full_cost = (b - h + 1) as u64;
    let mut t = Translator::new(n_locals);
    for pc in h..=b {
        let op = code[pc];
        let at_back = pc == b;
        if let Some(bin) = BinOp::of(op) {
            t.bin(bin)?;
            continue;
        }
        if let Some(un) = UnOp::of(op) {
            t.un(un)?;
            continue;
        }
        match op {
            Op::Push(k) => {
                let r = t.const_reg(k)?;
                t.push_grow(r);
            }
            Op::Pop => {
                t.pop()?;
            }
            Op::Dup => {
                let a = *t.stack.last()?;
                t.push_grow(a);
            }
            Op::Swap => {
                let n = t.stack.len();
                if n < 2 {
                    return None;
                }
                t.stack.swap(n - 1, n - 2);
            }
            Op::Over => {
                let n = t.stack.len();
                if n < 2 {
                    return None;
                }
                let a = t.stack[n - 2];
                t.push_grow(a);
            }
            Op::Load(i) => t.push_grow(i),
            Op::Store(i) => t.store(i)?,
            Op::InLen(port) | Op::OutLen(port) => {
                let dst = t.temp()?;
                t.ops.push(match op {
                    Op::InLen(_) => RegOp::InLen { dst, port },
                    _ => RegOp::OutLen { dst, port },
                });
                t.push_grow(dst);
            }
            Op::InGet(p) => {
                let idx = t.pop()?;
                let dst = t.temp()?;
                t.ops.push(RegOp::InGet { dst, port: p, idx });
                t.push_flat(dst);
            }
            Op::OutPush(p) => {
                let src = t.pop()?;
                t.ops.push(RegOp::OutPush { port: p, src });
            }
            Op::OutSet(p) => {
                let val = t.pop()?;
                let idx = t.pop()?;
                t.ops.push(RegOp::OutSet { port: p, idx, val });
            }
            Op::HostIo(_) => {
                t.pop()?;
                let dst = t.temp()?;
                t.ops.push(RegOp::HostIo { dst });
                t.push_flat(dst);
            }
            Op::Jmp(target) => {
                if !(at_back && target as usize == h && t.stack.is_empty()) {
                    return None;
                }
                t.ops.push(RegOp::Back {
                    cond: CondBack::Always,
                    fall_exit: NO_EXIT,
                });
            }
            Op::Jz(target) | Op::Jnz(target) => {
                let on_zero = matches!(op, Op::Jz(_));
                let cond = t.pop()?;
                if at_back && target as usize == h {
                    // Conditional back-edge; its fall-through is a full-
                    // cost exit to b+1 (which exists: the verifier demands
                    // a terminator after a conditional last op).
                    if !t.stack.is_empty() || b + 1 >= code.len() {
                        return None;
                    }
                    let fall = t.add_exit(flat_of(b + 1), full_cost, t.peak, Vec::new());
                    t.ops.push(RegOp::Back {
                        cond: if on_zero {
                            CondBack::IfZero(cond)
                        } else {
                            CondBack::IfNonZero(cond)
                        },
                        fall_exit: fall,
                    });
                } else if target as usize > b {
                    // Forward exit out of the region.
                    let cost = (pc - h + 1) as u64;
                    let peak = t.peak;
                    let pushes = t.stack.clone();
                    let exit = t.add_exit(flat_of(target as usize), cost, peak, pushes);
                    t.ops.push(RegOp::CondExit {
                        cond,
                        exit_if_zero: on_zero,
                        exit,
                    });
                } else {
                    // Interior branch or a non-terminal back-edge.
                    return None;
                }
            }
            Op::Call(_) | Op::Ret | Op::Halt => return None,
            _ => unreachable!("arithmetic handled above"),
        }
    }
    if !matches!(t.ops.last(), Some(RegOp::Back { .. })) {
        return None;
    }
    let plain = std::mem::take(&mut t.ops);
    let is_temp = |r| t.is_temp(r);
    let (mac, map) = match Counted::of(&plain, &t.exits, &is_temp) {
        Some(c) => {
            let body = &plain[c.head_len..plain.len() - 2];
            let mac = MacLoop::of(c, body, &is_temp);
            (mac, mac.map_or_else(|| MapLoop::of(c, body), |_| None))
        }
        None => (None, None),
    };
    let ops = peephole(plain, &t.exits, &is_temp);
    Some(LoopRegion {
        head_flat: flat_of(h),
        head: PInst::Halt,
        n_locals,
        n_regs: t.next_reg,
        consts: t.consts,
        ops,
        full_cost,
        peak_full: t.peak,
        exits: t.exits,
        mac,
        map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Function;
    use crate::{execute, Module};
    use std::cell::Cell;
    use Op::*;

    thread_local! {
        /// Iterations `run_mac` has run on this thread past its clean
        /// prefix, each through the per-iteration checks.
        pub(super) static CHECKED_ITERS: Cell<u64> = const { Cell::new(0) };
    }

    /// Iterations one run of corpus kernel `name`, over `len` inputs per
    /// port, sends through `run_mac`'s per-iteration checks. The run must
    /// match the reference interpreter.
    fn checked_iters(name: &str, len: usize) -> u64 {
        let path = format!("{}/tests/corpus/{name}.tvm", env!("CARGO_MANIFEST_DIR"));
        let m = crate::asm::assemble(&std::fs::read_to_string(path).unwrap()).unwrap();
        let input: Vec<f64> = (0..len).map(|j| (j as f64 * 0.61).sin()).collect();
        let inputs = vec![&input[..]; m.n_inputs as usize];
        let policy = SandboxPolicy::standard();
        let prepared = PreparedModule::prepare(&m).unwrap();
        CHECKED_ITERS.with(|c| c.set(0));
        let got = prepared.execute(&inputs, &policy, &mut ExecContext::new());
        assert_eq!(got, execute(&m, &inputs, &policy), "{name}");
        CHECKED_ITERS.with(Cell::get)
    }

    #[test]
    fn mac_kernels_run_every_iteration_unchecked() {
        // Every iteration runs in the clean prefix: all 1 552 of
        // `lagged_autocorr` on 64 inputs, all 64 of `matched_filter` and all
        // 32 272 of the 1 024-input `simnet_compute` job.
        assert_eq!(checked_iters("lagged_autocorr", 64), 0);
        assert_eq!(checked_iters("matched_filter", 64), 0);
        assert_eq!(checked_iters("lagged_autocorr", 1024), 0);
        assert_eq!(checked_iters("matched_filter_stride2", 64), 0);
        // A fractional step admits no prefix: all 128 iterations are checked.
        assert_eq!(checked_iters("matched_filter_half_step", 64), 128);
    }

    /// A [`MacLoop`] of the given shape; `clean_iters` reads no register id.
    fn mac_shape(lag: bool, test_t: bool, idx1_t: bool, idx2_t: bool) -> MacLoop {
        let head = Counted {
            i: 0,
            n: 1,
            s: 2,
            lag: lag.then_some((3, 4)),
            test_t,
            exit: 0,
            head_len: 2 + usize::from(lag),
        };
        MacLoop {
            head,
            acc: 5,
            port1: 0,
            idx1_t,
            port2: 1,
            idx2_t,
            acc_first: true,
        }
    }

    /// The iterations the checked loop runs from `i`, one at a time: the
    /// budget, then the exit test, then both gathers.
    fn naive_iters(m: &MacLoop, [i, s, k, n]: [f64; 4], lens: [usize; 2], budget: u64) -> u64 {
        let mut i = i;
        for j in 0..budget {
            let t = i + k;
            let at = |x_t: bool| if x_t { t } else { i };
            if BinOp::Lt.eval(at(m.head.test_t), n) == 0.0
                || to_index(at(m.idx1_t), lens[0]).is_none()
                || to_index(at(m.idx2_t), lens[1]).is_none()
            {
                return j;
            }
            i += s;
        }
        budget
    }

    #[test]
    fn clean_iters_pins() {
        let lagged = mac_shape(true, true, false, true);
        for lag in 0..32 {
            let got = lagged.clean_iters([0.0, 1.0, lag as f64, 64.0], [64, 64], u64::MAX);
            assert_eq!(got, 64 - lag);
        }
        let filter = mac_shape(false, false, false, false);
        let run = |i, s, n, budget| filter.clean_iters([i, s, 0.0, n], [64, 64], budget);
        assert_eq!(run(0.0, 2.0, 64.0, u64::MAX), 32);
        assert_eq!(run(-0.0, 3.0, 64.0, u64::MAX), 22);
        assert_eq!(run(0.0, 1.0, 64.0, 10), 10);
        assert_eq!(run(0.0, 1.0, 40.5, u64::MAX), 41);
        assert_eq!(run(0.0, 1.0, f64::INFINITY, u64::MAX), 64);
        assert_eq!(run(0.0, 0.5, 64.0, u64::MAX), 0);
        assert_eq!(run(-1.0, 1.0, 64.0, u64::MAX), 0);
        assert_eq!(run(0.0, 1.0, f64::NAN, u64::MAX), 0);
    }

    /// `clean_iters` never admits an iteration the checked loop would not
    /// pass (soundness), and when its preconditions hold it admits every
    /// one that does (completeness), over integer, fractional, signed-zero,
    /// NaN, infinite, negative and past-2⁵² values, port lengths 0 to 129,
    /// and budgets at, next to and far from each boundary.
    #[test]
    fn clean_iters_is_sound_and_complete() {
        const BIG: f64 = (1u64 << 52) as f64;
        const LIMIT: u64 = 300;
        let is = [
            0.0,
            -0.0,
            1.0,
            2.0,
            -1.0,
            -3.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            BIG,
            -BIG,
            BIG + 2.0,
            -BIG - 2.0,
        ];
        let steps = [
            1.0,
            2.0,
            3.0,
            0.5,
            1.5,
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            BIG,
            BIG + 2.0,
        ];
        let int = |x: f64| x.abs() <= BIG && x.trunc() == x;
        let mut case = 0usize;
        for (lag, test_t, idx1_t, idx2_t) in [(false, false, false, false)]
            .into_iter()
            .chain((0..8).map(|b| (true, b & 1 != 0, b & 2 != 0, b & 4 != 0)))
        {
            let m = mac_shape(lag, test_t, idx1_t, idx2_t);
            let ks: &[f64] = if lag { &is } else { &[0.0] };
            for (&i, &s, &k) in is.iter().flat_map(|i| {
                steps
                    .iter()
                    .flat_map(move |s| ks.iter().map(move |k| (i, s, k)))
            }) {
                case += 1;
                let lens = [case * 37 % 130, (case * 53 + case / 130) % 130];
                let ns = [
                    lens[0] as f64,
                    lens[1] as f64 + 0.5,
                    lens[0] as f64 - 3.0,
                    0.0,
                    64.5,
                    -1.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e17,
                    BIG + 2.0,
                ];
                let n = ns[case % ns.len()];
                let v = [i, s, k, n];
                let free = naive_iters(&m, v, lens, LIMIT);
                for budget in [0, 1, free.saturating_sub(1), free, free + 1, LIMIT] {
                    let want = naive_iters(&m, v, lens, budget);
                    let got = m.clean_iters(v, lens, budget);
                    let pre = int(i) && int(s) && int(k) && s >= 1.0;
                    assert!(
                        got <= want,
                        "unsound: {m:?} {v:?} {lens:?} budget {budget}: {got} > {want}"
                    );
                    assert!(
                        !pre || got == want,
                        "incomplete: {m:?} {v:?} {lens:?} budget {budget}: {got} < {want}"
                    );
                }
            }
        }
    }

    fn module1(code: Vec<Op>, n_locals: u16, n_inputs: u8, n_outputs: u8) -> Module {
        Module {
            name: "t2".into(),
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

    /// The doubler loop: `out[i] = 2 * in[i]` — the canonical hot loop,
    /// and a map region.
    fn doubler() -> Module {
        module1(
            vec![
                InLen(0),   // 0
                Store(0),   // 1
                Push(0.0),  // 2
                Store(1),   // 3
                Load(1),    // 4 <- loop head
                Load(0),    // 5
                Lt,         // 6
                Jz(18),     // 7 forward exit
                Load(1),    // 8
                InGet(0),   // 9
                Push(2.0),  // 10
                Mul,        // 11
                OutPush(0), // 12
                Load(1),    // 13
                Push(1.0),  // 14
                Add,        // 15
                Store(1),   // 16
                Jmp(4),     // 17 back-edge
                Halt,       // 18
            ],
            2,
            1,
            1,
        )
    }

    fn agree(m: &Module, inputs: &[&[f64]], policy: &SandboxPolicy) {
        let legacy = execute(m, inputs, policy);
        let prepared = PreparedModule::prepare(m).expect("verifies");
        let mut ctx = ExecContext::new();
        // Twice, to cover context reuse.
        for round in 0..2 {
            let fast = prepared.execute(inputs, policy, &mut ctx);
            assert_eq!(legacy, fast, "round {round}");
        }
    }

    #[test]
    fn doubler_loop_translates_to_one_region() {
        let prepared = PreparedModule::prepare(&doubler()).unwrap();
        assert_eq!(prepared.regions_translated(), 1);
        let r = &prepared.regions[0];
        assert_eq!(r.full_cost, 14); // ops 4..=17
        assert_eq!(r.peak_full, 2);
        // Head compare exits with an empty symbolic stack.
        assert!(r.exits.iter().all(|e| e.pushes.is_empty()));
        // Register form collapses 14 source ops into a handful.
        assert!(r.ops.len() <= 6, "got {:?}", r.ops);
    }

    #[test]
    fn doubler_matches_legacy_bit_for_bit() {
        let input = [1.0, 2.5, -3.0, 7.25];
        agree(&doubler(), &[&input], &SandboxPolicy::standard());
        agree(&doubler(), &[&[]], &SandboxPolicy::standard());
    }

    #[test]
    fn budget_fallback_matches_legacy_at_every_boundary() {
        let input = [1.0, 2.0, 3.0];
        for budget in 1..=80 {
            let policy = SandboxPolicy {
                max_instructions: budget,
                ..SandboxPolicy::standard()
            };
            agree(&doubler(), &[&input], &policy);
        }
    }

    #[test]
    fn stack_headroom_fallback_matches_legacy() {
        let input = [4.0, 5.0];
        for max_stack in 1..=4 {
            let policy = SandboxPolicy {
                max_stack,
                ..SandboxPolicy::standard()
            };
            agree(&doubler(), &[&input], &policy);
        }
    }

    #[test]
    fn fallback_counter_counts_abandonments() {
        let input = [1.0, 2.0, 3.0];
        let prepared = PreparedModule::prepare(&doubler()).unwrap();
        let mut ctx = ExecContext::new();
        // Pre-loop costs 4 instructions, each iteration 14: a budget of 20
        // admits exactly one register-form iteration, then falls back.
        let policy = SandboxPolicy {
            max_instructions: 20,
            ..SandboxPolicy::standard()
        };
        let err = prepared.execute(&[&input], &policy, &mut ctx).unwrap_err();
        assert_eq!(err, TvmError::BudgetExceeded);
        assert_eq!(ctx.tier2_fallbacks(), 1);
        // A comfortable budget never falls back, and the counter resets.
        prepared
            .execute(&[&input], &SandboxPolicy::standard(), &mut ctx)
            .unwrap();
        assert_eq!(ctx.tier2_fallbacks(), 0);
    }

    /// [`doubler`] pushing each product twice: two ops push port 0, a
    /// near miss of the map shape that stays on the generic loop.
    fn double_pusher() -> Module {
        let mut m = doubler();
        let code = &mut m.functions[0].code;
        code.splice(12..12, [Dup, OutPush(0)]);
        code[7] = Jz(20);
        m
    }

    #[test]
    fn dispatch_count_is_charged_on_every_way_out() {
        // The region dispatches `InGet`, `Bin` and both pushes per
        // iteration; its prelude is four stack-form ops and `Halt` one.
        let input = [1.0, 2.0, 3.0];
        let prepared = PreparedModule::prepare(&double_pusher()).unwrap();
        assert_eq!(prepared.dispatched_ops_per_iteration(), [4]);
        let mut ctx = ExecContext::new();
        let std_policy = SandboxPolicy::standard();
        prepared.execute(&[&input], &std_policy, &mut ctx).unwrap();
        assert_eq!(ctx.dispatched_ops(), 4 + 3 * 4 + 1);
        // A budget of 22 admits one 16-instruction iteration, then falls
        // back; the head's two loads step before the budget fails the run.
        let tight = SandboxPolicy {
            max_instructions: 22,
            ..std_policy
        };
        prepared.execute(&[&input], &tight, &mut ctx).unwrap_err();
        assert_eq!(ctx.dispatched_ops(), 4 + 4 + 2);
        // With n = 5 over three inputs, the fourth iteration's gather, its
        // first dispatched op, fails the run.
        let mut m = double_pusher();
        m.functions[0].code[0] = Push(5.0);
        let prepared = PreparedModule::prepare(&m).unwrap();
        let err = prepared.execute(&[&input], &std_policy, &mut ctx);
        assert!(matches!(err, Err(TvmError::IndexOutOfBounds { .. })));
        assert_eq!(ctx.dispatched_ops(), 4 + 3 * 4 + 1);
    }

    #[test]
    fn map_region_charges_its_body_once_per_chunk() {
        // The doubler is a map region: its three body ops run once per
        // chunk of lanes, whatever the chunk's width.
        let prepared = PreparedModule::prepare(&doubler()).unwrap();
        assert_eq!(prepared.dispatched_ops_per_iteration(), [0]);
        let mut ctx = ExecContext::new();
        let std_policy = SandboxPolicy::standard();
        let input: Vec<f64> = (0..2 * LANES + 1).map(|j| j as f64).collect();
        prepared.execute(&[&input], &std_policy, &mut ctx).unwrap();
        assert_eq!(ctx.dispatched_ops(), 4 + 3 * 3 + 1);
        prepared
            .execute(&[&input[..3]], &std_policy, &mut ctx)
            .unwrap();
        assert_eq!(ctx.dispatched_ops(), 4 + 3 + 1);
        // A budget of 20 admits a one-lane chunk, then falls back.
        let tight = SandboxPolicy {
            max_instructions: 20,
            ..std_policy
        };
        prepared
            .execute(&[&input[..3]], &tight, &mut ctx)
            .unwrap_err();
        assert_eq!(ctx.dispatched_ops(), 4 + 3 + 2);
        // With n = 5 over three inputs, lane 3's gather fails the chunk.
        let mut m = doubler();
        m.functions[0].code[0] = Push(5.0);
        let prepared = PreparedModule::prepare(&m).unwrap();
        let err = prepared.execute(&[&input[..3]], &std_policy, &mut ctx);
        assert!(matches!(err, Err(TvmError::IndexOutOfBounds { .. })));
        assert_eq!(ctx.dispatched_ops(), 4 + 3);
    }

    #[test]
    fn store_alias_is_preserved_across_patching() {
        // Inside the loop: load 0; load 0; push 1; add; store 0; load 0;
        // mul; store 1 — the first `load 0` must observe the pre-bump value.
        let m = module1(
            vec![
                Push(3.0),  // 0
                Store(0),   // 1
                Load(0),    // 2 <- head (old value, alias across the store)
                Load(0),    // 3
                Push(1.0),  // 4
                Add,        // 5
                Store(0),   // 6  (bumps local 0; the pc-2 alias must survive)
                Load(0),    // 7  (new value)
                Mul,        // 8  (old * new)
                Store(1),   // 9
                Load(0),    // 10
                Push(6.0),  // 11
                Lt,         // 12
                Jnz(2),     // 13 back-edge
                Load(1),    // 14
                OutPush(0), // 15
                Halt,       // 16
            ],
            2,
            0,
            1,
        );
        let prepared = PreparedModule::prepare(&m).unwrap();
        assert_eq!(prepared.regions_translated(), 1);
        agree(&m, &[], &SandboxPolicy::standard());
    }

    #[test]
    fn varying_stack_depth_defeats_translation() {
        // Pushes one value per iteration without popping it: the symbolic
        // stack is non-empty at the back-edge, so translation must refuse.
        let m = module1(
            vec![
                Push(3.0), // 0
                Store(0),  // 1
                Push(7.0), // 2 <- head: grows the stack each iteration
                Load(0),   // 3
                Push(1.0), // 4
                Sub,       // 5
                Store(0),  // 6
                Load(0),   // 7
                Jnz(2),    // 8 back-edge
                Pop,       // 9
                Pop,       // 10
                Pop,       // 11
                Halt,      // 12
            ],
            1,
            0,
            0,
        );
        let prepared = PreparedModule::prepare(&m).unwrap();
        assert_eq!(prepared.regions_translated(), 0);
        agree(&m, &[], &SandboxPolicy::standard());
    }

    #[test]
    fn jump_into_loop_interior_defeats_translation() {
        let m = module1(
            vec![
                Push(2.0), // 0
                Store(0),  // 1
                Jmp(5),    // 2 — lands inside (3, 6]: kills the region
                Push(0.0), // 3 <- would-be head
                Pop,       // 4
                Load(0),   // 5
                Jnz(3),    // 6 back-edge (also decrements? no — spins)
                Halt,      // 7
            ],
            1,
            0,
            0,
        );
        // Without the counter decrement the loop would spin forever; keep
        // the budget small so both paths trip it identically.
        let prepared = PreparedModule::prepare(&m).unwrap();
        assert_eq!(prepared.regions_translated(), 0);
        let policy = SandboxPolicy {
            max_instructions: 100,
            ..SandboxPolicy::standard()
        };
        agree(&m, &[], &policy);
    }

    #[test]
    fn exit_with_live_stack_materialises_values() {
        // The forward exit fires with two values on the symbolic stack;
        // they must land on the real stack for the tail to consume.
        let m = module1(
            vec![
                Push(0.0),  // 0
                Store(0),   // 1
                Load(0),    // 2 <- head: running value
                Push(10.0), // 3
                Load(0),    // 4
                Push(4.0),  // 5
                Ge,         // 6
                Jnz(15),    // 7 exit with [local0, 10.0] live
                Pop,        // 8
                Pop,        // 9
                Load(0),    // 10
                Push(1.0),  // 11
                Add,        // 12
                Store(0),   // 13
                Jmp(2),     // 14 back-edge
                Add,        // 15: consumes the two live values
                OutPush(0), // 16
                Halt,       // 17
            ],
            1,
            0,
            1,
        );
        let prepared = PreparedModule::prepare(&m).unwrap();
        assert_eq!(prepared.regions_translated(), 1);
        let mut ctx = ExecContext::new();
        let (out, _) = prepared
            .execute(&[], &SandboxPolicy::standard(), &mut ctx)
            .unwrap();
        assert_eq!(out, vec![vec![14.0]]);
        agree(&m, &[], &SandboxPolicy::standard());
    }
}

#[cfg(test)]
mod dump {
    use super::*;
    use crate::asm::assemble;

    /// Print the translated regions of the corpus' bench kernels:
    /// `cargo test -p triana-tvm --lib dump -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn dump_kernel_regions() {
        for name in ["sph_kernel", "matched_filter", "lagged_autocorr"] {
            let path = format!("{}/tests/corpus/{name}.tvm", env!("CARGO_MANIFEST_DIR"));
            let m = assemble(&std::fs::read_to_string(path).unwrap()).unwrap();
            let prepared = PreparedModule::prepare(&m).unwrap();
            println!("=== {name}: {} regions", prepared.regions.len());
            for r in &prepared.regions {
                println!(
                    "  head={} n_locals={} n_regs={} full_cost={} peak={} consts={:?}",
                    r.head_flat, r.n_locals, r.n_regs, r.full_cost, r.peak_full, r.consts
                );
                for (i, op) in r.ops.iter().enumerate() {
                    println!("    [{i}] {op:?}");
                }
                for (i, e) in r.exits.iter().enumerate() {
                    println!(
                        "    exit[{i}] target={} cost={} peak={} pushes={:?}",
                        e.target_flat, e.cost, e.peak, e.pushes
                    );
                }
            }
        }
    }
}
