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
//!    fixed virtual-register frame. The `Translator` numbers values, so a
//!    pure `Bin`/`Un` already computed in the same iteration is reused
//!    rather than recomputed, and `hoist` lifts the loop-invariant ones
//!    into the region's entry. A loop becomes a region (`LoopRegion`) only
//!    in one of three shapes, each of which runs natively and dispatches
//!    nothing per iteration:
//!    - a counted multiply-accumulate fold (`MacLoop`: `matched_filter`,
//!      `lagged_autocorr`), run as one Rust loop with its carried values
//!      in locals;
//!    - a counted map that carries nothing but `i` (`MapLoop`:
//!      `sph_kernel`), run a chunk of `LANES` iterations at a time, each
//!      body op once per chunk over a column per register;
//!    - a spin, a loop with no exit whose register form is empty (a CPU
//!      burner's `jmp` to itself), which charges every iteration the
//!      budget admits in one step.
//!
//!    The two counted shapes share `Counted`: exit on `i < n` or
//!    `i + k < n`, back-edge `i += s`, matched once on the plain ops. Any
//!    other loop runs on the dispatch loop in stack form.
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
//! ops a map region runs once per chunk are charged the same way, at
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
/// Iterations a map region runs per chunk (see [`MapLoop`]).
const LANES: usize = 64;
/// Column cap of a map region's fixed stack frame.
const MAX_COLS: usize = 16;

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
    /// `dst = f(src)`.
    Un { op: UnOp, dst: u16, src: u16 },
    /// `dst = inputs[port].len()`.
    InLen { dst: u16, port: u8 },
    /// `dst = inputs[port][idx]`, `IndexOutOfBounds` on a bad index.
    InGet { dst: u16, port: u8, idx: u16 },
    /// `outputs[port].push(src)`, `OutputLimitExceeded` past the cap.
    OutPush { port: u8, src: u16 },
    /// `jz`: leave the region through its one exit when `cond` is zero.
    ExitIfZero { cond: u16 },
}

/// The way out of a region, with the exact metering of the exited path.
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
    /// Loop-invariant pure ops lifted out of the body (see [`hoist`]):
    /// `(register, value)`, computed at region entry after the pool.
    hoisted: Vec<(u16, Value)>,
    /// Source instructions one full iteration retires.
    full_cost: u64,
    /// Peak stack growth (relative to entry sp) of a full iteration.
    peak_full: usize,
    /// The head's exit; a spin has none.
    exit: Option<RegionExit>,
    shape: Shape,
}

/// How a region runs: see the module docs.
#[derive(Clone, Debug)]
enum Shape {
    Fold(MacLoop),
    Map(MapLoop),
    Spin,
}

/// The counted head and back-edge shared by the native region runners,
/// matched once on the translator's plain ops by [`Counted::of`]: the
/// region opens with `[t = i + k;] c = x < n; jz exit`, where `x` is `i`
/// or `t` and `c` a dead temporary, and closes with `i = i + s`, or with
/// `i = r` where the body computed `r = i + s`. The head writes only `t`
/// (and `c`), the tail only `i`, and the body none of `i`, `n`, `s`, `k`
/// and `t`, so `n`, `k` and `s` hold still for the whole run.
#[derive(Clone, Copy, Debug)]
struct Counted {
    i: u16,
    n: u16,
    s: u16,
    /// `(t, k)` when the exit test opens with `t = i + k`.
    lag: Option<(u16, u16)>,
    /// Which of `i` (false) or `t` (true) the exit test compares with `n`.
    test_t: bool,
    /// Plain ops the head takes: 2, or 3 with the lag.
    head_len: usize,
}

impl Counted {
    fn of(ops: &[RegOp], pushes: &[u16], is_temp: &dyn Fn(u16) -> bool) -> Option<Counted> {
        let bin = |j: usize| ops.get(j).and_then(as_bin);
        let lagged = matches!(
            (bin(0), bin(1)),
            (Some((BinOp::Add, ..)), Some((BinOp::Lt, ..)))
        );
        let head_len = 2 + usize::from(lagged);
        let tail = ops.len().checked_sub(1).filter(|&t| t >= head_len)?;
        // `i = i + s`, or `i = r` with `r = i + s` (a temporary, so written
        // by that one op).
        let step = match ops[tail] {
            RegOp::Mov { dst: i, src: r } if is_temp(r) => ops[head_len..tail]
                .iter()
                .find(|&&op| dst(op) == Some(r))
                .and_then(as_bin)
                .map(|(op, _, a, b)| (op, i, a, b)),
            op => as_bin(&op),
        };
        let (Some((BinOp::Lt, c, x, n)), Some((BinOp::Add, i, i_read, s))) =
            (bin(head_len - 2), step)
        else {
            return None;
        };
        let RegOp::ExitIfZero { cond } = ops[head_len - 1] else {
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
        let fixed = i_read == i
            && !held.contains(&i)
            && (lag.is_none() || t != i && !held.contains(&t))
            && cond == c
            && is_temp(c)
            && !ops[head_len..].iter().any(|op| reads(op, c))
            && !pushes.contains(&c)
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
    /// magnitude at most 2⁵³ and equals the checked loop's repeated
    /// `i += s`.
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
    /// Register ops a map region ran once per chunk, charged on every
    /// way out (errors included).
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
        regs[..nl].copy_from_slice(locals);
        for &(r, v) in &self.consts {
            regs[r as usize] = v;
        }
        for &(r, v) in &self.hoisted {
            regs[r as usize] = v.eval(regs);
        }
        match &self.shape {
            Shape::Fold(mac) => self.run_mac(
                *mac,
                budget_iters,
                inputs,
                stack,
                locals,
                regs,
                st,
                fallbacks,
            ),
            Shape::Map(map) => self.run_map(
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
            ),
            // No iteration changes a register: only the budget ends it.
            Shape::Spin => self.fall_back(budget_iters, locals, regs, st, fallbacks),
        }
    }

    /// `run` for a [`MacLoop`] region: the loop's iterations with nothing
    /// dispatched, and `i`, `acc` and `t` carried in locals instead of
    /// `regs`. The checks are decided once per entry: the first
    /// [`MacLoop::clean_iters`] iterations pass them all, so they run as a
    /// plain slice loop. The rest run checked, each check in its place:
    /// the budget test, then the exit test, then both gathers through
    /// `to_index` (port 1 first). Both loops accumulate through `mac`,
    /// which keeps the source's operand order by taking the operands as a
    /// pair: an unoptimised build commutes a bare `acc + p`, which changes
    /// which NaN payload survives. `regs` gets the three back on every way
    /// out, so `take_exit` and the fallback see what stack-form stepping
    /// would leave.
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
        let mac = |acc, (x, y): (&f64, &f64)| {
            let p = x * y;
            let (l, r) = if m.acc_first { (acc, p) } else { (p, acc) };
            l + r
        };
        let clean = m.clean_iters([i, s, k, n], [in1.len(), in2.len()], budget_iters);
        if clean > 0 {
            // Integers below 2⁵³ (see `clean_iters`): the casts and `i₀ + j·s`
            // are exact, and iteration 0 keeps `i₀`'s zero sign.
            let (step, j) = (s as usize, clean as usize - 1);
            let at = |x_t: bool| (if x_t { i + k } else { i }) as usize;
            let (b1, b2, span) = (at(m.idx1_t), at(m.idx2_t), j * step + 1);
            let (a, b) = (&in1[b1..b1 + span], &in2[b2..b2 + span]);
            // Unit stride: 4 iterations a trip, adds in order; 1 a trip followed placement.
            let quads = if step == 1 { span / 4 } else { 0 };
            let ((qa, ra), (qb, rb)) = (a.split_at(4 * quads), b.split_at(4 * quads));
            for (x4, y4) in qa.as_chunks::<4>().0.iter().zip(qb.as_chunks::<4>().0) {
                acc = x4.iter().zip(y4).fold(acc, mac);
            }
            let (ra, rb) = (ra.iter().step_by(step), rb.iter().step_by(step));
            acc = ra.zip(rb).fold(acc, mac);
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
            let Some(j1) = to_index(x1, in1.len()) else {
                break Out::Fault(m.port1, x1);
            };
            let x2 = if m.idx2_t { t } else { i };
            let Some(j2) = to_index(x2, in2.len()) else {
                break Out::Fault(m.port2, x2);
            };
            acc = mac(acc, (&in1[j1], &in2[j2]));
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
            Out::Exit => self.take_exit(iters, stack, locals, regs, st),
            Out::Fault(port, index) => Err(TvmError::IndexOutOfBounds { port, index }),
        }
    }

    /// `run` for a [`MapLoop`] region: the loop's iterations, [`LANES`] at
    /// a time on fixed stack columns. Per chunk, the counter column is
    /// built by the tail's own repeated `i + s`, up to the budget and the
    /// first lane whose exit test leaves; then each body op runs once over
    /// the live lanes. A fallible op that fails at lane `L` records its
    /// error and cuts the live lanes to `L` for the ops after it, so the
    /// error returned is the last recorded: the first in (iteration, op)
    /// order, as stack-form stepping raises it. `regs` gets each chunk's
    /// last lane, and on the way out the counter, so the exit and
    /// fallback see what stack-form stepping leaves; each chunk charges
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
            self.take_exit(iters, stack, locals, regs, st)
        } else {
            self.fall_back(iters, locals, regs, st, fallbacks)
        }
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
        *fallbacks += 1;
        st.max_sp = st.max_sp.max(st.sp + self.peak_full);
        locals.copy_from_slice(&regs[..self.n_locals as usize]);
        Ok(true)
    }

    /// Leave the region through its exit after `iters` full iterations:
    /// charge the path, restore the stack high-water mark, materialise the
    /// symbolic stack, sync the locals, and point `st.pc` at the resume
    /// target.
    fn take_exit(
        &self,
        iters: u64,
        stack: &mut Vec<f64>,
        locals: &mut [f64],
        regs: &[f64],
        st: &mut VmState,
    ) -> Result<bool, TvmError> {
        let ex = self.exit.as_ref().expect("a counted region has an exit");
        st.instr += iters * self.full_cost + ex.cost;
        // Completed iterations reached the full-path peak; a first-iteration
        // exit only reached the peak of its partial path.
        let peak = if iters > 0 { self.peak_full } else { ex.peak };
        st.max_sp = st.max_sp.max(st.sp + peak);
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
#[derive(Clone, Copy, Debug, PartialEq)]
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

    fn eval(self, regs: &[f64]) -> f64 {
        match self {
            Value::Bin(op, a, b) => op.eval(regs[a as usize], regs[b as usize]),
            Value::Un(op, src) => op.eval(regs[src as usize]),
        }
    }
}

/// The stack-to-register translator. The symbolic operand stack holds
/// register ids; pure stack shuffles (push/load/dup/swap/over/pop) emit
/// no code at all, `store` tries to retarget the producing op's
/// destination straight into the local's register, and a `Bin`/`Un`
/// already computed this iteration is reused instead of emitted again.
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
    exit: Option<RegionExit>,
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
            exit: None,
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
            && !self.exit.as_ref().is_some_and(|e| e.pushes.contains(&r))
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
        | RegOp::InGet { dst, .. } => Some(dst),
        RegOp::OutPush { .. } | RegOp::ExitIfZero { .. } => None,
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
    match *op {
        RegOp::Bin { a, b, .. } => a == r || b == r,
        RegOp::Mov { src, .. }
        | RegOp::Un { src, .. }
        | RegOp::InGet { idx: src, .. }
        | RegOp::OutPush { src, .. }
        | RegOp::ExitIfZero { cond: src } => src == r,
        RegOp::InLen { .. } => false,
    }
}

/// Lift the loop-invariant pure ops out of `ops`, in order: a `Bin` or
/// `Un` into a temporary whose operands no op left in the region writes
/// (constants, locals the region never stores, and temporaries lifted
/// before it). They cannot fail, so computing them once at region entry
/// gives every iteration the values it would compute itself.
fn hoist(ops: &mut Vec<RegOp>, is_temp: &dyn Fn(u16) -> bool) -> Vec<(u16, Value)> {
    let mut hoisted = Vec::new();
    let mut j = 0;
    while j < ops.len() {
        let lift = match ops[j] {
            RegOp::Bin { op, dst, a, b } => Some((dst, Value::Bin(op, a, b))),
            RegOp::Un { op, dst, src } => Some((dst, Value::Un(op, src))),
            _ => None,
        }
        .filter(|&(d, v)| is_temp(d) && !ops.iter().any(|&op| dst(op).is_some_and(|w| v.reads(w))));
        match lift {
            Some(x) => {
                hoisted.push(x);
                ops.remove(j);
            }
            None => j += 1,
        }
    }
    hoisted
}

/// Translate source ops `[h, b]` (`code[b]` is the back-edge branch to
/// `h`) into register form, or `None` when the loop is none of the three
/// shapes (see the module docs). `base` is the function's offset in the
/// flat code array.
fn translate_region(
    code: &[Op],
    h: usize,
    b: usize,
    n_locals: u16,
    base: u32,
) -> Option<LoopRegion> {
    let mut t = Translator::new(n_locals);
    for (pc, &op) in (h..).zip(&code[h..=b]) {
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
            Op::InLen(port) => {
                let dst = t.temp()?;
                t.ops.push(RegOp::InLen { dst, port });
                t.push_grow(dst);
            }
            Op::InGet(port) => {
                let idx = t.pop()?;
                let dst = t.temp()?;
                t.ops.push(RegOp::InGet { dst, port, idx });
                t.push_flat(dst);
            }
            Op::OutPush(port) => {
                let src = t.pop()?;
                t.ops.push(RegOp::OutPush { port, src });
            }
            // The back-edge, with nothing left on the stack.
            Op::Jmp(_) if pc == b && t.stack.is_empty() => {}
            // The loop's one way out, forward past its end.
            Op::Jz(target) if target as usize > b && t.exit.is_none() => {
                let cond = t.pop()?;
                t.exit = Some(RegionExit {
                    target_flat: base + target,
                    cost: (pc - h + 1) as u64,
                    peak: t.peak,
                    pushes: t.stack.clone(),
                });
                t.ops.push(RegOp::ExitIfZero { cond });
            }
            // No shape has a second exit, a `jnz`, a conditional back-edge,
            // an interior jump, a call, a return, a halt, an output length
            // or store, or a host call.
            _ => return None,
        }
    }
    let mut ops = std::mem::take(&mut t.ops);
    let is_temp = |r| t.is_temp(r);
    let hoisted = hoist(&mut ops, &is_temp);
    let shape = match &t.exit {
        None if ops.is_empty() => Shape::Spin,
        None => return None,
        Some(exit) => {
            let c = Counted::of(&ops, &exit.pushes, &is_temp)?;
            let body = &ops[c.head_len..ops.len() - 1];
            match MacLoop::of(c, body, &is_temp) {
                Some(mac) => Shape::Fold(mac),
                None => Shape::Map(MapLoop::of(c, body)?),
            }
        }
    };
    Some(LoopRegion {
        head_flat: base + h as u32,
        head: PInst::Halt,
        n_locals,
        n_regs: t.next_reg,
        consts: t.consts,
        hoisted,
        full_cost: (b - h + 1) as u64,
        peak_full: t.peak,
        exit: t.exit,
        shape,
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

    #[test]
    fn unit_stride_prefix_matches_reference_at_every_remainder() {
        // The unit-stride prefix runs four iterations per trip; these
        // lengths leave every remainder, and the stride-2 kernel takes the
        // one-at-a-time path.
        for len in 0..=13 {
            for name in [
                "lagged_autocorr",
                "matched_filter",
                "matched_filter_stride2",
            ] {
                checked_iters(name, len);
            }
        }
    }

    /// A [`MacLoop`] of the given shape; `clean_iters` reads no register id.
    fn mac_shape(lag: bool, test_t: bool, idx1_t: bool, idx2_t: bool) -> MacLoop {
        let head = Counted {
            i: 0,
            n: 1,
            s: 2,
            lag: lag.then_some((3, 4)),
            test_t,
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
        assert!(r.exit.as_ref().unwrap().pushes.is_empty());
        assert!(matches!(r.shape, Shape::Map(_)), "got {:?}", r.shape);
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
    /// near miss of the map shape, so the loop runs in stack form.
    fn double_pusher() -> Module {
        let mut m = doubler();
        let code = &mut m.functions[0].code;
        code.splice(12..12, [Dup, OutPush(0)]);
        code[7] = Jz(20);
        m
    }

    #[test]
    fn refused_loop_dispatches_every_instruction() {
        let input = [1.0, 2.0, 3.0];
        let prepared = PreparedModule::prepare(&double_pusher()).unwrap();
        assert_eq!(prepared.regions_translated(), 0);
        let mut ctx = ExecContext::new();
        // A run that halts, one the budget stops and one a gather fails.
        let mut faulty = double_pusher();
        faulty.functions[0].code[0] = Push(5.0);
        let tight = SandboxPolicy {
            max_instructions: 22,
            ..SandboxPolicy::standard()
        };
        for (m, policy) in [
            (double_pusher(), SandboxPolicy::standard()),
            (double_pusher(), tight),
            (faulty, SandboxPolicy::standard()),
        ] {
            agree(&m, &[&input], &policy);
            let prepared = PreparedModule::prepare(&m).unwrap();
            let ran = prepared.execute(&[&input], &policy, &mut ctx);
            let retired = match ran {
                Ok((_, stats)) => stats.instructions,
                Err(TvmError::BudgetExceeded) => policy.max_instructions,
                // Up to the fourth iteration's gather, which fails.
                Err(_) => 4 + 3 * 16 + 6,
            };
            assert_eq!(ctx.dispatched_ops(), retired);
        }
    }

    #[test]
    fn map_region_charges_its_body_once_per_chunk() {
        // The doubler is a map region: its three body ops run once per
        // chunk of lanes, whatever the chunk's width.
        let prepared = PreparedModule::prepare(&doubler()).unwrap();
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
        // A conditional back-edge: no shape, so the loop runs in stack form.
        let prepared = PreparedModule::prepare(&m).unwrap();
        assert_eq!(prepared.regions_translated(), 0);
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
        // The counted head's exit fires with a value on the symbolic
        // stack; it must land on the real stack for the tail to consume.
        let m = module1(
            vec![
                Push(0.0),  // 0
                Store(0),   // 1
                Push(10.0), // 2 <- head: live across the exit
                Load(0),    // 3
                Push(4.0),  // 4
                Lt,         // 5
                Jz(13),     // 6 exit with [10.0] live
                Pop,        // 7
                Load(0),    // 8
                Push(1.0),  // 9
                Add,        // 10
                Store(0),   // 11
                Jmp(2),     // 12 back-edge
                Load(0),    // 13
                Add,        // 14: consumes the live value
                OutPush(0), // 15
                Halt,       // 16
            ],
            1,
            0,
            1,
        );
        let prepared = PreparedModule::prepare(&m).unwrap();
        assert!(matches!(prepared.regions[0].shape, Shape::Map(_)));
        let mut ctx = ExecContext::new();
        let (out, _) = prepared
            .execute(&[], &SandboxPolicy::standard(), &mut ctx)
            .unwrap();
        assert_eq!(out, vec![vec![14.0]]);
        for budget in 1..=60 {
            let policy = SandboxPolicy {
                max_instructions: budget,
                ..SandboxPolicy::standard()
            };
            agree(&m, &[], &policy);
        }
    }

    /// A map whose head computes its bound as `len - 1` and whose
    /// back-edge reuses the body's `i + 1`, as in the moving average of
    /// `examples/code_on_demand.rs`: the bound is hoisted into the entry
    /// and the back-edge is a `Mov`.
    #[test]
    fn hoisted_bound_and_reused_step_make_a_map() {
        let m = module1(
            vec![
                InLen(0),   // 0
                Store(0),   // 1
                Push(0.0),  // 2
                Store(1),   // 3
                Load(1),    // 4 <- head
                Load(0),    // 5
                Push(1.0),  // 6
                Sub,        // 7: hoisted
                Lt,         // 8
                Jz(20),     // 9
                Load(1),    // 10
                Push(1.0),  // 11
                Add,        // 12: i + 1
                InGet(0),   // 13
                OutPush(0), // 14
                Load(1),    // 15
                Push(1.0),  // 16
                Add,        // 17: reuses 12
                Store(1),   // 18
                Jmp(4),     // 19 back-edge
                Halt,       // 20
            ],
            2,
            1,
            1,
        );
        let prepared = PreparedModule::prepare(&m).unwrap();
        let r = &prepared.regions[0];
        assert_eq!(r.hoisted.len(), 1);
        assert!(matches!(r.shape, Shape::Map(_)), "got {:?}", r.shape);
        let input = [0.5, 1.5, 2.5, 3.5];
        agree(&m, &[&input], &SandboxPolicy::standard());
        agree(&m, &[&[]], &SandboxPolicy::standard());
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
                println!("    hoisted {:?}", r.hoisted);
                println!("    {:?}", r.shape);
                println!("    exit {:?}", r.exit);
            }
        }
    }
}
