//! Execution tier 2: register-translated hot loops over the shared
//! dispatch core.
//!
//! This module hosts two things:
//!
//! 1. **The interpreter core** ([`run_vm`]) shared by the Prepared and
//!    Tier2 tiers: a dense-dispatch loop over the 1:1 flattened code in
//!    which every dispatched op retires exactly one source instruction.
//!    It is monomorphised over a `const TIER2: bool`: the Tier2
//!    instantiation adds one table probe per dispatch that can divert a
//!    hot loop into register form, the Prepared one compiles it away.
//! 2. **The tier-2 pipeline** ([`Tier2Module`]): at prepare time, detect
//!    back-edge loops whose bodies are straight-line and stack-balanced,
//!    and translate their stack traffic — from the *source* ops — into a
//!    fixed virtual-register frame ([`LoopRegion`]). This is the only
//!    place instructions are fused: the translator and the `peephole`
//!    pass combine register ops into superinstructions. At run time the
//!    region executes whole iterations with no per-instruction
//!    budget/overflow/underflow checks — those are hoisted into two
//!    head-of-iteration preconditions — and with no operand-stack
//!    traffic at all.
//!
//! # Fallback and the metering contract
//!
//! Entering a region requires that one *full* iteration fits both the
//! instruction budget and the stack headroom. When the precondition
//! fails, the region syncs its registers back to the locals window and
//! *falls back*: the dispatch loop resumes precise stack-form stepping at
//! the loop head, which reproduces the legacy error (or partial-path
//! success) at exactly the legacy instruction count. Region exits charge
//! the exact number of source instructions the exited path would have
//! retired, and the stack high-water mark is reconstructed from the
//! region's translated peak, so `ExecStats` stay bit-identical to the
//! legacy interpreter. The tier barrage in `tests/properties.rs` and the
//! corpus runner in `tests/corpus.rs` pin this contract.

use crate::interp::{ExecStats, TvmError};
use crate::isa::Op;
use crate::module::{Module, ModuleBlob};
use crate::prepared::{BinOp, ExecContext, PInst, PrepareError, PreparedModule, UnOp};
use crate::sandbox::SandboxPolicy;
use crate::verify::VerifyError;

/// Longest source span (in ops) a region may cover.
const MAX_REGION_OPS: usize = 128;
/// Virtual-register frame cap (locals + constants + temporaries).
const MAX_REGION_REGS: usize = 4096;
/// `region_at` sentinel: no region starts at this flat pc.
const NO_REGION: u16 = u16::MAX;
/// [`RegOp::Bin2`] operand sentinel: "the result of the first binop".
const SELF_OPERAND: u16 = u16::MAX;
/// [`RegOp::InGetBin3`] operand sentinel: "the value the fused `InGet`
/// fetched". Register ids stay far below both sentinels ([`MAX_REGION_REGS`]).
const GET_OPERAND: u16 = u16::MAX - 1;
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
    /// `(result == 0) == exit_if_zero`.
    BinExit {
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
    // -- Peephole superinstructions (see `peephole`): each is exactly the
    // -- sequence of its constituent ops, checks in the original order.
    /// Fused `InGet + InGet` off one index register: `dst1 =
    /// inputs[port1][idx]; dst2 = inputs[port2][idx]` (port1 checked
    /// first, as the unfused pair would).
    In2 {
        dst1: u16,
        port1: u8,
        dst2: u16,
        port2: u8,
        idx: u16,
    },
    /// Fused `In2 + Bin2`: fetch both ports at `idx`, combine with `op1`,
    /// then `dst = c ∘₂ d` where [`SELF_OPERAND`] means the `op1` result.
    In2Bin2 {
        port1: u8,
        port2: u8,
        idx: u16,
        op1: BinOp,
        op2: BinOp,
        c: u16,
        d: u16,
        dst: u16,
    },
    /// Fused `Bin2 + Bin`: `t = a ∘₁ b; u = c ∘₂ d` (`c`/`d` may be
    /// [`SELF_OPERAND`] = `t`), then `dst = e ∘₃ f` where `e`/`f` may be
    /// [`SELF_OPERAND`] = `u`.
    Bin3 {
        op1: BinOp,
        a: u16,
        b: u16,
        op2: BinOp,
        c: u16,
        d: u16,
        op3: BinOp,
        e: u16,
        f: u16,
        dst: u16,
    },
    /// Fused `Bin + OutPush`: `outputs[port].push(a ∘ b)`.
    BinPush { op: BinOp, a: u16, b: u16, port: u8 },
    /// Fused `Bin2 + OutPush`.
    Bin2Push {
        op1: BinOp,
        a: u16,
        b: u16,
        op2: BinOp,
        c: u16,
        d: u16,
        port: u8,
    },
    /// Fused `InGet + Bin3`: fetch `v = inputs[port][idx]` (same bounds
    /// check and error as the unfused get), then run the three-op chain
    /// where [`GET_OPERAND`] means `v` and [`SELF_OPERAND`] means the
    /// previous op's result.
    InGetBin3 {
        port: u8,
        idx: u16,
        op1: BinOp,
        a: u16,
        b: u16,
        op2: BinOp,
        c: u16,
        d: u16,
        op3: BinOp,
        e: u16,
        f: u16,
        dst: u16,
    },
    /// Fused `Bin + Back`: `dst = a ∘ b`, then the back-edge test (which
    /// may read `dst`, exactly as the unfused pair would).
    BinBack {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
        cond: CondBack,
        fall_exit: u16,
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
}

/// A prepared module with register-translated hot-loop regions.
///
/// Construction is [`PreparedModule::prepare`] plus region detection and
/// translation; execution is the shared dispatch core with the region
/// probe enabled. Metering, outputs, and the error taxonomy are
/// bit-identical to the Legacy and Prepared tiers.
#[derive(Clone, Debug)]
pub struct Tier2Module {
    base: PreparedModule,
    regions: Vec<LoopRegion>,
    /// Flat pc → region index ([`NO_REGION`] almost everywhere).
    region_at: Vec<u16>,
}

impl Tier2Module {
    /// Verify and flatten, then detect and translate hot-loop regions.
    pub fn prepare(module: &Module) -> Result<Self, VerifyError> {
        let (base, bases) = crate::prepared::prepare_full(module)?;
        let mut regions: Vec<LoopRegion> = Vec::new();
        for (f, &fbase) in module.functions.iter().zip(&bases) {
            regions.extend(detect_function_regions(&f.code, f.n_locals, fbase));
        }
        regions.truncate(NO_REGION as usize - 1);
        regions.sort_by_key(|r| r.head_flat);
        let mut region_at = vec![NO_REGION; base.code.len()];
        for (i, r) in regions.iter().enumerate() {
            region_at[r.head_flat as usize] = i as u16;
        }
        Ok(Tier2Module {
            base,
            regions,
            region_at,
        })
    }

    /// Admit a transferred blob: integrity check, parse, verify, prepare,
    /// translate.
    pub fn from_blob(blob: &ModuleBlob) -> Result<Self, PrepareError> {
        if !blob.integrity_ok() {
            return Err(PrepareError::Integrity);
        }
        let module = Module::from_blob(blob).map_err(PrepareError::Blob)?;
        Self::prepare(&module).map_err(PrepareError::Verify)
    }

    /// Hot-loop regions successfully translated to register form.
    pub fn regions_translated(&self) -> usize {
        self.regions.len()
    }

    /// The underlying prepared module.
    pub fn base(&self) -> &PreparedModule {
        &self.base
    }

    /// Demote to the plain Prepared tier (used by auto-admission when no
    /// region translated — the probe would be pure overhead).
    pub fn into_prepared(self) -> PreparedModule {
        self.base
    }

    /// Execute in `ctx`, leaving outputs in the context's reusable
    /// buffers; the tier-2 twin of [`PreparedModule::run`].
    pub fn run(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> Result<ExecStats, TvmError> {
        if inputs.len() != self.base.n_inputs() as usize {
            return Err(TvmError::BadArity {
                expected: self.base.n_inputs(),
                got: inputs.len(),
            });
        }
        ctx.bind(
            self.base.entry_locals as usize,
            self.base.n_outputs() as usize,
        );
        run_vm::<true>(&self.base, Some(self), inputs, policy, ctx)
    }

    /// Execute and return owned outputs, mirroring
    /// [`PreparedModule::execute`]'s signature.
    pub fn execute(
        &self,
        inputs: &[&[f64]],
        policy: &SandboxPolicy,
        ctx: &mut ExecContext,
    ) -> Result<(Vec<Vec<f64>>, ExecStats), TvmError> {
        let stats = self.run(inputs, policy, ctx)?;
        Ok((ctx.outputs().to_vec(), stats))
    }
}

/// Mutable interpreter state handed to a region run.
struct VmState {
    pc: usize,
    sp: usize,
    max_sp: usize,
    instr: u64,
    out_cells: usize,
}

/// The shared dispatch core. Exact legacy semantics: one source
/// instruction per dispatched op, budget check first, then the op's own
/// checks in the legacy interpreter's order. With `TIER2` set, every
/// dispatch first probes the region table; a hit runs whole loop
/// iterations in register form.
pub(crate) fn run_vm<const TIER2: bool>(
    prepared: &PreparedModule,
    t2: Option<&Tier2Module>,
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

    let (regions, region_at): (&[LoopRegion], &[u16]) = match t2 {
        Some(m) => (&m.regions, &m.region_at),
        None => (&[], &[]),
    };

    let mut pc = 0usize;
    let mut sp = 0usize;
    let mut max_sp = 0usize;
    let mut instr = 0u64;
    // Current frame's locals window is [lb, lt).
    let mut lb = 0usize;
    let mut lt = prepared.entry_locals as usize;
    let mut out_cells = 0usize;

    // Write `v` at `sp` after the overflow check, growing the backing
    // buffer only the first time a depth is reached.
    macro_rules! pushv {
        ($v:expr) => {{
            if sp >= max_stack {
                return Err(TvmError::StackOverflow);
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
                return Err(TvmError::StackUnderflow);
            }
        }};
    }
    loop {
        if TIER2 {
            let ri = region_at[pc];
            if ri != NO_REGION {
                let region = &regions[ri as usize];
                let nl = region.n_locals as usize;
                let mut st = VmState {
                    pc,
                    sp,
                    max_sp,
                    instr,
                    out_cells,
                };
                let entered = region.run(
                    inputs,
                    policy,
                    stack,
                    &mut locals[lb..lb + nl],
                    outputs,
                    regs,
                    &mut st,
                    fallbacks,
                )?;
                pc = st.pc;
                sp = st.sp;
                max_sp = st.max_sp;
                instr = st.instr;
                out_cells = st.out_cells;
                if entered {
                    // Resumed at an exit target, or back at the head after
                    // a fallback (where the re-probe fails fast and the
                    // precise path below takes over).
                    continue;
                }
                // Preconditions refused entry: execute the head op (and
                // everything after it) in precise stack form.
            }
        }
        // Every dispatched op retires exactly one source instruction, and
        // the legacy interpreter checks the budget before each.
        if instr >= max_instr {
            return Err(TvmError::BudgetExceeded);
        }
        instr += 1;
        // pc is always in range: the verifier guarantees every function
        // ends in a terminator and all jump targets are mapped.
        let op = code[pc];
        pc += 1;
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
                    return Err(TvmError::CallDepthExceeded);
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
                None => break,
            },
            PInst::Halt => break,
            PInst::InLen(p) => pushv!(inputs[p as usize].len() as f64),
            PInst::InGet(p) => {
                underflow!(1);
                let idx = stack[sp - 1];
                let port = inputs[p as usize];
                match to_index(idx, port.len()) {
                    Some(i) => stack[sp - 1] = port[i],
                    None => {
                        return Err(TvmError::IndexOutOfBounds {
                            port: p,
                            index: idx,
                        })
                    }
                }
            }
            PInst::OutPush(p) => {
                underflow!(1);
                sp -= 1;
                let v = stack[sp];
                if out_cells >= policy.max_output_cells {
                    return Err(TvmError::OutputLimitExceeded);
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
                    None => {
                        return Err(TvmError::IndexOutOfBounds {
                            port: p,
                            index: idx,
                        })
                    }
                };
                if i >= out.len() {
                    let grow = i + 1 - out.len();
                    if out_cells + grow > policy.max_output_cells {
                        return Err(TvmError::OutputLimitExceeded);
                    }
                    out_cells += grow;
                    out.resize(i + 1, 0.0);
                }
                out[i] = v;
            }
            PInst::OutLen(p) => pushv!(outputs[p as usize].len() as f64),
            PInst::HostIo => {
                if !policy.allow_host_io {
                    return Err(TvmError::HostIoDenied);
                }
                underflow!(1);
                stack[sp - 1] = 0.0; // simulated syscall result
            }
        }
    }

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

fn to_raw_index(x: f64) -> Option<usize> {
    if !x.is_finite() || x < 0.0 || x > (1u64 << 52) as f64 {
        return None;
    }
    Some(x as usize)
}

impl LoopRegion {
    /// Run whole iterations in register form. Returns `Ok(false)` when the
    /// entry preconditions refuse the first iteration (state untouched —
    /// the caller steps precisely), `Ok(true)` after an exit or a
    /// mid-flight fallback (state synced; `st.pc` names the resume point),
    /// and `Err` for data-dependent faults, which discard stats exactly as
    /// the stack tiers do.
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
        // one does not; the precise fallback path handles those at legacy
        // fidelity. The stack test is iteration-invariant (sp only moves at
        // exits) and the budget admits exactly `budget_iters` full
        // iterations, so the per-iteration precondition collapses to one
        // counter compare — `st.instr` is charged in bulk on whichever path
        // leaves the loop, identical to per-iteration accrual.
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
        // Counted loops open with a fused exit test; running it outside
        // the dispatch loop saves one dispatch per iteration. Semantics
        // are those of the `BinExit` arm below, verbatim.
        let (head, body) = match self.ops.split_first() {
            Some((
                &RegOp::BinExit {
                    op,
                    a,
                    b,
                    exit_if_zero,
                    exit,
                },
                rest,
            )) => (Some((op, a, b, exit_if_zero, exit)), rest),
            _ => (None, &self.ops[..]),
        };
        // Likewise every region closes with its back-edge; running it
        // inline after the body leaves only the interior ops on the
        // dispatch loop. Semantics of the `Back`/`BinBack` arms, verbatim.
        let (tail, body) = match body.split_last() {
            Some((&RegOp::Back { cond, fall_exit }, rest)) => (Some((None, cond, fall_exit)), rest),
            Some((
                &RegOp::BinBack {
                    op,
                    dst,
                    a,
                    b,
                    cond,
                    fall_exit,
                },
                rest,
            )) => (Some((Some((op, dst, a, b)), cond, fall_exit)), rest),
            _ => (None, body),
        };
        'iter: loop {
            if iters == budget_iters {
                // The budget refuses the next full iteration mid-flight.
                st.instr += iters * self.full_cost;
                *fallbacks += 1;
                if st.sp + self.peak_full > st.max_sp {
                    st.max_sp = st.sp + self.peak_full;
                }
                locals.copy_from_slice(&regs[..nl]);
                return Ok(true);
            }
            if let Some((op, a, b, exit_if_zero, exit)) = head {
                let v = op.eval(regs[a as usize], regs[b as usize]);
                if (v == 0.0) == exit_if_zero {
                    return self.take_exit(exit, iters, stack, locals, regs, st);
                }
            }
            for op in body {
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
                        let lc = if c == SELF_OPERAND {
                            t
                        } else {
                            regs[c as usize]
                        };
                        let rd = if d == SELF_OPERAND {
                            t
                        } else {
                            regs[d as usize]
                        };
                        regs[dst as usize] = op2.eval(lc, rd);
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
                        let x = regs[idx as usize];
                        let data = inputs[port as usize];
                        match to_index(x, data.len()) {
                            Some(i) => regs[dst as usize] = data[i],
                            None => return Err(TvmError::IndexOutOfBounds { port, index: x }),
                        }
                    }
                    RegOp::OutPush { port, src } => {
                        if st.out_cells >= policy.max_output_cells {
                            return Err(TvmError::OutputLimitExceeded);
                        }
                        st.out_cells += 1;
                        outputs[port as usize].push(regs[src as usize]);
                    }
                    RegOp::OutSet { port, idx, val } => {
                        let x = regs[idx as usize];
                        let i = match to_raw_index(x) {
                            Some(i) => i,
                            None => return Err(TvmError::IndexOutOfBounds { port, index: x }),
                        };
                        let out = &mut outputs[port as usize];
                        if i >= out.len() {
                            let grow = i + 1 - out.len();
                            if st.out_cells + grow > policy.max_output_cells {
                                return Err(TvmError::OutputLimitExceeded);
                            }
                            st.out_cells += grow;
                            out.resize(i + 1, 0.0);
                        }
                        out[i] = regs[val as usize];
                    }
                    RegOp::HostIo { dst } => {
                        if !policy.allow_host_io {
                            return Err(TvmError::HostIoDenied);
                        }
                        regs[dst as usize] = 0.0; // simulated syscall result
                    }
                    RegOp::BinExit {
                        op,
                        a,
                        b,
                        exit_if_zero,
                        exit,
                    } => {
                        let v = op.eval(regs[a as usize], regs[b as usize]);
                        if (v == 0.0) == exit_if_zero {
                            return self.take_exit(exit, iters, stack, locals, regs, st);
                        }
                    }
                    RegOp::CondExit {
                        cond,
                        exit_if_zero,
                        exit,
                    } => {
                        if (regs[cond as usize] == 0.0) == exit_if_zero {
                            return self.take_exit(exit, iters, stack, locals, regs, st);
                        }
                    }
                    RegOp::Back { cond, fall_exit } => {
                        let take = match cond {
                            CondBack::Always => true,
                            CondBack::IfZero(r) => regs[r as usize] == 0.0,
                            CondBack::IfNonZero(r) => regs[r as usize] != 0.0,
                        };
                        if take {
                            iters += 1;
                            continue 'iter;
                        }
                        // The fall-through exit's cost equals `full_cost`,
                        // charged inside take_exit.
                        return self.take_exit(fall_exit, iters, stack, locals, regs, st);
                    }
                    RegOp::In2 {
                        dst1,
                        port1,
                        dst2,
                        port2,
                        idx,
                    } => {
                        let x = regs[idx as usize];
                        let d1 = inputs[port1 as usize];
                        let v1 = match to_index(x, d1.len()) {
                            Some(i) => d1[i],
                            None => {
                                return Err(TvmError::IndexOutOfBounds {
                                    port: port1,
                                    index: x,
                                })
                            }
                        };
                        let d2 = inputs[port2 as usize];
                        let v2 = match to_index(x, d2.len()) {
                            Some(i) => d2[i],
                            None => {
                                return Err(TvmError::IndexOutOfBounds {
                                    port: port2,
                                    index: x,
                                })
                            }
                        };
                        regs[dst1 as usize] = v1;
                        regs[dst2 as usize] = v2;
                    }
                    RegOp::In2Bin2 {
                        port1,
                        port2,
                        idx,
                        op1,
                        op2,
                        c,
                        d,
                        dst,
                    } => {
                        let x = regs[idx as usize];
                        let d1 = inputs[port1 as usize];
                        let v1 = match to_index(x, d1.len()) {
                            Some(i) => d1[i],
                            None => {
                                return Err(TvmError::IndexOutOfBounds {
                                    port: port1,
                                    index: x,
                                })
                            }
                        };
                        let d2 = inputs[port2 as usize];
                        let v2 = match to_index(x, d2.len()) {
                            Some(i) => d2[i],
                            None => {
                                return Err(TvmError::IndexOutOfBounds {
                                    port: port2,
                                    index: x,
                                })
                            }
                        };
                        let t = op1.eval(v1, v2);
                        let lc = if c == SELF_OPERAND {
                            t
                        } else {
                            regs[c as usize]
                        };
                        let rd = if d == SELF_OPERAND {
                            t
                        } else {
                            regs[d as usize]
                        };
                        regs[dst as usize] = op2.eval(lc, rd);
                    }
                    RegOp::Bin3 {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        op3,
                        e,
                        f,
                        dst,
                    } => {
                        let t = op1.eval(regs[a as usize], regs[b as usize]);
                        let lc = if c == SELF_OPERAND {
                            t
                        } else {
                            regs[c as usize]
                        };
                        let rd = if d == SELF_OPERAND {
                            t
                        } else {
                            regs[d as usize]
                        };
                        let u = op2.eval(lc, rd);
                        let le = if e == SELF_OPERAND {
                            u
                        } else {
                            regs[e as usize]
                        };
                        let rf = if f == SELF_OPERAND {
                            u
                        } else {
                            regs[f as usize]
                        };
                        regs[dst as usize] = op3.eval(le, rf);
                    }
                    RegOp::InGetBin3 {
                        port,
                        idx,
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        op3,
                        e,
                        f,
                        dst,
                    } => {
                        let x = regs[idx as usize];
                        let data = inputs[port as usize];
                        let v = match to_index(x, data.len()) {
                            Some(i) => data[i],
                            None => return Err(TvmError::IndexOutOfBounds { port, index: x }),
                        };
                        let rd = |r: u16, prev: f64| match r {
                            SELF_OPERAND => prev,
                            GET_OPERAND => v,
                            _ => regs[r as usize],
                        };
                        let t = op1.eval(rd(a, 0.0), rd(b, 0.0));
                        let u = op2.eval(rd(c, t), rd(d, t));
                        let res = op3.eval(rd(e, u), rd(f, u));
                        regs[dst as usize] = res;
                    }
                    RegOp::BinPush { op, a, b, port } => {
                        let v = op.eval(regs[a as usize], regs[b as usize]);
                        if st.out_cells >= policy.max_output_cells {
                            return Err(TvmError::OutputLimitExceeded);
                        }
                        st.out_cells += 1;
                        outputs[port as usize].push(v);
                    }
                    RegOp::Bin2Push {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        port,
                    } => {
                        let t = op1.eval(regs[a as usize], regs[b as usize]);
                        let lc = if c == SELF_OPERAND {
                            t
                        } else {
                            regs[c as usize]
                        };
                        let rd = if d == SELF_OPERAND {
                            t
                        } else {
                            regs[d as usize]
                        };
                        let v = op2.eval(lc, rd);
                        if st.out_cells >= policy.max_output_cells {
                            return Err(TvmError::OutputLimitExceeded);
                        }
                        st.out_cells += 1;
                        outputs[port as usize].push(v);
                    }
                    RegOp::BinBack {
                        op,
                        dst,
                        a,
                        b,
                        cond,
                        fall_exit,
                    } => {
                        let v = op.eval(regs[a as usize], regs[b as usize]);
                        regs[dst as usize] = v;
                        let take = match cond {
                            CondBack::Always => true,
                            CondBack::IfZero(r) => regs[r as usize] == 0.0,
                            CondBack::IfNonZero(r) => regs[r as usize] != 0.0,
                        };
                        if take {
                            iters += 1;
                            continue 'iter;
                        }
                        return self.take_exit(fall_exit, iters, stack, locals, regs, st);
                    }
                }
            }
            match tail {
                Some((bin, cond, fall_exit)) => {
                    if let Some((op, dst, a, b)) = bin {
                        regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
                    }
                    let take = match cond {
                        CondBack::Always => true,
                        CondBack::IfZero(r) => regs[r as usize] == 0.0,
                        CondBack::IfNonZero(r) => regs[r as usize] != 0.0,
                    };
                    if take {
                        iters += 1;
                        continue 'iter;
                    }
                    return self.take_exit(fall_exit, iters, stack, locals, regs, st);
                }
                None => unreachable!("translated region body must terminate with Back"),
            }
        }
    }

    /// Leave the region through exit `e`: charge the partial path, restore
    /// the stack high-water mark, materialise the symbolic stack, sync the
    /// locals, and point `st.pc` at the resume target.
    fn take_exit(
        &self,
        e: u16,
        iters: u64,
        stack: &mut Vec<f64>,
        locals: &mut [f64],
        regs: &[f64],
        st: &mut VmState,
    ) -> Result<bool, TvmError> {
        let ex = &self.exits[e as usize];
        st.instr += iters * self.full_cost + ex.cost;
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

/// The stack-to-register translator. The symbolic operand stack holds
/// register ids; pure stack shuffles (push/load/dup/swap/over/pop) emit
/// no code at all, and `store` tries to retarget the producing op's
/// destination straight into the local's register.
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
            && matches!(
                self.ops.last(),
                Some(
                    RegOp::Mov { dst, .. }
                        | RegOp::Bin { dst, .. }
                        | RegOp::Bin2 { dst, .. }
                        | RegOp::Un { dst, .. }
                        | RegOp::InLen { dst, .. }
                        | RegOp::OutLen { dst, .. }
                        | RegOp::InGet { dst, .. }
                        | RegOp::HostIo { dst }
                ) if *dst == top
            );
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
            match self.ops.last_mut() {
                Some(
                    RegOp::Mov { dst, .. }
                    | RegOp::Bin { dst, .. }
                    | RegOp::Bin2 { dst, .. }
                    | RegOp::Un { dst, .. }
                    | RegOp::InLen { dst, .. }
                    | RegOp::OutLen { dst, .. }
                    | RegOp::InGet { dst, .. }
                    | RegOp::HostIo { dst },
                ) => *dst = i,
                _ => unreachable!("can_patch checked the producer shape"),
            }
        } else if top != i {
            self.ops.push(RegOp::Mov { dst: i, src: top });
        }
        // `top == i` without a patch is a no-op: a surviving `i` on the
        // symbolic stack means the local is unchanged since its load.
        Some(())
    }

    /// A binop, fusing with an immediately preceding `Bin` whose dead
    /// temporary feeds this one.
    fn bin(&mut self, op: BinOp) -> Option<()> {
        let rb = self.pop()?;
        let ra = self.pop()?;
        if let Some(&RegOp::Bin {
            op: op1,
            dst: prev,
            a,
            b,
        }) = self.ops.last()
        {
            if (ra == prev || rb == prev) && self.can_absorb(prev) {
                let dst = self.temp()?;
                let c = if ra == prev { SELF_OPERAND } else { ra };
                let d = if rb == prev { SELF_OPERAND } else { rb };
                *self.ops.last_mut().unwrap() = RegOp::Bin2 {
                    op1,
                    a,
                    b,
                    op2: op,
                    c,
                    d,
                    dst,
                };
                self.push_flat(dst);
                return Some(());
            }
        }
        let dst = self.temp()?;
        self.ops.push(RegOp::Bin {
            op,
            dst,
            a: ra,
            b: rb,
        });
        self.push_flat(dst);
        Some(())
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
        RegOp::Bin { a, b, .. } | RegOp::BinPush { a, b, .. } => a == r || b == r,
        RegOp::Bin2 { a, b, c, d, .. } | RegOp::Bin2Push { a, b, c, d, .. } => {
            a == r || b == r || c == r || d == r
        }
        RegOp::Bin3 {
            a, b, c, d, e, f, ..
        } => a == r || b == r || c == r || d == r || e == r || f == r,
        RegOp::InGetBin3 {
            idx,
            a,
            b,
            c,
            d,
            e,
            f,
            ..
        } => idx == r || a == r || b == r || c == r || d == r || e == r || f == r,
        RegOp::Un { src, .. } => src == r,
        RegOp::InLen { .. } | RegOp::OutLen { .. } | RegOp::HostIo { .. } => false,
        RegOp::InGet { idx, .. } | RegOp::In2 { idx, .. } => idx == r,
        RegOp::In2Bin2 { idx, c, d, .. } => idx == r || c == r || d == r,
        RegOp::OutPush { src, .. } => src == r,
        RegOp::OutSet { idx, val, .. } => idx == r || val == r,
        RegOp::BinExit { a, b, .. } => a == r || b == r,
        RegOp::CondExit { cond, .. } => cond == r,
        RegOp::Back { ref cond, .. } => back_reads(cond),
        RegOp::BinBack { a, b, ref cond, .. } => a == r || b == r || back_reads(cond),
    }
}

/// Peephole combiner: fuse adjacent op pairs whose link register is a
/// dead single-assignment temporary into superinstructions, repeating
/// until a pass makes no change. Every fused op performs its constituent
/// checks in the original order, and fusion never crosses an exit-capable
/// op, so outputs, metering, and the error taxonomy are untouched — only
/// dispatch count drops. `is_temp` must exclude local mirrors and pool
/// constants; a temp is dead when no later op reads it and no exit
/// snapshot pushes it.
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
                (
                    Some(RegOp::InGet {
                        dst: dst1,
                        port: port1,
                        idx,
                    }),
                    RegOp::InGet {
                        dst: dst2,
                        port: port2,
                        idx: idx2,
                    },
                ) if idx == idx2 && dst1 != idx => Some(RegOp::In2 {
                    dst1,
                    port1,
                    dst2,
                    port2,
                    idx,
                }),
                (
                    Some(RegOp::In2 {
                        dst1,
                        port1,
                        dst2,
                        port2,
                        idx,
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
                ) if a == dst1
                    && b == dst2
                    && c != dst1
                    && c != dst2
                    && d != dst1
                    && d != dst2
                    && dead(dst1)
                    && dead(dst2) =>
                {
                    Some(RegOp::In2Bin2 {
                        port1,
                        port2,
                        idx,
                        op1,
                        op2,
                        c,
                        d,
                        dst,
                    })
                }
                (
                    Some(RegOp::Bin2 {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        dst: t,
                    }),
                    RegOp::Bin {
                        op: op3,
                        dst,
                        a: ra,
                        b: rb,
                    },
                ) if (ra == t || rb == t) && dead(t) => Some(RegOp::Bin3 {
                    op1,
                    a,
                    b,
                    op2,
                    c,
                    d,
                    op3,
                    e: if ra == t { SELF_OPERAND } else { ra },
                    f: if rb == t { SELF_OPERAND } else { rb },
                    dst,
                }),
                (
                    Some(RegOp::InGet { dst: g, port, idx }),
                    RegOp::Bin3 {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        op3,
                        e,
                        f,
                        dst,
                    },
                ) if g != idx && dead(g) => {
                    let m = |r: u16| if r == g { GET_OPERAND } else { r };
                    Some(RegOp::InGetBin3 {
                        port,
                        idx,
                        op1,
                        a: m(a),
                        b: m(b),
                        op2,
                        c: m(c),
                        d: m(d),
                        op3,
                        e: m(e),
                        f: m(f),
                        dst,
                    })
                }
                (
                    Some(RegOp::Bin2 {
                        op1,
                        a,
                        b,
                        op2,
                        c,
                        d,
                        dst: t,
                    }),
                    RegOp::OutPush { port, src },
                ) if src == t && dead(t) => Some(RegOp::Bin2Push {
                    op1,
                    a,
                    b,
                    op2,
                    c,
                    d,
                    port,
                }),
                (Some(RegOp::Bin { op, dst: t, a, b }), RegOp::OutPush { port, src })
                    if src == t && dead(t) =>
                {
                    Some(RegOp::BinPush { op, a, b, port })
                }
                (Some(RegOp::Bin { op, dst, a, b }), RegOp::Back { cond, fall_exit }) => {
                    Some(RegOp::BinBack {
                        op,
                        dst,
                        a,
                        b,
                        cond,
                        fall_exit,
                    })
                }
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
            // A comparison feeding the back-edge or a forward exit is
            // handled by the branch translation below via `Bin` fusion.
            t.bin(bin)?;
            continue;
        }
        if let Some(un) = UnOp::of(op) {
            let src = t.pop()?;
            let dst = t.temp()?;
            t.ops.push(RegOp::Un { op: un, dst, src });
            t.push_flat(dst);
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
            Op::InLen(p) => {
                let dst = t.temp()?;
                t.ops.push(RegOp::InLen { dst, port: p });
                t.push_grow(dst);
            }
            Op::OutLen(p) => {
                let dst = t.temp()?;
                t.ops.push(RegOp::OutLen { dst, port: p });
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
                    if let Some(&RegOp::Bin {
                        op: bop,
                        dst,
                        a,
                        b: rb,
                    }) = t.ops.last()
                    {
                        if dst == cond && t.can_absorb(cond) {
                            *t.ops.last_mut().unwrap() = RegOp::BinExit {
                                op: bop,
                                a,
                                b: rb,
                                exit_if_zero: on_zero,
                                exit,
                            };
                            continue;
                        }
                    }
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
    let ops = std::mem::take(&mut t.ops);
    let ops = peephole(ops, &t.exits, &|r| t.is_temp(r));
    Some(LoopRegion {
        head_flat: flat_of(h),
        n_locals,
        n_regs: t.next_reg,
        consts: t.consts,
        ops,
        full_cost,
        peak_full: t.peak,
        exits: t.exits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Function;
    use crate::{execute, Module};
    use Op::*;

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

    /// The doubler loop: `out[i] = 2 * in[i]` — the canonical hot loop.
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
        let t2 = Tier2Module::prepare(m).expect("verifies");
        let mut ctx = ExecContext::new();
        // Twice, to cover context reuse.
        for round in 0..2 {
            let fast = t2.execute(inputs, policy, &mut ctx);
            assert_eq!(legacy, fast, "round {round}");
        }
    }

    #[test]
    fn doubler_loop_translates_to_one_region() {
        let t2 = Tier2Module::prepare(&doubler()).unwrap();
        assert_eq!(t2.regions_translated(), 1);
        let r = &t2.regions[0];
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
        let t2 = Tier2Module::prepare(&doubler()).unwrap();
        let mut ctx = ExecContext::new();
        // Pre-loop costs 4 instructions, each iteration 14: a budget of 20
        // admits exactly one register-form iteration, then falls back.
        let policy = SandboxPolicy {
            max_instructions: 20,
            ..SandboxPolicy::standard()
        };
        let err = t2.execute(&[&input], &policy, &mut ctx).unwrap_err();
        assert_eq!(err, TvmError::BudgetExceeded);
        assert_eq!(ctx.tier2_fallbacks(), 1);
        // A comfortable budget never falls back, and the counter resets.
        t2.execute(&[&input], &SandboxPolicy::standard(), &mut ctx)
            .unwrap();
        assert_eq!(ctx.tier2_fallbacks(), 0);
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
        let t2 = Tier2Module::prepare(&m).unwrap();
        assert_eq!(t2.regions_translated(), 1);
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
        let t2 = Tier2Module::prepare(&m).unwrap();
        assert_eq!(t2.regions_translated(), 0);
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
        // the budget small so both tiers trip it identically.
        let t2 = Tier2Module::prepare(&m).unwrap();
        assert_eq!(t2.regions_translated(), 0);
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
        let t2 = Tier2Module::prepare(&m).unwrap();
        assert_eq!(t2.regions_translated(), 1);
        let mut ctx = ExecContext::new();
        let (out, _) = t2
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

    #[test]
    #[ignore]
    fn dump_kernel_regions() {
        let e03 = ".module SphKernel 1 1 1\n.func main 2\n inlen 0\n store 0\n \
                   push 0\n store 1\nloop:\n load 1\n load 0\n lt\n jz end\n \
                   load 1\n inget 0\n dup\n mul\n push 1\n swap\n sub\n push 0\n \
                   max\n dup\n dup\n mul\n mul\n outpush 0\n load 1\n push 1\n \
                   add\n store 1\n jmp loop\nend:\n halt\n";
        let e04 = ".module MatchedFilter 1 2 1\n.func main 3\n inlen 0\n \
                   store 0\n push 0\n store 1\n push 0\n store 2\nloop:\n \
                   load 1\n load 0\n lt\n jz end\n load 1\n inget 0\n load 1\n \
                   inget 1\n mul\n load 2\n add\n store 2\n load 1\n push 1\n \
                   add\n store 1\n jmp loop\nend:\n load 2\n outpush 0\n halt\n";
        for (name, src) in [("e03", e03), ("e04", e04)] {
            let m = assemble(src).unwrap();
            let t2 = Tier2Module::prepare(&m).unwrap();
            println!("=== {name}: {} regions", t2.regions.len());
            for r in &t2.regions {
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
