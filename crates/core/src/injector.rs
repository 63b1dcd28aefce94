//! The injector runtime: arms on VMI process creation, instruments
//! targeted instructions at translation time, and fires corruptions at the
//! spliced callbacks.

use crate::spec::{Corruption, InjectionSpec, OperandSel, Trigger};
use chaser_isa::{FReg, Instruction, Reg};
use chaser_taint::{ProvSet, TaintMask};
use chaser_vm::{
    ExitStatus, FnHookSink, GuestCtx, InjectAction, InjectCountdown, InjectSink, NodeTranslateHook,
    VmiAction, VmiSink,
};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A register operand of a guest instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandLoc {
    /// A general-purpose register.
    Reg(Reg),
    /// A floating-point register.
    FReg(FReg),
}

impl std::fmt::Display for OperandLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperandLoc::Reg(r) => write!(f, "{r}"),
            OperandLoc::FReg(r) => write!(f, "{r}"),
        }
    }
}

/// Register *operands* of `insn`: the registers the instruction actually
/// reads (read-modify-write destinations included, write-only destinations
/// excluded).
///
/// Corrupting a write-only destination *before* the instruction executes
/// would be masked by the instruction's own write — the fault would never
/// exist architecturally. The paper injects "into the operands" of the
/// targeted instruction, i.e. the consumed values, which is what this
/// models: for a load that includes the base (pointer) register, for an
/// `fadd` both FP inputs, and so on.
pub fn operand_candidates(insn: &Instruction) -> Vec<OperandLoc> {
    use chaser_isa::Reg as R;
    use Instruction as I;
    use OperandLoc as O;
    match *insn {
        I::MovRR { src, .. } => vec![O::Reg(src)],
        I::MovRI { .. } => vec![],
        I::Ld { base, .. } => vec![O::Reg(base)],
        I::St { src, base, .. } => vec![O::Reg(src), O::Reg(base)],
        I::LdIdx { base, idx, .. } => vec![O::Reg(base), O::Reg(idx)],
        I::StIdx { src, base, idx } => vec![O::Reg(src), O::Reg(base), O::Reg(idx)],
        I::Push { src } => vec![O::Reg(src), O::Reg(R::SP)],
        I::Pop { .. } => vec![O::Reg(R::SP)],
        I::Add { dst, src }
        | I::Sub { dst, src }
        | I::Mul { dst, src }
        | I::Divs { dst, src }
        | I::Divu { dst, src }
        | I::Rem { dst, src }
        | I::And { dst, src }
        | I::Or { dst, src }
        | I::Xor { dst, src }
        | I::Shl { dst, src }
        | I::Shr { dst, src }
        | I::Sar { dst, src } => vec![O::Reg(dst), O::Reg(src)],
        I::AddI { dst, .. }
        | I::SubI { dst, .. }
        | I::MulI { dst, .. }
        | I::AndI { dst, .. }
        | I::OrI { dst, .. }
        | I::XorI { dst, .. }
        | I::ShlI { dst, .. }
        | I::ShrI { dst, .. }
        | I::SarI { dst, .. }
        | I::Neg { dst }
        | I::Not { dst } => vec![O::Reg(dst)],
        I::Cmp { a, b } => vec![O::Reg(a), O::Reg(b)],
        I::CmpI { a, .. } => vec![O::Reg(a)],
        I::CallR { target } => vec![O::Reg(target)],
        I::FMov { src, .. } => vec![O::FReg(src)],
        I::FMovI { .. } => vec![],
        I::FLd { base, .. } => vec![O::Reg(base)],
        I::FSt { src, base, .. } => vec![O::FReg(src), O::Reg(base)],
        I::FLdIdx { base, idx, .. } => vec![O::Reg(base), O::Reg(idx)],
        I::FStIdx { src, base, idx } => vec![O::FReg(src), O::Reg(base), O::Reg(idx)],
        I::Fadd { dst, src }
        | I::Fsub { dst, src }
        | I::Fmul { dst, src }
        | I::Fdiv { dst, src }
        | I::Fmin { dst, src }
        | I::Fmax { dst, src } => vec![O::FReg(dst), O::FReg(src)],
        I::Fsqrt { dst } | I::Fabs { dst } | I::Fneg { dst } => vec![O::FReg(dst)],
        I::Fcmp { a, b } => vec![O::FReg(a), O::FReg(b)],
        I::CvtIF { src, .. } => vec![O::Reg(src)],
        I::CvtFI { src, .. } => vec![O::FReg(src)],
        I::MovFR { src, .. } => vec![O::FReg(src)],
        I::MovRF { src, .. } => vec![O::Reg(src)],
        I::Nop
        | I::Halt
        | I::Jmp { .. }
        | I::Jcc { .. }
        | I::Call { .. }
        | I::Ret
        | I::Hypercall { .. } => vec![],
    }
}

/// The effective guest address `insn` is about to access, or `None` for
/// instructions that do not touch data memory. Used by the
/// `CORRUPT_MEMORY` injection path ([`crate::OperandSel::Memory`]).
pub fn effective_address(insn: &Instruction, cpu: &chaser_isa::CpuState) -> Option<u64> {
    use Instruction as I;
    let idx_addr = |base: Reg, idx: Reg| cpu.reg(base).wrapping_add(cpu.reg(idx).wrapping_mul(8));
    let off_addr = |base: Reg, off: i32| cpu.reg(base).wrapping_add(off as i64 as u64);
    match *insn {
        I::Ld { base, off, .. } | I::St { base, off, .. } => Some(off_addr(base, off)),
        I::FLd { base, off, .. } | I::FSt { base, off, .. } => Some(off_addr(base, off)),
        I::LdIdx { base, idx, .. } | I::StIdx { base, idx, .. } => Some(idx_addr(base, idx)),
        I::FLdIdx { base, idx, .. } | I::FStIdx { base, idx, .. } => Some(idx_addr(base, idx)),
        I::Push { .. } => Some(cpu.sp().wrapping_sub(8)),
        I::Pop { .. } | I::Ret => Some(cpu.sp()),
        _ => None,
    }
}

/// A record of one placed fault — what the campaign logs per injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Node the fault landed on.
    pub node: u32,
    /// Victim process.
    pub pid: u64,
    /// Address of the targeted instruction.
    pub pc: u64,
    /// Disassembly of the targeted instruction.
    pub insn: String,
    /// The corrupted operand.
    pub operand: String,
    /// Operand bits before corruption.
    pub old_bits: u64,
    /// Operand bits after corruption.
    pub new_bits: u64,
    /// Bits marked as the taint source.
    pub taint_mask: u64,
    /// Victim's retired-instruction count at injection.
    pub icount: u64,
    /// How many targeted-class instructions had executed (the trigger
    /// counter).
    pub exec_count: u64,
}

#[derive(Debug)]
struct InjState {
    seen_creations: u32,
    /// Executions counted so far, the ones the engine's countdown has yet
    /// to reach included ([`Injector::exec_count`] settles them).
    exec_count: u64,
    rng: SmallRng,
    records: Vec<InjectionRecord>,
}

/// The fault injector: implements the VMI creation callback
/// (`fi_creation_cb`), the translation-time target filter, and the
/// injection callback (`fault_injector` / `DECAF_inject_fault`) of the
/// paper's plugin structure (its Fig. 4).
///
/// What the translation-time filter reads is set once and then only read:
/// the target process is armed at most once, and `done` flips once, when
/// the last allowed fault is placed. Neither takes the state lock.
#[derive(Debug)]
pub struct Injector {
    spec: InjectionSpec,
    /// `(node, pid)` of the target process, from its creation on.
    active: OnceLock<(u32, u64)>,
    /// Every allowed fault is placed: the injector is detached.
    done: AtomicBool,
    /// The engine's trigger countdown, shared with every node the injector
    /// is installed on.
    countdown: Arc<InjectCountdown>,
    state: Mutex<InjState>,
}

impl Injector {
    /// An injector executing `spec`.
    pub fn new(spec: InjectionSpec) -> Arc<Injector> {
        Injector::resuming(spec, 0)
    }

    /// An injector executing `spec` on a run restored from a checkpoint at
    /// which the target rank had already executed `exec_count` instructions
    /// of the targeted class, none of which could fire (see
    /// [`crate::WarmStart`]): the trigger counter carries on from there, so
    /// the fault lands on the same dynamic instruction as in a run from
    /// launch and every reported count matches.
    pub fn resuming(spec: InjectionSpec, exec_count: u64) -> Arc<Injector> {
        let rng = SmallRng::seed_from_u64(spec.seed);
        Arc::new(Injector {
            done: AtomicBool::new(spec.max_injections == 0),
            spec,
            active: OnceLock::new(),
            countdown: Arc::default(),
            state: Mutex::new(InjState {
                seen_creations: 0,
                exec_count,
                rng,
                records: Vec::new(),
            }),
        })
    }

    /// The spec this injector runs.
    pub fn spec(&self) -> &InjectionSpec {
        &self.spec
    }

    /// Injections placed so far.
    pub fn injections_done(&self) -> u64 {
        self.state.lock().records.len() as u64
    }

    /// Executed targeted-class instructions observed so far: the ones
    /// called back for, plus the skipped ones the engine has counted down.
    /// Exact whenever no node is mid-slice.
    pub fn exec_count(&self) -> u64 {
        self.state.lock().exec_count - self.countdown.left()
    }

    /// The records of all placed faults.
    pub fn records(&self) -> Vec<InjectionRecord> {
        self.state.lock().records.clone()
    }

    /// Applies the spec's corruption to `old` using `rng` for randomness.
    fn corrupt(&self, old: u64, rng: &mut SmallRng) -> u64 {
        match &self.spec.corruption {
            Corruption::FlipBits(bits) => {
                let mut v = old;
                for b in bits {
                    v ^= 1u64 << (b & 63);
                }
                v
            }
            Corruption::FlipRandomBits(n) => {
                let mut v = old;
                let mut flipped = 0u64;
                while flipped.count_ones() < (*n).min(64) {
                    let b = rng.gen_range(0..64u32);
                    if flipped & (1 << b) == 0 {
                        flipped |= 1 << b;
                        v ^= 1 << b;
                    }
                }
                v
            }
            Corruption::SetValue(v) => *v,
            Corruption::Identity => old,
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// The taint mask marking `old → new` as the fault. Identity injections
    /// taint the whole operand so tracing can be exercised without
    /// perturbing the computation (the paper's overhead methodology).
    fn fault_mask(&self, old: u64, new: u64) -> TaintMask {
        match &self.spec.corruption {
            Corruption::Identity => TaintMask::ALL,
            _ => TaintMask(old ^ new),
        }
    }

    /// Places one fault at `insn`; `false` when it has nothing to corrupt
    /// (the trigger then slides to the next execution).
    fn inject(&self, insn: &Instruction, ctx: &mut GuestCtx<'_>, st: &mut InjState) -> bool {
        // The fault's provenance id: its ordinal among this injector's
        // placements.
        let prov = ProvSet::single(st.records.len() as u32);
        // The CORRUPT_MEMORY path: hit the word the instruction is about
        // to access, when it has one and the address is mapped.
        let mut placed = None;
        if self.spec.operand == OperandSel::Memory {
            if let Some(addr) = effective_address(insn, ctx.cpu) {
                if let Ok(old) = ctx.read_mem(addr) {
                    let new = self.corrupt(old, &mut st.rng);
                    let mask = self.fault_mask(old, new);
                    if ctx.write_mem(addr, new).is_ok() {
                        let _ = ctx.taint_mem_with_prov(addr, mask, prov);
                        placed = Some((format!("mem[{addr:#x}]"), old, new, mask));
                    }
                }
            }
            // No memory operand (or unmapped): fall through to registers.
        }
        let (operand, old, new, mask) = match placed {
            Some(placed) => placed,
            None => {
                let candidates = operand_candidates(insn);
                if candidates.is_empty() {
                    return false;
                }
                let loc = match self.spec.operand {
                    OperandSel::Dst => candidates[0],
                    OperandSel::Src => *candidates.get(1).unwrap_or(&candidates[0]),
                    OperandSel::Random | OperandSel::Memory => {
                        candidates[st.rng.gen_range(0..candidates.len())]
                    }
                };
                let old = match loc {
                    OperandLoc::Reg(r) => ctx.reg(r),
                    OperandLoc::FReg(r) => ctx.freg_bits(r),
                };
                let new = self.corrupt(old, &mut st.rng);
                // The injected fault is the taint source.
                let mask = self.fault_mask(old, new);
                match loc {
                    OperandLoc::Reg(r) => {
                        ctx.set_reg(r, new);
                        ctx.taint_reg_with_prov(r, mask, prov);
                    }
                    OperandLoc::FReg(r) => {
                        ctx.set_freg_bits(r, new);
                        ctx.taint_freg_with_prov(r, mask, prov);
                    }
                }
                (loc.to_string(), old, new, mask)
            }
        };
        st.records.push(InjectionRecord {
            node: ctx.node,
            pid: ctx.pid,
            pc: ctx.pc,
            insn: insn.to_string(),
            operand,
            old_bits: old,
            new_bits: new,
            taint_mask: mask.0,
            icount: ctx.icount,
            exec_count: st.exec_count,
        });
        if st.records.len() as u64 >= self.spec.max_injections {
            self.done.store(true, Ordering::Relaxed);
        }
        true
    }
}

/// Whether `trigger` fires at the targeted instruction's `count`-th
/// execution.
fn fires(trigger: Trigger, count: u64, rng: &mut SmallRng) -> bool {
    match trigger {
        // ">=" so that a trigger landing on an instruction with no
        // corruptible operand slides to the next targeted one.
        Trigger::AfterN(n) => count >= n,
        Trigger::WithProbability(p) => rng.gen_bool(p.clamp(0.0, 1.0)),
        Trigger::Always => true,
        Trigger::Periodic { start, period } => {
            count >= start && (count - start).is_multiple_of(period.max(1))
        }
    }
}

/// How many executions after the `count`-th cannot fire `trigger`: the
/// countdown the engine runs before the next callback. Exact, so the
/// callback lands on the same executions as one per execution would:
/// `0` wherever the next execution may fire (`AfterN` past its `n`, where
/// a fault that found no operand slides on) and for the random
/// `WithProbability`, which draws once per execution.
fn quiet_after(trigger: Trigger, count: u64) -> u64 {
    let quiet = match trigger {
        Trigger::AfterN(n) => n.saturating_sub(count + 1),
        Trigger::Periodic { start, .. } if count < start => start - count - 1,
        Trigger::Periodic { start, period } => {
            let period = period.max(1);
            period - 1 - (count - start) % period
        }
        Trigger::WithProbability(_) | Trigger::Always => 0,
    };
    // The skipped executions are credited to the count up front.
    quiet.min(u64::MAX - count)
}

impl NodeTranslateHook for Injector {
    fn inject_point(&self, node: u32, pid: u64, _pc: u64, insn: &Instruction) -> Option<u64> {
        if self.is_done() || self.active.get() != Some(&(node, pid)) {
            return None;
        }
        insn.is_in_class(self.spec.class).then_some(0)
    }
}

/// Shared handle wiring one [`Injector`] into a node's mutable sink slots.
#[derive(Debug, Clone)]
pub struct InjectorHandle(pub Arc<Injector>);

impl InjectSink for InjectorHandle {
    fn on_inject_point(
        &mut self,
        _point: u64,
        insn: &Instruction,
        ctx: &mut GuestCtx<'_>,
    ) -> InjectAction {
        let injector = &self.0;
        if injector.is_done() || injector.active.get() != Some(&(ctx.node, ctx.pid)) {
            return InjectAction::default();
        }
        let mut st = injector.state.lock();
        st.exec_count += 1;
        let count = st.exec_count;
        if fires(injector.spec.trigger, count, &mut st.rng) {
            injector.inject(insn, ctx, &mut st);
            if injector.is_done() {
                // fi_clean_cb: the fault is placed — detach the injector by
                // flushing the translation cache so subsequent translations
                // are clean again (the "efficient" design point).
                return InjectAction {
                    flush_tb: true,
                    skip: 0,
                };
            }
        }
        // Arm-and-forget: the executions that cannot fire are counted now
        // and left to the engine's countdown, which `exec_count` settles.
        let skip = quiet_after(injector.spec.trigger, count);
        st.exec_count += skip;
        InjectAction {
            flush_tb: false,
            skip,
        }
    }

    fn countdown(&self) -> Option<Arc<InjectCountdown>> {
        Some(Arc::clone(&self.0.countdown))
    }
}

impl VmiSink for InjectorHandle {
    fn on_process_created(&mut self, node: u32, pid: u64, name: &str) -> VmiAction {
        let injector = &self.0;
        if name != injector.spec.target_program {
            return VmiAction::NONE;
        }
        let mut st = injector.state.lock();
        let idx = st.seen_creations;
        st.seen_creations += 1;
        if idx == injector.spec.target_rank && injector.active.set((node, pid)).is_ok() {
            // Flush so the next translation round carries the injector.
            VmiAction::FLUSH
        } else {
            VmiAction::NONE
        }
    }

    fn on_process_exited(&mut self, _node: u32, _pid: u64, _status: ExitStatus) -> VmiAction {
        VmiAction::NONE
    }
}

// ---- profiling ----

/// Counts per-rank, per-class executions of targeted instructions during a
/// fault-free run. Campaigns use the counts to draw the deterministic
/// trigger's `n` uniformly over the class's dynamic execution count, and the
/// checkpoint ladder annotates each rung with the counts reached so far.
///
/// An instruction counts under *every* listed class it belongs to (classes
/// overlap by design: a `fadd` is in `Fadd`, `FpArith` and `Any`), which is
/// what an [`Injector`] armed for any one of them counts. The rank and the
/// matching classes are resolved once, at translation time, and travel in
/// the inject point id (rank in the high half, a bitmask over the class
/// list in the low half); the per-instruction callback only bumps dense
/// counters.
#[derive(Debug)]
pub struct ProfileHook {
    program: String,
    classes: Vec<chaser_isa::InsnClass>,
    nranks: u32,
    /// `(node, pid)` of each rank seen so far, in creation order.
    procs: Mutex<Vec<(u32, u64)>>,
    /// `counts[rank * classes.len() + class index]`. `Relaxed` throughout:
    /// the counters publish nothing else, each is only ever bumped by the
    /// thread running its rank's node, and they are read at round
    /// boundaries, after the scheduler has taken every node back.
    counts: Vec<AtomicU64>,
}

impl ProfileHook {
    /// Profiles executions of `classes` in the first `nranks` processes
    /// named `program`.
    ///
    /// # Panics
    ///
    /// Panics when `classes` lists more than 32 entries (the inject point id
    /// carries the matching classes as a 32-bit mask).
    pub fn new(
        program: impl Into<String>,
        classes: Vec<chaser_isa::InsnClass>,
        nranks: u32,
    ) -> Arc<ProfileHook> {
        assert!(classes.len() <= 32, "at most 32 profiled classes");
        let slots = nranks as usize * classes.len();
        Arc::new(ProfileHook {
            program: program.into(),
            classes,
            nranks,
            procs: Mutex::new(Vec::new()),
            counts: (0..slots).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// The dynamic execution count of `classes[class_idx]` in `rank`.
    pub fn count(&self, rank: u32, class_idx: usize) -> u64 {
        if rank >= self.nranks || class_idx >= self.classes.len() {
            return 0;
        }
        self.counts[rank as usize * self.classes.len() + class_idx].load(Ordering::Relaxed)
    }

    /// All non-zero `(rank, class index) → count` pairs.
    pub fn counts(&self) -> HashMap<(u32, usize), u64> {
        let ncls = self.classes.len();
        self.counts_dense()
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (((i / ncls) as u32, i % ncls), n))
            .collect()
    }

    /// Every counter, `[rank * classes.len() + class index]`.
    pub fn counts_dense(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl NodeTranslateHook for ProfileHook {
    fn inject_point(&self, node: u32, pid: u64, _pc: u64, insn: &Instruction) -> Option<u64> {
        let rank = self.procs.lock().iter().position(|&p| p == (node, pid))?;
        let mask = self
            .classes
            .iter()
            .enumerate()
            .filter(|(_, c)| insn.is_in_class(**c))
            .fold(0u64, |mask, (i, _)| mask | 1 << i);
        (mask != 0).then_some((rank as u64) << 32 | mask)
    }
}

/// Sink side of [`ProfileHook`].
#[derive(Debug, Clone)]
pub struct ProfileHandle(pub Arc<ProfileHook>);

impl InjectSink for ProfileHandle {
    fn on_inject_point(
        &mut self,
        point: u64,
        _insn: &Instruction,
        _ctx: &mut GuestCtx<'_>,
    ) -> InjectAction {
        let base = (point >> 32) as usize * self.0.classes.len();
        let mut mask = point as u32;
        while mask != 0 {
            let class_idx = mask.trailing_zeros() as usize;
            self.0.counts[base + class_idx].fetch_add(1, Ordering::Relaxed);
            mask &= mask - 1;
        }
        InjectAction::default()
    }
}

impl VmiSink for ProfileHandle {
    fn on_process_created(&mut self, node: u32, pid: u64, name: &str) -> VmiAction {
        let mut procs = self.0.procs.lock();
        if name != self.0.program || procs.len() >= self.0.nranks as usize {
            return VmiAction::NONE;
        }
        procs.push((node, pid));
        VmiAction::FLUSH
    }
}

/// A no-op function-entry logger used to demonstrate (and test) the guest
/// function hooking path Chaser uses to intercept MPI calls.
#[derive(Debug, Default)]
pub struct FnHookLogger {
    /// `(hook id, pc, R1..R6 at entry)` per hit.
    pub hits: Vec<(u64, u64, [u64; 6])>,
}

impl FnHookSink for FnHookLogger {
    fn on_fn_entry(&mut self, hook_id: u64, ctx: &mut GuestCtx<'_>) {
        let args = [
            ctx.reg(Reg::R1),
            ctx.reg(Reg::R2),
            ctx.reg(Reg::R3),
            ctx.reg(Reg::R4),
            ctx.reg(Reg::R5),
            ctx.reg(Reg::R6),
        ];
        self.hits.push((hook_id, ctx.pc, args));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_isa::InsnClass;

    #[test]
    fn operand_candidates_are_read_operands() {
        // fadd reads both its destination (RMW) and its source.
        let insn = Instruction::Fadd {
            dst: FReg::F3,
            src: FReg::F4,
        };
        let ops = operand_candidates(&insn);
        assert_eq!(ops[0], OperandLoc::FReg(FReg::F3));
        assert_eq!(ops[1], OperandLoc::FReg(FReg::F4));
        // A load reads only its base pointer; its destination is
        // write-only, so corrupting it pre-execution would be masked.
        let ld = Instruction::Ld {
            dst: Reg::R1,
            base: Reg::R2,
            off: 0,
        };
        assert_eq!(operand_candidates(&ld), vec![OperandLoc::Reg(Reg::R2)]);
        // A register-immediate mov reads nothing corruptible.
        let movi = Instruction::MovRI {
            dst: Reg::R1,
            imm: 5,
        };
        assert!(operand_candidates(&movi).is_empty());
    }

    #[test]
    fn control_flow_has_no_register_operands() {
        assert!(operand_candidates(&Instruction::Ret).is_empty());
        assert!(operand_candidates(&Instruction::Jmp { target: 0 }).is_empty());
        assert!(operand_candidates(&Instruction::Nop).is_empty());
    }

    /// 40 iterations of two `fadd`s and a handful of integer instructions.
    fn fadd_loop() -> crate::AppSpec {
        use chaser_isa::{Asm, Cond};
        let mut a = Asm::new("fadds");
        a.fmovi(FReg::F0, 0.0).fmovi(FReg::F1, 0.5);
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.fadd(FReg::F0, FReg::F1).fadd(FReg::F0, FReg::F1);
        a.addi(Reg::R1, 1);
        a.cmpi(Reg::R1, 40);
        a.jcc(Cond::Lt, "loop");
        a.exit(0);
        crate::AppSpec::single(a.assemble().expect("assemble"))
    }

    #[test]
    fn overlapping_classes_each_profile_what_their_injector_counts() {
        let app = fadd_loop();
        for classes in [
            [InsnClass::FpArith, InsnClass::Fadd],
            [InsnClass::Any, InsnClass::Mov],
        ] {
            let (_, counts) = crate::profile_app(&app, &classes);
            for (class_idx, class) in classes.into_iter().enumerate() {
                // A trigger that never comes: the injector counts the whole run.
                let spec = InjectionSpec::deterministic("fadds", class, u64::MAX, vec![0]);
                let counted = crate::run_app(&app, &crate::RunOptions::inject(spec));
                assert!(!counted.injected());
                assert_eq!(
                    counts.get(&(0, class_idx)).copied().unwrap_or(0),
                    counted.injector_exec_count,
                    "{class:?} listed at {class_idx} in {classes:?}"
                );
                assert!(counted.injector_exec_count > 0, "{class:?} never executes");
            }
        }
        // The only fp arithmetic is the fadds, so the two classes agree.
        let (_, counts) = crate::profile_app(&app, &[InsnClass::FpArith, InsnClass::Fadd]);
        assert_eq!(counts[&(0, 0)], 80);
        assert_eq!(counts[&(0, 1)], 80);
    }

    /// A trigger landing on a `movi` — in the Mov class, but with no
    /// operand to corrupt — slides to the next Mov, across the engine's
    /// countdown: the first callback arms a countdown to the `n`-th
    /// execution, which finds nothing to corrupt and asks to be called at
    /// the very next one.
    #[test]
    fn a_trigger_on_an_operandless_insn_fires_on_the_next_one() {
        use chaser_isa::{Asm, Cond};
        // Mov-class executions: 1 is the `movi r1`; after it, the loop's
        // `mov` takes the even counts and its `movi r3` the odd ones.
        let mut a = Asm::new("slide");
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.mov(Reg::R2, Reg::R1);
        a.movi(Reg::R3, 7);
        a.addi(Reg::R1, 1);
        a.cmpi(Reg::R1, 40);
        a.jcc(Cond::Lt, "loop");
        a.exit(0);
        let app = crate::AppSpec::single(a.assemble().expect("assemble"));
        let mov = Instruction::MovRR {
            dst: Reg::R2,
            src: Reg::R1,
        };
        for n in 3..=16 {
            let spec = InjectionSpec::deterministic("slide", InsnClass::Mov, n, vec![0]);
            let report = crate::run_app(&app, &crate::RunOptions::inject(spec));
            let fired = n + n % 2;
            let rec = &report.injections[0];
            assert_eq!(rec.exec_count, fired, "AfterN({n})");
            assert_eq!(rec.insn, mov.to_string(), "AfterN({n})");
            assert_eq!(rec.operand, "r1");
            assert_eq!(report.injector_exec_count, fired);
        }
    }

    #[test]
    fn injector_arms_only_for_its_rank() {
        let spec = InjectionSpec::deterministic("app", InsnClass::Fadd, 1, vec![0]).with_rank(1);
        let injector = Injector::new(spec);
        let mut handle = InjectorHandle(Arc::clone(&injector));
        // First creation is rank 0 — not the target.
        assert_eq!(handle.on_process_created(0, 1, "app"), VmiAction::NONE);
        // Wrong name ignored entirely.
        assert_eq!(handle.on_process_created(0, 2, "other"), VmiAction::NONE);
        // Second matching creation is rank 1 — arm and flush.
        assert_eq!(handle.on_process_created(1, 1, "app"), VmiAction::FLUSH);
        let fadd = Instruction::Fadd {
            dst: FReg::F0,
            src: FReg::F1,
        };
        assert_eq!(injector.inject_point(1, 1, 0x400000, &fadd), Some(0));
        assert_eq!(injector.inject_point(0, 1, 0x400000, &fadd), None);
        let mov = Instruction::MovRR {
            dst: Reg::R1,
            src: Reg::R2,
        };
        assert_eq!(injector.inject_point(1, 1, 0x400000, &mov), None);
    }
}
