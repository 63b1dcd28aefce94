//! Engine hook points: fault injection, taint-memory events and guest
//! function hooks.

use crate::mem::{MemFault, PhysMemory};
use crate::paging::AddressSpace;
use chaser_isa::{CpuState, FReg, Instruction, Reg};
use chaser_taint::{ProvSet, TaintMask, TaintState};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, `Send`-clean fault-injection sink.
pub type SharedInjectSink = Arc<Mutex<dyn InjectSink + Send>>;
/// A shared, `Send`-clean tainted-memory event sink.
pub type SharedTaintSink = Arc<Mutex<dyn TaintEventSink + Send>>;
/// A shared, `Send`-clean VMI lifecycle sink.
pub type SharedVmiSink = Arc<Mutex<dyn crate::VmiSink + Send>>;
/// A shared, `Send`-clean guest-function-entry sink.
pub type SharedFnHookSink = Arc<Mutex<dyn FnHookSink + Send>>;
/// A shared translate hook; read-only at translation time, so `Sync`
/// suffices and no lock is paid on the translation path.
pub type SharedTranslateHook = Arc<dyn NodeTranslateHook + Send + Sync>;

/// A tainted-memory access record — the payload of the paper's
/// `DECAF_READ_TAINTMEM_CB` / `DECAF_WRITE_TAINTMEM_CB` callbacks: Chaser
/// "logs the eip, virtual memory address, physical memory address, tainted
/// value and current value in this memory location for post analysis".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintMemEvent {
    /// Node the access happened on.
    pub node: u32,
    /// Process performing the access.
    pub pid: u64,
    /// Instruction pointer of the accessing instruction.
    pub eip: u64,
    /// Guest virtual address accessed.
    pub vaddr: u64,
    /// Guest physical address accessed.
    pub paddr: u64,
    /// The taint mask of the 8 accessed bytes.
    pub taint: TaintMask,
    /// The value currently in memory (after the access for writes).
    pub value: u64,
    /// The process's retired-instruction count at the access.
    pub icount: u64,
    /// Provenance of the tainted data: which injected fault(s) it traces to.
    pub prov: ProvSet,
}

/// Receiver for tainted-memory read/write events.
///
/// Events are buffered per node during a scheduler round's compute phase
/// and delivered at the round barrier in canonical rank order (see
/// `BufferedTaintEvent`); [`TaintEventSink::on_round`] announces the round
/// each drained batch belongs to before its events arrive.
pub trait TaintEventSink {
    /// The guest read tainted memory.
    fn on_taint_read(&mut self, ev: &TaintMemEvent);
    /// The guest wrote tainted data to memory.
    fn on_taint_write(&mut self, ev: &TaintMemEvent);
    /// The scheduler is about to deliver the events of round `round`.
    /// Sinks that attribute events to rounds (the provenance recorder)
    /// track it here; the default ignores it.
    fn on_round(&mut self, _round: u64) {}
}

/// How a buffered tainted-memory access touched memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintAccessKind {
    /// A guest load of tainted memory.
    Read,
    /// A guest store of tainted data.
    Write,
}

/// One tainted-memory access captured during a compute slice, drained and
/// dispatched to the registered sinks at the next round barrier. Buffering
/// (instead of calling sinks from inside the engine) is what keeps node
/// execution free of shared mutable state, so ranks can advance on worker
/// threads while event delivery stays in canonical `(round, rank)` order.
#[derive(Debug, Clone, Copy)]
pub struct BufferedTaintEvent {
    /// Whether the access was a load or a store.
    pub kind: TaintAccessKind,
    /// The event payload.
    pub ev: TaintMemEvent,
}

/// What the injector asks the engine to do after an injection callback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectAction {
    /// Flush this node's translation cache (used by `fi_clean_cb` to detach
    /// the injector once the fault has been placed).
    pub flush_tb: bool,
    /// How many of the coming inject-point executions cannot fire. The
    /// engine counts them down in [`NodeHooks::inject_countdown`], each one
    /// a decrement instead of a callback, and calls back at the execution
    /// after them. `0` (the default) calls back at the next one.
    pub skip: u64,
}

/// Inject-point executions an inject sink has declared unable to fire
/// ([`InjectAction::skip`]) and the engine has not yet reached.
///
/// The engine counts it down on every instrumented instruction in place of
/// a callback; a sink that reports how many executions it observed shares
/// the countdown ([`InjectSink::countdown`]) and subtracts what is left, so
/// its count stays exact whenever it is read — including after a run that
/// ended before the countdown ran out. The countdown is shared by every
/// node the sink is installed on: a sink returns a non-zero skip only when
/// a single process executes its inject points (an injector instruments
/// exactly its target process). `Relaxed` throughout: only the thread
/// running that process writes it, and it is read back after the
/// scheduler has taken every node back.
#[derive(Debug, Default)]
pub struct InjectCountdown(AtomicU64);

impl InjectCountdown {
    /// Executions still to be skipped.
    pub fn left(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Counts one inject-point execution down; `true` when it is skipped
    /// (the countdown had not run out), `false` when it must call back.
    #[inline]
    pub(crate) fn tick(&self) -> bool {
        let left = self.0.load(Ordering::Relaxed);
        if left == 0 {
            return false;
        }
        self.0.store(left - 1, Ordering::Relaxed);
        true
    }

    /// Starts a countdown of `skip` executions (a callback runs only at 0,
    /// so nothing is left to overwrite).
    #[inline]
    pub(crate) fn arm(&self, skip: u64) {
        self.0.store(skip, Ordering::Relaxed);
    }
}

/// The fault injector's mutable view of the guest at an injection point.
///
/// This is what Chaser's `CORRUPT_REGISTER` / `CORRUPT_MEMORY` helpers
/// operate on: architectural registers, guest memory through the process's
/// page tables, and the taint state used to mark the injected fault as a
/// taint source.
pub struct GuestCtx<'a> {
    /// Architectural CPU state.
    pub cpu: &'a mut CpuState,
    /// The process's address space (for vaddr→paddr translation).
    pub aspace: &'a AddressSpace,
    /// The node's physical memory.
    pub phys: &'a mut PhysMemory,
    /// The node's taint state.
    pub taint: &'a mut TaintState,
    /// Node id.
    pub node: u32,
    /// Process id.
    pub pid: u64,
    /// Retired-instruction count of the process.
    pub icount: u64,
    /// Address of the instruction about to execute.
    pub pc: u64,
}

impl GuestCtx<'_> {
    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.cpu.reg(r)
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.cpu.set_reg(r, v);
    }

    /// Reads an FP register's raw bits.
    pub fn freg_bits(&self, r: FReg) -> u64 {
        self.cpu.freg_bits(r)
    }

    /// Writes an FP register's raw bits.
    pub fn set_freg_bits(&mut self, r: FReg, bits: u64) {
        self.cpu.set_freg_bits(r, bits);
    }

    /// Reads a guest u64 through the page tables.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the address is unmapped.
    pub fn read_mem(&self, vaddr: u64) -> Result<u64, MemFault> {
        self.aspace.read_u64(self.phys, vaddr)
    }

    /// Writes a guest u64 through the page tables.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the address is unmapped or read-only.
    pub fn write_mem(&mut self, vaddr: u64, v: u64) -> Result<(), MemFault> {
        self.aspace.write_u64(self.phys, vaddr, v)
    }

    /// Marks a register as a taint source (the injected fault's bits).
    /// Like every taint source, a no-op while taint is disabled: a
    /// `trace=off` run keeps its shadow state idle.
    pub fn taint_reg(&mut self, r: Reg, mask: TaintMask) {
        if self.taint.is_enabled() {
            self.taint.set_reg(r, mask);
        }
    }

    /// Marks an FP register as a taint source.
    pub fn taint_freg(&mut self, r: FReg, mask: TaintMask) {
        if self.taint.is_enabled() {
            self.taint.set_freg(r, mask);
        }
    }

    /// Marks 8 bytes of guest memory as a taint source.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the address does not translate.
    pub fn taint_mem(&mut self, vaddr: u64, mask: TaintMask) -> Result<(), MemFault> {
        let paddr = self.aspace.translate_read(vaddr)?;
        if self.taint.is_enabled() {
            self.taint.mem_mut().store8(paddr, mask);
        }
        Ok(())
    }

    /// Marks a register as a taint source attributed to fault `prov`.
    pub fn taint_reg_with_prov(&mut self, r: Reg, mask: TaintMask, prov: ProvSet) {
        if self.taint.is_enabled() {
            self.taint.set_reg_with_prov(r, mask, prov);
        }
    }

    /// Marks an FP register as a taint source attributed to fault `prov`.
    pub fn taint_freg_with_prov(&mut self, r: FReg, mask: TaintMask, prov: ProvSet) {
        if self.taint.is_enabled() {
            self.taint.set_freg_with_prov(r, mask, prov);
        }
    }

    /// Marks 8 bytes of guest memory as a taint source attributed to fault
    /// `prov`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if the address does not translate.
    pub fn taint_mem_with_prov(
        &mut self,
        vaddr: u64,
        mask: TaintMask,
        prov: ProvSet,
    ) -> Result<(), MemFault> {
        let paddr = self.aspace.translate_read(vaddr)?;
        if self.taint.is_enabled() {
            self.taint.mem_mut().store8(paddr, mask);
            self.taint.prov_store8(paddr, mask, prov);
        }
        Ok(())
    }
}

/// The engine-side fault injector callback (the paper's
/// `DECAF_inject_fault`): invoked *before* an executed instrumented
/// instruction runs — every execution, except those a previous callback
/// declared unable to fire ([`InjectAction::skip`]).
pub trait InjectSink {
    /// `point` is the id the translate hook assigned; `insn` is the
    /// targeted instruction.
    fn on_inject_point(
        &mut self,
        point: u64,
        insn: &Instruction,
        ctx: &mut GuestCtx<'_>,
    ) -> InjectAction;

    /// The countdown this sink's skips are counted down in, when the sink
    /// needs to read it back ([`InjectCountdown`]). Installers put it in
    /// [`NodeHooks::inject_countdown`]; the default `None` leaves the
    /// node's own.
    fn countdown(&self) -> Option<Arc<InjectCountdown>> {
        None
    }
}

/// Guest-function entry hook (how Chaser intercepts `mpi_send`/`mpi_recv`
/// inside the guest and reads their arguments from registers/stack).
pub trait FnHookSink {
    /// The guest reached the entry of a hooked function.
    fn on_fn_entry(&mut self, hook_id: u64, ctx: &mut GuestCtx<'_>);
}

/// Decides at translation time which instructions receive an injection
/// callback; node/pid-aware wrapper around `chaser_tcg::TranslateHook`.
pub trait NodeTranslateHook {
    /// Should `insn` at `pc` in process `pid` on `node` be instrumented?
    fn inject_point(&self, node: u32, pid: u64, pc: u64, insn: &Instruction) -> Option<u64>;
}

/// All hooks attached to a node. Every slot is optional; an unhooked node
/// runs at plain-translation speed (the "efficient" design goal).
///
/// Every slot is `Send`-clean (`Arc<Mutex<…>>` for mutable sinks, `Arc<dyn
/// … + Sync>` for the read-only translate hook), so a node — and with it a
/// whole rank — can move to a worker thread for the parallel compute phase
/// of a scheduler round.
#[derive(Default, Clone)]
pub struct NodeHooks {
    /// Translation-time instrumentation decision.
    pub translate: Option<SharedTranslateHook>,
    /// Fault-injection callback.
    pub inject: Option<SharedInjectSink>,
    /// The countdown of `inject`'s skipped executions: the sink's own when
    /// it shares one ([`InjectSink::countdown`]).
    pub inject_countdown: Arc<InjectCountdown>,
    /// When set, tainted-memory accesses are buffered into the node's
    /// [`BufferedTaintEvent`] log for barrier-time delivery. Sinks live at
    /// the cluster level, never on the node: the compute phase must not
    /// share mutable observers across ranks.
    pub taint_events: bool,
    /// VMI process lifecycle observers.
    pub vmi: Vec<SharedVmiSink>,
    /// Hooked guest function entry addresses, per pid: `(pid, vaddr) → id`.
    pub fn_hooks: HashMap<(u64, u64), u64>,
    /// Receiver of function-entry hook events.
    pub fn_hook_sink: Option<SharedFnHookSink>,
}

impl std::fmt::Debug for NodeHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHooks")
            .field("translate", &self.translate.is_some())
            .field("inject", &self.inject.is_some())
            .field("taint_events", &self.taint_events)
            .field("vmi_sinks", &self.vmi.len())
            .field("fn_hooks", &self.fn_hooks.len())
            .finish()
    }
}
