//! A simulated machine: physical memory, processes, translation cache,
//! taint state and hooks.

use crate::engine::{self, EngineStats};
use crate::hooks::{BufferedTaintEvent, NodeHooks};
use crate::kernel::ExitStatus;
use crate::mem::{MemFault, MemSnapshot, MemStats, PhysMemory};
use crate::paging::{AddressSpace, PagePerms};
use crate::process::{MpiRequest, ProcState, Process};
use crate::vmi::VmiAction;
use chaser_isa::{CpuState, Program, CODE_BASE, DATA_BASE, PAGE_SIZE, STACK_SIZE, STACK_TOP};
use chaser_taint::{ProvSet, Shadow, ShadowCell, TaintPolicy, TaintState};
use chaser_tcg::{BaseLayer, CacheStats, TbCache};
use std::fmt;
use std::sync::Arc;

/// Why [`Node::run_slice`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceExit {
    /// The quantum was used up; the process remains runnable.
    QuantumExpired,
    /// The per-run instruction budget was used up; the process remains
    /// runnable but the watchdog owner should stop the run.
    BudgetExhausted,
    /// The process finished.
    Exited(ExitStatus),
    /// The process trapped into an MPI call and is now blocked; the cluster
    /// runtime must complete the request.
    MpiCall(MpiRequest),
    /// The process was already blocked on MPI.
    Blocked,
}

/// An error creating a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnError {
    /// The node ran out of physical memory while building the address space.
    OutOfMemory(MemFault),
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpawnError::OutOfMemory(fault) => write!(f, "out of guest memory: {fault}"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// One simulated machine running guest processes under introspection.
#[derive(Debug)]
pub struct Node {
    id: u32,
    phys: PhysMemory,
    procs: Vec<Process>,
    cache: TbCache,
    taint: TaintState,
    hooks: NodeHooks,
    next_pid: u64,
    /// Remaining run-level instruction budget (`u64::MAX` = unlimited).
    /// Set by the watchdog owner (the cluster scheduler) before each slice.
    insn_budget: u64,
    /// Accumulated hot-path counters over every slice this node ran.
    engine_stats: EngineStats,
    /// Taint memory events buffered during slices (gated by
    /// `hooks.taint_events`); the owner drains them in deterministic order
    /// at its round barrier via [`Node::take_taint_events`].
    taint_buf: Vec<BufferedTaintEvent>,
}

impl Node {
    /// A node with default physical memory and the precise taint policy.
    pub fn new(id: u32) -> Node {
        Node::with_config(id, crate::mem::DEFAULT_PHYS_BYTES, TaintPolicy::Precise)
    }

    /// A node with explicit memory size and taint policy.
    pub fn with_config(id: u32, phys_bytes: u64, policy: TaintPolicy) -> Node {
        Node {
            id,
            phys: PhysMemory::new(phys_bytes),
            procs: Vec::new(),
            cache: TbCache::new(),
            taint: TaintState::with_capacity(policy, phys_bytes),
            hooks: NodeHooks::default(),
            next_pid: 1,
            insn_budget: u64::MAX,
            engine_stats: EngineStats::default(),
            taint_buf: Vec::new(),
        }
    }

    /// Hot-path execution counters accumulated over every slice.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Caps the instructions the next [`Node::run_slice`] may retire,
    /// independently of its quantum. When the budget binds before the
    /// quantum the slice returns [`SliceExit::BudgetExhausted`].
    /// `u64::MAX` (the default) disables the cap.
    pub fn set_insn_budget(&mut self, remaining: u64) {
        self.insn_budget = remaining;
    }

    /// The node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Loads `program` into a fresh process and reports it through VMI.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError::OutOfMemory`] when guest RAM is exhausted.
    pub fn spawn(&mut self, program: &Program) -> Result<u64, SpawnError> {
        let pid = self.next_pid;
        self.next_pid += 1;

        let mut aspace = AddressSpace::new(pid);
        // Text.
        aspace
            .map_region(
                &mut self.phys,
                CODE_BASE,
                program.code().len().max(1) as u64,
                PagePerms::RX,
            )
            .map_err(SpawnError::OutOfMemory)?;
        poke(&aspace, &mut self.phys, CODE_BASE, program.code());
        // Data.
        if !program.data().is_empty() {
            aspace
                .map_region(
                    &mut self.phys,
                    DATA_BASE,
                    program.data().len() as u64,
                    PagePerms::RW,
                )
                .map_err(SpawnError::OutOfMemory)?;
            poke(&aspace, &mut self.phys, DATA_BASE, program.data());
        }
        // Stack.
        aspace
            .map_region(
                &mut self.phys,
                STACK_TOP - STACK_SIZE,
                STACK_SIZE,
                PagePerms::RW,
            )
            .map_err(SpawnError::OutOfMemory)?;

        let mut cpu = CpuState::new(program.entry());
        cpu.set_sp(STACK_TOP);

        let proc = Process::new(
            pid,
            program.name().to_string(),
            cpu,
            aspace,
            program.heap_base(),
        );
        self.procs.push(proc);

        // VMI: report creation, apply requested actions.
        let mut action = VmiAction::NONE;
        let sinks = self.hooks.vmi.clone();
        for sink in sinks {
            action = action.merge(sink.lock().on_process_created(self.id, pid, program.name()));
        }
        if action.flush_tb {
            self.cache.flush();
        }
        Ok(pid)
    }

    /// Executes up to `quantum` instructions of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist on this node.
    pub fn run_slice(&mut self, pid: u64, quantum: u64) -> SliceExit {
        let idx = self.index(pid).expect("unknown pid");
        let proc = &mut self.procs[idx];
        let exit = engine::run_slice(
            self.id,
            &mut self.phys,
            &mut self.cache,
            &mut self.taint,
            &self.hooks,
            proc,
            quantum,
            self.insn_budget,
            &mut self.engine_stats,
            &mut self.taint_buf,
        );
        if let SliceExit::Exited(status) = exit {
            let sinks = self.hooks.vmi.clone();
            let mut action = VmiAction::NONE;
            for sink in sinks {
                action = action.merge(sink.lock().on_process_exited(self.id, pid, status));
            }
            if action.flush_tb {
                self.cache.flush();
            }
        }
        exit
    }

    fn index(&self, pid: u64) -> Option<usize> {
        self.procs.iter().position(|p| p.pid() == pid)
    }

    /// The process with id `pid`, if any.
    pub fn process(&self, pid: u64) -> Option<&Process> {
        self.index(pid).map(|i| &self.procs[i])
    }

    /// Mutable access to a process.
    pub fn process_mut(&mut self, pid: u64) -> Option<&mut Process> {
        self.index(pid).map(move |i| &mut self.procs[i])
    }

    /// All processes on the node.
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// Completes a blocked MPI call: sets the return value and makes the
    /// process runnable again at its resume pc.
    ///
    /// # Panics
    ///
    /// Panics if the process is not blocked in an MPI call.
    pub fn complete_mpi(&mut self, pid: u64, ret: u64) {
        let proc = self.process_mut(pid).expect("unknown pid");
        assert_eq!(proc.state, ProcState::BlockedMpi, "process not in MPI call");
        let req = proc
            .pending_mpi
            .take()
            .expect("blocked process has a request");
        proc.cpu.set_reg(chaser_isa::abi::RET_REG, ret);
        proc.cpu.pc = req.resume_pc;
        proc.state = ProcState::Runnable;
    }

    /// Terminates a process from outside (an MPI runtime abort, or a signal
    /// the runtime deals a rank whose request faulted).
    pub fn abort_process(&mut self, pid: u64, status: ExitStatus) {
        if let Some(proc) = self.process_mut(pid) {
            proc.terminate(status);
        }
    }

    /// Reads guest memory of a (possibly blocked) process.
    ///
    /// # Errors
    ///
    /// Propagates the guest [`MemFault`] on bad addresses — the MPI runtime
    /// turns this into an MPI error.
    pub fn read_guest(&self, pid: u64, vaddr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let proc = self.process(pid).expect("unknown pid");
        proc.aspace.read_bytes(&self.phys, vaddr, len)
    }

    /// Writes guest memory of a process.
    ///
    /// # Errors
    ///
    /// Propagates the guest [`MemFault`] on bad addresses.
    pub fn write_guest(&mut self, pid: u64, vaddr: u64, data: &[u8]) -> Result<(), MemFault> {
        let idx = self.index(pid).expect("unknown pid");
        let proc = &self.procs[idx];
        proc.aspace.write_bytes(&mut self.phys, vaddr, data)
    }

    /// Reads the per-byte taint shadow of a guest buffer, one page at a
    /// time: a page with no tainted byte reads as zeros without its masks
    /// being touched.
    ///
    /// # Errors
    ///
    /// Propagates the guest [`MemFault`] of the first unmapped page.
    pub fn read_guest_taint(&self, pid: u64, vaddr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        self.read_guest_shadow(pid, vaddr, len, self.taint.mem())
    }

    /// Reads the per-byte fault provenance of a guest buffer, as
    /// [`Node::read_guest_taint`] reads its masks.
    ///
    /// # Errors
    ///
    /// Propagates the guest [`MemFault`] of the first unmapped page.
    pub fn read_guest_prov(
        &self,
        pid: u64,
        vaddr: u64,
        len: u64,
    ) -> Result<Vec<ProvSet>, MemFault> {
        self.read_guest_shadow(pid, vaddr, len, self.taint.prov_mem())
    }

    /// Writes the per-byte taint shadow of a guest buffer (applying an
    /// incoming message's taint on the receiver), one page at a time: an
    /// all-clean chunk on a taint-free page is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates the guest [`MemFault`] of the first unmapped page; every
    /// page before it has been written.
    pub fn write_guest_taint(
        &mut self,
        pid: u64,
        vaddr: u64,
        masks: &[u8],
    ) -> Result<(), MemFault> {
        self.for_guest_pages(pid, vaddr, masks.len() as u64, |taint, paddr, at, n| {
            taint.mem_mut().write_in_page(paddr, &masks[at..at + n])
        })
    }

    /// Writes the per-byte fault provenance of a guest buffer, as
    /// [`Node::write_guest_taint`] writes its masks.
    ///
    /// # Errors
    ///
    /// As [`Node::write_guest_taint`].
    pub fn write_guest_prov(
        &mut self,
        pid: u64,
        vaddr: u64,
        provs: &[ProvSet],
    ) -> Result<(), MemFault> {
        self.for_guest_pages(pid, vaddr, provs.len() as u64, |taint, paddr, at, n| {
            taint.prov_write_in_page(paddr, &provs[at..at + n])
        })
    }

    /// Cleans the taint and provenance of a guest buffer (a clean message
    /// landing on the receiver), one page at a time and allocating nothing:
    /// a page holding neither is left after one index.
    ///
    /// # Errors
    ///
    /// As [`Node::write_guest_taint`].
    pub fn clear_guest_taint(&mut self, pid: u64, vaddr: u64, len: u64) -> Result<(), MemFault> {
        self.for_guest_pages(pid, vaddr, len, |taint, paddr, _, n| {
            taint.clear_in_page(paddr, n)
        })
    }

    /// One cell of `shadow` per byte of a guest buffer, read page by page.
    fn read_guest_shadow<C: ShadowCell>(
        &self,
        pid: u64,
        vaddr: u64,
        len: u64,
        shadow: &Shadow<C>,
    ) -> Result<Vec<C>, MemFault> {
        let proc = self.process(pid).expect("unknown pid");
        let mut out = Vec::with_capacity(prealloc(len));
        proc.aspace
            .for_each_page(vaddr, len, false, |paddr, at, n| {
                out.resize(at + n, C::CLEAN);
                shadow.read_in_page(paddr, &mut out[at..]);
            })?;
        Ok(out)
    }

    /// Runs `f(taint, paddr, at, n)` on each page of a guest buffer, whose
    /// bytes `at..at + n` lie at physical `paddr`.
    fn for_guest_pages(
        &mut self,
        pid: u64,
        vaddr: u64,
        len: u64,
        mut f: impl FnMut(&mut TaintState, u64, usize, usize),
    ) -> Result<(), MemFault> {
        let idx = self.index(pid).expect("unknown pid");
        let taint = &mut self.taint;
        self.procs[idx]
            .aspace
            .for_each_page(vaddr, len, false, |paddr, at, n| f(taint, paddr, at, n))
    }

    /// The node's taint state.
    pub fn taint(&self) -> &TaintState {
        &self.taint
    }

    /// Mutable taint state.
    pub fn taint_mut(&mut self) -> &mut TaintState {
        &mut self.taint
    }

    /// Installed hooks.
    pub fn hooks(&self) -> &NodeHooks {
        &self.hooks
    }

    /// Mutable hooks (install injectors, tracers, VMI sinks, fn hooks).
    pub fn hooks_mut(&mut self) -> &mut NodeHooks {
        &mut self.hooks
    }

    /// Flushes the translation cache (the overlay only — a shared base
    /// layer installed via [`Node::install_base_cache`] survives).
    pub fn flush_cache(&mut self) {
        self.cache.flush();
    }

    /// Installs a shared base layer of clean translation blocks, typically
    /// sealed from a golden run of the same program set. Subsequent
    /// translation lookups serve validated clean blocks from it instead of
    /// retranslating.
    pub fn install_base_cache(&mut self, base: Arc<BaseLayer>) {
        self.cache.set_base(base);
    }

    /// Freezes this node's clean translated blocks into an immutable base
    /// layer shareable across nodes and threads.
    pub fn seal_cache(&self) -> Arc<BaseLayer> {
        self.cache.seal()
    }

    /// Translation-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drains the taint events buffered since the last drain, in execution
    /// order. Events only accumulate while `hooks.taint_events` is set.
    pub fn take_taint_events(&mut self) -> Vec<BufferedTaintEvent> {
        std::mem::take(&mut self.taint_buf)
    }

    /// Sum of retired instructions over all processes on this node.
    pub fn total_icount(&self) -> u64 {
        self.procs.iter().map(|p| p.icount).sum()
    }

    /// Copy-on-write / dirty-page counters of this node's guest RAM.
    pub fn mem_stats(&self) -> MemStats {
        self.phys.stats()
    }

    /// Visits every resident physical page in address order (for state
    /// digests; see [`PhysMemory::for_each_resident_page`]).
    pub fn for_each_resident_page(&self, f: impl FnMut(u64, &[u8])) {
        self.phys.for_each_resident_page(f)
    }

    /// Freezes this node into a [`NodeSnapshot`]: guest RAM as `Arc`-shared
    /// pages, the full process table, and the taint shadow state. Hooks and
    /// the translation cache are *not* captured — hooks are per-run wiring
    /// (and not `Send`), and translations are derived state a restored node
    /// rebuilds or adopts from the shared base layer.
    pub fn snapshot(&mut self) -> NodeSnapshot {
        NodeSnapshot {
            id: self.id,
            phys: self.phys.snapshot(),
            procs: self.procs.clone(),
            taint: self.taint.clone(),
            next_pid: self.next_pid,
        }
    }

    /// Reconstructs a node from a snapshot. Captured pages are adopted
    /// zero-copy; the node starts with a fresh translation cache, no hooks
    /// and an unlimited instruction budget — the restorer wires those the
    /// same way a cold run does.
    pub fn from_snapshot(snap: &NodeSnapshot) -> Node {
        Node {
            id: snap.id,
            phys: PhysMemory::from_snapshot(&snap.phys),
            procs: snap.procs.clone(),
            cache: TbCache::new(),
            taint: snap.taint.clone(),
            hooks: NodeHooks::default(),
            next_pid: snap.next_pid,
            insn_budget: u64::MAX,
            engine_stats: EngineStats::default(),
            taint_buf: Vec::new(),
        }
    }

    /// Re-fires `on_process_created` for process `pid`. A restored node
    /// already holds its process table, so VMI consumers wired after the
    /// restore (injectors arming on a target program name) would otherwise
    /// never see the creations they key on. The caller replays in the
    /// original creation order — for a cluster that is rank order, which
    /// interleaves across nodes.
    pub fn replay_vmi_creation(&mut self, pid: u64) {
        let Some(proc) = self.process(pid) else {
            return;
        };
        let name = proc.name().to_string();
        let sinks = self.hooks.vmi.clone();
        let mut action = VmiAction::NONE;
        for sink in &sinks {
            action = action.merge(sink.lock().on_process_created(self.id, pid, &name));
        }
        if action.flush_tb {
            self.cache.flush();
        }
    }
}

/// A frozen image of one node, cheap to clone and shareable across worker
/// threads (`Arc`-backed pages). Captures memory, processes and taint;
/// excludes hooks and the translation cache (see [`Node::snapshot`]).
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    id: u32,
    phys: MemSnapshot,
    procs: Vec<Process>,
    taint: TaintState,
    next_pid: u64,
}

impl NodeSnapshot {
    /// Number of resident guest-RAM pages captured.
    pub fn resident_pages(&self) -> u64 {
        self.phys.resident_pages()
    }

    /// Visits the storage identity of every captured guest-RAM page (see
    /// [`MemSnapshot::for_each_page_id`]).
    pub fn for_each_page_id(&self, f: impl FnMut(usize)) {
        self.phys.for_each_page_id(f)
    }
}

/// Writes bytes through read translation only — the kernel loader may write
/// into read-only/executable mappings.
fn poke(aspace: &AddressSpace, phys: &mut PhysMemory, vaddr: u64, data: &[u8]) {
    aspace
        .for_each_page(vaddr, data.len() as u64, false, |paddr, at, n| {
            phys.write_bytes(paddr, &data[at..at + n]);
        })
        .expect("loader writes mapped pages");
}

/// Up-front capacity for a buffer of `len` guest-supplied entries: at
/// most one page's worth, the rest grown page by page. `len` may be a
/// corrupted guest value, so it is never pre-allocated on the host (the
/// rule `AddressSpace::read_bytes` follows).
fn prealloc(len: u64) -> usize {
    len.min(PAGE_SIZE) as usize
}

/// The reference executor the engine tests compare against.
#[cfg(test)]
#[path = "../tests/support/oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_isa::{Asm, Cond, FReg, Reg};

    fn run_to_exit(node: &mut Node, pid: u64) -> ExitStatus {
        loop {
            match node.run_slice(pid, 100_000) {
                SliceExit::Exited(status) => return status,
                SliceExit::QuantumExpired => continue,
                other => panic!("unexpected slice exit: {other:?}"),
            }
        }
    }

    #[test]
    fn arithmetic_program_exits_with_result() {
        let mut a = Asm::new("sum");
        a.movi(Reg::R1, 0);
        a.movi(Reg::R2, 1);
        a.label("loop");
        a.add(Reg::R1, Reg::R2);
        a.addi(Reg::R2, 1);
        a.cmpi(Reg::R2, 10);
        a.jcc(Cond::Le, "loop");
        a.exit_with(Reg::R1);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert_eq!(run_to_exit(&mut node, pid), ExitStatus::Exited(55));
    }

    #[test]
    fn insn_budget_binds_before_quantum_and_resumes_cleanly() {
        let mut a = Asm::new("sum");
        a.movi(Reg::R1, 0);
        a.movi(Reg::R2, 1);
        a.label("loop");
        a.add(Reg::R1, Reg::R2);
        a.addi(Reg::R2, 1);
        a.cmpi(Reg::R2, 10);
        a.jcc(Cond::Le, "loop");
        a.exit_with(Reg::R1);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        node.set_insn_budget(5);
        assert_eq!(node.run_slice(pid, 100_000), SliceExit::BudgetExhausted);
        assert_eq!(node.process(pid).expect("alive").icount, 5);
        // Lifting the budget resumes at the interrupted pc with identical
        // semantics: the program still computes 55.
        node.set_insn_budget(u64::MAX);
        assert_eq!(run_to_exit(&mut node, pid), ExitStatus::Exited(55));
    }

    #[test]
    fn fp_program_computes_dot_product() {
        let mut a = Asm::new("dot");
        a.data_f64("x", &[1.0, 2.0, 3.0]);
        a.data_f64("y", &[4.0, 5.0, 6.0]);
        a.lea(Reg::R1, "x");
        a.lea(Reg::R2, "y");
        a.movi(Reg::R3, 0); // i
        a.fmovi(FReg::F0, 0.0); // acc
        a.label("loop");
        a.fldx(FReg::F1, Reg::R1, Reg::R3);
        a.fldx(FReg::F2, Reg::R2, Reg::R3);
        a.fmul(FReg::F1, FReg::F2);
        a.fadd(FReg::F0, FReg::F1);
        a.addi(Reg::R3, 1);
        a.cmpi(Reg::R3, 3);
        a.jcc(Cond::Lt, "loop");
        a.cvtfi(Reg::R1, FReg::F0);
        a.hypercall(chaser_isa::abi::SYS_EXIT);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        // 1*4 + 2*5 + 3*6 = 32
        assert_eq!(run_to_exit(&mut node, pid), ExitStatus::Exited(32));
    }

    #[test]
    fn call_and_ret_use_the_stack() {
        let mut a = Asm::new("callret");
        a.set_entry("main");
        a.label("double");
        a.add(Reg::R1, Reg::R1);
        a.ret();
        a.label("main");
        a.movi(Reg::R1, 21);
        a.call("double");
        a.exit_with(Reg::R1);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert_eq!(run_to_exit(&mut node, pid), ExitStatus::Exited(42));
    }

    #[test]
    fn unmapped_load_raises_sigsegv() {
        let mut a = Asm::new("segv");
        a.movi(Reg::R1, 0x6666_0000);
        a.ld(Reg::R2, Reg::R1, 0);
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert_eq!(
            run_to_exit(&mut node, pid),
            ExitStatus::Signaled(crate::Signal::Segv)
        );
    }

    #[test]
    fn divide_by_zero_raises_sigfpe() {
        let mut a = Asm::new("fpe");
        a.movi(Reg::R1, 10);
        a.movi(Reg::R2, 0);
        a.divs(Reg::R1, Reg::R2);
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert_eq!(
            run_to_exit(&mut node, pid),
            ExitStatus::Signaled(crate::Signal::Fpe)
        );
    }

    #[test]
    fn jumping_into_data_raises_a_signal() {
        let mut a = Asm::new("wild");
        a.data_u64("junk", &[u64::MAX; 4]);
        a.lea(Reg::R1, "junk");
        a.callr(Reg::R1);
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        // Data pages are not executable: fetch fault → SIGSEGV.
        assert_eq!(
            run_to_exit(&mut node, pid),
            ExitStatus::Signaled(crate::Signal::Segv)
        );
    }

    #[test]
    fn stdout_and_output_files_are_captured() {
        let mut a = Asm::new("writer");
        a.movi(Reg::R1, chaser_isa::abi::FD_STDOUT as i64);
        a.movi(Reg::R2, 123);
        a.hypercall(chaser_isa::abi::SYS_WRITE_I64);
        a.movi(Reg::R1, chaser_isa::abi::FD_OUTPUT as i64);
        a.fmovi(FReg::F0, 1.5);
        a.movfr(Reg::R2, FReg::F0);
        a.hypercall(chaser_isa::abi::SYS_WRITE_F64);
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert!(run_to_exit(&mut node, pid).is_success());
        let files = &node.process(pid).expect("proc").files;
        assert_eq!(files.stdout, b"123\n");
        assert_eq!(files.output, 1.5f64.to_bits().to_le_bytes());
    }

    #[test]
    fn sbrk_grows_the_heap() {
        let mut a = Asm::new("heap");
        a.movi(Reg::R1, 4096 * 3);
        a.hypercall(chaser_isa::abi::SYS_SBRK);
        a.mov(Reg::R3, Reg::R0); // old brk
        a.movi(Reg::R2, 777);
        a.st(Reg::R2, Reg::R3, 8192);
        a.ld(Reg::R4, Reg::R3, 8192);
        a.exit_with(Reg::R4);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert_eq!(run_to_exit(&mut node, pid), ExitStatus::Exited(777));
    }

    #[test]
    fn quantum_expiry_preserves_progress() {
        let mut a = Asm::new("long");
        a.movi(Reg::R1, 0);
        a.movi(Reg::R2, 0);
        a.label("loop");
        a.addi(Reg::R1, 1);
        a.addi(Reg::R2, 1);
        a.cmpi(Reg::R2, 10_000);
        a.jcc(Cond::Lt, "loop");
        a.exit_with(Reg::R1);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        let mut slices = 0;
        let status = loop {
            match node.run_slice(pid, 1000) {
                SliceExit::Exited(status) => break status,
                SliceExit::QuantumExpired => slices += 1,
                other => panic!("unexpected: {other:?}"),
            }
        };
        assert_eq!(status, ExitStatus::Exited(10_000));
        assert!(slices >= 10, "should have taken many slices, got {slices}");
    }

    #[test]
    fn mpi_hypercall_blocks_and_completes() {
        let mut a = Asm::new("mpi");
        a.hypercall(chaser_isa::abi::MPI_COMM_RANK);
        a.exit_with(Reg::R0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        let exit = node.run_slice(pid, 1000);
        let SliceExit::MpiCall(req) = exit else {
            panic!("expected MPI call, got {exit:?}");
        };
        assert_eq!(req.num, chaser_isa::abi::MPI_COMM_RANK);
        assert_eq!(
            node.process(pid).expect("proc").state,
            ProcState::BlockedMpi
        );
        // Scheduling a blocked process reports Blocked.
        assert_eq!(node.run_slice(pid, 1000), SliceExit::Blocked);
        node.complete_mpi(pid, 3);
        assert_eq!(run_to_exit(&mut node, pid), ExitStatus::Exited(3));
    }

    #[test]
    fn guest_memory_round_trip_via_node_api() {
        let mut a = Asm::new("buf");
        a.bss("buf", 64);
        a.label("spin");
        a.hypercall(chaser_isa::abi::MPI_BARRIER); // park the process
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let buf_addr = prog.symbol("buf").expect("buf");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert!(matches!(node.run_slice(pid, 100), SliceExit::MpiCall(_)));
        node.write_guest(pid, buf_addr, &[1, 2, 3, 4])
            .expect("write");
        assert_eq!(
            node.read_guest(pid, buf_addr, 4).expect("read"),
            vec![1, 2, 3, 4]
        );
        node.write_guest_taint(pid, buf_addr, &[0xff, 0, 0xff, 0])
            .expect("taint");
        assert_eq!(
            node.read_guest_taint(pid, buf_addr, 4).expect("read taint"),
            vec![0xff, 0, 0xff, 0]
        );
        assert_eq!(node.taint().mem().tainted_bytes(), 2);
    }
}

#[cfg(test)]
mod more_engine_tests {
    use super::oracle::{Access, Fault, Oracle, Site, Stop};
    use super::*;
    use crate::kernel::Signal;
    use chaser_isa::{abi, Asm, FReg, Reg};
    use chaser_taint::ProvSet;

    fn run_to_exit(node: &mut Node, pid: u64, quantum: u64) -> ExitStatus {
        loop {
            match node.run_slice(pid, quantum) {
                SliceExit::Exited(status) => return status,
                SliceExit::QuantumExpired => continue,
                other => panic!("unexpected slice exit: {other:?}"),
            }
        }
    }

    fn run(prog: &chaser_isa::Program) -> (Node, u64, ExitStatus) {
        let mut node = Node::new(0);
        let pid = node.spawn(prog).expect("spawn");
        let status = run_to_exit(&mut node, pid, 1_000_000);
        (node, pid, status)
    }

    /// Translate hook marking every store as an injection point.
    struct TargetStores;
    impl crate::hooks::NodeTranslateHook for TargetStores {
        fn inject_point(
            &self,
            _n: u32,
            _p: u64,
            _pc: u64,
            insn: &chaser_isa::Instruction,
        ) -> Option<u64> {
            matches!(insn, chaser_isa::Instruction::St { .. }).then_some(1)
        }
    }

    #[test]
    fn push_pop_round_trip_and_stack_depth() {
        let mut a = Asm::new("stack");
        a.movi(Reg::R1, 111);
        a.movi(Reg::R2, 222);
        a.push(Reg::R1);
        a.push(Reg::R2);
        a.pop(Reg::R3); // 222
        a.pop(Reg::R4); // 111
        a.sub(Reg::R3, Reg::R4); // 111
        a.exit_with(Reg::R3);
        let (_, _, status) = run(&a.assemble().expect("assemble"));
        assert_eq!(status, ExitStatus::Exited(111));
    }

    #[test]
    fn unsigned_ops_and_remainder() {
        let mut a = Asm::new("uops");
        a.movi(Reg::R1, 17);
        a.movi(Reg::R2, 5);
        a.mov(Reg::R3, Reg::R1);
        a.divu(Reg::R3, Reg::R2); // 3
        a.mov(Reg::R4, Reg::R1);
        a.rem(Reg::R4, Reg::R2); // 2
        a.muli(Reg::R3, 10);
        a.add(Reg::R3, Reg::R4); // 32
        a.exit_with(Reg::R3);
        let (_, _, status) = run(&a.assemble().expect("assemble"));
        assert_eq!(status, ExitStatus::Exited(32));
    }

    #[test]
    fn fp_min_max_sqrt_and_cvt() {
        let mut a = Asm::new("fpops");
        a.fmovi(FReg::F0, 9.0);
        a.fsqrt(FReg::F0); // 3.0
        a.fmovi(FReg::F1, -5.0);
        a.fmax(FReg::F0, FReg::F1); // 3.0
        a.fmin(FReg::F1, FReg::F0); // -5.0
        a.fsub(FReg::F0, FReg::F1); // 8.0
        a.cvtfi(Reg::R1, FReg::F0);
        a.hypercall(abi::SYS_EXIT);
        let (_, _, status) = run(&a.assemble().expect("assemble"));
        assert_eq!(status, ExitStatus::Exited(8));
    }

    #[test]
    fn sys_clock_returns_monotonic_icount() {
        let mut a = Asm::new("clock");
        a.hypercall(abi::SYS_CLOCK);
        a.mov(Reg::R7, Reg::R0);
        a.nop();
        a.nop();
        a.hypercall(abi::SYS_CLOCK);
        a.sub(Reg::R0, Reg::R7);
        a.exit_with(Reg::R0);
        let (_, _, status) = run(&a.assemble().expect("assemble"));
        // nop, nop, hypercall, mov retired between the two reads... the
        // exact delta is the instruction distance: mov+nop+nop+hcall = 4.
        assert_eq!(status, ExitStatus::Exited(4));
    }

    #[test]
    fn unknown_kernel_call_is_sigill() {
        let mut a = Asm::new("badcall");
        a.hypercall(42); // unassigned kernel number
        a.exit(0);
        let (_, _, status) = run(&a.assemble().expect("assemble"));
        assert_eq!(status, ExitStatus::Signaled(Signal::Ill));
    }

    #[test]
    fn writes_to_unknown_fds_are_ignored() {
        let mut a = Asm::new("badfd");
        a.movi(Reg::R1, 99); // not a real fd
        a.movi(Reg::R2, 7);
        a.hypercall(abi::SYS_WRITE_I64);
        a.exit(0);
        let (node, pid, status) = run(&a.assemble().expect("assemble"));
        assert!(status.is_success());
        let files = &node.process(pid).expect("proc").files;
        assert!(files.stdout.is_empty());
        assert!(files.output.is_empty());
    }

    /// A break whose page end would pass `u64::MAX` cannot be mapped: the
    /// process dies with SIGSEGV, as the reference executor says, instead
    /// of overflowing the page rounding.
    #[test]
    fn sbrk_past_the_address_space_is_sigsegv() {
        let mut a = Asm::new("hugebrk");
        a.movi(Reg::R1, -1);
        a.hypercall(abi::SYS_SBRK);
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let (mut node, pid, status) = run(&prog);
        assert_eq!(status, ExitStatus::Signaled(Signal::Segv));
        let (reference, stop) = reference_run(&prog, None);
        assert_eq!(stop, Stop::Segv);
        assert_matches_reference(&mut node, pid, &reference);
    }

    #[test]
    fn stack_overflow_is_sigsegv() {
        // Push in an endless loop: sp walks off the mapped stack.
        let mut a = Asm::new("overflow");
        a.label("spin");
        a.push(Reg::R1);
        a.jmp("spin");
        let (_, _, status) = run(&a.assemble().expect("assemble"));
        assert_eq!(status, ExitStatus::Signaled(Signal::Segv));
    }

    fn loop_prog(iters: i64) -> chaser_isa::Program {
        let mut a = Asm::new("hotloop");
        a.data_u64("buf", &[0; 8]);
        a.lea(Reg::R5, "buf");
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.ld(Reg::R2, Reg::R5, 0);
        a.add(Reg::R2, Reg::R1);
        a.st(Reg::R2, Reg::R5, 0);
        a.addi(Reg::R1, 1);
        a.cmpi(Reg::R1, iters);
        a.jcc(chaser_isa::Cond::Lt, "loop");
        a.ld(Reg::R0, Reg::R5, 0);
        a.exit_with(Reg::R0);
        a.assemble().expect("assemble")
    }

    /// The engine's end state against the reference executor's
    /// (`tests/support/oracle.rs`) after both ran the same process: CPU,
    /// `icount`, output, every register and memory mask, provenance, every
    /// mapped byte, and the ordered tainted-access log, which it drains and
    /// returns.
    fn assert_matches_reference(
        node: &mut Node,
        pid: u64,
        reference: &Oracle,
    ) -> Vec<(crate::hooks::TaintAccessKind, crate::hooks::TaintMemEvent)> {
        let proc = node.process(pid).expect("proc");
        assert_eq!(proc.cpu, reference.cpu, "CPU state");
        assert_eq!(proc.icount, reference.icount, "icount");
        assert_eq!(proc.files.stdout, reference.stdout, "stdout");
        assert_eq!(proc.files.output, reference.output, "output");
        let taint = node.taint();
        for r in Reg::ALL {
            assert_eq!(taint.reg(r).0, reference.reg_mask[r.index()], "{r} mask");
            assert_eq!(
                !taint.reg_prov(r).is_empty(),
                reference.reg_prov[r.index()],
                "{r} provenance"
            );
        }
        for f in FReg::ALL {
            assert_eq!(taint.freg(f).0, reference.freg_mask[f.index()], "{f} mask");
        }
        assert_eq!(
            taint.mem().tainted_bytes(),
            reference.tainted_bytes(),
            "tainted memory bytes"
        );
        for &vpn in reference.pages.keys() {
            let base = vpn * PAGE_SIZE;
            let bytes = node.read_guest(pid, base, PAGE_SIZE).expect("mapped");
            let masks = node.read_guest_taint(pid, base, PAGE_SIZE).expect("mapped");
            let provs = node.read_guest_prov(pid, base, PAGE_SIZE).expect("mapped");
            for i in 0..PAGE_SIZE as usize {
                let a = base + i as u64;
                assert_eq!(bytes[i], reference.byte(a), "byte at {a:#x}");
                assert_eq!(masks[i], reference.byte_mask(a), "mask at {a:#x}");
                assert_eq!(
                    !provs[i].is_empty(),
                    reference.mem_prov.contains(&a),
                    "provenance at {a:#x}"
                );
            }
        }
        let events = events(node);
        let accesses: Vec<Access> = events
            .iter()
            .map(|(kind, ev)| Access {
                write: *kind == crate::hooks::TaintAccessKind::Write,
                pc: ev.eip,
                vaddr: ev.vaddr,
                mask: ev.taint.0,
                value: ev.value,
                icount: ev.icount,
                prov: !ev.prov.is_empty(),
            })
            .collect();
        assert_eq!(accesses, reference.accesses, "tainted accesses");
        events
    }

    /// The reference run of `prog` to its exit, with `fault` armed.
    fn reference_run(prog: &chaser_isa::Program, fault: Option<Fault>) -> (Oracle, Stop) {
        let mut reference = Oracle::new(prog, crate::mem::DEFAULT_PHYS_BYTES);
        if let Some(fault) = fault {
            reference.inject(fault);
        }
        let stop = reference.run(u64::MAX);
        (reference, stop)
    }

    #[test]
    fn jump_cache_serves_the_loop_and_preserves_results() {
        let prog = loop_prog(100);
        let mut node = Node::new(0);
        node.hooks_mut().taint_events = true;
        let pid = node.spawn(&prog).expect("spawn");
        let status = run_to_exit(&mut node, pid, 1000);
        assert_eq!(status, ExitStatus::Exited(4950));
        let (reference, stop) = reference_run(&prog, None);
        assert_eq!(stop, Stop::Exited(4950));
        assert_matches_reference(&mut node, pid, &reference);
        let cs = node.engine_stats();
        assert!(
            cs.tb_chain_hits > 50,
            "loop re-dispatch must hit the jump cache"
        );
        // The jump cache serves every repeat dispatch: each hash
        // resolution is a block's first translation.
        let stats = node.cache_stats();
        assert_eq!(stats.lookups, stats.misses);
        // With no taint anywhere every block runs in the fully-clean
        // regime and all 201 memory ops (100 × ld + st, one final ld) skip
        // the shadow.
        assert_eq!((cs.fast_path_insns, cs.slow_path_insns), (201, 0));
    }

    /// Flips bit 0 of R2 (tainted, with provenance 0) at the 41st
    /// execution of the instruction at `pc`, then detaches like the
    /// campaign injector.
    struct FlipR2 {
        pc: u64,
        execs: u64,
    }
    impl crate::hooks::NodeTranslateHook for FlipR2 {
        fn inject_point(
            &self,
            _n: u32,
            _p: u64,
            pc: u64,
            _insn: &chaser_isa::Instruction,
        ) -> Option<u64> {
            (pc == self.pc).then_some(1)
        }
    }
    impl crate::hooks::InjectSink for FlipR2 {
        fn on_inject_point(
            &mut self,
            _point: u64,
            _insn: &chaser_isa::Instruction,
            ctx: &mut crate::hooks::GuestCtx<'_>,
        ) -> crate::hooks::InjectAction {
            self.execs += 1;
            if self.execs == FLIP_R2_AT {
                ctx.set_reg(Reg::R2, ctx.reg(Reg::R2) ^ 1);
                ctx.taint_reg_with_prov(
                    Reg::R2,
                    chaser_taint::TaintMask::bit(0),
                    chaser_taint::ProvSet::single(0),
                );
            }
            crate::hooks::InjectAction::default()
        }
    }
    const FLIP_R2_AT: u64 = 41;

    /// Injection flipping the taint regime in the middle of a hot loop must
    /// be exact: outcome (here the final icount via SYS_CLOCK),
    /// callback count, taint reach and the tainted-access log match the
    /// reference executor, and the fast/slow memory-op split follows the
    /// regime change.
    #[test]
    fn injection_mid_hot_loop_matches_all_knobs_off_run() {
        use parking_lot::Mutex;

        let mut a = Asm::new("sbflip");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.ld(Reg::R2, Reg::R5, 0);
        a.add(Reg::R2, Reg::R1);
        a.label("store");
        a.st(Reg::R2, Reg::R5, 0);
        a.addi(Reg::R1, 1);
        a.cmpi(Reg::R1, 100);
        a.jcc(chaser_isa::Cond::Lt, "loop");
        a.hypercall(abi::SYS_CLOCK);
        a.exit_with(Reg::R0);
        let prog = a.assemble().expect("assemble");
        let store = prog.symbol("store").expect("label");

        let mut node = Node::new(0);
        node.hooks_mut().taint_events = true;
        node.hooks_mut().translate = Some(Arc::new(FlipR2 {
            pc: store,
            execs: 0,
        }));
        let sink = Arc::new(Mutex::new(FlipR2 {
            pc: store,
            execs: 0,
        }));
        node.hooks_mut().inject = Some(sink.clone());
        let pid = node.spawn(&prog).expect("spawn");
        let status = run_to_exit(&mut node, pid, 1000);
        // Exact icount: lea + movi, 100 six-instruction iterations, and
        // the SYS_CLOCK hypercall itself.
        assert_eq!(status, ExitStatus::Exited(603));
        assert_eq!(sink.lock().execs, 100, "one callback per store execution");

        let (reference, stop) = reference_run(
            &prog,
            Some(Fault {
                pc: store,
                nth: FLIP_R2_AT,
                site: Site::Reg(Reg::R2, 0),
            }),
        );
        assert_eq!(stop, Stop::Exited(603));
        assert!(reference.tainted_bytes() > 0);
        assert_matches_reference(&mut node, pid, &reference);
        let ts = node.engine_stats();
        assert!(ts.tb_chain_hits > 50, "the jump cache must serve the loop");
        // The clean regime holds through 40 iterations and the load of the
        // 41st (81 memory ops); from the store the callback tainted
        // onwards, every memory op takes the shadow path (119).
        assert_eq!((ts.fast_path_insns, ts.slow_path_insns), (81, 119));
    }
    /// The injector sees the victim's retired-instruction count at the
    /// injection point — what `SYS_CLOCK` would read there — however the
    /// run is sliced.
    #[test]
    fn injector_icount_is_quantum_invariant_and_matches_sys_clock() {
        use crate::hooks::{GuestCtx, InjectAction, InjectSink};
        use chaser_isa::Instruction;
        use parking_lot::Mutex;

        #[derive(Default)]
        struct RecordIcount(Vec<u64>);
        impl InjectSink for RecordIcount {
            fn on_inject_point(
                &mut self,
                _point: u64,
                _insn: &Instruction,
                ctx: &mut GuestCtx<'_>,
            ) -> InjectAction {
                self.0.push(ctx.icount);
                InjectAction::default()
            }
        }

        // Five stores in a loop, each followed by a SYS_CLOCK read that is
        // written to the output file: the clock retires one instruction
        // after the store it follows.
        let mut a = Asm::new("icount");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.movi(Reg::R6, 0);
        a.label("loop");
        a.st(Reg::R6, Reg::R5, 0);
        a.hypercall(abi::SYS_CLOCK);
        a.movi(Reg::R1, abi::FD_OUTPUT as i64);
        a.mov(Reg::R2, Reg::R0);
        a.hypercall(abi::SYS_WRITE_I64);
        a.addi(Reg::R6, 1);
        a.cmpi(Reg::R6, 5);
        a.jcc(chaser_isa::Cond::Lt, "loop");
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let run_with = |quantum: u64| {
            let mut node = Node::new(0);
            node.hooks_mut().translate = Some(Arc::new(TargetStores));
            let sink = Arc::new(Mutex::new(RecordIcount::default()));
            node.hooks_mut().inject = Some(sink.clone());
            let pid = node.spawn(&prog).expect("spawn");
            let status = run_to_exit(&mut node, pid, quantum);
            assert!(status.is_success());
            let output = &node.process(pid).expect("proc").files.output;
            let clocks: Vec<u64> = std::str::from_utf8(output)
                .expect("utf8")
                .lines()
                .map(|l| l.parse().expect("clock"))
                .collect();
            let recorded = std::mem::take(&mut sink.lock().0);
            (recorded, clocks)
        };

        let (reference, clocks) = run_with(100_000);
        assert_eq!(reference.len(), 5);
        let after_store: Vec<u64> = reference.iter().map(|n| n + 1).collect();
        assert_eq!(after_store, clocks);
        for quantum in [1, 3] {
            assert_eq!(run_with(quantum), (reference.clone(), clocks.clone()));
        }
    }

    /// A sink's skip is counted down on the node instead of calling back,
    /// however the run is sliced, and what is left of it when the run ends
    /// stays readable.
    #[test]
    fn skipped_inject_points_are_counted_down_without_a_callback() {
        use crate::hooks::{GuestCtx, InjectAction, InjectSink};
        use chaser_isa::Instruction;
        use parking_lot::Mutex;

        /// Records the `icount` of each callback and skips the next store.
        #[derive(Default)]
        struct EveryOther(Vec<u64>);
        impl InjectSink for EveryOther {
            fn on_inject_point(
                &mut self,
                _point: u64,
                _insn: &Instruction,
                ctx: &mut GuestCtx<'_>,
            ) -> InjectAction {
                self.0.push(ctx.icount);
                InjectAction {
                    skip: 1,
                    ..InjectAction::default()
                }
            }
        }

        // `lea`, `movi`, then five four-instruction iterations whose store
        // retires as instruction 3, 7, 11, 15, 19.
        let mut a = Asm::new("skip");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.movi(Reg::R6, 0);
        a.label("loop");
        a.st(Reg::R6, Reg::R5, 0);
        a.addi(Reg::R6, 1);
        a.cmpi(Reg::R6, 5);
        a.jcc(chaser_isa::Cond::Lt, "loop");
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        for quantum in [1, 3, 100_000] {
            let mut node = Node::new(0);
            node.hooks_mut().translate = Some(Arc::new(TargetStores));
            let sink = Arc::new(Mutex::new(EveryOther::default()));
            node.hooks_mut().inject = Some(sink.clone());
            let pid = node.spawn(&prog).expect("spawn");
            assert!(run_to_exit(&mut node, pid, quantum).is_success());
            assert_eq!(sink.lock().0, [3, 11, 19], "quantum {quantum}");
            // The last callback's skip found no store to count down.
            assert_eq!(node.hooks_mut().inject_countdown.left(), 1);
        }
    }

    /// Any live taint ends the fully-clean regime, and outside it every
    /// memory op takes the shadow path — a load from a page no taint has
    /// reached included (there is no taint-idle middle tier): its page
    /// summary makes it cheap, not a different tier.
    #[test]
    fn taint_fast_path_flips_to_slow_when_taint_appears() {
        use chaser_taint::TaintMask;

        let mut a = Asm::new("flip");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.ld(Reg::R2, Reg::R5, 0); // fast: nothing tainted
        a.hypercall(chaser_isa::abi::MPI_BARRIER); // park: taint a register
        a.ld(Reg::R3, Reg::R5, 0); // slow: taint is live, memory clean
        a.hypercall(chaser_isa::abi::MPI_BARRIER); // park: taint memory
        a.ld(Reg::R4, Reg::R5, 0); // slow: the load sees the mask
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let buf = prog.symbol("buf").expect("buf");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert!(matches!(node.run_slice(pid, 100), SliceExit::MpiCall(_)));
        let before = node.engine_stats();
        assert_eq!((before.fast_path_insns, before.slow_path_insns), (1, 0));

        node.taint_mut().set_reg(Reg::R9, TaintMask::bit(0));
        node.complete_mpi(pid, 0);
        assert!(matches!(node.run_slice(pid, 100), SliceExit::MpiCall(_)));
        let mid = node.engine_stats();
        assert_eq!((mid.fast_path_insns, mid.slow_path_insns), (1, 1));
        assert!(node.taint().mem_idle(), "memory is still untainted");
        assert!(node.taint().reg(Reg::R3).is_clean());

        node.write_guest_taint(pid, buf, &[0xff]).expect("taint");
        node.complete_mpi(pid, 0);
        let status = run_to_exit(&mut node, pid, 100);
        assert!(status.is_success());
        let after = node.engine_stats();
        assert_eq!((after.fast_path_insns, after.slow_path_insns), (1, 2));
        // The tainted load must still see its mask.
        assert_eq!(node.taint().reg(Reg::R4), TaintMask(0xff));
    }

    /// Temps are dead at every block boundary: a block that ends with a
    /// tainted temp and nothing else tainted must not keep the next block
    /// out of the fully-clean regime.
    #[test]
    fn dead_tainted_temps_do_not_gate_the_next_block() {
        use chaser_taint::TaintMask;
        use chaser_tcg::Temp;

        let mut a = Asm::new("deadtemp");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.movi(Reg::R9, 0);
        a.hypercall(abi::MPI_BARRIER); // park: taint R9
        a.ldx(Reg::R2, Reg::R5, Reg::R9); // its address temps take R9's taint
        a.movi(Reg::R9, 0); // the register is clean again, the temps are not
        a.hypercall(abi::MPI_BARRIER); // park: only dead temps are tainted
        a.ld(Reg::R3, Reg::R5, 0); // fully clean: no shadow
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        assert!(matches!(node.run_slice(pid, 100), SliceExit::MpiCall(_)));
        node.taint_mut().set_reg(Reg::R9, TaintMask::bit(0));
        node.complete_mpi(pid, 0);
        assert!(matches!(node.run_slice(pid, 100), SliceExit::MpiCall(_)));
        let mid = node.engine_stats();
        assert_eq!((mid.fast_path_insns, mid.slow_path_insns), (0, 1));
        assert!(
            node.taint().temp(Temp::local(2)).is_tainted(),
            "a dead temp holds taint"
        );
        assert!(node.taint().regs_idle() && node.taint().mem_idle());

        node.complete_mpi(pid, 0);
        assert!(run_to_exit(&mut node, pid, 100).is_success());
        let after = node.engine_stats();
        assert_eq!((after.fast_path_insns, after.slow_path_insns), (1, 1));
    }

    /// A function hook on an instruction in the middle of a block sees the
    /// registers the block's earlier ops wrote, and the op after it reads
    /// what the hook wrote: the engine's operand frame is written back to
    /// the CPU before the hook runs and reloaded from it afterwards.
    #[test]
    fn fn_hook_mid_block_sees_and_sets_the_live_registers() {
        use crate::hooks::GuestCtx;
        use parking_lot::Mutex;

        struct Swap {
            seen: Option<(u64, f64)>,
        }
        impl crate::hooks::FnHookSink for Swap {
            fn on_fn_entry(&mut self, hook_id: u64, ctx: &mut GuestCtx<'_>) {
                assert_eq!(hook_id, 9);
                self.seen = Some((ctx.reg(Reg::R1), f64::from_bits(ctx.freg_bits(FReg::F1))));
                ctx.set_reg(Reg::R1, 100);
                ctx.set_freg_bits(FReg::F1, 10.0f64.to_bits());
            }
        }

        let mut a = Asm::new("fnhook");
        a.movi(Reg::R1, 5);
        a.fmovi(FReg::F1, 1.5);
        a.label("hooked");
        a.addi(Reg::R1, 1);
        a.cvtfi(Reg::R2, FReg::F1);
        a.add(Reg::R1, Reg::R2);
        a.exit_with(Reg::R1);
        let prog = a.assemble().expect("assemble");
        let hooked = prog.symbol("hooked").expect("hooked");

        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        let sink = Arc::new(Mutex::new(Swap { seen: None }));
        node.hooks_mut().fn_hooks.insert((pid, hooked), 9);
        node.hooks_mut().fn_hook_sink = Some(sink.clone());
        // One slice, one block: the hooked instruction is its third.
        assert_eq!(
            run_to_exit(&mut node, pid, 1_000_000),
            ExitStatus::Exited(111)
        );
        assert_eq!(node.cache_stats().misses, 1, "the program is one block");
        assert_eq!(sink.lock().seen, Some((5, 1.5)));
    }

    /// Host-side taint a process receives while parked at its first
    /// `MPI_BARRIER`: the masks of the bytes from `offset` into `buf` on,
    /// and which of them derive from fault 3.
    struct HostTaint {
        offset: u64,
        masks: Vec<u8>,
        prov: Vec<bool>,
    }

    /// Runs `prog` up to its first `MPI_BARRIER` park on the engine (taint
    /// events on) and on the reference, applies `host` to both, runs both
    /// to a successful exit and checks that they agree.
    fn run_parked(prog: &chaser_isa::Program, host: &HostTaint) -> (Node, u64, Oracle) {
        let vaddr = prog.symbol("buf").expect("buf") + host.offset;
        let provs: Vec<ProvSet> = host
            .prov
            .iter()
            .map(|p| {
                if *p {
                    ProvSet::single(3)
                } else {
                    ProvSet::EMPTY
                }
            })
            .collect();
        let mut node = Node::new(0);
        node.hooks_mut().taint_events = true;
        let pid = node.spawn(prog).expect("spawn");
        assert!(matches!(node.run_slice(pid, 1000), SliceExit::MpiCall(_)));
        node.write_guest_taint(pid, vaddr, &host.masks)
            .expect("taint");
        node.write_guest_prov(pid, vaddr, &provs).expect("prov");
        node.complete_mpi(pid, 0);
        assert!(run_to_exit(&mut node, pid, 1000).is_success());

        let mut reference = Oracle::new(prog, crate::mem::DEFAULT_PHYS_BYTES);
        assert_eq!(reference.run(u64::MAX), Stop::Mpi(abi::MPI_BARRIER));
        reference.taint_bytes(vaddr, &host.masks);
        reference.prov_bytes(vaddr, &host.prov);
        reference.complete(0);
        assert_eq!(reference.run(u64::MAX), Stop::Exited(0));
        (node, pid, reference)
    }

    fn events(
        node: &mut Node,
    ) -> Vec<(crate::hooks::TaintAccessKind, crate::hooks::TaintMemEvent)> {
        node.take_taint_events()
            .into_iter()
            .map(|e| (e.kind, e.ev))
            .collect()
    }

    /// With taint in memory only, a block runs in the clean-register
    /// regime until a load reads a tainted mask: that load must record the
    /// exact read event, and the ops after it must propagate — the same
    /// events, register shadows and memory shadow as the reference.
    #[test]
    fn tainted_load_mid_block_leaves_the_clean_register_regime() {
        use crate::hooks::TaintAccessKind;
        use chaser_taint::TaintMask;

        let mut a = Asm::new("taintedload");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.hypercall(abi::MPI_BARRIER); // park: taint buf[8..16] in memory only
        a.movi(Reg::R1, 7);
        a.ld(Reg::R2, Reg::R5, 0); // clean mask: the regime holds
        a.add(Reg::R1, Reg::R2);
        a.label("tainted_ld");
        a.ld(Reg::R3, Reg::R5, 8); // tainted mask: the regime ends
        a.add(Reg::R3, Reg::R1);
        a.mov(Reg::R4, Reg::R3);
        a.st(Reg::R4, Reg::R5, 16);
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let buf = prog.symbol("buf").expect("buf");
        let p = ProvSet::single(3);
        let host = HostTaint {
            offset: 8,
            masks: vec![0x01, 0, 0x80],
            prov: vec![true, false, true],
        };
        let (mut node, pid, reference) = run_parked(&prog, &host);

        let fast_events = assert_matches_reference(&mut node, pid, &reference);
        let reads: Vec<_> = fast_events
            .iter()
            .filter(|(kind, _)| *kind == TaintAccessKind::Read)
            .map(|(_, ev)| ev)
            .collect();
        assert_eq!(reads.len(), 1);
        // lea, hypercall, movi, ld, add: the tainted load retires sixth.
        let r = reads[0];
        assert_eq!(
            (r.eip, r.vaddr, r.icount, r.taint, r.prov),
            (
                prog.symbol("tainted_ld").expect("label"),
                buf + 8,
                6,
                TaintMask(0x80_0001),
                p
            )
        );
        assert!(fast_events
            .iter()
            .any(|(kind, ev)| *kind == TaintAccessKind::Write
                && ev.vaddr == buf + 16
                && ev.prov == p));
        for r in [Reg::R3, Reg::R4] {
            assert!(
                node.taint().reg(r).is_tainted(),
                "{r:?} must carry the load's taint"
            );
            assert_eq!(node.taint().reg_prov(r), p);
        }
    }

    /// In the clean-register regime a store writes a clean mask with empty
    /// provenance, clearing whatever taint the bytes held.
    #[test]
    fn clean_store_over_tainted_bytes_clears_mask_and_provenance() {
        let mut a = Asm::new("cleanstore");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.hypercall(abi::MPI_BARRIER); // park: taint buf[0..8] in memory only
        a.movi(Reg::R2, 5);
        a.st(Reg::R2, Reg::R5, 0);
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let buf = prog.symbol("buf").expect("buf");
        let host = HostTaint {
            offset: 0,
            masks: vec![0xff; 8],
            prov: vec![true; 8],
        };
        let (mut node, pid, reference) = run_parked(&prog, &host);
        assert_eq!(node.read_guest_taint(pid, buf, 8).expect("taint"), [0; 8]);
        assert_eq!(
            node.read_guest_prov(pid, buf, 8).expect("prov"),
            [ProvSet::EMPTY; 8]
        );
        assert!(node.taint().fully_idle());
        assert!(
            reference.accesses.is_empty(),
            "a clean store records no event"
        );
        assert_matches_reference(&mut node, pid, &reference);
    }

    /// Tainted memory and clean registers: the clean-register regime drops
    /// the per-op shadow work but not the memory shadow, so every memory op
    /// still takes the page-gated shadow path, and the end state is the
    /// reference's.
    #[test]
    fn clean_register_regime_keeps_the_memory_op_tiers() {
        let mut a = Asm::new("tiers");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.hypercall(abi::MPI_BARRIER); // park: taint buf[32..40], never read
        a.ld(Reg::R2, Reg::R5, 0);
        a.addi(Reg::R2, 1);
        a.st(Reg::R2, Reg::R5, 8);
        a.ld(Reg::R3, Reg::R5, 8);
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let host = HostTaint {
            offset: 32,
            masks: vec![0xff],
            prov: vec![false],
        };
        let (mut node, pid, reference) = run_parked(&prog, &host);
        let s = node.engine_stats();
        assert_eq!((s.fast_path_insns, s.slow_path_insns), (0, 3));
        assert!(node.taint().regs_idle());
        assert_eq!(node.taint().mem().tainted_bytes(), 1);
        assert_matches_reference(&mut node, pid, &reference);
    }

    /// An injection callback is the one in-block taint source: firing
    /// mid-block must drop the engine out of the fully-clean regime, and
    /// the injected taint must propagate through the rest of the same
    /// block — a store *after* the callback carries it into shadow memory.
    #[test]
    fn injection_mid_block_leaves_the_clean_regime() {
        use crate::hooks::{GuestCtx, InjectAction, InjectSink};
        use chaser_isa::Instruction;
        use chaser_taint::TaintMask;
        use parking_lot::Mutex;

        struct TaintR2 {
            fired: u32,
        }
        impl InjectSink for TaintR2 {
            fn on_inject_point(
                &mut self,
                _point: u64,
                _insn: &Instruction,
                ctx: &mut GuestCtx<'_>,
            ) -> InjectAction {
                if self.fired == 0 {
                    ctx.taint_reg(Reg::R2, TaintMask::bit(0));
                }
                self.fired += 1;
                InjectAction::default()
            }
        }

        // One straight-line block: the load runs clean, the callback on
        // the store taints R2 right before it executes.
        let mut a = Asm::new("inject");
        a.bss("buf", 64);
        a.lea(Reg::R5, "buf");
        a.ld(Reg::R2, Reg::R5, 0);
        a.st(Reg::R2, Reg::R5, 8);
        a.exit(0);
        let prog = a.assemble().expect("assemble");

        let mut node = Node::new(0);
        node.hooks_mut().translate = Some(Arc::new(TargetStores));
        let sink = Arc::new(Mutex::new(TaintR2 { fired: 0 }));
        node.hooks_mut().inject = Some(sink.clone());
        let pid = node.spawn(&prog).expect("spawn");
        let status = run_to_exit(&mut node, pid, 100_000);
        assert!(status.is_success());
        assert_eq!(sink.lock().fired, 1, "one store, one callback");
        // The injected taint reached shadow memory through the store that
        // followed the callback in the same block...
        assert!(node.taint().mem().tainted_bytes() > 0);
        // ...which is only possible off the clean regime: the tainted
        // store ran the full slow path.
        assert!(node.engine_stats().slow_path_insns >= 1);
    }

    /// The rank-parallel scheduler moves whole nodes onto worker threads;
    /// everything a node owns (memory, processes, cache, taint, hooks)
    /// must therefore be `Send`.
    #[test]
    fn nodes_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Node>();
        assert_send::<NodeSnapshot>();
    }

    #[test]
    fn cache_stats_reflect_execution() {
        let mut a = Asm::new("cachestats");
        a.movi(Reg::R1, 0);
        a.label("loop");
        a.addi(Reg::R1, 1);
        a.cmpi(Reg::R1, 100);
        a.jcc(chaser_isa::Cond::Lt, "loop");
        a.exit(0);
        let (node, _, status) = run(&a.assemble().expect("assemble"));
        assert!(status.is_success());
        // The entry block, the loop body and the exit translate once each;
        // the loop body's 98 re-dispatches translate nothing.
        assert_eq!(node.cache_stats().misses, 3);
        assert!(
            node.engine_stats().tb_chain_hits >= 98,
            "the loop body must hit"
        );
    }
}

#[cfg(test)]
mod guest_taint_props {
    use super::*;
    use chaser_isa::Asm;
    use chaser_taint::ProvSet;
    use proptest::prelude::*;

    /// A window of virtual pages no program maps: the tests map some of
    /// them and leave the others as holes.
    const WINDOW: u64 = 0x2000_0000;
    const PAGES: usize = 5;

    /// A node with one process whose window pages `mapped[i]` are mapped.
    fn node_with(mapped: &[bool]) -> (Node, u64) {
        let mut a = Asm::new("window");
        a.exit(0);
        let prog = a.assemble().expect("assemble");
        let mut node = Node::new(0);
        let pid = node.spawn(&prog).expect("spawn");
        let idx = node.index(pid).expect("pid");
        for (i, _) in mapped.iter().enumerate().filter(|(_, &m)| m) {
            node.procs[idx]
                .aspace
                .map_region(
                    &mut node.phys,
                    WINDOW + i as u64 * PAGE_SIZE,
                    PAGE_SIZE,
                    PagePerms::RW,
                )
                .expect("map");
        }
        (node, pid)
    }

    // Per-byte reference accessors: the oracle for the page-granular ones.

    fn ref_read_taint(node: &Node, pid: u64, vaddr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let proc = node.process(pid).expect("pid");
        let mut out = Vec::new();
        for i in 0..len {
            let paddr = proc.aspace.translate_read(vaddr + i)?;
            out.push(node.taint.mem().byte(paddr));
        }
        Ok(out)
    }

    fn ref_write_taint(
        node: &mut Node,
        pid: u64,
        vaddr: u64,
        masks: &[u8],
    ) -> Result<(), MemFault> {
        let idx = node.index(pid).expect("pid");
        for (i, m) in masks.iter().enumerate() {
            let paddr = node.procs[idx].aspace.translate_read(vaddr + i as u64)?;
            node.taint.mem_mut().set_byte(paddr, *m);
        }
        Ok(())
    }

    fn ref_read_prov(
        node: &Node,
        pid: u64,
        vaddr: u64,
        len: u64,
    ) -> Result<Vec<ProvSet>, MemFault> {
        let proc = node.process(pid).expect("pid");
        let mut out = Vec::new();
        for i in 0..len {
            let paddr = proc.aspace.translate_read(vaddr + i)?;
            out.push(node.taint.prov_byte(paddr));
        }
        Ok(out)
    }

    fn ref_write_prov(
        node: &mut Node,
        pid: u64,
        vaddr: u64,
        provs: &[ProvSet],
    ) -> Result<(), MemFault> {
        let idx = node.index(pid).expect("pid");
        for (i, p) in provs.iter().enumerate() {
            let paddr = node.procs[idx].aspace.translate_read(vaddr + i as u64)?;
            node.taint.set_prov_byte(paddr, *p);
        }
        Ok(())
    }

    /// Expands `(run, kind, value)` segments into `len` bytes: clean runs
    /// (kind 0), solid runs (1) and alternating runs (2); clean past the
    /// last segment.
    fn pattern(len: usize, segs: &[(usize, u8, u8)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for &(run, kind, value) in segs {
            for i in 0..run.min(len - out.len()) {
                out.push(match kind {
                    0 => 0,
                    1 => value,
                    _ if i % 2 == 0 => value,
                    _ => 0,
                });
            }
        }
        out.resize(len, 0);
        out
    }

    /// `(kind, vaddr, len, segments)`: kinds 0/1 write masks/provenance,
    /// 2/3 read them. Ranges start up to a page before the window and run
    /// up to three pages, so they straddle pages and holes.
    type GuestOp = (u8, u64, u64, Vec<(usize, u8, u8)>);

    fn arb_guest_op() -> impl Strategy<Value = GuestOp> {
        let page = PAGE_SIZE as usize;
        let segs = proptest::collection::vec(
            (
                prop_oneof![1usize..16, 16usize..2 * page],
                0u8..3,
                any::<u8>(),
            ),
            0..5,
        );
        (
            0u8..4,
            WINDOW - PAGE_SIZE..WINDOW + PAGES as u64 * PAGE_SIZE,
            prop_oneof![0u64..64, 0u64..3 * PAGE_SIZE],
            segs,
        )
    }

    /// Everything the shadow can show through the public surface.
    #[derive(Debug, PartialEq)]
    struct ShadowView {
        pages: Vec<(u64, Vec<u8>)>,
        provs: Vec<(u64, ProvSet)>,
        tainted_bytes: usize,
        provenanced_bytes: usize,
        prov_any: bool,
    }

    fn shadow_view(node: &Node) -> ShadowView {
        let taint = node.taint();
        let mut pages = Vec::new();
        taint
            .mem()
            .for_each_tainted_page(|base, masks| pages.push((base, masks.to_vec())));
        let mut provs = Vec::new();
        taint.prov_mem().for_each(|paddr, p| provs.push((paddr, p)));
        ShadowView {
            pages,
            provs,
            tainted_bytes: taint.mem().tainted_bytes(),
            provenanced_bytes: taint.prov_mem().provenanced_bytes(),
            prov_any: taint.prov_any(),
        }
    }

    proptest! {
        /// The page-granular guest accessors against the per-byte loops:
        /// the same `Ok`/`Err` (fault vaddr included), the same bytes read,
        /// the same written prefix before a hole, and the same counters and
        /// page summaries, with provenance off until a non-empty set lands.
        #[test]
        fn page_granular_accessors_match_per_byte_loops(
            mapped in proptest::collection::vec(
                proptest::sample::select(vec![true, true, true, false]),
                PAGES,
            ),
            ops in proptest::collection::vec(arb_guest_op(), 1..12),
        ) {
            let (mut bulk, pid) = node_with(&mapped);
            let (mut byte, _) = node_with(&mapped);
            for (kind, vaddr, len, segs) in &ops {
                let (vaddr, len) = (*vaddr, *len);
                let bytes = pattern(len as usize, segs);
                let sets: Vec<ProvSet> =
                    bytes.iter().map(|&b| ProvSet::from_bits(u32::from(b) << 3)).collect();
                match kind {
                    0 => prop_assert_eq!(
                        bulk.write_guest_taint(pid, vaddr, &bytes),
                        ref_write_taint(&mut byte, pid, vaddr, &bytes)
                    ),
                    1 => prop_assert_eq!(
                        bulk.write_guest_prov(pid, vaddr, &sets),
                        ref_write_prov(&mut byte, pid, vaddr, &sets)
                    ),
                    2 => prop_assert_eq!(
                        bulk.read_guest_taint(pid, vaddr, len),
                        ref_read_taint(&byte, pid, vaddr, len)
                    ),
                    _ => prop_assert_eq!(
                        bulk.read_guest_prov(pid, vaddr, len),
                        ref_read_prov(&byte, pid, vaddr, len)
                    ),
                }
                prop_assert_eq!(shadow_view(&bulk), shadow_view(&byte));
                for page in 0..PAGES as u64 {
                    let Ok(paddr) = bulk.procs[0].aspace.translate_read(WINDOW + page * PAGE_SIZE)
                    else {
                        continue;
                    };
                    prop_assert_eq!(
                        bulk.taint().mem().page_tainted_bytes(paddr),
                        byte.taint().mem().page_tainted_bytes(paddr)
                    );
                }
            }
        }
    }
}
