//! # chaser-vm
//!
//! The whole-system virtual machine underneath Chaser: guest physical
//! memory, paged per-process address spaces, an OS-lite kernel (signals,
//! syscalls, process lifecycle), VMI-style introspection events, and the
//! TCG-IR execution engine that drives value computation and bitwise taint
//! propagation in lock-step.
//!
//! This crate stands in for the QEMU/DECAF virtual machine the paper builds
//! on. The correspondence:
//!
//! | Paper (QEMU/DECAF)                  | Here                               |
//! |-------------------------------------|------------------------------------|
//! | guest VM with physical RAM          | [`Node`] + [`PhysMemory`]          |
//! | process address spaces (CR3)        | [`AddressSpace`] (asid = pid)      |
//! | VMI process-creation events         | [`VmiSink`]                        |
//! | `DECAF_inject_fault` callback       | [`InjectSink`]                     |
//! | `DECAF_READ/WRITE_TAINTMEM_CB`      | [`TaintEventSink`]                 |
//! | guest function hooking (MPI calls)  | [`FnHookSink`] + symbol addresses  |
//! | OS signals (SIGSEGV/SIGFPE/SIGILL)  | [`Signal`]                         |
//!
//! A [`Node`] is one simulated machine; `chaser-mpi` assembles several into
//! a cluster. Guest execution proceeds in slices ([`Node::run_slice`]) so a
//! cluster scheduler can interleave ranks deterministically.
//!
//! The engine finds every block through one translation-cache lookup,
//! fronted by the cache's direct-mapped jump cache. Its fast paths — the
//! taint regimes that skip shadow work while no register (or nothing at
//! all) is tainted — are always on. The crate's tests check them against an independent
//! reference executor (`tests/support/oracle.rs`) that steps decoded
//! instructions over a flat byte map with per-byte taint masks and shares
//! nothing with the engine but the ISA types.
//!
//! # Example
//!
//! Run a tiny program to completion on a single node:
//!
//! ```
//! use chaser_isa::{Asm, Reg};
//! use chaser_vm::{ExitStatus, Node, SliceExit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new("demo");
//! a.movi(Reg::R1, 41);
//! a.addi(Reg::R1, 1);
//! a.exit_with(Reg::R1);
//! let prog = a.assemble()?;
//!
//! let mut node = Node::new(0);
//! let pid = node.spawn(&prog)?;
//! let exit = node.run_slice(pid, 1_000_000);
//! assert!(matches!(exit, SliceExit::Exited(ExitStatus::Exited(42))));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod hooks;
mod kernel;
mod mem;
mod node;
mod paging;
mod process;
mod vmi;

pub use engine::EngineStats;
pub use hooks::{
    BufferedTaintEvent, FnHookSink, GuestCtx, InjectAction, InjectCountdown, InjectSink, NodeHooks,
    NodeTranslateHook, SharedFnHookSink, SharedInjectSink, SharedTaintSink, SharedTranslateHook,
    SharedVmiSink, TaintAccessKind, TaintEventSink, TaintMemEvent,
};
pub use kernel::{ExitStatus, Signal};
pub use mem::{MemFault, MemFaultKind, MemSnapshot, MemStats, PhysMemory, DEFAULT_PHYS_BYTES};
pub use node::{Node, NodeSnapshot, SliceExit, SpawnError};
pub use paging::{AddressSpace, PagePerms};
pub use process::{MpiRequest, ProcState, Process, ProcessFiles};
pub use vmi::{VmiAction, VmiSink};

// Re-exported so cache-sharing callers can name the layered-cache types
// without a direct chaser-tcg dependency.
pub use chaser_tcg::{BaseLayer, CacheStats};
