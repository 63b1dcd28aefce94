//! # chaser
//!
//! A Rust reproduction of **Chaser** (Guan et al., DSN 2020): a
//! fine-grained, accountable, flexible and efficient fault-injection and
//! fault-propagation-tracing framework for (MPI) applications.
//!
//! The original is built on QEMU/DECAF; this implementation runs guest
//! programs on a simulated whole-system stack (`chaser-isa` / `chaser-tcg`
//! / `chaser-vm` / `chaser-taint` / `chaser-mpi` / `chaser-tainthub`) that
//! preserves the mechanisms the paper contributes:
//!
//! * **Just-in-time fault injection** — only instructions matching the
//!   [`InjectionSpec`] are instrumented, by splicing a callback into their
//!   dynamic-binary-translation output when the target process is detected
//!   via VMI; the translation cache is flushed to attach and detach the
//!   injector ([`Injector`]).
//! * **Fault-propagation tracing** — injected faults become bitwise taint
//!   sources; tainted memory reads/writes are logged with eip, virtual and
//!   physical address, taint mask and value ([`TaintRecorder`]), and
//!   cross-rank propagation is synchronised through the TaintHub. The trace
//!   summary and the provenance graph are two views of that one log.
//! * **Flexible interfaces** — fault models are plugins over exported
//!   interfaces ([`FiPlugin`], [`PluginHost`]); the three stock models
//!   (probabilistic, deterministic, group — the paper's Table I) each cost
//!   about 100 lines ([`models`]).
//! * **Campaigns** — thousands of seeded single-fault runs in parallel,
//!   classified benign / SDC / terminated against a golden run
//!   ([`Campaign`]), with the paper's Table III termination attribution.
//!
//! # Quickstart
//!
//! ```
//! use chaser::{AppSpec, Chaser, DeterministicInjector, RunOptions};
//! use chaser_isa::{Asm, FReg, Reg};
//!
//! // A tiny FP guest program.
//! let mut a = Asm::new("demo");
//! a.fmovi(FReg::F0, 1.0);
//! a.fmovi(FReg::F1, 2.0);
//! a.fadd(FReg::F0, FReg::F1);
//! a.exit(0);
//! let app = AppSpec::single(a.assemble().expect("assemble"));
//!
//! // Load the deterministic fault model and arm it from its command.
//! let mut chaser = Chaser::new();
//! chaser.load_plugin(&mut DeterministicInjector);
//! chaser
//!     .exec_command("inject_fault demo fadd 1 51")
//!     .expect("arm injector");
//!
//! let report = chaser.run_pending(&app);
//! assert!(report.injected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod injector;
mod journal;
pub mod models;
mod outcome;
mod plugin;
mod provenance;
mod session;
mod shard;
mod spec;
mod tracer;

pub use campaign::{
    Campaign, CampaignConfig, CampaignResult, OutcomeCounts, PoolStats, RankPool, RunOutcome,
    SiteVulnerability, TerminationBreakdown,
};
pub use injector::{
    effective_address, operand_candidates, FnHookLogger, InjectionRecord, Injector, InjectorHandle,
    OperandLoc, ProfileHandle, ProfileHook,
};
pub use journal::{
    class_from_name, class_name, encode as encode_json, golden_digest, parse_json, CampaignJournal,
    JournalError, JournalHeader, JournalRow, Json, ShardMeta, DEFAULT_SYNC_ROWS, JOURNAL_VERSION,
};
pub use models::{
    DeterministicInjector, GroupInjector, IntermittentInjector, ProbabilisticInjector,
};
pub use outcome::{classify, diff_outputs, CorruptedRegion, Outcome, TermCause};
pub use plugin::{CommandSpec, FiInterface, FiPlugin, HostState, PluginError, PluginHost};
pub use provenance::{
    ProvFlowEdge, ProvSite, ProvenanceGraph, SinkClass, SinkKind, PROV_LOG_CAPACITY,
    UNRESOLVED_RANK,
};
pub use session::{
    prepare_app, profile_app, run_app, run_prepared, run_warm, warm_start_for, AppSpec, Chaser,
    HookRegistry, PreparedApp, RunOptions, RunReport, SnapshotStats, TraceRegime, WarmStart,
    WarmStartOptions,
};
pub use shard::{
    is_shard_lost, merge_shard_journals, shard_journal_path, ChaosKind, ShardChaos, ShardError,
    ShardPlan, ShardReport, ShardStats, ShardSupervision, ShardWorkers, StopSignal,
    ENV_SHARD_CHAOS, ENV_SHARD_JOURNAL,
};

// Re-exported so provenance consumers can name a graph's message edges
// without depending on chaser-mpi.
pub use chaser_mpi::CrossRankEdge;
// Re-exported so cache-aware callers (harnesses, campaign analyses) can name
// the layered-translation-cache types without depending on chaser-tcg.
pub use chaser_tcg::{BaseLayer, CacheStats};
pub use spec::{Corruption, InjectionSpec, OperandSel, Trigger};
pub use tracer::{AccessKind, TaintRecorder, TraceEvent, TraceSummary, TracerConfig};

#[cfg(test)]
mod surface_tests {
    #[test]
    fn handles_are_send_where_needed() {
        // Campaign fan-out moves specs and results across threads.
        fn assert_send<T: Send>() {}
        assert_send::<crate::InjectionSpec>();
        assert_send::<crate::CampaignResult>();
        assert_send::<crate::AppSpec>();
    }
}
