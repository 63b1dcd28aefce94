//! # chaser-mpi
//!
//! A simulated MPI runtime over a multi-node cluster of `chaser-vm` nodes,
//! replacing the real 4-node Xeon/10GbE testbed of the Chaser paper.
//!
//! Guest programs call MPI through hypercalls wrapped in guest library
//! functions (`chaser-workloads` provides the wrappers). The [`Cluster`]
//! schedules ranks round-robin in deterministic instruction-quanta, routes
//! point-to-point messages through a latency-modelled [`Interconnect`], and
//! executes collectives (barrier/bcast/reduce/allreduce/scatter/gather).
//!
//! Fault-injection-relevant behaviour is modelled deliberately:
//!
//! * a *corrupted buffer pointer* passed to send/recv faults inside the
//!   "MPI library" and kills the rank with `SIGSEGV` (an OS exception, like
//!   real MPI);
//! * a *corrupted count / datatype / destination rank* is caught by MPI
//!   argument validation and aborts the job with an
//!   [`MpiErrorKind`] — the paper's "MPI error detected" terminations;
//! * a rank that dies mid-communication surfaces as
//!   [`MpiErrorKind::RankDied`] on its peers — the "slave node failed" row
//!   of the paper's Table III;
//! * a communication pattern that can no longer make progress is detected
//!   as a hang.
//!
//! Point-to-point taint crosses through the paper's TaintHub: a tainted
//! send publishes its masks and provenance to `chaser-tainthub`, and every
//! receive polls it for the matching record. Collectives move taint
//! directly, buffer to buffer, not through the hub. Both paths carry a
//! payload's bytes, masks and provenance with one mover and record each
//! tainted delivery as one [`CrossRankEdge`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod collective;
mod envelope;
mod net;
mod pool;
mod service;
mod snapshot;

pub use cluster::{
    BudgetKind, Cluster, ClusterConfig, ClusterRun, CrossRankEdge, HangRank, MpiObserver,
    ParallelStats, PendingOp, RoundReport, RunBudget, SharedMpiObserver,
};
pub use envelope::{Envelope, MpiError, MpiErrorKind, MAX_MSG_BYTES};
pub use net::{Interconnect, NetStats};
pub use snapshot::{ClusterSnapshot, Fnv1a};
