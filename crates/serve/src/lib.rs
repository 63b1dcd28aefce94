//! # chaser-serve
//!
//! Campaign-as-a-service: the long-running front-end over Chaser's
//! fault-injection machinery. A daemon listens on a Unix or TCP socket and
//! speaks a line-delimited JSON protocol whose wire format is the campaign
//! journal's own hand-rolled codec ([`chaser::Json`] /
//! [`chaser::parse_json`] / [`chaser::encode_json`]). Tenants submit
//! [`CampaignSpec`] jobs — application, fault model, budget, shard and
//! thread policy — which pass admission control (bounded queue, per-tenant
//! run budgets), execute through the existing shard supervisor (crash/hang
//! recovery and quarantine come for free), and stream their outcome rows
//! back to the submitting client *as they are journaled*.
//!
//! Concurrent campaigns with the same prepare-relevant configuration
//! (application, classes, tracing regime) share one warmed
//! [`chaser::PreparedApp`] — golden translation-block base layer plus
//! checkpoint ladder — through an LRU [`PreparedPool`] with hit, miss and
//! eviction counters ([`chaser::PoolStats`]). `drain` is a graceful
//! shutdown: admission stops, in-flight shards finish or checkpoint at run
//! granularity via [`chaser::StopSignal`], and every interrupted job stays
//! resumable from its shard journals — a restarted daemon requeues and
//! finishes it with merged output byte-identical to an uninterrupted run.
//!
//! Every served campaign's outcome and stats CSVs are byte-identical to an
//! equivalent standalone [`chaser::Campaign::run`] — the service adds
//! scheduling and pooling around the deterministic core, never inside it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod client;
mod daemon;
#[cfg(test)]
#[path = "../../../tests/support/damage.rs"]
mod damage;
#[cfg(test)]
mod fixtures;
mod pool;
mod proto;
mod spec;

pub use apps::{app_names, build_app};
pub use client::{drain, results, status, submit};
pub use daemon::{shard_worker_from_spec_env, Daemon, ServeConfig, ServeError};
pub use pool::PreparedPool;
pub use proto::{read_frame, write_frame, Frame, JobResults, JobSummary, StatusReport};
pub use spec::{CampaignSpec, SpecError};
