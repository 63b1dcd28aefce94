//! The taint-event recorder: one log of a run's tainted-memory accesses,
//! and the two views built from it — the trace summary and the provenance
//! graph.
//!
//! This is the "accountable" half of Chaser. The recorder is the cluster's
//! taint sink (the paper's `DECAF_READ_TAINTMEM_CB` /
//! `DECAF_WRITE_TAINTMEM_CB`) and logs, per access: eip, virtual address,
//! physical address, taint mask, current value, provenance bits and
//! instruction count — the fields the paper logs for post-analysis — plus
//! the scheduler round and MPI rank the cluster stamps on each batch. Every
//! analysis is a view of that one log:
//!
//! * [`TraceSummary`], when tracing: exact read/write counters and
//!   per-process maps, the first [`TracerConfig::log_capacity`] events, and
//!   the tainted-bytes series the session samples every `sample_interval`
//!   instructions (the Fig. 7 series);
//! * [`ProvenanceGraph`], when recording provenance: the first
//!   [`PROV_LOG_CAPACITY`] events plus the cross-rank message edges the
//!   recorder collects as the cluster's MPI observer.

use crate::provenance::{kind_name, ProvenanceGraph, PROV_LOG_CAPACITY, UNRESOLVED_RANK};
use chaser_mpi::{CrossRankEdge, MpiObserver};
pub use chaser_vm::TaintAccessKind as AccessKind;
use chaser_vm::{BufferedTaintEvent, TaintEventSink};
use std::collections::HashMap;

/// One logged tainted-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Read or write.
    pub kind: AccessKind,
    /// MPI rank of the accessing process ([`UNRESOLVED_RANK`] when the
    /// process is not a rank).
    pub rank: u32,
    /// Node of the access.
    pub node: u32,
    /// Accessing process.
    pub pid: u64,
    /// Instruction pointer.
    pub eip: u64,
    /// Guest virtual address.
    pub vaddr: u64,
    /// Guest physical address.
    pub paddr: u64,
    /// Taint mask of the 8 accessed bytes.
    pub taint: u64,
    /// Value at the location (the *tainted value* as currently computed).
    pub value: u64,
    /// Raw [`chaser_taint::ProvSet`] bits of the access (0 when the taint
    /// carries no fault provenance).
    pub prov: u32,
    /// Cluster scheduler round of the access.
    pub round: u64,
    /// Process instruction count at the access.
    pub icount: u64,
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Keep at most this many full [`TraceEvent`]s in the trace summary
    /// (counters keep counting past the cap; a multi-million-access run
    /// must not eat the host).
    pub log_capacity: usize,
    /// Sample the tainted-byte total every this many instructions.
    pub sample_interval: u64,
}

impl Default for TracerConfig {
    fn default() -> TracerConfig {
        TracerConfig {
            log_capacity: 10_000,
            // The paper extracts tainted-byte counts every 100K executed
            // instructions.
            sample_interval: 100_000,
        }
    }
}

/// Aggregated trace results for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total tainted-memory reads (all ranks).
    pub taint_reads: u64,
    /// Total tainted-memory writes (all ranks).
    pub taint_writes: u64,
    /// Reads per (node, pid).
    pub reads_per_proc: HashMap<(u32, u64), u64>,
    /// Writes per (node, pid).
    pub writes_per_proc: HashMap<(u32, u64), u64>,
    /// `(total instructions, tainted bytes)` samples — the Fig. 7 series.
    pub tainted_byte_samples: Vec<(u64, usize)>,
    /// The retained event log (capped).
    pub events: Vec<TraceEvent>,
    /// Events dropped after the cap was reached.
    pub dropped_events: u64,
}

impl TraceSummary {
    /// The peak of the tainted-bytes series.
    pub fn peak_tainted_bytes(&self) -> usize {
        self.tainted_byte_samples
            .iter()
            .map(|&(_, b)| b)
            .max()
            .unwrap_or(0)
    }

    /// The final value of the tainted-bytes series (the Fig. 7 plateau).
    pub fn final_tainted_bytes(&self) -> usize {
        self.tainted_byte_samples.last().map_or(0, |&(_, b)| b)
    }

    /// Renders the retained event log as CSV — the paper's per-access
    /// record (kind, node, pid, eip, vaddr, paddr, taint, value, prov,
    /// icount) for external post-analysis. Rows keep log order.
    pub fn events_to_csv(&self) -> String {
        let mut out = String::from("kind,node,pid,eip,vaddr,paddr,taint,value,prov,icount\n");
        for ev in &self.events {
            let kind = kind_name(ev.kind);
            out.push_str(&format!(
                "{kind},{},{},{:#x},{:#x},{:#x},{:#x},{:#x},{:#x},{}\n",
                ev.node, ev.pid, ev.eip, ev.vaddr, ev.paddr, ev.taint, ev.value, ev.prov, ev.icount
            ));
        }
        out
    }
}

/// A run's one taint-event recorder: the cluster's taint sink and, when
/// provenance is on, its MPI observer. The event log is capped at the
/// larger of the active views' caps; the counters count every event.
#[derive(Debug)]
pub struct TaintRecorder {
    /// The trace view's parameters; `None` when tracing is off.
    trace: Option<TracerConfig>,
    /// Whether the provenance view is on.
    provenance: bool,
    capacity: usize,
    log: Vec<TraceEvent>,
    /// The trace view's counters, per-process maps and samples; its events
    /// are cut from `log` when the views are built.
    counts: TraceSummary,
    last_sample_at: u64,
    msg_edges: Vec<CrossRankEdge>,
}

impl TaintRecorder {
    /// A recorder for the views that are on: the trace summary under
    /// `trace`'s parameters when it is `Some`, the provenance graph when
    /// `provenance`.
    pub fn new(trace: Option<TracerConfig>, provenance: bool) -> TaintRecorder {
        let trace_cap = trace.map_or(0, |cfg| cfg.log_capacity);
        let prov_cap = if provenance { PROV_LOG_CAPACITY } else { 0 };
        TaintRecorder {
            trace,
            provenance,
            capacity: trace_cap.max(prov_cap),
            log: Vec::new(),
            counts: TraceSummary::default(),
            last_sample_at: 0,
            msg_edges: Vec::new(),
        }
    }

    /// Is the trace view on (does the tainted-bytes series get sampled)?
    pub fn traces(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a tainted-bytes sample if tracing is on and `total_insns`
    /// has advanced past the next sampling point.
    pub fn maybe_sample(&mut self, total_insns: u64, tainted_bytes: usize) {
        let Some(cfg) = self.trace else {
            return;
        };
        if total_insns >= self.last_sample_at + cfg.sample_interval {
            self.counts
                .tainted_byte_samples
                .push((total_insns, tainted_bytes));
            self.last_sample_at = total_insns;
        }
    }

    /// Builds the views that are on from the log and moves everything out:
    /// the recorder is left empty. The trace summary keeps the first
    /// `log_capacity` events in log order; the provenance graph takes the
    /// first [`PROV_LOG_CAPACITY`] (the log itself, not a copy). Each view
    /// counts the events it did not keep as dropped.
    pub fn take_views(&mut self) -> (Option<TraceSummary>, Option<ProvenanceGraph>) {
        let mut log = std::mem::take(&mut self.log);
        let counts = std::mem::take(&mut self.counts);
        let total = counts.taint_reads + counts.taint_writes;
        let trace = self.trace.map(|cfg| {
            // Without provenance the log is capped at `log_capacity`.
            let events = if self.provenance {
                log[..log.len().min(cfg.log_capacity)].to_vec()
            } else {
                std::mem::take(&mut log)
            };
            TraceSummary {
                dropped_events: total - events.len() as u64,
                events,
                ..counts
            }
        });
        let provenance = self.provenance.then(|| {
            log.truncate(PROV_LOG_CAPACITY);
            let dropped = total - log.len() as u64;
            ProvenanceGraph::assemble(log, std::mem::take(&mut self.msg_edges), dropped)
        });
        (trace, provenance)
    }
}

impl TaintEventSink for TaintRecorder {
    fn on_taint_events(&mut self, round: u64, rank: Option<u32>, events: &[BufferedTaintEvent]) {
        let rank = rank.unwrap_or(UNRESOLVED_RANK);
        for &BufferedTaintEvent { kind, ev } in events {
            let c = &mut self.counts;
            let (total, per_proc) = match kind {
                AccessKind::Read => (&mut c.taint_reads, &mut c.reads_per_proc),
                AccessKind::Write => (&mut c.taint_writes, &mut c.writes_per_proc),
            };
            *total += 1;
            *per_proc.entry((ev.node, ev.pid)).or_insert(0) += 1;
            if self.log.len() < self.capacity {
                self.log.push(TraceEvent {
                    kind,
                    rank,
                    node: ev.node,
                    pid: ev.pid,
                    eip: ev.eip,
                    vaddr: ev.vaddr,
                    paddr: ev.paddr,
                    taint: ev.taint.0,
                    value: ev.value,
                    prov: ev.prov.bits(),
                    round,
                    icount: ev.icount,
                });
            }
        }
    }
}

impl MpiObserver for TaintRecorder {
    fn on_tainted_delivery(&mut self, edge: &CrossRankEdge) {
        self.msg_edges.push(*edge);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use chaser_taint::{ProvSet, TaintMask};
    use chaser_vm::TaintMemEvent;

    /// A buffered access by `(node, pid)` at `eip`, touching `paddr`.
    pub(crate) fn access(
        kind: AccessKind,
        node: u32,
        pid: u64,
        eip: u64,
        paddr: u64,
    ) -> BufferedTaintEvent {
        BufferedTaintEvent {
            kind,
            ev: TaintMemEvent {
                node,
                pid,
                eip,
                vaddr: paddr | 0x1_0000,
                paddr,
                taint: TaintMask(0xff),
                value: 42,
                icount: eip & 0xfff,
                prov: ProvSet::single(0),
            },
        }
    }

    fn traced() -> TaintRecorder {
        TaintRecorder::new(Some(TracerConfig::default()), false)
    }

    fn trace_of(mut r: TaintRecorder) -> TraceSummary {
        r.take_views().0.expect("tracing is on")
    }

    #[test]
    fn counters_and_log_fields() {
        let mut r = traced();
        let read = access(AccessKind::Read, 0, 1, 0x400007, 0x2000);
        r.on_taint_events(3, Some(0), &[read, read]);
        r.on_taint_events(
            3,
            None,
            &[access(AccessKind::Write, 1, 2, 0x400010, 0x2000)],
        );
        let s = trace_of(r);
        assert_eq!(s.taint_reads, 2);
        assert_eq!(s.taint_writes, 1);
        assert_eq!(s.reads_per_proc[&(0, 1)], 2);
        assert_eq!(s.writes_per_proc[&(1, 2)], 1);
        let e = &s.events[0];
        assert_eq!(
            (e.eip, e.vaddr, e.paddr, e.value, e.icount),
            (0x400007, 0x1_2000, 0x2000, 42, 7),
            "the paper's log fields must all be present"
        );
        assert_eq!((e.round, e.rank), (3, 0));
        assert_eq!(s.events[2].rank, UNRESOLVED_RANK);
    }

    #[test]
    fn log_is_capped_but_counters_continue() {
        let mut r = TaintRecorder::new(
            Some(TracerConfig {
                log_capacity: 2,
                sample_interval: 100,
            }),
            false,
        );
        r.on_taint_events(0, Some(0), &[access(AccessKind::Read, 0, 1, 0, 0); 5]);
        let s = trace_of(r);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.taint_reads, 5);
        assert_eq!(s.dropped_events, 3);
    }

    #[test]
    fn event_csv_has_all_paper_fields() {
        let mut r = traced();
        r.on_taint_events(
            0,
            Some(0),
            &[access(AccessKind::Read, 0, 1, 0x400000, 0x2000)],
        );
        r.on_taint_events(
            0,
            Some(1),
            &[access(AccessKind::Write, 1, 2, 0x400000, 0x2000)],
        );
        let csv = trace_of(r).events_to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("kind,node,pid,eip,vaddr,paddr,taint,value,prov,icount")
        );
        let first = lines.next().expect("one event row");
        assert!(first.starts_with("read,0,1,0x400000,0x12000,0x2000,"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn event_csv_rows_keep_log_order_and_column_count() {
        let mut r = traced();
        r.on_taint_events(
            0,
            Some(0),
            &[
                access(AccessKind::Write, 1, 2, 0x400000, 0x2000),
                access(AccessKind::Read, 0, 1, 0x400000, 0x2000),
                access(AccessKind::Write, 3, 4, 0x400000, 0x2000),
            ],
        );
        let csv = trace_of(r).events_to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        // Rows appear in log order, not sorted.
        assert!(rows[0].starts_with("write,1,2,"));
        assert!(rows[1].starts_with("read,0,1,"));
        assert!(rows[2].starts_with("write,3,4,"));
        // Every row (header included) has exactly the 10 declared columns.
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), 10, "bad row: {line}");
        }
    }

    #[test]
    fn event_csv_carries_provenance_bits() {
        let mut r = traced();
        r.on_taint_events(
            0,
            Some(0),
            &[access(AccessKind::Read, 0, 1, 0x400000, 0x2000)],
        );
        let csv = trace_of(r).events_to_csv();
        let row = csv.lines().nth(1).expect("one event row");
        // prov is the 9th column, hex-formatted (ProvSet::single(0) = bit 0).
        assert_eq!(row.split(',').nth(8), Some("0x1"));
    }

    #[test]
    fn sampling_respects_interval() {
        let mut r = TaintRecorder::new(
            Some(TracerConfig {
                log_capacity: 10,
                sample_interval: 100,
            }),
            false,
        );
        r.maybe_sample(50, 1); // too early
        r.maybe_sample(100, 2);
        r.maybe_sample(150, 3); // too early again
        r.maybe_sample(230, 4);
        let s = trace_of(r);
        assert_eq!(s.tainted_byte_samples, vec![(100, 2), (230, 4)]);
        assert_eq!(s.peak_tainted_bytes(), 4);
        assert_eq!(s.final_tainted_bytes(), 4);

        let mut r = TaintRecorder::new(None, true);
        assert!(!r.traces());
        r.maybe_sample(100_000, 8);
        assert_eq!(r.take_views().0, None);
    }

    #[test]
    fn take_summary_moves_the_log_out() {
        let mut r = TaintRecorder::new(Some(TracerConfig::default()), true);
        r.on_taint_events(0, Some(0), &[access(AccessKind::Read, 0, 1, 0, 0)]);
        let (trace, graph) = r.take_views();
        assert_eq!(trace.expect("traced").events.len(), 1);
        assert_eq!(graph.expect("recorded").events.len(), 1);
        let (trace, graph) = r.take_views();
        assert_eq!(trace, Some(TraceSummary::default()));
        assert_eq!(graph.expect("still on").events, vec![]);
    }

    /// Both views are cut from the one log: the summary keeps its first
    /// `log_capacity` events in log order and the graph its first
    /// [`PROV_LOG_CAPACITY`], whichever cap is larger, and each counts the
    /// rest as dropped while the counters count every event.
    #[test]
    fn the_two_views_cut_one_log_exactly() {
        const TOTAL: usize = 25_000;
        // One event per round with ascending icounts, so the graph's
        // canonical order is log order and the two views compare directly.
        let batches: Vec<(u64, BufferedTaintEvent)> = (0..TOTAL as u64)
            .map(|i| {
                let kind = if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let mut be = access(kind, (i % 2) as u32, 1, 0x40_0000 + i, 0x2000 + 8 * i);
                be.ev.icount = i;
                (i, be)
            })
            .collect();
        let writes = batches
            .iter()
            .filter(|(_, be)| be.kind == AccessKind::Write)
            .count() as u64;
        for log_capacity in [10_000, 20_000] {
            let mut r = TaintRecorder::new(
                Some(TracerConfig {
                    log_capacity,
                    ..TracerConfig::default()
                }),
                true,
            );
            for (round, be) in &batches {
                r.on_taint_events(*round, Some(be.ev.node), std::slice::from_ref(be));
            }
            let (trace, graph) = r.take_views();
            let (trace, graph) = (trace.expect("traced"), graph.expect("recorded"));

            assert_eq!(trace.taint_writes, writes);
            assert_eq!(trace.taint_reads, TOTAL as u64 - writes);
            assert_eq!(
                trace.reads_per_proc.values().sum::<u64>(),
                trace.taint_reads
            );
            assert_eq!(trace.writes_per_proc.values().sum::<u64>(), writes);

            assert_eq!(trace.events.len(), log_capacity);
            assert_eq!(trace.dropped_events, (TOTAL - log_capacity) as u64);
            assert_eq!(graph.events.len(), PROV_LOG_CAPACITY);
            assert_eq!(graph.dropped_events, (TOTAL - PROV_LOG_CAPACITY) as u64);
            let log_order = |events: &[TraceEvent]| {
                events.iter().enumerate().all(|(i, e)| {
                    (e.icount, e.round, e.rank) == (i as u64, i as u64, (i % 2) as u32)
                })
            };
            assert!(log_order(&trace.events), "cap {log_capacity}");
            assert!(log_order(&graph.events), "cap {log_capacity}");
            let shared = log_capacity.min(PROV_LOG_CAPACITY);
            assert_eq!(trace.events[..shared], graph.events[..shared]);
        }
    }
}
