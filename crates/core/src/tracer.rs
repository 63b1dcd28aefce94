//! The fault-propagation tracer: tainted-memory access logs, per-rank
//! counters and the tainted-bytes time series.
//!
//! This is the "accountable" half of Chaser. It subscribes to the engine's
//! tainted-memory callbacks (the paper's `DECAF_READ_TAINTMEM_CB` /
//! `DECAF_WRITE_TAINTMEM_CB`) and records, per access: eip, virtual
//! address, physical address, taint mask, current value and instruction
//! count — the exact fields the paper logs for post-analysis. The session
//! additionally samples the total number of tainted bytes every
//! `sample_interval` instructions, reproducing the Fig. 7 series.

use chaser_vm::{TaintEventSink, TaintMemEvent};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// The guest read tainted memory.
    Read,
    /// The guest wrote tainted data.
    Write,
}

/// One logged tainted-memory access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Read or write.
    pub kind: AccessKind,
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
    /// Value at the location.
    pub value: u64,
    /// Raw [`chaser_taint::ProvSet`] bits of the access (0 when the taint
    /// carries no fault provenance).
    pub prov: u32,
    /// Process instruction count at the access.
    pub icount: u64,
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracerConfig {
    /// Keep at most this many full [`TraceEvent`]s (counters keep counting
    /// past the cap; a multi-million-access run must not eat the host).
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
            let kind = match ev.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            };
            out.push_str(&format!(
                "{kind},{},{},{:#x},{:#x},{:#x},{:#x},{:#x},{:#x},{}\n",
                ev.node, ev.pid, ev.eip, ev.vaddr, ev.paddr, ev.taint, ev.value, ev.prov, ev.icount
            ));
        }
        out
    }
}

/// The tracer; wire it into every node with
/// [`chaser_vm::NodeHooks::taint_events`].
#[derive(Debug)]
pub struct Tracer {
    cfg: TracerConfig,
    summary: TraceSummary,
    last_sample_at: u64,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(cfg: TracerConfig) -> Tracer {
        Tracer {
            cfg,
            summary: TraceSummary::default(),
            last_sample_at: 0,
        }
    }

    /// The configured sampling interval.
    pub fn sample_interval(&self) -> u64 {
        self.cfg.sample_interval
    }

    /// Records a tainted-bytes sample if `total_insns` has advanced past
    /// the next sampling point.
    pub fn maybe_sample(&mut self, total_insns: u64, tainted_bytes: usize) {
        if total_insns >= self.last_sample_at + self.cfg.sample_interval {
            self.summary
                .tainted_byte_samples
                .push((total_insns, tainted_bytes));
            self.last_sample_at = total_insns;
        }
    }

    /// Final results, moved out: the tracer is left with an empty summary.
    /// The report takes the log this way instead of copying up to
    /// `log_capacity` events.
    pub fn take_summary(&mut self) -> TraceSummary {
        std::mem::take(&mut self.summary)
    }

    /// Results so far.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    fn log(&mut self, kind: AccessKind, ev: &TaintMemEvent) {
        let s = &mut self.summary;
        match kind {
            AccessKind::Read => {
                s.taint_reads += 1;
                *s.reads_per_proc.entry((ev.node, ev.pid)).or_insert(0) += 1;
            }
            AccessKind::Write => {
                s.taint_writes += 1;
                *s.writes_per_proc.entry((ev.node, ev.pid)).or_insert(0) += 1;
            }
        }
        if s.events.len() < self.cfg.log_capacity {
            s.events.push(TraceEvent {
                kind,
                node: ev.node,
                pid: ev.pid,
                eip: ev.eip,
                vaddr: ev.vaddr,
                paddr: ev.paddr,
                taint: ev.taint.0,
                value: ev.value,
                prov: ev.prov.bits(),
                icount: ev.icount,
            });
        } else {
            s.dropped_events += 1;
        }
    }
}

impl TaintEventSink for Tracer {
    fn on_taint_read(&mut self, ev: &TaintMemEvent) {
        self.log(AccessKind::Read, ev);
    }

    fn on_taint_write(&mut self, ev: &TaintMemEvent) {
        self.log(AccessKind::Write, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_taint::{ProvSet, TaintMask};

    fn ev(node: u32, pid: u64) -> TaintMemEvent {
        TaintMemEvent {
            node,
            pid,
            eip: 0x400000,
            vaddr: 0x1000,
            paddr: 0x2000,
            taint: TaintMask::bit(3),
            value: 42,
            icount: 7,
            prov: ProvSet::single(0),
        }
    }

    #[test]
    fn counters_and_log_fields() {
        let mut t = Tracer::new(TracerConfig::default());
        t.on_taint_read(&ev(0, 1));
        t.on_taint_read(&ev(0, 1));
        t.on_taint_write(&ev(1, 2));
        let s = t.summary();
        assert_eq!(s.taint_reads, 2);
        assert_eq!(s.taint_writes, 1);
        assert_eq!(s.reads_per_proc[&(0, 1)], 2);
        assert_eq!(s.writes_per_proc[&(1, 2)], 1);
        let e = &s.events[0];
        assert_eq!(
            (e.eip, e.vaddr, e.paddr, e.value, e.icount),
            (0x400000, 0x1000, 0x2000, 42, 7),
            "the paper's log fields must all be present"
        );
    }

    #[test]
    fn log_is_capped_but_counters_continue() {
        let mut t = Tracer::new(TracerConfig {
            log_capacity: 2,
            sample_interval: 100,
        });
        for _ in 0..5 {
            t.on_taint_read(&ev(0, 1));
        }
        assert_eq!(t.summary().events.len(), 2);
        assert_eq!(t.summary().taint_reads, 5);
        assert_eq!(t.summary().dropped_events, 3);
    }

    #[test]
    fn event_csv_has_all_paper_fields() {
        let mut t = Tracer::new(TracerConfig::default());
        t.on_taint_read(&ev(0, 1));
        t.on_taint_write(&ev(1, 2));
        let csv = t.summary().events_to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("kind,node,pid,eip,vaddr,paddr,taint,value,prov,icount")
        );
        let first = lines.next().expect("one event row");
        assert!(first.starts_with("read,0,1,0x400000,0x1000,0x2000,"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn event_csv_rows_keep_log_order_and_column_count() {
        let mut t = Tracer::new(TracerConfig::default());
        t.on_taint_write(&ev(1, 2));
        t.on_taint_read(&ev(0, 1));
        t.on_taint_write(&ev(3, 4));
        let csv = t.summary().events_to_csv();
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
        let mut t = Tracer::new(TracerConfig::default());
        t.on_taint_read(&ev(0, 1));
        let row = t
            .summary()
            .events_to_csv()
            .lines()
            .nth(1)
            .unwrap()
            .to_string();
        // prov is the 9th column, hex-formatted (ProvSet::single(0) = bit 0).
        assert_eq!(row.split(',').nth(8), Some("0x1"));
    }

    #[test]
    fn sampling_respects_interval() {
        let mut t = Tracer::new(TracerConfig {
            log_capacity: 10,
            sample_interval: 100,
        });
        t.maybe_sample(50, 1); // too early
        t.maybe_sample(100, 2);
        t.maybe_sample(150, 3); // too early again
        t.maybe_sample(230, 4);
        assert_eq!(t.summary().tainted_byte_samples, vec![(100, 2), (230, 4)]);
        assert_eq!(t.summary().peak_tainted_bytes(), 4);
        assert_eq!(t.summary().final_tainted_bytes(), 4);
    }

    #[test]
    fn take_summary_moves_the_log_out() {
        let mut t = Tracer::new(TracerConfig::default());
        t.on_taint_read(&ev(0, 1));
        t.maybe_sample(100_000, 8);
        let before = t.summary().clone();
        assert_eq!(t.take_summary(), before);
        assert_eq!(t.summary(), &TraceSummary::default());
    }
}
