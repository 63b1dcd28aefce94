//! Cross-rank fault-propagation provenance graphs.
//!
//! The trace summary ([`crate::TraceSummary`]) answers "how much did the
//! fault touch"; this module answers "*where did it go*". Every injected
//! fault carries a provenance id alongside its taint (a
//! [`chaser_taint::ProvSet`] bit), the run's [`crate::TaintRecorder`] logs
//! instruction-level propagation events (eip, addresses, tainted mask,
//! current value, scheduler round and rank), and the MPI runtime reports a
//! [`chaser_mpi::CrossRankEdge`] whenever the TaintHub republishes taint
//! into a receiver — the paper's cross-node propagation, made queryable.
//! The graph is the recorder's second view of its log. A run's
//! [`ProvenanceGraph`] holds the canonicalised events, per-site nodes,
//! intra-rank def-use flow edges and the `(tag, src → dst)` message edges,
//! with queries (first-contamination round per rank, blast radius, rank
//! reach, SDC sink classification) and
//! deterministic DOT/JSON exports whose digests are byte-identical across
//! cold, warm-started and journal-resumed executions of the same seed.

use crate::journal::{encode, Json};
use crate::tracer::{AccessKind, TraceEvent};
use chaser_mpi::{CrossRankEdge, Fnv1a};
use std::collections::{BTreeMap, BTreeSet};

/// Rank value for propagation events whose process could not be resolved
/// to an MPI rank (never produced by a normal run; kept instead of
/// dropping the event so the graph stays complete).
pub const UNRESOLVED_RANK: u32 = u32::MAX;

/// Cap on the propagation events a run's graph retains.
pub const PROV_LOG_CAPACITY: usize = 16_384;

/// A graph node: one `(rank, eip)` instruction site that touched tainted
/// data, with its access counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvSite {
    /// Rank of the site.
    pub rank: u32,
    /// Instruction address.
    pub eip: u64,
    /// Tainted reads at this site.
    pub reads: u64,
    /// Tainted writes at this site.
    pub writes: u64,
    /// First scheduler round the site touched tainted data.
    pub first_round: u64,
    /// Union of the provenance bits seen at this site.
    pub prov_bits: u32,
}

/// An intra-rank taint def-use edge: a site whose tainted store was later
/// loaded by another site of the same process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvFlowEdge {
    /// Rank the flow happened on.
    pub rank: u32,
    /// The writing site's instruction address.
    pub writer_eip: u64,
    /// The reading site's instruction address.
    pub reader_eip: u64,
    /// Observations of this edge.
    pub count: u64,
}

/// How a rank relates to the fault at run end (SDC sink classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Output corrupted *and* the graph recorded tainted writes on the
    /// rank: the corruption is accounted for by traced propagation.
    TaintedSdc,
    /// Output corrupted but no tainted write was recorded there — the
    /// taint was lost (washed out, log cap, or an untracked carrier).
    UntracedSdc,
    /// Tainted data reached the rank but its output stayed clean — the
    /// contamination was masked before the result file.
    Masked,
}

/// Per-rank sink classification for a run's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkClass {
    /// The rank being classified.
    pub rank: u32,
    /// Its relation to the fault.
    pub kind: SinkKind,
    /// The last tainted write recorded on the rank (the candidate SDC
    /// sink instruction), when any was.
    pub last_write: Option<TraceEvent>,
}

/// A per-run fault-propagation provenance graph: nodes are tainted sites,
/// edges are intra-rank data flows plus cross-rank message edges. All
/// vectors are canonically sorted, so two equal runs produce byte-equal
/// exports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceGraph {
    /// Retained propagation events (rank-resolved, canonically ordered).
    pub events: Vec<TraceEvent>,
    /// Tainted instruction sites (the graph's nodes).
    pub sites: Vec<ProvSite>,
    /// Intra-rank def-use flow edges.
    pub flow_edges: Vec<ProvFlowEdge>,
    /// Cross-rank message edges.
    pub msg_edges: Vec<CrossRankEdge>,
    /// Events the run logged past [`PROV_LOG_CAPACITY`].
    pub dropped_events: u64,
}

fn kind_ord(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

pub(crate) fn kind_name(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "read",
        AccessKind::Write => "write",
    }
}

impl ProvenanceGraph {
    /// Assembles the canonical graph from rank-resolved events and message
    /// edges.
    pub(crate) fn assemble(
        mut events: Vec<TraceEvent>,
        mut msg_edges: Vec<CrossRankEdge>,
        dropped_events: u64,
    ) -> ProvenanceGraph {
        events.sort_by_key(|e| {
            (
                e.round,
                e.rank,
                e.icount,
                e.eip,
                e.vaddr,
                kind_ord(e.kind),
                e.taint,
            )
        });
        msg_edges.sort_by_key(|e| (e.round, e.src, e.dest, e.tag, e.seq));

        let mut site_acc: BTreeMap<(u32, u64), ProvSite> = BTreeMap::new();
        // Last tainted writer per (node, pid, paddr): flows are intra-rank;
        // cross-rank hops are the message edges.
        let mut last_writer: BTreeMap<(u32, u64, u64), u64> = BTreeMap::new();
        let mut flow_acc: BTreeMap<(u32, u64, u64), u64> = BTreeMap::new();
        for ev in &events {
            let site = site_acc.entry((ev.rank, ev.eip)).or_insert(ProvSite {
                rank: ev.rank,
                eip: ev.eip,
                reads: 0,
                writes: 0,
                first_round: ev.round,
                prov_bits: 0,
            });
            site.first_round = site.first_round.min(ev.round);
            site.prov_bits |= ev.prov;
            match ev.kind {
                AccessKind::Read => {
                    site.reads += 1;
                    if let Some(&writer_eip) = last_writer.get(&(ev.node, ev.pid, ev.paddr)) {
                        *flow_acc.entry((ev.rank, writer_eip, ev.eip)).or_insert(0) += 1;
                    }
                }
                AccessKind::Write => {
                    site.writes += 1;
                    last_writer.insert((ev.node, ev.pid, ev.paddr), ev.eip);
                }
            }
        }
        ProvenanceGraph {
            events,
            sites: site_acc.into_values().collect(),
            flow_edges: flow_acc
                .into_iter()
                .map(|((rank, writer_eip, reader_eip), count)| ProvFlowEdge {
                    rank,
                    writer_eip,
                    reader_eip,
                    count,
                })
                .collect(),
            msg_edges,
            dropped_events,
        }
    }

    /// The first scheduler round at which each rank was contaminated (via
    /// a recorded event or a tainted delivery into it), per rank.
    pub fn first_contamination_rounds(&self) -> BTreeMap<u32, u64> {
        let mut m: BTreeMap<u32, u64> = BTreeMap::new();
        let mut note = |rank: u32, round: u64| {
            let slot = m.entry(rank).or_insert(u64::MAX);
            *slot = (*slot).min(round);
        };
        for ev in &self.events {
            if ev.rank != UNRESOLVED_RANK {
                note(ev.rank, ev.round);
            }
        }
        for e in &self.msg_edges {
            // The sender was contaminated no later than the delivery too.
            note(e.src, e.round);
            note(e.dest, e.round);
        }
        m
    }

    /// Blast radius: distinct tainted `(rank, physical byte)` destinations
    /// among the recorded writes, in bytes.
    pub fn blast_radius_bytes(&self) -> u64 {
        let mut bytes: BTreeSet<(u32, u64)> = BTreeSet::new();
        for ev in &self.events {
            if ev.kind != AccessKind::Write {
                continue;
            }
            for i in 0..8u64 {
                if (ev.taint >> (i * 8)) & 0xff != 0 {
                    bytes.insert((ev.rank, ev.paddr + i));
                }
            }
        }
        bytes.len() as u64
    }

    /// Every rank the fault reached: ranks with recorded events plus both
    /// endpoints of every tainted message edge, sorted ascending.
    pub fn rank_reach(&self) -> Vec<u32> {
        let mut ranks: BTreeSet<u32> = BTreeSet::new();
        for ev in &self.events {
            if ev.rank != UNRESOLVED_RANK {
                ranks.insert(ev.rank);
            }
        }
        for e in &self.msg_edges {
            ranks.insert(e.src);
            ranks.insert(e.dest);
        }
        ranks.into_iter().collect()
    }

    /// The last tainted write recorded on `rank` — the candidate sink
    /// instruction for an SDC on that rank.
    pub fn sink_for(&self, rank: u32) -> Option<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.rank == rank && e.kind == AccessKind::Write)
            .max_by_key(|e| (e.round, e.icount))
            .copied()
    }

    /// Classifies every reached or corrupted rank against the run's SDC
    /// evidence (`corrupted_ranks` — ranks whose output diverged from the
    /// golden run, e.g. from [`crate::diff_outputs`]).
    pub fn classify_sinks(&self, corrupted_ranks: &[u32]) -> Vec<SinkClass> {
        let corrupted: BTreeSet<u32> = corrupted_ranks.iter().copied().collect();
        let mut ranks: BTreeSet<u32> = self.rank_reach().into_iter().collect();
        ranks.extend(corrupted.iter().copied());
        ranks
            .into_iter()
            .map(|rank| {
                let last_write = self.sink_for(rank);
                let kind = match (corrupted.contains(&rank), last_write.is_some()) {
                    (true, true) => SinkKind::TaintedSdc,
                    (true, false) => SinkKind::UntracedSdc,
                    (false, _) => SinkKind::Masked,
                };
                SinkClass {
                    rank,
                    kind,
                    last_write,
                }
            })
            .collect()
    }

    /// Renders the graph as Graphviz DOT: site nodes grouped by rank,
    /// intra-rank flow edges solid, cross-rank message edges dashed
    /// between rank hubs. Deterministic byte-for-byte.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph provenance {\n  rankdir=LR;\n");
        for rank in self.rank_reach() {
            out.push_str(&format!(
                "  \"rank{rank}\" [shape=box,style=bold,label=\"rank {rank}\"];\n"
            ));
        }
        for s in &self.sites {
            out.push_str(&format!(
                "  \"r{}_{:#x}\" [label=\"r{} {:#x}\\n{}w/{}r round {}\"];\n",
                s.rank, s.eip, s.rank, s.eip, s.writes, s.reads, s.first_round
            ));
            out.push_str(&format!(
                "  \"rank{}\" -> \"r{}_{:#x}\";\n",
                s.rank, s.rank, s.eip
            ));
        }
        for f in &self.flow_edges {
            out.push_str(&format!(
                "  \"r{}_{:#x}\" -> \"r{}_{:#x}\" [label=\"{}\"];\n",
                f.rank, f.writer_eip, f.rank, f.reader_eip, f.count
            ));
        }
        for e in &self.msg_edges {
            out.push_str(&format!(
                "  \"rank{}\" -> \"rank{}\" [style=dashed,label=\"tag {:#x} seq {} round {}: {}B\"];\n",
                e.src, e.dest, e.tag, e.seq, e.round, e.tainted_bytes
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph as one canonical JSON document (hand-rolled, no
    /// external dependency). Deterministic byte-for-byte.
    pub fn to_json(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("kind".into(), Json::Str(kind_name(e.kind).into())),
                    ("rank".into(), Json::Num(e.rank as i128)),
                    ("node".into(), Json::Num(e.node as i128)),
                    ("pid".into(), Json::Num(e.pid as i128)),
                    ("eip".into(), Json::Num(e.eip as i128)),
                    ("vaddr".into(), Json::Num(e.vaddr as i128)),
                    ("paddr".into(), Json::Num(e.paddr as i128)),
                    ("taint".into(), Json::Num(e.taint as i128)),
                    ("value".into(), Json::Num(e.value as i128)),
                    ("prov".into(), Json::Num(e.prov as i128)),
                    ("round".into(), Json::Num(e.round as i128)),
                    ("icount".into(), Json::Num(e.icount as i128)),
                ])
            })
            .collect();
        let sites = self
            .sites
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("rank".into(), Json::Num(s.rank as i128)),
                    ("eip".into(), Json::Num(s.eip as i128)),
                    ("reads".into(), Json::Num(s.reads as i128)),
                    ("writes".into(), Json::Num(s.writes as i128)),
                    ("first_round".into(), Json::Num(s.first_round as i128)),
                    ("prov_bits".into(), Json::Num(s.prov_bits as i128)),
                ])
            })
            .collect();
        let flows = self
            .flow_edges
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("rank".into(), Json::Num(f.rank as i128)),
                    ("writer_eip".into(), Json::Num(f.writer_eip as i128)),
                    ("reader_eip".into(), Json::Num(f.reader_eip as i128)),
                    ("count".into(), Json::Num(f.count as i128)),
                ])
            })
            .collect();
        let msgs = self
            .msg_edges
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("src".into(), Json::Num(e.src as i128)),
                    ("dest".into(), Json::Num(e.dest as i128)),
                    ("tag".into(), Json::Num(e.tag as i128)),
                    ("seq".into(), Json::Num(e.seq as i128)),
                    ("round".into(), Json::Num(e.round as i128)),
                    ("tainted_bytes".into(), Json::Num(e.tainted_bytes as i128)),
                    ("prov_bits".into(), Json::Num(e.prov_bits as i128)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("chaser_provenance".into(), Json::Num(1)),
            ("events".into(), Json::Arr(events)),
            ("sites".into(), Json::Arr(sites)),
            ("flow_edges".into(), Json::Arr(flows)),
            ("msg_edges".into(), Json::Arr(msgs)),
            (
                "dropped_events".into(),
                Json::Num(self.dropped_events as i128),
            ),
        ]);
        let mut out = String::new();
        encode(&doc, &mut out);
        out
    }

    /// FNV-1a digest of the canonical JSON export — the replay-stability
    /// fingerprint journaled with each run.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.to_json().as_bytes());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::tests::access;
    use crate::TaintRecorder;
    use chaser_mpi::MpiObserver;
    use chaser_vm::TaintEventSink;

    fn edge(src: u32, dest: u32, round: u64) -> CrossRankEdge {
        CrossRankEdge {
            src,
            dest,
            tag: 5,
            seq: 1,
            round,
            tainted_bytes: 8,
            prov_bits: 1,
        }
    }

    /// Two nodes, one rank each.
    fn recorded() -> ProvenanceGraph {
        let mut r = TaintRecorder::new(None, true);
        r.on_taint_events(
            2,
            Some(0),
            &[
                access(AccessKind::Write, 0, 1, 0x400, 0x2000),
                access(AccessKind::Read, 0, 1, 0x408, 0x2000),
            ],
        );
        r.on_tainted_delivery(&edge(0, 1, 3));
        r.on_taint_events(
            4,
            Some(1),
            &[access(AccessKind::Write, 1, 1, 0x500, 0x3000)],
        );
        r.take_views().1.expect("provenance is on")
    }

    #[test]
    fn graph_builds_sites_flows_and_message_edges() {
        let g = recorded();
        assert_eq!(g.events.len(), 3);
        assert_eq!(g.sites.len(), 3);
        // The read of 0x2000 saw the write at 0x400: one intra-rank flow.
        assert_eq!(
            g.flow_edges,
            vec![ProvFlowEdge {
                rank: 0,
                writer_eip: 0x400,
                reader_eip: 0x408,
                count: 1
            }]
        );
        assert_eq!(g.msg_edges.len(), 1);
        assert_eq!((g.msg_edges[0].src, g.msg_edges[0].dest), (0, 1));
    }

    #[test]
    fn queries_cover_reach_rounds_and_blast_radius() {
        let g = recorded();
        assert_eq!(g.rank_reach(), vec![0, 1]);
        let rounds = g.first_contamination_rounds();
        assert_eq!(rounds[&0], 2);
        // Rank 1 was first contaminated by the round-3 delivery, before
        // its own round-4 write.
        assert_eq!(rounds[&1], 3);
        // Two writes, each with one tainted byte (mask 0xff = byte 0).
        assert_eq!(g.blast_radius_bytes(), 2);
    }

    #[test]
    fn sink_classification_tracks_corruption_evidence() {
        let g = recorded();
        let sinks = g.classify_sinks(&[1]);
        assert_eq!(sinks.len(), 2);
        assert_eq!(sinks[0].kind, SinkKind::Masked);
        assert_eq!(sinks[1].kind, SinkKind::TaintedSdc);
        assert_eq!(sinks[1].last_write.expect("rank 1 wrote").eip, 0x500);
        // A corrupted rank with no recorded writes is an untraced SDC.
        let sinks = g.classify_sinks(&[2]);
        assert_eq!(sinks.last().map(|s| s.kind), Some(SinkKind::UntracedSdc));
    }

    #[test]
    fn exports_are_deterministic() {
        let (a, b) = (recorded(), recorded());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_dot(), b.to_dot());
        assert_eq!(a.digest(), b.digest());
        assert!(a.to_dot().contains("style=dashed"));
        assert!(a.to_json().contains("\"chaser_provenance\":1"));
    }

    #[test]
    fn recorder_caps_events_but_counts_drops() {
        let mut r = TaintRecorder::new(None, true);
        let read = access(AccessKind::Read, 0, 1, 0x400, 0x2000);
        r.on_taint_events(0, Some(0), &vec![read; PROV_LOG_CAPACITY + 3]);
        let g = r.take_views().1.expect("provenance is on");
        assert_eq!(g.events.len(), PROV_LOG_CAPACITY);
        assert_eq!(g.dropped_events, 3);
    }
}
