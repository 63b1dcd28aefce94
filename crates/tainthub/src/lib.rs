//! # chaser-tainthub
//!
//! TaintHub: the central registry that synchronises MPI-message taint
//! status between ranks — the piece Chaser adds over per-message-header
//! schemes (Ashraf et al.'s approach the paper contrasts in Related Work).
//!
//! On the sender side, Chaser hooks the MPI send functions, extracts the
//! message identity `(source, dest, tag)` and — *only if the send buffer is
//! tainted* — publishes the buffer's per-byte taint masks to the hub. On
//! the receiver side, Chaser polls the hub by `(source, tag)` after a
//! receive completes; a miss costs one lookup and nothing else, which is
//! why the paper argues the hub is cheaper than parsing a header on every
//! message when no fault is in flight.
//!
//! The hub lives on the cluster head node in the paper's testbed; here it
//! is a shared object owned by the simulated cluster. It is `Sync` so
//! parallel campaigns can also share one hub across runs if desired
//! (each run normally gets its own).
//!
//! # Example
//!
//! ```
//! use chaser_tainthub::{MsgId, TaintHub};
//!
//! let hub = TaintHub::new();
//! let id = MsgId { src: 0, dest: 2, tag: 7 };
//! // Message 4 was tainted: the sender publishes its masks (no provenance).
//! hub.publish_full(id, 4, vec![0xff, 0x00, 0x01], 0, Vec::new());
//! // Message 3 was clean: its receiver finds nothing for it.
//! assert!(hub.poll_matching(id, 3).is_none());
//! let rec = hub.poll_matching(id, 4).expect("published record");
//! assert_eq!(rec.masks, vec![0xff, 0x00, 0x01]);
//! assert!(hub.poll_matching(id, 4).is_none(), "records are consumed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// The identity of one MPI message, as the hub keys taint records.
///
/// The paper's sender shares `(tag, dest)` plus the taint status; the
/// receiver polls with `(tag, source)`. Both sides know all three fields,
/// so the hub keys on the triple to disambiguate concurrent pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgId {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dest: u32,
    /// MPI message tag.
    pub tag: u64,
}

/// A published taint record: one mask byte per message byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintRecord {
    /// Per-byte taint masks of the message payload.
    pub masks: Vec<u8>,
    /// The sender-side message sequence number.
    ///
    /// Only *tainted* messages are published (the design that keeps the
    /// fault-free path cheap), so a bare FIFO would mis-align with the
    /// message stream once clean messages interleave. The sequence number
    /// lets [`TaintHub::poll_matching`] recognise that the front record
    /// belongs to a *later* message than the one just received.
    pub seq: u64,
    /// Per-byte fault provenance of the payload (`ProvSet` bitmasks from
    /// `chaser-taint`, stored raw to keep the hub dependency-light). Empty
    /// when the publisher does not track provenance; otherwise parallel to
    /// [`TaintRecord::masks`].
    pub provs: Vec<u32>,
}

/// Hub counters, used by the flexibility/overhead evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Records published by senders.
    pub published: u64,
    /// Poll requests from receivers.
    pub polls: u64,
    /// Polls that found a record.
    pub hits: u64,
    /// Total tainted payload bytes published.
    pub tainted_bytes_published: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<MsgId, VecDeque<TaintRecord>>,
    stats: HubStats,
}

/// The TaintHub service.
#[derive(Debug, Default)]
pub struct TaintHub {
    inner: Mutex<Inner>,
}

impl TaintHub {
    /// An empty hub.
    pub fn new() -> TaintHub {
        TaintHub::default()
    }

    /// Sender side: records the taint masks of in-flight message `seq`
    /// (see [`TaintRecord::seq`]), with its per-byte fault provenance (see
    /// [`TaintRecord::provs`]). `_now` is ignored.
    ///
    /// A record lives exactly as long as its message is undelivered: the
    /// receive that delivers the message polls it, however late that is.
    /// The queued records are therefore bounded by the messages in flight,
    /// plus at most one per receive that killed or aborted its own receiver
    /// before polling.
    ///
    /// Multiple messages with the same id queue in FIFO order, matching the
    /// non-overtaking delivery of the simulated interconnect.
    pub fn publish_full(&self, id: MsgId, seq: u64, masks: Vec<u8>, _now: u64, provs: Vec<u32>) {
        let mut inner = self.inner.lock();
        inner.stats.published += 1;
        inner.stats.tainted_bytes_published += masks.iter().filter(|&&m| m != 0).count() as u64;
        inner
            .map
            .entry(id)
            .or_default()
            .push_back(TaintRecord { masks, seq, provs });
    }

    /// Receiver side: consumes the front record for `id` only when it
    /// belongs to message `seq`.
    ///
    /// Returns `None` both on a miss (nothing published for `id`) and when
    /// the front record is for a later message — i.e. the received message
    /// itself was clean.
    pub fn poll_matching(&self, id: MsgId, seq: u64) -> Option<TaintRecord> {
        let mut inner = self.inner.lock();
        inner.stats.polls += 1;
        let rec = {
            let q = inner.map.get_mut(&id)?;
            if q.front().is_some_and(|r| r.seq == seq) {
                q.pop_front()
            } else {
                None
            }
        };
        if rec.is_some() {
            inner.stats.hits += 1;
        }
        rec
    }

    /// Number of queued (unconsumed) records.
    pub fn pending(&self) -> usize {
        self.inner.lock().map.values().map(VecDeque::len).sum()
    }

    /// Total records ever published (consumed or not) — with
    /// [`TaintHub::pending`] this lets long campaigns assert the hub
    /// drains instead of accumulating records invisibly.
    pub fn published_total(&self) -> u64 {
        self.inner.lock().stats.published
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HubStats {
        self.inner.lock().stats
    }

    /// Freezes the hub's full state — every queued record plus the
    /// counters — into a [`HubSnapshot`]. Queues are stored in sorted
    /// `MsgId` order so the snapshot is deterministic regardless of map
    /// iteration order.
    pub fn snapshot(&self) -> HubSnapshot {
        let inner = self.inner.lock();
        let mut queues: Vec<(MsgId, Vec<TaintRecord>)> = inner
            .map
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(id, q)| (*id, q.iter().cloned().collect()))
            .collect();
        queues.sort_unstable_by_key(|(id, _)| (id.src, id.dest, id.tag));
        HubSnapshot {
            queues,
            stats: inner.stats,
        }
    }

    /// Replaces the hub's state with the snapshot's (records and counters).
    pub fn restore(&self, snap: &HubSnapshot) {
        let mut inner = self.inner.lock();
        inner.map = snap
            .queues
            .iter()
            .map(|(id, q)| (*id, q.iter().cloned().collect()))
            .collect();
        inner.stats = snap.stats;
    }
}

/// A frozen image of a [`TaintHub`]: queued records in sorted-id order plus
/// the counters, cheap to clone and shareable across threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubSnapshot {
    queues: Vec<(MsgId, Vec<TaintRecord>)>,
    stats: HubStats,
}

impl HubSnapshot {
    /// Visits every queued record in deterministic order (for digests).
    pub fn for_each_record(&self, mut f: impl FnMut(MsgId, &TaintRecord)) {
        for (id, q) in &self.queues {
            for rec in q {
                f(*id, rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: MsgId = MsgId {
        src: 1,
        dest: 0,
        tag: 9,
    };

    /// Publishes message `seq` of [`ID`] without provenance.
    fn publish(hub: &TaintHub, seq: u64, masks: Vec<u8>) {
        hub.publish_full(ID, seq, masks, 0, Vec::new());
    }

    #[test]
    fn miss_costs_a_poll_and_returns_none() {
        let hub = TaintHub::new();
        assert!(hub.poll_matching(ID, 0).is_none());
        let stats = hub.stats();
        assert_eq!(stats.polls, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn records_are_fifo_per_id() {
        let hub = TaintHub::new();
        publish(&hub, 0, vec![1]);
        publish(&hub, 1, vec![2]);
        assert_eq!(hub.poll_matching(ID, 0).expect("first").masks, vec![1]);
        assert_eq!(hub.poll_matching(ID, 1).expect("second").masks, vec![2]);
        assert!(hub.poll_matching(ID, 2).is_none());
    }

    #[test]
    fn ids_are_independent() {
        let hub = TaintHub::new();
        publish(&hub, 0, vec![1]);
        let other = MsgId {
            tag: ID.tag + 1,
            ..ID
        };
        assert!(hub.poll_matching(other, 0).is_none());
        assert!(hub.poll_matching(ID, 0).is_some());
    }

    #[test]
    fn stats_count_tainted_bytes() {
        let hub = TaintHub::new();
        publish(&hub, 0, vec![0, 0xff, 0, 3]);
        assert_eq!(hub.stats().tainted_bytes_published, 2);
        assert_eq!(hub.pending(), 1);
    }

    #[test]
    fn poll_matching_skips_records_for_later_messages() {
        let hub = TaintHub::new();
        // Message seq 5 was tainted and published; seqs 3 and 4 were clean.
        publish(&hub, 5, vec![0xff]);
        assert!(hub.poll_matching(ID, 3).is_none());
        assert!(hub.poll_matching(ID, 4).is_none());
        let rec = hub.poll_matching(ID, 5).expect("record for seq 5");
        assert_eq!(rec.seq, 5);
        assert!(hub.poll_matching(ID, 5).is_none());
    }

    #[test]
    fn snapshot_restore_round_trips_records_and_stats() {
        let hub = TaintHub::new();
        publish(&hub, 3, vec![0xff, 0]);
        publish(&hub, 5, vec![1]);
        let snap = hub.snapshot();
        // Mutate the hub past the capture point...
        hub.poll_matching(ID, 3);
        publish(&hub, 6, vec![9]);
        // ...then restore a fresh hub and check it matches the capture.
        let other = TaintHub::new();
        other.restore(&snap);
        assert_eq!(other.snapshot(), snap);
        assert_eq!(
            other.poll_matching(ID, 3).expect("restored record").masks,
            vec![0xff, 0]
        );
        let mut seen = Vec::new();
        snap.for_each_record(|id, rec| seen.push((id, rec.seq)));
        assert_eq!(seen, vec![(ID, 3), (ID, 5)]);
    }

    #[test]
    fn publish_full_carries_provenance() {
        let hub = TaintHub::new();
        hub.publish_full(ID, 2, vec![0xff, 0], 5, vec![0b1, 0]);
        let rec = hub.poll_matching(ID, 2).expect("record");
        assert_eq!(rec.provs, vec![0b1, 0]);
        // Publishes without provenance leave it empty.
        publish(&hub, 3, vec![1]);
        assert!(hub.poll_matching(ID, 3).expect("record").provs.is_empty());
    }

    #[test]
    fn hub_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaintHub>();
    }
}
