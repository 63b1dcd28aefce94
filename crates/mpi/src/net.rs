//! The simulated interconnect.

use crate::envelope::Envelope;
use serde::{Deserialize, Serialize};

/// Interconnect counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages accepted for delivery.
    pub sent: u64,
    /// Messages matched by receivers.
    pub delivered: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    env: Envelope,
}

/// A latency-modelled, non-overtaking point-to-point network.
///
/// Messages become visible to receivers `latency` scheduler rounds after
/// they are sent (the 10GbE switch of the paper's testbed, reduced to the
/// one property fault propagation cares about: messages arrive *later* than
/// they were sent, so taint status must be synchronised out-of-band — the
/// reason TaintHub exists).
///
/// The fabric is reliable: every message sent is matched exactly once, and
/// of the mature messages a receive can take, the oldest send wins.
///
/// `Clone` captures the complete fabric state — in-flight messages and the
/// global sequence counter. Cluster snapshots rely on this: a restored
/// interconnect delivers exactly what the original would have, when the
/// original would have.
#[derive(Debug, Default, Clone)]
pub struct Interconnect {
    queues: Vec<Vec<InFlight>>,
    latency: u64,
    /// Bytes transferable per scheduler round; `0` = infinite bandwidth.
    bytes_per_round: u64,
    next_seq: u64,
    stats: NetStats,
}

impl Interconnect {
    /// A network for `ranks` endpoints with the given delivery latency (in
    /// scheduler rounds) and infinite bandwidth.
    pub fn new(ranks: usize, latency: u64) -> Interconnect {
        Interconnect {
            queues: vec![Vec::new(); ranks],
            latency,
            ..Interconnect::default()
        }
    }

    /// Adds a bandwidth model: a message of `b` bytes takes an extra
    /// `b / bytes_per_round` rounds to arrive (serialisation delay).
    pub fn with_bandwidth(mut self, bytes_per_round: u64) -> Interconnect {
        self.bytes_per_round = bytes_per_round;
        self
    }

    /// Accepts a message at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `env.dest` is out of range — the runtime validates ranks
    /// before calling.
    pub fn send(&mut self, env: Envelope, now: u64) {
        self.stats.sent += 1;
        self.stats.bytes += env.len_bytes();
        let seq = self.next_seq;
        self.next_seq += 1;
        let serialisation = match self.bytes_per_round {
            0 => 0,
            bw => env.len_bytes() / bw,
        };
        let deliver_at = now + self.latency + serialisation;
        self.queues[env.dest as usize].push(InFlight {
            deliver_at,
            seq,
            env,
        });
    }

    /// Matches and removes the oldest mature message for `(dest, source,
    /// tag)` at time `now`. `None` for `source`/`tag` is the MPI wildcard
    /// (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
    pub fn try_match(
        &mut self,
        dest: u32,
        source: Option<u32>,
        tag: Option<u64>,
        now: u64,
    ) -> Option<Envelope> {
        let q = &mut self.queues[dest as usize];
        let best = q
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                m.deliver_at <= now
                    && source.is_none_or(|s| m.env.src == s)
                    && tag.is_none_or(|t| m.env.tag == t)
            })
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)?;
        self.stats.delivered += 1;
        Some(q.swap_remove(best).env)
    }

    /// Is any message (mature or not) in flight towards `dest` matching
    /// `source`/`tag` (wildcards as in [`Interconnect::try_match`])? Used
    /// to distinguish "will arrive later" from "peer is dead and nothing is
    /// coming".
    pub fn has_in_flight(&self, dest: u32, source: Option<u32>, tag: Option<u64>) -> bool {
        self.queues[dest as usize]
            .iter()
            .any(|m| source.is_none_or(|s| m.env.src == s) && tag.is_none_or(|t| m.env.tag == t))
    }

    /// Total undelivered messages.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Visits every in-flight message in deterministic (queue, insertion)
    /// order as `(dest, deliver_at, seq, envelope)` — state digests hash
    /// this to compare fabrics.
    pub fn for_each_in_flight(&self, mut f: impl FnMut(u32, u64, u64, &Envelope)) {
        for (dest, q) in self.queues.iter().enumerate() {
            for m in q {
                f(dest as u32, m.deliver_at, m.seq, &m.env);
            }
        }
    }

    /// The global send-sequence counter (monotone over the fabric's life).
    pub fn seq_counter(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_isa::abi::MpiDatatype;

    fn env(src: u32, dest: u32, tag: u64, data: &[u8]) -> Envelope {
        Envelope {
            src,
            dest,
            tag,
            dtype: MpiDatatype::Byte,
            count: data.len() as u64,
            data: data.to_vec(),
            taint_header: None,
            seq: 0,
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let mut net = Interconnect::new(2, 2);
        net.send(env(0, 1, 7, b"x"), 10);
        assert!(net.try_match(1, Some(0), Some(7), 10).is_none());
        assert!(net.try_match(1, Some(0), Some(7), 11).is_none());
        assert!(net.try_match(1, Some(0), Some(7), 12).is_some());
    }

    #[test]
    fn matching_is_by_source_and_tag() {
        let mut net = Interconnect::new(3, 0);
        net.send(env(0, 2, 1, b"a"), 0);
        net.send(env(1, 2, 1, b"b"), 0);
        net.send(env(0, 2, 9, b"c"), 0);
        assert_eq!(net.try_match(2, Some(1), Some(1), 0).expect("b").data, b"b");
        assert_eq!(net.try_match(2, Some(0), Some(9), 0).expect("c").data, b"c");
        assert_eq!(net.try_match(2, Some(0), Some(1), 0).expect("a").data, b"a");
        assert!(net.try_match(2, Some(0), Some(1), 0).is_none());
    }

    #[test]
    fn same_pair_messages_do_not_overtake() {
        let mut net = Interconnect::new(2, 0);
        net.send(env(0, 1, 7, b"first"), 0);
        net.send(env(0, 1, 7, b"second"), 0);
        assert_eq!(
            net.try_match(1, Some(0), Some(7), 5).expect("1st").data,
            b"first"
        );
        assert_eq!(
            net.try_match(1, Some(0), Some(7), 5).expect("2nd").data,
            b"second"
        );
    }

    #[test]
    fn bandwidth_delays_large_messages() {
        let mut net = Interconnect::new(2, 1).with_bandwidth(8);
        net.send(env(0, 1, 7, &[0u8; 32]), 0); // 32 bytes / 8 per round = 4
        assert!(net.try_match(1, Some(0), Some(7), 4).is_none());
        assert!(net.try_match(1, Some(0), Some(7), 5).is_some());
        // A small message on the same link is fast.
        net.send(env(0, 1, 8, b"x"), 0);
        assert!(net.try_match(1, Some(0), Some(8), 1).is_some());
    }

    #[test]
    fn wildcard_matching() {
        let mut net = Interconnect::new(2, 0);
        net.send(env(0, 1, 7, b"a"), 0);
        net.send(env(0, 1, 9, b"b"), 0);
        // ANY_TAG takes the oldest regardless of tag.
        assert_eq!(net.try_match(1, Some(0), None, 0).expect("a").data, b"a");
        // ANY_SOURCE with a tag.
        assert_eq!(net.try_match(1, None, Some(9), 0).expect("b").data, b"b");
        assert!(net.try_match(1, None, None, 0).is_none());
        assert!(!net.has_in_flight(1, None, None));
    }

    #[test]
    fn in_flight_visibility() {
        let mut net = Interconnect::new(2, 100);
        net.send(env(0, 1, 7, b"x"), 0);
        assert!(net.has_in_flight(1, Some(0), Some(7)));
        assert!(!net.has_in_flight(1, Some(0), Some(8)));
        assert_eq!(net.in_flight(), 1);
        assert_eq!(net.stats().sent, 1);
        assert_eq!(net.stats().delivered, 0);
    }
}
