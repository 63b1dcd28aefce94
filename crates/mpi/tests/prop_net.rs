//! Property tests for the interconnect: per-(source, dest, tag) FIFO
//! order, and conservation of messages.

use chaser_isa::abi::MpiDatatype;
use chaser_mpi::{Envelope, Interconnect};
use proptest::prelude::*;

fn env(src: u32, dest: u32, tag: u64, payload: u64) -> Envelope {
    Envelope {
        src,
        dest,
        tag,
        dtype: MpiDatatype::I64,
        count: 1,
        data: payload.to_le_bytes().to_vec(),
        seq: 0,
    }
}

proptest! {
    /// Messages on the same (src, dest, tag) stream never overtake, no
    /// matter how sends interleave across streams.
    #[test]
    fn same_stream_fifo(
        sends in proptest::collection::vec((0u32..3, 0u32..3, 0u64..3), 1..60),
    ) {
        let mut net = Interconnect::new(3, 0);
        let mut counters = std::collections::HashMap::new();
        for &(src, dest, tag) in &sends {
            let n = counters.entry((src, dest, tag)).or_insert(0u64);
            net.send(env(src, dest, tag, *n), 0);
            *n += 1;
        }
        // Drain every stream; payloads must come out 0, 1, 2, ...
        for (&(src, dest, tag), &count) in &counters {
            for expect in 0..count {
                let got = net
                    .try_match(dest, Some(src), Some(tag), u64::MAX)
                    .expect("message present");
                let payload = u64::from_le_bytes(got.data[..8].try_into().expect("8 bytes"));
                prop_assert_eq!(payload, expect, "stream ({},{},{})", src, dest, tag);
            }
        }
        prop_assert_eq!(net.in_flight(), 0, "all messages drained");
    }

    /// Wildcard draining delivers exactly the sent multiset.
    #[test]
    fn wildcard_drain_conserves_messages(
        sends in proptest::collection::vec((0u32..3, 0u64..4, any::<u64>()), 1..40),
    ) {
        let mut net = Interconnect::new(2, 0);
        let mut expected: Vec<u64> = Vec::new();
        for &(src, tag, payload) in &sends {
            net.send(env(src, 1, tag, payload), 0);
            expected.push(payload);
        }
        let mut got = Vec::new();
        while let Some(envl) = net.try_match(1, None, None, u64::MAX) {
            got.push(u64::from_le_bytes(envl.data[..8].try_into().expect("8 bytes")));
        }
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(net.stats().sent, sends.len() as u64);
        prop_assert_eq!(net.stats().delivered, sends.len() as u64);
    }
}
