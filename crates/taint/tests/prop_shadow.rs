//! Property tests: shadow and provenance memory agree with naive model
//! maps — per byte, in their counters, per-page summaries and visit order —
//! and the tainted-byte counter is always exact.

use chaser_taint::{ProvMem, ProvSet, ShadowMem, TaintMask, TaintPolicy, TaintState};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const PAGE: u64 = 4096;
/// A frame far from the low ones, so the lazy frame index has to grow
/// across thousands of empty slots (still inside a 64 MiB node).
const FAR: u64 = 5_000 * PAGE;

#[derive(Debug, Clone)]
enum Op {
    SetByte(u64, u8),
    Store8(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Confine addresses to a few pages so operations actually collide.
    let addr = 0u64..3 * 4096;
    prop_oneof![
        (addr.clone(), any::<u8>()).prop_map(|(a, m)| Op::SetByte(a, m)),
        (addr, any::<u64>()).prop_map(|(a, m)| Op::Store8(a, m)),
    ]
}

/// An address in one of two windows: the first three frames, or two frames
/// far above them. Both straddle page boundaries.
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..3 * PAGE, FAR..FAR + 2 * PAGE]
}

/// Sparse masks: most bytes clean, so stores both set and clear.
fn arb_mask() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        any::<u64>().prop_map(|m| m & 0x00ff_0000_ff00_00ff),
        any::<u64>(),
    ]
}

fn arb_prov() -> impl Strategy<Value = ProvSet> {
    prop_oneof![Just(ProvSet::EMPTY), (0u32..40).prop_map(ProvSet::single)]
}

#[derive(Debug, Clone)]
enum ProvOp {
    SetByte(u64, ProvSet),
    Store8(u64, u64, ProvSet),
    Load8(u64),
}

fn arb_prov_op() -> impl Strategy<Value = ProvOp> {
    prop_oneof![
        (arb_addr(), arb_prov()).prop_map(|(a, p)| ProvOp::SetByte(a, p)),
        (arb_addr(), arb_mask(), arb_prov()).prop_map(|(a, m, p)| ProvOp::Store8(a, m, p)),
        arb_addr().prop_map(ProvOp::Load8),
    ]
}

/// The provenance model: a byte map holding an entry iff its set is
/// non-empty.
fn model_set(model: &mut HashMap<u64, ProvSet>, addr: u64, p: ProvSet) {
    if p.is_empty() {
        model.remove(&addr);
    } else {
        model.insert(addr, p);
    }
}

fn model_mask_set(model: &mut HashMap<u64, u8>, addr: u64, mask: u8) {
    if mask == 0 {
        model.remove(&addr);
    } else {
        model.insert(addr, mask);
    }
}

#[derive(Debug, Clone)]
enum StateOp {
    Store8(u64, u64),
    SetByte(u64, u8),
    ProvStore8(u64, u64, ProvSet),
    SetProvByte(u64, ProvSet),
}

fn arb_state_op() -> impl Strategy<Value = StateOp> {
    prop_oneof![
        (arb_addr(), arb_mask()).prop_map(|(a, m)| StateOp::Store8(a, m)),
        (arb_addr(), any::<u8>()).prop_map(|(a, m)| StateOp::SetByte(a, m)),
        (arb_addr(), arb_mask(), arb_prov()).prop_map(|(a, m, p)| StateOp::ProvStore8(a, m, p)),
        (arb_addr(), arb_prov()).prop_map(|(a, p)| StateOp::SetProvByte(a, p)),
    ]
}

proptest! {
    #[test]
    fn shadow_matches_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut shadow = ShadowMem::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in &ops {
            match *op {
                Op::SetByte(addr, mask) => {
                    shadow.set_byte(addr, mask);
                    model_mask_set(&mut model, addr, mask);
                }
                Op::Store8(addr, mask) => {
                    shadow.store8(addr, TaintMask(mask));
                    for i in 0..8u64 {
                        model_mask_set(&mut model, addr + i, (mask >> (8 * i)) as u8);
                    }
                }
            }
        }
        // Counter is exact.
        prop_assert_eq!(shadow.tainted_bytes(), model.len());
        // Every model byte reads back; spot-check some clean bytes too.
        for (&addr, &mask) in &model {
            prop_assert_eq!(shadow.byte(addr), mask);
        }
        for addr in (0..3 * 4096).step_by(97) {
            prop_assert_eq!(shadow.byte(addr), model.get(&addr).copied().unwrap_or(0));
        }
    }

    #[test]
    fn load8_equals_byte_assembly(stores in proptest::collection::vec((0u64..4096, any::<u64>()), 1..50), probe in 0u64..4096) {
        let mut shadow = ShadowMem::new();
        for (addr, mask) in &stores {
            shadow.store8(*addr, TaintMask(*mask));
        }
        let assembled: [u8; 8] = std::array::from_fn(|i| shadow.byte(probe + i as u64));
        prop_assert_eq!(shadow.load8(probe), TaintMask::from_bytes(assembled));
    }

    /// Per-page summaries and the page visit agree with the model, across
    /// two windows far apart.
    #[test]
    fn shadow_page_summaries_and_visit_match_model(
        ops in proptest::collection::vec((arb_addr(), arb_mask()), 1..150),
    ) {
        let mut shadow = ShadowMem::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(addr, mask) in &ops {
            shadow.store8(addr, TaintMask(mask));
            for i in 0..8u64 {
                model_mask_set(&mut model, addr + i, (mask >> (8 * i)) as u8);
            }
        }
        let mut per_page: BTreeMap<u64, u32> = BTreeMap::new();
        for &addr in model.keys() {
            *per_page.entry(addr / PAGE).or_default() += 1;
        }
        for frame in [0, 1, 2, 3, FAR / PAGE, FAR / PAGE + 1, FAR / PAGE + 2] {
            prop_assert_eq!(
                shadow.page_tainted_bytes(frame * PAGE + 17),
                per_page.get(&frame).copied().unwrap_or(0)
            );
        }
        // Visited pages: exactly the model's tainted frames, ascending,
        // with the model's bytes in them.
        let mut visited = Vec::new();
        let mut rebuilt: HashMap<u64, u8> = HashMap::new();
        shadow.for_each_tainted_page(|base, masks| {
            visited.push(base / PAGE);
            for (off, &m) in masks.iter().enumerate() {
                if m != 0 {
                    rebuilt.insert(base + off as u64, m);
                }
            }
        });
        prop_assert_eq!(visited, per_page.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(rebuilt, model);
    }

    /// `ProvMem` against a byte map: reads, the live-byte count and the
    /// visit order.
    #[test]
    fn prov_mem_matches_model(ops in proptest::collection::vec(arb_prov_op(), 1..200)) {
        let mut mem = ProvMem::new();
        let mut model: HashMap<u64, ProvSet> = HashMap::new();
        for op in &ops {
            match *op {
                ProvOp::SetByte(addr, p) => {
                    mem.set_byte(addr, p);
                    model_set(&mut model, addr, p);
                }
                ProvOp::Store8(addr, mask, p) => {
                    mem.store8(addr, TaintMask(mask), p);
                    for i in 0..8u64 {
                        let tainted = (mask >> (8 * i)) as u8 != 0;
                        model_set(&mut model, addr + i, if tainted { p } else { ProvSet::EMPTY });
                    }
                }
                ProvOp::Load8(addr) => {
                    let want = (0..8u64).fold(ProvSet::EMPTY, |acc, i| {
                        acc.union(model.get(&(addr + i)).copied().unwrap_or_default())
                    });
                    prop_assert_eq!(mem.load8(addr), want);
                }
            }
        }
        prop_assert_eq!(mem.provenanced_bytes(), model.len());
        for (&addr, &p) in &model {
            prop_assert_eq!(mem.byte(addr), p);
        }
        let mut seen = Vec::new();
        mem.for_each(|addr, p| seen.push((addr, p)));
        let sorted: Vec<(u64, ProvSet)> = model.iter().map(|(&a, &p)| (a, p)).collect::<BTreeMap<_, _>>().into_iter().collect();
        prop_assert_eq!(seen, sorted);
        // Equality is by contents: a fresh memory rebuilt from the model in
        // another order equals this one whatever pages either allocated.
        let mut rebuilt = ProvMem::new();
        for (&addr, &p) in &model {
            rebuilt.set_byte(addr, p);
        }
        prop_assert!(rebuilt == mem);
    }

    /// A clean-range write equals cleaning every byte of the range, for
    /// masks and provenance alike: counters, per-page summaries and the
    /// visits against the byte maps.
    #[test]
    fn clean_range_writes_match_model(
        stores in proptest::collection::vec((arb_addr(), arb_mask(), arb_prov()), 1..80),
        clears in proptest::collection::vec((arb_addr(), 0..=PAGE as usize), 1..8),
    ) {
        let (mut shadow, mut prov) = (ShadowMem::new(), ProvMem::new());
        let mut masks: HashMap<u64, u8> = HashMap::new();
        let mut provs: HashMap<u64, ProvSet> = HashMap::new();
        for &(addr, mask, p) in &stores {
            shadow.store8(addr, TaintMask(mask));
            prov.store8(addr, TaintMask(mask), p);
            for i in 0..8u64 {
                let byte = (mask >> (8 * i)) as u8;
                model_mask_set(&mut masks, addr + i, byte);
                model_set(&mut provs, addr + i, if byte != 0 { p } else { ProvSet::EMPTY });
            }
        }
        for &(addr, len) in &clears {
            let len = len.min((PAGE - addr % PAGE) as usize);
            shadow.clear_in_page(addr, len);
            prov.clear_in_page(addr, len);
            for a in addr..addr + len as u64 {
                masks.remove(&a);
                provs.remove(&a);
            }
        }
        prop_assert_eq!(shadow.tainted_bytes(), masks.len());
        prop_assert_eq!(prov.provenanced_bytes(), provs.len());
        for frame in [0, 1, 2, 3, FAR / PAGE, FAR / PAGE + 1, FAR / PAGE + 2] {
            let in_frame = |a: &u64| *a / PAGE == frame;
            prop_assert_eq!(
                shadow.page_tainted_bytes(frame * PAGE) as usize,
                masks.keys().filter(|a| in_frame(a)).count()
            );
            prop_assert_eq!(
                prov.page_tainted_bytes(frame * PAGE) as usize,
                provs.keys().filter(|a| in_frame(a)).count()
            );
        }
        let (mut seen_masks, mut seen_provs) = (Vec::new(), Vec::new());
        shadow.for_each(|a, m| seen_masks.push((a, m)));
        prov.for_each(|a, p| seen_provs.push((a, p)));
        prop_assert_eq!(seen_masks, masks.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect::<Vec<_>>());
        prop_assert_eq!(seen_provs, provs.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect::<Vec<_>>());
    }

    /// `mem_idle` holds exactly when the model has neither a tainted nor a
    /// provenanced byte.
    #[test]
    fn mem_idle_iff_model_is_empty(ops in proptest::collection::vec(arb_state_op(), 1..120)) {
        let mut state = TaintState::new(TaintPolicy::Precise);
        let mut masks: HashMap<u64, u8> = HashMap::new();
        let mut provs: HashMap<u64, ProvSet> = HashMap::new();
        for op in &ops {
            match *op {
                StateOp::Store8(addr, mask) => {
                    state.mem_mut().store8(addr, TaintMask(mask));
                    for i in 0..8u64 {
                        model_mask_set(&mut masks, addr + i, (mask >> (8 * i)) as u8);
                    }
                }
                StateOp::SetByte(addr, mask) => {
                    state.mem_mut().set_byte(addr, mask);
                    model_mask_set(&mut masks, addr, mask);
                }
                StateOp::ProvStore8(addr, mask, p) => {
                    state.prov_store8(addr, TaintMask(mask), p);
                    // Nothing is written until some provenance exists.
                    if state.prov_any() {
                        for i in 0..8u64 {
                            let tainted = (mask >> (8 * i)) as u8 != 0;
                            model_set(&mut provs, addr + i, if tainted { p } else { ProvSet::EMPTY });
                        }
                    }
                }
                StateOp::SetProvByte(addr, p) => {
                    state.set_prov_byte(addr, p);
                    if state.prov_any() {
                        model_set(&mut provs, addr, p);
                    }
                }
            }
            prop_assert_eq!(state.mem_idle(), masks.is_empty() && provs.is_empty());
            prop_assert_eq!(state.prov_mem().provenanced_bytes(), provs.len());
        }
    }
}
