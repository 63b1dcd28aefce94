//! Fault provenance: *which* injected fault(s) a tainted location derives
//! from, carried in parallel with the taint masks.
//!
//! Taint masks answer "is this bit corrupted"; provenance answers "by which
//! injection". Chaser runs are single-fault, but merged taint (reductions,
//! re-injection campaigns, warm-started runs replaying multiple faults)
//! can mix sources, so provenance is a *set* of fault ids. The set is a
//! fixed 32-bit bitmask: fault ids 0..=30 get their own bit and everything
//! above shares bit 31, so membership stays `Copy` and costs one `or` per
//! propagation step.

use crate::shadow::{Shadow, ShadowCell};
use crate::TaintMask;

/// A set of fault (injection) ids, as a 32-bit bitmask.
///
/// Ids `0..=30` map to their own bit; ids `>= 31` saturate into bit 31, so
/// a pathological campaign step with dozens of live faults still tracks
/// "some late fault" without growing the representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ProvSet(u32);

impl ProvSet {
    /// The empty set: no fault contributed to this location.
    pub const EMPTY: ProvSet = ProvSet(0);

    /// The set containing exactly fault `id` (saturating at bit 31).
    pub fn single(id: u32) -> ProvSet {
        ProvSet(1u32 << id.min(31))
    }

    /// Set union.
    pub fn union(self, other: ProvSet) -> ProvSet {
        ProvSet(self.0 | other.0)
    }

    /// True when no fault id is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when fault `id` (saturated like [`ProvSet::single`]) is present.
    pub fn contains(self, id: u32) -> bool {
        self.0 & ProvSet::single(id).0 != 0
    }

    /// The raw bitmask (for serialization).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuilds a set from [`ProvSet::bits`].
    pub fn from_bits(bits: u32) -> ProvSet {
        ProvSet(bits)
    }

    /// The member ids in ascending order (bit 31 reported as id 31, the
    /// saturation bucket).
    pub fn ids(self) -> Vec<u32> {
        (0..32).filter(|&i| self.0 & (1 << i) != 0).collect()
    }
}

impl ShadowCell for ProvSet {
    const CLEAN: ProvSet = ProvSet::EMPTY;
}

/// Per-byte provenance over guest *physical* memory, the provenance twin of
/// [`crate::ShadowMem`] in the same paged [`Shadow`]: a provenance page
/// holds one [`ProvSet`] per byte of its frame (16 KiB) and is allocated
/// only when a non-empty set is first written into that frame. Provenance
/// stays exact per byte — "per page" is storage, not granularity — and an
/// 8-byte access inside a page costs one index.
pub type ProvMem = Shadow<ProvSet>;

impl ProvMem {
    /// Union of the provenance of the 8 bytes at `paddr`. One index when
    /// the access stays inside a page.
    #[inline]
    pub fn load8(&self, paddr: u64) -> ProvSet {
        self.load8_cells(paddr).map_or(ProvSet::EMPTY, |sets| {
            sets.into_iter().fold(ProvSet::EMPTY, ProvSet::union)
        })
    }

    /// Stores `p` over the 8 bytes at `paddr`, byte-gated by `mask`: bytes
    /// whose taint byte is clean get the empty set. One index when the
    /// access stays inside a page; an all-empty store to a page holding no
    /// provenance touches nothing else.
    #[inline]
    pub fn store8(&mut self, paddr: u64, mask: TaintMask, p: ProvSet) {
        let gate = |byte: u8| if byte != 0 { p } else { ProvSet::EMPTY };
        self.store8_cells(paddr, mask.is_tainted() && !p.is_empty(), || {
            mask.0.to_le_bytes().map(gate)
        });
    }

    /// Number of bytes carrying provenance.
    pub fn provenanced_bytes(&self) -> usize {
        self.tainted_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::tests::rules;
    use crate::shadow::PAGE;

    #[test]
    fn single_and_union_track_membership() {
        let p = ProvSet::single(0).union(ProvSet::single(3));
        assert!(p.contains(0));
        assert!(p.contains(3));
        assert!(!p.contains(1));
        assert_eq!(p.ids(), vec![0, 3]);
    }

    #[test]
    fn large_ids_saturate_into_bit_31() {
        let p = ProvSet::single(31).union(ProvSet::single(1000));
        assert_eq!(p.ids(), vec![31]);
        assert!(p.contains(31));
        assert!(p.contains(1000)); // indistinguishable from 31 by design
    }

    #[test]
    fn empty_set_is_empty() {
        assert!(ProvSet::EMPTY.is_empty());
        assert!(!ProvSet::single(5).is_empty());
        assert_eq!(
            ProvSet::from_bits(ProvSet::single(5).bits()),
            ProvSet::single(5)
        );
    }

    #[test]
    fn mem_holds_entries_iff_nonempty() {
        let mut m = ProvMem::new();
        m.set_byte(100, ProvSet::single(2));
        assert_eq!(m.provenanced_bytes(), 1);
        assert_eq!(m.byte(100), ProvSet::single(2));
        m.set_byte(100, ProvSet::EMPTY);
        assert_eq!(m.provenanced_bytes(), 0);
        assert_eq!(m.byte(100), ProvSet::EMPTY);
    }

    #[test]
    fn load8_unions_bytes() {
        let mut m = ProvMem::new();
        m.set_byte(8, ProvSet::single(0));
        m.set_byte(15, ProvSet::single(4));
        assert_eq!(m.load8(8), ProvSet::single(0).union(ProvSet::single(4)));
        assert_eq!(m.load8(16), ProvSet::EMPTY);
    }

    #[test]
    fn store8_is_mask_gated_and_load8_straddles_pages() {
        let mut m = ProvMem::new();
        let p = ProvSet::single(3);
        let paddr = PAGE as u64 - 4; // bytes 0..4 in frame 0, 4..8 in frame 1
        m.store8(paddr, TaintMask(0xff00_0000_0000_00ff), p);
        assert_eq!(m.provenanced_bytes(), 2);
        assert_eq!(m.byte(paddr), p);
        assert_eq!(m.byte(paddr + 7), p);
        assert_eq!(m.byte(paddr + 1), ProvSet::EMPTY);
        assert_eq!(m.load8(paddr), p);
        m.store8(paddr, TaintMask::ALL, ProvSet::EMPTY);
        assert_eq!(m.provenanced_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "shadow write beyond capacity")]
    fn a_provenance_write_past_capacity_panics() {
        rules::a_live_write_past_capacity_panics(ProvSet::single(0));
    }

    #[test]
    fn empty_writes_never_allocate() {
        rules::clean_writes_never_grow_the_index(ProvSet::single(0));
        let mut m = ProvMem::with_capacity(PAGE as u64);
        // Past capacity, but empty: nothing to store, nothing to assert.
        m.store8(1 << 30, TaintMask::ALL, ProvSet::EMPTY);
        m.store8(64, TaintMask::CLEAN, ProvSet::single(1));
        assert_eq!(m.index_len(), 0);
        assert_eq!(m, ProvMem::new());
    }

    #[test]
    fn cleared_pages_are_skipped_and_compare_equal_to_none() {
        rules::cleared_pages_are_skipped(ProvSet::single(2));
    }

    #[test]
    fn clear_resets_everything() {
        rules::clear_resets_everything(ProvSet::single(1));
    }

    #[test]
    fn clean_range_write_equals_per_byte_clear() {
        rules::clean_range_write_equals_per_byte_clear(ProvSet::single(3));
    }

    #[test]
    fn clones_compare_by_contents_after_clear() {
        let mut m = ProvMem::new();
        m.store8(64, TaintMask::ALL, ProvSet::single(0));
        let snapshot = m.clone();
        assert_eq!(snapshot, m);
        m.store8(64, TaintMask::CLEAN, ProvSet::EMPTY);
        assert_ne!(snapshot, m);
        assert_eq!(m, ProvMem::new(), "cleared bytes leave an empty memory");
        let mut cleared = snapshot.clone();
        cleared.clear();
        assert_eq!(cleared, m);
        assert_eq!(snapshot.provenanced_bytes(), 8, "the clone is independent");
    }

    #[test]
    fn for_each_is_sorted_and_content_pure() {
        let mut m = ProvMem::new();
        m.set_byte(30, ProvSet::single(1));
        m.set_byte(10, ProvSet::single(0));
        m.set_byte(20, ProvSet::single(2));
        m.set_byte(20, ProvSet::EMPTY); // cleared entries never visited
        let mut seen = Vec::new();
        m.for_each(|paddr, p| seen.push((paddr, p)));
        assert_eq!(
            seen,
            vec![(10, ProvSet::single(0)), (30, ProvSet::single(1))]
        );
    }
}
