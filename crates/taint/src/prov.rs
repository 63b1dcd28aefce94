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

use crate::shadow::{split, FrameIndex, PAGE};
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

/// Per-byte provenance over guest *physical* memory, the provenance twin of
/// [`crate::ShadowMem`], with the same frame-indexed layout: a provenance
/// page holds one [`ProvSet`] per byte of its frame (16 KiB) plus a count
/// of its non-empty sets, and is allocated only when a non-empty set is
/// first written into that frame. Provenance stays exact per byte — "per
/// page" is storage, not granularity — and an 8-byte access inside a page
/// costs one index instead of eight map probes.
///
/// Iteration visits non-empty sets only, in ascending address order, and
/// equality compares contents, so an allocated page whose sets were all
/// cleared is indistinguishable from no page: both are pure functions of
/// the provenance contents, which is what state digests need.
#[derive(Debug, Clone)]
pub struct ProvMem {
    pages: FrameIndex<ProvPage>,
    live_bytes: usize,
}

/// One frame's per-byte provenance plus its count of non-empty sets.
#[derive(Debug, Clone)]
struct ProvPage {
    sets: Box<[ProvSet; PAGE]>,
    live: u32,
}

impl ProvPage {
    fn new() -> ProvPage {
        ProvPage {
            sets: Box::new([ProvSet::EMPTY; PAGE]),
            live: 0,
        }
    }

    /// The page's sets when it holds any, else `None`.
    fn live_sets(&self) -> Option<&[ProvSet; PAGE]> {
        (self.live > 0).then_some(&*self.sets)
    }
}

impl Default for ProvMem {
    fn default() -> ProvMem {
        ProvMem::new()
    }
}

impl PartialEq for ProvMem {
    fn eq(&self, other: &ProvMem) -> bool {
        fn live(m: &ProvMem, frame: usize) -> Option<&[ProvSet; PAGE]> {
            m.pages.get(frame).and_then(ProvPage::live_sets)
        }
        self.live_bytes == other.live_bytes
            && (0..self.pages.len().max(other.pages.len()))
                .all(|frame| live(self, frame) == live(other, frame))
    }
}

impl Eq for ProvMem {}

impl ProvMem {
    /// An empty provenance shadow for a default-sized node (64 MiB).
    pub fn new() -> ProvMem {
        ProvMem::with_capacity(crate::shadow::DEFAULT_CAPACITY)
    }

    /// An empty provenance shadow over `bytes` of physical memory. Writing
    /// a non-empty set past that capacity panics.
    pub fn with_capacity(bytes: u64) -> ProvMem {
        ProvMem {
            pages: FrameIndex::with_capacity(bytes),
            live_bytes: 0,
        }
    }

    /// The provenance of the byte at physical address `paddr`.
    pub fn byte(&self, paddr: u64) -> ProvSet {
        let (frame, off) = split(paddr);
        self.pages
            .get(frame)
            .map_or(ProvSet::EMPTY, |p| p.sets[off])
    }

    /// Sets (or, for the empty set, clears) the byte at `paddr`.
    pub fn set_byte(&mut self, paddr: u64, p: ProvSet) {
        let (frame, off) = split(paddr);
        let page = if p.is_empty() {
            match self.pages.get_mut(frame) {
                Some(page) => page,
                None => return,
            }
        } else {
            self.pages.get_or_alloc(frame, ProvPage::new)
        };
        let old = std::mem::replace(&mut page.sets[off], p);
        match (old.is_empty(), p.is_empty()) {
            (true, false) => {
                page.live += 1;
                self.live_bytes += 1;
            }
            (false, true) => {
                page.live -= 1;
                self.live_bytes -= 1;
            }
            _ => {}
        }
    }

    /// Union of the provenance of the 8 bytes at `paddr`. One index when
    /// the access stays inside a page.
    #[inline]
    pub fn load8(&self, paddr: u64) -> ProvSet {
        let (frame, off) = split(paddr);
        if off > PAGE - 8 {
            return (0..8u64).fold(ProvSet::EMPTY, |acc, i| acc.union(self.byte(paddr + i)));
        }
        match self.pages.get(frame) {
            Some(p) if p.live > 0 => p.sets[off..off + 8]
                .iter()
                .fold(ProvSet::EMPTY, |acc, &s| acc.union(s)),
            _ => ProvSet::EMPTY,
        }
    }

    /// Stores `p` over the 8 bytes at `paddr`, byte-gated by `mask`: bytes
    /// whose taint byte is clean get the empty set. One index when the
    /// access stays inside a page; an all-empty store to a page holding no
    /// provenance touches nothing else.
    #[inline]
    pub fn store8(&mut self, paddr: u64, mask: TaintMask, p: ProvSet) {
        let (frame, off) = split(paddr);
        if off > PAGE - 8 {
            for i in 0..8 {
                let set = if mask.byte(i) != 0 { p } else { ProvSet::EMPTY };
                self.set_byte(paddr + i as u64, set);
            }
            return;
        }
        let p = if mask.is_clean() { ProvSet::EMPTY } else { p };
        let page = if p.is_empty() {
            match self.pages.get_mut(frame) {
                Some(page) if page.live > 0 => page,
                _ => return,
            }
        } else {
            self.pages.get_or_alloc(frame, ProvPage::new)
        };
        let slot: &mut [ProvSet; 8] = (&mut page.sets[off..off + 8])
            .try_into()
            .expect("8 in-page bytes");
        let (mut old_live, mut new_live) = (0u32, 0u32);
        for (s, byte) in slot.iter_mut().zip(mask.0.to_le_bytes()) {
            let new = if byte != 0 { p } else { ProvSet::EMPTY };
            old_live += u32::from(!s.is_empty());
            new_live += u32::from(!new.is_empty());
            *s = new;
        }
        page.live = page.live - old_live + new_live;
        self.live_bytes = self.live_bytes - old_live as usize + new_live as usize;
    }

    /// Reads the sets of the `out.len()` bytes at `paddr`, which must lie
    /// inside one page. A page with no live set reads as empty sets without
    /// its sets being touched.
    pub fn read_in_page(&self, paddr: u64, out: &mut [ProvSet]) {
        let (frame, off) = split(paddr);
        debug_assert!(off + out.len() <= PAGE, "read crosses a page");
        match self.pages.get(frame).and_then(ProvPage::live_sets) {
            Some(sets) => out.copy_from_slice(&sets[off..off + out.len()]),
            None => out.fill(ProvSet::EMPTY),
        }
    }

    /// Overwrites the sets of the `sets.len()` bytes at `paddr`, which must
    /// lie inside one page. An all-empty write to a page with no live set
    /// (or no page) returns at once and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty set lands beyond the capacity.
    pub fn write_in_page(&mut self, paddr: u64, sets: &[ProvSet]) {
        let (frame, off) = split(paddr);
        debug_assert!(off + sets.len() <= PAGE, "write crosses a page");
        let new = live_count(sets);
        let page = if new == 0 {
            match self.pages.get_mut(frame) {
                Some(page) if page.live > 0 => page,
                _ => return,
            }
        } else {
            self.pages.get_or_alloc(frame, ProvPage::new)
        };
        let slot = &mut page.sets[off..off + sets.len()];
        let old = live_count(slot);
        slot.copy_from_slice(sets);
        page.live = page.live - old + new;
        debug_assert_eq!(page.live, live_count(&page.sets[..]), "page summary");
        self.live_bytes = self.live_bytes - old as usize + new as usize;
    }

    /// Number of frame-index slots: a write that stores nothing must not
    /// grow it.
    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.pages.len()
    }

    /// Number of bytes carrying provenance.
    pub fn provenanced_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Removes all provenance.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.live_bytes = 0;
    }

    /// Visits every provenanced byte as `(paddr, set)` in ascending address
    /// order — the deterministic sequence state digests hash.
    pub fn for_each(&self, mut f: impl FnMut(u64, ProvSet)) {
        for (frame, page) in self.pages.iter() {
            let Some(sets) = page.live_sets() else {
                continue;
            };
            for (off, &set) in sets.iter().enumerate() {
                if !set.is_empty() {
                    f((frame * PAGE + off) as u64, set);
                }
            }
        }
    }
}

/// Number of non-empty sets in `sets`.
#[inline]
fn live_count(sets: &[ProvSet]) -> u32 {
    sets.iter().filter(|s| !s.is_empty()).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut m = ProvMem::with_capacity(4 * PAGE as u64);
        m.set_byte(4 * PAGE as u64, ProvSet::single(0));
    }

    #[test]
    fn empty_writes_never_allocate() {
        let mut m = ProvMem::with_capacity(PAGE as u64);
        // Past capacity, but empty: nothing to store, nothing to assert.
        m.store8(1 << 30, TaintMask::ALL, ProvSet::EMPTY);
        m.set_byte(1 << 30, ProvSet::EMPTY);
        assert_eq!(m.pages.len(), 0);
        assert_eq!(m, ProvMem::new());
    }

    #[test]
    fn cleared_pages_are_skipped_and_compare_equal_to_none() {
        let mut m = ProvMem::new();
        m.set_byte(5, ProvSet::single(1));
        m.set_byte(3 * PAGE as u64 + 9, ProvSet::single(2));
        m.set_byte(5, ProvSet::EMPTY); // frame 0 allocated, now empty
        let mut seen = Vec::new();
        m.for_each(|paddr, p| seen.push((paddr, p)));
        assert_eq!(seen, vec![(3 * PAGE as u64 + 9, ProvSet::single(2))]);
        let mut fresh = ProvMem::new();
        fresh.set_byte(3 * PAGE as u64 + 9, ProvSet::single(2));
        assert_eq!(m, fresh, "an all-empty page equals no page");
        assert_eq!(fresh, m);
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
