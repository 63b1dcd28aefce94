//! Shadow memory: per-byte taint over guest *physical* memory.

use crate::TaintMask;

/// Shadow page size: one shadow page per guest physical frame.
pub(crate) const PAGE: usize = chaser_isa::PAGE_SIZE as usize;

/// Capacity a shadow gets from `new()`: the default node's physical memory
/// (`chaser_vm::DEFAULT_PHYS_BYTES`). Nodes pass their own size.
pub(crate) const DEFAULT_CAPACITY: u64 = 64 << 20;

/// A lazily grown, frame-indexed table of shadow pages — the shape
/// `PhysMemory` has: slot `i` shadows physical frame `i`, the index reaches
/// only as far as the highest frame ever written, and frames past its end
/// hold nothing. Lookups are one bounds-checked index, not a hash probe.
#[derive(Debug, Clone)]
pub(crate) struct FrameIndex<P> {
    pages: Vec<Option<P>>,
    /// Capacity in frames: a write past it is a VM bug, not a guest fault.
    frames: usize,
}

impl<P> FrameIndex<P> {
    pub(crate) fn with_capacity(bytes: u64) -> FrameIndex<P> {
        FrameIndex {
            pages: Vec::new(),
            frames: bytes.div_ceil(PAGE as u64) as usize,
        }
    }

    #[inline]
    pub(crate) fn get(&self, frame: usize) -> Option<&P> {
        self.pages.get(frame).and_then(Option::as_ref)
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, frame: usize) -> Option<&mut P> {
        self.pages.get_mut(frame).and_then(Option::as_mut)
    }

    /// The page for `frame`, growing the index up to it and allocating the
    /// page with `new` on first use.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is beyond the capacity, as `PhysMemory` does for a
    /// physical write beyond capacity.
    #[inline]
    pub(crate) fn get_or_alloc(&mut self, frame: usize, new: impl FnOnce() -> P) -> &mut P {
        if frame >= self.pages.len() {
            assert!(frame < self.frames, "shadow write beyond capacity");
            self.pages.resize_with(frame + 1, || None);
        }
        self.pages[frame].get_or_insert_with(new)
    }

    /// Allocated pages in ascending frame order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &P)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(frame, p)| p.as_ref().map(|p| (frame, p)))
    }

    /// Number of index slots (the highest written frame + 1).
    pub(crate) fn len(&self) -> usize {
        self.pages.len()
    }

    /// Drops every page and the index itself; the capacity stays.
    pub(crate) fn clear(&mut self) {
        self.pages = Vec::new();
    }
}

/// Byte-granular shadow memory over physical addresses.
///
/// DECAF shadows physical memory so taint survives context switches and is
/// shared by every mapping of a page; Chaser logs both virtual and physical
/// addresses of tainted accesses. Storage is a frame-indexed table of
/// lazily allocated 4 KiB mask pages (one per guest frame, allocated when
/// taint is first written into it), so every in-page access costs one
/// index — a fault campaign touches a tiny fraction of guest RAM, and the
/// index only reaches the highest tainted frame.
///
/// The structure maintains a running count of tainted bytes, which is what
/// the paper's Fig. 7 samples every 100K instructions, and a per-page
/// tainted-byte count: the O(1) page summary that lets a clean access to a
/// taint-free page return without reading the masks.
#[derive(Debug, Clone)]
pub struct ShadowMem {
    pages: FrameIndex<ShadowPage>,
    tainted_bytes: usize,
}

/// One shadow page plus a summary count of its tainted bytes.
#[derive(Debug, Clone)]
struct ShadowPage {
    masks: Box<[u8; PAGE]>,
    tainted: u32,
}

impl ShadowPage {
    fn new() -> ShadowPage {
        ShadowPage {
            masks: Box::new([0u8; PAGE]),
            tainted: 0,
        }
    }

    /// Overwrites the 8 masks at in-page offset `off`, returning the
    /// tainted-byte counts `(before, after)` of those 8 bytes.
    #[inline]
    fn write8(&mut self, off: usize, mask: TaintMask) -> (u32, u32) {
        let slot: &mut [u8; 8] = (&mut self.masks[off..off + 8])
            .try_into()
            .expect("8 in-page bytes");
        let old = nonzero_bytes(u64::from_le_bytes(*slot));
        let new = nonzero_bytes(mask.0);
        *slot = mask.0.to_le_bytes();
        self.tainted = self.tainted - old + new;
        (old, new)
    }
}

impl Default for ShadowMem {
    fn default() -> ShadowMem {
        ShadowMem::new()
    }
}

impl ShadowMem {
    /// An empty shadow for a default-sized node (64 MiB).
    pub fn new() -> ShadowMem {
        ShadowMem::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty shadow over `bytes` of physical memory (rounded up to a
    /// page). Writing taint past that capacity panics.
    pub fn with_capacity(bytes: u64) -> ShadowMem {
        ShadowMem {
            pages: FrameIndex::with_capacity(bytes),
            tainted_bytes: 0,
        }
    }

    /// The taint bits of the byte at physical address `paddr`.
    pub fn byte(&self, paddr: u64) -> u8 {
        let (frame, off) = split(paddr);
        self.pages.get(frame).map_or(0, |p| p.masks[off])
    }

    /// Sets the taint bits of the byte at `paddr`.
    pub fn set_byte(&mut self, paddr: u64, mask: u8) {
        let (frame, off) = split(paddr);
        let p = if mask == 0 {
            // Avoid allocating a page just to store zero.
            match self.pages.get_mut(frame) {
                Some(p) => p,
                None => return,
            }
        } else {
            self.pages.get_or_alloc(frame, ShadowPage::new)
        };
        let old = p.masks[off];
        p.masks[off] = mask;
        match (old == 0, mask == 0) {
            (true, false) => {
                self.tainted_bytes += 1;
                p.tainted += 1;
            }
            (false, true) => {
                self.tainted_bytes -= 1;
                p.tainted -= 1;
            }
            _ => {}
        }
    }

    /// Loads the taint of the 8 bytes at `paddr` as a value mask
    /// (little-endian, matching guest loads). One index when the access
    /// stays inside a shadow page.
    #[inline]
    pub fn load8(&self, paddr: u64) -> TaintMask {
        let (frame, off) = split(paddr);
        if off > PAGE - 8 {
            return TaintMask::from_bytes(std::array::from_fn(|i| self.byte(paddr + i as u64)));
        }
        match self.pages.get(frame) {
            Some(p) if p.tainted > 0 => {
                TaintMask::from_bytes(p.masks[off..off + 8].try_into().expect("8 in-page bytes"))
            }
            _ => TaintMask::CLEAN,
        }
    }

    /// Stores a value mask over the 8 bytes at `paddr`. One index when the
    /// access stays inside a shadow page; a clean store to a taint-free
    /// page touches nothing else.
    #[inline]
    pub fn store8(&mut self, paddr: u64, mask: TaintMask) {
        let (frame, off) = split(paddr);
        if off > PAGE - 8 {
            for i in 0..8 {
                self.set_byte(paddr + i as u64, mask.byte(i));
            }
            return;
        }
        let p = if mask.is_clean() {
            match self.pages.get_mut(frame) {
                Some(p) if p.tainted > 0 => p,
                _ => return,
            }
        } else {
            self.pages.get_or_alloc(frame, ShadowPage::new)
        };
        let (old, new) = p.write8(off, mask);
        self.tainted_bytes = self.tainted_bytes - old as usize + new as usize;
    }

    /// Reads the masks of the `out.len()` bytes at `paddr`, which must lie
    /// inside one page. A page with no tainted byte reads as zeros without
    /// its masks being touched.
    pub fn read_in_page(&self, paddr: u64, out: &mut [u8]) {
        let (frame, off) = split(paddr);
        debug_assert!(off + out.len() <= PAGE, "read crosses a page");
        match self.pages.get(frame) {
            Some(p) if p.tainted > 0 => out.copy_from_slice(&p.masks[off..off + out.len()]),
            _ => out.fill(0),
        }
    }

    /// Overwrites the masks of the `masks.len()` bytes at `paddr`, which
    /// must lie inside one page. An all-clean write to a page with no
    /// tainted byte (or no page) returns at once and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a tainted byte lands beyond the capacity.
    pub fn write_in_page(&mut self, paddr: u64, masks: &[u8]) {
        let (frame, off) = split(paddr);
        debug_assert!(off + masks.len() <= PAGE, "write crosses a page");
        let new = nonzero_count(masks);
        let p = if new == 0 {
            match self.pages.get_mut(frame) {
                Some(p) if p.tainted > 0 => p,
                _ => return,
            }
        } else {
            self.pages.get_or_alloc(frame, ShadowPage::new)
        };
        let slot = &mut p.masks[off..off + masks.len()];
        let old = nonzero_count(slot);
        slot.copy_from_slice(masks);
        p.tainted = p.tainted - old + new;
        debug_assert_eq!(p.tainted, nonzero_count(&p.masks[..]), "page summary");
        self.tainted_bytes = self.tainted_bytes - old as usize + new as usize;
    }

    /// Number of frame-index slots: a write that stores nothing must not
    /// grow it.
    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.pages.len()
    }

    /// Current number of tainted bytes (the Fig. 7 series).
    pub fn tainted_bytes(&self) -> usize {
        self.tainted_bytes
    }

    /// True when no byte anywhere carries taint. Invariant:
    /// `tainted_bytes == 0` ⇔ every allocated page's summary count is zero
    /// ⇔ every mask byte is zero.
    pub fn is_idle(&self) -> bool {
        self.tainted_bytes == 0
    }

    /// Number of tainted bytes in the shadow page containing `paddr` (the
    /// per-page taint summary).
    pub fn page_tainted_bytes(&self, paddr: u64) -> u32 {
        let (frame, _) = split(paddr);
        self.pages.get(frame).map_or(0, |p| p.tainted)
    }

    /// Clears all taint.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.tainted_bytes = 0;
    }

    /// Visits every shadow page holding at least one tainted byte, in
    /// ascending physical-page order, as `(page_base_paddr, masks)`.
    ///
    /// Allocated-but-fully-clean pages (taint written then cleared) are
    /// skipped, so the visit sequence is a pure function of the tainted
    /// set — two executions with identical taint contents visit identical
    /// sequences regardless of allocation history. This is what state
    /// digests hash.
    pub fn for_each_tainted_page(&self, mut f: impl FnMut(u64, &[u8])) {
        for (frame, p) in self.pages.iter() {
            if p.tainted > 0 {
                f((frame * PAGE) as u64, &p.masks[..]);
            }
        }
    }
}

/// Splits a physical address into `(frame, in-page offset)`.
#[inline]
pub(crate) fn split(paddr: u64) -> (usize, usize) {
    (
        (paddr / PAGE as u64) as usize,
        (paddr % PAGE as u64) as usize,
    )
}

/// Number of non-zero bytes in `bytes`.
#[inline]
fn nonzero_count(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b != 0).count() as u32
}

/// Number of non-zero bytes in `x`: bit 7 of each byte of `t` is set iff
/// that byte of `x` is non-zero.
#[inline]
fn nonzero_bytes(x: u64) -> u32 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let t = ((x & LOW7).wrapping_add(LOW7) | x) & !LOW7;
    t.count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_memory_reads_clean() {
        let s = ShadowMem::new();
        assert_eq!(s.byte(0), 0);
        assert!(s.load8(0x1234).is_clean());
        assert_eq!(s.tainted_bytes(), 0);
    }

    #[test]
    fn nonzero_bytes_counts_every_byte_pattern() {
        for x in [0, 1, 0x80, 0xff00, u64::MAX, 0x0100_0000_0000_0080] {
            let want = x.to_le_bytes().iter().filter(|&&b| b != 0).count() as u32;
            assert_eq!(nonzero_bytes(x), want, "{x:#x}");
        }
    }

    #[test]
    fn store_load_round_trip_across_page_boundary() {
        let mut s = ShadowMem::new();
        let paddr = PAGE as u64 - 4; // straddles two pages
        let mask = TaintMask(0x1122_3344_5566_7788);
        s.store8(paddr, mask);
        assert_eq!(s.load8(paddr), mask);
        assert_eq!(s.tainted_bytes(), 8);
    }

    #[test]
    fn overwriting_with_clean_data_untaints() {
        let mut s = ShadowMem::new();
        s.store8(64, TaintMask::ALL);
        assert_eq!(s.tainted_bytes(), 8);
        s.store8(64, TaintMask::CLEAN);
        assert_eq!(s.tainted_bytes(), 0);
        assert!(s.load8(64).is_clean());
    }

    #[test]
    fn tainted_byte_count_tracks_distinct_bytes() {
        let mut s = ShadowMem::new();
        s.set_byte(10, 0b1);
        s.set_byte(10, 0b10); // same byte, still one
        s.set_byte(11, 0b1);
        assert_eq!(s.tainted_bytes(), 2);
        s.set_byte(10, 0);
        assert_eq!(s.tainted_bytes(), 1);
    }

    #[test]
    fn partial_store_keeps_other_bytes() {
        let mut s = ShadowMem::new();
        s.store8(0, TaintMask(0x0000_0000_0000_00ff)); // byte 0 tainted
        s.set_byte(3, 0xf0);
        let m = s.load8(0);
        assert_eq!(m.byte(0), 0xff);
        assert_eq!(m.byte(3), 0xf0);
        assert_eq!(m.byte(7), 0);
    }

    #[test]
    fn page_summaries_track_per_page_counts() {
        let mut s = ShadowMem::new();
        assert!(s.is_idle());
        s.store8(0, TaintMask::ALL);
        s.set_byte(PAGE as u64 + 5, 0x1);
        assert!(!s.is_idle());
        assert_eq!(s.page_tainted_bytes(100), 8);
        assert_eq!(s.page_tainted_bytes(PAGE as u64), 1);
        assert_eq!(s.page_tainted_bytes(2 * PAGE as u64), 0);
        s.store8(0, TaintMask::CLEAN);
        s.set_byte(PAGE as u64 + 5, 0);
        assert!(s.is_idle());
        assert_eq!(s.page_tainted_bytes(0), 0);
    }

    #[test]
    fn straddling_store_updates_both_page_summaries() {
        let mut s = ShadowMem::new();
        let paddr = PAGE as u64 - 4;
        s.store8(paddr, TaintMask::ALL);
        assert_eq!(s.page_tainted_bytes(0), 4);
        assert_eq!(s.page_tainted_bytes(PAGE as u64), 4);
        s.store8(paddr, TaintMask::CLEAN);
        assert!(s.is_idle());
    }

    #[test]
    fn partial_overwrite_keeps_counts_consistent() {
        let mut s = ShadowMem::new();
        s.store8(16, TaintMask(0x0000_0000_ffff_ffff)); // bytes 0..4 tainted
        assert_eq!(s.tainted_bytes(), 4);
        // Overwrite with the complementary half: bytes 4..8 tainted.
        s.store8(16, TaintMask(0xffff_ffff_0000_0000));
        assert_eq!(s.tainted_bytes(), 4);
        assert_eq!(s.page_tainted_bytes(16), 4);
        assert_eq!(s.byte(16), 0);
        assert_eq!(s.byte(20), 0xff);
    }

    #[test]
    fn cleared_pages_are_skipped_by_page_visit() {
        let mut s = ShadowMem::new();
        s.store8(0, TaintMask::ALL);
        s.store8(PAGE as u64, TaintMask::ALL);
        s.store8(0, TaintMask::CLEAN); // page 0 allocated but clean
        let mut seen = Vec::new();
        s.for_each_tainted_page(|base, _| seen.push(base));
        assert_eq!(seen, vec![PAGE as u64]);
    }

    #[test]
    fn clean_writes_never_grow_the_index() {
        let mut s = ShadowMem::with_capacity(64 * PAGE as u64);
        s.store8(40 * PAGE as u64, TaintMask::CLEAN);
        s.set_byte(50 * PAGE as u64, 0);
        assert_eq!(s.pages.len(), 0);
        s.set_byte(3 * PAGE as u64 + 1, 0x4);
        assert_eq!(
            s.pages.len(),
            4,
            "the index ends at the highest tainted frame"
        );
    }

    #[test]
    #[should_panic(expected = "shadow write beyond capacity")]
    fn a_taint_write_past_capacity_panics() {
        let mut s = ShadowMem::with_capacity(2 * PAGE as u64);
        s.store8(2 * PAGE as u64, TaintMask::ALL);
    }

    #[test]
    fn reads_past_capacity_are_clean() {
        let s = ShadowMem::with_capacity(PAGE as u64);
        assert!(s.load8(1 << 40).is_clean());
        assert_eq!(s.page_tainted_bytes(1 << 40), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = ShadowMem::new();
        s.store8(0, TaintMask::ALL);
        s.clear();
        assert_eq!(s.tainted_bytes(), 0);
        assert!(s.load8(0).is_clean());
    }
}
