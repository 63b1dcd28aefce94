//! The paged shadow: one cell per byte of guest *physical* memory, in
//! frame-indexed pages. Taint masks ([`ShadowMem`]) and fault provenance
//! ([`crate::ProvMem`]) are its two instantiations.

use crate::TaintMask;
use std::fmt::Debug;

/// Shadow page size: one shadow page per guest physical frame.
pub(crate) const PAGE: usize = chaser_isa::PAGE_SIZE as usize;

/// Capacity a shadow gets from `new()`: the default node's physical memory
/// (`chaser_vm::DEFAULT_PHYS_BYTES`). Nodes pass their own size.
pub(crate) const DEFAULT_CAPACITY: u64 = 64 << 20;

/// What a [`Shadow`] keeps per byte: a taint mask (`u8`) or a provenance
/// set ([`crate::ProvSet`]). A cell other than [`ShadowCell::CLEAN`] is
/// *live*.
pub trait ShadowCell: Copy + Eq + Debug {
    /// The cell of a byte no taint has reached; a fresh page holds it
    /// everywhere.
    const CLEAN: Self;

    /// Number of live cells among `cells` (one 8-byte guest access).
    #[inline]
    fn live8(cells: &[Self; 8]) -> u32 {
        live_count(cells)
    }
}

impl ShadowCell for u8 {
    const CLEAN: u8 = 0;

    /// The SWAR count: one word instead of eight compares.
    #[inline]
    fn live8(masks: &[u8; 8]) -> u32 {
        nonzero_bytes(u64::from_le_bytes(*masks))
    }
}

/// Byte-granular shadow memory over physical addresses.
///
/// DECAF shadows physical memory so taint survives context switches and is
/// shared by every mapping of a page; Chaser logs both virtual and physical
/// addresses of tainted accesses. Storage has the shape `PhysMemory` has: a
/// frame-indexed table of pages (slot `i` shadows physical frame `i`), each
/// page one cell per byte of its frame, allocated when a live cell is first
/// written into it. The index reaches only as far as the highest frame ever
/// written, so an in-page access costs one bounds-checked index, not a hash
/// probe — a fault campaign touches a tiny fraction of guest RAM.
///
/// Every page counts its live cells: the O(1) summary that lets a clean
/// access to a page no taint has reached return without reading it. The
/// shadow counts them all, which for masks is the tainted-byte series the
/// paper's Fig. 7 samples every 100K instructions. A write that stores no
/// live cell never allocates a page or grows the index. Visits and equality
/// skip pages whose cells were all cleared, so both are pure functions of
/// the contents, whatever was allocated on the way: what state digests need.
#[derive(Debug, Clone)]
pub struct Shadow<C> {
    pages: Vec<Option<Page<C>>>,
    /// Capacity in frames: a live write past it is a VM bug, not a guest
    /// fault.
    frames: usize,
    live: usize,
}

/// Per-byte taint masks over physical memory.
pub type ShadowMem = Shadow<u8>;

/// One frame's cells plus the count of its live ones.
#[derive(Debug, Clone)]
struct Page<C> {
    cells: Box<[C; PAGE]>,
    live: u32,
}

impl<C: ShadowCell> Default for Shadow<C> {
    fn default() -> Shadow<C> {
        Shadow::new()
    }
}

impl<C: ShadowCell> PartialEq for Shadow<C> {
    fn eq(&self, other: &Shadow<C>) -> bool {
        self.live == other.live
            && (0..self.pages.len().max(other.pages.len()))
                .all(|frame| self.live_cells(frame) == other.live_cells(frame))
    }
}

impl<C: ShadowCell> Eq for Shadow<C> {}

impl<C: ShadowCell> Shadow<C> {
    /// An empty shadow for a default-sized node (64 MiB).
    pub fn new() -> Shadow<C> {
        Shadow::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty shadow over `bytes` of physical memory (rounded up to a
    /// page). Writing a live cell past that capacity panics.
    pub fn with_capacity(bytes: u64) -> Shadow<C> {
        Shadow {
            pages: Vec::new(),
            frames: bytes.div_ceil(PAGE as u64) as usize,
            live: 0,
        }
    }

    /// The cells of `frame`'s page when it holds a live one.
    #[inline]
    fn live_cells(&self, frame: usize) -> Option<&[C; PAGE]> {
        match self.pages.get(frame) {
            Some(Some(p)) if p.live > 0 => Some(&p.cells),
            _ => None,
        }
    }

    /// The cell of the byte at physical address `paddr`.
    ///
    /// Per-byte accesses are the engine's rare page-straddling case, so
    /// they stay out of line rather than inlined into its loop.
    #[inline(never)]
    pub fn byte(&self, paddr: u64) -> C {
        let (frame, off) = split(paddr);
        self.live_cells(frame).map_or(C::CLEAN, |cells| cells[off])
    }

    /// Sets the cell of the byte at `paddr`. Out of line, as
    /// [`Shadow::byte`] is.
    ///
    /// # Panics
    ///
    /// Panics if a live cell lands beyond the capacity.
    #[inline(never)]
    pub fn set_byte(&mut self, paddr: u64, cell: C) {
        let live = cell != C::CLEAN;
        self.overwrite(paddr, 1, live, |slot| {
            let old = slot[0] != C::CLEAN;
            slot[0] = cell;
            (u32::from(old), u32::from(live))
        });
    }

    /// Reads the cells of the `out.len()` bytes at `paddr`, which must lie
    /// inside one page. A page with no live cell reads as clean without
    /// being touched.
    pub fn read_in_page(&self, paddr: u64, out: &mut [C]) {
        let (frame, off) = split(paddr);
        debug_assert!(off + out.len() <= PAGE, "read crosses a page");
        match self.live_cells(frame) {
            Some(cells) => out.copy_from_slice(&cells[off..off + out.len()]),
            None => out.fill(C::CLEAN),
        }
    }

    /// Overwrites the cells of the `cells.len()` bytes at `paddr`, which
    /// must lie inside one page. An all-clean write to a page with no live
    /// cell (or no page) returns at once and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a live cell lands beyond the capacity.
    pub fn write_in_page(&mut self, paddr: u64, cells: &[C]) {
        let new = live_count(cells);
        self.overwrite(paddr, cells.len(), new > 0, |slot| {
            let old = live_count(slot);
            slot.copy_from_slice(cells);
            (old, new)
        });
    }

    /// The cells of the 8 bytes at `paddr` (one guest access), or `None`
    /// when they lie in one page that holds no live cell. One index when
    /// the access stays inside a page.
    #[inline]
    pub(crate) fn load8_cells(&self, paddr: u64) -> Option<[C; 8]> {
        let (frame, off) = split(paddr);
        if off > PAGE - 8 {
            return Some(self.straddling_cells(paddr));
        }
        self.live_cells(frame)
            .map(|cells| cells[off..off + 8].try_into().expect("8 in-page bytes"))
    }

    /// Overwrites the cells of the 8 bytes at `paddr` (one guest access)
    /// with `cells()`, which holds a live cell iff `stores_live`. One index
    /// when the access stays inside a page; an all-clean store to a page
    /// with no live cell touches nothing else, not even `cells`.
    #[inline]
    pub(crate) fn store8_cells(
        &mut self,
        paddr: u64,
        stores_live: bool,
        cells: impl FnOnce() -> [C; 8],
    ) {
        if split(paddr).1 > PAGE - 8 {
            return self.set_straddling(paddr, cells());
        }
        self.overwrite(paddr, 8, stores_live, |slot| {
            let slot: &mut [C; 8] = slot.try_into().expect("8 in-page bytes");
            let old = C::live8(slot);
            *slot = cells();
            (old, C::live8(slot))
        });
    }

    /// [`Shadow::load8_cells`] across a page boundary, byte by byte. The
    /// engine splits such accesses itself and never gets here, so this is
    /// kept out of the inlined 8-byte paths.
    #[cold]
    #[inline(never)]
    fn straddling_cells(&self, paddr: u64) -> [C; 8] {
        std::array::from_fn(|i| self.byte(paddr + i as u64))
    }

    /// [`Shadow::store8_cells`] across a page boundary, byte by byte.
    #[cold]
    #[inline(never)]
    fn set_straddling(&mut self, paddr: u64, cells: [C; 8]) {
        for (i, cell) in cells.into_iter().enumerate() {
            self.set_byte(paddr + i as u64, cell);
        }
    }

    /// Cleans the `len` bytes at `paddr`, which must lie inside one page:
    /// [`Shadow::write_in_page`] with clean cells, without building them.
    pub fn clear_in_page(&mut self, paddr: u64, len: usize) {
        self.overwrite(paddr, len, false, |slot| {
            let old = live_count(slot);
            slot.fill(C::CLEAN);
            (old, 0)
        });
    }

    /// The one write path: hands `write` the `len` in-page cells at
    /// `paddr` and keeps both live counts from the `(old, new)` live cells
    /// it reports. The page is allocated on demand when the write stores a
    /// live cell (`stores_live`); otherwise a page with no live cell, or
    /// no page, is left alone.
    #[inline]
    fn overwrite(
        &mut self,
        paddr: u64,
        len: usize,
        stores_live: bool,
        write: impl FnOnce(&mut [C]) -> (u32, u32),
    ) {
        let (frame, off) = split(paddr);
        debug_assert!(off + len <= PAGE, "write crosses a page");
        let page = if stores_live {
            match self.pages.get_mut(frame) {
                Some(Some(p)) => p,
                _ => self.alloc_page(frame),
            }
        } else {
            match self.pages.get_mut(frame) {
                Some(Some(p)) if p.live > 0 => p,
                _ => return,
            }
        };
        let (old, new) = write(&mut page.cells[off..off + len]);
        page.live = page.live - old + new;
        // Bulk writes recheck the page summary; an 8-byte store would scan
        // a whole page per guest store in debug runs.
        debug_assert!(
            len <= 8 || page.live == live_count(&page.cells[..]),
            "page summary"
        );
        self.live = self.live - old as usize + new as usize;
    }

    /// Allocates `frame`'s page, growing the index up to it: off the hot
    /// path, which only ever finds the page already there.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is beyond the capacity, as `PhysMemory` does for a
    /// physical write beyond capacity.
    #[cold]
    #[inline(never)]
    fn alloc_page(&mut self, frame: usize) -> &mut Page<C> {
        if frame >= self.pages.len() {
            assert!(frame < self.frames, "shadow write beyond capacity");
            self.pages.resize_with(frame + 1, || None);
        }
        self.pages[frame].insert(Page {
            cells: Box::new([C::CLEAN; PAGE]),
            live: 0,
        })
    }

    /// Number of frame-index slots: a write that stores nothing must not
    /// grow it.
    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.pages.len()
    }

    /// Number of live bytes: tainted bytes for masks (the Fig. 7 series),
    /// provenanced bytes for provenance.
    pub fn tainted_bytes(&self) -> usize {
        self.live
    }

    /// True when no byte anywhere is live. Invariant: `tainted_bytes == 0`
    /// ⇔ every allocated page's summary count is zero ⇔ every cell is clean.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// Number of live bytes in the page containing `paddr` (the per-page
    /// summary).
    pub fn page_tainted_bytes(&self, paddr: u64) -> u32 {
        let (frame, _) = split(paddr);
        self.pages
            .get(frame)
            .and_then(Option::as_ref)
            .map_or(0, |p| p.live)
    }

    /// Cleans every byte: drops every page and the index itself; the
    /// capacity stays.
    pub fn clear(&mut self) {
        self.pages = Vec::new();
        self.live = 0;
    }

    /// Visits every page holding a live cell, in ascending physical-page
    /// order, as `(page_base_paddr, cells)`. Allocated pages whose cells
    /// were all cleared are skipped, so two executions with the same
    /// contents visit the same sequence whatever they allocated on the way.
    /// This is what state digests hash.
    pub fn for_each_tainted_page(&self, mut f: impl FnMut(u64, &[C])) {
        for frame in 0..self.pages.len() {
            if let Some(cells) = self.live_cells(frame) {
                f((frame * PAGE) as u64, &cells[..]);
            }
        }
    }

    /// Visits every live byte as `(paddr, cell)` in ascending address order.
    pub fn for_each(&self, mut f: impl FnMut(u64, C)) {
        self.for_each_tainted_page(|base, cells| {
            for (off, &cell) in cells.iter().enumerate() {
                if cell != C::CLEAN {
                    f(base + off as u64, cell);
                }
            }
        });
    }
}

impl ShadowMem {
    /// Loads the taint of the 8 bytes at `paddr` as a value mask
    /// (little-endian, matching guest loads). One index when the access
    /// stays inside a shadow page.
    #[inline]
    pub fn load8(&self, paddr: u64) -> TaintMask {
        self.load8_cells(paddr)
            .map_or(TaintMask::CLEAN, TaintMask::from_bytes)
    }

    /// Stores a value mask over the 8 bytes at `paddr`. One index when the
    /// access stays inside a shadow page; a clean store to a taint-free
    /// page touches nothing else.
    #[inline]
    pub fn store8(&mut self, paddr: u64, mask: TaintMask) {
        self.store8_cells(paddr, mask.is_tainted(), || mask.0.to_le_bytes());
    }
}

/// Splits a physical address into `(frame, in-page offset)`.
#[inline]
fn split(paddr: u64) -> (usize, usize) {
    (
        (paddr / PAGE as u64) as usize,
        (paddr % PAGE as u64) as usize,
    )
}

/// Number of live cells in `cells`.
#[inline]
fn live_count<C: ShadowCell>(cells: &[C]) -> u32 {
    cells.iter().filter(|&&c| c != C::CLEAN).count() as u32
}

/// Number of non-zero bytes in `x`: bit 7 of each byte of `t` is set iff
/// that byte of `x` is non-zero, and the multiply sums those eight bits
/// into the top byte (cheaper than `count_ones` without a `popcnt`
/// instruction, which the baseline x86-64 target lacks).
#[inline]
fn nonzero_bytes(x: u64) -> u32 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let t = ((x & LOW7).wrapping_add(LOW7) | x) & !LOW7;
    ((t >> 7).wrapping_mul(0x0101_0101_0101_0101) >> 56) as u32
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The rules every cell type shares, each written once and run by one
    /// test per cell type (`live` is any live cell of that type).
    pub(crate) mod rules {
        use super::super::*;

        /// A write of a live cell past the capacity panics.
        pub(crate) fn a_live_write_past_capacity_panics<C: ShadowCell>(live: C) {
            let mut s = Shadow::<C>::with_capacity(2 * PAGE as u64);
            s.set_byte(2 * PAGE as u64, live);
        }

        /// Clean writes of every kind allocate nothing and leave the index
        /// empty, even past the capacity; the index ends at the highest
        /// live frame.
        pub(crate) fn clean_writes_never_grow_the_index<C: ShadowCell>(live: C) {
            let mut s = Shadow::<C>::with_capacity(64 * PAGE as u64);
            s.set_byte(50 * PAGE as u64, C::CLEAN);
            s.write_in_page(40 * PAGE as u64 + 3, &[C::CLEAN; 100]);
            s.clear_in_page(45 * PAGE as u64, PAGE);
            s.set_byte(1 << 30, C::CLEAN);
            assert_eq!(s.index_len(), 0);
            assert_eq!(s, Shadow::new());
            s.set_byte(3 * PAGE as u64 + 1, live);
            assert_eq!(s.index_len(), 4, "the index ends at the highest live frame");
        }

        /// Pages whose cells were all cleared are skipped by both visits
        /// and compare equal to no page.
        pub(crate) fn cleared_pages_are_skipped<C: ShadowCell>(live: C) {
            let far = 3 * PAGE as u64 + 9;
            let mut s = Shadow::<C>::new();
            s.set_byte(5, live);
            s.set_byte(far, live);
            s.set_byte(5, C::CLEAN); // frame 0 allocated, now clean
            let mut pages = Vec::new();
            s.for_each_tainted_page(|base, _| pages.push(base));
            assert_eq!(pages, vec![3 * PAGE as u64]);
            let mut cells = Vec::new();
            s.for_each(|paddr, c| cells.push((paddr, c)));
            assert_eq!(cells, vec![(far, live)]);
            let mut fresh = Shadow::<C>::new();
            fresh.set_byte(far, live);
            assert_eq!(s, fresh, "an all-clean page equals no page");
            assert_eq!(fresh, s);
        }

        /// `clear` cleans every byte, the counts and the index; a clone
        /// taken before it keeps its contents.
        pub(crate) fn clear_resets_everything<C: ShadowCell>(live: C) {
            let mut s = Shadow::<C>::new();
            s.set_byte(64, live);
            s.write_in_page(PAGE as u64, &[live; 8]);
            let snapshot = s.clone();
            s.clear();
            assert_eq!(s.tainted_bytes(), 0);
            assert!(s.is_idle());
            assert_eq!(s.byte(64), C::CLEAN);
            assert_eq!(s.page_tainted_bytes(PAGE as u64), 0);
            assert_eq!(s.index_len(), 0);
            assert_eq!(s, Shadow::new());
            assert_eq!(snapshot.tainted_bytes(), 9, "the clone is independent");
        }

        /// A clean-range write equals cleaning every byte of the range one
        /// at a time, and never grows the index.
        pub(crate) fn clean_range_write_equals_per_byte_clear<C: ShadowCell>(live: C) {
            let mut bulk = Shadow::<C>::new();
            for paddr in (0..2 * PAGE as u64).step_by(3) {
                bulk.set_byte(paddr, live);
            }
            let mut bytes = bulk.clone();
            let (paddr, len) = (PAGE as u64 - 100, 100);
            bulk.clear_in_page(paddr, len);
            bulk.clear_in_page(PAGE as u64 + 7, 2000);
            bulk.clear_in_page(9 * PAGE as u64, PAGE);
            for a in (paddr..paddr + len as u64).chain(PAGE as u64 + 7..PAGE as u64 + 2007) {
                bytes.set_byte(a, C::CLEAN);
            }
            assert_eq!(bulk, bytes);
            assert_eq!(bulk.tainted_bytes(), bytes.tainted_bytes());
            for frame in 0..2 {
                let base = frame * PAGE as u64;
                assert_eq!(
                    bulk.page_tainted_bytes(base),
                    bytes.page_tainted_bytes(base)
                );
            }
            assert_eq!(
                bulk.index_len(),
                2,
                "a clean-range write never grows the index"
            );
            bulk.clear_in_page(0, PAGE);
            bulk.clear_in_page(PAGE as u64, PAGE);
            assert!(bulk.is_idle());
            assert_eq!(bulk, Shadow::new());
        }
    }

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
        rules::cleared_pages_are_skipped(0x4u8);
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
        rules::clean_writes_never_grow_the_index(0x4u8);
        let mut s = ShadowMem::with_capacity(64 * PAGE as u64);
        s.store8(40 * PAGE as u64, TaintMask::CLEAN);
        assert_eq!(s.index_len(), 0);
    }

    #[test]
    #[should_panic(expected = "shadow write beyond capacity")]
    fn a_taint_write_past_capacity_panics() {
        rules::a_live_write_past_capacity_panics(0xffu8);
    }

    #[test]
    fn reads_past_capacity_are_clean() {
        let s = ShadowMem::with_capacity(PAGE as u64);
        assert!(s.load8(1 << 40).is_clean());
        assert_eq!(s.page_tainted_bytes(1 << 40), 0);
    }

    #[test]
    fn clear_resets_everything() {
        rules::clear_resets_everything(0x4u8);
        let mut s = ShadowMem::new();
        s.store8(0, TaintMask::ALL);
        s.clear();
        assert_eq!(s.tainted_bytes(), 0);
        assert!(s.load8(0).is_clean());
    }

    #[test]
    fn clean_range_write_equals_per_byte_clear() {
        rules::clean_range_write_equals_per_byte_clear(0x4u8);
    }
}
