//! Guest physical memory and frame allocation.
//!
//! Memory is page-granular and lazily materialised: a page holds no storage
//! until first written, reads of untouched pages serve a shared zero page.
//! The frame index is lazy too: it reaches only as far as the highest frame
//! ever written (capacity is kept as a number), so creating, snapshotting
//! and restoring a 64 MiB node costs a few hundred slots, not 16 384.
//! Pages are either `Owned` (private, writable in place) or `Shared`
//! (`Arc`-backed, adopted from a [`MemSnapshot`]); writing a `Shared` page
//! copies it on write. This is what lets a whole cluster checkpoint be
//! shared across campaign workers the way the layered TB cache shares
//! translations: the snapshot holds `Arc`s to frozen pages, every restored
//! node starts by referencing them, and only pages the suffix execution
//! actually dirties are ever copied.

use chaser_isa::PAGE_SIZE;
use std::fmt;
use std::sync::Arc;

/// Default physical memory per node: 64 MiB, plenty for the paper's
/// mini-app workloads while keeping thousands of campaign runs cheap.
pub const DEFAULT_PHYS_BYTES: u64 = 64 << 20;

/// Page size in bytes as a usize index width.
const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// One physical page.
type Page = [u8; PAGE_BYTES];

/// The canonical all-zero page served for reads of never-written pages.
static ZERO_PAGE: Page = [0u8; PAGE_BYTES];

/// Why a guest memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// No mapping for the page.
    Unmapped,
    /// Mapping exists but forbids the access (write to read-only, execute
    /// of non-executable).
    Protection,
}

/// A guest memory fault; the kernel turns this into `SIGSEGV`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting guest virtual address.
    pub vaddr: u64,
    /// The fault kind.
    pub kind: MemFaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemFaultKind::Unmapped => write!(f, "unmapped guest address {:#x}", self.vaddr),
            MemFaultKind::Protection => write!(f, "protection fault at {:#x}", self.vaddr),
        }
    }
}

impl std::error::Error for MemFault {}

/// Backing storage for one resident physical page.
#[derive(Clone)]
enum PageState {
    /// Private storage, written in place.
    Owned(Box<Page>),
    /// Frozen storage adopted from a snapshot; copied on first write.
    Shared(Arc<Page>),
}

impl PageState {
    fn bytes(&self) -> &Page {
        match self {
            PageState::Owned(p) => p,
            PageState::Shared(p) => p,
        }
    }
}

/// Copy-on-write / dirty-page counters for one `PhysMemory`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Pages adopted as `Arc`-shared (zero-copy) when this memory was
    /// restored from a snapshot.
    pub pages_shared: u64,
    /// Shared pages privatised by a write since then (the run's dirty set).
    pub pages_cow: u64,
}

impl MemStats {
    /// Accumulates `other` into `self` (for cluster- and campaign-level
    /// aggregation).
    pub fn absorb(&mut self, other: &MemStats) {
        self.pages_shared += other.pages_shared;
        self.pages_cow += other.pages_cow;
    }
}

/// A frozen, `Arc`-shared image of a `PhysMemory`, cheap to clone and safe
/// to hand to many worker threads at once. Never-written pages stay `None`
/// and the index ends at the highest written frame, so a snapshot costs
/// storage proportional to the resident set only.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    pages: Vec<Option<Arc<Page>>>,
    npages: usize,
    next_frame: u64,
}

impl MemSnapshot {
    /// Number of resident (captured) pages in the snapshot.
    pub fn resident_pages(&self) -> u64 {
        self.pages.iter().filter(|p| p.is_some()).count() as u64
    }

    /// Visits the identity of every captured page's storage. Two snapshots
    /// of one memory report the same identity for a page neither run of
    /// writes touched in between, so the number of distinct identities over
    /// a set of snapshots is the number of pages that set keeps alive.
    pub fn for_each_page_id(&self, mut f: impl FnMut(usize)) {
        for page in self.pages.iter().flatten() {
            f(Arc::as_ptr(page) as usize);
        }
    }
}

/// One node's physical memory plus a bump frame allocator.
///
/// Frames are never freed: campaign runs are short-lived and each run gets
/// a fresh node, so reclamation buys nothing and would complicate the
/// deterministic replay story.
///
/// All multi-byte accessors (`read_u64`, `read_bytes`, ...) require the
/// access to stay within one physical page. Every caller honours this:
/// frames are page-aligned and the paging layer chunks virtually-contiguous
/// accesses per page before touching physical memory.
#[derive(Clone)]
pub struct PhysMemory {
    /// Frame index, grown on demand: slot `i` backs frame `i`, frames past
    /// the end have never been written.
    pages: Vec<Option<PageState>>,
    /// Capacity in pages.
    npages: usize,
    next_frame: u64,
    stats: MemStats,
}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed guest RAM (rounded up to a page).
    /// Storage is lazy: untouched pages occupy no memory, and neither
    /// does the part of the frame index above them.
    pub fn new(size: u64) -> PhysMemory {
        PhysMemory {
            pages: Vec::new(),
            npages: size.div_ceil(PAGE_SIZE) as usize,
            next_frame: 0,
            stats: MemStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.npages as u64 * PAGE_SIZE
    }

    /// Allocates one zeroed frame, returning its physical base address, or
    /// `None` when RAM is exhausted. The frame's storage stays lazy until
    /// first written.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        let base = self.next_frame;
        if base + PAGE_SIZE > self.capacity() {
            return None;
        }
        self.next_frame += PAGE_SIZE;
        Some(base)
    }

    /// The resident page backing `paddr` for reads, or the zero page —
    /// also for every frame past the end of the index.
    #[inline]
    fn page(&self, paddr: u64) -> &Page {
        let idx = (paddr / PAGE_SIZE) as usize;
        debug_assert!(idx < self.npages, "physical read beyond capacity");
        match self.pages.get(idx) {
            Some(Some(state)) => state.bytes(),
            _ => &ZERO_PAGE,
        }
    }

    /// The private, writable page backing `paddr`, growing the index up to
    /// its frame, materialising zero pages and copying shared pages on
    /// demand.
    #[inline]
    fn page_mut(&mut self, paddr: u64) -> &mut Page {
        let idx = (paddr / PAGE_SIZE) as usize;
        if idx >= self.pages.len() {
            assert!(idx < self.npages, "physical write beyond capacity");
            self.pages.resize_with(idx + 1, || None);
        }
        let slot = &mut self.pages[idx];
        match slot {
            Some(PageState::Owned(p)) => p,
            Some(PageState::Shared(shared)) => {
                self.stats.pages_cow += 1;
                *slot = Some(PageState::Owned(Box::new(**shared)));
                match slot {
                    Some(PageState::Owned(p)) => p,
                    _ => unreachable!("just installed an owned page"),
                }
            }
            None => {
                *slot = Some(PageState::Owned(Box::new(ZERO_PAGE)));
                match slot {
                    Some(PageState::Owned(p)) => p,
                    _ => unreachable!("just installed an owned page"),
                }
            }
        }
    }

    /// Reads one byte of physical memory. Physical addresses only come
    /// from the page tables, so an address beyond capacity indicates a VM
    /// bug, not a guest fault: debug builds assert, release builds read
    /// the zero page like any other never-written frame.
    pub fn read_u8(&self, paddr: u64) -> u8 {
        self.page(paddr)[(paddr % PAGE_SIZE) as usize]
    }

    /// Writes one byte of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is beyond capacity (a VM bug, as above).
    pub fn write_u8(&mut self, paddr: u64, v: u8) {
        self.page_mut(paddr)[(paddr % PAGE_SIZE) as usize] = v;
    }

    /// Reads a little-endian u64 that must not cross a physical page
    /// boundary (frames are page-aligned, so the paging layer's fast path
    /// guarantees this).
    pub fn read_u64(&self, paddr: u64) -> u64 {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(off + 8 <= PAGE_BYTES, "u64 read crosses a page");
        u64::from_le_bytes(self.page(paddr)[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Writes a little-endian u64 (same single-page contract as
    /// [`PhysMemory::read_u64`]).
    pub fn write_u64(&mut self, paddr: u64, v: u64) {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(off + 8 <= PAGE_BYTES, "u64 write crosses a page");
        self.page_mut(paddr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Borrows bytes out of physical memory. The range must stay within one
    /// physical page (all callers chunk per page).
    pub fn read_bytes(&self, paddr: u64, len: usize) -> &[u8] {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(off + len <= PAGE_BYTES, "read crosses a physical page");
        &self.page(paddr)[off..off + len]
    }

    /// Copies bytes into physical memory (single-page contract as above).
    pub fn write_bytes(&mut self, paddr: u64, data: &[u8]) {
        let off = (paddr % PAGE_SIZE) as usize;
        debug_assert!(
            off + data.len() <= PAGE_BYTES,
            "write crosses a physical page"
        );
        self.page_mut(paddr)[off..off + data.len()].copy_from_slice(data);
    }

    /// Copy-on-write counters for this memory.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Freezes the current contents into an `Arc`-shared [`MemSnapshot`].
    ///
    /// Owned pages are converted to shared in place (no copy), so taking a
    /// snapshot is cheap and the snapshotted memory keeps working — its next
    /// write to any captured page simply pays one CoW copy.
    pub fn snapshot(&mut self) -> MemSnapshot {
        let pages = self
            .pages
            .iter_mut()
            .map(|slot| match slot.take() {
                None => None,
                Some(PageState::Shared(a)) => {
                    *slot = Some(PageState::Shared(Arc::clone(&a)));
                    Some(a)
                }
                Some(PageState::Owned(b)) => {
                    let a: Arc<Page> = Arc::from(b);
                    *slot = Some(PageState::Shared(Arc::clone(&a)));
                    Some(a)
                }
            })
            .collect();
        MemSnapshot {
            pages,
            npages: self.npages,
            next_frame: self.next_frame,
        }
    }

    /// Reconstructs a memory from a snapshot. Every captured page is
    /// adopted zero-copy as `Shared`; writes privatise pages on demand.
    pub fn from_snapshot(snap: &MemSnapshot) -> PhysMemory {
        let mut shared = 0u64;
        let pages = snap
            .pages
            .iter()
            .map(|p| {
                p.as_ref().map(|a| {
                    shared += 1;
                    PageState::Shared(Arc::clone(a))
                })
            })
            .collect();
        PhysMemory {
            pages,
            npages: snap.npages,
            next_frame: snap.next_frame,
            stats: MemStats {
                pages_shared: shared,
                pages_cow: 0,
            },
        }
    }

    /// Visits every resident page in address order as `(base_paddr, bytes)`.
    /// Never-written pages are skipped; because page residency is a
    /// deterministic function of the writes executed, two equivalent
    /// executions visit identical sequences — which is what makes this
    /// usable for state digests.
    pub fn for_each_resident_page(&self, mut f: impl FnMut(u64, &[u8])) {
        for (idx, slot) in self.pages.iter().enumerate() {
            if let Some(state) = slot {
                f(idx as u64 * PAGE_SIZE, state.bytes());
            }
        }
    }
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMemory")
            .field("capacity", &self.capacity())
            .field("next_frame", &self.next_frame)
            .field(
                "resident_pages",
                &self.pages.iter().filter(|p| p.is_some()).count(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for PhysMemory {
    fn default() -> PhysMemory {
        PhysMemory::new(DEFAULT_PHYS_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_distinct_and_page_aligned() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        let a = m.alloc_frame().expect("frame a");
        let b = m.alloc_frame().expect("frame b");
        assert_ne!(a, b);
        assert_eq!(a % PAGE_SIZE, 0);
        assert_eq!(b % PAGE_SIZE, 0);
    }

    #[test]
    fn allocation_exhausts() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        assert!(m.alloc_frame().is_some());
        assert!(m.alloc_frame().is_some());
        assert!(m.alloc_frame().is_none());
    }

    #[test]
    fn u64_round_trip() {
        let mut m = PhysMemory::new(PAGE_SIZE);
        m.write_u64(16, 0xdead_beef_0bad_cafe);
        assert_eq!(m.read_u64(16), 0xdead_beef_0bad_cafe);
        assert_eq!(m.read_u8(16), 0xfe);
    }

    #[test]
    fn capacity_rounds_up_to_page() {
        let m = PhysMemory::new(PAGE_SIZE + 1);
        assert_eq!(m.capacity(), 2 * PAGE_SIZE);
    }

    #[test]
    fn untouched_pages_read_zero_and_stay_lazy() {
        let m = PhysMemory::new(8 * PAGE_SIZE);
        assert_eq!(m.read_u8(3 * PAGE_SIZE + 7), 0);
        assert_eq!(m.read_u64(5 * PAGE_SIZE), 0);
        assert_eq!(m.read_bytes(PAGE_SIZE, 16), &[0u8; 16]);
        let mut resident = 0;
        m.for_each_resident_page(|_, _| resident += 1);
        assert_eq!(resident, 0, "reads must not materialise pages");
    }

    #[test]
    fn frame_index_reaches_only_the_highest_written_frame() {
        let mut m = PhysMemory::new(DEFAULT_PHYS_BYTES);
        assert_eq!(m.pages.len(), 0, "a fresh memory indexes nothing");
        for frame in [0, 1, 5] {
            m.write_u8(frame * PAGE_SIZE, frame as u8 + 1);
        }
        assert_eq!(m.pages.len(), 6);
        assert_eq!(m.capacity(), DEFAULT_PHYS_BYTES);

        let snap = m.snapshot();
        assert_eq!(snap.pages.len(), 6);
        assert_eq!(snap.resident_pages(), 3);
        let mut r = PhysMemory::from_snapshot(&snap);
        assert_eq!(r.pages.len(), 6);
        assert_eq!(r.capacity(), DEFAULT_PHYS_BYTES);
        assert_eq!(r.read_u8(5 * PAGE_SIZE), 6);

        // Past the index: reads serve zeros without growing it, a write
        // grows it exactly as far as its frame.
        assert_eq!(r.read_u64(1000 * PAGE_SIZE + 8), 0);
        assert_eq!(r.read_u8(DEFAULT_PHYS_BYTES - 1), 0);
        assert_eq!(r.pages.len(), 6);
        r.write_u8(40 * PAGE_SIZE + 3, 9);
        assert_eq!(r.pages.len(), 41);
        assert_eq!(r.read_u8(40 * PAGE_SIZE + 3), 9);
        assert_eq!(r.stats().pages_cow, 0, "a fresh zero page is not a CoW");
        assert_eq!(m.pages.len(), 6, "the snapshotted memory is untouched");
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn a_write_past_capacity_panics() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(2 * PAGE_SIZE, 1);
    }

    #[test]
    fn snapshots_share_the_pages_no_write_touched_in_between() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.write_u8(0, 1);
        m.write_u8(PAGE_SIZE, 2);
        let first = m.snapshot();
        m.write_u8(PAGE_SIZE, 3);
        let second = m.snapshot();
        let mut ids = std::collections::BTreeSet::new();
        first.for_each_page_id(|id| {
            ids.insert(id);
        });
        second.for_each_page_id(|id| {
            ids.insert(id);
        });
        // Frame 0 is one page in both; frame 1 was copied on write.
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn snapshot_restore_round_trips_contents() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        m.write_u64(8, 0x1111_2222_3333_4444);
        m.write_bytes(2 * PAGE_SIZE + 100, b"hello");
        let snap = m.snapshot();
        assert_eq!(snap.resident_pages(), 2);

        let r = PhysMemory::from_snapshot(&snap);
        assert_eq!(r.read_u64(8), 0x1111_2222_3333_4444);
        assert_eq!(r.read_bytes(2 * PAGE_SIZE + 100, 5), b"hello");
        assert_eq!(r.read_u8(3 * PAGE_SIZE), 0);
        assert_eq!(r.stats().pages_shared, 2);
        assert_eq!(r.stats().pages_cow, 0);
    }

    #[test]
    fn writes_after_restore_copy_on_write_without_disturbing_the_snapshot() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(0, 0xAA);
        let snap = m.snapshot();

        let mut a = PhysMemory::from_snapshot(&snap);
        let mut b = PhysMemory::from_snapshot(&snap);
        a.write_u8(0, 0xBB);
        assert_eq!(a.read_u8(0), 0xBB);
        assert_eq!(b.read_u8(0), 0xAA, "sibling restore unaffected");
        assert_eq!(a.stats().pages_cow, 1);
        // Repeated writes to an already-privatised page cost nothing more.
        a.write_u8(1, 0xCC);
        assert_eq!(a.stats().pages_cow, 1);
        b.write_u8(PAGE_SIZE, 1);
        assert_eq!(b.stats().pages_cow, 0, "fresh zero page is not a CoW");
        // A third restore still sees the original byte.
        assert_eq!(PhysMemory::from_snapshot(&snap).read_u8(0), 0xAA);
    }

    #[test]
    fn snapshotted_memory_keeps_working_after_capture() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE);
        m.write_u8(10, 1);
        let snap = m.snapshot();
        m.write_u8(10, 2);
        assert_eq!(m.read_u8(10), 2);
        assert_eq!(PhysMemory::from_snapshot(&snap).read_u8(10), 1);
        assert_eq!(m.stats().pages_cow, 1, "post-capture write pays one CoW");
    }

    #[test]
    fn frame_allocator_state_survives_snapshot() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE);
        let a = m.alloc_frame().expect("frame");
        m.write_u8(a, 9);
        let snap = m.snapshot();
        let mut r = PhysMemory::from_snapshot(&snap);
        let b = r.alloc_frame().expect("next frame");
        assert_eq!(b, a + PAGE_SIZE, "bump pointer restored");
    }
}
