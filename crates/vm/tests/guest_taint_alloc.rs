//! A guest-supplied length is never allocated up front: reading the taint
//! or provenance of an absurdly long guest range faults at the first
//! unmapped page after allocating at most one page's worth of entries, and
//! cleaning a buffer's taint allocates nothing at all.
//!
//! The test binary counts allocations through its own global allocator
//! (per thread, so the harness's other threads do not disturb it).

use chaser_isa::{Asm, DATA_BASE, PAGE_SIZE};
use chaser_taint::ProvSet;
use chaser_vm::{MemFaultKind, Node};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// The largest single allocation (or reallocation) seen on this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn absurd_lengths_fault_without_a_length_sized_allocation() {
    let mut a = Asm::new("one_page");
    a.data_i64("buf", &[0; 8]);
    a.exit(0);
    let prog = a.assemble().expect("assemble");
    let mut node = Node::new(0);
    let pid = node.spawn(&prog).expect("spawn");
    let page = PAGE_SIZE as usize;
    let unmapped = 0x2000_0000;
    for (vaddr, fault_at) in [
        // Unmapped from the first byte.
        (unmapped, unmapped),
        // One mapped data page, then the hole after it.
        (DATA_BASE + 8, DATA_BASE + PAGE_SIZE),
    ] {
        for len in [1 << 40, u64::MAX - vaddr] {
            let (res, largest) = largest_alloc(|| node.read_guest_taint(pid, vaddr, len));
            let err = res.expect_err("absurd taint read");
            assert_eq!((err.vaddr, err.kind), (fault_at, MemFaultKind::Unmapped));
            assert!(largest <= page, "taint read allocated {largest} B");

            let (res, largest) = largest_alloc(|| node.read_guest_prov(pid, vaddr, len));
            let err = res.expect_err("absurd provenance read");
            assert_eq!((err.vaddr, err.kind), (fault_at, MemFaultKind::Unmapped));
            let bound = page * std::mem::size_of::<ProvSet>();
            assert!(largest <= bound, "provenance read allocated {largest} B");
        }
    }
}

#[test]
fn clearing_a_multi_page_buffer_allocates_nothing() {
    let mut a = Asm::new("three_pages");
    a.data_i64("buf", &[0; 3 * 512]);
    a.exit(0);
    let prog = a.assemble().expect("assemble");
    let mut node = Node::new(0);
    let pid = node.spawn(&prog).expect("spawn");
    // Straddles three pages, starting and ending mid-page.
    let (vaddr, len) = (prog.symbol("buf").expect("buf") + 8, 2 * PAGE_SIZE);

    // Nothing to clean yet, then taint and provenance on every byte.
    for tainted in [false, true] {
        if tainted {
            let n = len as usize;
            node.write_guest_taint(pid, vaddr, &vec![0xff; n])
                .expect("taint");
            node.write_guest_prov(pid, vaddr, &vec![ProvSet::single(1); n])
                .expect("prov");
        }
        let (res, largest) = largest_alloc(|| node.clear_guest_taint(pid, vaddr, len));
        res.expect("mapped");
        assert_eq!(
            largest, 0,
            "clearing allocated {largest} B (tainted: {tainted})"
        );
        assert!(node.taint().mem().is_idle());
        assert!(node.taint().prov_mem().is_idle());
    }
}
