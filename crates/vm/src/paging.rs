//! Per-process virtual address spaces.

use crate::mem::{MemFault, MemFaultKind, PhysMemory};
use chaser_isa::PAGE_SIZE;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Page permissions.
///
/// Invariant (W^X): no page is ever both writable and executable. The TB
/// cache never invalidates on guest writes, which is sound only because
/// translated code cannot be overwritten. The fields are private and the
/// exported constants are the only values, so a writable-and-executable
/// mapping cannot be expressed outside this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePerms {
    write: bool,
    exec: bool,
}

impl PagePerms {
    /// Read-only data.
    pub const R: PagePerms = PagePerms {
        write: false,
        exec: false,
    };
    /// Read-write data.
    pub const RW: PagePerms = PagePerms {
        write: true,
        exec: false,
    };
    /// Read-execute text.
    pub const RX: PagePerms = PagePerms {
        write: false,
        exec: true,
    };
}

#[derive(Debug, Clone, Copy)]
struct Pte {
    frame: u64,
    perms: PagePerms,
}

/// Size of the direct-mapped software TLB (power of two).
const TLB_SIZE: usize = 64;

// A TLB entry packs a cached page-table hit into one atomic word (a
// single-word entry cannot tear, so relaxed loads/stores are sound even
// with the address space shared across campaign threads): bits 0..28 hold
// `vpn + 1` (zero = invalid), bits 28..60 the physical frame number, bit
// 60 the write permission and bit 61 the exec permission. Pages whose vpn
// or frame number overflows the field are simply never cached.
const TLB_TAG_BITS: u32 = 28;
const TLB_FRAME_BITS: u32 = 32;
const TLB_TAG_MASK: u64 = (1 << TLB_TAG_BITS) - 1;
const TLB_FRAME_MASK: u64 = (1 << TLB_FRAME_BITS) - 1;
const TLB_WRITE_BIT: u64 = 1 << (TLB_TAG_BITS + TLB_FRAME_BITS);
const TLB_EXEC_BIT: u64 = 1 << (TLB_TAG_BITS + TLB_FRAME_BITS + 1);

/// A single-level page table mapping guest virtual pages to physical
/// frames, one per process.
///
/// The `asid` tags translation-cache entries (QEMU keys its TB cache by the
/// guest's CR3; here the process id plays that role).
///
/// Translation goes through a direct-mapped software TLB in front of the
/// page-table hash map. Mappings are only ever *added* (`map_region` skips
/// pages already present and nothing unmaps), so a cached entry can never
/// go stale and the TLB needs no invalidation.
///
/// The table is `Arc`-shared between clones (snapshots and the processes
/// restored from them) and copied only by the clone that maps something
/// new, so a checkpoint ladder holds one table per process, not one per
/// rung.
#[derive(Debug)]
pub struct AddressSpace {
    asid: u64,
    pages: Arc<HashMap<u64, Pte>>,
    tlb: [AtomicU64; TLB_SIZE],
}

impl Clone for AddressSpace {
    fn clone(&self) -> AddressSpace {
        AddressSpace {
            asid: self.asid,
            pages: Arc::clone(&self.pages),
            tlb: std::array::from_fn(|i| AtomicU64::new(self.tlb[i].load(Ordering::Relaxed))),
        }
    }
}

impl AddressSpace {
    /// An empty address space tagged `asid`.
    pub fn new(asid: u64) -> AddressSpace {
        AddressSpace {
            asid,
            pages: Arc::new(HashMap::new()),
            tlb: [const { AtomicU64::new(0) }; TLB_SIZE],
        }
    }

    /// The address-space identifier.
    pub fn asid(&self) -> u64 {
        self.asid
    }

    /// Maps `len` bytes starting at page-aligned `vaddr` with fresh zeroed
    /// frames, returning an error when physical memory is exhausted.
    pub fn map_region(
        &mut self,
        phys: &mut PhysMemory,
        vaddr: u64,
        len: u64,
        perms: PagePerms,
    ) -> Result<(), MemFault> {
        assert_eq!(vaddr % PAGE_SIZE, 0, "mappings must be page aligned");
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let vpn = vaddr / PAGE_SIZE + i;
            if self.pages.contains_key(&vpn) {
                continue;
            }
            let frame = phys.alloc_frame().ok_or(MemFault {
                vaddr: vpn * PAGE_SIZE,
                kind: MemFaultKind::Unmapped,
            })?;
            Arc::make_mut(&mut self.pages).insert(vpn, Pte { frame, perms });
        }
        Ok(())
    }

    /// Translates a virtual address for a data read.
    pub fn translate_read(&self, vaddr: u64) -> Result<u64, MemFault> {
        self.translate(vaddr, false, false)
    }

    /// Translates a virtual address for a data write.
    pub fn translate_write(&self, vaddr: u64) -> Result<u64, MemFault> {
        self.translate(vaddr, true, false)
    }

    /// Translates a virtual address for instruction fetch.
    pub fn translate_exec(&self, vaddr: u64) -> Result<u64, MemFault> {
        self.translate(vaddr, false, true)
    }

    fn translate(&self, vaddr: u64, write: bool, exec: bool) -> Result<u64, MemFault> {
        let vpn = vaddr / PAGE_SIZE;
        let off = vaddr % PAGE_SIZE;
        let tag = vpn + 1;
        let slot = &self.tlb[vpn as usize & (TLB_SIZE - 1)];
        let cached = slot.load(Ordering::Relaxed);
        let (frame, writable, executable) = if cached & TLB_TAG_MASK == tag {
            // TLB hit: one array index instead of a hash lookup.
            (
                ((cached >> TLB_TAG_BITS) & TLB_FRAME_MASK) * PAGE_SIZE,
                cached & TLB_WRITE_BIT != 0,
                cached & TLB_EXEC_BIT != 0,
            )
        } else {
            let pte = self.pages.get(&vpn).ok_or(MemFault {
                vaddr,
                kind: MemFaultKind::Unmapped,
            })?;
            let frame_pn = pte.frame / PAGE_SIZE;
            if tag <= TLB_TAG_MASK && frame_pn <= TLB_FRAME_MASK && pte.frame % PAGE_SIZE == 0 {
                let mut entry = tag | (frame_pn << TLB_TAG_BITS);
                if pte.perms.write {
                    entry |= TLB_WRITE_BIT;
                }
                if pte.perms.exec {
                    entry |= TLB_EXEC_BIT;
                }
                slot.store(entry, Ordering::Relaxed);
            }
            (pte.frame, pte.perms.write, pte.perms.exec)
        };
        if (write && !writable) || (exec && !executable) {
            return Err(MemFault {
                vaddr,
                kind: MemFaultKind::Protection,
            });
        }
        Ok(frame + off)
    }

    /// Reads a guest u64 (may cross a page boundary).
    pub fn read_u64(&self, phys: &PhysMemory, vaddr: u64) -> Result<u64, MemFault> {
        if vaddr % PAGE_SIZE <= PAGE_SIZE - 8 {
            let p = self.translate_read(vaddr)?;
            Ok(phys.read_u64(p))
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                let p = self.translate_read(vaddr + i as u64)?;
                *b = phys.read_u8(p);
            }
            Ok(u64::from_le_bytes(bytes))
        }
    }

    /// Writes a guest u64 (may cross a page boundary).
    pub fn write_u64(&self, phys: &mut PhysMemory, vaddr: u64, v: u64) -> Result<(), MemFault> {
        if vaddr % PAGE_SIZE <= PAGE_SIZE - 8 {
            let p = self.translate_write(vaddr)?;
            phys.write_u64(p, v);
        } else {
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                let p = self.translate_write(vaddr + i as u64)?;
                phys.write_u8(p, *b);
            }
        }
        Ok(())
    }

    /// Visits the guest range `[vaddr, vaddr + len)` one virtual page at a
    /// time as `f(paddr, at, n)`: the chunk's physical address, its offset
    /// in the range and its length. Pages translate for a data write when
    /// `write` is set, else for a read. Stops at the first page that does
    /// not translate, with that page's first address in range as the fault
    /// `vaddr`, after every earlier chunk has been visited.
    pub fn for_each_page(
        &self,
        vaddr: u64,
        len: u64,
        write: bool,
        mut f: impl FnMut(u64, usize, usize),
    ) -> Result<(), MemFault> {
        let mut done = 0u64;
        while done < len {
            let cur = vaddr.wrapping_add(done);
            let paddr = self.translate(cur, write, false)?;
            let n = (PAGE_SIZE - cur % PAGE_SIZE).min(len - done);
            f(paddr, done as usize, n as usize);
            done += n;
        }
        Ok(())
    }

    /// Reads `len` guest bytes.
    pub fn read_bytes(&self, phys: &PhysMemory, vaddr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        // `len` may be a corrupted guest value (e.g. a fault flipped a
        // syscall argument): never pre-allocate it on the host. An absurd
        // length walks into unmapped territory and faults like real
        // hardware would, growing the buffer only as far as it got.
        let mut out = Vec::with_capacity(len.min(64 * 1024) as usize);
        vaddr.checked_add(len).ok_or(MemFault {
            vaddr,
            kind: MemFaultKind::Unmapped,
        })?;
        self.for_each_page(vaddr, len, false, |p, _, n| {
            out.extend_from_slice(phys.read_bytes(p, n));
        })?;
        Ok(out)
    }

    /// Writes guest bytes.
    pub fn write_bytes(
        &self,
        phys: &mut PhysMemory,
        vaddr: u64,
        data: &[u8],
    ) -> Result<(), MemFault> {
        self.for_each_page(vaddr, data.len() as u64, true, |p, at, n| {
            phys.write_bytes(p, &data[at..at + n]);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMemory, AddressSpace) {
        let mut phys = PhysMemory::new(32 * PAGE_SIZE);
        let mut asp = AddressSpace::new(1);
        asp.map_region(&mut phys, 0x1000, 3 * PAGE_SIZE, PagePerms::RW)
            .expect("map");
        (phys, asp)
    }

    #[test]
    fn translate_and_rw_round_trip() {
        let (mut phys, asp) = setup();
        asp.write_u64(&mut phys, 0x1010, 77).expect("write");
        assert_eq!(asp.read_u64(&phys, 0x1010).expect("read"), 77);
    }

    #[test]
    fn cross_page_u64_access() {
        let (mut phys, asp) = setup();
        let vaddr = 0x1000 + PAGE_SIZE - 3;
        asp.write_u64(&mut phys, vaddr, 0x1122_3344_5566_7788)
            .expect("write");
        assert_eq!(
            asp.read_u64(&phys, vaddr).expect("read"),
            0x1122_3344_5566_7788
        );
    }

    #[test]
    fn unmapped_access_faults() {
        let (phys, asp) = setup();
        let err = asp.read_u64(&phys, 0x9999_0000).expect_err("fault");
        assert_eq!(err.kind, MemFaultKind::Unmapped);
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut phys = PhysMemory::new(8 * PAGE_SIZE);
        let mut asp = AddressSpace::new(1);
        asp.map_region(&mut phys, 0x2000, PAGE_SIZE, PagePerms::R)
            .expect("map");
        assert!(asp.read_u64(&phys, 0x2000).is_ok());
        let err = asp.write_u64(&mut phys, 0x2000, 1).expect_err("fault");
        assert_eq!(err.kind, MemFaultKind::Protection);
    }

    #[test]
    fn exec_permission_is_enforced() {
        let mut phys = PhysMemory::new(8 * PAGE_SIZE);
        let mut asp = AddressSpace::new(1);
        asp.map_region(&mut phys, 0x3000, PAGE_SIZE, PagePerms::RX)
            .expect("map");
        assert!(asp.translate_exec(0x3000).is_ok());
        asp.map_region(&mut phys, 0x4000, PAGE_SIZE, PagePerms::RW)
            .expect("map");
        assert_eq!(
            asp.translate_exec(0x4000).expect_err("fault").kind,
            MemFaultKind::Protection
        );
    }

    #[test]
    fn bytes_round_trip_across_pages() {
        let (mut phys, asp) = setup();
        let data: Vec<u8> = (0..=255u8).cycle().take(2 * PAGE_SIZE as usize).collect();
        asp.write_bytes(&mut phys, 0x1000, &data).expect("write");
        let back = asp
            .read_bytes(&phys, 0x1000, data.len() as u64)
            .expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn double_map_is_idempotent() {
        let (mut phys, mut asp) = setup();
        asp.write_u64(&mut phys, 0x1000, 42).expect("write");
        // Remapping the same region must not replace frames (data survives).
        asp.map_region(&mut phys, 0x1000, PAGE_SIZE, PagePerms::RW)
            .expect("remap");
        assert_eq!(asp.read_u64(&phys, 0x1000).expect("read"), 42);
    }

    #[test]
    fn no_exported_perms_are_writable_and_executable() {
        for perms in [PagePerms::R, PagePerms::RW, PagePerms::RX] {
            assert!(!(perms.write && perms.exec), "{perms:?} breaks W^X");
        }
    }
}
