//! Processes, virtual memory areas, and the flexible address-space layout.
//!
//! DVM requires a *flexible address space* (§4.3.2): identity-mapped
//! regions land wherever their physical allocation happens to be, so VMAs
//! cannot assume the traditional code/heap/stack ordering. Demand-paged
//! fallback regions are placed high (above any possible physical address)
//! with ASLR-style randomization, so they can never collide with identity
//! mappings.

use dvm_mem::FrameRange;
use dvm_pagetable::PageTable;
use dvm_sim::{U64Map, U64Set};
use dvm_types::{PageSize, Permission, VirtAddr, PAGE_SIZE};
use std::collections::BTreeMap;

/// Process identifier.
pub type Pid = u32;

/// What kind of segment a VMA is (for reporting; placement is flexible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaKind {
    /// Code (text) segment.
    Code,
    /// Initialized/uninitialized globals.
    Data,
    /// Heap / memory-mapped allocation.
    Heap,
    /// Thread stack.
    Stack,
}

/// How a VMA's pages are backed by physical memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backing {
    /// Eagerly allocated contiguous frames with `VA == PA`.
    Identity(FrameRange),
    /// Per-page frames (demand-paging fallback or CoW copies); entry `i`
    /// backs page `i` of the VMA.
    Paged(Vec<u64>),
}

/// One virtual memory area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// First virtual address.
    pub start: VirtAddr,
    /// Length in bytes (multiple of 4 KiB).
    pub len: u64,
    /// Logical permissions the owner holds (hardware permissions may be
    /// temporarily narrower during CoW).
    pub perms: Permission,
    /// Segment kind.
    pub kind: VmaKind,
    /// Physical backing.
    pub backing: Backing,
    /// `true` while pages may be shared copy-on-write with another process.
    pub cow: bool,
    /// Private copies that replaced shared pages after a CoW fault:
    /// `page index within the VMA -> private frame`.
    pub cow_pages: U64Map<u64>,
    /// Pages currently swapped out (their frames are freed; contents live
    /// in a [`crate::SwapStore`]).
    pub swapped: U64Set,
}

impl Vma {
    /// One-past-the-end address.
    pub fn end(&self) -> VirtAddr {
        self.start + self.len
    }

    /// `true` if `va` lies inside this VMA.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }

    /// Number of 4 KiB pages.
    pub fn pages(&self) -> u64 {
        self.len / PAGE_SIZE
    }

    /// `true` if backed by an identity mapping (ignoring CoW overrides).
    pub fn is_identity(&self) -> bool {
        matches!(self.backing, Backing::Identity(_))
    }

    /// The frame currently backing page `page_idx` of this VMA.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` is out of range.
    pub fn frame_of_page(&self, page_idx: u64) -> u64 {
        assert!(page_idx < self.pages(), "page index beyond VMA");
        if let Some(&frame) = self.cow_pages.get(&page_idx) {
            return frame;
        }
        match &self.backing {
            Backing::Identity(range) => range.start + page_idx,
            Backing::Paged(frames) => frames[page_idx as usize],
        }
    }
}

/// A simulated process: an address space plus its page table.
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// The process's page table (also used by the IOMMU on its behalf).
    pub page_table: PageTable,
    /// VMAs keyed by start address.
    pub(crate) vmas: BTreeMap<u64, Vma>,
    /// Bump cursor for demand-paged placements (above all physical
    /// addresses; randomized at process creation).
    pub(crate) demand_cursor: u64,
    /// `true` for vfork children: the address space belongs to the
    /// parent and is not released on exit.
    pub(crate) borrowed_address_space: bool,
}

impl Process {
    pub(crate) fn new(pid: Pid, page_table: PageTable, demand_base: u64) -> Self {
        Self {
            pid,
            page_table,
            vmas: BTreeMap::new(),
            demand_cursor: demand_base,
            borrowed_address_space: false,
        }
    }

    /// The VMA containing `va`, if any.
    pub fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.raw())
            .next_back()
            .map(|(_, vma)| vma)
            .filter(|vma| vma.contains(va))
    }

    pub(crate) fn vma_at_mut(&mut self, va: VirtAddr) -> Option<&mut Vma> {
        self.vmas
            .range_mut(..=va.raw())
            .next_back()
            .map(|(_, vma)| vma)
            .filter(|vma| vma.contains(va))
    }

    /// Iterate over VMAs in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Total identity-mapped bytes (paper's Table 4 numerator counts these).
    pub fn identity_bytes(&self) -> u64 {
        self.vmas
            .values()
            .filter(|v| v.is_identity())
            .map(|v| v.len)
            .sum()
    }

    /// `true` if `[va, va+len)` overlaps no existing VMA.
    pub fn range_is_free(&self, va: VirtAddr, len: u64) -> bool {
        let lo = va.raw();
        let hi = lo.saturating_add(len);
        // Check the VMA starting at or before `lo` and any starting inside.
        if let Some((_, vma)) = self.vmas.range(..=lo).next_back() {
            if vma.end().raw() > lo {
                return false;
            }
        }
        self.vmas.range(lo..hi).next().is_none()
    }

    /// Reserve a demand-paged VA range of `len` bytes from the high area.
    pub(crate) fn take_demand_range(&mut self, len: u64) -> VirtAddr {
        // Leave an unmapped guard page between regions.
        let va = VirtAddr::new(self.demand_cursor);
        self.demand_cursor += len + PAGE_SIZE;
        debug_assert!(self.range_is_free(va, len));
        va
    }
}

/// Alignment granule the OS uses when eagerly allocating identity-mapped
/// backing for a given page-table flavour: huge-page flavours round
/// allocations up so every leaf can use the large size.
pub fn backing_granule(leaf: Option<PageSize>) -> u64 {
    leaf.map_or(PAGE_SIZE, PageSize::bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_vma(start: u64, len: u64) -> Vma {
        Vma {
            start: VirtAddr::new(start),
            len,
            perms: Permission::ReadWrite,
            kind: VmaKind::Heap,
            backing: Backing::Identity(FrameRange {
                start: start / PAGE_SIZE,
                count: len / PAGE_SIZE,
            }),
            cow: false,
            cow_pages: U64Map::default(),
            swapped: U64Set::default(),
        }
    }

    fn proc_with(vmas: &[(u64, u64)]) -> Process {
        let mut mem = dvm_mem::PhysMem::new(64);
        let mut alloc = dvm_mem::BuddyAllocator::new(64);
        let pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        let mut p = Process {
            pid: 1,
            page_table: pt,
            vmas: BTreeMap::new(),
            demand_cursor: 1 << 46,
            borrowed_address_space: false,
        };
        for &(s, l) in vmas {
            p.vmas.insert(s, dummy_vma(s, l));
        }
        p
    }

    #[test]
    fn vma_contains_and_frames() {
        let vma = dummy_vma(0x10000, 0x4000);
        assert!(vma.contains(VirtAddr::new(0x10000)));
        assert!(vma.contains(VirtAddr::new(0x13fff)));
        assert!(!vma.contains(VirtAddr::new(0x14000)));
        assert_eq!(vma.pages(), 4);
        assert_eq!(vma.frame_of_page(0), 0x10);
        assert_eq!(vma.frame_of_page(3), 0x13);
    }

    #[test]
    fn cow_pages_override_backing() {
        let mut vma = dummy_vma(0x10000, 0x4000);
        vma.cow_pages.insert(2, 999);
        assert_eq!(vma.frame_of_page(2), 999);
        assert_eq!(vma.frame_of_page(1), 0x11);
    }

    #[test]
    fn range_is_free_detects_overlap() {
        let p = proc_with(&[(0x10000, 0x4000), (0x20000, 0x1000)]);
        assert!(p.range_is_free(VirtAddr::new(0x14000), 0x1000));
        assert!(!p.range_is_free(VirtAddr::new(0x13000), 0x1000));
        assert!(!p.range_is_free(VirtAddr::new(0xf000), 0x2000));
        assert!(!p.range_is_free(VirtAddr::new(0x0), 0x100000));
        assert!(p.range_is_free(VirtAddr::new(0x21000), 0x1000));
    }

    #[test]
    fn vma_lookup() {
        let p = proc_with(&[(0x10000, 0x4000)]);
        assert!(p.vma_at(VirtAddr::new(0x10000)).is_some());
        assert!(p.vma_at(VirtAddr::new(0x13fff)).is_some());
        assert!(p.vma_at(VirtAddr::new(0x14000)).is_none());
        assert!(p.vma_at(VirtAddr::new(0x0)).is_none());
    }

    #[test]
    fn demand_ranges_do_not_collide() {
        let mut p = proc_with(&[]);
        let a = p.take_demand_range(0x10000);
        let b = p.take_demand_range(0x10000);
        assert!(b.raw() >= a.raw() + 0x10000 + PAGE_SIZE);
    }

    #[test]
    fn granules() {
        assert_eq!(backing_granule(None), PAGE_SIZE);
        assert_eq!(backing_granule(Some(PageSize::Size2M)), 2 << 20);
        assert_eq!(backing_granule(Some(PageSize::Size1G)), 1 << 30);
    }
}
