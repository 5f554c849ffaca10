//! Page-table size accounting (paper Table 1).
//!
//! The paper's observation: for graph heaps, ~98–99% of page-table bytes
//! are L1 PTE pages, and Permission Entries eliminate almost all of them
//! by terminating translation at L2 or above.

use crate::entry::ENTRIES_PER_TABLE;
use crate::table::{PageTable, TOP_LEVEL};
use crate::Pte;
use dvm_mem::PhysMem;
use dvm_types::{PhysAddr, PAGE_SIZE};

/// Size and composition of a page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeReport {
    /// Table pages at each level; index 0 = L1 .. index 3 = L4.
    pub table_frames: [u64; 4],
    /// Present entries at each level (any kind).
    pub present_entries: [u64; 4],
    /// Present L1 leaf PTEs (the paper's "L1PTEs").
    pub l1_pte_count: u64,
    /// Permission Entries at each level.
    pub pe_entries: [u64; 4],
    /// Huge-page leaves (L2/L3 leaf PTEs).
    pub huge_leaf_entries: u64,
}

impl SizeReport {
    /// Total bytes of page-table pages.
    pub fn total_bytes(&self) -> u64 {
        self.table_frames.iter().sum::<u64>() * PAGE_SIZE
    }

    /// Total bytes in kilobytes (paper Table 1 reports KB).
    pub fn total_kb(&self) -> u64 {
        self.total_bytes() / 1024
    }

    /// Fraction of table bytes occupied by L1 table pages — the paper's
    /// "% occupied by L1PTEs" column.
    pub fn l1_fraction(&self) -> f64 {
        let total = self.table_frames.iter().sum::<u64>();
        if total == 0 {
            0.0
        } else {
            self.table_frames[0] as f64 / total as f64
        }
    }

    /// Total Permission Entries at all levels.
    pub fn total_pes(&self) -> u64 {
        self.pe_entries.iter().sum()
    }
}

impl PageTable {
    /// Scan the whole table and report its size and composition.
    pub fn size_report(&self, mem: &PhysMem) -> SizeReport {
        let mut report = SizeReport::default();
        scan(mem, TOP_LEVEL, self.root_frame(), &mut report);
        report
    }
}

fn scan(mem: &PhysMem, level: u8, frame: u64, report: &mut SizeReport) {
    let li = (level - 1) as usize;
    report.table_frames[li] += 1;
    for idx in 0..ENTRIES_PER_TABLE {
        let pa = PhysAddr::from_frame(frame) + idx as u64 * 8;
        let pte = Pte::from_raw(mem.read_u64(pa));
        if !pte.is_present() {
            continue;
        }
        report.present_entries[li] += 1;
        if pte.is_pe() {
            report.pe_entries[li] += 1;
        } else if pte.is_leaf() {
            if level == 1 {
                report.l1_pte_count += 1;
            } else {
                report.huge_leaf_entries += 1;
            }
        } else {
            scan(mem, level - 1, pte.pfn(), report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_mem::{BuddyAllocator, PhysMem};
    use dvm_types::{Permission, VirtAddr};

    fn setup() -> (PhysMem, BuddyAllocator) {
        (PhysMem::new(1 << 16), BuddyAllocator::new(1 << 16))
    }

    #[test]
    fn empty_table_is_one_root_frame() {
        let (mut mem, mut alloc) = setup();
        let pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        let r = pt.size_report(&mem);
        assert_eq!(r.table_frames, [0, 0, 0, 1]);
        assert_eq!(r.total_bytes(), PAGE_SIZE);
        assert_eq!(r.l1_fraction(), 0.0);
    }

    #[test]
    fn pe_mapping_needs_no_l1_tables() {
        let (mut mem, mut alloc) = setup();
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        // 4 MiB identity region aligned to 2 MiB: two L2 PEs, zero L1 pages.
        let base = VirtAddr::new(4 << 20);
        pt.map_identity_pe(&mut mem, &mut alloc, base, 4 << 20, Permission::ReadWrite)
            .unwrap();
        let r = pt.size_report(&mem);
        assert_eq!(r.table_frames[0], 0, "no L1 tables with PEs");
        assert_eq!(r.pe_entries[1], 2, "two L2 PEs");
        assert_eq!(r.l1_pte_count, 0);
    }

    #[test]
    fn leaf_mapping_is_dominated_by_l1() {
        let (mut mem, mut alloc) = setup();
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        // 8 MiB of 4K leaves: 4 L1 tables + 1 L2 + 1 L3 + root.
        let base = VirtAddr::new(16 << 20);
        pt.map_identity_leaves(
            &mut mem,
            &mut alloc,
            base,
            8 << 20,
            Permission::ReadWrite,
            dvm_types::PageSize::Size4K,
        )
        .unwrap();
        let r = pt.size_report(&mem);
        assert_eq!(r.table_frames[0], 4);
        assert_eq!(r.l1_pte_count, 2048);
        assert!(r.l1_fraction() > 0.5);
    }
}
