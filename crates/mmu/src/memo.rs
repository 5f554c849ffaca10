//! Memoization of the IOMMU's timed page-table walks.
//!
//! [`Iommu::timed_walk`](crate::Iommu::timed_walk) walks the page table
//! in simulated `PhysMem`, and its per-step addresses drive the page-walk
//! cache and DRAM models. Every access to a page repeats the same 4-level
//! pointer chase, which dominates the simulator's miss path.
//!
//! [`WalkMemo`] exploits an invariant: for a fixed page table (identified
//! by `(PhysMem::pt_gen, root_frame)`), the walk of any virtual address is
//! a pure function of its 4 KiB virtual page number.
//!
//! * every step's PTE address depends only on VA bits ≥ 12;
//! * a `Leaf` outcome is linear inside its page (`pa = base + offset`)
//!   for 4 KiB, 2 MiB and 1 GiB leaves alike;
//! * a `PermissionEntry` outcome's slot index depends only on VA bits
//!   ≥ 13 (slot spans are ≥ 128 KiB);
//! * a `NotMapped` outcome's failing level is offset-independent.
//!
//! So a direct-mapped VPN-indexed cache of the page-base walk reproduces
//! the uncached walk *exactly*, and [`PhysMem::note_pt_mutation`] bumping
//! the generation on every page-table write or table-frame free makes
//! stale entries unreachable.

use dvm_mem::PhysMem;
use dvm_pagetable::{PageTable, Walk, WalkOutcome};
use dvm_types::{VirtAddr, PAGE_SIZE};

/// log2 of the slot count: 65536 slots cover a ~256 MiB working set per
/// conflict-free stride. The quick-scale RMAT datasets touch tens of
/// thousands of distinct pages; at the previous 4096 slots their
/// random property accesses thrashed the memo and most TLB misses paid
/// a real 4-level walk through cache-cold table frames, which dominated
/// the simulator's miss path.
const LOG2_SLOTS: u32 = 16;
const SLOTS: usize = 1 << LOG2_SLOTS;

/// Fibonacci multiplier; spreads clustered VPNs across slots so distinct
/// arenas laid out at round offsets do not thrash a shared slot.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn slot_of(vpn: u64) -> usize {
    (vpn.wrapping_mul(HASH_MUL) >> (64 - LOG2_SLOTS)) as usize
}

/// Identity of the page table a memo entry was computed against.
type MemoTag = (u64, u64); // (PhysMem::pt_gen, PageTable::root_frame)

/// Direct-mapped memo of full *timed* walks, owned by
/// [`Iommu`](crate::Iommu).
///
/// Stores the complete [`Walk`] (steps and outcome) computed at the
/// page-base address of each VPN; a hit replays the identical step
/// sequence into the page-walk cache and DRAM models and rebases a
/// `Leaf` outcome by the in-page offset, so the result is byte-for-byte
/// the walk `PageTable::walk` would have produced.
#[derive(Debug, Clone)]
pub(crate) struct WalkMemo {
    enabled: bool,
    tag: MemoTag,
    vpns: Box<[u64]>,
    walks: Box<[Walk]>,
}

impl WalkMemo {
    pub(crate) fn new() -> Self {
        let empty = Walk::new(&[], WalkOutcome::NotMapped { level: 0 });
        Self {
            enabled: true,
            tag: (0, 0),
            vpns: vec![0; SLOTS].into_boxed_slice(),
            walks: vec![empty; SLOTS].into_boxed_slice(),
        }
    }

    /// Enable or disable memoization (disabling also clears the store).
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.vpns.fill(0);
    }

    /// Walk `va`, reusing the memoized page-base walk when valid.
    #[inline]
    pub(crate) fn walk(&mut self, pt: &PageTable, mem: &PhysMem, va: VirtAddr) -> Walk {
        if !self.enabled {
            return pt.walk(mem, va);
        }
        let tag = (mem.pt_gen(), pt.root_frame());
        if self.tag != tag {
            self.vpns.fill(0);
            self.tag = tag;
        }
        let offset = va.raw() & (PAGE_SIZE - 1);
        let vpn = va.raw() >> dvm_types::PAGE_SHIFT;
        let slot = slot_of(vpn);
        if self.vpns[slot] != vpn + 1 {
            // Walk the page base so the cached entry is offset-free.
            // `VA_LIMIT` is page-aligned, so the canonicality assert
            // inside `PageTable::walk` fires iff it would fire for `va`.
            let walk = pt.walk(mem, VirtAddr::new(va.raw() - offset));
            self.vpns[slot] = vpn + 1;
            self.walks[slot] = walk;
        }
        let mut walk = self.walks[slot];
        if let WalkOutcome::Leaf { pa, .. } = &mut walk.outcome {
            *pa += offset;
        }
        walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_mem::BuddyAllocator;
    use dvm_types::{Permission, PhysAddr};

    fn harness() -> (PhysMem, BuddyAllocator, PageTable) {
        let mut mem = PhysMem::new(1 << 16);
        let mut alloc = BuddyAllocator::new(1 << 16);
        let pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        (mem, alloc, pt)
    }

    #[test]
    fn walk_memo_matches_direct_walks() {
        let (mut mem, mut alloc, mut pt) = harness();
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(16 << 20),
            2 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
        pt.map_page(
            &mut mem,
            &mut alloc,
            VirtAddr::new(64 << 20),
            PhysAddr::new(32 << 20),
            dvm_types::PageSize::Size4K,
            Permission::ReadOnly,
        )
        .unwrap();
        let mut memo = WalkMemo::new();
        let vas = [
            VirtAddr::new(16 << 20),
            VirtAddr::new((16 << 20) + 0x7b4),
            VirtAddr::new((64 << 20) + 0xffc),
            VirtAddr::new(900 << 20), // not mapped
        ];
        for _ in 0..3 {
            for va in vas {
                assert_eq!(memo.walk(&pt, &mem, va), pt.walk(&mem, va), "{va}");
            }
        }
    }

    #[test]
    fn walk_memo_sees_page_table_mutations() {
        let (mut mem, mut alloc, mut pt) = harness();
        let va = VirtAddr::new(64 << 20);
        pt.map_page(
            &mut mem,
            &mut alloc,
            va,
            PhysAddr::new(32 << 20),
            dvm_types::PageSize::Size4K,
            Permission::ReadWrite,
        )
        .unwrap();
        let mut memo = WalkMemo::new();
        assert_eq!(memo.walk(&pt, &mem, va), pt.walk(&mem, va));
        pt.unmap_region(&mut mem, &mut alloc, va, PAGE_SIZE)
            .unwrap();
        assert_eq!(memo.walk(&pt, &mem, va), pt.walk(&mem, va), "post-unmap");
        assert!(matches!(
            memo.walk(&pt, &mem, va).outcome,
            WalkOutcome::NotMapped { .. }
        ));
    }
}
