//! The CPU-side MMU model for cDVM (paper §7): a two-level TLB hierarchy
//! matching the Xeon E5-2430 the paper measures (64-entry L1 DTLB,
//! 512-entry L2 DTLB), backed by a page-walk cache — or, under cDVM, the
//! Access Validation Cache walking Permission-Entry tables.

use dvm_mem::PhysMem;
use dvm_mmu::{Associativity, PtCache, PtCacheConfig, PtcLookup, Tlb, TlbConfig, TlbEntry};
use dvm_pagetable::PageTable;
use dvm_sim::{Counter, Cycles, RatioStat};
use dvm_types::{PageSize, VirtAddr};

/// CPU memory-management scheme (paper Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuScheme {
    /// Conventional VM with 4 KiB pages.
    Base4K,
    /// Transparent huge pages (2 MiB).
    Thp,
    /// cDVM: identity-mapped segments, PE page tables, AVC-backed walks.
    Cdvm,
}

impl CpuScheme {
    /// All schemes in the figure's order.
    pub const ALL: [CpuScheme; 3] = [CpuScheme::Base4K, CpuScheme::Thp, CpuScheme::Cdvm];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CpuScheme::Base4K => "4K",
            CpuScheme::Thp => "THP",
            CpuScheme::Cdvm => "cDVM",
        }
    }

    /// TLB entry granularity for the scheme (cDVM caches per-4K
    /// validations in the existing TLBs).
    pub fn tlb_page(&self) -> PageSize {
        match self {
            CpuScheme::Thp => PageSize::Size2M,
            _ => PageSize::Size4K,
        }
    }
}

impl core::fmt::Display for CpuScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// CPU MMU timing parameters (Xeon-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMmuConfig {
    /// L1 DTLB entries (4-way).
    pub l1_entries: u32,
    /// L2 DTLB entries (8-way).
    pub l2_entries: u32,
    /// Cycles per PWC/AVC probe during a walk.
    pub ptc_latency: Cycles,
    /// Cycles for a page-table-entry fetch that misses the PWC/AVC. On a
    /// real CPU these mostly hit the data-cache hierarchy, so this is a
    /// cache-mix latency, not raw DRAM.
    pub walker_mem_cycles: Cycles,
    /// cDVM store optimization (paper §7.1): under the write-allocate
    /// policy, the cacheline fetch a store needs anyway is speculatively
    /// issued to the predicted PA==VA in parallel with validation, hiding
    /// up to this many cycles of a store's walk stall. `0` disables it
    /// (the default, matching the paper's evaluated configuration — its
    /// Figure 10 methodology notes "we do not implement preloads").
    pub store_fetch_overlap_cycles: Cycles,
}

impl Default for CpuMmuConfig {
    fn default() -> Self {
        Self {
            l1_entries: 64,
            l2_entries: 512,
            ptc_latency: 2,
            walker_mem_cycles: 50,
            store_fetch_overlap_cycles: 0,
        }
    }
}

/// Per-run walker statistics (the DTLBs count their own hits and misses:
/// see [`CpuMmu::l1_stats`] and [`CpuMmu::l2_stats`]).
#[derive(Debug, Clone)]
pub struct CpuMmuStats {
    /// Walks performed.
    pub walks: Counter,
    /// Walker memory references.
    pub walk_mem_refs: Counter,
}

/// The CPU's translation machinery for one scheme.
#[derive(Debug)]
pub struct CpuMmu {
    scheme: CpuScheme,
    l1: Tlb,
    l2: Tlb,
    ptc: PtCache,
    config: CpuMmuConfig,
    /// Statistics.
    pub stats: CpuMmuStats,
}

impl CpuMmu {
    /// Build the MMU for a scheme.
    pub fn new(scheme: CpuScheme, config: CpuMmuConfig) -> Self {
        let page = scheme.tlb_page();
        let ptc = match scheme {
            CpuScheme::Cdvm => PtCacheConfig::paper_avc(),
            _ => PtCacheConfig::paper_pwc(),
        };
        Self {
            scheme,
            l1: Tlb::new(TlbConfig {
                entries: config.l1_entries,
                assoc: Associativity::SetAssociative { ways: 4 },
                page_size: page,
            }),
            l2: Tlb::new(TlbConfig {
                entries: config.l2_entries,
                assoc: Associativity::SetAssociative { ways: 8 },
                page_size: page,
            }),
            ptc: PtCache::new(ptc),
            stats: CpuMmuStats {
                walks: Counter::new("walks"),
                walk_mem_refs: Counter::new("walk_mem_refs"),
            },
            config,
        }
    }

    /// The scheme being modelled.
    pub fn scheme(&self) -> CpuScheme {
        self.scheme
    }

    /// L1 DTLB hits and misses.
    pub fn l1_stats(&self) -> &RatioStat {
        self.l1.stats()
    }

    /// L2 DTLB hits and misses (probed only on L1 misses).
    pub fn l2_stats(&self) -> &RatioStat {
        self.l2.stats()
    }

    /// Reset statistics between measurement phases.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.stats.walks.reset();
        self.stats.walk_mem_refs.reset();
    }

    /// Page-walk cycles charged to one access. TLB lookups themselves are
    /// pipelined and present in every scheme (including the paper's ideal
    /// baseline, which subtracts only *walk* cycles — §7.3), so hits at
    /// either level cost zero here and a walk is charged exactly its
    /// PWC/AVC-probe and PTE-fetch time.
    ///
    /// # Panics
    ///
    /// Panics if the address is unmapped — CPU workload generators only
    /// touch their own segments.
    pub fn translate(&mut self, va: VirtAddr, pt: &PageTable, mem: &PhysMem) -> Cycles {
        self.translate_access(va, dvm_types::AccessKind::Read, pt, mem)
    }

    /// [`Self::translate`] with the access kind: under cDVM with the §7.1
    /// store optimization enabled, a store's walk stall is overlapped with
    /// the write-allocate cacheline fetch (speculative, to PA==VA) and
    /// only the excess is charged.
    ///
    /// # Panics
    ///
    /// Panics if the address is unmapped — CPU workload generators only
    /// touch their own segments.
    pub fn translate_access(
        &mut self,
        va: VirtAddr,
        kind: dvm_types::AccessKind,
        pt: &PageTable,
        mem: &PhysMem,
    ) -> Cycles {
        let CpuMmuConfig {
            ptc_latency,
            walker_mem_cycles: walker_mem,
            store_fetch_overlap_cycles: store_overlap,
            ..
        } = self.config;
        if self.l1.lookup(va).is_some() {
            return 0;
        }
        if let Some(entry) = self.l2.lookup(va) {
            self.l1.insert(entry);
            return 0;
        }
        // Walk.
        self.stats.walks.inc();
        let walk = pt.walk(mem, va);
        let mut cost = 0;
        for step in walk.steps() {
            match self.ptc.access(step.pte_pa, step.level) {
                PtcLookup::Hit => cost += ptc_latency,
                PtcLookup::Miss => {
                    cost += ptc_latency + walker_mem;
                    self.stats.walk_mem_refs.inc();
                }
                PtcLookup::Bypass => {
                    cost += walker_mem;
                    self.stats.walk_mem_refs.inc();
                }
            }
        }
        let page = self.scheme.tlb_page();
        let resolved = walk
            .resolve(va)
            .unwrap_or_else(|| panic!("CPU workload touched unmapped {va}"));
        let entry = TlbEntry {
            vpn: va.vpn(page),
            pfn: resolved.0.raw() >> page.shift(),
            perms: resolved.1,
        };
        self.l2.insert(entry);
        self.l1.insert(entry);
        if kind == dvm_types::AccessKind::Write
            && self.scheme == CpuScheme::Cdvm
            && resolved.0.raw() == va.raw()
        {
            // §7.1: the store's line fetch (to the correctly predicted
            // PA==VA) ran concurrently with the walk.
            cost = cost.saturating_sub(store_overlap);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_mem::BuddyAllocator;
    use dvm_types::Permission;

    fn harness(scheme: CpuScheme) -> (PhysMem, PageTable, CpuMmu) {
        let mut mem = PhysMem::new(1 << 17);
        let mut alloc = BuddyAllocator::new(1 << 17);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        let base = VirtAddr::new(64 << 20);
        match scheme {
            CpuScheme::Cdvm => pt
                .map_identity_pe(&mut mem, &mut alloc, base, 32 << 20, Permission::ReadWrite)
                .unwrap(),
            CpuScheme::Thp => pt
                .map_identity_leaves(
                    &mut mem,
                    &mut alloc,
                    base,
                    32 << 20,
                    Permission::ReadWrite,
                    PageSize::Size2M,
                )
                .unwrap(),
            CpuScheme::Base4K => pt
                .map_identity_leaves(
                    &mut mem,
                    &mut alloc,
                    base,
                    32 << 20,
                    Permission::ReadWrite,
                    PageSize::Size4K,
                )
                .unwrap(),
        }
        (mem, pt, CpuMmu::new(scheme, CpuMmuConfig::default()))
    }

    #[test]
    fn hits_are_free_and_misses_cost() {
        let (mem, pt, mut mmu) = harness(CpuScheme::Base4K);
        let va = VirtAddr::new(64 << 20);
        let first = mmu.translate(va, &pt, &mem);
        let second = mmu.translate(va, &pt, &mem);
        assert!(first > 0, "cold access walks");
        assert_eq!(second, 0, "L1 hit is pipelined away");
        assert_eq!(mmu.l1_stats().hits(), 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let (mem, pt, mut mmu) = harness(CpuScheme::Base4K);
        // Touch 128 distinct pages: beyond the 64-entry L1, within L2.
        for i in 0..128u64 {
            mmu.translate(VirtAddr::new((64 << 20) + i * 4096), &pt, &mem);
        }
        mmu.reset_stats();
        for i in 0..128u64 {
            mmu.translate(VirtAddr::new((64 << 20) + i * 4096), &pt, &mem);
        }
        assert_eq!(mmu.stats.walks.get(), 0, "all within L2 reach");
        assert!(mmu.l2_stats().hits() > 0);
        assert_eq!(
            mmu.l1_stats().total(),
            128,
            "reset_stats clears the DTLB counts"
        );
    }

    #[test]
    fn thp_has_larger_reach() {
        let (mem4, pt4, mut mmu4) = harness(CpuScheme::Base4K);
        let (mem2, pt2, mut mmu2) = harness(CpuScheme::Thp);
        // Stride through 16 MiB at 4 KiB steps.
        for i in 0..4096u64 {
            let va = VirtAddr::new((64 << 20) + i * 4096);
            mmu4.translate(va, &pt4, &mem4);
            mmu2.translate(va, &pt2, &mem2);
        }
        assert!(mmu2.stats.walks.get() < mmu4.stats.walks.get() / 10);
    }

    #[test]
    fn cdvm_walks_avoid_memory() {
        let (mem, pt, mut mmu) = harness(CpuScheme::Cdvm);
        // Touch far more pages than the TLBs hold: every access walks, but
        // PE walks should be serviced by the AVC with almost no DRAM.
        for i in 0..4096u64 {
            mmu.translate(VirtAddr::new((64 << 20) + i * 8192), &pt, &mem);
        }
        assert!(mmu.stats.walks.get() > 3000);
        assert!(
            mmu.stats.walk_mem_refs.get() < 16,
            "walker DRAM refs: {}",
            mmu.stats.walk_mem_refs.get()
        );
    }

    #[test]
    fn base4k_walks_hit_memory() {
        let (mem, pt, mut mmu) = harness(CpuScheme::Base4K);
        for i in 0..4096u64 {
            mmu.translate(VirtAddr::new((64 << 20) + i * 8192), &pt, &mem);
        }
        // Every 4K walk fetches at least the L1 PTE from memory.
        assert!(mmu.stats.walk_mem_refs.get() >= mmu.stats.walks.get());
    }
}

#[cfg(test)]
mod store_overlap_tests {
    use super::*;
    use dvm_mem::BuddyAllocator;
    use dvm_types::{AccessKind, Permission};

    fn cdvm_rig(overlap: Cycles) -> (PhysMem, PageTable, CpuMmu) {
        let mut mem = PhysMem::new(1 << 17);
        let mut alloc = BuddyAllocator::new(1 << 17);
        let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        pt.map_identity_pe(
            &mut mem,
            &mut alloc,
            VirtAddr::new(64 << 20),
            32 << 20,
            Permission::ReadWrite,
        )
        .unwrap();
        let mmu = CpuMmu::new(
            CpuScheme::Cdvm,
            CpuMmuConfig {
                store_fetch_overlap_cycles: overlap,
                ..CpuMmuConfig::default()
            },
        );
        (mem, pt, mmu)
    }

    #[test]
    fn store_overlap_hides_write_walk_stall() {
        let va = VirtAddr::new(64 << 20);
        let (mem, pt, mut base) = cdvm_rig(0);
        let (mem2, pt2, mut opt) = cdvm_rig(1_000);
        let cold_read = base.translate_access(va, AccessKind::Write, &pt, &mem);
        let cold_write_opt = opt.translate_access(va, AccessKind::Write, &pt2, &mem2);
        assert!(cold_read > 0, "cold walk has a cost");
        assert_eq!(cold_write_opt, 0, "store fetch hides the whole walk");
    }

    #[test]
    fn reads_are_unaffected_by_store_overlap() {
        let va = VirtAddr::new((64 << 20) + 0x2000);
        let (mem, pt, mut base) = cdvm_rig(0);
        let (mem2, pt2, mut opt) = cdvm_rig(1_000);
        assert_eq!(
            base.translate_access(va, AccessKind::Read, &pt, &mem),
            opt.translate_access(va, AccessKind::Read, &pt2, &mem2),
        );
    }
}
