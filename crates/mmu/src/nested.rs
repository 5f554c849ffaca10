//! Nested (virtualized) address translation and the three DVM extensions
//! of the paper's §5 "Virtual Machines" discussion.
//!
//! Under virtualization an access needs two translations: guest virtual
//! (gVA) to guest physical (gPA) through the guest OS's page table, and
//! gPA to system physical (sPA) through the hypervisor's table. A
//! conventional two-dimensional walk must translate the *guest page-table
//! pointers themselves*, so a 4-level-by-4-level walk costs up to 24
//! entry reads (the classic nested-paging blow-up the paper cites from
//! Bhargava et al.).
//!
//! The paper sketches three DVM deployments:
//!
//! 1. **host-DVM** — the hypervisor identity-maps guest physical memory
//!    (gPA == sPA), validated by Permission Entries: the guest walk
//!    becomes one-dimensional.
//! 2. **guest-DVM** — the guest OS identity-maps its processes
//!    (gVA == gPA): only the hypervisor dimension remains.
//! 3. **full-DVM** — both levels identity-map (gVA == sPA): translation
//!    degenerates to a single Devirtualized Access Validation against the
//!    host's Permission-Entry table (plus a guest-side PE validation that
//!    the AVC also absorbs).
//!
//! [`NestedWalker`] models all four schemes over real page tables in
//! simulated memory and reports entry reads, memory references and stall
//! cycles per translation, which the `virt` harness aggregates (a quick
//! golden pins its output; reporting nested translation as a simulated
//! ablation is a ROADMAP item).

use crate::ptcache::{PtCache, PtCacheConfig, PtcLookup};
use dvm_mem::{Dram, PhysMem};
use dvm_pagetable::{PageTable, Walk, WalkOutcome};
use dvm_sim::{Counter, Cycles};
use dvm_types::{AccessKind, Fault, FaultKind, PhysAddr, VirtAddr};

/// How the two translation dimensions are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestedScheme {
    /// Conventional nested paging: both dimensions are leaf-PTE tables
    /// and guest-table pointers are translated through the host table.
    TwoDimensional,
    /// Hypervisor identity-maps guest memory with PEs (gPA == sPA):
    /// one-dimensional guest walk, host validation from the AVC.
    HostDvm,
    /// Guest identity-maps with PEs (gVA == gPA): one-dimensional host
    /// walk.
    GuestDvm,
    /// Both identity-map (gVA == sPA): validation only.
    FullDvm,
}

impl NestedScheme {
    /// All schemes, cheapest last.
    pub const ALL: [NestedScheme; 4] = [
        NestedScheme::TwoDimensional,
        NestedScheme::HostDvm,
        NestedScheme::GuestDvm,
        NestedScheme::FullDvm,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            NestedScheme::TwoDimensional => "2D nested",
            NestedScheme::HostDvm => "host-DVM",
            NestedScheme::GuestDvm => "guest-DVM",
            NestedScheme::FullDvm => "full-DVM",
        }
    }
}

impl core::fmt::Display for NestedScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one nested translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedTranslation {
    /// Final system physical address.
    pub spa: PhysAddr,
    /// Page-table entries read across both dimensions.
    pub entry_reads: u32,
    /// Entry reads that missed the nested walk cache and went to memory.
    pub mem_refs: u32,
    /// Stall cycles (memory fetches; cache probes are pipelined).
    pub stall: Cycles,
}

/// Statistics across a walker's lifetime.
#[derive(Debug, Clone)]
pub struct NestedStats {
    /// Translations performed.
    pub translations: Counter,
    /// Total entry reads.
    pub entry_reads: Counter,
    /// Total walker memory references.
    pub mem_refs: Counter,
}

/// A nested page-table walker with a shared walk cache for both
/// dimensions (as in AMD NPT walk caching).
#[derive(Debug)]
pub struct NestedWalker {
    scheme: NestedScheme,
    cache: PtCache,
    /// Statistics.
    pub stats: NestedStats,
}

impl NestedWalker {
    /// Create a walker; the cache uses the paper's AVC geometry.
    pub fn new(scheme: NestedScheme) -> Self {
        Self {
            scheme,
            cache: PtCache::new(PtCacheConfig::paper_avc()),
            stats: NestedStats {
                translations: Counter::new("translations"),
                entry_reads: Counter::new("entry_reads"),
                mem_refs: Counter::new("mem_refs"),
            },
        }
    }

    /// The scheme being modelled.
    pub fn scheme(&self) -> NestedScheme {
        self.scheme
    }

    /// Charge one entry read at `pte_pa` against the walk cache.
    fn charge(&mut self, pte_pa: PhysAddr, level: u8, dram: &mut Dram, t: &mut NestedTranslation) {
        t.entry_reads += 1;
        self.stats.entry_reads.inc();
        if self.cache.access(pte_pa, level) != PtcLookup::Hit {
            t.mem_refs += 1;
            self.stats.mem_refs.inc();
            t.stall += dram.access(pte_pa, AccessKind::Read);
        }
    }

    /// Charge a completed one-dimensional walk.
    fn charge_walk(&mut self, walk: &Walk, dram: &mut Dram, t: &mut NestedTranslation) {
        for step in walk.steps() {
            self.charge(step.pte_pa, step.level, dram, t);
        }
    }

    /// Translate a guest virtual address to a system physical address.
    ///
    /// `guest_pt` maps gVA -> gPA; `host_pt` maps gPA -> sPA. Both tables
    /// live in (host) simulated physical memory. For the DVM schemes the
    /// corresponding table must have been built with Permission Entries
    /// over identity mappings; a leaf outcome still works (it is the
    /// paper's fallback path) but costs the conventional dimension.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if either dimension has no mapping for the
    /// address.
    pub fn translate(
        &mut self,
        gva: VirtAddr,
        guest_pt: &PageTable,
        host_pt: &PageTable,
        mem: &PhysMem,
        dram: &mut Dram,
    ) -> Result<NestedTranslation, Fault> {
        self.stats.translations.inc();
        let mut t = NestedTranslation {
            spa: PhysAddr::ZERO,
            entry_reads: 0,
            mem_refs: 0,
            stall: 0,
        };
        let not_mapped = |va: VirtAddr| Fault {
            va,
            access: AccessKind::Read,
            kind: FaultKind::NotMapped,
        };

        // Dimension 1: gVA -> gPA.
        let gpa = match self.scheme {
            NestedScheme::TwoDimensional => {
                // Each guest entry read needs its own host translation of
                // the guest-table pointer (the 2D blow-up). We replay the
                // guest walk and, before each entry read, charge a host
                // walk for the entry's gPA.
                let guest_walk = guest_pt.walk(mem, gva);
                for step in guest_walk.steps() {
                    // The guest PTE's "physical" address is a gPA; in our
                    // model guest tables are allocated from host memory,
                    // so the host walk is over the same address (an
                    // identity nesting of table frames) — the *costs* are
                    // what we are modelling.
                    let host_walk = host_pt.walk(mem, step.pte_pa.to_identity_va());
                    self.charge_walk(&host_walk, dram, &mut t);
                    self.charge(step.pte_pa, step.level, dram, &mut t);
                }
                guest_walk.resolve(gva).ok_or(not_mapped(gva))?.0
            }
            NestedScheme::GuestDvm | NestedScheme::FullDvm => {
                // Guest identity maps: validate via the guest PE table.
                let guest_walk = guest_pt.walk(mem, gva);
                self.charge_walk(&guest_walk, dram, &mut t);
                match guest_walk.outcome {
                    WalkOutcome::PermissionEntry { perms, .. } if perms.is_mapped() => {
                        gva.to_identity_pa()
                    }
                    _ => guest_walk.resolve(gva).ok_or(not_mapped(gva))?.0,
                }
            }
            NestedScheme::HostDvm => {
                // Conventional guest walk, but guest-table pointers need
                // no host translation (gPA == sPA): one-dimensional.
                let guest_walk = guest_pt.walk(mem, gva);
                self.charge_walk(&guest_walk, dram, &mut t);
                guest_walk.resolve(gva).ok_or(not_mapped(gva))?.0
            }
        };

        // Dimension 2: gPA -> sPA.
        let gpa_va = gpa.to_identity_va();
        let spa = match self.scheme {
            NestedScheme::HostDvm | NestedScheme::FullDvm => {
                // Host identity maps: DAV against the host PE table.
                let host_walk = host_pt.walk(mem, gpa_va);
                self.charge_walk(&host_walk, dram, &mut t);
                match host_walk.outcome {
                    WalkOutcome::PermissionEntry { perms, .. } if perms.is_mapped() => gpa,
                    _ => host_walk.resolve(gpa_va).ok_or(not_mapped(gpa_va))?.0,
                }
            }
            NestedScheme::TwoDimensional | NestedScheme::GuestDvm => {
                let host_walk = host_pt.walk(mem, gpa_va);
                self.charge_walk(&host_walk, dram, &mut t);
                host_walk.resolve(gpa_va).ok_or(not_mapped(gpa_va))?.0
            }
        };
        t.spa = spa;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_mem::{BuddyAllocator, DramConfig};
    use dvm_sim::DetRng;
    use dvm_types::{PageSize, Permission};

    /// Build guest and host tables over a 32 MiB guest region at 1 GiB.
    /// `guest_identity`/`host_identity` select PE tables vs leaves: 4K
    /// leaves in the guest, `host_leaf` leaves in the host.
    fn rig(
        guest_identity: bool,
        host_identity: bool,
        host_leaf: PageSize,
    ) -> (PhysMem, Dram, PageTable, PageTable) {
        let mut mem = PhysMem::new(1 << 19);
        let mut alloc = BuddyAllocator::new(1 << 19);
        let base = VirtAddr::new(1 << 30);
        let span: u64 = 32 << 20;

        let mut guest_pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        if guest_identity {
            guest_pt
                .map_identity_pe(&mut mem, &mut alloc, base, span, Permission::ReadWrite)
                .unwrap();
        } else {
            guest_pt
                .map_identity_leaves(
                    &mut mem,
                    &mut alloc,
                    base,
                    span,
                    Permission::ReadWrite,
                    PageSize::Size4K,
                )
                .unwrap();
        }

        let mut host_pt = PageTable::new(&mut mem, &mut alloc).unwrap();
        // The host table must also map the guest's table frames (low
        // memory) so 2D walks can translate guest-table pointers.
        host_pt
            .map_identity_pe(
                &mut mem,
                &mut alloc,
                VirtAddr::new(0),
                64 << 20,
                Permission::ReadWrite,
            )
            .unwrap();
        if host_identity {
            host_pt
                .map_identity_pe(&mut mem, &mut alloc, base, span, Permission::ReadWrite)
                .unwrap();
        } else {
            host_pt
                .map_identity_leaves(
                    &mut mem,
                    &mut alloc,
                    base,
                    span,
                    Permission::ReadWrite,
                    host_leaf,
                )
                .unwrap();
        }
        (mem, Dram::new(DramConfig::default()), guest_pt, host_pt)
    }

    fn reads_for(scheme: NestedScheme, guest_identity: bool, host_identity: bool) -> u32 {
        let (mem, mut dram, guest_pt, host_pt) =
            rig(guest_identity, host_identity, PageSize::Size4K);
        let mut walker = NestedWalker::new(scheme);
        let t = walker
            .translate(
                VirtAddr::new((1 << 30) + 0x5000),
                &guest_pt,
                &host_pt,
                &mem,
                &mut dram,
            )
            .unwrap();
        assert_eq!(t.spa, PhysAddr::new((1 << 30) + 0x5000), "{scheme}");
        t.entry_reads
    }

    #[test]
    fn dimensionality_ordering() {
        let two_d = reads_for(NestedScheme::TwoDimensional, false, false);
        let host = reads_for(NestedScheme::HostDvm, false, true);
        let guest = reads_for(NestedScheme::GuestDvm, true, false);
        let full = reads_for(NestedScheme::FullDvm, true, true);
        // 2D: 4 guest steps, each preceded by a host walk, plus the final
        // host walk — far more than any 1D scheme.
        assert!(two_d > host + 4, "2D {two_d} vs host-DVM {host}");
        assert!(two_d > guest + 4, "2D {two_d} vs guest-DVM {guest}");
        assert!(full <= host.min(guest), "full-DVM cheapest: {full}");
        // Full DVM is validation only: a couple of PE reads per dimension.
        assert!(full <= 6, "full {full}");
    }

    #[test]
    fn two_d_blowup_is_quadratic_ish() {
        // 4 guest levels x (up to 3 host PE steps) + 4 guest reads + final
        // host walk: comfortably over 16 entry reads with leaf tables on
        // both dimensions (the paper cites up to 24 for 4x4 nested paging).
        let two_d = reads_for(NestedScheme::TwoDimensional, false, false);
        assert!(two_d >= 16, "2D read count {two_d}");
    }

    #[test]
    fn caching_collapses_repeat_translations() {
        let (mem, mut dram, guest_pt, host_pt) = rig(true, true, PageSize::Size4K);
        let mut walker = NestedWalker::new(NestedScheme::FullDvm);
        let gva = VirtAddr::new((1 << 30) + 0x2000);
        let cold = walker
            .translate(gva, &guest_pt, &host_pt, &mem, &mut dram)
            .unwrap();
        let warm = walker
            .translate(gva, &guest_pt, &host_pt, &mem, &mut dram)
            .unwrap();
        assert!(cold.mem_refs > 0);
        assert_eq!(warm.mem_refs, 0, "AVC absorbs repeat validations");
        assert_eq!(warm.stall, 0);
    }

    #[test]
    fn unmapped_guest_address_faults() {
        let (mem, mut dram, guest_pt, host_pt) = rig(true, true, PageSize::Size4K);
        let mut walker = NestedWalker::new(NestedScheme::FullDvm);
        let fault = walker
            .translate(VirtAddr::new(1 << 40), &guest_pt, &host_pt, &mem, &mut dram)
            .unwrap_err();
        assert_eq!(fault.kind, FaultKind::NotMapped);
    }

    const GUEST_SPAN: u64 = 16 << 20;

    /// One rig per scheme, in [`NestedScheme::ALL`] order: each scheme
    /// walks PE tables in the dimensions it devirtualizes and leaves (2M
    /// in the host) in the others. Walks never modify a rig, so a case
    /// only needs a fresh walker and DRAM to start cold.
    fn scheme_rigs() -> Vec<(NestedScheme, PhysMem, PageTable, PageTable)> {
        NestedScheme::ALL
            .into_iter()
            .map(|scheme| {
                let guest = matches!(scheme, NestedScheme::GuestDvm | NestedScheme::FullDvm);
                let host = matches!(scheme, NestedScheme::HostDvm | NestedScheme::FullDvm);
                let (mem, _, guest_pt, host_pt) = rig(guest, host, PageSize::Size2M);
                (scheme, mem, guest_pt, host_pt)
            })
            .collect()
    }

    /// 32 seeded sets of 1..40 guest addresses: the rigs are identity
    /// end to end, so every scheme must resolve gVA -> sPA == gVA.
    #[test]
    fn all_schemes_agree_on_the_final_spa() {
        let rigs = scheme_rigs();
        for seed in 0..32u64 {
            let mut rng = DetRng::new(seed);
            let offsets: Vec<u64> = (0..rng.range(1, 40))
                .map(|_| rng.below(GUEST_SPAN) & !63)
                .collect();
            for (scheme, mem, guest_pt, host_pt) in &rigs {
                let mut walker = NestedWalker::new(*scheme);
                let mut dram = Dram::new(DramConfig::default());
                for (i, &off) in offsets.iter().enumerate() {
                    let gva = VirtAddr::new((1 << 30) + off);
                    let t = walker
                        .translate(gva, guest_pt, host_pt, mem, &mut dram)
                        .unwrap_or_else(|f| panic!("seed {seed} address {i}: {f:?}"));
                    assert_eq!(
                        t.spa.raw(),
                        gva.raw(),
                        "seed {seed} address {i}: {scheme} at {:#x}",
                        gva.raw()
                    );
                }
            }
        }
    }

    /// 32 seeded guest addresses, each translated cold by every scheme:
    /// 2D reads more entries than either 1D scheme, and full DVM reads
    /// no more than either.
    #[test]
    fn cost_ordering_holds_pointwise() {
        let rigs = scheme_rigs();
        for seed in 0..32u64 {
            let gva = VirtAddr::new((1 << 30) + (DetRng::new(seed).below(GUEST_SPAN) & !63));
            // [TwoDimensional, HostDvm, GuestDvm, FullDvm]
            let reads: Vec<u32> = rigs
                .iter()
                .map(|(scheme, mem, guest_pt, host_pt)| {
                    let mut dram = Dram::new(DramConfig::default());
                    NestedWalker::new(*scheme)
                        .translate(gva, guest_pt, host_pt, mem, &mut dram)
                        .unwrap_or_else(|f| panic!("seed {seed}: {scheme}: {f:?}"))
                        .entry_reads
                })
                .collect();
            let ctx = format!("seed {seed} at {:#x}: reads {reads:?}", gva.raw());
            assert!(reads[0] > reads[1], "{ctx}: 2D vs host-DVM");
            assert!(reads[0] > reads[2], "{ctx}: 2D vs guest-DVM");
            assert!(reads[3] <= reads[1].min(reads[2]), "{ctx}: full-DVM");
        }
    }

    /// 32 seeded runs of 1..30 full-DVM translations: the walker's
    /// counters equal the per-translation sums.
    #[test]
    fn stats_accumulate_consistently() {
        let (mem, mut dram, guest_pt, host_pt) = rig(true, true, PageSize::Size2M);
        for seed in 0..32u64 {
            let n = DetRng::new(seed).range(1, 30);
            let mut walker = NestedWalker::new(NestedScheme::FullDvm);
            let mut total_reads = 0u64;
            for i in 0..n {
                let gva = VirtAddr::new((1 << 30) + (i * 8192) % GUEST_SPAN);
                let t = walker
                    .translate(gva, &guest_pt, &host_pt, &mem, &mut dram)
                    .unwrap_or_else(|f| panic!("seed {seed} translation {i}: {f:?}"));
                total_reads += u64::from(t.entry_reads);
            }
            assert_eq!(walker.stats.translations.get(), n, "seed {seed}");
            assert_eq!(walker.stats.entry_reads.get(), total_reads, "seed {seed}");
            assert!(walker.stats.mem_refs.get() <= total_reads, "seed {seed}");
        }
    }
}
