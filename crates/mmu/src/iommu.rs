//! The IOMMU driver: structure bring-up, statistics, energy accounting
//! and the shared page-walker, with per-access behaviour delegated to
//! the configured [`TranslationScheme`]. The scheme implementations —
//! the paper's seven configurations plus the two SVA rivals — live in
//! [`crate::scheme`].

use crate::memo::WalkMemo;
use crate::ptcache::{PtCache, PtcLookup};
use crate::scheme::{SchemeDispatch, SchemeId, TranslationScheme};
use crate::tlb::{Associativity, Tlb};
use dvm_energy::{EnergyAccount, EnergyParams, MmEvent};
use dvm_mem::{Dram, PhysMem};
use dvm_pagetable::{PageTable, PermBitmap, Walk};
use dvm_sim::{Counter, Cycles, RatioStat};
use dvm_types::{AccessKind, Fault, FaultKind, Permission, PhysAddr, VirtAddr};

/// Outcome of translation / access validation for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validation {
    /// Physical address to access.
    pub pa: PhysAddr,
    /// Cycles spent in translation / validation.
    pub latency: Cycles,
    /// `true` if the data fetch may proceed in parallel with validation
    /// (DVM-PE+ reads whose prediction PA==VA was correct).
    pub overlap: bool,
    /// `true` if a preload was launched and squashed (mispredict): the
    /// wasted DRAM transaction has been charged to the energy account and
    /// the caller should count the extra DRAM traffic.
    pub squashed_preload: bool,
}

impl Validation {
    /// A validation the data access waits for: no preload overlapped it
    /// or was squashed.
    #[inline]
    pub(crate) fn serial(pa: PhysAddr, latency: Cycles) -> Self {
        Self {
            pa,
            latency,
            overlap: false,
            squashed_preload: false,
        }
    }
}

/// Event counters exposed by the IOMMU.
#[derive(Debug, Clone)]
pub struct IommuStats {
    /// Total accesses validated/translated.
    pub accesses: Counter,
    /// Page-table walks performed.
    pub walks: Counter,
    /// DRAM accesses issued by the walker (and bitmap fetches).
    pub walk_mem_refs: Counter,
    /// Accesses validated as identity (DAV fast path).
    pub identity_validations: Counter,
    /// Accesses that needed a conventional translation under DVM.
    pub fallback_translations: Counter,
    /// DVM-PE+ reads whose preload overlapped successfully.
    pub preload_overlaps: Counter,
    /// DVM-PE+ preloads squashed on mispredict.
    pub preload_squashes: Counter,
    /// Faults raised to the host CPU.
    pub faults: Counter,
    /// Total cycles the shared page-walker / DAV engine was busy
    /// (probes + memory fetches). The accelerator model treats the walker
    /// as a shared resource with a configurable number of ports.
    pub walker_busy: Counter,
    /// Background TLB prefetches launched (SVA-Pf-style schemes).
    pub tlb_prefetches: Counter,
}

impl IommuStats {
    fn new() -> Self {
        Self {
            accesses: Counter::new("accesses"),
            walks: Counter::new("walks"),
            walk_mem_refs: Counter::new("walk_mem_refs"),
            identity_validations: Counter::new("identity_validations"),
            fallback_translations: Counter::new("fallback_translations"),
            preload_overlaps: Counter::new("preload_overlaps"),
            preload_squashes: Counter::new("preload_squashes"),
            faults: Counter::new("faults"),
            walker_busy: Counter::new("walker_busy"),
            tlb_prefetches: Counter::new("tlb_prefetches"),
        }
    }

    fn reset(&mut self) {
        self.accesses.reset();
        self.walks.reset();
        self.walk_mem_refs.reset();
        self.identity_validations.reset();
        self.fallback_translations.reset();
        self.preload_overlaps.reset();
        self.preload_squashes.reset();
        self.faults.reset();
        self.walker_busy.reset();
        self.tlb_prefetches.reset();
    }
}

/// Borrowed system state a scheme translates against: the process page
/// table, the optional flat permission bitmap, physical memory and the
/// DRAM timing model.
pub struct AccessCtx<'a> {
    /// Process page table.
    pub pt: &'a PageTable,
    /// Flat permission bitmap, if the OS maintains one.
    pub bitmap: Option<&'a PermBitmap>,
    /// Physical memory (for bitmap reads and functional walks).
    pub mem: &'a PhysMem,
    /// DRAM timing model; walker fetches go through it.
    pub dram: &'a mut Dram,
}

/// The IOMMU servicing accelerator memory accesses (paper Figure 1).
///
/// Holds the structures the configured scheme asked for plus all mutable
/// per-run state; the scheme object itself is stateless and shared.
#[derive(Debug, Clone)]
pub struct Iommu {
    config: SchemeId,
    scheme: &'static dyn TranslationScheme,
    /// Translation (or fallback) TLB, if the scheme configured one.
    pub tlb: Option<Tlb>,
    /// Page-walk cache / AVC, if configured.
    pub ptc: Option<PtCache>,
    /// Bitmap cache (DVM-BM-style schemes), if configured.
    pub bitmap_cache: Option<PtCache>,
    walk_memo: WalkMemo,
    /// The VPN the last next-page TLB prefetch walked (SVA-Pf).
    pub(crate) last_prefetch_vpn: Option<u64>,
    /// Whether the walker holds the device context (SVA-IOMMU).
    pub(crate) context_cached: bool,
    /// Dynamic-energy account for MM events.
    pub energy: EnergyAccount,
    /// Event counters.
    pub stats: IommuStats,
}

impl Iommu {
    /// Build an IOMMU for the given scheme, instantiating the structures
    /// the scheme asks for (Table 2 sizes for the paper set).
    pub fn new(config: SchemeId, energy_params: EnergyParams) -> Self {
        let scheme = config.scheme();
        let structures = scheme.structures();
        Self {
            config,
            scheme,
            tlb: structures.tlb.map(Tlb::new),
            ptc: structures.ptc.map(PtCache::new),
            bitmap_cache: structures.bitmap_cache.map(PtCache::new),
            walk_memo: WalkMemo::new(),
            last_prefetch_vpn: None,
            context_cached: false,
            energy: EnergyAccount::new(energy_params),
            stats: IommuStats::new(),
        }
    }

    /// Enable or disable memoization of timed walks (enabled by default;
    /// equivalence tests disable it to compare against direct walks).
    pub fn set_walk_memo(&mut self, enabled: bool) {
        self.walk_memo.set_enabled(enabled);
    }

    /// The configured scheme.
    pub fn config(&self) -> SchemeId {
        self.config
    }

    /// The scheme object driving this IOMMU.
    pub fn scheme(&self) -> &'static dyn TranslationScheme {
        self.scheme
    }

    /// Translation TLB statistics, if this configuration has a TLB.
    pub fn tlb_stats(&self) -> Option<&RatioStat> {
        self.tlb.as_ref().map(|t| t.stats())
    }

    /// PWC/AVC statistics, if present.
    pub fn ptc_stats(&self) -> Option<&RatioStat> {
        self.ptc.as_ref().map(|c| c.stats())
    }

    /// Bitmap-cache statistics (DVM-BM only).
    pub fn bitmap_cache_stats(&self) -> Option<&RatioStat> {
        self.bitmap_cache.as_ref().map(|c| c.stats())
    }

    /// Reset all statistics and energy counts (cached state is kept).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.energy.reset();
        if let Some(t) = &mut self.tlb {
            t.reset_stats();
        }
        if let Some(c) = &mut self.ptc {
            c.reset_stats();
        }
        if let Some(b) = &mut self.bitmap_cache {
            b.reset_stats();
        }
    }

    /// Flush all cached translation state (context switch), including the
    /// prefetch history and the cached device context.
    pub fn flush(&mut self) {
        if let Some(t) = &mut self.tlb {
            t.flush();
        }
        if let Some(c) = &mut self.ptc {
            c.flush();
        }
        if let Some(b) = &mut self.bitmap_cache {
            b.flush();
        }
        self.last_prefetch_vpn = None;
        self.context_cached = false;
    }

    /// Validate/translate one access by dispatching into the configured
    /// scheme.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] the IOMMU would raise on the host CPU when the
    /// access is to unmapped memory or lacks permissions.
    pub fn access(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        pt: &PageTable,
        bitmap: Option<&PermBitmap>,
        mem: &PhysMem,
        dram: &mut Dram,
    ) -> Result<Validation, Fault> {
        self.access_via::<crate::scheme::dispatch::Dyn>(va, kind, pt, bitmap, mem, dram)
    }

    /// [`access`](Self::access) with the dispatch chosen at compile time:
    /// `D` must stand for the same scheme this IOMMU was built for (the
    /// default [`dispatch::Dyn`](crate::scheme::dispatch::Dyn) always
    /// does). The sweep engine uses the static tokens to monomorphize the
    /// hot per-access path.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] the IOMMU would raise on the host CPU when the
    /// access is to unmapped memory or lacks permissions.
    #[inline]
    pub fn access_via<D: SchemeDispatch>(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        pt: &PageTable,
        bitmap: Option<&PermBitmap>,
        mem: &PhysMem,
        dram: &mut Dram,
    ) -> Result<Validation, Fault> {
        self.stats.accesses.inc();
        let mut ctx = AccessCtx {
            pt,
            bitmap,
            mem,
            dram,
        };
        D::access(self, &mut ctx, va, kind)
    }

    /// The energy event a probe of this IOMMU's TLB costs (CAMs are an
    /// order of magnitude more expensive than set-associative arrays).
    #[inline]
    pub fn tlb_energy_event(&self) -> MmEvent {
        match self.tlb.as_ref().map(|t| t.config().assoc) {
            Some(Associativity::Full) => MmEvent::FaTlbLookup,
            _ => MmEvent::SaTlbLookup,
        }
    }

    /// Count and construct a fault.
    #[inline]
    pub fn fault(&mut self, va: VirtAddr, kind: AccessKind, fk: FaultKind) -> Fault {
        self.stats.faults.inc();
        Fault {
            va,
            access: kind,
            kind: fk,
        }
    }

    /// Check permissions, counting and raising a fault on violation.
    ///
    /// # Errors
    ///
    /// `NotMapped` if the permissions are absent, `Protection` if they
    /// do not allow `kind`.
    #[inline]
    pub fn check(
        &mut self,
        perms: Permission,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<(), Fault> {
        if !perms.is_mapped() {
            return Err(self.fault(va, kind, FaultKind::NotMapped));
        }
        if !perms.allows(kind) {
            return Err(self.fault(va, kind, FaultKind::Protection));
        }
        Ok(())
    }

    /// Replay a functional walk through the PWC/AVC. Cache probes are
    /// pipelined in the walker (back-to-back walks stream through them),
    /// so the returned stall latency counts only the memory fetches; the
    /// per-probe cycles are charged to the shared walker's occupancy.
    #[inline]
    pub fn timed_walk(&mut self, ctx: &mut AccessCtx<'_>, va: VirtAddr) -> (Walk, Cycles) {
        self.stats.walks.inc();
        let walk = self.walk_memo.walk(ctx.pt, ctx.mem, va);
        let mut stall: Cycles = 0;
        let mut busy: Cycles = 0;
        for step in walk.steps() {
            let lookup = match &mut self.ptc {
                Some(ptc) => ptc.access(step.pte_pa, step.level),
                None => PtcLookup::Bypass,
            };
            if lookup != PtcLookup::Bypass {
                busy += 1;
                self.energy.record(MmEvent::PtcLookup);
            }
            if lookup != PtcLookup::Hit {
                let fetch = self.walker_fetch(ctx.dram, step.pte_pa);
                stall += fetch;
                busy += fetch;
            }
        }
        self.stats.walker_busy.add(busy);
        (walk, stall)
    }

    /// One walker read from DRAM: a page-table entry, a bitmap block or
    /// the device context. Returns its latency; the caller charges it to
    /// the walker's occupancy.
    #[inline]
    pub(crate) fn walker_fetch(&mut self, dram: &mut Dram, pa: PhysAddr) -> Cycles {
        let fetch = dram.access(pa, AccessKind::Read);
        self.energy.record(MmEvent::WalkerDram);
        self.stats.walk_mem_refs.inc();
        fetch
    }
}
