//! Translation schemes and the scheme registry.
//!
//! The paper's seven configurations (Figure 8) are implementations of
//! [`TranslationScheme`], listed in one static table next to two rival
//! shared-virtual-addressing designs from the literature. Each scheme
//! owns its display name, the leaf page size the OS must map for it, its
//! hardware structures (TLB / page-walk cache / bitmap cache), and the
//! per-access validate/translate path;
//! [`Iommu`] is a thin driver that dispatches into the
//! scheme. A [`SchemeId`] is a cheap copyable index into that table —
//! the currency every layer above `dvm-mmu` trades in.
//!
//! | name | structures | behaviour |
//! |---|---|---|
//! | `4K/2M/1G,TLB+PWC` | 128-entry FA TLB + 1 KiB PWC | translate, then access |
//! | `DVM-BM` | 128-entry bitmap cache + flat bitmap + FA TLB fallback | 1-step DAV; full translation on `00` |
//! | `DVM-PE` | 1 KiB AVC only | PE page-walk validation, then access |
//! | `DVM-PE+` | 1 KiB AVC | like DVM-PE, but reads overlap DAV with a preload |
//! | `Ideal` | none | direct physical access |
//! | `SVA-Pf` | 128-entry FA TLB + 1 KiB PWC | 4K, plus a next-page TLB prefetch (Kurth et al.) |
//! | `SVA-IOMMU` | 64-entry 8-way TLB + 1 KiB PWC | 4K, plus a one-time device-context fetch (Koenig et al.) |
//!
//! The three conventional baselines and both SVA rivals are one
//! mechanism — TLB probe, walk on a miss, fill — so they are five rows
//! of one struct whose fields say what each row adds. DVM-BM's `00`
//! fallback reuses the same TLB-hit and walk-outcome helpers.
//!
//! The table is closed: a new scheme is added in this file (DESIGN.md,
//! "Adding a translation scheme"). Every bench binary and the committed
//! goldens name schemes by this table, so a scheme registered at runtime
//! by one binary would be unknown to every other and to the goldens.

use crate::iommu::{AccessCtx, Iommu, Validation};
use crate::ptcache::{PtCacheConfig, PtcLookup};
use crate::tlb::{Associativity, TlbConfig, TlbEntry};
use core::fmt;
use dvm_energy::MmEvent;
use dvm_pagetable::{WalkOutcome, VA_LIMIT};
use dvm_sim::Cycles;
use dvm_types::{AccessKind, Fault, FaultKind, PageSize, PhysAddr, VirtAddr};

/// Hardware structures a scheme asks the [`Iommu`] to instantiate.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeStructures {
    /// Translation (or fallback) TLB.
    pub tlb: Option<TlbConfig>,
    /// Page-walk cache / access-validation cache.
    pub ptc: Option<PtCacheConfig>,
    /// DVM-BM-style bitmap cache.
    pub bitmap_cache: Option<PtCacheConfig>,
}

/// One memory-management scheme of the registry.
///
/// Implementations are stateless: all mutable per-run state (TLB, caches,
/// prefetch history, cached context, statistics, energy) lives in the
/// [`Iommu`] handed to [`access`](Self::access). That keeps every scheme
/// a plain `&'static` object shared by every concurrent sweep unit.
pub trait TranslationScheme: fmt::Debug + Send + Sync {
    /// Display name; unique within the registry (used by CLI filters and
    /// result documents).
    fn name(&self) -> &'static str;

    /// Page size the OS should use when building page tables for this
    /// scheme (`None` means DVM-style PE tables — or no table at all).
    fn required_leaf_size(&self) -> Option<PageSize> {
        None
    }

    /// Whether the OS must maintain the flat permission bitmap.
    fn needs_bitmap(&self) -> bool {
        false
    }

    /// Physical-memory size the experiment harness should provision for a
    /// graph heap of the given size (rounded up to whole GiB by the
    /// caller). The default gives 1.5x headroom; schemes with coarse
    /// mappings can ask for more.
    fn machine_bytes_hint(&self, graph_heap_bytes: u64) -> u64 {
        (graph_heap_bytes * 3 / 2).max(1 << 30)
    }

    /// Structures the IOMMU should build for this scheme (Table 2 sizes
    /// for the paper set).
    fn structures(&self) -> SchemeStructures;

    /// Validate/translate one access. `iommu` holds the structures built
    /// from [`structures`](Self::structures) plus stats, energy and the
    /// walker's per-context state; `ctx` carries the page table, optional
    /// bitmap and the DRAM model.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] the IOMMU would raise on the host CPU when
    /// the access is to unmapped memory or lacks permissions.
    fn access(
        &self,
        iommu: &mut Iommu,
        ctx: &mut AccessCtx<'_>,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault>;
}

/// Handle to one of the builtin [`TranslationScheme`]s.
///
/// Prints and parses as the scheme's registry name; the numeric index is
/// an implementation detail (CLI filters and result documents only ever
/// see the name, so table order can never alias stored results).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeId(u16);

impl SchemeId {
    /// Conventional 4 KiB paging (`4K,TLB+PWC`).
    pub const CONV_4K: SchemeId = SchemeId(0);
    /// Conventional 2 MiB paging (`2M,TLB+PWC`).
    pub const CONV_2M: SchemeId = SchemeId(1);
    /// Conventional 1 GiB paging (`1G,TLB+PWC`).
    pub const CONV_1G: SchemeId = SchemeId(2);
    /// DVM with the flat permission bitmap (`DVM-BM`).
    pub const DVM_BM: SchemeId = SchemeId(3);
    /// DVM with Permission Entries and the AVC (`DVM-PE`).
    pub const DVM_PE: SchemeId = SchemeId(4);
    /// DVM-PE with the read preload overlap (`DVM-PE+`).
    pub const DVM_PE_PLUS: SchemeId = SchemeId(5);
    /// Direct physical access without translation (`Ideal`).
    pub const IDEAL: SchemeId = SchemeId(6);
    /// 4K SVA with next-page TLB prefetching (`SVA-Pf`, Kurth et al.).
    pub const SVA_PF: SchemeId = SchemeId(7);
    /// RISC-V-style IOMMU SVA (`SVA-IOMMU`, Koenig et al.).
    pub const SVA_IOMMU: SchemeId = SchemeId(8);

    /// The seven configurations evaluated in Figures 8 and 9, in the
    /// paper's order.
    pub const PAPER_SET: [SchemeId; 7] = [
        SchemeId::CONV_4K,
        SchemeId::CONV_2M,
        SchemeId::CONV_1G,
        SchemeId::DVM_BM,
        SchemeId::DVM_PE,
        SchemeId::DVM_PE_PLUS,
        SchemeId::IDEAL,
    ];

    /// The conventional scheme for a page size.
    pub fn conventional(page_size: PageSize) -> SchemeId {
        match page_size {
            PageSize::Size4K => SchemeId::CONV_4K,
            PageSize::Size2M => SchemeId::CONV_2M,
            PageSize::Size1G => SchemeId::CONV_1G,
        }
    }

    /// The scheme object behind this id.
    pub fn scheme(self) -> &'static dyn TranslationScheme {
        BUILTINS[self.0 as usize]
    }

    /// The scheme's registry (display) name.
    pub fn name(self) -> &'static str {
        self.scheme().name()
    }

    /// See [`TranslationScheme::required_leaf_size`].
    pub fn required_leaf_size(self) -> Option<PageSize> {
        self.scheme().required_leaf_size()
    }

    /// See [`TranslationScheme::needs_bitmap`].
    pub fn needs_bitmap(self) -> bool {
        self.scheme().needs_bitmap()
    }

    /// Every scheme, in table order.
    pub fn all() -> Vec<SchemeId> {
        (0..BUILTINS.len() as u16).map(SchemeId).collect()
    }

    /// Every scheme name, in table order.
    pub fn registered_names() -> Vec<&'static str> {
        BUILTINS.iter().map(|s| s.name()).collect()
    }

    /// Resolve a scheme name. Matching folds case and treats `-` as
    /// equivalent to `,` (so the comma-separated `--schemes` CLI list can
    /// spell `4K,TLB+PWC` as `4K-TLB+PWC`); an unambiguous prefix ending
    /// at a separator also resolves (`4K` -> `4K,TLB+PWC`).
    pub fn parse(text: &str) -> Option<SchemeId> {
        fn canon(s: &str) -> String {
            s.chars()
                .map(|c| match c {
                    ',' => '-',
                    c => c.to_ascii_lowercase(),
                })
                .collect()
        }
        let want = canon(text);
        if want.is_empty() {
            return None;
        }
        let names: Vec<String> = BUILTINS.iter().map(|s| canon(s.name())).collect();
        if let Some(i) = names.iter().position(|n| *n == want) {
            return Some(SchemeId(i as u16));
        }
        let prefix = format!("{want}-");
        let mut hits = names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.starts_with(&prefix));
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Some(SchemeId(i as u16)),
            _ => None,
        }
    }
}

impl fmt::Debug for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

static CONV_4K_SCHEME: TlbScheme = TlbScheme::conventional("4K,TLB+PWC", PageSize::Size4K);
static CONV_2M_SCHEME: TlbScheme = TlbScheme::conventional("2M,TLB+PWC", PageSize::Size2M);
static CONV_1G_SCHEME: TlbScheme = TlbScheme::conventional("1G,TLB+PWC", PageSize::Size1G);
static DVM_BM_SCHEME: DvmBitmap = DvmBitmap;
static DVM_PE_SCHEME: DvmPe = DvmPe { preload: false };
static DVM_PE_PLUS_SCHEME: DvmPe = DvmPe { preload: true };
static IDEAL_SCHEME: Ideal = Ideal;
/// Kurth et al., "Scalable Shared Virtual Memory Addressing for
/// Heterogeneous SoCs" (arXiv 1808.09751): 4K SVA whose walker, on a
/// demand TLB miss, also resolves the next virtual page in the
/// background, so streaming DMA hides most of its translation stalls.
static SVA_PF_SCHEME: TlbScheme = TlbScheme {
    next_page_prefetch: true,
    ..TlbScheme::conventional("SVA-Pf", PageSize::Size4K)
};
/// RISC-V-style SVA through a standards-track IOMMU, after Koenig et
/// al.'s IOMMU work (arXiv 2502.17398): the spec's reference IOTLB is
/// set-associative and smaller than the paper's 128-entry CAM, and the
/// first walk of a context fetches the device-directory entry binding
/// the device to the process address space.
static SVA_IOMMU_SCHEME: TlbScheme = TlbScheme {
    tlb: TlbConfig {
        entries: 64,
        assoc: Associativity::SetAssociative { ways: 8 },
        page_size: PageSize::Size4K,
    },
    context_fetch: true,
    ..TlbScheme::conventional("SVA-IOMMU", PageSize::Size4K)
};

/// The registry: every scheme, indexed by [`SchemeId`].
static BUILTINS: [&dyn TranslationScheme; 9] = [
    &CONV_4K_SCHEME,
    &CONV_2M_SCHEME,
    &CONV_1G_SCHEME,
    &DVM_BM_SCHEME,
    &DVM_PE_SCHEME,
    &DVM_PE_PLUS_SCHEME,
    &IDEAL_SCHEME,
    &SVA_PF_SCHEME,
    &SVA_IOMMU_SCHEME,
];

/// Statically resolved per-access dispatch.
///
/// Every access the accelerator issues crosses the
/// [`TranslationScheme::access`] boundary; through the registry that is a
/// virtual call the compiler cannot inline, which leaves the whole
/// translate-validate-charge chain opaque to the optimizer. A
/// `SchemeDispatch` implementor is a zero-sized token that routes the
/// call to one concrete builtin scheme *statically* — same code, same
/// state, same counters, but monomorphized so page sizes constant-fold
/// and the TLB/walker fast paths inline into the workload loops.
///
/// [`dispatch::Dyn`] preserves the registry-driven virtual call and is
/// the default everywhere. The sweep engine picks the matching static
/// token for each scheme (see `dvm-core`).
pub trait SchemeDispatch: Copy + Send + Sync + 'static {
    /// Validate/translate one access exactly as the scheme the token
    /// stands for would.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] the scheme raises for unmapped or
    /// permission-violating accesses.
    fn access(
        iommu: &mut Iommu,
        ctx: &mut AccessCtx<'_>,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault>;
}

/// Zero-sized dispatch tokens: one per scheme plus the dynamic
/// fallback. See [`SchemeDispatch`].
pub mod dispatch {
    use super::*;

    /// Registry-driven virtual dispatch (works for every scheme).
    #[derive(Debug, Clone, Copy)]
    pub struct Dyn;

    impl SchemeDispatch for Dyn {
        #[inline]
        fn access(
            iommu: &mut Iommu,
            ctx: &mut AccessCtx<'_>,
            va: VirtAddr,
            kind: AccessKind,
        ) -> Result<Validation, Fault> {
            iommu.scheme().access(iommu, ctx, va, kind)
        }
    }

    macro_rules! static_tokens {
        ($($(#[$doc:meta])* $name:ident => $scheme:ident;)*) => {$(
            $(#[$doc])*
            #[derive(Debug, Clone, Copy)]
            pub struct $name;

            impl SchemeDispatch for $name {
                #[inline]
                fn access(
                    iommu: &mut Iommu,
                    ctx: &mut AccessCtx<'_>,
                    va: VirtAddr,
                    kind: AccessKind,
                ) -> Result<Validation, Fault> {
                    $scheme.access(iommu, ctx, va, kind)
                }
            }
        )*};
    }

    static_tokens! {
        /// `4K,TLB+PWC`.
        Conv4K => CONV_4K_SCHEME;
        /// `2M,TLB+PWC`.
        Conv2M => CONV_2M_SCHEME;
        /// `1G,TLB+PWC`.
        Conv1G => CONV_1G_SCHEME;
        /// `DVM-BM`.
        DvmBm => DVM_BM_SCHEME;
        /// `DVM-PE`.
        DvmPe => DVM_PE_SCHEME;
        /// `DVM-PE+`.
        DvmPePlus => DVM_PE_PLUS_SCHEME;
        /// `Ideal`.
        Ideal => IDEAL_SCHEME;
        /// `SVA-Pf`.
        SvaPf => SVA_PF_SCHEME;
        /// `SVA-IOMMU`.
        SvaIommu => SVA_IOMMU_SCHEME;
    }
}

/// A TLB in front of a 1 KiB PWC at one uniform page size: the three
/// conventional baselines and both SVA rivals. Each field is a per-row
/// constant of the registry table, not a user option.
#[derive(Debug)]
struct TlbScheme {
    name: &'static str,
    /// The TLB; its page size is the leaf size the OS maps.
    tlb: TlbConfig,
    /// After a demand walk that found a leaf, walk the next page in the
    /// background and fill the TLB with it (SVA-Pf). The prefetch walk's
    /// memory traffic and energy are charged, but the demand access does
    /// not stall on it.
    next_page_prefetch: bool,
    /// Fetch the device context from memory before the first walk after
    /// construction or a flush (SVA-IOMMU).
    context_fetch: bool,
}

impl TlbScheme {
    /// Conventional paging with the paper's 128-entry FA TLB.
    const fn conventional(name: &'static str, page_size: PageSize) -> Self {
        Self {
            name,
            tlb: TlbConfig::paper_accelerator(page_size),
            next_page_prefetch: false,
            context_fetch: false,
        }
    }

    /// Background next-page prefetch. The IOMMU remembers the last
    /// prefetched VPN, filtering repeated prefetches of the same page on
    /// clustered misses.
    #[inline]
    fn prefetch_next(&self, iommu: &mut Iommu, ctx: &mut AccessCtx<'_>, va: VirtAddr) {
        let page = self.tlb.page_size;
        let Some(next) = va.raw().checked_add(page.bytes()) else {
            return;
        };
        if next >= VA_LIMIT {
            return;
        }
        let next = VirtAddr::new(next);
        let vpn = next.vpn(page);
        if iommu.last_prefetch_vpn == Some(vpn) {
            return;
        }
        iommu.last_prefetch_vpn = Some(vpn);
        iommu.stats.tlb_prefetches.inc();
        // The walk is charged (walker occupancy, PWC probes, DRAM
        // fetches) but its stall is discarded: it runs behind the
        // demand access. Faults are dropped — a prefetch must never
        // raise one.
        let (walk, _stall) = iommu.timed_walk(ctx, next);
        if let WalkOutcome::Leaf {
            pa,
            perms,
            page: leaf,
        } = walk.outcome
        {
            if leaf == page {
                iommu
                    .tlb
                    .as_mut()
                    .expect("TLB-backed scheme")
                    .insert(TlbEntry {
                        vpn,
                        pfn: pa.raw() >> page.shift(),
                        perms,
                    });
            }
        }
    }
}

impl TranslationScheme for TlbScheme {
    fn name(&self) -> &'static str {
        self.name
    }

    fn required_leaf_size(&self) -> Option<PageSize> {
        Some(self.tlb.page_size)
    }

    fn machine_bytes_hint(&self, graph_heap_bytes: u64) -> u64 {
        if self.tlb.page_size == PageSize::Size1G {
            // 1G pages waste most of the last gigabyte of every
            // allocation; give the buddy allocator generous headroom.
            graph_heap_bytes + (7u64 << 30)
        } else {
            (graph_heap_bytes * 3 / 2).max(1 << 30)
        }
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures {
            tlb: Some(self.tlb),
            ptc: Some(PtCacheConfig::paper_pwc()),
            bitmap_cache: None,
        }
    }

    #[inline]
    fn access(
        &self,
        iommu: &mut Iommu,
        ctx: &mut AccessCtx<'_>,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault> {
        let page = self.tlb.page_size;
        iommu.energy.record(iommu.tlb_energy_event());
        let hit = iommu.tlb.as_mut().expect("TLB-backed scheme").lookup(va);
        if let Some(entry) = hit {
            return tlb_translation(iommu, entry, va, kind, page, 1);
        }
        let mut latency = 1;
        if self.context_fetch && !iommu.context_cached {
            // Cached in the walker afterwards; flushed on context switch.
            iommu.context_cached = true;
            let fetch = iommu.walker_fetch(ctx.dram, PhysAddr::new(0));
            iommu.stats.walker_busy.add(fetch);
            latency += fetch;
        }
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let leaf = matches!(walk.outcome, WalkOutcome::Leaf { .. });
        let validation =
            walk_validation(iommu, walk.outcome, va, kind, page, latency + walk_stall)?;
        if self.next_page_prefetch && leaf {
            self.prefetch_next(iommu, ctx, va);
        }
        Ok(validation)
    }
}

/// A TLB hit: check the cached permissions and splice the page offset
/// onto the cached frame.
#[inline]
fn tlb_translation(
    iommu: &mut Iommu,
    entry: TlbEntry,
    va: VirtAddr,
    kind: AccessKind,
    page: PageSize,
    latency: Cycles,
) -> Result<Validation, Fault> {
    iommu.check(entry.perms, va, kind)?;
    let pa = PhysAddr::new((entry.pfn << page.shift()) | va.page_offset(page));
    Ok(Validation::serial(pa, latency))
}

/// The end of a TLB miss: a leaf fills the TLB, a Permission Entry
/// validates as identity (hardware that understands PEs honours them
/// even in conventional mode, and DVM-BM trusts the table over a stale
/// bitmap), and an unmapped walk faults.
#[inline]
fn walk_validation(
    iommu: &mut Iommu,
    outcome: WalkOutcome,
    va: VirtAddr,
    kind: AccessKind,
    page: PageSize,
    latency: Cycles,
) -> Result<Validation, Fault> {
    match outcome {
        WalkOutcome::Leaf {
            pa,
            perms,
            page: leaf,
        } => {
            iommu.check(perms, va, kind)?;
            debug_assert_eq!(
                leaf, page,
                "TLB-backed tables must be uniform (OS layout invariant)"
            );
            iommu
                .tlb
                .as_mut()
                .expect("TLB-backed scheme")
                .insert(TlbEntry {
                    vpn: va.vpn(page),
                    pfn: pa.raw() >> page.shift(),
                    perms,
                });
            Ok(Validation::serial(pa, latency))
        }
        WalkOutcome::PermissionEntry { perms, .. } => {
            iommu.check(perms, va, kind)?;
            iommu.stats.identity_validations.inc();
            Ok(Validation::serial(va.to_identity_pa(), latency))
        }
        WalkOutcome::NotMapped { .. } => Err(iommu.fault(va, kind, FaultKind::NotMapped)),
    }
}

/// DVM with the flat permission bitmap (Border-Control-style DAV).
#[derive(Debug)]
struct DvmBitmap;

impl TranslationScheme for DvmBitmap {
    fn name(&self) -> &'static str {
        "DVM-BM"
    }

    fn needs_bitmap(&self) -> bool {
        true
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures {
            // Fallback translation TLB, probed in parallel with the
            // bitmap cache so the 00 fallback is not serialized.
            tlb: Some(TlbConfig::paper_accelerator(PageSize::Size4K)),
            ptc: None,
            // 128-entry bitmap cache of 64 B bitmap blocks (each block
            // holds the 2-bit fields of 256 pages): the AVC's geometry.
            bitmap_cache: Some(PtCacheConfig::paper_avc()),
        }
    }

    #[inline]
    fn access(
        &self,
        iommu: &mut Iommu,
        ctx: &mut AccessCtx<'_>,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault> {
        let bitmap = ctx.bitmap.expect("DVM-BM requires a permission bitmap");
        let vpn = va.vpn(PageSize::Size4K);
        // The bitmap cache and the fallback FA TLB are probed in parallel
        // on every access (so the 00 path is not serialized); both
        // lookups burn energy every time — the reason DVM-BM saves far
        // less energy than DVM-PE (paper Figure 9).
        iommu.energy.record(MmEvent::BitmapCacheLookup);
        iommu.energy.record(iommu.tlb_energy_event());
        let tlb_hit = iommu.tlb.as_mut().expect("fallback TLB").lookup(va);
        let word_pa = bitmap.entry_pa(vpn);
        let cache = iommu
            .bitmap_cache
            .as_mut()
            .expect("DVM-BM has a bitmap cache");
        let dav_latency = match cache.access(word_pa, 2) {
            PtcLookup::Hit => 1,
            _ => {
                let fetch = iommu.walker_fetch(ctx.dram, word_pa);
                iommu.stats.walker_busy.add(fetch);
                1 + fetch
            }
        };
        let perms = bitmap.perms_of(ctx.mem, vpn);
        if perms.is_mapped() {
            // 1-step DAV success: identity access.
            if !perms.allows(kind) {
                return Err(iommu.fault(va, kind, FaultKind::Protection));
            }
            iommu.stats.identity_validations.inc();
            return Ok(Validation::serial(va.to_identity_pa(), dav_latency));
        }
        // 00: not identity mapped; full translation, expedited by the TLB
        // that was already probed in parallel.
        iommu.stats.fallback_translations.inc();
        if let Some(entry) = tlb_hit {
            return tlb_translation(iommu, entry, va, kind, PageSize::Size4K, dav_latency);
        }
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let latency = dav_latency + 1 + walk_stall;
        walk_validation(iommu, walk.outcome, va, kind, PageSize::Size4K, latency)
    }
}

/// DVM with Permission Entries and the Access Validation Cache.
#[derive(Debug)]
struct DvmPe {
    /// Allow reads to overlap DAV with a preload (DVM-PE+).
    preload: bool,
}

impl TranslationScheme for DvmPe {
    fn name(&self) -> &'static str {
        if self.preload {
            "DVM-PE+"
        } else {
            "DVM-PE"
        }
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures {
            tlb: None,
            ptc: Some(PtCacheConfig::paper_avc()),
            bitmap_cache: None,
        }
    }

    #[inline]
    fn access(
        &self,
        iommu: &mut Iommu,
        ctx: &mut AccessCtx<'_>,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<Validation, Fault> {
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let validation_latency = 1 + walk_stall;
        let predicted = self.preload && kind == AccessKind::Read;
        match walk.outcome {
            WalkOutcome::PermissionEntry { perms, .. } => {
                iommu.check(perms, va, kind).inspect_err(|_| {
                    // A predicted preload to VA==PA was launched; DAV
                    // failed, so it is squashed.
                    if predicted {
                        iommu.stats.preload_squashes.inc();
                        iommu.energy.record(MmEvent::PreloadSquash);
                    }
                })?;
                iommu.stats.identity_validations.inc();
                if predicted {
                    iommu.stats.preload_overlaps.inc();
                }
                Ok(Validation {
                    pa: va.to_identity_pa(),
                    latency: validation_latency,
                    overlap: predicted,
                    squashed_preload: false,
                })
            }
            WalkOutcome::Leaf { pa, perms, .. } => {
                // Non-identity fallback: the leaf PTE already gives the
                // translation, so the fallback costs no extra walk (§4.1.1).
                iommu.stats.fallback_translations.inc();
                let identity = pa.raw() == va.raw();
                let squashed = predicted && !identity;
                if squashed {
                    iommu.stats.preload_squashes.inc();
                    iommu.energy.record(MmEvent::PreloadSquash);
                }
                iommu.check(perms, va, kind)?;
                if predicted && identity {
                    iommu.stats.preload_overlaps.inc();
                }
                Ok(Validation {
                    pa,
                    latency: validation_latency,
                    overlap: predicted && identity,
                    squashed_preload: squashed,
                })
            }
            WalkOutcome::NotMapped { .. } => {
                if predicted {
                    iommu.stats.preload_squashes.inc();
                    iommu.energy.record(MmEvent::PreloadSquash);
                }
                Err(iommu.fault(va, kind, FaultKind::NotMapped))
            }
        }
    }
}

/// Direct physical access without translation or protection.
#[derive(Debug)]
struct Ideal;

impl TranslationScheme for Ideal {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures::default()
    }

    #[inline]
    fn access(
        &self,
        _iommu: &mut Iommu,
        _ctx: &mut AccessCtx<'_>,
        va: VirtAddr,
        _kind: AccessKind,
    ) -> Result<Validation, Fault> {
        Ok(Validation::serial(va.to_identity_pa(), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_names_are_stable() {
        let names: Vec<&str> = SchemeId::PAPER_SET.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "4K,TLB+PWC",
                "2M,TLB+PWC",
                "1G,TLB+PWC",
                "DVM-BM",
                "DVM-PE",
                "DVM-PE+",
                "Ideal"
            ]
        );
    }

    /// parse <-> Display round-trips for every registered scheme — the
    /// registry contract the CLI and result documents rely on.
    #[test]
    fn registry_round_trips_every_scheme() {
        for id in SchemeId::all() {
            let name = id.name();
            assert_eq!(SchemeId::parse(name), Some(id), "parse({name})");
            assert_eq!(format!("{id}"), name, "Display");
            assert_eq!(format!("{id:?}"), name, "Debug");
        }
    }

    #[test]
    fn parse_accepts_cli_safe_spellings() {
        // `--schemes` splits on commas, so the comma-bearing paper names
        // have dash and prefix spellings.
        assert_eq!(SchemeId::parse("4K-TLB+PWC"), Some(SchemeId::CONV_4K));
        assert_eq!(SchemeId::parse("4K"), Some(SchemeId::CONV_4K));
        assert_eq!(SchemeId::parse("2m"), Some(SchemeId::CONV_2M));
        assert_eq!(SchemeId::parse("1g"), Some(SchemeId::CONV_1G));
        assert_eq!(SchemeId::parse("dvm-pe"), Some(SchemeId::DVM_PE));
        assert_eq!(SchemeId::parse("DVM-PE+"), Some(SchemeId::DVM_PE_PLUS));
        assert_eq!(SchemeId::parse("sva-pf"), Some(SchemeId::SVA_PF));
        // Ambiguous prefix ("SVA" matches both SVA schemes) and unknown
        // names do not resolve.
        assert_eq!(SchemeId::parse("SVA"), None);
        assert_eq!(SchemeId::parse("nope"), None);
        assert_eq!(SchemeId::parse(""), None);
    }

    #[test]
    fn sva_schemes_are_registered_with_4k_leaves() {
        assert_eq!(
            SchemeId::SVA_PF.required_leaf_size(),
            Some(PageSize::Size4K)
        );
        assert_eq!(
            SchemeId::SVA_IOMMU.required_leaf_size(),
            Some(PageSize::Size4K)
        );
        assert!(!SchemeId::SVA_PF.needs_bitmap());
    }
}
