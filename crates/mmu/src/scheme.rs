//! Translation schemes and the scheme registry.
//!
//! The paper's seven configurations (Figure 8) are implementations of
//! [`TranslationScheme`], listed in one static table next to two rival
//! shared-virtual-addressing designs from the literature. Each scheme
//! owns its display name, the leaf page size the OS must map for it, its
//! hardware structures (TLB / page-walk cache / bitmap cache), and the
//! per-access validate/translate path;
//! [`Iommu`](crate::Iommu) is a thin driver that dispatches into the
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
//! | `SVA-Pf` | 128-entry FA TLB + 1 KiB PWC | 4K SVA with next-page TLB prefetch (Kurth et al.) |
//! | `SVA-IOMMU` | 64-entry 8-way TLB + 1 KiB PWC | RISC-V-style IOMMU SVA with a device-context fetch (Koenig et al.) |
//!
//! The table is closed: a new scheme is added in this file (DESIGN.md,
//! "Adding a translation scheme"). Bench binaries and farm workers are
//! separate processes, so a scheme registered at runtime by one of them
//! could never reach the others anyway.

use crate::iommu::{AccessCtx, Iommu, Validation};
use crate::ptcache::PtCacheConfig;
use crate::tlb::{Associativity, TlbConfig, TlbEntry};
use core::fmt;
use dvm_energy::MmEvent;
use dvm_pagetable::{WalkOutcome, VA_LIMIT};
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

/// One pluggable memory-management scheme.
///
/// Implementations are stateless: all mutable per-run state (TLB, caches,
/// scratch words, statistics, energy) lives in the [`Iommu`] handed to
/// [`access`](Self::access). That keeps every scheme a plain `&'static`
/// object shared by every concurrent sweep unit.
pub trait TranslationScheme: fmt::Debug + Send + Sync {
    /// Display name; unique within the registry (used by CLI filters,
    /// report-cache keys and result documents).
    fn name(&self) -> &'static str;

    /// One-line human description (shown in CLI scheme listings).
    fn describe(&self) -> &'static str;

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
    /// from [`structures`](Self::structures) plus stats, energy and
    /// scratch state; `ctx` carries the page table, optional bitmap and
    /// the DRAM model.
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
/// an implementation detail (report-cache keys and result documents only
/// ever see the name, so table order can never alias cached data).
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

static CONV_4K_SCHEME: Conventional = Conventional {
    page_size: PageSize::Size4K,
};
static CONV_2M_SCHEME: Conventional = Conventional {
    page_size: PageSize::Size2M,
};
static CONV_1G_SCHEME: Conventional = Conventional {
    page_size: PageSize::Size1G,
};
static DVM_BM_SCHEME: DvmBitmap = DvmBitmap;
static DVM_PE_SCHEME: DvmPe = DvmPe { preload: false };
static DVM_PE_PLUS_SCHEME: DvmPe = DvmPe { preload: true };
static IDEAL_SCHEME: Ideal = Ideal;
static SVA_PF_SCHEME: SvaPf = SvaPf;
static SVA_IOMMU_SCHEME: SvaIommu = SvaIommu;

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

    macro_rules! static_token {
        ($(#[$doc:meta])* $name:ident, $scheme:ident) => {
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
        };
    }

    static_token!(
        /// `4K,TLB+PWC`.
        Conv4K,
        CONV_4K_SCHEME
    );
    static_token!(
        /// `2M,TLB+PWC`.
        Conv2M,
        CONV_2M_SCHEME
    );
    static_token!(
        /// `1G,TLB+PWC`.
        Conv1G,
        CONV_1G_SCHEME
    );
    static_token!(
        /// `DVM-BM`.
        DvmBm,
        DVM_BM_SCHEME
    );
    static_token!(
        /// `DVM-PE`.
        DvmPe,
        DVM_PE_SCHEME
    );
    static_token!(
        /// `DVM-PE+`.
        DvmPePlus,
        DVM_PE_PLUS_SCHEME
    );
    static_token!(
        /// `Ideal`.
        Ideal,
        IDEAL_SCHEME
    );
    static_token!(
        /// `SVA-Pf`.
        SvaPf,
        SVA_PF_SCHEME
    );
    static_token!(
        /// `SVA-IOMMU`.
        SvaIommu,
        SVA_IOMMU_SCHEME
    );
}

/// Conventional VM: TLB + page-walk cache at a uniform page size.
#[derive(Debug)]
struct Conventional {
    page_size: PageSize,
}

impl TranslationScheme for Conventional {
    fn name(&self) -> &'static str {
        match self.page_size {
            PageSize::Size4K => "4K,TLB+PWC",
            PageSize::Size2M => "2M,TLB+PWC",
            PageSize::Size1G => "1G,TLB+PWC",
        }
    }

    fn describe(&self) -> &'static str {
        match self.page_size {
            PageSize::Size4K => "conventional 4K paging, 128-entry FA TLB + PWC",
            PageSize::Size2M => "conventional 2M paging, 128-entry FA TLB + PWC",
            PageSize::Size1G => "conventional 1G paging, 128-entry FA TLB + PWC",
        }
    }

    fn required_leaf_size(&self) -> Option<PageSize> {
        Some(self.page_size)
    }

    fn machine_bytes_hint(&self, graph_heap_bytes: u64) -> u64 {
        if self.page_size == PageSize::Size1G {
            // 1G pages waste most of the last gigabyte of every
            // allocation; give the buddy allocator generous headroom.
            graph_heap_bytes + (7u64 << 30)
        } else {
            (graph_heap_bytes * 3 / 2).max(1 << 30)
        }
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures {
            tlb: Some(TlbConfig::paper_accelerator(self.page_size)),
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
        let page_size = self.page_size;
        iommu.energy.record(iommu.tlb_energy_event());
        let hit = iommu.tlb.as_mut().expect("conventional has TLB").lookup(va);
        if let Some(entry) = hit {
            iommu.check(entry.perms, va, kind)?;
            let pa = PhysAddr::new((entry.pfn << page_size.shift()) | va.page_offset(page_size));
            return Ok(Validation {
                pa,
                latency: 1,
                overlap: false,
                squashed_preload: false,
            });
        }
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let latency = 1 + walk_stall;
        match walk.outcome {
            WalkOutcome::Leaf { pa, perms, page } => {
                iommu.check(perms, va, kind)?;
                debug_assert_eq!(
                    page, page_size,
                    "conventional tables must be uniform (OS layout invariant)"
                );
                iommu.tlb.as_mut().expect("tlb").insert(TlbEntry {
                    vpn: va.vpn(page_size),
                    pfn: pa.raw() >> page_size.shift(),
                    perms,
                });
                Ok(Validation {
                    pa,
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            // Defensive: hardware that understands PEs treats them as
            // identity validations even in conventional mode.
            WalkOutcome::PermissionEntry { perms, .. } => {
                iommu.check(perms, va, kind)?;
                iommu.stats.identity_validations.inc();
                Ok(Validation {
                    pa: va.to_identity_pa(),
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::NotMapped { .. } => Err(iommu.fault(va, kind, FaultKind::NotMapped)),
        }
    }
}

/// DVM with the flat permission bitmap (Border-Control-style DAV).
#[derive(Debug)]
struct DvmBitmap;

impl TranslationScheme for DvmBitmap {
    fn name(&self) -> &'static str {
        "DVM-BM"
    }

    fn describe(&self) -> &'static str {
        "devirtualized memory, flat permission bitmap + bitmap cache"
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
            // holds the 2-bit fields of 256 pages).
            bitmap_cache: Some(PtCacheConfig {
                pte_entries: 128,
                ways: 4,
                block_bytes: 64,
                cache_l1: true,
            }),
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
        let tlb_event = iommu.tlb_energy_event();
        iommu.energy.record(tlb_event);
        let tlb_hit = iommu.tlb.as_mut().expect("fallback TLB").lookup(va);
        let word_pa = bitmap.entry_pa(vpn);
        let cache = iommu
            .bitmap_cache
            .as_mut()
            .expect("DVM-BM has a bitmap cache");
        let (hit, dav_latency) = match cache.access(word_pa, 2) {
            crate::ptcache::PtcLookup::Hit => (true, 1),
            _ => {
                let fetch = ctx.dram.access(word_pa, AccessKind::Read);
                iommu.energy.record(MmEvent::WalkerDram);
                iommu.stats.walk_mem_refs.inc();
                iommu.stats.walker_busy.add(fetch);
                (false, 1 + fetch)
            }
        };
        let _ = hit;
        let perms = bitmap.perms_of(ctx.mem, vpn);
        if perms.is_mapped() {
            // 1-step DAV success: identity access.
            if !perms.allows(kind) {
                return Err(iommu.fault(va, kind, FaultKind::Protection));
            }
            iommu.stats.identity_validations.inc();
            return Ok(Validation {
                pa: va.to_identity_pa(),
                latency: dav_latency,
                overlap: false,
                squashed_preload: false,
            });
        }
        // 00: not identity mapped; full translation, expedited by the TLB
        // that was already probed in parallel.
        iommu.stats.fallback_translations.inc();
        if let Some(entry) = tlb_hit {
            iommu.check(entry.perms, va, kind)?;
            let pa = PhysAddr::from_frame(entry.pfn) + va.page_offset(PageSize::Size4K);
            return Ok(Validation {
                pa,
                latency: dav_latency,
                overlap: false,
                squashed_preload: false,
            });
        }
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let latency = dav_latency + 1 + walk_stall;
        match walk.outcome {
            WalkOutcome::Leaf { pa, perms, page } => {
                iommu.check(perms, va, kind)?;
                debug_assert_eq!(page, PageSize::Size4K, "DVM-BM fallback uses 4K tables");
                iommu.tlb.as_mut().expect("tlb").insert(TlbEntry {
                    vpn,
                    pfn: pa.frame(),
                    perms,
                });
                Ok(Validation {
                    pa,
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::PermissionEntry { perms, .. } => {
                // Stale bitmap relative to the page table; trust the table.
                iommu.check(perms, va, kind)?;
                iommu.stats.identity_validations.inc();
                Ok(Validation {
                    pa: va.to_identity_pa(),
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::NotMapped { .. } => Err(iommu.fault(va, kind, FaultKind::NotMapped)),
        }
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

    fn describe(&self) -> &'static str {
        if self.preload {
            "devirtualized memory, permission entries + AVC + read preload"
        } else {
            "devirtualized memory, permission entries + AVC"
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

    fn describe(&self) -> &'static str {
        "direct physical access, no translation or protection"
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
        Ok(Validation {
            pa: va.to_identity_pa(),
            latency: 0,
            overlap: false,
            squashed_preload: false,
        })
    }
}

/// 4K shared virtual addressing with sequential next-page TLB
/// prefetching, after Kurth et al., "Scalable Shared Virtual Memory
/// Addressing for Heterogeneous SoCs" (arXiv 1808.09751): on a demand
/// TLB miss the walker also resolves the next virtual page in the
/// background, so streaming DMA hides most of its translation stalls.
/// The prefetch walk's memory traffic and energy are charged, but the
/// demand access does not stall on it.
#[derive(Debug)]
struct SvaPf;

/// The page size SVA-Pf (and SVA-IOMMU) maps at.
const SVA_PAGE: PageSize = PageSize::Size4K;

impl SvaPf {
    /// Background next-page prefetch. `iommu.scratch[0]` remembers the
    /// last prefetched vpn (+1 so zero means "none"), filtering repeated
    /// prefetches of the same page on clustered misses.
    #[inline]
    fn prefetch_next(&self, iommu: &mut Iommu, ctx: &mut AccessCtx<'_>, va: VirtAddr) {
        let Some(next) = va.raw().checked_add(SVA_PAGE.bytes()) else {
            return;
        };
        if next >= VA_LIMIT {
            return;
        }
        let next = VirtAddr::new(next);
        let vpn = next.vpn(SVA_PAGE);
        if iommu.scratch[0] == vpn + 1 {
            return;
        }
        iommu.scratch[0] = vpn + 1;
        iommu.stats.tlb_prefetches.inc();
        // The walk is charged (walker occupancy, PWC probes, DRAM
        // fetches) but its stall is discarded: it runs behind the
        // demand access. Faults are dropped — a prefetch must never
        // raise one.
        let (walk, _stall) = iommu.timed_walk(ctx, next);
        if let WalkOutcome::Leaf { pa, perms, page } = walk.outcome {
            if page == SVA_PAGE {
                iommu
                    .tlb
                    .as_mut()
                    .expect("SVA-Pf has a TLB")
                    .insert(TlbEntry {
                        vpn,
                        pfn: pa.raw() >> SVA_PAGE.shift(),
                        perms,
                    });
            }
        }
    }
}

impl TranslationScheme for SvaPf {
    fn name(&self) -> &'static str {
        "SVA-Pf"
    }

    fn describe(&self) -> &'static str {
        "shared virtual addressing, 4K TLB + PWC + next-page prefetch"
    }

    fn required_leaf_size(&self) -> Option<PageSize> {
        Some(SVA_PAGE)
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures {
            tlb: Some(TlbConfig::paper_accelerator(SVA_PAGE)),
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
        iommu.energy.record(iommu.tlb_energy_event());
        let hit = iommu.tlb.as_mut().expect("SVA-Pf has a TLB").lookup(va);
        if let Some(entry) = hit {
            iommu.check(entry.perms, va, kind)?;
            let pa = PhysAddr::new((entry.pfn << SVA_PAGE.shift()) | va.page_offset(SVA_PAGE));
            return Ok(Validation {
                pa,
                latency: 1,
                overlap: false,
                squashed_preload: false,
            });
        }
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let latency = 1 + walk_stall;
        match walk.outcome {
            WalkOutcome::Leaf { pa, perms, page } => {
                iommu.check(perms, va, kind)?;
                debug_assert_eq!(page, SVA_PAGE, "SVA-Pf maps 4K leaves");
                iommu.tlb.as_mut().expect("tlb").insert(TlbEntry {
                    vpn: va.vpn(SVA_PAGE),
                    pfn: pa.raw() >> SVA_PAGE.shift(),
                    perms,
                });
                self.prefetch_next(iommu, ctx, va);
                Ok(Validation {
                    pa,
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::PermissionEntry { perms, .. } => {
                iommu.check(perms, va, kind)?;
                iommu.stats.identity_validations.inc();
                Ok(Validation {
                    pa: va.to_identity_pa(),
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::NotMapped { .. } => Err(iommu.fault(va, kind, FaultKind::NotMapped)),
        }
    }
}

/// RISC-V-style shared virtual addressing through a standards-track
/// IOMMU, after Koenig et al., "Fast Shared-Memory Barrier
/// Synchronization for a 1024-Cores RISC-V Many-Core Cluster" lineage
/// IOMMU work (arXiv 2502.17398): a modest set-associative IOTLB in
/// front of the PWC, plus a one-time device-context (DDT) fetch from
/// memory before the first walk of a context — the price of the
/// process-to-device binding the spec routes every stream through.
#[derive(Debug)]
struct SvaIommu;

impl TranslationScheme for SvaIommu {
    fn name(&self) -> &'static str {
        "SVA-IOMMU"
    }

    fn describe(&self) -> &'static str {
        "shared virtual addressing, RISC-V IOMMU: 8-way IOTLB + PWC + DDT fetch"
    }

    fn required_leaf_size(&self) -> Option<PageSize> {
        Some(SVA_PAGE)
    }

    fn structures(&self) -> SchemeStructures {
        SchemeStructures {
            // The spec's reference IOTLB organization is set-associative
            // and smaller than the paper's 128-entry CAM.
            tlb: Some(TlbConfig {
                entries: 64,
                assoc: Associativity::SetAssociative { ways: 8 },
                page_size: SVA_PAGE,
            }),
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
        iommu.energy.record(iommu.tlb_energy_event());
        let hit = iommu
            .tlb
            .as_mut()
            .expect("SVA-IOMMU has an IOTLB")
            .lookup(va);
        if let Some(entry) = hit {
            iommu.check(entry.perms, va, kind)?;
            let pa = PhysAddr::new((entry.pfn << SVA_PAGE.shift()) | va.page_offset(SVA_PAGE));
            return Ok(Validation {
                pa,
                latency: 1,
                overlap: false,
                squashed_preload: false,
            });
        }
        // First walk of this context: fetch the device directory entry
        // binding the device to the process address space. Cached in the
        // walker afterwards (`scratch[0]`), flushed on context switch.
        let mut ddt_stall = 0;
        if iommu.scratch[0] == 0 {
            iommu.scratch[0] = 1;
            let fetch = ctx.dram.access(PhysAddr::new(0), AccessKind::Read);
            iommu.energy.record(MmEvent::WalkerDram);
            iommu.stats.walk_mem_refs.inc();
            iommu.stats.walker_busy.add(fetch);
            ddt_stall = fetch;
        }
        let (walk, walk_stall) = iommu.timed_walk(ctx, va);
        let latency = 1 + ddt_stall + walk_stall;
        match walk.outcome {
            WalkOutcome::Leaf { pa, perms, page } => {
                iommu.check(perms, va, kind)?;
                debug_assert_eq!(page, SVA_PAGE, "SVA-IOMMU maps 4K leaves");
                iommu.tlb.as_mut().expect("tlb").insert(TlbEntry {
                    vpn: va.vpn(SVA_PAGE),
                    pfn: pa.raw() >> SVA_PAGE.shift(),
                    perms,
                });
                Ok(Validation {
                    pa,
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::PermissionEntry { perms, .. } => {
                iommu.check(perms, va, kind)?;
                iommu.stats.identity_validations.inc();
                Ok(Validation {
                    pa: va.to_identity_pa(),
                    latency,
                    overlap: false,
                    squashed_preload: false,
                })
            }
            WalkOutcome::NotMapped { .. } => Err(iommu.fault(va, kind, FaultKind::NotMapped)),
        }
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
    /// registry contract the CLI and report cache rely on.
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
