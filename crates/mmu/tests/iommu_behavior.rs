//! Scheme-specific IOMMU behaviour: energy attribution, walker occupancy,
//! DVM-BM's parallel TLB probe, flush semantics, and preload accounting.

use dvm_energy::{EnergyParams, MmEvent};
use dvm_mem::{BuddyAllocator, Dram, DramConfig, PhysMem};
use dvm_mmu::{Iommu, MemSystem, SchemeId};
use dvm_pagetable::{PageTable, PermBitmap};
use dvm_types::{AccessKind, Permission, VirtAddr};

struct Rig {
    mem: PhysMem,
    pt: PageTable,
    bitmap: Option<PermBitmap>,
    dram: Dram,
}

fn rig(config: SchemeId, span: u64) -> Rig {
    let mut mem = PhysMem::new(1 << 18);
    let mut alloc = BuddyAllocator::new(1 << 18);
    let mut pt = PageTable::new(&mut mem, &mut alloc).unwrap();
    let base = VirtAddr::new(64 << 20);
    let bitmap = if config.needs_bitmap() {
        Some(PermBitmap::new(&mut mem, &mut alloc, 1 << 30).unwrap())
    } else {
        None
    };
    match config.required_leaf_size() {
        Some(page_size) => pt
            .map_identity_leaves(
                &mut mem,
                &mut alloc,
                base,
                span,
                Permission::ReadWrite,
                page_size,
            )
            .unwrap(),
        None => pt
            .map_identity_pe(&mut mem, &mut alloc, base, span, Permission::ReadWrite)
            .unwrap(),
    }
    if let Some(bm) = &bitmap {
        bm.set_bytes(&mut mem, base, span, Permission::ReadWrite);
    }
    Rig {
        mem,
        pt,
        bitmap,
        dram: Dram::new(DramConfig::default()),
    }
}

fn sweep(iommu: &mut Iommu, rig: &mut Rig, accesses: u64, stride: u64) {
    let base = VirtAddr::new(64 << 20);
    let mut sys = MemSystem::new(
        iommu,
        &rig.pt,
        rig.bitmap.as_ref(),
        &mut rig.mem,
        &mut rig.dram,
    );
    for i in 0..accesses {
        sys.access(base + (i * stride) % (32 << 20), AccessKind::Read)
            .unwrap();
    }
}

#[test]
fn conventional_charges_fa_tlb_energy_per_access() {
    let config = SchemeId::CONV_4K;
    let mut rig = rig(config, 32 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    sweep(&mut iommu, &mut rig, 1000, 64);
    assert_eq!(iommu.energy.count(MmEvent::FaTlbLookup), 1000);
    assert!(iommu.energy.count(MmEvent::PtcLookup) > 0);
}

#[test]
fn dvm_pe_never_touches_a_tlb() {
    let config = SchemeId::DVM_PE;
    let mut rig = rig(config, 32 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    sweep(&mut iommu, &mut rig, 1000, 4096);
    assert_eq!(iommu.energy.count(MmEvent::FaTlbLookup), 0);
    assert_eq!(iommu.energy.count(MmEvent::SaTlbLookup), 0);
    assert!(iommu.energy.count(MmEvent::PtcLookup) >= 1000);
    assert!(iommu.tlb_stats().is_none());
}

#[test]
fn dvm_bm_probes_tlb_in_parallel_every_access() {
    let config = SchemeId::DVM_BM;
    let mut rig = rig(config, 32 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    sweep(&mut iommu, &mut rig, 500, 4096);
    // Both the bitmap cache and the fallback FA TLB burn energy on every
    // access — the reason DVM-BM saves less energy than DVM-PE.
    assert_eq!(iommu.energy.count(MmEvent::BitmapCacheLookup), 500);
    assert_eq!(iommu.energy.count(MmEvent::FaTlbLookup), 500);
    assert_eq!(iommu.stats.identity_validations.get(), 500);
    assert_eq!(iommu.stats.fallback_translations.get(), 0);
}

#[test]
fn walker_occupancy_orders_schemes() {
    // 4K walks keep the shared walker far busier than PE validation.
    let span = 32 << 20;
    let mut busy = Vec::new();
    for config in [SchemeId::CONV_4K, SchemeId::DVM_PE, SchemeId::IDEAL] {
        let mut r = rig(config, span);
        let mut iommu = Iommu::new(config, EnergyParams::default());
        // Random-ish strided sweep touching many pages.
        sweep(&mut iommu, &mut r, 4000, 81 * 4096);
        busy.push(iommu.stats.walker_busy.get());
    }
    assert!(busy[0] > busy[1] * 3, "4K {} vs PE {}", busy[0], busy[1]);
    assert_eq!(busy[2], 0, "ideal never walks");
}

#[test]
fn flush_forgets_cached_state() {
    let config = SchemeId::CONV_4K;
    let mut rig = rig(config, 1 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    sweep(&mut iommu, &mut rig, 10, 64);
    let misses_before = iommu.tlb_stats().unwrap().misses();
    iommu.flush();
    sweep(&mut iommu, &mut rig, 10, 64);
    assert!(
        iommu.tlb_stats().unwrap().misses() > misses_before,
        "post-flush accesses must re-miss"
    );
}

#[test]
fn preload_counters_balance() {
    let config = SchemeId::DVM_PE_PLUS;
    let mut rig = rig(config, 1 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    let base = VirtAddr::new(64 << 20);
    let mut sys = MemSystem::new(&mut iommu, &rig.pt, None, &mut rig.mem, &mut rig.dram);
    for i in 0..100u64 {
        sys.read_u32(base + i * 4).unwrap();
    }
    for i in 0..50u64 {
        sys.write_u32(base + i * 4, 1).unwrap();
    }
    // Every read overlapped (identity), writes never preload.
    assert_eq!(iommu.stats.preload_overlaps.get(), 100);
    assert_eq!(iommu.stats.preload_squashes.get(), 0);
    assert_eq!(iommu.stats.accesses.get(), 150);
}

#[test]
fn sva_pf_prefetches_the_next_page_into_the_tlb() {
    let config = SchemeId::SVA_PF;
    let mut rig = rig(config, 32 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    // A page-granular sequential scan: each miss prefetches the next
    // page, so the scan alternates miss / prefetched-hit (~50% hits;
    // without the prefetcher, 64 fresh pages would all miss).
    sweep(&mut iommu, &mut rig, 64, 4096);
    let prefetches = iommu.stats.tlb_prefetches.get();
    assert!(prefetches > 0, "sequential misses must prefetch");
    let stats = iommu.tlb_stats().unwrap();
    assert!(
        stats.hits() >= 30,
        "prefetched pages must hit: {} hits / {} misses",
        stats.hits(),
        stats.misses()
    );
    // The prefetch walks are real work: they show up in the walk count,
    // which is why the scheme loses bandwidth on random access.
    assert!(iommu.stats.walks.get() > stats.misses());
}

/// Issue accesses one by one and return how many walker DRAM references
/// each one cost.
fn walk_refs_per_access(iommu: &mut Iommu, rig: &mut Rig, vas: &[VirtAddr]) -> Vec<u64> {
    let mut sys = MemSystem::new(
        iommu,
        &rig.pt,
        rig.bitmap.as_ref(),
        &mut rig.mem,
        &mut rig.dram,
    );
    vas.iter()
        .map(|&va| {
            let before = sys.iommu.stats.walk_mem_refs.get();
            sys.access(va, AccessKind::Read).unwrap();
            sys.iommu.stats.walk_mem_refs.get() - before
        })
        .collect()
}

#[test]
fn sva_pf_flush_forgets_prefetch_history() {
    let config = SchemeId::SVA_PF;
    let mut rig = rig(config, 32 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    // The sequential scan misses on even pages and prefetches the odd
    // ones, so the last prefetched page is page 63.
    sweep(&mut iommu, &mut rig, 64, 4096);
    let page_62 = VirtAddr::new((64 << 20) + 62 * 4096);
    // Drop only the TLB's entries: the demand miss on page 62 would
    // prefetch page 63 again, but the recorded history filters it.
    iommu.tlb.as_mut().unwrap().flush();
    let prefetches = iommu.stats.tlb_prefetches.get();
    walk_refs_per_access(&mut iommu, &mut rig, &[page_62]);
    assert_eq!(
        iommu.stats.tlb_prefetches.get(),
        prefetches,
        "dedup history recorded"
    );
    // A full flush also forgets the history: the same miss prefetches.
    iommu.flush();
    walk_refs_per_access(&mut iommu, &mut rig, &[page_62]);
    assert_eq!(
        iommu.stats.tlb_prefetches.get(),
        prefetches + 1,
        "flush clears the prefetch history"
    );
    let prefetches_before = iommu.stats.tlb_prefetches.get();
    sweep(&mut iommu, &mut rig, 64, 4096);
    assert!(
        iommu.stats.tlb_prefetches.get() > prefetches_before,
        "post-flush misses must prefetch again"
    );
}

#[test]
fn sva_iommu_fetches_the_device_context_exactly_once() {
    let base = VirtAddr::new(64 << 20);
    let next_page = base + 4096;
    // The same accesses under 4K,TLB+PWC cost the walk alone: the two
    // schemes share the PWC and walk the same 4K table.
    let baseline = {
        let config = SchemeId::CONV_4K;
        let mut rig = rig(config, 32 << 20);
        let mut iommu = Iommu::new(config, EnergyParams::default());
        walk_refs_per_access(&mut iommu, &mut rig, &[base, base, next_page])
    };
    assert!(baseline[0] > 0 && baseline[1] == 0 && baseline[2] > 0);

    let config = SchemeId::SVA_IOMMU;
    let mut rig = rig(config, 32 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    {
        let mut sys = MemSystem::new(
            &mut iommu,
            &rig.pt,
            rig.bitmap.as_ref(),
            &mut rig.mem,
            &mut rig.dram,
        );
        let first = sys.access(base, AccessKind::Read).unwrap();
        let second = sys.access(base, AccessKind::Read).unwrap();
        // The first access pays the DDT fetch on top of its walk; the
        // second hits both the cached context and the IOTLB.
        assert!(
            first > second,
            "DDT fetch charged once: {first} vs {second}"
        );
    }
    assert_eq!(
        iommu.stats.walk_mem_refs.get(),
        baseline[0] + 1,
        "the first walk fetches the context"
    );
    let refs_after_two = iommu.stats.walk_mem_refs.get();
    // Stay inside the already-cached first page: the context stays
    // cached across accesses, so the IOTLB-hit path issues no further
    // walks and no further DDT fetches.
    sweep(&mut iommu, &mut rig, 100, 8);
    assert_eq!(iommu.stats.walk_mem_refs.get(), refs_after_two);
    // A flush (context switch) drops the cached context: the next walk
    // fetches it again, and the walk after that does not.
    iommu.flush();
    assert_eq!(
        walk_refs_per_access(&mut iommu, &mut rig, &[base, next_page]),
        [baseline[0] + 1, baseline[2]],
        "post-flush access re-fetches the DDT, once"
    );
}

#[test]
fn reset_stats_keeps_cached_state() {
    let config = SchemeId::CONV_2M;
    let mut rig = rig(config, 4 << 20);
    let mut iommu = Iommu::new(config, EnergyParams::default());
    sweep(&mut iommu, &mut rig, 100, 4096);
    iommu.reset_stats();
    assert_eq!(iommu.stats.accesses.get(), 0);
    assert_eq!(iommu.energy.total_pj(), 0.0);
    // The TLB is still warm: a re-sweep hits everywhere.
    sweep(&mut iommu, &mut rig, 100, 4096);
    assert_eq!(iommu.tlb_stats().unwrap().misses(), 0);
    assert_eq!(iommu.tlb_stats().unwrap().hits(), 100);
}
