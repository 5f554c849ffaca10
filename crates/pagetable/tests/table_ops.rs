//! Behavioural tests for page-table mapping, walking, demotion and
//! protection changes.

use dvm_mem::{BuddyAllocator, PhysMem};
use dvm_pagetable::{entry_span, slot_span, PageTable, WalkOutcome};
use dvm_sim::DetRng;
use dvm_types::{DvmError, PageSize, Permission, PhysAddr, VirtAddr, PAGE_SIZE};
use std::collections::BTreeMap;

const MB: u64 = 1 << 20;

fn setup() -> (PhysMem, BuddyAllocator) {
    // 1 GiB of simulated memory for table frames and mapped data.
    (PhysMem::new(1 << 18), BuddyAllocator::new(1 << 18))
}

fn new_pt(mem: &mut PhysMem, alloc: &mut BuddyAllocator) -> PageTable {
    PageTable::new(mem, alloc).unwrap()
}

#[test]
fn identity_pe_walk_hits_l2_pe() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(64 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    for probe in [0u64, 0x1000, 128 * 1024, 2 * MB - 8] {
        let walk = pt.walk(&mem, base + probe);
        match walk.outcome {
            WalkOutcome::PermissionEntry { perms, level } => {
                assert_eq!(perms, Permission::ReadWrite);
                assert_eq!(level, 2);
            }
            other => panic!("expected PE, got {other:?}"),
        }
        assert_eq!(walk.steps().len(), 3);
        assert_eq!(
            walk.resolve(base + probe),
            Some((PhysAddr::new(base.raw() + probe), Permission::ReadWrite))
        );
    }
}

#[test]
fn large_identity_region_uses_l3_pe() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    // 128 MiB aligned at a 64 MiB boundary: fits two L3 PE slots.
    let base = VirtAddr::new(128 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 128 * MB, Permission::ReadOnly)
        .unwrap();
    let walk = pt.walk(&mem, base + 5 * MB);
    match walk.outcome {
        WalkOutcome::PermissionEntry { perms, level } => {
            assert_eq!(perms, Permission::ReadOnly);
            assert_eq!(
                level, 3,
                "64 MiB-aligned 128 MiB region should use an L3 PE"
            );
        }
        other => panic!("expected L3 PE, got {other:?}"),
    }
    assert_eq!(walk.steps().len(), 2); // L4 then the L3 PE

    // Size check: no L2 or L1 tables at all.
    let report = pt.size_report(&mem);
    assert_eq!(report.table_frames[0], 0);
    assert_eq!(report.table_frames[1], 0);
    assert_eq!(report.pe_entries[2], 1, "one L3 PE entry");
}

#[test]
fn sub_slot_region_falls_back_to_identity_leaves() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    // 64 KiB is below the 128 KiB L2 slot granularity.
    let base = VirtAddr::new(200 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 64 * 1024, Permission::ReadWrite)
        .unwrap();
    let walk = pt.walk(&mem, base + 0x2000);
    match walk.outcome {
        WalkOutcome::Leaf { pa, perms, page } => {
            assert_eq!(pa, PhysAddr::new(base.raw() + 0x2000));
            assert_eq!(perms, Permission::ReadWrite);
            assert_eq!(page, PageSize::Size4K);
        }
        other => panic!("expected 4K identity leaf, got {other:?}"),
    }
}

#[test]
fn unaligned_region_mixes_pe_and_leaves() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    // One full 2 MiB entry (becomes a PE) + a 4 KiB tail spilling into the
    // next L2 entry (becomes an identity leaf: a PE replaces an entire PTE,
    // so a lone sub-slot tail cannot use one).
    let base = VirtAddr::new(256 * MB);
    let len = 2 * MB + 4096;
    pt.map_identity_pe(&mut mem, &mut alloc, base, len, Permission::ReadWrite)
        .unwrap();
    assert!(pt.walk(&mem, base).is_identity());
    // Tail is mapped but via a leaf (not slot aligned).
    let tail = base + 2 * MB;
    match pt.walk(&mem, tail).outcome {
        WalkOutcome::Leaf { pa, .. } => assert_eq!(pa.raw(), tail.raw()),
        other => panic!("expected leaf for tail, got {other:?}"),
    }
    // One past the end is unmapped.
    assert_eq!(pt.translate(&mem, base + len), None);
}

#[test]
fn gaps_between_pe_slots_fault() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(512 * MB);
    // Map only the first 128 KiB slot of a 2 MiB entry.
    pt.map_identity_pe(
        &mut mem,
        &mut alloc,
        base,
        128 * 1024,
        Permission::ReadWrite,
    )
    .unwrap();
    // Probe inside the same 2 MiB entry but a different slot: PE with 00.
    let gap = base + 512 * 1024;
    match pt.walk(&mem, gap).outcome {
        WalkOutcome::PermissionEntry { perms, .. } => assert_eq!(perms, Permission::None),
        other => panic!("expected empty PE slot, got {other:?}"),
    }
    assert_eq!(pt.translate(&mem, gap), None);
}

#[test]
fn two_regions_share_one_pe() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(1024 * MB);
    pt.map_identity_pe(
        &mut mem,
        &mut alloc,
        base,
        128 * 1024,
        Permission::ReadWrite,
    )
    .unwrap();
    pt.map_identity_pe(
        &mut mem,
        &mut alloc,
        base + 128 * 1024,
        128 * 1024,
        Permission::ReadOnly,
    )
    .unwrap();
    // Both live in the same L2 PE with different slot permissions.
    let report = pt.size_report(&mem);
    assert_eq!(report.pe_entries[1], 1);
    assert_eq!(pt.translate(&mem, base).unwrap().1, Permission::ReadWrite);
    assert_eq!(
        pt.translate(&mem, base + 128 * 1024).unwrap().1,
        Permission::ReadOnly
    );
}

#[test]
fn double_map_is_busy_and_atomic() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(2 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    let before = pt.size_report(&mem);
    // Overlapping map fails...
    let err = pt
        .map_identity_pe(
            &mut mem,
            &mut alloc,
            base + MB,
            2 * MB,
            Permission::ReadOnly,
        )
        .unwrap_err();
    assert!(matches!(err, DvmError::VaRangeBusy { .. }));
    // ...and changed nothing.
    assert_eq!(pt.size_report(&mem), before);
    assert_eq!(
        pt.translate(&mem, base + MB).unwrap().1,
        Permission::ReadWrite
    );
    assert_eq!(pt.translate(&mem, base + 3 * MB), None);
}

#[test]
fn map_page_non_identity_translation() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let va = VirtAddr::new(40 * MB);
    let pa = PhysAddr::new(80 * MB);
    pt.map_page(
        &mut mem,
        &mut alloc,
        va,
        pa,
        PageSize::Size4K,
        Permission::ReadWrite,
    )
    .unwrap();
    let walk = pt.walk(&mem, va + 0x123);
    assert!(!walk.is_identity());
    assert_eq!(
        walk.resolve(va + 0x123),
        Some((pa + 0x123, Permission::ReadWrite))
    );
    // Walk visits all four levels for a 4K leaf.
    assert_eq!(walk.steps().len(), 4);
}

#[test]
fn map_page_into_pe_gap_demotes() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(4096 * MB);
    // PE covering one slot; rest of the 2 MiB entry is a gap.
    pt.map_identity_pe(
        &mut mem,
        &mut alloc,
        base,
        128 * 1024,
        Permission::ReadWrite,
    )
    .unwrap();
    // Map a non-identity page into the gap: forces PE demotion.
    let gap_va = base + 256 * 1024;
    let pa = PhysAddr::new(8 * MB);
    pt.map_page(
        &mut mem,
        &mut alloc,
        gap_va,
        pa,
        PageSize::Size4K,
        Permission::ReadOnly,
    )
    .unwrap();
    // The original identity mapping still resolves identically.
    assert_eq!(
        pt.translate(&mem, base + 0x5000),
        Some((PhysAddr::new(base.raw() + 0x5000), Permission::ReadWrite))
    );
    // The new page resolves to its non-identity PA.
    assert_eq!(pt.translate(&mem, gap_va), Some((pa, Permission::ReadOnly)));
}

#[test]
fn huge_leaf_mappings() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(512 * MB);
    pt.map_identity_leaves(
        &mut mem,
        &mut alloc,
        base,
        8 * MB,
        Permission::ReadWrite,
        PageSize::Size2M,
    )
    .unwrap();
    match pt.walk(&mem, base + 3 * MB).outcome {
        WalkOutcome::Leaf { page, pa, .. } => {
            assert_eq!(page, PageSize::Size2M);
            assert_eq!(pa.raw(), base.raw() + 3 * MB);
        }
        other => panic!("expected 2M leaf, got {other:?}"),
    }
    // 8 MiB of 2M leaves: 4 present L2 entries, no L1 tables.
    let report = pt.size_report(&mem);
    assert_eq!(report.huge_leaf_entries, 4);
    assert_eq!(report.table_frames[0], 0);
}

#[test]
fn identity_leaves_unaligned_edges_get_4k() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    // Start 4K-aligned but not 2M-aligned.
    let base = VirtAddr::new(512 * MB + 4096);
    pt.map_identity_leaves(
        &mut mem,
        &mut alloc,
        base,
        4 * MB,
        Permission::ReadWrite,
        PageSize::Size2M,
    )
    .unwrap();
    match pt.walk(&mem, base).outcome {
        WalkOutcome::Leaf { page, .. } => assert_eq!(page, PageSize::Size4K),
        other => panic!("expected 4K edge, got {other:?}"),
    }
    // Interior aligned chunk got a 2M leaf.
    match pt.walk(&mem, VirtAddr::new(514 * MB)).outcome {
        WalkOutcome::Leaf { page, .. } => assert_eq!(page, PageSize::Size2M),
        other => panic!("expected 2M interior, got {other:?}"),
    }
    // Every byte translates identically.
    for off in (0..4 * MB).step_by(137 * 4096) {
        assert_eq!(
            pt.translate(&mem, base + off),
            Some((PhysAddr::new(base.raw() + off), Permission::ReadWrite))
        );
    }
}

#[test]
fn unmap_pe_slots_clears_and_reuses() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(6 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    pt.unmap_region(&mut mem, &mut alloc, base, 2 * MB).unwrap();
    assert_eq!(pt.translate(&mem, base), None);
    assert!(pt.is_range_unmapped(&mem, base, 2 * MB));
    // Range can be mapped again with different permissions.
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadOnly)
        .unwrap();
    assert_eq!(pt.translate(&mem, base).unwrap().1, Permission::ReadOnly);
}

#[test]
fn partial_unmap_of_pe_keeps_other_slots() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(6 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    // Unmap the middle 128 KiB slot.
    pt.unmap_region(&mut mem, &mut alloc, base + 512 * 1024, 128 * 1024)
        .unwrap();
    assert_eq!(pt.translate(&mem, base + 512 * 1024), None);
    assert!(pt.walk(&mem, base).is_identity());
    assert!(pt.walk(&mem, base + MB).is_identity());
}

#[test]
fn sub_slot_unmap_demotes_pe() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(6 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    // Unmap a single 4 KiB page: forces demotion to L1 leaves.
    pt.unmap_region(&mut mem, &mut alloc, base + 0x3000, 4096)
        .unwrap();
    assert_eq!(pt.translate(&mem, base + 0x3000), None);
    // Neighbours survive as identity translations.
    assert_eq!(
        pt.translate(&mem, base + 0x2000),
        Some((PhysAddr::new(base.raw() + 0x2000), Permission::ReadWrite))
    );
    assert_eq!(
        pt.translate(&mem, base + 0x4000),
        Some((PhysAddr::new(base.raw() + 0x4000), Permission::ReadWrite))
    );
}

#[test]
fn protect_whole_pe_region() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(10 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    pt.protect_region(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadOnly)
        .unwrap();
    assert_eq!(
        pt.translate(&mem, base + MB).unwrap().1,
        Permission::ReadOnly
    );
    // Still identity mapped (CoW marking must not break VA==PA).
    assert!(pt.walk(&mem, base + MB).is_identity());
}

#[test]
fn protect_single_page_demotes_but_preserves_translations() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(10 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    pt.protect_region(
        &mut mem,
        &mut alloc,
        base + 0x8000,
        4096,
        Permission::ReadOnly,
    )
    .unwrap();
    assert_eq!(
        pt.translate(&mem, base + 0x8000),
        Some((PhysAddr::new(base.raw() + 0x8000), Permission::ReadOnly))
    );
    assert_eq!(
        pt.translate(&mem, base + 0x9000),
        Some((PhysAddr::new(base.raw() + 0x9000), Permission::ReadWrite))
    );
}

#[test]
fn remap_page_breaks_identity_for_cow() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(10 * MB);
    pt.map_identity_pe(&mut mem, &mut alloc, base, 2 * MB, Permission::ReadWrite)
        .unwrap();
    let copy_pa = PhysAddr::new(100 * MB);
    pt.remap_page(
        &mut mem,
        &mut alloc,
        base + 0x5000,
        copy_pa,
        Permission::ReadWrite,
    )
    .unwrap();
    // The remapped page is no longer identity.
    let walk = pt.walk(&mem, base + 0x5000);
    assert!(!walk.is_identity());
    assert_eq!(
        walk.resolve(base + 0x5000),
        Some((copy_pa, Permission::ReadWrite))
    );
    // Its neighbours still are.
    assert_eq!(
        pt.translate(&mem, base + 0x6000),
        Some((PhysAddr::new(base.raw() + 0x6000), Permission::ReadWrite))
    );
}

#[test]
fn unmap_frees_empty_child_tables() {
    let (mut mem, mut alloc) = setup();
    let free_before = alloc.free_frames_count();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(40 * MB);
    pt.map_identity_leaves(
        &mut mem,
        &mut alloc,
        base,
        4 * MB,
        Permission::ReadWrite,
        PageSize::Size4K,
    )
    .unwrap();
    pt.unmap_region(&mut mem, &mut alloc, base, 4 * MB).unwrap();
    // Only the root frame remains allocated.
    assert_eq!(alloc.free_frames_count(), free_before - 1);
    pt.free_all(&mut mem, &mut alloc);
    assert_eq!(alloc.free_frames_count(), free_before);
}

#[test]
fn free_all_reclaims_everything() {
    let (mut mem, mut alloc) = setup();
    let free_before = alloc.free_frames_count();
    let mut pt = new_pt(&mut mem, &mut alloc);
    pt.map_identity_pe(
        &mut mem,
        &mut alloc,
        VirtAddr::new(64 * MB),
        32 * MB,
        Permission::ReadWrite,
    )
    .unwrap();
    pt.map_page(
        &mut mem,
        &mut alloc,
        VirtAddr::new(300 * MB),
        PhysAddr::new(2 * MB),
        PageSize::Size4K,
        Permission::ReadOnly,
    )
    .unwrap();
    pt.free_all(&mut mem, &mut alloc);
    assert_eq!(alloc.free_frames_count(), free_before);
}

#[test]
fn slot_and_span_constants_match_paper() {
    // §4.1.1: an L2 PE maps 2 MB of sixteen 128 KB regions; an L3 PE maps
    // 1 GB of sixteen 64 MB regions.
    assert_eq!(entry_span(2), 2 * MB);
    assert_eq!(slot_span(2), 128 * 1024);
    assert_eq!(entry_span(3), 1024 * MB);
    assert_eq!(slot_span(3), 64 * MB);
}

#[test]
fn coarse_pe_fields_need_coarser_alignment() {
    // The paper's "Alternatives": 4 effective fields per L2 entry (spare
    // PTE bits) give 512 KiB regions instead of 128 KiB.
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    let base = VirtAddr::new(128 * MB);

    // A 512 KiB-aligned, 512 KiB region maps as a PE even with 4 fields.
    pt.map_identity_pe_granular(
        &mut mem,
        &mut alloc,
        base,
        512 * 1024,
        Permission::ReadWrite,
        4,
    )
    .unwrap();
    assert!(pt.walk(&mem, base).is_identity());

    // A 128 KiB region (fine for 16 fields) falls back to leaves with 4.
    let base2 = VirtAddr::new(256 * MB);
    pt.map_identity_pe_granular(
        &mut mem,
        &mut alloc,
        base2,
        128 * 1024,
        Permission::ReadWrite,
        4,
    )
    .unwrap();
    match pt.walk(&mem, base2).outcome {
        WalkOutcome::Leaf { page, .. } => assert_eq!(page, PageSize::Size4K),
        other => panic!("expected leaf fallback, got {other:?}"),
    }
    // Same region with 16 fields becomes a PE.
    let base3 = VirtAddr::new(512 * MB);
    pt.map_identity_pe_granular(
        &mut mem,
        &mut alloc,
        base3,
        128 * 1024,
        Permission::ReadWrite,
        16,
    )
    .unwrap();
    assert!(pt.walk(&mem, base3).is_identity());
}

#[test]
fn coarse_pe_tables_are_bigger() {
    // Fewer fields -> more leaf fallbacks -> bigger tables.
    let (mut mem4, mut alloc4) = setup();
    let mut pt4 = new_pt(&mut mem4, &mut alloc4);
    let (mut mem16, mut alloc16) = setup();
    let mut pt16 = new_pt(&mut mem16, &mut alloc16);
    // Map 16 regions of 128 KiB at 2 MiB strides (each slot-aligned).
    for i in 0..16u64 {
        let base = VirtAddr::new(64 * MB + i * 2 * MB);
        pt4.map_identity_pe_granular(
            &mut mem4,
            &mut alloc4,
            base,
            128 * 1024,
            Permission::ReadWrite,
            4,
        )
        .unwrap();
        pt16.map_identity_pe_granular(
            &mut mem16,
            &mut alloc16,
            base,
            128 * 1024,
            Permission::ReadWrite,
            16,
        )
        .unwrap();
    }
    let coarse = pt4.size_report(&mem4);
    let fine = pt16.size_report(&mem16);
    assert!(
        coarse.total_bytes() > fine.total_bytes(),
        "coarse {} vs fine {}",
        coarse.total_bytes(),
        fine.total_bytes()
    );
    assert_eq!(fine.l1_pte_count, 0);
    assert!(coarse.l1_pte_count > 0);
}

#[test]
fn granular_rejects_bad_field_counts() {
    let (mut mem, mut alloc) = setup();
    let mut pt = new_pt(&mut mem, &mut alloc);
    for bad in [0u32, 3, 5, 32] {
        assert!(pt
            .map_identity_pe_granular(
                &mut mem,
                &mut alloc,
                VirtAddr::new(2 * MB),
                2 * MB,
                Permission::ReadWrite,
                bad
            )
            .is_err());
    }
}

/// The PE-optimized table is observationally a flat map
/// `page -> (PA, perms)`. 48 seeded sequences of 1..60 operations —
/// identity-PE maps (plain and with 4/8/16 fields), identity leaf maps,
/// non-identity page maps, unmaps, protections and CoW remaps over a
/// 16 MiB arena — must agree with a `BTreeMap` model on every 61st page
/// after each operation and on every page at the end, and tear-down
/// must reclaim every table frame.
#[test]
fn table_matches_flat_reference_model_under_random_ops() {
    const ARENA_PAGES: u64 = 4096;
    const FRAMES: u64 = 1 << 19;
    const PERMS: [Permission; 3] = [
        Permission::ReadOnly,
        Permission::ReadWrite,
        Permission::ReadExec,
    ];
    let va_of = |page: u64| VirtAddr::new((1 << 30) + page * PAGE_SIZE);
    // Non-identity targets come from their own PA arena, far from the VAs.
    let alien_pa = |frame: u64| PhysAddr::new((1 << 26) + frame * PAGE_SIZE);
    for seed in 0..48u64 {
        let mut rng = DetRng::new(seed);
        let mut mem = PhysMem::new(FRAMES);
        let mut alloc = BuddyAllocator::new(FRAMES);
        let mut pt = new_pt(&mut mem, &mut alloc);
        let mut model: BTreeMap<u64, (PhysAddr, Permission)> = BTreeMap::new();
        for op in 0..rng.range(1, 60) {
            let page = rng.below(ARENA_PAGES);
            let pages = rng.range(1, 256).min(ARENA_PAGES - page);
            let perms = PERMS[rng.below(3) as usize];
            let (va, len) = (va_of(page), pages * PAGE_SIZE);
            match rng.below(7) {
                kind @ 0..=2 => {
                    let res = match kind {
                        0 => pt.map_identity_pe(&mut mem, &mut alloc, va, len, perms),
                        1 => {
                            let fields = [4, 8, 16][rng.below(3) as usize];
                            pt.map_identity_pe_granular(
                                &mut mem, &mut alloc, va, len, perms, fields,
                            )
                        }
                        _ => {
                            let max = [PageSize::Size4K, PageSize::Size2M][rng.below(2) as usize];
                            pt.map_identity_leaves(&mut mem, &mut alloc, va, len, perms, max)
                        }
                    };
                    let free = (page..page + pages).all(|p| !model.contains_key(&p));
                    match res {
                        Ok(()) => {
                            assert!(free, "seed {seed} op {op}: identity map over a busy range");
                            for p in page..page + pages {
                                model.insert(p, (PhysAddr::new(va_of(p).raw()), perms));
                            }
                        }
                        Err(DvmError::VaRangeBusy { .. }) => {
                            assert!(!free, "seed {seed} op {op}: busy error on a free range");
                        }
                        Err(e) => panic!("seed {seed} op {op}: {e}"),
                    }
                }
                3 => {
                    let pa = alien_pa(rng.below(512));
                    match pt.map_page(&mut mem, &mut alloc, va, pa, PageSize::Size4K, perms) {
                        Ok(()) => {
                            assert!(
                                model.insert(page, (pa, perms)).is_none(),
                                "seed {seed} op {op}: page map over a mapped page"
                            );
                        }
                        Err(DvmError::VaRangeBusy { .. }) => {
                            assert!(
                                model.contains_key(&page),
                                "seed {seed} op {op}: busy error on an unmapped page"
                            );
                        }
                        Err(e) => panic!("seed {seed} op {op}: {e}"),
                    }
                }
                4 => {
                    pt.unmap_region(&mut mem, &mut alloc, va, len)
                        .unwrap_or_else(|e| panic!("seed {seed} op {op}: {e}"));
                    for p in page..page + pages {
                        model.remove(&p);
                    }
                }
                5 => {
                    pt.protect_region(&mut mem, &mut alloc, va, len, perms)
                        .unwrap_or_else(|e| panic!("seed {seed} op {op}: {e}"));
                    for p in page..page + pages {
                        if let Some(entry) = model.get_mut(&p) {
                            entry.1 = perms;
                        }
                    }
                }
                _ => {
                    let pa = alien_pa(rng.below(512));
                    pt.remap_page(&mut mem, &mut alloc, va, pa, perms)
                        .unwrap_or_else(|e| panic!("seed {seed} op {op}: {e}"));
                    model.insert(page, (pa, perms));
                }
            }
            for p in (0..ARENA_PAGES).step_by(61) {
                assert_eq!(
                    pt.translate(&mem, va_of(p)),
                    model.get(&p).copied(),
                    "seed {seed} op {op}: page {p}"
                );
            }
        }
        for p in 0..ARENA_PAGES {
            assert_eq!(
                pt.translate(&mem, va_of(p)),
                model.get(&p).copied(),
                "seed {seed} final sweep: page {p}"
            );
        }
        pt.free_all(&mut mem, &mut alloc);
        assert_eq!(
            alloc.free_frames_count(),
            FRAMES,
            "seed {seed}: table frames leaked"
        );
    }
}
