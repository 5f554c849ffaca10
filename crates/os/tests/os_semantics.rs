//! OS-level semantics: identity mapping with fallback, fork/CoW, memory
//! reclamation, and the DVM-BM bitmap's coherence with the page tables.

use dvm_mem::MachineConfig;
use dvm_os::{MapFlavor, Os, OsConfig, VmaKind};
use dvm_types::{DvmError, PageSize, Permission, VirtAddr, PAGE_SIZE};

fn small_os() -> Os {
    Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 256 << 20,
        },
        ..OsConfig::default()
    })
}

#[test]
fn mmap_is_identity_until_memory_pressure() {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 64 << 20,
        },
        ..OsConfig::default()
    });
    let pid = os.spawn().unwrap();
    let mut identity = 0;
    let mut fallback = 0;
    // Allocate 8 MiB chunks until even fallback fails.
    loop {
        match os.mmap(pid, 8 << 20, Permission::ReadWrite) {
            Ok(va) => {
                if os.process(pid).unwrap().vma_at(va).unwrap().is_identity() {
                    identity += 1;
                } else {
                    fallback += 1;
                }
            }
            Err(DvmError::OutOfMemory { .. }) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(
        identity >= 6,
        "most of 64 MiB should identity-map: {identity}"
    );
    // The Figure 7 fallback path engaged before hard failure (the final
    // attempt may fall back and then fail outright, so the stat can
    // exceed the successful-fallback count).
    assert!(os.stats.identity_fallbacks as usize >= fallback);
}

#[test]
fn demand_paged_fallback_is_usable_and_non_identity() {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 256 << 20,
        },
        identity_enabled: false, // ablation: force the fallback path
        ..OsConfig::default()
    });
    let pid = os.spawn().unwrap();
    let va = os.mmap(pid, 1 << 20, Permission::ReadWrite).unwrap();
    let (pa, _) = os.translate(pid, va).unwrap();
    assert_ne!(pa.raw(), va.raw(), "fallback must not be identity");
    os.write_u64(pid, va, 77).unwrap();
    assert_eq!(os.read_u64(pid, va).unwrap(), 77);
    assert_eq!(os.stats.identity_maps, 0);
}

#[test]
fn fork_shares_then_copies_on_write() {
    let mut os = small_os();
    let parent = os.spawn().unwrap();
    let buf = os.mmap(parent, 256 << 10, Permission::ReadWrite).unwrap();
    os.write_u64(parent, buf, 1).unwrap();
    os.write_u64(parent, buf + 8 * 4096, 2).unwrap();

    let child = os.fork(parent).unwrap();
    // Shared state visible in both.
    assert_eq!(os.read_u64(child, buf).unwrap(), 1);
    assert_eq!(os.read_u64(child, buf + 8 * 4096).unwrap(), 2);
    // Same physical frame before any write.
    assert_eq!(
        os.translate(parent, buf).unwrap().0,
        os.translate(child, buf).unwrap().0
    );

    // Child write -> private copy; parent unchanged.
    os.write_u64(child, buf, 100).unwrap();
    assert_eq!(os.read_u64(child, buf).unwrap(), 100);
    assert_eq!(os.read_u64(parent, buf).unwrap(), 1);
    assert_ne!(
        os.translate(parent, buf).unwrap().0,
        os.translate(child, buf).unwrap().0
    );
    // Untouched pages still shared.
    assert_eq!(
        os.translate(parent, buf + 8 * 4096).unwrap().0,
        os.translate(child, buf + 8 * 4096).unwrap().0
    );
    assert!(os.stats.cow_faults >= 1);
}

#[test]
fn parent_write_after_child_copy_reuses_in_place() {
    let mut os = small_os();
    let parent = os.spawn().unwrap();
    let buf = os.mmap(parent, 128 << 10, Permission::ReadWrite).unwrap();
    os.write_u64(parent, buf, 5).unwrap();
    let child = os.fork(parent).unwrap();
    os.write_u64(child, buf, 6).unwrap(); // child copies
    os.write_u64(parent, buf, 7).unwrap(); // parent now sole owner: reuse
    assert_eq!(os.read_u64(parent, buf).unwrap(), 7);
    assert_eq!(os.read_u64(child, buf).unwrap(), 6);
    // Parent's page is identity mapped again (reuse keeps VA==PA).
    assert_eq!(os.translate(parent, buf).unwrap().0.raw(), buf.raw());
    assert!(os.stats.cow_reuses >= 1);
}

#[test]
fn exit_reclaims_all_memory_even_after_fork() {
    let mut os = small_os();
    let free_at_boot = os.machine.allocator.free_frames_count();
    let parent = os.spawn().unwrap();
    let buf = os.mmap(parent, 1 << 20, Permission::ReadWrite).unwrap();
    os.write_u64(parent, buf, 9).unwrap();
    let child = os.fork(parent).unwrap();
    os.write_u64(child, buf, 10).unwrap(); // one CoW copy
    os.exit(child).unwrap();
    // Parent still works after child exit.
    assert_eq!(os.read_u64(parent, buf).unwrap(), 9);
    os.write_u64(parent, buf + 4096, 11).unwrap();
    os.exit(parent).unwrap();
    assert_eq!(
        os.machine.allocator.free_frames_count(),
        free_at_boot,
        "all frames (data, tables, CoW copies) reclaimed"
    );
    assert_eq!(os.machine.mem.resident_frames(), 0);
}

#[test]
fn munmap_allows_reallocation_of_the_same_pa() {
    let mut os = small_os();
    let pid = os.spawn().unwrap();
    let a = os.mmap(pid, 4 << 20, Permission::ReadWrite).unwrap();
    os.munmap(pid, a).unwrap();
    let b = os.mmap(pid, 4 << 20, Permission::ReadWrite).unwrap();
    assert_eq!(a, b, "lowest-address-first reuses the freed block");
    os.write_u64(pid, b, 3).unwrap();
    assert_eq!(os.read_u64(pid, b).unwrap(), 3);
}

#[test]
fn mprotect_changes_permissions_without_breaking_identity() {
    let mut os = small_os();
    let pid = os.spawn().unwrap();
    let buf = os.mmap(pid, 256 << 10, Permission::ReadWrite).unwrap();
    os.write_u64(pid, buf, 1).unwrap();
    os.mprotect(pid, buf, Permission::ReadOnly).unwrap();
    let (pa, perms) = os.translate(pid, buf).unwrap();
    assert_eq!(pa.raw(), buf.raw());
    assert_eq!(perms, Permission::ReadOnly);
    assert!(os.write_u64(pid, buf, 2).is_err());
    assert_eq!(os.read_u64(pid, buf).unwrap(), 1);
}

#[test]
fn bitmap_tracks_mappings_when_enabled() {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 256 << 20,
        },
        maintain_bitmap: true,
        ..OsConfig::default()
    });
    let pid = os.spawn().unwrap();
    let buf = os.mmap(pid, 128 << 10, Permission::ReadWrite).unwrap();
    let bitmap = os.bitmap.expect("bitmap maintained");
    let vpn = buf.raw() / PAGE_SIZE;
    assert_eq!(bitmap.perms_of(&os.machine.mem, vpn), Permission::ReadWrite);
    os.munmap(pid, buf).unwrap();
    assert_eq!(bitmap.perms_of(&os.machine.mem, vpn), Permission::None);
}

#[test]
fn bitmap_goes_conservative_on_cow() {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 256 << 20,
        },
        maintain_bitmap: true,
        ..OsConfig::default()
    });
    let parent = os.spawn().unwrap();
    let buf = os.mmap(parent, 128 << 10, Permission::ReadWrite).unwrap();
    let vpn = buf.raw() / PAGE_SIZE;
    let child = os.fork(parent).unwrap();
    // Fork marks shared identity pages read-only in the bitmap.
    let bitmap = os.bitmap.expect("bitmap");
    assert_eq!(bitmap.perms_of(&os.machine.mem, vpn), Permission::ReadOnly);
    // After a CoW write the VA means different frames in the two
    // processes, so the system-wide bitmap must stay 00 forever.
    os.write_u64(child, buf, 1).unwrap();
    assert_eq!(bitmap.perms_of(&os.machine.mem, vpn), Permission::None);
}

#[test]
fn huge_page_flavours_pad_and_align() {
    for (flavor, granule) in [
        (MapFlavor::Paged(PageSize::Size2M), 2 << 20),
        (MapFlavor::Paged(PageSize::Size1G), 1 << 30),
    ] {
        let mut os = Os::new(OsConfig {
            machine: MachineConfig { mem_bytes: 4 << 30 },
            flavor,
            ..OsConfig::default()
        });
        let pid = os.spawn().unwrap();
        let va = os.mmap(pid, 3 << 20, Permission::ReadWrite).unwrap();
        assert_eq!(va.raw() % granule, 0, "{flavor:?} alignment");
        let vma_len = os.process(pid).unwrap().vma_at(va).unwrap().len;
        assert_eq!(vma_len % granule, 0, "{flavor:?} padding");
    }
}

#[test]
fn segment_kinds_are_recorded() {
    let mut os = small_os();
    let pid = os.spawn().unwrap();
    let code = os
        .mmap_kind(pid, 1 << 20, Permission::ReadExec, VmaKind::Code)
        .unwrap();
    let stack = os
        .mmap_kind(pid, 1 << 20, Permission::ReadWrite, VmaKind::Stack)
        .unwrap();
    let proc = os.process(pid).unwrap();
    assert_eq!(proc.vma_at(code).unwrap().kind, VmaKind::Code);
    assert_eq!(proc.vma_at(stack).unwrap().kind, VmaKind::Stack);
    // Executing code is allowed, writing it is not.
    assert_eq!(os.translate(pid, code).unwrap().1, Permission::ReadExec);
}

#[test]
fn aslr_varies_demand_area_between_seeds() {
    let mut bases = std::collections::HashSet::new();
    for seed in 0..8 {
        let mut os = Os::new(OsConfig {
            machine: MachineConfig {
                mem_bytes: 64 << 20,
            },
            identity_enabled: false,
            aslr_seed: seed,
            ..OsConfig::default()
        });
        let pid = os.spawn().unwrap();
        let va = os.mmap(pid, 1 << 20, Permission::ReadWrite).unwrap();
        bases.insert(va);
    }
    assert!(bases.len() >= 7, "ASLR should vary placements: {bases:?}");
    for va in bases {
        assert!(va >= VirtAddr::new(1 << 46), "demand area is high");
    }
}

#[test]
fn vfork_shares_the_address_space_without_copying() {
    let mut os = small_os();
    let parent = os.spawn().unwrap();
    let buf = os.mmap(parent, 128 << 10, Permission::ReadWrite).unwrap();
    os.write_u64(parent, buf, 1).unwrap();

    let child = os.vfork(parent).unwrap();
    // Same translation, full write permission (no CoW protection).
    assert_eq!(
        os.translate(parent, buf).unwrap(),
        os.translate(child, buf).unwrap()
    );
    // A child write is immediately visible to the parent.
    os.write_u64(child, buf, 2).unwrap();
    assert_eq!(os.read_u64(parent, buf).unwrap(), 2);
    // Identity mapping survives (the paper's point in recommending vfork).
    assert_eq!(os.translate(parent, buf).unwrap().0.raw(), buf.raw());
    assert_eq!(os.stats.cow_faults, 0);

    // Child exit releases nothing; the parent's memory still works.
    let free_before = os.machine.allocator.free_frames_count();
    os.exit(child).unwrap();
    assert_eq!(os.machine.allocator.free_frames_count(), free_before);
    assert_eq!(os.read_u64(parent, buf).unwrap(), 2);
}

#[test]
fn fork_exit_storm_reclaims_every_cow_frame() {
    // Multi-generation fork storm with writes from every generation and
    // exits in both orders (parent-first and child-first): after the last
    // process exits, the allocator must be back at its boot state — no
    // CoW frame may leak through the refcount bookkeeping.
    let mut os = small_os();
    let free_at_boot = os.machine.allocator.free_frames_count();
    let mut rng = dvm_sim::DetRng::new(0x57012);
    // The allocator's full state (free lists and allocation map) after
    // every exit, hashed per round: teardown must free the same frames in
    // the same buddy layout, not just the same number of them.
    let mut layouts = Vec::new();

    for round in 0..8u64 {
        let root = os.spawn().unwrap();
        let buf = os.mmap(root, 2 << 20, Permission::ReadWrite).unwrap();
        let pages = (2 << 20) / PAGE_SIZE;
        os.write_u64(root, buf, round).unwrap();

        // Three generations: root -> children -> grandchildren.
        let mut family = vec![root];
        for _ in 0..3 {
            let parent = family[rng.below(family.len() as u64) as usize];
            let child = os.fork(parent).unwrap();
            // The child privatizes a scattered set of pages.
            for k in 0..8 {
                let page = (k * 5 + round) % pages;
                os.write_u64(child, buf + page * PAGE_SIZE, child.into())
                    .unwrap();
            }
            family.push(child);
        }
        // Parent writes break CoW from the other side too.
        os.write_u64(root, buf + PAGE_SIZE, round).unwrap();

        // Exit in a round-dependent order so both parent-before-child and
        // child-before-parent paths are exercised.
        if round % 2 == 0 {
            family.reverse();
        }
        let mut layout = String::new();
        for pid in family {
            os.exit(pid).unwrap();
            let alloc = &os.machine.allocator;
            layout += &format!("{alloc:?} {:?}\n", alloc.free_runs());
        }
        layouts.push(dvm_sim::fnv1a(layout.as_bytes()));
        assert_eq!(
            os.machine.allocator.free_frames_count(),
            free_at_boot,
            "round {round}: CoW frames leaked after full-family exit"
        );
    }
    assert_eq!(os.machine.mem.resident_frames(), 0);
    assert!(os.stats.cow_faults > 0, "storm never exercised CoW");
    assert_eq!(
        layouts,
        [
            0xb8c9_9eec_7dc7_88cd,
            0x7962_c0db_551e_708e,
            0xb8c9_9eec_7dc7_88cd,
            0x5dbe_99bb_18a2_5d0a,
            0xb8c9_9eec_7dc7_88cd,
            0xcddc_7c1d_e2e3_0d02,
            0xb8c9_9eec_7dc7_88cd,
            0x265b_d24d_7db6_d579,
        ],
        "teardown changed the allocator layout"
    );
}

#[test]
fn churn_scenario_drains_without_leaks() {
    // The long-horizon churn driver is itself a fork/exec/exit storm;
    // its end-of-run drain must return the allocator to boot state.
    let result = dvm_os::churn::run(&dvm_os::ChurnConfig {
        mem_bytes: 128 << 20,
        epochs: 12,
        arrivals_per_epoch: 5,
        cow_fork_fraction: 0.5,
        mean_lifetime_epochs: 3,
        regions_per_proc: 2,
        min_region_bytes: 64 << 10,
        max_region_bytes: 2 << 20,
        ..dvm_os::ChurnConfig::default()
    })
    .unwrap();
    assert_eq!(result.leaked_frames, 0, "drain left frames allocated");
    assert!(
        result.epochs.iter().map(|e| e.cow_breaks).sum::<u64>() > 0,
        "scenario never broke a CoW page"
    );
}

#[test]
fn churn_teardown_layout_is_pinned() {
    // A smoke-size churn run forks, breaks CoW pages, execs, munmaps and
    // exits; each epoch snapshots the free-run layout. The first three
    // runs identity-map every region, one per flavour. On 48 MiB,
    // Paged-4K falls back to demand paging; with identity mapping off,
    // DVM-PE demand-pages every region frame by frame. The digests were
    // recorded before teardown freed frames in runs, which must
    // reproduce every epoch byte for byte.
    let smoke = dvm_os::ChurnConfig {
        mem_bytes: 128 << 20,
        epochs: 12,
        arrivals_per_epoch: 5,
        cow_fork_fraction: 0.5,
        mean_lifetime_epochs: 3,
        regions_per_proc: 2,
        min_region_bytes: 64 << 10,
        max_region_bytes: 2 << 20,
        exec_chance: 0.2,
        free_region_chance: 0.3,
        ..dvm_os::ChurnConfig::default()
    };
    let configs = [
        smoke,
        dvm_os::ChurnConfig {
            flavor: MapFlavor::Paged(PageSize::Size4K),
            ..smoke
        },
        dvm_os::ChurnConfig {
            flavor: MapFlavor::Paged(PageSize::Size2M),
            ..smoke
        },
        dvm_os::ChurnConfig {
            mem_bytes: 48 << 20,
            flavor: MapFlavor::Paged(PageSize::Size4K),
            ..smoke
        },
        dvm_os::ChurnConfig {
            identity_enabled: false,
            ..smoke
        },
    ];
    let results: Vec<_> = configs
        .iter()
        .map(|config| dvm_os::churn::run(config).unwrap())
        .collect();
    for (config, result) in configs.iter().zip(&results) {
        assert_eq!(result.leaked_frames, 0, "{config:?} leaked frames");
        assert!(result.epochs.iter().any(|e| e.cow_breaks > 0));
        let demand_bytes: u64 = result.epochs.iter().map(|e| e.demand_bytes).sum();
        let identity_only = config.identity_enabled && config.mem_bytes == smoke.mem_bytes;
        assert_eq!(demand_bytes == 0, identity_only, "{config:?}");
    }
    let digests: Vec<u64> = results
        .iter()
        .map(|result| dvm_sim::fnv1a(format!("{result:?}").as_bytes()))
        .collect();
    assert_eq!(
        digests,
        [
            0xb2f9_35a1_e206_8e78,
            0xdc9a_1540_0cd5_08f5,
            0xad8b_bd3e_aa81_7527,
            0x61a9_36d7_1c98_021e,
            0x60a7_5753_825f_7335,
        ],
        "teardown changed a churn trajectory"
    );
}

#[test]
fn fork_that_runs_out_of_memory_leaks_nothing() {
    // A 2 GiB machine under 12 arrivals per epoch runs out of memory in
    // the middle of some forks. A failed fork must leave no half-built
    // child and no frame reference behind. The seed is the stock churn
    // seed 42 XOR the splitmix64 scramble of 4, a schedule known to fail
    // forks mid-build.
    let result = dvm_os::churn::run(&dvm_os::ChurnConfig {
        mem_bytes: 2 << 30,
        epochs: 48,
        arrivals_per_epoch: 12,
        mean_lifetime_epochs: 8,
        max_region_bytes: 16 << 20,
        seed: 0x6e73_e372_e233_8ae0,
        ..dvm_os::ChurnConfig::default()
    })
    .unwrap();
    assert!(
        result.epochs.iter().map(|e| e.oom_events).sum::<u64>() > 0,
        "scenario never ran out of memory"
    );
    assert_eq!(result.leaked_frames, 0, "a failed fork leaked frames");
}

#[test]
fn fork_failing_mid_build_leaves_no_trace() {
    // Fill a small machine, then hand frames back one hog page at a time
    // and retry the fork: every failed attempt, including those that ran
    // out of table frames after the child was spawned, must leave the
    // free-frame count and the process set exactly as they were.
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 16 << 20,
        },
        ..OsConfig::default()
    });
    let free_at_boot = os.machine.allocator.free_frames_count();
    let parent = os.spawn().unwrap();
    let buf = os.mmap(parent, 256 << 10, Permission::ReadWrite).unwrap();
    os.write_u64(parent, buf, 7).unwrap();
    let hog = os.spawn().unwrap();
    let mut hog_pages = Vec::new();
    loop {
        match os.mmap(hog, PAGE_SIZE, Permission::ReadWrite) {
            Ok(va) => hog_pages.push(va),
            Err(DvmError::OutOfMemory { .. }) => break,
            Err(e) => panic!("hog mmap: {e}"),
        }
    }
    let mut failed = 0;
    let child = loop {
        let free = os.machine.allocator.free_frames_count();
        match os.fork(parent) {
            Ok(child) => break child,
            Err(DvmError::OutOfMemory { .. }) => {
                failed += 1;
                assert_eq!(os.machine.allocator.free_frames_count(), free);
                os.munmap(hog, hog_pages.pop().expect("fork fits eventually"))
                    .unwrap();
            }
            Err(e) => panic!("fork: {e}"),
        }
    };
    assert!(failed > 0, "memory was never tight enough to fail a fork");
    for pid in hog + 1..child {
        assert!(
            os.process(pid).is_err(),
            "half-built child {pid} left behind"
        );
    }
    assert_eq!(os.read_u64(child, buf).unwrap(), 7);
    for pid in [child, hog, parent] {
        os.exit(pid).unwrap();
    }
    assert_eq!(os.machine.allocator.free_frames_count(), free_at_boot);
}

/// One process with one 1 MiB identity region, every page written.
fn identity_region(os: &mut Os) -> (dvm_os::Pid, VirtAddr) {
    let pid = os.spawn().unwrap();
    let buf = os.mmap(pid, 1 << 20, Permission::ReadWrite).unwrap();
    assert!(os.process(pid).unwrap().vma_at(buf).unwrap().is_identity());
    for page in 0..(1 << 20) / PAGE_SIZE {
        os.write_u64(pid, buf + page * PAGE_SIZE, page).unwrap();
    }
    (pid, buf)
}

fn assert_drained(os: &Os, free_at_boot: u64) {
    assert_eq!(os.machine.allocator.free_frames_count(), free_at_boot);
    assert_eq!(os.machine.mem.resident_frames(), 0);
}

#[test]
fn teardown_frees_around_a_cow_private_page_in_the_middle() {
    // Both exit orders: the child's private copy of page 100 splits the
    // identity frames either side of it into two runs.
    for child_first in [true, false] {
        let mut os = small_os();
        let free_at_boot = os.machine.allocator.free_frames_count();
        let (parent, buf) = identity_region(&mut os);
        let child = os.fork(parent).unwrap();
        os.write_u64(child, buf + 100 * PAGE_SIZE, 7).unwrap();
        let order = if child_first {
            [child, parent]
        } else {
            [parent, child]
        };
        for pid in order {
            os.exit(pid).unwrap();
        }
        assert_drained(&os, free_at_boot);
    }
}

#[test]
fn teardown_skips_a_swapped_out_page_in_the_middle() {
    let mut os = small_os();
    let free_at_boot = os.machine.allocator.free_frames_count();
    let (pid, buf) = identity_region(&mut os);
    let mut store = dvm_os::SwapStore::new();
    os.swap_out(pid, buf + 100 * PAGE_SIZE, &mut store).unwrap();
    os.exit(pid).unwrap();
    assert_drained(&os, free_at_boot);
}

#[test]
fn teardown_frees_a_page_swapped_back_to_its_identity_frame() {
    // Swap-in reclaims the identity frame as an allocation of its own, so
    // the region's frames now belong to three adjacent allocations.
    let mut os = small_os();
    let free_at_boot = os.machine.allocator.free_frames_count();
    let (pid, buf) = identity_region(&mut os);
    let mut store = dvm_os::SwapStore::new();
    let victim = buf + 100 * PAGE_SIZE;
    os.swap_out(pid, victim, &mut store).unwrap();
    assert!(os.swap_in(pid, victim, &mut store).unwrap());
    os.exit(pid).unwrap();
    assert_drained(&os, free_at_boot);
}

#[test]
fn child_frees_an_identity_allocation_its_parent_split() {
    // The child privatizes page 100, so the parent is the last owner of
    // that identity frame and frees it on exit, splitting the allocation;
    // the child then frees the two halves.
    let mut os = small_os();
    let free_at_boot = os.machine.allocator.free_frames_count();
    let (parent, buf) = identity_region(&mut os);
    let child = os.fork(parent).unwrap();
    os.write_u64(child, buf + 100 * PAGE_SIZE, 7).unwrap();
    os.exit(parent).unwrap();
    assert_eq!(os.read_u64(child, buf + 99 * PAGE_SIZE).unwrap(), 99);
    assert_eq!(os.read_u64(child, buf + 100 * PAGE_SIZE).unwrap(), 7);
    os.exit(child).unwrap();
    assert_drained(&os, free_at_boot);
}

#[test]
fn munmap_of_a_shared_region_keeps_the_frames_for_the_sharer() {
    let mut os = small_os();
    let free_at_boot = os.machine.allocator.free_frames_count();
    let (parent, buf) = identity_region(&mut os);
    let child = os.fork(parent).unwrap();
    let free_before = os.machine.allocator.free_frames_count();
    os.munmap(parent, buf).unwrap();
    // Only the parent's page-table frames could come back; every data
    // frame is still the child's.
    assert!(os.machine.allocator.free_frames_count() - free_before < 8);
    assert_eq!(os.read_u64(child, buf + 200 * PAGE_SIZE).unwrap(), 200);
    os.munmap(child, buf).unwrap();
    for pid in [child, parent] {
        os.exit(pid).unwrap();
    }
    assert_drained(&os, free_at_boot);
}
