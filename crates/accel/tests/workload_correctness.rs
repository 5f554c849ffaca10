//! End-to-end correctness: every workload, executed through *every*
//! memory-management configuration, must produce results identical to the
//! host reference implementations — the timing scheme must never change
//! functional behaviour.

use dvm_accel::{layout, reference, run, AccelConfig, Workload};
use dvm_energy::EnergyParams;
use dvm_graph::{rmat, to_bipartite, Graph, RmatParams};
use dvm_mem::{Dram, DramConfig, MachineConfig};
use dvm_mmu::{Iommu, MemSystem, SchemeId};
use dvm_os::{MapFlavor, Os, OsConfig};
use dvm_sim::DetRng;

fn os_for(config: SchemeId) -> Os {
    let flavor = match config.required_leaf_size() {
        Some(page_size) => MapFlavor::Paged(page_size),
        None => MapFlavor::DvmPe,
    };
    Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: 8 << 30, // roomy: the 1G flavour pads every region
        },
        flavor,
        maintain_bitmap: config.needs_bitmap(),
        ..OsConfig::default()
    })
}

fn run_workload(
    config: SchemeId,
    workload: &Workload,
    graph: &Graph,
) -> (dvm_accel::RunResult, Vec<u32>, Vec<f32>) {
    run_with(config, workload, graph, &AccelConfig::default())
}

fn run_with(
    config: SchemeId,
    workload: &Workload,
    graph: &Graph,
    accel: &AccelConfig,
) -> (dvm_accel::RunResult, Vec<u32>, Vec<f32>) {
    let mut os = os_for(config);
    let pid = os.spawn().unwrap();
    let g = layout::load_graph(&mut os, pid, graph, workload.prop_stride()).unwrap();
    let mut iommu = Iommu::new(config, EnergyParams::default());
    let mut dram = Dram::new(DramConfig::default());
    let pt = os.process(pid).unwrap().page_table;
    let bitmap = os.bitmap;
    let mut sys = MemSystem::new(
        &mut iommu,
        &pt,
        bitmap.as_ref(),
        &mut os.machine.mem,
        &mut dram,
    );
    let result = run(workload, &g, &mut sys, accel).unwrap();
    let props_u32 = dvm_accel::dump_props_u32(&sys, &g);
    let props_f32 = dvm_accel::dump_props_f32(&sys, &g);
    (result, props_u32, props_f32)
}

fn test_graph() -> Graph {
    rmat(9, 8, RmatParams::default(), 42)
}

fn bipartite_graph() -> Graph {
    to_bipartite(&rmat(9, 8, RmatParams::default(), 43), 400, 80)
}

/// The seeded random-graph cases: 16 draws of an R-MAT seed in
/// `0..10_000`, each with its `DetRng` for further draws.
fn random_graph_cases() -> impl Iterator<Item = (u64, u64, DetRng)> {
    (0..16u64).map(|case| {
        let mut rng = DetRng::new(case);
        let seed = rng.below(10_000);
        (case, seed, rng)
    })
}

fn assert_sssp_close(dist: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(dist.len(), want.len(), "{ctx}");
    for (v, (&got, &want_v)) in dist.iter().zip(want).enumerate() {
        assert!(
            (got.is_infinite() && want_v.is_infinite())
                || (got - want_v).abs() <= 1e-4 * want_v.abs().max(1.0),
            "{ctx} vertex {v}: {got} vs {want_v}"
        );
    }
}

#[test]
fn bfs_matches_reference_on_all_configs() {
    let graph = test_graph();
    let want = reference::bfs_levels(&graph, 0);
    for config in SchemeId::PAPER_SET {
        let (_, levels, _) = run_workload(config, &Workload::Bfs { root: 0 }, &graph);
        assert_eq!(levels, want, "config {config}");
    }
    // Any R-MAT seed and any root, under DVM-PE+.
    for (case, seed, mut rng) in random_graph_cases() {
        let graph = rmat(8, 4, RmatParams::default(), seed);
        let root = rng.below(256) as u32 % graph.num_vertices();
        let (result, levels, _) =
            run_workload(SchemeId::DVM_PE_PLUS, &Workload::Bfs { root }, &graph);
        let ctx = format!("case {case}: rmat seed {seed}, root {root}");
        assert_eq!(levels, reference::bfs_levels(&graph, root), "{ctx}");
        assert!(result.cycles > 0, "{ctx}");
    }
}

#[test]
fn pagerank_matches_reference_on_all_configs() {
    let graph = test_graph();
    let want = reference::pagerank(&graph, 2);
    for config in SchemeId::PAPER_SET {
        let (_, _, ranks) = run_workload(config, &Workload::PageRank { iterations: 2 }, &graph);
        assert_eq!(ranks, want, "config {config} (bitwise CSR-order match)");
    }
    for (case, seed, _) in random_graph_cases() {
        let graph = rmat(8, 4, RmatParams::default(), seed);
        let workload = Workload::PageRank { iterations: 2 };
        let (_, _, ranks) = run_workload(SchemeId::DVM_PE_PLUS, &workload, &graph);
        assert_eq!(
            ranks,
            reference::pagerank(&graph, 2),
            "case {case}: rmat seed {seed} (bitwise)"
        );
    }
}

#[test]
fn sssp_matches_dijkstra_on_all_configs() {
    let graph = test_graph();
    let want = reference::sssp_distances(&graph, 0);
    for config in [SchemeId::IDEAL, SchemeId::DVM_PE_PLUS, SchemeId::CONV_4K] {
        let (_, _, dist) = run_workload(
            config,
            &Workload::Sssp {
                root: 0,
                max_iterations: 512,
            },
            &graph,
        );
        assert_sssp_close(&dist, &want, &format!("config {config}"));
    }
    for (case, seed, _) in random_graph_cases() {
        let graph = rmat(8, 4, RmatParams::default(), seed);
        let workload = Workload::Sssp {
            root: 0,
            max_iterations: 256,
        };
        let (_, _, dist) = run_workload(SchemeId::DVM_PE_PLUS, &workload, &graph);
        let want = reference::sssp_distances(&graph, 0);
        assert_sssp_close(&dist, &want, &format!("case {case}: rmat seed {seed}"));
    }
}

#[test]
fn cf_matches_reference_sgd() {
    // 24 features make a 96-byte stride that does not divide the page, so
    // some feature rows straddle a page boundary.
    let graph = bipartite_graph();
    for features in [8u32, 24, 32] {
        let workload = Workload::Cf {
            iterations: 1,
            features,
        };
        let want = reference::cf_factors(&graph, 1, features);
        for config in SchemeId::all() {
            let mut os = os_for(config);
            let pid = os.spawn().unwrap();
            let g = layout::load_graph(&mut os, pid, &graph, workload.prop_stride()).unwrap();
            let mut iommu = Iommu::new(config, EnergyParams::default());
            let mut dram = Dram::new(DramConfig::default());
            let pt = os.process(pid).unwrap().page_table;
            let bitmap = os.bitmap;
            let mut sys = MemSystem::new(
                &mut iommu,
                &pt,
                bitmap.as_ref(),
                &mut os.machine.mem,
                &mut dram,
            );
            run(&workload, &g, &mut sys, &AccelConfig::default()).unwrap();
            // Dump every feature of every vertex, one translation each.
            let mut got = Vec::new();
            for v in 0..g.num_vertices {
                for f in 0..u64::from(features) {
                    let (pa, _) = sys.pt.translate(sys.mem, g.prop_entry(v) + f * 4).unwrap();
                    got.push(sys.mem.read_f32(pa).to_bits());
                }
            }
            let want_bits: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            assert!(got == want_bits, "config {config}, {features} features");
        }
    }
}

#[test]
fn identical_work_across_configs() {
    // The access stream (edges processed, iterations) must be independent
    // of the MMU scheme; only the timing differs.
    let graph = test_graph();
    let workload = Workload::Bfs { root: 0 };
    let mut baseline = None;
    for config in SchemeId::PAPER_SET {
        let (result, _, _) = run_workload(config, &workload, &graph);
        let key = (result.edges_processed, result.iterations);
        match &baseline {
            None => baseline = Some(key),
            Some(want) => assert_eq!(&key, want, "config {config}"),
        }
    }
}

#[test]
fn dvm_pe_is_faster_than_4k_and_slower_than_ideal() {
    // The DVM advantage needs a working set well beyond the 512 KiB reach
    // of the 128-entry 4K TLB (paper Figure 2); scale 17 gives a ~14 MiB
    // footprint.
    let graph = rmat(17, 8, RmatParams::default(), 7);
    let workload = Workload::PageRank { iterations: 1 };
    let (ideal, _, _) = run_workload(SchemeId::IDEAL, &workload, &graph);
    let (pe_plus, _, _) = run_workload(SchemeId::DVM_PE_PLUS, &workload, &graph);
    let (four_k, _, _) = run_workload(SchemeId::CONV_4K, &workload, &graph);
    assert!(ideal.cycles <= pe_plus.cycles);
    assert!(
        pe_plus.cycles < four_k.cycles,
        "DVM-PE+ {} vs 4K {}",
        pe_plus.cycles,
        four_k.cycles
    );
}

#[test]
fn engines_share_work() {
    let graph = test_graph();
    let (result, _, _) = run_workload(
        SchemeId::IDEAL,
        &Workload::PageRank { iterations: 1 },
        &graph,
    );
    assert_eq!(result.engine_cycles.len(), 8);
    let min = *result.engine_cycles.iter().min().unwrap();
    let max = *result.engine_cycles.iter().max().unwrap();
    assert!(min > 0, "every engine did work");
    assert!(max < min * 5, "load imbalance too extreme: {min}..{max}");
}

/// Timing shards across engines, but BFS levels are the same for any
/// engine count: 16 seeded `rmat(7, 4)` graphs with 1..16 engines.
#[test]
fn engine_count_does_not_change_results() {
    for case in 0..16u64 {
        let mut rng = DetRng::new(case);
        let seed = rng.below(1000);
        let engines = rng.range(1, 16) as u32;
        let graph = rmat(7, 4, RmatParams::default(), seed);
        let accel = AccelConfig {
            engines,
            ..AccelConfig::default()
        };
        let (_, levels, _) = run_with(SchemeId::IDEAL, &Workload::Bfs { root: 0 }, &graph, &accel);
        assert_eq!(
            levels,
            reference::bfs_levels(&graph, 0),
            "case {case}: rmat seed {seed}, {engines} engines"
        );
    }
}

#[test]
fn deterministic_cycles() {
    let graph = test_graph();
    let workload = Workload::Sssp {
        root: 0,
        max_iterations: 64,
    };
    let (a, _, _) = run_workload(SchemeId::DVM_PE, &workload, &graph);
    let (b, _, _) = run_workload(SchemeId::DVM_PE, &workload, &graph);
    assert_eq!(a, b);
}
