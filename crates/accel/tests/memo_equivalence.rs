//! The IOMMU's walk memo is a pure cache: a run with it disabled must be
//! *bit-identical* — results, property arrays, every IOMMU counter, every
//! DRAM counter — to the default run on all seven paper configurations.
//! This is the whole-system counterpart of the walk memo's unit tests in
//! `dvm-mmu`.

use dvm_accel::{layout, run, AccelConfig, Workload};
use dvm_energy::EnergyParams;
use dvm_graph::{rmat, to_bipartite, Graph, RmatParams};
use dvm_mem::{Dram, DramConfig, MachineConfig};
use dvm_mmu::{Iommu, MemSystem, SchemeId};
use dvm_os::{MapFlavor, Os, OsConfig};

fn os_for(config: SchemeId) -> Os {
    let flavor = match config.required_leaf_size() {
        Some(page_size) => MapFlavor::Paged(page_size),
        None => MapFlavor::DvmPe,
    };
    Os::new(OsConfig {
        machine: MachineConfig { mem_bytes: 8 << 30 },
        flavor,
        maintain_bitmap: config.needs_bitmap(),
        ..OsConfig::default()
    })
}

/// Everything observable about a run, formatted so a plain `assert_eq!`
/// reports the first diverging component.
struct Observation {
    result: String,
    props_u32: Vec<u32>,
    props_f32: Vec<u32>,
    iommu: String,
    dram: String,
}

fn observe(config: SchemeId, workload: &Workload, graph: &Graph, walk_memo: bool) -> Observation {
    let mut os = os_for(config);
    let pid = os.spawn().unwrap();
    let g = layout::load_graph(&mut os, pid, graph, workload.prop_stride()).unwrap();
    let mut iommu = Iommu::new(config, EnergyParams::default());
    iommu.set_walk_memo(walk_memo);
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
    let result = run(workload, &g, &mut sys, &AccelConfig::default()).unwrap();
    let props_u32 = dvm_accel::dump_props_u32(&sys, &g);
    // Compare float properties by bit pattern: equality must be exact,
    // including any NaN payloads.
    let props_f32 = dvm_accel::dump_props_f32(&sys, &g)
        .into_iter()
        .map(f32::to_bits)
        .collect();
    Observation {
        result: format!("{result:?}"),
        props_u32,
        props_f32,
        iommu: format!(
            "{:?} tlb={:?} ptc={:?} bitmap={:?} energy={:?}",
            sys.iommu.stats,
            sys.iommu.tlb_stats(),
            sys.iommu.ptc_stats(),
            sys.iommu.bitmap_cache_stats(),
            sys.iommu.energy,
        ),
        dram: format!(
            "reads={} writes={} channels={:?}",
            sys.dram.reads(),
            sys.dram.writes(),
            sys.dram.channel_accesses(),
        ),
    }
}

fn assert_equivalent(workload: &Workload, graph: &Graph) {
    for config in SchemeId::PAPER_SET {
        let with = observe(config, workload, graph, true);
        let without = observe(config, workload, graph, false);
        assert_eq!(with.result, without.result, "{config}: run result");
        assert_eq!(with.props_u32, without.props_u32, "{config}: u32 props");
        assert_eq!(with.props_f32, without.props_f32, "{config}: f32 props");
        assert_eq!(with.iommu, without.iommu, "{config}: IOMMU state");
        assert_eq!(with.dram, without.dram, "{config}: DRAM counters");
    }
}

#[test]
fn bfs_is_memo_invariant_on_all_configs() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(&Workload::Bfs { root: 0 }, &graph);
}

#[test]
fn pagerank_is_memo_invariant_on_all_configs() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(&Workload::PageRank { iterations: 2 }, &graph);
}

#[test]
fn sssp_is_memo_invariant_on_all_configs() {
    let graph = rmat(9, 8, RmatParams::default(), 42);
    assert_equivalent(
        &Workload::Sssp {
            root: 0,
            max_iterations: 64,
        },
        &graph,
    );
}

#[test]
fn cf_is_memo_invariant_on_all_configs() {
    let graph = to_bipartite(&rmat(9, 8, RmatParams::default(), 43), 400, 80);
    assert_equivalent(
        &Workload::Cf {
            iterations: 1,
            features: 8,
        },
        &graph,
    );
}
