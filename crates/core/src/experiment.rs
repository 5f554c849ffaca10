//! The experiment runner: wires OS + IOMMU + DRAM + accelerator for one
//! (workload, graph, MMU-scheme) triple and reports the metrics the
//! paper's figures are built from.

use dvm_accel::{layout, run_via, AccelConfig, RunResult, Workload};
use dvm_energy::EnergyParams;
use dvm_graph::Graph;
use dvm_mem::{Dram, DramConfig, MachineConfig};
use dvm_mmu::{dispatch, Iommu, MemSystem, SchemeId};
use dvm_os::{MapFlavor, Os, OsConfig};
use dvm_sim::Cycles;
use dvm_types::DvmError;

/// Configuration of one accelerator experiment. The machine is sized
/// from the graph footprint, and the accelerator, DRAM and energy
/// parameters are the paper defaults: a report-cache key names only the
/// workload, dataset, divisor and scheme, so no other parameter may vary.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Memory-management scheme under test.
    pub mmu: SchemeId,
}

impl ExperimentConfig {
    /// Paper-default configuration for a scheme.
    pub fn for_mmu(mmu: SchemeId) -> Self {
        Self { mmu }
    }
}

/// The OS page-table flavour each MMU scheme requires.
pub fn flavor_for(mmu: SchemeId) -> MapFlavor {
    match mmu.required_leaf_size() {
        Some(page_size) => MapFlavor::Paged(page_size),
        // DVM variants and Ideal share the DVM OS (identity + PEs).
        None => MapFlavor::DvmPe,
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct GraphRunReport {
    /// Scheme that ran.
    pub mmu: SchemeId,
    /// Workload name.
    pub workload: &'static str,
    /// Accelerator execution time.
    pub cycles: Cycles,
    /// Raw accelerator result.
    pub run: RunResult,
    /// IOMMU accesses validated.
    pub accesses: u64,
    /// Translation TLB (hits, misses), when the scheme has one.
    pub tlb: Option<(u64, u64)>,
    /// PWC/AVC (hits, misses), when present.
    pub ptc: Option<(u64, u64)>,
    /// Bitmap cache (hits, misses), DVM-BM only.
    pub bitmap_cache: Option<(u64, u64)>,
    /// Walker memory references.
    pub walk_mem_refs: u64,
    /// Identity-validated accesses.
    pub identity_validations: u64,
    /// Fallback translations under DVM.
    pub fallback_translations: u64,
    /// Squashed preloads (DVM-PE+).
    pub preload_squashes: u64,
    /// Dynamic memory-management energy in picojoules.
    pub mm_energy_pj: f64,
    /// Total DRAM transactions (data + walker + squashes).
    pub dram_accesses: u64,
    /// Heap bytes of the graph arrays.
    pub heap_bytes: u64,
}

impl GraphRunReport {
    /// TLB miss rate, if the scheme has a TLB (Figure 2's metric).
    pub fn tlb_miss_rate(&self) -> Option<f64> {
        self.tlb.map(|(h, m)| {
            if h + m == 0 {
                0.0
            } else {
                m as f64 / (h + m) as f64
            }
        })
    }
}

/// Pick a machine size that fits the graph under every flavour; the
/// scheme's hint covers flavour-specific padding (e.g. 1 GiB pages).
fn auto_machine_bytes(graph_heap: u64, mmu: SchemeId) -> u64 {
    let padded = mmu.scheme().machine_bytes_hint(graph_heap);
    // Round up to a whole GiB for tidy bitmap sizing.
    padded.next_multiple_of(1 << 30)
}

/// Run one workload over one graph under one scheme.
///
/// # Errors
///
/// Propagates OS allocation failures and IOMMU faults (as
/// [`DvmError::Fault`]).
pub fn run_graph_experiment(
    workload: &Workload,
    graph: &Graph,
    config: &ExperimentConfig,
) -> Result<GraphRunReport, DvmError> {
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: auto_machine_bytes(graph.footprint_bytes(), config.mmu),
        },
        flavor: flavor_for(config.mmu),
        maintain_bitmap: config.mmu.needs_bitmap(),
        ..OsConfig::default()
    });
    let pid = os.spawn()?;
    let g = layout::load_graph(&mut os, pid, graph, workload.prop_stride())?;

    let mut iommu = Iommu::new(config.mmu, EnergyParams::default());
    let mut dram = Dram::new(DramConfig::default());
    let pt = os.process(pid)?.page_table;
    let bitmap = os.bitmap;
    let result = {
        let mut sys = MemSystem::new(
            &mut iommu,
            &pt,
            bitmap.as_ref(),
            &mut os.machine.mem,
            &mut dram,
        );
        let (g, sys, accel) = (&g, &mut sys, &AccelConfig::default());
        // Every scheme runs monomorphized (the registry's virtual call
        // would otherwise keep the whole per-access path out of the
        // inliner's reach); the dynamic arm only keeps the match total.
        // Either way the executed scheme code is identical —
        // `dispatch::Dyn` is the oracle the static tokens are tested
        // against in `dvm-accel`.
        match config.mmu {
            SchemeId::CONV_4K => run_via::<dispatch::Conv4K>(workload, g, sys, accel),
            SchemeId::CONV_2M => run_via::<dispatch::Conv2M>(workload, g, sys, accel),
            SchemeId::CONV_1G => run_via::<dispatch::Conv1G>(workload, g, sys, accel),
            SchemeId::DVM_BM => run_via::<dispatch::DvmBm>(workload, g, sys, accel),
            SchemeId::DVM_PE => run_via::<dispatch::DvmPe>(workload, g, sys, accel),
            SchemeId::DVM_PE_PLUS => run_via::<dispatch::DvmPePlus>(workload, g, sys, accel),
            SchemeId::IDEAL => run_via::<dispatch::Ideal>(workload, g, sys, accel),
            SchemeId::SVA_PF => run_via::<dispatch::SvaPf>(workload, g, sys, accel),
            SchemeId::SVA_IOMMU => run_via::<dispatch::SvaIommu>(workload, g, sys, accel),
            _ => run_via::<dispatch::Dyn>(workload, g, sys, accel),
        }
        .map_err(DvmError::from)?
    };

    let stats = &iommu.stats;
    Ok(GraphRunReport {
        mmu: config.mmu,
        workload: workload.name(),
        cycles: result.cycles,
        accesses: stats.accesses.get(),
        tlb: iommu.tlb_stats().map(|s| (s.hits(), s.misses())),
        ptc: iommu.ptc_stats().map(|s| (s.hits(), s.misses())),
        bitmap_cache: iommu.bitmap_cache_stats().map(|s| (s.hits(), s.misses())),
        walk_mem_refs: stats.walk_mem_refs.get(),
        identity_validations: stats.identity_validations.get(),
        fallback_translations: stats.fallback_translations.get(),
        preload_squashes: stats.preload_squashes.get(),
        mm_energy_pj: iommu.energy.total_pj(),
        dram_accesses: dram.accesses(),
        heap_bytes: g.heap_bytes(),
        run: result,
    })
}

/// Run a workload over a graph under every scheme in the paper's set,
/// in order; the last entry is the Ideal baseline.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn run_paper_configs(
    workload: &Workload,
    graph: &Graph,
) -> Result<Vec<GraphRunReport>, DvmError> {
    SchemeId::PAPER_SET
        .iter()
        .map(|&mmu| run_graph_experiment(workload, graph, &ExperimentConfig::for_mmu(mmu)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_graph::{rmat, RmatParams};

    #[test]
    fn reports_carry_scheme_specific_stats() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let conv = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::CONV_4K),
        )
        .unwrap();
        assert!(conv.tlb.is_some());
        assert!(conv.bitmap_cache.is_none());
        assert!(conv.mm_energy_pj > 0.0);

        let pe = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::DVM_PE_PLUS),
        )
        .unwrap();
        assert!(pe.tlb.is_none());
        assert!(pe.identity_validations > 0);

        let ideal = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        assert_eq!(ideal.mm_energy_pj, 0.0);
        assert!(ideal.cycles <= pe.cycles);
    }

    #[test]
    fn paper_set_runs_in_order() {
        let graph = rmat(9, 4, RmatParams::default(), 4);
        let reports = run_paper_configs(&Workload::PageRank { iterations: 1 }, &graph).unwrap();
        assert_eq!(reports.len(), 7);
        assert_eq!(reports[6].mmu, SchemeId::IDEAL);
        // All configs did identical functional work.
        for r in &reports {
            assert_eq!(r.run.edges_processed, reports[0].run.edges_processed);
        }
    }

    #[test]
    fn auto_sizing_covers_1g_padding() {
        let bytes = auto_machine_bytes(300 << 20, SchemeId::CONV_1G);
        assert!(bytes >= 7 << 30);
    }
}
