//! The graph workloads (`graph-translate`, `cf-vector`).
//!
//! A unit is one (kernel, dataset, scheme) simulation. The untraced pass
//! runs each unit through [`run_graph_experiment`] and serializes its
//! report with [`report_json`]. The traced pass composes the same
//! computation from the layers' public calls — OS layout, IOMMU/DRAM
//! construction, [`run_via`] — with a span around each, and must
//! reproduce the untraced report byte for byte. The functional check of
//! each traced unit runs after its span closes.

use crate::probe::Probe;
use crate::trace::{timed, Recorder};
use crate::{
    finish_trace, inputs, median, repeat_setup, set_core_metrics, set_setup, set_wall,
    timed_passes, Config, Outcome,
};
use dvm_accel::{dump_props_f32, dump_props_u32, layout, reference, run_via, AccelConfig};
use dvm_accel::{GraphInMemory, RunResult, Workload as Kernel};
use dvm_bench::{geomean, pair_label, paper_pairs, report_json};
use dvm_core::{flavor_for, parallel_map_ordered, run_graph_experiment, Dataset};
use dvm_core::{ExperimentConfig, GraphRunReport, SchemeId};
use dvm_energy::EnergyParams;
use dvm_graph::Graph;
use dvm_mem::{Dram, DramConfig, MachineConfig};
use dvm_mmu::{dispatch, Iommu, MemSystem, SchemeDispatch};
use dvm_os::{Os, OsConfig, OsStats, Pid};
use dvm_types::{DvmError, Fault};
use std::collections::HashMap;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Every registered builtin scheme, costliest to simulate first (host
/// ns per access on LJ: SVA-IOMMU ~72 down to Ideal ~16).
pub const ALL_SCHEMES: [SchemeId; 9] = [
    SchemeId::SVA_IOMMU,
    SchemeId::DVM_PE,
    SchemeId::DVM_PE_PLUS,
    SchemeId::SVA_PF,
    SchemeId::CONV_4K,
    SchemeId::DVM_BM,
    SchemeId::CONV_2M,
    SchemeId::CONV_1G,
    SchemeId::IDEAL,
];

/// The paper's Fig. 8 geomean slowdowns over Ideal (EXPERIMENTS.md).
const PAPER_FIG8: [(SchemeId, f64); 5] = [
    (SchemeId::CONV_4K, 2.2),
    (SchemeId::CONV_2M, 2.1),
    (SchemeId::DVM_BM, 1.23),
    (SchemeId::DVM_PE, 1.035),
    (SchemeId::DVM_PE_PLUS, 1.017),
];

/// Metric-name form of a scheme (metric names admit no `,` or `+`).
pub fn scheme_tag(mmu: SchemeId) -> &'static str {
    match mmu {
        SchemeId::CONV_4K => "4K",
        SchemeId::CONV_2M => "2M",
        SchemeId::CONV_1G => "1G",
        SchemeId::DVM_BM => "DVM-BM",
        SchemeId::DVM_PE => "DVM-PE",
        SchemeId::DVM_PE_PLUS => "DVM-PE_plus",
        SchemeId::IDEAL => "Ideal",
        SchemeId::SVA_PF => "SVA-Pf",
        SchemeId::SVA_IOMMU => "SVA-IOMMU",
        _ => "other",
    }
}

/// A graph workload: (kernel, dataset) cells, each run under every scheme.
///
/// Units run in spec order, and the spec puts the costliest units first:
/// the pool's tail then holds only short units, so which worker draws the
/// last unit barely moves `wall_s`. (In the figures' order the longest
/// unit came last and swung the wall by its whole length from run to
/// run.)
#[derive(Debug, Clone)]
pub struct Spec {
    /// Cells in spec order, with the figure harnesses' kernel parameters.
    pub cells: Vec<(Kernel, Dataset)>,
    /// Schemes run on every cell, in unit order; always includes Ideal.
    pub schemes: Vec<SchemeId>,
    /// How the workload's time moves with the probe's ([`Probe::new`]).
    pub sensitivity: f64,
}

impl Spec {
    /// The figures' (kernel, dataset) pairs over `datasets`, in reverse
    /// paper order: SSSP before PageRank before BFS, Bip1 before NF.
    fn from_pairs(datasets: &[Dataset], schemes: &[SchemeId], sensitivity: f64) -> Self {
        Self {
            cells: paper_pairs()
                .into_iter()
                .rev()
                .filter(|(_, d)| datasets.contains(d))
                .collect(),
            schemes: schemes.to_vec(),
            sensitivity,
        }
    }

    /// BFS and PageRank over FR under all 9 schemes.
    pub fn graph_translate() -> Self {
        let mut spec = Self::from_pairs(&[Dataset::Flickr], &ALL_SCHEMES, 1.5);
        spec.cells
            .retain(|(kernel, _)| !matches!(kernel, Kernel::Sssp { .. }));
        spec
    }

    /// CF over NF (0.1% 4K miss rate) under DVM-PE+, 4K and Ideal.
    pub fn cf_vector() -> Self {
        Self::from_pairs(
            &[Dataset::Netflix],
            &[SchemeId::DVM_PE_PLUS, SchemeId::CONV_4K, SchemeId::IDEAL],
            0.5,
        )
    }

    /// Distinct datasets, in first-use order.
    pub fn datasets(&self) -> Vec<Dataset> {
        let mut out: Vec<Dataset> = Vec::new();
        for &(_, d) in &self.cells {
            if !out.contains(&d) {
                out.push(d);
            }
        }
        out
    }

    fn units(&self) -> Vec<Unit> {
        let datasets = self.datasets();
        let mut units = Vec::new();
        for (cell, &(kernel, d)) in self.cells.iter().enumerate() {
            for &mmu in &self.schemes {
                units.push(Unit {
                    cell,
                    kernel,
                    dataset: datasets.iter().position(|&x| x == d).expect("listed"),
                    mmu,
                    label: format!("{}/{}", pair_label(&kernel, d), mmu.name()),
                });
            }
        }
        units
    }
}

/// One simulation.
#[derive(Debug, Clone)]
struct Unit {
    cell: usize,
    kernel: Kernel,
    /// Index into [`Spec::datasets`] (and the generated graphs).
    dataset: usize,
    mmu: SchemeId,
    label: String,
}

/// A finished unit: its report and the report's serialized form.
#[derive(Debug, Clone)]
struct Done {
    report: GraphRunReport,
    json: String,
}

/// An untraced unit's result with its host seconds.
type UnitOut = (Result<Done, DvmError>, f64);

/// A finished traced unit, with the time spent in each layer call.
#[derive(Debug, Clone)]
struct Traced {
    done: Done,
    os: OsStats,
    functional_ok: bool,
    layout_s: f64,
    run_s: f64,
    dump_s: f64,
    render_s: f64,
    unit_s: f64,
}

/// Functional output of a kernel: the property array (all features for
/// CF).
#[derive(Debug, Clone, PartialEq)]
enum Props {
    U32(Vec<u32>),
    F32(Vec<f32>),
}

/// Run a graph workload.
pub fn run(config: &Config, spec: &Spec) -> Outcome {
    let mut outcome = Outcome::default();
    let datasets = spec.datasets();
    let divisors: Vec<u32> = datasets
        .iter()
        .map(|&d| config.size.scale().divisor(d))
        .collect();
    let units = spec.units();
    outcome.record.push(("units", units.len().to_string()));
    outcome.record.push((
        "divisors",
        datasets
            .iter()
            .zip(&divisors)
            .map(|(d, div)| format!("{d}:{div}"))
            .collect::<Vec<_>>()
            .join(","),
    ));

    outcome.attempted = units.len() as u64;

    let rec = config.trace.then(Recorder::new);
    let probe = Probe::new(spec.sensitivity);
    let mut generate_busy = Vec::new();
    let (graphs, setup) = repeat_setup(&probe, config.workers, SETUP_REPS, 1, || {
        let indices: Vec<usize> = (0..datasets.len()).collect();
        let generated = parallel_map_ordered(&indices, config.workers, |&i| {
            timed(rec.as_ref(), "graph.generate", None, None, |_| {
                inputs::dataset_graph(datasets[i], divisors[i], config.seed)
            })
        });
        generate_busy.push(generated.iter().map(|(_, s)| s).sum::<f64>());
        generated
            .into_iter()
            .map(|(g, _)| g)
            .collect::<Vec<Graph>>()
    });
    set_setup(&mut outcome, &setup);

    let untraced = |graphs: &[Graph]| {
        probe.pool(&units, config.workers, |u| {
            timed(None, "core.unit", None, None, |_| {
                run_unit(u, &graphs[u.dataset])
            })
        })
    };

    let Some(rec) = rec else {
        let passes = timed_passes(&probe, config.workers, config.seconds, || untraced(&graphs));
        set_wall(&mut outcome, &passes);
        let first = &passes[0].0;
        gate(config, spec, &units, first, &mut outcome);
        for (later, _) in &passes[1..] {
            check_repeat(&units, first, later, &mut outcome);
        }
        if let Some(gap) = fig8_gap_pct(spec, &units, first) {
            outcome.record.push(("fig8_gap_pct", format!("{gap:.3}")));
        }
        return outcome;
    };

    // Traced run: a warm-up pass (the first pass in a process pays for
    // fresh memory), one untraced pass (the reference for the cycles
    // check, the pool accounting and the overhead), then the traced pass.
    outcome.set("graph.generate_s", median(&generate_busy));
    outcome.set(
        "graph.edges",
        graphs.iter().map(|g| g.num_edges() as f64).sum(),
    );
    drop(untraced(&graphs));
    let (plain, plain_timing) = probe.time(config.workers, || untraced(&graphs));
    gate(config, spec, &units, &plain, &mut outcome);

    let cell_graph = |cell: usize| {
        let d = spec.cells[cell].1;
        &graphs[datasets.iter().position(|&x| x == d).expect("listed")]
    };
    let cells: Vec<usize> = (0..spec.cells.len()).collect();
    let expected = parallel_map_ordered(&cells, config.workers, |&c| {
        expected_props(&spec.cells[c].0, cell_graph(c))
    });

    let ids: Vec<usize> = (0..units.len()).collect();
    let pass = rec.open("core.pass", None, None);
    let (traced, traced_timing) = probe.time(config.workers, || {
        probe.pool(&ids, config.workers, |&id| {
            let u = &units[id];
            run_unit_traced(u, &graphs[u.dataset], &expected[u.cell], &rec, pass, id)
        })
    });
    rec.close(pass);

    for (id, ((unit, (plain, _)), traced)) in units.iter().zip(&plain).zip(&traced).enumerate() {
        match (plain, traced) {
            (_, Err(e)) => outcome.fail(id, format!("{}: traced run failed: {e}", unit.label)),
            (Ok(p), Ok(t)) if p.json != t.done.json => outcome.fail(
                id,
                format!(
                    "{}: traced report differs (cycles {} vs {})",
                    unit.label, t.done.report.cycles, p.report.cycles
                ),
            ),
            (_, Ok(t)) if !t.functional_ok => outcome.fail(
                id,
                format!(
                    "{}: functional output differs from dvm_accel::reference",
                    unit.label
                ),
            ),
            _ => {}
        }
    }
    let ok: Vec<(&Unit, &Traced)> = units
        .iter()
        .zip(&traced)
        .filter_map(|(u, t)| t.as_ref().ok().map(|t| (u, t)))
        .collect();
    layer_metrics(spec, &ok, &mut outcome);
    if let Some(gap) = fig8_gap_pct(spec, &units, &plain) {
        outcome.set("sim.fig8_gap_pct", gap);
    }
    let plain_secs: Vec<f64> = plain.iter().map(|(_, s)| *s).collect();
    set_core_metrics(
        &mut outcome,
        &plain_secs,
        config.workers,
        plain_timing.raw_s,
    );
    finish_trace(
        &mut outcome,
        config,
        &rec,
        (plain_secs.iter().sum(), plain_timing),
        (ok.iter().map(|(_, t)| t.unit_s).sum(), traced_timing),
    );
    outcome
}

/// One untraced unit: exactly what the sweep engine runs per unit.
fn run_unit(unit: &Unit, graph: &Graph) -> Result<Done, DvmError> {
    let report = run_graph_experiment(&unit.kernel, graph, &ExperimentConfig::for_mmu(unit.mmu))?;
    let json = report_json(&report).to_string();
    Ok(Done { report, json })
}

/// The correctness gate over one untraced pass: a unit fails if it
/// errored, if at seed 0 its report differs from the quick golden, or if
/// it breaks a cross-scheme invariant against its cell's Ideal unit.
fn gate(config: &Config, spec: &Spec, units: &[Unit], outs: &[UnitOut], outcome: &mut Outcome) {
    let goldens = (config.seed == 0 && config.size == crate::Size::Quick).then(goldens);
    let ideal_of = |cell: usize| {
        units
            .iter()
            .zip(outs)
            .find(|(u, _)| u.cell == cell && u.mmu == SchemeId::IDEAL)
            .and_then(|(_, (o, _))| o.as_ref().ok())
    };
    for (id, (unit, (out, _))) in units.iter().zip(outs).enumerate() {
        let done = match out {
            Ok(done) => done,
            Err(e) => {
                outcome.fail(id, format!("{}: {e}", unit.label));
                continue;
            }
        };
        if let Some(goldens) = &goldens {
            let (kernel, dataset) = spec.cells[unit.cell];
            let key = (pair_label(&kernel, dataset), unit.mmu.name().to_string());
            if goldens.get(&key) != Some(&done.json) {
                outcome.fail(
                    id,
                    format!("{}: report differs from the golden", unit.label),
                );
                continue;
            }
        }
        let Some(ideal) = ideal_of(unit.cell) else {
            outcome.fail(id, format!("{}: no Ideal report in its cell", unit.label));
            continue;
        };
        let (r, i) = (&done.report, &ideal.report);
        let same_work = (r.run.edges_processed, r.run.iterations, r.accesses)
            == (i.run.edges_processed, i.run.iterations, i.accesses);
        if !same_work || r.cycles < i.cycles {
            outcome.fail(
                id,
                format!(
                    "{}: cross-scheme invariant broken against Ideal",
                    unit.label
                ),
            );
        }
    }
}

/// Later passes must reproduce the first pass's reports.
fn check_repeat(units: &[Unit], first: &[UnitOut], later: &[UnitOut], outcome: &mut Outcome) {
    for (id, ((unit, (a, _)), (b, _))) in units.iter().zip(first).zip(later).enumerate() {
        let same = matches!((a, b), (Ok(a), Ok(b)) if a.json == b.json);
        if !same {
            outcome.fail(id, format!("{}: a repeated pass differs", unit.label));
        }
    }
}

/// Rendered reports of the Fig. 8 and Fig. 11 quick goldens, keyed by
/// (row label, scheme name).
fn goldens() -> HashMap<(String, String), String> {
    let mut map = HashMap::new();
    for text in [
        include_str!("../../results/golden/fig8_quick.json"),
        include_str!("../../results/golden/fig11_quick.json"),
    ] {
        let doc = dvm_bench::parse(text).expect("golden parses");
        for row in doc.expect_arr("rows").expect("golden rows") {
            let label = row.expect_str("label").expect("row label");
            for report in row.expect_arr("reports").expect("row reports") {
                let mmu = report.expect_str("mmu").expect("report scheme");
                map.insert((label.to_string(), mmu.to_string()), report.to_string());
            }
        }
    }
    map
}

/// Mean relative gap, in percent, between the simulated Fig. 8 geomean
/// slowdowns and the paper's, over the schemes the paper reports; `None`
/// unless the workload runs all of them.
fn fig8_gap_pct(spec: &Spec, units: &[Unit], outs: &[UnitOut]) -> Option<f64> {
    let cycles = |cell: usize, mmu: SchemeId| {
        units
            .iter()
            .zip(outs)
            .find(|(u, _)| u.cell == cell && u.mmu == mmu)
            .and_then(|(_, (o, _))| o.as_ref().ok())
            .map(|d| d.report.cycles.max(1) as f64)
    };
    let mut gap = 0.0;
    for (mmu, paper) in PAPER_FIG8 {
        let ratios = (0..spec.cells.len())
            .map(|c| Some(cycles(c, mmu)? / cycles(c, SchemeId::IDEAL)?))
            .collect::<Option<Vec<f64>>>()?;
        gap += (geomean(&ratios) - paper).abs() / paper;
    }
    Some(100.0 * gap / PAPER_FIG8.len() as f64)
}

/// The host reference result for one cell.
fn expected_props(kernel: &Kernel, graph: &Graph) -> Props {
    match *kernel {
        Kernel::Bfs { root } => Props::U32(reference::bfs_levels(graph, root)),
        Kernel::PageRank { iterations } => Props::F32(reference::pagerank(graph, iterations)),
        Kernel::Sssp { root, .. } => Props::F32(reference::sssp_distances(graph, root)),
        Kernel::Cf {
            iterations,
            features,
        } => Props::F32(reference::cf_factors(graph, iterations, features)),
    }
}

/// Does a unit's functional output match the reference? Exact, except
/// SSSP, whose relaxation order differs from Dijkstra's float sums.
fn props_match(kernel: &Kernel, got: &Props, want: &Props) -> bool {
    match (kernel, got, want) {
        (Kernel::Sssp { .. }, Props::F32(got), Props::F32(want)) => {
            got.len() == want.len()
                && got.iter().zip(want).all(|(&g, &w)| {
                    (g.is_infinite() && w.is_infinite()) || (g - w).abs() <= 1e-4 * w.abs().max(1.0)
                })
        }
        _ => got == want,
    }
}

/// Boot the unit's OS and lay the graph out in a fresh process — the
/// `os` layer's share of [`run_graph_experiment`].
fn lay_out(unit: &Unit, graph: &Graph) -> Result<(Os, Pid, GraphInMemory), DvmError> {
    let machine_bytes = unit
        .mmu
        .scheme()
        .machine_bytes_hint(graph.footprint_bytes())
        .next_multiple_of(1 << 30);
    let mut os = Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: machine_bytes,
        },
        flavor: flavor_for(unit.mmu),
        maintain_bitmap: unit.mmu.needs_bitmap(),
        ..OsConfig::default()
    });
    let pid = os.spawn()?;
    let g = layout::load_graph(&mut os, pid, graph, unit.kernel.prop_stride())?;
    Ok((os, pid, g))
}

/// The accelerator run, monomorphized per builtin scheme as the sweep
/// engine does.
fn accel_run(
    mmu: SchemeId,
    kernel: &Kernel,
    g: &GraphInMemory,
    sys: &mut MemSystem<'_>,
) -> Result<RunResult, Fault> {
    fn via<D: SchemeDispatch>(
        kernel: &Kernel,
        g: &GraphInMemory,
        sys: &mut MemSystem<'_>,
    ) -> Result<RunResult, Fault> {
        run_via::<D>(kernel, g, sys, &AccelConfig::default())
    }
    match mmu {
        SchemeId::CONV_4K => via::<dispatch::Conv4K>(kernel, g, sys),
        SchemeId::CONV_2M => via::<dispatch::Conv2M>(kernel, g, sys),
        SchemeId::CONV_1G => via::<dispatch::Conv1G>(kernel, g, sys),
        SchemeId::DVM_BM => via::<dispatch::DvmBm>(kernel, g, sys),
        SchemeId::DVM_PE => via::<dispatch::DvmPe>(kernel, g, sys),
        SchemeId::DVM_PE_PLUS => via::<dispatch::DvmPePlus>(kernel, g, sys),
        SchemeId::IDEAL => via::<dispatch::Ideal>(kernel, g, sys),
        SchemeId::SVA_PF => via::<dispatch::SvaPf>(kernel, g, sys),
        SchemeId::SVA_IOMMU => via::<dispatch::SvaIommu>(kernel, g, sys),
        _ => via::<dispatch::Dyn>(kernel, g, sys),
    }
}

/// The property array after a run (untimed reads). CF reads every
/// feature of each vertex's page-contained vector.
fn dump_props(kernel: &Kernel, sys: &MemSystem<'_>, g: &GraphInMemory) -> Props {
    match *kernel {
        Kernel::Bfs { .. } => Props::U32(dump_props_u32(sys, g)),
        Kernel::PageRank { .. } | Kernel::Sssp { .. } => Props::F32(dump_props_f32(sys, g)),
        Kernel::Cf { features, .. } => {
            let mut out = Vec::with_capacity(g.num_vertices as usize * features as usize);
            for v in 0..g.num_vertices {
                let (pa, _) = sys
                    .pt
                    .translate(sys.mem, g.prop_entry(v))
                    .expect("property array is mapped");
                out.extend((0..u64::from(features)).map(|f| sys.mem.read_f32(pa + f * 4)));
            }
            Props::F32(out)
        }
    }
}

/// A traced unit's simulated machine after its run, kept for the
/// functional check.
struct Sim {
    os: Os,
    pid: Pid,
    iommu: Iommu,
    dram: Dram,
    g: GraphInMemory,
}

/// One traced unit: a `core.unit` span around its layer calls, then the
/// functional check outside that span, so the unit's time is the same
/// work the untraced unit does.
fn run_unit_traced(
    unit: &Unit,
    graph: &Graph,
    expected: &Props,
    rec: &Recorder,
    pass: usize,
    id: usize,
) -> Result<Traced, DvmError> {
    let (ran, unit_s) = timed(Some(rec), "core.unit", Some(pass), Some(id), |span| {
        traced_body(unit, graph, rec, span, id)
    });
    let (traced, mut sim) = ran?;
    let (functional_ok, dump_s) = timed(Some(rec), "check.dump", Some(pass), Some(id), |_| {
        let pt = sim.os.process(sim.pid)?.page_table;
        let sys = MemSystem::new(
            &mut sim.iommu,
            &pt,
            sim.os.bitmap.as_ref(),
            &mut sim.os.machine.mem,
            &mut sim.dram,
        );
        let got = dump_props(&unit.kernel, &sys, &sim.g);
        Ok::<_, DvmError>(props_match(&unit.kernel, &got, expected))
    });
    Ok(Traced {
        functional_ok: functional_ok?,
        dump_s,
        unit_s,
        ..traced
    })
}

fn traced_body(
    unit: &Unit,
    graph: &Graph,
    rec: &Recorder,
    span: Option<usize>,
    id: usize,
) -> Result<(Traced, Sim), DvmError> {
    let (rec, at) = (Some(rec), Some(id));
    let (laid, layout_s) = timed(rec, "os.layout", span, at, |_| lay_out(unit, graph));
    let (os, pid, g) = laid?;
    let mut sim = Sim {
        os,
        pid,
        iommu: Iommu::new(unit.mmu, EnergyParams::default()),
        dram: Dram::new(DramConfig::default()),
        g,
    };
    let pt = sim.os.process(pid)?.page_table;
    let mut sys = MemSystem::new(
        &mut sim.iommu,
        &pt,
        sim.os.bitmap.as_ref(),
        &mut sim.os.machine.mem,
        &mut sim.dram,
    );
    let (result, run_s) = timed(rec, "accel.run", span, at, |_| {
        accel_run(unit.mmu, &unit.kernel, &sim.g, &mut sys)
    });
    let result = result.map_err(DvmError::from)?;
    let report = {
        let iommu = &*sys.iommu;
        let stats = &iommu.stats;
        GraphRunReport {
            mmu: unit.mmu,
            workload: unit.kernel.name(),
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
            dram_accesses: sys.dram.accesses(),
            heap_bytes: sim.g.heap_bytes(),
            run: result,
        }
    };
    drop(sys);
    let (json, render_s) = timed(rec, "bench.render", span, at, |_| {
        report_json(&report).to_string()
    });
    let traced = Traced {
        done: Done { report, json },
        os: sim.os.stats,
        functional_ok: false,
        layout_s,
        run_s,
        dump_s: 0.0,
        render_s,
        unit_s: 0.0,
    };
    Ok((traced, sim))
}

/// Per-layer metrics from the traced units.
fn layer_metrics(spec: &Spec, ok: &[(&Unit, &Traced)], outcome: &mut Outcome) {
    let sum = |f: &dyn Fn(&Unit, &Traced) -> f64| ok.iter().map(|(u, t)| f(u, t)).sum::<f64>();
    let of = |mmu: SchemeId| move |u: &Unit| u.mmu == mmu;
    let ideal = of(SchemeId::IDEAL);
    fn report(t: &Traced) -> &GraphRunReport {
        &t.done.report
    }

    outcome.set("os.layout_s", sum(&|_, t| t.layout_s));
    outcome.set("os.identity_maps", sum(&|_, t| t.os.identity_maps as f64));
    outcome.set(
        "os.identity_fallbacks",
        sum(&|_, t| t.os.identity_fallbacks as f64),
    );
    outcome.set(
        "os.cow_breaks",
        sum(&|_, t| (t.os.cow_faults - t.os.cow_reuses) as f64),
    );
    outcome.set("accel.run_s", sum(&|_, t| t.run_s));
    let ideal_run = sum(&|u, t| if ideal(u) { t.run_s } else { 0.0 });
    let ideal_accesses = sum(&|u, t| {
        if ideal(u) {
            report(t).accesses as f64
        } else {
            0.0
        }
    });
    outcome.set("accel.ideal_run_s", ideal_run);
    outcome.set("accel.ns_per_access", 1e9 * ideal_run / ideal_accesses);
    outcome.set(
        "accel.edges_processed",
        sum(&|_, t| report(t).run.edges_processed as f64),
    );

    let ideal_run_of = |cell: usize| {
        ok.iter()
            .find(|(u, _)| u.cell == cell && ideal(u))
            .map_or(0.0, |(_, t)| t.run_s)
    };
    outcome.set(
        "mmu.excess_s",
        sum(&|u, t| {
            if ideal(u) {
                0.0
            } else {
                t.run_s - ideal_run_of(u.cell)
            }
        }),
    );
    for &mmu in &spec.schemes {
        let is = of(mmu);
        let run_s = sum(&|u, t| if is(u) { t.run_s } else { 0.0 });
        let accesses = sum(&|u, t| {
            if is(u) {
                report(t).accesses as f64
            } else {
                0.0
            }
        });
        outcome.set(
            &format!("mmu.ns_per_access.{}", scheme_tag(mmu)),
            1e9 * run_s / accesses,
        );
    }
    outcome.set("mmu.accesses", sum(&|_, t| report(t).accesses as f64));
    let four_k = of(SchemeId::CONV_4K);
    let tlb = |want_miss: bool| {
        sum(&|u, t| match report(t).tlb {
            Some((h, m)) if four_k(u) => (if want_miss { m } else { h + m }) as f64,
            _ => 0.0,
        })
    };
    outcome.set("mmu.tlb_miss_rate.4K", tlb(true) / tlb(false));
    let ptc = |want_hit: bool| {
        sum(&|_, t| match report(t).ptc {
            Some((h, m)) => (if want_hit { h } else { h + m }) as f64,
            None => 0.0,
        })
    };
    outcome.set("mmu.ptc_hit_rate", ptc(true) / ptc(false));
    outcome.set(
        "mmu.walk_mem_refs",
        sum(&|_, t| report(t).walk_mem_refs as f64),
    );
    outcome.set(
        "mmu.identity_validations",
        sum(&|_, t| report(t).identity_validations as f64),
    );
    outcome.set(
        "mmu.preload_squashes",
        sum(&|_, t| report(t).preload_squashes as f64),
    );
    outcome.set(
        "mem.dram_accesses",
        sum(&|_, t| report(t).dram_accesses as f64),
    );
    outcome.set("sim.cycles", sum(&|_, t| report(t).cycles as f64));
    outcome.set("bench.render_s", sum(&|_, t| t.render_s));
    outcome.set("check.dump_s", sum(&|_, t| t.dump_s));
}
