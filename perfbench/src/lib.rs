//! `perfbench`: the offline wall-clock benchmark of the DVM simulator.
//!
//! Three workloads run the simulator through its public library entry
//! points on a closed-loop pool of at most [`MAX_WORKERS`] threads (the
//! shape of `fig8 --jobs 2`): each worker takes the next unit in spec
//! order when its previous unit finishes. An untraced run reports the
//! end-to-end metrics ([`END_TO_END`]); a traced run times the calls into
//! each layer from this crate's own code and reports the per-layer
//! metrics ([`PER_LAYER`]). Neither the dataset cache nor the report
//! cache is used: a cache hit simulates nothing.
//!
//! End-to-end seconds are scaled to a fixed reference host speed by the
//! [`probe`], because a shared host's speed drifts by more than any bound
//! a raw time could be held to; raw seconds are in the run record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload graph-translate --seed 0 --seconds 10 --trace 0
//! ```

pub mod churn;
pub mod graphs;
pub mod inputs;
pub mod probe;
pub mod trace;

use dvm_bench::Scale;
use probe::{Probe, Timing};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Worker threads never exceed this, so numbers from hosts with more
/// cores stay comparable with the 2-core reference box.
pub const MAX_WORKERS: usize = 2;

/// End-to-end metrics `(name, unit)`, printed by untraced runs. Both are
/// lower-is-better seconds scaled to the probe's nominal host speed
/// ([`probe::Timing`]). The process's peak memory is in the run record
/// and [`PER_LAYER`] instead: os-churn's peak moves by a fifth from seed
/// to seed, wider than any bound it could be held to.
pub const END_TO_END: [(&str, &str); 2] = [
    // Seconds from the first unit's start until every unit has finished
    // and its reports are serialized; set-up excluded. Median pass.
    ("wall_s", "s"),
    // Seconds to build the workload's inputs (graphs, or booted machines
    // for churn); median of several set-ups.
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit, end-to-end target)`, printed by traced
/// runs. The target names the end-to-end metric (and workloads) each
/// should move; simulated counts must not move at all in a
/// simulator-only change. Metrics of a layer a workload does not
/// exercise read 0. Times are raw host seconds.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    (
        "graph.generate_s",
        "s",
        "setup_s on graph-translate, cf-vector",
    ),
    ("graph.edges", "count", "(count)"),
    ("os.layout_s", "s", "wall_s, mostly graph-translate"),
    ("os.churn_s.DVM-PE", "s", "wall_s on os-churn"),
    ("os.churn_s.Paged-4K", "s", "wall_s on os-churn"),
    ("os.churn_s.Paged-2M", "s", "wall_s on os-churn"),
    ("os.identity_maps", "count", "(count)"),
    ("os.identity_fallbacks", "count", "(count)"),
    ("os.cow_breaks", "count", "(count)"),
    ("os.oom_events", "count", "(count)"),
    ("accel.run_s", "s", "wall_s on graph-translate, cf-vector"),
    ("accel.ideal_run_s", "s", "wall_s on cf-vector"),
    ("accel.ns_per_access", "ns", "wall_s on cf-vector"),
    ("accel.edges_processed", "count", "(count)"),
    ("mmu.excess_s", "s", "wall_s on graph-translate"),
    ("mmu.ns_per_access.4K", "ns", "wall_s on graph-translate"),
    ("mmu.ns_per_access.2M", "ns", "wall_s on graph-translate"),
    ("mmu.ns_per_access.1G", "ns", "wall_s on graph-translate"),
    (
        "mmu.ns_per_access.DVM-BM",
        "ns",
        "wall_s on graph-translate",
    ),
    (
        "mmu.ns_per_access.DVM-PE",
        "ns",
        "wall_s on graph-translate",
    ),
    (
        "mmu.ns_per_access.DVM-PE_plus",
        "ns",
        "wall_s on graph-translate",
    ),
    ("mmu.ns_per_access.Ideal", "ns", "wall_s on graph-translate"),
    (
        "mmu.ns_per_access.SVA-Pf",
        "ns",
        "wall_s on graph-translate",
    ),
    (
        "mmu.ns_per_access.SVA-IOMMU",
        "ns",
        "wall_s on graph-translate",
    ),
    ("mmu.accesses", "count", "(simulated count)"),
    ("mmu.tlb_miss_rate.4K", "ratio", "(simulated count)"),
    ("mmu.ptc_hit_rate", "ratio", "(simulated count)"),
    ("mmu.walk_mem_refs", "count", "(simulated count)"),
    ("mmu.identity_validations", "count", "(simulated count)"),
    ("mmu.preload_squashes", "count", "(simulated count)"),
    ("mem.dram_accesses", "count", "(simulated count)"),
    ("sim.cycles", "count", "(simulated count)"),
    (
        "sim.fig8_gap_pct",
        "%",
        "(model accuracy against the paper, graph-translate only)",
    ),
    // Pool accounting of the untraced pass that `wall_s` times.
    ("core.busy_s", "s", "wall_s"),
    ("core.idle_s", "s", "wall_s, mostly cf-vector and os-churn"),
    ("core.unit_p50_s", "s", "wall_s"),
    ("core.unit_max_s", "s", "wall_s, the critical path"),
    ("core.units", "count", "(count)"),
    ("bench.render_s", "s", "wall_s, a small share"),
    (
        "check.dump_s",
        "s",
        "(functional check, outside the unit spans)",
    ),
    (
        "trace.overhead_pct",
        "%",
        "(traced unit spans against the untraced units)",
    ),
    (
        "proc.host_slowdown",
        "ratio",
        "(probe against its nominal speed; divides raw into scaled s)",
    ),
    (
        "proc.peak_rss_mib",
        "MiB",
        "(process high-water mark, VmHWM)",
    ),
];

/// Input sizes: `Quick` is the benchmark proper; `Smoke` only
/// exercises the machinery (for the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Quick-scale graphs and a 48-epoch cut of the paper-scale churn
    /// scenario.
    Quick,
    /// Smoke-scale graphs and churn scenario.
    Smoke,
}

impl Size {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Quick => "quick",
            Size::Smoke => "smoke",
        }
    }

    /// The harness scale whose dataset divisors this size uses.
    pub fn scale(self) -> Scale {
        match self {
            Size::Quick => Scale::Quick,
            Size::Smoke => Scale::Smoke,
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BFS and PageRank over FR under all 9 schemes: host time is mostly
    /// per-access translation.
    GraphTranslate,
    /// CF over NF under 4K, DVM-PE+ and Ideal: host time is mostly
    /// feature-vector execution.
    CfVector,
    /// Multi-tenant churn under three page-table flavours: page-table
    /// and buddy writes, no accelerator or IOMMU.
    OsChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GraphTranslate,
        Workload::CfVector,
        Workload::OsChurn,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphTranslate => "graph-translate",
            Workload::CfVector => "cf-vector",
            Workload::OsChurn => "os-churn",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed (0 = the stock inputs).
    pub seed: u64,
    /// Minimum measured time: untraced runs repeat whole passes until
    /// it has elapsed and report the median scaled pass.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Where a traced run writes its spans.
    pub spans_path: Option<PathBuf>,
}

impl Config {
    /// Settings with the host's worker count (capped at
    /// [`MAX_WORKERS`]) and no span file.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, size: Size) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            size,
            workers: host_cores().min(MAX_WORKERS),
            spans_path: None,
        }
    }
}

/// Cores the host reports.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulation units in the workload, each counted once however many
    /// passes ran it.
    pub attempted: u64,
    /// Indices of units that errored or failed any check in any pass.
    failed_units: BTreeSet<usize>,
    /// One line per failed check, for stderr.
    pub problems: Vec<String>,
    /// Measured metrics by name; per-layer metrics a workload does not
    /// produce are absent and print as 0.
    pub values: BTreeMap<String, f64>,
    /// Run record printed ahead of the metrics (seed, cores, ...).
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a failed check of unit `unit`, with its reason.
    pub fn fail(&mut self, unit: usize, problem: String) {
        self.failed_units.insert(unit);
        self.problems.push(problem);
    }

    /// Units that failed at least one check.
    pub fn failed(&self) -> u64 {
        self.failed_units.len() as u64
    }

    /// `(name, value, unit)` of every metric this run prints, in
    /// declaration order.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let value = |name: &str| {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, value(name), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, value(name), unit))
                .collect()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0 && self.attempted > 0,
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// Run one workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = match config.workload {
        Workload::GraphTranslate => graphs::run(config, &graphs::Spec::graph_translate()),
        Workload::CfVector => graphs::run(config, &graphs::Spec::cf_vector()),
        Workload::OsChurn => churn::run(config),
    };
    let rss = peak_rss_mib();
    outcome.set("proc.peak_rss_mib", rss);
    outcome.record.push(("peak_rss_mib", format!("{rss:.1}")));
    let mut record = vec![
        ("workload", config.workload.name().to_string()),
        ("seed", config.seed.to_string()),
        ("size", config.size.name().to_string()),
        ("host_cores", host_cores().to_string()),
        ("workers", config.workers.to_string()),
        ("trace", u8::from(config.trace).to_string()),
    ];
    record.append(&mut outcome.record);
    outcome.record = record;
    outcome
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Run `setup` in `reps` timed batches of `batch` set-ups each, and keep
/// the last result. Returns the median batch [`Timing`] divided by
/// `batch`: one set-up's time. Results are dropped between batches,
/// outside the timed interval, so peak memory holds one batch.
pub fn repeat_setup<R>(
    probe: &Probe,
    workers: usize,
    reps: usize,
    batch: usize,
    mut setup: impl FnMut() -> R,
) -> (R, Timing) {
    let mut timings = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (made, timing) = probe.time(workers, || {
            let made: Vec<R> = (0..batch.max(1)).map(|_| setup()).collect();
            (made, Vec::new())
        });
        last = made.into_iter().last();
        timings.push(timing);
    }
    let med = |f: fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let batch = batch.max(1) as f64;
    let timing = Timing {
        raw_s: med(|t| t.raw_s) / batch,
        scaled_s: med(|t| t.scaled_s) / batch,
        slowdown: med(|t| t.slowdown),
    };
    (last.expect("at least one set-up ran"), timing)
}

/// Record the set-up timing: scaled as `setup_s`, raw in the run record.
pub fn set_setup(outcome: &mut Outcome, timing: &Timing) {
    outcome.set("setup_s", timing.scaled_s);
    outcome
        .record
        .push(("raw_setup_s", format!("{:.6}", timing.raw_s)));
}

/// Run `pass` until `seconds` have elapsed, always at least once; each
/// pass (which returns its probe samples, see [`Probe::pool`]) comes
/// back with its [`Timing`].
pub fn timed_passes<R>(
    probe: &Probe,
    workers: usize,
    seconds: f64,
    mut pass: impl FnMut() -> (R, Vec<f64>),
) -> Vec<(R, Timing)> {
    let start = std::time::Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(probe.time(workers, &mut pass));
    }
    passes
}

/// Record the untraced passes' timings and set `wall_s` to the median
/// scaled pass.
pub fn set_wall<R>(outcome: &mut Outcome, passes: &[(R, Timing)]) {
    let list = |f: fn(&Timing) -> f64| {
        passes
            .iter()
            .map(|(_, t)| format!("{:.3}", f(t)))
            .collect::<Vec<_>>()
            .join(",")
    };
    outcome.record.push(("passes", passes.len().to_string()));
    outcome.record.push(("raw_walls_s", list(|t| t.raw_s)));
    outcome.record.push(("slowdowns", list(|t| t.slowdown)));
    let scaled: Vec<f64> = passes.iter().map(|(_, t)| t.scaled_s).collect();
    outcome.set("wall_s", median(&scaled));
}

/// Pool accounting of one untraced pass: busy time, idle time
/// (`workers × wall − busy`), and the unit-duration median and maximum.
pub fn set_core_metrics(outcome: &mut Outcome, unit_secs: &[f64], workers: usize, wall: f64) {
    let busy: f64 = unit_secs.iter().sum();
    outcome.set("core.busy_s", busy);
    outcome.set("core.idle_s", workers as f64 * wall - busy);
    outcome.set("core.unit_p50_s", median(unit_secs));
    outcome.set(
        "core.unit_max_s",
        unit_secs.iter().copied().fold(0.0, f64::max),
    );
    outcome.set("core.units", unit_secs.len() as f64);
}

/// Close a traced run: the overhead of the traced units' spans against
/// the same units untraced (both without the functional check, each
/// summed over units and scaled by its pass's [`Timing`]), the untraced
/// pass's host slowdown, and the spans written to the side-channel file.
pub fn finish_trace(
    outcome: &mut Outcome,
    config: &Config,
    rec: &trace::Recorder,
    (untraced_busy, untraced): (f64, Timing),
    (traced_busy, traced): (f64, Timing),
) {
    let scaled = |busy: f64, pass: Timing| busy * pass.scaled_s / pass.raw_s;
    let (untraced_scaled, traced_scaled) =
        (scaled(untraced_busy, untraced), scaled(traced_busy, traced));
    outcome.set(
        "trace.overhead_pct",
        100.0 * (traced_scaled - untraced_scaled) / untraced_scaled,
    );
    outcome.set("proc.host_slowdown", untraced.slowdown);
    if let Some(path) = &config.spans_path {
        if let Err(e) = rec.write_jsonl(path) {
            eprintln!("perfbench: writing spans to {} failed: {e}", path.display());
        }
    }
}

/// The process's peak resident set in MiB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn median_and_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        let probe = Probe::new(1.0);
        let passes = timed_passes(&probe, 1, 0.0, || (7, Vec::new()));
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].0, 7);
        let mut n = 0;
        let (last, timing) = repeat_setup(&probe, 1, 3, 4, || {
            n += 1;
            n
        });
        assert_eq!(last, 12);
        assert!(timing.scaled_s > 0.0 && timing.slowdown > 0.0);
    }

    #[test]
    fn a_unit_fails_once_however_many_checks_fail() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.fail(1, "first pass".into());
        outcome.fail(1, "second pass".into());
        assert_eq!(outcome.failed(), 1);
        assert_eq!(outcome.problems.len(), 2);
        assert!(outcome.result_line(false).contains("\"failed\": 1,"));
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut outcome = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        outcome.set("wall_s", 1.25);
        let line = outcome.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let parsed = dvm_bench::parse(&line).expect("result line is JSON");
        let metrics = parsed.get("metrics").expect("metrics");
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name}");
        }
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mib() > 0.0);
    }
}
