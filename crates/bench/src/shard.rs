//! The multi-process sweep runner.
//!
//! A bench binary invoked with `--shard I/N` is a **worker**: it runs the
//! round-robin slice of the grid ([`SweepSpec::shard`]), prints a
//! *fragment* — raw per-unit results keyed by global grid index — on
//! stdout and exits. Farm workers are its only callers. Every other
//! multi-process run gathers fragments from a farm: `--farm HOST:PORT`
//! submits the grid to a running `farmd`, and `--shards N` alone starts a
//! loopback farm (an in-process `farmd` plus N worker threads that spawn
//! this executable). The gathered fragments are reassembled **in spec
//! order** and formatted exactly once. Because formatting consumes the
//! same values a single-process run would produce (integers exactly,
//! floats through the shortest-representation render and
//! correctly-rounded parse), the merged text table and `--json` document
//! are byte-identical to a `--jobs 1` run by construction.
//!
//! A worker's stdout carries nothing but its fragment (banner lines are
//! skipped in that role). Its stderr reaches ours through the farm:
//! `progress:` lines are merged into one global `done/total` count
//! (printed under `--progress`), everything else — dataset-cache
//! statistics included — passes through verbatim.
//!
//! Workers inherit the submitting process's cache flags verbatim (see
//! [`BenchArgs::farm_argv`]), so they share its cache directories.
//! Racing on one entry is safe: stores publish through an atomic rename,
//! and a damaged entry fails its checksum and is simply rebuilt — caches
//! never change sweep output bytes.
//!
//! Reconstructed [`GraphRunReport`]s carry only the fields
//! [`report_json`] serializes; `engine_cycles`, `walker_cycles` and the
//! latency histogram come back empty. No formatting path reads them, and
//! re-serializing a reconstructed report yields the bytes it was parsed
//! from.

use crate::{
    pair_label, parse, report_json, validate_header, BenchArgs, Json, JsonDoc, Shard, ShardRole,
};
use dvm_core::{
    parallel_map_ordered, CellReports, GraphRunReport, RunResult, SchemeId, SweepCell,
    SweepProgress, SweepRunner, SweepSpec, Workload,
};
use dvm_graph::fnv1a;
use dvm_pagetable::SizeReport;
use dvm_sim::Histogram;
use std::io::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A per-unit result that can cross a process boundary through a shard
/// fragment and come back *value-identical*: `from_json(to_json(x))`
/// reproduces every bit the figure formatters read.
pub trait ShardValue: Sized {
    /// Serialize for a fragment.
    fn to_json(&self) -> Json;
    /// Deserialize from a fragment.
    ///
    /// # Errors
    ///
    /// Describes the first shape or type mismatch.
    fn from_json(value: &Json) -> Result<Self, String>;
}

impl ShardValue for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("expected a number, got {value}"))
    }
}

impl ShardValue for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_u64()
            .ok_or_else(|| format!("expected an integer, got {value}"))
    }
}

impl<const N: usize> ShardValue for [u64; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|&v| Json::UInt(v)).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        array_from_json(value, |v| {
            v.as_u64()
                .ok_or_else(|| format!("expected an integer, got {v}"))
        })
    }
}

impl<const N: usize> ShardValue for [f64; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|&v| Json::Float(v)).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        array_from_json(value, |v| {
            v.as_f64()
                .ok_or_else(|| format!("expected a number, got {v}"))
        })
    }
}

fn array_from_json<T: Copy + Default, const N: usize>(
    value: &Json,
    element: impl Fn(&Json) -> Result<T, String>,
) -> Result<[T; N], String> {
    let arr = value
        .as_arr()
        .ok_or_else(|| format!("expected an array, got {value}"))?;
    if arr.len() != N {
        return Err(format!("expected {N} elements, got {}", arr.len()));
    }
    let mut out = [T::default(); N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = element(item)?;
    }
    Ok(out)
}

/// Decode field `key` of `value` as a `T`.
fn field<T: ShardValue>(value: &Json, key: &str) -> Result<T, String> {
    T::from_json(
        value
            .get(key)
            .ok_or_else(|| format!("missing field '{key}'"))?,
    )
}

impl ShardValue for SizeReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("table_frames", self.table_frames.to_json()),
            ("present_entries", self.present_entries.to_json()),
            ("l1_pte_count", Json::UInt(self.l1_pte_count)),
            ("pe_entries", self.pe_entries.to_json()),
            ("huge_leaf_entries", Json::UInt(self.huge_leaf_entries)),
        ])
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(Self {
            table_frames: field(value, "table_frames")?,
            present_entries: field(value, "present_entries")?,
            l1_pte_count: field(value, "l1_pte_count")?,
            pe_entries: field(value, "pe_entries")?,
            huge_leaf_entries: field(value, "huge_leaf_entries")?,
        })
    }
}

impl ShardValue for dvm_core::PageTableStudy {
    fn to_json(&self) -> Json {
        Json::obj([
            ("conventional", self.conventional.to_json()),
            ("with_pes", self.with_pes.to_json()),
            ("heap_bytes", Json::UInt(self.heap_bytes)),
        ])
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(Self {
            conventional: field(value, "conventional")?,
            with_pes: field(value, "with_pes")?,
            heap_bytes: field(value, "heap_bytes")?,
        })
    }
}

/// A churn unit's whole trajectory crosses the fragment boundary as an
/// array of per-epoch counter objects. Only integers are carried —
/// derived rates are computed at format time on the coordinator, so no
/// float round-trip (or 0/0 rate) can perturb merged output.
impl ShardValue for Vec<dvm_core::ChurnEpoch> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(churn_epoch_json).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let arr = value
            .as_arr()
            .ok_or_else(|| format!("expected an epoch array, got {value}"))?;
        arr.iter()
            .enumerate()
            .map(|(i, e)| churn_epoch_from_json(e).map_err(|err| format!("epoch {i}: {err}")))
            .collect()
    }
}

fn churn_epoch_json(e: &dvm_core::ChurnEpoch) -> Json {
    Json::obj([
        ("epoch", Json::UInt(u64::from(e.epoch))),
        ("live_procs", Json::UInt(e.live_procs)),
        ("identity_maps", Json::UInt(e.identity_maps)),
        ("identity_fallbacks", Json::UInt(e.identity_fallbacks)),
        (
            "identity_bytes_requested",
            Json::UInt(e.identity_bytes_requested),
        ),
        ("identity_bytes_padded", Json::UInt(e.identity_bytes_padded)),
        ("demand_bytes", Json::UInt(e.demand_bytes)),
        ("cow_breaks", Json::UInt(e.cow_breaks)),
        ("oom_events", Json::UInt(e.oom_events)),
        ("free_frames", Json::UInt(e.free_frames)),
        ("free_runs", Json::UInt(e.free_runs)),
        ("largest_run", Json::UInt(e.largest_run)),
        ("sub_granule_runs", Json::UInt(e.sub_granule_runs)),
    ])
}

fn churn_epoch_from_json(value: &Json) -> Result<dvm_core::ChurnEpoch, String> {
    Ok(dvm_core::ChurnEpoch {
        epoch: u32::try_from(value.expect_u64("epoch")?)
            .map_err(|_| "epoch out of range".to_string())?,
        live_procs: value.expect_u64("live_procs")?,
        identity_maps: value.expect_u64("identity_maps")?,
        identity_fallbacks: value.expect_u64("identity_fallbacks")?,
        identity_bytes_requested: value.expect_u64("identity_bytes_requested")?,
        identity_bytes_padded: value.expect_u64("identity_bytes_padded")?,
        demand_bytes: value.expect_u64("demand_bytes")?,
        cow_breaks: value.expect_u64("cow_breaks")?,
        oom_events: value.expect_u64("oom_events")?,
        free_frames: value.expect_u64("free_frames")?,
        free_runs: value.expect_u64("free_runs")?,
        largest_run: value.expect_u64("largest_run")?,
        sub_granule_runs: value.expect_u64("sub_granule_runs")?,
    })
}

/// Rebuild a [`GraphRunReport`] from its [`report_json`] serialization,
/// in the context of the cell (`mmu`, `workload`) the coordinator's own
/// spec says the unit belongs to — the names stored in the fragment are
/// cross-checked against that context.
pub(crate) fn report_from_json(
    obj: &Json,
    mmu: SchemeId,
    workload: &Workload,
) -> Result<GraphRunReport, String> {
    let found_mmu = obj.expect_str("mmu")?;
    if found_mmu != mmu.name() {
        return Err(format!("scheme '{found_mmu}' != expected '{}'", mmu.name()));
    }
    let found_workload = obj.expect_str("workload")?;
    if found_workload != workload.name() {
        return Err(format!(
            "workload '{found_workload}' != expected '{}'",
            workload.name()
        ));
    }
    let hit_miss = |key: &str| -> Result<Option<(u64, u64)>, String> {
        match obj.get(key) {
            None => Err(format!("missing field '{key}'")),
            Some(Json::Null) => Ok(None),
            Some(v) => Ok(Some((v.expect_u64("hits")?, v.expect_u64("misses")?))),
        }
    };
    let cycles = obj.expect_u64("cycles")?;
    Ok(GraphRunReport {
        mmu,
        workload: workload.name(),
        cycles,
        run: RunResult {
            cycles,
            engine_cycles: Vec::new(),
            edges_processed: obj.expect_u64("edges_processed")?,
            iterations: u32::try_from(obj.expect_u64("iterations")?)
                .map_err(|_| "iterations out of range".to_string())?,
            walker_cycles: 0,
            latency_hist: Histogram::new("latency"),
        },
        accesses: obj.expect_u64("accesses")?,
        tlb: hit_miss("tlb")?,
        ptc: hit_miss("ptc")?,
        bitmap_cache: hit_miss("bitmap_cache")?,
        walk_mem_refs: obj.expect_u64("walk_mem_refs")?,
        identity_validations: obj.expect_u64("identity_validations")?,
        fallback_translations: obj.expect_u64("fallback_translations")?,
        preload_squashes: obj.expect_u64("preload_squashes")?,
        mm_energy_pj: obj.expect_f64("mm_energy_pj")?,
        dram_accesses: obj.expect_u64("dram_accesses")?,
        heap_bytes: obj.expect_u64("heap_bytes")?,
    })
}

/// The integrity check a fragment carries: FNV-1a of its `units`
/// array's canonical rendering, as hex. By the round-trip contract an
/// intact fragment re-renders to the same bytes; a flipped digit still
/// parses, but no longer matches.
fn units_checksum(units: &Json) -> String {
    format!("{:016x}", fnv1a(units.to_string().as_bytes()))
}

fn fragment_doc(
    experiment: &str,
    scale: &str,
    shard: Shard,
    total_units: usize,
    units: Vec<(usize, String, Json)>,
) -> Json {
    let units = Json::Arr(
        units
            .into_iter()
            .map(|(index, label, value)| {
                Json::obj([
                    ("index", Json::UInt(index as u64)),
                    ("label", Json::Str(label)),
                    ("value", value),
                ])
            })
            .collect(),
    );
    JsonDoc::new(experiment)
        .field("kind", Json::Str("shard-fragment".to_string()))
        .field("scale", Json::Str(scale.to_string()))
        .field("shard", Json::UInt(shard.index as u64))
        .field("shards", Json::UInt(shard.count as u64))
        .field("total_units", Json::UInt(total_units as u64))
        .field("checksum", Json::Str(units_checksum(&units)))
        .field("units", units)
        .build()
}

/// Validate and flatten fragments into one `(label, value)` slot per
/// global unit index. Every unit must appear exactly once, and the
/// fragments must form a complete, consistent shard set.
fn merge_fragments(
    fragments: &[Json],
    experiment: &str,
    scale: &str,
    total: usize,
) -> Result<Vec<(String, Json)>, String> {
    if fragments.is_empty() {
        return Err("no shard fragments found".to_string());
    }
    let mut slots: Vec<Option<(String, Json)>> = vec![None; total];
    let mut count = None;
    let mut shards_seen: Vec<u64> = Vec::new();
    for frag in fragments {
        validate_header(frag, Some(experiment))?;
        let kind = frag.expect_str("kind")?;
        if kind != "shard-fragment" {
            return Err(format!("document kind '{kind}' is not a shard fragment"));
        }
        let found_scale = frag.expect_str("scale")?;
        if found_scale != scale {
            return Err(format!(
                "fragment scale '{found_scale}' != run scale '{scale}'"
            ));
        }
        let found_total = frag.expect_u64("total_units")? as usize;
        if found_total != total {
            return Err(format!(
                "fragment grid has {found_total} units, this run has {total}"
            ));
        }
        let shards = frag.expect_u64("shards")?;
        let shard = frag.expect_u64("shard")?;
        if shard >= shards {
            return Err(format!("fragment claims shard {shard} of {shards}"));
        }
        match count {
            None => count = Some(shards),
            Some(c) if c == shards => {}
            Some(c) => {
                return Err(format!(
                    "fragments disagree on shard count ({c} vs {shards})"
                ))
            }
        }
        if shards_seen.contains(&shard) {
            return Err(format!("shard {shard} appears in two fragments"));
        }
        shards_seen.push(shard);
        let units = frag.get("units").ok_or("missing field 'units'")?;
        if frag.expect_str("checksum")? != units_checksum(units) {
            return Err(format!("shard {shard} fragment fails its checksum"));
        }
        for unit in frag.expect_arr("units")? {
            let index = unit.expect_u64("index")? as usize;
            if index >= total {
                return Err(format!("unit index {index} out of range ({total} units)"));
            }
            if slots[index].is_some() {
                return Err(format!("unit {index} appears twice"));
            }
            let label = unit.expect_str("label")?.to_string();
            let value = unit.get("value").ok_or("unit missing 'value'")?.clone();
            slots[index] = Some((label, value));
        }
    }
    let count = count.expect("at least one fragment") as usize;
    if shards_seen.len() != count {
        return Err(format!(
            "found {} of {count} shard fragments",
            shards_seen.len()
        ));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or_else(|| format!("unit {i} missing from every fragment")))
        .collect()
}

fn fail(context: &str, message: &str) -> ! {
    eprintln!("{context}: {message}");
    std::process::exit(1);
}

/// Run the sweep on a farm and return the parsed fragments its workers
/// produced, in slice order. `--farm HOST:PORT` submits to a running
/// `farmd`; `--shards N` alone starts a loopback farm in this process
/// ([`start_loopback_farm`]). The farm ships fragment *bytes*: the
/// documents `--shard` workers print, which the ordinary merge path
/// downstream turns into output byte-identical to a serial run.
fn farm_fragments(
    args: &BenchArgs,
    experiment: &str,
    total_units: usize,
) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let bin = exe
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("cannot name own executable")?
        .to_string();
    let slices = args.shards.unwrap_or(0);
    let addr = match &args.farm {
        Some(addr) => addr.clone(),
        // One worker per slice the coordinator will cut (never more
        // slices than units).
        None => start_loopback_farm(&exe, slices.min(total_units.max(1)))?,
    };
    let req = dvm_farm::JobRequest {
        bin,
        experiment: experiment.to_string(),
        slices,
        total_units,
        argv: args.farm_argv(),
    };
    let progress = args.progress;
    let mut on_event = |event: dvm_farm::JobEvent<'_>| match event {
        dvm_farm::JobEvent::Progress { done, total, label } => {
            if progress {
                dvm_farm::emit_stderr_line(&format!("progress: {done}/{total} ({label})"));
            }
        }
        dvm_farm::JobEvent::Line(line) => dvm_farm::emit_stderr_line(line),
    };
    let fragments = dvm_farm::run_job(&addr, &req, &mut on_event)?;
    fragments
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| format!("farm fragment {i} is not UTF-8"))?;
            parse(text).map_err(|e| format!("farm fragment {i} is not valid JSON: {e}"))
        })
        .collect()
}

/// Start a `farmd` on an ephemeral loopback port plus `workers` worker
/// threads that run slices with `exe`, and return the coordinator's
/// address. The threads are detached: once the job is done they idle
/// until the process exits.
fn start_loopback_farm(exe: &Path, workers: usize) -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind the loopback farm: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("loopback farm has no address: {e}"))?
        .to_string();
    std::thread::spawn(move || dvm_farm::serve(listener));
    let bin_dir = exe.parent().ok_or("own executable has no directory")?;
    for i in 0..workers {
        let cfg = dvm_farm::WorkerConfig {
            addr: addr.clone(),
            bin_dir: bin_dir.to_path_buf(),
            name: format!("local{i}"),
            cache_dir: None,
            report_cache: None,
        };
        std::thread::spawn(move || {
            if let Err(e) = dvm_farm::run_worker(&cfg) {
                dvm_farm::emit_stderr_line(&format!("farmworker[{}]: {e}", cfg.name));
            }
        });
    }
    Ok(addr)
}

/// Merge a farm's fragments and decode one value per unit, in unit
/// order. Each unit's label must match `labels`; `decode(i, value)`
/// rebuilds unit `i`.
fn decode_fragments<T>(
    fragments: &[Json],
    experiment: &str,
    scale: &str,
    labels: &[String],
    decode: impl Fn(usize, &Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let slots = merge_fragments(fragments, experiment, scale, labels.len())?;
    labels
        .iter()
        .zip(slots)
        .enumerate()
        .map(|(i, (want, (label, value)))| {
            if &label != want {
                return Err(format!("unit label '{label}' != expected '{want}'"));
            }
            decode(i, &value).map_err(|e| format!("unit '{label}': {e}"))
        })
        .collect()
}

/// The one role dispatcher behind [`run_sharded_sweep`] and [`run_grid`]:
/// run a grid of `labels.len()` units under this process's sharding role
/// and return one value per unit, in unit order.
///
/// - **Single**: `run_slice(None)` runs every unit here.
/// - **Worker** (`--shard I/N`): `run_slice(Some(shard))` runs units
///   `I, I+N, I+2N, …` in that order; their `encode`d values go to
///   stdout as one fragment document and the process exits here.
/// - **Farm**: the farm's fragments are merged and unit `i` is rebuilt
///   with `decode(i, value)`. `progress_units` is the total the
///   aggregated progress counts toward.
fn run_role<T>(
    args: &BenchArgs,
    experiment: &str,
    labels: &[String],
    progress_units: usize,
    run_slice: impl FnOnce(Option<Shard>) -> Vec<T>,
    encode: impl Fn(&T) -> Json,
    decode: impl Fn(usize, &Json) -> Result<T, String>,
) -> Vec<T> {
    let scale = args.scale.name();
    match args.role() {
        ShardRole::Single => {
            let values = run_slice(None);
            args.report_cache_stats();
            values
        }
        ShardRole::Worker(shard) => {
            let values = run_slice(Some(shard));
            let units = (shard.index..labels.len())
                .step_by(shard.count)
                .zip(&values)
                .map(|(i, value)| (i, labels[i].clone(), encode(value)))
                .collect();
            let doc = fragment_doc(experiment, scale, shard, labels.len(), units);
            let mut stdout = std::io::stdout().lock();
            writeln!(stdout, "{doc}")
                .and_then(|()| stdout.flush())
                .unwrap_or_else(|e| fail(experiment, &format!("printing the fragment: {e}")));
            args.report_cache_stats();
            std::process::exit(0);
        }
        ShardRole::Farm => farm_fragments(args, experiment, progress_units)
            .and_then(|fragments| decode_fragments(&fragments, experiment, scale, labels, decode))
            .unwrap_or_else(|e| fail(experiment, &e)),
    }
}

/// Rebuild one sweep cell's reports from its fragment value.
fn cell_from_json(cell: &SweepCell, value: &Json) -> Result<CellReports, String> {
    let arr = value.as_arr().ok_or("value is not an array")?;
    if arr.len() != cell.schemes.len() {
        return Err(format!(
            "{} reports, expected {}",
            arr.len(),
            cell.schemes.len()
        ));
    }
    let reports = cell
        .schemes
        .iter()
        .zip(arr)
        .map(|(&mmu, obj)| report_from_json(obj, mmu, &cell.workload))
        .collect::<Result<_, _>>()?;
    Ok(CellReports {
        workload: cell.workload,
        dataset: cell.dataset,
        reports,
    })
}

/// Run a graph sweep under this process's sharding role, returning
/// merged results in spec order. Workers print their fragment and exit
/// inside this call; the single and farm roles return.
///
/// # Panics
///
/// Panics if any experiment fails — harness binaries have no recovery
/// path.
pub fn run_sharded_sweep(
    args: &BenchArgs,
    experiment: &str,
    schemes: &[SchemeId],
) -> Vec<CellReports> {
    let spec = args.sweep_spec(schemes);
    let labels: Vec<String> = spec
        .cells
        .iter()
        .map(|cell| pair_label(&cell.workload, cell.dataset))
        .collect();
    run_role(
        args,
        experiment,
        &labels,
        spec.unit_count(),
        |shard| match shard {
            None => sweep_with_options(args, &spec, None),
            Some(s) => sweep_with_options(args, &spec.shard(s.index, s.count), shard),
        },
        |cell| Json::Arr(cell.reports.iter().map(report_json).collect()),
        |i, value| cell_from_json(&spec.cells[i], value),
    )
}

fn sweep_with_options(
    args: &BenchArgs,
    spec: &SweepSpec,
    shard: Option<Shard>,
) -> Vec<CellReports> {
    let tag = shard.map_or(String::new(), |s| format!("shard {s} "));
    let report = move |p: SweepProgress<'_>| {
        eprintln!(
            "progress: {tag}{}/{} ({}/{} {})",
            p.done, p.total, p.workload, p.dataset, p.scheme
        );
    };
    let mut runner = SweepRunner::new(spec).jobs(args.jobs);
    if let Some(cache) = args.cache.as_ref() {
        runner = runner.cache(cache);
    }
    if args.progress {
        runner = runner.progress(&report);
    }
    if let Some(reports) = args.reports.as_ref() {
        runner = runner.report_store(reports);
    }
    runner.run().expect("experiment failed")
}

/// Run an arbitrary shared-nothing grid — `compute(i)` for each of
/// `labels.len()` units — under this process's sharding role, returning
/// values in unit order. The non-sweep harnesses (Figure 10's CPU grid,
/// the table studies, the nested-translation study) all route through
/// here, so every binary honours `--shards`/`--shard`/`--farm`
/// identically.
///
/// # Panics
///
/// Panics if `compute` panics; exits with a diagnostic on fragment
/// problems.
pub fn run_grid<T, F>(args: &BenchArgs, experiment: &str, labels: &[String], compute: F) -> Vec<T>
where
    T: ShardValue + Send,
    F: Fn(usize) -> T + Sync,
{
    run_role(
        args,
        experiment,
        labels,
        labels.len(),
        |shard| {
            let Shard { index, count } = shard.unwrap_or(Shard { index: 0, count: 1 });
            let indices: Vec<usize> = (index..labels.len()).step_by(count).collect();
            let done = AtomicUsize::new(0);
            parallel_map_ordered(&indices, args.jobs, |&i| {
                let value = compute(i);
                if args.progress {
                    let done = done.fetch_add(1, Ordering::AcqRel) + 1;
                    eprintln!("progress: {done}/{} ({})", indices.len(), labels[i]);
                }
                value
            })
        },
        T::to_json,
        |_, value| T::from_json(value),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_core::{page_table_study, run_graph_experiment, ExperimentConfig};
    use dvm_graph::{rmat, RmatParams};
    use dvm_sim::DetRng;

    fn labeled(units: Vec<(usize, &str, Json)>) -> Vec<(usize, String, Json)> {
        units
            .into_iter()
            .map(|(i, l, v)| (i, l.to_string(), v))
            .collect()
    }

    fn shard(index: usize, count: usize) -> Shard {
        Shard { index, count }
    }

    #[test]
    fn scalar_and_array_values_round_trip() {
        for v in [0.1f64, -2.5e-9, 3.0, 1e300] {
            assert_eq!(
                f64::from_json(&parse(&v.to_json().to_string()).unwrap()),
                Ok(v)
            );
        }
        assert_eq!(u64::from_json(&Json::UInt(u64::MAX)), Ok(u64::MAX));
        let a = [1u64, u64::MAX, 0];
        assert_eq!(
            <[u64; 3]>::from_json(&parse(&a.to_json().to_string()).unwrap()),
            Ok(a)
        );
        let f = [0.25f64, 3.0, -1.5];
        assert_eq!(
            <[f64; 3]>::from_json(&parse(&f.to_json().to_string()).unwrap()),
            Ok(f)
        );
        assert!(<[u64; 2]>::from_json(&a.to_json()).is_err());
        assert!(f64::from_json(&Json::Str("x".into())).is_err());
    }

    #[test]
    fn page_table_study_round_trips() {
        let graph = rmat(12, 4, RmatParams::default(), 5);
        let study = page_table_study(&graph, &Workload::PageRank { iterations: 1 }).unwrap();
        let round =
            dvm_core::PageTableStudy::from_json(&parse(&study.to_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(format!("{study:?}"), format!("{round:?}"));
    }

    #[test]
    fn graph_report_round_trips_through_fragment_form() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        for mmu in [
            SchemeId::CONV_4K,
            SchemeId::DVM_BM,
            SchemeId::DVM_PE_PLUS,
            SchemeId::IDEAL,
        ] {
            let report =
                run_graph_experiment(&workload, &graph, &ExperimentConfig::for_mmu(mmu)).unwrap();
            let serialized = report_json(&report);
            let parsed = parse(&serialized.to_string()).unwrap();
            let round = report_from_json(&parsed, mmu, &workload).unwrap();
            // Re-serializing the reconstruction gives the same bytes the
            // formatters would have consumed.
            assert_eq!(report_json(&round), serialized);
            assert_eq!(round.tlb_miss_rate(), report.tlb_miss_rate());
            assert_eq!(round.cycles, report.cycles);
            assert_eq!(round.mm_energy_pj, report.mm_energy_pj);
        }
    }

    #[test]
    fn report_context_mismatch_is_rejected() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let doc = report_json(&report);
        assert!(report_from_json(&doc, SchemeId::DVM_BM, &workload).is_err());
        assert!(
            report_from_json(&doc, SchemeId::IDEAL, &Workload::PageRank { iterations: 1 }).is_err()
        );
    }

    #[test]
    fn fragments_merge_in_unit_order() {
        let f0 = fragment_doc(
            "t",
            "smoke",
            shard(0, 2),
            3,
            labeled(vec![(0, "a", Json::UInt(10)), (2, "c", Json::UInt(30))]),
        );
        let f1 = fragment_doc(
            "t",
            "smoke",
            shard(1, 2),
            3,
            labeled(vec![(1, "b", Json::UInt(20))]),
        );
        // Order of fragments must not matter.
        for frags in [[f0.clone(), f1.clone()], [f1, f0]] {
            let slots = merge_fragments(&frags, "t", "smoke", 3).unwrap();
            let labels: Vec<&str> = slots.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, ["a", "b", "c"]);
            assert_eq!(slots[2].1, Json::UInt(30));
        }
    }

    #[test]
    fn merge_rejects_inconsistent_fragment_sets() {
        let full = |units| fragment_doc("t", "smoke", shard(0, 1), 2, units);
        // Missing unit.
        let frag = full(labeled(vec![(0, "a", Json::UInt(1))]));
        assert!(merge_fragments(&[frag], "t", "smoke", 2)
            .unwrap_err()
            .contains("missing"));
        // Duplicate unit.
        let frag = full(labeled(vec![
            (0, "a", Json::UInt(1)),
            (0, "a", Json::UInt(1)),
        ]));
        assert!(merge_fragments(&[frag], "t", "smoke", 2)
            .unwrap_err()
            .contains("twice"));
        // Wrong experiment / scale / grid size.
        let frag = full(labeled(vec![
            (0, "a", Json::UInt(1)),
            (1, "b", Json::UInt(2)),
        ]));
        assert!(merge_fragments(std::slice::from_ref(&frag), "other", "smoke", 2).is_err());
        assert!(merge_fragments(std::slice::from_ref(&frag), "t", "quick", 2).is_err());
        assert!(merge_fragments(std::slice::from_ref(&frag), "t", "smoke", 5).is_err());
        // Incomplete shard set.
        let partial = fragment_doc(
            "t",
            "smoke",
            shard(0, 2),
            2,
            labeled(vec![(0, "a", Json::UInt(1)), (1, "b", Json::UInt(2))]),
        );
        assert!(merge_fragments(&[partial], "t", "smoke", 2)
            .unwrap_err()
            .contains("1 of 2"));
        // Empty set.
        assert!(merge_fragments(&[], "t", "smoke", 2).is_err());
    }

    #[test]
    fn corrupted_fragments_decode_to_err_or_the_original_reports() {
        // A rendered fragment of real reports goes through the farm
        // client's decode path (UTF-8, parse, merge, report_from_json)
        // after seeded bit flips or truncation. Every case must end in
        // Err or in reports identical to the originals: a flipped digit
        // still parses, so the fragment checksum has to catch it.
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let schemes = [SchemeId::CONV_4K, SchemeId::DVM_PE_PLUS];
        let want: Vec<Json> = schemes
            .iter()
            .map(|&mmu| {
                let config = ExperimentConfig::for_mmu(mmu);
                report_json(&run_graph_experiment(&workload, &graph, &config).unwrap())
            })
            .collect();
        let labels = ["BFS/a".to_string(), "BFS/b".to_string()];
        let units = (0..2)
            .map(|i| (i, labels[i].clone(), want[i].clone()))
            .collect();
        let text = format!("{}\n", fragment_doc("fig8", "smoke", shard(0, 1), 2, units));
        let decode = |bytes: &[u8]| -> Result<Vec<Json>, String> {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            let frag = parse(text)?;
            decode_fragments(&[frag], "fig8", "smoke", &labels, |i, value| {
                report_from_json(value, schemes[i], &workload).map(|r| report_json(&r))
            })
        };
        assert_eq!(decode(text.as_bytes()), Ok(want.clone()));
        let mut rejected = 0;
        for seed in 0..1000 {
            let mut rng = DetRng::new(seed);
            let mut bytes = text.clone().into_bytes();
            if seed % 2 == 0 {
                for _ in 0..=rng.below(3) {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.below(8);
                }
            } else {
                bytes.truncate(rng.below(bytes.len() as u64) as usize);
            }
            match decode(&bytes) {
                Ok(got) => assert_eq!(got, want, "seed {seed}: decoded to different reports"),
                Err(_) => rejected += 1,
            }
        }
        assert!(
            rejected > 900,
            "only {rejected} of 1000 corruptions rejected"
        );
    }

    #[test]
    fn fragment_documents_survive_render_and_parse() {
        let doc = fragment_doc(
            "fig2",
            "smoke",
            shard(1, 3),
            15,
            labeled(vec![(1, "BFS/Wiki", Json::Arr(vec![Json::Float(0.5)]))]),
        );
        let round = parse(&doc.to_string()).unwrap();
        assert_eq!(round, doc);
        assert_eq!(round.expect_str("kind"), Ok("shard-fragment"));
    }
}
