//! The sweep engine: one shared execution path for every figure/table
//! harness, replacing the hand-rolled serial loops the binaries used to
//! carry individually.
//!
//! A [`SweepSpec`] describes a grid of (workload × dataset × scheme)
//! cells; [`SweepRunner`] executes the grid on a scoped-thread worker
//! pool and returns results **in spec order**, so a parallel run's output
//! is byte-identical to a serial one. Each dataset's graph is generated
//! once per (dataset, divisor) key, shared between cells via [`Arc`], and
//! dropped as soon as its last cell completes — a `--jobs 1` sweep
//! therefore holds at most as many graphs in memory as the old serial
//! loops did.
//!
//! Every cell is shared-nothing (its own `Os`, IOMMU, DRAM and
//! accelerator instances), which is what makes the grid embarrassingly
//! parallel; the only cross-cell state is the read-only input graph.
//! Each unit runs serially on one worker thread (see DESIGN.md, "Why
//! units are not pipelined").
//!
//! Nothing is stored between runs: every unit is simulated, and a
//! harness that needs several figures from one grid sweeps the union of
//! their schemes once (the `accelfigs` bench binary).

use crate::experiment::{run_graph_experiment, ExperimentConfig, GraphRunReport};
use dvm_accel::Workload;
use dvm_graph::Dataset;
use dvm_mmu::SchemeId;
use dvm_types::DvmError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One cell group of a sweep: a (workload, dataset) pair evaluated under
/// a list of MMU schemes.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Workload to run.
    pub workload: Workload,
    /// Input dataset; its graph is generated once and shared.
    pub dataset: Dataset,
    /// Power-of-two shrink factor passed to [`Dataset::generate`].
    pub divisor: u32,
    /// Schemes to evaluate, in output order.
    pub schemes: Vec<SchemeId>,
}

/// A grid of cells, executed in order.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    /// Cells in output order.
    pub cells: Vec<SweepCell>,
}

impl SweepSpec {
    /// Build a spec from (workload, dataset) pairs sharing one scheme set
    /// and one divisor policy — the shape of Figures 2, 8 and 9.
    pub fn for_pairs(
        pairs: impl IntoIterator<Item = (Workload, Dataset)>,
        schemes: &[SchemeId],
        divisor: impl Fn(Dataset) -> u32,
    ) -> Self {
        Self {
            cells: pairs
                .into_iter()
                .map(|(workload, dataset)| SweepCell {
                    workload,
                    dataset,
                    divisor: divisor(dataset),
                    schemes: schemes.to_vec(),
                })
                .collect(),
        }
    }
}

/// A (configuration × epoch) grid for *time-series* experiments — the
/// churn scenarios' shape, where each simulation unit is one scheme
/// configuration producing a whole trajectory rather than one scalar.
///
/// The distinction matters for parallelism: units (what `run_grid`
/// distributes across jobs) are the **configs**, while output
/// rows are the configs × epochs cross product. `EpochGrid` pins the row
/// order and labels so every parallelism level formats the identical
/// document: config-major, epoch-minor, with zero-padded epoch tags
/// (`DVM-PE/e07`) that sort lexicographically in epoch order.
#[derive(Debug, Clone)]
pub struct EpochGrid {
    /// Configuration labels, in unit (and output-column-group) order.
    pub configs: Vec<String>,
    /// Epochs each configuration is simulated for.
    pub epochs: u32,
}

impl EpochGrid {
    /// Build a grid from configuration labels and an epoch horizon.
    pub fn new(configs: impl IntoIterator<Item = impl Into<String>>, epochs: u32) -> Self {
        Self {
            configs: configs.into_iter().map(Into::into).collect(),
            epochs,
        }
    }

    /// Output rows: configs × epochs.
    pub fn row_count(&self) -> usize {
        self.configs.len() * self.epochs as usize
    }

    /// Digits needed so epoch tags sort lexicographically in epoch order.
    fn epoch_digits(&self) -> usize {
        self.epochs.saturating_sub(1).max(1).ilog10() as usize + 1
    }

    /// The stable row label for `(config, epoch)`, e.g. `DVM-PE/e07`.
    ///
    /// # Panics
    ///
    /// Panics if `config` or `epoch` is out of the grid's bounds.
    pub fn row_label(&self, config: usize, epoch: u32) -> String {
        assert!(epoch < self.epochs, "epoch {epoch} out of {}", self.epochs);
        format!(
            "{}/e{epoch:0width$}",
            self.configs[config],
            width = self.epoch_digits()
        )
    }

    /// All `(config index, epoch)` pairs in output order — config-major,
    /// epoch-minor, matching one row group per simulation unit.
    pub fn rows(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..self.configs.len()).flat_map(move |c| (0..self.epochs).map(move |e| (c, e)))
    }
}

/// Progress snapshot handed to [`SweepRunner::progress`] after each
/// (cell, scheme) unit completes.
#[derive(Debug, Clone, Copy)]
pub struct SweepProgress<'a> {
    /// Units finished so far (across all worker threads).
    pub done: usize,
    /// Total units in the sweep.
    pub total: usize,
    /// Workload of the unit that just finished.
    pub workload: &'a str,
    /// Dataset of the unit that just finished.
    pub dataset: &'a str,
    /// Scheme of the unit that just finished.
    pub scheme: &'a str,
}

/// Results of one cell: the pair plus one report per scheme, in the
/// cell's scheme order.
#[derive(Debug, Clone)]
pub struct CellReports {
    /// Workload that ran.
    pub workload: Workload,
    /// Dataset it ran over.
    pub dataset: Dataset,
    /// One report per scheme, in the cell's scheme order.
    pub reports: Vec<GraphRunReport>,
}

impl CellReports {
    /// The report for a specific scheme, replacing the positional
    /// `reports[6]`-style indexing the old binaries relied on.
    pub fn report_for(&self, mmu: SchemeId) -> Option<&GraphRunReport> {
        self.reports.iter().find(|r| r.mmu == mmu)
    }
}

/// Resolve a `--jobs` request: `0` means "all available cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

/// Apply `f` to every item on a pool of `jobs` scoped worker threads and
/// return the results **in item order** — the deterministic-ordering
/// primitive under [`SweepRunner::run`], exported because several harnesses
/// (Figure 10's CPU grid, Table 4's shbench grid, the nested-translation
/// study) have shared-nothing grids that are not graph sweeps.
///
/// `jobs == 1` (after [`effective_jobs`] resolution) degenerates to a
/// plain in-order loop on the calling thread.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// A graph generated once and handed to every cell that needs it; the
/// slot is emptied when the last unit referencing it completes so peak
/// memory tracks the number of *in-flight* datasets, not the whole grid.
struct SharedGraph {
    dataset: Dataset,
    divisor: u32,
    slot: Mutex<Option<Arc<dvm_graph::Graph>>>,
    remaining: AtomicUsize,
}

impl SharedGraph {
    fn new(dataset: Dataset, divisor: u32) -> Self {
        Self {
            dataset,
            divisor,
            slot: Mutex::new(None),
            remaining: AtomicUsize::new(0),
        }
    }

    fn get(&self) -> Arc<dvm_graph::Graph> {
        let mut slot = self.slot.lock().expect("graph slot poisoned");
        slot.get_or_insert_with(|| Arc::new(self.dataset.generate(self.divisor)))
            .clone()
    }

    fn release(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.slot.lock().expect("graph slot poisoned") = None;
        }
    }
}

/// The sweep executor, as a builder: construct with
/// [`SweepRunner::new`], chain the knobs the harness needs, and call
/// [`run`](SweepRunner::run). This is the single entry point behind every
/// figure/table binary.
///
/// ```
/// use dvm_core::{SchemeId, SweepRunner, SweepSpec, Workload};
/// use dvm_graph::Dataset;
///
/// # fn main() -> Result<(), dvm_types::DvmError> {
/// let spec = SweepSpec::for_pairs(
///     [(Workload::Bfs { root: 0 }, Dataset::Flickr)],
///     &[SchemeId::IDEAL],
///     |_| 1024,
/// );
/// let results = SweepRunner::new(&spec).jobs(2).run()?;
/// assert_eq!(results.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct SweepRunner<'a> {
    spec: &'a SweepSpec,
    jobs: usize,
    progress: Option<&'a (dyn Fn(SweepProgress<'_>) + Sync)>,
}

impl std::fmt::Debug for SweepRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("cells", &self.spec.cells.len())
            .field("jobs", &self.jobs)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl<'a> SweepRunner<'a> {
    /// A serial runner for `spec`; chain the builder methods to turn
    /// features on.
    pub fn new(spec: &'a SweepSpec) -> Self {
        Self {
            spec,
            jobs: 1,
            progress: None,
        }
    }

    /// Worker threads (`0` = all cores, `1` = serial). Parallelism never
    /// changes output: results always come back in spec order.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Invoke `callback` after every completed unit, from worker threads.
    /// Must not touch stdout: the byte-identical output contract lives
    /// there.
    pub fn progress(mut self, callback: &'a (dyn Fn(SweepProgress<'_>) + Sync)) -> Self {
        self.progress = Some(callback);
        self
    }

    /// Execute the sweep.
    ///
    /// Results come back in spec order — cell by cell, scheme by scheme —
    /// regardless of `jobs`, so downstream formatting is reproducible
    /// across parallelism levels. No option perturbs results: a parallel,
    /// progress-reporting run returns exactly what a bare serial run does.
    ///
    /// # Errors
    ///
    /// Returns the first failing unit's error, in spec order. Remaining
    /// units still run to completion before the error is returned.
    pub fn run(&self) -> Result<Vec<CellReports>, DvmError> {
        let spec = self.spec;
        // One shared graph per distinct (dataset, divisor) key.
        let mut shared: Vec<SharedGraph> = Vec::new();
        let mut key_of_cell: Vec<usize> = Vec::with_capacity(spec.cells.len());
        for cell in &spec.cells {
            let key = shared
                .iter()
                .position(|s| s.dataset == cell.dataset && s.divisor == cell.divisor)
                .unwrap_or_else(|| {
                    shared.push(SharedGraph::new(cell.dataset, cell.divisor));
                    shared.len() - 1
                });
            shared[key]
                .remaining
                .fetch_add(cell.schemes.len(), Ordering::Relaxed);
            key_of_cell.push(key);
        }

        // Flatten to shared-nothing units: one (cell, scheme) experiment
        // each.
        struct Unit {
            cell: usize,
            workload: Workload,
            dataset: Dataset,
            mmu: SchemeId,
            key: usize,
        }
        let units: Vec<Unit> = spec
            .cells
            .iter()
            .enumerate()
            .flat_map(|(cell, c)| {
                let key = key_of_cell[cell];
                c.schemes.iter().map(move |&mmu| Unit {
                    cell,
                    workload: c.workload,
                    dataset: c.dataset,
                    mmu,
                    key,
                })
            })
            .collect();

        let total = units.len();
        let done = AtomicUsize::new(0);
        let outcomes = parallel_map_ordered(&units, self.jobs, |unit| {
            let report = run_graph_experiment(
                &unit.workload,
                &shared[unit.key].get(),
                &ExperimentConfig::for_mmu(unit.mmu),
            );
            shared[unit.key].release();
            if let Some(progress) = self.progress {
                progress(SweepProgress {
                    done: done.fetch_add(1, Ordering::AcqRel) + 1,
                    total,
                    workload: unit.workload.name(),
                    dataset: unit.dataset.short_name(),
                    scheme: unit.mmu.name(),
                });
            }
            report
        });

        // Reassemble in spec order; surface the first error in that order.
        let mut results: Vec<CellReports> = spec
            .cells
            .iter()
            .map(|c| CellReports {
                workload: c.workload,
                dataset: c.dataset,
                reports: Vec::with_capacity(c.schemes.len()),
            })
            .collect();
        for (unit, outcome) in units.iter().zip(outcomes) {
            results[unit.cell].reports.push(outcome?);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_grid_orders_and_labels_rows() {
        let grid = EpochGrid::new(["DVM-PE", "Paged-4K"], 12);
        assert_eq!(grid.row_count(), 24);
        assert_eq!(grid.row_label(0, 0), "DVM-PE/e00");
        assert_eq!(grid.row_label(1, 11), "Paged-4K/e11");
        let rows: Vec<(usize, u32)> = grid.rows().collect();
        assert_eq!(rows.len(), 24);
        assert_eq!(rows[0], (0, 0));
        assert_eq!(rows[11], (0, 11));
        assert_eq!(rows[12], (1, 0));
        // Labels sort lexicographically in row order within a config.
        let labels: Vec<String> = rows.iter().map(|&(c, e)| grid.row_label(c, e)).collect();
        let mut sorted = labels[..12].to_vec();
        sorted.sort();
        assert_eq!(sorted, labels[..12]);
        // Three digits once the horizon passes 100 epochs.
        let long = EpochGrid::new(["x"], 120);
        assert_eq!(long.row_label(0, 7), "x/e007");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn epoch_grid_rejects_out_of_range_epoch() {
        EpochGrid::new(["x"], 4).row_label(0, 4);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map_ordered(&items, 8, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_serial() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map_ordered(&empty, 4, |&x| x).is_empty());
        let items = [1u64, 2, 3];
        assert_eq!(parallel_map_ordered(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn spec_builder_expands_pairs() {
        let spec = SweepSpec::for_pairs(
            [
                (Workload::Bfs { root: 0 }, Dataset::Flickr),
                (Workload::Bfs { root: 0 }, Dataset::Netflix),
            ],
            &[SchemeId::IDEAL],
            |_| 1024,
        );
        assert_eq!(spec.cells.len(), 2);
        assert_eq!(spec.cells[1].dataset, Dataset::Netflix);
        assert_eq!(spec.cells[0].schemes, vec![SchemeId::IDEAL]);
    }

    #[test]
    fn options_do_not_perturb_results_and_progress_counts_units() {
        use std::sync::Mutex;
        let spec = SweepSpec::for_pairs(
            [
                (Workload::Bfs { root: 0 }, Dataset::Flickr),
                (Workload::PageRank { iterations: 1 }, Dataset::Flickr),
            ],
            &[SchemeId::IDEAL, SchemeId::DVM_PE],
            |_| 1024,
        );
        let plain = SweepRunner::new(&spec).run().unwrap();

        let events: Mutex<Vec<(usize, usize, String)>> = Mutex::new(Vec::new());
        let record = |p: SweepProgress<'_>| {
            events.lock().unwrap().push((
                p.done,
                p.total,
                format!("{}/{} {}", p.workload, p.dataset, p.scheme),
            ));
        };
        let opted = SweepRunner::new(&spec)
            .jobs(2)
            .progress(&record)
            .run()
            .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{opted:?}"));

        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|(_, total, _)| *total == 4));
        let mut dones: Vec<usize> = events.iter().map(|(done, _, _)| *done).collect();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2, 3, 4]);
        assert!(events.iter().any(|(_, _, label)| label == "BFS/FR Ideal"));
    }

    #[test]
    fn shared_graph_is_generated_once_and_dropped_after_its_last_unit() {
        let shared = SharedGraph::new(Dataset::Flickr, 1024);
        shared.remaining.store(3, Ordering::Relaxed);
        let first = shared.get();
        assert_eq!(*first, Dataset::Flickr.generate(1024));
        shared.release();
        let second = shared.get();
        assert!(
            Arc::ptr_eq(&first, &second),
            "regenerated before the last release"
        );
        shared.release();
        assert!(Arc::ptr_eq(&first, &shared.get()));
        shared.release();
        assert!(
            shared.slot.lock().unwrap().is_none(),
            "the last release keeps the graph alive"
        );
    }

    #[test]
    fn report_for_finds_scheme() {
        let spec = SweepSpec::for_pairs(
            [(Workload::Bfs { root: 0 }, Dataset::Flickr)],
            &[SchemeId::DVM_PE_PLUS, SchemeId::IDEAL],
            |_| 1024,
        );
        let results = SweepRunner::new(&spec).run().unwrap();
        assert_eq!(results.len(), 1);
        let cell = &results[0];
        assert_eq!(
            cell.report_for(SchemeId::IDEAL).unwrap().mmu,
            SchemeId::IDEAL
        );
        assert!(cell.report_for(SchemeId::DVM_BM).is_none());
    }
}
