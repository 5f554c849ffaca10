//! The two grid runners every bench binary calls: [`run_sweep`] for the
//! (workload × dataset × scheme) graph sweeps and [`run_grid`] for every
//! other shared-nothing grid (Figure 10's CPU grid, the table studies,
//! the nested-translation study, the churn scenarios).
//!
//! Both run the whole grid in this process on `--jobs N` threads and
//! return values in unit order, so the output is byte-identical to a
//! `--jobs 1` run. Both print the report-cache statistics once the
//! results are in.

use crate::BenchArgs;
use dvm_core::{parallel_map_ordered, CellReports, SchemeId, SweepProgress, SweepRunner};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run the paper pairs that pass the dataset filter under `schemes` and
/// return one [`CellReports`] per cell, in spec order.
///
/// # Panics
///
/// Panics if any experiment fails — harness binaries have no recovery
/// path.
pub fn run_sweep(args: &BenchArgs, schemes: &[SchemeId]) -> Vec<CellReports> {
    let spec = args.sweep_spec(schemes);
    let report = |p: SweepProgress<'_>| {
        eprintln!(
            "progress: {}/{} ({}/{} {})",
            p.done, p.total, p.workload, p.dataset, p.scheme
        );
    };
    let mut runner = SweepRunner::new(&spec).jobs(args.jobs);
    if args.progress {
        runner = runner.progress(&report);
    }
    if let Some(reports) = args.reports.as_ref() {
        runner = runner.report_store(reports);
    }
    let cells = runner.run().expect("experiment failed");
    args.report_cache_stats();
    cells
}

/// Run `compute(i)` for each of the `labels.len()` units and return the
/// values in unit order. `labels` name the units in progress lines.
///
/// # Panics
///
/// Panics if `compute` panics.
pub fn run_grid<T, F>(args: &BenchArgs, labels: &[String], compute: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let indices: Vec<usize> = (0..labels.len()).collect();
    let done = AtomicUsize::new(0);
    let values = parallel_map_ordered(&indices, args.jobs, |&i| {
        let value = compute(i);
        if args.progress {
            let done = done.fetch_add(1, Ordering::AcqRel) + 1;
            eprintln!("progress: {done}/{} ({})", labels.len(), labels[i]);
        }
        value
    });
    args.report_cache_stats();
    values
}
