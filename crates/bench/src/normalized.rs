//! The one path behind Figures 8, 9 and 11: sweep the paper pairs, divide
//! each shown scheme's metric by a baseline scheme's, and print a `{:.3}`
//! table with a geomean row (mirrored in the `--json` document).

use crate::{geomean, pair_label, run_sweep, BenchArgs, FigureJson, Json};
use dvm_core::{GraphRunReport, SchemeId};
use dvm_sim::Table;

/// The per-unit quantity a figure normalizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Accelerator execution cycles (Figures 8 and 11).
    Cycles,
    /// Dynamic memory-management energy in pJ (Figure 9).
    MmEnergy,
}

impl Metric {
    /// `report`'s value of this metric.
    fn of(self, report: &GraphRunReport) -> f64 {
        match self {
            Metric::Cycles => report.cycles as f64,
            Metric::MmEnergy => report.mm_energy_pj,
        }
    }

    /// The smallest baseline value a ratio divides by, so an empty
    /// baseline run cannot divide by zero.
    fn floor(self) -> f64 {
        match self {
            Metric::Cycles => 1.0,
            Metric::MmEnergy => 1e-9,
        }
    }
}

/// What distinguishes one normalized figure from another.
#[derive(Debug)]
pub struct NormalizedFigure<'a> {
    /// JSON `experiment` name, e.g. `"fig8"`.
    pub experiment: &'a str,
    /// First stdout line, before `, scale = <scale>`.
    pub title: &'a str,
    /// Schemes swept when `--schemes` is not given.
    pub defaults: &'a [SchemeId],
    /// The scheme every column is divided by: always swept, never shown.
    pub baseline: SchemeId,
    /// What is normalized.
    pub metric: Metric,
    /// Lines printed after the table.
    pub footer: &'a [&'a str],
}

impl NormalizedFigure<'_> {
    /// Run the figure for `args`: print the table and footer on stdout and
    /// write the `--json` document, if one was asked for.
    ///
    /// # Panics
    ///
    /// Panics if an experiment fails.
    pub fn run(&self, args: &BenchArgs) {
        println!("{}, scale = {}\n", self.title, args.scale.name());
        let selected = args.iommu_schemes(self.defaults);
        // Ideal is never a column: it is 1.0 by construction when it is the
        // baseline, and it spends no memory-management energy otherwise.
        let shown: Vec<SchemeId> = selected
            .iter()
            .copied()
            .filter(|c| *c != self.baseline && *c != SchemeId::IDEAL)
            .collect();
        let mut sweep = selected;
        if !sweep.contains(&self.baseline) {
            sweep.push(self.baseline);
        }
        let names: Vec<&str> = shown.iter().map(|c| c.name()).collect();
        let mut header = vec!["workload/graph"];
        header.extend(&names);
        let mut table = Table::new(&header);
        let mut fig = FigureJson::new(self.experiment, args.scale.name(), &names);
        let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); shown.len()];

        for cell in &run_sweep(args, &sweep) {
            let base = self
                .metric
                .of(cell
                    .report_for(self.baseline)
                    .expect("sweep includes the baseline"))
                .max(self.metric.floor());
            let label = pair_label(&cell.workload, cell.dataset);
            let mut row = vec![label.clone()];
            let mut values = Vec::new();
            for (column, &mmu) in per_column.iter_mut().zip(&shown) {
                let normalized = self.metric.of(cell.report_for(mmu).expect("scheme ran")) / base;
                column.push(normalized);
                row.push(format!("{normalized:.3}"));
                values.push(Json::Float(normalized));
            }
            table.row(&row);
            fig.row_with_reports(&label, values, &cell.reports);
        }
        let means: Vec<f64> = per_column.iter().map(|v| geomean(v)).collect();
        let mut mean_row = vec!["geomean".to_string()];
        mean_row.extend(means.iter().map(|m| format!("{m:.3}")));
        table.row(&mean_row);
        fig.summary(
            "geomean",
            Json::Arr(means.into_iter().map(Json::Float).collect()),
        );
        args.emit_json(&fig);
        println!("{table}");
        for line in self.footer {
            println!("{line}");
        }
    }
}
