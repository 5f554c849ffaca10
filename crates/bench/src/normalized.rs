//! The one table path behind Figures 8, 9 and 11: divide each shown
//! scheme's metric by a baseline scheme's, and render a `{:.3}` table with
//! a geomean row (mirrored in the `--json` document).

use crate::{geomean, pair_label, BenchArgs, FigureJson, Json};
use dvm_core::{CellReports, GraphRunReport, SchemeId};
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
    /// Schemes swept when `--schemes` is not given, in sweep order.
    pub defaults: &'a [SchemeId],
    /// The scheme every column is divided by: always swept, never shown.
    pub baseline: SchemeId,
    /// What is normalized.
    pub metric: Metric,
    /// Lines printed after the table.
    pub footer: &'a [&'a str],
}

impl NormalizedFigure<'_> {
    /// The schemes to sweep for `args`: the defaults, or the `--schemes`
    /// selection, plus the baseline when it is missing.
    pub fn sweep(&self, args: &BenchArgs) -> Vec<SchemeId> {
        let mut sweep = args.iommu_schemes(self.defaults);
        if !sweep.contains(&self.baseline) {
            sweep.push(self.baseline);
        }
        sweep
    }

    /// The figure's stdout text (title, table, footer) and `--json`
    /// document for `cells`, which hold exactly [`Self::sweep`]'s
    /// reports: every report of a cell is embedded in its JSON row.
    ///
    /// # Panics
    ///
    /// Panics if a cell lacks a shown scheme or the baseline.
    pub fn render(&self, args: &BenchArgs, cells: &[CellReports]) -> (String, FigureJson) {
        // Ideal is never a column: it is 1.0 by construction when it is the
        // baseline, and it spends no memory-management energy otherwise.
        let shown: Vec<SchemeId> = args
            .iommu_schemes(self.defaults)
            .into_iter()
            .filter(|c| *c != self.baseline && *c != SchemeId::IDEAL)
            .collect();
        let names: Vec<&str> = shown.iter().map(|c| c.name()).collect();
        let mut header = vec!["workload/graph"];
        header.extend(&names);
        let mut table = Table::new(&header);
        let mut fig = FigureJson::new(self.experiment, args.scale.name(), &names);
        let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); shown.len()];

        for cell in cells {
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
        let mut text = format!("{}, scale = {}\n\n{table}\n", self.title, args.scale.name());
        for line in self.footer {
            text.push_str(line);
            text.push('\n');
        }
        (text, fig)
    }
}
