//! The four figures of the accelerator grid — Figures 2, 8, 9 and 11 —
//! behind one type. Each sweeps the paper pairs under its own scheme
//! list and renders its stdout text and `--json` document from the
//! cells. A standalone binary runs one figure; `accelfigs` sweeps the
//! union of the four lists once and renders every figure from it.

use crate::{pair_label, run_sweep, BenchArgs, FigureJson, Json, Metric, NormalizedFigure};
use dvm_core::{CellReports, SchemeId};
use dvm_sim::Table;

/// One figure of the accelerator grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelFigure {
    /// Figure 8: execution time normalized to Ideal.
    Fig8,
    /// Figure 2: TLB miss rates with 4 KiB and 2 MiB pages.
    Fig2,
    /// Figure 9: dynamic memory-management energy normalized to 4K.
    Fig9,
    /// Figure 11 (extension): DVM against the SVA rivals.
    Fig11,
}

/// Figure 8. Ideal (== 1.0 by construction) is omitted as in the figure,
/// but always swept: every column normalizes to it.
const FIG8: NormalizedFigure<'static> = NormalizedFigure {
    experiment: "fig8",
    title: "Figure 8: execution time normalized to Ideal",
    defaults: &SchemeId::PAPER_SET,
    baseline: SchemeId::IDEAL,
    metric: Metric::Cycles,
    footer: &[
        "paper: 4K/2M ~2.2x/2.1x, DVM-BM ~1.23x, DVM-PE ~1.035x,",
        "DVM-PE+ ~1.017x, 1G near-ideal for these footprints.",
    ],
};

/// Figure 9. It shows 2M, 1G, DVM-BM, DVM-PE, DVM-PE+ relative to 4K
/// (Ideal spends nothing and is omitted); the 4K baseline is always
/// swept even when filtered out of the columns.
const FIG9: NormalizedFigure<'static> = NormalizedFigure {
    experiment: "fig9",
    title: "Figure 9: dynamic MM energy normalized to 4K,TLB+PWC",
    defaults: &SchemeId::PAPER_SET,
    baseline: SchemeId::CONV_4K,
    metric: Metric::MmEnergy,
    footer: &[
        "paper: DVM-PE uses ~0.24x the 4K baseline's dynamic energy",
        "(3.9x less than 2M); DVM-BM ~0.85x; 1G low due to few misses.",
    ],
};

/// Figure 11. Ideal (== 1.0 by construction) is always swept: every
/// column normalizes to it.
const FIG11: NormalizedFigure<'static> = NormalizedFigure {
    experiment: "fig11",
    title: "Figure 11: DVM vs SVA rivals, runtime normalized to Ideal",
    defaults: &[
        SchemeId::CONV_4K,
        SchemeId::DVM_PE_PLUS,
        SchemeId::SVA_PF,
        SchemeId::SVA_IOMMU,
    ],
    baseline: SchemeId::IDEAL,
    metric: Metric::Cycles,
    footer: &[
        "expected: SVA-Pf's next-page prefetch helps streaming workloads (CF)",
        "but wastes walker and DRAM bandwidth on random access, where it can",
        "even lose to plain 4K; SVA-IOMMU pays for its smaller 8-way IOTLB,",
        "which misses far more often than the 4K FA TLB (its context is",
        "fetched once per run).",
        "DVM-PE+ beats both by validating identity mappings, not translating.",
    ],
};

/// Figure 2's schemes when `--schemes` is not given.
const FIG2_DEFAULTS: [SchemeId; 2] = [SchemeId::CONV_4K, SchemeId::CONV_2M];

impl AccelFigure {
    /// Every figure, in the order `accelfigs` writes them.
    pub const ALL: [AccelFigure; 4] = [
        AccelFigure::Fig8,
        AccelFigure::Fig2,
        AccelFigure::Fig9,
        AccelFigure::Fig11,
    ];

    /// The JSON `experiment` name, which is also the output file stem.
    pub fn experiment(self) -> &'static str {
        match self {
            AccelFigure::Fig2 => "fig2",
            AccelFigure::Fig8 => FIG8.experiment,
            AccelFigure::Fig9 => FIG9.experiment,
            AccelFigure::Fig11 => FIG11.experiment,
        }
    }

    fn normalized(self) -> Option<&'static NormalizedFigure<'static>> {
        match self {
            AccelFigure::Fig2 => None,
            AccelFigure::Fig8 => Some(&FIG8),
            AccelFigure::Fig9 => Some(&FIG9),
            AccelFigure::Fig11 => Some(&FIG11),
        }
    }

    /// The schemes this figure sweeps for `args`, in sweep order.
    pub fn sweep(self, args: &BenchArgs) -> Vec<SchemeId> {
        match self.normalized() {
            Some(figure) => figure.sweep(args),
            None => args.iommu_schemes(&FIG2_DEFAULTS),
        }
    }

    /// The stdout text and `--json` document for `cells`, which must hold
    /// exactly [`Self::sweep`]'s reports in that order: every report of a
    /// cell is embedded in its JSON row.
    ///
    /// # Panics
    ///
    /// Panics if a cell lacks a scheme the figure shows.
    pub fn render(self, args: &BenchArgs, cells: &[CellReports]) -> (String, FigureJson) {
        match self.normalized() {
            Some(figure) => figure.render(args, cells),
            None => render_fig2(args, cells),
        }
    }

    /// Sweep this figure's schemes, print its text on stdout and write
    /// the `--json` document, if one was asked for.
    ///
    /// # Panics
    ///
    /// Panics if an experiment fails.
    pub fn run(self, args: &BenchArgs) {
        let cells = run_sweep(args, &self.sweep(args));
        let (text, fig) = self.render(args, &cells);
        args.emit_json(&fig);
        print!("{text}");
    }
}

/// Figure 2's table: each scheme's TLB miss rate per pair, plus an
/// average row.
fn render_fig2(args: &BenchArgs, cells: &[CellReports]) -> (String, FigureJson) {
    let schemes = AccelFigure::Fig2.sweep(args);
    // The figure's historical column labels for the default pair; a
    // --schemes selection uses registry names (schemes without a TLB
    // report a 0.0 miss rate).
    let names: Vec<&str> = if args.schemes.is_none() {
        vec!["4K pages", "2M pages"]
    } else {
        schemes.iter().map(|c| c.name()).collect()
    };
    let mut header = vec!["workload/graph"];
    header.extend(&names);
    let mut table = Table::new(&header);
    let mut fig = FigureJson::new(AccelFigure::Fig2.experiment(), args.scale.name(), &names);
    let mut sums = vec![0.0f64; schemes.len()];
    for cell in cells {
        let rates: Vec<f64> = schemes
            .iter()
            .map(|&mmu| {
                cell.report_for(mmu)
                    .expect("scheme ran")
                    .tlb_miss_rate()
                    .unwrap_or(0.0)
            })
            .collect();
        for (sum, rate) in sums.iter_mut().zip(&rates) {
            *sum += rate;
        }
        let label = pair_label(&cell.workload, cell.dataset);
        let mut row = vec![label.clone()];
        row.extend(rates.iter().map(|r| format!("{:.1}%", r * 100.0)));
        table.row(&row);
        fig.row_with_reports(
            &label,
            rates.iter().map(|&r| Json::Float(r)).collect(),
            &cell.reports,
        );
    }
    if !cells.is_empty() {
        let n = cells.len() as f64;
        let mut avg_row = vec!["average".to_string()];
        avg_row.extend(sums.iter().map(|s| format!("{:.1}%", s / n * 100.0)));
        table.row(&avg_row);
        fig.summary(
            "average",
            Json::Arr(sums.iter().map(|&s| Json::Float(s / n)).collect()),
        );
    }
    let text = format!(
        "Figure 2: TLB miss rates (128-entry FA TLB), scale = {}\n\n{table}\n\
         paper: ~21% average with 4K pages; 2M improves by only ~1% on\n\
         average, except NF whose small movie side gives 2M high locality.\n",
        args.scale.name()
    );
    (text, fig)
}
