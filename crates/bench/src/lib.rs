//! Shared plumbing for the benchmark harness binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §5 for the index).
//!
//! The crate is organised as layers the binaries compose:
//!
//! * [`cli`] — the one typed command line ([`BenchArgs`]) every binary
//!   parses,
//! * [`runner`] — the grid runners: [`run_sweep`] for the graph sweeps,
//!   [`run_grid`] for every other grid,
//! * [`normalized`] — [`NormalizedFigure`], the one table path of
//!   Figures 8, 9 and 11 (per-column ratios to a baseline scheme plus a
//!   geomean row),
//! * [`figures`] — [`AccelFigure`], the four figures of the accelerator
//!   grid (2, 8, 9, 11): each one's scheme list and renderer, shared by
//!   its standalone binary and by `accelfigs`,
//! * [`json`] — the hand-rolled JSON layer: [`JsonDoc`] builder (every
//!   document opens with `schema_version` + `experiment`), renderer,
//!   parser and header validation.
//!
//! Scales:
//!
//! * `smoke` — seconds; for tests and CI gates only.
//! * `quick` — minutes on a laptop; dataset stand-ins shrunk 8x further
//!   than `paper`. Shapes hold because footprints still exceed TLB reach.
//! * `paper` — stand-ins sized so vertex counts approach the published
//!   datasets (tens of minutes for Figure 8/9).
//! * `full`  — unscaled Table 3 sizes (hours; needs ~16 GiB of host RAM).
//!
//! All binaries execute through [`dvm_core::sweep`], so `--jobs N` runs
//! the shared-nothing (scheme × workload × dataset) grid on N threads
//! while producing output byte-identical to the serial run.

pub mod cli;
pub mod diff;
pub mod figures;
pub mod json;
pub mod normalized;
pub mod runner;

pub use cli::{BenchArgs, CliError};
pub use diff::diff_json;
pub use figures::AccelFigure;
pub use json::{
    parse, report_json, validate_header, FigureJson, Json, JsonDoc, ShardValue, SCHEMA_VERSION,
};
pub use normalized::{Metric, NormalizedFigure};
pub use runner::{run_grid, run_sweep};

use dvm_core::{Dataset, Workload};
use std::fmt::Write as _;

/// Dataset scaling selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 64x smaller than `quick`; seconds end to end, for tests/CI.
    Smoke,
    /// 8x smaller than `paper`; default.
    Quick,
    /// Near-published sizes.
    Paper,
    /// Exactly the published sizes.
    Full,
}

impl Scale {
    /// Human name.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::Full => "full",
        }
    }

    /// Inverse of [`Scale::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The `scale_div` to pass to [`Dataset::generate`]. The `paper`
    /// divisors are tuned per dataset so (a) every vertex set comfortably
    /// exceeds the 512 KiB reach of the 128-entry 4K TLB, and (b) most
    /// footprints exceed the 256 MiB reach of the 2M TLB — the property
    /// behind the paper's "2M pages barely help" observation — while edge
    /// counts stay tractable. `smoke` keeps none of those properties; it
    /// only exercises the machinery.
    pub fn divisor(&self, dataset: Dataset) -> u32 {
        let paper = match dataset {
            Dataset::Flickr => 1,
            Dataset::Wikipedia => 4,
            Dataset::LiveJournal => 4,
            Dataset::Rmat24 => 8,
            Dataset::Netflix => 4,
            Dataset::Bip1 => 2,
            Dataset::Bip2 => 8,
        };
        match self {
            Scale::Full => 1,
            Scale::Paper => paper,
            Scale::Quick => paper * 4,
            Scale::Smoke => paper * 256,
        }
    }
}

/// The 15 (workload, dataset) pairs of Figures 2, 8 and 9, in the paper's
/// order: BFS/PageRank/SSSP over {FR, Wiki, LJ, S24}, CF over
/// {NF, Bip1, Bip2}.
pub fn paper_pairs() -> Vec<(Workload, Dataset)> {
    let mut pairs = Vec::new();
    let graph_workloads = [
        Workload::Bfs { root: 0 },
        Workload::PageRank { iterations: 1 },
        Workload::Sssp {
            root: 0,
            max_iterations: 64,
        },
    ];
    for workload in graph_workloads {
        for dataset in Dataset::GRAPH_SET {
            pairs.push((workload, dataset));
        }
    }
    for dataset in Dataset::CF_SET {
        pairs.push((
            Workload::Cf {
                iterations: 1,
                features: 32,
            },
            dataset,
        ));
    }
    pairs
}

/// Label like "BFS/FR" used in figure rows.
pub fn pair_label(workload: &Workload, dataset: Dataset) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}/{}", workload.name(), dataset.short_name());
    s
}

/// Geometric mean (the right average for normalized ratios).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_core::SchemeId;

    #[test]
    fn fifteen_pairs_in_paper_order() {
        let pairs = paper_pairs();
        assert_eq!(pairs.len(), 15);
        assert_eq!(pair_label(&pairs[0].0, pairs[0].1), "BFS/FR");
        assert_eq!(pair_label(&pairs[14].0, pairs[14].1), "CF/Bip2");
    }

    #[test]
    fn divisors_shrink_with_quick() {
        for ds in Dataset::ALL {
            assert_eq!(Scale::Full.divisor(ds), 1);
            assert_eq!(Scale::Quick.divisor(ds), Scale::Paper.divisor(ds) * 4);
            assert_eq!(Scale::Smoke.divisor(ds), Scale::Quick.divisor(ds) * 64);
        }
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper, Scale::Full] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn sweep_spec_respects_filter() {
        let args = BenchArgs::try_parse(["--datasets".to_string(), "FR".to_string()]).unwrap();
        let spec = args.sweep_spec(&[SchemeId::IDEAL]);
        // FR appears once per graph workload (BFS, PageRank, SSSP).
        assert_eq!(spec.cells.len(), 3);
        assert!(spec.cells.iter().all(|c| c.dataset == Dataset::Flickr));
        assert_eq!(spec.cells[0].divisor, Scale::Quick.divisor(Dataset::Flickr));
    }
}
