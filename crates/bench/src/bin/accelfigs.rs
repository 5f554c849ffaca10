//! The accelerator grid in one process: Figures 8, 2, 9 and 11 from one
//! sweep of the union of their schemes (15 paper pairs × 9 schemes),
//! each dataset generated once. Writes `OUT_DIR/<fig>_<scale>.txt` and
//! `.json` for each figure, byte-identical to the matching binary's
//! stdout and `--json` document.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin accelfigs -- OUT_DIR [--scale smoke|quick|paper|full] [--datasets D] [--jobs N] [--progress]
//! ```
//!
//! `--schemes` and `--json` exit 2: each figure sweeps its own schemes,
//! and every document goes to `OUT_DIR`.

use dvm_bench::{run_sweep, AccelFigure, BenchArgs};
use dvm_core::{CellReports, SchemeId};
use std::path::PathBuf;

const USAGE: &str = "usage: accelfigs OUT_DIR [--scale smoke|quick|paper|full] \
                     [--datasets FR,Wiki,...] [--jobs N] [--progress]";

fn usage_error(msg: &str) -> ! {
    eprintln!("accelfigs: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// `cells` cut down to `schemes`, in that order — what a sweep of
/// `schemes` alone returns, so the figure embeds the same reports.
fn restrict(cells: &[CellReports], schemes: &[SchemeId]) -> Vec<CellReports> {
    cells
        .iter()
        .map(|cell| CellReports {
            workload: cell.workload,
            dataset: cell.dataset,
            reports: schemes
                .iter()
                .map(|&mmu| cell.report_for(mmu).expect("union sweep ran").clone())
                .collect(),
        })
        .collect()
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let out_dir = match argv.next() {
        Some(flag) if flag == "--help" || flag == "-h" => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Some(dir) if !dir.starts_with('-') => PathBuf::from(dir),
        _ => usage_error("OUT_DIR must be the first argument"),
    };
    let args = BenchArgs::parse_from(argv);
    if args.schemes.is_some() {
        usage_error("--schemes is not accepted: each figure sweeps its own schemes");
    }
    if args.json.is_some() {
        usage_error("--json is not accepted: every document goes to OUT_DIR");
    }
    std::fs::create_dir_all(&out_dir).expect("creating OUT_DIR failed");

    let mut union: Vec<SchemeId> = Vec::new();
    for figure in AccelFigure::ALL {
        for mmu in figure.sweep(&args) {
            if !union.contains(&mmu) {
                union.push(mmu);
            }
        }
    }
    let cells = run_sweep(&args, &union);
    for figure in AccelFigure::ALL {
        let (text, fig) = figure.render(&args, &restrict(&cells, &figure.sweep(&args)));
        let stem = out_dir.join(format!("{}_{}", figure.experiment(), args.scale.name()));
        let txt = stem.with_extension("txt");
        std::fs::write(&txt, text).expect("writing figure text failed");
        fig.write(&stem.with_extension("json"))
            .expect("writing figure JSON failed");
        println!("accelfigs: wrote {} and .json", txt.display());
    }
}
