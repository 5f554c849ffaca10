//! Run BFS on a Graphicionado-style accelerator under every
//! memory-management scheme and compare execution time, TLB/AVC behaviour
//! and dynamic energy — a one-graph miniature of the paper's Figure 8/9.
//!
//! ```text
//! cargo run --release --example graph_accelerator
//! ```

use dvm_core::{run_paper_configs, Workload};
use dvm_graph::{rmat, RmatParams};
use dvm_sim::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scale-18 R-MAT graph: 262K vertices, 2M edges, ~28 MiB footprint —
    // far beyond the 512 KiB reach of the accelerator's 128-entry 4K TLB.
    println!("generating R-MAT graph (scale 18, edge factor 8)...");
    let graph = rmat(18, 8, RmatParams::default(), 2026);
    let workload = Workload::Bfs { root: 0 };

    println!("running BFS under all 7 memory-management schemes...\n");
    let reports = run_paper_configs(&workload, &graph)?;
    let ideal = reports.last().expect("ideal run").cycles as f64;

    let mut table = Table::new(&[
        "scheme",
        "cycles",
        "vs ideal",
        "tlb miss",
        "walk mem refs",
        "mm energy (uJ)",
    ]);
    for report in &reports {
        table.row(&[
            report.mmu.name().into(),
            report.cycles.to_string(),
            format!("{:.3}x", report.cycles as f64 / ideal),
            report
                .tlb_miss_rate()
                .map_or("-".into(), |r| format!("{:.1}%", r * 100.0)),
            report.walk_mem_refs.to_string(),
            format!("{:.1}", report.mm_energy_pj / 1e6),
        ]);
    }
    println!("{table}");

    let pe_plus = &reports[5];
    println!(
        "DVM-PE+ validated {} accesses as identity ({} preloads squashed)",
        pe_plus.identity_validations, pe_plus.preload_squashes
    );
    println!(
        "speedup of DVM-PE+ over 4K conventional VM: {:.2}x",
        reports[0].cycles as f64 / pe_plus.cycles as f64
    );
    Ok(())
}
