//! Figure 8: accelerator execution time under each memory-management
//! scheme, normalized to the Ideal (direct physical access) run.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig8 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{geomean, pair_label, run_sweep, BenchArgs, FigureJson, Json};
use dvm_core::SchemeId;
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    println!(
        "Figure 8: execution time normalized to Ideal, scale = {}\n",
        args.scale.name()
    );
    let selected = args.iommu_schemes(&SchemeId::PAPER_SET);
    // Ideal (== 1.0 by construction) is omitted as in the figure, but
    // always swept: every column normalizes to it.
    let shown: Vec<SchemeId> = selected
        .iter()
        .copied()
        .filter(|&c| c != SchemeId::IDEAL)
        .collect();
    let mut sweep = selected;
    if !sweep.contains(&SchemeId::IDEAL) {
        sweep.push(SchemeId::IDEAL);
    }
    let names: Vec<&str> = shown.iter().map(|c| c.name()).collect();
    let mut header = vec!["workload/graph"];
    header.extend(&names);
    let mut table = Table::new(&header);
    let mut fig = FigureJson::new("fig8", args.scale.name(), &names);
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); shown.len()];

    for cell in &run_sweep(&args, &sweep) {
        let ideal = cell
            .report_for(SchemeId::IDEAL)
            .expect("sweep includes Ideal")
            .cycles
            .max(1) as f64;
        let label = pair_label(&cell.workload, cell.dataset);
        let mut row = vec![label.clone()];
        let mut values = Vec::new();
        for (i, &mmu) in shown.iter().enumerate() {
            let report = cell.report_for(mmu).expect("scheme ran");
            let normalized = report.cycles as f64 / ideal;
            per_config[i].push(normalized);
            row.push(format!("{normalized:.3}"));
            values.push(Json::Float(normalized));
        }
        table.row(&row);
        fig.row_with_reports(&label, values, &cell.reports);
    }
    let mut avg_row = vec!["geomean".to_string()];
    for values in &per_config {
        avg_row.push(format!("{:.3}", geomean(values)));
    }
    table.row(&avg_row);
    fig.summary(
        "geomean",
        Json::Arr(per_config.iter().map(|v| Json::Float(geomean(v))).collect()),
    );
    args.emit_json(&fig);
    println!("{table}");
    println!("paper: 4K/2M ~2.2x/2.1x, DVM-BM ~1.23x, DVM-PE ~1.035x,");
    println!("DVM-PE+ ~1.017x, 1G near-ideal for these footprints.");
}
