//! Figure 9: dynamic energy spent in address translation / access
//! validation, normalized to the 4K TLB+PWC baseline.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig9 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{geomean, pair_label, run_sweep, BenchArgs, FigureJson, Json};
use dvm_core::SchemeId;
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    println!(
        "Figure 9: dynamic MM energy normalized to 4K,TLB+PWC, scale = {}\n",
        args.scale.name()
    );
    let baseline = SchemeId::CONV_4K;
    let selected = args.iommu_schemes(&SchemeId::PAPER_SET);
    // The figure shows 2M, 1G, DVM-BM, DVM-PE, DVM-PE+ relative to 4K
    // (Ideal spends nothing and is omitted); the 4K baseline is always
    // swept even when filtered out of the columns.
    let shown: Vec<SchemeId> = selected
        .iter()
        .copied()
        .filter(|&c| c != baseline && c != SchemeId::IDEAL)
        .collect();
    let mut sweep = selected;
    if !sweep.contains(&baseline) {
        sweep.push(baseline);
    }
    let names: Vec<&str> = shown.iter().map(|c| c.name()).collect();
    let mut header = vec!["workload/graph"];
    header.extend(&names);
    let mut table = Table::new(&header);
    let mut fig = FigureJson::new("fig9", args.scale.name(), &names);
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); shown.len()];

    for cell in &run_sweep(&args, &sweep) {
        let base = cell
            .report_for(baseline)
            .expect("sweep includes 4K")
            .mm_energy_pj
            .max(1e-9);
        let label = pair_label(&cell.workload, cell.dataset);
        let mut row = vec![label.clone()];
        let mut values = Vec::new();
        for (i, &mmu) in shown.iter().enumerate() {
            let report = cell.report_for(mmu).expect("scheme ran");
            let normalized = report.mm_energy_pj / base;
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
    println!("paper: DVM-PE uses ~0.24x the 4K baseline's dynamic energy");
    println!("(3.9x less than 2M); DVM-BM ~0.85x; 1G low due to few misses.");
}
