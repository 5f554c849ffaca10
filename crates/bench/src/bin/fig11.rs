//! Figure 11 (extension): DVM versus shared-virtual-addressing rivals.
//! Execution time normalized to Ideal for the 4K baseline, DVM-PE+, and
//! the two SVA schemes — SVA-Pf (TLB-prefetching SVA, after Kurth et
//! al.) and SVA-IOMMU (RISC-V IOMMU with a 64-entry 8-way IOTLB and a
//! one-time context fetch, after Koenig et al.) — over the same
//! workload × dataset grid as Figure 8.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig11 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{geomean, pair_label, run_sweep, BenchArgs, FigureJson, Json};
use dvm_core::SchemeId;
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    println!(
        "Figure 11: DVM vs SVA rivals, runtime normalized to Ideal, scale = {}\n",
        args.scale.name()
    );
    let selected = args.iommu_schemes(&[
        SchemeId::CONV_4K,
        SchemeId::DVM_PE_PLUS,
        SchemeId::SVA_PF,
        SchemeId::SVA_IOMMU,
    ]);
    // Ideal (== 1.0 by construction) is always swept: every column
    // normalizes to it.
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
    let mut fig = FigureJson::new("fig11", args.scale.name(), &names);
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
    println!("expected: SVA-Pf's next-page prefetch helps streaming workloads (CF)");
    println!("but wastes walker and DRAM bandwidth on random access, where it can");
    println!("even lose to plain 4K; SVA-IOMMU pays for its smaller 8-way IOTLB,");
    println!("which misses far more often than the 4K FA TLB (its context is");
    println!("fetched once per run).");
    println!("DVM-PE+ beats both by validating identity mappings, not translating.");
}
