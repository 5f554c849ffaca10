//! Figure 2: TLB miss rates for the graph workloads with a 128-entry
//! fully associative TLB, 4 KiB vs 2 MiB pages.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig2 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{pair_label, run_sweep, BenchArgs, FigureJson, Json};
use dvm_core::SchemeId;
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    println!(
        "Figure 2: TLB miss rates (128-entry FA TLB), scale = {}\n",
        args.scale.name()
    );
    let schemes = args.iommu_schemes(&[SchemeId::CONV_4K, SchemeId::CONV_2M]);
    // The figure's historical column labels for the default pair; a
    // --schemes selection uses registry names (schemes without a TLB
    // report a 0.0 miss rate).
    let names: Vec<String> = if args.schemes.is_none() {
        vec!["4K pages".to_string(), "2M pages".to_string()]
    } else {
        schemes.iter().map(|c| c.name().to_string()).collect()
    };
    let cells = run_sweep(&args, &schemes);

    let mut header = vec!["workload/graph".to_string()];
    header.extend(names.iter().cloned());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let mut fig = FigureJson::new("fig2", args.scale.name(), &name_refs);
    let mut sums = vec![0.0f64; schemes.len()];
    for cell in &cells {
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
    args.emit_json(&fig);
    println!("{table}");
    println!("paper: ~21% average with 4K pages; 2M improves by only ~1% on");
    println!("average, except NF whose small movie side gives 2M high locality.");
}
