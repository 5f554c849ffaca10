//! Figure 10: VM overheads of CPU-only workloads (runtime normalized to
//! the ideal, translation-free case) under 4K pages, transparent huge
//! pages, and cDVM.
//!
//! ```text
//! cargo run --release -p dvm-bench --bin fig10 [--scale smoke|quick|paper|full] [--jobs N]
//! ```

use dvm_bench::{run_grid, BenchArgs, FigureJson, Json, Scale};
use dvm_core::{evaluate_cpu, CpuModelConfig, CpuScheme, CpuWorkload};
use dvm_sim::Table;

fn main() {
    let args = BenchArgs::parse();
    let config = CpuModelConfig {
        accesses: match args.scale {
            Scale::Smoke => 100_000,
            Scale::Quick => 500_000,
            _ => 2_000_000,
        },
        ..CpuModelConfig::default()
    };
    println!(
        "Figure 10: CPU VM overheads vs ideal, scale = {} ({} accesses/run)\n",
        args.scale.name(),
        config.accesses
    );
    // --schemes filters this binary's own CPU-scheme columns by name.
    let schemes = args.scheme_columns(&CpuScheme::ALL, |s| s.name());
    // The (workload × scheme) grid is shared-nothing, so it runs on the
    // grid runner like every other harness.
    let units: Vec<(CpuWorkload, CpuScheme)> = CpuWorkload::ALL
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| (w, s)))
        .collect();
    let labels: Vec<String> = units
        .iter()
        .map(|(w, s)| format!("{}/{}", w.name(), s.name()))
        .collect();
    let overheads: Vec<f64> = run_grid(&args, &labels, |i| {
        let (workload, scheme) = units[i];
        evaluate_cpu(workload, scheme, &config)
            .expect("cpu model failed")
            .overhead_percent()
    });

    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    let mut header = vec!["workload"];
    header.extend(&names);
    let mut table = Table::new(&header);
    let mut fig = FigureJson::new("fig10", args.scale.name(), &names);
    let mut sums = vec![0.0f64; schemes.len()];
    for (w, workload) in CpuWorkload::ALL.iter().enumerate() {
        let mut row = vec![workload.name().to_string()];
        let mut values = Vec::new();
        for s in 0..schemes.len() {
            let overhead = overheads[w * schemes.len() + s];
            sums[s] += overhead;
            row.push(format!("{overhead:.1}%"));
            values.push(Json::Float(overhead));
        }
        table.row(&row);
        fig.row(workload.name(), values);
    }
    let n = CpuWorkload::ALL.len() as f64;
    let mut avg_row = vec!["average".to_string()];
    avg_row.extend(sums.iter().map(|s| format!("{:.1}%", s / n)));
    table.row(&avg_row);
    fig.summary(
        "average",
        Json::Arr(sums.iter().map(|&s| Json::Float(s / n)).collect()),
    );
    args.emit_json(&fig);
    println!("{table}");
    println!("paper: ~29% average with 4K (mcf 84%), ~13% with THP, ~5% with cDVM.");
}
