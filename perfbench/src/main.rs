//! Command-line entry point of the simulator benchmark.
//!
//! ```text
//! perfbench --workload graph-translate|cf-vector|os-churn --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Prints a run record and every metric by name with its unit, then, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans as JSON
//! lines to `out/spans-<workload>-seed<N>.jsonl` in this package's
//! directory.

use dvm_perfbench::{run, Config, Size, Workload, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload graph-translate|cf-vector|os-churn \
--seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut config = Config::new(workload, seed, seconds, trace, Size::Quick);
    if trace {
        config.spans_path = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{seed}.jsonl", workload.name())),
        );
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    let record: Vec<String> = outcome
        .record
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("perfbench: {}", record.join(" "));
    println!(
        "  {:<32} {} of {}",
        "units_failed",
        outcome.failed(),
        outcome.attempted
    );
    for (name, value, unit) in outcome.metrics(config.trace) {
        let target = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(String::new(), |(_, _, target)| format!("  -> {target}"));
        println!("  {name:<32} {value:<16.6} {unit:<6}{target}");
    }
    println!("{}", outcome.result_line(config.trace));
    ExitCode::SUCCESS
}
