//! `farmworker` — a sweep-farm worker. Registers with a coordinator and
//! runs the shard slices it is handed by spawning bench binaries from
//! `--bin-dir`, until the coordinator dismisses it or the link drops.
//! The initial connect is retried for 10 s, so scripts may start workers
//! before `farmd` is listening.

use dvm_farm::WorkerConfig;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
usage: farmworker --connect HOST:PORT --bin-dir DIR [options]

options:
  --connect HOST:PORT   coordinator address (required)
  --bin-dir DIR         directory with the bench binaries (required)
  --name NAME           worker name in coordinator logs
                        (default worker-<pid>)
  --cache-dir DIR       local dataset cache (overrides the job's)
  --report-cache DIR    local report cache (overrides the job's)
  --help                show this help
";

fn usage_err(msg: &str) -> ! {
    eprintln!("farmworker: {msg}");
    eprint!("{USAGE}");
    exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut bin_dir: Option<PathBuf> = None;
    let mut name = format!("worker-{}", std::process::id());
    let mut cache_dir = None;
    let mut report_cache = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .unwrap_or_else(|| usage_err(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--connect" => addr = Some(value("--connect")),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value("--bin-dir"))),
            "--name" => name = value("--name"),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--report-cache" => report_cache = Some(PathBuf::from(value("--report-cache"))),
            other => usage_err(&format!("unknown argument '{other}'")),
        }
    }
    let Some(addr) = addr else {
        usage_err("--connect is required");
    };
    let Some(bin_dir) = bin_dir else {
        usage_err("--bin-dir is required");
    };
    if !bin_dir.is_dir() {
        usage_err(&format!(
            "--bin-dir {} is not a directory",
            bin_dir.display()
        ));
    }
    let cfg = WorkerConfig {
        addr,
        bin_dir,
        name,
        cache_dir,
        report_cache,
    };
    if let Err(err) = dvm_farm::run_worker(&cfg) {
        eprintln!("farmworker[{}]: {err}", cfg.name);
        exit(1);
    }
}
