//! The cache byte-budget contract, end to end over real processes: the
//! two worker processes of a `--shards 2` loopback farm filling one
//! budget-capped dataset-cache directory must (a) leave the directory at
//! or under the budget, (b) never serve a torn entry (`rejected=0` in
//! every worker's relayed cache line), and (c) produce merged output
//! byte-identical to an uncapped serial run — eviction races degrade to
//! regeneration, never to wrong results.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-budget-cap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exe: &str, args: &[&str]) -> Output {
    let output = Command::new(exe).args(args).output().expect("binary ran");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn csr_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csr"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

#[test]
fn concurrent_workers_respect_the_budget_and_match_serial_output() {
    let exe = env!("CARGO_BIN_EXE_fig2");
    let dir = scratch("fig2");

    // Uncapped serial baseline: fills a cache dir so we can size a
    // budget strictly below the sweep's working set.
    let serial_json = dir.join("serial.json");
    let full_cache = dir.join("full-cache");
    let serial = run(
        exe,
        &[
            "--scale",
            "smoke",
            "--jobs",
            "1",
            "--cache-dir",
            full_cache.to_str().unwrap(),
            "--json",
            serial_json.to_str().unwrap(),
        ],
    );
    let working_set = csr_bytes(&full_cache);
    assert!(working_set > 1, "baseline run cached nothing");
    let budget = working_set - 1;

    // The farm's two worker processes race on one capped cache dir.
    let capped_cache = dir.join("capped-cache");
    let sharded_json = dir.join("sharded.json");
    let sharded = run(
        exe,
        &[
            "--scale",
            "smoke",
            "--jobs",
            "1",
            "--shards",
            "2",
            "--cache-dir",
            capped_cache.to_str().unwrap(),
            "--cache-max-bytes",
            &budget.to_string(),
            "--json",
            sharded_json.to_str().unwrap(),
        ],
    );
    let stderr = String::from_utf8_lossy(&sharded.stderr);
    let cache_lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("dataset-cache:"))
        .collect();
    assert_eq!(cache_lines.len(), 2, "one cache line per worker:\n{stderr}");
    for line in cache_lines {
        assert!(
            line.contains("rejected=0"),
            "a worker loaded a torn entry: {line}"
        );
    }

    // The winners' directory ended under the budget (entries only; the
    // recency index is bookkeeping, not cached payload).
    assert!(
        csr_bytes(&capped_cache) <= budget,
        "cache dir exceeds its byte budget"
    );

    // Merged output is byte-identical to the uncapped serial run.
    assert_eq!(
        serial.stdout, sharded.stdout,
        "budget-capped stdout differs from uncapped serial"
    );
    assert_eq!(
        read(&serial_json),
        read(&sharded_json),
        "budget-capped --json differs from uncapped serial"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
