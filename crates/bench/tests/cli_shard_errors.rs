//! Every harness binary must reject malformed `--shard` values the same
//! way: exit code 2 and one uniform diagnostic, regardless of *how* the
//! value is malformed (no slash, non-numeric, N = 0, I >= N). A farm
//! worker builds `--shard I/N` from coordinator-supplied numbers, so a
//! drifting or binary-specific message would make those failures
//! needlessly hard to trace.

use std::process::Command;

/// All eleven harness binaries that accept the shared CLI.
const BINS: &[(&str, &str)] = &[
    ("churn", env!("CARGO_BIN_EXE_churn")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
    ("table5", env!("CARGO_BIN_EXE_table5")),
    ("virt", env!("CARGO_BIN_EXE_virt")),
];

fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {exe} failed: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_shard_values_exit_2_with_one_message_everywhere() {
    // index >= count, count = 0, non-numeric halves, missing pieces.
    let bad_values = ["0/0", "3/3", "7/2", "x/3", "1/y", "2", "/", "1/"];
    for (name, exe) in BINS {
        for bad in bad_values {
            let (code, stderr) = run(exe, &["--shard", bad]);
            assert_eq!(
                code,
                Some(2),
                "{name} --shard {bad}: expected exit 2, stderr: {stderr}"
            );
            let want = format!("--shard needs I/N with 0 <= I < N (e.g. 0/4), got '{bad}'");
            assert!(
                stderr.contains(&want),
                "{name} --shard {bad}: stderr {stderr:?} missing {want:?}"
            );
        }
    }
}

#[test]
fn bad_shard_counts_exit_2_everywhere() {
    for (name, exe) in BINS {
        for bad in ["0", "x"] {
            let (code, stderr) = run(exe, &["--shards", bad]);
            assert_eq!(code, Some(2), "{name} --shards {bad}: expected exit 2");
            assert!(
                stderr.contains("--shards needs a positive integer"),
                "{name} --shards {bad}: stderr {stderr:?}"
            );
        }
    }
}

#[test]
fn farm_misuse_exits_2_everywhere() {
    for (name, exe) in BINS {
        let (code, stderr) = run(exe, &["--farm", "nohostport"]);
        assert_eq!(code, Some(2), "{name} --farm nohostport: expected exit 2");
        assert!(
            stderr.contains("--farm needs HOST:PORT"),
            "{name}: stderr {stderr:?}"
        );
        let (code, stderr) = run(exe, &["--farm", "h:1", "--shard", "0/2"]);
        assert_eq!(code, Some(2), "{name} --farm+--shard: expected exit 2");
        assert!(
            stderr.contains("--farm cannot be combined"),
            "{name}: stderr {stderr:?}"
        );
    }
}
