//! The farm contract, end to end over real binaries on 127.0.0.1: a
//! `fig2 --farm` run through `farmd` + two `farmworker`s is
//! byte-identical (stdout and `--json`) to a serial run — including
//! after one worker is SIGKILLed mid-slice and its slice is requeued to
//! the survivor.
//!
//! `fig2` lives in the bench crate, so there is no `CARGO_BIN_EXE_fig2`
//! here; it is located next to our own binaries in the target directory
//! and the tests skip (loudly) when a bench build hasn't produced it.
//! `scripts/ci.sh` runs the same scenario unconditionally.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kills its children on drop so a failed assertion can't leak daemons.
struct Reap(Vec<Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn bin_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_farmd"))
        .parent()
        .expect("farmd has a parent directory")
        .to_path_buf()
}

fn fig2_exe() -> Option<PathBuf> {
    let exe = bin_dir().join(format!("fig2{}", std::env::consts::EXE_SUFFIX));
    exe.is_file().then_some(exe)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-farm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exe: &Path, args: &[&str]) -> Output {
    let output = Command::new(exe).args(args).output().expect("binary ran");
    assert!(
        output.status.success(),
        "{} {args:?} failed:\n{}",
        exe.display(),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Start `farmd --listen 127.0.0.1:0`, collect its stderr lines into a
/// shared log, and return (child, address, log).
fn start_farmd() -> (Child, String, Arc<Mutex<Vec<String>>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_farmd"))
        .args(["--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("farmd spawned");
    let stderr = child.stderr.take().expect("stderr piped");
    let log = Arc::new(Mutex::new(Vec::<String>::new()));
    {
        let log = Arc::clone(&log);
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                log.lock().unwrap().push(line);
            }
        });
    }
    let addr = wait_for_line(&log, "farmd: listening on ", Duration::from_secs(10))
        .expect("farmd printed its address")
        .trim_start_matches("farmd: listening on ")
        .to_string();
    (child, addr, log)
}

fn wait_for_line(log: &Mutex<Vec<String>>, needle: &str, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Some(line) = log
            .lock()
            .unwrap()
            .iter()
            .find(|line| line.contains(needle))
        {
            return Some(line.clone());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    None
}

fn start_worker(addr: &str, name: &str, bins: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_farmworker"))
        .args([
            "--connect",
            addr,
            "--name",
            name,
            "--bin-dir",
            bins.to_str().unwrap(),
        ])
        .stderr(Stdio::null())
        .spawn()
        .expect("farmworker spawned")
}

const FIG2_ARGS: &[&str] = &["--scale", "smoke", "--datasets", "FR", "--jobs", "1"];

fn fig2_serial(exe: &Path, dir: &Path) -> (Output, String) {
    let json = dir.join("serial.json");
    let out = run(
        exe,
        &[FIG2_ARGS, &["--json", json.to_str().unwrap()]].concat(),
    );
    (out, std::fs::read_to_string(&json).unwrap())
}

#[test]
fn farm_run_is_byte_identical_to_serial() {
    let Some(fig2) = fig2_exe() else {
        eprintln!("skipping: fig2 not built next to farmd (run a workspace build first)");
        return;
    };
    let dir = scratch("loopback");
    let (serial, serial_json) = fig2_serial(&fig2, &dir);

    let (farmd, addr, log) = start_farmd();
    let mut reap = Reap(vec![farmd]);
    reap.0.push(start_worker(&addr, "w1", &bin_dir()));
    reap.0.push(start_worker(&addr, "w2", &bin_dir()));
    wait_for_line(&log, "(id 2)", Duration::from_secs(30)).expect("both workers registered");

    // Default slicing: one slice per connected worker.
    let farm_json = dir.join("farm.json");
    let farm = run(
        &fig2,
        &[
            FIG2_ARGS,
            &["--farm", &addr, "--json", farm_json.to_str().unwrap()],
        ]
        .concat(),
    );
    assert_eq!(
        serial.stdout, farm.stdout,
        "farm stdout differs from serial"
    );
    assert_eq!(
        serial_json,
        std::fs::read_to_string(&farm_json).unwrap(),
        "farm --json differs from serial"
    );

    // Explicit slice count (more slices than workers).
    let farm3_json = dir.join("farm3.json");
    let farm3 = run(
        &fig2,
        &[
            FIG2_ARGS,
            &[
                "--farm",
                &addr,
                "--shards",
                "3",
                "--json",
                farm3_json.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(
        serial.stdout, farm3.stdout,
        "--shards 3 farm stdout differs"
    );
    assert_eq!(
        serial_json,
        std::fs::read_to_string(&farm3_json).unwrap(),
        "--shards 3 farm --json differs"
    );
    drop(reap);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn killing_a_worker_mid_slice_requeues_and_stays_byte_identical() {
    let Some(fig2) = fig2_exe() else {
        eprintln!("skipping: fig2 not built next to farmd (run a workspace build first)");
        return;
    };
    let dir = scratch("kill9");
    let (serial, serial_json) = fig2_serial(&fig2, &dir);

    // w2 gets a decoy bin dir whose `fig2` sleeps forever, so its slice
    // is guaranteed to still be running when we SIGKILL the worker; the
    // requeued slice then runs on w1 with the real binary, so the final
    // output must still be byte-identical.
    let decoy_dir = dir.join("decoy-bins");
    decoy_fig2(&decoy_dir, "#!/bin/sh\nsleep 120\n");

    let (farmd, addr, log) = start_farmd();
    let mut reap = Reap(vec![farmd]);
    reap.0.push(start_worker(&addr, "w1", &bin_dir()));
    let w2 = start_worker(&addr, "w2", &decoy_dir);
    reap.0.push(w2);
    // Default slicing counts the workers registered at submission.
    wait_for_line(&log, "(id 2)", Duration::from_secs(30)).expect("both workers registered");

    // Run the farm job on a helper thread; the main thread watches the
    // coordinator log for w2's assignment and then kills it.
    let farm_json = dir.join("farm.json");
    let runner = {
        let fig2 = fig2.clone();
        let addr = addr.clone();
        let json = farm_json.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            run(
                &fig2,
                &[FIG2_ARGS, &["--farm", &addr, "--json", &json]].concat(),
            )
        })
    };
    wait_for_line(&log, "-> worker 'w2'", Duration::from_secs(30))
        .expect("farmd assigned a slice to w2");
    let w2 = reap.0.pop().expect("w2 is the last child");
    Reap(vec![w2]); // SIGKILL, mid-slice by construction

    let farm = runner.join().expect("farm run finished");
    assert_eq!(serial.stdout, farm.stdout, "farm stdout differs after kill");
    assert_eq!(
        serial_json,
        std::fs::read_to_string(&farm_json).unwrap(),
        "farm --json differs after kill"
    );
    let log = log.lock().unwrap().join("\n");
    assert!(
        log.contains("requeued (worker 'w2' died)"),
        "farmd log never recorded the requeue:\n{log}"
    );
    drop(reap);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write an executable `fig2` shell script into `dir`.
#[cfg(unix)]
fn decoy_fig2(dir: &Path, script: &str) {
    use std::os::unix::fs::PermissionsExt as _;
    std::fs::create_dir_all(dir).unwrap();
    let decoy = dir.join("fig2");
    std::fs::write(&decoy, script).unwrap();
    std::fs::set_permissions(&decoy, std::fs::Permissions::from_mode(0o755)).unwrap();
}

#[test]
#[cfg(unix)]
fn an_oversized_fragment_fails_the_slice_not_the_worker() {
    let Some(fig2) = fig2_exe() else {
        eprintln!("skipping: fig2 not built next to farmd (run a workspace build first)");
        return;
    };
    // The decoy prints a 64 MiB "fragment": with its DONE header it
    // cannot fit in one frame. The worker must report FAIL (the job
    // fails after its retries) and stay registered, rather than drop
    // the coordinator link.
    let dir = scratch("oversize");
    let decoy_dir = dir.join("decoy-bins");
    decoy_fig2(&decoy_dir, "#!/bin/sh\nhead -c 67108864 /dev/zero\n");
    let (farmd, addr, log) = start_farmd();
    let mut reap = Reap(vec![farmd]);
    reap.0.push(start_worker(&addr, "w1", &decoy_dir));
    wait_for_line(&log, "(id 1)", Duration::from_secs(30)).expect("worker registered");
    let out = Command::new(&fig2)
        .args(FIG2_ARGS)
        .args(["--farm", &addr])
        .output()
        .expect("fig2 ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("failed after 3 attempts") && stderr.contains("frame cap"),
        "stderr:\n{stderr}"
    );
    let log = log.lock().unwrap().join("\n");
    assert!(!log.contains("lost"), "the worker link broke:\n{log}");
    drop(reap);
    let _ = std::fs::remove_dir_all(&dir);
}
