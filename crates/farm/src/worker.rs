//! The worker (`farmworker`): registers with a coordinator, runs the
//! shard slices it is handed by spawning the named bench binary with
//! `--shard I/N`, relays the child's stderr lines as `PROG` frames, and
//! ships the fragment document the child prints on stdout back as one
//! `DONE` frame. Heartbeats (`PING`) flow every second, including while
//! idle, so the coordinator can tell a slow worker from a dead one.

use crate::proto::{
    emit_stderr_line, is_token, read_frame, read_frame_resume, truncate_line, version_token,
    write_frame, Frame, MAGIC, MAX_FRAME,
};
use std::io::{self, BufRead, BufReader, ErrorKind, Read};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a worker connects and where it runs slices.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator `host:port`.
    pub addr: String,
    /// Directory holding the bench binaries the coordinator names.
    pub bin_dir: PathBuf,
    /// Name reported in the handshake (shows up in `farmd` logs).
    pub name: String,
    /// Local dataset cache; overrides the job's `--cache-dir` value.
    pub cache_dir: Option<PathBuf>,
    /// Local report cache; overrides the job's `--report-cache` value.
    pub report_cache: Option<PathBuf>,
}

/// How long the initial connect is retried (lets scripts start workers
/// before — or while — `farmd` comes up).
const CONNECT_WAIT: Duration = Duration::from_secs(10);

fn log(name: &str, msg: &str) {
    emit_stderr_line(&format!("farmworker[{name}]: {msg}"));
}

fn connect_with_retry(addr: &str) -> io::Result<TcpStream> {
    let deadline = Instant::now() + CONNECT_WAIT;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(250)),
            Err(err) => return Err(err),
        }
    }
}

/// Read one frame, sending a `PING` each time the 1-second read timeout
/// fires while the line is idle. Only the *first* byte is read under the
/// timeout; once a frame starts, the rest is read blocking, so a timeout
/// can never desynchronise the stream mid-frame.
fn read_frame_idle(reader: &mut BufReader<TcpStream>, writer: &TcpStream) -> io::Result<Frame> {
    loop {
        let mut first = [0u8; 1];
        match reader.read_exact(&mut first) {
            Ok(()) => {
                reader.get_ref().set_read_timeout(None)?;
                let frame = read_frame_resume(first[0], reader);
                reader
                    .get_ref()
                    .set_read_timeout(Some(Duration::from_secs(1)))?;
                return frame;
            }
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                write_frame(&mut &*writer, "PING", b"")?;
            }
            Err(err) => return Err(err),
        }
    }
}

/// Rewrite the job argv for this worker: point both caches at local
/// directories when configured (replacing the submitted value, or
/// appending the flag if the job didn't pass one), force `--progress` so
/// the coordinator can aggregate, and append the shard assignment.
fn slice_argv(argv: &[String], cfg: &WorkerConfig, slice: usize, count: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(argv.len() + 4);
    let overrides: [(&str, Option<&PathBuf>); 2] = [
        ("--cache-dir", cfg.cache_dir.as_ref()),
        ("--report-cache", cfg.report_cache.as_ref()),
    ];
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        if let Some((_, Some(dir))) = overrides
            .iter()
            .find(|(flag, over)| arg == flag && over.is_some())
        {
            iter.next(); // discard the submitted value
            out.push(arg.clone());
            out.push(dir.display().to_string());
        } else {
            out.push(arg.clone());
        }
    }
    for (flag, over) in overrides {
        if let Some(dir) = over {
            if !argv.iter().any(|a| a == flag) {
                out.push(flag.to_string());
                out.push(dir.display().to_string());
            }
        }
    }
    if !out.iter().any(|a| a == "--progress") {
        out.push("--progress".to_string());
    }
    out.push("--shard".to_string());
    out.push(format!("{slice}/{count}"));
    out
}

/// Outcome of one slice: the fragment bytes, or a failure description.
fn run_slice(
    cfg: &WorkerConfig,
    writer: &TcpStream,
    job: u64,
    slice: usize,
    count: usize,
    bin: &str,
    argv: &[String],
) -> io::Result<Result<Vec<u8>, String>> {
    let exe = cfg.bin_dir.join(bin);
    let child_argv = slice_argv(argv, cfg, slice, count);
    log(
        &cfg.name,
        &format!("job {job} slice {slice}/{count}: {}", exe.display()),
    );
    let mut child = match Command::new(&exe)
        .args(&child_argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(err) => return Ok(Err(format!("spawn {} failed: {err}", exe.display()))),
    };
    // A fragment can exceed the pipe buffer, so stdout drains on its own
    // thread while this one relays stderr.
    let stdout = child.stdout.take().expect("stdout was piped");
    let drain = std::thread::spawn(move || read_capped(stdout, MAX_FRAME));
    let status = relay_child(writer, &mut child, job, slice);
    if status.is_err() {
        // The coordinator link broke: stop the child so the drain ends.
        let _ = child.kill();
        let _ = child.wait();
    }
    let fragment = drain.join().expect("stdout drain panicked");
    let status = status?;
    if !status.success() {
        return Ok(Err(format!(
            "{bin} --shard {slice}/{count} exited with {status}"
        )));
    }
    Ok(match fragment {
        Ok(bytes) if done_header(job, slice).len() + 1 + bytes.len() > MAX_FRAME => {
            Err(format!("fragment exceeds the {MAX_FRAME}-byte frame cap"))
        }
        Ok(bytes) => Ok(bytes),
        Err(err) => Err(format!("reading the fragment from stdout failed: {err}")),
    })
}

fn done_header(job: u64, slice: usize) -> String {
    format!("DONE {job} {slice}")
}

/// Read a child's stdout to EOF, keeping at most `cap + 1` bytes (enough
/// to tell an oversized fragment): the rest is discarded so it cannot
/// balloon worker memory, yet the child never blocks on a full pipe.
fn read_capped(mut stdout: impl Read, cap: usize) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    (&mut stdout).take(cap as u64 + 1).read_to_end(&mut bytes)?;
    io::copy(&mut stdout, &mut io::sink())?;
    Ok(bytes)
}

/// Pump the child's stderr to the coordinator as `PROG` frames while
/// keeping heartbeats flowing; returns the child's exit status. An
/// `Err` here means the coordinator link itself broke — the caller
/// kills the child and exits.
fn relay_child(
    writer: &TcpStream,
    child: &mut Child,
    job: u64,
    slice: usize,
) -> io::Result<std::process::ExitStatus> {
    let stderr = child.stderr.take().expect("stderr was piped");
    let (tx, rx) = mpsc::channel::<String>();
    let pump = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let header = format!("PROG {job} {slice}");
    let mut last_ping = Instant::now();
    let status = loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(line) => write_frame(&mut &*writer, &header, truncate_line(&line).as_bytes())?,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // stderr closed; the child is exiting — collect it.
                break child.wait()?;
            }
        }
        if last_ping.elapsed() >= Duration::from_secs(1) {
            write_frame(&mut &*writer, "PING", b"")?;
            last_ping = Instant::now();
        }
        if let Some(status) = child.try_wait()? {
            // Drain stderr to EOF before reporting: the pump may not have
            // read the child's last lines (cache statistics) yet.
            for line in rx.iter() {
                write_frame(&mut &*writer, &header, truncate_line(&line).as_bytes())?;
            }
            break status;
        }
    };
    let _ = pump.join();
    Ok(status)
}

/// Connect, register, and serve slices until the coordinator says `BYE`
/// or the link drops.
///
/// # Errors
///
/// Connection or handshake failure, or a broken coordinator link
/// mid-session. A failing *slice* is not an error — it is reported to
/// the coordinator as a `FAIL` frame and the worker stays up.
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<()> {
    if !is_token(&cfg.name) {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!("worker name '{}' is not a plain token", cfg.name),
        ));
    }
    let stream = connect_with_retry(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    write_frame(
        &mut &writer,
        &format!("HELLO {} worker {}", version_token(), cfg.name),
        b"",
    )?;
    let oleh = read_frame(&mut reader)?;
    if oleh.verb() != "OLEH" {
        return Err(io::Error::new(
            ErrorKind::ConnectionRefused,
            format!(
                "coordinator rejected us: {} {}",
                oleh.header,
                oleh.body_str()
            ),
        ));
    }
    log(&cfg.name, &format!("registered with {}", cfg.addr));
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(1)))?;
    write_frame(&mut &writer, "READY", b"")?;
    loop {
        let frame = match read_frame_idle(&mut reader, &writer) {
            Ok(frame) => frame,
            Err(err) if err.kind() == ErrorKind::UnexpectedEof => {
                log(&cfg.name, "coordinator closed the connection");
                return Ok(());
            }
            Err(err) => return Err(err),
        };
        match frame.verb() {
            "BYE" => {
                log(&cfg.name, "dismissed by coordinator");
                return Ok(());
            }
            "RUN" => {
                let args = frame.args();
                let [job, slice, count, bin] = args.as_slice() else {
                    log(&cfg.name, &format!("malformed RUN '{}'", frame.header));
                    continue;
                };
                let (Ok(job), Ok(slice), Ok(count)) = (
                    job.parse::<u64>(),
                    slice.parse::<usize>(),
                    count.parse::<usize>(),
                ) else {
                    log(&cfg.name, &format!("malformed RUN '{}'", frame.header));
                    continue;
                };
                if !is_token(bin) {
                    // Never join untrusted path segments into bin_dir.
                    log(&cfg.name, &format!("refusing bin '{bin}'"));
                    write_frame(
                        &mut &writer,
                        &format!("FAIL {job} {slice}"),
                        format!("worker refused bin name '{bin}'").as_bytes(),
                    )?;
                    write_frame(&mut &writer, "READY", b"")?;
                    continue;
                }
                let argv: Vec<String> = frame.body_str().lines().map(str::to_string).collect();
                let outcome = run_slice(cfg, &writer, job, slice, count, bin, &argv)?;
                match outcome {
                    Ok(bytes) => {
                        write_frame(&mut &writer, &done_header(job, slice), &bytes)?;
                        log(
                            &cfg.name,
                            &format!("job {job} slice {slice} done ({} bytes)", bytes.len()),
                        );
                    }
                    Err(reason) => {
                        log(
                            &cfg.name,
                            &format!("job {job} slice {slice} failed: {reason}"),
                        );
                        write_frame(
                            &mut &writer,
                            &format!("FAIL {job} {slice}"),
                            reason.as_bytes(),
                        )?;
                    }
                }
                write_frame(&mut &writer, "READY", b"")?;
            }
            other => log(
                &cfg.name,
                &format!("ignoring unknown frame '{other}' ({MAGIC} drift?)"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cache: Option<&str>, report: Option<&str>) -> WorkerConfig {
        WorkerConfig {
            addr: "127.0.0.1:0".into(),
            bin_dir: PathBuf::from("/bins"),
            name: "w1".into(),
            cache_dir: cache.map(PathBuf::from),
            report_cache: report.map(PathBuf::from),
        }
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn stdout_drains_whole_but_keeps_at_most_one_byte_past_the_cap() {
        let fragment = b"{\"kind\": \"shard-fragment\"}\n";
        assert_eq!(read_capped(&fragment[..], 64).unwrap(), fragment);
        let mut long = io::repeat(b'x').take(1 << 20);
        assert_eq!(read_capped(&mut long, 64).unwrap().len(), 65);
        assert_eq!(long.limit(), 0, "the rest was drained");
    }

    #[test]
    fn slice_argv_appends_shard_and_progress() {
        let got = slice_argv(
            &strs(&["--scale", "quick", "--jobs", "1"]),
            &cfg(None, None),
            1,
            4,
        );
        assert_eq!(
            got,
            strs(&[
                "--scale",
                "quick",
                "--jobs",
                "1",
                "--progress",
                "--shard",
                "1/4",
            ])
        );
    }

    #[test]
    fn slice_argv_overrides_submitted_cache_paths() {
        let got = slice_argv(
            &strs(&["--cache-dir", "/theirs", "--progress", "--scale", "smoke"]),
            &cfg(Some("/ours"), Some("/ours-reports")),
            0,
            2,
        );
        assert_eq!(
            got,
            strs(&[
                "--cache-dir",
                "/ours",
                "--progress",
                "--scale",
                "smoke",
                "--report-cache",
                "/ours-reports",
                "--shard",
                "0/2",
            ])
        );
    }

    #[test]
    fn slice_argv_keeps_job_caches_when_worker_has_none() {
        let got = slice_argv(&strs(&["--cache-dir", "/theirs"]), &cfg(None, None), 0, 1);
        assert_eq!(got[..2], strs(&["--cache-dir", "/theirs"])[..]);
    }
}
