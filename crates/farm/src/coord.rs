//! The coordinator (`farmd`): accepts sweep jobs from clients, dispatches
//! shard slices to registered workers, tracks liveness via heartbeats,
//! requeues slices from dead or failing workers (bounded retry with
//! exponential backoff), aggregates per-worker progress streams into one
//! done/total counter, and streams completed fragments back to the
//! client — which merges them through the ordinary shard-merge path, so
//! farm output is byte-identical to a serial run.
//!
//! Concurrency model: one reader thread per connection plus a ticker;
//! all of them funnel into one `Mutex<State>`. Writes to any peer go
//! through a per-socket mutex ([`Peer`]), one whole frame per lock, so
//! frames never interleave.
//!
//! There are no tuning knobs. A slice runs on one worker until that
//! worker reports `DONE` or `FAIL`, or goes silent; however long it
//! takes, it is never handed to a second worker.

use crate::proto::{
    emit_stderr_line, is_token, parse_hello, progress_label, read_frame, truncate_line,
    version_token, write_frame, Frame,
};
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on slices per job; merge cost is linear in this.
pub const MAX_SLICES: usize = 4096;

/// A worker silent for longer than this is dead: its connection is
/// closed and its running slice requeued. Workers ping every second.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(10);

/// Total tries per slice before the whole job fails.
const MAX_ATTEMPTS: u32 = 3;

/// Base of the exponential reassignment backoff: retry `k` becomes
/// eligible `BACKOFF_BASE * 2^(k-1)` after the failure.
const BACKOFF_BASE: Duration = Duration::from_millis(500);

/// The write half of a connection: one whole frame per lock acquisition.
#[derive(Clone)]
struct Peer {
    stream: Arc<Mutex<TcpStream>>,
}

impl Peer {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Send one frame; `false` means the peer is unreachable.
    fn send(&self, header: &str, body: &[u8]) -> bool {
        let mut stream = self.stream.lock().expect("peer stream poisoned");
        write_frame(&mut *stream, header, body).is_ok()
    }

    /// Close both directions, waking any thread blocked reading it.
    fn shutdown(&self) {
        let stream = self.stream.lock().expect("peer stream poisoned");
        let _ = stream.shutdown(Shutdown::Both);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceStatus {
    Pending,
    Running { worker: u64 },
    Done,
}

#[derive(Debug, Clone)]
struct Slice {
    status: SliceStatus,
    /// Dispatches so far (the running one included).
    attempts: u32,
    /// Not dispatched before this instant (retry backoff).
    eligible_at: Instant,
}

struct Job {
    id: u64,
    client_id: u64,
    bin: String,
    experiment: String,
    argv: Vec<String>,
    slices: usize,
    total_units: usize,
    done_units: usize,
    client: Peer,
    closed: bool,
    slice: Vec<Slice>,
}

struct Worker {
    id: u64,
    name: String,
    peer: Peer,
    last_seen: Instant,
    idle: bool,
    running: Option<(u64, usize)>,
}

struct State {
    next_worker_id: u64,
    next_job_id: u64,
    next_client_id: u64,
    workers: Vec<Worker>,
    jobs: Vec<Job>,
}

fn log(msg: &str) {
    emit_stderr_line(&format!("farmd: {msg}"));
}

impl State {
    fn new() -> Self {
        Self {
            next_worker_id: 1,
            next_job_id: 1,
            next_client_id: 1,
            workers: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn add_worker(&mut self, name: String, peer: Peer, from: &str) -> u64 {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        log(&format!("worker '{name}' connected from {from} (id {id})"));
        self.workers.push(Worker {
            id,
            name,
            peer,
            last_seen: Instant::now(),
            idle: false,
            running: None,
        });
        id
    }

    fn worker_mut(&mut self, id: u64) -> Option<&mut Worker> {
        self.workers.iter_mut().find(|w| w.id == id)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.id == id && !j.closed)
    }

    /// Remove a worker (connection gone, heartbeat expired, or a send
    /// failed) and requeue whatever it was running. Idempotent: a ticker
    /// and a reader thread may both report the same loss.
    fn drop_worker(&mut self, id: u64, reason: &str) {
        let Some(pos) = self.workers.iter().position(|w| w.id == id) else {
            return;
        };
        let worker = self.workers.remove(pos);
        worker.peer.shutdown();
        log(&format!("worker '{}' lost: {reason}", worker.name));
        if let Some((job_id, slice)) = worker.running {
            let reason = format!("worker '{}' died", worker.name);
            self.requeue(job_id, slice, &reason, id);
        }
        self.dispatch();
    }

    /// Put a slice `worker` was running back in the pending queue with
    /// backoff — unless it already completed, its job is gone, or it is
    /// no longer running on `worker`.
    fn requeue(&mut self, job_id: u64, slice: usize, reason: &str, worker: u64) {
        let Some(job) = self.job_mut(job_id) else {
            return;
        };
        let Some(s) = job.slice.get_mut(slice) else {
            return;
        };
        if s.status != (SliceStatus::Running { worker }) {
            return;
        }
        if s.attempts >= MAX_ATTEMPTS {
            let msg = format!(
                "slice {slice} failed after {} attempts: {reason}",
                s.attempts
            );
            log(&format!("job {} failed: {msg}", job.id));
            job.closed = true;
            job.client
                .send(&format!("JOBFAIL {}", job.id), msg.as_bytes());
            return;
        }
        let backoff = BACKOFF_BASE * 2u32.saturating_pow(s.attempts.saturating_sub(1));
        s.status = SliceStatus::Pending;
        s.eligible_at = Instant::now() + backoff;
        log(&format!(
            "job {} slice {slice} requeued ({reason}); attempt {} eligible in {backoff:?}",
            job_id,
            s.attempts + 1
        ));
    }

    /// Hand every eligible pending slice to an idle worker, jobs in
    /// submission order.
    fn dispatch(&mut self) {
        let now = Instant::now();
        loop {
            let Some(widx) = self.workers.iter().position(|w| w.idle) else {
                return;
            };
            let target = self.jobs.iter().find_map(|job| {
                if job.closed {
                    return None;
                }
                job.slice.iter().enumerate().find_map(|(sidx, s)| {
                    (s.status == SliceStatus::Pending && s.eligible_at <= now)
                        .then_some((job.id, sidx))
                })
            });
            let Some((job_id, sidx)) = target else { return };
            let (header, body, attempt, slices) = {
                let job = self.job_mut(job_id).expect("job just matched");
                job.slice[sidx].attempts += 1;
                (
                    format!("RUN {} {sidx} {} {}", job.id, job.slices, job.bin),
                    job.argv.join("\n").into_bytes(),
                    job.slice[sidx].attempts,
                    job.slices,
                )
            };
            let worker = &mut self.workers[widx];
            let worker_id = worker.id;
            let worker_name = worker.name.clone();
            if worker.peer.send(&header, &body) {
                worker.idle = false;
                worker.running = Some((job_id, sidx));
                let job = self.job_mut(job_id).expect("job still open");
                job.slice[sidx].status = SliceStatus::Running { worker: worker_id };
                log(&format!(
                    "job {job_id} slice {sidx}/{slices} -> worker '{worker_name}' (attempt {attempt})"
                ));
            } else {
                if let Some(job) = self.job_mut(job_id) {
                    job.slice[sidx].attempts -= 1;
                }
                self.drop_worker(worker_id, "send failed");
            }
        }
    }

    fn worker_ready(&mut self, id: u64) {
        if let Some(worker) = self.worker_mut(id) {
            worker.idle = true;
            worker.running = None;
        }
        self.dispatch();
    }

    fn worker_done(&mut self, id: u64, job_id: u64, slice: usize, fragment: Vec<u8>) {
        if let Some(worker) = self.worker_mut(id) {
            if worker.running == Some((job_id, slice)) {
                worker.running = None;
            }
        }
        let Some(job) = self.job_mut(job_id) else {
            log(&format!(
                "ignoring result for finished job {job_id} slice {slice}"
            ));
            return;
        };
        let Some(s) = job.slice.get_mut(slice) else {
            return;
        };
        if s.status == SliceStatus::Done {
            log(&format!(
                "duplicate result for job {job_id} slice {slice} ignored"
            ));
            return;
        }
        s.status = SliceStatus::Done;
        job.client
            .send(&format!("FRAG {slice} {}", job.slices), &fragment);
        if job.slice.iter().all(|s| s.status == SliceStatus::Done) {
            job.closed = true;
            job.client.send(&format!("JOBDONE {}", job.id), b"");
            log(&format!("job {} complete ({} slices)", job.id, job.slices));
        }
    }

    fn worker_fail(&mut self, id: u64, job_id: u64, slice: usize, reason: &str) {
        if let Some(worker) = self.worker_mut(id) {
            if worker.running == Some((job_id, slice)) {
                worker.running = None;
            }
        }
        let reason = format!("worker reported failure: {}", truncate_line(reason));
        self.requeue(job_id, slice, &reason, id);
        self.dispatch();
    }

    /// One relayed stderr line from a worker's running slice. Progress
    /// lines are collapsed into the job's global done/total counter (the
    /// aggregate the client prints); everything else passes through as a
    /// `LINE` frame.
    fn worker_prog(&mut self, job_id: u64, line: &str) {
        let Some(job) = self.job_mut(job_id) else {
            return;
        };
        if let Some(label) = progress_label(line) {
            // A retried slice replays ticks its first attempt already
            // counted, so the aggregate is clamped to the grid size.
            if job.done_units < job.total_units {
                job.done_units += 1;
            }
            let header = format!("PROG {} {}", job.done_units, job.total_units);
            job.client.send(&header, label.as_bytes());
        } else {
            job.client.send("LINE", line.as_bytes());
        }
    }

    fn submit(&mut self, client_id: u64, client: &Peer, frame: &Frame) {
        let reply_err = |msg: String| {
            client.send("ERR", msg.as_bytes());
        };
        let args = frame.args();
        let [bin, experiment, slices, total_units] = args.as_slice() else {
            reply_err(
                "malformed SUBMIT (want: SUBMIT <bin> <experiment> <slices> <total_units>)".into(),
            );
            return;
        };
        if !is_token(bin) || !is_token(experiment) {
            reply_err(format!("bad bin/experiment token '{bin}'/'{experiment}'"));
            return;
        }
        let (Ok(requested), Ok(total_units)) =
            (slices.parse::<usize>(), total_units.parse::<usize>())
        else {
            reply_err(format!("bad slice/unit counts '{slices}'/'{total_units}'"));
            return;
        };
        if requested > MAX_SLICES {
            reply_err(format!("{requested} slices exceeds the {MAX_SLICES} cap"));
            return;
        }
        let argv: Vec<String> = if frame.body.is_empty() {
            Vec::new()
        } else {
            match std::str::from_utf8(&frame.body) {
                Ok(text) => text.lines().map(str::to_string).collect(),
                Err(_) => {
                    reply_err("SUBMIT argv is not UTF-8".into());
                    return;
                }
            }
        };
        let slices = if requested == 0 {
            self.workers.len().max(1)
        } else {
            requested
        }
        .min(total_units.max(1))
        .min(MAX_SLICES);
        let id = self.next_job_id;
        self.next_job_id += 1;
        let now = Instant::now();
        self.jobs.push(Job {
            id,
            client_id,
            bin: (*bin).to_string(),
            experiment: (*experiment).to_string(),
            argv,
            slices,
            total_units,
            done_units: 0,
            client: client.clone(),
            closed: false,
            slice: vec![
                Slice {
                    status: SliceStatus::Pending,
                    attempts: 0,
                    eligible_at: now,
                };
                slices
            ],
        });
        client.send(&format!("ACCEPT {id} {slices}"), b"");
        let job = self.jobs.last().expect("job just pushed");
        log(&format!(
            "job {id} submitted: {}/{} in {} slices over {} units",
            job.bin, job.experiment, job.slices, job.total_units
        ));
        self.dispatch();
    }

    fn client_gone(&mut self, client_id: u64) {
        for job in &mut self.jobs {
            if job.client_id == client_id && !job.closed {
                job.closed = true;
                log(&format!("job {} abandoned: client disconnected", job.id));
            }
        }
    }

    /// Periodic maintenance: expire silent workers, purge finished jobs,
    /// dispatch (slices whose retry backoff has run out become eligible).
    fn tick(&mut self) {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .workers
            .iter()
            .filter(|w| now.duration_since(w.last_seen) > HEARTBEAT_TIMEOUT)
            .map(|w| w.id)
            .collect();
        for id in stale {
            self.drop_worker(id, "heartbeat timeout");
        }
        self.jobs.retain(|j| !j.closed);
        self.dispatch();
    }
}

/// Run the coordinator on `listener` until the process is killed. Prints
/// `farmd: listening on <addr>` to stderr once bound — scripts scrape
/// that line for the actual port when binding `:0`.
///
/// # Errors
///
/// Only if the listener's local address cannot be read; per-connection
/// errors are handled (and logged) internally.
pub fn serve(listener: TcpListener) -> io::Result<()> {
    let local = listener.local_addr()?;
    log(&format!("listening on {local}"));
    let state = Arc::new(Mutex::new(State::new()));
    {
        let state = Arc::clone(&state);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(250));
            state.lock().expect("farm state poisoned").tick();
        });
    }
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || handle_connection(stream, &state));
    }
    Ok(())
}

fn handle_connection(stream: TcpStream, state: &Mutex<State>) {
    let from = stream
        .peer_addr()
        .map_or_else(|_| "?".to_string(), |a| a.to_string());
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let peer = Peer::new(write_half);
    let mut reader = BufReader::new(stream);
    let hello = match read_frame(&mut reader) {
        Ok(frame) => match parse_hello(&frame.header) {
            Ok(hello) => hello,
            Err(reason) => {
                log(&format!("rejected {from}: {reason}"));
                peer.send("ERR", reason.as_bytes());
                return;
            }
        },
        Err(_) => return,
    };
    if !peer.send(&format!("OLEH {} farmd", version_token()), b"") {
        return;
    }
    match hello.role.as_str() {
        "worker" => worker_session(&mut reader, &peer, hello.name, &from, state),
        _ => client_session(&mut reader, &peer, state),
    }
}

fn parse_job_slice(args: &[&str]) -> Option<(u64, usize)> {
    let [job, slice, ..] = args else { return None };
    Some((job.parse().ok()?, slice.parse().ok()?))
}

fn worker_session(
    reader: &mut BufReader<TcpStream>,
    peer: &Peer,
    name: String,
    from: &str,
    state: &Mutex<State>,
) {
    let id = state
        .lock()
        .expect("farm state poisoned")
        .add_worker(name, peer.clone(), from);
    while let Ok(frame) = read_frame(reader) {
        let mut st = state.lock().expect("farm state poisoned");
        let Some(worker) = st.worker_mut(id) else {
            // The ticker declared this worker dead while a frame was in
            // flight; drop the connection rather than resurrect it.
            return;
        };
        worker.last_seen = Instant::now();
        match frame.verb() {
            "PING" => {}
            "READY" => st.worker_ready(id),
            "PROG" => {
                if let Some((job, _slice)) = parse_job_slice(&frame.args()) {
                    st.worker_prog(job, truncate_line(&frame.body_str()));
                }
            }
            "DONE" => {
                if let Some((job, slice)) = parse_job_slice(&frame.args()) {
                    st.worker_done(id, job, slice, frame.body);
                }
            }
            "FAIL" => {
                if let Some((job, slice)) = parse_job_slice(&frame.args()) {
                    st.worker_fail(id, job, slice, &frame.body_str());
                }
            }
            other => log(&format!("ignoring unknown worker frame '{other}'")),
        }
    }
    state
        .lock()
        .expect("farm state poisoned")
        .drop_worker(id, "disconnected");
}

fn client_session(reader: &mut BufReader<TcpStream>, peer: &Peer, state: &Mutex<State>) {
    let client_id = {
        let mut st = state.lock().expect("farm state poisoned");
        let id = st.next_client_id;
        st.next_client_id += 1;
        id
    };
    while let Ok(frame) = read_frame(reader) {
        let mut st = state.lock().expect("farm state poisoned");
        match frame.verb() {
            "SUBMIT" => st.submit(client_id, peer, &frame),
            other => log(&format!("ignoring unknown client frame '{other}'")),
        }
    }
    state
        .lock()
        .expect("farm state poisoned")
        .client_gone(client_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback socket pair: (coordinator-side peer, test-side stream).
    fn socket_pair() -> (Peer, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ours = TcpStream::connect(addr).unwrap();
        let (theirs, _) = listener.accept().unwrap();
        (Peer::new(theirs), ours)
    }

    fn submit_frame(bin: &str, slices: usize, total: usize) -> Frame {
        Frame {
            header: format!("SUBMIT {bin} {bin} {slices} {total}"),
            body: b"--scale\nsmoke".to_vec(),
        }
    }

    fn drain_frames(stream: &mut TcpStream) -> Vec<Frame> {
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut frames = Vec::new();
        while let Ok(frame) = read_frame(&mut reader) {
            frames.push(frame);
        }
        frames
    }

    /// Let `by` pass on the coordinator's clocks (retry backoffs run
    /// out) while every connected worker keeps heartbeating.
    fn elapse(st: &mut State, by: Duration) {
        for slice in st.jobs.iter_mut().flat_map(|j| j.slice.iter_mut()) {
            slice.eligible_at = slice
                .eligible_at
                .checked_sub(by)
                .unwrap_or(slice.eligible_at);
        }
        for worker in &mut st.workers {
            worker.last_seen = Instant::now();
        }
    }

    fn state_with_worker_and_job() -> (State, TcpStream, TcpStream) {
        let mut st = State::new();
        let (wpeer, wstream) = socket_pair();
        let (cpeer, cstream) = socket_pair();
        let wid = st.add_worker("w1".into(), wpeer, "test");
        st.submit(1, &cpeer, &submit_frame("fig2", 2, 4));
        st.worker_ready(wid);
        (st, wstream, cstream)
    }

    #[test]
    fn submit_dispatches_to_idle_workers_and_accepts() {
        let (mut st, mut wstream, mut cstream) = state_with_worker_and_job();
        // Worker got slice 0 with the argv body.
        let wframes = drain_frames(&mut wstream);
        assert_eq!(wframes.len(), 1);
        assert_eq!(wframes[0].verb(), "RUN");
        assert_eq!(wframes[0].args(), vec!["1", "0", "2", "fig2"]);
        assert_eq!(wframes[0].body, b"--scale\nsmoke");
        // Client got ACCEPT with the slice count.
        let cframes = drain_frames(&mut cstream);
        assert_eq!(cframes[0].header, "ACCEPT 1 2");
        // Finishing slice 0 then 1 completes the job.
        let wid = st.workers[0].id;
        st.worker_done(wid, 1, 0, b"frag0".to_vec());
        st.worker_ready(wid);
        st.worker_done(wid, 1, 1, b"frag1".to_vec());
        let cframes = drain_frames(&mut cstream);
        let headers: Vec<&str> = cframes.iter().map(|f| f.header.as_str()).collect();
        assert_eq!(headers, vec!["FRAG 0 2", "FRAG 1 2", "JOBDONE 1"]);
        assert_eq!(cframes[0].body, b"frag0");
    }

    #[test]
    fn zero_slices_means_one_per_live_worker_clamped_to_units() {
        let mut st = State::new();
        let (w1, _k1) = socket_pair();
        let (w2, _k2) = socket_pair();
        st.add_worker("w1".into(), w1, "test");
        st.add_worker("w2".into(), w2, "test");
        let (cpeer, mut cstream) = socket_pair();
        st.submit(1, &cpeer, &submit_frame("fig8", 0, 30));
        st.submit(1, &cpeer, &submit_frame("fig9", 0, 1));
        let frames = drain_frames(&mut cstream);
        assert_eq!(frames[0].header, "ACCEPT 1 2"); // one per worker
        assert_eq!(frames[1].header, "ACCEPT 2 1"); // clamped to units
    }

    #[test]
    fn dead_worker_requeues_with_bounded_retry_then_fails_job() {
        let (mut st, _wstream, mut cstream) = state_with_worker_and_job();
        // Kill the worker three times (max_attempts = 3): each loss
        // requeues the running slice until the budget is spent.
        for round in 0..3 {
            let wid = st.workers[0].id;
            assert_eq!(st.workers[0].running, Some((1, 0)), "round {round}");
            st.drop_worker(wid, "test kill");
            assert!(st.jobs[0].closed == (round == 2));
            if round < 2 {
                // Replacement worker picks the requeued slice up.
                let (wpeer, _ws) = socket_pair();
                let wid = st.add_worker("w-next".into(), wpeer, "test");
                elapse(&mut st, BACKOFF_BASE * 4);
                st.worker_ready(wid);
            }
        }
        let frames = drain_frames(&mut cstream);
        let fail = frames.iter().find(|f| f.verb() == "JOBFAIL").unwrap();
        assert!(fail.body_str().contains("after 3 attempts"));
    }

    #[test]
    fn duplicate_and_late_results_are_ignored() {
        let (mut st, _wstream, mut cstream) = state_with_worker_and_job();
        let wid = st.workers[0].id;
        st.worker_done(wid, 1, 0, b"first".to_vec());
        st.worker_done(wid, 1, 0, b"second".to_vec());
        // Unknown job and out-of-range slice are both ignored.
        st.worker_done(wid, 99, 0, b"zombie".to_vec());
        st.worker_done(wid, 1, 9, b"range".to_vec());
        let frags: Vec<Frame> = drain_frames(&mut cstream)
            .into_iter()
            .filter(|f| f.verb() == "FRAG")
            .collect();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].body, b"first");
    }

    #[test]
    fn progress_lines_aggregate_into_one_capped_counter() {
        let (mut st, _wstream, mut cstream) = state_with_worker_and_job();
        st.worker_prog(1, "progress: shard 0/2 1/2 (BFS/FR 4K)");
        st.worker_prog(1, "dataset-cache: hits=1 misses=0");
        for _ in 0..10 {
            st.worker_prog(1, "progress: 1/2 (CF/NF Ideal)");
        }
        let frames = drain_frames(&mut cstream);
        let progs: Vec<&Frame> = frames.iter().filter(|f| f.verb() == "PROG").collect();
        assert_eq!(progs[0].header, "PROG 1 4");
        assert_eq!(progs[0].body, b"BFS/FR 4K");
        // Replayed ticks never push the counter past the grid size.
        assert_eq!(progs.last().unwrap().header, "PROG 4 4");
        assert!(frames
            .iter()
            .any(|f| f.verb() == "LINE" && f.body_str().starts_with("dataset-cache:")));
    }

    #[test]
    fn long_slices_stay_on_their_worker_beside_idle_spares() {
        // One slice runs for 66 minutes of ticks (more than three times
        // the old 600 s straggler timeout) while two spare workers sit
        // idle and every worker keeps heartbeating. It must never be
        // handed to a spare, and the job must never fail.
        let mut st = State::new();
        let (w1, mut w1stream) = socket_pair();
        let runner = st.add_worker("w1".into(), w1, "test");
        let (cpeer, mut cstream) = socket_pair();
        st.submit(1, &cpeer, &submit_frame("fig8", 1, 4));
        st.worker_ready(runner);
        let mut spares = Vec::new();
        for name in ["w2", "w3"] {
            let (peer, stream) = socket_pair();
            let id = st.add_worker(name.into(), peer, "test");
            st.worker_ready(id);
            spares.push(stream);
        }
        for minute in (0..66).step_by(11) {
            elapse(&mut st, Duration::from_secs(11 * 60));
            st.tick();
            let slice = &st.jobs[0].slice[0];
            assert_eq!(
                (slice.status, slice.attempts),
                (SliceStatus::Running { worker: runner }, 1),
                "minute {minute}"
            );
            assert!(!st.jobs[0].closed, "minute {minute}");
        }
        assert!(st.workers.iter().all(|w| w.id == runner || w.idle));
        for spare in &mut spares {
            assert!(drain_frames(spare).is_empty(), "a spare was dispatched");
        }
        assert_eq!(drain_frames(&mut w1stream).len(), 1, "slice re-dispatched");
        st.worker_done(runner, 1, 0, b"frag".to_vec());
        let headers: Vec<String> = drain_frames(&mut cstream)
            .into_iter()
            .map(|f| f.header)
            .collect();
        assert_eq!(headers, ["ACCEPT 1 1", "FRAG 0 1", "JOBDONE 1"]);
    }

    #[test]
    fn abandoned_clients_close_their_jobs() {
        let (mut st, mut wstream, _cstream) = state_with_worker_and_job();
        st.client_gone(1);
        assert!(st.jobs[0].closed);
        st.tick();
        assert!(st.jobs.is_empty());
        // The worker's eventual result is dropped silently.
        let wid = st.workers[0].id;
        st.worker_done(wid, 1, 0, b"late".to_vec());
        let frames = drain_frames(&mut wstream);
        assert!(frames.iter().all(|f| f.verb() == "RUN"));
    }

    #[test]
    fn bad_submits_are_rejected_with_err() {
        let mut st = State::new();
        let (cpeer, mut cstream) = socket_pair();
        let bad = |header: &str| Frame {
            header: header.to_string(),
            body: Vec::new(),
        };
        st.submit(1, &cpeer, &bad("SUBMIT fig2 fig2 2"));
        st.submit(1, &cpeer, &bad("SUBMIT ../evil fig2 2 4"));
        st.submit(1, &cpeer, &bad("SUBMIT fig2 fig2 999999 4"));
        st.submit(1, &cpeer, &bad("SUBMIT fig2 fig2 x 4"));
        let frames = drain_frames(&mut cstream);
        assert_eq!(frames.len(), 4);
        assert!(frames.iter().all(|f| f.verb() == "ERR"));
        assert!(st.jobs.is_empty());
    }
}
