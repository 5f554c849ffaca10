//! In-memory spans for the traced run.
//!
//! Spans are recorded around each call the benchmark makes into a
//! layer (never inside the library), kept in memory while the run is
//! timed, and written to a side-channel JSON-lines file when the run
//! ends. Nothing here touches stdout.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval around a layer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `os.layout`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the simulation unit the span belongs to.
    pub unit: Option<usize>,
}

impl Span {
    /// Duration in seconds (0 while open).
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span store shared by the worker pool.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index (the parent of spans opened
    /// inside it).
    pub fn open(&self, name: &'static str, parent: Option<usize>, unit: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            unit,
        });
        spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id].end_ns = end_ns;
        spans[id].secs()
    }

    /// A copy of every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line, creating the parent
    /// directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"unit\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.unit)
            )?;
        }
        out.flush()
    }
}

/// Time `f` and return its value with its duration in seconds; with a
/// recorder, also keep the interval as span `name`. `f` receives the
/// span's index, the parent of spans opened inside it.
pub fn timed<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<usize>,
    unit: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> (R, f64) {
    let start = Instant::now();
    let id = rec.map(|r| r.open(name, parent, unit));
    let value = f(id);
    let secs = match (rec, id) {
        (Some(r), Some(id)) => r.close(id),
        _ => start.elapsed().as_secs_f64(),
    };
    (value, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let rec = Recorder::new();
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(2));
        let (inner_s, outer_s) = timed(Some(&rec), "core.unit", None, Some(3), |outer| {
            timed(Some(&rec), "os.layout", outer, Some(3), |_| sleep()).1
        });
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        let ((), untraced_s) = timed(None, "os.layout", None, None, |_| sleep());
        assert!(untraced_s >= 0.002);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
