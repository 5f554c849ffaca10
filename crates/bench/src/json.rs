//! A hand-rolled JSON emitter *and parser* for machine-readable results.
//!
//! Every harness binary writes a `results/<name>_<scale>.json` next to
//! its text table (when `--json` is given), so downstream tooling can
//! diff runs without screen-scraping the aligned-column output. Both
//! directions are plain Rust rather than a serde dependency, keeping the
//! workspace's zero-external-crate hermetic build.
//!
//! Output is deterministic: object keys keep insertion order, floats use
//! Rust's shortest round-trip formatting, and nothing (timestamps, job
//! counts, hostnames) that varies between equivalent runs is emitted —
//! a `--jobs N` sweep's JSON is byte-identical to a serial one's.
//!
//! Every emitted document starts with the same two header fields, built
//! by [`JsonDoc`]: `schema_version` (bumped when the layout of any
//! document changes) and `experiment`. Consumers — the report cache, the
//! result-diff harness — call [`validate_header`] before trusting a
//! file, so a stale cache entry or a mismatched golden fails loudly
//! instead of being read as garbage.

use dvm_core::GraphRunReport;
use std::fmt;
use std::io;
use std::path::Path;

/// Version of every emitted document's layout. Bump on any change to the
/// shape of figure documents or report-cache entries.
pub const SCHEMA_VERSION: u64 = 1;

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counters, cycles).
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Float; non-finite values render as `null`.
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `{"hits": h, "misses": m}` or `null` — the shape of the optional
    /// cache statistics on [`GraphRunReport`].
    pub fn hit_miss(stats: Option<(u64, u64)>) -> Json {
        match stats {
            Some((h, m)) => Json::obj([("hits", Json::UInt(h)), ("misses", Json::UInt(m))]),
            None => Json::Null,
        }
    }

    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Fetch `key` as a u64, with a path-ish error for diagnostics.
    pub fn expect_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{key}'"))
    }

    /// Fetch `key` as an f64.
    pub fn expect_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
    }

    /// Fetch `key` as a string.
    pub fn expect_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field '{key}'"))
    }

    /// Fetch `key` as an array.
    pub fn expect_arr(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing or non-array field '{key}'"))
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        const INDENT: &str = "  ";
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) if !x.is_finite() => f.write_str("null"),
            // `{}` on f64 is shortest-round-trip and prints "1" for 1.0,
            // which is still a valid JSON number.
            Json::Float(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return f.write_str("[]");
                }
                f.write_str("[\n")?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(&INDENT.repeat(depth + 1))?;
                    item.write_indented(f, depth + 1)?;
                    f.write_str(if i + 1 < items.len() { ",\n" } else { "\n" })?;
                }
                f.write_str(&INDENT.repeat(depth))?;
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    return f.write_str("{}");
                }
                f.write_str("{\n")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    f.write_str(&INDENT.repeat(depth + 1))?;
                    write_escaped(f, k)?;
                    f.write_str(": ")?;
                    v.write_indented(f, depth + 1)?;
                    f.write_str(if i + 1 < pairs.len() { ",\n" } else { "\n" })?;
                }
                f.write_str(&INDENT.repeat(depth))?;
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

/// Parse a JSON text into a [`Json`] value.
///
/// Integer literals without `.`/exponent become [`Json::UInt`] /
/// [`Json::Int`] (so counters survive a round trip exactly); everything
/// else numeric becomes [`Json::Float`] via Rust's correctly-rounded
/// parser, which makes `parse(render(x))` value-identical for every
/// document this crate emits.
///
/// Nesting is capped at `MAX_DEPTH` (64) containers, so hostile input (a
/// corrupt cache entry) cannot overflow the stack.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error or
/// of the container that nests too deep.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", want as char))
    }
}

/// Deepest container nesting [`parse`] accepts. The deepest document this
/// crate emits nests about 6 levels.
const MAX_DEPTH: usize = 64;

/// Parse one value; `depth` counts the containers already open around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("short \\u escape at byte {pos}"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates never appear in our own output;
                        // replace rather than reject foreign input.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a boundary).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !is_float {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

/// Builder for a top-level document: every document this crate emits
/// opens with the same `schema_version` + `experiment` header so
/// downstream consumers can validate before they merge or diff.
///
/// # Examples
///
/// ```
/// use dvm_bench::{Json, JsonDoc};
/// let doc = JsonDoc::new("fig2")
///     .field("scale", Json::Str("quick".into()))
///     .build();
/// assert_eq!(doc.expect_str("experiment"), Ok("fig2"));
/// assert_eq!(doc.expect_u64("schema_version"), Ok(dvm_bench::SCHEMA_VERSION));
/// ```
#[derive(Debug, Clone)]
pub struct JsonDoc {
    pairs: Vec<(String, Json)>,
}

impl JsonDoc {
    /// Start a document for `experiment` with the standard header.
    pub fn new(experiment: &str) -> Self {
        Self {
            pairs: vec![
                ("schema_version".to_string(), Json::UInt(SCHEMA_VERSION)),
                ("experiment".to_string(), Json::Str(experiment.to_string())),
            ],
        }
    }

    /// Append a field (insertion order is render order).
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.pairs.push((key.to_string(), value));
        self
    }

    /// The finished document.
    pub fn build(self) -> Json {
        Json::Obj(self.pairs)
    }
}

/// Check a parsed document's header: current `schema_version`, and the
/// expected `experiment` when the caller knows which one it wants.
///
/// # Errors
///
/// Describes the first mismatch (missing field, version skew, wrong
/// experiment).
pub fn validate_header(doc: &Json, experiment: Option<&str>) -> Result<(), String> {
    let version = doc.expect_u64("schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let found = doc.expect_str("experiment")?;
    if let Some(want) = experiment {
        if found != want {
            return Err(format!("experiment '{found}' != expected '{want}'"));
        }
    }
    Ok(())
}

/// Serialize every metric of one experiment report.
pub fn report_json(r: &GraphRunReport) -> Json {
    Json::obj([
        ("mmu", Json::Str(r.mmu.name().to_string())),
        ("workload", Json::Str(r.workload.to_string())),
        ("cycles", Json::UInt(r.cycles)),
        ("accesses", Json::UInt(r.accesses)),
        ("tlb", Json::hit_miss(r.tlb)),
        ("ptc", Json::hit_miss(r.ptc)),
        ("bitmap_cache", Json::hit_miss(r.bitmap_cache)),
        ("walk_mem_refs", Json::UInt(r.walk_mem_refs)),
        ("identity_validations", Json::UInt(r.identity_validations)),
        ("fallback_translations", Json::UInt(r.fallback_translations)),
        ("preload_squashes", Json::UInt(r.preload_squashes)),
        ("mm_energy_pj", Json::Float(r.mm_energy_pj)),
        ("dram_accesses", Json::UInt(r.dram_accesses)),
        ("heap_bytes", Json::UInt(r.heap_bytes)),
        ("edges_processed", Json::UInt(r.run.edges_processed)),
        ("iterations", Json::UInt(u64::from(r.run.iterations))),
    ])
}

/// A per-unit result serialized as one JSON value. Only a churn unit's
/// trajectory implements it: perfbench's `os-churn` workload renders its
/// units through it, and its output bytes must not change.
pub trait ShardValue {
    /// Serialize the value.
    fn to_json(&self) -> Json;
}

/// A churn trajectory is an array of per-epoch counter objects. Only
/// integers are carried; derived rates are computed by the formatter.
impl ShardValue for Vec<dvm_core::ChurnEpoch> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|e| {
                    Json::obj([
                        ("epoch", Json::UInt(u64::from(e.epoch))),
                        ("live_procs", Json::UInt(e.live_procs)),
                        ("identity_maps", Json::UInt(e.identity_maps)),
                        ("identity_fallbacks", Json::UInt(e.identity_fallbacks)),
                        (
                            "identity_bytes_requested",
                            Json::UInt(e.identity_bytes_requested),
                        ),
                        ("identity_bytes_padded", Json::UInt(e.identity_bytes_padded)),
                        ("demand_bytes", Json::UInt(e.demand_bytes)),
                        ("cow_breaks", Json::UInt(e.cow_breaks)),
                        ("oom_events", Json::UInt(e.oom_events)),
                        ("free_frames", Json::UInt(e.free_frames)),
                        ("free_runs", Json::UInt(e.free_runs)),
                        ("largest_run", Json::UInt(e.largest_run)),
                        ("sub_granule_runs", Json::UInt(e.sub_granule_runs)),
                    ])
                })
                .collect(),
        )
    }
}

/// Accumulates one harness's machine-readable output: the same grid as
/// its text table (label + one value per column), plus optional raw
/// per-scheme reports per row and figure-level summary entries.
#[derive(Debug, Clone)]
pub struct FigureJson {
    experiment: String,
    scale: String,
    columns: Vec<String>,
    rows: Vec<Json>,
    summary: Vec<(String, Json)>,
}

impl FigureJson {
    /// Start a document for `experiment` at `scale` with the given value
    /// columns (row labels are implicit).
    pub fn new(experiment: &str, scale: &str, columns: &[&str]) -> Self {
        Self {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Append a row of column values.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn row(&mut self, label: &str, values: Vec<Json>) {
        self.push_row(label, values, None);
    }

    /// Append a row carrying the full per-scheme reports it was derived
    /// from (the raw material for result diffing).
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn row_with_reports(&mut self, label: &str, values: Vec<Json>, reports: &[GraphRunReport]) {
        let raw = Json::Arr(reports.iter().map(report_json).collect());
        self.push_row(label, values, Some(raw));
    }

    fn push_row(&mut self, label: &str, values: Vec<Json>, reports: Option<Json>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row arity {} != column arity {}",
            values.len(),
            self.columns.len()
        );
        let mut pairs = vec![
            ("label".to_string(), Json::Str(label.to_string())),
            ("values".to_string(), Json::Arr(values)),
        ];
        if let Some(raw) = reports {
            pairs.push(("reports".to_string(), raw));
        }
        self.rows.push(Json::Obj(pairs));
    }

    /// Add a figure-level summary entry (e.g. the geomean row).
    pub fn summary(&mut self, key: &str, value: Json) {
        self.summary.push((key.to_string(), value));
    }

    /// The complete document, opened by the standard [`JsonDoc`] header.
    pub fn to_json(&self) -> Json {
        let mut doc = JsonDoc::new(&self.experiment)
            .field("scale", Json::Str(self.scale.clone()))
            .field(
                "columns",
                Json::Arr(self.columns.iter().cloned().map(Json::Str).collect()),
            )
            .field("rows", Json::Arr(self.rows.clone()));
        if !self.summary.is_empty() {
            doc = doc.field("summary", Json::Obj(self.summary.clone()));
        }
        doc.build()
    }

    /// Render the document with a trailing newline.
    pub fn render(&self) -> String {
        format!("{}\n", self.to_json())
    }

    /// Write the document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_document() {
        let mut fig = FigureJson::new("fig-test", "quick", &["a", "b"]);
        fig.row("BFS/FR", vec![Json::Float(1.5), Json::UInt(7)]);
        fig.row("odd \"label\"\n", vec![Json::Null, Json::Float(f64::NAN)]);
        fig.summary("geomean", Json::Arr(vec![Json::Float(2.0)]));
        let expected = concat!(
            "{\n",
            "  \"schema_version\": 1,\n",
            "  \"experiment\": \"fig-test\",\n",
            "  \"scale\": \"quick\",\n",
            "  \"columns\": [\n",
            "    \"a\",\n",
            "    \"b\"\n",
            "  ],\n",
            "  \"rows\": [\n",
            "    {\n",
            "      \"label\": \"BFS/FR\",\n",
            "      \"values\": [\n",
            "        1.5,\n",
            "        7\n",
            "      ]\n",
            "    },\n",
            "    {\n",
            "      \"label\": \"odd \\\"label\\\"\\n\",\n",
            "      \"values\": [\n",
            "        null,\n",
            "        null\n",
            "      ]\n",
            "    }\n",
            "  ],\n",
            "  \"summary\": {\n",
            "    \"geomean\": [\n",
            "      2\n",
            "    ]\n",
            "  }\n",
            "}\n",
        );
        assert_eq!(fig.render(), expected);
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::Arr(Vec::new()).to_string(), "[]");
        assert_eq!(Json::Obj(Vec::new()).to_string(), "{}");
    }

    #[test]
    fn floats_render_shortest() {
        assert_eq!(Json::Float(0.1).to_string(), "0.1");
        assert_eq!(Json::Float(2.0).to_string(), "2");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut fig = FigureJson::new("x", "quick", &["a"]);
        fig.row("r", vec![]);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let mut fig = FigureJson::new("rt", "quick", &["a", "b"]);
        fig.row(
            "odd \"label\"\n\t\\",
            vec![Json::Float(0.1), Json::UInt(u64::MAX)],
        );
        fig.row("negatives", vec![Json::Int(-3), Json::Float(-2.5e-9)]);
        fig.summary("flags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let doc = fig.to_json();
        let round = parse(&fig.render()).unwrap();
        assert_eq!(round, doc);
        // And the re-render is byte-identical.
        assert_eq!(format!("{round}\n"), fig.render());
    }

    #[test]
    fn parse_distinguishes_integer_kinds() {
        assert_eq!(parse("7").unwrap(), Json::UInt(7));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_clean_error() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH - 1).replace(":}", ":[]}")).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than 64 levels at byte {MAX_DEPTH}")
        );
        // Deep enough to overflow any thread's stack without the cap.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("at byte 64"), "{err}");
        let err = parse(&"{\"a\": ".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 64 levels"), "{err}");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse("{\"a\": {\"b\": [1, \"x\"]}, \"f\": 1.5}").unwrap();
        assert_eq!(doc.get("a").unwrap().expect_arr("b").unwrap().len(), 2);
        assert_eq!(doc.expect_f64("f"), Ok(1.5));
        assert!(doc.expect_u64("missing").is_err());
        assert!(doc.expect_str("f").is_err());
    }

    #[test]
    fn header_validation_catches_skew() {
        let good = JsonDoc::new("fig2").build();
        assert!(validate_header(&good, Some("fig2")).is_ok());
        assert!(validate_header(&good, None).is_ok());
        assert!(validate_header(&good, Some("fig8")).is_err());
        let stale = Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION + 1)),
            ("experiment", Json::Str("fig2".into())),
        ]);
        assert!(validate_header(&stale, Some("fig2")).is_err());
        assert!(validate_header(&Json::Null, None).is_err());
    }
}
