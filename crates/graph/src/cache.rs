//! On-disk CSR dataset cache.
//!
//! `paper`/`full` sweeps regenerate multi-GiB R-MAT stand-ins on every
//! run, so sweep start-up used to be minutes of generator time before the
//! first experiment cycle ran. The cache stores each generated graph in a
//! versioned binary file keyed by `(dataset, divisor, seed)` so any later
//! run — including every other figure binary of a `reproduce_all.sh`
//! sweep — loads the CSR arrays back in seconds.
//!
//! The format is deliberately boring: a fixed little-endian header
//! carrying the key and an FNV-1a checksum, followed by the raw edge
//! list. The checksum covers every header field after the magic as well
//! as the payload, so a flipped vertex or edge count is rejected like a
//! flipped edge. The payload is the edge array in CSR order, so a load
//! rebuilds only the offsets, in the pass that validates each edge; a
//! cache hit is structurally identical (`==`) to regeneration. Every
//! validation failure — short file, bad magic, version or key mismatch,
//! checksum mismatch, edge out of range, edges out of `(src, dst)`
//! order — falls back to regeneration and rewrites the entry, so a
//! corrupt or stale cache can slow a run down but never change its
//! output.
//!
//! Writes go through [`write_atomic`]: a temp file plus atomic rename,
//! which makes concurrent writers filling the same cache directory safe.
//! The temp name is unique per process *and* per call, so neither separate
//! processes nor `--jobs N` threads ever share a tmp file, the last renamer
//! wins with a complete file, and readers never observe a partial entry.
//! A failed store removes its tmp file; a writer killed mid-store leaves
//! one behind, and [`open_dir`] sweeps it away the next time a cache
//! opens the directory. These helpers serve the report cache in
//! `dvm-bench` too.
//!
//! Neither cache bounds its directory: every figure binary reads the
//! same datasets in the same order, a cyclic pattern under which an LRU
//! budget below the working set misses on every access.

use crate::csr::{Edge, Graph};
use crate::datasets::Dataset;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Bump whenever the on-disk layout or checksum coverage changes; older
/// entries then live under other file names and are never looked up.
/// Version 2 extended the checksum from the payload to the header.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// `b"DVMGCSR\0"` — identifies a cache entry regardless of version.
const MAGIC: [u8; 8] = *b"DVMGCSR\0";

/// Header: magic + version + seed + divisor + num_vertices + num_edges +
/// checksum.
const HEADER_BYTES: usize = 8 + 4 + 8 + 4 + 4 + 8 + 8;

/// Where the checksum sits: it covers `bytes[8..CHECKSUM_AT]` (every
/// header field after the magic) and then the payload.
const CHECKSUM_AT: usize = HEADER_BYTES - 8;

/// A `*.tmp*` file is an orphan only if its mtime is at least this many
/// seconds old when a cache opens the directory — a live writer in
/// another process keeps its tmp's mtime fresh while `fs::write` runs.
const ORPHAN_GRACE_SECS: u64 = 60;

/// A collision-free temp path next to `path`: unique per process (pid)
/// *and* per call (atomic counter), so two threads of one `--jobs N`
/// process storing the same entry never interleave writes on one tmp
/// file and rename a torn result into place.
fn unique_tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let token = NEXT.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp{}-{token}", std::process::id()))
}

/// Publish `bytes` at `path` through a unique temp file plus an atomic
/// rename, so readers see either the old entry or the whole new one.
/// A failed write or rename removes its tmp file instead of leaking it.
///
/// # Errors
///
/// Propagates the write or rename failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = unique_tmp_path(path);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Create `dir` if needed and remove the `*.tmp*` files that writers
/// killed mid-store left in it (older than a grace period, so a live
/// writer's in-flight tmp survives). Returns how many were removed.
///
/// # Errors
///
/// Propagates the `create_dir_all` failure.
pub fn open_dir(dir: &Path) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(0);
    };
    let now = SystemTime::now();
    let mut removed = 0;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let is_tmp = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.starts_with("tmp"));
        if !is_tmp {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age.as_secs() >= ORPHAN_GRACE_SECS);
        if stale && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Bytes per serialized edge: src u32, dst u32, weight f32 bits.
const EDGE_BYTES: usize = 12;

/// A directory of cached dataset graphs plus hit/miss accounting.
///
/// # Examples
///
/// ```no_run
/// use dvm_graph::{Dataset, DatasetCache};
/// let cache = DatasetCache::new("results/.dataset-cache").unwrap();
/// let first = cache.get_or_generate(Dataset::Flickr, 1024); // miss: generates + stores
/// let again = cache.get_or_generate(Dataset::Flickr, 1024); // hit: loads from disk
/// assert_eq!(first, again);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct DatasetCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

impl DatasetCache {
    /// Open (creating if needed) a cache directory, sweeping the tmp
    /// files that killed writers left behind.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        open_dir(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Graphs served from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Graphs that had to be generated (absent or invalid entries).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries that existed but failed validation (subset of misses).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The entry path for a key. One file per `(dataset, divisor)`; the
    /// seed and version ride in the header (and the name, so stale
    /// versions are simply different files).
    pub fn entry_path(&self, dataset: Dataset, divisor: u32) -> PathBuf {
        self.dir.join(format!(
            "{}_div{}_v{}.csr",
            dataset.short_name(),
            divisor,
            CACHE_FORMAT_VERSION
        ))
    }

    /// Load the graph for `(dataset, divisor)` from disk, or generate and
    /// store it. Never fails: every cache problem degrades to
    /// regeneration, and a failed store only warns on stderr.
    pub fn get_or_generate(&self, dataset: Dataset, divisor: u32) -> Graph {
        let path = self.entry_path(dataset, divisor);
        match std::fs::read(&path) {
            Ok(bytes) => match decode(&bytes, dataset.seed(), divisor) {
                Some(graph) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return graph;
                }
                None => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let graph = dataset.generate(divisor);
        if let Err(e) = write_atomic(&path, &encode(dataset.seed(), divisor, &graph)) {
            eprintln!(
                "dataset-cache: failed to store {} ({e}); continuing uncached",
                path.display()
            );
        }
        graph
    }
}

/// A whole cache entry for `graph`: header, then the edge payload.
fn encode(seed: u64, divisor: u32, graph: &Graph) -> Vec<u8> {
    let payload = encode_payload(graph);
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(&divisor.to_le_bytes());
    bytes.extend_from_slice(&graph.num_vertices().to_le_bytes());
    bytes.extend_from_slice(&graph.num_edges().to_le_bytes());
    let checksum = fnv1a_extend(fnv1a(&bytes[8..]), &payload);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// The edge array as raw little-endian bytes, in CSR order.
fn encode_payload(graph: &Graph) -> Vec<u8> {
    let mut payload = Vec::with_capacity(graph.edges().len() * EDGE_BYTES);
    for e in graph.edges() {
        payload.extend_from_slice(&e.src.to_le_bytes());
        payload.extend_from_slice(&e.dst.to_le_bytes());
        payload.extend_from_slice(&e.weight.to_bits().to_le_bytes());
    }
    payload
}

/// Validate and decode a cache entry; `None` means "treat as a miss".
fn decode(bytes: &[u8], want_seed: u64, want_divisor: u32) -> Option<Graph> {
    if bytes.len() < HEADER_BYTES || bytes[..8] != MAGIC {
        return None;
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    if u32_at(8) != CACHE_FORMAT_VERSION || u64_at(12) != want_seed || u32_at(20) != want_divisor {
        return None;
    }
    let num_vertices = u32_at(24);
    let num_edges = u64_at(28);
    let checksum = u64_at(CHECKSUM_AT);
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() as u64 != num_edges.checked_mul(EDGE_BYTES as u64)?
        || fnv1a_extend(fnv1a(&bytes[8..CHECKSUM_AT]), payload) != checksum
    {
        return None;
    }
    // One pass range-checks every edge, checks the `(src, dst)` order
    // `encode` wrote, and counts sources; a payload that fails either
    // check is rejected rather than re-sorted.
    let mut offsets = vec![0u64; num_vertices as usize + 1];
    let mut edges = Vec::with_capacity(num_edges as usize);
    let mut last = (0, 0);
    for chunk in payload.chunks_exact(EDGE_BYTES) {
        let src = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
        let dst = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        if src >= num_vertices || dst >= num_vertices || (src, dst) < last {
            return None;
        }
        last = (src, dst);
        offsets[src as usize + 1] += 1;
        edges.push(Edge {
            src,
            dst,
            weight: f32::from_bits(u32::from_le_bytes(chunk[8..12].try_into().unwrap())),
        });
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    Some(Graph::from_csr_parts(num_vertices, offsets, edges))
}

/// 64-bit FNV-1a over `bytes` — cheap, dependency-free corruption check.
/// Changing any one byte always changes the hash: each step is a
/// bijection of the running state.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over more bytes, as if they were appended to
/// the input that produced `hash`.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_sim::DetRng;
    use std::fs::FileTimes;
    use std::time::Duration;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dvm-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn every_header_bit_flip_and_sampled_corruption_is_rejected() {
        // Regression test: the checksum used to cover the edge payload
        // only, so a flipped num_vertices bit decoded to a different
        // graph (and a flipped top bit asked for a ~16 GiB offsets
        // array). Every corruption must be a miss, never a panic and
        // never a different graph.
        let dir = scratch_dir("fuzz");
        let cache = DatasetCache::new(&dir).unwrap();
        let (seed, divisor) = (Dataset::Flickr.seed(), 1024);
        cache.get_or_generate(Dataset::Flickr, divisor);
        let bytes = std::fs::read(cache.entry_path(Dataset::Flickr, divisor)).unwrap();
        assert!(decode(&bytes, seed, divisor).is_some());
        // Wrong key.
        assert!(decode(&bytes, seed ^ 1, divisor).is_none());
        assert!(decode(&bytes, seed, divisor / 2).is_none());
        let rejected = |corrupt: &[u8], what: &str| {
            assert!(decode(corrupt, seed, divisor).is_none(), "{what} decoded");
        };
        for byte in 0..HEADER_BYTES {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                rejected(&corrupt, &format!("header byte {byte} bit {bit} flipped"));
            }
        }
        let payload_len = (bytes.len() - HEADER_BYTES) as u64;
        for case in 0..64 {
            let mut rng = DetRng::new(case);
            let at = HEADER_BYTES + rng.below(payload_len) as usize;
            let bit = rng.below(8);
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << bit;
            rejected(
                &corrupt,
                &format!("seed {case}: byte {at} bit {bit} flipped"),
            );
            let len = rng.below(bytes.len() as u64) as usize;
            rejected(&bytes[..len], &format!("seed {case}: truncated to {len}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_tmp_paths_never_collide() {
        let path = Path::new("/cache/FR_div4_v2.csr");
        let a = unique_tmp_path(path);
        let b = unique_tmp_path(path);
        assert_ne!(a, b);
        for tmp in [&a, &b] {
            let ext = tmp.extension().unwrap().to_str().unwrap();
            assert!(ext.starts_with("tmp"), "tmp extension, got {ext}");
        }
    }

    #[test]
    fn opening_sweeps_stale_tmp_files_but_keeps_live_ones() {
        let dir = scratch_dir("orphans");
        std::fs::create_dir_all(&dir).unwrap();
        let put = |name: &str, age_secs: u64| {
            let file = std::fs::File::create(dir.join(name)).unwrap();
            let mtime = SystemTime::now() - Duration::from_secs(age_secs);
            file.set_times(FileTimes::new().set_modified(mtime))
                .unwrap();
        };
        put("FR_div4_v2.csr", 7200);
        put("FR_div4_v2.tmp123-0", 7200);
        put("NF_div4_v2.tmp456-1", 0);
        assert_eq!(open_dir(&dir).unwrap(), 1);
        assert!(!dir.join("FR_div4_v2.tmp123-0").exists());
        // A tmp younger than the grace period is an in-flight write.
        assert!(dir.join("NF_div4_v2.tmp456-1").exists());
        assert!(dir.join("FR_div4_v2.csr").exists());
        // Opening a cache runs the same sweep.
        put("S24_div4_v2.tmp789-2", 7200);
        DatasetCache::new(&dir).unwrap();
        assert!(!dir.join("S24_div4_v2.tmp789-2").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-valid entry whose edges are out of `(src, dst)` order
    /// is rejected and regenerated, not silently re-sorted.
    #[test]
    fn out_of_order_entry_is_rejected_and_regenerated() {
        let dir = scratch_dir("order");
        let (dataset, divisor) = (Dataset::Netflix, 1024);
        let generated = dataset.generate(divisor);
        let mut bytes = encode(dataset.seed(), divisor, &generated);
        // Swap the first and the last edge, then re-seal the checksum.
        let last = bytes.len() - EDGE_BYTES;
        let first: Vec<u8> = bytes[HEADER_BYTES..HEADER_BYTES + EDGE_BYTES].to_vec();
        bytes.copy_within(last.., HEADER_BYTES);
        bytes[last..].copy_from_slice(&first);
        let checksum = fnv1a_extend(fnv1a(&bytes[8..CHECKSUM_AT]), &bytes[HEADER_BYTES..]);
        bytes[CHECKSUM_AT..HEADER_BYTES].copy_from_slice(&checksum.to_le_bytes());
        let cache = DatasetCache::new(&dir).unwrap();
        std::fs::write(cache.entry_path(dataset, divisor), &bytes).unwrap();
        assert_eq!(cache.get_or_generate(dataset, divisor), generated);
        assert_eq!((cache.hits(), cache.misses(), cache.rejected()), (0, 1, 1));
        // The rewritten entry loads.
        assert_eq!(cache.get_or_generate(dataset, divisor), generated);
        assert_eq!(cache.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FNV-1a of every dataset's cache payload (the CSR edge array) and
    /// of its offsets as little-endian `u64`s, at the smoke-scale
    /// divisors, as the generator produced them before the counting-sort
    /// CSR build and the branch-free R-MAT draws replaced a stable
    /// comparison sort and an `if` chain. Any change to the generated
    /// bytes fails here.
    #[test]
    fn generated_bytes_match_pinned_digests() {
        let pinned = [
            (
                Dataset::Flickr,
                256,
                0xdabc_f1e5_7b87_ca0c,
                0x875b_ae6b_8569_e115,
            ),
            (
                Dataset::Wikipedia,
                1024,
                0x896b_694d_1492_c977,
                0xeb7f_0eae_1e86_5e2d,
            ),
            (
                Dataset::LiveJournal,
                1024,
                0x443b_596e_8172_19e4,
                0xb914_a25a_6c3b_06f4,
            ),
            (
                Dataset::Rmat24,
                2048,
                0x40b7_b272_8418_2fb8,
                0x29b7_e6b6_9786_e044,
            ),
            (
                Dataset::Netflix,
                1024,
                0xe793_625c_922a_79f0,
                0xfc9c_7575_23c9_d618,
            ),
            (
                Dataset::Bip1,
                512,
                0x851a_9aaf_b191_4eb6,
                0xb356_9a08_9087_7563,
            ),
            (
                Dataset::Bip2,
                2048,
                0xfbb1_5b1b_71d8_dd8a,
                0x9ced_03ca_ca2a_134d,
            ),
        ];
        for (dataset, divisor, payload, offsets) in pinned {
            let g = dataset.generate(divisor);
            let offset_bytes: Vec<u8> = g.offsets().iter().flat_map(|o| o.to_le_bytes()).collect();
            let got = (fnv1a(&encode_payload(&g)), fnv1a(&offset_bytes));
            assert_eq!(got, (payload, offsets), "{dataset} at divisor {divisor}");
        }
    }

    #[test]
    fn store_then_decode_round_trips() {
        let dir = scratch_dir("roundtrip");
        let cache = DatasetCache::new(&dir).unwrap();
        let generated = Dataset::Netflix.generate(1024);
        let loaded = cache.get_or_generate(Dataset::Netflix, 1024);
        assert_eq!(generated, loaded);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.get_or_generate(Dataset::Netflix, 1024), generated);
        assert_eq!(cache.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
