//! On-disk memo of per-unit sweep reports.
//!
//! Figures 2, 8 and 9 sweep the *same* (workload × dataset × scheme)
//! grid — fig2 a 2-scheme subset, fig8 and fig9 the full 7-scheme set —
//! and each binary used to re-simulate every unit from scratch. A
//! [`ReportCache`] plugged into [`dvm_core::SweepRunner::report_store`]
//! records each unit's [`GraphRunReport`] as it completes and replays it
//! on the next request, so one simulation pass serves every figure that
//! shares the grid.
//!
//! Correctness rests on a round-trip contract: entries hold exactly the
//! [`report_json`] serialization the formatters consume, and
//! re-serializing a report rebuilt by `report_from_json` yields the
//! bytes it was parsed from (asserted by this module's tests). A cached
//! run's output is therefore byte-identical to an uncached one.
//! Simulations are deterministic, so the *values* are the runs' values —
//! the cache only skips redundant replay.
//!
//! Entries are keyed by the full unit identity (workload with all its
//! parameters, dataset, shrink divisor, MMU scheme); the key is stored
//! inside the entry and cross-checked on load, so a filename collision
//! degrades to a miss, never a wrong report. File names cap the
//! readable slug at [`MAX_SLUG_CHARS`] — the FNV-1a hash plus the
//! in-entry cross-check carry identity — so an arbitrarily long
//! parameter set can never overflow the 255-byte file-name limit and
//! silently disable the cache.
//!
//! Each entry also stores an FNV-1a checksum of the report's canonical
//! [`report_json`] text. A load re-serializes the parsed report and
//! compares: by the round-trip contract an intact entry matches exactly,
//! and a damaged one (a flipped digit still parses) is a miss that
//! simulates the unit again. Writes go through a temp file plus an
//! atomic rename ([`write_atomic`]), so neither separate processes nor
//! `--jobs N` threads racing on one entry ever publish a torn file, and
//! opening the directory sweeps tmp files that killed writers left behind
//! ([`open_dir`]). The directory is unbounded: the cache is meant to
//! live for one `reproduce_all.sh` invocation (the script clears it up
//! front, and a whole quick grid of reports is tens of KB), and entries
//! do not try to survive simulator changes.
//!
//! This is the only cache in the harness. Generated datasets are not
//! cached: regenerating them costs seconds, and `reproduce_all.sh` runs
//! Figure 8 before Figure 2 so Figure 2's units all replay from here
//! (DESIGN.md §7).

use crate::{parse, report_json, validate_header, Json, JsonDoc};
use dvm_core::{GraphRunReport, ReportStore, RunResult, SchemeId, UnitKey, Workload};
use dvm_sim::fnv1a;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Longest readable slug embedded in an entry file name. With the 17
/// hash characters and the `.json` suffix the name stays well under
/// every mainstream filesystem's 255-byte limit.
pub const MAX_SLUG_CHARS: usize = 160;

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
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
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
fn open_dir(dir: &Path) -> io::Result<usize> {
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

/// Directory-backed store of per-unit sweep reports.
#[derive(Debug)]
pub struct ReportCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReportCache {
    /// Open (creating if needed) a report cache in `dir`, sweeping the
    /// tmp files that killed writers left behind.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        open_dir(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Units served from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Units that had to be simulated (no entry, or a stale, foreign or
    /// damaged one).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The canonical textual identity of a unit. Uses the `Debug` form
    /// of the workload so every parameter (PageRank iteration count, CF
    /// feature count, ...) is part of the key, and the scheme's
    /// *registry name* — never its registration index — so entries stay
    /// valid no matter what order schemes were registered in and an
    /// at-runtime registration can never alias a builtin's entries.
    fn key_string(key: &UnitKey<'_>) -> String {
        format!(
            "{:?}|{}|div{}|{}",
            key.workload,
            key.dataset.short_name(),
            key.divisor,
            key.mmu.name()
        )
    }

    /// The file name for a key text: a readable slug plus an FNV-1a
    /// hash of the exact key. The slug is lossy *and* truncated to
    /// [`MAX_SLUG_CHARS`] — identity rests on the hash and the in-entry
    /// key cross-check — so a workload with an arbitrarily long `Debug`
    /// form can never exceed the 255-byte file-name limit (which would
    /// make every store fail silently and the cache never hit).
    fn file_name_for(text: &str) -> String {
        let hash = fnv1a(text.as_bytes());
        let slug: String = text
            .chars()
            .take(MAX_SLUG_CHARS)
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("{slug}-{hash:016x}.json")
    }

    /// Where the entry for `key` lives.
    pub fn entry_path(&self, key: &UnitKey<'_>) -> PathBuf {
        self.dir.join(Self::file_name_for(&Self::key_string(key)))
    }

    /// The integrity check stored with an entry: FNV-1a of the report's
    /// canonical serialization, as hex (a `u64` does not survive a JSON
    /// number).
    fn checksum(report: &GraphRunReport) -> String {
        format!("{:016x}", fnv1a(report_json(report).to_string().as_bytes()))
    }
}

impl ReportStore for ReportCache {
    fn load(&self, key: &UnitKey<'_>) -> Option<GraphRunReport> {
        let path = self.entry_path(key);
        let loaded = (|| {
            let text = std::fs::read_to_string(&path).ok()?;
            let doc = parse(&text).ok()?;
            validate_header(&doc, Some("report-cache")).ok()?;
            if doc.expect_str("kind") != Ok("unit-report")
                || doc.expect_str("key") != Ok(&Self::key_string(key))
            {
                return None;
            }
            let report = report_from_json(doc.get("report")?, key.mmu, key.workload).ok()?;
            (doc.expect_str("checksum") == Ok(&Self::checksum(&report))).then_some(report)
        })();
        let counter = if loaded.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        loaded
    }

    fn store(&self, key: &UnitKey<'_>, report: &GraphRunReport) {
        let doc = JsonDoc::new("report-cache")
            .field("kind", Json::Str("unit-report".to_string()))
            .field("key", Json::Str(Self::key_string(key)))
            .field("checksum", Json::Str(Self::checksum(report)))
            .field("report", report_json(report))
            .build();
        // A lost rename race overwrites with identical content, and a
        // failed store is only a future miss.
        let _ = write_atomic(&self.entry_path(key), format!("{doc}\n").as_bytes());
    }
}

/// Rebuild a [`GraphRunReport`] from its [`report_json`] serialization,
/// in the context of the unit (`mmu`, `workload`) the entry is loaded
/// for — the names stored in the entry are cross-checked against that
/// context.
///
/// The rebuilt report carries only the fields [`report_json`]
/// serializes: `engine_cycles` and `walker_cycles` come back empty. No
/// formatter reads them.
fn report_from_json(
    obj: &Json,
    mmu: SchemeId,
    workload: &Workload,
) -> Result<GraphRunReport, String> {
    let found_mmu = obj.expect_str("mmu")?;
    if found_mmu != mmu.name() {
        return Err(format!("scheme '{found_mmu}' != expected '{}'", mmu.name()));
    }
    let found_workload = obj.expect_str("workload")?;
    if found_workload != workload.name() {
        return Err(format!(
            "workload '{found_workload}' != expected '{}'",
            workload.name()
        ));
    }
    let hit_miss = |key: &str| -> Result<Option<(u64, u64)>, String> {
        match obj.get(key) {
            None => Err(format!("missing field '{key}'")),
            Some(Json::Null) => Ok(None),
            Some(v) => Ok(Some((v.expect_u64("hits")?, v.expect_u64("misses")?))),
        }
    };
    let cycles = obj.expect_u64("cycles")?;
    Ok(GraphRunReport {
        mmu,
        workload: workload.name(),
        cycles,
        run: RunResult {
            cycles,
            engine_cycles: Vec::new(),
            edges_processed: obj.expect_u64("edges_processed")?,
            iterations: u32::try_from(obj.expect_u64("iterations")?)
                .map_err(|_| "iterations out of range".to_string())?,
            walker_cycles: 0,
        },
        accesses: obj.expect_u64("accesses")?,
        tlb: hit_miss("tlb")?,
        ptc: hit_miss("ptc")?,
        bitmap_cache: hit_miss("bitmap_cache")?,
        walk_mem_refs: obj.expect_u64("walk_mem_refs")?,
        identity_validations: obj.expect_u64("identity_validations")?,
        fallback_translations: obj.expect_u64("fallback_translations")?,
        preload_squashes: obj.expect_u64("preload_squashes")?,
        mm_energy_pj: obj.expect_f64("mm_energy_pj")?,
        dram_accesses: obj.expect_u64("dram_accesses")?,
        heap_bytes: obj.expect_u64("heap_bytes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_core::{run_graph_experiment, Dataset, ExperimentConfig, SweepRunner, SweepSpec};
    use dvm_graph::{rmat, RmatParams};
    use dvm_sim::DetRng;
    use std::fs::FileTimes;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dvm-reportcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unique_tmp_paths_never_collide() {
        let path = Path::new("/cache/BFS_FR_div64_Ideal-0123456789abcdef.json");
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
        let dir = tmp_dir("orphans");
        std::fs::create_dir_all(&dir).unwrap();
        let put = |name: &str, age_secs: u64| {
            let file = std::fs::File::create(dir.join(name)).unwrap();
            let mtime = SystemTime::now() - Duration::from_secs(age_secs);
            file.set_times(FileTimes::new().set_modified(mtime))
                .unwrap();
        };
        put("BFS_FR-0.json", 7200);
        put("BFS_FR-0.tmp123-0", 7200);
        put("BFS_NF-1.tmp456-1", 0);
        assert_eq!(open_dir(&dir).unwrap(), 1);
        assert!(!dir.join("BFS_FR-0.tmp123-0").exists());
        // A tmp younger than the grace period is an in-flight write.
        assert!(dir.join("BFS_NF-1.tmp456-1").exists());
        assert!(dir.join("BFS_FR-0.json").exists());
        // Opening a cache runs the same sweep.
        put("BFS_S24-2.tmp789-2", 7200);
        ReportCache::new(&dir).unwrap();
        assert!(!dir.join("BFS_S24-2.tmp789-2").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_store_cleans_up_its_tmp_file() {
        // A store whose rename fails (here: the entry path is a
        // directory) must remove its tmp file instead of leaking it.
        let dir = tmp_dir("tmpleak");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        std::fs::create_dir_all(&path).unwrap();
        assert!(write_atomic(&path, b"{}").is_err());
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert_eq!(leftovers, Vec::<String>::new(), "tmp files leaked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_report_round_trips_through_report_json() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        for mmu in [
            SchemeId::CONV_4K,
            SchemeId::DVM_BM,
            SchemeId::DVM_PE_PLUS,
            SchemeId::IDEAL,
        ] {
            let report =
                run_graph_experiment(&workload, &graph, &ExperimentConfig::for_mmu(mmu)).unwrap();
            let serialized = report_json(&report);
            let parsed = parse(&serialized.to_string()).unwrap();
            let round = report_from_json(&parsed, mmu, &workload).unwrap();
            // Re-serializing the reconstruction gives the same bytes the
            // formatters would have consumed.
            assert_eq!(report_json(&round), serialized);
            assert_eq!(round.tlb_miss_rate(), report.tlb_miss_rate());
            assert_eq!(round.cycles, report.cycles);
            assert_eq!(round.mm_energy_pj, report.mm_energy_pj);
        }
    }

    #[test]
    fn report_context_mismatch_is_rejected() {
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let doc = report_json(&report);
        assert!(report_from_json(&doc, SchemeId::DVM_BM, &workload).is_err());
        assert!(
            report_from_json(&doc, SchemeId::IDEAL, &Workload::PageRank { iterations: 1 }).is_err()
        );
    }

    #[test]
    fn corrupted_entries_miss_or_load_the_original_reports() {
        // A stored entry of a real report — one with TLB statistics, one
        // with PWC/AVC statistics — is damaged by seeded bit flips or
        // truncation. Every load must miss or return a report that
        // serializes identically to the original: a flipped digit still
        // parses, so the entry checksum has to catch it.
        let dir = tmp_dir("corrupt");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let mut rejected = 0;
        for mmu in [SchemeId::CONV_4K, SchemeId::DVM_PE_PLUS] {
            let config = ExperimentConfig::for_mmu(mmu);
            let report = run_graph_experiment(&workload, &graph, &config).unwrap();
            let want = report_json(&report).to_string();
            let key = UnitKey {
                workload: &workload,
                dataset: Dataset::Flickr,
                divisor: 64,
                mmu,
            };
            cache.store(&key, &report);
            let path = cache.entry_path(&key);
            let entry = std::fs::read(&path).unwrap();
            for seed in 0..500 {
                let mut rng = DetRng::new(seed);
                let mut bytes = entry.clone();
                if seed % 2 == 0 {
                    for _ in 0..=rng.below(3) {
                        let at = rng.below(bytes.len() as u64) as usize;
                        bytes[at] ^= 1 << rng.below(8);
                    }
                } else {
                    bytes.truncate(rng.below(bytes.len() as u64) as usize);
                }
                std::fs::write(&path, &bytes).unwrap();
                match cache.load(&key) {
                    Some(got) => assert_eq!(
                        report_json(&got).to_string(),
                        want,
                        "{} seed {seed}: loaded a different report",
                        mmu.name()
                    ),
                    None => rejected += 1,
                }
            }
        }
        assert!(
            rejected > 900,
            "only {rejected} of 1000 corruptions rejected"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_then_load_round_trips_serialized_form() {
        let dir = tmp_dir("roundtrip");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        for mmu in [SchemeId::CONV_4K, SchemeId::DVM_PE_PLUS, SchemeId::IDEAL] {
            let report =
                run_graph_experiment(&workload, &graph, &ExperimentConfig::for_mmu(mmu)).unwrap();
            let key = UnitKey {
                workload: &workload,
                dataset: Dataset::Rmat24,
                divisor: 999,
                mmu,
            };
            assert!(cache.load(&key).is_none(), "cold cache must miss");
            cache.store(&key, &report);
            let loaded = cache.load(&key).expect("stored entry loads");
            // The serialized form — everything the formatters read — is
            // identical; that is the byte-identity contract.
            assert_eq!(report_json(&loaded), report_json(&report));
        }
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_keys_produce_capped_distinct_writable_names() {
        // Regression test for the file-name overflow: the slug used to
        // embed the full key text, so a long parameter set exceeded the
        // 255-byte name limit, every store failed silently and the
        // cache never hit. The slug is now capped; identity rides on
        // the hash plus the in-entry key cross-check.
        let long_a = "x".repeat(4000);
        let long_b = format!("{}y", "x".repeat(3999));
        let name_a = ReportCache::file_name_for(&long_a);
        let name_b = ReportCache::file_name_for(&long_b);
        assert!(
            name_a.len() <= 255,
            "name still overflows: {}",
            name_a.len()
        );
        assert_ne!(name_a, name_b, "hash must distinguish shared prefixes");
        // The capped name is actually storable on the real filesystem.
        let dir = tmp_dir("longname");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&name_a), "x").expect("capped name stores");
        // Short keys keep their full readable slug.
        let short = ReportCache::file_name_for("BFS|FR|div64|Ideal");
        assert!(short.starts_with("BFS_FR_div64_Ideal-"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_entry_never_publish_a_torn_report() {
        // Regression test for the tmp-name race: tmp names used to be
        // unique per process only, so two --jobs threads storing the
        // same unit interleaved writes on one tmp path and could rename
        // a torn file into place. Every load must round-trip the exact
        // serialized form; a None (parse failure) means a torn entry.
        let dir = tmp_dir("hammer");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let key = UnitKey {
            workload: &workload,
            dataset: Dataset::Flickr,
            divisor: 64,
            mmu: SchemeId::IDEAL,
        };
        let expected = report_json(&report).to_string();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        cache.store(&key, &report);
                        let loaded = cache.load(&key).expect("complete entry always loads");
                        assert_eq!(report_json(&loaded).to_string(), expected);
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 0, "a torn entry was renamed into place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_miss_or_load_identically() {
        // Regression test: entries had no integrity check, so changing
        // one digit of "cycles" loaded a report with the wrong cycle
        // count. Every damaged entry must now be a miss or a report that
        // serializes identically, never a panic.
        let dir = tmp_dir("damage");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let key = UnitKey {
            workload: &workload,
            dataset: Dataset::Flickr,
            divisor: 64,
            mmu: SchemeId::IDEAL,
        };
        cache.store(&key, &report);
        let path = cache.entry_path(&key);
        let entry = std::fs::read(&path).unwrap();
        let expected = report_json(&report).to_string();
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            cache.load(&key)
        };

        // One digit of "cycles" changed: still valid JSON, wrong value.
        let field = entry
            .windows(8)
            .position(|w| w == b"\"cycles\"")
            .expect("entry has a cycles field");
        let digit = field + entry[field..].iter().position(u8::is_ascii_digit).unwrap();
        let mut corrupt = entry.clone();
        corrupt[digit] = if corrupt[digit] == b'1' { b'2' } else { b'1' };
        assert!(load(&corrupt).is_none(), "a changed cycles digit loaded");

        for case in 0..200 {
            let mut rng = DetRng::new(case);
            let mut corrupt = entry.clone();
            let at = rng.below(entry.len() as u64) as usize;
            corrupt[at] ^= 1 + rng.below(255) as u8;
            let len = rng.below(entry.len() as u64) as usize;
            for (bytes, what) in [(&corrupt[..], "byte flip"), (&entry[..len], "truncation")] {
                if let Some(loaded) = load(bytes) {
                    assert_eq!(
                        report_json(&loaded).to_string(),
                        expected,
                        "seed {case}: {what} (byte {at}, length {len}) loaded a different report"
                    );
                }
            }
        }
        // The intact entry still loads.
        assert!(load(&entry).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_use_registry_names_not_positions() {
        // The on-disk identity must be the scheme's registered name so a
        // cache survives reordering/registration of schemes; an ordinal
        // (e.g. "SchemeId(4)") would silently alias entries across
        // registry layouts.
        let workload = Workload::Bfs { root: 0 };
        for mmu in SchemeId::all() {
            let key = UnitKey {
                workload: &workload,
                dataset: Dataset::Flickr,
                divisor: 64,
                mmu,
            };
            let text = ReportCache::key_string(&key);
            assert!(
                text.ends_with(&format!("|{}", mmu.name())),
                "key not name-based: {text}"
            );
            assert!(!text.contains("SchemeId"), "ordinal leaked into {text}");
        }
    }

    #[test]
    fn key_mismatch_degrades_to_miss() {
        let dir = tmp_dir("mismatch");
        let cache = ReportCache::new(&dir).unwrap();
        let graph = rmat(10, 4, RmatParams::default(), 3);
        let workload = Workload::Bfs { root: 0 };
        let report = run_graph_experiment(
            &workload,
            &graph,
            &ExperimentConfig::for_mmu(SchemeId::IDEAL),
        )
        .unwrap();
        let key = UnitKey {
            workload: &workload,
            dataset: Dataset::Flickr,
            divisor: 64,
            mmu: SchemeId::IDEAL,
        };
        cache.store(&key, &report);
        // Same path contents, different expected key (divisor differs):
        // copy the entry onto the other key's path to force a collision.
        let other = UnitKey { divisor: 65, ..key };
        std::fs::copy(cache.entry_path(&key), cache.entry_path(&other)).unwrap();
        assert!(cache.load(&other).is_none(), "foreign entry must not load");
        // Distinct workload parameters key distinct entries.
        let rooted = Workload::Bfs { root: 7 };
        let rekeyed = UnitKey {
            workload: &rooted,
            ..key
        };
        assert_ne!(cache.entry_path(&key), cache.entry_path(&rekeyed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_reuses_cached_units_without_perturbing_results() {
        let dir = tmp_dir("sweep");
        let cache = ReportCache::new(&dir).unwrap();
        let spec = SweepSpec::for_pairs(
            [
                (Workload::Bfs { root: 0 }, Dataset::Flickr),
                (Workload::PageRank { iterations: 1 }, Dataset::Flickr),
            ],
            &[SchemeId::IDEAL, SchemeId::DVM_PE],
            |_| 1024,
        );
        let plain = SweepRunner::new(&spec).run().unwrap();
        let first = SweepRunner::new(&spec).report_store(&cache).run().unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
        let second = SweepRunner::new(&spec).report_store(&cache).run().unwrap();
        assert_eq!(cache.hits(), 4, "second sweep replays every unit");
        for (a, b) in plain.iter().zip(&second) {
            for (ra, rb) in a.reports.iter().zip(&b.reports) {
                assert_eq!(report_json(ra), report_json(rb));
            }
        }
        // A scheme the cache has not seen still simulates.
        let wider = SweepSpec::for_pairs(
            [(Workload::Bfs { root: 0 }, Dataset::Flickr)],
            &[SchemeId::IDEAL, SchemeId::DVM_BM],
            |_| 1024,
        );
        let mixed = SweepRunner::new(&wider).report_store(&cache).run().unwrap();
        assert_eq!(mixed[0].reports.len(), 2);
        assert_eq!(cache.hits(), 5);
        assert_eq!(cache.misses(), 5);
        drop(first);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
