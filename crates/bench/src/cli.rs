//! The one command line shared by every bench binary.
//!
//! Before this module, each bench binary carried its own ad-hoc
//! `std::env::args()` loop; they now parse through [`BenchArgs`] once and
//! stay declarative (a [`dvm_core::SweepSpec`] or item grid plus a
//! formatter). Parsing is pure ([`BenchArgs::try_parse`] takes any
//! iterator and returns typed errors), so the grammar is unit-testable;
//! [`BenchArgs::parse`] is the process-facing wrapper that prints usage
//! and exits.
//!
//! ```text
//! --scale smoke|quick|paper|full  dataset sizing (default: quick)
//! --datasets FR,Wiki,...          restrict to some inputs
//! --schemes a,b,c                 restrict to some translation schemes
//! --jobs N                        worker threads per process (0 = all cores)
//! --json PATH                     also write the machine-readable document
//! --shards N                      fan the grid out over N worker processes
//!                                 (a loopback farm; with --farm, the slice count)
//! --shard I/N                     run only shard I, print a fragment, exit
//! --farm HOST:PORT                run the grid on a farmd coordinator's workers
//! --cache-dir DIR                 on-disk dataset cache (see dvm-graph)
//! --report-cache DIR              per-unit report cache shared across binaries
//! --progress                      per-cell progress lines on stderr
//! ```

use crate::{paper_pairs, FigureJson, ReportCache, Scale};
use dvm_core::{SchemeId, SweepSpec};
use dvm_graph::{Dataset, DatasetCache};
use std::fmt;
use std::path::PathBuf;

/// A worker's slice of the grid: shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: usize,
    /// Total shards the grid is split into.
    pub count: usize,
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Which of the sharding roles this process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// Run the whole grid in this process (the default).
    Single,
    /// Run one shard and print its fragment document on stdout (the farm
    /// worker's role; no other stdout contract).
    Worker(Shard),
    /// Run the sweep on a farm and merge the fragments its workers send
    /// back: a `farmd` coordinator (`--farm host:port`), or with a bare
    /// `--shards N` a loopback farm of N local workers.
    Farm,
}

/// Typed options for a bench binary.
#[derive(Debug)]
pub struct BenchArgs {
    /// Selected scale.
    pub scale: Scale,
    /// Dataset filter (None = all).
    pub datasets: Option<Vec<String>>,
    /// Translation-scheme filter (None = the binary's default set). Kept
    /// as raw names: binaries with an IOMMU-scheme dimension resolve them
    /// through the registry ([`Self::iommu_schemes`]), while fig10/virt
    /// match them against their own CPU/nested scheme names.
    pub schemes: Option<Vec<String>>,
    /// Sweep worker threads per process: `0` = all cores, `1` = serial.
    pub jobs: usize,
    /// Where to write the machine-readable results, if anywhere.
    pub json: Option<PathBuf>,
    /// Farm: number of slices (and, without `--farm`, of loopback
    /// worker processes).
    pub shards: Option<usize>,
    /// Worker: the slice of the grid this process runs.
    pub shard: Option<Shard>,
    /// Submit the sweep to this `farmd` coordinator (`host:port`)
    /// instead of running locally.
    pub farm: Option<String>,
    /// Opened dataset cache, when `--cache-dir` was given.
    pub cache: Option<DatasetCache>,
    /// Opened per-unit report cache, when `--report-cache` was given.
    pub reports: Option<ReportCache>,
    /// Emit per-cell progress on stderr.
    pub progress: bool,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The usage text printed on `--help` and after errors.
pub const USAGE: &str = "usage: [--scale smoke|quick|paper|full] [--datasets FR,Wiki,...]
       [--schemes a,b,c]
       [--jobs N] [--json PATH] [--progress] [--cache-dir DIR]
       [--report-cache DIR]
       [--shards N | --shard I/N]
       [--farm HOST:PORT]

  --scale        dataset sizing (default: quick; smoke is for CI/tests)
  --datasets     comma-separated short names; others are skipped
  --schemes      comma-separated translation-scheme names; the sweep is
                 restricted to them (paper names contain commas, so
                 spell those with '-': e.g. 4K-TLB+PWC, or just 4K)
  --jobs         worker threads per process (0 = all cores, default 1)
  --json         also write the machine-readable document to PATH
  --progress     per-cell progress lines on stderr (stdout is untouched)
  --cache-dir    load/store generated datasets in an on-disk cache
  --report-cache reuse per-unit sweep reports across figure binaries
  --shards       fan the grid out over N worker processes and merge
  --shard        run only shard I of N, print its fragment on stdout and
                 exit (the farm worker's role)
  --farm         submit the sweep to a farmd coordinator and merge the
                 fragments its workers return (with --shards N, ask for
                 N slices; default: one slice per connected worker)";

impl BenchArgs {
    /// Parse an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] describing the first problem; `--help`
    /// surfaces as an error containing the usage text so [`parse`]
    /// can exit 0.
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut scale = Scale::Quick;
        let mut datasets = None;
        let mut schemes = None;
        let mut jobs = 1usize;
        let mut json = None;
        let mut shards = None;
        let mut shard = None;
        let mut farm = None;
        let mut cache_dir: Option<PathBuf> = None;
        let mut report_dir: Option<PathBuf> = None;
        let mut progress = false;

        let mut args = args.into_iter();
        let value_of = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next()
                .filter(|v| !v.is_empty())
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = value_of("--scale", &mut args)?;
                    scale = Scale::from_name(&v).ok_or_else(|| {
                        err(format!("unknown scale '{v}' (smoke|quick|paper|full)"))
                    })?;
                }
                "--datasets" => {
                    let v = value_of("--datasets", &mut args)?;
                    let names: Vec<String> = v.split(',').map(str::to_string).collect();
                    for name in &names {
                        if !Dataset::ALL.iter().any(|d| d.short_name() == name) {
                            return Err(err(format!(
                                "unknown dataset '{name}' (expected one of {})",
                                Dataset::ALL.map(|d| d.short_name()).join(", ")
                            )));
                        }
                    }
                    datasets = Some(names);
                }
                "--schemes" => {
                    let v = value_of("--schemes", &mut args)?;
                    let names: Vec<String> = v.split(',').map(str::to_string).collect();
                    if names.iter().any(String::is_empty) {
                        return Err(err(format!("empty scheme name in --schemes '{v}'")));
                    }
                    schemes = Some(names);
                }
                "--jobs" => {
                    let v = value_of("--jobs", &mut args)?;
                    jobs = v.parse().map_err(|_| {
                        err(format!(
                            "--jobs needs an integer (0 = all cores), got '{v}'"
                        ))
                    })?;
                }
                "--json" => json = Some(PathBuf::from(value_of("--json", &mut args)?)),
                "--shards" => {
                    let v = value_of("--shards", &mut args)?;
                    let n: usize = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        err(format!("--shards needs a positive integer, got '{v}'"))
                    })?;
                    shards = Some(n);
                }
                "--shard" => {
                    let v = value_of("--shard", &mut args)?;
                    // One message for every malformed shape — no slash,
                    // non-numeric I or N, N = 0, I >= N — so every
                    // binary rejects bad slices identically (exit 2).
                    let bad = || {
                        err(format!(
                            "--shard needs I/N with 0 <= I < N (e.g. 0/4), got '{v}'"
                        ))
                    };
                    let (i, n) = v.split_once('/').ok_or_else(bad)?;
                    let parsed = (i.parse::<usize>(), n.parse::<usize>());
                    shard = match parsed {
                        (Ok(index), Ok(count)) if count >= 1 && index < count => {
                            Some(Shard { index, count })
                        }
                        _ => return Err(bad()),
                    };
                }
                "--farm" => {
                    let v = value_of("--farm", &mut args)?;
                    let valid = v.rsplit_once(':').is_some_and(|(host, port)| {
                        !host.is_empty() && port.parse::<u16>().is_ok()
                    });
                    if !valid {
                        return Err(err(format!("--farm needs HOST:PORT, got '{v}'")));
                    }
                    farm = Some(v);
                }
                "--cache-dir" => {
                    cache_dir = Some(PathBuf::from(value_of("--cache-dir", &mut args)?));
                }
                "--report-cache" => {
                    report_dir = Some(PathBuf::from(value_of("--report-cache", &mut args)?));
                }
                "--progress" => progress = true,
                "--help" | "-h" => return Err(err(USAGE)),
                other => {
                    return Err(err(format!("unknown argument '{other}'\n\n{USAGE}")));
                }
            }
        }

        if shards.is_some() && shard.is_some() {
            return Err(err("--shards and --shard are mutually exclusive"));
        }
        // --farm composes with --shards (the requested slice count) but
        // not with --shard: a farm worker already is a --shard process.
        if farm.is_some() && shard.is_some() {
            return Err(err("--farm cannot be combined with --shard"));
        }
        let cache = match cache_dir {
            None => None,
            Some(dir) => Some(
                DatasetCache::new(&dir)
                    .map_err(|e| err(format!("cannot open --cache-dir {}: {e}", dir.display())))?,
            ),
        };
        let reports =
            match report_dir {
                None => None,
                Some(dir) => Some(ReportCache::new(&dir).map_err(|e| {
                    err(format!("cannot open --report-cache {}: {e}", dir.display()))
                })?),
            };
        Ok(Self {
            scale,
            datasets,
            schemes,
            jobs,
            json,
            shards,
            shard,
            farm,
            cache,
            reports,
            progress,
        })
    }

    /// Parse `std::env::args`; prints usage and exits on `--help` (0) or
    /// bad input (2).
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(CliError(msg)) if msg == USAGE => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(CliError(msg)) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// This process's sharding role.
    pub fn role(&self) -> ShardRole {
        if let Some(shard) = self.shard {
            ShardRole::Worker(shard)
        } else if self.farm.is_some() || self.shards.is_some() {
            ShardRole::Farm
        } else {
            ShardRole::Single
        }
    }

    /// `true` if `dataset` passed the filter.
    pub fn wants(&self, dataset: Dataset) -> bool {
        self.datasets
            .as_ref()
            .is_none_or(|list| list.iter().any(|n| n == dataset.short_name()))
    }

    /// Print a banner line on stdout — skipped in worker mode, whose
    /// stdout carries nothing but the fragment document.
    pub fn banner(&self, line: &str) {
        if self.shard.is_none() {
            println!("{line}");
        }
    }

    /// The paper pairs that pass the dataset filter, as a sweep spec over
    /// `schemes` at the selected scale.
    pub fn sweep_spec(&self, schemes: &[SchemeId]) -> SweepSpec {
        SweepSpec::for_pairs(
            paper_pairs().into_iter().filter(|(_, d)| self.wants(*d)),
            schemes,
            |d| self.scale.divisor(d),
        )
    }

    /// Resolve `--schemes` against the IOMMU-scheme registry, or return
    /// `defaults` verbatim if the flag was not given. Order follows the
    /// command line, duplicates are dropped.
    ///
    /// # Errors
    ///
    /// Any name the registry cannot resolve yields a [`CliError`] listing
    /// every registered scheme.
    pub fn try_iommu_schemes(&self, defaults: &[SchemeId]) -> Result<Vec<SchemeId>, CliError> {
        let Some(names) = &self.schemes else {
            return Ok(defaults.to_vec());
        };
        let mut picked: Vec<SchemeId> = Vec::with_capacity(names.len());
        for name in names {
            let id = SchemeId::parse(name).ok_or_else(|| {
                err(format!(
                    "unknown scheme '{name}' (registered: {})",
                    SchemeId::registered_names().join(", ")
                ))
            })?;
            if !picked.contains(&id) {
                picked.push(id);
            }
        }
        Ok(picked)
    }

    /// [`Self::try_iommu_schemes`], exiting 2 with the error on stderr —
    /// the process-facing wrapper the bench binaries call.
    pub fn iommu_schemes(&self, defaults: &[SchemeId]) -> Vec<SchemeId> {
        self.try_iommu_schemes(defaults).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Filter a binary's own scheme columns (fig10's CPU schemes, virt's
    /// nested schemes) by `--schemes`, matching names case-insensitively.
    /// Returns `columns` verbatim when the flag was not given.
    ///
    /// # Errors
    ///
    /// An unmatched name yields a [`CliError`] listing the valid columns.
    pub fn try_scheme_columns<T: Copy>(
        &self,
        columns: &[T],
        name_of: impl Fn(&T) -> &'static str,
    ) -> Result<Vec<T>, CliError> {
        let Some(names) = &self.schemes else {
            return Ok(columns.to_vec());
        };
        let mut picked: Vec<(T, &'static str)> = Vec::with_capacity(names.len());
        for name in names {
            let found = columns
                .iter()
                .find(|c| name_of(c).eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    err(format!(
                        "unknown scheme '{name}' (this binary knows: {})",
                        columns.iter().map(&name_of).collect::<Vec<_>>().join(", ")
                    ))
                })?;
            if !picked.iter().any(|(_, n)| *n == name_of(found)) {
                picked.push((*found, name_of(found)));
            }
        }
        Ok(picked.into_iter().map(|(c, _)| c).collect())
    }

    /// [`Self::try_scheme_columns`], exiting 2 with the error on stderr.
    pub fn scheme_columns<T: Copy>(
        &self,
        columns: &[T],
        name_of: impl Fn(&T) -> &'static str,
    ) -> Vec<T> {
        self.try_scheme_columns(columns, name_of)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
    }

    /// Refuse `--schemes` in binaries without a scheme dimension
    /// (the tables), exiting 2 so a typo is not silently ignored.
    pub fn reject_schemes(&self, binary: &str) {
        if self.schemes.is_some() {
            eprintln!("--schemes: {binary} has no translation-scheme dimension");
            std::process::exit(2);
        }
    }

    /// Write `fig` to the `--json` path, if one was given.
    ///
    /// # Panics
    ///
    /// Panics on filesystem errors.
    pub fn emit_json(&self, fig: &FigureJson) {
        if let Some(path) = &self.json {
            fig.write(path).expect("writing --json output failed");
        }
    }

    /// Generate (or load through the cache) one dataset at the selected
    /// scale.
    pub fn generate_graph(&self, dataset: Dataset) -> dvm_graph::Graph {
        let divisor = self.scale.divisor(dataset);
        match &self.cache {
            Some(cache) => cache.get_or_generate(dataset, divisor),
            None => dataset.generate(divisor),
        }
    }

    /// Report cache statistics on stderr, if a cache is in use. Called by
    /// the grid runners once results are in; the format is stable so
    /// `reproduce_all.sh` can scrape the counts into `BENCH_sweep.json`.
    pub fn report_cache_stats(&self) {
        if let Some(cache) = &self.cache {
            if cache.hits() + cache.misses() > 0 {
                eprintln!(
                    "dataset-cache: hits={} misses={} rejected={} dir={}",
                    cache.hits(),
                    cache.misses(),
                    cache.rejected(),
                    cache.dir().display()
                );
            }
        }
        if let Some(reports) = &self.reports {
            if reports.hits() + reports.misses() > 0 {
                eprintln!(
                    "report-cache: hits={} misses={} dir={}",
                    reports.hits(),
                    reports.misses(),
                    reports.dir().display()
                );
            }
        }
    }

    /// The argv submitted with a farm job: the grid-defining flags every
    /// worker needs — scale, filters, jobs, caches, progress — minus any
    /// role flag. Farm workers append `--shard I/N` themselves per slice (and may override the cache paths with local
    /// ones).
    pub fn farm_argv(&self) -> Vec<String> {
        let mut argv = vec!["--scale".to_string(), self.scale.name().to_string()];
        if let Some(datasets) = &self.datasets {
            argv.push("--datasets".to_string());
            argv.push(datasets.join(","));
        }
        if let Some(schemes) = &self.schemes {
            // Tokens are comma-free by construction (parsing split on
            // commas), so joining with ',' round-trips.
            argv.push("--schemes".to_string());
            argv.push(schemes.join(","));
        }
        argv.push("--jobs".to_string());
        argv.push(self.jobs.to_string());
        if let Some(cache) = &self.cache {
            argv.push("--cache-dir".to_string());
            argv.push(cache.dir().display().to_string());
        }
        if let Some(reports) = &self.reports {
            argv.push("--report-cache".to_string());
            argv.push(reports.dir().display().to_string());
        }
        if self.progress {
            argv.push("--progress".to_string());
        }
        argv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, CliError> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    /// What a farm worker runs for slice `index` of `count`: the job's
    /// [`BenchArgs::farm_argv`] plus the shard tail it appends.
    fn slice_argv(args: &BenchArgs, index: usize, count: usize) -> Vec<String> {
        let mut argv = args.farm_argv();
        argv.extend(["--shard".to_string(), format!("{index}/{count}")]);
        argv
    }

    #[test]
    fn defaults_match_the_old_harness() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.jobs, 1);
        assert!(args.datasets.is_none() && args.json.is_none());
        assert_eq!(args.role(), ShardRole::Single);
        assert!(!args.progress && args.cache.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(&[
            "--scale",
            "smoke",
            "--datasets",
            "FR,NF",
            "--jobs",
            "0",
            "--json",
            "out.json",
            "--progress",
        ])
        .unwrap();
        assert_eq!(args.scale, Scale::Smoke);
        assert_eq!(
            args.datasets.as_deref(),
            Some(&["FR".to_string(), "NF".to_string()][..])
        );
        assert_eq!(args.jobs, 0);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(args.progress);
        assert!(args.wants(Dataset::Flickr));
        assert!(!args.wants(Dataset::Wikipedia));
    }

    #[test]
    fn shard_roles_parse_and_exclude_each_other() {
        assert_eq!(
            parse(&["--shard", "1/3"]).unwrap().role(),
            ShardRole::Worker(Shard { index: 1, count: 3 })
        );
        // A bare --shards N is a loopback farm of N workers.
        let args = parse(&["--shards", "4"]).unwrap();
        assert_eq!(args.role(), ShardRole::Farm);
        assert!(args.farm.is_none());
        assert_eq!(args.shards, Some(4));
        assert!(parse(&["--shard", "3/3"]).is_err());
        assert!(parse(&["--shard", "x/3"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "2", "--shard", "0/2"]).is_err());
    }

    #[test]
    fn bad_shards_share_one_message() {
        // Every malformed shape — no slash, bad numbers, N = 0, I >= N —
        // produces the same diagnostic across all binaries.
        for bad in ["0/0", "3/3", "7/2", "x/3", "1/y", "2", "/", "1/", "-1/3"] {
            let msg = parse(&["--shard", bad]).unwrap_err().0;
            assert_eq!(
                msg,
                format!("--shard needs I/N with 0 <= I < N (e.g. 0/4), got '{bad}'")
            );
        }
    }

    #[test]
    fn farm_parses_and_excludes_worker_roles() {
        let args = parse(&["--farm", "127.0.0.1:9000"]).unwrap();
        assert_eq!(args.farm.as_deref(), Some("127.0.0.1:9000"));
        assert_eq!(args.role(), ShardRole::Farm);
        // --shards under --farm is the requested slice count.
        let args = parse(&["--farm", "host:1", "--shards", "4"]).unwrap();
        assert_eq!(args.role(), ShardRole::Farm);
        assert_eq!(args.shards, Some(4));
        for bad in ["nohost", "host:", ":9000", "host:notaport", "host:99999"] {
            assert!(parse(&["--farm", bad]).unwrap_err().0.contains("HOST:PORT"));
        }
        assert!(parse(&["--farm", "h:1", "--shard", "0/2"]).is_err());
    }

    #[test]
    fn farm_argv_carries_the_grid_but_no_role_flag() {
        let args = parse(&[
            "--farm",
            "h:1",
            "--shards",
            "3",
            "--scale",
            "smoke",
            "--jobs",
            "2",
            "--progress",
        ])
        .unwrap();
        assert_eq!(
            args.farm_argv(),
            ["--scale", "smoke", "--jobs", "2", "--progress"].map(String::from)
        );
    }

    #[test]
    fn bad_input_is_described() {
        assert!(parse(&["--scale", "huge"])
            .unwrap_err()
            .0
            .contains("unknown scale"));
        assert!(parse(&["--datasets", "FR,Nope"])
            .unwrap_err()
            .0
            .contains("unknown dataset"));
        assert!(parse(&["--jobs", "many"])
            .unwrap_err()
            .0
            .contains("integer"));
        assert!(parse(&["--jobs"]).unwrap_err().0.contains("needs a value"));
        // The removed intra-unit lane flag is an unknown argument (exit 2).
        assert!(parse(&["--lanes", "2"]).is_err());
        assert!(parse(&["--lanes", "2"])
            .unwrap_err()
            .0
            .contains("unknown argument '--lanes'"));
        assert!(parse(&["--frobnicate"]).unwrap_err().0.contains("usage:"));
    }

    #[test]
    fn report_cache_flag_opens_and_propagates_to_workers() {
        let dir = std::env::temp_dir().join(format!("dvm-cli-rc-{}", std::process::id()));
        let args = parse(&["--report-cache", dir.to_str().unwrap()]).unwrap();
        let reports = args.reports.as_ref().expect("report cache opened");
        assert_eq!(reports.dir(), dir.as_path());
        let argv = args.farm_argv();
        let pos = argv.iter().position(|a| a == "--report-cache").unwrap();
        assert_eq!(argv[pos + 1], dir.display().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schemes_flag_parses_and_resolves_through_the_registry() {
        let args = parse(&["--schemes", "DVM-PE+,SVA-Pf,4K-TLB+PWC"]).unwrap();
        assert_eq!(
            args.try_iommu_schemes(&[]).unwrap(),
            vec![SchemeId::DVM_PE_PLUS, SchemeId::SVA_PF, SchemeId::CONV_4K]
        );
        // No flag: the binary's defaults pass through untouched.
        let default = parse(&[]).unwrap();
        assert_eq!(
            default.try_iommu_schemes(&[SchemeId::IDEAL]).unwrap(),
            vec![SchemeId::IDEAL]
        );
        // Duplicates collapse, order follows the command line.
        let dup = parse(&["--schemes", "Ideal,DVM-BM,Ideal"]).unwrap();
        assert_eq!(
            dup.try_iommu_schemes(&[]).unwrap(),
            vec![SchemeId::IDEAL, SchemeId::DVM_BM]
        );
    }

    #[test]
    fn unknown_scheme_names_list_the_registry() {
        let args = parse(&["--schemes", "DVM-PE+,bogus"]).unwrap();
        let msg = args.try_iommu_schemes(&[]).unwrap_err().0;
        assert!(msg.contains("unknown scheme 'bogus'"), "{msg}");
        for name in SchemeId::registered_names() {
            assert!(msg.contains(name), "missing {name} in: {msg}");
        }
        assert!(parse(&["--schemes", "a,,b"])
            .unwrap_err()
            .0
            .contains("empty scheme name"));
    }

    #[test]
    fn scheme_columns_filter_by_name_case_insensitively() {
        let args = parse(&["--schemes", "thp,4k"]).unwrap();
        let columns = [("4K", 1u32), ("THP", 2), ("cDVM", 3)];
        let picked = args.try_scheme_columns(&columns, |c| c.0).unwrap();
        assert_eq!(picked, vec![("THP", 2), ("4K", 1)]);
        let bad = parse(&["--schemes", "nope"]).unwrap();
        let msg = bad.try_scheme_columns(&columns, |c| c.0).unwrap_err().0;
        assert!(
            msg.contains("unknown scheme 'nope'") && msg.contains("cDVM"),
            "{msg}"
        );
    }

    #[test]
    fn schemes_flag_reaches_workers() {
        let submitter = parse(&["--schemes", "DVM-PE+,SVA-IOMMU"]).unwrap();
        let worker = BenchArgs::try_parse(slice_argv(&submitter, 0, 2)).unwrap();
        assert_eq!(worker.schemes, submitter.schemes);
        assert_eq!(
            worker.try_iommu_schemes(&[]).unwrap(),
            vec![SchemeId::DVM_PE_PLUS, SchemeId::SVA_IOMMU]
        );
    }

    #[test]
    fn farm_argv_round_trips_through_the_parser() {
        let submitter = parse(&["--scale", "smoke", "--datasets", "FR", "--jobs", "2"]).unwrap();
        let worker = BenchArgs::try_parse(slice_argv(&submitter, 1, 2)).unwrap();
        assert_eq!(worker.scale, submitter.scale);
        assert_eq!(worker.datasets, submitter.datasets);
        assert_eq!(worker.jobs, submitter.jobs);
        assert_eq!(
            worker.role(),
            ShardRole::Worker(Shard { index: 1, count: 2 })
        );
    }
}
