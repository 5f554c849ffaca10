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
//! --jobs N                        worker threads (0 = all cores)
//! --json PATH                     also write the machine-readable document
//! --report-cache DIR              per-unit report cache shared across binaries
//! --progress                      per-cell progress lines on stderr
//! ```
//!
//! Every binary generates the datasets it needs; the report cache is
//! the only state carried between runs.

use crate::{paper_pairs, FigureJson, ReportCache, Scale};
use dvm_core::{SchemeId, SweepSpec};
use dvm_graph::Dataset;
use std::fmt;
use std::path::PathBuf;

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
    /// Sweep worker threads: `0` = all cores, `1` = serial.
    pub jobs: usize,
    /// Where to write the machine-readable results, if anywhere.
    pub json: Option<PathBuf>,
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
       [--jobs N] [--json PATH] [--progress] [--report-cache DIR]

  --scale        dataset sizing (default: quick; smoke is for CI/tests)
  --datasets     comma-separated short names; others are skipped
  --schemes      comma-separated translation-scheme names; the sweep is
                 restricted to them (paper names contain commas, so
                 spell those with '-': e.g. 4K-TLB+PWC, or just 4K)
  --jobs         worker threads (0 = all cores, default 1)
  --json         also write the machine-readable document to PATH
  --progress     per-cell progress lines on stderr (stdout is untouched)
  --report-cache reuse per-unit sweep reports across figure binaries";

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

    /// `true` if `dataset` passed the filter.
    pub fn wants(&self, dataset: Dataset) -> bool {
        self.datasets
            .as_ref()
            .is_none_or(|list| list.iter().any(|n| n == dataset.short_name()))
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

    /// Report cache statistics on stderr, if a report cache is in use.
    /// Called by the grid runners once results are in; the format is
    /// stable so `reproduce_all.sh` can scrape the counts into
    /// `BENCH_sweep.json`.
    pub fn report_cache_stats(&self) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, CliError> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_the_old_harness() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.jobs, 1);
        assert!(args.datasets.is_none() && args.json.is_none());
        assert!(!args.progress && args.reports.is_none());
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
        // Removed flags — the intra-unit lanes, the multi-process sweep
        // and its farm, the dataset cache — are unknown arguments
        // (exit 2), so a stale script fails instead of running something
        // else.
        for (name, value) in [
            ("lanes", "2"),
            ("shards", "2"),
            ("shard", "0/2"),
            ("farm", "h:1"),
            ("cache-dir", "x"),
        ] {
            let flag = format!("--{name}");
            let msg = parse(&[&flag, value]).unwrap_err().0;
            assert!(
                msg.contains(&format!("unknown argument '{flag}'")),
                "{flag}: {msg}"
            );
        }
        assert!(parse(&["--frobnicate"]).unwrap_err().0.contains("usage:"));
    }

    #[test]
    fn report_cache_flag_opens_and_propagates_to_workers() {
        let dir = std::env::temp_dir().join(format!("dvm-cli-rc-{}", std::process::id()));
        let argv = [
            "--report-cache",
            dir.to_str().unwrap(),
            "--scale",
            "smoke",
            "--datasets",
            "FR",
            "--jobs",
            "2",
        ];
        let cold = parse(&argv).unwrap();
        let reports = cold.reports.as_ref().expect("report cache opened");
        assert_eq!(reports.dir(), dir.as_path());
        assert!(dir.is_dir());
        // The `--jobs` worker threads store into the cache the flag opened,
        // so a second run loads every unit from it.
        let first = crate::run_sweep(&cold, &[SchemeId::IDEAL]);
        assert!(first.len() > 1, "FR runs more than one workload");
        assert_eq!(reports.hits(), 0);
        assert!(reports.misses() > 0);
        let warm = parse(&argv).unwrap();
        let second = crate::run_sweep(&warm, &[SchemeId::IDEAL]);
        let warm_reports = warm.reports.as_ref().unwrap();
        assert_eq!(warm_reports.hits(), reports.misses());
        assert_eq!(warm_reports.misses(), 0);
        // Loaded reports hold what `report_json` serializes, so compare
        // in that form.
        let rendered = |cells: &[dvm_core::CellReports]| {
            cells
                .iter()
                .flat_map(|c| c.reports.iter().map(|r| crate::report_json(r).to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(rendered(&first), rendered(&second));
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
    fn schemes_flag_reaches_workers() {
        // The sweep spec is what the `--jobs` threads run: every cell must
        // carry exactly the schemes the flag named, in command-line order.
        let args = parse(&["--schemes", "DVM-PE+,SVA-IOMMU", "--jobs", "2"]).unwrap();
        assert_eq!(args.jobs, 2);
        let spec = args.sweep_spec(&args.iommu_schemes(&[SchemeId::IDEAL]));
        assert!(!spec.cells.is_empty());
        for cell in &spec.cells {
            assert_eq!(
                cell.schemes,
                vec![SchemeId::DVM_PE_PLUS, SchemeId::SVA_IOMMU]
            );
        }
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
}
