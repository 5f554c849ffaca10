//! The `os-churn` workload: the `churn` harness's scenario under three
//! page-table flavours, one unit each.
//!
//! Set-up boots each unit's machine exactly as `dvm_os::churn::run`
//! does; the timed unit is the rest of `run` (`churn::run_on`) plus the
//! serialization of its time-series.

use crate::probe::Probe;
use crate::trace::{timed, Recorder};
use crate::{
    finish_trace, inputs, repeat_setup, set_core_metrics, set_setup, set_wall, timed_passes,
    Config, Outcome,
};
use dvm_bench::ShardValue;
use dvm_core::{ChurnConfig, ChurnResult, MapFlavor};
use dvm_mem::MachineConfig;
use dvm_os::{churn, Os, OsConfig};
use dvm_types::{DvmError, PageSize};
use std::sync::Mutex;

/// Timed set-up batches per run; `setup_s` is the median batch over its
/// size. One set-up (booting every unit's machine) takes about a tenth
/// of a millisecond, too short to time alone.
const SETUP_REPS: usize = 9;

/// Set-ups per timed batch.
const SETUP_BATCH: usize = 30;

/// How churn's time moves with the probe's ([`Probe::new`]).
const SENSITIVITY: f64 = 1.0;

/// The flavours compared, in unit order (the `churn` harness's).
pub const FLAVORS: [(&str, MapFlavor); 3] = [
    ("DVM-PE", MapFlavor::DvmPe),
    ("Paged-4K", MapFlavor::Paged(PageSize::Size4K)),
    ("Paged-2M", MapFlavor::Paged(PageSize::Size2M)),
];

/// The freshly booted OS `churn::run` would create for `config`.
pub fn boot(config: &ChurnConfig) -> Os {
    Os::new(OsConfig {
        machine: MachineConfig {
            mem_bytes: config.mem_bytes,
        },
        flavor: config.flavor,
        maintain_bitmap: false,
        identity_enabled: config.identity_enabled,
        aslr_seed: config.seed,
    })
}

/// A finished unit: the time-series and its serialized form.
#[derive(Debug, Clone, PartialEq)]
struct Done {
    result: ChurnResult,
    json: String,
}

/// The time-series as JSON, by the program's own serializer (the
/// `bench` layer's share).
fn render(result: &ChurnResult) -> String {
    result.epochs.to_json().to_string()
}

/// One unit's result with its `[churn, render, unit]` seconds.
type UnitOut = (Result<Done, DvmError>, [f64; 3]);

/// Booted machines for one pass, one per unit. Boots run on the calling
/// thread: each is cheaper than spawning a pool worker.
fn boot_all(configs: &[ChurnConfig]) -> Vec<Mutex<Os>> {
    configs.iter().map(|c| Mutex::new(boot(c))).collect()
}

/// Run every unit on its booted machine, with the probe's samples;
/// `rec` (with the pass span) adds spans.
fn pass(
    probe: &Probe,
    configs: &[ChurnConfig],
    machines: Vec<Mutex<Os>>,
    workers: usize,
    rec: Option<(&Recorder, usize)>,
) -> (Vec<UnitOut>, Vec<f64>) {
    let ids: Vec<usize> = (0..configs.len()).collect();
    let (rec, pass) = (rec.map(|(r, _)| r), rec.map(|(_, p)| p));
    probe.pool(&ids, workers, |&id| {
        let mut os = machines[id].lock().expect("machine lock poisoned");
        let ((done, churn_s, render_s), unit_s) = timed(rec, "core.unit", pass, Some(id), |unit| {
            let (result, churn_s) = timed(rec, "os.churn", unit, Some(id), |_| {
                churn::run_on(&mut os, &configs[id])
            });
            let (done, render_s) = match result {
                Ok(result) => {
                    let (json, render_s) =
                        timed(rec, "bench.render", unit, Some(id), |_| render(&result));
                    (Ok(Done { result, json }), render_s)
                }
                Err(e) => (Err(e), 0.0),
            };
            (done, churn_s, render_s)
        });
        (done, [churn_s, render_s, unit_s])
    })
}

/// Run the churn workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let configs: Vec<ChurnConfig> = FLAVORS
        .iter()
        .map(|&(_, flavor)| inputs::churn_config(config.size, flavor, config.seed))
        .collect();
    outcome.record.push(("units", configs.len().to_string()));
    outcome.record.push((
        "scenario",
        format!(
            "{}MiB,{}epochs,{}arrivals,seed{}",
            configs[0].mem_bytes >> 20,
            configs[0].epochs,
            configs[0].arrivals_per_epoch,
            configs[0].seed
        ),
    ));
    outcome.attempted = configs.len() as u64;
    let probe = Probe::new(SENSITIVITY);
    let (machines, setup) = repeat_setup(&probe, config.workers, SETUP_REPS, SETUP_BATCH, || {
        boot_all(&configs)
    });
    set_setup(&mut outcome, &setup);

    if !config.trace {
        let mut machines = Some(machines);
        let passes = timed_passes(&probe, config.workers, config.seconds, || {
            let booted = machines.take().unwrap_or_else(|| boot_all(&configs));
            pass(&probe, &configs, booted, config.workers, None)
        });
        set_wall(&mut outcome, &passes);
        let first = &passes[0].0;
        for (later, _) in &passes {
            check(first, later, &mut outcome);
        }
        let done = || first.iter().filter_map(|(out, _)| out.as_ref().ok());
        let oom: u64 = done()
            .flat_map(|d| &d.result.epochs)
            .map(|e| e.oom_events)
            .sum();
        let leaked: u64 = done().map(|d| d.result.leaked_frames).sum();
        outcome.record.push(("oom_events", oom.to_string()));
        outcome.record.push(("leaked_frames", leaked.to_string()));
        return outcome;
    }

    // Traced run: a warm-up pass (the first pass in a process pays for
    // fresh memory), one untraced pass (the reference for the checks,
    // the pool accounting and the overhead), then the traced pass.
    drop(pass(&probe, &configs, machines, config.workers, None));
    let booted = boot_all(&configs);
    let (plain, plain_timing) = probe.time(config.workers, || {
        pass(&probe, &configs, booted, config.workers, None)
    });
    let rec = Recorder::new();
    let booted = boot_all(&configs);
    let span = rec.open("core.pass", None, None);
    let (traced, traced_timing) = probe.time(config.workers, || {
        pass(&probe, &configs, booted, config.workers, Some((&rec, span)))
    });
    rec.close(span);
    check(&plain, &plain, &mut outcome);
    check(&plain, &traced, &mut outcome);

    for ((name, _), (out, [churn_s, _, _])) in FLAVORS.iter().zip(&traced) {
        outcome.set(&format!("os.churn_s.{name}"), *churn_s);
        if let Ok(done) = out {
            let total = |f: fn(&dvm_core::ChurnEpoch) -> u64| {
                done.result.epochs.iter().map(f).sum::<u64>() as f64
            };
            for (metric, value) in [
                ("os.identity_maps", total(|e| e.identity_maps)),
                ("os.identity_fallbacks", total(|e| e.identity_fallbacks)),
                ("os.cow_breaks", total(|e| e.cow_breaks)),
                ("os.oom_events", total(|e| e.oom_events)),
            ] {
                *outcome.values.entry(metric.to_string()).or_insert(0.0) += value;
            }
        }
    }
    outcome.set(
        "bench.render_s",
        traced.iter().map(|(_, [_, render_s, _])| render_s).sum(),
    );
    let unit_secs = |outs: &[UnitOut]| -> Vec<f64> { outs.iter().map(|(_, s)| s[2]).collect() };
    let plain_secs = unit_secs(&plain);
    set_core_metrics(
        &mut outcome,
        &plain_secs,
        config.workers,
        plain_timing.raw_s,
    );
    finish_trace(
        &mut outcome,
        config,
        &rec,
        (plain_secs.iter().sum(), plain_timing),
        (unit_secs(&traced).iter().sum(), traced_timing),
    );
    outcome
}

/// A unit fails if it errored, leaked frames, or differs from the
/// reference pass's time-series.
fn check(reference: &[UnitOut], outs: &[UnitOut], outcome: &mut Outcome) {
    for (id, (((name, _), (want, _)), (got, _))) in
        FLAVORS.iter().zip(reference).zip(outs).enumerate()
    {
        match (want, got) {
            (_, Err(e)) => outcome.fail(id, format!("{name}: {e}")),
            (_, Ok(d)) if d.result.leaked_frames != 0 => outcome.fail(
                id,
                format!("{name}: {} frames leaked", d.result.leaked_frames),
            ),
            (Ok(w), Ok(d)) if w != d => outcome.fail(id, format!("{name}: a repeated run differs")),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Size;

    #[test]
    fn boot_then_run_on_is_churn_run() {
        let config = inputs::churn_config(Size::Smoke, MapFlavor::DvmPe, 5);
        let mut os = boot(&config);
        assert_eq!(
            churn::run_on(&mut os, &config).unwrap(),
            churn::run(&config).unwrap()
        );
    }
}
