//! Smoke-size passes of every workload, untraced and traced: each prints
//! every declared metric with its unit, checks its outputs, and agrees
//! with `BENCHMARK.json`.

use dvm_bench::{parse, Json};
use dvm_perfbench::{run, Config, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) -> (dvm_perfbench::Outcome, Json) {
    let mut config = Config::new(workload, 0, 0.0, trace, Size::Smoke);
    if trace {
        config.spans_path = Some(
            PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("smoke-spans-{}.jsonl", workload.name())),
        );
    }
    let outcome = run(&config);
    let line = outcome.result_line(trace);
    let parsed = parse(&line).expect("the result line is one JSON object");
    (outcome, parsed)
}

fn check_metrics(parsed: &Json, declared: &[(&str, &str)]) {
    let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
        panic!("no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for ((name, unit), (_, metric)) in declared.iter().zip(metrics) {
        assert_eq!(metric.expect_str("unit").unwrap(), *unit, "{name}");
        assert!(metric.expect_f64("value").is_ok(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let (outcome, parsed) = smoke(workload, false);
        assert_eq!(outcome.problems, Vec::<String>::new(), "{workload:?}");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert!(parsed.expect_u64("attempted").unwrap() >= 1);
        assert_eq!(parsed.expect_u64("failed").unwrap(), 0);
        check_metrics(&parsed, &END_TO_END);
        for (name, value, _) in outcome.metrics(false) {
            assert!(value > 0.0, "{workload:?} {name} = {value}");
        }

        let (outcome, parsed) = smoke(workload, true);
        assert_eq!(
            outcome.problems,
            Vec::<String>::new(),
            "{workload:?} traced"
        );
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        check_metrics(&parsed, &per_layer);
        let value = |name: &str| outcome.values.get(name).copied().unwrap_or(0.0);
        assert!(value("core.busy_s") > 0.0);
        assert!(value("core.units") >= 3.0);
        match workload {
            Workload::OsChurn => assert!(value("os.churn_s.Paged-4K") > 0.0),
            _ => {
                assert!(value("accel.run_s") > 0.0 && value("os.layout_s") > 0.0);
                assert!(value("mmu.accesses") > 0.0 && value("graph.edges") > 0.0);
            }
        }
        let spans = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("smoke-spans-{}.jsonl", workload.name())),
        )
        .expect("traced runs write their spans");
        for line in spans.lines() {
            let span = parse(line).expect("one span per line");
            assert!(span.expect_u64("end_ns").unwrap() >= span.expect_u64("start_ns").unwrap());
        }
        assert!(spans.contains("\"name\": \"core.unit\""));
    }
}

#[test]
fn only_graph_translate_has_a_fig8_gap() {
    let (outcome, _) = smoke(Workload::GraphTranslate, true);
    assert!(
        outcome
            .values
            .get("sim.fig8_gap_pct")
            .copied()
            .unwrap_or(0.0)
            > 0.0
    );
    let (outcome, _) = smoke(Workload::CfVector, true);
    assert_eq!(outcome.values.get("sim.fig8_gap_pct"), None);
}

#[test]
fn benchmark_json_declares_these_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.expect_arr(key)
            .unwrap()
            .iter()
            .map(|m| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (m.expect_str("name").unwrap().to_string(), unit.to_string())
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, want);
    let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
        list.into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END.to_vec()));
    assert_eq!(
        names("per_layer"),
        own(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
    );
}
