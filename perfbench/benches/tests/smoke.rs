//! Small-n smoke runs of every workload, the metric names against
//! `BENCHMARK.json`, and the validator against doctored outcomes.

use std::path::PathBuf;

use rrb_bench::scenario::{parse_json, Json};
use rrb_perfbench::check::validate;
use rrb_perfbench::run::{run, Args};
use rrb_perfbench::trace::Tracer;
use rrb_perfbench::workloads::{self, Name, Scale, Workload};

fn args(workload: Name, trace: bool) -> Args {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("spans-{}.json", workload.as_str()));
    Args {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        spans_path: spans,
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(entries)) = json.get(section) else {
        panic!("no {section} list")
    };
    entries
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// Runs `a` and checks its result line against the declared metrics.
fn run_and_check(a: &Args, section: &str) {
    let out = run(a);
    let name = a.workload.as_str();
    assert!(out.correct, "{name}: {:?}", out.problems);
    assert!(out.attempted >= 2 && out.failed == 0, "{name}");
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        got,
        declared(section),
        "{name} reports the {section} metrics in order"
    );
    assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{name}");
    let line = parse_json(&out.result_json()).expect("the result line is JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert!(line
        .get("metrics")
        .and_then(|m| m.get(got[0]))
        .and_then(|m| m.get("unit"))
        .is_some());
}

#[test]
fn every_workload_runs_untraced() {
    for w in Name::ALL {
        let a = args(w, false);
        run_and_check(&a, "end_to_end");
        let out = run(&a);
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} must be positive",
                w.as_str(),
                m.name
            );
        }
    }
}

#[test]
fn every_workload_runs_traced_and_writes_spans() {
    for w in Name::ALL {
        let a = args(w, true);
        run_and_check(&a, "per_layer");
        let spans = std::fs::read_to_string(&a.spans_path).expect("span file written");
        let json = parse_json(&spans).expect("span file is JSON");
        assert!(
            json.get("layers")
                .and_then(|l| l.get("broadcast"))
                .is_some(),
            "{}",
            w.as_str()
        );
    }
}

#[test]
fn same_seed_same_inputs() {
    let w = Workload::new(Name::PaperQuiescent, Scale::Smoke);
    let digest = |seed| {
        let mut t = Tracer::new(false);
        let s = workloads::setup(&w, seed, &mut t, 0).expect("set-up");
        let b = workloads::batch(&w, &s, seed, 0, 1, &mut t, 0);
        b.items[0].as_ref().expect("broadcast").outcome.digest
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn validator_rejects_doctored_reports() {
    for name in Name::ALL {
        let w = Workload::new(name, Scale::Smoke);
        let mut t = Tracer::new(false);
        let s = workloads::setup(&w, 1, &mut t, 0).expect("set-up");
        let b = workloads::batch(&w, &s, 1, 0, 1, &mut t, 0);
        let real = b.items[0].as_ref().expect("broadcast").outcome.clone();
        assert_eq!(validate(&real), Ok(()), "{}", name.as_str());

        let mut more_informed = real.clone();
        more_informed.informed[0] = real.alive + 1;
        assert!(
            validate(&more_informed).is_err(),
            "{}: informed > alive",
            name.as_str()
        );

        let mut over_cap = real.clone();
        over_cap.rounds = real.cap + 1;
        assert!(
            validate(&over_cap).is_err(),
            "{}: rounds > cap",
            name.as_str()
        );

        if real.must_cover {
            let mut short = real.clone();
            short.informed[0] = real.alive - 1;
            assert!(
                validate(&short).is_err(),
                "{}: partial coverage",
                name.as_str()
            );
        }
    }
}
