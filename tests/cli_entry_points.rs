//! The `rrb` binary's two ways to run one scenario — the ad-hoc flags and
//! `rrb run --spec` — are one path: the flags compile to a `ScenarioSpec`
//! and run through the same harness and printer, so the same scenario
//! prints the same report.

use std::process::Command;

fn rrb(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rrb")).args(args).output().expect("run rrb");
    assert!(
        out.status.success(),
        "rrb {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // Wall-clock time is the one line that differs between two runs.
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .filter(|line| !line.trim_start().starts_with("wall clock"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn flag_mode_and_spec_file_print_the_same_report() {
    let spec = r#"{"label": "ad-hoc",
        "graph": {"kind": "random_regular", "n": 256, "d": 4},
        "protocol": {"kind": "budgeted", "mode": "push_pull", "n": 256, "budget": 3.0,
                     "policy": {"kind": "distinct", "k": 1}},
        "failures": {"channel": 0.1},
        "stop": {"mode": "quiescent"},
        "measure": {"kind": "trace"}}"#;
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_entry_points.json");
    std::fs::write(&path, spec).expect("write spec");
    let from_flags = rrb(&[
        "--topology", "regular", "--n", "256", "--d", "4", "--protocol", "push-pull",
        "--channel-failures", "0.1", "--seeds", "3", "--trace",
    ]);
    let from_spec = rrb(&["run", "--spec", path.to_str().expect("utf-8 path"), "--seeds", "3"]);
    assert!(from_flags.contains("per-round trace of seed 0"), "{from_flags}");
    assert!(from_flags.contains("3 seed(s)"), "{from_flags}");
    assert_eq!(from_flags, from_spec);
}
