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

#[test]
fn spec_runs_write_run_records_that_compare_clean() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_spec_records");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let spec = dir.join("ladder.json");
    std::fs::write(
        &spec,
        r#"[{"label": "push", "graph": {"kind": "random_regular", "n": 128, "d": 4},
             "protocol": {"kind": "flood_push"}},
            {"label": "push_pull", "graph": {"kind": "random_regular", "n": 128, "d": 4},
             "protocol": {"kind": "flood_push_pull"}}]"#,
    )
    .expect("write spec");
    let spec = spec.to_str().expect("utf-8 path");
    for out in ["A", "B"] {
        let out = dir.join(out);
        let report = rrb(&["run", "--spec", spec, "--seeds", "3", "--out", out.to_str().unwrap()]);
        // The run still prints its report, then names the record file.
        assert!(report.contains("push_pull — "), "{report}");
        assert!(report.contains("2 run-artifact record(s) written to"), "{report}");
    }
    let (a, b) = (dir.join("A"), dir.join("B"));
    let verdict = rrb(&["compare", a.to_str().unwrap(), b.to_str().unwrap(), "--wall-tol", "1e9"]);
    assert!(verdict.contains("2 record(s) compared, no drift"), "{verdict}");
    let records = std::fs::read_to_string(a.join("ladder.jsonl")).expect("record file");
    assert_eq!(records.lines().count(), 2);
    for line in records.lines() {
        assert!(line.contains(r#""experiment": "ladder""#), "{line}");
        assert!(line.contains(r#""phase_ms""#), "{line}");
    }
}

#[test]
fn trace_table_marks_the_rounds_counted_instead_of_sampled() {
    // Four-choice, the default protocol, runs to quiescence. A round whose
    // fabric was counted instead of sampled jumps all its words: silent
    // ones send nothing and book nothing, saturated ones book every
    // channel and send one copy per channel. A frontier round books some
    // channels and samples the others.
    let out = rrb(&["--topology", "regular", "--n", "1024", "--d", "8", "--trace"]);
    let rows: Vec<Vec<u64>> = out
        .lines()
        .filter(|line| line.starts_with('|') && !line.contains("round"))
        .map(|line| line.split('|').filter_map(|cell| cell.trim().parse().ok()).collect())
        .collect();
    assert!(!rows.is_empty() && rows.iter().all(|row| row.len() == 9), "{out}");
    let counted = |row: &&Vec<u64>| row[6] > 0 && row[7] == row[6];
    let tx = |row: &&Vec<u64>| row[3] + row[4];
    let silent = |row: &&Vec<u64>| tx(row) == 0 && row[8] == 0;
    assert!(rows.iter().filter(counted).any(|row| silent(&row)), "no silent round: {out}");
    let saturated = |row: &&Vec<u64>| tx(row) == row[5] && row[8] == row[5];
    assert!(rows.iter().filter(counted).any(|row| saturated(&row)), "no saturated round: {out}");
    let frontier = |row: &&Vec<u64>| row[8] > 0 && row[8] < row[5] && row[7] < row[6];
    assert!(rows.iter().any(|row| frontier(&row)), "no frontier round: {out}");
}
