//! Fixture-driven rule tests: each known-bad tree under
//! `tests/fixtures/` must produce exactly the expected
//! (rule, line) diagnostics, and the known-clean tree none. Fixture
//! trees are plain directories (never compiled, never scanned by the
//! workspace lint — the walker skips `fixtures/` dirs).

use std::path::PathBuf;

use rrb_lint::{lint_root, AllowEntry, Diag};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> Vec<Diag> {
    lint_root(&fixture_root(name), &[]).expect("fixture lints")
}

/// Asserts the fixture produces exactly `expected` as (rule, path, line)
/// triples, in the engine's sorted order.
fn assert_diags(name: &str, expected: &[(&str, &str, u32)]) {
    let got: Vec<(String, String, u32)> = lint_fixture(name)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.path, d.line))
        .collect();
    let want: Vec<(String, String, u32)> = expected
        .iter()
        .map(|(r, p, l)| (r.to_string(), p.to_string(), *l))
        .collect();
    assert_eq!(got, want, "fixture {name}");
}

#[test]
fn rng_literal_fixture() {
    assert_diags(
        "rng_literal",
        &[
            // Duplicate stream value (CLONE_STREAM repeats TOPOLOGY_STREAM)…
            ("rng-stream-discipline", "src/lib.rs", 7),
            // …and the bare-literal stream argument.
            ("rng-stream-discipline", "src/lib.rs", 10),
        ],
    );
}

#[test]
fn stream_dup_fixture() {
    // Cross-file collision: each file is locally clean, but the engine's
    // shard stream reuses the bench topology stream's value, so the
    // pairwise-distinctness pass fires on the later-collected constant
    // (files are scanned in sorted path order) and cites the earlier one.
    assert_diags(
        "stream_dup",
        &[("rng-stream-discipline", "crates/engine/src/shard.rs", 5)],
    );
    let diag = &lint_fixture("stream_dup")[0];
    assert!(
        diag.msg.contains("SHARD_STREAM")
            && diag.msg.contains("TOPOLOGY_STREAM")
            && diag.msg.contains("crates/bench/src/lib.rs"),
        "collision message must cite both constants: {}",
        diag.msg
    );
}

#[test]
fn wall_clock_fixture() {
    assert_diags(
        "wall_clock",
        &[
            ("no-wall-clock", "src/lib.rs", 5),
            ("no-wall-clock", "src/lib.rs", 8),
            ("no-wall-clock", "src/lib.rs", 12),
            ("no-wall-clock", "src/lib.rs", 13),
        ],
    );
}

#[test]
fn ambient_rand_fixture() {
    assert_diags(
        "ambient_rand",
        &[
            ("no-ambient-randomness", "crates/engine/src/state.rs", 4),
            ("no-ambient-randomness", "crates/engine/src/state.rs", 7),
            ("no-ambient-randomness", "crates/engine/src/state.rs", 11),
            ("no-ambient-randomness", "crates/engine/src/state.rs", 12),
        ],
    );
}

#[test]
fn probe_rng_fixture() {
    assert_diags(
        "probe_rng",
        &[
            // RoundProbe impl block in a non-telemetry file…
            ("probe-rng-separation", "src/probe.rs", 10),
            // …and the telemetry.rs whole-file ban. The Display impl in
            // probe.rs that mentions SmallRng is *not* flagged.
            ("probe-rng-separation", "src/telemetry.rs", 4),
            ("probe-rng-separation", "src/telemetry.rs", 7),
        ],
    );
}

#[test]
fn hygiene_fixture() {
    assert_diags("hygiene", &[("crate-hygiene", "src/lib.rs", 1)]);
}

#[test]
fn hot_alloc_fixture() {
    assert_diags(
        "hot_alloc",
        &[
            ("hot-path-alloc", "src/lib.rs", 7),
            ("hot-path-alloc", "src/lib.rs", 8),
            ("hot-path-alloc", "src/lib.rs", 9),
        ],
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_diags("clean", &[]);
}

#[test]
fn allowlist_suppresses_matching_diags() {
    let allow = vec![AllowEntry {
        rule: "no-wall-clock".to_string(),
        path: "src/lib.rs".to_string(),
        reason: "fixture".to_string(),
        line: 1,
    }];
    let diags = lint_root(&fixture_root("wall_clock"), &allow).unwrap();
    assert!(diags.is_empty(), "allowlisted fixture must lint clean, got {diags:?}");
}

#[test]
fn unused_allowlist_entry_is_reported_stale() {
    let allow = vec![AllowEntry {
        rule: "no-ambient-randomness".to_string(),
        path: "src/nonexistent.rs".to_string(),
        reason: "fixture".to_string(),
        line: 3,
    }];
    let diags = lint_root(&fixture_root("clean"), &allow).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rrb_lint::STALE_ALLOW);
    assert_eq!(diags[0].path, "lint-allow.toml");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn every_rule_has_fixture_coverage() {
    // The acceptance bar: all six rules demonstrably fire. Collect every
    // rule id seen across the bad fixtures and compare with the registry.
    let mut seen: Vec<&str> = [
        "rng_literal",
        "stream_dup",
        "wall_clock",
        "ambient_rand",
        "probe_rng",
        "hygiene",
        "hot_alloc",
    ]
        .iter()
        .flat_map(|f| lint_fixture(f))
        .map(|d| d.rule)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let mut want = rrb_lint::RULE_IDS.to_vec();
    want.sort_unstable();
    assert_eq!(seen, want);
}

#[test]
fn unreached_fixture() {
    // Named in no other file outside comments, strings and test modules:
    // `only_here`, `const_only_here` and the user's own `caller`. A
    // restricted item, a field and a re-export are not reported.
    let got: Vec<(String, u32, String)> = rrb_lint::unreached(&fixture_root("unreached"))
        .expect("fixture reads")
        .into_iter()
        .map(|d| (d.path, d.line, d.msg))
        .collect();
    let want = [
        ("src/lib.rs", 7, "pub fn `only_here` is named in no other file"),
        ("src/lib.rs", 15, "pub fn `const_only_here` is named in no other file"),
        ("src/user.rs", 6, "pub fn `caller` is named in no other file"),
    ]
    .map(|(p, l, m)| (p.to_string(), l, m.to_string()));
    assert_eq!(got, want);
}
