//! `rrb compare` — diffs two run-artifact directories (see
//! [`crate::artifact`]) and classifies the differences.
//!
//! The comparison is asymmetric: the first directory is the **baseline**,
//! the second the **candidate**. Records pair up by
//! `(experiment, config_ix)` within same-named `*.jsonl` files. Two
//! tolerance bands separate the deterministic from the machine-dependent:
//!
//! * **statistics** (`mean_rounds`, `mean_transmissions`,
//!   `success_rate`) are exact functions of the spec and seeds, so their
//!   band defaults to zero — any drift means the measured behaviour
//!   changed;
//! * **wall-clock** is machine- and load-dependent, so its band is a
//!   generous relative factor, and only *regressions* (candidate slower
//!   than `baseline × (1 + tol)`) count as drift — speedups never fail a
//!   gate. Per-phase timings are reported as context, never gated; peak
//!   RSS is gated only against an explicit absolute budget
//!   (`--rss-budget-kib`), since it is candidate-machine-dependent.
//!
//! A missing candidate file or record, a seed-count change, or a
//! `spec_hash` change (the rung now measures a different scenario) is
//! always drift. The CI perf gate runs this against a committed baseline
//! and fails the build when [`CompareReport::clean`] is false.

use std::path::Path;

use crate::artifact::{read_jsonl, RunArtifact};

/// Tolerance bands for [`compare_dirs`] / [`compare_records`].
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative wall-clock regression band: candidate wall-clock above
    /// `baseline * (1 + wall_tol)` is drift. Use `f64::INFINITY` to
    /// ignore wall-clock entirely.
    pub wall_tol: f64,
    /// Relative band on the replication statistics (0 = exact up to
    /// float formatting; `f64::INFINITY` ignores them).
    pub stat_tol: f64,
    /// Absolute peak-RSS ceiling (KiB) on the **candidate**: any record
    /// whose probed `peak_rss_kib` exceeds it is drift. `None` (the
    /// default) leaves memory ungated; the baseline's RSS is never
    /// consulted, so re-recording a baseline cannot loosen the budget.
    pub rss_budget_kib: Option<u64>,
}

impl Tolerance {
    /// Rejects a band no gate can mean: both relative bands must be
    /// non-negative numbers (`inf` allowed). A NaN band would silently
    /// switch its gate off, a negative one would flag every record.
    pub fn check(&self) -> Result<(), String> {
        for (flag, band) in [("--wall-tol", self.wall_tol), ("--stat-tol", self.stat_tol)] {
            if band.is_nan() || band < 0.0 {
                return Err(format!("{flag} must be a non-negative number or inf, got {band}"));
            }
        }
        Ok(())
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        // Statistics are deterministic; wall-clock gets 50% slack for
        // same-machine noise (CI gates across machines pass more).
        Tolerance { wall_tol: 0.5, stat_tol: 0.0, rss_budget_kib: None }
    }
}

/// One detected difference outside its tolerance band.
#[derive(Debug, Clone)]
pub struct Drift {
    /// `file experiment/config_ix (label)` locator.
    pub key: String,
    /// What drifted, with baseline and candidate values.
    pub what: String,
}

/// Outcome of a comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Record pairs compared.
    pub compared: usize,
    /// Differences outside the tolerance bands — non-empty fails a gate.
    pub drifts: Vec<Drift>,
    /// Informational notes (candidate-only files/records, wall-clock
    /// improvements), never gating.
    pub notes: Vec<String>,
}

impl CompareReport {
    /// True when no drift was detected (the gate passes).
    pub fn clean(&self) -> bool {
        self.drifts.is_empty()
    }
}

fn stat_drifted(base: f64, cand: f64, tol: f64) -> bool {
    (cand - base).abs() > tol * base.abs() + 1e-9
}

/// Compares two record sets from same-named files, appending to `report`.
pub fn compare_records(
    file: &str,
    baseline: &[RunArtifact],
    candidate: &[RunArtifact],
    tol: Tolerance,
    report: &mut CompareReport,
) {
    for b in baseline {
        let key = format!("{file}: {}/{} ({})", b.experiment, b.config_ix, b.label);
        let Some(c) = candidate
            .iter()
            .find(|c| c.experiment == b.experiment && c.config_ix == b.config_ix)
        else {
            report
                .drifts
                .push(Drift { key, what: "record missing from candidate".into() });
            continue;
        };
        report.compared += 1;
        let mut drift = |what: String| report.drifts.push(Drift { key: key.clone(), what });
        if c.spec_hash != b.spec_hash {
            drift(format!("spec_hash changed: {} -> {}", b.spec_hash, c.spec_hash));
        }
        if c.seeds != b.seeds {
            drift(format!("seed count changed: {} -> {}", b.seeds, c.seeds));
        }
        for (name, bv, cv) in [
            ("mean_rounds", b.mean_rounds, c.mean_rounds),
            ("mean_transmissions", b.mean_transmissions, c.mean_transmissions),
            ("success_rate", b.success_rate, c.success_rate),
        ] {
            if stat_drifted(bv, cv, tol.stat_tol) {
                drift(format!("{name} drifted: {bv} -> {cv}"));
            }
        }
        if tol.wall_tol.is_finite() && c.wall_ms > b.wall_ms * (1.0 + tol.wall_tol) {
            drift(format!(
                "wall-clock regression: {:.3} ms -> {:.3} ms (tolerance {:.0}%)",
                b.wall_ms,
                c.wall_ms,
                tol.wall_tol * 100.0
            ));
        } else if c.wall_ms < b.wall_ms / (1.0 + tol.wall_tol) {
            report.notes.push(format!(
                "{key}: wall-clock improved {:.3} ms -> {:.3} ms",
                b.wall_ms, c.wall_ms
            ));
        }
        if let (Some(budget), Some(rss)) = (tol.rss_budget_kib, c.peak_rss_kib) {
            if rss > budget {
                drift(format!("peak RSS {rss} KiB exceeds the {budget} KiB budget"));
            }
        }
    }
    for c in candidate {
        if !baseline
            .iter()
            .any(|b| b.experiment == c.experiment && b.config_ix == c.config_ix)
        {
            report.notes.push(format!(
                "{file}: {}/{} ({}) only in candidate",
                c.experiment, c.config_ix, c.label
            ));
        }
    }
}

/// Sorted `*.jsonl` file names directly inside `dir`.
fn jsonl_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".jsonl") {
            names.push(name);
        }
    }
    names.sort_unstable();
    Ok(names)
}

/// Compares every baseline `*.jsonl` file against its same-named
/// candidate file. Fails on a band [`Tolerance::check`] rejects.
pub fn compare_dirs(
    baseline: &Path,
    candidate: &Path,
    tol: Tolerance,
) -> Result<CompareReport, String> {
    tol.check()?;
    let base_files = jsonl_files(baseline)?;
    if base_files.is_empty() {
        return Err(format!("no .jsonl artifacts in baseline {}", baseline.display()));
    }
    let cand_files = jsonl_files(candidate)?;
    let mut report = CompareReport::default();
    for name in &base_files {
        let cand_path = candidate.join(name);
        if !cand_path.is_file() {
            report.drifts.push(Drift {
                key: name.clone(),
                what: "artifact file missing from candidate".into(),
            });
            continue;
        }
        let base_records = read_jsonl(&baseline.join(name))?;
        let cand_records = read_jsonl(&cand_path)?;
        compare_records(name, &base_records, &cand_records, tol, &mut report);
    }
    for name in cand_files {
        if !base_files.contains(&name) {
            report.notes.push(format!("{name}: only in candidate"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::write_jsonl;
    use rrb_engine::StepPhase;

    fn record(config_ix: u64, wall_ms: f64) -> RunArtifact {
        RunArtifact {
            experiment: "e1".into(),
            config_ix,
            label: format!("rung_{config_ix}"),
            spec_hash: "00ff00ff00ff00ff".into(),
            n: 1024,
            seeds: 3,
            wall_ms,
            mean_rounds: 14.5,
            mean_transmissions: 4806.0,
            success_rate: 1.0,
            shards: 1,
            phase_ms: Some([0.5; StepPhase::COUNT]),
            shard_phase_ms: None,
            peak_rss_kib: Some(9216),
        }
    }

    #[test]
    fn identical_records_are_clean() {
        let base = vec![record(1, 10.0), record(2, 20.0)];
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &base, Tolerance::default(), &mut report);
        assert!(report.clean(), "{:?}", report.drifts);
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn statistics_drift_is_flagged_exactly() {
        let base = vec![record(1, 10.0)];
        let mut cand = base.clone();
        cand[0].mean_rounds += 0.5;
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &cand, Tolerance::default(), &mut report);
        assert_eq!(report.drifts.len(), 1);
        assert!(report.drifts[0].what.contains("mean_rounds"), "{:?}", report.drifts);
        // A relative band wide enough swallows the same delta.
        let mut report = CompareReport::default();
        let tol = Tolerance { stat_tol: 0.1, ..Tolerance::default() };
        compare_records("e1.jsonl", &base, &cand, tol, &mut report);
        assert!(report.clean());
    }

    #[test]
    fn wall_clock_gates_regressions_only() {
        let base = vec![record(1, 10.0)];
        let mut slow = base.clone();
        slow[0].wall_ms = 16.0; // +60% > the default 50% band
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &slow, Tolerance::default(), &mut report);
        assert_eq!(report.drifts.len(), 1);
        assert!(report.drifts[0].what.contains("wall-clock"), "{:?}", report.drifts);
        // Within the band: clean. Faster: clean (a note, not drift).
        for (wall, tol) in [(14.0, Tolerance::default()), (1.0, Tolerance::default())] {
            let mut cand = base.clone();
            cand[0].wall_ms = wall;
            let mut report = CompareReport::default();
            compare_records("e1.jsonl", &base, &cand, tol, &mut report);
            assert!(report.clean(), "wall {wall}: {:?}", report.drifts);
        }
        // Infinite band ignores even a huge regression.
        let mut report = CompareReport::default();
        let tol = Tolerance { wall_tol: f64::INFINITY, ..Tolerance::default() };
        compare_records("e1.jsonl", &base, &slow, tol, &mut report);
        assert!(report.clean());
    }

    #[test]
    fn rss_budget_gates_candidate_only() {
        let base = vec![record(1, 10.0)]; // baseline RSS 9216 KiB
        let mut cand = base.clone();
        cand[0].peak_rss_kib = Some(10_000);
        // No budget set: RSS is context only, never drift.
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &cand, Tolerance::default(), &mut report);
        assert!(report.clean(), "{:?}", report.drifts);
        // Budget above the candidate's peak: clean.
        let tol = Tolerance { rss_budget_kib: Some(16_384), ..Tolerance::default() };
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &cand, tol, &mut report);
        assert!(report.clean(), "{:?}", report.drifts);
        // Budget below it: drift — even though the *baseline* fits.
        let tol = Tolerance { rss_budget_kib: Some(9_500), ..Tolerance::default() };
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &cand, tol, &mut report);
        assert_eq!(report.drifts.len(), 1);
        assert!(report.drifts[0].what.contains("RSS"), "{:?}", report.drifts);
        // A record with no RSS probe passes any budget.
        cand[0].peak_rss_kib = None;
        let tol = Tolerance { rss_budget_kib: Some(1), ..Tolerance::default() };
        let mut report = CompareReport::default();
        compare_records("e1.jsonl", &base, &cand, tol, &mut report);
        assert!(report.clean(), "{:?}", report.drifts);
    }

    #[test]
    fn nan_or_negative_bands_are_rejected_not_ignored() {
        let root = std::env::temp_dir().join(format!("rrb_compare_tol_{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        let mut doctored = record(1, 10.0);
        doctored.mean_rounds = 999_999.0;
        write_jsonl(&a.join("e1.jsonl"), &[doctored]).unwrap();
        write_jsonl(&b.join("e1.jsonl"), &[record(1, 10.0)]).unwrap();
        for (flag, tol) in [
            ("--stat-tol", Tolerance { stat_tol: f64::NAN, ..Tolerance::default() }),
            ("--stat-tol", Tolerance { stat_tol: -0.5, ..Tolerance::default() }),
            ("--wall-tol", Tolerance { wall_tol: f64::NAN, ..Tolerance::default() }),
            ("--wall-tol", Tolerance { wall_tol: -1.0, ..Tolerance::default() }),
        ] {
            let err = compare_dirs(&a, &b, tol).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        // `inf` stays the documented way to ignore a band.
        let tol =
            Tolerance { wall_tol: f64::INFINITY, stat_tol: f64::INFINITY, rss_budget_kib: None };
        assert!(compare_dirs(&a, &b, tol).unwrap().clean());
        // The doctored statistic still trips the default band.
        assert!(!compare_dirs(&a, &b, Tolerance::default()).unwrap().clean());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn identity_changes_are_always_drift() {
        let base = vec![record(1, 10.0), record(2, 10.0)];
        let mut cand = vec![base[0].clone()];
        cand[0].spec_hash = "deadbeefdeadbeef".into();
        let mut report = CompareReport::default();
        let tol =
            Tolerance { wall_tol: f64::INFINITY, stat_tol: 1e9, rss_budget_kib: None };
        compare_records("e1.jsonl", &base, &cand, tol, &mut report);
        let whats: Vec<&str> = report.drifts.iter().map(|d| d.what.as_str()).collect();
        assert_eq!(report.drifts.len(), 2, "{whats:?}");
        assert!(whats.iter().any(|w| w.contains("spec_hash")), "{whats:?}");
        assert!(whats.iter().any(|w| w.contains("missing")), "{whats:?}");
    }

    #[test]
    fn directory_comparison_detects_doctored_baseline() {
        let root = std::env::temp_dir().join(format!("rrb_compare_{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        let records = vec![record(1, 10.0), record(2, 12.0)];
        write_jsonl(&a.join("e1.jsonl"), &records).unwrap();
        write_jsonl(&b.join("e1.jsonl"), &records).unwrap();
        let clean = compare_dirs(&a, &b, Tolerance::default()).unwrap();
        assert!(clean.clean(), "{:?}", clean.drifts);
        assert_eq!(clean.compared, 2);

        // Doctor the candidate's statistics: the gate must trip.
        let mut doctored = records.clone();
        doctored[1].mean_transmissions *= 2.0;
        write_jsonl(&b.join("e1.jsonl"), &doctored).unwrap();
        let dirty = compare_dirs(&a, &b, Tolerance::default()).unwrap();
        assert!(!dirty.clean());

        // A baseline file with no candidate twin is drift too.
        write_jsonl(&a.join("e2.jsonl"), &records).unwrap();
        let missing = compare_dirs(&a, &b, Tolerance::default()).unwrap();
        assert!(missing.drifts.iter().any(|d| d.what.contains("file missing")));
        std::fs::remove_dir_all(&root).ok();
    }
}
