//! Structured run artifacts (schema `rrb-run-artifact-v1`): one JSONL
//! record per ladder rung, written by `rrb run <exp> --out DIR`.
//!
//! Each record captures what a perf-regression gate needs to re-check a
//! rung later: the identity of what ran (experiment, `config_ix`, label,
//! an FNV-1a hash of the spec JSON), the replication statistics (seeds,
//! mean rounds, mean transmissions, success rate — deterministic given
//! the spec, so exact across machines), and the run-cost observables
//! (configuration wall-clock, per-phase attribution of seed 0 of the
//! measured run, peak RSS) that only compare within tolerance bands.
//!
//! A record is declared once in the same `codec!` table the scenario
//! specs use (see `crate::codec`): floats print in Rust's shortest
//! round-trip form, so **write → read → write is byte-identical**
//! (asserted by tests — `rrb compare` relies on records surviving
//! storage unchanged). See [`crate::compare`] for the diffing side.

use std::io;
use std::path::Path;

use crate::codec::{codec, field, keys_only, member, object, Codec, INLINE};
use crate::registry::{self, Experiment, LadderEntry, RungRun};
use crate::scenario::{parse_json, Json};
use crate::{mean_of, mean_rounds_to_coverage, success_rate, ExpConfig};
use rrb_engine::StepPhase;

/// Schema tag every record carries.
pub const SCHEMA: &str = "rrb-run-artifact-v1";

/// One ladder rung's structured run record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// Registry name of the experiment (`"e1"` …).
    pub experiment: String,
    /// The rung's RNG stream coordinate.
    pub config_ix: u64,
    /// The rung's scenario label.
    pub label: String,
    /// FNV-1a 64-bit hash (hex) of the scenario's spec JSON — drift here
    /// means the two runs measured different scenarios.
    pub spec_hash: String,
    /// Node count.
    pub n: usize,
    /// Seeds replicated.
    pub seeds: u64,
    /// Wall-clock of the whole replicated configuration, milliseconds.
    pub wall_ms: f64,
    /// Mean rounds to coverage across the replications.
    pub mean_rounds: f64,
    /// Mean total transmissions across the replications.
    pub mean_transmissions: f64,
    /// Fraction of replications reaching full coverage.
    pub success_rate: f64,
    /// Node-slot shard count the runs executed under (run provenance;
    /// `1` is the default when an older record omits the field —
    /// statistics are identical at any value).
    pub shards: u64,
    /// Per-phase wall-clock (milliseconds, ordered as
    /// [`StepPhase::ALL`]) of seed 0 of the measured run; `None` only in
    /// records written before churn rungs were probed.
    pub phase_ms: Option<[f64; StepPhase::COUNT]>,
    /// Per-shard per-phase wall-clock of seed 0 of the measured run (one
    /// row per shard, same phase order) — only runs with `shards > 1`
    /// record it, so 1-shard records keep their shape.
    /// Shard rows attribute overlapping *work*, not elapsed time.
    pub shard_phase_ms: Option<Vec<[f64; StepPhase::COUNT]>>,
    /// Peak RSS (`VmHWM`, kibibytes) read after the measured rung's seeds
    /// finished.
    pub peak_rss_kib: Option<u64>,
}

/// FNV-1a 64-bit hash of the spec's JSON serialisation, as 16 hex digits.
pub fn spec_hash(spec: &crate::scenario::ScenarioSpec) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in spec.to_json().as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

codec! { struct RunArtifact, schema SCHEMA true {
    experiment: String = "experiment";
    config_ix: u64 = "config_ix";
    label: String = "label";
    spec_hash: String = "spec_hash";
    n: usize = "n";
    seeds: u64 = "seeds";
    wall_ms: f64 = "wall_ms";
    mean_rounds: f64 = "mean_rounds";
    mean_transmissions: f64 = "mean_transmissions";
    success_rate: f64 = "success_rate";
    shards: u64 = "shards", omit 1;
    phase_ms: Option<[f64; StepPhase::COUNT]> = "phase_ms", omit None;
    shard_phase_ms: Option<Vec<[f64; StepPhase::COUNT]>> = "shard_phase_ms", omit None;
    peak_rss_kib: Option<u64> = "peak_rss_kib", omit None;
}}

/// A per-phase row: one member per phase, keyed by [`StepPhase::label`],
/// in [`StepPhase::ALL`] order.
impl Codec for [f64; StepPhase::COUNT] {
    fn encode(&self) -> String {
        object(INLINE, StepPhase::ALL.map(|p| member(p.label(), &self[p.index()], None)))
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let labels = StepPhase::ALL.map(StepPhase::label);
        keys_only(v, &labels)?;
        let mut row = [0.0; StepPhase::COUNT];
        for (slot, label) in row.iter_mut().zip(labels) {
            *slot = field(v, label, None, None)?;
        }
        Ok(row)
    }

    #[cfg(test)]
    fn arbitrary(rng: &mut rand::rngs::SmallRng) -> Self {
        std::array::from_fn(|_| f64::arbitrary(rng))
    }
}

impl RunArtifact {
    /// Serialises the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.encode()
    }

    /// Deserialises one record from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<RunArtifact, String> {
        Self::decode(v)
    }
}

/// The record of one measured rung: `entry` of `experiment`, run under
/// `cfg` by [`run_entry`](registry::run_entry) — replication statistics,
/// wall-clock, seed 0's per-phase timings and the rung's peak RSS, all
/// from that one run.
pub fn record(
    experiment: &str,
    entry: &LadderEntry,
    cfg: &ExpConfig,
    run: &RungRun,
) -> RunArtifact {
    let reports = run.reports();
    let shard_rows = run.seed0.shard_phase_ms();
    RunArtifact {
        experiment: experiment.to_string(),
        config_ix: entry.config_ix,
        label: entry.spec.label.clone(),
        spec_hash: spec_hash(&entry.spec),
        n: entry.spec.graph.node_count(),
        seeds: cfg.seeds,
        wall_ms: run.wall_ms,
        mean_rounds: mean_rounds_to_coverage(&reports),
        mean_transmissions: mean_of(&reports, |r| r.total_tx() as f64),
        success_rate: success_rate(&reports),
        shards: cfg.shards as u64,
        phase_ms: Some(run.seed0.phase_ms()),
        shard_phase_ms: (cfg.shards > 1 && !shard_rows.is_empty()).then_some(shard_rows),
        peak_rss_kib: run.peak_rss_kib,
    }
}

/// Runs `exp`'s full ladder through the shared
/// [`run_entry`](registry::run_entry) harness and collects one
/// [`record`] per rung.
pub fn collect(exp: &Experiment, cfg: &ExpConfig) -> Vec<RunArtifact> {
    (exp.scenarios)(cfg.quick)
        .iter()
        .map(|entry| {
            let run = registry::run_entry(exp.id, entry, cfg).expect("registry ladder");
            record(exp.name, entry, cfg, &run)
        })
        .collect()
}

/// Writes `records` as JSONL (one record per line, trailing newline).
pub fn write_jsonl(path: &Path, records: &[RunArtifact]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Reads a JSONL artifact file back (blank lines skipped).
pub fn read_jsonl(path: &Path) -> Result<Vec<RunArtifact>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        records.push(
            RunArtifact::from_json(&v)
                .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::arbitrary;
    use crate::registry;
    use proptest::prelude::*;

    pub(crate) fn sample_records() -> Vec<RunArtifact> {
        vec![
            RunArtifact {
                experiment: "e1".into(),
                config_ix: 10,
                label: "d8_n1024".into(),
                spec_hash: "00ff00ff00ff00ff".into(),
                n: 1024,
                seeds: 3,
                wall_ms: 12.25,
                mean_rounds: 14.333333333333334,
                mean_transmissions: 4806.0,
                success_rate: 1.0,
                shards: 4,
                phase_ms: Some([0.0, 1.5, 0.25, 3.125, 0.5, 0.0625]),
                shard_phase_ms: Some(vec![
                    [0.0, 0.5, 0.125, 1.5, 0.25, 0.0],
                    [0.0, 0.75, 0.125, 1.25, 0.25, 0.0625],
                ]),
                peak_rss_kib: Some(9216),
            },
            RunArtifact {
                experiment: "e10".into(),
                config_ix: 2,
                label: "churn_2.0".into(),
                spec_hash: "123456789abcdef0".into(),
                n: 4096,
                seeds: 10,
                wall_ms: 98.5,
                mean_rounds: 21.0,
                mean_transmissions: 60000.5,
                success_rate: 0.9,
                shards: 1,
                phase_ms: None,
                shard_phase_ms: None,
                peak_rss_kib: None,
            },
        ]
    }

    #[test]
    fn record_round_trips_through_json() {
        for r in sample_records() {
            let line = r.to_json_line();
            let back = RunArtifact::from_json(&parse_json(&line).unwrap()).unwrap();
            assert_eq!(r, back);
            // Shortest-round-trip float printing: a re-serialisation is
            // byte-identical, so stored artifacts survive rewriting.
            assert_eq!(line, back.to_json_line());
        }
        // Labels go through the workspace's one JSON string escaper.
        assert_eq!(crate::json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn jsonl_file_round_trips_byte_identically() {
        let dir = std::env::temp_dir().join(format!("rrb_artifact_{}", std::process::id()));
        let path = dir.join("sample.jsonl");
        let records = sample_records();
        write_jsonl(&path, &records).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(records, back);
        write_jsonl(&path, &back).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "rewrite must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #[test]
        fn generated_records_round_trip_byte_identically(r in arbitrary::<RunArtifact>()) {
            let line = r.to_json_line();
            let back = RunArtifact::from_json(&parse_json(&line).unwrap()).unwrap();
            prop_assert_eq!(back.to_json_line(), line);
            prop_assert_eq!(back, r);
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let line = sample_records()[0].to_json_line().replace(SCHEMA, "rrb-run-artifact-v0");
        let err = RunArtifact::from_json(&parse_json(&line).unwrap()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn collect_covers_every_rung_with_stats_and_phase_timings() {
        let exp = registry::find("e5").unwrap();
        let cfg = ExpConfig { quick: true, seeds: 2, threads: None, shards: 1 };
        let records = collect(exp, &cfg);
        assert_eq!(records.len(), (exp.scenarios)(true).len());
        for r in &records {
            assert_eq!(r.experiment, "e5");
            assert_eq!(r.seeds, 2);
            assert_eq!(r.spec_hash.len(), 16);
            assert!(r.mean_transmissions > 0.0, "{}: no transmissions", r.label);
            let phase_ms = r.phase_ms.expect("static rung instruments");
            assert!(phase_ms.iter().sum::<f64>() > 0.0, "{}: no phase time", r.label);
        }
        // Deterministic statistics: a second collection matches exactly
        // on everything but the run-cost observables.
        let again = collect(exp, &cfg);
        for (a, b) in records.iter().zip(&again) {
            assert_eq!(a.spec_hash, b.spec_hash);
            assert_eq!(a.mean_rounds, b.mean_rounds);
            assert_eq!(a.mean_transmissions, b.mean_transmissions);
            assert_eq!(a.success_rate, b.success_rate);
        }
    }
}
