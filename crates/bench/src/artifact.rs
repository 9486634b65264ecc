//! Structured run artifacts (schema `rrb-run-artifact-v1`): one JSONL
//! record per ladder rung, written by `rrb run <exp> --out DIR`.
//!
//! Each record captures what a perf-regression gate needs to re-check a
//! rung later: the identity of what ran (experiment, `config_ix`, label,
//! an FNV-1a hash of the spec JSON), the replication statistics (seeds,
//! mean rounds, mean transmissions, success rate — deterministic given
//! the spec, so exact across machines), and the run-cost observables
//! (configuration wall-clock, per-phase attribution from a probed seed-0
//! replay, peak RSS) that only compare within tolerance bands.
//!
//! The dialect is the same hand-rolled JSON the workspace already writes
//! ([`BenchRecorder`](crate::BenchRecorder)) and reads (the
//! [`scenario`](crate::scenario) parser): floats print in Rust's shortest
//! round-trip form, so **write → read → write is byte-identical**
//! (asserted by tests — `rrb compare` relies on records surviving
//! storage unchanged). See [`crate::compare`] for the diffing side.

use std::io;
use std::path::Path;

use crate::registry::{self, Experiment};
use crate::scenario::{parse_json, Json};
use crate::{json_string, mean_of, mean_rounds_to_coverage, success_rate, ExpConfig};
use rrb_engine::{RunReport, StepPhase};

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
    /// [`StepPhase::ALL`]) of the probed seed-0 replay; `None` only in
    /// records written before churn rungs were probed.
    pub phase_ms: Option<[f64; StepPhase::COUNT]>,
    /// Per-shard per-phase wall-clock of the probed replay (one row per
    /// shard, same phase order) — only replays with `shards > 1` record
    /// it, so 1-shard records keep their shape.
    /// Shard rows attribute overlapping *work*, not elapsed time.
    pub shard_phase_ms: Option<Vec<[f64; StepPhase::COUNT]>>,
    /// Peak RSS (`VmHWM`, kibibytes) sampled during the probed replay.
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

impl RunArtifact {
    /// Serialises the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"schema\": \"{SCHEMA}\", \"experiment\": {}, \"config_ix\": {}, \
             \"label\": {}, \"spec_hash\": {}, \"n\": {}, \"seeds\": {}, \
             \"wall_ms\": {}, \"mean_rounds\": {}, \"mean_transmissions\": {}, \
             \"success_rate\": {}",
            json_string(&self.experiment),
            self.config_ix,
            json_string(&self.label),
            json_string(&self.spec_hash),
            self.n,
            self.seeds,
            self.wall_ms,
            self.mean_rounds,
            self.mean_transmissions,
            self.success_rate,
        );
        if self.shards != 1 {
            out.push_str(&format!(", \"shards\": {}", self.shards));
        }
        if let Some(phase_ms) = &self.phase_ms {
            out.push_str(", \"phase_ms\": {");
            for (i, phase) in StepPhase::ALL.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", phase.label(), phase_ms[i]));
            }
            out.push('}');
        }
        if let Some(rows) = &self.shard_phase_ms {
            out.push_str(", \"shard_phase_ms\": [");
            for (s, row) in rows.iter().enumerate() {
                if s > 0 {
                    out.push_str(", ");
                }
                out.push('{');
                for (i, phase) in StepPhase::ALL.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {}", phase.label(), row[i]));
                }
                out.push('}');
            }
            out.push(']');
        }
        if let Some(kib) = self.peak_rss_kib {
            out.push_str(&format!(", \"peak_rss_kib\": {kib}"));
        }
        out.push('}');
        out
    }

    /// Deserialises one record from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<RunArtifact, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string \"{key}\""))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number \"{key}\""))
        };
        let schema = str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported artifact schema {schema:?} (want {SCHEMA:?})"));
        }
        let phase_row = |p: &Json, what: &str| -> Result<[f64; StepPhase::COUNT], String> {
            let mut ms = [0.0; StepPhase::COUNT];
            for (slot, phase) in ms.iter_mut().zip(StepPhase::ALL) {
                *slot = p.get(phase.label()).and_then(Json::as_f64).ok_or_else(|| {
                    format!("{what:?} missing phase {:?}", phase.label())
                })?;
            }
            Ok(ms)
        };
        let phase_ms = match v.get("phase_ms") {
            None => None,
            Some(p) => Some(phase_row(p, "phase_ms")?),
        };
        let shard_phase_ms = match v.get("shard_phase_ms") {
            None => None,
            Some(Json::Arr(rows)) => Some(
                rows.iter()
                    .map(|row| phase_row(row, "shard_phase_ms"))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(_) => return Err("\"shard_phase_ms\" must be an array".into()),
        };
        Ok(RunArtifact {
            experiment: str_field("experiment")?,
            config_ix: v
                .get("config_ix")
                .and_then(Json::as_u64)
                .ok_or("missing integer \"config_ix\"")?,
            label: str_field("label")?,
            spec_hash: str_field("spec_hash")?,
            n: num_field("n")? as usize,
            seeds: v.get("seeds").and_then(Json::as_u64).ok_or("missing integer \"seeds\"")?,
            wall_ms: num_field("wall_ms")?,
            mean_rounds: num_field("mean_rounds")?,
            mean_transmissions: num_field("mean_transmissions")?,
            success_rate: num_field("success_rate")?,
            shards: v.get("shards").and_then(Json::as_u64).unwrap_or(1),
            phase_ms,
            shard_phase_ms,
            peak_rss_kib: v.get("peak_rss_kib").and_then(Json::as_u64),
        })
    }
}

/// Runs `exp`'s full ladder through the shared
/// [`run_entry`](registry::run_entry) harness and collects one
/// [`RunArtifact`] per rung: replicated statistics plus the probed seed-0
/// run's per-phase timings and peak RSS (see
/// [`registry::instrument_entry`]).
pub fn collect(exp: &Experiment, cfg: &ExpConfig) -> Vec<RunArtifact> {
    (exp.scenarios)(cfg.quick)
        .iter()
        .map(|entry| {
            let (runs, wall_ms) = registry::run_entry(exp.id, entry, cfg).expect("registry ladder");
            let reports: Vec<RunReport> = runs.into_iter().map(|r| r.report).collect();
            let timings =
                registry::instrument_entry(exp.id, entry, cfg.shards).expect("registry ladder");
            let shard_rows = timings.shard_phase_ms();
            RunArtifact {
                experiment: exp.name.to_string(),
                config_ix: entry.config_ix,
                label: entry.spec.label.clone(),
                spec_hash: spec_hash(&entry.spec),
                n: entry.spec.graph.node_count(),
                seeds: cfg.seeds,
                wall_ms,
                mean_rounds: mean_rounds_to_coverage(&reports),
                mean_transmissions: mean_of(&reports, |r| r.total_tx() as f64),
                success_rate: success_rate(&reports),
                shards: cfg.shards as u64,
                phase_ms: Some(timings.phase_ms()),
                shard_phase_ms: (cfg.shards > 1 && !shard_rows.is_empty()).then_some(shard_rows),
                peak_rss_kib: timings.peak_rss_kib(),
            }
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
    use crate::registry;

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
