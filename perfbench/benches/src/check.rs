//! Per-broadcast correctness checks.
//!
//! The checks are invariants every legitimate engine change keeps, not
//! golden per-seed values, so a change of RNG draw order does not trip
//! them: informed never exceeds alive, rounds never exceed the cap, and
//! the fault-free static workloads always reach full coverage. Run-level
//! checks (traced reports equal untraced ones, repeated set-ups build the
//! same topology) compare [`digest`]s of whole reports.

use std::fmt::{self, Debug, Write as _};

/// One broadcast, reduced to what the checks and the end-to-end metrics
/// need.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Node slots of the topology at the end of the run.
    pub slots: usize,
    /// Rounds executed (async: unit-time windows entered).
    pub rounds: u32,
    /// The round cap the run was configured with.
    pub cap: u32,
    /// Alive, uncrashed nodes at the end of the run.
    pub alive: usize,
    /// Alive nodes informed at the end, one entry per rumour.
    pub informed: Vec<usize>,
    /// Whether this workload must reach every alive node.
    pub must_cover: bool,
    /// Rounds to full coverage (mean rumour latency for several rumours,
    /// continuous coverage time for the async engine); `None` if no
    /// rumour covered.
    pub cover_time: Option<f64>,
    /// Transmissions per node (per rumour when there are several).
    pub tx_per_node: f64,
    /// Wall time from the engine's `new` to its `into_report`.
    pub wall_ns: u64,
    /// Wall time of every `step` call (round engines only).
    pub step_ns: Vec<u64>,
    /// [`digest`] of the engine's full report.
    pub digest: u64,
}

impl Outcome {
    /// Mean fraction of the surviving nodes informed, over rumours.
    pub fn coverage(&self) -> f64 {
        if self.alive == 0 || self.informed.is_empty() {
            return 1.0;
        }
        let sum: usize = self.informed.iter().sum();
        sum as f64 / (self.informed.len() * self.alive) as f64
    }

    /// Node slots times rounds: the work unit of `node_rounds_per_s`.
    pub fn node_rounds(&self) -> f64 {
        self.slots as f64 * self.rounds as f64
    }
}

/// Checks one broadcast's invariants; `Err` names the first one broken.
pub fn validate(o: &Outcome) -> Result<(), String> {
    if o.informed.is_empty() {
        return Err("no rumour outcome reported".into());
    }
    if let Some(&bad) = o.informed.iter().find(|&&i| i > o.alive) {
        return Err(format!("informed {bad} exceeds alive {}", o.alive));
    }
    if o.rounds > o.cap {
        return Err(format!("rounds {} exceed the cap {}", o.rounds, o.cap));
    }
    if o.alive > o.slots {
        return Err(format!("alive {} exceeds node slots {}", o.alive, o.slots));
    }
    if !(o.tx_per_node.is_finite() && o.tx_per_node >= 0.0) {
        return Err(format!(
            "transmissions per node {} not a count",
            o.tx_per_node
        ));
    }
    if o.must_cover {
        if let Some(&short) = o.informed.iter().find(|&&i| i != o.alive) {
            return Err(format!(
                "coverage incomplete: {short} of {} informed",
                o.alive
            ));
        }
        if o.cover_time.is_none() {
            return Err("full coverage never recorded".into());
        }
    }
    Ok(())
}

/// FNV-1a over the `Debug` rendering of `value`, streamed so even a large
/// multi-rumour report is never materialised as one string. Equal digests
/// stand for byte-identical reports.
pub fn digest<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{value:?}");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            slots: 10,
            rounds: 5,
            cap: 100,
            alive: 9,
            informed: vec![9],
            must_cover: true,
            cover_time: Some(4.0),
            tx_per_node: 3.5,
            wall_ns: 1,
            step_ns: vec![1; 5],
            digest: 0,
        }
    }

    #[test]
    fn a_sound_outcome_passes() {
        assert_eq!(validate(&sample()), Ok(()));
        assert_eq!(sample().coverage(), 1.0);
    }

    #[test]
    fn each_broken_invariant_is_rejected() {
        let mut o = sample();
        o.informed = vec![10];
        assert!(validate(&o).unwrap_err().contains("exceeds alive"));
        let mut o = sample();
        o.rounds = 101;
        assert!(validate(&o).unwrap_err().contains("cap"));
        let mut o = sample();
        o.informed = vec![8];
        assert!(validate(&o).unwrap_err().contains("incomplete"));
        o.must_cover = false;
        assert_eq!(validate(&o), Ok(()));
        let mut o = sample();
        o.tx_per_node = f64::NAN;
        assert!(validate(&o).is_err());
    }

    #[test]
    fn digest_tells_reports_apart() {
        assert_eq!(digest(&(1, "a")), digest(&(1, "a")));
        assert_ne!(digest(&(1, "a")), digest(&(2, "a")));
    }
}
