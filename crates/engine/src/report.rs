use crate::telemetry::RoundCounters;
use crate::Round;

/// Summary of one complete simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Node slots in the topology when the run ended.
    pub node_count: usize,
    /// Alive nodes when the run ended.
    pub alive_count: usize,
    /// Alive informed nodes when the run ended.
    pub informed_count: usize,
    /// Rounds executed.
    pub rounds: Round,
    /// First round after which every alive node was informed, if reached.
    pub full_coverage_at: Option<Round>,
    /// Transmissions performed up to (and including) `full_coverage_at`.
    pub tx_at_coverage: Option<u64>,
    /// Total push transmissions over the whole run.
    pub push_tx: u64,
    /// Total pull transmissions over the whole run.
    pub pull_tx: u64,
    /// Total channels opened over the whole run.
    pub channels: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Every round's counters, as the probe received them (empty unless
    /// history recording was enabled).
    pub history: Vec<RoundCounters>,
}

/// Why a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// Every alive node was informed and the config asked to stop there.
    #[default]
    FullCoverage,
    /// Every informed node reported quiescence — no further transmission can
    /// ever happen.
    Quiescent,
    /// The configured round cap (or the protocol's deadline) was reached.
    RoundCap,
}

impl RunReport {
    /// Total rumour transmissions over the whole run.
    pub fn total_tx(&self) -> u64 {
        self.push_tx + self.pull_tx
    }

    /// Transmissions per alive node — the quantity the paper bounds by
    /// `O(log log n)` for its algorithm and `Ω(log n / log d)` for the
    /// standard model.
    pub fn tx_per_node(&self) -> f64 {
        if self.alive_count == 0 {
            0.0
        } else {
            self.total_tx() as f64 / self.alive_count as f64
        }
    }

    /// `true` if every alive node ended up informed.
    pub fn all_informed(&self) -> bool {
        self.informed_count == self.alive_count
    }

    /// Fraction of alive nodes informed at the end.
    pub fn coverage(&self) -> f64 {
        if self.alive_count == 0 {
            1.0
        } else {
            self.informed_count as f64 / self.alive_count as f64
        }
    }

    /// Rounds until full coverage, or `None` when the broadcast failed.
    pub fn rounds_to_coverage(&self) -> Option<Round> {
        self.full_coverage_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_arithmetic() {
        let r = RunReport {
            node_count: 10,
            alive_count: 10,
            informed_count: 10,
            rounds: 5,
            full_coverage_at: Some(5),
            tx_at_coverage: Some(40),
            push_tx: 30,
            pull_tx: 12,
            channels: 50,
            stop: StopReason::FullCoverage,
            history: vec![],
        };
        assert_eq!(r.total_tx(), 42);
        assert!((r.tx_per_node() - 4.2).abs() < 1e-12);
        assert!(r.all_informed());
        assert_eq!(r.coverage(), 1.0);
        assert_eq!(r.rounds_to_coverage(), Some(5));
    }

    #[test]
    fn partial_coverage() {
        let r = RunReport {
            node_count: 10,
            alive_count: 8,
            informed_count: 4,
            rounds: 3,
            stop: StopReason::RoundCap,
            ..Default::default()
        };
        assert!(!r.all_informed());
        assert_eq!(r.coverage(), 0.5);
        assert_eq!(r.rounds_to_coverage(), None);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = RunReport::default();
        assert_eq!(r.tx_per_node(), 0.0);
        assert_eq!(r.coverage(), 1.0);
    }
}
