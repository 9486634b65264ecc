//! Analysis helpers over per-round traces ([`RoundCounters`] histories).
//!
//! The paper's analysis (§4) reasons about three per-round quantities: the
//! growth factor of the informed set in Phase 1 (Lemmas 1–2), the decay
//! factor of the uninformed set in Phase 2 (Lemma 3), and the round at
//! which a given informed fraction is reached (Corollary 1, the push/pull
//! crossover of §1). This module computes exactly those statistics from a
//! recorded history, so experiments and tests measure the lemmas' subjects
//! directly.

use crate::{Round, RoundCounters};

/// Mean multiplicative growth factor `|I(t+1)| / |I(t)|` over the rounds
/// where the informed set is still below `cap` nodes (the exponential
/// stretch Lemmas 1–2 analyse). Returns `None` when no qualifying round
/// pair exists.
pub fn informed_growth_factor(history: &[RoundCounters], cap: usize) -> Option<f64> {
    let mut factors = Vec::new();
    for w in history.windows(2) {
        if w[1].informed < cap && w[0].informed > 0 {
            factors.push(w[1].informed as f64 / w[0].informed as f64);
        }
    }
    mean(&factors)
}

/// Mean multiplicative decay factor `|H(t+1)| / |H(t)|` of the uninformed
/// set over rounds in `(from, to]` (Lemma 3's Phase-2 contraction), where
/// `n` is the population size. Returns `None` when no qualifying round pair
/// exists.
pub fn uninformed_decay_factor(
    history: &[RoundCounters],
    n: usize,
    from: Round,
    to: Round,
) -> Option<f64> {
    let mut factors = Vec::new();
    for w in history.windows(2) {
        if w[0].round > from && w[1].round <= to && n > w[0].informed {
            factors.push((n - w[1].informed) as f64 / (n - w[0].informed) as f64);
        }
    }
    mean(&factors)
}

/// First round whose record shows at least `fraction` of `n` informed
/// (e.g. 0.5 for the push/pull crossover point). Returns `None` if the
/// fraction is never reached in the recorded history.
pub fn round_reaching_fraction(
    history: &[RoundCounters],
    n: usize,
    fraction: f64,
) -> Option<Round> {
    let threshold = (n as f64 * fraction).ceil() as usize;
    history.iter().find(|r| r.informed >= threshold).map(|r| r.round)
}

/// Informed count recorded at exactly round `t`, if present.
pub fn informed_at_round(history: &[RoundCounters], t: Round) -> Option<usize> {
    history.iter().find(|r| r.round == t).map(|r| r.informed)
}

/// Sums transmissions over the round interval `[from, to]` (inclusive).
pub fn transmissions_in(history: &[RoundCounters], from: Round, to: Round) -> u64 {
    history
        .iter()
        .filter(|r| r.round >= from && r.round <= to)
        .map(|r| r.tx)
        .sum()
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: Round, informed: usize, push: u64, pull: u64) -> RoundCounters {
        RoundCounters {
            round,
            informed,
            push_tx: push,
            pull_tx: pull,
            tx: push + pull,
            ..RoundCounters::default()
        }
    }

    fn doubling_history() -> Vec<RoundCounters> {
        // 1 -> 2 -> 4 -> 8 -> 16 -> 28 -> 31 -> 32 on n = 32.
        [1, 2, 4, 8, 16, 28, 31, 32]
            .into_iter()
            .enumerate()
            .map(|(i, informed)| rec(i as Round + 1, informed, 3, 1))
            .collect()
    }

    #[test]
    fn growth_factor_on_doubling_prefix() {
        let h = doubling_history();
        // Below cap 16: pairs (1,2),(2,4),(4,8) all double.
        let g = informed_growth_factor(&h, 16).unwrap();
        assert!((g - 2.0).abs() < 1e-12, "got {g}");
        // No rounds below cap 2: nothing to average.
        assert_eq!(informed_growth_factor(&h, 2), None);
    }

    #[test]
    fn decay_factor_on_tail() {
        let h = doubling_history();
        // Rounds (6,7]: H goes 4 -> 1; (7,8]: 1 -> 0.
        let d = uninformed_decay_factor(&h, 32, 5, 8).unwrap();
        assert!((d - (0.25 + 0.0) / 2.0).abs() < 1e-12, "got {d}");
        assert_eq!(uninformed_decay_factor(&h, 32, 100, 200), None);
    }

    #[test]
    fn fraction_round_lookup() {
        let h = doubling_history();
        assert_eq!(round_reaching_fraction(&h, 32, 0.5), Some(5)); // 16 at round 5
        assert_eq!(round_reaching_fraction(&h, 32, 1.0), Some(8));
        assert_eq!(round_reaching_fraction(&h, 64, 1.0), None);
    }

    #[test]
    fn point_lookups_and_sums() {
        let h = doubling_history();
        assert_eq!(informed_at_round(&h, 3), Some(4));
        assert_eq!(informed_at_round(&h, 99), None);
        assert_eq!(transmissions_in(&h, 1, 2), 8); // 2 rounds × (3+1)
        assert_eq!(transmissions_in(&h, 9, 20), 0);
    }

    #[test]
    fn empty_history_yields_no_statistics() {
        let h: Vec<RoundCounters> = Vec::new();
        assert_eq!(informed_growth_factor(&h, 16), None);
        assert_eq!(uninformed_decay_factor(&h, 32, 0, 10), None);
        assert_eq!(round_reaching_fraction(&h, 32, 0.5), None);
        assert_eq!(informed_at_round(&h, 1), None);
        assert_eq!(transmissions_in(&h, 0, 100), 0);
    }

    #[test]
    fn single_record_has_no_pairs() {
        let h = vec![rec(1, 4, 7, 2)];
        // Factor statistics need a round pair; one record gives none.
        assert_eq!(informed_growth_factor(&h, 16), None);
        assert_eq!(uninformed_decay_factor(&h, 32, 0, 10), None);
        // Point lookups still work on the lone record.
        assert_eq!(round_reaching_fraction(&h, 32, 0.125), Some(1));
        assert_eq!(informed_at_round(&h, 1), Some(4));
        assert_eq!(transmissions_in(&h, 1, 1), 9);
    }

    #[test]
    fn unreached_fraction_is_none_not_last_round() {
        let h = vec![rec(1, 4, 0, 0), rec(2, 9, 0, 0)];
        // 9 of 32 informed: 0.5 is never reached, even though the history
        // ends — callers must handle the stalled-run case explicitly.
        assert_eq!(round_reaching_fraction(&h, 32, 0.5), None);
        // ceil rounding: 0.25 of 32 = 8 needs the second record.
        assert_eq!(round_reaching_fraction(&h, 32, 0.25), Some(2));
    }

    #[test]
    fn consistent_with_live_engine_history() {
        use crate::protocols::FloodPushPull;
        use crate::{SimConfig, Simulation};
        use rand::{rngs::SmallRng, SeedableRng};
        use rrb_graph::{gen, NodeId};

        let n = 128;
        let g = gen::complete(n);
        let mut rng = SmallRng::seed_from_u64(5);
        let report = Simulation::new(&g, FloodPushPull::new(), SimConfig::default().with_history())
            .run(NodeId::new(0), &mut rng);
        // Early exponential growth beats factor 1.5 on a complete graph.
        let growth = informed_growth_factor(&report.history, n / 8).unwrap();
        assert!(growth > 1.5, "growth {growth}");
        // The crossover round is before full coverage.
        let half = round_reaching_fraction(&report.history, n, 0.5).unwrap();
        let full = round_reaching_fraction(&report.history, n, 1.0).unwrap();
        assert!(half < full);
        // Transmission sum over the whole run matches the report totals.
        assert_eq!(
            transmissions_in(&report.history, 0, report.rounds),
            report.total_tx()
        );
    }
}
