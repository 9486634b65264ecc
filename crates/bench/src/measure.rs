//! Bespoke measurement drivers behind the named [`MeasureSpec`] variants.
//!
//! Sweep-style experiments run their ladders through the generic
//! [`run_entry`](crate::registry::run_entry) harness; the measurements
//! here reduce **per-round histories** to the quantities the paper's
//! analysis reasons about instead — phase milestones for E4
//! ([`MeasureSpec::PhaseMilestones`]), the push/pull crossover split
//! for E5 ([`MeasureSpec::Crossover`]), and the broadcast-free spectral
//! generator audit for E15 ([`MeasureSpec::SpectralAudit`]). Folding
//! them out of `experiments.rs` makes each one a reusable function of
//! scenario data rather than an inline driver closure; the history
//! reducers reuse the [`rrb_engine::trace`] analysis helpers, so tests
//! pin the measured numbers to the same formulas the engine's own tests
//! exercise.
//!
//! Determinism: every function replicates on the standard
//! `(experiment, config_ix, seed)` [`rng_for`](crate::rng_for) streams,
//! so measured vectors are byte-identical to the legacy hand-wired
//! drivers (asserted by `e5_quick_matches_legacy_hand_wired_numbers`).

use crate::registry::LadderEntry;
use crate::replicate;
#[allow(unused_imports)] // rustdoc links
use crate::scenario::MeasureSpec;
use rrb_core::PhaseSchedule;
use rrb_engine::{trace, SimConfig, Simulation};
use rrb_graph::{gen, spectral, NodeId};

/// One seed's Phase-1/Phase-2 milestone measurements (E4, paper §4).
#[derive(Debug, Clone, Copy)]
pub struct MilestoneSample {
    /// Nodes informed at the end of Phase 1 (Corollary 1: `>= n/8`).
    pub informed_p1: f64,
    /// Nodes still uninformed at the end of Phase 2 (Lemma 3's target:
    /// `O(n / log^5 n)`).
    pub uninformed_p2: f64,
    /// Round of full coverage (the final round when never reached).
    pub coverage_round: f64,
    /// Mean per-round growth factor of `|I|` while below `n/8`
    /// (Lemmas 1–2); `None` when no qualifying round pair exists.
    pub growth: Option<f64>,
    /// Mean per-round shrink factor of `|H|` across Phase 2 (Lemma 3);
    /// `None` when no qualifying round pair exists.
    pub decay: Option<f64>,
}

/// E4's measurement: runs the paper's Algorithm 1 (small-degree schedule
/// forced) to quiescence with history on random `d`-regular graphs of
/// size `n`, one run per seed, and reduces each history to its
/// [`MilestoneSample`] via the [`rrb_engine::trace`] helpers. Returns the
/// schedule (for the milestone rounds) and the samples in seed order.
pub fn phase_milestones(n: usize, d: usize, seeds: u64) -> (PhaseSchedule, Vec<MilestoneSample>) {
    let alg = rrb_core::FourChoice::builder(n, d).force_small_degree().build();
    let s = *alg.schedule();
    let samples = replicate(4, 0, seeds, |_, rng| {
        let g = gen::random_regular(n, d, rng).expect("generation");
        let report = Simulation::new(&g, alg, SimConfig::until_quiescent().with_history())
            .run(NodeId::new(0), rng);
        let hist = &report.history;
        let at = |round| trace::informed_at_round(hist, round).unwrap_or(0);
        MilestoneSample {
            informed_p1: at(s.phase1_end()) as f64,
            uninformed_p2: (n - at(s.phase2_end())) as f64,
            coverage_round: report.full_coverage_at.unwrap_or(report.rounds) as f64,
            growth: trace::informed_growth_factor(hist, n / 8),
            decay: trace::uninformed_decay_factor(hist, n, s.phase1_end(), s.phase2_end()),
        }
    });
    (s, samples)
}

/// Replicated crossover measurement of one ladder entry (E5, §1): when
/// each seed's informed count first reaches `n/2`, and how many more
/// rounds full coverage takes from there.
#[derive(Debug, Clone)]
pub struct CrossoverTrace {
    /// Rounds from the origin to `>= n/2` informed, in seed order.
    pub half: Vec<f64>,
    /// Rounds from the `n/2` crossover to full coverage, in seed order.
    pub tail: Vec<f64>,
}

/// Runs `entry`'s scenario once per seed (history on, via
/// `spec.sim_config()`) from the fixed origin 0 and splits each run at
/// the `n/2` crossover. Streams ride on
/// `(experiment_id, entry.config_ix, seed)`, matching [`run_entry`]'s
/// coordinates.
///
/// [`run_entry`]: crate::registry::run_entry
pub fn crossover_trace(experiment_id: u64, entry: &LadderEntry, seeds: u64) -> CrossoverTrace {
    let n = entry.spec.graph.node_count();
    let proto = entry.spec.protocol.build();
    let config = entry.spec.sim_config();
    let per_seed = replicate(experiment_id, entry.config_ix, seeds, |_, rng| {
        let g = entry.spec.graph.build(rng).expect("graph generation");
        let report = Simulation::new(&g, proto.clone(), config).run(NodeId::new(0), rng);
        // Integer `n/2` (not a ceiled fraction) to stay seed-identical
        // with the legacy hand-wired driver on odd n too.
        let half_round = report
            .history
            .iter()
            .find(|r| r.informed >= n / 2)
            .map(|r| r.round)
            .unwrap_or(report.rounds);
        let full_round = report.full_coverage_at.unwrap_or(report.rounds);
        (half_round as f64, (full_round - half_round) as f64)
    });
    let (half, tail) = per_seed.into_iter().unzip();
    CrossoverTrace { half, tail }
}

/// One seed's spectral generator audit (E15, paper SS2): the measured
/// second eigenvalue and the Expander-Mixing-Lemma check over sampled
/// cuts. No broadcast runs at all.
#[derive(Debug, Clone, Copy)]
pub struct SpectralSample {
    /// Second-largest adjacency eigenvalue (power iteration).
    pub lambda: f64,
    /// Worst normalised mixing deviation over the sampled cuts.
    pub max_deviation: f64,
    /// Sampled cuts whose deviation stays within the measured λ
    /// (2% slack for power-iteration error).
    pub mixing_ok: usize,
    /// Cuts sampled.
    pub mixing_total: usize,
}

/// E15's measurement ([`MeasureSpec::SpectralAudit`]): builds `entry`'s
/// graph once per seed, measures the second eigenvalue by power
/// iteration and samples random cuts against the Expander Mixing Lemma
/// bound — auditing the *generator* the whole ladder stands on, with no
/// broadcast at all. Streams ride on
/// `(experiment_id, entry.config_ix, seed)` and the graph build consumes
/// the RNG exactly as the legacy hand-wired E15 driver did, so measured
/// vectors are byte-identical to it.
pub fn spectral_audit(experiment_id: u64, entry: &LadderEntry, seeds: u64) -> Vec<SpectralSample> {
    replicate(experiment_id, entry.config_ix, seeds, |_, rng| {
        let g = entry.spec.graph.build(rng).expect("graph generation");
        let l2 = spectral::second_eigenvalue(&g, 600, rng).expect("power iteration");
        let samples = spectral::expander_mixing_deviation(&g, 24, rng).expect("mixing");
        let mut worst: f64 = 0.0;
        let mut ok = 0usize;
        let total = samples.len();
        for s in samples {
            worst = worst.max(s.normalized_deviation);
            if s.normalized_deviation <= l2.value * 1.02 + 1e-9 {
                ok += 1;
            }
        }
        SpectralSample { lambda: l2.value, max_deviation: worst, mixing_ok: ok, mixing_total: total }
    })
}
