use rrb_engine::{
    Capabilities, ChoicePolicy, NodeView, Observation, Plan, Protocol, Round, RumorMeta,
};

use crate::{FourChoiceBuilder, Phase, PhaseSchedule};
#[cfg(test)]
use crate::AlgorithmVariant;

/// The paper's broadcasting algorithm (Algorithm 1 / Algorithm 2) as an
/// engine [`Protocol`].
///
/// All per-node behaviour is a pure function of the global round `t` and the
/// round at which the node first received the rumour, so the protocol is
/// *strictly oblivious* in the paper's sense (decisions depend only on
/// reception times) — it even fits the restricted model the lower bound of
/// Theorem 1 is proved in. In particular, the `active` flag of Phase 4 is
/// exactly "`informed_at` falls in phase 3 or 4" and needs no extra state.
/// It says so through [`Capabilities::oblivious`], which lets both round
/// engines (single- and multi-rumour) skip storing copies to informed
/// nodes, skip the (empty) updates and skip planning the reception rounds
/// that do not transmit — most of its O(n log log n) copies land on
/// informed nodes, and most of its phase-1 and phase-4 rounds are silent
/// for all but a few reception rounds.
///
/// Construct via [`FourChoice::for_graph`] (all defaults),
/// [`FourChoice::builder`] (full control) or
/// [`FourChoice::with_schedule`] (pre-computed schedule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourChoice {
    schedule: PhaseSchedule,
    policy: ChoicePolicy,
}

impl FourChoice {
    /// The paper's algorithm with default parameters for a graph of (true or
    /// estimated) size `n_estimate` and degree `degree`; the variant is
    /// selected automatically from the degree regime.
    pub fn for_graph(n_estimate: usize, degree: usize) -> Self {
        FourChoice::builder(n_estimate, degree).build()
    }

    /// Builder with explicit `α`, regime, estimate accuracy and choice
    /// policy.
    pub fn builder(n_estimate: usize, degree: usize) -> FourChoiceBuilder {
        FourChoiceBuilder::new(n_estimate, degree)
    }

    /// Wraps an explicit schedule with a choice policy (the experiment
    /// harness uses this for the k-choice ablation E6).
    pub fn with_schedule(schedule: PhaseSchedule, policy: ChoicePolicy) -> Self {
        FourChoice { schedule, policy }
    }

    /// The phase schedule in force.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// Number of rounds the algorithm runs before going silent.
    pub fn total_rounds(&self) -> Round {
        self.schedule.end()
    }
}

impl Protocol for FourChoice {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        self.policy
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let meta = RumorMeta { age: t, counter: 0 };
        match self.schedule.phase(t) {
            // Phase 1: "if the message is created or received for the first
            // time in the previous step then push" — the creator received at
            // time 0 and thus pushes in round 1.
            Phase::One => {
                if view.informed_at + 1 == t {
                    Plan::push_with(meta)
                } else {
                    Plan::SILENT
                }
            }
            // Phase 2: "if the node is informed then push".
            Phase::Two => Plan::push_with(meta),
            // Phase 3: "if the node is informed then pull" (serve incoming
            // channels).
            Phase::Three => Plan::pull_with(meta),
            // Phase 4 (Algorithm 1 only): nodes that first received the
            // message during phase 3 or 4 are active and push.
            Phase::Four => {
                if view.informed_at > self.schedule.phase2_end() {
                    Plan::push_with(meta)
                } else {
                    Plan::SILENT
                }
            }
            Phase::Done => Plan::SILENT,
        }
    }

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
        // All behaviour is derived from `informed_at`; nothing to track.
    }

    fn is_quiescent(&self, _state: &Self::State, informed_at: Round, t: Round) -> bool {
        if self.schedule.is_done(t) {
            return true;
        }
        // A node informed in phase 1 that has already executed its single
        // push is silent until phase 2; it is *not* quiescent (phases 2-4
        // still lie ahead). Only the schedule end quiesces nodes.
        let _ = informed_at;
        false
    }

    fn deadline(&self) -> Option<Round> {
        Some(self.schedule.end())
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::ALL }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_engine::{SimConfig, Simulation, StopReason};
    use rrb_graph::{gen, NodeId};

    fn view(informed_at: Round) -> NodeView<'static, ()> {
        NodeView { informed_at, is_creator: informed_at == 0, state: &() }
    }

    #[test]
    fn phase1_pushes_exactly_once() {
        let alg = FourChoice::for_graph(1 << 14, 8);
        // Creator (informed at 0) pushes in round 1 only.
        assert!(alg.plan(view(0), 1).push);
        assert!(!alg.plan(view(0), 2).transmits());
        // A node informed in round 5 pushes in round 6 only.
        assert!(alg.plan(view(5), 6).push);
        assert!(!alg.plan(view(5), 7).transmits());
        assert!(!alg.plan(view(5), 5).transmits());
    }

    #[test]
    fn phase2_pushes_every_informed_node() {
        let alg = FourChoice::for_graph(1 << 14, 8);
        let t = alg.schedule().phase1_end() + 1;
        assert!(alg.plan(view(0), t).push);
        assert!(alg.plan(view(3), t).push);
        assert!(alg.plan(view(t - 1), t).push);
    }

    #[test]
    fn phase3_serves_pulls() {
        let alg = FourChoice::for_graph(1 << 14, 8);
        let t = alg.schedule().phase2_end() + 1;
        let p = alg.plan(view(0), t);
        assert!(p.pull_serve && !p.push);
    }

    #[test]
    fn phase4_only_active_nodes_push() {
        let alg = FourChoice::builder(1 << 14, 8).force_small_degree().build();
        let s = *alg.schedule();
        let t = s.phase3_end() + 1;
        assert_eq!(s.phase(t), Phase::Four);
        // Informed long ago (phase 1): silent in phase 4.
        assert!(!alg.plan(view(1), t).transmits());
        // Informed during phase 3: active, pushes.
        assert!(alg.plan(view(s.phase3_end()), t).push);
        // Informed during phase 4: active from the next step.
        assert!(alg.plan(view(t), t + 1).push);
    }

    #[test]
    fn silent_and_quiescent_after_deadline() {
        let alg = FourChoice::for_graph(1 << 10, 8);
        let t = alg.schedule().end() + 1;
        assert!(!alg.plan(view(0), t).transmits());
        assert!(alg.is_quiescent(&(), 0, t));
        assert!(!alg.is_quiescent(&(), 0, 1));
        assert_eq!(alg.deadline(), Some(alg.schedule().end()));
    }

    #[test]
    fn four_choice_policy_by_default() {
        let alg = FourChoice::for_graph(1 << 12, 8);
        assert_eq!(alg.choice_policy(), ChoicePolicy::FOUR);
    }

    #[test]
    fn broadcast_completes_on_random_regular_small_degree() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 1 << 11;
        let g = gen::random_regular(n, 8, &mut rng).unwrap();
        let alg = FourChoice::for_graph(n, 8);
        let report = Simulation::new(&g, alg, SimConfig::until_quiescent())
            .run(NodeId::new(0), &mut rng);
        assert!(report.all_informed(), "coverage {}", report.coverage());
        assert_eq!(report.stop, StopReason::Quiescent);
        // O(n log log n): per-node cost is ~4 (phase-1 push) plus
        // 4·α·log log n (phase 2) plus O(1) for phases 3-4; a 10x·loglog
        // envelope comfortably certifies the scaling without flakiness.
        let loglog = (n as f64).log2().log2();
        assert!(
            report.tx_per_node() < 10.0 * loglog,
            "tx/node {} too large",
            report.tx_per_node()
        );
    }

    #[test]
    fn broadcast_completes_on_random_regular_large_degree() {
        let mut rng = SmallRng::seed_from_u64(43);
        let n = 1 << 11;
        let g = gen::random_regular(n, 16, &mut rng).unwrap();
        let alg = FourChoice::builder(n, 16).build();
        assert_eq!(alg.schedule().variant(), AlgorithmVariant::LargeDegree);
        let report = Simulation::new(&g, alg, SimConfig::until_quiescent())
            .run(NodeId::new(7), &mut rng);
        assert!(report.all_informed(), "coverage {}", report.coverage());
    }

    #[test]
    fn broadcast_completes_on_raw_configuration_model() {
        // The paper analyses the algorithm directly on the (possibly
        // non-simple) pairing-model output.
        let mut rng = SmallRng::seed_from_u64(44);
        let n = 1 << 11;
        let g = gen::configuration_model(n, 8, &mut rng).unwrap();
        let alg = FourChoice::for_graph(n, 8);
        let report = Simulation::new(&g, alg, SimConfig::until_quiescent())
            .run(NodeId::new(0), &mut rng);
        assert!(report.coverage() > 0.999, "coverage {}", report.coverage());
    }

    #[test]
    fn tolerates_rough_size_estimates() {
        // §1.2: an estimate accurate within a constant factor suffices.
        let mut rng = SmallRng::seed_from_u64(45);
        let n = 1 << 11;
        let g = gen::random_regular(n, 8, &mut rng).unwrap();
        for factor in [2, 4] {
            let alg = FourChoice::for_graph(n * factor, 8);
            let report = Simulation::new(&g, alg, SimConfig::until_quiescent())
                .run(NodeId::new(0), &mut rng);
            assert!(
                report.all_informed(),
                "failed with estimate {}x: coverage {}",
                factor,
                report.coverage()
            );
        }
    }
}
