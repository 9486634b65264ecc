use rrb_engine::{
    Capabilities, ChoicePolicy, NodeView, Observation, Plan, Protocol, Round, RumorMeta,
};

/// Quasirandom push rumour spreading (Doerr, Friedrich, Sauerwald \[9\],
/// cited in the paper's §1.1).
///
/// Every node owns a **cyclic list** of its neighbours (here: its stub
/// order, which for the configuration model is an arbitrary order — the
/// adversarial-list setting of \[9\]). The only randomness is the starting
/// position: once informed, a node contacts successive list entries in
/// successive rounds. \[9\] shows `O(log n)` rounds suffice on hypercubes and
/// `G(n,p)`, matching the fully random push model, and beating it on
/// sparsely connected `G(n,p)`.
///
/// An optional `max_age` budget bounds the per-node transmissions (making
/// the protocol strictly oblivious and self-terminating, comparable with
/// [`Budgeted`](crate::Budgeted)).
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_baselines::QuasirandomPush;
/// use rrb_engine::{SimConfig, Simulation};
/// use rrb_graph::{gen, NodeId};
///
/// let mut rng = SmallRng::seed_from_u64(5);
/// let g = gen::hypercube(8);
/// let proto = QuasirandomPush::unbounded();
/// let report = Simulation::new(&g, proto, SimConfig::default())
///     .run(NodeId::new(0), &mut rng);
/// assert!(report.all_informed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuasirandomPush {
    max_age: Option<Round>,
}

impl QuasirandomPush {
    /// Quasirandom push with no termination rule (stopped by the engine at
    /// coverage or the round cap).
    pub fn unbounded() -> Self {
        QuasirandomPush { max_age: None }
    }

    /// Quasirandom push that silences nodes `max_age` rounds after their
    /// first reception.
    pub fn with_budget(max_age: Round) -> Self {
        QuasirandomPush { max_age: Some(max_age) }
    }

    /// The configured budget, if any.
    pub fn max_age(&self) -> Option<Round> {
        self.max_age
    }
}

impl Protocol for QuasirandomPush {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::Cyclic
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let age = t - view.informed_at;
        if let Some(max) = self.max_age {
            if age > max {
                return Plan::SILENT;
            }
        }
        Plan::push_with(RumorMeta { age, counter: 0 })
    }

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
    }

    fn is_quiescent(&self, _state: &Self::State, informed_at: Round, t: Round) -> bool {
        match self.max_age {
            Some(max) => t > informed_at + max,
            None => false,
        }
    }

    fn capabilities(&self) -> Capabilities {
        // Push-only; note the engine's sampling skip still never engages
        // because the Cyclic policy is stateful (cursors must advance).
        // The cursors live in the engine's choice state, not in the
        // protocol's, so the protocol itself is oblivious.
        Capabilities { oblivious: true, ..Capabilities::PUSH_ONLY }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_engine::{SimConfig, Simulation, StopReason};
    use rrb_graph::{gen, NodeId};

    #[test]
    fn covers_hypercube_in_logarithmic_rounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::hypercube(10); // n = 1024
        let report = Simulation::new(&g, QuasirandomPush::unbounded(), SimConfig::default())
            .run(NodeId::new(0), &mut rng);
        assert!(report.all_informed());
        // [9]: O(log n) w.h.p.; generous envelope.
        assert!(report.rounds < 14 * 10, "took {} rounds", report.rounds);
    }

    #[test]
    fn covers_random_regular() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 1 << 10;
        let g = gen::random_regular(n, 8, &mut rng).unwrap();
        let report = Simulation::new(&g, QuasirandomPush::unbounded(), SimConfig::default())
            .run(NodeId::new(0), &mut rng);
        assert!(report.all_informed());
    }

    #[test]
    fn budget_silences_and_terminates() {
        let p = QuasirandomPush::with_budget(6);
        let view = NodeView { informed_at: 2, is_creator: false, state: &() };
        assert!(p.plan(view, 8).push);
        assert!(!p.plan(view, 9).transmits());
        assert!(p.is_quiescent(&(), 2, 9));
        assert!(!QuasirandomPush::unbounded().is_quiescent(&(), 2, 1_000));
    }

    #[test]
    fn budgeted_run_self_terminates() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 256;
        let g = gen::complete(n);
        let p = QuasirandomPush::with_budget(4 * (n as f64).log2().ceil() as Round);
        let report =
            Simulation::new(&g, p, SimConfig::until_quiescent()).run(NodeId::new(0), &mut rng);
        assert!(report.all_informed());
        assert_eq!(report.stop, StopReason::Quiescent);
    }

    #[test]
    fn uses_cyclic_policy() {
        assert_eq!(QuasirandomPush::unbounded().choice_policy(), ChoicePolicy::Cyclic);
    }
}
