use rrb_engine::{
    Capabilities, ChoicePolicy, NodeView, Observation, Plan, Protocol, Round, RumorMeta,
};

/// Transmission direction(s) a budgeted flood uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GossipMode {
    /// Callers send to callees.
    Push,
    /// Callees answer callers.
    Pull,
    /// Both directions, as in Karp et al.'s combined model.
    PushPull,
}

/// Age-limited flooding: an informed node transmits (per [`GossipMode`])
/// while its copy of the rumour is at most `max_age` rounds old, then goes
/// permanently silent.
///
/// This is the canonical *strictly oblivious* protocol family: the decision
/// to transmit depends only on the time elapsed since first reception, which
/// is precisely the restricted model of the paper's Theorem 1. Setting
/// `max_age = ⌈c·log2 n⌉` yields the `O(log n)`-time Monte-Carlo broadcast
/// whose transmission count the lower bound shows must be
/// `Ω(n·log n / log d)` in the standard one-choice model — experiment E3
/// measures exactly this family.
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_baselines::{Budgeted, GossipMode};
/// use rrb_engine::{SimConfig, Simulation};
/// use rrb_graph::{gen, NodeId};
///
/// let mut rng = SmallRng::seed_from_u64(4);
/// let g = gen::random_regular(512, 8, &mut rng)?;
/// let proto = Budgeted::for_size(GossipMode::PushPull, 512, 3.0);
/// let report = Simulation::new(&g, proto, SimConfig::until_quiescent())
///     .run(NodeId::new(0), &mut rng);
/// assert!(report.all_informed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgeted {
    mode: GossipMode,
    max_age: Round,
    policy: ChoicePolicy,
}

impl Budgeted {
    /// Flood in direction `mode` for `max_age` rounds per node, in the
    /// standard single-choice model.
    pub fn new(mode: GossipMode, max_age: Round) -> Self {
        Budgeted { mode, max_age, policy: ChoicePolicy::STANDARD }
    }

    /// Budget sized for an `O(log n)`-time broadcast: `max_age =
    /// ⌈c·log2(n)⌉`.
    pub fn for_size(mode: GossipMode, n: usize, c: f64) -> Self {
        let max_age = (c * (n.max(2) as f64).log2()).ceil() as Round;
        Budgeted::new(mode, max_age)
    }

    /// Overrides the channel policy (e.g. `Distinct(4)` to give the
    /// oblivious baseline the same fanout as the paper's algorithm).
    pub fn with_policy(mut self, policy: ChoicePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured direction(s).
    pub fn mode(&self) -> GossipMode {
        self.mode
    }

    /// The per-node age budget.
    pub fn max_age(&self) -> Round {
        self.max_age
    }
}

impl Protocol for Budgeted {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        self.policy
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let age = t - view.informed_at;
        if age > self.max_age {
            return Plan::SILENT;
        }
        let meta = RumorMeta { age, counter: 0 };
        match self.mode {
            GossipMode::Push => Plan::push_with(meta),
            GossipMode::Pull => Plan::pull_with(meta),
            GossipMode::PushPull => Plan::push_pull_with(meta),
        }
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
        t > informed_at + self.max_age
    }

    fn capabilities(&self) -> Capabilities {
        let directions = match self.mode {
            GossipMode::Push => Capabilities::PUSH_ONLY,
            GossipMode::Pull => Capabilities::PULL_ONLY,
            GossipMode::PushPull => Capabilities::ALL,
        };
        Capabilities { oblivious: true, ..directions }
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
    fn transmits_only_within_budget() {
        let p = Budgeted::new(GossipMode::Push, 5);
        assert!(p.plan(view(0), 1).push);
        assert!(p.plan(view(0), 5).push);
        assert!(!p.plan(view(0), 6).transmits());
        assert!(p.plan(view(10), 15).push);
        assert!(!p.plan(view(10), 16).transmits());
    }

    #[test]
    fn quiescence_matches_budget() {
        let p = Budgeted::new(GossipMode::PushPull, 5);
        assert!(!p.is_quiescent(&(), 0, 5));
        assert!(p.is_quiescent(&(), 0, 6));
    }

    #[test]
    fn directions_per_mode() {
        let t = 3;
        let v = view(0);
        let push = Budgeted::new(GossipMode::Push, 10).plan(v, t);
        assert!(push.push && !push.pull_serve);
        let pull = Budgeted::new(GossipMode::Pull, 10).plan(v, t);
        assert!(!pull.push && pull.pull_serve);
        let both = Budgeted::new(GossipMode::PushPull, 10).plan(v, t);
        assert!(both.push && both.pull_serve);
    }

    #[test]
    fn for_size_scales_budget() {
        let small = Budgeted::for_size(GossipMode::Push, 1 << 10, 2.0);
        let large = Budgeted::for_size(GossipMode::Push, 1 << 20, 2.0);
        assert_eq!(small.max_age(), 20);
        assert_eq!(large.max_age(), 40);
    }

    #[test]
    fn push_pull_completes_and_terminates() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 1 << 10;
        let g = gen::random_regular(n, 8, &mut rng).unwrap();
        let p = Budgeted::for_size(GossipMode::PushPull, n, 3.0);
        let report =
            Simulation::new(&g, p, SimConfig::until_quiescent()).run(NodeId::new(0), &mut rng);
        assert!(report.all_informed());
        assert_eq!(report.stop, StopReason::Quiescent);
        // Standard-model cost is Θ(log n) per node, far above log log n.
        assert!(report.tx_per_node() > (n as f64).log2() * 0.5);
    }

    #[test]
    fn pure_pull_eventually_covers_complete_graph() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = gen::complete(256);
        let p = Budgeted::for_size(GossipMode::Pull, 256, 4.0);
        let report =
            Simulation::new(&g, p, SimConfig::until_quiescent()).run(NodeId::new(0), &mut rng);
        assert!(report.all_informed(), "coverage {}", report.coverage());
        assert_eq!(report.push_tx, 0);
        assert!(report.pull_tx > 0);
    }

    #[test]
    fn four_choice_policy_override() {
        let p = Budgeted::new(GossipMode::Push, 10).with_policy(ChoicePolicy::FOUR);
        assert_eq!(p.choice_policy(), ChoicePolicy::FOUR);
    }
}
