//! Minimal reference protocols used by the engine's own tests and as
//! building blocks for examples. The paper's algorithms live in `rrb-core`,
//! the literature baselines in `rrb-baselines`.

use crate::{Capabilities, ChoicePolicy, NodeView, Observation, Plan, Protocol, Round, RumorMeta};

/// Unbounded push flooding in the standard (single-choice) phone call
/// model: every informed node pushes in every round, forever.
///
/// This is the textbook push protocol analysed by Frieze–Grimmett and
/// Pittel; it covers a complete graph in `log2 n + ln n + O(1)` rounds but
/// has no termination rule (hence the engine's coverage/cap stopping).
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodPush {
    policy: ChoicePolicy,
}

impl FloodPush {
    /// Flooding in the standard model (one choice per round).
    pub fn new() -> Self {
        FloodPush { policy: ChoicePolicy::STANDARD }
    }

    /// Flooding with a custom choice policy.
    pub fn with_policy(policy: ChoicePolicy) -> Self {
        FloodPush { policy }
    }
}

impl Protocol for FloodPush {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        self.policy
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        Plan::push_with(RumorMeta { age: t.saturating_sub(view.informed_at), counter: 0 })
    }

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
    }

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, _t: Round) -> bool {
        false
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::PUSH_ONLY }
    }
}

/// Unbounded pull flooding: every informed node answers every incoming
/// channel in every round, forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodPull {
    policy: ChoicePolicy,
}

impl FloodPull {
    /// Pull flooding in the standard model.
    pub fn new() -> Self {
        FloodPull { policy: ChoicePolicy::STANDARD }
    }

    /// Pull flooding with a custom choice policy.
    pub fn with_policy(policy: ChoicePolicy) -> Self {
        FloodPull { policy }
    }
}

impl Protocol for FloodPull {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        self.policy
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        Plan::pull_with(RumorMeta { age: t.saturating_sub(view.informed_at), counter: 0 })
    }

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
    }

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, _t: Round) -> bool {
        false
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::PULL_ONLY }
    }
}

/// Unbounded push&pull flooding, the combination Karp et al. start from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodPushPull {
    policy: ChoicePolicy,
}

impl FloodPushPull {
    /// Push&pull flooding in the standard model.
    pub fn new() -> Self {
        FloodPushPull { policy: ChoicePolicy::STANDARD }
    }

    /// Push&pull flooding with a custom choice policy.
    pub fn with_policy(policy: ChoicePolicy) -> Self {
        FloodPushPull { policy }
    }
}

impl Protocol for FloodPushPull {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        self.policy
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        Plan::push_pull_with(RumorMeta { age: t.saturating_sub(view.informed_at), counter: 0 })
    }

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
    }

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, _t: Round) -> bool {
        false
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::ALL }
    }
}

/// A protocol that never transmits; useful for tests of the quiescence
/// stopping rule and as a null baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentProtocol;

impl Protocol for SilentProtocol {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::STANDARD
    }

    fn plan(&self, _view: NodeView<'_, Self::State>, _t: Round) -> Plan {
        Plan::SILENT
    }

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
    }

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, _t: Round) -> bool {
        true
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::SILENT }
    }
}

/// A fixed four-phase schedule on global rounds, shaped like the paper's
/// Algorithm 1 (which lives in `rrb-core`) but with the phase ends given
/// directly:
///
/// 1. rounds `1..=push_once_until`: a node pushes once, in the round after
///    it was informed;
/// 2. rounds up to `push_all_until`: every informed node pushes;
/// 3. round `push_all_until + 1`: every informed node pull-serves (the
///    only pull round);
/// 4. rounds up to `deadline`: nodes informed after phase 2 push, all
///    others are silent.
///
/// Nodes become quiescent only after the deadline, so a run to quiescence
/// walks the whole tail. It reports [`Capabilities::ALL`], so no
/// capability shortcut applies — not even the oblivious one its schedule
/// would qualify for: it is the reference that keeps the engine's general
/// path covered — and rounds with and without pulls alternate the way
/// they do in the paper's algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Phased {
    policy: ChoicePolicy,
    push_once_until: Round,
    push_all_until: Round,
    deadline: Round,
}

impl Phased {
    /// The schedule under the four-choice policy. Panics unless
    /// `push_once_until <= push_all_until < deadline`.
    pub fn new(push_once_until: Round, push_all_until: Round, deadline: Round) -> Self {
        assert!(
            push_once_until <= push_all_until && push_all_until < deadline,
            "phase ends must be ordered"
        );
        Phased { policy: ChoicePolicy::FOUR, push_once_until, push_all_until, deadline }
    }

    /// The same schedule under a custom choice policy.
    pub fn with_policy(self, policy: ChoicePolicy) -> Self {
        Phased { policy, ..self }
    }
}

impl Protocol for Phased {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        self.policy
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let meta = RumorMeta { age: t.saturating_sub(view.informed_at), counter: 0 };
        let push = if t <= self.push_once_until {
            view.informed_at + 1 == t
        } else if t <= self.push_all_until {
            true
        } else if t == self.push_all_until + 1 {
            return Plan::pull_with(meta);
        } else {
            view.informed_at > self.push_all_until
        };
        if push {
            Plan::push_with(meta)
        } else {
            Plan::SILENT
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

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, t: Round) -> bool {
        t > self.deadline
    }

    fn deadline(&self) -> Option<Round> {
        Some(self.deadline)
    }
}

/// Wrapper declaring the given capabilities for `P`. With
/// [`Capabilities::ALL`] it forces the conservative default, i.e. the
/// engine behaviour before any capability-gated shortcut existed.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct WithCaps<P>(pub(crate) P, pub(crate) Capabilities);

/// `p` with every capability shortcut disabled.
#[cfg(test)]
pub(crate) fn force_all<P>(p: P) -> WithCaps<P> {
    WithCaps(p, Capabilities::ALL)
}

#[cfg(test)]
impl<P: Protocol> Protocol for WithCaps<P> {
    type State = P::State;

    fn init(&self, creator: bool) -> Self::State {
        self.0.init(creator)
    }

    fn choice_policy(&self) -> ChoicePolicy {
        self.0.choice_policy()
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        self.0.plan(view, t)
    }

    fn update(
        &self,
        state: &mut Self::State,
        informed_at: Option<Round>,
        t: Round,
        obs: &Observation,
    ) {
        self.0.update(state, informed_at, t, obs)
    }

    fn is_quiescent(&self, state: &Self::State, informed_at: Round, t: Round) -> bool {
        self.0.is_quiescent(state, informed_at, t)
    }

    fn deadline(&self) -> Option<Round> {
        self.0.deadline()
    }

    fn capabilities(&self) -> Capabilities {
        self.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_variants_plan_correct_directions() {
        let view = NodeView { informed_at: 2, is_creator: false, state: &() };
        let p = FloodPush::new().plan(view, 5);
        assert!(p.push && !p.pull_serve);
        assert_eq!(p.meta.age, 3);
        let p = FloodPull::new().plan(view, 5);
        assert!(!p.push && p.pull_serve);
        let p = FloodPushPull::new().plan(view, 5);
        assert!(p.push && p.pull_serve);
        let p = SilentProtocol.plan(view, 5);
        assert!(!p.transmits());
    }

    #[test]
    fn phased_walks_its_four_phases() {
        let p = Phased::new(3, 5, 9);
        let view = |informed_at| NodeView { informed_at, is_creator: informed_at == 0, state: &() };
        // Phase 1: push once, in the round after reception.
        assert!(p.plan(view(0), 1).push);
        assert!(!p.plan(view(0), 2).transmits());
        assert!(p.plan(view(2), 3).push);
        // Phase 2: every informed node pushes.
        assert!(p.plan(view(0), 4).push && !p.plan(view(0), 5).pull_serve);
        // Phase 3: the single pull round.
        let pull = p.plan(view(1), 6);
        assert!(pull.pull_serve && !pull.push);
        // Phase 4: only nodes informed after phase 2 push.
        assert!(!p.plan(view(4), 7).transmits());
        assert!(p.plan(view(6), 7).push);
        assert!(!p.is_quiescent(&(), 0, 9) && p.is_quiescent(&(), 0, 10));
        assert_eq!(p.deadline(), Some(9));
        assert_eq!(p.capabilities(), Capabilities::ALL);
    }

    #[test]
    fn policies_are_configurable() {
        let p = FloodPush::with_policy(ChoicePolicy::FOUR);
        assert_eq!(p.choice_policy(), ChoicePolicy::FOUR);
        let p = FloodPull::with_policy(ChoicePolicy::SEQUENTIAL);
        assert_eq!(p.choice_policy(), ChoicePolicy::SEQUENTIAL);
    }

    #[test]
    fn quiescence_flags() {
        assert!(!FloodPush::new().is_quiescent(&(), 0, 100));
        assert!(SilentProtocol.is_quiescent(&(), 0, 0));
    }

    #[test]
    fn capabilities_match_directions() {
        use crate::Capabilities;
        let oblivious = |caps: Capabilities| Capabilities { oblivious: true, ..caps };
        assert_eq!(FloodPush::new().capabilities(), oblivious(Capabilities::PUSH_ONLY));
        assert_eq!(FloodPull::new().capabilities(), oblivious(Capabilities::PULL_ONLY));
        assert_eq!(FloodPushPull::new().capabilities(), oblivious(Capabilities::ALL));
        assert_eq!(SilentProtocol.capabilities(), oblivious(Capabilities::SILENT));
    }
}
