use crate::{ChoicePolicy, Observation, RumorMeta};

/// Round counter. The rumour is created at time 0 and the first
/// communication round is round 1, so a rumour's *age* during round `t`
/// equals `t` (paper §3).
pub type Round = u32;

/// What a node decides to do in a round, produced by [`Protocol::plan`].
///
/// Only *informed* nodes are asked for a plan — an uninformed node has
/// nothing to transmit. Note that `pull_serve` answers channels *opened by
/// others towards this node*; in the phone call model every node keeps
/// opening channels regardless of its informed status, so an uninformed
/// caller can still receive via pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Plan {
    /// Transmit the rumour over every outgoing channel (push).
    pub push: bool,
    /// Transmit the rumour over every incoming channel (pull).
    pub pull_serve: bool,
    /// Header attached to every copy sent this round.
    pub meta: RumorMeta,
}

impl Plan {
    /// A plan that transmits nothing.
    pub const SILENT: Plan =
        Plan { push: false, pull_serve: false, meta: RumorMeta { age: 0, counter: 0 } };

    /// Push-only plan with the given header.
    pub fn push_with(meta: RumorMeta) -> Plan {
        Plan { push: true, pull_serve: false, meta }
    }

    /// Pull-serve-only plan with the given header.
    pub fn pull_with(meta: RumorMeta) -> Plan {
        Plan { push: false, pull_serve: true, meta }
    }

    /// Push-and-pull plan with the given header.
    pub fn push_pull_with(meta: RumorMeta) -> Plan {
        Plan { push: true, pull_serve: true, meta }
    }

    /// `true` if this plan transmits at all.
    pub fn transmits(&self) -> bool {
        self.push || self.pull_serve
    }
}

/// Static description of the transmission directions a protocol can ever
/// use and of whether it is oblivious, reported by
/// [`Protocol::capabilities`].
///
/// The engine uses this to pick fast paths. The first: if a protocol
/// never serves pulls (`uses_pull == false`), channels opened by
/// *uninformed* nodes can never carry a rumour (a push travels
/// caller→callee, and an uninformed caller has nothing to push; a pull
/// travels callee→caller only when the callee pull-serves), so the engine
/// skips sampling their targets entirely. Skipped channels are still
/// *counted* — channel opening is part of the model — but cost no RNG
/// draws and no buffer traffic.
///
/// The second shortcut is [`oblivious`](Self::oblivious): the paper's
/// restricted model (Theorem 1), in which every decision is a function of
/// the round and the node's reception round. For such a protocol both
/// round engines (single- and multi-rumour) never store a copy delivered
/// to an already informed node (they still count it), make no `update`
/// calls, and in a round in which no reception round transmits they plan
/// no node at all (for the multi-rumour engine: per rumour, on its local
/// clock).
///
/// Capabilities must be **conservative**: report a direction as used if the
/// protocol could ever transmit in it, and claim `oblivious` only if its
/// contract holds. The default is [`Capabilities::ALL`], which disables
/// every capability-gated shortcut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// The protocol may push (caller → callee) in some round.
    pub uses_push: bool,
    /// The protocol may pull-serve (callee → caller) in some round.
    pub uses_pull: bool,
    /// [`Protocol::plan`] is a function of `(view.informed_at, t)` only —
    /// it ignores `view.state` and `view.is_creator` — and
    /// [`Protocol::update`] never changes the state. None of the constants
    /// below sets it; a protocol opts in with
    /// `Capabilities { oblivious: true, ..Capabilities::ALL }`.
    pub oblivious: bool,
}

impl Capabilities {
    /// Both directions possible (the conservative default).
    pub const ALL: Capabilities =
        Capabilities { uses_push: true, uses_pull: true, oblivious: false };
    /// Push-only protocols (flood push, budgeted push, quasirandom push).
    pub const PUSH_ONLY: Capabilities =
        Capabilities { uses_push: true, uses_pull: false, oblivious: false };
    /// Pull-only protocols (flood pull, budgeted pull).
    pub const PULL_ONLY: Capabilities =
        Capabilities { uses_push: false, uses_pull: true, oblivious: false };
    /// Never transmits at all.
    pub const SILENT: Capabilities =
        Capabilities { uses_push: false, uses_pull: false, oblivious: false };
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities::ALL
    }
}

/// The plans of an [`oblivious`](Capabilities::oblivious) protocol in
/// round `t` for reception rounds `0..=latest`, in order: entry `k` is
/// the plan of every participating node informed in round `k`. `state` is
/// any state of the protocol (an oblivious plan ignores it, and
/// `is_creator`). Both round engines plan oblivious protocols through
/// this — O(rounds) plan calls instead of one per informed node.
// rrb-lint: hot
pub(crate) fn reception_round_plans<'a, P: Protocol>(
    protocol: &'a P,
    state: &'a P::State,
    latest: Round,
    t: Round,
) -> impl Iterator<Item = Plan> + 'a {
    (0..=latest)
        .map(move |informed_at| protocol.plan(NodeView { informed_at, is_creator: false, state }, t))
}

/// Read-only view of a node handed to [`Protocol::plan`].
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a, S> {
    /// Round in which this node first received the rumour (0 for the
    /// creator). `plan` is only invoked on informed nodes, so this is the
    /// actual reception round.
    pub informed_at: Round,
    /// Whether this node created the rumour.
    pub is_creator: bool,
    /// Protocol-specific state.
    pub state: &'a S,
}

/// A gossip protocol in the (extended) random phone call model.
///
/// Implementations are **address-oblivious state machines**: the engine
/// opens channels according to [`choice_policy`](Protocol::choice_policy),
/// asks every informed node for a [`Plan`], performs the exchanges, and
/// feeds each node the resulting [`Observation`]. All decisions may depend
/// only on local state, the global round and rumour headers — never on
/// partner identities, which is exactly the restriction of the paper's
/// model (§1.2).
///
/// The paper's Algorithms 1 and 2 live in `rrb-core`; the classic baselines
/// (push, pull, push&pull, median-counter, quasirandom) in `rrb-baselines`;
/// trivially simple reference protocols in [`crate::protocols`].
///
/// Protocols (and their states) must be `Send + Sync`: the sharded step
/// path fans the RNG-free plan/exchange/update phases out over worker
/// threads, each holding a shared `&Protocol` and disjoint `&mut` state
/// chunks. Protocols are plain data (address-oblivious state machines),
/// so the bounds are vacuous in practice.
pub trait Protocol: Send + Sync {
    /// Protocol-specific per-node state.
    type State: Clone + std::fmt::Debug + Send + Sync;

    /// Initial state; `creator` is true for the rumour's origin.
    fn init(&self, creator: bool) -> Self::State;

    /// Channel-opening policy used by **all** nodes, informed or not.
    fn choice_policy(&self) -> ChoicePolicy;

    /// Decide this round's transmissions for an informed node.
    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan;

    /// Digest this round's observation. Called for every node that received
    /// at least one copy this round, *and* for every informed node (so
    /// counter-based protocols can advance even in silent rounds); `informed_at`
    /// is `Some` iff the node is informed after this round's exchanges.
    ///
    /// This does not hold for a protocol whose capabilities declare it
    /// [`oblivious`](Capabilities::oblivious): the round engines then make
    /// no `update` calls at all, since they could change nothing.
    fn update(
        &self,
        state: &mut Self::State,
        informed_at: Option<Round>,
        t: Round,
        obs: &Observation,
    );

    /// `true` once the node will never transmit again in any round `>= t`.
    /// Must be monotone in `t`; the engine uses it to terminate runs early
    /// once every informed node is permanently silent.
    fn is_quiescent(&self, state: &Self::State, view_informed_at: Round, t: Round) -> bool;

    /// Upper bound on rounds the protocol is designed to run (its Monte
    /// Carlo deadline), used as the default round cap; `None` means
    /// "until the engine's configured cap".
    fn deadline(&self) -> Option<Round> {
        None
    }

    /// Transmission directions this protocol can ever use; must be
    /// conservative (see [`Capabilities`]). Defaults to
    /// [`Capabilities::ALL`], which keeps every engine shortcut disabled.
    fn capabilities(&self) -> Capabilities {
        Capabilities::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capabilities_constants_and_default() {
        assert_eq!(Capabilities::default(), Capabilities::ALL);
        let cases = [
            (Capabilities::ALL, true, true, false),
            (Capabilities::PUSH_ONLY, true, false, false),
            (Capabilities::PULL_ONLY, false, true, false),
            (Capabilities::SILENT, false, false, false),
        ];
        for (caps, uses_push, uses_pull, oblivious) in cases {
            assert_eq!(caps, Capabilities { uses_push, uses_pull, oblivious });
        }
    }

    #[test]
    fn plan_constructors() {
        let meta = RumorMeta { age: 7, counter: 1 };
        assert!(Plan::push_with(meta).push);
        assert!(!Plan::push_with(meta).pull_serve);
        assert!(Plan::pull_with(meta).pull_serve);
        let both = Plan::push_pull_with(meta);
        assert!(both.push && both.pull_serve && both.transmits());
        assert!(!Plan::SILENT.transmits());
    }
}
