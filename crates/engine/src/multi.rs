use rand::Rng;

use rrb_graph::NodeId;

use crate::choice::ChoiceState;
use crate::fabric::{frontier_allowed, ChannelFabric, InformedIndex, RoundGate, RoundKind};
use crate::failure::FaultState;
use crate::ledger::{ledger_installers, Ledger, MembershipDelta, SlotChange};
use crate::observation::ObservationArena;
use crate::protocol::reception_round_plans;
use crate::shard::ShardLayout;
use crate::telemetry::{RoundCounters, StepPhase};
use crate::{NodeView, Observation, Plan, Protocol, Round, SimConfig, Topology};

/// One rumour to be injected into a [`MultiRumorSimulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RumorInjection {
    /// Global round at which the rumour is created (its local time 0).
    pub birth: Round,
    /// Node that creates the rumour.
    pub origin: NodeId,
}

/// Per-rumour outcome of a multi-rumour run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RumorOutcome {
    /// Creation round.
    pub birth: Round,
    /// Creating node.
    pub origin: NodeId,
    /// Alive, uncrashed nodes informed of this rumour at the end — the
    /// same census [`full_coverage_at`](Self::full_coverage_at) compares
    /// against, so `informed == alive` iff coverage was reached. A rumour
    /// injected at a dead node (or whose origin crash-stops) contributes
    /// no phantom count.
    pub informed: usize,
    /// Global round at which every alive node knew this rumour, if reached.
    pub full_coverage_at: Option<Round>,
    /// Transmissions carrying this rumour (per-rumour accounting, the
    /// paper's convention).
    pub tx: u64,
}

impl RumorOutcome {
    /// Rounds from creation to full coverage, if coverage was reached.
    pub fn latency(&self) -> Option<Round> {
        self.full_coverage_at.map(|at| at - self.birth)
    }
}

/// Aggregate report of a multi-rumour run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRumorReport {
    /// Rounds executed.
    pub rounds: Round,
    /// Per-rumour outcomes, in injection order.
    pub outcomes: Vec<RumorOutcome>,
    /// Channels opened over the whole run.
    pub channels: u64,
    /// Channel-direction messages actually sent: rumours travelling the same
    /// channel in the same direction in the same round are **combined** into
    /// one message (§1.2: "the nodes can combine messages"). Comparing this
    /// with [`total_rumor_tx`](Self::total_rumor_tx) exhibits the
    /// amortisation that motivates the phone call model.
    pub combined_messages: u64,
    /// Per-rumour, per-node delivery times in **rumour-local** rounds
    /// (`Some(0)` for the origin; global round = birth + local round).
    /// Indexed `deliveries[rumor][node]`. Applications such as the
    /// replicated database use this to replay update visibility. Note the
    /// trace records *receptions*: a dead or crashed origin still shows
    /// `Some(0)` here even though it never counts as alive-informed.
    pub deliveries: Vec<Vec<Option<Round>>>,
}

impl MultiRumorReport {
    /// Sum of per-rumour transmissions (no combining).
    pub fn total_rumor_tx(&self) -> u64 {
        self.outcomes.iter().map(|o| o.tx).sum()
    }

    /// `true` if every rumour reached every alive node.
    pub fn all_delivered(&self) -> bool {
        self.outcomes.iter().all(|o| o.full_coverage_at.is_some())
    }

    /// Mean per-rumour transmissions.
    pub fn mean_tx_per_rumor(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.total_rumor_tx() as f64 / self.outcomes.len() as f64
        }
    }

    /// Combining ratio `combined_messages / total_rumor_tx` (≤ 1; smaller is
    /// better amortisation).
    pub fn combining_ratio(&self) -> f64 {
        let total = self.total_rumor_tx();
        if total == 0 {
            1.0
        } else {
            self.combined_messages as f64 / total as f64
        }
    }
}

/// What [`MultiSimState`]'s frontier test found: the live rumours, each
/// with one plan for all its reception rounds; whether some of them sends
/// nothing, some pushes and some pull-serves; and whether some pull-serves
/// from a node that takes part.
#[derive(Debug, Clone, Copy)]
struct UniformRound {
    live: usize,
    silent: bool,
    push: bool,
    pull: bool,
    serves: bool,
}

/// Mutable state of an in-flight **multi-rumour** broadcast — the
/// flat-arena port of the multi-rumour engine, mirroring
/// [`SimState`](crate::SimState) for the single-rumour engine.
///
/// # Round anatomy
///
/// Each [`step`](Self::step) runs shared phases once and per-rumour phases
/// over per-rumour *informed index lists*:
///
/// 1. **Activation** — rumours whose birth round has passed join the
///    active set (their origins enter the informed census).
/// 2. **Fault plan** (only with [`set_faults`](Self::set_faults)) — the
///    installed [`FaultState`] advances on its reserved stream and its
///    node events (outage recoveries, suspensions, scripted/adversarial
///    crashes) apply to the census, exactly as in the single engine.
///    Then **crash sampling** (skipped unless the model injects crashes).
/// 3. **Plans** — each active rumour's senders are planned into a flat
///    CSR plan store: `O(informed · rumours)`, not `O(n · rumours)`. An
///    [`oblivious`](crate::Capabilities::oblivious) protocol is asked once
///    per reception round on the rumour's local clock (the helper the
///    single engine shares), and only the groups of reception rounds that
///    transmit are walked — a rumour none of whose rounds transmits plans
///    no node. Plans are RNG-free, so making them before the fabric moves
///    no draw. A *frontier* round plans no node at all: the protocol is
///    oblivious, the round on the loss-free fast path under `Distinct(k)`
///    with no partition or burst view, and every live rumour has one plan
///    for all its reception rounds, and one at least transmits.
/// 4. **Gated fabric** — every alive node's call targets are sampled once
///    into the CSR channel fabric and shared by all rumours, through the
///    fabric entry and round gate the single engine uses, fanned out over
///    [`SimConfig::shards`] caller segments: a caller informed of *no* active
///    rumour takes the push-only sampling skip, one that pushes no rumour
///    in a round in which nobody pull-serves is quiet (its channels are
///    counted and its draws skipped, none stored), and a round in which an
///    oblivious protocol plans no sender skips the sampling altogether. A
///    frontier round samples only the callers that miss a live rumour, are
///    dead or blocked, or are next to such a slot, and books every other
///    caller's channels. When some node pull-serves in a sampled round, a
///    reverse (incoming-channel) index is built.
/// 5. **Direction pre-draw** — one pass over the stored channels counts
///    combined messages and draws each used channel direction's
///    transmission failure **once**, so a combined message succeeds or
///    fails atomically for every rumour it carries (§1.2).
/// 6. **Exchanges + digest** per rumour, walking only the rumour's
///    senders (forward lists for pushes, reverse index for pulls) and the
///    observation arena's touched receivers. For an oblivious protocol
///    every copy is still counted, but only copies to nodes uninformed of
///    the rumour are acted on — they mark the receiver at once — and the
///    digest makes no `update` call, so the arena is not used. A frontier
///    round walks only its listed channels forwards (a node sends a rumour
///    if it knew it before the round and takes part), and each rumour books
///    one transmission per booked channel and direction of its plan, the
///    round one combined message per booked channel and direction any
///    rumour uses.
/// 7. **Coverage** — per-rumour alive-informed counters are maintained
///    incrementally; no `O(n)` rescans (debug builds recount them at the
///    end of every step).
///
/// All buffers are reused across rounds; once warm, a round performs no
/// heap allocation (asserted by the steady-state tests).
///
/// The one-rumour special case is **seed-for-seed identical** to the
/// single-rumour engine across all failure models — see `tests/parity.rs`.
///
/// # Dynamic membership
///
/// Aliveness is tracked by an [`AliveCensus`](crate::AliveCensus)
/// snapshotted from the topology at [`new`](Self::new) and maintained
/// incrementally from then on: crash-stop failures are sampled
/// internally, and a churn step's arrivals and departures arrive between
/// rounds (after overlay rewiring) through
/// [`apply_membership`](Self::apply_membership), updating every rumour's
/// coverage and retirement counters in
/// `O(events · rumours)` — no per-round rescans, no frozen `alive_count`.
/// Slot growth is also adopted automatically at the start of each round.
#[derive(Debug)]
pub struct MultiSimState<P: Protocol> {
    // Run setup (injection order preserved).
    births: Vec<Round>,
    origins: Vec<NodeId>,
    n: usize,
    /// Census (the coverage denominator's source of truth), fault plan,
    /// probe, round and channel total.
    ledger: Ledger,
    /// Per-rumour protocol state, **sparse**: `states[r]` holds one entry
    /// per *informed* node, parallel to `informed[r]`'s index list
    /// (position `p` is the state of `informed[r].list()[p]`). Uninformed
    /// nodes have no materialised state — `Protocol::init` is pure, so
    /// the dense `init(false)` entries the old layout stored were
    /// reconstructible and never read. At n = 10^6+ with few informed
    /// nodes this is the difference between `O(n · rumours)` and
    /// `O(informed)` resident state.
    states: Vec<Vec<P::State>>,
    informed: Vec<InformedIndex>,
    /// Oblivious protocols only: rumour `r`'s informed list is kept
    /// grouped by reception round, `round_ends[r][k]` being the exclusive
    /// end of round `k`'s group, up to the latest reception round — all an
    /// oblivious plan depends on. (The general path keeps the plain
    /// discovery order, which its updates can observe.)
    round_ends: Vec<Vec<u32>>,
    alive_informed: Vec<usize>,
    full_coverage_at: Vec<Option<Round>>,
    tx: Vec<u64>,
    // Shared node state.
    /// Number of active, unsettled rumours each node is informed of —
    /// drives the push-only sampling skip on the shared fabric.
    informed_of: Vec<u32>,
    /// Settled rumours (covered under `stop_at_coverage`, past their local
    /// deadline, or quiescent) are *retired*: frozen and skipped by every
    /// per-round pass, so the round loop costs `O(Σ informed)` over the
    /// unsettled rumours only. Retirement is sticky — quiescence is
    /// monotone and a retired rumour's state never changes again.
    retired: Vec<bool>,
    retired_count: usize,
    /// Rumours whose activation step has run (they joined the informed_of
    /// census, unless already retired by then).
    active: Vec<bool>,
    // Rumour activation, in birth order.
    activation_order: Vec<u32>,
    next_activation: usize,
    /// Combined channel-direction messages sent over the run.
    combined: u64,
    // Scratch buffers reused across rounds (allocation-free once warm).
    choice: ChoiceState,
    fabric: ChannelFabric,
    arena: ObservationArena,
    scratch_obs: Observation,
    empty_obs: Observation,
    /// CSR plan store of this round's senders: rumour `r`'s transmitting
    /// nodes and their plans, in informed-list order, live at
    /// `plan_start[r] .. plan_start[r] + plan_len[r]`.
    plan_store: Vec<(u32, Plan)>,
    plan_start: Vec<u32>,
    plan_len: Vec<u32>,
    /// Per live rumour, the one plan of every reception round in a
    /// frontier round, `SILENT` for one that sends nothing (see
    /// [`frontier`](Self::frontier)).
    uniform: Vec<Plan>,
    /// A `protocol.init(false)` to ask an oblivious protocol's
    /// [`reception_round_plans`] with (its plan ignores the state).
    bucket_state: P::State,
    /// Per node: does any active rumour push from / pull-serve at it this
    /// round (lazily reset via `plan_touched`).
    push_any: Vec<bool>,
    pull_any: Vec<bool>,
    plan_touched: Vec<u32>,
}

impl<P: Protocol> MultiSimState<P> {
    /// Initialises a multi-rumour broadcast over `topo` (which fixes the
    /// node count and the alive census for the whole run).
    ///
    /// # Panics
    ///
    /// Panics if any injection's origin is out of range.
    pub fn new<T: Topology + ?Sized>(
        protocol: &P,
        topo: &T,
        injections: &[RumorInjection],
    ) -> Self {
        let n = topo.node_count();
        let nr = injections.len();
        let mut ledger = Ledger::default();
        ledger.census.sync_from(topo);
        let mut states = Vec::with_capacity(nr);
        let mut informed = Vec::with_capacity(nr);
        let mut alive_informed = Vec::with_capacity(nr);
        for inj in injections {
            assert!(inj.origin.index() < n, "rumor origin out of range");
            // Sparse: only the origin (informed-list position 0) has state.
            states.push(vec![protocol.init(true)]);
            let mut ix = InformedIndex::new(n);
            ix.mark(inj.origin.index(), 0);
            informed.push(ix);
            alive_informed.push(usize::from(ledger.census.is_effective(inj.origin.index())));
        }
        let mut activation_order: Vec<u32> = (0..nr as u32).collect();
        activation_order.sort_by_key(|&r| injections[r as usize].birth);
        MultiSimState {
            births: injections.iter().map(|i| i.birth).collect(),
            origins: injections.iter().map(|i| i.origin).collect(),
            n,
            ledger,
            states,
            informed,
            round_ends: vec![vec![1]; nr],
            alive_informed,
            full_coverage_at: vec![None; nr],
            tx: vec![0; nr],
            informed_of: vec![0; n],
            retired: vec![false; nr],
            retired_count: 0,
            active: vec![false; nr],
            activation_order,
            next_activation: 0,
            combined: 0,
            choice: ChoiceState::new(n, protocol.choice_policy()),
            fabric: ChannelFabric::new(n),
            arena: ObservationArena::new(n),
            scratch_obs: Observation::default(),
            empty_obs: Observation::default(),
            plan_store: Vec::new(),
            plan_start: vec![0; nr],
            plan_len: vec![0; nr],
            uniform: vec![Plan::SILENT; nr],
            bucket_state: protocol.init(false),
            push_any: vec![false; n],
            pull_any: vec![false; n],
            plan_touched: Vec::new(),
        }
    }

    /// Current round (0 before the first step).
    pub fn round(&self) -> Round {
        self.ledger.round
    }

    ledger_installers!();

    /// The installed fault state, if any.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.ledger.faults.as_ref()
    }

    /// Number of scheduled rumours.
    pub fn rumor_count(&self) -> usize {
        self.births.len()
    }

    /// Alive, uncrashed nodes currently informed of rumour `r`.
    pub fn informed_count(&self, r: usize) -> usize {
        self.alive_informed[r]
    }

    /// Number of crash-stop events so far.
    pub fn crashed_count(&self) -> usize {
        self.ledger.census.crashed_count()
    }

    /// Alive nodes that have not crash-stopped — the coverage denominator,
    /// `O(1)` from the census counters.
    pub fn effective_alive(&self) -> usize {
        self.ledger.census.effective_alive()
    }

    /// Accommodates topology growth (new node slots join uninformed, with
    /// no knowledge of any rumour — and, with the sparse state layout, no
    /// materialised protocol state either).
    fn ensure_len(&mut self, node_count: usize) {
        if self.n >= node_count {
            return;
        }
        for ix in &mut self.informed {
            ix.ensure_len(node_count);
        }
        self.informed_of.resize(node_count, 0);
        self.push_any.resize(node_count, false);
        self.pull_any.resize(node_count, false);
        self.arena.ensure_len(node_count);
        self.choice.ensure_len(node_count);
        self.n = node_count;
    }

    /// Applies one churn step's membership changes between rounds, after
    /// the overlay has made them, in the order the run ledger fixes (see
    /// [`MembershipDelta`]). A newcomer's slot, fresh or recycled, starts
    /// over with no knowledge of any rumour and fresh choice bookkeeping.
    /// A leaver drops out of every rumour's alive-informed counter
    /// (retired rumours included, mirroring the crash path) as the shared
    /// denominator shrinks. `O(rumours)` per slot.
    pub fn apply_membership(&mut self, protocol: &P, delta: MembershipDelta<'_>) {
        self.transact(protocol.capabilities().oblivious, delta);
    }

    /// The joins of a delta alone. Only the repository benchmark's
    /// `db_churn` workload calls the three lists one by one, in its own
    /// order; everything else calls [`apply_membership`](Self::apply_membership).
    #[doc(hidden)]
    pub fn apply_joins(&mut self, protocol: &P, joined: &[NodeId]) {
        self.apply_membership(protocol, MembershipDelta { joined, ..MembershipDelta::default() });
    }

    /// The departures of a delta alone (see [`apply_joins`](Self::apply_joins)).
    #[doc(hidden)]
    pub fn apply_leaves(&mut self, left: &[NodeId]) {
        self.transact(false, MembershipDelta { left, ..MembershipDelta::default() });
    }

    /// The recycled slots of a delta alone (see [`apply_joins`](Self::apply_joins)).
    #[doc(hidden)]
    pub fn apply_rejoins(&mut self, protocol: &P, rejoined: &[NodeId]) {
        self.apply_membership(protocol, MembershipDelta { rejoined, ..MembershipDelta::default() });
    }

    /// [`apply_membership`](Self::apply_membership), for informed lists
    /// kept `grouped` by reception round (an oblivious protocol's).
    // rrb-lint: hot
    fn transact(&mut self, grouped: bool, delta: MembershipDelta<'_>) {
        self.ensure_len(delta.slot_end());
        let rumours = self.births.len();
        self.ledger.apply_membership(delta, |change| match change {
            SlotChange::Arrive(i) => {
                for r in 0..rumours {
                    // Keep the sparse state vector aligned with the index list.
                    let unmarked = if grouped {
                        self.informed[r].unmark_grouped(i, &mut self.round_ends[r], Some(&mut self.states[r]))
                    } else {
                        self.informed[r].unmark(i).map(|p| self.states[r].swap_remove(p)).is_some()
                    };
                    if unmarked && self.active[r] && !self.retired[r] {
                        self.informed_of[i] -= 1;
                    }
                }
                self.choice.reset_slot(i);
            }
            SlotChange::Leave(i) => {
                for (informed, count) in self.informed.iter().zip(&mut self.alive_informed) {
                    *count -= usize::from(informed.is_informed(i));
                }
            }
        });
        // Debug builds recount every rumour's coverage numerator and check
        // its informed index (and reception-round groups).
        for ((informed, &alive_informed), ends) in self.informed.iter().zip(&self.alive_informed).zip(&self.round_ends) {
            self.ledger.debug_check_informed(informed, alive_informed, grouped.then_some(ends.as_slice()));
        }
    }

    /// Heap capacities of every per-round scratch buffer. Once the engine
    /// is warm these must stay constant round over round — the arena
    /// port's "steady-state rounds allocate nothing" guarantee, asserted
    /// by tests.
    #[doc(hidden)]
    pub fn scratch_capacities(&self) -> Vec<usize> {
        let mut caps = self.fabric.capacities().to_vec();
        caps.extend([
            self.plan_store.capacity(),
            self.plan_touched.capacity(),
            self.scratch_obs.pushes.capacity(),
            self.scratch_obs.pulls.capacity(),
            self.informed.iter().map(InformedIndex::capacity).sum(),
            self.round_ends.iter().map(Vec::capacity).sum(),
        ]);
        caps.extend(self.arena.capacities());
        caps
    }

    /// Marks newly settled rumours as retired. A rumour settles — exactly
    /// the per-rumour stopping conditions of the single-rumour engine —
    /// when it is covered (under `stop_at_coverage`), its local clock has
    /// reached the protocol's designed deadline (the single engine's
    /// RoundCap), or every informed node is quiescent. Retired rumours are
    /// frozen: no plans, no transmissions, no updates, and they leave the
    /// informed_of census that gates the push-only sampling skip.
    fn settle(&mut self, protocol: &P, config: SimConfig) {
        let t = self.ledger.round;
        let effective_alive = self.effective_alive();
        for r in 0..self.births.len() {
            if self.retired[r] {
                continue;
            }
            let birth = self.births[r];
            if t < birth {
                continue; // not yet created
            }
            let tl = t - birth;
            let covered = self.full_coverage_at[r].is_some()
                || self.alive_informed[r] == effective_alive;
            let deadline_hit =
                protocol.deadline().is_some_and(|deadline| tl >= deadline);
            // Quiescence over the informed index list only — uninformed
            // nodes are vacuously quiescent, crashed nodes permanently so.
            let tl_next = tl + 1;
            let settled = (covered && config.stop_at_coverage)
                || deadline_hit
                || self.informed[r].list().iter().enumerate().all(|(idx, &i)| {
                    self.ledger.census.is_crashed(i as usize)
                        || protocol.is_quiescent(
                            &self.states[r][idx],
                            self.informed[r].at_pos(idx),
                            tl_next,
                        )
                });
            if settled {
                self.retired[r] = true;
                self.retired_count += 1;
                // A rumour can settle before its activation step (e.g. it
                // quiesces at creation); only active rumours ever joined
                // the informed_of census.
                if self.active[r] {
                    for &i in self.informed[r].list() {
                        self.informed_of[i as usize] -= 1;
                    }
                }
            }
        }
    }

    /// Whether the run has reached a stopping condition: the round cap, or
    /// every rumour settled. Also performs the settlement pass, retiring
    /// rumours that can make no further progress.
    pub fn finished(&mut self, protocol: &P, config: SimConfig) -> bool {
        let nr = self.births.len();
        if nr == 0 {
            return true;
        }
        if self.ledger.round >= config.max_rounds {
            return true;
        }
        self.settle(protocol, config);
        self.retired_count == nr
    }

    /// Executes one synchronous round over the shared channel fabric. The
    /// generator is `Clone + Send` for the fabric's shards (see
    /// [`SimState::step`](crate::SimState::step)).
    // rrb-lint: hot
    pub fn step<T: Topology + ?Sized, R: Rng + Clone + Send>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        rng: &mut R,
    ) {
        let n = topo.node_count();
        self.ensure_len(n);
        self.ledger.census.adopt_new_slots(topo);
        let caps = protocol.capabilities();
        self.ledger.round += 1;
        let t = self.ledger.round;
        // Phase attribution clock: armed only when a probe is installed,
        // so the bare engine reads no clocks (see `telemetry.rs`).
        self.ledger.arm_clock();

        // Phase 1: activation — rumours created before this round join the
        // active set; their origins (the only nodes informed so far) enter
        // the informed_of census that gates the sampling skip.
        while let Some(&r) = self.activation_order.get(self.next_activation) {
            let r = r as usize;
            if self.births[r] >= t {
                break;
            }
            self.next_activation += 1;
            if self.retired[r] {
                continue; // settled before its first communication round
            }
            self.active[r] = true;
            for &i in self.informed[r].list() {
                self.informed_of[i as usize] += 1;
            }
        }
        let active_end = self.next_activation;
        self.ledger.lap(StepPhase::Coverage);

        // Phase 2: the fault phase shared with the other engines (see
        // `ledger.rs`). The adversary sees each node's earliest *global*
        // reception over all rumours (the informed indices run on
        // rumour-local clocks); a crashing node leaves every rumour's
        // alive-informed census.
        let failures = self.ledger.fault_phase(
            topo,
            config.failures,
            rng,
            |i| {
                self.informed
                    .iter()
                    .zip(&self.births)
                    .filter_map(|(ix, &b)| ix.at(i).map(|at| at + b))
                    .min()
            },
            |i| {
                for (ix, alive) in self.informed.iter().zip(self.alive_informed.iter_mut()) {
                    if ix.is_informed(i) {
                        *alive -= 1;
                    }
                }
            },
        );
        self.ledger.lap(StepPhase::Faults);

        // Phase 3: plans. Each active rumour's senders are planned into
        // the flat CSR plan store; per-node any-rumour transmit flags gate
        // the fabric and the transmission pre-draw below. An oblivious
        // protocol is asked once per reception round on the rumour's local
        // clock, and only the groups of rounds that transmit are walked. A
        // frontier round plans no node.
        for &i in &self.plan_touched {
            self.push_any[i as usize] = false;
            self.pull_any[i as usize] = false;
        }
        self.plan_touched.clear();
        self.plan_store.clear();
        let frontier_able = caps.oblivious
            && frontier_allowed(protocol.choice_policy(), failures, self.ledger.faults.as_ref());
        let frontier = if frontier_able { self.frontier(protocol, t, active_end) } else { None };
        let mut any_pull = match frontier {
            Some(f) => f.serves,
            None => self.plan_rumours(protocol, t, active_end),
        };
        if frontier.is_some_and(|f| f.silent && !f.serves) {
            self.mark_pushers(active_end);
        }
        self.ledger.lap(StepPhase::Plan);

        // Phase 4: the shared channel fabric, through the round gate the
        // single engine uses (`fabric.rs`). A caller informed of no active
        // rumour is the push-only skip's; one that pushes no rumour, in a
        // round in which no node pull-serves, is quiet. A round in which an
        // oblivious protocol plans no sender is silent, one found uniform
        // above is declared frontier. There a slot that misses a live
        // rumour is incomplete (O(1) per slot from `informed_of`), and the
        // gate asks only incomplete callers whether they push: one that
        // takes part and knows a live rumour does if every live rumour
        // transmits and nobody serves pulls (then each one pushes); with
        // a silent live rumour the pushers were marked above. Pulls walk
        // the reverse (incoming-channel) index, built when some node
        // serves.
        let kind = match frontier {
            Some(_) => RoundKind::Frontier,
            None if caps.oblivious && self.plan_store.is_empty() => RoundKind::Silent,
            None => RoundKind::Sampled,
        };
        let live = frontier.map_or(0, |f| f.live);
        let direct = frontier.is_some_and(|f| !f.silent);
        let (informed_of, push_any): (&[_], &[bool]) = (&self.informed_of, &self.push_any);
        let census = &self.ledger.census;
        self.fabric.sample_round(
            topo,
            protocol,
            &mut self.choice,
            failures,
            self.ledger.faults.as_ref(),
            census.blocked_slice(),
            RoundGate {
                uninformed: move |i: usize| informed_of[i] == 0,
                pushes: move |i: usize| {
                    push_any[i] || (direct && informed_of[i] > 0 && census.is_participating(i))
                },
                lacks: move |i: usize| (informed_of[i] as usize) < live || !census.is_alive(i),
                any_pull,
                // The exchange looks each sender's row up by node id.
                list: false,
                kind,
            },
            ShardLayout::new(n, config.shards),
            &mut self.ledger.probe,
            rng,
        );
        // A frontier round the fabric sampled whole is planned now: the
        // exchange reads the plans. A frontier round's listed channels
        // are walked forwards, with no reverse index.
        let made = self.fabric.kind();
        if made == RoundKind::Sampled && frontier.is_some() {
            for &i in &self.plan_touched {
                self.push_any[i as usize] = false;
            }
            self.plan_touched.clear();
            any_pull = self.plan_rumours(protocol, t, active_end);
        }
        if any_pull && made == RoundKind::Sampled {
            self.fabric.build_incoming(n);
        }
        self.ledger.lap(StepPhase::Fabric);

        // Phase 5: the transmission pre-draw over the used channel
        // directions, one outcome per direction shared by every rumour on
        // it, in the single engine's order; it counts the combined
        // messages. It rides in the first rumour's Exchange lap. A frontier
        // round is loss-free: its booked channels each carry every
        // direction some rumour uses, and its listed ones are counted.
        let booked = self.fabric.counters().booked_channels;
        match frontier {
            Some(f) if made == RoundKind::Frontier => {
                self.combined += booked * (u64::from(f.push) + u64::from(f.pull));
                self.combined += self.frontier_messages(active_end);
            }
            _ if !self.plan_store.is_empty() => {
                let (push_any, pull_any) = (&self.push_any, &self.pull_any);
                self.combined +=
                    self.fabric.draw_transmissions(failures, |i| push_any[i], |w| pull_any[w], rng);
            }
            _ => {}
        }

        // Phase 6: per-rumour exchanges and digest over the shared fabric.
        // Pushes walk the rumour's informed senders' forward channel lists;
        // pulls walk its servers' incoming channels via the reverse index —
        // O(informed · fanout + receipts) per rumour, never O(n). Every
        // copy is counted. An oblivious protocol's copies are not stored:
        // a copy to an uninformed receiver marks it at once (so receivers
        // join the informed list in the order the arena would first have
        // touched them) and the rest inform nobody and feed no update.
        let effective_alive = self.effective_alive();
        let mut push_tx = 0u64;
        let mut pull_tx = 0u64;
        let mut newly_informed = 0usize;
        for ai in 0..active_end {
            let r = self.activation_order[ai] as usize;
            if self.retired[r] {
                continue;
            }
            let tl = t - self.births[r];
            let known = self.informed[r].len();
            let (rumor_push, rumor_pull) = match made {
                RoundKind::Frontier => {
                    let plan = self.uniform[r];
                    let (push, pull) = self.exchange_frontier(r, tl, plan);
                    (push + booked * u64::from(plan.push), pull + booked * u64::from(plan.pull_serve))
                }
                _ => self.exchange(r, tl, any_pull, caps.oblivious),
            };
            self.tx[r] += rumor_push + rumor_pull;
            push_tx += rumor_push;
            pull_tx += rumor_pull;
            // The pre-draw above rides in the first Exchange lap; later
            // laps cover only their rumour's sends.
            self.ledger.lap(StepPhase::Exchange);

            if caps.oblivious {
                // Digest: the nodes marked above, all new, get their
                // census entries and (list-parallel) states and form
                // round `tl`'s group; no updates.
                let len = self.informed[r].len();
                for p in known..len {
                    let i = self.informed[r].list()[p] as usize;
                    self.informed_of[i] += 1;
                    if self.ledger.census.is_effective(i) {
                        self.alive_informed[r] += 1;
                    }
                    self.states[r].push(protocol.init(false));
                }
                if len > known {
                    newly_informed += len - known;
                    let ends = &mut self.round_ends[r];
                    ends.resize(tl as usize, known as u32);
                    ends.push(len as u32);
                }
            } else {
                newly_informed += self.digest(protocol, r, tl, known);
            }

            // Coverage bookkeeping: incremental counters, no O(n) rescan.
            if self.full_coverage_at[r].is_none()
                && self.alive_informed[r] == effective_alive
            {
                self.full_coverage_at[r] = Some(t);
            }
            self.ledger.lap(StepPhase::Update);
        }

        // Debug builds recount every rumour's coverage numerator and check
        // its informed index (and reception-round groups).
        for ((informed, &alive_informed), ends) in self.informed.iter().zip(&self.alive_informed).zip(&self.round_ends) {
            let groups = caps.oblivious.then_some(ends.as_slice());
            self.ledger.debug_check_informed(informed, alive_informed, groups);
        }
        self.ledger.close_round(RoundCounters {
            informed: self.alive_informed.iter().sum(),
            newly_informed,
            push_tx,
            pull_tx,
            ..self.fabric.counters()
        });
    }

    /// Rumour `r`'s exchange over the sampled fabric (phase 6 of
    /// [`step`](Self::step)): pushes walk its senders' forward channel
    /// lists, pulls its servers' incoming channels. Every copy is counted;
    /// an oblivious protocol's copy to an uninformed receiver marks it at
    /// once, other protocols' copies go to the arena. Returns the rumour's
    /// push and pull transmissions.
    // rrb-lint: hot
    fn exchange(&mut self, r: usize, tl: Round, any_pull: bool, oblivious: bool) -> (u64, u64) {
        let senders = self.plan_start[r] as usize
            ..(self.plan_start[r] + self.plan_len[r]) as usize;
        if !oblivious {
            self.arena.begin_round();
        }
        let mut rumor_push = 0u64;
        let mut rumor_pull = 0u64;
        for k in senders.clone() {
            let (i, plan) = self.plan_store[k];
            if !plan.push {
                continue;
            }
            for c in self.fabric.out_range(i as usize) {
                if !self.fabric.usable(c) {
                    continue;
                }
                rumor_push += 1;
                if !self.fabric.push_arrives(c) {
                    continue;
                }
                let w = self.fabric.target(c).index();
                if oblivious {
                    self.informed[r].mark(w, tl);
                } else {
                    self.arena.record_push(w, plan.meta);
                }
            }
        }
        if any_pull {
            for k in senders {
                let (w, plan) = self.plan_store[k];
                if !plan.pull_serve {
                    continue;
                }
                for &(c, caller) in self.fabric.incoming(w as usize) {
                    if !self.fabric.usable(c as usize) {
                        continue;
                    }
                    rumor_pull += 1;
                    if !self.fabric.pull_arrives(c as usize) {
                        continue;
                    }
                    if oblivious {
                        self.informed[r].mark(caller as usize, tl);
                    } else {
                        self.arena.record_pull(caller as usize, plan.meta);
                    }
                }
            }
        }
        (rumor_push, rumor_pull)
    }

    /// Plans every live rumour's senders into the plan store and the
    /// per-node any-rumour flags (phase 3 of [`step`](Self::step)); returns
    /// whether any node pull-serves.
    // rrb-lint: hot
    fn plan_rumours(&mut self, protocol: &P, t: Round, active_end: usize) -> bool {
        let caps = protocol.capabilities();
        let mut any_pull = false;
        for ai in 0..active_end {
            let r = self.activation_order[ai] as usize;
            if self.retired[r] {
                continue;
            }
            let tl = t - self.births[r];
            let start = self.plan_store.len();
            self.plan_start[r] = start as u32;
            let list = self.informed[r].list();
            if caps.oblivious {
                let ends = &self.round_ends[r];
                let latest = ends.len() as Round - 1;
                let plans = reception_round_plans(protocol, &self.bucket_state, latest, tl);
                let mut lo = 0;
                for (plan, &hi) in plans.zip(ends) {
                    if plan.transmits() {
                        for &i in &list[lo..hi as usize] {
                            if self.ledger.census.is_participating(i as usize) {
                                self.plan_store.push((i, plan));
                            }
                        }
                    }
                    lo = hi as usize;
                }
            } else {
                for (idx, &i) in list.iter().enumerate() {
                    if !self.ledger.census.is_participating(i as usize) {
                        continue;
                    }
                    let view = NodeView {
                        informed_at: self.informed[r].at_pos(idx),
                        is_creator: NodeId::new(i as usize) == self.origins[r],
                        state: &self.states[r][idx],
                    };
                    let plan = protocol.plan(view, tl);
                    if plan.transmits() {
                        self.plan_store.push((i, plan));
                    }
                }
            }
            self.plan_len[r] = (self.plan_store.len() - start) as u32;
            for &(i, plan) in &self.plan_store[start..] {
                let i = i as usize;
                if (plan.push && !self.push_any[i]) || (plan.pull_serve && !self.pull_any[i]) {
                    self.plan_touched.push(i as u32);
                }
                self.push_any[i] |= plan.push;
                self.pull_any[i] |= plan.pull_serve;
                any_pull |= plan.pull_serve;
            }
        }
        any_pull
    }

    /// Whether round `t` is a frontier round: every live rumour has one
    /// plan for all its reception rounds (its directions), and one at
    /// least transmits. Leaves each live rumour's plan in `uniform`. Asked
    /// only of a `frontier_able` round of an oblivious protocol (see
    /// [`frontier_allowed`]).
    fn frontier(&mut self, protocol: &P, t: Round, active_end: usize) -> Option<UniformRound> {
        let census = &self.ledger.census;
        let mut round = UniformRound { live: 0, silent: false, push: false, pull: false, serves: false };
        for &r in &self.activation_order[..active_end] {
            let r = r as usize;
            if self.retired[r] {
                continue;
            }
            let (latest, tl) = (self.round_ends[r].len() as Round - 1, t - self.births[r]);
            let mut plans = reception_round_plans(protocol, &self.bucket_state, latest, tl);
            let first = plans.next().expect("reception round 0");
            let dirs = (first.push, first.pull_serve);
            if !plans.all(|p| (p.push, p.pull_serve) == dirs) {
                return None;
            }
            self.uniform[r] = first;
            round.live += 1;
            round.silent |= !first.transmits();
            round.push |= first.push;
            round.pull |= first.pull_serve;
            // Someone serves pulls iff an informed node takes part.
            round.serves |= first.pull_serve
                && self.informed[r].list().iter().any(|&i| census.is_participating(i as usize));
        }
        (round.push || round.pull).then_some(round)
    }

    /// Sets `push_any` for every node that takes part and knows a live
    /// rumour whose uniform plan pushes: a frontier round's push gate when
    /// knowing a live rumour is not enough (some live rumour sends
    /// nothing).
    fn mark_pushers(&mut self, active_end: usize) {
        for &r in &self.activation_order[..active_end] {
            let r = r as usize;
            if self.retired[r] || !self.uniform[r].push {
                continue;
            }
            for &i in self.informed[r].list() {
                if !self.push_any[i as usize] && self.ledger.census.is_participating(i as usize) {
                    self.push_any[i as usize] = true;
                    self.plan_touched.push(i);
                }
            }
        }
    }

    /// Whether node `x` takes part and knew, before this round's
    /// exchanges, a live rumour whose uniform plan uses the direction
    /// `dir` picks (a frontier round's any-rumour transmit flag).
    fn sends_any(&self, x: usize, active_end: usize, dir: fn(&Plan) -> bool) -> bool {
        self.ledger.census.is_participating(x)
            && self.activation_order[..active_end].iter().any(|&r| {
                let r = r as usize;
                !self.retired[r] && dir(&self.uniform[r]) && self.informed[r].is_informed(x)
            })
    }

    /// The combined messages on a frontier round's listed channels (the
    /// frontier's): one per channel direction that some live rumour uses.
    fn frontier_messages(&self, active_end: usize) -> u64 {
        let fabric = &self.fabric;
        let mut used = 0u64;
        for (i, range) in fabric.rows(0..usize::MAX) {
            if range.is_empty() {
                continue;
            }
            let push = self.sends_any(i, active_end, |p| p.push);
            for c in range {
                let w = fabric.target(c).index();
                used += u64::from(push) + u64::from(self.sends_any(w, active_end, |p| p.pull_serve));
            }
        }
        used
    }

    /// Rumour `r`'s exchange over a frontier round's listed channels with
    /// its uniform `plan` (phase 6 of [`step`](Self::step)): a node sends
    /// if it knew the rumour before the round and takes part. Every copy
    /// is counted and a copy to an uninformed node marks it at once.
    /// Returns the rumour's push and pull transmissions on the listed
    /// channels (the booked ones are added by the caller).
    // rrb-lint: hot
    fn exchange_frontier(&mut self, r: usize, tl: Round, plan: Plan) -> (u64, u64) {
        let (fabric, census, informed) = (&self.fabric, &self.ledger.census, &mut self.informed[r]);
        let known = informed.len();
        let sends = |ix: &InformedIndex, x: usize| {
            ix.pos(x).is_some_and(|p| p < known) && census.is_participating(x)
        };
        let (mut push, mut pull) = (0u64, 0u64);
        if !plan.transmits() {
            return (push, pull);
        }
        for (i, range) in fabric.rows(0..usize::MAX) {
            if range.is_empty() {
                continue;
            }
            let pushes = plan.push && sends(informed, i);
            for c in range {
                let w = fabric.target(c).index();
                if pushes {
                    push += 1;
                    informed.mark(w, tl);
                }
                if plan.pull_serve && sends(informed, w) {
                    pull += 1;
                    informed.mark(i, tl);
                }
            }
        }
        (push, pull)
    }

    /// The general path's digest of rumour `r`'s round: receivers via the
    /// arena's touched list (newcomers are marked at `tl` and get their
    /// state at the informed list's tail), then the `known` nodes informed
    /// before the round that heard nothing, so counter-based protocols
    /// advance through silent rounds. Returns the number of newly informed
    /// nodes.
    // rrb-lint: hot
    fn digest(&mut self, protocol: &P, r: usize, tl: Round, known: usize) -> usize {
        let mut newly_informed = 0;
        self.arena.build();
        for dense in 0..self.arena.touched().len() {
            let i = self.arena.touched()[dense] as usize;
            let (pushes, pulls) = self.arena.segment(dense);
            self.scratch_obs.pushes.clear();
            self.scratch_obs.pulls.clear();
            self.scratch_obs.pushes.extend_from_slice(pushes);
            self.scratch_obs.pulls.extend_from_slice(pulls);
            if self.informed[r].mark(i, tl) {
                newly_informed += 1;
                self.informed_of[i] += 1;
                if self.ledger.census.is_effective(i) {
                    self.alive_informed[r] += 1;
                }
                // Sparse state layout: materialise the newcomer's
                // state at its informed-list position (the tail).
                self.states[r].push(protocol.init(false));
            }
            let pos = self.informed[r].pos(i).expect("touched receiver is informed");
            protocol.update(
                &mut self.states[r][pos],
                Some(self.informed[r].at_pos(pos)),
                tl,
                &self.scratch_obs,
            );
        }
        for idx in 0..known {
            let i = self.informed[r].list()[idx] as usize;
            if self.arena.heard(i) {
                continue; // already digested above
            }
            if self.ledger.census.is_suspended(i) {
                continue; // offline: protocol state is frozen until recovery
            }
            protocol.update(
                &mut self.states[r][idx],
                Some(self.informed[r].at_pos(idx)),
                tl,
                &self.empty_obs,
            );
        }
        newly_informed
    }

    /// Runs rounds until [`finished`](Self::finished) fires.
    pub fn run_to_completion<T: Topology + ?Sized, R: Rng + Clone + Send>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        rng: &mut R,
    ) {
        while !self.finished(protocol, config) {
            self.step(topo, protocol, config, rng);
        }
    }

    /// Finalises the run into a [`MultiRumorReport`].
    pub fn into_report(self) -> MultiRumorReport {
        let outcomes = (0..self.births.len())
            .map(|r| RumorOutcome {
                birth: self.births[r],
                origin: self.origins[r],
                informed: self.alive_informed[r],
                full_coverage_at: self.full_coverage_at[r],
                tx: self.tx[r],
            })
            .collect();
        MultiRumorReport {
            rounds: self.ledger.round,
            outcomes,
            channels: self.ledger.channels,
            combined_messages: self.combined,
            deliveries: self
                .informed
                .into_iter()
                .map(InformedIndex::into_informed_at)
                .collect(),
        }
    }
}

/// Simulator for **many concurrent rumours** sharing one channel fabric.
///
/// Every node opens channels once per round (per the protocol's choice
/// policy); each active rumour then runs the protocol's plan/update logic
/// against those shared channels with its own *local* clock (`age = global
/// round − birth`). This reproduces the situation the phone call model is
/// designed for: "messages are generated with high frequency \[so\] the cost
/// of establishing communication amortises nicely over all transmissions"
/// (§1). Rumours riding the same channel-direction in the same round are
/// combined into one message that succeeds or fails **atomically** under
/// transmission failures (§1.2).
///
/// The heavy lifting lives in [`MultiSimState`]; this type is the
/// convenience runner mirroring [`Simulation`](crate::Simulation).
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_engine::{protocols::FloodPushPull, MultiRumorSimulation, RumorInjection, SimConfig};
/// use rrb_graph::{gen, NodeId};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = gen::complete(64);
/// let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), SimConfig::default());
/// for i in 0..4 {
///     sim.inject(RumorInjection { birth: i, origin: NodeId::new(i as usize) });
/// }
/// let report = sim.run(&g, &mut rng);
/// assert!(report.all_delivered());
/// assert!(report.combining_ratio() <= 1.0);
/// ```
#[derive(Debug)]
pub struct MultiRumorSimulation<P: Protocol> {
    protocol: P,
    config: SimConfig,
    injections: Vec<RumorInjection>,
}

impl<P: Protocol> MultiRumorSimulation<P> {
    /// Creates an empty multi-rumour simulation.
    pub fn new(protocol: P, config: SimConfig) -> Self {
        MultiRumorSimulation { protocol, config, injections: Vec::new() }
    }

    /// Schedules a rumour injection.
    pub fn inject(&mut self, injection: RumorInjection) -> &mut Self {
        self.injections.push(injection);
        self
    }

    /// Number of scheduled rumours.
    pub fn rumor_count(&self) -> usize {
        self.injections.len()
    }

    /// Runs the simulation on a static topology until every rumour is
    /// delivered-or-quiescent, or the round cap is hit.
    pub fn run<T: Topology, R: Rng + Clone + Send>(&self, topo: &T, rng: &mut R) -> MultiRumorReport {
        let mut state = MultiSimState::new(&self.protocol, topo, &self.injections);
        state.run_to_completion(topo, &self.protocol, self.config, rng);
        state.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{force_all, FloodPush, FloodPushPull, Phased};
    use crate::{BoxedProbe, FailureModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_graph::{gen, Graph};

    #[test]
    fn single_rumor_matches_expectations() {
        let g = gen::complete(32);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), SimConfig::default());
        sim.inject(RumorInjection { birth: 0, origin: NodeId::new(0) });
        let report = sim.run(&g, &mut rng);
        assert!(report.all_delivered());
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].informed, 32);
        assert!(report.outcomes[0].latency().unwrap() < 30);
    }

    #[test]
    fn staggered_rumors_all_deliver() {
        let g = gen::complete(48);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), SimConfig::default());
        for i in 0..6u32 {
            sim.inject(RumorInjection { birth: i * 2, origin: NodeId::new(i as usize) });
        }
        assert_eq!(sim.rumor_count(), 6);
        let report = sim.run(&g, &mut rng);
        assert!(report.all_delivered());
        for o in &report.outcomes {
            assert!(o.full_coverage_at.unwrap() >= o.birth);
        }
    }

    #[test]
    fn combining_saves_messages_with_many_rumors() {
        let g = gen::complete(32);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), SimConfig::default());
        // Many rumours born together: their transmissions share channels.
        for i in 0..8 {
            sim.inject(RumorInjection { birth: 0, origin: NodeId::new(i) });
        }
        let report = sim.run(&g, &mut rng);
        assert!(report.all_delivered());
        assert!(
            report.combining_ratio() < 0.9,
            "expected combining to save messages, ratio {}",
            report.combining_ratio()
        );
        assert!(report.combined_messages <= report.total_rumor_tx());
    }

    #[test]
    fn deliveries_match_outcomes() {
        let g = gen::complete(24);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), SimConfig::default());
        sim.inject(RumorInjection { birth: 2, origin: NodeId::new(5) });
        let report = sim.run(&g, &mut rng);
        assert_eq!(report.deliveries.len(), 1);
        let d = &report.deliveries[0];
        assert_eq!(d[5], Some(0), "origin delivered at local round 0");
        let delivered = d.iter().filter(|x| x.is_some()).count();
        assert_eq!(delivered, report.outcomes[0].informed);
        // Latest local delivery + birth equals the global coverage round.
        let last_local = d.iter().flatten().max().unwrap();
        assert_eq!(
            report.outcomes[0].full_coverage_at.unwrap(),
            2 + last_local
        );
    }

    #[test]
    fn empty_simulation_is_trivial() {
        let g = gen::complete(8);
        let mut rng = SmallRng::seed_from_u64(4);
        let sim = MultiRumorSimulation::new(FloodPushPull::new(), SimConfig::default());
        let report = sim.run(&g, &mut rng);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.total_rumor_tx(), 0);
        assert!(report.all_delivered());
        assert_eq!(report.combining_ratio(), 1.0);
    }

    #[test]
    fn round_cap_respected() {
        let g = gen::cycle(256);
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = SimConfig::default().with_max_rounds(4);
        let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), cfg);
        sim.inject(RumorInjection { birth: 0, origin: NodeId::new(0) });
        let report = sim.run(&g, &mut rng);
        assert_eq!(report.rounds, 4);
        assert!(!report.all_delivered());
    }

    #[test]
    fn co_riding_rumors_share_transmission_fate() {
        // §1.2 regression: rumours combined into one message must succeed
        // or fail together. Rumours with identical birth and origin ride
        // exactly the same channel-directions, so under transmission
        // failures their delivery traces must stay identical — the old
        // per-rumour failure draws made them diverge almost surely.
        // Checked on the oblivious shortcut and on the general path.
        fn check<P: Protocol>(proto: P, label: &str) {
            let g = gen::complete(24);
            let cfg = SimConfig::default()
                .with_failures(FailureModel::transmissions(0.4))
                .with_max_rounds(300);
            let mut sim = MultiRumorSimulation::new(proto, cfg);
            for _ in 0..5 {
                sim.inject(RumorInjection { birth: 1, origin: NodeId::new(7) });
            }
            for seed in 0..4 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let report = sim.run(&g, &mut rng);
                for r in 1..5 {
                    assert_eq!(
                        report.deliveries[r], report.deliveries[0],
                        "{label}: co-riding rumour {r} diverged from rumour 0 (seed {seed})"
                    );
                    assert_eq!(report.outcomes[r].tx, report.outcomes[0].tx);
                }
            }
        }
        check(FloodPushPull::new(), "shortcut");
        check(force_all(FloodPushPull::new()), "general path");
    }

    #[test]
    fn combining_invariants_hold_under_failures() {
        // combining_ratio <= 1 and combined_messages <= total_rumor_tx
        // must hold under channel failures, transmission failures, and
        // both at once: a channel-direction only counts as a combined
        // message when at least one rumour transmits on it.
        // Checked on the oblivious shortcut and on the general path.
        fn check<P: Protocol + Clone>(proto: P, label: &str) {
            let g = gen::complete(24);
            let models = [
                FailureModel::channels(0.3),
                FailureModel::transmissions(0.3),
                FailureModel { channel_failure: 0.2, transmission_failure: 0.2, node_crash: 0.0 },
            ];
            for (mi, failures) in models.into_iter().enumerate() {
                let cfg = SimConfig::default().with_failures(failures).with_max_rounds(400);
                let mut sim = MultiRumorSimulation::new(proto.clone(), cfg);
                for i in 0..6u32 {
                    sim.inject(RumorInjection {
                        birth: i,
                        origin: NodeId::new(3 * i as usize),
                    });
                }
                for seed in 0..5 {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let report = sim.run(&g, &mut rng);
                    let total = report.total_rumor_tx();
                    assert!(total > 0, "{label}: model {mi} seed {seed} sent nothing");
                    assert!(
                        report.combined_messages <= total,
                        "{label}: model {mi} seed {seed}: combined > total"
                    );
                    assert!(
                        report.combining_ratio() <= 1.0,
                        "{label}: model {mi} seed {seed}: ratio {}",
                        report.combining_ratio()
                    );
                }
            }
        }
        check(FloodPushPull::new(), "shortcut");
        check(force_all(FloodPushPull::new()), "general path");
    }

    #[test]
    fn deterministic_with_failures() {
        let g = gen::complete(32);
        let cfg = SimConfig::default()
            .with_failures(FailureModel {
                channel_failure: 0.2,
                transmission_failure: 0.2,
                node_crash: 0.01,
            })
            .with_max_rounds(500);
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), cfg);
            for i in 0..4u32 {
                sim.inject(RumorInjection { birth: i * 2, origin: NodeId::new(i as usize) });
            }
            sim.run(&g, &mut rng)
        };
        assert_eq!(run(13), run(13));
    }

    /// Static topology with a fixed set of dead slots.
    struct PartiallyDead {
        g: Graph,
        dead: Vec<usize>,
    }

    impl Topology for PartiallyDead {
        fn node_count(&self) -> usize {
            rrb_graph::Graph::node_count(&self.g)
        }
        fn is_alive(&self, v: NodeId) -> bool {
            !self.dead.contains(&v.index())
        }
        fn stubs(&self, v: NodeId) -> &[NodeId] {
            self.g.neighbors(v)
        }
    }

    #[test]
    fn dead_origin_counts_no_alive_informed() {
        // Regression: a rumour injected at a dead node used to report
        // `informed == 1` while never counting towards coverage. The
        // alive-informed census must say 0 — nobody alive knows it.
        let topo = PartiallyDead { g: gen::complete(16), dead: vec![3] };
        let cfg = SimConfig::default().with_max_rounds(20);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut sim = MultiRumorSimulation::new(FloodPushPull::new(), cfg);
        sim.inject(RumorInjection { birth: 0, origin: NodeId::new(3) });
        sim.inject(RumorInjection { birth: 0, origin: NodeId::new(0) });
        let report = sim.run(&topo, &mut rng);
        assert_eq!(report.outcomes[0].informed, 0, "dead origin informs nobody");
        assert_eq!(report.outcomes[0].full_coverage_at, None);
        // The delivery trace still records the (dead) origin's creation.
        assert_eq!(report.deliveries[0][3], Some(0));
        // The co-injected healthy rumour covers all 15 alive nodes.
        assert_eq!(report.outcomes[1].informed, 15);
        assert!(report.outcomes[1].full_coverage_at.is_some());
    }

    #[test]
    fn crashed_nodes_leave_the_informed_census() {
        // Under a crash model `informed` must track alive-informed nodes
        // exactly: coverage implies informed == alive - crashed, and a run
        // whose origin crashed early can end with informed == 0.
        let g = gen::complete(48);
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default()
            .with_failures(FailureModel::crashes(0.02))
            .with_max_rounds(200);
        let mut exercised = 0;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut st = MultiSimState::new(
                &proto,
                &g,
                &[RumorInjection { birth: 0, origin: NodeId::new(0) }],
            );
            st.run_to_completion(&g, &proto, cfg, &mut rng);
            let crashed = st.crashed_count();
            let report = st.into_report();
            let o = &report.outcomes[0];
            assert!(
                o.informed <= 48 - crashed,
                "informed {} exceeds the {} alive uncrashed nodes (seed {seed})",
                o.informed,
                48 - crashed
            );
            if o.full_coverage_at.is_some() && crashed > 0 {
                exercised += 1;
            }
            if o.full_coverage_at.is_some() {
                assert_eq!(o.informed, 48 - crashed, "coverage census broke (seed {seed})");
            }
        }
        assert!(exercised >= 4, "only {exercised}/8 seeds crashed someone and covered");
    }

    /// The multi-rumour mirror of the single-engine arena guarantee:
    /// after a warm-up, every per-round scratch buffer keeps its capacity.
    /// Runs past full coverage (stop_at_coverage = false) so late rounds
    /// carry the maximum plan/receipt load.
    fn assert_steady_rounds_do_not_allocate<P: Protocol>(proto: &P, probe: Option<BoxedProbe>) {
        let g = gen::complete(64);
        let cfg = SimConfig::until_quiescent().with_max_rounds(100);
        let mut rng = SmallRng::seed_from_u64(33);
        let injections: Vec<RumorInjection> = (0..4)
            .map(|i| RumorInjection { birth: i, origin: NodeId::new(i as usize * 7) })
            .collect();
        let mut sim = MultiSimState::new(proto, &g, &injections);
        let probed = probe.is_some();
        sim.set_probe(probe);
        for _ in 0..30 {
            sim.step(&g, proto, cfg, &mut rng);
        }
        let warm = sim.scratch_capacities();
        for _ in 0..40 {
            sim.step(&g, proto, cfg, &mut rng);
            assert_eq!(
                sim.scratch_capacities(),
                warm,
                "per-round scratch buffers reallocated in round {} (probe: {probed})",
                sim.round()
            );
        }
    }

    /// Both round paths: flooding takes the oblivious shortcut, its
    /// `force_all` twin and `Phased` (past its deadline for the last
    /// rounds) the general arena + `update` path.
    fn assert_both_paths_do_not_allocate(probe: fn() -> Option<BoxedProbe>) {
        assert_steady_rounds_do_not_allocate(&FloodPushPull::new(), probe());
        assert_steady_rounds_do_not_allocate(&force_all(FloodPushPull::new()), probe());
        assert_steady_rounds_do_not_allocate(&Phased::new(3, 6, 60), probe());
    }

    #[test]
    fn steady_state_rounds_do_not_allocate() {
        assert_both_paths_do_not_allocate(|| None);
    }

    #[test]
    fn probe_is_byte_identical_and_counters_match_the_report() {
        // Multi-engine telemetry guarantee: instrumented runs are
        // byte-identical to bare runs, and the probe's totals agree with
        // the report (per-rumour tx summed, channels, rounds).
        use crate::telemetry::PhaseTimings;
        let g = gen::complete(48);
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default()
            .with_failures(FailureModel::transmissions(0.2))
            .with_max_rounds(300);
        let injections: Vec<RumorInjection> = (0..5)
            .map(|i| RumorInjection { birth: i, origin: NodeId::new(i as usize * 3) })
            .collect();
        let bare = {
            let mut rng = SmallRng::seed_from_u64(29);
            let mut sim = MultiSimState::new(&proto, &g, &injections);
            sim.run_to_completion(&g, &proto, cfg, &mut rng);
            sim.into_report()
        };
        let mut sim = MultiSimState::new(&proto, &g, &injections);
        sim.set_probe(Some(Box::new(PhaseTimings::new())));
        let mut rng = SmallRng::seed_from_u64(29);
        sim.run_to_completion(&g, &proto, cfg, &mut rng);
        let probe = sim.take_probe().expect("probe still installed");
        let timings =
            probe.as_any().downcast_ref::<PhaseTimings>().expect("concrete probe");
        let probed = sim.into_report();
        assert_eq!(bare, probed, "probe must not perturb the run");
        assert_eq!(timings.rounds() as u32, probed.rounds);
        assert_eq!(timings.tx(), probed.total_rumor_tx());
        assert_eq!(timings.push_tx() + timings.pull_tx(), probed.total_rumor_tx());
        assert!(timings.push_tx() > 0 && timings.pull_tx() > 0, "both directions counted");
        assert_eq!(timings.channels(), probed.channels);
        assert_eq!(
            timings.last_round().informed,
            probed.outcomes.iter().map(|o| o.informed).sum::<usize>()
        );
    }

    #[test]
    fn probed_steady_state_rounds_do_not_allocate() {
        use crate::telemetry::PhaseTimings;
        assert_both_paths_do_not_allocate(|| Some(Box::new(PhaseTimings::new())));
    }

    #[test]
    fn push_only_protocols_deliver_on_the_shared_fabric() {
        // The capability-gated sampling skip must engage on the multi
        // fabric (callers informed of no active rumour) without losing
        // deliveries.
        let g = gen::complete(64);
        let cfg = SimConfig::default().with_max_rounds(200);
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sim = MultiRumorSimulation::new(FloodPush::new(), cfg);
            for i in 0..3u32 {
                sim.inject(RumorInjection { birth: i * 3, origin: NodeId::new(i as usize) });
            }
            sim.run(&g, &mut rng)
        };
        let report = run(9);
        assert!(report.all_delivered());
        // Channel accounting includes the skipped callers' channels: one
        // per alive node per round under the STANDARD policy.
        assert_eq!(report.channels, 64 * report.rounds as u64);
        assert_eq!(report, run(9), "skip path must stay deterministic");
    }
}
