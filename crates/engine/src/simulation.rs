use std::time::Duration;

use rand::Rng;
use rayon::prelude::*;

use rrb_graph::NodeId;

use crate::census::AliveCensus;
use crate::choice::ChoiceState;
use crate::fabric::{frontier_allowed, ChannelFabric, InformedIndex, RoundGate, RoundKind};
use crate::failure::FaultState;
use crate::ledger::{ledger_installers, Ledger, MembershipDelta, SlotChange, Tally};
use crate::observation::{ObservationArena, RumorMeta};
use crate::protocol::reception_round_plans;
use crate::report::StopReason;
use crate::shard::{ShardLayout, ShardRuntime};
use crate::telemetry::{BoxedProbe, RoundCounters, ShardClock, StepPhase};
use crate::{
    FailureModel, NodeView, Observation, Plan, Protocol, Round, RunReport, Topology,
};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Hard cap on rounds (a protocol [`deadline`](Protocol::deadline)
    /// tightens it further).
    pub max_rounds: Round,
    /// Failure injection for channels and transmissions.
    pub failures: FailureModel,
    /// Record every round's [`RoundCounters`] in the report's history.
    pub record_history: bool,
    /// Stop as soon as every alive node is informed. Disable to measure the
    /// *total* cost a protocol incurs until its own termination rule fires —
    /// the distinction at the heart of the paper's message-complexity
    /// comparison.
    pub stop_at_coverage: bool,
    /// Number of node-slot shards the round loop fans out over (see
    /// `crate::shard`); `1` — the default — is one shard on the same
    /// path. Both round engines sample their channel fabric over this
    /// many caller segments; the single-rumour engine also fans its plan,
    /// exchange and update phases out over them, while the multi-rumour
    /// engine runs those serially. Results are **seed-for-seed identical**
    /// at any shard and thread count, because every model RNG draw is
    /// taken at its position in the main stream (the fast-path fabric's
    /// shards draw on clones of the generator moved to their exact
    /// offsets) and cross-shard effects merge in fixed shard order.
    /// Sharding pays off for large `n` on multi-core hosts.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 10_000,
            failures: FailureModel::NONE,
            record_history: false,
            stop_at_coverage: true,
            shards: 1,
        }
    }
}

impl SimConfig {
    /// Config that runs the protocol to quiescence (or the round cap) even
    /// after everyone is informed, counting the full message bill.
    pub fn until_quiescent() -> Self {
        SimConfig { stop_at_coverage: false, ..SimConfig::default() }
    }

    /// Builder-style: set the round cap.
    pub fn with_max_rounds(mut self, cap: Round) -> Self {
        self.max_rounds = cap;
        self
    }

    /// Builder-style: set the failure model.
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Builder-style: enable per-round history recording.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Builder-style: fan the round loop out over `shards` node-slot
    /// shards (results are identical for every value; see
    /// [`shards`](Self::shards)).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Convenience runner that owns a protocol and a reference to a static
/// topology. For dynamic topologies (churn) drive [`SimState`] directly.
#[derive(Debug)]
pub struct Simulation<'a, T, P> {
    topology: &'a T,
    protocol: P,
    config: SimConfig,
}

impl<'a, T: Topology, P: Protocol> Simulation<'a, T, P> {
    /// Creates a runner for `protocol` over `topology`.
    pub fn new(topology: &'a T, protocol: P, config: SimConfig) -> Self {
        Simulation { topology, protocol, config }
    }

    /// Access to the configured protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Runs a single broadcast started by `origin` and returns the report.
    pub fn run<R: Rng + Clone + Send>(&self, origin: NodeId, rng: &mut R) -> RunReport {
        let mut state = SimState::new(&self.protocol, self.topology.node_count(), origin);
        state.run_to_completion(self.topology, &self.protocol, self.config, rng);
        state.into_report(self.topology, self.config)
    }
}

/// Mutable state of an in-flight broadcast; step it manually to interleave
/// topology mutations (churn) between rounds.
///
/// # Dynamic membership
///
/// Aliveness is tracked by an incrementally-maintained [`AliveCensus`]
/// (snapshotted from the topology on the first round). Slot *growth* is
/// adopted automatically each round, but aliveness flips on existing slots
/// must be reported: after mutating the overlay between rounds, hand the
/// churn step's changes to [`apply_membership`](Self::apply_membership).
/// Coverage then updates from `O(1)` counters instead of per-round
/// rescans.
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_engine::{protocols::FloodPush, SimConfig, SimState};
/// use rrb_graph::{gen, NodeId};
///
/// let mut rng = SmallRng::seed_from_u64(9);
/// let g = gen::complete(64);
/// let proto = FloodPush::new();
/// let mut sim = SimState::new(&proto, 64, NodeId::new(0));
/// let cfg = SimConfig::default();
/// while !sim.finished(&g, &proto, cfg) {
///     sim.step(&g, &proto, cfg, &mut rng);
///     // ... run a churn step on a dynamic topology here, then report it:
///     // sim.apply_membership(&proto, events.delta());
/// }
/// let report = sim.into_report(&g, cfg);
/// assert!(report.all_informed());
/// ```
#[derive(Debug)]
pub struct SimState<P: Protocol> {
    states: Vec<P::State>,
    /// Reception round per node plus the informed index list — the plan,
    /// quiescence and coverage phases iterate `O(informed)` instead of
    /// `O(n)` (shared with the multi-rumour engine via `fabric.rs`).
    informed: InformedIndex,
    /// Census (synced from the topology on the first round, then updated
    /// by crash sampling and the membership delta hooks), fault plan,
    /// probe, round and channel total.
    ledger: Ledger,
    /// Coverage numerator and instant, transmission totals, stop reason
    /// and history.
    tally: Tally,
    creator: NodeId,
    choice: ChoiceState,
    /// Latest round in which a node was newly informed (0: the creator).
    /// Every informed node's reception round lies in `0..=latest_informed_at`,
    /// which is all an oblivious protocol's planning depends on.
    latest_informed_at: Round,
    /// A `protocol.init(false)` state to plan reception-round buckets with
    /// (an oblivious protocol's plan ignores it).
    bucket_state: P::State,
    /// Every standing plan is `SILENT` (so a silent round of an oblivious
    /// protocol need not rewrite them).
    plans_silent: bool,
    // Scratch buffers reused across rounds (allocation-free once warm).
    fabric: ChannelFabric,
    plans: Vec<Plan>,
    /// An oblivious protocol's plans this round, by reception round in
    /// `0..=latest_informed_at`.
    round_plans: Vec<Plan>,
    empty_obs: Observation,
    /// Round-phase scratch (per-shard arenas, outboxes, informed lists);
    /// built on the first round, when `config.shards` is known.
    shard_rt: Option<ShardRuntime>,
}

impl<P: Protocol> SimState<P> {
    /// Initialises a broadcast of a rumour created by `origin` at time 0 on
    /// a topology with `node_count` slots.
    pub fn new(protocol: &P, node_count: usize, origin: NodeId) -> Self {
        assert!(origin.index() < node_count, "origin out of range");
        let mut states: Vec<P::State> =
            (0..node_count).map(|_| protocol.init(false)).collect();
        states[origin.index()] = protocol.init(true);
        let mut informed = InformedIndex::new(node_count);
        informed.mark(origin.index(), 0);
        SimState {
            states,
            informed,
            ledger: Ledger::default(),
            tally: Tally::default(),
            creator: origin,
            choice: ChoiceState::new(node_count, protocol.choice_policy()),
            latest_informed_at: 0,
            bucket_state: protocol.init(false),
            plans_silent: true,
            fabric: ChannelFabric::new(node_count),
            plans: vec![Plan::SILENT; node_count],
            round_plans: Vec::new(),
            empty_obs: Observation::default(),
            shard_rt: None,
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

    /// Number of informed alive-or-dead slots.
    pub fn informed_count(&self) -> usize {
        self.informed.len()
    }

    /// Round in which node `v` became informed, if it has.
    pub fn informed_at(&self, v: NodeId) -> Option<Round> {
        self.informed.at(v.index())
    }

    /// Accommodates topology growth (new node slots join uninformed).
    fn ensure_len(&mut self, protocol: &P, node_count: usize) {
        while self.states.len() < node_count {
            self.states.push(protocol.init(false));
            self.plans.push(Plan::SILENT);
        }
        self.informed.ensure_len(node_count);
        self.choice.ensure_len(node_count);
    }

    /// Applies one churn step's membership changes between rounds, after
    /// the overlay has made them, in the order the run ledger fixes (see
    /// [`MembershipDelta`]). A newcomer's slot, fresh or recycled, starts
    /// over uninformed: informedness, protocol state, standing plan and
    /// choice bookkeeping belonged to a departed peer, if any. An informed
    /// leaver drops out of the coverage numerator as the denominator
    /// shrinks. `O(1)` per slot.
    // rrb-lint: hot
    pub fn apply_membership(&mut self, protocol: &P, delta: MembershipDelta<'_>) {
        self.ensure_len(protocol, delta.slot_end());
        self.ledger.apply_membership(delta, |change| match change {
            SlotChange::Arrive(i) => {
                if self.informed.unmark(i).is_some() {
                    if let Some(rt) = self.shard_rt.as_mut() {
                        rt.forget(i);
                    }
                }
                self.states[i] = protocol.init(false);
                self.plans[i] = Plan::SILENT;
                self.choice.reset_slot(i);
            }
            SlotChange::Leave(i) => {
                if self.informed.is_informed(i) {
                    self.tally.alive_informed -= 1;
                }
            }
        });
        self.ledger.debug_check_informed(&self.informed, self.tally.alive_informed, None);
    }

    /// Whether the run has reached a stopping condition.
    pub fn finished<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
    ) -> bool {
        if self.tally.stop.is_some() {
            return true;
        }
        self.tally.sync_census(&mut self.ledger, topo, &self.informed);
        let round = self.ledger.round;
        let census = &self.ledger.census;
        let cap = protocol.deadline().unwrap_or(config.max_rounds).min(config.max_rounds);
        // Covered (now or at a past instant) first; then quiescence: every
        // informed node permanently silent means no rumour can ever move
        // again. Checked before the cap (the protocol's deadline, if
        // tighter) so a protocol that went silent exactly at its deadline
        // reports Quiescent, not RoundCap.
        self.tally.stop = if config.stop_at_coverage && self.tally.covered(&self.ledger) {
            Some(StopReason::FullCoverage)
        } else if self.informed.all_quiescent(protocol, &self.states, census, round + 1) {
            Some(StopReason::Quiescent)
        } else if round >= cap {
            Some(StopReason::RoundCap)
        } else {
            None
        };
        self.tally.stop.is_some()
    }

    /// Alive, uncrashed nodes — the coverage denominator, `O(1)` from the
    /// census counters.
    pub fn effective_alive(&self) -> usize {
        self.ledger.census.effective_alive()
    }

    /// Number of crash-stop events so far.
    pub fn crashed_count(&self) -> usize {
        self.ledger.census.crashed_count()
    }

    /// Heap capacities of every per-round scratch buffer. Once the engine is
    /// warm these must stay constant round over round — the arena refactor's
    /// "steady-state rounds allocate nothing" guarantee, asserted by tests.
    #[doc(hidden)]
    pub fn scratch_capacities(&self) -> Vec<usize> {
        let mut caps = self.fabric.capacities().to_vec();
        caps.extend([self.plans.capacity(), self.round_plans.capacity(), self.informed.capacity()]);
        if let Some(rt) = &self.shard_rt {
            caps.extend(rt.capacities());
        }
        caps
    }

    /// Executes one synchronous round of the phone call model and returns
    /// its record.
    ///
    /// Every alive node opens channels per the protocol's
    /// [`ChoicePolicy`](crate::ChoicePolicy); informed nodes transmit per
    /// their [`Plan`]; observations are digested at the end of the round.
    /// Failed channels carry no transmissions (establishment failed — no
    /// cost); failed transmissions are *counted but not delivered* (the copy
    /// was sent and lost).
    ///
    /// The generator is `Clone + Send` because with two or more shards the
    /// loss-free fabric under `Distinct(k)` samples each shard's callers
    /// on a clone moved to that shard's offset in the stream; `rng` ends
    /// where one shard leaves it.
    // rrb-lint: hot
    pub fn step<T: Topology + ?Sized, R: Rng + Clone + Send>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        rng: &mut R,
    ) -> RoundCounters {
        let n = topo.node_count();
        self.ensure_len(protocol, n);
        self.tally.sync_census(&mut self.ledger, topo, &self.informed);
        self.ledger.round += 1;
        let t = self.ledger.round;
        // Phase attribution clock: armed only when a probe is installed,
        // so the bare engine reads no clocks (see `telemetry.rs`).
        self.ledger.arm_clock();

        // Fault phase (shared with the other engines, see `ledger.rs`):
        // the fault plan's node events, then i.i.d. crash-stop sampling.
        let failures = self.ledger.fault_phase(
            topo,
            config.failures,
            rng,
            |i| self.informed.at(i),
            |i| {
                if self.informed.is_informed(i) {
                    self.tally.alive_informed -= 1;
                }
            },
        );
        self.ledger.lap(StepPhase::Faults);

        // Phase a: informed nodes decide their plans. Plans are RNG-free
        // and read only state settled above, so they are made before the
        // fabric, which they gate. This and phases b–d fan out over
        // `config.shards` node-slot shards on the rayon pool: the fault
        // phase and the transmission pre-draw are serial, the fast-path
        // fabric's shards draw at their exact offsets in the one stream,
        // and the rest is RNG-free, so the results are byte-identical at
        // any shard and thread count (`tests/sharding.rs`).
        let frontier_able = frontier_allowed(protocol.choice_policy(), failures, self.ledger.faults.as_ref());
        let (any_pull, declared) = self.plan_sharded(n, t, protocol, config.shards, frontier_able);
        self.ledger.lap(StepPhase::Plan);

        // Phase b: every alive node opens channels through the round gate
        // shared with the multi-rumour engine (`fabric.rs`): the plans say
        // who pushes, who knows the rumour and whether anyone pull-serves,
        // and a silent round of an oblivious protocol may skip the
        // sampling and phases c–d altogether. A frontier round plans no
        // node: a complete node sends the one plan, an incomplete one
        // nothing, and only the callers next to an incomplete slot are
        // sampled. On the fast path under `Distinct(k)` each shard samples
        // its own callers.
        let frontier = declared == RoundKind::Frontier;
        let (informed, plans, census) = (&self.informed, &self.plans, &self.ledger.census);
        let layout = self.shard_rt.as_ref().expect("shard runtime").layout;
        self.fabric.sample_round(
            topo,
            protocol,
            &mut self.choice,
            failures,
            self.ledger.faults.as_ref(),
            census.blocked_slice(),
            RoundGate {
                uninformed: |i: usize| !informed.is_informed(i),
                // Asked in a frontier round only of an incomplete caller,
                // which is uninformed or does not take part: it is silent.
                pushes: |i: usize| !frontier && plans[i].push,
                lacks: |i: usize| !informed.is_informed(i) || !census.is_alive(i),
                any_pull,
                kind: declared,
            },
            layout,
            &mut self.ledger.probe,
            rng,
        );
        self.ledger.lap(StepPhase::Fabric);
        let (push_tx, pull_tx, newly_informed) = match self.fabric.kind() {
            RoundKind::Sampled => {
                // A frontier round the fabric sampled whole (its incomplete
                // slots have too many stubs) is planned now: the exchange
                // reads the plans.
                let any_pull = match declared {
                    RoundKind::Frontier => self.plan_nodes(n, t, protocol),
                    _ => any_pull,
                };
                // Phases c–d (exchange / update-digest).
                self.phases_sharded(n, t, protocol, false, any_pull, failures, rng)
            }
            RoundKind::Silent | RoundKind::Frontier => {
                // A frontier round's booked channels each carry every
                // direction of the one plan to an informed node (a silent
                // round books none); the exchange walks the listed ones.
                let (booked, plan) = (self.fabric.counters().booked_channels, self.round_plans[0]);
                let (push, pull, newly) = if self.fabric.listed() {
                    self.phases_sharded(n, t, protocol, true, any_pull, failures, rng)
                } else {
                    self.ledger.lap(StepPhase::Exchange);
                    self.ledger.lap(StepPhase::Update);
                    (0, 0, 0)
                };
                (push + booked * u64::from(plan.push), pull + booked * u64::from(plan.pull_serve), newly)
            }
        };

        // Phase e: totals, coverage instant, probe and history (`ledger.rs`).
        let counters = RoundCounters { newly_informed, push_tx, pull_tx, ..self.fabric.counters() };
        self.tally.close_round(&mut self.ledger, counters, &self.informed, config.record_history)
    }

    /// Phase a: declares the round's kind and plans its nodes. Builds the
    /// shard runtime on the first round. Returns whether any node
    /// pull-serves this round, and the kind.
    ///
    /// An oblivious protocol is asked once per reception round in
    /// `0..=latest_informed_at`, into `round_plans`. If none transmits, the
    /// round is silent: no node is planned and every standing plan stays
    /// (or is reset once to) `SILENT`. If the round is `frontier_able` (see
    /// [`frontier_allowed`]) and every entry transmits in the same directions,
    /// it is a frontier round: no node is planned, and the standing plans
    /// are stale until the next sampled round writes them (a node's plan
    /// is the uniform entry if it is informed and takes part, `SILENT`
    /// otherwise). Otherwise each node takes its reception round's plan
    /// ([`plan_nodes`](Self::plan_nodes)).
    fn plan_sharded(
        &mut self,
        n: usize,
        t: Round,
        protocol: &P,
        shards: usize,
        frontier_able: bool,
    ) -> (bool, RoundKind) {
        let informed = &self.informed;
        let rt = self.shard_rt.get_or_insert_with(|| ShardRuntime::new(n, shards, informed.list()));
        rt.ensure_len(n);
        if protocol.capabilities().oblivious {
            self.round_plans.clear();
            let latest = self.latest_informed_at;
            self.round_plans.extend(reception_round_plans(protocol, &self.bucket_state, latest, t));
            let first = self.round_plans[0];
            if !self.round_plans.iter().any(Plan::transmits) {
                if !self.plans_silent {
                    self.plans.fill(Plan::SILENT);
                    self.plans_silent = true;
                }
                return (false, RoundKind::Silent);
            }
            if frontier_able
                && self.round_plans.iter().all(|p| (p.push, p.pull_serve) == (first.push, first.pull_serve))
            {
                // Someone pull-serves iff an informed node takes part.
                let census = &self.ledger.census;
                let serves = first.pull_serve
                    && self.informed.list().iter().any(|&i| census.is_participating(i as usize));
                return (serves, RoundKind::Frontier);
            }
        }
        (self.plan_nodes(n, t, protocol), RoundKind::Sampled)
    }

    /// Plans every informed node: one task per shard over its own informed
    /// list, writing disjoint per-shard chunks of the plan buffer. Returns
    /// whether any node pull-serves.
    fn plan_nodes(&mut self, n: usize, t: Round, protocol: &P) -> bool {
        self.plans_silent = false;
        let rt = self.shard_rt.as_ref().expect("shard runtime");
        let layout = rt.layout;
        let probing = self.ledger.probe.is_some();
        let states = &self.states;
        let informed = &self.informed;
        let census = &self.ledger.census;
        let oblivious = protocol.capabilities().oblivious;
        let round_plans = oblivious.then_some(self.round_plans.as_slice());
        let creator = self.creator;
        let mut rest: &mut [Plan] = &mut self.plans[..n];
        let mut items: Vec<(usize, &mut [Plan], &[u32])> = Vec::with_capacity(layout.count());
        for s in 0..layout.count() {
            let (chunk, tail) = rest.split_at_mut(layout.range(s, n).len());
            rest = tail;
            items.push((s, chunk, rt.informed_lists[s].as_slice()));
        }
        let results: Vec<(bool, Duration)> = items
            .into_par_iter()
            .map(|(s, chunk, list)| {
                let sc = ShardClock::armed(probing);
                let base = layout.range(s, n).start;
                let any_pull = plan_list(
                    protocol, states, informed, census, round_plans, creator, t, base, chunk, list,
                );
                (any_pull, sc.elapsed())
            })
            .collect();
        let mut any_pull = false;
        for (s, (shard_pull, d)) in results.into_iter().enumerate() {
            any_pull |= shard_pull;
            if let Some(p) = self.ledger.probe.as_deref_mut() {
                p.on_shard_phase(s, StepPhase::Plan, d);
            }
        }
        any_pull
    }

    /// Phases c–d: one task per contiguous node-slot shard for exchange
    /// and merge-digest, with the per-call transmission outcomes
    /// pre-drawn serially by the fabric so the fan-out touches no RNG.
    /// Cross-shard push receipts travel through per-(source → target)
    /// outboxes merged in ascending source-shard order, which reproduces
    /// the global caller order — see `crate::shard` for the determinism
    /// argument. Runs after [`plan_sharded`](Self::plan_sharded), which
    /// builds the runtime. In a `frontier` round the plans are not
    /// written: a node's plan is the uniform entry if it is informed and
    /// takes part, `SILENT` otherwise.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn phases_sharded<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        t: Round,
        protocol: &P,
        frontier: bool,
        any_pull: bool,
        failures: FailureModel,
        rng: &mut R,
    ) -> (u64, u64, usize) {
        let probing = self.ledger.probe.is_some();
        let oblivious = protocol.capabilities().oblivious;
        let rt = self.shard_rt.as_mut().expect("shard runtime");
        let layout = rt.layout;
        let count = layout.count();

        // Serial pre-draw of per-call transmission outcomes, skipped
        // entirely when the transmission rate is zero (nothing to draw,
        // and never in a frontier round, which is loss-free).
        if failures.transmission_failure > 0.0 {
            let plans = &self.plans;
            self.fabric.draw_transmissions(
                failures,
                |i| plans[i].push,
                |w| any_pull && plans[w].pull_serve,
                rng,
            );
        }

        // Phase c (fanned out): each shard walks its own callers'
        // channels. Pull receipts land directly in the shard's local
        // arena (the receiver is the caller). With several shards, push
        // receipts — same-shard ones included — go through the outboxes
        // so the merge phase can reproduce the global caller order; a
        // lone shard's caller order already is that order, so it records
        // them directly too. An oblivious protocol's copies to nodes
        // informed before the round are counted and dropped.
        let (push_tx, pull_tx) = {
            let (fabric, informed, probe) = (&self.fabric, &self.informed, &mut self.ledger.probe);
            let skip = oblivious.then_some(informed);
            if frontier {
                // Callers and usable callees are alive and unblocked, so
                // such a node takes part iff the census has it alive. An
                // oblivious protocol's copies carry no header it reads, so
                // every informed node may send the first entry.
                let (uniform, census) = (self.round_plans[0], &self.ledger.census);
                let plan_of = |i: usize| {
                    if informed.is_informed(i) && census.is_alive(i) { uniform } else { Plan::SILENT }
                };
                exchange_shards(fabric, rt, n, any_pull, skip, probe, plan_of)
            } else {
                let plans = &self.plans;
                exchange_shards(fabric, rt, n, any_pull, skip, probe, |i: usize| plans[i])
            }
        };
        self.ledger.lap(StepPhase::Exchange);

        // Phase d (fanned out): each shard merges its incoming push
        // receipts (ascending source-shard order) into its arena, builds
        // it, and digests its own receivers and informed-but-silent
        // nodes against disjoint chunks of the protocol-state vector.
        // Marks are deferred: tasks only *read* the pre-round informed
        // index and report newly-informed slots for the serial finalize.
        {
            let informed = &self.informed;
            let census = &self.ledger.census;
            let empty_obs = &self.empty_obs;
            let ShardRuntime { arenas, outboxes, informed_lists, newly, scratch, .. } = &mut *rt;
            let outboxes = &*outboxes;
            let taken_arenas = std::mem::take(arenas);
            let taken_newly = std::mem::take(newly);
            let taken_scratch = std::mem::take(scratch);
            let mut rest: &mut [P::State] = &mut self.states[..n];
            let mut items: Vec<(
                usize,
                ObservationArena,
                &mut [P::State],
                Vec<u32>,
                Observation,
                &[u32],
            )> = Vec::with_capacity(count);
            for (s, ((arena, nl), sc)) in
                taken_arenas.into_iter().zip(taken_newly).zip(taken_scratch).enumerate()
            {
                let (chunk, tail) = rest.split_at_mut(layout.range(s, n).len());
                rest = tail;
                items.push((s, arena, chunk, nl, sc, informed_lists[s].as_slice()));
            }
            let results: Vec<_> = items
                .into_par_iter()
                .map(|(s, mut arena, chunk, mut nl, mut sc_obs, list)| {
                    let scl = ShardClock::armed(probing);
                    let base = layout.range(s, n).start;
                    shard_merge_digest(
                        protocol,
                        oblivious,
                        outboxes,
                        informed,
                        census,
                        empty_obs,
                        t,
                        s,
                        base,
                        &mut arena,
                        chunk,
                        &mut nl,
                        &mut sc_obs,
                        list,
                    );
                    (arena, nl, sc_obs, scl.elapsed())
                })
                .collect();
            for (s, (arena, nl, sc_obs, d)) in results.into_iter().enumerate() {
                arenas.push(arena);
                newly.push(nl);
                scratch.push(sc_obs);
                if let Some(p) = self.ledger.probe.as_deref_mut() {
                    p.on_shard_phase(s, StepPhase::Update, d);
                }
            }
        }

        // Serial finalize, fixed shard order: apply the deferred marks,
        // maintain the census numerator and the per-shard informed lists.
        let mut newly_informed = 0usize;
        for s in 0..count {
            for ix in 0..rt.newly[s].len() {
                let gi = rt.newly[s][ix];
                let i = gi as usize;
                if self.informed.mark(i, t) {
                    newly_informed += 1;
                    self.latest_informed_at = t;
                    if self.ledger.census.is_effective(i) {
                        self.tally.alive_informed += 1;
                    }
                    rt.informed_lists[s].push(gi);
                }
            }
        }
        self.ledger.lap(StepPhase::Update);
        (push_tx, pull_tx, newly_informed)
    }

    /// Runs rounds until a stopping condition fires.
    pub fn run_to_completion<T: Topology + ?Sized, R: Rng + Clone + Send>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        rng: &mut R,
    ) {
        while !self.finished(topo, protocol, config) {
            self.step(topo, protocol, config, rng);
        }
    }

    /// Finalises the run into a [`RunReport`].
    pub fn into_report<T: Topology + ?Sized>(self, topo: &T, _config: SimConfig) -> RunReport {
        self.tally.into_report(self.ledger, topo, &self.informed)
    }
}

/// Plans the informed nodes in `list` into `chunk[i - base]` and returns
/// whether any of them pull-serves. Everyone else keeps a standing SILENT
/// plan, so planning is O(informed), not O(n). With `round_plans` (an
/// oblivious protocol's plans by reception round) a node takes its
/// round's entry instead of a `plan` call. Called once per shard over
/// that shard's chunk. RNG-free and read-only on all shared state —
/// thread scheduling cannot affect it.
#[allow(clippy::too_many_arguments)]
// rrb-lint: hot
fn plan_list<P: Protocol>(
    protocol: &P,
    states: &[P::State],
    informed: &InformedIndex,
    census: &AliveCensus,
    round_plans: Option<&[Plan]>,
    creator: NodeId,
    t: Round,
    base: usize,
    chunk: &mut [Plan],
    list: &[u32],
) -> bool {
    let mut any_pull = false;
    for &gi in list {
        let i = gi as usize;
        let v = NodeId::new(i);
        let plan = match informed.at(i) {
            Some(at) if census.is_participating(i) => match round_plans {
                Some(table) => table[at as usize],
                None => {
                    let view =
                        NodeView { informed_at: at, is_creator: v == creator, state: &states[i] };
                    protocol.plan(view, t)
                }
            },
            _ => Plan::SILENT,
        };
        any_pull |= plan.pull_serve;
        chunk[i - base] = plan;
    }
    any_pull
}

/// Phase c over every shard of `rt`: each shard's [`shard_exchange`]
/// runs as one task, with `plan_of(i)` as node `i`'s plan; returns the
/// round's push and pull transmissions and reports each shard's time to
/// `probe`.
fn exchange_shards<F: Fn(usize) -> Plan + Sync>(
    fabric: &ChannelFabric,
    rt: &mut ShardRuntime,
    n: usize,
    any_pull: bool,
    skip_informed: Option<&InformedIndex>,
    probe: &mut Option<BoxedProbe>,
    plan_of: F,
) -> (u64, u64) {
    let probing = probe.is_some();
    let layout = rt.layout;
    let ShardRuntime { arenas, outboxes, .. } = rt;
    let taken_arenas = std::mem::take(arenas);
    let taken_outboxes = std::mem::take(outboxes);
    let items: Vec<_> = taken_arenas
        .into_iter()
        .zip(taken_outboxes)
        .enumerate()
        .map(|(s, (a, o))| (s, a, o))
        .collect();
    let results: Vec<_> = items
        .into_par_iter()
        .map(|(s, mut arena, mut outbox)| {
            let sc = ShardClock::armed(probing);
            arena.begin_round();
            for row in outbox.iter_mut() {
                row.clear();
            }
            let (ptx, pltx) = shard_exchange(
                fabric,
                &plan_of,
                layout,
                layout.range(s, n),
                any_pull,
                skip_informed,
                &mut arena,
                &mut outbox,
            );
            (arena, outbox, ptx, pltx, sc.elapsed())
        })
        .collect();
    let mut push_tx = 0u64;
    let mut pull_tx = 0u64;
    for (s, (arena, outbox, ptx, pltx, d)) in results.into_iter().enumerate() {
        arenas.push(arena);
        outboxes.push(outbox);
        push_tx += ptx;
        pull_tx += pltx;
        if let Some(p) = probe.as_deref_mut() {
            p.on_shard_phase(s, StepPhase::Exchange, d);
        }
    }
    (push_tx, pull_tx)
}

/// One shard's exchange fan-out over its own callers' channels. Delivery
/// outcomes come from the fabric's serial pre-draw — no RNG here. Pull receipts are
/// recorded straight into the shard-local arena (the receiver is the
/// caller). Push receipts go through the per-target-shard outbox, except
/// with a single shard: there every receiver is local and caller order
/// is the merge order, so they are recorded straight into the arena too
/// (the outbox would hold every receipt a second time). Callee plans are
/// read only when `any_pull` says some node pull-serves. With `skip_informed`
/// (an oblivious protocol) a copy to a node informed before the round is
/// counted but not stored: it would inform nobody and feed no update.
#[allow(clippy::too_many_arguments)]
// rrb-lint: hot
fn shard_exchange<F: Fn(usize) -> Plan>(
    fabric: &ChannelFabric,
    plan_of: &F,
    layout: ShardLayout,
    range: std::ops::Range<usize>,
    any_pull: bool,
    skip_informed: Option<&InformedIndex>,
    arena: &mut ObservationArena,
    outbox: &mut [Vec<(u32, RumorMeta)>],
) -> (u64, u64) {
    let base = range.start;
    let direct = layout.count() == 1;
    let stores = |w: usize| skip_informed.is_none_or(|ix| !ix.is_informed(w));
    let mut push_tx = 0u64;
    let mut pull_tx = 0u64;
    for i in range {
        let out = fabric.out_range(i);
        if out.is_empty() {
            continue;
        }
        let caller_plan = plan_of(i);
        let caller_stores = stores(i);
        for c in out {
            if !fabric.usable(c) {
                continue;
            }
            let w = fabric.target(c).index();
            // push: caller -> callee (failed transmissions are counted
            // but not delivered: the copy was sent and lost).
            if caller_plan.push {
                push_tx += 1;
                if fabric.push_arrives(c) && stores(w) {
                    if direct {
                        arena.record_push(w - base, caller_plan.meta);
                    } else {
                        outbox[layout.shard_of(w)].push((w as u32, caller_plan.meta));
                    }
                }
            }
            // pull: callee -> caller.
            if any_pull {
                let callee_plan = plan_of(w);
                if callee_plan.pull_serve {
                    pull_tx += 1;
                    if fabric.pull_arrives(c) && caller_stores {
                        arena.record_pull(i - base, callee_plan.meta);
                    }
                }
            }
        }
    }
    (push_tx, pull_tx)
}

/// One shard's merge + digest fan-out: merge incoming push receipts in
/// ascending source-shard order (sources are contiguous ascending slot
/// ranges, so this reproduces the global caller order), build the shard
/// arena, digest touched receivers and informed-but-silent nodes into
/// this shard's state chunk. Newly informed slots are only *reported*
/// (`newly`); the serial finalize applies the marks. An `oblivious`
/// protocol's updates change nothing, so none is made, and its exchange
/// stored copies to uninformed receivers only: every touched slot is new.
#[allow(clippy::too_many_arguments)]
// rrb-lint: hot
fn shard_merge_digest<P: Protocol>(
    protocol: &P,
    oblivious: bool,
    outboxes: &[Vec<Vec<(u32, RumorMeta)>>],
    informed: &InformedIndex,
    census: &AliveCensus,
    empty_obs: &Observation,
    t: Round,
    s: usize,
    base: usize,
    arena: &mut ObservationArena,
    chunk: &mut [P::State],
    newly: &mut Vec<u32>,
    scratch: &mut Observation,
    list: &[u32],
) {
    for row in outboxes {
        for &(w, meta) in &row[s] {
            arena.record_push(w as usize - base, meta);
        }
    }
    newly.clear();
    if oblivious {
        newly.extend(arena.touched().iter().map(|&li| (base + li as usize) as u32));
        return;
    }
    arena.build();
    for dense in 0..arena.touched().len() {
        let li = arena.touched()[dense] as usize;
        let gi = base + li;
        let (pushes, pulls) = arena.segment(dense);
        scratch.pushes.clear();
        scratch.pulls.clear();
        scratch.pushes.extend_from_slice(pushes);
        scratch.pulls.extend_from_slice(pulls);
        // A receiver's update sees `informed_at` as its original round —
        // or `t` when new. Marks are deferred to the finalize, so give
        // that view explicitly.
        let at = match informed.at(gi) {
            Some(at) => at,
            None => {
                newly.push(gi as u32);
                t
            }
        };
        protocol.update(&mut chunk[li], Some(at), t, scratch);
    }
    // Informed nodes that heard nothing still observe the (empty) round,
    // so counter-based protocols advance through silent rounds. `list` is
    // the shard's pre-round informed list — newly informed receivers are
    // not in it yet (the finalize appends them).
    for &gi in list {
        let i = gi as usize;
        let li = i - base;
        if arena.heard(li) {
            continue; // already digested above
        }
        if census.is_suspended(i) {
            continue; // offline: protocol state is frozen until recovery
        }
        protocol.update(&mut chunk[li], informed.at(i), t, empty_obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{force_all, FloodPush, FloodPushPull, Phased, SilentProtocol, WithCaps};
    use crate::telemetry::tests::RecordRounds;
    use crate::telemetry::BoxedProbe;
    use crate::Capabilities;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_graph::gen;

    #[test]
    fn flood_push_covers_complete_graph() {
        let g = gen::complete(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let sim = Simulation::new(&g, FloodPush::new(), SimConfig::default());
        let report = sim.run(NodeId::new(0), &mut rng);
        assert!(report.all_informed());
        assert_eq!(report.stop, StopReason::FullCoverage);
        // Coverage of K64 by push takes ~log2(64)+ln(64) ≈ 10 rounds.
        assert!(report.rounds < 40, "took {} rounds", report.rounds);
        assert!(report.total_tx() > 0);
    }

    #[test]
    fn silent_protocol_quiesces_immediately() {
        let g = gen::complete(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let sim = Simulation::new(&g, SilentProtocol, SimConfig::default());
        let report = sim.run(NodeId::new(3), &mut rng);
        assert_eq!(report.informed_count, 1);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.total_tx(), 0);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn round_cap_stops_run() {
        let g = gen::cycle(1000); // slow topology
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = SimConfig::default().with_max_rounds(5);
        let sim = Simulation::new(&g, FloodPush::new(), cfg);
        let report = sim.run(NodeId::new(0), &mut rng);
        assert_eq!(report.stop, StopReason::RoundCap);
        assert_eq!(report.rounds, 5);
        assert!(!report.all_informed());
        // Push along a cycle moves at most 1 hop per side per round, plus the
        // origin: at most 11 informed after 5 rounds.
        assert!(report.informed_count <= 11);
    }

    #[test]
    fn history_recording() {
        let g = gen::complete(32);
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = SimConfig::default().with_history();
        let sim = Simulation::new(&g, FloodPushPull::new(), cfg);
        let report = sim.run(NodeId::new(0), &mut rng);
        assert_eq!(report.history.len(), report.rounds as usize);
        // Informed counts must be non-decreasing.
        let mut last = 0;
        for rec in &report.history {
            assert!(rec.informed >= last);
            last = rec.informed;
        }
        assert_eq!(last, 32);
        // Totals match the sum of the per-round records.
        let push_sum: u64 = report.history.iter().map(|r| r.push_tx).sum();
        let pull_sum: u64 = report.history.iter().map(|r| r.pull_tx).sum();
        assert_eq!(push_sum, report.push_tx);
        assert_eq!(pull_sum, report.pull_tx);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::complete(32);
        let cfg = SimConfig::default().with_history();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Simulation::new(&g, FloodPushPull::new(), cfg).run(NodeId::new(0), &mut rng)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        let c = run(8);
        assert!(a != c || a.rounds == c.rounds); // different seed almost surely differs
    }

    #[test]
    fn deterministic_with_failures() {
        // The slow path (failure sampling) must be as reproducible as the
        // fast path: identical seeds give byte-identical reports.
        let g = gen::complete(48);
        let cfg = SimConfig::default()
            .with_failures(FailureModel::channels(0.2).with_crashes(0.01))
            .with_history()
            .with_max_rounds(500);
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Simulation::new(&g, FloodPushPull::new(), cfg).run(NodeId::new(0), &mut rng)
        };
        assert_eq!(run(21), run(21));
    }

    /// Arena-reuse guarantee: after a 20-round warm-up on K64, each of 40
    /// more rounds leaves every per-round scratch buffer's capacity
    /// unchanged — steady-state rounds never regrow a buffer, and a buffer
    /// rebuilt each round shows up as soon as its capacity moves. Runs
    /// past full coverage (stop_at_coverage = false) so late rounds carry
    /// the maximum receipt load.
    fn assert_steady_rounds_do_not_allocate<P: Protocol>(proto: &P, probe: Option<BoxedProbe>) {
        let g = gen::complete(64);
        let cfg = SimConfig::until_quiescent().with_max_rounds(60);
        let mut rng = SmallRng::seed_from_u64(33);
        let mut sim = SimState::new(proto, 64, NodeId::new(0));
        let probed = probe.is_some();
        sim.set_probe(probe);
        for _ in 0..20 {
            sim.step(&g, proto, cfg, &mut rng);
        }
        let warm = sim.scratch_capacities();
        for _ in 0..40 {
            let rec = sim.step(&g, proto, cfg, &mut rng);
            assert_eq!(
                sim.scratch_capacities(),
                warm,
                "per-round scratch buffers reallocated in round {} (probe: {probed})",
                rec.round
            );
        }
    }

    /// Algorithm 1's shape: every phase within the warm-up, then 40 rounds
    /// of its tail, in which the fabric stores no channel of a quiet caller.
    fn phased() -> Phased {
        Phased::new(3, 6, 60)
    }

    /// The same schedule declared oblivious (its plan reads only the round
    /// and the reception round): on K64 everyone is informed by round 6,
    /// so its tail is a silent stretch that plans no node, and its
    /// exchange drops copies to informed nodes.
    fn oblivious_phased() -> WithCaps<Phased> {
        WithCaps(phased(), Capabilities { oblivious: true, ..Capabilities::ALL })
    }

    /// A run's report, counters, final generator and, per round, the kind
    /// of round the fabric made.
    fn run_recording<P: Protocol>(
        proto: &P,
        g: &rrb_graph::Graph,
        cfg: SimConfig,
    ) -> (RunReport, Vec<RoundCounters>, SmallRng, Vec<RoundKind>) {
        let n = Topology::node_count(g);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut sim = SimState::new(proto, n, NodeId::new(0));
        sim.set_probe(Some(Box::new(RecordRounds::default())));
        let mut kinds = Vec::new();
        while !sim.finished(g, proto, cfg) {
            sim.step(g, proto, cfg, &mut rng);
            kinds.push(sim.fabric.kind());
        }
        let rounds = RecordRounds::of(sim.take_probe());
        (sim.into_report(g, cfg), rounds, rng, kinds)
    }

    /// Asserts that `r` is what a frontier round records: some channels
    /// booked, each carrying the directions used, with their words jumped.
    fn assert_frontier(r: &RoundCounters) {
        let carried = [r.push_tx, r.pull_tx].iter().all(|&d| d == 0 || d >= r.booked_channels);
        assert!(r.tx > 0 && r.booked_channels > 0 && carried, "not a frontier round: {r:?}");
        assert!(r.jumped_words > 0 && r.jumped_words <= r.fabric_words, "{r:?}");
    }

    #[test]
    fn silent_rounds_skip_the_fabric_but_count_and_draw_the_same() {
        // An oblivious schedule's silent tail skips the fabric (no caller
        // lists are built) yet counts the channels and words its general
        // twin samples, and leaves the generator where the twin does. Its
        // silent rounds skip about 8 192 words each, enough to jump. Its
        // all-push and pull rounds 7-13 are frontier rounds, with crashes
        // too (a crashed slot is incomplete): the twin's counters, except
        // that the booked channels' words are jumped where the twin draws
        // them. Every other counter, the report and the generator are
        // equal.
        let g = gen::random_regular(2048, 8, &mut SmallRng::seed_from_u64(1)).expect("graph");
        let schedule = Phased::new(2, 12, 16);
        let oblivious = WithCaps(schedule, Capabilities { oblivious: true, ..Capabilities::ALL });
        for failures in [FailureModel::NONE, FailureModel::crashes(0.002)] {
            let cfg = SimConfig::until_quiescent().with_history().with_failures(failures);
            let (report, rounds, rng, kinds) = run_recording(&schedule, &g, cfg);
            let skip = run_recording(&oblivious, &g, cfg);
            let case = format!("{failures:?}");
            assert_eq!(rng, skip.2, "{case}: the generator must end where sampling does");
            assert!(kinds.iter().all(|&k| k == RoundKind::Sampled), "the general path samples");
            assert_eq!(rounds.len(), skip.1.len(), "{case}");
            let expected: Vec<RoundCounters> = rounds
                .iter()
                .zip(&skip.1)
                .zip(&skip.3)
                .map(|((general, native), &kind)| match kind {
                    RoundKind::Frontier => {
                        assert_frontier(native);
                        let (jumped_words, booked_channels) = (native.jumped_words, native.booked_channels);
                        RoundCounters { jumped_words, booked_channels, ..*general }
                    }
                    _ => *general,
                })
                .collect();
            assert_eq!(skip.1, expected, "{case}: per-round counters");
            assert_eq!(skip.0, RunReport { history: expected, ..report }, "{case}");
            let count = |want: RoundKind| skip.3.iter().filter(|&&k| k == want).count();
            assert_eq!(count(RoundKind::Frontier), 7, "{case}: rounds 7-13 are frontier rounds");
            let silent: Vec<&RoundCounters> = (skip.3.iter().zip(&rounds))
                .filter(|(&k, _)| k == RoundKind::Silent)
                .map(|(_, r)| r)
                .collect();
            assert_eq!(silent.len(), 3, "{case}: rounds 14-16 are silent");
            for r in silent {
                assert_eq!(r.tx, 0);
                assert!(r.fabric_words > 4096 && r.jumped_words == r.fabric_words, "{r:?}");
            }
        }
    }

    #[test]
    fn steady_state_rounds_do_not_allocate() {
        assert_steady_rounds_do_not_allocate(&FloodPushPull::new(), None);
        assert_steady_rounds_do_not_allocate(&phased(), None);
        assert_steady_rounds_do_not_allocate(&oblivious_phased(), None);
    }

    #[test]
    fn quiet_callers_keep_their_channels_out_of_the_fabric() {
        // Push rounds store only the pushers' channels, silent rounds
        // none, the pull round all of them; every round still counts
        // every opened channel.
        let g = gen::complete(64);
        let proto = Phased::new(2, 4, 8);
        let cfg = SimConfig::until_quiescent();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sim = SimState::new(&proto, 64, NodeId::new(0));
        while !sim.finished(&g, &proto, cfg) {
            let informed_before = sim.informed_count();
            let rec = sim.step(&g, &proto, cfg, &mut rng);
            assert_eq!(rec.channels, 64 * 4, "round {}", rec.round);
            let stored = sim.fabric.len() as u64;
            match rec.round {
                1 => assert_eq!(stored, 4, "only the origin pushes"),
                3 | 4 => assert_eq!(stored, 4 * informed_before as u64),
                5 => assert_eq!(stored, 64 * 4, "the pull round opens every caller"),
                _ => assert_eq!(stored, rec.push_tx, "round {}", rec.round),
            }
        }
        assert_eq!(sim.round(), 8);
    }

    #[test]
    fn transmission_failures_are_counted_but_not_delivered() {
        let g = gen::complete(16);
        let mut rng = SmallRng::seed_from_u64(5);
        // With 99% transmission loss coverage takes many transmissions.
        let cfg = SimConfig::default()
            .with_failures(FailureModel::transmissions(0.9))
            .with_max_rounds(2000);
        let sim = Simulation::new(&g, FloodPush::new(), cfg);
        let report = sim.run(NodeId::new(0), &mut rng);
        assert!(report.all_informed());
        // Far more transmissions than the failure-free case needs.
        assert!(report.total_tx() > 16 * 4);
    }

    #[test]
    fn channel_failures_slow_coverage() {
        let g = gen::complete(32);
        let run = |p: f64, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = SimConfig::default()
                .with_failures(if p > 0.0 {
                    FailureModel::channels(p)
                } else {
                    FailureModel::NONE
                })
                .with_max_rounds(5000);
            Simulation::new(&g, FloodPush::new(), cfg).run(NodeId::new(0), &mut rng)
        };
        let mut slow = 0u32;
        let mut fast = 0u32;
        for seed in 0..10 {
            fast += run(0.0, seed).rounds;
            slow += run(0.5, seed).rounds;
        }
        assert!(slow > fast, "failures should slow coverage: {slow} vs {fast}");
    }

    #[test]
    fn crashed_nodes_are_excluded_from_coverage() {
        // A crash can kill the creator before it spreads (a legitimate
        // Monte-Carlo failure), so aggregate over seeds: accounting must be
        // exact in every run, and most runs must both crash someone and
        // still inform all survivors.
        let g = gen::complete(64);
        let cfg = SimConfig::default()
            .with_failures(FailureModel::crashes(0.02))
            .with_max_rounds(500);
        let proto = FloodPushPull::new();
        let mut crashed_and_covered = 0;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sim = SimState::new(&proto, 64, NodeId::new(0));
            sim.run_to_completion(&g, &proto, cfg, &mut rng);
            let crashed = sim.crashed_count();
            let report = sim.into_report(&g, cfg);
            assert_eq!(report.alive_count, 64 - crashed, "accounting broke (seed {seed})");
            // Either the rumour died with the crashed creator (coverage 0)
            // or every survivor learned it.
            assert!(
                report.all_informed() || report.informed_count == 0,
                "partial coverage {} impossible on K64 without caps (seed {seed})",
                report.coverage()
            );
            if crashed > 0 && report.all_informed() {
                crashed_and_covered += 1;
            }
        }
        assert!(
            crashed_and_covered >= 4,
            "only {crashed_and_covered}/8 seeds crashed someone and still covered"
        );
    }

    #[test]
    fn crashes_can_kill_the_broadcast_origin_gracefully() {
        // Extreme crash rate: the run must still terminate cleanly.
        let g = gen::complete(16);
        let mut rng = SmallRng::seed_from_u64(10);
        let cfg = SimConfig::default()
            .with_failures(FailureModel::crashes(0.4))
            .with_max_rounds(200);
        let report =
            Simulation::new(&g, FloodPushPull::new(), cfg).run(NodeId::new(0), &mut rng);
        assert!(report.rounds <= 200);
        assert!(report.coverage() <= 1.0);
    }

    #[test]
    fn creator_view_is_flagged() {
        // The creator is informed at round 0 and FloodPush starts pushing in
        // round 1.
        let g = gen::complete(4);
        let proto = FloodPush::new();
        let mut sim = SimState::new(&proto, 4, NodeId::new(2));
        assert_eq!(sim.informed_at(NodeId::new(2)), Some(0));
        assert_eq!(sim.informed_at(NodeId::new(0)), None);
        let mut rng = SmallRng::seed_from_u64(0);
        let rec = sim.step(&g, &proto, SimConfig::default(), &mut rng);
        assert!(rec.push_tx >= 1);
    }

    #[test]
    #[should_panic(expected = "origin out of range")]
    fn origin_must_be_in_range() {
        let proto = FloodPush::new();
        let _ = SimState::<FloodPush>::new(&proto, 4, NodeId::new(9));
    }

    #[test]
    fn push_only_skip_is_deterministic_and_covers() {
        let g = gen::complete(128);
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Simulation::new(&g, FloodPush::new(), SimConfig::default().with_history())
                .run(NodeId::new(0), &mut rng)
        };
        let a = run(11);
        assert_eq!(a, run(11));
        assert!(a.all_informed());
    }

    #[test]
    fn push_only_skip_still_counts_unopened_channels() {
        // The skip must not change the channels metric: skipped callers'
        // would-be channels are counted deterministically (min(k, deg)).
        let g = gen::complete(48);
        let step_channels = |skip: bool| {
            let mut rng = SmallRng::seed_from_u64(7);
            if skip {
                let proto = FloodPush::new();
                let mut sim = SimState::new(&proto, 48, NodeId::new(0));
                sim.step(&g, &proto, SimConfig::default(), &mut rng).channels
            } else {
                let proto = force_all(FloodPush::new());
                let mut sim = SimState::new(&proto, 48, NodeId::new(0));
                sim.step(&g, &proto, SimConfig::default(), &mut rng).channels
            }
        };
        let skipped = step_channels(true);
        let sampled = step_channels(false);
        assert_eq!(skipped, sampled);
        assert_eq!(skipped, 48); // STANDARD policy: one channel per node.
    }

    #[test]
    fn skip_never_engages_for_pull_using_protocols() {
        // A pull-serving protocol (capabilities ALL) must take the exact
        // pre-skip code path: byte-identical to the `force_all` wrapper.
        let g = gen::complete(64);
        let cfg = SimConfig::default().with_history();
        let native = {
            let mut rng = SmallRng::seed_from_u64(5);
            Simulation::new(&g, FloodPushPull::new(), cfg).run(NodeId::new(2), &mut rng)
        };
        let forced = {
            let mut rng = SmallRng::seed_from_u64(5);
            Simulation::new(&g, force_all(FloodPushPull::new()), cfg).run(NodeId::new(2), &mut rng)
        };
        assert_eq!(native, forced);
    }

    #[test]
    fn skip_never_engages_for_stateful_policies() {
        // The memoryless-policy query must keep the skip off for
        // SequentialMemory and Cyclic policies even under a push-only
        // protocol: sampling them mutates per-node state (rings, cursors),
        // so the run must be byte-identical to the `force_all` wrapper that
        // disables every capability shortcut.
        let g = gen::complete(48);
        let cfg = SimConfig::default().with_history().with_max_rounds(500);
        for policy in [
            crate::ChoicePolicy::SequentialMemory { window: 3 },
            crate::ChoicePolicy::Cyclic,
        ] {
            let native = {
                let mut rng = SmallRng::seed_from_u64(15);
                Simulation::new(&g, FloodPush::with_policy(policy), cfg)
                    .run(NodeId::new(2), &mut rng)
            };
            let forced = {
                let mut rng = SmallRng::seed_from_u64(15);
                Simulation::new(&g, force_all(FloodPush::with_policy(policy)), cfg)
                    .run(NodeId::new(2), &mut rng)
            };
            assert_eq!(native, forced, "stateful policy {policy:?} diverged");
            assert!(native.all_informed());
        }
    }

    /// Static graph with mutable per-slot aliveness, for exercising the
    /// membership delta hooks without a full overlay.
    struct DynAlive {
        g: rrb_graph::Graph,
        alive: Vec<bool>,
    }

    impl Topology for DynAlive {
        fn node_count(&self) -> usize {
            rrb_graph::Graph::node_count(&self.g)
        }
        fn is_alive(&self, v: NodeId) -> bool {
            self.alive[v.index()]
        }
        fn stubs(&self, v: NodeId) -> &[NodeId] {
            self.g.neighbors(v)
        }
    }

    #[test]
    fn leave_deltas_shrink_the_coverage_denominator() {
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default().with_max_rounds(100);
        let mut topo = DynAlive { g: gen::complete(24), alive: vec![true; 24] };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sim = SimState::new(&proto, 24, NodeId::new(0));
        sim.step(&topo, &proto, cfg, &mut rng);
        // Peer 5 departs between rounds; the census shrinks by one whether
        // or not it was already informed.
        topo.alive[5] = false;
        sim.apply_membership(&proto, MembershipDelta { left: &[NodeId::new(5)], ..MembershipDelta::default() });
        assert_eq!(sim.effective_alive(), 23);
        sim.run_to_completion(&topo, &proto, cfg, &mut rng);
        let report = sim.into_report(&topo, cfg);
        assert_eq!(report.alive_count, 23);
        assert!(report.all_informed(), "survivors must all be informed");
        assert_eq!(report.informed_count, 23);
    }

    #[test]
    fn coverage_stop_accounts_for_informed_leavers() {
        // Depart the *origin* right after round 1: its copy leaves the
        // numerator with it, so coverage only fires once every survivor is
        // informed — the run must still terminate with exact accounting.
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default().with_max_rounds(100);
        let mut topo = DynAlive { g: gen::complete(16), alive: vec![true; 16] };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sim = SimState::new(&proto, 16, NodeId::new(3));
        sim.step(&topo, &proto, cfg, &mut rng);
        topo.alive[3] = false;
        sim.apply_membership(&proto, MembershipDelta { left: &[NodeId::new(3)], ..MembershipDelta::default() });
        sim.run_to_completion(&topo, &proto, cfg, &mut rng);
        let report = sim.into_report(&topo, cfg);
        assert_eq!(report.alive_count, 15);
        assert_eq!(report.informed_count, 15);
        assert_eq!(report.stop, StopReason::FullCoverage);
    }

    #[test]
    fn push_only_skip_counts_channels_with_crashes() {
        // The skip must count skipped callers' channels identically to the
        // sampled path while part of the network has crash-stopped. Only
        // the first step is comparable — the two paths consume different
        // numbers of RNG draws, so the streams diverge afterwards — but
        // crash sampling runs before any target sampling, so within that
        // step both paths crash the exact same nodes.
        let g = gen::complete(64);
        let cfg = SimConfig::default().with_failures(FailureModel::crashes(0.3));
        let skipped = {
            let proto = FloodPush::new();
            let mut sim = SimState::new(&proto, 64, NodeId::new(0));
            let mut rng = SmallRng::seed_from_u64(9);
            sim.step(&g, &proto, cfg, &mut rng).channels
        };
        let sampled = {
            let proto = force_all(FloodPush::new());
            let mut sim = SimState::new(&proto, 64, NodeId::new(0));
            let mut rng = SmallRng::seed_from_u64(9);
            sim.step(&g, &proto, cfg, &mut rng).channels
        };
        assert_eq!(skipped, sampled);
        // With p = 0.3 the fixed seed crashes a nonzero, non-total subset,
        // so the counts above genuinely exercise the crashed-caller branch.
        assert!(skipped > 0 && skipped < 64, "channels = {skipped}");
    }

    #[test]
    fn probe_is_byte_identical_and_counters_match_the_report() {
        // Telemetry guarantee: a probe makes no RNG draws, so an
        // instrumented run's report is byte-identical to a bare run, the
        // probe's counter totals agree with the report exactly, and the
        // report's history is, record for record, what the probe received.
        use crate::telemetry::PhaseTimings;
        let g = gen::complete(48);
        let proto = FloodPushPull::new();
        for shards in [1, 3] {
            let cfg = SimConfig::default()
                .with_failures(FailureModel::channels(0.1).with_crashes(0.005))
                .with_history()
                .with_max_rounds(300)
                .with_shards(shards);
            let run = |probe: Option<BoxedProbe>| {
                let mut sim = SimState::new(&proto, 48, NodeId::new(0));
                sim.set_probe(probe);
                let mut rng = SmallRng::seed_from_u64(19);
                sim.run_to_completion(&g, &proto, cfg, &mut rng);
                let probe = sim.take_probe();
                (sim.into_report(&g, cfg), probe)
            };
            let (bare, _) = run(None);
            let (probed, probe) = run(Some(Box::new(PhaseTimings::new())));
            let probe = probe.expect("probe still installed");
            let timings =
                probe.as_any().downcast_ref::<PhaseTimings>().expect("concrete probe");
            assert_eq!(bare, probed, "probe must not perturb the run");
            assert_eq!(timings.rounds(), probed.rounds);
            assert_eq!(timings.push_tx(), probed.push_tx);
            assert_eq!(timings.pull_tx(), probed.pull_tx);
            assert_eq!(timings.tx(), probed.total_tx());
            assert_eq!(timings.channels(), probed.channels);
            assert_eq!(timings.last_round().informed, probed.informed_count);
            assert_eq!(timings.last_round().alive, probed.alive_count);
            // Every executed round was attributed to the six phases.
            let total_ms: f64 = timings.phase_ms().iter().sum();
            assert!(total_ms >= 0.0);
            assert!(timings.peak_rss_kib().unwrap_or(1) > 0);
            let (recorded, probe) = run(Some(Box::new(RecordRounds::default())));
            assert_eq!(recorded, bare, "shards {shards}");
            assert_eq!(recorded.history, RecordRounds::of(probe), "shards {shards}");
        }
    }

    #[test]
    fn probed_sharded_runs_time_the_fabric_per_shard() {
        // The fast-path fabric fans out over the shards and reports each
        // shard's share; a lossy round samples in one segment and reports
        // none.
        use crate::telemetry::PhaseTimings;
        let g = gen::random_regular(4096, 8, &mut SmallRng::seed_from_u64(3)).expect("graph");
        let proto = FloodPushPull::new();
        for (failures, fanned_out) in [(FailureModel::NONE, true), (FailureModel::channels(0.1), false)] {
            let cfg = SimConfig::default().with_failures(failures).with_shards(2);
            let mut sim = SimState::new(&proto, 4096, NodeId::new(0));
            sim.set_probe(Some(Box::new(PhaseTimings::new())));
            sim.run_to_completion(&g, &proto, cfg, &mut SmallRng::seed_from_u64(8));
            let probe = sim.take_probe().expect("probe still installed");
            let timings = probe.as_any().downcast_ref::<PhaseTimings>().expect("concrete probe");
            let rows = timings.shard_phase_ms();
            assert_eq!(rows.len(), 2, "{failures:?}");
            for row in rows {
                let fabric = row[StepPhase::Fabric.index()];
                assert_eq!(fabric > 0.0, fanned_out, "{failures:?}: shard fabric {fabric} ms");
                assert!(row[StepPhase::Exchange.index()] > 0.0, "{failures:?}");
            }
        }
    }

    #[test]
    fn probe_counts_skipped_draws_under_push_only_skip() {
        use crate::telemetry::PhaseTimings;
        let g = gen::complete(64);
        let proto = FloodPush::new(); // push-only: the sampling skip engages
        let mut sim = SimState::new(&proto, 64, NodeId::new(0));
        sim.set_probe(Some(Box::new(PhaseTimings::new())));
        let mut rng = SmallRng::seed_from_u64(23);
        sim.run_to_completion(&g, &proto, SimConfig::default(), &mut rng);
        let probe = sim.take_probe().unwrap();
        let timings = probe.as_any().downcast_ref::<PhaseTimings>().unwrap();
        assert!(
            timings.skipped_draws() > 0,
            "uninformed callers' draws must be counted as skipped"
        );
        assert!(timings.skipped_draws() <= timings.channels());
    }

    #[test]
    fn probed_steady_state_rounds_do_not_allocate() {
        // The no-allocation guarantee must hold with a probe installed:
        // PhaseTimings accumulates into fixed-size storage.
        use crate::telemetry::PhaseTimings;
        assert_steady_rounds_do_not_allocate(
            &FloodPushPull::new(),
            Some(Box::new(PhaseTimings::new())),
        );
        assert_steady_rounds_do_not_allocate(&phased(), Some(Box::new(PhaseTimings::new())));
        assert_steady_rounds_do_not_allocate(
            &oblivious_phased(),
            Some(Box::new(PhaseTimings::new())),
        );
    }

    use crate::failure::{
        AdversarySpec, AdversaryTarget, FaultEvent, FaultPlan, FaultState, GilbertElliott,
        OutageSpec,
    };

    fn run_with_plan(
        plan: &FaultPlan,
        origin: usize,
        seed: u64,
        fault_seed: u64,
        cfg: SimConfig,
    ) -> RunReport {
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        let mut sim = SimState::new(&proto, 32, NodeId::new(origin));
        sim.set_faults(Some(FaultState::new(plan, 32, fault_seed)));
        let mut rng = SmallRng::seed_from_u64(seed);
        sim.run_to_completion(&g, &proto, cfg, &mut rng);
        sim.into_report(&g, cfg)
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        // Back-compat guarantee: an installed-but-empty plan takes the
        // exact pre-fault code paths and RNG stream.
        let cfg = SimConfig::default().with_history();
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        let bare = {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut sim = SimState::new(&proto, 32, NodeId::new(0));
            sim.run_to_completion(&g, &proto, cfg, &mut rng);
            sim.into_report(&g, cfg)
        };
        let planned = run_with_plan(&FaultPlan::default(), 0, 3, 99, cfg);
        assert_eq!(bare, planned);
    }

    #[test]
    fn scripted_partition_stalls_coverage_until_heal() {
        // Acceptance scenario: partition K32 into two components for rounds
        // [1, 12); coverage plateaus at the origin's component, then the
        // heal lets the rumour jump across and finish.
        let plan = FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 1, until: 12, parts: 2 }],
            ..FaultPlan::default()
        };
        let cfg = SimConfig::default().with_history().with_max_rounds(200);
        let report = run_with_plan(&plan, 0, 17, 18, cfg);
        assert!(report.all_informed());
        let heal = plan.heal_round().unwrap();
        assert_eq!(heal, 12);
        // While partitioned only the origin's residue class (16 nodes) is
        // reachable; on K32 flooding saturates it well inside the window.
        for rec in report.history.iter().filter(|r| r.round < heal) {
            assert!(rec.informed <= 16, "round {}: {} informed", rec.round, rec.informed);
        }
        let stalled = report.history.iter().find(|r| r.informed == 16).unwrap();
        assert!(stalled.round < heal, "component never saturated pre-heal");
        // Full coverage only after the heal.
        assert!(report.full_coverage_at.unwrap() >= heal);
    }

    #[test]
    fn fault_plans_are_deterministic_given_seeds() {
        // The whole menagerie at once (burst chains, outages, a scripted
        // loss window, an adversary): same (run seed, fault seed) pair must
        // reproduce the report byte for byte.
        let plan = FaultPlan {
            burst: Some(GilbertElliott::new(0.2, 0.4, 0.02, 0.7)),
            schedule: vec![FaultEvent::LossWindow {
                from: 3,
                until: 8,
                channel: Some(0.3),
                transmission: None,
            }],
            adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 1, 3)),
            outages: Some(OutageSpec::new(0.05, 2, 4)),
        };
        let cfg = SimConfig::default().with_history().with_max_rounds(500);
        let a = run_with_plan(&plan, 31, 21, 77, cfg);
        let b = run_with_plan(&plan, 31, 21, 77, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn transient_outages_delay_but_do_not_shrink_coverage() {
        // Suspended nodes stay in the denominator and recover with state
        // intact, so the broadcast still reaches everyone and nobody is
        // counted as crashed.
        let plan = FaultPlan {
            outages: Some(OutageSpec::new(0.2, 2, 5)),
            ..FaultPlan::default()
        };
        let cfg = SimConfig::default().with_max_rounds(1000);
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        let mut sim = SimState::new(&proto, 32, NodeId::new(0));
        sim.set_faults(Some(FaultState::new(&plan, 32, 5)));
        let mut rng = SmallRng::seed_from_u64(6);
        sim.run_to_completion(&g, &proto, cfg, &mut rng);
        assert_eq!(sim.crashed_count(), 0);
        let report = sim.into_report(&g, cfg);
        assert_eq!(report.alive_count, 32);
        assert!(report.all_informed());
    }

    #[test]
    fn adversary_exhausts_its_budget_and_survivors_still_cover() {
        let plan = FaultPlan {
            adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 2, 6)),
            ..FaultPlan::default()
        };
        let cfg = SimConfig::default().with_max_rounds(200);
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        // Degrees are all equal on K32, so the deterministic tie-break
        // crashes the lowest indices first — keep the origin out of reach.
        let mut sim = SimState::new(&proto, 32, NodeId::new(31));
        sim.set_faults(Some(FaultState::new(&plan, 32, 1)));
        let mut rng = SmallRng::seed_from_u64(2);
        sim.run_to_completion(&g, &proto, cfg, &mut rng);
        assert_eq!(sim.crashed_count(), 6);
        assert_eq!(sim.fault_state().unwrap().adversary_budget_left(), 0);
        let report = sim.into_report(&g, cfg);
        assert_eq!(report.alive_count, 26);
        assert!(report.all_informed());
    }

    #[test]
    fn earliest_informed_adversary_decapitates_the_broadcast() {
        // With budget 1 aimed at the earliest-informed node, round 1 kills
        // the origin before it ever opens a channel: the rumour dies.
        let plan = FaultPlan {
            adversary: Some(AdversarySpec::new(AdversaryTarget::EarliestInformed, 1, 1)),
            ..FaultPlan::default()
        };
        let cfg = SimConfig::default().with_max_rounds(50);
        let report = run_with_plan(&plan, 5, 9, 9, cfg);
        assert_eq!(report.informed_count, 0);
        assert_eq!(report.alive_count, 31);
    }
}
