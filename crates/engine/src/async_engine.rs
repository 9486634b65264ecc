//! Deterministic asynchronous event-queue engine.
//!
//! The round engines advance every node in lockstep; this third engine
//! drops the global clock. Each node fires its push/pull exchange on its
//! own [`ClockSpec`] timer, rumour copies spend a [`LatencySpec`]-drawn
//! time in flight, and everything runs off one pending-event binary heap
//! keyed by `(time_bits, node, tie_seq)` — a **total, deterministic**
//! order, so async runs are seed-for-seed reproducible exactly like the
//! synchronous engines.
//!
//! # Event ordering and the round-model limit
//!
//! Times are non-negative `f64`s compared via their IEEE-754 bit patterns
//! (order-preserving for non-negative values); equal times resolve by
//! node id, then by a global insertion counter (`tie_seq`). Ordering by
//! *node before insertion order* is load-bearing: a node's `Fire` at time
//! `t` is scheduled strictly before any same-instant delivery to it can
//! exist, so under uniform unit-interval clocks and zero latency every
//! node plans on the *previous* instant's informedness — no same-instant
//! push cascade. That makes the fixed-rate zero-latency limit the same
//! stochastic process as the round model for push protocols, which is
//! the calibration contract proved in `tests/calibration.rs`. (Pull is
//! genuinely more alive under asynchrony: a node informed earlier within
//! the same instant can already serve a later same-instant pull, which
//! rounds cannot express.)
//!
//! # Time-windowed faults
//!
//! A [`FaultPlan`](crate::FaultPlan) is round-keyed. The async engine
//! maps continuous time to the plan's clock by `round(T) = ceil(T)`, and
//! advances [`FaultState::begin_round`](crate::FaultState::begin_round)
//! once per integer boundary crossed — so a partition scripted for
//! rounds `[2, 6)` holds for times in `(1, 5]`, adversary/outage
//! sampling keeps its per-round cadence, and an absent plan costs
//! nothing, exactly as in the round engines.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use rrb_graph::NodeId;

use crate::choice::{sample_targets, ChoiceState};
use crate::clock::NodeClocks;
use crate::fabric::InformedIndex;
use crate::failure::FaultState;
use crate::ledger::{ledger_installers, Ledger, Tally};
use crate::observation::RumorMeta;
use crate::report::StopReason;
use crate::telemetry::{RoundCounters, StepPhase};
use crate::{
    ClockSpec, LatencySpec, NodeView, Observation, Plan, Protocol, Round, RunReport, SimConfig,
    Topology,
};

/// Total event order: time first (IEEE-754 bits of a non-negative `f64`),
/// then node, then global insertion sequence. Deriving `Ord` on this
/// field order *is* the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    pub(crate) time_bits: u64,
    pub(crate) node: u32,
    pub(crate) tie_seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The node's clock fired: open channels and exchange.
    Fire,
    /// A rumour copy arrives at the node (`pull` marks the direction it
    /// travelled, for the observation split).
    Deliver { meta: RumorMeta, pull: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingEvent {
    pub(crate) key: EventKey,
    pub(crate) kind: EventKind,
}

impl PartialOrd for PendingEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[inline]
fn time_to_bits(t: f64) -> u64 {
    debug_assert!(t.is_finite() && t >= 0.0, "event time must be finite and >= 0, got {t}");
    t.to_bits()
}

#[inline]
fn bits_to_time(b: u64) -> f64 {
    f64::from_bits(b)
}

/// The fault plan's round corresponding to continuous time `t`: round `r`
/// owns times in `(r - 1, r]`, so integer fire times land in "their" round
/// and the uniform-rate limit matches the synchronous schedule.
#[inline]
fn round_of(t: f64) -> Round {
    let r = t.ceil();
    if r < 1.0 {
        1
    } else {
        r as Round
    }
}

/// Mutable state of an in-flight **asynchronous** broadcast.
///
/// Drives the same [`Protocol`] and the same census, fault phase, probe
/// and report bookkeeping as [`SimState`](crate::SimState), but on a
/// pending-event heap instead of a round barrier. Reports reuse [`RunReport`]: the
/// `rounds` field is the last integer-time window entered, so
/// round-denominated metrics stay comparable across engines, while
/// [`now`](Self::now)/[`coverage_time`](Self::coverage_time) expose the
/// continuous clock.
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_engine::{protocols::FloodPush, AsyncSimState, ClockSpec, LatencySpec, SimConfig};
/// use rrb_graph::{gen, NodeId};
///
/// let mut rng = SmallRng::seed_from_u64(9);
/// let g = gen::complete(64);
/// let proto = FloodPush::new();
/// let mut sim = AsyncSimState::new(
///     &proto,
///     64,
///     NodeId::new(0),
///     ClockSpec::Exponential { rate: 1.0 },
///     LatencySpec::Zero,
/// );
/// sim.run_to_completion(&g, &proto, SimConfig::default(), &mut rng);
/// assert!(sim.coverage_time().is_some());
/// let report = sim.into_report(&g, SimConfig::default());
/// assert!(report.all_informed());
/// ```
#[derive(Debug)]
pub struct AsyncSimState<P: Protocol> {
    states: Vec<P::State>,
    informed: InformedIndex,
    /// Census, fault plan, probe, channel total and the integer-time
    /// window in progress (`round_of(now)`; 0 before the first event) —
    /// the fault plan's and the probe's clock.
    ledger: Ledger,
    /// Coverage numerator and instant, transmission totals, stop reason
    /// and history.
    tally: Tally,
    /// The window in progress' counters, closed into the tally at its end.
    window: RoundCounters,
    creator: NodeId,
    choice: ChoiceState,
    clock: ClockSpec,
    latency: LatencySpec,
    clocks: Option<NodeClocks>,
    heap: BinaryHeap<Reverse<PendingEvent>>,
    tie_seq: u64,
    now: f64,
    eff_failures: crate::FailureModel,
    pending_deliveries: usize,
    events: u64,
    coverage_time: Option<f64>,
    target_buf: Vec<NodeId>,
    scratch_obs: Observation,
    empty_obs: Observation,
}

impl<P: Protocol> AsyncSimState<P> {
    /// Creates async state for a broadcast started by `origin` with the
    /// given per-node clock and in-flight latency models. Panics if either
    /// spec is out of range (see [`ClockSpec::assert_valid`]).
    pub fn new(
        protocol: &P,
        node_count: usize,
        origin: NodeId,
        clock: ClockSpec,
        latency: LatencySpec,
    ) -> Self {
        clock.assert_valid();
        latency.assert_valid();
        let mut states = Vec::with_capacity(node_count);
        for i in 0..node_count {
            states.push(protocol.init(i == origin.index()));
        }
        let mut informed = InformedIndex::new(node_count);
        informed.mark(origin.index(), 0);
        AsyncSimState {
            states,
            informed,
            ledger: Ledger::default(),
            tally: Tally::default(),
            window: RoundCounters::default(),
            creator: origin,
            choice: ChoiceState::new(node_count, protocol.choice_policy()),
            clock,
            latency,
            clocks: None,
            heap: BinaryHeap::new(),
            tie_seq: 0,
            now: 0.0,
            eff_failures: crate::FailureModel::NONE,
            pending_deliveries: 0,
            events: 0,
            coverage_time: None,
            target_buf: Vec::new(),
            scratch_obs: Observation::default(),
            empty_obs: Observation::default(),
        }
    }

    ledger_installers!();

    /// Continuous time of the last processed event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Continuous time at which every effective node was informed.
    pub fn coverage_time(&self) -> Option<f64> {
        self.coverage_time
    }

    /// Heap events processed so far (fires + deliveries).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Alive, uncrashed informed nodes — the coverage numerator.
    pub fn informed_count(&self) -> usize {
        self.tally.alive_informed
    }

    /// Runs until coverage/quiescence/round-cap, then leaves the stop
    /// reason readable via [`into_report`](Self::into_report).
    pub fn run_to_completion<T: Topology + ?Sized, R: Rng + ?Sized>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        rng: &mut R,
    ) {
        let round_cap = protocol.deadline().unwrap_or(config.max_rounds).min(config.max_rounds);
        self.start(topo, protocol, config, rng);
        while self.tally.stop.is_none() {
            self.advance(topo, protocol, config, round_cap, rng);
        }
    }

    /// One-time start-up: census snapshot, straggler draws, and the
    /// initial `Fire` per alive node (scheduled in node order).
    fn start<T: Topology + ?Sized, R: Rng + ?Sized>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        rng: &mut R,
    ) {
        if self.clocks.is_some() {
            return;
        }
        self.tally.sync_census(&mut self.ledger, topo, &self.informed);
        let clocks = NodeClocks::new(self.clock, topo.node_count(), rng);
        for i in 0..topo.node_count() {
            if topo.is_alive(NodeId::new(i)) && !self.ledger.census.is_crashed(i) {
                let t = clocks.next_after(i, 0.0, rng);
                self.schedule(t, i as u32, EventKind::Fire);
            }
        }
        self.clocks = Some(clocks);
        // Mirror the sync engine's pre-first-step `finished()` checks.
        if config.stop_at_coverage && self.tally.covered(&self.ledger) {
            self.tally.stop = Some(StopReason::FullCoverage);
        } else if self.quiescent(protocol) {
            self.tally.stop = Some(StopReason::Quiescent);
        }
    }

    fn schedule(&mut self, time: f64, node: u32, kind: EventKind) {
        let key = EventKey { time_bits: time_to_bits(time), node, tie_seq: self.tie_seq };
        self.tie_seq += 1;
        if matches!(kind, EventKind::Deliver { .. }) {
            self.pending_deliveries += 1;
        }
        self.heap.push(Reverse(PendingEvent { key, kind }));
    }

    /// Processes the next pending event, first crossing any integer-time
    /// boundaries between it and the last one (fault windows, round
    /// records, quiescence and cap checks live on those boundaries).
    fn advance<T: Topology + ?Sized, R: Rng + ?Sized>(
        &mut self,
        topo: &T,
        protocol: &P,
        config: SimConfig,
        round_cap: Round,
        rng: &mut R,
    ) {
        self.ledger.arm_clock();
        let Some(&Reverse(next)) = self.heap.peek() else {
            // Every clock has died (all nodes crashed): nothing can ever
            // change again.
            self.finish_round(config);
            self.tally.stop = Some(StopReason::Quiescent);
            return;
        };
        let t = bits_to_time(next.key.time_bits);
        let event_round = round_of(t);
        while self.ledger.round < event_round {
            // The window in progress has no more events — close it.
            self.finish_round(config);
            if self.quiescent(protocol) {
                self.tally.stop = Some(StopReason::Quiescent);
                return;
            }
            if self.ledger.round >= round_cap {
                self.tally.stop = Some(StopReason::RoundCap);
                return;
            }
            self.ledger.round += 1;
            self.begin_round(topo, config, rng);
            if self.tally.stop.is_some() {
                return;
            }
        }
        let Some(Reverse(ev)) = self.heap.pop() else { return };
        self.events += 1;
        self.now = bits_to_time(ev.key.time_bits);
        match ev.kind {
            EventKind::Fire => {
                self.fire(ev.key.node as usize, topo, protocol, rng);
            }
            EventKind::Deliver { meta, pull } => {
                self.deliver(ev.key.node as usize, meta, pull, protocol, config);
            }
        }
    }

    /// Opens the integer-time window `ledger.round`: advance the fault plan
    /// one round on its reserved stream, apply its node events, and run
    /// the i.i.d. crash-stop sampling — the fault phase the synchronous
    /// engines run, keyed by window instead of barrier.
    fn begin_round<T: Topology + ?Sized, R: Rng + ?Sized>(
        &mut self,
        topo: &T,
        config: SimConfig,
        rng: &mut R,
    ) {
        self.eff_failures = self.ledger.fault_phase(
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
        // Crashes shrink the coverage denominator, which can complete
        // coverage without a delivery — same rule the sync engine applies
        // at its round barrier.
        self.check_coverage(config);
    }

    /// A node's clock fired: reschedule its next tick, then (if
    /// participating) open channels and exchange.
    fn fire<T: Topology + ?Sized, R: Rng + ?Sized>(
        &mut self,
        i: usize,
        topo: &T,
        protocol: &P,
        rng: &mut R,
    ) {
        let v = NodeId::new(i);
        if self.ledger.census.is_crashed(i) || !topo.is_alive(v) {
            return; // fail-stop: the clock dies with the node
        }
        // The timer draw comes first and unconditionally: a suspended
        // node's clock keeps ticking through the outage so it resumes
        // exchanging the instant the census un-suspends it.
        let next = self.clocks.as_ref().expect("started").next_after(i, self.now, rng);
        self.schedule(next, i as u32, EventKind::Fire);
        if self.ledger.census.is_suspended(i) {
            return;
        }
        let policy = protocol.choice_policy();
        let at_i = self.informed.at(i);
        // Capability-gated sampling skip, as in the sync fabric: an
        // uninformed caller under a never-pull-serving protocol opens
        // channels that can carry nothing, so count them without
        // sampling (memoryless policies only).
        if at_i.is_none() && !protocol.capabilities().uses_pull && policy.is_memoryless() {
            let skipped = topo.stubs(v).len().min(policy.fanout()) as u64;
            self.window.channels += skipped;
            self.window.skipped_draws += skipped;
            self.ledger.lap(StepPhase::Fabric);
            return;
        }
        sample_targets(topo, v, policy, &mut self.choice, rng, &mut self.target_buf);
        self.window.channels += self.target_buf.len() as u64;
        self.ledger.lap(StepPhase::Fabric);
        let plan_i = match at_i {
            Some(at) => {
                let view =
                    NodeView { informed_at: at, is_creator: v == self.creator, state: &self.states[i] };
                protocol.plan(view, self.ledger.round)
            }
            None => Plan::SILENT,
        };
        self.ledger.lap(StepPhase::Plan);
        let fault_state = self.ledger.faults.take();
        let fault_view = fault_state.as_ref().and_then(FaultState::channel_view);
        for idx in 0..self.target_buf.len() {
            let w = self.target_buf[idx];
            let wi = w.index();
            // A channel to a dead, crashed, suspended or partitioned-away
            // neighbour fails to establish; it costs nothing.
            let callee_ok = topo.is_alive(w)
                && !self.ledger.census.is_crashed(wi)
                && !self.ledger.census.is_suspended(wi)
                && fault_view.as_ref().is_none_or(|f| f.connects(i, wi));
            if !callee_ok {
                continue;
            }
            // Combined per-channel establishment loss (baseline i.i.d.
            // plus burst chains), one Bernoulli draw, skipped when zero —
            // the fabric's exact rule.
            let p = match fault_view.as_ref() {
                Some(f) => {
                    1.0 - (1.0 - self.eff_failures.channel_failure) * (1.0 - f.burst_loss(i, wi))
                }
                None => self.eff_failures.channel_failure,
            };
            if p > 0.0 && rng.gen_bool(p) {
                continue;
            }
            // Push: caller -> callee; counted when sent, delivered only if
            // the transmission survives.
            if plan_i.push {
                self.window.push_tx += 1;
                if self.eff_failures.transmission_ok(rng) {
                    let arrival = self.now + self.latency.sample(rng);
                    self.schedule(arrival, wi as u32, EventKind::Deliver { meta: plan_i.meta, pull: false });
                }
            }
            // Pull: the callee answers the channel this caller opened.
            if let Some(at_w) = self.informed.at(wi) {
                let view = NodeView {
                    informed_at: at_w,
                    is_creator: w == self.creator,
                    state: &self.states[wi],
                };
                let plan_w = protocol.plan(view, self.ledger.round);
                if plan_w.pull_serve {
                    self.window.pull_tx += 1;
                    if self.eff_failures.transmission_ok(rng) {
                        let arrival = self.now + self.latency.sample(rng);
                        self.schedule(arrival, i as u32, EventKind::Deliver { meta: plan_w.meta, pull: true });
                    }
                }
            }
        }
        self.ledger.faults = fault_state;
        self.ledger.lap(StepPhase::Exchange);
        // The firer's own tick advances its protocol state with an empty
        // observation — the async analogue of the sync engine's per-round
        // empty update, so counter/age-based quiescence rules still run.
        if at_i.is_some() {
            protocol.update(&mut self.states[i], at_i, self.ledger.round, &self.empty_obs);
        }
        self.ledger.lap(StepPhase::Update);
    }

    /// A rumour copy arrives: digest it (unless the receiver is gone or
    /// suspended — frozen nodes are deaf) and update coverage.
    fn deliver(
        &mut self,
        w: usize,
        meta: RumorMeta,
        pull: bool,
        protocol: &P,
        config: SimConfig,
    ) {
        self.pending_deliveries -= 1;
        if !self.ledger.census.is_participating(w) {
            return;
        }
        self.scratch_obs.clear();
        if pull {
            self.scratch_obs.pulls.push(meta);
        } else {
            self.scratch_obs.pushes.push(meta);
        }
        let t = self.ledger.round;
        if self.informed.mark(w, t) {
            self.window.newly_informed += 1;
            if self.ledger.census.is_effective(w) {
                self.tally.alive_informed += 1;
            }
        }
        protocol.update(&mut self.states[w], self.informed.at(w), t, &self.scratch_obs);
        self.ledger.lap(StepPhase::Update);
        self.check_coverage(config);
        self.ledger.lap(StepPhase::Coverage);
    }

    /// Records the first instant every effective node is informed and
    /// stops the run there when configured to.
    fn check_coverage(&mut self, config: SimConfig) {
        let pending_tx = self.window.push_tx + self.window.pull_tx;
        if self.tally.note_coverage(&self.ledger, pending_tx) {
            self.coverage_time = Some(self.now);
            if config.stop_at_coverage {
                self.finish_round(config);
                self.tally.stop = Some(StopReason::FullCoverage);
            }
        }
    }

    /// Quiescence at an integer-time boundary: no copy in flight and every
    /// informed, uncrashed node permanently silent (the sync engine's rule
    /// at `t = round + 1`, plus the in-flight condition asynchrony adds).
    fn quiescent(&self, protocol: &P) -> bool {
        if self.pending_deliveries > 0 {
            return false;
        }
        let t = self.ledger.round + 1;
        self.informed.all_quiescent(protocol, &self.states, &self.ledger.census, t)
    }

    /// Closes the integer-time window in progress into the tally (see
    /// `ledger.rs`). No-op before the first event.
    fn finish_round(&mut self, config: SimConfig) {
        if self.ledger.round == 0 {
            return;
        }
        let window = std::mem::take(&mut self.window);
        self.tally.close_round(&mut self.ledger, window, &self.informed, None, config.record_history);
    }

    /// Consumes the run into the engine-shared [`RunReport`].
    pub fn into_report<T: Topology + ?Sized>(self, topo: &T, _config: SimConfig) -> RunReport {
        self.tally.into_report(self.ledger, topo, &self.informed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{FloodPush, FloodPushPull, SilentProtocol};
    use crate::telemetry::tests::RecordRounds;
    use crate::telemetry::{BoxedProbe, PhaseTimings};
    use crate::{FaultEvent, FaultPlan, OutageSpec};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_graph::gen;

    fn run_async<P: Protocol>(
        proto: &P,
        n: usize,
        clock: ClockSpec,
        latency: LatencySpec,
        seed: u64,
        cfg: SimConfig,
    ) -> (RunReport, f64, Option<f64>, u64) {
        let g = gen::complete(n);
        let mut sim = AsyncSimState::new(proto, n, NodeId::new(0), clock, latency);
        let mut rng = SmallRng::seed_from_u64(seed);
        sim.run_to_completion(&g, proto, cfg, &mut rng);
        let (now, cov, events) = (sim.now(), sim.coverage_time(), sim.events_processed());
        (sim.into_report(&g, cfg), now, cov, events)
    }

    #[test]
    fn equal_time_events_resolve_by_node_then_insertion() {
        // Tie-breaking spec: same instant orders by node id, equal
        // (time, node) by insertion sequence — so a node's Fire (inserted
        // when its previous tick ran, hence earlier) always precedes
        // same-instant deliveries to it.
        let mut heap: BinaryHeap<Reverse<PendingEvent>> = BinaryHeap::new();
        let mk = |time: f64, node: u32, tie_seq: u64, kind: EventKind| {
            Reverse(PendingEvent {
                key: EventKey { time_bits: time_to_bits(time), node, tie_seq },
                kind,
            })
        };
        let meta = RumorMeta::default();
        heap.push(mk(1.0, 3, 10, EventKind::Deliver { meta, pull: false }));
        heap.push(mk(1.0, 2, 11, EventKind::Fire));
        heap.push(mk(0.5, 9, 12, EventKind::Fire));
        heap.push(mk(1.0, 2, 4, EventKind::Fire));
        heap.push(mk(2.0, 0, 0, EventKind::Fire));
        let order: Vec<(u64, u32, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.key.time_bits, e.key.node, e.key.tie_seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (time_to_bits(0.5), 9, 12),
                (time_to_bits(1.0), 2, 4),
                (time_to_bits(1.0), 2, 11),
                (time_to_bits(1.0), 3, 10),
                (time_to_bits(2.0), 0, 0),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Popping any batch of events yields exactly the lexicographic
        /// `(time_bits, node, tie_seq)` order, with insertion order as the
        /// final tiebreak (tie_seq is assigned in push order).
        #[test]
        fn heap_pops_in_key_order(
            batch in proptest::collection::vec((0u32..8, 0u32..6), 1..80),
        ) {
            let mut heap: BinaryHeap<Reverse<PendingEvent>> = BinaryHeap::new();
            let mut keys = Vec::new();
            for (i, &(t, node)) in batch.iter().enumerate() {
                // Coarse times (multiples of 0.25) force plenty of exact ties.
                let key = EventKey {
                    time_bits: time_to_bits(f64::from(t) * 0.25),
                    node,
                    tie_seq: i as u64,
                };
                keys.push(key);
                heap.push(Reverse(PendingEvent { key, kind: EventKind::Fire }));
            }
            keys.sort();
            let popped: Vec<EventKey> =
                std::iter::from_fn(|| heap.pop()).map(|Reverse(e)| e.key).collect();
            prop_assert_eq!(popped, keys);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default().with_history().with_max_rounds(200);
        let clock = ClockSpec::Exponential { rate: 1.0 };
        let latency = LatencySpec::Uniform { min: 0.05, max: 0.4 };
        let a = run_async(&proto, 48, clock, latency, 11, cfg);
        let b = run_async(&proto, 48, clock, latency, 11, cfg);
        assert_eq!(a, b, "same seed must reproduce the run exactly");
        let c = run_async(&proto, 48, clock, latency, 12, cfg);
        assert_ne!(a.0, c.0, "different seeds should diverge");
        assert!(a.0.all_informed());
        assert!(a.2.is_some(), "coverage time recorded");
    }

    #[test]
    fn stragglers_and_fixed_latency_still_cover() {
        let proto = FloodPush::new();
        let cfg = SimConfig::default().with_max_rounds(400);
        let clock = ClockSpec::Stragglers { rate: 1.0, slow_fraction: 0.25, slow_factor: 6.0 };
        let (report, now, cov, events) =
            run_async(&proto, 64, clock, LatencySpec::Fixed { delay: 0.3 }, 5, cfg);
        assert!(report.all_informed());
        assert_eq!(report.stop, StopReason::FullCoverage);
        assert!(events > 0);
        let cov = cov.unwrap();
        assert!(cov <= now);
        assert_eq!(report.full_coverage_at.unwrap(), round_of(cov));
    }

    #[test]
    fn uniform_unit_clock_fires_on_integer_times() {
        // The calibration limit's schedule: with Fixed{1.0} clocks and zero
        // latency every event lands on an exact integer instant.
        let proto = FloodPush::new();
        let cfg = SimConfig::default().with_history().with_max_rounds(100);
        let (report, now, cov, _) =
            run_async(&proto, 32, ClockSpec::UNIT, LatencySpec::Zero, 2, cfg);
        assert!(report.all_informed());
        assert_eq!(now.fract(), 0.0, "final event off-grid at {now}");
        let cov = cov.unwrap();
        assert_eq!(cov.fract(), 0.0, "coverage off-grid at {cov}");
        assert_eq!(report.full_coverage_at.unwrap() as f64, cov);
        // K32 flood-push coverage takes ~log2(32)+ln(32) rounds.
        assert!(report.rounds < 40, "took {} rounds", report.rounds);
    }

    #[test]
    fn probe_is_byte_identical_and_counters_match_the_report() {
        let g = gen::complete(48);
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default()
            .with_failures(crate::FailureModel::channels(0.1).with_crashes(0.005))
            .with_history()
            .with_max_rounds(300);
        let clock = ClockSpec::Exponential { rate: 1.0 };
        let latency = LatencySpec::Exponential { mean: 0.2 };
        let run = |probe: Option<BoxedProbe>| {
            let mut sim = AsyncSimState::new(&proto, 48, NodeId::new(0), clock, latency);
            sim.set_probe(probe);
            let mut rng = SmallRng::seed_from_u64(19);
            sim.run_to_completion(&g, &proto, cfg, &mut rng);
            let probe = sim.take_probe();
            (sim.into_report(&g, cfg), probe)
        };
        let (bare, _) = run(None);
        let (probed, probe) = run(Some(Box::new(PhaseTimings::new())));
        let probe = probe.expect("probe still installed");
        let timings = probe.as_any().downcast_ref::<PhaseTimings>().expect("concrete probe");
        // Window records cover every transmission, a coverage-stopped
        // partial window's flush included, so totals must agree exactly.
        assert_eq!(timings.push_tx(), bare.push_tx);
        assert_eq!(timings.pull_tx(), bare.pull_tx);
        assert_eq!(timings.channels(), bare.channels);
        assert_eq!(timings.rounds(), bare.rounds);
        assert_eq!(timings.last_round().informed, bare.informed_count);
        assert_eq!(bare, probed, "probe must not perturb the run");
        // The history is, record for record, what the probe received.
        let (recorded, probe) = run(Some(Box::new(RecordRounds::default())));
        assert_eq!(recorded, bare);
        assert_eq!(recorded.history, RecordRounds::of(probe));
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default().with_history();
        let clock = ClockSpec::Exponential { rate: 1.0 };
        let bare = {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut sim = AsyncSimState::new(&proto, 32, NodeId::new(0), clock, LatencySpec::Zero);
            sim.run_to_completion(&g, &proto, cfg, &mut rng);
            sim.into_report(&g, cfg)
        };
        let planned = {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut sim = AsyncSimState::new(&proto, 32, NodeId::new(0), clock, LatencySpec::Zero);
            sim.set_faults(Some(FaultState::new(&FaultPlan::default(), 32, 99)));
            sim.run_to_completion(&g, &proto, cfg, &mut rng);
            sim.into_report(&g, cfg)
        };
        assert_eq!(bare, planned);
    }

    #[test]
    fn scripted_partition_stalls_coverage_until_heal_time() {
        // Time-windowed fault consumption: a partition scripted for rounds
        // [1, 12) holds for all events at times <= 11, so the rumour cannot
        // cross components before continuous time 11.
        let plan = FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 1, until: 12, parts: 2 }],
            ..FaultPlan::default()
        };
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default().with_history().with_max_rounds(200);
        let mut sim = AsyncSimState::new(
            &proto,
            32,
            NodeId::new(0),
            ClockSpec::Exponential { rate: 1.0 },
            LatencySpec::Zero,
        );
        sim.set_faults(Some(FaultState::new(&plan, 32, 18)));
        let mut rng = SmallRng::seed_from_u64(17);
        sim.run_to_completion(&g, &proto, cfg, &mut rng);
        let cov = sim.coverage_time().expect("covers after the heal");
        assert!(cov > 11.0, "covered at time {cov}, inside the partition window");
        let report = sim.into_report(&g, cfg);
        assert!(report.all_informed());
        assert!(report.full_coverage_at.unwrap() >= 12);
        for rec in report.history.iter().filter(|r| r.round < 12) {
            assert!(rec.informed <= 16, "round {}: {} informed", rec.round, rec.informed);
        }
    }

    #[test]
    fn outages_suspend_but_clocks_keep_ticking() {
        // Transient outages freeze nodes without killing their timers:
        // the run must still reach full coverage once nodes resume.
        let plan = FaultPlan {
            outages: Some(OutageSpec::new(0.08, 2, 4)),
            ..FaultPlan::default()
        };
        let g = gen::complete(32);
        let proto = FloodPushPull::new();
        let cfg = SimConfig::default().with_max_rounds(400);
        let mut sim = AsyncSimState::new(
            &proto,
            32,
            NodeId::new(0),
            ClockSpec::Exponential { rate: 1.0 },
            LatencySpec::Uniform { min: 0.0, max: 0.2 },
        );
        sim.set_faults(Some(FaultState::new(&plan, 32, 7)));
        let mut rng = SmallRng::seed_from_u64(23);
        sim.run_to_completion(&g, &proto, cfg, &mut rng);
        let report = sim.into_report(&g, cfg);
        assert!(report.all_informed(), "stop: {:?}", report.stop);
    }

    #[test]
    fn silent_protocol_quiesces() {
        let proto = SilentProtocol;
        let cfg = SimConfig::until_quiescent();
        let (report, ..) =
            run_async(&proto, 16, ClockSpec::Exponential { rate: 1.0 }, LatencySpec::Zero, 1, cfg);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.informed_count, 1);
        assert_eq!(report.total_tx(), 0);
    }

    #[test]
    fn round_cap_stops_uncovered_runs() {
        let proto = FloodPush::new();
        let cfg = SimConfig::default().with_max_rounds(2);
        // Sparse clocks: 2 time units are nowhere near enough for K64.
        let (report, ..) = run_async(
            &proto,
            64,
            ClockSpec::Exponential { rate: 0.3 },
            LatencySpec::Exponential { mean: 1.0 },
            4,
            cfg,
        );
        assert_eq!(report.stop, StopReason::RoundCap);
        assert_eq!(report.rounds, 2);
        assert!(!report.all_informed());
    }
}
