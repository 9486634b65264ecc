//! Zero-drift proof for the round engines' oblivious shortcut
//! (`Capabilities::oblivious`): copies to informed nodes counted but not
//! stored, no `update` calls, no per-node planning of silent reception
//! rounds.
//!
//! Every protocol runs twice from the same seeds: as itself and wrapped
//! in [`Masked`], which forwards everything but reports
//! `oblivious: false` and so takes the engine's general path. On the
//! single-rumour engine the full `RunReport`s, per-round history
//! included, must be equal at 1 and 3 shards; on the multi-rumour engine
//! the full `MultiRumorReport`s, per-node deliveries included, for seven
//! staggered rumours. Both under i.i.d. failure rates, a fault plan,
//! churn with slot reuse, and both coverage and quiescent stops. Every
//! round's probe counters must be equal too.
//!
//! The single engine's silent-round skip (an oblivious protocol's round
//! in which nobody transmits, on the loss-free fast path, skips the
//! fabric and the exchange and jumps the generator) needs a loss-free
//! run, so it has fixtures of its own for each of its gates: callers
//! skipped by the push-only gate, crashed callers, a partition, and
//! churn with slot reuse.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use rrb_bench::scenario::{GossipModeSpec, PolicySpec, ProtocolSpec, RegimeSpec};
use rrb_engine::protocols::{FloodPull, FloodPush, FloodPushPull, SilentProtocol};
use rrb_engine::{
    BoxedProbe, Capabilities, ChoicePolicy, FailureModel, FaultEvent, FaultPlan, FaultState,
    GilbertElliott, MultiRumorReport, MultiSimState, NodeView, Observation, OutageSpec, Plan,
    Protocol, Round, RoundCounters, RoundProbe, RumorInjection, RumorMeta, RunReport, SimConfig,
    SimState,
};
use rrb_graph::{gen, Graph, NodeId};
use rrb_p2p::{ChurnProcess, Overlay};

const N: usize = 256;
const D: usize = 8;

/// Forwards every call to `P` but never claims the oblivious shortcut.
#[derive(Debug, Clone)]
struct Masked<P>(P);

impl<P: Protocol> Protocol for Masked<P> {
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
        Capabilities { oblivious: false, ..self.0.capabilities() }
    }
}

/// Flood push with an age budget that rests every fourth round: a node
/// pushes in the rounds up to `max_age` after it was informed, except
/// when `t` is a multiple of 4. Push-only and oblivious, so its resting
/// rounds are silent rounds in which uninformed callers are skipped.
#[derive(Debug, Clone, Copy)]
struct RestingPush {
    max_age: Round,
}

impl Protocol for RestingPush {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::Distinct(2)
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let age = t - view.informed_at;
        if age <= self.max_age && !t.is_multiple_of(4) {
            Plan::push_with(RumorMeta { age, counter: 0 })
        } else {
            Plan::SILENT
        }
    }

    fn update(&self, _: &mut Self::State, _: Option<Round>, _: Round, _: &Observation) {}

    fn is_quiescent(&self, _state: &Self::State, informed_at: Round, t: Round) -> bool {
        t > informed_at + self.max_age
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::PUSH_ONLY }
    }
}

/// What the run is exposed to besides the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Condition {
    /// Channel, transmission and crash rates.
    Rates,
    /// Partition and heal, transient outages and burst loss.
    Faults,
    /// Symmetric churn on an overlay that recycles departed slots.
    Churn,
    /// Crash-stop failures only: the loss-free fast path with blocked
    /// callers.
    Crashes,
    /// A partition for the whole run, and no other fault: the fast path
    /// with channels that fail to establish.
    Partition,
    /// Nothing at all: the rounds of a protocol that keeps transmitting
    /// one plan are frontier rounds, and once every node is informed they
    /// are saturated.
    Clean,
}

const CONDITIONS: [Condition; 4] =
    [Condition::Rates, Condition::Faults, Condition::Churn, Condition::Clean];

fn rates() -> FailureModel {
    FailureModel::channels(0.1).with_transmissions(0.15).with_crashes(0.002)
}

/// Partition rounds of [`Condition::Partition`].
const PARTITIONED: std::ops::Range<Round> = 1..50;

fn partition_plan() -> FaultPlan {
    FaultPlan {
        schedule: vec![FaultEvent::Partition {
            from: PARTITIONED.start,
            until: PARTITIONED.end,
            parts: 2,
        }],
        ..FaultPlan::default()
    }
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        burst: Some(GilbertElliott::new(0.1, 0.4, 0.02, 0.6)),
        schedule: vec![FaultEvent::Partition { from: 2, until: 9, parts: 2 }],
        outages: Some(OutageSpec::new(0.03, 1, 4)),
        ..FaultPlan::default()
    }
}

/// The failure rates, fault plan and churn a run is exposed to.
#[derive(Debug, Clone)]
struct Exposure {
    failures: FailureModel,
    plan: Option<FaultPlan>,
    churn: bool,
}

impl Exposure {
    /// Rates and a fault plan, no churn.
    fn of(failures: FailureModel, plan: Option<FaultPlan>) -> Self {
        Exposure { failures, plan, churn: false }
    }
}

impl From<Condition> for Exposure {
    fn from(condition: Condition) -> Self {
        match condition {
            Condition::Rates => Exposure::of(rates(), None),
            Condition::Faults => Exposure::of(FailureModel::NONE, Some(fault_plan())),
            Condition::Churn => Exposure { churn: true, ..Exposure::of(FailureModel::NONE, None) },
            Condition::Crashes => Exposure::of(FailureModel::crashes(0.01), None),
            Condition::Partition => Exposure::of(FailureModel::NONE, Some(partition_plan())),
            Condition::Clean => Exposure::of(FailureModel::NONE, None),
        }
    }
}

/// One broadcast's report, every round's probe counters, the number of
/// recycled slots and the generator at the end.
type Run<R> = (R, Vec<RoundCounters>, usize, SmallRng);

/// The counters [`Rounds`] recorded, read back from the engine.
fn recorded(probe: Option<BoxedProbe>) -> Vec<RoundCounters> {
    let probe = probe.expect("probe");
    probe.as_any().downcast_ref::<Rounds>().expect("rounds").0.clone()
}

/// One broadcast of `proto` on `graph` under `exposure`; `quiescent`
/// runs past coverage to the protocol's own stop (or a 60-round cap).
fn run<P: Protocol>(
    proto: &P,
    graph: &Graph,
    exposure: &Exposure,
    quiescent: bool,
    shards: usize,
    seed: u64,
) -> Run<RunReport> {
    let stop = if quiescent { SimConfig::until_quiescent() } else { SimConfig::default() };
    let cfg = stop.with_max_rounds(60).with_history().with_shards(shards);
    let cfg = cfg.with_failures(exposure.failures);
    let mut rng = SmallRng::seed_from_u64(seed);
    let origin = NodeId::new(seed as usize % N);
    let mut sim = SimState::new(proto, N, origin);
    sim.set_probe(Some(Box::new(Rounds::default())));
    if let Some(plan) = &exposure.plan {
        sim.set_faults(Some(FaultState::new(plan, N, seed ^ 0xFA17)));
    }
    if !exposure.churn {
        sim.run_to_completion(graph, proto, cfg, &mut rng);
        let rounds = recorded(sim.take_probe());
        return (sim.into_report(graph, cfg), rounds, 0, rng);
    }
    let mut overlay = Overlay::from_graph(graph, D).with_slot_reuse(true);
    let mut churn = ChurnProcess::symmetric(4.0, N / 2);
    let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xC4A2);
    let mut rejoined = 0;
    while !sim.finished(&overlay, proto, cfg) {
        sim.step(&overlay, proto, cfg, &mut rng);
        let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
        overlay.rewire(4, &mut churn_rng);
        sim.apply_membership(proto, events.delta());
        rejoined += events.rejoined.len();
    }
    let rounds = recorded(sim.take_probe());
    (sim.into_report(&overlay, cfg), rounds, rejoined, rng)
}

/// Seven rumours two rounds apart; the second and fifth share birth and
/// origin with the one before them (they ride the same channels).
fn injections(seed: u64) -> Vec<RumorInjection> {
    let origin = |k: u64| NodeId::new(((seed * 31 + k * 57) % N as u64) as usize);
    [(0, 0), (0, 0), (2, 1), (4, 2), (4, 2), (6, 3), (8, 4)]
        .into_iter()
        .map(|(birth, k)| RumorInjection { birth, origin: origin(k) })
        .collect()
}

/// Three rumours born in rounds 0, 2 and 5.
fn staggered(seed: u64) -> Vec<RumorInjection> {
    let origin = |k: u64| NodeId::new(((seed * 31 + k * 57) % N as u64) as usize);
    [(0, 0), (2, 1), (5, 2)]
        .into_iter()
        .map(|(birth, k)| RumorInjection { birth, origin: origin(k) })
        .collect()
}

/// The multi-rumour counterpart of [`run`]: `rumours` broadcast on
/// `graph` under `exposure`.
fn run_multi<P: Protocol>(
    proto: &P,
    graph: &Graph,
    exposure: &Exposure,
    quiescent: bool,
    rumours: &[RumorInjection],
    seed: u64,
) -> Run<MultiRumorReport> {
    let stop = if quiescent { SimConfig::until_quiescent() } else { SimConfig::default() };
    let cfg = stop.with_max_rounds(60).with_failures(exposure.failures);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = MultiSimState::new(proto, graph, rumours);
    sim.set_probe(Some(Box::new(Rounds::default())));
    if let Some(plan) = &exposure.plan {
        sim.set_faults(Some(FaultState::new(plan, N, seed ^ 0xFA17)));
    }
    if !exposure.churn {
        sim.run_to_completion(graph, proto, cfg, &mut rng);
        let rounds = recorded(sim.take_probe());
        return (sim.into_report(), rounds, 0, rng);
    }
    let mut overlay = Overlay::from_graph(graph, D).with_slot_reuse(true);
    let mut churn = ChurnProcess::symmetric(4.0, N / 2);
    let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xC4A2);
    let mut rejoined = 0;
    while !sim.finished(proto, cfg) {
        sim.step(&overlay, proto, cfg, &mut rng);
        let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
        overlay.rewire(4, &mut churn_rng);
        sim.apply_membership(proto, events.delta());
        rejoined += events.rejoined.len();
    }
    let rounds = recorded(sim.take_probe());
    (sim.into_report(), rounds, rejoined, rng)
}

/// Whether `r` is a saturated round: it sent copies, yet its fabric was
/// counted and every word jumped (on [`graph`], whose degrees exceed every
/// protocol's `k`, a sampled round that sends draws some words).
fn saturated(r: &RoundCounters) -> bool {
    r.tx > 0 && r.fabric_words > 0 && r.jumped_words == r.fabric_words
}

/// Whether `r` is a frontier round with a non-empty frontier: it booked
/// some channels and sampled the others.
fn frontier(r: &RoundCounters) -> bool {
    r.booked_channels > 0 && r.booked_channels < r.channels
}

/// The masked twin's rounds as the native run must have them. Only the
/// rounds in which the native run booked channels may differ, and only in
/// `jumped_words` and `booked_channels`: such a frontier round jumps the
/// words the twin draws for the booked callers, whose channels each carry
/// every direction used to an informed node.
fn expected_rounds(
    label: &str,
    native: &[RoundCounters],
    general: &[RoundCounters],
) -> Vec<RoundCounters> {
    assert_eq!(native.len(), general.len(), "{label}: round counts differ");
    native
        .iter()
        .zip(general)
        .map(|(nat, gen)| {
            if nat.booked_channels == 0 {
                return *gen;
            }
            let carried = [nat.push_tx, nat.pull_tx].iter().all(|&d| d == 0 || d >= nat.booked_channels);
            assert!(
                gen.booked_channels == 0
                    && nat.booked_channels <= nat.channels
                    && nat.jumped_words >= gen.jumped_words
                    && carried,
                "{label}: round {} books channels the twin's does not carry: {nat:?} against {gen:?}",
                nat.round
            );
            RoundCounters { jumped_words: nat.jumped_words, booked_channels: nat.booked_channels, ..*gen }
        })
        .collect()
}

/// Asserts that a single-engine run equals its masked twin's: the
/// report, every round's counters, the recycled slots and the final
/// generator, up to the `jumped_words` and `booked_channels` of frontier
/// rounds (see [`expected_rounds`]).
fn assert_twins(label: &str, native: &Run<RunReport>, general: Run<RunReport>) {
    let (report, rounds, rejoined, rng) = general;
    let rounds = expected_rounds(label, &native.1, &rounds);
    let report = RunReport { history: rounds.clone(), ..report };
    assert_eq!(*native, (report, rounds, rejoined, rng), "{label}");
}

/// [`assert_twins`] for the multi-rumour engine, whose report holds no
/// per-round history.
fn assert_multi_twins(label: &str, native: &Run<MultiRumorReport>, general: Run<MultiRumorReport>) {
    let (report, rounds, rejoined, rng) = general;
    let rounds = expected_rounds(label, &native.1, &rounds);
    assert_eq!(*native, (report, rounds, rejoined, rng), "{label}");
}

/// Asserts that `proto` and `Masked(proto)` give equal single-engine
/// runs (see [`assert_twins`]) at 1 and 3 shards under `exposure`, from
/// two seeds, and returns the native runs.
fn assert_single_twins_agree<P: Protocol + Clone>(
    label: &str,
    proto: &P,
    graph: &Graph,
    exposure: impl Into<Exposure>,
    quiescent: bool,
) -> Vec<Run<RunReport>> {
    let exposure = exposure.into();
    let masked = Masked(proto.clone());
    let mut runs = Vec::new();
    for seed in [3u64, 8] {
        for shards in [1, 3] {
            let native = run(proto, graph, &exposure, quiescent, shards, seed);
            let general = run(&masked, graph, &exposure, quiescent, shards, seed);
            let case = format!("{label}: {exposure:?}, quiescent {quiescent}, {shards} shard(s)");
            let case = format!("{case}, seed {seed}");
            assert_twins(&case, &native, general);
            runs.push(native);
        }
    }
    runs
}

/// Asserts that `proto` and `Masked(proto)` give equal runs at 1 and 3
/// shards on the single-rumour engine and equal multi-rumour runs, under
/// every condition, with both stops, from two seeds.
fn assert_shortcut_is_invisible<P: Protocol + Clone>(label: &str, proto: &P, graph: &Graph) {
    let masked = Masked(proto.clone());
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    pool.install(|| {
        for condition in CONDITIONS {
            let exposure = Exposure::from(condition);
            for quiescent in [false, true] {
                assert_single_twins_agree(label, proto, graph, exposure.clone(), quiescent);
                for seed in [3u64, 8] {
                    let rumours = injections(seed);
                    let native = run_multi(proto, graph, &exposure, quiescent, &rumours, seed);
                    let general = run_multi(&masked, graph, &exposure, quiescent, &rumours, seed);
                    let case = format!("{label}: multi-rumour, {condition:?}, quiescent {quiescent}");
                    let case = format!("{case}, seed {seed}");
                    assert_multi_twins(&case, &native, general);
                }
            }
        }
    });
}

fn graph() -> Graph {
    gen::random_regular(N, D, &mut SmallRng::seed_from_u64(0x6EA9)).expect("graph")
}

/// One spec of every `ProtocolSpec` kind (both ablation switches, all
/// three budgeted modes, bounded and unbounded quasirandom push).
fn every_spec() -> Vec<ProtocolSpec> {
    let four = |regime| ProtocolSpec::FourChoice {
        n_estimate: N,
        degree: D,
        alpha: 1.0,
        choices: 4,
        regime,
    };
    let budgeted =
        |mode| ProtocolSpec::Budgeted { mode, n: N, budget: 1.5, policy: PolicySpec::STANDARD };
    let ablated = |phase1_always_push, no_pull| ProtocolSpec::Ablated {
        n_estimate: N,
        degree: D,
        alpha: 1.0,
        phase1_always_push,
        no_pull,
    };
    vec![
        four(RegimeSpec::Auto),
        four(RegimeSpec::Large),
        ProtocolSpec::SequentialFourChoice { n_estimate: N, degree: D },
        budgeted(GossipModeSpec::Push),
        budgeted(GossipModeSpec::Pull),
        budgeted(GossipModeSpec::PushPull),
        ProtocolSpec::PushThenPull { n: N },
        ProtocolSpec::MedianCounter { n: N, ctr_max: None, c_rounds: None, age_cutoff: None },
        ProtocolSpec::Quasirandom { max_age: Some(12) },
        ProtocolSpec::Quasirandom { max_age: None },
        ProtocolSpec::FloodPush { policy: PolicySpec::Distinct(4) },
        ProtocolSpec::FloodPull { policy: PolicySpec::STANDARD },
        ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
        ProtocolSpec::Silent,
        ablated(false, false),
        ablated(true, true),
    ]
}

#[test]
fn engine_protocols_match_their_masked_twins() {
    let g = graph();
    assert_shortcut_is_invisible("flood push", &FloodPush::new(), &g);
    assert_shortcut_is_invisible("flood pull", &FloodPull::new(), &g);
    assert_shortcut_is_invisible("flood push&pull", &FloodPushPull::new(), &g);
    assert_shortcut_is_invisible("silent", &SilentProtocol, &g);
}

#[test]
fn every_protocol_spec_matches_its_masked_twin() {
    let g = graph();
    for spec in every_spec() {
        assert_shortcut_is_invisible(&format!("{spec:?}"), &spec.build(), &g);
    }
}

fn four_choice(n: usize) -> rrb_bench::scenario::AnyProtocol {
    ProtocolSpec::FourChoice {
        n_estimate: n,
        degree: D,
        alpha: 1.0,
        choices: 4,
        regime: RegimeSpec::Auto,
    }
    .build()
}

/// Whether round `r` is one the silent-round skip takes: nobody
/// transmitted and the fabric still had words to skip.
fn silent_with_draws(r: &RoundCounters) -> bool {
    r.tx == 0 && r.fabric_words > 0
}

#[test]
fn silent_round_skip_matches_its_masked_twin() {
    // Each gate of the single engine's silent-round skip against the
    // masked twin, which never takes it, at 1 and 3 shards: the skip must
    // count the same channels, skipped draws and words, and leave the
    // same stream. Each fixture is checked to reach silent rounds in the
    // state its gate is about.
    let g = graph();
    let four = four_choice(N);
    let resting = RestingPush { max_age: 12 };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    pool.install(|| {
        // Push-only: uninformed callers are skipped in silent rounds too.
        // Under churn, dead slots open nothing and rewiring changes what
        // the others owe.
        for condition in [Condition::Crashes, Condition::Churn] {
            let runs = assert_single_twins_agree("resting push", &resting, &g, condition, true);
            assert!(
                runs.iter().flat_map(|r| &r.1).any(|r| silent_with_draws(r) && r.skipped_draws > 0),
                "resting push, {condition:?}: no silent round with skipped callers"
            );
            if condition == Condition::Churn {
                assert!(runs.iter().all(|r| r.2 > 0), "resting push, churn: no slot recycled");
            }
        }
        // Crashed callers open no channels and owe no words.
        let runs = assert_single_twins_agree("four-choice", &four, &g, Condition::Crashes, true);
        assert!(
            runs.iter().flat_map(|r| &r.1).any(|r| silent_with_draws(r) && r.alive < N - 2),
            "four-choice, crashes: no silent round after crashes"
        );
        // A partition does not change what a caller owes.
        let runs = assert_single_twins_agree("four-choice", &four, &g, Condition::Partition, true);
        assert!(
            runs.iter()
                .flat_map(|r| &r.1)
                .any(|r| silent_with_draws(r) && PARTITIONED.contains(&r.round)),
            "four-choice, partition: no silent round inside the partition"
        );
    });
}

#[test]
fn the_clean_condition_reaches_saturated_rounds() {
    // Guards the twin comparisons above against testing nothing: without
    // failures, four-choice run to quiescence samples only next to the
    // last uninformed nodes in its all-push rounds (frontier rounds with
    // a non-empty frontier), and counts those rounds and its pull round
    // whole once every node knows the rumour (saturated), on the single
    // engine at 1 and 3 shards; on the multi-rumour engine with three
    // staggered rumours it saturates. There the rumours cover the graph
    // before all three send uniformly, so push&pull flooding, uniform in
    // every round, shows the multi engine's non-empty frontiers.
    let g = graph();
    let four = four_choice(N);
    let clean = Exposure::from(Condition::Clean);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    pool.install(|| {
        let runs = assert_single_twins_agree("four-choice", &four, &g, clean.clone(), true);
        for (report, rounds, ..) in &runs {
            let taken = rounds.iter().filter(|r| saturated(r)).count();
            assert!(taken >= 3, "{taken} saturated rounds in {} rounds", report.rounds);
            assert!(rounds.iter().any(frontier), "no frontier round in {} rounds", report.rounds);
        }
        let masked = Masked(four.clone());
        for seed in [3u64, 8] {
            let rumours = staggered(seed);
            let native = run_multi(&four, &g, &clean, true, &rumours, seed);
            let general = run_multi(&masked, &g, &clean, true, &rumours, seed);
            let case = format!("four-choice, three rumours, seed {seed}");
            assert_multi_twins(&case, &native, general);
            let taken = native.1.iter().filter(|r| saturated(r)).count();
            assert!(taken >= 1, "three rumours, seed {seed}: no saturated round");
            let flood = FloodPushPull::new();
            let native = run_multi(&flood, &g, &clean, false, &rumours, seed);
            let general = run_multi(&Masked(flood), &g, &clean, false, &rumours, seed);
            assert_multi_twins(&format!("push&pull, three rumours, seed {seed}"), &native, general);
            assert!(native.1.iter().any(frontier), "push&pull, three rumours, seed {seed}: no frontier round");
        }
    });
}

/// An oblivious push&pull protocol whose early reception rounds push and
/// whose later ones pull-serve, until a global deadline: once everybody is
/// informed every node transmits, but its plans by reception round differ.
#[derive(Debug, Clone, Copy)]
struct EarlyPushLatePull {
    early: Round,
    deadline: Round,
}

impl Protocol for EarlyPushLatePull {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::FOUR
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let meta = RumorMeta { age: t - view.informed_at, counter: 0 };
        if t > self.deadline {
            Plan::SILENT
        } else if view.informed_at <= self.early {
            Plan::push_with(meta)
        } else {
            Plan::pull_with(meta)
        }
    }

    fn update(&self, _: &mut Self::State, _: Option<Round>, _: Round, _: &Observation) {}

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, t: Round) -> bool {
        t > self.deadline
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::ALL }
    }
}

/// Whether every alive node knows the rumour and it still travels in
/// round `r`: the state in which only the fixture's own condition can
/// rule saturation out.
fn covered_and_sending(r: &RoundCounters) -> bool {
    r.informed == r.alive && r.tx > 0
}

/// Whether a fixture's condition is in force in a round.
type Holds = fn(&RoundCounters) -> bool;

/// Asserts that `proto` under `exposure` equals its masked twin (up to
/// booked channels) and saturates no round, while some round is covered
/// and sending with the condition `holds` in force. If `books`, some
/// round under the condition is a frontier round with a non-empty
/// frontier; otherwise no round books anything.
fn assert_never_saturates<P: Protocol + Clone>(
    what: &str,
    proto: &P,
    graph: &Graph,
    exposure: Exposure,
    holds: Holds,
    books: bool,
) {
    let runs = assert_single_twins_agree(what, proto, graph, exposure, true);
    let rounds: Vec<&RoundCounters> = runs.iter().flat_map(|r| &r.1).collect();
    assert!(rounds.iter().all(|r| !saturated(r)), "{what}: a round was saturated");
    assert!(
        rounds.iter().any(|r| holds(r) && covered_and_sending(r)),
        "{what}: no covered, sending round under the condition"
    );
    if books {
        assert!(rounds.iter().any(|r| holds(r) && frontier(r)), "{what}: no frontier round under the condition");
    } else {
        assert!(rounds.iter().all(|r| r.booked_channels == 0), "{what}: a round booked channels");
    }
}

#[test]
fn saturation_falls_back_where_it_must_not_apply() {
    // Each fixture reaches rounds in which every alive node knows the
    // rumour and the protocol still transmits, and has one thing that
    // rules saturation (a whole round counted) out: it must saturate no
    // round and equal its masked twin. A crashed or suspended slot is
    // incomplete, so its neighbours are sampled in a frontier round and
    // everyone else is booked; a partition, channel loss, plans that
    // differ by reception round and a stateful policy rule frontier
    // rounds out, and nothing is booked. The crash and the partition
    // start in the first round the clean run books; the runs are
    // identical before it.
    let g = graph();
    let four = four_choice(N);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    pool.install(|| {
        let clean = Exposure::from(Condition::Clean);
        let first = [3u64, 8]
            .into_iter()
            .filter_map(|seed| {
                run(&four, &g, &clean, true, 1, seed).1.into_iter().find(|r| r.booked_channels > 0)
            })
            .map(|r| r.round)
            .min()
            .expect("the clean runs book channels");
        let plan = |schedule: Vec<FaultEvent>, outages| FaultPlan {
            schedule,
            outages,
            ..FaultPlan::default()
        };
        let crash = vec![FaultEvent::CrashNodes { at: first, nodes: vec![100] }];
        let partition = vec![FaultEvent::Partition { from: first, until: 1000, parts: 2 }];
        let outages = Some(OutageSpec::new(0.01, 4, 4));
        let none = FailureModel::NONE;
        let fixtures: [(&str, Exposure, Holds, bool); 4] = [
            ("one crash", Exposure::of(none, Some(plan(crash, None))), |r| r.alive < N, true),
            ("outages", Exposure::of(none, Some(plan(Vec::new(), outages))), |r| r.suspended > 0, true),
            ("a partition", Exposure::of(none, Some(plan(partition, None))), |_| true, false),
            ("channel loss", Exposure::of(FailureModel::channels(0.1), None), |_| true, false),
        ];
        for (what, exposure, holds, books) in fixtures {
            assert_never_saturates(&format!("four-choice, {what}"), &four, &g, exposure, holds, books);
        }
        let early = EarlyPushLatePull { early: 2, deadline: 40 };
        assert_never_saturates("early push, late pull", &early, &g, clean.clone(), |_| true, false);
        let cyclic = FloodPush::with_policy(ChoicePolicy::Cyclic);
        assert_never_saturates("cyclic push", &cyclic, &g, clean, |_| true, false);
    });
}

#[test]
fn the_census_never_keeps_a_slot_the_overlay_has_dead() {
    // A churn step makes its joins before its leaves, so a slot can be
    // recycled and left in the same step. The membership transaction
    // applies the step in that order, so such a slot ends dead in the
    // engine's census as in the overlay: push&pull flooding on a small
    // overlay with slot reuse never has a census-only alive slot, neither
    // in a round's record nor after a transaction. The run must equal its
    // masked twin up to the booked channels.
    type Churned = (RunReport, Vec<RoundCounters>, SmallRng, usize);
    fn churned<P: Protocol>(proto: &P, seed: u64) -> Churned {
        let g = gen::random_regular(64, D, &mut SmallRng::seed_from_u64(seed)).expect("graph");
        let mut overlay = Overlay::from_graph(&g, D).with_slot_reuse(true);
        let mut churn = ChurnProcess::symmetric(2.0, 32);
        let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xC4A2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = SimConfig::until_quiescent().with_max_rounds(1000).with_history();
        let mut sim = SimState::new(proto, 64, NodeId::new(0));
        sim.set_probe(Some(Box::new(Rounds::default())));
        let mut ghosts = 0;
        while !sim.finished(&overlay, proto, cfg) {
            let r = sim.step(&overlay, proto, cfg, &mut rng);
            ghosts += usize::from(r.alive != overlay.alive_nodes().len());
            let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
            sim.apply_membership(proto, events.delta());
            ghosts += usize::from(sim.effective_alive() != overlay.alive_nodes().len());
        }
        let rounds = recorded(sim.take_probe());
        (sim.into_report(&overlay, cfg), rounds, rng, ghosts)
    }
    let flood = FloodPushPull::new();
    let mut ghosts = 0;
    for seed in [1u64, 2] {
        let native = churned(&flood, seed);
        let (report, rounds, rng, _) = churned(&Masked(flood), seed);
        let rounds = expected_rounds(&format!("seed {seed}"), &native.1, &rounds);
        let report = RunReport { history: rounds.clone(), ..report };
        assert_eq!((&native.0, &native.1, &native.2), (&report, &rounds, &rng), "seed {seed}");
        ghosts += native.3;
    }
    assert_eq!(ghosts, 0, "the census and the overlay disagreed on the alive count");
}

/// Counts the words taken from it, by `next_u64` and by `discard`.
#[derive(Debug, Clone)]
struct Counting {
    inner: SmallRng,
    words: u64,
    discarded: u64,
}

impl RngCore for Counting {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn discard(&mut self, k: u64) -> u64 {
        self.words += k;
        self.discarded += k;
        self.inner.discard(k)
    }
}

#[test]
fn fabric_words_count_every_word_the_fabric_takes() {
    // Without failures only the fabric draws, so the counters must add up
    // to what the generator handed out, stepped or skipped; the silent
    // rounds of a 2^10-node four-choice run skip 4 096 words each, enough
    // to jump.
    let n = 1 << 10;
    let g = gen::random_regular(n, D, &mut SmallRng::seed_from_u64(0x10)).expect("graph");
    let four = four_choice(n);
    let cfg = SimConfig::until_quiescent();
    let mut rng = Counting { inner: SmallRng::seed_from_u64(5), words: 0, discarded: 0 };
    let mut sim = SimState::new(&four, n, NodeId::new(0));
    sim.set_probe(Some(Box::new(Rounds::default())));
    sim.run_to_completion(&g, &four, cfg, &mut rng);
    let rounds = recorded(sim.take_probe());
    let words: u64 = rounds.iter().map(|r| r.fabric_words).sum();
    let jumped: u64 = rounds.iter().map(|r| r.jumped_words).sum();
    assert_eq!(words, rng.words, "fabric_words must count every word taken");
    assert!(rounds.iter().all(|r| r.jumped_words <= r.fabric_words));
    assert!(jumped > 0 && jumped <= rng.discarded, "jumped {jumped}, discarded {}", rng.discarded);
    assert!(rounds.iter().any(|r| r.tx == 0 && r.jumped_words == r.fabric_words));
    // The same run on a bare generator ends on the same state.
    let mut bare = SmallRng::seed_from_u64(5);
    let mut sim = SimState::new(&four, n, NodeId::new(0));
    sim.run_to_completion(&g, &four, cfg, &mut bare);
    assert_eq!(bare, rng.inner);
}

#[test]
fn the_conditions_reach_the_shortcut() {
    // Guards the comparison above against testing nothing: four-choice run
    // to quiescence has silent rounds and copies to informed nodes, and
    // the churn condition recycles slots.
    let g = graph();
    let four = ProtocolSpec::FourChoice {
        n_estimate: N,
        degree: D,
        alpha: 1.0,
        choices: 4,
        regime: RegimeSpec::Auto,
    }
    .build();
    assert!(four.capabilities().oblivious);
    let (report, ..) = run(&four, &g, &Condition::Rates.into(), true, 1, 3);
    let silent = report.history.iter().filter(|r| r.push_tx + r.pull_tx == 0).count();
    assert!(silent > 0, "no silent round in {} rounds", report.rounds);
    let newly: usize = report.history.iter().map(|r| r.newly_informed).sum();
    assert!(report.total_tx() > 2 * newly as u64, "too few copies to informed nodes");
    let (_, _, rejoined, _) = run(&FloodPushPull::new(), &g, &Condition::Churn.into(), true, 3, 8);
    assert!(rejoined > 0, "churn never recycled a slot");
}

/// Records every round's counters.
#[derive(Debug, Default, Clone)]
struct Rounds(Vec<RoundCounters>);

impl RoundProbe for Rounds {
    fn on_round(&mut self, counters: &RoundCounters) {
        self.0.push(*counters);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn the_conditions_reach_the_multi_rumour_shortcut() {
    // The multi-rumour twin of the guard above: some rounds plan no node
    // of any live rumour, most copies land on informed nodes, and churn
    // recycles slots after the rumours have spread (so informed slots
    // leave the reception-round groups).
    let g = graph();
    let four = ProtocolSpec::FourChoice {
        n_estimate: N,
        degree: D,
        alpha: 1.0,
        choices: 4,
        regime: RegimeSpec::Auto,
    }
    .build();
    let mut sim = MultiSimState::new(&four, &g, &injections(3));
    sim.set_probe(Some(Box::new(Rounds::default())));
    let cfg = SimConfig::until_quiescent().with_max_rounds(60).with_failures(rates());
    sim.run_to_completion(&g, &four, cfg, &mut SmallRng::seed_from_u64(3));
    let probe = sim.take_probe().expect("probe");
    let rounds = &probe.as_any().downcast_ref::<Rounds>().expect("rounds").0;
    let report = sim.into_report();
    let silent = rounds.iter().filter(|r| r.tx == 0).count();
    assert!(silent > 0, "no round without a sender in {} rounds", report.rounds);
    let newly: usize = rounds.iter().map(|r| r.newly_informed).sum();
    assert!(report.total_rumor_tx() > 2 * newly as u64, "too few copies to informed nodes");
    let (_, _, rejoined, _) = run_multi(&four, &g, &Condition::Churn.into(), true, &injections(8), 8);
    assert!(rejoined > 0, "churn never recycled a slot");
}
