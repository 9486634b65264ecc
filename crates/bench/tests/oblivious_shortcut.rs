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
}

const CONDITIONS: [Condition; 3] = [Condition::Rates, Condition::Faults, Condition::Churn];

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

/// One broadcast's report, every round's probe counters and the number
/// of recycled slots.
type Run<R> = (R, Vec<RoundCounters>, usize);

/// The counters [`Rounds`] recorded, read back from the engine.
fn recorded(probe: Option<BoxedProbe>) -> Vec<RoundCounters> {
    let probe = probe.expect("probe");
    probe.as_any().downcast_ref::<Rounds>().expect("rounds").0.clone()
}

/// One broadcast of `proto` on `graph` under `condition`; `quiescent`
/// runs past coverage to the protocol's own stop (or a 60-round cap).
fn run<P: Protocol>(
    proto: &P,
    graph: &Graph,
    condition: Condition,
    quiescent: bool,
    shards: usize,
    seed: u64,
) -> Run<RunReport> {
    let stop = if quiescent { SimConfig::until_quiescent() } else { SimConfig::default() };
    let mut cfg = stop.with_max_rounds(60).with_history().with_shards(shards);
    let mut rng = SmallRng::seed_from_u64(seed);
    let origin = NodeId::new(seed as usize % N);
    let mut sim = SimState::new(proto, N, origin);
    sim.set_probe(Some(Box::new(Rounds::default())));
    match condition {
        Condition::Rates | Condition::Crashes | Condition::Faults | Condition::Partition => {
            match condition {
                Condition::Rates => cfg = cfg.with_failures(rates()),
                Condition::Crashes => cfg = cfg.with_failures(FailureModel::crashes(0.01)),
                Condition::Faults => {
                    sim.set_faults(Some(FaultState::new(&fault_plan(), N, seed ^ 0xFA17)))
                }
                _ => sim.set_faults(Some(FaultState::new(&partition_plan(), N, seed ^ 0xFA17))),
            }
            sim.run_to_completion(graph, proto, cfg, &mut rng);
            let rounds = recorded(sim.take_probe());
            (sim.into_report(graph, cfg), rounds, 0)
        }
        Condition::Churn => {
            let mut overlay = Overlay::from_graph(graph, D).with_slot_reuse(true);
            let mut churn = ChurnProcess::symmetric(4.0, N / 2);
            let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xC4A2);
            let mut rejoined = 0;
            while !sim.finished(&overlay, proto, cfg) {
                sim.step(&overlay, proto, cfg, &mut rng);
                let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
                overlay.rewire(4, &mut churn_rng);
                sim.apply_joins(proto, &events.joined);
                sim.apply_leaves(&events.left);
                sim.apply_rejoins(proto, &events.rejoined);
                rejoined += events.rejoined.len();
            }
            let rounds = recorded(sim.take_probe());
            (sim.into_report(&overlay, cfg), rounds, rejoined)
        }
    }
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

/// The multi-rumour counterpart of [`run`]: [`injections`] broadcast on
/// `graph` under `condition` (one of [`CONDITIONS`]).
fn run_multi<P: Protocol>(
    proto: &P,
    graph: &Graph,
    condition: Condition,
    quiescent: bool,
    seed: u64,
) -> Run<MultiRumorReport> {
    let stop = if quiescent { SimConfig::until_quiescent() } else { SimConfig::default() };
    let mut cfg = stop.with_max_rounds(60);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = MultiSimState::new(proto, graph, &injections(seed));
    sim.set_probe(Some(Box::new(Rounds::default())));
    match condition {
        Condition::Rates | Condition::Faults => {
            if condition == Condition::Rates {
                cfg = cfg.with_failures(rates());
            } else {
                sim.set_faults(Some(FaultState::new(&fault_plan(), N, seed ^ 0xFA17)));
            }
            sim.run_to_completion(graph, proto, cfg, &mut rng);
            let rounds = recorded(sim.take_probe());
            (sim.into_report(), rounds, 0)
        }
        Condition::Crashes | Condition::Partition => unreachable!("not a multi-rumour condition"),
        Condition::Churn => {
            let mut overlay = Overlay::from_graph(graph, D).with_slot_reuse(true);
            let mut churn = ChurnProcess::symmetric(4.0, N / 2);
            let mut churn_rng = SmallRng::seed_from_u64(seed ^ 0xC4A2);
            let mut rejoined = 0;
            while !sim.finished(proto, cfg) {
                sim.step(&overlay, proto, cfg, &mut rng);
                let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
                overlay.rewire(4, &mut churn_rng);
                sim.apply_joins(proto, &events.joined);
                sim.apply_leaves(&events.left);
                sim.apply_rejoins(proto, &events.rejoined);
                rejoined += events.rejoined.len();
            }
            let rounds = recorded(sim.take_probe());
            (sim.into_report(), rounds, rejoined)
        }
    }
}

/// Asserts that `proto` and `Masked(proto)` give equal single-engine
/// runs (reports and per-round counters) at 1 and 3 shards under
/// `condition`, from two seeds, and returns the native runs.
fn assert_single_twins_agree<P: Protocol + Clone>(
    label: &str,
    proto: &P,
    graph: &Graph,
    condition: Condition,
    quiescent: bool,
) -> Vec<Run<RunReport>> {
    let masked = Masked(proto.clone());
    let mut runs = Vec::new();
    for seed in [3u64, 8] {
        for shards in [1, 3] {
            let native = run(proto, graph, condition, quiescent, shards, seed);
            let general = run(&masked, graph, condition, quiescent, shards, seed);
            assert_eq!(
                native, general,
                "{label}: {condition:?}, quiescent {quiescent}, {shards} shard(s), seed {seed}"
            );
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
            for quiescent in [false, true] {
                assert_single_twins_agree(label, proto, graph, condition, quiescent);
                for seed in [3u64, 8] {
                    let native = run_multi(proto, graph, condition, quiescent, seed);
                    let general = run_multi(&masked, graph, condition, quiescent, seed);
                    assert_eq!(
                        native, general,
                        "{label}: multi-rumour, {condition:?}, quiescent {quiescent}, seed {seed}"
                    );
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
    let (report, _, _) = run(&four, &g, Condition::Rates, true, 1, 3);
    let silent = report.history.iter().filter(|r| r.push_tx + r.pull_tx == 0).count();
    assert!(silent > 0, "no silent round in {} rounds", report.rounds);
    let newly: usize = report.history.iter().map(|r| r.newly_informed).sum();
    assert!(report.total_tx() > 2 * newly as u64, "too few copies to informed nodes");
    let (_, _, rejoined) = run(&FloodPushPull::new(), &g, Condition::Churn, true, 3, 8);
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
    let (_, _, rejoined) = run_multi(&four, &g, Condition::Churn, true, 8);
    assert!(rejoined > 0, "churn never recycled a slot");
}
