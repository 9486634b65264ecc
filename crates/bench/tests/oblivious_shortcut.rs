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
//! churn with slot reuse, and both coverage and quiescent stops.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rrb_bench::scenario::{GossipModeSpec, PolicySpec, ProtocolSpec, RegimeSpec};
use rrb_engine::protocols::{FloodPull, FloodPush, FloodPushPull, SilentProtocol};
use rrb_engine::{
    Capabilities, ChoicePolicy, FailureModel, FaultEvent, FaultPlan, FaultState, GilbertElliott,
    MultiRumorReport, MultiSimState, NodeView, Observation, OutageSpec, Plan, Protocol, Round,
    RoundCounters, RoundProbe, RumorInjection, RunReport, SimConfig, SimState,
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

/// What the run is exposed to besides the protocol.
#[derive(Debug, Clone, Copy)]
enum Condition {
    /// Channel, transmission and crash rates.
    Rates,
    /// Partition and heal, transient outages and burst loss.
    Faults,
    /// Symmetric churn on an overlay that recycles departed slots.
    Churn,
}

const CONDITIONS: [Condition; 3] = [Condition::Rates, Condition::Faults, Condition::Churn];

fn rates() -> FailureModel {
    FailureModel::channels(0.1).with_transmissions(0.15).with_crashes(0.002)
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        burst: Some(GilbertElliott::new(0.1, 0.4, 0.02, 0.6)),
        schedule: vec![FaultEvent::Partition { from: 2, until: 9, parts: 2 }],
        outages: Some(OutageSpec::new(0.03, 1, 4)),
        ..FaultPlan::default()
    }
}

/// One broadcast of `proto` on `graph` under `condition`; `quiescent`
/// runs past coverage to the protocol's own stop (or a 60-round cap).
/// Returns the report and the number of recycled slots.
fn run<P: Protocol>(
    proto: &P,
    graph: &Graph,
    condition: Condition,
    quiescent: bool,
    shards: usize,
    seed: u64,
) -> (RunReport, usize) {
    let stop = if quiescent { SimConfig::until_quiescent() } else { SimConfig::default() };
    let mut cfg = stop.with_max_rounds(60).with_history().with_shards(shards);
    let mut rng = SmallRng::seed_from_u64(seed);
    let origin = NodeId::new(seed as usize % N);
    let mut sim = SimState::new(proto, N, origin);
    match condition {
        Condition::Rates => {
            cfg = cfg.with_failures(rates());
            sim.run_to_completion(graph, proto, cfg, &mut rng);
            (sim.into_report(graph, cfg), 0)
        }
        Condition::Faults => {
            sim.set_faults(Some(FaultState::new(&fault_plan(), N, seed ^ 0xFA17)));
            sim.run_to_completion(graph, proto, cfg, &mut rng);
            (sim.into_report(graph, cfg), 0)
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
            (sim.into_report(&overlay, cfg), rejoined)
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
/// `graph` under `condition`. Returns the report and the number of
/// recycled slots.
fn run_multi<P: Protocol>(
    proto: &P,
    graph: &Graph,
    condition: Condition,
    quiescent: bool,
    seed: u64,
) -> (MultiRumorReport, usize) {
    let stop = if quiescent { SimConfig::until_quiescent() } else { SimConfig::default() };
    let mut cfg = stop.with_max_rounds(60);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = MultiSimState::new(proto, graph, &injections(seed));
    match condition {
        Condition::Rates => {
            cfg = cfg.with_failures(rates());
            sim.run_to_completion(graph, proto, cfg, &mut rng);
            (sim.into_report(), 0)
        }
        Condition::Faults => {
            sim.set_faults(Some(FaultState::new(&fault_plan(), N, seed ^ 0xFA17)));
            sim.run_to_completion(graph, proto, cfg, &mut rng);
            (sim.into_report(), 0)
        }
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
            (sim.into_report(), rejoined)
        }
    }
}

/// Asserts that `proto` and `Masked(proto)` give equal reports at 1 and 3
/// shards on the single-rumour engine and equal multi-rumour reports,
/// under every condition, with both stops, from two seeds.
fn assert_shortcut_is_invisible<P: Protocol + Clone>(label: &str, proto: &P, graph: &Graph) {
    let masked = Masked(proto.clone());
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    pool.install(|| {
        for condition in CONDITIONS {
            for quiescent in [false, true] {
                for seed in [3u64, 8] {
                    for shards in [1, 3] {
                        let native = run(proto, graph, condition, quiescent, shards, seed);
                        let general = run(&masked, graph, condition, quiescent, shards, seed);
                        assert_eq!(
                            native, general,
                            "{label}: {condition:?}, quiescent {quiescent}, {shards} shard(s), \
                             seed {seed}"
                        );
                    }
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
    let (report, _) = run(&four, &g, Condition::Rates, true, 1, 3);
    let silent = report.history.iter().filter(|r| r.push_tx + r.pull_tx == 0).count();
    assert!(silent > 0, "no silent round in {} rounds", report.rounds);
    let newly: usize = report.history.iter().map(|r| r.newly_informed).sum();
    assert!(report.total_tx() > 2 * newly as u64, "too few copies to informed nodes");
    let (_, rejoined) = run(&FloodPushPull::new(), &g, Condition::Churn, true, 3, 8);
    assert!(rejoined > 0, "churn never recycled a slot");
}

/// Records every round's counters.
#[derive(Debug, Default)]
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
    let (_, rejoined) = run_multi(&four, &g, Condition::Churn, true, 8);
    assert!(rejoined > 0, "churn never recycled a slot");
}
