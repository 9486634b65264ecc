//! Shard-count invariance suite: the single engine's one round path
//! must be **byte-identical** at any shard count and any thread count —
//! same per-round records, same final report, same per-node delivery
//! trace — across every failure model, adversarial fault plan, and live
//! membership churn. The multi-rumour engine's fabric, which fans out
//! over the same shard count, is held to the same standard: every
//! round's counters, the report and the final generator. The baseline is the same path at one shard and one
//! thread (where push receipts skip the outboxes); the independent
//! reference for that baseline is the parity suite (`tests/parity.rs`),
//! which checks it against the multi-rumour engine's own exchange code.
//!
//! The determinism contract under test (see `shard.rs` module docs):
//! every model RNG draw is taken at its position in the main stream (the
//! fast-path fabric's shards on clones moved to their exact offsets), the
//! other fanned-out phases are RNG-free, and cross-shard effects merge at
//! the round barrier in ascending source-shard order. Thread scheduling
//! may reorder *work*, never *observations* — which is exactly what the
//! matrix below and the proptest at the bottom pin.

use std::any::Any;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use rrb_core::FourChoice;
use rrb_engine::protocols::{FloodPushPull, Phased};
use rrb_engine::{
    AdversarySpec, AdversaryTarget, Capabilities, ChoicePolicy, FailureModel, FaultEvent, FaultPlan,
    FaultState, GilbertElliott, MultiRumorReport, MultiSimState, NodeView, Observation, Plan,
    Protocol, Round, RoundCounters, RoundProbe, RumorInjection, RumorMeta, RunReport, SimConfig,
    SimState, Topology,
};
use rrb_graph::{gen, Graph, NodeId};

/// Stateful push&pull protocol exercising the meta/update paths (same
/// shape as the parity suite's): transmits for `budget` rounds after
/// reception, stamping ages; state counts every received copy.
#[derive(Debug, Clone)]
struct CountingGossip {
    budget: Round,
}

impl Protocol for CountingGossip {
    type State = u32;

    fn init(&self, creator: bool) -> Self::State {
        u32::from(creator)
    }

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::Distinct(2)
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let age = t - view.informed_at;
        if age <= self.budget {
            Plan::push_pull_with(RumorMeta { age, counter: *view.state })
        } else {
            Plan::SILENT
        }
    }

    fn update(
        &self,
        state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        obs: &Observation,
    ) {
        *state += obs.received() as u32;
    }

    fn is_quiescent(&self, _state: &Self::State, informed_at: Round, t: Round) -> bool {
        t > informed_at + self.budget
    }
}

/// Push-only `Distinct(4)` flooding whose informed nodes push for
/// `pushes` rounds after reception and then rest, quiet but not
/// quiescent, for `rest` more rounds. Not oblivious, so its all-quiet
/// rounds are sampled caller by caller: every caller is `Quiet` and owes
/// its words.
#[derive(Debug, Clone)]
struct PushThenRest {
    pushes: Round,
    rest: Round,
}

impl Protocol for PushThenRest {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::FOUR
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::PUSH_ONLY
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let age = t - view.informed_at;
        if age <= self.pushes {
            Plan::push_with(RumorMeta { age, counter: 0 })
        } else {
            Plan::SILENT
        }
    }

    fn update(&self, _: &mut Self::State, _: Option<Round>, _: Round, _: &Observation) {}

    fn is_quiescent(&self, _state: &Self::State, informed_at: Round, t: Round) -> bool {
        t > informed_at + self.pushes + self.rest
    }
}

/// Everything one run observably produces: the per-round records, the
/// final report, and the per-node delivery trace.
#[derive(Debug, PartialEq)]
struct Trajectory {
    records: Vec<RoundCounters>,
    report: RunReport,
    informed_at: Vec<Option<Round>>,
}

/// Runs one simulation to completion at the given shard count inside a
/// dedicated `threads`-wide rayon pool and captures the full trajectory.
#[allow(clippy::too_many_arguments)]
fn run_cell<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    plan: Option<&FaultPlan>,
    origin: NodeId,
    seed: u64,
    shards: usize,
    threads: usize,
) -> Trajectory {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(|| {
        let n = Topology::node_count(graph);
        let config = config.with_shards(shards);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = SimState::new(protocol, n, origin);
        if let Some(plan) = plan {
            sim.set_faults(Some(FaultState::new(plan, n, seed.wrapping_add(0xFA17))));
        }
        let mut records = Vec::new();
        while !sim.finished(graph, protocol, config) {
            records.push(sim.step(graph, protocol, config, &mut rng));
            assert!(records.len() < 5_000, "runaway run (seed {seed}, shards {shards})");
        }
        let informed_at = (0..n).map(|i| sim.informed_at(NodeId::new(i))).collect();
        let report = sim.into_report(graph, config);
        Trajectory { records, report, informed_at }
    })
}

/// The matrix: shards ∈ {1, 2, 4} × threads ∈ {1, 4}, every cell
/// compared byte-for-byte against the shards=1/threads=1 baseline.
fn assert_shard_invariance<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    plan: Option<&FaultPlan>,
    origin: NodeId,
    seed: u64,
) {
    let baseline = run_cell(graph, protocol, config, plan, origin, seed, 1, 1);
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let cell = run_cell(graph, protocol, config, plan, origin, seed, shards, threads);
            assert_eq!(
                baseline, cell,
                "{label} seed {seed}: shards={shards} threads={threads} diverged from serial"
            );
        }
    }
}

fn regular_graph(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    gen::random_regular(128, 6, &mut rng).expect("graph generation")
}

#[test]
fn sharding_invariance_without_faults() {
    let g = regular_graph(21);
    for seed in 0..3 {
        assert_shard_invariance(
            "flood",
            &g,
            &FloodPushPull::new(),
            SimConfig::default().with_max_rounds(400),
            None,
            NodeId::new(5),
            seed,
        );
        assert_shard_invariance(
            "counting",
            &g,
            &CountingGossip { budget: 12 },
            SimConfig::until_quiescent().with_max_rounds(400),
            None,
            NodeId::new(5),
            seed,
        );
    }
}

#[test]
fn sharding_invariance_of_quiet_runs_across_shard_boundaries() {
    // Once every node has pushed its rounds, all 2 048 callers are quiet:
    // one run of 8 192 owed words on one shard, four runs of 2 048 on
    // four. The words skipped without being drawn must not depend on
    // where the shard boundaries cut the run.
    let g = gen::random_regular(2048, 8, &mut SmallRng::seed_from_u64(27)).expect("graph");
    let proto = PushThenRest { pushes: 20, rest: 3 };
    let cfg = SimConfig::until_quiescent().with_max_rounds(400);
    let baseline = run_cell(&g, &proto, cfg, None, NodeId::new(9), 0, 1, 1);
    assert!(baseline.report.all_informed());
    let all_quiet = |r: &RoundCounters| r.tx == 0 && r.jumped_words == r.fabric_words;
    assert!(
        baseline.records.iter().any(|r| all_quiet(r) && r.fabric_words > 4096),
        "no all-quiet round long enough to jump at one shard and step at four"
    );
    assert_shard_invariance("push-then-rest", &g, &proto, cfg, None, NodeId::new(9), 0);
}

#[test]
fn sharding_invariance_of_saturated_rounds() {
    // The paper's four-choice algorithm to quiescence without failures:
    // its push rounds and its pull round are frontier rounds, each shard
    // counting its callers and listing its incomplete slots, sampling the
    // frontier callers and booking the rest; once every node knows the
    // rumour they are counted whole (saturated). Counters, reports and
    // delivery traces must not depend on the shards.
    let g = gen::random_regular(2048, 8, &mut SmallRng::seed_from_u64(28)).expect("graph");
    let four = FourChoice::for_graph(2048, 8);
    let cfg = SimConfig::until_quiescent();
    let baseline = run_cell(&g, &four, cfg, None, NodeId::new(9), 0, 1, 1);
    let saturated =
        |r: &&RoundCounters| r.tx > 0 && r.fabric_words > 0 && r.jumped_words == r.fabric_words;
    let taken = baseline.records.iter().filter(saturated).count();
    assert!(taken >= 3, "{taken} saturated rounds");
    let frontier = |r: &RoundCounters| r.booked_channels > 0 && r.booked_channels < r.channels;
    assert!(baseline.records.iter().any(frontier), "no frontier round with a non-empty frontier");
    for shards in [2, 3, 7] {
        let cell = run_cell(&g, &four, cfg, None, NodeId::new(9), 0, shards, 3);
        assert_eq!(baseline, cell, "four-choice: {shards} shards diverged from one");
    }
}

#[test]
fn sharding_invariance_with_iid_failures() {
    // Transmission failures are the sharp case: every shard count must
    // pre-draw per-channel outcomes in the same interleaved push/pull
    // order (callers ascending).
    let g = regular_graph(22);
    let cfg = SimConfig::default()
        .with_failures(FailureModel {
            channel_failure: 0.15,
            transmission_failure: 0.2,
            node_crash: 0.005,
        })
        .with_max_rounds(800);
    for seed in 0..3 {
        assert_shard_invariance("flood+iid", &g, &FloodPushPull::new(), cfg, None, NodeId::new(7), seed);
        assert_shard_invariance(
            "counting+iid",
            &g,
            &CountingGossip { budget: 20 },
            SimConfig { stop_at_coverage: false, ..cfg },
            None,
            NodeId::new(7),
            seed,
        );
    }
}

#[test]
fn sharding_invariance_under_gilbert_elliott_bursts() {
    let g = regular_graph(23);
    let plan = FaultPlan {
        burst: Some(GilbertElliott::new(0.15, 0.35, 0.02, 0.8)),
        ..FaultPlan::default()
    };
    let cfg = SimConfig::default().with_max_rounds(800);
    for seed in 0..3 {
        assert_shard_invariance("ge-burst", &g, &FloodPushPull::new(), cfg, Some(&plan), NodeId::new(5), seed);
    }
}

#[test]
fn sharding_invariance_under_scripted_partitions() {
    let g = regular_graph(24);
    let plan = FaultPlan {
        schedule: vec![
            FaultEvent::Partition { from: 2, until: 10, parts: 2 },
            FaultEvent::CrashNodes { at: 4, nodes: vec![1, 17, 33] },
            FaultEvent::LossWindow { from: 6, until: 12, channel: Some(0.4), transmission: None },
        ],
        ..FaultPlan::default()
    };
    let cfg = SimConfig::default().with_max_rounds(800);
    for seed in 0..3 {
        assert_shard_invariance("scripted", &g, &FloodPushPull::new(), cfg, Some(&plan), NodeId::new(5), seed);
        assert_shard_invariance(
            "scripted+counting",
            &g,
            &CountingGossip { budget: 16 },
            SimConfig { failures: FailureModel::channels(0.1), stop_at_coverage: false, ..cfg },
            Some(&plan),
            NodeId::new(5),
            seed,
        );
    }
}

#[test]
fn sharding_invariance_under_adversary_and_outages() {
    let g = regular_graph(25);
    let plan = FaultPlan {
        burst: Some(GilbertElliott::new(0.1, 0.5, 0.0, 0.6)),
        schedule: vec![FaultEvent::Partition { from: 3, until: 9, parts: 3 }],
        adversary: Some(AdversarySpec::new(AdversaryTarget::EarliestInformed, 1, 8)),
        outages: Some(OutageSpec::new(0.03, 2, 5)),
    };
    let cfg = SimConfig::default().with_max_rounds(1200);
    for seed in 0..2 {
        assert_shard_invariance("everything", &g, &FloodPushPull::new(), cfg, Some(&plan), NodeId::new(5), seed);
    }
}

use rrb_engine::OutageSpec;

/// Churn variant: identical membership deltas applied at every shard
/// count, so slot growth (which only the last shard absorbs) and the
/// census hooks are exercised on the sharded path.
fn run_churn_cell<P: Protocol>(
    protocol: &P,
    config: SimConfig,
    rate: f64,
    seed: u64,
    shards: usize,
    threads: usize,
) -> Trajectory {
    use rrb_p2p::{ChurnProcess, Overlay};

    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(|| {
        let config = config.with_shards(shards);
        let mut overlay_rng = SmallRng::seed_from_u64(seed.wrapping_add(0x0EA1));
        let mut overlay = Overlay::random(96, 6, &mut overlay_rng).expect("overlay");
        let origin = NodeId::new(4);
        let n = Topology::node_count(&overlay);
        let mut churn = ChurnProcess::symmetric(rate, 48);
        let mut churn_rng = SmallRng::seed_from_u64(seed.wrapping_add(0xC0DE));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = SimState::new(protocol, n, origin);
        let mut records = Vec::new();
        while !sim.finished(&overlay, protocol, config) {
            records.push(sim.step(&overlay, protocol, config, &mut rng));
            let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
            overlay.rewire(4, &mut churn_rng);
            sim.apply_membership(protocol, events.delta());
            assert!(records.len() < 2_000, "runaway churn run (seed {seed})");
        }
        let slots = Topology::node_count(&overlay);
        let informed_at = (0..slots).map(|i| sim.informed_at(NodeId::new(i))).collect();
        let report = sim.into_report(&overlay, config);
        Trajectory { records, report, informed_at }
    })
}

#[test]
fn sharding_invariance_under_churn() {
    let cfg = SimConfig::default().with_max_rounds(400);
    for seed in 0..3 {
        let baseline = run_churn_cell(&FloodPushPull::new(), cfg, 2.0, seed, 1, 1);
        for shards in [2usize, 4] {
            for threads in [1usize, 4] {
                let cell = run_churn_cell(&FloodPushPull::new(), cfg, 2.0, seed, shards, threads);
                assert_eq!(
                    baseline, cell,
                    "churn seed {seed}: shards={shards} threads={threads} diverged"
                );
            }
        }
    }
    // Heavy churn + quiescence stopping on the stateful protocol.
    let quiet = SimConfig::until_quiescent().with_max_rounds(400);
    let proto = CountingGossip { budget: 16 };
    let baseline = run_churn_cell(&proto, quiet, 8.0, 1, 1, 1);
    let cell = run_churn_cell(&proto, quiet, 8.0, 1, 4, 4);
    assert_eq!(baseline, cell, "heavy churn diverged at shards=4/threads=4");
}

/// Algorithm 1's shape (push-once rounds, all-push rounds, one pull round,
/// a mostly silent tail) under every choice policy: the plan phase, which
/// gates the fabric, runs before it on both paths, so rounds without a
/// pull store only the pushers' channels at any shard count.
fn phased_protocols() -> [(&'static str, Phased); 3] {
    let base = Phased::new(3, 5, 14);
    [
        ("phased-four", base),
        ("phased-sequential", base.with_policy(ChoicePolicy::SEQUENTIAL)),
        ("phased-cyclic", base.with_policy(ChoicePolicy::Cyclic)),
    ]
}

#[test]
fn sharding_invariance_of_phased_protocol() {
    let g = regular_graph(26);
    let quiescent = SimConfig::until_quiescent();
    let iid = quiescent.with_failures(FailureModel {
        channel_failure: 0.15,
        transmission_failure: 0.2,
        node_crash: 0.005,
    });
    let plan = FaultPlan {
        burst: Some(GilbertElliott::new(0.15, 0.35, 0.02, 0.8)),
        schedule: vec![FaultEvent::Partition { from: 2, until: 7, parts: 2 }],
        ..FaultPlan::default()
    };
    for (label, proto) in phased_protocols() {
        for seed in 0..2 {
            assert_shard_invariance(label, &g, &proto, quiescent, None, NodeId::new(5), seed);
            let iid_label = format!("{label}+iid");
            assert_shard_invariance(&iid_label, &g, &proto, iid, None, NodeId::new(5), seed);
            let plan_label = format!("{label}+ge+partition");
            let origin = NodeId::new(5);
            assert_shard_invariance(&plan_label, &g, &proto, quiescent, Some(&plan), origin, seed);
        }
    }
}

#[test]
fn sharding_invariance_of_phased_protocol_under_churn() {
    let quiescent = SimConfig::until_quiescent();
    for (label, proto) in phased_protocols() {
        let baseline = run_churn_cell(&proto, quiescent, 2.0, 0, 1, 1);
        for (shards, threads) in [(2usize, 1usize), (4, 4)] {
            let cell = run_churn_cell(&proto, quiescent, 2.0, 0, shards, threads);
            assert_eq!(
                baseline, cell,
                "{label} churn: shards={shards} threads={threads} diverged"
            );
        }
    }
}

/// Everything one multi-rumour run observably produces: every round's
/// counters, the report and the generator afterwards.
#[derive(Debug, PartialEq)]
struct MultiTrajectory {
    records: Vec<RoundCounters>,
    report: MultiRumorReport,
    rng: SmallRng,
}

/// Probe that keeps every round's counters.
#[derive(Debug, Default)]
struct Record(Vec<RoundCounters>);

impl RoundProbe for Record {
    fn on_round(&mut self, counters: &RoundCounters) {
        self.0.push(*counters);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Runs the multi-rumour engine to completion at `shards` fabric segments
/// inside a three-wide rayon pool, applying `churn`'s membership deltas
/// (joins, leaves and slot-reuse rejoins) after every round; returns the
/// trajectory and the rejoins seen.
fn run_multi_cell<P: Protocol>(
    protocol: &P,
    config: SimConfig,
    overlay: &rrb_p2p::Overlay,
    injections: &[RumorInjection],
    churn: Option<(f64, u64)>,
    shards: usize,
) -> (MultiTrajectory, usize) {
    use rrb_p2p::ChurnProcess;

    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
    pool.install(|| {
        let config = config.with_shards(shards);
        let mut overlay = overlay.clone();
        let mut process = churn.map(|(rate, _)| ChurnProcess::symmetric(rate, Topology::node_count(&overlay) / 2));
        let mut churn_rng = SmallRng::seed_from_u64(churn.map_or(0, |(_, seed)| seed));
        let mut rng = SmallRng::seed_from_u64(17);
        let mut sim = MultiSimState::new(protocol, &overlay, injections);
        sim.set_probe(Some(Box::new(Record::default())));
        let mut rejoins = 0;
        while !sim.finished(protocol, config) {
            sim.step(&overlay, protocol, config, &mut rng);
            if let Some(process) = process.as_mut() {
                let events = process.step(&mut overlay, &mut churn_rng).expect("churn step");
                overlay.rewire(4, &mut churn_rng);
                sim.apply_membership(protocol, events.delta());
                rejoins += events.rejoined.len();
            }
            assert!(sim.round() < 2_000, "runaway multi run at {shards} shards");
        }
        let probe = sim.take_probe().expect("probe installed");
        let records = probe.as_any().downcast_ref::<Record>().expect("a Record probe").0.clone();
        (MultiTrajectory { records, report: sim.into_report(), rng }, rejoins)
    })
}

/// Three rumours born at `births` from spread-out origins.
fn staggered(births: [Round; 3]) -> Vec<RumorInjection> {
    births
        .iter()
        .zip([9, 700, 1500])
        .map(|(&birth, origin)| RumorInjection { birth, origin: NodeId::new(origin) })
        .collect()
}

#[test]
fn multi_engine_fabric_is_shard_invariant() {
    // Three staggered four-choice rumours to quiescence and three
    // push&pull rumours to coverage on rr(2048, 8): the multi engine's
    // fabric fans out over the shards in its sampled, silent and frontier
    // rounds. Every round's counters, the report and the generator must
    // not depend on the shard count.
    let mut graph_rng = SmallRng::seed_from_u64(29);
    let overlay = rrb_p2p::Overlay::random(2048, 8, &mut graph_rng).expect("overlay");
    let four = FourChoice::for_graph(2048, 8);
    let flood = FloodPushPull::with_policy(ChoicePolicy::FOUR);
    let quiescent = SimConfig::until_quiescent();
    // The push&pull rumours are born from round 2 on, so the first rounds
    // carry no rumour at all: silent.
    let (four_runs, flood_runs) = (staggered([0, 2, 5]), staggered([2, 4, 7]));
    let cases: [(&str, &dyn Fn(usize) -> MultiTrajectory); 2] = [
        ("four-choice", &|shards| run_multi_cell(&four, quiescent, &overlay, &four_runs, None, shards).0),
        ("push&pull", &|shards| run_multi_cell(&flood, SimConfig::default(), &overlay, &flood_runs, None, shards).0),
    ];
    for (label, run) in cases {
        let baseline = run(1);
        assert!(baseline.report.all_delivered(), "{label}");
        let records = &baseline.records;
        let silent = records.iter().filter(|r| r.tx == 0 && r.fabric_words > 0 && r.jumped_words == r.fabric_words);
        let frontier = records.iter().filter(|r| 0 < r.booked_channels && r.booked_channels < r.channels);
        let sampled = records.iter().filter(|r| r.booked_channels == 0 && r.jumped_words < r.fabric_words);
        let kinds = (sampled.count(), silent.count(), frontier.count());
        assert!(kinds.0 > 0 && kinds.1 > 0 && kinds.2 > 0, "{label}: (sampled, silent, frontier) rounds {kinds:?}");
        for shards in [2, 3, 7] {
            assert_eq!(baseline, run(shards), "{label}: {shards} shards diverged from one");
        }
    }
}

#[test]
fn multi_engine_fabric_is_shard_invariant_under_churn_with_slot_reuse() {
    // Joins, leaves and rejoins into recycled slots between rounds: the
    // fabric's segments follow the slot space as it grows, and the
    // recycled slots' state is reset, at every shard count.
    let mut graph_rng = SmallRng::seed_from_u64(31);
    let overlay = rrb_p2p::Overlay::random(256, 8, &mut graph_rng).expect("overlay").with_slot_reuse(true);
    let flood = FloodPushPull::with_policy(ChoicePolicy::FOUR);
    let injections: Vec<RumorInjection> =
        [(0, 4), (3, 100), (6, 200)].map(|(birth, i)| RumorInjection { birth, origin: NodeId::new(i) }).into();
    let config = SimConfig::default().with_max_rounds(400);
    let (baseline, rejoins) = run_multi_cell(&flood, config, &overlay, &injections, Some((4.0, 0xC0DE)), 1);
    assert!(rejoins > 0, "no slot was reused");
    for shards in [2, 3, 7] {
        let (cell, _) = run_multi_cell(&flood, config, &overlay, &injections, Some((4.0, 0xC0DE)), shards);
        assert_eq!(baseline, cell, "churn: {shards} shards diverged from one");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merge order never depends on thread scheduling: for arbitrary
    /// (graph seed, run seed, shard count, thread count), the trajectory
    /// equals the same shard count on one thread — any scheduling effect
    /// would make some interleaving diverge — and equals one shard on
    /// one thread, pinning the barrier-merge order to the global caller
    /// order rather than to completion order.
    #[test]
    fn merge_order_is_schedule_independent(
        graph_seed in 0u64..50,
        seed in 0u64..50,
        shards in 1usize..6,
        threads in 2usize..8,
    ) {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        let g = gen::random_regular(64, 6, &mut rng).expect("graph");
        let cfg = SimConfig::default()
            .with_failures(FailureModel::transmissions(0.2))
            .with_max_rounds(400);
        let proto = FloodPushPull::new();
        let origin = NodeId::new((seed % 64) as usize);
        let serial = run_cell(&g, &proto, cfg, None, origin, seed, 1, 1);
        let one_thread = run_cell(&g, &proto, cfg, None, origin, seed, shards, 1);
        let many_threads = run_cell(&g, &proto, cfg, None, origin, seed, shards, threads);
        prop_assert_eq!(&one_thread, &many_threads, "thread scheduling leaked into the merge");
        prop_assert_eq!(&serial, &one_thread, "sharded path diverged from serial");
    }
}
