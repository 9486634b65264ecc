//! Shard-count invariance suite: the single engine's one round path
//! must be **byte-identical** at any shard count and any thread count —
//! same per-round records, same final report, same per-node delivery
//! trace — across every failure model, adversarial fault plan, and live
//! membership churn. The baseline is the same path at one shard and one
//! thread (where push receipts skip the outboxes); the independent
//! reference for that baseline is the parity suite (`tests/parity.rs`),
//! which checks it against the multi-rumour engine's own exchange code.
//!
//! The determinism contract under test (see `shard.rs` module docs):
//! every model RNG draw stays on the main sequential stream in one fixed
//! order, the fanned-out phases are RNG-free, and cross-shard effects
//! merge at the round barrier in ascending source-shard order. Thread
//! scheduling may reorder *work*, never *observations* — which is
//! exactly what the matrix below and the proptest at the bottom pin.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use rrb_engine::protocols::{FloodPushPull, Phased};
use rrb_engine::{
    AdversarySpec, AdversaryTarget, ChoicePolicy, FailureModel, FaultEvent, FaultPlan,
    FaultState, GilbertElliott, NodeView, Observation, Plan, Protocol, Round, RoundCounters,
    RumorMeta, RunReport, SimConfig, SimState, Topology,
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
            sim.apply_joins(protocol, &events.joined);
            sim.apply_leaves(&events.left);
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
