//! Seed-for-seed parity suite: a one-rumour [`MultiSimState`] must
//! reproduce the single-rumour [`SimState`] trajectory exactly — the same
//! [`RoundCounters`] every round (informed counts, transmissions,
//! channels, skipped draws and generator words), same stopping round,
//! same coverage round, same transmission and channel totals — for the
//! same RNG seed, across every failure model.
//!
//! This is the correctness anchor of the multi-rumour arena port: both
//! engines are built from the shared fabric/index machinery and consume
//! identical RNG draw sequences (crash sampling, channel sampling, channel
//! failures, and — thanks to the once-per-direction transmission draws of
//! the combining bugfix — transmission failures too), so wherever the two
//! models coincide the refactor is provably behaviour-preserving.
//!
//! Both engines sample through the same round gate (`fabric.rs`), so for
//! the fabric this suite is a consistency check, not an independent
//! reference: that is the naive oracle's job (`tests/oracle.rs`). The
//! multi engine still has its own plan, exchange and digest code, and
//! every lockstep check below runs both engines at each of
//! [`SHARD_COUNTS`]: both fan their fabric out over the shards.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rrb_core::FourChoice;
use rrb_engine::protocols::{FloodPull, FloodPush, FloodPushPull, Phased};
use rrb_engine::{
    AdversarySpec, AdversaryTarget, Capabilities, ChoicePolicy, FailureModel, FaultEvent,
    FaultPlan, FaultState, GilbertElliott, MultiSimState, NodeView, Observation, OutageSpec,
    Plan, Protocol, Round, RoundCounters, RoundProbe, RumorInjection, RumorMeta, SimConfig,
    SimState, Topology,
};
use rrb_graph::{gen, Graph, NodeId};

/// Stateful push&pull protocol exercising the meta/update paths: each node
/// transmits for `budget` rounds after reception, stamping ages, and its
/// state counts every copy it ever received (order-insensitive, like every
/// real protocol in the workspace).
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

/// Push-only variant so the capability-gated sampling skip engages on both
/// engines.
#[derive(Debug, Clone)]
struct CountingPush {
    inner: CountingGossip,
}

impl Protocol for CountingPush {
    type State = u32;

    fn init(&self, creator: bool) -> Self::State {
        self.inner.init(creator)
    }

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::FOUR
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let mut plan = self.inner.plan(view, t);
        plan.pull_serve = false;
        plan
    }

    fn update(
        &self,
        state: &mut Self::State,
        informed_at: Option<Round>,
        t: Round,
        obs: &Observation,
    ) {
        self.inner.update(state, informed_at, t, obs)
    }

    fn is_quiescent(&self, state: &Self::State, informed_at: Round, t: Round) -> bool {
        self.inner.is_quiescent(state, informed_at, t)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::PUSH_ONLY
    }
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

/// A one-rumour multi-engine run from `origin` with a [`Record`] probe.
fn recorded_multi<P: Protocol, T: Topology>(
    protocol: &P,
    topo: &T,
    origin: NodeId,
) -> MultiSimState<P> {
    let mut multi = MultiSimState::new(protocol, topo, &[RumorInjection { birth: 0, origin }]);
    multi.set_probe(Some(Box::new(Record::default())));
    multi
}

/// Asserts the single engine's per-round counters equal the ones the
/// multi engine's [`Record`] probe received, field by field.
fn assert_same_rounds<P: Protocol>(
    label: &str,
    seed: u64,
    single: &[RoundCounters],
    multi: &mut MultiSimState<P>,
) {
    let probe = multi.take_probe().expect("probe installed");
    let recorded = &probe.as_any().downcast_ref::<Record>().expect("a Record probe").0;
    assert_eq!(single.len(), recorded.len(), "{label} seed {seed}: round counts diverged");
    for (s, m) in single.iter().zip(recorded) {
        assert_eq!(s, m, "{label} seed {seed}: round {} counters diverged", s.round);
    }
}

/// Shard counts the single engine runs at in every lockstep check: one
/// shard (push receipts recorded directly) and several (push receipts
/// through the cross-shard outboxes).
const SHARD_COUNTS: [usize; 2] = [1, 3];

/// Drives both engines in lockstep from identical seeds and asserts the
/// full trajectory matches; returns the rounds of each shard count.
fn assert_parity<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    origin: NodeId,
    seed: u64,
) -> Vec<Vec<RoundCounters>> {
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let label = format!("{label} shards={shards}");
            assert_parity_at(&label, graph, protocol, config.with_shards(shards), origin, seed)
        })
        .collect()
}

/// One shard count of [`assert_parity`]: the rounds both engines made.
fn assert_parity_at<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    origin: NodeId,
    seed: u64,
) -> Vec<RoundCounters> {
    let n = Topology::node_count(graph);
    let mut single_rng = SmallRng::seed_from_u64(seed);
    let mut multi_rng = SmallRng::seed_from_u64(seed);
    let mut single = SimState::new(protocol, n, origin);
    let mut multi = recorded_multi(protocol, graph, origin);
    let mut rounds = Vec::new();

    loop {
        let sf = single.finished(graph, protocol, config);
        let mf = multi.finished(protocol, config);
        assert_eq!(
            sf,
            mf,
            "{label} seed {seed}: stop disagreement at round {}",
            single.round()
        );
        if sf {
            break;
        }
        let rec = single.step(graph, protocol, config, &mut single_rng);
        multi.step(graph, protocol, config, &mut multi_rng);
        assert_eq!(single.round(), multi.round());
        assert_eq!(
            rec.informed,
            multi.informed_count(0),
            "{label} seed {seed}: informed trajectory diverged at round {}",
            rec.round
        );
        assert_eq!(
            single.crashed_count(),
            multi.crashed_count(),
            "{label} seed {seed}: crash sets diverged at round {}",
            rec.round
        );
        assert!(rec.round < 5_000, "{label} seed {seed}: runaway run");
        rounds.push(rec);
    }

    assert_same_rounds(label, seed, &rounds, &mut multi);
    let records = rounds;
    let rounds = single.round();
    let m_report = multi.into_report();
    let s_report = single.into_report(graph, config);
    assert_eq!(s_report.rounds, rounds);
    assert_eq!(m_report.rounds, rounds, "{label} seed {seed}: round totals diverged");
    let outcome = &m_report.outcomes[0];
    assert_eq!(
        s_report.full_coverage_at, outcome.full_coverage_at,
        "{label} seed {seed}: coverage round diverged"
    );
    assert_eq!(
        s_report.informed_count, outcome.informed,
        "{label} seed {seed}: final informed census diverged"
    );
    assert_eq!(
        s_report.total_tx(),
        outcome.tx,
        "{label} seed {seed}: transmission totals diverged"
    );
    assert_eq!(
        s_report.channels, m_report.channels,
        "{label} seed {seed}: channel totals diverged"
    );
    records
}

/// Variant of `assert_parity` that cross-checks the full per-node delivery
/// trace via the reports (the lockstep version only compares counts; birth
/// 0 makes the multi engine's local rounds coincide with global rounds).
fn assert_parity_with_deliveries<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    origin: NodeId,
    seed: u64,
) {
    for shards in SHARD_COUNTS {
        let label = format!("{label} shards={shards}");
        let config = config.with_shards(shards);
        assert_parity_with_deliveries_at(&label, graph, protocol, config, origin, seed);
    }
}

/// One shard count of [`assert_parity_with_deliveries`].
fn assert_parity_with_deliveries_at<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    origin: NodeId,
    seed: u64,
) {
    let n = Topology::node_count(graph);
    let mut single_rng = SmallRng::seed_from_u64(seed);
    let mut multi_rng = SmallRng::seed_from_u64(seed);
    let mut single = SimState::new(protocol, n, origin);
    let mut multi =
        MultiSimState::new(protocol, graph, &[RumorInjection { birth: 0, origin }]);
    while !single.finished(graph, protocol, config) {
        single.step(graph, protocol, config, &mut single_rng);
        multi.step(graph, protocol, config, &mut multi_rng);
    }
    let single_at: Vec<Option<Round>> =
        (0..n).map(|i| single.informed_at(NodeId::new(i))).collect();
    let m_report = multi.into_report();
    assert_eq!(
        single_at, m_report.deliveries[0],
        "{label} seed {seed}: delivery traces diverged"
    );
}

fn regular_graph(seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    gen::random_regular(128, 6, &mut rng).expect("graph generation")
}

#[test]
fn parity_without_failures() {
    let g = regular_graph(1);
    let cfg = SimConfig::default().with_max_rounds(400);
    for seed in 0..4 {
        assert_parity("flood-pushpull", &g, &FloodPushPull::new(), cfg, NodeId::new(5), seed);
        assert_parity("flood-push", &g, &FloodPush::new(), cfg, NodeId::new(5), seed);
        assert_parity("flood-pull", &g, &FloodPull::new(), cfg, NodeId::new(5), seed);
        assert_parity(
            "counting",
            &g,
            &CountingGossip { budget: 12 },
            SimConfig::until_quiescent().with_max_rounds(400),
            NodeId::new(5),
            seed,
        );
    }
}

/// Whether `r` is a saturated round: it sent copies, yet its fabric was
/// counted and every word jumped (on graphs whose degrees all exceed the
/// protocol's `k`, a sampled round that sends draws some words).
fn saturated(r: &RoundCounters) -> bool {
    r.tx > 0 && r.fabric_words > 0 && r.jumped_words == r.fabric_words
}

/// Whether `r` is a frontier round with a non-empty frontier: it booked
/// some channels and sampled the others.
fn frontier(r: &RoundCounters) -> bool {
    r.booked_channels > 0 && r.booked_channels < r.channels
}

#[test]
fn parity_of_saturated_rounds() {
    // The paper's four-choice algorithm run to quiescence without failures:
    // its all-push rounds and its pull round are frontier rounds, sampled
    // next to the last uninformed nodes and booked elsewhere, and once
    // every node knows the rumour they are counted whole (saturated). Both
    // engines, at every shard count, must take them alike.
    let g = gen::random_regular(512, 8, &mut SmallRng::seed_from_u64(8)).expect("graph");
    let four = FourChoice::for_graph(512, 8);
    let cfg = SimConfig::until_quiescent().with_max_rounds(400);
    let mut listed = 0;
    for seed in 0..3 {
        for (shards, rounds) in SHARD_COUNTS.iter().zip(assert_parity("four-choice", &g, &four, cfg, NodeId::new(3), seed)) {
            let taken = rounds.iter().filter(|r| saturated(r)).count();
            assert!(taken >= 3, "seed {seed}, {shards} shard(s): {taken} saturated rounds");
            listed += rounds.iter().filter(|r| frontier(r)).count();
        }
    }
    assert!(listed > 0, "no frontier round with a non-empty frontier");
}

#[test]
fn parity_with_channel_failures() {
    let g = regular_graph(2);
    let cfg = SimConfig::default()
        .with_failures(FailureModel::channels(0.25))
        .with_max_rounds(600);
    for seed in 0..4 {
        assert_parity("pushpull+chfail", &g, &FloodPushPull::new(), cfg, NodeId::new(0), seed);
        assert_parity(
            "counting+chfail",
            &g,
            &CountingGossip { budget: 16 },
            cfg,
            NodeId::new(0),
            seed,
        );
    }
}

#[test]
fn parity_with_transmission_failures() {
    // The strongest case: the combining bugfix draws transmission failures
    // once per channel-direction, in exactly the single-rumour engine's
    // order, so even lossy-transmission trajectories match seed for seed.
    let g = regular_graph(3);
    let cfg = SimConfig::default()
        .with_failures(FailureModel::transmissions(0.35))
        .with_max_rounds(800);
    for seed in 0..4 {
        assert_parity("pushpull+txfail", &g, &FloodPushPull::new(), cfg, NodeId::new(9), seed);
        assert_parity("push+txfail", &g, &FloodPush::new(), cfg, NodeId::new(9), seed);
        assert_parity(
            "counting+txfail",
            &g,
            &CountingGossip { budget: 20 },
            cfg,
            NodeId::new(9),
            seed,
        );
    }
}

#[test]
fn parity_with_crashes() {
    let g = regular_graph(4);
    let cfg = SimConfig::default()
        .with_failures(FailureModel::crashes(0.01))
        .with_max_rounds(400);
    for seed in 0..4 {
        assert_parity("pushpull+crash", &g, &FloodPushPull::new(), cfg, NodeId::new(2), seed);
    }
}

#[test]
fn parity_with_all_failures_combined() {
    let g = regular_graph(5);
    let cfg = SimConfig::default()
        .with_failures(FailureModel {
            channel_failure: 0.15,
            transmission_failure: 0.2,
            node_crash: 0.005,
        })
        .with_max_rounds(800);
    for seed in 0..4 {
        assert_parity("pushpull+all", &g, &FloodPushPull::new(), cfg, NodeId::new(7), seed);
        assert_parity(
            "counting+all",
            &g,
            &CountingGossip { budget: 24 },
            cfg,
            NodeId::new(7),
            seed,
        );
    }
}

#[test]
fn parity_of_delivery_traces() {
    let g = regular_graph(6);
    for seed in 0..3 {
        assert_parity_with_deliveries(
            "pushpull-traces",
            &g,
            &FloodPushPull::new(),
            SimConfig::default().with_max_rounds(400),
            NodeId::new(11),
            seed,
        );
        assert_parity_with_deliveries(
            "pushpull-traces+txfail",
            &g,
            &FloodPushPull::new(),
            SimConfig::default()
                .with_failures(FailureModel::transmissions(0.3))
                .with_max_rounds(800),
            NodeId::new(11),
            seed,
        );
    }
}

#[test]
fn parity_with_push_only_sampling_skip() {
    // Push-only protocol under Distinct(k): both engines must take the
    // capability-gated sampling skip and stay byte-identical — the multi
    // fabric's informed_of census must agree with the single engine's
    // per-node informedness in the one-rumour case.
    let g = regular_graph(7);
    let proto = CountingPush { inner: CountingGossip { budget: 14 } };
    for seed in 0..4 {
        assert_parity(
            "counting-push-skip",
            &g,
            &proto,
            SimConfig::until_quiescent().with_max_rounds(400),
            NodeId::new(3),
            seed,
        );
    }
    let cfg = SimConfig::default()
        .with_failures(FailureModel::channels(0.2))
        .with_max_rounds(600);
    for seed in 0..2 {
        assert_parity("counting-push-skip+chfail", &g, &proto, cfg, NodeId::new(3), seed);
    }
}

#[test]
fn parity_on_complete_graph() {
    let g = gen::complete(48);
    let cfg = SimConfig::default().with_max_rounds(200);
    for seed in 0..3 {
        assert_parity("complete-pushpull", &g, &FloodPushPull::new(), cfg, NodeId::new(0), seed);
    }
}

/// Drives both engines in lockstep over a churning overlay: the same
/// membership deltas (structured `ChurnEvents` from the churn process) are
/// applied to both alive censuses after every round, so the one-rumour
/// multi-engine trajectory must stay identical to the single-rumour one —
/// informed counts, coverage rounds, the final survivor census, and the
/// stopping decision.
fn assert_churn_parity<P: Protocol>(
    label: &str,
    protocol: &P,
    config: SimConfig,
    rate: f64,
    seed: u64,
) {
    for shards in SHARD_COUNTS {
        let label = format!("{label} shards={shards}");
        assert_churn_parity_at(&label, protocol, config.with_shards(shards), rate, seed);
    }
}

/// One shard count of [`assert_churn_parity`].
fn assert_churn_parity_at<P: Protocol>(
    label: &str,
    protocol: &P,
    config: SimConfig,
    rate: f64,
    seed: u64,
) {
    use rrb_p2p::{ChurnProcess, Overlay};

    let mut overlay_rng = SmallRng::seed_from_u64(seed.wrapping_add(0x0EA1));
    let mut overlay = Overlay::random(96, 6, &mut overlay_rng).expect("overlay");
    let origin = NodeId::new(4);
    let n = Topology::node_count(&overlay);
    let mut churn = ChurnProcess::symmetric(rate, 48);
    let mut churn_rng = SmallRng::seed_from_u64(seed.wrapping_add(0xC0DE));
    let mut single_rng = SmallRng::seed_from_u64(seed);
    let mut multi_rng = SmallRng::seed_from_u64(seed);
    let mut single = SimState::new(protocol, n, origin);
    let mut multi = recorded_multi(protocol, &overlay, origin);
    let mut rounds = Vec::new();

    loop {
        let sf = single.finished(&overlay, protocol, config);
        let mf = multi.finished(protocol, config);
        assert_eq!(sf, mf, "{label} seed {seed}: stop disagreement at round {}", single.round());
        if sf {
            break;
        }
        let rec = single.step(&overlay, protocol, config, &mut single_rng);
        multi.step(&overlay, protocol, config, &mut multi_rng);
        assert_eq!(
            rec.informed,
            multi.informed_count(0),
            "{label} seed {seed}: informed trajectory diverged at round {}",
            rec.round
        );
        // One churn step + rewiring, then the same deltas to both censuses.
        let events = churn.step(&mut overlay, &mut churn_rng).expect("churn step");
        overlay.rewire(4, &mut churn_rng);
        single.apply_joins(protocol, &events.joined);
        single.apply_leaves(&events.left);
        multi.apply_joins(protocol, &events.joined);
        multi.apply_leaves(&events.left);
        assert_eq!(
            single.effective_alive(),
            multi.effective_alive(),
            "{label} seed {seed}: censuses diverged at round {}",
            rec.round
        );
        assert!(rec.round < 2_000, "{label} seed {seed}: runaway run");
        rounds.push(rec);
    }

    assert_same_rounds(label, seed, &rounds, &mut multi);
    let survivors = single.effective_alive();
    let rounds = single.round();
    let s_report = single.into_report(&overlay, config);
    let m_report = multi.into_report();
    assert_eq!(s_report.rounds, rounds);
    assert_eq!(m_report.rounds, rounds, "{label} seed {seed}: round totals diverged");
    let outcome = &m_report.outcomes[0];
    assert_eq!(s_report.alive_count, survivors);
    assert_eq!(
        s_report.informed_count, outcome.informed,
        "{label} seed {seed}: survivor-informed census diverged"
    );
    assert_eq!(
        s_report.full_coverage_at, outcome.full_coverage_at,
        "{label} seed {seed}: coverage round diverged"
    );
    assert_eq!(
        s_report.total_tx(),
        outcome.tx,
        "{label} seed {seed}: transmission totals diverged"
    );
    assert_eq!(
        s_report.channels, m_report.channels,
        "{label} seed {seed}: channel totals diverged"
    );
}

/// Lockstep parity with the same [`FaultPlan`] installed on both engines
/// (each gets its own [`FaultState`] built from the same fault seed, so the
/// reserved streams coincide). Extends the failure-model guarantee to the
/// whole adversarial fault layer.
fn assert_fault_parity<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    plan: &FaultPlan,
    origin: NodeId,
    seed: u64,
) {
    for shards in SHARD_COUNTS {
        let label = format!("{label} shards={shards}");
        let config = config.with_shards(shards);
        assert_fault_parity_at(&label, graph, protocol, config, plan, origin, seed);
    }
}

/// One shard count of [`assert_fault_parity`].
fn assert_fault_parity_at<P: Protocol>(
    label: &str,
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    plan: &FaultPlan,
    origin: NodeId,
    seed: u64,
) {
    let n = Topology::node_count(graph);
    let fault_seed = seed.wrapping_add(0xFA17);
    let mut single_rng = SmallRng::seed_from_u64(seed);
    let mut multi_rng = SmallRng::seed_from_u64(seed);
    let mut single = SimState::new(protocol, n, origin);
    single.set_faults(Some(FaultState::new(plan, n, fault_seed)));
    let mut multi = recorded_multi(protocol, graph, origin);
    multi.set_faults(Some(FaultState::new(plan, n, fault_seed)));
    let mut rounds = Vec::new();

    loop {
        let sf = single.finished(graph, protocol, config);
        let mf = multi.finished(protocol, config);
        assert_eq!(
            sf,
            mf,
            "{label} seed {seed}: stop disagreement at round {}",
            single.round()
        );
        if sf {
            break;
        }
        let rec = single.step(graph, protocol, config, &mut single_rng);
        multi.step(graph, protocol, config, &mut multi_rng);
        assert_eq!(
            rec.informed,
            multi.informed_count(0),
            "{label} seed {seed}: informed trajectory diverged at round {}",
            rec.round
        );
        assert_eq!(
            single.crashed_count(),
            multi.crashed_count(),
            "{label} seed {seed}: crash sets diverged at round {}",
            rec.round
        );
        assert_eq!(
            single.effective_alive(),
            multi.effective_alive(),
            "{label} seed {seed}: censuses diverged at round {}",
            rec.round
        );
        assert!(rec.round < 5_000, "{label} seed {seed}: runaway run");
        rounds.push(rec);
    }

    assert_same_rounds(label, seed, &rounds, &mut multi);
    let budget_left = |fs: Option<&FaultState>| fs.map(FaultState::adversary_budget_left);
    assert_eq!(
        budget_left(single.fault_state()),
        budget_left(multi.fault_state()),
        "{label} seed {seed}: adversary budgets diverged"
    );
    let rounds = single.round();
    let m_report = multi.into_report();
    let s_report = single.into_report(graph, config);
    assert_eq!(s_report.rounds, rounds);
    assert_eq!(m_report.rounds, rounds, "{label} seed {seed}: round totals diverged");
    let outcome = &m_report.outcomes[0];
    assert_eq!(
        s_report.full_coverage_at, outcome.full_coverage_at,
        "{label} seed {seed}: coverage round diverged"
    );
    assert_eq!(
        s_report.informed_count, outcome.informed,
        "{label} seed {seed}: final informed census diverged"
    );
    assert_eq!(
        s_report.total_tx(),
        outcome.tx,
        "{label} seed {seed}: transmission totals diverged"
    );
    assert_eq!(
        s_report.channels, m_report.channels,
        "{label} seed {seed}: channel totals diverged"
    );
}

#[test]
fn parity_under_gilbert_elliott_bursts() {
    let g = regular_graph(8);
    let plan = FaultPlan {
        burst: Some(GilbertElliott::new(0.15, 0.35, 0.02, 0.8)),
        ..FaultPlan::default()
    };
    let cfg = SimConfig::default().with_max_rounds(800);
    for seed in 0..4 {
        assert_parity_pair_under_plan(&g, &plan, cfg, seed, "ge-burst");
    }
}

#[test]
fn parity_under_scripted_schedules() {
    let g = regular_graph(9);
    let plan = FaultPlan {
        schedule: vec![
            FaultEvent::Partition { from: 2, until: 10, parts: 2 },
            FaultEvent::CrashNodes { at: 4, nodes: vec![1, 17, 33] },
            FaultEvent::LossWindow { from: 6, until: 12, channel: Some(0.4), transmission: None },
        ],
        ..FaultPlan::default()
    };
    let cfg = SimConfig::default().with_max_rounds(800);
    for seed in 0..4 {
        assert_parity_pair_under_plan(&g, &plan, cfg, seed, "scripted");
    }
}

#[test]
fn parity_under_adversarial_targeting() {
    let g = regular_graph(10);
    for (name, target) in [
        ("degree", AdversaryTarget::HighestDegree),
        ("earliest", AdversaryTarget::EarliestInformed),
    ] {
        let plan = FaultPlan {
            adversary: Some(AdversarySpec::new(target, 1, 8)),
            ..FaultPlan::default()
        };
        let cfg = SimConfig::default().with_max_rounds(800);
        for seed in 0..3 {
            assert_parity_pair_under_plan(&g, &plan, cfg, seed, name);
        }
    }
}

#[test]
fn parity_under_transient_outages_and_everything_at_once() {
    let g = regular_graph(11);
    let plan = FaultPlan {
        burst: Some(GilbertElliott::new(0.1, 0.5, 0.0, 0.6)),
        schedule: vec![FaultEvent::Partition { from: 3, until: 9, parts: 3 }],
        adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 1, 4)),
        outages: Some(OutageSpec::new(0.03, 2, 5)),
    };
    let cfg = SimConfig::default().with_max_rounds(1200);
    for seed in 0..3 {
        assert_parity_pair_under_plan(&g, &plan, cfg, seed, "everything");
    }
}

/// Runs the fault-parity harness over the standard protocol pair (flooding
/// push&pull plus the stateful counting protocol), also layering the i.i.d.
/// failure model on top of the plan for one of the two.
fn assert_parity_pair_under_plan(
    graph: &Graph,
    plan: &FaultPlan,
    config: SimConfig,
    seed: u64,
    label: &str,
) {
    assert_fault_parity(
        &format!("pushpull+{label}"),
        graph,
        &FloodPushPull::new(),
        config,
        plan,
        NodeId::new(5),
        seed,
    );
    assert_fault_parity(
        &format!("counting+{label}+iid"),
        graph,
        &CountingGossip { budget: 16 },
        SimConfig {
            failures: FailureModel::channels(0.1),
            stop_at_coverage: false,
            ..config
        },
        plan,
        NodeId::new(5),
        seed,
    );
}

#[test]
fn parity_under_churn() {
    // One rumour under live membership churn: the multi engine's census
    // hooks must match the single engine's exactly, at mild and heavy
    // churn, for flooding and counting protocols alike.
    let cfg = SimConfig::default().with_max_rounds(400);
    for seed in 0..3 {
        assert_churn_parity("churn-pushpull", &FloodPushPull::new(), cfg, 2.0, seed);
        assert_churn_parity(
            "churn-counting",
            &CountingGossip { budget: 16 },
            SimConfig::until_quiescent().with_max_rounds(400),
            2.0,
            seed,
        );
    }
    assert_churn_parity("churn-heavy", &FloodPushPull::new(), cfg, 8.0, 0);
}

#[test]
fn parity_under_churn_with_crashes() {
    // Churn and crash-stop failures interact in the census (a crashed node
    // may later depart); the engines must keep agreeing.
    let cfg = SimConfig::default()
        .with_failures(FailureModel::crashes(0.005))
        .with_max_rounds(400);
    for seed in 0..3 {
        assert_churn_parity("churn+crash", &FloodPushPull::new(), cfg, 2.0, seed);
    }
}

/// Algorithm 1's shape on a 128-node graph: push-once rounds, all-push
/// rounds, one pull round and a tail that is silent except for nodes the
/// pull round informed. The single engine stores no channel of a caller
/// that cannot carry the rumour; the multi engine stores every one. Both
/// must draw the same numbers, under every choice policy.
fn phased_protocols() -> [(&'static str, Phased); 3] {
    let base = Phased::new(3, 5, 14);
    [
        ("phased-four", base),
        ("phased-sequential", base.with_policy(ChoicePolicy::SEQUENTIAL)),
        ("phased-cyclic", base.with_policy(ChoicePolicy::Cyclic)),
    ]
}

#[test]
fn parity_of_phased_protocol() {
    let g = regular_graph(12);
    let quiescent = SimConfig::until_quiescent();
    let iid = quiescent.with_failures(FailureModel {
        channel_failure: 0.15,
        transmission_failure: 0.2,
        node_crash: 0.005,
    });
    for (label, proto) in phased_protocols() {
        for seed in 0..3 {
            assert_parity(label, &g, &proto, quiescent, NodeId::new(5), seed);
            assert_parity_with_deliveries(label, &g, &proto, quiescent, NodeId::new(5), seed);
            assert_parity(&format!("{label}+iid"), &g, &proto, iid, NodeId::new(5), seed);
        }
    }
}

#[test]
fn parity_of_phased_protocol_under_bursts_and_partitions() {
    let g = regular_graph(13);
    let plan = FaultPlan {
        burst: Some(GilbertElliott::new(0.15, 0.35, 0.02, 0.8)),
        schedule: vec![FaultEvent::Partition { from: 2, until: 7, parts: 2 }],
        ..FaultPlan::default()
    };
    let partition_only = FaultPlan { burst: None, ..plan.clone() };
    for (label, proto) in phased_protocols() {
        for seed in 0..3 {
            for (what, plan) in [("ge+partition", &plan), ("partition", &partition_only)] {
                assert_fault_parity(
                    &format!("{label}+{what}"),
                    &g,
                    &proto,
                    SimConfig::until_quiescent(),
                    plan,
                    NodeId::new(5),
                    seed,
                );
            }
        }
    }
}

#[test]
fn parity_of_phased_protocol_under_churn() {
    for (label, proto) in phased_protocols() {
        for seed in 0..3 {
            assert_churn_parity(
                &format!("{label}+churn"),
                &proto,
                SimConfig::until_quiescent(),
                2.0,
                seed,
            );
        }
    }
}
