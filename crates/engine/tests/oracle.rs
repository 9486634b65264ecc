//! A naive reference simulator of the synchronous phone call model, and
//! seed-for-seed checks of both round engines against it.
//!
//! The parity suite compares the single-rumour and the multi-rumour
//! engine with each other, so a bug in code they share passes it. The
//! oracle below shares none of it: it keeps every node's reception round
//! and protocol state in plain per-rumour vectors, makes every draw by
//! stepping the generator (never `discard`), re-implements Floyd's
//! `Distinct(k)` sampling, and has no arenas, informed lists, caller
//! gates, silent-round skips or plan tables. Per round it draws in the
//! documented order:
//!
//! 1. crash draws, nodes ascending;
//! 2. per alive caller ascending, its Floyd picks, each pick followed by
//!    that channel's loss draw (a channel to a crashed callee fails to
//!    establish and draws nothing). A caller that can carry nothing under
//!    a protocol that never pull-serves (it knows no live rumour) opens
//!    its channels without drawing;
//! 3. per caller ascending, per usable channel, the push draw if the
//!    caller pushes any rumour, then the pull draw if the callee
//!    pull-serves any rumour: one draw per direction, shared by every
//!    rumour on it.
//!
//! It then delivers every copy and calls `update` for every receiver and
//! every node informed before the round. Fault plans, churn and the
//! asynchronous engine are not modelled.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rrb_core::FourChoice;
use rrb_engine::protocols::{FloodPull, FloodPush, FloodPushPull};
use rrb_engine::{
    ChoicePolicy, FailureModel, MultiSimState, NodeView, Observation, Plan, Protocol, Round,
    RoundCounters, RoundProbe, RumorInjection, RumorMeta, SimConfig, SimState, Topology,
};
use rrb_graph::{gen, Graph, NodeId};

/// What a run is compared by: every rumour's per-node reception rounds
/// (on its own clock), every round's `(tx, channels)` and the stop round.
#[derive(Debug, PartialEq)]
struct Trace {
    deliveries: Vec<Vec<Option<Round>>>,
    rounds: Vec<(u64, u64)>,
    stop: Round,
}

/// Runs `rumours` over `graph` from `seed` the naive way (see the module
/// docs). Stop rule: the round cap, or every rumour settled — covered
/// (under `stop_at_coverage`), past the protocol's deadline on its own
/// clock, or with every informed node crashed or quiescent.
fn oracle<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    rumours: &[RumorInjection],
    seed: u64,
) -> Trace {
    let n = Topology::node_count(graph);
    let ChoicePolicy::Distinct(k) = protocol.choice_policy() else {
        panic!("the oracle samples Distinct(k) only");
    };
    let uses_pull = protocol.capabilities().uses_pull;
    let failures = config.failures;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut crashed = vec![false; n];
    let mut at: Vec<Vec<Option<Round>>> = rumours
        .iter()
        .map(|inj| (0..n).map(|i| (i == inj.origin.index()).then_some(0)).collect())
        .collect();
    let mut states: Vec<Vec<P::State>> = rumours
        .iter()
        .map(|inj| (0..n).map(|i| protocol.init(i == inj.origin.index())).collect())
        .collect();
    let mut covered = vec![false; rumours.len()];
    let mut settled = vec![false; rumours.len()];
    let mut rounds = Vec::new();
    let mut t: Round = 0;
    let informed_alive = |at: &[Option<Round>], crashed: &[bool]| {
        (0..n).filter(|&i| at[i].is_some() && !crashed[i]).count()
    };

    loop {
        if t >= config.max_rounds {
            break;
        }
        let alive = crashed.iter().filter(|&&c| !c).count();
        for (r, inj) in rumours.iter().enumerate() {
            if settled[r] || t < inj.birth {
                continue;
            }
            let tl = t - inj.birth;
            let all_quiet = (0..n).all(|i| match at[r][i] {
                Some(a) => crashed[i] || protocol.is_quiescent(&states[r][i], a, tl + 1),
                None => true,
            });
            settled[r] = (config.stop_at_coverage
                && (covered[r] || informed_alive(&at[r], &crashed) == alive))
                || protocol.deadline().is_some_and(|d| tl >= d)
                || all_quiet;
        }
        if settled.iter().all(|&s| s) {
            break;
        }
        t += 1;
        let live: Vec<usize> =
            (0..rumours.len()).filter(|&r| rumours[r].birth < t && !settled[r]).collect();

        // 1. Crash draws.
        if failures.node_crash > 0.0 {
            for c in crashed.iter_mut() {
                if !*c && rng.gen_bool(failures.node_crash) {
                    *c = true;
                }
            }
        }

        // Plans of every live rumour at its informed, uncrashed nodes.
        let mut plans = vec![vec![Plan::SILENT; n]; rumours.len()];
        for &r in &live {
            let tl = t - rumours[r].birth;
            for i in 0..n {
                if let (Some(a), false) = (at[r][i], crashed[i]) {
                    let view = NodeView {
                        informed_at: a,
                        is_creator: i == rumours[r].origin.index(),
                        state: &states[r][i],
                    };
                    plans[r][i] = protocol.plan(view, tl);
                }
            }
        }

        // 2. Channels: Floyd picks, each followed by its loss draw.
        let mut channels = 0u64;
        let mut links: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            if crashed[i] {
                continue;
            }
            let stubs = Topology::stubs(graph, NodeId::new(i));
            let knows_live_rumour = live.iter().any(|&r| at[r][i].is_some());
            if !uses_pull && !knows_live_rumour {
                channels += stubs.len().min(k) as u64;
                continue;
            }
            let mut picked: Vec<usize> = Vec::new();
            if stubs.len() <= k {
                picked.extend(0..stubs.len());
            } else {
                for j in (stubs.len() - k)..stubs.len() {
                    let x = rng.gen_range(0..=j);
                    picked.push(if picked.contains(&x) { j } else { x });
                }
            }
            for idx in picked {
                channels += 1;
                let w = stubs[idx].index();
                if crashed[w] {
                    continue;
                }
                let p = failures.channel_failure;
                if p == 0.0 || !rng.gen_bool(p) {
                    links.push((i, w));
                }
            }
        }

        // 3. Transmission draws, one per used direction.
        let p = failures.transmission_failure;
        let mut delivered: Vec<(bool, bool)> = Vec::new();
        for &(i, w) in &links {
            let push = live.iter().any(|&r| plans[r][i].push);
            let pull = live.iter().any(|&r| plans[r][w].pull_serve);
            let push_ok = push && (p == 0.0 || !rng.gen_bool(p));
            let pull_ok = pull && (p == 0.0 || !rng.gen_bool(p));
            delivered.push((push_ok, pull_ok));
        }

        // Exchange and update, rumour by rumour.
        let mut tx = 0u64;
        for &r in &live {
            let tl = t - rumours[r].birth;
            let mut obs = vec![Observation::default(); n];
            for (&(i, w), &(push_ok, pull_ok)) in links.iter().zip(&delivered) {
                if plans[r][i].push {
                    tx += 1;
                    if push_ok {
                        obs[w].pushes.push(plans[r][i].meta);
                    }
                }
                if plans[r][w].pull_serve {
                    tx += 1;
                    if pull_ok {
                        obs[i].pulls.push(plans[r][w].meta);
                    }
                }
            }
            for i in 0..n {
                let heard = obs[i].received() > 0;
                if heard && at[r][i].is_none() {
                    at[r][i] = Some(tl);
                }
                if let Some(a) = at[r][i] {
                    protocol.update(&mut states[r][i], Some(a), tl, &obs[i]);
                }
            }
            covered[r] |= informed_alive(&at[r], &crashed) == alive;
        }
        rounds.push((tx, channels));
    }
    Trace { deliveries: at, rounds, stop: t }
}

/// Whether an engine's round was a frontier round with a non-empty
/// frontier: it booked some channels and sampled others. The oracle has
/// no such rounds; the count only shows that the comparison reaches them.
fn frontier(r: &RoundCounters) -> bool {
    r.booked_channels > 0 && r.booked_channels < r.channels
}

/// Whether a round sent copies without booking any: on a loss-free
/// flood, whose every round is declared a frontier round, one whose
/// incomplete slots have more stubs than the graph has nodes (sampled
/// whole), or whose frontier holds every caller.
fn unbooked(r: &RoundCounters) -> bool {
    r.tx > 0 && r.booked_channels == 0
}

/// What the engines' rounds reached: frontier rounds with a non-empty
/// frontier on the single engine, the one-rumour and the three-rumour
/// multi engine, and sending rounds that booked nothing.
#[derive(Debug, Default, Clone, Copy)]
struct Reach {
    single: usize,
    multi: usize,
    three: usize,
    unbooked: usize,
}

impl std::ops::AddAssign for Reach {
    fn add_assign(&mut self, o: Reach) {
        self.single += o.single;
        self.multi += o.multi;
        self.three += o.three;
        self.unbooked += o.unbooked;
    }
}

/// Probe that keeps each round's `(tx, channels)` and counts the
/// frontier rounds and the unbooked ones.
#[derive(Debug, Default)]
struct Rounds(Vec<(u64, u64)>, usize, usize);

impl RoundProbe for Rounds {
    fn on_round(&mut self, counters: &RoundCounters) {
        self.0.push((counters.tx, counters.channels));
        self.1 += usize::from(frontier(counters));
        self.2 += usize::from(unbooked(counters));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The single-rumour engine's trace of a broadcast from `origin`, its
/// number of frontier rounds and of unbooked ones.
fn single<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    origin: NodeId,
    seed: u64,
) -> (Trace, usize, usize) {
    let n = Topology::node_count(graph);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = SimState::new(protocol, n, origin);
    let mut rounds = Vec::new();
    let (mut frontier_rounds, mut unbooked_rounds) = (0, 0);
    while !sim.finished(graph, protocol, config) {
        let rec = sim.step(graph, protocol, config, &mut rng);
        rounds.push((rec.tx, rec.channels));
        frontier_rounds += usize::from(frontier(&rec));
        unbooked_rounds += usize::from(unbooked(&rec));
    }
    let deliveries = vec![(0..n).map(|i| sim.informed_at(NodeId::new(i))).collect()];
    (Trace { deliveries, rounds, stop: sim.round() }, frontier_rounds, unbooked_rounds)
}

/// The multi-rumour engine's trace of `rumours`, and its number of
/// frontier rounds.
fn multi<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    config: SimConfig,
    rumours: &[RumorInjection],
    seed: u64,
) -> (Trace, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = MultiSimState::new(protocol, graph, rumours);
    sim.set_probe(Some(Box::new(Rounds::default())));
    sim.run_to_completion(graph, protocol, config, &mut rng);
    let probe = sim.take_probe().expect("probe installed");
    let Rounds(rounds, frontier_rounds, _) = probe.as_any().downcast_ref::<Rounds>().expect("a Rounds probe");
    let (rounds, frontier_rounds) = (rounds.clone(), *frontier_rounds);
    let report = sim.into_report();
    (Trace { deliveries: report.deliveries, rounds, stop: report.rounds }, frontier_rounds)
}

/// Checks both engines against the oracle: the single engine at 1 and 3
/// shards and the one-rumour multi engine against a one-rumour oracle
/// run, and the multi engine with three staggered rumours against a
/// three-rumour one. Returns what the engines' rounds reached.
fn check<P: Protocol>(label: &str, graph: &Graph, protocol: &P, config: SimConfig, seed: u64) -> Reach {
    let n = Topology::node_count(graph);
    let one = [RumorInjection { birth: 0, origin: NodeId::new(5 % n) }];
    let three = [
        one[0],
        RumorInjection { birth: 2, origin: NodeId::new(17 % n) },
        RumorInjection { birth: 5, origin: NodeId::new(40 % n) },
    ];
    let want = oracle(graph, protocol, config, &one, seed);
    assert!(want.stop > 0, "{label} seed {seed}: the oracle ran no round");
    let mut reach = Reach::default();
    for shards in [1, 3] {
        let (got, frontier_rounds, unbooked_rounds) =
            single(graph, protocol, config.with_shards(shards), one[0].origin, seed);
        assert_eq!(got, want, "{label} seed {seed}: single engine at {shards} shards");
        reach.single += frontier_rounds;
        reach.unbooked += unbooked_rounds;
    }
    let (got, frontier_rounds) = multi(graph, protocol, config, &one, seed);
    assert_eq!(got, want, "{label} seed {seed}: multi engine, one rumour");
    reach.multi += frontier_rounds;
    let want = oracle(graph, protocol, config, &three, seed);
    let (got, frontier_rounds) = multi(graph, protocol, config, &three, seed);
    assert_eq!(got, want, "{label} seed {seed}: multi engine, three rumours");
    reach.three += frontier_rounds;
    reach
}

/// A stateful, non-oblivious push&pull protocol: a node counts the copies
/// it receives and transmits for `budget` rounds after reception, but
/// stops once it has heard `enough` copies. Its header carries the count.
/// Which of a channel's two directions delivers changes the counts, so a
/// trajectory depends on the order of the transmission draws.
#[derive(Debug, Clone)]
struct CountingGossip {
    budget: Round,
    enough: u32,
}

impl Protocol for CountingGossip {
    type State = u32;

    fn init(&self, creator: bool) -> u32 {
        u32::from(creator)
    }

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::Distinct(2)
    }

    fn plan(&self, view: NodeView<'_, u32>, t: Round) -> Plan {
        let age = t - view.informed_at;
        if age <= self.budget && *view.state < self.enough {
            Plan::push_pull_with(RumorMeta { age, counter: *view.state })
        } else {
            Plan::SILENT
        }
    }

    fn update(&self, state: &mut u32, _at: Option<Round>, _t: Round, obs: &Observation) {
        *state += obs.received() as u32;
    }

    fn is_quiescent(&self, _state: &u32, informed_at: Round, t: Round) -> bool {
        t > informed_at + self.budget
    }
}

/// The failure models every protocol runs under.
fn failure_models() -> [(&'static str, FailureModel); 5] {
    [
        ("none", FailureModel::NONE),
        ("channel", FailureModel::channels(0.2)),
        ("transmission", FailureModel::transmissions(0.25)),
        ("crash", FailureModel::crashes(0.01)),
        (
            "all",
            FailureModel { channel_failure: 0.15, transmission_failure: 0.2, node_crash: 0.005 },
        ),
    ]
}

/// Every protocol under every failure model on `graph`, for `seeds`.
/// Returns what the engines' rounds reached; `unbooked` counts only the
/// loss-free floods' rounds, every one of which is declared a frontier
/// round.
fn check_graph(label: &str, graph: &Graph, degree: usize, seeds: std::ops::Range<u64>) -> Reach {
    let n = Topology::node_count(graph);
    let to_cover = SimConfig::default().with_max_rounds(400);
    let quiescent = SimConfig::until_quiescent().with_max_rounds(400);
    let four_choice = FourChoice::for_graph(n, degree);
    let mut reach = Reach::default();
    for (what, failures) in failure_models() {
        let cover = to_cover.with_failures(failures);
        let quiet = quiescent.with_failures(failures);
        for seed in seeds.clone() {
            for k in [1, 4] {
                let policy = ChoicePolicy::Distinct(k);
                let l = |name: &str| format!("{label} {name} k={k} {what}");
                let mut flood = check(&l("push"), graph, &FloodPush::with_policy(policy), cover, seed);
                flood += check(&l("pull"), graph, &FloodPull::with_policy(policy), cover, seed);
                let push_pull = FloodPushPull::with_policy(policy);
                flood += check(&l("push&pull"), graph, &push_pull, cover, seed);
                if what != "none" {
                    flood.unbooked = 0;
                }
                reach += flood;
            }
            let four = format!("{label} four-choice {what}");
            let mut others = check(&four, graph, &four_choice, quiet, seed);
            let counting = CountingGossip { budget: 6, enough: 4 };
            others += check(&format!("{label} counting {what}"), graph, &counting, quiet, seed);
            reach += Reach { unbooked: 0, ..others };
        }
    }
    reach
}

fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    gen::random_regular(n, d, &mut SmallRng::seed_from_u64(seed)).expect("graph generation")
}

/// Asserts that every engine compared some frontier round with a
/// non-empty frontier.
fn assert_reached(label: &str, reach: Reach) {
    assert!(
        reach.single > 0 && reach.multi > 0 && reach.three > 0,
        "{label}: a comparison reached no frontier round: {reach:?}"
    );
}

#[test]
fn engines_match_the_oracle_on_a_random_regular_graph() {
    assert_reached("rr(64,6)", check_graph("rr(64,6)", &random_regular(64, 6, 1), 6, 0..2));
}

#[test]
fn engines_match_the_oracle_on_a_complete_graph() {
    // On K24 any incomplete slot is next to every node, so a frontier
    // round books nothing; with two or more incomplete slots their 23
    // stubs each put it over the budget, and it is sampled whole.
    let reach = check_graph("K24", &gen::complete(24), 23, 0..2);
    assert!(reach.unbooked > 0, "K24: no uniform round went over the budget");
}

#[test]
#[ignore = "long: more seeds and graphs up to n = 512; run in release"]
fn engines_match_the_oracle_long() {
    for (n, d) in [(128, 4), (256, 8), (512, 6)] {
        let label = format!("rr({n},{d})");
        assert_reached(&label, check_graph(&label, &random_regular(n, d, n as u64), d, 0..6));
    }
    let reach = check_graph("K96", &gen::complete(96), 95, 0..6);
    assert!(reach.unbooked > 0, "K96: no uniform round went over the budget");
}
