//! The four workloads, and one broadcast of each.
//!
//! Every workload is a [`ScenarioSpec`] plus the few run parameters the
//! spec cannot express (shards, threads, rumours for the multi-rumour
//! application, seeds per fan-out, distinct batches). Its inputs —
//! topology, origins, fault seeds — come from `rrb_bench::rng_for` keyed by
//! the workload, the benchmark seed and the batch index, so one seed always
//! gives the same inputs. The functions here call each layer's public API
//! and wrap every call in a span; with the tracer off they time only what
//! the end-to-end metrics need (each broadcast and each `step`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::Rng;
use rrb_bench::scenario::{
    AnyProtocol, ChurnSpec, DynamicsSpec, FaultSpec, GraphSpec, PolicySpec, ProtocolSpec,
    RegimeSpec, ScenarioSpec, StopSpec, TimingSpec,
};
use rrb_bench::{replicate, rng_for, FAULT_STREAM, TOPOLOGY_STREAM};
use rrb_engine::{
    AsyncSimState, BoxedProbe, ClockSpec, FaultState, GilbertElliott, LatencySpec, MultiSimState,
    OutageSpec, Round, RumorInjection, SimConfig, SimState, Topology,
};
use rrb_graph::{Graph, NodeId};
use rrb_p2p::Overlay;

use crate::check::{digest, Outcome};
use crate::trace::{now_ns, LogProbe, ProbeTotals, Span, Tracer};

/// Batches per run are capped here; it also spaces the per-seed keys.
pub const BATCH_LIMIT: u64 = 1 << 16;

/// Per-broadcast stream of a one-broadcast batch (the async fan-out uses
/// the seed index within the batch instead, as `replicate` does).
const BROADCAST_STREAM: u64 = 0;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The paper's four-choice algorithm run to quiescence.
    PaperQuiescent,
    /// Push&pull flooding on a large graph on the sharded path.
    ScalePushPull,
    /// Replicated-database updates on the multi-rumour engine under churn.
    DbChurn,
    /// The asynchronous engine with a fault plan, seeds fanned out.
    AsyncFaulted,
}

impl Name {
    /// Every workload.
    pub const ALL: [Name; 4] = [
        Name::PaperQuiescent,
        Name::ScalePushPull,
        Name::DbChurn,
        Name::AsyncFaulted,
    ];

    /// The workload's name on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::PaperQuiescent => "paper_quiescent",
            Name::ScalePushPull => "scale_pushpull",
            Name::DbChurn => "db_churn",
            Name::AsyncFaulted => "async_faulted",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// The `experiment` coordinate of the workload's RNG streams.
    fn experiment(self) -> u64 {
        match self {
            Name::PaperQuiescent => 0xB1,
            Name::ScalePushPull => 0xB2,
            Name::DbChurn => 0xB3,
            Name::AsyncFaulted => 0xB4,
        }
    }
}

/// Problem size: the measured sizes, or small ones for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Tiny sizes that finish in well under a second.
    Smoke,
}

/// Which engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SimState`, stepped round by round.
    Single,
    /// `MultiSimState` on a churning overlay.
    Multi,
    /// `AsyncSimState`, seeds fanned out by `rrb_bench::replicate`.
    Async,
}

/// One workload: the scenario as data plus its run parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub name: Name,
    /// Topology, protocol, faults, dynamics, timing and stop rule.
    pub spec: ScenarioSpec,
    /// Node-slot shards of every round (`SimConfig::with_shards`).
    pub shards: usize,
    /// Worker threads wanted (capped at the host's cores).
    pub threads: usize,
    /// Broadcasts per batch: the `replicate` fan-out for the async
    /// engine, 1 for the round engines.
    pub seeds_per_batch: u64,
    /// Distinct batches; a run cycles over them, so each is repeated.
    pub distinct: u64,
    /// Rumours per multi-rumour broadcast.
    pub rumours: usize,
    /// Rounds between rumour births.
    pub stagger: Round,
}

impl Workload {
    /// The workload at the given scale.
    pub fn new(name: Name, scale: Scale) -> Self {
        let full = scale == Scale::Full;
        let pick = |big: usize, small: usize| if full { big } else { small };
        let d = 8;
        let four_choice = |n: usize| ProtocolSpec::FourChoice {
            n_estimate: n,
            degree: d,
            alpha: 1.5,
            choices: 4,
            regime: RegimeSpec::Auto,
        };
        let base = Workload {
            name,
            spec: ScenarioSpec::new(
                name.as_str(),
                GraphSpec::Complete { n: 2 },
                ProtocolSpec::Silent,
            ),
            shards: 1,
            threads: 1,
            seeds_per_batch: 1,
            distinct: 4,
            rumours: 1,
            stagger: 0,
        };
        match name {
            Name::PaperQuiescent => {
                let n = pick(1 << 17, 1 << 10);
                let spec = ScenarioSpec::new(
                    name.as_str(),
                    GraphSpec::RandomRegular { n, d },
                    four_choice(n),
                )
                .with_stop(StopSpec::QUIESCENT);
                Workload { spec, ..base }
            }
            Name::ScalePushPull => {
                let n = pick(1 << 18, 1 << 11);
                let spec = ScenarioSpec::new(
                    name.as_str(),
                    GraphSpec::RandomRegular { n, d },
                    ProtocolSpec::FloodPushPull {
                        policy: PolicySpec::Distinct(4),
                    },
                )
                .with_stop(StopSpec::COVERAGE);
                Workload {
                    spec,
                    shards: 2,
                    threads: 2,
                    distinct: 8,
                    ..base
                }
            }
            Name::DbChurn => {
                let n = pick(1 << 14, 1 << 9);
                let churn = ChurnSpec {
                    joins_per_round: 4.0,
                    leaves_per_round: 4.0,
                    min_alive: None,
                    rewire_per_round: 8,
                };
                let spec = ScenarioSpec::new(
                    name.as_str(),
                    GraphSpec::RandomRegular { n, d },
                    four_choice(n),
                )
                .with_dynamics(DynamicsSpec::Churn(churn))
                .with_stop(StopSpec::QUIESCENT);
                Workload {
                    spec,
                    rumours: pick(32, 4),
                    stagger: 2,
                    ..base
                }
            }
            Name::AsyncFaulted => {
                let n = pick(1 << 15, 1 << 9);
                let faults = FaultSpec {
                    burst: Some(GilbertElliott::new(0.05, 0.5, 0.01, 0.5)),
                    outages: Some(OutageSpec::new(0.01, 2, 4)),
                    ..FaultSpec::NONE
                };
                let spec = ScenarioSpec::new(
                    name.as_str(),
                    GraphSpec::RandomRegular { n, d },
                    ProtocolSpec::FloodPushPull {
                        policy: PolicySpec::STANDARD,
                    },
                )
                .with_failures(faults)
                .with_timing(TimingSpec::Async {
                    clock: ClockSpec::Exponential { rate: 1.0 },
                    latency: LatencySpec::Uniform {
                        min: 0.05,
                        max: 0.3,
                    },
                })
                .with_stop(StopSpec::COVERAGE);
                Workload {
                    spec,
                    threads: 2,
                    seeds_per_batch: pick(24, 4) as u64,
                    distinct: 1,
                    ..base
                }
            }
        }
    }

    /// The engine this workload drives.
    pub fn engine(&self) -> Engine {
        if !self.spec.timing.is_sync() {
            Engine::Async
        } else if !self.spec.dynamics.is_static() {
            Engine::Multi
        } else {
            Engine::Single
        }
    }

    /// Fault-free static broadcasts must inform every node.
    pub fn must_cover(&self) -> bool {
        self.engine() == Engine::Single && self.spec.failures.is_none()
    }
}

/// Key of batch `batch` of benchmark seed `seed` (the `config_ix`
/// coordinate of `rng_for`).
fn config_ix(seed: u64, batch: u64) -> u64 {
    seed.wrapping_mul(BATCH_LIMIT).wrapping_add(batch)
}

/// Everything built before the first broadcast.
#[derive(Debug)]
pub struct Setup {
    /// The topology (the base graph of the overlay under churn).
    pub graph: Graph,
    /// The compiled protocol.
    pub protocol: AnyProtocol,
    /// The churn overlay every multi-rumour broadcast starts from.
    pub overlay: Option<Overlay>,
    /// Engine configuration.
    pub config: SimConfig,
}

/// Builds topology, protocol and overlay from the workload's spec.
pub fn setup(w: &Workload, seed: u64, tracer: &mut Tracer, parent: u64) -> Result<Setup, String> {
    let open = tracer.begin("setup", parent);
    let mut rng = rng_for(w.name.experiment(), config_ix(seed, 0), TOPOLOGY_STREAM);
    let graph = tracer.call("graph.gen", open.id, || w.spec.graph.build(&mut rng))?;
    let protocol = tracer.call("protocol.build", open.id, || w.spec.protocol.build());
    let overlay = match w.spec.dynamics {
        DynamicsSpec::Churn(_) => Some(tracer.call("overlay.from_graph", open.id, || {
            Overlay::from_graph(&graph, w.spec.graph.target_degree()).with_slot_reuse(true)
        })),
        DynamicsSpec::Static => None,
    };
    tracer.end(open);
    Ok(Setup {
        graph,
        protocol,
        overlay,
        config: w.spec.sim_config().with_shards(w.shards),
    })
}

/// FNV-1a over the edge list: repeated set-ups must build the same graph.
pub fn fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(u, v) in g.edge_slice() {
        for x in [u.index() as u64, v.index() as u64] {
            h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One broadcast's outcome plus what the traced run attributes to layers.
#[derive(Debug, Clone)]
pub struct Broadcast {
    /// Checked quantities and end-to-end samples.
    pub outcome: Outcome,
    /// The probe's phase times and counters (traced runs only).
    pub probe: Option<ProbeTotals>,
    /// Events the async engine processed.
    pub events: u64,
    /// Multi-rumour engine: Σ over rumours of the rounds each stayed live.
    pub rumour_rounds: f64,
    /// Multi-rumour engine: combined messages over rumour transmissions.
    pub combining_ratio: f64,
}

/// A batch of broadcasts and its wall time (one broadcast for the round
/// engines, a `replicate` fan-out for the async engine). A broadcast that
/// panicked is an `Err` with the panic message.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Wall time of the batch's broadcasts.
    pub wall_ns: u64,
    /// Each broadcast, in seed order.
    pub items: Vec<Result<Broadcast, String>>,
}

/// Runs batch `batch` of the workload (`shards` overrides the workload's
/// shard count, for the serial replay).
pub fn batch(
    w: &Workload,
    s: &Setup,
    seed: u64,
    batch: u64,
    shards: usize,
    tracer: &mut Tracer,
    parent: u64,
) -> Batch {
    if w.engine() == Engine::Async {
        return async_batch(w, s, seed, batch, tracer, parent);
    }
    let mut rng = rng_for(
        w.name.experiment(),
        config_ix(seed, batch),
        BROADCAST_STREAM,
    );
    let run = catch_unwind(AssertUnwindSafe(|| match w.engine() {
        Engine::Multi => multi(w, s, &mut rng, tracer, parent),
        _ => single(w, s, shards, &mut rng, tracer, parent),
    }));
    let item = run.map_err(panic_message);
    let wall_ns = item.as_ref().map_or(0, |b| b.outcome.wall_ns);
    Batch {
        wall_ns,
        items: vec![item],
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn random_origin<T: Topology, R: Rng + ?Sized>(topo: &T, rng: &mut R) -> NodeId {
    loop {
        let v = NodeId::new(rng.gen_range(0..topo.node_count()));
        if topo.is_alive(v) {
            return v;
        }
    }
}

/// Installs a probe on a traced broadcast (`keep_spans`: record each
/// phase as a span).
fn probe_for(tracer: &Tracer, keep_spans: bool) -> Option<BoxedProbe> {
    tracer
        .is_on()
        .then(|| Box::new(LogProbe::new(keep_spans)) as BoxedProbe)
}

/// Reads a broadcast's probe back: its phases become child spans of the
/// `round` spans recorded since `mark`, and its totals are returned.
fn finish_probe(
    tracer: &mut Tracer,
    probe: Option<BoxedProbe>,
    mark: usize,
    round: &str,
    fallback: u64,
) -> Option<ProbeTotals> {
    let probe = LogProbe::from_boxed(probe)?;
    let rounds: Vec<Span> = tracer.spans()[mark..]
        .iter()
        .filter(|s| s.name == round)
        .copied()
        .collect();
    probe.attach_phases(tracer, &rounds, fallback);
    Some(probe.totals().clone())
}

/// One `SimState` broadcast, stepped round by round.
fn single(
    w: &Workload,
    s: &Setup,
    shards: usize,
    rng: &mut SmallRng,
    tracer: &mut Tracer,
    parent: u64,
) -> Broadcast {
    let (g, p) = (&s.graph, &s.protocol);
    let config = s.config.with_shards(shards);
    let origin = random_origin(g, rng);
    let mark = tracer.spans().len();
    let b = tracer.begin("broadcast", parent);
    let t0 = now_ns();
    let mut sim = tracer.call("simulation.new", b.id, || {
        SimState::new(p, g.node_count(), origin)
    });
    sim.set_probe(probe_for(tracer, true));
    let mut step_ns = Vec::new();
    while !tracer.call("simulation.finished", b.id, || sim.finished(g, p, config)) {
        let a = now_ns();
        sim.step(g, p, config, rng);
        let z = now_ns();
        step_ns.push(z - a);
        tracer.record("simulation.step", b.id, a, z);
    }
    let probe = sim.take_probe();
    let report = tracer.call("simulation.into_report", b.id, || {
        sim.into_report(g, config)
    });
    let wall_ns = now_ns() - t0;
    tracer.end(b);
    Broadcast {
        outcome: Outcome {
            slots: report.node_count,
            rounds: report.rounds,
            cap: config.max_rounds,
            alive: report.alive_count,
            informed: vec![report.informed_count],
            must_cover: w.must_cover(),
            cover_time: report.rounds_to_coverage().map(f64::from),
            tx_per_node: report.tx_per_node(),
            wall_ns,
            step_ns,
            digest: digest(&report),
        },
        probe: finish_probe(tracer, probe, mark, "simulation.step", b.id),
        events: 0,
        rumour_rounds: 0.0,
        combining_ratio: 0.0,
    }
}

/// One multi-rumour broadcast on a churning overlay: after every round,
/// one churn step, the rewiring budget, and the membership deltas fed to
/// the engine's census.
fn multi(
    w: &Workload,
    s: &Setup,
    rng: &mut SmallRng,
    tracer: &mut Tracer,
    parent: u64,
) -> Broadcast {
    let DynamicsSpec::Churn(churn) = w.spec.dynamics else {
        unreachable!("multi-rumour workloads churn");
    };
    let (p, config) = (&s.protocol, s.config);
    let n0 = w.spec.graph.node_count();
    let mut overlay = tracer.call("overlay.clone", parent, || {
        s.overlay.clone().expect("churn workloads build an overlay")
    });
    let injections: Vec<RumorInjection> = (0..w.rumours)
        .map(|r| RumorInjection {
            birth: r as Round * w.stagger,
            origin: random_origin(&overlay, rng),
        })
        .collect();
    let mut process = churn.to_process(n0);
    let mark = tracer.spans().len();
    let b = tracer.begin("broadcast", parent);
    let t0 = now_ns();
    let mut sim = tracer.call("multi.new", b.id, || {
        MultiSimState::new(p, &overlay, &injections)
    });
    sim.set_probe(probe_for(tracer, true));
    let mut step_ns = Vec::new();
    while !tracer.call("multi.finished", b.id, || sim.finished(p, config)) {
        let a = now_ns();
        sim.step(&overlay, p, config, rng);
        let z = now_ns();
        step_ns.push(z - a);
        tracer.record("multi.step", b.id, a, z);
        let events = tracer
            .call("churn.step", b.id, || process.step(&mut overlay, rng))
            .expect("churn step on a consistent overlay");
        tracer.call("overlay.rewire", b.id, || {
            overlay.rewire(churn.rewire_per_round, rng)
        });
        tracer.call("census.apply_joins", b.id, || {
            sim.apply_joins(p, &events.joined)
        });
        tracer.call("census.apply_leaves", b.id, || {
            sim.apply_leaves(&events.left)
        });
        tracer.call("census.apply_rejoins", b.id, || {
            sim.apply_rejoins(p, &events.rejoined)
        });
    }
    let alive = sim.effective_alive();
    let probe = sim.take_probe();
    let report = tracer.call("multi.into_report", b.id, || sim.into_report());
    let wall_ns = now_ns() - t0;
    tracer.end(b);
    let latencies: Vec<f64> = report
        .outcomes
        .iter()
        .filter_map(|o| o.latency())
        .map(f64::from)
        .collect();
    let rumour_rounds = report
        .outcomes
        .iter()
        .map(|o| {
            f64::from(
                o.full_coverage_at
                    .unwrap_or(report.rounds)
                    .saturating_sub(o.birth),
            )
        })
        .sum();
    Broadcast {
        outcome: Outcome {
            slots: Topology::node_count(&overlay),
            rounds: report.rounds,
            cap: config.max_rounds,
            alive,
            informed: report.outcomes.iter().map(|o| o.informed).collect(),
            must_cover: false,
            cover_time: (!latencies.is_empty()).then(|| crate::stats::mean(&latencies)),
            tx_per_node: report.total_rumor_tx() as f64 / (w.rumours * n0) as f64,
            wall_ns,
            step_ns,
            digest: digest(&report),
        },
        probe: finish_probe(tracer, probe, mark, "multi.step", b.id),
        events: 0,
        rumour_rounds,
        combining_ratio: report.combining_ratio(),
    }
}

/// One `replicate` fan-out of async broadcasts. Each worker records its
/// spans locally; they join the run's tracer afterwards.
fn async_batch(
    w: &Workload,
    s: &Setup,
    seed: u64,
    batch: u64,
    tracer: &mut Tracer,
    parent: u64,
) -> Batch {
    let on = tracer.is_on();
    let open = tracer.begin("replicate", parent);
    let t0 = now_ns();
    let ix = config_ix(seed, batch);
    let results: Vec<(Result<Broadcast, String>, Vec<Span>)> =
        replicate(w.name.experiment(), ix, w.seeds_per_batch, |k, rng| {
            let mut local = Tracer::new(on);
            let run = catch_unwind(AssertUnwindSafe(|| {
                let fault_seed: u64 = rng_for(w.name.experiment(), ix, FAULT_STREAM ^ k).gen();
                async_one(w, s, fault_seed, rng, &mut local, open.id)
            }));
            (run.map_err(panic_message), local.into_spans())
        });
    let wall_ns = now_ns() - t0;
    tracer.end(open);
    let mut items = Vec::with_capacity(results.len());
    for (item, spans) in results {
        tracer.absorb(spans);
        items.push(item);
    }
    Batch { wall_ns, items }
}

fn async_one(
    w: &Workload,
    s: &Setup,
    fault_seed: u64,
    rng: &mut SmallRng,
    tracer: &mut Tracer,
    parent: u64,
) -> Broadcast {
    let TimingSpec::Async { clock, latency } = w.spec.timing else {
        unreachable!("async workloads have async timing");
    };
    let (g, p, config) = (&s.graph, &s.protocol, s.config);
    let n = g.node_count();
    let plan = w.spec.failures.to_plan();
    let origin = random_origin(g, rng);
    let b = tracer.begin("broadcast", parent);
    let t0 = now_ns();
    let mut sim = tracer.call("async.new", b.id, || {
        AsyncSimState::new(p, n, origin, clock, latency)
    });
    if !plan.is_empty() {
        tracer.call("async.set_faults", b.id, || {
            sim.set_faults(Some(FaultState::new(&plan, n, fault_seed)))
        });
    }
    sim.set_probe(probe_for(tracer, false));
    tracer.call("async.run_to_completion", b.id, || {
        sim.run_to_completion(g, p, config, rng)
    });
    let (time, cover, events) = (sim.now(), sim.coverage_time(), sim.events_processed());
    let probe = LogProbe::from_boxed(sim.take_probe());
    let report = tracer.call("async.into_report", b.id, || sim.into_report(g, config));
    let wall_ns = now_ns() - t0;
    tracer.end(b);
    Broadcast {
        outcome: Outcome {
            slots: report.node_count,
            rounds: report.rounds,
            cap: config.max_rounds,
            alive: report.alive_count,
            informed: vec![report.informed_count],
            must_cover: false,
            cover_time: cover,
            tx_per_node: report.tx_per_node(),
            wall_ns,
            step_ns: Vec::new(),
            digest: digest(&(&report, time.to_bits(), cover.map(f64::to_bits), events)),
        },
        probe: probe.map(|pr| pr.totals().clone()),
        events,
        rumour_rounds: 0.0,
        combining_ratio: 0.0,
    }
}
