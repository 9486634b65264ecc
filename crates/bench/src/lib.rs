//! Shared harness behind the `rrb` experiment runner.
//!
//! Every experiment reproduces one quantitative claim of the paper and is
//! registered in [`registry`] as a ladder of [`scenario::ScenarioSpec`]
//! rungs; `rrb run eN` drives one (`--quick` shrinks the size ladder and
//! seed count for smoke-testing, `--seeds N` sets the replication count,
//! `--threads N` bounds the worker pool and `--shards N` splits each run's
//! round loop).
//!
//! # Parallel seed replication
//!
//! [`registry::run_entry`] runs every rung the same way: the topology is
//! generated **once per rung** on the reserved [`TOPOLOGY_STREAM`] and
//! shared across the seed replications, since graph generation dominates
//! wall-clock on large-n ladders; the seeds then fan out over a rayon
//! thread pool via [`replicate`], and each picks its engine from the spec
//! (static, faulted, churning or asynchronous). Each seed draws its RNG
//! from the deterministic [`rng_for`] stream keyed by
//! `(experiment, configuration, seed)`, so results are **identical for
//! every thread count** — parallelism changes only wall-clock, never
//! numbers. Outcomes come back in seed order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod codec;
pub mod compare;
pub mod measure;
pub mod registry;
pub mod scenario;

mod experiments;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use rrb_engine::{
    AsyncSimState, BoxedProbe, FaultState, Round, RunReport, SimConfig, SimState, Topology,
};
use rrb_graph::{Graph, NodeId};
use rrb_p2p::{ChurnEvents, ChurnProcess, ChurnStats, Overlay};

use registry::LadderEntry;
use scenario::{AnyProtocol, ChurnSpec, DynamicsSpec, GraphSpec, ScenarioSpec, TimingSpec};

/// Run configuration shared by every experiment (`rrb run` flags).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Reduced ladder/seeds for smoke tests (`--quick`).
    pub quick: bool,
    /// Number of independent seeds per configuration.
    pub seeds: u64,
    /// Worker threads for seed replication (`--threads N`; `None` = all
    /// available cores).
    pub threads: Option<usize>,
    /// Node-slot shards for **single-run** parallelism (`--shards N`):
    /// every engine run fans its RNG-free phases out over this many
    /// contiguous slot shards. Results are seed-for-seed identical at any
    /// value (see `rrb_engine::shard`); the CLI accepts 1..=256.
    pub shards: usize,
}

impl ExpConfig {
    /// Builds a config from explicit flag values, applying the shared seed
    /// default (3 quick / 10 full) and installing the requested global
    /// thread pool.
    pub fn with_flags(
        quick: bool,
        seeds: Option<u64>,
        threads: Option<usize>,
        shards: Option<usize>,
    ) -> Self {
        let seeds = seeds.unwrap_or(if quick { 3 } else { 10 });
        let threads = threads.map(|t| t.max(1));
        if let Some(t) = threads {
            let _ = rayon::ThreadPoolBuilder::new().num_threads(t).build_global();
        }
        ExpConfig { quick, seeds, threads, shards: shards.unwrap_or(1).max(1) }
    }

    /// The exponent ladder for n = 2^e sweeps: shorter under `--quick`.
    pub fn size_exponents(&self, full: std::ops::RangeInclusive<u32>) -> Vec<u32> {
        if self.quick {
            let hi = (*full.start() + 2).min(*full.end());
            (*full.start()..=hi).collect()
        } else {
            full.collect()
        }
    }
}

/// Deterministic per-(experiment, configuration, seed) RNG.
pub fn rng_for(experiment: u64, config_ix: u64, seed: u64) -> SmallRng {
    // SplitMix-style mixing of the three coordinates.
    let mut z = experiment
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(config_ix.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

/// Fans an arbitrary per-seed measurement out over the rayon pool.
///
/// Each seed gets its own [`rng_for`] stream, so the outcome vector (in
/// seed order) is byte-identical regardless of thread count. This is the
/// building block for experiments whose per-seed work is more than a single
/// engine run (churn loops, replicated-DB runs, spectral audits, ...).
pub fn replicate<T, F>(experiment: u64, config_ix: u64, seeds: u64, per_seed: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut SmallRng) -> T + Sync,
{
    (0..seeds)
        .into_par_iter()
        .map(|s| {
            let mut rng = rng_for(experiment, config_ix, s);
            per_seed(s, &mut rng)
        })
        .collect()
}

/// Reserved seed coordinate of the per-configuration *topology stream*:
/// [`registry::run_entry`] draws each rung's shared topology from
/// `rng_for(experiment, config_ix, TOPOLOGY_STREAM)`, disjoint from every
/// per-seed stream (seeds are small integers).
pub const TOPOLOGY_STREAM: u64 = 0x7070_1070;

/// Reserved seed coordinate of the per-seed *fault stream*: every
/// replication of a rung with a fault plan seeds its [`FaultState`] from
/// `rng_for(experiment, config_ix, FAULT_STREAM ^ seed)`, disjoint from
/// the per-seed run streams (seeds are small integers) and from
/// [`TOPOLOGY_STREAM`]. A plan-free rung derives nothing from it.
pub const FAULT_STREAM: u64 = 0xFA17_07A1;

/// Continuous-time quantities of an asynchronous run that the round
/// report cannot carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventClock {
    /// Simulated time at which the run stopped.
    pub time: f64,
    /// Simulated time of the delivery that completed coverage, if reached.
    pub coverage_time: Option<f64>,
    /// Total events processed (fires + deliveries).
    pub events: u64,
}

/// One seed's outcome of a ladder rung, whatever engine ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// The engine's run report. Under churn, `alive_count` is the final
    /// survivor census, so `coverage()` is survivor coverage; under async
    /// timing, `rounds`/`full_coverage_at` are unit-time windows of the
    /// event clock.
    pub report: RunReport,
    /// Join/leave totals applied over the run (zero for static specs).
    pub churn: ChurnStats,
    /// The event clock of an async-timing run (`None` for sync specs).
    pub clock: Option<EventClock>,
}

/// One ladder rung compiled for replication: the spec's protocol and
/// engine config, and the topology every seed shares.
///
/// The topology is generated **once per rung** (graph generation
/// dominates wall-clock on large-n ladders) from the dedicated
/// [`TOPOLOGY_STREAM`]; origin selection and the run itself stay on the
/// per-seed [`rng_for`] stream. Seed `i`'s outcome therefore depends only
/// on `(experiment, config_ix)` and `(experiment, config_ix, i)` — never
/// on the thread schedule or the shard count.
pub(crate) struct Rung<'a> {
    spec: &'a ScenarioSpec,
    experiment: u64,
    config_ix: u64,
    pub(crate) protocol: AnyProtocol,
    pub(crate) config: SimConfig,
    pub(crate) topology: Graph,
}

impl<'a> Rung<'a> {
    /// Compiles `entry` under `experiment`'s streams, running every
    /// synchronous seed over `shards` node-slot shards. Fails on a spec no
    /// engine can run or on a topology that cannot be generated.
    pub(crate) fn new(
        experiment: u64,
        entry: &'a LadderEntry,
        shards: usize,
    ) -> Result<Self, String> {
        let spec = &entry.spec;
        spec.check_runnable()?;
        let mut topo_rng = rng_for(experiment, entry.config_ix, TOPOLOGY_STREAM);
        let topology = spec
            .graph
            .build(&mut topo_rng)
            .map_err(|e| format!("graph generation for {}: {e}", spec.graph.label()))?;
        Ok(Rung {
            spec,
            experiment,
            config_ix: entry.config_ix,
            protocol: spec.protocol.build(),
            config: spec.sim_config().with_shards(shards),
            topology,
        })
    }

    /// Runs seed `s` (whose stream is `rng`) on the engine the spec
    /// selects: the round engine on the static topology, with the fault
    /// plan installed when there is one; the round engine over a churning
    /// overlay; or the event-queue engine. `probe` is installed for the
    /// run and handed back afterwards; probes never touch the RNG, so a
    /// probed seed's outcome is byte-identical to a bare one.
    pub(crate) fn run_seed(
        &self,
        s: u64,
        rng: &mut SmallRng,
        probe: &mut Option<BoxedProbe>,
    ) -> SeedOutcome {
        let (topo, proto, config) = (&self.topology, &self.protocol, self.config);
        let n = topo.node_count();
        match (self.spec.dynamics, self.spec.timing) {
            (DynamicsSpec::Churn(churn), _) => {
                let mut run = ChurnRun::new(topo, &self.spec.graph, churn);
                let origin = random_alive_origin(&run.overlay, rng);
                let mut sim = SimState::new(proto, Topology::node_count(&run.overlay), origin);
                sim.set_probe(probe.take());
                while !sim.finished(&run.overlay, proto, config) {
                    sim.step(&run.overlay, proto, config, rng);
                    let events = run.step(rng);
                    sim.apply_membership(proto, events.delta());
                }
                *probe = sim.take_probe();
                let report = sim.into_report(&run.overlay, config);
                SeedOutcome { report, churn: run.totals, clock: None }
            }
            (DynamicsSpec::Static, TimingSpec::Async { clock, latency }) => {
                let origin = random_alive_origin(topo, rng);
                let mut sim = AsyncSimState::new(proto, n, origin, clock, latency);
                sim.set_faults(self.fault_state(s));
                sim.set_probe(probe.take());
                sim.run_to_completion(topo, proto, config, rng);
                *probe = sim.take_probe();
                let clock = EventClock {
                    time: sim.now(),
                    coverage_time: sim.coverage_time(),
                    events: sim.events_processed(),
                };
                let report = sim.into_report(topo, config);
                SeedOutcome { report, churn: ChurnStats::default(), clock: Some(clock) }
            }
            (DynamicsSpec::Static, TimingSpec::Sync) => {
                let origin = random_alive_origin(topo, rng);
                let mut sim = SimState::new(proto, n, origin);
                sim.set_faults(self.fault_state(s));
                sim.set_probe(probe.take());
                sim.run_to_completion(topo, proto, config, rng);
                *probe = sim.take_probe();
                let report = sim.into_report(topo, config);
                SeedOutcome { report, churn: ChurnStats::default(), clock: None }
            }
        }
    }

    /// Seed `s`'s fault state on the reserved [`FAULT_STREAM`], or `None`
    /// for a plan-free spec (the engine then runs its pre-fault path).
    fn fault_state(&self, s: u64) -> Option<FaultState> {
        let failures = &self.spec.failures;
        (!failures.is_plain()).then(|| {
            let fault_seed: u64 = rng_for(self.experiment, self.config_ix, FAULT_STREAM ^ s).gen();
            FaultState::new(&failures.to_plan(), self.topology.node_count(), fault_seed)
        })
    }
}

/// One seed's membership trajectory: a mutable [`Overlay`] over the
/// rung's shared base graph plus the churn process driving it.
pub(crate) struct ChurnRun {
    pub(crate) overlay: Overlay,
    process: ChurnProcess,
    rewire_per_round: usize,
    pub(crate) totals: ChurnStats,
}

impl ChurnRun {
    /// Wraps `base` (generated from `graph`) in a fresh overlay; every
    /// seed starts with fresh churn debts.
    pub(crate) fn new(base: &Graph, graph: &GraphSpec, churn: ChurnSpec) -> Self {
        ChurnRun {
            overlay: Overlay::from_graph(base, graph.target_degree()),
            process: churn.to_process(graph.node_count()),
            rewire_per_round: churn.rewire_per_round,
            totals: ChurnStats::default(),
        }
    }

    /// The membership change after one engine round: one churn step,
    /// then `rewire_per_round` flip switches. Returns the structured
    /// events the engine must absorb (`apply_membership`).
    pub(crate) fn step(&mut self, rng: &mut SmallRng) -> ChurnEvents {
        let events = self.process.step(&mut self.overlay, rng).expect("churn step");
        self.overlay.rewire(self.rewire_per_round, rng);
        self.totals.absorb(events.stats());
        events
    }
}

/// Draws a uniformly random alive node of `topo` (rejection sampling on
/// the caller's stream).
pub(crate) fn random_alive_origin<T: Topology>(topo: &T, rng: &mut SmallRng) -> NodeId {
    loop {
        let i = rng.gen_range(0..topo.node_count());
        if topo.is_alive(NodeId::new(i)) {
            return NodeId::new(i);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in kibibytes; `None`
/// where the procfs field is unavailable. Used by the n = 10^6
/// memory-smoke rung of E1. Delegates to the engine's telemetry sampler
/// (the same probe [`rrb_engine::PhaseTimings`] reads once per round).
pub fn peak_rss_kib() -> Option<u64> {
    rrb_engine::telemetry::peak_rss_kib()
}

/// Mean of a per-report metric.
pub fn mean_of<F: Fn(&RunReport) -> f64>(reports: &[RunReport], f: F) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

/// Fraction of reports with full coverage.
pub fn success_rate(reports: &[RunReport]) -> f64 {
    mean_of(reports, |r| if r.all_informed() { 1.0 } else { 0.0 })
}

/// Mean rounds-to-coverage over successful runs (cap value for failures).
pub fn mean_rounds_to_coverage(reports: &[RunReport]) -> f64 {
    mean_of(reports, |r| r.full_coverage_at.unwrap_or(r.rounds) as f64)
}

/// Mean survivor coverage across the replications — the *residual
/// coverage* of a degraded run (1.0 means every survivor was informed
/// despite the faults).
pub fn mean_coverage(reports: &[RunReport]) -> f64 {
    mean_of(reports, |r| r.coverage())
}

/// Mean simulated time to coverage of async runs (the stop time for runs
/// that never covered).
pub fn mean_cover_time(clocks: &[EventClock]) -> f64 {
    clocks.iter().map(|c| c.coverage_time.unwrap_or(c.time)).sum::<f64>()
        / clocks.len().max(1) as f64
}

/// Mean **recovery rounds** — healed rounds needed to reach full coverage
/// after the scripted heal ([`rrb_engine::FaultPlan::heal_round`], the
/// first round the last partition no longer blocks). Covering *in* the heal round counts
/// as 1; covering before the heal (the partition never bit) counts as 0.
/// Replications that never reach full coverage count at their total round
/// count, mirroring [`mean_rounds_to_coverage`]'s cap convention.
pub fn mean_recovery_rounds(reports: &[RunReport], heal: Round) -> f64 {
    mean_of(reports, |r| {
        (r.full_coverage_at.unwrap_or(r.rounds) + 1).saturating_sub(heal) as f64
    })
}

/// Escapes `s` as a JSON string literal (quotes included) — the one
/// escaper behind every JSON writer in this workspace's hand-rolled
/// dialect (scenario specs, run artifacts, the `rrb` CLI's `--json`
/// registry listings).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod hand_wired;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_entry;
    use crate::scenario::{FaultSpec, MeasureSpec, PolicySpec, ProtocolSpec, StopSpec};
    use rrb_engine::protocols::FloodPushPull;
    use rrb_engine::{FaultEvent, FaultPlan, GilbertElliott, OutageSpec};
    use rrb_graph::gen;

    /// Flood push&pull (one choice per round) on a random `d`-regular
    /// graph, stopping at coverage within `max_rounds`.
    fn flood(n: usize, d: usize, max_rounds: u32) -> ScenarioSpec {
        ScenarioSpec::new(
            "flood",
            GraphSpec::RandomRegular { n, d },
            ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
        )
        .with_stop(StopSpec::Coverage { max_rounds })
    }

    /// `spec`'s seed outcomes through the registry path.
    fn outcomes(
        experiment: u64,
        config_ix: u64,
        seeds: u64,
        spec: ScenarioSpec,
    ) -> Vec<SeedOutcome> {
        let cfg = ExpConfig { quick: true, seeds, threads: None, shards: 1 };
        let entry = LadderEntry::new(config_ix, spec);
        run_entry(experiment, &entry, &cfg).expect("runnable spec").outcomes
    }

    fn reports(experiment: u64, config_ix: u64, seeds: u64, spec: ScenarioSpec) -> Vec<RunReport> {
        outcomes(experiment, config_ix, seeds, spec).into_iter().map(|o| o.report).collect()
    }

    fn with_threads<T: Send>(threads: usize, run: impl FnOnce() -> T + Send) -> T {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(run)
    }

    fn churn(rate: f64, min_alive: usize, rewire_per_round: usize) -> DynamicsSpec {
        DynamicsSpec::Churn(ChurnSpec {
            joins_per_round: rate,
            leaves_per_round: rate,
            min_alive: Some(min_alive),
            rewire_per_round,
        })
    }

    #[test]
    fn rngs_are_deterministic_and_distinct() {
        let a: u64 = rng_for(1, 2, 3).gen();
        let b: u64 = rng_for(1, 2, 3).gen();
        let c: u64 = rng_for(1, 2, 4).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn replicated_runs_produce_reports() {
        let reports = reports(1, 0, 4, flood(128, 4, 10_000));
        assert_eq!(reports.len(), 4);
        assert!((success_rate(&reports) - 1.0).abs() < 1e-12);
        assert!(mean_rounds_to_coverage(&reports) > 1.0);
        assert!(mean_of(&reports, |r| r.tx_per_node()) > 0.0);
    }

    #[test]
    fn replicated_runs_are_thread_count_invariant() {
        let spec = flood(256, 8, 10_000).with_measure(MeasureSpec::Trace);
        let sequential = with_threads(1, || outcomes(7, 3, 8, spec.clone()));
        let parallel = with_threads(8, || outcomes(7, 3, 8, spec.clone()));
        assert!(sequential.iter().all(|o| !o.report.history.is_empty()));
        assert_eq!(sequential, parallel, "outcomes depend on the thread schedule");
    }

    #[test]
    fn seeds_share_one_topology_per_rung() {
        // G(n,p) differs with every draw, so seeds built on per-seed
        // graphs could not match the one topology-stream graph.
        let spec = ScenarioSpec::new(
            "gnp",
            GraphSpec::Gnp { n: 96, expected_degree: 8.0 },
            ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
        )
        .with_stop(StopSpec::Coverage { max_rounds: 200 });
        let topo = hand_wired::topology(2, 0, |rng| spec.graph.build(rng).unwrap());
        let proto = spec.protocol.build();
        let via_hand = hand_wired::plain(2, 0, 6, &topo, &proto, spec.sim_config());
        assert_eq!(reports(2, 0, 6, spec), via_hand);
    }

    #[test]
    fn replicate_preserves_seed_order() {
        let out = replicate(9, 0, 16, |seed, rng| (seed, rng.gen::<u64>()));
        for (i, (seed, _)) in out.iter().enumerate() {
            assert_eq!(*seed, i as u64);
        }
        let again = replicate(9, 0, 16, |seed, rng| (seed, rng.gen::<u64>()));
        assert_eq!(out, again);
    }

    #[test]
    fn empty_fault_plan_matches_plain_run() {
        // The fault stream is derived but never advanced for an empty
        // plan, so installing one is byte-identical to the plain path.
        let topo = hand_wired::topology(21, 0, |rng| gen::random_regular(128, 6, rng).unwrap());
        let proto = FloodPushPull::new();
        let config = SimConfig::default();
        let faulted =
            hand_wired::faulted(21, 0, 4, &topo, &proto, config, &FaultPlan::default());
        assert_eq!(reports(21, 0, 4, flood(128, 6, 10_000)), faulted);
    }

    #[test]
    fn async_runs_cover_and_report_continuous_time() {
        let spec = flood(128, 6, 200).with_timing(TimingSpec::Async {
            clock: rrb_engine::ClockSpec::Exponential { rate: 1.0 },
            latency: rrb_engine::LatencySpec::Uniform { min: 0.05, max: 0.3 },
        });
        let runs = outcomes(41, 0, 4, spec);
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert!(r.report.all_informed());
            let clock = r.clock.expect("async runs carry their event clock");
            assert!(clock.events > 0);
            let cov = clock.coverage_time.expect("covered runs record a coverage time");
            assert!(cov <= clock.time);
            // The report's round stamp is the ceil-window of the event time.
            assert_eq!(r.report.full_coverage_at, Some((cov.ceil().max(1.0)) as Round));
        }
    }

    #[test]
    fn async_runs_are_thread_count_invariant() {
        let spec = flood(128, 6, 300)
            .with_failures(FaultSpec {
                schedule: vec![FaultEvent::Partition { from: 2, until: 6, parts: 2 }],
                outages: Some(OutageSpec::new(0.05, 1, 3)),
                ..FaultSpec::NONE
            })
            .with_timing(TimingSpec::Async {
                clock: rrb_engine::ClockSpec::Stragglers {
                    rate: 1.0,
                    slow_fraction: 0.1,
                    slow_factor: 4.0,
                },
                latency: rrb_engine::LatencySpec::Exponential { mean: 0.2 },
            });
        let sequential = with_threads(1, || outcomes(42, 1, 8, spec.clone()));
        let parallel = with_threads(4, || outcomes(42, 1, 8, spec.clone()));
        assert_eq!(sequential, parallel, "async outcomes depend on the thread schedule");
    }

    #[test]
    fn faulted_runs_are_thread_count_invariant() {
        let spec = flood(128, 6, 300).with_failures(FaultSpec {
            burst: Some(GilbertElliott::new(0.1, 0.3, 0.02, 0.7)),
            schedule: vec![FaultEvent::Partition { from: 2, until: 8, parts: 2 }],
            outages: Some(OutageSpec::new(0.05, 1, 3)),
            ..FaultSpec::NONE
        });
        let sequential = with_threads(1, || outcomes(22, 1, 8, spec.clone()));
        let parallel = with_threads(4, || outcomes(22, 1, 8, spec.clone()));
        assert_eq!(sequential, parallel, "fault outcomes depend on the thread schedule");
    }

    #[test]
    fn degradation_helpers_report_recovery_after_heal() {
        let faults = FaultSpec {
            schedule: vec![FaultEvent::Partition { from: 1, until: 12, parts: 2 }],
            ..FaultSpec::NONE
        };
        let heal = faults.heal_round().unwrap();
        let reports = reports(23, 0, 6, flood(128, 6, 300).with_failures(faults));
        // Flood push&pull cannot cover a partitioned overlay: every seed
        // completes only after the heal, then recovers within a few rounds.
        assert!((success_rate(&reports) - 1.0).abs() < 1e-12);
        assert!((mean_coverage(&reports) - 1.0).abs() < 1e-12);
        for r in &reports {
            assert!(r.full_coverage_at.unwrap() >= heal, "covered while partitioned");
        }
        let recovery = mean_recovery_rounds(&reports, heal);
        assert!(recovery > 0.0 && recovery < 50.0, "recovery {recovery}");
    }

    #[test]
    fn churned_runs_are_deterministic_and_apply_churn() {
        let spec = flood(128, 6, 200).with_dynamics(churn(2.0, 32, 4));
        let a = outcomes(10, 90, 4, spec.clone());
        let b = outcomes(10, 90, 4, spec);
        assert_eq!(a, b, "same seed must give identical churn trajectories");
        for r in &a {
            assert!(r.churn.joins > 0 && r.churn.leaves > 0, "churn never fired");
            // Joins create fresh slots, so the slot count grew past the
            // base size while survivors stay near it (symmetric rates).
            assert!(r.report.node_count > 128, "slots did not grow: {}", r.report.node_count);
            assert!(r.report.alive_count <= r.report.node_count);
            assert!(r.report.coverage() <= 1.0);
        }
        // At this mild churn rate flood push&pull reaches every survivor
        // at some instant (joiners arriving afterwards may still be
        // uninformed at the end — that is what survivor coverage < 1
        // means under sustained joins).
        assert!(
            a.iter().any(|r| r.report.full_coverage_at.is_some()),
            "no seed ever covered the survivors"
        );
    }

    #[test]
    fn churned_runs_are_thread_count_invariant() {
        let spec =
            flood(128, 6, 200).with_dynamics(churn(4.0, 32, 8)).with_measure(MeasureSpec::Trace);
        let sequential = with_threads(1, || outcomes(11, 91, 6, spec.clone()));
        let parallel = with_threads(8, || outcomes(11, 91, 6, spec.clone()));
        assert_eq!(sequential, parallel, "churn outcomes depend on the thread schedule");
    }

    #[test]
    fn multi_churned_runs_are_deterministic() {
        let cfg = ExpConfig { quick: true, seeds: 3, threads: None, shards: 1 };
        let entry = LadderEntry::new(92, flood(96, 6, 200).with_dynamics(churn(1.0, 24, 2)));
        let (a, _) = crate::experiments::e10_multi_runs(&entry, &cfg);
        let (b, _) = crate::experiments::e10_multi_runs(&entry, &cfg);
        assert_eq!(a, b);
        for (report, final_alive) in &a {
            assert_eq!(report.outcomes.len(), crate::experiments::E10_MULTI_RUMORS);
            assert!(*final_alive > 0);
            for o in &report.outcomes {
                assert!(o.informed <= *final_alive, "informed exceeds survivors");
            }
        }
    }

    #[test]
    fn quick_config_shrinks_ladder() {
        let full = ExpConfig { quick: false, seeds: 10, threads: None, shards: 1 };
        let quick = ExpConfig { quick: true, seeds: 3, threads: None, shards: 1 };
        assert_eq!(full.size_exponents(10..=15), vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(quick.size_exponents(10..=15), vec![10, 11, 12]);
    }
}
