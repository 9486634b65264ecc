//! Hand-wired reference runs for the replication tests.
//!
//! Each function wires one rung shape by hand, sequentially and with none
//! of [`crate::Rung`]'s code: the shared topology on
//! `rng_for(experiment, config_ix, TOPOLOGY_STREAM)`, then per seed the
//! `rng_for(experiment, config_ix, seed)` stream, a rejection-sampled
//! alive origin, the fault state on `FAULT_STREAM ^ seed` when there is a
//! plan, and the engine loop. The registry path must reproduce them seed
//! for seed.

use rand::rngs::SmallRng;
use rand::Rng;
use rrb_engine::{
    AsyncSimState, ClockSpec, FaultPlan, FaultState, LatencySpec, Protocol, RunReport, SimConfig,
    SimState, Simulation, Topology,
};
use rrb_graph::{Graph, NodeId};
use rrb_p2p::{ChurnProcess, ChurnStats, Overlay};

use crate::{rng_for, EventClock, SeedOutcome, FAULT_STREAM, TOPOLOGY_STREAM};

/// The rung's shared topology, drawn from its topology stream.
pub(crate) fn topology(
    experiment: u64,
    config_ix: u64,
    build: impl FnOnce(&mut SmallRng) -> Graph,
) -> Graph {
    build(&mut rng_for(experiment, config_ix, TOPOLOGY_STREAM))
}

fn origin<T: Topology>(topo: &T, rng: &mut SmallRng) -> NodeId {
    loop {
        let i = rng.gen_range(0..topo.node_count());
        if topo.is_alive(NodeId::new(i)) {
            break NodeId::new(i);
        }
    }
}

/// A static rung without a fault plan, on the convenience runner.
pub(crate) fn plain<P: Protocol + Clone>(
    experiment: u64,
    config_ix: u64,
    seeds: u64,
    topo: &Graph,
    protocol: &P,
    config: SimConfig,
) -> Vec<RunReport> {
    (0..seeds)
        .map(|s| {
            let mut rng = rng_for(experiment, config_ix, s);
            let origin = origin(topo, &mut rng);
            Simulation::new(topo, protocol.clone(), config).run(origin, &mut rng)
        })
        .collect()
}

/// A static rung with `plan` installed in every seed.
pub(crate) fn faulted<P: Protocol>(
    experiment: u64,
    config_ix: u64,
    seeds: u64,
    topo: &Graph,
    protocol: &P,
    config: SimConfig,
    plan: &FaultPlan,
) -> Vec<RunReport> {
    (0..seeds)
        .map(|s| {
            let mut rng = rng_for(experiment, config_ix, s);
            let origin = origin(topo, &mut rng);
            let fault_seed: u64 = rng_for(experiment, config_ix, FAULT_STREAM ^ s).gen();
            let mut sim = SimState::new(protocol, topo.node_count(), origin);
            sim.set_faults(Some(FaultState::new(plan, topo.node_count(), fault_seed)));
            sim.run_to_completion(topo, protocol, config, &mut rng);
            sim.into_report(topo, config)
        })
        .collect()
}

/// An async-timing rung (no fault plan) on the event-queue engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn asynchronous<P: Protocol>(
    experiment: u64,
    config_ix: u64,
    seeds: u64,
    topo: &Graph,
    protocol: &P,
    config: SimConfig,
    clock: ClockSpec,
    latency: LatencySpec,
) -> Vec<SeedOutcome> {
    (0..seeds)
        .map(|s| {
            let mut rng = rng_for(experiment, config_ix, s);
            let origin = origin(topo, &mut rng);
            let mut sim = AsyncSimState::new(protocol, topo.node_count(), origin, clock, latency);
            sim.run_to_completion(topo, protocol, config, &mut rng);
            let clock = EventClock {
                time: sim.now(),
                coverage_time: sim.coverage_time(),
                events: sim.events_processed(),
            };
            SeedOutcome {
                report: sim.into_report(topo, config),
                churn: ChurnStats::default(),
                clock: Some(clock),
            }
        })
        .collect()
}

/// A churn rung: per seed, a fresh overlay over `base`, then one engine
/// round, one churn step and `rewire_per_round` flips per round, with the
/// membership events fed to the engine's census.
#[allow(clippy::too_many_arguments)]
pub(crate) fn churned<P: Protocol>(
    experiment: u64,
    config_ix: u64,
    seeds: u64,
    base: &Graph,
    target_degree: usize,
    protocol: &P,
    config: SimConfig,
    churn: ChurnProcess,
    rewire_per_round: usize,
) -> Vec<SeedOutcome> {
    (0..seeds)
        .map(|s| {
            let mut rng = rng_for(experiment, config_ix, s);
            let mut overlay = Overlay::from_graph(base, target_degree);
            let origin = origin(&overlay, &mut rng);
            let mut process = churn;
            let mut totals = ChurnStats::default();
            let mut sim = SimState::new(protocol, Topology::node_count(&overlay), origin);
            while !sim.finished(&overlay, protocol, config) {
                sim.step(&overlay, protocol, config, &mut rng);
                let events = process.step(&mut overlay, &mut rng).expect("churn step");
                overlay.rewire(rewire_per_round, &mut rng);
                totals.absorb(events.stats());
                sim.apply_joins(protocol, &events.joined);
                sim.apply_leaves(&events.left);
                sim.apply_rejoins(protocol, &events.rejoined);
            }
            SeedOutcome { report: sim.into_report(&overlay, config), churn: totals, clock: None }
        })
        .collect()
}
