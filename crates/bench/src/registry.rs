//! The experiment registry: every E1–E21 measurement of the paper as a
//! named entry whose configuration ladder is [`ScenarioSpec`] **data**.
//!
//! One binary (`rrb`) drives the whole fleet:
//!
//! ```text
//! rrb list                 # what's registered
//! rrb describe e5          # a ladder's specs as JSON
//! rrb run e5 --quick       # run an experiment
//! rrb run --spec file.json # run a single hand-written scenario
//! ```
//!
//! Every rung, registered or hand-written, replicates through
//! [`run_entry`].

use std::time::Instant;

use crate::scenario::ScenarioSpec;
use crate::{peak_rss_kib, replicate, ExpConfig, Rung, SeedOutcome};
use rrb_engine::{BoxedProbe, PhaseTimings, Protocol, Round, RunReport};

/// One rung of an experiment's configuration ladder: a scenario plus the
/// `config_ix` RNG coordinate it runs under (kept identical to the indices
/// the pre-registry binaries used, so results stay comparable).
#[derive(Debug, Clone)]
pub struct LadderEntry {
    /// Second coordinate of the [`crate::rng_for`] stream.
    pub config_ix: u64,
    /// The scenario to run.
    pub spec: ScenarioSpec,
}

impl LadderEntry {
    /// Convenience constructor.
    pub fn new(config_ix: u64, spec: ScenarioSpec) -> Self {
        LadderEntry { config_ix, spec }
    }
}

/// Signature of an experiment driver: runs the ladder and prints the
/// analysis.
pub type RunFn = fn(&ExpConfig);

/// Signature of a ladder builder (`quick` shrinks it like `--quick`).
pub type ScenariosFn = fn(bool) -> Vec<LadderEntry>;

/// A registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Registry name (`"e1"` … `"e19"`).
    pub name: &'static str,
    /// First coordinate of the [`crate::rng_for`] stream.
    pub id: u64,
    /// One-line title shown by `rrb list`.
    pub title: &'static str,
    /// What the experiment demonstrates (paper reference included).
    pub description: &'static str,
    /// The configuration ladder as scenario data.
    pub scenarios: ScenariosFn,
    /// The driver.
    pub run: RunFn,
}

/// All registered experiments, in E-number order.
pub fn all() -> &'static [Experiment] {
    crate::experiments::REGISTRY
}

/// Looks an experiment up by name (`"e5"`), case-insensitive.
pub fn find(name: &str) -> Option<&'static Experiment> {
    let needle = name.to_ascii_lowercase();
    all().iter().find(|e| e.name == needle)
}

/// One rung's measured run: what [`run_entry`] returns.
#[derive(Debug, Clone)]
pub struct RungRun {
    /// Every seed's outcome, in seed order.
    pub outcomes: Vec<SeedOutcome>,
    /// The rung's total wall-clock (topology included), milliseconds.
    pub wall_ms: f64,
    /// Seed 0's [`PhaseTimings`] probe: per-phase (and, with `shards > 1`,
    /// per-shard) wall-clock attribution and counter totals of the run the
    /// outcomes describe — empty when no seed ran.
    pub seed0: PhaseTimings,
    /// Peak RSS (`VmHWM`, kibibytes) read once after the rung's seeds
    /// finished; the high-water mark is process-wide and monotone, so it
    /// covers the whole measured rung.
    pub peak_rss_kib: Option<u64>,
}

impl RungRun {
    /// The engine reports, in seed order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.outcomes.iter().map(|o| o.report.clone()).collect()
    }
}

/// Runs one ladder entry through the shared replication harness: the
/// rung's topology is generated once, then every seed runs under its
/// `(experiment_id, entry.config_ix, seed)` stream, fanned out over the
/// rayon pool. Seed 0 runs with a [`PhaseTimings`] probe installed;
/// probes never touch the RNG, so its outcome is byte-identical to a bare
/// run's and the timings describe the very run the statistics come from.
///
/// `cfg.shards > 1` fans every synchronous run's RNG-free phases out over
/// node-slot shards (`SimConfig::with_shards`) — outcomes stay
/// seed-for-seed identical at any shard count, only wall-clock moves.
/// Async-timing specs ignore the shard count (the event-queue engine
/// processes one event at a time by construction).
///
/// Fails, before any seed runs, on a spec no engine can run (see
/// [`ScenarioSpec::check_runnable`]) or a topology that cannot be
/// generated.
pub fn run_entry(
    experiment_id: u64,
    entry: &LadderEntry,
    cfg: &ExpConfig,
) -> Result<RungRun, String> {
    let start = Instant::now();
    let rung = Rung::new(experiment_id, entry, cfg.shards)?;
    let runs = replicate(experiment_id, entry.config_ix, cfg.seeds, |s, rng| {
        let mut probe = (s == 0).then(|| Box::new(PhaseTimings::new()) as BoxedProbe);
        let outcome = rung.run_seed(s, rng, &mut probe);
        (outcome, probe)
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let peak_rss_kib = peak_rss_kib();
    let (outcomes, probes): (Vec<SeedOutcome>, Vec<Option<BoxedProbe>>) =
        runs.into_iter().unzip();
    let seed0 = probes.into_iter().flatten().next().map_or_else(PhaseTimings::new, |probe| {
        probe.as_any().downcast_ref::<PhaseTimings>().cloned().expect("a PhaseTimings probe")
    });
    Ok(RungRun { outcomes, wall_ms, seed0, peak_rss_kib })
}

/// The protocol's designed round budget (schedule end), if it has one —
/// the "schedule end" column of several tables.
pub fn deadline_of(spec: &ScenarioSpec) -> Option<Round> {
    spec.protocol.build().deadline()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hand_wired;
    use crate::scenario::{
        ChurnSpec, DynamicsSpec, GraphSpec, MeasureSpec, PolicySpec, ProtocolSpec, RegimeSpec,
        StopSpec, TimingSpec,
    };

    #[test]
    fn registry_is_complete_and_names_unique() {
        let exps = all();
        assert_eq!(exps.len(), 21, "all 21 experiments must be registered");
        for (i, e) in exps.iter().enumerate() {
            assert_eq!(e.name, format!("e{}", i + 1), "registry out of order");
            assert_eq!(e.id, (i + 1) as u64, "experiment id must match its E number");
            assert!(!e.title.is_empty() && !e.description.is_empty());
        }
        let mut names: Vec<&str> = exps.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21, "duplicate experiment names");
    }

    #[test]
    fn every_ladder_is_nonempty_and_serialisable() {
        for exp in all() {
            for quick in [true, false] {
                let ladder = (exp.scenarios)(quick);
                assert!(!ladder.is_empty(), "{} has an empty ladder", exp.name);
                for entry in &ladder {
                    let json = entry.spec.to_json();
                    let back = ScenarioSpec::from_json(&json).unwrap_or_else(|e| {
                        panic!("{}/{}: {e}", exp.name, entry.spec.label)
                    });
                    assert_eq!(entry.spec, back, "{} spec not round-trippable", exp.name);
                }
                // config_ix values must be distinct within a ladder: they
                // are RNG stream coordinates.
                let mut ixs: Vec<u64> = ladder.iter().map(|l| l.config_ix).collect();
                ixs.sort_unstable();
                let len = ixs.len();
                ixs.dedup();
                assert_eq!(ixs.len(), len, "{} reuses config_ix values", exp.name);
            }
        }
    }

    #[test]
    fn quick_ladders_are_no_larger_than_full() {
        for exp in all() {
            let quick = (exp.scenarios)(true).len();
            let full = (exp.scenarios)(false).len();
            assert!(quick <= full, "{}: quick ladder larger than full", exp.name);
        }
    }

    #[test]
    fn find_is_case_insensitive_and_total() {
        assert!(find("e1").is_some());
        assert!(find("E18").is_some());
        assert!(find("e19").is_some());
        assert!(find("E20").is_some());
        assert!(find("e21").is_some());
        assert!(find("e22").is_none());
        assert!(find("bogus").is_none());
    }

    fn quick(seeds: u64) -> ExpConfig {
        ExpConfig { quick: true, seeds, threads: None, shards: 1 }
    }

    fn reports_of(runs: Vec<SeedOutcome>) -> Vec<RunReport> {
        runs.into_iter().map(|r| r.report).collect()
    }

    #[test]
    fn run_entry_matches_hand_wired_plumbing() {
        // The declarative path (spec → run_entry) must reproduce the
        // hand-wired plumbing seed for seed: same protocol, same graph
        // stream, same per-seed streams.
        use rrb_core::FourChoice;
        use rrb_engine::SimConfig;
        use rrb_graph::gen;

        let entry = LadderEntry::new(
            302,
            ScenarioSpec::new(
                "cross-check",
                GraphSpec::RandomRegular { n: 256, d: 8 },
                ProtocolSpec::FourChoice {
                    n_estimate: 256,
                    degree: 8,
                    alpha: 1.5,
                    choices: 4,
                    regime: RegimeSpec::Auto,
                },
            ),
        );
        let via_spec = run_entry(77, &entry, &quick(4)).unwrap().outcomes;
        let topo = hand_wired::topology(77, 302, |rng| {
            gen::random_regular(256, 8, rng).expect("generation")
        });
        let via_hand = hand_wired::plain(
            77,
            302,
            4,
            &topo,
            &FourChoice::for_graph(256, 8),
            SimConfig::until_quiescent(),
        );
        assert_eq!(reports_of(via_spec), via_hand);
    }

    #[test]
    fn churned_entries_are_seed_for_seed_deterministic() {
        use rrb_engine::protocols::FloodPushPull;
        use rrb_engine::{ChoicePolicy, SimConfig};

        let churn = ChurnSpec::symmetric(2.0);
        let entry = LadderEntry::new(
            7,
            ScenarioSpec::new(
                "churn-x",
                GraphSpec::RandomRegular { n: 128, d: 6 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_dynamics(DynamicsSpec::Churn(churn))
            .with_stop(StopSpec::Coverage { max_rounds: 200 }),
        );
        let a = run_entry(99, &entry, &quick(3)).unwrap().outcomes;
        let b = run_entry(99, &entry, &quick(3)).unwrap().outcomes;
        assert_eq!(a, b, "churned entry must be seed-for-seed deterministic");
        assert!(a.iter().any(|r| r.churn.joins > 0), "churn never fired");
        assert!(a.iter().all(|r| r.clock.is_none()));
        // The hand-wired churn loop over the same streams agrees, churn
        // totals included.
        let base = hand_wired::topology(99, 7, |rng| {
            rrb_graph::gen::random_regular(128, 6, rng).expect("generation")
        });
        let via_hand = hand_wired::churned(
            99,
            7,
            3,
            &base,
            6,
            &FloodPushPull::with_policy(ChoicePolicy::Distinct(4)),
            SimConfig::default().with_max_rounds(200),
            rrb_p2p::ChurnProcess::symmetric(2.0, 64),
            churn.rewire_per_round,
        );
        assert_eq!(a, via_hand);
    }

    #[test]
    fn faulted_entries_dispatch_and_are_deterministic() {
        use crate::scenario::{FailureSpec, FaultSpec};
        use rrb_engine::protocols::FloodPushPull;
        use rrb_engine::{ChoicePolicy, FailureModel, FaultEvent, SimConfig};

        let faults = FaultSpec {
            rates: FailureSpec { channel: 0.05, transmission: 0.0, crash: 0.0 },
            schedule: vec![FaultEvent::Partition { from: 1, until: 10, parts: 2 }],
            ..FaultSpec::NONE
        };
        let entry = LadderEntry::new(
            5,
            ScenarioSpec::new(
                "fault-x",
                GraphSpec::RandomRegular { n: 128, d: 6 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_failures(faults.clone())
            .with_stop(StopSpec::Coverage { max_rounds: 300 }),
        );
        let a = run_entry(98, &entry, &quick(3)).unwrap().outcomes;
        let b = run_entry(98, &entry, &quick(3)).unwrap().outcomes;
        assert_eq!(a, b, "faulted entry must be seed-for-seed deterministic");
        let a = reports_of(a);
        // The plan actually bit: no seed covers before the heal.
        for r in &a {
            assert!(r.full_coverage_at.unwrap_or(10) >= 10, "covered mid-partition");
        }
        let topo = hand_wired::topology(98, 5, |rng| {
            rrb_graph::gen::random_regular(128, 6, rng).expect("generation")
        });
        let proto = FloodPushPull::with_policy(ChoicePolicy::Distinct(4));
        let config = SimConfig::default().with_max_rounds(300);
        let via_hand = hand_wired::faulted(
            98,
            5,
            3,
            &topo,
            &proto,
            config.with_failures(FailureModel::channels(0.05)),
            &faults.to_plan(),
        );
        assert_eq!(a, via_hand);
        // A plain spec must not be rerouted through the faulted runner.
        let plain = LadderEntry::new(
            5,
            ScenarioSpec::new(
                "plain-x",
                GraphSpec::RandomRegular { n: 128, d: 6 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_stop(StopSpec::Coverage { max_rounds: 300 }),
        );
        let via_entry = run_entry(98, &plain, &quick(3)).unwrap().outcomes;
        let via_hand = hand_wired::plain(98, 5, 3, &topo, &proto, config);
        assert_eq!(reports_of(via_entry), via_hand);
    }

    #[test]
    fn async_entries_dispatch_instrument_and_are_deterministic() {
        use rrb_engine::protocols::FloodPushPull;
        use rrb_engine::{ChoicePolicy, ClockSpec, LatencySpec, SimConfig};
        let (clock, latency) =
            (ClockSpec::Exponential { rate: 1.0 }, LatencySpec::Uniform { min: 0.05, max: 0.3 });
        let entry = LadderEntry::new(
            9,
            ScenarioSpec::new(
                "async-x",
                GraphSpec::RandomRegular { n: 128, d: 6 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_timing(TimingSpec::Async { clock, latency })
            .with_stop(StopSpec::Coverage { max_rounds: 200 }),
        );
        let run = run_entry(97, &entry, &quick(3)).unwrap();
        let a = run.outcomes;
        let b = run_entry(97, &entry, &quick(3)).unwrap().outcomes;
        assert_eq!(a, b, "async entry must be seed-for-seed deterministic");
        assert!(a.iter().all(|r| r.report.all_informed()));
        // The hand-wired event-queue loop over the same streams agrees,
        // event clock included.
        let topo = hand_wired::topology(97, 9, |rng| {
            rrb_graph::gen::random_regular(128, 6, rng).expect("generation")
        });
        let via_hand = hand_wired::asynchronous(
            97,
            9,
            3,
            &topo,
            &FloodPushPull::with_policy(ChoicePolicy::Distinct(4)),
            SimConfig::default().with_max_rounds(200),
            clock,
            latency,
        );
        assert_eq!(a, via_hand);
        // Seed 0 of the measured run carries the probe.
        assert_eq!(run.seed0.rounds(), a[0].report.rounds);
        assert_eq!(run.seed0.tx(), a[0].report.total_tx());
    }

    #[test]
    fn instrumented_replay_matches_seed_zero_statistics() {
        // Seed 0 of the measured run carries the probe, so its counters
        // must equal seed 0's report exactly, at any shard count.
        let entry = LadderEntry::new(
            11,
            ScenarioSpec::new(
                "probe-x",
                GraphSpec::RandomRegular { n: 256, d: 8 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_stop(StopSpec::Coverage { max_rounds: 200 }),
        );
        let serial = run_entry(42, &entry, &quick(3)).unwrap();
        let sharded = run_entry(42, &entry, &ExpConfig { shards: 3, ..quick(3) }).unwrap();
        assert_eq!(sharded.outcomes, serial.outcomes, "sharding changed the outcomes");
        assert_eq!(sharded.seed0.shard_phase_ms().len(), 3, "one phase row per shard");
        for run in [serial, sharded] {
            let (reports, timings) = (run.reports(), run.seed0);
            assert_eq!(timings.rounds(), reports[0].rounds);
            assert_eq!(timings.tx(), reports[0].total_tx());
            assert_eq!(timings.last_round().informed, reports[0].informed_count);
            assert!(
                timings.phase_ms().iter().sum::<f64>() > 0.0,
                "phase attribution recorded no time"
            );
        }
    }

    #[test]
    fn churned_entries_instrument_seed_zero() {
        let entry = LadderEntry::new(
            7,
            ScenarioSpec::new(
                "churn-probe",
                GraphSpec::RandomRegular { n: 128, d: 6 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_dynamics(DynamicsSpec::Churn(ChurnSpec::symmetric(2.0)))
            .with_stop(StopSpec::Coverage { max_rounds: 200 }),
        );
        let run = run_entry(99, &entry, &quick(3)).unwrap();
        let timings = &run.seed0;
        assert_eq!(timings.rounds(), run.outcomes[0].report.rounds);
        assert_eq!(timings.tx(), run.outcomes[0].report.total_tx());
        assert!(
            timings.phase_ms().iter().sum::<f64>() > 0.0,
            "phase attribution recorded no time"
        );
    }

    #[test]
    fn unrunnable_specs_are_errors_not_panics() {
        // An unrealisable degree fails graph generation; the error comes
        // back from the entry point before any seed runs.
        let entry = LadderEntry::new(
            0,
            ScenarioSpec::new(
                "bad-degree",
                GraphSpec::RandomRegular { n: 5, d: 8 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
            ),
        );
        let err = run_entry(0, &entry, &quick(2)).unwrap_err();
        assert!(err.contains("graph generation"), "{err}");
        // Programmatic specs get the same runnability check as parsed ones.
        let entry = LadderEntry::new(
            0,
            ScenarioSpec::new(
                "churn-async",
                GraphSpec::RandomRegular { n: 64, d: 4 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
            )
            .with_dynamics(DynamicsSpec::Churn(ChurnSpec::symmetric(1.0)))
            .with_timing(TimingSpec::Async {
                clock: rrb_engine::ClockSpec::Exponential { rate: 1.0 },
                latency: rrb_engine::LatencySpec::Zero,
            }),
        );
        let err = run_entry(0, &entry, &quick(2)).unwrap_err();
        assert!(err.contains("churn"), "{err}");
    }

    #[test]
    fn deadline_reporting() {
        let spec = ScenarioSpec::new(
            "d",
            GraphSpec::RandomRegular { n: 1024, d: 8 },
            ProtocolSpec::FourChoice {
                n_estimate: 1024,
                degree: 8,
                alpha: 1.5,
                choices: 4,
                regime: RegimeSpec::Auto,
            },
        );
        assert!(deadline_of(&spec).unwrap() > 0);
        let flood = ScenarioSpec::new(
            "f",
            GraphSpec::Complete { n: 8 },
            ProtocolSpec::FloodPush { policy: crate::scenario::PolicySpec::STANDARD },
        )
        .with_measure(MeasureSpec::Standard);
        assert!(deadline_of(&flood).is_none());
    }
}
