//! The E1–E20 experiment drivers and their configuration ladders.
//!
//! Sweep-style experiments express their ladder as [`ScenarioSpec`] values
//! and drive them through [`run_entry`]; the remaining bespoke
//! measurements (phase anatomy, churn, replicated DB) keep custom
//! per-seed closures but still register their parameter grid as scenario
//! data for `rrb describe`. E5 and E15 reduce through the named
//! [`crate::measure`] drivers behind their [`MeasureSpec`] variants.
//!
//! `config_ix` values mirror the indices the pre-registry binaries used
//! wherever possible, so recorded results stay comparable (E8 renumbers its
//! blocks — the legacy binary reused the same indices for two different
//! failure kinds).

use std::time::Instant;

use crate::measure;
use crate::registry::{deadline_of, run_entry, Experiment, LadderEntry};
use crate::scenario::{
    ChurnSpec, DynamicsSpec, FailureSpec, FaultSpec, GossipModeSpec, GraphSpec, MeasureSpec,
    PolicySpec, ProtocolSpec, RegimeSpec, ScenarioSpec, StopSpec, TimingSpec,
};
use crate::{
    mean_cover_time, mean_coverage, mean_of, mean_recovery_rounds, mean_rounds_to_coverage,
    peak_rss_kib, random_alive_origin, replicate, success_rate, ChurnRun,
    EventClock, ExpConfig, Rung,
};
use rrb_core::{AlgorithmVariant, DegreeRegime};
use rrb_engine::{
    AdversarySpec, AdversaryTarget, ClockSpec, FaultEvent, GilbertElliott, LatencySpec,
    trace, MultiRumorReport, MultiSimState, OutageSpec, Round, RumorInjection, RunReport,
    SimConfig, StepPhase,
};
use rrb_graph::gen;
use rrb_p2p::ReplicatedDb;
use rrb_stats::{fit_log2, fit_loglog2, Summary, Table};

/// Runs a registry rung through [`run_entry`] and keeps the engine
/// reports. Registry ladders are runnable by construction, so a failure
/// here is a bug in the ladder.
fn run_reports(experiment_id: u64, entry: &LadderEntry, cfg: &ExpConfig) -> Vec<RunReport> {
    run_entry(experiment_id, entry, cfg).expect("registry ladder").reports()
}

/// Mirrors `ExpConfig::size_exponents` for ladder builders that only get
/// the `quick` flag.
fn exponents(quick: bool, full: std::ops::RangeInclusive<u32>) -> Vec<u32> {
    ExpConfig { quick, seeds: 0, threads: None, shards: 1 }.size_exponents(full)
}

/// The paper's algorithm with default schedule (α = 1.5, 4 choices, auto
/// regime) — the shape most ladders use.
fn four_choice(n_estimate: usize, degree: usize) -> ProtocolSpec {
    ProtocolSpec::FourChoice { n_estimate, degree, alpha: 1.5, choices: 4, regime: RegimeSpec::Auto }
}

fn budgeted(mode: GossipModeSpec, n: usize, budget: f64) -> ProtocolSpec {
    ProtocolSpec::Budgeted { mode, n, budget, policy: PolicySpec::STANDARD }
}

// ---------------------------------------------------------------------------
// E1 — runtime vs n
// ---------------------------------------------------------------------------

const E1_DEGREES: [usize; 3] = [8, 16, 32];

fn e1_entry(di: usize, d: usize, e: u32) -> LadderEntry {
    let n = 1usize << e;
    LadderEntry::new(
        (di * 100 + e as usize) as u64,
        ScenarioSpec::new(format!("d{d}_n{n}"), GraphSpec::RandomRegular { n, d }, four_choice(n, d)),
    )
}

fn e1_scenarios(quick: bool) -> Vec<LadderEntry> {
    let mut out = Vec::new();
    for (di, &d) in E1_DEGREES.iter().enumerate() {
        for &e in &exponents(quick, 10..=15) {
            out.push(e1_entry(di, d, e));
        }
    }
    out
}

fn e1_run(cfg: &ExpConfig) {
    let exps = exponents(cfg.quick, 10..=15);

    println!("E1: four-choice broadcast runtime vs n (mean over {} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec!["d", "n", "rounds", "success", "wall ms", "schedule end"]);
    for (di, &d) in E1_DEGREES.iter().enumerate() {
        let mut ns = Vec::new();
        let mut rounds = Vec::new();
        for &e in &exps {
            let n = 1usize << e;
            let entry = e1_entry(di, d, e);
            let run = run_entry(1, &entry, cfg).expect("registry ladder");
            let (reports, wall_ms) = (run.reports(), run.wall_ms);
            let mean_rounds = mean_rounds_to_coverage(&reports);
            table.row(vec![
                d.to_string(),
                n.to_string(),
                format!("{mean_rounds:.1}"),
                format!("{:.2}", success_rate(&reports)),
                format!("{wall_ms:.1}"),
                deadline_of(&entry.spec).map(|r| r.to_string()).unwrap_or_default(),
            ]);
            ns.push(n as f64);
            rounds.push(mean_rounds);
        }
        if ns.len() >= 2 {
            let fit = fit_log2(&ns, &rounds);
            println!(
                "d = {d}: rounds ≈ {:.2}·log2(n) + {:.2}   (r² = {:.3})",
                fit.slope, fit.intercept, fit.r_squared
            );
        }
    }
    println!("\n{table}");

    // Shard check: the largest d = 8 rung re-run with the round loop
    // split over 2 and 4 shards. The statistics must match the serial
    // run bit for bit (the sharding determinism contract); only the wall
    // clock may move.
    let &e_max = exps.last().expect("non-empty ladder");
    let serial_reports = run_reports(1, &e1_entry(0, 8, e_max), cfg);
    for shards in [2usize, 4] {
        let entry = e1_entry(0, 8, e_max);
        let sharded = ExpConfig { shards, ..*cfg };
        let reports = run_reports(1, &entry, &sharded);
        assert_eq!(
            serial_reports, reports,
            "E1 {} diverged at {shards} shards — sharding must be invisible to results",
            entry.spec.label
        );
    }

    // Memory-smoke rung (skipped under --quick): a single seed at
    // n = 2^20 ≈ 10^6, recording the process's peak RSS around the CSR
    // graph + arena run — the first step toward the ROADMAP 10^6 ladder.
    if !cfg.quick {
        let n = 1usize << 20;
        let d = 8usize;
        let rss_before = peak_rss_kib();
        let entry = LadderEntry::new(
            9000,
            ScenarioSpec::new(
                format!("memsmoke_n{n}"),
                GraphSpec::RandomRegular { n, d },
                four_choice(n, d),
            )
            .with_stop(StopSpec::COVERAGE),
        );
        let one_seed = ExpConfig { quick: false, seeds: 1, threads: cfg.threads, shards: cfg.shards };
        let run = run_entry(1, &entry, &one_seed).expect("registry ladder");
        let (reports, wall_ms) = (run.reports(), run.wall_ms);
        let rss_after = peak_rss_kib();
        let fmt_mib = |kib: Option<u64>| match kib {
            Some(k) => format!("{:.0} MiB", k as f64 / 1024.0),
            None => "n/a".into(),
        };
        println!(
            "\nmemory smoke (single seed, n = 2^20, d = {d}): rounds {:.0}, coverage \
             {:.4}, wall {wall_ms:.0} ms\n  peak RSS before {} / after {} (VmHWM; \
             CSR graph ≈ {:.0} MiB of stubs alone)",
            mean_rounds_to_coverage(&reports),
            mean_of(&reports, |r| r.coverage()),
            fmt_mib(rss_before),
            fmt_mib(rss_after),
            (n * d * 4) as f64 / (1024.0 * 1024.0),
        );
    }

    println!(
        "paper: O(log n) rounds (Thm 2 for small d, Thm 3 for large d); the fits\n\
         above should be linear in log2 n with stable slope across d."
    );
}

// ---------------------------------------------------------------------------
// E2 — transmissions vs n
// ---------------------------------------------------------------------------

const E2_D: usize = 8;

/// A protocol family in a sweep: display name, `config_ix` base, and the
/// spec constructor for a given n.
type ProtocolFamily = (&'static str, u64, fn(usize) -> ProtocolSpec);

fn e2_families() -> Vec<ProtocolFamily> {
    vec![
        ("four-choice", 100, |n| four_choice(n, E2_D)),
        ("push", 200, |n| budgeted(GossipModeSpec::Push, n, 3.0)),
        ("push&pull", 300, |n| budgeted(GossipModeSpec::PushPull, n, 3.0)),
        ("median-counter", 400, |n| ProtocolSpec::MedianCounter {
            n,
            ctr_max: None,
            c_rounds: None,
            age_cutoff: None,
        }),
    ]
}

fn e2_entry(name: &str, base: u64, e: u32, make: fn(usize) -> ProtocolSpec) -> LadderEntry {
    let n = 1usize << e;
    LadderEntry::new(
        base + e as u64,
        ScenarioSpec::new(
            format!("{name}_n{n}"),
            GraphSpec::RandomRegular { n, d: E2_D },
            make(n),
        ),
    )
}

fn e2_scenarios(quick: bool) -> Vec<LadderEntry> {
    let mut out = Vec::new();
    for (name, base, make) in e2_families() {
        for &e in &exponents(quick, 10..=15) {
            out.push(e2_entry(name, base, e, make));
        }
    }
    out
}

fn e2_run(cfg: &ExpConfig) {
    let exps = exponents(cfg.quick, 10..=15);
    println!(
        "E2: transmissions per node vs n on random {E2_D}-regular graphs (mean over {} seeds)\n",
        cfg.seeds
    );

    let mut ns: Vec<f64> = Vec::new();
    let mut tx_by_family: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut coverage_rows: Vec<(&'static str, f64)> = Vec::new();
    for (name, base, make) in e2_families() {
        let mut tx = Vec::new();
        let mut all = Vec::new();
        ns.clear();
        for &e in &exps {
            let n = 1usize << e;
            let entry = e2_entry(name, base, e, make);
            let reports = run_reports(2, &entry, cfg);
            ns.push(n as f64);
            tx.push(mean_of(&reports, |r| r.tx_per_node()));
            all.extend(reports);
        }
        coverage_rows.push((name, success_rate(&all)));
        tx_by_family.push((name, tx));
    }

    let mut table =
        Table::new(vec!["n", "four-choice", "push", "push&pull", "median-counter"]);
    for i in 0..ns.len() {
        let mut row = vec![format!("{}", ns[i] as u64)];
        for (_, tx) in &tx_by_family {
            row.push(format!("{:.1}", tx[i]));
        }
        table.row(row);
    }
    println!("{table}");

    for (name, ys) in &tx_by_family {
        if ns.len() >= 2 {
            let log_fit = fit_log2(&ns, ys);
            let loglog_fit = fit_loglog2(&ns, ys);
            println!(
                "{name:>15}: tx/node ≈ {:.2}·log2 n + {:.1} (r²={:.3})  |  ≈ {:.2}·loglog2 n + {:.1} (r²={:.3})",
                log_fit.slope,
                log_fit.intercept,
                log_fit.r_squared,
                loglog_fit.slope,
                loglog_fit.intercept,
                loglog_fit.r_squared
            );
        }
    }
    println!(
        "\ncoverage: four-choice {:.3}, push {:.3}",
        coverage_rows[0].1, coverage_rows[1].1
    );
    println!(
        "paper: four-choice is O(n log log n) total (flat-ish loglog slope, near-zero\n\
         log2 slope), push is Θ(n log n) (log2 slope ≈ its budget constant)."
    );
}

// ---------------------------------------------------------------------------
// E3 — lower-bound audit
// ---------------------------------------------------------------------------

fn e3_params(quick: bool) -> (usize, &'static [usize]) {
    if quick {
        (1 << 11, &[8, 16])
    } else {
        (1 << 13, &[4, 8, 16, 32, 64])
    }
}

fn e3_protos(n: usize) -> Vec<(&'static str, u64, ProtocolSpec)> {
    vec![
        ("push", 0, budgeted(GossipModeSpec::Push, n, 3.0)),
        ("pull", 1, budgeted(GossipModeSpec::Pull, n, 4.0)),
        ("push&pull", 2, budgeted(GossipModeSpec::PushPull, n, 2.5)),
    ]
}

/// The E3 ladder rungs for one degree, with the display name each row
/// uses (`four-choice*` is starred: it sits outside the standard model).
fn e3_entries(n: usize, di: usize, d: usize) -> Vec<(&'static str, LadderEntry)> {
    let mut out: Vec<(&'static str, LadderEntry)> = e3_protos(n)
        .into_iter()
        .map(|(name, pi, proto)| {
            let spec =
                ScenarioSpec::new(format!("{name}_d{d}"), GraphSpec::RandomRegular { n, d }, proto);
            (name, LadderEntry::new((di * 10) as u64 + pi, spec))
        })
        .collect();
    out.push((
        "four-choice*",
        LadderEntry::new(
            (di * 10 + 9) as u64,
            ScenarioSpec::new(
                format!("four-choice_d{d}"),
                GraphSpec::RandomRegular { n, d },
                four_choice(n, d),
            ),
        ),
    ));
    out
}

fn e3_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, degrees) = e3_params(quick);
    let mut out = Vec::new();
    for (di, &d) in degrees.iter().enumerate() {
        out.extend(e3_entries(n, di, d).into_iter().map(|(_, entry)| entry));
    }
    out
}

fn e3_run(cfg: &ExpConfig) {
    let (n, degrees) = e3_params(cfg.quick);
    println!(
        "E3: lower-bound audit at n = {n} (mean over {} seeds); \
         normalisation N = n·log2(n)/log2(d)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "d", "protocol", "coverage", "rounds", "tx/node", "tx / N",
    ]);

    for (di, &d) in degrees.iter().enumerate() {
        for (name, entry) in e3_entries(n, di, d) {
            let norm_per_node = (n as f64).log2() / (d as f64).log2();
            let reports = run_reports(3, &entry, cfg);
            let tx = mean_of(&reports, |r| r.tx_per_node());
            table.row(vec![
                d.to_string(),
                name.into(),
                format!("{:.3}", success_rate(&reports)),
                format!("{:.1}", mean_rounds_to_coverage(&reports)),
                format!("{tx:.1}"),
                format!("{:.3}", tx / norm_per_node),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Theorem 1 predicts tx/N ≥ const > 0 for every one-choice oblivious protocol\n\
         (watch the column stay roughly flat-or-growing in d), while the starred\n\
         four-choice row — outside the standard model — sinks towards 0 as d and n grow."
    );
}

// ---------------------------------------------------------------------------
// E4 — phase anatomy (bespoke per-seed history analysis)
// ---------------------------------------------------------------------------

fn e4_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 12 } else { 1 << 15 }, 8)
}

fn e4_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e4_params(quick);
    vec![LadderEntry::new(
        0,
        ScenarioSpec::new(
            format!("phases_n{n}"),
            GraphSpec::RandomRegular { n, d },
            ProtocolSpec::FourChoice {
                n_estimate: n,
                degree: d,
                alpha: 1.5,
                choices: 4,
                regime: RegimeSpec::Small,
            },
        )
        .with_measure(MeasureSpec::PhaseMilestones),
    )]
}

fn e4_run(cfg: &ExpConfig) {
    let (n, d) = e4_params(cfg.quick);
    let (s, per_seed) = measure::phase_milestones(n, d, cfg.seeds);
    let informed_p1: Vec<f64> = per_seed.iter().map(|r| r.informed_p1).collect();
    let uninformed_p2: Vec<f64> = per_seed.iter().map(|r| r.uninformed_p2).collect();
    let coverage_round: Vec<f64> = per_seed.iter().map(|r| r.coverage_round).collect();
    let p1_growth: Vec<f64> = per_seed.iter().filter_map(|r| r.growth).collect();
    let p2_decay: Vec<f64> = per_seed.iter().filter_map(|r| r.decay).collect();

    println!("E4: phase milestones at n = {n}, d = {d} ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec!["milestone", "measured (mean ± ci95)", "paper's claim"]);
    let fmt = |s: &Summary| format!("{:.1} ± {:.1}", s.mean, s.ci95());
    let s1 = Summary::from_slice(&informed_p1);
    table.row(vec![
        "informed after phase 1".into(),
        fmt(&s1),
        format!(">= n/8 = {}", n / 8),
    ]);
    let s2 = Summary::from_slice(&uninformed_p2);
    table.row(vec![
        "uninformed after phase 2".into(),
        fmt(&s2),
        format!("O(n/log^5 n) ≈ {:.1}", n as f64 / (n as f64).log2().powi(5)),
    ]);
    let s3 = Summary::from_slice(&p1_growth);
    table.row(vec![
        "phase-1 growth factor / round".into(),
        format!("{:.2} ± {:.2}", s3.mean, s3.ci95()),
        "> 2 (Lemma 1: |I+| doubles)".into(),
    ]);
    let s4 = Summary::from_slice(&p2_decay);
    table.row(vec![
        "phase-2 decay factor / round".into(),
        format!("{:.3} ± {:.3}", s4.mean, s4.ci95()),
        "< 1/c (Lemma 3: constant shrink)".into(),
    ]);
    let s5 = Summary::from_slice(&coverage_round);
    table.row(vec![
        "full coverage round".into(),
        fmt(&s5),
        format!("<= schedule end = {}", s.end()),
    ]);
    println!("{table}");

    let ok1 = s1.mean >= (n / 8) as f64;
    let ok2 = s4.mean < 1.0;
    println!(
        "verdict: Corollary 1 {}; Phase-2 contraction {}.",
        if ok1 { "HOLDS" } else { "VIOLATED" },
        if ok2 { "HOLDS" } else { "VIOLATED" }
    );
}

// ---------------------------------------------------------------------------
// E5 — push/pull crossover (bespoke trace measurement)
// ---------------------------------------------------------------------------

fn e5_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 10]
    } else {
        vec![1 << 10, 1 << 11, 1 << 12]
    }
}

fn e5_entry(i: usize, n: usize, pull: bool) -> LadderEntry {
    let (name, proto) = if pull {
        ("pull", ProtocolSpec::FloodPull { policy: PolicySpec::STANDARD })
    } else {
        ("push", ProtocolSpec::FloodPush { policy: PolicySpec::STANDARD })
    };
    LadderEntry::new(
        i as u64 * 2 + u64::from(pull),
        ScenarioSpec::new(format!("{name}_n{n}"), GraphSpec::Complete { n }, proto)
            .with_stop(StopSpec::COVERAGE)
            .with_measure(MeasureSpec::Crossover),
    )
}

fn e5_scenarios(quick: bool) -> Vec<LadderEntry> {
    let mut out = Vec::new();
    for (i, &n) in e5_sizes(quick).iter().enumerate() {
        out.push(e5_entry(i, n, false));
        out.push(e5_entry(i, n, true));
    }
    out
}

fn e5_run(cfg: &ExpConfig) {
    println!("E5: push/pull crossover on complete graphs ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec![
        "n",
        "push: 0→n/2",
        "push: n/2→n",
        "pull: 0→n/2",
        "pull: n/2→n",
        "loglog2 n",
    ]);
    for (i, &n) in e5_sizes(cfg.quick).iter().enumerate() {
        let trace = |pull: bool| measure::crossover_trace(5, &e5_entry(i, n, pull), cfg.seeds);
        let push = trace(false);
        let pull = trace(true);
        let m = |v: &[f64]| Summary::from_slice(v).mean;
        table.row(vec![
            n.to_string(),
            format!("{:.1}", m(&push.half)),
            format!("{:.1}", m(&push.tail)),
            format!("{:.1}", m(&pull.half)),
            format!("{:.1}", m(&pull.tail)),
            format!("{:.1}", (n as f64).log2().log2()),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: push's tail (n/2→n) is Θ(log n); pull's tail collapses in\n\
         O(log log n) rounds (doubly exponential shrink), while pull's head is no\n\
         faster than push's — exactly the crossover at ~n/2 described in §1."
    );
}

// ---------------------------------------------------------------------------
// E6 — k-choices ablation
// ---------------------------------------------------------------------------

fn e6_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 11 } else { 1 << 14 }, 8)
}

fn e6_entry(n: usize, d: usize, k: usize) -> LadderEntry {
    LadderEntry::new(
        k as u64,
        ScenarioSpec::new(
            format!("k{k}"),
            GraphSpec::RandomRegular { n, d },
            ProtocolSpec::FourChoice {
                n_estimate: n,
                degree: d,
                alpha: 1.5,
                choices: k,
                regime: RegimeSpec::Auto,
            },
        ),
    )
}

fn e6_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e6_params(quick);
    (1..=4).map(|k| e6_entry(n, d, k)).collect()
}

fn e6_run(cfg: &ExpConfig) {
    let (n, d) = e6_params(cfg.quick);
    println!(
        "E6: k-distinct-choices ablation of the paper's schedule at n = {n}, d = {d} \
         ({} seeds)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "k", "success", "mean coverage round", "tx/node", "pull tx share",
    ]);
    for k in 1..=4usize {
        let entry = e6_entry(n, d, k);
        let reports = run_reports(6, &entry, cfg);
        table.row(vec![
            k.to_string(),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.1}", mean_rounds_to_coverage(&reports)),
            format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
            format!(
                "{:.2}",
                mean_of(&reports, |r| {
                    if r.total_tx() == 0 {
                        0.0
                    } else {
                        r.pull_tx as f64 / r.total_tx() as f64
                    }
                })
            ),
        ]);
    }
    println!("{table}");
    println!(
        "paper: k = 4 proven; k = 3 conjectured sufficient; k = 2 open; k = 1 falls\n\
         back to the standard model (slower phase 1, weaker pull phase).\n\
         tx/node scales ~linearly in k through phase 2, so smaller k is cheaper\n\
         per round — the question is whether coverage survives."
    );
}

// ---------------------------------------------------------------------------
// E7 — parallel vs sequentialised four-choice
// ---------------------------------------------------------------------------

fn e7_entry(n: usize, e: u32, sequential: bool) -> LadderEntry {
    let d = 8usize;
    let (name, proto) = if sequential {
        ("seq", ProtocolSpec::SequentialFourChoice { n_estimate: n, degree: d })
    } else {
        ("par", four_choice(n, d))
    };
    LadderEntry::new(
        e as u64 * 2 + u64::from(sequential),
        ScenarioSpec::new(format!("{name}_n{n}"), GraphSpec::RandomRegular { n, d }, proto),
    )
}

fn e7_scenarios(quick: bool) -> Vec<LadderEntry> {
    let mut out = Vec::new();
    for &e in &exponents(quick, 10..=13) {
        let n = 1usize << e;
        out.push(e7_entry(n, e, false));
        out.push(e7_entry(n, e, true));
    }
    out
}

fn e7_run(cfg: &ExpConfig) {
    println!("E7: parallel four-choice vs sequential memory-3 ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec![
        "n",
        "par rounds",
        "seq rounds",
        "ratio",
        "par tx/node",
        "seq tx/node",
        "par ok",
        "seq ok",
    ]);
    for &e in &exponents(cfg.quick, 10..=13) {
        let n = 1usize << e;
        let par = e7_entry(n, e, false);
        let seq = e7_entry(n, e, true);
        let par_reports = run_reports(7, &par, cfg);
        let seq_reports = run_reports(7, &seq, cfg);
        let pr = mean_rounds_to_coverage(&par_reports);
        let sr = mean_rounds_to_coverage(&seq_reports);
        table.row(vec![
            n.to_string(),
            format!("{pr:.1}"),
            format!("{sr:.1}"),
            format!("{:.2}", sr / pr),
            format!("{:.1}", mean_of(&par_reports, |r| r.tx_per_node())),
            format!("{:.1}", mean_of(&seq_reports, |r| r.tx_per_node())),
            format!("{:.2}", success_rate(&par_reports)),
            format!("{:.2}", success_rate(&seq_reports)),
        ]);
    }
    println!("{table}");
    println!(
        "expected: rounds ratio ≈ 4 (each parallel step = 4 sequential steps),\n\
         tx/node within a small constant of each other, both at full coverage."
    );
}

// ---------------------------------------------------------------------------
// E8 — failure injection
// ---------------------------------------------------------------------------

const E8_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

fn e8_blocks() -> Vec<(&'static str, bool, f64)> {
    // (label, is_channel_failure, alpha)
    vec![
        ("channel failures, α = 1.5", true, 1.5),
        ("transmission failures, α = 1.5", false, 1.5),
        ("channel failures, α = 2.5", true, 2.5),
    ]
}

fn e8_entry(n: usize, d: usize, bi: usize, i: usize) -> LadderEntry {
    let (_, is_channel, alpha) = e8_blocks()[bi];
    let p = E8_RATES[i];
    let failures = if p == 0.0 {
        FailureSpec::NONE
    } else if is_channel {
        FailureSpec { channel: p, transmission: 0.0, crash: 0.0 }
    } else {
        FailureSpec { channel: 0.0, transmission: p, crash: 0.0 }
    };
    let kind = if is_channel { "chan" } else { "tx" };
    LadderEntry::new(
        (bi * 100 + i) as u64,
        ScenarioSpec::new(
            format!("{kind}_a{alpha}_p{p}"),
            GraphSpec::RandomRegular { n, d },
            ProtocolSpec::FourChoice {
                n_estimate: n,
                degree: d,
                alpha,
                choices: 4,
                regime: RegimeSpec::Auto,
            },
        )
        .with_failures(failures),
    )
}

fn e8_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 11 } else { 1 << 13 }, 8)
}

fn e8_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e8_params(quick);
    let mut out = Vec::new();
    for bi in 0..e8_blocks().len() {
        for i in 0..E8_RATES.len() {
            out.push(e8_entry(n, d, bi, i));
        }
    }
    out
}

fn e8_run(cfg: &ExpConfig) {
    let (n, d) = e8_params(cfg.quick);
    println!("E8: four-choice under failure injection at n = {n}, d = {d} ({} seeds)\n", cfg.seeds);

    for (bi, (label, _, _)) in e8_blocks().into_iter().enumerate() {
        let mut table = Table::new(vec!["p", "coverage", "success", "rounds", "tx/node"]);
        for (i, &p) in E8_RATES.iter().enumerate() {
            let entry = e8_entry(n, d, bi, i);
            let reports = run_reports(8, &entry, cfg);
            table.row(vec![
                format!("{p:.2}"),
                format!("{:.4}", mean_of(&reports, |r| r.coverage())),
                format!("{:.2}", success_rate(&reports)),
                format!("{:.1}", mean_rounds_to_coverage(&reports)),
                format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
            ]);
        }
        println!("{label}:\n{table}");
    }
    println!(
        "expected: coverage stays ≈ 1 for limited failure rates; cost rises mildly;\n\
         under heavier failures a larger α (longer phases) restores full coverage —\n\
         the paper's \"limited communication failures\" robustness."
    );
}

// ---------------------------------------------------------------------------
// E9 — misestimated network size
// ---------------------------------------------------------------------------

const E9_FACTORS: [(f64, &str); 5] =
    [(0.25, "n/4"), (0.5, "n/2"), (1.0, "n"), (2.0, "2n"), (4.0, "4n")];

fn e9_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 11 } else { 1 << 13 }, 8)
}

fn e9_entry(n: usize, d: usize, i: usize) -> LadderEntry {
    let (f, label) = E9_FACTORS[i];
    let n_est = ((n as f64) * f) as usize;
    LadderEntry::new(
        i as u64,
        ScenarioSpec::new(
            format!("est_{label}"),
            GraphSpec::RandomRegular { n, d },
            four_choice(n_est, d),
        ),
    )
}

fn e9_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e9_params(quick);
    (0..E9_FACTORS.len()).map(|i| e9_entry(n, d, i)).collect()
}

fn e9_run(cfg: &ExpConfig) {
    let (n, d) = e9_params(cfg.quick);
    println!(
        "E9: four-choice with misestimated network size at true n = {n}, d = {d} \
         ({} seeds)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "estimate", "schedule end", "coverage", "success", "rounds", "tx/node",
    ]);
    for (i, &(_, label)) in E9_FACTORS.iter().enumerate() {
        let entry = e9_entry(n, d, i);
        let reports = run_reports(9, &entry, cfg);
        table.row(vec![
            label.into(),
            deadline_of(&entry.spec).map(|r| r.to_string()).unwrap_or_default(),
            format!("{:.4}", mean_of(&reports, |r| r.coverage())),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.1}", mean_rounds_to_coverage(&reports)),
            format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
        ]);
    }
    println!("{table}");
    println!(
        "expected: overestimates only lengthen phases (more margin, slightly more\n\
         tx); constant-factor underestimates still cover thanks to the pull and\n\
         active phases — matching §1.2's 'estimate within a constant factor'."
    );
}

// ---------------------------------------------------------------------------
// E10 — churn (pure registry data: DynamicsSpec::Churn drives the shared
// churn harness; no bespoke round loop here)
// ---------------------------------------------------------------------------

const E10_RATES: [f64; 5] = [0.0, 1.0, 4.0, 16.0, 64.0];
/// The multi-rumour-under-churn rung: staggered rumours riding one fabric
/// while peers join and leave — the scenario family the alive-census
/// refactor unlocked.
pub(crate) const E10_MULTI_RUMORS: usize = 8;
const E10_MULTI_STAGGER: u32 = 3;
const E10_MULTI_RATE: f64 = 4.0;

fn e10_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 11 } else { 1 << 13 }, 8)
}

fn e10_entry(n: usize, d: usize, i: usize, rate: f64) -> LadderEntry {
    LadderEntry::new(
        i as u64,
        ScenarioSpec::new(
            format!("churn_{rate:.0}"),
            GraphSpec::RandomRegular { n, d },
            four_choice(n, d),
        )
        .with_dynamics(DynamicsSpec::Churn(ChurnSpec::symmetric(rate))),
    )
}

fn e10_multi_entry(n: usize, d: usize) -> LadderEntry {
    LadderEntry::new(
        E10_RATES.len() as u64,
        ScenarioSpec::new(
            format!("multi_churn_{E10_MULTI_RATE:.0}"),
            GraphSpec::RandomRegular { n, d },
            four_choice(n, d),
        )
        .with_dynamics(DynamicsSpec::Churn(ChurnSpec::symmetric(E10_MULTI_RATE)))
        .with_measure(MeasureSpec::Custom(format!(
            "multi-rumour under churn: {E10_MULTI_RUMORS} rumours staggered \
             {E10_MULTI_STAGGER} rounds apart on the shared fabric"
        ))),
    )
}

fn e10_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e10_params(quick);
    let mut out: Vec<LadderEntry> = E10_RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| e10_entry(n, d, i, rate))
        .collect();
    out.push(e10_multi_entry(n, d));
    out
}

/// E10's multi-rumour rung: [`E10_MULTI_RUMORS`] rumours injected
/// [`E10_MULTI_STAGGER`] rounds apart at random alive origins, riding one
/// shared channel fabric while peers join and leave. Shares the
/// replication path's topology, origin and churn helpers, so its streams
/// follow the same `(10, config_ix, seed)` contract. Returns each seed's
/// report with its final survivor census (the denominator of per-rumour
/// survivor coverage), and the rung's wall-clock in milliseconds.
pub(crate) fn e10_multi_runs(
    entry: &LadderEntry,
    cfg: &ExpConfig,
) -> (Vec<(MultiRumorReport, usize)>, f64) {
    let DynamicsSpec::Churn(churn) = entry.spec.dynamics else {
        panic!("the multi-rumour rung needs churn dynamics ({})", entry.spec.label)
    };
    let start = Instant::now();
    let rung = Rung::new(10, entry, cfg.shards).expect("registry ladder");
    let (proto, config) = (&rung.protocol, rung.config);
    let outs = replicate(10, entry.config_ix, cfg.seeds, |_, rng| {
        let mut run = ChurnRun::new(&rung.topology, &entry.spec.graph, churn);
        let injections: Vec<RumorInjection> = (0..E10_MULTI_RUMORS)
            .map(|r| RumorInjection {
                birth: r as Round * E10_MULTI_STAGGER,
                origin: random_alive_origin(&run.overlay, rng),
            })
            .collect();
        let mut sim = MultiSimState::new(proto, &run.overlay, &injections);
        while !sim.finished(proto, config) {
            sim.step(&run.overlay, proto, config, rng);
            let events = run.step(rng);
            sim.apply_membership(proto, events.delta());
        }
        let final_alive = sim.effective_alive();
        (sim.into_report(), final_alive)
    });
    (outs, start.elapsed().as_secs_f64() * 1e3)
}

fn e10_run(cfg: &ExpConfig) {
    let (n, d) = e10_params(cfg.quick);
    println!("E10: four-choice broadcast under churn at n = {n}, d = {d} ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec![
        "joins+leaves/round",
        "survivor coverage",
        "full success",
        "rounds run",
        "tx/node",
        "joins",
        "leaves",
    ]);
    for (i, &rate) in E10_RATES.iter().enumerate() {
        let entry = e10_entry(n, d, i, rate);
        let runs = run_entry(10, &entry, cfg).expect("registry ladder").outcomes;
        let reports: Vec<_> = runs.iter().map(|r| r.report.clone()).collect();
        table.row(vec![
            format!("{rate:.0}"),
            format!("{:.4}", mean_of(&reports, |r| r.coverage())),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.1}", mean_of(&reports, |r| r.rounds as f64)),
            format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
            format!("{:.1}", Summary::from_slice(
                &runs.iter().map(|r| r.churn.joins as f64).collect::<Vec<_>>()
            ).mean),
            format!("{:.1}", Summary::from_slice(
                &runs.iter().map(|r| r.churn.leaves as f64).collect::<Vec<_>>()
            ).mean),
        ]);
    }
    println!("{table}");

    // Multi-rumour-under-churn rung: the MultiSimState path with live
    // membership deltas (staggered rumours + symmetric churn).
    let entry = e10_multi_entry(n, d);
    let (outs, wall_ms) = e10_multi_runs(&entry, cfg);
    let survivor_cov: Vec<f64> = outs
        .iter()
        .flat_map(|(report, final_alive)| {
            report.outcomes.iter().map(|r| r.informed as f64 / (*final_alive).max(1) as f64)
        })
        .collect();
    let delivered: Vec<f64> = outs
        .iter()
        .map(|(report, _)| {
            report.outcomes.iter().filter(|r| r.full_coverage_at.is_some()).count() as f64
                / report.outcomes.len().max(1) as f64
        })
        .collect();
    let rounds_v: Vec<f64> = outs.iter().map(|(report, _)| report.rounds as f64).collect();
    let ratios: Vec<f64> = outs.iter().map(|(report, _)| report.combining_ratio()).collect();
    println!(
        "multi-rumour rung ({E10_MULTI_RUMORS} rumours staggered {E10_MULTI_STAGGER} \
         rounds apart, churn {E10_MULTI_RATE:.0}+{E10_MULTI_RATE:.0}/round):\n  \
         mean survivor coverage per rumour  {:.4}\n  \
         rumours reaching full coverage     {:.2}\n  \
         combining ratio                    {:.3}\n  \
         rounds                             {:.1}   (wall {wall_ms:.1} ms)\n",
        Summary::from_slice(&survivor_cov).mean,
        Summary::from_slice(&delivered).mean,
        Summary::from_slice(&ratios).mean,
        Summary::from_slice(&rounds_v).mean,
    );
    println!(
        "expected: coverage ≈ 1 at limited churn; graceful decay as churn grows\n\
         (late joiners can miss the pull step); cost stays O(log log n)/node. The\n\
         multi rung shows staggered rumours co-riding the fabric while the\n\
         membership census shifts underneath them."
    );
}

// ---------------------------------------------------------------------------
// E11 — the G □ K5 counterexample
// ---------------------------------------------------------------------------

const E11_ALPHAS: [f64; 4] = [0.35, 0.5, 0.75, 1.0];

fn e11_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 9 } else { 1 << 11 }, 8)
}

fn e11_entry(base_n: usize, d: usize, ai: usize, product: bool) -> LadderEntry {
    let alpha = E11_ALPHAS[ai];
    let product_n = base_n * 5;
    let product_d = d + 4;
    let (name, graph) = if product {
        ("k5prod", GraphSpec::ProductK { base_n, base_d: d, clique: 5 })
    } else {
        ("regular", GraphSpec::RandomRegular { n: product_n, d: product_d })
    };
    LadderEntry::new(
        (ai * 2) as u64 + u64::from(product),
        ScenarioSpec::new(
            format!("{name}_a{alpha}"),
            graph,
            ProtocolSpec::FourChoice {
                n_estimate: product_n,
                degree: product_d,
                alpha,
                choices: 4,
                regime: RegimeSpec::Auto,
            },
        )
        .with_measure(MeasureSpec::Trace),
    )
}

fn e11_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (base_n, d) = e11_params(quick);
    let mut out = Vec::new();
    for ai in 0..E11_ALPHAS.len() {
        out.push(e11_entry(base_n, d, ai, false));
        out.push(e11_entry(base_n, d, ai, true));
    }
    out
}

fn e11_run(cfg: &ExpConfig) {
    let (base_n, d) = e11_params(cfg.quick);
    let product_n = base_n * 5;
    let product_d = d + 4;

    println!(
        "E11: four-choice at threshold α — genuine G(n,{product_d}) vs G(n/5,{d}) □ K5 \
         (both n = {product_n}, {} seeds)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "α", "topology", "success", "coverage", "rounds", "phase-1 growth",
    ]);
    for (ai, &alpha) in E11_ALPHAS.iter().enumerate() {
        for (product, label) in [(false, "G(n, 12)"), (true, "G(n/5, 8) □ K5")] {
            let entry = e11_entry(base_n, d, ai, product);
            let reports = run_reports(11, &entry, cfg);
            let successes = success_rate(&reports);
            let growths: Vec<f64> = reports
                .iter()
                .filter_map(|r| trace::informed_growth_factor(&r.history, product_n / 8))
                .collect();
            table.row(vec![
                format!("{alpha:.2}"),
                label.into(),
                format!("{successes:.2}"),
                format!("{:.4}", mean_of(&reports, |r| r.coverage())),
                format!("{:.1}", mean_rounds_to_coverage(&reports)),
                format!("{:.2}", Summary::from_slice(&growths).mean),
            ]);
        }
    }
    println!("{table}");
    println!(
        "expected: on the genuine random regular graph the informed set grows\n\
         faster in phase 1 (choices rarely collide with clones) and tight schedules\n\
         still succeed; the K5 product needs a visibly larger α / more rounds —\n\
         §5's point that four choices exploit topological randomness, which the\n\
         clique layers destroy."
    );
}

// ---------------------------------------------------------------------------
// E12 — four-choice on G(n,p)
// ---------------------------------------------------------------------------

const E12_C: f64 = 2.0;

fn e12_entry(e: u32) -> LadderEntry {
    let n = 1usize << e;
    let expected_degree = E12_C * (n as f64).log2();
    LadderEntry::new(
        e as u64,
        ScenarioSpec::new(
            format!("gnp_n{n}"),
            GraphSpec::Gnp { n, expected_degree },
            four_choice(n, expected_degree.round() as usize),
        ),
    )
}

fn e12_scenarios(quick: bool) -> Vec<LadderEntry> {
    exponents(quick, 10..=14).into_iter().map(e12_entry).collect()
}

fn e12_run(cfg: &ExpConfig) {
    println!(
        "E12: four-choice on G(n, p) with expected degree {E12_C}·log2 n ({} seeds)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "n", "E[deg]", "coverage", "success", "rounds", "tx/node",
    ]);
    let mut ns = Vec::new();
    let mut txs = Vec::new();
    for &e in &exponents(cfg.quick, 10..=14) {
        let n = 1usize << e;
        let expected_degree = E12_C * (n as f64).log2();
        let entry = e12_entry(e);
        let reports = run_reports(12, &entry, cfg);
        let tx = mean_of(&reports, |r| r.tx_per_node());
        table.row(vec![
            n.to_string(),
            format!("{expected_degree:.0}"),
            format!("{:.4}", mean_of(&reports, |r| r.coverage())),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.1}", mean_rounds_to_coverage(&reports)),
            format!("{tx:.1}"),
        ]);
        ns.push(n as f64);
        txs.push(tx);
    }
    println!("{table}");
    if ns.len() >= 2 {
        let fit = fit_loglog2(&ns, &txs);
        println!(
            "tx/node ≈ {:.2}·loglog2(n) + {:.1} (r² = {:.3}) — [13]'s O(n log log n)\n\
             carries over; isolated G(n,p) vertices are impossible at this density.",
            fit.slope, fit.intercept, fit.r_squared
        );
    }
}

// ---------------------------------------------------------------------------
// E13 — degree-regime split
// ---------------------------------------------------------------------------

fn e13_params(quick: bool) -> (usize, &'static [usize]) {
    if quick {
        (1 << 11, &[4, 8, 16])
    } else {
        (1 << 14, &[4, 6, 8, 12, 16, 24, 32])
    }
}

fn e13_entry(n: usize, di: usize, d: usize, vi: usize) -> LadderEntry {
    let regime = if vi == 0 { RegimeSpec::Small } else { RegimeSpec::Large };
    let name = if vi == 0 { "alg1" } else { "alg2" };
    LadderEntry::new(
        (di * 2 + vi) as u64,
        ScenarioSpec::new(
            format!("{name}_d{d}"),
            GraphSpec::RandomRegular { n, d },
            ProtocolSpec::FourChoice { n_estimate: n, degree: d, alpha: 1.5, choices: 4, regime },
        ),
    )
}

fn e13_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, degrees) = e13_params(quick);
    let mut out = Vec::new();
    for (di, &d) in degrees.iter().enumerate() {
        out.push(e13_entry(n, di, d, 0));
        out.push(e13_entry(n, di, d, 1));
    }
    out
}

fn e13_run(cfg: &ExpConfig) {
    let (n, degrees) = e13_params(cfg.quick);
    let auto = DegreeRegime::default();
    println!(
        "E13: Algorithm 1 vs Algorithm 2 across the degree ladder at n = {n} \
         ({} seeds); auto-threshold δ·loglog2(n) with δ = 3\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "d", "auto picks", "variant", "success", "rounds", "tx/node",
    ]);
    for (di, &d) in degrees.iter().enumerate() {
        let auto_pick = match auto.resolve(n, d) {
            AlgorithmVariant::SmallDegree => "Alg 1",
            AlgorithmVariant::LargeDegree => "Alg 2",
        };
        for (vi, label) in [(0, "Alg 1 (4 phases)"), (1, "Alg 2 (long pull)")] {
            let entry = e13_entry(n, di, d, vi);
            let reports = run_reports(13, &entry, cfg);
            table.row(vec![
                d.to_string(),
                auto_pick.into(),
                label.into(),
                format!("{:.2}", success_rate(&reports)),
                format!("{:.1}", mean_rounds_to_coverage(&reports)),
                format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
            ]);
        }
    }
    println!("{table}");
    println!(
        "expected: both variants succeed across the ladder at these sizes (the\n\
         regimes matter for the *proofs*); Alg 2's long pull phase is cheaper at\n\
         large d (pull tx land mostly on the few uninformed), while Alg 1's single\n\
         pull step + active push is tailored to small degrees."
    );
}

// ---------------------------------------------------------------------------
// E14 — replicated database (bespoke: multi-rumour DB runs)
// ---------------------------------------------------------------------------

fn e14_params(quick: bool) -> (usize, usize, &'static [usize], usize) {
    // (n, d, concurrent-update stream rates, staggered-rung updates)
    if quick {
        (1 << 9, 8, &[4, 16], 8)
    } else {
        (1 << 11, 8, &[1, 4, 16, 64], 32)
    }
}

/// Issue window of the staggered sparse-informed rung: updates spread over
/// `4 * updates` rounds, so most rounds see only a few unsettled rumours —
/// the regime where the informed-index round loop beats the old
/// `O(n · rumours)` re-planning.
fn e14_stagger_window(updates: usize) -> u32 {
    (updates * 4) as u32
}

fn e14_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d, streams, staggered) = e14_params(quick);
    let mut out = Vec::new();
    for (i, &u) in streams.iter().enumerate() {
        for (pi, (name, proto)) in [
            ("four-choice", four_choice(n, d)),
            ("push", budgeted(GossipModeSpec::Push, n, 3.0)),
        ]
        .into_iter()
        .enumerate()
        {
            out.push(LadderEntry::new(
                (i * 2 + pi) as u64,
                ScenarioSpec::new(
                    format!("{name}_u{u}"),
                    GraphSpec::RandomRegular { n, d },
                    proto,
                )
                .with_measure(MeasureSpec::Custom(format!(
                    "replicated DB: {u} concurrent updates over the first 8 rounds"
                ))),
            ));
        }
    }
    // Sparse-informed rung: a staggered update stream exercising the
    // multi-rumour engine's retirement + informed-index round loop.
    out.push(LadderEntry::new(
        (streams.len() * 2) as u64,
        ScenarioSpec::new(
            format!("four-choice_staggered_u{staggered}"),
            GraphSpec::RandomRegular { n, d },
            four_choice(n, d),
        )
        .with_measure(MeasureSpec::Custom(format!(
            "replicated DB, sparse-informed: {staggered} updates staggered over {} rounds",
            e14_stagger_window(staggered)
        ))),
    ));
    out
}

#[allow(clippy::too_many_arguments)]
fn e14_run_engine<P: rrb_engine::Protocol + Clone + Sync>(
    name: &str,
    proto: P,
    updates: usize,
    window: u32,
    n: usize,
    d: usize,
    cfg: &ExpConfig,
    cfg_ix: u64,
) -> Vec<String> {
    let per_seed = replicate(14, cfg_ix, cfg.seeds, |_, rng| {
        let g = gen::random_regular(n, d, rng).expect("generation");
        let mut db = ReplicatedDb::new(proto.clone(), SimConfig::until_quiescent());
        // Time only the update stream + multi-rumour run — per-seed graph
        // generation would otherwise dominate the reported wall clock.
        let start = std::time::Instant::now();
        db.push_random_updates(&g, updates, window, 32, rng);
        let report = db.run(&g, rng);
        let engine_ms = start.elapsed().as_secs_f64() * 1e3;
        (
            if report.converged { 1.0 } else { 0.0 },
            report.mean_latency(),
            report.tx_per_update_per_node(n),
            report.combining_savings(),
            engine_ms,
        )
    });
    // Summed per-seed engine time: equals configuration wall-clock on a
    // 1-core host and stays a faithful engine-cost metric under threading.
    let wall_ms: f64 = per_seed.iter().map(|r| r.4).sum();
    let conv: Vec<f64> = per_seed.iter().map(|r| r.0).collect();
    let lat: Vec<f64> = per_seed.iter().filter_map(|r| r.1).collect();
    let cost: Vec<f64> = per_seed.iter().map(|r| r.2).collect();
    let savings: Vec<f64> = per_seed.iter().map(|r| r.3).collect();
    vec![
        format!("{updates}/{window}"),
        name.into(),
        format!("{:.2}", Summary::from_slice(&conv).mean),
        format!("{:.1}", Summary::from_slice(&lat).mean),
        format!("{:.2}", Summary::from_slice(&cost).mean),
        format!("{:.1}%", Summary::from_slice(&savings).mean * 100.0),
        format!("{wall_ms:.1}"),
    ]
}

fn e14_run(cfg: &ExpConfig) {
    let (n, d, streams, staggered) = e14_params(cfg.quick);
    println!(
        "E14: replicated DB over gossip at n = {n}, d = {d} ({} seeds); updates\n\
         issued over the first 8 rounds, plus a staggered sparse-informed rung\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "updates/window",
        "engine",
        "converged",
        "mean latency",
        "tx/update/node",
        "combining savings",
        "wall ms",
    ]);
    for (i, &u) in streams.iter().enumerate() {
        table.row(e14_run_engine(
            "four-choice",
            rrb_core::FourChoice::for_graph(n, d),
            u,
            8,
            n,
            d,
            cfg,
            i as u64 * 2,
        ));
        table.row(e14_run_engine(
            "push (budget)",
            rrb_baselines::Budgeted::for_size(rrb_baselines::GossipMode::Push, n, 3.0),
            u,
            8,
            n,
            d,
            cfg,
            i as u64 * 2 + 1,
        ));
    }
    table.row(e14_run_engine(
        "four-choice",
        rrb_core::FourChoice::for_graph(n, d),
        staggered,
        e14_stagger_window(staggered),
        n,
        d,
        cfg,
        (streams.len() * 2) as u64,
    ));
    println!("{table}");
    println!(
        "expected: both engines converge; four-choice pays O(log log n) per update\n\
         per node vs push's Θ(log n); combining savings grow with the stream rate\n\
         (more rumours share each channel), vindicating the model's amortisation\n\
         argument (§1). The staggered rung keeps the unsettled-rumour set sparse,\n\
         exercising the informed-index multi-rumour round loop."
    );
}

// ---------------------------------------------------------------------------
// E15 — spectral audit (bespoke: no broadcast at all)
// ---------------------------------------------------------------------------

fn e15_params(quick: bool) -> (usize, &'static [usize]) {
    if quick {
        (1 << 9, &[8, 16])
    } else {
        (1 << 11, &[4, 8, 16, 32])
    }
}

fn e15_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, degrees) = e15_params(quick);
    degrees
        .iter()
        .enumerate()
        .map(|(di, &d)| {
            LadderEntry::new(
                di as u64,
                ScenarioSpec::new(
                    format!("spectral_d{d}"),
                    GraphSpec::RandomRegular { n, d },
                    ProtocolSpec::Silent,
                )
                .with_measure(MeasureSpec::SpectralAudit),
            )
        })
        .collect()
}

fn e15_run(cfg: &ExpConfig) {
    let (n, _) = e15_params(cfg.quick);
    println!("E15: spectral audit of the generator at n = {n} ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec![
        "d",
        "λ (measured)",
        "2·sqrt(d-1)",
        "ratio",
        "max mixing dev",
        "mixing ok",
    ]);
    for entry in e15_scenarios(cfg.quick) {
        let d = entry.spec.graph.target_degree();
        let per_seed = measure::spectral_audit(15, &entry, cfg.seeds);
        let lambdas: Vec<f64> = per_seed.iter().map(|r| r.lambda).collect();
        let max_devs: Vec<f64> = per_seed.iter().map(|r| r.max_deviation).collect();
        let mixing_ok: usize = per_seed.iter().map(|r| r.mixing_ok).sum();
        let mixing_total: usize = per_seed.iter().map(|r| r.mixing_total).sum();
        let ls = Summary::from_slice(&lambdas);
        let ramanujan = 2.0 * ((d - 1) as f64).sqrt();
        table.row(vec![
            d.to_string(),
            format!("{:.3} ± {:.3}", ls.mean, ls.ci95()),
            format!("{ramanujan:.3}"),
            format!("{:.3}", ls.mean / ramanujan),
            format!("{:.3}", Summary::from_slice(&max_devs).max),
            format!("{mixing_ok}/{mixing_total}"),
        ]);
        // No broadcast runs here: rounds and transmissions are 0 by
        // construction; the mixing-audit pass rate stands in for success.
    }
    println!("{table}");
    println!(
        "expected: ratio ≈ 1 (+o(1)) — near-Ramanujan, per Friedman [18]; every\n\
         sampled cut's normalised deviation |E(S,S̄)−d|S||S̄|/n| / √(|S||S̄|) stays\n\
         below the measured λ, as the Expander Mixing Lemma demands."
    );
}

// ---------------------------------------------------------------------------
// E16 — memory push on preferential-attachment graphs
// ---------------------------------------------------------------------------

const E16_M: usize = 4;

fn e16_policies() -> [(&'static str, PolicySpec); 3] {
    [
        ("plain push", PolicySpec::STANDARD),
        ("memory-1", PolicySpec::Memory(1)),
        ("memory-3", PolicySpec::Memory(3)),
    ]
}

fn e16_entry(e: u32, pi: usize) -> LadderEntry {
    let n = 1usize << e;
    let (name, policy) = e16_policies()[pi];
    LadderEntry::new(
        (e as usize * 10 + pi) as u64,
        ScenarioSpec::new(
            format!("{name}_n{n}"),
            GraphSpec::PreferentialAttachment { n, m: E16_M },
            ProtocolSpec::FloodPush { policy },
        )
        .with_stop(StopSpec::Coverage { max_rounds: 10_000 }),
    )
}

fn e16_scenarios(quick: bool) -> Vec<LadderEntry> {
    let mut out = Vec::new();
    for &e in &exponents(quick, 10..=14) {
        for pi in 0..3 {
            out.push(e16_entry(e, pi));
        }
    }
    out
}

fn e16_run(cfg: &ExpConfig) {
    println!(
        "E16: push with choice memory on preferential-attachment graphs (m = {E16_M}, \
         {} seeds)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "n",
        "plain push rounds",
        "memory-1 rounds",
        "memory-3 rounds",
        "log2 n",
    ]);
    for &e in &exponents(cfg.quick, 10..=14) {
        let n = 1usize << e;
        let mut row = vec![n.to_string()];
        for pi in 0..3 {
            let entry = e16_entry(e, pi);
            let reports = run_reports(16, &entry, cfg);
            let ok = success_rate(&reports);
            row.push(format!(
                "{:.1}{}",
                mean_rounds_to_coverage(&reports),
                if ok < 1.0 { " (!)" } else { "" }
            ));
        }
        row.push(format!("{:.1}", (n as f64).log2()));
        table.row(row);
    }
    println!("{table}");
    println!(
        "expected ([8]): the memory variants beat plain push, and their advantage\n\
         grows with n (sub-logarithmic vs Θ(log n) spreading on PA graphs, where\n\
         memoryless push wastes calls bouncing back to the hub it came from)."
    );
}

// ---------------------------------------------------------------------------
// E17 — α ablation
// ---------------------------------------------------------------------------

const E17_ALPHAS: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];

fn e17_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 11 } else { 1 << 13 }, 8)
}

fn e17_entry(n: usize, d: usize, i: usize) -> LadderEntry {
    let alpha = E17_ALPHAS[i];
    LadderEntry::new(
        i as u64,
        ScenarioSpec::new(
            format!("alpha_{alpha}"),
            GraphSpec::RandomRegular { n, d },
            ProtocolSpec::FourChoice {
                n_estimate: n,
                degree: d,
                alpha,
                choices: 4,
                regime: RegimeSpec::Auto,
            },
        ),
    )
}

fn e17_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e17_params(quick);
    (0..E17_ALPHAS.len()).map(|i| e17_entry(n, d, i)).collect()
}

fn e17_run(cfg: &ExpConfig) {
    let (n, d) = e17_params(cfg.quick);
    println!("E17: α ablation of the four-choice schedule at n = {n}, d = {d} ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec![
        "α", "schedule end", "success", "coverage", "rounds", "tx/node",
    ]);
    for (i, &alpha) in E17_ALPHAS.iter().enumerate() {
        let entry = e17_entry(n, d, i);
        let reports = run_reports(17, &entry, cfg);
        table.row(vec![
            format!("{alpha:.2}"),
            deadline_of(&entry.spec).map(|r| r.to_string()).unwrap_or_default(),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.4}", mean_of(&reports, |r| r.coverage())),
            format!("{:.1}", mean_rounds_to_coverage(&reports)),
            format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
        ]);
    }
    println!("{table}");
    println!(
        "expected: a sharp success threshold in α (Phase 1 must inform Θ(n) nodes),\n\
         then a linear cost ramp — the constant the theory hides inside\n\
         'α sufficiently large' is small in practice (≈ 1 at these sizes)."
    );
}

// ---------------------------------------------------------------------------
// E18 — phase-design ablation
// ---------------------------------------------------------------------------

fn e18_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 11 } else { 1 << 13 }, 8)
}

fn e18_variants(n: usize, d: usize) -> Vec<(&'static str, u64, ProtocolSpec)> {
    let ablated = |phase1_always_push, no_pull| ProtocolSpec::Ablated {
        n_estimate: n,
        degree: d,
        alpha: 1.5,
        phase1_always_push,
        no_pull,
    };
    vec![
        (
            "paper (push-once + pull)",
            0,
            ProtocolSpec::FourChoice {
                n_estimate: n,
                degree: d,
                alpha: 1.5,
                choices: 4,
                regime: RegimeSpec::Small,
            },
        ),
        ("ablate 1: phase-1 pushes every round", 1, ablated(true, false)),
        ("ablate 2: no pull phase (push to end)", 2, ablated(false, true)),
        ("ablate both (≈ classic 4-choice push)", 3, ablated(true, true)),
    ]
}

fn e18_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e18_params(quick);
    e18_variants(n, d)
        .into_iter()
        .map(|(name, ix, proto)| {
            LadderEntry::new(
                ix,
                ScenarioSpec::new(name.to_string(), GraphSpec::RandomRegular { n, d }, proto),
            )
        })
        .collect()
}

fn e18_run(cfg: &ExpConfig) {
    let (n, d) = e18_params(cfg.quick);
    println!("E18: phase-design ablation at n = {n}, d = {d} ({} seeds)\n", cfg.seeds);
    let mut table = Table::new(vec!["variant", "success", "rounds", "tx/node"]);
    for entry in e18_scenarios(cfg.quick) {
        let reports = run_reports(18, &entry, cfg);
        table.row(vec![
            entry.spec.label.clone(),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.1}", mean_rounds_to_coverage(&reports)),
            format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
        ]);
    }
    println!("{table}");
    println!(
        "expected: always-push in phase 1 multiplies tx/node by ≈ log n/log log n;\n\
         dropping the pull phase costs extra pushes for the straggler tail; the\n\
         paper's combination is the cheapest full-coverage configuration."
    );
}

// ---------------------------------------------------------------------------
// E19 — adversarial fault plans & graceful degradation
// ---------------------------------------------------------------------------

fn e19_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 10 } else { 1 << 12 }, 8)
}

/// The fault-plan ladder: one rung per fault class, escalating from the
/// i.i.d. baseline to correlated bursts, a scripted partition-and-heal, two
/// targeting adversaries, transient outages, and everything at once.
fn e19_plans(n: usize) -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("baseline", FaultSpec::NONE),
        ("iid_ch10", FaultSpec::from(FailureSpec { channel: 0.1, transmission: 0.0, crash: 0.0 })),
        (
            "burst_mild",
            FaultSpec { burst: Some(GilbertElliott::new(0.05, 0.5, 0.01, 0.5)), ..FaultSpec::NONE },
        ),
        (
            "burst_severe",
            FaultSpec { burst: Some(GilbertElliott::new(0.10, 0.2, 0.02, 0.9)), ..FaultSpec::NONE },
        ),
        (
            "partition_k2",
            FaultSpec {
                schedule: vec![FaultEvent::Partition { from: 5, until: 30, parts: 2 }],
                ..FaultSpec::NONE
            },
        ),
        (
            "adv_hubs",
            FaultSpec {
                adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 2, n / 32)),
                ..FaultSpec::NONE
            },
        ),
        (
            // Give the rumour a 4-round head start so the adversary prunes
            // the informed frontier instead of trivially beheading the
            // origin in round 1.
            "adv_earliest",
            FaultSpec {
                adversary: Some(AdversarySpec {
                    from_round: 5,
                    ..AdversarySpec::new(AdversaryTarget::EarliestInformed, 1, 16)
                }),
                ..FaultSpec::NONE
            },
        ),
        ("outages", FaultSpec { outages: Some(OutageSpec::new(0.02, 2, 6)), ..FaultSpec::NONE }),
        (
            "combined",
            FaultSpec {
                rates: FailureSpec { channel: 0.05, transmission: 0.0, crash: 0.0 },
                burst: Some(GilbertElliott::new(0.05, 0.5, 0.01, 0.5)),
                schedule: vec![
                    FaultEvent::Partition { from: 5, until: 20, parts: 2 },
                    FaultEvent::LossWindow {
                        from: 25,
                        until: 35,
                        channel: None,
                        transmission: Some(0.5),
                    },
                ],
                adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 1, 8)),
                outages: Some(OutageSpec::new(0.01, 2, 4)),
            },
        ),
    ]
}

fn e19_entry(n: usize, d: usize, i: usize) -> LadderEntry {
    let (label, faults) = e19_plans(n).swap_remove(i);
    // The hub-targeting rung runs on a preferential-attachment overlay so
    // "highest degree" actually distinguishes nodes; every other rung stays
    // on the paper's random regular graph.
    let graph = if label == "adv_hubs" {
        GraphSpec::PreferentialAttachment { n, m: d / 2 }
    } else {
        GraphSpec::RandomRegular { n, d }
    };
    LadderEntry::new(
        i as u64,
        // Standard single-choice push&pull flooding: slow enough that each
        // fault class leaves a visible signature (four-choice flooding
        // re-covers a healed partition in one round, hiding the recovery
        // transient the ladder is meant to measure).
        ScenarioSpec::new(
            label,
            graph,
            ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
        )
        .with_failures(faults)
        .with_stop(StopSpec::Coverage { max_rounds: 400 })
        .with_measure(MeasureSpec::Degradation),
    )
}

fn e19_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e19_params(quick);
    (0..e19_plans(n).len()).map(|i| e19_entry(n, d, i)).collect()
}

fn e19_run(cfg: &ExpConfig) {
    let (n, d) = e19_params(cfg.quick);
    println!(
        "E19: graceful degradation under adversarial fault plans at n = {n}, d = {d} \
         ({} seeds)\n",
        cfg.seeds
    );
    let mut table =
        Table::new(vec!["fault plan", "coverage", "success", "rounds", "recovery", "tx/node"]);
    for entry in e19_scenarios(cfg.quick) {
        let reports = run_reports(19, &entry, cfg);
        let recovery = match entry.spec.failures.heal_round() {
            Some(heal) => format!("{:.1}", mean_recovery_rounds(&reports, heal)),
            None => "-".into(),
        };
        table.row(vec![
            entry.spec.label.clone(),
            format!("{:.4}", mean_coverage(&reports)),
            format!("{:.2}", success_rate(&reports)),
            format!("{:.1}", mean_rounds_to_coverage(&reports)),
            recovery,
            format!("{:.1}", mean_of(&reports, |r| r.tx_per_node())),
        ]);
    }
    println!("{table}");
    println!(
        "expected: bursty loss costs rounds, not coverage; the scripted partition\n\
         stalls flooding until the heal and then recovers within a few rounds (the\n\
         recovery column counts rounds from the heal to full coverage); targeted\n\
         crashes and transient outages degrade survivor coverage gracefully."
    );
}

// ---------------------------------------------------------------------------
// E20 — asynchronous-time ladder (clocks, latency, stragglers)
// ---------------------------------------------------------------------------

fn e20_params(quick: bool) -> (usize, usize) {
    (if quick { 1 << 9 } else { 1 << 11 }, 8)
}

/// The async ladder: one rung per timing dimension, anchored by the
/// calibration point (uniform fixed-rate clocks, zero latency — the rung
/// `tests/calibration.rs` proves statistically identical to the round
/// engine) and escalating through Poisson clocks, delivery latency,
/// pull under latency, stragglers, and (full ladder only) a scripted
/// partition consumed time-windowed.
fn e20_rungs(quick: bool) -> Vec<(&'static str, ProtocolSpec, TimingSpec, FaultSpec)> {
    let push = ProtocolSpec::FloodPush { policy: PolicySpec::Distinct(4) };
    let pushpull = ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) };
    let poisson = ClockSpec::Exponential { rate: 1.0 };
    let asynchronous =
        |clock, latency| TimingSpec::Async { clock, latency };
    let mut rungs = vec![
        // The async↔round calibration point: same stochastic process as
        // the synchronous engine for push protocols.
        (
            "fixed_uniform",
            push.clone(),
            asynchronous(ClockSpec::UNIT, LatencySpec::Zero),
            FaultSpec::NONE,
        ),
        ("poisson", push.clone(), asynchronous(poisson, LatencySpec::Zero), FaultSpec::NONE),
        (
            "poisson_latency",
            push.clone(),
            asynchronous(poisson, LatencySpec::Uniform { min: 0.05, max: 0.5 }),
            FaultSpec::NONE,
        ),
        (
            "pushpull_latency",
            pushpull.clone(),
            asynchronous(poisson, LatencySpec::Exponential { mean: 0.2 }),
            FaultSpec::NONE,
        ),
        (
            "stragglers",
            push,
            asynchronous(
                ClockSpec::Stragglers { rate: 1.0, slow_fraction: 0.1, slow_factor: 8.0 },
                LatencySpec::Zero,
            ),
            FaultSpec::NONE,
        ),
    ];
    if !quick {
        // A partition scripted in round keys bites on the time windows
        // round(T) = ceil(T): asynchrony does not dodge scheduled faults.
        rungs.push((
            "faulted_async",
            pushpull,
            asynchronous(poisson, LatencySpec::Uniform { min: 0.05, max: 0.5 }),
            FaultSpec {
                schedule: vec![FaultEvent::Partition { from: 5, until: 20, parts: 2 }],
                ..FaultSpec::NONE
            },
        ));
    }
    rungs
}

fn e20_scenarios(quick: bool) -> Vec<LadderEntry> {
    let (n, d) = e20_params(quick);
    e20_rungs(quick)
        .into_iter()
        .enumerate()
        .map(|(i, (label, proto, timing, faults))| {
            LadderEntry::new(
                i as u64,
                ScenarioSpec::new(label, GraphSpec::RandomRegular { n, d }, proto)
                    .with_timing(timing)
                    .with_failures(faults)
                    .with_stop(StopSpec::Coverage { max_rounds: 200 }),
            )
        })
        .collect()
}

fn e20_run(cfg: &ExpConfig) {
    let (n, d) = e20_params(cfg.quick);
    println!(
        "E20: asynchronous event-queue ladder at n = {n}, d = {d} ({} seeds)\n",
        cfg.seeds
    );
    let mut table = Table::new(vec![
        "rung",
        "timing",
        "T cover",
        "rounds",
        "success",
        "events/node",
        "tx/node",
    ]);
    for entry in e20_scenarios(cfg.quick) {
        let runs = run_entry(20, &entry, cfg).expect("registry ladder").outcomes;
        let clocks: Vec<EventClock> = runs.iter().filter_map(|r| r.clock).collect();
        let plain: Vec<_> = runs.into_iter().map(|r| r.report).collect();
        let mean_cover_time = mean_cover_time(&clocks);
        let mean_events =
            clocks.iter().map(|c| c.events as f64).sum::<f64>() / clocks.len().max(1) as f64;
        table.row(vec![
            entry.spec.label.clone(),
            entry.spec.timing.summary(),
            format!("{mean_cover_time:.2}"),
            format!("{:.1}", mean_rounds_to_coverage(&plain)),
            format!("{:.2}", success_rate(&plain)),
            format!("{:.1}", mean_events / n as f64),
            format!("{:.1}", mean_of(&plain, |r| r.tx_per_node())),
        ]);
    }
    println!("{table}");
    println!(
        "expected: the fixed_uniform rung reproduces the round engine's coverage\n\
         statistics (the calibration contract); Poisson clocks pay a small constant\n\
         factor in time, latency shifts coverage by roughly the mean in-flight delay\n\
         per hop, and a 10% straggler pool slowed 8x stretches the tail without\n\
         changing the O(log n) shape."
    );
}

// ---------------------------------------------------------------------------
// E21 — sharded scale ladder (single-run parallelism at n = 10^6)
// ---------------------------------------------------------------------------

fn e21_exponents(quick: bool) -> Vec<u32> {
    // Full mode tops out at n = 2^20 > 10^6 — the ROADMAP scale target;
    // quick keeps CI smokes in the seconds range.
    if quick {
        vec![12, 13]
    } else {
        vec![18, 19, 20]
    }
}

fn e21_entry(e: u32) -> LadderEntry {
    let n = 1usize << e;
    LadderEntry::new(
        e as u64,
        ScenarioSpec::new(
            format!("scale_n{n}"),
            GraphSpec::RandomRegular { n, d: 8 },
            ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
        )
        .with_stop(StopSpec::COVERAGE),
    )
}

fn e21_scenarios(quick: bool) -> Vec<LadderEntry> {
    e21_exponents(quick).into_iter().map(e21_entry).collect()
}

fn e21_run(cfg: &ExpConfig) {
    // `--shards N` picks the shard count; otherwise default to 2 under
    // --quick (CI smokes run on 2 cores) and 4 in full mode.
    let shards = if cfg.shards > 1 {
        cfg.shards
    } else if cfg.quick {
        2
    } else {
        4
    };
    // Scale rungs are single-seed: at n = 10^6 the engine is the
    // experiment, not the protocol's sampling noise.
    let sharded_cfg = ExpConfig { seeds: 1, shards, ..*cfg };
    let serial_cfg = ExpConfig { seeds: 1, shards: 1, ..*cfg };
    println!(
        "E21: sharded scale ladder — full-coverage push&pull (4 distinct choices) on \
         random 8-regular graphs,\nsingle seed, serial vs {shards} shards\n"
    );
    let mut table =
        Table::new(vec!["n", "rounds", "serial ms", "sharded ms", "speedup", "peak RSS"]);
    let mut phase_lines = Vec::new();
    for entry in e21_scenarios(cfg.quick) {
        let n = entry.spec.graph.node_count();
        let serial = run_entry(21, &entry, &serial_cfg).expect("registry ladder");
        let sharded = run_entry(21, &entry, &sharded_cfg).expect("registry ladder");
        let (serial_ms, wall_ms) = (serial.wall_ms, sharded.wall_ms);
        let reports = sharded.reports();
        assert_eq!(
            serial.reports(),
            reports,
            "E21 {} diverged at {shards} shards — sharding must be invisible to results",
            entry.spec.label
        );
        table.row(vec![
            n.to_string(),
            format!("{:.0}", mean_rounds_to_coverage(&reports)),
            format!("{serial_ms:.1}"),
            format!("{wall_ms:.1}"),
            format!("{:.2}x", serial_ms / wall_ms.max(1e-9)),
            sharded
                .peak_rss_kib
                .map(|k| format!("{:.0} MiB", k as f64 / 1024.0))
                .unwrap_or_default(),
        ]);
        let phase_line = |prefix: String, row: &[f64; StepPhase::COUNT]| {
            let cells: Vec<String> = StepPhase::ALL
                .iter()
                .map(|p| format!("{} {:.1} ms", p.label(), row[p.index()]))
                .collect();
            format!("{prefix}{}", cells.join(", "))
        };
        phase_lines.push(phase_line(format!("n = {n}: "), &sharded.seed0.phase_ms()));
        for (sx, row) in sharded.seed0.shard_phase_ms().iter().enumerate() {
            phase_lines.push(phase_line(format!("  shard {sx}: "), row));
        }
    }
    println!("{table}");
    if !phase_lines.is_empty() {
        println!("\nper-phase wall clock of seed 0 of the measured run ({shards} shards):");
        for line in &phase_lines {
            println!("{line}");
        }
    }
    println!(
        "\nexpected: identical rounds/coverage at any shard count (asserted above); the\n\
         sharded Fabric (on its loss-free fast path), Plan, Exchange and Update phases\n\
         give wall-clock speedup on multi-core hosts, and peak RSS stays within the\n\
         committed CI budget (sparse state keeps footprint linear in n, not in\n\
         rumours x n)."
    );
}

// ---------------------------------------------------------------------------
// The registry table
// ---------------------------------------------------------------------------

pub(crate) static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "e1",
        id: 1,
        title: "four-choice runtime vs n (Thms 2-3: O(log n) rounds)",
        description: "Sweeps n = 2^10..2^15, d in {8,16,32}; fits rounds = a*log2(n)+b, \
                      re-runs the largest d = 8 rung over 2 and 4 shards (statistics must \
                      match) and, outside --quick, a single-seed n = 2^20 memory smoke.",
        scenarios: e1_scenarios,
        run: e1_run,
    },
    Experiment {
        name: "e2",
        id: 2,
        title: "transmissions per node vs n (O(n log log n) vs Theta(n log n))",
        description: "Four-choice vs budgeted push / push&pull / median-counter on random \
                      8-regular graphs; log2 and loglog2 fits identify each growth law.",
        scenarios: e2_scenarios,
        run: e2_run,
    },
    Experiment {
        name: "e3",
        id: 3,
        title: "Theorem 1 lower-bound audit (tx normalised by n*log n/log d)",
        description: "Strictly oblivious one-choice protocols stay bounded away from 0 in \
                      tx/N; the four-choice algorithm (different model) sinks below.",
        scenarios: e3_scenarios,
        run: e3_run,
    },
    Experiment {
        name: "e4",
        id: 4,
        title: "phase anatomy (Cor. 1, Lemmas 1-3 milestones at finite n)",
        description: "Per-round history traces measure phase-1 growth, phase-2 contraction \
                      and the coverage round against the schedule's milestones.",
        scenarios: e4_scenarios,
        run: e4_run,
    },
    Experiment {
        name: "e5",
        id: 5,
        title: "push/pull crossover on complete graphs (Karp et al., SS1)",
        description: "Traces informed counts for pure push and pure pull; push wins the \
                      0 -> n/2 head, pull collapses the n/2 -> n tail in O(log log n).",
        scenarios: e5_scenarios,
        run: e5_run,
    },
    Experiment {
        name: "e6",
        id: 6,
        title: "are four choices necessary? (SS5: k in {1,2,3,4} ablation)",
        description: "Runs the paper's schedule with k distinct choices per round; k=4 is \
                      proven, k=3 conjectured, k=2 open, k=1 is the standard model.",
        scenarios: e6_scenarios,
        run: e6_run,
    },
    Experiment {
        name: "e7",
        id: 7,
        title: "sequentialised model emulates four-choice (footnote 2)",
        description: "Memory-3 single-choice steps vs parallel four-choice: expect a 4x \
                      round stretch at transmission parity.",
        scenarios: e7_scenarios,
        run: e7_run,
    },
    Experiment {
        name: "e8",
        id: 8,
        title: "robustness to communication failures (abstract / SS1)",
        description: "Channel and transmission failure sweeps at alpha = 1.5 and 2.5; \
                      limited failure rates degrade cost gracefully, larger alpha restores \
                      coverage.",
        scenarios: e8_scenarios,
        run: e8_run,
    },
    Experiment {
        name: "e9",
        id: 9,
        title: "rough size estimates suffice (SS1.2)",
        description: "Schedules computed from n-hat = factor*n for factor in [1/4, 4] keep \
                      full coverage across the whole band.",
        scenarios: e9_scenarios,
        run: e9_run,
    },
    Experiment {
        name: "e10",
        id: 10,
        title: "robustness to membership churn (abstract)",
        description: "Peers join/leave during the broadcast on a near-regular overlay with \
                      flip rewiring (DynamicsSpec::Churn scenario data feeding the engines' \
                      alive census); survivor coverage decays gracefully with churn rate, \
                      plus a multi-rumour-under-churn rung on the shared fabric.",
        scenarios: e10_scenarios,
        run: e10_run,
    },
    Experiment {
        name: "e11",
        id: 11,
        title: "the G x K5 counterexample (SS5)",
        description: "At threshold alpha the genuine random regular graph completes while \
                      the K5 product's clique layers destroy choice diversity.",
        scenarios: e11_scenarios,
        run: e11_run,
    },
    Experiment {
        name: "e12",
        id: 12,
        title: "four-choice on G(n,p) (SS1.1, Elsaesser-Sauerwald [13])",
        description: "Erdos-Renyi graphs with expected degree 2*log2 n: the O(n log log n) \
                      transmission bound carries over.",
        scenarios: e12_scenarios,
        run: e12_run,
    },
    Experiment {
        name: "e13",
        id: 13,
        title: "degree-regime split: Algorithm 1 vs Algorithm 2 (SS4.3)",
        description: "Both variants across a degree ladder spanning the delta*loglog n \
                      boundary, plus what the auto-selector picks.",
        scenarios: e13_scenarios,
        run: e13_run,
    },
    Experiment {
        name: "e14",
        id: 14,
        title: "replicated-database maintenance (SS1, after Demers et al.)",
        description: "Concurrent update streams propagate by gossip; rumours combine on \
                      shared channels, amortising connection cost.",
        scenarios: e14_scenarios,
        run: e14_run,
    },
    Experiment {
        name: "e15",
        id: 15,
        title: "spectral premises of the lower bound (SS2: Friedman, mixing lemma)",
        description: "Measures the second eigenvalue of sampled graphs and audits the \
                      expander mixing lemma on random cuts.",
        scenarios: e15_scenarios,
        run: e15_run,
    },
    Experiment {
        name: "e16",
        id: 16,
        title: "push with choice memory on PA graphs (SS1.1 [8])",
        description: "Plain vs memory-1 vs memory-3 push on preferential-attachment \
                      graphs; avoidance memory beats memoryless push.",
        scenarios: e16_scenarios,
        run: e16_run,
    },
    Experiment {
        name: "e17",
        id: 17,
        title: "alpha ablation: the schedule constant's practical threshold",
        description: "Sweeps alpha in [0.25, 3]; locates the success threshold and the \
                      linear cost ramp above it.",
        scenarios: e17_scenarios,
        run: e17_run,
    },
    Experiment {
        name: "e18",
        id: 18,
        title: "phase-design ablation: why push-once + pull wins",
        description: "Always-push phase 1 and no-pull variants against the paper's \
                      Algorithm 1; the combination is the cheapest full-coverage design.",
        scenarios: e18_scenarios,
        run: e18_run,
    },
    Experiment {
        name: "e19",
        id: 19,
        title: "adversarial fault plans: bursts, partitions, targeted crashes",
        description: "A robustness ladder over FaultPlan classes — Gilbert-Elliott bursty \
                      loss, a scripted partition that heals, budget-limited targeting \
                      adversaries, transient outages, and a combined worst case — with \
                      graceful-degradation metrics (residual coverage, recovery rounds \
                      after the heal).",
        scenarios: e19_scenarios,
        run: e19_run,
    },
    Experiment {
        name: "e20",
        id: 20,
        title: "asynchronous time: per-node clocks, latency, stragglers",
        description: "The event-queue engine's calibration ladder — uniform fixed-rate \
                      zero-latency clocks reproduce the round model (the calibration \
                      contract), then Poisson clocks, delivery latency, pull under \
                      latency, an 8x-slowed straggler pool, and a scripted partition \
                      consumed time-windowed chart what round-synchrony hides.",
        scenarios: e20_scenarios,
        run: e20_run,
    },
    Experiment {
        name: "e21",
        id: 21,
        title: "sharded scale ladder: single-run parallelism at n = 10^6",
        description: "Full-coverage push&pull on random 8-regular graphs up to n = 2^20, \
                      single seed, run serial and with the round loop sharded over worker \
                      threads; asserts bit-identical results, reports per-phase/per-shard \
                      wall clock, speedup, and peak RSS against the CI memory budget.",
        scenarios: e21_scenarios,
        run: e21_run,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hand_wired;
    use rrb_engine::protocols::FloodPush;
    use rrb_engine::Simulation;
    use rrb_graph::NodeId;

    /// Satellite cross-check: the scenario-driven E5 path reproduces the
    /// legacy binary's hand-wired plumbing seed for seed.
    #[test]
    fn e5_quick_matches_legacy_hand_wired_numbers() {
        let n = 1 << 10; // the --quick ladder size
        let seeds = 3; // the --quick seed count
        let entry = e5_entry(0, n, false);
        let trace = measure::crossover_trace(5, &entry, seeds);
        let (half, tail) = (trace.half, trace.tail);

        // The pre-registry E5 plumbing, hand-wired exactly as the old
        // binary did it (concrete FloodPush, gen::complete,
        // origin 0, SimConfig::default().with_history()).
        let per_seed = replicate(5, 0, seeds, |_, rng| {
            let g = gen::complete(n);
            let report =
                Simulation::new(&g, FloodPush::new(), SimConfig::default().with_history())
                    .run(NodeId::new(0), rng);
            let half_round = report
                .history
                .iter()
                .find(|r| r.informed >= n / 2)
                .map(|r| r.round)
                .unwrap_or(report.rounds);
            let full_round = report.full_coverage_at.unwrap_or(report.rounds);
            (half_round as f64, (full_round - half_round) as f64)
        });
        let (legacy_half, legacy_tail): (Vec<f64>, Vec<f64>) = per_seed.into_iter().unzip();
        assert_eq!(half, legacy_half);
        assert_eq!(tail, legacy_tail);
    }

    /// Satellite cross-check with a failure model: the E8 registry entry
    /// compiles to exactly the legacy protocol + failure configuration.
    #[test]
    fn e8_quick_matches_legacy_hand_wired_numbers() {
        let (n, d) = e8_params(true);
        let seeds = 2;
        let cfg = ExpConfig { quick: true, seeds, threads: None, shards: 1 };
        // Block 0 (channel failures, alpha = 1.5), rate index 2 (p = 0.1).
        let entry = e8_entry(n, d, 0, 2);
        let via_spec = run_reports(8, &entry, &cfg);

        let alg = rrb_core::FourChoice::builder(n, d).alpha(1.5).build();
        let topo = hand_wired::topology(8, entry.config_ix, |rng| {
            gen::random_regular(n, d, rng).expect("generation")
        });
        let via_hand = hand_wired::plain(
            8,
            entry.config_ix,
            seeds,
            &topo,
            &alg,
            SimConfig::until_quiescent()
                .with_failures(rrb_engine::FailureModel::channels(0.1)),
        );
        assert_eq!(via_spec, via_hand);
    }

    /// Satellite cross-check: an E1 ladder rung (push&pull protocol — the
    /// four-choice algorithm pulls in phase 3) is unchanged by both the
    /// registry layer and the capability-gated sampling skip.
    #[test]
    fn e1_quick_rung_matches_legacy_hand_wired_numbers() {
        let seeds = 2;
        let cfg = ExpConfig { quick: true, seeds, threads: None, shards: 1 };
        let entry = e1_entry(0, 8, 10); // d = 8, n = 2^10
        let via_spec = run_reports(1, &entry, &cfg);
        let n = 1 << 10;
        let hand = |config_ix| {
            let topo = hand_wired::topology(1, config_ix, |rng| {
                gen::random_regular(n, 8, rng).expect("generation")
            });
            let alg = rrb_core::FourChoice::for_graph(n, 8);
            hand_wired::plain(1, config_ix, seeds, &topo, &alg, SimConfig::until_quiescent())
        };
        // e1_entry(0, 8, 10) has config_ix di * 100 + e = 10.
        assert_eq!(entry.config_ix, 10);
        assert_ne!(via_spec, hand(2), "different config_ix must give different streams");
        assert_eq!(via_spec, hand(10));
    }
}
