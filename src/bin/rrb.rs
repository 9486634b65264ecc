//! `rrb` — command-line driver for the broadcast simulator and the
//! experiment registry.
//!
//! # Registry subcommands
//!
//! The paper's E1–E21 experiments are registered as declarative scenario
//! ladders (`rrb_bench::registry`); one binary drives them all:
//!
//! ```text
//! rrb list                          # every registered experiment
//! rrb describe e5                   # an experiment's ladder as spec JSON
//! rrb run e5 --quick                # run E5 on its small ladder
//! rrb run e1 --seeds 10 --threads 4
//! rrb run e1 --quick --out runs/    # structured run artifacts (JSONL per rung)
//! rrb compare base/ candidate/      # diff two artifact dirs; exit 1 on drift
//! rrb run --spec scenario.json      # one hand-written ScenarioSpec, or an
//!                                   # array of them (a whole ladder)
//! rrb run --spec s.json --out runs/ # its report, plus runs/s.jsonl
//! ```
//!
//! `list` and `describe` also take `--json` for machine-readable output.
//!
//! # Ad-hoc mode
//!
//! Without a subcommand, the flags compile to one `ScenarioSpec` (topology,
//! protocol, the three failure rates, `--trace`) that runs exactly as that
//! spec would through `rrb run --spec`: the topology is built once and
//! shared by every seed, and seed `s` runs on stream `rng_for(0, 0, s)`.
//!
//! ```text
//! rrb --topology regular --n 8192 --d 8 --protocol four-choice
//! rrb --topology gnp --n 4096 --d 24 --protocol median-counter --seeds 5
//! rrb --topology complete --n 1024 --protocol push --budget 3.0 --trace
//! rrb --topology pa --n 4096 --d 4 --protocol quasirandom
//! rrb --topology regular --n 8192 --d 8 --protocol four-choice \
//!     --channel-failures 0.2 --alpha 2.5
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use rrb::prelude::*;
use rrb_bench::compare::{self, Tolerance};
use rrb_bench::registry::{self, LadderEntry};
use rrb_bench::scenario::{
    DynamicsSpec, FailureSpec, GossipModeSpec, GraphSpec, MeasureSpec, PolicySpec, ProtocolSpec,
    RegimeSpec, ScenarioSpec,
};
use rrb_bench::{
    artifact, json_string, mean_cover_time, mean_of, mean_rounds_to_coverage, success_rate,
    EventClock, ExpConfig,
};

/// Parses the value following flag `name`.
fn take<T: FromStr>(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = it.next().ok_or_else(|| format!("missing value for {name}"))?;
    raw.parse().map_err(|e| format!("{name}: {e}"))
}

/// Compiles the ad-hoc flags to the one scenario they describe and the
/// run flags (`--seeds`) it runs under. Parameter ranges are left to
/// [`ScenarioSpec::check_runnable`], which guards every entry point.
fn parse_flags(args: &[String]) -> Result<(ScenarioSpec, RunFlags), String> {
    let (mut topology, mut protocol) = ("regular".to_string(), "four-choice".to_string());
    let (mut n, mut d, mut choices, mut seeds) = (1usize << 12, 8usize, 4usize, 1u64);
    let (mut alpha, mut budget) = (1.5, 3.0);
    let mut rates = FailureSpec::NONE;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        match name {
            "--topology" => topology = take(&mut it, name)?,
            "--protocol" => protocol = take(&mut it, name)?,
            "--n" => n = take(&mut it, name)?,
            "--d" => d = take(&mut it, name)?,
            "--alpha" => alpha = take(&mut it, name)?,
            "--budget" => budget = take(&mut it, name)?,
            "--seeds" => seeds = take(&mut it, name)?,
            "--choices" => choices = take(&mut it, name)?,
            "--channel-failures" => rates.channel = take(&mut it, name)?,
            "--transmission-failures" => rates.transmission = take(&mut it, name)?,
            "--crashes" => rates.crash = take(&mut it, name)?,
            "--trace" => trace = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n\n{}", usage())),
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let graph = match topology.as_str() {
        "regular" => GraphSpec::RandomRegular { n, d },
        "config" => GraphSpec::ConfigurationModel { n, d },
        "gnp" => GraphSpec::Gnp { n, expected_degree: d as f64 },
        "complete" => GraphSpec::Complete { n },
        "hypercube" => GraphSpec::Hypercube { dim: (n as f64).log2().round() as u32 },
        "torus" => {
            let side = (n as f64).sqrt().round() as usize;
            GraphSpec::Torus { rows: side, cols: side }
        }
        "pa" => GraphSpec::PreferentialAttachment { n, m: d },
        other => return Err(format!("unknown topology {other}\n\n{}", usage())),
    };
    let budgeted = |mode| ProtocolSpec::Budgeted { mode, n, budget, policy: PolicySpec::STANDARD };
    let protocol = match protocol.as_str() {
        "four-choice" => ProtocolSpec::FourChoice {
            n_estimate: n,
            degree: d,
            alpha,
            choices,
            regime: RegimeSpec::Auto,
        },
        "sequential" => ProtocolSpec::SequentialFourChoice { n_estimate: n, degree: d },
        "push" => budgeted(GossipModeSpec::Push),
        "pull" => budgeted(GossipModeSpec::Pull),
        "push-pull" => budgeted(GossipModeSpec::PushPull),
        "push-then-pull" => ProtocolSpec::PushThenPull { n },
        "median-counter" => {
            ProtocolSpec::MedianCounter { n, ctr_max: None, c_rounds: None, age_cutoff: None }
        }
        "quasirandom" => ProtocolSpec::Quasirandom { max_age: None },
        other => return Err(format!("unknown protocol {other}\n\n{}", usage())),
    };
    let measure = if trace { MeasureSpec::Trace } else { MeasureSpec::Standard };
    let spec = ScenarioSpec::new("ad-hoc", graph, protocol)
        .with_failures(rates)
        .with_measure(measure);
    Ok((spec, RunFlags { seeds: Some(seeds), ..RunFlags::default() }))
}

fn usage() -> String {
    "usage: rrb <list | describe <exp> | run <exp> [flags] | run --spec FILE | compare A B>\n\
     or rrb [options]\n\
     \n\
     registry subcommands:\n\
     list [--json]            registered experiments (e1..e21)\n\
     describe <exp> [--quick] [--json]\n\
     \u{20}                        an experiment's scenario specs as JSON\n\
     run <exp>                run an experiment; flags: --quick --seeds N --threads N\n\
     \u{20}                        --shards N (split each run's node slots over N shards, 1..=256;\n\
     \u{20}                        results are seed-for-seed identical at any shard/thread count)\n\
     \u{20}                        --out DIR (write one run-artifact JSONL record per rung instead\n\
     \u{20}                        of the human-readable report)\n\
     run --spec FILE          run a ScenarioSpec JSON file (one object, or an array = a ladder);\n\
     \u{20}                        same flags; --out DIR also writes DIR/<file stem>.jsonl\n\
     compare BASE CAND        diff two artifact directories written by `run --out`;\n\
     \u{20}                        flags: --wall-tol F (default 0.5) --stat-tol F (default 0)\n\
     \u{20}                        --rss-budget-kib N (fail any candidate whose peak RSS\n\
     \u{20}                        exceeds N KiB); exits 1 when anything drifts outside the bands\n\
     \n\
     ad-hoc mode options (compiled to one ScenarioSpec, run like `run --spec`):\n\
     --topology   regular | config | gnp | complete | hypercube | torus | pa  (default regular)\n\
     --protocol   four-choice | sequential | push | pull | push-pull | push-then-pull |\n\
                  median-counter | quasirandom                                (default four-choice)\n\
     --n N        number of nodes (default 4096; rounded for hypercube/torus)\n\
     --d D        degree / expected degree / PA attachment (default 8)\n\
     --alpha A    four-choice schedule constant (default 1.5)\n\
     --budget C   age budget multiplier c (push/pull/push-pull run c·log2 n) (default 3.0)\n\
     --choices K  distinct choices per round for four-choice (default 4)\n\
     --seeds S    independent runs, all on one shared topology (default 1)\n\
     --channel-failures P / --transmission-failures P / --crashes P\n\
     --trace      print the per-round trace of seed 0"
        .into()
}

/// Largest accepted `--shards`: the round loop keeps a shards × shards
/// table of push outboxes, 65 536 empty vectors (≈ 1.5 MiB) at this cap.
const MAX_SHARDS: usize = 256;

/// Flags shared by `rrb run`.
#[derive(Debug, Clone, Default, PartialEq)]
struct RunFlags {
    name: Option<String>,
    spec_path: Option<String>,
    quick: bool,
    seeds: Option<u64>,
    threads: Option<usize>,
    shards: Option<usize>,
    out_dir: Option<String>,
}

fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut f = RunFlags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        match name {
            "--quick" => f.quick = true,
            "--seeds" => f.seeds = Some(take(&mut it, name)?),
            "--threads" => f.threads = Some(take(&mut it, name)?),
            "--shards" => {
                let shards: usize = take(&mut it, name)?;
                // Each round clears a shards × shards outbox table.
                if !(1..=MAX_SHARDS).contains(&shards) {
                    return Err(format!("--shards must be in 1..={MAX_SHARDS}, got {shards}"));
                }
                f.shards = Some(shards)
            }
            "--out" => f.out_dir = Some(take(&mut it, name)?),
            "--spec" => f.spec_path = Some(take(&mut it, name)?),
            other if !other.starts_with('-') && f.name.is_none() => {
                f.name = Some(other.to_string())
            }
            other => return Err(format!("unknown argument {other} for rrb run")),
        }
    }
    if f.seeds == Some(0) {
        return Err("--seeds must be at least 1".into());
    }
    if f.name.is_none() && f.spec_path.is_none() {
        return Err("rrb run needs an experiment name or --spec FILE".into());
    }
    if f.name.is_some() && f.spec_path.is_some() {
        return Err("rrb run takes either an experiment name or --spec FILE, not both".into());
    }
    Ok(f)
}

fn exp_config_from(flags: &RunFlags) -> ExpConfig {
    ExpConfig::with_flags(flags.quick, flags.seeds, flags.threads, flags.shards)
}

fn cmd_list(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--json") {
        let entries: Vec<String> = registry::all()
            .iter()
            .map(|exp| {
                format!(
                    "{{\"name\": {}, \"title\": {}, \"quick_configs\": {}, \"full_configs\": {}}}",
                    json_string(exp.name),
                    json_string(exp.title),
                    (exp.scenarios)(true).len(),
                    (exp.scenarios)(false).len()
                )
            })
            .collect();
        println!("[{}]", entries.join(", "));
        return ExitCode::SUCCESS;
    }
    let mut table = Table::new(vec!["name", "configs (quick/full)", "title"]);
    for exp in registry::all() {
        table.row(vec![
            exp.name.into(),
            format!("{}/{}", (exp.scenarios)(true).len(), (exp.scenarios)(false).len()),
            exp.title.into(),
        ]);
    }
    println!("{} registered experiments:\n\n{table}", registry::all().len());
    println!("run one with `rrb run <name> [--quick --seeds N --threads N --shards N --out DIR]`,");
    println!("inspect its scenario specs with `rrb describe <name>`,");
    println!("or run a hand-written spec with `rrb run --spec file.json`.");
    ExitCode::SUCCESS
}

fn cmd_describe(args: &[String]) -> ExitCode {
    let Some(name) = args.iter().find(|a| !a.starts_with('-')) else {
        eprintln!("usage: rrb describe <experiment> [--quick] [--json]");
        return ExitCode::FAILURE;
    };
    let Some(exp) = registry::find(name) else {
        eprintln!("unknown experiment {name:?}; see `rrb list`");
        return ExitCode::FAILURE;
    };
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--json") {
        let entries: Vec<String> = (exp.scenarios)(quick)
            .iter()
            .map(|entry| {
                format!(
                    "{{\"config_ix\": {}, \"timing\": {}, \"spec\": {}}}",
                    entry.config_ix,
                    json_string(&entry.spec.timing.summary()),
                    entry.spec.to_json()
                )
            })
            .collect();
        println!(
            "{{\"name\": {}, \"title\": {}, \"configs\": [{}]}}",
            json_string(exp.name),
            json_string(exp.title),
            entries.join(", ")
        );
        return ExitCode::SUCCESS;
    }
    println!("{} — {}\n{}\n", exp.name, exp.title, exp.description);
    for entry in (exp.scenarios)(quick) {
        let dynamics = match entry.spec.dynamics {
            DynamicsSpec::Static => "static".to_string(),
            DynamicsSpec::Churn(c) => {
                format!("churn(+{}/-{} per round)", c.joins_per_round, c.leaves_per_round)
            }
        };
        println!(
            "# config_ix {} — faults: {}; dynamics: {dynamics}; timing: {}\n{}",
            entry.config_ix,
            entry.spec.failures.summary(),
            entry.spec.timing.summary(),
            entry.spec.to_json()
        );
    }
    ExitCode::SUCCESS
}

/// Reads a `--spec file.json`: a single `ScenarioSpec` object or a JSON
/// **array** of them (a whole hand-written ladder).
fn read_spec_file(path: &str) -> Result<Vec<ScenarioSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ScenarioSpec::list_from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Runs `specs` (read from `source`: a spec file, or the ad-hoc flags)
/// through the shared replication harness and prints the standard metrics
/// (plus churn stats and survivor coverage for dynamic-membership specs).
/// With `--out DIR`, also writes one run-artifact record per spec to
/// `DIR/<source file stem>.jsonl`, the stem standing in for the
/// experiment name.
fn run_specs(source: &str, specs: &[ScenarioSpec], flags: &RunFlags) -> ExitCode {
    let cfg = exp_config_from(flags);
    let stem = std::path::Path::new(source).file_stem().and_then(|s| s.to_str()).unwrap_or(source);
    let mut records = Vec::new();
    for (ix, spec) in specs.iter().enumerate() {
        // Each array element gets its own config_ix, hence its own RNG
        // stream — reordering a ladder file never changes a rung's numbers
        // beyond its position-derived stream.
        let entry = LadderEntry::new(ix as u64, spec.clone());
        let run = match registry::run_entry(0, &entry, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot run {source} scenario {:?}: {e}", spec.label);
                return ExitCode::FAILURE;
            }
        };
        if flags.out_dir.is_some() {
            records.push(artifact::record(stem, &entry, &cfg, &run));
        }
        let (runs, wall_ms) = (run.outcomes, run.wall_ms);
        let churn_stats = (!spec.dynamics.is_static()).then(|| {
            let joins: Vec<f64> = runs.iter().map(|r| r.churn.joins as f64).collect();
            let leaves: Vec<f64> = runs.iter().map(|r| r.churn.leaves as f64).collect();
            (Summary::from_slice(&joins).mean, Summary::from_slice(&leaves).mean)
        });
        let clocks: Vec<EventClock> = runs.iter().filter_map(|r| r.clock).collect();
        let cover_time = (!clocks.is_empty()).then(|| mean_cover_time(&clocks));
        let reports: Vec<RunReport> = runs.into_iter().map(|r| r.report).collect();
        if matches!(spec.measure, MeasureSpec::Trace | MeasureSpec::Crossover) {
            if let Some(first) = reports.first() {
                // `jumped` = `words` marks a round counted instead of
                // sampled: silent with push = pull = 0, saturated with
                // `booked` = channels and tx = channels per direction used.
                // A frontier round books some channels and samples the rest.
                // `listed` counts the callers whose channels were sampled
                // and stored: a push round's pushers, a frontier round's
                // open frontier callers.
                let mut t = Table::new(vec![
                    "round", "informed", "new", "push", "pull", "channels", "words", "jumped",
                    "booked", "listed",
                ]);
                for rec in &first.history {
                    t.row_display(vec![
                        rec.round as u64,
                        rec.informed as u64,
                        rec.newly_informed as u64,
                        rec.push_tx,
                        rec.pull_tx,
                        rec.channels,
                        rec.fabric_words,
                        rec.jumped_words,
                        rec.booked_channels,
                        rec.listed_callers,
                    ]);
                }
                println!("per-round trace of seed 0:\n{t}");
            }
        }
        println!(
            "{} — {} on {}, {} seed(s):",
            spec.label,
            spec.protocol.label(),
            spec.graph.label(),
            cfg.seeds
        );
        if let Some((joins, leaves)) = churn_stats {
            println!("  survivor coverage {:.4}", mean_of(&reports, |r| r.coverage()));
            println!("  success rate      {:.2}", success_rate(&reports));
            println!("  rounds            {:.1}", mean_rounds_to_coverage(&reports));
            println!("  tx per node       {:.2}", mean_of(&reports, |r| r.tx_per_node()));
            println!("  churn joins       {joins:.1}");
            println!("  churn leaves      {leaves:.1}");
            println!(
                "  survivors         {:.1}",
                mean_of(&reports, |r| r.alive_count as f64)
            );
        } else {
            println!("  coverage        {:.4}", mean_of(&reports, |r| r.coverage()));
            println!("  success rate    {:.2}", success_rate(&reports));
            println!("  rounds          {:.1}", mean_rounds_to_coverage(&reports));
            println!("  tx per node     {:.2}", mean_of(&reports, |r| r.tx_per_node()));
            if let Some(t) = cover_time {
                println!("  time to cover   {t:.2} ({})", spec.timing.summary());
            }
        }
        println!("  wall clock      {wall_ms:.1} ms");
        if specs.len() > 1 {
            println!();
        }
    }
    match &flags.out_dir {
        Some(dir) => write_records(dir, stem, &records),
        None => ExitCode::SUCCESS,
    }
}

/// Writes `records` to `DIR/<experiment>.jsonl` and reports where.
fn write_records(dir: &str, experiment: &str, records: &[artifact::RunArtifact]) -> ExitCode {
    let path = std::path::Path::new(dir).join(format!("{experiment}.jsonl"));
    match artifact::write_jsonl(&path, records) {
        Ok(()) => {
            println!("{} run-artifact record(s) written to {}", records.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let flags = match parse_run_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &flags.spec_path {
        return match read_spec_file(path) {
            Ok(specs) => run_specs(path, &specs, &flags),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let name = flags.name.as_deref().expect("checked by parse_run_flags");
    let Some(exp) = registry::find(name) else {
        eprintln!("unknown experiment {name:?}; see `rrb list`");
        return ExitCode::FAILURE;
    };
    let cfg = exp_config_from(&flags);
    if let Some(dir) = &flags.out_dir {
        // Artifact mode replaces the experiment's own driver: every rung
        // runs once through the generic harness and lands as one JSONL
        // record, so `rrb compare` sees a uniform schema for any
        // experiment.
        return write_records(dir, exp.name, &artifact::collect(exp, &cfg));
    }
    (exp.run)(&cfg);
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut dirs: Vec<String> = Vec::new();
    let mut tol = Tolerance::default();
    let mut it = args.iter().peekable();
    let err = |msg: String| {
        eprintln!(
            "{msg}\nusage: rrb compare BASELINE_DIR CANDIDATE_DIR [--wall-tol F] [--stat-tol F] \
             [--rss-budget-kib N]"
        );
        ExitCode::FAILURE
    };
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<f64, String> {
            it.next()
                .ok_or_else(|| format!("missing value for {name}"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--wall-tol" => match take("--wall-tol") {
                Ok(v) => tol.wall_tol = v,
                Err(e) => return err(e),
            },
            "--stat-tol" => match take("--stat-tol") {
                Ok(v) => tol.stat_tol = v,
                Err(e) => return err(e),
            },
            "--rss-budget-kib" => match take("--rss-budget-kib") {
                Ok(v) if v >= 0.0 && v.fract() == 0.0 => tol.rss_budget_kib = Some(v as u64),
                Ok(_) => return err("--rss-budget-kib: expected a non-negative integer".into()),
                Err(e) => return err(e),
            },
            other if !other.starts_with('-') => dirs.push(other.to_string()),
            other => return err(format!("unknown argument {other} for rrb compare")),
        }
    }
    if dirs.len() != 2 {
        return err(format!("expected 2 directories, got {}", dirs.len()));
    }
    let report = match compare::compare_dirs(
        std::path::Path::new(&dirs[0]),
        std::path::Path::new(&dirs[1]),
        tol,
    ) {
        Ok(r) => r,
        Err(e) => return err(e),
    };
    for note in &report.notes {
        println!("note: {note}");
    }
    for drift in &report.drifts {
        println!("DRIFT {} — {}", drift.key, drift.what);
    }
    if report.clean() {
        println!("{} record(s) compared, no drift", report.compared);
        ExitCode::SUCCESS
    } else {
        println!(
            "{} record(s) compared, {} drift(s) outside tolerance",
            report.compared,
            report.drifts.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => return cmd_list(&args[1..]),
        Some("describe") => return cmd_describe(&args[1..]),
        Some("run") => return cmd_run(&args[1..]),
        Some("compare") => return cmd_compare(&args[1..]),
        _ => {}
    }
    match parse_flags(&args) {
        Ok((spec, flags)) => run_specs("flags", &[spec], &flags),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const TOPOLOGIES: [&str; 7] =
        ["regular", "config", "gnp", "complete", "hypercube", "torus", "pa"];
    const PROTOCOLS: [&str; 8] = [
        "four-choice",
        "sequential",
        "push",
        "pull",
        "push-pull",
        "push-then-pull",
        "median-counter",
        "quasirandom",
    ];

    #[test]
    fn defaults_parse() {
        let (spec, flags) = parse_flags(&[]).unwrap();
        assert_eq!(spec.graph, GraphSpec::RandomRegular { n: 4096, d: 8 });
        assert_eq!(
            spec.protocol,
            ProtocolSpec::FourChoice {
                n_estimate: 4096,
                degree: 8,
                alpha: 1.5,
                choices: 4,
                regime: RegimeSpec::Auto
            }
        );
        assert_eq!(spec.measure, MeasureSpec::Standard);
        assert_eq!(flags, RunFlags { seeds: Some(1), ..RunFlags::default() });
    }

    #[test]
    fn flags_parse() {
        let (spec, flags) = parse_flags(&args(&[
            "--topology", "gnp", "--n", "100", "--d", "5", "--alpha", "2.0", "--seeds", "3",
            "--trace", "--channel-failures", "0.1", "--choices", "3", "--crashes", "0.01",
        ]))
        .unwrap();
        assert_eq!(spec.graph, GraphSpec::Gnp { n: 100, expected_degree: 5.0 });
        assert_eq!(
            spec.protocol,
            ProtocolSpec::FourChoice {
                n_estimate: 100,
                degree: 5,
                alpha: 2.0,
                choices: 3,
                regime: RegimeSpec::Auto
            }
        );
        let rates = FailureSpec { channel: 0.1, transmission: 0.0, crash: 0.01 };
        assert_eq!(spec.failures.rates, rates);
        assert_eq!(spec.measure, MeasureSpec::Trace);
        assert_eq!(flags.seeds, Some(3));
        let (spec, _) =
            parse_flags(&args(&["--topology", "torus", "--n", "1000", "--protocol", "pull"]))
                .unwrap();
        assert_eq!(spec.graph, GraphSpec::Torus { rows: 32, cols: 32 });
        assert_eq!(
            spec.protocol,
            ProtocolSpec::Budgeted {
                mode: GossipModeSpec::Pull,
                n: 1000,
                budget: 3.0,
                policy: PolicySpec::STANDARD
            }
        );
    }

    #[test]
    fn unknown_flag_errors() {
        for bad in [
            &["--bogus"][..],
            &["--n"],
            &["--n", "-3"],
            &["--seeds", "0"],
            &["--seed", "42"],
            &["--topology", "ring"],
            &["--protocol", "flood"],
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad:?}");
        }
        // Out-of-range values parse, and the spec check every entry point
        // shares rejects them.
        for bad in [
            &["--choices", "0"][..],
            &["--alpha", "nan"],
            &["--channel-failures", "1.0"],
            &["--topology", "complete", "--n", "0"],
            &["--n", "1000000000000"],
        ] {
            let (spec, _) = parse_flags(&args(bad)).unwrap();
            assert!(spec.check_runnable().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn run_flags_parse() {
        let f = parse_run_flags(&args(&["e5", "--quick", "--seeds", "4", "--shards", "4"]))
            .unwrap();
        assert_eq!(f.name.as_deref(), Some("e5"));
        assert!(f.quick);
        assert_eq!(f.seeds, Some(4));
        assert_eq!(f.shards, Some(4));
        // Run records go through --out alone; --json is no `run` flag.
        assert!(parse_run_flags(&args(&["e5", "--json", "o.json"])).is_err());
        assert!(parse_run_flags(&args(&["e5", "--shards", "x"])).is_err());
        assert!(parse_run_flags(&args(&["e5", "--seeds", "0"])).is_err());
        assert!(parse_run_flags(&args(&["--spec", "s.json", "--seeds", "0"])).is_err());
        for bad in ["0", "257", "100000"] {
            assert!(parse_run_flags(&args(&["e5", "--shards", bad])).is_err(), "--shards {bad}");
        }
        assert_eq!(parse_run_flags(&args(&["e5", "--shards", "256"])).unwrap().shards, Some(256));
        assert_eq!(parse_run_flags(&args(&["e5", "--shards", "1"])).unwrap().shards, Some(1));
        let f = parse_run_flags(&args(&["--spec", "s.json"])).unwrap();
        assert_eq!(f.spec_path.as_deref(), Some("s.json"));
        assert!(parse_run_flags(&args(&["--quick"])).is_err()); // no target
        assert!(parse_run_flags(&args(&["e5", "--bogus"])).is_err());
        assert!(parse_run_flags(&args(&["e5", "extra"])).is_err());
        assert!(parse_run_flags(&args(&["e5", "--spec", "s.json"])).is_err()); // not both
    }

    #[test]
    fn run_out_flag_parses() {
        let f = parse_run_flags(&args(&["e1", "--quick", "--out", "runs/"])).unwrap();
        assert_eq!(f.out_dir.as_deref(), Some("runs/"));
        // A spec file's run writes the same records.
        let f = parse_run_flags(&args(&["--spec", "s.json", "--out", "runs/"])).unwrap();
        assert_eq!(f.out_dir.as_deref(), Some("runs/"));
        assert!(parse_run_flags(&args(&["e1", "--out"])).is_err()); // missing value
    }

    #[test]
    fn registry_names_resolve() {
        for exp in registry::all() {
            assert!(registry::find(exp.name).is_some());
        }
    }

    #[test]
    fn graphs_build_for_every_topology() {
        for topo in TOPOLOGIES {
            for proto in PROTOCOLS {
                let (spec, _) = parse_flags(&args(&[
                    "--topology", topo, "--protocol", proto, "--n", "64", "--d", "4",
                ]))
                .unwrap_or_else(|e| panic!("{topo} x {proto}: {e}"));
                spec.check_runnable().unwrap_or_else(|e| panic!("{topo} x {proto}: {e}"));
            }
            let (spec, _) = parse_flags(&args(&["--topology", topo, "--n", "64", "--d", "4"]))
                .unwrap();
            let g = spec.graph.build(&mut rrb_bench::rng_for(0, 0, 0));
            assert!(g.unwrap_or_else(|e| panic!("{topo}: {e}")).node_count() > 0, "{topo} empty");
        }
    }

    #[test]
    fn every_protocol_runs() {
        for proto in PROTOCOLS {
            let (spec, flags) =
                parse_flags(&args(&["--protocol", proto, "--n", "128", "--d", "6"])).unwrap();
            let cfg = exp_config_from(&flags);
            let runs = registry::run_entry(0, &LadderEntry::new(0, spec), &cfg)
                .unwrap_or_else(|e| panic!("{proto}: {e}"))
                .outcomes;
            let coverage = runs[0].report.coverage();
            assert!(coverage > 0.9, "{proto}: coverage {coverage}");
        }
    }
}
