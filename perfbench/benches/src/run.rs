//! One benchmark run: set-up, the measured broadcasts, the checks, and
//! the metrics `BENCHMARK.json` names.
//!
//! An untraced run (`--trace 0`) times set-up, each broadcast and each
//! round, and reports the end-to-end metrics. It cycles over the
//! workload's few distinct batches until its time is spent, so every
//! broadcast runs several times with identical inputs. Every time is
//! scaled to the quiet host by the calibration kernel run around it
//! ([`crate::calib`]), and each broadcast and each of its rounds is then
//! timed by the median of its repeats. A traced run (`--trace 1`) first
//! measures untraced for half the time, then replays one pass of the same
//! broadcasts with spans and the phase probe on, checks the replay's
//! reports against the untraced ones, and reports the per-layer metrics,
//! whose times are as read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use rrb_engine::StepPhase;

use crate::calib::{speed_factor, Calibration};
use crate::check::validate;
use crate::stats::{mean, median, percentile};
use crate::trace::{self, now_ns, Span, Tracer};
use crate::workloads::{self, Batch, Broadcast, Engine, Name, Scale, Setup, Workload, BATCH_LIMIT};

/// Every run makes at least this many passes over the distinct batches,
/// however short `seconds`.
const MIN_PASSES: usize = 2;
/// Set-ups per run: at least `MIN_SETUPS`, and more (up to `MAX_SETUPS`)
/// while they add up to less than `SETUP_BUDGET_NS`, so the median of a
/// cheap set-up rests on enough samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_NS: u64 = 1_000_000_000;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Name,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (untraced; a traced run splits them).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Where a traced run writes its spans.
    pub spans_path: PathBuf,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No check failed and every broadcast passed.
    pub correct: bool,
    /// Broadcasts run (each is one operation).
    pub attempted: u64,
    /// Broadcasts that panicked or failed a check.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The end-to-end metrics with times as read, not scaled to the quiet
    /// host.
    pub unscaled: Vec<Metric>,
    /// Inputs and host facts the numbers depend on, as a JSON object.
    pub provenance: String,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Traced runs: per-layer count, total and self time.
    pub layer_table: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Counts broadcasts and failed checks across a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn check_batches(&mut self, what: &str, batches: &[Batch]) {
        for (b, batch) in batches.iter().enumerate() {
            for (k, item) in batch.items.iter().enumerate() {
                self.attempted += 1;
                let verdict = item
                    .as_ref()
                    .map_err(|p| format!("panicked: {p}"))
                    .and_then(|x| validate(&x.outcome));
                if let Err(e) = verdict {
                    self.fail(format!("{what} batch {b} broadcast {k}: {e}"));
                }
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

fn ok_items(batches: &[Batch]) -> impl Iterator<Item = &Broadcast> {
    batches
        .iter()
        .flat_map(|b| b.items.iter().filter_map(|i| i.as_ref().ok()))
}

/// Runs the measurement loop: cycles over the workload's distinct batches
/// until `budget_ns` has passed, making at least `passes` full passes.
/// Run `k` is batch `k % distinct`. The calibration kernel runs before the
/// first batch and after every batch; the second list holds each batch's
/// [`speed_factor`].
#[allow(clippy::too_many_arguments)]
fn measure(
    w: &Workload,
    s: &Setup,
    seed: u64,
    budget_ns: u64,
    passes: usize,
    calib: &mut Calibration,
    tracer: &mut Tracer,
    parent: u64,
) -> (Vec<Batch>, Vec<f64>) {
    let start = now_ns();
    let distinct = w.distinct as usize;
    let (mut out, mut speed) = (Vec::new(), Vec::new());
    let mut before = calib.measure_ns();
    while out.len() < BATCH_LIMIT as usize
        && (out.len() < passes * distinct || now_ns() - start < budget_ns)
    {
        let k = (out.len() % distinct) as u64;
        out.push(workloads::batch(w, s, seed, k, w.shards, tracer, parent));
        let after = calib.measure_ns();
        speed.push(speed_factor(before, after));
        before = after;
    }
    (out, speed)
}

/// Folds the repeats of each distinct batch into one: every broadcast,
/// every round and the batch itself take the median over repeats of their
/// time scaled by the repeat's speed factor. A repeat whose report differs
/// from the first is a failed check and is left out.
fn fold_repeats(runs: &[Batch], speed: &[f64], distinct: usize, tally: &mut Tally) -> Vec<Batch> {
    let scaled = |ns: u64, f: f64| ns as f64 * f;
    let fold = |xs: Vec<f64>| median(&xs).round() as u64;
    let mut out: Vec<Batch> = runs.iter().take(distinct).cloned().collect();
    for (d, acc) in out.iter_mut().enumerate() {
        let repeats: Vec<(&Batch, f64)> = runs
            .iter()
            .zip(speed)
            .skip(d)
            .step_by(distinct)
            .map(|(b, &f)| (b, f))
            .collect();
        acc.wall_ns = fold(repeats.iter().map(|(b, f)| scaled(b.wall_ns, *f)).collect());
        for (i, item) in acc.items.iter_mut().enumerate() {
            let mut same: Vec<(&Broadcast, f64)> = Vec::new();
            for (r, (b, f)) in repeats.iter().enumerate() {
                let Ok(x) = &b.items[i] else { continue };
                match same.first() {
                    Some((first, _)) if first.outcome.digest != x.outcome.digest => tally.fail(
                        format!("batch {d} broadcast {i}: repeat {r} differs from the first run"),
                    ),
                    _ => same.push((x, *f)),
                }
            }
            let Some(&(first, _)) = same.first() else {
                continue;
            };
            let mut folded = first.clone();
            let o = &mut folded.outcome;
            o.wall_ns = fold(
                same.iter()
                    .map(|(x, f)| scaled(x.outcome.wall_ns, *f))
                    .collect(),
            );
            for (j, step) in o.step_ns.iter_mut().enumerate() {
                *step = fold(
                    same.iter()
                        .map(|(x, f)| scaled(x.outcome.step_ns[j], *f))
                        .collect(),
                );
            }
            *item = Ok(folded);
        }
    }
    out
}

/// Runs one workload as `args` asks.
pub fn run(args: &Args) -> Outcome {
    let w = Workload::new(args.workload, args.scale);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = w.threads.clamp(1, nproc);
    // Ignored when a pool exists already (tests run several workloads).
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global();

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace);
    let mut calib = Calibration::new();
    let root = tracer.begin("workload", 0);

    // Set-up, repeated; each repetition must build the same topology.
    let (mut setup_ns, mut setup_speed) = (Vec::new(), Vec::new());
    let mut setup: Option<Setup> = None;
    let mut first_print = None;
    let mut before = calib.measure_ns();
    while setup_ns.len() < MIN_SETUPS
        || (setup_ns.len() < MAX_SETUPS && setup_ns.iter().sum::<u64>() < SETUP_BUDGET_NS)
    {
        drop(setup.take()); // one topology alive at a time, as in a real run
        let t0 = now_ns();
        match workloads::setup(&w, args.seed, &mut tracer, root.id) {
            Ok(s) => {
                setup_ns.push(now_ns() - t0);
                let after = calib.measure_ns();
                setup_speed.push(speed_factor(before, after));
                before = after;
                let print = workloads::fingerprint(&s.graph);
                if *first_print.get_or_insert(print) != print {
                    tally.fail("repeated set-up built a different topology".into());
                }
                setup = Some(s);
            }
            Err(e) => {
                tally.fail(format!("set-up failed: {e}"));
                break;
            }
        }
    }
    let Some(setup) = setup else {
        return Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            unscaled: Vec::new(),
            provenance: "{}".into(),
            problems: tally.problems,
            layer_table: String::new(),
        };
    };

    let budget = args.seconds.max(0.0) * 1e9 / if args.trace { 2.0 } else { 1.0 };
    // The untraced pass shows in the trace as one opaque span.
    let (untraced, speed) = tracer.call("untraced_pass", root.id, || {
        let mut off = Tracer::new(false);
        measure(
            &w,
            &setup,
            args.seed,
            budget as u64,
            MIN_PASSES,
            &mut calib,
            &mut off,
            0,
        )
    });
    tally.check_batches("untraced", &untraced);
    let distinct = w.distinct as usize;
    let folded = fold_repeats(&untraced, &speed, distinct, &mut tally);
    // The same figures unscaled, printed beside the scaled ones.
    let ones = vec![1.0; untraced.len()];
    let raw = fold_repeats(&untraced, &ones, distinct, &mut Tally::default());
    let unscaled = end_to_end(&w, &setup_ns, &vec![1.0; setup_ns.len()], &raw);

    let (metrics, layer_table) = if args.trace {
        let (traced, _) = measure(
            &w,
            &setup,
            args.seed,
            0,
            1,
            &mut calib,
            &mut tracer,
            root.id,
        );
        tally.check_batches("traced", &traced);
        for (b, (u, t)) in untraced.iter().zip(&traced).enumerate() {
            for (k, (x, y)) in u.items.iter().zip(&t.items).enumerate() {
                if let (Ok(x), Ok(y)) = (x, y) {
                    if x.outcome.digest != y.outcome.digest {
                        tally.fail(format!(
                            "batch {b} broadcast {k}: traced report differs from untraced"
                        ));
                    }
                }
            }
        }
        tracer.end(root);
        let pass_ns = untraced.iter().map(|b| b.wall_ns as f64).sum::<f64>() * distinct as f64
            / untraced.len() as f64;
        let metrics = layer_metrics(&w, &setup, threads, pass_ns, &traced, tracer.spans());
        if w.shards > 1 {
            // The serial path must reproduce the sharded report exactly.
            let mut replay = Tracer::new(true);
            let open = replay.begin("serial_replay", 0);
            let serial = workloads::batch(&w, &setup, args.seed, 0, 1, &mut replay, open.id);
            replay.end(open);
            tally.check_batches("serial replay", std::slice::from_ref(&serial));
            let sharded = untraced[0].items[0].as_ref().ok().map(|x| x.outcome.digest);
            let replayed = serial.items[0].as_ref().ok().map(|x| x.outcome.digest);
            if sharded.is_none() || sharded != replayed {
                tally.fail("serial replay differs from the sharded report".into());
            }
            tracer.absorb(replay.into_spans());
        }
        (metrics, layer_table(tracer.spans()))
    } else {
        (
            end_to_end(&w, &setup_ns, &setup_speed, &folded),
            String::new(),
        )
    };

    let broadcasts = ok_items(&folded).count();
    // Samples behind round_ms_p50/p95: one per step, or one per async broadcast.
    let round_samples: usize = if w.engine() == Engine::Async {
        broadcasts
    } else {
        ok_items(&folded).map(|b| b.outcome.step_ns.len()).sum()
    };
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \
         \"shards\": {}, \"n\": {}, \"setups\": {}, \"distinct_batches\": {distinct}, \
         \"batch_runs\": {}, \"broadcasts\": {broadcasts}, \"round_samples\": {round_samples}, \
         \"speed_factor_median\": {}, \"seeds_per_batch\": {}, \"rumours\": {}, \"scenario\": {}}}",
        w.name.as_str(),
        args.seed,
        args.trace,
        w.shards,
        w.spec.graph.node_count(),
        setup_ns.len(),
        untraced.len(),
        median(&speed),
        w.seeds_per_batch,
        w.rumours,
        w.spec.to_json().split_whitespace().collect::<Vec<_>>().join(" "),
    );
    if args.trace {
        if let Err(e) = write_spans(&args.spans_path, &provenance, tracer.spans()) {
            tally.problems.push(format!("span file not written: {e}"));
        }
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        tally
            .problems
            .push("a metric is not a finite number".into());
    }
    Outcome {
        correct: tally.failed == 0 && finite,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        unscaled,
        provenance,
        problems: tally.problems,
        layer_table,
    }
}

fn write_spans(path: &PathBuf, provenance: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace::spans_json(provenance, spans))
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run; each set-up time is scaled
/// by its factor in `setup_speed`.
fn end_to_end(
    w: &Workload,
    setup_ns: &[u64],
    setup_speed: &[f64],
    batches: &[Batch],
) -> Vec<Metric> {
    let items: Vec<&Broadcast> = ok_items(batches).collect();
    let secs = |ns: u64| ns as f64 / 1e9;
    let setup: Vec<f64> = setup_ns
        .iter()
        .zip(setup_speed)
        .map(|(&ns, f)| secs(ns) * f)
        .collect();
    let wall: f64 = batches.iter().map(|b| secs(b.wall_ns)).sum();
    let node_rounds: f64 = items.iter().map(|b| b.outcome.node_rounds()).sum();
    let broadcast_s: Vec<f64> = items.iter().map(|b| secs(b.outcome.wall_ns)).collect();
    // A round is a `step` call on the round engines; the async engine has
    // no step, so its round is one unit-time window: wall time / windows.
    let round_ms: Vec<f64> = if w.engine() == Engine::Async {
        items
            .iter()
            .map(|b| b.outcome.wall_ns as f64 / 1e6 / f64::from(b.outcome.rounds.max(1)))
            .collect()
    } else {
        items
            .iter()
            .flat_map(|b| b.outcome.step_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect()
    };
    let covers: Vec<f64> = items.iter().filter_map(|b| b.outcome.cover_time).collect();
    let rss_kib = rrb_engine::telemetry::peak_rss_kib().unwrap_or(0);
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("node_rounds_per_s", node_rounds / wall, "1/s"),
        metric("broadcast_s_p50", median(&broadcast_s), "s"),
        metric("round_ms_p50", percentile(&round_ms, 0.5), "ms"),
        metric("round_ms_p95", percentile(&round_ms, 0.95), "ms"),
        metric("peak_rss_mib", rss_kib as f64 / 1024.0, "MiB"),
        metric(
            "tx_per_node",
            mean(
                &items
                    .iter()
                    .map(|b| b.outcome.tx_per_node)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric("rounds_to_cover", mean(&covers), "rounds"),
        metric(
            "coverage",
            mean(
                &items
                    .iter()
                    .map(|b| b.outcome.coverage())
                    .collect::<Vec<_>>(),
            ),
            "fraction",
        ),
    ]
}

/// Per span name: (count, total ns).
fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    out
}

/// The per-layer metrics of a traced run. Times and counts are per
/// broadcast (per batch for the fan-out driver), so runs of different
/// lengths compare; layers a workload does not use read 0. `pass_ns` is
/// the mean untraced wall time of one pass over the same batches.
fn layer_metrics(
    w: &Workload,
    s: &Setup,
    threads: usize,
    pass_ns: f64,
    traced: &[Batch],
    spans: &[Span],
) -> Vec<Metric> {
    let items: Vec<&Broadcast> = ok_items(traced).collect();
    let per = |x: f64| {
        if items.is_empty() {
            0.0
        } else {
            x / items.len() as f64
        }
    };
    let tot = totals(spans);
    let total_s = |name: &str| tot.get(name).map_or(0.0, |t| t.1 as f64 / 1e9);
    let count = |name: &str| tot.get(name).map_or(0.0, |t| t.0 as f64);

    let gen: Vec<f64> = spans
        .iter()
        .filter(|x| x.name == "graph.gen")
        .map(|x| x.dur_ns() as f64 / 1e9)
        .collect();
    let gen_s = median(&gen);

    let probes: Vec<&trace::ProbeTotals> = items.iter().filter_map(|b| b.probe.as_ref()).collect();
    let phase_ns = |i: usize| probes.iter().map(|p| p.phase_ns[i]).sum::<u64>() as f64;
    let counter =
        |f: fn(&trace::ProbeTotals) -> u64| probes.iter().map(|p| f(p)).sum::<u64>() as f64;
    let (tx, newly) = (counter(|p| p.tx), counter(|p| p.newly_informed));

    // Shards: busy time in the fanned-out phases. The serial path is one
    // shard doing those phases itself.
    let fanned = [StepPhase::Plan, StepPhase::Exchange, StepPhase::Update];
    let busy: Vec<Vec<f64>> = probes
        .iter()
        .map(|p| {
            if p.shard_busy_ns.is_empty() {
                vec![fanned.iter().map(|ph| p.phase_ns[ph.index()] as f64).sum()]
            } else {
                p.shard_busy_ns.iter().map(|&ns| ns as f64).collect()
            }
        })
        .collect();
    let max_busy: Vec<f64> = busy
        .iter()
        .map(|b| b.iter().copied().fold(0.0, f64::max))
        .collect();
    let imbalance: Vec<f64> = busy
        .iter()
        .zip(&max_busy)
        .map(|(b, &m)| if mean(b) > 0.0 { m / mean(b) } else { 1.0 })
        .collect();
    let all_phases: f64 = (0..StepPhase::COUNT).map(phase_ns).sum();
    let serial: f64 = [StepPhase::Faults, StepPhase::Fabric, StepPhase::Coverage]
        .iter()
        .map(|ph| phase_ns(ph.index()))
        .sum();

    let async_run = total_s("async.run_to_completion");
    let events: f64 = items.iter().map(|b| b.events as f64).sum();
    let batches = traced.len().max(1) as f64;
    let busy_s: f64 = if w.engine() == Engine::Async {
        spans
            .iter()
            .filter(|x| x.name == "broadcast")
            .map(|x| x.dur_ns() as f64 / 1e9)
            .sum()
    } else {
        0.0
    };
    let replicate_wall = total_s("replicate");
    let traced_ns: f64 = traced.iter().map(|b| b.wall_ns as f64).sum();

    let selfs = trace::self_times(spans);
    let (mut b_self, mut b_total) = (0.0, 0.0);
    for (x, own) in spans.iter().zip(&selfs) {
        if x.name == "broadcast" {
            b_self += *own as f64;
            b_total += x.dur_ns() as f64;
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let churned = w.engine() == Engine::Multi;
    let ms = |ns: f64| ns / 1e6;

    let mut out = vec![
        metric("graph.gen_s", gen_s, "s"),
        metric(
            "graph.stubs_per_s",
            s.graph.stub_count() as f64 / gen_s,
            "1/s",
        ),
        metric("simulation.step_s", per(total_s("simulation.step")), "s"),
        metric(
            "simulation.finished_s",
            per(total_s("simulation.finished")),
            "s",
        ),
        metric(
            "simulation.into_report_s",
            per(total_s("simulation.into_report")),
            "s",
        ),
        metric("simulation.steps", per(count("simulation.step")), "count"),
    ];
    for (name, ph) in [
        ("phase.faults_ms", StepPhase::Faults),
        ("phase.fabric_ms", StepPhase::Fabric),
        ("phase.plan_ms", StepPhase::Plan),
        ("phase.exchange_ms", StepPhase::Exchange),
        ("phase.update_ms", StepPhase::Update),
        ("phase.coverage_ms", StepPhase::Coverage),
    ] {
        out.push(metric(name, per(ms(phase_ns(ph.index()))), "ms"));
    }
    out.extend([
        metric("fabric.channels", per(counter(|p| p.channels)), "count"),
        metric(
            "fabric.skipped_draws",
            per(counter(|p| p.skipped_draws)),
            "count",
        ),
        metric("exchange.tx", per(tx), "count"),
        metric("update.newly_informed", per(newly), "count"),
        metric("exchange.useful_ratio", ratio(newly, tx), "ratio"),
        metric("shard.busy_ms_max", ms(mean_or_zero(&max_busy)), "ms"),
        metric("shard.imbalance", mean_or_zero(&imbalance), "ratio"),
        metric("shard.serial_frac", ratio(serial, all_phases), "ratio"),
        metric("multi.step_s", per(total_s("multi.step")), "s"),
        metric("multi.finished_s", per(total_s("multi.finished")), "s"),
        metric(
            "multi.rumour_rounds",
            per(items.iter().map(|b| b.rumour_rounds).sum()),
            "rounds",
        ),
        metric(
            "multi.combining_ratio",
            per(items.iter().map(|b| b.combining_ratio).sum()),
            "ratio",
        ),
        metric("churn.step_s", per(total_s("churn.step")), "s"),
        metric("overlay.rewire_s", per(total_s("overlay.rewire")), "s"),
        metric(
            "census.apply_s",
            per(total_s("census.apply_joins")
                + total_s("census.apply_leaves")
                + total_s("census.apply_rejoins")),
            "s",
        ),
        metric(
            "overlay.slots",
            if churned {
                per(items.iter().map(|b| b.outcome.slots as f64).sum())
            } else {
                0.0
            },
            "count",
        ),
        metric("async.run_s", per(async_run), "s"),
        metric("async.events", per(events), "count"),
        metric("async.events_per_s", ratio(events, async_run), "1/s"),
        metric(
            "replicate.busy_s",
            if replicate_wall > 0.0 {
                busy_s / batches
            } else {
                0.0
            },
            "s",
        ),
        metric("replicate.wall_s", replicate_wall / batches, "s"),
        metric(
            "replicate.efficiency",
            ratio(busy_s, replicate_wall * threads as f64),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            ratio(traced_ns, pass_ns) - 1.0,
            "ratio",
        ),
        metric("trace.unattributed_frac", ratio(b_self, b_total), "ratio"),
    ]);
    out
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        mean(v)
    }
}

/// Count, total and self time per layer, largest self time first: the
/// self times of the spans under one broadcast add up to its wall time.
fn layer_table(spans: &[Span]) -> String {
    let mut rows: Vec<_> = trace::by_name(spans).into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12}\n",
        "layer", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in rows {
        let _ = writeln!(
            out,
            "{name:<28} {count:>9} {:>12.6} {:>12.6}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Outcome as Report;

    fn batch(wall_ns: u64, step_ns: Vec<u64>, digest: u64) -> Batch {
        let outcome = Report {
            slots: 4,
            rounds: step_ns.len() as u32,
            cap: 10,
            alive: 4,
            informed: vec![4],
            must_cover: true,
            cover_time: Some(2.0),
            tx_per_node: 1.0,
            wall_ns,
            step_ns,
            digest,
        };
        Batch {
            wall_ns,
            items: vec![Ok(Broadcast {
                outcome,
                probe: None,
                events: 0,
                rumour_rounds: 0.0,
                combining_ratio: 0.0,
            })],
        }
    }

    fn folded_outcome(b: &Batch) -> &Report {
        &b.items[0].as_ref().expect("broadcast").outcome
    }

    #[test]
    fn fold_takes_the_median_of_scaled_repeats() {
        // Two distinct batches, run in the order 0, 1, 0, 1, 0; the last
        // two ran on a host at half speed.
        let runs = [
            batch(9, vec![5, 4], 1),
            batch(7, vec![7], 2),
            batch(8, vec![3, 5], 1),
            batch(10, vec![10], 2),
            batch(20, vec![8, 8], 1),
        ];
        let speed = [1.0, 1.0, 1.0, 0.5, 0.5];
        let mut tally = Tally::default();
        let out = fold_repeats(&runs, &speed, 2, &mut tally);
        assert_eq!(tally.failed, 0);
        assert_eq!(out.len(), 2);
        // Batch 0: walls 9, 8, 10 (20 × 0.5); batch 1: 7, 5.
        assert_eq!((out[0].wall_ns, out[1].wall_ns), (9, 6));
        assert_eq!(folded_outcome(&out[0]).wall_ns, 9);
        assert_eq!(folded_outcome(&out[0]).step_ns, vec![4, 4]);
        assert_eq!(folded_outcome(&out[1]).step_ns, vec![6]);
    }

    #[test]
    fn fold_fails_a_repeat_with_another_report() {
        let runs = [batch(9, vec![5], 1), batch(1, vec![1], 3)];
        let mut tally = Tally::default();
        let out = fold_repeats(&runs, &[1.0, 1.0], 1, &mut tally);
        assert_eq!(tally.failed, 1);
        assert!(tally.problems[0].contains("differs"));
        // The differing repeat's times are left out.
        assert_eq!(folded_outcome(&out[0]).wall_ns, 9);
    }
}
