//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! rrb-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it give
//! the run's provenance, each metric with its unit, and — traced runs —
//! the per-layer self-time table. A traced run writes its spans to
//! `--spans` (default `perfbench/out/spans-<workload>-seed<N>.json`).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rrb_perfbench::run::{run, Args};
use rrb_perfbench::workloads::{Name, Scale};

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Name::ALL.iter().map(|n| n.as_str()).collect();
                workload = Some(
                    Name::parse(v)
                        .ok_or_else(|| format!("unknown workload {v:?}; one of {names:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace,
        scale: Scale::Full,
        spans_path: spans.unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/spans-{}-seed{seed}.json",
                workload.as_str()
            ))
        }),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rrb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    println!("provenance {}", out.provenance);
    for m in &out.metrics {
        println!("  {:<26} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("unscaled (times as read, before calibration)");
    for m in &out.unscaled {
        println!("  {:<26} {:>20} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        print!("{}", out.layer_table);
        println!("spans written to {}", args.spans_path.display());
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
