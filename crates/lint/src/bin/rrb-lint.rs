//! `rrb-lint` — determinism-discipline static analysis over the
//! workspace (see the `rrb_lint` crate docs for the rule table).
//!
//! ```text
//! rrb-lint [--root DIR] [--allow FILE] [--deny] [--json] [--unreached]
//! ```
//!
//! * `--root DIR`   directory to lint (default `.`; `vendor/`, `target/`,
//!   `examples/`, `benches/` and fixture trees are skipped)
//! * `--allow FILE` allowlist (default `<root>/lint-allow.toml` if present)
//! * `--deny`       exit non-zero when any diagnostic survives (CI mode)
//! * `--json`       machine-readable diagnostics on stdout
//! * `--unreached`  instead of the rules, print the reach report: every
//!   `pub` item whose name appears in no other file (see
//!   `rrb_lint::reach`); a report, never a gate (exit 0, `--deny` ignored)
//!
//! Exit codes: 0 clean (or diagnostics without `--deny`, or any reach
//! report), 1 diagnostics under `--deny`, 2 usage or allowlist errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    let mut deny = false;
    let mut json = false;
    let mut reach = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--allow" => match it.next() {
                Some(file) => allow_path = Some(PathBuf::from(file)),
                None => return usage("--allow needs a file"),
            },
            "--deny" => deny = true,
            "--json" => json = true,
            "--unreached" => reach = true,
            "-h" | "--help" => {
                println!(
                    "usage: rrb-lint [--root DIR] [--allow FILE] [--deny] [--json] [--unreached]\n\
                     determinism-discipline static analysis; rules: {}",
                    rrb_lint::RULE_IDS.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if reach {
        return report_unreached(&root, json);
    }

    let allow = match allow_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => match rrb_lint::parse_allowlist(&text) {
                Ok(entries) => entries,
                Err(e) => return fail_config(&format!("{}: {e}", path.display())),
            },
            Err(e) => return fail_config(&format!("cannot read {}: {e}", path.display())),
        },
        None => match rrb_lint::load_allowlist(&root) {
            Ok(entries) => entries,
            Err(e) => return fail_config(&e),
        },
    };

    let diags = match rrb_lint::lint_root(&root, &allow) {
        Ok(diags) => diags,
        Err(e) => return fail_config(&e),
    };

    if json {
        println!("{}", rrb_lint::diags_to_json(&diags));
    } else {
        for d in &diags {
            println!("{}:{}: [{}] {}", d.path, d.line, d.rule, d.msg);
        }
        if diags.is_empty() {
            eprintln!("rrb-lint: clean ({} allowlist entries honoured)", allow.len());
        } else {
            eprintln!("rrb-lint: {} diagnostic(s)", diags.len());
        }
    }
    if deny && !diags.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints the reach report; exits 0 whatever it lists.
fn report_unreached(root: &std::path::Path, json: bool) -> ExitCode {
    let items = match rrb_lint::unreached(root) {
        Ok(items) => items,
        Err(e) => return fail_config(&e),
    };
    if json {
        println!("{}", rrb_lint::diags_to_json(&items));
    } else {
        for d in &items {
            println!("{}:{}: [{}] {}", d.path, d.line, d.rule, d.msg);
        }
    }
    eprintln!("rrb-lint: {} pub item(s) named in no other file (a report, not a gate)", items.len());
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("rrb-lint: {msg}\nusage: rrb-lint [--root DIR] [--allow FILE] [--deny] [--json] [--unreached]");
    ExitCode::from(2)
}

fn fail_config(msg: &str) -> ExitCode {
    eprintln!("rrb-lint: {msg}");
    ExitCode::from(2)
}
