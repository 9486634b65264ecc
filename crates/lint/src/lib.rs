//! `rrb-lint`: determinism-discipline static analysis for the rrb
//! workspace.
//!
//! Every engine guarantee this workspace ships — seed-for-seed parity
//! between the three engines, thread-count invariance, byte-identical
//! artifacts under `rrb compare` — rests on conventions that no compiler
//! checks: reserved RNG streams, probes that never touch the RNG, no
//! wall-clock or hasher nondeterminism in simulation paths. This crate
//! enforces them mechanically, the same way `#![forbid(unsafe_code)]`
//! enforces memory safety.
//!
//! | rule | convention enforced |
//! |---|---|
//! | `rng-stream-discipline` | `rng_for` stream args are named (`*_STREAM` const, seed var, `STREAM ^ seed`), never bare literals; reserved stream constants are pairwise distinct |
//! | `no-wall-clock` | `std::time::{Instant, SystemTime}` only in allowlisted telemetry/measurement modules |
//! | `no-ambient-randomness` | no `thread_rng`/`rand::random`/`HashMap`/`HashSet`/`RandomState` in `crates/engine` & `crates/graph` |
//! | `probe-rng-separation` | `telemetry.rs` and `RoundProbe` impls never name `Rng`/`rng_for` |
//! | `crate-hygiene` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `hot-path-alloc` | `// rrb-lint: hot` functions avoid known-allocating APIs |
//!
//! The analysis is a hand-rolled tokenizer ([`lex`]) plus lexical rules
//! ([`rules`]) — no external parser, consistent with the vendored-only
//! build host. Test modules (`#[cfg(test)]`) are exempt; `vendor/`,
//! `target/`, `examples/`, `benches/` and fixture trees are not scanned.
//! Intentional exceptions live in `lint-allow.toml` ([`allow`]); stale
//! entries are themselves diagnostics, so the allowlist can only shrink.
//!
//! Beside the rules, `rrb-lint --unreached` prints a reach report
//! ([`reach`]): the `pub` items named in no other file. It never fails.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lex;
pub mod reach;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use allow::{parse_allowlist, AllowEntry};
pub use reach::{unreached, UNREACHED};
pub use rules::{Diag, RULE_IDS, STALE_ALLOW};

/// Directory names never descended into: vendored shims, build output,
/// VCS metadata, known-bad lint fixtures, and non-shipped harness code
/// (examples/benches measure wall time by nature).
const SKIP_DIRS: [&str; 6] = ["vendor", "target", ".git", "fixtures", "examples", "benches"];

/// Collects every `.rs` file under `root` (skipping `SKIP_DIRS`),
/// sorted by relative path so diagnostics are deterministic.
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    walk(root, &SKIP_DIRS, &mut files)?;
    files.sort();
    Ok(files)
}

/// Collects every `.rs` file under `dir` into `files`, skipping
/// directories named in `skip` and hidden ones.
fn walk(dir: &Path, skip: &[&str], files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if skip.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, skip, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace `.rs` file under `root`, applying `allow`
/// entries, and returns the surviving diagnostics sorted by
/// (path, line, rule). Allowlist entries that suppressed nothing are
/// reported as [`STALE_ALLOW`] diagnostics against `lint-allow.toml`.
pub fn lint_root(root: &Path, allow: &[AllowEntry]) -> Result<Vec<Diag>, String> {
    let mut diags = Vec::new();
    let mut streams = Vec::new();
    for path in collect_files(root)? {
        let rel = relative(root, &path);
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let toks = lex::strip_cfg_test(lex::lex(&src));
        rules::check_file(&rel, &toks, &mut diags, &mut streams);
    }
    rules::check_stream_constants(&streams, &mut diags);

    // Apply the allowlist: a diagnostic is suppressed by a (rule, path)
    // match; each entry must earn its keep.
    let mut used = vec![false; allow.len()];
    diags.retain(|d| {
        match allow.iter().position(|a| a.rule == d.rule && a.path == d.path) {
            Some(ix) => {
                used[ix] = true;
                false
            }
            None => true,
        }
    });
    for (entry, used) in allow.iter().zip(used) {
        if !used {
            diags.push(Diag {
                path: "lint-allow.toml".to_string(),
                line: entry.line,
                rule: STALE_ALLOW,
                msg: format!(
                    "allowlist entry ({} in {}) suppressed nothing; remove it",
                    entry.rule, entry.path
                ),
            });
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(diags)
}

/// `path` relative to `root`, `/`-separated.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Loads and parses `lint-allow.toml` under `root`, if present.
pub fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("lint-allow.toml");
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_allowlist(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Escapes `s` as a JSON string literal (the same minimal dialect the
/// `rrb` CLI emits).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders diagnostics as a JSON array (for `--json`).
pub fn diags_to_json(diags: &[Diag]) -> String {
    let rows: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_string(&d.path),
                d.line,
                json_string(d.rule),
                json_string(&d.msg)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}
