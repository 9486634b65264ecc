//! Hand-rolled parser for the `lint-allow.toml` allowlist (same
//! no-external-deps discipline as `scenario.rs`'s JSON dialect).
//!
//! The format is a restricted TOML subset — exactly what the file needs
//! and nothing more:
//!
//! ```toml
//! # comment
//! [[allow]]
//! rule = "no-wall-clock"
//! path = "crates/engine/src/telemetry.rs"
//! reason = "phase probes sample the monotonic clock by design"
//! ```
//!
//! Every entry must carry all three keys; `rule` must be a known rule
//! identifier. Unknown rules, unknown keys, duplicate keys and malformed
//! lines are hard errors (exit 2), not warnings — a typo in the
//! allowlist must not silently widen it. Entries that match no
//! diagnostic are reported as `stale-allow` so the list can only shrink
//! towards genuinely intentional exceptions.

use crate::rules::RULE_IDS;

/// One parsed `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier this entry silences.
    pub rule: String,
    /// Root-relative `/`-separated file path it applies to.
    pub path: String,
    /// Why the exception is intentional (required, for the next reader).
    pub reason: String,
    /// Line of the `[[allow]]` header (for stale-entry diagnostics).
    pub line: u32,
}

/// Parses allowlist `text`. Returns a human-readable error on any
/// malformed or unknown content.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    struct Partial {
        rule: Option<String>,
        path: Option<String>,
        reason: Option<String>,
        line: u32,
    }
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut open: Option<Partial> = None;
    let finish = |p: Partial, entries: &mut Vec<AllowEntry>| -> Result<(), String> {
        let missing = |k: &str| format!("allowlist entry at line {} is missing `{k}`", p.line);
        let rule = p.rule.ok_or_else(|| missing("rule"))?;
        let path = p.path.ok_or_else(|| missing("path"))?;
        let reason = p.reason.ok_or_else(|| missing("reason"))?;
        if !RULE_IDS.contains(&rule.as_str()) {
            return Err(format!(
                "allowlist entry at line {} names unknown rule {:?} (known rules: {})",
                p.line,
                rule,
                RULE_IDS.join(", ")
            ));
        }
        entries.push(AllowEntry { rule, path, reason, line: p.line });
        Ok(())
    };
    for (ix, raw) in text.lines().enumerate() {
        let lineno = (ix + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = open.take() {
                finish(p, &mut entries)?;
            }
            open = Some(Partial { rule: None, path: None, reason: None, line: lineno });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("allowlist line {lineno}: expected `key = \"value\"`, got {line:?}"));
        };
        let Some(p) = open.as_mut() else {
            return Err(format!("allowlist line {lineno}: `{}` outside an [[allow]] entry", key.trim()));
        };
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("allowlist line {lineno}: value must be a double-quoted string"))?;
        let slot = match key.trim() {
            "rule" => &mut p.rule,
            "path" => &mut p.path,
            "reason" => &mut p.reason,
            other => {
                return Err(format!(
                    "allowlist line {lineno}: unknown key {other:?} (expected rule, path, reason)"
                ))
            }
        };
        if slot.is_some() {
            return Err(format!("allowlist line {lineno}: duplicate key {:?}", key.trim()));
        }
        *slot = Some(value.to_string());
    }
    if let Some(p) = open.take() {
        finish(p, &mut entries)?;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GOOD: &str = "\
# telemetry is the one module allowed to read the clock
[[allow]]
rule = \"no-wall-clock\"
path = \"crates/engine/src/telemetry.rs\"
reason = \"phase probes sample the monotonic clock by design\"

[[allow]]
rule = \"no-wall-clock\"
path = \"crates/bench/src/lib.rs\"
reason = \"the bench recorder measures wall time\"
";

    #[test]
    fn parses_entries_in_order() {
        let entries = parse_allowlist(GOOD).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "no-wall-clock");
        assert_eq!(entries[0].path, "crates/engine/src/telemetry.rs");
        assert_eq!(entries[1].line, 7);
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let bad = "[[allow]]\nrule = \"no-such-rule\"\npath = \"a.rs\"\nreason = \"x\"\n";
        let err = parse_allowlist(bad).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn stale_allow_is_not_allowlistable() {
        let bad = "[[allow]]\nrule = \"stale-allow\"\npath = \"a.rs\"\nreason = \"x\"\n";
        assert!(parse_allowlist(bad).is_err());
    }

    #[test]
    fn unknown_key_is_rejected() {
        let bad = "[[allow]]\nrule = \"no-wall-clock\"\npath = \"a.rs\"\nreasons = \"typo\"\n";
        let err = parse_allowlist(bad).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn missing_reason_is_rejected() {
        let bad = "[[allow]]\nrule = \"no-wall-clock\"\npath = \"a.rs\"\n";
        let err = parse_allowlist(bad).unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn keys_outside_entries_are_rejected() {
        assert!(parse_allowlist("rule = \"no-wall-clock\"\n").is_err());
    }

    /// What allowlist lines are assembled from, malformed pieces included.
    const PIECES: [&str; 14] = [
        "[[allow]]", "[allow]", "rule =", "path =", "reason =", "rule", "=", "\"",
        "\"no-wall-clock\"", "\"a.rs\"", "#", " ", "\n", "é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_allowlist(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn assembled_lines_never_panic(picks in prop::collection::vec(0..PIECES.len(), 0..48)) {
            let text: String = picks.iter().map(|&i| PIECES[i]).collect();
            let _ = parse_allowlist(&text);
        }
    }
}
