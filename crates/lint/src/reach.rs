//! The reach report (`rrb-lint --unreached`): every `pub` item whose name
//! appears in no other file of the workspace, once `#[cfg(test)]` items and
//! comments are stripped. Such an item is reached, if at all, only from
//! its own file or from tests, so it is a candidate for deletion (or for a
//! narrower visibility).
//!
//! The report is lexical, like the rules: a name counts as used wherever
//! the same identifier appears, so a common name (`new`, `len`) always
//! looks reached, and a name used only inside a string or a macro's
//! format string looks unreached. It is a report and never a gate: the
//! binary exits 0 whatever it finds.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::lex::{self, Spanned, Tok};
use crate::rules::Diag;

/// Rule id of a reach-report line.
pub const UNREACHED: &str = "unreached";

/// Directories the report never reads. Unlike the rules it reads
/// `examples/` and `benches/`: they use the public API too.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Item keywords whose next identifier is the item's name.
const ITEM_KEYWORDS: [&str; 9] = ["fn", "struct", "enum", "trait", "const", "static", "type", "union", "mod"];

/// Lists each `pub` item defined in a file the rules lint under `root`
/// whose name appears in no other `.rs` file under `root` (examples and
/// benches included), outside `#[cfg(test)]` items and comments; sorted
/// by path and line.
pub fn unreached(root: &Path) -> Result<Vec<Diag>, String> {
    let mut files = Vec::new();
    crate::walk(root, &SKIP_DIRS, &mut files)?;
    files.sort();
    let linted: BTreeSet<_> = crate::collect_files(root)?.into_iter().collect();
    let mut items = Vec::new();
    // How many files name each identifier.
    let mut named_in: BTreeMap<String, usize> = BTreeMap::new();
    for path in &files {
        let src = fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let code: Vec<Spanned> =
            lex::strip_cfg_test(lex::lex(&src)).into_iter().filter(|s| !matches!(s.tok, Tok::Comment(_))).collect();
        let names: BTreeSet<&str> = code.iter().filter_map(|s| ident(&s.tok)).collect();
        for name in names {
            *named_in.entry(name.to_string()).or_default() += 1;
        }
        if linted.contains(path) {
            let rel = crate::relative(root, path);
            items.extend(pub_items(&code).into_iter().map(|(line, kind, name)| (rel.clone(), line, kind, name)));
        }
    }
    Ok(items
        .into_iter()
        .filter(|(_, _, _, name)| named_in.get(name).copied().unwrap_or(0) < 2)
        .map(|(path, line, kind, name)| Diag {
            path,
            line,
            rule: UNREACHED,
            msg: format!("pub {kind} `{name}` is named in no other file"),
        })
        .collect())
}

/// The identifier a token spells, if it is one.
fn ident(tok: &Tok) -> Option<&str> {
    match tok {
        Tok::Ident(name) => Some(name),
        _ => None,
    }
}

/// The `pub` items in `code` (comments stripped): each one's line, item
/// keyword and name. `pub(crate)` and other restricted items, `pub use`
/// re-exports and `pub` fields are not items here.
fn pub_items(code: &[Spanned]) -> Vec<(u32, &'static str, String)> {
    let mut items = Vec::new();
    for (i, s) in code.iter().enumerate() {
        if ident(&s.tok) != Some("pub") {
            continue;
        }
        // Qualifiers between `pub` and the keyword: `pub const fn`,
        // `pub unsafe fn`, `pub async fn`, `pub extern "C" fn`.
        let mut j = i + 1;
        while let Some(word) = code.get(j).and_then(|t| ident(&t.tok)) {
            let qualifier = matches!(word, "async" | "unsafe" | "extern")
                || (word == "const" && code.get(j + 1).and_then(|t| ident(&t.tok)) == Some("fn"));
            if !qualifier {
                break;
            }
            j += 1;
            if code.get(j).is_some_and(|t| t.tok == Tok::Str) {
                j += 1;
            }
        }
        let keyword = code.get(j).and_then(|t| ident(&t.tok)).and_then(|w| ITEM_KEYWORDS.iter().find(|&&k| k == w));
        let name = code.get(j + 1).and_then(|t| ident(&t.tok));
        if let (Some(keyword), Some(name)) = (keyword, name) {
            items.push((s.line, *keyword, name.to_string()));
        }
    }
    items
}
