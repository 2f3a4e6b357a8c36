//! Public API guard: every `pub` item in a library crate has a caller in
//! non-test code, and every `[dependencies]` entry of a library crate is
//! named by that crate's code. An item only tests reach is either deleted
//! or kept under `#[cfg(test)]`, so deleting dead API stays deleted.
//!
//! The scan is textual and rough: an item counts as called when its name
//! appears as a word anywhere in non-test code other than its own
//! declaration and `pub use` re-exports. Non-test code is the crate
//! sources without their `#[cfg(test)]` items, `src/`, `examples/`,
//! `crates/*/benches/` and `perfbench/src/`, doc comments included.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// What the scans flag that stays on purpose, each with its reason.
const ALLOWLIST: [(&str, &str); 6] = [
    (
        "item migration_beneficial",
        "the paper's Fig 1 break-even inequality; tests/properties.rs checks it",
    ),
    (
        "item predicted_episode_length",
        "the paper's median-remaining-life episode predictor behind Fig 1",
    ),
    ("dep crates/core -> linger-workload", LOCKED),
    ("dep crates/core -> rand", LOCKED),
    ("dep crates/node -> linger", LOCKED),
    ("dep crates/node -> rand", LOCKED),
];

/// The reason for a dependency edge the benchmark's lock file records:
/// dropping it rewrites `perfbench/Cargo.lock`.
const LOCKED: &str =
    "perfbench/Cargo.lock records this edge; drop it with the next benchmark change";

const ITEM_KINDS: [&str; 8] = ["fn", "const", "static", "struct", "enum", "trait", "type", "mod"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// The file's non-test text: every `#[cfg(test)]` item blanked, line
/// numbers kept. The code is rustfmt-formatted, so an item ends at the
/// first line at the attribute's indentation that ends in `;` or `}`.
fn non_test(text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        out.push('\n');
        let indent = &line[..line.len() - line.trim_start().len()];
        for item in lines.by_ref() {
            out.push('\n');
            let at_indent = item.strip_prefix(indent).is_some_and(|r| !r.starts_with(' '));
            if at_indent && (item.ends_with(';') || item.ends_with('}')) {
                break;
            }
        }
    }
    out
}

/// Blanks every `pub use ...;` statement, so a re-export is not a caller.
fn without_reexports(text: &str) -> String {
    let mut out = String::new();
    let mut in_use = false;
    for line in text.lines() {
        if line.trim_start().starts_with("pub use ") {
            in_use = true;
        }
        if !in_use {
            out.push_str(line);
        }
        out.push('\n');
        if in_use && line.trim_end().ends_with(';') {
            in_use = false;
        }
    }
    out
}

fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// `(kind, name)` if the line declares a plain `pub` item.
fn declaration(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const fn ", "unsafe fn ", "async fn ", "static mut "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            let kind = if qualifier.ends_with("fn ") { "fn" } else { "static" };
            return Some((kind, idents(r).next()?));
        }
    }
    for kind in ITEM_KINDS {
        if let Some(r) = rest.strip_prefix(kind).and_then(|r| r.strip_prefix(' ')) {
            return Some((kind, idents(r).next()?));
        }
    }
    None
}

#[test]
fn every_public_item_has_a_non_test_caller() {
    let mut callers = Vec::new();
    let mut declaring = Vec::new();
    for dir in crate_dirs() {
        rs_files(&dir.join("src"), &mut declaring);
        rs_files(&dir.join("benches"), &mut callers);
    }
    callers.extend(declaring.iter().cloned());
    for dir in ["src", "examples", "perfbench/src"] {
        rs_files(&root().join(dir), &mut callers);
    }

    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    for path in &callers {
        let text = without_reexports(&non_test(&std::fs::read_to_string(path).unwrap()));
        for word in idents(&text) {
            *uses.entry(word.to_string()).or_default() += 1;
        }
    }

    let mut decls: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let texts: Vec<String> = declaring
        .iter()
        .map(|p| non_test(&std::fs::read_to_string(p).unwrap()))
        .collect();
    for (path, text) in declaring.iter().zip(&texts) {
        for (n, line) in text.lines().enumerate() {
            if let Some((kind, name)) = declaration(line) {
                let at = path.strip_prefix(root()).unwrap().display();
                decls
                    .entry(name)
                    .or_default()
                    .push(format!("{at}:{} pub {kind} {name}", n + 1));
            }
        }
    }

    let allowed = allowed("item ");
    let mut dead = Vec::new();
    let mut flagged = BTreeSet::new();
    for (name, sites) in &decls {
        if uses.get(*name).copied().unwrap_or(0) > sites.len() {
            continue;
        }
        flagged.insert(name.to_string());
        if !allowed.contains(*name) {
            dead.extend(sites.iter().cloned());
        }
    }
    assert!(
        dead.is_empty(),
        "public items with no caller outside tests (delete them, or keep them under \
         #[cfg(test)]):\n{}",
        dead.join("\n")
    );
    assert_eq!(flagged, allowed, "an allowlisted item gained a caller; drop it from ALLOWLIST");
}

/// The allowlist keys that start with `prefix`, without it.
fn allowed(prefix: &str) -> BTreeSet<String> {
    ALLOWLIST
        .iter()
        .filter_map(|(key, _)| key.strip_prefix(prefix))
        .map(str::to_string)
        .collect()
}

/// The `[dependencies]` keys of a Cargo manifest.
fn dependencies(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| {
            let key = l.split(['.', '=', ' ']).next()?.trim();
            (!key.is_empty() && !key.starts_with('#')).then(|| key.to_string())
        })
        .collect()
}

/// Whether `text` names crate `krate` as a path root (`krate::`, `use krate`).
fn names_crate(text: &str, krate: &str) -> bool {
    ["::", ";"].iter().any(|tail| {
        text.match_indices(&format!("{krate}{tail}")).any(|(i, _)| {
            !text[..i].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        })
    })
}

/// Whether `perfbench/Cargo.lock` lists `dep` among `package`'s dependencies.
fn lock_records(package: &str, dep: &str) -> bool {
    let lock = std::fs::read_to_string(root().join("perfbench/Cargo.lock")).unwrap();
    let (name, dep) = (format!("name = \"{package}\"\n"), format!(" \"{dep}\",\n"));
    lock.split("[[package]]")
        .any(|block| block.contains(&name) && block.contains(&dep))
}

#[test]
fn every_dependency_is_named_by_its_crate() {
    let allowed = allowed("dep ");
    let mut unused = Vec::new();
    let mut flagged = BTreeSet::new();
    for dir in crate_dirs() {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let package = manifest.lines().find_map(|l| l.strip_prefix("name = ")).unwrap();
        let mut files = Vec::new();
        for sub in ["src", "benches", "tests", "examples"] {
            rs_files(&dir.join(sub), &mut files);
        }
        let text: String = files.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect();
        let at = dir.strip_prefix(root()).unwrap().display().to_string();
        for dep in dependencies(&manifest) {
            if names_crate(&text, &dep.replace('-', "_")) {
                continue;
            }
            let key = format!("{at} -> {dep}");
            if !allowed.contains(&key) {
                unused.push(format!("{at}/Cargo.toml: {dep}"));
            } else {
                assert!(
                    lock_records(package.trim_matches('"'), &dep),
                    "{key} is allowlisted as recorded in perfbench/Cargo.lock, but it is not"
                );
            }
            flagged.insert(key);
        }
    }
    assert!(
        unused.is_empty(),
        "dependencies the crate never names (remove them from [dependencies]):\n{}",
        unused.join("\n")
    );
    assert_eq!(
        flagged, allowed,
        "an allowlisted dependency is now named; drop it from ALLOWLIST"
    );
}
