//! Knob inventory guard: the `LINGER_*` environment variables the code
//! reads are exactly the one README's "Knobs" table documents, so adding
//! or dropping one fails here instead of slipping through review; and no
//! library crate reads the environment at all, so an execution choice is
//! worked out from a run's inputs or passed in by its caller.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const KNOBS: [&str; 1] = ["LINGER_RESULTS"];

/// The calls that read an environment variable.
const ENV_READS: [&str; 3] = ["env::var(", "env::var_os(", "env::vars"];

/// The `.rs` files under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `src/` of each crate under `crates/`.
fn crate_srcs(root: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|krate| krate.unwrap().path().join("src"))
        .filter(|src| src.is_dir())
        .collect()
}

/// Every `"LINGER_[A-Z_]+"` string literal in the `.rs` files under `dir`.
fn literals(dir: &Path, found: &mut BTreeSet<String>) {
    let mut files = Vec::new();
    rs_files(dir, &mut files);
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, _) in text.match_indices("\"LINGER_") {
            let rest = &text[i + 1..];
            let name: String = rest
                .chars()
                .take_while(|&c| c.is_ascii_uppercase() || c == '_')
                .collect();
            if rest[name.len()..].starts_with('"') {
                found.insert(name);
            }
        }
    }
}

fn want() -> BTreeSet<String> {
    KNOBS.iter().map(|k| k.to_string()).collect()
}

#[test]
fn source_reads_exactly_the_documented_knobs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    literals(&root.join("src"), &mut found);
    for src in crate_srcs(root) {
        literals(&src, &mut found);
    }
    assert_eq!(
        found,
        want(),
        "a LINGER_* knob was added or removed; update README's Knobs table"
    );
}

#[test]
fn readme_knob_table_lists_exactly_the_knobs() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let section = readme.split("### Knobs").nth(1).expect("README has a Knobs section");
    let rows: BTreeSet<String> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `LINGER_"))
        .map(|l| format!("LINGER_{}", &l[..l.find('`').unwrap()]))
        .collect();
    assert_eq!(rows, want());
}

/// `path:line` of every environment read in the `.rs` files under `dir`.
fn env_reads(dir: &Path, found: &mut Vec<String>) {
    let mut files = Vec::new();
    rs_files(dir, &mut files);
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            if ENV_READS.iter().any(|call| line.contains(call)) {
                found.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
}

#[test]
fn only_the_bench_harness_reads_the_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut found, mut harness_reads) = (Vec::new(), Vec::new());
    for src in crate_srcs(root) {
        let reads =
            if src.parent().unwrap().ends_with("bench") { &mut harness_reads } else { &mut found };
        env_reads(&src, reads);
    }
    assert!(found.is_empty(), "library crates read the environment at {found:?}");
    // The scan itself must see the one read that is allowed.
    assert!(!harness_reads.is_empty(), "the harness reads LINGER_RESULTS");
}
