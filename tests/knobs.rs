//! Knob inventory guard: the `LINGER_*` environment variables the code
//! reads are exactly the three README's "Knobs" table documents, so adding
//! or dropping one fails here instead of slipping through review.

use std::collections::BTreeSet;
use std::path::Path;

const KNOBS: [&str; 3] = ["LINGER_RESULTS", "LINGER_SHARDS", "LINGER_WINDOW_CHUNK"];

/// Every `"LINGER_[A-Z_]+"` string literal in the `.rs` files under `dir`.
fn literals(dir: &Path, found: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            literals(&path, found);
        } else if path.extension().is_some_and(|e| e == "rs") {
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
}

fn want() -> BTreeSet<String> {
    KNOBS.iter().map(|k| k.to_string()).collect()
}

#[test]
fn source_reads_exactly_the_documented_knobs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    literals(&root.join("src"), &mut found);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            literals(&src, &mut found);
        }
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
