//! Name drift: every Rust name the top-level docs put in backticks must
//! still exist in the code.
//!
//! The test collects each inline code span of README.md, DESIGN.md and
//! EXPERIMENTS.md that is shaped like a Rust identifier, optionally
//! `::`-qualified (fenced code blocks are skipped). It fails when the
//! name's last segment is neither an identifier nor a file stem of any
//! `.rs` file under `crates/`, `src/`, `tests/` or `examples/`.
//! `benchmark/` is its own package and is not scanned.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const SOURCE_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Names the docs may use although no source file spells them:
/// dependency names and benchmark metric names.
const ALLOWED: [&str; 3] = ["crossbeam", "serde", "resume_s"];

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Every identifier-shaped token of `text`.
fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| is_ident(t))
}

/// Identifiers and file stems of every `.rs` file under `dir`.
fn collect_names(dir: &Path, names: &mut HashSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_names(&path, names);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file is utf-8");
            names.extend(tokens(&text).map(str::to_owned));
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.insert(stem.to_owned());
            }
        }
    }
}

/// `(name, line)` for every backticked Rust name outside fenced blocks.
fn doc_names(text: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        // Odd-numbered pieces between backticks are inline code.
        for span in line.split('`').skip(1).step_by(2) {
            if span.split("::").all(is_ident) {
                out.push((span, i + 1));
            }
        }
    }
    out
}

#[test]
fn backticked_names_in_the_docs_exist_in_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut known: HashSet<String> = ALLOWED.iter().map(|s| (*s).to_owned()).collect();
    for dir in SOURCE_DIRS {
        collect_names(&root.join(dir), &mut known);
    }
    let mut checked = 0usize;
    let mut stale: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (name, line) in doc_names(&text) {
            checked += 1;
            let last = name.rsplit("::").next().unwrap_or(name);
            if !known.contains(last) {
                stale
                    .entry(name.to_owned())
                    .or_default()
                    .push(format!("{doc}:{line}"));
            }
        }
    }
    // A parser that silently matched nothing would pass vacuously.
    assert!(checked > 200, "only {checked} names found in the docs");
    assert!(
        stale.is_empty(),
        "docs name what no source file contains: {stale:#?}"
    );
}
