//! Name drift: every Rust name the top-level docs put in backticks must
//! still exist in the code.
//!
//! The test collects each inline code span of README.md, DESIGN.md and
//! EXPERIMENTS.md that is shaped like a Rust identifier, optionally
//! `::`-qualified (fenced code blocks are skipped), and resolves it against
//! the `.rs` files under `crates/`, `src/`, `tests/` and `examples/`:
//!
//! * a bare name `b` passes when it is an identifier or a file stem of any
//!   of those files;
//! * a qualified name `…::a::b` passes only when `b` is defined or
//!   re-exported (`pub use`) in a module named `a` — a file `a.rs`,
//!   `a/mod.rs`, an inline `mod a { … }`, or the root of crate `a` — or is
//!   a member of type `a`: a `fn`, `const` or `type` of an `impl a` or
//!   `trait a` block, a field of `struct a`, or a variant of `enum a`.
//!   Only the last two segments are resolved together.
//!
//! `benchmark/` is its own package and is not scanned.

use std::collections::{BTreeMap, HashMap, HashSet};
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

/// A token of Rust source. Comments, string and character literals,
/// lifetimes and numbers are dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(char),
}

/// Splits Rust source into identifiers and punctuation.
fn lex(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    // Skips a (possibly raw) string literal whose opening quote or `r` is
    // at `i`; returns the index after it.
    let skip_string = |mut i: usize| -> usize {
        if b[i] == b'r' {
            i += 1;
            let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
            i += hashes + 1;
            loop {
                if b[i] == b'"' && b[i + 1..].iter().take(hashes).all(|&c| c == b'#') {
                    return i + 1 + hashes;
                }
                i += 1;
            }
        }
        i += 1;
        while b[i] != b'"' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        i + 1
    };
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'/' && next == Some(b'/') {
            i = src[i..].find('\n').map_or(b.len(), |n| i + n);
        } else if c == b'/' && next == Some(b'*') {
            let mut depth = 0;
            loop {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            i = skip_string(i);
        } else if c == b'\'' {
            // A character literal ('x', '\n', '{') or a lifetime ('a).
            let ch_len = src[i + 1..].chars().next().map_or(1, char::len_utf8);
            if next == Some(b'\\') {
                i += 2;
                while b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 1 + ch_len) == Some(&b'\'') {
                i += ch_len + 2;
            } else {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let word = &src[start..i];
            let quote = b.get(i).copied();
            if (word == "r" || word == "br") && matches!(quote, Some(b'"' | b'#')) {
                let r = if word == "br" { start + 1 } else { start };
                if b[r + 1..].iter().find(|&&c| c != b'#') == Some(&b'"') {
                    i = skip_string(r);
                    continue;
                }
            }
            if word == "b" && quote == Some(b'"') {
                i = skip_string(i);
            } else if word == "b" && quote == Some(b'\'') {
                i += 1;
                i += if b[i + 1] == b'\\' { 2 } else { 1 };
                while b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else {
                out.push(Tok::Ident(word));
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
        } else {
            let ch = src[i..].chars().next().expect("in bounds");
            out.push(Tok::Punct(ch));
            i += ch.len_utf8();
        }
    }
    out
}

/// What a `{ … }` block is, for deciding where a definition inside it
/// belongs.
#[derive(Debug, Clone)]
enum Scope {
    /// A module: a file, or an inline `mod name { … }`.
    Module(String),
    /// An `impl` or `trait` block of the named type.
    Impl(String),
    /// A `struct` body: its fields are members.
    Struct(String),
    /// An `enum` body: its variants are members.
    Enum(String),
    /// Anything else (a function body, a match, a literal…).
    Other,
}

/// Where the docs' qualified names may resolve.
#[derive(Default)]
struct Index {
    /// Every identifier-shaped piece of text and file stem (bare names).
    tokens: HashSet<String>,
    /// Module name → names defined or re-exported in it.
    modules: HashMap<String, HashSet<String>>,
    /// Type name → its methods, associated items, fields or variants.
    types: HashMap<String, HashSet<String>>,
}

const DEFINING: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

impl Index {
    fn add(map: &mut HashMap<String, HashSet<String>>, owner: &str, name: &str) {
        map.entry(owner.to_owned())
            .or_default()
            .insert(name.to_owned());
    }

    /// Indexes one file, whose top-level module is named `module`.
    fn add_file(&mut self, module: &str, src: &str) {
        let toks = lex(src);
        let ident = |k: usize| match toks.get(k) {
            Some(Tok::Ident(s)) => Some(*s),
            _ => None,
        };
        let punct = |k: usize, c: char| toks.get(k) == Some(&Tok::Punct(c));
        // Bare names match any identifier-shaped piece of the text,
        // string literals included (metric names live there).
        self.tokens.extend(
            src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|t| is_ident(t))
                .map(str::to_owned),
        );
        let mut scopes = vec![Scope::Module(module.to_owned())];
        // The scope the next `{` opens, set by an item header.
        let mut pending: Option<Scope> = None;
        // Paren/bracket nesting inside the innermost brace scope.
        let mut nest = vec![0usize];
        let mut k = 0;
        while k < toks.len() {
            let prev = k.checked_sub(1).map(|p| toks[p]);
            match toks[k] {
                Tok::Punct('{') => {
                    // A macro call's body (`proptest! { … }`) is read as
                    // part of the scope it is called in.
                    let macro_body = prev == Some(Tok::Punct('!'))
                        && matches!(k.checked_sub(2).map(|p| toks[p]), Some(Tok::Ident(_)));
                    let inner = match pending.take() {
                        Some(scope) => scope,
                        None if macro_body => scopes.last().unwrap().clone(),
                        None => Scope::Other,
                    };
                    scopes.push(inner);
                    nest.push(0);
                }
                Tok::Punct('}') => {
                    scopes.pop();
                    nest.pop();
                }
                Tok::Punct('(' | '[') => *nest.last_mut().unwrap() += 1,
                Tok::Punct(')' | ']') => {
                    let n = nest.last_mut().unwrap();
                    *n = n.saturating_sub(1);
                }
                Tok::Punct(';') if *nest.last().unwrap() == 0 => pending = None,
                Tok::Ident(kw) => {
                    let top = *nest.last().unwrap() == 0;
                    let item_start = matches!(
                        prev,
                        None | Some(Tok::Punct('}' | ';' | '{' | ']')) | Some(Tok::Ident("unsafe"))
                    );
                    match scopes.last().unwrap() {
                        Scope::Module(m)
                            if kw == "use"
                                && matches!(
                                    prev,
                                    Some(Tok::Ident("pub")) | Some(Tok::Punct(')'))
                                ) =>
                        {
                            // `pub use` / `pub(crate) use`: re-exported names.
                            while k < toks.len() && !punct(k, ';') {
                                if let Some(name) = ident(k) {
                                    Self::add(&mut self.modules, m, name);
                                }
                                k += 1;
                            }
                            continue;
                        }
                        Scope::Struct(t) if top && punct(k + 1, ':') && !punct(k + 2, ':') => {
                            Self::add(&mut self.types, t, kw);
                        }
                        Scope::Enum(t)
                            if top && matches!(prev, Some(Tok::Punct('{' | ',' | ']'))) =>
                        {
                            Self::add(&mut self.types, t, kw);
                        }
                        _ => {}
                    }
                    if kw == "impl" && item_start {
                        pending = Some(Scope::Impl(impl_type(&toks[k + 1..])));
                    } else if DEFINING.contains(&kw) {
                        if let Some(name) =
                            ident(k + 1).filter(|n| !DEFINING.contains(n) && *n != "unsafe")
                        {
                            match scopes.last().unwrap() {
                                Scope::Module(m) => Self::add(&mut self.modules, m, name),
                                Scope::Impl(t) if matches!(kw, "fn" | "const" | "type") => {
                                    Self::add(&mut self.types, t, name)
                                }
                                _ => {}
                            }
                            pending = match kw {
                                "mod" => Some(Scope::Module(name.to_owned())),
                                "trait" => Some(Scope::Impl(name.to_owned())),
                                "struct" | "union" => Some(Scope::Struct(name.to_owned())),
                                "enum" => Some(Scope::Enum(name.to_owned())),
                                _ => pending,
                            };
                        }
                    }
                }
                Tok::Punct(_) => {}
            }
            k += 1;
        }
    }

    /// Whether a doc name resolves.
    fn resolves(&self, name: &str) -> bool {
        let segs: Vec<&str> = name.split("::").collect();
        match segs[..] {
            [bare] => self.tokens.contains(bare),
            [.., parent, child] => [&self.modules, &self.types]
                .iter()
                .any(|map| map.get(parent).is_some_and(|m| m.contains(child))),
            [] => false,
        }
    }
}

/// The type an `impl` header (the tokens after `impl`) is for: the last
/// path segment outside generics, after `for` if there is one.
fn impl_type(header: &[Tok<'_>]) -> String {
    let mut depth = 0i32;
    let mut name = "";
    let mut prev = None;
    for &t in header {
        match t {
            Tok::Punct('{') | Tok::Ident("where") if depth == 0 => break,
            Tok::Punct('<') => depth += 1,
            // `->` inside `Fn(..) -> T` bounds is not a closing bracket.
            Tok::Punct('>') if prev != Some(Tok::Punct('-')) => depth -= 1,
            Tok::Ident("for" | "dyn" | "mut") => {}
            Tok::Ident(s) if depth == 0 => name = s,
            _ => {}
        }
        prev = Some(t);
    }
    name.to_owned()
}

/// The module a source file is: its stem, its directory for `mod.rs`, and
/// its crate's name for `lib.rs`.
fn module_name(path: &Path) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = path.parent().expect("file has a directory");
    match stem {
        "mod" => dir
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("")
            .to_owned(),
        "lib" => {
            let manifest = std::fs::read_to_string(dir.parent().unwrap().join("Cargo.toml"))
                .expect("a lib.rs sits in a package");
            let name = manifest
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = \""))
                .and_then(|l| l.strip_suffix('"'))
                .expect("package has a name");
            name.replace('-', "_")
        }
        _ => stem.to_owned(),
    }
}

/// Indexes every `.rs` file under `dir`.
fn index_dir(dir: &Path, index: &mut Index) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            index_dir(&path, index);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file is utf-8");
            let module = module_name(&path);
            index.tokens.insert(
                path.file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("")
                    .to_owned(),
            );
            index.add_file(&module, &text);
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
    let mut index = Index::default();
    index.tokens.extend(ALLOWED.iter().map(|s| (*s).to_owned()));
    for dir in SOURCE_DIRS {
        index_dir(&root.join(dir), &mut index);
    }
    let mut checked = 0usize;
    let mut stale: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        for (name, line) in doc_names(&text) {
            checked += 1;
            if !index.resolves(name) {
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

#[test]
fn a_qualified_name_resolves_only_through_its_parent() {
    let mut index = Index::default();
    index.add_file(
        "experiments",
        r#"
        pub use crate::rows::{table4_rows, Row as TableRow};
        pub fn savings_rows() -> u32 { let baseline = '{'; 0 }
        /// `baseline` in a comment is no definition.
        pub struct Report<'a> { pub(crate) title: &'a str, rows: Vec<(u8, u8)> }
        pub enum Mode { Baseline, Taopt { dur: u64 }, #[doc = "x"] Resource(u8, u16) }
        impl<T: Fn() -> u8> fmt::Display for Report<'_> { fn fmt(&self) {} }
        impl Report<'_> { pub const MAX: usize = 3; pub fn new() -> impl Iterator<Item = u8> { todo!() } }
        mod inner { pub fn helper() {} }
        proptest! { fn generated_case() {} }
        const RAW: &str = r"}";
        "#,
    );
    for ok in [
        "experiments::savings_rows",
        "experiments::table4_rows",
        "experiments::TableRow",
        "experiments::Report",
        "Report::title",
        "Report::rows",
        "Report::fmt",
        "Report::MAX",
        "Report::new",
        "Mode::Baseline",
        "Mode::Taopt",
        "Mode::Resource",
        "inner::helper",
        "experiments::generated_case",
        "crate::experiments::inner",
        "baseline",
    ] {
        assert!(index.resolves(ok), "{ok} should resolve");
    }
    for stale in [
        "experiments::baseline",
        "experiments::helper",
        "experiments::new",
        "Report::baseline",
        "Report::savings_rows",
        "Mode::dur",
        "Mode::u8",
        "inner::savings_rows",
        "nowhere::savings_rows",
    ] {
        assert!(!index.resolves(stale), "{stale} should not resolve");
    }
}
