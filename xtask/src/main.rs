//! Workspace maintenance tasks, invoked as `cargo xtask <command>`.
//!
//! `lint` — four checks over non-test code, all compared against the
//! checked-in `lint-baseline.toml`:
//!
//! 1. **Panic paths** (`.unwrap()`, `.expect()`, `panic!`,
//!    `debug_assert!`): inventoried and failed when any category grows
//!    past the baseline (a ratchet — shrink it as panic paths are
//!    removed with `--update-baseline`, never grow it without review).
//! 2. **Metric-name drift** (`metric_drift`, baseline 0): every
//!    `engine.*` / `stats.*` / `plan_cache.*` string literal recorded
//!    by non-test code must appear in the metric inventory table of
//!    `crates/trace/README.md`, and every table row must be recorded
//!    somewhere — so the README can be trusted as the one list of
//!    names dashboards and alert rules may reference. Dynamic names
//!    (`engine.phase_us.{}` or a concatenation stem ending in `.`)
//!    normalize to a `.*`-starred family.
//! 3. **Lock across adapter call** (`lock_across_call`, baseline 0):
//!    a guard bound by a `let` from `.lock()` / `.borrow_mut()` must
//!    not still be in scope at an `.execute(` / `.fetch_collection(`
//!    adapter call — sources can be slow or reentrant (a mediated view
//!    queried during evaluation), and holding an engine lock across
//!    them is a deadlock/latency hazard.
//! 4. **Child count by walking** (`child_count_walk`, baseline 0):
//!    `.child_elements().count()` / `.children().count()` follows a
//!    sibling link per child — a dependent-load chain over a whole
//!    collection when the node is a `<rows>` root (E24: +10 % `p50_ms`
//!    on `shard_fanout`). The element count is a stored field; call
//!    `child_element_count()`.
//!
//! The scanner is a plain text analysis (no syn, no dependencies), one
//! pass per file ([`scan`]) that every check reads: comments, string
//! literals, and `#[cfg(test)]` regions are stripped before counting,
//! files under `tests/`, `benches/`, `examples/`, or `tools/`
//! (verification scaffolding) and `*tests.rs` module files are skipped
//! entirely.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const CATEGORIES: [&str; 4] = ["unwrap", "expect", "panic", "debug_assert"];
/// Violation-style lints: the baseline entry is pinned at zero; any
/// occurrence is a regression to fix, not to ratchet.
const VIOLATION_CATEGORIES: [&str; 3] = ["metric_drift", "lock_across_call", "child_count_walk"];
const BASELINE_FILE: &str = "lint-baseline.toml";
const METRIC_PREFIXES: [&str; 5] = ["engine.", "stats.", "plan_cache.", "plan.", "source."];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(args.iter().any(|a| a == "--update-baseline")),
        _ => {
            eprintln!("usage: cargo xtask lint [--update-baseline]");
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // xtask lives directly under the workspace root.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let dir = PathBuf::from(manifest);
    match dir.parent() {
        Some(p) if dir.ends_with("xtask") => p.to_path_buf(),
        _ => dir,
    }
}

fn lint(update_baseline: bool) -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &mut files);
    files.sort();

    let mut totals: BTreeMap<&str, usize> = CATEGORIES.iter().map(|c| (*c, 0)).collect();
    let mut per_file: Vec<(PathBuf, usize)> = Vec::new();
    let mut scanned: Vec<Scanned> = Vec::new();
    for f in &files {
        let source = match fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {}", f.display(), e);
                return ExitCode::FAILURE;
            }
        };
        let file = Scanned {
            path: f.strip_prefix(&root).unwrap_or(f).to_path_buf(),
            scan: scan(&source),
            source,
        };
        let counts = count_panic_paths(&file.scan);
        let file_total: usize = counts.values().sum();
        if file_total > 0 {
            per_file.push((file.path.clone(), file_total));
        }
        scanned.push(file);
        for (cat, n) in counts {
            if let Some(t) = totals.get_mut(cat) {
                *t += n;
            }
        }
    }

    println!("panic-path inventory over {} non-test files:", files.len());
    for cat in CATEGORIES {
        println!("  {:<13} {}", cat, totals[cat]);
    }
    per_file.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("top offenders:");
    for (path, n) in per_file.iter().take(10) {
        println!("  {:>4}  {}", n, path.display());
    }

    let metric_violations = check_metric_drift(&root, &scanned);
    let lock_violations = check_lock_across_call(&scanned);
    let count_violations = check_child_count_walk(&scanned);
    totals.insert("metric_drift", metric_violations.len());
    totals.insert("lock_across_call", lock_violations.len());
    totals.insert("child_count_walk", count_violations.len());
    for v in metric_violations.iter().chain(&lock_violations).chain(&count_violations) {
        eprintln!("  {}", v);
    }
    println!(
        "metric_drift: {}   lock_across_call: {}   child_count_walk: {}",
        metric_violations.len(),
        lock_violations.len(),
        count_violations.len()
    );

    let baseline_path = root.join(BASELINE_FILE);
    if update_baseline {
        let mut out = String::from(
            "# Panic-path lint baseline: maximum allowed occurrences in non-test code.\n\
             # Regenerated with `cargo xtask lint --update-baseline`. This is a\n\
             # ratchet: lower it as panic paths are removed; never raise it\n\
             # without a review.\n",
        );
        for cat in CATEGORIES {
            out.push_str(&format!("{} = {}\n", cat, totals[cat]));
        }
        out.push_str(
            "# Violation lints are pinned at zero: fix the code (or the\n\
             # crates/trace/README.md metric table), never the baseline.\n",
        );
        for cat in VIOLATION_CATEGORIES {
            out.push_str(&format!("{} = 0\n", cat));
        }
        if let Err(e) = fs::write(&baseline_path, out) {
            eprintln!("xtask lint: cannot write {}: {}", baseline_path.display(), e);
            return ExitCode::FAILURE;
        }
        println!("baseline updated: {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(t) => parse_baseline(&t),
        Err(e) => {
            eprintln!(
                "xtask lint: cannot read {} ({}); run `cargo xtask lint --update-baseline`",
                baseline_path.display(),
                e
            );
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for cat in CATEGORIES.into_iter().chain(VIOLATION_CATEGORIES) {
        let current = totals[cat];
        match baseline.get(cat) {
            Some(&allowed) if current > allowed => {
                eprintln!(
                    "REGRESSION: {} count {} exceeds baseline {} — return an error instead, \
                     or (after review) regenerate the baseline",
                    cat, current, allowed
                );
                failed = true;
            }
            Some(&allowed) => {
                if current < allowed {
                    println!(
                        "note: {} count {} is below baseline {}; ratchet down with --update-baseline",
                        cat, current, allowed
                    );
                }
            }
            None => {
                eprintln!("REGRESSION: baseline has no entry for {}", cat);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "lint OK: no panic-path, metric-drift, lock-across-call, or child-count-walk regressions"
        );
        ExitCode::SUCCESS
    }
}

/// Cross-check every `engine.*` / `stats.*` / `plan_cache.*` string
/// literal in non-test code against the metric inventory table in
/// `crates/trace/README.md`, in both directions. The xtask sources are
/// excluded: this lint's own prefix strings would otherwise match.
fn check_metric_drift(root: &Path, files: &[Scanned]) -> Vec<String> {
    let readme_rel = Path::new("crates/trace/README.md");
    let readme = fs::read_to_string(root.join(readme_rel)).unwrap_or_default();
    let table = parse_metric_table(&readme);

    // Metric name -> first file recording it.
    let mut used: BTreeMap<String, PathBuf> = BTreeMap::new();
    for f in files {
        if f.path.components().any(|c| c.as_os_str() == "xtask") {
            continue;
        }
        for (lit, in_test) in &f.scan.literals {
            if *in_test || !METRIC_PREFIXES.iter().any(|p| lit.starts_with(p)) {
                continue;
            }
            used.entry(normalize_metric(lit)).or_insert_with(|| f.path.clone());
        }
    }

    let mut violations = Vec::new();
    for (name, file) in &used {
        let covered = table.contains(name)
            || table.iter().any(|t| {
                t.strip_suffix('*')
                    .is_some_and(|p| p.ends_with('.') && name.starts_with(p))
            });
        if !covered {
            violations.push(format!(
                "metric_drift: `{}` (first seen in {}) is missing from {}'s metric inventory table",
                name,
                file.display(),
                readme_rel.display()
            ));
        }
    }
    for t in &table {
        let covered = match t.strip_suffix('*') {
            Some(prefix) => used.keys().any(|n| n.starts_with(prefix)) || used.contains_key(t),
            None => used.contains_key(t),
        };
        if !covered {
            violations.push(format!(
                "metric_drift: {} metric inventory lists `{}`, which no non-test code records",
                readme_rel.display(),
                t
            ));
        }
    }
    violations
}

/// Rows of the README's metric inventory: markdown table lines whose
/// first backticked cell starts with a lint-scoped prefix.
fn parse_metric_table(readme: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in readme.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else {
            continue;
        };
        let cell = cell.trim();
        let Some(name) = cell
            .strip_prefix('`')
            .and_then(|c| c.split('`').next())
        else {
            continue;
        };
        if METRIC_PREFIXES.iter().any(|p| name.starts_with(p)) {
            out.insert(name.to_string());
        }
    }
    out
}

/// Canonical form of a metric literal: `format!` holes (`{}`) become
/// `*`, and a concatenation stem ending in `.` gets a trailing `*`, so
/// both dynamic spellings collapse onto one starred family name.
fn normalize_metric(lit: &str) -> String {
    let mut name = lit.replace("{}", "*");
    if name.ends_with('.') {
        name.push('*');
    }
    name
}

/// Flag `.execute(` / `.fetch_collection(` adapter calls made while a
/// lock/borrow guard bound by a `let` in an enclosing scope is still
/// live. Scope-based, not statement-based: lock guards (and
/// `if let` scrutinee temporaries) live to the end of their block.
fn check_lock_across_call(files: &[Scanned]) -> Vec<String> {
    let mut violations = Vec::new();
    for f in files {
        for idx in lock_across_call_sites(&f.scan) {
            violations.push(format!(
                "lock_across_call: {}:{}: adapter call while a lock/borrow guard from an \
                 enclosing `let` is still held — drop the guard (or copy the data out) first",
                f.path.display(),
                f.line(idx)
            ));
        }
    }
    violations
}

/// Byte offsets of adapter calls under a live guard (see
/// [`check_lock_across_call`]); offsets index the original source.
fn lock_across_call_sites(scan: &Scan) -> Vec<usize> {
    let cleaned = &scan.code;
    let bytes = cleaned.as_bytes();
    let mut sites = Vec::new();
    let mut depth: usize = 0;
    // Brace depths at which a guard-binding `let` appeared; a guard
    // dies when its block closes.
    let mut guards: Vec<usize> = Vec::new();
    for (i, &c) in bytes.iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                guards.retain(|&d| d < depth);
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        if c == b'l'
            && cleaned[i..].starts_with("let")
            && (i == 0 || !is_ident_char(bytes[i - 1]))
            && !bytes.get(i + 3).copied().is_some_and(is_ident_char)
        {
            // Scan the `let` statement: up to `;` or a block `{` at
            // paren nesting 0 (an `if let` scrutinee ends there).
            let mut nest: usize = 0;
            let mut j = i + 3;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' | b'[' => nest += 1,
                    b')' | b']' => nest = nest.saturating_sub(1),
                    b';' | b'{' | b'}' if nest == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let stmt = &cleaned[i..j];
            if stmt.contains(".lock()") || stmt.contains(".borrow_mut()") {
                // A plain `let …;` guard lives in the current block;
                // an `if let`/`while let` scrutinee temporary lives
                // in the block the `{` terminator is about to open.
                let block_scoped = bytes.get(j) == Some(&b'{');
                guards.push(if block_scoped { depth + 1 } else { depth });
            }
        }
        if c == b'.'
            && (cleaned[i..].starts_with(".execute(")
                || cleaned[i..].starts_with(".fetch_collection("))
            && !guards.is_empty()
        {
            sites.push(i);
        }
    }
    sites
}

/// Flag `.child_elements().count()` / `.children().count()` in non-test
/// code: the count is a stored field (`child_element_count()`), and
/// walking for it chases one sibling link per child.
fn check_child_count_walk(files: &[Scanned]) -> Vec<String> {
    let mut violations = Vec::new();
    for f in files {
        for idx in child_count_walk_sites(&f.scan) {
            violations.push(format!(
                "child_count_walk: {}:{}: counting children by walking them — call \
                 `child_element_count()` (O(1)) instead",
                f.path.display(),
                f.line(idx)
            ));
        }
    }
    violations
}

/// Byte offsets of `.child_elements()` / `.children()` calls whose
/// result is `.count()`ed (whitespace between the calls allowed),
/// outside comments, strings and `#[cfg(test)]` items.
fn child_count_walk_sites(scan: &Scan) -> Vec<usize> {
    let cleaned = &scan.code;
    let mut sites = Vec::new();
    for walk in [".child_elements()", ".children()"] {
        for (i, _) in cleaned.match_indices(walk) {
            if cleaned[i + walk.len()..].trim_start().starts_with(".count()") {
                sites.push(i);
            }
        }
    }
    sites
}

fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if let Ok(n) = v.trim().parse::<usize>() {
                out.insert(k.trim().to_string(), n);
            }
        }
    }
    out
}

/// Recursively collect non-test `.rs` files.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    const SKIP_DIRS: [&str; 7] =
        ["target", "tests", "benches", "examples", "tools", ".git", ".claude"];
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") && !name.ends_with("tests.rs") {
            out.push(path);
        }
    }
}

/// Count panic-path tokens in one file, ignoring comments, string and
/// char literals, and code inside `#[cfg(test)]` items.
fn count_panic_paths(scan: &Scan) -> BTreeMap<&'static str, usize> {
    let cleaned = &scan.code;
    let bytes = cleaned.as_bytes();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if is_ident_start(c) && (i == 0 || !is_ident_char(bytes[i - 1])) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_char(bytes[j]) {
                j += 1;
            }
            let ident = &cleaned[i..j];
            let mut k = j;
            while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                k += 1;
            }
            let next = bytes.get(k).copied();
            let cat = match ident {
                "unwrap" | "expect" if next == Some(b'(') => {
                    if ident == "unwrap" {
                        Some("unwrap")
                    } else {
                        Some("expect")
                    }
                }
                "panic" if next == Some(b'!') => Some("panic"),
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne" if next == Some(b'!') => {
                    Some("debug_assert")
                }
                _ => None,
            };
            if let Some(cat) = cat {
                *counts.entry(cat).or_insert(0) += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    counts
}

/// A file the checks read: its path relative to the workspace root, its
/// text, and the one pass over it.
struct Scanned {
    path: PathBuf,
    source: String,
    scan: Scan,
}

impl Scanned {
    /// The line of byte offset `idx`.
    fn line(&self, idx: usize) -> usize {
        1 + self.source.as_bytes()[..idx].iter().filter(|&&b| b == b'\n').count()
    }
}

/// What every check reads of one source file.
struct Scan {
    /// The code: the source with comments and literals ([`strip_noise`])
    /// and the block of every `#[cfg(test)]` item replaced by spaces,
    /// position for position, so offsets index the source.
    code: String,
    /// Every string literal's content, and whether it sits inside a
    /// `#[cfg(test)]` item.
    literals: Vec<(String, bool)>,
}

/// One pass over `source`: its code and its string literals. Braces
/// inside literals never perturb the `#[cfg(test)]` depth tracking.
fn scan(source: &str) -> Scan {
    let (code, spans) = strip_noise(source);
    let mut bytes = code.into_bytes();
    // The blocks of `#[cfg(test)]` items, braces included.
    let mut tests: Vec<Range<usize>> = Vec::new();
    let mut depth: usize = 0;
    // Brace depth at which a `#[cfg(test)]` item's block began.
    let mut skip_at: Option<usize> = None;
    // A `#[cfg(test)]` attribute was seen and its item's `{` is pending.
    let mut pending = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'#' && bytes[i..].starts_with(b"#[cfg(test)]") {
            if skip_at.is_none() {
                pending = true;
            }
            i += "#[cfg(test)]".len();
            continue;
        }
        let was_skipping = skip_at.is_some();
        match c {
            b'{' => {
                depth += 1;
                if pending {
                    skip_at = Some(depth);
                    tests.push(i..bytes.len());
                    pending = false;
                }
            }
            b'}' => {
                if skip_at == Some(depth) {
                    skip_at = None;
                    if let Some(block) = tests.last_mut() {
                        block.end = i + 1;
                    }
                }
                depth = depth.saturating_sub(1);
            }
            // `#[cfg(test)] mod foo;` — the item has no block here.
            b';' => pending = false,
            _ => {}
        }
        // Both braces of a skipped block go with it, so what is left
        // stays balanced.
        if was_skipping || skip_at.is_some() {
            bytes[i] = b' ';
        }
        i += 1;
    }
    let literals = spans
        .into_iter()
        .map(|span| (source[span.clone()].to_string(), tests.iter().any(|t| t.contains(&span.start))))
        .collect();
    // Only ASCII was written over ASCII-or-space.
    Scan {
        code: String::from_utf8(bytes).unwrap_or_default(),
        literals,
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Replace comments, string literals, and char literals with spaces so
/// the counting pass only ever sees code, and say where each string
/// literal's content is. Handles nested block comments, escapes, raw
/// strings (`r#"…"#`), and byte strings.
fn strip_noise(source: &str) -> (String, Vec<Range<usize>>) {
    let b = source.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut literals = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut nest = 1;
                i += 2;
                while i < b.len() && nest > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        nest += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        nest -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let end = skip_string(b, i);
                literals.push(i + 1..end.saturating_sub(1).max(i + 1));
                i = end;
            }
            b'r' | b'b' => {
                // Possible raw/byte string start: r", r#"…, br", b"….
                let start = i;
                let mut j = i + 1;
                let mut is_raw = b[i] == b'r';
                if b[i] == b'b' && b.get(j) == Some(&b'r') {
                    is_raw = true;
                    j += 1;
                }
                let mut hashes = 0;
                if is_raw {
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                }
                if b.get(j) == Some(&b'"') && (start == 0 || !is_ident_char(b[start - 1])) {
                    if is_raw {
                        i = skip_raw_string(b, j, hashes);
                        literals.push(j + 1..i.saturating_sub(1 + hashes).max(j + 1));
                    } else {
                        i = skip_string(b, j); // byte string, has escapes
                        literals.push(j + 1..i.saturating_sub(1).max(j + 1));
                    }
                } else {
                    // Ordinary identifier character; copy it through.
                    out[start] = b[start];
                    i = start + 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal is '\…' or 'X'.
                if b.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1; // lifetime tick; drop it, keep scanning
                }
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    // Non-ASCII bytes were replaced by spaces position-for-position, so
    // this cannot fail; an empty string rather than a panic if it does.
    (String::from_utf8(out).unwrap_or_default(), literals)
}

/// Skip a normal string literal starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_string(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string whose opening quote is at `quote`, closed by a
/// quote followed by `hashes` hash marks.
fn skip_raw_string(b: &[u8], quote: usize, hashes: usize) -> usize {
    let mut i = quote + 1;
    while i < b.len() {
        if b[i] == b'"' {
            let mut ok = true;
            for h in 0..hashes {
                if b.get(i + 1 + h) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_outside_tests_only() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    // x.unwrap() in a comment does not count
    let s = "panic!() in a string does not count";
    let _ = s;
    debug_assert!(true);
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn g() {
        super::f(None).expect("boom");
        panic!("only in tests");
    }
}
"#;
        let counts = count_panic_paths(&scan(src));
        assert_eq!(counts.get("unwrap"), Some(&1));
        assert_eq!(counts.get("debug_assert"), Some(&1));
        assert_eq!(counts.get("expect"), None);
        assert_eq!(counts.get("panic"), None);
    }

    #[test]
    fn cfg_test_on_mod_decl_does_not_swallow_code() {
        let src = "#[cfg(test)]\nmod engine_tests;\nfn f() { None::<u32>.unwrap(); }\n";
        let counts = count_panic_paths(&scan(src));
        assert_eq!(counts.get("unwrap"), Some(&1));
    }

    #[test]
    fn raw_strings_and_chars_are_noise() {
        let src = "fn f() { let _ = r#\"panic!\"#; let _c = '\\''; let _l: &'static str = \"x\"; Some(1).unwrap(); }";
        let counts = count_panic_paths(&scan(src));
        assert_eq!(counts.get("panic"), None);
        assert_eq!(counts.get("unwrap"), Some(&1));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f() { let _ = None.unwrap_or(3); }";
        assert!(count_panic_paths(&scan(src)).is_empty());
    }

    #[test]
    fn metric_normalization_collapses_dynamic_spellings() {
        assert_eq!(normalize_metric("engine.phase_us.{}"), "engine.phase_us.*");
        assert_eq!(normalize_metric("engine.phase_us."), "engine.phase_us.*");
        assert_eq!(normalize_metric("engine.queries"), "engine.queries");
    }

    #[test]
    fn string_literals_skip_tests_comments_and_raw_strings() {
        let src = r##"
fn f() {
    let a = "engine.queries";
    // "engine.not_me" in a comment
    let b = r#"engine.raw"#;
    let _ = (a, b);
}
#[cfg(test)]
mod tests {
    fn g() { let _ = "engine.test_only"; }
}
"##;
        let lits = scan(src).literals;
        assert!(lits.contains(&("engine.queries".to_string(), false)));
        assert!(lits.contains(&("engine.raw".to_string(), false)));
        assert!(lits.contains(&("engine.test_only".to_string(), true)));
        assert!(!lits.iter().any(|(s, _)| s == "engine.not_me"));
    }

    #[test]
    fn metric_table_rows_are_parsed() {
        let readme = "\
| Metric | Kind |\n\
|--------|------|\n\
| `engine.queries` | counter |\n\
| `engine.phase_us.*` | histogram |\n\
| `Trace` | not a metric |\n";
        let t = parse_metric_table(readme);
        assert!(t.contains("engine.queries"));
        assert!(t.contains("engine.phase_us.*"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lock_held_across_adapter_call_is_flagged() {
        let src = "\
fn bad(a: &dyn A) {
    let guard = self.inner.lock();
    let _ = a.execute(&q);
}
";
        assert_eq!(lock_across_call_sites(&scan(src)).len(), 1);
    }

    #[test]
    fn guard_dropped_before_call_is_clean() {
        let src = "\
fn good(a: &dyn A) {
    {
        let guard = self.inner.lock();
        guard.touch();
    }
    let _ = a.execute(&q);
    let rows = a.fetch_collection(\"c\");
}
fn also_good() {
    let g = self.inner.lock();
    g.no_adapter_calls_here();
}
";
        assert!(lock_across_call_sites(&scan(src)).is_empty());
    }

    #[test]
    fn if_let_scrutinee_guard_is_scope_live() {
        // `if let` scrutinee temporaries live to the end of the block.
        let src = "\
fn f(a: &dyn A) {
    if let Some(v) = self.map.lock().get(&k) {
        let _ = a.execute(&q);
    }
    let _ = a.execute(&q);
}
";
        assert_eq!(lock_across_call_sites(&scan(src)).len(), 1);
    }

    #[test]
    fn counting_children_by_walking_is_flagged_outside_tests() {
        let src = "\
fn rows(doc: &Doc) -> usize {
    // doc.root().children().count() in a comment does not count
    let a = doc.root().child_elements().count();
    let b = doc.root()
        .children()
        .count();
    let fine = doc.root().children().filter(|c| c.is_element()).count();
    a + b + fine + doc.root().child_element_count()
}
#[cfg(test)]
mod tests {
    fn t(doc: &Doc) { assert_eq!(doc.root().children().count(), 3); }
}
";
        assert_eq!(child_count_walk_sites(&scan(src)).len(), 2);
    }

    #[test]
    fn guards_in_test_code_are_ignored() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f(a: &dyn A) {
        let g = self.inner.lock();
        let _ = a.execute(&q);
    }
}
";
        assert!(lock_across_call_sites(&scan(src)).is_empty());
    }
}
