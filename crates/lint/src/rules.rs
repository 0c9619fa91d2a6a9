//! The rule catalogue and the token-stream scanners behind it.
//!
//! Five named rules, each enforcing a contract the ROADMAP states in
//! prose and the test suites check after the fact:
//!
//! * **panic-path** (R1) — no `.unwrap()` / `.expect(…)` in non-test,
//!   non-bin library code. Worker cells record `failed,<reason>` rows;
//!   a panic in library code tears down a whole worker instead.
//! * **determinism** (R2) — no `HashMap`/`HashSet`, `SystemTime::now`,
//!   `thread_rng`, or `rand::random` in crates/paths tagged
//!   deterministic. Output must be byte-identical at any
//!   `--threads/--clients/--peers` count; iteration over a
//!   randomized-order container in a merge path silently breaks that.
//! * **float-order** (R3) — no `partial_cmp` anywhere in library code:
//!   a NaN reaching a `sort_by(partial_cmp…unwrap)` comparator is the
//!   exact panic class PR 4 fixed by hand. Use `f64::total_cmp`.
//! * **wire-cast** (R4) — no truncating `as` casts to narrow integer
//!   types in `ba-net` frame/wire code; use `try_from` so a corrupt
//!   length fails loudly instead of wrapping.
//! * **missing-docs** (R5) — every `pub` item (fn, struct, enum,
//!   trait, mod, type, const, static) in crates that opt in via
//!   `[docs-required-crates]` must carry a doc comment. Unlike
//!   `#![warn(missing_docs)]` this is enforced in CI with the same
//!   ratchet and pragma machinery as the other rules, so a public API
//!   cannot regress to undocumented silently.
//!
//! Every rule is suppressible only by an inline pragma on the same or
//! the preceding line:
//!
//! ```text
//! // ba-lint: allow(<rule>) -- <non-empty justification>
//! ```
//!
//! A pragma with a missing justification or an unknown rule name is a
//! hard error, not a suppression.

use crate::lexer::{lex, Tok, TokKind};
use std::fmt;

/// The rule identifiers. Ordering is the report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R1: `.unwrap()` / `.expect(` in library code.
    PanicPath,
    /// R2: hash collections / wall clock / ambient RNG in
    /// deterministic crates and paths.
    Determinism,
    /// R3: `partial_cmp` instead of `total_cmp`.
    FloatOrder,
    /// R4: truncating `as` casts in wire code.
    WireCast,
    /// R5: undocumented `pub` items in docs-required crates.
    MissingDocs,
}

pub const ALL_RULES: [Rule; 5] = [
    Rule::PanicPath,
    Rule::Determinism,
    Rule::FloatOrder,
    Rule::WireCast,
    Rule::MissingDocs,
];

impl Rule {
    /// The pragma / baseline-section name.
    pub fn key(self) -> &'static str {
        match self {
            Rule::PanicPath => "panic-path",
            Rule::Determinism => "determinism",
            Rule::FloatOrder => "float-order",
            Rule::WireCast => "wire-cast",
            Rule::MissingDocs => "missing-docs",
        }
    }

    pub fn from_key(key: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.key() == key)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Where a file sits, which decides which rules apply to it.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Package name of the owning crate (`ba-core`, ...).
    pub crate_name: String,
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// R2 applies (crate or path is tagged deterministic).
    pub deterministic: bool,
    /// R4 applies (frame/wire code).
    pub wire: bool,
    /// R5 applies (crate opted into required public docs).
    pub docs: bool,
}

/// One rule hit at one source line.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub crate_name: String,
    pub rel_path: String,
    pub line: u32,
    pub message: String,
    /// `Some(justification)` when an inline pragma suppressed it.
    pub suppressed: Option<String>,
}

/// A malformed suppression pragma — always a hard error.
#[derive(Debug, Clone)]
pub struct PragmaError {
    pub rel_path: String,
    pub line: u32,
    pub message: String,
}

/// Scans one file's source. Returns all hits (suppressed ones carry
/// their justification) plus any pragma errors.
pub fn scan_source(ctx: &FileContext, src: &str) -> (Vec<Violation>, Vec<PragmaError>) {
    let toks = lex(src);
    let (pragmas, pragma_errors) = collect_pragmas(ctx, &toks);

    // Rule matching works on the comment-free stream; test-region
    // detection and adjacency must not be broken by interleaved
    // comments.
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    let in_test = test_regions(&code);

    let mut raw_hits: Vec<(Rule, u32, String)> = Vec::new();
    for (i, &in_test) in in_test.iter().enumerate() {
        if in_test {
            continue;
        }
        r1_panic_path(&code, i, &mut raw_hits);
        if ctx.deterministic {
            r2_determinism(&code, i, &mut raw_hits);
        }
        r3_float_order(&code, i, &mut raw_hits);
        if ctx.wire {
            r4_wire_cast(&code, i, &mut raw_hits);
        }
    }

    // R5 needs the comments (doc adjacency), so it walks the full
    // stream, masked by the test-region *lines* computed above.
    if ctx.docs {
        let test_lines: std::collections::BTreeSet<u32> = code
            .iter()
            .zip(&in_test)
            .filter(|&(_, &t)| t)
            .map(|(tok, _)| tok.line)
            .collect();
        let all: Vec<&Tok> = toks.iter().collect();
        r5_missing_docs(&all, &test_lines, &mut raw_hits);
    }

    let violations = raw_hits
        .into_iter()
        .map(|(rule, line, message)| {
            let suppressed = pragmas
                .iter()
                .find(|p| p.rule == rule && (p.line == line || p.line + 1 == line))
                .map(|p| p.justification.clone());
            Violation {
                rule,
                crate_name: ctx.crate_name.clone(),
                rel_path: ctx.rel_path.clone(),
                line,
                message,
                suppressed,
            }
        })
        .collect();
    (violations, pragma_errors)
}

fn ident<'a>(code: &'a [&Tok], i: usize) -> Option<&'a str> {
    match code.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(code: &[&Tok], i: usize, c: char) -> bool {
    matches!(code.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// R1: `.unwrap()` / `.expect(`.
fn r1_panic_path(code: &[&Tok], i: usize, out: &mut Vec<(Rule, u32, String)>) {
    if !punct(code, i, '.') {
        return;
    }
    let Some(name) = ident(code, i + 1) else {
        return;
    };
    if (name == "unwrap" || name == "expect") && punct(code, i + 2, '(') {
        out.push((
            Rule::PanicPath,
            code[i + 1].line,
            format!(".{name}() can panic; return a typed error or record a failed row"),
        ));
    }
}

/// R2: `HashMap` / `HashSet` / `SystemTime::now` / `thread_rng` /
/// `rand::random` in deterministic code.
fn r2_determinism(code: &[&Tok], i: usize, out: &mut Vec<(Rule, u32, String)>) {
    let Some(name) = ident(code, i) else {
        return;
    };
    let line = code[i].line;
    match name {
        "HashMap" | "HashSet" => out.push((
            Rule::Determinism,
            line,
            format!("{name} has randomized iteration order; use BTreeMap/BTreeSet or a sorted Vec"),
        )),
        "SystemTime" if path_seg(code, i + 1, "now") => out.push((
            Rule::Determinism,
            line,
            "SystemTime::now() makes output depend on the wall clock".to_string(),
        )),
        "thread_rng" => out.push((
            Rule::Determinism,
            line,
            "thread_rng() is ambiently seeded; derive seeds per cell instead".to_string(),
        )),
        "rand" if path_seg(code, i + 1, "random") => out.push((
            Rule::Determinism,
            line,
            "rand::random() is ambiently seeded; derive seeds per cell instead".to_string(),
        )),
        _ => {}
    }
}

/// True when tokens at `i` are `:: seg`.
fn path_seg(code: &[&Tok], i: usize, seg: &str) -> bool {
    punct(code, i, ':') && punct(code, i + 1, ':') && ident(code, i + 2) == Some(seg)
}

/// R3: any `partial_cmp` identifier (method call or fn path).
fn r3_float_order(code: &[&Tok], i: usize, out: &mut Vec<(Rule, u32, String)>) {
    if ident(code, i) == Some("partial_cmp") {
        out.push((
            Rule::FloatOrder,
            code[i].line,
            "partial_cmp returns None on NaN; use f64::total_cmp".to_string(),
        ));
    }
}

/// Narrow integer targets an `as` cast can truncate into. `usize` is
/// included: `u64 as usize` truncates on 32-bit targets, and wire code
/// is exactly where attacker-controlled u64 lengths appear.
const NARROW_INTS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize"];

/// R4: `as <narrow-int>` in wire code.
fn r4_wire_cast(code: &[&Tok], i: usize, out: &mut Vec<(Rule, u32, String)>) {
    if ident(code, i) != Some("as") {
        return;
    }
    let Some(target) = ident(code, i + 1) else {
        return;
    };
    if NARROW_INTS.contains(&target) {
        out.push((
            Rule::WireCast,
            code[i].line,
            format!("`as {target}` silently truncates; use try_from so corrupt input fails loudly"),
        ));
    }
}

/// Item keywords whose `pub` form must carry a doc comment. Public
/// fields, `pub use` re-exports, and trait members are deliberately
/// out of scope — this tracks `#![warn(missing_docs)]`'s high-order
/// bit (named public items), not its full reach.
const DOC_ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "union",
];

/// R5: `pub <item>` with no doc comment. Walks the *full* token stream
/// tracking whether a doc comment is still pending when a `pub` item
/// head is reached: doc comments set the flag, attributes (`#[...]`)
/// pass it through, any other token clears it.
fn r5_missing_docs(
    all: &[&Tok],
    test_lines: &std::collections::BTreeSet<u32>,
    out: &mut Vec<(Rule, u32, String)>,
) {
    let mut documented = false;
    let mut i = 0;
    while i < all.len() {
        match &all[i].kind {
            TokKind::Comment(text) => {
                // `/// x` arrives as `/ x` and `/** x` as `* x` —
                // outer doc comments, which document the next item.
                // Inner docs (`//! x` → `! x`) document the enclosing
                // scope, so they *clear* the flag: the crate-level
                // header must not vouch for the first item after it.
                // Plain comments neither set nor clear (a pragma
                // between doc and item must not strip the doc).
                if text.starts_with(['/', '*']) {
                    documented = true;
                } else if text.starts_with('!') {
                    documented = false;
                }
                i += 1;
            }
            TokKind::Punct('#') if punct(all, i + 1, '[') => {
                // Attributes between the doc comment and the item
                // (`#[derive(...)]`, `#[inline]`) keep the doc alive.
                match matching(all, i + 1, '[', ']') {
                    Some(e) => i = e + 1,
                    None => return,
                }
            }
            TokKind::Ident(kw) if kw == "pub" => {
                let line = all[i].line;
                if punct(all, i + 1, '(') {
                    // `pub(crate)` / `pub(super)`: not public API.
                    match matching(all, i + 1, '(', ')') {
                        Some(e) => i = e + 1,
                        None => return,
                    }
                    continue;
                }
                // Skip modifiers (`unsafe`, `async`, `extern "C"`,
                // `const fn`) to reach the item keyword.
                let mut j = i + 1;
                loop {
                    match ident(all, j) {
                        Some("unsafe") | Some("async") => j += 1,
                        Some("extern") => {
                            j += 1;
                            if matches!(all.get(j).map(|t| &t.kind), Some(TokKind::Lit)) {
                                j += 1;
                            }
                        }
                        Some("const") if ident(all, j + 1) == Some("fn") => j += 1,
                        _ => break,
                    }
                }
                if let Some(kw) = ident(all, j) {
                    if DOC_ITEM_KEYWORDS.contains(&kw) && !documented && !test_lines.contains(&line)
                    {
                        let name = ident(all, j + 1).unwrap_or("_");
                        out.push((
                            Rule::MissingDocs,
                            line,
                            format!("public {kw} `{name}` has no doc comment"),
                        ));
                    }
                }
                documented = false;
                i = j.max(i + 1);
            }
            _ => {
                documented = false;
                i += 1;
            }
        }
    }
}

/// Lines of `src` outside its `#[cfg(test)]` items: the file's library
/// code, its comments and blank lines included. A test item spans the
/// lines from its attribute to its last token.
pub fn library_lines(src: &str) -> usize {
    let toks = lex(src);
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    let in_test = test_regions(&code);
    let mut test_lines = 0;
    let mut region: Option<(u32, u32)> = None;
    for (tok, &t) in code.iter().zip(&in_test) {
        region = match (region, t) {
            (None, true) => Some((tok.line, tok.line)),
            (Some((first, _)), true) => Some((first, tok.line)),
            (Some((first, last)), false) => {
                test_lines += (last - first + 1) as usize;
                None
            }
            (None, false) => None,
        };
    }
    if let Some((first, last)) = region {
        test_lines += (last - first + 1) as usize;
    }
    src.lines().count().saturating_sub(test_lines)
}

/// Computes, per token, whether it sits inside a `#[cfg(test)]` item
/// (module, fn, impl, or `use`). Conservative in the right direction:
/// an unrecognized shape is treated as non-test, so real violations
/// are never hidden by accident.
fn test_regions(code: &[&Tok]) -> Vec<bool> {
    let mut flag = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if punct(code, i, '#') && punct(code, i + 1, '[') {
            let attr_start = i;
            let Some(attr_end) = matching(code, i + 1, '[', ']') else {
                break;
            };
            // `cfg(not(test))` gates *shipped* code — only a `test`
            // without a `not` in the attribute marks a test region.
            let is_test_cfg = (i + 2..attr_end).any(|k| ident(code, k) == Some("cfg"))
                && (i + 2..attr_end).any(|k| ident(code, k) == Some("test"))
                && !(i + 2..attr_end).any(|k| ident(code, k) == Some("not"));
            i = attr_end + 1;
            if !is_test_cfg {
                continue;
            }
            // Skip any further attributes on the same item.
            while punct(code, i, '#') && punct(code, i + 1, '[') {
                match matching(code, i + 1, '[', ']') {
                    Some(e) => i = e + 1,
                    None => return flag,
                }
            }
            // The item extends to its closing brace, or to a `;` at
            // item level (e.g. `#[cfg(test)] use …;`).
            let mut depth_paren = 0i32;
            let mut depth_brack = 0i32;
            let mut j = i;
            let end = loop {
                match code.get(j).map(|t| &t.kind) {
                    None => break code.len().saturating_sub(1),
                    Some(TokKind::Punct('(')) => depth_paren += 1,
                    Some(TokKind::Punct(')')) => depth_paren -= 1,
                    Some(TokKind::Punct('[')) => depth_brack += 1,
                    Some(TokKind::Punct(']')) => depth_brack -= 1,
                    Some(TokKind::Punct('{')) => {
                        break matching(code, j, '{', '}').unwrap_or(code.len() - 1)
                    }
                    Some(TokKind::Punct(';')) if depth_paren == 0 && depth_brack == 0 => break j,
                    _ => {}
                }
                j += 1;
            };
            for f in flag.iter_mut().take(end + 1).skip(attr_start) {
                *f = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    flag
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(code: &[&Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open_idx) {
        match &t.kind {
            TokKind::Punct(c) if *c == open => depth += 1,
            TokKind::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

struct Pragma {
    rule: Rule,
    line: u32,
    justification: String,
}

/// Extracts `ba-lint: allow(<rule>) -- <justification>` pragmas from
/// the comment tokens. Malformed pragmas become hard errors.
fn collect_pragmas(ctx: &FileContext, toks: &[Tok]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for t in toks {
        let TokKind::Comment(text) = &t.kind else {
            continue;
        };
        // Doc comments arrive as `/ <text>` (the third slash) — strip
        // leading slashes and `!` so `/// ba-lint:` still parses.
        let body = text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = body.strip_prefix("ba-lint:") else {
            continue;
        };
        match parse_pragma(rest.trim()) {
            Ok((rule, justification)) => pragmas.push(Pragma {
                rule,
                line: t.line,
                justification,
            }),
            Err(message) => errors.push(PragmaError {
                rel_path: ctx.rel_path.clone(),
                line: t.line,
                message,
            }),
        }
    }
    (pragmas, errors)
}

/// Parses the part after `ba-lint:`.
fn parse_pragma(rest: &str) -> Result<(Rule, String), String> {
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<rule>) -- <justification>`, got `{rest}`"
        ));
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `allow(` in pragma".to_string());
    };
    let rule_name = inner[..close].trim();
    let Some(rule) = Rule::from_key(rule_name) else {
        let known: Vec<&str> = ALL_RULES.iter().map(|r| r.key()).collect();
        return Err(format!(
            "unknown rule `{rule_name}` (known: {})",
            known.join(", ")
        ));
    };
    let tail = inner[close + 1..].trim();
    let Some(justification) = tail.strip_prefix("--") else {
        return Err("pragma is missing the ` -- <justification>` tail".to_string());
    };
    let justification = justification.trim();
    if justification.is_empty() {
        return Err("pragma justification must not be empty".to_string());
    }
    Ok((rule, justification.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(deterministic: bool, wire: bool) -> FileContext {
        FileContext {
            crate_name: "ba-test".to_string(),
            rel_path: "crates/test/src/lib.rs".to_string(),
            deterministic,
            wire,
            docs: false,
        }
    }

    fn docs_ctx() -> FileContext {
        FileContext {
            docs: true,
            ..ctx(false, false)
        }
    }

    fn hits(ctx: &FileContext, src: &str) -> Vec<Violation> {
        let (v, e) = scan_source(ctx, src);
        assert!(e.is_empty(), "unexpected pragma errors: {e:?}");
        v.into_iter().filter(|v| v.suppressed.is_none()).collect()
    }

    #[test]
    fn unwrap_in_cfg_test_mod_is_ignored() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
        assert!(hits(&ctx(false, false), src).is_empty());
    }

    #[test]
    fn library_lines_leave_out_test_items() {
        let src = "//! Doc.\npub fn f() {}\n\n#[cfg(test)]\nmod tests {\n  // x\n  fn t() {}\n}\n#[cfg(test)] use std::fmt;\npub fn g() {}\n";
        assert_eq!(library_lines(src), 4);
        assert_eq!(library_lines("pub fn f() {}\n"), 1);
        assert_eq!(library_lines(""), 0);
    }

    #[test]
    fn unwrap_outside_test_mod_is_flagged() {
        let src = "pub fn f() { Some(1).unwrap(); }";
        let v = hits(&ctx(false, false), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PanicPath);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let src = "pub fn f() { Some(1).unwrap_or_else(|| 2); Some(1).unwrap_or(3); }";
        assert!(hits(&ctx(false, false), src).is_empty());
    }

    #[test]
    fn pragma_on_same_or_previous_line_suppresses() {
        let same = "pub fn f() { x.lock().unwrap(); } // ba-lint: allow(panic-path) -- poisoned lock means a worker already panicked\n";
        let prev = "// ba-lint: allow(panic-path) -- poisoned lock means a worker already panicked\npub fn f() { x.lock().unwrap(); }\n";
        for src in [same, prev] {
            let (v, e) = scan_source(&ctx(false, false), src);
            assert!(e.is_empty());
            assert_eq!(v.len(), 1);
            assert!(v[0].suppressed.is_some(), "src: {src}");
        }
    }

    #[test]
    fn pragma_without_justification_is_an_error() {
        let src = "// ba-lint: allow(panic-path)\npub fn f() { x.unwrap(); }\n";
        let (_, e) = scan_source(&ctx(false, false), src);
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("justification"));
    }

    #[test]
    fn pragma_with_unknown_rule_is_an_error() {
        let src = "// ba-lint: allow(no-such-rule) -- because\n";
        let (_, e) = scan_source(&ctx(false, false), src);
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("unknown rule"));
    }

    #[test]
    fn determinism_rule_only_fires_in_tagged_files() {
        let src = "use std::collections::HashMap;\n";
        assert!(hits(&ctx(false, false), src).is_empty());
        let v = hits(&ctx(true, false), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Determinism);
    }

    #[test]
    fn determinism_catches_clock_and_ambient_rng() {
        let src = "fn f() { let t = SystemTime::now(); let r = thread_rng(); let x: u8 = rand::random(); }";
        let v = hits(&ctx(true, false), src);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn float_order_catches_method_and_path_forms() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); xs.sort_by(f64::partial_cmp); }";
        let v = hits(&ctx(false, false), src);
        let fo = v.iter().filter(|v| v.rule == Rule::FloatOrder).count();
        assert_eq!(fo, 2);
        // The `.unwrap()` in the comparator is also a panic path.
        assert_eq!(v.iter().filter(|v| v.rule == Rule::PanicPath).count(), 1);
    }

    #[test]
    fn wire_cast_catches_narrowing_only() {
        let src = "fn f(len: u64) { let a = len as usize; let b = len as u32; let c = 3u32 as u64; let d = x as f64; }";
        let v = hits(&ctx(false, true), src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == Rule::WireCast));
        assert!(hits(&ctx(false, false), src).is_empty());
    }

    #[test]
    fn string_literals_never_match() {
        let src = r#"pub fn f() -> &'static str { "call .unwrap() or partial_cmp or HashMap" }"#;
        assert!(hits(&ctx(true, true), src).is_empty());
    }

    #[test]
    fn missing_docs_flags_undocumented_pub_items() {
        let src = "pub fn f() {}\npub struct S;\npub enum E { A }\n";
        let v = hits(&docs_ctx(), src);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.rule == Rule::MissingDocs));
        assert!(v[0].message.contains("public fn `f`"), "{}", v[0].message);
        // Opt-in only: the same source is clean without the docs tag.
        assert!(hits(&ctx(false, false), src).is_empty());
    }

    #[test]
    fn missing_docs_accepts_documented_items() {
        let src = "/// Does f.\npub fn f() {}\n\n/// S holds state.\n#[derive(Debug)]\npub struct S;\n\n/** block doc */\npub mod m {}\n";
        assert!(hits(&docs_ctx(), src).is_empty());
    }

    #[test]
    fn missing_docs_skips_non_public_shapes() {
        let src = "fn private() {}\npub(crate) fn semi() {}\npub use other::Thing;\n/// Doc.\npub struct S { pub field: u32 }\n";
        assert!(hits(&docs_ctx(), src).is_empty());
    }

    #[test]
    fn missing_docs_sees_through_attributes_and_modifiers() {
        let src = "/// Doc.\n#[inline]\n#[must_use]\npub const fn f() -> u32 { 1 }\n/// Doc.\npub unsafe extern \"C\" fn g() {}\n";
        assert!(hits(&docs_ctx(), src).is_empty());
        let bare = "#[inline]\npub const fn f() -> u32 { 1 }\n";
        let v = hits(&docs_ctx(), bare);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("public fn `f`"));
    }

    #[test]
    fn missing_docs_ignores_test_regions_and_respects_pragma() {
        let src = "#[cfg(test)]\npub mod helpers { }\n";
        assert!(hits(&docs_ctx(), src).is_empty());
        let pragma =
            "// ba-lint: allow(missing-docs) -- generated shim, documented at the macro site\npub fn f() {}\n";
        let (v, e) = scan_source(&docs_ctx(), pragma);
        assert!(e.is_empty());
        assert_eq!(v.len(), 1);
        assert!(v[0].suppressed.is_some());
    }

    #[test]
    fn cfg_test_use_item_only_masks_itself() {
        let src =
            "#[cfg(test)]\nuse std::collections::HashMap;\npub fn f() { Some(1).unwrap(); }\n";
        let v = hits(&ctx(true, false), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PanicPath);
    }
}
