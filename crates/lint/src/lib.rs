//! `ba-lint` — the workspace invariant linter.
//!
//! Walks every library source file in the workspace (crate `src/`
//! trees, excluding `src/bin/`, `src/main.rs`, `tests/`, `benches/`,
//! `examples/`, and `#[cfg(test)]` regions) and enforces the project
//! contracts as named rules — see [`rules`] for the catalogue,
//! [`baseline`] for the ratchet, and DESIGN.md §11 for the prose
//! contract. The binary front-end lives in `src/main.rs`; this library
//! exists so the fixture suite under `tests/` can drive the engine
//! directly.

pub mod baseline;
pub mod lexer;
pub mod rules;

use ba_net::BenchReport;
use rules::{FileContext, PragmaError, Rule, Violation, ALL_RULES};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which files each context-sensitive rule applies to. Crate names are
/// package names; path prefixes are workspace-relative with `/`
/// separators.
#[derive(Debug, Clone)]
pub struct LintConfig {
    pub root: PathBuf,
    /// R2 applies to every library file of these crates.
    pub deterministic_crates: Vec<String>,
    /// R2 also applies to files under these path prefixes (for crates
    /// that are only partially deterministic, like `ba-bench`).
    pub deterministic_path_prefixes: Vec<String>,
    /// R4 applies to every library file of these crates.
    pub wire_crates: Vec<String>,
    /// R5 applies to every library file of these crates (public items
    /// must carry doc comments).
    pub docs_required_crates: Vec<String>,
}

impl LintConfig {
    /// Loads the tag sets from `<root>/ba-lint.toml` when present,
    /// falling back to [`LintConfig::for_workspace`]. The file uses
    /// the same TOML subset as the baseline:
    ///
    /// ```toml
    /// schema = 1
    /// [deterministic-crates]
    /// "ba-graph" = true
    /// [deterministic-paths]
    /// "crates/bench/src/runner.rs" = true
    /// [wire-crates]
    /// "ba-net" = true
    /// [docs-required-crates]
    /// "ba-graph" = true
    /// ```
    pub fn load(root: PathBuf) -> Result<LintConfig, LintError> {
        let path = root.join("ba-lint.toml");
        if !path.is_file() {
            return Ok(LintConfig::for_workspace(root));
        }
        let text = std::fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
        let mut config = LintConfig {
            root,
            deterministic_crates: Vec::new(),
            deterministic_path_prefixes: Vec::new(),
            wire_crates: Vec::new(),
            docs_required_crates: Vec::new(),
        };
        let mut section: Option<&mut Vec<String>> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name.trim() {
                    "deterministic-crates" => Some(&mut config.deterministic_crates),
                    "deterministic-paths" => Some(&mut config.deterministic_path_prefixes),
                    "wire-crates" => Some(&mut config.wire_crates),
                    "docs-required-crates" => Some(&mut config.docs_required_crates),
                    other => {
                        return Err(LintError::Config(
                            path,
                            (idx + 1) as u32,
                            format!("unknown section `[{other}]`"),
                        ))
                    }
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(LintError::Config(
                    path,
                    (idx + 1) as u32,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let (key, value) = (key.trim().trim_matches('"'), value.trim());
            match &mut section {
                None if key == "schema" && value == "1" => {}
                None => {
                    return Err(LintError::Config(
                        path,
                        (idx + 1) as u32,
                        format!("unexpected top-level entry `{key} = {value}`"),
                    ))
                }
                Some(list) => {
                    if value != "true" {
                        return Err(LintError::Config(
                            path,
                            (idx + 1) as u32,
                            format!("tag values must be `true`, got `{value}`"),
                        ));
                    }
                    list.push(key.to_string());
                }
            }
        }
        Ok(config)
    }

    /// The built-in tag sets for *this* workspace, used when no
    /// `ba-lint.toml` overrides them. Adding a crate to a contract
    /// means adding it here (and documenting it in DESIGN.md §11).
    pub fn for_workspace(root: PathBuf) -> LintConfig {
        let det = [
            "ba-graph",
            "ba-linalg",
            "ba-oddball",
            "ba-core",
            "ba-stream",
        ];
        let det_paths = [
            "crates/bench/src/runner.rs",
            "crates/bench/src/artifact.rs",
            "crates/bench/src/graphstore.rs",
            "crates/bench/src/experiments/",
            "crates/bench/src/distrib/",
        ];
        LintConfig {
            root,
            deterministic_crates: det.iter().map(|s| s.to_string()).collect(),
            deterministic_path_prefixes: det_paths.iter().map(|s| s.to_string()).collect(),
            wire_crates: vec!["ba-net".to_string()],
            docs_required_crates: vec!["ba-graph".to_string()],
        }
    }
}

/// Everything one lint run produced. Suppressed violations are kept
/// (with their justification) so reports can show them; only
/// unsuppressed ones count against the baseline.
#[derive(Debug, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    pub pragma_errors: Vec<PragmaError>,
    pub files_scanned: usize,
    /// Lines per crate over the files scanned, `#[cfg(test)]` items left
    /// out: the size of each crate's library code.
    pub src_lines: BTreeMap<String, usize>,
}

impl LintReport {
    /// Unsuppressed violations, in file order.
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.suppressed.is_none())
    }

    pub fn suppressed_count(&self) -> usize {
        self.violations.len() - self.active().count()
    }

    /// Unsuppressed counts per `(rule, crate)` — the ratchet's input.
    pub fn counts(&self) -> BTreeMap<(Rule, String), usize> {
        let mut map = BTreeMap::new();
        for v in self.active() {
            *map.entry((v.rule, v.crate_name.clone())).or_insert(0) += 1;
        }
        map
    }

    /// Renders the [`BenchReport`] JSON summary (bench `"lint"`), so CI
    /// can upload the violation-count and library-size trajectories next
    /// to the `BENCH_*.json` perf artifacts.
    pub fn to_bench_json(&self) -> String {
        let counts = self.counts();
        let mut report = BenchReport::new("lint");
        for rule in ALL_RULES {
            let total: usize = counts
                .iter()
                .filter(|((r, _), _)| *r == rule)
                .map(|(_, c)| *c)
                .sum();
            let name = format!("{}_total", metric_name(rule.key()));
            report = report.metric(&name, total as f64, "count");
        }
        for ((rule, krate), count) in &counts {
            let name = format!("{}_{}", metric_name(rule.key()), metric_name(krate));
            report = report.metric(&name, *count as f64, "count");
        }
        for (krate, lines) in &self.src_lines {
            let name = format!("src_lines_{}", metric_name(krate));
            report = report.metric(&name, *lines as f64, "count");
        }
        let total_lines: usize = self.src_lines.values().sum();
        report
            .metric("src_lines_total", total_lines as f64, "count")
            .metric("suppressed_total", self.suppressed_count() as f64, "count")
            .metric("files_scanned", self.files_scanned as f64, "count")
            .to_json()
    }
}

/// `panic-path` → `panic_path`, `ba-core` → `ba_core`.
fn metric_name(s: &str) -> String {
    s.replace('-', "_")
}

/// A failure that stops the lint run itself (bad workspace layout or
/// unreadable file — never a rule violation).
#[derive(Debug)]
pub enum LintError {
    Io(PathBuf, std::io::Error),
    /// The root has no `crates/` directory and no `src/` — probably a
    /// wrong `--root`.
    NotAWorkspace(PathBuf),
    /// `ba-lint.toml` is malformed at the given line.
    Config(PathBuf, u32, String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::NotAWorkspace(p) => {
                write!(f, "{} does not look like a workspace root", p.display())
            }
            LintError::Config(p, line, msg) => write!(f, "{}:{line}: {msg}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints every library source file under `config.root`.
pub fn lint_workspace(config: &LintConfig) -> Result<LintReport, LintError> {
    let mut report = LintReport::default();
    let crates_dir = config.root.join("crates");
    let root_src = config.root.join("src");
    if !crates_dir.is_dir() && !root_src.is_dir() {
        return Err(LintError::NotAWorkspace(config.root.clone()));
    }

    // (crate name, src dir) pairs, sorted for a deterministic walk.
    let mut units: Vec<(String, PathBuf)> = Vec::new();
    if root_src.is_dir() {
        units.push((package_name(&config.root)?, root_src));
    }
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = read_dir_sorted(&crates_dir)?;
        entries.retain(|p| p.is_dir());
        for crate_dir in entries {
            let src = crate_dir.join("src");
            if src.is_dir() {
                units.push((package_name(&crate_dir)?, src));
            }
        }
    }

    for (crate_name, src) in units {
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        for path in files {
            let rel_path = rel_display(&config.root, &path);
            let ctx = FileContext {
                crate_name: crate_name.clone(),
                deterministic: config.deterministic_crates.contains(&crate_name)
                    || config
                        .deterministic_path_prefixes
                        .iter()
                        .any(|p| rel_path.starts_with(p.as_str())),
                wire: config.wire_crates.contains(&crate_name),
                docs: config.docs_required_crates.contains(&crate_name),
                rel_path,
            };
            let src_text =
                std::fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
            let (violations, pragma_errors) = rules::scan_source(&ctx, &src_text);
            report.violations.extend(violations);
            report.pragma_errors.extend(pragma_errors);
            report.files_scanned += 1;
            *report.src_lines.entry(crate_name.clone()).or_insert(0) +=
                rules::library_lines(&src_text);
        }
    }
    Ok(report)
}

/// Reads `name = "…"` out of a crate's `Cargo.toml` without a TOML
/// dependency. Falls back to the directory name when absent.
fn package_name(crate_dir: &Path) -> Result<String, LintError> {
    let manifest = crate_dir.join("Cargo.toml");
    let text =
        std::fs::read_to_string(&manifest).map_err(|e| LintError::Io(manifest.clone(), e))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                return Ok(value.trim().trim_matches('"').to_string());
            }
        }
    }
    Ok(crate_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unknown".to_string()))
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files, skipping `bin/` directories and
/// `main.rs` roots — binaries may prototype and panic; the contracts
/// bind *library* code.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_none_or(|n| n != "main.rs")
        {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_display(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
