//! Workspace dependency-graph invariants, read straight from the
//! manifests:
//!
//! 1. no crate declares a dependency its code never names, and
//! 2. the leaf I/O crate, the streaming engine and the scoring service
//!    never reach the experiment harness (`ba-bench`), directly or
//!    transitively — the harness sits above them and hosts their gates.
//!
//! The manifest reader understands the one-entry-per-line subset of TOML
//! the workspace's `Cargo.toml` files use.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One workspace member: its package name and declared dependencies.
struct Member {
    dir: PathBuf,
    name: String,
    deps: Vec<String>,
    dev_deps: Vec<String>,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_member(dir: &Path) -> Member {
    let text = std::fs::read_to_string(dir.join("Cargo.toml")).expect("read manifest");
    let (mut name, mut deps, mut dev_deps) = (String::new(), Vec::new(), Vec::new());
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.to_string();
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line
            .split(['=', '.', ' '])
            .next()
            .unwrap_or_default()
            .to_string();
        match section.as_str() {
            "[package]" if key == "name" => {
                name = line.split('"').nth(1).expect("quoted name").to_string();
            }
            "[dependencies]" => deps.push(key),
            "[dev-dependencies]" => dev_deps.push(key),
            _ => {}
        }
    }
    Member {
        dir: dir.to_path_buf(),
        name,
        deps,
        dev_deps,
    }
}

/// The façade plus every crate under `crates/`.
fn members() -> Vec<Member> {
    let mut dirs = vec![root()];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    dirs.extend(crates);
    dirs.iter().map(|d| parse_member(d)).collect()
}

/// Every non-comment line of every `.rs` file under `dir`, recursively.
/// With `skip_tests`, a file is read only up to its `#[cfg(test)] mod`,
/// so a dependency named only by unit tests does not count as used.
fn code_lines(dir: &Path, skip_tests: bool, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // The lint fixtures are never-built miniature crates.
            if path.file_name() != Some("fixtures".as_ref()) {
                code_lines(&path, skip_tests, out);
            }
        } else if path.extension() == Some("rs".as_ref()) {
            let text = std::fs::read_to_string(&path).expect("read source");
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .collect();
            let end = lines
                .windows(2)
                .position(|w| skip_tests && w[0] == "#[cfg(test)]" && w[1].starts_with("mod "))
                .unwrap_or(lines.len());
            out.extend(lines[..end].iter().map(|l| l.to_string()));
        }
    }
}

/// Whether `ident` appears in `lines` as a whole identifier.
fn names(lines: &[String], ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    lines.iter().any(|line| {
        line.match_indices(ident).any(|(at, _)| {
            let before = line[..at].chars().next_back();
            let after = line[at + ident.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    })
}

#[test]
fn no_crate_declares_an_unused_dependency() {
    let mut unused = Vec::new();
    for m in members() {
        let mut lib = Vec::new();
        code_lines(&m.dir.join("src"), true, &mut lib);
        let mut all = Vec::new();
        for dir in ["src", "tests", "benches", "examples"] {
            code_lines(&m.dir.join(dir), false, &mut all);
        }
        for (deps, lines, kind) in [
            (&m.deps, &lib, "dependency"),
            (&m.dev_deps, &all, "dev-dependency"),
        ] {
            for dep in deps {
                if !names(lines, &dep.replace('-', "_")) {
                    unused.push(format!("{}: {kind} `{dep}`", m.name));
                }
            }
        }
    }
    assert!(unused.is_empty(), "declared but never named: {unused:#?}");
}

#[test]
fn engine_service_and_leaf_crates_never_reach_the_harness() {
    let graph: BTreeMap<String, Vec<String>> =
        members().into_iter().map(|m| (m.name, m.deps)).collect();
    for start in ["ba-net", "ba-stream", "ba-serve"] {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start.to_string()];
        while let Some(krate) = stack.pop() {
            if seen.insert(krate.clone()) {
                stack.extend(graph.get(&krate).into_iter().flatten().cloned());
            }
        }
        assert!(
            !seen.contains("ba-bench"),
            "{start} depends on ba-bench through {seen:?}"
        );
    }
    assert_eq!(
        graph["ba-net"],
        Vec::<String>::new(),
        "ba-net must stay a leaf"
    );
}
