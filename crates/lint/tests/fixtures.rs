//! Fixture-driven tests for the whole `ba-lint` engine: discovery over
//! a miniature workspace, per-rule positives/negatives/suppressions,
//! the `--check` ratchet through the real binary, and the
//! BenchReport-schema JSON shape.

use ba_lint::baseline::{ratchet, Baseline};
use ba_lint::rules::Rule;
use ba_lint::{lint_workspace, LintConfig, LintReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("mini_workspace")
}

/// The fixture workspace's tag sets come from its own `ba-lint.toml`:
/// `fx-det` is deterministic, `fx-wire` carries wire code, `fx-docs`
/// requires public-API docs.
fn fixture_config() -> LintConfig {
    let config = LintConfig::load(fixture_root()).expect("fixture ba-lint.toml parses");
    assert_eq!(config.deterministic_crates, vec!["fx-det".to_string()]);
    assert_eq!(config.wire_crates, vec!["fx-wire".to_string()]);
    assert_eq!(config.docs_required_crates, vec!["fx-docs".to_string()]);
    config
}

fn lint_fixture() -> LintReport {
    lint_workspace(&fixture_config()).expect("fixture workspace lints")
}

fn active_cells(report: &LintReport) -> BTreeMap<(Rule, String), usize> {
    report.counts()
}

#[test]
fn fixture_counts_are_exactly_as_designed() {
    let report = lint_fixture();
    assert!(
        report.pragma_errors.is_empty(),
        "{:?}",
        report.pragma_errors
    );
    let cells = active_cells(&report);
    let expect: BTreeMap<(Rule, String), usize> = [
        // panic/src/lib.rs: unwrap + expect in `positives`, plus the
        // comparator unwrap in wire/src/lib.rs::sort_floats.
        ((Rule::PanicPath, "fx-panic".to_string()), 2),
        ((Rule::PanicPath, "fx-wire".to_string()), 1),
        // det/src/lib.rs: `use HashMap`, HashMap in a signature,
        // SystemTime::now. (rand::random is pragma-suppressed.)
        ((Rule::Determinism, "fx-det".to_string()), 3),
        // wire/src/lib.rs: method + bare-path partial_cmp.
        ((Rule::FloatOrder, "fx-wire".to_string()), 2),
        // wire/src/lib.rs::narrow: `as usize` + `as u32`.
        ((Rule::WireCast, "fx-wire".to_string()), 2),
        // docs/src/lib.rs: undocumented fn + attribute-only struct.
        ((Rule::MissingDocs, "fx-docs".to_string()), 2),
    ]
    .into_iter()
    .collect();
    assert_eq!(cells, expect);
}

#[test]
fn suppressions_carry_their_justifications() {
    let report = lint_fixture();
    let suppressed: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.suppressed.is_some())
        .collect();
    // Two in fx-panic (same-line + previous-line), one rand::random in
    // fx-det, one checked cast in fx-wire, one undocumented mod in
    // fx-docs.
    assert_eq!(suppressed.len(), 5, "{suppressed:?}");
    for v in &suppressed {
        let j = v.suppressed.as_deref().expect("justification");
        assert!(j.starts_with("fixture:"), "justification retained: {j}");
    }
    assert_eq!(report.suppressed_count(), 5);
}

#[test]
fn bin_code_and_clean_crate_produce_nothing() {
    let report = lint_fixture();
    // main.rs and src/bin/tool.rs both contain unwraps; neither may be
    // scanned. The clean crate must not appear in any cell.
    assert!(report
        .violations
        .iter()
        .all(|v| !v.rel_path.contains("main.rs") && !v.rel_path.contains("/bin/")));
    assert!(report.violations.iter().all(|v| v.crate_name != "fx-clean"));
}

#[test]
fn rules_are_context_gated() {
    // With the tags removed, determinism, wire-cast, and missing-docs
    // fall silent but panic-path and float-order still fire.
    let config = LintConfig {
        deterministic_crates: vec![],
        wire_crates: vec![],
        docs_required_crates: vec![],
        ..fixture_config()
    };
    let report = lint_workspace(&config).expect("lints");
    let cells = active_cells(&report);
    assert!(cells.keys().all(|(r, _)| *r != Rule::Determinism));
    assert!(cells.keys().all(|(r, _)| *r != Rule::WireCast));
    assert!(cells.keys().all(|(r, _)| *r != Rule::MissingDocs));
    assert_eq!(
        cells.get(&(Rule::FloatOrder, "fx-wire".to_string())),
        Some(&2)
    );
}

#[test]
fn json_matches_bench_report_schema() {
    std::env::set_var("BA_BENCH_COMMIT", "cafef00d");
    let json = lint_fixture().to_bench_json();
    std::env::remove_var("BA_BENCH_COMMIT");
    // The shared ba_net::BenchReport envelope.
    assert!(
        json.starts_with("{\"schema\":1,\"bench\":\"lint\",\"commit\":\"cafef00d\",\"metrics\":[")
    );
    assert!(json.ends_with("]}\n"));
    assert!(json.contains("{\"metric\":\"panic_path_total\",\"value\":3,\"unit\":\"count\"}"));
    assert!(json.contains("{\"metric\":\"determinism_fx_det\",\"value\":3,\"unit\":\"count\"}"));
    assert!(json.contains("{\"metric\":\"suppressed_total\",\"value\":5,\"unit\":\"count\"}"));
    // Library size: every scanned file's lines outside `#[cfg(test)]`
    // items, per crate and in total (fx-panic's main.rs and src/bin/ are
    // not library code; fx-panic and fx-docs end in 12- and 5-line test
    // modules).
    for (krate, lines) in [
        ("fx_clean", 13),
        ("fx_det", 28),
        ("fx_docs", 23),
        ("fx_panic", 29),
        ("fx_wire", 34),
        ("total", 127),
    ] {
        let row =
            format!("{{\"metric\":\"src_lines_{krate}\",\"value\":{lines},\"unit\":\"count\"}}");
        assert!(json.contains(&row), "missing {row}");
    }
}

// ---- ratchet semantics through the real binary ----

struct TempBaseline {
    path: PathBuf,
}

impl TempBaseline {
    fn new(name: &str, contents: &str) -> TempBaseline {
        let path = std::env::temp_dir().join(format!(
            "ba_lint_fixture_{}_{}.toml",
            std::process::id(),
            name
        ));
        std::fs::write(&path, contents).expect("write temp baseline");
        TempBaseline { path }
    }
}

impl Drop for TempBaseline {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn run_check(baseline: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ba-lint"))
        .arg("--root")
        .arg(fixture_root())
        .arg("--check")
        .arg("--baseline")
        .arg(baseline)
        .output()
        .expect("spawn ba-lint")
}

/// The fixture tree's true counts, rendered as a baseline file.
fn exact_baseline() -> String {
    Baseline::from_counts(lint_fixture().counts()).render()
}

#[test]
fn check_passes_at_the_exact_baseline() {
    let tb = TempBaseline::new("exact", &exact_baseline());
    let out = run_check(&tb.path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ba-lint --check: OK"));
    assert!(!stdout.contains("[ratchet] tightened"));
}

#[test]
fn check_fails_on_regression_and_names_the_sites() {
    // Tighter than reality: fx-panic allows 1 but the tree has 2.
    let text = exact_baseline().replace("\"fx-panic\" = 2", "\"fx-panic\" = 1");
    let tb = TempBaseline::new("regress", &text);
    let out = run_check(&tb.path);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ratchet regression"), "{stderr}");
    assert!(stderr.contains("fx-panic: 2 violations (baseline allows 1)"));
    assert!(stderr.contains("crates/panic/src/lib.rs"));
    // A failing check must not rewrite the baseline.
    assert_eq!(
        std::fs::read_to_string(&tb.path).expect("still there"),
        text
    );
}

#[test]
fn check_auto_tightens_on_improvement() {
    // Looser than reality: the ratchet must pull it down and rewrite.
    let text = exact_baseline().replace("\"fx-panic\" = 2", "\"fx-panic\" = 7");
    let tb = TempBaseline::new("tighten", &text);
    let out = run_check(&tb.path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[ratchet] tightened [panic-path] fx-panic: 7 -> 2"));
    let rewritten = std::fs::read_to_string(&tb.path).expect("rewritten");
    assert_eq!(rewritten, exact_baseline());
}

#[test]
fn check_rejects_a_corrupt_baseline() {
    let tb = TempBaseline::new("corrupt", "schema = 1\n[panic-path\n");
    let out = run_check(&tb.path);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected `key = value`"));
}

#[test]
fn check_without_a_baseline_points_at_write_baseline() {
    let missing = std::env::temp_dir().join(format!(
        "ba_lint_fixture_{}_missing.toml",
        std::process::id()
    ));
    let out = run_check(&missing);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--write-baseline"));
}

#[test]
fn ratchet_round_trip_via_library_api() {
    // tighten → render → parse → identical; regress → reported.
    let live = lint_fixture().counts();
    let baseline = Baseline::from_counts(live.clone());
    let out = ratchet(&live, &baseline);
    assert!(out.regressions.is_empty() && out.improvements.is_empty());
    let reparsed = Baseline::parse(&baseline.render()).expect("round trip");
    assert_eq!(reparsed, baseline);

    let mut worse = live.clone();
    *worse
        .entry((Rule::PanicPath, "fx-panic".to_string()))
        .or_insert(0) += 1;
    let out = ratchet(&worse, &baseline);
    assert_eq!(out.regressions.len(), 1);
}
