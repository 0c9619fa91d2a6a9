//! The benchmark's own checks, on seconds-scale workloads: every metric
//! is well named and declared in `BENCHMARK.json` with its unit, every
//! output checks out, and the traced run's work counters repeat exactly
//! for one seed.

use perfbench::report::{Kind, Report};
use perfbench::{run, Scale, WORKLOADS};

const SEED: u64 = 7;

fn run_tiny(workload: &str, trace: bool) -> Report {
    let (report, tracer) = run(workload, SEED, 1, trace, Scale::Tiny).expect("known workload");
    assert_eq!(tracer.enabled(), trace);
    assert!(trace || tracer.spans().is_empty());
    report
}

/// The objects of one list in `BENCHMARK.json`, as `(name, unit)`;
/// the unit is empty for workloads.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        obj.find(&format!("\"{key}\"")).map_or(String::new(), |at| {
            obj[at..]
                .split('"')
                .nth(3)
                .expect("string value")
                .to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn check_names(report: &Report, kind: Kind, section: &str, gated: bool) {
    let declared = declared(section);
    for m in report.metrics.iter().filter(|m| m.kind == kind) {
        assert!(
            well_formed(&m.name),
            "badly formed metric name {:?}",
            m.name
        );
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(
            !gated || declared.iter().any(|(n, u)| *n == m.name && u == m.unit),
            "{} ({}) is not declared in BENCHMARK.json {section}",
            m.name,
            m.unit
        );
    }
    // A gated workload prints every declared metric of its kind.
    for (name, _) in declared.iter().filter(|_| gated) {
        assert!(
            report
                .metrics
                .iter()
                .any(|m| m.kind == kind && m.name == *name),
            "{name} is declared in BENCHMARK.json {section} but not reported"
        );
    }
}

#[test]
fn metrics_are_declared_and_outputs_check_out() {
    let gated: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert!(
        gated.iter().all(|w| WORKLOADS.contains(&w.as_str())),
        "{gated:?}"
    );
    for workload in WORKLOADS {
        // `serve` runs on request only: its names are checked for form,
        // the gated workloads' also for a declaration in BENCHMARK.json.
        let is_gated = gated.iter().any(|w| w == workload);
        let plain = run_tiny(workload, false);
        check_names(&plain, Kind::EndToEnd, "end_to_end", is_gated);
        assert!(
            plain.attempted > 0 && plain.failed == 0,
            "{workload}: {plain:?}"
        );
        let line = plain.json_line(Kind::EndToEnd);
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert!(plain.get("setup_s").is_some_and(|v| v > 0.0));
        if is_gated {
            for (name, _) in declared("end_to_end") {
                assert!(
                    plain.get(&name).is_some_and(|v| v > 0.0),
                    "{workload}: {name} is not positive"
                );
            }
        }

        let traced = run_tiny(workload, true);
        check_names(&traced, Kind::Layer, "per_layer", is_gated);
        assert_eq!(traced.failed, 0, "{workload}: {traced:?}");
    }
}

#[test]
fn traced_counters_repeat_exactly() {
    for workload in WORKLOADS {
        let a = run_tiny(workload, true);
        let b = run_tiny(workload, true);
        let exact: Vec<_> = a.metrics.iter().filter(|m| m.exact).collect();
        assert!(!exact.is_empty(), "{workload} reports no counters");
        for m in exact {
            assert_eq!(
                b.get(&m.name).map(f64::to_bits),
                Some(m.value.to_bits()),
                "{workload}: {} differs between two traced runs",
                m.name
            );
        }
    }
}

#[test]
fn attack_predicts_no_outcome_replay() {
    let report = run_tiny("attack", true);
    assert_eq!(report.get("core.memo.outcome_hits"), Some(0.0));
    assert!(report.get("core.forward_calls").is_some_and(|v| v > 0.0));
}
