//! One schema for every `BENCH_*.json` perf-trend artifact.
//!
//! The perf gates (`grad`, `eval`, `stream`, `serve`, `search` and
//! `large`, all in `ba-bench`'s `gates` binary) and `ba-lint --json`
//! each measure different things, but the CI trend pipeline wants to
//! plot them uniformly: a bench name, a commit, and a flat list of
//! `(metric, value, unit)` triples. [`BenchReport`] is that record, and
//! [`BenchReport::to_json`] renders it.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "stream",
//!   "commit": "4f2a…",
//!   "metrics": [
//!     {"metric": "engine_events_per_sec", "value": 254000.0, "unit": "events/s"},
//!     {"metric": "speedup", "value": 10.2, "unit": "x"}
//!   ]
//! }
//! ```
//!
//! The commit comes from `GITHUB_SHA` (set by Actions) or the
//! `BA_BENCH_COMMIT` override, else `"unknown"` — the emitting binary
//! stays deterministic for a fixed environment.

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Metric name, e.g. `"sustained_qps"`.
    pub metric: String,
    /// Measured value.
    pub value: f64,
    /// Unit label, e.g. `"qps"`, `"s"`, `"x"`, `"count"`.
    pub unit: String,
}

/// A uniformly-shaped bench record destined for `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    bench: String,
    metrics: Vec<BenchMetric>,
}

impl BenchReport {
    /// Starts an empty report for the bench called `bench`.
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends one `(metric, value, unit)` triple (builder-style).
    pub fn metric(mut self, metric: &str, value: f64, unit: &str) -> Self {
        self.metrics.push(BenchMetric {
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
        });
        self
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &[BenchMetric] {
        &self.metrics
    }

    /// Renders the shared JSON schema. Non-finite values are emitted as
    /// `null` (bare `NaN`/`inf` are not valid JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":1,\"bench\":\"");
        out.push_str(&escape(&self.bench));
        out.push_str("\",\"commit\":\"");
        out.push_str(&escape(&commit()));
        out.push_str("\",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"metric\":\"");
            out.push_str(&escape(&m.metric));
            out.push_str("\",\"value\":");
            out.push_str(&json_number(m.value));
            out.push_str(",\"unit\":\"");
            out.push_str(&escape(&m.unit));
            out.push_str("\"}");
        }
        out.push_str("]}\n");
        out
    }
}

/// The commit the bench ran at, for the trend axis.
fn commit() -> String {
    std::env::var("BA_BENCH_COMMIT")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// JSON number rendering: shortest round-trip decimal for finite
/// values, `null` otherwise.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `1` and `1e300` are valid JSON numbers as Rust prints them;
        // nothing else to normalise.
        s
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (the names we emit are plain ASCII,
/// but a stray quote must not produce a malformed artifact).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_is_stable() {
        std::env::set_var("BA_BENCH_COMMIT", "deadbeef");
        let json = BenchReport::new("demo")
            .metric("speedup", 10.25, "x")
            .metric("events", 4000.0, "count")
            .to_json();
        assert_eq!(
            json,
            "{\"schema\":1,\"bench\":\"demo\",\"commit\":\"deadbeef\",\"metrics\":[\
             {\"metric\":\"speedup\",\"value\":10.25,\"unit\":\"x\"},\
             {\"metric\":\"events\",\"value\":4000,\"unit\":\"count\"}]}\n"
        );
        std::env::remove_var("BA_BENCH_COMMIT");
    }

    #[test]
    fn non_finite_values_become_null() {
        let json = BenchReport::new("demo")
            .metric("bad", f64::NAN, "x")
            .to_json();
        assert!(json.contains("\"value\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let json = BenchReport::new("we\"ird")
            .metric("a\\b", 1.0, "x")
            .to_json();
        assert!(json.contains("we\\\"ird"));
        assert!(json.contains("a\\\\b"));
    }
}
