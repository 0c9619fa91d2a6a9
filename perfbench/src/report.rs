//! A run's result: operation counts and named metrics, printed as the
//! one-line JSON object that ends the benchmark's standard output.

use crate::stats::peak_rss_mb;
use crate::trace::{span_cost_ns, Tracer};

/// Which output a metric belongs to: the untraced run prints the
/// end-to-end metrics, the traced run the per-layer ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// A work count that must repeat exactly across runs with one seed.
    pub exact: bool,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (attack runs, batches, requests).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Median set-up time of the run, in seconds.
    pub setup_s: f64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind, exact: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            kind,
            exact,
        });
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Kind::EndToEnd, false);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Kind::Layer, false);
    }

    /// A per-layer work count or ratio of counts that repeats exactly.
    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Kind::Layer, true);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records an operation and whether its output checked out.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Takes in another workload's per-layer metrics (those not already
    /// reported) and its operation counts.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            if m.kind == Kind::Layer && self.get(&m.name).is_none() {
                self.metrics.push(m);
            }
        }
    }

    /// Adds the metrics every workload reports: setup time and peak
    /// memory, the failed share, and in a traced run the tracing
    /// overhead and per-layer self times.
    pub fn finish(&mut self, tracer: &Tracer, traced_wall_s: f64) {
        self.e2e("setup_s", self.setup_s, "s");
        self.e2e("peak_rss_mb", peak_rss_mb(), "MB");
        self.layer(
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            "share",
        );
        if tracer.enabled() {
            let spans = tracer.spans().len() as f64;
            let cost = span_cost_ns();
            self.layer("trace.spans", spans, "count");
            self.layer("trace.span_ns", cost, "ns");
            self.layer(
                "trace.overhead_share",
                spans * cost / (traced_wall_s * 1e9),
                "share",
            );
            for (layer, ms) in tracer.self_ms_by_layer() {
                self.layer(&format!("self_ms.{layer}"), ms, "ms");
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// metrics of `kind`, each with its value and unit.
    pub fn json_line(&self, kind: Kind) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
