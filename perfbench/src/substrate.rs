//! The streaming substrate `ingest` and `serve` share: the
//! `large_bench --quick` Barabási–Albert graph, born in compact CSR form
//! and bootstrapped into a [`StreamEngine`].

use crate::stats::{median, ms};
use crate::trace::Tracer;
use ba_graph::compact::from_edge_stream;
use ba_graph::{generators, CsrGraph};
use ba_stream::{StreamConfig, StreamEngine};
use std::time::Instant;

/// Set-up timings of one run, each a median over its set-ups.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub gen_s: Vec<f64>,
    pub promote_ms: Vec<f64>,
    pub bootstrap_s: Vec<f64>,
}

impl SetupTimes {
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }

    /// Adds the `ba-graph`/`ba-stream` set-up metrics.
    pub fn report(&self, report: &mut crate::report::Report) {
        report.layer("graph.gen_s", median(&self.gen_s), "s");
        report.layer("graph.promote_ms", median(&self.promote_ms), "ms");
        report.layer("stream.bootstrap_s", median(&self.bootstrap_s), "s");
    }
}

/// `large_bench`'s generator seed: every run streams events into the
/// same graph, and `--seed` draws the events.
const GRAPH_SEED: u64 = 0x5ca1e;

/// Generates BA(`n`, `m`) through the streamed builder and widens it to
/// the engine's CSR. Returns the graph and the seconds spent.
pub fn graph(n: usize, m: usize, times: &mut SetupTimes, tr: &mut Tracer) -> (CsrGraph, f64) {
    let t = Instant::now();
    let narrow = tr
        .span("graph.gen", |_| {
            from_edge_stream(n, || generators::barabasi_albert_stream(n, m, GRAPH_SEED))
        })
        .expect("BA edges fit the compact CSR");
    let gen = t.elapsed();
    let t = Instant::now();
    let wide = tr.span("graph.promote", |_| narrow.promote());
    let promote = t.elapsed();
    times.gen_s.push(gen.as_secs_f64());
    times.promote_ms.push(ms(promote));
    (wide, (gen + promote).as_secs_f64())
}

/// Bootstraps the engine (features and the first fit) with `shards`
/// ingest shards. Returns the engine and the seconds spent.
pub fn bootstrap(
    csr: CsrGraph,
    shards: usize,
    times: &mut SetupTimes,
    tr: &mut Tracer,
) -> (StreamEngine, f64) {
    let cfg = StreamConfig {
        shards,
        ..StreamConfig::default()
    };
    let t = Instant::now();
    let engine = tr.span("stream.bootstrap", |_| StreamEngine::from_csr(csr, cfg));
    let secs = t.elapsed().as_secs_f64();
    times.bootstrap_s.push(secs);
    (engine, secs)
}
