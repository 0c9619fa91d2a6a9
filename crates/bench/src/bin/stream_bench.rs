//! Streaming-ingest micro-benchmark: the incremental stream engine vs a
//! per-batch full refit.
//!
//! Replays a synthetic insert/delete event stream over an Erdős–Rényi
//! base graph in fixed-size batches, two ways:
//!
//! * **engine** — [`ba_stream::StreamEngine`]: net the batch, toggle
//!   each net edge with the exact egonet delta rule, O(1) OLS refit at
//!   the batch boundary (plus periodic overlay compaction);
//! * **full refit** — maintain a mutable [`ba_graph::Graph`] and, at
//!   every batch boundary, re-extract all egonet features and refit
//!   OddBall from scratch — what serving the stream without the
//!   incremental machinery would cost.
//!
//! The per-batch model parameters are cross-checked bit-identical
//! between the two paths before timing is reported. Exits non-zero if
//! sustained engine ingest is less than 5× the full-refit baseline —
//! the CI gate that keeps streaming ingest incremental. `--quick` runs a
//! shorter stream (CI), and `--json PATH` records the result for the
//! perf-trend pipeline (`BENCH_stream.json`), with one more engine pass
//! timed per batch: its compaction count, how many of those re-laid out
//! the base, and the median batch that compacts and that does not.
//! That pass then folds its last edits in, and the run exits non-zero
//! unless the folded base equals a CSR built from scratch from the
//! final edge set, which must match the full refit's.

use ba_bench::time_best_of;
use ba_graph::egonet::egonet_features;
use ba_graph::{generators, CsrGraph};
use ba_net::BenchReport;
use ba_oddball::OddBall;
use ba_stream::{synthetic_stream, StreamConfig, StreamEngine, StreamEvent};
use std::time::Instant;

const REQUIRED_SPEEDUP: f64 = 5.0;

/// One engine pass over the stream; returns the per-batch betas.
fn run_engine(g: &ba_graph::Graph, batches: &[&[StreamEvent]]) -> Vec<(u64, u64)> {
    let mut engine = StreamEngine::new(g, StreamConfig::default());
    batches
        .iter()
        .map(|batch| {
            let p = engine
                .ingest_batch(batch)
                .params
                .expect("engine refit degenerate");
            (p.beta0.to_bits(), p.beta1.to_bits())
        })
        .collect()
}

/// One engine pass timing each batch: the compacting batches' times and
/// the others', in ms, and the engine it leaves.
fn engine_batch_ms(
    g: &ba_graph::Graph,
    batches: &[&[StreamEvent]],
) -> (Vec<f64>, Vec<f64>, StreamEngine) {
    let mut engine = StreamEngine::new(g, StreamConfig::default());
    let (mut compacting, mut plain) = (Vec::new(), Vec::new());
    for batch in batches {
        let t = Instant::now();
        let compacted = engine.ingest_batch(batch).compacted;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if compacted {
            compacting.push(ms);
        } else {
            plain.push(ms);
        }
    }
    (compacting, plain, engine)
}

/// The middle value of `xs` (the upper one of an even count); 0 when empty.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// One full-refit pass: apply the batch to a mutable graph, then
/// re-extract features and refit from scratch. Returns the per-batch
/// betas and the final graph.
fn run_full_refit(
    g: &ba_graph::Graph,
    batches: &[&[StreamEvent]],
) -> (Vec<(u64, u64)>, ba_graph::Graph) {
    let mut state = g.clone();
    let betas = batches
        .iter()
        .map(|batch| {
            for ev in *batch {
                if ev.insert {
                    state.add_edge(ev.u, ev.v);
                } else {
                    state.remove_edge(ev.u, ev.v);
                }
            }
            let model = OddBall::default()
                .fit_features(egonet_features(&state))
                .expect("full refit degenerate");
            (model.beta0().to_bits(), model.beta1().to_bits())
        })
        .collect();
    (betas, state)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (num_batches, batch_size, engine_reps, full_reps) = if quick {
        (40, 50, 5, 2)
    } else {
        (200, 50, 10, 3)
    };

    // The acceptance instance: ER 2000 nodes / ~10000 edges, batches of
    // 50 events — small relative churn on a graph whose full feature
    // pass is what the baseline pays per batch.
    let n = 2000usize;
    let g = generators::erdos_renyi(n, 0.005, 7);
    let events = synthetic_stream(&g, num_batches * batch_size, 11);
    let batches: Vec<&[StreamEvent]> = events.chunks(batch_size).collect();
    let total_events = events.len();

    eprintln!(
        "graph: n = {n}, m = {}, {} batches x {batch_size} events",
        g.num_edges(),
        batches.len()
    );

    // Cross-check before timing: per-batch betas bit-identical between
    // the engine and the full refit.
    let (reference, final_graph) = run_full_refit(&g, &batches);
    assert_eq!(
        run_engine(&g, &batches),
        reference,
        "engine and full-refit betas disagree"
    );

    let engine_s = time_best_of(engine_reps, || {
        run_engine(&g, &batches);
    });
    let full_s = time_best_of(full_reps, || {
        run_full_refit(&g, &batches);
    });

    let (compacting_ms, plain_ms, mut engine) = engine_batch_ms(&g, &batches);
    let compactions = compacting_ms.len();
    let relayouts = engine.relayouts();
    engine.compact();
    let graph = engine.to_graph();
    let base_ok = graph == final_graph && *engine.base() == CsrGraph::from(&graph);

    let engine_eps = total_events as f64 / engine_s;
    let full_eps = total_events as f64 / full_s;
    let speedup = full_s / engine_s;
    println!(
        "engine ingest:     {:>10.3} ms  ({engine_eps:>12.0} events/s)",
        engine_s * 1e3
    );
    println!(
        "full-refit ingest: {:>10.3} ms  ({full_eps:>12.0} events/s)",
        full_s * 1e3
    );
    println!("speedup:           {speedup:>10.2}x (gate: ≥{REQUIRED_SPEEDUP}x)");
    let (compacting_ms, plain_ms) = (median(compacting_ms), median(plain_ms));
    println!(
        "engine batches:    {compacting_ms:>10.3} ms compacting ({compactions} of them, \
         {relayouts} re-laid out), {plain_ms:.3} ms plain (medians)"
    );
    BenchReport::new("stream")
        .metric("n", n as f64, "count")
        .metric("m", g.num_edges() as f64, "count")
        .metric("batches", batches.len() as f64, "count")
        .metric("batch_size", batch_size as f64, "count")
        .metric("events", total_events as f64, "count")
        .metric("engine_s", engine_s, "s")
        .metric("full_s", full_s, "s")
        .metric("engine_events_per_sec", engine_eps, "events/s")
        .metric("speedup", speedup, "x")
        .metric("compactions", compactions as f64, "count")
        .metric("relayouts", relayouts as f64, "count")
        .metric("engine_compacting_batch_ms", compacting_ms, "ms")
        .metric("engine_plain_batch_ms", plain_ms, "ms")
        .write_if_requested(&args)
        .expect("write bench json");
    if !base_ok {
        eprintln!("FAIL: the folded engine base differs from a from-scratch CSR of its edge set");
        std::process::exit(1);
    }
    if speedup < REQUIRED_SPEEDUP {
        eprintln!("FAIL: engine ingest is only {speedup:.2}x faster (need {REQUIRED_SPEEDUP}x)");
        std::process::exit(1);
    }
}
