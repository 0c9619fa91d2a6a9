//! `stream`: streaming ingest, the incremental engine vs a per-batch
//! full refit, over a synthetic insert/delete stream on an Erdős–Rényi
//! graph in fixed-size batches:
//!
//! * **engine** — [`ba_stream::StreamEngine`]: net the batch, toggle
//!   each net edge with the exact egonet delta rule, O(1) OLS refit at
//!   the batch boundary, periodic overlay compaction;
//! * **full refit** — a mutable [`ba_graph::Graph`] whose egonet
//!   features and OddBall fit are recomputed from scratch per batch:
//!   serving the stream without the incremental machinery.
//!
//! The per-batch betas must match bit for bit (a mismatch panics). Fails
//! if engine ingest is less than 5× faster. One more engine pass, timed
//! per batch, reports its compactions, the re-layouts among them, and
//! the median compacting and plain batch; it then folds its last edits
//! in, and the gate fails unless the folded base equals a from-scratch
//! CSR of the final edge set, which must match the full refit's.
//! `--quick` runs a shorter stream.

use crate::{Profile, Verdict};
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

pub fn run(profile: &Profile) -> Verdict {
    let (num_batches, batch_size, engine_reps, full_reps) = if profile.quick {
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
    let speedup = full_s / engine_s;
    let (compacting_ms, plain_ms) = (median(compacting_ms), median(plain_ms));
    let report = BenchReport::new("stream")
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
        .metric("engine_plain_batch_ms", plain_ms, "ms");
    let mut failed = Vec::new();
    if !base_ok {
        failed.push("folded engine base differs from a from-scratch CSR".to_string());
    }
    if speedup < REQUIRED_SPEEDUP {
        failed.push(format!(
            "engine/full-refit speedup {speedup:.2}x (need ≥{REQUIRED_SPEEDUP}x)"
        ));
    }
    (report, failed)
}
