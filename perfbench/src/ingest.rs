//! `ingest`: [`StreamEngine`] over the `large_bench --quick` substrate,
//! fed `synthetic_stream` batches with nothing reading from it.
//!
//! BA's hubs make each batch's dirty set large, so apply, recompute,
//! merge and compaction do most of the work; publish and queries do
//! none. The traced run also ingests the first quarter of its batches
//! on a single-shard engine, the baseline for the shard speed-up, and
//! then measures the serving layers in process on the final engine:
//! small batches published through a `ServeState` past its retention
//! window, and point, top-k and codec calls against it.

use crate::report::Report;
use crate::stats::{median, ms, nproc, percentile, ratio};
use crate::substrate::{self, SetupTimes};
use crate::trace::Tracer;
use ba_graph::egonet::egonet_features;
use ba_oddball::OddBall;
use ba_serve::Request;
use ba_stream::{synthetic_stream, StreamEngine};
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone)]
pub struct IngestParams {
    pub n: usize,
    pub m: usize,
    /// Events per batch.
    pub batch: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Batches generated per second of `--seconds`: the untraced run
    /// stops early if it ingests them all.
    pub pool_batches_per_sec: usize,
    /// The traced run ingests exactly this many batches per second of
    /// `--seconds`.
    pub traced_batches_per_sec: usize,
    /// Batches the traced run publishes through a `ServeState`, and
    /// their size in events.
    pub publish_batches: usize,
    pub publish_batch: usize,
}

impl IngestParams {
    /// BA n = 10^5, m = 11 (1.1·10^6 edges), batches of 2000 events.
    pub fn standard() -> Self {
        Self {
            n: 100_000,
            m: 11,
            batch: 2000,
            setups: 5,
            pool_batches_per_sec: 30,
            traced_batches_per_sec: 10,
            publish_batches: 80,
            publish_batch: 500,
        }
    }

    /// A seconds-scale instance for the benchmark's own tests.
    pub fn tiny() -> Self {
        Self {
            n: 3000,
            m: 5,
            batch: 200,
            setups: 2,
            pool_batches_per_sec: 40,
            traced_batches_per_sec: 10,
            publish_batches: 20,
            publish_batch: 50,
        }
    }
}

pub fn run(p: &IngestParams, seed: u64, seconds: u64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let shards = nproc();
    let traced_batches = (seconds as usize * p.traced_batches_per_sec).max(4);
    let pool_batches = if tr.enabled() {
        traced_batches
    } else {
        (seconds as usize * p.pool_batches_per_sec).max(4)
    };

    // Set-up: generate, widen and bootstrap, repeated for a steady
    // median. The event stream is input, generated outside the timing.
    let mut times = SetupTimes::default();
    let mut events = Vec::new();
    let mut publish_events = Vec::new();
    let mut kept: Option<(StreamEngine, Option<_>)> = None;
    for _ in 0..p.setups.max(1) {
        drop(kept.take());
        let (csr, graph_s) = substrate::graph(p.n, p.m, &mut times, tr);
        if events.is_empty() {
            let publish = if tr.enabled() {
                p.publish_batches * p.publish_batch
            } else {
                0
            };
            events = synthetic_stream(&csr, pool_batches * p.batch + publish, seed ^ 0xe7e7);
            publish_events = events.split_off(pool_batches * p.batch);
        }
        let baseline = tr.enabled().then(|| csr.clone());
        let (engine, boot_s) = substrate::bootstrap(csr, shards, &mut times, tr);
        times.total_s.push(graph_s + boot_s);
        kept = Some((engine, baseline));
    }
    let (mut engine, baseline) = kept.expect("at least one set-up");

    let mut batch_ms = Vec::new();
    let mut compacting_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut overlay_rows = Vec::new();
    let (mut n_events, mut applied, mut dirty) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let limit = Duration::from_secs(seconds);
    for (k, batch) in events.chunks(p.batch).enumerate() {
        if !tr.enabled() && k > 0 && start.elapsed() >= limit {
            break;
        }
        let t = Instant::now();
        let summary = tr.span("stream.ingest_batch", |_| engine.ingest_batch(batch));
        let dt = ms(t.elapsed());
        batch_ms.push(dt);
        if summary.compacted {
            compacting_ms.push(dt);
        } else {
            plain_ms.push(dt);
        }
        n_events += summary.events;
        applied += summary.applied;
        dirty += summary.dirty_rows;
        overlay_rows.push(engine.dirty_rows() as f64);
        report.op(summary.params.is_ok());
    }
    if batch_ms.len() * p.batch >= events.len() && !tr.enabled() {
        eprintln!("ingest: event pool exhausted before {seconds} s");
    }
    let busy_s: f64 = batch_ms.iter().sum::<f64>() / 1e3;

    // Output check: the engine's final model equals a from-scratch fit
    // on the materialised graph, bit for bit.
    let fit_ok = tr.span("check.refit", |_| {
        let reference = OddBall::default().fit_features(egonet_features(&engine.to_graph()));
        match (engine.params(), reference) {
            (Ok(live), Ok(model)) => {
                live.beta0.to_bits() == model.beta0().to_bits()
                    && live.beta1.to_bits() == model.beta1().to_bits()
            }
            _ => false,
        }
    });
    if !fit_ok {
        eprintln!("ingest: final fit differs from a full refit");
        report.failed += 1;
    }
    eprintln!(
        "ingest: n = {}, shards = {shards}, {} batches of {} events, {} compactions, \
         p50 {:.2} ms, p90 {:.2} ms, {} failed",
        p.n,
        batch_ms.len(),
        p.batch,
        compacting_ms.len(),
        percentile(&batch_ms, 0.5),
        percentile(&batch_ms, 0.9),
        report.failed
    );

    // The main operation is a batch, the side one a batch that compacts;
    // the items are events.
    report.e2e("main_op_ms", median(&batch_ms), "ms");
    report.e2e("side_op_ms", median(&compacting_ms), "ms");
    report.e2e("items_per_s", ratio(n_events as f64, busy_s), "1/s");

    times.report(&mut report);
    report.exact("stream.batches", batch_ms.len() as f64, "count");
    report.exact(
        "stream.applied_per_event",
        ratio(applied as f64, n_events as f64),
        "ratio",
    );
    report.exact(
        "stream.dirty_rows_per_event",
        ratio(dirty as f64, n_events as f64),
        "ratio",
    );
    report.exact("stream.overlay_rows", median(&overlay_rows), "count");
    report.exact("stream.compactions", compacting_ms.len() as f64, "count");
    report.layer("stream.compacting_batch_ms", median(&compacting_ms), "ms");
    report.layer("stream.plain_batch_ms", median(&plain_ms), "ms");
    if let Some(csr) = baseline {
        // Single-shard baseline over the first quarter of the batches.
        let (mut single, _) = substrate::bootstrap(csr, 1, &mut SetupTimes::default(), tr);
        let k = (batch_ms.len() / 4).max(1);
        let mut single_s = 0.0;
        for batch in events.chunks(p.batch).take(k) {
            let t = Instant::now();
            tr.span("stream.ingest_batch_1shard", |_| single.ingest_batch(batch));
            single_s += t.elapsed().as_secs_f64();
        }
        let sharded_s: f64 = batch_ms[..k].iter().sum::<f64>() / 1e3;
        let k_events = events
            .chunks(p.batch)
            .take(k)
            .map(<[_]>::len)
            .sum::<usize>() as f64;
        report.layer(
            "stream.shards1_events_per_s",
            ratio(k_events, single_s),
            "1/s",
        );
        report.layer("stream.shard_speedup", ratio(single_s, sharded_s), "x");

        let publish: Vec<Request> = publish_events
            .chunks(p.publish_batch)
            .map(|c| Request::IngestBatch { events: c.to_vec() })
            .collect();
        let state = crate::serve::publish_costs(engine, &publish, &mut report, tr);
        crate::serve::handle_costs(&state, p.n, 10, seed, &mut report, tr);
        crate::serve::epoch_metrics(Some(state.handle(&Request::EpochInfo)), p.n, &mut report);
    }
    report.setup_s = times.setup_s();
    report
}
