//! `serve`: `Server::start` on the streaming substrate, with reads beside
//! writes.
//!
//! Queries go open-loop at a fixed rate — point scores with one top-k per
//! `topk_every` — sent on schedule by one thread and read back by
//! another, so a slow response never delays the next send. A second
//! connection, driven from the main thread, sends `IngestBatch` requests
//! once per slot at a seeded point in the slot; each publishes an epoch.
//! Every request is timed from when it was due, so head-of-line waits
//! behind a top-k or a publish count. Latencies count after a warm-up,
//! and the run outlasts the 64-epoch retention window, so memory reaches
//! its steady state.
//!
//! The in-process serving costs ([`handle_costs`], [`publish_costs`])
//! are shared with the traced `ingest` run.

use crate::report::Report;
use crate::stats::{median, ms, nproc, percentile, sleep_until, us};
use crate::substrate::{self, SetupTimes};
use crate::trace::Tracer;
use ba_graph::zobrist::splitmix64;
use ba_graph::NodeId;
use ba_serve::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Connection, Request, Response, ServeConfig, ServeState, Server, LATEST,
};
use ba_stream::{synthetic_stream, StreamEngine, StreamEvent};
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Workload size and traffic mix.
#[derive(Debug, Clone)]
pub struct ServeParams {
    pub n: usize,
    pub m: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Queries per second on the query connection.
    pub query_rate: f64,
    /// Every `topk_every`-th query is a top-k; the rest are point scores.
    pub topk_every: usize,
    pub k: u32,
    /// Ingest batches per second on the ingest connection.
    pub ingest_rate: f64,
    /// Events per ingest batch.
    pub ingest_batch: usize,
    /// Load before latencies count, in seconds (added to `--seconds`).
    pub warmup_s: f64,
}

impl ServeParams {
    /// The `ingest` substrate at 1,000 queries/s and 5 batches/s of 500
    /// events.
    pub fn standard() -> Self {
        Self {
            n: 100_000,
            m: 11,
            setups: 3,
            query_rate: 1000.0,
            topk_every: 50,
            k: 10,
            ingest_rate: 5.0,
            ingest_batch: 500,
            warmup_s: 2.0,
        }
    }

    /// A seconds-scale instance for the benchmark's own tests.
    pub fn tiny() -> Self {
        Self {
            n: 2000,
            m: 5,
            setups: 2,
            query_rate: 400.0,
            topk_every: 50,
            k: 10,
            ingest_rate: 20.0,
            ingest_batch: 50,
            warmup_s: 0.2,
        }
    }

    fn query(&self, i: usize, seed: u64) -> Request {
        if (i + 1).is_multiple_of(self.topk_every) {
            Request::TopK {
                epoch: LATEST,
                k: self.k,
            }
        } else {
            Request::PointScore {
                epoch: LATEST,
                node: (splitmix64(seed ^ i as u64) % self.n as u64) as NodeId,
            }
        }
    }
}

/// What the load phase saw: per query the send and receive instants and
/// the decoded response; per ingest its send and done instants and the
/// response.
struct Load {
    sent: Vec<Instant>,
    received: Vec<(Instant, Option<Response>)>,
    ingests: Vec<(Instant, Instant, Option<Response>)>,
}

pub fn run(p: &ServeParams, seed: u64, seconds: u64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let load_s = p.warmup_s + seconds as f64;
    let n_queries = (load_s * p.query_rate) as usize;
    let n_ingests = ((load_s * p.ingest_rate) as usize).max(1);

    // Set-up: generate, widen, bootstrap and start the server, repeated
    // for a steady median. The event stream and the replica engine the
    // output check uses are made outside the timing.
    let mut times = SetupTimes::default();
    let mut events: Vec<StreamEvent> = Vec::new();
    let mut kept: Option<(Server, StreamEngine)> = None;
    for _ in 0..p.setups.max(1) {
        if let Some((server, _)) = kept.take() {
            server.shutdown();
        }
        let (csr, graph_s) = substrate::graph(p.n, p.m, &mut times, tr);
        if events.is_empty() {
            events = synthetic_stream(&csr, n_ingests * p.ingest_batch, seed ^ 0x5e5e);
        }
        let (engine, boot_s) = substrate::bootstrap(csr, nproc(), &mut times, tr);
        let replica = engine.clone();
        let t = Instant::now();
        let server = tr
            .span("serve.start", |_| {
                Server::start("127.0.0.1:0", engine, ServeConfig::default())
            })
            .expect("bind a loopback port");
        times
            .total_s
            .push(graph_s + boot_s + t.elapsed().as_secs_f64());
        kept = Some((server, replica));
    }
    let (server, replica) = kept.expect("at least one set-up");
    let addr = server.local_addr().to_string();

    // The schedule: queries at a fixed gap; each ingest at a seeded
    // uniform point of its own slot, so ingests keep no fixed phase to
    // the top-k cadence.
    let ingest_reqs: Vec<Request> = events
        .chunks(p.ingest_batch)
        .map(|c| Request::IngestBatch { events: c.to_vec() })
        .collect();
    let queries: Vec<Request> = (0..n_queries).map(|i| p.query(i, seed)).collect();
    let q_gap = Duration::from_secs_f64(1.0 / p.query_rate);
    let i_gap = Duration::from_secs_f64(1.0 / p.ingest_rate);
    let start = Instant::now();
    let t0 = start + Duration::from_millis(50);
    let measured_from = t0 + Duration::from_secs_f64(p.warmup_s);
    let due = |i: usize| t0 + q_gap.mul_f64(i as f64);
    let ingest_due: Vec<Instant> = (0..ingest_reqs.len())
        .map(|j| {
            let jitter = (splitmix64(seed ^ 0x1a7e ^ j as u64) >> 11) as f64 / (1u64 << 53) as f64;
            t0 + i_gap.mul_f64(j as f64 + jitter)
        })
        .collect();
    let load = tr.span("bench.load", |tr| {
        let load = drive(&addr, &queries, &ingest_reqs, &ingest_due, t0, q_gap);
        for (i, (&sent, (got, _))) in load.sent.iter().zip(&load.received).enumerate() {
            tr.record("client.wait", i as u64 + 1, due(i), sent);
            tr.record("serve.query", i as u64 + 1, sent, *got);
        }
        for (j, (sent, done, _)) in load.ingests.iter().enumerate() {
            tr.record("serve.ingest", (n_queries + j) as u64 + 1, *sent, *done);
        }
        load
    });

    // Latencies count from the end of the warm-up; every response is
    // checked.
    let mut point_us = Vec::new();
    let mut topk_ms = Vec::new();
    let mut late_ms = Vec::new();
    for (i, req) in queries.iter().enumerate() {
        let counted = due(i) >= measured_from;
        let ok = match (req, load.received.get(i)) {
            (Request::PointScore { .. }, Some((at, Some(Response::Score { .. })))) => {
                if counted {
                    point_us.push(us(*at - due(i)));
                }
                true
            }
            (Request::TopK { .. }, Some((at, Some(Response::TopK { entries, .. })))) => {
                if counted {
                    topk_ms.push(ms(*at - due(i)));
                }
                entries.len() == p.k as usize
            }
            _ => false,
        };
        if let (true, Some(&sent)) = (counted, load.sent.get(i)) {
            late_ms.push(ms(sent - due(i)));
        }
        report.op(ok);
    }
    let mut ingest_ms = Vec::new();
    for (j, (_, done, resp)) in load.ingests.iter().enumerate() {
        if ingest_due[j] >= measured_from {
            ingest_ms.push(ms(*done - ingest_due[j]));
        }
        let ok = matches!(resp, Some(Response::Ingested { epoch, .. }) if *epoch == j as u64 + 1);
        report.op(ok);
    }

    // The final epoch as the server sees it.
    let mut conn = Connection::connect(&addr).expect("connect for the final check");
    let final_top = conn
        .call(&Request::TopK {
            epoch: LATEST,
            k: p.k,
        })
        .ok();
    let info = conn.call(&Request::EpochInfo).ok();
    drop(conn);

    let point_p99 = percentile(&point_us, 0.99);
    if tr.enabled() {
        let (handle_us, codec_us) = handle_costs(&server.state(), p.n, p.k, seed, &mut report, tr);
        // Computed: the point p99 round trip less handling and codec.
        report.layer(
            "serve.queue_wait_us",
            point_p99 - handle_us - codec_us,
            "us",
        );
    }
    server.shutdown();

    // Output check: an in-process engine that ingested the same batches
    // ranks the same top-k, bit for bit. The traced run makes it a
    // `ServeState` and times its publish path.
    let final_epoch = match &final_top {
        Some(Response::TopK { epoch, .. }) => *epoch as usize,
        _ => 0,
    };
    let top_ok = final_epoch == load.ingests.len()
        && tr.span("check.topk", |tr| {
            let batches = &ingest_reqs[..final_epoch];
            let expected = if tr.enabled() {
                let state = publish_costs(replica, batches, &mut report, tr);
                match state.handle(&Request::TopK {
                    epoch: LATEST,
                    k: p.k,
                }) {
                    Response::TopK { entries, .. } => Some(entries),
                    _ => None,
                }
            } else {
                let mut engine = replica;
                for req in batches {
                    if let Request::IngestBatch { events } = req {
                        engine.ingest_batch(events);
                    }
                }
                engine.top_k(p.k as usize).ok()
            };
            match (&final_top, expected) {
                (Some(Response::TopK { entries, .. }), Some(want)) => {
                    entries.len() == want.len()
                        && entries
                            .iter()
                            .zip(&want)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                }
                _ => false,
            }
        });
    report.op(top_ok);
    eprintln!(
        "serve: n = {}, {} queries, {} ingests, point p50 {:.1} us p99 {:.1} us, \
         top-k p50 {:.2} ms, ingest p50 {:.2} ms, {} failed",
        p.n,
        load.received.len(),
        load.ingests.len(),
        percentile(&point_us, 0.5),
        point_p99,
        median(&topk_ms),
        median(&ingest_ms),
        report.failed
    );

    report.e2e("point_p50_us", percentile(&point_us, 0.5), "us");
    report.e2e("point_p99_us", point_p99, "us");
    report.e2e("topk_p50_ms", median(&topk_ms), "ms");
    report.e2e("ingest_p50_ms", median(&ingest_ms), "ms");

    times.report(&mut report);
    report.layer("serve.gen_late_ms", percentile(&late_ms, 0.99), "ms");
    report.exact("serve.queries", n_queries as f64, "count");
    report.exact("serve.ingests", n_ingests as f64, "count");
    epoch_metrics(info, p.n, &mut report);
    report.setup_s = times.setup_s();
    report
}

/// The load phase: queries open-loop on one connection (a send thread
/// and a receive thread), ingests on schedule on a second connection
/// from the calling thread.
fn drive(
    addr: &str,
    queries: &[Request],
    ingests: &[Request],
    ingest_due: &[Instant],
    t0: Instant,
    q_gap: Duration,
) -> Load {
    let stream = TcpStream::connect(addr).expect("connect the query connection");
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().expect("clone the query socket");
    let mut ingest_conn = Connection::connect(addr).expect("connect the ingest connection");
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut w = BufWriter::new(stream);
            let mut sent = Vec::with_capacity(queries.len());
            for (i, req) in queries.iter().enumerate() {
                sleep_until(t0 + q_gap.mul_f64(i as f64));
                sent.push(Instant::now());
                if write_frame(&mut w, &encode_request(req)).is_err() {
                    break;
                }
            }
            sent
        });
        let receiver = s.spawn(move || {
            let mut r = BufReader::new(read_half);
            let mut received = Vec::with_capacity(queries.len());
            while received.len() < queries.len() {
                match read_frame(&mut r) {
                    Ok(Some(payload)) => {
                        received.push((Instant::now(), decode_response(&payload).ok()))
                    }
                    _ => break,
                }
            }
            received
        });
        let mut done = Vec::with_capacity(ingests.len());
        for (req, &due) in ingests.iter().zip(ingest_due) {
            sleep_until(due);
            let sent = Instant::now();
            let resp = ingest_conn.call(req).ok();
            done.push((sent, Instant::now(), resp));
        }
        Load {
            sent: sender.join().expect("query sender"),
            received: receiver.join().expect("query receiver"),
            ingests: done,
        }
    })
}

/// Serving costs measured in process on `state`: `ServeState::handle`
/// for point and top-k queries, and the request and response codec.
/// Returns the medians of point handling and codec, in microseconds.
pub fn handle_costs(
    state: &ServeState,
    n: usize,
    k: u32,
    seed: u64,
    report: &mut Report,
    tr: &mut Tracer,
) -> (f64, f64) {
    let mut point = Vec::new();
    let mut codec = Vec::new();
    for i in 0..2000u64 {
        let req = Request::PointScore {
            epoch: LATEST,
            node: (splitmix64(seed ^ !i) % n as u64) as NodeId,
        };
        let t = Instant::now();
        let resp = tr.span("serve.handle_point", |_| state.handle(black_box(&req)));
        point.push(us(t.elapsed()));
        let t = Instant::now();
        tr.span("net.codec", |_| {
            let req = decode_request(&encode_request(black_box(&req)));
            let resp = decode_response(&encode_response(black_box(&resp)));
            black_box((req.is_ok(), resp.is_ok()));
        });
        codec.push(us(t.elapsed()));
    }
    let mut topk = Vec::new();
    for _ in 0..20 {
        let req = Request::TopK { epoch: LATEST, k };
        let t = Instant::now();
        black_box(tr.span("serve.handle_topk", |_| state.handle(black_box(&req))));
        topk.push(ms(t.elapsed()));
    }
    let (handle_us, codec_us) = (median(&point), median(&codec));
    report.layer("serve.handle_point_us", handle_us, "us");
    report.layer("serve.handle_topk_ms", median(&topk), "ms");
    report.layer("net.codec_us", codec_us, "us");
    (handle_us, codec_us)
}

/// Publish costs measured in process: every batch is handled by a
/// `ServeState` over `engine` (ingest, snapshot and publish, with the
/// default retention), and ingested then snapshotted on a replica.
/// Returns the state.
pub fn publish_costs(
    engine: StreamEngine,
    batches: &[Request],
    report: &mut Report,
    tr: &mut Tracer,
) -> ServeState {
    let mut replica = engine.clone();
    let state = ServeState::new(engine, ServeConfig::default().retain);
    let (mut small, mut snapshot, mut handle) = (Vec::new(), Vec::new(), Vec::new());
    for req in batches {
        let Request::IngestBatch { events } = req else {
            continue;
        };
        let t = Instant::now();
        tr.span("stream.ingest_batch", |_| replica.ingest_batch(events));
        small.push(ms(t.elapsed()));
        let t = Instant::now();
        let snap = tr.span("stream.epoch_snapshot", |_| replica.epoch_snapshot());
        snapshot.push(ms(t.elapsed()));
        drop(snap);
        let t = Instant::now();
        black_box(tr.span("serve.handle_ingest", |_| state.handle(req)));
        handle.push(ms(t.elapsed()));
    }
    report.layer("stream.small_batch_ms", median(&small), "ms");
    report.layer("stream.epoch_snapshot_ms", median(&snapshot), "ms");
    report.layer("serve.ingest_handle_ms", median(&handle), "ms");
    state
}

/// `serve.epochs_retained` and `serve.epoch_bytes` from an `EpochInfo`
/// answer about an `n`-node graph.
pub fn epoch_metrics(info: Option<Response>, n: usize, report: &mut Report) {
    let (retained, edges) = match info {
        Some(Response::EpochInfo {
            epoch,
            oldest,
            edges,
            ..
        }) => (epoch - oldest + 1, edges),
        _ => (0, 0),
    };
    report.exact("serve.epochs_retained", retained as f64, "count");
    // Bytes one retained epoch holds: CSR offsets and columns plus the
    // two feature vectors.
    let n = n as u64;
    report.exact(
        "serve.epoch_bytes",
        (8 * (n + 1) + 8 * edges + 16 * n) as f64,
        "bytes",
    );
}
