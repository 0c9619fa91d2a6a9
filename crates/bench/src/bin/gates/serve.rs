//! `serve`: served traffic through the real TCP stack. A
//! [`ba_serve::Server`] on an ephemeral loopback port serves an
//! Erdős–Rényi graph to concurrent client connections, each issuing a
//! fixed mix of point-score and top-k queries against the latest epoch,
//! while a background ingester publishes fresh epochs: the serving path
//! under load, epoch rotation included. Fails if sustained queries/sec
//! (completed queries over the client phase's wall-clock span) falls
//! below the floor; also reports p50/p99 round-trip latency. `--quick`
//! shrinks the workload.

use crate::{Profile, Verdict};
use ba_graph::generators;
use ba_net::BenchReport;
use ba_serve::{Connection, Request, Response, ServeConfig, Server, LATEST};
use ba_stream::{synthetic_stream, StreamConfig, StreamEngine};
use std::time::Instant;

/// Sustained-qps floor. Deliberately conservative: CI runners are slow
/// shared VMs, and the gate exists to catch order-of-magnitude serving
/// regressions (a stray lock across the read path), not scheduler
/// noise.
const REQUIRED_QPS: f64 = 2_000.0;

pub fn run(profile: &Profile) -> Verdict {
    let (clients, requests_per_client, ingest_batches) = if profile.quick {
        (4, 2_000, 10)
    } else {
        (8, 10_000, 40)
    };

    let n = 2000usize;
    let g = generators::erdos_renyi(n, 0.005, 7);
    let m = g.num_edges();
    let engine = StreamEngine::new(&g, StreamConfig::default());
    let server = Server::start("127.0.0.1:0", engine, ServeConfig::default()).expect("bind server");
    let addr = server.local_addr().to_string();
    eprintln!("serving on {addr}");

    // Background ingest: publish fresh epochs while queries fly, so the
    // measured path includes epoch rotation, not just a static snapshot.
    let ingest_events = synthetic_stream(&g, ingest_batches * 25, 11);
    let ingest_addr = addr.clone();
    let ingester = std::thread::spawn(move || {
        let mut conn = Connection::connect(&ingest_addr).expect("ingest connect");
        for batch in ingest_events.chunks(25) {
            let events = batch.to_vec();
            let resp = conn
                .call(&Request::IngestBatch { events })
                .expect("ingest call");
            assert!(matches!(resp, Response::Ingested { .. }), "{resp:?}");
        }
    });

    // Client fleet: each connection issues its requests back to back;
    // per-request latencies are collected for the percentiles.
    let t0 = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut conn = Connection::connect(&addr).expect("client connect");
                    let mut lat = Vec::with_capacity(requests_per_client);
                    for i in 0..requests_per_client {
                        let req = if i % 20 == 19 {
                            Request::TopK {
                                epoch: LATEST,
                                k: 10,
                            }
                        } else {
                            Request::PointScore {
                                epoch: LATEST,
                                node: ((i * 7919 + c * 104729) % n) as u32,
                            }
                        };
                        let q0 = Instant::now();
                        let resp = conn.call(&req).expect("query call");
                        lat.push(q0.elapsed().as_secs_f64() * 1e6);
                        assert!(
                            matches!(resp, Response::Score { .. } | Response::TopK { .. }),
                            "unexpected response: {resp:?}"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let span_s = t0.elapsed().as_secs_f64();
    ingester.join().expect("ingester thread");
    server.shutdown();

    let mut all: Vec<f64> = latencies.into_iter().flatten().collect();
    all.sort_by(f64::total_cmp);
    let total = all.len();
    let qps = total as f64 / span_s;
    let p50 = all[total / 2];
    let p99 = all[(total * 99 / 100).min(total - 1)];

    let report = BenchReport::new("serve")
        .metric("n", n as f64, "count")
        .metric("m", m as f64, "count")
        .metric("clients", clients as f64, "count")
        .metric("requests", total as f64, "count")
        .metric("ingest_batches", ingest_batches as f64, "count")
        .metric("span_s", span_s, "s")
        .metric("sustained_qps", qps, "qps")
        .metric("p50_latency_us", p50, "us")
        .metric("p99_latency_us", p99, "us");
    let failed = (qps < REQUIRED_QPS).then(|| format!("{qps:.0} qps (need ≥{REQUIRED_QPS})"));
    (report, failed.into_iter().collect())
}
