//! Served-traffic load benchmark: sustained queries/sec and p99 latency
//! through the real TCP stack.
//!
//! Starts a [`ba_serve::Server`] on an ephemeral loopback port over an
//! Erdős–Rényi graph, then drives `clients` concurrent connections,
//! each issuing a fixed per-connection mix of point-score and top-k
//! queries against the latest epoch while a background ingester
//! publishes fresh epochs — the serving path under load, epoch
//! rotation included. Reports:
//!
//! * **sustained_qps** — total completed queries / wall-clock span of
//!   the client phase;
//! * **p99_latency_us** — 99th-percentile per-request round-trip.
//!
//! Exits non-zero if sustained throughput falls below the floor — the
//! CI gate for the serving path. `--quick` shrinks the workload (CI),
//! `--json PATH` records the result in the unified perf-trend schema
//! (`BENCH_serve.json`).

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (clients, requests_per_client, ingest_batches) = if quick {
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
    eprintln!(
        "serving n = {n}, m = {m} on {addr}; {clients} clients x {requests_per_client} requests"
    );

    // Background ingest: publish fresh epochs while queries fly, so the
    // measured path includes epoch rotation, not just a static snapshot.
    let ingest_events = synthetic_stream(&g, ingest_batches * 25, 11);
    let ingest_addr = addr.clone();
    let ingester = std::thread::spawn(move || {
        let mut conn = Connection::connect(&ingest_addr).expect("ingest connect");
        for batch in ingest_events.chunks(25) {
            let resp = conn
                .call(&Request::IngestBatch {
                    events: batch.to_vec(),
                })
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

    println!("requests:       {total} over {span_s:.3}s ({clients} clients)");
    println!("sustained qps:  {qps:>10.0} (gate: ≥{REQUIRED_QPS})");
    println!("latency p50:    {p50:>10.1} us");
    println!("latency p99:    {p99:>10.1} us");

    BenchReport::new("serve")
        .metric("n", n as f64, "count")
        .metric("m", m as f64, "count")
        .metric("clients", clients as f64, "count")
        .metric("requests", total as f64, "count")
        .metric("ingest_batches", ingest_batches as f64, "count")
        .metric("span_s", span_s, "s")
        .metric("sustained_qps", qps, "qps")
        .metric("p50_latency_us", p50, "us")
        .metric("p99_latency_us", p99, "us")
        .write_if_requested(&args)
        .expect("write bench json");

    if qps < REQUIRED_QPS {
        eprintln!("FAIL: sustained throughput {qps:.0} qps is below the {REQUIRED_QPS} qps floor");
        std::process::exit(1);
    }
}
