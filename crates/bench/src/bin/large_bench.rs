//! Million-node substrate benchmark — the nightly-tier scaling gate
//! (DESIGN.md §13, EXPERIMENTS.md "nightly tier").
//!
//! Exercises the whole out-of-core path end to end on a Barabási–Albert
//! graph of ≥ 10^6 nodes / ≥ 10^7 edges (default `n = 1_000_000`,
//! `m = 11`):
//!
//! 1. **verify** — at a small `n`, the streamed builder is
//!    cross-checked bit-identical (offsets, columns, edge hash) against
//!    the in-memory generator + CSR freeze; a mismatch aborts before
//!    any timing is reported.
//! 2. **gen** — `barabasi_albert_stream` → `compact::from_edge_stream`:
//!    the graph is born directly in CSR form, never existing as an
//!    edge list or mutable adjacency. At the default `--quick` instance
//!    the run exits non-zero unless the graph has the pinned edge
//!    count, edge hash and max degree.
//! 3. **store** — `graphstore::write_chunked` to disk, an out-of-core
//!    chunk fold (`fold_degree_stats`, whose hash must equal the
//!    manifest's), and a fully verified `read_chunked` reload.
//! 4. **score** — `StreamEngine::from_csr` over the generated graph:
//!    egonet features + OddBall fit + top-k AScore ranking at full
//!    scale, then one event batch through the ingest pipeline. The
//!    bootstrap's `(N, E)` must equal the per-node
//!    `deg + triangles_at` reference bit for bit (computed before the
//!    timer starts); otherwise the run exits non-zero.
//!
//! `--quick` runs a ~100k-node profile for CI smoke; `--json PATH`
//! writes the `BENCH_large.json` perf-trend artifact.

use ba_bench::graphstore;
use ba_graph::compact::from_edge_stream;
use ba_graph::egonet::EgonetFeatures;
use ba_graph::{generators, CsrGraph, GraphView, NodeId};
use ba_net::BenchReport;
use ba_stream::{synthetic_stream, StreamConfig, StreamEngine};
use std::time::Instant;

const SEED: u64 = 0x5ca1e;

fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

/// Cross-check the streamed builder against the in-memory path at a
/// size where both fit comfortably; abort on any divergence. Both paths
/// draw their edges from `barabasi_albert_stream`, so this pins the
/// builder, not the generator: [`check_substrate`] and ba-graph's
/// reference test pin the generator's output.
fn verify_small(n: usize, m: usize) {
    let in_memory = CsrGraph::from(&generators::barabasi_albert(n, m, SEED));
    let streamed = from_edge_stream(n, || generators::barabasi_albert_stream(n, m, SEED))
        .expect("streamed build failed");
    assert_eq!(
        streamed, in_memory,
        "streamed CSR diverges from in-memory CSR"
    );
}

/// `(n, m, edges, edge_hash, max_degree)` of the default `--quick`
/// instance, BA(10^5, 11) at `SEED` — also perfbench's `ingest` graph.
const QUICK_GOLDEN: (usize, usize, usize, u64, usize) =
    (100_000, 11, 1_099_879, 0xb928a56c3662a6c4, 1814);

/// Exits non-zero unless the default `--quick` instance came out with
/// its pinned edge count, edge hash and max degree; other instances
/// have no golden and pass.
fn check_substrate(n: usize, m: usize, g: &CsrGraph) {
    let (gn, gm, edges, hash, max_deg) = QUICK_GOLDEN;
    if (n, m) != (gn, gm) {
        return;
    }
    let got_max = (0..n as NodeId).map(|u| g.degree(u)).max().unwrap_or(0);
    let got = (g.num_edges(), g.edge_hash(), got_max);
    if got != (edges, hash, max_deg) {
        eprintln!(
            "[gen] BA({n}, {m}) diverges from its golden: got {} edges, hash {:#018x}, \
             max degree {}; want {edges}, {hash:#018x}, {max_deg}",
            got.0, got.1, got.2,
        );
        std::process::exit(1);
    }
}

/// Per-node `(N, E) = (deg, deg + triangles_at)`, each node counted on
/// its own: the reference for the engine's one-pass bootstrap features.
fn per_node_features(g: &CsrGraph) -> EgonetFeatures {
    let nodes = 0..g.num_nodes() as NodeId;
    EgonetFeatures {
        n: nodes.clone().map(|u| g.degree(u) as f64).collect(),
        e: nodes
            .map(|u| (g.degree(u) + g.triangles_at(u)) as f64)
            .collect(),
    }
}

/// Exits non-zero, naming the first differing node, unless the engine
/// bootstrapped exactly the reference features, bit for bit.
fn check_bootstrap(got: &EgonetFeatures, want: &EgonetFeatures) {
    let bits = |f: &EgonetFeatures, i: usize| (f.n[i].to_bits(), f.e[i].to_bits());
    let first_diff = (0..want.len().max(got.len()))
        .find(|&i| i >= got.len() || i >= want.len() || bits(got, i) != bits(want, i));
    if let Some(i) = first_diff {
        eprintln!(
            "[score] bootstrap features diverge from the per-node reference at node {i}: \
             got {:?}, want {:?}",
            (got.n.get(i), got.e.get(i)),
            (want.n.get(i), want.e.get(i)),
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // m = 11 puts the default instance past 10^7 edges:
    // m + (n - m - 1) * m = 10_999_879.
    let n = arg_value(&args, "--n").unwrap_or(if quick { 100_000 } else { 1_000_000 });
    let m = arg_value(&args, "--m").unwrap_or(11);
    let batch = arg_value(&args, "--batch").unwrap_or(if quick { 2_000 } else { 10_000 });
    let store_dir = std::env::temp_dir().join(format!("ba_large_bench_{n}_{m}"));
    let _ = std::fs::remove_dir_all(&store_dir);

    eprintln!("[verify] small-n bit-identity (streamed vs in-memory)");
    verify_small(3_000, m);

    eprintln!("[gen] BA n = {n}, m = {m} via streamed builder");
    let t0 = Instant::now();
    let g = from_edge_stream(n, || generators::barabasi_albert_stream(n, m, SEED))
        .expect("streamed build failed");
    let gen_s = t0.elapsed().as_secs_f64();
    check_substrate(n, m, &g);
    let edges = g.num_edges();
    let resident_bytes = 8 * (n + 1 + edges);
    eprintln!(
        "      {edges} edges in {gen_s:.2}s ({:.0} edges/s), {:.1} MiB resident CSR",
        edges as f64 / gen_s,
        resident_bytes as f64 / (1024.0 * 1024.0)
    );

    let chunk_rows = 65_536;
    let t0 = Instant::now();
    let meta = graphstore::write_chunked(&store_dir, &g, chunk_rows).expect("store write failed");
    let write_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "[store] wrote {} chunks ({chunk_rows} rows each) in {write_s:.2}s",
        meta.num_chunks
    );

    let t0 = Instant::now();
    let (max_deg, deg_sum, fold_hash) =
        graphstore::fold_degree_stats(&store_dir).expect("chunk fold failed");
    let fold_s = t0.elapsed().as_secs_f64();
    assert_eq!(deg_sum, 2 * edges, "chunk fold lost entries");
    assert_eq!(fold_hash, g.edge_hash(), "chunk fold hash mismatch");
    eprintln!("[store] out-of-core fold in {fold_s:.2}s (max degree {max_deg})");

    let t0 = Instant::now();
    let reloaded = graphstore::read_chunked(&store_dir).expect("store read failed");
    let read_s = t0.elapsed().as_secs_f64();
    assert_eq!(reloaded, g, "store round-trip changed the graph");
    eprintln!("[store] verified full reload in {read_s:.2}s");
    drop(reloaded);
    let _ = std::fs::remove_dir_all(&store_dir);

    eprintln!("[score] OddBall fit + top-k at full scale");
    let events = synthetic_stream(&g, batch, SEED + 1);
    let reference = per_node_features(&g);
    let t0 = Instant::now();
    let mut engine = StreamEngine::from_csr(g, StreamConfig::default());
    let fit_s = t0.elapsed().as_secs_f64();
    check_bootstrap(engine.features(), &reference);
    let top = engine.top_k(10).expect("fit degenerate at scale");
    eprintln!(
        "      fit in {fit_s:.2}s; top AScore node {} ({:.3})",
        top[0].0, top[0].1
    );

    let t0 = Instant::now();
    let summary = engine.ingest_batch(&events);
    let ingest_s = t0.elapsed().as_secs_f64();
    assert!(summary.params.is_ok(), "refit degenerate after batch");
    eprintln!(
        "[ingest] {} events ({} applied, {} dirty rows) in {ingest_s:.2}s",
        events.len(),
        summary.applied,
        summary.dirty_rows
    );

    BenchReport::new("large")
        .metric("n", n as f64, "count")
        .metric("m_edges", edges as f64, "count")
        .metric("resident_csr_bytes", resident_bytes as f64, "bytes")
        .metric("max_degree", max_deg as f64, "count")
        .metric("gen_s", gen_s, "s")
        .metric("gen_edges_per_sec", edges as f64 / gen_s, "edges/s")
        .metric("store_write_s", write_s, "s")
        .metric("store_fold_s", fold_s, "s")
        .metric("store_read_s", read_s, "s")
        .metric("fit_s", fit_s, "s")
        .metric("ingest_s", ingest_s, "s")
        .metric(
            "ingest_events_per_sec",
            events.len() as f64 / ingest_s,
            "events/s",
        )
        .write_if_requested(&args)
        .expect("write bench json");
}
