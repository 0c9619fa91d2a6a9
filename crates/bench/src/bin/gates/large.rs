//! `large`: the million-node substrate, the nightly-tier scaling gate
//! (DESIGN.md §13, EXPERIMENTS.md "nightly tier"), end to end on a
//! Barabási–Albert graph (`n = 10^6`, `m = 11`: 1.1·10^7 edges):
//!
//! 1. **verify** — at a small `n`, the streamed builder must match the
//!    in-memory generator + CSR freeze bit for bit.
//! 2. **gen** — `barabasi_albert_stream` → `compact::from_edge_stream`:
//!    the graph is born in CSR form, never an edge list or mutable
//!    adjacency. At the default `--quick` instance the gate fails unless
//!    it has the pinned edge count, edge hash and max degree.
//! 3. **store** — `graphstore::write_chunked` to disk, an out-of-core
//!    chunk fold (`fold_degree_stats`, whose hash must equal the
//!    graph's), and a fully verified `read_chunked` reload.
//! 4. **score** — `StreamEngine::from_csr`: egonet features, OddBall fit
//!    and top-k at full scale, then one event batch through ingest. The
//!    gate fails unless the bootstrap `(N, E)` equals the per-node
//!    `deg + triangles_at` reference (computed before the timer starts)
//!    bit for bit.
//!
//! A failed builder, fold or round-trip check panics. `--quick` runs a
//! ~100k-node profile for CI; the full profile runs nightly. `--n`,
//! `--m` and `--batch` override the instance.

use crate::{Profile, Verdict};
use ba_bench::graphstore;
use ba_graph::compact::from_edge_stream;
use ba_graph::egonet::EgonetFeatures;
use ba_graph::{generators, CsrGraph, GraphView, NodeId};
use ba_net::BenchReport;
use ba_stream::{synthetic_stream, StreamConfig, StreamEngine};
use std::time::Instant;

const SEED: u64 = 0x5ca1e;

/// `(n, m, edges, edge_hash, max_degree)` of the default `--quick`
/// instance, BA(10^5, 11) at `SEED` — also perfbench's `ingest` graph.
const QUICK_GOLDEN: (usize, usize, usize, u64, usize) =
    (100_000, 11, 1_099_879, 0xb928a56c3662a6c4, 1814);

/// The failed check, unless the default `--quick` instance came out with
/// its pinned edge count, edge hash and max degree; other instances
/// have no golden and pass.
fn check_substrate(n: usize, m: usize, g: &CsrGraph) -> Option<String> {
    let (gn, gm, edges, hash, max_deg) = QUICK_GOLDEN;
    let got_max = (0..n as NodeId).map(|u| g.degree(u)).max().unwrap_or(0);
    let got = (g.num_edges(), g.edge_hash(), got_max);
    ((n, m) == (gn, gm) && got != (edges, hash, max_deg)).then(|| {
        format!(
            "BA({n}, {m}) diverges from its golden: got {} edges, hash {:#018x}, \
             max degree {}; want {edges}, {hash:#018x}, {max_deg}",
            got.0, got.1, got.2,
        )
    })
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

/// The failed check, naming the first differing node, unless the
/// engine bootstrapped exactly the reference features, bit for bit.
fn check_bootstrap(got: &EgonetFeatures, want: &EgonetFeatures) -> Option<String> {
    let bits = |f: &EgonetFeatures, i: usize| (f.n[i].to_bits(), f.e[i].to_bits());
    let first_diff = (0..want.len().max(got.len()))
        .find(|&i| i >= got.len() || i >= want.len() || bits(got, i) != bits(want, i));
    first_diff.map(|i| {
        format!(
            "bootstrap features diverge from the per-node reference at node {i}: \
             got {:?}, want {:?}",
            (got.n.get(i), got.e.get(i)),
            (want.n.get(i), want.e.get(i)),
        )
    })
}

pub fn run(profile: &Profile) -> Verdict {
    let &Profile { n, m, batch, .. } = profile;
    let store_dir = std::env::temp_dir().join(format!("ba_gates_large_{n}_{m}"));
    let _ = std::fs::remove_dir_all(&store_dir);

    // Both builders draw from `barabasi_albert_stream`: this pins the
    // builder; `check_substrate` and ba-graph's tests pin the generator.
    eprintln!("[verify] small-n bit-identity (streamed vs in-memory)");
    let small = 3_000;
    let in_memory = CsrGraph::from(&generators::barabasi_albert(small, m, SEED));
    let streamed = from_edge_stream(small, || generators::barabasi_albert_stream(small, m, SEED));
    let streamed = streamed.expect("streamed build failed");
    assert_eq!(
        streamed, in_memory,
        "streamed CSR diverges from in-memory CSR"
    );

    eprintln!("[gen] BA n = {n}, m = {m} via streamed builder");
    let t0 = Instant::now();
    let g = from_edge_stream(n, || generators::barabasi_albert_stream(n, m, SEED))
        .expect("streamed build failed");
    let gen_s = t0.elapsed().as_secs_f64();
    let mut failed: Vec<String> = check_substrate(n, m, &g).into_iter().collect();
    let edges = g.num_edges();
    let resident_bytes = 8 * (n + 1 + edges);

    let chunk_rows = 65_536;
    let t0 = Instant::now();
    let meta = graphstore::write_chunked(&store_dir, &g, chunk_rows).expect("store write failed");
    let write_s = t0.elapsed().as_secs_f64();
    eprintln!("[store] {} chunks of {chunk_rows} rows", meta.num_chunks);

    let t0 = Instant::now();
    let (max_deg, deg_sum, fold_hash) =
        graphstore::fold_degree_stats(&store_dir).expect("chunk fold failed");
    let fold_s = t0.elapsed().as_secs_f64();
    assert_eq!(deg_sum, 2 * edges, "chunk fold lost entries");
    assert_eq!(fold_hash, g.edge_hash(), "chunk fold hash mismatch");

    let t0 = Instant::now();
    let reloaded = graphstore::read_chunked(&store_dir).expect("store read failed");
    let read_s = t0.elapsed().as_secs_f64();
    assert_eq!(reloaded, g, "store round-trip changed the graph");
    drop(reloaded);
    let _ = std::fs::remove_dir_all(&store_dir);

    eprintln!("[score] OddBall fit + top-k at full scale");
    let events = synthetic_stream(&g, batch, SEED + 1);
    let reference = per_node_features(&g);
    let t0 = Instant::now();
    let mut engine = StreamEngine::from_csr(g, StreamConfig::default());
    let fit_s = t0.elapsed().as_secs_f64();
    failed.extend(check_bootstrap(engine.features(), &reference));
    let top = engine.top_k(10).expect("fit degenerate at scale");
    eprintln!("[score] top AScore node {} ({:.3})", top[0].0, top[0].1);

    let t0 = Instant::now();
    let summary = engine.ingest_batch(&events);
    let ingest_s = t0.elapsed().as_secs_f64();
    assert!(summary.params.is_ok(), "refit degenerate after batch");
    eprintln!(
        "[ingest] {} applied, {} dirty rows",
        summary.applied, summary.dirty_rows
    );

    let report = BenchReport::new("large")
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
        );
    (report, failed)
}
