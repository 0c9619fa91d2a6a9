//! Replay determinism: the serving layer's contract that responses are
//! pure functions of (request, pinned epoch).
//!
//! 1. **Epoch ≡ prefix** (proptest) — epoch-`N` responses from a
//!    long-lived server state are bit-identical to those of a
//!    from-scratch engine fed the same `N`-batch prefix;
//! 2. **Client-count invariance** (TCP) — replaying a request log at 1
//!    and 4 concurrent clients produces byte-identical transcripts.

use ba_graph::{Graph, NodeId};
use ba_serve::{
    encode_response, format_request, render_response, replay, synthetic_requests, Request,
    ServeConfig, ServeState, Server, WorkloadConfig,
};
use ba_stream::{StreamConfig, StreamEngine, StreamEvent};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), n..n * 3).prop_map(
            move |pairs| {
                let mut g = Graph::from_edges(n, pairs);
                for i in 0..n as NodeId - 1 {
                    g.add_edge(i, i + 1);
                }
                g
            },
        )
    })
}

fn arb_batches(n: usize, max_batches: usize) -> impl Strategy<Value = Vec<Vec<StreamEvent>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 0..2u32), 1..12),
        1..=max_batches,
    )
    .prop_map(|batches| {
        let mut t = 0u64;
        batches
            .into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|(u, v, insert)| {
                        t += 1;
                        StreamEvent::new(t, u, v, insert == 1)
                    })
                    .collect()
            })
            .collect()
    })
}

/// The query set compared per epoch: top-k plus a point score per node.
fn epoch_probe(n: usize, epoch: u64) -> Vec<Request> {
    let mut probes = vec![Request::TopK { epoch, k: 8 }];
    probes.extend((0..n as NodeId).map(|node| Request::PointScore { epoch, node }));
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Epoch-`N` responses from a state that lived through the whole
    /// stream are bit-identical to a from-scratch engine fed only the
    /// first `N` batches. Error responses (degenerate fits) must agree
    /// too — determinism covers the unhappy path.
    #[test]
    fn epoch_n_matches_from_scratch_prefix_engine(
        g in arb_graph(20),
        batches in arb_batches(20, 5),
    ) {
        let n = g.num_nodes();
        let cfg = StreamConfig::default();
        let lived = ServeState::new(StreamEngine::new(&g, cfg), usize::MAX);
        for batch in &batches {
            lived.ingest(batch);
        }
        for prefix in 0..=batches.len() {
            let mut fresh_engine = StreamEngine::new(&g, cfg);
            for batch in &batches[..prefix] {
                fresh_engine.ingest_batch(batch);
            }
            // The fresh state's only epoch is `prefix` — pinning it on
            // both sides compares frozen snapshots directly.
            let fresh = ServeState::new(fresh_engine, 1);
            for req in epoch_probe(n, prefix as u64) {
                prop_assert_eq!(
                    encode_response(&lived.handle(&req)),
                    encode_response(&fresh.handle(&req)),
                    "epoch {} diverged from its prefix engine", prefix
                );
            }
        }
    }
}

/// Replaying the same request log at 1 and 4 concurrent clients over
/// real TCP yields byte-identical transcripts (the in-CI step diffs
/// 1 vs 8; this is the in-tree pin of the same contract).
#[test]
fn replay_transcript_is_identical_at_1_and_4_clients() {
    let g = ba_graph::generators::erdos_renyi(150, 0.04, 17);
    let requests = synthetic_requests(
        &g,
        &WorkloadConfig {
            batches: 4,
            batch_size: 30,
            queries_per_batch: 24,
            top_k: 6,
            seed: 21,
        },
    );

    let transcript_with = |clients: usize| -> String {
        // A fresh server per replay: ingest requests mutate state, so
        // determinism is defined from a cold start — same as CI.
        let engine = StreamEngine::new(&g, StreamConfig::default());
        let server =
            Server::start("127.0.0.1:0", engine, ServeConfig::default()).expect("bind server");
        let responses =
            replay(&server.local_addr().to_string(), &requests, clients).expect("replay");
        server.shutdown();
        let mut out = String::new();
        for (req, resp) in requests.iter().zip(&responses) {
            out.push_str(&format_request(req));
            out.push_str(" => ");
            out.push_str(&render_response(resp));
            out.push('\n');
        }
        out
    };

    let solo = transcript_with(1);
    let fanned = transcript_with(4);
    assert!(
        solo.contains("ingested epoch="),
        "transcript looks empty:\n{solo}"
    );
    assert_eq!(solo, fanned, "transcripts diverged between 1 and 4 clients");
}
