//! Property-based pins for the streaming engine's two core contracts:
//!
//! 1. **Compaction ≡ rebuild** — an engine that compacts aggressively
//!    and one that never compacts produce bit-identical scores, and the
//!    compacted base, wherever its slack lies, equals a CSR rebuilt from
//!    the current edge set from scratch;
//! 2. **Snapshot → restore → continue ≡ uninterrupted** — cutting the
//!    stream at any batch boundary and resuming from the snapshot
//!    yields byte-identical summaries and scores for the rest of the
//!    stream.

use ba_graph::{CsrGraph, DeltaOverlay, EditableGraph, Graph, GraphView, NodeId};
use ba_stream::{BatchSummary, StreamConfig, StreamEngine, StreamEvent};
use proptest::prelude::*;

/// Strategy: a connected-ish random simple graph on `6..=max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), n..n * 3).prop_map(
            move |pairs| {
                let mut g = Graph::from_edges(n, pairs);
                // Anchor a path so the regression never sees an empty
                // or all-isolated graph.
                for i in 0..n as NodeId - 1 {
                    g.add_edge(i, i + 1);
                }
                g
            },
        )
    })
}

/// Strategy: a batched event stream over node ids `0..n` (events may be
/// redundant or self-loops — the engine nets them out).
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

fn scores_bits(engine: &StreamEngine) -> Option<Vec<(NodeId, u64)>> {
    engine
        .top_k(engine.num_nodes())
        .ok()
        .map(|top| top.into_iter().map(|(i, s)| (i, s.to_bits())).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: compaction timing is unobservable, and the compacted
    /// base equals a from-scratch rebuild of the current edge set row
    /// for row, edge count and hash included.
    #[test]
    fn compaction_equals_rebuild_from_scratch(
        g in arb_graph(24),
        batches in arb_batches(24, 6),
    ) {
        let cfg = |frac: f64| StreamConfig { compact_fraction: frac, ..StreamConfig::default() };
        let mut eager = StreamEngine::new(&g, cfg(0.0)); // compact almost every batch
        let mut lazy = StreamEngine::new(&g, cfg(1.0));  // never compact
        for batch in &batches {
            let a = eager.ingest_batch(batch);
            let b = lazy.ingest_batch(batch);
            prop_assert_eq!(a.applied, b.applied);
            prop_assert_eq!(a.edges, b.edges);
            prop_assert_eq!(&a.params, &b.params);
            prop_assert_eq!(scores_bits(&eager), scores_bits(&lazy));
            // Adjacency is identical row for row...
            let (ge, gl) = (eager.to_graph(), lazy.to_graph());
            prop_assert_eq!(&ge, &gl);
            // ...and compacting the lazy engine's overlay now yields the
            // same bytes as freezing the edge set from scratch.
            let csr_lazy = CsrGraph::from_view(&gl);
            let mut check = Graph::new(ge.num_nodes());
            ge.for_each_edge(|u, v| { check.add_edge(u, v); });
            prop_assert_eq!(&CsrGraph::from_view(&check), &csr_lazy);
            // The eager engine folds every batch that applies an edit,
            // so its base alone is the current edge set.
            if eager.dirty_rows() == 0 {
                prop_assert_eq!(eager.base(), &csr_lazy);
            }
        }
    }

    /// Contract 1b (substrate level): folding an overlay's edits into
    /// its base with `CsrGraph::absorb` equals `CsrGraph::from_view` of
    /// the same overlay for arbitrary toggle histories.
    #[test]
    fn overlay_compact_matches_from_view(
        g in arb_graph(20),
        toggles in proptest::collection::vec((0u32..20, 0u32..20), 1..40),
    ) {
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        let n = ov.num_nodes() as NodeId;
        for (u, v) in toggles {
            ov.toggle_edge(u % n, v % n);
        }
        let rebuilt = CsrGraph::from_view(&ov);
        let mut folded = csr.clone();
        folded.absorb(ov.detach());
        prop_assert_eq!(folded, rebuilt);
    }

    /// Contract 2: killing the stream at any batch boundary and
    /// restoring from the snapshot continues byte-identically — batch
    /// summaries, scores, graph, and even future compaction timing.
    #[test]
    fn snapshot_restore_continue_equals_uninterrupted(
        g in arb_graph(24),
        batches in arb_batches(24, 6),
        cut_sel in 0usize..100,
    ) {
        let cfg = StreamConfig { compact_fraction: 0.2, ..StreamConfig::default() };
        let cut = cut_sel % batches.len();
        let path = std::env::temp_dir().join(format!(
            "ba_stream_proptest_{}_{cut}.snapshot",
            std::process::id()
        ));

        // Uninterrupted reference run.
        let mut reference = StreamEngine::new(&g, cfg);
        let mut ref_summaries: Vec<BatchSummary> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            ref_summaries.push(reference.ingest_batch(batch));
            if i == cut {
                // Also snapshot the reference at the cut so the restore
                // below resumes from a mid-stream state.
                reference.save_snapshot(&path).expect("save snapshot");
            }
        }

        // Killed-and-restored run over the remaining batches.
        let mut resumed = StreamEngine::restore_snapshot(&path).expect("restore");
        prop_assert_eq!(resumed.batches_ingested() as usize, cut + 1);
        let mut resumed_summaries: Vec<BatchSummary> = Vec::new();
        for batch in &batches[cut + 1..] {
            resumed_summaries.push(resumed.ingest_batch(batch));
        }
        prop_assert_eq!(&resumed_summaries[..], &ref_summaries[cut + 1..]);
        prop_assert_eq!(scores_bits(&resumed), scores_bits(&reference));
        prop_assert_eq!(resumed.to_graph(), reference.to_graph());
        prop_assert_eq!(resumed.compactions(), reference.compactions());
        let _ = std::fs::remove_file(&path);
    }
}
