//! The streaming anomaly-scoring engine.
//!
//! [`StreamEngine`] ingests batches of timestamped edge events over a
//! `CsrGraph + DeltaOverlay` substrate, maintains per-node egonet
//! features and an incrementally-refit OddBall model, and serves
//! point-score and top-k queries between batches. The per-batch
//! pipeline (see DESIGN.md §7 for the complexity model):
//!
//! 1. **Net.** Events are netted by [`net_edits`]: within a batch
//!    only the *final* presence of each touched edge matters (queries
//!    are only served at batch boundaries), so redundant
//!    inserts/deletes and insert→delete churn cost nothing downstream.
//!    Net ops come out keyed in sorted `(u, v)` order — deterministic.
//! 2. **Toggle, dirty set, merge.** The net ops go through the shared
//!    live-refit kernel, [`LiveFit::edit`] (DESIGN.md §2.3): one
//!    `O(deg u + deg v)` common-neighbour merge per flip patches
//!    `(N, E)` by exact integer deltas, and the rows that moved are
//!    patched into the fit in ascending node order. The same kernel
//!    replays the τ_as curve in `ba-core`.
//! 3. **Refit.** The model refits (O(1) for OLS) and the batch summary
//!    is emitted.
//!
//! **Compaction.** Overlay reads pay an indirection per touched row and
//! resets/compactions pay O(dirty), so once the dirty-row count crosses
//! `compact_fraction · n` the overlay is folded into the frozen base in
//! place ([`CsrGraph::absorb`]) and ingest continues over the clean
//! edits it hands back, which keep their slot table. Most folds copy
//! the dirty rows into the base's per-row slack; the few that find a
//! row outgrown re-lay out the base ([`StreamEngine::relayouts`]).
//! Compaction is invisible to scores and adjacency (pinned by
//! proptest), so steady-state ingest stays O(batch).

use crate::StreamEvent;
use ba_graph::egonet::{egonet_features, EgonetFeatures};
use ba_graph::{CsrGraph, DeltaOverlay, Fold, GraphView, NodeId, OverlayEdits};
use ba_oddball::{net_edits, rank_top_k, FitParams, LiveFit, Regressor};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Inert: ingest is serial and ignores this value. Kept only so
    /// existing struct literals that set it still compile; it goes at
    /// the next benchmark change.
    pub shards: usize,
    /// Compact the overlay into a fresh frozen base once more than
    /// `compact_fraction · num_nodes` rows have diverged.
    pub compact_fraction: f64,
    /// The detector's regression estimator.
    pub regressor: Regressor,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            compact_fraction: 0.125,
            regressor: Regressor::Ols,
        }
    }
}

/// What one [`StreamEngine::ingest_batch`] call did. Every field is a
/// pure function of (initial graph, event stream, batch boundaries) —
/// never of timing — so formatted summaries are safe to byte-compare
/// across snapshot/restore cuts.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// 1-based index of this batch since the engine was created.
    pub batch: u64,
    /// Events presented to the batch.
    pub events: usize,
    /// Net edge flips actually applied (after in-batch netting).
    pub applied: usize,
    /// Feature rows whose `(N, E)` differs from its pre-batch value.
    pub dirty_rows: usize,
    /// Edges after the batch.
    pub edges: usize,
    /// Whether this batch triggered an overlay compaction.
    pub compacted: bool,
    /// The refit model, or the degeneracy reason.
    pub params: Result<FitParams, String>,
}

/// A frozen, immutable view of the engine at one batch boundary: the
/// *epoch handle* the serving layer (`ba-serve`) publishes behind an
/// atomically swapped `Arc` so readers never block ingest.
///
/// The edge set itself is not copied: readers need only its size, and
/// freezing the adjacency would cost O(n + m) on every publish. The
/// snapshot holds no reference into the live engine. Every field is a
/// pure function of (initial graph, ingested event prefix), never of
/// timing, which is what makes epoch-pinned responses
/// replayable byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch number: the count of batches ingested when frozen (the
    /// initial fit, before any ingest, is epoch 0).
    pub epoch: u64,
    num_edges: usize,
    /// Per-node `(N, E)` egonet features at this epoch.
    pub feats: EgonetFeatures,
    /// The fitted model, or the degeneracy reason.
    pub params: Result<FitParams, String>,
}

impl EpochSnapshot {
    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.feats.len()
    }

    /// Number of edges at this epoch.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Anomaly score of one node under this epoch's model; `Err` for a
    /// node outside the graph.
    pub fn score(&self, node: NodeId) -> Result<f64, &str> {
        let params = self.params.as_ref().map_err(|e| e.as_str())?;
        params.score_at(&self.feats, node).ok_or(OUT_OF_RANGE)
    }

    /// The `k` highest-scoring nodes as `(node, score)`, descending;
    /// ties break toward smaller ids — the same deterministic order as
    /// [`StreamEngine::top_k`].
    pub fn top_k(&self, k: usize) -> Result<Vec<(NodeId, f64)>, &str> {
        let params = self.params.as_ref().map_err(|e| e.as_str())?;
        Ok(rank_top_k(&params.scores(&self.feats), k))
    }
}

/// The streaming engine. See the module docs for the batch pipeline.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    cfg: StreamConfig,
    base: CsrGraph,
    edits: OverlayEdits,
    live: LiveFit,
    params: Result<FitParams, String>,
    batches: u64,
    events_seen: u64,
    compactions: u64,
    /// Compactions that re-laid out the base. Not snapshotted: a
    /// restored base is packed, so it re-lays out at other points.
    relayouts: u64,
}

impl StreamEngine {
    /// Builds the engine over an initial graph: freezes it into the CSR
    /// base, extracts features, and fits the detector once.
    pub fn new<V: GraphView + ?Sized>(initial: &V, cfg: StreamConfig) -> Self {
        Self::from_csr(CsrGraph::from_view(initial), cfg)
    }

    /// Builds the engine directly over a prebuilt frozen [`CsrGraph`],
    /// skipping the [`CsrGraph::from_view`] copy [`StreamEngine::new`]
    /// pays. This is the bootstrap path for million-node bases that
    /// were streamed straight into CSR form (`ba_graph::compact`) and
    /// never existed as a mutable graph — features and the initial fit
    /// are derived exactly as `new` would. With no edits yet, the
    /// features are read straight off the CSR rows, not through an
    /// overlay's slot table.
    pub fn from_csr(base: CsrGraph, cfg: StreamConfig) -> Self {
        let feats = egonet_features(&base);
        Self::fitted(base, OverlayEdits::default(), feats, cfg)
    }

    /// Rebuilds an engine from snapshot parts: the frozen base, the
    /// overlay edits, and the stream counters. Features and the fit are
    /// re-derived — bit-identical to the states the live engine held
    /// (features are exact integer counts; the refit contract is pinned
    /// by `ba-oddball`'s incremental-fit equivalence suite).
    pub(crate) fn from_parts(
        base: CsrGraph,
        edits: OverlayEdits,
        cfg: StreamConfig,
        batches: u64,
        events_seen: u64,
        compactions: u64,
    ) -> Self {
        let view = DeltaOverlay::attach(&base, edits);
        let feats = egonet_features(&view);
        let edits = view.detach();
        Self {
            batches,
            events_seen,
            compactions,
            ..Self::fitted(base, edits, feats, cfg)
        }
    }

    /// An engine at batch 0 over `base + edits` with features `feats`:
    /// fits the detector once.
    fn fitted(
        base: CsrGraph,
        edits: OverlayEdits,
        feats: EgonetFeatures,
        cfg: StreamConfig,
    ) -> Self {
        let live = LiveFit::new(cfg.regressor, feats);
        let params = live.refit().map_err(|e| e.to_string());
        Self {
            cfg,
            base,
            edits,
            live,
            params,
            batches: 0,
            events_seen: 0,
            compactions: 0,
            relayouts: 0,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Number of nodes (fixed for the engine's lifetime).
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Current number of edges.
    pub fn num_edges(&self) -> usize {
        self.edits.num_edges_over(&self.base)
    }

    /// Batches ingested so far.
    pub fn batches_ingested(&self) -> u64 {
        self.batches
    }

    /// Events ingested so far (including redundant ones).
    pub fn events_ingested(&self) -> u64 {
        self.events_seen
    }

    /// Overlay compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Compactions since this engine was built or restored that found
    /// some row outgrown and re-laid out the whole base, rather than
    /// copying the dirty rows into their slack. A pure function of the
    /// engine's history, but not of its state: a restored engine starts
    /// over a packed base, so its count differs from the live one's,
    /// and it is kept out of summaries and snapshots.
    pub fn relayouts(&self) -> u64 {
        self.relayouts
    }

    /// Rows currently diverging from the frozen base.
    pub fn dirty_rows(&self) -> usize {
        self.edits.dirty_rows()
    }

    /// The frozen base substrate. The current edge set is this base
    /// plus the [`StreamEngine::dirty_rows`] pending edits, so after
    /// [`StreamEngine::compact`] it is the base alone.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Folds the pending edits into the base now, as a batch that
    /// crosses the compaction threshold does, and counts it as a
    /// compaction; a no-op when no row diverges.
    pub fn compact(&mut self) {
        if self.edits.is_clean() {
            return;
        }
        self.compactions += 1;
        let (edits, fold) = self.base.absorb(std::mem::take(&mut self.edits));
        self.relayouts += u64::from(fold == Fold::Relayout);
        self.edits = edits;
    }

    /// The overlay edit state (for snapshotting).
    pub(crate) fn edits(&self) -> &OverlayEdits {
        &self.edits
    }

    /// Current per-node egonet features.
    pub fn features(&self) -> &EgonetFeatures {
        self.live.features()
    }

    /// The current model, or the degeneracy reason of the last refit.
    pub fn params(&self) -> Result<FitParams, &str> {
        self.params.as_ref().copied().map_err(|e| e.as_str())
    }

    /// Materialises the current edge set as a standalone graph (tests
    /// and the full-refit baseline; O(n + m)).
    pub fn to_graph(&self) -> ba_graph::Graph {
        self.edits.to_graph_over(&self.base)
    }

    /// Anomaly score of one node under the current model; `Err` for a
    /// node outside the graph.
    pub fn score(&self, node: NodeId) -> Result<f64, &str> {
        let params = self.params()?;
        params.score_at(self.features(), node).ok_or(OUT_OF_RANGE)
    }

    /// The `k` highest-scoring nodes as `(node, score)`, descending;
    /// ties break toward smaller ids (same deterministic order as
    /// `OddBallModel::top_k`).
    pub fn top_k(&self, k: usize) -> Result<Vec<(NodeId, f64)>, &str> {
        let params = self.params()?;
        Ok(rank_top_k(&params.scores(self.features()), k))
    }

    /// Freezes the current state into an [`EpochSnapshot`]: the edge
    /// count is recorded and the features and model are cloned, so the
    /// snapshot shares nothing with the live engine and stays valid
    /// across any number of future batches.
    pub fn epoch_snapshot(&self) -> EpochSnapshot {
        EpochSnapshot {
            epoch: self.batches,
            num_edges: self.num_edges(),
            feats: self.features().clone(),
            params: self.params.clone(),
        }
    }

    /// Ingests one batch of events and refits the model at the batch
    /// boundary. Events referencing out-of-range nodes or self-loops
    /// are counted but otherwise ignored.
    pub fn ingest_batch(&mut self, events: &[StreamEvent]) -> BatchSummary {
        self.batches += 1;
        self.events_seen += events.len() as u64;

        let edits = std::mem::take(&mut self.edits);
        let mut view = DeltaOverlay::attach(&self.base, edits);
        // Net the batch, then toggle, patch and refit through the kernel.
        let net = events.iter().map(|ev| (ev.u, ev.v, ev.insert));
        let finals = net_edits(self.base.num_nodes(), net);
        let (applied, moved) = self.live.edit(&mut view, &finals);
        self.params = self.live.refit().map_err(|e| e.to_string());

        // Compaction: fold the overlay into a fresh frozen base once
        // enough rows have diverged. Invisible to scores and adjacency.
        let edges = view.num_edges();
        let threshold = (self.cfg.compact_fraction * self.base.num_nodes() as f64).ceil() as usize;
        let compacted = view.dirty_rows() > threshold.max(1);
        self.edits = view.detach();
        if compacted {
            self.compact();
        }

        BatchSummary {
            batch: self.batches,
            events: events.len(),
            applied,
            dirty_rows: moved,
            edges,
            compacted,
            params: self.params.clone(),
        }
    }
}

/// The error a point query for a node outside the graph returns.
const OUT_OF_RANGE: &str = "node out of range";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::synthetic_stream;
    use ba_graph::egonet::egonet_features;
    use ba_graph::generators;
    use ba_oddball::OddBall;

    #[test]
    fn from_csr_matches_new_bitwise() {
        let g = generators::barabasi_albert(200, 3, 31);
        let cfg = StreamConfig::default();
        let mut a = StreamEngine::new(&g, cfg);
        let mut b = StreamEngine::from_csr(CsrGraph::from_view(&g), cfg);
        assert_eq!(a.epoch_snapshot(), b.epoch_snapshot());
        assert_eq!(a.to_graph(), b.to_graph());
        // And they stay locked together under ingest.
        let events = synthetic_stream(&g, 120, 5);
        for batch in events.chunks(40) {
            assert_eq!(a.ingest_batch(batch), b.ingest_batch(batch));
        }
        assert_eq!(a.epoch_snapshot(), b.epoch_snapshot());
        assert_eq!(a.to_graph(), b.to_graph());
    }

    fn engine_over_er(compact_fraction: f64) -> (ba_graph::Graph, StreamEngine) {
        let g = generators::erdos_renyi(150, 0.04, 7);
        let cfg = StreamConfig {
            compact_fraction,
            ..StreamConfig::default()
        };
        let engine = StreamEngine::new(&g, cfg);
        (g, engine)
    }

    /// After every batch the engine state equals a from-scratch fit on
    /// the materialised graph — features, parameters, and scores.
    #[test]
    fn engine_matches_full_refit_every_batch() {
        let (g, mut engine) = engine_over_er(0.25);
        let events = synthetic_stream(&g, 300, 5);
        let mut baseline = g.clone();
        for batch in events.chunks(30) {
            let summary = engine.ingest_batch(batch);
            for ev in batch {
                if ev.insert {
                    baseline.add_edge(ev.u, ev.v);
                } else {
                    baseline.remove_edge(ev.u, ev.v);
                }
            }
            assert_eq!(engine.to_graph(), baseline);
            assert_eq!(summary.edges, baseline.num_edges());
            assert_eq!(engine.features(), &egonet_features(&baseline));
            let model = OddBall::default().fit(&baseline).expect("baseline fit");
            let params = summary.params.expect("engine fit");
            assert_eq!(params.beta0.to_bits(), model.beta0().to_bits());
            assert_eq!(params.beta1.to_bits(), model.beta1().to_bits());
            // Point scores and ranking agree bit-for-bit.
            for i in 0..10u32 {
                assert_eq!(engine.score(i).unwrap().to_bits(), model.score(i).to_bits());
            }
            let top: Vec<(NodeId, u64)> = engine
                .top_k(10)
                .unwrap()
                .into_iter()
                .map(|(i, s)| (i, s.to_bits()))
                .collect();
            let model_top: Vec<(NodeId, u64)> = model
                .top_k(10)
                .into_iter()
                .map(|(i, s)| (i, s.to_bits()))
                .collect();
            assert_eq!(top, model_top);
        }
    }

    /// `dirty_rows` counts rows whose raw `(N, E)` ends the batch away
    /// from its pre-batch value — including `N` 1→0, which the fit's
    /// clamped log rows cannot see — and not rows that moved and moved
    /// back within the batch.
    #[test]
    fn dirty_rows_count_exactly_the_rows_that_moved() {
        let g = ba_graph::Graph::from_edges(10, [(0, 1), (3, 4), (3, 5), (3, 6), (4, 6), (8, 9)]);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        let before = engine.features().clone();
        let summary = engine.ingest_batch(&[
            // (a) Two new edges close the triangle 0–1–2.
            StreamEvent::new(0, 0, 2, true),
            StreamEvent::new(1, 2, 1, true),
            // (b) Removing their only edge isolates 8 and 9 (N 1→0).
            StreamEvent::new(2, 9, 8, false),
            // (c) 3 is a common neighbour of both pairs, so E_3 moves
            // +1 then −1; 4 gains and loses one edge and ends unchanged.
            StreamEvent::new(3, 4, 5, true),
            StreamEvent::new(4, 4, 6, false),
        ]);
        let after = engine.features();
        assert_eq!(after, &egonet_features(&engine.to_graph()));
        assert_eq!((before.n[3], before.e[3]), (after.n[3], after.e[3]));
        assert_eq!((before.n[4], before.e[4]), (after.n[4], after.e[4]));
        assert_eq!((before.n[8], after.n[8]), (1.0, 0.0));
        assert_eq!(summary.applied, 5);
        // 0, 1, 2 (triangle), 5, 6 (the (c) pairs), 8, 9 (isolated).
        assert_eq!(summary.dirty_rows, 7);
    }

    /// Out-of-range point queries are an error on the engine and on an
    /// epoch snapshot alike, never an index panic.
    #[test]
    fn score_rejects_out_of_range_nodes() {
        let (_, engine) = engine_over_er(0.25);
        let snap = engine.epoch_snapshot();
        let n = engine.num_nodes() as NodeId;
        assert!(engine.score(n - 1).is_ok());
        assert!(snap.score(n - 1).is_ok());
        for node in [n, NodeId::MAX] {
            assert!(engine.score(node).is_err());
            assert!(snap.score(node).is_err());
        }
    }

    /// In-batch churn nets out: insert→delete of the same edge within a
    /// batch applies nothing.
    #[test]
    fn redundant_events_net_to_nothing() {
        let (_, mut engine) = engine_over_er(0.25);
        let edges_before = engine.num_edges();
        let summary = engine.ingest_batch(&[
            StreamEvent::new(0, 0, 149, true),
            StreamEvent::new(1, 0, 149, false),
            StreamEvent::new(2, 2, 2, true),    // self-loop: ignored
            StreamEvent::new(3, 0, 5000, true), // out of range: ignored
        ]);
        assert_eq!(summary.applied, 0);
        assert_eq!(summary.dirty_rows, 0);
        assert_eq!(summary.events, 4);
        assert_eq!(engine.num_edges(), edges_before);
    }

    /// An aggressive compaction threshold folds the overlay every few
    /// batches without perturbing anything observable.
    #[test]
    fn compaction_is_invisible_to_scores() {
        let events = {
            let g = generators::erdos_renyi(150, 0.04, 7);
            synthetic_stream(&g, 300, 13)
        };
        let (_, mut eager) = engine_over_er(0.0); // compact whenever dirty > 1
        let (_, mut lazy) = engine_over_er(1.0); // never compact
        for batch in events.chunks(25) {
            let a = eager.ingest_batch(batch);
            let b = lazy.ingest_batch(batch);
            // Summaries agree except for the compaction flag itself.
            assert_eq!(a.applied, b.applied);
            assert_eq!(a.dirty_rows, b.dirty_rows);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.params, b.params);
            assert_eq!(eager.top_k(15).unwrap(), lazy.top_k(15).unwrap());
        }
        assert!(eager.compactions() > 0);
        assert_eq!(lazy.compactions(), 0);
        assert_eq!(eager.to_graph(), lazy.to_graph());
    }

    /// An epoch snapshot is a frozen copy: it matches the engine at the
    /// moment of freezing bit-for-bit and is immune to later batches.
    #[test]
    fn epoch_snapshot_is_frozen_and_bit_identical() {
        let (g, mut engine) = engine_over_er(0.1);
        let events = synthetic_stream(&g, 200, 21);
        let mut batches = events.chunks(40);
        engine.ingest_batch(batches.next().unwrap());
        let snap = engine.epoch_snapshot();
        assert_eq!(snap.epoch, 1);
        // The counts match the materialised edge set.
        let live = engine.to_graph();
        assert_eq!(snap.num_nodes(), live.num_nodes());
        assert_eq!(snap.num_edges(), live.num_edges());
        let frozen_top: Vec<(NodeId, u64)> = snap
            .top_k(10)
            .unwrap()
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        let live_top: Vec<(NodeId, u64)> = engine
            .top_k(10)
            .unwrap()
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        assert_eq!(frozen_top, live_top);
        assert_eq!(
            snap.score(3).unwrap().to_bits(),
            engine.score(3).unwrap().to_bits()
        );
        // Later ingest moves the engine but not the snapshot.
        for batch in batches {
            engine.ingest_batch(batch);
        }
        let after: Vec<(NodeId, u64)> = snap
            .top_k(10)
            .unwrap()
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        assert_eq!(after, frozen_top);
        assert_eq!(engine.epoch_snapshot().epoch, engine.batches_ingested());
    }

    /// Degenerate graphs surface as an error value, not a panic.
    #[test]
    fn degenerate_refit_is_reported_not_panicked() {
        // A cycle is degree-regular: the log-log regression is singular.
        let n = 20u32;
        let edges: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = ba_graph::Graph::from_edges(n as usize, edges);
        let engine = StreamEngine::new(&g, StreamConfig::default());
        assert!(engine.params().is_err());
        assert!(engine.score(0).is_err());
        assert!(engine.top_k(3).is_err());
    }
}
