//! # ba-stream
//!
//! Streaming anomaly-scoring engine for the BinarizedAttack
//! reproduction: the online counterpart to the batch-shaped entry
//! points. The engine ingests batches of timestamped edge
//! insert/delete events, maintains per-node egonet features and an
//! incrementally-refit OddBall model over a frozen
//! [`CsrGraph`](ba_graph::CsrGraph) plus a
//! [`DeltaOverlay`](ba_graph::DeltaOverlay), and serves point-score and
//! top-k anomaly queries between batches.
//!
//! Guarantees (each pinned by tests / CI gates):
//!
//! * **Full-refit equivalence** — after every batch the model and all
//!   scores are bit-identical to refitting OddBall from scratch on the
//!   materialised graph;
//! * **One live-refit kernel** — ingest nets, toggles, patches and
//!   refits through the same [`LiveFit`](ba_oddball::LiveFit) the τ_as
//!   curve replay uses: one common-neighbour merge per net edge flip;
//! * **Bit-exact resume** — [`StreamEngine::save_snapshot`] /
//!   [`StreamEngine::restore_snapshot`] (atomic rename + exact IEEE-754
//!   text codec, from the leaf [`ba_net::codec`]) let a killed stream
//!   continue with byte-identical future output, including compaction
//!   timing;
//! * **O(batch) steady state** — overlay compaction
//!   ([`CsrGraph::absorb`](ba_graph::CsrGraph::absorb)) folds
//!   accumulated edits into the frozen base, mostly into its per-row
//!   slack, before overlay overhead degrades ingest (`ba-bench`'s `stream` gate holds ≥5× sustained
//!   throughput against a per-batch full refit).
//!
//! ## Example
//!
//! ```
//! use ba_graph::generators;
//! use ba_stream::{synthetic_stream, StreamConfig, StreamEngine};
//!
//! let g = generators::erdos_renyi(200, 0.03, 7);
//! let mut engine = StreamEngine::new(&g, StreamConfig::default());
//! for batch in synthetic_stream(&g, 100, 1).chunks(25) {
//!     let summary = engine.ingest_batch(batch);
//!     assert!(summary.params.is_ok());
//! }
//! let top = engine.top_k(5).expect("model is fit");
//! assert_eq!(top.len(), 5);
//! ```

pub mod engine;
pub mod event;
pub mod snapshot;

pub use engine::{BatchSummary, EpochSnapshot, StreamConfig, StreamEngine};
pub use event::{load_events, save_events, synthetic_stream, EventIoError, StreamEvent};
pub use snapshot::SnapshotError;
