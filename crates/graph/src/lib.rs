//! # ba-graph
//!
//! Graph substrate for the BinarizedAttack reproduction: a simple
//! undirected, unweighted graph (exactly the object OddBall and the
//! attacks operate on — paper Sec. III, `A ∈ {0,1}^{n×n}`), together with
//!
//! The substrate has two representations behind one read interface
//! ([`GraphView`]): the mutable [`Graph`] (sorted adjacency vectors) and
//! the frozen [`CsrGraph`] (row offsets and lengths over one column
//! array, with slack after each row) with its
//! copy-on-write [`DeltaOverlay`] for single-edge toggles — the attack
//! optimisers read through views and never rebuild the substrate.
//! On top of it:
//!
//! * random-graph generators (Erdős–Rényi, Barabási–Albert, power-law
//!   configuration graphs) and planted near-clique / near-star anomalies,
//! * BFS sampling of ~1000-node connected subgraphs (the paper's
//!   pre-processing of the real datasets),
//! * edge-list IO,
//! * egonet feature extraction `N_i = Σ_j A_ij`, `E_i = N_i + ½(A³)_ii`,
//!   both batch and incrementally under single-edge toggles (the greedy
//!   attack's hot loop), and
//! * graph statistics (degree distribution, clustering, components).
//!
//! ## Quick example
//!
//! ```
//! use ba_graph::{Graph, generators};
//! let g = generators::erdos_renyi(100, 0.05, 7);
//! let feats = ba_graph::egonet::egonet_features(&g);
//! assert_eq!(feats.n.len(), 100);
//! for i in 0..100 {
//!     // E_i >= N_i always: the spokes are part of the egonet.
//!     assert!(feats.e[i] >= feats.n[i]);
//! }
//! ```
//!
//! ## Scaling
//!
//! For instances past ~10^5 nodes, the [`compact`] module builds a
//! [`CsrGraph`] directly from streamed generators
//! ([`generators::erdos_renyi_stream`],
//! [`generators::barabasi_albert_stream`]) without materialising an
//! edge list. The builder needs `O(n)` scratch beside the CSR; the
//! Barabási–Albert stream also holds one `u32` per edge emitted while
//! each pass runs. DESIGN.md §13 states the
//! memory model and determinism contract. Public-API documentation in this crate is enforced twice:
//! by `#![warn(missing_docs)]` below and by ba-lint's `missing-docs`
//! rule in CI.

#![warn(missing_docs)]

/// Dense adjacency-matrix helpers for small cross-check graphs.
pub mod adjacency;
/// The streamed two-pass CSR builder (scale model, DESIGN.md §13).
pub mod compact;
/// Frozen CSR representation and its copy-on-write delta overlay.
pub mod csr;
/// Egonet feature extraction, batch and incremental.
pub mod egonet;
/// Random-graph generators (in-memory and streamed) and anomaly
/// planting.
pub mod generators;
mod graph;
/// Edge-list reading and writing.
pub mod io;
/// Graph statistics: components, clustering, degree distributions.
pub mod metrics;
/// BFS subgraph sampling.
pub mod sample;
/// The read-only [`GraphView`] interface and sorted-merge kernels.
pub mod view;
/// Zobrist edge-set hashing.
pub mod zobrist;

pub use compact::CompactError;
pub use csr::{CsrGraph, DeltaOverlay, Fold, OverlayEdits};
pub use graph::{EdgeOp, Graph, NodeId};
pub use view::{EditableGraph, GraphView};
