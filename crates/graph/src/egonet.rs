//! Egonet feature extraction (paper Sec. III / Eq. (5b)).
//!
//! For node `i`, OddBall's two critical features are
//!
//! * `N_i = Σ_j A_ij` — the number of one-hop neighbours, and
//! * `E_i = N_i + ½ (A³)_ii` — the number of edges inside the egonet:
//!   the `N_i` spokes plus the edges among the neighbours (each triangle
//!   through `i` contributes one such edge, and `(A³)_ii = 2·triangles`).
//!
//! [`egonet_features`](crate::egonet::egonet_features) extracts both in
//! one pass over the triangles, oriented by node id so each is found
//! once, from its largest corner, by merging sorted-row prefixes below
//! that corner. Beyond its output it allocates one `u32` prefix length
//! per node; the prefixes are subslices of the rows the graph already
//! holds. Every detector fit,
//! attack session, stream bootstrap and snapshot restore runs this pass
//! over the whole graph.
//!
//! Everything here is generic over [`GraphView`], so features come out of
//! the mutable [`Graph`](crate::Graph), the frozen
//! [`CsrGraph`](crate::CsrGraph), and the
//! [`DeltaOverlay`](crate::DeltaOverlay) identically. The incremental
//! updater maintains `(N, E)` under single-edge toggles in
//! `O(deg(u) + deg(v))` on any [`EditableGraph`]. It is the one
//! feature-update kernel of the workspace: the greedy attack, the τ_as
//! curve evaluation and stream ingest all flip edges through it, where
//! recomputing features from scratch would be quadratic.

use crate::view::{merge_common, EditableGraph, GraphView};
use crate::{EdgeOp, NodeId};

/// The `(N, E)` feature vectors of every node.
#[derive(Debug, Clone, PartialEq)]
pub struct EgonetFeatures {
    /// `N_i`: degree of node `i`.
    pub n: Vec<f64>,
    /// `E_i`: edges in the egonet of node `i` (spokes + neighbour edges).
    pub e: Vec<f64>,
}

impl EgonetFeatures {
    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n.len()
    }

    /// `true` when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.n.is_empty()
    }
}

/// Computes `(N_i, E_i)` for every node in one pass over the graph's
/// triangles, each found exactly once.
///
/// Triangles are oriented by node id: the triangle `w < v < u` is found
/// only from its largest corner `u`. For every `u`, let `lo(u)` be the
/// prefix of its sorted row below `u`. For each `v = lo(u)[i]`, the
/// common elements of `lo(u)[..i]` and `lo(v)` are exactly the `w` that
/// close a triangle `w < v < u`, and each hit adds one to `E` at all
/// three corners. Starting from `E = N = deg` this gives
/// `E_i = deg(i) + T_i`, where `T_i` is the number of triangles through
/// `i` ([`GraphView::triangles_at`]). Every value is an integer-valued
/// `f64` far below 2⁵³, so the sum is exact and equals the per-node
/// `deg + triangles_at` bit for bit, in any order of additions.
///
/// Cost: `O(n + Σ_u deg⁻(u) · deg(u))`, with `deg⁻(u) = |lo(u)|`, against
/// `O(n + m + Σ_u deg(u)²)` for calling `triangles_at` at every node, which
/// finds each triangle three times from whole rows. [`merge_common`]
/// gallops when one prefix is much shorter than the other, so a hub's
/// long row costs little when it is merged against a leaf's.
///
/// Besides the two output vectors, the pass allocates one `u32` per
/// node (4 bytes per node): the length of each node's prefix, found by
/// one binary search when the pass reaches the node, so a row merged
/// against many times is cut only once. The prefixes themselves are
/// subslices of the rows the view already holds. Orienting by degree
/// instead of id would bound the work better on graphs whose hubs have
/// high ids, but it needs the oriented rows materialised, 4 bytes per
/// edge — a transient the size of the graph's own columns.
pub fn egonet_features<V: GraphView + ?Sized>(g: &V) -> EgonetFeatures {
    let n = g.degrees_f64();
    let mut e = n.clone();
    // `lo_len[v] = |lo(v)|`, cut once when the pass reaches `v`: every
    // `v` merged against at node `u` is below `u`, so already cut.
    let mut lo_len: Vec<u32> = Vec::with_capacity(n.len());
    for u in 0..g.num_nodes() as NodeId {
        let row = g.neighbors_sorted(u);
        let lo = &row[..row.partition_point(|&v| v < u)];
        lo_len.push(lo.len() as u32);
        for (i, &v) in lo.iter().enumerate() {
            let lo_v = &g.neighbors_sorted(v)[..lo_len[v as usize] as usize];
            let mut closed = 0.0;
            merge_common(&lo[..i], lo_v, |w| {
                e[w as usize] += 1.0;
                closed += 1.0;
            });
            e[v as usize] += closed;
            e[u as usize] += closed;
        }
    }
    EgonetFeatures { n, e }
}

/// Maintains egonet features incrementally while a graph is being edited.
///
/// The updater owns nothing: callers keep mutating the graph through
/// [`IncrementalEgonet::toggle`], which applies the edge flip and patches
/// the features of exactly the affected nodes (the two endpoints and
/// their common neighbours). Works on any [`EditableGraph`] — the
/// in-place [`Graph`](crate::Graph) or a
/// [`DeltaOverlay`](crate::DeltaOverlay) over a frozen CSR base.
#[derive(Debug, Clone)]
pub struct IncrementalEgonet {
    feats: EgonetFeatures,
}

impl IncrementalEgonet {
    /// Builds the initial features from `g`.
    pub fn new<V: GraphView + ?Sized>(g: &V) -> Self {
        Self {
            feats: egonet_features(g),
        }
    }

    /// Rebuilds the updater from precomputed features (used by attack
    /// sessions to restore the clean-graph state without re-extraction).
    pub fn from_features(feats: EgonetFeatures) -> Self {
        Self { feats }
    }

    /// Current features.
    pub fn features(&self) -> &EgonetFeatures {
        &self.feats
    }

    /// Toggles `{u, v}` in `g` and patches the features. Returns the op
    /// performed, or `None` for a self-loop.
    ///
    /// Let `c = |nbrs(u) ∩ nbrs(v)|`; the edge `{u,v}` never lies in
    /// that intersection, so `c` is the same before and after the flip.
    /// Adding `{u,v}` (removing is the exact negation):
    /// * `N_u` and `N_v` rise by 1;
    /// * `E_u` rises by `1 + c`: the new spoke `u–v`, plus one
    ///   neighbour edge `v–m` per common neighbour `m`, since `v` and
    ///   each such `m` are now both in u's egonet; symmetrically `E_v`;
    /// * `E_m` rises by 1 for every common neighbour `m`: the edge
    ///   `{u,v}` now lies inside m's egonet.
    ///
    /// Every delta is an integer, so on integer-valued features the
    /// patched rows equal a fresh [`egonet_features`] bit for bit.
    pub fn toggle<G: EditableGraph + ?Sized>(
        &mut self,
        g: &mut G,
        u: NodeId,
        v: NodeId,
    ) -> Option<EdgeOp> {
        self.toggle_with(g, u, v, |_, _, _| {})
    }

    /// [`IncrementalEgonet::toggle`] that additionally reports every
    /// node whose `(N, E)` row changed — the two endpoints and their
    /// common neighbours — to `on_dirty(node, n_before, e_before)`,
    /// together with that row's value just before this toggle.
    /// Consumers that mirror the features into derived state (the
    /// incremental detector refit in `ba-oddball`) patch exactly these
    /// rows instead of rescanning all `n`. A node may be reported more
    /// than once across consecutive toggles; callers that need a set
    /// should dedup, and the first report of a node carries its value
    /// before the whole sequence.
    pub fn toggle_with<G: EditableGraph + ?Sized>(
        &mut self,
        g: &mut G,
        u: NodeId,
        v: NodeId,
        mut on_dirty: impl FnMut(NodeId, f64, f64),
    ) -> Option<EdgeOp> {
        if u == v {
            return None;
        }
        let feats = &mut self.feats;
        let (ui, vi) = (u as usize, v as usize);
        on_dirty(u, feats.n[ui], feats.e[ui]);
        on_dirty(v, feats.n[vi], feats.e[vi]);
        let adding = !g.has_edge(u, v);
        let delta = if adding { 1.0 } else { -1.0 };
        let mut common = 0.0;
        merge_common(g.neighbors_sorted(u), g.neighbors_sorted(v), |m| {
            let mi = m as usize;
            on_dirty(m, feats.n[mi], feats.e[mi]);
            feats.e[mi] += delta;
            common += 1.0;
        });
        if adding {
            g.add_edge(u, v);
        } else {
            g.remove_edge(u, v);
        }
        feats.n[ui] += delta;
        feats.n[vi] += delta;
        feats.e[ui] += delta * (1.0 + common);
        feats.e[vi] += delta * (1.0 + common);
        Some(EdgeOp::new(u, v, adding))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, DeltaOverlay, Graph};

    #[test]
    fn star_features() {
        // Star with centre 0 and 4 leaves: N_0 = 4, E_0 = 4 (no triangles);
        // leaves: N = 1, E = 1.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let f = egonet_features(&g);
        assert_eq!(f.n[0], 4.0);
        assert_eq!(f.e[0], 4.0);
        for leaf in 1..5 {
            assert_eq!(f.n[leaf], 1.0);
            assert_eq!(f.e[leaf], 1.0);
        }
    }

    #[test]
    fn clique_features() {
        // K5: every node has N = 4 and its egonet is the whole K5 with
        // C(5,2) = 10 edges.
        let mut g = Graph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
            }
        }
        let f = egonet_features(&g);
        for i in 0..5 {
            assert_eq!(f.n[i], 4.0);
            assert_eq!(f.e[i], 10.0);
        }
    }

    #[test]
    fn e_equals_n_plus_half_a3_diagonal() {
        // Cross-check against the paper's algebraic definition via the
        // dense adjacency cube on a small random-ish graph.
        let g = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (1, 3),
            ],
        );
        let f = egonet_features(&g);
        let a = crate::adjacency::to_dense(&g);
        let a2 = a.matmul(&a);
        let a3 = a2.matmul(&a);
        for i in 0..6 {
            let expected = f.n[i] + 0.5 * a3[(i, i)];
            assert_eq!(f.e[i], expected, "node {i}");
        }
    }

    #[test]
    fn features_identical_across_representations() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let csr = CsrGraph::from(&g);
        let ov = DeltaOverlay::new(&csr);
        let from_graph = egonet_features(&g);
        assert_eq!(from_graph, egonet_features(&csr));
        assert_eq!(from_graph, egonet_features(&ov));
    }

    #[test]
    fn incremental_matches_batch_on_edit_sequence() {
        let mut g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut inc = IncrementalEgonet::new(&g);
        let edits: &[(NodeId, NodeId)] = &[
            (0, 2), // add: closes triangle 0-1-2
            (0, 3), // add
            (1, 2), // delete
            (0, 2), // delete
            (2, 4), // add
            (2, 4), // delete again
            (5, 0), // add
        ];
        for &(u, v) in edits {
            inc.toggle(&mut g, u, v).unwrap();
            let batch = egonet_features(&g);
            assert_eq!(inc.features(), &batch, "after toggling ({u},{v})");
        }
    }

    #[test]
    fn incremental_on_overlay_matches_batch() {
        let base = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let csr = CsrGraph::from(&base);
        let mut ov = DeltaOverlay::new(&csr);
        let mut inc = IncrementalEgonet::new(&ov);
        for &(u, v) in &[(0u32, 2u32), (0, 3), (1, 2), (0, 2), (2, 4), (5, 0)] {
            inc.toggle(&mut ov, u, v).unwrap();
            assert_eq!(
                inc.features(),
                &egonet_features(&ov),
                "after toggling ({u},{v})"
            );
        }
    }

    #[test]
    fn toggle_reports_exactly_the_moved_rows() {
        let mut g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut inc = IncrementalEgonet::new(&g);
        let edits: &[(NodeId, NodeId)] = &[(0, 2), (0, 3), (1, 2), (0, 2), (2, 4), (5, 0)];
        for &(u, v) in edits {
            let before = inc.features().clone();
            let mut dirty: Vec<NodeId> = Vec::new();
            inc.toggle_with(&mut g, u, v, |m, n_m, e_m| {
                // Each report carries the row as it was before the toggle.
                assert_eq!((n_m, e_m), (before.n[m as usize], before.e[m as usize]));
                dirty.push(m);
            })
            .unwrap();
            dirty.sort_unstable();
            dirty.dedup();
            // Every row that moved is reported, and every unreported row
            // is untouched.
            let after = inc.features();
            for i in 0..g.num_nodes() {
                let moved = before.n[i] != after.n[i] || before.e[i] != after.e[i];
                if moved {
                    assert!(
                        dirty.contains(&(i as NodeId)),
                        "row {i} moved but was not reported after ({u},{v})"
                    );
                }
                if !dirty.contains(&(i as NodeId)) {
                    assert_eq!(before.n[i], after.n[i]);
                    assert_eq!(before.e[i], after.e[i]);
                }
            }
            // Endpoints are always reported.
            assert!(dirty.contains(&u) && dirty.contains(&v));
        }
    }

    #[test]
    fn toggle_with_self_loop_reports_nothing() {
        let mut g = Graph::from_edges(3, [(0, 1)]);
        let mut inc = IncrementalEgonet::new(&g);
        let mut dirty: Vec<NodeId> = Vec::new();
        assert!(inc
            .toggle_with(&mut g, 1, 1, |m, _, _| dirty.push(m))
            .is_none());
        assert!(dirty.is_empty());
    }

    #[test]
    fn incremental_ignores_self_loop() {
        let mut g = Graph::from_edges(3, [(0, 1)]);
        let mut inc = IncrementalEgonet::new(&g);
        assert!(inc.toggle(&mut g, 1, 1).is_none());
        assert_eq!(inc.features(), &egonet_features(&g));
    }

    #[test]
    fn triangle_add_updates_all_three() {
        let mut g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut inc = IncrementalEgonet::new(&g);
        inc.toggle(&mut g, 0, 2).unwrap();
        let f = inc.features();
        // All three nodes now have N=2, E=3 (triangle egonet).
        for i in 0..3 {
            assert_eq!(f.n[i], 2.0);
            assert_eq!(f.e[i], 3.0);
        }
    }
}
