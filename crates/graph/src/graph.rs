//! The core undirected simple graph type.

use crate::view::{EditableGraph, GraphView};

/// Node identifier. Graphs in the paper's evaluation have ~1000 nodes, so
/// `u32` is ample and keeps adjacency lists compact.
pub type NodeId = u32;

/// An edge flip operation: which unordered pair, and whether the edge was
/// added or removed. Attack results are reported as lists of `EdgeOp`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeOp {
    /// Smaller endpoint of the unordered pair.
    pub u: NodeId,
    /// Larger endpoint of the unordered pair.
    pub v: NodeId,
    /// `true` when the edge was added, `false` when deleted.
    pub added: bool,
}

impl EdgeOp {
    /// Creates an op, normalising the endpoint order.
    pub fn new(u: NodeId, v: NodeId, added: bool) -> Self {
        let (u, v) = if u <= v { (u, v) } else { (v, u) };
        Self { u, v, added }
    }
}

/// A simple (no self-loops, no multi-edges), undirected, unweighted graph.
///
/// Adjacency is stored as one sorted `Vec<NodeId>` per node: `O(log d)`
/// membership tests via binary search, deterministic iteration order
/// (important for reproducible attacks), contiguous neighbour slices for
/// the sorted-merge kernels, and `O(d)` insertion — cheap at the degrees
/// the paper's sparse graphs exhibit. Frozen read-optimised snapshots are
/// provided by [`crate::CsrGraph`]; both satisfy [`GraphView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// [`Graph::new`] for an `n` read from outside the process: the node
    /// table is reserved with `try_reserve_exact`, so a count that cannot
    /// be allocated is an error instead of an abort.
    pub fn try_new(n: usize) -> Result<Self, std::collections::TryReserveError> {
        let mut adj = Vec::new();
        adj.try_reserve_exact(n)?;
        adj.resize_with(n, Vec::new);
        Ok(Self { adj, num_edges: 0 })
    }

    /// Copies any [`GraphView`] row by row: each sorted neighbour slice
    /// becomes one exactly-sized row, with no per-edge insertion.
    pub(crate) fn from_view<V: GraphView + ?Sized>(g: &V) -> Self {
        Self::from_rows(
            g.num_edges(),
            (0..g.num_nodes() as NodeId).map(|u| g.neighbors_sorted(u)),
        )
    }

    /// Copies one sorted neighbour slice per node, in node order, into
    /// exactly-sized rows; `num_edges` is half their total length.
    pub(crate) fn from_rows<'r>(
        num_edges: usize,
        rows: impl Iterator<Item = &'r [NodeId]>,
    ) -> Self {
        Self {
            adj: rows.map(<[NodeId]>::to_vec).collect(),
            num_edges,
        }
    }

    /// Builds a graph from an iterator of edges. Self-loops and duplicate
    /// edges are ignored.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Whether the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Neighbours of `u` in strictly increasing order.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    /// Adds the edge `{u, v}`. Returns `true` if the edge was new.
    /// Self-loops are rejected (returns `false`).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        assert!(
            (u as usize) < self.adj.len() && (v as usize) < self.adj.len(),
            "node id out of range"
        );
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.adj[u as usize].insert(pos, v);
                let pos_v = self.adj[v as usize]
                    .binary_search(&u)
                    .expect_err("adjacency symmetry violated");
                self.adj[v as usize].insert(pos_v, u);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Removes the edge `{u, v}`. Returns `true` if an edge was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.adj.len() || (v as usize) >= self.adj.len() {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(pos) => {
                self.adj[u as usize].remove(pos);
                let pos_v = self.adj[v as usize]
                    .binary_search(&u)
                    // ba-lint: allow(panic-path) -- every mutation writes both endpoint rows, so a missing reverse edge is memory corruption worth crashing on
                    .expect("adjacency symmetry violated");
                self.adj[v as usize].remove(pos_v);
                self.num_edges -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Returns a new graph with the ops applied.
    pub fn with_ops(&self, ops: &[EdgeOp]) -> Graph {
        let mut g = self.clone();
        g.apply_ops(ops);
        g
    }

    /// Iterator over all edges as `(u, v)` with `u < v`, in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as NodeId;
            nbrs.iter().filter(move |&&v| v > u).map(move |&v| (u, v))
        })
    }

    /// Symmetric difference with another graph, as a set of edge ops that
    /// transform `self` into `other`.
    ///
    /// # Panics
    /// Panics if node counts differ.
    pub fn diff_ops(&self, other: &Graph) -> Vec<EdgeOp> {
        assert_eq!(self.num_nodes(), other.num_nodes(), "node count mismatch");
        let mut ops = Vec::new();
        for (u, v) in self.edges() {
            if !other.has_edge(u, v) {
                ops.push(EdgeOp::new(u, v, false));
            }
        }
        for (u, v) in other.edges() {
            if !self.has_edge(u, v) {
                ops.push(EdgeOp::new(u, v, true));
            }
        }
        ops
    }
}

impl GraphView for Graph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn neighbors_sorted(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
}

impl EditableGraph for Graph {
    fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        Graph::add_edge(self, u, v)
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        Graph::remove_edge(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate (reversed) edge rejected");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::new(2);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.toggle_edge(1, 1), None);
    }

    #[test]
    fn degree_counts() {
        let g = triangle();
        for u in 0..3 {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    fn neighbors_sorted_invariant() {
        let g = Graph::from_edges(5, [(4, 0), (4, 2), (4, 1), (4, 3), (1, 0)]);
        assert_eq!(g.neighbors(4), &[0, 1, 2, 3]);
        assert_eq!(g.neighbors(0), &[1, 4]);
    }

    #[test]
    fn edges_iterator_sorted_unique() {
        let g = Graph::from_edges(4, [(2, 1), (0, 3), (1, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn toggle_flips_both_ways() {
        let mut g = Graph::new(3);
        let op = g.toggle_edge(0, 2).unwrap();
        assert_eq!(op, EdgeOp::new(0, 2, true));
        assert!(g.has_edge(0, 2));
        let op = g.toggle_edge(2, 0).unwrap();
        assert_eq!(op, EdgeOp::new(0, 2, false));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn common_neighbors_matches_a_squared() {
        // Path 0-1-2 plus edge 0-2: common neighbours of 0 and 2 is {1}.
        let g = triangle();
        assert_eq!(g.common_neighbors(0, 2), 1);
        let g2 = Graph::from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
        assert_eq!(g2.common_neighbors(0, 2), 2);
        assert_eq!(g2.common_neighbors(0, 1), 0);
    }

    #[test]
    fn common_neighbor_sum_weights() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
        let s = g.common_neighbor_sum(0, 2, |m| m as f64 * 10.0);
        assert_eq!(s, 10.0 + 30.0); // common neighbours 1 and 3
    }

    #[test]
    fn triangle_counting() {
        let g = triangle();
        for u in 0..3 {
            assert_eq!(g.triangles_at(u), 1);
        }
        // K4 has 3 triangles through each node.
        let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for u in 0..4 {
            assert_eq!(k4.triangles_at(u), 3);
        }
    }

    #[test]
    fn apply_and_diff_ops_roundtrip() {
        let g0 = triangle();
        let mut g1 = g0.clone();
        g1.remove_edge(0, 1);
        g1.add_edge(0, 1); // noop overall
        g1.toggle_edge(1, 2); // delete
        let ops = g0.diff_ops(&g1);
        assert_eq!(ops, vec![EdgeOp::new(1, 2, false)]);
        assert_eq!(g0.with_ops(&ops), g1);
    }

    #[test]
    fn singleton_guard() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(!g.deletion_keeps_no_singletons(0, 1)); // node 0 has degree 1
        let t = triangle();
        assert!(t.deletion_keeps_no_singletons(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
