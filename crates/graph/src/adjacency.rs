//! Conversions between the sparse graph substrate and dense adjacency
//! buffers.
//!
//! ## Boundary with `ba-linalg`
//!
//! Dense linear algebra belongs to `ba-linalg` (which is deliberately
//! *not* a dependency of `ba-graph`: the graph substrate sits at the
//! bottom of the crate DAG). Production code that needs dense products —
//! `ContinuousA`'s relaxed forward/backward passes — exports a row-major
//! buffer via [`to_row_major`](crate::adjacency::to_row_major) and builds
//! a `ba_linalg::Matrix` from it. The purification defense exports none:
//! its power iteration reads the graph through
//! [`GraphView::neighbors_sorted`]. The tiny
//! [`DenseAdj`](crate::adjacency::DenseAdj) type here exists
//! only so `ba-graph`'s own tests can cross-check the sparse kernels
//! against the `A²`/`A³` definitions without a dependency cycle; its
//! matmul is accordingly compiled for tests only. CSR structure for
//! external kernels (e.g. the GCN propagation in `ba-gad`) comes from
//! [`crate::CsrGraph`].

use crate::view::GraphView;

/// Minimal dense square matrix for adjacency algebra cross-checks in
/// tests. Not a general linear-algebra type — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseAdj {
    n: usize,
    data: Vec<f64>,
}

impl DenseAdj {
    /// Zero matrix of side `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Naive dense product, for cross-checking sparse kernels in tests
    /// only (real dense work uses `ba_linalg::Matrix`, whose `matmul`
    /// is the reference for ContinuousA's dense step in `ba-core`).
    #[cfg(test)]
    pub(crate) fn matmul(&self, other: &DenseAdj) -> DenseAdj {
        assert_eq!(self.n, other.n);
        let n = self.n;
        let mut out = DenseAdj::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += aik * other.get(k, j);
                }
            }
        }
        out
    }

    /// The underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

impl std::ops::Index<(usize, usize)> for DenseAdj {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

/// Converts any graph view to its dense adjacency matrix.
pub fn to_dense<V: GraphView + ?Sized>(g: &V) -> DenseAdj {
    let n = g.num_nodes();
    let mut a = DenseAdj::zeros(n);
    g.for_each_edge(|u, v| {
        a.set(u as usize, v as usize, 1.0);
        a.set(v as usize, u as usize, 1.0);
    });
    a
}

/// Converts any graph view to a row-major dense buffer (for
/// `ba_linalg::Matrix::from_vec`).
pub fn to_row_major<V: GraphView + ?Sized>(g: &V) -> Vec<f64> {
    to_dense(g).into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, Graph};

    #[test]
    fn dense_roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let d = to_dense(&g);
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(1, 0)], 1.0);
        assert_eq!(d[(0, 2)], 0.0);
    }

    #[test]
    fn dense_from_csr_matches() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (3, 1), (3, 2), (4, 0)]);
        let csr = CsrGraph::from(&g);
        assert_eq!(to_dense(&g), to_dense(&csr));
        assert_eq!(to_row_major(&g), to_row_major(&csr));
    }

    #[test]
    fn a_squared_diagonal_is_degree() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let a = to_dense(&g);
        let a2 = a.matmul(&a);
        for u in 0..4u32 {
            assert_eq!(a2[(u as usize, u as usize)], g.degree(u) as f64);
        }
    }

    #[test]
    fn a_squared_off_diagonal_is_common_neighbors() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (3, 1), (3, 2), (4, 0)]);
        let a = to_dense(&g);
        let a2 = a.matmul(&a);
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    assert_eq!(
                        a2[(u as usize, v as usize)],
                        g.common_neighbors(u, v) as f64,
                        "pair ({u},{v})"
                    );
                }
            }
        }
    }
}
