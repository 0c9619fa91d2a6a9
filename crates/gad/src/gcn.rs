//! GCN plumbing: the symmetric-normalised adjacency
//! `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` (Kipf & Welling) in sparse CSR form,
//! and the structural input features the graphs provide (our datasets
//! carry no exogenous node attributes, so we use the standard structural
//! feature fallback; recorded as a substitution in DESIGN.md).

use ba_graph::{Graph, GraphView, NodeId};
use ba_linalg::Matrix;

/// Sparse symmetric-normalised adjacency with self-loops.
#[derive(Debug, Clone)]
pub struct NormAdj {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl NormAdj {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sparse product `Â · X` for a dense `n × d` matrix.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.n, "feature row count mismatch");
        let d = x.cols();
        let mut out = Matrix::zeros(self.n, d);
        for i in 0..self.n {
            let row = &mut vec![0.0; d];
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                let w = self.values[k];
                let xr = x.row(j);
                for (acc, &v) in row.iter_mut().zip(xr) {
                    *acc += w * v;
                }
            }
            out.row_mut(i).copy_from_slice(row);
        }
        out
    }
}

/// Builds `Â = D̃^{-1/2}(A + I)D̃^{-1/2}` from a graph.
pub fn normalized_adjacency(g: &Graph) -> NormAdj {
    let n = g.num_nodes();
    // Degrees with self-loop.
    let dinv_sqrt: Vec<f64> = (0..n as NodeId)
        .map(|u| 1.0 / ((g.degree(u) as f64 + 1.0).sqrt()))
        .collect();
    let entries = 2 * g.num_edges() + n;
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(entries);
    let mut values = Vec::with_capacity(entries);
    indptr.push(0);
    for i in 0..n {
        // Self-loop entry first (sorted order not required for matmul).
        indices.push(i as u32);
        values.push(dinv_sqrt[i] * dinv_sqrt[i]);
        for &col in g.neighbors_sorted(i as NodeId) {
            let j = col as usize;
            indices.push(j as u32);
            values.push(dinv_sqrt[i] * dinv_sqrt[j]);
        }
        indptr.push(indices.len());
    }
    NormAdj {
        n,
        indptr,
        indices,
        values,
    }
}

/// Structural input features per node: `[deg, ln(1+deg), E, ln(1+E),
/// clustering, ln(1+triangles)]`, column-standardised. These are exactly
/// the quantities OddBall-style detectors exploit, and give the GCN a
/// fair chance at the anomaly task without exogenous attributes.
pub fn structural_features(g: &Graph) -> Matrix {
    let n = g.num_nodes();
    let feats = ba_graph::egonet::egonet_features(g);
    let mut x = Matrix::zeros(n, 6);
    for i in 0..n {
        let deg = feats.n[i];
        let e = feats.e[i];
        let tri = e - deg;
        let clustering = ba_graph::metrics::clustering_coefficient(deg, tri);
        x[(i, 0)] = deg;
        x[(i, 1)] = (1.0 + deg).ln();
        x[(i, 2)] = e;
        x[(i, 3)] = (1.0 + e).ln();
        x[(i, 4)] = clustering;
        x[(i, 5)] = (1.0 + tri).ln();
    }
    standardize_columns(&mut x);
    x
}

/// Standardises each column to zero mean / unit variance (no-op for
/// constant columns).
pub fn standardize_columns(x: &mut Matrix) {
    let (n, d) = (x.rows(), x.cols());
    for j in 0..d {
        let mut mean = 0.0;
        for i in 0..n {
            mean += x[(i, j)];
        }
        mean /= n as f64;
        let mut var = 0.0;
        for i in 0..n {
            let c = x[(i, j)] - mean;
            var += c * c;
        }
        var /= n as f64;
        let sd = var.sqrt();
        if sd < 1e-12 {
            continue;
        }
        for i in 0..n {
            x[(i, j)] = (x[(i, j)] - mean) / sd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::generators;

    #[test]
    fn norm_adj_rows_match_dense_formula() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let norm = normalized_adjacency(&g);
        // Dense reference.
        let n = 4;
        let mut dense = vec![vec![0.0; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for (u, v) in g.edges() {
            dense[u as usize][v as usize] = 1.0;
            dense[v as usize][u as usize] = 1.0;
        }
        let deg: Vec<f64> = (0..n).map(|i| dense[i].iter().sum()).collect();
        let x = Matrix::identity(n);
        let out = norm.matmul(&x);
        for i in 0..n {
            for j in 0..n {
                let expected = dense[i][j] / (deg[i].sqrt() * deg[j].sqrt());
                assert!(
                    (out[(i, j)] - expected).abs() < 1e-12,
                    "({i},{j}): {} vs {expected}",
                    out[(i, j)]
                );
            }
        }
    }

    #[test]
    fn norm_adj_fixed_point_eigenvector() {
        // Â = D̃^{-1/2}(A+I)D̃^{-1/2} has eigenvalue 1 with eigenvector
        // v = D̃^{1/2}·1: Âv = D̃^{-1/2}(A+I)·1 = D̃^{-1/2}·d̃ = v.
        let g = generators::erdos_renyi(50, 0.1, 3);
        let norm = normalized_adjacency(&g);
        let v = Matrix::from_fn(50, 1, |i, _| ((g.degree(i as u32) as f64) + 1.0).sqrt());
        let av = norm.matmul(&v);
        for i in 0..50 {
            assert!(
                (av[(i, 0)] - v[(i, 0)]).abs() < 1e-9,
                "node {i}: {} vs {}",
                av[(i, 0)],
                v[(i, 0)]
            );
        }
    }

    #[test]
    fn structural_features_standardised() {
        let g = generators::barabasi_albert(100, 3, 5);
        let x = structural_features(&g);
        assert_eq!(x.cols(), 6);
        for j in 0..x.cols() {
            let col = x.col(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9, "column {j} mean {mean}");
        }
    }

    #[test]
    fn standardize_handles_constant_column() {
        let mut x = Matrix::filled(5, 2, 3.0);
        standardize_columns(&mut x);
        // Constant columns are left untouched (not NaN).
        for i in 0..5 {
            assert_eq!(x[(i, 0)], 3.0);
        }
    }
}
