//! Spectral helpers: power iteration and top-k symmetric
//! eigen-decomposition by deflation. Used by `ba-oddball`'s low-rank
//! purification defense.

use crate::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dominant eigenpair of a symmetric matrix via power iteration with a
/// deterministic seeded start. Returns `(eigenvalue, eigenvector)`.
pub fn power_iteration(m: &Matrix, iters: usize, seed: u64) -> (f64, Vector) {
    let n = m.rows();
    assert_eq!(n, m.cols(), "power iteration needs a square matrix");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = Vector::from((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>());
    let norm = v.norm();
    if norm > 0.0 {
        v.scale_mut(1.0 / norm);
    }
    for _ in 0..iters {
        let w = m.matvec(&v);
        let wn = w.norm();
        if wn <= 1e-300 {
            return (0.0, v); // in the kernel: give up gracefully
        }
        v = w;
        v.scale_mut(1.0 / wn);
    }
    // Rayleigh quotient for the final iterate.
    let lambda = v.dot(&m.matvec(&v));
    (lambda, v)
}

/// Top-`k` eigenpairs of a symmetric matrix by power iteration with
/// Hotelling deflation.
pub fn symmetric_topk(m: &Matrix, k: usize, iters: usize, seed: u64) -> Vec<(f64, Vector)> {
    let mut work = m.clone();
    let mut pairs = Vec::with_capacity(k);
    for c in 0..k.min(m.rows()) {
        let (lambda, v) = power_iteration(&work, iters, seed.wrapping_add(c as u64));
        // Deflate: work -= lambda v vᵀ
        let n = work.rows();
        for i in 0..n {
            for j in 0..n {
                work[(i, j)] -= lambda * v[i] * v[j];
            }
        }
        pairs.push((lambda, v));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_iteration_finds_dominant_pair() {
        let m = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]]);
        let (lambda, v) = power_iteration(&m, 200, 42);
        assert!((lambda - 2.0).abs() < 1e-8);
        assert!(v[0].abs() > 0.999);
        assert!(v[1].abs() < 1e-4);
    }

    #[test]
    fn power_iteration_on_zero_matrix() {
        let m = Matrix::zeros(3, 3);
        let (lambda, _v) = power_iteration(&m, 50, 1);
        assert_eq!(lambda, 0.0);
    }

    #[test]
    fn topk_recovers_diagonal_spectrum() {
        let m = Matrix::diag(&[5.0, 3.0, 1.0]);
        let pairs = symmetric_topk(&m, 3, 300, 7);
        let mut eigs: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
        eigs.sort_by(|a, b| b.total_cmp(a));
        assert!((eigs[0] - 5.0).abs() < 1e-6);
        assert!((eigs[1] - 3.0).abs() < 1e-6);
        assert!((eigs[2] - 1.0).abs() < 1e-6);
    }
}
