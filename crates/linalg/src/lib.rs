//! # ba-linalg
//!
//! Dense linear-algebra substrate for the BinarizedAttack reproduction.
//!
//! The attack (`ba-core`), the OddBall detector (`ba-oddball`) and the
//! representation-learning GAD systems (`ba-gad`) all need a small set of
//! numerical kernels: dense matrices with an i-k-j matmul (the reference
//! for ContinuousA's dense step), Gaussian elimination, 2×2 closed-form
//! solves for the OLS normal equations, simple/weighted linear regression,
//! and a power-iteration PCA used to project node embeddings. No suitable
//! crate is available offline, so this crate implements them from scratch
//! with `f64` throughout.
//!
//! ## Quick example
//!
//! ```
//! use ba_linalg::{Matrix, Vector};
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! let v = Vector::from(vec![1.0, 1.0]);
//! assert_eq!(a.matvec(&v).as_slice(), &[3.0, 7.0]);
//! ```

mod decomp;
mod matrix;
mod regression;
mod solve;
mod stats;
mod vector;

pub use decomp::{pca, power_iteration, symmetric_topk, PcaModel};
pub use matrix::Matrix;
pub use regression::{simple_ols, weighted_ols, LinearFit, Ols2Error};
pub use solve::{inverse, solve, solve2, LinalgError};
pub use stats::{CompensatedSum, OlsStats};
pub use vector::Vector;

/// Numerical tolerance used by the crate's own tests and by callers that
/// want a consistent notion of "approximately equal".
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` differ by at most `tol` in absolute
/// terms or `tol` in relative terms (whichever is more permissive).
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_large_magnitudes() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }
}
