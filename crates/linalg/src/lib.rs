//! # ba-linalg
//!
//! Dense linear-algebra substrate for the BinarizedAttack reproduction.
//!
//! The attack (`ba-core`), the OddBall detector (`ba-oddball`) and the
//! representation-learning GAD systems (`ba-gad`) all need a small set of
//! numerical kernels: dense matrices with an i-k-j matmul (the reference
//! for ContinuousA's dense step), 2×2 closed-form solves for the OLS
//! normal equations, simple/weighted linear regression, and
//! compensated sufficient statistics for incremental refits. No suitable
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

mod matrix;
mod regression;
mod solve;
mod stats;
mod vector;

pub use matrix::Matrix;
pub use regression::{simple_ols, weighted_ols, LinearFit, Ols2Error};
pub use solve::{solve2, LinalgError};
pub use stats::{CompensatedSum, OlsStats};
pub use vector::Vector;
