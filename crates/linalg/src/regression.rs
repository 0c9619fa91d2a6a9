//! Simple and weighted ordinary-least-squares fits of `y = b0 + b1 x`.
//!
//! OddBall's Egonet Density Power Law is fitted in log–log space with
//! exactly this two-parameter model (paper Eq. (1)–(2)); the weighted
//! variant is the inner step of the Huber IRLS estimator in `ba-oddball`.

use crate::solve::{solve2, LinalgError};

/// A fitted line `y = intercept + slope * x` plus goodness-of-fit info.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// `b0` in `y = b0 + b1 x`.
    pub intercept: f64,
    /// `b1` in `y = b0 + b1 x`.
    pub slope: f64,
    /// Residual sum of squares at the fit.
    pub rss: f64,
    /// Number of observations used.
    pub n: usize,
}

impl LinearFit {
    /// Predicted value at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Residual `y - prediction(x)`.
    #[inline]
    pub fn residual(&self, x: f64, y: f64) -> f64 {
        y - self.predict(x)
    }
}

/// Errors for the two-parameter OLS fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ols2Error {
    /// Fewer than two observations (or fewer than two with positive
    /// weight): the line is under-determined.
    TooFewPoints,
    /// The design matrix is singular — all x values (with weight) equal.
    Degenerate,
    /// x/y/weight lengths differ.
    LengthMismatch,
}

impl std::fmt::Display for Ols2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ols2Error::TooFewPoints => write!(f, "need at least 2 points for a line fit"),
            Ols2Error::Degenerate => write!(f, "degenerate design matrix (all x equal?)"),
            Ols2Error::LengthMismatch => write!(f, "input length mismatch"),
        }
    }
}

impl std::error::Error for Ols2Error {}

/// Ordinary least squares for `y = b0 + b1 x`.
///
/// Equivalent to the paper's Eq. (2) with `X = [1, x]`: the normal
/// equations reduce to a 2×2 solve.
pub fn simple_ols(x: &[f64], y: &[f64]) -> Result<LinearFit, Ols2Error> {
    if x.len() != y.len() {
        return Err(Ols2Error::LengthMismatch);
    }
    weighted_ols(x, y, None)
}

/// Weighted least squares for `y = b0 + b1 x` with non-negative weights.
///
/// Passing `None` for the weights is plain OLS. Points with zero weight
/// are ignored entirely (this is how RANSAC consensus refits reuse the
/// same kernel).
pub fn weighted_ols(x: &[f64], y: &[f64], w: Option<&[f64]>) -> Result<LinearFit, Ols2Error> {
    if x.len() != y.len() {
        return Err(Ols2Error::LengthMismatch);
    }
    if let Some(w) = w {
        if w.len() != x.len() {
            return Err(Ols2Error::LengthMismatch);
        }
    }
    let weight = |i: usize| w.map_or(1.0, |w| w[i]);

    let mut sw = 0.0; // Σ w
    let mut swx = 0.0; // Σ w x
    let mut swxx = 0.0; // Σ w x²
    let mut swy = 0.0; // Σ w y
    let mut swxy = 0.0; // Σ w x y
    let mut n_eff = 0usize;
    for i in 0..x.len() {
        let wi = weight(i);
        debug_assert!(wi >= 0.0, "negative weight");
        if wi == 0.0 {
            continue;
        }
        n_eff += 1;
        sw += wi;
        swx += wi * x[i];
        swxx += wi * x[i] * x[i];
        swy += wi * y[i];
        swxy += wi * x[i] * y[i];
    }
    if n_eff < 2 {
        return Err(Ols2Error::TooFewPoints);
    }
    let (intercept, slope) = solve2(sw, swx, swx, swxx, swy, swxy)
        .map_err(|LinalgError::Singular| Ols2Error::Degenerate)?;
    let mut rss = 0.0;
    for i in 0..x.len() {
        let wi = weight(i);
        if wi == 0.0 {
            continue;
        }
        let r = y[i] - (intercept + slope * x[i]);
        rss += wi * r * r;
    }
    Ok(LinearFit {
        intercept,
        slope,
        rss,
        n: n_eff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 + 0.5 * v).collect();
        let fit = simple_ols(&x, &y).unwrap();
        assert!((fit.intercept - 2.0).abs() < 1e-12);
        assert!((fit.slope - 0.5).abs() < 1e-12);
        assert!(fit.rss < 1e-20);
        assert_eq!(fit.n, 4);
    }

    #[test]
    fn noisy_line_close() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [1.1, 2.9, 5.2, 6.8, 9.1];
        let fit = simple_ols(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.1);
        assert!((fit.intercept - 1.0).abs() < 0.3);
        assert!(fit.rss > 0.0);
    }

    #[test]
    fn residual_and_predict_consistent() {
        let fit = LinearFit {
            intercept: 1.0,
            slope: 2.0,
            rss: 0.0,
            n: 2,
        };
        assert_eq!(fit.predict(3.0), 7.0);
        assert_eq!(fit.residual(3.0, 10.0), 3.0);
    }

    #[test]
    fn zero_weight_points_ignored() {
        let x = [0.0, 1.0, 2.0, 100.0];
        let y = [0.0, 1.0, 2.0, -999.0];
        let w = [1.0, 1.0, 1.0, 0.0];
        let fit = weighted_ols(&x, &y, Some(&w)).unwrap();
        assert!((fit.slope - 1.0).abs() < 1e-10);
        assert!(fit.intercept.abs() < 1e-10);
        assert_eq!(fit.n, 3);
    }

    #[test]
    fn downweighting_reduces_outlier_pull() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 1.0, 2.0, 30.0]; // big outlier at the end
        let plain = simple_ols(&x, &y).unwrap();
        let w = [1.0, 1.0, 1.0, 0.01];
        let weighted = weighted_ols(&x, &y, Some(&w)).unwrap();
        assert!((weighted.slope - 1.0).abs() < (plain.slope - 1.0).abs());
    }

    #[test]
    fn too_few_points() {
        assert_eq!(simple_ols(&[1.0], &[1.0]), Err(Ols2Error::TooFewPoints));
        let w = [1.0, 0.0, 0.0];
        assert_eq!(
            weighted_ols(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], Some(&w)),
            Err(Ols2Error::TooFewPoints)
        );
    }

    #[test]
    fn degenerate_x() {
        assert_eq!(
            simple_ols(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(Ols2Error::Degenerate)
        );
    }

    #[test]
    fn length_mismatch() {
        assert_eq!(
            simple_ols(&[1.0], &[1.0, 2.0]),
            Err(Ols2Error::LengthMismatch)
        );
        assert_eq!(
            weighted_ols(&[1.0, 2.0], &[1.0, 2.0], Some(&[1.0])),
            Err(Ols2Error::LengthMismatch)
        );
    }
}
