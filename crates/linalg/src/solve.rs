//! The 2×2 closed-form solve (the OLS normal equations in OddBall are
//! always 2×2) and its error type.

/// Why [`solve2`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (or numerically so).
    Singular,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "singular matrix"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solves the 2×2 system `[[a,b],[c,d]] x = [e,f]` in closed form.
///
/// This is the hot path for OddBall's OLS normal equations, which are
/// always 2×2 regardless of graph size.
pub fn solve2(a: f64, b: f64, c: f64, d: f64, e: f64, f: f64) -> Result<(f64, f64), LinalgError> {
    let det = a * d - b * c;
    // Scale-aware singularity test: a graph where every node has the same
    // degree makes the design matrix rank-1.
    let scale = a.abs().max(b.abs()).max(c.abs()).max(d.abs()).max(1.0);
    if det.abs() <= 1e-12 * scale * scale {
        return Err(LinalgError::Singular);
    }
    Ok(((e * d - b * f) / det, (a * f - e * c) / det))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve2_known_system() {
        // x + y = 3, x - y = 1  =>  x = 2, y = 1
        let (x, y) = solve2(1.0, 1.0, 1.0, -1.0, 3.0, 1.0).unwrap();
        assert!((x - 2.0).abs() < 1e-12);
        assert!((y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve2_singular_detected() {
        assert_eq!(
            solve2(1.0, 2.0, 2.0, 4.0, 1.0, 2.0),
            Err(LinalgError::Singular)
        );
    }
}
