//! Property-based tests for the linear-algebra substrate.

use ba_linalg::{simple_ols, solve2, Matrix};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(m in small_matrix(6)) {
        // (A Aᵀ) must be symmetric.
        let prod = m.matmul(&m.transpose());
        prop_assert!(prod.is_symmetric(1e-8));
    }

    #[test]
    fn matmul_associativity(
        a in small_matrix(5),
        bdata in proptest::collection::vec(-5.0..5.0f64, 25),
        cdata in proptest::collection::vec(-5.0..5.0f64, 25),
    ) {
        let k = a.cols();
        let b = Matrix::from_vec(k, 5, bdata[..k * 5].to_vec());
        let c = Matrix::from_vec(5, 5, cdata.clone());
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).max_abs() < 1e-6);
    }

    #[test]
    fn solve2_residual_is_small(
        a in -10.0..10.0f64, b in -10.0..10.0f64,
        c in -10.0..10.0f64, e in -10.0..10.0f64, f in -10.0..10.0f64,
    ) {
        // Force a well-conditioned system.
        let d = a.abs() + b.abs() + c.abs() + 1.0;
        let a_big = a + 20.0;
        if let Ok((x0, x1)) = solve2(a_big, b, c, d, e, f) {
            prop_assert!((a_big * x0 + b * x1 - e).abs() < 1e-9);
            prop_assert!((c * x0 + d * x1 - f).abs() < 1e-9);
        }
    }

    #[test]
    fn ols_fit_minimises_rss(
        xs in proptest::collection::vec(-100.0..100.0f64, 3..40),
        slope in -5.0..5.0f64,
        intercept in -5.0..5.0f64,
        d_slope in -0.5..0.5f64,
        d_int in -0.5..0.5f64,
    ) {
        // Distinct-enough x values.
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assume!(max - min > 1.0);
        let ys: Vec<f64> = xs.iter().enumerate()
            .map(|(i, &x)| intercept + slope * x + ((i % 3) as f64 - 1.0) * 0.3)
            .collect();
        let fit = simple_ols(&xs, &ys).unwrap();
        // Any perturbed line must have RSS >= the OLS fit's RSS.
        let perturbed_rss: f64 = xs.iter().zip(&ys)
            .map(|(&x, &y)| {
                let r = y - ((fit.intercept + d_int) + (fit.slope + d_slope) * x);
                r * r
            })
            .sum();
        prop_assert!(perturbed_rss + 1e-9 >= fit.rss);
    }
}
