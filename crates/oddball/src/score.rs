//! Anomaly scoring (paper Eq. (3)), ranking, and the optimisation
//! surrogate.

use ba_graph::NodeId;

/// One clamped log feature: `ln(max(x, 1))`. The single code path both
/// the batch [`log_features`] and the per-row patches of
/// [`IncrementalFit`](crate::IncrementalFit) go through, so cached and
/// freshly-derived rows are bit-identical.
#[inline]
pub(crate) fn log_feat(x: f64) -> f64 {
    x.max(1.0).ln()
}

/// Safe log features: `u = ln(max(N, 1))`, `v = ln(max(E, 1))`.
///
/// The paper's attacks never create singleton nodes, so `N ≥ 1` in all
/// clean and poisoned graphs; the clamp guards fractional intermediate
/// states in ContinuousA where a relaxed degree can dip below 1.
pub fn log_features(n: &[f64], e: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let u = n.iter().map(|&x| log_feat(x)).collect();
    let v = e.iter().map(|&x| log_feat(x)).collect();
    (u, v)
}

/// Power-law prediction `C_i = e^{β0} · N_i^{β1}` for a node with feature
/// `N_i` (clamped to ≥ 1 as above).
#[inline]
pub fn predicted_e(n_i: f64, beta0: f64, beta1: f64) -> f64 {
    (beta0 + beta1 * n_i.max(1.0).ln()).exp()
}

/// True OddBall anomaly score (paper Eq. (3)):
/// `S_i = max(E, C)/min(E, C) · ln(|E − C| + 1)`.
///
/// `E` is clamped to ≥ 1 so the ratio is well-defined for the degenerate
/// fractional graphs that appear mid-optimisation.
pub fn anomaly_score(e_i: f64, n_i: f64, beta0: f64, beta1: f64) -> f64 {
    let e = e_i.max(1.0);
    let c = predicted_e(n_i, beta0, beta1).max(1e-12);
    let ratio = if e >= c { e / c } else { c / e };
    ratio * ((e - c).abs() + 1.0).ln()
}

/// The `k` highest of `scores` as `(node, score)`, descending; ties
/// break toward smaller ids. The one ranking order every serving surface
/// (detector, stream engine, epoch snapshot) agrees on. It uses the IEEE
/// total order, so a pathological NaN score sorts deterministically
/// instead of panicking.
pub fn rank_top_k(scores: &[f64], k: usize) -> Vec<(NodeId, f64)> {
    let mut idx: Vec<NodeId> = (0..scores.len() as NodeId).collect();
    idx.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    idx.into_iter()
        .take(k)
        .map(|i| (i, scores[i as usize]))
        .collect()
}

/// The paper's normalisation-free proxy `˜S_i = ln(|E − C| + 1)`.
pub fn surrogate_score(e_i: f64, n_i: f64, beta0: f64, beta1: f64) -> f64 {
    let e = e_i.max(1.0);
    let c = predicted_e(n_i, beta0, beta1);
    ((e - c).abs() + 1.0).ln()
}

/// The smooth objective actually optimised by the attacks
/// (paper Eq. (5a)/(8a)): `Σ_{a ∈ targets} (E_a − e^{ρ_a})²`.
pub fn surrogate_loss(e: &[f64], n: &[f64], beta0: f64, beta1: f64, targets: &[u32]) -> f64 {
    targets
        .iter()
        .map(|&a| {
            let idx = a as usize;
            let r = e[idx].max(1.0) - predicted_e(n[idx], beta0, beta1);
            r * r
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_the_line_scores_zero() {
        // E exactly equals the prediction ⇒ ratio 1, ln(1) = 0.
        let beta0 = 0.5;
        let beta1 = 1.3;
        let n = 7.0;
        let e = predicted_e(n, beta0, beta1);
        assert_eq!(anomaly_score(e, n, beta0, beta1), 0.0);
        assert_eq!(surrogate_score(e, n, beta0, beta1), 0.0);
    }

    #[test]
    fn score_symmetric_in_direction() {
        // Same |E - C| above and below the line with equal ratio gives
        // equal scores only when ratios match; check deviation monotonicity
        // instead: further away ⇒ larger score.
        let (b0, b1) = (0.0, 1.0); // C = N
        let s1 = anomaly_score(12.0, 10.0, b0, b1);
        let s2 = anomaly_score(20.0, 10.0, b0, b1);
        assert!(s2 > s1);
        let s3 = anomaly_score(8.0, 10.0, b0, b1); // below the line
        assert!(s3 > 0.0);
    }

    #[test]
    fn score_matches_formula_by_hand() {
        let (b0, b1) = (0.0, 1.0);
        // N = 4 ⇒ C = 4; E = 10 ⇒ ratio 2.5, distance 6.
        let s = anomaly_score(10.0, 4.0, b0, b1);
        assert!((s - 2.5 * 7.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn clamps_protect_against_zero_features() {
        let s = anomaly_score(0.0, 0.0, 0.0, 1.0);
        assert!(s.is_finite());
        let (u, v) = log_features(&[0.0, 2.0], &[0.0, 3.0]);
        assert_eq!(u[0], 0.0);
        assert_eq!(v[0], 0.0);
        assert!((u[1] - 2.0f64.ln()).abs() < 1e-15);
        assert!((v[1] - 3.0f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn surrogate_loss_sums_squared_residuals() {
        let e = [5.0, 9.0, 2.0];
        let n = [2.0, 3.0, 1.0];
        let (b0, b1) = (0.0, 1.0); // C = N
        let loss = surrogate_loss(&e, &n, b0, b1, &[0, 1]);
        assert!((loss - (9.0 + 36.0)).abs() < 1e-12);
        // Empty target set ⇒ zero loss.
        assert_eq!(surrogate_loss(&e, &n, b0, b1, &[]), 0.0);
    }

    #[test]
    fn predicted_e_power_law_shape() {
        let b0 = 1.0f64;
        let b1 = 1.5;
        let c4 = predicted_e(4.0, b0, b1);
        let c16 = predicted_e(16.0, b0, b1);
        // N -> 4N multiplies C by 4^1.5 = 8.
        assert!((c16 / c4 - 8.0).abs() < 1e-9);
    }
}
