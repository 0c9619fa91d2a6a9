//! Incremental detector refitting under per-node feature updates.
//!
//! The paper's evaluation metric τ_as refits OddBall on the poisoned
//! graph at *every* budget point. A from-scratch refit pays
//! `O(n + m + Σdeg²)` for feature extraction plus `2n` `ln` calls and an
//! `O(n)` regression — per budget — even though consecutive budgets
//! differ by a handful of edge toggles. [`IncrementalFit`] removes that
//! redundancy:
//!
//! * a **dirty-row log-feature cache**: the `(u, v) = (ln N, ln E)` rows
//!   are kept materialised, and only the rows an edge toggle actually
//!   moved (reported by
//!   [`IncrementalEgonet::toggle_with`](ba_graph::egonet::IncrementalEgonet::toggle_with))
//!   are re-derived;
//! * **compensated OLS sufficient statistics**
//!   ([`OlsStats`](ba_linalg::OlsStats)): `Σu, Σv, Σu², Σuv` are patched
//!   per dirty row, so the OLS refit is O(1) per budget;
//! * **robust refits reuse the cache**: Huber and RANSAC still iterate
//!   over all rows (their estimators are not decomposable), but they
//!   skip the feature re-extraction and the `2n` `ln` calls entirely.
//!
//! ## Equality contract
//!
//! [`OddBall::fit`](crate::OddBall::fit) routes its regression through
//! the same kernels — [`OlsStats`](ba_linalg::OlsStats) for OLS,
//! [`huber_fit`](crate::huber_fit)/[`ransac_fit`](crate::ransac_fit)
//! over the identical log rows otherwise — so a curve evaluated through
//! `IncrementalFit` is **bit-identical** to refitting from scratch at
//! every budget. `ba-core`'s `eval_equivalence` proptest pins this for
//! all three regressors over random attack-op sequences.

use crate::detector::{FitError, Regressor};
use crate::robust::{huber_fit, ransac_fit, HuberConfig, RansacConfig};
use crate::score::{anomaly_score, log_feat, log_features};
use ba_graph::egonet::EgonetFeatures;
use ba_linalg::OlsStats;

/// The `(β0, β1)` parameter pair a refit produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitParams {
    /// Intercept of the log-log fit.
    pub beta0: f64,
    /// Slope (the power-law exponent).
    pub beta1: f64,
}

impl FitParams {
    /// Anomaly score of a node with features `(n_i, e_i)` under these
    /// parameters (paper Eq. (3)).
    #[inline]
    pub fn score(&self, n_i: f64, e_i: f64) -> f64 {
        anomaly_score(e_i, n_i, self.beta0, self.beta1)
    }
}

/// Maintains the detector's regression inputs — log-feature rows and OLS
/// sufficient statistics — under per-node feature updates.
#[derive(Debug, Clone)]
pub struct IncrementalFit {
    regressor: Regressor,
    u: Vec<f64>,
    v: Vec<f64>,
    /// Present exactly when the regressor is OLS — Huber/RANSAC refit
    /// from the row cache and never read the statistics, so robust fits
    /// skip the accumulation entirely.
    stats: Option<OlsStats>,
}

impl IncrementalFit {
    /// Derives the log rows — and, for OLS, the sufficient statistics —
    /// from `feats`, in the same accumulation order a from-scratch fit
    /// uses.
    pub fn new(regressor: Regressor, feats: &EgonetFeatures) -> Self {
        let (u, v) = log_features(&feats.n, &feats.e);
        let stats = matches!(regressor, Regressor::Ols).then(|| OlsStats::from_rows(&u, &v));
        Self {
            regressor,
            u,
            v,
            stats,
        }
    }

    /// The configured regressor.
    pub fn regressor(&self) -> Regressor {
        self.regressor
    }

    /// Number of rows (nodes) covered.
    pub fn len(&self) -> usize {
        self.u.len()
    }

    /// `true` when the fit covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.u.is_empty()
    }

    /// The cached log rows `(u, v)` (tests compare them against a fresh
    /// derivation).
    pub fn log_rows(&self) -> (&[f64], &[f64]) {
        (&self.u, &self.v)
    }

    /// Patches row `i` to the features `(n_i, e_i)`, updating the cached
    /// logs and the sufficient statistics. O(1); a no-op when the row's
    /// log features are unchanged.
    pub fn update_row(&mut self, i: usize, n_i: f64, e_i: f64) {
        let nu = log_feat(n_i);
        let nv = log_feat(e_i);
        if nu == self.u[i] && nv == self.v[i] {
            return;
        }
        if let Some(stats) = &mut self.stats {
            stats.replace(self.u[i], self.v[i], nu, nv);
        }
        self.u[i] = nu;
        self.v[i] = nv;
    }

    /// Refits the regression on the current rows.
    ///
    /// OLS answers from the sufficient statistics in O(1); Huber and
    /// RANSAC rerun their estimators over the cached rows (O(n) per
    /// refit, but with no feature extraction or `ln` re-derivation).
    pub fn refit(&self) -> Result<FitParams, FitError> {
        if self.u.is_empty() {
            return Err(FitError::EmptyGraph);
        }
        let (beta0, beta1) = match self.regressor {
            Regressor::Ols => self
                .stats
                .as_ref()
                // ba-lint: allow(panic-path) -- the constructor populates stats iff the regressor is OLS, the arm we are in
                .expect("stats are built whenever the regressor is OLS")
                .solve()
                .map_err(FitError::Regression)?,
            Regressor::Huber { k } => {
                let fit = huber_fit(
                    &self.u,
                    &self.v,
                    HuberConfig {
                        k,
                        ..HuberConfig::default()
                    },
                )
                .map_err(FitError::Regression)?;
                (fit.intercept, fit.slope)
            }
            Regressor::Ransac {
                trials,
                inlier_k,
                seed,
            } => {
                let fit = ransac_fit(
                    &self.u,
                    &self.v,
                    RansacConfig {
                        trials,
                        inlier_k,
                        seed,
                    },
                )
                .map_err(FitError::Regression)?;
                (fit.intercept, fit.slope)
            }
        };
        Ok(FitParams { beta0, beta1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OddBall;
    use ba_graph::egonet::{egonet_features, IncrementalEgonet};
    use ba_graph::{generators, NodeId};

    #[test]
    fn fresh_fit_matches_detector() {
        let g = generators::erdos_renyi(200, 0.03, 5);
        let feats = egonet_features(&g);
        for reg in [
            Regressor::Ols,
            Regressor::default_huber(),
            Regressor::default_ransac(3),
        ] {
            let params = IncrementalFit::new(reg, &feats).refit().unwrap();
            let model = OddBall::new(reg).fit(&g).unwrap();
            assert_eq!(params.beta0.to_bits(), model.beta0().to_bits(), "{reg:?}");
            assert_eq!(params.beta1.to_bits(), model.beta1().to_bits(), "{reg:?}");
        }
    }

    #[test]
    fn dirty_row_updates_track_toggles_bit_identically() {
        let mut g = generators::erdos_renyi(120, 0.05, 9);
        let mut inc = IncrementalEgonet::new(&g);
        let mut fit = IncrementalFit::new(Regressor::Ols, inc.features());
        let edits: &[(NodeId, NodeId)] = &[(0, 1), (3, 7), (0, 1), (2, 9), (5, 40), (3, 7)];
        for &(a, b) in edits {
            let mut dirty: Vec<NodeId> = Vec::new();
            inc.toggle_with(&mut g, a, b, |m, _, _| dirty.push(m))
                .unwrap();
            dirty.sort_unstable();
            dirty.dedup();
            let feats = inc.features();
            for &m in &dirty {
                fit.update_row(m as usize, feats.n[m as usize], feats.e[m as usize]);
            }
            // Cached rows equal a fresh derivation...
            let (fu, fv) = log_features(&feats.n, &feats.e);
            let (cu, cv) = fit.log_rows();
            assert_eq!(cu, &fu[..]);
            assert_eq!(cv, &fv[..]);
            // ...and the refit equals the from-scratch detector fit.
            let params = fit.refit().unwrap();
            let model = OddBall::default().fit(&g).unwrap();
            assert_eq!(params.beta0.to_bits(), model.beta0().to_bits());
            assert_eq!(params.beta1.to_bits(), model.beta1().to_bits());
        }
    }

    #[test]
    fn score_matches_model_scores() {
        let g = generators::barabasi_albert(80, 3, 4);
        let feats = egonet_features(&g);
        let params = IncrementalFit::new(Regressor::Ols, &feats).refit().unwrap();
        let model = OddBall::default().fit(&g).unwrap();
        for i in 0..feats.len() {
            assert_eq!(
                params.score(feats.n[i], feats.e[i]).to_bits(),
                model.score(i as NodeId).to_bits()
            );
        }
    }

    #[test]
    fn empty_features_rejected() {
        let empty = EgonetFeatures {
            n: vec![],
            e: vec![],
        };
        assert!(matches!(
            IncrementalFit::new(Regressor::Ols, &empty).refit(),
            Err(FitError::EmptyGraph)
        ));
    }
}
