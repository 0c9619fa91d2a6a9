//! Incremental detector refitting under edge edits.
//!
//! The paper's evaluation metric τ_as refits OddBall on the poisoned
//! graph at *every* budget point, and the streaming engine refits it
//! after every batch. A from-scratch refit pays
//! `O(n + m + Σdeg²)` for feature extraction plus `2n` `ln` calls and an
//! `O(n)` regression, even though consecutive states differ by a
//! handful of edge toggles. This module removes that redundancy:
//!
//! * a **dirty-row log-feature cache** ([`IncrementalFit`]): the
//!   `(u, v) = (ln N, ln E)` rows are kept materialised, and only the
//!   rows an edge toggle actually moved are re-derived;
//! * **compensated OLS sufficient statistics**
//!   ([`OlsStats`](ba_linalg::OlsStats)): `Σu, Σv, Σu², Σuv` are patched
//!   per dirty row, so the OLS refit is O(1) per refit;
//! * **robust refits reuse the cache**: Huber and RANSAC still iterate
//!   over all rows (their estimators are not decomposable), but they
//!   skip the feature re-extraction and the `2n` `ln` calls entirely.
//!
//! ## The live-refit kernel
//!
//! [`LiveFit`] is the one net → toggle → dirty-row → patch path; the
//! τ_as curve replay (`ba-core`) and stream ingest (`ba-stream`) both
//! drive it (DESIGN.md §2.3), on edits netted by [`net_edits`].
//!
//! ## Equality contract
//!
//! [`OddBall::fit`](crate::OddBall::fit) routes its regression through
//! the same kernels — [`OlsStats`](ba_linalg::OlsStats) for OLS,
//! [`huber_fit`](crate::huber_fit)/[`ransac_fit`](crate::ransac_fit)
//! over the identical log rows otherwise. Features are exact integer
//! counts, unmoved rows are skipped and moved rows are patched in
//! ascending node order, so a refit after [`LiveFit::edit`] is
//! **bit-identical** to refitting from scratch, whatever the order of
//! the toggles. `ba-core`'s `eval_equivalence` proptest pins this for
//! all three regressors over random attack-op sequences, and
//! `ba-stream`'s suites pin it after every batch.

use crate::detector::{FitError, Regressor};
use crate::robust::{huber_fit, ransac_fit, HuberConfig, RansacConfig};
use crate::score::{anomaly_score, log_feat, log_features};
use ba_graph::egonet::{EgonetFeatures, IncrementalEgonet};
use ba_graph::{EditableGraph, NodeId};
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

    /// Every node's score over `feats`, in node order.
    pub fn scores(&self, feats: &EgonetFeatures) -> Vec<f64> {
        feats
            .n
            .iter()
            .zip(&feats.e)
            .map(|(&n_i, &e_i)| self.score(n_i, e_i))
            .collect()
    }

    /// `node`'s score over `feats`, or `None` for a node outside them.
    pub fn score_at(&self, feats: &EgonetFeatures, node: NodeId) -> Option<f64> {
        let i = node as usize;
        (i < feats.len()).then(|| self.score(feats.n[i], feats.e[i]))
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

/// Nets `edits` — `(u, v, present)` in sequence — into the final
/// presence of each edited pair, one entry per pair in ascending key
/// order: each pair is keyed `(min, max)`, self-loops and ids
/// `>= num_nodes` are dropped, and the last edit of a pair wins, as
/// sequential add/remove semantics would leave it.
pub fn net_edits(
    num_nodes: usize,
    edits: impl IntoIterator<Item = (NodeId, NodeId, bool)>,
) -> Vec<((NodeId, NodeId), bool)> {
    let mut finals: Vec<_> = edits
        .into_iter()
        .filter(|&(u, v, _)| u != v && (u.max(v) as usize) < num_nodes)
        .map(|(u, v, present)| ((u.min(v), u.max(v)), present))
        .collect();
    // Reversed, a stable sort puts each pair's last edit first, and
    // dedup keeps the first.
    finals.reverse();
    finals.sort_by_key(|&(pair, _)| pair);
    finals.dedup_by_key(|&mut (pair, _)| pair);
    finals
}

/// The live-refit kernel: egonet features and the detector's regression
/// inputs, kept in step with a graph under netted edits (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct LiveFit {
    inc: IncrementalEgonet,
    fit: IncrementalFit,
    /// Per node: already reported during the current edit. All `false`
    /// between edits.
    seen: Vec<bool>,
    /// The current edit's first report of each row: the node and its
    /// `(N, E)` before the edit. Empty between edits.
    dirty: Vec<(NodeId, f64, f64)>,
}

impl LiveFit {
    /// A kernel over a graph whose features are `feats`.
    pub fn new(regressor: Regressor, feats: EgonetFeatures) -> Self {
        Self {
            fit: IncrementalFit::new(regressor, &feats),
            seen: vec![false; feats.len()],
            inc: IncrementalEgonet::from_features(feats),
            dirty: Vec::new(),
        }
    }

    /// Current per-node features.
    pub fn features(&self) -> &EgonetFeatures {
        self.inc.features()
    }

    /// Refits the regression on the current rows.
    pub fn refit(&self) -> Result<FitParams, FitError> {
        self.fit.refit()
    }

    /// Brings every pair of `finals` (as [`net_edits`] returns them) to
    /// its final presence in `g` and patches the features and the fit's
    /// rows to match. Returns `(applied, moved)`: the pairs toggled, and
    /// the rows whose raw `(N, E)` ends away from its value before this
    /// edit.
    pub fn edit<G: EditableGraph + ?Sized>(
        &mut self,
        g: &mut G,
        finals: &[((NodeId, NodeId), bool)],
    ) -> (usize, usize) {
        let Self {
            inc,
            fit,
            seen,
            dirty,
        } = self;
        // A toggle never changes another pair's presence, so comparing
        // each pair against the live graph as we go is exact.
        let mut applied = 0;
        for &((u, v), present) in finals {
            if g.has_edge(u, v) != present {
                inc.toggle_with(g, u, v, |m, n_m, e_m| {
                    if !std::mem::replace(&mut seen[m as usize], true) {
                        dirty.push((m, n_m, e_m));
                    }
                });
                applied += 1;
            }
        }
        // Each node is listed once, so the unstable sort is deterministic.
        dirty.sort_unstable_by_key(|&(m, _, _)| m);
        let feats = inc.features();
        let mut moved = 0;
        for (m, n_before, e_before) in dirty.drain(..) {
            seen[m as usize] = false;
            let (n_m, e_m) = (feats.n[m as usize], feats.e[m as usize]);
            moved += usize::from(n_m != n_before || e_m != e_before);
            fit.update_row(m as usize, n_m, e_m);
        }
        (applied, moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OddBall;
    use ba_graph::egonet::egonet_features;
    use ba_graph::generators;

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
        let mut live = LiveFit::new(Regressor::Ols, egonet_features(&g));
        let edits: &[(NodeId, NodeId)] = &[(0, 1), (3, 7), (0, 1), (2, 9), (5, 40), (3, 7)];
        for &(a, b) in edits {
            let finals = net_edits(g.num_nodes(), [(a, b, !g.has_edge(a, b))]);
            assert_eq!(live.edit(&mut g, &finals).0, 1);
            // Cached rows equal a fresh derivation...
            let feats = live.features();
            assert_eq!(feats, &egonet_features(&g));
            let (fu, fv) = log_features(&feats.n, &feats.e);
            assert_eq!(live.fit.u, fu);
            assert_eq!(live.fit.v, fv);
            // ...and the refit equals the from-scratch detector fit.
            let params = live.refit().unwrap();
            let model = OddBall::default().fit(&g).unwrap();
            assert_eq!(params.beta0.to_bits(), model.beta0().to_bits());
            assert_eq!(params.beta1.to_bits(), model.beta1().to_bits());
        }
    }

    #[test]
    fn net_edits_keys_pairs_and_lets_the_last_edit_win() {
        let finals = net_edits(
            4,
            [
                (1, 0, false), // keyed (0, 1)
                (0, 2, true),
                (3, 0, true),  // on...
                (0, 3, false), // ...then off: the last edit wins
                (2, 2, true),  // self-loop: dropped
                (0, 4, true),  // out of range: dropped
            ],
        );
        assert_eq!(finals, [((0, 1), false), ((0, 2), true), ((0, 3), false)]);
    }

    /// A netted edit with churn, under every regressor: `(applied, moved)`
    /// count the real toggles and the rows that ended away from their
    /// start, and the refit equals a from-scratch fit bit for bit.
    #[test]
    fn edit_counts_real_toggles_and_moved_rows() {
        let base =
            ba_graph::Graph::from_edges(10, [(0, 1), (3, 4), (3, 5), (3, 6), (4, 6), (8, 9)]);
        for reg in [
            Regressor::Ols,
            Regressor::default_huber(),
            Regressor::default_ransac(3),
        ] {
            let mut g = base.clone();
            let mut live = LiveFit::new(reg, egonet_features(&g));
            let finals = net_edits(
                g.num_nodes(),
                [
                    (0, 2, true),  // closes the triangle 0–1–2 with...
                    (2, 1, true),  // ...this one
                    (9, 8, false), // isolates 8 and 9 (N 1→0)
                    (4, 5, true),  // E_3 +1, then...
                    (4, 6, false), // ...−1; N_4 +1 −1: 3 and 4 end unmoved
                    (1, 0, true),  // already present: no toggle
                ],
            );
            assert_eq!(live.edit(&mut g, &finals), (5, 7), "{reg:?}");
            assert_eq!(live.features(), &egonet_features(&g));
            let params = live.refit().unwrap();
            let model = OddBall::new(reg).fit(&g).unwrap();
            assert_eq!(params.beta0.to_bits(), model.beta0().to_bits(), "{reg:?}");
            assert_eq!(params.beta1.to_bits(), model.beta1().to_bits(), "{reg:?}");
            // Re-netting the same states toggles nothing.
            assert_eq!(live.edit(&mut g, &finals), (0, 0));
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
