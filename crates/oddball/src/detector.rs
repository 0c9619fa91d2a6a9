//! The OddBall detector: fit a regressor over log-log egonet features,
//! score every node, rank anomalies.

use crate::incremental::IncrementalFit;
use crate::score::rank_top_k;
use ba_graph::egonet::{egonet_features, EgonetFeatures};
use ba_graph::{GraphView, NodeId};
use ba_linalg::Ols2Error;

/// Which estimator fits the Egonet Density Power Law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regressor {
    /// Ordinary least squares — the paper's default target (Eq. (2)).
    Ols,
    /// Huber IRLS (paper Eq. (10)); `k` in MAD-scale units.
    Huber {
        /// Huber threshold in robust-scale units.
        k: f64,
    },
    /// RANSAC consensus fit (paper Sec. VII).
    Ransac {
        /// Number of random 2-point hypotheses.
        trials: usize,
        /// Inlier tolerance in robust-scale units.
        inlier_k: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl Regressor {
    /// Default Huber configuration as used in the defence experiments.
    pub fn default_huber() -> Self {
        Regressor::Huber { k: 1.345 }
    }

    /// Default RANSAC configuration as used in the defence experiments.
    pub fn default_ransac(seed: u64) -> Self {
        Regressor::Ransac {
            trials: 200,
            inlier_k: 1.0,
            seed,
        }
    }
}

/// Errors from fitting OddBall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// The underlying regression failed (degenerate features).
    Regression(Ols2Error),
    /// The graph has no nodes.
    EmptyGraph,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Regression(e) => write!(f, "regression failed: {e}"),
            FitError::EmptyGraph => write!(f, "empty graph"),
        }
    }
}

impl std::error::Error for FitError {}

/// The OddBall detector (configuration object).
#[derive(Debug, Clone, Copy)]
pub struct OddBall {
    regressor: Regressor,
}

impl Default for OddBall {
    fn default() -> Self {
        Self {
            regressor: Regressor::Ols,
        }
    }
}

impl OddBall {
    /// Creates a detector with the given regressor.
    pub fn new(regressor: Regressor) -> Self {
        Self { regressor }
    }

    /// The configured regressor.
    pub fn regressor(&self) -> Regressor {
        self.regressor
    }

    /// Extracts egonet features from `g` and fits the detector. Accepts
    /// any [`GraphView`] — a mutable `Graph`, a frozen `CsrGraph`, or a
    /// live `DeltaOverlay` — so attack loops can refit on the poisoned
    /// view without materialising a graph.
    pub fn fit<V: GraphView + ?Sized>(&self, g: &V) -> Result<OddBallModel, FitError> {
        if g.num_nodes() == 0 {
            return Err(FitError::EmptyGraph);
        }
        self.fit_features(egonet_features(g))
    }

    /// Fits the detector on pre-computed features (the attack loop keeps
    /// features incrementally, so this avoids re-extraction).
    ///
    /// The regression goes through [`IncrementalFit`] — the same kernels
    /// (compensated OLS sufficient statistics, Huber/RANSAC over the
    /// derived log rows) the incremental curve-evaluation engine
    /// maintains — so a from-scratch fit and a replayed incremental
    /// refit of the same graph are bit-identical.
    pub fn fit_features(&self, feats: EgonetFeatures) -> Result<OddBallModel, FitError> {
        if feats.is_empty() {
            return Err(FitError::EmptyGraph);
        }
        let params = IncrementalFit::new(self.regressor, &feats).refit()?;
        Ok(OddBallModel {
            beta0: params.beta0,
            beta1: params.beta1,
            scores: params.scores(&feats),
            feats,
        })
    }
}

/// A fitted OddBall model: regression parameters, the features it was fit
/// on, and every node's anomaly score.
#[derive(Debug, Clone)]
pub struct OddBallModel {
    beta0: f64,
    beta1: f64,
    feats: EgonetFeatures,
    scores: Vec<f64>,
}

impl OddBallModel {
    /// Intercept `β0` of the log-log fit.
    pub fn beta0(&self) -> f64 {
        self.beta0
    }

    /// Slope `β1` of the log-log fit — the power-law exponent `α`,
    /// empirically in `[1, 2]` per the paper.
    pub fn beta1(&self) -> f64 {
        self.beta1
    }

    /// The features the model was fitted on.
    pub fn features(&self) -> &EgonetFeatures {
        &self.feats
    }

    /// Anomaly score of node `i` (paper Eq. (3)).
    pub fn score(&self, i: NodeId) -> f64 {
        self.scores[i as usize]
    }

    /// All anomaly scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Sum of the anomaly scores of `targets` — the quantity the attack
    /// minimises (evaluated with the *true* score, as the paper does).
    pub fn target_score_sum(&self, targets: &[NodeId]) -> f64 {
        targets.iter().map(|&t| self.score(t)).sum()
    }

    /// The `k` highest-scoring nodes as `(node, score)`, descending,
    /// ties toward smaller ids ([`rank_top_k`]).
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        rank_top_k(&self.scores, k)
    }

    /// Boolean anomaly labels for the `frac` highest-scoring nodes
    /// (used by the transfer pipeline to create supervised labels).
    pub fn labels_top_fraction(&self, frac: f64) -> Vec<bool> {
        let n = self.scores.len();
        let k = ((n as f64 * frac).round() as usize).clamp(1, n);
        let mut labels = vec![false; n];
        for (node, _) in self.top_k(k) {
            labels[node as usize] = true;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::{generators, CsrGraph, DeltaOverlay, Graph};

    fn planted_graph(seed: u64) -> Graph {
        let mut g = generators::erdos_renyi(400, 0.02, seed);
        generators::attach_isolated(&mut g, seed + 1);
        let members: Vec<NodeId> = (0..12).collect();
        generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
        generators::plant_near_star(&mut g, 20, 70, seed + 3);
        g
    }

    #[test]
    fn power_law_exponent_in_band() {
        let g = generators::erdos_renyi(600, 0.02, 3);
        let model = OddBall::default().fit(&g).unwrap();
        // The paper reports 1 <= alpha <= 2 for real graphs; ER graphs sit
        // near 1 (egonets are mostly stars of spokes).
        assert!(
            model.beta1() > 0.5 && model.beta1() < 2.5,
            "beta1 = {}",
            model.beta1()
        );
    }

    #[test]
    fn planted_anomalies_rank_high() {
        let g = planted_graph(11);
        let model = OddBall::default().fit(&g).unwrap();
        let top: Vec<NodeId> = model.top_k(20).into_iter().map(|(i, _)| i).collect();
        let clique_hits = top.iter().filter(|&&i| i < 12).count();
        assert!(
            clique_hits >= 6,
            "clique hits = {clique_hits}, top = {top:?}"
        );
        assert!(top.contains(&20), "star centre not in top-20: {top:?}");
    }

    #[test]
    fn scores_nonnegative_and_finite() {
        let g = planted_graph(13);
        let model = OddBall::default().fit(&g).unwrap();
        for &s in model.scores() {
            assert!(s.is_finite());
            assert!(s >= 0.0);
        }
    }

    #[test]
    fn top_k_sorted_descending() {
        let g = planted_graph(17);
        let model = OddBall::default().fit(&g).unwrap();
        let top = model.top_k(50);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(top.len(), 50);
    }

    #[test]
    fn labels_top_fraction_counts() {
        let g = planted_graph(19);
        let model = OddBall::default().fit(&g).unwrap();
        let labels = model.labels_top_fraction(0.1);
        let count = labels.iter().filter(|&&b| b).count();
        assert_eq!(count, 40); // 10% of 400
    }

    #[test]
    fn robust_regressors_fit_too() {
        let g = planted_graph(23);
        for reg in [Regressor::default_huber(), Regressor::default_ransac(7)] {
            let model = OddBall::new(reg).fit(&g).unwrap();
            assert!(model.beta1().is_finite());
            // Robust fits should still rank the star centre highly.
            let top: Vec<NodeId> = model.top_k(30).into_iter().map(|(i, _)| i).collect();
            assert!(top.contains(&20), "{reg:?}: top = {top:?}");
        }
    }

    #[test]
    fn fit_identical_across_views() {
        let g = planted_graph(41);
        let csr = CsrGraph::from(&g);
        let ov = DeltaOverlay::new(&csr);
        let a = OddBall::default().fit(&g).unwrap();
        let b = OddBall::default().fit(&csr).unwrap();
        let c = OddBall::default().fit(&ov).unwrap();
        assert_eq!(a.scores(), b.scores());
        assert_eq!(a.scores(), c.scores());
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(matches!(
            OddBall::default().fit(&Graph::new(0)),
            Err(FitError::EmptyGraph)
        ));
    }

    #[test]
    fn target_score_sum_adds_up() {
        let g = planted_graph(29);
        let model = OddBall::default().fit(&g).unwrap();
        let targets = [0, 1, 2];
        let sum = model.target_score_sum(&targets);
        let manual: f64 = targets.iter().map(|&t| model.score(t)).sum();
        assert_eq!(sum, manual);
    }

    #[test]
    fn degenerate_regular_graph_errors() {
        // A cycle: every node has degree 2 → all u identical → singular.
        let n = 20;
        let edges: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n as usize, edges);
        match OddBall::default().fit(&g) {
            Err(FitError::Regression(Ols2Error::Degenerate)) => {}
            other => panic!("expected degenerate error, got {other:?}"),
        }
    }
}
