//! GAL (paper Sec. VI-A1): a two-layer GCN trained with the
//! class-distribution-aware margin loss of Eq. (9),
//!
//! ```text
//! L(u) = E_{u+, u−} max{0, g(u,u−) − g(u,u+) + Δ_yu},  Δ_y = C / n_y^{¼}
//! ```
//!
//! where `g(u,u') = f(u)ᵀ f(u')` and `f` is the GCN. The margin is larger
//! for the minority (anomaly) class, which is GAL's mechanism for the
//! class-imbalance inherent to anomaly detection.

use crate::gcn::{normalized_adjacency, structural_features, NormAdj};
use crate::nn::{glorot, relu, relu_backward, seeded_rng, Adam};
use ba_graph::{Graph, NodeId};
use ba_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// GAL hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GalConfig {
    /// Hidden width of the first GCN layer.
    pub hidden: usize,
    /// Embedding dimension (second layer output).
    pub embed: usize,
    /// Margin constant `C` in `Δ_y = C / n_y^{¼}`.
    pub margin_c: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Triplets sampled per anchor per epoch.
    pub samples_per_anchor: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GalConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            embed: 16,
            margin_c: 1.0,
            epochs: 120,
            lr: 0.01,
            samples_per_anchor: 2,
            seed: 0x9a1,
        }
    }
}

/// A trained GAL model: the GCN weights plus the graph operator it was
/// trained against.
#[derive(Debug, Clone)]
pub struct Gal {
    cfg: GalConfig,
    w1: Matrix,
    w2: Matrix,
    norm: NormAdj,
    features: Matrix,
}

impl Gal {
    /// Trains GAL on `g` using `labels` restricted to `train_nodes`
    /// (paper: GAL is supervised; labels come from OddBall scores in the
    /// transfer pipeline).
    pub fn train(g: &Graph, labels: &[bool], train_nodes: &[NodeId], cfg: GalConfig) -> Gal {
        assert_eq!(labels.len(), g.num_nodes(), "label count mismatch");
        assert!(!train_nodes.is_empty(), "no training nodes");
        let norm = normalized_adjacency(g);
        let features = structural_features(g);
        let d_in = features.cols();
        let mut rng = seeded_rng(cfg.seed);
        let mut w1 = glorot(d_in, cfg.hidden, &mut rng);
        let mut w2 = glorot(cfg.hidden, cfg.embed, &mut rng);
        let mut opt1 = Adam::new(d_in, cfg.hidden, cfg.lr);
        let mut opt2 = Adam::new(cfg.hidden, cfg.embed, cfg.lr);

        // Class pools within the training set.
        let pos: Vec<NodeId> = train_nodes
            .iter()
            .copied()
            .filter(|&u| labels[u as usize])
            .collect();
        let neg: Vec<NodeId> = train_nodes
            .iter()
            .copied()
            .filter(|&u| !labels[u as usize])
            .collect();
        // Degenerate single-class training data: keep the random init
        // (the pipeline guards against this, but don't panic).
        if pos.is_empty() || neg.is_empty() {
            return Gal {
                cfg,
                w1,
                w2,
                norm,
                features,
            };
        }
        // Margins Δ_y = C / n_y^{1/4}.
        let delta_pos = cfg.margin_c / (pos.len() as f64).powf(0.25);
        let delta_neg = cfg.margin_c / (neg.len() as f64).powf(0.25);

        let ax = norm.matmul(&features); // cached: Â X
        let mut anchors: Vec<NodeId> = train_nodes.to_vec();
        for _epoch in 0..cfg.epochs {
            // Forward.
            let pre1 = ax.matmul(&w1); // n × hidden
            let h1 = relu(&pre1);
            let ah1 = norm.matmul(&h1);
            let emb = ah1.matmul(&w2); // n × embed

            // Margin-loss gradient w.r.t. embeddings, from sampled triplets.
            let mut d_emb = Matrix::zeros(emb.rows(), emb.cols());
            anchors.shuffle(&mut rng);
            let mut active = 0usize;
            for &u in &anchors {
                let (same_pool, diff_pool, delta) = if labels[u as usize] {
                    (&pos, &neg, delta_pos)
                } else {
                    (&neg, &pos, delta_neg)
                };
                if same_pool.len() < 2 {
                    continue;
                }
                for _ in 0..cfg.samples_per_anchor {
                    let upos = loop {
                        let c = same_pool[rng.gen_range(0..same_pool.len())];
                        if c != u {
                            break c;
                        }
                    };
                    let uneg = diff_pool[rng.gen_range(0..diff_pool.len())];
                    let (ui, pi, ni) = (u as usize, upos as usize, uneg as usize);
                    let g_pos: f64 = emb
                        .row(ui)
                        .iter()
                        .zip(emb.row(pi))
                        .map(|(a, b)| a * b)
                        .sum();
                    let g_neg: f64 = emb
                        .row(ui)
                        .iter()
                        .zip(emb.row(ni))
                        .map(|(a, b)| a * b)
                        .sum();
                    if g_neg - g_pos + delta <= 0.0 {
                        continue; // hinge inactive
                    }
                    active += 1;
                    // d/d f(u) = f(u−) − f(u+); d/d f(u−) = f(u); d/d f(u+) = −f(u)
                    for k in 0..emb.cols() {
                        let fu = emb[(ui, k)];
                        d_emb[(ui, k)] += emb[(ni, k)] - emb[(pi, k)];
                        d_emb[(ni, k)] += fu;
                        d_emb[(pi, k)] -= fu;
                    }
                }
            }
            if active == 0 {
                break; // all margins satisfied
            }
            // Normalise by the number of active triplets.
            d_emb.scale_mut(1.0 / active as f64);

            // Backward through the two GCN layers.
            let d_w2 = ah1.transpose().matmul(&d_emb);
            let d_ah1 = d_emb.matmul(&w2.transpose());
            let d_h1 = norm.matmul(&d_ah1); // Â is symmetric
            let d_pre1 = relu_backward(&d_h1, &pre1);
            let d_w1 = ax.transpose().matmul(&d_pre1);
            opt1.step(&mut w1, &d_w1);
            opt2.step(&mut w2, &d_w2);
        }
        Gal {
            cfg,
            w1,
            w2,
            norm,
            features,
        }
    }

    /// Embeds the graph the model was trained on.
    pub fn embed(&self) -> Matrix {
        let ax = self.norm.matmul(&self.features);
        let h1 = relu(&ax.matmul(&self.w1));
        self.norm.matmul(&h1).matmul(&self.w2)
    }

    /// The configuration used for training.
    pub fn config(&self) -> &GalConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::generators;
    use ba_oddball::OddBall;

    fn labelled_graph(seed: u64) -> (Graph, Vec<bool>) {
        let mut g = generators::erdos_renyi(200, 0.04, seed);
        generators::attach_isolated(&mut g, seed + 1);
        let members: Vec<NodeId> = (0..12).collect();
        generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
        generators::plant_near_star(&mut g, 20, 40, seed + 3);
        let labels = OddBall::default().fit(&g).unwrap().labels_top_fraction(0.1);
        (g, labels)
    }

    #[test]
    fn embeddings_separate_classes() {
        let (g, labels) = labelled_graph(71);
        let train: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let cfg = GalConfig {
            epochs: 60,
            ..GalConfig::default()
        };
        let gal = Gal::train(&g, &labels, &train, cfg);
        let emb = gal.embed();
        // Mean within-class similarity must exceed cross-class similarity.
        let mut same = 0.0;
        let mut cross = 0.0;
        let mut same_n = 0.0;
        let mut cross_n = 0.0;
        let n = g.num_nodes();
        for i in (0..n).step_by(3) {
            for j in ((i + 1)..n).step_by(7) {
                let dot: f64 = emb.row(i).iter().zip(emb.row(j)).map(|(a, b)| a * b).sum();
                if labels[i] == labels[j] {
                    same += dot;
                    same_n += 1.0;
                } else {
                    cross += dot;
                    cross_n += 1.0;
                }
            }
        }
        let same_avg = same / same_n;
        let cross_avg = cross / cross_n;
        assert!(
            same_avg > cross_avg,
            "no separation: same {same_avg} vs cross {cross_avg}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (g, labels) = labelled_graph(73);
        let train: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let cfg = GalConfig {
            epochs: 10,
            ..GalConfig::default()
        };
        let a = Gal::train(&g, &labels, &train, cfg).embed();
        let b = Gal::train(&g, &labels, &train, cfg).embed();
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_training_does_not_panic() {
        let (g, _) = labelled_graph(75);
        let labels = vec![false; g.num_nodes()];
        let train: Vec<NodeId> = (0..50).collect();
        let cfg = GalConfig {
            epochs: 5,
            ..GalConfig::default()
        };
        let gal = Gal::train(&g, &labels, &train, cfg);
        let emb = gal.embed();
        assert_eq!(emb.rows(), g.num_nodes());
        assert!(emb.max_abs().is_finite());
    }
}
