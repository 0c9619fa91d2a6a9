//! # ba-oddball
//!
//! The target GAD system of the paper: **OddBall** (Akoglu et al., 2010),
//! plus the robust-regression countermeasures of paper Sec. VII.
//!
//! OddBall extracts egonet features `(N_i, E_i)` for every node, fits the
//! Egonet Density Power Law `ln E = β0 + β1 ln N` (paper Eq. (1)–(2)) and
//! scores each node by its deviation from the law (Eq. (3)):
//!
//! ```text
//! S_i = max(E_i, C_i) / min(E_i, C_i) · ln(|E_i − C_i| + 1),
//! C_i = e^{β0} N_i^{β1}
//! ```
//!
//! The regression parameters can be estimated by plain OLS (the paper's
//! default target) or by the robust estimators used as countermeasures:
//! Huber IRLS and RANSAC.
//!
//! ## Example
//!
//! ```
//! use ba_graph::generators;
//! use ba_oddball::{OddBall, Regressor};
//!
//! let mut g = generators::erdos_renyi(300, 0.03, 7);
//! // Plant a near-clique: those nodes become anomalous under OddBall.
//! let members: Vec<u32> = (0..10).collect();
//! generators::plant_near_clique(&mut g, &members, 1.0, 8);
//!
//! let model = OddBall::new(Regressor::Ols).fit(&g).unwrap();
//! let top = model.top_k(10);
//! // Most of the top-10 anomalies are clique members.
//! let hits = top.iter().filter(|(id, _)| *id < 10).count();
//! assert!(hits >= 5, "only {hits} clique members in the top 10");
//! ```

mod detector;
mod incremental;
pub mod purify;
mod robust;
mod score;

pub use detector::{FitError, OddBall, OddBallModel, Regressor};
pub use incremental::{net_edits, FitParams, IncrementalFit, LiveFit};
pub use purify::{edge_retention, low_rank_purify, PurifyConfig};
pub use robust::{huber_fit, ransac_fit, HuberConfig, RansacConfig};
pub use score::{
    anomaly_score, log_features, predicted_e, rank_top_k, surrogate_loss, surrogate_score,
};
