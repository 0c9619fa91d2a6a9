//! # ba-core
//!
//! The paper's primary contribution: **targeted structural poisoning
//! attacks against OddBall** (paper Secs. IV–V), implemented as three
//! methods sharing one analytic gradient engine:
//!
//! * [`BinarizedAttack`] — the proposed method (Alg. 1): each candidate
//!   pair carries a continuous soft decision variable `Ż ∈ [0,1]` and a
//!   discrete dummy `Z ∈ {−1,+1}`; the forward pass evaluates the
//!   objective on the *discrete* poisoned graph, the backward pass updates
//!   `Ż` through a straight-through estimator with a LASSO budget penalty,
//!   swept over a grid of penalty weights `λ`.
//! * [`GradMaxSearch`] — the greedy baseline: per step, flip the
//!   sign-consistent pair with the largest gradient magnitude.
//! * [`ContinuousA`] — the full-relaxation baseline: projected gradient
//!   descent over `Ã ∈ [0,1]^{n×n}`, then round the top-B changes.
//!
//! Plus two non-gradient baselines used in ablations: [`RandomAttack`]
//! and [`CliqueBreaker`].
//!
//! ## The gradient engine
//!
//! The attack objective is bi-level: `L(A) = Σ_{a∈T} (E_a − e^{ρ_a})²`
//! where `ρ_a = β0 + β1 ln N_a` and `(β0, β1)` are the OLS solution over
//! *all* nodes' log-features (paper Eq. (5)). Because OLS has a closed
//! form, the total derivative w.r.t. every adjacency entry also has a
//! closed form (see [`grad`] and DESIGN.md §3.2); `ba-core`'s test-suite
//! verifies it against `ba-autodiff` and central finite differences.
//!
//! ## Example
//!
//! ```
//! use ba_core::{AttackConfig, BinarizedAttack, StructuralAttack};
//! use ba_graph::generators;
//! use ba_oddball::OddBall;
//!
//! let mut g = generators::erdos_renyi(120, 0.05, 3);
//! generators::plant_near_clique(&mut g, &[0, 1, 2, 3, 4, 5, 6, 7], 1.0, 4);
//! let model = OddBall::default().fit(&g).unwrap();
//! let targets = vec![model.top_k(1)[0].0];
//! let s0 = model.target_score_sum(&targets);
//!
//! let attack = BinarizedAttack::new(AttackConfig::default());
//! let outcome = attack.attack(&g, &targets, 10).unwrap();
//! let poisoned = outcome.poisoned_graph(&g, 10);
//! let s_b = OddBall::default().fit(&poisoned).unwrap().target_score_sum(&targets);
//! assert!(s_b < s0, "attack failed to reduce the target score: {s_b} >= {s0}");
//! ```

pub mod attack;
pub mod baselines;
pub mod binarized;
pub mod continuous;
pub mod dense;
pub mod grad;
pub mod gradmax;
pub mod loss;
pub mod pair;
pub mod session;
mod split;

pub use attack::{AttackConfig, AttackError, AttackOutcome, CurveError, StructuralAttack};
pub use baselines::{CliqueBreaker, RandomAttack};
pub use binarized::BinarizedAttack;
pub use continuous::ContinuousA;
pub use dense::dense_pair_gradients;
pub use grad::{
    assemble_pair_grads, assemble_pair_grads_into, correction_map, node_grads, pair_grad,
    resolve_threads, NodeGrads,
};
pub use gradmax::GradMaxSearch;
pub use loss::{fit_beta, surrogate_loss_from_features, LossError};
pub use pair::{CandidateScope, Candidates, EdgeOpKind, IndexBitSet, PairSpace};
pub use session::{target_set_hash, AttackSession, LruStats, MemoStats, SearchMemo};
