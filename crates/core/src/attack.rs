//! The common attack interface, configuration, and result types, plus
//! the incremental AScore-curve evaluation engine (the τ_as hot path).

use crate::loss::LossError;
use crate::pair::{CandidateScope, EdgeOpKind};
use ba_graph::{CsrGraph, DeltaOverlay, EdgeOp, EditableGraph, Graph, GraphView, NodeId};
use ba_oddball::{net_edits, FitError, LiveFit, OddBall, OddBallModel};

/// Configuration shared by all structural attacks.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Which pairs the optimiser may touch.
    pub scope: CandidateScope,
    /// Which edge operations are allowed (paper Fig. 5 explores all three).
    pub op_kind: EdgeOpKind,
    /// Never delete an edge whose removal would isolate a node (the
    /// paper's GradMaxSearch explicitly avoids singleton nodes; we apply
    /// the rule to every method).
    pub forbid_singletons: bool,
    /// RNG seed for any stochastic component.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            scope: CandidateScope::Full,
            op_kind: EdgeOpKind::Both,
            forbid_singletons: true,
            seed: 0xb1a5,
        }
    }
}

/// Errors an attack can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// No targets supplied.
    NoTargets,
    /// A target id is out of range for the graph.
    TargetOutOfRange(NodeId),
    /// The surrogate objective is degenerate on this graph (e.g. a
    /// regular graph where the regression is singular).
    Loss(LossError),
    /// The candidate set is empty under the configured scope/mask.
    NoCandidates,
    /// A search loop tried to toggle a degenerate candidate pair
    /// (self-loop) — candidate enumeration should never produce one,
    /// so this flags a corrupted candidate set instead of panicking
    /// the worker.
    InvalidCandidatePair(NodeId, NodeId),
    /// The λ grid of the binarized attack is empty, so there is no
    /// best sweep to extract.
    EmptyLambdaGrid,
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::NoTargets => write!(f, "no target nodes supplied"),
            AttackError::TargetOutOfRange(t) => write!(f, "target {t} out of range"),
            AttackError::Loss(e) => write!(f, "objective error: {e}"),
            AttackError::NoCandidates => write!(f, "no candidate pairs to modify"),
            AttackError::InvalidCandidatePair(u, v) => {
                write!(f, "candidate pair ({u}, {v}) is not togglable")
            }
            AttackError::EmptyLambdaGrid => write!(f, "empty λ grid: nothing to sweep"),
        }
    }
}

impl std::error::Error for AttackError {}

impl From<LossError> for AttackError {
    fn from(e: LossError) -> Self {
        AttackError::Loss(e)
    }
}

/// A detector refit failed while evaluating an AScore curve.
///
/// Carries the budget whose poisoned graph could not be fitted (`0` =
/// the clean graph), so grid runners can report exactly which point of a
/// cell degenerated instead of panicking the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveError {
    /// Budget whose refit failed (`0` = the clean graph).
    pub budget: usize,
    /// The underlying detector failure.
    pub source: FitError,
}

impl std::fmt::Display for CurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.budget == 0 {
            write!(f, "detector fit on the clean graph failed: {}", self.source)
        } else {
            write!(
                f,
                "detector refit at budget {} failed: {}",
                self.budget, self.source
            )
        }
    }
}

impl std::error::Error for CurveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The result of an attack run with maximum budget `B`: for every budget
/// `b ∈ 1..=B`, the set of edge flips the attack commits to and the
/// surrogate loss it achieves.
///
/// Greedy attacks produce nested (prefix) op sets; BinarizedAttack and
/// ContinuousA may produce unrelated sets per budget — hence the explicit
/// per-budget storage.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Attack name (for reports).
    pub name: String,
    /// `ops_per_budget[b-1]` = ops for budget `b`. May be shorter than
    /// requested if the attack saturated (no more useful flips).
    pub ops_per_budget: Vec<Vec<EdgeOp>>,
    /// Surrogate loss after applying each budget's ops.
    pub surrogate_loss_per_budget: Vec<f64>,
    /// Optimiser trace (objective per iteration), for ablations. Empty
    /// for non-iterative methods.
    pub loss_trajectory: Vec<f64>,
}

impl AttackOutcome {
    /// Largest budget with recorded ops.
    pub fn max_budget(&self) -> usize {
        self.ops_per_budget.len()
    }

    /// The ops for budget `b` (clamped to the largest recorded budget;
    /// budget 0 yields no ops).
    pub fn ops(&self, budget: usize) -> &[EdgeOp] {
        if budget == 0 || self.ops_per_budget.is_empty() {
            return &[];
        }
        let idx = budget.min(self.ops_per_budget.len()) - 1;
        &self.ops_per_budget[idx]
    }

    /// Applies the budget-`b` ops to a clean graph.
    pub fn poisoned_graph(&self, g0: &Graph, budget: usize) -> Graph {
        g0.with_ops(self.ops(budget))
    }

    /// Evaluates the *true* OddBall anomaly-score sum of `targets` at
    /// every recorded budget (plus budget 0 first), as the paper's
    /// evaluation metric τ_as requires. Returns `scores[b] = S_T` after
    /// budget `b`, or the budget at which a degenerate poisoned graph
    /// made the detector refit fail.
    pub fn ascore_curve(
        &self,
        g0: &Graph,
        targets: &[NodeId],
        detector: &OddBall,
    ) -> Result<Vec<f64>, CurveError> {
        self.ascore_curve_on(&CsrGraph::from(g0), targets, detector)
    }

    /// [`AttackOutcome::ascore_curve`] over a caller-owned frozen
    /// substrate — the orchestrator path, where one `CsrGraph` per
    /// dataset is shared across every cell and never rebuilt.
    pub fn ascore_curve_on(
        &self,
        csr: &CsrGraph,
        targets: &[NodeId],
        detector: &OddBall,
    ) -> Result<Vec<f64>, CurveError> {
        let clean = detector
            .fit(csr)
            .map_err(|source| CurveError { budget: 0, source })?;
        self.ascore_curve_with_clean(csr, &clean, targets, detector)
    }

    /// [`AttackOutcome::ascore_curve_on`] with a caller-prefitted clean
    /// model, so grids that already hold one (the runner fits OddBall
    /// once per dataset substrate) skip the redundant clean-graph fit.
    ///
    /// This is the incremental replay engine: one [`DeltaOverlay`] walks
    /// the op sequence budget by budget, and the shared live-refit
    /// kernel ([`LiveFit`], DESIGN.md §2.3) toggles only the pairs that
    /// differ between consecutive budgets' poisoned graphs and patches
    /// exactly the log-feature rows those toggles moved. A nested budget
    /// (every greedy attack) nets just its new suffix ops; any other
    /// budget nets the pairs the previous budget left toggled, reset to
    /// their clean state, overlaid with its own ops. Per budget that
    /// costs `O(Σ_{toggled} deg(u) + deg(v))` plus an O(1) OLS solve
    /// (robust regressors rerun over the cached rows), instead of the
    /// `O(n + m + Σdeg²)` full re-extraction and refit — the curve is
    /// bit-identical to [`AttackOutcome::ascore_curve_full_refit`]
    /// (pinned by the `eval_equivalence` proptest and the `eval` gate's
    /// cross-check).
    pub fn ascore_curve_with_clean(
        &self,
        csr: &CsrGraph,
        clean: &OddBallModel,
        targets: &[NodeId],
        detector: &OddBall,
    ) -> Result<Vec<f64>, CurveError> {
        let mut out = Vec::with_capacity(self.max_budget() + 1);
        out.push(clean.target_score_sum(targets));
        if self.max_budget() == 0 {
            return Ok(out);
        }
        let mut overlay = DeltaOverlay::new(csr);
        let mut live = LiveFit::new(detector.regressor(), clean.features().clone());
        // Pairs currently toggled away from the clean graph, ascending.
        let mut applied: Vec<(NodeId, NodeId)> = Vec::new();
        for b in 1..=self.max_budget() {
            let (prev, cur) = (self.ops(b - 1), self.ops(b));
            let finals = if cur.starts_with(prev) {
                net_edits(csr.num_nodes(), op_states(&cur[prev.len()..]))
            } else {
                let reset = applied.drain(..).map(|(u, v)| (u, v, csr.has_edge(u, v)));
                net_edits(csr.num_nodes(), reset.chain(op_states(cur)))
            };
            live.edit(&mut overlay, &finals);
            for &((u, v), present) in &finals {
                let differs = csr.has_edge(u, v) != present;
                match applied.binary_search(&(u, v)) {
                    Ok(pos) if !differs => {
                        applied.remove(pos);
                    }
                    Err(pos) if differs => applied.insert(pos, (u, v)),
                    _ => {}
                }
            }
            let params = live
                .refit()
                .map_err(|source| CurveError { budget: b, source })?;
            let feats = live.features();
            out.push(
                targets
                    .iter()
                    .map(|&t| params.score(feats.n[t as usize], feats.e[t as usize]))
                    .sum(),
            );
        }
        Ok(out)
    }

    /// Reference implementation of
    /// [`AttackOutcome::ascore_curve_with_clean`]: re-extracts features
    /// and refits the detector from scratch at every budget,
    /// `O(budget × (n + m + Σdeg²))` total. Kept as the equivalence
    /// oracle for the incremental engine (`eval_equivalence` proptest,
    /// `eval` speedup gate); production paths should use the
    /// incremental method.
    pub fn ascore_curve_full_refit(
        &self,
        csr: &CsrGraph,
        clean: &OddBallModel,
        targets: &[NodeId],
        detector: &OddBall,
    ) -> Result<Vec<f64>, CurveError> {
        let mut out = Vec::with_capacity(self.max_budget() + 1);
        out.push(clean.target_score_sum(targets));
        let mut overlay = DeltaOverlay::new(csr);
        for b in 1..=self.max_budget() {
            overlay.reset();
            overlay.apply_ops(self.ops(b));
            let model = detector
                .fit(&overlay)
                .map_err(|source| CurveError { budget: b, source })?;
            out.push(model.target_score_sum(targets));
        }
        Ok(out)
    }

    /// τ_as at budget `b`: `(S⁰_T − S^b_T) / S⁰_T` for a precomputed
    /// AScore curve. Strict variant: `None` when the curve is empty,
    /// when `b` is past the recorded curve (a saturated attack would
    /// otherwise masquerade as converged), or when `S⁰_T = 0` (the
    /// reduction ratio is undefined on a zero-score target set).
    pub fn tau_as_at(curve: &[f64], b: usize) -> Option<f64> {
        let &s0 = curve.first()?;
        if b >= curve.len() || s0 == 0.0 {
            return None;
        }
        Some((s0 - curve[b]) / s0)
    }

    /// τ_as at budget `b` with **documented saturation**: a budget past
    /// the recorded curve evaluates at the final recorded point (the
    /// attack saturated — no further flips were useful — so its score
    /// stays at the last value), and a zero clean score yields `0.0` (a
    /// vacuous target set cannot be attacked). Callers that must
    /// distinguish those cases use [`AttackOutcome::tau_as_at`].
    pub fn tau_as(curve: &[f64], b: usize) -> f64 {
        debug_assert!(!curve.is_empty(), "tau_as on an empty curve");
        if curve.is_empty() {
            return 0.0;
        }
        Self::tau_as_at(curve, b.min(curve.len() - 1)).unwrap_or(0.0)
    }
}

/// `ops` as `(u, v, present)` edits, for [`net_edits`].
fn op_states(ops: &[EdgeOp]) -> impl Iterator<Item = (NodeId, NodeId, bool)> + '_ {
    ops.iter().map(|op| (op.u, op.v, op.added))
}

/// Validates a target set against any graph view.
pub(crate) fn validate_targets<V: GraphView + ?Sized>(
    g: &V,
    targets: &[NodeId],
) -> Result<(), AttackError> {
    if targets.is_empty() {
        return Err(AttackError::NoTargets);
    }
    for &t in targets {
        if t as usize >= g.num_nodes() {
            return Err(AttackError::TargetOutOfRange(t));
        }
    }
    Ok(())
}

/// A targeted structural poisoning attack against OddBall.
pub trait StructuralAttack {
    /// Human-readable method name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Runs the attack inside a caller-owned
    /// [`AttackSession`](crate::session::AttackSession), using
    /// the session's target set. The session is reset first, so any
    /// prior edits are discarded; the frozen substrate and cached base
    /// features are reused. This is the orchestrator entry point: one
    /// substrate per dataset, one session per worker, re-pointed between
    /// cells via
    /// [`AttackSession::retarget`](crate::session::AttackSession::retarget).
    fn attack_with_session(
        &self,
        session: &mut crate::session::AttackSession<'_>,
        budget: usize,
    ) -> Result<AttackOutcome, AttackError>;

    /// Runs the attack on clean graph `g0` for the given targets and
    /// maximum budget, producing per-budget op sets. Convenience wrapper
    /// that freezes `g0` into a throwaway substrate and delegates to
    /// [`StructuralAttack::attack_with_session`].
    fn attack(
        &self,
        g0: &Graph,
        targets: &[NodeId],
        budget: usize,
    ) -> Result<AttackOutcome, AttackError> {
        let csr = CsrGraph::from(g0);
        let mut session = crate::session::AttackSession::new(&csr, targets)?;
        self.attack_with_session(&mut session, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_outcome() -> AttackOutcome {
        AttackOutcome {
            name: "dummy".into(),
            ops_per_budget: vec![
                vec![EdgeOp::new(0, 1, false)],
                vec![EdgeOp::new(0, 1, false), EdgeOp::new(0, 2, true)],
            ],
            surrogate_loss_per_budget: vec![5.0, 3.0],
            loss_trajectory: vec![],
        }
    }

    #[test]
    fn ops_clamping() {
        let o = dummy_outcome();
        assert!(o.ops(0).is_empty());
        assert_eq!(o.ops(1).len(), 1);
        assert_eq!(o.ops(2).len(), 2);
        assert_eq!(o.ops(99).len(), 2); // clamped
    }

    #[test]
    fn poisoned_graph_applies_ops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let o = dummy_outcome();
        let p = o.poisoned_graph(&g, 2);
        assert!(!p.has_edge(0, 1));
        assert!(p.has_edge(0, 2));
        assert_eq!(p.num_edges(), 2);
    }

    #[test]
    fn tau_as_formula() {
        let curve = [10.0, 8.0, 5.0];
        assert!((AttackOutcome::tau_as(&curve, 1) - 0.2).abs() < 1e-12);
        assert!((AttackOutcome::tau_as(&curve, 2) - 0.5).abs() < 1e-12);
        // Past-the-curve budgets saturate to the last recorded point...
        assert!((AttackOutcome::tau_as(&curve, 9) - 0.5).abs() < 1e-12);
        // ...and a zero clean score is defined as a vacuous 0.0.
        assert_eq!(AttackOutcome::tau_as(&[0.0, 0.0], 1), 0.0);
    }

    #[test]
    fn tau_as_at_is_strict() {
        let curve = [10.0, 8.0, 5.0];
        assert_eq!(AttackOutcome::tau_as_at(&curve, 0), Some(0.0));
        assert!((AttackOutcome::tau_as_at(&curve, 2).unwrap() - 0.5).abs() < 1e-12);
        // Out-of-range budgets and zero clean scores are None, not a
        // silently clamped/zeroed value.
        assert_eq!(AttackOutcome::tau_as_at(&curve, 3), None);
        assert_eq!(AttackOutcome::tau_as_at(&[0.0, 0.0], 1), None);
        assert_eq!(AttackOutcome::tau_as_at(&[], 0), None);
    }

    #[test]
    fn curve_error_reports_budget() {
        let e = CurveError {
            budget: 3,
            source: FitError::EmptyGraph,
        };
        assert!(e.to_string().contains("budget 3"), "{e}");
        let clean = CurveError {
            budget: 0,
            source: FitError::EmptyGraph,
        };
        assert!(clean.to_string().contains("clean graph"), "{clean}");
    }

    #[test]
    fn incremental_curve_matches_full_refit_on_non_nested_ops() {
        // Per-budget op sets that are NOT prefixes of each other (the
        // BinarizedAttack shape): the replay must re-derive the right
        // deltas between budgets.
        let g = ba_graph::generators::erdos_renyi(60, 0.1, 5);
        let csr = CsrGraph::from(&g);
        let detector = OddBall::default();
        let clean = detector.fit(&csr).unwrap();
        let outcome = AttackOutcome {
            name: "synthetic".into(),
            ops_per_budget: vec![
                vec![EdgeOp::new(0, 1, !g.has_edge(0, 1))],
                vec![
                    EdgeOp::new(2, 3, !g.has_edge(2, 3)),
                    EdgeOp::new(4, 5, !g.has_edge(4, 5)),
                ],
                vec![
                    EdgeOp::new(0, 1, !g.has_edge(0, 1)),
                    EdgeOp::new(7, 9, !g.has_edge(7, 9)),
                    EdgeOp::new(4, 5, !g.has_edge(4, 5)),
                ],
            ],
            surrogate_loss_per_budget: vec![0.0; 3],
            loss_trajectory: vec![],
        };
        let targets = [0u32, 7, 11];
        let fast = outcome
            .ascore_curve_with_clean(&csr, &clean, &targets, &detector)
            .unwrap();
        let slow = outcome
            .ascore_curve_full_refit(&csr, &clean, &targets, &detector)
            .unwrap();
        assert_eq!(fast.len(), slow.len());
        for (b, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(f.to_bits(), s.to_bits(), "budget {b}: {f} != {s}");
        }
    }

    #[test]
    fn degenerate_refit_fails_with_budget_context() {
        // A 6-cycle: deleting {0,1} and adding {0,3} keeps every degree
        // at 2 → the budget-2 regression is singular while budget 1 is
        // fine.
        let n = 6u32;
        let edges: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n as usize, edges);
        let csr = CsrGraph::from(&g);
        let detector = OddBall::default();
        // The clean cycle itself is degenerate: ascore_curve_on reports
        // budget 0.
        let outcome = AttackOutcome {
            name: "degenerate".into(),
            ops_per_budget: vec![vec![EdgeOp::new(0, 2, true)]],
            surrogate_loss_per_budget: vec![0.0],
            loss_trajectory: vec![],
        };
        let err = outcome.ascore_curve_on(&csr, &[0], &detector).unwrap_err();
        assert_eq!(err.budget, 0);

        // Break the clean degeneracy with one chord, then drive the
        // poisoned graph back into a regular one at budget 2.
        let mut g2 = g.clone();
        g2.add_edge(0, 2);
        let csr2 = CsrGraph::from(&g2);
        let clean = detector.fit(&csr2).unwrap();
        let outcome = AttackOutcome {
            name: "degenerate-later".into(),
            ops_per_budget: vec![
                vec![EdgeOp::new(3, 5, true)],
                vec![EdgeOp::new(0, 2, false)],
            ],
            surrogate_loss_per_budget: vec![0.0; 2],
            loss_trajectory: vec![],
        };
        let err = outcome
            .ascore_curve_with_clean(&csr2, &clean, &[0], &detector)
            .unwrap_err();
        assert_eq!(err.budget, 2, "err = {err}");
        // The reference path reports the same failure point.
        let err_full = outcome
            .ascore_curve_full_refit(&csr2, &clean, &[0], &detector)
            .unwrap_err();
        assert_eq!(err_full, err);
    }

    #[test]
    fn validate_targets_errors() {
        let g = Graph::new(3);
        assert_eq!(validate_targets(&g, &[]), Err(AttackError::NoTargets));
        assert_eq!(
            validate_targets(&g, &[5]),
            Err(AttackError::TargetOutOfRange(5))
        );
        assert_eq!(validate_targets(&g, &[0, 2]), Ok(()));
    }
}
