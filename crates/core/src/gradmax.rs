//! GradMaxSearch (paper Sec. V-A1): the greedy gradient baseline.
//!
//! Per step: relax the integrality of `A`, compute the gradient of the
//! surrogate loss w.r.t. every candidate pair, and flip the pair with the
//! largest gradient magnitude whose *sign is consistent with a feasible
//! move* — a non-edge (`A_ij = 0`) may only be added when its gradient is
//! negative (increasing `A_ij` decreases the loss) and an edge may only
//! be deleted when its gradient is positive. A pool of already-modified
//! pairs is never revisited, and deletions that would create singleton
//! nodes are skipped (both rules are explicit in the paper).
//!
//! The never-revisit pool is a candidate-indexed [`IndexBitSet`] (one
//! shift-and-mask instead of a hash probe per candidate per step), and
//! the argmax is one full scan with a total comparator (magnitude, then
//! index), so the winner does not depend on the order candidates are
//! visited in. The eligibility mark and the argmax split on the
//! partition the gradient assembly uses, across the session's threads;
//! chunk winners are combined with the same comparator.

use crate::attack::{AttackConfig, AttackError, AttackOutcome, StructuralAttack};
use crate::pair::{edge_flags, Candidates, IndexBitSet};
use crate::session::AttackSession;
use crate::split::{fold_chunks, for_chunks};
use ba_graph::{GraphView, NodeId};

/// A sign-consistent move: candidate `idx` = `{i, j}` with gradient
/// magnitude `abs`.
#[derive(Debug, Clone, Copy)]
struct Move {
    idx: usize,
    i: NodeId,
    j: NodeId,
    abs: f64,
}

/// The better of two moves by the argmax's total order: larger `abs`
/// wins, and the smaller index breaks ties.
fn better(cur: Option<Move>, next: Option<Move>) -> Option<Move> {
    match (cur, next) {
        (Some(c), Some(n)) if n.abs > c.abs || (n.abs == c.abs && n.idx < c.idx) => Some(n),
        (Some(c), _) => Some(c),
        (None, n) => n,
    }
}

/// The greedy per-edge gradient attack.
#[derive(Debug, Clone, Copy)]
pub struct GradMaxSearch {
    config: AttackConfig,
}

impl GradMaxSearch {
    /// Creates the attack with the given configuration.
    pub fn new(config: AttackConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }
}

impl Default for GradMaxSearch {
    fn default() -> Self {
        Self::new(AttackConfig::default())
    }
}

impl StructuralAttack for GradMaxSearch {
    fn name(&self) -> &'static str {
        "gradmaxsearch"
    }

    fn attack_with_session(
        &self,
        session: &mut AttackSession<'_>,
        budget: usize,
    ) -> Result<AttackOutcome, AttackError> {
        session.reset();
        // Whole-run memo: a session reused across experiment cells (the
        // orchestrator's shape) re-runs identical (state, attack, config)
        // searches; replay the stored outcome instead of re-searching.
        let bits = self.config.memo_bits();
        let run_key = session.run_key(&[1, budget as u64, bits[0], bits[1], bits[2], bits[3]]);
        if let Some(outcome) = session.memo_run_probe(run_key) {
            return Ok(outcome);
        }
        let targets = session.targets().to_vec();
        let candidates = Candidates::build(self.config.scope, session.base(), &targets);
        if candidates.is_empty() {
            return Err(AttackError::NoCandidates);
        }
        let mut pool = IndexBitSet::new(candidates.len());
        let mut eligible = vec![false; candidates.len()];
        // Edge state per candidate, read once from the clean graph. A pair
        // whose state on the overlay differs from the clean graph was
        // toggled, so it sits in `pool` and is never eligible (a reverted
        // toggle restores the clean state); for every eligible candidate
        // the overlay and the clean graph therefore agree.
        let is_edge_cache = edge_flags(&candidates, session.base());
        let split = session.partition(&candidates);
        let mut ops = Vec::new();
        let mut ops_per_budget = Vec::with_capacity(budget);
        let mut loss_per_budget = Vec::with_capacity(budget);
        let mut trajectory = Vec::with_capacity(budget + 1);

        for _step in 0..budget {
            let ng = session.node_grads()?;
            trajectory.push(ng.loss);

            // Mark the feasible moves (never-revisited pool, op kind,
            // singleton protection against the evolving poisoned graph),
            // then assemble their straight-through gradients
            // `s = G·(1 − 2A₀)` sparsely. Both scans split on the
            // partition the assembly uses.
            let kind = self.config.op_kind;
            let forbid_singletons = self.config.forbid_singletons;
            let g = session.graph();
            for_chunks(split.split_mut(&mut eligible), |(range, eligible)| {
                let lo = range.start;
                candidates.for_each_range(lo, range.end, |idx, i, j| {
                    let is_edge = is_edge_cache[idx];
                    eligible[idx - lo] = !pool.contains(idx)
                        && kind.allows(is_edge)
                        && !(is_edge && forbid_singletons && !g.deletion_keeps_no_singletons(i, j));
                });
            });
            let (grads, _) =
                session.pair_gradients(&ng, &candidates, &split, &eligible, Some(&is_edge_cache));

            // Argmax over sign-consistent moves, per chunk and then over
            // the chunk winners, with one *total* comparator, so the
            // winner does not depend on visit order or on the split.
            let best = fold_chunks(
                split.ranges(),
                |range| {
                    let mut best = None;
                    candidates.for_each_range(range.start, range.end, |idx, i, j| {
                        if !eligible[idx] {
                            return;
                        }
                        // Sign consistency: adding requires dL/dA < 0 and
                        // deleting requires dL/dA > 0. Both read `s < 0`,
                        // and |s| = |G|.
                        let s = grads[idx];
                        if s < 0.0 {
                            best = better(best, Some(Move { idx, i, j, abs: -s }));
                        }
                    });
                    best
                },
                None,
                better,
            );

            let Some(Move { idx, i, j, .. }) = best else {
                break; // saturated: no feasible move improves the objective
            };
            let op = session
                .toggle(i, j)
                .ok_or(AttackError::InvalidCandidatePair(i, j))?;
            let loss = session.loss()?;
            // The gradient is a linearisation; a discrete ±1 flip can
            // overshoot once the objective is nearly minimised. Revert
            // and stop — the attack has saturated (paper: "we stop
            // attacking until the changes of AScore saturated").
            if loss > ng.loss + 1e-12 {
                session
                    .toggle(i, j)
                    .ok_or(AttackError::InvalidCandidatePair(i, j))?;
                break;
            }
            pool.insert(idx);
            ops.push(op);
            ops_per_budget.push(ops.clone());
            loss_per_budget.push(loss);
        }
        if let Some(&last) = loss_per_budget.last() {
            trajectory.push(last);
        }
        let outcome = AttackOutcome {
            name: self.name().to_string(),
            ops_per_budget,
            surrogate_loss_per_budget: loss_per_budget,
            loss_trajectory: trajectory,
        };
        session.memo_run_store(run_key, &outcome);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{CandidateScope, EdgeOpKind};
    use ba_graph::{generators, Graph};
    use ba_oddball::OddBall;
    use std::collections::HashSet;

    fn anomalous_graph(seed: u64) -> (Graph, Vec<NodeId>) {
        let mut g = generators::erdos_renyi(150, 0.04, seed);
        generators::attach_isolated(&mut g, seed + 1);
        let members: Vec<NodeId> = (0..10).collect();
        generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
        let model = OddBall::default().fit(&g).unwrap();
        let targets: Vec<NodeId> = model.top_k(3).into_iter().map(|(i, _)| i).collect();
        (g, targets)
    }

    #[test]
    fn reduces_surrogate_loss_monotonically_enough() {
        let (g, targets) = anomalous_graph(5);
        let outcome = GradMaxSearch::default().attack(&g, &targets, 12).unwrap();
        assert!(!outcome.surrogate_loss_per_budget.is_empty());
        let first = outcome.surrogate_loss_per_budget[0];
        let last = *outcome.surrogate_loss_per_budget.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn reduces_true_anomaly_score() {
        let (g, targets) = anomalous_graph(7);
        let detector = OddBall::default();
        let outcome = GradMaxSearch::default().attack(&g, &targets, 15).unwrap();
        let curve = outcome.ascore_curve(&g, &targets, &detector).unwrap();
        let tau = AttackOutcome::tau_as(&curve, outcome.max_budget());
        assert!(tau > 0.2, "τ_as = {tau} too small; curve = {curve:?}");
    }

    #[test]
    fn respects_budget_and_prefix_structure() {
        let (g, targets) = anomalous_graph(9);
        let outcome = GradMaxSearch::default().attack(&g, &targets, 8).unwrap();
        assert!(outcome.max_budget() <= 8);
        for (b, ops) in outcome.ops_per_budget.iter().enumerate() {
            assert_eq!(ops.len(), b + 1, "greedy op sets must be prefixes");
        }
    }

    #[test]
    fn never_revisits_a_pair() {
        let (g, targets) = anomalous_graph(11);
        let outcome = GradMaxSearch::default().attack(&g, &targets, 20).unwrap();
        let final_ops = outcome.ops(outcome.max_budget());
        let mut seen = HashSet::new();
        for op in final_ops {
            assert!(
                seen.insert((op.u, op.v)),
                "pair ({}, {}) modified twice",
                op.u,
                op.v
            );
        }
    }

    #[test]
    fn no_singletons_created() {
        let (g, targets) = anomalous_graph(13);
        let outcome = GradMaxSearch::default().attack(&g, &targets, 25).unwrap();
        let poisoned = outcome.poisoned_graph(&g, outcome.max_budget());
        for u in 0..poisoned.num_nodes() as NodeId {
            if g.degree(u) > 0 {
                assert!(poisoned.degree(u) > 0, "node {u} became a singleton");
            }
        }
    }

    #[test]
    fn add_only_and_delete_only_modes() {
        let (g, targets) = anomalous_graph(17);
        for kind in [EdgeOpKind::AddOnly, EdgeOpKind::DeleteOnly] {
            let cfg = AttackConfig {
                op_kind: kind,
                ..AttackConfig::default()
            };
            let outcome = GradMaxSearch::new(cfg).attack(&g, &targets, 10).unwrap();
            for op in outcome.ops(outcome.max_budget()) {
                match kind {
                    EdgeOpKind::AddOnly => assert!(op.added),
                    EdgeOpKind::DeleteOnly => assert!(!op.added),
                    EdgeOpKind::Both => {}
                }
            }
        }
    }

    #[test]
    fn scoped_candidates_still_work() {
        let (g, targets) = anomalous_graph(19);
        let cfg = AttackConfig {
            scope: CandidateScope::TargetNeighborhood,
            ..AttackConfig::default()
        };
        let outcome = GradMaxSearch::new(cfg).attack(&g, &targets, 10).unwrap();
        assert!(outcome.max_budget() > 0);
        // Every op touches a target or two target-neighbours.
        let target_set: HashSet<NodeId> = targets.iter().copied().collect();
        for op in outcome.ops(outcome.max_budget()) {
            let touches = target_set.contains(&op.u)
                || target_set.contains(&op.v)
                || targets
                    .iter()
                    .any(|&t| g.neighbors(t).contains(&op.u) && g.neighbors(t).contains(&op.v));
            assert!(touches, "op {op:?} outside scope");
        }
    }

    #[test]
    fn error_paths() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(matches!(
            GradMaxSearch::default().attack(&g, &[], 3),
            Err(AttackError::NoTargets)
        ));
        assert!(matches!(
            GradMaxSearch::default().attack(&g, &[9], 3),
            Err(AttackError::TargetOutOfRange(9))
        ));
    }
}
