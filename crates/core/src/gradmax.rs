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
//! Each step is one pass over the partition the gradient assembly uses,
//! on one crew of threads spawned for the whole search (`split.rs`):
//! the row kernel computes every eligible candidate's straight-through
//! gradient `s = G·(1 − 2A₀)` and folds it into its chunk's best move as
//! it goes, so no candidate-length buffer is written. The argmax is the
//! first strict maximum of `−s` in ascending index (a total order:
//! magnitude, then index), so the winner does not depend on the order
//! candidates are visited in, and chunk winners are combined with the
//! same order.
//!
//! The eligibility mask is kept for the whole search. It starts as the
//! clean graph's feasible moves (op kind and singleton protection).
//! After an accepted flip `{u, v}` that pair's entry is cleared, and it
//! joins the never-revisit pool, a candidate-indexed [`IndexBitSet`].
//! Singleton protection reads only the degrees of a deletion's two
//! endpoints, and only `u` and `v` changed degree, so only the
//! clean-graph edges incident to `u` or `v` are re-marked. Every other
//! candidate's feasibility is unchanged; a non-edge's never depends on
//! the graph at all.
//!
//! GradMaxSearch never consults the session's assembly LRU: each step
//! flips a pair it never revisits, so no state of one search repeats,
//! and there is no stored assembly to lend.

use crate::attack::{AttackConfig, AttackError, AttackOutcome, StructuralAttack};
use crate::grad::NodeGrads;
use crate::pair::{edge_flags, Candidates, EdgeOpKind, IndexBitSet};
use crate::session::AttackSession;
use crate::split::{read, with_crew, write, Cells};
use ba_graph::{CsrGraph, GraphView, NodeId};
use std::sync::{PoisonError, RwLock};

/// A sign-consistent move: candidate `idx`, with gradient magnitude
/// `abs`.
#[derive(Debug, Clone, Copy)]
struct Move {
    idx: usize,
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
        let targets = session.targets().to_vec();
        let base = session.base();
        let candidates = Candidates::build(self.config.scope, base, &targets);
        if candidates.is_empty() {
            return Err(AttackError::NoCandidates);
        }
        // Edge state per candidate, read once from the clean graph. A pair
        // whose state on the overlay differs from the clean graph was
        // toggled, so it sits in the pool and is never eligible (a
        // reverted toggle restores the clean state); for every eligible
        // candidate the overlay and the clean graph therefore agree.
        let is_edge = edge_flags(&candidates, base);
        let rules = Rules {
            kind: self.config.op_kind,
            forbid_singletons: self.config.forbid_singletons,
        };
        let mut eligible = vec![false; candidates.len()];
        candidates.for_each(|idx, i, j| eligible[idx] = rules.feasible(base, is_edge[idx], i, j));
        // The step's one pass splits on the partition the assembly uses
        // and runs on one crew, spawned for the whole search. Chunk k's
        // row scratch and winner live in its cells.
        let split = session.partition(&candidates);
        let signs: Vec<&[bool]> = split.split(&is_edge).collect();
        let grads = session.grad_cells(&split);
        let bests = Cells::new(split.ranges().map(|_| None::<Move>));
        let shared = RwLock::new(ScanState {
            session,
            pool: IndexBitSet::new(candidates.len()),
            eligible,
            ng: None,
        });
        // The chunk's best sign-consistent move under the step's forward
        // pass, straight from the row kernel.
        let job = |k: usize| {
            let state = read(&shared);
            if let Some(ng) = &state.ng {
                let range = split.range(k);
                let mask = &state.eligible[range.clone()];
                let g = state.session.graph();
                let best = grads
                    .get(k)
                    .argmax(ng, g, &candidates, range, mask, Some(signs[k]));
                *bests.get(k) = best.map(|(idx, abs)| Move { idx, abs });
            }
        };
        let mut ops = Vec::new();
        let mut ops_per_budget = Vec::with_capacity(budget);
        let mut loss_per_budget = Vec::with_capacity(budget);
        let mut trajectory = Vec::with_capacity(budget + 1);

        let searched = with_crew(split.chunks(), job, |crew| {
            for _step in 0..budget {
                let loss_before = {
                    let mut state = write(&shared);
                    let ng = state.session.node_grads()?;
                    let loss = ng.loss;
                    state.ng = Some(ng);
                    loss
                };
                trajectory.push(loss_before);
                crew.run();

                // Chunk winners meet the scan's *total* order, so the
                // winner does not depend on the split.
                let best = bests.fold(None, |best, c| better(best, *c));
                let Some(Move { idx, .. }) = best else {
                    break; // saturated: no feasible move improves the objective
                };
                let mut state = write(&shared);
                let (i, j) = candidates.pair(idx);
                let op = state
                    .session
                    .toggle(i, j)
                    .ok_or(AttackError::InvalidCandidatePair(i, j))?;
                let loss = state.session.loss()?;
                // The gradient is a linearisation; a discrete ±1 flip can
                // overshoot once the objective is nearly minimised. Revert
                // and stop — the attack has saturated (paper: "we stop
                // attacking until the changes of AScore saturated").
                if loss > loss_before + 1e-12 {
                    state
                        .session
                        .toggle(i, j)
                        .ok_or(AttackError::InvalidCandidatePair(i, j))?;
                    break;
                }
                state.accept(idx, (i, j), &candidates, base, rules);
                ops.push(op);
                ops_per_budget.push(ops.clone());
                loss_per_budget.push(loss);
            }
            Ok::<(), AttackError>(())
        });
        searched?;
        let state = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
        state.session.close_grad_cells(grads);
        if let Some(&last) = loss_per_budget.last() {
            trajectory.push(last);
        }
        Ok(AttackOutcome {
            name: self.name().to_string(),
            ops_per_budget,
            surrogate_loss_per_budget: loss_per_budget,
            loss_trajectory: trajectory,
        })
    }
}

/// The configured feasibility rules of a move.
#[derive(Debug, Clone, Copy)]
struct Rules {
    kind: EdgeOpKind,
    forbid_singletons: bool,
}

impl Rules {
    /// Whether flipping `{i, j}`, an edge of `g` when `is_edge`, is a
    /// feasible move on `g`, the pool aside: the op kind allows it, and
    /// a deletion leaves neither endpoint a singleton.
    fn feasible<V: GraphView + ?Sized>(self, g: &V, is_edge: bool, i: NodeId, j: NodeId) -> bool {
        self.kind.allows(is_edge)
            && !(is_edge && self.forbid_singletons && !g.deletion_keeps_no_singletons(i, j))
    }
}

/// What the crew threads of a search read in a pass: the session (for
/// the graph), the eligibility mask and the step's forward pass,
/// written by the calling thread only between passes; and the
/// never-revisit pool, which only the calling thread reads.
struct ScanState<'s, 'g> {
    session: &'s mut AttackSession<'g>,
    pool: IndexBitSet,
    /// The feasible moves on the current graph: the assembly's mask.
    eligible: Vec<bool>,
    ng: Option<NodeGrads>,
}

impl ScanState<'_, '_> {
    /// Records the accepted flip of candidate `idx`, the pair `{u, v}`:
    /// it joins the pool and leaves the mask, and each clean-graph edge
    /// at `u` or `v` (on `base`) is re-marked against the graph, since
    /// its deletion's singleton check reads the degrees that changed.
    fn accept(
        &mut self,
        idx: usize,
        (u, v): (NodeId, NodeId),
        candidates: &Candidates,
        base: &CsrGraph,
        rules: Rules,
    ) {
        self.pool.insert(idx);
        self.eligible[idx] = false;
        let g = self.session.graph();
        for x in [u, v] {
            for &w in base.neighbors_sorted(x) {
                if let Some(c) = candidates.index(x, w) {
                    self.eligible[c] = !self.pool.contains(c) && rules.feasible(g, true, x, w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{CandidateScope, EdgeOpKind};
    use ba_graph::{generators, Graph, NodeId};
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
