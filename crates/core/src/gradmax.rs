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
//! the argmax is one full select scan with a total order (magnitude,
//! then index), so the winner does not depend on the order candidates
//! are visited in. A step makes two passes over the partition the
//! gradient assembly uses, on one crew of threads spawned for the whole
//! search (`split.rs`): the eligibility mark, then the assembly (skipped
//! when the assembly LRU holds the step's gradients) fused with the
//! argmax. Chunk winners are combined with the same total order.

use crate::attack::{AttackConfig, AttackError, AttackOutcome, StructuralAttack};
use crate::grad::NodeGrads;
use crate::pair::{edge_flags, Candidates, IndexBitSet};
use crate::session::AttackSession;
use crate::split::{read, with_crew, write, Cells};
use ba_graph::GraphView;
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

/// The best sign-consistent move in `grads`, the signed gradients `s` of
/// the candidates from `lo` on: the largest `|s|` among `s < 0`, the
/// lowest index among equals, as [`better`] orders them. Masked-off
/// entries are `0.0`, so they never qualify, and the scan needs no mask.
/// It keeps a running `(|s|, index)` and takes a candidate only on a
/// strict `>`, walking indices in ascending order: a select with no
/// branch on the sign, and no pair decoded but the winner's.
fn select(grads: &[f64], lo: usize) -> Option<Move> {
    let (mut abs, mut at) = (0.0f64, None);
    for (k, &s) in grads.iter().enumerate() {
        if -s > abs {
            abs = -s;
            at = Some(k);
        }
    }
    at.map(|k| Move { idx: lo + k, abs })
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
        let candidates = Candidates::build(self.config.scope, session.base(), &targets);
        if candidates.is_empty() {
            return Err(AttackError::NoCandidates);
        }
        // Edge state per candidate, read once from the clean graph. A pair
        // whose state on the overlay differs from the clean graph was
        // toggled, so it sits in the pool and is never eligible (a
        // reverted toggle restores the clean state); for every eligible
        // candidate the overlay and the clean graph therefore agree.
        let is_edge_cache = edge_flags(&candidates, session.base());
        // Every pass splits on the partition the assembly uses and runs
        // on one crew, spawned for the whole search. Chunk k's
        // eligibility marks and winner live in its cell, beside its share
        // of the backward pass; the gradient slot's chunk k is moved
        // there for each step.
        let split = session.partition(&candidates);
        let signs: Vec<&[bool]> = split.split(&is_edge_cache).collect();
        let grads = session.grad_cells(&split);
        let cells = Cells::new(split.ranges().map(|range| ScanChunk {
            eligible: vec![false; range.len()],
            best: None,
        }));
        let shared = RwLock::new(ScanState {
            session,
            pool: IndexBitSet::new(candidates.len()),
            phase: Phase::Mark,
        });
        let kind = self.config.op_kind;
        let forbid_singletons = self.config.forbid_singletons;
        let job = |k: usize| {
            let state = read(&shared);
            let mut cell = cells.get(k);
            let range = split.range(k);
            let g = state.session.graph();
            match &state.phase {
                // The feasible moves: never-revisited pool, op kind, and
                // singleton protection against the evolving poisoned
                // graph.
                Phase::Mark => {
                    let lo = range.start;
                    candidates.for_each_range(lo, range.end, |idx, i, j| {
                        let is_edge = is_edge_cache[idx];
                        cell.eligible[idx - lo] = !state.pool.contains(idx)
                            && kind.allows(is_edge)
                            && !(is_edge
                                && forbid_singletons
                                && !g.deletion_keeps_no_singletons(i, j));
                    });
                }
                // Their straight-through gradients `s = G·(1 − 2A₀)`,
                // unless the slot holds them already, then the chunk's
                // best sign-consistent move. Both are chunk-local, so one
                // pass runs them back to back.
                Phase::Select(fresh) => {
                    let mut chunk = grads.get(k);
                    if let Some(ng) = fresh {
                        let sign = Some(signs[k]);
                        chunk.assemble(ng, g, &candidates, range.clone(), &cell.eligible, sign);
                    }
                    cell.best = select(&chunk.grads, range.start);
                }
            }
        };
        let mut ops = Vec::new();
        let mut ops_per_budget = Vec::with_capacity(budget);
        let mut loss_per_budget = Vec::with_capacity(budget);
        let mut trajectory = Vec::with_capacity(budget + 1);

        let searched = with_crew(split.chunks(), job, |crew| {
            for _step in 0..budget {
                let ng = {
                    let mut state = write(&shared);
                    state.phase = Phase::Mark;
                    state.session.node_grads()?
                };
                let loss_before = ng.loss;
                trajectory.push(loss_before);
                crew.run();

                // The eligibility marks are the assembly's mask, and the
                // LRU's key.
                let (mut slot, fresh) = {
                    let mut state = write(&shared);
                    let marks: Vec<_> = (0..split.chunks()).map(|k| cells.get(k)).collect();
                    let mask: Vec<&[bool]> = marks.iter().map(|c| c.eligible.as_slice()).collect();
                    let (slot, fresh) = state.session.lend_grads(&mask, true, &split);
                    drop(marks);
                    state.phase = Phase::Select(fresh.then_some(ng));
                    (slot, fresh)
                };
                grads.swap(&mut slot);
                crew.run();
                grads.swap(&mut slot);
                if fresh {
                    slot.max_abs = grads.max_abs();
                }
                let mut state = write(&shared);
                state.session.return_grads(slot);
                // Chunk winners meet the scan's *total* order, so the
                // winner does not depend on the split.
                let best = cells.fold(None, |best, c| better(best, c.best));
                let Some(Move { idx, .. }) = best else {
                    break; // saturated: no feasible move improves the objective
                };
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
                state.pool.insert(idx);
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

/// What the crew threads of a search read in a pass: the session (for
/// the graph) and the never-revisit pool, written by the calling thread
/// only between passes, and the pass to run.
struct ScanState<'s, 'g> {
    session: &'s mut AttackSession<'g>,
    pool: IndexBitSet,
    phase: Phase,
}

/// The two passes of a step.
enum Phase {
    /// Mark the feasible moves.
    Mark,
    /// Assemble for the forward pass it carries (an LRU miss), then
    /// select.
    Select(Option<NodeGrads>),
}

/// One chunk's scan state across a search.
struct ScanChunk {
    /// The feasible moves over the chunk: the assembly's mask.
    eligible: Vec<bool>,
    /// The chunk's best move in the last select.
    best: Option<Move>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{CandidateScope, EdgeOpKind};
    use ba_graph::{generators, Graph, NodeId};
    use ba_oddball::OddBall;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
    fn select_matches_the_comparator_scan() {
        // Quantised values give ties, exact zeros (masked-off entries),
        // both signs, `-0.0` and NaN; the scan must pick what a
        // `better` call per sign-consistent candidate picks.
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0usize, 1, 2, 7, 300] {
            for lo in [0usize, 1000] {
                let grads: Vec<f64> = (0..len)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => -0.0,
                        1 => f64::NAN,
                        v => (v as f64 - 5.0) * 0.25,
                    })
                    .collect();
                let mut want = None;
                for (k, &s) in grads.iter().enumerate() {
                    if s < 0.0 {
                        want = better(
                            want,
                            Some(Move {
                                idx: lo + k,
                                abs: -s,
                            }),
                        );
                    }
                }
                let got = select(&grads, lo);
                let key = |m: Option<Move>| m.map(|m| (m.idx, m.abs.to_bits()));
                assert_eq!(key(got), key(want), "len {len}, lo {lo}: {grads:?}");
            }
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
