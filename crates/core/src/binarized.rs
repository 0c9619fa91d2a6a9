//! BinarizedAttack (paper Sec. V-B, Alg. 1) — the proposed method.
//!
//! Every candidate pair `{i,j}` carries a continuous soft decision
//! variable `Ż ∈ [0,1]` and a discrete dummy `Z = −binarized(2Ż − 1)`;
//! `Z = −1` means "flip this entry of A₀". The poisoned adjacency is
//! `A = (A₀ − ½) ⊙ Z + ½` (Eq. (6)), i.e. entries with `Ż > ½` are
//! flipped. Each iteration:
//!
//! * **forward** — evaluate the surrogate objective on the *discrete*
//!   poisoned graph (this is the paper's key difference from ContinuousA:
//!   the objective always sees a realisable graph);
//! * **backward** — compute `dL/dŻ = G_ij·(1 − 2A₀_ij)` through the
//!   straight-through estimator (`∂binarized/∂x :≈ 1`, so
//!   `∂Z/∂Ż = −2`, and `∂A/∂Z = A₀ − ½`), add the LASSO subgradient `λ`,
//!   and take a projected gradient step on `Ż` (Eq. (8)).
//!
//! After sweeping the penalty grid `Λ`, the per-budget solution is
//! extracted by ranking candidates by `Ż` and flipping the top-`b` valid
//! pairs, keeping the best λ for each budget (Alg. 1, lines 16–19).
//!
//! Cost layout: everything fixed for a whole attack stays out of the
//! loops. `A₀` per candidate is read from the clean graph once, so an
//! iteration is one assembly, which also applies the straight-through
//! sign and returns max|G|, plus one slice pass (the PGD step fused with
//! the re-binarise scan). It decodes only the pairs whose flip state
//! changed. The assembly and the slice pass split on one partition of
//! the candidates and run on one crew of threads, spawned once per λ
//! (`split.rs`): chunk k's `Ż`, flip set and changed list live with the
//! thread that runs chunk k, which steps on the gradients it assembled.
//! An iteration whose gradients the assembly LRU holds skips the
//! assembly pass. The step has no branch per entry, and keeps the flip
//! set as one bit per candidate: the changed indices are the set bits of
//! each 64-entry word XOR its previous value, and come back chunk by
//! chunk, in ascending order. Extraction walks each `Ż` snapshot once:
//! the walk's first `b` accepted flips are budget `b`'s solution, so one
//! walk serves every budget (`extract_budgets`). It ranks the snapshot
//! lazily, a block at a time, as far as the walk reads, since the walk
//! reads a few dozen of tens of thousands of positive scores.
//!
//! Implementation notes vs the paper: gradients are normalised by their
//! max-abs before the step (the paper does not specify a step-size
//! schedule), and λ is therefore expressed in normalised-gradient units.
//! The `ablation` bench quantifies both choices.

use crate::attack::{AttackConfig, AttackError, AttackOutcome, StructuralAttack};
use crate::grad::NodeGrads;
use crate::pair::{edge_flags, static_mask, Candidates};
use crate::session::AttackSession;
use crate::split::{read, with_crew, write, Cells};
use ba_graph::{EdgeOp, GraphView};
use std::sync::{PoisonError, RwLock};

/// The BinarizedAttack optimiser.
#[derive(Debug, Clone)]
pub struct BinarizedAttack {
    config: AttackConfig,
    /// LASSO penalty grid `Λ` (normalised-gradient units).
    pub lambdas: Vec<f64>,
    /// PGD iterations `T` per λ.
    pub iterations: usize,
    /// Learning rate `η` (step size after gradient normalisation).
    pub learning_rate: f64,
}

impl BinarizedAttack {
    /// Creates the attack with default hyper-parameters
    /// (`Λ = {0.002, 0.02}`, `T = 300`, `η = 0.05`). The small-λ/long-T
    /// regime matters: large penalties cap how many soft decisions can
    /// accumulate, which is exactly where GradMaxSearch would otherwise
    /// overtake at big budgets (see the `ablation` bench).
    pub fn new(config: AttackConfig) -> Self {
        Self {
            config,
            lambdas: vec![0.002, 0.02],
            iterations: 300,
            learning_rate: 0.05,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Builder-style override of the λ grid. An empty grid is rejected
    /// when the attack runs, with [`AttackError::EmptyLambdaGrid`].
    pub fn with_lambdas(mut self, lambdas: Vec<f64>) -> Self {
        self.lambdas = lambdas;
        self
    }

    /// Builder-style override of the iteration count.
    pub fn with_iterations(mut self, iters: usize) -> Self {
        self.iterations = iters;
        self
    }

    /// Builder-style override of the learning rate.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Runs the PGD loop for one λ, returning `Ż` snapshots (periodic +
    /// final — Alg. 1 extracts the best discrete solution over the whole
    /// sweep, and intermediate iterates often dominate for small budgets)
    /// and the loss trajectory. `is_edge[idx]` is `A₀` at candidate
    /// `idx`, fixed for the whole attack because the clean graph is.
    fn optimise_one_lambda(
        &self,
        session: &mut AttackSession<'_>,
        candidates: &Candidates,
        mask: &[bool],
        is_edge: &[bool],
        lambda: f64,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>), AttackError> {
        session.reset();
        // The assembly and the PGD step split on one partition and run on
        // one crew, spawned for this λ's loop. Chunk k's `Ż`, flip set and
        // changed list live in its cell, beside its share of the backward
        // pass; the gradient slot's chunk k is moved there for each
        // iteration's passes.
        let split = session.partition(candidates);
        let masks: Vec<&[bool]> = split.split(mask).collect();
        let signs: Vec<&[bool]> = split.split(is_edge).collect();
        let grads = session.grad_cells(&split);
        let cells = Cells::new(split.ranges().map(|range| StepChunk {
            zdot: vec![0.0; range.len()],
            flipped: vec![0; range.len().div_ceil(64)],
            // Reserved for the whole chunk, so that no worker allocates
            // (pages are touched only as entries are written).
            changed: Vec::with_capacity(range.len()),
        }));
        let shared = RwLock::new(StepState {
            session,
            phase: Phase::Step {
                scale: 0.0,
                shrink: 0.0,
            },
        });
        let job = |k: usize| {
            let state = read(&shared);
            let range = split.range(k);
            match &state.phase {
                Phase::Assemble(ng) => grads.get(k).assemble(
                    ng,
                    state.session.graph(),
                    candidates,
                    range,
                    masks[k],
                    Some(signs[k]),
                ),
                Phase::Step { scale, shrink } => {
                    let run = &grads.get(k).grads;
                    cells
                        .get(k)
                        .step(range.start, masks[k], run, *scale, *shrink);
                }
            }
        };
        let mut trajectory = Vec::with_capacity(self.iterations);
        let mut snapshots: Vec<Vec<f64>> = Vec::new();
        let snap_every = (self.iterations / 4).max(10);
        let zdot = || {
            cells.fold(Vec::with_capacity(split.len()), |mut z, c| {
                z.extend_from_slice(&c.zdot);
                z
            })
        };

        let looped = with_crew(split.chunks(), job, |crew| {
            for t in 0..self.iterations {
                if t > 0 && t % snap_every == 0 {
                    snapshots.push(zdot());
                }
                // Forward: objective and node grads on the *discrete*
                // graph (features are maintained incrementally by the
                // session). Then the lookup half of the backward pass.
                let (mut slot, fresh) = {
                    let mut state = write(&shared);
                    let ng = state.session.node_grads()?;
                    trajectory.push(ng.loss);
                    let (slot, fresh) = state.session.lend_grads(&masks, true, &split);
                    if fresh {
                        state.phase = Phase::Assemble(ng);
                    }
                    (slot, fresh)
                };
                grads.swap(&mut slot);
                // Backward: sparse assembly of G_ij per candidate with the
                // straight-through sign `1 − 2A₀_ij` applied, and max|G|
                // for the normalised-step scale, unless the slot holds
                // them already. Masked-off grads are 0.0.
                if fresh {
                    crew.run();
                    slot.max_abs = grads.max_abs();
                }
                let max_abs = slot.max_abs;
                if max_abs != 0.0 {
                    // PGD step with the LASSO subgradient (Ż ≥ 0 always,
                    // so sign(Ż) = +1) and projection onto [0,1], fused
                    // with the re-binarise scan. Each chunk steps on the
                    // run of gradients its own thread assembled.
                    write(&shared).phase = Phase::Step {
                        scale: self.learning_rate / max_abs,
                        shrink: self.learning_rate * lambda,
                    };
                    crew.run();
                }
                grads.swap(&mut slot);
                let mut state = write(&shared);
                state.session.return_grads(slot);
                if max_abs == 0.0 {
                    break; // zero gradient everywhere: nothing to optimise
                }
                // Toggle the graph wherever the flip set changed, in
                // ascending candidate order (chunk lists in chunk order).
                for k in 0..split.chunks() {
                    for &idx in &cells.get(k).changed {
                        let (i, j) = candidates.pair(idx);
                        state
                            .session
                            .toggle(i, j)
                            .ok_or(AttackError::InvalidCandidatePair(i, j))?;
                    }
                }
            }
            Ok::<(), AttackError>(())
        });
        looped?;
        snapshots.push(zdot());
        let state = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
        state.session.close_grad_cells(grads);
        Ok((snapshots, trajectory))
    }
}

/// What the crew threads of one λ's loop read in a pass: the session
/// (for the graph), written by the calling thread only between passes,
/// and the pass to run.
struct StepState<'s, 'g> {
    session: &'s mut AttackSession<'g>,
    phase: Phase,
}

/// The two passes of a PGD iteration.
enum Phase {
    /// Assemble the signed gradients for this forward pass into each
    /// chunk's run.
    Assemble(NodeGrads),
    /// Step `Ż` on them.
    Step { scale: f64, shrink: f64 },
}

/// One chunk's optimiser state across a λ's loop.
struct StepChunk {
    /// `Ż` over the chunk.
    zdot: Vec<f64>,
    /// Current flip set (`Ż > ½`) over the chunk: entry `k` is bit
    /// `k % 64` of word `k / 64`.
    flipped: Vec<u64>,
    /// Indices whose flip state the last step changed, ascending.
    changed: Vec<usize>,
}

impl StepChunk {
    /// One PGD step over the chunk, which starts at candidate `lo`, on
    /// the chunk's run of the signed gradients: masked-off entries stay
    /// at `Ż = 0`, so they never enter the flip set. Records every index
    /// whose flip state changed.
    ///
    /// Branch-free per entry: every entry's step is computed, and the
    /// mask selects the stepped or the old `Ż` (`f64::clamp`'s result,
    /// NaN included). Each 64 entries' flip bits form one word, which
    /// equals the bits of `Ż > ½` before the step. A word is rebuilt
    /// only when some entry crossed ½ (0.3% of the word visits on the
    /// `attack` benchmark's fig4 panel), and the changed indices come out
    /// of `word ^ was` in ascending order.
    fn step(&mut self, lo: usize, mask: &[bool], grads: &[f64], scale: f64, shrink: f64) {
        self.changed.clear();
        let entries = self.zdot.chunks_mut(64).zip(mask.chunks(64));
        let words = entries.zip(grads.chunks(64)).zip(self.flipped.iter_mut());
        for (w, (((zdot, mask), grads), was)) in words.enumerate() {
            let mut crossed = false;
            for (z, (&on, &gr)) in zdot.iter_mut().zip(mask.iter().zip(grads)) {
                let stepped = (*z - scale * gr - shrink).clamp(0.0, 1.0);
                let next = if on { stepped } else { *z };
                crossed |= (next > 0.5) != (*z > 0.5);
                *z = next;
            }
            if !crossed {
                continue;
            }
            let word = zdot
                .iter()
                .enumerate()
                .fold(0u64, |word, (bit, &z)| word | u64::from(z > 0.5) << bit);
            let mut changed = word ^ *was;
            *was = word;
            while changed != 0 {
                self.changed
                    .push(lo + 64 * w + changed.trailing_zeros() as usize);
                changed &= changed - 1;
            }
        }
    }
}

impl Default for BinarizedAttack {
    fn default() -> Self {
        Self::new(AttackConfig::default())
    }
}

/// Length of the first block [`Ranking`] sorts for a walk towards
/// `budget` accepted flips: a walk reads a few entries past the budget
/// (about 30 for 27 on fig4's quick panel), so most walks never sort a
/// second block.
fn first_block(budget: usize) -> usize {
    2 * budget + 16
}

/// The masked candidates with a positive score, in rank order: score
/// descending, ties by index (the order is total, so an unstable sort
/// is exact). Ranked
/// lazily: when the walk reaches the end of the sorted prefix, the next
/// block is selected from the rest (`select_nth_unstable_by`) and
/// sorted, and each block is twice the last. A walk that stops early
/// never sorts the tail, where a full sort of the ~33k positive scores
/// of a fig4 snapshot cost three quarters of an extraction.
struct Ranking<'s> {
    order: Vec<usize>,
    scores: &'s [f64],
    /// `order[..sorted]` is in rank order, and ranks above all the rest.
    sorted: usize,
    /// Entries already yielded.
    next: usize,
    /// Length of the next block to sort.
    block: usize,
}

impl<'s> Ranking<'s> {
    fn new(mask: &[bool], scores: &'s [f64], first_block: usize) -> Self {
        Self {
            order: (0..scores.len())
                .filter(|&i| mask[i] && scores[i] > 0.0)
                .collect(),
            scores,
            sorted: 0,
            next: 0,
            block: first_block.max(1),
        }
    }
}

impl Iterator for Ranking<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.sorted {
            let rest = self
                .order
                .get_mut(self.sorted..)
                .filter(|r| !r.is_empty())?;
            let scores = self.scores;
            let rank = |a: &usize, b: &usize| scores[*b].total_cmp(&scores[*a]).then(a.cmp(b));
            let block = self.block.min(rest.len());
            if block < rest.len() {
                rest.select_nth_unstable_by(block - 1, rank);
            }
            rest[..block].sort_unstable_by(rank);
            self.sorted += block;
            self.block *= 2;
        }
        let idx = self.order[self.next];
        self.next += 1;
        Some(idx)
    }
}

/// Extracts the best flips for every budget `1..=budget` from a soft
/// decision vector, applying dynamic validity (op kind via the static
/// mask, singleton protection against the *evolving* poisoned graph).
///
/// One ranking and one greedy walk serve every budget: whether a pair is
/// accepted depends only on the prefix already toggled, so budget `b`'s
/// ops are exactly the first `b` the walk accepts. The ranking is sorted
/// only as far as the walk reads it ([`Ranking`]). Entry `b − 1` holds
/// those ops and the surrogate loss after them; when the walk runs out
/// of positive scores early, the remaining budgets repeat its final
/// state.
pub(crate) fn extract_budgets(
    session: &mut AttackSession<'_>,
    candidates: &Candidates,
    mask: &[bool],
    scores: &[f64],
    budget: usize,
    forbid_singletons: bool,
) -> Result<Vec<(Vec<EdgeOp>, f64)>, AttackError> {
    let mut ranked = Ranking::new(mask, scores, first_block(budget));
    session.reset();
    let mut ops = Vec::with_capacity(budget);
    let mut per_budget = Vec::with_capacity(budget);
    while ops.len() < budget {
        let Some(idx) = ranked.next() else { break };
        let (i, j) = candidates.pair(idx);
        let g = session.graph();
        if g.has_edge(i, j) && forbid_singletons && !g.deletion_keeps_no_singletons(i, j) {
            continue;
        }
        let op = session
            .toggle(i, j)
            .ok_or(AttackError::InvalidCandidatePair(i, j))?;
        ops.push(op);
        per_budget.push((ops.clone(), session.loss()?));
    }
    if per_budget.len() < budget {
        let last = match per_budget.last() {
            Some(last) => last.clone(),
            None => (Vec::new(), session.loss()?),
        };
        per_budget.resize(budget, last);
    }
    Ok(per_budget)
}

impl StructuralAttack for BinarizedAttack {
    fn name(&self) -> &'static str {
        "binarizedattack"
    }

    fn attack_with_session(
        &self,
        session: &mut AttackSession<'_>,
        budget: usize,
    ) -> Result<AttackOutcome, AttackError> {
        if self.lambdas.is_empty() {
            return Err(AttackError::EmptyLambdaGrid);
        }
        session.reset();
        let base = session.base();
        let targets = session.targets().to_vec();
        let candidates = Candidates::build(self.config.scope, base, &targets);
        if candidates.is_empty() {
            return Err(AttackError::NoCandidates);
        }
        let mask = static_mask(
            &candidates,
            base,
            self.config.op_kind,
            self.config.forbid_singletons,
        );
        // A₀ per candidate, for the straight-through sign: the clean
        // graph never changes, so one lookup pass serves every iteration.
        let is_edge = edge_flags(&candidates, base);

        // Optimise per λ, extracting every budget from each Ż snapshot
        // of the sweep. The session is reused across λs and extractions:
        // resetting the overlay is O(edits), the substrate is never
        // rebuilt.
        let mut extracted: Vec<Vec<(Vec<EdgeOp>, f64)>> = Vec::new();
        let mut trajectory = Vec::new();
        for &lambda in &self.lambdas {
            let (snapshots, traj) =
                self.optimise_one_lambda(session, &candidates, &mask, &is_edge, lambda)?;
            if traj.len() > trajectory.len() {
                trajectory = traj; // keep the longest trace for ablations
            }
            for zdot in &snapshots {
                extracted.push(extract_budgets(
                    session,
                    &candidates,
                    &mask,
                    zdot,
                    budget,
                    self.config.forbid_singletons,
                )?);
            }
        }

        // Per-budget selection: best λ wins (Alg. 1 lines 16–19). The
        // budget constraint is `≤ b`, not `= b`, so if the top-b flips of
        // every λ are worse than the best smaller solution we keep the
        // smaller one — this makes the surrogate loss monotone in budget
        // (forcing weak extra flips can otherwise *hurt*).
        let mut ops_per_budget: Vec<Vec<EdgeOp>> = Vec::with_capacity(budget);
        let mut loss_per_budget: Vec<f64> = Vec::with_capacity(budget);
        for b in 1..=budget {
            let mut best: Option<&(Vec<EdgeOp>, f64)> = None;
            for per_budget in &extracted {
                let candidate = &per_budget[b - 1];
                if best.is_none_or(|(_, bl)| candidate.1 < *bl) {
                    best = Some(candidate);
                }
            }
            let (mut ops, mut loss) = best.cloned().ok_or(AttackError::EmptyLambdaGrid)?;
            if let (Some(prev_loss), Some(prev_ops)) =
                (loss_per_budget.last().copied(), ops_per_budget.last())
            {
                if prev_loss < loss {
                    ops = prev_ops.clone();
                    loss = prev_loss;
                }
            }
            ops_per_budget.push(ops);
            loss_per_budget.push(loss);
        }
        Ok(AttackOutcome {
            name: self.name().to_string(),
            ops_per_budget,
            surrogate_loss_per_budget: loss_per_budget,
            loss_trajectory: trajectory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{CandidateScope, EdgeOpKind};
    use ba_graph::{generators, CsrGraph, Graph, NodeId};
    use ba_oddball::OddBall;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn anomalous_graph(seed: u64) -> (Graph, Vec<NodeId>) {
        let mut g = generators::erdos_renyi(150, 0.04, seed);
        generators::attach_isolated(&mut g, seed + 1);
        let members: Vec<NodeId> = (0..10).collect();
        generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
        let model = OddBall::default().fit(&g).unwrap();
        let targets: Vec<NodeId> = model.top_k(3).into_iter().map(|(i, _)| i).collect();
        (g, targets)
    }

    fn fast_attack() -> BinarizedAttack {
        BinarizedAttack::default()
            .with_iterations(60)
            .with_lambdas(vec![0.01, 0.05])
    }

    #[test]
    fn reduces_true_anomaly_score() {
        let (g, targets) = anomalous_graph(31);
        let outcome = fast_attack().attack(&g, &targets, 15).unwrap();
        let curve = outcome
            .ascore_curve(&g, &targets, &OddBall::default())
            .unwrap();
        let tau = AttackOutcome::tau_as(&curve, 15);
        assert!(tau > 0.25, "τ_as = {tau}; curve = {curve:?}");
    }

    #[test]
    fn budget_respected_exactly() {
        let (g, targets) = anomalous_graph(33);
        let outcome = fast_attack().attack(&g, &targets, 10).unwrap();
        assert_eq!(outcome.max_budget(), 10);
        for (b, ops) in outcome.ops_per_budget.iter().enumerate() {
            assert!(ops.len() <= b + 1, "budget {b} exceeded: {} ops", ops.len());
            // Ops must be unique pairs.
            let mut seen = std::collections::HashSet::new();
            for op in ops {
                assert!(seen.insert((op.u, op.v)));
            }
        }
    }

    #[test]
    fn loss_decreases_with_budget_on_average() {
        let (g, targets) = anomalous_graph(35);
        let outcome = fast_attack().attack(&g, &targets, 12).unwrap();
        let losses = &outcome.surrogate_loss_per_budget;
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "losses: {losses:?}"
        );
    }

    #[test]
    fn optimiser_trajectory_recorded_and_improving() {
        let (g, targets) = anomalous_graph(37);
        let outcome = fast_attack().attack(&g, &targets, 5).unwrap();
        assert!(outcome.loss_trajectory.len() > 10);
        let first = outcome.loss_trajectory[0];
        let min = outcome
            .loss_trajectory
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            min < first,
            "trajectory never improved: {first} -> min {min}"
        );
    }

    #[test]
    fn add_only_mode_only_adds() {
        let (g, targets) = anomalous_graph(39);
        let cfg = AttackConfig {
            op_kind: EdgeOpKind::AddOnly,
            ..AttackConfig::default()
        };
        let outcome = BinarizedAttack::new(cfg)
            .with_iterations(40)
            .with_lambdas(vec![0.02])
            .attack(&g, &targets, 8)
            .unwrap();
        for op in outcome.ops(8) {
            assert!(op.added);
        }
    }

    #[test]
    fn delete_only_mode_only_deletes() {
        let (g, targets) = anomalous_graph(41);
        let cfg = AttackConfig {
            op_kind: EdgeOpKind::DeleteOnly,
            ..AttackConfig::default()
        };
        let outcome = BinarizedAttack::new(cfg)
            .with_iterations(40)
            .with_lambdas(vec![0.02])
            .attack(&g, &targets, 8)
            .unwrap();
        for op in outcome.ops(8) {
            assert!(!op.added);
        }
        // Delete-only on a planted clique should still help.
        let curve = outcome
            .ascore_curve(&g, &targets, &OddBall::default())
            .unwrap();
        assert!(AttackOutcome::tau_as(&curve, 8) > 0.1, "curve = {curve:?}");
    }

    #[test]
    fn scoped_run_matches_interface() {
        let (g, targets) = anomalous_graph(43);
        let cfg = AttackConfig {
            scope: CandidateScope::TargetNeighborhood,
            ..AttackConfig::default()
        };
        let outcome = BinarizedAttack::new(cfg)
            .with_iterations(40)
            .with_lambdas(vec![0.02])
            .attack(&g, &targets, 10)
            .unwrap();
        let curve = outcome
            .ascore_curve(&g, &targets, &OddBall::default())
            .unwrap();
        assert!(AttackOutcome::tau_as(&curve, 10) > 0.1, "curve = {curve:?}");
    }

    #[test]
    fn deterministic_given_seed_and_config() {
        let (g, targets) = anomalous_graph(45);
        let a = fast_attack().attack(&g, &targets, 6).unwrap();
        let b = fast_attack().attack(&g, &targets, 6).unwrap();
        assert_eq!(a.ops_per_budget, b.ops_per_budget);
    }

    #[test]
    fn no_singletons_created() {
        let (g, targets) = anomalous_graph(47);
        let outcome = fast_attack().attack(&g, &targets, 20).unwrap();
        let poisoned = outcome.poisoned_graph(&g, 20);
        for u in 0..poisoned.num_nodes() as NodeId {
            if g.degree(u) > 0 {
                assert!(poisoned.degree(u) > 0, "node {u} isolated");
            }
        }
    }

    /// The per-budget walk `extract_budgets` replaced: its own ranking,
    /// a full sort, and greedy walk for a single budget `b`. Also returns
    /// how many ranked entries the walk read.
    fn reference_walk(
        session: &mut AttackSession<'_>,
        candidates: &Candidates,
        mask: &[bool],
        scores: &[f64],
        b: usize,
        forbid_singletons: bool,
    ) -> (Vec<EdgeOp>, f64, usize) {
        let order = full_sort(mask, scores);
        session.reset();
        let mut ops = Vec::with_capacity(b);
        let mut read = 0;
        for idx in order {
            if ops.len() >= b {
                break;
            }
            read += 1;
            let (i, j) = candidates.pair(idx);
            let g = session.graph();
            if g.has_edge(i, j) && forbid_singletons && !g.deletion_keeps_no_singletons(i, j) {
                continue;
            }
            ops.push(session.toggle(i, j).unwrap());
        }
        (ops, session.loss().unwrap(), read)
    }

    /// The masked positive scores' indices in rank order, by a full
    /// stable sort.
    fn full_sort(mask: &[bool], scores: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len())
            .filter(|&i| mask[i] && scores[i] > 0.0)
            .collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order
    }

    /// Quantised random scores: ties, zeros and negatives.
    fn tied_scores(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -(rng.gen_range(1..4) as f64) * 0.25,
                2 => rng.gen_range(1..6) as f64 * 0.125,
                _ => rng.gen::<f64>(),
            })
            .collect()
    }

    #[test]
    fn lazy_ranking_matches_a_full_sort_at_any_block_size() {
        let mut rng = StdRng::seed_from_u64(71);
        for trial in 0..40 {
            let len = [0, 1, 2, 7, 64, 65, 300, 1000][trial % 8];
            let scores = tied_scores(&mut rng, len);
            let mask: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.8)).collect();
            let want = full_sort(&mask, &scores);
            for first in [
                1,
                2,
                3,
                5,
                16,
                first_block(trial),
                want.len(),
                want.len() + 3,
            ] {
                let got: Vec<usize> = Ranking::new(&mask, &scores, first).collect();
                assert_eq!(
                    got, want,
                    "trial {trial}, {len} scores, first block {first}"
                );
            }
        }
    }

    #[test]
    fn lazy_extraction_matches_a_full_sort_walk_past_its_first_block() {
        // A tree: deleting a leaf's edge would isolate the leaf. The mask
        // allows those deletions (it is the op-kind mask without the
        // static singleton rule), so with singleton protection on, a walk
        // that ranks leaf edges first skips dozens of them, past the first
        // sorted block, before it accepts a flip.
        let g = generators::barabasi_albert(90, 1, 73);
        let targets: Vec<NodeId> = vec![0, 1, 2];
        let csr = CsrGraph::from(&g);
        let mut session = AttackSession::new(&csr, &targets).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &csr, &targets);
        let leaf_edge: Vec<bool> = (0..candidates.len())
            .map(|idx| {
                let (i, j) = candidates.pair(idx);
                csr.has_edge(i, j) && !csr.deletion_keeps_no_singletons(i, j)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(74);
        let mut past_first_block = 0;
        for trial in 0..12 {
            let forbid_singletons = trial % 4 != 3;
            let mask: Vec<bool> = (0..candidates.len()).map(|_| rng.gen_bool(0.9)).collect();
            let mut scores = tied_scores(&mut rng, candidates.len());
            for (score, &leaf) in scores.iter_mut().zip(&leaf_edge) {
                if leaf {
                    *score = 2.0 + rng.gen_range(0..3) as f64;
                }
            }
            // Every other trial keeps only a few positive scores, fewer
            // than the budget.
            if trial % 2 == 1 {
                for score in &mut scores {
                    if rng.gen_bool(0.995) {
                        *score = -score.abs();
                    }
                }
            }
            let positive = full_sort(&mask, &scores).len();
            for budget in [1, 4, 25] {
                let walked = extract_budgets(
                    &mut session,
                    &candidates,
                    &mask,
                    &scores,
                    budget,
                    forbid_singletons,
                )
                .unwrap();
                assert_eq!(walked.len(), budget);
                for (b, (ops, loss)) in walked.iter().enumerate() {
                    let what = format!("trial {trial}, budget {budget}, b {}", b + 1);
                    let (want_ops, want_loss, read) = reference_walk(
                        &mut session,
                        &candidates,
                        &mask,
                        &scores,
                        b + 1,
                        forbid_singletons,
                    );
                    assert_eq!(ops, &want_ops, "{what}");
                    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}");
                    if read > first_block(budget) && b + 1 == budget && ops.len() == budget {
                        past_first_block += 1;
                    }
                }
                if budget > positive {
                    assert!(walked[budget - 1].0.len() < budget, "{}", trial);
                }
            }
        }
        assert!(
            past_first_block >= 4,
            "{past_first_block} walks left the first block"
        );
    }

    #[test]
    fn one_walk_matches_per_budget_walks() {
        // Sparse, so deletions quickly reach degree-1 endpoints and the
        // dynamic singleton rule rejects pairs mid-walk.
        let mut g = generators::erdos_renyi(60, 0.05, 61);
        generators::attach_isolated(&mut g, 62);
        let targets: Vec<NodeId> = vec![0, 1, 2];
        let csr = CsrGraph::from(&g);
        let mut session = AttackSession::new(&csr, &targets).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &csr, &targets);
        let is_edge = edge_flags(&candidates, &csr);
        let mut rng = StdRng::seed_from_u64(63);
        for trial in 0..24 {
            let forbid_singletons = trial % 2 == 0;
            let static_ok = static_mask(&candidates, &csr, EdgeOpKind::Both, forbid_singletons);
            let mask: Vec<bool> = static_ok
                .iter()
                .map(|&ok| ok && rng.gen_bool(0.8))
                .collect();
            // Quantised scores give ties, zeros and negatives. Every
            // third trial keeps only a handful positive, so the walk
            // runs dry before the budget does; every other third ranks
            // edges first, so the walk is mostly deletions.
            let scores: Vec<f64> = (0..candidates.len())
                .map(|idx| match trial % 3 {
                    0 if !rng.gen_bool(0.004) => -rng.gen_range(0..3) as f64,
                    1 if is_edge[idx] => 1.0 + (rng.gen_range(0..4) as f64) * 0.25,
                    _ if rng.gen_bool(0.5) => (rng.gen_range(0..8) as f64 - 2.0) * 0.125,
                    _ => rng.gen::<f64>() - 0.25,
                })
                .collect();
            let budget = 30;
            let walked = extract_budgets(
                &mut session,
                &candidates,
                &mask,
                &scores,
                budget,
                forbid_singletons,
            )
            .unwrap();
            assert_eq!(walked.len(), budget);
            for (b, (ops, loss)) in walked.iter().enumerate() {
                let (want_ops, want_loss, _) = reference_walk(
                    &mut session,
                    &candidates,
                    &mask,
                    &scores,
                    b + 1,
                    forbid_singletons,
                );
                assert_eq!(ops, &want_ops, "trial {trial}, budget {}", b + 1);
                assert_eq!(
                    loss.to_bits(),
                    want_loss.to_bits(),
                    "trial {trial}, budget {}",
                    b + 1
                );
            }
            if trial % 3 == 0 {
                assert!(walked[budget - 1].0.len() < budget, "trial {trial}");
            }
        }
        let scores = vec![1.0; candidates.len()];
        let mask = vec![true; candidates.len()];
        let none = extract_budgets(&mut session, &candidates, &mask, &scores, 0, true).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn empty_lambda_grid_is_a_typed_error() {
        let (g, targets) = anomalous_graph(49);
        let built = BinarizedAttack::default().with_lambdas(vec![]);
        assert!(matches!(
            built.attack(&g, &targets, 3),
            Err(AttackError::EmptyLambdaGrid)
        ));
        let assigned = BinarizedAttack {
            lambdas: vec![],
            ..BinarizedAttack::default()
        };
        assert!(matches!(
            assigned.attack(&g, &targets, 3),
            Err(AttackError::EmptyLambdaGrid)
        ));
    }
}
