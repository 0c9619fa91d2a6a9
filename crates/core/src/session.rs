//! The shared attack pipeline state.
//!
//! Every attack needs the same loop machinery: the clean graph, a
//! mutable working copy, incrementally-maintained egonet features, the
//! surrogate forward pass, and the pair-gradient backward pass.
//! [`AttackSession`] owns that state once — a [`DeltaOverlay`] over the
//! frozen [`CsrGraph`] substrate plus an [`IncrementalEgonet`] — so
//! `BinarizedAttack`, `GradMaxSearch`, and the non-gradient baselines
//! share one forward/score/flip implementation instead of each cloning
//! the graph and re-deriving features. Resetting to the clean graph
//! (done once per λ sweep and once per budget extraction) drops the
//! overlay's dirty rows and clones the cached base features back:
//! `O(edits + n)`, not the `O(n + m)` of re-deriving them.
//!
//! The backward pass is split in two, so that a search loop's crew
//! (`split.rs`) can fill or read it in place. The crate-private
//! `lend_grads` is the lookup: it lends out, by value, the output slot
//! for the current state, mask and signing, holding one buffer per chunk
//! of the attack's partition, and says whether the slot must be
//! assembled. BinarizedAttack's loop moves each chunk's buffer to the
//! crew thread that runs that chunk, which assembles into it (with the
//! straight-through sign fused in) or steps on what it holds, and moves
//! it back; then `return_grads` takes the slot back. No iteration copies
//! the gradients or keeps a second candidate-length buffer.
//! [`AttackSession::pair_gradients_into`] serves other callers: it
//! lends a slot the same way, assembles it with a one-pass crew on a
//! miss, copies it out unsigned and returns the slot. GradMaxSearch
//! lends no slot: its crew keeps only the row scratch, and each step's
//! assembly folds straight into the argmax, storing nothing.
//!
//! ## Search memoization
//!
//! The session carries a [`SearchMemo`]: a Zobrist state
//! hash ([`AttackSession::state_hash`] = edge-set hash ⊕ target-set
//! hash, maintained in O(1) per [`AttackSession::toggle`]) keying one
//! cache: an LRU of recent whole-assembly outputs, keyed by state, mask
//! and whether the output is signed, which absorbs the PGD tail where
//! the re-binarised graph cycles through a handful of states. It lends
//! its slots: a hit lends the resident slot, and a miss lends the slot
//! it installs (the eviction victim's buffers) to be assembled into;
//! neither copies the output. The LRU serves BinarizedAttack and
//! [`AttackSession::pair_gradients_into`] only. GradMaxSearch never
//! consults it: a greedy search flips a new pair at every step and never
//! revisits one, so none of its states repeat, and storing its
//! assemblies cost time for no hit.
//!
//! An assembly that misses the LRU is computed in full. The forward
//! pass and the surrogate loss are `O(n)` and always computed: caching
//! them saved well under 1% of a traced attack run, and a per-candidate
//! table stored about thirteen values for every one it answered. A
//! whole-run outcome LRU was hit 0 times in 119 probes over the whole
//! experiment suite, whose cells never repeat a search (DESIGN.md §9).
//!
//! The memo is *transparent*: every cached value was produced by the
//! exact code path that would otherwise run, so cached and uncached
//! sessions are bit-identical — pinned by the golden suite in
//! `tests/search_memo.rs`. It is off by default, as an LRU of capacity
//! 0 ([`AttackSession::with_memo`] raises the capacity).

use crate::attack::{validate_targets, AttackError};
use crate::grad::{argmax_chunk, assemble_chunk, node_grads, GradKernel, NodeGrads, RowScratch};
use crate::loss::surrogate_loss_from_features;
use crate::pair::Candidates;
use crate::split::{Cells, Partition};
use ba_graph::egonet::{EgonetFeatures, IncrementalEgonet};
use ba_graph::zobrist::splitmix64;
use ba_graph::{CsrGraph, DeltaOverlay, EdgeOp, GraphView, NodeId};
use std::ops::Range;

/// Seed for the target-set fold in [`target_set_hash`]. Fixed — part of
/// the determinism contract, like [`ba_graph::zobrist::EDGE_KEY_SEED`].
const TARGET_HASH_SEED: u64 = 0x51_7cc1_b727_2209;

/// Hash of a target list: a sequential SplitMix64 fold, so it is
/// sensitive to order and multiplicity — deliberately, because the
/// loss sums target residuals in list order and floating-point
/// addition is not commutative in the bits. Two sessions hash equal
/// only if their losses are guaranteed bit-equal.
pub fn target_set_hash(targets: &[NodeId]) -> u64 {
    let mut h = TARGET_HASH_SEED;
    for &t in targets {
        h = splitmix64(h ^ (t as u64 + 1));
    }
    h
}

/// Memory budget for the whole-assembly LRU; the slot count adapts to
/// the candidate-space size so big graphs don't blow up the session.
const GRADS_CACHE_BYTES: usize = 12 << 20;

/// Maximum whole-assembly LRU depth (small graphs would otherwise get
/// hundreds of slots out of the byte budget; past the PGD oscillation
/// period extra depth stops paying).
const GRADS_SLOTS_MAX: usize = 24;

/// Counters of the whole-assembly LRU behind the session's backward
/// pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LruStats {
    /// Lookups answered from the LRU.
    pub hits: u64,
    /// Lookups assembled in full.
    pub misses: u64,
    /// Assemblies installed (one per miss).
    pub stores: u64,
    /// Slots dropped to make room at capacity.
    pub evictions: u64,
    /// Slot cap for the candidate space last assembled (`0` before the
    /// first assembly).
    pub capacity: usize,
}

/// Counter snapshot of a session's [`SearchMemo`] (see
/// [`AttackSession::memo_stats`]); surfaced as `BENCH_search.json`
/// metrics so cache effectiveness is tracked per commit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoStats {
    /// Counters of the whole-assembly LRU; its `hits`/`misses` equal
    /// `grads_hits`/`grads_misses`.
    pub table: LruStats,
    /// Always `0`: surrogate losses are not cached. Kept for the
    /// benchmark's `core.memo.loss_hit_ratio` row.
    pub loss_hits: u64,
    /// Surrogate-loss evaluations ([`AttackSession::loss`]).
    pub loss_misses: u64,
    /// Always `0`: forward passes are not cached. Kept for the
    /// benchmark's `core.memo.ng_hit_ratio` row.
    pub ng_hits: u64,
    /// Forward passes ([`AttackSession::node_grads`]).
    pub ng_misses: u64,
    /// Whole-assembly short-circuits: a recent backward pass
    /// (BinarizedAttack's, or [`AttackSession::pair_gradients_into`])
    /// had the identical state, mask and signing, so its output was lent
    /// out unchanged.
    pub grads_hits: u64,
    /// Assemblies that missed the whole-assembly LRU and were computed
    /// in full.
    pub grads_misses: u64,
    /// Always `0`: whole-run outcomes are not cached. Kept for the
    /// benchmark's `core.memo.outcome_hits` row.
    pub outcome_hits: u64,
}

/// One whole-assembly output: the exact `(state, mask, signed)` query,
/// the vector it produced, one buffer per chunk of the partition it was
/// lent for, and that vector's max-abs over the mask.
#[derive(Debug, Clone, Default)]
pub(crate) struct GradsSlot {
    state: u64,
    mask: Vec<bool>,
    signed: bool,
    /// The output, chunk by chunk, in order.
    pub(crate) chunks: Vec<Vec<f64>>,
    /// Max-abs of the output over the mask.
    pub(crate) max_abs: f64,
}

impl GradsSlot {
    /// Whether the output buffers are cut along `split`.
    fn is_cut_along(&self, split: &Partition) -> bool {
        self.chunks.len() == split.chunks()
            && self
                .chunks
                .iter()
                .zip(split.ranges())
                .all(|(c, r)| c.len() == r.len())
    }

    /// Cuts the output buffers along `split`, for an assembly; free when
    /// they already are.
    fn cut_along(&mut self, split: &Partition) {
        self.chunks.resize_with(split.chunks(), Vec::new);
        for (chunk, range) in self.chunks.iter_mut().zip(split.ranges()) {
            chunk.resize(range.len(), 0.0);
        }
    }
}

/// One crew chunk's share of a search loop's backward pass: its row
/// scratch (the row buffer and the scatter's cursors) and, for a loop
/// that stores its gradients, its run of the gradient slot lent for the
/// iteration and the max-abs of its last assembly.
#[derive(Debug, Default)]
pub(crate) struct GradChunk {
    /// The chunk's run of the lent slot's output; empty in a loop that
    /// only takes the argmax.
    pub(crate) grads: Vec<f64>,
    row: RowScratch,
    max_abs: f64,
}

impl GradChunk {
    /// Assembles the candidates in `range` into the lent run, for the
    /// forward pass `ng` over `g`; `mask` and `sign` are that range's
    /// runs (see `grad::assemble_chunk`).
    pub(crate) fn assemble<V: GraphView + ?Sized>(
        &mut self,
        ng: &NodeGrads,
        g: &V,
        candidates: &Candidates,
        range: Range<usize>,
        mask: &[bool],
        sign: Option<&[bool]>,
    ) {
        self.max_abs = assemble_chunk(
            g,
            ng,
            candidates,
            range,
            mask,
            sign,
            &mut self.grads,
            &mut self.row,
        );
    }

    /// The best sign-consistent entry of the same assembly, with nothing
    /// stored: `(candidate index, −v)` for the first strict maximum of
    /// `−v` above `0.0` over the range (see `grad::argmax_chunk`).
    pub(crate) fn argmax<V: GraphView + ?Sized>(
        &mut self,
        ng: &NodeGrads,
        g: &V,
        candidates: &Candidates,
        range: Range<usize>,
        mask: &[bool],
        sign: Option<&[bool]>,
    ) -> Option<(usize, f64)> {
        argmax_chunk(g, ng, candidates, range, mask, sign, &mut self.row)
    }
}

impl Cells<GradChunk> {
    /// Exchanges `slot`'s chunk buffers with the cells' runs: once to
    /// lend the buffers to the crew for an iteration's passes, and once
    /// more to take them back. Moves, never copies.
    pub(crate) fn swap(&self, slot: &mut GradsSlot) {
        for (k, chunk) in slot.chunks.iter_mut().enumerate() {
            std::mem::swap(chunk, &mut self.get(k).grads);
        }
    }

    /// Max-abs of the last assembly: an exact max, folded in chunk order.
    pub(crate) fn max_abs(&self) -> f64 {
        self.fold(0.0, |max, chunk| max.max(chunk.max_abs))
    }
}

/// Whether `full` is the concatenation of `chunks`.
fn mask_eq(full: &[bool], chunks: &[&[bool]]) -> bool {
    let mut rest = full;
    for chunk in chunks {
        match rest.split_at_checked(chunk.len()) {
            Some((head, tail)) if head == *chunk => rest = tail,
            _ => return false,
        }
    }
    rest.is_empty()
}

/// Session-attached memoization state: the whole-assembly LRU, plus
/// call counters. The LRU has capacity 0 until
/// [`AttackSession::with_memo`] turns the memo on.
///
/// All reuse is keyed by the full session state hash (edge set and
/// target set), so one memo safely spans budget steps, λ sweeps, and
/// [`AttackSession::retarget`] within a session — entries from other
/// states or target sets never match keys.
#[derive(Debug, Clone)]
pub struct SearchMemo {
    /// Whether memoization is on; off, the LRU has capacity 0.
    on: bool,
    forward_passes: u64,
    loss_evals: u64,
    /// Whole-assembly LRU, most recent first. A hit needs the same
    /// state hash, the same signing and a verbatim-equal mask. The state
    /// is a 64-bit Zobrist hash, so two distinct states alias with
    /// probability about 2⁻⁶⁴ per pair of states (DESIGN.md §9).
    grads_slots: Vec<GradsSlot>,
    grads_hits: u64,
    grads_misses: u64,
    grads_evictions: u64,
    grads_capacity: usize,
}

impl SearchMemo {
    fn new(on: bool) -> Self {
        Self {
            on,
            forward_passes: 0,
            loss_evals: 0,
            grads_slots: Vec::new(),
            grads_hits: 0,
            grads_misses: 0,
            grads_evictions: 0,
            grads_capacity: 0,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            table: LruStats {
                hits: self.grads_hits,
                misses: self.grads_misses,
                stores: self.grads_misses,
                evictions: self.grads_evictions,
                capacity: self.grads_capacity,
            },
            loss_hits: 0,
            loss_misses: self.loss_evals,
            ng_hits: 0,
            ng_misses: self.forward_passes,
            grads_hits: self.grads_hits,
            grads_misses: self.grads_misses,
            outcome_hits: 0,
        }
    }

    /// Whole-assembly LRU depth for a candidate space of `len` pairs:
    /// as many slots as fit the byte budget, at least two (the minimum
    /// that holds a period-2 PGD oscillation), at most
    /// [`GRADS_SLOTS_MAX`]; `0` when memoization is off.
    fn grads_capacity(&self, len: usize) -> usize {
        if !self.on {
            return 0;
        }
        let per_slot = len * (size_of::<f64>() + size_of::<bool>()) + size_of::<GradsSlot>();
        (GRADS_CACHE_BYTES / per_slot.max(1)).clamp(2, GRADS_SLOTS_MAX)
    }
}

/// Mutable attack state over a frozen CSR substrate: the poisoned graph
/// as a delta overlay, live egonet features, and the target set.
#[derive(Debug, Clone)]
pub struct AttackSession<'g> {
    overlay: DeltaOverlay<'g>,
    inc: IncrementalEgonet,
    base_feats: EgonetFeatures,
    targets: Vec<NodeId>,
    /// Zobrist fold of `targets` — combined with the overlay's edge-set
    /// hash this keys all memoized evaluations.
    target_hash: u64,
    /// The session's worker count and the backward pass's per-worker
    /// row buffers.
    kernel: GradKernel,
    /// Search memoization; its LRU slots are the backward pass's
    /// output buffers (capacity 0, i.e. off, by default).
    memo: SearchMemo,
}

impl<'g> AttackSession<'g> {
    /// Opens a session on a clean graph. Validates the target set and
    /// extracts the base features once.
    pub fn new(base: &'g CsrGraph, targets: &[NodeId]) -> Result<Self, AttackError> {
        validate_targets(base, targets)?;
        let inc = IncrementalEgonet::new(base);
        let base_feats = inc.features().clone();
        Ok(Self {
            overlay: DeltaOverlay::new(base),
            inc,
            base_feats,
            targets: targets.to_vec(),
            target_hash: target_set_hash(targets),
            kernel: GradKernel::new(0),
            memo: SearchMemo::new(false),
        })
    }

    /// Overrides the session's worker-thread count (`0` = autodetect,
    /// the default, resolved once, when the first attack splits its
    /// candidates). The gradient assembly, BinarizedAttack's PGD step
    /// and GradMaxSearch's one pass per step (the assembly with the
    /// argmax folded in) split the candidate range into equal contiguous
    /// chunks across up to this many threads, one chunk per fixed
    /// minimum of modelled assembly work, so small candidate sets stay
    /// on the calling thread. ContinuousA's
    /// dense passes split the upper triangle of its `n × n` products the
    /// same way (`dense.rs`). A search loop (one λ of BinarizedAttack, a
    /// whole GradMaxSearch or ContinuousA) spawns its threads once and
    /// runs every pass on them; a one-shot assembly
    /// ([`AttackSession::pair_gradients_into`]) spawns them for its one
    /// pass. Results are bit-identical at any count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.kernel = GradKernel::new(threads);
        self
    }

    /// The session's worker-thread count (see
    /// [`AttackSession::with_threads`]), resolved on first use.
    pub(crate) fn threads(&mut self) -> usize {
        self.kernel.threads()
    }

    /// The partition of `candidates` that an attack's passes split on,
    /// sized by the assembly's cost over the current graph (see
    /// [`AttackSession::with_threads`]). An attack builds it once per
    /// candidate set, runs its crew on it and lends every gradient slot
    /// on it ([`AttackSession::lend_grads`]).
    pub(crate) fn partition(&mut self, candidates: &Candidates) -> Partition {
        self.kernel.partition(&self.overlay, candidates)
    }

    /// Turns on the [`SearchMemo`]: a fresh memo whose assembly LRU holds
    /// up to 24 assemblies. Memoized sessions return bit-identical
    /// results to unmemoized ones — the memo trades memory for
    /// wall-clock, nothing else.
    pub fn with_memo(mut self) -> Self {
        self.memo = SearchMemo::new(true);
        self
    }

    /// `true` when the [`SearchMemo`] is on.
    pub fn memo_enabled(&self) -> bool {
        self.memo.on
    }

    /// Counter snapshot of the memo, `None` when memoization is off.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo_enabled().then(|| self.memo.stats())
    }

    /// The Zobrist hash of the session state every memoized evaluation
    /// is keyed by: current edge set ⊕ target set. Maintained
    /// incrementally — O(1) per toggle, restored exactly by
    /// [`AttackSession::reset`] / [`AttackSession::retarget`] — and
    /// always equal to hashing the materialised edge set from scratch
    /// (pinned by proptest in `tests/search_memo.rs`).
    #[inline]
    pub fn state_hash(&self) -> u64 {
        self.overlay.edge_set_hash() ^ self.target_hash
    }

    /// The target node set.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The clean-graph substrate the session was opened on.
    pub fn base(&self) -> &'g CsrGraph {
        self.overlay.base()
    }

    /// The current (possibly poisoned) graph view.
    pub fn graph(&self) -> &DeltaOverlay<'g> {
        &self.overlay
    }

    /// Current egonet features (kept incrementally; never recomputed).
    pub fn features(&self) -> &EgonetFeatures {
        self.inc.features()
    }

    /// Drops all edits, returning to the clean graph: `O(dirty rows)` for
    /// the overlay plus an `O(n)` clone of the cached base features.
    pub fn reset(&mut self) {
        self.overlay.reset();
        self.inc = IncrementalEgonet::from_features(self.base_feats.clone());
    }

    /// Re-points the session at a new target set and drops all edits.
    ///
    /// This is the cheap path for running many attacks over one frozen
    /// substrate: the cached base features survive, so swapping targets
    /// costs `O(dirty rows + n)` instead of the `O(n + m)` feature pass a
    /// fresh [`AttackSession::new`] performs. Equivalence with a fresh
    /// session is pinned by a proptest in `tests/session_equivalence.rs`.
    /// An attached memo survives too — its entries are keyed by the
    /// target hash, so evaluations for previously-seen target sets stay
    /// reusable and other target sets' entries can never be confused
    /// for this one's.
    pub fn retarget(&mut self, targets: &[NodeId]) -> Result<(), AttackError> {
        validate_targets(self.overlay.base(), targets)?;
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        self.target_hash = target_set_hash(targets);
        self.reset();
        Ok(())
    }

    /// Toggles the pair `{i, j}` on the working graph, patching features
    /// incrementally. Returns the op performed (`None` for self-loops).
    pub fn toggle(&mut self, i: NodeId, j: NodeId) -> Option<EdgeOp> {
        self.inc.toggle(&mut self.overlay, i, j)
    }

    /// Forward pass: surrogate loss and the per-node total derivatives at
    /// the current features. Never cached; the [`SearchMemo`] only
    /// counts the call.
    pub fn node_grads(&mut self) -> Result<NodeGrads, AttackError> {
        self.memo.forward_passes += 1;
        let feats = self.inc.features();
        Ok(node_grads(&feats.n, &feats.e, &self.targets)?)
    }

    /// Surrogate loss at the current features (cheaper than a full
    /// [`AttackSession::node_grads`] when only the value is needed).
    /// Never cached; the [`SearchMemo`] only counts the call.
    pub fn loss(&mut self) -> Result<f64, AttackError> {
        self.memo.loss_evals += 1;
        let feats = self.inc.features();
        Ok(surrogate_loss_from_features(
            &feats.n,
            &feats.e,
            &self.targets,
        )?)
    }

    /// A search loop's crew cells for the backward pass over `split`,
    /// one per chunk, holding the kernel's row scratch, sized once here
    /// for the graph (on a session's first attack), until
    /// [`AttackSession::close_grad_cells`] takes it back.
    pub(crate) fn grad_cells(&mut self, split: &Partition) -> Cells<GradChunk> {
        let rows = self
            .kernel
            .take_rows(split.chunks(), self.overlay.num_nodes());
        Cells::new(rows.into_iter().map(|row| GradChunk {
            row,
            ..GradChunk::default()
        }))
    }

    /// Takes back the row scratch of a loop's [`GradChunk`] cells.
    pub(crate) fn close_grad_cells(&mut self, cells: Cells<GradChunk>) {
        self.kernel
            .restore_rows(cells.into_inner().map(|chunk| chunk.row));
    }

    /// The lookup half of the backward pass: lends out the output slot
    /// for the current state, the mask whose chunks along `split` are
    /// `mask`, and the signing, with one output buffer per chunk of
    /// `split`. Returns `true` with a slot that must be assembled, `false`
    /// with a slot that holds the output and its max-abs.
    ///
    /// A recent pass with the identical state, mask and signing is a
    /// hit, and its LRU slot is lent (the PGD tail, where the
    /// re-binarised graph cycles through a handful of states); any other
    /// lookup installs a slot, reusing the eviction victim's buffers. A
    /// hit also needs the slot cut along `split`: the same state gives
    /// the same partition, unless the session's thread count changed
    /// after the slot was assembled. At capacity 0 (memoization off)
    /// nothing is looked up or keyed, and the slot returned last is
    /// reused. The slot goes back with
    /// [`AttackSession::return_grads`] before the next lookup; a slot
    /// that never comes back (a loop that failed mid-pass) drops out of
    /// the LRU. The LRU returns only values the uncached path computed,
    /// so results are bit-identical either way. A session signs for one
    /// candidate set: the key does not cover the sign flags themselves.
    pub(crate) fn lend_grads(
        &mut self,
        mask: &[&[bool]],
        signed: bool,
        split: &Partition,
    ) -> (GradsSlot, bool) {
        let state = self.state_hash();
        let memo = &mut self.memo;
        let cap = memo.grads_capacity(split.len());
        if cap == 0 {
            // Memoization off: no lookup, no key; the slot returned last
            // is reused.
            let mut slot = memo.grads_slots.pop().unwrap_or_default();
            slot.cut_along(split);
            return (slot, true);
        }
        // Mask equality is checked verbatim (cheap: a state match
        // already filters to near-certain hits).
        if let Some(pos) = memo.grads_slots.iter().position(|s| {
            s.state == state
                && s.signed == signed
                && s.is_cut_along(split)
                && mask_eq(&s.mask, mask)
        }) {
            memo.grads_hits += 1;
            return (memo.grads_slots.remove(pos), false);
        }
        memo.grads_misses += 1;
        // The eviction victim's buffers are reused for the new slot.
        memo.grads_capacity = cap;
        let mut slot = GradsSlot::default();
        if memo.grads_slots.len() >= cap {
            memo.grads_evictions += (memo.grads_slots.len() + 1 - cap) as u64;
            memo.grads_slots.truncate(cap);
            slot = memo.grads_slots.pop().unwrap_or_default();
        }
        slot.state = state;
        slot.signed = signed;
        slot.mask.clear();
        for chunk in mask {
            slot.mask.extend_from_slice(chunk);
        }
        slot.cut_along(split);
        (slot, true)
    }

    /// Takes back a slot [`AttackSession::lend_grads`] lent, filled, as
    /// the most recent LRU entry.
    pub(crate) fn return_grads(&mut self, slot: GradsSlot) {
        self.memo.grads_slots.insert(0, slot);
    }

    /// Backward pass: assembles `G_ij` for every masked candidate pair
    /// over the current graph view into `out` (masked-off entries are
    /// `0.0`), unsigned and split as [`AttackSession::with_threads`]
    /// describes. It lends a slot from the attacks' assembly LRU (with
    /// memoization off, the slot returned last), assembles it with a
    /// one-pass crew on a miss, copies it out and returns it.
    pub fn pair_gradients_into(
        &mut self,
        ng: &NodeGrads,
        candidates: &Candidates,
        mask: &[bool],
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), candidates.len(), "output length mismatch");
        assert_eq!(mask.len(), candidates.len(), "mask length mismatch");
        let split = self.partition(candidates);
        let chunks: Vec<&[bool]> = split.split(mask).collect();
        let (mut slot, fresh) = self.lend_grads(&chunks, false, &split);
        if fresh {
            slot.max_abs = self.kernel.assemble(
                &self.overlay,
                ng,
                candidates,
                &split,
                mask,
                None,
                slot.chunks.iter_mut().map(Vec::as_mut_slice),
            );
        }
        for (out, chunk) in split.split_mut(out).zip(&slot.chunks) {
            out.copy_from_slice(chunk);
        }
        self.return_grads(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::CandidateScope;
    use ba_graph::egonet::egonet_features;
    use ba_graph::generators;

    #[test]
    fn session_tracks_features_and_resets() {
        let g = generators::erdos_renyi(50, 0.1, 3);
        let csr = CsrGraph::from(&g);
        let mut s = AttackSession::new(&csr, &[0, 1]).unwrap();
        let clean_loss = s.loss().unwrap();
        let clean_hash = s.state_hash();

        let op = s.toggle(0, 1).unwrap();
        assert_eq!(op.u, 0);
        assert_ne!(s.state_hash(), clean_hash);
        assert_eq!(s.features(), &egonet_features(s.graph()));
        s.toggle(2, 3);
        assert_eq!(s.features(), &egonet_features(s.graph()));

        s.reset();
        assert_eq!(s.graph().dirty_rows(), 0);
        assert_eq!(s.state_hash(), clean_hash);
        assert_eq!(s.loss().unwrap(), clean_loss);
        assert_eq!(s.features(), &egonet_features(&csr));
    }

    #[test]
    fn session_rejects_bad_targets() {
        let g = generators::erdos_renyi(10, 0.2, 1);
        let csr = CsrGraph::from(&g);
        assert!(matches!(
            AttackSession::new(&csr, &[]),
            Err(AttackError::NoTargets)
        ));
        assert!(matches!(
            AttackSession::new(&csr, &[99]),
            Err(AttackError::TargetOutOfRange(99))
        ));
    }

    #[test]
    fn session_gradients_match_standalone_assembly() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut s = AttackSession::new(&csr, &targets).unwrap();
        s.toggle(0, 7);
        let ng = s.node_grads().unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        let mut out = vec![0.0; candidates.len()];
        s.pair_gradients_into(&ng, &candidates, &mask, &mut out);
        let reference = crate::grad::assemble_pair_grads(s.graph(), &ng, &candidates, &mask, 1);
        assert_eq!(out, reference);
    }

    #[test]
    fn signed_assembly_negates_clean_edges_and_keys_the_lru() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut memo = AttackSession::new(&csr, &targets).unwrap().with_memo();
        let mut plain = AttackSession::new(&csr, &targets).unwrap();
        for s in [&mut memo, &mut plain] {
            s.toggle(0, 7);
        }
        let ng = memo.node_grads().unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let flags = crate::pair::edge_flags(&candidates, &csr);
        let mut mask = vec![true; candidates.len()];
        mask[3] = false;
        let split = memo.partition(&candidates);

        let (unsigned, max_u) = one_shot(&mut memo, &ng, &candidates, &split, &mask, None);
        let (signed, max_s) = one_shot(&mut memo, &ng, &candidates, &split, &mask, Some(&flags));
        let stats = memo.memo_stats().unwrap();
        assert_eq!((stats.grads_hits, stats.grads_misses), (0, 2), "{stats:?}");
        assert!(flags.iter().zip(&mask).any(|(&f, &on)| f && on));
        let mut want_max = 0.0f64;
        for idx in 0..candidates.len() {
            let want = match (mask[idx], flags[idx]) {
                (false, _) => 0.0,
                (true, true) => -unsigned[idx],
                (true, false) => unsigned[idx],
            };
            assert_eq!(signed[idx].to_bits(), want.to_bits(), "idx {idx}");
            if mask[idx] {
                want_max = want_max.max(unsigned[idx].abs());
            }
        }
        assert_eq!((max_u, max_s), (want_max, want_max));

        // A repeat is lent from the LRU; a memo-less session agrees.
        let again = one_shot(&mut memo, &ng, &candidates, &split, &mask, Some(&flags));
        assert_eq!(again, (signed.clone(), max_s));
        assert_eq!(memo.memo_stats().unwrap().grads_hits, 1);
        let cold = one_shot(&mut plain, &ng, &candidates, &split, &mask, Some(&flags));
        assert_eq!(cold, (signed, max_s));
    }

    #[test]
    fn memo_off_lru_never_hits_and_reuses_the_returned_slot() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let mut s = AttackSession::new(&csr, &[2, 5]).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &[2, 5]);
        let mask = vec![true; candidates.len()];
        let split = s.partition(&candidates);
        let chunks: Vec<&[bool]> = split.split(&mask).collect();
        let (slot, fresh) = s.lend_grads(&chunks, false, &split);
        assert!(fresh);
        let buffer = slot.chunks[0].as_ptr();
        s.return_grads(slot);
        // Same state, mask and signing: still a miss, on the same buffer.
        let (slot, fresh) = s.lend_grads(&chunks, false, &split);
        assert!(fresh);
        assert_eq!(slot.chunks[0].as_ptr(), buffer);
        assert_eq!(s.memo_stats(), None);
    }

    /// A one-shot backward pass through the lend/return cycle: the
    /// output, concatenated, and its max-abs.
    fn one_shot(
        s: &mut AttackSession<'_>,
        ng: &NodeGrads,
        candidates: &Candidates,
        split: &Partition,
        mask: &[bool],
        sign: Option<&[bool]>,
    ) -> (Vec<f64>, f64) {
        let chunks: Vec<&[bool]> = split.split(mask).collect();
        let (mut slot, fresh) = s.lend_grads(&chunks, sign.is_some(), split);
        if fresh {
            slot.max_abs = s.kernel.assemble(
                &s.overlay,
                ng,
                candidates,
                split,
                mask,
                sign,
                slot.chunks.iter_mut().map(Vec::as_mut_slice),
            );
        }
        let got = (slot.chunks.concat(), slot.max_abs);
        s.return_grads(slot);
        got
    }

    #[test]
    fn memoized_session_is_bit_identical_and_actually_hits() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut plain = AttackSession::new(&csr, &targets).unwrap();
        let mut memo = AttackSession::new(&csr, &targets).unwrap().with_memo();
        assert!(memo.memo_enabled() && !plain.memo_enabled());

        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mut mask = vec![true; candidates.len()];
        mask[1] = false;
        let mut out_p = vec![0.0; candidates.len()];
        let mut out_m = vec![0.0; candidates.len()];

        // Same script on both sessions, revisiting states: clean →
        // toggle → back to clean → same toggle again.
        for (i, j) in [(0u32, 7u32), (0, 7), (3, 9), (3, 9)] {
            for s in [&mut plain, &mut memo] {
                s.toggle(i, j);
            }
            assert_eq!(plain.loss().unwrap(), memo.loss().unwrap());
            let ng_p = plain.node_grads().unwrap();
            let ng_m = memo.node_grads().unwrap();
            assert_eq!(ng_p.loss, ng_m.loss);
            assert_eq!(ng_p.g_e, ng_m.g_e);
            plain.pair_gradients_into(&ng_p, &candidates, &mask, &mut out_p);
            memo.pair_gradients_into(&ng_m, &candidates, &mask, &mut out_m);
            assert_eq!(out_p, out_m);
            // Repeat at the same state: exercises the whole-assembly LRU.
            memo.pair_gradients_into(&ng_m, &candidates, &mask, &mut out_m);
            assert_eq!(out_p, out_m);
        }
        let stats = memo.memo_stats().unwrap();
        assert!(stats.grads_hits > 0, "revisited states must hit: {stats:?}");
        assert_eq!(plain.memo_stats(), None);
    }

    #[test]
    fn a_slot_cut_for_another_thread_count_is_not_lent() {
        // Large enough to split three ways (see `split::workers`).
        let g = generators::erdos_renyi(300, 0.03, 77);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        let mut s = AttackSession::new(&csr, &targets)
            .unwrap()
            .with_threads(1)
            .with_memo();
        let ng = s.node_grads().unwrap();
        let mut serial = vec![0.0; candidates.len()];
        s.pair_gradients_into(&ng, &candidates, &mask, &mut serial);
        let mut s = s.with_threads(3);
        assert_eq!(s.partition(&candidates).chunks(), 3);
        let mut split = vec![f64::NAN; candidates.len()];
        for _ in 0..2 {
            s.pair_gradients_into(&ng, &candidates, &mask, &mut split);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&split), bits(&serial));
        }
        // The one-chunk slot is not lent to the three-chunk split, whose
        // own slot answers the repeat.
        let stats = s.memo_stats().unwrap();
        assert_eq!((stats.grads_hits, stats.grads_misses), (1, 2), "{stats:?}");
    }

    #[test]
    fn memo_counters_account_for_every_call() {
        let g = generators::barabasi_albert(60, 3, 8);
        let csr = CsrGraph::from(&g);
        let targets = [2u32, 5];
        let mut s = AttackSession::new(&csr, &targets).unwrap().with_memo();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        let mut out = vec![0.0; candidates.len()];

        // Clean → (0,7) → clean → (0,7) → (0,7)+(3,9), with each kind
        // of call made a different number of times per state.
        let (mut ng_calls, mut grads_calls, mut loss_calls) = (0u64, 0u64, 0u64);
        let script = [
            None,
            Some((0u32, 7u32)),
            Some((0, 7)),
            Some((0, 7)),
            Some((3, 9)),
        ];
        for (step, toggle) in script.into_iter().enumerate() {
            if let Some((i, j)) = toggle {
                s.toggle(i, j);
            }
            for _ in 0..=step % 2 {
                s.loss().unwrap();
                loss_calls += 1;
            }
            let ng = s.node_grads().unwrap();
            ng_calls += 1;
            for _ in 0..=step % 3 {
                s.pair_gradients_into(&ng, &candidates, &mask, &mut out);
                grads_calls += 1;
            }
        }

        let stats = s.memo_stats().unwrap();
        // Revisited states recompute the forward pass and the loss;
        // only the assembly LRU answers from cache.
        assert_eq!((stats.ng_hits, stats.loss_hits), (0, 0), "{stats:?}");
        assert_eq!(stats.ng_misses, ng_calls, "{stats:?}");
        assert_eq!(stats.loss_misses, loss_calls, "{stats:?}");
        assert_eq!(
            stats.grads_hits + stats.grads_misses,
            grads_calls,
            "{stats:?}"
        );
        assert!(stats.grads_hits > 0);
        assert_eq!(
            (stats.table.hits, stats.table.misses, stats.table.stores),
            (stats.grads_hits, stats.grads_misses, stats.grads_misses)
        );
        assert_eq!(stats.table.evictions, 0, "{stats:?}");

        // More distinct states at one mask than the LRU holds: every
        // install past capacity evicts exactly one slot.
        let ng = s.node_grads().unwrap();
        for j in 10..10 + GRADS_SLOTS_MAX as u32 {
            s.toggle(1, j);
            s.pair_gradients_into(&ng, &candidates, &mask, &mut out);
        }
        let stats = s.memo_stats().unwrap();
        assert_eq!(stats.table.capacity, GRADS_SLOTS_MAX, "{stats:?}");
        assert!(stats.table.evictions > 0, "{stats:?}");
        assert_eq!(
            stats.table.evictions,
            stats.grads_misses - GRADS_SLOTS_MAX as u64,
            "{stats:?}"
        );
        assert_eq!(stats.table.stores, stats.grads_misses);
    }

    #[test]
    fn memo_survives_retarget_without_cross_talk() {
        let g = generators::erdos_renyi(40, 0.15, 9);
        let csr = CsrGraph::from(&g);
        let mut s = AttackSession::new(&csr, &[0, 1]).unwrap().with_memo();
        let h01 = s.state_hash();
        let loss01 = s.loss().unwrap();
        s.retarget(&[2, 3]).unwrap();
        assert_ne!(s.state_hash(), h01, "target set must feed the hash");
        let loss23 = s.loss().unwrap();
        assert_ne!(loss01, loss23);
        // Coming back to the original targets reproduces the original
        // state hash and loss.
        s.retarget(&[0, 1]).unwrap();
        assert_eq!(s.state_hash(), h01);
        assert_eq!(s.loss().unwrap(), loss01);
        // Target order matters (the loss sums residuals in list order).
        s.retarget(&[1, 0]).unwrap();
        assert_ne!(s.state_hash(), h01);
    }
}
