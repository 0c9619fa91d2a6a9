//! Candidate-pair machinery: upper-triangle indexing, attack scopes, and
//! edge-operation masks.

use ba_graph::{GraphView, NodeId};
use std::collections::BTreeSet;

/// Which edge operations the attacker may perform. Fig. 5 of the paper
/// demonstrates all three regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOpKind {
    /// Add and delete edges (the default threat model).
    Both,
    /// Only add edges.
    AddOnly,
    /// Only delete edges.
    DeleteOnly,
}

impl EdgeOpKind {
    /// Whether the given pair state is eligible: a non-edge can only be
    /// added, an edge only deleted.
    #[inline]
    pub fn allows(self, is_edge: bool) -> bool {
        match self {
            EdgeOpKind::Both => true,
            EdgeOpKind::AddOnly => !is_edge,
            EdgeOpKind::DeleteOnly => is_edge,
        }
    }
}

/// Which pairs the optimiser considers.
///
/// The paper's attacker controls the whole graph (`Full`). Pairs that do
/// not touch a target's 2-hop neighbourhood only influence the objective
/// through the global regression, so restricting to `TargetNeighborhood`
/// is a cheap approximation we expose for large graphs and for the
/// scoping ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateScope {
    /// All `n(n−1)/2` unordered pairs.
    Full,
    /// Pairs with at least one endpoint in the target set, plus all pairs
    /// among each target's neighbours (those close the target's
    /// triangles).
    TargetNeighborhood,
}

/// Upper-triangular pair indexer over `n` nodes: maps an unordered pair
/// `(i < j)` to a flat index in `[0, n(n−1)/2)` and back.
#[derive(Debug, Clone)]
pub struct PairSpace {
    n: usize,
    /// `offsets[i]` = flat index of pair `(i, i+1)`.
    offsets: Vec<usize>,
}

impl PairSpace {
    /// Creates a pair space over `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n);
        let mut acc = 0usize;
        for i in 0..n {
            offsets.push(acc);
            acc += n - 1 - i;
        }
        Self { n, offsets }
    }

    /// Number of nodes the pair space spans.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Number of unordered pairs.
    pub fn len(&self) -> usize {
        self.n * (self.n.saturating_sub(1)) / 2
    }

    /// `true` when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of pair `(i, j)` (any order, `i != j`).
    #[inline]
    pub fn index(&self, i: NodeId, j: NodeId) -> usize {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        debug_assert!((j as usize) < self.n);
        self.offsets[i as usize] + (j - i - 1) as usize
    }

    /// Inverse of [`PairSpace::index`].
    pub fn pair(&self, idx: usize) -> (NodeId, NodeId) {
        debug_assert!(idx < self.len());
        // offsets is sorted; find the row via binary search.
        let i = match self.offsets.binary_search(&idx) {
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        let j = i + 1 + (idx - self.offsets[i]);
        (i as NodeId, j as NodeId)
    }
}

/// The concrete candidate set an attack optimises over.
#[derive(Debug, Clone)]
pub enum Candidates {
    /// The full pair space.
    Full(PairSpace),
    /// An explicit pair list: each `(i, j)` with `i < j`, sorted
    /// ascending with no duplicates. The gradient assembly's row kernel
    /// relies on each smaller endpoint's pairs being one contiguous run
    /// in ascending `j`.
    List(Vec<(NodeId, NodeId)>),
}

impl Candidates {
    /// Builds the candidate set for a scope. Generic over graph views so
    /// the same candidates come out of a `Graph` or the frozen
    /// `CsrGraph` substrate a reused session runs on (both uphold the
    /// sorted-neighbour-slice contract).
    pub fn build<V: GraphView + ?Sized>(
        scope: CandidateScope,
        g: &V,
        targets: &[NodeId],
    ) -> Candidates {
        match scope {
            CandidateScope::Full => Candidates::Full(PairSpace::new(g.num_nodes())),
            CandidateScope::TargetNeighborhood => {
                let n = g.num_nodes() as NodeId;
                let mut set: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
                for &t in targets {
                    for x in 0..n {
                        if x != t {
                            set.insert(if t < x { (t, x) } else { (x, t) });
                        }
                    }
                    let nbrs: Vec<NodeId> = g.neighbors_sorted(t).to_vec();
                    for (ai, &a) in nbrs.iter().enumerate() {
                        for &b in &nbrs[ai + 1..] {
                            set.insert(if a < b { (a, b) } else { (b, a) });
                        }
                    }
                }
                Candidates::List(set.into_iter().collect())
            }
        }
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        match self {
            Candidates::Full(ps) => ps.len(),
            Candidates::List(v) => v.len(),
        }
    }

    /// `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f(flat_index, i, j)` for every candidate pair.
    pub fn for_each(&self, f: impl FnMut(usize, NodeId, NodeId)) {
        self.for_each_range(0, self.len(), f);
    }

    /// Calls `f(flat_index, i, j)` for the candidates in
    /// `[start, end)`, walking pairs incrementally (no per-index
    /// decode) — the kernel the chunked parallel gradient assembly
    /// iterates with.
    pub fn for_each_range(
        &self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, NodeId, NodeId),
    ) {
        debug_assert!(start <= end && end <= self.len());
        if start >= end {
            return;
        }
        match self {
            Candidates::Full(ps) => {
                let n = ps.n as NodeId;
                let (mut i, mut j) = ps.pair(start);
                for idx in start..end {
                    f(idx, i, j);
                    j += 1;
                    if j == n {
                        i += 1;
                        j = i + 1;
                    }
                }
            }
            Candidates::List(v) => {
                for (off, &(i, j)) in v[start..end].iter().enumerate() {
                    f(start + off, i, j);
                }
            }
        }
    }

    /// The pair at a flat index.
    pub fn pair(&self, idx: usize) -> (NodeId, NodeId) {
        match self {
            Candidates::Full(ps) => ps.pair(idx),
            Candidates::List(v) => v[idx],
        }
    }

    /// The flat index of the pair `{i, j}` (any order), `None` when it
    /// is not a candidate: [`PairSpace::index`] for the full space, a
    /// binary search of the sorted list otherwise.
    pub(crate) fn index(&self, i: NodeId, j: NodeId) -> Option<usize> {
        let key = if i < j { (i, j) } else { (j, i) };
        match self {
            Candidates::Full(ps) => {
                (key.0 != key.1 && (key.1 as usize) < ps.nodes()).then(|| ps.index(i, j))
            }
            Candidates::List(v) => v.binary_search(&key).ok(),
        }
    }
}

/// A fixed-length bitvec over candidate indices.
///
/// The greedy search's never-revisit pool used to be a
/// `HashSet<u64>` of packed pairs — a hash probe per candidate per
/// step. [`Candidates`] already assigns every pair a dense flat index,
/// so membership is one shift-and-mask into a word array: no hashing,
/// no allocation after construction, and the whole pool for a
/// 10⁵-pair candidate set is ~12 KiB of contiguous bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexBitSet {
    words: Vec<u64>,
    len: usize,
}

impl IndexBitSet {
    /// An all-clear set over `len` indices.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices the set covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set covers no indices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `idx` is set.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        self.words[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// Sets `idx`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx >> 6];
        let bit = 1u64 << (idx & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Clears every bit (the pool is per-attack-run; sessions reuse
    /// the allocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// `A₀` per candidate: `flags[idx]` is whether the pair at `idx` is an
/// edge of `g0`. The attacks read the clean graph's flags once per run,
/// because the clean graph never changes.
pub(crate) fn edge_flags<V: GraphView + ?Sized>(candidates: &Candidates, g0: &V) -> Vec<bool> {
    let mut flags = vec![false; candidates.len()];
    candidates.for_each(|idx, i, j| flags[idx] = g0.has_edge(i, j));
    flags
}

/// Static validity mask for a candidate set: pairs excluded by the op
/// kind, or whose deletion would create a singleton in the *clean* graph.
/// (Dynamic singleton checks against the evolving poisoned graph are
/// performed again at application time.)
pub fn static_mask<V: GraphView + ?Sized>(
    candidates: &Candidates,
    g0: &V,
    kind: EdgeOpKind,
    forbid_singletons: bool,
) -> Vec<bool> {
    let mut ok = vec![false; candidates.len()];
    candidates.for_each(|idx, i, j| {
        let is_edge = g0.has_edge(i, j);
        let mut valid = kind.allows(is_edge);
        if valid && is_edge && forbid_singletons && !g0.deletion_keeps_no_singletons(i, j) {
            valid = false;
        }
        ok[idx] = valid;
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::Graph;

    #[test]
    fn pair_space_roundtrip() {
        let ps = PairSpace::new(7);
        assert_eq!(ps.len(), 21);
        let mut seen = vec![false; ps.len()];
        for i in 0..7u32 {
            for j in (i + 1)..7u32 {
                let idx = ps.index(i, j);
                assert!(!seen[idx], "index collision at ({i},{j})");
                seen[idx] = true;
                assert_eq!(ps.pair(idx), (i, j));
                // Order-insensitive:
                assert_eq!(ps.index(j, i), idx);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pair_space_small_sizes() {
        assert_eq!(PairSpace::new(0).len(), 0);
        assert_eq!(PairSpace::new(1).len(), 0);
        assert_eq!(PairSpace::new(2).len(), 1);
        assert_eq!(PairSpace::new(2).pair(0), (0, 1));
    }

    #[test]
    fn op_kind_masks() {
        assert!(EdgeOpKind::Both.allows(true));
        assert!(EdgeOpKind::Both.allows(false));
        assert!(EdgeOpKind::AddOnly.allows(false));
        assert!(!EdgeOpKind::AddOnly.allows(true));
        assert!(EdgeOpKind::DeleteOnly.allows(true));
        assert!(!EdgeOpKind::DeleteOnly.allows(false));
    }

    #[test]
    fn full_candidates_enumerate_everything() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let c = Candidates::build(CandidateScope::Full, &g, &[0]);
        assert_eq!(c.len(), 6);
        let mut pairs = Vec::new();
        c.for_each(|_, i, j| pairs.push((i, j)));
        assert_eq!(pairs.len(), 6);
        assert_eq!(c.pair(5), (2, 3));
    }

    #[test]
    fn target_neighborhood_scope() {
        // Star around target 0 with extra far-away edge (3,4).
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (3, 4)]);
        let c = Candidates::build(CandidateScope::TargetNeighborhood, &g, &[0]);
        // Pairs touching 0: (0,1)..(0,5) = 5; plus neighbour pair (1,2).
        assert_eq!(c.len(), 6);
        let pairs: Vec<_> = (0..c.len()).map(|idx| c.pair(idx)).collect();
        assert!(pairs.contains(&(1, 2)));
        assert!(!pairs.contains(&(3, 4)));
        // Lists are sorted ascending with no duplicates.
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn candidate_index_inverts_pair_in_both_forms() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (3, 4)]);
        for scope in [CandidateScope::Full, CandidateScope::TargetNeighborhood] {
            let c = Candidates::build(scope, &g, &[0]);
            for idx in 0..c.len() {
                let (i, j) = c.pair(idx);
                assert_eq!(c.index(i, j), Some(idx), "{scope:?}");
                assert_eq!(c.index(j, i), Some(idx), "{scope:?}");
            }
            assert_eq!(c.index(2, 2), None, "{scope:?}: a self-pair");
            assert_eq!(c.index(1, 6), None, "{scope:?}: out of range");
        }
        let list = Candidates::build(CandidateScope::TargetNeighborhood, &g, &[0]);
        assert_eq!(list.index(3, 4), None, "a pair outside the scope");
    }

    #[test]
    fn index_bitset_insert_contains_clear() {
        let mut s = IndexBitSet::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert!(!s.contains(0) && !s.contains(129));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports not-fresh");
        assert!(s.insert(0) && s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(129));
        assert!(IndexBitSet::new(0).is_empty());
    }

    #[test]
    fn static_mask_respects_singletons_and_kind() {
        // Path 0-1-2: deleting (0,1) would isolate 0.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let c = Candidates::build(CandidateScope::Full, &g, &[1]);
        let (e01, e02) = (0, 1);
        assert_eq!((c.pair(e01), c.pair(e02)), ((0, 1), (0, 2)));
        let mask_both = static_mask(&c, &g, EdgeOpKind::Both, true);
        // (0,1): edge whose deletion isolates 0 → masked.
        assert!(!mask_both[e01]);
        // (0,2): non-edge, addable.
        assert!(mask_both[e02]);
        let mask_del = static_mask(&c, &g, EdgeOpKind::DeleteOnly, false);
        assert!(mask_del[e01]);
        assert!(!mask_del[e02]);
    }
}
