//! The frozen CSR substrate and its copy-on-write mutation overlay.
//!
//! Attack optimisers read graph structure millions of times per run
//! (every pair gradient is a sorted-merge over two adjacency lists) but
//! mutate it rarely (one edge toggle per greedy step, a handful per PGD
//! re-binarisation). [`CsrGraph`] serves the read side: one contiguous
//! `offsets`/`cols` pair, cache-friendly sorted neighbour slices, zero
//! per-node allocation. [`DeltaOverlay`] serves the write side: it
//! borrows a frozen `CsrGraph` and absorbs single-edge toggles by
//! materialising a private sorted copy of just the touched rows, so a
//! greedy attack never rebuilds the substrate and resetting to the clean
//! graph is O(dirty rows), not O(n + m).
//!
//! The materialised rows share one arena: a single `Vec<NodeId>` plus a
//! 16-byte slot (`start`, `len`, `cap`) per node, `cap == 0` meaning the
//! row is served from the base. A row is appended with a little slack on
//! first touch, shifted in place on insert and remove, and moved to the
//! arena's end at double capacity when an insert finds it full. Reset
//! clears the dirty slots and truncates the arena, and
//! [`CsrGraph::absorb`] copies the rows out and releases the arena, so
//! neither allocates nor frees anything per row. [`DeltaOverlay::new`]
//! reserves the arena for the base's `2·m` column entries, so an
//! overlay that is reset and reused does not grow it mid-search.

use crate::view::{EditableGraph, GraphView};
use crate::zobrist::{edge_key, edge_set_hash};
use crate::{Graph, NodeId};

/// Compressed-sparse-row adjacency: `cols[offsets[u]..offsets[u+1]]` is
/// the strictly increasing neighbour list of `u`. Frozen by design —
/// edits go through a [`DeltaOverlay`], and [`CsrGraph::absorb`] folds
/// a batch of them back in.
///
/// ```
/// use ba_graph::{CsrGraph, Graph, GraphView};
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]);
/// let csr = CsrGraph::from(&g);
/// assert_eq!(csr.num_edges(), 4);
/// assert_eq!(csr.neighbors_sorted(2), &[0, 1, 3]);
/// // The frozen form round-trips exactly.
/// assert_eq!(csr.to_graph(), g);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    cols: Vec<NodeId>,
    num_edges: usize,
    /// Zobrist hash of the edge set (see [`crate::zobrist`]), computed
    /// once at freeze time so overlays can report their state hash in
    /// O(1) per toggle.
    edge_hash: u64,
}

impl CsrGraph {
    /// Assembles a CSR from already-validated parts — the output path of
    /// the streamed builder [`crate::compact::from_edge_stream`]. Callers
    /// guarantee the offsets/cols invariants (length `n + 1`, monotone
    /// offsets, strictly increasing rows) and that `edge_hash` matches
    /// the edge set.
    pub(crate) fn from_raw_parts(
        offsets: Vec<usize>,
        cols: Vec<NodeId>,
        num_edges: usize,
        edge_hash: u64,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), cols.len());
        debug_assert_eq!(cols.len(), 2 * num_edges);
        Self {
            offsets,
            cols,
            num_edges,
            edge_hash,
        }
    }

    /// Builds the CSR structure from any graph view.
    pub fn from_view<V: GraphView + ?Sized>(g: &V) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for u in 0..n as NodeId {
            cols.extend_from_slice(g.neighbors_sorted(u));
            offsets.push(cols.len());
        }
        Self {
            offsets,
            cols,
            num_edges: g.num_edges(),
            edge_hash: edge_set_hash(g),
        }
    }

    /// Returns `self` unchanged: moves it and copies nothing. Inert:
    /// kept only so existing callers that widened the streamed
    /// builder's output still compile; it goes at the next benchmark
    /// change.
    pub fn promote(self) -> CsrGraph {
        self
    }

    /// Zobrist hash of this graph's edge set — the frozen half of
    /// [`DeltaOverlay::edge_set_hash`].
    #[inline]
    pub fn edge_hash(&self) -> u64 {
        self.edge_hash
    }

    /// Row pointer array, length `n + 1` (for external kernels, e.g. the
    /// GCN propagation in `ba-gad`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Concatenated column indices, length `2m`.
    pub fn cols(&self) -> &[NodeId] {
        &self.cols
    }

    /// Materialises a mutable [`Graph`] with the same edge set.
    pub fn to_graph(&self) -> Graph {
        Graph::from_view(self)
    }

    /// Folds edits detached from this graph into it in place, leaving
    /// it equal to [`DeltaOverlay::compact`] of the overlay they came
    /// from. This is the *compaction* step of the streaming engine:
    /// once enough rows have diverged, overlay reads pay for the
    /// indirection and resets stop being cheap, so the edits become
    /// the new base and the overlay starts clean again. Unlike
    /// `compact`, the fold never holds a second CSR beside this one.
    ///
    /// Returns the emptied edits, clean against the folded graph: they
    /// keep their slot table, so re-attaching them allocates nothing
    /// per node, while the arena's buffer is released here.
    ///
    /// # Panics
    /// Panics if non-empty `edits` cover a different node count.
    pub fn absorb(&mut self, mut edits: OverlayEdits) -> OverlayEdits {
        if edits.is_clean() {
            return edits;
        }
        assert_eq!(
            edits.rows.slots.len(),
            self.num_nodes(),
            "edits detached from a different base"
        );
        let delta_hash = edits
            .delta_hash
            .unwrap_or_else(|| recompute_delta_hash(self, &edits.rows));
        edits.rows.dirty.sort_unstable();
        self.patch_rows(&edits.rows, &edits.rows.dirty, edits.num_edges);
        self.edge_hash ^= delta_hash;
        edits.rows.clear();
        edits.rows.arena = Vec::new();
        edits.delta_hash = Some(0);
        edits
    }

    /// Replaces the row of each node in `dirty` (ascending, every one
    /// materialised in `rows`) in place, leaving `num_edges` edges. The
    /// clean node ranges between dirty rows move as blocks, each by the
    /// running sum of the growth of the dirty rows before it. First the
    /// blocks shifting right move, right to left; then one left-to-right
    /// pass moves the blocks shifting left, shifts their `offsets` in
    /// place and copies in the dirty row after each. A block moving
    /// right lands only on old bytes of blocks to its right that also
    /// move right; a block moving left, or a dirty row, lands only on
    /// old bytes of blocks to its left or of blocks that move right; and
    /// this order has moved all of those already. So the column array
    /// grows at most once, and no second copy of it or of `offsets` is
    /// ever made.
    fn patch_rows(&mut self, rows: &RowArena, dirty: &[NodeId], num_edges: usize) {
        let n = self.num_nodes();
        let (offsets, cols) = (&mut self.offsets, &mut self.cols);
        let row = |d: usize| {
            rows.row(d as NodeId)
                // ba-lint: allow(panic-path) -- callers pass only dirty nodes, and a node only enters dirty when its slot is filled
                .expect("dirty row is materialised")
        };
        // How much dirty row `d` grows, read while `offsets` is unmoved
        // at `d` and `d + 1`.
        let growth = |offsets: &[usize], d: usize| {
            row(d).len() as isize - (offsets[d + 1] - offsets[d]) as isize
        };
        // The j-th clean node range [lo, hi): after dirty[j - 1], up to
        // dirty[j] (or n). It shifts by the growth of dirty[..j].
        let block = |j: usize| {
            let lo = j.checked_sub(1).map_or(0, |i| dirty[i] as usize + 1);
            (lo, dirty.get(j).map_or(n, |&d| d as usize))
        };
        let k = dirty.len();
        let len = 2 * num_edges;
        let total = len as isize - cols.len() as isize;
        if len > cols.len() {
            cols.reserve_exact(len - cols.len());
            cols.resize(len, 0);
        }
        let mut shift = total;
        for j in (0..=k).rev() {
            if j < k {
                shift -= growth(offsets, dirty[j] as usize);
            }
            let (lo, hi) = block(j);
            if shift > 0 && lo < hi {
                cols.copy_within(offsets[lo]..offsets[hi], offsets[lo] + shift as usize);
            }
        }
        for j in 0..=k {
            let (lo, hi) = block(j);
            if shift < 0 && lo < hi {
                cols.copy_within(offsets[lo]..offsets[hi], offsets[lo] - shift.unsigned_abs());
            }
            let grew = (j < k).then(|| growth(offsets, hi));
            if shift != 0 {
                for o in &mut offsets[lo..=hi] {
                    *o = o.wrapping_add_signed(shift);
                }
            }
            if let Some(grew) = grew {
                let r = row(hi);
                cols[offsets[hi]..offsets[hi] + r.len()].copy_from_slice(r);
                shift += grew;
            }
        }
        debug_assert_eq!(offsets[n], len, "num_edges disagrees with the rows");
        cols.truncate(len);
        cols.shrink_to_fit();
        self.num_edges = num_edges;
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        Self::from_view(g)
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn neighbors_sorted(&self, u: NodeId) -> &[NodeId] {
        &self.cols[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }
}

/// A set of single-edge toggles over a borrowed [`CsrGraph`].
///
/// Rows untouched by any toggle are served straight from the base CSR;
/// the first toggle on a row copies it into the overlay's row arena,
/// where later toggles patch it in `O(deg)`. [`DeltaOverlay::reset`]
/// drops the patches in `O(dirty rows)`, freeing nothing, and returns
/// to the clean graph without rebuilding anything — the operation
/// attack loops perform once per λ / per budget extraction.
///
/// ```
/// use ba_graph::{CsrGraph, DeltaOverlay, EditableGraph, Graph, GraphView};
///
/// let csr = CsrGraph::from(&Graph::from_edges(4, [(0, 1), (1, 2)]));
/// let mut ov = DeltaOverlay::new(&csr);
/// ov.toggle_edge(0, 3); // add
/// ov.toggle_edge(1, 2); // remove
/// assert!(ov.has_edge(0, 3) && !ov.has_edge(1, 2));
/// assert_eq!(ov.num_edges(), 2);
/// // Dropping the patches restores the clean base in O(dirty rows).
/// ov.reset();
/// assert_eq!(ov.to_graph(), csr.to_graph());
/// ```
#[derive(Debug, Clone)]
pub struct DeltaOverlay<'a> {
    base: &'a CsrGraph,
    /// Materialised rows, indexed by node through a plain slot table,
    /// which keeps row access off the hash path — the gradient assembly
    /// reads two rows per candidate pair.
    rows: RowArena,
    num_edges: usize,
    /// XOR of [`edge_key`] over the pairs whose presence differs from
    /// the base — `0` when clean, updated in O(1) per toggle.
    delta_hash: u64,
}

/// The owned edit state of a [`DeltaOverlay`], detached from its base.
///
/// An overlay borrows its frozen base, so a struct cannot own both the
/// `CsrGraph` and a live overlay over it. Long-lived consumers (the
/// streaming engine in `ba-stream`) instead keep the base and an
/// `OverlayEdits`, re-attaching them with [`DeltaOverlay::attach`] for
/// the duration of each batch. The default value is the empty edit set,
/// valid against any base; [`CsrGraph::absorb`] hands back an empty one
/// that keeps its slot table for the next attach.
#[derive(Debug, Clone, Default)]
pub struct OverlayEdits {
    rows: RowArena,
    num_edges: usize,
    /// Delta hash carried through [`DeltaOverlay::detach`]; `None` for
    /// edit sets rebuilt from serialised rows ([`OverlayEdits::from_rows`]),
    /// where the base — and hence the diff — is unknown until
    /// [`DeltaOverlay::attach`] recomputes it.
    delta_hash: Option<u64>,
}

impl OverlayEdits {
    /// Number of rows that have diverged from the base.
    pub fn dirty_rows(&self) -> usize {
        self.rows.dirty.len()
    }

    /// `true` when no row diverges from the base.
    pub fn is_clean(&self) -> bool {
        self.rows.dirty.is_empty()
    }

    /// Edge count of these edits over `base` — `base`'s own count for
    /// the empty (never-attached) edit set.
    pub fn num_edges_over(&self, base: &CsrGraph) -> usize {
        if self.rows.slots.is_empty() {
            base.num_edges()
        } else {
            self.num_edges
        }
    }

    /// The materialised (node, sorted neighbour row) pairs in ascending
    /// node order — the canonical serialisation the stream snapshot
    /// writes.
    pub fn dirty_rows_sorted(&self) -> Vec<(NodeId, &[NodeId])> {
        let mut nodes = self.rows.dirty.clone();
        nodes.sort_unstable();
        nodes
            .into_iter()
            .map(|u| {
                (
                    u,
                    self.rows
                        .row(u)
                        // ba-lint: allow(panic-path) -- u comes from the dirty list, and a node only enters dirty when its slot is filled
                        .expect("dirty row is materialised"),
                )
            })
            .collect()
    }

    /// The current edge set of these edits over `base` as a standalone
    /// [`Graph`], read in place: the same graph as attaching them to
    /// `base` and calling [`DeltaOverlay::to_graph`], without moving or
    /// cloning the edit set.
    ///
    /// # Panics
    /// Panics if non-empty edits cover a different node count.
    pub fn to_graph_over(&self, base: &CsrGraph) -> Graph {
        if self.is_clean() {
            return base.to_graph();
        }
        assert_eq!(
            self.rows.slots.len(),
            base.num_nodes(),
            "edits detached from a different base"
        );
        Graph::from_rows(
            self.num_edges,
            (0..base.num_nodes() as NodeId)
                .map(|u| self.rows.row(u).unwrap_or_else(|| base.neighbors_sorted(u))),
        )
    }

    /// Rebuilds an edit set from its canonical serialisation: the total
    /// node count, the current edge count, and the materialised rows. A
    /// node given twice keeps its last row.
    pub fn from_rows(
        num_nodes: usize,
        num_edges: usize,
        dirty_rows: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    ) -> Self {
        Self::try_from_rows(num_nodes, num_edges, dirty_rows)
            .unwrap_or_else(|e| panic!("slot table for {num_nodes} nodes: {e}"))
    }

    /// [`OverlayEdits::from_rows`] for a `num_nodes` read from outside
    /// the process: the slot table is reserved with `try_reserve_exact`,
    /// so a count that cannot be allocated is an error, not an abort.
    pub fn try_from_rows(
        num_nodes: usize,
        num_edges: usize,
        dirty_rows: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    ) -> Result<Self, std::collections::TryReserveError> {
        let mut rows = RowArena::default();
        rows.slots.try_reserve_exact(num_nodes)?;
        rows.slots.resize(num_nodes, Slot::default());
        for (u, row) in dirty_rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted");
            rows.push_row(u, &row);
        }
        Ok(Self {
            rows,
            num_edges,
            delta_hash: None,
        })
    }
}

/// Where a node's row lives in a [`RowArena`]: `len` entries from
/// `start`, with room for `cap`. `cap == 0` means the row has not
/// diverged and is served from the base. A row lists distinct `u32` ids
/// other than its own node, so `len` fits a `u32`.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    start: usize,
    len: u32,
    cap: u32,
}

/// Spare entries a row gets when it is first materialised, so its first
/// few inserts patch it where it is.
const SLACK: usize = 4;

/// The materialised rows of an overlay, packed into one buffer.
#[derive(Debug, Clone, Default)]
struct RowArena {
    /// One slot per node; empty for the never-attached edit set.
    slots: Vec<Slot>,
    /// Row storage. A row that outgrows its slot moves to the end and
    /// leaves its old range dead until the next [`RowArena::clear`].
    arena: Vec<NodeId>,
    /// Nodes whose row is materialised (for O(dirty) reset).
    dirty: Vec<NodeId>,
}

impl RowArena {
    /// An empty arena over `n` nodes with room for `reserve` entries.
    fn with_nodes(n: usize, reserve: usize) -> Self {
        Self {
            slots: vec![Slot::default(); n],
            arena: Vec::with_capacity(reserve),
            dirty: Vec::new(),
        }
    }

    /// `u`'s materialised row, or `None` when it is served from the base.
    #[inline]
    fn row(&self, u: NodeId) -> Option<&[NodeId]> {
        let s = self.slots[u as usize];
        if s.cap == 0 {
            None
        } else {
            Some(&self.arena[s.start..s.start + s.len as usize])
        }
    }

    /// `u`'s row, appended from `base` with [`SLACK`] on first touch.
    fn materialise(&mut self, u: NodeId, base: &CsrGraph) -> &[NodeId] {
        if self.slots[u as usize].cap == 0 {
            self.push_row(u, base.neighbors_sorted(u));
        }
        let s = self.slots[u as usize];
        &self.arena[s.start..s.start + s.len as usize]
    }

    /// Appends `row` with [`SLACK`] as `u`'s materialised row; a row
    /// `u` already had is left dead in place.
    fn push_row(&mut self, u: NodeId, row: &[NodeId]) {
        let start = self.arena.len();
        let cap = (row.len() + SLACK).min(u32::MAX as usize);
        self.arena.extend_from_slice(row);
        self.arena.resize(start + cap, 0);
        let slot = &mut self.slots[u as usize];
        if slot.cap == 0 {
            self.dirty.push(u);
        }
        *slot = Slot {
            start,
            len: row.len() as u32,
            cap: cap as u32,
        };
    }

    /// Inserts `v` at `pos` of `u`'s materialised row. A full row moves
    /// to the arena's end at double capacity (or grows where it is, if
    /// it already ends the arena).
    fn insert(&mut self, u: NodeId, pos: usize, v: NodeId) {
        let slot = &mut self.slots[u as usize];
        let len = slot.len as usize;
        if slot.len == slot.cap {
            let cap = slot.cap.saturating_mul(2);
            let end = self.arena.len();
            if slot.start + len != end {
                self.arena.extend_from_within(slot.start..slot.start + len);
                slot.start = end;
            }
            self.arena.resize(slot.start + cap as usize, 0);
            slot.cap = cap;
        }
        let s = slot.start;
        self.arena.copy_within(s + pos..s + len, s + pos + 1);
        self.arena[s + pos] = v;
        slot.len += 1;
    }

    /// Removes the entry at `pos` of `u`'s materialised row.
    fn remove(&mut self, u: NodeId, pos: usize) {
        let slot = &mut self.slots[u as usize];
        let (s, len) = (slot.start, slot.len as usize);
        self.arena.copy_within(s + pos + 1..s + len, s + pos);
        slot.len -= 1;
    }

    /// Drops every materialised row in O(dirty), freeing nothing.
    fn clear(&mut self) {
        for &u in &self.dirty {
            self.slots[u as usize] = Slot::default();
        }
        self.dirty.clear();
        self.arena.clear();
    }
}

impl<'a> DeltaOverlay<'a> {
    /// A fresh overlay with no edits. Its arena is reserved up front
    /// for as many entries as the base's column array (`2·m`), so an
    /// overlay that is reset and reused, as an attack session's is, does
    /// not reallocate it in the middle of a search: a buffer that grows
    /// there and then lives on is placed between the search's large
    /// transient buffers and fragments the heap. Reserved entries that
    /// are never written cost no resident memory.
    pub fn new(base: &'a CsrGraph) -> Self {
        Self::with_reserve(base, 2 * base.num_edges())
    }

    fn with_reserve(base: &'a CsrGraph, reserve: usize) -> Self {
        Self {
            base,
            rows: RowArena::with_nodes(base.num_nodes(), reserve),
            num_edges: base.num_edges(),
            delta_hash: 0,
        }
    }

    /// Re-attaches detached edits to their base. An empty
    /// (default-constructed) edit set attaches to any base as a fresh
    /// overlay, with no arena reserved: such edits are kept across
    /// batches and folded in by [`CsrGraph::absorb`], which releases the
    /// arena anyway. Any other edit set must come from
    /// [`DeltaOverlay::detach`] or [`CsrGraph::absorb`] against the
    /// *same* base (enforced by row count only — callers own the
    /// pairing).
    pub fn attach(base: &'a CsrGraph, edits: OverlayEdits) -> Self {
        if edits.rows.slots.is_empty() {
            return Self::with_reserve(base, 0);
        }
        assert_eq!(
            edits.rows.slots.len(),
            base.num_nodes(),
            "edits detached from a different base"
        );
        let delta_hash = edits
            .delta_hash
            .unwrap_or_else(|| recompute_delta_hash(base, &edits.rows));
        Self {
            base,
            rows: edits.rows,
            num_edges: edits.num_edges,
            delta_hash,
        }
    }

    /// Splits the overlay into its owned edit state, releasing the
    /// borrow of the base. Inverse of [`DeltaOverlay::attach`].
    pub fn detach(self) -> OverlayEdits {
        OverlayEdits {
            rows: self.rows,
            num_edges: self.num_edges,
            delta_hash: Some(self.delta_hash),
        }
    }

    /// The frozen base graph.
    pub fn base(&self) -> &'a CsrGraph {
        self.base
    }

    /// Number of rows that have diverged from the base.
    pub fn dirty_rows(&self) -> usize {
        self.rows.dirty.len()
    }

    /// XOR of [`edge_key`] over the pairs toggled relative to the base:
    /// `0` when clean, maintained in O(1) per edge edit. XOR's
    /// self-inverse property makes it path-independent — only the
    /// current symmetric difference matters, not how it was reached.
    #[inline]
    pub fn delta_hash(&self) -> u64 {
        self.delta_hash
    }

    /// Zobrist hash of the *current* edge set: the frozen base's hash
    /// with the toggled pairs folded in. Always equals
    /// [`edge_set_hash`] of the materialised edge set (pinned by
    /// proptest).
    #[inline]
    pub fn edge_set_hash(&self) -> u64 {
        self.base.edge_hash ^ self.delta_hash
    }

    /// Drops all edits, returning to the base edge set in
    /// `O(dirty rows)` without freeing anything.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.num_edges = self.base.num_edges();
        self.delta_hash = 0;
    }

    /// Materialises a standalone [`Graph`] of the current edge set.
    pub fn to_graph(&self) -> Graph {
        Graph::from_view(self)
    }

    /// Materialises the overlay back into a fresh frozen [`CsrGraph`],
    /// byte-identical to rebuilding a CSR from the current edge set
    /// from scratch (`CsrGraph::from_view`). The base is copied and the
    /// edits are folded into the copy as [`CsrGraph::absorb`] folds
    /// them into the base itself.
    pub fn compact(&self) -> CsrGraph {
        let mut dirty = self.rows.dirty.clone();
        dirty.sort_unstable();
        let mut fresh = self.base.clone();
        fresh.patch_rows(&self.rows, &dirty, self.num_edges);
        // XOR-folding is set-associative, so the frozen hash of the
        // compacted graph is exactly base ⊕ delta — no rescan.
        fresh.edge_hash ^= self.delta_hash;
        fresh
    }

    /// Inserts `v` into `u`'s row; `true` if it was absent.
    fn half_add(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.rows.materialise(u, self.base).binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.rows.insert(u, pos, v);
                true
            }
        }
    }

    /// Removes `v` from `u`'s row; `true` if it was present.
    fn half_remove(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.rows.materialise(u, self.base).binary_search(&v) {
            Ok(pos) => {
                self.rows.remove(u, pos);
                true
            }
            Err(_) => false,
        }
    }
}

impl GraphView for DeltaOverlay<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn neighbors_sorted(&self, u: NodeId) -> &[NodeId] {
        match self.rows.row(u) {
            Some(row) => row,
            None => self.base.neighbors_sorted(u),
        }
    }
}

impl EditableGraph for DeltaOverlay<'_> {
    fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        assert!(
            (u as usize) < self.num_nodes() && (v as usize) < self.num_nodes(),
            "node id out of range"
        );
        if self.half_add(u, v) {
            self.half_add(v, u);
            self.num_edges += 1;
            self.delta_hash ^= edge_key(u, v);
            true
        } else {
            false
        }
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || (u as usize) >= self.num_nodes() || (v as usize) >= self.num_nodes() {
            return false;
        }
        if self.half_remove(u, v) {
            self.half_remove(v, u);
            self.num_edges -= 1;
            self.delta_hash ^= edge_key(u, v);
            true
        } else {
            false
        }
    }
}

/// Rebuilds the delta hash of deserialised edits by diffing each
/// materialised row against the base. Symmetric edits guarantee every
/// toggled pair `{u, v}` shows up as a diff in *both* endpoint rows, so
/// counting it only at the smaller endpoint folds each key exactly
/// once. O(Σ deg over dirty rows) — paid only on snapshot restore,
/// never on the toggle path.
fn recompute_delta_hash(base: &CsrGraph, rows: &RowArena) -> u64 {
    let mut h = 0u64;
    for &u in &rows.dirty {
        let cur = rows
            .row(u)
            // ba-lint: allow(panic-path) -- u iterates the dirty list, and a node only enters dirty when its slot is filled
            .expect("dirty row is materialised");
        let old = base.neighbors_sorted(u);
        // Walk the symmetric difference of two sorted rows.
        let (mut i, mut j) = (0, 0);
        let mut fold = |v: NodeId| {
            if v > u {
                h ^= edge_key(u, v);
            }
        };
        while i < cur.len() && j < old.len() {
            match cur[i].cmp(&old[j]) {
                std::cmp::Ordering::Less => {
                    fold(cur[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    fold(old[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        cur[i..].iter().chain(&old[j..]).for_each(|&v| fold(v));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeOp;

    fn sample() -> Graph {
        Graph::from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn csr_matches_graph_view() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.num_nodes(), g.num_nodes());
        assert_eq!(csr.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(csr.neighbors_sorted(u), g.neighbors_sorted(u));
            assert_eq!(csr.degree(u), g.degree(u));
        }
        assert!(csr.has_edge(2, 0));
        assert!(!csr.has_edge(0, 5));
        assert_eq!(csr.common_neighbors(0, 1), 1);
        assert_eq!(csr.to_graph(), g);
    }

    #[test]
    fn csr_offsets_shape() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.offsets(), &[0, 1, 3, 4]);
        assert_eq!(csr.cols(), &[1, 0, 2, 1]);
    }

    #[test]
    fn overlay_toggles_and_resets() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        assert_eq!(ov.dirty_rows(), 0);

        let op = ov.toggle_edge(0, 3).unwrap();
        assert_eq!(op, EdgeOp::new(0, 3, true));
        assert!(ov.has_edge(0, 3));
        assert_eq!(ov.num_edges(), g.num_edges() + 1);
        assert_eq!(ov.dirty_rows(), 2);

        let op = ov.toggle_edge(0, 1).unwrap();
        assert_eq!(op, EdgeOp::new(0, 1, false));
        assert!(!ov.has_edge(1, 0));
        // Untouched rows still come from the base.
        assert_eq!(ov.neighbors_sorted(5), csr.neighbors_sorted(5));

        ov.reset();
        assert_eq!(ov.dirty_rows(), 0);
        assert_eq!(ov.num_edges(), g.num_edges());
        assert_eq!(ov.to_graph(), g);
    }

    #[test]
    fn overlay_self_loop_rejected() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        assert!(ov.toggle_edge(2, 2).is_none());
        assert!(!ov.add_edge(2, 2));
        assert_eq!(ov.num_edges(), g.num_edges());
    }

    #[test]
    fn overlay_apply_ops_matches_graph() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let ops = [
            EdgeOp::new(0, 3, true),
            EdgeOp::new(0, 1, false),
            EdgeOp::new(2, 5, true),
        ];
        let mut ov = DeltaOverlay::new(&csr);
        EditableGraph::apply_ops(&mut ov, &ops);
        assert_eq!(ov.to_graph(), g.with_ops(&ops));
    }

    #[test]
    fn compact_equals_from_scratch_rebuild() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        // No edits: compaction is an identical clone of the base.
        assert_eq!(ov.compact(), csr);
        for (u, v) in [(0u32, 3u32), (0, 1), (2, 5), (4, 5), (1, 5)] {
            ov.toggle_edge(u, v);
        }
        let compacted = ov.compact();
        let rebuilt = CsrGraph::from_view(&ov);
        assert_eq!(compacted, rebuilt);
        assert_eq!(compacted.num_edges(), ov.num_edges());
        assert_eq!(compacted.to_graph(), ov.to_graph());
    }

    #[test]
    fn absorb_in_place_equals_from_scratch_rebuild() {
        // Rows both grow and shrink, so clean blocks shift both ways.
        let g = crate::generators::barabasi_albert(60, 3, 11);
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        for (u, v) in [(0u32, 59u32), (1, 2), (30, 31), (0, 1), (58, 3), (10, 45)] {
            ov.toggle_edge(u, v);
        }
        let rebuilt = CsrGraph::from_view(&ov);
        assert_eq!(rebuilt.edge_hash(), edge_set_hash(&ov));
        let (n, m) = (ov.num_nodes(), ov.num_edges());
        let edits = ov.detach();
        let rows: Vec<(NodeId, Vec<NodeId>)> = edits
            .dirty_rows_sorted()
            .into_iter()
            .map(|(u, r)| (u, r.to_vec()))
            .collect();
        let mut folded = csr.clone();
        folded.absorb(edits);
        assert_eq!(folded, rebuilt);
        // Rows rebuilt from a snapshot carry no delta hash; absorb
        // derives it from the base.
        let mut restored = csr.clone();
        restored.absorb(OverlayEdits::from_rows(n, m, rows));
        assert_eq!(restored, rebuilt);
        // An empty edit set leaves the graph untouched.
        folded.absorb(OverlayEdits::default());
        assert_eq!(folded, rebuilt);
    }

    #[test]
    fn edits_read_in_place_equal_the_attached_overlay() {
        let g = crate::generators::barabasi_albert(60, 3, 11);
        let csr = CsrGraph::from(&g);
        assert_eq!(OverlayEdits::default().to_graph_over(&csr), g);
        let mut ov = DeltaOverlay::new(&csr);
        for (u, v) in [(0u32, 59u32), (1, 2), (30, 31), (0, 1), (58, 3)] {
            ov.toggle_edge(u, v);
        }
        let expected = ov.to_graph();
        let edits = ov.detach();
        assert_eq!(edits.to_graph_over(&csr), expected);
        let mut ov = DeltaOverlay::attach(&csr, edits);
        ov.reset();
        assert_eq!(ov.detach().to_graph_over(&csr), g);
    }

    #[test]
    fn detach_attach_roundtrip_preserves_state() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        ov.toggle_edge(0, 3);
        ov.toggle_edge(0, 1);
        let expected = ov.to_graph();
        let edits = ov.detach();
        assert_eq!(edits.dirty_rows(), 3);
        assert!(!edits.is_clean());
        let ov = DeltaOverlay::attach(&csr, edits);
        assert_eq!(ov.to_graph(), expected);
        assert_eq!(ov.num_edges(), expected.num_edges());
        // The default edit set attaches to any base as a fresh overlay.
        let fresh = DeltaOverlay::attach(&csr, OverlayEdits::default());
        assert_eq!(fresh.to_graph(), g);
    }

    #[test]
    fn overlay_edits_canonical_serialisation_roundtrip() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        for (u, v) in [(0u32, 3u32), (2, 5), (0, 1)] {
            ov.toggle_edge(u, v);
        }
        let (n, m) = (ov.num_nodes(), ov.num_edges());
        let expected = ov.to_graph();
        let edits = ov.detach();
        let rows: Vec<(NodeId, Vec<NodeId>)> = edits
            .dirty_rows_sorted()
            .into_iter()
            .map(|(u, r)| (u, r.to_vec()))
            .collect();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "rows not sorted");
        let restored = OverlayEdits::from_rows(n, m, rows);
        assert_eq!(DeltaOverlay::attach(&csr, restored).to_graph(), expected);
    }

    #[test]
    fn incremental_hash_tracks_materialised_edge_set() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.edge_hash(), edge_set_hash(&g));
        let mut ov = DeltaOverlay::new(&csr);
        assert_eq!(ov.delta_hash(), 0);
        assert_eq!(ov.edge_set_hash(), csr.edge_hash());
        for (u, v) in [(0u32, 3u32), (0, 1), (2, 5), (0, 3), (4, 5)] {
            ov.toggle_edge(u, v);
            assert_eq!(ov.edge_set_hash(), edge_set_hash(&ov), "after ({u},{v})");
        }
        // Compaction freezes the same hash a from-scratch rebuild gets.
        assert_eq!(
            ov.compact().edge_hash(),
            CsrGraph::from_view(&ov).edge_hash()
        );
        ov.reset();
        assert_eq!(ov.delta_hash(), 0);
        assert_eq!(ov.edge_set_hash(), csr.edge_hash());
    }

    #[test]
    fn hash_survives_detach_attach_and_row_serialisation() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        for (u, v) in [(0u32, 3u32), (0, 1), (2, 5)] {
            ov.toggle_edge(u, v);
        }
        let expected = ov.delta_hash();
        // detach/attach carries the hash verbatim.
        let edits = ov.detach();
        let ov = DeltaOverlay::attach(&csr, edits);
        assert_eq!(ov.delta_hash(), expected);
        // from_rows drops it; attach recomputes the identical value
        // from the row diff (the snapshot-restore path).
        let (n, m) = (ov.num_nodes(), ov.num_edges());
        let rows: Vec<(NodeId, Vec<NodeId>)> = ov
            .detach()
            .dirty_rows_sorted()
            .into_iter()
            .map(|(u, r)| (u, r.to_vec()))
            .collect();
        let restored = OverlayEdits::from_rows(n, m, rows);
        let ov = DeltaOverlay::attach(&csr, restored);
        assert_eq!(ov.delta_hash(), expected);
        assert_eq!(ov.edge_set_hash(), edge_set_hash(&ov));
    }

    #[test]
    fn overlay_rows_stay_sorted() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        let mut ov = DeltaOverlay::new(&csr);
        for v in [5u32, 3, 4] {
            ov.toggle_edge(1, v);
        }
        let row = ov.neighbors_sorted(1);
        assert!(row.windows(2).all(|w| w[0] < w[1]), "row = {row:?}");
    }
}
