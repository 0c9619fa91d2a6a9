//! The frozen CSR substrate and its copy-on-write mutation overlay.
//!
//! Attack optimisers read graph structure millions of times per run
//! (every pair gradient is a sorted-merge over two adjacency lists) but
//! mutate it rarely (one edge toggle per greedy step, a handful per PGD
//! re-binarisation). [`CsrGraph`] serves the read side: one contiguous
//! column array behind monotone row offsets and per-row lengths,
//! cache-friendly sorted neighbour slices, zero per-node allocation.
//! [`DeltaOverlay`] serves the write side: it
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
//!
//! The base keeps slack of its own. A row may use the column range up
//! to the next row's start, so [`CsrGraph::absorb`] copies each folded
//! row into its own range, O(Σ folded row length), and only when some
//! row has outgrown its range re-lays out the whole array once, with
//! room for every row to grow by an eighth plus four before the next.

use crate::view::{EditableGraph, GraphView};
use crate::zobrist::{edge_key, edge_set_hash};
use crate::{Graph, NodeId};
use std::ops::Range;

/// Compressed-sparse-row adjacency with per-row slack. Row `u` is the
/// strictly increasing neighbour list
/// `cols[offsets[u] .. offsets[u] + lens[u]]`; `offsets` is monotone and
/// the row may grow up to `offsets[u + 1]`, its *capacity*. Frozen by
/// design — edits go through a [`DeltaOverlay`], and
/// [`CsrGraph::absorb`] folds a batch of them back in. Two graphs are
/// equal when their rows, edge counts and edge hashes are, wherever
/// their slack lies.
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
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Row starts, length `n + 1`, monotone.
    offsets: Vec<usize>,
    /// Used length of each row, at most its capacity.
    lens: Vec<u32>,
    cols: Vec<NodeId>,
    num_edges: usize,
    /// Zobrist hash of the edge set (see [`crate::zobrist`]), computed
    /// once at freeze time so overlays can report their state hash in
    /// O(1) per toggle.
    edge_hash: u64,
}

/// How [`CsrGraph::absorb`] folded its edits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Every folded row fit its capacity and was copied into place; no
    /// row start moved.
    InPlace,
    /// Some row outgrew its capacity, so the column array was laid out
    /// afresh with new slack.
    Relayout,
}

/// The capacity a re-layout gives a row of `len` entries whose
/// capacity was `cap`: capacities never shrink, so row starts only move
/// right and the re-layout runs in place.
fn grown_capacity(len: usize, cap: usize) -> usize {
    cap.max(len + len / 8 + 4)
}

impl CsrGraph {
    /// Assembles a packed CSR from already-validated parts — the output
    /// path of the streamed builder [`crate::compact::from_edge_stream`].
    /// Callers guarantee the offsets/cols invariants (length `n + 1`,
    /// monotone offsets, strictly increasing rows) and that `edge_hash`
    /// matches the edge set.
    pub(crate) fn from_raw_parts(
        offsets: Vec<usize>,
        cols: Vec<NodeId>,
        num_edges: usize,
        edge_hash: u64,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), cols.len());
        debug_assert_eq!(cols.len(), 2 * num_edges);
        let lens = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        Self {
            offsets,
            lens,
            cols,
            num_edges,
            edge_hash,
        }
    }

    /// Builds the packed CSR structure from any graph view: every row's
    /// capacity is its length.
    pub fn from_view<V: GraphView + ?Sized>(g: &V) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut lens = Vec::with_capacity(n);
        let mut cols = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for u in 0..n as NodeId {
            let row = g.neighbors_sorted(u);
            cols.extend_from_slice(row);
            lens.push(row.len() as u32);
            offsets.push(cols.len());
        }
        Self {
            offsets,
            lens,
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

    /// Where `u`'s row is stored: the range of the column array it
    /// owns. The row fills the first `degree(u)` entries and may grow
    /// into the rest before a re-layout. Exposed so the layout's
    /// invariants can be checked; rows are read through
    /// [`GraphView::neighbors_sorted`].
    pub fn row_extent(&self, u: NodeId) -> Range<usize> {
        self.offsets[u as usize]..self.offsets[u as usize + 1]
    }

    /// Materialises a mutable [`Graph`] with the same edge set.
    pub fn to_graph(&self) -> Graph {
        Graph::from_view(self)
    }

    /// Folds edits detached from this graph into it in place, leaving
    /// it equal to [`CsrGraph::from_view`] of the overlay they came
    /// from. This is the *compaction* step of the streaming engine:
    /// once enough rows have diverged, overlay reads pay for the
    /// indirection and resets stop being cheap, so the edits become
    /// the new base and the overlay starts clean again. The fold never
    /// holds a second CSR, or a second column array, beside this one.
    ///
    /// When every edited row fits its capacity, each is copied into
    /// its own range and nothing else moves ([`Fold::InPlace`]).
    /// Otherwise one pass re-lays out every row ([`Fold::Relayout`]).
    ///
    /// Returns the emptied edits, clean against the folded graph: they
    /// keep their slot table, so re-attaching them allocates nothing
    /// per node, while the arena's buffer is released here.
    ///
    /// # Panics
    /// Panics if non-empty `edits` cover a different node count.
    pub fn absorb(&mut self, mut edits: OverlayEdits) -> (OverlayEdits, Fold) {
        if edits.is_clean() {
            return (edits, Fold::InPlace);
        }
        assert_eq!(
            edits.rows.slots.len(),
            self.num_nodes(),
            "edits detached from a different base"
        );
        let delta_hash = edits
            .delta_hash
            .unwrap_or_else(|| recompute_delta_hash(self, &edits.rows));
        // Copy each dirty row into its own range until one does not
        // fit. The rows copied before it are harmless: a re-layout
        // takes every dirty row from the arena, and reads the base only
        // for clean rows.
        let rows = &edits.rows;
        let mut fold = Fold::InPlace;
        for &d in &rows.dirty {
            let (row, d) = (rows.dirty_row(d), d as usize);
            let start = self.offsets[d];
            if row.len() > self.offsets[d + 1] - start {
                fold = Fold::Relayout;
                break;
            }
            self.cols[start..start + row.len()].copy_from_slice(row);
            self.lens[d] = row.len() as u32;
        }
        if fold == Fold::Relayout {
            self.relayout(rows);
        }
        self.num_edges = edits.num_edges;
        self.edge_hash ^= delta_hash;
        edits.rows.clear();
        edits.rows.arena = Vec::new();
        edits.delta_hash = Some(0);
        (edits, fold)
    }

    /// Lays the column array out afresh with every row taken from
    /// `rows` where it is materialised there and from itself otherwise,
    /// giving each the capacity [`grown_capacity`] of its new length.
    /// No capacity shrinks, so every row starts at or right of where it
    /// did, and the rows left of it are untouched until it has moved:
    /// one right-to-left pass works in place, and the array grows at
    /// most once.
    fn relayout(&mut self, rows: &RowArena) {
        let n = self.num_nodes();
        let (offsets, lens, cols) = (&mut self.offsets, &mut self.lens, &mut self.cols);
        let new_len = |lens: &[u32], u: usize| {
            rows.row(u as NodeId)
                .map_or(lens[u] as usize, <[NodeId]>::len)
        };
        let total: usize = (0..n)
            .map(|u| grown_capacity(new_len(lens, u), offsets[u + 1] - offsets[u]))
            .sum();
        cols.reserve_exact(total - cols.len());
        cols.resize(total, 0);
        // `end` is where row `u` must end; `old_end` is its old capacity's end.
        let (mut end, mut old_end) = (total, offsets[n]);
        offsets[n] = total;
        for u in (0..n).rev() {
            let (old_start, len) = (offsets[u], new_len(lens, u));
            let start = end - grown_capacity(len, old_end - old_start);
            match rows.row(u as NodeId) {
                Some(row) => cols[start..start + len].copy_from_slice(row),
                None if start != old_start => cols.copy_within(old_start..old_start + len, start),
                None => {}
            }
            offsets[u] = start;
            lens[u] = len as u32;
            (end, old_end) = (start, old_start);
        }
        debug_assert_eq!(end, 0, "row capacities do not sum to the array");
    }
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_edges == other.num_edges
            && self.edge_hash == other.edge_hash
            && self.num_nodes() == other.num_nodes()
            && (0..self.num_nodes() as NodeId)
                .all(|u| self.neighbors_sorted(u) == other.neighbors_sorted(u))
    }
}

impl Eq for CsrGraph {}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        Self::from_view(g)
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.lens.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn neighbors_sorted(&self, u: NodeId) -> &[NodeId] {
        let start = self.offsets[u as usize];
        &self.cols[start..start + self.lens[u as usize] as usize]
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
            .map(|u| (u, self.rows.dirty_row(u)))
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

    /// The row of `u`, a node on the dirty list.
    #[inline]
    fn dirty_row(&self, u: NodeId) -> &[NodeId] {
        let s = self.slots[u as usize];
        &self.arena[s.start..s.start + s.len as usize]
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
        let cur = rows.dirty_row(u);
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
    fn csr_from_view_is_packed() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let csr = CsrGraph::from(&g);
        let extents: Vec<Range<usize>> = (0..3).map(|u| csr.row_extent(u)).collect();
        assert_eq!(extents, [0..1, 1..3, 3..4]);
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
    fn absorb_relays_out_once_then_folds_in_place() {
        let g = Graph::from_edges(10, (0..9).map(|u| (u, u + 1)));
        let mut csr = CsrGraph::from(&g);
        let fold = |csr: &mut CsrGraph, pairs: &[(NodeId, NodeId)]| {
            let mut ov = DeltaOverlay::new(csr);
            for &(u, v) in pairs {
                ov.toggle_edge(u, v);
            }
            let expected = CsrGraph::from_view(&ov);
            let edits = ov.detach();
            let (edits, fold) = csr.absorb(edits);
            assert!(edits.is_clean());
            assert_eq!(*csr, expected);
            fold
        };
        // A packed row has no room to grow: the first insert re-lays
        // out every row with slack of len / 8 + 4.
        assert_eq!(fold(&mut csr, &[(0, 2)]), Fold::Relayout);
        let extents = |csr: &CsrGraph| (0..10).map(|u| csr.row_extent(u)).collect::<Vec<_>>();
        let first = extents(&csr);
        assert_eq!(first[..3], [0..6, 6..12, 12..19]);
        assert_eq!(first[9], 55..60);
        // Growth within the slack, and shrinking rows, fold in place.
        assert_eq!(fold(&mut csr, &[(0, 3), (0, 4), (1, 2)]), Fold::InPlace);
        assert_eq!(fold(&mut csr, &[(0, 1), (0, 2), (0, 3)]), Fold::InPlace);
        assert_eq!(extents(&csr), first);
        // Row 0 outgrows its 6 entries: a second re-layout, in which no
        // row start moves left and no capacity shrinks.
        let hub: Vec<(NodeId, NodeId)> = (2..10).filter(|&v| v != 4).map(|v| (0, v)).collect();
        assert_eq!(fold(&mut csr, &hub), Fold::Relayout);
        assert_eq!(csr.neighbors_sorted(0), &[2, 3, 4, 5, 6, 7, 8, 9]);
        let extents = extents(&csr);
        assert_eq!(extents[0], 0..13);
        for u in 0..10 {
            assert!(extents[u].len() >= first[u].len());
            assert!(extents[u].start >= first[u].start);
        }
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
        let (n, m, ov_hash) = (ov.num_nodes(), ov.num_edges(), ov.edge_set_hash());
        let edits = ov.detach();
        let rows: Vec<(NodeId, Vec<NodeId>)> = edits
            .dirty_rows_sorted()
            .into_iter()
            .map(|(u, r)| (u, r.to_vec()))
            .collect();
        let mut folded = csr.clone();
        folded.absorb(edits);
        assert_eq!(folded, rebuilt);
        assert_eq!(folded.edge_hash(), ov_hash);
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
        // A from-scratch rebuild recomputes the same hash.
        assert_eq!(ov.edge_set_hash(), CsrGraph::from_view(&ov).edge_hash());
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
