//! Analytic gradient of the bi-level surrogate objective.
//!
//! Loss (paper Eq. (5a)): `L = Σ_{a∈T} (E_a − e^{ρ_a})²` with
//! `ρ_a = β0 + β1 u_a`, `u = ln N`, `v = ln E`, and `β = S⁻¹ c` the OLS
//! solution over all nodes (`S = XᵀX`, `c = Xᵀv`, `X = [1, u]`).
//!
//! Because the lower-level problem (OLS) has a closed form, the total
//! derivative does too. With `r_a = E_a − e^{ρ_a}`:
//!
//! * `gβ = (−2 Σ_a r_a e^{ρ_a}, −2 Σ_a r_a e^{ρ_a} u_a)` and `w = S⁻¹ gβ`;
//! * `dL/dv_k = w₀ + w₁ u_k` (β-path only);
//! * `dL/du_k = [k∈T](−2 r_k e^{ρ_k} β₁) + (−β₁ w₀ + (v_k − β₀ − 2u_k β₁) w₁)`;
//! * `gN_k = (dL/du_k) / N_k`, `gE_k = [k∈T] 2 r_k + (dL/dv_k) / E_k`;
//! * for the unordered pair `{i,j}` (both `A_ij` and `A_ji` flip):
//!   `G_ij = (h_i + h_j) + (A²)_ij (gE_i + gE_j) + (A·diag(gE)·A)_ij`
//!   with `h = gN + gE`.
//!
//! The `(A²)`/`(A diag A)` terms come from `E_k = N_k + ½(A³)_kk`:
//! differentiating `tr(diag(gE/2)·A³)` w.r.t. a symmetric pair
//! perturbation yields exactly those common-neighbour sums — so on a
//! *binary* graph the whole pair gradient is a sorted-merge
//! common-neighbour scan, `O(deg(i) + deg(j))` per pair, with no `n×n`
//! matrix anywhere ([`pair_grad`], [`assemble_pair_grads_into`]). The
//! dense fallback for fractional adjacencies (ContinuousA only) lives in
//! [`crate::dense`]. Everything here is verified against `ba-autodiff`
//! and finite differences in `tests/grad_check.rs`.
//!
//! A whole-candidate-set assembly is one row kernel (see
//! [`assemble_pair_grads_into`]): each row of candidates sharing a
//! smaller endpoint is either scattered through an `n`-length row buffer
//! or computed by per-pair merges, whichever a per-row cost estimate
//! says is cheaper. The candidate range is split into equal contiguous
//! chunks, one per crew thread (`split.rs`). The attacks' search loops
//! run their passes on one crew over the same partition, chunk by chunk:
//! BinarizedAttack's assembly through `assemble_chunk`, so each thread
//! steps on the gradients it wrote, and GradMaxSearch's through
//! `argmax_chunk`; a one-shot assembly runs a one-pass crew. The
//! straight-through sign `1 − 2A₀` can be folded into the assembly, and
//! the kernel hands each finished entry to one of two sinks: one stores
//! it and keeps `max |G|`, so a PGD iteration makes one candidate-length
//! pass for its backward step; the other keeps only the best
//! sign-consistent entry, so a greedy step writes no candidate-length
//! buffer at all.
//! A `Full` set's scatter finds its place in each neighbour list with a
//! per-node cursor that advances one entry per row, and its combine runs
//! without a branch per entry: a select between the two arms of the
//! combine, the sign and the mask as bit operations, and four max lanes.
//! Both row methods are pinned bit for bit, at any worker count and with
//! chunk cuts inside rows, to the [`correction_map`] reference.

use crate::loss::{fit_beta, safe_exp, LossError};
use crate::pair::Candidates;
use crate::split::{self, with_crew, Cells, Partition};
use ba_graph::view::merge_count_weighted;
use ba_graph::{GraphView, NodeId};
use std::collections::BTreeMap;
use std::mem::take;
use std::ops::Range;

/// Per-node derivatives of the surrogate loss, plus the fitted regression
/// and the loss value itself (the forward pass is a by-product).
#[derive(Debug, Clone)]
pub struct NodeGrads {
    /// Surrogate loss at the evaluated features.
    pub loss: f64,
    /// Fitted intercept `β0`.
    pub beta0: f64,
    /// Fitted slope `β1`.
    pub beta1: f64,
    /// `dL/dN_k` (total derivative, including the regression path).
    pub g_n: Vec<f64>,
    /// `dL/dE_k` (total derivative, including the regression path).
    pub g_e: Vec<f64>,
    /// `h = g_n + g_e` — the per-endpoint part of the pair gradient.
    pub h: Vec<f64>,
}

/// Computes [`NodeGrads`] from raw feature vectors.
///
/// `targets` must be in range; features may be fractional (ContinuousA).
pub fn node_grads(n: &[f64], e: &[f64], targets: &[NodeId]) -> Result<NodeGrads, LossError> {
    let n_nodes = n.len();
    if targets.iter().any(|&t| (t as usize) >= n_nodes) {
        return Err(LossError::TargetOutOfRange);
    }
    let (u, v) = ba_oddball::log_features(n, e);
    let (b0, b1) = fit_beta(&u, &v)?;

    // Normal-equation sums (S entries).
    let nn = n_nodes as f64;
    let su: f64 = u.iter().sum();
    let suu: f64 = u.iter().map(|x| x * x).sum();

    // Target residuals and gβ.
    let mut is_target = vec![false; n_nodes];
    let mut loss = 0.0;
    let mut gb0 = 0.0;
    let mut gb1 = 0.0;
    for &a in targets {
        let k = a as usize;
        is_target[k] = true;
        let rho = b0 + b1 * u[k];
        let exp_rho = safe_exp(rho);
        let r = e[k].max(1.0) - exp_rho;
        loss += r * r;
        gb0 += -2.0 * r * exp_rho;
        gb1 += -2.0 * r * exp_rho * u[k];
    }

    // w = S⁻¹ gβ (S is symmetric).
    let (w0, w1) = ba_linalg::solve2(nn, su, su, suu, gb0, gb1)
        .map_err(|_| LossError::DegenerateRegression)?;

    let mut g_n = vec![0.0; n_nodes];
    let mut g_e = vec![0.0; n_nodes];
    let mut h = vec![0.0; n_nodes];
    for k in 0..n_nodes {
        // β-path derivatives.
        let dl_dv = w0 + w1 * u[k];
        let mut dl_du = -b1 * w0 + (v[k] - b0 - 2.0 * u[k] * b1) * w1;
        let mut dl_de_direct = 0.0;
        if is_target[k] {
            let rho = b0 + b1 * u[k];
            let exp_rho = safe_exp(rho);
            let r = e[k].max(1.0) - exp_rho;
            dl_du += -2.0 * r * exp_rho * b1;
            dl_de_direct = 2.0 * r;
        }
        // Chain through the clamped logs: d ln(max(x,1))/dx = 1/x for
        // x ≥ 1, 0 below the clamp.
        let du_dn = if n[k] >= 1.0 { 1.0 / n[k] } else { 0.0 };
        let dv_de = if e[k] >= 1.0 { 1.0 / e[k] } else { 0.0 };
        g_n[k] = dl_du * du_dn;
        g_e[k] = dl_de_direct + dl_dv * dv_de;
        h[k] = g_n[k] + g_e[k];
    }
    Ok(NodeGrads {
        loss,
        beta0: b0,
        beta1: b1,
        g_n,
        g_e,
        h,
    })
}

/// Gradient of the loss w.r.t. the single unordered pair `{i, j}` on a
/// *binary* graph, computed sparsely from common neighbours: one sorted
/// merge over the two neighbour slices, `O(deg(i) + deg(j))`.
pub fn pair_grad<V: GraphView + ?Sized>(g: &V, ng: &NodeGrads, i: NodeId, j: NodeId) -> f64 {
    debug_assert_ne!(i, j);
    pair_grad_row(g, ng, i, g.neighbors_sorted(i), j)
}

/// [`pair_grad`] with the first endpoint's neighbour slice supplied by
/// the caller. The row kernel's merged rows share a first endpoint, so
/// it fetches that row once per run of pairs instead of once per pair —
/// on a `DeltaOverlay` that fetch is an indirection through the
/// dirty-row table, and hoisting it keeps the hot loop inside the fused
/// merge kernel. The merge accumulates in ascending common neighbour,
/// whichever path ([`merge_count_weighted`]'s linear or galloping) the
/// length ratio picks, and combines with [`row_grad`], so it agrees with
/// a scattered row to the last bit.
#[inline]
fn pair_grad_row<V: GraphView + ?Sized>(
    g: &V,
    ng: &NodeGrads,
    i: NodeId,
    nbrs_i: &[NodeId],
    j: NodeId,
) -> f64 {
    let (cn, wsum) = merge_count_weighted(nbrs_i, g.neighbors_sorted(j), &ng.g_e);
    let (i, j) = (i as usize, j as usize);
    row_grad(ng.h[i], ng.g_e[i], ng.h[j], ng.g_e[j], (cn as f64, wsum))
}

/// Resolves a thread-count request: `0` means autodetect via
/// [`std::thread::available_parallelism`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Assembles the pair gradient `G_ij` for every candidate pair into
/// `out`: `out[idx]` receives [`pair_grad`] for the pair at `idx` when
/// `mask[idx]` is set, `0.0` otherwise. No `n×n` matrix is ever
/// allocated, and the result is bit-identical for any thread count and
/// whichever method each row takes — determinism the fixed-seed attack
/// equivalence tests rely on.
///
/// One row kernel. Candidates sharing a smaller endpoint `a` form one
/// contiguous run (a *row*), and each row takes one of two methods:
///
/// * **wedge scatter** — scatter the wedges `a–m–b` (`b > a`) into an
///   `n`-length `(count, Σ gE_m)` row buffer, then combine the row's run
///   of candidates from it, re-zeroing each entry as it is read. Costs
///   the row's wedges plus one pass over its candidates, and the row
///   buffer stays in L1. Every row of a `Full` set scatters: there a
///   row is dense in the pair space, and per-pair merges would re-walk
///   every adjacency list `n` times (12–17× slower).
/// * **per-pair merge** — a sorted-merge common-neighbour scan per
///   candidate, `O(deg(a) + deg(j))` each. A row of a `List` set merges
///   when that is modelled cheaper than scattering and clearing the row
///   (see `row_costs`): a `TargetNeighborhood` set for target `t` holds
///   `t` one-pair rows `(x, t)`, and scattering a whole row for one pair
///   made the kernel up to 11× slower than merging on ER 1000.
///
/// Both accumulate common-neighbour contributions in increasing `m` and
/// combine with the same expression, so they agree to the last bit. The
/// candidate range is split into equal contiguous chunks, one per
/// worker: at most `threads`, and no more than the assembly's modelled
/// cost pays for (see `split.rs`). The workers are a one-pass crew; each
/// writes its own run of `out`, with its own row buffer.
pub fn assemble_pair_grads_into<V: GraphView + Sync + ?Sized>(
    g: &V,
    ng: &NodeGrads,
    candidates: &Candidates,
    mask: &[bool],
    threads: usize,
    out: &mut [f64],
) {
    assert_eq!(out.len(), candidates.len(), "output length mismatch");
    let mut kernel = GradKernel::new(threads);
    let split = kernel.partition(g, candidates);
    kernel.assemble(g, ng, candidates, &split, mask, None, split.split_mut(out));
}

/// Time of one sorted-merge step (a compare and a branch), in halves of
/// a row-kernel adjacency touch (a streaming add): 2.5 touches. Timing
/// each method on one worker over ER (mean degree 13.5) and BA `Full`
/// and `TargetNeighborhood` instances on a 2-core VM gave 4.5–5.3 ns per
/// merge step on ER (6.9–7.0 on BA) against 1.5–2.5 ns per touch for the
/// scatter on `Full` sets.
const MERGE_STEP: usize = 5;

/// Modelled cost of one assembly of `candidates` over `g`, in row-kernel
/// adjacency touches (so one [`split::MIN_WORK`] serves every row). A
/// `Full` set scatters every row, touching each wedge once and each
/// candidate slot a constant number of times; a `List` row costs the
/// cheaper of its two methods ([`row_costs`]).
fn assembly_cost<V: GraphView + ?Sized>(g: &V, candidates: &Candidates) -> f64 {
    match candidates {
        Candidates::Full(_) => {
            let wedges: f64 = (0..g.num_nodes() as NodeId)
                .map(|m| {
                    let d = g.degree(m) as f64;
                    d * (d - 1.0) * 0.5
                })
                .sum();
            wedges + 4.0 * candidates.len() as f64
        }
        Candidates::List(pairs) => {
            let runs = pairs.chunk_by(|x, y| x.0 == y.0);
            let halves: usize = runs
                .map(|run| {
                    let (merge, scatter) = row_costs(g, run);
                    merge.min(scatter)
                })
                .sum();
            halves as f64 * 0.5
        }
    }
}

/// The two methods' modelled costs for a `List` row `run` (its pairs
/// `(a, j)`), in half row-kernel touches: `(merge, scatter)`. A merge
/// costs [`MERGE_STEP`]` · (deg a + deg j + 2)` per pair; the scatter
/// `4 · Σ_{m ∈ N(a)} deg m` (at most the row's wedges, walked to scatter
/// and to clear) plus 8 per pair. Each sum is taken only as far as the
/// comparison needs, so merging is cheaper exactly when
/// `merge < scatter`, and the smaller of the two is exact: a long row
/// stops once the scatter is known to be under the merges' floor
/// (`deg j ≥ 0`), and a one-pair row after the first few neighbour
/// degrees of `a`.
fn row_costs<V: GraphView + ?Sized>(g: &V, run: &[(NodeId, NodeId)]) -> (usize, usize) {
    let a = run[0].0;
    let mut scatters = g.neighbors_sorted(a).iter().map(|&m| 4 * g.degree(m));
    let mut scatter = 8 * run.len();
    // Grows the scatter sum past `cap`, or to its end.
    let mut scatter_past = |cap: usize| {
        while scatter <= cap {
            match scatters.next() {
                Some(cost) => scatter += cost,
                None => break,
            }
        }
        scatter
    };
    let floor = MERGE_STEP * run.len() * (g.degree(a) + 2);
    let under_floor = scatter_past(floor);
    if under_floor <= floor {
        return (floor, under_floor);
    }
    let merge = floor + MERGE_STEP * run.iter().map(|&(_, j)| g.degree(j)).sum::<usize>();
    (merge, scatter_past(merge))
}

/// One worker's scratch for the row kernel: the `n`-length row
/// accumulator, all-zero between assemblies, and the `Full` scatter's
/// per-node cursors, seeded by each assembly (see [`row_pair_grads`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct RowScratch {
    row: Vec<(f64, f64)>,
    cursor: Vec<u32>,
}

/// Reusable state of the pair-gradient assembly: the worker count and
/// one [`RowScratch`] per worker. Every call leaves the row accumulators
/// all-zero, so the next call needs no clearing pass.
#[derive(Debug, Clone)]
pub(crate) struct GradKernel {
    /// Worker threads; `0` asks for autodetection, which
    /// [`GradKernel::threads`] resolves on first use and caches, so no
    /// assembly ever resolves it.
    threads: usize,
    rows: Vec<RowScratch>,
}

impl GradKernel {
    /// A kernel with `threads` workers (`0` = autodetect).
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads,
            rows: Vec::new(),
        }
    }

    /// The partition of `candidates` that an attack's passes share: as
    /// many chunks as the assembly's modelled cost over `g` pays for
    /// ([`split::workers`]), at most the kernel's thread count.
    pub(crate) fn partition<V: GraphView + ?Sized>(
        &mut self,
        g: &V,
        candidates: &Candidates,
    ) -> Partition {
        let cost = assembly_cost(g, candidates);
        Partition::new(candidates.len(), split::workers(self.threads(), cost))
    }

    /// The kernel's thread count, autodetected on first use when it was
    /// created with `0`.
    pub(crate) fn threads(&mut self) -> usize {
        if self.threads == 0 {
            self.threads = resolve_threads(0);
        }
        self.threads
    }

    /// The row scratch of `chunks` chunks over an `n`-node graph, sized
    /// here on the calling thread and lent out by value, for a crew that
    /// keeps it for a whole search loop. Each row buffer is all-zero;
    /// hand the scratch back with [`GradKernel::restore_rows`].
    pub(crate) fn take_rows(&mut self, chunks: usize, n: usize) -> Vec<RowScratch> {
        if self.rows.len() < chunks {
            self.rows.resize_with(chunks, RowScratch::default);
        }
        let mut rows: Vec<_> = self.rows.drain(..chunks).collect();
        for scratch in &mut rows {
            if scratch.row.len() < n {
                scratch.row.resize(n, (0.0, 0.0));
                scratch.cursor.resize(n, 0);
            }
        }
        rows
    }

    /// Takes back the row scratch [`GradKernel::take_rows`] lent, each
    /// row buffer all-zero.
    pub(crate) fn restore_rows(&mut self, rows: impl IntoIterator<Item = RowScratch>) {
        let lent: Vec<_> = rows.into_iter().collect();
        self.rows.splice(0..0, lent);
    }

    /// [`assemble_pair_grads_into`] on the chunks of `split` (built for
    /// `candidates` by [`GradKernel::partition`]), into `outs`, one run
    /// of the output per chunk, in order, as a one-pass crew. With the
    /// straight-through sign fused in: when `sign` is given, entry `idx`
    /// is negated wherever `sign[idx]` is set (`G·(1 − 2A₀)` for
    /// `sign = A₀`). Returns `max |G|` over the masked entries (`0.0`
    /// when none): an exact max, folded in chunk order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble<'o, V: GraphView + Sync + ?Sized>(
        &mut self,
        g: &V,
        ng: &NodeGrads,
        candidates: &Candidates,
        split: &Partition,
        mask: &[bool],
        sign: Option<&[bool]>,
        outs: impl IntoIterator<Item = &'o mut [f64]>,
    ) -> f64 {
        let len = candidates.len();
        assert_eq!(mask.len(), len, "mask length mismatch");
        if let Some(sign) = sign {
            assert_eq!(sign.len(), len, "sign length mismatch");
        }
        assert_eq!(split.len(), len, "split length mismatch");
        let outs: Vec<&mut [f64]> = outs.into_iter().collect();
        assert_eq!(outs.len(), split.chunks(), "one output run per chunk");
        let rows = self.take_rows(split.chunks(), g.num_nodes());
        let cells = Cells::new(
            outs.into_iter()
                .zip(rows)
                .map(|(out, row)| (out, row, 0.0f64)),
        );
        with_crew(
            split.chunks(),
            |k| {
                let range = split.range(k);
                let mut cell = cells.get(k);
                let (out, row, max_abs) = &mut *cell;
                let sign = sign.map(|s| &s[range.clone()]);
                *max_abs = assemble_chunk(
                    g,
                    ng,
                    candidates,
                    range.clone(),
                    &mask[range],
                    sign,
                    out,
                    row,
                );
            },
            |crew| crew.run(),
        );
        let max_abs = cells.fold(0.0f64, |max, (_, _, chunk_max)| max.max(*chunk_max));
        self.restore_rows(cells.into_inner().map(|(_, row, _)| row));
        max_abs
    }
}

/// One chunk of an assembly pass: the row kernel over the candidates in
/// `range`, written to `out`. `mask`, `sign` and `out` are that range's
/// runs. `scratch` is the chunk's, sized for at least `n` nodes (see
/// [`GradKernel::take_rows`]); its row buffer is all-zero on entry and
/// left all-zero. Returns the run's max-abs over the mask.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_chunk<V: GraphView + ?Sized>(
    g: &V,
    ng: &NodeGrads,
    candidates: &Candidates,
    range: Range<usize>,
    mask: &[bool],
    sign: Option<&[bool]>,
    out: &mut [f64],
    scratch: &mut RowScratch,
) -> f64 {
    assert_eq!(out.len(), range.len(), "output run length mismatch");
    let mut store = Store { out, max_abs: 0.0 };
    chunk_kernel(g, ng, candidates, range, mask, sign, scratch, &mut store);
    store.max_abs
}

/// The best entry of one chunk of an assembly pass, with no output
/// written: the row kernel over the candidates in `range` as
/// [`assemble_chunk`] runs it, each finished entry `v` folded as it is
/// combined. Returns the first strict maximum of `−v` above `0.0`, as
/// `(candidate index, −v)`: the entry a strict `>` scan over
/// [`assemble_chunk`]'s output, in ascending index, would pick. So only
/// entries with `v < 0` qualify (a masked-off `+0.0` and a NaN never
/// do), and ties go to the lower index.
pub(crate) fn argmax_chunk<V: GraphView + ?Sized>(
    g: &V,
    ng: &NodeGrads,
    candidates: &Candidates,
    range: Range<usize>,
    mask: &[bool],
    sign: Option<&[bool]>,
    scratch: &mut RowScratch,
) -> Option<(usize, f64)> {
    let mut best = Argmax {
        base: range.start,
        at: None,
        abs: 0.0,
    };
    chunk_kernel(g, ng, candidates, range, mask, sign, scratch, &mut best);
    best.at.map(|idx| (idx, best.abs))
}

/// The checks and scratch set-up both chunk passes share, then the row
/// kernel into `fold`.
#[allow(clippy::too_many_arguments)]
fn chunk_kernel<V: GraphView + ?Sized, F: RowFold>(
    g: &V,
    ng: &NodeGrads,
    candidates: &Candidates,
    range: Range<usize>,
    mask: &[bool],
    sign: Option<&[bool]>,
    scratch: &mut RowScratch,
    fold: &mut F,
) {
    assert_eq!(mask.len(), range.len(), "mask run length mismatch");
    if let Some(sign) = sign {
        assert_eq!(sign.len(), range.len(), "sign run length mismatch");
    }
    let n = g.num_nodes();
    match candidates {
        Candidates::Full(ps) => {
            assert_eq!(ps.nodes(), n, "pair space does not match the graph");
        }
        Candidates::List(pairs) => debug_assert!(
            pairs[range.clone()].windows(2).all(|w| w[0] < w[1]),
            "candidate list must be sorted ascending"
        ),
    }
    let RowScratch { row, cursor } = scratch;
    let (row, cursor) = (&mut row[..n], &mut cursor[..n]);
    row_pair_grads(g, ng, candidates, mask, sign, range, row, cursor, fold);
}

/// The output entry for a candidate with gradient `grad`: `0.0` when
/// masked off (`!on`), else `grad`, negated when `flip`. Bit operations
/// on the encoding, with no branch: a sign-bit XOR for the negation,
/// then an AND that leaves `+0.0` for a masked-off entry.
#[inline]
fn finish(grad: f64, on: bool, flip: bool) -> f64 {
    let signed = grad.to_bits() ^ (u64::from(flip) << 63);
    f64::from_bits(signed & 0u64.wrapping_sub(u64::from(on)))
}

/// Where the row kernel's finished entries go, one run of a row at a
/// time, runs in ascending candidate order.
trait RowFold {
    /// Takes the entries `entry(k)`, `k` in `0..len`, of the run that
    /// starts `at` candidates into the chunk. Calls `entry` once per
    /// `k`, in ascending order.
    fn fold_run(&mut self, at: usize, len: usize, entry: impl FnMut(usize) -> f64);

    /// [`RowFold::fold_run`] for a run of a `Full` row, whose operands
    /// are slices of one length: entry `k` is `row_grad` of row `a`'s
    /// `(h_a, ge_a)` with `h[k]`, `ge[k]` and `row[k]` (re-zeroed),
    /// finished with `mask[k]` and `flip(k)`.
    #[allow(clippy::too_many_arguments)]
    fn fold_full(
        &mut self,
        at: usize,
        (h_a, ge_a): (f64, f64),
        row: &mut [(f64, f64)],
        h: &[f64],
        ge: &[f64],
        mask: &[bool],
        flip: impl Fn(usize) -> bool,
    ) {
        let len = row.len();
        assert!(h.len() == len && ge.len() == len && mask.len() == len);
        self.fold_run(at, len, |k| {
            let grad = row_grad(h_a, ge_a, h[k], ge[k], take(&mut row[k]));
            finish(grad, mask[k], flip(k))
        });
    }
}

/// The store-and-max sink: writes each entry to `out`, the chunk's run
/// of the output, and keeps `max |v|`.
struct Store<'a> {
    out: &'a mut [f64],
    max_abs: f64,
}

impl RowFold for Store<'_> {
    /// Writes the run and folds `|v|` into `max_abs`.
    #[inline]
    fn fold_run(&mut self, at: usize, len: usize, mut entry: impl FnMut(usize) -> f64) {
        for (k, out) in self.out[at..at + len].iter_mut().enumerate() {
            *out = entry(k);
            self.max_abs = self.max_abs.max(out.abs());
        }
    }

    /// Writes the run with no branch per entry and folds `|v|` into four
    /// max lanes, entry `k` in lane `k % 4`, merged at the end of the
    /// run, so no entry waits on the previous entry's max. The max is
    /// exact and every `|v|` is `+0.0` or more, so the lanes give the
    /// serial fold's result.
    #[inline]
    fn fold_full(
        &mut self,
        at: usize,
        (h_a, ge_a): (f64, f64),
        row: &mut [(f64, f64)],
        h: &[f64],
        ge: &[f64],
        mask: &[bool],
        flip: impl Fn(usize) -> bool,
    ) {
        let out = &mut self.out[at..at + row.len()];
        let lanes = combine_lanes(h_a, ge_a, row, h, ge, mask, flip, out);
        let run_max = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
        self.max_abs = self.max_abs.max(run_max);
    }
}

/// The loop of [`Store::fold_full`]: writes each entry of `out` from its
/// row slot (re-zeroed), `h`, `ge`, `mask` and `flip`, all indexed
/// alike, and returns the four lanes of `max |out|`, entry `k` in lane
/// `k % 4`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn combine_lanes(
    h_a: f64,
    ge_a: f64,
    row: &mut [(f64, f64)],
    h: &[f64],
    ge: &[f64],
    mask: &[bool],
    flip: impl Fn(usize) -> bool,
    out: &mut [f64],
) -> [f64; 4] {
    let len = out.len();
    assert!(row.len() == len && h.len() == len && ge.len() == len && mask.len() == len);
    let mut entry = |k: usize| {
        let v = finish(
            row_grad(h_a, ge_a, h[k], ge[k], take(&mut row[k])),
            mask[k],
            flip(k),
        );
        out[k] = v;
        v.abs()
    };
    // `max.max(a)` for a lane that is never NaN: a NaN `a` leaves it, as
    // `f64::max` would, and the compare-and-select has no NaN fix-up.
    let fold = |max: &mut f64, a: f64| {
        if a > *max {
            *max = a;
        }
    };
    let mut lanes = [0.0f64; 4];
    let whole = len - len % 4;
    for k in (0..whole).step_by(4) {
        for (lane, max) in lanes.iter_mut().enumerate() {
            fold(max, entry(k + lane));
        }
    }
    for (k, max) in (whole..len).zip(&mut lanes) {
        fold(max, entry(k));
    }
    lanes
}

/// The argmax sink: the first strict maximum of `−v` above `0.0` (see
/// [`argmax_chunk`]). `base` is the chunk's first candidate index.
struct Argmax {
    base: usize,
    at: Option<usize>,
    abs: f64,
}

impl RowFold for Argmax {
    /// A running `(−v, index)`, replaced only on a strict `>`, in
    /// ascending index: a new best is rare, so the branch predicts, and
    /// no entry is stored.
    #[inline]
    fn fold_run(&mut self, at: usize, len: usize, mut entry: impl FnMut(usize) -> f64) {
        for k in 0..len {
            let v = -entry(k);
            if v > self.abs {
                self.abs = v;
                self.at = Some(self.base + at + k);
            }
        }
    }
}

/// The row kernel (see [`assemble_pair_grads_into`]) over the
/// candidates in `range`, each finished entry folded into `fold`;
/// `mask` and `sign` are that range's runs. Its scatter is the
/// flat-array descendant of [`correction_map`] — same sums, no hashing,
/// no candidate-length scratch. `row` and `cursor` are `n` long; `row`
/// must be all-zero on entry and is left all-zero.
///
/// Candidates sharing a smaller endpoint are contiguous in both
/// [`Candidates`] forms, in ascending larger endpoint, so each row of
/// the pair space is one run of the chunk; `range` may start or end
/// inside a row, and such a row is computed only over the part in
/// `range` (a scattered one is scattered whole). A scatter enumerates
/// `m ∈ N(a)` ascending, then `b ∈ N(m)` past `a`, which delivers each
/// pair's contributions in ascending `m`, so its sums are bit-identical
/// to a merge's.
///
/// A `Full` set scatters its rows in ascending `a`, so where `N(m)`
/// passes `a` moves forward one entry per row: `cursor[m]` is seeded
/// once, at the chunk's first row, and row `a` reads it as the position
/// of `a` in `N(m)` (for every `m ∈ N(a)`) and advances it by one. A
/// `List` set skips rows, so its scatter finds that position by binary
/// search, as does the clearing of a `Full` row cut by a chunk edge (at
/// most two rows per chunk).
#[allow(clippy::too_many_arguments)]
fn row_pair_grads<V: GraphView + ?Sized, F: RowFold>(
    g: &V,
    ng: &NodeGrads,
    candidates: &Candidates,
    mask: &[bool],
    sign: Option<&[bool]>,
    range: Range<usize>,
    row: &mut [(f64, f64)],
    cursor: &mut [u32],
    fold: &mut F,
) {
    if range.is_empty() {
        return;
    }
    let mut sink = RowSink {
        ng,
        mask,
        sign,
        base: range.start,
        fold,
    };
    match candidates {
        Candidates::Full(ps) => {
            let n = ps.nodes();
            let (first, _) = ps.pair(range.start);
            let (last, _) = ps.pair(range.end - 1);
            for (m, at) in cursor.iter_mut().enumerate() {
                *at = g
                    .neighbors_sorted(m as NodeId)
                    .partition_point(|&b| b < first) as u32;
            }
            for a in first..=last {
                // Row `a` is the run of `{a, j}`, `j ∈ (a, n)`, from index
                // `start`; a chunk edge may leave this chunk only the
                // candidates `lo..hi`, whose larger endpoints are `cols`.
                let (au, start) = (a as usize, ps.index(a, a + 1));
                let lo = start.max(range.start);
                let hi = (start + n - 1 - au).min(range.end);
                let cols = au + 1 + (lo - start)..au + 1 + (hi - start);
                let whole = cols.len() == n - 1 - au;
                scatter_full(g, &ng.g_e, a, row, cursor);
                sink.combine_full(au, cols, lo, row);
                if !whole {
                    // Entries outside `cols` were scattered but not read.
                    scatter_row(g, &ng.g_e, a, row, true);
                }
            }
        }
        Candidates::List(pairs) => {
            let mut lo = range.start;
            for run in pairs[range].chunk_by(|x, y| x.0 == y.0) {
                let (merge, scatter) = row_costs(g, run);
                if merge < scatter {
                    sink.merge(g, lo, run);
                } else {
                    let a = run[0].0;
                    scatter_row(g, &ng.g_e, a, row, false);
                    sink.combine(lo, run, row);
                    // Wedges may land on pairs outside the list.
                    scatter_row(g, &ng.g_e, a, row, true);
                }
                lo += run.len();
            }
        }
    }
}

/// Output side of [`row_pair_grads`]: everything a row's combine pass
/// reads besides the row buffer, and the fold its entries go to. `mask`
/// and `sign` are the runs that start at candidate `base`.
struct RowSink<'a, F> {
    ng: &'a NodeGrads,
    mask: &'a [bool],
    sign: Option<&'a [bool]>,
    base: usize,
    fold: &'a mut F,
}

impl<F: RowFold> RowSink<'_, F> {
    /// Combines `run`, the part of a `List` row starting at candidate
    /// `lo`, reading and re-zeroing each row entry.
    #[inline]
    fn combine(&mut self, lo: usize, run: &[(NodeId, NodeId)], row: &mut [(f64, f64)]) {
        let ng = self.ng;
        let a = run[0].0 as usize;
        let (h_a, ge_a) = (ng.h[a], ng.g_e[a]);
        let at = lo - self.base;
        let (mask, sign) = (&self.mask[at..at + run.len()], self.sign);
        self.fold.fold_run(at, run.len(), |k| {
            let j = run[k].1 as usize;
            let grad = row_grad(h_a, ge_a, ng.h[j], ng.g_e[j], take(&mut row[j]));
            finish(grad, mask[k], sign.is_some_and(|s| s[at + k]))
        });
    }

    /// [`RowSink::combine`] by per-pair merges, with no row buffer: each
    /// masked-on pair is one merge of `N(a)`, fetched once, with `N(j)`.
    #[inline]
    fn merge<V: GraphView + ?Sized>(&mut self, g: &V, lo: usize, run: &[(NodeId, NodeId)]) {
        let (ng, a) = (self.ng, run[0].0);
        let nbrs_a = g.neighbors_sorted(a);
        let at = lo - self.base;
        let (mask, sign) = (&self.mask[at..at + run.len()], self.sign);
        self.fold.fold_run(at, run.len(), |k| {
            let on = mask[k];
            let grad = if on {
                pair_grad_row(g, ng, a, nbrs_a, run[k].1)
            } else {
                0.0
            };
            finish(grad, on, sign.is_some_and(|s| s[at + k]))
        });
    }

    /// [`RowSink::combine`] for a run of a `Full` row, whose larger
    /// endpoints are the contiguous `cols`, starting at candidate `lo`:
    /// all operands are then contiguous slices of one length, walked
    /// with no branch per entry. Both arms of [`row_grad`] are computed
    /// and one is selected; [`finish`] applies the sign and the mask as
    /// bit operations.
    #[inline]
    fn combine_full(&mut self, a: usize, cols: Range<usize>, lo: usize, row: &mut [(f64, f64)]) {
        let ng = self.ng;
        let h_a = (ng.h[a], ng.g_e[a]);
        let at = lo - self.base;
        let run = at..at + cols.len();
        let row = &mut row[cols.clone()];
        let (h, ge) = (&ng.h[cols.clone()], &ng.g_e[cols]);
        let mask = &self.mask[run.clone()];
        match self.sign {
            None => self.fold.fold_full(at, h_a, row, h, ge, mask, |_| false),
            Some(sign) => {
                let sign = &sign[run];
                self.fold.fold_full(at, h_a, row, h, ge, mask, |k| sign[k]);
            }
        }
    }
}

/// `G_ij` from `(c, w)` = `(cn, Σ gE_m)`, the one combine that scattered
/// rows, merged rows and [`pair_grad`] share. Both arms are computed
/// and `c` selects one (the `cn == 0` arm only skips adding exact
/// zeros, which could turn a `-0.0` base into `+0.0`).
#[inline]
fn row_grad(h_a: f64, ge_a: f64, h_j: f64, ge_j: f64, (c, w): (f64, f64)) -> f64 {
    let base = h_a + h_j;
    let full = base + c * (ge_a + ge_j) + w;
    if c != 0.0 {
        full
    } else {
        base
    }
}

/// Scatters row `a` of a `Full` set into `row` (see [`scatter_row`]),
/// reading and advancing the cursors (see [`row_pair_grads`]): on entry
/// `N(m)[cursor[m]] == a` for every `m ∈ N(a)`, and on exit `cursor[m]`
/// is one past it.
#[inline(always)]
fn scatter_full<V: GraphView + ?Sized>(
    g: &V,
    g_e: &[f64],
    a: NodeId,
    row: &mut [(f64, f64)],
    cursor: &mut [u32],
) {
    for &m in g.neighbors_sorted(a) {
        let gem = g_e[m as usize];
        let at = &mut cursor[m as usize];
        let nbrs_m = g.neighbors_sorted(m);
        debug_assert_eq!(nbrs_m[*at as usize], a, "cursor of {m} is not at {a}");
        *at += 1;
        for &b in &nbrs_m[*at as usize..] {
            let slot = &mut row[b as usize];
            slot.0 += 1.0;
            slot.1 += gem;
        }
    }
}

/// Scatters row `a`'s wedges `a–m–b` (`b > a`) into `row` as
/// `(count, Σ gE_m)`, in ascending `m`; with `clear`, zeroes the same
/// entries instead.
#[inline]
fn scatter_row<V: GraphView + ?Sized>(
    g: &V,
    g_e: &[f64],
    a: NodeId,
    row: &mut [(f64, f64)],
    clear: bool,
) {
    for &m in g.neighbors_sorted(a) {
        let gem = g_e[m as usize];
        let nbrs_m = g.neighbors_sorted(m);
        let from = nbrs_m.partition_point(|&b| b <= a);
        for &b in &nbrs_m[from..] {
            let slot = &mut row[b as usize];
            if clear {
                *slot = (0.0, 0.0);
            } else {
                slot.0 += 1.0;
                slot.1 += gem;
            }
        }
    }
}

/// Allocating convenience wrapper around [`assemble_pair_grads_into`].
pub fn assemble_pair_grads<V: GraphView + Sync + ?Sized>(
    g: &V,
    ng: &NodeGrads,
    candidates: &Candidates,
    mask: &[bool],
    threads: usize,
) -> Vec<f64> {
    let mut out = vec![0.0; candidates.len()];
    assemble_pair_grads_into(g, ng, candidates, mask, threads, &mut out);
    out
}

/// Packs an unordered pair into a `u64` map key.
#[inline]
fn pair_key(i: NodeId, j: NodeId) -> u64 {
    let (i, j) = if i < j { (i, j) } else { (j, i) };
    ((i as u64) << 32) | j as u64
}

/// Builds the sparse second-order correction terms for *all* pairs with
/// at least one common neighbour: for each such pair the map holds
/// `(common-neighbour count, Σ_m gE_m over common neighbours)`.
///
/// Enumerating the middle node `m` and all pairs of its neighbours costs
/// `O(Σ_m deg(m)²)` and a tree insert per wedge. The flat-buffer
/// assembly ([`assemble_pair_grads_into`]) replaced this in the attack
/// hot loops, but the map remains the independent reference
/// implementation the equivalence tests check both of its row methods
/// against. A `BTreeMap` rather than a hash map: lookups
/// are the only consumer, and the determinism contract (R2) keeps
/// randomized-iteration-order containers out of this crate entirely.
pub fn correction_map<V: GraphView + ?Sized>(g: &V, g_e: &[f64]) -> BTreeMap<u64, (f64, f64)> {
    let mut map: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for m in 0..g.num_nodes() as NodeId {
        let gem = g_e[m as usize];
        let nbrs = g.neighbors_sorted(m);
        for (ai, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[ai + 1..] {
                let entry = map.entry(pair_key(a, b)).or_insert((0.0, 0.0));
                entry.0 += 1.0;
                entry.1 += gem;
            }
        }
    }
    map
}

/// Full pair gradient as a correction lookup: `G_ij = h_i + h_j +
/// cn·(gE_i + gE_j) + Σ gE_m`, where the correction part comes from a
/// prebuilt [`correction_map`].
#[inline]
pub fn pair_grad_with_corrections(
    ng: &NodeGrads,
    corrections: &BTreeMap<u64, (f64, f64)>,
    i: NodeId,
    j: NodeId,
) -> f64 {
    let base = ng.h[i as usize] + ng.h[j as usize];
    match corrections.get(&pair_key(i, j)) {
        Some(&(cn, wsum)) => base + cn * (ng.g_e[i as usize] + ng.g_e[j as usize]) + wsum,
        None => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{edge_flags, CandidateScope};
    use ba_graph::egonet::egonet_features;
    use ba_graph::{generators, CsrGraph, DeltaOverlay, EditableGraph, Graph};

    fn feature_vectors(g: &Graph) -> (Vec<f64>, Vec<f64>) {
        let f = egonet_features(g);
        (f.n, f.e)
    }

    #[test]
    fn node_grads_loss_matches_direct_eval() {
        let g = generators::erdos_renyi(60, 0.1, 1);
        let (n, e) = feature_vectors(&g);
        let targets = [0, 5, 9];
        let ng = node_grads(&n, &e, &targets).unwrap();
        let direct = crate::loss::surrogate_loss_from_features(&n, &e, &targets).unwrap();
        assert!((ng.loss - direct).abs() < 1e-9);
    }

    #[test]
    fn node_grads_match_finite_difference_on_features() {
        // Perturb N_k / E_k directly and compare with g_n / g_e.
        let g = generators::erdos_renyi(40, 0.15, 2);
        let (n, e) = feature_vectors(&g);
        let targets = [1, 3];
        let ng = node_grads(&n, &e, &targets).unwrap();
        let h = 1e-5;
        for k in [0usize, 1, 3, 10, 20] {
            // dL/dN_k
            let mut np = n.clone();
            np[k] += h;
            let mut nm = n.clone();
            nm[k] -= h;
            let lp = crate::loss::surrogate_loss_from_features(&np, &e, &targets).unwrap();
            let lm = crate::loss::surrogate_loss_from_features(&nm, &e, &targets).unwrap();
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - ng.g_n[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "g_n[{k}]: analytic {} vs fd {fd}",
                ng.g_n[k]
            );
            // dL/dE_k
            let mut ep = e.clone();
            ep[k] += h;
            let mut em = e.clone();
            em[k] -= h;
            let lp = crate::loss::surrogate_loss_from_features(&n, &ep, &targets).unwrap();
            let lm = crate::loss::surrogate_loss_from_features(&n, &em, &targets).unwrap();
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - ng.g_e[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "g_e[{k}]: analytic {} vs fd {fd}",
                ng.g_e[k]
            );
        }
    }

    #[test]
    fn pair_grad_agrees_with_correction_map() {
        let g = generators::barabasi_albert(80, 3, 3);
        let (n, e) = feature_vectors(&g);
        let ng = node_grads(&n, &e, &[2, 7]).unwrap();
        let corr = correction_map(&g, &ng.g_e);
        for (i, j) in [(0u32, 1u32), (2, 3), (10, 40), (5, 6), (70, 79)] {
            let direct = pair_grad(&g, &ng, i, j);
            let via_map = pair_grad_with_corrections(&ng, &corr, i, j);
            assert!(
                (direct - via_map).abs() < 1e-12,
                "pair ({i},{j}): {direct} vs {via_map}"
            );
        }
    }

    #[test]
    fn assembly_bitwise_matches_correction_map_and_any_thread_count() {
        let g = generators::barabasi_albert(120, 4, 9);
        let (n, e) = feature_vectors(&g);
        let ng = node_grads(&n, &e, &[1, 17, 33]).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &[1, 17, 33]);
        let mask = vec![true; candidates.len()];
        let corr = correction_map(&g, &ng.g_e);

        let serial = assemble_pair_grads(&g, &ng, &candidates, &mask, 1);
        for threads in [2usize, 4, 7] {
            let parallel = assemble_pair_grads(&g, &ng, &candidates, &mask, threads);
            assert_eq!(serial, parallel, "thread count {threads} diverged");
        }
        candidates.for_each(|idx, i, j| {
            let via_map = pair_grad_with_corrections(&ng, &corr, i, j);
            assert_eq!(
                serial[idx], via_map,
                "pair ({i},{j}): the assembly must be bit-identical to the map path"
            );
        });
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One assembly on `kernel`, split into at most `workers` chunks: the
    /// output (NaN-filled first, so an unwritten entry shows) and its
    /// max-abs.
    fn run_on<V: GraphView + Sync + ?Sized>(
        kernel: &mut GradKernel,
        workers: usize,
        g: &V,
        ng: &NodeGrads,
        candidates: &Candidates,
        mask: &[bool],
        sign: Option<&[bool]>,
    ) -> (Vec<f64>, f64) {
        let split = Partition::new(candidates.len(), workers);
        assert!(split.chunks() <= workers.max(1));
        let mut out = vec![f64::NAN; candidates.len()];
        let outs = split.split_mut(&mut out);
        let max = kernel.assemble(g, ng, candidates, &split, mask, sign, outs);
        (out, max)
    }

    /// [`run_on`] on a fresh kernel.
    fn run<V: GraphView + Sync + ?Sized>(
        workers: usize,
        g: &V,
        ng: &NodeGrads,
        candidates: &Candidates,
        mask: &[bool],
        sign: Option<&[bool]>,
    ) -> (Vec<f64>, f64) {
        run_on(
            &mut GradKernel::new(1),
            workers,
            g,
            ng,
            candidates,
            mask,
            sign,
        )
    }

    /// How many rows of a `List` set the kernel merges and how many it
    /// scatters, when the whole set is one chunk; `(0, 0)` for a `Full`
    /// set.
    fn row_methods<V: GraphView + ?Sized>(g: &V, candidates: &Candidates) -> (usize, usize) {
        let Candidates::List(pairs) = candidates else {
            return (0, 0);
        };
        let runs = pairs.chunk_by(|x, y| x.0 == y.0);
        runs.fold((0, 0), |(merged, scattered), run| match row_costs(g, run) {
            (merge, scatter) if merge < scatter => (merged + 1, scattered),
            _ => (merged, scattered + 1),
        })
    }

    /// The map-based reference for the row kernel: `G` from
    /// [`pair_grad_with_corrections`], negated where `sign` is set, `0.0`
    /// where masked off; plus the max-abs over the mask.
    fn reference_signed<V: GraphView + ?Sized>(
        g: &V,
        ng: &NodeGrads,
        candidates: &Candidates,
        mask: &[bool],
        sign: Option<&[bool]>,
    ) -> (Vec<f64>, f64) {
        let corr = correction_map(g, &ng.g_e);
        let mut out = vec![0.0; candidates.len()];
        let mut max_abs = 0.0f64;
        candidates.for_each(|idx, i, j| {
            if mask[idx] {
                let grad = pair_grad_with_corrections(ng, &corr, i, j);
                out[idx] = if sign.is_some_and(|s| s[idx]) {
                    -grad
                } else {
                    grad
                };
                max_abs = max_abs.max(out[idx].abs());
            }
        });
        (out, max_abs)
    }

    /// An overlay with dirty rows: node 5 cut off entirely, new edges on
    /// the last row, and a few deletions and insertions elsewhere. The
    /// base graph keeps an isolated node of its own.
    fn edited_overlay(csr: &CsrGraph) -> DeltaOverlay<'_> {
        let mut ov = DeltaOverlay::new(csr);
        let last = csr.num_nodes() as NodeId - 1;
        for b in csr.neighbors_sorted(5).to_vec() {
            ov.toggle_edge(5, b);
        }
        for (i, j) in [(0, last), (40, last), (last - 1, last), (1, 2), (3, 9)] {
            ov.toggle_edge(i, j);
        }
        let a = csr.neighbors_sorted(7)[0];
        ov.toggle_edge(7, a);
        ov
    }

    /// Whether some chunk edge of `workers` chunks over a `List` set
    /// falls inside a row.
    fn cuts_inside_a_row(candidates: &Candidates, workers: usize) -> bool {
        let Candidates::List(pairs) = candidates else {
            return false;
        };
        let split = Partition::new(pairs.len(), workers);
        let inside = split
            .ranges()
            .skip(1)
            .any(|r| pairs[r.start - 1].0 == pairs[r.start].0);
        inside
    }

    #[test]
    fn row_kernel_matches_correction_map_bitwise() {
        // One node past the ER graph, so the last row starts isolated.
        // Target 0 gives a `TargetNeighborhood` list one long row, which
        // scatters; the high-id targets give it many one-pair rows
        // `(x, t)`, which merge; 2, 3 and 8 chunks cut inside rows.
        let er = generators::erdos_renyi(80, 0.08, 3);
        let isolated = er.num_nodes() as NodeId;
        let g = Graph::from_edges(er.num_nodes() + 1, er.edges());
        assert_eq!(g.degree(isolated), 0);
        let csr = CsrGraph::from(&g);
        let ov = edited_overlay(&csr);
        assert!(ov.dirty_rows() > 0);
        assert_eq!(ov.degree(5), 0, "node 5 is cut off");
        for (v, view) in [&DeltaOverlay::new(&csr), &ov].into_iter().enumerate() {
            let feats = egonet_features(view);
            let targets = [0u32, 5, 77, isolated];
            let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
            for scope in [CandidateScope::Full, CandidateScope::TargetNeighborhood] {
                let candidates = Candidates::build(scope, view, &targets);
                if scope == CandidateScope::TargetNeighborhood {
                    let (merged, scattered) = row_methods(view, &candidates);
                    assert!(
                        merged >= 50 && scattered >= 1,
                        "view {v}: {merged}, {scattered}"
                    );
                    for workers in [2, 3, 8] {
                        assert!(cuts_inside_a_row(&candidates, workers), "{workers}");
                    }
                }
                let flags = edge_flags(&candidates, &csr);
                for hole in [1usize, 3, 7] {
                    let mask: Vec<bool> = (0..candidates.len()).map(|k| k % hole != 2).collect();
                    for sign in [None, Some(flags.as_slice())] {
                        let (want, want_max) =
                            reference_signed(view, &ng, &candidates, &mask, sign);
                        for workers in [1usize, 2, 3, 8] {
                            let (out, got_max) = run(workers, view, &ng, &candidates, &mask, sign);
                            let what = format!(
                                "view {v}, {scope:?}, hole {hole}, signed {}, {workers} workers",
                                sign.is_some()
                            );
                            assert_eq!(bits(&out), bits(&want), "{what}");
                            assert_eq!(got_max.to_bits(), want_max.to_bits(), "{what}");
                            let masked_max = out
                                .iter()
                                .zip(&mask)
                                .filter(|(_, &on)| on)
                                .fold(0.0f64, |m, (x, _)| m.max(x.abs()));
                            assert_eq!(got_max, masked_max, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_row_kernel_matches_correction_map_with_cuts_inside_rows() {
        // The `Full` scatter's cursors are seeded at each chunk's first
        // row and advanced row by row. Cut the pair space of an overlay
        // with dirty rows (an emptied node, an edited last row, an
        // isolated base node) inside its first row, inside its second
        // last row and before its one-pair last row, and in between; run
        // the chunks in order on one reused scratch and compare every
        // bit, and the max, with the map-based reference.
        let er = generators::erdos_renyi(80, 0.08, 3);
        let g = Graph::from_edges(er.num_nodes() + 1, er.edges());
        let csr = CsrGraph::from(&g);
        let ov = edited_overlay(&csr);
        assert!(ov.dirty_rows() > 0 && ov.degree(5) == 0);
        let n = ov.num_nodes();
        let feats = egonet_features(&ov);
        let targets = [0u32, 5, 77];
        let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &ov, &targets);
        let len = candidates.len();
        let flags = edge_flags(&candidates, &csr);
        let row_of = |idx: usize| candidates.pair(idx).0;
        // Row 0 spans `0..n - 1`; the last row `{n - 2, n - 1}` is the
        // last candidate, after the two of row `n - 3`.
        assert_eq!((row_of(n - 2), row_of(n - 1)), (0, 1));
        assert_eq!(
            (row_of(len - 3), row_of(len - 2)),
            (n as NodeId - 3, n as NodeId - 3)
        );
        let cut_sets: [&[usize]; 5] = [
            &[1],
            &[n - 2, len - 2],
            &[3, 40, n + 5, len / 2, len - 1],
            &[len - 2, len - 1],
            &[1, 2, 3, len / 3, len / 3 + 1, 2 * len / 3, len - 2, len - 1],
        ];
        for hole in [1usize, 3] {
            let mask: Vec<bool> = (0..len).map(|k| k % hole != 2).collect();
            for sign in [None, Some(flags.as_slice())] {
                let (want, want_max) = reference_signed(&ov, &ng, &candidates, &mask, sign);
                let mut kernel = GradKernel::new(1);
                let mut scratch = kernel.take_rows(1, n).pop().unwrap();
                for cuts in cut_sets {
                    let what = format!("hole {hole}, signed {}, cuts {cuts:?}", sign.is_some());
                    let bounds: Vec<usize> =
                        [0].iter().chain(cuts).chain([&len]).copied().collect();
                    assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{what}");
                    let inside = cuts.iter().filter(|&&c| c != len - 1);
                    assert!(
                        inside.clone().all(|&c| row_of(c - 1) == row_of(c)),
                        "{what}: every cut but the last row's falls inside a row"
                    );
                    let mut out = vec![f64::NAN; len];
                    let mut max = 0.0f64;
                    for w in bounds.windows(2) {
                        let range = w[0]..w[1];
                        let sign = sign.map(|s| &s[range.clone()]);
                        let run_max = assemble_chunk(
                            &ov,
                            &ng,
                            &candidates,
                            range.clone(),
                            &mask[range.clone()],
                            sign,
                            &mut out[range],
                            &mut scratch,
                        );
                        max = max.max(run_max);
                    }
                    assert_eq!(bits(&out), bits(&want), "{what}");
                    assert_eq!(max.to_bits(), want_max.to_bits(), "{what}");
                    assert!(scratch.row.iter().all(|&s| s == (0.0, 0.0)), "{what}");
                }
                // And through the kernel's own partitions.
                for workers in [1usize, 2, 3, 5, 8] {
                    let (out, got_max) = run(workers, &ov, &ng, &candidates, &mask, sign);
                    let what = format!("hole {hole}, signed {}, {workers} workers", sign.is_some());
                    assert_eq!(bits(&out), bits(&want), "{what}");
                    assert_eq!(got_max.to_bits(), want_max.to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn argmax_sink_picks_the_first_strict_maximum_of_the_stored_run() {
        // The argmax sink must pick, per chunk, what a strict `>` scan of
        // `−v` in ascending index picks from the stored output: over both
        // candidate forms and row methods, an overlay with dirty rows,
        // masks with holes, signed and unsigned output, and chunk cuts
        // inside rows. Many ER nodes share `(N, E)` and hence `h`, so
        // equal entries, and ties, are common.
        let er = generators::erdos_renyi(80, 0.08, 3);
        let csr = CsrGraph::from(&er);
        let ov = edited_overlay(&csr);
        let mut ties = 0;
        for (v, view) in [DeltaOverlay::new(&csr), ov].iter().enumerate() {
            let feats = egonet_features(view);
            let targets = [0u32, 3, 77];
            let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
            for scope in [CandidateScope::Full, CandidateScope::TargetNeighborhood] {
                let candidates = Candidates::build(scope, view, &targets);
                let flags = edge_flags(&candidates, &csr);
                for hole in [1usize, 3] {
                    let mask: Vec<bool> = (0..candidates.len()).map(|k| k % hole != 2).collect();
                    for sign in [None, Some(flags.as_slice())] {
                        for workers in [1usize, 2, 3, 8] {
                            let split = Partition::new(candidates.len(), workers);
                            let mut scratch = GradKernel::new(1).take_rows(1, view.num_nodes());
                            let scratch = &mut scratch[0];
                            for range in split.ranges() {
                                let what = format!(
                                    "view {v}, {scope:?}, hole {hole}, signed {}, {range:?}",
                                    sign.is_some()
                                );
                                let (mask, sign) =
                                    (&mask[range.clone()], sign.map(|s| &s[range.clone()]));
                                let mut out = vec![f64::NAN; range.len()];
                                let g = view;
                                let c = &candidates;
                                assemble_chunk(
                                    g,
                                    &ng,
                                    c,
                                    range.clone(),
                                    mask,
                                    sign,
                                    &mut out,
                                    scratch,
                                );
                                let (mut want, mut abs) = (None, 0.0f64);
                                for (k, &s) in out.iter().enumerate() {
                                    ties += usize::from(want.is_some() && -s == abs);
                                    if -s > abs {
                                        (want, abs) = (Some(range.start + k), -s);
                                    }
                                }
                                let want = want.map(|idx| (idx, abs.to_bits()));
                                let got = argmax_chunk(g, &ng, c, range, mask, sign, scratch);
                                let got = got.map(|(idx, abs)| (idx, abs.to_bits()));
                                assert_eq!(got, want, "{what}");
                                assert!(scratch.row.iter().all(|&s| s == (0.0, 0.0)), "{what}");
                            }
                        }
                    }
                }
            }
        }
        assert!(ties > 0, "the instance must exercise ties");
    }

    #[test]
    fn row_kernel_leaves_its_buffer_zeroed() {
        // One kernel reused across graphs of different sizes, both
        // candidate forms and several worker counts must match a fresh
        // single-worker kernel on every call, and leave every worker's
        // row buffer all-zero.
        let big = CsrGraph::from(&generators::barabasi_albert(150, 6, 5));
        let small = CsrGraph::from(&generators::erdos_renyi(60, 0.2, 6));
        let views = [
            DeltaOverlay::new(&big),
            DeltaOverlay::new(&small),
            edited_overlay(&big),
            DeltaOverlay::new(&big),
        ];
        let mut kernel = GradKernel::new(1);
        for (v, view) in views.iter().enumerate() {
            let feats = egonet_features(view);
            let targets = [1u32, 4];
            let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
            for scope in [CandidateScope::TargetNeighborhood, CandidateScope::Full] {
                let candidates = Candidates::build(scope, view, &targets);
                let mask = vec![true; candidates.len()];
                for workers in [3, 1, 7] {
                    let (reused, _) =
                        run_on(&mut kernel, workers, view, &ng, &candidates, &mask, None);
                    assert!(
                        kernel
                            .rows
                            .iter()
                            .flat_map(|s| &s.row)
                            .all(|&slot| slot == (0.0, 0.0)),
                        "view {v}, {scope:?}, {workers} workers: row buffer left dirty"
                    );
                    let (fresh, _) = run(1, view, &ng, &candidates, &mask, None);
                    assert_eq!(bits(&reused), bits(&fresh), "view {v}, {scope:?}");
                }
            }
        }
    }

    #[test]
    fn split_assembly_is_bit_identical_at_any_worker_count() {
        // Small graphs, so the explicit worker count, not the session's
        // minimum work per chunk, decides the split. Covers both row
        // methods, both candidate forms, signed and unsigned output,
        // masks with holes, an overlay with dirty rows and an edited last
        // row, chunk edges inside rows, and more workers than rows or
        // candidates. The high-id target 77 gives the ER views'
        // `TargetNeighborhood` lists 77 one-pair rows, which merge,
        // beside target 0's long row, which scatters.
        let er = generators::erdos_renyi(80, 0.08, 3);
        let csr = CsrGraph::from(&er);
        let tiny = CsrGraph::from(&Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)]));
        let ov = edited_overlay(&csr);
        let views = [DeltaOverlay::new(&csr), ov, DeltaOverlay::new(&tiny)];
        for (v, view) in views.iter().enumerate() {
            let feats = egonet_features(view);
            let targets: &[NodeId] = if v < 2 { &[0, 3, 77] } else { &[0, 3] };
            let ng = node_grads(&feats.n, &feats.e, targets).unwrap();
            for scope in [CandidateScope::Full, CandidateScope::TargetNeighborhood] {
                let candidates = Candidates::build(scope, view, targets);
                if v < 2 && scope == CandidateScope::TargetNeighborhood {
                    let (merged, scattered) = row_methods(view, &candidates);
                    assert!(
                        merged >= 50 && scattered >= 1,
                        "view {v}: {merged}, {scattered}"
                    );
                    for workers in [2, 3, 8] {
                        assert!(cuts_inside_a_row(&candidates, workers), "{workers}");
                    }
                }
                let flags = edge_flags(&candidates, view);
                for hole in [1usize, 3] {
                    let mask: Vec<bool> = (0..candidates.len()).map(|k| k % hole != 2).collect();
                    for sign in [None, Some(flags.as_slice())] {
                        let (serial, serial_max) = run(1, view, &ng, &candidates, &mask, sign);
                        let mut kernel = GradKernel::new(1);
                        for workers in [1usize, 2, 3, 7, 8, 13] {
                            let what = format!(
                                "view {v}, {scope:?}, hole {hole}, signed {}, {workers} workers",
                                sign.is_some()
                            );
                            let (out, max) =
                                run_on(&mut kernel, workers, view, &ng, &candidates, &mask, sign);
                            assert_eq!(bits(&out), bits(&serial), "{what}");
                            assert_eq!(max.to_bits(), serial_max.to_bits(), "{what}");
                            assert!(
                                kernel
                                    .rows
                                    .iter()
                                    .flat_map(|s| &s.row)
                                    .all(|&s| s == (0.0, 0.0)),
                                "{what}: row buffer left dirty"
                            );
                        }
                    }
                }
            }
        }
        // The tiny graph's Full space has 10 candidates in 4 rows, so 7
        // workers cut inside rows and 13 get one candidate each.
        let candidates = Candidates::build(CandidateScope::Full, &tiny, &[0]);
        assert_eq!(Partition::new(candidates.len(), 7).chunks(), 7);
        assert_eq!(Partition::new(candidates.len(), 13).chunks(), 10);
    }

    #[test]
    fn for_each_range_matches_pair_decode() {
        let g = generators::erdos_renyi(40, 0.1, 2);
        for scope in [CandidateScope::Full, CandidateScope::TargetNeighborhood] {
            let candidates = Candidates::build(scope, &g, &[0, 1]);
            let len = candidates.len();
            for (start, end) in [(0, len), (len / 3, 2 * len / 3), (len - 1, len)] {
                candidates.for_each_range(start, end, |idx, i, j| {
                    assert_eq!(candidates.pair(idx), (i, j), "idx {idx}");
                });
            }
        }
    }

    #[test]
    fn assembly_identical_across_representations() {
        let g = generators::erdos_renyi(90, 0.06, 12);
        let (n, e) = feature_vectors(&g);
        let targets = [4u32, 8];
        let ng = node_grads(&n, &e, &targets).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
        let mask = vec![true; candidates.len()];
        let csr = CsrGraph::from(&g);
        let ov = DeltaOverlay::new(&csr);
        let a = assemble_pair_grads(&g, &ng, &candidates, &mask, 2);
        let b = assemble_pair_grads(&csr, &ng, &candidates, &mask, 2);
        let c = assemble_pair_grads(&ov, &ng, &candidates, &mask, 2);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn assembly_respects_mask() {
        let g = generators::erdos_renyi(30, 0.2, 5);
        let (n, e) = feature_vectors(&g);
        let ng = node_grads(&n, &e, &[0]).unwrap();
        let candidates = Candidates::build(CandidateScope::Full, &g, &[0]);
        let mut mask = vec![false; candidates.len()];
        mask[3] = true;
        let grads = assemble_pair_grads(&g, &ng, &candidates, &mask, 2);
        for (idx, &v) in grads.iter().enumerate() {
            if idx == 3 {
                let (i, j) = candidates.pair(idx);
                assert_eq!(v, pair_grad(&g, &ng, i, j));
            } else {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn empty_targets_zero_gradient() {
        let g = generators::erdos_renyi(30, 0.15, 6);
        let (n, e) = feature_vectors(&g);
        let ng = node_grads(&n, &e, &[]).unwrap();
        assert_eq!(ng.loss, 0.0);
        for k in 0..30 {
            assert_eq!(ng.g_n[k], 0.0);
            assert_eq!(ng.g_e[k], 0.0);
        }
    }
}
