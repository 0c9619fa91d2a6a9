//! The dense step of ContinuousA's PGD loop (paper Sec. V-A2).
//!
//! ContinuousA relaxes the whole adjacency to `Ã ∈ [0,1]^{n×n}`, so its
//! state is genuinely dense and its products cannot be expressed as
//! common-neighbour merges. One iteration makes two passes over the upper
//! triangle of the `n × n` products:
//!
//! * **square** — `A²` for `j ≥ i`, each entry summed over ascending `k`
//!   with zero `a_ik` skipped, as in [`Matrix::matmul`]'s i-k-j loop. The
//!   features `N = A·1`, `E = N + ½ diag(A³)` (`DenseStep::features`)
//!   read `(A²)_im` for `m < i` at `(m, i)`. That equals the full
//!   product's entry bit for bit: the entries are finite and ≥ 0, so both
//!   triangles sum the same products in the same order, and a skipped
//!   zero term would have added +0.0.
//! * **gradient** — `A·diag(gE)·A` for `j > i`, summing `(a_ik·gE_k)·a_kj`
//!   over ascending `k`, and from it and `A²` the pair gradient `G_ij` at
//!   the candidates (`DenseStep::gradients`). That product is not
//!   symmetric in floating point, so it is not mirrored. The step reads
//!   `G` only at the candidates, all `i < j`, so `G` is candidate-length.
//!
//! Both passes cut the row-major packed triangle into the chunks of one
//! `Partition`. Row `i` holds `n − i` entries and costs as much, so
//! equal runs are equal work; a cut may fall mid-row. Chunk `k` owns its
//! run of `A²`, the candidates that fall in the run, their `G` and a row
//! buffer, allocated once per attack, and runs on the same thread of one
//! crew for the whole loop (`split.rs`). Every entry sums the same terms
//! in the same order at any chunk count, so results are bit-identical at
//! any thread count. The binary-graph attacks never touch this module:
//! their gradient is assembled sparsely in [`crate::grad`].

use crate::grad::{resolve_threads, NodeGrads};
use crate::pair::Candidates;
use crate::split::{self, read, with_crew, write, Cells, Crew, Partition};
use ba_linalg::Matrix;
use std::ops::Range;
use std::sync::{PoisonError, RwLock};

/// `G_ij` at every candidate of a fractional symmetric adjacency `a`, in
/// candidate order, from one dense step split across up to `threads`
/// workers (`0` ⇒ autodetect); bit-identical at any count.
pub fn dense_pair_gradients(
    a: &Matrix,
    ng: &NodeGrads,
    candidates: &Candidates,
    threads: usize,
) -> Vec<f64> {
    let dense = DenseStep::new(a.clone(), candidates, resolve_threads(threads));
    with_crew(
        dense.chunks(),
        |k| dense.run(k),
        |crew| {
            dense.features(crew);
            dense.gradients(crew, ng.clone());
        },
    );
    let chunks = dense.cells.into_inner();
    chunks.flat_map(|chunk| chunk.grads).collect()
}

/// ContinuousA's relaxed adjacency and its dense passes' buffers, for
/// one attack. Run a crew on [`DenseStep::run`], then per iteration
/// [`DenseStep::features`], [`DenseStep::gradients`] and
/// [`DenseStep::step`].
pub(crate) struct DenseStep<'c> {
    candidates: &'c Candidates,
    cells: Cells<Chunk>,
    /// Written by the caller between passes, read by the crew in them.
    state: RwLock<State>,
}

struct State {
    /// The relaxed adjacency `Ã`.
    a: Matrix,
    /// The gradient pass's node gradients; `None` for the square pass.
    ng: Option<NodeGrads>,
}

/// Chunk `k`'s share of both passes.
struct Chunk {
    /// Its run of the packed triangle.
    range: Range<usize>,
    /// `A²` over the run.
    square: Vec<f64>,
    /// Its candidates: those whose pair lies in the run.
    candidates: Range<usize>,
    /// `G` over them.
    grads: Vec<f64>,
    /// One row of `A·diag(gE)·A`.
    row: Vec<f64>,
}

impl<'c> DenseStep<'c> {
    /// Takes the initial (symmetric) adjacency and cuts its triangle for
    /// up to `threads` workers, one per [`split::MIN_WORK`] of `len·n`
    /// (a pass's multiply-adds, zero-skipped ones included). That floor
    /// was derived for the sparse assembly; here it is only checked to
    /// be about break-even (DESIGN §3.2).
    pub(crate) fn new(a: Matrix, candidates: &'c Candidates, threads: usize) -> Self {
        let n = a.rows();
        let len = n * (n + 1) / 2;
        let split = Partition::new(len, split::workers(threads, (len * n) as f64));
        // Candidates ascend in (i, j), and so does their packed index.
        let mut counts = vec![0; split.chunks()];
        let mut k = 0;
        candidates.for_each(|_, i, j| {
            let p = packed(n, i as usize, j as usize);
            while p >= split.range(k).end {
                k += 1;
            }
            counts[k] += 1;
        });
        let mut first = 0;
        let chunks = split.ranges().zip(counts).map(|(range, count)| {
            first += count;
            Chunk {
                square: vec![0.0; range.len()],
                range,
                candidates: first - count..first,
                grads: vec![0.0; count],
                row: vec![0.0; n],
            }
        });
        Self {
            candidates,
            cells: Cells::new(chunks),
            state: RwLock::new(State { a, ng: None }),
        }
    }

    /// Number of chunks, one per crew thread.
    pub(crate) fn chunks(&self) -> usize {
        self.cells.len()
    }

    /// The crew's job: chunk `k` of the current pass.
    pub(crate) fn run(&self, k: usize) {
        let state = read(&self.state);
        let mut chunk = self.cells.get(k);
        match &state.ng {
            None => chunk.square(&state.a),
            Some(ng) => chunk.gradients(&state.a, ng, self.candidates),
        }
    }

    /// The fractional egonet features `(N, E)` of the current adjacency,
    /// `N = A·1` and `E = N + ½ diag(A³)`, from one square pass.
    pub(crate) fn features(&self, crew: &mut Crew<'_>) -> (Vec<f64>, Vec<f64>) {
        write(&self.state).ng = None;
        crew.run();
        let state = read(&self.state);
        let n = state.a.rows();
        let chunks: Vec<_> = (0..self.chunks()).map(|k| self.cells.get(k)).collect();
        let mut deg = vec![0.0; n];
        let mut e = vec![0.0; n];
        for i in 0..n {
            let row = state.a.row(i);
            deg[i] = row.iter().sum();
            // diag(A³)_i = Σ_m (A²)_im A_mi = row_i(A²)·row_i(A) for symmetric A.
            // (A²)_im sits at (min, max) of the triangle, which ascends in m.
            let mut k = 0;
            let square = (0..n).map(|m| {
                let p = packed(n, i.min(m), i.max(m));
                while p >= chunks[k].range.end {
                    k += 1;
                }
                chunks[k].square[p - chunks[k].range.start]
            });
            let t: f64 = square.zip(row).map(|(x, y)| x * y).sum();
            e[i] = deg[i] + 0.5 * t;
        }
        (deg, e)
    }

    /// Runs the gradient pass on the last square pass's `A²`: `G` at
    /// every candidate for the node gradients `ng`.
    pub(crate) fn gradients(&self, crew: &mut Crew<'_>, ng: NodeGrads) {
        write(&self.state).ng = Some(ng);
        crew.run();
    }

    /// The normalised PGD step on the last gradient pass's `G` over the
    /// candidates `mask` admits, projected onto `[0, 1]`. Returns `false`,
    /// and moves nothing, when `G` is zero on all of them.
    pub(crate) fn step(&self, mask: &[bool], learning_rate: f64) -> bool {
        let max_abs = self.cells.fold(0.0f64, |max_abs, chunk| {
            let masks = &mask[chunk.candidates.clone()];
            let grads = chunk.grads.iter().zip(masks).filter(|(_, &on)| on);
            grads.fold(max_abs, |m, (g, _)| m.max(g.abs()))
        });
        if max_abs == 0.0 {
            return false;
        }
        let step = learning_rate / max_abs;
        let mut state = write(&self.state);
        self.cells.fold((), |(), chunk| {
            let Range { start, end } = chunk.candidates.clone();
            self.candidates.for_each_range(start, end, |idx, i, j| {
                if mask[idx] {
                    let (i, j) = (i as usize, j as usize);
                    let v = (state.a[(i, j)] - step * chunk.grads[idx - start]).clamp(0.0, 1.0);
                    state.a[(i, j)] = v;
                    state.a[(j, i)] = v;
                }
            });
        });
        true
    }

    /// The relaxed adjacency, once the loop is over.
    pub(crate) fn into_adjacency(self) -> Matrix {
        let state = self.state.into_inner();
        state.unwrap_or_else(PoisonError::into_inner).a
    }
}

impl Chunk {
    /// `A²` over the chunk's run.
    fn square(&mut self, a: &Matrix) {
        let n = a.rows();
        for (i, cols) in segments(n, self.range.clone()) {
            let at = packed(n, i, cols.start) - self.range.start;
            let out = &mut self.square[at..at + cols.len()];
            weighted_row(a, a.row(i).iter().copied(), cols, out);
        }
    }

    /// `G` at the chunk's candidates. Each row's `A·diag(gE)·A` spans its
    /// first candidate's column to the end of the row's run.
    fn gradients(&mut self, a: &Matrix, ng: &NodeGrads, candidates: &Candidates) {
        let n = a.rows();
        let Range { start, end } = self.candidates.clone();
        let mut current = None;
        candidates.for_each_range(start, end, |idx, i, j| {
            let (i, j) = (i as usize, j as usize);
            if current != Some(i) {
                current = Some(i);
                let cols = j..i + packed(n, i, n).min(self.range.end) - packed(n, i, i);
                let weights = a.row(i).iter().zip(&ng.g_e).map(|(x, g)| x * g);
                weighted_row(a, weights, cols.clone(), &mut self.row[cols]);
            }
            let square = self.square[packed(n, i, j) - self.range.start];
            self.grads[idx - start] =
                ng.h[i] + ng.h[j] + square * (ng.g_e[i] + ng.g_e[j]) + self.row[j];
        });
    }
}

/// `out = Σ_k w_k · a[k][cols]` over ascending `k`, skipping zero
/// weights: row `i` of `A·A` for `w = a[i]`, and of `A·diag(gE)·A` for
/// `w_k = a_ik·gE_k`, on `cols`, in [`Matrix::matmul`]'s order.
fn weighted_row(
    a: &Matrix,
    weights: impl Iterator<Item = f64>,
    cols: Range<usize>,
    out: &mut [f64],
) {
    out.fill(0.0);
    for (k, w) in weights.enumerate() {
        if w != 0.0 {
            for (o, &x) in out.iter_mut().zip(&a.row(k)[cols.clone()]) {
                *o += w * x;
            }
        }
    }
}

/// Index of `(i, j)`, `i ≤ j ≤ n`, in the row-major packed upper triangle
/// (`j ≥ i`) of an `n × n` matrix; `packed(n, i, n)` is where row `i + 1`
/// starts.
fn packed(n: usize, i: usize, j: usize) -> usize {
    i * (2 * n + 1 - i) / 2 + j - i
}

/// The row runs `(i, columns)` of a range of the packed triangle.
fn segments(n: usize, range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    (0..n).filter_map(move |i| {
        let row = packed(n, i, i);
        let (lo, hi) = (row.max(range.start), packed(n, i, n).min(range.end));
        (lo < hi).then(|| (i, i + lo - row..i + hi - row))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::{node_grads, pair_grad};
    use crate::pair::PairSpace;
    use ba_graph::egonet::egonet_features;
    use ba_graph::{generators, NodeId};

    #[test]
    fn dense_features_match_sparse_on_binary_graph() {
        let g = generators::erdos_renyi(50, 0.1, 4);
        let feats = egonet_features(&g);
        let a = ba_linalg::Matrix::from_vec(50, 50, ba_graph::adjacency::to_row_major(&g));
        let candidates = Candidates::Full(PairSpace::new(50));
        let dense = DenseStep::new(a, &candidates, 2);
        let (n_dense, e_dense) = with_crew(
            dense.chunks(),
            |k| dense.run(k),
            |crew| dense.features(crew),
        );
        for k in 0..50 {
            assert!((feats.n[k] - n_dense[k]).abs() < 1e-9);
            assert!((feats.e[k] - e_dense[k]).abs() < 1e-9, "node {k}");
        }
    }

    #[test]
    fn dense_pair_gradient_matches_sparse_on_binary_graph() {
        let g = generators::erdos_renyi(40, 0.12, 5);
        let feats = egonet_features(&g);
        let ng = node_grads(&feats.n, &feats.e, &[0, 8]).unwrap();
        let a = ba_linalg::Matrix::from_vec(40, 40, ba_graph::adjacency::to_row_major(&g));
        let candidates = Candidates::Full(PairSpace::new(40));
        let dense = dense_pair_gradients(&a, &ng, &candidates, 2);
        candidates.for_each(|idx, i, j| {
            let (sparse, d) = (pair_grad(&g, &ng, i, j), dense[idx]);
            assert!(
                (sparse - d).abs() < 1e-9,
                "pair ({i},{j}): sparse {sparse} vs dense {d}"
            );
        });
    }

    #[test]
    fn triangle_products_match_the_square_formula_bit_for_bit() {
        // A fractional symmetric `A` in [0, 1], with exact zeros.
        let n = 150;
        let a = Matrix::from_fn(n, n, |i, j| {
            let h = (i * j + 3 * (i + j)) % 17;
            if i == j || h < 7 {
                0.0
            } else {
                h as f64 / 20.0 + (i + j) as f64 * 1e-4
            }
        });
        let a2 = a.matmul(&a);
        let targets: [NodeId; 2] = [1, 40];
        let some: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|i| (i + 1..n as NodeId).map(move |j| (i, j)))
            .filter(|&(i, j)| targets.contains(&i) || (i * 7 + j) % 5 == 0)
            .collect();
        for candidates in [Candidates::Full(PairSpace::new(n)), Candidates::List(some)] {
            for threads in [1usize, 2, 3, 8] {
                let dense = DenseStep::new(a.clone(), &candidates, threads);
                assert_eq!(dense.chunks(), threads);
                let (ef, ng) = with_crew(
                    threads,
                    |k| dense.run(k),
                    |crew| {
                        let (nf, ef) = dense.features(crew);
                        let ng = node_grads(&nf, &ef, &targets).unwrap();
                        dense.gradients(crew, ng.clone());
                        (ef, ng)
                    },
                );
                let square = dense.cells.fold(Vec::new(), |mut t, chunk| {
                    t.extend_from_slice(&chunk.square);
                    t
                });
                for i in 0..n {
                    for j in i..n {
                        assert_eq!(square[packed(n, i, j)].to_bits(), a2[(i, j)].to_bits());
                    }
                    let row = a.row(i);
                    let t: f64 = a2.row(i).iter().zip(row).map(|(x, y)| x * y).sum();
                    let want = row.iter().sum::<f64>() + 0.5 * t;
                    assert_eq!(ef[i].to_bits(), want.to_bits(), "E_{i}");
                }
                let mut aw = a.clone();
                for i in 0..n {
                    aw.row_mut(i)
                        .iter_mut()
                        .zip(&ng.g_e)
                        .for_each(|(x, g)| *x *= g);
                }
                let awa = aw.matmul(&a);
                let grads = dense.cells.fold(Vec::new(), |mut g, chunk| {
                    g.extend_from_slice(&chunk.grads);
                    g
                });
                assert_eq!(grads.len(), candidates.len());
                candidates.for_each(|idx, i, j| {
                    let (i, j) = (i as usize, j as usize);
                    let want =
                        ng.h[i] + ng.h[j] + a2[(i, j)] * (ng.g_e[i] + ng.g_e[j]) + awa[(i, j)];
                    assert_eq!(
                        grads[idx].to_bits(),
                        want.to_bits(),
                        "{threads} threads: ({i},{j})"
                    );
                });
            }
        }
    }
}
