//! Low-rank purification defence.
//!
//! The paper's related-work section points at Entezari et al. (WSDM'20):
//! structural attacks tend to be *high-frequency* perturbations, so
//! truncating the adjacency spectrum to its top-k components removes a
//! disproportionate share of adversarial edges. The paper leaves the
//! defence of structural poisoning as future work; this module
//! implements that natural candidate so the `defense` bench can test it
//! against BinarizedAttack.
//!
//! For a symmetric adjacency the truncated SVD coincides (up to signs)
//! with the truncated eigendecomposition, found by power iteration with
//! deflation on the sparse graph: O(k·iters·(m + k·n)) time and k·n
//! memory, where a dense n × n solver takes O(k·iters·n²) and 2n². The
//! reconstruction keeps its `m` largest entries (the edge count).

use ba_graph::{Graph, GraphView, NodeId};
use ba_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the purification.
#[derive(Debug, Clone, Copy)]
pub struct PurifyConfig {
    /// Spectral rank to keep.
    pub rank: usize,
    /// Power-iteration sweeps per eigenpair.
    pub iterations: usize,
    /// Seed for the eigensolver starts.
    pub seed: u64,
}

impl Default for PurifyConfig {
    fn default() -> Self {
        Self {
            rank: 24,
            iterations: 120,
            seed: 0x10a,
        }
    }
}

/// Reconstructs the graph from its top-`rank` adjacency eigenpairs and
/// keeps the original number of edges (largest reconstructed entries,
/// excluding the diagonal).
pub fn low_rank_purify(g: &Graph, cfg: PurifyConfig) -> Graph {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return g.clone();
    }
    let pairs = top_eigenpairs(g, cfg.rank.min(n), cfg.iterations, cfg.seed);
    keep_top_entries(n, g.num_edges(), &pairs)
}

/// The top-`k` eigenpairs `(λ, v)`, `‖v‖ = 1`, of `g`'s adjacency by
/// power iteration with implicit deflation (DESIGN.md §4 has the sweep).
fn top_eigenpairs(g: &Graph, k: usize, iters: usize, seed: u64) -> Vec<(f64, Vector)> {
    let n = g.num_nodes();
    let (mut pairs, mut y) = (Vec::with_capacity(k), Vector::zeros(n));
    for c in 0..k {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
        let mut x = Vector::from((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>());
        let norm = x.norm();
        if norm > 0.0 {
            x.scale_mut(1.0 / norm);
        }
        let mut lambda = None;
        for _ in 0..iters {
            deflated_product(g, &pairs, &x, &mut y);
            let norm = y.norm();
            if norm <= 1e-300 {
                lambda = Some(0.0); // `x` lies in the deflated matrix's kernel
                break;
            }
            y.scale_mut(1.0 / norm);
            std::mem::swap(&mut x, &mut y);
        }
        let lambda = lambda.unwrap_or_else(|| {
            deflated_product(g, &pairs, &x, &mut y);
            x.dot(&y)
        });
        pairs.push((lambda, x));
    }
    pairs
}

/// `y = A·x − Σ λ·v·(vᵀx)` over `deflated`, `A·x` read off sorted rows.
fn deflated_product(g: &Graph, deflated: &[(f64, Vector)], x: &Vector, y: &mut Vector) {
    let y = y.as_mut_slice();
    for (i, yi) in y.iter_mut().enumerate() {
        let row = g.neighbors_sorted(i as NodeId);
        *yi = row.iter().map(|&j| x[j as usize]).sum();
    }
    for (lambda, v) in deflated {
        let coef = lambda * v.dot(x);
        y.iter_mut()
            .zip(v.iter())
            .for_each(|(yi, vi)| *yi -= coef * vi);
    }
}

/// The graph on `n` nodes whose edges are the `m` largest off-diagonal
/// entries of `Σ λ·v·vᵀ` over `pairs`.
fn keep_top_entries(n: usize, m: usize, pairs: &[(f64, Vector)]) -> Graph {
    let mut scored = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let mut r = 0.0;
            for (lambda, v) in pairs {
                r += lambda * v[i] * v[j];
            }
            scored.push((r, i as NodeId, j as NodeId));
        }
    }
    // Score descending, then `(i, j)` ascending: this total order's
    // first `m` are exactly a stable sort's first `m` by score alone.
    if m < scored.len() {
        scored.select_nth_unstable_by(m, |a, b| {
            b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2)))
        });
    }
    Graph::from_edges(n, scored.iter().take(m).map(|&(_, i, j)| (i, j)))
}

/// Fraction of `g`'s edges that survive purification — a quick measure
/// of how much benign structure the defence destroys.
pub fn edge_retention(original: &Graph, purified: &Graph) -> f64 {
    if original.num_edges() == 0 {
        return 1.0;
    }
    let kept = original
        .edges()
        .filter(|&(u, v)| purified.has_edge(u, v))
        .count();
    kept as f64 / original.num_edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::{generators, EditableGraph};
    use ba_linalg::Matrix;

    #[test]
    fn preserves_edge_count_and_nodes() {
        let g = generators::erdos_renyi(80, 0.08, 3);
        let p = low_rank_purify(&g, PurifyConfig::default());
        assert_eq!(p.num_nodes(), g.num_nodes());
        assert_eq!(p.num_edges(), g.num_edges());
    }

    #[test]
    fn block_structure_survives_purification() {
        // Two dense communities: rank-2 structure, so even rank-4
        // purification should retain most intra-community edges.
        let g = generators::planted_partition(60, 2, 0.5, 0.02, 5);
        let p = low_rank_purify(
            &g,
            PurifyConfig {
                rank: 4,
                ..PurifyConfig::default()
            },
        );
        let retention = edge_retention(&g, &p);
        // A random intra-block edge set is not exactly low-rank, so exact
        // retention is impossible; but the bulk must survive, and the
        // purified graph must stay community-assortative.
        assert!(retention > 0.55, "retention {retention} too low");
        let comm = |x: NodeId| (x as usize) * 2 / 60;
        let intra = p.edges().filter(|&(u, v)| comm(u) == comm(v)).count();
        assert!(
            intra * 10 >= p.num_edges() * 9,
            "purified graph lost community structure"
        );
    }

    #[test]
    fn empty_graph_noop() {
        let g = Graph::new(5);
        let p = low_rank_purify(&g, PurifyConfig::default());
        assert_eq!(p, g);
    }

    #[test]
    fn deterministic() {
        let g = generators::barabasi_albert(60, 3, 7);
        let cfg = PurifyConfig::default();
        assert_eq!(low_rank_purify(&g, cfg), low_rank_purify(&g, cfg));
    }

    #[test]
    fn removes_some_adversarial_edges() {
        // Plant a community graph, then add "adversarial" random edges
        // between communities; purification should drop inter-community
        // noise at a higher rate than intra-community signal.
        let mut g = generators::planted_partition(60, 2, 0.4, 0.0, 9);
        let comm = |x: NodeId| (x as usize) * 2 / 60;
        let mut rng_state = 12345u64;
        let mut adversarial = Vec::new();
        while adversarial.len() < 25 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((rng_state >> 20) % 60) as NodeId;
            let v = ((rng_state >> 40) % 60) as NodeId;
            if u != v && comm(u) != comm(v) && g.add_edge(u, v) {
                adversarial.push((u.min(v), u.max(v)));
            }
        }
        let p = low_rank_purify(
            &g,
            PurifyConfig {
                rank: 4,
                ..PurifyConfig::default()
            },
        );
        let adv_kept = adversarial
            .iter()
            .filter(|&&(u, v)| p.has_edge(u, v))
            .count() as f64
            / adversarial.len() as f64;
        let total_retention = edge_retention(&g, &p);
        assert!(
            adv_kept < total_retention,
            "adversarial retention {adv_kept} not below average {total_retention}"
        );
    }

    /// Dense reference for `top_eigenpairs`: power iteration on an
    /// n × n `Matrix` copy of the adjacency, with Hotelling deflation
    /// applied to that copy.
    fn symmetric_topk(g: &Graph, k: usize, iters: usize, seed: u64) -> Vec<(f64, Vector)> {
        let n = g.num_nodes();
        let mut work = Matrix::from_vec(n, n, ba_graph::adjacency::to_row_major(g));
        let mut pairs = Vec::new();
        for c in 0..k {
            let (lambda, v) = power_iteration(&work, iters, seed.wrapping_add(c as u64));
            for i in 0..n {
                for j in 0..n {
                    work[(i, j)] -= lambda * v[i] * v[j];
                }
            }
            pairs.push((lambda, v));
        }
        pairs
    }

    fn power_iteration(m: &Matrix, iters: usize, seed: u64) -> (f64, Vector) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = Vector::from(
            (0..m.rows())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect::<Vec<_>>(),
        );
        let norm = v.norm();
        if norm > 0.0 {
            v.scale_mut(1.0 / norm);
        }
        for _ in 0..iters {
            let w = m.matvec(&v);
            let wn = w.norm();
            if wn <= 1e-300 {
                return (0.0, v);
            }
            v = w;
            v.scale_mut(1.0 / wn);
        }
        let lambda = v.dot(&m.matvec(&v));
        (lambda, v)
    }

    /// The graphs of the tests above, plus a BA(200) graph poisoned by
    /// 30 random flips.
    fn reference_graphs() -> Vec<Graph> {
        let mut planted = generators::planted_partition(60, 2, 0.4, 0.0, 9);
        let (mut state, mut added) = (12345u64, 0);
        while added < 25 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (u, v) = (
                ((state >> 20) % 60) as NodeId,
                ((state >> 40) % 60) as NodeId,
            );
            if u != v && (u < 30) != (v < 30) && planted.add_edge(u, v) {
                added += 1;
            }
        }
        let mut poisoned = generators::barabasi_albert(200, 3, 11);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..30 {
            let (u, v) = (rng.gen_range(0..200), rng.gen_range(0..200));
            if u != v {
                poisoned.toggle_edge(u, v);
            }
        }
        vec![
            generators::erdos_renyi(80, 0.08, 3),
            generators::planted_partition(60, 2, 0.5, 0.02, 5),
            Graph::new(5),
            generators::barabasi_albert(60, 3, 7),
            planted,
            poisoned,
        ]
    }

    #[test]
    fn sparse_solver_matches_dense_reference() {
        let cfg = PurifyConfig::default();
        for (case, g) in reference_graphs().iter().enumerate() {
            for rank in [4, 16] {
                let sparse = top_eigenpairs(g, rank, cfg.iterations, cfg.seed);
                let dense = symmetric_topk(g, rank, cfg.iterations, cfg.seed);
                for (c, ((ls, vs), (ld, vd))) in sparse.iter().zip(&dense).enumerate() {
                    let at = format!("graph {case}, rank {rank}, pair {c}");
                    assert!(
                        (ls - ld).abs() <= 1e-9 * ld.abs().max(1.0),
                        "{at}: λ {ls} vs {ld}"
                    );
                    let dv = vs
                        .iter()
                        .zip(vd.iter())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(dv <= 1e-9, "{at}: max |Δv| {dv}");
                }
                let n = g.num_nodes();
                if g.num_edges() > 0 {
                    let purified = PurifyConfig { rank, ..cfg };
                    assert_eq!(
                        low_rank_purify(g, purified),
                        keep_top_entries(n, g.num_edges(), &dense),
                        "graph {case}, rank {rank}"
                    );
                }
            }
        }
    }

    /// `K_n` on the nodes `from..to` of `g`.
    fn add_clique(g: &mut Graph, from: NodeId, to: NodeId) {
        for u in from..to {
            for v in (u + 1)..to {
                g.add_edge(u, v);
            }
        }
    }

    fn eigenvalues(g: &Graph, k: usize) -> Vec<f64> {
        let cfg = PurifyConfig::default();
        top_eigenpairs(g, k, cfg.iterations, cfg.seed)
            .into_iter()
            .map(|(lambda, _)| lambda)
            .collect()
    }

    #[test]
    fn complete_graph_top_eigenvalue_is_n_minus_one() {
        for n in [3, 5, 9] {
            let mut g = Graph::new(n);
            add_clique(&mut g, 0, n as NodeId);
            let lambda = eigenvalues(&g, 1)[0];
            assert!(
                (lambda - (n - 1) as f64).abs() < 1e-9,
                "K_{n}: λ₁ = {lambda}"
            );
        }
    }

    #[test]
    fn disjoint_cliques_give_both_top_eigenvalues() {
        let mut g = Graph::new(8);
        add_clique(&mut g, 0, 5);
        add_clique(&mut g, 5, 8);
        let lambdas = eigenvalues(&g, 2);
        assert!((lambdas[0] - 4.0).abs() < 1e-9, "{lambdas:?}");
        assert!((lambdas[1] - 2.0).abs() < 1e-9, "{lambdas:?}");
    }

    #[test]
    fn kernel_pair_after_the_spectrum_is_exhausted() {
        // K_3 plus an isolated node: the spectrum is {2, −1, −1, 0}.
        let mut g = Graph::new(4);
        add_clique(&mut g, 0, 3);
        let lambdas = eigenvalues(&g, 4);
        for (got, want) in lambdas.iter().zip([2.0, -1.0, -1.0]) {
            assert!((got - want).abs() < 1e-9, "{lambdas:?}");
        }
        assert!(lambdas[3].abs() < 1e-9, "{lambdas:?}");
    }
}
