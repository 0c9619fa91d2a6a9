//! Verification of the analytic bi-level gradient (DESIGN.md §3.2)
//! against two independent oracles:
//!
//! 1. the `ba-autodiff` reverse-mode tape, differentiating the *entire*
//!    objective — egonet features from adjacency entries, logs, the 2×2
//!    OLS normal-equation solve, exponentials, squared residuals — and
//! 2. central finite differences on single edge toggles evaluated through
//!    the genuinely discrete pipeline.
//!
//! These tests are the load-bearing evidence that `ba_core::grad`
//! implements the derivative of paper Eq. (5) correctly.

use ba_autodiff::{sum, Tape, Var};
use ba_core::{node_grads, pair_grad};
use ba_graph::{generators, EditableGraph, Graph, NodeId};

/// Builds the full surrogate objective on the tape from adjacency
/// variables `a[(i,j)]` (upper triangle, symmetric use), mirroring
/// paper Eq. (5): features → logs → OLS → Σ (E_a − e^ρ)².
fn tape_objective<'t>(
    tape: &'t Tape,
    n_nodes: usize,
    adj: &dyn Fn(usize, usize) -> Var<'t>,
    targets: &[usize],
) -> Var<'t> {
    // N_i = Σ_j A_ij ; E_i = N_i + ½ Σ_{j,k} A_ij A_jk A_ki.
    let mut n_feat: Vec<Var<'t>> = Vec::with_capacity(n_nodes);
    let mut e_feat: Vec<Var<'t>> = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let deg = sum(tape, (0..n_nodes).filter(|&j| j != i).map(|j| adj(i, j)));
        // Σ over ordered pairs (j,k), j≠k≠i of A_ij A_jk A_ki = 2·triangles.
        let mut tri_terms = Vec::new();
        for j in 0..n_nodes {
            if j == i {
                continue;
            }
            for k in (j + 1)..n_nodes {
                if k == i {
                    continue;
                }
                tri_terms.push(adj(i, j) * adj(j, k) * adj(k, i));
            }
        }
        let tri = sum(tape, tri_terms);
        n_feat.push(deg);
        e_feat.push(deg + tri); // ½ · (A³)_ii = ½ · 2 · triangles = triangles
    }
    // Log features (no clamping on the tape: the test graphs keep
    // features ≥ 1 and perturbations are infinitesimal).
    let u: Vec<Var<'t>> = n_feat.iter().map(|v| v.ln()).collect();
    let v: Vec<Var<'t>> = e_feat.iter().map(|x| x.ln()).collect();
    // OLS via the closed-form 2×2 solve (Cramer's rule on the tape).
    let nn = tape.constant(n_nodes as f64);
    let su = sum(tape, u.iter().copied());
    let suu = sum(tape, u.iter().map(|&x| x * x));
    let sv = sum(tape, v.iter().copied());
    let suv = sum(tape, u.iter().zip(&v).map(|(&a, &b)| a * b));
    let det = nn * suu - su * su;
    let beta0 = (sv * suu - su * suv) / det;
    let beta1 = (nn * suv - sv * su) / det;
    // Loss.
    let mut terms = Vec::new();
    for &a in targets {
        let rho = beta0 + beta1 * u[a];
        let r = e_feat[a] - rho.exp();
        terms.push(r * r);
    }
    sum(tape, terms)
}

/// Runs the tape on graph `g` and compares every pair gradient with the
/// analytic engine. `h_tol` is the max allowed relative discrepancy.
fn check_graph(g: &Graph, targets: &[NodeId], tol: f64) {
    let n = g.num_nodes();
    let tape = Tape::new();
    // Upper-triangle adjacency variables.
    let mut vars = std::collections::HashMap::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let val = if g.has_edge(i as NodeId, j as NodeId) {
                1.0
            } else {
                0.0
            };
            vars.insert((i, j), tape.var(val));
        }
    }
    let adj = |i: usize, j: usize| -> Var<'_> {
        let key = if i < j { (i, j) } else { (j, i) };
        vars[&key]
    };
    let target_idx: Vec<usize> = targets.iter().map(|&t| t as usize).collect();
    let loss = tape_objective(&tape, n, &adj, &target_idx);
    let grads = loss.backward();

    // Analytic side.
    let feats = ba_graph::egonet::egonet_features(g);
    let ng = node_grads(&feats.n, &feats.e, targets).unwrap();

    // Loss values must agree.
    assert!(
        (loss.value - ng.loss).abs() < 1e-9 * (1.0 + ng.loss.abs()),
        "loss mismatch: tape {} vs analytic {}",
        loss.value,
        ng.loss
    );

    // Every pair gradient must agree.
    let mut worst = 0.0f64;
    for i in 0..n as NodeId {
        for j in (i + 1)..n as NodeId {
            let analytic = pair_grad(g, &ng, i, j);
            let tape_grad = grads.wrt(vars[&(i as usize, j as usize)]);
            let denom = analytic.abs().max(tape_grad.abs()).max(1.0);
            let rel = (analytic - tape_grad).abs() / denom;
            worst = worst.max(rel);
            assert!(
                rel < tol,
                "pair ({i},{j}): analytic {analytic} vs tape {tape_grad} (rel {rel})"
            );
        }
    }
    eprintln!("worst relative pair-gradient discrepancy: {worst:.3e}");
}

#[test]
fn analytic_gradient_matches_autodiff_on_er_graph() {
    let mut g = generators::erdos_renyi(25, 0.2, 42);
    generators::attach_isolated(&mut g, 43);
    check_graph(&g, &[0, 3, 7], 1e-7);
}

#[test]
fn analytic_gradient_matches_autodiff_on_ba_graph() {
    let g = generators::barabasi_albert(22, 3, 7);
    check_graph(&g, &[1, 5], 1e-7);
}

#[test]
fn analytic_gradient_matches_autodiff_with_planted_clique() {
    let mut g = generators::erdos_renyi(20, 0.2, 9);
    generators::attach_isolated(&mut g, 10);
    generators::plant_near_clique(&mut g, &[0, 1, 2, 3, 4], 1.0, 11);
    check_graph(&g, &[0, 2], 1e-7);
}

#[test]
fn analytic_gradient_matches_autodiff_with_star_target() {
    let mut g = generators::erdos_renyi(20, 0.15, 13);
    generators::attach_isolated(&mut g, 14);
    generators::plant_near_star(&mut g, 5, 10, 15);
    check_graph(&g, &[5], 1e-7);
}

#[test]
fn analytic_gradient_matches_autodiff_single_target_many_seeds() {
    for seed in [21, 22, 23] {
        let mut g = generators::erdos_renyi(15, 0.25, seed);
        generators::attach_isolated(&mut g, seed + 100);
        check_graph(&g, &[seed as NodeId % 15], 1e-7);
    }
}

/// Discrete sanity check: the sign of the analytic gradient must predict
/// the direction of the loss change under an actual ±1 edge toggle for
/// the pairs with the largest gradients (where the linearisation is most
/// trustworthy).
#[test]
fn gradient_sign_predicts_discrete_toggle_direction() {
    let mut g = generators::erdos_renyi(60, 0.1, 77);
    generators::attach_isolated(&mut g, 78);
    generators::plant_near_clique(&mut g, &[0, 1, 2, 3, 4, 5], 1.0, 79);
    let targets: Vec<NodeId> = vec![0, 1];
    let feats = ba_graph::egonet::egonet_features(&g);
    let ng = node_grads(&feats.n, &feats.e, &targets).unwrap();
    let base_loss = ng.loss;

    // Collect the 5 largest-|gradient| pairs.
    let mut pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for i in 0..g.num_nodes() as NodeId {
        for j in (i + 1)..g.num_nodes() as NodeId {
            pairs.push((i, j, pair_grad(&g, &ng, i, j)));
        }
    }
    pairs.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
    let mut correct = 0;
    let mut total = 0;
    for &(i, j, grad) in pairs.iter().take(5) {
        let mut g2 = g.clone();
        g2.toggle_edge(i, j);
        let f2 = ba_graph::egonet::egonet_features(&g2);
        let new_loss = ba_core::surrogate_loss_from_features(&f2.n, &f2.e, &targets).unwrap();
        let delta = new_loss - base_loss;
        // Toggling moves A_ij by +1 (add) or −1 (delete); predicted sign:
        let was_edge = g.has_edge(i, j);
        let predicted = if was_edge { -grad } else { grad };
        total += 1;
        if predicted.signum() == delta.signum() || delta.abs() < 1e-9 {
            correct += 1;
        }
    }
    assert!(
        correct >= total - 1,
        "gradient sign predicted only {correct}/{total} toggle directions"
    );
}
