//! Cross-method integration tests: the paper's headline qualitative
//! claims, asserted on seeded synthetic graphs at test scale.

use ba_core::{
    AttackOutcome, BinarizedAttack, ContinuousA, GradMaxSearch, RandomAttack, StructuralAttack,
};
use ba_graph::{generators, Graph, NodeId};
use ba_oddball::OddBall;

fn anomalous_graph(seed: u64, n: usize) -> (Graph, Vec<NodeId>) {
    let mut g = generators::erdos_renyi(n, 8.0 / n as f64, seed);
    generators::attach_isolated(&mut g, seed + 1);
    let members: Vec<NodeId> = (0..10).collect();
    generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
    generators::plant_near_star(&mut g, 15, n / 6, seed + 3);
    let model = OddBall::default().fit(&g).unwrap();
    let targets: Vec<NodeId> = model.top_k(3).into_iter().map(|(i, _)| i).collect();
    (g, targets)
}

fn tau_for(attack: &dyn StructuralAttack, g: &Graph, targets: &[NodeId], b: usize) -> f64 {
    let outcome = attack.attack(g, targets, b).unwrap();
    let curve = outcome
        .ascore_curve(g, targets, &OddBall::default())
        .unwrap();
    AttackOutcome::tau_as(&curve, outcome.max_budget().min(b))
}

#[test]
fn gradient_methods_beat_random() {
    let (g, targets) = anomalous_graph(101, 150);
    let budget = 12;
    let tau_bin = tau_for(
        &BinarizedAttack::default()
            .with_iterations(60)
            .with_lambdas(vec![0.01, 0.05]),
        &g,
        &targets,
        budget,
    );
    let tau_gms = tau_for(&GradMaxSearch::default(), &g, &targets, budget);
    let tau_rand = tau_for(&RandomAttack::default(), &g, &targets, budget);
    assert!(
        tau_bin > tau_rand + 0.1,
        "binarized ({tau_bin}) not clearly above random ({tau_rand})"
    );
    assert!(
        tau_gms > tau_rand + 0.1,
        "gradmax ({tau_gms}) not clearly above random ({tau_rand})"
    );
}

#[test]
fn binarized_is_competitive_with_gradmax() {
    // The paper's headline: GradMaxSearch (greedy) is strong at small
    // budgets but myopic at large ones, where BinarizedAttack pulls ahead
    // (Sec. VIII-B1). At test scale with budget ≈ 20% of the edges this
    // shows as: binarized within 85% of greedy everywhere, and winning
    // (or tying within 0.005) on most seeds.
    let budget = 30;
    let mut wins = 0;
    for seed in [201, 203, 205] {
        let (g, targets) = anomalous_graph(seed, 150);
        let tau_bin = tau_for(
            &BinarizedAttack::default()
                .with_iterations(150)
                .with_lambdas(vec![0.002, 0.01, 0.05]),
            &g,
            &targets,
            budget,
        );
        let tau_gms = tau_for(&GradMaxSearch::default(), &g, &targets, budget);
        assert!(
            tau_bin > 0.85 * tau_gms - 0.02,
            "seed {seed}: binarized {tau_bin} far below gradmax {tau_gms}"
        );
        if tau_bin >= tau_gms - 0.005 {
            wins += 1;
        }
    }
    assert!(
        wins >= 2,
        "binarized only matched gradmax on {wins}/3 seeds at large budget"
    );
}

#[test]
fn strong_attack_with_small_fraction_of_edges() {
    // Paper: up to ~90% AScore decrease while modifying ≤ a few % of
    // edges. At our test scale, assert ≥ 50% decrease with ≤ 10% edges.
    let (g, targets) = anomalous_graph(301, 200);
    let budget = (g.num_edges() / 10).min(25);
    let attack = BinarizedAttack::default()
        .with_iterations(80)
        .with_lambdas(vec![0.01, 0.05]);
    let tau = tau_for(&attack, &g, &targets, budget);
    assert!(
        tau > 0.5,
        "τ_as = {tau} with budget {budget} of {} edges",
        g.num_edges()
    );
}

#[test]
fn continuous_a_is_erratic_but_runs_end_to_end() {
    // Fig. 4 shows ContinuousA is sometimes ineffective — we only require
    // that it runs, respects the interface, and does not crash; and that
    // at least it moves the relaxed objective (asserted in unit tests).
    let (g, targets) = anomalous_graph(401, 120);
    let attack = ContinuousA::default().with_iterations(25);
    let outcome = attack.attack(&g, &targets, 10).unwrap();
    assert_eq!(outcome.max_budget(), 10);
    let curve = outcome
        .ascore_curve(&g, &targets, &OddBall::default())
        .unwrap();
    assert_eq!(curve.len(), 11);
    for s in curve {
        assert!(s.is_finite());
    }
}

#[test]
fn tau_increases_with_budget_for_binarized() {
    let (g, targets) = anomalous_graph(501, 150);
    let attack = BinarizedAttack::default()
        .with_iterations(60)
        .with_lambdas(vec![0.01, 0.05]);
    let outcome = attack.attack(&g, &targets, 16).unwrap();
    let curve = outcome
        .ascore_curve(&g, &targets, &OddBall::default())
        .unwrap();
    let tau4 = AttackOutcome::tau_as(&curve, 4);
    let tau16 = AttackOutcome::tau_as(&curve, 16);
    assert!(
        tau16 >= tau4 - 0.02,
        "more budget made the attack notably worse: τ(4)={tau4}, τ(16)={tau16}"
    );
    assert!(
        tau16 > tau4 * 1.05 || tau16 > 0.8,
        "budget had no effect: {tau4} -> {tau16}"
    );
}

#[test]
fn attacks_preserve_untargeted_global_structure() {
    // Side-effect check (Sec. VIII-B3): the attack should not blow up the
    // global feature distribution. Mean degree must move by < 5%.
    let (g, targets) = anomalous_graph(601, 200);
    let attack = BinarizedAttack::default()
        .with_iterations(60)
        .with_lambdas(vec![0.02]);
    let outcome = attack.attack(&g, &targets, 20).unwrap();
    let poisoned = outcome.poisoned_graph(&g, 20);
    let before = ba_graph::metrics::average_degree(&g);
    let after = ba_graph::metrics::average_degree(&poisoned);
    assert!(
        (after - before).abs() / before < 0.05,
        "average degree shifted too much: {before} -> {after}"
    );
}
