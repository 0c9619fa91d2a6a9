//! Thread-count bit-identity of the row-split search iteration.
//!
//! The gradient assembly, BinarizedAttack's PGD step and GradMaxSearch's
//! one pass per step (the assembly with the argmax folded in) split the
//! candidate range across the session's threads, and ContinuousA's dense passes split the upper triangle of
//! its `n × n` products, but only one chunk per fixed minimum of
//! modelled work, so the golden suites' 150-node instances never split
//! the sparse passes. This instance has 300 nodes and 44,850
//! `Full`-scope candidates: enough for several chunks, with cuts inside
//! rows.
//! Every outcome (ops per budget, loss bits, trajectory bits) must match
//! the single-thread run, with the search memo on and off, including
//! when a search loop ends early and its crew of threads must stop.

use ba_core::{
    AttackConfig, AttackOutcome, AttackSession, BinarizedAttack, ContinuousA, EdgeOpKind,
    GradMaxSearch, StructuralAttack,
};
use ba_graph::{generators, CsrGraph, GraphView, NodeId};
use ba_oddball::OddBall;

fn instance() -> (CsrGraph, Vec<NodeId>) {
    let mut g = generators::erdos_renyi(300, 0.03, 77);
    generators::attach_isolated(&mut g, 78);
    // Spread the planted near-clique over the whole id range, so the
    // targets' rows and the pairs among them fall in every chunk.
    let members: Vec<NodeId> = (0..12).map(|k| 7 + 24 * k).collect();
    generators::plant_near_clique(&mut g, &members, 1.0, 79);
    let model = OddBall::default().fit(&g).unwrap();
    let targets = model.top_k(3).into_iter().map(|(i, _)| i).collect();
    (CsrGraph::from(&g), targets)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(want: &AttackOutcome, got: &AttackOutcome, what: &str) {
    assert_eq!(got.ops_per_budget, want.ops_per_budget, "{what}: ops");
    assert_eq!(
        bits(&got.surrogate_loss_per_budget),
        bits(&want.surrogate_loss_per_budget),
        "{what}: loss bits"
    );
    assert_eq!(
        bits(&got.loss_trajectory),
        bits(&want.loss_trajectory),
        "{what}: trajectory bits"
    );
}

#[test]
fn attacks_are_bit_identical_at_any_thread_count() {
    let (csr, targets) = instance();
    assert_eq!(csr.num_nodes(), 300);
    let binarized = BinarizedAttack::new(AttackConfig::default())
        .with_iterations(40)
        .with_lambdas(vec![0.002, 0.02]);
    let gradmax = GradMaxSearch::new(AttackConfig::default());
    let continuous = ContinuousA::new(AttackConfig::default()).with_iterations(4);
    let attacks: [(&dyn StructuralAttack, usize); 3] =
        [(&binarized, 8), (&gradmax, 10), (&continuous, 8)];
    for (attack, budget) in attacks {
        let mut serial = AttackSession::new(&csr, &targets).unwrap().with_threads(1);
        let want = attack.attack_with_session(&mut serial, budget).unwrap();
        assert!(!want.ops_per_budget.is_empty(), "{}", attack.name());
        for threads in [1usize, 2, 3, 8] {
            for memo in [false, true] {
                let session = AttackSession::new(&csr, &targets)
                    .unwrap()
                    .with_threads(threads);
                let mut session = if memo { session.with_memo() } else { session };
                let got = attack.attack_with_session(&mut session, budget).unwrap();
                let what = format!("{}, {threads} threads, memo {memo}", attack.name());
                assert_identical(&want, &got, &what);
            }
        }
    }
}

#[test]
fn early_exits_are_bit_identical_at_any_thread_count() {
    // The search loops' crews must stop cleanly wherever a loop ends
    // early, and leave the same result: GradMaxSearch saturating long
    // before its budget, and BinarizedAttack with fewer iterations than
    // its snapshot period, so each λ keeps only its final `Ż`.
    let (csr, targets) = instance();
    let delete_only = AttackConfig {
        op_kind: EdgeOpKind::DeleteOnly,
        ..AttackConfig::default()
    };
    let gradmax = GradMaxSearch::new(delete_only);
    let binarized = BinarizedAttack::new(AttackConfig::default())
        .with_iterations(7)
        .with_lambdas(vec![0.002, 0.02]);
    let budget = 60;
    let attacks: [&dyn StructuralAttack; 2] = [&gradmax, &binarized];
    for attack in attacks {
        let mut serial = AttackSession::new(&csr, &targets).unwrap().with_threads(1);
        let want = attack.attack_with_session(&mut serial, budget).unwrap();
        if attack.name() == gradmax.name() {
            let steps = want.ops_per_budget.len();
            assert!(steps > 0 && steps < budget, "saturated after {steps} steps");
        } else {
            assert_eq!(want.loss_trajectory.len(), 7);
        }
        for threads in [1usize, 2, 3, 8] {
            for memo in [false, true] {
                let session = AttackSession::new(&csr, &targets)
                    .unwrap()
                    .with_threads(threads);
                let mut session = if memo { session.with_memo() } else { session };
                let got = attack.attack_with_session(&mut session, budget).unwrap();
                let what = format!("{}, {threads} threads, memo {memo}", attack.name());
                assert_identical(&want, &got, &what);
            }
        }
    }
}
