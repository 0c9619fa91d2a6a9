//! Memoization correctness suite.
//!
//! Two properties guard the search memo:
//!
//! 1. **Hash contract** — the session's incremental Zobrist state hash
//!    must equal the from-scratch hash of the materialised edge set
//!    XORed with the target-set hash after *every* toggle, reset, and
//!    retarget. Every memo key derives from this hash, so a single
//!    divergence would silently alias cache entries across states.
//! 2. **Golden cached ≡ uncached** — for all five attacks, a memoized
//!    session reused across target sets and repeated runs (the
//!    orchestrator's shape, which exercises the assembly LRU within a
//!    run and across repeats) must return outcomes bit-identical to
//!    fresh unmemoized runs.
//!    Memoization trades memory for wall-clock, never results. The LRU
//!    serves BinarizedAttack; GradMaxSearch never consults it, so its
//!    runs leave the LRU's counters unchanged.

use ba_core::{
    target_set_hash, AttackConfig, AttackOutcome, AttackSession, BinarizedAttack, CliqueBreaker,
    ContinuousA, GradMaxSearch, RandomAttack, StructuralAttack,
};
use ba_graph::{generators, zobrist, CsrGraph, Graph, NodeId};
use ba_oddball::OddBall;
use proptest::prelude::*;

const N: u32 = 24;

fn base_graph(er: u8, seed: u64) -> Graph {
    if er == 1 {
        generators::erdos_renyi(N as usize, 0.12, seed)
    } else {
        generators::barabasi_albert(N as usize, 2, seed)
    }
}

proptest! {
    /// Session-level hash contract under toggle/reset/retarget scripts
    /// (script interpretation: `act` picks the operation, `u`/`v` its
    /// operands; retargets use `u` as a single in-range target).
    #[test]
    fn session_hash_matches_from_scratch(
        er in 0u8..2,
        seed in 0u64..20,
        script in proptest::collection::vec((0u32..N, 0u32..N, 0u8..10), 1..50),
    ) {
        let g = base_graph(er, seed);
        let csr = CsrGraph::from(&g);
        let mut targets: Vec<NodeId> = vec![0, 1];
        let mut session = AttackSession::new(&csr, &targets).unwrap();
        for (u, v, act) in script {
            match act {
                0 => session.reset(),
                1 => {
                    targets = vec![u, (u + 1) % N];
                    session.retarget(&targets).unwrap();
                }
                _ => {
                    session.toggle(u, v);
                }
            }
            prop_assert_eq!(
                session.state_hash(),
                zobrist::edge_set_hash(session.graph()) ^ target_set_hash(&targets)
            );
        }
        // Reset restores the clean state's hash exactly.
        session.reset();
        prop_assert_eq!(
            session.state_hash(),
            csr.edge_hash() ^ target_set_hash(&targets)
        );
    }
}

/// An anomalous instance with two disjoint OddBall-ranked target sets.
fn anomalous_instance(seed: u64) -> (Graph, Vec<Vec<NodeId>>) {
    let mut g = generators::erdos_renyi(80, 0.06, seed);
    generators::attach_isolated(&mut g, seed + 1);
    let members: Vec<NodeId> = (0..8).collect();
    generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
    let model = OddBall::default().fit(&g).unwrap();
    let ranked: Vec<NodeId> = model.top_k(4).into_iter().map(|(i, _)| i).collect();
    (g, vec![ranked[..2].to_vec(), ranked[2..].to_vec()])
}

fn assert_outcomes_bit_identical(fresh: &AttackOutcome, memo: &AttackOutcome) {
    assert_eq!(fresh.name, memo.name);
    assert_eq!(
        fresh.ops_per_budget, memo.ops_per_budget,
        "{}: ops diverged",
        fresh.name
    );
    assert_eq!(
        fresh.surrogate_loss_per_budget, memo.surrogate_loss_per_budget,
        "{}: losses diverged",
        fresh.name
    );
    assert_eq!(
        fresh.loss_trajectory, memo.loss_trajectory,
        "{}: trajectories diverged",
        fresh.name
    );
}

/// Runs every attack twice per target set on the shared memoized
/// session (run 2 of BinarizedAttack is served in part by the assembly
/// LRU; GradMaxSearch's runs leave the LRU untouched) and pins each
/// outcome against a fresh unmemoized run.
fn golden_cached_equals_uncached(seed: u64, budget: usize) {
    let (g, target_sets) = anomalous_instance(seed);
    let csr = CsrGraph::from(&g);
    let cfg = AttackConfig {
        seed,
        ..AttackConfig::default()
    };
    let attacks: Vec<Box<dyn StructuralAttack>> = vec![
        Box::new(
            BinarizedAttack::new(cfg)
                .with_iterations(40)
                .with_lambdas(vec![0.01, 0.05]),
        ),
        Box::new(GradMaxSearch::new(cfg)),
        Box::new(ContinuousA::new(cfg).with_iterations(40)),
        Box::new(RandomAttack::new(cfg)),
        Box::new(CliqueBreaker::new(cfg)),
    ];

    let mut memo_session = AttackSession::new(&csr, &target_sets[0])
        .unwrap()
        .with_memo();
    for targets in &target_sets {
        for attack in &attacks {
            memo_session.retarget(targets).unwrap();
            let first = attack
                .attack_with_session(&mut memo_session, budget)
                .unwrap();
            memo_session.retarget(targets).unwrap();
            let before = memo_session.memo_stats().unwrap();
            let replay = attack
                .attack_with_session(&mut memo_session, budget)
                .unwrap();
            let stats = memo_session.memo_stats().unwrap();
            match attack.name() {
                "binarizedattack" => assert!(
                    stats.grads_hits > before.grads_hits,
                    "binarizedattack: the assembly LRU served no part of run 2: {stats:?}"
                ),
                "gradmaxsearch" => assert_eq!(
                    (stats.grads_hits, stats.grads_misses),
                    (before.grads_hits, before.grads_misses),
                    "gradmaxsearch: a run consulted the assembly LRU"
                ),
                _ => {}
            }

            let mut fresh_session = AttackSession::new(&csr, targets).unwrap();
            assert!(!fresh_session.memo_enabled());
            let fresh = attack
                .attack_with_session(&mut fresh_session, budget)
                .unwrap();
            assert_outcomes_bit_identical(&fresh, &first);
            assert_outcomes_bit_identical(&fresh, &replay);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Golden suite: cached ≡ uncached, bit for bit, for all five
    /// attacks across instances and budgets.
    #[test]
    fn all_attacks_cached_equals_uncached(seed in 0u64..40, budget in 3usize..7) {
        golden_cached_equals_uncached(seed, budget);
    }
}
