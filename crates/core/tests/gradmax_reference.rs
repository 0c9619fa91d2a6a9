//! GradMaxSearch against its dense reference.
//!
//! The attack keeps its eligibility mask across steps (clearing each
//! flipped pair and re-marking only the clean-graph edges at the flip's
//! endpoints) and takes each step's argmax inside the row kernel, with
//! no gradient buffer. The reference below is the straightforward step:
//! mark every candidate against the current graph, assemble the whole
//! gradient vector under that mask, apply the straight-through sign
//! `1 − 2A₀`, and take the first strict maximum of `−s`, looped with
//! the attack's revert-and-stop rule. Whole outcomes must agree bit for
//! bit: ops, loss bits and trajectory bits.
//!
//! The instances have 300 nodes, so a `Full` set (44,850 candidates)
//! splits at 2 threads, and its cut falls inside row 87. One of them is
//! a ring lattice, where most nodes share `(N, E)` and hence `h`, so
//! equal gradients, and ties at the maximum, are common. Every scope, op kind and
//! singleton setting is run at 1 and 2 threads with the memo on and
//! off, on sessions reused across configurations; a memoized session's
//! assembly-LRU counters must not move, since GradMaxSearch never
//! consults the LRU.

use ba_core::grad::assemble_pair_grads_into;
use ba_core::{
    AttackConfig, AttackError, AttackSession, CandidateScope, Candidates, EdgeOpKind,
    GradMaxSearch, IndexBitSet, StructuralAttack,
};
use ba_graph::{generators, CsrGraph, EdgeOp, Graph, GraphView, NodeId};
use ba_oddball::OddBall;

/// Ops per budget, loss bits per budget and trajectory bits.
type Outcome = (Vec<Vec<EdgeOp>>, Vec<u64>, Vec<u64>);

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The dense reference search on a fresh session of `csr`.
fn reference(csr: &CsrGraph, targets: &[NodeId], cfg: AttackConfig, budget: usize) -> Outcome {
    let run = || -> Result<Outcome, AttackError> {
        let mut session = AttackSession::new(csr, targets)?.with_threads(1);
        let candidates = Candidates::build(cfg.scope, csr, targets);
        let len = candidates.len();
        let mut is_edge = vec![false; len];
        candidates.for_each(|idx, i, j| is_edge[idx] = csr.has_edge(i, j));
        let mut pool = IndexBitSet::new(len);
        let (mut eligible, mut grads) = (vec![false; len], vec![0.0; len]);
        let (mut ops, mut ops_per_budget) = (Vec::new(), Vec::new());
        let (mut losses, mut trajectory) = (Vec::new(), Vec::new());
        for _ in 0..budget {
            let ng = session.node_grads()?;
            let loss_before = ng.loss;
            trajectory.push(loss_before);
            let g = session.graph();
            candidates.for_each(|idx, i, j| {
                let e = is_edge[idx];
                eligible[idx] = !pool.contains(idx)
                    && cfg.op_kind.allows(e)
                    && !(e && cfg.forbid_singletons && !g.deletion_keeps_no_singletons(i, j));
            });
            assemble_pair_grads_into(g, &ng, &candidates, &eligible, 1, &mut grads);
            let (mut abs, mut best) = (0.0f64, None);
            for idx in 0..len {
                let s = if eligible[idx] && is_edge[idx] {
                    -grads[idx]
                } else {
                    grads[idx]
                };
                if -s > abs {
                    (abs, best) = (-s, Some(idx));
                }
            }
            let Some(idx) = best else { break };
            let (i, j) = candidates.pair(idx);
            let op = session
                .toggle(i, j)
                .expect("a candidate is not a self-loop");
            let loss = session.loss()?;
            if loss > loss_before + 1e-12 {
                session.toggle(i, j);
                break;
            }
            pool.insert(idx);
            ops.push(op);
            ops_per_budget.push(ops.clone());
            losses.push(loss);
        }
        if let Some(&last) = losses.last() {
            trajectory.push(last);
        }
        Ok((ops_per_budget, bits(&losses), bits(&trajectory)))
    };
    run().expect("reference search")
}

/// A 300-node instance and its top three OddBall anomalies as targets.
fn with_targets(name: &'static str, g: Graph) -> (&'static str, CsrGraph, Vec<NodeId>) {
    assert_eq!(g.num_nodes(), 300, "{name}");
    let model = OddBall::default().fit(&g).unwrap();
    let targets = model.top_k(3).into_iter().map(|(i, _)| i).collect();
    (name, CsrGraph::from(&g), targets)
}

fn instances() -> Vec<(&'static str, CsrGraph, Vec<NodeId>)> {
    // ER with leaves attached to its isolated nodes and a near-clique
    // spread over the id range.
    let mut er = generators::erdos_renyi(300, 0.03, 77);
    generators::attach_isolated(&mut er, 78);
    let members: Vec<NodeId> = (0..12).map(|k| 7 + 24 * k).collect();
    generators::plant_near_clique(&mut er, &members, 1.0, 79);
    // BA with two edges per arrival and a planted near-clique.
    let mut ba = generators::barabasi_albert(300, 2, 5);
    generators::plant_near_clique(&mut ba, &[10, 60, 110, 160, 210, 260], 1.0, 6);
    // A ring lattice (each node tied to the next two): every node off
    // the planted clique and its neighbours has N = 4, E = 7.
    let ring: Vec<(NodeId, NodeId)> = (0..300u32)
        .flat_map(|i| [(i, (i + 1) % 300), (i, (i + 2) % 300)])
        .collect();
    let mut ring = Graph::from_edges(300, ring);
    generators::plant_near_clique(&mut ring, &[40, 90, 140, 190, 240], 1.0, 9);
    // Sparse ER (mean degree 1.8) with a 60-spoke star at the lowest or
    // the highest id: many nodes of degree 1 and 2, so singleton
    // protection binds, and a deletion's larger endpoint often drops to
    // degree 1, making its other edge ineligible.
    let star = |seed: u64, center: NodeId| {
        let mut g = generators::erdos_renyi(300, 0.006, seed);
        generators::attach_isolated(&mut g, seed + 1);
        generators::plant_near_star(&mut g, center, 60, seed + 2);
        g
    };
    vec![
        with_targets("er", er),
        with_targets("ba", ba),
        with_targets("ring", ring),
        with_targets("star-low", star(1, 0)),
        with_targets("star-high", star(2, 299)),
    ]
}

#[test]
fn gradmax_matches_the_dense_reference_bit_for_bit() {
    let budget = 10;
    let mut steps = 0;
    for (name, csr, targets) in instances() {
        // One reused session per thread count and memo setting, as an
        // orchestrator holds them.
        let mut sessions: Vec<(usize, bool, AttackSession<'_>)> = Vec::new();
        for threads in [1usize, 2] {
            for memo in [false, true] {
                let s = AttackSession::new(&csr, &targets)
                    .unwrap()
                    .with_threads(threads);
                sessions.push((threads, memo, if memo { s.with_memo() } else { s }));
            }
        }
        for scope in [CandidateScope::Full, CandidateScope::TargetNeighborhood] {
            for op_kind in [
                EdgeOpKind::Both,
                EdgeOpKind::AddOnly,
                EdgeOpKind::DeleteOnly,
            ] {
                for forbid_singletons in [true, false] {
                    let cfg = AttackConfig {
                        scope,
                        op_kind,
                        forbid_singletons,
                        ..AttackConfig::default()
                    };
                    let want = reference(&csr, &targets, cfg, budget);
                    steps += want.0.len();
                    for (threads, memo, session) in &mut sessions {
                        let lru = |s: &AttackSession<'_>| {
                            s.memo_stats().map(|m| (m.grads_hits, m.grads_misses))
                        };
                        let before = lru(session);
                        let got = GradMaxSearch::new(cfg)
                            .attack_with_session(session, budget)
                            .unwrap();
                        let what = format!(
                            "{name}, {scope:?}, {op_kind:?}, forbid {forbid_singletons}, \
                             {threads} threads, memo {memo}"
                        );
                        assert_eq!(lru(session), before, "{what}: consulted the LRU");
                        assert_eq!(got.ops_per_budget, want.0, "{what}: ops");
                        let losses = bits(&got.surrogate_loss_per_budget);
                        assert_eq!(losses, want.1, "{what}: loss bits");
                        assert_eq!(bits(&got.loss_trajectory), want.2, "{what}: trajectory");
                    }
                }
            }
        }
    }
    assert!(steps > 200, "only {steps} reference steps were taken");
}
