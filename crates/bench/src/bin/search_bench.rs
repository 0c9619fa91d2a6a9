//! End-to-end attack-search benchmark: memoized vs cold sessions.
//!
//! The workload is a **two-pass suite**: the two search-based attacks
//! (GradMaxSearch and the paper's BinarizedAttack) over several target
//! sets on one frozen substrate, and then the whole sweep again on the
//! same session. That is the orchestrator's shape — experiment suites
//! (budget curves, detector ablations, λ-grid scans) revisit identical
//! `(substrate, targets, attack, config)` cells across experiments, and
//! the bench runner now shares one memoized session per substrate. The
//! cold path runs the exact same two passes on an unmemoized session,
//! so the only variable is the memo. Pass 2 exercises both memo tiers:
//! run-outcome replay for repeated cells, and the assembly LRU within
//! passes, across budget steps, λ restarts, and retargets.
//!
//! Before any timing is reported the two paths are checked for **bit
//! identity**: ops, per-budget losses, and loss trajectories must match
//! exactly (`==` on `f64` bits via `assert_eq!`) — memoization trades
//! memory for wall-clock, never results.
//!
//! Exits non-zero if the memoized path is less than 2× faster end to
//! end — the CI perf gate for this optimisation. That gate passes by
//! construction, because pass 2 is a pure outcome replay, so a second,
//! **single-pass** workload stands beside it: one sweep on a memoized
//! session against one sweep on a cold session, where the only reuse is
//! within the search (the assembly LRU). It gates
//! `single_pass_speedup > 1.0` and at least one assembly-LRU hit in that
//! pass, and can fail if the LRU stops paying for itself.
//!
//! Every timing is the best of 3 reps, in both profiles: one rep on a
//! shared machine let a neighbour's load decide the gates.
//!
//! `--quick` shrinks the workload (CI), `--json` writes
//! `BENCH_search.json` with the timings, both tiers' hit/miss counters,
//! the assembly LRU's stores and evictions, the pass-1 LRU hits, and the
//! forward-pass and loss call counts.

use ba_core::{
    AttackConfig, AttackOutcome, AttackSession, BinarizedAttack, GradMaxSearch, StructuralAttack,
};
use ba_graph::{generators, CsrGraph, Graph, NodeId};
use ba_oddball::OddBall;
use std::time::Instant;

const REQUIRED_SPEEDUP: f64 = 2.0;

/// The single-pass gate: within-search reuse alone must not lose time.
const REQUIRED_SINGLE_PASS_SPEEDUP: f64 = 1.0;

/// Timed reps per path; each path keeps its best.
const REPS: usize = 3;

/// The fixed-seed workload: an ER substrate with a planted near-clique
/// (so OddBall has true positives to rank) and several disjoint target
/// sets drawn from the detector's own top anomalies.
fn build_workload(n: usize, seed: u64, num_target_sets: usize) -> (Graph, Vec<Vec<NodeId>>) {
    let mut g = generators::erdos_renyi(n, 8.0 / n as f64, seed);
    generators::attach_isolated(&mut g, seed + 1);
    let members: Vec<NodeId> = (0..12).collect();
    generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
    let model = OddBall::default().fit(&g).expect("fit clean graph");
    let ranked: Vec<NodeId> = model
        .top_k(3 * num_target_sets)
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    let targets: Vec<Vec<NodeId>> = (0..num_target_sets)
        .map(|k| ranked[3 * k..3 * (k + 1)].to_vec())
        .collect();
    (g, targets)
}

/// Number of identical passes per timed suite (cross-experiment cell
/// replay, the pattern the run-outcome memo tier targets).
const SUITE_PASSES: usize = 2;

/// One full sweep: every attack × every target set on `session`,
/// in a fixed order. Returns the outcomes for the bit-identity check.
fn run_sweep(
    session: &mut AttackSession<'_>,
    target_sets: &[Vec<NodeId>],
    budget: usize,
    iterations: usize,
) -> Vec<AttackOutcome> {
    let gradmax = GradMaxSearch::new(AttackConfig::default());
    let binarized = BinarizedAttack::new(AttackConfig::default()).with_iterations(iterations);
    let mut outcomes = Vec::with_capacity(2 * target_sets.len());
    for targets in target_sets {
        session.retarget(targets).expect("valid targets");
        outcomes.push(
            binarized
                .attack_with_session(session, budget)
                .expect("binarized attack"),
        );
        session.retarget(targets).expect("valid targets");
        outcomes.push(
            gradmax
                .attack_with_session(session, budget)
                .expect("gradmax attack"),
        );
    }
    outcomes
}

/// The timed unit: [`SUITE_PASSES`] identical sweeps on one session.
fn run_suite(
    session: &mut AttackSession<'_>,
    target_sets: &[Vec<NodeId>],
    budget: usize,
    iterations: usize,
) -> Vec<AttackOutcome> {
    let mut outcomes = Vec::new();
    for _ in 0..SUITE_PASSES {
        outcomes.extend(run_sweep(session, target_sets, budget, iterations));
    }
    outcomes
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `iterations` stays at the attacks' shipped default (T = 300): the
    // bench must measure the search as users run it, and the PGD tail —
    // where the re-binarised graph cycles through a handful of states —
    // is exactly what the memo exists for.
    let (n, budget, iterations) = if quick {
        (300, 20, 300)
    } else {
        (400, 24, 300)
    };
    let num_target_sets = 3;

    let (g, target_sets) = build_workload(n, 20_220_508, num_target_sets);
    let csr = CsrGraph::from(&g);
    let threads = ba_core::resolve_threads(0);
    eprintln!(
        "graph: n = {n}, m = {}, target sets = {num_target_sets}, budget = {budget}, \
         iterations = {iterations}, threads = {threads}",
        g.num_edges()
    );

    eprintln!("suite: {SUITE_PASSES} passes per timed rep (cross-experiment cell replay)");

    // Cold path: an unmemoized session runs the identical two-pass
    // suite (the pre-memo engine's behaviour — retarget reuses features
    // but every cell re-searches from scratch).
    let mut cold_outcomes = Vec::new();
    let mut cold_s = f64::INFINITY;
    for _ in 0..REPS {
        let mut session = AttackSession::new(&csr, &target_sets[0])
            .expect("session")
            .with_threads(threads);
        assert!(!session.memo_enabled());
        let t0 = Instant::now();
        cold_outcomes = run_suite(&mut session, &target_sets, budget, iterations);
        cold_s = cold_s.min(t0.elapsed().as_secs_f64());
    }

    // Memoized path: one session with the cache hierarchy attached,
    // reused across every attack, target set, and suite pass.
    let mut memo_outcomes = Vec::new();
    let mut memo_s = f64::INFINITY;
    let mut memo_stats = None;
    for _ in 0..REPS {
        let mut session = AttackSession::new(&csr, &target_sets[0])
            .expect("session")
            .with_threads(threads)
            .with_memo();
        let t0 = Instant::now();
        memo_outcomes = run_suite(&mut session, &target_sets, budget, iterations);
        memo_s = memo_s.min(t0.elapsed().as_secs_f64());
        memo_stats = session.memo_stats();
    }
    let stats = memo_stats.expect("memo was attached");

    // Single pass: one sweep per session, so no cell repeats and the
    // run-outcome tier cannot answer. Cold and memoized sweeps alternate
    // within each rep; the best of each is kept.
    let mut single_cold_s = f64::INFINITY;
    let mut single_memo_s = f64::INFINITY;
    let mut single_outcomes = Vec::new();
    let mut pass1_stats = None;
    for _ in 0..REPS {
        let mut cold = AttackSession::new(&csr, &target_sets[0])
            .expect("session")
            .with_threads(threads);
        let t0 = Instant::now();
        run_sweep(&mut cold, &target_sets, budget, iterations);
        single_cold_s = single_cold_s.min(t0.elapsed().as_secs_f64());
        let mut memo = AttackSession::new(&csr, &target_sets[0])
            .expect("session")
            .with_threads(threads)
            .with_memo();
        let t0 = Instant::now();
        single_outcomes = run_sweep(&mut memo, &target_sets, budget, iterations);
        single_memo_s = single_memo_s.min(t0.elapsed().as_secs_f64());
        pass1_stats = memo.memo_stats();
    }
    let pass1 = pass1_stats.expect("memo was attached");
    assert_eq!(pass1.outcome_hits, 0, "a single pass repeats no cell");

    // Bit identity: the memo must be invisible in the results.
    assert_eq!(cold_outcomes.len(), memo_outcomes.len());
    for (c, m) in cold_outcomes.iter().zip(&memo_outcomes) {
        assert_eq!(c.name, m.name);
        assert_eq!(
            c.ops_per_budget, m.ops_per_budget,
            "{}: ops diverged",
            c.name
        );
        assert_eq!(
            c.surrogate_loss_per_budget, m.surrogate_loss_per_budget,
            "{}: losses diverged",
            c.name
        );
        assert_eq!(
            c.loss_trajectory, m.loss_trajectory,
            "{}: trajectory diverged",
            c.name
        );
    }
    for (c, m) in cold_outcomes.iter().zip(&single_outcomes) {
        assert_eq!(
            c.ops_per_budget, m.ops_per_budget,
            "{}: single pass",
            c.name
        );
        assert_eq!(
            c.loss_trajectory, m.loss_trajectory,
            "{}: single pass",
            c.name
        );
    }
    eprintln!(
        "bit-identity check passed ({} outcomes, {} single-pass)",
        cold_outcomes.len(),
        single_outcomes.len()
    );

    let speedup = cold_s / memo_s;
    let lru = stats.table;
    println!("cold  sweep: {:>10.3} ms", cold_s * 1e3);
    println!("memo  sweep: {:>10.3} ms", memo_s * 1e3);
    println!("speedup:     {speedup:>10.2}x (gate: ≥{REQUIRED_SPEEDUP}x)");
    let single_pass_speedup = single_cold_s / single_memo_s;
    println!(
        "single pass: cold {:.3} ms, memo {:.3} ms, {single_pass_speedup:.2}x \
         (gate: >{REQUIRED_SINGLE_PASS_SPEEDUP}x), {} LRU hits (gate: >0)",
        single_cold_s * 1e3,
        single_memo_s * 1e3,
        pass1.grads_hits
    );
    println!(
        "assembly LRU: {} hits / {} misses, {} stores, {} evictions, capacity {}",
        lru.hits, lru.misses, lru.stores, lru.evictions, lru.capacity
    );
    println!(
        "uncached: {} forward passes, {} loss evaluations",
        stats.ng_misses, stats.loss_misses
    );
    println!(
        "run-outcome memo: {} hits / {} misses",
        stats.outcome_hits, stats.outcome_misses
    );
    ba_net::BenchReport::new("search")
        .metric("n", n as f64, "count")
        .metric("m", g.num_edges() as f64, "count")
        .metric("target_sets", num_target_sets as f64, "count")
        .metric("budget", budget as f64, "count")
        .metric("threads", threads as f64, "count")
        .metric("cold_s", cold_s, "s")
        .metric("memo_s", memo_s, "s")
        .metric("speedup", speedup, "x")
        .metric("single_cold_s", single_cold_s, "s")
        .metric("single_memo_s", single_memo_s, "s")
        .metric("single_pass_speedup", single_pass_speedup, "x")
        .metric("pass1_grads_hits", pass1.grads_hits as f64, "count")
        .metric("forward_passes", stats.ng_misses as f64, "count")
        .metric("loss_evals", stats.loss_misses as f64, "count")
        .metric("grads_hits", stats.grads_hits as f64, "count")
        .metric("grads_misses", stats.grads_misses as f64, "count")
        .metric("grads_stores", lru.stores as f64, "count")
        .metric("grads_evictions", lru.evictions as f64, "count")
        .metric("outcome_hits", stats.outcome_hits as f64, "count")
        .metric("outcome_misses", stats.outcome_misses as f64, "count")
        .write_if_requested(&args)
        .expect("write bench json");
    let mut failed = false;
    if speedup < REQUIRED_SPEEDUP {
        eprintln!("FAIL: memoized sweep is only {speedup:.2}x faster (need {REQUIRED_SPEEDUP}x)");
        failed = true;
    }
    if single_pass_speedup <= REQUIRED_SINGLE_PASS_SPEEDUP || pass1.grads_hits == 0 {
        eprintln!(
            "FAIL: single pass is {single_pass_speedup:.2}x with {} LRU hits \
             (need >{REQUIRED_SINGLE_PASS_SPEEDUP}x and >0 hits)",
            pass1.grads_hits
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
