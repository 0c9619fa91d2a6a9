//! `search`: end-to-end attack search, memoized vs cold sessions.
//!
//! The workload is one **single-pass** sweep: GradMaxSearch and the
//! paper's BinarizedAttack over three target sets on one frozen
//! substrate and one session, the orchestrator's shape. No cell
//! repeats, so the only thing the memo can reuse is an assembly within
//! a search (the assembly LRU absorbing the PGD tail). The cold path
//! runs the same sweep on an unmemoized session, and cold and memoized
//! reps alternate. Fails unless `single_pass_speedup > 1` with at least
//! one LRU hit. Ops, losses and loss trajectories must equal the cold
//! path's (a mismatch panics): memoization trades memory for
//! wall-clock, never results. The cold sweep's seconds are also
//! reported per attack, each the best of [`REPS`]. `--quick` shrinks
//! the workload.

use crate::{Profile, Verdict};
use ba_core::{
    AttackConfig, AttackOutcome, AttackSession, BinarizedAttack, GradMaxSearch, MemoStats,
    StructuralAttack,
};
use ba_graph::{generators, CsrGraph, NodeId};
use ba_net::BenchReport;
use ba_oddball::OddBall;
use std::time::Instant;

/// The single-pass gate: within-search reuse alone must not lose time.
const REQUIRED_SINGLE_PASS_SPEEDUP: f64 = 1.0;

/// Timed reps per path, in both profiles; each path keeps its best. One
/// rep on a shared machine let a neighbour's load decide the gates.
const REPS: usize = 3;

/// The fixed workload every timed run sweeps.
struct Suite {
    csr: CsrGraph,
    target_sets: Vec<Vec<NodeId>>,
    budget: usize,
    iterations: usize,
    threads: usize,
}

impl Suite {
    /// One sweep on a fresh session, memoized or cold: every attack on
    /// every target set, in a fixed order. Returns the outcomes, the
    /// seconds the sweep took, the seconds of its BinarizedAttack and
    /// GradMaxSearch calls, and the memo counters.
    fn time(&self, memo: bool) -> (Vec<AttackOutcome>, f64, [f64; 2], Option<MemoStats>) {
        let session = AttackSession::new(&self.csr, &self.target_sets[0])
            .expect("session")
            .with_threads(self.threads);
        let mut session = if memo { session.with_memo() } else { session };
        assert_eq!(session.memo_enabled(), memo);
        let t0 = Instant::now();
        let mut outcomes = Vec::with_capacity(2 * self.target_sets.len());
        let gradmax = GradMaxSearch::new(AttackConfig::default());
        let binarized =
            BinarizedAttack::new(AttackConfig::default()).with_iterations(self.iterations);
        let mut per_attack = [0.0; 2];
        for targets in &self.target_sets {
            let attacks: [&dyn StructuralAttack; 2] = [&binarized, &gradmax];
            for (attack, seconds) in attacks.into_iter().zip(&mut per_attack) {
                let t = Instant::now();
                session.retarget(targets).expect("valid targets");
                let outcome = attack.attack_with_session(&mut session, self.budget);
                outcomes.push(outcome.unwrap_or_else(|e| panic!("{}: {e}", attack.name())));
                *seconds += t.elapsed().as_secs_f64();
            }
        }
        let total = t0.elapsed().as_secs_f64();
        (outcomes, total, per_attack, session.memo_stats())
    }
}

pub fn run(profile: &Profile) -> Verdict {
    // `iterations` stays at the attacks' shipped default (T = 300): the
    // bench must measure the search as users run it, and the PGD tail —
    // where the re-binarised graph cycles through a handful of states —
    // is exactly what the memo exists for.
    let (n, budget, iterations) = if profile.quick {
        (300, 20, 300)
    } else {
        (400, 24, 300)
    };
    let (num_target_sets, seed) = (3, 20_220_508);

    // The fixed-seed substrate: ER with a planted near-clique (so OddBall
    // has true positives to rank), and disjoint target sets of 3 drawn
    // from the detector's own top anomalies.
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
    let threads = ba_core::resolve_threads(0);
    let suite = Suite {
        csr: CsrGraph::from(&g),
        target_sets: ranked.chunks(3).map(<[NodeId]>::to_vec).collect(),
        budget,
        iterations,
        threads,
    };
    eprintln!("suite: 1 pass per timed rep, T = {iterations}");

    // The cold session re-searches every cell from scratch (retarget
    // reuses features); the memoized one is reused across every attack
    // and target set. Cold and memoized sweeps alternate within each rep.
    let (mut single_cold_s, mut single_memo_s) = (f64::INFINITY, f64::INFINITY);
    let mut cold_per_attack = [f64::INFINITY; 2];
    let (mut cold_outcomes, mut memo_outcomes, mut memo_stats) = (Vec::new(), Vec::new(), None);
    for _ in 0..REPS {
        let (outcomes, s, per_attack, _) = suite.time(false);
        (cold_outcomes, single_cold_s) = (outcomes, single_cold_s.min(s));
        for (best, s) in cold_per_attack.iter_mut().zip(per_attack) {
            *best = best.min(s);
        }
        let (outcomes, s, _, stats) = suite.time(true);
        (memo_outcomes, single_memo_s, memo_stats) = (outcomes, single_memo_s.min(s), stats);
    }
    let [binarized_cold_s, gradmax_cold_s] = cold_per_attack;
    let stats = memo_stats.expect("memo was attached");

    // Bit identity: the memo must be invisible in the results.
    assert_eq!(cold_outcomes.len(), memo_outcomes.len());
    for (c, m) in cold_outcomes.iter().zip(&memo_outcomes) {
        let same = c.name == m.name
            && c.ops_per_budget == m.ops_per_budget
            && c.surrogate_loss_per_budget == m.surrogate_loss_per_budget
            && c.loss_trajectory == m.loss_trajectory;
        assert!(same, "{}: memoized outcome diverged", c.name);
    }

    let single_pass_speedup = single_cold_s / single_memo_s;
    let lru = stats.table;
    eprintln!("assembly LRU capacity {}", lru.capacity);
    let report = BenchReport::new("search")
        .metric("n", n as f64, "count")
        .metric("m", g.num_edges() as f64, "count")
        .metric("target_sets", num_target_sets as f64, "count")
        .metric("budget", budget as f64, "count")
        .metric("threads", threads as f64, "count")
        .metric("single_cold_s", single_cold_s, "s")
        .metric("single_memo_s", single_memo_s, "s")
        .metric("single_pass_speedup", single_pass_speedup, "x")
        .metric("binarized_cold_s", binarized_cold_s, "s")
        .metric("gradmax_cold_s", gradmax_cold_s, "s")
        .metric("forward_passes", stats.ng_misses as f64, "count")
        .metric("loss_evals", stats.loss_misses as f64, "count")
        .metric("grads_hits", stats.grads_hits as f64, "count")
        .metric("grads_misses", stats.grads_misses as f64, "count")
        .metric("grads_stores", lru.stores as f64, "count")
        .metric("grads_evictions", lru.evictions as f64, "count");
    let mut failed = Vec::new();
    if single_pass_speedup <= REQUIRED_SINGLE_PASS_SPEEDUP || stats.grads_hits == 0 {
        failed.push(format!(
            "single pass is {single_pass_speedup:.2}x with {} LRU hits \
             (need >{REQUIRED_SINGLE_PASS_SPEEDUP}x and >0 hits)",
            stats.grads_hits
        ));
    }
    (report, failed)
}
