//! Curve-evaluation micro-benchmark: the incremental detector-refit
//! engine vs the per-budget full refit.
//!
//! Times the τ_as evaluation loop — OddBall refitted on the poisoned
//! graph at every budget point — on a 1000-node, ~5000-edge Erdős–Rényi
//! graph at budget 30, two ways:
//!
//! * **incremental** —
//!   [`ba_core::AttackOutcome::ascore_curve_with_clean`]: one
//!   `DeltaOverlay` + `IncrementalEgonet` replay of the op sequence with
//!   `IncrementalFit` patching only the dirty log-feature rows,
//!   `O(deg(u) + deg(v))` per budget;
//! * **full refit** —
//!   [`ba_core::AttackOutcome::ascore_curve_full_refit`]: the
//!   pre-engine path, re-extracting egonet features over the whole graph
//!   and re-running the regression from scratch per budget,
//!   `O(budget × (n + m + Σdeg²))` total.
//!
//! The two curves are cross-checked bit-identical before timing is
//! reported. Exits non-zero if the incremental path is less than 5×
//! faster — the CI smoke gate that keeps the evaluation loop
//! incremental. `--quick` runs fewer repetitions (CI).

use ba_bench::{sample_from_pool, target_pool, time_best_of};
use ba_core::{AttackConfig, RandomAttack, StructuralAttack};
use ba_graph::{generators, CsrGraph};
use ba_oddball::OddBall;

const REQUIRED_SPEEDUP: f64 = 5.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (inc_reps, full_reps) = if quick { (10, 2) } else { (30, 5) };

    // The acceptance instance: ER 1000 nodes / ~5000 edges, budget 30.
    let n = 1000usize;
    let budget = 30usize;
    let g = generators::erdos_renyi(n, 0.01, 7);
    let csr = CsrGraph::from(&g);
    let detector = OddBall::default();
    let clean = detector.fit(&csr).expect("clean fit");
    let targets = sample_from_pool(&target_pool(&clean, 50), 10, 42);

    // A budget-30 nested op sequence (the greedy shape every attack's
    // curve evaluation replays); RandomAttack keeps the setup cheap.
    let outcome = RandomAttack::new(AttackConfig {
        seed: 11,
        ..AttackConfig::default()
    })
    .attack(&g, &targets, budget)
    .expect("random attack");
    assert_eq!(outcome.max_budget(), budget, "attack saturated early");

    eprintln!(
        "graph: n = {n}, m = {}, budget = {budget}, targets = {}",
        g.num_edges(),
        targets.len()
    );

    let mut fast = Vec::new();
    let inc_s = time_best_of(inc_reps, || {
        fast = outcome
            .ascore_curve_with_clean(&csr, &clean, &targets, &detector)
            .expect("incremental curve");
    });
    let mut slow = Vec::new();
    let full_s = time_best_of(full_reps, || {
        slow = outcome
            .ascore_curve_full_refit(&csr, &clean, &targets, &detector)
            .expect("full-refit curve");
    });

    // Cross-check before reporting: the engine must be bit-identical to
    // the from-scratch refit at every budget point.
    assert_eq!(fast.len(), slow.len());
    for (b, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "incremental/full curve mismatch at budget {b}: {f} != {s}"
        );
    }

    let speedup = full_s / inc_s;
    println!("incremental replay: {:>10.3} ms", inc_s * 1e3);
    println!("full refit:         {:>10.3} ms", full_s * 1e3);
    println!("speedup:            {speedup:>10.2}x (gate: ≥{REQUIRED_SPEEDUP}x)");
    ba_net::BenchReport::new("eval")
        .metric("n", n as f64, "count")
        .metric("m", g.num_edges() as f64, "count")
        .metric("budget", budget as f64, "count")
        .metric("targets", targets.len() as f64, "count")
        .metric("incremental_s", inc_s, "s")
        .metric("full_s", full_s, "s")
        .metric("speedup", speedup, "x")
        .write_if_requested(&args)
        .expect("write bench json");
    if speedup < REQUIRED_SPEEDUP {
        eprintln!("FAIL: incremental path is only {speedup:.2}x faster (need {REQUIRED_SPEEDUP}x)");
        std::process::exit(1);
    }
}
