//! `eval`: the τ_as evaluation loop — OddBall refitted on the poisoned
//! graph at every budget point — on a 1000-node, ~5000-edge Erdős–Rényi
//! graph at budget 30, two ways:
//!
//! * **incremental** — [`ba_core::AttackOutcome::ascore_curve_with_clean`]:
//!   one `DeltaOverlay` replay of the op sequence through the shared
//!   `LiveFit` kernel, patching only the dirty log-feature rows,
//!   `O(deg(u) + deg(v))` per toggled pair;
//! * **full refit** — [`ba_core::AttackOutcome::ascore_curve_full_refit`]:
//!   egonet features and regression recomputed per budget,
//!   `O(budget × (n + m + Σdeg²))` in total.
//!
//! The two curves must match bit for bit (a mismatch panics). Fails if
//! the incremental path is less than 5× faster: the gate that keeps the
//! evaluation loop incremental. `--quick` runs fewer repetitions.

use crate::{Profile, Verdict};
use ba_bench::{sample_from_pool, target_pool, time_best_of};
use ba_core::{AttackConfig, RandomAttack, StructuralAttack};
use ba_graph::{generators, CsrGraph};
use ba_net::BenchReport;
use ba_oddball::OddBall;

const REQUIRED_SPEEDUP: f64 = 5.0;

pub fn run(profile: &Profile) -> Verdict {
    let (inc_reps, full_reps) = if profile.quick { (10, 2) } else { (30, 5) };

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

    assert_eq!(fast.len(), slow.len());
    if let Some(b) = (0..fast.len()).find(|&b| fast[b].to_bits() != slow[b].to_bits()) {
        panic!(
            "incremental/full curve mismatch at budget {b}: {} != {}",
            fast[b], slow[b]
        );
    }

    let speedup = full_s / inc_s;
    let report = BenchReport::new("eval")
        .metric("n", n as f64, "count")
        .metric("m", g.num_edges() as f64, "count")
        .metric("budget", budget as f64, "count")
        .metric("targets", targets.len() as f64, "count")
        .metric("incremental_s", inc_s, "s")
        .metric("full_s", full_s, "s")
        .metric("speedup", speedup, "x");
    let failed = (speedup < REQUIRED_SPEEDUP)
        .then(|| format!("incremental/full speedup {speedup:.2}x (need ≥{REQUIRED_SPEEDUP}x)"));
    (report, failed.into_iter().collect())
}
