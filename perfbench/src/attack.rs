//! `attack`: the paper's search loop on the fig4 quick Blogcatalog-10
//! panel.
//!
//! Each cell draws a target set from the top-AScore pool, runs
//! BinarizedAttack and then GradMaxSearch on one memoized session
//! retargeted per cell (the runner's and the CLI's default), and
//! evaluates both AScore curves. Cells are single-pass, so whole-run
//! outcome replay cannot help: `core.memo.outcome_hits` is predicted 0.
//!
//! The traced run also replays each outcome's ops on a memo-off session
//! and times the public calls at every budget's state, which gives the
//! per-call cold costs.

use crate::report::Report;
use crate::stats::{mean, median, ms, nproc, ratio, us};
use crate::trace::Tracer;
use ba_bench::runner::{derive_seed, DatasetSpec};
use ba_bench::{target_pool, ExpOptions};
use ba_core::pair::static_mask;
use ba_core::{
    AttackConfig, AttackError, AttackOutcome, AttackSession, BinarizedAttack, Candidates,
    GradMaxSearch, StructuralAttack,
};
use ba_datasets::Dataset;
use ba_graph::zobrist::splitmix64;
use ba_graph::{CsrGraph, DeltaOverlay, EditableGraph, GraphView, NodeId};
use ba_oddball::{OddBall, OddBallModel};
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone)]
pub struct AttackParams {
    pub spec: DatasetSpec,
    pub num_targets: usize,
    /// Size of the top-AScore pool targets are drawn from.
    pub pool: usize,
    /// Budget as a fraction of the substrate's edges.
    pub budget_frac: f64,
    pub iterations: usize,
    pub lambdas: Vec<f64>,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// The traced run does a fixed number of cells: one per this many
    /// seconds of `--seconds`.
    pub traced_secs_per_cell: u64,
}

impl AttackParams {
    /// The fig4 quick Blogcatalog-10 panel with the shipped
    /// BinarizedAttack hyper-parameters (T = 300, Λ = {0.002, 0.02}).
    pub fn standard() -> Self {
        Self {
            spec: DatasetSpec::half(Dataset::Blogcatalog),
            num_targets: 10,
            pool: 50,
            budget_frac: 0.008,
            iterations: 300,
            lambdas: vec![0.002, 0.02],
            setups: 41,
            traced_secs_per_cell: 4,
        }
    }

    /// A seconds-scale instance for the benchmark's own tests.
    pub fn tiny() -> Self {
        Self {
            spec: DatasetSpec::scaled(Dataset::Blogcatalog, 120, 600),
            num_targets: 4,
            pool: 20,
            budget_frac: 0.02,
            iterations: 20,
            lambdas: vec![0.02],
            setups: 2,
            traced_secs_per_cell: 1,
        }
    }
}

/// The clean substrate every cell shares.
struct Substrate {
    csr: CsrGraph,
    model: OddBallModel,
    pool: Vec<NodeId>,
}

/// The panel is built at the experiment runner's default base seed, as
/// `fig4` builds it; `--seed` draws the target sets.
fn build_substrate(p: &AttackParams, tr: &mut Tracer) -> (Substrate, f64, f64) {
    let t = Instant::now();
    let graph = tr.span("datasets.build", |_| {
        p.spec.build(ExpOptions::default().seed)
    });
    let build_ms = ms(t.elapsed());
    let csr = CsrGraph::from(&graph);
    let t = Instant::now();
    let model = tr
        .span("oddball.fit", |_| OddBall::default().fit(&csr))
        .expect("OddBall fits the clean substrate");
    let fit_ms = ms(t.elapsed());
    let pool = target_pool(&model, p.pool);
    (Substrate { csr, model, pool }, build_ms, fit_ms)
}

/// Per-call cold costs gathered by the traced replay.
#[derive(Default)]
struct ColdCosts {
    forward_us: Vec<f64>,
    loss_us: Vec<f64>,
    toggle_us: Vec<f64>,
    assembly_ms: Vec<f64>,
}

pub fn run(p: &AttackParams, seed: u64, seconds: u64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let threads = nproc();

    // Set-up: substrate, detector fit, target pool and the memoized
    // session. Repeated for a steady median; the last one is kept.
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut fit_ms = Vec::new();
    let mut kept = None;
    for _ in 0..p.setups.max(1) {
        let t = Instant::now();
        let (sub, b, f) = build_substrate(p, tr);
        let session = tr.span("core.session", |_| {
            AttackSession::new(&sub.csr, &sub.pool[..1])
                .map(|s| s.with_threads(threads).with_memo())
        });
        drop(session);
        setup_s.push(t.elapsed().as_secs_f64());
        build_ms.push(b);
        fit_ms.push(f);
        kept = Some(sub);
    }
    let sub = kept.expect("at least one set-up");
    let mut session = AttackSession::new(&sub.csr, &sub.pool[..1])
        .expect("pool targets are valid")
        .with_threads(threads)
        .with_memo();
    // The memo-off session the traced run replays outcomes on.
    let mut cold = tr.enabled().then(|| {
        AttackSession::new(&sub.csr, &sub.pool[..1])
            .expect("pool targets are valid")
            .with_threads(threads)
    });

    let edges = sub.csr.num_edges();
    let budget = ((edges as f64 * p.budget_frac).round() as usize).max(4);
    let cfg = AttackConfig::default();
    let binarized = BinarizedAttack::new(cfg)
        .with_iterations(p.iterations)
        .with_lambdas(p.lambdas.clone());
    let gradmax = GradMaxSearch::new(cfg);
    let detector = OddBall::default();
    let traced_cells = (seconds / p.traced_secs_per_cell).max(2) as usize;

    let mut bin_s = Vec::new();
    let mut grad_s = Vec::new();
    let mut eval_ms = Vec::new();
    let mut candidates_len = 0usize;
    let mut costs = ColdCosts::default();
    let mut drawn: Vec<Vec<NodeId>> = Vec::new();
    let start = Instant::now();
    let limit = Duration::from_secs(seconds);
    loop {
        let cell = drawn.len();
        let done = if tr.enabled() {
            cell >= traced_cells
        } else {
            cell > 0 && start.elapsed() >= limit
        };
        if done {
            break;
        }
        let targets = draw_targets(p, &sub.pool, seed, &drawn);
        drawn.push(targets.clone());
        tr.span("bench.cell", |tr| {
            let mut outcomes = Vec::new();
            for (attack, times) in [
                (&binarized as &dyn StructuralAttack, &mut bin_s),
                (&gradmax as &dyn StructuralAttack, &mut grad_s),
            ] {
                let t = Instant::now();
                let outcome = tr.span(span_name(attack), |_| {
                    session.retarget(&targets)?;
                    attack.attack_with_session(&mut session, budget)
                });
                times.push(t.elapsed().as_secs_f64());
                outcomes.push(outcome);
            }
            for outcome in &outcomes {
                let ok = match outcome {
                    Ok(outcome) => {
                        let t = Instant::now();
                        let curve = tr.span("core.eval", |_| {
                            outcome
                                .ascore_curve_with_clean(&sub.csr, &sub.model, &targets, &detector)
                        });
                        eval_ms.push(ms(t.elapsed()));
                        tr.span("check.curve", |_| {
                            check(&sub, &targets, &detector, outcome, budget, curve.ok())
                        })
                    }
                    Err(e) => {
                        eprintln!("attack failed on cell {cell}: {e}");
                        false
                    }
                };
                report.op(ok);
            }
            if let Some(cold) = cold.as_mut() {
                let candidates = Candidates::build(cfg.scope, &sub.csr, &targets);
                let mask = static_mask(&candidates, &sub.csr, cfg.op_kind, cfg.forbid_singletons);
                candidates_len = candidates.len();
                tr.span("bench.replay", |tr| {
                    for outcome in outcomes.iter().flatten() {
                        if let Err(e) =
                            replay(cold, &targets, outcome, &candidates, &mask, &mut costs, tr)
                        {
                            eprintln!("cold replay failed on cell {cell}: {e}");
                        }
                    }
                });
            }
        });
        eprintln!(
            "cell {cell}: binarized {:.3} s, gradmax {:.3} s",
            bin_s[cell], grad_s[cell]
        );
    }
    let search_s: f64 = bin_s.iter().chain(&grad_s).sum();
    eprintln!(
        "attack: n = {}, m = {edges}, budget = {budget}, {} cells ({} attack runs, {} failed), \
         binarized mean {:.3} s, gradmax mean {:.3} s",
        sub.csr.num_nodes(),
        drawn.len(),
        report.attempted,
        report.failed,
        mean(&bin_s),
        mean(&grad_s)
    );

    // The main operation is a cell's BinarizedAttack, the side one its
    // GradMaxSearch; the items are cells. Cell costs vary with the
    // targets, and every round of cells covers the pool once, so means
    // are steadier across seeds than medians.
    report.e2e("main_op_ms", mean(&bin_s) * 1e3, "ms");
    report.e2e("side_op_ms", mean(&grad_s) * 1e3, "ms");
    report.e2e("items_per_s", ratio(drawn.len() as f64, search_s), "1/s");

    report.layer("datasets.build_ms", median(&build_ms), "ms");
    report.layer("oddball.fit_ms", median(&fit_ms), "ms");
    report.exact("core.cells", drawn.len() as f64, "count");
    report.exact("core.candidates", candidates_len as f64, "count");
    let stats = session.memo_stats().expect("the session is memoized");
    let grads_calls = stats.grads_hits + stats.grads_misses;
    let ng_calls = stats.ng_hits + stats.ng_misses;
    let loss_calls = stats.loss_hits + stats.loss_misses;
    report.exact("core.forward_calls", ng_calls as f64, "count");
    report.exact("core.assembly_calls", grads_calls as f64, "count");
    report.exact("core.loss_calls", loss_calls as f64, "count");
    report.layer("core.forward_us", median(&costs.forward_us), "us");
    report.layer("core.loss_us", median(&costs.loss_us), "us");
    report.layer("core.toggle_us", median(&costs.toggle_us), "us");
    let assembly_ms = median(&costs.assembly_ms);
    report.layer("core.assembly_ms", assembly_ms, "ms");
    // Computed, not measured: cold assembly cost times the memo's
    // misses, over the time spent searching.
    report.layer(
        "core.assembly_busy_share",
        ratio(stats.grads_misses as f64 * assembly_ms / 1e3, search_s),
        "share",
    );
    let tt = stats.table;
    report.exact("core.memo.tt_hits", tt.hits as f64, "count");
    report.exact("core.memo.tt_stores", tt.stores as f64, "count");
    report.exact("core.memo.tt_evictions", tt.evictions as f64, "count");
    report.exact(
        "core.memo.tt_hits_per_store",
        ratio(tt.hits as f64, tt.stores as f64),
        "ratio",
    );
    report.exact(
        "core.memo.grads_hit_ratio",
        ratio(stats.grads_hits as f64, grads_calls as f64),
        "ratio",
    );
    report.exact(
        "core.memo.ng_hit_ratio",
        ratio(stats.ng_hits as f64, ng_calls as f64),
        "ratio",
    );
    report.exact(
        "core.memo.loss_hit_ratio",
        ratio(stats.loss_hits as f64, loss_calls as f64),
        "ratio",
    );
    report.exact("core.memo.outcome_hits", stats.outcome_hits as f64, "count");
    report.layer("core.eval_ms", median(&eval_ms), "ms");
    report.setup_s = median(&setup_s);
    report
}

fn span_name(attack: &dyn StructuralAttack) -> &'static str {
    if attack.name() == "binarizedattack" {
        "core.binarized"
    } else {
        "core.gradmax"
    }
}

/// The cell's target set. Cells come in rounds: each round splits a
/// seeded shuffle of the pool into disjoint target sets, so every round
/// attacks each pool node once and runs of any seed share one mix of
/// easy and hard targets. A set is redrawn until it differs from every
/// earlier cell's, so no cell repeats another.
fn draw_targets(
    p: &AttackParams,
    pool: &[NodeId],
    seed: u64,
    drawn: &[Vec<NodeId>],
) -> Vec<NodeId> {
    let k = p.num_targets;
    let groups = (pool.len() / k).max(1) as u64;
    let cell = drawn.len() as u64;
    let (round, group) = (cell / groups, (cell % groups) as usize);
    (0u64..)
        .map(|salt| {
            let mut order = pool.to_vec();
            let mut s = derive_seed("perfbench/attack/targets", &[seed, round, salt]);
            for i in (1..order.len()).rev() {
                s = splitmix64(s);
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mut targets = order[group * k..(group + 1) * k].to_vec();
            targets.sort_unstable();
            targets
        })
        .find(|t| !drawn.contains(t))
        .expect("the pool holds more distinct target sets than cells")
}

/// The output check: the incremental AScore curve equals the full-refit
/// reference bit for bit, no budget is exceeded, and no budget's
/// poisoned graph isolates a node that had edges.
fn check(
    sub: &Substrate,
    targets: &[NodeId],
    detector: &OddBall,
    outcome: &AttackOutcome,
    budget: usize,
    curve: Option<Vec<f64>>,
) -> bool {
    if outcome.max_budget() > budget || (1..=outcome.max_budget()).any(|b| outcome.ops(b).len() > b)
    {
        return false;
    }
    let reference = outcome.ascore_curve_full_refit(&sub.csr, &sub.model, targets, detector);
    let same_curve = match (curve, reference) {
        (Some(c), Ok(r)) => {
            c.len() == r.len() && c.iter().zip(&r).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        _ => false,
    };
    let mut overlay = DeltaOverlay::new(&sub.csr);
    let no_singletons = (1..=outcome.max_budget()).all(|b| {
        overlay.reset();
        overlay.apply_ops(outcome.ops(b));
        (0..sub.csr.num_nodes() as NodeId).all(|u| sub.csr.degree(u) == 0 || overlay.degree(u) > 0)
    });
    same_curve && no_singletons
}

/// Replays `outcome` budget by budget on the memo-off session, timing
/// each toggle and, at every budget's state, the forward pass, the loss
/// and the pair-gradient assembly.
fn replay(
    cold: &mut AttackSession<'_>,
    targets: &[NodeId],
    outcome: &AttackOutcome,
    candidates: &Candidates,
    mask: &[bool],
    costs: &mut ColdCosts,
    tr: &mut Tracer,
) -> Result<(), AttackError> {
    cold.retarget(targets)?;
    let mut out = vec![0.0; candidates.len()];
    for b in 1..=outcome.max_budget() {
        cold.reset();
        for op in outcome.ops(b) {
            let t = Instant::now();
            tr.span("core.toggle", |_| cold.toggle(op.u, op.v));
            costs.toggle_us.push(us(t.elapsed()));
        }
        let t = Instant::now();
        let ng = tr.span("core.forward", |_| cold.node_grads())?;
        costs.forward_us.push(us(t.elapsed()));
        let t = Instant::now();
        tr.span("core.loss", |_| cold.loss())?;
        costs.loss_us.push(us(t.elapsed()));
        let t = Instant::now();
        tr.span("core.assembly", |_| {
            cold.pair_gradients_into(&ng, candidates, mask, &mut out)
        });
        costs.assembly_ms.push(ms(t.elapsed()));
    }
    Ok(())
}
