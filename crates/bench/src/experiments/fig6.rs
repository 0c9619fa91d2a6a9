//! Fig. 6 as a runner experiment — attack preference by target group on
//! the Blogcatalog-like graph. A single cell: the three group curves and
//! the regression panels all derive from one 30-target attack run, so
//! splitting them would re-run the attack per group. Parallelism comes
//! from pooling this cell with other experiments' cells in the `all`
//! suite.

use crate::experiments::{out, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{f4, BenchError, ExpOptions};
use ba_core::{AttackConfig, AttackOutcome, BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_graph::{DeltaOverlay, EditableGraph, NodeId};
use ba_oddball::OddBall;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The Fig. 6 group-preference experiment.
#[derive(Debug, Clone)]
pub struct Fig6Experiment {
    /// BinarizedAttack PGD iterations.
    pub iterations: usize,
    /// Edge budget (paper: 60).
    pub budget: usize,
}

impl Fig6Experiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        Self {
            iterations: if opts.paper { 400 } else { 300 },
            budget: 60,
        }
    }
}

impl Experiment for Fig6Experiment {
    fn name(&self) -> String {
        "fig6".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec![
            "fig6_groups.csv".to_string(),
            "fig6_regression.csv".to_string(),
        ]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        vec![DatasetSpec::full(Dataset::Blogcatalog)]
    }

    fn cell_label(&self, _cell: usize) -> String {
        "groups+regression".to_string()
    }

    fn run_cell(&self, _cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let model = ctx.model(0);
        let scores = model.scores();
        let q1 = ba_stats::percentile(scores, 10.0);
        let q2 = ba_stats::percentile(scores, 90.0);

        // Group membership at the 10th/90th percentiles.
        let mut low: Vec<NodeId> = Vec::new();
        let mut med: Vec<NodeId> = Vec::new();
        let mut high: Vec<NodeId> = Vec::new();
        for (i, &s) in scores.iter().enumerate() {
            let id = i as NodeId;
            if s <= q1 {
                low.push(id);
            } else if s >= q2 {
                high.push(id);
            } else {
                med.push(id);
            }
        }
        let mut rng = StdRng::seed_from_u64(ctx.seed_for("groups", &[]));
        for group in [&mut low, &mut med, &mut high] {
            group.shuffle(&mut rng);
            group.truncate(10);
            group.sort_unstable();
        }
        let mut all_targets = Vec::new();
        all_targets.extend_from_slice(&low);
        all_targets.extend_from_slice(&med);
        all_targets.extend_from_slice(&high);

        // Attack errors fail the cell gracefully, like fig4: the reason
        // rides in the record row, the runner keeps its workers, and
        // finalize reports the failure instead of the figure.
        let outcome = match ctx.session(0, &all_targets).and_then(|session| {
            BinarizedAttack::new(AttackConfig::default())
                .with_iterations(self.iterations)
                .attack_with_session(session, self.budget)
        }) {
            Ok(outcome) => outcome,
            Err(e) => return vec![format!("failed,{e}")],
        };

        let detector = OddBall::default();
        let csr = ctx.csr(0);
        // A degenerate refit at some budget fails only that group's
        // curve: it prints `n/a` (stdout) and NaN (CSV).
        let group_curve = |targets: &[NodeId]| {
            let curve = outcome.ascore_curve_with_clean(csr, model, targets, &detector);
            match curve {
                Ok(c) => Some((0..c.len()).map(|b| AttackOutcome::tau_as(&c, b)).collect()),
                Err(e) => {
                    eprintln!("warning: fig6 group curve failed: {e}");
                    None
                }
            }
        };
        let curves = [&low, &med, &high].map(|group| group_curve(group));
        let mut rows = vec![out(format_args!(
            "FIG 6: Blogcatalog-like, percentile thresholds q1={q1:.4} (10%), q2={q2:.4} (90%)"
        ))];
        rows.extend(group_table(self.budget, &curves));

        // Regression lines clean vs poisoned at the full budget.
        let mut poisoned = DeltaOverlay::new(csr);
        poisoned.apply_ops(outcome.ops(self.budget));
        let (b0, b1) = (model.beta0(), model.beta1());
        rows.extend([
            out(""),
            out(format_args!(
                "regression clean:    beta0 = {b0:.4}, beta1 = {b1:.4}"
            )),
            format!("fig6_regression.csv,clean,{b0:.6},{b1:.6}"),
        ]);
        let mut panels = vec![("clean", model.features())];
        let model_after = OddBall::default().fit(&poisoned);
        match &model_after {
            Ok(m) => {
                let (b0, b1, b) = (m.beta0(), m.beta1(), self.budget);
                rows.push(out(format_args!(
                    "regression B={b}:  beta0 = {b0:.4}, beta1 = {b1:.4}"
                )));
                rows.push(format!("fig6_regression.csv,poisoned_b{b},{b0:.6},{b1:.6}"));
                panels.push(("poisoned", m.features()));
            }
            Err(e) => rows.push(format!("failed,poisoned regression unavailable: {e}")),
        }
        for (tag, f) in panels {
            for (gname, group) in [("low", &low), ("medium", &med), ("high", &high)] {
                for &t in group.iter() {
                    let (x, y) = (f.n[t as usize].max(1.0).ln(), f.e[t as usize].max(1.0).ln());
                    rows.push(format!(
                        "fig6_regression.csv,scatter_{tag}_{gname},{x:.6},{y:.6}"
                    ));
                }
            }
        }
        rows
    }

    /// A whole-cell failure (the attack itself) ships header-only
    /// artifacts plus a warning, so the rest of a pooled suite is
    /// unaffected. The failure row is a *committed* cell: re-running
    /// without `--resume` recomputes it.
    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        let headers = [
            "budget,tau_low,tau_medium,tau_high",
            "series,x_or_beta0,y_or_beta1",
        ];
        write_report(self, opts, cells, &headers)
    }
}

/// The group-curve table every 10 budgets: stdout lines and
/// `fig6_groups.csv` rows, a failed curve as `n/a` / NaN.
fn group_table(budget: usize, curves: &[Option<Vec<f64>>; 3]) -> Vec<String> {
    let mut rows = vec![out(format_args!(
        "{:>8}  {:>10}  {:>10}  {:>10}",
        "budget", "low", "medium", "high"
    ))];
    for b in (0..=budget).step_by(10) {
        let at = curves
            .each_ref()
            .map(|c| c.as_ref().map(|c| c[b.min(c.len() - 1)]));
        let [l, m, h] = at.map(|v| v.map_or_else(|| "n/a".to_string(), f4));
        rows.push(out(format_args!("{b:>8}  {l:>10}  {m:>10}  {h:>10}")));
        let [l, m, h] = at.map(|v| v.unwrap_or(f64::NAN));
        rows.push(format!("fig6_groups.csv,{b},{l},{m},{h}"));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tag: &str) -> ExpOptions {
        let dir = std::env::temp_dir().join("ba_fig6_failpath").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        ExpOptions {
            out_dir: dir,
            ..ExpOptions::default()
        }
    }

    /// A whole-cell attack failure finalizes to empty artifacts instead
    /// of a panic (the pre-fix behaviour surfaced through the runner's
    /// panic isolation and shipped nothing).
    #[test]
    fn whole_cell_failure_finalizes_gracefully() {
        let exp = Fig6Experiment {
            iterations: 1,
            budget: 20,
        };
        let opts = opts("whole");
        exp.finalize(&opts, &[vec!["failed,empty target set".to_string()]])
            .unwrap();
        let groups = std::fs::read_to_string(opts.out_dir.join("fig6_groups.csv")).unwrap();
        assert_eq!(groups, "budget,tau_low,tau_medium,tau_high\n");
        assert!(opts.out_dir.join("fig6_regression.csv").exists());
    }

    /// A single failed group curve / poisoned refit renders as n/a//NaN
    /// while the healthy records still ship.
    #[test]
    fn partial_failures_render_as_na() {
        let exp = Fig6Experiment {
            iterations: 1,
            budget: 10,
        };
        let opts = opts("partial");
        let curve: Vec<f64> = (0..=10).map(|b| b as f64 / 10.0).collect();
        let mut rows = group_table(10, &[Some(curve.clone()), None, Some(curve)]);
        rows.extend([
            "fig6_regression.csv,clean,0.500000,1.200000".to_string(),
            "failed,poisoned regression unavailable: degenerate".to_string(),
            "fig6_regression.csv,scatter_clean_low,1.000000,2.000000".to_string(),
        ]);
        exp.finalize(&opts, &[rows]).unwrap();
        let groups = std::fs::read_to_string(opts.out_dir.join("fig6_groups.csv")).unwrap();
        assert!(groups.contains("0,0,NaN,0"), "{groups}");
        assert!(groups.contains("10,1,NaN,1"), "{groups}");
        let reg = std::fs::read_to_string(opts.out_dir.join("fig6_regression.csv")).unwrap();
        assert!(reg.contains("clean,0.5"), "{reg}");
        assert!(!reg.contains("poisoned_b10"), "{reg}");
        assert!(reg.contains("scatter_clean_low"), "{reg}");
    }
}
