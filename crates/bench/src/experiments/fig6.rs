//! Fig. 6 as a runner experiment — attack preference by target group on
//! the Blogcatalog-like graph. A single cell: the three group curves and
//! the regression panels all derive from one 30-target attack run, so
//! splitting them would re-run the attack per group. Parallelism comes
//! from pooling this cell with other experiments' cells in `run_all`.

use crate::artifact::{dec_curve, enc_curve};
use crate::experiments::{corrupt, dec_field};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{f4, BenchError, ExpOptions};
use ba_core::{AttackConfig, AttackOutcome, BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_graph::{DeltaOverlay, EditableGraph, NodeId};
use ba_net::codec::enc_f64;
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

    fn config_fingerprint(&self) -> String {
        format!("{self:?}")
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

    fn num_cells(&self) -> usize {
        1
    }

    fn cell_dataset(&self, _cell: usize) -> usize {
        0
    }

    fn cell_label(&self, _cell: usize) -> String {
        "groups+regression".to_string()
    }

    /// Cell records (all float payloads in the exact bit codec):
    /// * `q,<q1>,<q2>` — the percentile thresholds;
    /// * `groupcurve,<group>,<curve>` or `groupcurve,<group>,failed,<reason>`;
    /// * `beta,<tag>,<b0>,<b1>` or `beta,poisoned,failed,<reason>`;
    /// * `scatter,<tag>,<group>,<x>,<y>`;
    /// * a single `failed,<reason>` row when the attack itself failed.
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
            Err(e) => {
                eprintln!("warning: fig6 attack failed: {e}");
                return vec![format!("failed,{e}")];
            }
        };

        let detector = OddBall::default();
        let csr = ctx.csr(0);
        // A degenerate refit at some budget fails only that group's
        // curve: the failing budget (named by CurveError) rides in the
        // record and finalize prints `n/a` for the group.
        let group_curve = |targets: &[NodeId]| -> Result<Vec<f64>, String> {
            let curve = outcome
                .ascore_curve_with_clean(csr, model, targets, &detector)
                .map_err(|e| e.to_string())?;
            Ok((0..curve.len())
                .map(|b| AttackOutcome::tau_as(&curve, b))
                .collect())
        };

        let mut rows = vec![format!("q,{},{}", enc_f64(q1), enc_f64(q2))];
        for (gname, group) in [("low", &low), ("medium", &med), ("high", &high)] {
            match group_curve(group) {
                Ok(curve) => rows.push(format!("groupcurve,{gname},{}", enc_curve(&curve))),
                Err(reason) => {
                    eprintln!("warning: fig6 {gname}-group curve failed: {reason}");
                    rows.push(format!("groupcurve,{gname},failed,{reason}"));
                }
            }
        }

        // Regression lines clean vs poisoned at the full budget.
        let mut poisoned = DeltaOverlay::new(csr);
        poisoned.apply_ops(outcome.ops(self.budget));
        rows.push(format!(
            "beta,clean,{},{}",
            enc_f64(model.beta0()),
            enc_f64(model.beta1())
        ));
        let model_after = match OddBall::default().fit(&poisoned) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("warning: fig6 poisoned refit failed: {e}");
                rows.push(format!("beta,poisoned,failed,{e}"));
                None
            }
        };
        if let Some(ref m) = model_after {
            rows.push(format!(
                "beta,poisoned,{},{}",
                enc_f64(m.beta0()),
                enc_f64(m.beta1())
            ));
        }
        let mut panels: Vec<(&str, &ba_oddball::OddBallModel)> = vec![("clean", model)];
        if let Some(ref m) = model_after {
            panels.push(("poisoned", m));
        }
        for (tag, m) in panels {
            for (gname, group) in [("low", &low), ("medium", &med), ("high", &high)] {
                for &t in group.iter() {
                    let f = m.features();
                    rows.push(format!(
                        "scatter,{tag},{gname},{},{}",
                        enc_f64(f.n[t as usize].max(1.0).ln()),
                        enc_f64(f.e[t as usize].max(1.0).ln())
                    ));
                }
            }
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        let rows = &cells[0];
        // A whole-cell failure (the attack itself) ships empty artifacts
        // plus a warning instead of panicking the finalize pass, so the
        // rest of a pooled suite is unaffected. The failure row is a
        // *committed* cell (like fig4's failed samples): re-running
        // without `--resume` recomputes it.
        if let Some(reason) = rows[0].strip_prefix("failed,") {
            eprintln!("warning: fig6 produced no figure: {reason}");
            opts.write_csv("fig6_groups.csv", "budget,tau_low,tau_medium,tau_high", &[])?;
            opts.write_csv("fig6_regression.csv", "series,x_or_beta0,y_or_beta1", &[])?;
            return Ok(());
        }
        let qs: Vec<f64> = rows[0]
            .split(',')
            .skip(1)
            .map(|s| dec_field("fig6", "q payload", s))
            .collect::<Result<_, _>>()?;
        println!(
            "FIG 6: Blogcatalog-like, percentile thresholds q1={:.4} (10%), q2={:.4} (90%)",
            qs[0], qs[1]
        );

        // A group curve / poisoned beta can individually be `failed`;
        // those render as `n/a` (stdout) and NaN (CSV), like fig4.
        let mut curves: Vec<(String, Option<Vec<f64>>)> = Vec::new();
        let mut betas: Vec<(String, f64, f64)> = Vec::new();
        let mut scatter: Vec<String> = Vec::new();
        for row in rows.iter().skip(1) {
            let parts: Vec<&str> = row.split(',').collect();
            match parts[0] {
                "groupcurve" => {
                    let curve = if parts[2] == "failed" {
                        None
                    } else {
                        Some(dec_curve(parts[2]).ok_or_else(|| {
                            corrupt("fig6", format!("{} curve payload", parts[1]))
                        })?)
                    };
                    curves.push((parts[1].to_string(), curve));
                }
                "beta" if parts[2] == "failed" => {
                    eprintln!(
                        "warning: fig6 {} regression unavailable: {}",
                        parts[1],
                        parts[3..].join(",")
                    );
                }
                "beta" => betas.push((
                    parts[1].to_string(),
                    dec_field("fig6", "beta0", parts[2])?,
                    dec_field("fig6", "beta1", parts[3])?,
                )),
                "scatter" => scatter.push(format!(
                    "scatter_{}_{},{:.6},{:.6}",
                    parts[1],
                    parts[2],
                    dec_field("fig6", "scatter x", parts[3])?,
                    dec_field("fig6", "scatter y", parts[4])?
                )),
                other => return Err(corrupt("fig6", format!("unknown record {other:?}"))),
            }
        }

        println!(
            "{:>8}  {:>10}  {:>10}  {:>10}",
            "budget", "low", "medium", "high"
        );
        let mut csv = Vec::new();
        for b in (0..=self.budget).step_by(10) {
            let at = |c: &Option<Vec<f64>>| c.as_ref().map(|c| c[b.min(c.len() - 1)]);
            let shown = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), f4);
            println!(
                "{:>8}  {:>10}  {:>10}  {:>10}",
                b,
                shown(at(&curves[0].1)),
                shown(at(&curves[1].1)),
                shown(at(&curves[2].1))
            );
            csv.push(format!(
                "{b},{},{},{}",
                at(&curves[0].1).unwrap_or(f64::NAN),
                at(&curves[1].1).unwrap_or(f64::NAN),
                at(&curves[2].1).unwrap_or(f64::NAN)
            ));
        }
        opts.write_csv(
            "fig6_groups.csv",
            "budget,tau_low,tau_medium,tau_high",
            &csv,
        )?;

        let mut reg_csv = Vec::new();
        for (tag, b0, b1) in &betas {
            if tag == "clean" {
                println!("\nregression clean:    beta0 = {b0:.4}, beta1 = {b1:.4}");
                reg_csv.push(format!("clean,{b0:.6},{b1:.6}"));
            } else {
                println!(
                    "regression B={}:  beta0 = {b0:.4}, beta1 = {b1:.4}",
                    self.budget
                );
                reg_csv.push(format!("poisoned_b{},{b0:.6},{b1:.6}", self.budget));
            }
        }
        reg_csv.extend(scatter);
        opts.write_csv(
            "fig6_regression.csv",
            "series,x_or_beta0,y_or_beta1",
            &reg_csv,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_net::codec::enc_f64;

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
        let rows = vec![
            format!("q,{},{}", enc_f64(0.1), enc_f64(0.9)),
            format!("groupcurve,low,{}", crate::artifact::enc_curve(&curve)),
            "groupcurve,medium,failed,refit degenerate at budget 7".to_string(),
            format!("groupcurve,high,{}", crate::artifact::enc_curve(&curve)),
            format!("beta,clean,{},{}", enc_f64(0.5), enc_f64(1.2)),
            "beta,poisoned,failed,regression failed: degenerate".to_string(),
            format!("scatter,clean,low,{},{}", enc_f64(1.0), enc_f64(2.0)),
        ];
        exp.finalize(&opts, &[rows]).unwrap();
        let groups = std::fs::read_to_string(opts.out_dir.join("fig6_groups.csv")).unwrap();
        assert!(groups.contains("NaN"), "{groups}");
        assert!(groups.contains("0,0,NaN,0"), "{groups}");
        let reg = std::fs::read_to_string(opts.out_dir.join("fig6_regression.csv")).unwrap();
        assert!(reg.contains("clean,0.5"), "{reg}");
        assert!(!reg.contains("poisoned_b10"), "{reg}");
        assert!(reg.contains("scatter_clean_low"), "{reg}");
    }
}
