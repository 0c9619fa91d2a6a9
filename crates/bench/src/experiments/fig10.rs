//! Fig. 10 as a runner experiment — countermeasures: OddBall with robust
//! estimators (Huber, RANSAC) vs plain OLS under BinarizedAttack, on the
//! Bitcoin-Alpha-like and Wikivote-like graphs with 10 targets. One
//! cell per dataset, averaging over the target resamples.
//!
//! τ_as is re-evaluated under each estimator: the attack is optimised
//! against OLS-OddBall, then scored by the robust variants. Paper
//! finding: both robust estimators *slightly* mitigate the attack, which
//! remains very effective.

use crate::experiments::{out, side_attack, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{f4, sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{AttackOutcome, BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_oddball::{OddBall, Regressor};

/// The Fig. 10 robust-estimator defence experiment: base seed, target
/// resamples averaged per dataset, and the attack.
#[derive(Debug, Clone)]
pub struct Fig10Experiment {
    seed: u64,
    samples: usize,
    attack: BinarizedAttack,
}

impl Fig10Experiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        Self {
            seed: opts.seed,
            samples: opts.samples,
            attack: side_attack(opts),
        }
    }
}

impl Experiment for Fig10Experiment {
    fn name(&self) -> String {
        "fig10".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["fig10.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::full(Dataset::BitcoinAlpha),
            DatasetSpec::full(Dataset::Wikivote),
        ]
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let d = self.cell_label(cell);
        let csr = ctx.csr(cell);
        let budget = (ctx.graph(cell).num_edges() as f64 * 0.0175).round() as usize;
        let detectors = [
            OddBall::default(),
            OddBall::new(Regressor::default_huber()),
            OddBall::new(Regressor::default_ransac(self.seed.wrapping_add(17))),
        ];
        let pool = target_pool(ctx.model(cell), 50);
        let mut sums = vec![vec![0.0f64; budget + 1]; detectors.len()];
        let mut runs = 0usize;
        for s in 0..self.samples {
            let targets = sample_from_pool(&pool, 10, self.seed.wrapping_add(31 + s as u64));
            let session = ctx.session(cell, &targets);
            let Ok(outcome) = session.and_then(|s| self.attack.attack_with_session(s, budget))
            else {
                continue;
            };
            // All three detector curves must evaluate for the sample to
            // count; a degenerate robust refit skips the sample with a
            // warning instead of aborting the sweep.
            let curves: Result<Vec<Vec<f64>>, _> = detectors
                .iter()
                .map(|det| outcome.ascore_curve_on(csr, &targets, det))
                .collect();
            let curves = match curves {
                Ok(curves) => curves,
                Err(e) => {
                    eprintln!("warning: curve evaluation failed on sample {s}: {e}");
                    continue;
                }
            };
            runs += 1;
            for (sum, curve) in sums.iter_mut().zip(&curves) {
                for (b, slot) in sum.iter_mut().enumerate() {
                    *slot += AttackOutcome::tau_as(curve, b);
                }
            }
        }
        if runs == 0 {
            return vec!["failed,all attack runs failed".to_string()];
        }
        for v in sums.iter_mut().flatten() {
            *v /= runs as f64;
        }
        let mut rows = vec![
            out(""),
            out(format_args!(
                "--- {d} (budget {budget} = 1.75% of edges) ---"
            )),
            out(format_args!(
                "{:>8}  {:>12}  {:>12}  {:>12}",
                "budget", "no defence", "huber", "ransac"
            )),
        ];
        for b in (0..=budget).step_by((budget / 8).max(1)) {
            let [ols, huber, ransac] = [sums[0][b], sums[1][b], sums[2][b]];
            let (o, h, r) = (f4(ols), f4(huber), f4(ransac));
            rows.push(out(format_args!("{b:>8}  {o:>12}  {h:>12}  {r:>12}")));
            rows.push(format!("fig10.csv,{d},{b},{ols},{huber},{ransac}"));
        }
        let (huber, ransac) = (
            sums[0][budget] - sums[1][budget],
            sums[0][budget] - sums[2][budget],
        );
        rows.push(out(format_args!(
            "mitigation at max budget: huber {huber:.4}, ransac {ransac:.4} \
             (paper: slight, attack stays effective)"
        )));
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        let runs = self.samples;
        println!("FIG 10: defence with robust estimators (mean over {runs} runs)");
        write_report(
            self,
            opts,
            cells,
            &["dataset,budget,tau_ols,tau_huber,tau_ransac"],
        )
    }
}
