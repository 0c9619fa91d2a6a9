//! Fig. 7 + Table II as a runner experiment — the attack's side effects
//! on the global feature distributions.
//!
//! Fig. 7: Gaussian-KDE densities of the egonet features N and E on the
//! Bitcoin-Alpha-like graph, clean vs poisoned (max perturbation, 30
//! targets). Table II: Monte-Carlo permutation-test p-values for
//! `N_clean` vs `N_poisoned` and `E_clean` vs `E_poisoned` over 5
//! experiment repetitions on the three "real" datasets. Paper: N is
//! never significantly shifted; E occasionally is (one Wikivote run).
//!
//! One cell per `(run, dataset)`; run `r` builds its graphs at base seed
//! `+ r·1000`. Cell 0, the first Bitcoin-Alpha run, also emits Fig. 7.

use crate::experiments::{out, side_attack, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_graph::egonet::egonet_features;
use ba_stats::{Kde, PermutationTest};

const DATASETS: [Dataset; 3] = [
    Dataset::BitcoinAlpha,
    Dataset::Blogcatalog,
    Dataset::Wikivote,
];
const RUNS: u64 = 5;

/// The Fig. 7 / Table II unnoticeability experiment: base seed,
/// permutation-test resamples M, and the attack.
#[derive(Debug, Clone)]
pub struct Fig7Table2Experiment {
    seed: u64,
    resamples: usize,
    attack: BinarizedAttack,
}

impl Fig7Table2Experiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        Self {
            seed: opts.seed,
            resamples: if opts.paper { 100_000 } else { 20_000 },
            attack: side_attack(opts),
        }
    }
}

/// The 1-based run of `cell`.
fn run_of(cell: usize) -> u64 {
    (cell / DATASETS.len()) as u64 + 1
}

impl Experiment for Fig7Table2Experiment {
    fn name(&self) -> String {
        "fig7_table2".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["fig7_density.csv".to_string(), "table2.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        let cells = 0..RUNS as usize * DATASETS.len();
        let spec = |c| DatasetSpec::full(DATASETS[c % DATASETS.len()]).offset_by(run_of(c) * 1000);
        cells.map(spec).collect()
    }

    fn cell_label(&self, cell: usize) -> String {
        format!(
            "run{}/{}",
            run_of(cell),
            DATASETS[cell % DATASETS.len()].name()
        )
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let (run, d) = (run_of(cell), DATASETS[cell % DATASETS.len()].name());
        let seed = self.seed.wrapping_add(run * 1000);
        let g = ctx.graph(cell);
        let targets = sample_from_pool(&target_pool(ctx.model(cell), 50), 30, seed.wrapping_add(7));
        let budget = (g.num_edges() as f64 * 0.04).round() as usize;
        let session = ctx.session(cell, &targets);
        let outcome = match session.and_then(|s| self.attack.attack_with_session(s, budget)) {
            Ok(outcome) => outcome,
            Err(e) => return vec![format!("failed,{e}")],
        };
        let poisoned = outcome.poisoned_graph(g, budget);
        let (clean, pois) = (egonet_features(g), egonet_features(&poisoned));
        let test = PermutationTest {
            resamples: self.resamples,
            seed: seed.wrapping_add(13),
        };
        let p_n = test.pvalue(&clean.n, &pois.n);
        let p_e = test.pvalue(&clean.e, &pois.e);
        let mut rows = vec![
            out(format_args!("{run:>4}  {d:>16} {p_n:>8.3} {p_e:>8.3}")),
            format!("table2.csv,{run},{d},{p_n},{p_e}"),
        ];
        if cell == 0 {
            for (feat, cl, po) in [("N", &clean.n, &pois.n), ("E", &clean.e, &pois.e)] {
                let hi = cl.iter().chain(po.iter()).cloned().fold(0.0f64, f64::max);
                let (xs, yc) = Kde::new(cl).grid(0.0, hi * 1.05, 200);
                let (_, yp) = Kde::new(po).grid(0.0, hi * 1.05, 200);
                for k in 0..xs.len() {
                    let (x, c, p) = (xs[k], yc[k], yp[k]);
                    rows.push(format!("fig7_density.csv,{feat},{x:.5},{c:.8},{p:.8}"));
                }
            }
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        let m = self.resamples;
        println!("TABLE II: permutation-test p-values for ego-features (M = {m})");
        println!(
            "{:>4}  {:>16} {:>8} {:>8}",
            "run", "dataset", "p(N)", "p(E)"
        );
        let headers = [
            "feature,x,density_clean,density_poisoned",
            "run,dataset,p_n,p_e",
        ];
        write_report(self, opts, cells, &headers)?;
        println!(
            "\n(paper: p(N) ~ 0.56-0.75 never significant; p(E) 0.005-0.14, one Wikivote run < 0.01)"
        );
        Ok(())
    }
}
