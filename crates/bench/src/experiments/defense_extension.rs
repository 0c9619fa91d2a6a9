//! Extension experiment (beyond paper Fig. 10): the low-rank
//! purification defence the paper's related work points at (Entezari et
//! al., WSDM'20) against BinarizedAttack, compared with the paper's
//! robust-regression defences, plus the stricter KS-test unnoticeability
//! probe. One cell per dataset.
//!
//! Questions answered:
//! 1. Does spectral truncation of the poisoned adjacency undo the
//!    attack's edge flips (τ_as with purification vs without)?
//! 2. What does purification cost on the *clean* graph (false-positive
//!    structural damage — edge retention)?
//! 3. Do the poisoned feature distributions fail a KS test even when
//!    they pass the paper's mean-based permutation test?

use crate::experiments::{out, side_attack, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{f4, sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_graph::egonet::egonet_features;
use ba_graph::Graph;
use ba_oddball::{edge_retention, low_rank_purify, OddBall, PurifyConfig, Regressor};
use ba_stats::{ks_test, PermutationTest};

/// The low-rank purification defence experiment: base seed (targets,
/// RANSAC, permutation tests) and the attack.
#[derive(Debug, Clone)]
pub struct DefenseExtensionExperiment {
    seed: u64,
    attack: BinarizedAttack,
}

impl DefenseExtensionExperiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        Self {
            seed: opts.seed,
            attack: side_attack(opts),
        }
    }

    /// The cell's report records, or why the attack or a refit failed.
    fn defend(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Result<Vec<String>, String> {
        let d = self.cell_label(cell);
        let (g, model) = (ctx.graph(cell), ctx.model(cell));
        let targets = sample_from_pool(&target_pool(model, 50), 10, self.seed.wrapping_add(41));
        let budget = (g.num_edges() as f64 * 0.0175).round() as usize;
        let outcome = ctx
            .session(cell, &targets)
            .and_then(|session| self.attack.attack_with_session(session, budget))
            .map_err(|e| e.to_string())?;
        let poisoned = outcome.poisoned_graph(g, budget);

        let s0 = model.target_score_sum(&targets);
        let tau = |detector: &OddBall, graph: &Graph| -> Result<f64, String> {
            let fit = detector.fit(graph).map_err(|e| e.to_string())?;
            Ok((s0 - fit.target_score_sum(&targets)) / s0.max(1e-12))
        };
        let purify = |graph: &Graph, rank: usize| {
            let cfg = PurifyConfig {
                rank,
                ..PurifyConfig::default()
            };
            low_rank_purify(graph, cfg)
        };
        let ols = OddBall::default();
        let taus = [
            ("no defence", tau(&ols, &poisoned)?),
            (
                "huber",
                tau(&OddBall::new(Regressor::default_huber()), &poisoned)?,
            ),
            (
                "ransac",
                tau(
                    &OddBall::new(Regressor::default_ransac(self.seed)),
                    &poisoned,
                )?,
            ),
            ("purify rank16", tau(&ols, &purify(&poisoned, 16))?),
            ("purify rank48", tau(&ols, &purify(&poisoned, 48))?),
        ];
        let mut rows = vec![
            out(""),
            out(format_args!("--- {d} (budget {budget}) ---")),
            out(format_args!("{:>16}  {:>10}", "defence", "tau_as")),
        ];
        for (name, t) in taus {
            rows.push(out(format_args!("{name:>16}  {:>10}", f4(t))));
            rows.push(format!("defense_extension.csv,{d},{name},{t:.5}"));
        }
        let kept = 100.0 * edge_retention(g, &purify(g, 48));
        rows.push(out(format_args!(
            "clean-graph purification damage: retains {kept:.1}% of benign edges"
        )));

        // Unnoticeability under both tests.
        let (cf, pf) = (egonet_features(g), egonet_features(&poisoned));
        let perm = |offset: u64, clean: &[f64], pois: &[f64]| {
            let seed = self.seed.wrapping_add(offset);
            PermutationTest {
                resamples: 10_000,
                seed,
            }
            .pvalue(clean, pois)
        };
        let (perm_n, ks_n) = (perm(3, &cf.n, &pf.n), ks_test(&cf.n, &pf.n).p_value);
        let (perm_e, ks_e) = (perm(4, &cf.e, &pf.e), ks_test(&cf.e, &pf.e).p_value);
        rows.push(out(format_args!(
            "unnoticeability: N perm p={perm_n:.3} / KS p={ks_n:.3}; \
             E perm p={perm_e:.3} / KS p={ks_e:.3}"
        )));
        rows.push(format!(
            "defense_extension.csv,{d},pvalues,{perm_n:.4}|{ks_n:.4}|{perm_e:.4}|{ks_e:.4}"
        ));
        Ok(rows)
    }
}

impl Experiment for DefenseExtensionExperiment {
    fn name(&self) -> String {
        "defense_extension".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["defense_extension.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::full(Dataset::BitcoinAlpha),
            DatasetSpec::full(Dataset::Wikivote),
        ]
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        self.defend(cell, ctx)
            .unwrap_or_else(|e| vec![format!("failed,{e}")])
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!("DEFENSE EXTENSION: low-rank purification vs BinarizedAttack");
        write_report(self, opts, cells, &["dataset,defence,tau_or_p"])
    }
}
