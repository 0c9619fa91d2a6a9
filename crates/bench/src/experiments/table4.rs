//! Table IV as a runner experiment — the ReFeX (recursive structural
//! features + MLP) transfer attack. One cell per dataset, mirroring
//! [`crate::experiments::table3`]; budgets are absolute edge counts as
//! in the paper's table.

use crate::experiments::{out, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{BenchError, ExpOptions};
use ba_core::{AttackConfig, BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_gad::{
    evaluate_system, identify_targets, pipeline::delta_b, pipeline::oddball_labels,
    train_test_split, GadSystem, RefexConfig, TransferConfig,
};

const GRID: [(Dataset, usize, usize); 2] =
    [(Dataset::BitcoinAlpha, 50, 5), (Dataset::Wikivote, 100, 10)];

/// The Table IV transfer-attack experiment.
#[derive(Debug, Clone)]
pub struct Table4Experiment {
    /// BinarizedAttack PGD iterations.
    pub attack_iters: usize,
}

impl Table4Experiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        Self {
            attack_iters: if opts.paper { 120 } else { 60 },
        }
    }
}

impl Experiment for Table4Experiment {
    fn name(&self) -> String {
        "table4".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["table4.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        GRID.iter().map(|&(d, _, _)| DatasetSpec::full(d)).collect()
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let (d, max_budget, step) = GRID[cell];
        let g = ctx.graph(cell);
        let system = GadSystem::Refex(RefexConfig::default());
        let tcfg = TransferConfig {
            seed: ctx.seed_for("transfer", &[]),
            ..TransferConfig::default()
        };
        let labels = oddball_labels(g, tcfg.label_fraction);
        let (train, test) = train_test_split(g.num_nodes(), tcfg.train_fraction, tcfg.seed);
        let (targets, clean) = identify_targets(&system, g, &labels, &train, &test, &tcfg);
        let name = d.name();
        let (n, m, k) = (g.num_nodes(), g.num_edges(), targets.len());
        let (auc, f1) = (clean.auc, clean.f1);
        let mut rows = vec![
            out(""),
            out(format_args!(
                "--- {name} (n={n}, m={m}, {k} identified targets) ---"
            )),
            out(format_args!(
                "{:>8} {:>8} {:>8} {:>8}",
                "B", "AUC", "F1", "dB(%)"
            )),
            out(format_args!("{:>8} {auc:>8.3} {f1:>8.3} {:>8.2}", 0, 0.0)),
            format!("table4.csv,{name},0,{auc:.4},{f1:.4},0.0"),
        ];
        if targets.is_empty() {
            rows.push("failed,no targets identified; skipping dataset".to_string());
            return rows;
        }

        // An attack error fails the dataset's poisoned rows gracefully
        // (fig6 convention): the clean row still ships, the reason rides
        // in the record, and no worker panics.
        let outcome = match ctx.session(cell, &targets).and_then(|session| {
            BinarizedAttack::new(AttackConfig::default())
                .with_iterations(self.attack_iters)
                .with_lambdas(vec![0.01, 0.05])
                .attack_with_session(session, max_budget)
        }) {
            Ok(outcome) => outcome,
            Err(e) => {
                rows.push(format!("failed,attack rows unavailable: {e}"));
                return rows;
            }
        };

        let mut b = step;
        while b <= max_budget {
            let poisoned = outcome.poisoned_graph(g, b);
            let after =
                evaluate_system(&system, &poisoned, &labels, &train, &test, &targets, &tcfg);
            let db = 100.0 * delta_b(clean.target_soft_sum, after.target_soft_sum);
            let (auc, f1) = (after.auc, after.f1);
            rows.push(out(format_args!("{b:>8} {auc:>8.3} {f1:>8.3} {db:>8.2}")));
            rows.push(format!("table4.csv,{name},{b},{auc:.4},{f1:.4},{db:.3}"));
            b += step;
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!("TABLE IV: ReFeX transfer attack (AUC / F1 / delta_B)");
        write_report(self, opts, cells, &["dataset,budget,auc,f1,delta_b_pct"])?;
        println!("\n(paper: Bitcoin-Alpha AUC 0.79->0.72, dB up to 33.3%;");
        println!(" Wikivote AUC 0.84->0.66, dB up to 56.4%)");
        Ok(())
    }
}
