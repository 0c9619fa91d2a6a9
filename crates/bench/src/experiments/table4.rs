//! Table IV as a runner experiment — the ReFeX (recursive structural
//! features + MLP) transfer attack. One cell per dataset, mirroring
//! [`crate::experiments::table3`]; budgets are absolute edge counts as
//! in the paper's table.

use crate::experiments::{corrupt, dec_field};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{BenchError, ExpOptions};
use ba_core::{AttackConfig, BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_gad::{
    evaluate_system, identify_targets, pipeline::delta_b, pipeline::oddball_labels,
    train_test_split, GadSystem, RefexConfig, TransferConfig,
};
use ba_net::codec::enc_f64;

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

    fn config_fingerprint(&self) -> String {
        format!("{self:?}")
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["table4.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        GRID.iter().map(|&(d, _, _)| DatasetSpec::full(d)).collect()
    }

    fn num_cells(&self) -> usize {
        GRID.len()
    }

    fn cell_dataset(&self, cell: usize) -> usize {
        cell
    }

    fn cell_label(&self, cell: usize) -> String {
        format!("refex/{}", GRID[cell].0.name())
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
        let mut rows = vec![
            format!(
                "meta,{},{},{},{}",
                d.name(),
                g.num_nodes(),
                g.num_edges(),
                targets.len()
            ),
            format!("clean,{},{}", enc_f64(clean.auc), enc_f64(clean.f1)),
        ];
        if targets.is_empty() {
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
                eprintln!("warning: table4 attack on {} failed: {e}", d.name());
                rows.push(format!("failed,{e}"));
                return rows;
            }
        };

        let mut b = step;
        while b <= max_budget {
            let poisoned = outcome.poisoned_graph(g, b);
            let after =
                evaluate_system(&system, &poisoned, &labels, &train, &test, &targets, &tcfg);
            let db = 100.0 * delta_b(clean.target_soft_sum, after.target_soft_sum);
            rows.push(format!(
                "step,{b},{},{},{}",
                enc_f64(after.auc),
                enc_f64(after.f1),
                enc_f64(db)
            ));
            b += step;
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!("TABLE IV: ReFeX transfer attack (AUC / F1 / delta_B)");
        let mut csv = Vec::new();
        for rows in cells {
            let meta: Vec<&str> = rows[0].split(',').collect();
            let (name, n, m, ntargets) = (meta[1], meta[2], meta[3], meta[4]);
            println!("\n--- {name} (n={n}, m={m}, {ntargets} identified targets) ---");
            println!("{:>8} {:>8} {:>8} {:>8}", "B", "AUC", "F1", "dB(%)");
            let clean: Vec<&str> = rows[1].split(',').collect();
            let auc = dec_field("table4", "clean auc", clean[1])?;
            let f1 = dec_field("table4", "clean f1", clean[2])?;
            println!("{:>8} {auc:>8.3} {f1:>8.3} {:>8.2}", 0, 0.0);
            csv.push(format!("{name},0,{auc:.4},{f1:.4},0.0"));
            if rows.len() <= 2 {
                eprintln!("warning: no targets identified; skipping dataset");
                continue;
            }
            if let Some(reason) = rows[2].strip_prefix("failed,") {
                eprintln!("warning: table4 {name} attack rows unavailable: {reason}");
                continue;
            }
            for row in rows.iter().skip(2) {
                let parts: Vec<&str> = row.split(',').collect();
                let b: usize = parts[1]
                    .parse()
                    .map_err(|_| corrupt("table4", format!("budget: {:?}", parts[1])))?;
                let auc = dec_field("table4", "auc", parts[2])?;
                let f1 = dec_field("table4", "f1", parts[3])?;
                let db = dec_field("table4", "db", parts[4])?;
                println!("{b:>8} {auc:>8.3} {f1:>8.3} {db:>8.2}");
                csv.push(format!("{name},{b},{auc:.4},{f1:.4},{db:.3}"));
            }
        }
        opts.write_csv("table4.csv", "dataset,budget,auc,f1,delta_b_pct", &csv)?;
        println!("\n(paper: Bitcoin-Alpha AUC 0.79->0.72, dB up to 33.3%;");
        println!(" Wikivote AUC 0.84->0.66, dB up to 56.4%)");
        Ok(())
    }
}
