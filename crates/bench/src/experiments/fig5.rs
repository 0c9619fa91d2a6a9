//! Fig. 5 as a runner experiment — the three single-target Wikivote
//! case studies (add-only / delete-only / add+delete). One cell per
//! case: the cases attack different targets under different op-kind
//! constraints, so they are fully independent.

use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{target_pool, BenchError, ExpOptions};
use ba_core::{AttackConfig, BinarizedAttack, EdgeOpKind, StructuralAttack};
use ba_datasets::Dataset;
use ba_graph::{DeltaOverlay, EditableGraph};
use ba_oddball::OddBall;

const CASES: [(&str, EdgeOpKind); 3] = [
    ("case1_add_edges", EdgeOpKind::AddOnly),
    ("case2_delete_edges", EdgeOpKind::DeleteOnly),
    ("case3_add_delete", EdgeOpKind::Both),
];

/// The Fig. 5 case-study experiment.
#[derive(Debug, Clone)]
pub struct Fig5Experiment {
    /// BinarizedAttack PGD iterations.
    pub iterations: usize,
    /// Edge budget per case.
    pub budget: usize,
}

impl Fig5Experiment {
    /// Paper configuration (400 iterations, budget 25).
    pub fn standard(_opts: &ExpOptions) -> Self {
        Self {
            iterations: 400,
            budget: 25,
        }
    }
}

impl Experiment for Fig5Experiment {
    fn name(&self) -> String {
        "fig5".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["fig5.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        vec![DatasetSpec::full(Dataset::Wikivote)]
    }

    fn num_cells(&self) -> usize {
        CASES.len()
    }

    fn cell_label(&self, cell: usize) -> String {
        CASES[cell].0.to_string()
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let (case, kind) = CASES[cell];
        let g = ctx.graph(0);
        let model = ctx.model(0);
        // Distinct targets from the shared top-6 ranking, as in the
        // paper's three case studies.
        let target = target_pool(model, 6)[cell];
        let cfg = AttackConfig {
            op_kind: kind,
            ..AttackConfig::default()
        };
        // Attack and refit errors fail this case's cell gracefully (the
        // fig6 convention): the reason rides in the record row and
        // finalize reports the failed case instead of panicking a
        // worker.
        let outcome = match ctx.session(0, &[target]).and_then(|session| {
            BinarizedAttack::new(cfg)
                .with_iterations(self.iterations)
                .attack_with_session(session, self.budget)
        }) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("warning: fig5 {case} attack failed: {e}");
                return vec![format!("failed,{case},{e}")];
            }
        };
        let b = outcome.max_budget();
        let mut poisoned = DeltaOverlay::new(ctx.csr(0));
        poisoned.apply_ops(outcome.ops(b));
        let model_after = match OddBall::default().fit(&poisoned) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("warning: fig5 {case} poisoned refit failed: {e}");
                return vec![format!("failed,{case},{e}")];
            }
        };
        let feats_b = model.features();
        let feats_a = model_after.features();
        let adds = outcome.ops(b).iter().filter(|op| op.added).count();
        let dels = outcome.ops(b).len() - adds;
        vec![
            format!("meta,{},{}", g.num_nodes(), g.num_edges()),
            format!(
                "{:>18} {:>7} {:>9.3} {:>9.3} {:>7.0} {:>7.0} {:>7.0} {:>7.0} {:>6} {:>6}",
                case,
                target,
                model.score(target),
                model_after.score(target),
                feats_b.n[target as usize],
                feats_b.e[target as usize],
                feats_a.n[target as usize],
                feats_a.e[target as usize],
                adds,
                dels
            ),
            format!(
                "{},{},{:.5},{:.5},{},{},{},{},{},{}",
                case,
                target,
                model.score(target),
                model_after.score(target),
                feats_b.n[target as usize],
                feats_b.e[target as usize],
                feats_a.n[target as usize],
                feats_a.e[target as usize],
                adds,
                dels
            ),
        ]
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        // A failed case ships no table row: the reason was recorded in
        // its cell, the healthy cases still print and land in the CSV.
        let ok = |rows: &&Vec<String>| !rows[0].starts_with("failed,");
        let mut meta = cells
            .iter()
            .find(ok)
            .map(|rows| rows[0].split(',').skip(1))
            .into_iter()
            .flatten();
        println!(
            "FIG 5: single-target case studies (Wikivote-like, n={}, m={})",
            meta.next().unwrap_or("?"),
            meta.next().unwrap_or("?")
        );
        println!(
            "{:>18} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6}",
            "case", "target", "S_before", "S_after", "N_b", "E_b", "N_a", "E_a", "#add", "#del"
        );
        let mut csv = Vec::new();
        for rows in cells {
            if let Some(reason) = rows[0].strip_prefix("failed,") {
                eprintln!("warning: fig5 case unavailable: {reason}");
                continue;
            }
            println!("{}", rows[1]);
            csv.push(rows[2].clone());
        }
        opts.write_csv(
            "fig5.csv",
            "case,target,score_before,score_after,n_before,e_before,n_after,e_after,adds,deletes",
            &csv,
        )?;
        println!("\n(paper anchors: 6.05->0.69 add-only, 8.4->0.29 delete-only, 5.34->0.42 both)");
        Ok(())
    }
}
