//! Fig. 2b as a runner experiment — the Egonet Density Power Law: the
//! (ln N, ln E) scatter and the fitted regression line whose vertical
//! distances define AScore. One cell per dataset: it emits the scatter
//! as CSV and prints the fitted (β0, β1) — the paper observes
//! `1 ≤ β1 ≤ 2`.

use crate::experiments::{out, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{BenchError, ExpOptions};
use ba_datasets::Dataset;

/// The Fig. 2b power-law experiment.
#[derive(Debug, Clone)]
pub struct Fig2Experiment;

impl Experiment for Fig2Experiment {
    fn name(&self) -> String {
        "fig2".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        let csv = |d: Dataset| format!("fig2_{}.csv", d.name().to_lowercase().replace('-', "_"));
        Dataset::all().map(csv).to_vec()
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        Dataset::all().map(DatasetSpec::full).to_vec()
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let model = ctx.model(cell);
        let (feats, scores) = (model.features(), model.scores());
        let max_score = scores.iter().cloned().fold(0.0f64, f64::max);
        let mut rows = vec![out(format_args!(
            "{:>14}  {:>10.4}  {:>10.4}  {max_score:>12.4}",
            Dataset::all()[cell].name(),
            model.beta0(),
            model.beta1()
        ))];
        let file = &self.artifacts()[cell];
        for (i, score) in scores.iter().enumerate() {
            let (ln_n, ln_e) = (feats.n[i].max(1.0).ln(), feats.e[i].max(1.0).ln());
            rows.push(format!("{file},{i},{ln_n:.6},{ln_e:.6},{score:.6}"));
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!("FIG 2b: Egonet Density Power Law fits");
        println!(
            "{:>14}  {:>10}  {:>10}  {:>12}",
            "dataset", "beta0", "beta1", "max AScore"
        );
        write_report(self, opts, cells, &["node,log_n,log_e,ascore"; 5])
    }
}
