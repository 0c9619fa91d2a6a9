//! Table I as a runner experiment — statistics of the five evaluation
//! datasets, compared with the counts the paper reports. One cell per
//! dataset, on the suite's shared full-scale substrates.

use crate::experiments::{out, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{BenchError, ExpOptions};
use ba_datasets::Dataset;
use ba_graph::metrics::average_clustering;

/// The Table I dataset-statistics experiment.
#[derive(Debug, Clone)]
pub struct Table1Experiment;

impl Experiment for Table1Experiment {
    fn name(&self) -> String {
        "table1".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["table1.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        Dataset::all().map(DatasetSpec::full).to_vec()
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let d = Dataset::all()[cell].name();
        let g = ctx.graph(cell);
        let (n, m) = (g.num_nodes(), g.num_edges());
        let (pn, pm) = Dataset::all()[cell].paper_statistics();
        let cc = average_clustering(g);
        vec![
            out(format_args!(
                "{d:>14}  {n:>8}  {m:>8}  {pn:>12}  {pm:>12}  {cc:>12.4}"
            )),
            format!("table1.csv,{d},{n},{m},{pn},{pm},{cc:.6}"),
        ]
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!("TABLE I: Statistics of datasets (built vs paper)");
        println!(
            "{:>14}  {:>8}  {:>8}  {:>12}  {:>12}  {:>12}",
            "dataset", "nodes", "edges", "paper_nodes", "paper_edges", "clustering"
        );
        let header = "dataset,nodes,edges,paper_nodes,paper_edges,avg_clustering";
        write_report(self, opts, cells, &[header])
    }
}
