//! Figs. 8–9 as a runner experiment — t-SNE scatterplots of the
//! penultimate MLP features of the test nodes, for GAL (Fig. 8) and
//! ReFeX (Fig. 9), clean vs poisoned (B = 50 on Bitcoin-Alpha-like,
//! B = 100 on Wikivote-like). One cell per `(system, dataset)`.
//!
//! The paper's qualitative claim: on the clean graph the target nodes
//! sit on one side of a (near-linear) boundary; after poisoning they mix
//! into the benign mass. We emit the 2-D coordinates as CSV and print a
//! quantitative separation score — the ratio of mean cross-class to mean
//! within-class distance of the targets — which must *drop* under attack.

use crate::experiments::{out, side_attack, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{BenchError, ExpOptions};
use ba_core::{BinarizedAttack, StructuralAttack};
use ba_datasets::Dataset;
use ba_gad::{
    evaluate_system, identify_targets, pipeline::oddball_labels, train_test_split, tsne, GadSystem,
    GalConfig, RefexConfig, TransferConfig, TsneConfig,
};
use ba_graph::NodeId;
use ba_linalg::Matrix;

const DATASETS: [(Dataset, usize); 2] = [(Dataset::BitcoinAlpha, 50), (Dataset::Wikivote, 100)];
const FIGURES: [&str; 2] = ["fig8", "fig9"];

/// Mean 2-D distance ratio: targets→rest / targets→targets. Larger ⇒
/// the targets form their own separated cluster. `targets` is sorted.
fn separation(coords: &Matrix, test_nodes: &[NodeId], targets: &[NodeId]) -> f64 {
    let is_target = |r: usize| targets.binary_search(&test_nodes[r]).is_ok();
    let (mut within, mut cross) = ((0.0, 0.0), (0.0, 0.0));
    for a in 0..coords.rows() {
        for b in (a + 1)..coords.rows() {
            let (dx, dy) = (
                coords[(a, 0)] - coords[(b, 0)],
                coords[(a, 1)] - coords[(b, 1)],
            );
            let sum = match (is_target(a), is_target(b)) {
                (true, true) => &mut within,
                (true, false) | (false, true) => &mut cross,
                _ => continue,
            };
            sum.0 += (dx * dx + dy * dy).sqrt();
            sum.1 += 1.0;
        }
    }
    if within.1 == 0.0 || cross.1 == 0.0 {
        return 1.0;
    }
    (cross.0 / cross.1) / (within.0 / within.1).max(1e-9)
}

/// The Figs. 8–9 embedding-separation experiment: base seed, GAL
/// epochs, t-SNE iterations, and the attack.
#[derive(Debug, Clone)]
pub struct Fig8Fig9Experiment {
    seed: u64,
    gal_epochs: usize,
    tsne_iters: usize,
    attack: BinarizedAttack,
}

impl Fig8Fig9Experiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        Self {
            seed: opts.seed,
            gal_epochs: if opts.paper { 120 } else { 60 },
            tsne_iters: if opts.paper { 400 } else { 200 },
            attack: side_attack(opts),
        }
    }
}

impl Experiment for Fig8Fig9Experiment {
    fn name(&self) -> String {
        "fig8_fig9".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["fig8_fig9_tsne.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        DATASETS.map(|(d, _)| DatasetSpec::full(d)).to_vec()
    }

    fn num_cells(&self) -> usize {
        FIGURES.len() * DATASETS.len()
    }

    fn cell_label(&self, cell: usize) -> String {
        let d = DATASETS[cell % DATASETS.len()].0.name();
        format!("{}/{d}", FIGURES[cell / DATASETS.len()])
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let (fig, ds) = (cell / DATASETS.len(), cell % DATASETS.len());
        let (d, budget) = (DATASETS[ds].0.name(), DATASETS[ds].1);
        let system = if fig == 0 {
            let epochs = self.gal_epochs;
            GadSystem::Gal(GalConfig {
                epochs,
                ..GalConfig::default()
            })
        } else {
            GadSystem::Refex(RefexConfig::default())
        };
        let g = ctx.graph(ds);
        let tcfg = TransferConfig {
            seed: self.seed.wrapping_add(11),
            ..TransferConfig::default()
        };
        let labels = oddball_labels(g, tcfg.label_fraction);
        let (train, test) = train_test_split(g.num_nodes(), tcfg.train_fraction, tcfg.seed);
        let (targets, clean) = identify_targets(&system, g, &labels, &train, &test, &tcfg);
        if targets.len() < 3 {
            return vec![format!("failed,too few targets on {d}; skipping")];
        }
        let session = ctx.session(ds, &targets);
        let outcome = match session.and_then(|s| self.attack.attack_with_session(s, budget)) {
            Ok(outcome) => outcome,
            Err(e) => return vec![format!("failed,{e}")],
        };
        let poisoned = outcome.poisoned_graph(g, budget);
        let after = evaluate_system(&system, &poisoned, &labels, &train, &test, &targets, &tcfg);

        let tsne_cfg = TsneConfig {
            iterations: self.tsne_iters,
            ..TsneConfig::default()
        };
        let y_clean = tsne(&clean.penultimate_test, tsne_cfg);
        let y_pois = tsne(&after.penultimate_test, tsne_cfg);
        let mut sorted = targets;
        sorted.sort_unstable();
        let sep_c = separation(&y_clean, &clean.test_nodes, &sorted);
        let sep_p = separation(&y_pois, &after.test_nodes, &sorted);
        let drop = if sep_p < sep_c { "yes" } else { "NO" };
        let mut rows = vec![out(format_args!(
            "{:>7} {d:>16} {sep_c:>12.3} {sep_p:>12.3} {drop:>10}",
            system.name()
        ))];
        for (tag, y, nodes) in [
            ("clean", &y_clean, &clean.test_nodes),
            ("poisoned", &y_pois, &after.test_nodes),
        ] {
            for (r, node) in nodes.iter().enumerate() {
                let target = u8::from(sorted.binary_search(node).is_ok());
                let (x0, x1) = (y[(r, 0)], y[(r, 1)]);
                let fig = FIGURES[fig];
                rows.push(format!(
                    "fig8_fig9_tsne.csv,{fig},{d},{tag},{node},{x0:.5},{x1:.5},{target}"
                ));
            }
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!("FIGS 8-9: embedding separation before/after poisoning");
        println!(
            "{:>7} {:>16} {:>12} {:>12} {:>10}",
            "system", "dataset", "sep_clean", "sep_poison", "drop?"
        );
        write_report(
            self,
            opts,
            cells,
            &["figure,dataset,graph,node,x,y,is_target"],
        )
    }
}
