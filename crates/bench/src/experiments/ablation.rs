//! Ablations of BinarizedAttack's design choices (DESIGN.md §6), as a
//! runner experiment with one cell per variant:
//!
//! 1. **λ grid** — single λ values vs the swept grid.
//! 2. **Iteration budget T** and **learning rate η**.
//! 3. **Candidate scoping** — full pair space vs target neighbourhood.
//! 4. **Gradient guidance** — BinarizedAttack / GradMaxSearch vs the
//!    structural CliqueBreaker heuristic and the random floor.
//!
//! Each variant's time is the runner's per-cell progress line; the CSV
//! holds only the deterministic τ_as.

use crate::experiments::{out, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{average_padded, f4, sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{
    AttackConfig, AttackOutcome, BinarizedAttack, CandidateScope, CliqueBreaker, GradMaxSearch,
    RandomAttack, StructuralAttack,
};
use ba_datasets::Dataset;
use ba_oddball::OddBall;

/// The first variant of each section, and its title.
const SECTIONS: [(usize, &str); 4] = [
    (0, "[1] lambda grid"),
    (5, "[2] iterations and learning rate"),
    (11, "[3] candidate scope"),
    (13, "[4] gradient guidance vs heuristics"),
];

/// A named ablation variant.
type Variant = (String, Box<dyn StructuralAttack>);

fn variant(name: impl Into<String>, attack: impl StructuralAttack + 'static) -> Variant {
    (name.into(), Box::new(attack))
}

/// Every variant, in report order.
fn variants() -> Vec<Variant> {
    let bin = |iters: usize, lambdas: &[f64]| {
        BinarizedAttack::default()
            .with_iterations(iters)
            .with_lambdas(lambdas.to_vec())
    };
    let scoped = AttackConfig {
        scope: CandidateScope::TargetNeighborhood,
        ..AttackConfig::default()
    };
    let mut v: Vec<Variant> = [0.002, 0.01, 0.05, 0.2]
        .map(|lam| variant(format!("binarized lambda={lam}"), bin(80, &[lam])))
        .into();
    v.push(variant(
        "binarized swept grid",
        bin(80, &[0.002, 0.01, 0.05]),
    ));
    v.extend([20, 80, 200].map(|t| variant(format!("binarized T={t}"), bin(t, &[0.01, 0.05]))));
    v.extend([0.01, 0.05, 0.2].map(|lr| {
        let attack = bin(80, &[0.01, 0.05]).with_learning_rate(lr);
        variant(format!("binarized lr={lr}"), attack)
    }));
    v.extend([
        variant("binarized full scope", bin(80, &[0.01, 0.05])),
        variant(
            "binarized target-neighborhood",
            BinarizedAttack::new(scoped)
                .with_iterations(80)
                .with_lambdas(vec![0.01, 0.05]),
        ),
        variant("binarized (default)", bin(80, &[0.01, 0.05])),
        variant("gradmaxsearch", GradMaxSearch::default()),
        variant("cliquebreaker heuristic", CliqueBreaker::default()),
        variant("random floor", RandomAttack::default()),
    ]);
    v
}

/// The ablation experiment on the BA-like graph (Table-I scale with
/// `--paper`, half otherwise): base seed and target resamples.
#[derive(Debug, Clone)]
pub struct AblationExperiment {
    spec: DatasetSpec,
    seed: u64,
    samples: usize,
}

impl AblationExperiment {
    /// Paper configuration at the profile `opts` selects.
    pub fn standard(opts: &ExpOptions) -> Self {
        let spec = if opts.paper {
            DatasetSpec::full(Dataset::Ba)
        } else {
            DatasetSpec::half(Dataset::Ba)
        };
        Self {
            spec,
            seed: opts.seed,
            samples: opts.samples,
        }
    }
}

impl Experiment for AblationExperiment {
    fn name(&self) -> String {
        "ablation".to_string()
    }

    fn artifacts(&self) -> Vec<String> {
        vec!["ablation.csv".to_string()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        vec![self.spec]
    }

    fn num_cells(&self) -> usize {
        variants().len()
    }

    fn cell_label(&self, cell: usize) -> String {
        variants().swap_remove(cell).0
    }

    /// The mean τ_as curve's final value over the target samples
    /// (shorter curves padded with their final value); a sample whose
    /// attack or curve fails is skipped with a warning.
    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let (name, attack) = variants().swap_remove(cell);
        let (g, csr, model) = (ctx.graph(0), ctx.csr(0), ctx.model(0));
        let budget = (g.num_edges() as f64 * 0.02).round() as usize;
        let pool = target_pool(model, 50);
        let mut curves = Vec::new();
        for s in 0..self.samples {
            let targets = sample_from_pool(&pool, 10, self.seed.wrapping_add(300 + s as u64));
            let scores = ctx
                .session(0, &targets)
                .and_then(|session| attack.attack_with_session(session, budget))
                .map_err(|e| e.to_string())
                .and_then(|outcome| {
                    let detector = OddBall::default();
                    let curve = outcome.ascore_curve_with_clean(csr, model, &targets, &detector);
                    curve.map_err(|e| e.to_string())
                });
            match scores {
                Ok(s) => curves.push((0..s.len()).map(|b| AttackOutcome::tau_as(&s, b)).collect()),
                Err(e) => eprintln!("warning: {} failed on one sample: {e}", attack.name()),
            }
        }
        let tau = average_padded(&curves, budget + 1).last().copied();
        let tau = tau.unwrap_or(0.0);
        let mut rows = Vec::new();
        if cell == 0 {
            let (n, m, k) = (g.num_nodes(), g.num_edges(), self.samples);
            rows.push(out(format_args!(
                "ABLATIONS on BA-like graph (n={n}, m={m}, budget={budget}, {k} samples)"
            )));
        }
        if let Some((_, title)) = SECTIONS.iter().find(|(first, _)| *first == cell) {
            rows.extend([out(""), out(title)]);
        }
        rows.push(out(format_args!("{name:>34}  tau_as = {}", f4(tau))));
        rows.push(format!("ablation.csv,{name},{tau}"));
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        write_report(self, opts, cells, &["variant,tau_as"])
    }
}
