//! Ablations of BinarizedAttack's design choices (DESIGN.md §6), as a
//! runner experiment with one cell per variant:
//!
//! 1. **λ grid** — single λ values vs the swept grid.
//! 2. **Iteration budget T** and **learning rate η**.
//! 3. **Candidate scoping** — full pair space vs target neighbourhood.
//! 4. **Gradient guidance** — BinarizedAttack / GradMaxSearch vs the
//!    structural CliqueBreaker heuristic and the random floor.
//!
//! Each distinct attack is one cell, and its time is the runner's
//! per-cell progress line. Three report rows repeat the `binarized T=80`
//! attack under the name of another section (`REPEATS`); they report
//! that cell's τ_as rather than run it again. The CSV holds only the
//! deterministic τ_as.

use crate::experiments::{corrupt, out, write_report};
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{average_padded, f4, sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{
    AttackConfig, AttackOutcome, BinarizedAttack, CandidateScope, CliqueBreaker, GradMaxSearch,
    RandomAttack, StructuralAttack,
};
use ba_datasets::Dataset;
use ba_net::codec::{dec_f64, enc_f64};
use ba_oddball::OddBall;

/// The first variant of each section, and its title.
const SECTIONS: [(usize, &str); 4] = [
    (0, "[1] lambda grid"),
    (5, "[2] iterations and learning rate"),
    (11, "[3] candidate scope"),
    (13, "[4] gradient guidance vs heuristics"),
];

/// Report rows whose attack is [`REPEATED`]'s again — `bin(80, [0.01,
/// 0.05])` at the default η and the full scope — each named for the
/// section it stands in. They report that cell's τ_as.
const REPEATS: [&str; 3] = [
    "binarized lr=0.05",
    "binarized full scope",
    "binarized (default)",
];

/// The variant whose cell the [`REPEATS`] rows report.
const REPEATED: &str = "binarized T=80";

/// A named ablation variant.
type Variant = (String, Box<dyn StructuralAttack>);

fn variant(name: impl Into<String>, attack: impl StructuralAttack + 'static) -> Variant {
    (name.into(), Box::new(attack))
}

/// Every report row's variant, in report order.
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

/// The variants that run, one per cell, in report order: every row but
/// the [`REPEATS`].
fn cells() -> Vec<Variant> {
    let mut v = variants();
    v.retain(|(name, _)| !REPEATS.contains(&name.as_str()));
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
        cells().len()
    }

    fn cell_label(&self, cell: usize) -> String {
        cells().swap_remove(cell).0
    }

    /// The mean τ_as curve's final value over the target samples
    /// (shorter curves padded with their final value), recorded exactly;
    /// a sample whose attack or curve fails is skipped with a warning.
    /// Cell 0 also records the report's heading.
    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let attack = cells().swap_remove(cell).1;
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
        rows.push(enc_f64(tau));
        rows
    }

    /// Lays the cells' τ_as out in report order, each `REPEATS` row
    /// taking `REPEATED`'s.
    fn finalize(&self, opts: &ExpOptions, cell_rows: &[Vec<String>]) -> Result<(), BenchError> {
        let names: Vec<String> = cells().into_iter().map(|(name, _)| name).collect();
        let tau_of = |name: &str| {
            let name = if REPEATS.contains(&name) {
                REPEATED
            } else {
                name
            };
            names
                .iter()
                .position(|n| n == name)
                .and_then(|cell| cell_rows.get(cell)?.last())
                .and_then(|tau| dec_f64(tau))
                .ok_or_else(|| corrupt(&self.name(), format!("tau_as of {name}")))
        };
        let heading = cell_rows.first().and_then(|rows| rows.first());
        let heading = heading.ok_or_else(|| corrupt(&self.name(), "heading"))?;
        let mut report = vec![heading.clone()];
        for (row, (name, _)) in variants().into_iter().enumerate() {
            if let Some((_, title)) = SECTIONS.iter().find(|(first, _)| *first == row) {
                report.extend([out(""), out(title)]);
            }
            let tau = tau_of(&name)?;
            report.push(out(format_args!("{name:>34}  tau_as = {}", f4(tau))));
            report.push(format!("ablation.csv,{name},{tau}"));
        }
        write_report(self, opts, &[report], &["variant,tau_as"])
    }
}
