//! Fig. 4 (a–h) as a runner experiment — the headline τ_as-vs-budget
//! grid. Cells are `(panel, method, target-sample)` triples, the finest
//! independent unit: every method-cell of a panel re-derives the same
//! target set from the shared per-panel seed stream, so method columns
//! stay comparable while all `panels × methods × samples` attacks run
//! concurrently.

use crate::artifact::{dec_curve, enc_curve};
use crate::experiments::corrupt;
use crate::runner::{CellCtx, DatasetSpec, Experiment};
use crate::{average_padded, f4, sample_from_pool, target_pool, BenchError, ExpOptions};
use ba_core::{
    AttackConfig, AttackError, AttackOutcome, BinarizedAttack, ContinuousA, GradMaxSearch,
    StructuralAttack,
};
use ba_datasets::Dataset;
use ba_oddball::OddBall;

/// One τ_as panel: a dataset at a concrete scale, a target-set size, and
/// the budget as a fraction of the panel's edge count.
#[derive(Debug, Clone)]
pub struct Fig4Panel {
    /// Panel label (figure sub-caption).
    pub label: String,
    /// Dataset + scale the panel runs on.
    pub spec: DatasetSpec,
    /// Targets per sample (10 or 30 in the paper).
    pub num_targets: usize,
    /// Budget as a fraction of the panel's edge count.
    pub budget_frac: f64,
}

/// The attack method a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Method {
    /// The proposed BinarizedAttack.
    Binarized,
    /// The greedy GradMaxSearch baseline.
    GradMax,
    /// The full-relaxation ContinuousA baseline.
    Continuous,
}

impl Fig4Method {
    /// CSV column suffix / progress label.
    pub fn column(&self) -> &'static str {
        match self {
            Fig4Method::Binarized => "binarized",
            Fig4Method::GradMax => "gradmax",
            Fig4Method::Continuous => "continuousA",
        }
    }
}

/// The Fig. 4 grid experiment. All knobs are public so the determinism
/// suite can shrink it to a seconds-scale instance.
#[derive(Debug, Clone)]
pub struct Fig4Experiment {
    /// Experiment name (artifact dir, seed-derivation domain).
    pub name: String,
    /// CSV artifact filename.
    pub csv_name: String,
    /// The panels (paper: eight).
    pub panels: Vec<Fig4Panel>,
    /// The methods (paper: all three).
    pub methods: Vec<Fig4Method>,
    /// Target-set resamples per panel.
    pub samples: usize,
    /// AScore ranking pool size targets are drawn from (paper: 50).
    pub pool: usize,
    /// BinarizedAttack PGD iterations.
    pub bin_iters: usize,
    /// BinarizedAttack λ grid.
    pub bin_lambdas: Vec<f64>,
    /// ContinuousA PGD iterations.
    pub cont_iters: usize,
}

impl Fig4Experiment {
    /// The paper's eight-panel grid at the profile `opts` selects
    /// (quick: half-scale datasets; `--paper`: Table-I scale).
    pub fn standard(opts: &ExpOptions) -> Self {
        let scale = |d: Dataset| {
            if opts.paper {
                DatasetSpec::full(d)
            } else {
                DatasetSpec::half(d)
            }
        };
        let panel = |label: &str, d: Dataset, num_targets: usize, budget_frac: f64| Fig4Panel {
            label: label.to_string(),
            spec: scale(d),
            num_targets,
            budget_frac,
        };
        let (bin_iters, bin_lambdas, cont_iters) = if opts.paper {
            (400, vec![0.002, 0.008, 0.03], 50)
        } else {
            (300, vec![0.002, 0.02], 30)
        };
        Self {
            name: "fig4".to_string(),
            csv_name: "fig4.csv".to_string(),
            panels: vec![
                panel("ER", Dataset::Er, 10, 0.003),
                panel("BA", Dataset::Ba, 10, 0.02),
                panel("Blogcatalog-10", Dataset::Blogcatalog, 10, 0.008),
                panel("Blogcatalog-30", Dataset::Blogcatalog, 30, 0.02),
                panel("Bitcoin-Alpha-10", Dataset::BitcoinAlpha, 10, 0.0175),
                panel("Bitcoin-Alpha-30", Dataset::BitcoinAlpha, 30, 0.04),
                panel("Wikivote-10", Dataset::Wikivote, 10, 0.0175),
                panel("Wikivote-30", Dataset::Wikivote, 30, 0.04),
            ],
            methods: vec![
                Fig4Method::Binarized,
                Fig4Method::GradMax,
                Fig4Method::Continuous,
            ],
            samples: opts.samples,
            pool: 50,
            bin_iters,
            bin_lambdas,
            cont_iters,
        }
    }

    /// A seconds-scale instance: two tiny panels, all three methods,
    /// two target samples — 12 cells. The shared grid for everything
    /// that pins the orchestrator's byte-identity contract: the
    /// workspace determinism tests, the distributed tracker/peer tests,
    /// and the CI smoke (registry name `det`). `name` keys the artifact
    /// store and every derived seed stream, so differently-named
    /// instances never collide in one output directory.
    pub fn tiny(name: &str) -> Self {
        Self {
            name: name.to_string(),
            csv_name: format!("{name}.csv"),
            panels: vec![
                Fig4Panel {
                    label: "ER".to_string(),
                    spec: DatasetSpec::scaled(Dataset::Er, 150, 550),
                    num_targets: 4,
                    budget_frac: 0.012,
                },
                Fig4Panel {
                    label: "BA".to_string(),
                    spec: DatasetSpec::scaled(Dataset::Ba, 150, 450),
                    num_targets: 4,
                    budget_frac: 0.015,
                },
            ],
            methods: vec![
                Fig4Method::Binarized,
                Fig4Method::GradMax,
                Fig4Method::Continuous,
            ],
            samples: 2,
            pool: 20,
            bin_iters: 40,
            bin_lambdas: vec![0.02],
            cont_iters: 8,
        }
    }

    fn cell_index(&self, panel: usize, method: usize, sample: usize) -> usize {
        (panel * self.methods.len() + method) * self.samples + sample
    }

    fn decompose(&self, cell: usize) -> (usize, usize, usize) {
        let sample = cell % self.samples;
        let rest = cell / self.samples;
        (rest / self.methods.len(), rest % self.methods.len(), sample)
    }

    /// Experiment-local dataset index of a panel (panels on the same
    /// spec share a substrate).
    fn panel_ds(&self, panel: usize) -> usize {
        let specs = self.datasets();
        specs
            .iter()
            .position(|&s| s == self.panels[panel].spec)
            // ba-lint: allow(panic-path) -- datasets() is built by inserting every panel's spec, so the position always exists; a miss is a logic bug worth crashing on
            .expect("panel spec present")
    }
}

impl Experiment for Fig4Experiment {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn artifacts(&self) -> Vec<String> {
        vec![self.csv_name.clone()]
    }

    fn datasets(&self) -> Vec<DatasetSpec> {
        let mut specs: Vec<DatasetSpec> = Vec::new();
        for p in &self.panels {
            if !specs.contains(&p.spec) {
                specs.push(p.spec);
            }
        }
        specs
    }

    fn num_cells(&self) -> usize {
        self.panels.len() * self.methods.len() * self.samples
    }

    fn cell_dataset(&self, cell: usize) -> usize {
        self.panel_ds(self.decompose(cell).0)
    }

    fn cell_label(&self, cell: usize) -> String {
        let (p, m, s) = self.decompose(cell);
        format!("{}/{}/s{s}", self.panels[p].label, self.methods[m].column())
    }

    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        let (p, mi, s) = self.decompose(cell);
        let panel = &self.panels[p];
        let ds = self.panel_ds(p);
        let g = ctx.graph(ds);
        let edges = g.num_edges();
        let budget = ((edges as f64 * panel.budget_frac).round() as usize).max(4);
        // The target sample is shared by every method-cell of this
        // (panel, sample): it depends on the panel/sample indices only.
        let pool = target_pool(ctx.model(ds), self.pool);
        let tseed = ctx.seed_for("targets", &[p as u64, s as u64]);
        let targets = sample_from_pool(&pool, panel.num_targets, tseed);

        let mut rows = vec![format!(
            "meta,nodes={},edges={edges},budget={budget}",
            g.num_nodes()
        )];
        let cfg = AttackConfig::default();
        let outcome: Result<AttackOutcome, AttackError> =
            ctx.session(ds, &targets)
                .and_then(|session| match self.methods[mi] {
                    Fig4Method::Binarized => BinarizedAttack::new(cfg)
                        .with_iterations(self.bin_iters)
                        .with_lambdas(self.bin_lambdas.clone())
                        .attack_with_session(session, budget),
                    Fig4Method::GradMax => {
                        GradMaxSearch::new(cfg).attack_with_session(session, budget)
                    }
                    Fig4Method::Continuous => ContinuousA::new(cfg)
                        .with_iterations(self.cont_iters)
                        .attack_with_session(session, budget),
                });
        // Attack errors and degenerate-refit curve errors both fail the
        // cell gracefully: the reason rides in the record row (newlines
        // are impossible in these Display impls), the mean curve simply
        // skips the sample, and no worker panics.
        let curve = outcome.map_err(|e| e.to_string()).and_then(|outcome| {
            outcome
                .ascore_curve_with_clean(ctx.csr(ds), ctx.model(ds), &targets, &OddBall::default())
                .map_err(|e| e.to_string())
        });
        match curve {
            Ok(scores) => {
                let curve: Vec<f64> = (0..scores.len())
                    .map(|b| AttackOutcome::tau_as(&scores, b))
                    .collect();
                rows.push(enc_curve(&curve));
            }
            Err(reason) => {
                eprintln!(
                    "warning: {} failed on {}/s{s}: {reason}",
                    self.methods[mi].column(),
                    panel.label
                );
                rows.push(format!("failed,{reason}"));
            }
        }
        rows
    }

    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        println!(
            "FIG 4: tau_as vs edges changed (%) — mean over {} target samples",
            self.samples
        );
        let mut csv = Vec::new();
        for (p, panel) in self.panels.iter().enumerate() {
            let meta = meta_fields(&cells[self.cell_index(p, 0, 0)][0]);
            let (nodes, edges, budget) = (meta("nodes"), meta("edges"), meta("budget"));
            // Mean τ_as curve per method over its sample-cells.
            let mut mean_curves: Vec<Vec<f64>> = Vec::with_capacity(self.methods.len());
            for mi in 0..self.methods.len() {
                let mut curves: Vec<Vec<f64>> = Vec::new();
                for s in 0..self.samples {
                    let payload = &cells[self.cell_index(p, mi, s)][1];
                    if payload.starts_with("failed") {
                        continue;
                    }
                    curves.push(dec_curve(payload).ok_or_else(|| {
                        corrupt(&self.name, format!("curve payload of {}/s{s}", panel.label))
                    })?);
                }
                mean_curves.push(average_padded(&curves, budget + 1));
            }

            println!(
                "\n=== {} (n={nodes}, m={edges}, budget={budget} = {:.2}% edges) ===",
                panel.label,
                100.0 * budget as f64 / edges as f64
            );
            print!("{:>10}", "edges(%)");
            for m in &self.methods {
                print!("  {:>14}", m.column());
            }
            println!();
            let step = (budget / 8).max(1);
            for b in (0..=budget).step_by(step) {
                let pct = 100.0 * b as f64 / edges as f64;
                print!("{pct:>10.3}");
                let mut csv_row = format!("{},{b},{pct:.5}", panel.label);
                for curve in &mean_curves {
                    let (shown, raw) = if curve.is_empty() {
                        ("n/a".to_string(), f64::NAN)
                    } else {
                        let v = curve[b.min(curve.len() - 1)];
                        (f4(v), v)
                    };
                    print!("  {shown:>14}");
                    csv_row.push_str(&format!(",{raw}"));
                }
                println!();
                csv.push(csv_row);
            }
        }
        let mut header = "panel,budget,edges_pct".to_string();
        for m in &self.methods {
            header.push_str(&format!(",tau_{}", m.column()));
        }
        opts.write_csv(&self.csv_name, &header, &csv)?;
        Ok(())
    }
}

/// Parses a `meta,k=v,...` row into a `usize` field lookup.
fn meta_fields(row: &str) -> impl Fn(&str) -> usize + '_ {
    move |key: &str| {
        row.split(',')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("meta field {key} missing in {row:?}"))
    }
}
