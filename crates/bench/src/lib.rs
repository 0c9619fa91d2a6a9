//! # ba-bench
//!
//! Experiment harness for the BinarizedAttack reproduction: one binary
//! per paper table/figure (see DESIGN.md §5 for the index) and every
//! perf gate binary (`grad_bench`, `eval_bench`, `search_bench`,
//! `stream_bench`, `serve_bench`, `large_bench`). The engine and service
//! crates sit below this one and share only the leaf [`ba_net`] codec
//! with it, so the gates that drive them live here too. This library
//! holds the shared plumbing: CLI flags, the gates' timer, target
//! sampling (paper Sec. VIII-A3), attack-curve averaging, CSV emission
//! under `target/experiments/`, and — since the orchestrator rework —
//! the deterministic parallel [`runner`] with its durable [`artifact`]
//! layer and the runner-ported [`experiments`].

pub mod artifact;
pub mod distrib;
pub mod experiments;
pub mod graphstore;
pub mod runner;

use ba_core::{AttackOutcome, StructuralAttack};
use ba_graph::{Graph, GraphView, NodeId};
use ba_oddball::{OddBall, OddBallModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Common experiment options parsed from `std::env::args`.
///
/// Flags: `--paper` (full Table-I scale; default is a faster `quick`
/// profile), `--seed N`, `--samples N`, `--out DIR`, `--threads N`
/// (worker pool size; `0` = all cores, the default), `--resume`
/// (replay committed cells from an interrupted run's manifest).
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Full paper-scale run (1000-node graphs, 5 target samples, paper
    /// budgets) vs the quick profile.
    pub paper: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Target-set resamples (paper uses 5).
    pub samples: usize,
    /// Output directory for CSV artefacts.
    pub out_dir: PathBuf,
    /// Orchestrator worker threads (`0` = autodetect). Output is
    /// byte-identical at any value — see [`runner`].
    pub threads: usize,
    /// Resume an interrupted run from its cell manifest instead of
    /// recomputing completed cells.
    pub resume: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            paper: false,
            seed: 0xedc0de,
            samples: 3,
            out_dir: PathBuf::from("target/experiments"),
            threads: 0,
            resume: false,
        }
    }
}

/// Harness-level failure: artifact/CSV IO, or a committed cell record
/// that no longer decodes at merge time. The runner surfaces it so the
/// thin experiment binaries can exit non-zero with context instead of
/// panicking a worker (lint rule `panic-path`).
#[derive(Debug)]
pub enum BenchError {
    /// Filesystem failure in the CSV/artifact layer.
    Io(std::io::Error),
    /// A cell record failed to decode on merge (truncated or hand-edited
    /// artifact store); `--resume` after deleting the store recomputes.
    Corrupt {
        /// Experiment whose record is bad.
        experiment: String,
        /// Which field failed to decode, and its raw payload.
        detail: String,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "artifact io: {e}"),
            BenchError::Corrupt { experiment, detail } => {
                write!(f, "corrupt {experiment} cell record: {detail}")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            BenchError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl ExpOptions {
    /// The flags [`ExpOptions::from_flags`] reads.
    const FLAGS: [&'static str; 6] = ["paper", "seed", "samples", "out", "threads", "resume"];

    /// Parses options from the process arguments; exits with an error
    /// naming the flag when it is unknown, or when its value is missing
    /// or does not parse.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_args(&args).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(1)
        })
    }

    /// Parses options from an argument list without the program name.
    fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        let flags = Flags::parse(args);
        if let Some(key) = flags.0.keys().find(|k| !Self::FLAGS.contains(&k.as_str())) {
            return Err(format!("unknown flag --{key}"));
        }
        Self::from_flags(&flags)
    }

    /// Options from a parsed flag map (`binattack exp` passes its own).
    /// An explicit `--samples N` wins over `--paper`'s 5 in either
    /// order.
    pub fn from_flags(flags: &Flags) -> Result<Self, String> {
        let defaults = Self::default();
        let paper = flags.has("paper");
        let profile_samples = if paper { 5 } else { defaults.samples };
        Ok(Self {
            paper,
            seed: flags.parse_or("seed", defaults.seed)?,
            samples: flags.parse_or("samples", profile_samples)?,
            out_dir: flags.get("out")?.map_or(defaults.out_dir, PathBuf::from),
            threads: flags.parse_or("threads", defaults.threads)?,
            resume: flags.has("resume"),
        })
    }

    /// Writes a CSV artefact, creating the output directory on demand.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(name);
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{header}")?;
        for row in rows {
            writeln!(f, "{row}")?;
        }
        f.flush()?;
        println!("[csv] wrote {}", path.display());
        Ok(())
    }
}

/// The top-`pool` AScore ranking of a fitted model — the candidate pool
/// target sampling draws from. Hoisted out of the per-seed path so one
/// OddBall score pass per dataset (the runner fits it on the shared
/// frozen `CsrGraph`) serves every `(seed, sample)` cell, instead of
/// refitting inside each panel loop.
pub fn target_pool(model: &OddBallModel, pool: usize) -> Vec<NodeId> {
    model.top_k(pool).into_iter().map(|(i, _)| i).collect()
}

/// Samples `count` targets from a precomputed AScore pool (sorted ids).
pub fn sample_from_pool(pool: &[NodeId], count: usize, seed: u64) -> Vec<NodeId> {
    let mut top = pool.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    top.shuffle(&mut rng);
    top.truncate(count);
    top.sort_unstable();
    top
}

/// Samples `count` target nodes from the top-`pool` AScore ranking, as
/// the paper does ("sampling 10 or 30 target nodes from the top-50 nodes
/// based on AScore rankings", Sec. VIII-A3). One-shot convenience over
/// [`target_pool`] + [`sample_from_pool`]; grid experiments should fit
/// the model once per dataset and use those directly.
pub fn sample_targets<V: GraphView + ?Sized>(
    g: &V,
    count: usize,
    pool: usize,
    seed: u64,
) -> Vec<NodeId> {
    let model = OddBall::default()
        .fit(g)
        // ba-lint: allow(panic-path) -- sampling precedes every attack; a detector that cannot fit the clean graph voids the whole experiment, so abort with context
        .expect("OddBall fit for target sampling");
    sample_from_pool(&target_pool(&model, pool), count, seed)
}

/// One attack's τ_as curve: `curve[b] = τ_as` after budget `b`
/// (`curve[0] = 0`). Fails when a budget's poisoned graph degenerates
/// the detector refit ([`ba_core::CurveError`] names the budget).
pub fn tau_curve(
    outcome: &AttackOutcome,
    g0: &Graph,
    targets: &[NodeId],
) -> Result<Vec<f64>, ba_core::CurveError> {
    let scores = outcome.ascore_curve(g0, targets, &OddBall::default())?;
    Ok((0..scores.len())
        .map(|b| AttackOutcome::tau_as(&scores, b))
        .collect())
}

/// Runs one attack over several target samples and averages the τ_as
/// curves point-wise (shorter curves are padded with their final value,
/// mirroring "attack saturated").
pub fn mean_tau_curve(
    attack: &dyn StructuralAttack,
    g0: &Graph,
    target_sets: &[Vec<NodeId>],
    budget: usize,
) -> Vec<f64> {
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for targets in target_sets {
        match attack.attack(g0, targets, budget) {
            Ok(outcome) => match tau_curve(&outcome, g0, targets) {
                Ok(curve) => curves.push(curve),
                Err(e) => eprintln!(
                    "warning: {} curve evaluation failed on one sample: {e}",
                    attack.name()
                ),
            },
            Err(e) => eprintln!("warning: {} failed on one sample: {e}", attack.name()),
        }
    }
    average_padded(&curves, budget + 1)
}

/// Point-wise average of curves, padding each with its last value up to
/// `len`. Returns an empty vector when no curves succeeded.
pub fn average_padded(curves: &[Vec<f64>], len: usize) -> Vec<f64> {
    if curves.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; len];
    for curve in curves {
        for (b, slot) in out.iter_mut().enumerate() {
            let v = if curve.is_empty() {
                0.0
            } else {
                curve[b.min(curve.len() - 1)]
            };
            *slot += v;
        }
    }
    for v in &mut out {
        *v /= curves.len() as f64;
    }
    out
}

/// Minimal `--key value` flag map, shared by the experiment binaries
/// and the `binattack` CLI. A flag followed by another `--flag` (or by
/// nothing) is boolean-valued: `--resume --snapshot s.snap` must not
/// swallow `--snapshot` as the resume value.
#[derive(Debug)]
pub struct Flags(std::collections::BTreeMap<String, String>);

impl Flags {
    /// Splits `args` (without the program or subcommand name) into
    /// flags; arguments that are neither a flag nor its value are
    /// ignored.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Flags {
        let mut map = std::collections::BTreeMap::new();
        let mut args = args.iter().map(AsRef::as_ref).peekable();
        while let Some(arg) = args.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = args.next_if(|next| !next.starts_with("--"));
                map.insert(key.to_string(), value.unwrap_or_default().to_string());
            }
        }
        Flags(map)
    }

    /// The value of `--key`: `None` when the flag is absent, an error
    /// naming the flag when it was given without a value.
    pub fn get(&self, key: &str) -> Result<Option<&str>, String> {
        match self.0.get(key).map(String::as_str) {
            Some("") => Err(format!("flag --{key} needs a value")),
            value => Ok(value),
        }
    }

    /// Whether `--key` was given, with or without a value.
    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The value of `--key`, an error naming the flag when it is absent
    /// or has no value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)?
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// The value of `--key` parsed as `T`, `default` when the flag is
    /// absent, and an error naming the flag when the value does not
    /// parse.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key)? {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("invalid value {value:?} for --{key}")),
        }
    }
}

/// Runs `f` `reps` times and returns its fastest run in seconds — the
/// timer every gate binary reports.
pub fn time_best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Pretty-prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  ", w = w));
    }
    println!("{line}");
}

/// Formats a float with 4 decimals for table output.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::{GradMaxSearch, RandomAttack};
    use ba_graph::generators;

    #[test]
    fn explicit_samples_win_over_paper_in_either_order() {
        for args in [["--samples", "2", "--paper"], ["--paper", "--samples", "2"]] {
            let opts = ExpOptions::parse_args(&args).unwrap();
            assert!(opts.paper, "{args:?}");
            assert_eq!(opts.samples, 2, "{args:?}");
        }
        assert_eq!(ExpOptions::parse_args(&["--paper"]).unwrap().samples, 5);
        let quick = ExpOptions::parse_args::<&str>(&[]).unwrap();
        assert_eq!((quick.paper, quick.samples), (false, 3));
    }

    #[test]
    fn malformed_or_missing_values_name_the_flag() {
        let err = |args: &[&str]| ExpOptions::parse_args(args).unwrap_err();
        assert_eq!(err(&["--seed", "1O"]), r#"invalid value "1O" for --seed"#);
        assert_eq!(
            err(&["--threads", "-1"]),
            r#"invalid value "-1" for --threads"#
        );
        assert_eq!(
            err(&["--paper", "--samples"]),
            "flag --samples needs a value"
        );
        assert_eq!(err(&["--out"]), "flag --out needs a value");
        assert_eq!(err(&["--sample", "2"]), "unknown flag --sample");
    }

    fn planted(seed: u64) -> Graph {
        let mut g = generators::erdos_renyi(120, 0.05, seed);
        generators::attach_isolated(&mut g, seed + 1);
        generators::plant_near_clique(&mut g, &(0..8).collect::<Vec<_>>(), 1.0, seed + 2);
        g
    }

    #[test]
    fn sample_targets_from_top_pool() {
        let g = planted(3);
        let targets = sample_targets(&g, 5, 20, 7);
        assert_eq!(targets.len(), 5);
        let model = OddBall::default().fit(&g).unwrap();
        let top20: Vec<NodeId> = model.top_k(20).into_iter().map(|(i, _)| i).collect();
        for t in &targets {
            assert!(top20.contains(t), "target {t} not in top-20");
        }
        // Deterministic.
        assert_eq!(targets, sample_targets(&g, 5, 20, 7));
        assert_ne!(targets, sample_targets(&g, 5, 20, 8));
    }

    #[test]
    fn target_sampling_hoisted_pool_matches_per_seed_path() {
        // The orchestrator computes the AScore pool once per dataset on
        // the frozen CSR substrate; the legacy path refits per seed on
        // the mutable graph. Both must sample identical targets.
        let g = ba_datasets::Dataset::Er.build_scaled(250, 1200, 42);
        let csr = ba_graph::CsrGraph::from(&g);
        let model = OddBall::default().fit(&csr).unwrap();
        let pool = target_pool(&model, 50);
        for seed in [42, 7, 1000] {
            assert_eq!(
                sample_from_pool(&pool, 10, seed),
                sample_targets(&g, 10, 50, seed),
                "seed {seed}"
            );
        }
        // Regression pin: the exact ids for seed 42. A change here means
        // either the RNG stream, the OddBall ranking, or the generator
        // changed — all of which silently shift every paper figure.
        assert_eq!(
            sample_from_pool(&pool, 10, 42),
            vec![66, 77, 104, 125, 136, 145, 199, 224, 225, 233]
        );
    }

    #[test]
    fn average_padded_handles_uneven_curves() {
        let curves = vec![vec![0.0, 1.0], vec![0.0, 3.0, 5.0]];
        let avg = average_padded(&curves, 4);
        assert_eq!(avg, vec![0.0, 2.0, 3.0, 3.0]);
        assert!(average_padded(&[], 3).is_empty());
    }

    #[test]
    fn mean_tau_curve_runs_attacks() {
        let g = planted(9);
        let t1 = sample_targets(&g, 2, 10, 1);
        let t2 = sample_targets(&g, 2, 10, 2);
        let curve = mean_tau_curve(&GradMaxSearch::default(), &g, &[t1, t2], 5);
        assert_eq!(curve.len(), 6);
        assert_eq!(curve[0], 0.0);
        assert!(curve[5] > 0.0, "greedy attack had no effect: {curve:?}");
    }

    #[test]
    fn random_attack_curve_weaker_than_greedy() {
        let g = planted(11);
        let sets: Vec<Vec<NodeId>> = (0..2).map(|i| sample_targets(&g, 2, 10, i)).collect();
        let greedy = mean_tau_curve(&GradMaxSearch::default(), &g, &sets, 8);
        let random = mean_tau_curve(&RandomAttack::default(), &g, &sets, 8);
        assert!(
            greedy[8] > random[8],
            "greedy {} vs random {}",
            greedy[8],
            random[8]
        );
    }
}
