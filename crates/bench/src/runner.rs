//! The deterministic parallel experiment orchestrator.
//!
//! Every paper figure/table is a grid of independent *cells* — dataset ×
//! method × target-sample — that the seed binaries used to walk
//! serially. [`ExperimentRunner`] fans the cells of one or more
//! [`Experiment`]s out across a `std::thread::scope` worker pool while
//! guaranteeing the merged output is **byte-identical at any
//! `--threads` value**:
//!
//! * **Cell-indexed RNG streams.** Every random choice inside a cell is
//!   seeded by [`derive_seed`] from `(experiment name, cell index, base
//!   seed)` — never from worker identity, wall-clock, or completion
//!   order.
//! * **Shared frozen substrates.** Each dataset is built once and frozen
//!   into a [`CsrGraph`] (plus a fitted OddBall model for target
//!   sampling); cells borrow it read-only. Workers keep one
//!   [`AttackSession`] per substrate alive across cells via
//!   [`AttackSession::retarget`], so no per-cell `O(n + m)` rebuilds.
//! * **Ordered merge.** Workers claim cells from a shared queue
//!   (dynamic load balancing), but results are slotted by cell index and
//!   handed to [`Experiment::finalize`] in index order.
//! * **Durable artifacts.** Each finished cell is committed atomically
//!   under `<out>/.cells/<experiment>/` with a JSON manifest
//!   ([`crate::artifact`]); `--resume` replays only missing cells and
//!   merges the same bytes a fresh run would (cells always round-trip
//!   through their on-disk encoding).
//!
//! The determinism contract is enforced by `tests/determinism.rs` at the
//! workspace root.

use crate::artifact::{CellStore, Manifest};
use crate::{BenchError, ExpOptions};
use ba_core::{AttackError, AttackSession};
use ba_datasets::Dataset;
use ba_graph::{CsrGraph, Graph, NodeId};
use ba_oddball::{OddBall, OddBallModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One SplitMix64 scramble step.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Derives an independent RNG seed from a textual tag and integer parts
/// (FNV-1a over the tag, SplitMix64-mixed with each part). The one seed
/// derivation the orchestrator permits: streams depend only on *what* a
/// cell is, never on *where* or *when* it runs.
pub fn derive_seed(tag: &str, parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in tag.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    splitmix64(h)
}

/// A concrete dataset build an experiment's cells run against: the
/// Table-I dataset plus the node/edge scale and build seed. Specs are
/// deduplicated across a suite, so `fig4` and `fig5` share one frozen
/// Wikivote substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Which Table-I dataset.
    pub dataset: Dataset,
    /// Nodes to build.
    pub nodes: usize,
    /// Target edge count.
    pub edges: usize,
    /// Added to the suite's base seed when building (0 from every
    /// constructor): `fig7_table2` repeats its runs on fresh graphs.
    pub seed_offset: u64,
}

impl DatasetSpec {
    /// Full paper (Table-I) scale.
    pub fn full(dataset: Dataset) -> Self {
        let (nodes, edges) = dataset.paper_statistics();
        Self::scaled(dataset, nodes, edges)
    }

    /// Half scale — the quick-profile size `fig4` uses.
    pub fn half(dataset: Dataset) -> Self {
        let (n, m) = dataset.paper_statistics();
        Self::scaled(dataset, n / 2, m / 2)
    }

    /// An explicit scale (tests use tiny graphs).
    pub fn scaled(dataset: Dataset, nodes: usize, edges: usize) -> Self {
        Self {
            dataset,
            nodes,
            edges,
            seed_offset: 0,
        }
    }

    /// This spec built at `base seed + offset` instead.
    pub fn offset_by(self, seed_offset: u64) -> Self {
        Self {
            seed_offset,
            ..self
        }
    }

    /// Builds the graph for this spec at the given base seed.
    pub fn build(&self, seed: u64) -> Graph {
        self.dataset
            .build_scaled(self.nodes, self.edges, seed.wrapping_add(self.seed_offset))
    }
}

/// A dataset substrate shared (read-only) by every cell and worker: the
/// built graph, its frozen CSR form, and a fitted OddBall model so
/// target sampling's score pass runs once per dataset instead of once
/// per cell.
#[derive(Debug)]
pub struct PreparedDataset {
    /// The spec this substrate was built from.
    pub spec: DatasetSpec,
    /// The mutable-representation graph (GAL/ReFeX pipelines take it).
    pub graph: Graph,
    /// The frozen substrate sessions and overlays run on.
    pub csr: CsrGraph,
    /// OddBall fitted on the clean substrate.
    pub model: OddBallModel,
}

impl PreparedDataset {
    fn build(spec: DatasetSpec, seed: u64) -> Self {
        let graph = spec.build(seed);
        let csr = CsrGraph::from(&graph);
        let model = OddBall::default()
            .fit(&csr)
            .unwrap_or_else(|e| panic!("OddBall fit on {:?}: {e}", spec.dataset.name()));
        Self {
            spec,
            graph,
            csr,
            model,
        }
    }
}

/// The frozen dataset substrates of one suite run, built at most once
/// each. The in-process pool pre-builds the specs its pending cells
/// declare (in parallel when the pool is parallel); a distributed peer
/// builds lazily on first touch instead, because it cannot know which
/// cells the tracker will lease it. Builds are pure functions of
/// `(spec, seed)`, so eager and lazy construction are interchangeable.
pub struct SubstratePool {
    specs: Vec<DatasetSpec>,
    seed: u64,
    slots: Vec<OnceLock<PreparedDataset>>,
}

impl SubstratePool {
    /// An empty pool over `specs` at `seed`. Nothing is built yet.
    pub fn new(specs: Vec<DatasetSpec>, seed: u64) -> Self {
        let slots = specs.iter().map(|_| OnceLock::new()).collect();
        Self { specs, seed, slots }
    }

    /// The deduplicated specs, indexed by global substrate id.
    pub fn specs(&self) -> &[DatasetSpec] {
        &self.specs
    }

    /// The substrate for a global spec index, building it on first use
    /// (`OnceLock` blocks concurrent callers until the build commits).
    pub fn get(&self, global: usize) -> &PreparedDataset {
        self.slots[global].get_or_init(|| PreparedDataset::build(self.specs[global], self.seed))
    }

    /// Pre-builds the flagged specs, overlapping them across threads
    /// when `parallel`. Slot order keeps the result deterministic.
    pub fn build_eager(&self, needed: &[bool], parallel: bool) {
        if parallel {
            std::thread::scope(|scope| {
                for (global, &need) in needed.iter().enumerate() {
                    if need {
                        scope.spawn(move || {
                            self.get(global);
                        });
                    }
                }
            });
        } else {
            for (global, &need) in needed.iter().enumerate() {
                if need {
                    self.get(global);
                }
            }
        }
    }
}

/// A deterministically cell-decomposable experiment.
///
/// Implementations must keep `run_cell` a pure function of `(cell,
/// substrates, derived seeds)`: no global state, no iteration-order
/// dependence on other cells. Everything a cell learns must be encoded
/// into its returned record rows (newline-free strings), because on
/// `--resume` those rows are reloaded from disk in place of re-running
/// the cell, and [`Experiment::finalize`] must merge both byte-
/// identically.
pub trait Experiment: Sync + std::fmt::Debug {
    /// Stable name: artifact directory, manifest, and seed-derivation
    /// domain.
    fn name(&self) -> String;

    /// A string covering **every** configuration knob that changes cell
    /// payloads (iteration counts, λ grids, budgets, panel specs, …).
    /// It is folded into the manifest fingerprint, so `--resume` never
    /// adopts cells computed under a different configuration. The
    /// `Debug` form covers every field of the experiment.
    fn config_fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// The dataset substrates cells reference (by index into this vec).
    fn datasets(&self) -> Vec<DatasetSpec>;

    /// Total number of cells; by default one per declared dataset.
    fn num_cells(&self) -> usize {
        self.datasets().len()
    }

    /// The experiment-local dataset index `cell` runs against (by
    /// default, cells cycle through the datasets in order). The runner
    /// builds only the substrates pending cells declare here, so a cell
    /// must not touch any other dataset through its `CellCtx`.
    fn cell_dataset(&self, cell: usize) -> usize {
        cell % self.datasets().len()
    }

    /// Short human label for progress lines; by default the name of the
    /// cell's dataset.
    fn cell_label(&self, cell: usize) -> String {
        let spec = self.datasets()[self.cell_dataset(cell)];
        spec.dataset.name().to_string()
    }

    /// Executes one cell, returning its record rows. Rows must be
    /// non-empty and newline-free (the artifact store's record format).
    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String>;

    /// The artifact filenames [`Experiment::finalize`] writes into the
    /// output directory. When the experiment fails mid-grid, the runner
    /// deletes these so a stale file from an earlier run can never ship
    /// as this run's result.
    fn artifacts(&self) -> Vec<String>;

    /// Merges all cells' rows — presented in cell-index order, whether
    /// computed or reloaded — into the final report and CSV artifacts.
    /// Fails on artifact IO errors or cell records that no longer
    /// decode (a truncated or hand-edited store).
    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError>;
}

/// Per-worker reusable attack sessions, keyed by global substrate index.
/// One per in-process pool worker; one per distributed peer process.
/// `BTreeMap` keeps the runner free of randomized-iteration containers
/// (determinism rule R2); it holds a handful of entries, so the log-n
/// lookup is irrelevant.
#[derive(Default)]
pub(crate) struct SessionCache<'p> {
    map: BTreeMap<usize, AttackSession<'p>>,
}

/// What a cell sees while it runs: the shared substrates, its derived
/// seed streams, and the worker's session cache.
pub struct CellCtx<'p, 'w> {
    exp_name: &'w str,
    cell: usize,
    base_seed: u64,
    /// The thread count of the worker's sessions: 1 when the pool itself
    /// is parallel, so cells don't oversubscribe the machine; 0
    /// (autodetect) when the pool is serial.
    inner_threads: usize,
    pool: &'p SubstratePool,
    ds_map: &'w [usize],
    sessions: &'w mut SessionCache<'p>,
}

impl<'p> CellCtx<'p, '_> {
    /// The cell's own RNG seed, derived from
    /// `(experiment, cell index, base seed)`.
    pub fn cell_seed(&self) -> u64 {
        derive_seed(self.exp_name, &[self.cell as u64, self.base_seed])
    }

    /// The cell's own RNG stream.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.cell_seed())
    }

    /// A seed stream shared *across* cells of this experiment (e.g. the
    /// target sample that several method-cells of one panel must agree
    /// on). Depends only on the experiment name, the tag/parts, and the
    /// base seed.
    pub fn seed_for(&self, tag: &str, parts: &[u64]) -> u64 {
        let mut all = vec![self.base_seed];
        all.extend_from_slice(parts);
        derive_seed(&format!("{}/{}", self.exp_name, tag), &all)
    }

    /// The prepared substrate for an experiment-local dataset index.
    /// Substrates declared via [`Experiment::cell_dataset`] are built
    /// ahead of the pool; an undeclared one is built lazily here (the
    /// build is a pure function of `(spec, seed)`, so results are
    /// unaffected — only the warm-up overlap is lost).
    pub fn dataset(&self, ds: usize) -> &'p PreparedDataset {
        self.pool.get(self.ds_map[ds])
    }

    /// The built graph.
    pub fn graph(&self, ds: usize) -> &'p Graph {
        &self.dataset(ds).graph
    }

    /// The frozen CSR substrate.
    pub fn csr(&self, ds: usize) -> &'p CsrGraph {
        &self.dataset(ds).csr
    }

    /// OddBall fitted once on the clean substrate.
    pub fn model(&self, ds: usize) -> &'p OddBallModel {
        &self.dataset(ds).model
    }

    /// This worker's reusable session on dataset `ds`, re-pointed at
    /// `targets`. The first use on a worker builds the session (one
    /// `O(n + m)` feature pass); every later cell pays only
    /// `retarget`'s `O(dirty rows)`.
    pub fn session(
        &mut self,
        ds: usize,
        targets: &[NodeId],
    ) -> Result<&mut AttackSession<'p>, AttackError> {
        let global = self.ds_map[ds];
        let csr = &self.pool.get(global).csr;
        match self.sessions.map.entry(global) {
            std::collections::btree_map::Entry::Occupied(o) => {
                let session = o.into_mut();
                session.retarget(targets)?;
                Ok(session)
            }
            std::collections::btree_map::Entry::Vacant(v) => Ok(v.insert(
                // One search memo per worker session: it is keyed by
                // (edge set ⊕ target set), so it survives the
                // retargets between cells and stays useful across the
                // whole sweep. Memoization is result-transparent —
                // cell fingerprints are unchanged.
                AttackSession::new(csr, targets)?
                    .with_threads(self.inner_threads)
                    .with_memo(),
            )),
        }
    }
}

/// Per-experiment orchestration state inside a suite run.
pub(crate) struct ExpState {
    pub(crate) store: CellStore,
    pub(crate) manifest: Mutex<Manifest>,
    /// Offset of this experiment's cell 0 in the flat result vector.
    pub(crate) offset: usize,
    pub(crate) num_cells: usize,
    /// Set when one of the experiment's cells panicked; the experiment
    /// is then skipped at finalize so the rest of the suite survives,
    /// and the run reports it as failed afterwards.
    pub(crate) failed: std::sync::atomic::AtomicBool,
}

/// The manifest fingerprint of one experiment under one option set: the
/// common options plus every experiment knob, hashed compact. Shared by
/// the in-process runner, the tracker, and the peer handshake — resume
/// must never adopt cells from a different configuration, and a peer
/// must never compute cells for one.
pub fn exp_fingerprint(exp: &dyn Experiment, opts: &ExpOptions) -> String {
    format!(
        "seed={},samples={},paper={},cells={},cfg={:016x}",
        opts.seed,
        opts.samples,
        opts.paper,
        exp.num_cells(),
        derive_seed(&exp.config_fingerprint(), &[])
    )
}

/// The pure, store-free shape of a suite: deduplicated substrate specs,
/// per-experiment local→global dataset maps, flat cell offsets, and the
/// handshake fingerprint. A function of `(exps, opts)` only, so the
/// tracker and every peer — which must never touch the tracker's
/// artifact store — derive identical layouts independently.
pub struct SuiteLayout {
    /// Deduplicated substrate specs, indexed by global substrate id.
    pub specs: Vec<DatasetSpec>,
    /// Per-experiment map: local dataset index → global substrate id.
    pub maps: Vec<Vec<usize>>,
    /// Flat index of each experiment's cell 0.
    pub offsets: Vec<usize>,
    /// Total cells across the suite.
    pub total: usize,
    /// Suite-level handshake fingerprint: the per-experiment manifest
    /// fingerprints joined in suite order. A peer whose layout
    /// fingerprint differs from the tracker's is rejected at Hello.
    pub fingerprint: String,
}

impl SuiteLayout {
    /// Derives the layout of `exps` under `opts`.
    pub fn build(exps: &[&dyn Experiment], opts: &ExpOptions) -> Self {
        let mut specs: Vec<DatasetSpec> = Vec::new();
        let mut maps: Vec<Vec<usize>> = Vec::with_capacity(exps.len());
        for exp in exps {
            let map = exp
                .datasets()
                .into_iter()
                .map(|spec| {
                    specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
                        specs.push(spec);
                        specs.len() - 1
                    })
                })
                .collect();
            maps.push(map);
        }
        let mut offsets = Vec::with_capacity(exps.len());
        let mut total = 0;
        for exp in exps {
            offsets.push(total);
            total += exp.num_cells();
        }
        let fingerprints: Vec<String> =
            exps.iter().map(|exp| exp_fingerprint(*exp, opts)).collect();
        Self {
            specs,
            maps,
            offsets,
            total,
            fingerprint: fingerprints.join("|"),
        }
    }

    /// Maps a flat suite-wide cell index to `(experiment, local cell)`.
    pub fn split_flat(&self, flat: usize) -> Option<(usize, usize)> {
        if flat >= self.total {
            return None;
        }
        let ei = self.offsets.iter().rposition(|&o| o <= flat)?;
        Some((ei, flat - self.offsets[ei]))
    }
}

/// Everything a suite run resolves before any cell executes: the
/// store-free [`SuiteLayout`] plus artifact stores with resume-adopted
/// rows and the flat pending-cell list. Built identically by
/// [`ExperimentRunner`] and the distributed tracker, so both merge the
/// same bytes.
pub(crate) struct SuitePlan {
    pub(crate) layout: SuiteLayout,
    pub(crate) states: Vec<ExpState>,
    /// `(experiment index, local cell)` pairs still to compute.
    pub(crate) pending: Vec<(usize, usize)>,
    pub(crate) results: Vec<OnceLock<Vec<String>>>,
}

impl SuitePlan {
    /// Resolves stores, manifests, and resumable cells for `exps`.
    ///
    /// With `resume`, a manifest whose fingerprint matches adopts every
    /// committed cell — **including row files the manifest does not
    /// list yet**. The cell row files are the crash-recovery log: each
    /// is committed by atomic rename *before* its manifest update, so a
    /// crash between the two leaves a valid row the manifest merely
    /// lags behind on. Rows always round-trip through their on-disk
    /// encoding, so adopted cells merge the same bytes a fresh run
    /// would. A fingerprint mismatch still invalidates the whole store.
    pub(crate) fn build(
        exps: &[&dyn Experiment],
        opts: &ExpOptions,
        resume: bool,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&opts.out_dir)?;
        let layout = SuiteLayout::build(exps, opts);
        let results: Vec<OnceLock<Vec<String>>> =
            (0..layout.total).map(|_| OnceLock::new()).collect();
        let mut states: Vec<ExpState> = Vec::with_capacity(exps.len());
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (ei, exp) in exps.iter().enumerate() {
            let name = exp.name();
            let num_cells = exp.num_cells();
            let offset = layout.offsets[ei];
            let fingerprint = exp_fingerprint(*exp, opts);
            let store = CellStore::open(&opts.out_dir, &name)?;
            let mut manifest = Manifest::new(&name, &fingerprint, num_cells);
            if resume {
                if let Some(prev) = Manifest::load(&store.manifest_path()) {
                    if prev.fingerprint == fingerprint && prev.num_cells == num_cells {
                        // Adopt every cell whose rows reload, whether
                        // the manifest lists it or only its row file
                        // landed (crash between row commit and
                        // manifest update).
                        for cell in 0..num_cells {
                            if let Some(rows) = store.read_cell(cell) {
                                // ba-lint: allow(panic-path) -- slots were allocated fresh above and this loop visits each cell once; a double set is a logic bug worth crashing on
                                results[offset + cell].set(rows).expect("fresh slot");
                                manifest.completed.insert(cell);
                            }
                        }
                        eprintln!(
                            "[runner] {name}: resuming {} of {num_cells} cells from manifest",
                            manifest.completed.len()
                        );
                    } else {
                        eprintln!("[runner] {name}: manifest fingerprint mismatch; starting fresh");
                    }
                }
            }
            if manifest.completed.is_empty() {
                store.clear()?;
            }
            manifest.save(&store.manifest_path())?;
            for cell in 0..num_cells {
                if !manifest.completed.contains(&cell) {
                    pending.push((ei, cell));
                }
            }
            states.push(ExpState {
                store,
                manifest: Mutex::new(manifest),
                offset,
                num_cells,
                failed: std::sync::atomic::AtomicBool::new(false),
            });
        }
        Ok(Self {
            layout,
            states,
            pending,
            results,
        })
    }

    /// Commits one computed cell: row file (atomic rename), manifest
    /// update, and the in-memory merge slot. Safe from any thread.
    pub(crate) fn commit(&self, ei: usize, cell: usize, rows: Vec<String>) -> std::io::Result<()> {
        let state = &self.states[ei];
        state.store.write_cell(cell, &rows)?;
        {
            // ba-lint: allow(panic-path) -- a poisoned manifest lock means another worker already panicked mid-commit; propagating that panic is the correct escalation
            let mut m = state.manifest.lock().expect("manifest lock");
            m.completed.insert(cell);
            m.save(&state.store.manifest_path())?;
        }
        self.results[state.offset + cell]
            .set(rows)
            // ba-lint: allow(panic-path) -- the pending list is deduplicated and resume-adopted cells are never pending, so a second set is a logic bug worth crashing on
            .expect("cell slot set twice");
        Ok(())
    }

    /// Records a failed cell: the experiment is marked failed (skipped
    /// at finalize, committed cells kept for `--resume`) and the slot
    /// is filled so the other experiments can still merge.
    pub(crate) fn mark_failed(&self, ei: usize, cell: usize) {
        let state = &self.states[ei];
        state.failed.store(true, Ordering::Relaxed);
        self.results[state.offset + cell].set(Vec::new()).ok();
    }

    /// Ordered merge: every non-failed experiment sees its cells
    /// `0..n` in index order regardless of completion order, cache
    /// hits, or which worker (thread or remote process) computed them.
    /// Failed experiments have their stale artifacts deleted instead.
    /// Returns the names of the failed experiments; `Err` on artifact
    /// IO or record-decode failures inside a finalize.
    pub(crate) fn merge_and_finalize(
        &self,
        exps: &[&dyn Experiment],
        opts: &ExpOptions,
    ) -> Result<Vec<String>, BenchError> {
        let mut failed = Vec::new();
        for (ei, exp) in exps.iter().enumerate() {
            let state = &self.states[ei];
            if state.failed.load(Ordering::Relaxed) {
                // Drop any stale artifact a previous run left behind so
                // a failed experiment never ships old data.
                for artifact in exp.artifacts() {
                    let _ = std::fs::remove_file(opts.out_dir.join(artifact));
                }
                eprintln!(
                    "warning: [{}] skipped finalize after a cell failure; \
                     re-run with --resume to retry only the failed cells",
                    exp.name()
                );
                failed.push(exp.name());
                continue;
            }
            let rows: Vec<Vec<String>> = (0..state.num_cells)
                .map(|c| {
                    self.results[state.offset + c]
                        .get()
                        // ba-lint: allow(panic-path) -- by the time the worker scope has joined, every pending cell has either committed or marked its experiment failed; an empty slot is a logic bug worth crashing on
                        .expect("all cells resolved")
                        .clone()
                })
                .collect();
            exp.finalize(opts, &rows)?;
        }
        Ok(failed)
    }
}

/// The invariant part of a worker's cell executions: which experiment,
/// under which seed and thread budget, against which substrates.
pub(crate) struct CellEnv<'p, 'w> {
    pub(crate) exp: &'w dyn Experiment,
    pub(crate) exp_name: &'w str,
    pub(crate) base_seed: u64,
    pub(crate) inner_threads: usize,
    pub(crate) pool: &'p SubstratePool,
    pub(crate) ds_map: &'w [usize],
}

/// Runs one cell under a panic guard. On panic the cell's session is
/// evicted from the worker cache (only it can be mid-edit) and the
/// panic payload is returned as the error message.
pub(crate) fn run_cell_guarded<'p>(
    env: &CellEnv<'p, '_>,
    cell: usize,
    sessions: &mut SessionCache<'p>,
) -> Result<Vec<String>, String> {
    let outcome = {
        let mut ctx = CellCtx {
            exp_name: env.exp_name,
            cell,
            base_seed: env.base_seed,
            inner_threads: env.inner_threads,
            pool: env.pool,
            ds_map: env.ds_map,
            sessions: &mut *sessions,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            env.exp.run_cell(cell, &mut ctx)
        }))
    };
    outcome.map_err(|payload| {
        sessions.map.remove(&env.ds_map[env.exp.cell_dataset(cell)]);
        if let Some(msg) = payload.downcast_ref::<&str>() {
            (*msg).to_string()
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            msg.clone()
        } else {
            "cell panicked".to_string()
        }
    })
}

/// The work-distributing, artifact-writing runner. See the module docs
/// for the determinism contract.
pub struct ExperimentRunner {
    /// Resolved worker count (≥ 1).
    pub threads: usize,
    /// Whether to reuse committed cells from a previous interrupted run.
    pub resume: bool,
    /// Base seed (threaded into every derived stream).
    pub base_seed: u64,
}

impl ExperimentRunner {
    /// Builds a runner from parsed experiment options.
    pub fn new(opts: &ExpOptions) -> Self {
        let threads = if opts.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            opts.threads
        };
        Self {
            threads,
            resume: opts.resume,
            base_seed: opts.seed,
        }
    }

    /// Runs a single experiment end to end.
    pub fn run(&self, exp: &dyn Experiment, opts: &ExpOptions) -> Result<(), BenchError> {
        self.run_suite(&[exp], opts)
    }

    /// Runs several experiments as one pooled cell grid: substrates are
    /// deduplicated across experiments and all cells share the worker
    /// pool, then each experiment finalizes in order. Fails on artifact
    /// IO errors; a *cell* failure skips only that experiment's finalize
    /// (see `SuitePlan::mark_failed`) and is reported as
    /// [`BenchError::Failed`] once the healthy experiments finalized.
    pub fn run_suite(&self, exps: &[&dyn Experiment], opts: &ExpOptions) -> Result<(), BenchError> {
        let t0 = Instant::now();
        let plan = SuitePlan::build(exps, opts, self.resume)?;

        // The pool: workers claim cells off a shared queue. Inner
        // (gradient/matmul) parallelism is folded to 1 thread whenever
        // the pool itself is parallel.
        let workers = self.threads.min(plan.pending.len()).max(1);
        let inner_threads = if workers > 1 { 1 } else { 0 };
        let cached = plan.layout.total - plan.pending.len();
        eprintln!(
            "[runner] {} cell(s) across {} experiment(s): {} to run, {} cached, {} worker(s)",
            plan.layout.total,
            exps.len(),
            plan.pending.len(),
            cached,
            workers
        );
        // Substrates are only needed by live cells: build exactly the
        // ones pending cells declare via cell_dataset. A fully-cached
        // resume therefore skips dataset building entirely. Builds are
        // independent and seeded, so a parallel pool overlaps them
        // instead of idling the workers through a serial prefix.
        let pool = SubstratePool::new(plan.layout.specs.clone(), self.base_seed);
        let mut needed = vec![false; pool.specs().len()];
        for &(ei, cell) in &plan.pending {
            needed[plan.layout.maps[ei][exps[ei].cell_dataset(cell)]] = true;
        }
        if needed.iter().any(|&n| n) {
            eprintln!(
                "[runner] preparing {} of {} dataset substrate(s) (seed {})",
                needed.iter().filter(|&&n| n).count(),
                pool.specs().len(),
                self.base_seed
            );
        }
        pool.build_eager(&needed, workers > 1);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut sessions = SessionCache::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(ei, cell)) = plan.pending.get(k) else {
                            break;
                        };
                        let exp = exps[ei];
                        let name = exp.name();
                        let cell_t0 = Instant::now();
                        // A panicking cell fails its *experiment*, not
                        // the suite: the slot is filled so the merge
                        // can proceed for the other experiments, and
                        // this experiment is skipped at finalize. Its
                        // committed cells stay on disk for --resume.
                        let env = CellEnv {
                            exp,
                            exp_name: &name,
                            base_seed: self.base_seed,
                            inner_threads,
                            pool: &pool,
                            ds_map: &plan.layout.maps[ei],
                        };
                        match run_cell_guarded(&env, cell, &mut sessions) {
                            // A commit failure is an unwritable artifact
                            // store: fail the experiment (like a cell
                            // panic) instead of panicking the worker, so
                            // the other experiments still merge.
                            Ok(rows) => match plan.commit(ei, cell, rows) {
                                Ok(()) => {
                                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                                    eprintln!(
                                        "[{name} {finished}/{}] {} ({:.1}s)",
                                        plan.pending.len(),
                                        exp.cell_label(cell),
                                        cell_t0.elapsed().as_secs_f64()
                                    );
                                }
                                Err(e) => {
                                    plan.mark_failed(ei, cell);
                                    eprintln!(
                                        "warning: [{name}] cell {} commit failed ({e}); \
                                         {name} will not finalize",
                                        exp.cell_label(cell)
                                    );
                                }
                            },
                            Err(_) => {
                                plan.mark_failed(ei, cell);
                                eprintln!(
                                    "warning: [{name}] cell {} panicked; {name} will not finalize",
                                    exp.cell_label(cell)
                                );
                            }
                        }
                    }
                });
            }
        });

        let failed = plan.merge_and_finalize(exps, opts)?;
        eprintln!(
            "[runner] {} cell(s) ({} cached) in {:.1}s on {} worker thread(s)",
            plan.layout.total,
            cached,
            t0.elapsed().as_secs_f64(),
            workers
        );
        if failed.is_empty() {
            Ok(())
        } else {
            Err(BenchError::Failed(failed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_sensitive() {
        let a = derive_seed("fig4", &[0, 7]);
        assert_eq!(a, derive_seed("fig4", &[0, 7]));
        assert_ne!(a, derive_seed("fig4", &[1, 7]));
        assert_ne!(a, derive_seed("fig4", &[0, 8]));
        assert_ne!(a, derive_seed("fig5", &[0, 7]));
    }

    #[test]
    fn dataset_specs_dedup_by_value() {
        let a = DatasetSpec::full(Dataset::Wikivote);
        let b = DatasetSpec::full(Dataset::Wikivote);
        let c = DatasetSpec::half(Dataset::Wikivote);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[derive(Debug)]
    struct Flagged {
        name: &'static str,
        panic_on: Option<usize>,
        finalized: std::sync::atomic::AtomicBool,
    }

    impl Experiment for Flagged {
        fn name(&self) -> String {
            self.name.to_string()
        }
        fn artifacts(&self) -> Vec<String> {
            vec![format!("{}.csv", self.name)]
        }
        fn datasets(&self) -> Vec<DatasetSpec> {
            vec![DatasetSpec::scaled(Dataset::Er, 40, 90)]
        }
        fn num_cells(&self) -> usize {
            2
        }
        fn cell_label(&self, cell: usize) -> String {
            format!("cell{cell}")
        }
        fn run_cell(&self, cell: usize, _ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
            if self.panic_on == Some(cell) {
                panic!("deliberate test panic");
            }
            vec![format!("{}:{cell}", self.name)]
        }
        fn finalize(&self, _opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
            assert_eq!(cells.len(), 2);
            self.finalized
                .store(true, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
    }

    /// A panicking cell fails only its own experiment: the rest of the
    /// suite still finalizes, then the run reports the failure.
    #[test]
    fn cell_panic_is_isolated_per_experiment() {
        let dir = std::env::temp_dir().join("ba_runner_panic_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExpOptions {
            out_dir: dir.clone(),
            threads: 2,
            ..ExpOptions::default()
        };
        let bad = Flagged {
            name: "panicky",
            panic_on: Some(1),
            finalized: std::sync::atomic::AtomicBool::new(false),
        };
        let good = Flagged {
            name: "healthy",
            panic_on: None,
            finalized: std::sync::atomic::AtomicBool::new(false),
        };
        // A stale artifact from an earlier run must not survive a
        // failed re-run.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("panicky.csv"), "stale,data\n").unwrap();
        let err = ExperimentRunner::new(&opts)
            .run_suite(&[&bad, &good], &opts)
            .unwrap_err();
        assert!(
            matches!(&err, BenchError::Failed(names) if names == &["panicky"]),
            "{err}"
        );
        assert!(!bad.finalized.load(std::sync::atomic::Ordering::Relaxed));
        assert!(good.finalized.load(std::sync::atomic::Ordering::Relaxed));
        assert!(
            !dir.join("panicky.csv").exists(),
            "stale artifact of the failed experiment survived"
        );
        // The bad experiment's good cell stays committed for --resume.
        let store = CellStore::open(&dir, "panicky").unwrap();
        assert_eq!(store.read_cell(0).unwrap(), vec!["panicky:0"]);
        assert_eq!(store.read_cell(1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepared_dataset_substrate_is_consistent() {
        let spec = DatasetSpec::scaled(Dataset::Er, 120, 500);
        let p = PreparedDataset::build(spec, 11);
        assert_eq!(p.graph.num_nodes(), 120);
        assert_eq!(ba_graph::GraphView::num_edges(&p.csr), p.graph.num_edges());
        // Model was fitted on the same substrate.
        assert_eq!(p.model.scores().len(), 120);
    }
}
