//! The orchestrator's determinism contract (tier-1):
//!
//! 1. A fig4-style grid experiment produces **byte-identical** CSV
//!    artifacts and per-cell record files at `--threads 1`, `4`, and
//!    `8` — results are merged in cell-index order and every RNG stream
//!    derives from `(experiment, cell index, base seed)`, never from
//!    scheduling.
//! 2. Resuming from a half-completed manifest yields the same artifact
//!    bytes as a fresh run.
//!
//! The ported report experiments (`table1`, `fig2`) pin both, over every
//! CSV they write.
//!
//! Plus the streaming engine's mirror of the same contract (tier-1):
//!
//! 3. Killing the stream at a batch boundary and resuming from the
//!    snapshot continues with byte-identical output.

use ba_bench::artifact::Manifest;
use ba_bench::distrib::suite_by_name;
use ba_bench::experiments::Fig4Experiment;
use ba_bench::runner::{Experiment, ExperimentRunner};
use ba_bench::ExpOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seconds-scale fig4 instance shared with the distributed tests
/// and the CI smoke (`Fig4Experiment::tiny`): two tiny panels, all
/// three methods, two target samples — 12 cells.
fn tiny_fig4(name: &str) -> Fig4Experiment {
    Fig4Experiment::tiny(name)
}

fn opts_for(dir: &Path, threads: usize, resume: bool) -> ExpOptions {
    ExpOptions {
        paper: false,
        seed: 42,
        samples: 2,
        out_dir: dir.to_path_buf(),
        threads,
        resume,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ba_determinism").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(exp_name: &str, dir: &Path, threads: usize, resume: bool) -> Vec<u8> {
    let exp = tiny_fig4(exp_name);
    let opts = opts_for(dir, threads, resume);
    ExperimentRunner::new(&opts)
        .run(&exp, &opts)
        .expect("runner");
    std::fs::read(dir.join(format!("{exp_name}.csv"))).unwrap()
}

/// All committed cell record files of an experiment, in index order.
fn cell_files(dir: &Path, exp_name: &str) -> Vec<Vec<u8>> {
    let exp = tiny_fig4(exp_name);
    let cells = exp.panels.len() * exp.methods.len() * exp.samples;
    (0..cells)
        .map(|c| {
            std::fs::read(
                dir.join(".cells")
                    .join(exp_name)
                    .join(format!("cell_{c:04}.rows")),
            )
            .unwrap_or_else(|e| panic!("cell {c} missing: {e}"))
        })
        .collect()
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let name = "det_fig4";
    let mut runs = Vec::new();
    for threads in [1usize, 4, 8] {
        let dir = fresh_dir(&format!("threads{threads}"));
        let csv = run(name, &dir, threads, false);
        let cells = cell_files(&dir, name);
        runs.push((threads, csv, cells));
    }
    let (_, ref_csv, ref_cells) = &runs[0];
    assert!(!ref_csv.is_empty());
    // The mean τ curves reach the CSV: sanity that we are not comparing
    // empty artifacts.
    let text = String::from_utf8(ref_csv.clone()).unwrap();
    assert!(text.starts_with("panel,budget,edges_pct,tau_binarized,tau_gradmax,tau_continuousA"));
    assert!(text.lines().count() > 10);
    for (threads, csv, cells) in &runs[1..] {
        assert_eq!(
            csv, ref_csv,
            "CSV bytes differ between --threads 1 and --threads {threads}"
        );
        assert_eq!(
            cells, ref_cells,
            "cell record files (tau curves) differ between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn resume_from_half_completed_manifest_matches_fresh_run() {
    let name = "det_resume";
    // Reference: one fresh run.
    let ref_dir = fresh_dir("resume_reference");
    let ref_csv = run(name, &ref_dir, 2, false);

    // Interrupted run: complete everything, then roll the store back to
    // a half-finished state (as if the process died mid-grid).
    let dir = fresh_dir("resume_interrupted");
    run(name, &dir, 2, false);
    let store_dir = dir.join(".cells").join(name);
    let manifest_path = store_dir.join("manifest.json");
    let mut manifest = Manifest::load(&manifest_path).expect("manifest exists");
    let total = manifest.num_cells;
    assert_eq!(manifest.completed.len(), total);
    let keep: Vec<usize> = manifest.completed.iter().copied().take(total / 2).collect();
    manifest.completed = keep.iter().copied().collect();
    manifest.save(&manifest_path).unwrap();
    for c in total / 2..total {
        std::fs::remove_file(store_dir.join(format!("cell_{c:04}.rows"))).unwrap();
    }
    std::fs::remove_file(dir.join(format!("{name}.csv"))).unwrap();

    // Resume with a different thread count; artifact must match the
    // fresh run byte for byte.
    let resumed_csv = run(name, &dir, 4, true);
    assert_eq!(
        resumed_csv, ref_csv,
        "resumed artifact differs from fresh run"
    );
    let manifest = Manifest::load(&manifest_path).unwrap();
    assert_eq!(manifest.completed.len(), total, "manifest not completed");

    // A fingerprint mismatch (different seed) must invalidate the store
    // instead of resuming stale cells.
    let mut opts = opts_for(&dir, 2, true);
    opts.seed = 43;
    let exp = tiny_fig4(name);
    ExperimentRunner::new(&opts)
        .run(&exp, &opts)
        .expect("runner");
    let other_csv = std::fs::read(dir.join(format!("{name}.csv"))).unwrap();
    assert_ne!(
        other_csv, ref_csv,
        "different seed reused stale cells from the old manifest"
    );
}

/// Runs the `table1` and `fig2` experiments as one suite and returns
/// every CSV in `dir` by name.
fn run_reports(dir: &Path, threads: usize, resume: bool) -> BTreeMap<String, Vec<u8>> {
    let opts = opts_for(dir, threads, resume);
    let suite: Vec<Box<dyn Experiment>> = ["table1", "fig2"]
        .iter()
        .flat_map(|name| suite_by_name(name, &opts).expect("registered"))
        .collect();
    let refs: Vec<&dyn Experiment> = suite.iter().map(|e| e.as_ref()).collect();
    ExperimentRunner::new(&opts)
        .run_suite(&refs, &opts)
        .expect("runner");
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn report_experiments_are_byte_identical_across_threads_and_resume() {
    let reference = run_reports(&fresh_dir("reports_threads1"), 1, false);
    assert_eq!(reference.len(), 6, "table1.csv plus five fig2 scatters");
    assert!(reference["table1.csv"].starts_with(b"dataset,nodes,edges"));
    assert_eq!(
        run_reports(&fresh_dir("reports_threads3"), 3, false),
        reference,
        "CSV bytes differ between --threads 1 and --threads 3"
    );

    // Roll both stores back to half-finished and delete the CSVs, as if
    // the process died mid-suite, then resume.
    let dir = fresh_dir("reports_resume");
    run_reports(&dir, 3, false);
    for exp in ["table1", "fig2"] {
        let store = dir.join(".cells").join(exp);
        let manifest_path = store.join("manifest.json");
        let mut manifest = Manifest::load(&manifest_path).expect("manifest exists");
        let total = manifest.num_cells;
        manifest.completed = (0..total / 2).collect();
        manifest.save(&manifest_path).unwrap();
        for c in total / 2..total {
            std::fs::remove_file(store.join(format!("cell_{c:04}.rows"))).unwrap();
        }
    }
    for name in reference.keys() {
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    assert_eq!(
        run_reports(&dir, 3, true),
        reference,
        "resumed CSVs differ from the fresh run"
    );
}

mod stream {
    use ba_stream::{synthetic_stream, StreamConfig, StreamEngine, StreamEvent};
    use binarized_attack::graph::generators;

    /// The deterministic record the CLI prints per batch, rebuilt here
    /// at the engine level so resume is asserted on formatted bytes,
    /// not just on structured summaries.
    fn run_formatted(snapshot_cut: Option<(usize, &std::path::Path)>) -> String {
        let g = generators::erdos_renyi(400, 0.02, 21);
        let events = synthetic_stream(&g, 500, 33);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        format_batches(&mut engine, events.chunks(50), snapshot_cut)
    }

    fn format_batches<'a>(
        engine: &mut StreamEngine,
        batches: impl Iterator<Item = &'a [StreamEvent]>,
        snapshot_cut: Option<(usize, &std::path::Path)>,
    ) -> String {
        let mut out = String::new();
        for (i, batch) in batches.enumerate() {
            let s = engine.ingest_batch(batch);
            let fit = match &s.params {
                Ok(p) => format!(
                    "beta0={:016x} beta1={:016x}",
                    p.beta0.to_bits(),
                    p.beta1.to_bits()
                ),
                Err(e) => format!("degenerate({e})"),
            };
            out.push_str(&format!(
                "batch {}: events={} applied={} moved={} edges={} compacted={} {fit}\n",
                s.batch, s.events, s.applied, s.dirty_rows, s.edges, s.compacted
            ));
            for (node, score) in engine.top_k(5).into_iter().flatten() {
                out.push_str(&format!("  {node} {:016x}\n", score.to_bits()));
            }
            if let Some((cut, path)) = snapshot_cut {
                if i == cut {
                    // The cut falls after compactions of both kinds:
                    // at least one re-laid out the base and at least
                    // one folded into its slack.
                    let (folds, relayouts) = (engine.compactions(), engine.relayouts());
                    assert!(
                        relayouts >= 1 && folds > relayouts,
                        "{folds} compactions, {relayouts} re-layouts before the cut"
                    );
                    engine.save_snapshot(path).expect("save snapshot");
                }
            }
        }
        out
    }

    #[test]
    fn stream_resumes_byte_identically_after_snapshot() {
        let dir = std::env::temp_dir().join("ba_determinism_stream");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.snapshot");
        let cut = 4usize; // snapshot after the 5th of 10 batches
        let reference = run_formatted(Some((cut, &path)));
        assert!(reference.lines().count() > 50, "suspiciously short output");

        // "Killed" process: a fresh engine restored from the snapshot
        // replays only the remaining batches, over a base rebuilt packed
        // and so re-laid out at other points than the live one's.
        let g = generators::erdos_renyi(400, 0.02, 21);
        let events = synthetic_stream(&g, 500, 33);
        let mut resumed = StreamEngine::restore_snapshot(&path).expect("restore snapshot");
        assert_eq!(resumed.batches_ingested(), cut as u64 + 1);
        let tail = format_batches(&mut resumed, events.chunks(50).skip(cut + 1), None);
        assert!(
            resumed.relayouts() >= 1,
            "the packed base never re-laid out"
        );
        assert!(
            reference.ends_with(&tail),
            "resumed output is not a byte-identical suffix of the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
