//! Integration tests for the tracker/peer orchestration, all on
//! localhost with in-process trackers and peers:
//!
//! * fleet byte-identity — 1- and 3-peer fleets (the latter with a
//!   connection severed mid-frame) merge CSV and cell record files
//!   byte-identical to the single-machine `--threads 1` runner;
//! * a scripted peer drives the protocol by hand through the stale /
//!   duplicate / heartbeat edges the honest [`run_peer`] never hits;
//! * tracker restart from a half-written manifest adopts every row
//!   file from the crash-recovery log and merges the same bytes,
//!   while a fingerprint mismatch invalidates the store;
//! * a peer with a mismatched fingerprint is rejected at Hello.

use ba_bench::distrib::{
    decode_tracker, encode_peer, run_peer, CompleteOutcome, PeerConfig, PeerError, PeerMsg,
    Tracker, TrackerConfig, TrackerMsg, TrackerReport,
};
use ba_bench::experiments::Fig4Experiment;
use ba_bench::runner::{
    derive_seed, CellCtx, DatasetSpec, Experiment, ExperimentRunner, SuiteLayout,
};
use ba_bench::{BenchError, ExpOptions};
use ba_datasets::Dataset;
use ba_net::frame::{read_frame, write_frame};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ba_distrib").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts_in(dir: &Path, seed: u64) -> ExpOptions {
    ExpOptions {
        paper: false,
        seed,
        samples: 2,
        out_dir: dir.to_path_buf(),
        threads: 1,
        resume: false,
    }
}

/// CSV plus all cell record files of one experiment, in index order.
fn artifact_bytes(dir: &Path, exp_name: &str, cells: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let csv = std::fs::read(dir.join(format!("{exp_name}.csv"))).expect("csv artifact");
    let rows = (0..cells)
        .map(|c| {
            std::fs::read(
                dir.join(".cells")
                    .join(exp_name)
                    .join(format!("cell_{c:04}.rows")),
            )
            .unwrap_or_else(|e| panic!("cell {c} missing: {e}"))
        })
        .collect();
    (csv, rows)
}

/// Serves `exp` to a fleet of `peers` in-process peers and returns the
/// tracker's report. With `sever`, a raw connection additionally
/// promises a 64-byte frame, sends half of it, and drops — the tracker
/// must shrug it off.
fn run_fleet(
    exp: &Fig4Experiment,
    dir: &Path,
    peers: usize,
    seed: u64,
    sever: bool,
) -> TrackerReport {
    let opts = opts_in(dir, seed);
    let tracker = Tracker::bind("127.0.0.1:0").expect("bind tracker");
    let addr = tracker.local_addr();
    let cfg = TrackerConfig::default();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let refs: Vec<&dyn Experiment> = vec![exp];
            tracker.serve(&refs, &opts, &cfg).expect("tracker serve")
        });
        if sever {
            let mut raw = TcpStream::connect(addr).expect("raw connect");
            raw.write_all(&64u64.to_le_bytes()).unwrap();
            raw.write_all(b"only half a frame").unwrap();
            drop(raw);
        }
        let workers: Vec<_> = (0..peers)
            .map(|k| {
                let opts = opts_in(dir, seed);
                s.spawn(move || {
                    let refs: Vec<&dyn Experiment> = vec![exp];
                    let cfg = PeerConfig::new(&addr.to_string(), &format!("p{k}"));
                    run_peer(&refs, &opts, &cfg).expect("peer run")
                })
            })
            .collect();
        let computed: u64 = workers
            .into_iter()
            .map(|w| w.join().unwrap().computed)
            .sum();
        let report = server.join().unwrap();
        assert_eq!(computed, report.computed, "tracker and peers disagree");
        report
    })
}

#[test]
fn fleet_merges_byte_identical_to_single_thread_runner() {
    let name = "dfleet";
    let exp = Fig4Experiment::tiny(name);
    let cells = exp.panels.len() * exp.methods.len() * exp.samples;

    let ref_dir = fresh_dir("fleet_ref");
    let opts = opts_in(&ref_dir, 42);
    ExperimentRunner::new(&opts)
        .run(&exp, &opts)
        .expect("runner");
    let reference = artifact_bytes(&ref_dir, name, cells);
    assert!(!reference.0.is_empty());

    for (peers, sever) in [(1usize, false), (3, true)] {
        let dir = fresh_dir(&format!("fleet_{peers}"));
        let report = run_fleet(&exp, &dir, peers, 42, sever);
        assert!(report.all_ok);
        assert_eq!(report.computed as usize, cells);
        assert_eq!(report.adopted, 0);
        let fleet = artifact_bytes(&dir, name, cells);
        assert_eq!(
            fleet.0, reference.0,
            "CSV differs between --threads 1 and a {peers}-peer fleet"
        );
        assert_eq!(
            fleet.1, reference.1,
            "cell record files differ between --threads 1 and a {peers}-peer fleet"
        );
    }
}

/// A trivially fast experiment for protocol-edge tests: each cell's
/// single row is a pure function of `(name, cell, seed)`, so a scripted
/// peer can fabricate byte-exact rows without a `CellCtx`.
#[derive(Debug)]
struct MiniExp {
    name: String,
    cells: usize,
}

impl MiniExp {
    fn row(&self, cell: usize, base_seed: u64) -> String {
        format!(
            "cell={cell} seed={:016x}",
            derive_seed(&self.name, &[cell as u64, base_seed])
        )
    }
}

impl Experiment for MiniExp {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn datasets(&self) -> Vec<DatasetSpec> {
        vec![DatasetSpec::scaled(Dataset::Er, 60, 120)]
    }
    fn num_cells(&self) -> usize {
        self.cells
    }
    fn cell_label(&self, cell: usize) -> String {
        format!("cell {cell}")
    }
    fn run_cell(&self, cell: usize, ctx: &mut CellCtx<'_, '_>) -> Vec<String> {
        assert!(ctx.graph(0).num_nodes() > 0, "substrate not built");
        vec![format!("cell={cell} seed={:016x}", ctx.cell_seed())]
    }
    fn artifacts(&self) -> Vec<String> {
        vec![format!("{}.csv", self.name)]
    }
    fn finalize(&self, opts: &ExpOptions, cells: &[Vec<String>]) -> Result<(), BenchError> {
        let rows: Vec<String> = cells
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.iter().map(move |r| format!("{i},{r}")))
            .collect();
        opts.write_csv(&format!("{}.csv", self.name), "cell,record", &rows)?;
        Ok(())
    }
}

/// One frame out, one frame back.
fn exchange(stream: &mut TcpStream, msg: &PeerMsg) -> TrackerMsg {
    write_frame(stream, &encode_peer(msg)).expect("send frame");
    let payload = read_frame(stream)
        .expect("read frame")
        .expect("tracker closed early");
    decode_tracker(&payload).expect("decode reply")
}

#[test]
fn scripted_peer_exercises_stale_duplicate_and_heartbeat() {
    let exp = MiniExp {
        name: "dscript".to_string(),
        cells: 3,
    };
    let dir = fresh_dir("script");
    let opts = opts_in(&dir, 7);

    // Reference bytes from the in-process runner, in a separate dir.
    let ref_dir = fresh_dir("script_ref");
    let ref_opts = opts_in(&ref_dir, 7);
    ExperimentRunner::new(&ref_opts)
        .run(&exp, &ref_opts)
        .expect("runner");
    let ref_csv = std::fs::read(ref_dir.join("dscript.csv")).unwrap();

    let refs: Vec<&dyn Experiment> = vec![&exp];
    let fingerprint = SuiteLayout::build(&refs, &opts).fingerprint;
    let tracker = Tracker::bind("127.0.0.1:0").unwrap();
    let addr = tracker.local_addr();
    // Short leases so the script can outlive one without a long sleep.
    let cfg = TrackerConfig {
        lease_ms: 150,
        ..TrackerConfig::default()
    };

    let report = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let refs: Vec<&dyn Experiment> = vec![&exp];
            tracker.serve(&refs, &opts, &cfg).expect("tracker serve")
        });

        let mut c = TcpStream::connect(addr).expect("connect");
        let hello = PeerMsg::Hello {
            name: "scripted".to_string(),
            fingerprint: fingerprint.clone(),
        };
        assert!(matches!(
            exchange(&mut c, &hello),
            TrackerMsg::Welcome { .. }
        ));

        // Claim cell 0, then sit past the lease deadline. A heartbeat
        // gets no reply, so the next exchange must stay aligned.
        let TrackerMsg::Lease { cell, epoch } = exchange(&mut c, &PeerMsg::Claim) else {
            panic!("expected first lease");
        };
        assert_eq!((cell, epoch), (0, 1));
        write_frame(&mut c, &encode_peer(&PeerMsg::Heartbeat { cell, epoch })).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(600));

        // The expired cell re-leases (to us — we are the only worker)
        // with a bumped epoch; the superseded epoch is now Stale.
        let TrackerMsg::Lease {
            cell: re_cell,
            epoch: re_epoch,
        } = exchange(&mut c, &PeerMsg::Claim)
        else {
            panic!("expected re-lease of the expired cell");
        };
        assert_eq!((re_cell, re_epoch), (0, 2));
        let rows = vec![exp.row(0, opts.seed)];
        let stale = PeerMsg::Complete {
            cell: 0,
            epoch: 1,
            rows: rows.clone(),
        };
        assert!(matches!(
            exchange(&mut c, &stale),
            TrackerMsg::Ack {
                status: CompleteOutcome::Stale
            }
        ));
        let good = PeerMsg::Complete {
            cell: 0,
            epoch: 2,
            rows: rows.clone(),
        };
        assert!(matches!(
            exchange(&mut c, &good),
            TrackerMsg::Ack {
                status: CompleteOutcome::Accepted
            }
        ));
        // Redelivered verbatim: acknowledged as Duplicate, not merged
        // twice.
        assert!(matches!(
            exchange(&mut c, &good),
            TrackerMsg::Ack {
                status: CompleteOutcome::Duplicate
            }
        ));

        // Finish the rest honestly.
        loop {
            match exchange(&mut c, &PeerMsg::Claim) {
                TrackerMsg::Lease { cell, epoch } => {
                    let msg = PeerMsg::Complete {
                        cell,
                        epoch,
                        rows: vec![exp.row(cell as usize, opts.seed)],
                    };
                    assert!(matches!(
                        exchange(&mut c, &msg),
                        TrackerMsg::Ack {
                            status: CompleteOutcome::Accepted
                        }
                    ));
                }
                TrackerMsg::Wait { poll_ms } => {
                    std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
                }
                TrackerMsg::Done => break,
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        drop(c);
        server.join().unwrap()
    });

    assert!(report.all_ok);
    assert_eq!(report.duplicates, 1);
    assert_eq!(report.stales, 1);
    assert!(report.expirations >= 1);
    let fleet_csv = std::fs::read(dir.join("dscript.csv")).unwrap();
    assert_eq!(
        fleet_csv, ref_csv,
        "scripted fleet CSV differs from the in-process runner"
    );
}

#[test]
fn tracker_restart_adopts_crash_log_rows_and_rejects_mismatch() {
    let exp = MiniExp {
        name: "dresume".to_string(),
        cells: 6,
    };
    let dir = fresh_dir("resume");

    // Complete run as the reference.
    let mini_fleet = |dir: &Path, seed: u64, resume: bool| {
        let mut opts = opts_in(dir, seed);
        opts.resume = resume;
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let addr = tracker.local_addr();
        let cfg = TrackerConfig::default();
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                let refs: Vec<&dyn Experiment> = vec![&exp];
                tracker.serve(&refs, &opts, &cfg).expect("tracker serve")
            });
            let opts = {
                let mut o = opts_in(dir, seed);
                o.resume = resume;
                o
            };
            let refs: Vec<&dyn Experiment> = vec![&exp];
            run_peer(&refs, &opts, &PeerConfig::new(&addr.to_string(), "solo")).expect("peer");
            server.join().unwrap()
        })
    };
    let first = mini_fleet(&dir, 11, false);
    assert_eq!((first.adopted, first.computed), (0, 6));
    let ref_csv = std::fs::read(dir.join("dresume.csv")).unwrap();

    // Crash simulation: the manifest lags the row files (rows commit by
    // atomic rename *before* the manifest update). Keep every row file
    // but rewind the manifest to two entries and delete the CSV.
    let store_dir = dir.join(".cells").join("dresume");
    let manifest_path = store_dir.join("manifest.json");
    let mut manifest = ba_bench::artifact::Manifest::load(&manifest_path).expect("manifest");
    assert_eq!(manifest.completed.len(), 6);
    manifest.completed = manifest.completed.iter().copied().take(2).collect();
    manifest.save(&manifest_path).unwrap();
    std::fs::remove_file(dir.join("dresume.csv")).unwrap();

    // Restart with --resume: every row file is adopted from the crash
    // log — nothing recomputes — and the merge is byte-identical.
    let second = mini_fleet(&dir, 11, true);
    assert_eq!(
        (second.adopted, second.computed),
        (6, 0),
        "row files present on disk must be adopted, not recomputed"
    );
    assert_eq!(std::fs::read(dir.join("dresume.csv")).unwrap(), ref_csv);

    // A different seed changes the fingerprint: the store is invalid,
    // everything recomputes, and the artifact legitimately differs.
    let third = mini_fleet(&dir, 12, true);
    assert_eq!((third.adopted, third.computed), (0, 6));
    assert_ne!(std::fs::read(dir.join("dresume.csv")).unwrap(), ref_csv);
}

#[test]
fn mismatched_fingerprint_peer_is_rejected_at_hello() {
    let exp = MiniExp {
        name: "dreject".to_string(),
        cells: 2,
    };
    let dir = fresh_dir("reject");
    let opts = opts_in(&dir, 5);
    let tracker = Tracker::bind("127.0.0.1:0").unwrap();
    let addr = tracker.local_addr();
    let cfg = TrackerConfig::default();

    let report = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let refs: Vec<&dyn Experiment> = vec![&exp];
            tracker.serve(&refs, &opts, &cfg).expect("tracker serve")
        });

        // Wrong seed → wrong suite fingerprint → rejected at Hello.
        let refs: Vec<&dyn Experiment> = vec![&exp];
        let wrong = opts_in(&dir, 6);
        match run_peer(
            &refs,
            &wrong,
            &PeerConfig::new(&addr.to_string(), "impostor"),
        ) {
            Err(PeerError::Rejected(reason)) => {
                assert!(reason.contains("fingerprint"), "unhelpful reason: {reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        // A matching peer still completes the suite afterwards.
        let right = opts_in(&dir, 5);
        run_peer(&refs, &right, &PeerConfig::new(&addr.to_string(), "honest")).expect("peer");
        server.join().unwrap()
    });
    assert!(report.all_ok);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.computed, 2);
}
