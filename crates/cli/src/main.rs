//! `binattack` — command-line interface to the BinarizedAttack library.
//!
//! Subcommands:
//!
//! * `generate` — build a synthetic dataset and save it as an edge list
//! * `gen-large` — stream a million-node-scale graph straight into a
//!   chunked on-disk CSR store (never materialises an edge list)
//! * `score` — run OddBall on an edge list and print the top anomalies
//! * `attack` — poison an edge list so given targets evade OddBall
//! * `transfer` — run the GAL/ReFeX transfer-attack pipeline end to end
//! * `gen-stream` — derive a synthetic edge-event stream from a graph
//! * `stream` — feed an event stream through the online scoring engine
//! * `serve` — run the epoch-snapshot anomaly-scoring TCP server
//! * `gen-requests` — derive a deterministic served-traffic request log
//! * `client` — replay a request log and print the response transcript
//! * `exp` — run a named experiment suite with the in-process runner
//! * `tracker` — coordinate a distributed suite run (optionally
//!   spawning a localhost peer fleet)
//! * `peer` — join a tracker as a cell-computing worker
//!
//! Run `binattack help` for usage. Argument parsing is hand-rolled (the
//! approved dependency set has no CLI parser; the grammar is small). A
//! usage error exits 2, as `gates` does; a run that fails exits 1.
//!
//! `stream` output on stdout is **deterministic**: a pure function of
//! the graph, the event file, and the batch size — never of a
//! snapshot/`--resume` cut. `client` transcripts are likewise pure
//! functions of (server graph, request log) — never of `--clients` —
//! and the CI serve-replay step diffs them across client counts.

use ba_bench::runner::{Experiment, ExperimentRunner};
use ba_bench::{ExpOptions, Flags};
use ba_core::{
    AttackConfig, AttackOutcome, BinarizedAttack, ContinuousA, EdgeOpKind, GradMaxSearch,
    RandomAttack, StructuralAttack,
};
use ba_datasets::Dataset;
use ba_graph::io::{load_edge_list, save_edge_list};
use ba_graph::{CsrGraph, DeltaOverlay, EditableGraph, Graph, NodeId};
use ba_oddball::{OddBall, Regressor};
use std::process::ExitCode;

const USAGE: &str = "\
binattack — structural poisoning attacks on graph anomaly detection

USAGE:
  binattack generate --dataset <er|ba|blogcatalog|wikivote|bitcoin-alpha>
                     --out <file> [--seed N]
  binattack gen-large --out <dir> [--model <ba|er>] [--nodes N]
                     [--m M | --p P] [--chunk-rows R] [--seed N]
  binattack score    --graph <file> [--top K] [--regressor <ols|huber|ransac>]
  binattack attack   --graph <file> --out <file> --budget B
                     [--targets a,b,c | --auto-targets K]
                     [--method <binarized|gradmax|continuous|random>]
                     [--ops <both|add|delete>] [--seed N] [--threads N]
                     [--no-memo]
  binattack transfer --graph <file> --budget B --system <gal|refex> [--seed N]
  binattack gen-stream --graph <file> --out <file> --events N [--seed N]
  binattack stream   --graph <file> --events <file> [--batch N]
                     [--top K] [--regressor <ols|huber|ransac>] [--seed N]
                     [--compact-frac F] [--snapshot <file>] [--resume]
  binattack serve    --graph <file> --addr HOST:PORT [--retain N]
                     [--regressor <ols|huber|ransac>] [--seed N]
  binattack gen-requests --graph <file> --out <file> [--batches B]
                     [--batch-size S] [--queries Q] [--topk K] [--seed N]
  binattack client   --addr HOST:PORT --requests <file> [--clients N]
  binattack exp      --exp NAME [--out DIR] [--seed N] [--samples N] [--paper]
                     [--threads N] [--resume]
  binattack tracker  --exp NAME --addr HOST:PORT [--peers N]
                     [--kill-peer NAME] [--lease-ms MS] [--out DIR]
                     [--seed N] [--samples N] [--paper] [--resume]
  binattack peer     --exp NAME --addr HOST:PORT [--name NAME]
                     [--seed N] [--samples N] [--paper]
  binattack help

EXIT STATUS: 0 on success, 1 when a run fails, 2 on a usage error
(no or unknown command, unknown flag, stray word, a value after a
boolean flag, a missing required flag or a malformed value).
";

/// The usage text, with the registered experiment names.
fn usage() -> String {
    let names = ba_bench::distrib::SUITE_NAMES.join(", ");
    format!("{USAGE}\nexperiment NAMEs (exp, tracker, peer): {names}\n")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let flags = Flags::parse(&args[1..]);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "gen-large" => cmd_gen_large(&flags),
        "score" => cmd_score(&flags),
        "attack" => cmd_attack(&flags),
        "transfer" => cmd_transfer(&flags),
        "gen-stream" => cmd_gen_stream(&flags),
        "stream" => cmd_stream(&flags),
        "serve" => cmd_serve(&flags),
        "gen-requests" => cmd_gen_requests(&flags),
        "client" => cmd_client(&flags),
        "exp" => cmd_exp(&flags),
        "tracker" => cmd_tracker(&flags),
        "peer" => cmd_peer(&flags),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(Fail::Usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(Fail::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand stopped: a usage error (exit 2) is a command line
/// that does not say what to run; a run failure (exit 1) is the work
/// itself failing.
enum Fail {
    Usage(String),
    Run(String),
}

/// A bare `String` error is a usage error: every `Flags` accessor and
/// every value match returns one. Work that fails goes through
/// [`failed`].
impl From<String> for Fail {
    fn from(msg: String) -> Self {
        Fail::Usage(msg)
    }
}

/// The run failure for `err`.
fn failed(err: impl std::fmt::Display) -> Fail {
    Fail::Run(err.to_string())
}

fn parse_regressor(flags: &Flags) -> Result<Regressor, String> {
    match flags.get("regressor")?.unwrap_or("ols") {
        "ols" => Ok(Regressor::Ols),
        "huber" => Ok(Regressor::default_huber()),
        "ransac" => Ok(Regressor::default_ransac(flags.parse_or("seed", 7u64)?)),
        other => Err(format!("unknown regressor {other:?}")),
    }
}

fn load_graph(flags: &Flags) -> Result<Graph, Fail> {
    let path = flags.require("graph")?;
    let loaded = load_edge_list(path).map_err(|e| failed(format!("loading {path}: {e}")))?;
    Ok(loaded.graph)
}

fn cmd_generate(flags: &Flags) -> Result<(), Fail> {
    flags.accept("dataset out seed")?;
    let name = flags.require("dataset")?;
    let dataset = match name {
        "er" => Dataset::Er,
        "ba" => Dataset::Ba,
        "blogcatalog" => Dataset::Blogcatalog,
        "wikivote" => Dataset::Wikivote,
        "bitcoin-alpha" => Dataset::BitcoinAlpha,
        other => return Err(Fail::Usage(format!("unknown dataset {other:?}"))),
    };
    let out = flags.require("out")?;
    let seed = flags.parse_or("seed", 7u64)?;
    let g = dataset.build(seed);
    save_edge_list(&g, out).map_err(failed)?;
    println!(
        "wrote {} ({} nodes, {} edges, seed {seed})",
        out,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_gen_large(flags: &Flags) -> Result<(), Fail> {
    use ba_bench::graphstore;
    use ba_graph::compact::from_edge_stream;
    use ba_graph::generators::{barabasi_albert_stream, erdos_renyi_stream};

    flags.accept("out model nodes m p chunk-rows seed")?;
    let out = flags.require("out")?;
    let n = flags.parse_or("nodes", 1_000_000usize)?;
    let seed = flags.parse_or("seed", 7u64)?;
    let chunk_rows = flags.parse_or("chunk-rows", 65_536usize)?.max(1);
    // Streamed generation: the restartable edge stream feeds the
    // two-pass CSR builder, so peak memory is the final CSR plus
    // the generator's own state — no intermediate edge list. The
    // result is bit-identical to the in-memory generators at equal
    // (model, n, seed); see DESIGN.md §13.
    let t0 = std::time::Instant::now();
    let g = match flags.get("model")?.unwrap_or("ba") {
        "ba" => {
            let m = flags.parse_or("m", 11usize)?;
            from_edge_stream(n, || barabasi_albert_stream(n, m, seed))
        }
        "er" => {
            let p = flags.parse_or("p", 2e-5f64)?;
            from_edge_stream(n, || erdos_renyi_stream(n, p, seed))
        }
        other => return Err(Fail::Usage(format!("unknown model {other:?}"))),
    }
    .map_err(|e| failed(format!("building CSR: {e}")))?;
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let meta = graphstore::write_chunked(std::path::Path::new(out), &g, chunk_rows)
        .map_err(|e| failed(format!("writing {out}: {e}")))?;
    println!(
        "wrote {out}: {} nodes, {} edges, {} chunks of {} rows, hash {:016x} (gen {gen_s:.2}s, store {:.2}s, seed {seed})",
        meta.num_nodes,
        meta.num_edges,
        meta.num_chunks,
        meta.chunk_rows,
        g.edge_hash(),
        t1.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_score(flags: &Flags) -> Result<(), Fail> {
    flags.accept("graph top regressor seed")?;
    let top = flags.parse_or("top", 20usize)?;
    let regressor = parse_regressor(flags)?;
    let g = load_graph(flags)?;
    let model = OddBall::new(regressor).fit(&g).map_err(failed)?;
    println!(
        "fit: beta0 = {:.4}, beta1 = {:.4}  (n = {}, m = {})",
        model.beta0(),
        model.beta1(),
        g.num_nodes(),
        g.num_edges()
    );
    println!("{:>8}  {:>10}  {:>6}  {:>6}", "node", "ascore", "N", "E");
    for (node, score) in model.top_k(top) {
        let f = model.features();
        println!(
            "{:>8}  {:>10.4}  {:>6.0}  {:>6.0}",
            node, score, f.n[node as usize], f.e[node as usize]
        );
    }
    Ok(())
}

fn cmd_attack(flags: &Flags) -> Result<(), Fail> {
    flags.accept("graph out budget targets auto-targets method ops seed threads no-memo")?;
    let out = flags.require("out")?;
    let budget = flags.parse_or("budget", 10usize)?;
    let seed = flags.parse_or("seed", 7u64)?;
    let threads = flags.parse_or("threads", 0usize)?;
    let memo = !flags.switch("no-memo")?;
    let op_kind = match flags.get("ops")?.unwrap_or("both") {
        "both" => EdgeOpKind::Both,
        "add" => EdgeOpKind::AddOnly,
        "delete" => EdgeOpKind::DeleteOnly,
        other => return Err(Fail::Usage(format!("unknown ops mode {other:?}"))),
    };
    let cfg = AttackConfig {
        op_kind,
        seed,
        ..AttackConfig::default()
    };
    let attack: Box<dyn StructuralAttack> = match flags.get("method")?.unwrap_or("binarized") {
        "binarized" => Box::new(BinarizedAttack::new(cfg)),
        "gradmax" => Box::new(GradMaxSearch::new(cfg)),
        "continuous" => Box::new(ContinuousA::new(cfg)),
        "random" => Box::new(RandomAttack::new(cfg)),
        other => return Err(Fail::Usage(format!("unknown method {other:?}"))),
    };
    let listed: Option<Vec<NodeId>> = flags
        .get("targets")?
        .map(|list| {
            list.split(',')
                .map(|t| t.trim().parse().map_err(|_| format!("bad target id {t:?}")))
                .collect::<Result<_, _>>()
        })
        .transpose()?;
    let k = flags.parse_or("auto-targets", 10usize)?;
    // Every flag is read above, so a usage error exits before any work.
    let g = load_graph(flags)?;
    let targets = match listed {
        Some(targets) => targets,
        None => {
            let model = OddBall::default().fit(&g).map_err(failed)?;
            model.top_k(k).into_iter().map(|(i, _)| i).collect()
        }
    };
    // One frozen CSR substrate serves the attack session and the
    // before/after scoring below. The assembly LRU is on by default (it
    // is result-transparent); `--no-memo` turns it off to trade
    // wall-clock for memory. `--threads 0` (the default) autodetects;
    // the output is the same at any count.
    let csr = CsrGraph::from(&g);
    let mut session = ba_core::AttackSession::new(&csr, &targets)
        .map_err(failed)?
        .with_threads(threads);
    if memo {
        session = session.with_memo();
    }
    let outcome: AttackOutcome = attack
        .attack_with_session(&mut session, budget)
        .map_err(failed)?;

    let b = outcome.max_budget();
    // Score the before/after pair through one frozen CSR substrate: the
    // poisoned graph is just a delta overlay, so the detector refits
    // without a second adjacency build.
    let mut poisoned_view = DeltaOverlay::new(&csr);
    poisoned_view.apply_ops(outcome.ops(b));
    // Persist the attack result before scoring: a degenerate refit must
    // not lose the poisoned graph the user asked for.
    save_edge_list(&poisoned_view.to_graph(), out).map_err(failed)?;
    let before = OddBall::default().fit(&csr).map_err(failed)?;
    let after = OddBall::default().fit(&poisoned_view).map_err(failed)?;
    let s0 = before.target_score_sum(&targets);
    let sb = after.target_score_sum(&targets);
    println!("method: {}   targets: {:?}", outcome.name, targets);
    println!(
        "applied {} edge flips (budget {budget})",
        outcome.ops(b).len()
    );
    println!(
        "target AScore sum: {s0:.4} -> {sb:.4}  (tau_as = {:.2}%)",
        100.0 * (s0 - sb) / s0.max(1e-12)
    );
    println!("wrote poisoned graph to {out}");
    Ok(())
}

fn cmd_gen_stream(flags: &Flags) -> Result<(), Fail> {
    use ba_stream::{save_events, synthetic_stream};
    flags.accept("graph out events seed")?;
    let out = flags.require("out")?;
    let count = flags.parse_or("events", 1000usize)?;
    let seed = flags.parse_or("seed", 7u64)?;
    let g = load_graph(flags)?;
    let events = synthetic_stream(&g, count, seed);
    save_events(&events, out).map_err(failed)?;
    println!(
        "wrote {count} events to {out} (graph: {} nodes, {} edges, seed {seed})",
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_stream(flags: &Flags) -> Result<(), Fail> {
    use ba_net::codec::enc_f64;
    use ba_stream::{load_events, StreamConfig, StreamEngine};

    flags.accept("graph events batch top regressor seed compact-frac snapshot resume")?;
    let events_path = flags.require("events")?;
    let batch_size = flags.parse_or("batch", 100usize)?.max(1);
    let top = flags.parse_or("top", 5usize)?;
    let cfg = StreamConfig {
        compact_fraction: flags.parse_or("compact-frac", 0.125f64)?,
        regressor: parse_regressor(flags)?,
        ..StreamConfig::default()
    };
    let snapshot = flags.get("snapshot")?;
    let resume = flags.switch("resume")?;
    let events =
        load_events(events_path).map_err(|e| failed(format!("loading {events_path}: {e}")))?;

    // `--resume` restores the engine from the snapshot and replays only
    // the remaining batches; the skipped batches' summaries are *not*
    // re-printed, so output byte-identity holds for the printed suffix.
    let mut engine = match snapshot {
        Some(path) if resume && std::path::Path::new(path).exists() => {
            let engine = StreamEngine::restore_snapshot(path)
                .map_err(|e| failed(format!("restoring {path}: {e}")))?;
            eprintln!(
                "[stream] resumed from {path}: {} batches / {} events already ingested",
                engine.batches_ingested(),
                engine.events_ingested()
            );
            engine
        }
        _ => StreamEngine::new(&load_graph(flags)?, cfg),
    };
    // Skip by *event count*, not batch count: the snapshot does not
    // record the original `--batch`, so counting batches would silently
    // drop or re-ingest events if the resumed run passes a different
    // size. The engine counts every presented event (including ignored
    // ones), so its counter maps exactly to a file position.
    let skip_events = (engine.events_ingested() as usize).min(events.len());
    let already_ingested = engine.events_ingested();

    let t0 = std::time::Instant::now();
    for batch in events[skip_events..].chunks(batch_size) {
        let summary = engine.ingest_batch(batch);
        let fit = match &summary.params {
            Ok(p) => format!(
                "beta0={:.6}({}) beta1={:.6}({})",
                p.beta0,
                enc_f64(p.beta0),
                p.beta1,
                enc_f64(p.beta1)
            ),
            Err(reason) => format!("degenerate({reason})"),
        };
        println!(
            "batch {}: events={} applied={} moved={} edges={} compacted={} {fit}",
            summary.batch,
            summary.events,
            summary.applied,
            summary.dirty_rows,
            summary.edges,
            u8::from(summary.compacted),
        );
        if summary.params.is_ok() {
            for (rank, (node, score)) in engine.top_k(top).expect("fit is ok").iter().enumerate() {
                println!(
                    "  top{}: node={node} score={score:.6} ({})",
                    rank + 1,
                    enc_f64(*score)
                );
            }
        }
        if let Some(path) = snapshot {
            engine
                .save_snapshot(path)
                .map_err(|e| failed(format!("saving snapshot {path}: {e}")))?;
        }
    }
    let ingested = engine.events_ingested() - already_ingested;
    eprintln!(
        "[stream] {ingested} events in {:.3}s ({:.0} events/s sustained)",
        t0.elapsed().as_secs_f64(),
        ingested as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    );
    println!(
        "stream done: batches={} events={} edges={} compactions={} dirty={}",
        engine.batches_ingested(),
        engine.events_ingested(),
        engine.num_edges(),
        engine.compactions(),
        engine.dirty_rows()
    );
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), Fail> {
    use ba_serve::{ServeConfig, Server};
    use ba_stream::{StreamConfig, StreamEngine};

    flags.accept("graph addr retain regressor seed")?;
    let addr = flags.require("addr")?;
    let cfg = StreamConfig {
        regressor: parse_regressor(flags)?,
        ..StreamConfig::default()
    };
    let serve_cfg = ServeConfig {
        retain: flags.parse_or("retain", ServeConfig::default().retain)?,
    };
    let g = load_graph(flags)?;
    let engine = StreamEngine::new(&g, cfg);
    let server = Server::start(addr, engine, serve_cfg)
        .map_err(|e| failed(format!("binding {addr}: {e}")))?;
    // Readiness line on stderr: scripts (and the CI replay step) can
    // wait for it before connecting.
    eprintln!(
        "[serve] listening on {} ({} nodes, {} edges, retain {})",
        server.local_addr(),
        g.num_nodes(),
        g.num_edges(),
        serve_cfg.retain
    );
    server.run();
    Ok(())
}

fn cmd_gen_requests(flags: &Flags) -> Result<(), Fail> {
    use ba_serve::{save_requests, synthetic_requests, WorkloadConfig};

    flags.accept("graph out batches batch-size queries topk seed")?;
    let out = flags.require("out")?;
    let defaults = WorkloadConfig::default();
    let cfg = WorkloadConfig {
        batches: flags.parse_or("batches", defaults.batches)?,
        batch_size: flags.parse_or("batch-size", defaults.batch_size)?,
        queries_per_batch: flags.parse_or("queries", defaults.queries_per_batch)?,
        top_k: flags.parse_or("topk", defaults.top_k as u64)? as u32,
        seed: flags.parse_or("seed", defaults.seed)?,
    };
    let g = load_graph(flags)?;
    let requests = synthetic_requests(&g, &cfg);
    save_requests(&requests, out).map_err(failed)?;
    println!(
        "wrote {} requests to {out} ({} ingest batches, seed {})",
        requests.len(),
        cfg.batches,
        cfg.seed
    );
    Ok(())
}

fn cmd_client(flags: &Flags) -> Result<(), Fail> {
    use ba_serve::{format_request, load_requests, render_response, replay};

    flags.accept("addr requests clients")?;
    let addr = flags.require("addr")?;
    let path = flags.require("requests")?;
    let clients = flags.parse_or("clients", 1usize)?.max(1);
    let requests = load_requests(path).map_err(|e| failed(format!("loading {path}: {e}")))?;
    let t0 = std::time::Instant::now();
    let responses = replay(addr, &requests, clients).map_err(failed)?;
    // The transcript on stdout is the determinism artifact: a pure
    // function of (server graph, request log), never of --clients.
    for (req, resp) in requests.iter().zip(&responses) {
        println!("{} => {}", format_request(req), render_response(resp));
    }
    eprintln!(
        "[client] {} requests over {clients} connection(s) in {:.3}s",
        requests.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The options and named suite of an experiment subcommand, which
/// accepts every [`ba_bench::ExpOptions`] flag plus `extra`.
fn named_suite(
    flags: &Flags,
    extra: &str,
) -> Result<(ExpOptions, Vec<Box<dyn Experiment>>), String> {
    flags.accept(&format!(
        "exp paper seed samples out threads resume {extra}"
    ))?;
    let opts = ExpOptions::from_flags(flags)?;
    let name = flags.require("exp")?;
    let suite = ba_bench::distrib::suite_by_name(name, &opts).ok_or_else(|| {
        format!(
            "unknown suite {name:?} (known: {})",
            ba_bench::distrib::SUITE_NAMES.join(", ")
        )
    })?;
    Ok((opts, suite))
}

fn cmd_exp(flags: &Flags) -> Result<(), Fail> {
    let (opts, suite) = named_suite(flags, "")?;
    let refs: Vec<&dyn Experiment> = suite.iter().map(|e| e.as_ref()).collect();
    ExperimentRunner::new(&opts)
        .run_suite(&refs, &opts)
        .map_err(failed)
}

fn cmd_tracker(flags: &Flags) -> Result<(), Fail> {
    use ba_bench::distrib::{FirstLeaseHook, Tracker, TrackerConfig};
    use std::sync::{Arc, Mutex};

    let (opts, suite) = named_suite(flags, "addr peers kill-peer lease-ms")?;
    let refs: Vec<&dyn Experiment> = suite.iter().map(|e| e.as_ref()).collect();
    let cfg = TrackerConfig {
        lease_ms: flags.parse_or("lease-ms", TrackerConfig::default().lease_ms)?,
        kill_peer: flags.get("kill-peer")?.map(str::to_string),
        ..TrackerConfig::default()
    };

    let addr = flags.require("addr")?;
    let tracker = Tracker::bind(addr).map_err(|e| failed(format!("binding {addr}: {e}")))?;
    let local = tracker.local_addr().to_string();

    // Localhost fleet mode: spawn `--peers N` copies of this binary as
    // worker processes against the resolved address.
    let peers = flags.parse_or("peers", 0usize)?;
    let children: Arc<Mutex<Vec<(String, std::process::Child)>>> = Arc::new(Mutex::new(Vec::new()));
    let exe = std::env::current_exe().map_err(|e| failed(format!("current exe: {e}")))?;
    let exp_name = flags.require("exp")?;
    for k in 0..peers {
        let peer_name = format!("peer-{k}");
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("peer")
            .arg("--exp")
            .arg(exp_name)
            .arg("--addr")
            .arg(&local)
            .arg("--name")
            .arg(&peer_name)
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--samples")
            .arg(opts.samples.to_string());
        if opts.paper {
            cmd.arg("--paper");
        }
        let child = cmd
            .spawn()
            .map_err(|e| failed(format!("spawning {peer_name}: {e}")))?;
        eprintln!("[tracker] spawned {peer_name} (pid {})", child.id());
        children.lock().expect("children").push((peer_name, child));
    }

    // Fault injection: kill the named spawned child the moment its
    // first lease frame is on the wire — provably mid-cell.
    let hook: Option<FirstLeaseHook> = match (&cfg.kill_peer, peers) {
        (Some(_), n) if n > 0 => {
            let children = Arc::clone(&children);
            Some(Box::new(move |victim: &str| {
                let mut children = children.lock().expect("children");
                for (name, child) in children.iter_mut() {
                    if name == victim {
                        let _ = child.kill();
                    }
                }
            }))
        }
        _ => None,
    };

    let report = tracker
        .serve_with_hook(&refs, &opts, &cfg, hook)
        .map_err(|e| failed(format!("tracker run failed: {e}")))?;

    // Reap the fleet. The injected-kill victim's failure is expected;
    // any other worker failing means the run was not healthy.
    let mut children = children.lock().expect("children");
    for (name, child) in children.iter_mut() {
        let status = child
            .wait()
            .map_err(|e| failed(format!("waiting on {name}: {e}")))?;
        let killed = cfg.kill_peer.as_deref() == Some(name.as_str());
        if !status.success() && !killed {
            return Err(failed(format!("worker {name} exited with {status}")));
        }
    }
    if !report.all_ok {
        return Err(failed("one or more experiments failed to finalize"));
    }
    Ok(())
}

fn cmd_peer(flags: &Flags) -> Result<(), Fail> {
    use ba_bench::distrib::{run_peer, PeerConfig};

    let (opts, suite) = named_suite(flags, "addr name")?;
    let refs: Vec<&dyn Experiment> = suite.iter().map(|e| e.as_ref()).collect();
    let addr = flags.require("addr")?;
    let cfg = PeerConfig::new(addr, flags.get("name")?.unwrap_or("peer"));
    run_peer(&refs, &opts, &cfg).map_err(failed)?;
    Ok(())
}

fn cmd_transfer(flags: &Flags) -> Result<(), Fail> {
    use ba_gad::{
        evaluate_system, identify_targets, pipeline::delta_b, pipeline::oddball_labels,
        train_test_split, GadSystem, GalConfig, RefexConfig, TransferConfig,
    };
    flags.accept("graph budget system seed")?;
    let budget = flags.parse_or("budget", 50usize)?;
    let seed = flags.parse_or("seed", 7u64)?;
    let system = match flags.require("system")? {
        "gal" => GadSystem::Gal(GalConfig::default()),
        "refex" => GadSystem::Refex(RefexConfig::default()),
        other => return Err(Fail::Usage(format!("unknown system {other:?}"))),
    };
    let g = load_graph(flags)?;
    let tcfg = TransferConfig {
        seed,
        ..TransferConfig::default()
    };
    let labels = oddball_labels(&g, tcfg.label_fraction);
    let (train, test) = train_test_split(g.num_nodes(), tcfg.train_fraction, seed);
    let (targets, clean) = identify_targets(&system, &g, &labels, &train, &test, &tcfg);
    println!(
        "{}: clean AUC {:.3}, F1 {:.3}, {} identified targets",
        system.name(),
        clean.auc,
        clean.f1,
        targets.len()
    );
    if targets.is_empty() {
        return Err(failed(
            "no anomalous test nodes identified; nothing to attack",
        ));
    }
    let attack = BinarizedAttack::new(AttackConfig {
        seed,
        ..AttackConfig::default()
    });
    let outcome = attack.attack(&g, &targets, budget).map_err(failed)?;
    let poisoned = outcome.poisoned_graph(&g, budget);
    let after = evaluate_system(&system, &poisoned, &labels, &train, &test, &targets, &tcfg);
    println!(
        "after B = {budget}: AUC {:.3}, F1 {:.3}, delta_B = {:.1}%",
        after.auc,
        after.f1,
        100.0 * delta_b(clean.target_soft_sum, after.target_soft_sum)
    );
    Ok(())
}
