//! The repository benchmark.
//!
//! Three workloads, each stressing different layers:
//!
//! * `attack` — BinarizedAttack then GradMaxSearch per cell on the fig4
//!   quick Blogcatalog-10 panel ([`attack`]): `ba-core` does nearly all
//!   the work.
//! * `ingest` — `StreamEngine` batches on a 10^5-node BA graph with no
//!   readers ([`ingest`]): apply, recompute, merge and compaction. Its
//!   traced run also measures the serving layers in process.
//! * `serve` — the TCP server on the same graph with open-loop queries
//!   beside scheduled ingests ([`serve`]): publish, retention, top-k and
//!   queueing. Run on request only: `BENCHMARK.json` gates `attack` and
//!   `ingest`, because on a 2-core host its latency tails vary too much
//!   from run to run to hold a regression bound.
//!
//! Every workload reports the same end-to-end metrics: set-up time, peak
//! memory, the median latency of its main and side operations, and the
//! items it processes per second.
//!
//! The untraced run reports end-to-end metrics; the traced run records
//! spans around every call into a layer and reports per-layer metrics.
//! A traced `attack` run adds a short `ingest` run and the other way
//! round, so each reports every layer. The traced run does a fixed
//! amount of work, so its work counters repeat exactly for one seed.

pub mod attack;
pub mod ingest;
pub mod report;
pub mod serve;
pub mod stats;
pub mod substrate;
pub mod trace;

use report::Report;
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["attack", "ingest", "serve"];

/// Workload sizes: the benchmark's, or seconds-scale ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Standard,
    Tiny,
}

/// The workload a traced run adds, at a fixed small size, so that the
/// gated workloads' traced runs each report every layer.
fn companion(workload: &str) -> Option<(&'static str, u64)> {
    match workload {
        "attack" => Some(("ingest", 4)),
        "ingest" => Some(("attack", 8)),
        _ => None,
    }
}

/// Runs `workload` with inputs made from `seed`; `None` for an unknown
/// workload. With tracing on, spans are recorded into the returned
/// tracer, and the companion workload's layers are measured too.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
) -> Option<(Report, Tracer)> {
    let mut tr = Tracer::new(trace);
    let start = std::time::Instant::now();
    let mut report = run_one(workload, seed, seconds, scale, &mut tr)?;
    if let (true, Some((other, secs))) = (trace, companion(workload)) {
        let secs = if scale == Scale::Tiny { 1 } else { secs };
        report.absorb(run_one(other, seed, secs, scale, &mut tr)?);
    }
    report.finish(&tr, start.elapsed().as_secs_f64());
    Some((report, tr))
}

fn run_one(
    workload: &str,
    seed: u64,
    seconds: u64,
    scale: Scale,
    tr: &mut Tracer,
) -> Option<Report> {
    let tiny = scale == Scale::Tiny;
    let report = match workload {
        "attack" => {
            let p = if tiny {
                attack::AttackParams::tiny()
            } else {
                attack::AttackParams::standard()
            };
            attack::run(&p, seed, seconds, tr)
        }
        "ingest" => {
            let p = if tiny {
                ingest::IngestParams::tiny()
            } else {
                ingest::IngestParams::standard()
            };
            ingest::run(&p, seed, seconds, tr)
        }
        "serve" => {
            let p = if tiny {
                serve::ServeParams::tiny()
            } else {
                serve::ServeParams::standard()
            };
            serve::run(&p, seed, seconds, tr)
        }
        _ => return None,
    };
    Some(report)
}
