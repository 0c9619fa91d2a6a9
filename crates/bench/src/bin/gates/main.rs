//! The perf gates, one module each, behind one command line:
//!
//! ```text
//! cargo run --release -p ba-bench --bin gates -- --gate <name>|all [--quick] [--json-dir DIR]
//! ```
//!
//! A gate is a plain function in [`GATES`] that returns its
//! [`BenchReport`] and the checks it failed. The selected gates run in
//! table order; every metric and failed check is printed, a failed gate
//! (or one whose metrics differ from its golden row) does not stop the
//! next, and the exit code is 1 if any check failed. `--json-dir DIR`
//! writes `DIR/BENCH_<name>.json`. A bad flag, gate name or value exits
//! 2 before any gate runs. Bit-identity cross-checks stay `assert!`s: a
//! mismatch means wrong output, not a slow machine. `--quick` is CI's
//! shorter profile; `--n`, `--m` and `--batch` size the `large` gate.

mod eval;
mod grad;
mod large;
mod search;
mod serve;
mod stream;

use ba_bench::Flags;
use ba_net::codec::write_atomic;
use ba_net::BenchReport;
use std::path::PathBuf;

/// What the gates read from the command line.
pub struct Profile {
    /// CI's shorter profile: fewer repetitions, smaller instances.
    pub quick: bool,
    /// `large`: BA node count.
    pub n: usize,
    /// `large`: edges per BA arrival.
    pub m: usize,
    /// `large`: events in the ingest batch.
    pub batch: usize,
}

/// A gate's report and the checks it failed.
pub type Verdict = (BenchReport, Vec<String>);

/// One gate: its name (also its bench and `BENCH_<name>.json` name), its
/// run, and its golden `metric:unit` row in report order.
struct Gate {
    name: &'static str,
    run: fn(&Profile) -> Verdict,
    metrics: &'static str,
}

/// Every gate, in CI's order.
const GATES: &[Gate] = &[
    Gate {
        name: "grad",
        run: grad::run,
        metrics: "n:count m:count pairs:count threads:count sparse_s:s dense_s:s speedup:x \
                  row_serial_ms:ms row_split_ms:ms row_split_speedup:x host_split_speedup:x \
                  tn_pairs:count tn_kernel_ms:ms tn_loop_ms:ms tn_ratio:x",
    },
    Gate {
        name: "eval",
        run: eval::run,
        metrics: "n:count m:count budget:count targets:count incremental_s:s full_s:s speedup:x",
    },
    Gate {
        name: "stream",
        run: stream::run,
        metrics: "n:count m:count batches:count batch_size:count events:count engine_s:s \
                  full_s:s engine_events_per_sec:events/s speedup:x compactions:count \
                  relayouts:count engine_compacting_batch_ms:ms engine_plain_batch_ms:ms",
    },
    Gate {
        name: "serve",
        run: serve::run,
        metrics: "n:count m:count clients:count requests:count ingest_batches:count span_s:s \
                  sustained_qps:qps p50_latency_us:us p99_latency_us:us",
    },
    Gate {
        name: "search",
        run: search::run,
        metrics: "n:count m:count target_sets:count budget:count threads:count \
                  single_cold_s:s single_memo_s:s single_pass_speedup:x \
                  binarized_cold_s:s gradmax_cold_s:s forward_passes:count loss_evals:count grads_hits:count \
                  grads_misses:count grads_stores:count grads_evictions:count",
    },
    Gate {
        name: "large",
        run: large::run,
        metrics: "n:count m_edges:count resident_csr_bytes:bytes max_degree:count gen_s:s \
                  gen_edges_per_sec:edges/s store_write_s:s store_fold_s:s store_read_s:s \
                  fit_s:s ingest_s:s ingest_events_per_sec:events/s",
    },
];

const USAGE: &str =
    "usage: gates --gate <name>|all [--quick] [--json-dir DIR] [--n N] [--m M] [--batch B]";

/// The gates `args` select from `table` (in table order), their profile,
/// and the `--json-dir`.
type Cli<'t> = (Vec<&'t Gate>, Profile, Option<PathBuf>);

fn parse<'t, S: AsRef<str>>(args: &[S], table: &'t [Gate]) -> Result<Cli<'t>, String> {
    let flags = Flags::parse(args);
    flags.accept("gate quick json-dir n m batch")?;
    let name = flags.require("gate")?;
    let gates: Vec<&Gate> = table
        .iter()
        .filter(|g| name == "all" || g.name == name)
        .collect();
    if gates.is_empty() {
        let names: Vec<&str> = table.iter().map(|g| g.name).collect();
        return Err(format!("unknown gate {name:?} (all, {})", names.join(", ")));
    }
    let quick = flags.switch("quick")?;
    // m = 11 puts the full `large` instance past 10^7 edges:
    // m + (n - m - 1) * m = 10_999_879.
    let profile = Profile {
        quick,
        n: flags.parse_or("n", if quick { 100_000 } else { 1_000_000 })?,
        m: flags.parse_or("m", 11)?,
        batch: flags.parse_or("batch", if quick { 2_000 } else { 10_000 })?,
    };
    Ok((gates, profile, flags.get("json-dir")?.map(PathBuf::from)))
}

/// The failed check, unless `report`'s `metric:unit` row is `gate`'s
/// golden row.
fn off_golden(gate: &Gate, report: &BenchReport) -> Option<String> {
    let got: Vec<String> = report
        .metrics()
        .iter()
        .map(|m| format!("{}:{}", m.metric, m.unit))
        .collect();
    let golden: Vec<&str> = gate.metrics.split_whitespace().collect();
    (got != golden).then(|| format!("metrics `{got:?}` differ from the golden `{golden:?}`"))
}

/// Runs the gates `args` select from `table` and returns the exit code:
/// 2 on a bad command line (no gate runs), else 1 if any check failed.
fn run_cli<S: AsRef<str>>(args: &[S], table: &[Gate]) -> i32 {
    let (gates, profile, json_dir) = match parse(args, table) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let mut failed_gates = Vec::new();
    for gate in &gates {
        eprintln!("[{}] running", gate.name);
        let (report, mut failed) = (gate.run)(&profile);
        failed.extend(off_golden(gate, &report));
        for m in report.metrics() {
            let key = format!("{}/{}", gate.name, m.metric);
            println!("{key:<36} {:>22} {}", m.value, m.unit);
        }
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("BENCH_{}.json", gate.name));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| write_atomic(&path, &report.to_json()))
            {
                failed.push(format!("cannot write {}: {e}", path.display()));
            }
        }
        for check in &failed {
            println!("FAIL {}: {check}", gate.name);
        }
        if !failed.is_empty() {
            failed_gates.push(gate.name);
        }
    }
    let passed = gates.len() - failed_gates.len();
    println!("gates: {passed} passed; failed: {failed_gates:?}");
    i32::from(!failed_gates.is_empty())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run_cli(&args, GATES));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &'static str, run: fn(&Profile) -> Verdict, metrics: &'static str) -> Gate {
        Gate { name, run, metrics }
    }

    #[test]
    fn flags_parse_and_bad_ones_exit_2_before_any_gate_runs() {
        let must_not_run = |_: &Profile| -> Verdict { panic!("a gate ran") };
        let table = [
            gate("grad", must_not_run, ""),
            gate("large", must_not_run, ""),
        ];
        let mut bad = vec![
            vec!["--gate", "grad", "--qiuck"],
            vec!["--gate", "all", "--json", "x.json"],
            vec!["--gate", "gard"],
            vec!["--quick"],
            vec!["--gate", "eval", "stray"],
            vec!["stray", "--gate", "eval"],
            vec!["--gate", "eval", "--quick", "stray"],
            vec!["--quick", "1", "--gate", "eval"],
        ];
        for flag in ["--n", "--m", "--batch"] {
            bad.extend(["1e6", "-1", "x"].map(|v| vec!["--gate", "large", flag, v]));
        }
        for args in bad {
            assert_eq!(run_cli(&args, &table), 2, "{args:?}");
        }
        let (gates, p, _) = parse(&["--gate", "all", "--quick", "--m", "4"], GATES).unwrap();
        assert_eq!((p.quick, p.n, p.m, p.batch), (true, 100_000, 4, 2_000));
        let names: Vec<&str> = gates.iter().map(|g| g.name).collect();
        assert_eq!(
            names,
            ["grad", "eval", "stream", "serve", "search", "large"]
        );
    }

    #[test]
    fn a_failing_gate_does_not_stop_the_next() {
        let fails = |_: &Profile| -> Verdict {
            let report = BenchReport::new("slow").metric("speedup", 1.5, "x");
            (report, vec!["speedup 1.50x (need ≥2x)".to_string()])
        };
        let passes = |_: &Profile| -> Verdict {
            (BenchReport::new("fast").metric("speedup", 9.0, "x"), vec![])
        };
        let table = [
            gate("slow", fails, "speedup:x"),
            gate("fast", passes, "speedup:x"),
        ];
        let dir = std::env::temp_dir().join(format!("ba_gates_{}", std::process::id()));
        let args = ["--gate", "all", "--json-dir", dir.to_str().unwrap()];
        assert_eq!(run_cli(&args, &table), 1);
        for name in ["slow", "fast"] {
            let json = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).unwrap();
            assert!(json.contains(&format!("\"bench\":\"{name}\"")), "{json}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(run_cli(&["--gate", "fast"], &table), 0);
        let off_golden = [gate("fast", passes, "speedup:ratio")];
        assert_eq!(run_cli(&["--gate", "fast"], &off_golden), 1);
    }

    /// Every gate but `search` (minutes in a debug build) reports its
    /// golden metrics, in order. Verdicts are not checked: timing gates
    /// such as `grad`'s `tn_ratio` fail in debug builds.
    #[test]
    fn gates_report_their_golden_metrics() {
        let (_, profile, _) = parse(&["--gate", "large", "--quick", "--n", "5000"], GATES).unwrap();
        for gate in GATES.iter().filter(|g| g.name != "search") {
            let (report, _) = (gate.run)(&profile);
            assert_eq!(off_golden(gate, &report), None);
            let bench = format!("\"bench\":\"{}\"", gate.name);
            assert!(report.to_json().contains(&bench), "{}", gate.name);
        }
    }
}
