//! Integration tests for the `binattack` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn binattack() -> Command {
    Command::new(env!("CARGO_BIN_EXE_binattack"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("binattack_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = binattack().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("binattack attack"));
    assert!(
        text.contains("defense_extension"),
        "usage lists every experiment"
    );
}

#[test]
fn unknown_command_fails() {
    let err = failure(&["frobnicate"]);
    assert!(err.contains("unknown command"));
}

#[test]
fn missing_required_flag_fails() {
    let err = failure(&["generate", "--dataset", "er"]);
    assert!(err.contains("--out"));
}

#[test]
fn generate_then_score() {
    let path = tmp("gen_score.edges");
    let out = binattack()
        .args([
            "generate",
            "--dataset",
            "ba",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(path.exists());

    let out = binattack()
        .args(["score", "--graph", path.to_str().unwrap(), "--top", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("beta0"));
    // 5 ranked rows follow the header.
    assert!(text.lines().count() >= 7);
}

#[test]
fn generate_rejects_unknown_dataset() {
    let out = binattack()
        .args(["generate", "--dataset", "nonsense", "--out", "/tmp/x.edges"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn attack_reduces_scores_end_to_end() {
    let clean = tmp("attack_in.edges");
    let poisoned = tmp("attack_out.edges");
    let status = binattack()
        .args([
            "generate",
            "--dataset",
            "bitcoin-alpha",
            "--out",
            clean.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .status()
        .unwrap();
    assert!(status.success());

    // Use the fast greedy method to keep the test quick.
    let out = binattack()
        .args([
            "attack",
            "--graph",
            clean.to_str().unwrap(),
            "--out",
            poisoned.to_str().unwrap(),
            "--budget",
            "10",
            "--auto-targets",
            "3",
            "--method",
            "gradmax",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tau_as"));
    assert!(poisoned.exists());
    // The reported decrease must be positive.
    let tau_line = text.lines().find(|l| l.contains("tau_as")).unwrap();
    let pct: f64 = tau_line
        .split("tau_as = ")
        .nth(1)
        .unwrap()
        .trim_end_matches(['%', ')'])
        .parse()
        .unwrap();
    assert!(pct > 0.0, "reported tau_as {pct} not positive: {tau_line}");
}

#[test]
fn attack_output_is_identical_at_any_thread_count() {
    let clean = tmp("threads_in.edges");
    let poisoned = tmp("threads_out.edges");
    let status = binattack()
        .args([
            "generate",
            "--dataset",
            "bitcoin-alpha",
            "--out",
            clean.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .status()
        .unwrap();
    assert!(status.success());
    let run = |threads: &str| {
        let out = binattack()
            .args([
                "attack",
                "--graph",
                clean.to_str().unwrap(),
                "--out",
                poisoned.to_str().unwrap(),
                "--budget",
                "10",
                "--auto-targets",
                "3",
                "--method",
                "gradmax",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, std::fs::read(&poisoned).unwrap())
    };
    let (stdout_1, graph_1) = run("1");
    let (stdout_2, graph_2) = run("2");
    assert!(String::from_utf8_lossy(&stdout_1).contains("tau_as"));
    assert_eq!(stdout_1, stdout_2, "stdout differs between 1 and 2 threads");
    assert_eq!(
        graph_1, graph_2,
        "poisoned graph differs between 1 and 2 threads"
    );
}

#[test]
fn attack_with_explicit_targets_and_ops_mode() {
    let clean = tmp("explicit_in.edges");
    let poisoned = tmp("explicit_out.edges");
    binattack()
        .args([
            "generate",
            "--dataset",
            "er",
            "--out",
            clean.to_str().unwrap(),
            "--seed",
            "9",
        ])
        .status()
        .unwrap();
    let out = binattack()
        .args([
            "attack",
            "--graph",
            clean.to_str().unwrap(),
            "--out",
            poisoned.to_str().unwrap(),
            "--budget",
            "5",
            "--targets",
            "1,2,3",
            "--method",
            "random",
            "--ops",
            "add",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[1, 2, 3]"));
}

/// Fast CI smoke test: the full generate → score → attack round-trip on
/// a small Erdős–Rényi graph, cheap enough to run on every push. Uses
/// the greedy method and a small budget so the whole chain stays well
/// under a few seconds even on cold CI runners.
#[test]
fn smoke_er_generate_score_attack_roundtrip() {
    let clean = tmp("smoke_er.edges");
    let poisoned = tmp("smoke_er_poisoned.edges");

    let out = binattack()
        .args([
            "generate",
            "--dataset",
            "er",
            "--out",
            clean.to_str().unwrap(),
            "--seed",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = binattack()
        .args(["score", "--graph", clean.to_str().unwrap(), "--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = binattack()
        .args([
            "attack",
            "--graph",
            clean.to_str().unwrap(),
            "--out",
            poisoned.to_str().unwrap(),
            "--budget",
            "5",
            "--auto-targets",
            "2",
            "--method",
            "gradmax",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(poisoned.exists());

    // The poisoned graph must still be a readable edge list.
    let out = binattack()
        .args(["score", "--graph", poisoned.to_str().unwrap(), "--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// gen-stream → stream round-trip: a snapshot-resumed run continues
/// the stdout suffix byte-identically.
#[test]
fn stream_snapshot_resume() {
    let graph = tmp("stream.edges");
    let events = tmp("stream.events");
    binattack()
        .args([
            "generate",
            "--dataset",
            "er",
            "--out",
            graph.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .status()
        .unwrap();
    let out = binattack()
        .args([
            "gen-stream",
            "--graph",
            graph.to_str().unwrap(),
            "--out",
            events.to_str().unwrap(),
            "--events",
            "400",
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = |extra: &[&str]| -> (bool, String) {
        let mut args = vec![
            "stream",
            "--graph",
            graph.to_str().unwrap(),
            "--events",
            events.to_str().unwrap(),
            "--batch",
            "100",
            "--top",
            "3",
        ];
        args.extend_from_slice(extra);
        let out = binattack().args(&args).output().unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };

    let (ok, reference) = run(&[]);
    assert!(ok);
    assert!(reference.contains("batch 4:"), "{reference}");
    assert!(reference.contains("stream done:"), "{reference}");

    // First half with a snapshot, then resume over the full stream: the
    // resumed stdout must be the byte-identical tail of the reference.
    let half_events = tmp("stream_half.events");
    let full = std::fs::read_to_string(&events).unwrap();
    let half: String = full.lines().take(201).collect::<Vec<_>>().join("\n") + "\n";
    std::fs::write(&half_events, half).unwrap(); // header + 200 events
    let snapshot = tmp("stream.snapshot");
    let _ = std::fs::remove_file(&snapshot);
    let out = binattack()
        .args([
            "stream",
            "--graph",
            graph.to_str().unwrap(),
            "--events",
            half_events.to_str().unwrap(),
            "--batch",
            "100",
            "--top",
            "3",
            "--snapshot",
            snapshot.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(snapshot.exists());
    let (ok, resumed) = run(&["--snapshot", snapshot.to_str().unwrap(), "--resume"]);
    assert!(ok);
    let resumed_body = resumed
        .strip_suffix(&format!(
            "{}\n",
            resumed.lines().last().expect("summary line")
        ))
        .unwrap()
        .to_string();
    assert!(
        reference.contains(&resumed_body),
        "resumed stdout is not a byte-identical slice of the reference\n\
         --- resumed ---\n{resumed}\n--- reference ---\n{reference}"
    );
    assert!(resumed.starts_with("batch 3:"), "{resumed}");
}

#[test]
fn score_on_missing_file_fails_gracefully() {
    let err = exits_with(1, &["score", "--graph", "/definitely/not/here.edges"]);
    assert!(err.contains("error:"));
}

/// Runs `binattack` with `args`, expecting it to exit with `code`, and
/// returns its stderr.
fn exits_with(code: i32, args: &[&str]) -> String {
    let out = binattack().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(code), "{args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `binattack` with `args`, expecting a usage error (exit 2), and
/// returns its stderr.
fn failure(args: &[&str]) -> String {
    exits_with(2, args)
}

#[test]
fn usage_errors_exit_2_and_failed_runs_exit_1() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["exp", "--exp", "fig2", "--threads", "1", "stray"],
        &["exp", "--exp", "fig2", "--paper", "x"],
        &["exp", "--exp", "fig2", "--sample", "2"],
        &["exp", "--exp", "nope"],
        &["generate", "--dataset", "er"],
        &["generate", "--dataset", "nope", "--out", "x"],
        &["score", "--graph", "/nonexistent", "--top", "-3"],
    ] {
        exits_with(2, args);
    }
    // Usage is checked before the graph is loaded.
    for bad in [["--method", "bogus"], ["--ops", "bogus"]] {
        let attack = ["attack", "--graph", "/nonexistent", "--out", "x"];
        exits_with(2, &[&attack[..], &bad].concat());
    }
    let err = exits_with(1, &["score", "--graph", "/nonexistent"]);
    assert!(err.contains("loading /nonexistent"), "{err}");
}

#[test]
fn malformed_numeric_flag_is_an_error_naming_it() {
    let graph = tmp("malformed_flag.edges");
    let graph = graph.to_str().unwrap();
    let poisoned = tmp("malformed_flag_out.edges");
    let _ = std::fs::remove_file(&poisoned);
    let out = binattack()
        .args(["generate", "--dataset", "er", "--out", graph])
        .output()
        .unwrap();
    assert!(out.status.success());

    let err = failure(&[
        "attack",
        "--graph",
        graph,
        "--out",
        poisoned.to_str().unwrap(),
        "--budget",
        "1O",
    ]);
    assert!(err.contains(r#"invalid value "1O" for --budget"#), "{err}");
    assert!(!poisoned.exists(), "attack ran on a default budget");
    let err = failure(&["score", "--graph", graph, "--top", "-3"]);
    assert!(err.contains(r#"invalid value "-3" for --top"#), "{err}");
    let err = failure(&["exp", "--exp", "fig4", "--threads", "two"]);
    assert!(
        err.contains(r#"invalid value "two" for --threads"#),
        "{err}"
    );
}

#[test]
fn flag_without_value_is_an_error_naming_it() {
    let err = failure(&["generate", "--dataset", "er", "--out"]);
    assert!(err.contains("flag --out needs a value"), "{err}");
    let err = failure(&["generate", "--dataset", "er", "--seed", "--out", "x"]);
    assert!(err.contains("flag --seed needs a value"), "{err}");
}

#[test]
fn stray_argument_or_valued_switch_is_an_error_naming_it() {
    let err = failure(&["exp", "--exp", "fig2", "--threads", "1", "stray"]);
    assert!(err.contains(r#"unexpected argument "stray""#), "{err}");
    let err = failure(&["exp", "--exp", "fig2", "--paper", "stray"]);
    assert!(
        err.contains(r#"flag --paper takes no value, got "stray""#),
        "{err}"
    );
}

#[test]
fn unknown_flag_is_an_error_naming_it() {
    let err = failure(&["exp", "--exp", "fig5", "--sample", "2"]);
    assert!(err.contains("unknown flag --sample"), "{err}");
    let err = failure(&["generate", "--dataset", "er", "--out", "x", "--sed", "3"]);
    assert!(err.contains("unknown flag --sed"), "{err}");
}
