//! Runs the full evaluation section, mirroring the paper:
//!
//! `cargo run -p ba-bench --release --bin run_all [--paper] [--threads N]
//! [--resume]`
//!
//! The five grid-shaped experiments (fig4, fig5, fig6, table3, table4)
//! run first as **one pooled orchestrator suite**, the registry's `all`
//! suite (`binattack exp --exp <name>` runs one of them alone). Their
//! cells share a worker pool and deduplicated dataset substrates, so the
//! machine stays saturated across experiment boundaries, every cell is
//! committed atomically (an interrupted run resumes with `--resume`),
//! and the merged CSVs are byte-identical at any `--threads` value. The
//! remaining scalar/diagnostic binaries (table1, fig2, fig7_table2,
//! fig8_fig9, fig10, ablation, defense_extension) then run as child
//! processes, as before.

use ba_bench::distrib::suite_by_name;
use ba_bench::runner::{Experiment, ExperimentRunner};
use ba_bench::ExpOptions;
use std::process::Command;

fn main() {
    let opts = ExpOptions::from_args();
    let forward: Vec<String> = std::env::args().skip(1).collect();

    println!(
        "================ orchestrated grid (fig4, fig5, fig6, table3, table4) ================"
    );
    let suite = suite_by_name("all", &opts).expect("the registry defines `all`");
    let refs: Vec<&dyn Experiment> = suite.iter().map(|e| e.as_ref()).collect();
    if let Err(e) = ExperimentRunner::new(&opts).run_suite(&refs, &opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    // The remaining binaries are scalar reports or diagnostics with no
    // grid to fan out; they keep their child-process path.
    let bins = [
        "table1",
        "fig2",
        "fig7_table2",
        "fig8_fig9",
        "fig10",
        "ablation",
        "defense_extension",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    for bin in bins {
        println!("\n================ {bin} ================");
        let status = Command::new(exe_dir.join(bin))
            .args(&forward)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            eprintln!("warning: {bin} exited with {status}");
        }
    }
    println!(
        "\nAll experiments complete. CSVs in {}.",
        opts.out_dir.display()
    );
}
