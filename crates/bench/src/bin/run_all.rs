//! Runs the full evaluation section, mirroring the paper:
//!
//! `cargo run -p ba-bench --release --bin run_all [--paper] [--threads N]
//! [--resume]`
//!
//! The five grid-shaped experiments (fig4, fig5, fig6, table3, table4)
//! run first as **one pooled orchestrator suite**: their cells share a
//! worker pool and deduplicated dataset substrates, so the machine stays
//! saturated across experiment boundaries, every cell is committed
//! atomically (an interrupted run resumes with `--resume`), and the
//! merged CSVs are byte-identical at any `--threads` value. The
//! remaining scalar/diagnostic binaries (table1, fig2, fig7_table2,
//! fig8_fig9, fig10, ablation, defense_extension) then run as child
//! processes, as before.

use ba_bench::experiments::{
    Fig4Experiment, Fig5Experiment, Fig6Experiment, Table3Experiment, Table4Experiment,
};
use ba_bench::runner::{Experiment, ExperimentRunner};
use ba_bench::ExpOptions;
use std::process::Command;

fn main() {
    let opts = ExpOptions::from_args();
    let forward: Vec<String> = std::env::args().skip(1).collect();

    println!(
        "================ orchestrated grid (fig4, fig5, fig6, table3, table4) ================"
    );
    let fig4 = Fig4Experiment::standard(&opts);
    let fig5 = Fig5Experiment::standard(&opts);
    let fig6 = Fig6Experiment::standard(&opts);
    let table3 = Table3Experiment::standard(&opts);
    let table4 = Table4Experiment::standard(&opts);
    let suite: [&dyn Experiment; 5] = [&fig4, &fig5, &fig6, &table3, &table4];
    if let Err(e) = ExperimentRunner::new(&opts).run_suite(&suite, &opts) {
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
