//! Runner-ported paper experiments.
//!
//! Each submodule implements [`crate::runner::Experiment`] for one
//! figure/table: the grid decomposition into cells, the per-cell record
//! encoding, and the index-ordered merge into the printed report + CSV
//! artifacts. The suite registry ([`crate::distrib::suite_by_name`])
//! constructs them by name for `binattack exp --exp <name>`, the tracker
//! and its peers; the `all` suite pools all twelve so their cells share
//! the worker pool and dataset substrates.
//!
//! Cells whose `finalize` does arithmetic across cells (fig4) record
//! exact-bits floats (see [`crate::artifact`]). The others record their
//! report already formatted; all but fig5 merge it with
//! `write_report`.

pub mod ablation;
pub mod defense_extension;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_table2;
pub mod fig8_fig9;
pub mod table1;
pub mod table3;
pub mod table4;

use crate::runner::Experiment;
use crate::{BenchError, ExpOptions};
use ba_core::BinarizedAttack;

/// A [`crate::BenchError::Corrupt`] for experiment `exp`: a committed
/// cell record that no longer decodes at merge time.
pub(crate) fn corrupt(exp: &str, detail: impl Into<String>) -> crate::BenchError {
    crate::BenchError::Corrupt {
        experiment: exp.to_string(),
        detail: detail.into(),
    }
}

/// The BinarizedAttack of the side-effect and defence experiments
/// (Figs. 7–10, the defence extension): 400 PGD iterations over
/// λ ∈ {0.002, 0.02} with `--paper`, 120 over {0.004, 0.04} otherwise.
pub(crate) fn side_attack(opts: &ExpOptions) -> BinarizedAttack {
    let (iterations, lambdas) = if opts.paper {
        (400, vec![0.002, 0.02])
    } else {
        (120, vec![0.004, 0.04])
    };
    BinarizedAttack::default()
        .with_iterations(iterations)
        .with_lambdas(lambdas)
}

/// A report record printing `line` to stdout.
pub(crate) fn out(line: impl std::fmt::Display) -> String {
    format!("out,{line}")
}

/// Merges formatted report records in cell order. Each record is
/// `<sink>,<payload>`: sink `out` prints the payload, `failed` warns
/// with it, and any other sink names one of `exp`'s artifacts, which
/// collects the payload as a CSV row under the matching entry of
/// `headers`. Every artifact is written, so a failed cell leaves a
/// header-only CSV rather than a stale one.
pub(crate) fn write_report(
    exp: &dyn Experiment,
    opts: &ExpOptions,
    cells: &[Vec<String>],
    headers: &[&str],
) -> Result<(), BenchError> {
    let files = exp.artifacts();
    let mut csv: Vec<Vec<String>> = vec![Vec::new(); files.len()];
    for (cell, records) in cells.iter().enumerate() {
        for record in records {
            let (sink, payload) = record.split_once(',').unwrap_or((record, ""));
            match sink {
                "out" => println!("{payload}"),
                "failed" => eprintln!(
                    "warning: {} {}: {payload}",
                    exp.name(),
                    exp.cell_label(cell)
                ),
                file => {
                    let k = files
                        .iter()
                        .position(|name| name == file)
                        .ok_or_else(|| corrupt(&exp.name(), format!("record {record:?}")))?;
                    csv[k].push(payload.to_string());
                }
            }
        }
    }
    for ((name, header), rows) in files.iter().zip(headers).zip(&csv) {
        opts.write_csv(name, header, rows)?;
    }
    Ok(())
}

pub use ablation::AblationExperiment;
pub use defense_extension::DefenseExtensionExperiment;
pub use fig10::Fig10Experiment;
pub use fig2::Fig2Experiment;
pub use fig4::{Fig4Experiment, Fig4Method, Fig4Panel};
pub use fig5::Fig5Experiment;
pub use fig6::Fig6Experiment;
pub use fig7_table2::Fig7Table2Experiment;
pub use fig8_fig9::Fig8Fig9Experiment;
pub use table1::Table1Experiment;
pub use table3::Table3Experiment;
pub use table4::Table4Experiment;
