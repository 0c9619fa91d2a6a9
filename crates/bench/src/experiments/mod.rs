//! Runner-ported paper experiments.
//!
//! Each submodule implements [`crate::runner::Experiment`] for one
//! figure/table: the grid decomposition into cells, the per-cell record
//! encoding (exact-bits floats, see [`crate::artifact`]), and the
//! index-ordered merge into the printed report + CSV artifacts. The
//! suite registry ([`crate::distrib::suite_by_name`]) constructs them
//! by name for `binattack exp --exp <name>`, the tracker and its peers;
//! `run_all` pools all five (the `all` suite) so their cells share the
//! worker pool and dataset substrates.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table3;
pub mod table4;

/// A [`crate::BenchError::Corrupt`] for experiment `exp`: a committed
/// cell record that no longer decodes at merge time.
pub(crate) fn corrupt(exp: &str, detail: impl Into<String>) -> crate::BenchError {
    crate::BenchError::Corrupt {
        experiment: exp.to_string(),
        detail: detail.into(),
    }
}

/// Decodes one exact-bits float field of a cell record, naming the
/// field and raw payload on failure.
pub(crate) fn dec_field(exp: &str, what: &str, s: &str) -> Result<f64, crate::BenchError> {
    ba_net::codec::dec_f64(s).ok_or_else(|| corrupt(exp, format!("{what}: {s:?}")))
}

pub use fig4::{Fig4Experiment, Fig4Method, Fig4Panel};
pub use fig5::Fig5Experiment;
pub use fig6::Fig6Experiment;
pub use table3::Table3Experiment;
pub use table4::Table4Experiment;
