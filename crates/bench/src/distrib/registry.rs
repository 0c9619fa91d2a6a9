//! Suite registry: experiment suites by name.
//!
//! The tracker and every peer must construct the *same* experiment
//! objects from nothing but a name and the shared [`ExpOptions`] —
//! they are separate processes (possibly separate machines), so the
//! suite cannot be passed by reference. The fingerprint handshake then
//! verifies the constructions really did agree.

use crate::experiments::{
    AblationExperiment, DefenseExtensionExperiment, Fig10Experiment, Fig2Experiment,
    Fig4Experiment, Fig5Experiment, Fig6Experiment, Fig7Table2Experiment, Fig8Fig9Experiment,
    Table1Experiment, Table3Experiment, Table4Experiment,
};
use crate::runner::Experiment;
use crate::ExpOptions;

/// The registered suite names, for `--help` text and error messages:
/// every experiment, then `all` and `det`.
pub const SUITE_NAMES: &[&str] = &[
    "fig4",
    "fig5",
    "fig6",
    "table3",
    "table4",
    "table1",
    "fig2",
    "fig7_table2",
    "fig8_fig9",
    "fig10",
    "ablation",
    "defense_extension",
    "all",
    "det",
];

/// Builds one named experiment, `None` for unknown names.
fn experiment(name: &str, opts: &ExpOptions) -> Option<Box<dyn Experiment>> {
    Some(match name {
        "fig4" => Box::new(Fig4Experiment::standard(opts)),
        "fig5" => Box::new(Fig5Experiment::standard(opts)),
        "fig6" => Box::new(Fig6Experiment::standard(opts)),
        "table3" => Box::new(Table3Experiment::standard(opts)),
        "table4" => Box::new(Table4Experiment::standard(opts)),
        "table1" => Box::new(Table1Experiment),
        "fig2" => Box::new(Fig2Experiment),
        "fig7_table2" => Box::new(Fig7Table2Experiment::standard(opts)),
        "fig8_fig9" => Box::new(Fig8Fig9Experiment::standard(opts)),
        "fig10" => Box::new(Fig10Experiment::standard(opts)),
        "ablation" => Box::new(AblationExperiment::standard(opts)),
        "defense_extension" => Box::new(DefenseExtensionExperiment::standard(opts)),
        "det" => Box::new(Fig4Experiment::tiny("det")),
        _ => return None,
    })
}

/// Builds the named experiment suite. `all` is the whole evaluation,
/// every experiment pooled on one runner; `det` is the seconds-scale
/// deterministic fig4 instance the determinism tests and the CI
/// tracker/peer smoke use. Returns `None` for unknown names.
pub fn suite_by_name(name: &str, opts: &ExpOptions) -> Option<Vec<Box<dyn Experiment>>> {
    if name == "all" {
        let every = SUITE_NAMES.iter().filter(|n| !matches!(**n, "all" | "det"));
        return every.map(|name| experiment(name, opts)).collect();
    }
    experiment(name, opts).map(|exp| vec![exp])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        let opts = ExpOptions::default();
        for name in SUITE_NAMES {
            let suite = suite_by_name(name, &opts).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!suite.is_empty(), "{name} built an empty suite");
        }
        assert!(suite_by_name("fig99", &opts).is_none());
    }

    #[test]
    fn suite_construction_is_fingerprint_stable() {
        // Tracker and peer construct independently; their layouts must
        // agree or the handshake would reject every worker.
        use crate::runner::SuiteLayout;
        let opts = ExpOptions::default();
        for name in SUITE_NAMES {
            let a = suite_by_name(name, &opts).unwrap();
            let b = suite_by_name(name, &opts).unwrap();
            let refs_a: Vec<&dyn Experiment> = a.iter().map(|e| e.as_ref()).collect();
            let refs_b: Vec<&dyn Experiment> = b.iter().map(|e| e.as_ref()).collect();
            assert_eq!(
                SuiteLayout::build(&refs_a, &opts).fingerprint,
                SuiteLayout::build(&refs_b, &opts).fingerprint,
                "{name} fingerprint unstable"
            );
        }
    }
}
