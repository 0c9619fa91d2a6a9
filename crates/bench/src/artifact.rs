//! Durable experiment artifacts: per-cell row files committed by atomic
//! rename, plus a JSON manifest recording which cells completed.
//!
//! The orchestrator ([`crate::runner`]) writes each finished cell's
//! records to `<out>/.cells/<experiment>/cell_NNNN.rows` via a temp
//! file followed by `rename`, then updates `manifest.json` the same
//! way. A crash therefore never leaves a half-written cell visible, and
//! `--resume` replays only the missing cells. The manifest carries a
//! config fingerprint (seed / samples / profile / cell count); a
//! mismatch invalidates the whole store so stale cells can never leak
//! into a differently-configured run.
//!
//! Record payloads are opaque experiment-defined lines. Floating-point
//! values inside them should use the exact bit-level codec
//! ([`ba_net::codec`]) so a resumed run merges byte-identical artifacts
//! to a fresh one.

use ba_net::codec::{dec_f64, enc_f64, write_atomic};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Encodes a curve as `;`-joined exact floats.
pub fn enc_curve(curve: &[f64]) -> String {
    curve
        .iter()
        .map(|&x| enc_f64(x))
        .collect::<Vec<_>>()
        .join(";")
}

/// Inverse of [`enc_curve`]. Empty string decodes to an empty curve.
pub fn dec_curve(s: &str) -> Option<Vec<f64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(';').map(dec_f64).collect()
}

/// The per-experiment cell artifact directory.
#[derive(Debug, Clone)]
pub struct CellStore {
    dir: PathBuf,
}

impl CellStore {
    /// Opens (creating on demand) `<out_dir>/.cells/<experiment>`.
    pub fn open(out_dir: &Path, experiment: &str) -> io::Result<Self> {
        let dir = out_dir.join(".cells").join(experiment);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Path of a cell's committed row file.
    pub fn cell_path(&self, cell: usize) -> PathBuf {
        self.dir.join(format!("cell_{cell:04}.rows"))
    }

    /// Commits a cell's rows atomically. Rows must be non-empty and
    /// newline-free (`\n` is the record separator and an empty row
    /// would be dropped by the reader) — enforced here, in release
    /// builds too, so an ill-formed row can never silently break the
    /// resume byte-identity contract.
    pub fn write_cell(&self, cell: usize, rows: &[String]) -> io::Result<()> {
        assert!(
            rows.iter().all(|r| !r.is_empty() && !r.contains('\n')),
            "cell rows must be non-empty and newline-free"
        );
        let mut buf = String::new();
        for row in rows {
            buf.push_str(row);
            buf.push('\n');
        }
        write_atomic(&self.cell_path(cell), &buf)
    }

    /// Reads a committed cell's rows; `None` if the file is absent.
    pub fn read_cell(&self, cell: usize) -> Option<Vec<String>> {
        let text = std::fs::read_to_string(self.cell_path(cell)).ok()?;
        Some(text.lines().map(str::to_string).collect())
    }

    /// Deletes every committed cell and the manifest (fresh-run reset).
    pub fn clear(&self) -> io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.is_file() {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

/// Completion record for one experiment run: which cells are committed,
/// under which configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Experiment name (sanity cross-check against the store path).
    pub experiment: String,
    /// Run-configuration fingerprint; resume requires an exact match.
    pub fingerprint: String,
    /// Total cells the experiment decomposes into.
    pub num_cells: usize,
    /// Cells whose row files are committed.
    pub completed: BTreeSet<usize>,
}

impl Manifest {
    /// A fresh manifest with no completed cells.
    pub fn new(experiment: &str, fingerprint: &str, num_cells: usize) -> Self {
        Self {
            experiment: experiment.to_string(),
            fingerprint: fingerprint.to_string(),
            num_cells,
            completed: BTreeSet::new(),
        }
    }

    /// Serialises to JSON (the only JSON this workspace emits, so it is
    /// hand-rolled rather than pulling in a serde_json dependency the
    /// offline build cannot fetch).
    pub fn to_json(&self) -> String {
        let completed: Vec<String> = self.completed.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"experiment\":\"{}\",\"fingerprint\":\"{}\",\"num_cells\":{},\"completed\":[{}]}}\n",
            escape(&self.experiment),
            escape(&self.fingerprint),
            self.num_cells,
            completed.join(",")
        )
    }

    /// Parses the JSON emitted by [`Manifest::to_json`]. Returns `None`
    /// on any malformed input (the caller then falls back to a fresh
    /// run — a corrupt manifest must never poison a resume).
    pub fn from_json(text: &str) -> Option<Self> {
        let experiment = json_str_field(text, "experiment")?;
        let fingerprint = json_str_field(text, "fingerprint")?;
        let num_cells = json_usize_field(text, "num_cells")?;
        let completed = json_usize_array(text, "completed")?;
        Some(Self {
            experiment,
            fingerprint,
            num_cells,
            completed,
        })
    }

    /// Loads a manifest from disk; `None` if absent or malformed.
    pub fn load(path: &Path) -> Option<Self> {
        Self::from_json(&std::fs::read_to_string(path).ok()?)
    }

    /// Saves the manifest atomically.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.to_json())
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn unescape(s: &str) -> String {
    s.replace("\\\"", "\"").replace("\\\\", "\\")
}

/// Extracts `"key":"value"` from a flat JSON object (no nested quotes
/// beyond the escapes [`escape`] produces). Shared with the
/// [`crate::graphstore`] manifest, which reuses this codec.
pub(crate) fn json_str_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(unescape(&rest[..end])),
            _ => end += 1,
        }
    }
    None
}

pub(crate) fn json_usize_field(text: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let digits: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn json_usize_array(text: &str, key: &str) -> Option<BTreeSet<usize>> {
    let pat = format!("\"{key}\":[");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find(']')? + start;
    let body = text[start..end].trim();
    if body.is_empty() {
        return Some(BTreeSet::new());
    }
    body.split(',').map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_codec_roundtrip() {
        let curve = vec![0.0, 0.1 + 0.2, -7.5e300];
        assert_eq!(dec_curve(&enc_curve(&curve)).unwrap(), curve);
        assert_eq!(dec_curve("").unwrap(), Vec::<f64>::new());
        assert_eq!(dec_curve("bogus"), None);
    }

    #[test]
    fn manifest_json_roundtrip() {
        let mut m = Manifest::new("fig4", "seed=7,samples=3,paper=false,cells=24", 24);
        m.completed.extend([0, 3, 17]);
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        // Empty completed set too.
        let empty = Manifest::new("x\"y", "fp", 1);
        assert_eq!(Manifest::from_json(&empty.to_json()).unwrap(), empty);
        // Garbage is rejected, not misparsed.
        assert_eq!(Manifest::from_json("{nonsense"), None);
    }

    #[test]
    fn cell_store_commit_and_reload() {
        let dir = std::env::temp_dir().join("ba_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::open(&dir, "unit").unwrap();
        assert_eq!(store.read_cell(0), None);
        store
            .write_cell(0, &["a,1".to_string(), "b,2".to_string()])
            .unwrap();
        assert_eq!(store.read_cell(0).unwrap(), vec!["a,1", "b,2"]);
        // Ill-formed rows are rejected loudly instead of corrupting the
        // resume round-trip.
        for bad in ["", "x\ny"] {
            let result = std::panic::catch_unwind(|| store.write_cell(1, &[bad.to_string()]));
            assert!(result.is_err(), "row {bad:?} accepted");
        }
        // No stray temp file survives the commit.
        assert!(!store.cell_path(0).with_extension("tmp").exists());
        store.clear().unwrap();
        assert_eq!(store.read_cell(0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
