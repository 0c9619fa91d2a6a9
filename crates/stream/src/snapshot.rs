//! Bit-exact engine snapshots: a killed stream resumes byte-identically.
//!
//! The snapshot uses the leaf [`ba_net::codec`] durability primitives —
//! [`write_atomic`] (temp file + rename, so a crash mid-save never
//! leaves a torn snapshot visible) and the exact IEEE-754 text codec
//! ([`enc_f64`]/[`dec_f64`]) for every float. The overlay's dirty rows
//! are stored verbatim (not just the materialised edge set), so a
//! restored engine carries the *same* dirty-row count and therefore
//! compacts at the same future batches as the uninterrupted run —
//! keeping even the `compacted` flags of later summaries identical.
//!
//! Features and regression state are re-derived on restore rather than
//! stored: features are exact integer counts, and the incremental-fit
//! engine guarantees a fresh accumulation of the same rows refits
//! bit-identically to the churned statistics (the stored `params` line
//! is verified against the re-derived fit as an integrity check).
//!
//! The reader accepts exactly what the writer emits: canonical decimal
//! integers, 16-digit lowercase hex floats, single spaces, base edges in
//! strictly ascending `u < v` order, edit rows that keep the graph
//! undirected, and nothing after the `end` line. So a file either fails
//! with a typed error or restores an engine that saves it back byte for
//! byte (pinned by a mutation fuzz).

use crate::{StreamConfig, StreamEngine};
use ba_graph::{CsrGraph, Graph, GraphView, NodeId, OverlayEdits};
use ba_net::codec::{dec_f64, enc_f64, write_atomic};
use ba_oddball::Regressor;
use std::path::Path;

const MAGIC: &str = "ba-stream-snapshot v1";

/// Errors raised while restoring a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file is not a well-formed v1 snapshot.
    Malformed(String),
    /// The stored parameters disagree with the re-derived fit — the
    /// snapshot was not produced by this engine version/state.
    ParamsMismatch,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::ParamsMismatch => {
                write!(f, "restored fit disagrees with the stored parameters")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn enc_regressor(r: Regressor) -> String {
    match r {
        Regressor::Ols => "ols".to_string(),
        Regressor::Huber { k } => format!("huber {}", enc_f64(k)),
        Regressor::Ransac {
            trials,
            inlier_k,
            seed,
        } => format!("ransac {trials} {} {seed}", enc_f64(inlier_k)),
    }
}

fn dec_regressor(s: &str) -> Option<Regressor> {
    let mut parts = s.split(' ');
    let r = match parts.next()? {
        "ols" => Regressor::Ols,
        "huber" => Regressor::Huber {
            k: dec_hex(parts.next()?)?,
        },
        "ransac" => Regressor::Ransac {
            trials: dec_int(parts.next()?)?,
            inlier_k: dec_hex(parts.next()?)?,
            seed: dec_int(parts.next()?)?,
        },
        _ => return None,
    };
    parts.next().is_none().then_some(r)
}

/// A decimal integer exactly as the writer prints one: digits only, no
/// sign, no leading zero.
fn dec_int<T: std::str::FromStr>(s: &str) -> Option<T> {
    let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    canonical.then(|| s.parse().ok()).flatten()
}

/// An `f64` exactly as [`enc_f64`] prints one: 16 lowercase hex digits.
fn dec_hex(s: &str) -> Option<f64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| dec_f64(s)).flatten()
}

/// `true` when `rows`, ascending by node, over `base` form an
/// undirected graph: each row lists back every node its row lists, and
/// a base edge a row drops is dropped at its other end too.
fn edits_are_symmetric(base: &CsrGraph, rows: &[(NodeId, Vec<NodeId>)]) -> bool {
    let row_of = |v: NodeId| match rows.binary_search_by_key(&v, |(w, _)| *w) {
        Ok(i) => &rows[i].1[..],
        Err(_) => base.neighbors_sorted(v),
    };
    rows.iter().all(|(u, row)| {
        let listed = |v: NodeId| row_of(v).binary_search(u).is_ok();
        row.iter().all(|&v| listed(v))
            && base
                .neighbors_sorted(*u)
                .iter()
                .all(|&v| row.binary_search(&v).is_ok() || !listed(v))
    })
}

impl StreamEngine {
    /// Saves the engine state atomically (temp file + rename).
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        write_atomic(path.as_ref(), &self.encode_snapshot())
    }

    /// The snapshot text of the engine's state.
    fn encode_snapshot(&self) -> String {
        let base = self.base();
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "regressor {}\n",
            enc_regressor(self.config().regressor)
        ));
        out.push_str(&format!(
            "compact_fraction {}\n",
            enc_f64(self.config().compact_fraction)
        ));
        out.push_str(&format!("nodes {}\n", self.num_nodes()));
        out.push_str(&format!(
            "counters {} {} {}\n",
            self.batches_ingested(),
            self.events_ingested(),
            self.compactions()
        ));
        out.push_str(&format!("base {}\n", base.num_edges()));
        base.for_each_edge(|u, v| {
            out.push_str(&format!("{u} {v}\n"));
        });
        let rows = self.edits().dirty_rows_sorted();
        out.push_str(&format!("edits {} {}\n", rows.len(), self.num_edges()));
        for (u, row) in rows {
            out.push_str(&format!("{u} {}", row.len()));
            for v in row {
                out.push_str(&format!(" {v}"));
            }
            out.push('\n');
        }
        match self.params() {
            Ok(p) => out.push_str(&format!(
                "params ok {} {}\n",
                enc_f64(p.beta0),
                enc_f64(p.beta1)
            )),
            Err(reason) => out.push_str(&format!("params err {reason}\n")),
        }
        out.push_str("end\n");
        out
    }

    /// Restores an engine from a snapshot.
    pub fn restore_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(&std::fs::read(path)?)
    }

    /// Restores an engine from snapshot bytes.
    fn decode_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let malformed = |what: &str| SnapshotError::Malformed(what.to_string());
        let text = std::str::from_utf8(bytes).map_err(|_| malformed("not UTF-8"))?;
        // Every line the writer emits ends in '\n', the last one too.
        let text = text
            .strip_suffix('\n')
            .ok_or_else(|| malformed("missing final newline (truncated?)"))?;
        let mut lines = text.split('\n');
        if lines.next() != Some(MAGIC) {
            return Err(malformed("missing header"));
        }
        fn field<'a>(
            lines: &mut impl Iterator<Item = &'a str>,
            key: &str,
        ) -> Result<String, SnapshotError> {
            let line = lines
                .next()
                .ok_or_else(|| SnapshotError::Malformed(format!("missing {key}")))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| {
                    SnapshotError::Malformed(format!("expected {key} line, got {line:?}"))
                })
        }
        let regressor = dec_regressor(&field(&mut lines, "regressor")?)
            .ok_or_else(|| malformed("regressor"))?;
        let compact_fraction = dec_hex(&field(&mut lines, "compact_fraction")?)
            .ok_or_else(|| malformed("compact_fraction"))?;
        let nodes: usize =
            dec_int(&field(&mut lines, "nodes")?).ok_or_else(|| malformed("nodes"))?;
        if nodes > NodeId::MAX as usize + 1 {
            return Err(malformed("more nodes than node ids"));
        }
        let counters: Vec<u64> = field(&mut lines, "counters")?
            .split(' ')
            .map(dec_int)
            .collect::<Option<_>>()
            .ok_or_else(|| malformed("counters"))?;
        let [batches, events_seen, compactions] = counters[..] else {
            return Err(malformed("counters arity"));
        };

        let base_edges: usize =
            dec_int(&field(&mut lines, "base")?).ok_or_else(|| malformed("base"))?;
        // The node count sizes every per-node table; one that cannot be
        // allocated is a malformed file, not a reason to abort.
        let too_many = |_| malformed("node count too large to allocate");
        let mut g = Graph::try_new(nodes).map_err(too_many)?;
        let mut last = None;
        for _ in 0..base_edges {
            let line = lines.next().ok_or_else(|| malformed("base edge"))?;
            let (u, v): (NodeId, NodeId) = line
                .split_once(' ')
                .and_then(|(a, b)| Some((dec_int(a)?, dec_int(b)?)))
                .ok_or_else(|| malformed("base edge"))?;
            // Range-check before Graph::add_edge, whose out-of-range
            // assert would panic instead of returning Malformed.
            if v as usize >= nodes {
                return Err(malformed("base edge node out of range"));
            }
            // The writer lists each edge once, as `u < v`, ascending.
            if u >= v || last >= Some((u, v)) {
                return Err(malformed("base edges not in ascending u < v order"));
            }
            last = Some((u, v));
            g.add_edge(u, v);
        }
        let base = CsrGraph::from(&g);

        let edits_line = field(&mut lines, "edits")?;
        let (dirty_count, num_edges) = edits_line
            .split_once(' ')
            .and_then(|(a, b)| Some((dec_int::<usize>(a)?, dec_int::<usize>(b)?)))
            .ok_or_else(|| malformed("edits"))?;
        // At most one edit row per node: a larger count is corrupt, and
        // trusting it would size the allocation below from the file.
        if dirty_count > nodes {
            return Err(malformed("more edit rows than nodes"));
        }
        let mut dirty_rows: Vec<(NodeId, Vec<NodeId>)> = Vec::with_capacity(dirty_count);
        // Row-length change over the base: twice the edge-count change.
        let mut grown = 0isize;
        for _ in 0..dirty_count {
            let line = lines.next().ok_or_else(|| malformed("edit row"))?;
            let mut toks = line.split(' ');
            let parsed = (|| {
                let u: NodeId = dec_int(toks.next()?)?;
                let len: usize = dec_int(toks.next()?)?;
                let row: Vec<NodeId> = toks.map(dec_int).collect::<Option<_>>()?;
                // Out-of-range ids would index out of bounds in
                // OverlayEdits::try_from_rows; reject them here instead.
                let in_range = (u as usize) < nodes && row.iter().all(|&v| (v as usize) < nodes);
                // A sorted row without its own node lists distinct ids
                // other than `u`: fewer than 2^32, as the overlay's
                // slots assume.
                let simple = row.windows(2).all(|w| w[0] < w[1]) && row.binary_search(&u).is_err();
                (in_range && row.len() == len && simple).then_some((u, row))
            })();
            let (u, row) = parsed.ok_or_else(|| malformed("edit row"))?;
            // The writer emits rows in strictly ascending node order; a
            // repeated node would silently replace its earlier row.
            if dirty_rows.last().is_some_and(|&(prev, _)| prev >= u) {
                return Err(malformed("edit rows not in ascending node order"));
            }
            grown += row.len() as isize - base.degree(u) as isize;
            dirty_rows.push((u, row));
        }
        if grown as i128 != 2 * (num_edges as i128 - base_edges as i128) {
            return Err(malformed("edits edge count disagrees with the rows"));
        }
        if !edits_are_symmetric(&base, &dirty_rows) {
            return Err(malformed("edit rows list an edge at one end only"));
        }
        let edits = OverlayEdits::try_from_rows(nodes, num_edges, dirty_rows).map_err(too_many)?;

        let params_line = lines.next().ok_or_else(|| malformed("params"))?;
        if lines.next() != Some("end") {
            return Err(malformed("missing end marker (truncated?)"));
        }
        if lines.next().is_some() {
            return Err(malformed("lines after the end marker"));
        }

        let cfg = StreamConfig {
            compact_fraction,
            regressor,
            ..StreamConfig::default()
        };
        let engine = Self::from_parts(base, edits, cfg, batches, events_seen, compactions);
        // Integrity check: the re-derived fit must reproduce the stored
        // parameters bit-for-bit (or the same degeneracy).
        let stored_ok = params_line.strip_prefix("params ok ").map(|rest| {
            rest.split_once(' ')
                .and_then(|(a, b)| Some((dec_hex(a)?, dec_hex(b)?)))
        });
        let stored_err = params_line.strip_prefix("params err ");
        match (stored_ok, stored_err, engine.params()) {
            (Some(Some((b0, b1))), _, Ok(p))
                if b0.to_bits() == p.beta0.to_bits() && b1.to_bits() == p.beta1.to_bits() => {}
            (Some(Some(_)), _, _) => return Err(SnapshotError::ParamsMismatch),
            (None, Some(stored), Err(reason)) if stored == reason => {}
            (None, Some(_), _) => return Err(SnapshotError::ParamsMismatch),
            _ => return Err(malformed("params")),
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::synthetic_stream;
    use ba_graph::generators;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ba_stream_snapshot_{tag}"))
    }

    #[test]
    fn save_restore_roundtrips_state() {
        let g = generators::erdos_renyi(120, 0.05, 3);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        let events = synthetic_stream(&g, 120, 8);
        for batch in events.chunks(30) {
            engine.ingest_batch(batch);
        }
        let path = temp("roundtrip");
        engine.save_snapshot(&path).unwrap();
        let restored = StreamEngine::restore_snapshot(&path).unwrap();
        assert_eq!(restored.num_nodes(), engine.num_nodes());
        assert_eq!(restored.num_edges(), engine.num_edges());
        assert_eq!(restored.batches_ingested(), engine.batches_ingested());
        assert_eq!(restored.events_ingested(), engine.events_ingested());
        assert_eq!(restored.compactions(), engine.compactions());
        assert_eq!(restored.dirty_rows(), engine.dirty_rows());
        assert_eq!(restored.to_graph(), engine.to_graph());
        assert_eq!(restored.features(), engine.features());
        let (a, b) = (restored.params().unwrap(), engine.params().unwrap());
        assert_eq!(a.beta0.to_bits(), b.beta0.to_bits());
        assert_eq!(a.beta1.to_bits(), b.beta1.to_bits());
        // No stray temp file from the atomic write.
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let engine = StreamEngine::new(&g, StreamConfig::default());
        let path = temp("truncated");
        engine.save_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();
        assert!(matches!(
            StreamEngine::restore_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_node_ids_rejected_not_panicked() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        // Dirty a row so the snapshot carries an edits section too.
        engine.ingest_batch(&[crate::StreamEvent::new(0, 0, 39, true)]);
        let path = temp("out_of_range");
        engine.save_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Corrupt a base-edge endpoint and, separately, an edit-row id.
        let lines: Vec<&str> = text.lines().collect();
        let base_at = lines.iter().position(|l| l.starts_with("base ")).unwrap();
        let edits_at = lines.iter().position(|l| l.starts_with("edits ")).unwrap();
        for corrupt_at in [base_at + 1, edits_at + 1] {
            let mut bad: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            let mut toks: Vec<String> = bad[corrupt_at].split(' ').map(str::to_string).collect();
            toks[0] = "5000".to_string();
            bad[corrupt_at] = toks.join(" ");
            std::fs::write(&path, bad.join("\n") + "\n").unwrap();
            assert!(
                matches!(
                    StreamEngine::restore_snapshot(&path),
                    Err(SnapshotError::Malformed(_))
                ),
                "corrupting line {corrupt_at} did not surface as Malformed"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_edit_count_rejected_before_allocating() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let engine = StreamEngine::new(&g, StreamConfig::default());
        let path = temp("oversized_edits");
        engine.save_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let edits = text.lines().find(|l| l.starts_with("edits ")).unwrap();
        let num_edges = edits.split(' ').nth(2).unwrap();
        // One row more than there are nodes, and a count whose
        // reservation alone would abort the process.
        for count in ["41", "1000000000000"] {
            let bad = text.replace(edits, &format!("edits {count} {num_edges}"));
            std::fs::write(&path, bad).unwrap();
            assert!(
                matches!(
                    StreamEngine::restore_snapshot(&path),
                    Err(SnapshotError::Malformed(_))
                ),
                "edits count {count} was not rejected"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn impossible_node_count_rejected_without_allocating() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let engine = StreamEngine::new(&g, StreamConfig::default());
        let path = temp("huge_nodes");
        engine.save_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // A node table this long exceeds `isize::MAX` bytes, so its
        // `try_reserve_exact` fails before the allocator is asked for
        // anything; an infallible `Vec` would panic or abort instead.
        let bad = text.replace("\nnodes 40\n", &format!("\nnodes {}\n", usize::MAX / 8));
        assert_ne!(bad, text);
        std::fs::write(&path, bad).unwrap();
        assert!(matches!(
            StreamEngine::restore_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Edit rows must come in strictly ascending node order, as the
    /// writer emits them: a repeated node would replace its earlier row.
    /// Nor may a row list its own node.
    #[test]
    fn unordered_repeated_or_self_loop_edit_rows_rejected() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        engine.ingest_batch(&[
            crate::StreamEvent::new(0, 0, 39, true),
            crate::StreamEvent::new(1, 5, 20, true),
        ]);
        let path = temp("unordered_rows");
        engine.save_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let first = lines.iter().position(|l| l.starts_with("edits ")).unwrap() + 1;
        for (a, b) in [(first + 1, first), (first, first)] {
            let mut bad = lines.clone();
            bad[first] = lines[a];
            bad[first + 1] = lines[b];
            std::fs::write(&path, bad.join("\n") + "\n").unwrap();
            assert!(
                matches!(
                    StreamEngine::restore_snapshot(&path),
                    Err(SnapshotError::Malformed(_))
                ),
                "rows {a}, {b} at the head of the edits section were accepted"
            );
        }
        // A self-loop in each of the first two rows, with the edge count
        // raised to match, so only the self-loop check can object.
        let mut bad: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        for at in [first, first + 1] {
            let mut ids: Vec<NodeId> = lines[at].split(' ').map(|t| t.parse().unwrap()).collect();
            let u = ids[0];
            let mut row = ids.split_off(2);
            row.push(u);
            row.sort_unstable();
            let row: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            bad[at] = format!("{u} {} {}", row.len(), row.join(" "));
        }
        let (count, m) = lines[first - 1][6..].split_once(' ').unwrap();
        bad[first - 1] = format!("edits {count} {}", m.parse::<usize>().unwrap() + 1);
        std::fs::write(&path, bad.join("\n") + "\n").unwrap();
        assert!(matches!(
            StreamEngine::restore_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn edits_edge_count_must_match_the_rows() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        let path = temp("edge_count");
        for dirty in [false, true] {
            if dirty {
                engine.ingest_batch(&[crate::StreamEvent::new(0, 0, 39, true)]);
            }
            engine.save_snapshot(&path).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let edits = text.lines().find(|l| l.starts_with("edits ")).unwrap();
            let (count, m) = edits[6..].split_once(' ').unwrap();
            let m: usize = m.parse().unwrap();
            let bad = text.replace(edits, &format!("edits {count} {}", m + 1));
            std::fs::write(&path, bad).unwrap();
            assert!(matches!(
                StreamEngine::restore_snapshot(&path),
                Err(SnapshotError::Malformed(_))
            ));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_params_rejected() {
        let g = generators::erdos_renyi(40, 0.1, 1);
        let engine = StreamEngine::new(&g, StreamConfig::default());
        let path = temp("tampered");
        engine.save_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let p = engine.params().unwrap();
        let tampered = text.replace(&enc_f64(p.beta0), &enc_f64(p.beta0 + 1.0));
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(
            StreamEngine::restore_snapshot(&path),
            Err(SnapshotError::ParamsMismatch)
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Deterministic mutations of a snapshot taken after compactions of
    /// both kinds, with edits pending: every truncation, every single
    /// bit flip, inflated `nodes`, `base` and edit counts, and lines
    /// deleted, doubled, swapped and moved. Each must fail with a typed
    /// error or restore an engine that saves the mutated bytes back
    /// exactly. Inflated counts are either small or beyond what the
    /// reader will allocate for, so none may allocate in proportion.
    #[test]
    fn mutated_snapshots_fail_typed_or_roundtrip_exactly() {
        let g = generators::erdos_renyi(48, 0.1, 5);
        let mut engine = StreamEngine::new(&g, StreamConfig::default());
        for batch in synthetic_stream(&g, 400, 17).chunks(20) {
            engine.ingest_batch(batch);
        }
        engine.ingest_batch(&[crate::StreamEvent::new(0, 0, 47, true)]);
        assert!(engine.relayouts() >= 1 && engine.compactions() > engine.relayouts());
        assert!(engine.dirty_rows() > 0, "no edits pending");
        let text = engine.encode_snapshot();
        let accepted = |bytes: &[u8], what: &str| match StreamEngine::decode_snapshot(bytes) {
            Ok(restored) => {
                let back = restored.encode_snapshot();
                assert!(
                    back.as_bytes() == bytes,
                    "{what}: restored, but saves back otherwise"
                );
                true
            }
            Err(SnapshotError::Malformed(_) | SnapshotError::ParamsMismatch) => false,
            Err(SnapshotError::Io(e)) => panic!("{what}: io error {e} without any io"),
        };
        assert!(accepted(text.as_bytes(), "the snapshot itself"));

        for cut in 0..text.len() {
            let what = format!("truncated to {cut} bytes");
            assert!(
                !accepted(&text.as_bytes()[..cut], &what),
                "{what}: accepted"
            );
        }

        let mut flips_accepted = 0;
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                flips_accepted += usize::from(accepted(&bytes, &format!("bit {bit} of byte {at}")));
            }
        }
        // Counter digits, for one, may change freely.
        assert!(flips_accepted > 0);

        let lines: Vec<&str> = text.lines().collect();
        let at = |key: &str| lines.iter().position(|l| l.starts_with(key)).unwrap();
        let replaced = |i: usize, line: String| {
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            out[i] = line;
            out.join("\n") + "\n"
        };
        let (nodes, base, edits) = (at("nodes "), at("base "), at("edits "));
        let (count, edges) = lines[edits][6..].split_once(' ').unwrap();
        let huge = [
            "4294967297",
            "18446744073709551615",
            "1000000000000000000000000000000",
        ];
        let inflate = |x: &str| {
            let x: u128 = x.parse().unwrap();
            let mut values: Vec<String> = [x + 1, 2 * x, 10 * x].map(|v| v.to_string()).into();
            values.extend(huge.map(str::to_string));
            values
        };
        for v in inflate(&lines[nodes][6..]) {
            accepted(
                replaced(nodes, format!("nodes {v}")).as_bytes(),
                "inflated nodes",
            );
        }
        for v in inflate(&lines[base][5..]) {
            let bad = replaced(base, format!("base {v}"));
            assert!(
                !accepted(bad.as_bytes(), "inflated base"),
                "base {v}: accepted"
            );
        }
        for v in inflate(count) {
            let bad = replaced(edits, format!("edits {v} {edges}"));
            assert!(
                !accepted(bad.as_bytes(), "inflated edit rows"),
                "edits {v}: accepted"
            );
        }
        for v in inflate(edges) {
            let bad = replaced(edits, format!("edits {count} {v}"));
            assert!(
                !accepted(bad.as_bytes(), "inflated edit edges"),
                "edits .. {v}: accepted"
            );
        }

        let last = lines.len() - 1;
        for i in 0..lines.len() {
            let mut deleted = lines.clone();
            let line = deleted.remove(i);
            let mut doubled = lines.clone();
            doubled.insert(i, line);
            let mut swapped = lines.clone();
            swapped.swap(i, (i + 1).min(last));
            let mut to_end = deleted.clone();
            to_end.push(line);
            let mut to_front = deleted.clone();
            to_front.insert(0, line);
            for (name, bad) in [
                ("deleted", deleted),
                ("doubled", doubled),
                ("swapped with the next", swapped),
                ("moved to the end", to_end),
                ("moved to the front", to_front),
            ] {
                let bad = bad.join("\n") + "\n";
                if bad != text {
                    let what = format!("line {i} {name}");
                    assert!(!accepted(bad.as_bytes(), &what), "{what}: accepted");
                }
            }
        }
    }

    #[test]
    fn regressor_codec_roundtrip() {
        for r in [
            Regressor::Ols,
            Regressor::default_huber(),
            Regressor::default_ransac(99),
        ] {
            assert_eq!(dec_regressor(&enc_regressor(r)), Some(r));
        }
        assert_eq!(dec_regressor("bogus"), None);
    }
}
