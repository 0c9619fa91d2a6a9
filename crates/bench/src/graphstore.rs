//! Chunked on-disk store for CSR graphs — the out-of-core leg of the
//! million-node substrate (DESIGN.md §13).
//!
//! A [`ba_graph::CsrGraph`] is split into fixed-size node ranges and
//! written as one text file per range plus a JSON manifest, all through
//! the same atomic-rename codec the experiment artifact layer uses
//! ([`ba_net::codec::write_atomic`], with the manifest's `edge_hash`
//! in the exact 16-hex-digit bit encoding of [`crate::artifact`]). The
//! layout lets a consumer walk a graph far larger than it wants resident
//! one chunk at a time ([`read_chunk_rows`]), while the full reader
//! ([`read_chunked`]) reassembles and *verifies*: it replays every edge
//! through [`ba_graph::compact::from_edge_stream`], so a reloaded graph
//! is bit-identical to the one written — offsets, columns, and Zobrist
//! edge hash — or the read fails loudly. The manifest is outside input:
//! a shape no writer emits is rejected before any chunk is read, and
//! every buffer grows from the bytes actually read, never from the
//! manifest's counts.
//!
//! ## Layout
//!
//! ```text
//! <dir>/graphstore.json   {"schema":1,"num_nodes":…,"num_edges":…,
//!                          "chunk_rows":…,"num_chunks":…,
//!                          "edge_hash":"<016x>"}
//! <dir>/chunk_00000.rows  one line per node in [0, chunk_rows):
//! <dir>/chunk_00001.rows  space-separated sorted neighbour ids
//! …
//! ```
//!
//! Rows store both edge directions (plain CSR), so chunk files are
//! self-contained: a chunk consumer sees every neighbour of its nodes
//! without touching other chunks.

use std::io;
use std::path::{Path, PathBuf};

use ba_graph::compact::{from_edge_stream, CompactError};
use ba_graph::{zobrist, CsrGraph, GraphView, NodeId};

use crate::artifact::{json_str_field, json_usize_field};
use ba_net::codec::write_atomic;

/// Manifest of a chunked graph store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStoreMeta {
    /// Node count.
    pub num_nodes: usize,
    /// Undirected edge count.
    pub num_edges: usize,
    /// Nodes per chunk (the last chunk may be shorter).
    pub chunk_rows: usize,
    /// Number of chunk files.
    pub num_chunks: usize,
    /// Zobrist edge-set hash of the stored graph.
    pub edge_hash: u64,
}

impl GraphStoreMeta {
    /// Node range `[lo, hi)` covered by chunk `k`.
    pub fn chunk_bounds(&self, k: usize) -> (usize, usize) {
        let lo = k.saturating_mul(self.chunk_rows).min(self.num_nodes);
        let hi = lo.saturating_add(self.chunk_rows).min(self.num_nodes);
        (lo, hi)
    }

    /// Rejects a shape [`write_chunked`] never emits: more nodes than
    /// `NodeId` can name, empty chunks over a non-empty graph, or a
    /// chunk count that does not tile the node range.
    fn check_shape(&self) -> Result<(), String> {
        let id_space = NodeId::MAX as usize + 1;
        if self.num_nodes > id_space {
            return Err(format!(
                "{} nodes exceed the {id_space}-node id space",
                self.num_nodes
            ));
        }
        let expected = match self.chunk_rows {
            0 if self.num_nodes > 0 => {
                return Err(format!("chunk_rows is 0 for {} nodes", self.num_nodes))
            }
            0 => 0,
            rows => self.num_nodes.div_ceil(rows),
        };
        if self.num_chunks != expected {
            return Err(format!(
                "{} chunks listed, but {} nodes in chunks of {} rows make {expected}",
                self.num_chunks, self.num_nodes, self.chunk_rows
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"schema\":1,\"num_nodes\":{},\"num_edges\":{},\"chunk_rows\":{},\
             \"num_chunks\":{},\"edge_hash\":\"{:016x}\"}}\n",
            self.num_nodes, self.num_edges, self.chunk_rows, self.num_chunks, self.edge_hash
        )
    }

    fn from_json(text: &str) -> Option<Self> {
        if json_usize_field(text, "schema")? != 1 {
            return None;
        }
        Some(Self {
            num_nodes: json_usize_field(text, "num_nodes")?,
            num_edges: json_usize_field(text, "num_edges")?,
            chunk_rows: json_usize_field(text, "chunk_rows")?,
            num_chunks: json_usize_field(text, "num_chunks")?,
            edge_hash: u64::from_str_radix(&json_str_field(text, "edge_hash")?, 16).ok()?,
        })
    }
}

/// A chunked read failed: filesystem error, malformed store, or a
/// reassembled graph that does not match its manifest.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// Manifest or chunk contents do not decode / do not match.
    Corrupt(String),
    /// The reassembled edge stream failed CSR validation.
    Compact(CompactError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "graph store io: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt graph store: {msg}"),
            StoreError::Compact(e) => write!(f, "graph store reassembly: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Compact(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CompactError> for StoreError {
    fn from(e: CompactError) -> Self {
        StoreError::Compact(e)
    }
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("graphstore.json")
}

fn chunk_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("chunk_{k:05}.rows"))
}

/// Writes `g` to `dir` as `ceil(n / chunk_rows)` chunk files plus a
/// manifest, each committed by atomic rename. Peak transient memory is
/// one chunk's text, not the whole serialisation.
pub fn write_chunked(dir: &Path, g: &CsrGraph, chunk_rows: usize) -> io::Result<GraphStoreMeta> {
    assert!(chunk_rows >= 1, "chunk_rows must be >= 1");
    std::fs::create_dir_all(dir)?;
    let n = g.num_nodes();
    let meta = GraphStoreMeta {
        num_nodes: n,
        num_edges: g.num_edges(),
        chunk_rows,
        num_chunks: n.div_ceil(chunk_rows),
        edge_hash: g.edge_hash(),
    };
    let mut buf = String::new();
    for k in 0..meta.num_chunks {
        let (lo, hi) = meta.chunk_bounds(k);
        buf.clear();
        for u in lo..hi {
            let row = g.neighbors_sorted(u as NodeId);
            for (idx, &v) in row.iter().enumerate() {
                if idx > 0 {
                    buf.push(' ');
                }
                // Decimal, not hex: node ids are small integers and the
                // file stays greppable; exactness only matters for the
                // f64 metrics, whose codec the manifest hash reuses.
                buf.push_str(&v.to_string());
            }
            buf.push('\n');
        }
        write_atomic(&chunk_path(dir, k), &buf)?;
    }
    // Manifest last: its presence marks the store complete.
    write_atomic(&manifest_path(dir), &meta.to_json())?;
    Ok(meta)
}

/// Loads the store manifest and checks its shape.
pub fn read_meta(dir: &Path) -> Result<GraphStoreMeta, StoreError> {
    let text = std::fs::read_to_string(manifest_path(dir))?;
    let meta = GraphStoreMeta::from_json(&text)
        .ok_or_else(|| StoreError::Corrupt(format!("unreadable manifest {text:?}")))?;
    meta.check_shape().map_err(StoreError::Corrupt)?;
    Ok(meta)
}

/// Reads one chunk's adjacency rows (nodes `meta.chunk_bounds(k)`),
/// without touching the rest of the store. This is the out-of-core
/// access path: resident memory is one chunk, whatever the graph size.
pub fn read_chunk_rows(
    dir: &Path,
    meta: &GraphStoreMeta,
    k: usize,
) -> Result<Vec<Vec<NodeId>>, StoreError> {
    let (lo, hi) = meta.chunk_bounds(k);
    let text = std::fs::read_to_string(chunk_path(dir, k))?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut row = Vec::new();
        for tok in line.split_ascii_whitespace() {
            let v: NodeId = tok
                .parse()
                .map_err(|_| StoreError::Corrupt(format!("bad node id {tok:?} in chunk {k}")))?;
            row.push(v);
        }
        rows.push(row);
    }
    if rows.len() != hi - lo {
        return Err(StoreError::Corrupt(format!(
            "chunk {k} holds {} rows, expected {}",
            rows.len(),
            hi - lo
        )));
    }
    Ok(rows)
}

/// Reassembles the full graph and verifies it against the manifest.
///
/// Every `u < v` pair from the chunk rows is replayed through
/// [`from_edge_stream`] — which re-validates endpoints, row order, and
/// recomputes the Zobrist hash from scratch — and the result must match
/// the manifest's edge count and hash exactly. A store written by
/// [`write_chunked`] therefore round-trips byte-for-byte (pinned by
/// proptest), and any mutation of the files fails the read.
pub fn read_chunked(dir: &Path) -> Result<CsrGraph, StoreError> {
    let meta = read_meta(dir)?;
    // One pass over the chunks collects the upper-triangle edges (in
    // row-major order — row-monotone for the cursor-fill builder: node
    // u's smaller neighbours arrive while scanning their rows, then its
    // larger ones from its own row, all ascending) and the raw column
    // array for post-build verification.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut stored_cols: Vec<NodeId> = Vec::new();
    for k in 0..meta.num_chunks {
        let (lo, _) = meta.chunk_bounds(k);
        for (i, row) in read_chunk_rows(dir, &meta, k)?.iter().enumerate() {
            let u = (lo + i) as NodeId;
            for &v in row.iter().filter(|&&v| v > u) {
                edges.push((u, v));
            }
            stored_cols.extend_from_slice(row);
        }
    }
    if edges.len() != meta.num_edges {
        return Err(StoreError::Corrupt(format!(
            "store holds {} upper-triangle edges, manifest says {}",
            edges.len(),
            meta.num_edges
        )));
    }
    let g = from_edge_stream(meta.num_nodes, || edges.iter().copied())?;
    // The rebuilt CSR's rows are derived from the upper-triangle edges
    // alone; their equality, in order, with the stored rows proves the
    // store was symmetric and per-row sorted, i.e. exactly what
    // write_chunked emits.
    let mut stored = stored_cols.as_slice();
    let closed = (0..g.num_nodes() as NodeId).all(|u| {
        stored
            .strip_prefix(g.neighbors_sorted(u))
            .map(|rest| stored = rest)
            .is_some()
    });
    if !closed || !stored.is_empty() {
        return Err(StoreError::Corrupt(
            "stored rows are not the symmetric closure of their upper-triangle edges".to_string(),
        ));
    }
    if g.edge_hash() != meta.edge_hash {
        return Err(StoreError::Corrupt(format!(
            "edge hash {:016x} does not match manifest {:016x}",
            g.edge_hash(),
            meta.edge_hash
        )));
    }
    Ok(g)
}

/// Folds a graph statistic chunk-by-chunk without assembling the CSR:
/// returns `(max_degree, sum_of_degrees, hash_of_upper_edges)`. Used by
/// the `large` perf gate to demonstrate — and test — that the store supports
/// out-of-core consumers whose answers match the in-memory graph.
pub fn fold_degree_stats(dir: &Path) -> Result<(usize, usize, u64), StoreError> {
    let meta = read_meta(dir)?;
    let (mut max_deg, mut deg_sum, mut hash) = (0usize, 0usize, 0u64);
    for k in 0..meta.num_chunks {
        let (lo, _) = meta.chunk_bounds(k);
        for (i, row) in read_chunk_rows(dir, &meta, k)?.iter().enumerate() {
            let u = (lo + i) as NodeId;
            max_deg = max_deg.max(row.len());
            deg_sum += row.len();
            for &v in row.iter().filter(|&&v| v > u) {
                hash ^= zobrist::edge_key(u, v);
            }
        }
    }
    Ok((max_deg, deg_sum, hash))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_graph::generators;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ba_graphstore_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let dir = temp_store("roundtrip");
        let g = CsrGraph::from(&generators::barabasi_albert(700, 4, 19));
        let meta = write_chunked(&dir, &g, 128).unwrap();
        assert_eq!(meta.num_chunks, 6);
        assert_eq!(read_meta(&dir).unwrap(), meta);
        let back = read_chunked(&dir).unwrap();
        assert_eq!(back, g, "store round-trip changed the CSR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_fold_matches_in_memory_stats() {
        let dir = temp_store("fold");
        let g = CsrGraph::from(&generators::erdos_renyi(400, 0.03, 5));
        write_chunked(&dir, &g, 37).unwrap();
        let (max_deg, deg_sum, hash) = fold_degree_stats(&dir).unwrap();
        let expect_max = (0..400).map(|u| g.degree(u)).max().unwrap();
        assert_eq!(max_deg, expect_max);
        assert_eq!(deg_sum, 2 * g.num_edges());
        assert_eq!(hash, g.edge_hash());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_store_fails_loudly() {
        let dir = temp_store("tamper");
        let g = CsrGraph::from(&generators::barabasi_albert(120, 3, 2));
        let meta = write_chunked(&dir, &g, 50).unwrap();
        // Flip one neighbour id in the middle chunk.
        let path = chunk_path(&dir, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen(' ', " 9 ", 1);
        std::fs::write(&path, tampered).unwrap();
        assert!(
            read_chunked(&dir).is_err(),
            "tampered chunk passed verification"
        );
        // Truncated chunk: row count mismatch.
        std::fs::write(&path, "").unwrap();
        match read_chunked(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("rows"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Intact chunks under a bad manifest hash.
        std::fs::write(&path, text).unwrap();
        assert_eq!(read_chunked(&dir).unwrap(), g);
        let mut bad = meta.clone();
        bad.edge_hash ^= 1;
        write_atomic(&manifest_path(&dir), &bad.to_json()).unwrap();
        match read_chunked(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("edge hash"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a valid 120-node store in chunks of 50, then overwrites
    /// its manifest with `edit` applied; returns what both readers say.
    fn read_with_manifest(
        name: &str,
        edit: impl FnOnce(&mut GraphStoreMeta),
    ) -> [Result<(), StoreError>; 2] {
        let dir = temp_store(name);
        let g = CsrGraph::from(&generators::barabasi_albert(120, 3, 2));
        let mut meta = write_chunked(&dir, &g, 50).unwrap();
        edit(&mut meta);
        write_atomic(&manifest_path(&dir), &meta.to_json()).unwrap();
        let out = [
            read_chunked(&dir).map(drop),
            fold_degree_stats(&dir).map(drop),
        ];
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn assert_corrupt(results: [Result<(), StoreError>; 2], needle: &str) {
        for r in results {
            match r {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected Corrupt({needle:?}), got {other:?}"),
            }
        }
    }

    #[test]
    fn huge_edge_count_is_not_an_allocation() {
        let results = read_with_manifest("huge_edges", |m| m.num_edges = 1_000_000_000_000_000);
        // The fold never reads `num_edges`; the full reader counts the
        // edges it read and rejects the claim.
        assert!(matches!(
            &results[0],
            Err(StoreError::Corrupt(msg)) if msg.contains("upper-triangle edges")
        ));
        assert!(results[1].is_ok());
    }

    #[test]
    fn zero_chunk_rows_rejected() {
        assert_corrupt(
            read_with_manifest("zero_rows", |m| m.chunk_rows = 0),
            "chunk_rows is 0",
        );
    }

    #[test]
    fn chunk_count_must_tile_the_nodes() {
        assert_corrupt(
            read_with_manifest("few_chunks", |m| m.num_chunks = 2),
            "chunks listed",
        );
        assert_corrupt(
            read_with_manifest("many_chunks", |m| m.num_chunks = usize::MAX),
            "chunks listed",
        );
    }

    #[test]
    fn node_count_past_id_space_rejected() {
        let too_many = NodeId::MAX as usize + 2;
        assert_corrupt(
            read_with_manifest("too_many_nodes", |m| {
                m.num_nodes = too_many;
                m.chunk_rows = too_many;
                m.num_chunks = 1;
            }),
            "id space",
        );
    }

    #[test]
    fn oversized_shapes_fail_on_the_data_read() {
        // A consistent shape whose first chunk claims 2^32 rows reserves
        // nothing from that claim: the 50-row chunk file fails the read.
        assert_corrupt(
            read_with_manifest("max_nodes", |m| {
                m.num_nodes = NodeId::MAX as usize + 1;
                m.chunk_rows = m.num_nodes;
                m.num_chunks = 1;
            }),
            "rows",
        );
        // `chunk_rows` near `usize::MAX` must not overflow chunk bounds.
        assert_corrupt(
            read_with_manifest("huge_rows", |m| {
                m.chunk_rows = usize::MAX;
                m.num_chunks = 1;
            }),
            "rows",
        );
        let meta = GraphStoreMeta {
            num_nodes: 10,
            num_edges: 0,
            chunk_rows: usize::MAX,
            num_chunks: 1,
            edge_hash: 0,
        };
        assert_eq!(meta.chunk_bounds(0), (0, 10));
        assert_eq!(meta.chunk_bounds(usize::MAX), (10, 10));
    }

    #[test]
    fn empty_and_single_chunk_stores() {
        let dir = temp_store("empty");
        let g = CsrGraph::from(&ba_graph::Graph::new(0));
        let meta = write_chunked(&dir, &g, 1000).unwrap();
        assert_eq!(meta.num_chunks, 0);
        assert_eq!(read_chunked(&dir).unwrap(), g);
        let one = CsrGraph::from(&generators::erdos_renyi(30, 0.2, 1));
        let meta = write_chunked(&dir, &one, 1000).unwrap();
        assert_eq!(meta.num_chunks, 1);
        assert_eq!(read_chunked(&dir).unwrap(), one);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
