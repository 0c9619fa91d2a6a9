//! The streamed two-pass CSR builder for million-node graphs.
//!
//! [`from_edge_stream`](crate::compact::from_edge_stream) builds a
//! [`CsrGraph`] directly from a restartable edge iterator in two
//! counting passes — degrees + hash first, column fill second — so the
//! full edge list is never materialised. Paired with the streamed
//! generators ([`crate::generators::erdos_renyi_stream`] /
//! [`crate::generators::barabasi_albert_stream`]) the builder's own
//! peak is the final CSR plus `O(n)` scratch, not the `O(m)` edge `Vec`
//! the in-memory builders temporarily hold. The stream adds whatever it
//! holds itself: nothing that grows for Erdős–Rényi, but the
//! Barabási–Albert stream keeps one `u32` per edge emitted (the targets
//! it samples by degree). Each pass builds that list afresh, and in pass
//! two it sits beside the CSR being filled: at `n = 10^5, m = 11` the
//! whole process peaks at a `VmHWM` of 16,468 kB for a 9.6 MB CSR.
//! Bit-identity between the streamed and in-memory
//! paths is pinned by the proptests in `tests/proptests.rs`.

use crate::zobrist::edge_key;
use crate::{CsrGraph, NodeId};

/// Why a streamed build could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactError {
    /// A streamed edge was a self-loop or referenced a node `>= n`.
    BadEdge {
        /// First endpoint as emitted.
        u: NodeId,
        /// Second endpoint as emitted.
        v: NodeId,
    },
    /// The edge stream was not row-monotone: node `node`'s neighbour
    /// row came out unsorted (or contained a duplicate), which means
    /// the stream violated the sorted-row-order emission contract.
    UnsortedRow(NodeId),
    /// The stream's two passes disagreed — the edge-iterator factory is
    /// not restartable (the second pass saw a different edge count).
    NonRestartableStream {
        /// Edges counted by the first pass.
        first: usize,
        /// Edges seen by the second pass, capped at `first + 1`: pass
        /// two stops reading at the first edge past `first`, so an
        /// endless second stream cannot hang the build. Any longer
        /// second pass reports `first + 1`.
        second: usize,
    },
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::BadEdge { u, v } => {
                write!(f, "streamed edge ({u}, {v}) is a self-loop or out of range")
            }
            CompactError::UnsortedRow(node) => write!(
                f,
                "row {node} came out unsorted; the edge stream is not row-monotone"
            ),
            CompactError::NonRestartableStream { first, second } => write!(
                f,
                "edge stream is not restartable: pass 1 saw {first} edges, pass 2 saw {second}"
            ),
        }
    }
}

impl std::error::Error for CompactError {}

/// Builds a [`CsrGraph`] from a *restartable* edge stream without
/// materialising the edge list.
///
/// `make_edges` is called twice and must yield the identical sequence
/// of undirected edges both times (any order is accepted as long as
/// each node's incident edges arrive with monotonically increasing
/// other-endpoints — the *row-monotone* contract the streamed
/// generators guarantee; see `DESIGN.md` §13). Pass one counts degrees
/// into the row pointers and folds the Zobrist edge hash; pass two
/// drops each half-edge into its row cursor. The builder's peak scratch
/// is the `n` cursor array — the final CSR aside, nothing it holds grows
/// with `m`; what the stream itself holds comes on top (see the module
/// docs).
///
/// Every edge is validated (no self-loops, endpoints `< n`), the final
/// rows are checked strictly increasing, and a stream that yields
/// different edge counts across the two passes is reported as
/// [`CompactError::NonRestartableStream`] rather than producing a
/// corrupt graph.
pub fn from_edge_stream<I, F>(n: usize, make_edges: F) -> Result<CsrGraph, CompactError>
where
    F: Fn() -> I,
    I: Iterator<Item = (NodeId, NodeId)>,
{
    // Pass 1: degrees (counted at `offsets[u + 1]`), edge count, hash.
    let mut offsets = vec![0usize; n + 1];
    let mut num_edges = 0usize;
    let mut edge_hash = 0u64;
    for (u, v) in make_edges() {
        if u == v || u as usize >= n || v as usize >= n {
            return Err(CompactError::BadEdge { u, v });
        }
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
        num_edges += 1;
        edge_hash ^= edge_key(u, v);
    }

    // Prefix-sum the degrees into row pointers; a copy of the row
    // starts is the per-row write cursor for pass 2.
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let mut cursor = offsets[..n].to_vec();

    // Pass 2: fill both half-edges at their row cursors.
    let mut cols = vec![0 as NodeId; 2 * num_edges];
    let mut second = 0usize;
    for (u, v) in make_edges() {
        if u == v || u as usize >= n || v as usize >= n {
            return Err(CompactError::BadEdge { u, v });
        }
        second += 1;
        if second > num_edges {
            break;
        }
        cols[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        cols[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    }
    if second != num_edges {
        return Err(CompactError::NonRestartableStream {
            first: num_edges,
            second,
        });
    }

    // The row-monotone contract makes every row strictly increasing;
    // verify it in O(2m) so a misbehaving stream fails typed instead of
    // silently breaking the sorted-row invariant downstream.
    for u in 0..n {
        let row = &cols[offsets[u]..offsets[u + 1]];
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CompactError::UnsortedRow(u as NodeId));
        }
    }

    Ok(CsrGraph::from_raw_parts(
        offsets, cols, num_edges, edge_hash,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph, GraphView};

    #[test]
    fn streamed_build_matches_in_memory_er() {
        let (n, p, seed) = (400usize, 0.02f64, 7u64);
        let streamed = from_edge_stream(n, || generators::erdos_renyi_stream(n, p, seed)).unwrap();
        let in_memory = CsrGraph::from(&generators::erdos_renyi(n, p, seed));
        assert_eq!(streamed, in_memory);
        assert_eq!(streamed.edge_hash(), in_memory.edge_hash());
    }

    #[test]
    fn streamed_build_matches_in_memory_ba() {
        let (n, m, seed) = (600usize, 3usize, 13u64);
        let streamed =
            from_edge_stream(n, || generators::barabasi_albert_stream(n, m, seed)).unwrap();
        let in_memory = CsrGraph::from(&generators::barabasi_albert(n, m, seed));
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn bad_edges_reported_typed() {
        let self_loop = from_edge_stream(4, || [(1u32, 1u32)].into_iter());
        assert_eq!(self_loop, Err(CompactError::BadEdge { u: 1, v: 1 }));
        let oob = from_edge_stream(4, || [(0u32, 9u32)].into_iter());
        assert_eq!(oob, Err(CompactError::BadEdge { u: 0, v: 9 }));
    }

    #[test]
    fn duplicate_edge_reported_as_unsorted_row() {
        let dup = from_edge_stream(4, || [(0u32, 1u32), (0, 1)].into_iter());
        assert_eq!(dup, Err(CompactError::UnsortedRow(0)));
    }

    #[test]
    fn non_restartable_stream_reported() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let err = from_edge_stream(4, || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                vec![(0u32, 1u32), (1, 2)].into_iter()
            } else {
                vec![(0u32, 1u32)].into_iter()
            }
        });
        assert_eq!(
            err,
            Err(CompactError::NonRestartableStream {
                first: 2,
                second: 1
            })
        );
    }

    #[test]
    fn longer_second_pass_stops_one_edge_past_the_first() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let err = from_edge_stream(4, || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                vec![(0u32, 1u32)].into_iter()
            } else {
                vec![(0u32, 1u32), (1, 2), (2, 3)].into_iter()
            }
        });
        assert_eq!(
            err,
            Err(CompactError::NonRestartableStream {
                first: 1,
                second: 2
            })
        );
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = from_edge_stream(0, std::iter::empty).unwrap();
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_edges(), 0);
        let edgeless = from_edge_stream(5, std::iter::empty).unwrap();
        assert_eq!(edgeless.num_nodes(), 5);
        assert_eq!(edgeless, CsrGraph::from(&Graph::new(5)));
    }
}
