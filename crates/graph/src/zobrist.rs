//! Zobrist-style incremental edge-set hashing.
//!
//! The attack-search memoization layer (ba-core's session memo)
//! needs a cheap, deterministic fingerprint of "which graph am I looking
//! at right now" that stays in sync with the [`DeltaOverlay`] as the
//! search toggles edges. The classic engine-search answer is Zobrist
//! hashing: assign every board feature a fixed random key and XOR the
//! keys of the *present* features. XOR is its own inverse, so a single
//! edge toggle updates the hash in O(1) — `h ^= edge_key(u, v)` both
//! adds and removes — and the hash of a state is independent of the
//! path that reached it.
//!
//! Here the features are undirected edges. Instead of a materialised
//! key table (n² entries for a dense pair space),
//! [`edge_key`](crate::zobrist::edge_key) derives
//! the key arithmetically from the canonical `(min, max)` endpoint pair
//! through the SplitMix64 finalizer — a fixed-seed, stateless function
//! of the pair, so keys never have to be stored, shipped, or
//! versioned: two processes, two runs, or two machines always agree.
//! SplitMix64's full-avalanche mixing stands in for the table of true
//! random keys; 64-bit collisions over the ≤10⁸-edge graphs this
//! workspace targets are vanishingly unlikely, and the memoization
//! layer additionally folds a per-candidate key on top before probing.
//!
//! The incremental maintenance lives in [`DeltaOverlay`]
//! ([`DeltaOverlay::delta_hash`] is the XOR of keys of toggled pairs,
//! [`DeltaOverlay::edge_set_hash`] folds in the frozen base's hash);
//! this module owns the key derivation and the from-scratch reference
//! [`edge_set_hash`](crate::zobrist::edge_set_hash) the property tests
//! pin the incremental path against.
//!
//! [`DeltaOverlay`]: crate::DeltaOverlay
//! [`DeltaOverlay::delta_hash`]: crate::DeltaOverlay::delta_hash
//! [`DeltaOverlay::edge_set_hash`]: crate::DeltaOverlay::edge_set_hash

use crate::view::GraphView;
use crate::NodeId;

/// Fixed seed folded into every edge key. Changing it changes every
/// hash, so it is part of the determinism contract: never bump it
/// casually.
pub const EDGE_KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a full-avalanche bijection on `u64`
/// (Steele et al., "Fast splittable pseudorandom number generators").
/// Used here to turn a packed edge pair into a pseudo-random Zobrist
/// key without storing a key table.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The Zobrist key of the undirected edge `{u, v}`: a fixed-seed
/// SplitMix64 mix of the canonical `(min, max)` pair, so
/// `edge_key(u, v) == edge_key(v, u)` and keys are deterministic
/// across runs and machines. Self-loops carry no meaning in this
/// substrate; callers never fold them.
#[inline]
pub fn edge_key(u: NodeId, v: NodeId) -> u64 {
    debug_assert_ne!(u, v, "self-loops have no Zobrist key");
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    splitmix64(EDGE_KEY_SEED ^ (((a as u64) << 32) | b as u64))
}

/// From-scratch reference hash: XOR of [`edge_key`] over every edge of
/// `g`. The incremental overlay hash must always equal this on the
/// materialised edge set — that equivalence is what makes the search
/// memo sound, and the proptests pin it.
pub fn edge_set_hash<V: GraphView + ?Sized>(g: &V) -> u64 {
    let mut h = 0u64;
    g.for_each_edge(|u, v| h ^= edge_key(u, v));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn edge_key_is_symmetric_and_fixed() {
        assert_eq!(edge_key(3, 7), edge_key(7, 3));
        assert_ne!(edge_key(3, 7), edge_key(3, 8));
        // Pinned value: the key derivation is part of the determinism
        // contract, so a change here must be deliberate.
        assert_eq!(edge_key(0, 1), splitmix64(EDGE_KEY_SEED ^ 1));
    }

    #[test]
    fn hash_is_path_independent() {
        let mut g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]);
        let h0 = edge_set_hash(&g);
        // Toggle an edge on and off: the hash must return exactly.
        g.add_edge(0, 4);
        assert_eq!(edge_set_hash(&g), h0 ^ edge_key(0, 4));
        g.remove_edge(0, 4);
        assert_eq!(edge_set_hash(&g), h0);
        // Same edge set built in a different order hashes identically.
        let g2 = Graph::from_edges(5, [(2, 3), (0, 1), (1, 2)]);
        assert_eq!(edge_set_hash(&g2), h0);
    }

    #[test]
    fn empty_graph_hashes_to_zero() {
        assert_eq!(edge_set_hash(&Graph::new(4)), 0);
    }
}
