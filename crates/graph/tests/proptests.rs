//! Property-based tests for the graph substrate.

use ba_graph::egonet::{egonet_features, EgonetFeatures, IncrementalEgonet};
use ba_graph::{
    generators, zobrist, CsrGraph, DeltaOverlay, EditableGraph, Fold, Graph, GraphView, NodeId,
    OverlayEdits,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;

/// Strategy: a random simple graph on up to `max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..n * 3)
            .prop_map(move |pairs| Graph::from_edges(n, pairs))
    })
}

proptest! {
    #[test]
    fn handshake_lemma(g in arb_graph(30)) {
        let degree_sum: usize = (0..g.num_nodes() as NodeId).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(30)) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn egonet_features_bounds(g in arb_graph(25)) {
        let f = egonet_features(&g);
        for i in 0..g.num_nodes() {
            let n_i = f.n[i];
            let e_i = f.e[i];
            // Spokes are part of the egonet: E >= N.
            prop_assert!(e_i >= n_i);
            // The egonet has N+1 nodes, so E <= C(N+1, 2).
            let max_e = (n_i + 1.0) * n_i / 2.0;
            prop_assert!(e_i <= max_e + 1e-9, "E={e_i} exceeds clique bound {max_e}");
        }
    }

    #[test]
    fn incremental_egonet_matches_batch(
        g in arb_graph(20),
        toggles in proptest::collection::vec((0u32..20, 0u32..20), 1..30),
    ) {
        let mut g = g;
        let n = g.num_nodes() as NodeId;
        let mut inc = IncrementalEgonet::new(&g);
        for (u, v) in toggles {
            let (u, v) = (u % n, v % n);
            inc.toggle(&mut g, u, v);
            prop_assert_eq!(inc.features(), &egonet_features(&g));
        }
    }

    #[test]
    fn toggle_twice_is_identity(g in arb_graph(20), u in 0u32..20, v in 0u32..20) {
        let mut g2 = g.clone();
        let n = g.num_nodes() as NodeId;
        let (u, v) = (u % n, v % n);
        g2.toggle_edge(u, v);
        g2.toggle_edge(u, v);
        prop_assert_eq!(g2, g);
    }

    #[test]
    fn diff_ops_transform(g1 in arb_graph(15), edits in proptest::collection::vec((0u32..15, 0u32..15), 0..20)) {
        let mut g2 = g1.clone();
        let n = g1.num_nodes() as NodeId;
        for (u, v) in edits {
            g2.toggle_edge(u % n, v % n);
        }
        let ops = g1.diff_ops(&g2);
        prop_assert_eq!(g1.with_ops(&ops), g2);
    }

    #[test]
    fn io_roundtrip(g in arb_graph(25)) {
        let mut buf = Vec::new();
        ba_graph::io::write_edge_list(&g, &mut buf).unwrap();
        if g.num_edges() > 0 {
            let loaded = ba_graph::io::read_edge_list(&buf[..]).unwrap();
            // Loaded graph drops isolated nodes (they never appear in the
            // list), so compare edge sets via labels.
            let mut orig_edges: Vec<(u64, u64)> = g
                .edges()
                .map(|(u, v)| (u as u64, v as u64))
                .collect();
            orig_edges.sort_unstable();
            let mut loaded_edges: Vec<(u64, u64)> = loaded
                .graph
                .edges()
                .map(|(u, v)| {
                    let (a, b) = (loaded.labels[u as usize], loaded.labels[v as usize]);
                    if a <= b { (a, b) } else { (b, a) }
                })
                .collect();
            loaded_edges.sort_unstable();
            prop_assert_eq!(orig_edges, loaded_edges);
        }
    }

    #[test]
    fn overlay_stays_equivalent_to_reference_under_toggles(
        g in arb_graph(20),
        toggles in proptest::collection::vec((0u32..20, 0u32..20), 1..40),
    ) {
        // Drive the same random edge-toggle sequence through the mutable
        // reference Graph and through CsrGraph + DeltaOverlay; every
        // observable (edge set, degrees, features, common-neighbour
        // kernels, metrics) must stay identical at every step.
        let mut reference = g.clone();
        let csr = CsrGraph::from(&g);
        let mut overlay = DeltaOverlay::new(&csr);
        let n = g.num_nodes() as NodeId;
        for (u, v) in toggles {
            let (u, v) = (u % n, v % n);
            let op_ref = reference.toggle_edge(u, v);
            let op_ov = overlay.toggle_edge(u, v);
            prop_assert_eq!(op_ref, op_ov);
            prop_assert_eq!(overlay.num_edges(), reference.num_edges());
            for w in 0..n {
                prop_assert_eq!(overlay.neighbors_sorted(w), reference.neighbors(w));
            }
            prop_assert_eq!(egonet_features(&overlay), egonet_features(&reference));
            prop_assert_eq!(
                overlay.common_neighbors(u, v),
                reference.common_neighbors(u, v)
            );
            prop_assert_eq!(overlay.to_graph(), reference.clone());
        }
        let stats_ref = ba_graph::metrics::stats(&reference);
        let stats_ov = ba_graph::metrics::stats(&overlay);
        prop_assert_eq!(stats_ref, stats_ov);
        // Resetting the overlay returns to the base graph exactly.
        overlay.reset();
        prop_assert_eq!(overlay.to_graph(), g);
    }

    #[test]
    fn csr_roundtrip_preserves_graph(g in arb_graph(30)) {
        let csr = CsrGraph::from(&g);
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        prop_assert_eq!(csr.to_graph(), g);
    }

    #[test]
    fn er_seed_determinism(n in 10usize..60, seed in 0u64..50) {
        let p = 0.1;
        prop_assert_eq!(
            generators::erdos_renyi(n, p, seed),
            generators::erdos_renyi(n, p, seed)
        );
    }

    #[test]
    fn ba_always_connected(n in 10usize..80, m in 1usize..4, seed in 0u64..20) {
        let g = generators::barabasi_albert(n, m, seed);
        prop_assert_eq!(ba_graph::metrics::connected_components(&g), 1);
    }

    /// Pins the streamed CSR builder: `from_edge_stream` over a
    /// generator stream must be bit-identical (offsets, columns, hash)
    /// to the CSR frozen from the `Graph` built from the same edges at
    /// matched `(n, p/m, seed)`. Sizes up to 2000 nodes —
    /// past the star core, well into the preferential-attachment
    /// regime.
    #[test]
    fn streamed_er_bit_identical_to_in_memory(
        n in 2usize..2000,
        p_mille in 0u32..40,
        seed in 0u64..1000,
    ) {
        let p = p_mille as f64 / 1000.0;
        let dense = CsrGraph::from(&generators::erdos_renyi(n, p, seed));
        let streamed = ba_graph::compact::from_edge_stream(n, || {
            generators::erdos_renyi_stream(n, p, seed)
        }).unwrap();
        prop_assert_eq!(streamed.edge_hash(), dense.edge_hash());
        prop_assert_eq!(streamed, dense);
    }

    #[test]
    fn streamed_ba_bit_identical_to_in_memory(
        n in 8usize..2000,
        m in 1usize..6,
        seed in 0u64..1000,
    ) {
        let dense = CsrGraph::from(&generators::barabasi_albert(n, m, seed));
        let streamed = ba_graph::compact::from_edge_stream(n, || {
            generators::barabasi_albert_stream(n, m, seed)
        }).unwrap();
        prop_assert_eq!(streamed.edge_hash(), dense.edge_hash());
        prop_assert_eq!(streamed, dense);
    }

    /// The streamed builder on arbitrary graphs: `Graph::edges()` is
    /// lexicographic `u < v`, hence row-monotone, so replaying it must
    /// rebuild exactly the CSR frozen from the graph, hash included.
    #[test]
    fn streamed_build_matches_freeze_on_arbitrary_graphs(g in arb_graph(40)) {
        let dense = CsrGraph::from(&g);
        let streamed = ba_graph::compact::from_edge_stream(g.num_nodes(), || g.edges()).unwrap();
        prop_assert_eq!(streamed.edge_hash(), dense.edge_hash());
        prop_assert_eq!(streamed, dense);
    }

    /// The incremental Zobrist hash on the overlay must equal the
    /// from-scratch hash of the materialised edge set after every
    /// toggle, batch apply, reset, and compaction — over both ER and
    /// BA bases (script interpretation: `r` picks the base family).
    #[test]
    fn overlay_hash_matches_from_scratch(
        er in 0u8..2,
        seed in 0u64..30,
        script in proptest::collection::vec((0u32..24, 0u32..24, 0u8..10), 1..60),
    ) {
        let g = if er == 1 {
            generators::erdos_renyi(24, 0.12, seed)
        } else {
            generators::barabasi_albert(24, 2, seed)
        };
        let csr = CsrGraph::from(&g);
        prop_assert_eq!(csr.edge_hash(), zobrist::edge_set_hash(&g));
        let mut ov = DeltaOverlay::new(&csr);
        for (u, v, act) in script {
            match act {
                // Occasional reset: hash must restore to the base's.
                0 => {
                    ov.reset();
                    prop_assert_eq!(ov.delta_hash(), 0);
                }
                // Occasional explicit add/remove of one pair.
                1 if u != v => {
                    if ov.has_edge(u, v) {
                        ov.remove_edge(u, v);
                    } else {
                        ov.add_edge(u, v);
                    }
                }
                _ => {
                    ov.toggle_edge(u, v);
                }
            }
            prop_assert_eq!(ov.edge_set_hash(), zobrist::edge_set_hash(&ov));
        }
        // Folding the edits into the base freezes the incremental hash
        // verbatim, and a rebuilt CSR recomputes the identical value
        // from scratch.
        let rebuilt = CsrGraph::from_view(&ov);
        let mut folded = csr.clone();
        folded.absorb(ov.detach());
        prop_assert_eq!(folded.edge_hash(), rebuilt.edge_hash());
    }
}

/// Every row, degree, the edge count and the edge-set hash of `view`
/// equal those of `reference`.
fn assert_tracks(view: &DeltaOverlay<'_>, reference: &Graph) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.num_edges(), reference.num_edges());
    prop_assert_eq!(view.edge_set_hash(), zobrist::edge_set_hash(reference));
    for w in 0..reference.num_nodes() as NodeId {
        prop_assert_eq!(
            view.neighbors_sorted(w),
            reference.neighbors(w),
            "row {}",
            w
        );
        prop_assert_eq!(view.degree(w), reference.degree(w));
    }
    Ok(())
}

proptest! {
    /// The arena overlay tracks a `Graph` reference through random
    /// scripts of adds, removes, toggles, resets, hub growth, snapshot
    /// round trips and absorbs, with its edits detached and re-attached
    /// around every step as the streaming engine holds them. Hub growth
    /// pushes one row far past its slack, so rows fill up and move.
    /// Each absorb must leave the base equal to a from-scratch CSR of
    /// the reference and hand back edits that attach clean; from then
    /// on they must track a fresh overlay over the absorbed base.
    #[test]
    fn arena_overlay_tracks_reference_through_absorb(
        er in 0u8..2,
        n in 2usize..40,
        seed in 0u64..500,
        script in proptest::collection::vec((0u32..40, 0u32..40, 0u8..12), 1..80),
    ) {
        let g = if er == 1 {
            generators::erdos_renyi(n, 0.1, seed)
        } else {
            generators::barabasi_albert(n.max(3), 2, seed)
        };
        let n = g.num_nodes() as NodeId;
        let mut base = CsrGraph::from(&g);
        let mut base_graph = g.clone();
        let mut reference = g;
        // `edits` goes through every absorb; `fresh` restarts as a new
        // overlay over each absorbed base.
        let (mut edits, mut fresh) = (OverlayEdits::default(), OverlayEdits::default());
        for (u, v, act) in script {
            let (u, v) = (u % n, v % n);
            if act == 9 {
                edits = base.absorb(edits).0;
                base_graph = reference.clone();
                prop_assert_eq!(&base, &CsrGraph::from(&reference));
                let view = DeltaOverlay::attach(&base, edits);
                prop_assert_eq!(view.dirty_rows(), 0);
                prop_assert_eq!(view.delta_hash(), 0);
                assert_tracks(&view, &reference)?;
                edits = view.detach();
                fresh = OverlayEdits::default();
                continue;
            }
            if act == 8 {
                // The snapshot path: canonical rows, no carried hash.
                let rows = edits
                    .dirty_rows_sorted()
                    .into_iter()
                    .map(|(w, r)| (w, r.to_vec()))
                    .collect::<Vec<_>>();
                let m = edits.num_edges_over(&base);
                edits = OverlayEdits::from_rows(n as usize, m, rows);
            }
            let mut views = [
                DeltaOverlay::attach(&base, std::mem::take(&mut edits)),
                DeltaOverlay::attach(&base, std::mem::take(&mut fresh)),
            ];
            match act {
                0 => {
                    views.iter_mut().for_each(DeltaOverlay::reset);
                    reference = base_graph.clone();
                }
                1 => {
                    views.iter_mut().for_each(|ov| {
                        ov.add_edge(u, v);
                    });
                    if u != v {
                        reference.add_edge(u, v);
                    }
                }
                2 => {
                    views.iter_mut().for_each(|ov| {
                        ov.remove_edge(u, v);
                    });
                    reference.remove_edge(u, v);
                }
                7 => {
                    // Hub growth: up to 12 new neighbours for `u`.
                    for i in 0..12 {
                        let w = (v + i) % n;
                        views.iter_mut().for_each(|ov| {
                            ov.add_edge(u, w);
                        });
                        if u != w {
                            reference.add_edge(u, w);
                        }
                    }
                }
                _ => {
                    views.iter_mut().for_each(|ov| {
                        ov.toggle_edge(u, v);
                    });
                    reference.toggle_edge(u, v);
                }
            }
            for view in &views {
                assert_tracks(view, &reference)?;
            }
            prop_assert_eq!(views[0].dirty_rows(), views[1].dirty_rows());
            let [a, b] = views;
            edits = a.detach();
            fresh = b.detach();
        }
    }
}

/// Applies one absorb round's `ops` to `ov` and `reference` alike.
/// `act` picks the edit of `(u, v)`: 0–5 toggle, 6 add, 7 remove,
/// 8 hub growth (up to 12 new neighbours for `u`), 9 empty `u`'s row.
fn apply_round(ov: &mut DeltaOverlay<'_>, reference: &mut Graph, ops: &[(u32, u32, u8)]) {
    let n = reference.num_nodes() as NodeId;
    for &(u, v, act) in ops {
        let (u, v) = (u % n, v % n);
        match act {
            6 => {
                ov.add_edge(u, v);
                if u != v {
                    reference.add_edge(u, v);
                }
            }
            7 => {
                ov.remove_edge(u, v);
                reference.remove_edge(u, v);
            }
            8 => {
                for w in (0..12).map(|i| (v + i) % n).filter(|&w| w != u) {
                    ov.add_edge(u, w);
                    reference.add_edge(u, w);
                }
            }
            9 => {
                for w in reference.neighbors(u).to_vec() {
                    ov.remove_edge(u, w);
                    reference.remove_edge(u, w);
                }
            }
            _ => {
                ov.toggle_edge(u, v);
                reference.toggle_edge(u, v);
            }
        }
    }
}

/// Every row's storage range in `base`, in node order.
fn extents(base: &CsrGraph) -> Vec<Range<usize>> {
    (0..base.num_nodes() as NodeId)
        .map(|u| base.row_extent(u))
        .collect()
}

proptest! {
    /// The gapped base through absorbs that fit its slack and absorbs
    /// that outgrow it. After each, the base equals a from-scratch CSR
    /// of a reference `Graph` (rows, edge count and edge hash); the
    /// row ranges tile the column array, every row fits its range, no
    /// range shrank, an in-place fold moved no row start, and a
    /// re-layout gave each row its slack of an eighth plus four. A case
    /// opens by joining a least-connected node to every other node of
    /// the packed base, which must re-lay it out, and closes with a
    /// one-edge round after re-layout gave every row room, which must
    /// fit; the rounds between mix toggles, hub growth and emptied
    /// rows, some restored from the snapshot's row form.
    #[test]
    fn gapped_base_absorbs_track_reference(
        er in 0u8..2,
        n in 8usize..60,
        seed in 0u64..500,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..60, 0u32..60, 0u8..10), 0..30), 0u8..3),
            0..6,
        ),
    ) {
        let g = if er == 1 {
            generators::erdos_renyi(n, 0.1, seed)
        } else {
            generators::barabasi_albert(n, 2, seed)
        };
        let nodes = g.num_nodes() as NodeId;
        let mut base = CsrGraph::from(&g);
        let mut reference = g;
        let hub = (0..nodes).min_by_key(|&u| reference.degree(u)).unwrap();
        let opening: Vec<(u32, u32, u8)> = (0..nodes).map(|v| (hub, v, 6)).collect();
        let mut script = vec![(opening, 0)];
        script.extend(rounds);
        script.push((Vec::new(), 0));
        let last = script.len() - 1;
        let mut edits = OverlayEdits::default();
        let mut folds = [0usize; 2];
        for (k, (mut ops, restore)) in script.into_iter().enumerate() {
            if k == last {
                // Removing an edge only shrinks rows; adding one to an
                // empty graph grows two empty rows, each given room for
                // four at the opening re-layout.
                let closing = reference.edges().next().map_or((0, 1, 6), |(u, v)| (u, v, 7));
                ops.push(closing);
            }
            let mut ov = DeltaOverlay::attach(&base, edits);
            apply_round(&mut ov, &mut reference, &ops);
            let m = ov.num_edges();
            edits = ov.detach();
            if restore == 1 {
                // The snapshot path: canonical rows, no carried hash.
                let rows = edits
                    .dirty_rows_sorted()
                    .into_iter()
                    .map(|(w, r)| (w, r.to_vec()))
                    .collect::<Vec<_>>();
                edits = OverlayEdits::from_rows(nodes as usize, m, rows);
            }
            let before = extents(&base);
            let (clean, fold) = base.absorb(edits);
            edits = clean;
            prop_assert!(edits.is_clean());
            let expected = CsrGraph::from(&reference);
            prop_assert_eq!(base.num_edges(), expected.num_edges());
            prop_assert_eq!(base.edge_hash(), expected.edge_hash());
            prop_assert_eq!(&base, &expected);
            let after = extents(&base);
            prop_assert_eq!(after[0].start, 0);
            for u in 0..nodes as usize {
                prop_assert!(after[u].len() >= base.degree(u as NodeId), "row {} overflows", u);
                prop_assert!(after[u].len() >= before[u].len(), "row {} shrank", u);
                if u + 1 < nodes as usize {
                    prop_assert_eq!(after[u].end, after[u + 1].start);
                }
            }
            match fold {
                Fold::InPlace => prop_assert_eq!(&after, &before),
                // Every row gets room to grow by an eighth plus four.
                Fold::Relayout => {
                    for (u, (a, b)) in after.iter().zip(&before).enumerate() {
                        let d = base.degree(u as NodeId);
                        prop_assert_eq!(a.len(), b.len().max(d + d / 8 + 4), "row {}", u);
                    }
                }
            }
            folds[usize::from(fold == Fold::Relayout)] += 1;
            if k == 0 {
                prop_assert_eq!(fold, Fold::Relayout);
            }
            if k == last {
                prop_assert_eq!(fold, Fold::InPlace);
            }
        }
        prop_assert!(folds[0] > 0 && folds[1] > 0, "folds {:?}", folds);
    }
}

/// The per-node reference for [`egonet_features`]: `N = deg(u)` and
/// `E = deg(u) + triangles_at(u)`, each node on its own.
fn per_node_features<V: GraphView + ?Sized>(g: &V) -> EgonetFeatures {
    let nodes = 0..g.num_nodes() as NodeId;
    EgonetFeatures {
        n: nodes.clone().map(|u| g.degree(u) as f64).collect(),
        e: nodes
            .map(|u| g.degree(u) as f64 + g.triangles_at(u) as f64)
            .collect(),
    }
}

/// Asserts that `egonet_features(g)` equals the per-node reference bit
/// for bit (`==` alone would let `-0.0` pass for `0.0`).
fn assert_features_match_reference<V: GraphView + ?Sized>(g: &V) -> Result<(), TestCaseError> {
    let bits = |f: &EgonetFeatures| -> Vec<(u64, u64)> {
        f.n.iter()
            .zip(&f.e)
            .map(|(n, e)| (n.to_bits(), e.to_bits()))
            .collect()
    };
    prop_assert_eq!(bits(&egonet_features(g)), bits(&per_node_features(g)));
    Ok(())
}

/// `g` with node `u` renamed `perm[u]`.
fn relabel(g: &Graph, perm: &[NodeId]) -> Graph {
    Graph::from_edges(
        g.num_nodes(),
        g.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])),
    )
}

#[test]
fn egonet_features_match_reference_on_edge_cases() {
    let cases = [
        Graph::new(0),
        Graph::new(1),
        Graph::new(6),
        // Isolated nodes around one edge and one triangle.
        Graph::from_edges(7, [(1, 4)]),
        Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
        Graph::from_edges(8, [(6, 2), (2, 5), (5, 6)]),
    ];
    for g in &cases {
        assert_features_match_reference(g).unwrap();
        assert_features_match_reference(&CsrGraph::from(g)).unwrap();
    }
    let tri = egonet_features(&cases[4]);
    assert_eq!((tri.n, tri.e), (vec![2.0; 3], vec![3.0; 3]));
}

proptest! {
    /// The one-pass triangle count behind `egonet_features` equals the
    /// per-node `deg + triangles_at` reference bit for bit on `Graph`,
    /// `CsrGraph` and an edited `DeltaOverlay`, over ER and BA graphs
    /// with their ids as generated (BA hubs get the lowest ids),
    /// reversed (hubs get the highest) and shuffled.
    #[test]
    fn egonet_features_equal_per_node_reference(
        ba in 0u8..2,
        n in 1usize..120,
        density in 1usize..5,
        labels in 0u8..3,
        seed in 0u64..1000,
        toggles in proptest::collection::vec((0u32..120, 0u32..120), 0..40),
    ) {
        let g = if ba == 1 {
            generators::barabasi_albert(n.max(density + 1), density, seed)
        } else {
            generators::erdos_renyi(n, density as f64 * 0.04, seed)
        };
        let n = g.num_nodes();
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        match labels {
            0 => {}
            1 => perm.reverse(),
            _ => perm.shuffle(&mut StdRng::seed_from_u64(seed)),
        }
        let g = relabel(&g, &perm);
        assert_features_match_reference(&g)?;
        let csr = CsrGraph::from(&g);
        assert_features_match_reference(&csr)?;
        let mut overlay = DeltaOverlay::new(&csr);
        for (u, v) in toggles {
            overlay.toggle_edge(u % n as NodeId, v % n as NodeId);
        }
        assert_features_match_reference(&overlay)?;
    }
}
