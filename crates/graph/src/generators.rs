//! Random-graph generators and anomaly planting.
//!
//! The paper's synthetic datasets are Erdős–Rényi (`n = 1000`, `p = 0.02`)
//! and Barabási–Albert (`n = 1000`, `m = 5`). The real datasets are
//! substituted (see DESIGN.md §4) by heavy-tailed configuration-style
//! graphs with planted communities and planted near-clique / near-star
//! anomalies — the structural patterns OddBall flags (paper Fig. 2a).

use crate::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, p)`: each of the `C(n,2)` pairs is an edge
/// independently with probability `p`. Deterministic given `seed`; the
/// edges of [`erdos_renyi_stream`], inserted in stream order.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    Graph::from_edges(n, erdos_renyi_stream(n, p, seed))
}

/// Barabási–Albert preferential attachment with `m` edges per new node.
/// Starts from a star of `m + 1` nodes, then each arriving node attaches
/// to `m` distinct existing nodes chosen proportionally to degree. The
/// edges of [`barabasi_albert_stream`], inserted in stream order.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    Graph::from_edges(n, barabasi_albert_stream(n, m, seed))
}

/// Streaming [`erdos_renyi`], without building a [`Graph`]: one `f64`
/// draw per candidate pair in row-major `(u, v)` order. Geometric
/// skipping would be faster for tiny `p`, but the suites' `n ≈ 1000`
/// keeps the loop at half a million draws. Edges come out in
/// lexicographic `(u, v)` order with `u < v`, which is *row-monotone*
/// (every node's incident edges appear with increasing other-endpoint),
/// the order [`crate::compact::from_edge_stream`] consumes with O(n)
/// scratch.
pub fn erdos_renyi_stream(n: usize, p: f64, seed: u64) -> ErdosRenyiStream {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    ErdosRenyiStream {
        rng: StdRng::seed_from_u64(seed),
        n: n as NodeId,
        p,
        u: 0,
        v: 1,
    }
}

/// Iterator state of [`erdos_renyi_stream`].
#[derive(Debug, Clone)]
pub struct ErdosRenyiStream {
    rng: StdRng,
    n: NodeId,
    p: f64,
    u: NodeId,
    v: NodeId,
}

impl Iterator for ErdosRenyiStream {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.u < self.n {
            while self.v < self.n {
                let v = self.v;
                self.v += 1;
                if self.rng.gen::<f64>() < self.p {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.v = self.u + 1;
        }
        None
    }
}

/// Streaming [`barabasi_albert`], without building a [`Graph`]: targets
/// are drawn by rejection from a repeated-endpoint list, where sampling
/// an element uniformly is sampling a node with probability
/// proportional to degree. Edges come out in arrival
/// order: the `m` initial star edges `(0, v)`, then each arriving
/// node's `m` attachments `(u, v)` with its targets `v` ascending.
/// That order is row-monotone (an arriving node's targets are all
/// smaller than it and sorted; later attachments to any node arrive
/// with increasing attacher id), so
/// [`crate::compact::from_edge_stream`] builds the CSR from
/// it directly. Resident state is one `u32` per edge, `m·(n − m)` in
/// all: the target of every edge emitted so far. The sources need no
/// storage, since an edge's index fixes its source; together the two
/// are the endpoint list the model samples. No adjacency `Vec`s are
/// allocated.
pub fn barabasi_albert_stream(n: usize, m: usize, seed: u64) -> BarabasiAlbertStream {
    assert!(m >= 1, "m must be >= 1");
    assert!(n > m, "need n > m");
    let mut targets = Vec::with_capacity(m * (n - m));
    targets.extend(1..=m as NodeId);
    BarabasiAlbertStream {
        rng: StdRng::seed_from_u64(seed),
        n: n as NodeId,
        m,
        targets,
        u: m as NodeId + 1,
        next: 0,
    }
}

/// Iterator state of [`barabasi_albert_stream`].
#[derive(Debug, Clone)]
pub struct BarabasiAlbertStream {
    rng: StdRng,
    n: NodeId,
    m: usize,
    /// Target of edge `k`, for every edge drawn so far: the star's
    /// leaves `1..=m` (edges `0..m`, source `0`), then each arrival's `m`
    /// targets ascending (edges `m..`, source `k / m + m`). The model's
    /// repeated-endpoint list is `[source(0), targets[0], source(1),
    /// targets[1], …]`; sampling it uniformly samples a node with
    /// probability proportional to degree.
    targets: Vec<NodeId>,
    /// Next node to attach once the drawn edges are drained.
    u: NodeId,
    /// Index of the next edge to emit.
    next: usize,
}

impl BarabasiAlbertStream {
    /// Entry `i` of the repeated-endpoint list: edge `i / 2`'s source
    /// when `i` is even, its target when odd.
    #[inline]
    fn endpoint(&self, i: usize) -> NodeId {
        if i % 2 == 1 {
            self.targets[i / 2]
        } else if i < 2 * self.m {
            0
        } else {
            (i / (2 * self.m) + self.m) as NodeId
        }
    }
}

impl Iterator for BarabasiAlbertStream {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.next == self.targets.len() {
            if self.u >= self.n {
                return None;
            }
            // Draw the next node's targets from the endpoint list of
            // every edge emitted so far, which holds none of this node's
            // own. A repeat pick is dropped; a new one is inserted at its
            // sorted place in the list's tail, so the new targets come
            // out ascending and duplicate-free.
            let start = self.targets.len();
            let endpoints = 2 * start;
            while self.targets.len() - start < self.m {
                let i = self.rng.gen_range(0..endpoints);
                let pick = self.endpoint(i);
                if pick != self.u {
                    if let Err(at) = self.targets[start..].binary_search(&pick) {
                        self.targets.insert(start + at, pick);
                    }
                }
            }
            self.u += 1;
        }
        let k = self.next;
        self.next += 1;
        // Every edge past the star belongs to the latest arrival.
        let source = if k < self.m { 0 } else { self.u - 1 };
        Some((source, self.targets[k]))
    }
}

/// Heavy-tailed graph via a Chung–Lu style model: node weights follow a
/// power law with exponent `gamma`, and pair `{u,v}` is connected with
/// probability `min(1, w_u w_v / Σw)`. The expected edge count is then
/// rescaled towards `target_edges` by adjusting the weights.
pub fn power_law_chung_lu(n: usize, target_edges: usize, gamma: f64, seed: u64) -> Graph {
    power_law_chung_lu_capped(n, target_edges, gamma, f64::INFINITY, seed)
}

/// Like [`power_law_chung_lu`] but with the node weights capped at
/// `max_weight` (≈ the maximum expected degree). Real social/voting
/// graphs sampled at ~1000 nodes rarely contain degree-400 monsters, and
/// uncapped Chung–Lu tails at `γ ≈ 2` routinely create them.
pub fn power_law_chung_lu_capped(
    n: usize,
    target_edges: usize,
    gamma: f64,
    max_weight: f64,
    seed: u64,
) -> Graph {
    assert!(gamma > 1.0, "power-law exponent must be > 1");
    assert!(max_weight > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Weights w_i ∝ (i + i0)^{-1/(gamma-1)}, the standard static-model
    // construction for a degree power law with exponent gamma.
    let alpha = 1.0 / (gamma - 1.0);
    let mut w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    let sum_w: f64 = w.iter().sum();
    // Rescale so that expected #edges ≈ target_edges:
    // E[m] = Σ_{u<v} w_u w_v / W ≈ W/2 after normalisation; set total
    // weight so (Σw)²/(2 Σw) = target ⇒ Σw = 2·target.
    let scale = (2.0 * target_edges as f64) / sum_w;
    for wi in &mut w {
        *wi = (*wi * scale).min(max_weight);
    }
    let total: f64 = w.iter().sum();
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (w[u] * w[v] / total).min(1.0);
            if rng.gen::<f64>() < p {
                g.add_edge(u as NodeId, v as NodeId);
            }
        }
    }
    g
}

/// Triadic closure pass: repeatedly picks a random node with degree ≥ 2
/// and closes a random open wedge at it, until `edges_to_add` edges have
/// been added (or attempts are exhausted). Raises egonet density around
/// hubs, which keeps the power-law fit's slope honest — without it,
/// synthetic hubs are pathological below-the-line outliers that no
/// bounded attacker could ever fix.
pub fn triadic_closure(g: &mut Graph, edges_to_add: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_nodes() as NodeId;
    if n < 3 {
        return 0;
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = edges_to_add.saturating_mul(50) + 100;
    while added < edges_to_add && attempts < max_attempts {
        attempts += 1;
        let m = rng.gen_range(0..n);
        let deg = g.degree(m);
        if deg < 2 {
            continue;
        }
        let pick = |rng: &mut StdRng, g: &Graph| -> NodeId {
            let k = rng.gen_range(0..g.degree(m));
            g.neighbors(m)[k]
        };
        let a = pick(&mut rng, g);
        let b = pick(&mut rng, g);
        if a != b && g.add_edge(a, b) {
            added += 1;
        }
    }
    added
}

/// Planted-partition community graph: `k` equal communities, intra-edge
/// probability `p_in`, inter-edge probability `p_out`.
pub fn planted_partition(n: usize, k: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!(k >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let comm = |x: usize| x * k / n.max(1);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if comm(u) == comm(v) { p_in } else { p_out };
            if rng.gen::<f64>() < p {
                g.add_edge(u as NodeId, v as NodeId);
            }
        }
    }
    g
}

/// Plants a near-clique among `members`: adds every missing pair with
/// probability `density`. Returns the number of edges added.
pub fn plant_near_clique(g: &mut Graph, members: &[NodeId], density: f64, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut added = 0;
    for (idx, &u) in members.iter().enumerate() {
        for &v in &members[idx + 1..] {
            if !g.has_edge(u, v) && rng.gen::<f64>() < density && g.add_edge(u, v) {
                added += 1;
            }
        }
    }
    added
}

/// Plants a near-star: connects `center` to `spokes` random non-adjacent
/// nodes. Returns the number of edges added.
pub fn plant_near_star(g: &mut Graph, center: NodeId, spokes: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_nodes() as NodeId;
    let mut candidates: Vec<NodeId> = (0..n)
        .filter(|&v| v != center && !g.has_edge(center, v))
        .collect();
    candidates.shuffle(&mut rng);
    let mut added = 0;
    for &v in candidates.iter().take(spokes) {
        if g.add_edge(center, v) {
            added += 1;
        }
    }
    added
}

/// Ensures the graph has no isolated nodes by attaching each one to a
/// random non-isolated node (or to the next node if the graph is empty).
/// The attacks assume no singletons exist in the clean graph.
pub fn attach_isolated(g: &mut Graph, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_nodes() as NodeId;
    if n < 2 {
        return;
    }
    for u in 0..n {
        if g.degree(u) == 0 {
            loop {
                let v = rng.gen_range(0..n);
                if v != u && g.add_edge(u, v) {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, GraphView};

    #[test]
    fn er_edge_count_near_expectation() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi(n, p, 1);
        let expected = p * (n * (n - 1) / 2) as f64;
        let m = g.num_edges() as f64;
        // 5 sigma tolerance on a binomial.
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!(
            (m - expected).abs() < 5.0 * sigma,
            "m={m}, expected≈{expected}"
        );
    }

    #[test]
    fn er_deterministic_per_seed() {
        assert_eq!(erdos_renyi(100, 0.05, 9), erdos_renyi(100, 0.05, 9));
        assert_ne!(erdos_renyi(100, 0.05, 9), erdos_renyi(100, 0.05, 10));
    }

    #[test]
    fn ba_edge_count_exact() {
        let n = 300;
        let m = 5;
        let g = barabasi_albert(n, m, 2);
        // m initial star edges + m per arriving node.
        assert_eq!(g.num_edges(), m + (n - m - 1) * m);
        // Everyone has degree >= m except possibly early nodes which have more.
        for u in 0..n as NodeId {
            assert!(g.degree(u) >= 1);
        }
    }

    #[test]
    fn ba_is_connected_and_hubby() {
        let g = barabasi_albert(500, 3, 3);
        assert_eq!(metrics::connected_components(&g), 1);
        let max_deg = (0..500).map(|u| g.degree(u)).max().unwrap();
        // Preferential attachment must create hubs much larger than m.
        assert!(max_deg > 20, "max degree {max_deg} too small for BA");
    }

    #[test]
    fn chung_lu_heavy_tail() {
        let g = power_law_chung_lu(800, 2400, 2.3, 4);
        let m = g.num_edges();
        assert!(m > 1200 && m < 4800, "edge count {m} far from target 2400");
        let max_deg = (0..800).map(|u| g.degree(u)).max().unwrap();
        let mean_deg = 2.0 * m as f64 / 800.0;
        assert!(
            max_deg as f64 > 5.0 * mean_deg,
            "no heavy tail: max {max_deg}, mean {mean_deg}"
        );
    }

    #[test]
    fn planted_partition_assortative() {
        let g = planted_partition(200, 4, 0.2, 0.01, 5);
        // Count intra vs inter edges.
        let comm = |x: u32| (x as usize) * 4 / 200;
        let (mut intra, mut inter) = (0, 0);
        for (u, v) in g.edges() {
            if comm(u) == comm(v) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn near_clique_raises_egonet_density() {
        let mut g = erdos_renyi(200, 0.02, 6);
        let members: Vec<NodeId> = (0..12).collect();
        let added = plant_near_clique(&mut g, &members, 0.9, 7);
        assert!(added > 30, "added only {added} edges");
        let f = crate::egonet::egonet_features(&g);
        // Member egonets should be much denser than E ≈ N.
        assert!(f.e[0] > 2.0 * f.n[0]);
    }

    #[test]
    fn near_star_raises_degree() {
        let mut g = erdos_renyi(300, 0.01, 8);
        let added = plant_near_star(&mut g, 5, 60, 9);
        assert!(added >= 55);
        assert!(g.degree(5) >= 55);
    }

    #[test]
    fn triadic_closure_adds_requested_edges() {
        let mut g = barabasi_albert(300, 4, 22);
        let m0 = g.num_edges();
        let added = triadic_closure(&mut g, 100, 23);
        assert_eq!(added, 100);
        assert_eq!(g.num_edges(), m0 + 100);
        // Closure raises clustering.
        let cc = crate::metrics::average_clustering(&g);
        assert!(cc > 0.05, "clustering {cc} did not rise");
    }

    #[test]
    fn capped_chung_lu_respects_cap() {
        let g = power_law_chung_lu_capped(600, 2400, 2.2, 25.0, 24);
        let max_deg = (0..600).map(|u| g.degree(u)).max().unwrap();
        // Expected max degree ≈ cap; allow Poisson fluctuation.
        assert!(max_deg < 60, "max degree {max_deg} blew past the cap");
        let uncapped = power_law_chung_lu(600, 2400, 2.2, 24);
        let max_uncapped = (0..600).map(|u| uncapped.degree(u)).max().unwrap();
        assert!(max_uncapped > max_deg, "cap had no effect");
    }

    #[test]
    fn streams_emit_each_edge_once_in_documented_order() {
        // ER: lexicographic (u, v) with u < v; strictly increasing, so
        // no pair repeats.
        let er: Vec<(NodeId, NodeId)> = erdos_renyi_stream(250, 0.03, 41).collect();
        assert!(er.len() > 500, "only {} edges", er.len());
        assert!(er.iter().all(|&(u, v)| u < v), "self-loop or flipped pair");
        assert!(er.windows(2).all(|w| w[0] < w[1]), "not lexicographic");
        // BA: the m star edges (0, v), then each arrival u's m targets
        // v < u ascending; strictly increasing as emitted.
        let (n, m) = (400, 4);
        let ba: Vec<(NodeId, NodeId)> = barabasi_albert_stream(n, m, 42).collect();
        assert_eq!(ba.len(), m * (n - m));
        assert_eq!(
            ba[..m],
            (1..=m as NodeId).map(|v| (0, v)).collect::<Vec<_>>()[..]
        );
        assert!(
            ba[m..].iter().all(|&(u, v)| v < u),
            "self-loop or forward target"
        );
        assert!(ba.windows(2).all(|w| w[0] < w[1]), "not in arrival order");
    }

    /// Reference arrival loop: each node's targets are collected in a
    /// fresh `BTreeSet` and read back ascending. Shares no code with
    /// [`barabasi_albert_stream`], so it catches any change to the
    /// draws, the rejection rule or the emission order.
    fn barabasi_albert_reference(n: usize, m: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        let mut endpoints: Vec<NodeId> = Vec::new();
        for v in 1..=m as NodeId {
            edges.push((0, v));
            endpoints.extend([0, v]);
        }
        for u in (m + 1) as NodeId..n as NodeId {
            let mut set = std::collections::BTreeSet::new();
            while set.len() < m {
                let pick = endpoints[rng.gen_range(0..endpoints.len())];
                if pick != u {
                    set.insert(pick);
                }
            }
            for v in set {
                edges.push((u, v));
                endpoints.extend([u, v]);
            }
        }
        edges
    }

    #[test]
    fn ba_stream_matches_btreeset_reference() {
        for m in [1usize, 2, 3, 5, 11] {
            for n in [m + 1, m + 2, 2 * m + 3, 64, 700] {
                for seed in [0u64, 7, 0x5ca1e] {
                    let streamed: Vec<_> = barabasi_albert_stream(n, m, seed).collect();
                    assert_eq!(
                        streamed,
                        barabasi_albert_reference(n, m, seed),
                        "BA(n = {n}, m = {m}, seed = {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn ba_stream_golden_edge_hashes() {
        for (n, m, seed, edges, hash) in [
            (3000, 11, 0x5ca1e, 32_879, 0xd815c02ab12a58fb_u64),
            (1000, 5, 7, 4_975, 0xb07e74eb1ec88ca1),
        ] {
            let g =
                crate::compact::from_edge_stream(n, || barabasi_albert_stream(n, m, seed)).unwrap();
            assert_eq!(g.num_edges(), edges, "BA({n}, {m}, {seed:#x}) edge count");
            assert_eq!(g.edge_hash(), hash, "BA({n}, {m}, {seed:#x}) edge hash");
        }
    }

    #[test]
    fn attach_isolated_removes_singletons() {
        let mut g = Graph::new(50);
        g.add_edge(0, 1);
        attach_isolated(&mut g, 10);
        for u in 0..50 {
            assert!(g.degree(u) >= 1, "node {u} still isolated");
        }
    }
}
