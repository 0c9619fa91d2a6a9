//! # ba-datasets
//!
//! The five evaluation datasets of paper Table I.
//!
//! | dataset | nodes | edges | provenance here |
//! |---|---|---|---|
//! | ER | 1000 | ~9948 | `G(n=1000, p=0.02)` exactly as the paper |
//! | BA | 1000 | ~4975 | Barabási–Albert `m = 5` exactly as the paper |
//! | Blogcatalog | 1000 | ~6190 | **synthetic stand-in** (see below) |
//! | Wikivote | 1012 | ~4860 | **synthetic stand-in** |
//! | Bitcoin-Alpha | 1025 | ~2311 | **synthetic stand-in** |
//!
//! The three real datasets are not redistributable inside this offline
//! reproduction, so [`Dataset::build`] generates seeded stand-ins matched
//! to the published node/edge counts with heavy-tailed degree
//! distributions (Chung–Lu power law), community structure for the
//! social network, and planted near-clique / near-star anomalies — the
//! exact structural patterns OddBall flags and the attack must erase
//! (DESIGN.md §4 records the substitution argument). If you have the real
//! edge lists, load them with [`load_real`] and every experiment binary
//! accepts them in place of the stand-ins.

use ba_graph::io::{load_edge_list, IoError};
use ba_graph::{generators, sample, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// The evaluation datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Erdős–Rényi `G(1000, 0.02)`.
    Er,
    /// Barabási–Albert, `n = 1000`, `m = 5`.
    Ba,
    /// Blogcatalog-like social network stand-in.
    Blogcatalog,
    /// Wikivote-like voting network stand-in.
    Wikivote,
    /// Bitcoin-Alpha-like trust network stand-in.
    BitcoinAlpha,
}

impl Dataset {
    /// All five datasets in Table I order.
    pub fn all() -> [Dataset; 5] {
        [
            Dataset::Er,
            Dataset::Ba,
            Dataset::Blogcatalog,
            Dataset::Wikivote,
            Dataset::BitcoinAlpha,
        ]
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Er => "ER",
            Dataset::Ba => "BA",
            Dataset::Blogcatalog => "Blogcatalog",
            Dataset::Wikivote => "Wikivote",
            Dataset::BitcoinAlpha => "Bitcoin-Alpha",
        }
    }

    /// Paper-reported `(nodes, edges)` from Table I (sampled subgraphs).
    pub fn paper_statistics(&self) -> (usize, usize) {
        match self {
            Dataset::Er => (1000, 9948),
            Dataset::Ba => (1000, 4975),
            Dataset::Blogcatalog => (1000, 6190),
            Dataset::Wikivote => (1012, 4860),
            Dataset::BitcoinAlpha => (1025, 2311),
        }
    }

    /// Builds the dataset at full Table-I scale with the given seed.
    pub fn build(&self, seed: u64) -> Graph {
        let (n, m) = self.paper_statistics();
        self.build_scaled(n, m, seed)
    }

    /// Builds a smaller version with the same shape (for tests and quick
    /// experiment modes): `n` nodes targeting `m` edges.
    pub fn build_scaled(&self, n: usize, m: usize, seed: u64) -> Graph {
        match self {
            Dataset::Er => {
                let p = 2.0 * m as f64 / (n as f64 * (n as f64 - 1.0));
                let mut g = generators::erdos_renyi(n, p, seed);
                generators::attach_isolated(&mut g, seed ^ 0xa77ac4);
                g
            }
            Dataset::Ba => {
                let ba_m = (m as f64 / n as f64).round().max(1.0) as usize;
                generators::barabasi_albert(n, ba_m, seed)
            }
            Dataset::Blogcatalog => {
                // Social network: communities + heavy tail + dense cores.
                let mut g = blend_communities_and_tail(n, m, 5, 2.4, seed);
                plant_standard_anomalies(&mut g, n / 100, seed ^ 0xb10c);
                generators::attach_isolated(&mut g, seed ^ 0xb10d);
                g
            }
            Dataset::Wikivote => {
                // Voting network: pronounced (but capped) hubs plus
                // triadic closure so hub egonets are not pathologically
                // sparse -- uncapped gamma~2.1 tails make the top AScores
                // deg-400 stars with power-law deficits in the thousands,
                // which no bounded attacker could fix and the paper's
                // Fig. 4 wikivote curves clearly exclude.
                let base = m - m / 4;
                let cap = (n as f64 / 16.0).max(20.0);
                let mut g = generators::power_law_chung_lu_capped(n, base, 2.3, cap, seed);
                generators::triadic_closure(&mut g, m / 8, seed ^ 0x3c10);
                plant_attackable_anomalies(&mut g, n / 120 + 2, n / 30, seed ^ 0x717e);
                generators::attach_isolated(&mut g, seed ^ 0x717f);
                g
            }
            Dataset::BitcoinAlpha => {
                // Sparse trust network: mild tail, low clustering, a few
                // dense trust rings.
                let mut g = generators::power_law_chung_lu(n, m.saturating_sub(m / 10), 2.6, seed);
                plant_standard_anomalies(&mut g, (n / 150).max(2), seed ^ 0xb17c);
                generators::attach_isolated(&mut g, seed ^ 0xb17d);
                g
            }
        }
    }
}

/// Mixes a planted-partition community graph with a Chung–Lu tail so the
/// result has both communities and hubs (Blogcatalog-like).
fn blend_communities_and_tail(n: usize, m: usize, k: usize, gamma: f64, seed: u64) -> Graph {
    let comm_edges = m * 2 / 3;
    let tail_edges = m - comm_edges;
    let p_in = comm_edges as f64 / (k as f64 * (n / k) as f64 * ((n / k) as f64 - 1.0) / 2.0);
    let mut g = generators::planted_partition(n, k, p_in.min(0.9), 0.001, seed);
    let tail = generators::power_law_chung_lu(n, tail_edges, gamma, seed ^ 0x7a11);
    for (u, v) in tail.edges() {
        g.add_edge(u, v);
    }
    g
}

/// Plants *attackable* anomalies: near-cliques and moderate near-stars
/// whose AScore deficits are fixable with a handful of edge flips each —
/// the regime the paper's targets live in (it reports 4–9 modified
/// edges per target sufficing for up to 90% score decreases).
fn plant_attackable_anomalies(g: &mut Graph, cliques: usize, star_spokes: usize, seed: u64) {
    let n = g.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    for c in 0..cliques.max(1) {
        let size = rng.gen_range(7..=11);
        let members: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..n)).collect();
        generators::plant_near_clique(g, &members, 0.9, seed ^ ((c as u64) << 8));
    }
    for c in 0..3u64 {
        let center = rng.gen_range(0..n);
        let spokes = star_spokes.max(10) + rng.gen_range(0..10);
        generators::plant_near_star(g, center, spokes, seed ^ 0x57a6 ^ (c << 16));
    }
}

/// Plants the anomalous structures the paper's threat model presumes:
/// a few near-cliques and near-stars whose members become the high-AScore
/// nodes the attacker wants to hide.
fn plant_standard_anomalies(g: &mut Graph, count: usize, seed: u64) {
    let n = g.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed);
    for c in 0..count.max(1) {
        // Near-clique of 6-10 random members.
        let size = rng.gen_range(6..=10);
        let members: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..n)).collect();
        generators::plant_near_clique(g, &members, 0.9, seed ^ ((c as u64) << 8));
        // Near-star.
        let center = rng.gen_range(0..n);
        let spokes = rng.gen_range(n as usize / 30..n as usize / 12);
        generators::plant_near_star(g, center, spokes, seed ^ 0x57a5 ^ ((c as u64) << 16));
    }
}

/// Loads a real edge-list file and BFS-samples a connected ~`target`-node
/// subgraph, mirroring the paper's pre-processing of the real datasets.
pub fn load_real(path: impl AsRef<Path>, target: usize, seed: u64) -> Result<Graph, IoError> {
    let loaded = load_edge_list(path)?;
    let (sub, _) = sample::bfs_sample(&loaded.graph, target, seed);
    Ok(sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_oddball::OddBall;

    #[test]
    fn node_counts_match_table_one_exactly() {
        for d in Dataset::all() {
            let g = d.build(7);
            let (pn, _) = d.paper_statistics();
            assert_eq!(g.num_nodes(), pn, "{}", d.name());
        }
    }

    #[test]
    fn edge_counts_within_tolerance_of_table_one() {
        for d in Dataset::all() {
            let g = d.build(7);
            let (_, pm) = d.paper_statistics();
            let m = g.num_edges() as f64;
            let rel = (m - pm as f64).abs() / pm as f64;
            assert!(
                rel < 0.25,
                "{}: {m} edges vs paper {pm} (rel err {rel:.2})",
                d.name()
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for d in Dataset::all() {
            assert_eq!(d.build(3), d.build(3), "{}", d.name());
            assert_ne!(d.build(3), d.build(4), "{}", d.name());
        }
    }

    #[test]
    fn no_isolated_nodes() {
        for d in Dataset::all() {
            let g = d.build(11);
            for u in 0..g.num_nodes() as NodeId {
                assert!(g.degree(u) >= 1, "{}: node {u} isolated", d.name());
            }
        }
    }

    #[test]
    fn stand_ins_have_heavy_tails() {
        for d in [
            Dataset::Blogcatalog,
            Dataset::Wikivote,
            Dataset::BitcoinAlpha,
        ] {
            let g = d.build(13);
            let max_deg = (0..g.num_nodes() as NodeId)
                .map(|u| g.degree(u))
                .max()
                .unwrap();
            let avg = ba_graph::metrics::average_degree(&g);
            assert!(
                max_deg as f64 > 6.0 * avg,
                "{}: max {max_deg} vs avg {avg} - tail too light",
                d.name()
            );
        }
    }

    #[test]
    fn oddball_finds_planted_anomalies_on_stand_ins() {
        for d in [
            Dataset::Blogcatalog,
            Dataset::Wikivote,
            Dataset::BitcoinAlpha,
        ] {
            let g = d.build(17);
            let model = OddBall::default().fit(&g).unwrap();
            let top = model.top_k(50);
            // The top-50 AScores must be clearly above the median: there
            // must be real outliers to attack.
            let median = ba_stats::percentile(model.scores(), 50.0);
            assert!(
                top[9].1 > 4.0 * median.max(0.05),
                "{}: 10th score {} vs median {median}",
                d.name(),
                top[9].1
            );
        }
    }

    #[test]
    fn scaled_builds_shrink() {
        let g = Dataset::Wikivote.build_scaled(300, 1500, 5);
        assert_eq!(g.num_nodes(), 300);
        assert!(
            g.num_edges() > 700 && g.num_edges() < 2600,
            "{}",
            g.num_edges()
        );
    }

    #[test]
    fn load_real_roundtrip() {
        // Save a synthetic graph as an edge list and reload through the
        // real-data path.
        let g = Dataset::Ba.build_scaled(200, 600, 3);
        let dir = std::env::temp_dir().join("ba_datasets_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("real.edges");
        ba_graph::io::save_edge_list(&g, &path).unwrap();
        let sub = load_real(&path, 150, 9).unwrap();
        assert_eq!(sub.num_nodes(), 150);
        assert_eq!(ba_graph::metrics::connected_components(&sub), 1);
        std::fs::remove_file(path).ok();
    }
}
