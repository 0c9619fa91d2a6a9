//! Graph statistics: components, degree distribution, clustering.
//! Used for Table I reporting and for validating the synthetic stand-ins
//! against the real datasets' published statistics.
//!
//! All functions are generic over [`GraphView`], so they evaluate the
//! mutable [`Graph`](crate::Graph), the frozen
//! [`CsrGraph`](crate::CsrGraph), and a live
//! [`DeltaOverlay`](crate::DeltaOverlay) alike.

use crate::egonet::egonet_features;
use crate::view::GraphView;
use crate::NodeId;

/// Number of connected components (BFS over all nodes).
pub fn connected_components<V: GraphView + ?Sized>(g: &V) -> usize {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut components = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        components += 1;
        seen[start] = true;
        queue.push_back(start as NodeId);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors_sorted(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    components
}

/// Average degree `2m / n`.
pub fn average_degree<V: GraphView + ?Sized>(g: &V) -> f64 {
    if g.num_nodes() == 0 {
        return 0.0;
    }
    2.0 * g.num_edges() as f64 / g.num_nodes() as f64
}

/// Local clustering coefficient of node `u`: fraction of neighbour pairs
/// that are themselves connected. Zero for degree < 2.
pub fn local_clustering<V: GraphView + ?Sized>(g: &V, u: NodeId) -> f64 {
    clustering_coefficient(g.degree(u) as f64, g.triangles_at(u) as f64)
}

/// The clustering coefficient of a node of degree `degree` that lies on
/// `triangles` triangles: `2T / (d (d − 1))`, zero for degree < 2. For
/// callers that already hold the counts, e.g. as `(N, E − N)` from
/// [`egonet_features`].
pub fn clustering_coefficient(degree: f64, triangles: f64) -> f64 {
    if degree < 2.0 {
        return 0.0;
    }
    2.0 * triangles / (degree * (degree - 1.0))
}

/// Mean local clustering coefficient, with every node's triangle count
/// taken from one [`egonet_features`] pass.
pub fn average_clustering<V: GraphView + ?Sized>(g: &V) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let feats = egonet_features(g);
    feats
        .n
        .iter()
        .zip(&feats.e)
        .map(|(&deg, &e)| clustering_coefficient(deg, e - deg))
        .sum::<f64>()
        / n as f64
}

/// A compact statistics bundle (Table I row plus sanity fields).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Mean degree.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean local clustering coefficient.
    pub avg_clustering: f64,
    /// Connected components.
    pub components: usize,
}

/// Computes the full statistics bundle.
pub fn stats<V: GraphView + ?Sized>(g: &V) -> GraphStats {
    GraphStats {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        avg_degree: average_degree(g),
        max_degree: (0..g.num_nodes() as NodeId)
            .map(|u| g.degree(u))
            .max()
            .unwrap_or(0),
        avg_clustering: average_clustering(g),
        components: connected_components(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn components_of_disjoint_edges() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3)]);
        assert_eq!(connected_components(&g), 4); // two pairs + two isolated
    }

    #[test]
    fn single_component_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(connected_components(&g), 1);
    }

    #[test]
    fn clustering_of_triangle_and_star() {
        let tri = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(local_clustering(&tri, 0), 1.0);
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(local_clustering(&star, 0), 0.0);
        assert_eq!(local_clustering(&star, 1), 0.0); // degree 1
    }

    #[test]
    fn average_degree_formula() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(average_degree(&g), 1.5);
    }

    #[test]
    fn stats_bundle_consistent() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0)]);
        let s = stats(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.components, 2);
    }
}
