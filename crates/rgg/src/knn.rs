//! k-nearest-neighbour graphs — the `NN(2, k)` model of Häggström & Meester.
//!
//! Every point establishes an (undirected) edge to the k points nearest to
//! it; the resulting undirected graph is the union of the directed k-NN
//! relation with its reverse. Ties (measure-zero for a PPP) are broken
//! deterministically by point id, as the paper permits ("any tie-breaking
//! mechanism we deem fit").

use wsn_graph::{Csr, EdgeList};
use wsn_pointproc::PointSet;
use wsn_spatial::GridIndex;

use crate::sharded::knn_cell_size;

/// The directed k-NN lists: `lists[u]` = ids of the (up to) k nearest
/// neighbours of `u`, ordered by increasing distance.
pub fn knn_lists(points: &PointSet, k: usize) -> Vec<Vec<u32>> {
    if points.is_empty() || k == 0 {
        return vec![Vec::new(); points.len()];
    }
    let index = GridIndex::build(points, knn_cell_size(points, k));
    points
        .iter_enumerated()
        .map(|(u, p)| {
            index
                .knn(p, k, Some(u))
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        })
        .collect()
}

/// Build the undirected `NN(points, k)` graph.
pub fn build_knn(points: &PointSet, k: usize) -> Csr {
    let lists = knn_lists(points, k);
    let mut el = EdgeList::with_capacity(points.len(), points.len() * k);
    for (u, nbrs) in lists.iter().enumerate() {
        for &v in nbrs {
            el.add(u as u32, v);
        }
    }
    Csr::from_edge_list(el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wsn_geom::{Aabb, Point};
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    #[test]
    fn colinear_example() {
        // x positions 0, 1, 3, 7: 1-NN edges are 0→1, 1→0, 2→1, 3→2.
        let pts: PointSet = [0.0, 1.0, 3.0, 7.0]
            .iter()
            .map(|&x| Point::new(x, 0.0))
            .collect();
        let g = build_knn(&pts, 1);
        assert!(g.has_edge(0, 1));
        assert!(
            g.has_edge(1, 2),
            "2's nearest is 1 even though 1's nearest is 0"
        );
        assert!(g.has_edge(2, 3), "3's nearest is 2");
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn degree_is_at_least_k_for_large_sets() {
        let pts = sample_binomial_window(&mut rng_from_seed(5), 200, &Aabb::square(10.0));
        let k = 4;
        let g = build_knn(&pts, k);
        for u in 0..g.n() as u32 {
            assert!(g.degree(u) >= k, "node {u} degree {}", g.degree(u));
        }
    }

    #[test]
    fn small_sets_clamp_k() {
        let pts: PointSet = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]
            .into_iter()
            .collect();
        let g = build_knn(&pts, 10);
        assert_eq!(g.m(), 1);
        let lists = knn_lists(&pts, 10);
        assert_eq!(lists[0], vec![1]);
    }

    #[test]
    fn zero_k_gives_empty_graph() {
        let pts = sample_binomial_window(&mut rng_from_seed(6), 20, &Aabb::square(5.0));
        let g = build_knn(&pts, 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn lists_are_sorted_by_distance() {
        let pts = sample_binomial_window(&mut rng_from_seed(7), 100, &Aabb::square(10.0));
        let lists = knn_lists(&pts, 6);
        for (u, l) in lists.iter().enumerate() {
            let p = pts.get(u as u32);
            for w in l.windows(2) {
                assert!(p.dist(pts.get(w[0])) <= p.dist(pts.get(w[1])) + 1e-12);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Directed lists match the brute-force k-NN oracle; the undirected
        /// graph is exactly the symmetrised relation.
        #[test]
        fn prop_matches_bruteforce(seed in 0u64..200, n in 2usize..90, k in 1usize..8) {
            let pts = sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(6.0));
            let lists = knn_lists(&pts, k);
            for (u, list) in lists.iter().enumerate() {
                let oracle: Vec<u32> = wsn_spatial::bruteforce::knn(&pts, pts.get(u as u32), k, Some(u as u32))
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                prop_assert_eq!(list.clone(), oracle, "node {}", u);
            }
            let g = build_knn(&pts, k);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    let expected = lists[u as usize].contains(&v) || lists[v as usize].contains(&u);
                    prop_assert_eq!(g.has_edge(u, v), expected);
                }
            }
        }
    }
}

#[cfg(test)]
mod theory_tests {
    use super::*;
    use wsn_geom::Aabb;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    /// Classical fact: a point can be the k-nearest-neighbour target of at
    /// most 6k points in the plane (one per 60° cone), so the undirected
    /// NN(2,k) degree is at most ~6k. We check the much looser 7k bound to
    /// stay clear of boundary-effect edge cases.
    #[test]
    fn undirected_degree_is_linearly_bounded_in_k() {
        for k in [1usize, 3, 6] {
            let pts =
                sample_binomial_window(&mut rng_from_seed(k as u64), 600, &Aabb::square(10.0));
            let g = build_knn(&pts, k);
            let max_deg = (0..g.n() as u32).map(|u| g.degree(u)).max().unwrap();
            assert!(max_deg <= 7 * k, "k = {k}: max degree {max_deg} exceeds 7k");
        }
    }

    /// The undirected NN graph always contains the mutual-nearest-neighbour
    /// matching: if u and v are each other's nearest, the edge exists for
    /// every k ≥ 1.
    #[test]
    fn mutual_nearest_neighbors_are_always_linked() {
        let pts = sample_binomial_window(&mut rng_from_seed(9), 200, &Aabb::square(8.0));
        let lists = knn_lists(&pts, 1);
        let g = build_knn(&pts, 1);
        for (u, l) in lists.iter().enumerate() {
            let v = l[0];
            if lists[v as usize][0] == u as u32 {
                assert!(g.has_edge(u as u32, v));
            }
        }
    }
}
