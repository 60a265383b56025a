//! Unit-disk graphs.

use wsn_graph::{Csr, EdgeList};
use wsn_pointproc::PointSet;
use wsn_spatial::GridIndex;

/// Build `UDG(points, radius)`: an undirected edge wherever
/// `d(u, v) ≤ radius`. O(n · expected neighbourhood size) via the grid index.
pub fn build_udg(points: &PointSet, radius: f64) -> Csr {
    assert!(radius > 0.0, "radius must be positive");
    if points.is_empty() {
        return Csr::empty(0);
    }
    let index = GridIndex::build(points, radius);
    let mut el = EdgeList::with_capacity(points.len(), points.len() * 4);
    for (u, p) in points.iter_enumerated() {
        index.for_each_in_disk(p, radius, |v, _| {
            if v > u {
                el.add(u, v);
            }
        });
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
    fn hand_built_chain() {
        let pts: PointSet = vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(1.8, 0.0),
            Point::new(4.0, 0.0),
        ]
        .into_iter()
        .collect();
        let g = build_udg(&pts, 1.0);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn edge_at_exactly_radius_is_included() {
        let pts: PointSet = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]
            .into_iter()
            .collect();
        let g = build_udg(&pts, 1.0);
        assert!(g.has_edge(0, 1), "closed-ball convention");
    }

    #[test]
    fn empty_input() {
        assert_eq!(build_udg(&PointSet::new(), 1.0).n(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// UDG edges exactly match the pairwise predicate.
        #[test]
        fn prop_matches_bruteforce(seed in 0u64..300, n in 0usize..120, r in 0.2f64..2.0) {
            let pts = sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(8.0));
            let g = build_udg(&pts, r);
            prop_assume!(n > 0);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    let expected = pts.get(u).dist(pts.get(v)) <= r;
                    prop_assert_eq!(g.has_edge(u, v), expected, "pair ({}, {})", u, v);
                }
            }
        }
    }
}
