//! Differential + property suite for subset indexes.
//!
//! A [`CellIndex::build_subset`] over a member subset of a point set must
//! answer exactly what an index over the whole set answers once restricted
//! to the members — whatever its grid, which is sized to the members alone.
//! The incremental repair rests on it: its HNG level indexes are subset
//! indexes over the universe nodes of level `≥ j`, queried under an alive
//! mask.

use proptest::prelude::*;
use wsn_geom::{Aabb, Point};
use wsn_pointproc::{rng_from_seed, sample_binomial_window, PointSet};
use wsn_spatial::{bruteforce, CellIndex, GridIndex};

fn sample_points(n: usize, seed: u64) -> PointSet {
    sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(10.0))
}

/// Ids of the full set inside the extent — the membership oracle.
fn members_of(pts: &PointSet, extent: &Aabb) -> Vec<u32> {
    pts.iter_enumerated()
        .filter(|&(_, p)| extent.contains(p))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn full_membership_degenerates_to_the_global_index() {
    let pts = sample_points(200, 7);
    let all: Vec<u32> = (0..pts.len() as u32).collect();
    let sub = CellIndex::build_subset(&pts, &all, 1.0);
    let global = GridIndex::build(&pts, 1.0);
    // Queries far outside the members' box still answer exactly.
    let q = Point::new(20.0, -3.0);
    assert_eq!(sub.knn_where(&pts, q, 5, |_| true), global.knn(q, 5, None));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    sub.for_each_in_disk(&pts, Point::new(5.0, 5.0), 2.5, |id, _| a.push(id));
    global.in_disk(Point::new(5.0, 5.0), 2.5, &mut b);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn gather_sorted_matches_the_membership_oracle() {
    let pts = sample_points(300, 8);
    let extent = Aabb::from_coords(2.0, 1.0, 8.0, 7.5);
    let sub = CellIndex::build_subset(&pts, &members_of(&pts, &extent), 0.9);
    let boxes = [
        Aabb::from_coords(2.5, 1.5, 4.0, 3.0),
        Aabb::from_coords(2.0, 1.0, 8.0, 7.5), // the whole extent
        Aabb::from_coords(5.0, 5.0, 5.1, 5.1), // near-degenerate
        Aabb::from_coords(-5.0, -5.0, 15.0, 15.0), // beyond every member
    ];
    let mut got = Vec::new();
    for b in &boxes {
        sub.in_aabb(&pts, b, &mut got);
        got.sort_unstable();
        let expect: Vec<u32> = pts
            .iter_enumerated()
            .filter(|&(_, p)| extent.contains(p) && b.contains(p))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, expect, "{b:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `knn_where` over a subset index is the exact k-NN of the members
    /// (every answer certified by construction): byte-equal to the
    /// brute-force oracle over the members and to a global index filtered
    /// to them, for a query inside or outside the members' box.
    #[test]
    fn prop_knn_certified_equals_global(
        seed in 0u64..500,
        n in 1usize..150,
        k in 1usize..12,
        ex0 in 0.0f64..5.0,
        ey0 in 0.0f64..5.0,
        ew in 1.0f64..7.0,
        eh in 1.0f64..7.0,
        cell in 0.2f64..2.0,
    ) {
        let pts = sample_points(n, seed);
        let extent = Aabb::from_coords(ex0, ey0, ex0 + ew, ey0 + eh);
        let members = members_of(&pts, &extent);
        let sub = CellIndex::build_subset(&pts, &members, cell);
        let mut rng = rng_from_seed(seed ^ 0x51);
        use rand::RngExt;
        let q_id = rng.random_range(0..n) as u32;
        let q = pts.get(q_id);
        let got: Vec<u32> = sub
            .knn_where(&pts, q, k, |id| id != q_id)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        let member_pts: PointSet = members.iter().map(|&i| pts.get(i)).collect();
        let skip = members.iter().position(|&i| i == q_id).map(|l| l as u32);
        let oracle: Vec<u32> = bruteforce::knn(&member_pts, q, k, skip)
            .iter()
            .map(|&(l, _)| members[l as usize])
            .collect();
        prop_assert_eq!(&got, &oracle, "subset k-NN must be the members' k-NN");
        let global = CellIndex::build(&pts, cell);
        let filtered: Vec<u32> = global
            .knn_where(&pts, q, k, |id| id != q_id && extent.contains(pts.get(id)))
            .iter()
            .map(|&(i, _)| i)
            .collect();
        prop_assert_eq!(&got, &filtered);
    }
}
