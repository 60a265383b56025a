//! Differential suite for the guided route search.
//!
//! `BfsScratch::guided_path` prunes the BFS to the lens that the topology's
//! edge-length bound `ℓ` allows, and claims to return *exactly* the path
//! of the plain early-exit BFS — same hops, same tie-breaks. This suite
//! pins that claim against a verbatim copy of the original allocate-per-call
//! search, on random deployments and on layouts built to break it: distance
//! ties everywhere, collinear and coincident points, points on shard and
//! tile boundaries, disconnected pairs and degenerate sizes. A locality test
//! catches a silent fallback to the unpruned search.

use proptest::prelude::*;
use std::collections::VecDeque;
use wsn::geom::hash::derive_seed2;
use wsn::geom::{Aabb, Point};
use wsn::graph::bfs::{self, BfsScratch};
use wsn::graph::Csr;
use wsn::pointproc::matern::sample_matern_ii;
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::{
    build_gabriel, build_gabriel_sharded, build_rng, build_udg, build_udg_sharded, build_yao,
    build_yao_sharded,
};

/// The original `bfs::path`: a fresh parent array and a `VecDeque` per
/// call. The reference every search here must reproduce.
fn reference_path(g: &Csr, src: u32, dst: u32) -> Option<Vec<u32>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent = vec![u32::MAX; g.n()];
    let mut queue = VecDeque::new();
    parent[src as usize] = src;
    queue.push_back(src);
    'outer: while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if parent[v as usize] == u32::MAX {
                parent[v as usize] = u;
                if v == dst {
                    break 'outer;
                }
                queue.push_back(v);
            }
        }
    }
    if parent[dst as usize] == u32::MAX {
        return None;
    }
    let mut p = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        p.push(cur);
    }
    p.reverse();
    Some(p)
}

/// UDG, Gabriel, RNG and Yao over `UDG(points, r)`: every edge ≤ `r`.
fn bounded_topologies(points: &PointSet, r: f64) -> Vec<(&'static str, Csr)> {
    vec![
        ("udg", build_udg(points, r)),
        ("gabriel", build_gabriel(points, r)),
        ("rng", build_rng(points, r)),
        ("yao", build_yao(points, r, 6)),
    ]
}

/// Assert guided == plain == reference on every listed pair, with one
/// scratch reused across the whole list (a previous search's visited
/// marks must not leak).
fn assert_identical(
    ctx: &str,
    g: &Csr,
    points: &PointSet,
    ell: f64,
    pairs: impl IntoIterator<Item = (u32, u32)>,
) {
    let mut plain = BfsScratch::default();
    let mut guided = BfsScratch::default();
    for (s, t) in pairs {
        let want = reference_path(g, s, t);
        assert_eq!(bfs::path(g, s, t), want, "{ctx}: bfs::path {s}->{t}");
        assert_eq!(plain.path(g, s, t), want, "{ctx}: scratch path {s}->{t}");
        let got = guided.guided_path(g, s, t, Some(ell), |u| points.get(u));
        assert_eq!(got, want, "{ctx}: guided path {s}->{t}");
    }
}

fn all_pairs(n: usize) -> impl Iterator<Item = (u32, u32)> {
    (0..n as u32).flat_map(move |s| (0..n as u32).map(move |t| (s, t)))
}

/// `count` hash-drawn pairs over `n` nodes (src == dst included when drawn).
fn sampled_pairs(n: usize, seed: u64, count: u64) -> Vec<(u32, u32)> {
    (0..count)
        .map(|i| {
            let s = derive_seed2(seed, i, 0) % n as u64;
            let t = derive_seed2(seed, i, 1) % n as u64;
            (s as u32, t as u32)
        })
        .collect()
}

fn layout(coords: &[(f64, f64)]) -> PointSet {
    coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random Poisson and Matérn deployments, every bounded kind.
    #[test]
    fn guided_equals_plain_on_random_deployments(seed in 0u64..10_000) {
        let window = Aabb::square(12.0);
        let deployments = [
            ("poisson", sample_poisson_window(&mut rng_from_seed(seed), 6.0, &window)),
            ("matern2", sample_matern_ii(&mut rng_from_seed(seed ^ 0x5A), 14.0, 0.15, &window)),
        ];
        for (dname, points) in &deployments {
            if points.is_empty() {
                continue;
            }
            for (kname, g) in bounded_topologies(points, 1.0) {
                let pairs = sampled_pairs(points.len(), seed ^ 0x9A17, 48);
                assert_identical(&format!("{dname}/{kname}/seed {seed}"), &g, points, 1.0, pairs);
            }
        }
    }
}

/// A unit grid: at r = 1 every hop is a tie, and at r = √2 the diagonals
/// join in — the id tie-breaks alone decide every path.
#[test]
fn guided_equals_plain_on_grids_full_of_ties() {
    let side = 9;
    let coords: Vec<(f64, f64)> = (0..side * side)
        .map(|i| ((i % side) as f64, (i / side) as f64))
        .collect();
    let points = layout(&coords);
    for r in [1.0, 2f64.sqrt()] {
        for (kname, g) in bounded_topologies(&points, r) {
            assert_identical(
                &format!("grid/{kname}/r={r}"),
                &g,
                &points,
                r,
                all_pairs(points.len()),
            );
        }
    }
}

/// A collinear strip with uneven gaps (some exactly r, one a gap that cuts
/// the strip in two) and repeated coordinates.
#[test]
fn guided_equals_plain_on_a_collinear_strip() {
    let xs = [
        0.0, 0.4, 1.4, 1.4, 2.0, 3.0, 3.5, 3.5, 4.5, 5.2, 7.0, 7.5, 8.5, 8.9,
    ];
    let points = layout(&xs.iter().map(|&x| (x, 2.0)).collect::<Vec<_>>());
    for (kname, g) in bounded_topologies(&points, 1.0) {
        assert_identical(
            &format!("strip/{kname}"),
            &g,
            &points,
            1.0,
            all_pairs(points.len()),
        );
    }
}

/// Clusters of coincident points: a source or relay that coincides with
/// the destination, where "strictly closer" can never improve.
#[test]
fn guided_equals_plain_with_coincident_points() {
    let mut coords = Vec::new();
    for (x, y) in [(0.0, 0.0), (0.9, 0.0), (1.8, 0.3), (2.5, 0.9), (0.9, 0.8)] {
        for _ in 0..3 {
            coords.push((x, y));
        }
    }
    // Interleave ids so coincident copies are not contiguous.
    coords.push((0.0, 0.0));
    coords.push((2.5, 0.9));
    let points = layout(&coords);
    for (kname, g) in bounded_topologies(&points, 1.0) {
        assert_identical(
            &format!("coincident/{kname}"),
            &g,
            &points,
            1.0,
            all_pairs(points.len()),
        );
    }
}

/// Points exactly on shard and tile boundaries, through the sharded
/// builders (tile side = r, so integer coordinates sit on tile edges).
#[test]
fn guided_equals_plain_on_shard_boundaries() {
    let mut coords = Vec::new();
    for i in 0..8 {
        for j in 0..8 {
            coords.push((i as f64, j as f64));
            if (i + j) % 3 == 0 {
                coords.push((i as f64 + 0.5, j as f64));
            }
        }
    }
    let points = layout(&coords);
    let graphs = [
        ("udg", build_udg_sharded(&points, 1.0, 2)),
        ("gabriel", build_gabriel_sharded(&points, 1.0, 2)),
        ("yao", build_yao_sharded(&points, 1.0, 6, 2)),
    ];
    for (kname, g) in graphs {
        let pairs = sampled_pairs(points.len(), 0xB0DE, 600);
        assert_identical(&format!("boundary/{kname}"), &g, &points, 1.0, pairs);
    }
}

/// Two islands: every cross pair is `None`, every in-island pair a path.
#[test]
fn guided_reports_disconnected_pairs_as_none() {
    let mut coords = Vec::new();
    for i in 0..12 {
        coords.push(((i % 4) as f64 * 0.8, (i / 4) as f64 * 0.8));
        coords.push((20.0 + (i % 4) as f64 * 0.8, (i / 4) as f64 * 0.8));
    }
    let points = layout(&coords);
    let g = build_udg(&points, 1.0);
    assert_identical("islands", &g, &points, 1.0, all_pairs(points.len()));
    let mut s = BfsScratch::default();
    assert_eq!(s.guided_path(&g, 0, 1, Some(1.0), |u| points.get(u)), None);
    assert!(s
        .guided_path(&g, 0, 2, Some(1.0), |u| points.get(u))
        .is_some());
}

/// n ∈ {0, 1, 2}: nothing to search, a lone node, and a pair in and out of
/// range.
#[test]
fn guided_handles_degenerate_sizes() {
    let empty = PointSet::new();
    for (kname, g) in bounded_topologies(&empty, 1.0) {
        assert_eq!(g.n(), 0, "{kname}");
        assert_identical(kname, &g, &empty, 1.0, all_pairs(0));
    }
    for coords in [
        vec![(0.5, 0.5)],
        vec![(0.0, 0.0), (0.7, 0.0)],
        vec![(0.0, 0.0), (3.0, 0.0)],
    ] {
        let points = layout(&coords);
        for (kname, g) in bounded_topologies(&points, 1.0) {
            let ctx = format!("n={}/{kname}", points.len());
            assert_identical(&ctx, &g, &points, 1.0, all_pairs(points.len()));
        }
    }
}

/// Locality: on a 10⁴-node UDG a far pair's guided search reaches at most
/// half the nodes the plain search reaches — a silent fallback to the
/// unpruned BFS fails here even though it would pass every identity test.
#[test]
fn guided_search_stays_in_the_lens() {
    let side = 1000f64.sqrt();
    let points = sample_poisson_window(&mut rng_from_seed(0x1E45), 10.0, &Aabb::square(side));
    let g = build_udg(&points, 1.0);
    let nearest = |q: Point| {
        (0..points.len() as u32)
            .min_by(|&a, &b| {
                points
                    .get(a)
                    .dist_sq(q)
                    .total_cmp(&points.get(b).dist_sq(q))
            })
            .unwrap()
    };
    let src = nearest(Point::new(0.1 * side, 0.5 * side));
    let dst = nearest(Point::new(0.9 * side, 0.5 * side));
    let mut plain = BfsScratch::default();
    let mut guided = BfsScratch::default();
    let want = plain.path(&g, src, dst);
    assert!(want.is_some(), "λ = 10 keeps the far pair connected");
    assert_eq!(
        guided.guided_path(&g, src, dst, Some(1.0), |u| points.get(u)),
        want
    );
    assert!(
        2 * guided.visited() <= plain.visited(),
        "guided reached {} nodes, plain {}",
        guided.visited(),
        plain.visited()
    );
}
