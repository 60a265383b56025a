//! Routes on the rank-space maintained graph equal routes on the
//! deployment-id graph.
//!
//! `IncrementalGraph` keeps its CSR in Morton-rank space, and every row
//! holds ranks **sorted by their deployment ids**, so a BFS over ascending
//! adjacency visits nodes in the order it would on the deployment-id graph:
//! the same parents, the same paths, hence the same battery debits in the
//! lifetime engine and the same served routes. This suite pins that on
//! layouts full of equal-length routes — the unit lattice at r = 1 and at
//! r = √2, collinear strips and coincident stacks — for every plain kind
//! over several churn epochs: the guided path on `g.graph()` between the
//! ranks of an alive pair, mapped back through `to_orig`, must equal
//! `bfs::path` on `cold_rebuild()`. Deployment ids are hash-shuffled
//! against space, so rank order and id order disagree almost everywhere;
//! rows sorted by rank instead of by deployment id break the tie-breaks and
//! fail this suite.

use wsn::geom::hash::{derive_seed2, mix64};
use wsn::geom::Point;
use wsn::graph::bfs::{self, BfsScratch};
use wsn::pointproc::PointSet;
use wsn::rgg::{IncTopology, IncrementalGraph};

/// Route pairs checked per epoch.
const PAIRS: u64 = 40;
/// Churn epochs after the initial build.
const EPOCHS: u64 = 4;

/// The plain kinds over a threshold radius `r` (k-NN and HNG ignore it).
fn kinds(r: f64) -> [IncTopology; 6] {
    [
        IncTopology::Udg { radius: r },
        IncTopology::Gabriel { radius: r },
        IncTopology::Rng { radius: r },
        IncTopology::Yao {
            radius: r,
            cones: 6,
        },
        IncTopology::Knn { k: 4 },
        IncTopology::Hng {
            p: 0.5,
            links: 2,
            seed: 0x4E47,
        },
    ]
}

/// `points` with their deployment ids hash-shuffled, so a point's id says
/// nothing about where it lies.
fn shuffled(points: impl IntoIterator<Item = Point>, seed: u64) -> PointSet {
    let mut keyed: Vec<(u64, Point)> = points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (mix64(seed ^ i as u64), p))
        .collect();
    keyed.sort_by_key(|&(h, _)| h);
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// A `side × side` square lattice of spacing 1.
fn lattice(side: u32) -> impl Iterator<Item = Point> {
    (0..side).flat_map(move |j| (0..side).map(move |i| Point::new(i as f64, j as f64)))
}

/// The layouts: name, points, threshold radius. Both strips have integer
/// coordinates with every gap exactly 5, so every second neighbour sits
/// exactly on the radius 10: one runs along the x axis (a bounding box of
/// zero area, which the k-NN grids must still size sensibly), the other
/// along the slope 4/3.
fn layouts() -> Vec<(&'static str, PointSet, f64)> {
    let strip = (0..120).map(|i| Point::new(5.0 * i as f64, 0.0));
    let tilted = (0..120).map(|i| Point::new(3.0 * i as f64, 4.0 * i as f64));
    let stacks = lattice(6).flat_map(|p| [p; 3]);
    vec![
        ("lattice r=1", shuffled(lattice(14), 1), 1.0),
        (
            "lattice r=√2",
            shuffled(lattice(14), 2),
            std::f64::consts::SQRT_2,
        ),
        ("collinear strip", shuffled(strip, 3), 10.0),
        ("tilted strip", shuffled(tilted, 5), 10.0),
        ("coincident stacks", shuffled(stacks, 4), 1.0),
    ]
}

/// Hashed churn: about a tenth of the alive nodes die and a quarter of
/// the dead ones join.
fn churn(g: &IncrementalGraph, seed: u64, epoch: u64) -> (Vec<u32>, Vec<u32>) {
    let (mut deaths, mut joins) = (Vec::new(), Vec::new());
    for u in 0..g.alive().len() as u32 {
        let h = derive_seed2(seed, epoch, u as u64);
        match g.alive()[u as usize] {
            true if h.is_multiple_of(10) => deaths.push(u),
            false if h.is_multiple_of(4) => joins.push(u),
            _ => {}
        }
    }
    (deaths, joins)
}

/// Guided routes on the rank-space graph, mapped back to deployment ids,
/// equal the BFS paths on the deployment-id cold rebuild.
fn assert_routes_match(g: &IncrementalGraph, seed: u64, ctx: &str) {
    let cold = g.cold_rebuild();
    let csr = g.graph();
    let (to_rank, to_orig) = (csr.to_rank(), csr.to_orig());
    let pos = g.rank_points();
    let alive: Vec<u32> = (0..g.alive().len() as u32)
        .filter(|&u| g.alive()[u as usize])
        .collect();
    if alive.is_empty() {
        return;
    }
    let mut scratch = BfsScratch::default();
    let mut routed = 0;
    for i in 0..PAIRS {
        let pick = |salt: u64| alive[(derive_seed2(seed, i, salt) % alive.len() as u64) as usize];
        let (src, dst) = (pick(0), pick(1));
        let (s, t) = (to_rank[src as usize], to_rank[dst as usize]);
        let got = scratch
            .guided_path(csr, s, t, g.kind().max_edge_len(), |u| pos.get(u))
            .map(|p| p.iter().map(|&u| to_orig[u as usize]).collect::<Vec<u32>>());
        let want = bfs::path(&cold, src, dst);
        assert_eq!(got, want, "{ctx}: route {src} → {dst}");
        routed += usize::from(want.is_some_and(|p| p.len() > 2));
    }
    assert!(routed > 0, "{ctx}: no multi-hop route was checked");
}

#[test]
fn rank_space_routes_equal_deployment_id_routes_on_tie_heavy_layouts() {
    for (name, points, r) in layouts() {
        let n = points.len();
        for kind in kinds(r) {
            let alive: Vec<bool> = (0..n).map(|i| i % 5 != 4).collect();
            let mut g = IncrementalGraph::build(points.clone(), alive, kind, 2);
            let moved = g
                .graph()
                .to_orig()
                .iter()
                .enumerate()
                .filter(|&(r, &id)| r != id as usize)
                .count();
            assert!(moved > n / 2, "{name}: the Morton layout barely moved ids");
            for epoch in 0..=EPOCHS {
                let ctx = format!("{name}/{kind:?}/epoch {epoch}");
                assert_routes_match(&g, derive_seed2(0x5EED, epoch, 0), &ctx);
                assert!(g.verify_cold(), "{ctx}: repair diverged from cold rebuild");
                let (deaths, joins) = churn(&g, 0xC4A2, epoch);
                g.apply_churn(&deaths, &joins);
            }
        }
    }
}
