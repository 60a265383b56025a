//! The epoch metrics kept with the repair ≡ the full passes.
//!
//! `IncrementalGraph` keeps its graph's fingerprint with the rows (one hash
//! per row, rehashed by the splice) and its component labels, count and
//! giant with the repair (a budgeted local search from the edges the splice
//! deleted, unions over the edges it created). After every `apply_churn`
//! both must equal the full passes — `fingerprint` and
//! `connected_components(..).by_id(..)` — over the maintained graph and
//! over a cold rebuild, for all six plain kinds, on a Poisson layout and on
//! layouts built to break a local repair: a strip cut in two by one death,
//! a join that bridges two components, the giant's smallest id dying, a
//! survivor isolated by its neighbours' deaths, an id dying and rejoining
//! in one call, a quiescent call and graphs of 0, 1 and 2 nodes.
//!
//! The label search's visited count and fallback count depend only on the
//! schedule, so the last test pins them on a clustered schedule shaped like
//! the lifetime benchmark: the search stays well under a tenth of the
//! nodes and never falls back.

use wsn::geom::hash::{derive_seed2, mix64};
use wsn::geom::{Aabb, Point};
use wsn::graph::components::connected_components;
use wsn::graph::fingerprint;
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::{IncTopology, IncrementalGraph, RepairStats};

const KINDS: [IncTopology; 6] = [
    IncTopology::Udg { radius: 1.0 },
    IncTopology::Knn { k: 4 },
    IncTopology::Gabriel { radius: 1.0 },
    IncTopology::Rng { radius: 1.0 },
    IncTopology::Yao {
        radius: 1.0,
        cones: 6,
    },
    IncTopology::Hng {
        p: 0.5,
        links: 1,
        seed: 0x484E47,
    },
];

/// The kept metrics of `g` equal the full passes over its graph and over a
/// cold rebuild of its survivors.
fn check(g: &IncrementalGraph, ctx: &str) {
    let csr = g.graph();
    assert_eq!(csr.fingerprint(), fingerprint(csr), "{ctx}: fingerprint");
    let want = connected_components(csr).by_id(csr);
    let live = g.components();
    assert_eq!(live.by_id(csr), want.label, "{ctx}: labels");
    assert_eq!(live.count(), want.count, "{ctx}: count");
    assert_eq!(live.giant(), want.giant(), "{ctx}: giant");
    assert!(g.verify_cold(), "{ctx}: differs from the cold rebuild");
}

/// Apply one churn call and check the metrics after it.
fn churn(g: &mut IncrementalGraph, deaths: &[u32], joins: &[u32], ctx: &str) -> RepairStats {
    let stats = g.apply_churn(deaths, joins);
    check(g, ctx);
    stats
}

/// Build `kind` over `points` with `alive` and check the seeded metrics.
fn build(points: &PointSet, alive: Vec<bool>, kind: IncTopology, ctx: &str) -> IncrementalGraph {
    let g = IncrementalGraph::build(points.clone(), alive, kind, 4);
    check(&g, &format!("{ctx}: build"));
    g
}

/// The alive neighbours of deployment id `u` in the maintained graph.
fn neighbours(g: &IncrementalGraph, u: u32) -> Vec<u32> {
    g.graph().id_neighbors(u).collect()
}

#[test]
fn poisson_churn_keeps_the_metrics_for_every_kind() {
    let points = sample_poisson_window(&mut rng_from_seed(5), 8.0, &Aabb::square(14.0));
    let n = points.len();
    // A fifth of the universe is a reserve pool.
    let alive: Vec<bool> = (0..n).map(|u| u % 5 != 0).collect();
    for kind in KINDS {
        let mut g = build(&points, alive.clone(), kind, &format!("{kind:?}"));
        for e in 0..5u64 {
            let (mut deaths, mut joins) = (Vec::new(), Vec::new());
            for u in 0..n as u32 {
                let h = derive_seed2(0xE90C, e, u64::from(u));
                match g.alive()[u as usize] {
                    true if h.is_multiple_of(10) => deaths.push(u),
                    false if h.is_multiple_of(3) => joins.push(u),
                    _ => {}
                }
            }
            churn(&mut g, &deaths, &joins, &format!("{kind:?} epoch {e}"));
        }
    }
}

#[test]
fn a_strip_cut_in_two_by_one_death() {
    // A collinear strip at spacing 0.9: at radius 1 the threshold kinds
    // link only neighbours, so one death cuts it (k-NN and HNG reach past
    // it). Ids run along the strip, so a cut near the start leaves the
    // small end with id 0 and moves the long remainder's label; a cut in
    // the middle leaves two pieces too long to search.
    let points: PointSet = (0..3000).map(|i| Point::new(0.9 * i as f64, 0.0)).collect();
    for kind in KINDS {
        let ctx = format!("{kind:?}");
        let mut g = build(&points, vec![true; 3000], kind, &ctx);
        churn(&mut g, &[40], &[], &format!("{ctx}: cut near the start"));
        churn(&mut g, &[1500], &[], &format!("{ctx}: cut in the middle"));
        churn(
            &mut g,
            &[],
            &[40, 1500],
            &format!("{ctx}: both cuts mended"),
        );
        churn(&mut g, &[0, 2999], &[], &format!("{ctx}: both ends die"));
    }
}

#[test]
fn a_join_that_bridges_two_components() {
    // Two dense squares 1.5 apart; the reserve node between them is within
    // radius 1 of both.
    let window = Aabb::square(3.0);
    let left = sample_poisson_window(&mut rng_from_seed(11), 12.0, &window);
    let right = sample_poisson_window(&mut rng_from_seed(12), 12.0, &window);
    let mut points: PointSet = left.iter().collect();
    for p in right.iter() {
        points.push(Point::new(p.x + 4.5, p.y));
    }
    let bridge = points.len() as u32;
    for p in [
        Point::new(3.75, 1.5),
        Point::new(2.9, 1.5),
        Point::new(4.6, 1.5),
    ] {
        points.push(p);
    }
    let n = points.len();
    let alive: Vec<bool> = (0..n as u32).map(|u| u != bridge).collect();
    for kind in KINDS {
        let ctx = format!("{kind:?}");
        let mut g = build(&points, alive.clone(), kind, &ctx);
        churn(&mut g, &[], &[bridge], &format!("{ctx}: bridge joins"));
        churn(&mut g, &[bridge], &[], &format!("{ctx}: bridge dies"));
        churn(&mut g, &[], &[bridge], &format!("{ctx}: bridge rejoins"));
    }
}

#[test]
fn the_giant_losing_its_smallest_id_and_a_survivor_isolated() {
    let points = sample_poisson_window(&mut rng_from_seed(21), 9.0, &Aabb::square(12.0));
    let n = points.len();
    for kind in KINDS {
        let ctx = format!("{kind:?}");
        let mut g = build(&points, vec![true; n], kind, &ctx);
        for round in 0..3 {
            let (giant, _) = g.components().giant().expect("a non-empty graph");
            churn(
                &mut g,
                &[giant],
                &[],
                &format!("{ctx}: giant label {giant} dies"),
            );
            if round == 1 {
                churn(&mut g, &[], &[giant], &format!("{ctx}: {giant} rejoins"));
            }
        }
        // Kill every neighbour of the best-connected survivor.
        let hub = (0..n as u32)
            .filter(|&u| g.alive()[u as usize])
            .max_by_key(|&u| neighbours(&g, u).len())
            .expect("a survivor");
        let ring = neighbours(&g, hub);
        churn(
            &mut g,
            &ring,
            &[],
            &format!("{ctx}: {hub}'s neighbours die"),
        );
        churn(
            &mut g,
            &[],
            &ring,
            &format!("{ctx}: {hub}'s neighbours rejoin"),
        );
    }
}

#[test]
fn dying_and_rejoining_in_one_call_and_a_quiescent_call() {
    let points = sample_poisson_window(&mut rng_from_seed(31), 9.0, &Aabb::square(10.0));
    let n = points.len() as u32;
    for kind in KINDS {
        let ctx = format!("{kind:?}");
        let mut g = build(&points, vec![true; n as usize], kind, &ctx);
        let both: Vec<u32> = (0..n)
            .filter(|u| mix64(u64::from(*u)).is_multiple_of(7))
            .collect();
        churn(&mut g, &both, &both, &format!("{ctx}: die and rejoin"));
        let before = g.graph().fingerprint();
        let stats = churn(&mut g, &[], &[], &format!("{ctx}: quiescent"));
        assert_eq!(
            stats.labels.visited, 0,
            "{ctx}: a quiescent call searches nothing"
        );
        assert_eq!(g.graph().fingerprint(), before, "{ctx}: quiescent");
    }
}

#[test]
fn graphs_of_zero_one_and_two_nodes() {
    for kind in KINDS {
        let ctx = format!("{kind:?}");
        let empty = build(&PointSet::new(), Vec::new(), kind, &format!("{ctx}, n = 0"));
        assert_eq!(empty.components().giant(), None);
        let one: PointSet = [Point::new(0.0, 0.0)].into_iter().collect();
        let mut g = build(&one, vec![true], kind, &format!("{ctx}, n = 1"));
        churn(&mut g, &[0], &[], &format!("{ctx}, n = 1: dies"));
        churn(&mut g, &[], &[0], &format!("{ctx}, n = 1: rejoins"));
        let two: PointSet = [Point::new(0.0, 0.0), Point::new(0.5, 0.0)]
            .into_iter()
            .collect();
        let mut g = build(&two, vec![true, false], kind, &format!("{ctx}, n = 2"));
        churn(&mut g, &[], &[1], &format!("{ctx}, n = 2: 1 joins"));
        churn(&mut g, &[0], &[], &format!("{ctx}, n = 2: 0 dies"));
        churn(&mut g, &[1], &[0], &format!("{ctx}, n = 2: swap"));
        churn(&mut g, &[0], &[], &format!("{ctx}, n = 2: both dead"));
    }
}

#[test]
fn a_lifetime_shaped_schedule_searches_little_and_never_falls_back() {
    // The lifetime benchmark's shape at ~2·10⁴ deployed nodes: a UDG at
    // intensity 10 with a 30 % reserve, disk outages killing about 2 % of
    // the alive nodes per epoch (one outage of radius 3.5 at this size),
    // and every death replaced by the next reserve node.
    const DEPLOYED: f64 = 20_000.0;
    const RADIUS: f64 = 3.5;
    let side = (DEPLOYED / 10.0).sqrt();
    let window = Aabb::square(side);
    let points = sample_poisson_window(&mut rng_from_seed(41), 13.0, &window);
    let n = points.len();
    let deployed = (n as f64 / 1.3).round() as usize;
    let alive: Vec<bool> = (0..n).map(|u| u < deployed).collect();
    let mut g = build(&points, alive, IncTopology::Udg { radius: 1.0 }, "udg");
    let per_blast = std::f64::consts::PI * RADIUS * RADIUS;
    let blasts = ((-(0.98f64).ln() * window.area() / per_blast).round() as u64).max(1);
    let mut next_join = deployed as u32;
    for e in 0..8u64 {
        let mut deaths = Vec::new();
        for b in 0..blasts {
            let h = derive_seed2(0xB1A57, e, b);
            let c = Point::new(
                side * (h >> 11) as f64 / (1u64 << 53) as f64,
                side * (mix64(h) >> 11) as f64 / (1u64 << 53) as f64,
            );
            deaths.extend(
                (0..n as u32).filter(|&u| g.alive()[u as usize] && points.get(u).dist(c) <= RADIUS),
            );
        }
        deaths.sort_unstable();
        deaths.dedup();
        let joins: Vec<u32> = (next_join..next_join + deaths.len() as u32).collect();
        assert!(next_join as usize + joins.len() <= n, "the reserve ran dry");
        next_join += deaths.len() as u32;
        let stats = churn(&mut g, &deaths, &joins, &format!("epoch {e}"));
        assert!(
            !stats.labels.fell_back,
            "epoch {e}: the label search fell back"
        );
        assert!(
            stats.labels.visited < n / 10,
            "epoch {e}: the label search visited {} of {n} nodes",
            stats.labels.visited
        );
    }
}
