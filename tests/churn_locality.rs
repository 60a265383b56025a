//! Churn-locality differential suite.
//!
//! `IncrementalGraph` re-derives dirty shards through a dirty-extent
//! gather (merge the dirty shards' padded extents, gather and index only
//! their alive population) instead of a whole-population gather (compact
//! every alive point, build a global index — Θ(n) per churned epoch). The
//! contract is double:
//!
//! 1. **Byte identity.** The localized repair and a cold rebuild must
//!    produce identical CSRs after any churn, for every topology kind,
//!    deployment model, and churn footprint. There is no bless step: a
//!    divergence is a halo/extent bug, never intentional.
//! 2. **Locality proportionality.** The work counters must scale with the
//!    churned region: gather size tracks the dirty extents, the deaths-only
//!    UDG filter path gathers nothing at all, and the whole-population
//!    escalation counter stays at zero for every topology except k-NN and
//!    HNG (whose halos are probabilistic, so a straggler may legitimately
//!    fire — and HNG's top-level clique shards re-dirty every epoch by
//!    design).

use wsn::geom::hash::derive_seed2;
use wsn::geom::{Aabb, Point};
use wsn::pointproc::matern::sample_matern_ii;
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

/// A 16-unit window over shard plans with halo ≈ 1 and 4 tiles per shard
/// gives a 4 × 4 (or finer, for k-NN's data-driven halo) grid — enough
/// interior shards to craft 1- and 3-shard churn footprints.
const SIDE: f64 = 16.0;
const TILES_PER_SHARD: usize = 4;

fn deployments(seed: u64) -> Vec<(&'static str, PointSet)> {
    let window = Aabb::square(SIDE);
    let poisson = sample_poisson_window(&mut rng_from_seed(seed), 12.0, &window);
    let matern = sample_matern_ii(&mut rng_from_seed(seed ^ 0xA5), 20.0, 0.12, &window);
    vec![("poisson", poisson), ("matern2", matern)]
}

/// Interior shards of the plan (finite core blocks on every side).
fn interior_shards(g: &IncrementalGraph) -> Vec<usize> {
    let grid = g.grid();
    let (cols, rows) = (grid.cols(), grid.rows());
    let mut out = Vec::new();
    for j in 1..rows.saturating_sub(1) {
        for i in 1..cols.saturating_sub(1) {
            out.push(j * cols + i);
        }
    }
    out
}

/// The churn footprints of the matrix: regions whose churn dirties exactly
/// 1, exactly 3, or all shards. Each region is a shard's core block shrunk
/// by the halo, so every churned point is deeper than the halo inside its
/// shard and cannot dirty a neighbour.
fn footprints(g: &IncrementalGraph) -> Vec<(&'static str, Vec<Aabb>, Option<usize>)> {
    let interior = interior_shards(g);
    let shrink = |s: usize| g.grid().padded(s, 0.0).inflate(-g.halo());
    let mut out = Vec::new();
    if !interior.is_empty() {
        out.push(("1-shard", vec![shrink(interior[0])], Some(1)));
    }
    if interior.len() >= 3 {
        let regions: Vec<Aabb> = interior[..3].iter().map(|&s| shrink(s)).collect();
        out.push(("3-shard", regions, Some(3)));
    }
    out.push((
        "all",
        vec![Aabb::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        )],
        None,
    ));
    out
}

/// Hash-scheduled churn inside the union of `regions`: ~30% of the alive
/// population dies, every dead (reserve) node re-joins.
fn churn_in_regions(g: &IncrementalGraph, regions: &[Aabb], seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut deaths = Vec::new();
    let mut joins = Vec::new();
    for (u, p) in g.points().iter_enumerated() {
        if !regions.iter().any(|r| r.contains(p)) {
            continue;
        }
        if g.alive()[u as usize] {
            if derive_seed2(seed, 1, u as u64) % 10 < 3 {
                deaths.push(u);
            }
        } else {
            joins.push(u);
        }
    }
    (deaths, joins)
}

fn build(points: &PointSet, kind: IncTopology) -> IncrementalGraph {
    // A fifth of the universe starts dead as the join reserve.
    let alive: Vec<bool> = (0..points.len()).map(|i| i % 5 != 4).collect();
    IncrementalGraph::build(points.clone(), alive, kind, TILES_PER_SHARD)
}

/// The headline matrix: every kind × deployment × dirty-shard footprint
/// {1, 3, all}, byte-compared between the localized repair and a cold
/// rebuild after every epoch, with exact dirty-shard and escalation counts.
#[test]
fn localized_global_and_cold_agree_across_the_matrix() {
    for (dname, points) in deployments(0x10CA1) {
        for kind in KINDS {
            let mut local = build(&points, kind);
            for (fname, regions, expect_dirty) in footprints(&local) {
                let (deaths, joins) = churn_in_regions(&local, &regions, 0xFEE);
                if deaths.is_empty() && joins.is_empty() {
                    continue;
                }
                let ctx = format!(
                    "{dname}/{kind:?}/{fname} ({} deaths, {} joins)",
                    deaths.len(),
                    joins.len()
                );
                let ls: RepairStats = local.apply_churn(&deaths, &joins);
                assert!(local.verify_cold(), "{ctx}: local != cold rebuild");
                assert_eq!(ls.dirty, ls.filtered + ls.rederived, "{ctx}");
                // Exact dirty counts for the crafted footprints (k-NN and
                // HNG may exceed them: straggler shards re-derive every
                // epoch).
                if let Some(expect) = expect_dirty {
                    if !matches!(kind, IncTopology::Knn { .. } | IncTopology::Hng { .. }) {
                        assert_eq!(ls.dirty, expect, "{ctx}: wrong dirty-shard count");
                    }
                }
                // The whole-population escalation stays cold for every
                // non-k-NN, non-HNG topology, no matter the footprint.
                if !matches!(kind, IncTopology::Knn { .. } | IncTopology::Hng { .. }) {
                    assert_eq!(ls.escalations, 0, "{ctx}: unexpected escalation");
                    assert_eq!(local.escalations(), 0, "{ctx}");
                }
            }
        }
    }
}

/// Localized gather work must track the churn footprint: a 1-shard churn
/// gathers a small fraction of what an all-shards churn gathers.
#[test]
fn gather_work_scales_with_the_churned_region() {
    let points = sample_poisson_window(&mut rng_from_seed(0x5CA1E), 12.0, &Aabb::square(SIDE));
    for kind in [
        IncTopology::Rng { radius: 1.0 },
        IncTopology::Gabriel { radius: 1.0 },
        IncTopology::Yao {
            radius: 1.0,
            cones: 6,
        },
    ] {
        let mut local = build(&points, kind);
        let fps = footprints(&local);
        let (_, one_region, _) = &fps[0];
        let (_, all_region, _) = fps.last().unwrap();

        let (d1, j1) = churn_in_regions(&local, one_region, 0xAB);
        let s1 = local.apply_churn(&d1, &j1);
        // Restore, then churn everything with the same schedule.
        local.apply_churn(&j1, &d1);
        let (da, ja) = churn_in_regions(&local, all_region, 0xAB);
        let sa = local.apply_churn(&da, &ja);

        assert!(s1.gathered > 0, "{kind:?}: 1-shard churn must gather");
        assert!(
            s1.gathered * 3 < sa.gathered,
            "{kind:?}: gathered {} (1 shard) vs {} (all) — not locality-proportional",
            s1.gathered,
            sa.gathered
        );
        assert!(local.verify_cold(), "{kind:?}");
    }
}

/// Regression for the deaths-only UDG fast path: it must stay pure cache
/// filtering — zero points gathered, zero escalations, work proportional
/// to the dirty shards — and a mixed deaths+joins epoch must route the
/// join shards through the dirty-extent gather, not a global compaction.
#[test]
fn udg_deaths_only_filter_gathers_nothing_and_scales() {
    let points = sample_poisson_window(&mut rng_from_seed(0xDEAD), 12.0, &Aabb::square(SIDE));
    let kind = IncTopology::Udg { radius: 1.0 };
    let mut g = build(&points, kind);
    let fps = footprints(&g);
    let (_, one_region, _) = &fps[0];

    // Deaths-only churn in one shard: filter path, no geometry at all.
    let (deaths, _) = churn_in_regions(&g, one_region, 0xF1);
    assert!(!deaths.is_empty());
    let stats = g.apply_churn(&deaths, &[]);
    assert_eq!(stats.gathered, 0, "deaths-only UDG must not gather");
    assert_eq!(stats.escalations, 0);
    assert_eq!(stats.dirty, 1);
    assert_eq!(stats.filtered, stats.dirty, "every dirty shard filters");
    assert_eq!(stats.rederived, 0);
    assert!(g.verify_cold());

    // Deaths-only churn everywhere still gathers nothing; its work is the
    // per-shard cache filter, which scales with the dirty count.
    let everywhere = [Aabb::from_coords(
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    )];
    let (deaths_all, _) = churn_in_regions(&g, &everywhere, 0xF2);
    let stats_all = g.apply_churn(&deaths_all, &[]);
    assert_eq!(stats_all.gathered, 0);
    assert_eq!(stats_all.filtered, stats_all.dirty);
    assert!(stats_all.dirty > stats.dirty);
    assert!(g.verify_cold());

    // A join flips its shard to the dirty-extent gather — localized, far
    // smaller than the alive population the PR-4 path would compact.
    let join_id = deaths[0];
    let stats_join = g.apply_churn(&[], &[join_id]);
    assert!(stats_join.gathered > 0, "a join must re-derive its shard");
    assert!(
        stats_join.gathered * 3 < g.n_alive(),
        "join repair gathered {} of {} alive — not localized",
        stats_join.gathered,
        g.n_alive()
    );
    assert_eq!(stats_join.escalations, 0);
    assert!(g.verify_cold());
}

/// The escalation counter is cumulative and observable: k-NN and HNG may
/// escalate (probabilistic halos), everything else never does — even across
/// many mixed churn epochs.
#[test]
fn escalation_counter_stays_cold_for_non_knn_across_epochs() {
    let points = sample_poisson_window(&mut rng_from_seed(7), 12.0, &Aabb::square(SIDE));
    for kind in KINDS {
        let mut g = build(&points, kind);
        for e in 0..4u64 {
            let mut deaths = Vec::new();
            let mut joins = Vec::new();
            for u in 0..g.points().len() as u32 {
                let h = derive_seed2(0xE5C, e, u as u64);
                if g.alive()[u as usize] {
                    if h.is_multiple_of(12) {
                        deaths.push(u);
                    }
                } else if h.is_multiple_of(3) {
                    joins.push(u);
                }
            }
            g.apply_churn(&deaths, &joins);
            assert!(g.verify_cold(), "{kind:?} epoch {e}");
        }
        if !matches!(kind, IncTopology::Knn { .. } | IncTopology::Hng { .. }) {
            assert_eq!(
                g.escalations(),
                0,
                "{kind:?} must never build a whole-population index"
            );
        }
    }
}

/// A k-NN straggler whose true neighbours lie *beyond* its dirty extent
/// group must escalate to the whole-population index, never certify a
/// truncated list against the local one. A dense cluster and a far sparse
/// corner force exactly that: the corner holds 4 points with k = 4, so
/// every corner node's 4th-nearest neighbour is in the cluster — outside
/// any extent group around the corner.
#[test]
fn knn_straggler_beyond_the_group_extent_escalates_and_stays_exact() {
    let mut points = PointSet::new();
    for q in sample_poisson_window(&mut rng_from_seed(42), 25.0, &Aabb::square(4.0)).iter() {
        points.push(q);
    }
    assert!(points.len() > 50, "need a dense cluster");
    points.push(Point::new(60.0, 60.0));
    points.push(Point::new(60.5, 60.0));
    points.push(Point::new(60.0, 60.5));
    let reserve = points.len() as u32;
    points.push(Point::new(60.6, 60.6));
    let n = points.len();
    let mut alive = vec![true; n];
    alive[n - 1] = false;

    let kind = IncTopology::Knn { k: 4 };
    let mut g = IncrementalGraph::build(points, alive, kind, TILES_PER_SHARD);
    assert!(g.verify_cold(), "initial build");

    // Joining the corner reserve node dirties only corner shards; the
    // corner group holds 4 alive points, so a k = 4 query (excluding
    // self) cannot certify and must escalate.
    let stats = g.apply_churn(&[], &[reserve]);
    assert!(
        g.verify_cold(),
        "straggler beyond the group extent must escalate, not truncate"
    );
    assert!(
        stats.escalations >= 1 && g.escalations() >= 1,
        "the corner straggler must have built the global index \
         (escalations = {}, dirty = {})",
        g.escalations(),
        stats.dirty
    );
    // And the edges prove it: every corner node reaches into the cluster.
    for u in [reserve - 3, reserve - 2, reserve - 1, reserve] {
        let far = g
            .graph()
            .neighbors(u)
            .iter()
            .any(|&v| g.points().get(v).x < 10.0);
        assert!(far, "corner node {u} must link into the cluster");
    }
}

/// Degenerate geometry: clustered deployments whose dirty extents merge
/// across empty space, churn on the window boundary (unbounded edge-shard
/// extents), and a whole-window single-shard plan.
#[test]
fn extent_merging_edge_cases_stay_identical() {
    // Two far-apart clusters: churning both at once exercises disjoint
    // extent groups in a single repair.
    let mut points = PointSet::new();
    for (i, q) in sample_poisson_window(&mut rng_from_seed(11), 25.0, &Aabb::square(4.0))
        .iter()
        .enumerate()
    {
        let off = if i % 2 == 0 { 0.0 } else { 12.0 };
        points.push(Point::new(q.x + off, q.y + off));
    }
    for kind in [IncTopology::Rng { radius: 1.0 }, IncTopology::Knn { k: 4 }] {
        let mut local = build(&points, kind);
        // Kill in both clusters' hearts simultaneously.
        let regions = [
            Aabb::from_coords(0.5, 0.5, 3.5, 3.5),
            Aabb::from_coords(12.5, 12.5, 15.5, 15.5),
        ];
        let (deaths, joins) = churn_in_regions(&local, &regions, 0x2C);
        assert!(!deaths.is_empty());
        local.apply_churn(&deaths, &joins);
        assert!(local.verify_cold(), "{kind:?} disjoint clusters");
    }

    // Churn hugging the window edge: edge shards' padded extents are
    // unbounded outward, and the gather must still be exact.
    let points = sample_poisson_window(&mut rng_from_seed(13), 12.0, &Aabb::square(SIDE));
    for kind in KINDS {
        let mut local = build(&points, kind);
        let edge = [Aabb::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            1.5,
            f64::INFINITY,
        )];
        let (deaths, joins) = churn_in_regions(&local, &edge, 0xED6E);
        assert!(!deaths.is_empty());
        local.apply_churn(&deaths, &joins);
        assert!(local.verify_cold(), "{kind:?} edge churn");
    }
}
