//! Churn-locality differential suite.
//!
//! `IncrementalGraph` repairs every kind per churn event: the UDG from the
//! events' rows and disks, every other kind by re-selecting the owners
//! whose certificate ball holds an event, against indexes over the fixed
//! universe. The contract is threefold:
//!
//! 1. **Byte identity.** The repaired graph and a cold rebuild must be
//!    identical CSRs after any churn, for every topology kind, deployment
//!    model, churn footprint and event density — including adversarial
//!    layouts full of distance ties and coincident points. There is no
//!    bless step: a divergence is a certificate bug, never intentional.
//! 2. **Locality proportionality.** The work counters must scale with the
//!    churned region: the dirty shards are exactly the shards whose padded
//!    extent holds an event, and the points examined track the events' own
//!    disks, whatever the shard plan — the candidate owners within the halo
//!    of an event, or for the UDG the joins' disks (a deaths-only UDG
//!    repair scans nothing at all). No repair ever re-derives a shard or
//!    builds a whole-population index.
//! 3. **Changed-node cover.** Every node whose liveness or row differs
//!    between the old and the new graph is marked in `changed()` — the
//!    serve route cache's correctness condition.

use wsn::geom::hash::derive_seed2;
use wsn::geom::{Aabb, Point};
use wsn::graph::ChunkedCsr;
use wsn::pointproc::matern::sample_matern_ii;
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::{hng_levels, IncTopology, IncrementalGraph, RepairStats, WHOLE_WINDOW};

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

/// The counters every repair must report exactly: its event count, and no
/// kind re-derives a shard or escalates to a whole-population index.
fn assert_repair_counters(stats: &RepairStats, events: usize, ctx: &str) {
    assert_eq!(stats.events, events, "{ctx}: event count");
    assert_eq!(stats.rederived, 0, "{ctx}: a shard was re-derived");
    assert_eq!(stats.escalations, 0, "{ctx}: the repair escalated");
}

/// Every node whose liveness or row differs between `old` and the
/// repaired graph is marked in the repair's published `changed()` mask.
fn assert_changed_covers_delta(
    old: &ChunkedCsr,
    old_alive: &[bool],
    g: &IncrementalGraph,
    ctx: &str,
) {
    let changed = g.changed();
    assert_eq!(changed.len(), old.n(), "{ctx}: mask length");
    for u in 0..old.n() as u32 {
        let i = u as usize;
        if old_alive[i] != g.alive()[i] || !old.id_neighbors(u).eq(g.graph().id_neighbors(u)) {
            assert!(changed[i], "{ctx}: node {u} changed but is unmarked");
        }
    }
}

fn build(points: &PointSet, kind: IncTopology) -> IncrementalGraph {
    // A fifth of the universe starts dead as the join reserve.
    let alive: Vec<bool> = (0..points.len()).map(|i| i % 5 != 4).collect();
    IncrementalGraph::build(points.clone(), alive, kind, TILES_PER_SHARD)
}

/// The headline matrix: every kind × deployment × dirty-shard footprint
/// {1, 3, all}, byte-compared between the repair and a cold rebuild after
/// every epoch, with exact dirty-shard counts and the changed-node cover.
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
                let (old, old_alive) = (local.graph().clone(), local.alive().to_vec());
                let ls: RepairStats = local.apply_churn(&deaths, &joins);
                assert!(local.verify_cold(), "{ctx}: local != cold rebuild");
                assert_repair_counters(&ls, deaths.len() + joins.len(), &ctx);
                assert_changed_covers_delta(&old, &old_alive, &local, &ctx);
                // Exact dirty counts for the crafted footprints, for every
                // kind: a dirty shard is one whose padded extent holds an
                // event, however far k-NN or HNG certificates reach.
                if let Some(expect) = expect_dirty {
                    assert_eq!(ls.dirty, expect, "{ctx}: wrong dirty-shard count");
                }
            }
        }
    }
}

/// Repair work must track the churn footprint: a 1-shard churn examines a
/// small fraction of the candidate owners an all-shards churn does.
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

/// Regression for the deaths-only UDG repair: it must stay pure row
/// withdrawal — zero points scanned, work proportional to the churn — and
/// a join must scan only its disk, not a global compaction.
#[test]
fn udg_deaths_only_repair_gathers_nothing_and_scales() {
    let points = sample_poisson_window(&mut rng_from_seed(0xDEAD), 12.0, &Aabb::square(SIDE));
    let kind = IncTopology::Udg { radius: 1.0 };
    let mut g = build(&points, kind);
    let fps = footprints(&g);
    let (_, one_region, _) = &fps[0];

    // Deaths-only churn in one shard: row withdrawal, no geometry at all.
    let (deaths, _) = churn_in_regions(&g, one_region, 0xF1);
    assert!(!deaths.is_empty());
    let stats = g.apply_churn(&deaths, &[]);
    assert_eq!(stats.gathered, 0, "deaths-only UDG must not gather");
    assert_eq!(stats.escalations, 0);
    assert_eq!(stats.dirty, 1);
    assert_eq!(stats.rederived, 0);
    assert!(g.verify_cold());

    // Deaths-only churn everywhere still gathers nothing; its work is the
    // dying rows, which scale with the churn.
    let everywhere = [Aabb::from_coords(
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    )];
    let (deaths_all, _) = churn_in_regions(&g, &everywhere, 0xF2);
    let stats_all = g.apply_churn(&deaths_all, &[]);
    assert_eq!(stats_all.gathered, 0);
    assert_eq!(stats_all.rederived, 0);
    assert!(stats_all.dirty > stats.dirty);
    assert!(stats_all.affected_owners > stats.affected_owners);
    assert!(g.verify_cold());

    // A join scans its disk — localized, far smaller than the alive
    // population a global compaction would touch.
    let join_id = deaths[0];
    let stats_join = g.apply_churn(&[], &[join_id]);
    assert!(stats_join.gathered > 0, "a join must scan its disk");
    assert!(
        stats_join.gathered * 3 < g.n_alive(),
        "join repair gathered {} of {} alive — not localized",
        stats_join.gathered,
        g.n_alive()
    );
    assert_eq!(stats_join.rederived, 0);
    assert_eq!(stats_join.escalations, 0);
    assert!(g.verify_cold());
}

/// The candidates come from the events' own disks, not from the shard
/// plan: on a single-shard plan of ~10⁴ nodes, one interior event — a join
/// for the UDG, a death of a level-1 node for the others (so no HNG rung or
/// top clique can hold it) — examines under a tenth of the universe.
#[test]
fn one_interior_event_on_a_whole_window_plan_stays_local() {
    let side = 29.0;
    let points = sample_poisson_window(&mut rng_from_seed(0x10C), 12.0, &Aabb::square(side));
    let n = points.len();
    let alive: Vec<bool> = (0..n).map(|i| i % 5 != 4).collect();
    let centre = Point::new(side / 2.0, side / 2.0);
    for kind in KINDS {
        let mut g = IncrementalGraph::build(points.clone(), alive.clone(), kind, WHOLE_WINDOW);
        assert_eq!(g.grid().shard_count(), 1);
        let levels = match kind {
            IncTopology::Hng { p, seed, .. } => hng_levels(n, p, seed),
            _ => vec![1; n],
        };
        let join = matches!(kind, IncTopology::Udg { .. });
        let event = (0..n as u32)
            .filter(|&u| g.alive()[u as usize] != join && levels[u as usize] == 1)
            .min_by(|&a, &b| {
                let d = |u: u32| points.get(u).dist_sq(centre);
                d(a).total_cmp(&d(b))
            })
            .expect("an event site");
        let (deaths, joins) = toggle(&g, [event]);
        let stats = churn_and_check(&mut g, &deaths, &joins, &format!("{kind:?} centre event"));
        assert!(
            stats.gathered > 0 && stats.gathered < n / 10,
            "{kind:?}: one event examined {} of {n} nodes",
            stats.gathered
        );
    }
}

/// The re-derivation and escalation counters stay cold for every kind —
/// k-NN and HNG included, whose certificates reach past their shards —
/// across many mixed churn epochs.
#[test]
fn mixed_churn_epochs_never_rederive_or_escalate() {
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
            churn_and_check(&mut g, &deaths, &joins, &format!("{kind:?} epoch {e}"));
        }
    }
}

/// A k-NN owner whose true neighbours lie far *beyond* its shard's halo
/// must still repair exactly. A dense cluster and a far sparse corner
/// force exactly that: the corner holds 4 points with k = 4, so every
/// corner node's 4th-nearest neighbour is in the cluster — its certificate
/// ball spans the window, and only the far-owner list brings it into the
/// repair.
#[test]
fn knn_far_owner_beyond_its_shard_halo_repairs_exactly() {
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

    // Joining the corner reserve node swaps a cluster neighbour out of
    // every corner node's list.
    churn_and_check(&mut g, &[], &[reserve], "corner join");
    // A death in the cluster can reach the corner nodes' lists too.
    let points = g.points();
    let cluster_death = g
        .graph()
        .id_neighbors(reserve - 3)
        .find(|&v| points.get(v).x < 10.0)
        .expect("a corner node links into the cluster");
    churn_and_check(&mut g, &[cluster_death], &[], "cluster death");
    // And the edges prove it: every corner node reaches into the cluster.
    for u in [reserve - 3, reserve - 2, reserve - 1, reserve] {
        let far = g.graph().id_neighbors(u).any(|v| points.get(v).x < 10.0);
        assert!(far, "corner node {u} must link into the cluster");
    }
}

/// Degenerate geometry: two far-apart clusters churned in one call, and
/// churn on the window boundary (unbounded edge-shard extents).
#[test]
fn disjoint_clusters_and_window_edge_churn_stay_identical() {
    // Two far-apart clusters: churning both at once dirties two disjoint
    // shard sets in a single repair.
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

/// Apply one churn call, then hold the repair to a cold rebuild and to
/// its exact counters.
fn churn_and_check(
    g: &mut IncrementalGraph,
    deaths: &[u32],
    joins: &[u32],
    ctx: &str,
) -> RepairStats {
    let (old, old_alive) = (g.graph().clone(), g.alive().to_vec());
    let stats = g.apply_churn(deaths, joins);
    assert!(g.verify_cold(), "{ctx}: repair != cold rebuild");
    assert_repair_counters(&stats, deaths.len() + joins.len(), ctx);
    assert_changed_covers_delta(&old, &old_alive, g, ctx);
    stats
}

/// Split `ids` into the alive ones (deaths) and the dead ones (joins).
fn toggle(g: &IncrementalGraph, ids: impl IntoIterator<Item = u32>) -> (Vec<u32>, Vec<u32>) {
    ids.into_iter().partition(|&u| g.alive()[u as usize])
}

/// The event-density axis: single events at the highest-degree nodes, one
/// event per shard, then hashed fractions of the universe, up to every
/// node being an event in one call (every alive node dies and every dead
/// one joins). Each rung must repair to the cold
/// rebuild and report exactly its event count.
#[test]
fn repair_stays_exact_from_one_event_per_shard_to_every_node() {
    for (dname, points) in deployments(0xDE45) {
        let n = points.len() as u32;
        for kind in KINDS {
            let mut g = build(&points, kind);
            // One event per non-empty shard: its lowest resident.
            let mut first: Vec<Option<u32>> = vec![None; g.grid().shard_count()];
            for (u, p) in points.iter_enumerated() {
                first[g.grid().owner_of(p)].get_or_insert(u);
            }
            // Single events at the hubs first: the highest-degree nodes
            // die alone and rejoin alone. HNG's hubs are its high-level
            // nodes, whose far uplinkers re-target outside the event's own
            // shards.
            let mut hubs: Vec<u32> = (0..n).collect();
            hubs.sort_by_key(|&u| std::cmp::Reverse(g.graph().id_neighbors(u).len()));
            let mut rungs: Vec<(String, Vec<u32>)> = Vec::new();
            for &u in hubs.iter().take(4) {
                rungs.push((format!("hub {u} dies"), vec![u]));
                rungs.push((format!("hub {u} rejoins"), vec![u]));
            }
            rungs.push(("1/shard".into(), first.into_iter().flatten().collect()));
            for den in [16u64, 4, 2] {
                let ids = (0..n)
                    .filter(|&u| derive_seed2(0xD0, den, u as u64).is_multiple_of(den))
                    .collect();
                rungs.push((format!("1/{den}"), ids));
            }
            rungs.push(("all".into(), (0..n).collect()));
            for (rung, ids) in rungs {
                let (deaths, joins) = toggle(&g, ids.iter().copied());
                let ctx = format!("{dname}/{kind:?}/{rung}");
                let stats = churn_and_check(&mut g, &deaths, &joins, &ctx);
                assert_eq!(stats.events, ids.len(), "{ctx}");
            }
        }
    }
}

/// Hashed churn epochs over `points` for every kind.
fn churn_epochs_stay_exact(points: &PointSet, name: &str) {
    let n = points.len() as u32;
    for kind in KINDS {
        let mut g = build(points, kind);
        assert!(g.verify_cold(), "{name}/{kind:?}: initial build");
        for e in 0..4u64 {
            let ids = (0..n).filter(|&u| derive_seed2(0xAD7, e, u as u64).is_multiple_of(3));
            let (deaths, joins) = toggle(&g, ids);
            churn_and_check(
                &mut g,
                &deaths,
                &joins,
                &format!("{name}/{kind:?}/epoch {e}"),
            );
        }
    }
}

/// Single events at tie sites of a lattice: each site dies alone and then
/// rejoins alone, for every kind, and every repair must match the cold
/// rebuild.
fn single_events_stay_exact(points: &PointSet, sites: &[u32], name: &str) {
    for kind in KINDS {
        let mut g = IncrementalGraph::build(
            points.clone(),
            vec![true; points.len()],
            kind,
            TILES_PER_SHARD,
        );
        for &u in sites {
            churn_and_check(&mut g, &[u], &[], &format!("{name}/{kind:?}/death {u}"));
            churn_and_check(&mut g, &[], &[u], &format!("{name}/{kind:?}/join {u}"));
        }
    }
}

/// A `side × side` square lattice of spacing `step`, ids row-major.
fn lattice(side: u32, step: f64) -> PointSet {
    (0..side)
        .flat_map(|j| (0..side).map(move |i| Point::new(i as f64 * step, j as f64 * step)))
        .collect()
}

/// Lattice sites that meet ties: window corner and edges, shard corners
/// and edges, and interior sites. On a square lattice every site sits on
/// Gabriel lens circles (right angles), RNG lune boundaries, Yao cone
/// boundaries (the 0° and 180° neighbours at 6 cones) and k-th-distance
/// ties (four equidistant nearest neighbours, and more on the edges).
fn tie_sites(side: u32) -> Vec<u32> {
    let id = |i: u32, j: u32| j * side + i;
    let (mid, last) = (side / 2, side - 1);
    vec![
        id(0, 0),
        id(last, mid),
        id(4, 4),
        id(4, mid),
        id(mid, mid),
        id(mid - 1, mid),
        id(3, last - 3),
    ]
}

/// A unit lattice at r = 1: every lattice neighbour sits exactly on the
/// disk boundary, and the 4-tile shard boundaries and padded extents run
/// through lattice points, so every closed-box and `dist² ≤ r²` test
/// meets its tie. A lattice of spacing r/√2 puts the diagonal neighbours
/// on the disk boundary instead, so the Gabriel lens of every diagonal
/// pair has two lattice sites on its circle and the RNG lune of every
/// axis pair is bounded by sites. Both take hashed multi-event epochs and
/// single deaths and joins at tie sites.
#[test]
fn unit_lattice_at_the_boundary_radius_stays_exact() {
    let points = lattice(16, 1.0);
    let udg = IncrementalGraph::build(
        points.clone(),
        vec![true; points.len()],
        IncTopology::Udg { radius: 1.0 },
        TILES_PER_SHARD,
    );
    assert_eq!(
        udg.graph().m(),
        2 * 16 * 15,
        "every lattice step is an edge"
    );
    churn_epochs_stay_exact(&points, "lattice");
    single_events_stay_exact(&points, &tie_sites(16), "lattice");

    let diagonal = lattice(20, std::f64::consts::FRAC_1_SQRT_2);
    churn_epochs_stay_exact(&diagonal, "diagonal lattice");
    single_events_stay_exact(&diagonal, &tie_sites(20), "diagonal lattice");
}

/// Coincident points: stacks of three at every site of a sparse layout,
/// plus one stack on a shard corner — zero distances and exact ties for
/// every predicate.
#[test]
fn coincident_points_stay_exact() {
    let base = sample_poisson_window(&mut rng_from_seed(0xC0), 3.0, &Aabb::square(SIDE));
    let mut points = PointSet::new();
    for q in base.iter().chain([Point::new(4.0, 4.0)]) {
        for _ in 0..3 {
            points.push(q);
        }
    }
    churn_epochs_stay_exact(&points, "coincident");
}

/// Events that meet inside one call: both endpoints of an edge die
/// together, then rejoin together, and one id passed as both a death and
/// a join dies and rejoins — leaving the graph exactly as it was.
#[test]
fn paired_and_repeated_events_in_one_call_stay_exact() {
    let points = sample_poisson_window(&mut rng_from_seed(0x9A1), 12.0, &Aabb::square(SIDE));
    for kind in KINDS {
        let mut g = build(&points, kind);
        // Disjoint edges (u, v), both endpoints alive.
        let mut used = vec![false; points.len()];
        let mut pair_ids = Vec::new();
        for u in 0..points.len() as u32 {
            if used[u as usize] || pair_ids.len() >= 40 {
                continue;
            }
            if let Some(v) = g.graph().id_neighbors(u).find(|&v| !used[v as usize]) {
                used[u as usize] = true;
                used[v as usize] = true;
                pair_ids.extend([u, v]);
            }
        }
        assert!(!pair_ids.is_empty(), "{kind:?}: no edges to pair");
        pair_ids.sort_unstable();
        churn_and_check(&mut g, &pair_ids, &[], &format!("{kind:?}/death-death"));
        churn_and_check(&mut g, &[], &pair_ids, &format!("{kind:?}/join-join"));

        let before = g.graph().clone();
        let twice: Vec<u32> = (0..points.len() as u32)
            .filter(|&u| g.alive()[u as usize] && u % 5 == 0)
            .collect();
        churn_and_check(&mut g, &twice, &twice, &format!("{kind:?}/die-and-rejoin"));
        assert!(
            *g.graph() == before,
            "{kind:?}: die-and-rejoin changed the graph"
        );

        // Mixed: the same ids die and rejoin while their neighbours die
        // and reserve nodes join.
        let others = (0..points.len() as u32).filter(|u| u % 7 == 3 && u % 5 != 0);
        let (deaths, joins) = toggle(&g, others);
        let deaths: Vec<u32> = deaths.into_iter().chain(twice.iter().copied()).collect();
        let joins: Vec<u32> = joins.into_iter().chain(twice.iter().copied()).collect();
        churn_and_check(&mut g, &deaths, &joins, &format!("{kind:?}/mixed"));
    }
}

/// Tiny universes, n ∈ {0, 1, 2}: extinction, resurrection, die-and-rejoin
/// in one call, and a quiescent call.
#[test]
fn tiny_universes_stay_exact() {
    for n in 0..=2u32 {
        let points: PointSet = (0..n).map(|i| Point::new(0.5 * i as f64, 0.0)).collect();
        for kind in KINDS {
            let mut g = IncrementalGraph::build(
                points.clone(),
                vec![true; n as usize],
                kind,
                TILES_PER_SHARD,
            );
            assert!(g.verify_cold(), "n = {n}/{kind:?}: initial build");
            let all: Vec<u32> = (0..n).collect();
            for (step, deaths, joins) in [
                ("extinction", &all[..], &[][..]),
                ("resurrection", &[][..], &all[..]),
                ("die-and-rejoin", &all[..], &all[..]),
                ("quiescent", &[][..], &[][..]),
            ] {
                churn_and_check(&mut g, deaths, joins, &format!("n = {n}/{kind:?}/{step}"));
            }
            assert_eq!(g.n_alive(), n as usize);
        }
    }
}

/// A universe that starts all dead and joins every node in one call.
#[test]
fn all_dead_universe_joins_all_at_once() {
    let points = sample_poisson_window(&mut rng_from_seed(0xA11), 12.0, &Aabb::square(SIDE));
    let n = points.len();
    for kind in KINDS {
        let mut g = IncrementalGraph::build(points.clone(), vec![false; n], kind, TILES_PER_SHARD);
        assert_eq!(g.graph().m(), 0);
        let all: Vec<u32> = (0..n as u32).collect();
        let stats = churn_and_check(&mut g, &[], &all, &format!("{kind:?}/all-join"));
        assert_eq!(stats.events, n);
        assert!(
            g.graph().m() > 0,
            "{kind:?}: joining everyone built no edges"
        );
    }
}
