//! Hierarchical neighbor graphs — Bagchi–Madan–Premi (arXiv:0903.0742).
//!
//! A sparse, connected-by-construction overlay from the SENS authors'
//! own lineage, built from two ingredients:
//!
//! * **Probabilistic level promotion.** Every node starts at level 1 and
//!   is promoted one level at a time by independent coin flips with
//!   success probability `p` (capped at [`MAX_LEVEL`]), so levels are
//!   geometric: the expected population at level `≥ j` thins by `p` per
//!   level. Each flip is a pure function of `(seed, node, trial)` via the
//!   repo-wide hash streams, which makes the whole hierarchy — like every
//!   other topology here — a pure function of `(seed, node)`: shards can
//!   compute levels independently and churn never re-rolls them.
//! * **Nearest-neighbor uplinks.** A node `u` at level `ℓ(u)` links, for
//!   every level `i ∈ 1..=min(ℓ(u), T−1)` (where `T` is the top occupied
//!   level), to its [`HngParams::links`] nearest nodes of level `≥ i+1`
//!   (ties broken by `(distance, id)` exactly as k-NN does). The nodes at
//!   level `T` form a clique.
//!
//! Connectivity is by construction: from any node, following an uplink
//! strictly increases the level, so every node reaches the top clique in
//! at most `T` hops. The expected degree is `O(links / (p·(1−p)))`,
//! independent of network size — the bounded-expected-degree claim the
//! scenario layer's claim-audit metrics check.
//!
//! Two byte-identical builders mirror the established pattern: a
//! monolithic serial one ([`build_hng`]) and a tile-sharded parallel one
//! ([`build_hng_sharded`]) whose per-node certificates follow the same
//! kth-distance margin rule as the sharded k-NN derivation. Under churn
//! the incremental engine re-answers single rungs against per-level
//! indexes over its fixed universe.

use wsn_geom::hash::{derive_seed2, mix64};
use wsn_geom::{Aabb, Point};
use wsn_graph::{Csr, EdgeList, Emitted};
use wsn_pointproc::PointSet;
use wsn_spatial::GridIndex;

use crate::sharded::{fan_out, interior_margin, knn_cell_size, plan, Shard};

/// Promotion cap: levels are geometric, so 24 levels cover any population
/// this repo reaches (`p = 0.5` exhausts ~16 million nodes) while keeping
/// the per-node trial loop trivially bounded.
pub const MAX_LEVEL: u32 = 24;

/// The two knobs of a hierarchical neighbor graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HngParams {
    /// Per-trial promotion probability, strictly inside `(0, 1)`.
    pub p: f64,
    /// Uplinks per occupied level (the classic construction uses 1; more
    /// links trade degree for robustness and stretch).
    pub links: usize,
}

impl HngParams {
    pub fn new(p: f64, links: usize) -> Self {
        assert!(p > 0.0 && p < 1.0, "promotion probability must be in (0,1)");
        assert!(links >= 1, "need at least one uplink per level");
        HngParams { p, links }
    }
}

/// Uniform in `[0, 1)` from one hash word (the simnet engine keeps an
/// identical crate-private copy; promotion draws must not depend on it).
fn u01(h: u64) -> f64 {
    (mix64(h) >> 11) as f64 / (1u64 << 53) as f64
}

/// The level of every node: 1 + the number of consecutive successful
/// promotion trials, each an independent `(seed, node, trial)`-keyed coin
/// with success probability `p`, capped at [`MAX_LEVEL`].
///
/// Levels are keyed by *universe* id and never re-rolled: a churned
/// population restricts this vector through its alive mask instead of
/// recomputing over the survivors, so repair, cold rebuild, and serial
/// reference all see the same hierarchy.
pub fn hng_levels(n: usize, p: f64, seed: u64) -> Vec<u32> {
    (0..n as u64)
        .map(|u| {
            let mut lvl = 1u32;
            while lvl < MAX_LEVEL && u01(derive_seed2(seed, u, lvl as u64)) < p {
                lvl += 1;
            }
            lvl
        })
        .collect()
}

/// Per-level candidate subsets of one population: `sets[j - 2]` holds the
/// points of level `≥ j` for `j ∈ 2..=top_level`, ids ascending in the
/// population's own id space (so monotone id maps preserve every
/// tie-break).
pub(crate) struct LevelSets {
    /// Highest occupied level `T` (1 for an empty or all-level-1 set).
    pub(crate) top_level: u32,
    /// Ascending ids of the level-`T` nodes — the clique.
    pub(crate) top: Vec<u32>,
    pub(crate) sets: Vec<(PointSet, Vec<u32>)>,
}

impl LevelSets {
    pub(crate) fn build(points: &PointSet, levels: &[u32]) -> LevelSets {
        debug_assert_eq!(points.len(), levels.len());
        let top_level = levels.iter().copied().max().unwrap_or(1);
        let top: Vec<u32> = (0..points.len() as u32)
            .filter(|&u| levels[u as usize] == top_level)
            .collect();
        let mut sets: Vec<(PointSet, Vec<u32>)> = (2..=top_level)
            .map(|_| (PointSet::new(), Vec::new()))
            .collect();
        // One forward pass keeps every subset ascending by construction.
        for (u, p) in points.iter_enumerated() {
            for j in 2..=levels[u as usize] {
                let (pts, ids) = &mut sets[(j - 2) as usize];
                pts.push(p);
                ids.push(u);
            }
        }
        LevelSets {
            top_level,
            top,
            sets,
        }
    }

    /// One exact-k-NN index per level subset (the cell size is a search
    /// heuristic only — [`GridIndex::knn`] is exact for any cell).
    pub(crate) fn indexes(&self, links: usize) -> Vec<GridIndex<'_>> {
        self.sets
            .iter()
            .map(|(pts, _)| GridIndex::build(pts, knn_cell_size(pts, links.max(1))))
            .collect()
    }
}

/// `u`'s exact uplink targets over the whole population behind `sets`:
/// for each `i ∈ 1..=min(lvl_u, T−1)`, the `links` nearest members of
/// level `≥ i+1` (excluding `u` itself), in the population's id space.
pub(crate) fn upward_links(
    sets: &LevelSets,
    indexes: &[GridIndex],
    p: Point,
    u: u32,
    lvl_u: u32,
    links: usize,
) -> Vec<u32> {
    let hi = lvl_u.min(sets.top_level.saturating_sub(1));
    (2..=hi + 1)
        .flat_map(|j| upward_rung(sets, indexes, p, u, lvl_u, j, links))
        .collect()
}

/// One rung of [`upward_links`]: the `links` nearest members of level
/// `≥ j` (excluding `u`).
fn upward_rung(
    sets: &LevelSets,
    indexes: &[GridIndex],
    p: Point,
    u: u32,
    lvl_u: u32,
    j: u32,
    links: usize,
) -> Vec<u32> {
    let (_, ids) = &sets.sets[(j - 2) as usize];
    let skip =
        (lvl_u >= j).then(|| ids.binary_search(&u).expect("member of its own level set") as u32);
    indexes[(j - 2) as usize]
        .knn(p, links, skip)
        .into_iter()
        .map(|(v, _)| ids[v as usize])
        .collect()
}

/// Build `HNG(points, levels, links)` on an explicit level assignment —
/// the monolithic reference builder, and the entry point cold rebuilds of
/// churned populations use (restrict the universe levels through the
/// alive mask; do **not** re-roll them over survivor ids).
pub fn build_hng_on_levels(points: &PointSet, levels: &[u32], links: usize) -> Csr {
    assert!(links >= 1, "need at least one uplink per level");
    assert_eq!(levels.len(), points.len(), "level per point");
    if points.is_empty() {
        return Csr::empty(0);
    }
    let sets = LevelSets::build(points, levels);
    let indexes = sets.indexes(links);
    let mut el = EdgeList::with_capacity(points.len(), points.len() * (links + 1));
    for (u, p) in points.iter_enumerated() {
        for v in upward_links(&sets, &indexes, p, u, levels[u as usize], links) {
            el.add(u, v);
        }
    }
    for (i, &a) in sets.top.iter().enumerate() {
        for &b in &sets.top[i + 1..] {
            el.add(a, b);
        }
    }
    Csr::from_edge_list(el)
}

/// Build `HNG(points, params, seed)` — levels rolled from `(seed, node)`,
/// then [`build_hng_on_levels`].
pub fn build_hng(points: &PointSet, params: HngParams, seed: u64) -> Csr {
    let params = HngParams::new(params.p, params.links); // validate
    let levels = hng_levels(points.len(), params.p, seed);
    build_hng_on_levels(points, &levels, params.links)
}

/// Shard halo for HNG: 3× the radius expected to contain `links + 1`
/// level-`≥2` nodes, the [`crate::knn_halo`] analogue at the promoted
/// density — computed from the *observed* level assignment so churned
/// subsets stay self-consistent. Level-1 uplinks almost surely fit;
/// higher-level queries routinely exceed it and take the certified
/// fallback path instead.
pub fn hng_halo(points: &PointSet, levels: &[u32], links: usize) -> f64 {
    let bb = points.bounding_box().expect("caller guards empty sets");
    let area = bb.area().max(1e-9);
    let promoted = levels.iter().filter(|&&l| l >= 2).count().max(1);
    let density = promoted as f64 / area;
    3.0 * ((links as f64 + 1.0) / (std::f64::consts::PI * density))
        .sqrt()
        .clamp(1e-3, bb.width().max(bb.height()).max(1e-3))
}

/// One shard's HNG emissions as canonical `(min, max)` pairs (symmetrised
/// and deduplicated downstream like Yao/k-NN).
///
/// `levels` is indexed by the ids in `shard.ids`; `top`/`top_level`
/// describe the top occupied level of the *whole* population. Each uplink
/// rung is certified independently: a rung is locally certain iff it
/// found `links` candidates whose worst distance fits the node's
/// [`interior_margin`] of the shard's `padded` box — the same per-answer
/// certificate as k-NN, so a certified list provably cannot depend on
/// points beyond the box. A failed rung is answered exactly — through the
/// gather itself when `covers_all`, else through `fallback(p, gu, j)` (the
/// node's exact `links` nearest level-`≥ j` nodes in global ids, in k-NN
/// `(distance, id)` order).
#[allow(clippy::too_many_arguments)]
pub(crate) fn derive_hng<F>(
    shard: &Shard,
    levels: &[u32],
    links: usize,
    top: &[u32],
    top_level: u32,
    padded: &Aabb,
    covers_all: bool,
    fallback: F,
) -> Vec<(u32, u32)>
where
    F: Fn(Point, u32, u32) -> Vec<u32>,
{
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let local_levels: Vec<u32> = shard.ids.iter().map(|&g| levels[g as usize]).collect();
    let local_sets = LevelSets::build(&shard.pts, &local_levels);
    let indexes = local_sets.indexes(links);
    for (u, p) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        let lu = levels[gu as usize];
        if lu >= top_level {
            // Clique member: exact from the global top list.
            for &gv in top {
                if gv != gu {
                    out.push((gu.min(gv), gu.max(gv)));
                }
            }
        }
        let hi = lu.min(top_level.saturating_sub(1));
        for i in 1..=hi {
            let j = i + 1;
            // No local candidates at this level at all (cannot happen
            // under `covers_all`: `j ≤ top_level`, so the level is occupied
            // globally): only the fallback knows.
            let answer: Vec<u32> = match local_sets.sets.get((j - 2) as usize) {
                Some((_, ids_j)) => {
                    let skip = (local_levels[u as usize] >= j).then(|| {
                        ids_j
                            .binary_search(&u)
                            .expect("member of its own level set") as u32
                    });
                    let found = indexes[(j - 2) as usize].knn(p, links, skip);
                    let margin_ok = found.len() == links
                        && found
                            .last()
                            .is_none_or(|&(_, d)| d <= interior_margin(p, padded));
                    if margin_ok || covers_all {
                        found
                            .iter()
                            .map(|&(v, _)| shard.ids[ids_j[v as usize] as usize])
                            .collect()
                    } else {
                        fallback(p, gu, j)
                    }
                }
                None => fallback(p, gu, j),
            };
            for gv in answer {
                out.push((gu.min(gv), gu.max(gv)));
            }
        }
    }
    out
}

/// Sharded `HNG` on an explicit level assignment — edge-identical to
/// [`build_hng_on_levels`]. The plan's halo is [`hng_halo`]; stragglers
/// (uplinks the margin certificate cannot vouch for) fall back to exact
/// queries on shared whole-population level indexes.
pub fn build_hng_sharded_on_levels(
    points: &PointSet,
    levels: &[u32],
    links: usize,
    tiles_per_shard: usize,
) -> Csr {
    let runs = hng_runs(points, levels, links, tiles_per_shard);
    // An uplink may be selected from both endpoints; the assembler folds
    // the repeat.
    Csr::from_runs(points.len(), runs, None, Emitted::Repeated)
}

/// The sharded HNG's shard runs, one pair per uplink or clique selection.
pub(crate) fn hng_runs(
    points: &PointSet,
    levels: &[u32],
    links: usize,
    tiles_per_shard: usize,
) -> Vec<Vec<(u32, u32)>> {
    assert!(links >= 1, "need at least one uplink per level");
    assert_eq!(levels.len(), points.len(), "level per point");
    if points.is_empty() {
        return Vec::new();
    }
    let halo = hng_halo(points, levels, links);
    let gather = GridIndex::build(points, halo / 3.0);
    let grid = plan(points, halo, tiles_per_shard);
    let bbox = points.bounding_box().unwrap();
    let sets = LevelSets::build(points, levels);
    let indexes = sets.indexes(links);
    fan_out(&grid, |s| {
        let shard = Shard::gather(points, &gather, &grid, s, halo);
        let padded = grid.padded(s, halo);
        let covers_all = padded.contains_aabb(&bbox);
        derive_hng(
            &shard,
            levels,
            links,
            &sets.top,
            sets.top_level,
            &padded,
            covers_all,
            // One exact rung from the whole-population level index (ids
            // are already global here).
            |p, gu, j| upward_rung(&sets, &indexes, p, gu, levels[gu as usize], j, links),
        )
    })
}

/// Sharded `HNG(points, params, seed)` — edge-identical to [`build_hng`].
pub fn build_hng_sharded(
    points: &PointSet,
    params: HngParams,
    seed: u64,
    tiles_per_shard: usize,
) -> Csr {
    let params = HngParams::new(params.p, params.links); // validate
    let levels = hng_levels(points.len(), params.p, seed);
    build_hng_sharded_on_levels(points, &levels, params.links, tiles_per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WHOLE_WINDOW;
    use proptest::prelude::*;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn pts(n: usize, seed: u64, side: f64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(side))
    }

    fn connected(g: &Csr) -> bool {
        let n = g.n();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    #[test]
    fn levels_are_geometric_and_deterministic() {
        let levels = hng_levels(20_000, 0.5, 42);
        assert_eq!(levels, hng_levels(20_000, 0.5, 42));
        let l2 = levels.iter().filter(|&&l| l >= 2).count() as f64;
        let frac = l2 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "level-2 fraction {frac}");
        assert!(levels.iter().all(|&l| (1..=MAX_LEVEL).contains(&l)));
        // A different seed rolls a different hierarchy.
        assert_ne!(levels, hng_levels(20_000, 0.5, 43));
    }

    #[test]
    fn serial_graph_is_connected_across_seeds() {
        for seed in 0..8u64 {
            let p = pts(300, seed, 10.0);
            let g = build_hng(&p, HngParams::new(0.5, 1), derive_seed2(seed, 1, 2));
            assert!(connected(&g), "seed {seed}: HNG must be connected");
        }
    }

    #[test]
    fn expected_degree_stays_bounded_as_n_grows() {
        // O(1) expected degree: mean degree must not grow with n.
        let mut means = Vec::new();
        for (seed, n) in [(1u64, 500usize), (2, 2000), (3, 8000)] {
            let p = pts(n, seed, (n as f64).sqrt());
            let g = build_hng(&p, HngParams::new(0.5, 1), 7);
            means.push(2.0 * g.m() as f64 / n as f64);
        }
        for &m in &means {
            // E[deg] ≈ 2·links·E[ℓ] = 4 at p = 0.5; the clique adds o(1).
            assert!(m < 6.0, "mean degree {m} too large for O(1) claim");
        }
        assert!(
            (means[2] - means[0]).abs() < 1.0,
            "mean degree drifts with n: {means:?}"
        );
    }

    #[test]
    fn singleton_and_empty_sets() {
        let empty = PointSet::new();
        assert_eq!(build_hng(&empty, HngParams::new(0.5, 1), 1).n(), 0);
        let one: PointSet = [Point::new(0.0, 0.0)].into_iter().collect();
        let g = build_hng(&one, HngParams::new(0.5, 1), 1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    use wsn_geom::Point;

    #[test]
    fn uplinks_go_to_nearest_higher_level_node() {
        // Hand-placed line; pick a seed/level layout via explicit levels.
        let p: PointSet = [0.0, 1.0, 3.0, 7.0]
            .iter()
            .map(|&x| Point::new(x, 0.0))
            .collect();
        // Levels: node 1 and 3 at level 2 (top); 0 and 2 at level 1.
        let levels = vec![1, 2, 1, 2];
        let g = build_hng_on_levels(&p, &levels, 1);
        assert!(g.has_edge(0, 1), "0's nearest level-2 node is 1");
        assert!(
            g.has_edge(2, 1),
            "2's nearest level-2 node is 1 (dist 2 < 4)"
        );
        assert!(g.has_edge(1, 3), "top clique");
        assert!(!g.has_edge(0, 2), "no lateral level-1 edges");
        assert_eq!(g.m(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tile-sharded builder is edge-identical to the serial one for
        /// every shard granularity, including the degenerate whole window.
        #[test]
        fn prop_sharded_matches_serial(seed in 0u64..300, n in 2usize..160, links in 1usize..3) {
            let p = pts(n, seed, 8.0);
            let params = HngParams::new(0.5, links);
            let hseed = derive_seed2(seed, 0x48, 0);
            let serial = build_hng(&p, params, hseed);
            for tiles in [1usize, 4, WHOLE_WINDOW] {
                let sharded = build_hng_sharded(&p, params, hseed, tiles);
                prop_assert_eq!(&serial, &sharded, "tiles = {}", tiles);
            }
        }

        /// Connectivity holds for any seed, density, and promotion rate.
        #[test]
        fn prop_always_connected(seed in 0u64..200, n in 1usize..120, pr in 0.2f64..0.8) {
            let p = pts(n, seed, 6.0);
            let g = build_hng(&p, HngParams::new(pr, 1), derive_seed2(seed, 9, 9));
            prop_assert!(connected(&g));
        }
    }
}
