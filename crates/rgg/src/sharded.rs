//! Tile-sharded, rayon-parallel construction of every plain topology.
//!
//! The paper's structures are all *locally constructible*: whether an edge
//! exists depends only on points within a constant radius of its endpoints.
//! The pipeline exploits exactly that. A deployment is decomposed by a
//! [`wsn_geom::ShardGrid`] into rectangular shards; each shard
//!
//! 1. **gathers** its ghost-padded working set (core block inflated by the
//!    topology's halo radius) from one shared read-only [`GridIndex`] — the
//!    halo exchange,
//! 2. **constructs** its owned nodes' edges against a shard-local index
//!    whose coordinates all fit in cache, and
//! 3. hands its edge run back to the CSR assembler
//!    ([`Csr::from_runs`]), which buckets and scatters the runs straight
//!    into rows on the same pool — there is no concatenated edge list.
//!
//! Shards fan out over the rayon pool and are collected in shard order, so
//! the result is bit-identical at any `RAYON_NUM_THREADS` — and, more
//! importantly, *edge-identical to the monolithic builders* in this crate
//! (`tests/sharded_vs_monolithic.rs` pins all seven topology kinds).
//!
//! ## Why the assembled CSR is exactly the monolithic one
//!
//! * Every point has exactly one owner shard, and `ball(p, halo)` is
//!   contained in the owner's padded extent, so an owned node sees exactly
//!   the candidate set the monolithic builder saw (the predicates never
//!   look farther than the halo: UDG/Yao query `radius`; Gabriel blockers
//!   and RNG witnesses lie within `radius` of the nearer endpoint).
//! * Local ids are assigned in ascending global-id order, so every id
//!   tie-break (k-NN heap keys, Yao per-cone minima) orders candidates the
//!   same way.
//! * Predicates are evaluated with the same operand order as the monolithic
//!   code (smaller global id first), so float results are identical — not
//!   merely equivalent.
//! * k-NN, whose halo is probabilistic rather than certain, verifies per
//!   node that its k-th neighbour distance fits inside the halo and falls
//!   back to the shared global index otherwise (exact in both cases since
//!   k-NN results are index-independent).

use rayon::prelude::*;
use wsn_geom::{Aabb, Point, ShardGrid};
use wsn_graph::{Csr, Emitted};
use wsn_pointproc::PointSet;
use wsn_spatial::{GridIndex, SubIndex};

/// Pass as `tiles_per_shard` for an explicit single-shard (whole-window)
/// plan — useful as the degenerate case of differential tests.
pub const WHOLE_WINDOW: usize = usize::MAX;

/// A shard's materialised working set: the ghost-padded points in local id
/// space, the monotone local→global id map, and the ownership mask.
pub(crate) struct Shard {
    pub(crate) pts: PointSet,
    pub(crate) ids: Vec<u32>,
    pub(crate) owned: Vec<bool>,
}

/// The ghost-gather primitive [`Shard::gather_mapped`] needs: sorted ids
/// inside a closed box. Implemented by both the global [`GridIndex`] (the
/// PR-4 whole-population gather) and the localized [`SubIndex`] (the
/// dirty-extent gather, whose extent certificate additionally asserts the
/// padded box is covered).
pub(crate) trait GhostGather {
    fn gather_sorted_into(&self, b: &Aabb, out: &mut Vec<u32>);
}

impl GhostGather for GridIndex<'_> {
    fn gather_sorted_into(&self, b: &Aabb, out: &mut Vec<u32>) {
        self.gather_sorted(b, out);
    }
}

impl GhostGather for SubIndex<'_> {
    fn gather_sorted_into(&self, b: &Aabb, out: &mut Vec<u32>) {
        self.gather_sorted(b, out);
    }
}

impl Shard {
    pub(crate) fn gather(
        points: &PointSet,
        gather: &GridIndex,
        grid: &ShardGrid,
        s: usize,
        halo: f64,
    ) -> Shard {
        let mut ids = Vec::new();
        gather.gather_sorted(&grid.padded(s, halo), &mut ids);
        let mut pts = PointSet::with_capacity(ids.len());
        let mut owned = Vec::with_capacity(ids.len());
        for &g in &ids {
            let p = points.get(g);
            pts.push(p);
            owned.push(grid.owner_of(p) == s);
        }
        Shard { pts, ids, owned }
    }

    /// Gather through an index whose ids are *local* to some compacted
    /// subset (e.g. the alive survivors of a churned deployment), mapping
    /// them back to universe ids via the strictly monotone `to_universe`.
    ///
    /// Because the map is monotone, the gathered working set is ordered by
    /// universe id exactly as [`Shard::gather`] orders it by global id —
    /// every id tie-break downstream resolves identically, which is what
    /// makes incremental repair byte-identical to a cold rebuild.
    pub(crate) fn gather_mapped(
        sub: &PointSet,
        to_universe: &[u32],
        index: &impl GhostGather,
        grid: &ShardGrid,
        s: usize,
        halo: f64,
    ) -> Shard {
        let mut local = Vec::new();
        index.gather_sorted_into(&grid.padded(s, halo), &mut local);
        let mut pts = PointSet::with_capacity(local.len());
        let mut ids = Vec::with_capacity(local.len());
        let mut owned = Vec::with_capacity(local.len());
        for &l in &local {
            let p = sub.get(l);
            pts.push(p);
            ids.push(to_universe[l as usize]);
            owned.push(grid.owner_of(p) == s);
        }
        Shard { pts, ids, owned }
    }
}

/// One shard's UDG emissions: every canonical edge whose smaller endpoint
/// the shard owns. Shared verbatim by the cold pipeline and the
/// incremental repair path (`crate::incremental`).
pub(crate) fn derive_udg(shard: &Shard, radius: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let index = GridIndex::build(&shard.pts, radius);
    for (u, p) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        index.for_each_in_disk(p, radius, |v, _| {
            let gv = shard.ids[v as usize];
            if gv > gu {
                out.push((gu, gv));
            }
        });
    }
    out
}

/// One shard's Gabriel emissions (diameter-disk emptiness over the owner's
/// distance-sorted neighbour list, early exit on the first blocker).
pub(crate) fn derive_gabriel(shard: &Shard, radius: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let index = GridIndex::build(&shard.pts, radius);
    // Every blocker of an edge `uv` (inside the diameter disk) is within
    // `|uv| ≤ radius` of `u`, i.e. already in `u`'s neighbour list — so the
    // emptiness test scans that list (sorted by distance: likely blockers
    // first, early exit) instead of probing grid cells per edge.
    let mut nbrs: Vec<(u32, Point, f64)> = Vec::new();
    for (u, pu) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        nbrs.clear();
        index.for_each_in_disk(pu, radius, |v, q| {
            if v != u {
                nbrs.push((v, q, pu.dist(q)));
            }
        });
        nbrs.sort_unstable_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        for &(v, pv, _) in &nbrs {
            let gv = shard.ids[v as usize];
            if gv <= gu {
                continue;
            }
            let mid = pu.midpoint(pv);
            let r = pu.dist(pv) * 0.5;
            let r2 = r * r - 1e-12;
            let blocked = nbrs.iter().any(|&(w, q, _)| w != v && q.dist_sq(mid) < r2);
            if !blocked {
                out.push((gu, gv));
            }
        }
    }
    out
}

/// One shard's RNG emissions (lune emptiness as a prefix scan of the
/// distance-sorted neighbour list).
pub(crate) fn derive_rng(shard: &Shard, radius: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let index = GridIndex::build(&shard.pts, radius);
    // A lune witness of `uv` is closer than `|uv| ≤ radius` to *both*
    // endpoints, so it is in `u`'s neighbour list. Sorting that list by
    // distance-to-`u` makes the witness scan a prefix scan: entries at
    // `d(w, u) ≥ |uv|` can never block and terminate the loop.
    let mut nbrs: Vec<(u32, Point, f64)> = Vec::new();
    for (u, pu) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        nbrs.clear();
        index.for_each_in_disk(pu, radius, |v, q| {
            if v != u {
                nbrs.push((v, q, pu.dist(q)));
            }
        });
        nbrs.sort_unstable_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        for &(v, pv, d) in &nbrs {
            let gv = shard.ids[v as usize];
            if gv <= gu {
                continue;
            }
            let strict = d - 1e-12;
            let mut blocked = false;
            for &(w, q, dwu) in &nbrs {
                if dwu >= strict {
                    break; // sorted: no later entry can block
                }
                if w != v && q.dist(pv) < strict {
                    blocked = true;
                    break;
                }
            }
            if !blocked {
                out.push((gu, gv));
            }
        }
    }
    out
}

/// One shard's Yao emissions: per owned node, the nearest neighbour of each
/// angular cone, as canonical pairs (an edge may also be emitted by its
/// other endpoint's shard — splice through the deduplicating path).
pub(crate) fn derive_yao(shard: &Shard, radius: f64, cones: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let sector = std::f64::consts::TAU / cones as f64;
    let index = GridIndex::build(&shard.pts, radius);
    // best[c] = (dist, global id) of the nearest neighbour in cone c —
    // keyed on global ids so ties break exactly as in the monolithic
    // builder.
    let mut best: Vec<Option<(f64, u32)>> = vec![None; cones];
    for (u, p) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        best.iter_mut().for_each(|b| *b = None);
        index.for_each_in_disk(p, radius, |v, q| {
            if v == u {
                return;
            }
            let angle = (q.y - p.y)
                .atan2(q.x - p.x)
                .rem_euclid(std::f64::consts::TAU);
            let cone = ((angle / sector) as usize).min(cones - 1);
            let cand = (p.dist(q), shard.ids[v as usize]);
            if best[cone].is_none_or(|cur| cand < cur) {
                best[cone] = Some(cand);
            }
        });
        for b in best.iter().flatten() {
            out.push((gu.min(b.1), gu.max(b.1)));
        }
    }
    out
}

/// Distance from `p` to the nearest *finite* side of `b`. Window-edge
/// shards keep their unbounded outward reach as `±INFINITY` sides
/// ([`ShardGrid::padded`]), which contribute an infinite margin here — no
/// special-casing needed. Any point strictly outside the closed box
/// violates at least one finite side's plane and is therefore strictly
/// farther than this margin from `p`, so a k-th-neighbour distance within
/// the margin certifies the box-local k-NN answer as globally exact
/// (including id tie-breaks: an outside point can never tie the k-th
/// distance, its distance is strictly larger).
#[inline]
pub(crate) fn interior_margin(p: Point, b: &Aabb) -> f64 {
    (p.x - b.min.x)
        .min(b.max.x - p.x)
        .min(p.y - b.min.y)
        .min(b.max.y - p.y)
}

/// One shard's directed k-NN lists in global id space, plus whether any
/// owned node *straggled* (its k-th neighbour fell outside the node's
/// interior margin of the shard's `padded` extent, forcing the exact
/// `fallback` query — `fallback(p, gu)` must return `gu`'s k nearest over
/// the whole point population, in global ids).
///
/// The certificate is per node, not per shard: a node deep inside the
/// padded box tolerates a k-th distance up to its own distance from the
/// box boundary ([`interior_margin`]), which is never smaller than the
/// halo for owned nodes and unbounded toward window edges — so group-local
/// repairs certify far more nodes than the old whole-halo test did,
/// without ever certifying a node whose list could depend on points beyond
/// the gathered box.
///
/// The straggler flag matters to incremental maintenance: a straggler's
/// list depends on points beyond the shard's padded extent, so its shard
/// can never be trusted as "clean" under churn.
pub(crate) fn derive_knn<F>(
    shard: &Shard,
    k: usize,
    padded: &Aabb,
    covers_all: bool,
    fallback: F,
) -> (Vec<(u32, Vec<u32>)>, bool)
where
    F: Fn(Point, u32) -> Vec<u32>,
{
    let mut out = Vec::new();
    let mut straggled = false;
    if shard.pts.is_empty() {
        return (out, straggled);
    }
    let index = GridIndex::build(&shard.pts, knn_cell_size(&shard.pts, k));
    for (u, p) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        let local = index.knn(p, k, Some(u));
        let certain = covers_all
            || (local.len() == k
                && local
                    .last()
                    .is_none_or(|&(_, d)| d <= interior_margin(p, padded)));
        let list: Vec<u32> = if certain {
            local
                .into_iter()
                .map(|(v, _)| shard.ids[v as usize])
                .collect()
        } else {
            // Halo miss: resolve exactly against the full population
            // (k-NN results are index-independent).
            straggled = true;
            fallback(p, gu)
        };
        out.push((gu, list));
    }
    (out, straggled)
}

/// Shard plan over the deployment's bounding box with shards of
/// `tiles_per_shard` tiles (of side `tile`) per side.
pub(crate) fn plan(points: &PointSet, tile: f64, tiles_per_shard: usize) -> ShardGrid {
    let bbox = points.bounding_box().expect("caller guards empty sets");
    if tiles_per_shard == WHOLE_WINDOW {
        ShardGrid::whole(&bbox)
    } else {
        ShardGrid::new(&bbox, tile, tiles_per_shard)
    }
}

/// Fan `build_shard` out over all shards: one edge run per shard, in shard
/// order, handed to the assembler as they are — no concatenation.
pub(crate) fn fan_out<F>(grid: &ShardGrid, build_shard: F) -> Vec<Vec<(u32, u32)>>
where
    F: Fn(usize) -> Vec<(u32, u32)> + Sync,
{
    (0..grid.shard_count())
        .into_par_iter()
        .map(build_shard)
        .collect()
}

/// Sharded `UDG(points, radius)` — edge-identical to
/// [`crate::udg::build_udg`].
pub fn build_udg_sharded(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    threshold_sharded(points, radius, tiles_per_shard, None, derive_udg)
}

/// Sharded Gabriel subgraph of `UDG(points, radius)` — edge-identical to
/// [`crate::gabriel::build_gabriel`].
///
/// Unlike the monolithic builder this never materialises the intermediate
/// UDG, and the diameter-disk emptiness test short-circuits on the first
/// blocker instead of scanning the whole disk.
pub fn build_gabriel_sharded(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    threshold_sharded(points, radius, tiles_per_shard, None, derive_gabriel)
}

/// Sharded relative neighbourhood subgraph of `UDG(points, radius)` —
/// edge-identical to [`crate::rng_graph::build_rng`].
pub fn build_rng_sharded(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    threshold_sharded(points, radius, tiles_per_shard, None, derive_rng)
}

/// One shard's emissions of a threshold kind (UDG, Gabriel, RNG).
pub(crate) type DeriveThreshold = fn(&Shard, f64) -> Vec<(u32, u32)>;

/// The sharded build of a threshold kind: `derive` runs on every shard
/// with halo `radius`, and the assembler maps every endpoint through `map`
/// (the ordered pipeline passes `to_orig`). Each canonical edge is emitted
/// exactly once, by the owner of its smaller endpoint.
pub(crate) fn threshold_sharded(
    points: &PointSet,
    radius: f64,
    tiles_per_shard: usize,
    map: Option<&[u32]>,
    derive: DeriveThreshold,
) -> Csr {
    assert!(radius > 0.0, "radius must be positive");
    if points.is_empty() {
        return Csr::empty(0);
    }
    let gather = GridIndex::build(points, radius);
    let grid = plan(points, radius, tiles_per_shard);
    let runs = fan_out(&grid, |s| {
        derive(&Shard::gather(points, &gather, &grid, s, radius), radius)
    });
    Csr::from_runs(points.len(), runs, map, Emitted::Once)
}

/// Sharded Yao subgraph of `UDG(points, radius)` with `cones` sectors —
/// edge-identical to [`crate::yao::build_yao`].
pub fn build_yao_sharded(
    points: &PointSet,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
) -> Csr {
    yao_sharded(points, radius, cones, tiles_per_shard, None)
}

/// [`build_yao_sharded`] through the id map `map`.
pub(crate) fn yao_sharded(
    points: &PointSet,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
    map: Option<&[u32]>,
) -> Csr {
    assert!(cones >= 1, "need at least one cone");
    if points.is_empty() {
        return Csr::empty(0);
    }
    let gather = GridIndex::build(points, radius);
    let grid = plan(points, radius, tiles_per_shard);
    let runs = fan_out(&grid, |s| {
        derive_yao(
            &Shard::gather(points, &gather, &grid, s, radius),
            radius,
            cones,
        )
    });
    // Directed selections can coincide from both endpoints (possibly in
    // different shards); the assembler folds the repeat.
    Csr::from_runs(points.len(), runs, map, Emitted::Repeated)
}

/// Grid cell size for k-NN searches (same heuristic as the monolithic
/// builder: roughly the radius expected to contain k points).
pub(crate) fn knn_cell_size(points: &PointSet, k: usize) -> f64 {
    let bb = points.bounding_box().unwrap();
    let area = bb.area().max(1e-9);
    let density = points.len() as f64 / area;
    ((k as f64 + 1.0) / (std::f64::consts::PI * density.max(1e-9)))
        .sqrt()
        .clamp(1e-3, bb.width().max(bb.height()).max(1e-3))
}

/// The halo radius the sharded k-NN builder pads shards with (3× the
/// expected k-point radius at the set's mean density) — also the tile side
/// of its [`ShardGrid`] plan. Exposed so external tooling (the pipeline
/// bench) can reconstruct the exact shard decomposition.
pub fn knn_halo(points: &PointSet, k: usize) -> f64 {
    3.0 * knn_cell_size(points, k)
}

/// Each shard's owned nodes with their directed k-NN lists (global ids),
/// in shard order.
fn knn_shards(points: &PointSet, k: usize, tiles_per_shard: usize) -> Vec<Vec<(u32, Vec<u32>)>> {
    let halo = knn_halo(points, k);
    let gather = GridIndex::build(points, knn_cell_size(points, k));
    let grid = plan(points, halo, tiles_per_shard);
    let bbox = points.bounding_box().unwrap();
    (0..grid.shard_count())
        .into_par_iter()
        .map(|s| {
            let shard = Shard::gather(points, &gather, &grid, s, halo);
            let padded = grid.padded(s, halo);
            let covers_all = padded.contains_aabb(&bbox);
            derive_knn(&shard, k, &padded, covers_all, |p, gu| {
                gather
                    .knn(p, k, Some(gu))
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            })
            .0
        })
        .collect()
}

/// The sharded directed k-NN lists — identical to
/// [`crate::knn::knn_lists`].
///
/// The halo is sized so that a node's k nearest almost surely fit inside
/// it (3× the expected k-point radius); each node *verifies* that bound
/// (`k` results, all within the halo) and the rare stragglers fall back to
/// an exact query on the shared global index.
pub fn knn_lists_sharded(points: &PointSet, k: usize, tiles_per_shard: usize) -> Vec<Vec<u32>> {
    if points.is_empty() || k == 0 {
        return vec![Vec::new(); points.len()];
    }
    let mut lists = vec![Vec::new(); points.len()];
    for shard in knn_shards(points, k, tiles_per_shard) {
        for (gu, list) in shard {
            lists[gu as usize] = list;
        }
    }
    lists
}

/// Sharded undirected `NN(points, k)` — edge-identical to
/// [`crate::knn::build_knn`].
pub fn build_knn_sharded(points: &PointSet, k: usize, tiles_per_shard: usize) -> Csr {
    knn_sharded(points, k, tiles_per_shard, None)
}

/// [`build_knn_sharded`] through the id map `map`. Each shard's lists are
/// one run; a mutual pair arrives from both endpoints and folds.
pub(crate) fn knn_sharded(
    points: &PointSet,
    k: usize,
    tiles_per_shard: usize,
    map: Option<&[u32]>,
) -> Csr {
    if points.is_empty() || k == 0 {
        return Csr::empty(points.len());
    }
    let runs: Vec<Vec<(u32, u32)>> = knn_shards(points, k, tiles_per_shard)
        .into_par_iter()
        .map(|shard| {
            shard
                .into_iter()
                .flat_map(|(gu, list)| list.into_iter().map(move |v| (gu, v)))
                .collect()
        })
        .collect();
    Csr::from_runs(points.len(), runs, map, Emitted::Repeated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_gabriel, build_knn, build_rng, build_udg, build_yao, knn_lists};
    use wsn_geom::Aabb;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn pts(n: usize, seed: u64, side: f64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(side))
    }

    #[test]
    fn udg_matches_monolithic_across_shard_sizes() {
        let p = pts(400, 1, 10.0);
        let mono = build_udg(&p, 1.0);
        for tiles in [1, 3, WHOLE_WINDOW] {
            assert_eq!(build_udg_sharded(&p, 1.0, tiles), mono, "tiles = {tiles}");
        }
    }

    #[test]
    fn gabriel_and_rng_match_monolithic() {
        let p = pts(300, 2, 8.0);
        assert_eq!(build_gabriel_sharded(&p, 1.2, 2), build_gabriel(&p, 1.2));
        assert_eq!(build_rng_sharded(&p, 1.2, 2), build_rng(&p, 1.2));
    }

    #[test]
    fn yao_matches_monolithic() {
        let p = pts(300, 3, 8.0);
        for cones in [1, 4, 6] {
            assert_eq!(
                build_yao_sharded(&p, 1.0, cones, 2),
                build_yao(&p, 1.0, cones),
                "cones = {cones}"
            );
        }
    }

    #[test]
    fn knn_lists_and_graph_match_monolithic() {
        let p = pts(250, 4, 6.0);
        for k in [1, 4, 9] {
            assert_eq!(knn_lists_sharded(&p, k, 2), knn_lists(&p, k), "k = {k}");
            assert_eq!(build_knn_sharded(&p, k, 2), build_knn(&p, k));
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let empty = PointSet::new();
        assert_eq!(build_udg_sharded(&empty, 1.0, 4).n(), 0);
        assert_eq!(build_knn_sharded(&empty, 3, 4).n(), 0);
        let two: PointSet = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0)]
            .into_iter()
            .collect();
        assert_eq!(build_udg_sharded(&two, 1.0, 1), build_udg(&two, 1.0));
        assert_eq!(build_knn_sharded(&two, 5, 1), build_knn(&two, 5));
        assert_eq!(build_knn_sharded(&two, 0, 1).m(), 0);
    }

    #[test]
    fn clustered_deployment_with_empty_shards() {
        // Two far-apart dense clusters leave most interior shards empty.
        let mut p = PointSet::new();
        for (i, q) in pts(120, 5, 2.0).iter().enumerate() {
            let off = if i % 2 == 0 { 0.0 } else { 30.0 };
            p.push(Point::new(q.x + off, q.y + off));
        }
        assert_eq!(build_udg_sharded(&p, 1.0, 2), build_udg(&p, 1.0));
        assert_eq!(build_gabriel_sharded(&p, 1.0, 2), build_gabriel(&p, 1.0));
    }
}
