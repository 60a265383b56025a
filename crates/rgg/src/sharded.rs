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
use wsn_spatial::GridIndex;

use crate::hng::hng_runs;
use crate::IncTopology;

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

    /// Owned node `u`'s disk neighbours as `(global id, point, distance)`,
    /// sorted by `(distance, id)` — the candidate list the Gabriel and RNG
    /// owner kernels scan.
    fn disk_neighbours(
        &self,
        index: &GridIndex,
        u: u32,
        radius: f64,
        nbrs: &mut Vec<(u32, Point, f64)>,
    ) {
        let pu = self.pts.get(u);
        nbrs.clear();
        index.for_each_in_disk(pu, radius, |v, q| {
            if v != u {
                nbrs.push((self.ids[v as usize], q, pu.dist(q)));
            }
        });
        sort_by_distance(nbrs);
    }
}

/// An owner's disk neighbours: `(id, point, distance)`.
pub(crate) type Neighbours = [(u32, Point, f64)];

/// An owner kernel: the targets owner `gu` at `pu` emits given its sorted
/// disk neighbours.
type OwnerKernel = fn(u32, Point, &Neighbours, &mut Vec<u32>);

/// Sort disk neighbours by `(distance, id)` — the order both owner
/// kernels' early exits rely on.
pub(crate) fn sort_by_distance(nbrs: &mut Neighbours) {
    nbrs.sort_unstable_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
}

/// One shard's UDG emissions: every canonical edge whose smaller endpoint
/// the shard owns.
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

/// The Gabriel edges owner `gu` at `pu` emits: every `gv > gu` among its
/// disk neighbours `nbrs` (sorted by [`sort_by_distance`]) whose diameter
/// disk holds no other neighbour strictly inside. Every blocker of an edge
/// `uv` lies within `|uv| ≤ radius` of `u`, so `u`'s neighbour list is the
/// whole blocker candidate set — likely blockers first, early exit. Shared
/// by the shard derivation and the churn repair.
pub(crate) fn gabriel_owner(gu: u32, pu: Point, nbrs: &Neighbours, out: &mut Vec<u32>) {
    for &(gv, pv, _) in nbrs {
        if gv <= gu {
            continue;
        }
        let mid = pu.midpoint(pv);
        let r = pu.dist(pv) * 0.5;
        let r2 = r * r - 1e-12;
        if !nbrs.iter().any(|&(w, q, _)| w != gv && q.dist_sq(mid) < r2) {
            out.push(gv);
        }
    }
}

/// The RNG edges owner `gu` at `pu` emits: every `gv > gu` among its disk
/// neighbours `nbrs` (sorted by [`sort_by_distance`]) whose lune holds no
/// witness. A witness is closer than `|uv|` to `u`, so the scan is a prefix
/// of the sorted list: entries at `d(w, u) ≥ |uv|` can never block. Shared
/// by the shard derivation and the churn repair.
pub(crate) fn rng_owner(gu: u32, _pu: Point, nbrs: &Neighbours, out: &mut Vec<u32>) {
    for &(gv, pv, d) in nbrs {
        if gv <= gu {
            continue;
        }
        let strict = d - 1e-12;
        let blocked = nbrs
            .iter()
            .take_while(|&&(_, _, dwu)| dwu < strict)
            .any(|&(w, q, _)| w != gv && q.dist(pv) < strict);
        if !blocked {
            out.push(gv);
        }
    }
}

/// Offer candidate `v` at `q` to the Yao cones of the owner at `p`:
/// `best[c]` keeps the `(distance, id)`-least candidate of cone `c`, so ties
/// break by id exactly as in the monolithic builder. Shared by the shard
/// derivation and the churn repair.
#[inline]
pub(crate) fn yao_offer(p: Point, v: u32, q: Point, best: &mut [Option<(f64, u32)>]) {
    let cones = best.len();
    let sector = std::f64::consts::TAU / cones as f64;
    let angle = (q.y - p.y)
        .atan2(q.x - p.x)
        .rem_euclid(std::f64::consts::TAU);
    let cone = ((angle / sector) as usize).min(cones - 1);
    let cand = (p.dist(q), v);
    if best[cone].is_none_or(|cur| cand < cur) {
        best[cone] = Some(cand);
    }
}

/// One shard's emissions of an owner kernel (Gabriel or RNG): each
/// canonical edge once, by the owner of its smaller endpoint.
fn derive_owner_kernel(shard: &Shard, radius: f64, kernel: OwnerKernel) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let index = GridIndex::build(&shard.pts, radius);
    let (mut nbrs, mut targets) = (Vec::new(), Vec::new());
    for (u, pu) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        shard.disk_neighbours(&index, u, radius, &mut nbrs);
        targets.clear();
        kernel(gu, pu, &nbrs, &mut targets);
        out.extend(targets.iter().map(|&gv| (gu, gv)));
    }
    out
}

/// One shard's Gabriel emissions ([`gabriel_owner`] per owned node).
pub(crate) fn derive_gabriel(shard: &Shard, radius: f64) -> Vec<(u32, u32)> {
    derive_owner_kernel(shard, radius, gabriel_owner)
}

/// One shard's RNG emissions ([`rng_owner`] per owned node).
pub(crate) fn derive_rng(shard: &Shard, radius: f64) -> Vec<(u32, u32)> {
    derive_owner_kernel(shard, radius, rng_owner)
}

/// One shard's Yao emissions: per owned node, the nearest neighbour of each
/// angular cone, as canonical pairs (an edge may also be emitted by its
/// other endpoint's shard — the assembler folds the repeat).
pub(crate) fn derive_yao(shard: &Shard, radius: f64, cones: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
    }
    let index = GridIndex::build(&shard.pts, radius);
    // Keyed on global ids so ties break exactly as in the monolithic
    // builder.
    let mut best: Vec<Option<(f64, u32)>> = vec![None; cones];
    for (u, p) in shard.pts.iter_enumerated() {
        if !shard.owned[u as usize] {
            continue;
        }
        let gu = shard.ids[u as usize];
        best.fill(None);
        index.for_each_in_disk(p, radius, |v, q| {
            if v != u {
                yao_offer(p, shard.ids[v as usize], q, &mut best);
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

/// One shard's directed k-NN lists in global id space. An owned node
/// whose k-th neighbour falls outside its interior margin of the shard's
/// `padded` extent — a *straggler* — takes the exact `fallback` query
/// instead (`fallback(p, gu)` must return `gu`'s k nearest over the whole
/// point population, in global ids).
///
/// The certificate is per node, not per shard: a node deep inside the
/// padded box tolerates a k-th distance up to its own distance from the
/// box boundary ([`interior_margin`]), which is never smaller than the
/// halo for owned nodes and unbounded toward window edges, and never
/// certifies a node whose list could depend on points beyond the box.
pub(crate) fn derive_knn<F>(
    shard: &Shard,
    k: usize,
    padded: &Aabb,
    covers_all: bool,
    fallback: F,
) -> Vec<(u32, Vec<u32>)>
where
    F: Fn(Point, u32) -> Vec<u32>,
{
    let mut out = Vec::new();
    if shard.pts.is_empty() {
        return out;
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
            fallback(p, gu)
        };
        out.push((gu, list));
    }
    out
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

/// The sharded build of `kind` over `points`, as it leaves the shards: one
/// emission run per shard in the ids of `points` (`levels`, per point, is
/// read by HNG only), and how often the assembler may see one edge.
/// Threshold kinds (UDG, Gabriel, RNG) emit each canonical edge once, from
/// the owner of its smaller endpoint; the selection kinds (Yao, k-NN, HNG)
/// emit one pair per selection, so an edge both endpoints select arrives
/// twice.
pub(crate) fn emission_runs(
    kind: IncTopology,
    points: &PointSet,
    levels: &[u32],
    tiles_per_shard: usize,
) -> (Vec<Vec<(u32, u32)>>, Emitted) {
    let threshold = |radius: f64, derive: DeriveThreshold| {
        assert!(radius > 0.0, "radius must be positive");
        if points.is_empty() {
            return (Vec::new(), Emitted::Once);
        }
        let gather = GridIndex::build(points, radius);
        let grid = plan(points, radius, tiles_per_shard);
        let runs = fan_out(&grid, |s| {
            derive(&Shard::gather(points, &gather, &grid, s, radius), radius)
        });
        (runs, Emitted::Once)
    };
    match kind {
        IncTopology::Udg { radius } => threshold(radius, derive_udg),
        IncTopology::Gabriel { radius } => threshold(radius, derive_gabriel),
        IncTopology::Rng { radius } => threshold(radius, derive_rng),
        IncTopology::Yao { radius, cones } => {
            assert!(cones >= 1, "need at least one cone");
            (
                yao_runs(points, radius, cones, tiles_per_shard),
                Emitted::Repeated,
            )
        }
        IncTopology::Knn { k } => (knn_runs(points, k, tiles_per_shard), Emitted::Repeated),
        IncTopology::Hng { links, .. } => (
            hng_runs(points, levels, links, tiles_per_shard),
            Emitted::Repeated,
        ),
    }
}

/// [`emission_runs`] assembled into a CSR on `points.len()` nodes, every
/// endpoint renamed through `map` (the ordered pipeline passes `to_orig`).
pub(crate) fn assemble_sharded(
    kind: IncTopology,
    points: &PointSet,
    levels: &[u32],
    tiles_per_shard: usize,
    map: Option<&[u32]>,
) -> Csr {
    let (runs, emitted) = emission_runs(kind, points, levels, tiles_per_shard);
    Csr::from_runs(points.len(), runs, map, emitted)
}

/// Sharded `UDG(points, radius)` — edge-identical to
/// [`crate::udg::build_udg`].
pub fn build_udg_sharded(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    assemble_sharded(
        IncTopology::Udg { radius },
        points,
        &[],
        tiles_per_shard,
        None,
    )
}

/// Sharded Gabriel subgraph of `UDG(points, radius)` — edge-identical to
/// [`crate::gabriel::build_gabriel`].
///
/// Unlike the monolithic builder this never materialises the intermediate
/// UDG, and the diameter-disk emptiness test short-circuits on the first
/// blocker instead of scanning the whole disk.
pub fn build_gabriel_sharded(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    assemble_sharded(
        IncTopology::Gabriel { radius },
        points,
        &[],
        tiles_per_shard,
        None,
    )
}

/// Sharded relative neighbourhood subgraph of `UDG(points, radius)` —
/// edge-identical to [`crate::rng_graph::build_rng`].
pub fn build_rng_sharded(points: &PointSet, radius: f64, tiles_per_shard: usize) -> Csr {
    assemble_sharded(
        IncTopology::Rng { radius },
        points,
        &[],
        tiles_per_shard,
        None,
    )
}

/// One shard's emissions of a threshold kind (UDG, Gabriel, RNG).
type DeriveThreshold = fn(&Shard, f64) -> Vec<(u32, u32)>;

/// Sharded Yao subgraph of `UDG(points, radius)` with `cones` sectors —
/// edge-identical to [`crate::yao::build_yao`].
pub fn build_yao_sharded(
    points: &PointSet,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
) -> Csr {
    let kind = IncTopology::Yao { radius, cones };
    assemble_sharded(kind, points, &[], tiles_per_shard, None)
}

/// The Yao shard runs (directed selections can coincide from both
/// endpoints, possibly in different shards).
fn yao_runs(
    points: &PointSet,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
) -> Vec<Vec<(u32, u32)>> {
    if points.is_empty() {
        return Vec::new();
    }
    let gather = GridIndex::build(points, radius);
    let grid = plan(points, radius, tiles_per_shard);
    fan_out(&grid, |s| {
        derive_yao(
            &Shard::gather(points, &gather, &grid, s, radius),
            radius,
            cones,
        )
    })
}

/// Grid cell size for k-NN searches: roughly the radius expected to
/// contain k points at the set's mean density. A set whose bounding box is
/// far thinner than its mean spacing (an axis-aligned line has zero area)
/// is sized as a strip one mean spacing wide, so its cells still hold
/// about k points instead of shrinking to the clamp.
pub(crate) fn knn_cell_size(points: &PointSet, k: usize) -> f64 {
    let (side, area) = spread(points);
    let density = points.len() as f64 / area.max(1e-9);
    ((k as f64 + 1.0) / (std::f64::consts::PI * density.max(1e-9)))
        .sqrt()
        .clamp(1e-3, side.max(1e-3))
}

/// Mean spacing of a point set: the side of the square each point has to
/// itself at the mean density the k-NN cell size uses (so a zero-area layout
/// counts as a strip one spacing wide); 0 for an empty set. A grid whose
/// cells are no smaller has at most about three cells per point.
pub fn mean_spacing(points: &PointSet) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    (spread(points).1 / points.len() as f64).sqrt()
}

/// The side of a non-empty set's bounding box, and the area its mean
/// density is taken over: the box's, or for a box far thinner than the
/// mean spacing, a strip one spacing wide.
fn spread(points: &PointSet) -> (f64, f64) {
    let bb = points.bounding_box().unwrap();
    let side = bb.width().max(bb.height());
    (side, bb.area().max(side * side / points.len() as f64))
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
    assemble_sharded(IncTopology::Knn { k }, points, &[], tiles_per_shard, None)
}

/// The k-NN shard runs: each shard's lists, one pair per selection (a
/// mutual pair arrives from both endpoints).
fn knn_runs(points: &PointSet, k: usize, tiles_per_shard: usize) -> Vec<Vec<(u32, u32)>> {
    if points.is_empty() || k == 0 {
        return Vec::new();
    }
    knn_shards(points, k, tiles_per_shard)
        .into_par_iter()
        .map(|shard| {
            shard
                .into_iter()
                .flat_map(|(gu, list)| list.into_iter().map(move |v| (gu, v)))
                .collect()
        })
        .collect()
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
