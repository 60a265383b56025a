//! The square tiling of R² underlying both SENS constructions.
//!
//! The paper views R² as "a union of a countably infinite set of square
//! tiles" of side `a` (= 4/3 for UDG-SENS, = 10·0.893 for NN-SENS) and
//! couples each tile to a site of Z² via a bijection `φ` mapping neighbouring
//! tiles to neighbouring lattice sites. [`Tiling`] is that bijection.

use crate::aabb::Aabb;
use crate::point::Point;
use serde::{Deserialize, Serialize};

/// Integer coordinates of a tile = the lattice site `φ(tile)` in Z².
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileIndex {
    pub i: i64,
    pub j: i64,
}

impl TileIndex {
    #[inline]
    pub const fn new(i: i64, j: i64) -> Self {
        TileIndex { i, j }
    }

    /// The four lattice neighbours in the order right, left, top, bottom —
    /// matching the paper's relay directions `E_r, E_l, E_t, E_b`.
    #[inline]
    pub fn neighbors(self) -> [TileIndex; 4] {
        [
            TileIndex::new(self.i + 1, self.j),
            TileIndex::new(self.i - 1, self.j),
            TileIndex::new(self.i, self.j + 1),
            TileIndex::new(self.i, self.j - 1),
        ]
    }

    /// L¹ distance on the lattice — `D(x, y)` in the paper.
    #[inline]
    pub fn dist_l1(self, other: TileIndex) -> u64 {
        self.i.abs_diff(other.i) + self.j.abs_diff(other.j)
    }

    #[inline]
    pub fn is_neighbor(self, other: TileIndex) -> bool {
        self.dist_l1(other) == 1
    }
}

/// The four relay directions of a tile, ordered as in the paper's Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    Right,
    Left,
    Top,
    Bottom,
}

impl Dir {
    pub const ALL: [Dir; 4] = [Dir::Right, Dir::Left, Dir::Top, Dir::Bottom];

    /// Unit step on the lattice.
    #[inline]
    pub fn step(self) -> (i64, i64) {
        match self {
            Dir::Right => (1, 0),
            Dir::Left => (-1, 0),
            Dir::Top => (0, 1),
            Dir::Bottom => (0, -1),
        }
    }

    /// Unit vector in R².
    #[inline]
    pub fn unit_vec(self) -> Point {
        let (dx, dy) = self.step();
        Point::new(dx as f64, dy as f64)
    }

    /// The direction pointing back: `Er(t)` faces `El(t_r)`.
    #[inline]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::Right => Dir::Left,
            Dir::Left => Dir::Right,
            Dir::Top => Dir::Bottom,
            Dir::Bottom => Dir::Top,
        }
    }

    /// Stable small integer id (used for array indexing).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dir::Right => 0,
            Dir::Left => 1,
            Dir::Top => 2,
            Dir::Bottom => 3,
        }
    }

    #[inline]
    pub fn from_index(i: usize) -> Dir {
        Dir::ALL[i]
    }

    /// The lattice neighbour of `t` in this direction.
    #[inline]
    pub fn neighbor_of(self, t: TileIndex) -> TileIndex {
        let (dx, dy) = self.step();
        TileIndex::new(t.i + dx, t.j + dy)
    }
}

/// A square tiling of R² with tiles of side `side`, anchored so that tile
/// (0, 0) spans `[0, side) × [0, side)`.
///
/// Step 1 of the paper's construction algorithm (Fig. 7) — "compute
/// `id_v(x) = location_v(x)/a`" — is [`Tiling::tile_of`]: a node derives its
/// tile purely from its own GPS position, which is what makes the whole
/// construction local (property P4).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tiling {
    side: f64,
}

impl Tiling {
    /// Create a tiling with the given tile side length (must be positive).
    pub fn new(side: f64) -> Self {
        assert!(side > 0.0 && side.is_finite(), "tile side must be positive");
        Tiling { side }
    }

    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The tile containing `p` (half-open tiles, so the map is a partition).
    #[inline]
    pub fn tile_of(&self, p: Point) -> TileIndex {
        TileIndex::new(
            (p.x / self.side).floor() as i64,
            (p.y / self.side).floor() as i64,
        )
    }

    /// Extent of a tile in R².
    #[inline]
    pub fn tile_aabb(&self, t: TileIndex) -> Aabb {
        let x0 = t.i as f64 * self.side;
        let y0 = t.j as f64 * self.side;
        Aabb::from_coords(x0, y0, x0 + self.side, y0 + self.side)
    }

    /// Centre of a tile — the reference point for all region geometry.
    #[inline]
    pub fn tile_center(&self, t: TileIndex) -> Point {
        Point::new(
            (t.i as f64 + 0.5) * self.side,
            (t.j as f64 + 0.5) * self.side,
        )
    }

    /// Position of `p` relative to the centre of its own tile; the region
    /// tests in both constructions work in these tile-local coordinates.
    #[inline]
    pub fn local_coords(&self, p: Point) -> (TileIndex, Point) {
        let t = self.tile_of(p);
        (t, p - self.tile_center(t))
    }

    /// All tiles fully or partially intersecting `b` — the set `T_B(ℓ)` of
    /// Theorem 3.3. Iterates row-major.
    pub fn tiles_overlapping(&self, b: &Aabb) -> Vec<TileIndex> {
        let lo = self.tile_of(b.min);
        let hi = self.tile_of(Point::new(
            // Pull exact right/top edges into the last half-open tile.
            b.max.x - f64::EPSILON * b.max.x.abs().max(1.0),
            b.max.y - f64::EPSILON * b.max.y.abs().max(1.0),
        ));
        let hi = TileIndex::new(hi.i.max(lo.i), hi.j.max(lo.j));
        let mut out = Vec::with_capacity(((hi.i - lo.i + 1) * (hi.j - lo.j + 1)).max(0) as usize);
        for j in lo.j..=hi.j {
            for i in lo.i..=hi.i {
                out.push(TileIndex::new(i, j));
            }
        }
        out
    }

    /// Number of whole tiles per row inside a window of width `w`.
    #[inline]
    pub fn tiles_across(&self, w: f64) -> usize {
        (w / self.side).floor() as usize
    }
}

/// A decomposition of a deployment window into rectangular *shards*, each a
/// block of `tiles_per_shard × tiles_per_shard` tiles of side `tile_side`.
///
/// This is the unit of work of the parallel construction pipeline: every
/// point has exactly one *owner* shard (half-open partition, so points
/// exactly on an interior shard boundary belong to the shard on their
/// right/top), and a shard processes its owned points against the points of
/// its *ghost-padded* extent — the shard block inflated by the topology's
/// halo radius. Edge shards extend to infinity on their outward sides, so
/// the owner map is total even for points outside the nominal window and
/// `ball(p, halo) ⊆ padded(owner(p))` holds unconditionally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardGrid {
    origin: Point,
    shard_side: f64,
    cols: usize,
    rows: usize,
}

impl ShardGrid {
    /// Cover `window` with shards of side `tile_side · tiles_per_shard`.
    /// Saturates to a single whole-window shard when the shard side exceeds
    /// the window (pass `usize::MAX` for an explicit whole-window plan).
    pub fn new(window: &Aabb, tile_side: f64, tiles_per_shard: usize) -> Self {
        assert!(
            tile_side > 0.0 && tile_side.is_finite(),
            "tile side must be positive"
        );
        assert!(tiles_per_shard >= 1, "need at least one tile per shard");
        let shard_side = tile_side * tiles_per_shard as f64;
        let cols = ((window.width() / shard_side).ceil() as usize).clamp(1, u32::MAX as usize);
        let rows = ((window.height() / shard_side).ceil() as usize).clamp(1, u32::MAX as usize);
        ShardGrid {
            origin: window.min,
            shard_side,
            cols,
            rows,
        }
    }

    /// The trivial plan: one shard covering everything.
    pub fn whole(window: &Aabb) -> Self {
        ShardGrid {
            origin: window.min,
            shard_side: (window.width().max(window.height()) * 2.0).max(1.0),
            cols: 1,
            rows: 1,
        }
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.cols * self.rows
    }

    #[inline]
    fn coords(&self, s: usize) -> (usize, usize) {
        (s % self.cols, s / self.cols)
    }

    /// The owner shard of `p` (row-major linear index). Half-open partition
    /// clamped at the window edges, so the map is total.
    #[inline]
    pub fn owner_of(&self, p: Point) -> usize {
        let i = (((p.x - self.origin.x) / self.shard_side).floor() as i64)
            .clamp(0, self.cols as i64 - 1) as usize;
        let j = (((p.y - self.origin.y) / self.shard_side).floor() as i64)
            .clamp(0, self.rows as i64 - 1) as usize;
        j * self.cols + i
    }

    /// Row-major indices of exactly the shards whose ghost-padded extent
    /// ([`Self::padded`] at the same `halo`) contains `p` — the shards
    /// whose gathered working sets include the point, i.e. the shards
    /// churn at `p` can dirty.
    ///
    /// Candidates come from a one-ring-widened index range (immune to
    /// float-rounding differences against `padded`'s own arithmetic) and
    /// are then filtered through the authoritative
    /// `padded(s, halo).contains(p)` predicate — the same closed-box test
    /// the ghost gather applies — so the set is never under- *or*
    /// over-marked.
    pub fn shards_near(&self, p: Point, halo: f64) -> impl Iterator<Item = usize> + '_ {
        assert!(halo >= 0.0, "halo must be non-negative");
        let clamp_i = |v: f64, hi: usize| (v.floor() as i64).clamp(0, hi as i64 - 1) as usize;
        let i0 = clamp_i(
            (p.x - self.origin.x - halo) / self.shard_side - 1.0,
            self.cols,
        );
        let i1 = clamp_i(
            (p.x - self.origin.x + halo) / self.shard_side + 1.0,
            self.cols,
        );
        let j0 = clamp_i(
            (p.y - self.origin.y - halo) / self.shard_side - 1.0,
            self.rows,
        );
        let j1 = clamp_i(
            (p.y - self.origin.y + halo) / self.shard_side + 1.0,
            self.rows,
        );
        (j0..=j1)
            .flat_map(move |j| (i0..=i1).map(move |i| j * self.cols + i))
            .filter(move |&s| self.padded(s, halo).contains(p))
    }

    /// The ghost-padded extent of shard `s`: its core block inflated by
    /// `halo`, with edge shards extended to infinity on their outward sides
    /// (their ownership is already unbounded there, see [`Self::owner_of`]).
    pub fn padded(&self, s: usize, halo: f64) -> Aabb {
        assert!(halo >= 0.0, "halo must be non-negative");
        let (i, j) = self.coords(s);
        let x0 = if i == 0 {
            f64::NEG_INFINITY
        } else {
            self.origin.x + i as f64 * self.shard_side - halo
        };
        let x1 = if i + 1 == self.cols {
            f64::INFINITY
        } else {
            self.origin.x + (i + 1) as f64 * self.shard_side + halo
        };
        let y0 = if j == 0 {
            f64::NEG_INFINITY
        } else {
            self.origin.y + j as f64 * self.shard_side - halo
        };
        let y1 = if j + 1 == self.rows {
            f64::INFINITY
        } else {
            self.origin.y + (j + 1) as f64 * self.shard_side + halo
        };
        Aabb::from_coords(x0, y0, x1, y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_of_is_a_partition() {
        let t = Tiling::new(4.0 / 3.0);
        assert_eq!(t.tile_of(Point::new(0.0, 0.0)), TileIndex::new(0, 0));
        assert_eq!(t.tile_of(Point::new(1.3, 0.1)), TileIndex::new(0, 0));
        // 4/3 exactly starts the next tile (half-open).
        assert_eq!(t.tile_of(Point::new(4.0 / 3.0, 0.0)), TileIndex::new(1, 0));
        assert_eq!(t.tile_of(Point::new(-0.1, -0.1)), TileIndex::new(-1, -1));
    }

    #[test]
    fn tile_aabb_and_center_are_consistent() {
        let t = Tiling::new(2.0);
        let idx = TileIndex::new(3, -2);
        let bb = t.tile_aabb(idx);
        assert_eq!(bb, Aabb::from_coords(6.0, -4.0, 8.0, -2.0));
        assert_eq!(t.tile_center(idx), Point::new(7.0, -3.0));
        assert!(bb.contains(t.tile_center(idx)));
        assert_eq!(t.tile_of(t.tile_center(idx)), idx);
    }

    #[test]
    fn local_coords_are_centered() {
        let t = Tiling::new(2.0);
        let (idx, local) = t.local_coords(Point::new(7.5, -3.25));
        assert_eq!(idx, TileIndex::new(3, -2));
        assert!(local.dist(Point::new(0.5, -0.25)) < 1e-12);
        // Local coordinates always lie within [-side/2, side/2).
        assert!(local.x.abs() <= 1.0 && local.y.abs() <= 1.0);
    }

    #[test]
    fn neighbors_and_directions_agree() {
        let t = TileIndex::new(5, 5);
        let ns = t.neighbors();
        for (d, expected) in Dir::ALL.iter().zip(ns.iter()) {
            assert_eq!(d.neighbor_of(t), *expected);
            assert!(t.is_neighbor(*expected));
            assert_eq!(d.opposite().neighbor_of(*expected), t);
        }
        assert!(!t.is_neighbor(t));
        assert!(!t.is_neighbor(TileIndex::new(6, 6)));
    }

    #[test]
    fn dir_round_trips_through_index() {
        for d in Dir::ALL {
            assert_eq!(Dir::from_index(d.index()), d);
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn l1_distance_matches_definition() {
        let a = TileIndex::new(0, 0);
        let b = TileIndex::new(3, -4);
        assert_eq!(a.dist_l1(b), 7);
        assert_eq!(b.dist_l1(a), 7);
        assert_eq!(a.dist_l1(a), 0);
    }

    #[test]
    fn tiles_overlapping_covers_the_box() {
        let t = Tiling::new(1.0);
        let b = Aabb::from_coords(0.5, 0.5, 2.5, 1.5);
        let tiles = t.tiles_overlapping(&b);
        // Box spans x-tiles {0,1,2} and y-tiles {0,1} → 6 tiles.
        assert_eq!(tiles.len(), 6);
        assert!(tiles.contains(&TileIndex::new(0, 0)));
        assert!(tiles.contains(&TileIndex::new(2, 1)));
    }

    #[test]
    fn tiles_overlapping_exact_edges() {
        let t = Tiling::new(1.0);
        // A box that ends exactly on a tile boundary must not include the
        // next (untouched) tile column.
        let b = Aabb::from_coords(0.0, 0.0, 2.0, 1.0);
        let tiles = t.tiles_overlapping(&b);
        assert!(tiles.contains(&TileIndex::new(0, 0)));
        assert!(tiles.contains(&TileIndex::new(1, 0)));
        assert!(!tiles.contains(&TileIndex::new(2, 0)));
    }

    #[test]
    fn tiles_across_counts_whole_tiles() {
        let t = Tiling::new(4.0 / 3.0);
        assert_eq!(t.tiles_across(4.0), 3);
        assert_eq!(t.tiles_across(3.9), 2);
    }

    #[test]
    fn shard_grid_partitions_the_window() {
        let w = Aabb::square(8.0);
        let g = ShardGrid::new(&w, 1.0, 2); // 4 × 4 shards of side 2
        assert_eq!((g.cols(), g.rows()), (4, 4));
        assert_eq!(g.shard_count(), 16);
        assert_eq!(g.owner_of(Point::new(0.5, 0.5)), 0);
        assert_eq!(g.owner_of(Point::new(7.9, 7.9)), 15);
        // Half-open interior boundaries: x = 2 belongs to the right shard.
        assert_eq!(g.owner_of(Point::new(2.0, 0.5)), 1);
        // The outer window edge (and beyond) clamps to the edge shard.
        assert_eq!(g.owner_of(Point::new(8.0, 8.0)), 15);
        assert_eq!(g.owner_of(Point::new(-3.0, 9.0)), 12);
    }

    #[test]
    fn shard_padding_covers_owned_halo_balls() {
        let w = Aabb::square(8.0);
        let g = ShardGrid::new(&w, 1.0, 2);
        let halo = 0.75;
        for (p, probes) in [
            (Point::new(2.0, 2.0), 4),
            (Point::new(0.0, 0.0), 4),
            (Point::new(8.0, 5.1), 4),
            (Point::new(-1.0, 3.0), 4),
        ] {
            let padded = g.padded(g.owner_of(p), halo);
            for k in 0..probes {
                let theta = std::f64::consts::TAU * k as f64 / probes as f64;
                let q = p + Point::unit(theta) * halo;
                assert!(padded.contains(q), "ball({p:?}, {halo}) escapes {padded:?}");
            }
        }
    }

    #[test]
    fn shards_near_covers_every_padded_extent_containing_the_point() {
        let w = Aabb::square(8.0);
        let g = ShardGrid::new(&w, 1.0, 2);
        let halo = 0.75;
        // Interior, shard-corner, window-edge and out-of-window probes.
        for p in [
            Point::new(3.3, 5.1),
            Point::new(2.0, 2.0),
            Point::new(4.0, 2.75),
            Point::new(0.0, 8.0),
            Point::new(9.5, -1.0),
        ] {
            let near: Vec<usize> = g.shards_near(p, halo).collect();
            let expect: Vec<usize> = (0..g.shard_count())
                .filter(|&s| g.padded(s, halo).contains(p))
                .collect();
            assert_eq!(near, expect, "{p:?}: marking must match padded() exactly");
            assert!(near.contains(&g.owner_of(p)));
        }
    }

    #[test]
    fn whole_window_plan_is_one_unbounded_shard() {
        let w = Aabb::square(5.0);
        for g in [ShardGrid::whole(&w), ShardGrid::new(&w, 1.0, usize::MAX)] {
            assert_eq!(g.shard_count(), 1);
            let padded = g.padded(0, 0.0);
            assert!(padded.contains(Point::new(-1e12, 1e12)));
            assert_eq!(g.owner_of(Point::new(1e9, -1e9)), 0);
        }
    }

    #[test]
    fn interior_padding_is_exactly_core_plus_halo() {
        let w = Aabb::square(9.0);
        let g = ShardGrid::new(&w, 1.0, 3); // 3 × 3 shards of side 3
        let padded = g.padded(4, 0.5); // centre shard
        assert_eq!(padded, Aabb::from_coords(2.5, 2.5, 6.5, 6.5));
    }
}
