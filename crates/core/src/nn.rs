//! The `NN-SENS(2, k)` construction (paper §2.2).
//!
//! Tiles of side `10a` carry nine regions: five disks of radius `a` — `C0`
//! at the centre and `Cl, Cr, Ct, Cb` at distance `4a` along the axes — and
//! four loci `El, Er, Et, Eb`. The paper defines `Er` as the set of points
//! contained in **every** largest circle that is centred at a point of
//! `C0 ∪ Cr` and stays inside the two tiles `t ∪ t_r`.
//!
//! A tile is *good* when it holds at most `k/2` points and all nine regions
//! are occupied. Claim 2.3 then gives a 5-edge path between the
//! representatives of adjacent good tiles:
//! `rep(t) → x_r(E_r) → y_r(C_r) → y_l'(C_l(t_r)) → x_l'(E_l(t_r)) → rep(t_r)`,
//! every edge of which provably exists in `NN(2, k)` — the builder verifies
//! this against the actual base graph and counts violations (expected 0).
//!
//! ## Region membership is certified, not approximate
//!
//! Membership in `E_r` requires `d(x, p) ≤ clearance(p)` for all `p` in two
//! disks, where `clearance(p)` is the distance from `p` to the boundary of
//! the `t ∪ t_r` rectangle. Both `clearance` and `−d(x, ·)` are concave in
//! `p`, so the minimum over each disk is attained on its boundary circle;
//! we precompute `M` boundary constraints per disk and accept only when all
//! clear the Lipschitz gap `2a·π/M`. Accepted points therefore *provably*
//! satisfy the defining inequality (the region is shrunk by an O(a/M)
//! sliver, never grown). `E_r` is an intersection of disks, hence convex.

use wsn_geom::tile::Dir;
use wsn_geom::{Disk, Point};
use wsn_graph::{Csr, EdgeList};
use wsn_perc::Lattice;
use wsn_pointproc::{PointOrder, PointSet};

use crate::params::{NnSensParams, ParamError};
use crate::subgraph::{relay_bit, SensNetwork, ROLE_REP};
use crate::tilegrid::{TileAssignment, TileGrid};

/// Number of boundary samples per disk in the certified membership test.
const E_REGION_SAMPLES: usize = 192;

/// Role bit for the outer relay (`C_d` disk) in direction `d`. The inner
/// relays (`E_d`) use [`relay_bit`]; outer bits live in the high nibble.
#[inline]
pub fn outer_relay_bit(d: Dir) -> u16 {
    0x20 << d.index()
}

/// Region tests for an NN-SENS tile, in tile-local coordinates. The
/// canonical (rightward) `E`-region constraint set is precomputed at
/// construction so that classifying a point costs only distance
/// comparisons.
#[derive(Clone, Debug)]
pub struct NnTileGeometry {
    params: NnSensParams,
    /// Canonical-frame constraints `(p_i, clearance(p_i))`: membership
    /// requires `d(x, p_i) ≤ clearance_i − margin` for all `i`.
    constraints: Vec<(Point, f64)>,
    margin: f64,
    /// Cheap necessary conditions checked first.
    witnesses: [(Point, f64); 4],
}

impl NnTileGeometry {
    pub fn new(params: NnSensParams) -> Result<Self, ParamError> {
        params.validate()?;
        let a = params.a;
        let mut constraints = Vec::with_capacity(2 * E_REGION_SAMPLES);
        for center in [Point::ORIGIN, Point::new(4.0 * a, 0.0)] {
            for s in 0..E_REGION_SAMPLES {
                let theta = std::f64::consts::TAU * s as f64 / E_REGION_SAMPLES as f64;
                let p = center + Point::unit(theta) * a;
                constraints.push((p, Self::clearance(a, p)));
            }
        }
        let witness = |p: Point| (p, Self::clearance(a, p));
        Ok(NnTileGeometry {
            params,
            constraints,
            margin: 2.0 * a * std::f64::consts::PI / E_REGION_SAMPLES as f64,
            witnesses: [
                witness(Point::new(0.0, a)),
                witness(Point::new(0.0, -a)),
                witness(Point::new(4.0 * a, a)),
                witness(Point::new(4.0 * a, -a)),
            ],
        })
    }

    #[inline]
    pub fn params(&self) -> &NnSensParams {
        &self.params
    }

    /// `C0` in local coordinates.
    #[inline]
    pub fn c0(&self) -> Disk {
        Disk::new(Point::ORIGIN, self.params.a)
    }

    /// The outer relay disk `C_d`.
    #[inline]
    pub fn c_disk(&self, d: Dir) -> Disk {
        Disk::new(d.unit_vec() * (4.0 * self.params.a), self.params.a)
    }

    /// Map a local point into the canonical frame where `d` becomes +x.
    /// All four maps are isometries fixing the tile, so the canonical `E_r`
    /// test serves every direction.
    #[inline]
    fn to_canonical(d: Dir, p: Point) -> Point {
        match d {
            Dir::Right => p,
            Dir::Left => Point::new(-p.x, p.y),
            Dir::Top => Point::new(p.y, p.x),
            Dir::Bottom => Point::new(-p.y, p.x),
        }
    }

    /// Clearance of `q` inside the canonical two-tile rectangle
    /// `[−5a, 15a] × [−5a, 5a]` (radius of the largest inscribed circle
    /// centred at `q`).
    #[inline]
    fn clearance(a: f64, q: Point) -> f64 {
        (q.x + 5.0 * a).min(15.0 * a - q.x).min(5.0 * a - q.y.abs())
    }

    /// Certified membership in the canonical `E_r` region.
    pub fn canonical_e_contains(&self, x: Point) -> bool {
        // Necessary conditions (no margin needed: these are true boundary
        // points, so failing them certifies exclusion).
        for &(w, c) in &self.witnesses {
            if x.dist(w) > c {
                return false;
            }
        }
        let m2 = self.margin;
        self.constraints.iter().all(|&(p, c)| x.dist(p) <= c - m2)
    }

    /// Membership in the inner relay region `E_d` (local coordinates).
    #[inline]
    pub fn e_region_contains(&self, d: Dir, p: Point) -> bool {
        self.canonical_e_contains(Self::to_canonical(d, p))
    }

    /// Bitmask of region memberships: [`ROLE_REP`] for `C0`, [`relay_bit`]
    /// for `E_d`, [`outer_relay_bit`] for `C_d`.
    pub fn classify(&self, p: Point) -> u16 {
        let mut mask = 0u16;
        if self.c0().contains(p) {
            mask |= ROLE_REP;
        }
        for d in Dir::ALL {
            if self.c_disk(d).contains(p) {
                mask |= outer_relay_bit(d);
            } else if self.e_region_contains(d, p) {
                mask |= relay_bit(d);
            }
        }
        mask
    }
}

/// Per-tile election: representative plus inner (`E_d`) and outer (`C_d`)
/// relays for each direction.
#[derive(Clone, Debug, Default)]
pub(crate) struct NnElection {
    pub rep: Option<u32>,
    pub inner: [Option<u32>; 4],
    pub outer: [Option<u32>; 4],
    pub count_ok: bool,
}

impl NnElection {
    pub fn good(&self) -> bool {
        self.count_ok
            && self.rep.is_some()
            && self.inner.iter().all(Option::is_some)
            && self.outer.iter().all(Option::is_some)
    }
}

/// Per-region candidate lists of one tile, in the id order of the scan.
/// Collect/choose split mirrors `udg.rs`: collect is a pure coordinate scan
/// (cache-linear over a Morton-ordered copy), [`Self::remap_and_sort`]
/// restores original-id ascending order, and choose takes the head of each
/// list — exactly the first-match the deployment-order scan would elect.
#[derive(Clone, Debug, Default)]
struct NnCandidates {
    count_ok: bool,
    c0: Vec<u32>,
    inner: [Vec<u32>; 4],
    outer: [Vec<u32>; 4],
}

impl NnCandidates {
    fn remap_and_sort(&mut self, to_orig: &[u32]) {
        for list in std::iter::once(&mut self.c0)
            .chain(self.inner.iter_mut())
            .chain(self.outer.iter_mut())
        {
            for id in list.iter_mut() {
                *id = to_orig[*id as usize];
            }
            list.sort_unstable();
        }
    }
}

/// Scan one tile's points and classify them into candidate lists. Ids keep
/// the order of `ids` (ascending, per [`TileAssignment::build`]). Overfull
/// tiles short-circuit: the tile is bad regardless of its regions.
fn collect(
    geom: &NnTileGeometry,
    points: &PointSet,
    grid: &TileGrid,
    site: wsn_perc::Site,
    ids: &[u32],
) -> NnCandidates {
    let mut cands = NnCandidates {
        count_ok: ids.len() <= geom.params.max_points_per_tile(),
        ..Default::default()
    };
    if !cands.count_ok {
        return cands;
    }
    for &id in ids {
        let mask = geom.classify(grid.local(site, points.get(id)));
        if mask == 0 {
            continue;
        }
        if mask & ROLE_REP != 0 {
            cands.c0.push(id);
        }
        for d in Dir::ALL {
            if mask & relay_bit(d) != 0 {
                cands.inner[d.index()].push(id);
            }
            if mask & outer_relay_bit(d) != 0 {
                cands.outer[d.index()].push(id);
            }
        }
    }
    cands
}

/// The id-priority decision: lowest id per region.
fn choose(cands: &NnCandidates) -> NnElection {
    let first = |l: &Vec<u32>| l.first().copied();
    NnElection {
        count_ok: cands.count_ok,
        rep: first(&cands.c0),
        inner: [
            first(&cands.inner[0]),
            first(&cands.inner[1]),
            first(&cands.inner[2]),
            first(&cands.inner[3]),
        ],
        outer: [
            first(&cands.outer[0]),
            first(&cands.outer[1]),
            first(&cands.outer[2]),
            first(&cands.outer[3]),
        ],
    }
}

fn elect(
    geom: &NnTileGeometry,
    points: &PointSet,
    grid: &TileGrid,
    site: wsn_perc::Site,
    ids: &[u32],
) -> NnElection {
    choose(&collect(geom, points, grid, site, ids))
}

/// Build `NN-SENS` over `points` given the base `NN(2, k)` graph (from
/// [`wsn_rgg::build_knn`] with the same `k`).
///
/// Every link required by Claim 2.3 is checked against `base`; absences are
/// counted in [`SensNetwork::missing_links`] — the theory (and our tests)
/// say this is always 0.
pub fn build_nn_sens(
    points: &PointSet,
    base: &Csr,
    params: NnSensParams,
    grid: TileGrid,
) -> Result<SensNetwork, ParamError> {
    let geom = NnTileGeometry::new(params)?;
    assert_eq!(base.n(), points.len(), "base graph / point set mismatch");
    let assignment = TileAssignment::build(&grid, points);
    let n_tiles = grid.tile_count();

    let mut elections: Vec<NnElection> = Vec::with_capacity(n_tiles);
    for lin in 0..n_tiles {
        let site = grid.site_of_linear(lin);
        elections.push(elect(&geom, points, &grid, site, assignment.points_in(lin)));
    }

    Ok(assemble_nn_sens(points, base, grid, assignment, &elections))
}

/// Morton-ordered `NN-SENS`: elections scan the spatially sorted copy held
/// by `order` (cache-linear classify passes), candidates are remapped to
/// original deployment ids before the lowest-id choice, and the network —
/// including every Claim 2.3 check against `base` — is assembled over the
/// original `points`. Byte-identical to [`build_nn_sens`]. `base` is in
/// original-id space, exactly as for the other builders.
pub fn build_nn_sens_ordered(
    points: &PointSet,
    order: &PointOrder,
    base: &Csr,
    params: NnSensParams,
    grid: TileGrid,
) -> Result<SensNetwork, ParamError> {
    use rayon::prelude::*;
    let geom = NnTileGeometry::new(params)?;
    assert_eq!(base.n(), points.len(), "base graph / point set mismatch");
    assert_eq!(order.len(), points.len(), "order / point set mismatch");
    let rank_assignment = TileAssignment::build(&grid, order.points());

    let elections: Vec<NnElection> = (0..grid.rows())
        .into_par_iter()
        .flat_map_iter(|j| {
            let row: Vec<NnElection> = (0..grid.cols())
                .map(|i| {
                    let lin = grid.linear((i, j));
                    let mut cands = collect(
                        &geom,
                        order.points(),
                        &grid,
                        (i, j),
                        rank_assignment.points_in(lin),
                    );
                    cands.remap_and_sort(order.to_orig());
                    choose(&cands)
                })
                .collect();
            row
        })
        .collect();

    let assignment = TileAssignment::build(&grid, points);
    Ok(assemble_nn_sens(points, base, grid, assignment, &elections))
}

/// The serial stitch shared by both builders: lattice coupling, Claim 2.3
/// link realisation (checked against the base graph), network assembly.
fn assemble_nn_sens(
    points: &PointSet,
    base: &Csr,
    grid: TileGrid,
    assignment: TileAssignment,
    elections: &[NnElection],
) -> SensNetwork {
    let n_tiles = grid.tile_count();
    let lattice = Lattice::from_fn(grid.cols(), grid.rows(), |i, j| {
        elections[grid.linear((i, j))].good()
    });

    let mut roles = vec![0u16; points.len()];
    let mut reps = vec![u32::MAX; n_tiles];
    let mut el = EdgeList::new(points.len());
    let mut missing = 0usize;

    let add_checked = |el: &mut EdgeList, u: u32, v: u32, missing: &mut usize| {
        if u == v {
            return;
        }
        if base.has_edge(u, v) {
            el.add(u, v);
        } else {
            *missing += 1;
        }
    };

    for lin in 0..n_tiles {
        let e = &elections[lin];
        if !e.good() {
            continue;
        }
        reps[lin] = e.rep.unwrap();
        roles[e.rep.unwrap() as usize] |= ROLE_REP;
        let site = grid.site_of_linear(lin);
        let tile = grid.tile_of_site(site);
        for d in Dir::ALL {
            // Links toward `d` are required (and guaranteed) only when the
            // `d`-neighbour exists and is good.
            let Some(nb_site) = grid.site_of_tile(d.neighbor_of(tile)) else {
                continue;
            };
            let nb = &elections[grid.linear(nb_site)];
            if !nb.good() {
                continue;
            }
            let rep = e.rep.unwrap();
            let x = e.inner[d.index()].unwrap();
            let y = e.outer[d.index()].unwrap();
            roles[x as usize] |= relay_bit(d);
            roles[y as usize] |= outer_relay_bit(d);
            add_checked(&mut el, rep, x, &mut missing);
            add_checked(&mut el, x, y, &mut missing);
            // Cross edge handled once per pair (Right/Top owner).
            if matches!(d, Dir::Right | Dir::Top) {
                let y_theirs = nb.outer[d.opposite().index()].unwrap();
                add_checked(&mut el, y, y_theirs, &mut missing);
            }
        }
    }

    debug_assert_eq!(missing, 0, "Claim 2.3 edge missing from NN base graph");

    let graph = Csr::from_edge_list(el);
    SensNetwork::assemble(
        grid,
        lattice,
        graph,
        roles,
        assignment.tile_of_point,
        reps,
        missing,
    )
}

/// One tile-goodness sample at unit density (used by the threshold
/// experiments): whether the nine regions were occupied, and the point
/// count. Goodness for a given `k` is `regions_ok && count ≤ k/2`.
#[derive(Clone, Copy, Debug)]
pub struct NnTileSample {
    pub regions_ok: bool,
    pub count: usize,
}

/// Classify a fresh Poisson(λ = 1) tile of side `10a`. `geom` must be built
/// with the matching `a` (its `k` is irrelevant here).
pub fn sample_nn_tile<R: rand::Rng>(geom: &NnTileGeometry, rng: &mut R) -> NnTileSample {
    let a = geom.params().a;
    let side = 10.0 * a;
    let tile = wsn_geom::Aabb::centered_square(Point::ORIGIN, side);
    let pts = wsn_pointproc::sample_poisson_window(rng, 1.0, &tile);
    let mut have = 0u16; // bit 0: C0; 1..=4: C_d; 5..=8: E_d
    let all: u16 = 0x1FF;
    for p in pts.iter() {
        if geom.c0().contains(p) {
            have |= 1;
        }
        for d in Dir::ALL {
            if geom.c_disk(d).contains(p) {
                have |= 2 << d.index();
            } else if have & (0x20 << d.index()) == 0 && geom.e_region_contains(d, p) {
                have |= 0x20 << d.index();
            }
        }
        if have == all {
            break;
        }
    }
    NnTileSample {
        regions_ok: have == all,
        count: pts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_rgg::build_knn;

    fn geom(a: f64) -> NnTileGeometry {
        NnTileGeometry::new(NnSensParams { a, k: 100 }).unwrap()
    }

    #[test]
    fn canonical_e_region_contains_expected_points() {
        let g = geom(1.0);
        // Midway between C0 and Cr.
        assert!(g.canonical_e_contains(Point::new(2.0, 0.0)));
        // The tile centre is excluded (witness p = (4a, a) has clearance 4a
        // but distance √17·a ≈ 4.12a).
        assert!(!g.canonical_e_contains(Point::ORIGIN));
        // Far corner of the tile is excluded.
        assert!(!g.canonical_e_contains(Point::new(4.9, 4.9)));
        // The centre of Cr is excluded (too far from the far side of C0).
        assert!(!g.canonical_e_contains(Point::new(4.0, 0.0)));
    }

    #[test]
    fn accepted_points_provably_satisfy_the_inequality() {
        // Dense re-check of the defining inequality at ~5× the sampling used
        // by the certifier, for a grid of accepted points.
        let a = 0.893;
        let g = geom(a);
        let mut accepted = 0;
        for i in 0..40 {
            for j in 0..40 {
                let x = Point::new(
                    (i as f64 / 39.0) * 4.0 * a,
                    (j as f64 / 39.0 - 0.5) * 2.0 * a,
                );
                if !g.canonical_e_contains(x) {
                    continue;
                }
                accepted += 1;
                for center in [Point::ORIGIN, Point::new(4.0 * a, 0.0)] {
                    for s in 0..1024 {
                        let theta = std::f64::consts::TAU * s as f64 / 1024.0;
                        let p = center + Point::unit(theta) * a;
                        assert!(
                            NnTileGeometry::clearance(a, p) - x.dist(p) >= 0.0,
                            "accepted point {x:?} violates inequality at θ = {theta}"
                        );
                    }
                }
            }
        }
        assert!(accepted > 10, "the region should not be (near-)empty");
    }

    #[test]
    fn e_region_has_positive_area_at_paper_scale() {
        let g = geom(0.893);
        let a = 0.893;
        let mut hits = 0;
        let n = 60;
        for i in 0..n {
            for j in 0..n {
                let p = Point::new(
                    (i as f64 / (n - 1) as f64) * 4.0 * a,
                    (j as f64 / (n - 1) as f64 - 0.5) * 3.0 * a,
                );
                if g.e_region_contains(Dir::Right, p) {
                    hits += 1;
                }
            }
        }
        let cell = (4.0 * a / (n - 1) as f64) * (3.0 * a / (n - 1) as f64);
        let area = hits as f64 * cell;
        assert!(area > 0.3 * a * a, "E-region area ≈ {area}");
    }

    #[test]
    fn e_region_is_convex_on_samples() {
        // E is an intersection of disks, hence convex: midpoints of
        // accepted pairs must be accepted.
        let g = geom(1.0);
        let mut members = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                let p = Point::new(i as f64 / 29.0 * 4.0, (j as f64 / 29.0 - 0.5) * 2.0);
                if g.canonical_e_contains(p) {
                    members.push(p);
                }
            }
        }
        assert!(members.len() > 5);
        for (idx, &p) in members.iter().enumerate() {
            let q = members[(idx * 7 + 3) % members.len()];
            assert!(
                g.canonical_e_contains(p.midpoint(q)),
                "midpoint of {p:?}, {q:?} rejected"
            );
        }
    }

    #[test]
    fn directional_maps_are_consistent() {
        let g = geom(1.0);
        // The point (0, 2a) should be in E_top exactly as (2a, 0) is in E_r.
        assert!(g.e_region_contains(Dir::Top, Point::new(0.0, 2.0)));
        assert!(g.e_region_contains(Dir::Bottom, Point::new(0.0, -2.0)));
        assert!(g.e_region_contains(Dir::Left, Point::new(-2.0, 0.0)));
        assert!(!g.e_region_contains(Dir::Left, Point::new(2.0, 0.0)));
        // C disks classify as outer relays.
        assert_eq!(
            g.classify(Point::new(4.0, 0.0)) & outer_relay_bit(Dir::Right),
            outer_relay_bit(Dir::Right)
        );
        assert_eq!(g.classify(Point::ORIGIN) & ROLE_REP, ROLE_REP);
    }

    /// Deterministic deployment: 9 points at region reference positions per
    /// tile, on a `tiles × 1` strip with a = 1 (tile side 10).
    fn seeded_strip(tiles: usize, k: usize) -> (PointSet, TileGrid, NnSensParams) {
        let params = NnSensParams { a: 1.0, k };
        let grid = TileGrid::new(params.tile_side(), tiles, 1);
        let mut pts = PointSet::new();
        let offsets = [
            Point::new(0.0, 0.0),  // C0
            Point::new(4.0, 0.0),  // Cr
            Point::new(-4.0, 0.0), // Cl
            Point::new(0.0, 4.0),  // Ct
            Point::new(0.0, -4.0), // Cb
            Point::new(2.0, 0.0),  // Er
            Point::new(-2.0, 0.0), // El
            Point::new(0.0, 2.0),  // Et
            Point::new(0.0, -2.0), // Eb
        ];
        for lin in 0..tiles {
            let c = grid.center((lin, 0));
            for o in offsets {
                pts.push(c + o);
            }
        }
        (pts, grid, params)
    }

    #[test]
    fn strip_builds_the_claim_23_chain() {
        let (pts, grid, params) = seeded_strip(3, 40);
        let base = build_knn(&pts, params.k);
        let net = build_nn_sens(&pts, &base, params, grid).unwrap();
        assert_eq!(net.lattice.open_count(), 3);
        assert_eq!(net.missing_links, 0);
        // Claim 2.3: 4 relay points between adjacent reps → 6-node path.
        let path = net.adjacent_rep_path((0, 0), (1, 0)).unwrap();
        assert_eq!(path.len(), 6, "rep, E, C, C', E', rep'");
        assert!(net.validate_node_path(&path));
        assert!(net.degree_stats().max <= 4, "P1 for NN-SENS");
    }

    #[test]
    fn overfull_tile_is_bad() {
        let (mut pts, grid, params) = seeded_strip(2, 20); // max 10 points/tile
                                                           // Tile 0 already has 9 points; add 2 more to exceed k/2 = 10.
        let c = grid.center((0, 0));
        pts.push(c + Point::new(0.3, 0.3));
        pts.push(c + Point::new(-0.3, 0.3));
        let base = build_knn(&pts, params.k);
        let net = build_nn_sens(&pts, &base, params, grid).unwrap();
        assert!(
            !net.lattice.is_open((0, 0)),
            "count > k/2 must mark the tile bad"
        );
        assert!(net.lattice.is_open((1, 0)));
    }

    #[test]
    fn random_deployment_has_no_missing_links() {
        use wsn_pointproc::{rng_from_seed, sample_poisson_window};
        // a = 1.2, unit density: tile area 144, so k must comfortably exceed
        // 288 for the count condition. Small grid keeps the test fast.
        let params = NnSensParams { a: 1.2, k: 400 };
        let grid = TileGrid::new(params.tile_side(), 3, 3);
        let window = grid.covered_area();
        let pts = sample_poisson_window(&mut rng_from_seed(11), 1.0, &window);
        let base = build_knn(&pts, params.k);
        let net = build_nn_sens(&pts, &base, params, grid).unwrap();
        assert_eq!(net.missing_links, 0, "Claim 2.3 violated");
        assert!(
            net.lattice.open_count() >= 4,
            "expected mostly good tiles, got {}",
            net.lattice.open_count()
        );
        assert!(net.degree_stats().max <= 4);
        // Spot-check adjacent good pairs expand to valid node paths.
        let mut checked = 0;
        for s in net.lattice.sites() {
            if !net.lattice.is_open(s) {
                continue;
            }
            let right = (s.0 + 1, s.1);
            if net.lattice.in_bounds(right) && net.lattice.is_open(right) {
                let p = net
                    .adjacent_rep_path(s, right)
                    .expect("good neighbours must be linked");
                assert!(net.validate_node_path(&p));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn ordered_builder_is_identical_to_serial() {
        use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointOrder};
        let params = NnSensParams { a: 1.2, k: 400 };
        let grid = TileGrid::new(params.tile_side(), 3, 2);
        let pts = sample_poisson_window(&mut rng_from_seed(29), 1.0, &grid.covered_area());
        let base = build_knn(&pts, params.k);
        let serial = build_nn_sens(&pts, &base, params, grid.clone()).unwrap();
        let ordered =
            build_nn_sens_ordered(&pts, &PointOrder::morton(&pts), &base, params, grid).unwrap();
        assert_eq!(ordered.lattice, serial.lattice);
        assert_eq!(ordered.reps, serial.reps);
        assert_eq!(ordered.roles, serial.roles);
        assert_eq!(ordered.graph, serial.graph);
        assert_eq!(ordered.missing_links, serial.missing_links);
    }

    #[test]
    fn tile_sampler_reports_plausible_statistics() {
        use wsn_pointproc::rng_from_seed;
        let g = geom(0.893);
        let mut rng = rng_from_seed(5);
        let mut counts = Vec::new();
        let mut region_hits = 0;
        for _ in 0..60 {
            let s = sample_nn_tile(&g, &mut rng);
            counts.push(s.count);
            region_hits += s.regions_ok as usize;
        }
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        // E[N] = (10·0.893)² ≈ 79.7.
        assert!((mean - 79.7).abs() < 10.0, "mean = {mean}");
        // Regions occupied sometimes but not always at this scale.
        assert!(
            region_hits > 0,
            "C/E regions should be occupied occasionally"
        );
    }
}
