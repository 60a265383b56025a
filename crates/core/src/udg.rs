//! The `UDG-SENS(2, λ)` construction (paper §2.1).
//!
//! Tiles of side `a` carry five regions: the representative region `C0`
//! (disk of radius `r_0` at the tile centre) and four relay regions
//! `E_r, E_l, E_t, E_b` facing the neighbours. A tile is *good* when every
//! region holds at least one point; good tiles couple to open lattice sites,
//! and representatives connect to their neighbours' representatives through
//! the relays (Claim 2.1: a 3-hop path of edges each ≤ 1).
//!
//! Region geometry comes in two modes (see DESIGN.md §2 / [`UdgGeometryMode`]):
//! *strict* (corrected; visibility holds for any election) and *paper*
//! (the paper's stated shapes; election is visibility-verified).

use wsn_geom::tile::Dir;
use wsn_geom::{Disk, Point};
use wsn_graph::{Csr, EdgeList};
use wsn_perc::Lattice;
use wsn_pointproc::{PointOrder, PointSet};

use crate::params::{ParamError, UdgGeometryMode, UdgSensParams};
use crate::subgraph::{relay_bit, SensNetwork, ROLE_REP};
use crate::tilegrid::{TileAssignment, TileGrid};

/// Region tests for a UDG-SENS tile, in tile-local coordinates (origin at
/// the tile centre).
#[derive(Clone, Copy, Debug)]
pub struct UdgTileGeometry {
    params: UdgSensParams,
}

impl UdgTileGeometry {
    pub fn new(params: UdgSensParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(UdgTileGeometry { params })
    }

    #[inline]
    pub fn params(&self) -> &UdgSensParams {
        &self.params
    }

    /// The representative region `C0` (local coordinates).
    #[inline]
    pub fn c0(&self) -> Disk {
        Disk::new(Point::ORIGIN, self.params.r0)
    }

    #[inline]
    pub fn c0_contains(&self, p: Point) -> bool {
        self.c0().contains(p)
    }

    /// Membership in the relay region facing `dir` (local coordinates).
    /// All relay regions exclude `C0` ("from this set we remove all the
    /// points of C0(t)").
    pub fn relay_contains(&self, dir: Dir, p: Point) -> bool {
        if self.c0_contains(p) {
            return false;
        }
        let a = self.params.tile_side;
        match self.params.mode {
            UdgGeometryMode::Strict => {
                let center = dir.unit_vec() * self.params.relay_offset;
                Disk::new(center, self.params.relay_radius).contains(p)
            }
            UdgGeometryMode::Paper => {
                // Inside the tile, within radio range of both this tile's
                // centre and the `dir` neighbour's centre.
                let half = a * 0.5;
                if p.x.abs() > half || p.y.abs() > half {
                    return false;
                }
                let r = self.params.radius;
                let neighbor_center = dir.unit_vec() * a;
                p.norm() <= r && p.dist(neighbor_center) <= r
            }
        }
    }

    /// Bitmask of region memberships: [`ROLE_REP`] for `C0`,
    /// [`relay_bit`]`(d)` for each relay region (regions may overlap).
    pub fn classify(&self, p: Point) -> u16 {
        let mut mask = 0u16;
        if self.c0_contains(p) {
            return ROLE_REP;
        }
        for d in Dir::ALL {
            if self.relay_contains(d, p) {
                mask |= relay_bit(d);
            }
        }
        mask
    }
}

/// Per-tile election result.
#[derive(Clone, Debug, Default)]
struct TileElection {
    rep: Option<u32>,
    relay: [Option<u32>; 4],
}

impl TileElection {
    fn good(&self) -> bool {
        self.rep.is_some() && self.relay.iter().all(Option::is_some)
    }
}

/// Per-region candidate lists of one tile, in the id order of the scan.
///
/// Splitting the election into *collect* (a pure coordinate scan) and
/// *choose* (the id-priority decision) is what makes the Morton-ordered
/// build exact: collect runs over the spatially sorted copy (cache-linear),
/// then [`Self::remap_and_sort`] translates the candidate ids back to
/// original deployment ids and restores ascending order, so choose sees
/// byte-for-byte the lists the deployment-order scan would have produced.
#[derive(Clone, Debug, Default)]
struct TileCandidates {
    c0: Vec<u32>,
    relays: [Vec<u32>; 4],
}

impl TileCandidates {
    fn remap_and_sort(&mut self, to_orig: &[u32]) {
        for list in std::iter::once(&mut self.c0).chain(self.relays.iter_mut()) {
            for id in list.iter_mut() {
                *id = to_orig[*id as usize];
            }
            list.sort_unstable();
        }
    }
}

/// Scan one tile's points and classify them into candidate lists. Ids keep
/// the order of `ids` (ascending, per [`TileAssignment::build`]).
fn collect(
    geom: &UdgTileGeometry,
    points: &PointSet,
    grid: &TileGrid,
    site: wsn_perc::Site,
    ids: &[u32],
) -> TileCandidates {
    let mut cands = TileCandidates::default();
    for &id in ids {
        let local = grid.local(site, points.get(id));
        let mask = geom.classify(local);
        if mask & ROLE_REP != 0 {
            cands.c0.push(id);
        }
        for d in Dir::ALL {
            if mask & relay_bit(d) != 0 {
                cands.relays[d.index()].push(id);
            }
        }
    }
    cands
}

/// The id-priority decision over collected candidates.
///
/// Strict mode: lowest id per region (any choice is valid by geometry).
/// Paper mode: lowest-id representative that can reach (within `radius`)
/// some candidate in every relay region; relays are the lowest-id reachable
/// candidates. The tile is good only if such an election exists. `points`
/// must be the set the candidate ids index into.
fn choose(geom: &UdgTileGeometry, points: &PointSet, cands: &TileCandidates) -> TileElection {
    let TileCandidates { c0, relays } = cands;
    match geom.params.mode {
        UdgGeometryMode::Strict => TileElection {
            rep: c0.first().copied(),
            relay: [
                relays[0].first().copied(),
                relays[1].first().copied(),
                relays[2].first().copied(),
                relays[3].first().copied(),
            ],
        },
        UdgGeometryMode::Paper => {
            let radius = geom.params.radius;
            for &rep in c0 {
                let rp = points.get(rep);
                let mut chosen = [None; 4];
                let mut ok = true;
                for d in Dir::ALL {
                    chosen[d.index()] = relays[d.index()]
                        .iter()
                        .copied()
                        .find(|&cand| points.get(cand).dist(rp) <= radius);
                    if chosen[d.index()].is_none() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    return TileElection {
                        rep: Some(rep),
                        relay: chosen,
                    };
                }
            }
            TileElection::default()
        }
    }
}

/// Elect representative and relays in one tile (collect + choose).
fn elect(
    geom: &UdgTileGeometry,
    points: &PointSet,
    grid: &TileGrid,
    site: wsn_perc::Site,
    ids: &[u32],
) -> TileElection {
    choose(geom, points, &collect(geom, points, grid, site, ids))
}

/// Build `UDG-SENS` over `points` on the given tile grid.
///
/// This is the *centralised* builder used by experiments; the message-level
/// distributed protocol (Fig. 7) lives in `wsn-simnet` and is tested to
/// produce the same network. [`build_udg_sens_ordered`] is the
/// Morton-ordered, tile-parallel variant producing the identical network.
pub fn build_udg_sens(
    points: &PointSet,
    params: UdgSensParams,
    grid: TileGrid,
) -> Result<SensNetwork, ParamError> {
    let geom = UdgTileGeometry::new(params)?;
    let assignment = TileAssignment::build(&grid, points);
    let n_tiles = grid.tile_count();

    let mut elections: Vec<TileElection> = Vec::with_capacity(n_tiles);
    for lin in 0..n_tiles {
        let site = grid.site_of_linear(lin);
        elections.push(elect(&geom, points, &grid, site, assignment.points_in(lin)));
    }

    Ok(assemble_udg_sens(
        points, &params, grid, assignment, &elections,
    ))
}

/// Morton-ordered `UDG-SENS`: elections scan the spatially sorted copy held
/// by `order` — each tile's resident list is a near-contiguous rank range,
/// so the classify pass walks the point SoA sequentially — then candidates
/// are remapped to original deployment ids (and re-sorted) before the
/// id-priority choice. The network is assembled over the original `points`,
/// so the result is byte-identical to [`build_udg_sens`]: same lattice,
/// roles, reps, edges and fingerprints, independent of the layout.
pub fn build_udg_sens_ordered(
    points: &PointSet,
    order: &PointOrder,
    params: UdgSensParams,
    grid: TileGrid,
) -> Result<SensNetwork, ParamError> {
    use rayon::prelude::*;
    let geom = UdgTileGeometry::new(params)?;
    assert_eq!(order.len(), points.len(), "order / point set mismatch");
    let rank_assignment = TileAssignment::build(&grid, order.points());

    let elections: Vec<TileElection> = (0..grid.rows())
        .into_par_iter()
        .flat_map_iter(|j| {
            let row: Vec<TileElection> = (0..grid.cols())
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
                    choose(&geom, points, &cands)
                })
                .collect();
            row
        })
        .collect();

    let assignment = TileAssignment::build(&grid, points);
    Ok(assemble_udg_sens(
        points, &params, grid, assignment, &elections,
    ))
}

/// The serial stitch shared by both builders: couple good tiles to the
/// lattice, realise intra-tile and cross-tile links, assemble the network.
fn assemble_udg_sens(
    points: &PointSet,
    params: &UdgSensParams,
    grid: TileGrid,
    assignment: TileAssignment,
    elections: &[TileElection],
) -> SensNetwork {
    let n_tiles = grid.tile_count();
    let lattice = Lattice::from_fn(grid.cols(), grid.rows(), |i, j| {
        elections[grid.linear((i, j))].good()
    });

    let mut roles = vec![0u16; points.len()];
    let mut reps = vec![u32::MAX; n_tiles];
    let mut el = EdgeList::new(points.len());
    let mut missing = 0usize;

    for lin in 0..n_tiles {
        let e = &elections[lin];
        if !e.good() {
            continue;
        }
        let rep = e.rep.unwrap();
        reps[lin] = rep;
        roles[rep as usize] |= ROLE_REP;
        for d in Dir::ALL {
            let relay = e.relay[d.index()].unwrap();
            roles[relay as usize] |= relay_bit(d);
            debug_assert!(
                points.get(rep).dist(points.get(relay)) <= params.radius + 1e-9,
                "rep-relay link exceeds radio range (strict geometry violated)"
            );
            el.add(rep, relay);
        }
    }

    // Cross-tile relay links: for each good tile, link its Right/Top relay
    // to the opposite relay of the good neighbour (each pair handled once).
    for lin in 0..n_tiles {
        if reps[lin] == u32::MAX {
            continue;
        }
        let site = grid.site_of_linear(lin);
        for d in [Dir::Right, Dir::Top] {
            let nb = d.neighbor_of(grid.tile_of_site(site));
            let Some(nb_site) = grid.site_of_tile(nb) else {
                continue;
            };
            let nb_lin = grid.linear(nb_site);
            if reps[nb_lin] == u32::MAX {
                continue;
            }
            let my_relay = elections[lin].relay[d.index()].unwrap();
            let their_relay = elections[nb_lin].relay[d.opposite().index()].unwrap();
            let dist = points.get(my_relay).dist(points.get(their_relay));
            if dist <= params.radius + 1e-12 {
                if my_relay != their_relay {
                    el.add(my_relay, their_relay);
                }
            } else {
                debug_assert!(
                    params.mode == UdgGeometryMode::Paper,
                    "strict mode must always realise cross links (d = {dist})"
                );
                missing += 1;
            }
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Region;

    fn strict_geom() -> UdgTileGeometry {
        UdgTileGeometry::new(UdgSensParams::strict_default()).unwrap()
    }

    #[test]
    fn strict_classification_of_hand_points() {
        let g = strict_geom();
        assert_eq!(g.classify(Point::new(0.0, 0.0)), ROLE_REP);
        assert_eq!(g.classify(Point::new(0.15, 0.0)), ROLE_REP);
        assert_eq!(g.classify(Point::new(0.4, 0.0)), relay_bit(Dir::Right));
        assert_eq!(g.classify(Point::new(-0.4, 0.0)), relay_bit(Dir::Left));
        assert_eq!(g.classify(Point::new(0.0, 0.4)), relay_bit(Dir::Top));
        assert_eq!(g.classify(Point::new(0.0, -0.4)), relay_bit(Dir::Bottom));
        // Between regions: nothing.
        assert_eq!(g.classify(Point::new(0.3, 0.3)), 0);
        // Corner of the tile: nothing.
        assert_eq!(g.classify(Point::new(0.59, 0.59)), 0);
    }

    #[test]
    fn paper_mode_relay_region_is_nonempty_lens() {
        let g = UdgTileGeometry::new(UdgSensParams::paper()).unwrap();
        // (0.55, 0): outside C0 (r=0.5), inside tile (half = 2/3), within 1
        // of both this centre and the right neighbour centre (4/3, 0).
        assert!(g.relay_contains(Dir::Right, Point::new(0.55, 0.0)));
        // Inside C0 → excluded.
        assert!(!g.relay_contains(Dir::Right, Point::new(0.45, 0.0)));
        // Outside the tile.
        assert!(!g.relay_contains(Dir::Right, Point::new(0.7, 0.0)));
        // Too far from the neighbour centre: x = 0.55 but high y.
        assert!(!g.relay_contains(Dir::Right, Point::new(0.55, 0.65)));
    }

    #[test]
    fn paper_literal_definition_is_empty_but_lens_reading_is_not() {
        // Documentation of defect D1: the erosion of the unit disk by C0
        // (radius 1/2) is exactly C0, so "within 1 of every point of C0"
        // minus C0 is empty...
        let c0 = Disk::new(Point::ORIGIN, 0.5);
        let eroded = c0.erosion_of_reach(1.0).unwrap();
        assert_eq!(eroded, c0);
        // ...while the lens reading has positive area.
        let g = UdgTileGeometry::new(UdgSensParams::paper()).unwrap();
        let region = wsn_geom::region::PredicateRegion::new(
            wsn_geom::Aabb::from_coords(0.0, -0.67, 0.67, 0.67),
            |p| g.relay_contains(Dir::Right, p),
        );
        assert!(region.area_estimate(200) > 0.05);
    }

    /// A deterministic deployment that makes a horizontal strip of good
    /// tiles: one point at each region centre of each tile.
    fn seeded_strip(params: UdgSensParams, tiles: usize) -> (PointSet, TileGrid) {
        let grid = TileGrid::new(params.tile_side, tiles, 1);
        let mut pts = PointSet::new();
        let offsets = [
            Point::new(0.0, 0.0),
            Point::new(params.relay_offset, 0.0),
            Point::new(-params.relay_offset, 0.0),
            Point::new(0.0, params.relay_offset),
            Point::new(0.0, -params.relay_offset),
        ];
        for lin in 0..tiles {
            let c = grid.center((lin, 0));
            for o in offsets {
                pts.push(c + o);
            }
        }
        (pts, grid)
    }

    #[test]
    fn strip_deployment_builds_connected_chain() {
        let params = UdgSensParams::strict_default();
        let (pts, grid) = seeded_strip(params, 4);
        let net = build_udg_sens(&pts, params, grid).unwrap();
        assert_eq!(net.lattice.open_count(), 4, "all tiles good");
        assert_eq!(net.missing_links, 0);
        // All 20 points are elected (5 per tile) and in one component.
        assert_eq!(net.elected_count(), 20);
        assert_eq!(net.core_mask.iter().filter(|&&b| b).count(), 20);
        // Claim 2.1: reps of adjacent tiles joined by a 3-hop path.
        let path = net.adjacent_rep_path((0, 0), (1, 0)).unwrap();
        assert_eq!(path.len(), 4, "rep, relay, relay, rep");
        assert!(net.validate_node_path(&path));
        // Sparsity: max degree 4.
        assert!(net.degree_stats().max <= 4);
    }

    #[test]
    fn missing_region_makes_tile_bad() {
        let params = UdgSensParams::strict_default();
        let (mut pts, grid) = seeded_strip(params, 3);
        // Remove the right relay of the middle tile (index 5·1 + 1).
        let without: PointSet = pts
            .iter_enumerated()
            .filter(|&(i, _)| i != 6)
            .map(|(_, p)| p)
            .collect();
        pts = without;
        let net = build_udg_sens(&pts, params, grid).unwrap();
        assert_eq!(net.lattice.open_count(), 2);
        assert!(!net.lattice.is_open((1, 0)));
        // The chain is broken: tile 0 and tile 2 reps are in different
        // components.
        let r0 = net.rep_of((0, 0)).unwrap();
        let r2 = net.rep_of((2, 0)).unwrap();
        let comps = wsn_graph::components::connected_components(&net.graph);
        assert!(!comps.same(r0, r2));
    }

    #[test]
    fn degree_bound_holds_on_random_deployment() {
        use wsn_pointproc::{rng_from_seed, sample_poisson_window};
        let params = UdgSensParams::strict_default();
        let grid = TileGrid::fit(24.0, params.tile_side);
        let window = grid.covered_area();
        let pts = sample_poisson_window(&mut rng_from_seed(42), 30.0, &window);
        let net = build_udg_sens(&pts, params, grid).unwrap();
        assert_eq!(net.missing_links, 0, "strict mode never misses links");
        let stats = net.degree_stats();
        assert!(stats.max <= 4, "P1 violated: max degree {}", stats.max);
        assert!(
            net.lattice.open_fraction() > 0.5,
            "λ=30 should be supercritical"
        );
        // Representatives have degree exactly 4 when surrounded by good
        // neighbours; at least assert every member has degree ≥ 1.
        for u in net.members() {
            assert!(net.graph.degree(u) >= 1);
        }
    }

    #[test]
    fn rep_connectivity_matches_lattice_clusters_strict() {
        use wsn_perc::cluster::label_clusters;
        use wsn_pointproc::{rng_from_seed, sample_poisson_window};
        let params = UdgSensParams::strict_default();
        let grid = TileGrid::fit(18.0, params.tile_side);
        let window = grid.covered_area();
        let pts = sample_poisson_window(&mut rng_from_seed(7), 20.0, &window);
        let net = build_udg_sens(&pts, params, grid).unwrap();
        let clusters = label_clusters(&net.lattice);
        let comps = wsn_graph::components::connected_components(&net.graph);
        for a in net.lattice.sites() {
            for b in net.lattice.sites() {
                let (ra, rb) = (net.rep_of(a), net.rep_of(b));
                if let (Some(ra), Some(rb)) = (ra, rb) {
                    assert_eq!(
                        clusters.same_cluster(&net.lattice, a, b),
                        comps.same(ra, rb),
                        "coupling mismatch between {a:?} and {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ordered_builder_is_identical_to_serial() {
        use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointOrder};
        for params in [UdgSensParams::strict_default(), UdgSensParams::paper()] {
            let grid = TileGrid::fit(14.0, params.tile_side);
            let pts = sample_poisson_window(&mut rng_from_seed(13), 25.0, &grid.covered_area());
            let serial = build_udg_sens(&pts, params, grid.clone()).unwrap();
            let ordered =
                build_udg_sens_ordered(&pts, &PointOrder::morton(&pts), params, grid).unwrap();
            assert_eq!(ordered.lattice, serial.lattice);
            assert_eq!(ordered.reps, serial.reps);
            assert_eq!(ordered.roles, serial.roles);
            assert_eq!(ordered.graph, serial.graph);
            assert_eq!(ordered.missing_links, serial.missing_links);
        }
    }

    #[test]
    fn routing_on_built_network() {
        let params = UdgSensParams::strict_default();
        let (pts, grid) = seeded_strip(params, 5);
        let net = build_udg_sens(&pts, params, grid).unwrap();
        let (outcome, path) = net.route((0, 0), (4, 0));
        assert!(outcome.delivered);
        let path = path.expect("strict mode expands the full node path");
        assert!(net.validate_node_path(&path));
        // 4 lattice hops × 3 node hops each.
        assert_eq!(path.len(), 1 + 4 * 3);
    }
}
