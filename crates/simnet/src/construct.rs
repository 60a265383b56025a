//! The Fig. 7 construction protocol, message by message.
//!
//! Four steps, exactly as the paper states them:
//!
//! 1. **Locate** — each node derives its tile id and region from its own
//!    GPS position (no communication).
//! 2. **Elect** — leader election inside every occupied region
//!    ([`crate::election`]; one round, clique-checked).
//! 3. **Announce** — each elected leader broadcasts `(tile, region)` so
//!    that representatives discover their relays and relays discover their
//!    cross-tile partners (one round).
//! 4. **Connect** — `connect(u, v)` handshakes (request + ack, two rounds)
//!    for every rep–relay pair and every opposed relay pair of adjacent
//!    tiles.
//!
//! The resulting [`SensNetwork`] is *identical* to the centralised
//! [`wsn_core::udg::build_udg_sens`] output on the same deployment (both
//! elect minimum ids) — the integration tests assert graph equality.
//!
//! Only strict-mode geometry is supported: it guarantees that region
//! candidates form radio cliques and that every required link is within
//! radio range, which is exactly what makes the protocol correct with
//! one-hop communication (property P4).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use wsn_core::params::{UdgGeometryMode, UdgSensParams};
use wsn_core::subgraph::{relay_bit, SensNetwork, ROLE_REP};
use wsn_core::tilegrid::{TileAssignment, TileGrid};
use wsn_core::udg::UdgTileGeometry;
use wsn_geom::tile::Dir;
use wsn_graph::{Csr, EdgeList};
use wsn_perc::Lattice;
use wsn_pointproc::PointSet;
use wsn_rgg::build_udg;

use crate::election::{elect_leaders, Announce};
use crate::engine::{Engine, MsgStats};

/// Region index inside a tile: 0 = C0, 1..=4 = relay regions (Dir order).
type RegionKey = (u32, u8);

#[derive(Clone, Debug)]
enum LinkMsg {
    /// "I am the leader of region `region` of tile `tile`."
    Leader { tile: u32, region: u8 },
    /// Connection request for the edge implied by the two roles.
    Connect,
    /// Handshake completion.
    Ack,
}

/// Result of the distributed build.
#[derive(Clone, Debug)]
pub struct DistributedBuild {
    pub network: SensNetwork,
    /// Total message statistics across all protocol phases.
    pub stats: MsgStats,
    /// Rounds of communication used (constant by design).
    pub rounds: u64,
}

fn merge(into: &mut MsgStats, other: &MsgStats) {
    into.sent += other.sent;
    into.rounds += other.rounds;
    for (a, b) in into
        .per_node_sent
        .iter_mut()
        .zip(other.per_node_sent.iter())
    {
        *a += b;
    }
}

/// Run the Fig. 7 protocol over a deployment. The radio graph is
/// `UDG(points, radius)`; every protocol message travels along its edges.
pub fn distributed_build_udg(
    points: &PointSet,
    params: UdgSensParams,
    grid: TileGrid,
) -> Result<DistributedBuild, wsn_core::params::ParamError> {
    assert_eq!(
        params.mode,
        UdgGeometryMode::Strict,
        "the one-hop protocol is only correct for strict geometry"
    );
    let geom = UdgTileGeometry::new(params)?;
    let radio = build_udg(points, params.radius);
    let assignment = TileAssignment::build(&grid, points);

    // ---- Step 1: locate (no messages) -------------------------------
    let mut groups: HashMap<RegionKey, Vec<u32>> = HashMap::new();
    for (id, p) in points.iter_enumerated() {
        let Some(site) = grid.site_of_point(p) else {
            continue;
        };
        let lin = grid.linear(site) as u32;
        let mask = geom.classify(grid.local(site, p));
        if mask & ROLE_REP != 0 {
            groups.entry((lin, 0)).or_default().push(id);
        }
        for d in Dir::ALL {
            if mask & relay_bit(d) != 0 {
                groups
                    .entry((lin, d.index() as u8 + 1))
                    .or_default()
                    .push(id);
            }
        }
    }

    let mut total = MsgStats {
        per_node_sent: vec![0; points.len()],
        ..Default::default()
    };

    // ---- Step 2: elect -----------------------------------------------
    let mut election_engine: Engine<Announce<RegionKey>> = Engine::new(&radio);
    let leaders = elect_leaders(&mut election_engine, &groups);
    merge(&mut total, election_engine.stats());

    // Tile goodness: all five regions produced a leader.
    let n_tiles = grid.tile_count();
    let mut tile_leaders: Vec<[Option<u32>; 5]> = vec![[None; 5]; n_tiles];
    for (&(lin, region), &leader) in &leaders {
        tile_leaders[lin as usize][region as usize] = Some(leader);
    }
    let good = |lin: usize| -> bool { tile_leaders[lin].iter().all(Option::is_some) };

    // ---- Step 3: announce ---------------------------------------------
    let mut link_engine: Engine<LinkMsg> = Engine::new(&radio);
    for (&(lin, region), &leader) in &leaders {
        if good(lin as usize) {
            link_engine.broadcast(leader, LinkMsg::Leader { tile: lin, region });
        }
    }
    link_engine.deliver_round();

    // Each leader scans its inbox for the partners Fig. 7 names:
    // reps pair with same-tile relays; relays pair with the opposite relay
    // of the neighbouring tile (Right/Top leaders initiate).
    let mut connect_requests: Vec<(u32, u32)> = Vec::new();
    for (&(lin, region), &leader) in &leaders {
        if !good(lin as usize) {
            continue;
        }
        let my_site = grid.site_of_linear(lin as usize);
        for (from, msg) in link_engine.inbox(leader) {
            let LinkMsg::Leader { tile, region: r2 } = msg else {
                continue;
            };
            if !good(*tile as usize) {
                continue;
            }
            if region == 0 {
                // Representative connects to same-tile relays.
                if *tile == lin && *r2 != 0 {
                    connect_requests.push((leader, *from));
                }
            } else {
                let d = Dir::from_index(region as usize - 1);
                // Right/Top relays initiate the cross-tile handshake.
                if matches!(d, Dir::Right | Dir::Top) {
                    let nb = d.neighbor_of(grid.tile_of_site(my_site));
                    if let Some(nb_site) = grid.site_of_tile(nb) {
                        let expect = (grid.linear(nb_site) as u32, d.opposite().index() as u8 + 1);
                        if (*tile, *r2) == expect && *from != leader {
                            connect_requests.push((leader, *from));
                        }
                    }
                }
            }
        }
    }

    // ---- Step 4: connect (request + ack) --------------------------------
    for &(u, v) in &connect_requests {
        link_engine.send(u, v, LinkMsg::Connect);
    }
    link_engine.deliver_round();
    let mut edges = EdgeList::new(points.len());
    let mut acks: Vec<(u32, u32)> = Vec::new();
    for &(u, v) in &connect_requests {
        // `v` saw the Connect in its inbox; it acknowledges and the edge is
        // established on both sides.
        debug_assert!(link_engine
            .inbox(v)
            .iter()
            .any(|(from, m)| *from == u && matches!(m, LinkMsg::Connect)));
        acks.push((v, u));
    }
    for &(v, u) in &acks {
        link_engine.send(v, u, LinkMsg::Ack);
        edges.add(u, v);
    }
    link_engine.deliver_round();
    merge(&mut total, link_engine.stats());

    // ---- Assemble the network (same shape as the centralised builder) ---
    let lattice = Lattice::from_fn(grid.cols(), grid.rows(), |i, j| good(grid.linear((i, j))));
    let mut roles = vec![0u16; points.len()];
    let mut reps = vec![u32::MAX; n_tiles];
    for lin in 0..n_tiles {
        if !good(lin) {
            continue;
        }
        let l = &tile_leaders[lin];
        reps[lin] = l[0].unwrap();
        roles[l[0].unwrap() as usize] |= ROLE_REP;
        for d in Dir::ALL {
            roles[l[d.index() + 1].unwrap() as usize] |= relay_bit(d);
        }
    }
    let graph = Csr::from_edge_list(edges);
    let rounds = total.rounds;
    Ok(DistributedBuild {
        network: SensNetwork::assemble(
            grid,
            lattice,
            graph,
            roles,
            assignment.tile_of_point,
            reps,
            0,
        ),
        stats: total,
        rounds,
    })
}

/// Per-shard construction message accounting — the halo-exchange cost view
/// of the Fig. 7 protocol under the tile-sharded pipeline.
///
/// Tiles are grouped into shards of `tiles_per_shard × tiles_per_shard`
/// (the same decomposition as `wsn_geom::ShardGrid` over the grid's covered
/// area), each node's sent messages are attributed to its tile's shard, and
/// nodes in *border* tiles — tiles with at least one in-grid lattice
/// neighbour in a different shard — are counted separately: their messages
/// are the ones a sharded deployment would exchange across the halo. A
/// single whole-grid shard therefore has zero border messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardAccounting {
    /// Shard grid dimensions (cols × rows).
    pub shards: usize,
    pub tiles_per_shard: usize,
    /// Messages sent by nodes of each shard (row-major shard order).
    pub msgs_per_shard: Vec<u64>,
    /// Messages sent by nodes outside the tile grid (never elected; their
    /// only cost is election participation).
    pub msgs_outside: u64,
    /// Messages sent from border tiles (an in-grid lattice neighbour lies
    /// in a different shard) — the halo-exchange share.
    pub msgs_border: u64,
    /// Highest per-shard total (load-balance measure).
    pub msgs_max_shard: u64,
}

impl ShardAccounting {
    /// Attribute `build`'s per-node message counts to shards of
    /// `tiles_per_shard × tiles_per_shard` tiles.
    pub fn of(build: &DistributedBuild, tiles_per_shard: usize) -> ShardAccounting {
        assert!(tiles_per_shard >= 1, "need at least one tile per shard");
        let grid = &build.network.grid;
        let shard_cols = grid.cols().div_ceil(tiles_per_shard);
        let shard_rows = grid.rows().div_ceil(tiles_per_shard);
        let mut msgs_per_shard = vec![0u64; shard_cols * shard_rows];
        let mut msgs_outside = 0u64;
        let mut msgs_border = 0u64;
        for (node, &sent) in build.stats.per_node_sent.iter().enumerate() {
            let tile = build.network.tile_of_node[node];
            if tile == u32::MAX {
                msgs_outside += sent;
                continue;
            }
            let site = grid.site_of_linear(tile as usize);
            let (si, sj) = (site.0 / tiles_per_shard, site.1 / tiles_per_shard);
            msgs_per_shard[sj * shard_cols + si] += sent;
            // Border tile: one of its in-grid lattice neighbours lies in a
            // different shard, so its cross-tile partners can live there.
            // Window-edge tiles with no neighbour on that side are NOT
            // border on that side.
            let mut border = false;
            for (ni, nj) in [
                (site.0.wrapping_sub(1), site.1),
                (site.0 + 1, site.1),
                (site.0, site.1.wrapping_sub(1)),
                (site.0, site.1 + 1),
            ] {
                if ni < grid.cols()
                    && nj < grid.rows()
                    && (ni / tiles_per_shard, nj / tiles_per_shard) != (si, sj)
                {
                    border = true;
                    break;
                }
            }
            if border {
                msgs_border += sent;
            }
        }
        let msgs_max_shard = msgs_per_shard.iter().copied().max().unwrap_or(0);
        ShardAccounting {
            shards: msgs_per_shard.len(),
            tiles_per_shard,
            msgs_per_shard,
            msgs_outside,
            msgs_border,
            msgs_max_shard,
        }
    }

    /// Total messages attributed to shards (excludes out-of-grid nodes).
    pub fn msgs_in_shards(&self) -> u64 {
        self.msgs_per_shard.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::udg::build_udg_sens;
    use wsn_pointproc::{rng_from_seed, sample_poisson_window};

    fn deployment(seed: u64, side: f64, lambda: f64) -> (PointSet, TileGrid, UdgSensParams) {
        let params = UdgSensParams::strict_default();
        let grid = TileGrid::fit(side, params.tile_side);
        let window = grid.covered_area();
        let pts = sample_poisson_window(&mut rng_from_seed(seed), lambda, &window);
        (pts, grid, params)
    }

    #[test]
    fn distributed_equals_centralized() {
        let (pts, grid, params) = deployment(13, 14.0, 30.0);
        let central = build_udg_sens(&pts, params, grid.clone()).unwrap();
        let dist = distributed_build_udg(&pts, params, grid).unwrap();
        assert_eq!(dist.network.lattice, central.lattice, "same good tiles");
        assert_eq!(dist.network.reps, central.reps, "same representatives");
        assert_eq!(dist.network.roles, central.roles, "same roles");
        let mut e1: Vec<_> = central.graph.edges().collect();
        let mut e2: Vec<_> = dist.network.graph.edges().collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2, "same edge set");
    }

    #[test]
    fn protocol_uses_constant_rounds() {
        let (pts, grid, params) = deployment(14, 10.0, 30.0);
        let d_small = distributed_build_udg(&pts, params, grid).unwrap();
        let (pts2, grid2, _) = deployment(15, 22.0, 30.0);
        let d_large = distributed_build_udg(&pts2, params, grid2).unwrap();
        assert_eq!(
            d_small.rounds, d_large.rounds,
            "round count must not grow with network size (P4)"
        );
        assert!(d_small.rounds <= 6);
    }

    #[test]
    fn per_node_message_cost_is_local() {
        // Max per-node messages depends on local density, not on the
        // network's extent: compare two sizes at the same λ.
        let (pts, grid, params) = deployment(16, 12.0, 30.0);
        let small = distributed_build_udg(&pts, params, grid).unwrap();
        let (pts2, grid2, _) = deployment(17, 24.0, 30.0);
        let large = distributed_build_udg(&pts2, params, grid2).unwrap();
        let (ms, ml) = (small.stats.max_per_node(), large.stats.max_per_node());
        assert!(
            (ml as f64) < 3.0 * ms as f64 + 50.0,
            "per-node cost grew with network size: {ms} → {ml}"
        );
    }

    #[test]
    #[should_panic(expected = "strict geometry")]
    fn paper_mode_is_rejected() {
        let (pts, grid, _) = deployment(18, 8.0, 5.0);
        let _ = distributed_build_udg(&pts, UdgSensParams::paper(), grid);
    }

    #[test]
    fn shard_accounting_partitions_all_messages() {
        let (pts, grid, params) = deployment(21, 14.0, 30.0);
        let build = distributed_build_udg(&pts, params, grid).unwrap();
        for tiles_per_shard in [1usize, 3, 100] {
            let acc = ShardAccounting::of(&build, tiles_per_shard);
            assert_eq!(
                acc.msgs_in_shards() + acc.msgs_outside,
                build.stats.sent,
                "tiles_per_shard = {tiles_per_shard}"
            );
            assert!(acc.msgs_max_shard <= acc.msgs_in_shards());
            assert!(acc.msgs_border <= acc.msgs_in_shards());
        }
        // One whole-grid shard: no shard boundaries exist, so nothing is a
        // halo exchange, and the single shard carries every in-grid message.
        let whole = ShardAccounting::of(&build, 100);
        assert_eq!(whole.shards, 1);
        assert_eq!(whole.msgs_per_shard[0], whole.msgs_in_shards());
        assert_eq!(whole.msgs_border, 0, "a single shard has no halo");
        // 1×1 shards: every tile with an in-grid neighbour is a border tile
        // (the grid here is ≥ 2×2, so that is every tile).
        let single = ShardAccounting::of(&build, 1);
        assert_eq!(single.msgs_border, single.msgs_in_shards());
        // Interior shards exist at 3 tiles/shard on this grid, so the halo
        // share must be a strict subset of all in-shard messages.
        let mid = ShardAccounting::of(&build, 3);
        assert!(mid.msgs_border < mid.msgs_in_shards());
    }

    #[test]
    fn empty_deployment_builds_empty_network() {
        let params = UdgSensParams::strict_default();
        let grid = TileGrid::fit(6.0, params.tile_side);
        let pts = PointSet::new();
        let d = distributed_build_udg(&pts, params, grid).unwrap();
        assert_eq!(d.network.lattice.open_count(), 0);
        assert_eq!(d.stats.sent, 0);
    }
}
