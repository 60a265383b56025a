//! Incrementally maintained topologies under node churn.
//!
//! A lifetime simulation kills and admits nodes every epoch; rebuilding a
//! million-node topology from scratch per epoch would dominate wall-clock.
//! [`IncrementalGraph`] instead keeps the graph as a chunked CSR
//! ([`wsn_graph::ChunkedCsr`]) across epochs — plus, for every kind but
//! the UDG, the tile-sharded construction's *per-shard edge caches*
//! ([`wsn_graph::ShardedEdgeStore`]) — and repairs only what churn
//! touched:
//!
//! * Node ids live in a fixed **universe** id space (the initial deployment
//!   plus any reserve pool); churn toggles an alive mask, never re-indexes.
//!   This id space stays in *deployment order* even though one-shot
//!   sharded construction runs Morton-ordered ([`crate::ordered`]): churn
//!   draws, HNG level promotion and every golden are seeded per universe
//!   id, so reordering here would change observable bytes. The locality win the
//!   Morton layout buys at construction time comes from cache-dense
//!   *per-group* remaps ([`wsn_graph::IdRemap`]) on the repair path
//!   instead.
//! * A shard is **dirty** when a dead or joined node lies inside its
//!   ghost-padded extent — every predicate the builders evaluate (disk
//!   membership, Gabriel blockers, RNG lune witnesses, Yao cone minima,
//!   in-halo k-NN) only consults points within the halo, so a clean
//!   shard's cached emissions are *provably identical* to what a cold
//!   rebuild would emit. The merged dirty extents are also the serve
//!   path's route-cache eviction footprint
//!   ([`IncrementalGraph::dirty_extents`]).
//! * Every repair is **byte-identical to a cold rebuild** — the survivors
//!   built through the one cold-build dispatch,
//!   [`IncTopology::build_alive`] — asserted by
//!   [`IncrementalGraph::verify_cold`] (the monolithic [`Exec::Serial`]
//!   oracle), the churn engine's debug path, and
//!   `tests/churn_incremental.rs` / `tests/churn_locality.rs` (which also
//!   race the production [`Exec::Sharded`] path).
//! * The UDG repairs **per event**, not per shard: a death withdraws its
//!   current CSR row, and a join adds the alive nodes inside its disk,
//!   found by scanning the resident lists of the shards whose padded
//!   extent holds it with the same `dist² ≤ r²` predicate the shard
//!   derivation uses. Disk membership depends on the two endpoints alone,
//!   so no other node is re-examined and the UDG keeps no per-shard
//!   emission cache at all — the chunked CSR is its only copy of the
//!   graph.
//! * Every other kind re-runs the exact shard derivation functions of
//!   [`crate::sharded`] (shared code, not re-implementations) over the
//!   alive survivors of each dirty shard and diffs the new emissions
//!   against the shard's cache.
//! * Re-derivation cost is **proportional to the churned region**, not to
//!   network size: the dirty shards' padded extents are merged into
//!   connected [`wsn_geom::ExtentGroup`]s, alive points are gathered per
//!   group from precomputed per-shard resident lists, remapped into a
//!   dense local id space ([`wsn_graph::IdRemap`]), and shard derivation
//!   runs against a localized [`wsn_spatial::SubIndex`] built over just
//!   that group. A global index over the whole alive population is
//!   constructed **only** when a k-NN halo straggler fires a query the
//!   group extent cannot certify — counted by
//!   [`IncrementalGraph::escalations`], which the differential suite
//!   asserts stays cold for every other topology.
//! * k-NN shards that needed the exact whole-population fallback for any
//!   owned node (*stragglers*) are re-derived every epoch: their lists
//!   depend on points beyond the halo, so they can never be trusted clean.

use std::cell::Cell;
use std::time::Instant;

use rayon::prelude::*;
use wsn_geom::{Aabb, ShardGrid};
use wsn_graph::{diff_emissions, sort_emissions, ChunkedCsr, Csr, IdRemap, ShardedEdgeStore};
use wsn_pointproc::PointSet;
use wsn_spatial::GridIndex;

use crate::hng::{derive_hng, HngDeps};
use crate::sharded::{
    derive_gabriel, derive_knn, derive_rng, derive_udg, derive_yao, knn_cell_size, Shard,
};
use crate::{hng_halo, knn_halo, Exec, WHOLE_WINDOW};

/// One dirty shard's re-derived emissions plus its k-NN straggler flag
/// and (for HNG) its dependence record.
type ShardEdges = (Vec<(u32, u32)>, bool, HngDeps);

/// Establish the store's sorted-cache invariant on a freshly derived
/// shard, inside the parallel derive closure that produced it.
fn sorted((mut edges, strag, deps): ShardEdges) -> ShardEdges {
    sort_emissions(&mut edges);
    (edges, strag, deps)
}

/// The plain topologies the incremental engine can maintain (the SENS
/// constructions repair by per-epoch rebuild instead — their tile-election
/// stitch is global). [`IncTopology::Udg`] repairs per churn event; every
/// other kind re-derives its dirty shards and diffs them against their
/// caches (see [`IncrementalGraph::apply_churn`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IncTopology {
    Udg {
        radius: f64,
    },
    Knn {
        k: usize,
    },
    Gabriel {
        radius: f64,
    },
    Rng {
        radius: f64,
    },
    Yao {
        radius: f64,
        cones: usize,
    },
    /// Hierarchical neighbor graph. Carries its level seed because the
    /// hierarchy is keyed by *universe* id: every rebuild path (cold,
    /// sharded, incremental) re-rolls the same levels from `(seed, node)`
    /// and restricts them through the alive mask — survivor-id re-rolls
    /// would silently diverge.
    Hng {
        p: f64,
        links: usize,
        seed: u64,
    },
}

impl IncTopology {
    /// Stable human-readable label (used by the lifetime bench rows; the
    /// HNG level seed is deployment identity, not topology identity, so it
    /// stays out).
    pub fn label(&self) -> String {
        match *self {
            IncTopology::Udg { radius } => format!("udg(r={radius})"),
            IncTopology::Knn { k } => format!("knn(k={k})"),
            IncTopology::Gabriel { radius } => format!("gabriel(r={radius})"),
            IncTopology::Rng { radius } => format!("rng(r={radius})"),
            IncTopology::Yao { radius, cones } => format!("yao(r={radius},c={cones})"),
            IncTopology::Hng { p, links, .. } => format!("hng(p={p},m={links})"),
        }
    }

    /// Upper bound on every edge's Euclidean length — the radius for UDG
    /// and its Gabriel/RNG/Yao subgraphs; `None` for k-NN and HNG, whose
    /// edges are unbounded. Guides [`wsn_graph::bfs::BfsScratch::guided_path`].
    pub fn max_edge_len(&self) -> Option<f64> {
        match *self {
            IncTopology::Udg { radius }
            | IncTopology::Gabriel { radius }
            | IncTopology::Rng { radius }
            | IncTopology::Yao { radius, .. } => Some(radius),
            IncTopology::Knn { .. } | IncTopology::Hng { .. } => None,
        }
    }
}

/// What one [`IncrementalGraph::apply_churn`] call actually did.
///
/// Shard counters partition the dirty set: `dirty == event_local +
/// rederived`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepairStats {
    /// Total shards in the plan.
    pub shard_count: usize,
    /// Churn events handed in: `deaths.len() + joins.len()` (an id passed
    /// as both a death and a join counts twice).
    pub events: usize,
    /// Shards whose padded extent saw churn (or held k-NN stragglers).
    pub dirty: usize,
    /// Dirty shards repaired by the per-event rule (every dirty UDG shard;
    /// 0 for every other kind).
    pub event_local: usize,
    /// Dirty shards repaired by full re-derivation.
    pub rederived: usize,
    /// Points the repair scanned: for UDG, the residents the joins' disk
    /// queries scanned (0 for a deaths-only repair); for every other kind,
    /// the points gathered into re-derivation working sets (≈ the dirty
    /// extents' population, plus the alive population on a k-NN
    /// escalation). The locality regression tests pin exactly this
    /// proportionality.
    pub gathered: usize,
    /// Whole-population index constructions this repair (0 unless a k-NN
    /// halo straggler fired a query its group extent could not certify).
    pub escalations: usize,
    /// Nodes whose neighbour list the repair changed — the distinct
    /// endpoints of the net edge delta.
    pub affected_owners: usize,
    /// Wall-clock seconds spent turning the repair into a net edge delta
    /// (the re-derived shards' per-shard linear diff; the UDG's event
    /// delta is built before this clock starts) and splicing it into the
    /// chunked CSR.
    pub splice_secs: f64,
    /// Chunks the splice rewrote (owner chunks of the delta's endpoints).
    pub spliced_chunks: usize,
}

/// A churn-maintained topology over a fixed universe of points.
pub struct IncrementalGraph {
    kind: IncTopology,
    grid: ShardGrid,
    /// Ghost halo of the plan (the topology radius, or the k-NN halo of the
    /// initial alive population) — fixed for the structure's lifetime.
    halo: f64,
    points: PointSet,
    alive: Vec<bool>,
    n_alive: usize,
    /// Per-shard emission caches (empty for the UDG after build).
    store: ShardedEdgeStore,
    /// Per-shard k-NN straggler flags (always false for other kinds).
    straggler: Vec<bool>,
    /// The maintained adjacency: one chunk per shard, spliced in place —
    /// total epoch cost stays proportional to the dirty footprint.
    csr: ChunkedCsr,
    /// Universe ids grouped by owner shard (CSR layout, ascending within a
    /// shard) — the persistent shard-granular spatial index the localized
    /// gather and the UDG's join disks scan instead of compacting the
    /// whole alive set. The universe is fixed, so this is built exactly
    /// once.
    resident_start: Vec<u32>,
    resident_ids: Vec<u32>,
    /// HNG level per universe id, rolled once at build from the kind's
    /// seed (empty for every other kind). Levels never change under churn.
    levels: Vec<u32>,
    /// Per-shard HNG dependence records (see [`HngDeps`]; empty for every
    /// other kind): which fallback-answered uplink rungs the shard's
    /// cached emissions rest on, so churn outside both the shard's padded
    /// geometry and every recorded box provably leaves the cache exact.
    hng_deps: Vec<HngDeps>,
    /// The alive population's top occupied level and its ascending member
    /// ids, as of the last repair — the HNG clique. Tracked incrementally
    /// so apply_churn re-derives clique-dependent shards only when the
    /// top actually changes, instead of escalating every churned epoch.
    hng_top: (u32, Vec<u32>),
    /// Cumulative whole-population index constructions (see
    /// [`RepairStats::escalations`]).
    escalations: u64,
    /// Merged ghost-padded extents of the shards the *last*
    /// [`IncrementalGraph::apply_churn`] dirtied — the serve path's cache
    /// invalidation footprint (empty after a quiescent epoch or before any
    /// churn). An edge both of whose endpoints lie outside every extent is
    /// guaranteed untouched by that repair.
    last_dirty_extents: Vec<Aabb>,
}

impl IncrementalGraph {
    /// Build the initial structure over `points` restricted to `alive`.
    ///
    /// `tiles_per_shard` sizes the repair granularity in halo units
    /// (smaller shards localise churn better but pay more stitch overhead);
    /// [`WHOLE_WINDOW`] degenerates to rebuild-per-epoch.
    pub fn build(
        points: PointSet,
        alive: Vec<bool>,
        kind: IncTopology,
        tiles_per_shard: usize,
    ) -> Self {
        assert_eq!(alive.len(), points.len(), "mask length must match");
        if let IncTopology::Yao { cones, .. } = kind {
            assert!(cones >= 1, "need at least one cone");
        }
        let n_alive = alive.iter().filter(|&&a| a).count();
        let levels = kind.levels(points.len());
        let halo = match kind {
            IncTopology::Udg { radius }
            | IncTopology::Gabriel { radius }
            | IncTopology::Rng { radius }
            | IncTopology::Yao { radius, .. } => {
                assert!(radius > 0.0, "radius must be positive");
                radius
            }
            IncTopology::Knn { k } => {
                let (sub, _, _) = compact(&points, &alive);
                if sub.is_empty() {
                    1.0
                } else {
                    knn_halo(&sub, k.max(1))
                }
            }
            IncTopology::Hng { links, .. } => {
                let (sub, to_universe, _) = compact(&points, &alive);
                if sub.is_empty() {
                    1.0
                } else {
                    let levels_sub: Vec<u32> =
                        to_universe.iter().map(|&g| levels[g as usize]).collect();
                    hng_halo(&sub, &levels_sub, links.max(1))
                }
            }
        };
        let bbox = points
            .bounding_box()
            .unwrap_or_else(|| Aabb::square(halo.max(1.0)));
        let grid = if tiles_per_shard == WHOLE_WINDOW {
            ShardGrid::whole(&bbox)
        } else {
            ShardGrid::new(&bbox, halo, tiles_per_shard)
        };
        let (resident_start, resident_ids) = resident_lists(&points, &grid);
        let hng_top = match kind {
            IncTopology::Hng { .. } => alive_top(&levels, &alive),
            _ => (1, Vec::new()),
        };
        let mut g = IncrementalGraph {
            kind,
            halo,
            store: ShardedEdgeStore::new(points.len(), grid.shard_count()),
            straggler: vec![false; grid.shard_count()],
            hng_deps: vec![HngDeps::default(); grid.shard_count()],
            hng_top,
            grid,
            points,
            alive,
            n_alive,
            csr: ChunkedCsr::empty(0),
            resident_start,
            resident_ids,
            levels,
            escalations: 0,
            last_dirty_extents: Vec::new(),
        };
        let all: Vec<usize> = (0..g.grid.shard_count()).collect();
        g.rederive_shards(&all);
        // One chunk per shard: each node's adjacency lives in its owner
        // shard's chunk, so a shard repair splices one chunk. The
        // build folds cross-shard duplicate emissions (k-NN, Yao) into
        // per-entry multiplicities — no global dedup sort, here or later.
        let chunk_of: Vec<u32> = g.points.iter().map(|p| g.grid.owner_of(p) as u32).collect();
        let shards = g.grid.shard_count();
        g.csr = if let IncTopology::Udg { .. } = kind {
            // The UDG repairs from the CSR rows and the resident lists
            // alone; its shard caches would only duplicate the CSR's upper
            // triangle, so the build consumes them.
            let store =
                std::mem::replace(&mut g.store, ShardedEdgeStore::new(g.points.len(), shards));
            ChunkedCsr::build(shards, &chunk_of, store.into_runs())
        } else {
            ChunkedCsr::build(shards, &chunk_of, g.store.runs())
        };
        g
    }

    /// The shard plan (tests and benches use it to craft churn regions
    /// that dirty a known shard set).
    #[inline]
    pub fn grid(&self) -> &ShardGrid {
        &self.grid
    }

    /// The ghost halo every shard extent is padded by.
    #[inline]
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// Cumulative count of whole-population index constructions — stays 0
    /// for every topology except k-NN, and for k-NN rises only when a halo
    /// straggler fires a query its dirty-extent group cannot certify.
    #[inline]
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// The maintained graph in universe id space (dead nodes isolated).
    #[inline]
    pub fn graph(&self) -> &ChunkedCsr {
        &self.csr
    }

    /// The per-shard emission caches re-derived shards are diffed against
    /// (every shard list sorted ascending; every list empty for the UDG,
    /// which repairs per event and keeps no cache).
    #[inline]
    pub fn edge_store(&self) -> &ShardedEdgeStore {
        &self.store
    }

    /// The universe point set (fixed; includes dead and reserve nodes).
    #[inline]
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    #[inline]
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    #[inline]
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    #[inline]
    pub fn kind(&self) -> IncTopology {
        self.kind
    }

    /// Merged ghost-padded extents of the shards the last
    /// [`IncrementalGraph::apply_churn`] call dirtied. The serve path's
    /// route-cache invalidation rule: a cached path is only trustworthy
    /// across the epoch boundary if none of its nodes fall inside any of
    /// these extents. Empty before any churn and after quiescent epochs.
    #[inline]
    pub fn dirty_extents(&self) -> &[Aabb] {
        &self.last_dirty_extents
    }

    /// Kill `deaths` and admit `joins`, then repair what the churn touched.
    /// Returns what the repair did.
    ///
    /// The UDG builds its net edge delta from the events themselves: each
    /// death withdraws its current row, each join adds its disk. Every
    /// other kind re-derives the shards whose padded extent the churn
    /// touched and diffs them against their caches. Either way the delta
    /// is spliced into the chunked CSR.
    ///
    /// An id may appear as both a death and a join (it dies, then rejoins
    /// in the same call). Panics if a death is already dead or a join
    /// already alive — the caller (the churn engine) owns liveness
    /// bookkeeping.
    pub fn apply_churn(&mut self, deaths: &[u32], joins: &[u32]) -> RepairStats {
        for &d in deaths {
            assert!(self.alive[d as usize], "death of already-dead node {d}");
            self.alive[d as usize] = false;
        }
        for &j in joins {
            assert!(!self.alive[j as usize], "join of already-alive node {j}");
            self.alive[j as usize] = true;
        }
        self.n_alive = self.n_alive + joins.len() - deaths.len();

        // Dirty marking stays shard-granular for every kind: it is the
        // re-derivation set and the serve path's eviction footprint.
        let mut dirty = vec![false; self.grid.shard_count()];
        for &c in deaths.iter().chain(joins) {
            for s in self.grid.shards_near(self.points.get(c), self.halo) {
                dirty[s] = true;
            }
        }
        match self.kind {
            // HNG tracks its global dependence precisely: the top clique
            // through the maintained `hng_top`, every fallback-answered
            // uplink rung through its recorded dependence box. Straggler
            // flags stay advisory — forcing them dirty would re-derive
            // the whole population every churned epoch.
            IncTopology::Hng { .. } => self.mark_hng_dependents(deaths, joins, &mut dirty),
            // k-NN straggler shards consulted the whole population; never
            // clean.
            _ => {
                for (s, &strag) in self.straggler.iter().enumerate() {
                    dirty[s] |= strag;
                }
            }
        }
        let dirty_list: Vec<usize> = (0..dirty.len()).filter(|&s| dirty[s]).collect();
        let mut stats = RepairStats {
            shard_count: self.grid.shard_count(),
            events: deaths.len() + joins.len(),
            dirty: dirty_list.len(),
            ..RepairStats::default()
        };
        // Publish hook for the serve path: the merged padded extents of
        // every dirty shard bound the region this repair may have touched.
        // Anything wholly outside them is provably identical to last epoch.
        self.last_dirty_extents = self
            .grid
            .merge_padded_extents(&dirty_list, self.halo)
            .into_iter()
            .map(|g| g.extent)
            .collect();
        // A quiescent epoch (no dirty shards) leaves the CSR untouched.
        if dirty_list.is_empty() {
            return stats;
        }

        // The splice consumes the repair as a net edge delta, so the CSR
        // work tracks what changed — O(delta) — not the graph. Clean
        // shards contribute nothing, yet their nodes' lists still update
        // when a cross-shard edge appears or disappears (the delta is
        // routed by endpoint).
        let (removed, added, splice_start) = if let IncTopology::Udg { radius } = self.kind {
            stats.event_local = stats.dirty;
            let (removed, added, scanned) = self.udg_event_delta(deaths, joins, radius);
            stats.gathered = scanned;
            (removed, added, Instant::now())
        } else {
            // A re-derived shard's old list moves out here (no copy) and
            // is diffed against its new one after re-derivation.
            stats.rederived = stats.dirty;
            let old_lists: Vec<_> = dirty_list.iter().map(|&s| self.store.take(s)).collect();
            let (gathered, escalations) = self.rederive_shards(&dirty_list);
            stats.gathered = gathered;
            stats.escalations = escalations;
            let splice_start = Instant::now();
            // Both lists of every re-derived shard are sorted, so each
            // shard's net delta is one linear merge, fanned out per shard.
            let store = &self.store;
            let diffs: Vec<_> = dirty_list
                .iter()
                .zip(old_lists)
                .into_par_iter()
                .map(|(&s, old)| diff_emissions(&old, store.shard(s)))
                .collect();
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            for (mut r, mut a) in diffs {
                removed.append(&mut r);
                added.append(&mut a);
            }
            (removed, added, splice_start)
        };
        let splice = self.csr.splice(&removed, &added);
        stats.splice_secs = splice_start.elapsed().as_secs_f64();
        stats.affected_owners = splice.nodes_touched;
        stats.spliced_chunks = splice.chunks_touched;
        stats
    }

    /// The UDG's net edge delta straight from the churn events, after the
    /// alive toggles. Returns `(removed, added, residents scanned)`.
    ///
    /// * A death withdraws its current CSR row; an edge between two deaths
    ///   is withdrawn once, by its smaller endpoint.
    /// * A join adds every alive node inside its disk; a pair of joins is
    ///   added once, by its smaller endpoint.
    ///
    /// Every edge of the old graph that touches no death survives into
    /// the new one (disk membership depends on the two endpoints alone),
    /// and every new edge that touches no join was an old edge between
    /// survivors — so old − removed + added is the new graph exactly. An
    /// id that both died and rejoined withdraws its old row and adds its
    /// new disk; the splice cancels what the two share.
    ///
    /// The disk query scans the resident lists of the shards whose padded
    /// extent holds the join — the same closed-box rule under which the
    /// shard derivation of each neighbour's owner would gather the join —
    /// with the derivation's `dist² ≤ r²` predicate, so the emitted pairs
    /// are exactly the cold build's.
    #[allow(clippy::type_complexity)]
    fn udg_event_delta(
        &self,
        deaths: &[u32],
        joins: &[u32],
        radius: f64,
    ) -> (Vec<(u32, u32)>, Vec<(u32, u32)>, usize) {
        const DIED: u8 = 1;
        const JOINED: u8 = 2;
        let mut event = vec![0u8; self.points.len()];
        for &d in deaths {
            event[d as usize] |= DIED;
        }
        for &j in joins {
            event[j as usize] |= JOINED;
        }
        let (csr, event) = (&self.csr, &event);
        let removed: Vec<(u32, u32)> = deaths
            .into_par_iter()
            .flat_map_iter(|&d| {
                csr.neighbors(d)
                    .iter()
                    .filter(move |&&v| !(event[v as usize] & DIED != 0 && v < d))
                    .map(move |&v| (d.min(v), d.max(v)))
            })
            .collect();
        let r2 = radius * radius;
        let (grid, points, alive) = (&self.grid, &self.points, &self.alive);
        let (start, ids) = (&self.resident_start, &self.resident_ids);
        let disks: Vec<(Vec<(u32, u32)>, usize)> = joins
            .into_par_iter()
            .map(|&j| {
                let p = points.get(j);
                let mut out = Vec::new();
                let mut scanned = 0usize;
                for s in grid.shards_near(p, radius) {
                    let residents = &ids[start[s] as usize..start[s + 1] as usize];
                    scanned += residents.len();
                    for &v in residents {
                        if v != j
                            && alive[v as usize]
                            && !(event[v as usize] & JOINED != 0 && v < j)
                            && points.get(v).dist_sq(p) <= r2
                        {
                            out.push((j.min(v), j.max(v)));
                        }
                    }
                }
                (out, scanned)
            })
            .collect();
        let scanned = disks.iter().map(|(_, s)| s).sum();
        let added = disks.into_iter().flat_map(|(out, _)| out).collect();
        (removed, added, scanned)
    }

    /// HNG dirty marking beyond the geometric rule, called *after* the
    /// alive toggles. Two sources of non-local dependence:
    ///
    /// * **The top clique.** If the alive population's top occupied level
    ///   or its member set changed, every shard owning an alive node of
    ///   level `≥ min(T_old, T_new)` re-derives — exactly the nodes whose
    ///   clique membership or rung count (`min(ℓ(u), T − 1)`) can differ.
    ///   Nodes below that level keep their rung structure, and the member
    ///   sets of their target levels change only through churn, which the
    ///   dependence boxes and the geometric rule cover.
    /// * **Fallback-answered rungs.** A churned node of level `ℓ` dirties
    ///   every shard with a recorded dependence box `(j, box)` where
    ///   `j ≤ ℓ` and the node lies inside the box: it may enter or leave
    ///   that rung's exact answer. Certified rungs need no check — their
    ///   answer disks fit the shard's padded geometry, which the
    ///   geometric rule already watches.
    fn mark_hng_dependents(&mut self, deaths: &[u32], joins: &[u32], dirty: &mut [bool]) {
        let (t_new, top_new) = alive_top(&self.levels, &self.alive);
        if (t_new, top_new.as_slice()) != (self.hng_top.0, self.hng_top.1.as_slice()) {
            let t_min = t_new.min(self.hng_top.0);
            for (u, &lvl) in self.levels.iter().enumerate() {
                if lvl >= t_min && self.alive[u] {
                    let s = self.grid.owner_of(self.points.get(u as u32));
                    dirty[s] = true;
                }
            }
        }
        self.hng_top = (t_new, top_new);

        // Churned nodes, highest level first, with cumulative prefix
        // bounding boxes: for any target level j, the nodes of level ≥ j
        // are a prefix, and `pref_bbox` bounds it for O(1) rejection of
        // far shards' boxes.
        let mut churned: Vec<(wsn_geom::Point, u32)> = deaths
            .iter()
            .chain(joins)
            .map(|&c| (self.points.get(c), self.levels[c as usize]))
            .collect();
        churned.sort_by_key(|&(_, lvl)| std::cmp::Reverse(lvl));
        let mut pref_bbox: Vec<Aabb> = Vec::with_capacity(churned.len());
        for &(p, _) in &churned {
            let pb = Aabb::new(p, p);
            pref_bbox.push(match pref_bbox.last() {
                None => pb,
                Some(cur) => cur.union(&pb),
            });
        }
        // churned[..count_at_least(j)] are the nodes of level ≥ j.
        let count_at_least = |j: u32| churned.partition_point(|&(_, lvl)| lvl >= j);
        for (s, deps) in self.hng_deps.iter().enumerate() {
            if dirty[s] {
                continue;
            }
            // Boxes ascend by target level, so once the churned prefix
            // for a level is empty every later box is unreachable too.
            for &(j, ref bb) in &deps.boxes {
                let cnt = count_at_least(j);
                if cnt == 0 {
                    break;
                }
                if !bb.intersects(&pref_bbox[cnt - 1]) {
                    continue;
                }
                if churned[..cnt].iter().any(|&(p, _)| bb.contains(p)) {
                    dirty[s] = true;
                    break;
                }
            }
        }
    }

    /// Re-derive the listed shards over the current alive population,
    /// replacing their caches (shared-code path: `crate::sharded`).
    /// Returns `(points gathered, global-index escalations)`.
    ///
    /// Locality-proportional: alive points are gathered and indexed only
    /// over the union of the dirty shards' ghost-padded extents. The
    /// working set of every dirty shard — `alive ∩ padded(s, halo)` — is
    /// contained in its extent group, so the shard derivations see exactly
    /// the point sets a whole-population gather would hand them, in the
    /// same (universe-ascending) order, and emit bit-identical edges.
    fn rederive_shards(&mut self, dirty: &[usize]) -> (usize, usize) {
        if dirty.is_empty() {
            return (0, 0);
        }
        let kind = self.kind;
        let (grid, halo) = (&self.grid, self.halo);
        let groups = grid.merge_padded_extents(dirty, halo);

        // Gather each group's alive population from the resident lists:
        // cost tracks the group extents' area, never the network size.
        let mut gathered = 0usize;
        let mut locals: Vec<(IdRemap, PointSet)> = Vec::with_capacity(groups.len());
        for g in &groups {
            let (i0, i1, j0, j1) = grid.owner_range(&g.extent);
            let mut ids: Vec<u32> = Vec::new();
            for j in j0..=j1 {
                for i in i0..=i1 {
                    let s = j * grid.cols() + i;
                    let (a, b) = (
                        self.resident_start[s] as usize,
                        self.resident_start[s + 1] as usize,
                    );
                    for &u in &self.resident_ids[a..b] {
                        if self.alive[u as usize] && g.extent.contains(self.points.get(u)) {
                            ids.push(u);
                        }
                    }
                }
            }
            // Ascending universe ids make the dense remap monotone — the
            // property every downstream id tie-break rests on.
            ids.sort_unstable();
            gathered += ids.len();
            let mut pts = PointSet::with_capacity(ids.len());
            for &u in &ids {
                pts.push(self.points.get(u));
            }
            locals.push((IdRemap::from_sorted(ids), pts));
        }

        // k-NN and HNG need the exact straggler semantics of the global
        // path: a node is *certain* iff its worst local candidate fits
        // inside its own interior margin of the shard's padded extent, or
        // the padded extent covers the whole alive population's bounding
        // box. The box is a cheap O(n) fold over the alive mask — no
        // point-set compaction, no index build.
        let alive_bbox = match kind {
            IncTopology::Knn { .. } | IncTopology::Hng { .. } => {
                alive_bounding_box(&self.points, &self.alive)
            }
            _ => None,
        };
        // HNG's clique lives at the top *alive* level — maintained by
        // build/apply_churn, so no scan here.
        let hng_top = &self.hng_top;
        let levels = &self.levels;

        // One localized SubIndex per extent group; its extent doubles as
        // the certificate that shard gathers (and certified k-NN fallback
        // queries) never silently truncate.
        let indexes: Vec<Option<wsn_spatial::SubIndex>> = groups
            .iter()
            .zip(&locals)
            .map(|(g, (_, pts))| {
                if pts.is_empty() {
                    return None;
                }
                let cell = match kind {
                    IncTopology::Knn { k } => knn_cell_size(pts, k.max(1)),
                    IncTopology::Hng { links, .. } => knn_cell_size(pts, links.max(1)),
                    IncTopology::Udg { radius }
                    | IncTopology::Gabriel { radius }
                    | IncTopology::Rng { radius }
                    | IncTopology::Yao { radius, .. } => radius,
                };
                // `pts` is already the *restriction* of the alive
                // population to the group extent — certification must
                // keep checking query support against the extent (the
                // rest of the population lives beyond it), so the
                // full-membership shortcut must not apply.
                Some(GridIndex::build_over_restricted(pts, &g.extent, cell))
            })
            .collect();

        let mut group_of = vec![usize::MAX; grid.shard_count()];
        for (gi, g) in groups.iter().enumerate() {
            for &s in &g.shards {
                group_of[s] = gi;
            }
        }

        // Pass 1: derive every dirty shard against its group. A k-NN
        // straggler first retries against the group index — certified
        // answers are exact — and only an uncertifiable query marks the
        // shard for escalation (`Err`). An HNG shard escalates per failed
        // uplink rung, carrying the target levels it needs exact answers
        // for, so pass 2 builds indexes over just those level subsets.
        let results: Vec<Result<ShardEdges, Vec<u32>>> = dirty
            .to_vec()
            .into_par_iter()
            .map(|s| {
                let gi = group_of[s];
                let (remap, pts) = &locals[gi];
                let Some(index) = &indexes[gi] else {
                    // No alive points anywhere near: the shard is empty.
                    return Ok((Vec::new(), false, HngDeps::default()));
                };
                let shard = Shard::gather_mapped(pts, remap.to_universe(), index, grid, s, halo);
                match kind {
                    IncTopology::Udg { radius } => {
                        Ok((derive_udg(&shard, radius), false, HngDeps::default()))
                    }
                    IncTopology::Gabriel { radius } => {
                        Ok((derive_gabriel(&shard, radius), false, HngDeps::default()))
                    }
                    IncTopology::Rng { radius } => {
                        Ok((derive_rng(&shard, radius), false, HngDeps::default()))
                    }
                    IncTopology::Yao { radius, cones } => {
                        Ok((derive_yao(&shard, radius, cones), false, HngDeps::default()))
                    }
                    IncTopology::Knn { k } => {
                        let padded = grid.padded(s, halo);
                        let covers_all = alive_bbox
                            .as_ref()
                            .is_some_and(|bb| padded.contains_aabb(bb));
                        let uncertified = Cell::new(false);
                        let (lists, strag) = derive_knn(&shard, k, &padded, covers_all, |p, gu| {
                            let skip = remap.local_of(gu);
                            match index.knn(p, k, skip) {
                                Ok(r) => r.into_iter().map(|(v, _)| remap.universe_of(v)).collect(),
                                Err(_) => {
                                    uncertified.set(true);
                                    Vec::new()
                                }
                            }
                        });
                        if uncertified.get() {
                            return Err(Vec::new());
                        }
                        let mut edges = Vec::new();
                        for (gu, list) in lists {
                            for v in list {
                                edges.push((gu.min(v), gu.max(v)));
                            }
                        }
                        Ok((edges, strag, HngDeps::default()))
                    }
                    IncTopology::Hng { links, .. } => {
                        let padded = grid.padded(s, halo);
                        let covers_all = alive_bbox
                            .as_ref()
                            .is_some_and(|bb| padded.contains_aabb(bb));
                        let (top_level, top) = hng_top;
                        // The group SubIndex certifies gathers, not
                        // level-filtered k-NN — a rung the margin cannot
                        // vouch for records its target level and the
                        // shard re-derives in pass 2 with exact answers.
                        let needed = std::cell::RefCell::new(Vec::new());
                        let (edges, strag, deps) = derive_hng(
                            &shard,
                            levels,
                            links,
                            top,
                            *top_level,
                            &padded,
                            covers_all,
                            |_, _, j| {
                                needed.borrow_mut().push(j);
                                Vec::new()
                            },
                        );
                        let needed = needed.into_inner();
                        if !needed.is_empty() {
                            return Err(needed);
                        }
                        Ok((edges, strag, deps))
                    }
                }
                .map(sorted)
            })
            .collect();

        let is_hng = matches!(kind, IncTopology::Hng { .. });
        let mut escalate = Vec::new();
        let mut needed_levels: Vec<u32> = Vec::new();
        for (&s, res) in dirty.iter().zip(results) {
            match res {
                Ok((edges, strag, deps)) => {
                    self.store.replace(s, edges);
                    self.straggler[s] = strag;
                    if is_hng {
                        self.hng_deps[s] = deps;
                    }
                }
                Err(mut lv) => {
                    needed_levels.append(&mut lv);
                    escalate.push(s);
                }
            }
        }
        // Pass 2 — the lazy escalation path: only now, with answers the
        // dirty extents could not certify, pay for a wider gather. k-NN
        // goes global; HNG builds exact indexes over just the level
        // subsets its failed rungs target.
        let mut escalations = 0;
        if !escalate.is_empty() {
            escalations = 1;
            self.escalations += 1;
            if is_hng {
                gathered += self.rederive_hng_levels(
                    &escalate,
                    needed_levels,
                    &locals,
                    &indexes,
                    &group_of,
                    &alive_bbox,
                );
            } else {
                gathered += self.rederive_global(&escalate);
            }
        }
        (gathered, escalations)
    }

    /// HNG escalation: re-derive `dirty` with exact per-rung fallback
    /// answers from indexes over the alive level-`≥ j` subsets the probe
    /// pass requested — never the whole population. Gather cost is the
    /// sum of the needed level subsets' sizes, which the geometric level
    /// distribution keeps far below `n` whenever the cheapest (largest)
    /// levels certify locally. Returns the points gathered.
    #[allow(clippy::too_many_arguments)]
    fn rederive_hng_levels(
        &mut self,
        dirty: &[usize],
        mut needed: Vec<u32>,
        locals: &[(IdRemap, PointSet)],
        indexes: &[Option<wsn_spatial::SubIndex>],
        group_of: &[usize],
        alive_bbox: &Option<Aabb>,
    ) -> usize {
        let IncTopology::Hng { links, .. } = self.kind else {
            unreachable!("HNG-only escalation path");
        };
        needed.sort_unstable();
        needed.dedup();
        // Ascending universe ids and points of each needed level subset,
        // in one pass (needed ascends, so a node stops contributing at
        // its first too-high target level).
        let mut level_ids: Vec<Vec<u32>> = vec![Vec::new(); needed.len()];
        let mut level_pts: Vec<PointSet> = (0..needed.len()).map(|_| PointSet::new()).collect();
        for (u, p) in self.points.iter_enumerated() {
            if !self.alive[u as usize] {
                continue;
            }
            let lvl = self.levels[u as usize];
            for (row, &j) in needed.iter().enumerate() {
                if lvl < j {
                    break;
                }
                level_ids[row].push(u);
                level_pts[row].push(p);
            }
        }
        let level_indexes: Vec<GridIndex> = level_pts
            .iter()
            .map(|pts| GridIndex::build(pts, knn_cell_size(pts, links.max(1))))
            .collect();
        let gathered: usize = level_ids.iter().map(|v| v.len()).sum();
        let (grid, halo) = (&self.grid, self.halo);
        let (top_level, top) = (&self.hng_top.0, &self.hng_top.1);
        let levels = &self.levels;
        let needed = &needed;
        let (level_ids, level_indexes) = (&level_ids, &level_indexes);
        let results: Vec<ShardEdges> = dirty
            .to_vec()
            .into_par_iter()
            .map(|s| {
                let gi = group_of[s];
                let (remap, pts) = &locals[gi];
                let index = indexes[gi]
                    .as_ref()
                    .expect("escalated shards gathered points in pass 1");
                let shard = Shard::gather_mapped(pts, remap.to_universe(), index, grid, s, halo);
                let padded = grid.padded(s, halo);
                let covers_all = alive_bbox
                    .as_ref()
                    .is_some_and(|bb| padded.contains_aabb(bb));
                sorted(derive_hng(
                    &shard,
                    levels,
                    links,
                    top,
                    *top_level,
                    &padded,
                    covers_all,
                    |p, gu, j| {
                        let row = needed
                            .binary_search(&j)
                            .expect("every fallback level was recorded by the probe");
                        let ids = &level_ids[row];
                        let skip = if levels[gu as usize] >= j {
                            Some(
                                ids.binary_search(&gu)
                                    .expect("alive member of its own level set")
                                    as u32,
                            )
                        } else {
                            None
                        };
                        level_indexes[row]
                            .knn(p, links, skip)
                            .into_iter()
                            .map(|(v, d)| (ids[v as usize], d))
                            .collect()
                    },
                ))
            })
            .collect();
        for (&s, (edges, strag, deps)) in dirty.iter().zip(results) {
            self.store.replace(s, edges);
            self.straggler[s] = strag;
            self.hng_deps[s] = deps;
        }
        gathered
    }

    /// The k-NN escalation: compact the alive set, build one global index,
    /// and re-derive the listed shards against it — exact for every query
    /// the dirty extents could not certify. Returns the number of points
    /// gathered (= the alive population).
    fn rederive_global(&mut self, dirty: &[usize]) -> usize {
        let IncTopology::Knn { k } = self.kind else {
            unreachable!("k-NN-only escalation path");
        };
        let (sub, to_universe, to_compact) = compact(&self.points, &self.alive);
        let index = GridIndex::build(&sub, knn_cell_size(&sub, k.max(1)));
        let bbox = sub
            .bounding_box()
            .expect("escalated shards gathered alive points");
        let (grid, halo) = (&self.grid, self.halo);
        let results: Vec<ShardEdges> = dirty
            .to_vec()
            .into_par_iter()
            .map(|s| {
                let shard = Shard::gather_mapped(&sub, &to_universe, &index, grid, s, halo);
                let padded = grid.padded(s, halo);
                let covers_all = padded.contains_aabb(&bbox);
                let (lists, strag) = derive_knn(&shard, k, &padded, covers_all, |p, gu| {
                    index
                        .knn(p, k, Some(to_compact[gu as usize]))
                        .into_iter()
                        .map(|(v, _)| to_universe[v as usize])
                        .collect()
                });
                let mut edges = Vec::new();
                for (gu, list) in lists {
                    for v in list {
                        edges.push((gu.min(v), gu.max(v)));
                    }
                }
                sorted((edges, strag, HngDeps::default()))
            })
            .collect();
        for (&s, (edges, strag, _)) in dirty.iter().zip(results) {
            self.store.replace(s, edges);
            self.straggler[s] = strag;
        }
        sub.len()
    }

    /// Build the same topology cold — the monolithic reference builder on
    /// the alive survivors, in universe ids.
    pub fn cold_rebuild(&self) -> Csr {
        self.kind
            .build_alive(&self.points, &self.alive, Exec::Serial)
    }

    /// Edge-identity witness: the incrementally maintained CSR equals a
    /// cold rebuild on the survivors, byte for byte.
    #[must_use]
    pub fn verify_cold(&self) -> bool {
        self.csr == self.cold_rebuild()
    }
}

/// Compact the alive subset: survivor points in universe-id order plus the
/// strictly monotone compact→universe id map — the shared primitive every
/// cold-rebuild comparison path must agree on (byte-identity depends on
/// all of them ordering survivors the same way).
pub fn compact_alive(points: &PointSet, alive: &[bool]) -> (PointSet, Vec<u32>) {
    let (sub, to_universe, _) = compact(points, alive);
    (sub, to_universe)
}

/// Universe ids grouped by owner shard (counting sort, so ids stay
/// ascending within each shard) — built once per structure; the localized
/// gather scans only the rows overlapping a dirty extent group.
fn resident_lists(points: &PointSet, grid: &ShardGrid) -> (Vec<u32>, Vec<u32>) {
    let n_shards = grid.shard_count();
    let mut counts = vec![0u32; n_shards + 1];
    for p in points.iter() {
        counts[grid.owner_of(p) + 1] += 1;
    }
    for s in 0..n_shards {
        counts[s + 1] += counts[s];
    }
    let start = counts.clone();
    let mut cursor = counts;
    let mut ids = vec![0u32; points.len()];
    for (u, p) in points.iter_enumerated() {
        let s = grid.owner_of(p);
        ids[cursor[s] as usize] = u;
        cursor[s] += 1;
    }
    (start, ids)
}

/// Bounding box of the alive subset — the `covers_all` operand of the k-NN
/// straggler check, exactly as the global path computes it from the
/// compacted point set (same min/max fold, no allocation).
fn alive_bounding_box(points: &PointSet, alive: &[bool]) -> Option<Aabb> {
    let mut bb: Option<Aabb> = None;
    for (u, p) in points.iter_enumerated() {
        if !alive[u as usize] {
            continue;
        }
        let point_box = Aabb::new(p, p);
        bb = Some(match bb {
            None => point_box,
            Some(cur) => cur.union(&point_box),
        });
    }
    bb
}

/// Top occupied level of the alive population plus the ascending universe
/// ids holding it — the HNG clique. `(1, [])` when nothing is alive.
fn alive_top(levels: &[u32], alive: &[bool]) -> (u32, Vec<u32>) {
    let mut top = 1u32;
    for (u, &lvl) in levels.iter().enumerate() {
        if alive[u] && lvl > top {
            top = lvl;
        }
    }
    let ids: Vec<u32> = levels
        .iter()
        .enumerate()
        .filter(|&(u, &lvl)| alive[u] && lvl == top)
        .map(|(u, _)| u as u32)
        .collect();
    (top, ids)
}

/// [`compact_alive`] plus the universe→compact inverse (`u32::MAX` marks
/// dead) for the k-NN fallback's skip ids.
fn compact(points: &PointSet, alive: &[bool]) -> (PointSet, Vec<u32>, Vec<u32>) {
    let n_alive = alive.iter().filter(|&&a| a).count();
    let mut sub = PointSet::with_capacity(n_alive);
    let mut to_universe = Vec::with_capacity(n_alive);
    let mut to_compact = vec![u32::MAX; points.len()];
    for (g, p) in points.iter_enumerated() {
        if alive[g as usize] {
            to_compact[g as usize] = sub.len() as u32;
            to_universe.push(g);
            sub.push(p);
        }
    }
    (sub, to_universe, to_compact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::hash::derive_seed2;
    use wsn_geom::Aabb;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn pts(n: usize, seed: u64, side: f64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(side))
    }

    fn kinds() -> [IncTopology; 6] {
        [
            IncTopology::Udg { radius: 1.0 },
            IncTopology::Knn { k: 4 },
            IncTopology::Gabriel { radius: 1.2 },
            IncTopology::Rng { radius: 1.2 },
            IncTopology::Yao {
                radius: 1.0,
                cones: 6,
            },
            IncTopology::Hng {
                p: 0.5,
                links: 1,
                seed: 0x48_4E_47,
            },
        ]
    }

    /// Deterministic churn schedule: epoch `e` kills every alive node whose
    /// hash bucket matches and admits dead ones likewise.
    fn churn_sets(g: &IncrementalGraph, seed: u64, e: u64) -> (Vec<u32>, Vec<u32>) {
        let mut deaths = Vec::new();
        let mut joins = Vec::new();
        for u in 0..g.points().len() as u32 {
            let h = derive_seed2(seed, e, u as u64);
            if g.alive()[u as usize] {
                if h.is_multiple_of(10) {
                    deaths.push(u);
                }
            } else if h.is_multiple_of(4) {
                joins.push(u);
            }
        }
        (deaths, joins)
    }

    #[test]
    fn initial_build_matches_cold_for_every_kind() {
        let p = pts(300, 1, 8.0);
        // A fifth of the universe starts dead (a reserve pool).
        let alive: Vec<bool> = (0..p.len()).map(|i| i % 5 != 0).collect();
        for kind in kinds() {
            let g = IncrementalGraph::build(p.clone(), alive.clone(), kind, 2);
            assert!(g.verify_cold(), "{kind:?}");
            assert_eq!(g.n_alive(), alive.iter().filter(|&&a| a).count());
        }
    }

    #[test]
    fn repeated_churn_epochs_stay_edge_identical_to_cold() {
        let p = pts(260, 2, 8.0);
        let alive = vec![true; p.len()];
        for kind in kinds() {
            let mut g = IncrementalGraph::build(p.clone(), alive.clone(), kind, 2);
            for e in 0..4u64 {
                let (deaths, joins) = churn_sets(&g, 99, e);
                let stats = g.apply_churn(&deaths, &joins);
                assert_eq!(stats.dirty, stats.event_local + stats.rederived);
                assert_eq!(stats.events, deaths.len() + joins.len());
                assert!(
                    g.verify_cold(),
                    "{kind:?} diverged from cold rebuild at epoch {e}"
                );
            }
        }
    }

    #[test]
    fn udg_death_only_churn_is_event_local() {
        let p = pts(400, 3, 10.0);
        let mut g =
            IncrementalGraph::build(p, vec![true; 400], IncTopology::Udg { radius: 1.0 }, 2);
        assert_eq!(g.edge_store().emission_count(), 0, "UDG keeps no cache");
        let deaths: Vec<u32> = (0..400u32).filter(|u| u % 7 == 0).collect();
        let stats = g.apply_churn(&deaths, &[]);
        assert!(stats.dirty > 0);
        assert_eq!(stats.event_local, stats.dirty);
        assert_eq!(
            stats.rederived, 0,
            "deaths-only UDG churn re-derives nothing"
        );
        assert_eq!(stats.gathered, 0, "deaths-only UDG churn scans nothing");
        assert_eq!(stats.events, deaths.len());
        assert!(g.verify_cold());
    }

    #[test]
    fn localised_churn_leaves_far_shards_clean() {
        let p = pts(500, 4, 16.0);
        let mut g =
            IncrementalGraph::build(p, vec![true; 500], IncTopology::Rng { radius: 1.0 }, 2);
        // Kill only nodes in one corner.
        let deaths: Vec<u32> = g
            .points()
            .iter_enumerated()
            .filter(|&(u, q)| q.x < 3.0 && q.y < 3.0 && g.alive()[u as usize])
            .map(|(u, _)| u)
            .collect();
        assert!(!deaths.is_empty());
        let stats = g.apply_churn(&deaths, &[]);
        assert!(
            stats.dirty < stats.shard_count,
            "corner churn must leave shards clean ({} of {} dirty)",
            stats.dirty,
            stats.shard_count
        );
        assert!(g.verify_cold());
    }

    #[test]
    fn churn_to_extinction_and_back() {
        let p = pts(60, 5, 4.0);
        let mut g = IncrementalGraph::build(
            p,
            vec![true; 60],
            IncTopology::Gabriel { radius: 1.0 },
            WHOLE_WINDOW,
        );
        let everyone: Vec<u32> = (0..60).collect();
        g.apply_churn(&everyone, &[]);
        assert_eq!(g.n_alive(), 0);
        assert_eq!(g.graph().m(), 0);
        assert!(g.verify_cold());
        g.apply_churn(&[], &everyone);
        assert_eq!(g.n_alive(), 60);
        assert!(g.verify_cold());
    }

    #[test]
    fn dirty_extents_cover_churn_and_clear_on_quiescence() {
        let p = pts(400, 7, 16.0);
        let mut g =
            IncrementalGraph::build(p, vec![true; 400], IncTopology::Rng { radius: 1.0 }, 2);
        assert!(g.dirty_extents().is_empty(), "no churn yet");
        let deaths: Vec<u32> = g
            .points()
            .iter_enumerated()
            .filter(|&(_, q)| q.x < 3.0 && q.y < 3.0)
            .map(|(u, _)| u)
            .collect();
        assert!(!deaths.is_empty());
        g.apply_churn(&deaths, &[]);
        let extents: Vec<Aabb> = g.dirty_extents().to_vec();
        assert!(!extents.is_empty());
        for &d in &deaths {
            let q = g.points().get(d);
            assert!(
                extents.iter().any(|e| e.contains(q)),
                "death {d} outside every dirty extent"
            );
        }
        // Far corner stays outside the invalidation footprint.
        let window = g.points().bounding_box().unwrap();
        assert!(extents.iter().all(|e| !e.contains(window.max)));
        // A quiescent epoch publishes an empty footprint.
        g.apply_churn(&[], &[]);
        assert!(g.dirty_extents().is_empty());
    }

    #[test]
    fn hng_corner_churn_of_leaf_nodes_stays_local() {
        use crate::hng::hng_levels;
        let p = pts(600, 8, 16.0);
        let kind = IncTopology::Hng {
            p: 0.5,
            links: 2,
            seed: 0xC0DE,
        };
        let mut g = IncrementalGraph::build(p, vec![true; 600], kind, 2);
        let levels = hng_levels(600, 0.5, 0xC0DE);
        // Kill only level-1 nodes in one corner: they answer no uplink
        // query and sit in no clique, so the dependence tracking must
        // keep the repair to the corner instead of escalating the whole
        // population the way the straggler-forcing path used to.
        let deaths: Vec<u32> = g
            .points()
            .iter_enumerated()
            .filter(|&(u, q)| q.x < 3.0 && q.y < 3.0 && levels[u as usize] == 1)
            .map(|(u, _)| u)
            .collect();
        assert!(!deaths.is_empty());
        let stats = g.apply_churn(&deaths, &[]);
        assert!(
            stats.dirty < stats.shard_count,
            "corner HNG churn must leave shards clean ({} of {} dirty)",
            stats.dirty,
            stats.shard_count
        );
        assert!(g.verify_cold());
    }

    #[test]
    fn hng_top_member_death_repairs_the_clique() {
        use crate::hng::hng_levels;
        let p = pts(400, 9, 12.0);
        let kind = IncTopology::Hng {
            p: 0.5,
            links: 1,
            seed: 7,
        };
        let mut g = IncrementalGraph::build(p, vec![true; 400], kind, 2);
        let levels = hng_levels(400, 0.5, 7);
        let (t, tops) = alive_top(&levels, g.alive());
        assert!(t >= 2, "population too small to roll a hierarchy");
        // Killing a clique member changes the maintained top set: every
        // surviving peer re-derives its clique edges and any rung that
        // targeted the dead node re-answers, but the result must still be
        // byte-identical to a cold rebuild on the survivors.
        g.apply_churn(&[tops[0]], &[]);
        assert!(g.verify_cold());
        // Reviving it restores the original top set just as exactly.
        g.apply_churn(&[], &[tops[0]]);
        assert!(g.verify_cold());
    }

    #[test]
    #[should_panic(expected = "already-dead")]
    fn double_death_is_a_logic_error() {
        let p = pts(20, 6, 3.0);
        let mut g = IncrementalGraph::build(p, vec![true; 20], IncTopology::Udg { radius: 1.0 }, 2);
        g.apply_churn(&[3], &[]);
        g.apply_churn(&[3], &[]);
    }
}
