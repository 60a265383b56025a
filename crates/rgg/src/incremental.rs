//! Incrementally maintained topologies under node churn.
//!
//! A lifetime simulation kills and admits nodes every epoch; rebuilding a
//! million-node topology from scratch per epoch would dominate wall-clock.
//! [`IncrementalGraph`] instead keeps the graph as a chunked CSR
//! ([`wsn_graph::ChunkedCsr`]) across epochs — the only copy of the graph
//! it keeps — and repairs it per churn *event*, using the local
//! computability of every plain kind: a node's selection depends only on a
//! bounded neighbourhood, so an event can change only the owners whose
//! certificate covers it.
//!
//! * Node ids live in a fixed **universe** id space (the initial deployment
//!   plus any reserve pool); churn toggles an alive mask, never re-indexes.
//!   Churn draws, HNG level promotion and every golden are seeded per
//!   universe id, so the API speaks **deployment ids**: deaths, joins,
//!   [`IncrementalGraph::alive`], [`IncrementalGraph::changed`],
//!   [`IncrementalGraph::points`] and [`IncrementalGraph::cold_rebuild`].
//! * Inside, everything lives in **Morton-rank space**: the universe is
//!   laid out once in Z-order ([`PointOrder::morton`]), and the maintained
//!   CSR's rows, the repair's points, alive mask, universe indexes and HNG
//!   levels are all rank-indexed, so a traversal or a repair reads memory
//!   in spatial order. [`IncrementalGraph::graph`] is that rank-space
//!   graph. Its rows hold ranks **sorted by the neighbours' deployment
//!   ids** ([`ChunkedCsr`]), so every traversal visits nodes in the order
//!   it would on the deployment-id graph, and its equality and fingerprint
//!   read through the rank → deployment-id map. Selection ties at exactly
//!   equal distances (k-NN, Yao, HNG) still break by deployment id, as in
//!   the cold builders; the Gabriel and RNG edge sets are symmetric, so
//!   those kinds assign each edge to its smaller-*rank* endpoint.
//! * Every repair is **byte-identical to a cold rebuild** — the survivors
//!   built through the one cold-build dispatch,
//!   [`IncTopology::build_alive`] — asserted by
//!   [`IncrementalGraph::verify_cold`] (the monolithic [`Exec::Serial`]
//!   oracle), the churn engine's debug path, and
//!   `tests/churn_incremental.rs` / `tests/churn_locality.rs`.
//! * The UDG repairs from the events alone: a death withdraws its current
//!   CSR row, and a join adds the alive nodes inside its disk, found by a
//!   disk query on the universe index with the derivation's `dist² ≤ r²`
//!   predicate. Disk membership depends on the two endpoints alone, so no
//!   other node is re-examined.
//! * Every other kind repairs per **owner**. An owner's emissions are its
//!   selections: the Gabriel/RNG edges to larger ids it keeps, its Yao
//!   cone minima, its k nearest, its HNG uplink rungs and clique. Each
//!   owner carries a *certificate* — a closed ball and a level floor such
//!   that only an event of at least that level inside the ball can change
//!   the selection: the radius for Gabriel, RNG and Yao (a blocker, lune
//!   witness or cone rival lies within `|uv| ≤ r`), the k-th-neighbour
//!   distance for k-NN, and each rung's `links`-th distance for HNG (only
//!   nodes of level `≥ j` compete in rung `j`). A change of the HNG top
//!   level or its clique re-selects every owner at or above it.
//! * The owners an event can reach are the universe nodes within the
//!   `halo` of it — one disk query each on the universe index — plus the
//!   *far* owners, whose k-NN or HNG certificate ball is wider than the
//!   halo (kept as a short list between repairs). Each candidate reads its
//!   current selection off its CSR row — every selection is an edge, and
//!   every other neighbour ranks after the selections it competes with —
//!   and only the candidates whose certificate holds an event are
//!   re-selected against the alive universe, through indexes built once
//!   over the fixed universe (per level for HNG, whose levels never change)
//!   and queried with the alive mask. The emission delta of each
//!   re-selected owner goes to [`ChunkedCsr::splice`], whose per-entry
//!   multiplicities count the owners backing an edge.
//! * Repair work is therefore **proportional to the events' own
//!   neighbourhoods**, with no per-shard cache, gather, local index or
//!   escalation anywhere. The shard plan only lays out the CSR's chunks and
//!   counts [`RepairStats::dirty`].
//! * Each repair publishes the nodes it touched,
//!   [`IncrementalGraph::changed`]: its deaths and joins and every endpoint
//!   of the edge delta it spliced. A node outside that set kept its
//!   liveness and its whole row, which is the serve path's route-cache
//!   eviction rule.

use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use wsn_geom::{Aabb, Point, ShardGrid};
use wsn_graph::components::{connected_components, LabelRepair, LiveComponents};
use wsn_graph::{fingerprint, ChunkedCsr, Csr};
use wsn_pointproc::{PointOrder, PointSet};
use wsn_spatial::{CellIndex, GridIndex};

use crate::sharded::{
    emission_runs, gabriel_owner, knn_cell_size, rng_owner, sort_by_distance, yao_offer,
};
use crate::{hng_halo, knn_halo, Exec, WHOLE_WINDOW};

/// The plain topologies the incremental engine can maintain (the SENS
/// constructions repair by per-epoch rebuild instead). Every kind repairs
/// per churn event (see [`IncrementalGraph::apply_churn`]): the UDG from
/// the events' own rows and disks, every other kind by re-selecting the
/// owners whose certificate ball holds an event — the radius for Gabriel,
/// RNG and Yao, the k-th-neighbour distance for k-NN, each uplink rung's
/// reach for HNG.
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
/// Every repair is event-local, so the two shard re-derivation counters
/// stay 0; they remain so reports keep their shape, and `dirty` is a
/// locality count the repair itself does not read.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepairStats {
    /// Total shards in the plan.
    pub shard_count: usize,
    /// Churn events handed in: `deaths.len() + joins.len()` (an id passed
    /// as both a death and a join counts twice).
    pub events: usize,
    /// Shards whose ghost-padded extent holds an event: how far the churn
    /// spread over the shard plan. The repair finds its candidates from
    /// the events' own disks, not from these shards.
    pub dirty: usize,
    /// Shards repaired by full re-derivation (always 0).
    pub rederived: usize,
    /// Points the repair examined: for UDG, the universe nodes inside the
    /// joins' disks (0 for a deaths-only repair); for every other kind, the
    /// candidate owners whose certificate it checked (the universe nodes
    /// within the halo of an event, alive before or after the repair, plus
    /// the far owners and the owners a top change reaches). The locality
    /// regression tests pin exactly this proportionality.
    pub gathered: usize,
    /// Whole-population index constructions (always 0: the repair queries
    /// indexes built once over the fixed universe).
    pub escalations: usize,
    /// Nodes whose neighbour list the repair changed — the distinct
    /// endpoints of the net edge delta.
    pub affected_owners: usize,
    /// Wall-clock seconds spent splicing the net edge delta into the
    /// chunked CSR.
    pub splice_secs: f64,
    /// Chunks the splice rewrote (owner chunks of the delta's endpoints).
    pub spliced_chunks: usize,
    /// The component-label repair after the splice: the nodes its local
    /// search visited and whether it fell back to the full pass.
    pub labels: LabelRepair,
}

/// One owner's certificate: only an event of level `≥ level` inside the
/// closed ball of squared radius `r2` around `node` can change the
/// selection it covers (`r2` is infinite when the selection ran short, so
/// any such event can). k-NN and the threshold kinds use level 0.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cert {
    node: u32,
    level: u32,
    r2: f64,
}

/// An owner's emissions (the targets it selects, as a multiset: an HNG
/// node may select one target from two rungs) and their certificates.
type Selection = (Vec<u32>, Vec<Cert>);

/// Per-repair marks, per rank: the node died or joined (both, for an id
/// that died and rejoined), was re-selected.
const DIED: u8 = 1;
const JOINED: u8 = 2;
const EVENT: u8 = DIED | JOINED;
const RESELECTED: u8 = 4;

/// A churn-maintained topology over a fixed universe of points.
///
/// Every field but the deployment-id views (`alive`, `changed`) is
/// indexed by Morton rank.
pub struct IncrementalGraph {
    kind: IncTopology,
    /// The shard plan: it lays out the CSR's chunks and counts
    /// [`RepairStats::dirty`]; the repair reads no shard.
    grid: ShardGrid,
    /// The repair's candidate radius (the topology radius, or the k-NN /
    /// HNG halo of the initial alive population), which also pads the shard
    /// plan — fixed for the structure's lifetime.
    halo: f64,
    /// The alive mask by deployment id: the API's view.
    alive: Vec<bool>,
    /// The universe in Morton-rank order (`rank_points.get(r)` is
    /// deployment point `to_orig[r]`, bit for bit), shared with the serve
    /// readers, and the same alive mask by rank.
    rank_points: Arc<PointSet>,
    rank_alive: Vec<bool>,
    n_alive: usize,
    /// The maintained adjacency: one chunk per shard, spliced in place —
    /// total epoch cost stays proportional to the churned region. It also
    /// carries the rank ↔ deployment-id maps.
    csr: ChunkedCsr,
    /// HNG level per rank, rolled once at build from the kind's seed per
    /// deployment id (empty for every other kind). Levels never change
    /// under churn.
    levels: Vec<u32>,
    /// Queries over the fixed universe, answered under the alive mask.
    /// `indexes[0]` holds every universe node — the index of the UDG's
    /// join disks and of every kind's candidate owners — at cell = radius
    /// for the threshold kinds and at the k-NN cell otherwise. For HNG,
    /// `indexes[j − 1]` holds the universe nodes of level `≥ j`, the
    /// candidates of uplink rung `j`.
    indexes: Vec<CellIndex>,
    /// The certificates whose ball is wider than the halo, ascending by
    /// node — the owners an event outside their own halo disk can still
    /// reach. Only k-NN and HNG have any.
    far: Vec<Cert>,
    /// The alive population's top occupied level and its ascending member
    /// ranks — the HNG clique (`(1, [])` for every other kind).
    hng_top: (u32, Vec<u32>),
    /// Per deployment id, whether the *last*
    /// [`IncrementalGraph::apply_churn`] touched it (see
    /// [`IncrementalGraph::changed`]); all false before any churn.
    changed: Vec<bool>,
    /// The graph's components (per rank, the smallest deployment id in its
    /// component), seeded at build and repaired from each splice's deleted
    /// and created edges.
    components: LiveComponents,
}

impl IncrementalGraph {
    /// Build the initial structure over `points` restricted to `alive`.
    ///
    /// `tiles_per_shard` sizes the repair granularity in halo units
    /// (smaller shards localise the candidate owners and the splice better
    /// but make more chunks); [`WHOLE_WINDOW`] degenerates to one shard.
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
        let n = points.len();
        let n_alive = alive.iter().filter(|&&a| a).count();
        let levels = kind.levels(n);
        let (ranked, to_orig, to_rank) = PointOrder::morton(&points).into_parts();
        let rank_alive: Vec<bool> = to_orig.iter().map(|&u| alive[u as usize]).collect();
        // The initial emission derives over the survivors in deployment
        // order, as the cold builders do (selection ties break by id), and
        // is lifted into ranks through this compact id → rank map.
        let (sub, to_universe) = compact_alive(&points, &alive);
        let sub_rank: Vec<u32> = to_universe.iter().map(|&u| to_rank[u as usize]).collect();
        let bbox = points.bounding_box();
        // From here on the graph reads only the rank-ordered copy.
        drop((points, to_universe, to_rank));
        let levels_sub = survivor_levels(&levels, &alive);
        let halo = match kind {
            IncTopology::Udg { radius }
            | IncTopology::Gabriel { radius }
            | IncTopology::Rng { radius }
            | IncTopology::Yao { radius, .. } => {
                assert!(radius > 0.0, "radius must be positive");
                radius
            }
            _ if sub.is_empty() => 1.0,
            IncTopology::Knn { k } => knn_halo(&sub, k.max(1)),
            IncTopology::Hng { links, .. } => hng_halo(&sub, &levels_sub, links.max(1)),
        };
        let bbox = bbox.unwrap_or_else(|| Aabb::square(halo.max(1.0)));
        let grid = if tiles_per_shard == WHOLE_WINDOW {
            ShardGrid::whole(&bbox)
        } else {
            ShardGrid::new(&bbox, halo, tiles_per_shard)
        };
        let ranked = Arc::new(ranked);
        let levels: Vec<u32> = match levels.is_empty() {
            true => levels,
            false => to_orig.iter().map(|&u| levels[u as usize]).collect(),
        };

        // The cold sharded build's emission runs over the survivors, lifted
        // into ranks; one chunk per shard, so each node's adjacency lives
        // in its owner shard's chunk, rows sorted by deployment id, and
        // repeated emissions (k-NN, Yao, HNG) fold into per-entry
        // multiplicities.
        let (mut runs, _) = emission_runs(kind, &sub, &levels_sub, tiles_per_shard);
        (&mut runs).into_par_iter().for_each(|run| {
            for e in run.iter_mut() {
                *e = (sub_rank[e.0 as usize], sub_rank[e.1 as usize]);
            }
        });
        drop((sub, sub_rank));
        let chunk_of: Vec<u32> = ranked.iter().map(|p| grid.owner_of(p) as u32).collect();
        let csr = ChunkedCsr::build_ranked(grid.shard_count(), &chunk_of, to_orig, runs);
        let changed = vec![false; n];
        // The components pass that seeds the labels is serial; the query
        // indexes build beside it.
        let (components, indexes) = rayon::join(
            || LiveComponents::new(&csr),
            || query_indexes(kind, &ranked, &levels),
        );

        let mut g = IncrementalGraph {
            kind,
            grid,
            halo,
            alive,
            rank_points: ranked,
            rank_alive,
            n_alive,
            csr,
            levels,
            indexes,
            far: Vec::new(),
            hng_top: (1, Vec::new()),
            changed,
            components,
        };
        if let IncTopology::Hng { .. } = kind {
            g.hng_top = g.alive_top();
        }
        // A threshold kind's ball is the halo itself, so only k-NN and HNG
        // certificates can be far.
        if let IncTopology::Knn { .. } | IncTopology::Hng { .. } = kind {
            let top = &g.hng_top;
            let certs: Vec<Vec<Cert>> = (0..g.rank_points.len() as u32)
                .into_par_iter()
                .filter(|&u| g.rank_alive[u as usize])
                .map(|u| g.far_certs(g.current_selection(u, top).1))
                .collect();
            g.far = certs.concat();
        }
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

    /// The maintained graph in Morton-rank space (dead nodes isolated):
    /// node `r` is deployment id `graph().to_orig()[r]`, and each row holds
    /// ranks sorted by deployment id. Its equality and fingerprint (kept
    /// with its rows: [`ChunkedCsr::fingerprint`]) are in deployment ids;
    /// positions of its nodes are [`IncrementalGraph::rank_points`].
    #[inline]
    pub fn graph(&self) -> &ChunkedCsr {
        &self.csr
    }

    /// The universe point set in deployment order (fixed; includes dead
    /// and reserve nodes), gathered from
    /// [`IncrementalGraph::rank_points`] on each call.
    pub fn points(&self) -> PointSet {
        let ranked = &self.rank_points;
        PointSet::from_points(self.csr.to_rank().iter().map(|&r| ranked.get(r)))
    }

    /// The universe point set in rank order — the positions of
    /// [`IncrementalGraph::graph`]'s nodes — shared so a reader can hold it
    /// beside a snapshot of the graph.
    #[inline]
    pub fn rank_points(&self) -> &Arc<PointSet> {
        &self.rank_points
    }

    /// The graph's connected components, kept across repairs (see
    /// [`IncrementalGraph::apply_churn`]): per rank, the smallest
    /// deployment id in its component (`components().by_id(graph())`
    /// re-keys them by deployment id), the count and the giant.
    #[inline]
    pub fn components(&self) -> &LiveComponents {
        &self.components
    }

    /// Liveness per deployment id.
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

    /// Per deployment id, whether the last
    /// [`IncrementalGraph::apply_churn`] call touched the node: it died or
    /// joined, or it is an endpoint of an edge the repair removed or added.
    /// Every node whose liveness or row changed is marked (a cancelled pair
    /// may mark a few more), so a path of unmarked nodes that was valid
    /// before the call is valid after it — the serve path's route-cache
    /// eviction rule. All false before any churn and after a quiescent
    /// call.
    #[inline]
    pub fn changed(&self) -> &[bool] {
        &self.changed
    }

    /// Kill `deaths` and admit `joins` (deployment ids), then repair what
    /// the churn touched. Returns what the repair did.
    ///
    /// The UDG builds its net edge delta from the events themselves: each
    /// death withdraws its current row, each join adds its disk. Every
    /// other kind re-selects the candidate owners whose certificate holds
    /// an event and diffs their old and new emissions. Either way the delta
    /// is spliced into the chunked CSR, which rehashes the rows it
    /// rewrites, and the component labels are repaired from the edges the
    /// splice deleted and created.
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
        let to_rank = self.csr.to_rank();
        let deaths: Vec<u32> = deaths.iter().map(|&d| to_rank[d as usize]).collect();
        let joins: Vec<u32> = joins.iter().map(|&j| to_rank[j as usize]).collect();
        for &d in &deaths {
            self.rank_alive[d as usize] = false;
        }
        for &j in &joins {
            self.rank_alive[j as usize] = true;
        }
        self.n_alive = self.n_alive + joins.len() - deaths.len();
        let mut events: Vec<u32> = deaths.iter().chain(&joins).copied().collect();
        // Ranks are Morton order: consecutive events query the same cells.
        events.sort_unstable();
        let mut stats = RepairStats {
            shard_count: self.grid.shard_count(),
            events: events.len(),
            ..RepairStats::default()
        };

        // The shards whose padded extent holds an event: a locality count
        // only, the repair reads no shard.
        let mut near = vec![false; self.grid.shard_count()];
        for &c in &events {
            for s in self.grid.shards_near(self.rank_points.get(c), self.halo) {
                near[s] = true;
            }
        }
        stats.dirty = near.iter().filter(|&&d| d).count();
        self.changed.fill(false);
        // A quiescent epoch leaves the CSR untouched.
        if events.is_empty() {
            return stats;
        }
        let (removed, added) = if let IncTopology::Udg { radius } = self.kind {
            let (removed, added, scanned) = self.udg_event_delta(&deaths, &joins, radius);
            stats.gathered = scanned;
            (removed, added)
        } else {
            let (removed, added, candidates) = self.owner_delta(&deaths, &joins, &events);
            stats.gathered = candidates;
            (removed, added)
        };
        // The splice consumes the repair as a net edge delta, so the CSR
        // work tracks what changed — O(delta) — not the graph. The delta is
        // routed by endpoint, so a node in any chunk updates when one of its
        // edges appears or disappears.
        let splice_start = Instant::now();
        let splice = self.csr.splice(&removed, &added);
        stats.splice_secs = splice_start.elapsed().as_secs_f64();
        stats.affected_owners = splice.nodes_touched;
        stats.spliced_chunks = splice.chunks_touched;
        let (csr, components, changed) = (&self.csr, &mut self.components, &mut self.changed);
        let (labels, ()) = rayon::join(
            || components.update(csr, &splice.edges_removed, &splice.edges_added),
            || {
                // Publish hook for the serve path: the events and every
                // endpoint of the delta, a superset of the nodes whose
                // liveness or row changes.
                let endpoints = removed.iter().chain(&added).flat_map(|&(u, v)| [u, v]);
                for u in events.iter().copied().chain(endpoints) {
                    changed[csr.to_orig()[u as usize] as usize] = true;
                }
            },
        );
        stats.labels = labels;
        stats
    }

    /// The UDG's net edge delta straight from the churn events (ranks),
    /// after the alive toggles. Returns `(removed, added, universe nodes
    /// inside the join disks)`.
    ///
    /// * A death withdraws its current CSR row; an edge between two deaths
    ///   is withdrawn once, by its smaller-rank endpoint.
    /// * A join adds every alive node inside its disk; a pair of joins is
    ///   added once, by its smaller-rank endpoint.
    ///
    /// Every edge of the old graph that touches no death survives into
    /// the new one (disk membership depends on the two endpoints alone),
    /// and every new edge that touches no join was an old edge between
    /// survivors — so old − removed + added is the new graph exactly. An
    /// id that both died and rejoined withdraws its old row and adds its
    /// new disk; the splice cancels what the two share.
    ///
    /// The disk query on the universe index applies the derivation's
    /// `dist² ≤ r²` predicate, so the emitted pairs are exactly the cold
    /// build's.
    #[allow(clippy::type_complexity)]
    fn udg_event_delta(
        &self,
        deaths: &[u32],
        joins: &[u32],
        radius: f64,
    ) -> (Vec<(u32, u32)>, Vec<(u32, u32)>, usize) {
        let mut event = vec![0u8; self.rank_points.len()];
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
        let (index, points, alive) = (&self.indexes[0], &self.rank_points, &self.rank_alive);
        let disks: Vec<(Vec<(u32, u32)>, usize)> = joins
            .into_par_iter()
            .map(|&j| {
                let mut out = Vec::new();
                let mut inside = 0usize;
                index.for_each_in_disk(points, points.get(j), radius, |v, _| {
                    inside += 1;
                    if v != j && alive[v as usize] && !(event[v as usize] & JOINED != 0 && v < j) {
                        out.push((j.min(v), j.max(v)));
                    }
                });
                (out, inside)
            })
            .collect();
        let scanned = disks.iter().map(|(_, s)| s).sum();
        let added = disks.into_iter().flat_map(|(out, _)| out).collect();
        (removed, added, scanned)
    }

    /// The non-UDG repair, after the alive toggles: re-select every
    /// candidate owner whose certificate holds an event and diff its old
    /// and new emissions. `events` is `deaths` and `joins` (ranks) in rank
    /// order. Returns `(removed, added, candidates examined)`.
    #[allow(clippy::type_complexity)]
    fn owner_delta(
        &mut self,
        deaths: &[u32],
        joins: &[u32],
        events: &[u32],
    ) -> (Vec<(u32, u32)>, Vec<(u32, u32)>, usize) {
        let mut mark = vec![0u8; self.rank_points.len()];
        for &d in deaths {
            mark[d as usize] |= DIED;
        }
        for &j in joins {
            mark[j as usize] |= JOINED;
        }
        let top_old = std::mem::take(&mut self.hng_top);
        let top_new = match self.kind {
            IncTopology::Hng { .. } => self.alive_top(),
            _ => top_old.clone(),
        };
        // A new top level or clique re-selects every owner at or above the
        // lower of the two top levels: exactly the nodes whose clique
        // membership or rung count (`min(ℓ, T − 1)`) can differ.
        let top_floor = (top_new != top_old).then(|| top_new.0.min(top_old.0));

        let event_pts: PointSet = events.iter().map(|&w| self.rank_points.get(w)).collect();
        let event_index = GridIndex::build(&event_pts, self.halo);
        let holds_event = |c: &Cert| {
            let p = self.rank_points.get(c.node);
            let reach = (c.r2 * (1.0 + 1e-9)).sqrt();
            event_index
                .find_in_disk(p, reach, |i, q| {
                    self.level(events[i as usize]) >= c.level && q.dist_sq(p) <= c.r2
                })
                .is_some()
        };

        // Candidates, alive before or after: the universe nodes within the
        // halo of an event, the far owners whose far certificate holds an
        // event (any other certificate of theirs fits the halo, so an event
        // it holds finds its owner in its disk), and the owners a top
        // change reaches.
        let far_hit: Vec<u32> = (&self.far)
            .into_par_iter()
            .filter(|c| holds_event(c))
            .map(|c| c.node)
            .collect();
        let pickable = |u: u32| mark[u as usize] & EVENT != 0 || self.rank_alive[u as usize];
        // The disks of consecutive (Morton-ordered) events overlap, so each
        // block of events dedups its own picks; the blocks' picks merge by
        // sort and dedup.
        const EVENTS_PER_TASK: usize = 256;
        let n = self.rank_points.len();
        let blocks: Vec<Vec<u32>> = (0..events.len().div_ceil(EVENTS_PER_TASK))
            .into_par_iter()
            .map_init(
                || vec![false; n],
                |seen, t| {
                    let lo = t * EVENTS_PER_TASK;
                    let mut picked = Vec::new();
                    for &e in &events[lo..(lo + EVENTS_PER_TASK).min(events.len())] {
                        let p = self.rank_points.get(e);
                        self.indexes[0].for_each_in_disk(
                            &self.rank_points,
                            p,
                            self.halo,
                            |u, _| {
                                if !seen[u as usize] && pickable(u) {
                                    seen[u as usize] = true;
                                    picked.push(u);
                                }
                            },
                        );
                    }
                    picked.iter().for_each(|&u| seen[u as usize] = false);
                    picked
                },
            )
            .collect();
        let mut candidates = blocks.concat();
        candidates.extend(far_hit.into_iter().filter(|&u| pickable(u)));
        if let Some(t) = top_floor {
            let top = self.indexes[t as usize - 1].members().iter().copied();
            candidates.extend(top.filter(|&u| pickable(u)));
        }
        // Ranks are Morton order: consecutive owners query the same cells.
        candidates.sort_unstable();
        candidates.dedup();

        /// One worker's share of the repair.
        #[derive(Default)]
        struct Part {
            removed: Vec<(u32, u32)>,
            added: Vec<(u32, u32)>,
            reselected: Vec<u32>,
            far: Vec<Cert>,
        }
        const OWNERS_PER_TASK: usize = 256;
        let this = &*self;
        let (candidates, flags) = (&candidates, &mark);
        let parts: Vec<Part> = (0..candidates.len().div_ceil(OWNERS_PER_TASK))
            .into_par_iter()
            .map(|t| {
                let mut part = Part::default();
                let lo = t * OWNERS_PER_TASK;
                for &u in &candidates[lo..(lo + OWNERS_PER_TASK).min(candidates.len())] {
                    let event = flags[u as usize] & EVENT;
                    let alive_new = this.rank_alive[u as usize];
                    let alive_old = match event {
                        JOINED => false,
                        0 => alive_new,
                        _ => true,
                    };
                    let (mut old, certs) = match alive_old {
                        true => this.current_selection(u, &top_old),
                        false => Selection::default(),
                    };
                    let forced = event != 0 || top_floor.is_some_and(|t| this.level(u) >= t);
                    if !forced && !certs.iter().any(&holds_event) {
                        continue;
                    }
                    part.reselected.push(u);
                    let (mut new, certs) = match alive_new {
                        true => this.reselect(u, &top_new),
                        false => Selection::default(),
                    };
                    part.far.extend(this.far_certs(certs));
                    old.sort_unstable();
                    new.sort_unstable();
                    multiset_diff(u, &old, &new, &mut part.removed, &mut part.added);
                }
                part
            })
            .collect();

        let (mut removed, mut added) = (Vec::new(), Vec::new());
        let (mut reselected, mut far) = (Vec::new(), Vec::new());
        for mut p in parts {
            removed.append(&mut p.removed);
            added.append(&mut p.added);
            reselected.append(&mut p.reselected);
            far.append(&mut p.far);
        }
        // An owner that was not re-selected kept its selection, and with it
        // its certificates.
        for &u in &reselected {
            mark[u as usize] |= RESELECTED;
        }
        far.extend(
            self.far
                .iter()
                .filter(|c| mark[c.node as usize] & RESELECTED == 0),
        );
        far.sort_unstable_by_key(|c| (c.node, c.level));
        self.far = far;
        self.hng_top = top_new;
        (removed, added, candidates.len())
    }

    /// Owner `u`'s emissions and certificates in the graph as it stands,
    /// read off its CSR row (the top clique `top` as it stands too). Every
    /// selection is an edge, so it is in the row, and every other
    /// neighbour ranks after the selections it competes with: the k
    /// `(distance, deployment id)`-least neighbours are the k-NN list, the
    /// least of each cone the Yao selection, and per rung the least
    /// neighbours of level `≥ j` the HNG uplinks.
    fn current_selection(&self, u: u32, top: &(u32, Vec<u32>)) -> Selection {
        let p = self.rank_points.get(u);
        let row = self.csr.neighbors(u);
        match self.kind {
            IncTopology::Udg { .. } => unreachable!("the UDG repairs from its events"),
            IncTopology::Gabriel { radius } | IncTopology::Rng { radius } => {
                let targets = row.iter().copied().filter(|&v| v > u).collect();
                (targets, vec![Cert::ball(u, radius)])
            }
            IncTopology::Yao { radius, cones } => {
                let mut best = vec![None; cones];
                for &v in row {
                    yao_offer(p, self.orig(v), self.rank_points.get(v), &mut best);
                }
                (self.cone_targets(&best), vec![Cert::ball(u, radius)])
            }
            IncTopology::Knn { k } => {
                let targets = self.least(p, row.iter().copied(), k);
                self.selection(u, targets, k, 0)
            }
            IncTopology::Hng { links, .. } => {
                let mut sel = Selection::default();
                for j in self.rungs(u, top.0) {
                    let cands = row
                        .iter()
                        .copied()
                        .filter(|&v| self.levels[v as usize] >= j);
                    let (t, c) = self.selection(u, self.least(p, cands, links), links, j);
                    sel.0.extend(t);
                    sel.1.extend(c);
                }
                self.clique(u, top, &mut sel.0);
                sel
            }
        }
    }

    /// Owner `u`'s emissions and certificates over the alive universe
    /// (after the toggles), with the top clique `top`: the same kernels
    /// the cold builders run, fed by the universe indexes under the alive
    /// mask.
    fn reselect(&self, u: u32, top: &(u32, Vec<u32>)) -> Selection {
        let p = self.rank_points.get(u);
        let keep = |v: u32| v != u && self.rank_alive[v as usize];
        match self.kind {
            IncTopology::Udg { .. } => unreachable!("the UDG repairs from its events"),
            IncTopology::Gabriel { radius } | IncTopology::Rng { radius } => {
                let mut nbrs = Vec::new();
                self.indexes[0].for_each_in_disk(&self.rank_points, p, radius, |v, q| {
                    if keep(v) {
                        nbrs.push((v, q, p.dist(q)));
                    }
                });
                sort_by_distance(&mut nbrs);
                let mut targets = Vec::new();
                match self.kind {
                    IncTopology::Gabriel { .. } => gabriel_owner(u, p, &nbrs, &mut targets),
                    _ => rng_owner(u, p, &nbrs, &mut targets),
                }
                (targets, vec![Cert::ball(u, radius)])
            }
            IncTopology::Yao { radius, cones } => {
                let mut best = vec![None; cones];
                self.indexes[0].for_each_in_disk(&self.rank_points, p, radius, |v, q| {
                    if keep(v) {
                        yao_offer(p, self.orig(v), q, &mut best);
                    }
                });
                (self.cone_targets(&best), vec![Cert::ball(u, radius)])
            }
            IncTopology::Knn { k } => {
                let found = self.indexes[0].knn_by(&self.rank_points, p, k, keep, |v| self.orig(v));
                self.selection(u, found.into_iter().map(|(v, _)| v).collect(), k, 0)
            }
            IncTopology::Hng { links, .. } => {
                let mut sel = Selection::default();
                for j in self.rungs(u, top.0) {
                    let index = &self.indexes[j as usize - 1];
                    let found = index.knn_by(&self.rank_points, p, links, keep, |v| self.orig(v));
                    let targets = found.into_iter().map(|(v, _)| v).collect();
                    let (t, c) = self.selection(u, targets, links, j);
                    sel.0.extend(t);
                    sel.1.extend(c);
                }
                self.clique(u, top, &mut sel.0);
                sel
            }
        }
    }

    /// The `k` least of `cands` by the k-NN key `(distance², deployment
    /// id)` — the order [`CellIndex::knn_by`] selects in.
    fn least(&self, p: Point, cands: impl Iterator<Item = u32>, k: usize) -> Vec<u32> {
        let mut keyed: Vec<(f64, u32, u32)> = cands
            .map(|v| (self.rank_points.get(v).dist_sq(p), self.orig(v), v))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        keyed.iter().take(k).map(|&(_, _, v)| v).collect()
    }

    /// The ranks of the Yao cone winners `best`, offered by deployment id
    /// so that exact-distance ties break as in the cold builders.
    fn cone_targets(&self, best: &[Option<(f64, u32)>]) -> Vec<u32> {
        let to_rank = self.csr.to_rank();
        best.iter()
            .flatten()
            .map(|b| to_rank[b.1 as usize])
            .collect()
    }

    /// The deployment id of rank `u`.
    #[inline]
    fn orig(&self, u: u32) -> u32 {
        self.csr.to_orig()[u as usize]
    }

    /// A nearest-`k` selection of owner `u` among nodes of level `≥ level`,
    /// with its certificate: the ball through its farthest target, or the
    /// whole plane when it ran short of `k`.
    fn selection(&self, u: u32, targets: Vec<u32>, k: usize, level: u32) -> Selection {
        let r2 = match targets.last() {
            Some(&v) if targets.len() == k => {
                self.rank_points.get(v).dist_sq(self.rank_points.get(u))
            }
            _ if k == 0 => return (targets, Vec::new()),
            _ => f64::INFINITY,
        };
        (targets, vec![Cert { node: u, level, r2 }])
    }

    /// HNG rung levels `j` of owner `u` under top level `top_level`: one
    /// per `i ∈ 1..=min(ℓ(u), T − 1)`, targeting level `≥ i + 1`.
    fn rungs(&self, u: u32, top_level: u32) -> std::ops::RangeInclusive<u32> {
        let hi = self.levels[u as usize].min(top_level.saturating_sub(1));
        2..=hi + 1
    }

    /// The clique emissions of `u` when it sits at the top level.
    fn clique(&self, u: u32, top: &(u32, Vec<u32>), out: &mut Vec<u32>) {
        if self.levels[u as usize] >= top.0 {
            out.extend(top.1.iter().copied().filter(|&v| v != u));
        }
    }

    /// The certificates among an owner's `certs` whose ball is wider than
    /// the halo (a short selection's infinite ball always is). An event
    /// inside any other ball lies within the halo of the owner — the same
    /// squared radius the candidates' disk query tests — so only these need
    /// tracking between repairs.
    fn far_certs(&self, certs: Vec<Cert>) -> Vec<Cert> {
        let halo2 = self.halo * self.halo;
        certs.into_iter().filter(|c| c.r2 > halo2).collect()
    }

    /// The alive population's top occupied level and its ascending member
    /// ranks — `(1, every alive node)` when no alive node is promoted, and
    /// `(1, [])` when nothing is alive. Scans the level indexes from the
    /// top down, so the cost is the size of the top levels.
    fn alive_top(&self) -> (u32, Vec<u32>) {
        for (i, index) in self.indexes.iter().enumerate().rev() {
            let mut top: Vec<u32> = index
                .members()
                .iter()
                .copied()
                .filter(|&u| self.rank_alive[u as usize])
                .collect();
            if !top.is_empty() {
                top.sort_unstable();
                return (i as u32 + 1, top);
            }
        }
        (1, Vec::new())
    }

    /// HNG level of `u` (0 for every other kind).
    #[inline]
    fn level(&self, u: u32) -> u32 {
        self.levels.get(u as usize).copied().unwrap_or(0)
    }

    /// Build the same topology cold — the monolithic reference builder on
    /// the alive survivors, in deployment ids.
    pub fn cold_rebuild(&self) -> Csr {
        self.kind
            .build_alive(&self.points(), &self.alive, Exec::Serial)
    }

    /// Identity witness against a cold rebuild on the survivors: the
    /// incrementally maintained CSR, read in deployment ids, equals it byte
    /// for byte, and the kept fingerprint, component labels, count and
    /// giant equal the full passes ([`fingerprint`],
    /// [`connected_components`]) over it.
    #[must_use]
    pub fn verify_cold(&self) -> bool {
        let cold = self.cold_rebuild();
        let want = connected_components(&cold).by_id(&cold);
        let live = &self.components;
        self.csr == cold
            && self.csr.fingerprint() == fingerprint(&cold)
            && live.by_id(&self.csr) == want.label
            && live.count() == want.count
            && live.giant() == want.giant()
    }
}

/// Compact the alive subset: survivor points in universe-id order plus the
/// strictly monotone compact→universe id map — the shared primitive every
/// cold-rebuild comparison path must agree on (byte-identity depends on
/// all of them ordering survivors the same way).
pub fn compact_alive(points: &PointSet, alive: &[bool]) -> (PointSet, Vec<u32>) {
    let n_alive = alive.iter().filter(|&&a| a).count();
    let mut sub = PointSet::with_capacity(n_alive);
    let mut to_universe = Vec::with_capacity(n_alive);
    for (g, p) in points.iter_enumerated() {
        if alive[g as usize] {
            to_universe.push(g);
            sub.push(p);
        }
    }
    (sub, to_universe)
}

/// The universe levels of the survivors, in universe-id order — the
/// levels [`compact_alive`]'s points carry (empty for every kind but HNG,
/// whose levels are never re-rolled over survivor ids).
pub(crate) fn survivor_levels(levels: &[u32], alive: &[bool]) -> Vec<u32> {
    levels
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(&l, _)| l)
        .collect()
}

impl Cert {
    /// The fixed ball of a threshold kind's owner: any event within the
    /// radius can change its emissions.
    fn ball(node: u32, radius: f64) -> Cert {
        Cert {
            node,
            level: 0,
            r2: radius * radius,
        }
    }
}

/// Push owner `u`'s emission delta: the targets of the ascending multiset
/// `old` that `new` does not match one-for-one go to `removed`, and vice
/// versa, as canonical pairs — one per emission, so the chunked CSR's
/// multiplicities keep counting the owners behind each edge.
fn multiset_diff(
    u: u32,
    old: &[u32],
    new: &[u32],
    removed: &mut Vec<(u32, u32)>,
    added: &mut Vec<(u32, u32)>,
) {
    let pair = |v: u32| (u.min(v), u.max(v));
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        if j == new.len() || (i < old.len() && old[i] < new[j]) {
            removed.push(pair(old[i]));
            i += 1;
        } else if i == old.len() || new[j] < old[i] {
            added.push(pair(new[j]));
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
}

/// The indexes of `kind` over the whole universe (dead nodes included;
/// queries filter by the alive mask): see
/// [`IncrementalGraph::indexes`](IncrementalGraph).
fn query_indexes(kind: IncTopology, points: &PointSet, levels: &[u32]) -> Vec<CellIndex> {
    let cell = |pts: &PointSet, k: usize| match pts.is_empty() {
        true => 1.0,
        false => knn_cell_size(pts, k.max(1)),
    };
    match kind {
        IncTopology::Udg { radius }
        | IncTopology::Gabriel { radius }
        | IncTopology::Rng { radius }
        | IncTopology::Yao { radius, .. } => vec![CellIndex::build(points, radius)],
        IncTopology::Knn { k } => vec![CellIndex::build(points, cell(points, k))],
        IncTopology::Hng { links, .. } => {
            let top = levels.iter().copied().max().unwrap_or(1);
            (1..=top)
                .map(|j| {
                    let members: Vec<u32> = (0..points.len() as u32)
                        .filter(|&u| levels[u as usize] >= j)
                        .collect();
                    let pts: PointSet = members.iter().map(|&u| points.get(u)).collect();
                    CellIndex::build_subset(points, &members, cell(&pts, links))
                })
                .collect()
        }
    }
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
                assert_eq!((stats.rederived, stats.escalations), (0, 0));
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
        let deaths: Vec<u32> = (0..400u32).filter(|u| u % 7 == 0).collect();
        let stats = g.apply_churn(&deaths, &[]);
        assert!(stats.dirty > 0);
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
    fn changed_marks_cover_churn_and_clear_on_quiescence() {
        let p = pts(400, 7, 16.0);
        let mut g =
            IncrementalGraph::build(p, vec![true; 400], IncTopology::Rng { radius: 1.0 }, 2);
        assert!(!g.changed().contains(&true), "no churn yet");
        let deaths: Vec<u32> = g
            .points()
            .iter_enumerated()
            .filter(|&(_, q)| q.x < 3.0 && q.y < 3.0)
            .map(|(u, _)| u)
            .collect();
        assert!(!deaths.is_empty());
        let old = g.graph().clone();
        g.apply_churn(&deaths, &[]);
        for &d in &deaths {
            assert!(g.changed()[d as usize], "death {d} unmarked");
        }
        for u in 0..400u32 {
            if !old.id_neighbors(u).eq(g.graph().id_neighbors(u)) {
                assert!(g.changed()[u as usize], "row of {u} changed unmarked");
            }
        }
        // Nodes more than two radii from the corner stay unmarked.
        for (u, q) in g.points().iter_enumerated() {
            if q.x > 5.0 || q.y > 5.0 {
                assert!(!g.changed()[u as usize], "far node {u} marked");
            }
        }
        // A quiescent epoch marks nothing.
        g.apply_churn(&[], &[]);
        assert!(!g.changed().contains(&true));
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
        // query and sit in no clique, so the repair's footprint must stay
        // in the corner.
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
        let p = pts(400, 9, 12.0);
        let kind = IncTopology::Hng {
            p: 0.5,
            links: 1,
            seed: 7,
        };
        let mut g = IncrementalGraph::build(p, vec![true; 400], kind, 2);
        let (t, tops) = g.hng_top.clone();
        assert!(t >= 2, "population too small to roll a hierarchy");
        // Killing a clique member changes the maintained top set: every
        // surviving peer re-selects its clique edges and any rung that
        // targeted the dead node re-answers, but the result must still be
        // byte-identical to a cold rebuild on the survivors.
        let member = g.orig(tops[0]);
        g.apply_churn(&[member], &[]);
        assert!(g.verify_cold());
        // Reviving it restores the original top set just as exactly.
        g.apply_churn(&[], &[member]);
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
