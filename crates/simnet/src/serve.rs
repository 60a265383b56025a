//! The always-on topology service: epoch-snapshot reads over a churning
//! network.
//!
//! Everything else in the repo is batch — build, churn, report. This
//! module is the read path the paper's topologies exist to power: a
//! long-running loop that keeps an [`IncrementalGraph`] live under a churn
//! schedule while many client threads query it concurrently.
//!
//! ## Snapshot model (per-epoch broadcast)
//!
//! The writer owns the graph. Each epoch it runs the batch engine's epoch
//! step on it (traffic, idle drain, renewal, deaths, joins and the in-place
//! repair, for any [`ChurnConfig`]), then captures an immutable
//! [`Snapshot`] — chunked CSR, alive state, component labels, fingerprint,
//! and the repair's changed-node mask — and broadcasts it to every reader
//! thread through [`wsn_graph::run_lockstep`]. The capture copies no
//! adjacency and recomputes nothing: the CSR clone shares the live graph's
//! chunk buffers (a splice gives each chunk it rewrites a fresh buffer and
//! leaves the old one to the snapshots holding it), and the fingerprint,
//! labels and giant are the ones the graph keeps with its repair. The
//! per-node state is copied as the graph keeps it: the alive masks by
//! rank and by id, the labels by rank and the changed mask, plus one alive
//! count per block of ids that draws the k-th alive id.
//!
//! The loop runs in lockstep: while the writer splices epoch *e+1* into the
//! live graph, the readers serve epoch *e* from their `Arc` of its
//! capture, and *e+1* goes out only once every reader has released *e*.
//! Each reader therefore sees every epoch once, in order, and the released
//! snapshot is freed at the next publish, so one snapshot is resident
//! between publishes (the soak test pins this).
//!
//! The loop fails fast: a reader that panics hangs up its link, so the
//! writer's next wait panics naming it; a writer that panics hangs up all
//! links, so the readers stop. Either way the panic reaches the caller of
//! [`run_serve`] promptly instead of leaving threads waiting.
//!
//! ## Query engine
//!
//! Four query kinds run against an epoch's snapshot: route between two
//! nearby nodes (BFS over the snapshot CSR, guided by the topology's
//! edge-length bound — see [`wsn_graph::bfs`] — between the Morton ranks
//! the CSR's nodes are, with the graph's rank-ordered positions; the path
//! is mapped back to deployment ids), k nearest *alive* sensors,
//! coverage at a probe point, and component/giant membership. The spatial
//! kinds read one grid over the universe in Morton-rank order (the graph's
//! [`IncrementalGraph::rank_points`]), built once per run with cells the
//! smaller query radius wide (floored at the mean spacing). Its members
//! are ranks, so a query reads positions, the snapshot's alive mask by
//! rank and the rank → id map from a few nearby stretches of memory
//! instead of scattered deployment ids. A route's destination is the
//! drawn position among the sorted ids of the alive nodes in the source's
//! disk, found by selection; a coverage count is one disk scan; k-NN is
//! the grid's exact ring search with ties broken by deployment id. Every
//! answer equals its deployment-order counterpart (the unit tests'
//! brute-force oracles on tie-heavy layouts pin it). Routes go through a
//! per-client LRU cache whose hits, inserts and evictions cost O(1) (a
//! key map into slots on a recency list); at each epoch boundary the
//! cache drops every entry whose path holds a node the repair changed
//! ([`wsn_rgg::IncrementalGraph::changed`]) and promotes the rest. An unchanged node kept its liveness and its whole
//! row, so every hop of a path of unchanged nodes still exists: a served
//! route is always *valid* on the snapshot it is served from, though a
//! promoted one may be stale-optimal.
//!
//! ## Determinism contract
//!
//! Every query is a pure function of `(seed, epoch, client, query)`, each
//! client's cache is touched only by that client's queries in query order,
//! and each client is owned by exactly one reader thread. Per-client
//! answer digests are therefore byte-identical across reader-thread
//! counts *and* equal to [`run_replay`], the single-threaded oracle that
//! drives the same engine code serially — the differential suite in
//! `tests/serve_concurrency.rs` pins exactly this.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use crate::churn::{pick, u01, ChurnConfig, ChurnConfigError, Maintained, RepairMode, Stepper};
use wsn_geom::hash::{derive_seed, derive_seed2, mix64};
use wsn_geom::{Aabb, Point};
use wsn_graph::bfs::BfsScratch;
use wsn_graph::{run_lockstep, ChunkedCsr};
use wsn_pointproc::PointSet;
use wsn_rgg::{mean_spacing, IncTopology, IncrementalGraph};
use wsn_spatial::CellIndex;

/// Seed stream of the query workload (distinct from the churn engine's
/// TRAFFIC/FAIL/BLAST streams so serving never perturbs the schedule).
mod stream {
    pub const QUERY: u64 = 0x14;
}

/// FNV offset basis — the digest accumulator's starting value.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Configuration of one serve run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Churn schedule, run exactly as the batch engine runs it: traffic
    /// debits, idle drain, renewal, deaths, joins and repair, so serve
    /// fingerprints match a batch run of the same schedule. Served queries
    /// never debit batteries.
    pub churn: ChurnConfig,
    /// Reader threads. 0 is rejected; 1 still exercises the full
    /// broadcast.
    pub readers: usize,
    /// Query clients, partitioned over readers by `client % readers`.
    pub clients: usize,
    /// Queries per client per epoch.
    pub queries_per_client: usize,
    /// Route destinations are sampled among alive nodes within this radius
    /// of the source (keeps early-exit BFS cost bounded at any scale).
    pub route_radius: f64,
    /// Coverage probes ask for an alive sensor within this radius.
    pub coverage_radius: f64,
    /// k of a k-NN query is drawn from `1..=knn_max`.
    pub knn_max: usize,
    /// Per-client LRU route-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Route-source hot set: 0 draws sources uniformly over the alive
    /// population; `h > 0` draws them from the first `min(h, alive)` alive
    /// ids — the gateway/sink traffic model under which a bounded LRU can
    /// actually accumulate hits at deployment scale.
    pub hot_routes: usize,
    /// Base seed of the whole run (churn + queries).
    pub seed: u64,
}

impl ServeConfig {
    /// A serve run with the headline knobs set and query-shape defaults.
    /// Checked by [`ServeConfig::validate`], not here.
    pub fn new(churn: ChurnConfig, readers: usize, clients: usize, queries: usize) -> Self {
        ServeConfig {
            churn,
            readers,
            clients,
            queries_per_client: queries,
            route_radius: 3.0,
            coverage_radius: 1.0,
            knn_max: 8,
            cache_capacity: 32,
            hot_routes: 0,
            seed: 0,
        }
    }

    /// Whether the service can run this configuration: at least one
    /// reader, one client and one epoch, finite positive route and coverage
    /// radii (the smaller one sizes the query grid's cells, floored at the
    /// universe's mean spacing, so even a tiny radius gets a grid of a few
    /// cells per point at most), incremental repair (the
    /// service maintains an [`wsn_rgg::IncrementalGraph`] and publishes its
    /// changed nodes), and a valid churn schedule.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.readers == 0 {
            return Err(ServeConfigError::Readers(self.readers));
        }
        if self.clients == 0 {
            return Err(ServeConfigError::Clients(self.clients));
        }
        if self.churn.epochs == 0 {
            return Err(ServeConfigError::Epochs(self.churn.epochs));
        }
        let positive = |r: f64| r.is_finite() && r > 0.0;
        if !positive(self.route_radius) {
            return Err(ServeConfigError::RouteRadius(self.route_radius));
        }
        if !positive(self.coverage_radius) {
            return Err(ServeConfigError::CoverageRadius(self.coverage_radius));
        }
        if self.churn.repair != RepairMode::Incremental {
            return Err(ServeConfigError::Repair(self.churn.repair));
        }
        self.churn.validate().map_err(ServeConfigError::Churn)
    }
}

/// Why a [`ServeConfig`] cannot run; each variant carries the bad value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServeConfigError {
    Readers(usize),
    Clients(usize),
    Epochs(usize),
    /// A non-finite or non-positive [`ServeConfig::route_radius`].
    RouteRadius(f64),
    /// A non-finite or non-positive [`ServeConfig::coverage_radius`].
    CoverageRadius(f64),
    /// A repair mode other than [`RepairMode::Incremental`].
    Repair(RepairMode),
    Churn(ChurnConfigError),
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::Readers(n) => write!(f, "readers must be at least 1, got {n}"),
            ServeConfigError::Clients(n) => write!(f, "clients must be at least 1, got {n}"),
            ServeConfigError::Epochs(n) => write!(f, "epochs must be at least 1, got {n}"),
            ServeConfigError::RouteRadius(r) => {
                write!(f, "route_radius must be finite and positive, got {r}")
            }
            ServeConfigError::CoverageRadius(r) => {
                write!(f, "coverage_radius must be finite and positive, got {r}")
            }
            ServeConfigError::Repair(m) => {
                write!(f, "repair must be Incremental (the service maintains an incremental graph), got {m:?}")
            }
            ServeConfigError::Churn(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// One epoch's immutable published state: everything a reader needs to
/// answer queries without touching the live graph.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub epoch: u64,
    /// The repaired adjacency in Morton-rank space, as
    /// [`IncrementalGraph::graph`] keeps it (dead nodes isolated): map
    /// deployment ids in through `csr.to_rank()` and nodes out through
    /// `csr.to_orig()`.
    pub csr: ChunkedCsr,
    /// Liveness per rank — the mask of `csr`'s nodes, which the rank-space
    /// query grid reads beside the ranked positions.
    pub rank_alive: Vec<bool>,
    /// Liveness per deployment id.
    pub alive: Vec<bool>,
    /// Per block of [`ALIVE_BLOCK`] deployment ids, the alive ids below
    /// it, then the alive count: the select table of
    /// [`Snapshot::alive_id`].
    alive_before: Vec<u32>,
    /// Component label per rank: the smallest deployment id in the node's
    /// component, so labels depend neither on how the components pass
    /// ordered its unions nor on the layout ([`Snapshot::label_of`] reads
    /// it by deployment id).
    pub rank_label: Vec<u32>,
    /// Label of the giant (largest) component, ties going to the smaller
    /// label; `u32::MAX` when empty.
    pub giant_label: u32,
    /// Semantic fingerprint of `csr`, the live graph's post-splice
    /// fingerprint (the batch `graph_hash` channel).
    pub fingerprint: u64,
    /// Per deployment id, whether the repair that produced this epoch
    /// changed it ([`IncrementalGraph::changed`]) — the route-cache
    /// eviction rule.
    pub changed: Vec<bool>,
}

/// Deployment ids per block of [`Snapshot::alive_id`]'s select table.
const ALIVE_BLOCK: usize = 64;

impl Snapshot {
    /// Capture the published view of `g` after its epoch repair. The CSR
    /// is a clone of the live post-splice graph, which shares its chunk
    /// buffers (the splice gives every chunk it rewrites a fresh one), so
    /// no adjacency is copied. The fingerprint, component labels and giant
    /// are the ones `g` keeps with its repair; that the fingerprint equals
    /// the batch engine's `graph_hash` channel is pinned by
    /// `tests/serve_concurrency.rs`. Every per-node field is a copy of a
    /// mask or label array `g` keeps, plus one count per id block.
    pub fn capture(epoch: u64, g: &IncrementalGraph) -> Snapshot {
        let comps = g.components();
        let alive = g.alive().to_vec();
        let mut alive_before = Vec::with_capacity(alive.len() / ALIVE_BLOCK + 2);
        alive_before.push(0);
        let mut below = 0u32;
        for block in alive.chunks(ALIVE_BLOCK) {
            below += block.iter().map(|&a| a as u32).sum::<u32>();
            alive_before.push(below);
        }
        Snapshot {
            epoch,
            csr: g.graph().clone(),
            rank_alive: g.rank_alive().to_vec(),
            alive,
            alive_before,
            rank_label: comps.label().to_vec(),
            giant_label: comps.giant().map_or(u32::MAX, |(label, _)| label),
            fingerprint: g.graph().fingerprint(),
            changed: g.changed().to_vec(),
        }
    }

    /// Number of alive nodes.
    pub fn n_alive(&self) -> usize {
        self.alive_before[self.alive_before.len() - 1] as usize
    }

    /// The `k`-th smallest alive deployment id (from 0). Panics unless
    /// `k < n_alive()`.
    pub fn alive_id(&self, k: usize) -> u32 {
        let b = self.alive_before.partition_point(|&c| c as usize <= k) - 1;
        let base = b * ALIVE_BLOCK;
        let mut left = k - self.alive_before[b] as usize;
        for (u, &a) in (base..).zip(&self.alive[base..]) {
            if a {
                if left == 0 {
                    return u as u32;
                }
                left -= 1;
            }
        }
        panic!("alive index {k} out of range ({} alive)", self.n_alive())
    }

    /// Component label of deployment id `u`.
    pub fn label_of(&self, u: u32) -> u32 {
        self.rank_label[self.csr.to_rank()[u as usize] as usize]
    }

    /// Whether every hop of `path` (deployment ids) exists on this
    /// snapshot and every node is alive — the validity every cached route
    /// keeps (the route-cache tests' oracle).
    pub fn path_valid(&self, path: &[u32]) -> bool {
        if path.iter().any(|&u| !self.alive[u as usize]) {
            return false;
        }
        let to_rank = self.csr.to_rank();
        path.windows(2).all(|w| {
            self.csr
                .has_edge(to_rank[w[0] as usize], to_rank[w[1] as usize])
        })
    }
}

/// No slot: the end of the recency list.
const NIL: usize = usize::MAX;

/// One cached route, in a slot of the cache's recency list.
#[derive(Clone, Debug)]
struct CacheEntry {
    src: u32,
    dst: u32,
    path: Vec<u32>,
    /// Epoch the entry is valid for (bumped by promotion).
    epoch: u64,
    /// Neighbours toward the MRU and LRU ends.
    prev: usize,
    next: usize,
}

/// The `(src, dst)` key of a route, packed into one word.
fn route_key(src: u32, dst: u32) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// A small deterministic LRU of routes, owned by one client.
///
/// Entries are keyed `(src, dst)`; the epoch tag records the snapshot the
/// path was last promoted to. [`RouteCache::advance_epoch`] is the
/// eviction rule `tests/serve_concurrency.rs` pins: an entry is promoted to
/// the new epoch only if its path holds no node the repair changed.
///
/// The entries live in slots linked MRU to LRU, found through a key map,
/// so a hit, an insert and an eviction each cost O(1) whatever the
/// capacity; slots are allocated as entries arrive and reused once freed.
#[derive(Clone, Debug)]
pub struct RouteCache {
    cap: usize,
    slots: Vec<CacheEntry>,
    /// Slots freed by [`RouteCache::advance_epoch`], reused first.
    free: Vec<usize>,
    /// The MRU and LRU ends of the recency list.
    head: usize,
    tail: usize,
    /// Probed, never iterated: no result depends on its order.
    slot_of: HashMap<u64, usize>,
}

impl RouteCache {
    pub fn new(cap: usize) -> Self {
        RouteCache {
            cap,
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            slot_of: HashMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Link slot `i` in at the MRU end.
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Look up a route for `(src, dst)`, refreshing its LRU position.
    pub fn get(&mut self, src: u32, dst: u32) -> Option<&[u32]> {
        let &i = self.slot_of.get(&route_key(src, dst))?;
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].path)
    }

    /// Insert a freshly computed route, evicting the LRU tail at capacity.
    pub fn insert(&mut self, src: u32, dst: u32, path: Vec<u32>, epoch: u64) {
        if self.cap == 0 {
            return;
        }
        let key = route_key(src, dst);
        let entry = CacheEntry {
            src,
            dst,
            path,
            epoch,
            prev: NIL,
            next: NIL,
        };
        let reuse = if let Some(&i) = self.slot_of.get(&key) {
            self.unlink(i);
            Some(i)
        } else if self.len() == self.cap {
            let i = self.tail;
            self.unlink(i);
            let lru = &self.slots[i];
            self.slot_of.remove(&route_key(lru.src, lru.dst));
            Some(i)
        } else {
            self.free.pop()
        };
        let i = match reuse {
            Some(i) => {
                self.slots[i] = entry;
                i
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.slot_of.insert(key, i);
        self.push_front(i);
    }

    /// Epoch-boundary sweep: drop every entry whose path holds a node
    /// marked in `changed` (the new snapshot's [`Snapshot::changed`]) and
    /// promote the rest to `epoch`. An unchanged node kept its liveness and
    /// its whole row, so a path valid on the previous snapshot that holds
    /// only unchanged nodes is valid on the new one.
    pub fn advance_epoch(&mut self, epoch: u64, changed: &[bool]) {
        let mut i = self.head;
        while i != NIL {
            let next = self.slots[i].next;
            let e = &mut self.slots[i];
            if e.path.iter().any(|&u| changed[u as usize]) {
                let key = route_key(e.src, e.dst);
                e.path = Vec::new();
                self.unlink(i);
                self.slot_of.remove(&key);
                self.free.push(i);
            } else {
                debug_assert!(e.epoch < epoch, "promotion must move forward");
                e.epoch = epoch;
            }
            i = next;
        }
    }

    /// The epoch tags of the resident entries, MRU first (test
    /// observability).
    pub fn epochs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slots[i].epoch);
            i = self.slots[i].next;
        }
        out
    }
}

/// Per-client query state: the route cache plus the running answer digest.
struct ClientState {
    cache: RouteCache,
    digest: u64,
    cache_hits: u64,
    cache_lookups: u64,
    errors: u64,
}

impl ClientState {
    fn new(cap: usize) -> Self {
        ClientState {
            cache: RouteCache::new(cap),
            digest: DIGEST_SEED,
            cache_hits: 0,
            cache_lookups: 0,
            errors: 0,
        }
    }

    fn absorb(&mut self, word: u64) {
        self.digest = mix64(self.digest ^ word);
    }
}

/// Fold a path, or any id list, into one digest word (length + ids).
fn path_word(path: Option<&[u32]>) -> u64 {
    match path {
        None => 0x6e6f_726f_7574_6500, // "no route"
        Some(p) => {
            let mut d = DIGEST_SEED ^ p.len() as u64;
            for &u in p {
                d = mix64(d ^ u as u64);
            }
            d
        }
    }
}

/// What one run of the service produced.
#[derive(Clone, Debug, Serialize)]
pub struct ServeReport {
    pub epochs: u64,
    pub readers: usize,
    pub clients: usize,
    /// Queries answered (all kinds, all clients, all epochs).
    pub queries: u64,
    /// Queries that could not be evaluated (empty alive population).
    pub errors: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Wall-clock of the whole run (epoch loop + readers).
    pub wall_secs: f64,
    /// Sustained queries per second over the run's wall clock.
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Post-repair fingerprint per epoch — equal to the batch engine's
    /// `graph_hash` channel for the same `(universe, kind, churn, seed)`.
    pub epoch_fingerprints: Vec<u64>,
    /// Per-client answer digests, index = client id. The differential
    /// suite's byte-identity witness.
    pub client_digests: Vec<u64>,
    /// All client digests folded in client order.
    pub answer_digest: u64,
    pub deaths_total: u64,
    pub joins_total: u64,
    pub final_alive: u64,
    /// Snapshot accounting after the last release: snapshots broadcast,
    /// and snapshots freed once every reader released them (the replay
    /// broadcasts nothing and reports 0 / 0).
    pub snapshots_published: u64,
    pub snapshots_retired: u64,
    /// Peak published-but-unretired snapshots, read after each publish —
    /// the soak test's no-leak bound (1 for the replay).
    pub max_live_snapshots: u64,
}

/// The read-only query context every reader shares.
struct Engine<'a> {
    /// The universe in Morton-rank order — the positions of the snapshot
    /// CSR's nodes — and its grid at [`query_cell`].
    rank_points: Arc<PointSet>,
    index: CellIndex,
    window: Aabb,
    cfg: &'a ServeConfig,
    max_edge: Option<f64>,
}

/// One reader: the clients it owns, its BFS scratch and its latencies.
struct Reader {
    /// `(client id, state)` for every client this reader owns.
    clients: Vec<(usize, ClientState)>,
    scratch: BfsScratch,
    latency_ns: Vec<u64>,
}

impl Reader {
    /// Reader `r` of `readers` owns the clients `c` with `c % readers == r`.
    fn new(r: usize, readers: usize, cfg: &ServeConfig) -> Self {
        Reader {
            clients: (0..cfg.clients)
                .filter(|c| c % readers == r)
                .map(|c| (c, ClientState::new(cfg.cache_capacity)))
                .collect(),
            scratch: BfsScratch::default(),
            latency_ns: Vec::new(),
        }
    }

    /// Serve one epoch to every owned client, in client-id order.
    fn serve(&mut self, engine: &Engine, snap: &Snapshot) {
        for (c, state) in &mut self.clients {
            engine.run_client_epoch(snap, *c, state, &mut self.scratch, &mut self.latency_ns);
        }
    }
}

/// The spatial queries of one snapshot on the rank-space grid: the grid's
/// members are ranks, read with their positions, liveness and deployment
/// ids, all indexed by rank, so a query's reads stay as local as its
/// cells. Every answer is in deployment ids and equals the deployment-order
/// answer (the unit tests' brute-force oracles).
struct RankView<'a> {
    index: &'a CellIndex,
    points: &'a PointSet,
    alive: &'a [bool],
    to_orig: &'a [u32],
}

impl RankView<'_> {
    /// A route's destination from rank `src`: among the deployment ids of
    /// the alive nodes within `radius` of it, other than itself, the
    /// `pick(h, len)`-th smallest; `None` when there is none. The ids are
    /// distinct, so a selection finds the element a sort would put there.
    fn route_dst(&self, src: u32, radius: f64, h: u64, ids: &mut Vec<u32>) -> Option<u32> {
        ids.clear();
        let at = self.points.get(src);
        self.index
            .for_each_in_disk(self.points, at, radius, |r, _| {
                if self.alive[r as usize] && r != src {
                    ids.push(self.to_orig[r as usize]);
                }
            });
        if ids.is_empty() {
            return None;
        }
        let nth = pick(h, ids.len());
        Some(*ids.select_nth_unstable(nth).1)
    }

    /// Alive nodes within `radius` of `q`.
    fn covered(&self, q: Point, radius: f64) -> u64 {
        let mut covered = 0u64;
        self.index.for_each_in_disk(self.points, q, radius, |r, _| {
            covered += self.alive[r as usize] as u64;
        });
        covered
    }

    /// The `k` nearest alive nodes to `q` (fewer when fewer are alive), by
    /// the grid's exact ring search, as deployment ids ordered by
    /// `(distance², id)`.
    fn k_nearest_alive(&self, q: Point, k: usize) -> Vec<u32> {
        let to_orig = self.to_orig;
        self.index
            .knn_by(
                self.points,
                q,
                k,
                |r| self.alive[r as usize],
                |r| to_orig[r as usize],
            )
            .into_iter()
            .map(|(r, _)| to_orig[r as usize])
            .collect()
    }
}

impl Engine<'_> {
    /// Run one client's queries for one epoch against a snapshot. Shared
    /// verbatim by the concurrent serve loop and the replay oracle —
    /// byte-identity between them is identity of *inputs*, not luck.
    fn run_client_epoch(
        &self,
        snap: &Snapshot,
        client: usize,
        state: &mut ClientState,
        scratch: &mut BfsScratch,
        latency_ns: &mut Vec<u64>,
    ) {
        let Engine {
            rank_points,
            index,
            window,
            cfg,
            max_edge,
        } = self;
        let (to_rank, to_orig) = (snap.csr.to_rank(), snap.csr.to_orig());
        let view = RankView {
            index,
            points: rank_points,
            alive: &snap.rank_alive,
            to_orig,
        };
        // Promote / evict cached routes across the epoch boundary. Epoch 0
        // starts with an empty cache, so `advance_epoch` is vacuous there.
        state.cache.advance_epoch(snap.epoch, &snap.changed);
        let cseed = derive_seed2(
            derive_seed(cfg.seed, stream::QUERY),
            snap.epoch,
            client as u64,
        );
        let n_alive = snap.n_alive();
        let mut in_disk = Vec::new();
        for qi in 0..cfg.queries_per_client as u64 {
            let h = derive_seed2(cseed, qi, 0);
            let t0 = Instant::now();
            if n_alive == 0 {
                state.errors += 1;
                state.absorb(0xdead);
                latency_ns.push(t0.elapsed().as_nanos() as u64);
                continue;
            }
            // Kind mix: routes dominate (they are what the cache serves).
            match h % 6 {
                0..=2 => {
                    // Route between a node and a nearby alive node.
                    let pool = if cfg.hot_routes > 0 {
                        cfg.hot_routes.min(n_alive)
                    } else {
                        n_alive
                    };
                    let src = snap.alive_id(pick(derive_seed2(cseed, qi, 1), pool));
                    let s = to_rank[src as usize];
                    let dst = view
                        .route_dst(
                            s,
                            cfg.route_radius,
                            derive_seed2(cseed, qi, 2),
                            &mut in_disk,
                        )
                        .unwrap_or(src);
                    state.cache_lookups += 1;
                    let word = if let Some(path) = state.cache.get(src, dst) {
                        state.cache_hits += 1;
                        path_word(Some(path))
                    } else {
                        let t = to_rank[dst as usize];
                        let path = scratch
                            .guided_path(&snap.csr, s, t, *max_edge, |u| rank_points.get(u))
                            .map(|mut p| {
                                p.iter_mut().for_each(|u| *u = to_orig[*u as usize]);
                                p
                            });
                        let w = path_word(path.as_deref());
                        if let Some(p) = path {
                            state.cache.insert(src, dst, p, snap.epoch);
                        }
                        w
                    };
                    state.absorb(word);
                }
                3 => {
                    // k nearest alive sensors to a probe point.
                    let q = sample_point(window, derive_seed2(cseed, qi, 3));
                    let k = 1 + (derive_seed2(cseed, qi, 4) % cfg.knn_max.max(1) as u64) as usize;
                    let ids = view.k_nearest_alive(q, k);
                    state.absorb(path_word(Some(&ids)));
                }
                4 => {
                    // Coverage: alive sensors within the sensing radius of a
                    // probe point.
                    let q = sample_point(window, derive_seed2(cseed, qi, 5));
                    let covered = view.covered(q, cfg.coverage_radius);
                    state.absorb(mix64(0xc0_0e1a ^ covered));
                }
                _ => {
                    // Component / giant membership of a random alive pair.
                    let u = snap.alive_id(pick(derive_seed2(cseed, qi, 6), n_alive));
                    let v = snap.alive_id(pick(derive_seed2(cseed, qi, 7), n_alive));
                    let (lu, lv) = (snap.label_of(u), snap.label_of(v));
                    let same = (lu == lv) as u64;
                    let giant = (lu == snap.giant_label) as u64;
                    state.absorb(mix64(0x91a27 ^ (same << 1) ^ giant));
                }
            }
            latency_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Uniform point in `window` from one hash word.
fn sample_point(window: &Aabb, h: u64) -> Point {
    Point::new(
        window.min.x + window.width() * u01(derive_seed2(h, 0, 0)),
        window.min.y + window.height() * u01(derive_seed2(h, 0, 1)),
    )
}

/// The query grid's cell side: the smaller query radius, floored at the
/// universe's mean spacing. No answer depends on it — route destinations
/// are selected by id, coverage is a count and k-NN is ordered by
/// `(distance², id)` — so it is chosen for speed alone: cells about one
/// coverage disk wide keep the coverage probe to a few cells and a k-NN
/// search to the few rings around its probe, and the floor keeps a tiny
/// radius from asking for far more cells than points.
fn query_cell(points: &PointSet, cfg: &ServeConfig) -> f64 {
    cfg.route_radius
        .min(cfg.coverage_radius)
        .max(mean_spacing(points))
}

/// Run the service: writer repairs and publishes, `cfg.readers` threads
/// serve the query workload. See module docs for the concurrency model.
pub fn run_serve(
    points: &PointSet,
    initial_alive: &[bool],
    kind: IncTopology,
    cfg: &ServeConfig,
) -> ServeReport {
    run_service(points, initial_alive, kind, cfg, true)
}

/// The single-threaded oracle: identical schedule, identical engine code,
/// clients executed serially in id order on the writer thread. The
/// differential suite asserts `run_serve` output is byte-identical.
pub fn run_replay(
    points: &PointSet,
    initial_alive: &[bool],
    kind: IncTopology,
    cfg: &ServeConfig,
) -> ServeReport {
    run_service(points, initial_alive, kind, cfg, false)
}

fn run_service(
    points: &PointSet,
    initial_alive: &[bool],
    kind: IncTopology,
    cfg: &ServeConfig,
    concurrent: bool,
) -> ServeReport {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid serve configuration: {e}"));
    let epochs = cfg.churn.epochs;
    let tiles = cfg.churn.repair_tiles;
    let mut stepper = Stepper::new(points, initial_alive, &cfg.churn, cfg.seed, || {
        Maintained::plain(points, initial_alive, kind, RepairMode::Incremental, tiles)
    });
    let window = points.bounding_box().unwrap_or_else(|| Aabb::square(1.0));
    let rank_points = Arc::clone(stepper.incremental().rank_points());
    let engine = Engine {
        index: CellIndex::build(&rank_points, query_cell(points, cfg)),
        rank_points,
        window,
        cfg,
        max_edge: kind.max_edge_len(),
    };
    let mut epoch_fingerprints = Vec::with_capacity(epochs);
    let (mut deaths_total, mut joins_total) = (0u64, 0u64);
    // The writer's epoch: the batch engine's step, then the capture (in the
    // concurrent run, beside the readers serving the previous epoch).
    let mut write = |epoch: u64| {
        let stepped = stepper.step(epoch);
        deaths_total += stepped.deaths_battery + stepped.deaths_random;
        joins_total += stepped.joins;
        let snap = Snapshot::capture(epoch, stepper.incremental());
        epoch_fingerprints.push(snap.fingerprint);
        snap
    };

    let started = Instant::now();
    let (mut readers, published, retired, max_live) = if concurrent {
        let (readers, publisher) = run_lockstep(
            epochs as u64,
            cfg.readers,
            &mut write,
            |r| Reader::new(r, cfg.readers, cfg),
            |reader, snap| reader.serve(&engine, snap),
        );
        (
            readers,
            publisher.published(),
            publisher.retired(),
            publisher.max_live(),
        )
    } else {
        // Replay: every client, in id order, on the writer thread.
        let mut reader = Reader::new(0, 1, cfg);
        for epoch in 0..epochs as u64 {
            reader.serve(&engine, &write(epoch));
        }
        (vec![reader], 0, 0, 1)
    };
    let wall_secs = started.elapsed().as_secs_f64();

    // Merge per-client results in client-id order (digest order must not
    // depend on the reader partition).
    let mut client_digests = vec![0u64; cfg.clients];
    let (mut cache_hits, mut cache_lookups, mut errors) = (0u64, 0u64, 0u64);
    let mut latency_ns: Vec<u64> = Vec::new();
    for reader in &mut readers {
        for (c, state) in &reader.clients {
            client_digests[*c] = state.digest;
            cache_hits += state.cache_hits;
            cache_lookups += state.cache_lookups;
            errors += state.errors;
        }
        latency_ns.append(&mut reader.latency_ns);
    }
    let mut answer_digest = DIGEST_SEED;
    for &d in &client_digests {
        answer_digest = mix64(answer_digest ^ d);
    }
    latency_ns.sort_unstable();
    let pct = |q: f64| -> f64 {
        if latency_ns.is_empty() {
            return 0.0;
        }
        let i = ((latency_ns.len() - 1) as f64 * q).round() as usize;
        latency_ns[i] as f64 / 1_000.0
    };
    let queries = (cfg.clients * cfg.queries_per_client * epochs) as u64;
    let final_alive = stepper.incremental().n_alive() as u64;

    ServeReport {
        epochs: epochs as u64,
        readers: if concurrent { cfg.readers } else { 1 },
        clients: cfg.clients,
        queries,
        errors,
        cache_hits,
        cache_lookups,
        wall_secs,
        qps: if wall_secs > 0.0 {
            queries as f64 / wall_secs
        } else {
            0.0
        },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        epoch_fingerprints,
        client_digests,
        answer_digest,
        deaths_total,
        joins_total,
        final_alive,
        snapshots_published: published,
        snapshots_retired: retired,
        max_live_snapshots: max_live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use wsn_pointproc::{rng_from_seed, sample_poisson_window};

    fn universe(seed: u64, side: f64, lambda: f64, reserve: f64) -> (PointSet, Vec<bool>) {
        let pts = sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
        let n = pts.len();
        let deployed = n - (reserve * n as f64).round() as usize;
        (pts, (0..n).map(|i| i < deployed).collect())
    }

    fn small_cfg(epochs: usize, readers: usize) -> ServeConfig {
        let mut churn = ChurnConfig::new(epochs, 1e9, 0, 0.08, 1.0);
        churn.churn_model = ChurnModel::Clustered { radius: 1.5 };
        churn.verify = false;
        let mut cfg = ServeConfig::new(churn, readers, 6, 12);
        cfg.seed = 0xABCD;
        cfg
    }

    #[test]
    fn rebuild_repair_is_a_typed_error() {
        let mut cfg = small_cfg(2, 1);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.churn.repair = RepairMode::Rebuild;
        assert_eq!(
            cfg.validate(),
            Err(ServeConfigError::Repair(RepairMode::Rebuild))
        );
        assert!(cfg.validate().unwrap_err().to_string().contains("Rebuild"));
    }

    #[test]
    fn non_positive_or_non_finite_radii_are_typed_errors() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = small_cfg(2, 1);
            cfg.route_radius = bad;
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, ServeConfigError::RouteRadius(r) if r.to_bits() == bad.to_bits())
            );
            assert!(err.to_string().contains("route_radius"), "{err}");
            let mut cfg = small_cfg(2, 1);
            cfg.coverage_radius = bad;
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, ServeConfigError::CoverageRadius(r) if r.to_bits() == bad.to_bits())
            );
            assert!(err.to_string().contains("coverage_radius"), "{err}");
        }
        // Both radii at zero: no query-index cell size exists.
        let mut cfg = small_cfg(2, 1);
        (cfg.route_radius, cfg.coverage_radius) = (0.0, 0.0);
        assert_eq!(cfg.validate(), Err(ServeConfigError::RouteRadius(0.0)));
    }

    /// Tiny radii size the query grid by the mean spacing, not by the
    /// radius: a 1e-6 cell over this window would be ~4·10¹³ cells.
    #[test]
    fn tiny_radii_serve_on_a_grid_of_a_few_cells_per_point() {
        let (pts, alive) = universe(16, 6.0, 20.0, 0.2);
        let mut cfg = small_cfg(2, 2);
        (cfg.route_radius, cfg.coverage_radius) = (1e-6, 1e-6);
        let kind = IncTopology::Udg { radius: 1.0 };
        let serve = run_serve(&pts, &alive, kind, &cfg);
        let replay = run_replay(&pts, &alive, kind, &cfg);
        assert_eq!(serve.client_digests, replay.client_digests);
        assert_eq!(serve.epoch_fingerprints, replay.epoch_fingerprints);
        assert_eq!(serve.errors, 0);
    }

    #[test]
    fn serve_matches_replay_on_a_small_network() {
        let (pts, alive) = universe(11, 8.0, 18.0, 0.2);
        let cfg = small_cfg(3, 4);
        let kind = IncTopology::Udg { radius: 1.0 };
        let serve = run_serve(&pts, &alive, kind, &cfg);
        let replay = run_replay(&pts, &alive, kind, &cfg);
        assert_eq!(serve.client_digests, replay.client_digests);
        assert_eq!(serve.answer_digest, replay.answer_digest);
        assert_eq!(serve.epoch_fingerprints, replay.epoch_fingerprints);
        assert_eq!(serve.cache_hits, replay.cache_hits);
        assert_eq!(serve.errors, 0);
        assert_eq!(serve.queries, (6 * 12 * 3) as u64);
    }

    #[test]
    fn serve_snapshot_accounting_is_leak_free() {
        let (pts, alive) = universe(12, 8.0, 18.0, 0.2);
        let cfg = small_cfg(4, 2);
        let r = run_serve(&pts, &alive, IncTopology::Rng { radius: 1.0 }, &cfg);
        assert_eq!(r.snapshots_published, 4);
        assert_eq!(
            r.snapshots_retired, r.snapshots_published,
            "every snapshot must retire at quiescence"
        );
        assert!(
            r.max_live_snapshots <= 2,
            "lockstep keeps residency bounded"
        );
        assert!(r.qps > 0.0);
    }

    #[test]
    fn serve_fingerprints_equal_zero_traffic_batch_run() {
        let (pts, alive) = universe(13, 8.0, 16.0, 0.25);
        let cfg = small_cfg(3, 2);
        let kind = IncTopology::Udg { radius: 1.0 };
        let serve = run_serve(&pts, &alive, kind, &cfg);
        let batch = crate::churn::simulate_lifetime_plain(&pts, &alive, kind, &cfg.churn, cfg.seed);
        let walk: Vec<u64> = batch.epochs.iter().map(|e| e.graph_hash).collect();
        assert_eq!(serve.epoch_fingerprints, walk);
    }

    #[test]
    fn route_cache_serves_hits_within_an_epoch() {
        let (pts, alive) = universe(14, 4.0, 2.5, 0.0);
        let mut cfg = small_cfg(2, 1);
        cfg.churn.p_fail = 0.0; // stable pairs: cross-epoch promotion hits too
        cfg.queries_per_client = 300; // enough route repeats to collide
        cfg.cache_capacity = 512;
        cfg.clients = 2;
        let r = run_serve(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg);
        assert!(r.cache_lookups > 0);
        assert!(r.cache_hits > 0, "repeated nearby routes must hit the LRU");
    }

    #[test]
    fn cache_disabled_still_matches_replay() {
        let (pts, alive) = universe(15, 6.0, 20.0, 0.1);
        let mut cfg = small_cfg(2, 3);
        cfg.cache_capacity = 0;
        let kind = IncTopology::Knn { k: 4 };
        let serve = run_serve(&pts, &alive, kind, &cfg);
        let replay = run_replay(&pts, &alive, kind, &cfg);
        assert_eq!(serve.answer_digest, replay.answer_digest);
        assert_eq!(serve.cache_hits, 0);
    }

    /// A deployment's rank-space query grid, as the engine builds it.
    struct Ranked {
        points: PointSet,
        to_orig: Vec<u32>,
        index: CellIndex,
    }

    impl Ranked {
        fn new(pts: &PointSet, cell: f64) -> Ranked {
            let (points, to_orig, _) = wsn_pointproc::PointOrder::morton(pts).into_parts();
            let index = CellIndex::build(&points, cell);
            Ranked {
                points,
                to_orig,
                index,
            }
        }

        /// The mask by rank of `alive`, a mask by deployment id.
        fn rank_alive(&self, alive: &[bool]) -> Vec<bool> {
            self.to_orig.iter().map(|&u| alive[u as usize]).collect()
        }

        fn view<'a>(&'a self, rank_alive: &'a [bool]) -> RankView<'a> {
            RankView {
                index: &self.index,
                points: &self.points,
                alive: rank_alive,
                to_orig: &self.to_orig,
            }
        }

        /// The rank of deployment id `u`.
        fn rank_of(&self, u: u32) -> u32 {
            self.to_orig.iter().position(|&v| v == u).unwrap() as u32
        }
    }

    /// An alive mask keeping about `keep` of `n` ids, and id `n / 2`.
    fn alive_mask(n: usize, keep: f64) -> Vec<bool> {
        let mut alive: Vec<bool> = (0..n as u64)
            .map(|u| u01(mix64(0xa11e ^ u)) < keep)
            .collect();
        if n > 0 {
            alive[n / 2] = true;
        }
        alive
    }

    #[test]
    fn k_nearest_alive_orders_by_distance_then_id() {
        let mut pts = PointSet::with_capacity(4);
        pts.push(Point::new(0.0, 0.0));
        pts.push(Point::new(1.0, 0.0));
        pts.push(Point::new(0.0, 1.0)); // same distance as id 1
        pts.push(Point::new(5.0, 5.0));
        let grid = Ranked::new(&pts, 1.0);
        let alive = grid.rank_alive(&[true, true, true, true]);
        let got = grid.view(&alive).k_nearest_alive(Point::new(0.0, 0.0), 3);
        assert_eq!(got, vec![0, 1, 2]);
        let dead = grid.rank_alive(&[false, true, true, true]);
        let got = grid.view(&dead).k_nearest_alive(Point::new(0.0, 0.0), 2);
        assert_eq!(got, vec![1, 2]);
    }

    /// The served k-NN equals a brute-force `(distance², id)` sort over the
    /// alive ids, at every index cell size: on a Poisson layout and a unit
    /// grid (distance ties at every radius), for alive masks from all down
    /// to one, k past the alive count, and probes on cell boundaries and
    /// at the window's corners.
    #[test]
    fn k_nearest_alive_matches_brute_force_at_every_cell_size() {
        let (poisson, _) = universe(17, 6.0, 6.0, 0.0);
        let grid: PointSet = (0..144)
            .map(|i| Point::new((i % 12) as f64, (i / 12) as f64))
            .collect();
        for pts in [&poisson, &grid] {
            let n = pts.len();
            let bb = pts.bounding_box().unwrap();
            let served = query_cell(pts, &small_cfg(1, 1));
            let cells = [served, 0.37, 1.0, 2.5];
            let mut probes = vec![bb.min, bb.max, Point::new(bb.min.x, bb.max.y)];
            probes.push(Point::new(bb.max.x, bb.min.y));
            for &c in &cells {
                for t in [1.0, 2.0, 3.0] {
                    probes.push(Point::new(bb.min.x + t * c, bb.min.y + 2.0 * c));
                    probes.push(Point::new(bb.min.x + 0.5 * c, bb.min.y + t * c));
                }
            }
            for i in 0..6 {
                probes.push(sample_point(&bb, mix64(0x9e37 ^ i)));
            }
            let grids: Vec<Ranked> = cells.iter().map(|&c| Ranked::new(pts, c)).collect();
            for keep in [1.0, 0.5, 0.1, 0.0] {
                let alive = alive_mask(n, keep);
                let ids: Vec<u32> = (0..n as u32).filter(|&u| alive[u as usize]).collect();
                let masks: Vec<Vec<bool>> = grids.iter().map(|g| g.rank_alive(&alive)).collect();
                for &q in &probes {
                    let mut by_d: Vec<(f64, u32)> =
                        ids.iter().map(|&u| (q.dist_sq(pts.get(u)), u)).collect();
                    by_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let ks = [1, 2, 3, 5, 8, ids.len(), ids.len() + 1, ids.len() + 7];
                    for k in ks {
                        let want: Vec<u32> = by_d.iter().take(k).map(|e| e.1).collect();
                        for ((g, mask), c) in grids.iter().zip(&masks).zip(cells) {
                            let got = g.view(mask).k_nearest_alive(q, k);
                            assert_eq!(got, want, "n {n} keep {keep} q {q:?} k {k} cell {c}");
                        }
                    }
                }
            }
        }
    }

    /// Layouts full of distance ties whose Morton order is not their id
    /// order: a unit lattice, clusters of coincident points and an
    /// axis-aligned collinear strip, each with ids shuffled over space.
    fn tie_heavy_layouts() -> Vec<(&'static str, PointSet)> {
        let shuffled = |pts: Vec<Point>| -> PointSet {
            let mut keyed: Vec<(u64, Point)> = (0..pts.len() as u64)
                .map(|i| mix64(0x5eed ^ i))
                .zip(pts)
                .collect();
            keyed.sort_by_key(|e| e.0);
            keyed.into_iter().map(|e| e.1).collect()
        };
        let lattice = (0..100).map(|i| Point::new((i % 10) as f64, (i / 10) as f64));
        let coincident = (0..90).map(|i| Point::new((i % 5) as f64 * 0.5, (i / 5 % 3) as f64));
        let strip = (0..120).map(|i| Point::new(i as f64 * 0.5, 2.0));
        vec![
            ("unit lattice", shuffled(lattice.collect())),
            ("coincident points", shuffled(coincident.collect())),
            ("collinear strip", shuffled(strip.collect())),
        ]
    }

    /// The route destination and the coverage count on the rank-space grid
    /// equal brute-force oracles in deployment ids — the sorted alive ids
    /// within the radius and their count — on tie-heavy layouts, at every
    /// cell size, radius and alive mask, with sources and probes on the
    /// lattice points, between them and at random.
    #[test]
    fn route_dst_and_coverage_match_brute_force_on_tie_heavy_layouts() {
        for (name, pts) in tie_heavy_layouts() {
            let n = pts.len();
            let bb = pts.bounding_box().unwrap();
            let served = query_cell(&pts, &small_cfg(1, 1));
            let grids: Vec<Ranked> = [served, 0.5, 1.0, 2.5]
                .iter()
                .map(|&c| Ranked::new(&pts, c))
                .collect();
            assert!(
                grids[0].to_orig.windows(2).any(|w| w[0] > w[1]),
                "{name}: Morton order must differ from id order"
            );
            let mut probes: Vec<Point> = (0..n as u32).map(|u| pts.get(u)).collect();
            probes.extend((0..n as u32).map(|u| pts.get(u).midpoint(bb.center())));
            probes.extend((0..8).map(|i| sample_point(&bb, mix64(0xc0e ^ i))));
            let mut buf = Vec::new();
            for keep in [1.0, 0.5, 0.1] {
                let alive = alive_mask(n, keep);
                let masks: Vec<Vec<bool>> = grids.iter().map(|g| g.rank_alive(&alive)).collect();
                for radius in [0.5, 1.0, std::f64::consts::SQRT_2, 3.0] {
                    let within = |q: Point| -> Vec<u32> {
                        let r2 = radius * radius;
                        (0..n as u32)
                            .filter(|&u| alive[u as usize] && pts.get(u).dist_sq(q) <= r2)
                            .collect()
                    };
                    for src in (0..n as u32).filter(|&u| alive[u as usize]) {
                        let near: Vec<u32> = within(pts.get(src))
                            .into_iter()
                            .filter(|&u| u != src)
                            .collect();
                        for h in 0..3u64 {
                            let h = mix64(0xd57 ^ (src as u64) << 8 ^ h);
                            let want = (!near.is_empty()).then(|| near[pick(h, near.len())]);
                            for (g, mask) in grids.iter().zip(&masks) {
                                let got =
                                    g.view(mask).route_dst(g.rank_of(src), radius, h, &mut buf);
                                assert_eq!(got, want, "{name} keep {keep} r {radius} src {src}");
                            }
                        }
                    }
                    for &q in &probes {
                        let want = within(q).len() as u64;
                        for (g, mask) in grids.iter().zip(&masks) {
                            let got = g.view(mask).covered(q, radius);
                            assert_eq!(got, want, "{name} keep {keep} r {radius} q {q:?}");
                        }
                    }
                }
            }
        }
    }

    /// The selection table answers every alive id in order, on masks from
    /// empty to full across block boundaries.
    #[test]
    fn alive_id_selects_the_kth_alive_id() {
        for (n, keep) in [
            (0, 1.0),
            (1, 1.0),
            (63, 0.5),
            (64, 1.0),
            (65, 0.3),
            (700, 0.05),
        ] {
            let mut alive = alive_mask(n, keep);
            alive
                .iter_mut()
                .skip(130)
                .take(200)
                .for_each(|a| *a = false);
            let pts: PointSet = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
            let kind = IncTopology::Udg { radius: 1.0 };
            let snap = Snapshot::capture(0, &IncrementalGraph::build(pts, alive.clone(), kind, 4));
            let ids: Vec<u32> = (0..n as u32).filter(|&u| alive[u as usize]).collect();
            assert_eq!(snap.n_alive(), ids.len(), "n {n}");
            for (k, &u) in ids.iter().enumerate() {
                assert_eq!(snap.alive_id(k), u, "n {n} k {k}");
            }
        }
    }

    /// The linear-scan LRU the slab cache replaced: MRU-first `Vec`, found
    /// by scan, moved by `remove` / `insert(0)`.
    struct VecLru {
        cap: usize,
        entries: Vec<(u32, u32, Vec<u32>, u64)>,
    }

    impl VecLru {
        fn get(&mut self, src: u32, dst: u32) -> Option<Vec<u32>> {
            let pos = self.entries.iter().position(|e| e.0 == src && e.1 == dst)?;
            let entry = self.entries.remove(pos);
            self.entries.insert(0, entry);
            Some(self.entries[0].2.clone())
        }

        fn insert(&mut self, src: u32, dst: u32, path: Vec<u32>, epoch: u64) {
            if self.cap == 0 {
                return;
            }
            self.entries.retain(|e| !(e.0 == src && e.1 == dst));
            self.entries.insert(0, (src, dst, path, epoch));
            self.entries.truncate(self.cap);
        }

        fn advance_epoch(&mut self, epoch: u64, changed: &[bool]) {
            self.entries
                .retain(|e| !e.2.iter().any(|&u| changed[u as usize]));
            self.entries.iter_mut().for_each(|e| e.3 = epoch);
        }

        fn epochs(&self) -> Vec<u64> {
            self.entries.iter().map(|e| e.3).collect()
        }
    }

    /// The slab LRU against the linear-scan reference: seeded sequences of
    /// lookups, inserts (fresh and repeated keys) and epoch sweeps at
    /// capacities 0, 1, 3 and unbounded, comparing every lookup, the
    /// length and the MRU-first epoch tags after each step.
    #[test]
    fn route_cache_matches_the_linear_scan_lru() {
        const NODES: u64 = 24;
        for cap in [0, 1, 3, usize::MAX] {
            for seed in 0..6u64 {
                let mut cache = RouteCache::new(cap);
                let mut model = VecLru {
                    cap,
                    entries: Vec::new(),
                };
                let mut epoch = 0u64;
                for step in 0..1500u64 {
                    let h = derive_seed2(seed, step, cap as u64);
                    let (src, dst) = (pick(h ^ 1, 6) as u32, pick(h ^ 2, 6) as u32);
                    let ctx = format!("cap {cap} seed {seed} step {step}");
                    match pick(h, 10) {
                        0..=4 => {
                            let got = cache.get(src, dst).map(|p| p.to_vec());
                            assert_eq!(got, model.get(src, dst), "{ctx}: get");
                        }
                        5..=8 => {
                            let len = 1 + pick(h ^ 3, 4);
                            let path: Vec<u32> = (0..len as u64)
                                .map(|i| pick(h ^ (i << 8), NODES as usize) as u32)
                                .collect();
                            cache.insert(src, dst, path.clone(), epoch);
                            model.insert(src, dst, path, epoch);
                        }
                        _ => {
                            epoch += 1;
                            let changed: Vec<bool> = (0..NODES)
                                .map(|u| u01(derive_seed2(h, u, 4)) < 0.08)
                                .collect();
                            cache.advance_epoch(epoch, &changed);
                            model.advance_epoch(epoch, &changed);
                        }
                    }
                    assert_eq!(cache.len(), model.entries.len(), "{ctx}: len");
                    assert_eq!(cache.epochs(), model.epochs(), "{ctx}: epochs");
                }
            }
        }
    }
}
