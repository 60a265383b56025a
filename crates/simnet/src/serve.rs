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
//! labels and giant are the ones the graph keeps with its repair.
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
//! kinds read one grid index over the universe, built once per run with
//! cells the smaller query radius wide (floored at the mean spacing): a
//! route's destination candidates and a coverage count are one disk scan,
//! and k-NN is the index's exact ring search with the snapshot's alive
//! mask as its filter, so a query reads the cells around its probe and
//! never the whole universe. Routes go through a per-client LRU cache; at
//! each epoch boundary the cache drops every entry whose path holds a node
//! the repair changed ([`wsn_rgg::IncrementalGraph::changed`]) and
//! promotes the rest. An unchanged node kept its liveness and its whole
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
use wsn_spatial::GridIndex;

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
    /// `csr.to_orig()`. Every other field is in deployment ids.
    pub csr: ChunkedCsr,
    /// Liveness per deployment id.
    pub alive: Vec<bool>,
    /// Alive deployment ids, ascending.
    pub alive_ids: Vec<u32>,
    /// Component label per deployment id: the smallest deployment id in
    /// the node's component, so labels depend neither on how the
    /// components pass ordered its unions nor on the layout.
    pub comp_label: Vec<u32>,
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

impl Snapshot {
    /// Capture the published view of `g` after its epoch repair. The CSR
    /// is a clone of the live post-splice graph, which shares its chunk
    /// buffers (the splice gives every chunk it rewrites a fresh one), so
    /// no adjacency is copied. The fingerprint, component labels and giant
    /// are the ones `g` keeps with its repair; that the fingerprint equals
    /// the batch engine's `graph_hash` channel is pinned by
    /// `tests/serve_concurrency.rs`.
    pub fn capture(epoch: u64, g: &IncrementalGraph) -> Snapshot {
        let csr = g.graph().clone();
        let comps = g.components();
        let alive = g.alive().to_vec();
        let alive_ids: Vec<u32> = (0..alive.len() as u32)
            .filter(|&u| alive[u as usize])
            .collect();
        Snapshot {
            epoch,
            fingerprint: csr.fingerprint(),
            comp_label: comps.by_id(&csr),
            csr,
            alive,
            alive_ids,
            giant_label: comps.giant().map_or(u32::MAX, |(label, _)| label),
            changed: g.changed().to_vec(),
        }
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

/// One cached route.
#[derive(Clone, Debug)]
struct CacheEntry {
    src: u32,
    dst: u32,
    path: Vec<u32>,
    /// Epoch the entry is valid for (bumped by promotion).
    epoch: u64,
}

/// A small deterministic LRU of routes, owned by one client.
///
/// Entries are keyed `(src, dst)`; the epoch tag records the snapshot the
/// path was last promoted to. [`RouteCache::advance_epoch`] is the
/// eviction rule `tests/serve_concurrency.rs` pins: an entry is promoted to
/// the new epoch only if its path holds no node the repair changed.
#[derive(Clone, Debug, Default)]
pub struct RouteCache {
    cap: usize,
    /// MRU-first order; linear scan is deterministic and fine at serve
    /// cache sizes (at most a few hundred entries).
    entries: Vec<CacheEntry>,
}

impl RouteCache {
    pub fn new(cap: usize) -> Self {
        RouteCache {
            cap,
            entries: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a route for `(src, dst)`, refreshing its LRU position.
    pub fn get(&mut self, src: u32, dst: u32) -> Option<&[u32]> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.src == src && e.dst == dst)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(&self.entries[0].path)
    }

    /// Insert a freshly computed route, evicting the LRU tail at capacity.
    pub fn insert(&mut self, src: u32, dst: u32, path: Vec<u32>, epoch: u64) {
        if self.cap == 0 {
            return;
        }
        self.entries.retain(|e| !(e.src == src && e.dst == dst));
        self.entries.insert(
            0,
            CacheEntry {
                src,
                dst,
                path,
                epoch,
            },
        );
        self.entries.truncate(self.cap);
    }

    /// Epoch-boundary sweep: drop every entry whose path holds a node
    /// marked in `changed` (the new snapshot's [`Snapshot::changed`]) and
    /// promote the rest to `epoch`. An unchanged node kept its liveness and
    /// its whole row, so a path valid on the previous snapshot that holds
    /// only unchanged nodes is valid on the new one.
    pub fn advance_epoch(&mut self, epoch: u64, changed: &[bool]) {
        self.entries
            .retain(|e| !e.path.iter().any(|&u| changed[u as usize]));
        for e in &mut self.entries {
            debug_assert!(e.epoch < epoch, "promotion must move forward");
            e.epoch = epoch;
        }
    }

    /// The epoch tags of the resident entries (test observability).
    pub fn epochs(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.epoch).collect()
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
    /// The universe's positions, indexed at [`query_cell`].
    index: GridIndex<'a>,
    /// The positions of the snapshot CSR's nodes (Morton ranks).
    rank_points: Arc<PointSet>,
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
            index,
            rank_points,
            window,
            cfg,
            max_edge,
        } = self;
        // Promote / evict cached routes across the epoch boundary. Epoch 0
        // starts with an empty cache, so `advance_epoch` is vacuous there.
        state.cache.advance_epoch(snap.epoch, &snap.changed);
        let cseed = derive_seed2(
            derive_seed(cfg.seed, stream::QUERY),
            snap.epoch,
            client as u64,
        );
        let mut in_disk = Vec::new();
        for qi in 0..cfg.queries_per_client as u64 {
            let h = derive_seed2(cseed, qi, 0);
            let t0 = Instant::now();
            if snap.alive_ids.is_empty() {
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
                        cfg.hot_routes.min(snap.alive_ids.len())
                    } else {
                        snap.alive_ids.len()
                    };
                    let src = snap.alive_ids[pick(derive_seed2(cseed, qi, 1), pool)];
                    in_disk.clear();
                    index.for_each_in_disk(index.points().get(src), cfg.route_radius, |u, _| {
                        if snap.alive[u as usize] && u != src {
                            in_disk.push(u);
                        }
                    });
                    in_disk.sort_unstable();
                    let dst = if in_disk.is_empty() {
                        src
                    } else {
                        in_disk[pick(derive_seed2(cseed, qi, 2), in_disk.len())]
                    };
                    state.cache_lookups += 1;
                    let word = if let Some(path) = state.cache.get(src, dst) {
                        state.cache_hits += 1;
                        path_word(Some(path))
                    } else {
                        let (to_rank, to_orig) = (snap.csr.to_rank(), snap.csr.to_orig());
                        let (s, t) = (to_rank[src as usize], to_rank[dst as usize]);
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
                    let ids = k_nearest_alive(index, &snap.alive, q, k);
                    state.absorb(path_word(Some(&ids)));
                }
                4 => {
                    // Coverage: alive sensors within the sensing radius of a
                    // probe point.
                    let q = sample_point(window, derive_seed2(cseed, qi, 5));
                    let mut covered = 0u64;
                    index.for_each_in_disk(q, cfg.coverage_radius, |u, _| {
                        if snap.alive[u as usize] {
                            covered += 1;
                        }
                    });
                    state.absorb(mix64(0xc0_0e1a ^ covered));
                }
                _ => {
                    // Component / giant membership of a random alive pair.
                    let u = snap.alive_ids[pick(derive_seed2(cseed, qi, 6), snap.alive_ids.len())];
                    let v = snap.alive_ids[pick(derive_seed2(cseed, qi, 7), snap.alive_ids.len())];
                    let same = (snap.comp_label[u as usize] == snap.comp_label[v as usize]) as u64;
                    let giant = (snap.comp_label[u as usize] == snap.giant_label) as u64;
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

/// The `k` nearest *alive* sensors to `q` (fewer when fewer are alive),
/// by the index's exact ring search, ordered by `(distance², id)`.
fn k_nearest_alive(index: &GridIndex, alive: &[bool], q: Point, k: usize) -> Vec<u32> {
    index
        .knn_where(q, k, |u| alive[u as usize])
        .into_iter()
        .map(|(u, _)| u)
        .collect()
}

/// The query grid's cell side: the smaller query radius, floored at the
/// universe's mean spacing. No answer depends on it — route destinations
/// are sorted before the draw, coverage is a count and k-NN is ordered by
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
    let engine = Engine {
        index: GridIndex::build(points, query_cell(points, cfg)),
        rank_points: Arc::clone(stepper.incremental().rank_points()),
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

    #[test]
    fn k_nearest_alive_orders_by_distance_then_id() {
        let mut pts = PointSet::with_capacity(4);
        pts.push(Point::new(0.0, 0.0));
        pts.push(Point::new(1.0, 0.0));
        pts.push(Point::new(0.0, 1.0)); // same distance as id 1
        pts.push(Point::new(5.0, 5.0));
        let index = GridIndex::build(&pts, 1.0);
        let alive = vec![true, true, true, true];
        let got = k_nearest_alive(&index, &alive, Point::new(0.0, 0.0), 3);
        assert_eq!(got, vec![0, 1, 2]);
        let dead = vec![false, true, true, true];
        let got = k_nearest_alive(&index, &dead, Point::new(0.0, 0.0), 2);
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
            let indexes: Vec<GridIndex> = cells.iter().map(|&c| GridIndex::build(pts, c)).collect();
            for keep in [1.0, 0.5, 0.1, 0.0] {
                let mut alive: Vec<bool> = (0..n as u64)
                    .map(|u| u01(mix64(0xa11e ^ u)) < keep)
                    .collect();
                alive[n / 2] = true;
                let ids: Vec<u32> = (0..n as u32).filter(|&u| alive[u as usize]).collect();
                for &q in &probes {
                    let mut by_d: Vec<(f64, u32)> =
                        ids.iter().map(|&u| (q.dist_sq(pts.get(u)), u)).collect();
                    by_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let ks = [1, 2, 3, 5, 8, ids.len(), ids.len() + 1, ids.len() + 7];
                    for k in ks {
                        let want: Vec<u32> = by_d.iter().take(k).map(|e| e.1).collect();
                        for (index, c) in indexes.iter().zip(cells) {
                            let got = k_nearest_alive(index, &alive, q, k);
                            assert_eq!(got, want, "n {n} keep {keep} q {q:?} k {k} cell {c}");
                        }
                    }
                }
            }
        }
    }
}
