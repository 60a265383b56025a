//! Churn-driven lifetime simulation.
//!
//! The paper's claim is not just that SENS topologies are sparse at birth,
//! but that they stay power-efficient *over the network's lifetime*. This
//! module makes that measurable with one private epoch stepper, which every
//! loop that churns a network calls: [`simulate_lifetime_plain`],
//! [`simulate_lifetime_sens`] and the serve writer in [`crate::serve`]. The
//! stepper owns the battery population, the coverage probe and the
//! maintained topology, and each epoch it
//!
//! 1. routes a seeded traffic workload over the current topology — fewest
//!    hops, minimum radio energy, or max-min residual battery, per
//!    [`RoutePolicy`], or Fig. 9 between SENS tile representatives — and
//!    debits per-node batteries through the radio [`EnergyModel`],
//! 2. debits the per-node idle drain,
//! 3. applies the configured [`RenewalPolicy`] (mobile charger route,
//!    solar trickle, or nothing),
//! 4. kills battery-depleted nodes and injects random failures (uniform or
//!    spatially clustered — sector blackouts),
//! 5. admits replacement nodes from a reserve pool at a configurable join
//!    rate, and
//! 6. repairs the topology — **incrementally** through
//!    [`wsn_rgg::IncrementalGraph`] for the plain graphs (only the owners
//!    whose certificate holds an event re-select), or by per-epoch rebuild for the SENS
//!    constructions and for the bench's rebuild baseline.
//!
//! The lifetime loops then measure the repaired graph into a per-epoch
//! [`EpochReport`] (alive population, delivered / offered traffic, energy,
//! giant-component fraction, coverage, a CSR fingerprint) and a final
//! [`LifetimeReport`] with rounds-to-first-partition and
//! rounds-to-coverage-loss; the serve writer captures a snapshot instead.
//!
//! ## Epoch-granular death
//!
//! Battery depletion is discovered at the epoch boundary, never mid-epoch:
//! a node driven below zero by an early packet keeps forwarding later
//! packets of the *same* epoch (its battery goes further negative) and is
//! removed by the next death sweep. This models duty-cycled reality — a
//! radio drains past its usable threshold while still transmitting inside
//! one reporting round — and it keeps every packet's route a function of
//! the epoch-start topology, which is what makes the traffic loop
//! replayable and the reports thread-invariant. The alternative (dropping
//! paths through depleted relays mid-epoch) is deliberately **not**
//! implemented; `tests::depleted_relay_forwards_until_the_epoch_boundary`
//! pins the contract.
//!
//! ## Determinism contract
//!
//! Every random draw is a pure function of `(base seed, epoch, node)` (or
//! `(base seed, epoch, packet)` / `(base seed, epoch, blast centre)`) via
//! the workspace seed-derivation hashes — never of iteration order, thread
//! schedule, or floating-point accumulation order. The renewal policies
//! add no draw at all except sink rotation's per-epoch sink pick (its own
//! stream, so enabling it never shifts traffic or failure randomness).
//! Only [`RoutePolicy::MaxMinResidual`] reads batteries, so only its packets
//! route sequentially against live battery state. Hop-count and min-energy
//! paths depend on the epoch-start topology alone: an epoch's `(src, dst)`
//! pairs are drawn as before, their paths computed in one parallel fan-out
//! (hop count through the guided search of [`wsn_graph::bfs`], which
//! returns exactly the plain BFS path), and the batteries debited in packet
//! order. Two runs with the same seed produce byte-identical reports at
//! any `RAYON_NUM_THREADS`, which the golden suite pins at thread counts
//! {1, 4, 8}.

use std::fmt;
use std::time::Instant;

use rayon::prelude::*;
use serde::Serialize;

use crate::energy::EnergyModel;
use wsn_core::nn::build_nn_sens;
use wsn_core::params::{NnSensParams, UdgSensParams};
use wsn_core::subgraph::SensNetwork;
use wsn_core::tilegrid::TileGrid;
use wsn_core::udg::build_udg_sens;
use wsn_geom::hash::{derive_seed, derive_seed2, mix64};
use wsn_geom::{Aabb, Point};
use wsn_graph::{
    bfs::BfsScratch, components::connected_components, fingerprint, relabel, Csr, CsrView,
    GraphView,
};
use wsn_pointproc::PointSet;
use wsn_rgg::{compact_alive, Exec, IncTopology, IncrementalGraph, RepairStats};

/// Seed streams of the epoch loop (fixed so adding a draw never shifts
/// another's randomness).
mod stream {
    pub const TRAFFIC: u64 = 0x11;
    pub const FAIL: u64 = 0x12;
    pub const BLAST: u64 = 0x13;
    // 0x14 belongs to the serve-mode query stream (`crate::serve`).
    pub const SINK: u64 = 0x15;
}

/// Shard size (in topology tiles) of the per-epoch *rebuild* baseline —
/// the pipeline default, so "rebuild" means the production cold path.
const REBUILD_SHARD_TILES: usize = 16;

/// How per-epoch random failures are placed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnModel {
    /// Each alive node fails independently with probability `p_fail`.
    Uniform,
    /// Sector blackouts: seeded disk-shaped outage regions sized so the
    /// *expected* kill fraction is `p_fail`. WSN failures are spatially
    /// correlated in practice (weather, interference, battery drain along
    /// hot relay corridors), and clustering is also what makes incremental
    /// repair pay: dirty shards stay localised.
    Clustered { radius: f64 },
}

/// How the topology is maintained across epochs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepairMode {
    /// Per-event incremental repair ([`IncrementalGraph`]).
    Incremental,
    /// Cold Morton-ordered sharded rebuild every epoch (the bench
    /// baseline; see [`cold_sharded_rebuild`]).
    Rebuild,
}

/// How the plain-topology traffic loop chooses a path for each packet
/// (the SENS loop always routes Fig.-9 style between tile
/// representatives; this knob does not apply there).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RoutePolicy {
    /// Fewest hops (BFS, guided by the topology's edge-length bound when
    /// it has one) — the established default.
    #[default]
    HopCount,
    /// Minimum total radio energy under the configured [`EnergyModel`]
    /// (Dijkstra over per-hop `tx + rx` weights). Prefers many short hops
    /// once `β₂·d^α` dominates `β₁ + ρ`.
    MinEnergy,
    /// Maximise the minimum residual battery over the path's nodes
    /// (widest-path search) — the load-balancing variant: traffic steers
    /// around nearly-depleted relays, flattening the drain distribution.
    /// Packets are routed sequentially against live battery state, so the
    /// choice is deterministic and replayable.
    MaxMinResidual,
}

/// Per-epoch energy renewal, applied after traffic and before the death
/// sweep (a node recharged above zero escapes that epoch's sweep).
///
/// None of these draw randomness except [`RenewalPolicy::SinkRotation`],
/// whose per-epoch sink pick runs on its own seed stream — enabling any
/// renewal policy never shifts the traffic or failure draws.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RenewalPolicy {
    /// Batteries only drain (the established default).
    #[default]
    None,
    /// A wireless charging vehicle starts each epoch at the window centre
    /// and greedily serves the lowest-battery alive nodes under its
    /// travel budget (QCAL-style max/min charge bands): only nodes below
    /// `min_charge` are candidates, each visited node is topped up to
    /// `max_charge`, and every leg's Euclidean length is paid from the
    /// budget. Unaffordable candidates are skipped, the scan continues —
    /// so the route is a pure function of battery state and geometry.
    MobileCharger {
        travel_budget: f64,
        min_charge: f64,
        max_charge: f64,
    },
    /// Every alive node harvests `rate` per epoch, clamped to
    /// `max_charge` (an energy-neutral trickle ceiling).
    Solar { rate: f64, max_charge: f64 },
    /// No energy is added; instead each epoch elects a fresh sink among
    /// the alive nodes (seeded from its own `SINK` stream) and all
    /// traffic converges on it — rotating the hot relay
    /// neighbourhood the way LEACH-style cluster-head rotation does, so
    /// no fixed sink's neighbours drain first.
    SinkRotation,
}

/// Full configuration of a lifetime run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Epochs to simulate.
    pub epochs: usize,
    /// Initial battery of every node (and of every admitted reserve node).
    pub battery: f64,
    /// Per-epoch, per-alive-node idle drain (guarantees finite lifetime
    /// even for idle networks).
    pub idle_cost: f64,
    /// Packets routed per epoch.
    pub traffic_per_epoch: usize,
    /// Per-epoch random failure probability (see [`ChurnModel`]).
    pub p_fail: f64,
    pub churn_model: ChurnModel,
    /// Reserve nodes admitted per death (rounded; 0 = pure attrition).
    pub join_rate: f64,
    pub energy: EnergyModel,
    /// Per-epoch energy renewal (default: none — pure drain).
    pub renewal: RenewalPolicy,
    /// Path choice of the plain-topology traffic loop (default: BFS hop
    /// count; ignored by the SENS loop).
    pub route: RoutePolicy,
    /// Giant-component fraction below which the network counts as
    /// partitioned.
    pub partition_threshold: f64,
    /// Coverage fraction (vs the initial deployment) below which coverage
    /// counts as lost.
    pub coverage_threshold: f64,
    /// Probe-cell side of the coverage grid.
    pub coverage_cell: f64,
    /// Shard side of the incremental path's plan, in halo tiles: it sizes
    /// the maintained CSR's chunks (smaller = more, smaller chunks for the
    /// splice) and the `dirty` locality count; the repair finds its
    /// candidates from the events' own disks whatever it is.
    pub repair_tiles: usize,
    pub repair: RepairMode,
    /// Assert edge-identity of the incremental CSR against a cold rebuild
    /// after every epoch (the debug path; forced off by the bench's timed
    /// runs, on by default wherever debug assertions are enabled).
    pub verify: bool,
}

impl ChurnConfig {
    /// A lifetime run with the headline knobs set and every other field at
    /// its documented default. Checked by [`ChurnConfig::validate`], not
    /// here.
    pub fn new(
        epochs: usize,
        battery: f64,
        traffic_per_epoch: usize,
        p_fail: f64,
        join_rate: f64,
    ) -> Self {
        ChurnConfig {
            epochs,
            battery,
            idle_cost: 0.0,
            traffic_per_epoch,
            p_fail,
            churn_model: ChurnModel::Uniform,
            join_rate,
            energy: EnergyModel::free_space(),
            renewal: RenewalPolicy::None,
            route: RoutePolicy::HopCount,
            partition_threshold: 0.5,
            coverage_threshold: 0.9,
            coverage_cell: 1.0,
            repair_tiles: 4,
            repair: RepairMode::Incremental,
            verify: cfg!(debug_assertions),
        }
    }

    /// Whether the schedule is well-formed: a finite battery, a finite
    /// non-negative idle cost, `p_fail` in `[0, 1)`, a non-negative
    /// `join_rate`, a finite positive blast radius and coverage cell, and
    /// at least one repair tile per shard.
    pub fn validate(&self) -> Result<(), ChurnConfigError> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !self.battery.is_finite() {
            return Err(ChurnConfigError::Battery(self.battery));
        }
        if !(self.idle_cost.is_finite() && self.idle_cost >= 0.0) {
            return Err(ChurnConfigError::IdleCost(self.idle_cost));
        }
        if !(0.0..1.0).contains(&self.p_fail) {
            return Err(ChurnConfigError::PFail(self.p_fail));
        }
        if self.join_rate.is_nan() || self.join_rate < 0.0 {
            return Err(ChurnConfigError::JoinRate(self.join_rate));
        }
        if let ChurnModel::Clustered { radius } = self.churn_model {
            if !positive(radius) {
                return Err(ChurnConfigError::BlastRadius(radius));
            }
        }
        if !positive(self.coverage_cell) {
            return Err(ChurnConfigError::CoverageCell(self.coverage_cell));
        }
        if self.repair_tiles == 0 {
            return Err(ChurnConfigError::RepairTiles(self.repair_tiles));
        }
        Ok(())
    }
}

/// Why a [`ChurnConfig`] cannot run; each variant carries the bad value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnConfigError {
    Battery(f64),
    IdleCost(f64),
    PFail(f64),
    JoinRate(f64),
    BlastRadius(f64),
    CoverageCell(f64),
    RepairTiles(usize),
}

impl fmt::Display for ChurnConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnConfigError::Battery(b) => write!(f, "battery must be finite, got {b}"),
            ChurnConfigError::IdleCost(c) => write!(f, "idle cost must be finite and ≥ 0, got {c}"),
            ChurnConfigError::PFail(p) => write!(f, "p_fail must be in [0, 1), got {p}"),
            ChurnConfigError::JoinRate(r) => write!(f, "join_rate must be non-negative, got {r}"),
            ChurnConfigError::BlastRadius(r) => {
                write!(f, "blast radius must be finite and positive, got {r}")
            }
            ChurnConfigError::CoverageCell(c) => {
                write!(f, "coverage cell must be finite and positive, got {c}")
            }
            ChurnConfigError::RepairTiles(t) => write!(f, "repair tiles must be ≥ 1, got {t}"),
        }
    }
}

impl std::error::Error for ChurnConfigError {}

/// One epoch's outcome.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct EpochReport {
    pub epoch: u64,
    /// Nodes that depleted their battery this epoch.
    pub deaths_battery: u64,
    /// Nodes killed by the random-failure model this epoch.
    pub deaths_random: u64,
    /// Reserve nodes admitted this epoch.
    pub joins: u64,
    /// Alive population after churn and repair.
    pub alive: u64,
    /// Packets attempted (src ≠ dst).
    pub offered: u64,
    /// Packets that found a route.
    pub delivered: u64,
    /// Radio + idle energy spent this epoch.
    pub energy_spent: f64,
    /// Energy added by the renewal policy this epoch (0 without renewal).
    pub energy_recharged: f64,
    /// Sum of all alive batteries after the epoch.
    pub battery_residual: f64,
    /// Battery mass added by join admissions this epoch.
    pub battery_added: f64,
    /// Population variance of the alive batteries after the epoch — the
    /// load-balance witness (battery-aware routing and renewal should
    /// flatten it; 0 when fewer than one node is alive).
    pub battery_variance: f64,
    /// Sum of the battery vector over the *whole universe*, dead nodes'
    /// leftovers (including negative overshoot) included — the energy
    /// conservation witness: initial mass + joins + recharge − spend
    /// equals this exactly, every epoch.
    pub battery_universe: f64,
    /// |largest component| / |alive| on the repaired graph (0 when empty).
    pub giant_fraction: f64,
    /// Occupied coverage cells / initially occupied cells.
    pub coverage: f64,
    /// [`wsn_graph::fingerprint`] of the repaired universe-id CSR.
    pub graph_hash: u64,
    /// Shards whose padded extent holds a churn event
    /// ([`RepairStats::dirty`]; zero in rebuild mode and for SENS).
    pub shards_dirty: u64,
    /// Points the repair scanned ([`RepairStats::gathered`]: the UDG's
    /// join disks, or every other kind's candidate owners) — this tracks
    /// the churned region's population, not the network size (zeros in
    /// rebuild mode and for SENS).
    pub repair_gathered: u64,
    /// Wall-clock seconds of the repair (or rebuild) step.
    pub repair_secs: f64,
    /// Wall-clock seconds of that step spent splicing the repaired
    /// shards' edge delta into the chunked CSR (contained in
    /// `repair_secs`; 0 in rebuild mode and for SENS).
    pub repair_splice_secs: f64,
}

/// The whole run.
#[derive(Clone, Debug, Serialize)]
pub struct LifetimeReport {
    pub epochs: Vec<EpochReport>,
    /// First epoch whose giant fraction fell below the partition threshold.
    pub rounds_to_first_partition: Option<u64>,
    /// First epoch whose coverage fell below the coverage threshold.
    pub rounds_to_coverage_loss: Option<u64>,
    pub offered_total: u64,
    pub delivered_total: u64,
    pub energy_total: f64,
    /// Total energy the renewal policy added across the run.
    pub recharged_total: f64,
    pub deaths_battery_total: u64,
    pub deaths_random_total: u64,
    pub joins_total: u64,
    pub final_alive: u64,
    pub final_graph_hash: u64,
    /// Total wall-clock spent in repair steps (not golden material).
    pub repair_secs_total: f64,
    /// Total wall-clock spent in CSR splices (contained in
    /// `repair_secs_total`; not golden material).
    pub repair_splice_secs_total: f64,
}

impl LifetimeReport {
    fn from_epochs(epochs: Vec<EpochReport>, cfg: &ChurnConfig) -> Self {
        let first =
            |pred: &dyn Fn(&EpochReport) -> bool| epochs.iter().find(|e| pred(e)).map(|e| e.epoch);
        LifetimeReport {
            rounds_to_first_partition: first(&|e| e.giant_fraction < cfg.partition_threshold),
            rounds_to_coverage_loss: first(&|e| e.coverage < cfg.coverage_threshold),
            offered_total: epochs.iter().map(|e| e.offered).sum(),
            delivered_total: epochs.iter().map(|e| e.delivered).sum(),
            energy_total: epochs.iter().map(|e| e.energy_spent).sum(),
            recharged_total: epochs.iter().map(|e| e.energy_recharged).sum(),
            deaths_battery_total: epochs.iter().map(|e| e.deaths_battery).sum(),
            deaths_random_total: epochs.iter().map(|e| e.deaths_random).sum(),
            joins_total: epochs.iter().map(|e| e.joins).sum(),
            final_alive: epochs.last().map(|e| e.alive).unwrap_or(0),
            final_graph_hash: epochs.last().map(|e| e.graph_hash).unwrap_or(0),
            repair_secs_total: epochs.iter().map(|e| e.repair_secs).sum(),
            repair_splice_secs_total: epochs.iter().map(|e| e.repair_splice_secs).sum(),
            epochs,
        }
    }
}

/// Uniform f64 in `[0, 1)` from one hash word.
#[inline]
pub(crate) fn u01(x: u64) -> f64 {
    (mix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform index in `[0, len)` from one hash word.
#[inline]
pub(crate) fn pick(x: u64, len: usize) -> usize {
    (mix64(x) % len as u64) as usize
}

/// The fixed coverage probe grid: occupancy of `cell`-sided cells relative
/// to the initial deployment's occupancy, kept as per-cell alive counts
/// that each epoch's deaths and joins update.
struct CoverageProbe {
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Alive nodes per cell, and the cells holding at least one.
    alive_in: Vec<u32>,
    occupied: usize,
    baseline: usize,
}

impl CoverageProbe {
    /// `cell` is finite and positive ([`ChurnConfig::validate`]).
    fn new(points: &PointSet, alive: &[bool], window: &Aabb, cell: f64) -> Self {
        let cols = ((window.width() / cell).ceil() as usize).max(1);
        let rows = ((window.height() / cell).ceil() as usize).max(1);
        let mut probe = CoverageProbe {
            origin: window.min,
            cell,
            cols,
            rows,
            alive_in: vec![0; cols * rows],
            occupied: 0,
            baseline: 1,
        };
        for (u, p) in points.iter_enumerated() {
            if alive[u as usize] {
                probe.toggle(p, true);
            }
        }
        probe.baseline = probe.occupied.max(1);
        probe
    }

    /// Count a node at `p` into its cell (`alive`) or out of it.
    fn toggle(&mut self, p: Point, alive: bool) {
        let i = (((p.x - self.origin.x) / self.cell) as usize).min(self.cols - 1);
        let j = (((p.y - self.origin.y) / self.cell) as usize).min(self.rows - 1);
        let count = &mut self.alive_in[j * self.cols + i];
        if alive {
            *count += 1;
            self.occupied += usize::from(*count == 1);
        } else {
            *count -= 1;
            self.occupied -= usize::from(*count == 0);
        }
    }

    fn fraction(&self) -> f64 {
        self.occupied as f64 / self.baseline as f64
    }
}

/// Cold rebuild of a plain topology on the alive survivors, in universe
/// ids, through the production sharded path — the per-epoch baseline the
/// incremental path races (public so the lifetime bench's churn-locality
/// sweep races the *same* baseline instead of re-implementing it).
pub fn cold_sharded_rebuild(points: &PointSet, alive: &[bool], kind: IncTopology) -> Csr {
    kind.build_alive(
        points,
        alive,
        Exec::Sharded {
            tiles: REBUILD_SHARD_TILES,
        },
    )
}

/// The maintained topology, one arm per repair strategy. The arms differ
/// only in their repair, their traffic pool and routing, and the
/// giant-fraction denominator.
pub(crate) enum Maintained {
    /// Per-event incremental repair of a plain topology.
    Inc(Box<IncrementalGraph>),
    /// Cold sharded rebuild of a plain topology every epoch.
    Rebuild {
        kind: IncTopology,
        alive: Vec<bool>,
        csr: Csr,
    },
    /// Rebuild of a SENS construction on the compacted survivors every
    /// epoch: `net` with its compact → universe id map, `csr` relabelled.
    Sens {
        kind: SensKind,
        grid: TileGrid,
        alive: Vec<bool>,
        net: Option<(Box<SensNetwork>, Vec<u32>)>,
        csr: Csr,
    },
}

impl Maintained {
    pub(crate) fn plain(
        points: &PointSet,
        alive: &[bool],
        kind: IncTopology,
        mode: RepairMode,
        tiles: usize,
    ) -> Self {
        match mode {
            RepairMode::Incremental => {
                let g = IncrementalGraph::build(points.clone(), alive.to_vec(), kind, tiles);
                Maintained::Inc(Box::new(g))
            }
            RepairMode::Rebuild => Maintained::Rebuild {
                kind,
                alive: alive.to_vec(),
                csr: cold_sharded_rebuild(points, alive, kind),
            },
        }
    }

    fn graph(&self) -> CsrView<'_> {
        match self {
            Maintained::Inc(g) => CsrView::Chunked(g.graph()),
            Maintained::Rebuild { csr, .. } | Maintained::Sens { csr, .. } => CsrView::Dense(csr),
        }
    }

    fn alive(&self) -> &[bool] {
        match self {
            Maintained::Inc(g) => g.alive(),
            Maintained::Rebuild { alive, .. } | Maintained::Sens { alive, .. } => alive,
        }
    }

    fn apply_churn(&mut self, points: &PointSet, deaths: &[u32], joins: &[u32]) -> RepairStats {
        let toggle = |alive: &mut [bool]| {
            for (ids, now) in [(deaths, false), (joins, true)] {
                for &u in ids {
                    assert_ne!(alive[u as usize], now, "node {u} already has alive = {now}");
                    alive[u as usize] = now;
                }
            }
        };
        match self {
            Maintained::Inc(g) => return g.apply_churn(deaths, joins),
            Maintained::Rebuild { kind, alive, csr } => {
                toggle(alive);
                *csr = cold_sharded_rebuild(points, alive, *kind);
            }
            Maintained::Sens {
                kind,
                grid,
                alive,
                net,
                csr,
            } => {
                toggle(alive);
                let (sub, ids) = compact_alive(points, alive);
                *net = (!sub.is_empty()).then(|| {
                    let grid = grid.clone();
                    let built = match *kind {
                        SensKind::Udg(params) => build_udg_sens(&sub, params, grid),
                        SensKind::Nn(params) => {
                            let base = wsn_rgg::build_knn(&sub, params.k);
                            build_nn_sens(&sub, &base, params, grid)
                        }
                    };
                    (Box::new(built.expect("params validated by caller")), ids)
                });
                *csr = match net {
                    Some((net, ids)) => relabel(&net.graph, ids, points.len()),
                    None => Csr::empty(points.len()),
                };
            }
        }
        RepairStats::default()
    }
}

/// The stepper's battery/death/join bookkeeping over one run's universe,
/// churn window, schedule and seed.
struct Population<'a> {
    points: &'a PointSet,
    window: Aabb,
    cfg: &'a ChurnConfig,
    seed: u64,
    battery: Vec<f64>,
    /// Reserve ids not yet admitted (initially dead), in ascending order.
    reserve: std::vec::IntoIter<u32>,
}

impl<'a> Population<'a> {
    fn new(
        points: &'a PointSet,
        initial_alive: &[bool],
        window: Aabb,
        cfg: &'a ChurnConfig,
        seed: u64,
    ) -> Self {
        Population {
            points,
            window,
            cfg,
            seed,
            battery: initial_alive
                .iter()
                .map(|&a| if a { cfg.battery } else { 0.0 })
                .collect(),
            reserve: (0..points.len() as u32)
                .filter(|&u| !initial_alive[u as usize])
                .collect::<Vec<_>>()
                .into_iter(),
        }
    }

    /// Battery-depleted + random deaths for this epoch, ascending ids.
    /// Every draw is a pure function of `(seed, epoch, node)` or
    /// `(seed, epoch, blast centre)`.
    fn select_deaths(&self, alive: &[bool], epoch: u64) -> (Vec<u32>, u64, u64) {
        let (points, window, cfg, seed) = (self.points, &self.window, self.cfg, self.seed);
        let mut deaths = Vec::new();
        let (mut by_battery, mut by_random) = (0u64, 0u64);
        let fail_seed = derive_seed2(derive_seed(seed, stream::FAIL), epoch, 0);
        let blasts: Vec<(Point, f64)> = match cfg.churn_model {
            ChurnModel::Clustered { radius } if cfg.p_fail > 0.0 => {
                let per_blast = std::f64::consts::PI * radius * radius;
                let count = (((-(1.0 - cfg.p_fail).ln()) * window.area() / per_blast).round()
                    as usize)
                    .max(1);
                let blast_seed = derive_seed2(derive_seed(seed, stream::BLAST), epoch, 0);
                (0..count as u64)
                    .map(|c| {
                        let x = window.min.x + window.width() * u01(derive_seed2(blast_seed, c, 0));
                        let y =
                            window.min.y + window.height() * u01(derive_seed2(blast_seed, c, 1));
                        (Point::new(x, y), radius)
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        for (u, p) in points.iter_enumerated() {
            if !alive[u as usize] {
                continue;
            }
            if self.battery[u as usize] <= 0.0 {
                deaths.push(u);
                by_battery += 1;
                continue;
            }
            let dies = match cfg.churn_model {
                ChurnModel::Uniform => {
                    cfg.p_fail > 0.0 && u01(derive_seed2(fail_seed, u as u64, 0)) < cfg.p_fail
                }
                ChurnModel::Clustered { .. } => blasts.iter().any(|&(c, r)| p.dist_sq(c) <= r * r),
            };
            if dies {
                deaths.push(u);
                by_random += 1;
            }
        }
        (deaths, by_battery, by_random)
    }

    /// Admit `round(join_rate × deaths)` reserve nodes (ascending ids),
    /// charging each a fresh battery. Returns ids and battery mass added.
    fn admit_joins(&mut self, deaths: usize) -> (Vec<u32>, f64) {
        let cfg = self.cfg;
        let want = (cfg.join_rate * deaths as f64).round() as usize;
        let joins: Vec<u32> = self.reserve.by_ref().take(want).collect();
        for &j in &joins {
            self.battery[j as usize] = cfg.battery;
        }
        let added = joins.len() as f64 * cfg.battery;
        (joins, added)
    }

    /// Debit one delivered path: transmit at each hop's sender, receive at
    /// each hop's receiver. Returns the radio energy spent.
    ///
    /// Deliberately **no residual-charge check**: death is epoch-granular
    /// (see the module docs) — a relay driven below zero by an earlier
    /// packet keeps forwarding for the rest of the epoch, its battery
    /// going further negative, and is collected by the next death sweep.
    /// Zero-length and single-node paths have no window and debit nothing.
    fn debit_path(&mut self, path: &[u32]) -> f64 {
        let (points, model) = (self.points, &self.cfg.energy);
        let mut spent = 0.0;
        for w in path.windows(2) {
            let d = points.get(w[0]).dist(points.get(w[1]));
            self.battery[w[0] as usize] -= model.tx(d);
            self.battery[w[1] as usize] -= model.rx();
            spent += model.hop(d);
        }
        spent
    }

    /// Apply the epoch's renewal policy over the alive population (after
    /// traffic and idle drain, before the death sweep — a node recharged
    /// above zero escapes the sweep). Returns the energy mass added.
    fn apply_renewal(&mut self, alive: &[bool]) -> f64 {
        match self.cfg.renewal {
            RenewalPolicy::None | RenewalPolicy::SinkRotation => 0.0,
            RenewalPolicy::Solar { rate, max_charge } => {
                let mut gained = 0.0;
                for (u, &a) in alive.iter().enumerate() {
                    if !a {
                        continue;
                    }
                    let headroom = max_charge - self.battery[u];
                    if headroom > 0.0 {
                        let g = rate.min(headroom);
                        self.battery[u] += g;
                        gained += g;
                    }
                }
                gained
            }
            RenewalPolicy::MobileCharger {
                travel_budget,
                min_charge,
                max_charge,
            } => {
                // Candidates: alive nodes below the min-charge band,
                // neediest first (ties by id — `total_cmp` keeps the order
                // total even for negative-overshoot batteries).
                let mut cands: Vec<u32> = alive
                    .iter()
                    .enumerate()
                    .filter(|&(u, &a)| a && self.battery[u] < min_charge)
                    .map(|(u, _)| u as u32)
                    .collect();
                cands.sort_by(|&a, &b| {
                    self.battery[a as usize]
                        .total_cmp(&self.battery[b as usize])
                        .then(a.cmp(&b))
                });
                let mut cur = self.window.center();
                let mut budget = travel_budget;
                let mut gained = 0.0;
                for &u in &cands {
                    let p = self.points.get(u);
                    let leg = cur.dist(p);
                    if leg > budget {
                        // Unaffordable from here; keep scanning — a nearer
                        // (slightly fuller) candidate may still fit.
                        continue;
                    }
                    budget -= leg;
                    cur = p;
                    let g = max_charge - self.battery[u as usize];
                    if g > 0.0 {
                        self.battery[u as usize] = max_charge;
                        gained += g;
                    }
                }
                gained
            }
        }
    }

    /// `(Σ battery over alive, population variance over alive, Σ battery
    /// over the whole universe)` in one deterministic ascending-id pass —
    /// the universe sum includes dead nodes' leftovers (and negative
    /// overshoot), which is exactly what makes it the conservation
    /// witness recorded as [`EpochReport::battery_universe`].
    fn battery_stats(&self, alive: &[bool]) -> (f64, f64, f64) {
        let mut residual = 0.0;
        let mut universe = 0.0;
        let mut count = 0usize;
        for (u, &b) in self.battery.iter().enumerate() {
            universe += b;
            if alive[u] {
                residual += b;
                count += 1;
            }
        }
        if count == 0 {
            return (residual, 0.0, universe);
        }
        let mean = residual / count as f64;
        let mut var = 0.0;
        for (u, &b) in self.battery.iter().enumerate() {
            if alive[u] {
                let d = b - mean;
                var += d * d;
            }
        }
        (residual, var / count as f64, universe)
    }

    /// Per-epoch idle drain over the alive population.
    fn debit_idle(&mut self, alive: &[bool]) -> f64 {
        let cost = self.cfg.idle_cost;
        if cost <= 0.0 {
            return 0.0;
        }
        let mut spent = 0.0;
        for (u, a) in alive.iter().enumerate() {
            if *a {
                self.battery[u] -= cost;
                spent += cost;
            }
        }
        spent
    }
}

/// An epoch's traffic `(src, dst)` pairs drawn from `pool`, `src == dst`
/// skipped. Under sink rotation every packet goes to one per-epoch sink
/// drawn from its own seed stream, so no other draw shifts.
fn draw_pairs<T: Copy + PartialEq>(
    pool: &[T],
    cfg: &ChurnConfig,
    seed: u64,
    epoch: u64,
) -> Vec<(T, T)> {
    if pool.len() < 2 {
        return Vec::new();
    }
    let tseed = derive_seed2(derive_seed(seed, stream::TRAFFIC), epoch, 0);
    let sink = match cfg.renewal {
        RenewalPolicy::SinkRotation => {
            let s = derive_seed2(derive_seed(seed, stream::SINK), epoch, 0);
            Some(pool[pick(s, pool.len())])
        }
        _ => None,
    };
    (0..cfg.traffic_per_epoch as u64)
        .map(|i| {
            let src = pool[pick(derive_seed2(tseed, i, 0), pool.len())];
            let dst = sink.unwrap_or_else(|| pool[pick(derive_seed2(tseed, i, 1), pool.len())]);
            (src, dst)
        })
        .filter(|&(src, dst)| src != dst)
        .collect()
}

/// The one epoch stepper: the population, the coverage probe and the
/// maintained topology of a churning network.
pub(crate) struct Stepper<'a> {
    pop: Population<'a>,
    probe: CoverageProbe,
    /// Alive population, kept from each step's deaths and joins.
    n_alive: usize,
    maint: Maintained,
}

impl<'a> Stepper<'a> {
    /// Check the universe and `cfg` (panicking on an invalid one), then
    /// build the maintained topology over the initially alive nodes.
    pub(crate) fn new(
        points: &'a PointSet,
        initial_alive: &[bool],
        cfg: &'a ChurnConfig,
        seed: u64,
        build: impl FnOnce() -> Maintained,
    ) -> Self {
        assert_eq!(points.len(), initial_alive.len());
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid churn configuration: {e}"));
        let maint = build();
        // Blasts and the charger live in the SENS tile grid's area, or in
        // the universe's bounding box.
        let window = match &maint {
            Maintained::Sens { grid, .. } => grid.covered_area(),
            _ => points.bounding_box().unwrap_or_else(|| Aabb::square(1.0)),
        };
        Stepper {
            probe: CoverageProbe::new(points, initial_alive, &window, cfg.coverage_cell),
            n_alive: initial_alive.iter().filter(|&&a| a).count(),
            pop: Population::new(points, initial_alive, window, cfg, seed),
            maint,
        }
    }

    /// The maintained incremental graph, which the serve writer captures.
    pub(crate) fn incremental(&self) -> &IncrementalGraph {
        match &self.maint {
            Maintained::Inc(g) => g,
            _ => unreachable!("only the incremental arm keeps an IncrementalGraph"),
        }
    }

    /// Route the epoch's packets over the epoch-start topology and debit
    /// their paths. Returns `(offered, delivered, radio energy)`.
    fn traffic(&mut self, epoch: u64) -> (u64, u64, f64) {
        let pop = &mut self.pop;
        let (points, cfg, seed) = (pop.points, pop.cfg, pop.seed);
        if cfg.traffic_per_epoch == 0 {
            return (0, 0, 0.0);
        }
        let (offered, paths): (usize, Vec<Option<Vec<u32>>>) = match &self.maint {
            Maintained::Sens { net, .. } => {
                let Some((net, to_universe)) = net else {
                    return (0, 0, 0.0);
                };
                // Fig. 9 between core tile representatives; sink rotation
                // elects a core *site* per epoch.
                let cores: Vec<wsn_perc::Site> = net
                    .lattice
                    .sites()
                    .filter(|&s| {
                        net.lattice.is_open(s) && net.rep_of(s).is_some_and(|r| net.is_member(r))
                    })
                    .collect();
                let pairs = draw_pairs(&cores, cfg, seed, epoch);
                let paths = pairs
                    .iter()
                    .map(|&(a, b)| {
                        let (_, path) = crate::route::route_packet_with_path(net, a, b);
                        path.map(|p| p.iter().map(|&c| to_universe[c as usize]).collect())
                    })
                    .collect();
                (pairs.len(), paths)
            }
            plain => {
                let alive = plain.alive();
                let alive_ids: Vec<u32> = (0..points.len() as u32)
                    .filter(|&u| alive[u as usize])
                    .collect();
                let pairs = draw_pairs(&alive_ids, cfg, seed, epoch);
                // Pairs are drawn in deployment ids and searched between
                // the graph's nodes: Morton ranks with rank-ordered
                // positions for the incremental arm, the ids themselves
                // for the dense rebuild. Paths go back through `id`.
                let graph = plain.graph();
                let (pos, to_rank) = match plain {
                    Maintained::Inc(g) => (&**g.rank_points(), Some(g.graph().to_rank())),
                    _ => (points, None),
                };
                let node = |u: u32| to_rank.map_or(u, |m| m[u as usize]);
                let ids = |mut path: Vec<u32>| {
                    path.iter_mut().for_each(|u| *u = graph.id(*u));
                    path
                };
                if cfg.route == RoutePolicy::MaxMinResidual {
                    // Widest path over live residual charge: packets are
                    // routed one at a time against the batteries as the
                    // previous packet left them, so the search is exact and
                    // the whole epoch stays replayable.
                    let (mut delivered, mut spent) = (0u64, 0.0);
                    for &(src, dst) in &pairs {
                        let path =
                            wsn_graph::dijkstra::widest_path(&graph, node(src), node(dst), |u| {
                                pop.battery[graph.id(u) as usize]
                            });
                        if let Some(path) = path.map(ids) {
                            delivered += 1;
                            spent += pop.debit_path(&path);
                        }
                    }
                    return (pairs.len() as u64, delivered, spent);
                }
                // Battery-independent paths: one fan-out over the epoch's
                // packets with a scratch per worker, then the debits in
                // packet order.
                let max_edge = match plain {
                    Maintained::Inc(g) => g.kind().max_edge_len(),
                    Maintained::Rebuild { kind, .. } => kind.max_edge_len(),
                    Maintained::Sens { .. } => None,
                };
                let offered = pairs.len();
                let paths = pairs
                    .into_par_iter()
                    .map_init(BfsScratch::default, |scratch, (src, dst)| {
                        let (src, dst) = (node(src), node(dst));
                        let path = if cfg.route == RoutePolicy::HopCount {
                            scratch.guided_path(&graph, src, dst, max_edge, |u| pos.get(u))
                        } else {
                            wsn_graph::dijkstra::path(&graph, src, dst, |u, v| {
                                cfg.energy.hop(pos.get(u).dist(pos.get(v)))
                            })
                        };
                        path.map(ids)
                    })
                    .collect();
                (offered, paths)
            }
        };
        let (mut delivered, mut spent) = (0u64, 0.0);
        for path in paths.iter().flatten() {
            delivered += 1;
            spent += pop.debit_path(path);
        }
        (offered as u64, delivered, spent)
    }

    /// Advance one epoch: traffic, idle drain, renewal, deaths, joins, then
    /// repair (checked against a cold rebuild when `cfg.verify`). The
    /// measured fields stay zero until [`Stepper::report`].
    pub(crate) fn step(&mut self, epoch: u64) -> EpochReport {
        let (offered, delivered, radio) = self.traffic(epoch);
        let (pop, maint) = (&mut self.pop, &mut self.maint);
        let energy_spent = radio + pop.debit_idle(maint.alive());
        let energy_recharged = pop.apply_renewal(maint.alive());
        let (deaths, deaths_battery, deaths_random) = pop.select_deaths(maint.alive(), epoch);
        let (joins, battery_added) = pop.admit_joins(deaths.len());
        for (ids, now) in [(&deaths, false), (&joins, true)] {
            for &u in ids {
                self.probe.toggle(pop.points.get(u), now);
            }
        }
        self.n_alive = self.n_alive + joins.len() - deaths.len();

        let t = Instant::now();
        let repair = maint.apply_churn(pop.points, &deaths, &joins);
        let repair_secs = t.elapsed().as_secs_f64();
        if pop.cfg.verify {
            if let Maintained::Inc(g) = maint {
                assert!(
                    g.verify_cold(),
                    "incremental repair diverged from cold rebuild at epoch {epoch}"
                );
            }
        }
        EpochReport {
            epoch,
            deaths_battery,
            deaths_random,
            joins: joins.len() as u64,
            offered,
            delivered,
            energy_spent,
            energy_recharged,
            battery_added,
            shards_dirty: repair.dirty as u64,
            repair_gathered: repair.gathered as u64,
            repair_secs,
            repair_splice_secs: repair.splice_secs,
            ..EpochReport::default()
        }
    }

    /// Fill in the measured fields of `stepped` from the repaired graph.
    fn report(&self, stepped: EpochReport) -> EpochReport {
        let n_alive = self.n_alive;
        let graph = self.maint.graph();
        // The incremental graph keeps its giant and fingerprint with the
        // repair. The rebuilds run the full passes, the components pass
        // beside the fingerprint (a sum over node blocks). SENS elects only
        // some alive sensors into the topology, so its giant fraction is
        // over the nodes of degree ≥ 1 (over all alive nodes a healthy core
        // would read "partitioned").
        let (giant, graph_hash) = match &self.maint {
            Maintained::Inc(g) => (g.components().giant(), g.graph().fingerprint()),
            _ => rayon::join(
                || connected_components(&graph).giant(),
                || fingerprint(&graph),
            ),
        };
        let of = match self.maint {
            Maintained::Sens { .. } => (0..graph.n() as u32)
                .filter(|&u| graph.degree(u) > 0)
                .count(),
            _ => n_alive,
        };
        let giant_fraction = match of {
            0 => 0.0,
            _ => giant.map_or(0.0, |(_, size)| size as f64 / of as f64),
        };
        let (battery_residual, battery_variance, battery_universe) =
            self.pop.battery_stats(self.maint.alive());
        EpochReport {
            alive: n_alive as u64,
            battery_residual,
            battery_variance,
            battery_universe,
            giant_fraction,
            coverage: self.probe.fraction(),
            graph_hash,
            ..stepped
        }
    }

    /// Step and report every epoch of `cfg`.
    fn run(mut self) -> LifetimeReport {
        let epochs = (0..self.pop.cfg.epochs as u64)
            .map(|epoch| {
                let stepped = self.step(epoch);
                self.report(stepped)
            })
            .collect();
        LifetimeReport::from_epochs(epochs, self.pop.cfg)
    }
}

/// Simulate the lifetime of a plain (non-SENS) topology.
///
/// `points` is the node universe — the initial deployment plus the reserve
/// pool; `initial_alive` marks the deployed subset (reserve nodes start
/// dead and are admitted by the join process in ascending-id order).
pub fn simulate_lifetime_plain(
    points: &PointSet,
    initial_alive: &[bool],
    kind: IncTopology,
    cfg: &ChurnConfig,
    seed: u64,
) -> LifetimeReport {
    Stepper::new(points, initial_alive, cfg, seed, || {
        Maintained::plain(points, initial_alive, kind, cfg.repair, cfg.repair_tiles)
    })
    .run()
}

/// Which SENS construction a lifetime run maintains (always by per-epoch
/// rebuild: the SENS election/stitch is global, not shard-local).
#[derive(Clone, Copy, Debug)]
pub enum SensKind {
    Udg(UdgSensParams),
    Nn(NnSensParams),
}

/// Simulate the lifetime of a SENS construction (Fig. 9 routing between
/// tile representatives, per-epoch rebuild as repair).
pub fn simulate_lifetime_sens(
    points: &PointSet,
    initial_alive: &[bool],
    kind: SensKind,
    grid: TileGrid,
    cfg: &ChurnConfig,
    seed: u64,
) -> LifetimeReport {
    Stepper::new(points, initial_alive, cfg, seed, || {
        // No events: the empty churn builds the initial construction.
        let alive = initial_alive.to_vec();
        let csr = Csr::empty(points.len());
        let mut maint = Maintained::Sens {
            kind,
            grid,
            alive,
            net: None,
            csr,
        };
        maint.apply_churn(points, &[], &[]);
        maint
    })
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_pointproc::{rng_from_seed, sample_poisson_window};

    fn universe(seed: u64, side: f64, lambda: f64, reserve_frac: f64) -> (PointSet, Vec<bool>) {
        let pts = sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
        let n = pts.len();
        let deployed = n - (reserve_frac * n as f64).round() as usize;
        let alive: Vec<bool> = (0..n).map(|i| i < deployed).collect();
        (pts, alive)
    }

    /// Everything except wall-clock (`repair_secs*`) in a comparable form.
    fn golden_view(r: &LifetimeReport) -> String {
        let epochs: Vec<String> = r
            .epochs
            .iter()
            .map(|e| {
                format!(
                    "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                    e.epoch,
                    e.deaths_battery,
                    e.deaths_random,
                    e.joins,
                    e.alive,
                    e.offered,
                    e.delivered,
                    e.energy_spent,
                    e.battery_residual,
                    e.battery_added,
                    e.giant_fraction,
                    e.coverage,
                    e.graph_hash,
                    e.shards_dirty,
                )
            })
            .collect();
        format!(
            "{epochs:?} {:?} {:?} {} {} {} {}",
            r.rounds_to_first_partition,
            r.rounds_to_coverage_loss,
            r.offered_total,
            r.delivered_total,
            r.energy_total,
            r.final_graph_hash,
        )
    }

    #[test]
    fn bad_blast_radius_and_coverage_cell_are_typed_errors() {
        let mut cfg = ChurnConfig::new(2, 1e6, 0, 0.1, 1.0);
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            cfg.churn_model = ChurnModel::Clustered { radius: r };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, ChurnConfigError::BlastRadius(x) if x.to_bits() == r.to_bits()));
        }
        cfg.churn_model = ChurnModel::Clustered { radius: 1.5 };
        assert_eq!(cfg.validate(), Ok(()));
        for c in [0.0, -2.0, f64::NAN] {
            cfg.coverage_cell = c;
            assert!(matches!(
                cfg.validate(),
                Err(ChurnConfigError::CoverageCell(_))
            ));
        }
        assert_eq!(
            ChurnConfigError::BlastRadius(0.0).to_string(),
            "blast radius must be finite and positive, got 0"
        );
    }

    #[test]
    fn zero_repair_tiles_is_a_typed_error() {
        let mut cfg = ChurnConfig::new(2, 1e6, 0, 0.1, 1.0);
        cfg.repair_tiles = 0;
        assert_eq!(cfg.validate(), Err(ChurnConfigError::RepairTiles(0)));
        assert_eq!(
            ChurnConfigError::RepairTiles(0).to_string(),
            "repair tiles must be ≥ 1, got 0"
        );
        cfg.repair_tiles = 1;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn negative_or_non_finite_idle_cost_is_a_typed_error() {
        let mut cfg = ChurnConfig::new(2, 1e6, 0, 0.1, 1.0);
        for c in [-1.0, -1e-300, f64::NAN, f64::INFINITY] {
            cfg.idle_cost = c;
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, ChurnConfigError::IdleCost(x) if x.to_bits() == c.to_bits()));
        }
        cfg.idle_cost = 0.0;
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(
            ChurnConfigError::IdleCost(-1.0).to_string(),
            "idle cost must be finite and ≥ 0, got -1"
        );
    }

    #[test]
    fn non_finite_battery_is_a_typed_error() {
        let mut cfg = ChurnConfig::new(2, 1e6, 0, 0.1, 1.0);
        for b in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            cfg.battery = b;
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, ChurnConfigError::Battery(x) if x.to_bits() == b.to_bits()));
        }
        assert_eq!(
            ChurnConfigError::Battery(f64::INFINITY).to_string(),
            "battery must be finite, got inf"
        );
    }

    #[test]
    fn plain_lifetime_is_deterministic_and_delivers() {
        let (pts, alive) = universe(1, 8.0, 20.0, 0.2);
        let cfg = ChurnConfig::new(4, 1e6, 20, 0.1, 1.0);
        let kind = IncTopology::Udg { radius: 1.0 };
        let a = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 7);
        let b = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 7);
        assert_eq!(golden_view(&a), golden_view(&b));
        assert!(a.offered_total > 0);
        assert!(a.delivered_total > 0);
        assert!(a.energy_total > 0.0);
        // A different seed must change the trajectory.
        let c = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 8);
        assert_ne!(a.final_graph_hash, c.final_graph_hash);
    }

    #[test]
    fn incremental_and_rebuild_walk_identical_topologies() {
        let (pts, alive) = universe(2, 8.0, 20.0, 0.25);
        let mut cfg = ChurnConfig::new(4, 1e6, 12, 0.12, 0.8);
        for kind in [
            IncTopology::Udg { radius: 1.0 },
            IncTopology::Rng { radius: 1.0 },
            IncTopology::Knn { k: 4 },
        ] {
            cfg.repair = RepairMode::Incremental;
            let inc = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 3);
            cfg.repair = RepairMode::Rebuild;
            let reb = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 3);
            assert_eq!(inc.epochs.len(), reb.epochs.len());
            for (a, b) in inc.epochs.iter().zip(&reb.epochs) {
                assert_eq!(
                    a.graph_hash, b.graph_hash,
                    "{kind:?} epoch {} topology diverged",
                    a.epoch
                );
                assert_eq!(a.alive, b.alive);
                assert_eq!(a.delivered, b.delivered);
            }
        }
    }

    #[test]
    fn batteries_are_monotone_modulo_admissions() {
        let (pts, alive) = universe(3, 8.0, 25.0, 0.2);
        // Tight batteries so idle drain alone depletes nodes mid-run.
        let mut cfg = ChurnConfig::new(6, 450.0, 30, 0.05, 1.0);
        cfg.idle_cost = 100.0;
        let r = simulate_lifetime_plain(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg, 5);
        assert!(r.deaths_battery_total > 0, "tight batteries must deplete");
        let mut prev = f64::INFINITY;
        for e in &r.epochs {
            assert!(
                e.battery_residual <= prev + e.battery_added + 1e-6,
                "battery increased at epoch {}: {} > {} + {}",
                e.epoch,
                e.battery_residual,
                prev,
                e.battery_added
            );
            prev = e.battery_residual;
        }
    }

    #[test]
    fn heavy_churn_partitions_and_loses_coverage() {
        let (pts, alive) = universe(4, 10.0, 15.0, 0.0);
        let mut cfg = ChurnConfig::new(8, 1e6, 8, 0.45, 0.0);
        cfg.churn_model = ChurnModel::Clustered { radius: 2.0 };
        let r = simulate_lifetime_plain(&pts, &alive, IncTopology::Rng { radius: 1.0 }, &cfg, 11);
        assert!(
            r.rounds_to_coverage_loss.is_some(),
            "45% clustered churn per epoch must lose coverage within 8 epochs"
        );
        assert!(r.final_alive < r.epochs[0].alive);
        // Alive population must be strictly decreasing with no joins.
        for w in r.epochs.windows(2) {
            assert!(w[1].alive <= w[0].alive);
        }
    }

    #[test]
    fn joins_replenish_the_population() {
        let (pts, alive) = universe(5, 8.0, 20.0, 0.4);
        let mut cfg = ChurnConfig::new(5, 1e6, 6, 0.2, 1.0);
        cfg.churn_model = ChurnModel::Uniform;
        let r = simulate_lifetime_plain(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg, 13);
        assert!(r.joins_total > 0);
        let no_joins = {
            let mut c = cfg;
            c.join_rate = 0.0;
            simulate_lifetime_plain(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &c, 13)
        };
        assert_eq!(no_joins.joins_total, 0);
        assert!(r.final_alive > no_joins.final_alive);
    }

    #[test]
    fn sens_lifetime_routes_and_degrades() {
        let params = UdgSensParams::strict_default();
        let grid = TileGrid::fit(12.0, params.tile_side);
        let window = grid.covered_area();
        let pts = sample_poisson_window(&mut rng_from_seed(6), 30.0, &window);
        let alive = vec![true; pts.len()];
        let mut cfg = ChurnConfig::new(4, 1e7, 25, 0.15, 0.0);
        cfg.coverage_cell = params.tile_side;
        let r = simulate_lifetime_sens(&pts, &alive, SensKind::Udg(params), grid, &cfg, 17);
        assert!(r.offered_total > 0);
        assert!(r.delivered_total > 0);
        assert!(r.energy_total > 0.0);
        assert!(r.final_alive < pts.len() as u64);
        // Residual battery must never exceed the initial mass (no joins).
        assert!(r
            .epochs
            .iter()
            .all(|e| e.battery_residual <= cfg.battery * pts.len() as f64));
    }

    /// Pins the epoch-granular death model documented on
    /// [`Population::debit_path`]: a relay driven below zero keeps
    /// forwarding at full cost for the rest of the epoch, its battery goes
    /// negative (never clamped), and only the next epoch's sweep collects
    /// it.
    #[test]
    fn depleted_relay_forwards_until_the_epoch_boundary() {
        let pts: PointSet = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]
        .into_iter()
        .collect();
        let alive = vec![true; 3];
        // Free-space unit hops: relaying one packet costs the middle node
        // tx(1) + rx = 200, the source 150×(packets) — 350 survives one
        // relayed packet at every position but not two at the relay.
        let cfg = ChurnConfig::new(1, 350.0, 0, 0.0, 0.0);
        let window = pts.bounding_box().unwrap();
        let mut pop = Population::new(&pts, &alive, window, &cfg, 1);
        let first = pop.debit_path(&[0, 1, 2]);
        assert_eq!(first, 2.0 * cfg.energy.hop(1.0));
        assert!(pop.battery[1] > 0.0);
        let second = pop.debit_path(&[0, 1, 2]);
        assert_eq!(
            first, second,
            "a depleted relay still forwards at full cost"
        );
        assert!(
            pop.battery[1] < 0.0,
            "the overshoot goes negative, not clamped: {}",
            pop.battery[1]
        );
        // Degenerate paths debit nothing even when depleted.
        assert_eq!(pop.debit_path(&[1]), 0.0);
        assert_eq!(pop.debit_path(&[]), 0.0);
        // The sweep — and only the sweep — collects the relay.
        let (deaths, by_battery, by_random) = pop.select_deaths(&alive, 0);
        assert_eq!(deaths, vec![1]);
        assert_eq!((by_battery, by_random), (1, 0));
    }

    #[test]
    fn solar_trickle_caps_at_the_max_charge_band() {
        let pts: PointSet = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let alive = vec![true, true, true, false];
        let mut cfg = ChurnConfig::new(1, 100.0, 0, 0.0, 0.0);
        cfg.renewal = RenewalPolicy::Solar {
            rate: 30.0,
            max_charge: 100.0,
        };
        let window = pts.bounding_box().unwrap();
        let mut pop = Population::new(&pts, &alive, window, &cfg, 1);
        pop.battery[0] = 20.0;
        pop.battery[1] = 95.0;
        // Node 2 already sits at the ceiling; node 3 is dead.
        let gained = pop.apply_renewal(&alive);
        assert_eq!(pop.battery[0], 50.0, "full rate below the band");
        assert_eq!(pop.battery[1], 100.0, "clamped to the ceiling");
        assert_eq!(pop.battery[2], 100.0, "no gain at the ceiling");
        assert_eq!(pop.battery[3], 0.0, "dead nodes harvest nothing");
        assert_eq!(gained, 30.0 + 5.0);
    }

    #[test]
    fn mobile_charger_respects_bands_and_budget() {
        // Window centre at (2, 0); nodes at x = 0..=4.
        let pts: PointSet = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let alive = vec![true; 5];
        let mut cfg = ChurnConfig::new(1, 100.0, 0, 0.0, 0.0);
        cfg.renewal = RenewalPolicy::MobileCharger {
            travel_budget: 3.0,
            min_charge: 50.0,
            max_charge: 100.0,
        };
        let window = pts.bounding_box().unwrap();
        let mut pop = Population::new(&pts, &alive, window, &cfg, 1);
        pop.battery = vec![10.0, 80.0, 95.0, 30.0, -5.0];
        let gained = pop.apply_renewal(&alive);
        // Neediest first: node 4 (−5, leg 2 from the centre), then node 0
        // (leg 4 from node 4 — unaffordable on the remaining 1.0), then
        // node 3 (leg 1 from node 4 — affordable). Nodes 1 and 2 sit above
        // the min-charge band and are never candidates.
        assert_eq!(pop.battery[4], 100.0);
        assert_eq!(pop.battery[3], 100.0);
        assert_eq!(pop.battery[0], 10.0, "unaffordable candidate is skipped");
        assert_eq!(pop.battery[1], 80.0);
        assert_eq!(pop.battery[2], 95.0);
        assert_eq!(gained, 105.0 + 70.0);
    }

    #[test]
    fn sink_rotation_redirects_traffic_without_adding_energy() {
        let (pts, alive) = universe(7, 8.0, 20.0, 0.0);
        let mut cfg = ChurnConfig::new(4, 1e6, 20, 0.0, 0.0);
        cfg.idle_cost = 10.0;
        let base = simulate_lifetime_plain(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg, 9);
        cfg.renewal = RenewalPolicy::SinkRotation;
        let rot = simulate_lifetime_plain(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg, 9);
        let rot2 = simulate_lifetime_plain(&pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg, 9);
        assert_eq!(golden_view(&rot), golden_view(&rot2));
        assert!(rot.delivered_total > 0);
        assert_eq!(rot.recharged_total, 0.0, "rotation adds no energy");
        // Convergecast traffic must actually change the drain pattern.
        assert_ne!(
            base.epochs[0].battery_residual,
            rot.epochs[0].battery_residual
        );
        // Source draws ride the same stream keys, so offered differs only
        // through src == dst collisions with the rotating sink.
        assert!(rot.offered_total <= base.offered_total + cfg.traffic_per_epoch as u64);
    }

    #[test]
    fn renewal_staves_off_battery_deaths() {
        let (pts, alive) = universe(3, 8.0, 25.0, 0.0);
        // Idle drain alone kills everything in ~4 epochs without renewal.
        let mut cfg = ChurnConfig::new(6, 450.0, 10, 0.0, 0.0);
        cfg.idle_cost = 100.0;
        let kind = IncTopology::Udg { radius: 1.0 };
        let dying = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 5);
        assert!(dying.deaths_battery_total > 0);
        // A solar trickle matching the idle drain keeps idle nodes alive.
        cfg.renewal = RenewalPolicy::Solar {
            rate: 200.0,
            max_charge: 450.0,
        };
        let solar = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 5);
        assert!(solar.recharged_total > 0.0);
        assert!(
            solar.deaths_battery_total < dying.deaths_battery_total,
            "solar {} vs none {}",
            solar.deaths_battery_total,
            dying.deaths_battery_total
        );
        assert!(solar.final_alive > dying.final_alive);
        // The charger, too, keeps its service area alive longer.
        cfg.renewal = RenewalPolicy::MobileCharger {
            travel_budget: 50.0,
            min_charge: 250.0,
            max_charge: 450.0,
        };
        let charged = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 5);
        assert!(charged.recharged_total > 0.0);
        assert!(charged.deaths_battery_total < dying.deaths_battery_total);
    }

    #[test]
    fn route_policies_deliver_and_stay_deterministic() {
        let (pts, alive) = universe(8, 8.0, 22.0, 0.1);
        let kind = IncTopology::Udg { radius: 1.0 };
        let mut cfg = ChurnConfig::new(4, 1e6, 15, 0.05, 0.5);
        let mut hashes = Vec::new();
        for route in [
            RoutePolicy::HopCount,
            RoutePolicy::MinEnergy,
            RoutePolicy::MaxMinResidual,
        ] {
            cfg.route = route;
            let a = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 21);
            let b = simulate_lifetime_plain(&pts, &alive, kind, &cfg, 21);
            assert_eq!(golden_view(&a), golden_view(&b), "{route:?} not replayable");
            assert!(a.delivered_total > 0, "{route:?} delivered nothing");
            hashes.push(a.epochs[0].energy_spent);
        }
        // Min-energy routing can't spend more radio energy than hop-count
        // on the identical epoch-0 topology and traffic (idle cost 0).
        assert!(hashes[1] <= hashes[0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Energy conservation across churn schedules: initial mass
        /// + joins + recharge − spend must equal the universe battery sum
        /// (dead nodes' leftovers included) at every epoch.
        #[test]
        fn prop_energy_is_conserved(
            seed in 0u64..50,
            p_fail in 0.0f64..0.3,
            traffic in 0usize..25,
            join_rate in 0.0f64..1.5,
            idle in 0.0f64..60.0,
            renewal_pick in 0usize..4,
        ) {
            let (pts, alive) = universe(seed, 8.0, 20.0, 0.25);
            let deployed = alive.iter().filter(|&&a| a).count();
            let mut cfg = ChurnConfig::new(5, 900.0, traffic, p_fail, join_rate);
            cfg.idle_cost = idle;
            cfg.renewal = [
                RenewalPolicy::None,
                RenewalPolicy::Solar { rate: 40.0, max_charge: 900.0 },
                RenewalPolicy::MobileCharger {
                    travel_budget: 20.0,
                    min_charge: 400.0,
                    max_charge: 900.0,
                },
                RenewalPolicy::SinkRotation,
            ][renewal_pick];
            let r = simulate_lifetime_plain(
                &pts, &alive, IncTopology::Udg { radius: 1.0 }, &cfg, seed ^ 0xABCD,
            );
            let mut ledger = deployed as f64 * cfg.battery;
            for e in &r.epochs {
                ledger += e.battery_added + e.energy_recharged - e.energy_spent;
                let scale = ledger.abs().max(1.0);
                proptest::prop_assert!(
                    (ledger - e.battery_universe).abs() <= 1e-9 * scale,
                    "epoch {}: ledger {} vs universe {}",
                    e.epoch, ledger, e.battery_universe
                );
            }
        }
    }
}
