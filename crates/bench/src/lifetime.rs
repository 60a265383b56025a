//! The `wsn-scenarios bench-lifetime` emitter: incremental-vs-rebuild
//! repair economics of the churn engine, recorded as `BENCH_lifetime.json`.
//!
//! For each plain topology × deployment size the harness runs the *same*
//! lifetime simulation twice — once with incremental shard repair, once
//! rebuilding the topology cold every epoch — under 10% per-epoch clustered
//! churn (sector blackouts; see `wsn_simnet::churn::ChurnModel` for why
//! clustering is the realistic regime). It records the wall-clock spent in
//! the repair step of each mode, their ratio (`speedup`), and two
//! edge-identity witnesses:
//!
//! * the per-epoch CSR fingerprints of both runs must agree exactly
//!   (`edge_identical`), and
//! * at the smallest size each topology additionally re-runs with the
//!   engine's verify path on, asserting byte-identity of the incremental
//!   CSR against a cold monolithic rebuild after *every* epoch
//!   (`verified_cold`).
//!
//! Timed repair runs keep verification off — a bench that times its own
//! assertions measures nothing.
//!
//! ## The churn-locality sweep
//!
//! The per-topology speedup rows answer "is incremental repair worth it?";
//! the [`LocalitySweepRow`] section answers the sharper question the
//! event-local repair exists for: **does repair cost track the churned
//! region?** For each topology the sweep kills (and re-admits
//! reserve nodes inside) a block-aligned region sized from one shard up to
//! the whole window, races [`IncrementalGraph::apply_churn`] against the
//! same cold sharded rebuild the engine's rebuild mode uses, and records
//! the speedup ladder — which must *rise* as churn gets more local, where
//! a whole-population repair plateaus at ~2–3× regardless of locality.
//! Each rung's timings are medians over [`REPEATS`] identical cycles, so
//! the gate can compare rungs of one run. Every sweep point asserts
//! fingerprint identity against the rebuild, and every repair asserts that
//! it re-derived no shard and built no whole-population index.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use wsn_geom::hash::derive_seed2;
use wsn_geom::Aabb;
use wsn_graph::fingerprint;
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn_rgg::{IncTopology, IncrementalGraph};
use wsn_simnet::churn::{
    cold_sharded_rebuild, simulate_lifetime_plain, ChurnConfig, ChurnModel, LifetimeReport,
    RenewalPolicy, RepairMode,
};

use crate::{median_by, REPEATS};

/// Schema tag of `BENCH_lifetime.json`; the gate names this version in its
/// diagnostics. `/4` added the `renewal` section (energy-renewal lifetime
/// economics alongside the repair economics); `/5` made the sweep timings
/// medians of [`REPEATS`] cycles and added `host_cpus`; `/6` dropped the
/// always-zero `mean_rederived_shards` and `escalations` columns and
/// counts only the event shards as dirty.
pub const LIFETIME_SCHEMA: &str = "wsn-bench-lifetime/6";

/// Per-epoch expected kill fraction of the bench churn (the acceptance
/// regime: 10% per-epoch churn).
const CHURN_FRACTION: f64 = 0.10;

/// Blast radius of the clustered outages, in UDG radii.
const BLAST_RADIUS: f64 = 5.0;

/// Epochs simulated per row.
const EPOCHS: usize = 5;

/// Packets per epoch — kept small so repair, not routing, dominates the
/// timed loop.
const TRAFFIC: usize = 8;

/// Repair granularity (halo tiles per shard side) of the incremental mode.
const REPAIR_TILES: usize = 4;

/// One topology × size measurement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LifetimeBenchRow {
    pub topology: String,
    /// Expected node count (Poisson intensity × window area).
    pub n_target: u64,
    /// Realised node count.
    pub nodes: u64,
    pub lambda: f64,
    pub side: f64,
    pub epochs: u64,
    pub churn_fraction: f64,
    pub blast_radius: f64,
    pub repair_tiles: usize,
    /// Total wall-clock of the incremental repair steps, seconds.
    pub incremental_repair_secs: f64,
    /// Portion of that spent splicing repaired shards' edge deltas into
    /// the chunked CSR — the per-epoch cost the monolithic `to_csr`
    /// rebuild paid as O(n + m) regardless of churn locality.
    pub incremental_splice_secs: f64,
    /// Total wall-clock of the rebuild-per-epoch steps, seconds.
    pub rebuild_secs: f64,
    /// `rebuild_secs / incremental_repair_secs`.
    pub speedup: f64,
    /// Per-epoch CSR fingerprints of the two modes agree exactly.
    pub edge_identical: bool,
    /// This row also ran the engine's byte-identity verification against a
    /// cold monolithic rebuild each epoch.
    pub verified_cold: bool,
    /// Mean dirty shards per epoch of the incremental run (shards whose
    /// padded extent holds an event).
    pub mean_dirty_shards: f64,
    /// Survivors and deaths over the run (identical across modes).
    pub final_alive: u64,
    pub deaths_total: u64,
    pub delivered_total: u64,
}

/// One point of the churn-locality sweep: a block-aligned churn region
/// targeting `target_dirty_shards`, measured over `repeats` identical
/// kill → repair → restore cycles.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LocalitySweepRow {
    pub topology: String,
    pub n_target: u64,
    pub nodes: u64,
    pub repair_tiles: usize,
    /// Shards in the incremental plan.
    pub shard_count: u64,
    /// The ladder rung: how many shards the churn region was sized to
    /// dirty (1 = the most-local point the acceptance gate pins).
    pub target_dirty_shards: u64,
    /// Shards whose padded extent holds an event (mean over repeats; the
    /// block regions make this the target for every kind).
    pub mean_dirty_shards: f64,
    /// Points the repair scanned per repair (mean; the UDG's join disks,
    /// every other kind's candidate owners) — the direct witness that
    /// repair work tracks the region, not n.
    pub mean_gathered: f64,
    /// Deaths + joins applied per cycle.
    pub churned_nodes: u64,
    pub repeats: u64,
    /// Median wall-clock of one incremental repair, seconds.
    pub median_repair_secs: f64,
    /// Median time one repair spent in the chunked-CSR splice (the
    /// O(dirty) replacement of the old O(n + m) `to_csr` floor).
    pub median_splice_secs: f64,
    /// Median wall-clock of one cold sharded rebuild, seconds.
    pub median_rebuild_secs: f64,
    /// `median_rebuild_secs / median_repair_secs`.
    pub speedup: f64,
    /// Every repeat's repaired CSR fingerprint equals the cold sharded
    /// rebuild's.
    pub fingerprint_identical: bool,
}

/// Stable policy names of the renewal section, in recorded order. The
/// gate's completeness check pins exactly this set.
pub const RENEWAL_POLICIES: [&str; 4] = ["none", "mobile-charger", "solar", "sink-rotation"];

/// One renewal policy's lifetime economics: the same deployment, seed and
/// drain schedule simulated under each [`RenewalPolicy`], recorded so the
/// gate can assert that adding energy actually buys rounds. Everything in
/// a row is schedule-deterministic (no wall-clock), so fresh CI rows equal
/// the committed baseline byte-for-byte at any thread count.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RenewalBenchRow {
    /// One of [`RENEWAL_POLICIES`].
    pub policy: String,
    pub topology: String,
    pub nodes: u64,
    /// Simulated horizon.
    pub epochs: u64,
    /// First-partition epoch, or the full horizon when the network never
    /// partitioned (`partitioned` disambiguates the censored case).
    pub lifetime_rounds: u64,
    pub partitioned: bool,
    /// Total energy added by the policy over the run (0 for `none` and
    /// `sink-rotation`).
    pub recharged_total: f64,
    pub final_alive: u64,
    pub deaths_battery: u64,
    /// Population variance of alive batteries at the final epoch.
    pub final_battery_variance: f64,
    pub delivered_fraction: f64,
}

/// The whole `BENCH_lifetime.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LifetimeBenchReport {
    pub schema: String,
    pub quick: bool,
    pub seed: u64,
    /// Effective rayon worker count.
    pub threads: usize,
    /// Physical parallelism of the recording host.
    pub host_cpus: usize,
    pub rows: Vec<LifetimeBenchRow>,
    /// The churn-locality sweep (dirty-shard ladder per topology × size).
    pub locality_sweep: Vec<LocalitySweepRow>,
    /// Energy-renewal lifetime economics (one row per policy).
    pub renewal: Vec<RenewalBenchRow>,
}

/// Seed of the HNG bench hierarchy. Fixed so a bench row is reproducible
/// from the report seed alone: levels are a pure function of
/// `(seed, node id)` and never of the deployment.
const HNG_BENCH_SEED: u64 = 0x48_4E_47;

/// The benchmarked topologies (UDG and RNG carry the acceptance claim;
/// the rest record the trajectory of the whole family).
fn kinds() -> Vec<IncTopology> {
    vec![
        IncTopology::Udg { radius: 1.0 },
        IncTopology::Rng { radius: 1.0 },
        IncTopology::Gabriel { radius: 1.0 },
        IncTopology::Yao {
            radius: 1.0,
            cones: 6,
        },
        IncTopology::Knn { k: 8 },
        IncTopology::Hng {
            p: 0.5,
            links: 1,
            seed: HNG_BENCH_SEED,
        },
    ]
}

fn config(verify: bool, repair: RepairMode) -> ChurnConfig {
    let mut cfg = ChurnConfig::new(EPOCHS, 1e12, TRAFFIC, CHURN_FRACTION, 0.0);
    cfg.churn_model = ChurnModel::Clustered {
        radius: BLAST_RADIUS,
    };
    cfg.repair_tiles = REPAIR_TILES;
    cfg.repair = repair;
    cfg.verify = verify;
    cfg
}

fn repair_secs(report: &LifetimeReport) -> f64 {
    report.epochs.iter().map(|e| e.repair_secs).sum()
}

fn bench_row(kind: IncTopology, n: u64, seed: u64, verify_pass: bool) -> LifetimeBenchRow {
    let lambda = 10.0;
    let side = ((n as f64) / lambda).sqrt();
    let points: PointSet =
        sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let alive = vec![true; points.len()];

    // Timed runs: verification off.
    let t = Instant::now();
    let inc = simulate_lifetime_plain(
        &points,
        &alive,
        kind,
        &config(false, RepairMode::Incremental),
        seed,
    );
    let inc_total = t.elapsed().as_secs_f64();
    let reb = simulate_lifetime_plain(
        &points,
        &alive,
        kind,
        &config(false, RepairMode::Rebuild),
        seed,
    );

    // Edge identity across modes: the whole per-epoch fingerprint walk.
    let edge_identical = inc.epochs.len() == reb.epochs.len()
        && inc
            .epochs
            .iter()
            .zip(&reb.epochs)
            .all(|(a, b)| a.graph_hash == b.graph_hash && a.alive == b.alive);
    assert!(
        edge_identical,
        "{}: incremental and rebuild runs diverged",
        kind.label()
    );

    // Byte-identity pass (engine asserts vs a cold monolithic rebuild
    // after every epoch) — run untimed at the smallest size.
    if verify_pass {
        let verified = simulate_lifetime_plain(
            &points,
            &alive,
            kind,
            &config(true, RepairMode::Incremental),
            seed,
        );
        assert_eq!(verified.final_graph_hash, inc.final_graph_hash);
    }

    let inc_secs = repair_secs(&inc);
    let reb_secs = repair_secs(&reb);
    let epochs = inc.epochs.len().max(1) as f64;
    eprintln!(
        "bench-lifetime: {} n={} inc {:.3}s reb {:.3}s speedup {:.2}x (sim total {:.3}s)",
        kind.label(),
        points.len(),
        inc_secs,
        reb_secs,
        reb_secs / inc_secs.max(1e-12),
        inc_total
    );
    LifetimeBenchRow {
        topology: kind.label(),
        n_target: n,
        nodes: points.len() as u64,
        lambda,
        side,
        epochs: inc.epochs.len() as u64,
        churn_fraction: CHURN_FRACTION,
        blast_radius: BLAST_RADIUS,
        repair_tiles: REPAIR_TILES,
        incremental_repair_secs: inc_secs,
        incremental_splice_secs: inc.repair_splice_secs_total,
        rebuild_secs: reb_secs,
        speedup: reb_secs / inc_secs.max(1e-12),
        edge_identical,
        verified_cold: verify_pass,
        mean_dirty_shards: inc.epochs.iter().map(|e| e.shards_dirty).sum::<u64>() as f64 / epochs,
        final_alive: inc.final_alive,
        deaths_total: inc.deaths_battery_total + inc.deaths_random_total,
        delivered_total: inc.delivered_total,
    }
}

/// Reserve stream: ids hashing to 0 (mod this) start dead and re-join when
/// their region churns, so the UDG sweep exercises the joins' disk scans,
/// not just the deaths' row withdrawals.
const SWEEP_RESERVE_MOD: u64 = 8;

/// Kill percentage among alive nodes inside the churn region.
const SWEEP_KILL_PCT: u64 = 30;

/// The dirty-shard ladder: one shard, ~1/64, ~1/8, and all of them.
fn sweep_targets(shard_count: usize) -> Vec<usize> {
    let mut t = vec![
        1,
        shard_count.div_ceil(64),
        shard_count.div_ceil(8),
        shard_count,
    ];
    t.sort_unstable();
    t.dedup();
    t
}

/// The block-aligned churn region for a `k × k`-shard rung: the union of
/// those shards' core blocks, shrunk by the halo so every churned point is
/// deeper than the halo inside the union — churn then dirties exactly the
/// targeted shards (edge blocks keep their unbounded outward reach, and
/// the shard side is `4 × halo`, so the shrink can never invert the box).
fn block_region(g: &IncrementalGraph, k: usize) -> (Aabb, usize) {
    let grid = g.grid();
    let (ki, kj) = (k.min(grid.cols()), k.min(grid.rows()));
    let (i0, j0) = ((grid.cols() - ki) / 2, (grid.rows() - kj) / 2);
    let mut region: Option<Aabb> = None;
    for j in j0..j0 + kj {
        for i in i0..i0 + ki {
            let core = grid.padded(j * grid.cols() + i, 0.0);
            region = Some(match region {
                None => core,
                Some(r) => r.union(&core),
            });
        }
    }
    (region.expect("k >= 1").inflate(-g.halo()), ki * kj)
}

/// The churn-locality sweep for one topology × size: identical
/// kill → repair → restore cycles per ladder rung, incremental repair
/// raced against the engine's cold sharded rebuild, fingerprint-checked at
/// every point.
fn locality_sweep_rows(kind: IncTopology, n: u64, seed: u64) -> Vec<LocalitySweepRow> {
    let lambda = 10.0;
    let side = ((n as f64) / lambda).sqrt();
    let points: PointSet =
        sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let alive: Vec<bool> = (0..points.len() as u64)
        .map(|u| !derive_seed2(seed, 0xE5, u).is_multiple_of(SWEEP_RESERVE_MOD))
        .collect();
    let nodes = points.len() as u64;
    let mut g = IncrementalGraph::build(points.clone(), alive, kind, REPAIR_TILES);
    let base_fp = fingerprint(g.graph());
    let shard_count = g.grid().shard_count();

    // Whole-window pre-warm: one untimed churn-everything cycle grows the
    // allocator arena to its steady state before any rung is timed.
    // Without it the first (most local) rung systematically pays the
    // arena growth of the ~O(m) splice buffers, which at splice-dominated
    // sizes is larger than the rung-to-rung differences being measured.
    {
        let mut deaths = Vec::new();
        let mut joins = Vec::new();
        for u in 0..points.len() as u32 {
            if g.alive()[u as usize] {
                if derive_seed2(seed, 0xD1, u as u64) % 100 < SWEEP_KILL_PCT {
                    deaths.push(u);
                }
            } else {
                joins.push(u);
            }
        }
        g.apply_churn(&deaths, &joins);
        let _ = cold_sharded_rebuild(&points, g.alive(), kind);
        g.apply_churn(&joins, &deaths);
        assert_eq!(fingerprint(g.graph()), base_fp, "pre-warm restore diverged");
    }

    let mut rows = Vec::new();
    let mut realized_seen = Vec::new();
    for t in sweep_targets(shard_count) {
        let k = (t as f64).sqrt().ceil() as usize;
        let (region, realized) = block_region(&g, k);
        if realized_seen.contains(&realized) {
            continue;
        }
        realized_seen.push(realized);

        // Deterministic churn sets, fixed across repeats (restore returns
        // the structure to its baseline state between cycles).
        let mut deaths = Vec::new();
        let mut joins = Vec::new();
        for (u, p) in points.iter_enumerated() {
            if !region.contains(p) {
                continue;
            }
            if g.alive()[u as usize] {
                if derive_seed2(seed, 0xD1, u as u64) % 100 < SWEEP_KILL_PCT {
                    deaths.push(u);
                }
            } else {
                joins.push(u);
            }
        }
        if deaths.is_empty() && joins.is_empty() {
            continue;
        }

        let (mut inc_secs, mut reb_secs, mut splice_secs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut dirty, mut gathered) = (0u64, 0u64);
        let mut identical = true;
        // One untimed warmup cycle: the first repair after a build pays
        // allocator growth and cold caches, which at splice-dominated
        // rungs is the same order as the rung-to-rung differences the
        // sweep exists to show.
        g.apply_churn(&deaths, &joins);
        identical &=
            fingerprint(g.graph()) == fingerprint(&cold_sharded_rebuild(&points, g.alive(), kind));
        g.apply_churn(&joins, &deaths);
        identical &= fingerprint(g.graph()) == base_fp;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let stats = g.apply_churn(&deaths, &joins);
            inc_secs.push(t0.elapsed().as_secs_f64());
            splice_secs.push(stats.splice_secs);
            assert_eq!((stats.rederived, stats.escalations), (0, 0));
            dirty += stats.dirty as u64;
            gathered += stats.gathered as u64;

            let t1 = Instant::now();
            let rebuilt = cold_sharded_rebuild(&points, g.alive(), kind);
            reb_secs.push(t1.elapsed().as_secs_f64());
            identical &= fingerprint(g.graph()) == fingerprint(&rebuilt);

            // Restore (untimed): re-admit the dead, re-kill the joined.
            g.apply_churn(&joins, &deaths);
            identical &= fingerprint(g.graph()) == base_fp;
        }
        assert!(
            identical,
            "{}: locality sweep diverged from the cold rebuild at {realized} target shards",
            kind.label()
        );
        let reps = REPEATS as f64;
        let repair = median_by(inc_secs, |s| *s);
        let splice = median_by(splice_secs, |s| *s);
        let rebuild = median_by(reb_secs, |s| *s);
        eprintln!(
            "bench-lifetime: {} n={nodes} locality {realized}/{shard_count} shards \
             median inc {repair:.5}s (splice {splice:.5}s) reb {rebuild:.4}s speedup {:.2}x \
             (gathered {:.0}/repair)",
            kind.label(),
            rebuild / repair.max(1e-12),
            gathered as f64 / reps,
        );
        rows.push(LocalitySweepRow {
            topology: kind.label(),
            n_target: n,
            nodes,
            repair_tiles: REPAIR_TILES,
            shard_count: shard_count as u64,
            target_dirty_shards: realized as u64,
            mean_dirty_shards: dirty as f64 / reps,
            mean_gathered: gathered as f64 / reps,
            churned_nodes: (deaths.len() + joins.len()) as u64,
            repeats: REPEATS as u64,
            median_repair_secs: repair,
            median_splice_secs: splice,
            median_rebuild_secs: rebuild,
            speedup: rebuild / repair.max(1e-12),
            fingerprint_identical: identical,
        });
    }
    rows
}

/// Deployment size of the renewal section — small enough that the charger
/// can reach a meaningful fraction of the population per epoch, and cheap
/// enough that the section is pure determinism, not wall-clock.
const RENEWAL_N: u64 = 300;

/// Horizon of the renewal rows. Long enough that the drain-only baseline
/// partitions well inside it, so the renewal policies' extra rounds are
/// observable rather than censored.
const RENEWAL_EPOCHS: usize = 18;

/// Battery / drain schedule of the renewal rows: idle drain alone depletes
/// a node in ⌈3200 / 450⌉ = 8 epochs, so the `none` row partitions around
/// there and the horizon leaves 10 rounds of headroom for renewal to win.
const RENEWAL_BATTERY: f64 = 3200.0;
const RENEWAL_IDLE: f64 = 450.0;
const RENEWAL_TRAFFIC: usize = 20;

/// One renewal policy × the drain schedule above, on a shared deployment.
fn renewal_row(
    policy_name: &str,
    policy: RenewalPolicy,
    points: &PointSet,
    seed: u64,
) -> RenewalBenchRow {
    let kind = IncTopology::Udg { radius: 1.0 };
    let alive = vec![true; points.len()];
    let mut cfg = ChurnConfig::new(RENEWAL_EPOCHS, RENEWAL_BATTERY, RENEWAL_TRAFFIC, 0.0, 0.0);
    cfg.idle_cost = RENEWAL_IDLE;
    cfg.renewal = policy;
    let report = simulate_lifetime_plain(points, &alive, kind, &cfg, seed);
    let partitioned = report.rounds_to_first_partition.is_some();
    let last = report.epochs.last().expect("at least one epoch");
    eprintln!(
        "bench-lifetime: renewal {policy_name} n={} lifetime {} rounds (partitioned {}) \
         recharged {:.0}",
        points.len(),
        report
            .rounds_to_first_partition
            .unwrap_or(report.epochs.len() as u64),
        partitioned,
        report.recharged_total,
    );
    RenewalBenchRow {
        policy: policy_name.to_string(),
        topology: kind.label(),
        nodes: points.len() as u64,
        epochs: report.epochs.len() as u64,
        lifetime_rounds: report
            .rounds_to_first_partition
            .unwrap_or(report.epochs.len() as u64),
        partitioned,
        recharged_total: report.recharged_total,
        final_alive: report.final_alive,
        deaths_battery: report.deaths_battery_total,
        final_battery_variance: last.battery_variance,
        delivered_fraction: if report.offered_total > 0 {
            report.delivered_total as f64 / report.offered_total as f64
        } else {
            0.0
        },
    }
}

/// The renewal section: every policy over one shared deployment and seed.
/// The charger's travel budget and the solar rate are sized so both
/// strictly out-live the drain-only baseline (the gate pins exactly that),
/// while sink rotation records the no-added-energy comparison point.
fn renewal_rows(seed: u64) -> Vec<RenewalBenchRow> {
    let lambda = 10.0;
    let side = ((RENEWAL_N as f64) / lambda).sqrt();
    let points: PointSet =
        sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let policies = [
        ("none", RenewalPolicy::None),
        (
            "mobile-charger",
            RenewalPolicy::MobileCharger {
                travel_budget: 30.0 * side,
                min_charge: 0.5 * RENEWAL_BATTERY,
                max_charge: RENEWAL_BATTERY,
            },
        ),
        (
            "solar",
            RenewalPolicy::Solar {
                rate: RENEWAL_IDLE + 50.0,
                max_charge: RENEWAL_BATTERY,
            },
        ),
        ("sink-rotation", RenewalPolicy::SinkRotation),
    ];
    debug_assert!(policies
        .iter()
        .map(|(n, _)| *n)
        .eq(RENEWAL_POLICIES.iter().copied()));
    policies
        .into_iter()
        .map(|(name, policy)| renewal_row(name, policy, &points, seed))
        .collect()
}

/// Run the lifetime bench: quick = 10⁴ nodes per topology (CI smoke), full
/// adds the 10⁵ rows the committed baseline records. The churn-locality
/// sweep additionally climbs to 10⁶ nodes in the full profile — the scale
/// the splice-floor acceptance rung is pinned at — without dragging the
/// main rows there (each main row runs two *whole* lifetime simulations;
/// the sweep only cycles repairs).
pub fn run_lifetime_bench(quick: bool, seed: u64) -> LifetimeBenchReport {
    let sizes: &[u64] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let sweep_sizes: &[u64] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    let mut locality_sweep = Vec::new();
    for (ki, kind) in kinds().into_iter().enumerate() {
        for (si, &n) in sizes.iter().enumerate() {
            let row_seed = derive_seed2(seed, ki as u64, si as u64);
            rows.push(bench_row(kind, n, row_seed, si == 0));
        }
        for (si, &n) in sweep_sizes.iter().enumerate() {
            let row_seed = derive_seed2(seed, ki as u64, si as u64);
            locality_sweep.extend(locality_sweep_rows(kind, n, row_seed ^ 0x10C));
        }
    }
    LifetimeBenchReport {
        schema: LIFETIME_SCHEMA.into(),
        quick,
        seed,
        threads: crate::pipeline::effective_threads(),
        host_cpus: crate::pipeline::host_cpus(),
        rows,
        locality_sweep,
        renewal: renewal_rows(derive_seed2(seed, 0xEE, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_rows_run_and_serialise() {
        for (i, kind) in [
            IncTopology::Udg { radius: 1.0 },
            IncTopology::Rng { radius: 1.0 },
        ]
        .into_iter()
        .enumerate()
        {
            let row = bench_row(kind, 2_000, 40 + i as u64, true);
            assert!(row.edge_identical && row.verified_cold);
            assert!(row.nodes > 0 && row.deaths_total > 0);
            let json = serde_json::to_string_pretty(&row).unwrap();
            assert!(json.contains("\"speedup\""));
        }
    }

    #[test]
    fn miniature_locality_sweep_is_fingerprint_identical_and_cold() {
        for (i, kind) in [
            IncTopology::Udg { radius: 1.0 },
            IncTopology::Rng { radius: 1.0 },
            IncTopology::Knn { k: 4 },
            IncTopology::Hng {
                p: 0.5,
                links: 1,
                seed: HNG_BENCH_SEED,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let rows = locality_sweep_rows(kind, 2_000, 70 + i as u64);
            assert!(!rows.is_empty(), "{kind:?}: sweep produced no rungs");
            // Rungs ascend, start at the single-shard point, end at all.
            assert_eq!(rows[0].target_dirty_shards, 1);
            assert!(rows
                .windows(2)
                .all(|w| w[0].target_dirty_shards < w[1].target_dirty_shards));
            assert_eq!(
                rows.last().unwrap().target_dirty_shards,
                rows.last().unwrap().shard_count
            );
            for row in &rows {
                assert!(row.fingerprint_identical, "{kind:?}");
                assert!(row.churned_nodes > 0);
                assert!(row.median_repair_secs > 0.0 && row.median_rebuild_secs > 0.0);
                // The splice is a timed sub-step of every repair, so its
                // median cannot exceed the repair's.
                assert!(
                    row.median_splice_secs > 0.0
                        && row.median_splice_secs <= row.median_repair_secs,
                    "{kind:?}: median splice {} outside median repair {}",
                    row.median_splice_secs,
                    row.median_repair_secs
                );
                assert_eq!(
                    row.mean_dirty_shards, row.target_dirty_shards as f64,
                    "{kind:?}: the block region dirtied other shards"
                );
            }
            // Repair work must track the region: the single-shard rung
            // examines a fraction of what the all-shards rung does (k-NN's
            // and HNG's outsized halos bound how local a tiny 9- or
            // 16-shard plan can get, so they only pin strict monotonicity
            // here).
            let (first, last) = (&rows[0], rows.last().unwrap());
            let factor = if matches!(kind, IncTopology::Knn { .. } | IncTopology::Hng { .. }) {
                1.0
            } else {
                3.0
            };
            assert!(
                first.mean_gathered * factor < last.mean_gathered,
                "{kind:?}: gathered {} vs {} — repair is not locality-proportional",
                first.mean_gathered,
                last.mean_gathered
            );
            let json = serde_json::to_string_pretty(&rows).unwrap();
            assert!(json.contains("\"target_dirty_shards\""));
        }
    }

    #[test]
    fn renewal_rows_cover_every_policy_and_renewal_buys_rounds() {
        let rows = renewal_rows(0xBEEF);
        let by = |p: &str| {
            rows.iter()
                .find(|r| r.policy == p)
                .unwrap_or_else(|| panic!("missing renewal row for policy {p:?}"))
        };
        assert_eq!(
            rows.iter().map(|r| r.policy.as_str()).collect::<Vec<_>>(),
            RENEWAL_POLICIES.to_vec(),
        );
        let none = by("none");
        assert!(
            none.partitioned,
            "the drain-only row must partition inside the horizon or every \
             comparison is censored"
        );
        for p in ["mobile-charger", "solar"] {
            let row = by(p);
            assert!(
                row.lifetime_rounds > none.lifetime_rounds,
                "{p}: {} rounds does not exceed the drain-only {}",
                row.lifetime_rounds,
                none.lifetime_rounds
            );
            assert!(row.recharged_total > 0.0);
        }
        assert_eq!(by("sink-rotation").recharged_total, 0.0);
        assert_eq!(none.recharged_total, 0.0);
        let json = serde_json::to_string_pretty(&rows).unwrap();
        assert!(json.contains("\"lifetime_rounds\""));
    }
}
