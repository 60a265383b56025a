//! The `wsn-scenarios bench` emitter: the repo's recorded performance
//! trajectory for the tile-sharded construction pipeline.
//!
//! For each topology × deployment size the harness runs the *sharded*
//! pipeline and the *monolithic* reference builder on the same deployment,
//! verifies they are edge-identical (a bench that silently benchmarks a
//! wrong graph is worthless), and records wall-clock per phase, throughput
//! in nodes/second, and a peak-RSS proxy read from `/proc/self/status`.
//! The machine-readable result (`BENCH_pipeline.json`) is the baseline
//! future scaling PRs diff against.
//!
//! Methodology notes, so numbers stay comparable across machines:
//!
//! * The sharded build runs *first*, then the monolithic one — `VmHWM` is a
//!   high-water mark, so this order lets the sharded peak be observed
//!   before the (larger) monolithic allocations raise the mark.
//! * `threads` records the effective rayon worker count and `host_cpus`
//!   the host's; on a single-core host any speedup is purely algorithmic
//!   (no global edge sort, early-exit emptiness probes, cache-dense
//!   shard-local indexes).
//! * Every build timing (`sharded_secs`, `monolithic_secs`, a scaling
//!   point's `build_secs`) is the median of [`REPEATS`](crate::REPEATS)
//!   builds, so the speedups the gate reads are ratios of medians.
//! * Every row re-samples its deployment from `(seed, topology, n)`, so
//!   rows are independent and reproducible.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use wsn_core::params::UdgSensParams;
use wsn_core::tilegrid::TileGrid;
use wsn_geom::hash::derive_seed2;
use wsn_geom::{Aabb, ShardGrid};
use wsn_graph::Csr;
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn_rgg::Exec;
use wsn_scenario::build_topology;
use wsn_scenario::spec::TopologySpec;
use wsn_simnet::{distributed_build_udg, ShardAccounting};
use wsn_spatial::GridIndex;

use crate::median_timed;

/// Schema tag of `BENCH_pipeline.json`. `/2` added the `thread_scaling`
/// section and `host_cpus`; `/3` made every build timing a median of
/// [`REPEATS`](crate::REPEATS) builds. The gate names this version in its
/// diagnostics.
pub const PIPELINE_SCHEMA: &str = "wsn-bench-pipeline/4";

/// Shard side (in topology tiles) used by every benchmarked sharded build.
const SHARD_TILES: usize = 16;

/// The thread counts every recorded scaling curve sweeps.
pub const THREAD_LADDER: &[usize] = &[1, 2, 4, 8];

/// One topology × size measurement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BenchRow {
    pub topology: String,
    /// Expected node count (the Poisson intensity × window area).
    pub n_target: u64,
    /// Realised node count of the sampled deployment.
    pub nodes: u64,
    pub edges: u64,
    pub lambda: f64,
    pub side: f64,
    pub shard_tiles: usize,
    pub shards: usize,
    /// Phase timings of the benchmarked path, seconds (single runs).
    pub deploy_secs: f64,
    /// Building the shared gather index (the halo-exchange substrate).
    pub gather_index_secs: f64,
    /// Median build seconds of the sharded path and the monolithic oracle.
    pub sharded_secs: f64,
    pub monolithic_secs: f64,
    /// Verifying the stitched CSR equals the monolithic one.
    pub verify_secs: f64,
    /// `monolithic_secs / sharded_secs`.
    pub speedup: f64,
    pub sharded_nodes_per_sec: f64,
    pub monolithic_nodes_per_sec: f64,
    pub edge_identical: bool,
    /// `VmRSS` after the sharded build, kB (0 when unavailable).
    pub rss_after_sharded_kb: u64,
    /// `VmRSS` after the monolithic build, kB.
    pub rss_after_monolithic_kb: u64,
}

/// Per-shard message accounting of one distributed Fig. 7 build.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DistributedRow {
    /// Requested deployment size (the row's key; `nodes` is the Poisson
    /// draw).
    pub n_target: u64,
    pub nodes: u64,
    pub rounds: u64,
    pub msgs_total: u64,
    pub build_secs: f64,
    pub accounting: ShardAccounting,
}

/// One point of the thread-scaling curve: the Morton-ordered sharded build
/// of one topology × size, run with `RAYON_NUM_THREADS` pinned to `threads`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ThreadScalingRow {
    pub topology: String,
    pub n_target: u64,
    pub nodes: u64,
    /// The pinned worker count for this point (not the host's).
    pub threads: usize,
    /// Median build seconds at this thread count.
    pub build_secs: f64,
    pub nodes_per_sec: f64,
    /// `threads = 1` wall-clock over this point's wall-clock.
    pub speedup_vs_serial: f64,
    /// `speedup_vs_serial / threads` — 1.0 is perfect scaling.
    pub efficiency: f64,
    /// The CSR at this thread count is byte-identical to the `threads = 1`
    /// build (fingerprint equality; the fan-out must be schedule-free).
    pub edge_identical: bool,
}

/// The whole `BENCH_pipeline.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    pub schema: String,
    pub quick: bool,
    pub seed: u64,
    /// Effective rayon worker count (`RAYON_NUM_THREADS` or the host's
    /// available parallelism).
    pub threads: usize,
    /// `VmHWM` at the end of the run, kB — the whole-process peak.
    pub vm_hwm_kb: u64,
    /// Physical parallelism of the recording host. The gate's speedup and
    /// efficiency checks only bind where `threads <= host_cpus` — a 1-core
    /// host records an honest flat curve rather than a fake speedup.
    pub host_cpus: usize,
    pub rows: Vec<BenchRow>,
    /// The threads × topology × n scaling curve (see [`THREAD_LADDER`]).
    pub thread_scaling: Vec<ThreadScalingRow>,
    pub distributed: Vec<DistributedRow>,
}

/// The host's physical parallelism, independent of `RAYON_NUM_THREADS`.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Read a `VmRSS:`/`VmHWM:` style field from `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub(crate) fn effective_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// One benchmarked topology; its row label is [`TopologySpec::label`].
struct Cell {
    kind: TopologySpec,
    lambda: f64,
    /// Largest n this kind runs at (NN-SENS's k-NN base with the paper-scale
    /// k dominates everything else; capping it keeps the suite bounded).
    max_n: u64,
}

const CELLS: &[Cell] = &[
    Cell {
        kind: TopologySpec::Udg { radius: 1.0 },
        lambda: 10.0,
        max_n: u64::MAX,
    },
    Cell {
        kind: TopologySpec::Knn { k: 8 },
        lambda: 10.0,
        max_n: u64::MAX,
    },
    Cell {
        kind: TopologySpec::Gabriel { radius: 1.0 },
        lambda: 10.0,
        max_n: u64::MAX,
    },
    Cell {
        kind: TopologySpec::Rng { radius: 1.0 },
        lambda: 10.0,
        max_n: u64::MAX,
    },
    Cell {
        kind: TopologySpec::Yao {
            radius: 1.0,
            cones: 6,
        },
        lambda: 10.0,
        max_n: u64::MAX,
    },
    Cell {
        kind: TopologySpec::UdgSens,
        lambda: 10.0,
        max_n: u64::MAX,
    },
    Cell {
        kind: TopologySpec::NnSens { a: 1.2, k: 400 },
        lambda: 1.0,
        max_n: 100_000,
    },
];

/// The benchmarked sharded execution.
const SHARDED: Exec = Exec::Sharded { tiles: SHARD_TILES };

/// The plan tile side each kind actually shards with: the query radius for
/// the radius-bounded graphs, the k-NN halo for `Knn`.
fn plan_tile_for(kind: TopologySpec, points: &PointSet) -> f64 {
    match kind {
        TopologySpec::Knn { k } => wsn_rgg::knn_halo(points, k),
        _ => 1.0,
    }
}

fn shard_count_for(points: &PointSet, kind: TopologySpec, grid: Option<&TileGrid>) -> usize {
    match grid {
        // SENS constructions shard by tile rows.
        Some(g) => g.rows(),
        None => points
            .bounding_box()
            .map(|bb| ShardGrid::new(&bb, plan_tile_for(kind, points), SHARD_TILES).shard_count())
            .unwrap_or(0),
    }
}

fn bench_cell(cell: &Cell, n: u64, seed: u64) -> BenchRow {
    // A window for an expected `n` nodes, fitted to whole SENS tiles when
    // the construction needs a grid.
    let side = ((n as f64) / cell.lambda).sqrt();
    let grid = cell.kind.tile_side().map(|tile| TileGrid::fit(side, tile));
    let window = grid
        .as_ref()
        .map(|g| g.covered_area())
        .unwrap_or_else(|| Aabb::square(side));

    let t = Instant::now();
    let points = sample_poisson_window(&mut rng_from_seed(seed), cell.lambda, &window);
    let deploy_secs = t.elapsed().as_secs_f64();

    // The shared gather index is the pipeline's halo-exchange substrate;
    // time one build of it explicitly so the phase is visible (the sharded
    // timings below include their own, identical, build). The cell matches
    // what the kind's builder actually uses: the k-NN kinds index at their
    // expected k-point radius, everything else at the query radius.
    let gather_cell = match cell.kind {
        TopologySpec::Knn { k } | TopologySpec::NnSens { k, .. } => {
            wsn_rgg::knn_halo(&points, k) / 3.0
        }
        _ => 1.0,
    };
    let t = Instant::now();
    let gather = GridIndex::build(&points, gather_cell);
    let gather_index_secs = t.elapsed().as_secs_f64();
    drop(gather);

    // Sharded first (see module docs for the VmHWM rationale).
    let (sharded, sharded_secs) =
        median_timed(|| build_topology(cell.kind, &points, grid.clone(), SHARDED, seed));
    let rss_after_sharded_kb = proc_status_kb("VmRSS");

    let (mono, monolithic_secs) =
        median_timed(|| build_topology(cell.kind, &points, grid.clone(), Exec::Serial, seed));
    let rss_after_monolithic_kb = proc_status_kb("VmRSS");

    let t = Instant::now();
    let edge_identical = sharded.graph() == mono.graph();
    let verify_secs = t.elapsed().as_secs_f64();
    let label = cell.kind.label();
    assert!(edge_identical, "{label}: sharded != monolithic");

    let g = sharded.graph();
    let (nodes, edges) = (g.n() as u64, g.m() as u64);
    BenchRow {
        topology: label,
        n_target: n,
        nodes,
        edges,
        lambda: cell.lambda,
        side,
        shard_tiles: SHARD_TILES,
        shards: shard_count_for(&points, cell.kind, grid.as_ref()),
        deploy_secs,
        gather_index_secs,
        sharded_secs,
        monolithic_secs,
        verify_secs,
        speedup: monolithic_secs / sharded_secs.max(1e-12),
        sharded_nodes_per_sec: nodes as f64 / sharded_secs.max(1e-12),
        monolithic_nodes_per_sec: nodes as f64 / monolithic_secs.max(1e-12),
        edge_identical,
        rss_after_sharded_kb,
        rss_after_monolithic_kb,
    }
}

/// Distributed Fig. 7 construction with per-shard message accounting (the
/// protocol engine is message-granular, so this runs at a smaller n).
fn bench_distributed(n: u64, seed: u64) -> DistributedRow {
    let params = UdgSensParams::strict_default();
    let lambda = 10.0;
    let side = ((n as f64) / lambda).sqrt();
    let grid = TileGrid::fit(side, params.tile_side);
    let window = grid.covered_area();
    let points = sample_poisson_window(&mut rng_from_seed(seed), lambda, &window);
    let t = Instant::now();
    let build = distributed_build_udg(&points, params, grid).expect("strict defaults valid");
    let build_secs = t.elapsed().as_secs_f64();
    DistributedRow {
        n_target: n,
        nodes: points.len() as u64,
        rounds: build.rounds,
        msgs_total: build.stats.sent,
        build_secs,
        accounting: ShardAccounting::of(&build, SHARD_TILES),
    }
}

/// Run `f` with `RAYON_NUM_THREADS` pinned to `threads`, restoring the
/// ambient value (or its absence) afterwards.
fn with_thread_count<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let key = "RAYON_NUM_THREADS";
    let ambient = std::env::var(key).ok();
    std::env::set_var(key, threads.to_string());
    let out = f();
    match ambient {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    out
}

/// The topology subset the scaling curve sweeps: one radius-bounded kind,
/// one witness-checked proximity kind, and the k-NN kind — together they
/// cover all three shard work profiles without rerunning the whole matrix.
const SCALING_CELLS: &[TopologySpec] = &[
    TopologySpec::Udg { radius: 1.0 },
    TopologySpec::Rng { radius: 1.0 },
    TopologySpec::Knn { k: 8 },
];

/// Record the thread-scaling curve: the Morton-ordered sharded build of
/// each `SCALING_CELLS` topology at each size, swept over [`THREAD_LADDER`]
/// in-process. Each thread count's CSR is compared against the
/// `threads = 1` build — the fan-out is deterministic by construction, and
/// the curve records the proof alongside the timings.
pub fn run_thread_scaling(sizes: &[u64], seed: u64) -> Vec<ThreadScalingRow> {
    let lambda = 10.0;
    let mut out = Vec::new();
    for (ci, &kind) in SCALING_CELLS.iter().enumerate() {
        let label = kind.label();
        for (si, &n) in sizes.iter().enumerate() {
            let side = ((n as f64) / lambda).sqrt();
            let window = Aabb::square(side);
            let row_seed = derive_seed2(seed, 0x5CA1E ^ ci as u64, si as u64);
            let points = sample_poisson_window(&mut rng_from_seed(row_seed), lambda, &window);
            let mut serial_secs = 0.0;
            let mut serial_graph: Option<Csr> = None;
            for &threads in THREAD_LADDER {
                eprintln!("bench: thread-scaling {label} n={n} threads={threads} ...");
                let (graph, secs) = with_thread_count(threads, || {
                    median_timed(|| build_topology(kind, &points, None, SHARDED, row_seed))
                });
                let edge_identical = match &serial_graph {
                    None => {
                        serial_secs = secs;
                        serial_graph = Some(graph.graph().clone());
                        true
                    }
                    Some(base) => graph.graph() == base,
                };
                assert!(
                    edge_identical,
                    "{label} n={n}: threads={threads} CSR differs from threads=1"
                );
                let speedup = serial_secs / secs.max(1e-12);
                out.push(ThreadScalingRow {
                    topology: label.clone(),
                    n_target: n,
                    nodes: points.len() as u64,
                    threads,
                    build_secs: secs,
                    nodes_per_sec: points.len() as f64 / secs.max(1e-12),
                    speedup_vs_serial: speedup,
                    efficiency: speedup / threads as f64,
                    edge_identical,
                });
            }
        }
    }
    out
}

/// Run the full pipeline bench and return the report.
///
/// `quick` keeps every size at 10⁴ (the CI smoke configuration); the full
/// profile runs n ∈ {10⁴, 10⁵, 10⁶} per topology (subject to each cell's
/// `max_n` cap).
pub fn run_pipeline_bench(quick: bool, seed: u64) -> BenchReport {
    let sizes: &[u64] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    for (ci, cell) in CELLS.iter().enumerate() {
        for (si, &n) in sizes.iter().enumerate() {
            let label = cell.kind.label();
            if n > cell.max_n {
                eprintln!(
                    "bench: skipping {label} at n={n} (capped at {})",
                    cell.max_n
                );
                continue;
            }
            let row_seed = derive_seed2(seed, ci as u64, si as u64);
            eprintln!("bench: {label} n={n} ...");
            let row = bench_cell(cell, n, row_seed);
            eprintln!(
                "bench: {label} n={} sharded {:.3}s mono {:.3}s speedup {:.2}x",
                row.nodes, row.sharded_secs, row.monolithic_secs, row.speedup
            );
            rows.push(row);
        }
    }
    // The full profile also records the quick size, with the same seed,
    // so the gate has a row to match a quick run against.
    let distributed_sizes: &[u64] = if quick { &[5_000] } else { &[5_000, 20_000] };
    let distributed = distributed_sizes
        .iter()
        .map(|&n| bench_distributed(n, derive_seed2(seed, 0xD15C0, 0)))
        .collect();
    // The scaling curve stays at moderate sizes even in the full profile:
    // relative scaling saturates well before 10⁶ nodes, and the curve runs
    // every point four times over the thread ladder.
    let scaling_sizes: &[u64] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let thread_scaling = run_thread_scaling(scaling_sizes, seed);
    BenchReport {
        schema: PIPELINE_SCHEMA.into(),
        quick,
        seed,
        threads: effective_threads(),
        vm_hwm_kb: proc_status_kb("VmHWM"),
        host_cpus: host_cpus(),
        rows,
        thread_scaling,
        distributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_serialises() {
        // A miniature pass through every cell at a tiny n exercises the full
        // emitter path (including the edge-identity assertion) in ~a second.
        let mut rows = Vec::new();
        for (ci, cell) in CELLS.iter().enumerate() {
            rows.push(bench_cell(cell, 2_000, derive_seed2(7, ci as u64, 0)));
        }
        let report = BenchReport {
            schema: PIPELINE_SCHEMA.into(),
            quick: true,
            seed: 7,
            threads: effective_threads(),
            vm_hwm_kb: proc_status_kb("VmHWM"),
            host_cpus: host_cpus(),
            rows,
            thread_scaling: run_thread_scaling(&[2_000], 7),
            distributed: vec![bench_distributed(2_000, 3)],
        };
        for row in &report.rows {
            assert!(row.edge_identical, "{}", row.topology);
            assert!(row.sharded_secs > 0.0 && row.monolithic_secs > 0.0);
            assert!(row.nodes > 0);
        }
        assert_eq!(
            report.thread_scaling.len(),
            SCALING_CELLS.len() * THREAD_LADDER.len()
        );
        for row in &report.thread_scaling {
            assert!(
                row.edge_identical,
                "{} threads={}",
                row.topology, row.threads
            );
            assert!(row.build_secs > 0.0);
            if row.threads == 1 {
                assert!((row.speedup_vs_serial - 1.0).abs() < 1e-9);
            }
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"schema\": \"wsn-bench-pipeline/4\""));
        assert!(json.contains("thread_scaling"));
        assert!(json.contains("msgs_per_shard"));
    }
}
