//! The `wsn-scenarios bench-serve` emitter: sustained query throughput of
//! the always-on topology service, recorded as `BENCH_serve.json`.
//!
//! For each plain topology × deployment size the harness runs the *same*
//! serve schedule — 10% per-epoch clustered churn with reserve joins,
//! queries mixing routes, k-NN, coverage and membership — once per reader
//! count in [`READER_COUNTS`], and records sustained qps, latency
//! percentiles (p50/p99) and the route-cache hit rate of each row. Each row
//! runs the schedule [`REPEATS`] times and records the median-wall-clock
//! run, so the gate can compare reader counts of one bench run.
//!
//! Two correctness witnesses ride along with every row:
//!
//! * `identical`: the concurrent run's per-client digests, epoch
//!   fingerprints and folded answer digest are byte-identical to a
//!   single-threaded [`run_replay`] of the same schedule (the replay runs
//!   once per topology × size and every reader row compares against it —
//!   reader count must never leak into answers), and
//! * `errors == 0`: no query ever saw an empty alive population.
//!
//! On a single-core host the reader rows measure oversubscription, not
//! parallel speedup — the value of the sweep is the identity column (more
//! threads must change *nothing* but the wall clock) plus the reader-ratio
//! floor the CI gate holds.

use serde::{Deserialize, Serialize};
use wsn_geom::hash::derive_seed2;
use wsn_geom::Aabb;
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn_rgg::IncTopology;
use wsn_simnet::churn::{ChurnConfig, ChurnModel};
use wsn_simnet::{run_replay, run_serve, ServeConfig, ServeReport};

use crate::{median_by, REPEATS};

/// Schema tag of `BENCH_serve.json`; the gate names this version in its
/// diagnostics. `/2` made each row the median of [`REPEATS`] runs and added
/// `threads` and `host_cpus`.
pub const SERVE_SCHEMA: &str = "wsn-bench-serve/2";

/// Per-epoch expected kill fraction (the acceptance regime: 10% clustered
/// churn, matching `bench-lifetime`).
const CHURN_FRACTION: f64 = 0.10;

/// Blast radius of the clustered outages, in UDG radii.
const BLAST_RADIUS: f64 = 5.0;

/// Epochs served per row.
const EPOCHS: usize = 5;

/// Query clients (partitioned over the reader threads).
const CLIENTS: usize = 8;

/// Queries per client per epoch.
const QUERIES_PER_CLIENT: usize = 64;

/// Reader-thread sweep of each topology × size.
pub const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Fraction of the universe held back as the reserve pool (dead at start,
/// admitted as churn joins).
const RESERVE_FRAC: f64 = 0.125;

/// Joins admitted per death.
const JOIN_RATE: f64 = 0.5;

/// Route-source hot set (gateway/sink model): uniform sources over 10⁵
/// alive nodes would repeat a `(src, dst)` pair with probability ~0 and
/// the cache-hit column would measure nothing.
const HOT_ROUTES: usize = 4;

/// Per-client LRU capacity under the hot-set workload.
const CACHE_CAPACITY: usize = 512;

/// One topology × size × reader-count measurement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServeBenchRow {
    pub topology: String,
    /// Expected node count (Poisson intensity × window area).
    pub n_target: u64,
    /// Realised universe size (deployment + reserve pool).
    pub nodes: u64,
    pub readers: usize,
    pub epochs: u64,
    pub churn_fraction: f64,
    pub blast_radius: f64,
    pub clients: usize,
    pub queries_per_client: usize,
    /// Queries answered over the whole run.
    pub queries: u64,
    /// Queries that saw an empty alive population (must be 0).
    pub errors: u64,
    /// Wall-clock of the median run (epoch repairs + concurrent readers).
    pub wall_secs: f64,
    /// Sustained queries per second over that wall clock.
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Route-cache hits / lookups.
    pub cache_hit_rate: f64,
    /// Per-client digests, epoch fingerprints and the folded answer digest
    /// all equal the single-threaded replay's.
    pub identical: bool,
    pub deaths_total: u64,
    pub joins_total: u64,
    pub final_alive: u64,
    pub snapshots_published: u64,
    pub snapshots_retired: u64,
    /// Peak co-resident snapshots at any publish point (leak witness).
    pub max_live_snapshots: u64,
}

/// The whole `BENCH_serve.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeBenchReport {
    pub schema: String,
    pub quick: bool,
    pub seed: u64,
    /// Effective rayon worker count.
    pub threads: usize,
    /// Physical parallelism of the recording host.
    pub host_cpus: usize,
    pub rows: Vec<ServeBenchRow>,
}

/// The benchmarked topologies. UDG and RNG carry the acceptance claim at
/// every size; k-NN rides along at the quick size only (its repair halo is
/// the family's widest, and the reader sweep re-runs the whole schedule
/// four times per row).
fn kinds(n: u64) -> Vec<IncTopology> {
    let mut k = vec![
        IncTopology::Udg { radius: 1.0 },
        IncTopology::Rng { radius: 1.0 },
    ];
    if n <= 100_000 {
        k.push(IncTopology::Knn { k: 8 });
    }
    k
}

fn serve_config(readers: usize, seed: u64) -> ServeConfig {
    let mut churn = ChurnConfig::new(EPOCHS, 1e12, 0, CHURN_FRACTION, JOIN_RATE);
    churn.churn_model = ChurnModel::Clustered {
        radius: BLAST_RADIUS,
    };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, readers, CLIENTS, QUERIES_PER_CLIENT);
    cfg.hot_routes = HOT_ROUTES;
    cfg.cache_capacity = CACHE_CAPACITY;
    cfg.seed = seed;
    cfg
}

/// The identity witness: answers (not timings) of two runs agree exactly.
fn answers_identical(a: &ServeReport, b: &ServeReport) -> bool {
    a.client_digests == b.client_digests
        && a.epoch_fingerprints == b.epoch_fingerprints
        && a.answer_digest == b.answer_digest
        && a.errors == b.errors
        && a.final_alive == b.final_alive
}

fn row_from(
    kind: IncTopology,
    n: u64,
    report: &ServeReport,
    oracle: &ServeReport,
    nodes: u64,
) -> ServeBenchRow {
    ServeBenchRow {
        topology: kind.label(),
        n_target: n,
        nodes,
        readers: report.readers,
        epochs: report.epochs,
        churn_fraction: CHURN_FRACTION,
        blast_radius: BLAST_RADIUS,
        clients: report.clients,
        queries_per_client: QUERIES_PER_CLIENT,
        queries: report.queries,
        errors: report.errors,
        wall_secs: report.wall_secs,
        qps: report.qps,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        cache_hit_rate: report.cache_hits as f64 / (report.cache_lookups.max(1) as f64),
        identical: answers_identical(report, oracle),
        deaths_total: report.deaths_total,
        joins_total: report.joins_total,
        final_alive: report.final_alive,
        snapshots_published: report.snapshots_published,
        snapshots_retired: report.snapshots_retired,
        max_live_snapshots: report.max_live_snapshots,
    }
}

/// The reader sweep for one topology × size: one single-threaded replay
/// oracle, then one concurrent run per reader count, each compared against
/// the *same* oracle — reader count must never leak into answers.
fn sweep_rows(kind: IncTopology, n: u64, seed: u64) -> Vec<ServeBenchRow> {
    let lambda = 10.0;
    let side = ((n as f64) / lambda).sqrt();
    let points: PointSet =
        sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let nodes = points.len() as u64;
    let deployed = points.len() - (RESERVE_FRAC * points.len() as f64).round() as usize;
    let alive: Vec<bool> = (0..points.len()).map(|i| i < deployed).collect();

    let oracle = run_replay(&points, &alive, kind, &serve_config(1, seed));
    let mut rows = Vec::new();
    for readers in READER_COUNTS {
        let cfg = serve_config(readers, seed);
        let runs: Vec<ServeReport> = (0..REPEATS)
            .map(|_| run_serve(&points, &alive, kind, &cfg))
            .collect();
        assert!(
            runs.iter().all(|r| answers_identical(r, &oracle)),
            "{}: serve with {readers} reader(s) diverged from the replay oracle",
            kind.label()
        );
        let report = median_by(runs, |r| r.wall_secs);
        let row = row_from(kind, n, &report, &oracle, nodes);
        eprintln!(
            "bench-serve: {} n={nodes} readers={readers} median qps {:.0} \
             p50 {:.1}us p99 {:.1}us cache {:.1}%",
            kind.label(),
            row.qps,
            row.p50_us,
            row.p99_us,
            row.cache_hit_rate * 100.0,
        );
        rows.push(row);
    }
    rows
}

/// Run the serve bench: quick = the 10⁵-node acceptance grid (the size the
/// reader-scaling claim is pinned at), full adds 10⁶-node UDG/RNG rows.
pub fn run_serve_bench(quick: bool, seed: u64) -> ServeBenchReport {
    let sizes: &[u64] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    for (si, &n) in sizes.iter().enumerate() {
        for (ki, kind) in kinds(n).into_iter().enumerate() {
            let row_seed = derive_seed2(seed, 0x5E12, (si * 8 + ki) as u64);
            rows.extend(sweep_rows(kind, n, row_seed));
        }
    }
    ServeBenchReport {
        schema: SERVE_SCHEMA.into(),
        quick,
        seed,
        threads: crate::pipeline::effective_threads(),
        host_cpus: crate::pipeline::host_cpus(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_sweep_is_identical_across_reader_counts_and_serialises() {
        let rows = sweep_rows(IncTopology::Udg { radius: 1.0 }, 2_000, 0x5E12BE);
        assert_eq!(rows.len(), READER_COUNTS.len());
        for row in &rows {
            assert!(row.identical);
            assert_eq!(row.errors, 0);
            assert!(row.qps > 0.0 && row.queries > 0);
            assert!(row.p50_us <= row.p99_us);
            assert!(row.snapshots_published == row.snapshots_retired);
            assert!(row.max_live_snapshots <= 2);
        }
        // Reader count changes timing columns only; the answer-side
        // columns are pinned to the shared oracle.
        assert!(rows
            .windows(2)
            .all(|w| w[0].queries == w[1].queries && w[0].final_alive == w[1].final_alive));
        let json = serde_json::to_string_pretty(&rows).unwrap();
        assert!(json.contains("\"cache_hit_rate\""));
    }

    #[test]
    fn hot_route_workload_accumulates_cache_hits() {
        let rows = sweep_rows(IncTopology::Rng { radius: 1.0 }, 2_000, 0x5E12BF);
        // The hot-set model exists so this column measures something.
        assert!(
            rows.iter().all(|r| r.cache_hit_rate > 0.0),
            "hot-route workload produced no cache hits"
        );
    }
}
