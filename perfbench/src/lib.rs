//! End-to-end benchmark of the wsn workspace.
//!
//! Three workloads drive the library crates through their public
//! functions only:
//!
//! * [`build_cold`] — Morton-ordered sharded builds of UDG, RNG, k-NN and
//!   UDG-SENS over one Poisson deployment;
//! * [`lifetime`] — `simulate_lifetime_plain` on a churning UDG universe;
//! * [`serve`] — `run_serve`, the epoch-snapshot topology service.
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`]),
//! measured with no timers inside the measured calls. A traced run
//! (`trace = true`) instead times the benchmark's own calls into each
//! layer's public functions and reports [`PER_LAYER`]. Every run checks its
//! outputs against an oracle and reports `correct = false` on a mismatch.

pub mod build_cold;
pub mod common;
pub mod lifetime;
pub mod serve;

use common::{Outcome, Scale};

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. `throughput_per_s` counts the workload's unit of work:
/// nodes built across the topology mix (`build_nodes_per_s`), epochs
/// simulated (`lifetime_epochs_per_s`) or queries answered (`serve_qps`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every traced run
/// prints all of them; a metric of a layer call the workload does not make
/// reads 0 (the workload spends nothing there).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Every workload deploys its points.
    ("pointproc.deploy_s", "s"),
    // build-cold
    ("pointproc.order_s", "s"),
    ("spatial.index_s", "s"),
    ("rgg.derive_s.udg", "s"),
    ("rgg.derive_s.rng", "s"),
    ("rgg.derive_s.knn", "s"),
    ("rgg.derive_speedup.udg", "ratio"),
    ("rgg.derive_speedup.rng", "ratio"),
    ("rgg.derive_speedup.knn", "ratio"),
    ("graph.remap_s.udg", "s"),
    ("graph.remap_s.rng", "s"),
    ("graph.remap_s.knn", "s"),
    ("core.sens_s", "s"),
    ("graph.edges.udg", "count"),
    ("graph.edges.rng", "count"),
    ("graph.edges.knn", "count"),
    ("graph.edges.sens", "count"),
    // lifetime-churn (rgg.repair_s is shared with serve-mixed)
    ("rgg.inc_build_s", "s"),
    ("rgg.repair_s", "s"),
    ("graph.splice_s", "s"),
    ("rgg.repair_dirty", "count"),
    ("rgg.repair_rederived", "count"),
    ("rgg.repair_gathered", "count"),
    ("rgg.repair_escalations", "count"),
    ("rgg.rederive_ratio", "ratio"),
    ("graph.route_s", "s"),
    ("graph.route_delivered_ratio", "ratio"),
    ("graph.components_s", "s"),
    ("graph.fingerprint_s", "s"),
    ("simnet.epoch_unattributed_s", "s"),
    // serve-mixed
    ("simnet.capture_s", "s"),
    ("graph.clone_s", "s"),
    ("graph.publish_s", "s"),
    ("simnet.writer_busy_s", "s"),
    ("simnet.writer_idle_s", "s"),
    ("spatial.in_disk_us", "us"),
    ("simnet.cache_hit_ratio", "ratio"),
    ("graph.snapshots_max_live", "count"),
    ("simnet.query_p50_us", "us"),
    ("simnet.query_p99_us", "us"),
    // Every workload: the cost of the timing wrappers (traced minus
    // untraced wall of the same loop) and the share of the untraced
    // operation no traced layer call accounts for, per operation.
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// The named workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["build-cold", "lifetime-churn", "serve-mixed"];

/// Run one workload. `seconds` bounds the measured loop (every loop still
/// makes at least its minimum number of repetitions).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Option<Outcome> {
    let out = match workload {
        "build-cold" => build_cold::run(seed, seconds, trace, scale),
        "lifetime-churn" => lifetime::run(seed, seconds, trace, scale),
        "serve-mixed" => serve::run(seed, seconds, trace, scale),
        _ => return None,
    };
    Some(out)
}
