//! # wsn-scenario
//!
//! The unified scenario harness: every paper claim that used to live in a
//! hand-rolled `exp_*` binary is expressed here as a **named preset** over a
//! declarative scenario matrix, run by one deterministic batched runner, and
//! serialised as a canonical JSON report that a golden-file regression suite
//! pins in CI.
//!
//! ## The model
//!
//! A [`spec::ScenarioSpec`] is one cell of a scenario matrix:
//!
//! * a **deployment** model ([`spec::DeploymentSpec`]) — Poisson or
//!   Matérn-II hard-core, from `wsn-pointproc`;
//! * a **topology** construction ([`spec::TopologySpec`]) — UDG-SENS,
//!   NN-SENS, or one of the baselines (UDG, k-NN, Gabriel, RNG, Yao) from
//!   `wsn-core` / `wsn-rgg`;
//! * an optional **fault** model ([`spec::FaultSpec`]) — i.i.d. node
//!   failures injected mid-construction, from `wsn-simnet`;
//! * a **metric suite** ([`spec::MetricSuite`]) — degree statistics,
//!   stretch, coverage, power cost, routing overhead + radio energy,
//!   construction-message locality, and the paper's claim-path audits.
//!
//! A [`spec::ScenarioMatrix`] is the cross product of axis values, and
//! [`runner::run_matrix`] fans the `cells × replications` grid out over the
//! workspace's rayon shim. Every replication derives its RNG seed as a pure
//! function of `(base seed, cell index, replication index)` via
//! [`wsn_geom::hash::derive_seed2`], and results are collected in input
//! order, so a report is **bit-identical regardless of thread count**
//! (`RAYON_NUM_THREADS=1` and `=64` produce the same bytes).
//!
//! Experiments that have no deployment at all — the percolation substrate
//! checks and the λ_s / k_s threshold calculations — live in [`substrate`]
//! and funnel into the same report envelope.
//!
//! ## Presets and goldens
//!
//! [`presets::all_presets`] names the full experiment catalogue (one preset
//! per retired `exp_*` binary); `cargo run -p wsn-bench --bin wsn-scenarios`
//! is the driver. The quick profile of every preset is pinned by
//! `tests/scenarios_golden.rs` against `tests/golden/*.json` — see
//! `tests/README.md` for the golden workflow.

pub mod golden;
pub mod metrics;
pub mod presets;
pub mod report;
pub mod runner;
pub mod spec;
pub mod substrate;

pub use golden::GoldenOutcome;
pub use metrics::{build_topology, Built};
pub use presets::{all_presets, find_preset, run_preset, Preset};
pub use report::Report;
pub use runner::{run_matrix, Profile};
pub use spec::{
    ChurnSpec, DeploymentSpec, Exec, FaultSpec, MetricSuite, ScenarioMatrix, ScenarioSpec,
    TopologySpec,
};
