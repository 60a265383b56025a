//! The batched, deterministic scenario runner.
//!
//! All `(cell, replication)` jobs of a matrix are flattened into one list
//! and fanned out over the rayon shim. Each job's RNG seed is
//! `derive_seed2(base_seed, cell_index, replication_index)` — a pure
//! function of the job's position — and job outputs are collected in input
//! order, so the aggregated report is bit-identical at any thread count.

use rayon::prelude::*;
use serde::value::Value;
use serde::Serialize;
use wsn_geom::hash::derive_seed2;

use crate::metrics::{run_replication, Channels};
use crate::spec::{ScenarioMatrix, ScenarioSpec};

/// Replication scale of a run.
///
/// Presets size their matrices from this; the golden files pin the
/// [`Profile::Quick`] numbers, [`Profile::Full`] is for humans reproducing
/// paper tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Quick,
    Full,
}

impl Profile {
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }

    /// Pick between a full and a quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        match self {
            Profile::Full => full,
            Profile::Quick => quick,
        }
    }
}

/// Aggregate of one metric channel across replications.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Agg {
    /// Replications that emitted the channel (a metric can be absent, e.g.
    /// when a replication had an empty core).
    pub n: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
}

impl Agg {
    fn of(values: &[f64]) -> Agg {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Agg { n, mean, min, max }
    }
}

/// Ordered channel-name → [`Agg`] map (order = first emission across the
/// replications, so reports are stable and diffable).
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelAggregates(pub Vec<(String, Agg)>);

impl ChannelAggregates {
    /// Look up one aggregated channel by name.
    pub fn get(&self, name: &str) -> Option<&Agg> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, a)| a)
    }

    fn from_replications(reps: &[Channels]) -> Self {
        // One pass over all channels, grouping values by name in
        // first-emission order. Channel counts are small (tens), so a
        // linear name lookup beats a map without hurting.
        let mut grouped: Vec<(String, Vec<f64>)> = Vec::new();
        for rep in reps {
            for (name, value) in rep {
                match grouped.iter_mut().find(|(n, _)| n == name) {
                    Some((_, values)) => values.push(*value),
                    None => grouped.push((name.clone(), vec![*value])),
                }
            }
        }
        ChannelAggregates(
            grouped
                .into_iter()
                .map(|(name, values)| (name, Agg::of(&values)))
                .collect(),
        )
    }
}

impl Serialize for ChannelAggregates {
    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, agg)| (name.clone(), agg.to_value()))
                .collect(),
        )
    }
}

/// One scenario cell's aggregated outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioResult {
    pub label: String,
    pub side: f64,
    pub deployment: String,
    pub topology: String,
    pub fault: String,
    pub replications: usize,
    pub metrics: ChannelAggregates,
}

/// Run a list of scenario cells (all replications of all cells in one
/// parallel fan-out) and aggregate per cell.
pub fn run_specs(specs: &[ScenarioSpec], base_seed: u64) -> Vec<ScenarioResult> {
    let jobs: Vec<(usize, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(cell, s)| (0..s.replications as u64).map(move |rep| (cell, rep)))
        .collect();
    let outputs: Vec<Channels> = jobs
        .into_par_iter()
        .map(|(cell, rep)| run_replication(&specs[cell], derive_seed2(base_seed, cell as u64, rep)))
        .collect();

    let mut results = Vec::with_capacity(specs.len());
    let mut cursor = 0usize;
    for spec in specs {
        let reps = &outputs[cursor..cursor + spec.replications];
        cursor += spec.replications;
        results.push(ScenarioResult {
            label: spec.label(),
            side: spec.side,
            deployment: spec.deployment.label(),
            topology: spec.topology.label(),
            fault: spec
                .fault
                .map(|f| f.label())
                .unwrap_or_else(|| "none".into()),
            replications: spec.replications,
            metrics: ChannelAggregates::from_replications(reps),
        });
    }
    results
}

/// Expand and run a whole matrix.
pub fn run_matrix(matrix: &ScenarioMatrix, base_seed: u64) -> Vec<ScenarioResult> {
    run_specs(&matrix.expand(), base_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeploymentSpec, Exec, MetricSuite, TopologySpec};

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix {
            sides: vec![6.0],
            deployments: vec![DeploymentSpec::Poisson { lambda: 22.0 }],
            topologies: vec![TopologySpec::UdgSens, TopologySpec::Udg { radius: 1.0 }],
            faults: vec![None],
            metrics: MetricSuite {
                degree: true,
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 3,
        }
    }

    /// Two runs of the same matrix are identical. (Thread-count invariance
    /// proper — varying `RAYON_NUM_THREADS` — is pinned by the
    /// `scenarios_golden` integration suite, whose tests are serialised:
    /// mutating the environment here would race with sibling unit tests
    /// reading it on their own fan-outs.)
    #[test]
    fn results_are_schedule_independent() {
        let m = tiny_matrix();
        let a = run_matrix(&m, 99);
        let b = run_matrix(&m, 99);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn aggregates_count_every_replication() {
        let results = run_matrix(&tiny_matrix(), 5);
        assert_eq!(results.len(), 2);
        for r in &results {
            let deployed = r.metrics.get("nodes.deployed").unwrap();
            assert_eq!(deployed.n, 3);
            assert!(deployed.min <= deployed.mean && deployed.mean <= deployed.max);
            assert!(r.metrics.get("degree.max").unwrap().max <= 4.0 || r.topology != "udg-sens");
        }
    }

    #[test]
    fn seed_changes_the_numbers() {
        let m = tiny_matrix();
        let a = run_matrix(&m, 1);
        let b = run_matrix(&m, 2);
        assert_ne!(
            a[0].metrics.get("nodes.deployed").unwrap().mean,
            b[0].metrics.get("nodes.deployed").unwrap().mean
        );
    }

    #[test]
    fn agg_of_basic_stats() {
        let a = Agg::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a.n, 3);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
    }
}
