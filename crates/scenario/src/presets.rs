//! The named experiment catalogue.
//!
//! Every retired `exp_*` binary maps to one preset here (see `replaces`);
//! the `wsn-scenarios` driver runs them by name and the golden suite pins
//! their quick profiles. Presets are plain functions of
//! `(profile, seed)` → [`Report`], so adding a scenario is a data edit.

use serde::Serialize;

use crate::report::Report;
use crate::runner::{run_matrix, Profile};
use crate::spec::{
    ChurnSpec, CoverageSpec, DeploymentSpec, Exec, FaultSpec, MetricSuite, PowerSpec, RenewalSpec,
    RouteSpec, RoutingSpec, ScenarioMatrix, ServeSpec, StretchSpec, TopologySpec,
};
use crate::substrate;

/// A named experiment preset.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    pub name: &'static str,
    pub title: &'static str,
    /// The `exp_*` binaries this preset replaced (empty for new workloads).
    pub replaces: &'static [&'static str],
}

/// The full catalogue, in canonical order.
pub const PRESETS: &[Preset] = &[
    Preset {
        name: "sparsity",
        title: "P1: SENS max degree <= 4 vs UDG and baseline spanners across densities",
        replaces: &["exp_sparsity"],
    },
    Preset {
        name: "stretch",
        title: "P2 / Thm 3.2: constant stretch with an exponentially small tail",
        replaces: &["exp_stretch"],
    },
    Preset {
        name: "coverage",
        title: "P3 / Thm 3.3: empty-box probability decays exponentially in ell",
        replaces: &["exp_coverage"],
    },
    Preset {
        name: "coverage-logn",
        title: "Cor 3.4: box side for P[empty] < 1/n grows like log n",
        replaces: &["exp_coverage_logn"],
    },
    Preset {
        name: "power",
        title: "Power stretch vs the UDG optimum at a fraction of the edges",
        replaces: &["exp_power"],
    },
    Preset {
        name: "matern",
        title: "Robustness: UDG-SENS on Matern-II hard-core vs Poisson deployments",
        replaces: &["exp_matern"],
    },
    Preset {
        name: "claim-udg",
        title: "Claim 2.1: 3-edge relay paths between adjacent good tiles (UDG-SENS)",
        replaces: &["exp_claim_udg"],
    },
    Preset {
        name: "claim-nn",
        title: "Claim 2.3: 5-edge relay paths with all links in NN(2,k) (NN-SENS)",
        replaces: &["exp_claim_nn"],
    },
    Preset {
        name: "routing",
        title: "Fig. 9: routing overhead per lattice step is O(1), full core delivery",
        replaces: &["exp_routing"],
    },
    Preset {
        name: "construct-cost",
        title: "P4 / Fig. 7: distributed construction rounds and per-node messages",
        replaces: &["exp_construct_cost"],
    },
    Preset {
        name: "fault-resilience",
        title: "Fault axis: mid-construction failures vs P1 audit and delivery",
        replaces: &[],
    },
    Preset {
        name: "lifetime-sens-vs-udg",
        title: "Lifetime: battery-driven epochs, UDG-SENS vs raw UDG until partition",
        replaces: &[],
    },
    Preset {
        name: "lifetime-join-churn",
        title: "Lifetime: clustered blackouts + join reserve, incremental repair across baselines",
        replaces: &[],
    },
    Preset {
        name: "lifetime-blackout-locality",
        title: "Lifetime: tight sector blackouts, locality-proportional repair trajectories",
        replaces: &[],
    },
    Preset {
        name: "lifetime-renewal",
        title: "Lifetime: mobile-charger energy renewal vs the drain-only baseline",
        replaces: &[],
    },
    Preset {
        name: "lifetime-load-balance",
        title: "Lifetime: max-min-residual load balancing vs hop-count, both sides pinned",
        replaces: &[],
    },
    Preset {
        name: "serve-snapshot",
        title: "Serve: epoch-snapshot reads over clustered churn, answer digests pinned",
        replaces: &[],
    },
    Preset {
        name: "hng-vs-sens",
        title: "HNG vs SENS: connected-by-construction hierarchy across sparse and dense regimes",
        replaces: &[],
    },
    Preset {
        name: "percolation-pc",
        title: "Substrate: site-percolation theta(p), crossing probability, p_c",
        replaces: &["exp_pc"],
    },
    Preset {
        name: "chemical",
        title: "Substrate: chemical distance concentrates at a constant multiple of L1",
        replaces: &["exp_chemical"],
    },
    Preset {
        name: "ablation-routing",
        title: "Ablation: Fig. 9 x-y + repair vs flooding on supercritical lattices",
        replaces: &["exp_ablation_routing"],
    },
    Preset {
        name: "udg-threshold",
        title: "Thm 2.2: supercritical density lambda_s of UDG-SENS",
        replaces: &["exp_udg_threshold"],
    },
    Preset {
        name: "nn-threshold",
        title: "Thm 2.4: critical neighbour count k_s of NN-SENS",
        replaces: &["exp_nn_threshold"],
    },
];

/// All presets in canonical order.
pub fn all_presets() -> &'static [Preset] {
    PRESETS
}

/// Look a preset up by name.
pub fn find_preset(name: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.name == name)
}

fn poisson(lambdas: &[f64]) -> Vec<DeploymentSpec> {
    lambdas
        .iter()
        .map(|&lambda| DeploymentSpec::Poisson { lambda })
        .collect()
}

fn matrix_for(preset: &Preset, profile: Profile) -> Option<ScenarioMatrix> {
    let m = match preset.name {
        "sparsity" => ScenarioMatrix {
            sides: vec![profile.pick(30.0, 8.0)],
            deployments: poisson(&[20.0, 30.0, 45.0]),
            topologies: vec![
                TopologySpec::Udg { radius: 1.0 },
                TopologySpec::Gabriel { radius: 1.0 },
                TopologySpec::Rng { radius: 1.0 },
                TopologySpec::Yao {
                    radius: 1.0,
                    cones: 6,
                },
                TopologySpec::UdgSens,
            ],
            faults: vec![None],
            metrics: MetricSuite {
                degree: true,
                sens_summary: true,
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "stretch" => ScenarioMatrix {
            sides: vec![profile.pick(60.0, 14.0)],
            deployments: poisson(&[25.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                stretch: Some(StretchSpec {
                    pairs: profile.pick(4000, 300),
                    alpha: 2.5,
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "coverage" => ScenarioMatrix {
            sides: vec![profile.pick(40.0, 12.0)],
            deployments: poisson(&[20.0, 30.0, 45.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                coverage: Some(CoverageSpec {
                    ells: profile.pick(
                        (1..=10).map(|i| 0.25 * i as f64).collect(),
                        vec![0.5, 1.0, 1.5, 2.0],
                    ),
                    samples: profile.pick(20_000, 1500),
                    logn_targets: Vec::new(),
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "coverage-logn" => ScenarioMatrix {
            sides: vec![profile.pick(36.0, 12.0)],
            deployments: poisson(&[30.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                coverage: Some(CoverageSpec {
                    ells: Vec::new(),
                    samples: profile.pick(20_000, 1500),
                    logn_targets: profile
                        .pick(vec![10.0, 30.0, 100.0, 300.0, 1000.0], vec![10.0, 100.0]),
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "power" => ScenarioMatrix {
            sides: vec![profile.pick(24.0, 8.0)],
            deployments: poisson(&[25.0]),
            topologies: vec![
                TopologySpec::Gabriel { radius: 1.0 },
                TopologySpec::Rng { radius: 1.0 },
                TopologySpec::Yao {
                    radius: 1.0,
                    cones: 6,
                },
                TopologySpec::UdgSens,
            ],
            faults: vec![None],
            metrics: MetricSuite {
                degree: true,
                power: Some(PowerSpec {
                    betas: profile.pick(vec![2.0, 3.0, 4.0, 5.0], vec![2.0, 4.0]),
                    pairs: profile.pick(300, 24),
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "matern" => ScenarioMatrix {
            sides: vec![profile.pick(30.0, 10.0)],
            deployments: vec![
                DeploymentSpec::Poisson { lambda: 20.0 },
                DeploymentSpec::Matern {
                    lambda: 20.0,
                    hard_core: 0.1,
                },
                DeploymentSpec::Poisson { lambda: 30.0 },
                DeploymentSpec::Matern {
                    lambda: 30.0,
                    hard_core: 0.1,
                },
            ],
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                degree: true,
                sens_summary: true,
                coverage: Some(CoverageSpec {
                    ells: vec![1.0],
                    samples: profile.pick(10_000, 1000),
                    logn_targets: Vec::new(),
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "claim-udg" => ScenarioMatrix {
            sides: vec![profile.pick(40.0, 10.0)],
            deployments: poisson(&[25.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                claim_paths: true,
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: profile.pick(8, 3),
        },
        "claim-nn" => ScenarioMatrix {
            // NN-SENS at unit density: the window is a whole number of
            // 10a-side tiles (a = 1.2 ⇒ tile side 12).
            sides: vec![profile.pick(48.0, 24.0)],
            deployments: poisson(&[1.0]),
            topologies: vec![TopologySpec::NnSens { a: 1.2, k: 400 }],
            faults: vec![None],
            metrics: MetricSuite {
                sens_summary: true,
                claim_paths: true,
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: profile.pick(6, 2),
        },
        "routing" => ScenarioMatrix {
            sides: vec![profile.pick(70.0, 16.0)],
            // λ = 22 keeps a visible fraction of bad tiles so repairs
            // actually happen.
            deployments: poisson(&[22.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                routing: Some(RoutingSpec {
                    routes: profile.pick(3000, 200),
                    energy: true,
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        "construct-cost" => ScenarioMatrix {
            sides: profile.pick(vec![10.0, 15.0, 20.0, 30.0, 40.0], vec![8.0, 12.0]),
            deployments: poisson(&[30.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![None],
            metrics: MetricSuite {
                construction: true,
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: profile.pick(2, 1),
        },
        "fault-resilience" => ScenarioMatrix {
            sides: vec![profile.pick(18.0, 10.0)],
            deployments: poisson(&[40.0]),
            topologies: vec![TopologySpec::UdgSens],
            faults: vec![
                None,
                Some(FaultSpec { p_fail: 0.2 }),
                Some(FaultSpec { p_fail: 0.5 }),
            ],
            metrics: MetricSuite {
                degree: true,
                sens_summary: true,
                routing: Some(RoutingSpec {
                    routes: profile.pick(400, 60),
                    energy: false,
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        // The network lives while batteries do: idle + relay drain kills
        // nodes mid-run, and the report pins how the SENS core's delivery
        // and coverage degrade against the raw UDG on the same deployment.
        "lifetime-sens-vs-udg" => ScenarioMatrix {
            sides: vec![profile.pick(20.0, 8.0)],
            deployments: poisson(&[30.0]),
            topologies: vec![TopologySpec::UdgSens, TopologySpec::Udg { radius: 1.0 }],
            faults: vec![None],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: Some(ChurnSpec {
                epochs: profile.pick(20, 6),
                battery: 4000.0,
                idle_cost: 650.0,
                traffic: profile.pick(200, 40),
                p_fail: 0.05,
                blast_radius: None,
                join_rate: 0.0,
                reserve_frac: 0.0,
                renewal: RenewalSpec::None,
                route: RouteSpec::HopCount,
            }),
            serve: None,
            replications: 2,
        },
        // Clustered sector blackouts with a join reserve: every epoch ~15%
        // of the population dies in seeded disk outages and is replaced
        // one-for-one from the reserve, exercising the incremental repair
        // machinery (deaths *and* joins) across the baseline spanners.
        "lifetime-join-churn" => ScenarioMatrix {
            sides: vec![profile.pick(16.0, 8.0)],
            deployments: poisson(&[25.0]),
            topologies: vec![
                TopologySpec::Udg { radius: 1.0 },
                TopologySpec::Rng { radius: 1.0 },
                TopologySpec::Knn { k: 5 },
                TopologySpec::Gabriel { radius: 1.0 },
            ],
            faults: vec![None],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: Some(ChurnSpec {
                epochs: profile.pick(12, 5),
                battery: 1e8,
                idle_cost: 0.0,
                traffic: profile.pick(150, 30),
                p_fail: 0.15,
                blast_radius: Some(1.5),
                join_rate: 1.0,
                reserve_frac: 0.25,
                renewal: RenewalSpec::None,
                route: RouteSpec::HopCount,
            }),
            serve: None,
            replications: 2,
        },
        // Tight blackouts on a wide window: each epoch kills only a few
        // small disks, so repair must stay proportional to the churned
        // region. The golden pins the event-local repair's exact topology
        // walk (graph_hash32) across thread counts {1, 4, 8}.
        "lifetime-blackout-locality" => ScenarioMatrix {
            sides: vec![profile.pick(24.0, 12.0)],
            deployments: poisson(&[20.0]),
            topologies: vec![
                TopologySpec::Udg { radius: 1.0 },
                TopologySpec::Rng { radius: 1.0 },
                TopologySpec::Yao {
                    radius: 1.0,
                    cones: 6,
                },
            ],
            faults: vec![None],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: Some(ChurnSpec {
                epochs: profile.pick(10, 4),
                battery: 1e8,
                idle_cost: 0.0,
                traffic: profile.pick(120, 25),
                p_fail: 0.04,
                blast_radius: Some(1.0),
                join_rate: 1.0,
                reserve_frac: 0.15,
                renewal: RenewalSpec::None,
                route: RouteSpec::HopCount,
            }),
            serve: None,
            replications: 2,
        },
        // Energy renewal: the same battery-driven drain as the SENS-vs-UDG
        // lifetime run, but a wireless charging vehicle tops up the
        // lowest-battery nodes each epoch under a travel budget. The runner
        // simulates the drain-only baseline on the same deployment and
        // seed, so the golden pins both trajectories and their gap
        // (`lifetime.lifetime_rounds` vs `lifetime.baseline_*`).
        "lifetime-renewal" => ScenarioMatrix {
            sides: vec![profile.pick(16.0, 8.0)],
            deployments: poisson(&[25.0]),
            topologies: vec![
                TopologySpec::Udg { radius: 1.0 },
                TopologySpec::Rng { radius: 1.0 },
            ],
            faults: vec![None],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: Some(ChurnSpec {
                epochs: profile.pick(24, 14),
                battery: 3200.0,
                idle_cost: 450.0,
                traffic: profile.pick(120, 30),
                p_fail: 0.0,
                blast_radius: None,
                join_rate: 0.0,
                reserve_frac: 0.0,
                renewal: RenewalSpec::MobileCharger {
                    travel_budget: 64.0,
                    min_charge: 1600.0,
                    max_charge: 3200.0,
                },
                route: RouteSpec::HopCount,
            }),
            serve: None,
            replications: 2,
        },
        // Load balancing without adding energy: traffic steers around
        // nearly-depleted relays (widest-path on residual battery). The
        // runner's hop-count baseline arm makes the trade-off a pinned
        // observable: residual spread flattens (`final_battery_variance`
        // below the baseline's) while the longer widest paths spend more
        // total energy under uniform random traffic, so the lifetime
        // comparison runs the other way — both sides of the Raicu-style
        // even-drain argument, byte-pinned on the same deployment.
        "lifetime-load-balance" => ScenarioMatrix {
            sides: vec![profile.pick(14.0, 8.0)],
            deployments: poisson(&[25.0]),
            topologies: vec![
                TopologySpec::Udg { radius: 1.0 },
                TopologySpec::Gabriel { radius: 1.0 },
            ],
            faults: vec![None],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: Some(ChurnSpec {
                epochs: profile.pick(20, 12),
                battery: 2800.0,
                idle_cost: 120.0,
                traffic: profile.pick(220, 60),
                p_fail: 0.0,
                blast_radius: None,
                join_rate: 0.0,
                reserve_frac: 0.0,
                renewal: RenewalSpec::None,
                route: RouteSpec::MaxMinResidual,
            }),
            serve: None,
            replications: 2,
        },
        // The always-on topology service: a clustered-blackout schedule
        // with joins runs under concurrent reader threads; the golden pins
        // the per-client answer digests (routes incl. cache promotions,
        // k-NN, coverage, membership) and the final topology fingerprint,
        // at every RAYON_NUM_THREADS the workflow sweeps. Route sources come
        // from a small hot set of alive ids, so `(src, dst)` pairs repeat
        // and the digests include paths served from the cache.
        "serve-snapshot" => ScenarioMatrix {
            sides: vec![profile.pick(16.0, 8.0)],
            deployments: poisson(&[20.0]),
            topologies: vec![
                TopologySpec::Udg { radius: 1.0 },
                TopologySpec::Rng { radius: 1.0 },
                TopologySpec::Knn { k: 5 },
            ],
            faults: vec![None],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: None,
            serve: Some(ServeSpec {
                churn: ChurnSpec {
                    epochs: profile.pick(8, 4),
                    battery: 1e8,
                    idle_cost: 0.0,
                    traffic: 0,
                    p_fail: 0.10,
                    blast_radius: Some(1.2),
                    join_rate: 1.0,
                    reserve_frac: 0.2,
                    renewal: RenewalSpec::None,
                    route: RouteSpec::HopCount,
                },
                clients: profile.pick(8, 4),
                queries_per_client: profile.pick(96, 80),
                route_radius: 3.0,
                coverage_radius: 1.0,
                cache_capacity: 32,
            }),
            replications: 2,
        },
        // The third SENS-class topology raced against both paper
        // constructions on the same deployments. The density axis is the
        // point: λ = 1 is NN-SENS territory (UDG-SENS subcritical there)
        // and λ = 20 is UDG-SENS territory — HNG stays connected by
        // construction at both, which the stretch connected_fraction and
        // power channels make directly comparable. The side is a whole
        // number of NN-SENS tiles (10a = 12), as in `claim-nn`.
        "hng-vs-sens" => ScenarioMatrix {
            sides: vec![profile.pick(36.0, 24.0)],
            deployments: poisson(&[1.0, 20.0]),
            topologies: vec![
                TopologySpec::Hng { p: 0.5, links: 1 },
                TopologySpec::UdgSens,
                TopologySpec::NnSens { a: 1.2, k: 400 },
            ],
            faults: vec![None],
            metrics: MetricSuite {
                degree: true,
                sens_summary: true,
                stretch: Some(StretchSpec {
                    pairs: profile.pick(2000, 200),
                    alpha: 2.5,
                }),
                power: Some(PowerSpec {
                    betas: profile.pick(vec![2.0, 4.0], vec![2.0]),
                    pairs: profile.pick(300, 24),
                }),
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        },
        _ => return None,
    };
    Some(m)
}

/// Presets implemented as substrate experiments (no deployment matrix).
fn is_substrate(name: &str) -> bool {
    matches!(
        name,
        "percolation-pc" | "chemical" | "ablation-routing" | "udg-threshold" | "nn-threshold"
    )
}

fn substrate_for(preset: &Preset, profile: Profile, seed: u64) -> Option<serde::value::Value> {
    if !is_substrate(preset.name) {
        return None;
    }
    let v = match preset.name {
        "percolation-pc" => substrate::run_percolation(profile, seed).to_value(),
        "chemical" => substrate::run_chemical(profile, seed).to_value(),
        "ablation-routing" => substrate::run_ablation(profile, seed).to_value(),
        "udg-threshold" => substrate::run_udg_threshold(profile, seed).to_value(),
        "nn-threshold" => substrate::run_nn_threshold(profile, seed).to_value(),
        _ => unreachable!("is_substrate and this match must agree"),
    };
    Some(v)
}

/// Run a preset by name. Returns `None` for an unknown name.
pub fn run_preset(name: &str, profile: Profile, seed: u64) -> Option<Report> {
    let preset = find_preset(name)?;
    let scenarios = matrix_for(preset, profile)
        .map(|m| run_matrix(&m, seed))
        .unwrap_or_default();
    let substrate = substrate_for(preset, profile, seed);
    debug_assert!(
        !scenarios.is_empty() || substrate.is_some(),
        "preset {name} produced nothing"
    );
    Some(Report {
        name: preset.name.to_string(),
        title: preset.title.to_string(),
        replaces: preset.replaces.iter().map(|s| s.to_string()).collect(),
        profile: profile.name().to_string(),
        seed,
        scenarios,
        substrate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_all_fifteen_exp_binaries() {
        let replaced: Vec<&str> = PRESETS.iter().flat_map(|p| p.replaces).copied().collect();
        let expected = [
            "exp_ablation_routing",
            "exp_chemical",
            "exp_claim_nn",
            "exp_claim_udg",
            "exp_construct_cost",
            "exp_coverage",
            "exp_coverage_logn",
            "exp_matern",
            "exp_nn_threshold",
            "exp_pc",
            "exp_power",
            "exp_routing",
            "exp_sparsity",
            "exp_stretch",
            "exp_udg_threshold",
        ];
        for e in expected {
            assert!(replaced.contains(&e), "no preset replaces {e}");
        }
        assert_eq!(replaced.len(), expected.len());
    }

    #[test]
    fn every_preset_resolves_to_a_matrix_or_substrate() {
        for p in PRESETS {
            assert!(
                matrix_for(p, Profile::Quick).is_some() != is_substrate(p.name),
                "preset {} must be exactly one of matrix / substrate",
                p.name
            );
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in PRESETS.iter().enumerate() {
            for b in &PRESETS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn unknown_preset_is_none() {
        assert!(run_preset("no-such-preset", Profile::Quick, 1).is_none());
    }

    #[test]
    fn sparsity_quick_pins_p1() {
        let report = run_preset("sparsity", Profile::Quick, 0xC0FFEE).unwrap();
        // 3 densities × 5 topologies.
        assert_eq!(report.scenarios.len(), 15);
        for cell in &report.scenarios {
            if cell.topology == "udg-sens" {
                let max_deg = cell.metrics.get("degree.max").unwrap();
                assert!(max_deg.max <= 4.0, "P1 violated in {}", cell.label);
            }
        }
    }
}
