//! Declarative scenario descriptions.
//!
//! A scenario is data, not code: the runner interprets these specs, so a
//! new experiment is a new value (usually a new preset), not a new binary.

use wsn_core::params::{NnSensParams, UdgSensParams};
use wsn_rgg::IncTopology;

/// How the topology is constructed: the monolithic reference builders
/// ([`Exec::Serial`]) or the Morton-ordered, tile-sharded parallel
/// pipeline ([`Exec::Sharded`]). The pipeline is proven edge-identical to
/// the reference (`tests/sharded_vs_monolithic.rs`), so this changes
/// wall-clock and memory shape, **never** a single metric byte — which is
/// why it is not part of the cell label and not a matrix axis.
pub use wsn_rgg::Exec;

/// How sensors are deployed in the window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeploymentSpec {
    /// Homogeneous Poisson process of intensity `lambda`.
    Poisson { lambda: f64 },
    /// Matérn type-II hard-core process with *retained* intensity `lambda`
    /// and hard-core radius `hard_core`; the parent intensity is recovered
    /// by inverting the retention formula, so densities are comparable with
    /// the Poisson axis value.
    Matern { lambda: f64, hard_core: f64 },
}

impl DeploymentSpec {
    /// Human-readable label used in reports (stable: goldens pin it).
    pub fn label(&self) -> String {
        match *self {
            DeploymentSpec::Poisson { lambda } => format!("poisson(lambda={lambda})"),
            DeploymentSpec::Matern { lambda, hard_core } => {
                format!("matern2(lambda={lambda},r={hard_core})")
            }
        }
    }
}

/// Which topology is constructed over the deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologySpec {
    /// The paper's UDG-SENS construction (strict default geometry).
    UdgSens,
    /// The paper's NN-SENS construction with tile scale `a` and neighbour
    /// count `k`.
    NnSens { a: f64, k: usize },
    /// The base unit-disk graph.
    Udg { radius: f64 },
    /// The undirected k-nearest-neighbour graph `NN(2, k)`.
    Knn { k: usize },
    /// Gabriel graph restricted to UDG edges.
    Gabriel { radius: f64 },
    /// Relative neighbourhood graph restricted to UDG edges.
    Rng { radius: f64 },
    /// Yao graph with `cones` cones restricted to UDG edges.
    Yao { radius: f64, cones: usize },
    /// Hierarchical neighbor graph (Bagchi–Madan–Premi): promotion
    /// probability `p`, `links` uplinks per level. Connected by
    /// construction at any density — the third SENS-class topology.
    Hng { p: f64, links: usize },
}

impl TopologySpec {
    /// Human-readable label used in reports (stable: goldens pin it). A
    /// plain kind's label is its [`IncTopology::label`].
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::UdgSens => "udg-sens".into(),
            TopologySpec::NnSens { a, k } => format!("nn-sens(a={a},k={k})"),
            plain => plain.plain(0).expect("plain kind").label(),
        }
    }

    /// The plain (non-SENS) kind as the topology the builders and the
    /// incremental engine take, or `None` for the SENS constructions. HNG
    /// rolls its level hierarchy from `hng_seed`; other kinds ignore it.
    pub fn plain(&self, hng_seed: u64) -> Option<IncTopology> {
        match *self {
            TopologySpec::Udg { radius } => Some(IncTopology::Udg { radius }),
            TopologySpec::Knn { k } => Some(IncTopology::Knn { k }),
            TopologySpec::Gabriel { radius } => Some(IncTopology::Gabriel { radius }),
            TopologySpec::Rng { radius } => Some(IncTopology::Rng { radius }),
            TopologySpec::Yao { radius, cones } => Some(IncTopology::Yao { radius, cones }),
            TopologySpec::Hng { p, links } => Some(IncTopology::Hng {
                p,
                links,
                seed: hng_seed,
            }),
            TopologySpec::UdgSens | TopologySpec::NnSens { .. } => None,
        }
    }

    /// Tile side of the SENS grid for this topology, if any.
    pub fn tile_side(&self) -> Option<f64> {
        match *self {
            TopologySpec::UdgSens => Some(UdgSensParams::strict_default().tile_side),
            TopologySpec::NnSens { a, k } => Some(NnSensParams { a, k }.tile_side()),
            _ => None,
        }
    }
}

/// Mid-construction fault injection: each node dies independently with
/// probability `p_fail` after deployment but before the (re)build epoch —
/// the construction must cope with the surviving density.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    pub p_fail: f64,
}

impl FaultSpec {
    pub fn label(&self) -> String {
        format!("fail(p={})", self.p_fail)
    }
}

/// Per-epoch energy renewal axis of a lifetime workload — maps one-to-one
/// onto `wsn_simnet::RenewalPolicy` (the runner does the translation).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RenewalSpec {
    /// Batteries only drain (the established default).
    #[default]
    None,
    /// Wireless charging vehicle with a per-epoch travel budget and
    /// QCAL-style max/min charge bands.
    MobileCharger {
        travel_budget: f64,
        min_charge: f64,
        max_charge: f64,
    },
    /// Per-epoch harvesting trickle clamped to a ceiling.
    Solar { rate: f64, max_charge: f64 },
    /// LEACH-style per-epoch sink rotation (no energy added; the hot
    /// relay neighbourhood moves instead).
    SinkRotation,
}

impl RenewalSpec {
    /// Human-readable label used in reports and bench rows (stable:
    /// goldens and the renewal gate pin it).
    pub fn label(&self) -> String {
        match *self {
            RenewalSpec::None => "none".into(),
            RenewalSpec::MobileCharger {
                travel_budget,
                min_charge,
                max_charge,
            } => format!("charger(b={travel_budget},min={min_charge},max={max_charge})"),
            RenewalSpec::Solar { rate, max_charge } => {
                format!("solar(rate={rate},max={max_charge})")
            }
            RenewalSpec::SinkRotation => "sink-rotation".into(),
        }
    }
}

/// Path selection for the plain-topology lifetime traffic loop — maps
/// one-to-one onto `wsn_simnet::RoutePolicy`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RouteSpec {
    /// Fewest hops (the established default).
    #[default]
    HopCount,
    /// Minimum total radio energy under the cell's energy model.
    MinEnergy,
    /// Maximise the minimum residual battery along the path (the
    /// load-balancing variant).
    MaxMinResidual,
}

impl RouteSpec {
    /// Stable label (bench rows pin it).
    pub fn label(&self) -> &'static str {
        match self {
            RouteSpec::HopCount => "hop-count",
            RouteSpec::MinEnergy => "min-energy",
            RouteSpec::MaxMinResidual => "max-min-residual",
        }
    }
}

/// Churn-driven lifetime simulation (the dynamic-network workload).
///
/// When present, the replication runs `wsn_simnet::churn` instead of the
/// static metric suite: the deployment is split into an initially-alive
/// population plus a reserve pool (`reserve_frac` of the nodes, taken from
/// the highest ids), then simulated for `epochs` rounds of traffic, battery
/// drain, failures, joins and in-place topology repair. Like [`Exec`]
/// this is not a matrix axis and not part of the cell label — a lifetime
/// preset is a different *workload*, not a different cell of the same one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Epochs simulated.
    pub epochs: usize,
    /// Initial battery per node (fresh reserve nodes get the same).
    pub battery: f64,
    /// Per-epoch idle drain per alive node.
    pub idle_cost: f64,
    /// Packets routed per epoch.
    pub traffic: usize,
    /// Per-epoch random-failure probability.
    pub p_fail: f64,
    /// `Some(radius)` switches failures to clustered sector blackouts of
    /// that radius (expected kill fraction stays `p_fail`).
    pub blast_radius: Option<f64>,
    /// Reserve nodes admitted per death.
    pub join_rate: f64,
    /// Fraction of the deployment held back as the join reserve.
    pub reserve_frac: f64,
    /// Per-epoch energy renewal ([`RenewalSpec::None`] = drain-only).
    /// When this or `route` departs from the defaults the runner also
    /// simulates a drain-only hop-count baseline arm and emits the
    /// `lifetime.*` comparison channels.
    pub renewal: RenewalSpec,
    /// Path selection for the traffic loop ([`RouteSpec::HopCount`] is
    /// the established default; SENS cells always route Fig.-9 style).
    pub route: RouteSpec,
}

/// Always-on topology service workload (the serve-mode read path).
///
/// When present, the replication runs `wsn_simnet::serve` instead of the
/// static metric suite: the deployment churns under the cell's
/// [`ChurnSpec`]-shaped schedule while reader threads answer route / k-NN
/// / coverage / membership queries against per-epoch snapshots. Like
/// [`ChurnSpec`] this is a *workload*, not a matrix axis. Reader-thread
/// count is deliberately **not** part of the spec: serve answers are
/// byte-identical at any thread count (the concurrency suite pins this),
/// so the runner picks threads freely without touching golden bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSpec {
    /// Churn schedule the writer drives, run exactly as a lifetime cell
    /// runs it (traffic, idle drain and renewal included); served queries
    /// never debit batteries.
    pub churn: ChurnSpec,
    /// Query clients (each with its own route cache and digest).
    pub clients: usize,
    /// Queries per client per epoch.
    pub queries_per_client: usize,
    /// Route destinations are sampled within this radius of the source.
    pub route_radius: f64,
    /// Coverage / k-NN probe radius.
    pub coverage_radius: f64,
    /// Per-client LRU route-cache capacity.
    pub cache_capacity: usize,
}

/// Euclidean-stretch sampling (property P2).
#[derive(Clone, Debug, PartialEq)]
pub struct StretchSpec {
    /// Ordered node pairs sampled per replication.
    pub pairs: usize,
    /// Tail threshold α for `P[stretch > α]`.
    pub alpha: f64,
}

/// Empty-box coverage estimation (property P3 / Theorem 3.3).
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageSpec {
    /// Box sides ℓ to probe.
    pub ells: Vec<f64>,
    /// Boxes dropped per ℓ.
    pub samples: usize,
    /// Corollary 3.4 targets: report the smallest ℓ with
    /// `P[B(ℓ) empty] < 1/n` for each `n`.
    pub logn_targets: Vec<f64>,
}

/// Power-stretch comparison against the base UDG optimum.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerSpec {
    /// Path-loss exponents β to evaluate.
    pub betas: Vec<f64>,
    /// Node pairs sampled per replication.
    pub pairs: usize,
}

/// Fig. 9 routing with message-level accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingSpec {
    /// Packets routed per replication.
    pub routes: usize,
    /// Also account radio energy (free-space model) per delivered packet.
    pub energy: bool,
}

/// Which metrics a scenario computes. Every field is optional so a preset
/// pays only for what it pins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSuite {
    /// Degree statistics of the built graph (property P1).
    pub degree: bool,
    /// SENS summary counters: good-tile fraction, elected, core size,
    /// missing links (SENS topologies only).
    pub sens_summary: bool,
    /// Euclidean stretch over sampled pairs (property P2).
    pub stretch: Option<StretchSpec>,
    /// Empty-box coverage curve (property P3).
    pub coverage: Option<CoverageSpec>,
    /// Power stretch vs the base UDG (the power-efficiency headline).
    pub power: Option<PowerSpec>,
    /// Fig. 9 routing overhead and delivery.
    pub routing: Option<RoutingSpec>,
    /// Fig. 7 distributed-construction cost: rounds and per-node messages
    /// (property P4; UDG-SENS only).
    pub construction: bool,
    /// Claim 2.1 / 2.3 relay-path audit on adjacent good tiles.
    pub claim_paths: bool,
}

/// One fully-specified scenario cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Window side (SENS grids are fitted to it; baselines use it exactly).
    pub side: f64,
    pub deployment: DeploymentSpec,
    pub topology: TopologySpec,
    pub fault: Option<FaultSpec>,
    pub metrics: MetricSuite,
    /// Construction execution mode (not an axis; see [`Exec`]).
    pub exec: Exec,
    /// Lifetime workload (not an axis; replaces the static metric suite
    /// when present — see [`ChurnSpec`]).
    pub churn: Option<ChurnSpec>,
    /// Serve workload (not an axis; replaces the static metric suite when
    /// present — see [`ServeSpec`]; takes precedence over `churn`).
    pub serve: Option<ServeSpec>,
    /// Independent replications (each with its own derived seed).
    pub replications: usize,
}

impl ScenarioSpec {
    /// Stable cell label: `side=…/deployment/topology/fault`.
    pub fn label(&self) -> String {
        let fault = self
            .fault
            .map(|f| f.label())
            .unwrap_or_else(|| "none".into());
        format!(
            "side={}/{}/{}/{}",
            self.side,
            self.deployment.label(),
            self.topology.label(),
            fault
        )
    }
}

/// A cross product of axis values sharing one metric suite.
///
/// `expand` enumerates cells in a fixed, documented order (side-major, then
/// deployment, topology, fault), which the runner's seed derivation and the
/// golden files both rely on.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    pub sides: Vec<f64>,
    pub deployments: Vec<DeploymentSpec>,
    pub topologies: Vec<TopologySpec>,
    /// Fault axis; use `vec![None]` for no fault modelling.
    pub faults: Vec<Option<FaultSpec>>,
    pub metrics: MetricSuite,
    /// Construction execution mode shared by every cell (not an axis).
    pub exec: Exec,
    /// Lifetime workload shared by every cell (not an axis).
    pub churn: Option<ChurnSpec>,
    /// Serve workload shared by every cell (not an axis).
    pub serve: Option<ServeSpec>,
    pub replications: usize,
}

impl ScenarioMatrix {
    /// All cells of the matrix, in deterministic order.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::with_capacity(
            self.sides.len() * self.deployments.len() * self.topologies.len() * self.faults.len(),
        );
        for &side in &self.sides {
            for &deployment in &self.deployments {
                for &topology in &self.topologies {
                    for &fault in &self.faults {
                        out.push(ScenarioSpec {
                            side,
                            deployment,
                            topology,
                            fault,
                            metrics: self.metrics.clone(),
                            exec: self.exec,
                            churn: self.churn,
                            serve: self.serve,
                            replications: self.replications,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_order_is_side_major() {
        let m = ScenarioMatrix {
            sides: vec![8.0, 10.0],
            deployments: vec![DeploymentSpec::Poisson { lambda: 20.0 }],
            topologies: vec![TopologySpec::UdgSens, TopologySpec::Udg { radius: 1.0 }],
            faults: vec![None, Some(FaultSpec { p_fail: 0.2 })],
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 2,
        };
        let cells = m.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].side, 8.0);
        assert_eq!(cells[0].topology, TopologySpec::UdgSens);
        assert_eq!(cells[0].fault, None);
        assert_eq!(cells[1].fault, Some(FaultSpec { p_fail: 0.2 }));
        assert_eq!(cells[2].topology, TopologySpec::Udg { radius: 1.0 });
        assert_eq!(cells[4].side, 10.0);
    }

    #[test]
    fn labels_are_stable() {
        let s = ScenarioSpec {
            side: 12.0,
            deployment: DeploymentSpec::Matern {
                lambda: 20.0,
                hard_core: 0.1,
            },
            topology: TopologySpec::Yao {
                radius: 1.0,
                cones: 6,
            },
            fault: Some(FaultSpec { p_fail: 0.25 }),
            metrics: MetricSuite::default(),
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 1,
        };
        assert_eq!(
            s.label(),
            "side=12/matern2(lambda=20,r=0.1)/yao(r=1,c=6)/fail(p=0.25)"
        );
    }

    #[test]
    fn sens_topologies_have_tile_sides() {
        assert!(TopologySpec::UdgSens.tile_side().is_some());
        assert!(TopologySpec::NnSens { a: 1.2, k: 400 }
            .tile_side()
            .is_some());
        assert!(TopologySpec::Gabriel { radius: 1.0 }.tile_side().is_none());
    }
}
