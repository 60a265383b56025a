//! One replication of one scenario cell → named metric channels.
//!
//! A *channel* is a `(name, value)` pair; the runner aggregates channels of
//! the same name across replications. Everything in this module is a pure
//! function of `(spec, rep_seed)`: all randomness flows through seeds
//! derived from `rep_seed` with fixed stream ids, so a replication computes
//! the same values no matter which worker thread runs it.

use rand::RngExt;
use wsn_geom::hash::derive_seed;
use wsn_geom::Aabb;
use wsn_graph::stats::degree_stats;
use wsn_graph::Csr;
use wsn_pointproc::matern::sample_matern_ii;
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointOrder, PointSet};
use wsn_rgg::ordered::build_knn_on_order;
use wsn_rgg::{build_knn, build_udg};
use wsn_simnet::churn::{
    simulate_lifetime_plain, simulate_lifetime_sens, ChurnConfig, ChurnModel, LifetimeReport,
    RenewalPolicy, RoutePolicy, SensKind,
};
use wsn_simnet::energy::{path_energy, EnergyModel};
use wsn_simnet::fault::random_failures;
use wsn_simnet::{distributed_build_udg, route_packet_with_path};

use wsn_core::coverage::{ell_for_target, empty_box_curve};
use wsn_core::nn::{build_nn_sens, build_nn_sens_ordered};
use wsn_core::params::{NnSensParams, UdgSensParams};
use wsn_core::stretch::{measure_sens_stretch, sample_id_pairs, sample_rep_pairs};
use wsn_core::subgraph::SensNetwork;
use wsn_core::tilegrid::TileGrid;
use wsn_core::udg::{build_udg_sens, build_udg_sens_ordered};

use crate::spec::{
    ChurnSpec, DeploymentSpec, Exec, RenewalSpec, RouteSpec, ScenarioSpec, TopologySpec,
};

/// Seed streams inside one replication (fixed so adding a metric never
/// shifts the randomness of another).
mod stream {
    pub const DEPLOY: u64 = 1;
    pub const FAULT: u64 = 2;
    pub const STRETCH: u64 = 3;
    pub const COVERAGE: u64 = 4;
    pub const POWER: u64 = 5;
    pub const ROUTING: u64 = 6;
    pub const CHURN: u64 = 7;
    pub const HNG: u64 = 8;
}

/// The channels of one replication, in emission order.
pub type Channels = Vec<(String, f64)>;

/// The built topology of a replication.
pub enum Built {
    Sens(SensNetwork),
    Plain(Csr),
}

impl Built {
    /// The built graph, whichever construction produced it.
    pub fn graph(&self) -> &Csr {
        match self {
            Built::Sens(net) => &net.graph,
            Built::Plain(g) => g,
        }
    }
}

fn push(ch: &mut Channels, name: &str, value: f64) {
    // Non-finite values have no golden-stable JSON meaning (the shim writes
    // `null`); dropping them keeps aggregates well-defined and the absence
    // itself shows up as a lower `n` in the aggregate.
    if value.is_finite() {
        ch.push((name.to_string(), value));
    }
}

/// Invert the Matérn-II retention formula so the axis value is the
/// *retained* intensity (comparable with a Poisson axis value).
fn matern_parent_intensity(lambda_retained: f64, hard_core: f64) -> f64 {
    let pi_r2 = std::f64::consts::PI * hard_core * hard_core;
    if pi_r2 == 0.0 {
        return lambda_retained;
    }
    let retention_arg = 1.0 - lambda_retained * pi_r2;
    assert!(
        retention_arg > 0.0,
        "retained intensity {lambda_retained} unreachable with hard core {hard_core}"
    );
    -retention_arg.ln() / pi_r2
}

fn sample_deployment(spec: &ScenarioSpec, window: &Aabb, seed: u64) -> PointSet {
    let mut rng = rng_from_seed(seed);
    match spec.deployment {
        DeploymentSpec::Poisson { lambda } => sample_poisson_window(&mut rng, lambda, window),
        DeploymentSpec::Matern { lambda, hard_core } => {
            let parent = matern_parent_intensity(lambda, hard_core);
            sample_matern_ii(&mut rng, parent, hard_core, window)
        }
    }
}

/// Run one replication of `spec` with the given derived seed and return its
/// metric channels.
pub fn run_replication(spec: &ScenarioSpec, rep_seed: u64) -> Channels {
    let mut ch = Channels::new();

    // ---- deployment window ------------------------------------------
    let grid = spec
        .topology
        .tile_side()
        .map(|tile| TileGrid::fit(spec.side, tile));
    let window = grid
        .as_ref()
        .map(|g| g.covered_area())
        .unwrap_or_else(|| Aabb::square(spec.side));

    let deployed = sample_deployment(spec, &window, derive_seed(rep_seed, stream::DEPLOY));
    push(&mut ch, "nodes.deployed", deployed.len() as f64);

    // ---- mid-construction faults ------------------------------------
    let points = match spec.fault {
        Some(f) => {
            let (survivors, _) =
                random_failures(&deployed, f.p_fail, derive_seed(rep_seed, stream::FAULT));
            survivors
        }
        None => deployed,
    };
    push(&mut ch, "nodes.surviving", points.len() as f64);

    // ---- serve workload (replaces the static suite) -------------------
    if let Some(serve) = &spec.serve {
        run_serve_workload(&mut ch, spec, serve, &points, rep_seed);
        return ch;
    }

    // ---- lifetime workload (replaces the static suite) ---------------
    if let Some(churn) = &spec.churn {
        run_lifetime(&mut ch, spec, churn, &points, grid, rep_seed);
        return ch;
    }

    // ---- topology construction --------------------------------------
    let built = build_topology(spec.topology, &points, grid.clone(), spec.exec, rep_seed);

    // ---- metric: degree (P1) ----------------------------------------
    if spec.metrics.degree {
        let s = match &built {
            Built::Sens(net) => net.degree_stats(),
            Built::Plain(g) => degree_stats(g),
        };
        push(&mut ch, "degree.nodes", s.n as f64);
        push(&mut ch, "degree.edges", s.m as f64);
        push(&mut ch, "degree.mean", s.mean);
        push(&mut ch, "degree.max", s.max as f64);
    }

    // ---- metric: SENS summary ---------------------------------------
    if spec.metrics.sens_summary {
        if let Built::Sens(net) = &built {
            let s = net.summary();
            push(&mut ch, "sens.tiles_total", s.tiles_total as f64);
            push(&mut ch, "sens.tiles_good", s.tiles_good as f64);
            push(&mut ch, "sens.good_fraction", net.lattice.open_fraction());
            push(&mut ch, "sens.elected", s.elected as f64);
            push(&mut ch, "sens.core_size", s.core_size as f64);
            push(&mut ch, "sens.edges", s.edges as f64);
            push(&mut ch, "sens.max_degree", s.max_degree as f64);
            push(&mut ch, "sens.missing_links", s.missing_links as f64);
        }
    }

    // ---- metric: stretch (P2) ---------------------------------------
    if let Some(st) = &spec.metrics.stretch {
        let seed = derive_seed(rep_seed, stream::STRETCH);
        let samples = match &built {
            Built::Sens(net) => {
                let pairs = sample_rep_pairs(net, st.pairs, seed);
                measure_sens_stretch(net, &points, &pairs)
            }
            Built::Plain(g) => {
                let pairs = sample_node_pairs(points.len(), st.pairs, seed);
                wsn_graph::stretch::measure_pairs(g, |u| points.get(u), &pairs)
            }
        };
        let finite: Vec<f64> = samples
            .iter()
            .filter(|s| s.graph_dist.is_finite())
            .map(|s| s.stretch())
            .collect();
        push(&mut ch, "stretch.pairs", samples.len() as f64);
        if !samples.is_empty() {
            push(
                &mut ch,
                "stretch.connected_fraction",
                finite.len() as f64 / samples.len() as f64,
            );
        }
        if !finite.is_empty() {
            push(
                &mut ch,
                "stretch.mean",
                finite.iter().sum::<f64>() / finite.len() as f64,
            );
            push(
                &mut ch,
                "stretch.max",
                finite.iter().cloned().fold(0.0, f64::max),
            );
            push(
                &mut ch,
                "stretch.tail_prob",
                finite.iter().filter(|&&s| s > st.alpha).count() as f64 / finite.len() as f64,
            );
        }
    }

    // ---- metric: coverage (P3) --------------------------------------
    if let Some(cov) = &spec.metrics.coverage {
        if let Built::Sens(net) = &built {
            let seed = derive_seed(rep_seed, stream::COVERAGE);
            let curve = empty_box_curve(net, &points, &cov.ells, cov.samples, seed);
            for c in &curve {
                push(
                    &mut ch,
                    &format!("coverage.p_empty[ell={}]", c.ell),
                    c.p_empty,
                );
            }
            for &n_target in &cov.logn_targets {
                if let Some(ell) = ell_for_target(net, &points, n_target, cov.samples, seed) {
                    push(&mut ch, &format!("coverage.ell_star[n={n_target}]"), ell);
                    push(
                        &mut ch,
                        &format!("coverage.ell_star_per_logn[n={n_target}]"),
                        ell / n_target.ln(),
                    );
                }
            }
        }
    }

    // ---- metric: power stretch --------------------------------------
    if let Some(pw) = &spec.metrics.power {
        let seed = derive_seed(rep_seed, stream::POWER);
        let base = build_udg(&points, 1.0);
        let pairs = match &built {
            Built::Sens(net) => sample_rep_pairs(net, pw.pairs, seed),
            Built::Plain(_) => sample_node_pairs(points.len(), pw.pairs, seed),
        };
        for &beta in &pw.betas {
            let c = wsn_core::power::compare_power(&base, built.graph(), &points, &pairs, beta);
            let tag = format!("[beta={beta}]");
            push(
                &mut ch,
                &format!("power.base_pairs{tag}"),
                c.base_pairs as f64,
            );
            push(
                &mut ch,
                &format!("power.sub_pairs{tag}"),
                c.sub_pairs as f64,
            );
            push(&mut ch, &format!("power.mean_stretch{tag}"), c.mean_stretch);
            push(&mut ch, &format!("power.max_stretch{tag}"), c.max_stretch);
            push(
                &mut ch,
                &format!("power.edges_per_node{tag}"),
                c.edges_per_node,
            );
        }
    }

    // ---- metric: routing (Fig. 9) -----------------------------------
    if let Some(rt) = &spec.metrics.routing {
        if let Built::Sens(net) = &built {
            run_routing(&mut ch, net, &points, rt.routes, rt.energy, rep_seed);
        }
    }

    // ---- metric: construction cost (P4 / Fig. 7) --------------------
    if spec.metrics.construction && matches!(spec.topology, TopologySpec::UdgSens) {
        let udg_params = UdgSensParams::strict_default();
        let build = distributed_build_udg(&points, udg_params, grid.clone().expect("grid"))
            .expect("strict default params are valid");
        push(&mut ch, "construction.rounds", build.rounds as f64);
        push(&mut ch, "construction.msgs_total", build.stats.sent as f64);
        push(
            &mut ch,
            "construction.msgs_per_node",
            build.stats.mean_per_node(),
        );
        push(
            &mut ch,
            "construction.max_msgs_per_node",
            build.stats.max_per_node() as f64,
        );
    }

    // ---- metric: claim-path audit (Claims 2.1 / 2.3) ----------------
    if spec.metrics.claim_paths {
        if let Built::Sens(net) = &built {
            run_claim_audit(&mut ch, net, &points, &spec.topology);
        }
    }

    ch
}

/// Censored lifetime in rounds: first-partition epoch, or the full
/// simulated horizon when the network never partitioned.
fn lifetime_rounds(report: &LifetimeReport) -> f64 {
    report
        .rounds_to_first_partition
        .map_or(report.epochs.len() as f64, |e| e as f64)
}

/// Run the churn-driven lifetime workload of a cell and emit its channel
/// family (`lifetime.*`). The deployment's highest-id `reserve_frac`
/// fraction forms the join reserve; everything else starts alive. When the
/// spec's renewal or route axis departs from the drain-only hop-count
/// defaults, a baseline arm is simulated on the *same* deployment and seed
/// and the comparison channels (`lifetime.baseline_*`, plus the renewal
/// diagnostics) are appended after the established family — existing
/// goldens see no new bytes.
fn run_lifetime(
    ch: &mut Channels,
    spec: &ScenarioSpec,
    churn: &ChurnSpec,
    points: &PointSet,
    grid: Option<TileGrid>,
    rep_seed: u64,
) {
    let (cfg, deployed, alive) = churn_setup(churn, points.len());
    let seed = derive_seed(rep_seed, stream::CHURN);

    let simulate = |cfg: &ChurnConfig| -> LifetimeReport {
        match spec.topology {
            TopologySpec::UdgSens => simulate_lifetime_sens(
                points,
                &alive,
                SensKind::Udg(UdgSensParams::strict_default()),
                grid.clone().expect("SENS grid"),
                cfg,
                seed,
            ),
            TopologySpec::NnSens { a, k } => simulate_lifetime_sens(
                points,
                &alive,
                SensKind::Nn(NnSensParams { a, k }),
                grid.clone().expect("SENS grid"),
                cfg,
                seed,
            ),
            _ => {
                let kind = plain_kind(spec.topology, rep_seed).expect("plain topology");
                simulate_lifetime_plain(points, &alive, kind, cfg, seed)
            }
        }
    };

    let report = simulate(&cfg);

    push(ch, "lifetime.initial_alive", deployed as f64);
    push(ch, "lifetime.epochs", report.epochs.len() as f64);
    push(ch, "lifetime.final_alive", report.final_alive as f64);
    push(ch, "lifetime.joins", report.joins_total as f64);
    push(
        ch,
        "lifetime.deaths_battery",
        report.deaths_battery_total as f64,
    );
    push(
        ch,
        "lifetime.deaths_random",
        report.deaths_random_total as f64,
    );
    push(ch, "lifetime.offered", report.offered_total as f64);
    if report.offered_total > 0 {
        push(
            ch,
            "lifetime.delivered_fraction",
            report.delivered_total as f64 / report.offered_total as f64,
        );
    }
    push(ch, "lifetime.energy_total", report.energy_total);
    if report.delivered_total > 0 {
        push(
            ch,
            "lifetime.energy_per_delivered",
            report.energy_total / report.delivered_total as f64,
        );
    }
    if let Some(last) = report.epochs.last() {
        push(ch, "lifetime.final_giant_fraction", last.giant_fraction);
        push(ch, "lifetime.final_coverage", last.coverage);
        push(ch, "lifetime.final_battery_residual", last.battery_residual);
    }
    if let Some(e) = report.rounds_to_first_partition {
        push(ch, "lifetime.rounds_to_first_partition", e as f64);
    }
    if let Some(e) = report.rounds_to_coverage_loss {
        push(ch, "lifetime.rounds_to_coverage_loss", e as f64);
    }
    // Exactly representable 32-bit slice of the final CSR fingerprint: the
    // strongest topology pin a golden can carry as a float channel.
    push(
        ch,
        "lifetime.graph_hash32",
        (report.final_graph_hash & 0xFFFF_FFFF) as f64,
    );

    // Renewal / load-balance comparison family — emitted only when the
    // spec departs from the drain-only hop-count defaults, so every
    // pre-existing lifetime golden keeps its exact byte stream.
    if churn.renewal == RenewalSpec::None && churn.route == RouteSpec::HopCount {
        return;
    }
    let mut base_cfg = cfg;
    base_cfg.renewal = RenewalPolicy::None;
    base_cfg.route = RoutePolicy::HopCount;
    let baseline = simulate(&base_cfg);
    push(ch, "lifetime.recharged_total", report.recharged_total);
    if let Some(last) = report.epochs.last() {
        push(ch, "lifetime.final_battery_variance", last.battery_variance);
    }
    push(ch, "lifetime.lifetime_rounds", lifetime_rounds(&report));
    push(
        ch,
        "lifetime.baseline_lifetime_rounds",
        lifetime_rounds(&baseline),
    );
    if let Some(last) = baseline.epochs.last() {
        push(
            ch,
            "lifetime.baseline_final_battery_variance",
            last.battery_variance,
        );
    }
}

/// A churn workload's engine configuration and its initial alive mask over
/// an `n`-node universe (also returning the deployed count): the
/// deployment's highest-id `reserve_frac` fraction forms the join reserve,
/// and everything else starts alive. The lifetime and serve workloads share
/// this one conversion, so both run the whole spec.
fn churn_setup(churn: &ChurnSpec, n: usize) -> (ChurnConfig, usize, Vec<bool>) {
    let reserve = (churn.reserve_frac * n as f64).round() as usize;
    let deployed = n.saturating_sub(reserve);
    let alive: Vec<bool> = (0..n).map(|i| i < deployed).collect();
    let mut cfg = ChurnConfig::new(
        churn.epochs,
        churn.battery,
        churn.traffic,
        churn.p_fail,
        churn.join_rate,
    );
    cfg.idle_cost = churn.idle_cost;
    if let Some(radius) = churn.blast_radius {
        cfg.churn_model = ChurnModel::Clustered { radius };
    }
    cfg.renewal = match churn.renewal {
        RenewalSpec::None => RenewalPolicy::None,
        RenewalSpec::MobileCharger {
            travel_budget,
            min_charge,
            max_charge,
        } => RenewalPolicy::MobileCharger {
            travel_budget,
            min_charge,
            max_charge,
        },
        RenewalSpec::Solar { rate, max_charge } => RenewalPolicy::Solar { rate, max_charge },
        RenewalSpec::SinkRotation => RenewalPolicy::SinkRotation,
    };
    cfg.route = match churn.route {
        RouteSpec::HopCount => RoutePolicy::HopCount,
        RouteSpec::MinEnergy => RoutePolicy::MinEnergy,
        RouteSpec::MaxMinResidual => RoutePolicy::MaxMinResidual,
    };
    (cfg, deployed, alive)
}

/// The incremental-engine topology of a plain (non-SENS) cell, if any.
/// HNG rolls its level hierarchy from a replication-derived seed, so the
/// mapping needs `rep_seed` too.
fn plain_kind(topology: TopologySpec, rep_seed: u64) -> Option<wsn_rgg::IncTopology> {
    topology.plain(derive_seed(rep_seed, stream::HNG))
}

/// Build a cell's topology over `points`. Plain kinds go through the one
/// cold-build dispatch ([`wsn_rgg::IncTopology::build`]); the SENS
/// constructions need their tile `grid`. The sharded path is
/// edge-identical to the serial one, so `exec` can never change a metric
/// value — only how fast (and in how many parallel shards) the graph
/// appears. Sharded SENS builds elect over a Morton-sorted copy and remap
/// back to deployment ids, byte-identically (the permutation-invariance
/// suite is the pin).
pub fn build_topology(
    topology: TopologySpec,
    points: &PointSet,
    grid: Option<TileGrid>,
    exec: Exec,
    rep_seed: u64,
) -> Built {
    if let Some(kind) = plain_kind(topology, rep_seed) {
        return Built::Plain(kind.build(points, exec));
    }
    let grid = grid.expect("SENS grid");
    let net = match (topology, exec) {
        (TopologySpec::UdgSens, Exec::Serial) => {
            build_udg_sens(points, UdgSensParams::strict_default(), grid)
        }
        (TopologySpec::UdgSens, Exec::Sharded { .. }) => build_udg_sens_ordered(
            points,
            &PointOrder::morton(points),
            UdgSensParams::strict_default(),
            grid,
        ),
        (TopologySpec::NnSens { a, k }, Exec::Serial) => {
            build_nn_sens(points, &build_knn(points, k), NnSensParams { a, k }, grid)
        }
        (TopologySpec::NnSens { a, k }, Exec::Sharded { tiles }) => {
            let order = PointOrder::morton(points);
            let base = build_knn_on_order(&order, k, tiles);
            build_nn_sens_ordered(points, &order, &base, NnSensParams { a, k }, grid)
        }
        _ => unreachable!("plain kinds return above"),
    };
    Built::Sens(net.expect("SENS params are valid"))
}

/// Route sources of the serve workload are drawn from the first
/// `HOT_ROUTES` alive ids (as in the serve bench), so `(src, dst)` pairs
/// repeat and the route cache serves hits the golden digests cover.
const HOT_ROUTES: usize = 4;

/// Run the always-on serve workload of a cell and emit its channel family
/// (`serve.*`). Only *schedule-deterministic* values become channels —
/// wall-clock quantities (qps, latency percentiles) belong to the bench,
/// never to goldens. Reader-thread count comes from `RAYON_NUM_THREADS`
/// (the same knob the golden workflow sweeps): serve answers are
/// byte-identical at any thread count, so the sweep pins exactly that
/// invariance through the golden channels.
fn run_serve_workload(
    ch: &mut Channels,
    spec: &ScenarioSpec,
    serve: &crate::spec::ServeSpec,
    points: &PointSet,
    rep_seed: u64,
) {
    let kind = plain_kind(spec.topology, rep_seed)
        .expect("serve workload requires a plain topology (SENS repairs are global rebuilds)");
    let (churn_cfg, deployed, alive) = churn_setup(&serve.churn, points.len());
    let readers = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(2);
    let mut cfg =
        wsn_simnet::ServeConfig::new(churn_cfg, readers, serve.clients, serve.queries_per_client);
    cfg.route_radius = serve.route_radius;
    cfg.coverage_radius = serve.coverage_radius;
    cfg.cache_capacity = serve.cache_capacity;
    cfg.hot_routes = HOT_ROUTES;
    cfg.seed = derive_seed(rep_seed, stream::CHURN);

    let report = wsn_simnet::run_serve(points, &alive, kind, &cfg);

    push(ch, "serve.initial_alive", deployed as f64);
    push(ch, "serve.epochs", report.epochs as f64);
    push(ch, "serve.clients", report.clients as f64);
    push(ch, "serve.queries", report.queries as f64);
    push(ch, "serve.errors", report.errors as f64);
    push(ch, "serve.cache_lookups", report.cache_lookups as f64);
    push(ch, "serve.cache_hits", report.cache_hits as f64);
    if report.cache_lookups > 0 {
        push(
            ch,
            "serve.cache_hit_fraction",
            report.cache_hits as f64 / report.cache_lookups as f64,
        );
    }
    push(ch, "serve.deaths", report.deaths_total as f64);
    push(ch, "serve.joins", report.joins_total as f64);
    push(ch, "serve.final_alive", report.final_alive as f64);
    push(
        ch,
        "serve.snapshots_published",
        report.snapshots_published as f64,
    );
    push(
        ch,
        "serve.snapshots_retired",
        report.snapshots_retired as f64,
    );
    push(
        ch,
        "serve.max_live_snapshots",
        report.max_live_snapshots as f64,
    );
    // Exactly representable 32-bit slices: the strongest pins a golden can
    // carry as float channels — the final topology fingerprint (shared
    // with the batch engine's `lifetime.graph_hash32`) and the folded
    // query-answer digest (pins every route/k-NN/coverage/membership
    // answer and the cache promotion rule at every thread count).
    push(
        ch,
        "serve.graph_hash32",
        (report.epoch_fingerprints.last().copied().unwrap_or(0) & 0xFFFF_FFFF) as f64,
    );
    push(
        ch,
        "serve.answer_digest32",
        (report.answer_digest & 0xFFFF_FFFF) as f64,
    );
}

/// Uniform ordered pairs of distinct node ids (the plain-topology analogue
/// of [`sample_rep_pairs`]; same shared sampler, pool = every node).
fn sample_node_pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let ids: Vec<u32> = (0..n as u32).collect();
    sample_id_pairs(&ids, count, seed)
}

fn run_routing(
    ch: &mut Channels,
    net: &SensNetwork,
    points: &PointSet,
    routes: usize,
    energy: bool,
    rep_seed: u64,
) {
    let cores: Vec<wsn_perc::Site> = net
        .lattice
        .sites()
        .filter(|&s| {
            net.lattice.is_open(s) && net.rep_of(s).map(|r| net.is_member(r)).unwrap_or(false)
        })
        .collect();
    if cores.len() < 2 {
        return;
    }
    let model = EnergyModel::free_space();
    let mut rng = rng_from_seed(derive_seed(rep_seed, stream::ROUTING));
    let mut n = 0u64;
    let mut delivered = 0u64;
    let (mut sum_overhead, mut sum_repairs, mut sum_energy) = (0.0, 0.0, 0.0);
    let mut energy_paths = 0u64;
    for _ in 0..routes {
        let a = cores[rng.random_range(0..cores.len())];
        let b = cores[rng.random_range(0..cores.len())];
        if wsn_perc::Lattice::dist_l1(a, b) < 2 {
            continue;
        }
        let (r, path) = route_packet_with_path(net, a, b);
        n += 1;
        delivered += r.delivered as u64;
        sum_overhead += r.overhead_ratio();
        sum_repairs += r.repairs as f64;
        if energy {
            if let Some(path) = path {
                sum_energy += path_energy(points, &path, &model);
                energy_paths += 1;
            }
        }
    }
    if n == 0 {
        return;
    }
    push(ch, "routing.routes", n as f64);
    push(
        ch,
        "routing.delivered_fraction",
        delivered as f64 / n as f64,
    );
    push(ch, "routing.mean_msgs_per_step", sum_overhead / n as f64);
    push(ch, "routing.mean_repairs", sum_repairs / n as f64);
    if energy_paths > 0 {
        push(
            ch,
            "routing.mean_energy_per_packet",
            sum_energy / energy_paths as f64,
        );
    }
}

/// Claim 2.1 (UDG-SENS: 3-edge relay paths, edge length ≤ radius) or
/// Claim 2.3 (NN-SENS: 5-edge relay paths, all links in `NN(2, k)`) on
/// every adjacent pair of good tiles.
fn run_claim_audit(
    ch: &mut Channels,
    net: &SensNetwork,
    points: &PointSet,
    topology: &TopologySpec,
) {
    // Max path *nodes*: rep–relay–relay–rep (UDG) or rep–x–y–y'–x'–rep (NN).
    let max_nodes = if matches!(topology, TopologySpec::UdgSens) {
        4
    } else {
        6
    };
    let mut checked = 0usize;
    let mut ok_paths = 0usize;
    let mut max_edge: f64 = 0.0;
    let mut stretch_samples = 0usize;
    let mut sum_c = 0.0;
    let mut max_c: f64 = 0.0;
    for s in net.lattice.sites() {
        if !net.lattice.is_open(s) {
            continue;
        }
        for nb in [(s.0 + 1, s.1), (s.0, s.1 + 1)] {
            if !net.lattice.in_bounds(nb) || !net.lattice.is_open(nb) {
                continue;
            }
            checked += 1;
            let Some(path) = net.adjacent_rep_path(s, nb) else {
                continue;
            };
            if path.len() <= max_nodes {
                ok_paths += 1;
            }
            let mut plen = 0.0;
            for w in path.windows(2) {
                let d = points.get(w[0]).dist(points.get(w[1]));
                max_edge = max_edge.max(d);
                plen += d;
            }
            let euclid = points.get(path[0]).dist(points.get(*path.last().unwrap()));
            if euclid > 0.0 {
                let c = plen / euclid;
                stretch_samples += 1;
                sum_c += c;
                max_c = max_c.max(c);
            }
        }
    }
    push(ch, "claim.pairs_checked", checked as f64);
    push(ch, "claim.missing_links", net.missing_links as f64);
    if checked > 0 {
        push(ch, "claim.ok_fraction", ok_paths as f64 / checked as f64);
        push(ch, "claim.max_edge_len", max_edge);
        push(ch, "claim.max_stretch", max_c);
    }
    // Mean over the pairs that actually yielded a path with positive
    // endpoint separation — `checked` would deflate the mean whenever a
    // pair has no relay path (possible when missing_links > 0).
    if stretch_samples > 0 {
        push(ch, "claim.mean_stretch", sum_c / stretch_samples as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Exec, FaultSpec, MetricSuite, StretchSpec};

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            side: 8.0,
            deployment: DeploymentSpec::Poisson { lambda: 25.0 },
            topology: TopologySpec::UdgSens,
            fault: None,
            metrics: MetricSuite {
                degree: true,
                sens_summary: true,
                ..MetricSuite::default()
            },
            exec: Exec::Serial,
            churn: None,
            serve: None,
            replications: 1,
        }
    }

    #[test]
    fn replication_is_a_pure_function_of_its_seed() {
        let spec = base_spec();
        let a = run_replication(&spec, 42);
        let b = run_replication(&spec, 42);
        assert_eq!(a, b);
        let c = run_replication(&spec, 43);
        assert_ne!(a, c, "different seeds should give different samples");
    }

    #[test]
    fn degree_channels_respect_p1() {
        let spec = base_spec();
        let ch = run_replication(&spec, 7);
        let get = |name: &str| ch.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert!(get("degree.max") <= 4.0);
        assert_eq!(get("sens.missing_links"), 0.0);
        assert!(get("nodes.deployed") > 0.0);
    }

    #[test]
    fn faults_reduce_survivors() {
        let mut spec = base_spec();
        spec.fault = Some(FaultSpec { p_fail: 0.5 });
        let ch = run_replication(&spec, 11);
        let get = |name: &str| ch.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
        assert!(get("nodes.surviving") < get("nodes.deployed"));
        // P1 must survive the faults.
        assert!(get("degree.max") <= 4.0);
    }

    #[test]
    fn plain_topology_stretch_uses_node_pairs() {
        let mut spec = base_spec();
        spec.topology = TopologySpec::Gabriel { radius: 1.0 };
        spec.metrics = MetricSuite {
            degree: true,
            stretch: Some(StretchSpec {
                pairs: 16,
                alpha: 2.5,
            }),
            ..MetricSuite::default()
        };
        let ch = run_replication(&spec, 3);
        assert!(ch.iter().any(|(n, _)| n == "stretch.mean"));
        // Gabriel keeps the UDG connected within components: stretch ≥ 1.
        let mean = ch
            .iter()
            .find(|(n, _)| n == "stretch.mean")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(mean >= 1.0);
    }

    #[test]
    fn parallel_exec_changes_no_channel_byte() {
        for topology in [
            TopologySpec::UdgSens,
            TopologySpec::Udg { radius: 1.0 },
            TopologySpec::Knn { k: 5 },
            TopologySpec::Gabriel { radius: 1.0 },
            TopologySpec::Rng { radius: 1.0 },
            TopologySpec::Yao {
                radius: 1.0,
                cones: 6,
            },
            TopologySpec::Hng { p: 0.5, links: 1 },
        ] {
            let mut spec = base_spec();
            spec.topology = topology;
            spec.metrics = MetricSuite {
                degree: true,
                sens_summary: true,
                stretch: Some(StretchSpec {
                    pairs: 12,
                    alpha: 2.5,
                }),
                ..MetricSuite::default()
            };
            let mono = run_replication(&spec, 31);
            for shard_tiles in [1usize, 4, usize::MAX] {
                spec.exec = Exec::Sharded { tiles: shard_tiles };
                assert_eq!(
                    run_replication(&spec, 31),
                    mono,
                    "{:?} shard_tiles={shard_tiles}",
                    spec.topology
                );
            }
        }
    }

    #[test]
    fn matern_parent_intensity_inverts_retention() {
        let hard_core = 0.1;
        let pi_r2 = std::f64::consts::PI * hard_core * hard_core;
        let parent = matern_parent_intensity(20.0, hard_core);
        let retained = (1.0 - (-parent * pi_r2).exp()) / pi_r2;
        assert!((retained - 20.0).abs() < 1e-9, "retained {retained}");
    }
}
