//! Differential suite: the tile-sharded construction pipeline must be
//! **edge-identical** to the monolithic builders — for every topology kind,
//! both deployment models, every shard size, and every thread count.
//!
//! This is the contract that makes `Exec::Sharded` safe to flip anywhere:
//! the pipeline may only change wall-clock and memory shape, never a
//! single edge or metric byte. The plain-topology matrix pins it at the
//! one cold-build dispatch (`IncTopology::build` / `build_alive`) as well
//! as at the sharded builders beneath it; the golden-report half of the
//! suite checks it at the scenario level: a parallel run of a spec
//! serialises to the same bytes as the monolithic run.
//!
//! Thread counts are exercised the same way `scenarios_golden.rs` does it:
//! the whole binary serialises on one lock because `RAYON_NUM_THREADS` is
//! process-global state.

use std::sync::Mutex;

use wsn::core::nn::{build_nn_sens, build_nn_sens_ordered};
use wsn::core::params::{NnSensParams, UdgSensParams};
use wsn::core::tilegrid::TileGrid;
use wsn::core::udg::{build_udg_sens, build_udg_sens_ordered};
use wsn::geom::{Aabb, Point};
use wsn::graph::{relabel, Csr};
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointOrder, PointSet};
use wsn::rgg::{
    build_gabriel, build_gabriel_sharded, build_hng, build_hng_on_levels, build_hng_sharded,
    build_knn, build_knn_sharded, build_rng, build_rng_sharded, build_udg, build_udg_sharded,
    build_yao, build_yao_sharded, compact_alive, hng_levels, Exec, HngParams, IncTopology,
    WHOLE_WINDOW,
};
use wsn::scenario::runner::run_specs;
use wsn::scenario::spec::{DeploymentSpec, MetricSuite, ScenarioSpec, TopologySpec};

/// `RAYON_NUM_THREADS` is process-global; serialise every test body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The shard sizes the differential contract pins: single-tile shards,
/// small blocks, the default-ish block, and the degenerate whole window.
const SHARD_SIZES: [usize; 4] = [1, 4, 16, WHOLE_WINDOW];

const THREAD_COUNTS: [&str; 2] = ["1", "5"];

fn with_threads<F: FnMut(&str)>(mut f: F) {
    for threads in THREAD_COUNTS {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        f(threads);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// The six plain kinds, in the order of the monolithic references below.
const KINDS: [IncTopology; 6] = [
    IncTopology::Udg { radius: 1.0 },
    IncTopology::Knn { k: 5 },
    IncTopology::Gabriel { radius: 1.0 },
    IncTopology::Rng { radius: 1.0 },
    IncTopology::Yao {
        radius: 1.0,
        cones: 6,
    },
    IncTopology::Hng {
        p: 0.5,
        links: 1,
        seed: 0xD1FF,
    },
];

/// The cold rebuild `build_alive` must reproduce: the serial build over
/// the compacted survivors, relabelled to universe ids. HNG restricts the
/// universe-rolled levels instead of re-rolling them over survivor ids.
fn compacted_reference(kind: IncTopology, pts: &PointSet, alive: &[bool]) -> Csr {
    let (sub, to_universe) = compact_alive(pts, alive);
    let g = match kind {
        IncTopology::Hng { p, links, seed } => {
            let levels = hng_levels(pts.len(), p, seed);
            let levels_sub: Vec<u32> = to_universe.iter().map(|&u| levels[u as usize]).collect();
            build_hng_on_levels(&sub, &levels_sub, links)
        }
        _ => kind.build(&sub, Exec::Serial),
    };
    relabel(&g, &to_universe, pts.len())
}

/// Sorted canonical edge list — the byte-comparable fingerprint.
fn edges_of(g: &Csr) -> Vec<(u32, u32)> {
    let mut e: Vec<(u32, u32)> = g.edges().collect();
    e.sort_unstable();
    e
}

fn deployments(seed: u64, window: &Aabb) -> Vec<(&'static str, PointSet)> {
    use wsn::pointproc::matern::sample_matern_ii;
    vec![
        (
            "poisson",
            sample_poisson_window(&mut rng_from_seed(seed), 30.0, window),
        ),
        (
            "matern",
            sample_matern_ii(&mut rng_from_seed(seed ^ 0xA5), 40.0, 0.08, window),
        ),
    ]
}

#[test]
fn plain_topologies_are_edge_identical_across_shard_sizes_and_threads() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let window = Aabb::square(12.0);
    for (dep_name, pts) in deployments(0xD1FF, &window) {
        // Monolithic references, once per deployment.
        let monos: Vec<(&str, Csr)> = vec![
            ("udg", build_udg(&pts, 1.0)),
            ("knn", build_knn(&pts, 5)),
            ("gabriel", build_gabriel(&pts, 1.0)),
            ("rng", build_rng(&pts, 1.0)),
            ("yao", build_yao(&pts, 1.0, 6)),
            ("hng", build_hng(&pts, HngParams::new(0.5, 1), 0xD1FF)),
        ];
        // The dispatch's serial path is the monolithic builders, and
        // `build_alive` under a 1-in-5-dead mask is the compacted build.
        let alive: Vec<bool> = (0..pts.len()).map(|i| i % 5 != 0).collect();
        let alive_refs: Vec<Csr> = KINDS
            .iter()
            .map(|&kind| compacted_reference(kind, &pts, &alive))
            .collect();
        for ((kind, (name, mono)), alive_ref) in KINDS.iter().zip(&monos).zip(&alive_refs) {
            assert_eq!(kind.build(&pts, Exec::Serial), *mono, "{name} ({dep_name})");
            assert_eq!(
                kind.build_alive(&pts, &alive, Exec::Serial),
                *alive_ref,
                "{name} build_alive ({dep_name})"
            );
        }
        with_threads(|threads| {
            for shard_tiles in SHARD_SIZES {
                let exec = Exec::Sharded { tiles: shard_tiles };
                for ((kind, (name, mono)), alive_ref) in KINDS.iter().zip(&monos).zip(&alive_refs) {
                    let ctx =
                        format!("{dep_name}, shard_tiles = {shard_tiles}, threads = {threads}");
                    assert_eq!(kind.build(&pts, exec), *mono, "{name} dispatch ({ctx})");
                    assert_eq!(
                        kind.build_alive(&pts, &alive, exec),
                        *alive_ref,
                        "{name} build_alive ({ctx})"
                    );
                }
                let shardeds: Vec<(&str, Csr)> = vec![
                    ("udg", build_udg_sharded(&pts, 1.0, shard_tiles)),
                    ("knn", build_knn_sharded(&pts, 5, shard_tiles)),
                    ("gabriel", build_gabriel_sharded(&pts, 1.0, shard_tiles)),
                    ("rng", build_rng_sharded(&pts, 1.0, shard_tiles)),
                    ("yao", build_yao_sharded(&pts, 1.0, 6, shard_tiles)),
                    (
                        "hng",
                        build_hng_sharded(&pts, HngParams::new(0.5, 1), 0xD1FF, shard_tiles),
                    ),
                ];
                for ((name, mono), (_, sharded)) in monos.iter().zip(&shardeds) {
                    assert_eq!(
                        edges_of(mono),
                        edges_of(sharded),
                        "{name} diverged ({dep_name}, shard_tiles = {shard_tiles}, \
                         threads = {threads})"
                    );
                    // CSR equality is stronger than edge equality (offsets +
                    // sorted adjacency) — pin it too.
                    assert_eq!(mono, sharded, "{name} CSR diverged");
                }
            }
        });
    }
}

#[test]
fn sens_topologies_are_identical_across_threads() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // UDG-SENS over both deployments.
    let udg_params = UdgSensParams::strict_default();
    let grid = TileGrid::fit(14.0, udg_params.tile_side);
    for (dep_name, pts) in deployments(0x5E45, &grid.covered_area()) {
        let mono = build_udg_sens(&pts, udg_params, grid.clone()).unwrap();
        with_threads(|threads| {
            let identity = PointOrder::identity(&pts);
            let par = build_udg_sens_ordered(&pts, &identity, udg_params, grid.clone()).unwrap();
            assert_eq!(par.lattice, mono.lattice, "{dep_name} threads={threads}");
            assert_eq!(par.reps, mono.reps);
            assert_eq!(par.roles, mono.roles);
            assert_eq!(
                edges_of(&par.graph),
                edges_of(&mono.graph),
                "udg-sens edges diverged ({dep_name}, threads = {threads})"
            );
        });
    }

    // NN-SENS (its own scale: unit density, paper-style tile).
    let nn_params = NnSensParams { a: 1.2, k: 400 };
    let nn_grid = TileGrid::new(nn_params.tile_side(), 3, 2);
    let pts = sample_poisson_window(&mut rng_from_seed(0x4E4E), 1.0, &nn_grid.covered_area());
    let base_mono = build_knn(&pts, nn_params.k);
    let mono = build_nn_sens(&pts, &base_mono, nn_params, nn_grid.clone()).unwrap();
    let identity = PointOrder::identity(&pts);
    with_threads(|threads| {
        for shard_tiles in SHARD_SIZES {
            let base = build_knn_sharded(&pts, nn_params.k, shard_tiles);
            assert_eq!(base, base_mono, "NN base (shard_tiles = {shard_tiles})");
            let par =
                build_nn_sens_ordered(&pts, &identity, &base, nn_params, nn_grid.clone()).unwrap();
            assert_eq!(par.lattice, mono.lattice);
            assert_eq!(par.reps, mono.reps);
            assert_eq!(
                edges_of(&par.graph),
                edges_of(&mono.graph),
                "nn-sens edges diverged (shard_tiles = {shard_tiles}, threads = {threads})"
            );
        }
    });
}

/// The scenario-level contract: flipping `Exec` to the pipeline leaves
/// every aggregated metric report byte-identical (the golden files pin the
/// monolithic bytes, so this transitively pins the pipeline too).
#[test]
fn parallel_scenario_reports_match_monolithic_bytes() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mk_spec = |topology, exec| ScenarioSpec {
        side: 10.0,
        deployment: DeploymentSpec::Poisson { lambda: 28.0 },
        topology,
        fault: None,
        metrics: MetricSuite {
            degree: true,
            sens_summary: true,
            ..MetricSuite::default()
        },
        exec,
        churn: None,
        serve: None,
        replications: 2,
    };
    let topologies = [
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
    ];
    let mono_specs: Vec<ScenarioSpec> = topologies
        .iter()
        .map(|&t| mk_spec(t, Exec::Serial))
        .collect();
    let mono = format!("{:?}", run_specs(&mono_specs, 0xBEEF));
    with_threads(|threads| {
        for shard_tiles in SHARD_SIZES {
            let par_specs: Vec<ScenarioSpec> = topologies
                .iter()
                .map(|&t| mk_spec(t, Exec::Sharded { tiles: shard_tiles }))
                .collect();
            let par = format!("{:?}", run_specs(&par_specs, 0xBEEF));
            assert_eq!(
                par, mono,
                "report bytes diverged (shard_tiles = {shard_tiles}, threads = {threads})"
            );
        }
    });
}

/// The cases the Morton path on a compacted survivor set newly reaches:
/// universes of 0, 1 and 2 points, and an all-dead mask, where every kind
/// builds `Csr::empty(n)`.
#[test]
fn dispatch_handles_tiny_and_all_dead_universes() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let all = [Point::new(0.5, 0.5), Point::new(0.9, 0.6)];
    for n in 0..=2 {
        let mut pts = PointSet::new();
        for &q in &all[..n] {
            pts.push(q);
        }
        for kind in KINDS {
            let serial = kind.build(&pts, Exec::Serial);
            assert_eq!(serial.n(), n, "{kind:?} n={n}");
            for tiles in SHARD_SIZES {
                let exec = Exec::Sharded { tiles };
                assert_eq!(
                    kind.build(&pts, exec),
                    serial,
                    "{kind:?} n={n} tiles={tiles}"
                );
                assert_eq!(
                    kind.build_alive(&pts, &vec![true; n], exec),
                    serial,
                    "{kind:?} n={n} tiles={tiles} all alive"
                );
                assert_eq!(
                    kind.build_alive(&pts, &vec![false; n], exec),
                    Csr::empty(n),
                    "{kind:?} n={n} tiles={tiles} all dead"
                );
            }
            assert_eq!(
                kind.build_alive(&pts, &vec![false; n], Exec::Serial),
                Csr::empty(n)
            );
        }
    }
}

/// CI smoke (release, `--ignored`): a 10⁵-node sharded construction
/// completes and matches the monolithic edge set.
#[test]
#[ignore = "release-profile CI smoke; ~seconds in release, slow in dev"]
fn smoke_hundred_thousand_node_sharded_construction() {
    let lambda = 10.0;
    let side = (100_000.0f64 / lambda).sqrt();
    let pts = sample_poisson_window(&mut rng_from_seed(0x100_000), lambda, &Aabb::square(side));
    let sharded = build_udg_sharded(&pts, 1.0, 16);
    let mono = build_udg(&pts, 1.0);
    assert!(pts.len() > 90_000);
    assert_eq!(sharded, mono);
}
