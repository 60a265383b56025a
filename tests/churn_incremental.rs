//! Differential + property suite for churn-driven incremental repair.
//!
//! The contract behind `wsn_rgg::IncrementalGraph` is absolute: after *any*
//! churn epoch (deaths, joins, or both), the incrementally maintained CSR
//! must be **byte-identical** to a cold rebuild on the surviving point set
//! — monolithic or sharded at any shard size, which are themselves pinned
//! equal by `sharded_vs_monolithic.rs`. This suite sweeps that claim across
//! topology kinds × deployment models × failure probabilities, and pins the
//! lifetime engine's battery invariant (energy only ever leaves a node;
//! residual battery can only grow by admitting fresh reserve nodes).
//!
//! There is no bless step here by design: a divergence is a bug in the
//! dirty-shard tracking (usually a halo that stopped covering a predicate's
//! witness region), never an intentional change.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use wsn::geom::hash::derive_seed2;
use wsn::geom::Aabb;
use wsn::pointproc::matern::sample_matern_ii;
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::sharded::WHOLE_WINDOW;
use wsn::rgg::{Exec, IncTopology, IncrementalGraph};
use wsn::simnet::churn::{
    simulate_lifetime_plain, ChurnConfig, ChurnModel, LifetimeReport, RenewalPolicy, RoutePolicy,
};

/// Serialises every test in this binary: the thread-matrix test mutates
/// `RAYON_NUM_THREADS` while the others trigger reads of it inside the
/// rayon shim, and concurrent `setenv`/`getenv` is undefined behaviour.
/// Taking the guard in each test body (and inside each proptest case)
/// keeps the whole binary race-free — same pattern as the golden suite.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const KINDS: [IncTopology; 6] = [
    IncTopology::Udg { radius: 1.0 },
    IncTopology::Knn { k: 4 },
    IncTopology::Gabriel { radius: 1.0 },
    IncTopology::Rng { radius: 1.0 },
    IncTopology::Yao {
        radius: 1.0,
        cones: 6,
    },
    IncTopology::Hng {
        p: 0.5,
        links: 1,
        seed: 0x484E47,
    },
];

fn deployments(seed: u64) -> Vec<(&'static str, PointSet)> {
    let window = Aabb::square(7.0);
    let poisson = sample_poisson_window(&mut rng_from_seed(seed), 18.0, &window);
    let matern = sample_matern_ii(&mut rng_from_seed(seed ^ 0xA5), 30.0, 0.12, &window);
    vec![("poisson", poisson), ("matern2", matern)]
}

/// Hash-scheduled churn for epoch `e`: kill alive nodes at `p_fail`, admit
/// dead ones at a fixed rate — every draw a pure function of
/// `(seed, epoch, node)`.
fn churn_sets(g: &IncrementalGraph, seed: u64, e: u64, p_fail: f64) -> (Vec<u32>, Vec<u32>) {
    let mut deaths = Vec::new();
    let mut joins = Vec::new();
    for u in 0..g.points().len() as u32 {
        let h = derive_seed2(seed, e, u as u64);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        if g.alive()[u as usize] {
            if unit < p_fail {
                deaths.push(u);
            }
        } else if unit < 0.3 {
            joins.push(u);
        }
    }
    (deaths, joins)
}

/// The headline matrix: every kind × deployment × p_fail, three churn
/// epochs each, byte-compared against monolithic *and* sharded cold
/// rebuilds after every epoch.
#[test]
fn incremental_equals_cold_rebuild_across_the_matrix() {
    let _guard = env_guard();
    for (dname, points) in deployments(0xC0FFEE) {
        for kind in KINDS {
            for (pi, p_fail) in [0.0, 0.1, 0.5].into_iter().enumerate() {
                // A fifth of the universe starts dead as the join reserve.
                let alive: Vec<bool> = (0..points.len()).map(|i| i % 5 != 4).collect();
                let mut g = IncrementalGraph::build(points.clone(), alive, kind, 2);
                for e in 0..3u64 {
                    let (deaths, joins) = churn_sets(&g, 0xD00D + pi as u64, e, p_fail);
                    g.apply_churn(&deaths, &joins);
                    let ctx = format!(
                        "{dname}/{kind:?}/p_fail={p_fail}/epoch {e} \
                         ({} deaths, {} joins)",
                        deaths.len(),
                        joins.len()
                    );
                    assert!(g.verify_cold(), "{ctx}: diverged from monolithic rebuild");
                    for tiles in [4, WHOLE_WINDOW] {
                        assert_eq!(
                            *g.graph(),
                            g.kind()
                                .build_alive(&g.points(), g.alive(), Exec::Sharded { tiles }),
                            "{ctx}: diverged from sharded rebuild (tiles={tiles})"
                        );
                    }
                }
            }
        }
    }
}

/// The lifetime engine's battery invariant, across topology kinds and both
/// churn placement models: residual battery never grows except by the
/// exact mass of admitted reserve batteries, and depletion deaths happen
/// when batteries are tight.
#[test]
fn battery_energy_is_monotone_under_the_engine() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(9), 20.0, &Aabb::square(8.0));
    let n = points.len();
    let alive: Vec<bool> = (0..n).map(|i| i < n * 4 / 5).collect();
    for kind in [
        IncTopology::Udg { radius: 1.0 },
        IncTopology::Rng { radius: 1.0 },
        IncTopology::Knn { k: 4 },
    ] {
        for clustered in [false, true] {
            let mut cfg = ChurnConfig::new(6, 520.0, 25, 0.08, 1.0);
            cfg.idle_cost = 100.0;
            if clustered {
                cfg.churn_model = ChurnModel::Clustered { radius: 1.5 };
            }
            let r = simulate_lifetime_plain(&points, &alive, kind, &cfg, 0xBA77);
            assert!(
                r.deaths_battery_total > 0,
                "{kind:?}: tight batteries must deplete"
            );
            let mut prev = f64::INFINITY;
            for e in &r.epochs {
                assert!(
                    e.battery_residual <= prev + e.battery_added + 1e-6,
                    "{kind:?} clustered={clustered}: battery grew at epoch {} \
                     ({} > {} + {})",
                    e.epoch,
                    e.battery_residual,
                    prev,
                    e.battery_added
                );
                prev = e.battery_residual;
            }
        }
    }
}

/// Churn all the way down to extinction keeps every representation
/// consistent (empty graphs, empty shards, empty survivors).
#[test]
fn extinction_edge_case_stays_identical() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(3), 12.0, &Aabb::square(5.0));
    let n = points.len() as u32;
    for kind in [IncTopology::Udg { radius: 1.0 }, IncTopology::Knn { k: 3 }] {
        let mut g = IncrementalGraph::build(points.clone(), vec![true; n as usize], kind, 2);
        // Kill in two waves: evens, then the rest.
        let evens: Vec<u32> = (0..n).filter(|u| u % 2 == 0).collect();
        let odds: Vec<u32> = (0..n).filter(|u| u % 2 == 1).collect();
        g.apply_churn(&evens, &[]);
        assert!(g.verify_cold(), "{kind:?} after first wave");
        g.apply_churn(&odds, &[]);
        assert_eq!(g.n_alive(), 0);
        assert_eq!(g.graph().m(), 0);
        assert!(g.verify_cold(), "{kind:?} extinct");
        // Resurrection through the join path.
        g.apply_churn(&[], &evens);
        assert!(g.verify_cold(), "{kind:?} resurrected");
    }
}

/// Everything schedule-sensitive an epoch emits, in one comparable line
/// (wall-clock fields excluded — they are the only legitimately
/// thread-dependent outputs).
fn epoch_digest(r: &LifetimeReport) -> String {
    let epochs: Vec<String> = r
        .epochs
        .iter()
        .map(|e| {
            format!(
                "{}:{}/{}/{}/{}/{}/{}",
                e.epoch,
                e.graph_hash,
                e.alive,
                e.delivered,
                e.energy_spent,
                e.shards_dirty,
                e.repair_gathered,
            )
        })
        .collect();
    format!("{epochs:?} {}", r.final_graph_hash)
}

/// Thread-count invariance of the localized repair path under a clustered
/// sector-blackout schedule: the whole epoch trajectory — CSR fingerprints,
/// dirty-shard counts, gather sizes — must be byte-identical at
/// `RAYON_NUM_THREADS` ∈ {1, 4, 8}. This is the same contract the golden
/// suite pins for the preset catalogue (goldens stay byte-identical),
/// applied directly to the event-local repair's hot path.
#[test]
fn clustered_blackout_is_thread_count_invariant() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(21), 18.0, &Aabb::square(10.0));
    let n = points.len();
    // A fifth of the universe is the join reserve.
    let alive: Vec<bool> = (0..n).map(|i| i < n * 4 / 5).collect();
    let mut cfg = ChurnConfig::new(5, 1e8, 20, 0.12, 1.0);
    cfg.churn_model = ChurnModel::Clustered { radius: 1.5 };
    for kind in [
        IncTopology::Udg { radius: 1.0 },
        IncTopology::Rng { radius: 1.0 },
        IncTopology::Knn { k: 4 },
    ] {
        let mut digests: Vec<(String, String)> = Vec::new();
        for threads in ["1", "4", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let r = simulate_lifetime_plain(&points, &alive, kind, &cfg, 0xB1A);
            digests.push((threads.to_string(), epoch_digest(&r)));
        }
        std::env::remove_var("RAYON_NUM_THREADS");
        let (ref t0, ref d0) = digests[0];
        for (t, d) in &digests[1..] {
            assert_eq!(
                d, d0,
                "{kind:?}: trajectory at {t} threads diverged from {t0} threads"
            );
        }
        // The schedule must actually churn for the pin to mean anything.
        assert!(d0.contains(':'), "no epochs simulated");
    }
}

/// Thread-count invariance of the energy-renewal and routing axes: every
/// renewal policy × route policy combination must produce a byte-identical
/// epoch trajectory — including the recharge mass and residual battery
/// sums, which fold every per-node battery mutation the policies make —
/// at `RAYON_NUM_THREADS` ∈ {1, 4, 8}. The golden suite pins the two
/// renewal presets the same way, but only for the policies they use;
/// this covers the full cross product. The 64-packet rows put more packets
/// in an epoch than there are workers, so the hop-count and min-energy
/// fan-out really splits an epoch's paths across threads before the
/// in-order debits; max-min-residual routes sequentially at any count.
#[test]
fn renewal_and_route_policies_are_thread_count_invariant() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(33), 15.0, &Aabb::square(8.0));
    let n = points.len();
    let alive: Vec<bool> = (0..n).map(|i| i < n * 4 / 5).collect();
    let renewals = [
        RenewalPolicy::MobileCharger {
            travel_budget: 120.0,
            min_charge: 1500.0,
            max_charge: 3000.0,
        },
        RenewalPolicy::Solar {
            rate: 400.0,
            max_charge: 3000.0,
        },
        RenewalPolicy::SinkRotation,
    ];
    let routes = [
        RoutePolicy::HopCount,
        RoutePolicy::MinEnergy,
        RoutePolicy::MaxMinResidual,
    ];
    for (renewal, route, traffic) in renewals
        .into_iter()
        .flat_map(|r| routes.map(|q| (r, q)))
        .flat_map(|(r, q)| [25, 64].map(|t| (r, q, t)))
    {
        // Battery sized so the policies actually matter: drain kills
        // part of the network inside the horizon without renewal.
        let mut cfg = ChurnConfig::new(6, 3000.0, traffic, 0.05, 1.0);
        cfg.idle_cost = 350.0;
        cfg.renewal = renewal;
        cfg.route = route;
        let mut digests: Vec<(String, String)> = Vec::new();
        for threads in ["1", "4", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let r = simulate_lifetime_plain(
                &points,
                &alive,
                IncTopology::Udg { radius: 1.0 },
                &cfg,
                0xE4E,
            );
            let energy: Vec<String> = r
                .epochs
                .iter()
                .map(|e| format!("{}/{}", e.energy_recharged, e.battery_residual))
                .collect();
            digests.push((
                threads.to_string(),
                format!("{} {energy:?}", epoch_digest(&r)),
            ));
        }
        std::env::remove_var("RAYON_NUM_THREADS");
        let (ref t0, ref d0) = digests[0];
        for (t, d) in &digests[1..] {
            assert_eq!(
                d, d0,
                "{renewal:?}/{route:?}/{traffic} packets: trajectory at {t} threads \
                 diverged from {t0} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised schedules: arbitrary seeds, kill probabilities and epoch
    /// counts keep the incremental CSR byte-identical to the cold rebuild
    /// for every kind.
    #[test]
    fn prop_random_churn_schedules_stay_identical(
        seed in 0u64..500,
        p_fail in 0.02f64..0.6,
        epochs in 1u64..4,
        kind_ix in 0usize..KINDS.len(),
    ) {
        let _guard = env_guard();
        let points = sample_poisson_window(
            &mut rng_from_seed(seed),
            15.0,
            &Aabb::square(6.0),
        );
        prop_assume!(points.len() > 10);
        let alive: Vec<bool> = (0..points.len()).map(|i| i % 4 != 3).collect();
        let kind = KINDS[kind_ix];
        let mut g = IncrementalGraph::build(points, alive, kind, 2);
        for e in 0..epochs {
            let (deaths, joins) = churn_sets(&g, seed ^ 0xFEED, e, p_fail);
            g.apply_churn(&deaths, &joins);
            prop_assert!(
                g.verify_cold(),
                "{:?} seed {} epoch {} diverged",
                kind,
                seed,
                e
            );
        }
    }
}
