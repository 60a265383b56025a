//! Permutation-invariance suite: construction-time point reorderings must
//! be **unobservable**. A builder that runs over a Morton-sorted (or
//! arbitrarily shuffled) copy of a deployment and emits through the order's
//! rank → deployment-id map must reproduce the
//! deployment-order graph byte-for-byte — same canonical edge list, same
//! CSR fingerprint — for all eight topology kinds, at every thread count.
//!
//! This is the contract that makes the Morton-ordered hot paths safe to
//! enable everywhere (`wsn_rgg::ordered`, the `*_sens_ordered` builders):
//! layout is a cache optimisation, never an input. The golden matrix in CI
//! holds the same claim end-to-end at the scenario-report level; this suite
//! pins it per builder with an adversarial (hash-shuffled) layout that no
//! real deployment would produce.
//!
//! Thread counts are exercised the same way `sharded_vs_monolithic.rs`
//! does it: the whole binary serialises on one lock because
//! `RAYON_NUM_THREADS` is process-global state.

use std::sync::Mutex;

use wsn::core::nn::{build_nn_sens, build_nn_sens_ordered};
use wsn::core::params::{NnSensParams, UdgSensParams};
use wsn::core::tilegrid::TileGrid;
use wsn::core::udg::{build_udg_sens, build_udg_sens_ordered};
use wsn::geom::hash::derive_seed2;
use wsn::geom::{Aabb, Point};
use wsn::graph::{fingerprint, Csr};
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointOrder, PointSet};
use wsn::rgg::ordered::{
    build_gabriel_on_order, build_hng_on_order, build_knn_on_order, build_rng_on_order,
    build_udg_on_order, build_yao_on_order,
};
use wsn::rgg::{
    build_gabriel, build_hng, build_knn, build_rng, build_udg, build_yao, HngParams, WHOLE_WINDOW,
};

/// `RAYON_NUM_THREADS` is process-global; serialise every test body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The thread counts the invariance contract pins (CI's golden matrix runs
/// the same ladder).
const THREAD_COUNTS: [&str; 3] = ["1", "4", "8"];

fn with_threads<F: FnMut(&str)>(mut f: F) {
    for threads in THREAD_COUNTS {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        f(threads);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Sorted canonical edge list — the byte-comparable form.
fn edges_of(g: &Csr) -> Vec<(u32, u32)> {
    let mut e: Vec<(u32, u32)> = g.edges().collect();
    e.sort_unstable();
    e
}

/// A deterministic adversarial layout: ranks sorted by a per-id hash, so
/// consecutive ranks are spatially *uncorrelated* — the opposite of the
/// Morton order's whole purpose, and exactly what emitting through the
/// rank → deployment-id map must erase.
fn shuffled(points: &PointSet, seed: u64) -> PointOrder {
    let mut ids: Vec<u32> = (0..points.len() as u32).collect();
    ids.sort_by_key(|&i| derive_seed2(seed, i as u64, 0));
    PointOrder::from_to_orig(points, ids)
}

/// Every layout a builder must be invariant under.
fn layouts(points: &PointSet) -> Vec<(&'static str, PointOrder)> {
    vec![
        ("morton", PointOrder::morton(points)),
        ("shuffled", shuffled(points, 0xBEEF)),
    ]
}

#[test]
fn plain_topologies_are_layout_invariant_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pts = sample_poisson_window(&mut rng_from_seed(0x0DDE5), 30.0, &Aabb::square(10.0));
    let hng_params = HngParams::new(0.5, 2);
    // Deployment-order references, built monolithically once.
    type Builder<'a> = Box<dyn Fn(&PointOrder) -> Csr + 'a>;
    let kinds: Vec<(&str, Csr, Builder)> = vec![
        (
            "udg",
            build_udg(&pts, 1.0),
            Box::new(|o: &PointOrder| build_udg_on_order(o, 1.0, 4)),
        ),
        (
            "knn",
            build_knn(&pts, 8),
            Box::new(|o: &PointOrder| build_knn_on_order(o, 8, 4)),
        ),
        (
            "gabriel",
            build_gabriel(&pts, 1.0),
            Box::new(|o: &PointOrder| build_gabriel_on_order(o, 1.0, 4)),
        ),
        (
            "rng",
            build_rng(&pts, 1.0),
            Box::new(|o: &PointOrder| build_rng_on_order(o, 1.0, 4)),
        ),
        (
            "yao",
            build_yao(&pts, 1.0, 6),
            Box::new(|o: &PointOrder| build_yao_on_order(o, 1.0, 6, 4)),
        ),
        (
            "hng",
            build_hng(&pts, hng_params, 0xC0FFEE),
            Box::new(|o: &PointOrder| build_hng_on_order(o, hng_params, 0xC0FFEE, 4)),
        ),
    ];
    with_threads(|threads| {
        for (layout_name, order) in layouts(&pts) {
            for (kind, reference, build_on) in &kinds {
                let got = build_on(&order);
                assert_eq!(
                    edges_of(&got),
                    edges_of(reference),
                    "{kind} over {layout_name} layout at {threads} thread(s)"
                );
                assert_eq!(
                    fingerprint(&got),
                    fingerprint(reference),
                    "{kind} fingerprint over {layout_name} layout at {threads} thread(s)"
                );
            }
        }
    });
}

/// A unit lattice at r = 1 is the worst case for tie-breaking: every
/// lattice edge sits exactly at the radius and every node has four
/// neighbours at one identical distance. UDG, Gabriel and RNG decide each
/// pair by thresholds alone (no id tie-break), so each must come out as the
/// 4-neighbour grid under every layout, shard size and thread count.
#[test]
fn threshold_kinds_are_layout_invariant_on_a_tied_lattice() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const SIDE: u32 = 24;
    let pts: PointSet = (0..SIDE * SIDE)
        .map(|i| Point::new((i % SIDE) as f64, (i / SIDE) as f64))
        .collect();
    let grid_edges = 2 * SIDE as usize * (SIDE as usize - 1);
    type Builder = fn(&PointOrder, usize) -> Csr;
    let kinds: [(&str, Csr, Builder); 3] = [
        ("udg", build_udg(&pts, 1.0), |o, t| {
            build_udg_on_order(o, 1.0, t)
        }),
        ("gabriel", build_gabriel(&pts, 1.0), |o, t| {
            build_gabriel_on_order(o, 1.0, t)
        }),
        ("rng", build_rng(&pts, 1.0), |o, t| {
            build_rng_on_order(o, 1.0, t)
        }),
    ];
    for (kind, reference, _) in &kinds {
        assert_eq!(reference.m(), grid_edges, "{kind} reference on the lattice");
    }
    with_threads(|threads| {
        for (layout_name, order) in layouts(&pts) {
            for (kind, reference, build_on) in &kinds {
                for tiles in [1, 4, WHOLE_WINDOW] {
                    let got = build_on(&order, tiles);
                    assert_eq!(
                        &got, reference,
                        "{kind} over {layout_name} layout, {tiles} tiles, {threads} thread(s)"
                    );
                }
            }
        }
    });
}

#[test]
fn sens_constructions_are_layout_invariant_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // UDG-SENS: elections must pick identical representatives and relays
    // (not just an identical graph) under any layout.
    let udg_params = UdgSensParams::strict_default();
    let udg_grid = TileGrid::fit(12.0, udg_params.tile_side);
    let udg_pts = sample_poisson_window(&mut rng_from_seed(0x5E25), 25.0, &udg_grid.covered_area());
    let udg_serial = build_udg_sens(&udg_pts, udg_params, udg_grid.clone()).unwrap();

    // NN-SENS: the paper-scale k with a small lattice keeps the k-NN base
    // affordable while the per-tile elections stay non-trivial.
    let nn_params = NnSensParams { a: 1.2, k: 400 };
    let nn_grid = TileGrid::new(nn_params.tile_side(), 3, 2);
    let nn_pts = sample_poisson_window(&mut rng_from_seed(0x29), 1.0, &nn_grid.covered_area());
    let nn_base = build_knn(&nn_pts, nn_params.k);
    let nn_serial = build_nn_sens(&nn_pts, &nn_base, nn_params, nn_grid.clone()).unwrap();

    with_threads(|threads| {
        for (layout_name, order) in layouts(&udg_pts) {
            let got =
                build_udg_sens_ordered(&udg_pts, &order, udg_params, udg_grid.clone()).unwrap();
            assert_eq!(got.lattice, udg_serial.lattice, "udg-sens {layout_name}");
            assert_eq!(got.reps, udg_serial.reps, "udg-sens {layout_name}");
            assert_eq!(got.roles, udg_serial.roles, "udg-sens {layout_name}");
            assert_eq!(
                got.missing_links, udg_serial.missing_links,
                "udg-sens {layout_name}"
            );
            assert_eq!(
                edges_of(&got.graph),
                edges_of(&udg_serial.graph),
                "udg-sens edges over {layout_name} layout at {threads} thread(s)"
            );
            assert_eq!(
                fingerprint(&got.graph),
                fingerprint(&udg_serial.graph),
                "udg-sens fingerprint over {layout_name} layout at {threads} thread(s)"
            );
        }
        for (layout_name, order) in layouts(&nn_pts) {
            // The ordered pipeline derives its k-NN base over the same
            // layout (as `metrics.rs` does), so the base's own invariance
            // is exercised en route.
            let base = build_knn_on_order(&order, nn_params.k, 4);
            assert_eq!(
                edges_of(&base),
                edges_of(&nn_base),
                "nn-sens base over {layout_name} layout at {threads} thread(s)"
            );
            let got =
                build_nn_sens_ordered(&nn_pts, &order, &base, nn_params, nn_grid.clone()).unwrap();
            assert_eq!(got.lattice, nn_serial.lattice, "nn-sens {layout_name}");
            assert_eq!(got.reps, nn_serial.reps, "nn-sens {layout_name}");
            assert_eq!(got.roles, nn_serial.roles, "nn-sens {layout_name}");
            assert_eq!(
                got.missing_links, nn_serial.missing_links,
                "nn-sens {layout_name}"
            );
            assert_eq!(
                edges_of(&got.graph),
                edges_of(&nn_serial.graph),
                "nn-sens edges over {layout_name} layout at {threads} thread(s)"
            );
            assert_eq!(
                fingerprint(&got.graph),
                fingerprint(&nn_serial.graph),
                "nn-sens fingerprint over {layout_name} layout at {threads} thread(s)"
            );
        }
    });
}

#[test]
fn identity_layout_is_structurally_transparent() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Under the identity order, the ordered path must match the plain
    // sharded build *structurally*, pinning that the id map the assembler
    // applies is a true no-op when the permutation is trivial.
    let pts = sample_poisson_window(&mut rng_from_seed(0x1D), 30.0, &Aabb::square(8.0));
    let order = PointOrder::identity(&pts);
    assert_eq!(build_udg_on_order(&order, 1.0, 4), build_udg(&pts, 1.0));
    assert_eq!(build_knn_on_order(&order, 8, 4), build_knn(&pts, 8));
}
