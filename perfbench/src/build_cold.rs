//! `build-cold`: the topology mix a user builds before anything else —
//! Morton-ordered sharded UDG(r=1), RNG(r=1), k-NN(k=8) and UDG-SENS
//! (strict defaults) over one Poisson deployment at λ = 10.
//!
//! No churn or serve code runs here. One operation is one build of the
//! whole mix; throughput is nodes built per second across it.

use wsn_core::params::UdgSensParams;
use wsn_core::tilegrid::TileGrid;
use wsn_core::udg::{build_udg_sens, build_udg_sens_ordered};
use wsn_geom::hash::derive_seed2;
use wsn_graph::perm::remap_csr;
use wsn_graph::{fingerprint, Csr};
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointOrder, PointSet};
use wsn_rgg::ordered::{build_knn_on_order, build_rng_on_order, build_udg_on_order};
use wsn_rgg::{
    build_knn, build_knn_sharded, build_rng, build_rng_sharded, build_udg, build_udg_sharded,
};
use wsn_spatial::GridIndex;

use crate::common::{
    median, meta_note, nproc, peak_rss_mb, repeat_for, set_threads, spread, timed, Outcome, Scale,
};

const LAMBDA: f64 = 10.0;
const RADIUS: f64 = 1.0;
const K: usize = 8;
/// Shard side in topology tiles (the pipeline default).
const TILES: usize = 16;
/// Topologies in the mix, in the order their results are kept.
const TOPOLOGIES: [&str; 4] = ["udg", "rng", "knn", "sens"];
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// One deployment in a SENS tile-fitted square window.
struct Deployment {
    points: PointSet,
    grid: TileGrid,
}

fn deploy(seed: u64, n_target: f64) -> Deployment {
    let side = (n_target / LAMBDA).sqrt();
    let grid = TileGrid::fit(side, UdgSensParams::strict_default().tile_side);
    let points = sample_poisson_window(&mut rng_from_seed(seed), LAMBDA, &grid.covered_area());
    Deployment { points, grid }
}

/// The four graphs of one mix build (`None` where SENS returned `Err`).
type Mix = [Option<Csr>; 4];

/// One untraced mix build: the same public calls a user makes.
fn build_mix(d: &Deployment) -> Mix {
    let order = PointOrder::morton(&d.points);
    let udg = build_udg_on_order(&order, RADIUS, TILES);
    let rng = build_rng_on_order(&order, RADIUS, TILES);
    let knn = build_knn_on_order(&order, K, TILES);
    let sens = build_udg_sens_ordered(
        &d.points,
        &order,
        UdgSensParams::strict_default(),
        d.grid.clone(),
    );
    [Some(udg), Some(rng), Some(knn), sens.ok().map(|s| s.graph)]
}

/// The serial oracle builders on the same deployment.
fn build_serial(d: &Deployment) -> Mix {
    let sens = build_udg_sens(&d.points, UdgSensParams::strict_default(), d.grid.clone());
    [
        Some(build_udg(&d.points, RADIUS)),
        Some(build_rng(&d.points, RADIUS)),
        Some(build_knn(&d.points, K)),
        sens.ok().map(|s| s.graph),
    ]
}

fn fingerprints(mix: &Mix) -> [Option<u64>; 4] {
    [0, 1, 2, 3].map(|i| mix[i].as_ref().map(fingerprint))
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let threads = nproc().min(2);
    set_threads(threads);
    let n_target = scale.pick(300_000.0, 4_000.0);
    let deploy_seed = derive_seed2(seed, 0xB1, 0);
    let mut out = Outcome::default();
    out.note(meta_note("build-cold", seed, &threads.to_string()));

    // Set-up: deployment plus one warm-up build of the mix, repeated.
    let mut setups = Vec::new();
    let mut deployment = None;
    let mut reference: Option<[Option<u64>; 4]> = None;
    for _ in 0..SETUP_REPS {
        let ((d, mix), secs) = timed(|| {
            let d = deploy(deploy_seed, n_target);
            let mix = build_mix(&d);
            (d, mix)
        });
        setups.push(secs);
        let fps = fingerprints(&mix);
        out.check(reference.is_none_or(|r| r == fps), || {
            "warm-up builds of one deployment disagree".into()
        });
        reference = Some(fps);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let reference = reference.expect("at least one set-up");
    let n = d.points.len() as f64;
    out.metric("setup_s", median(&setups));

    if trace {
        traced(&d, (deploy_seed, n_target), seconds, threads, &mut out);
    } else {
        let mut iter_secs = Vec::new();
        repeat_for(seconds, 3, || {
            let (mix, secs) = timed(|| build_mix(&d));
            iter_secs.push(secs);
            out.attempted += TOPOLOGIES.len() as u64;
            out.failed += mix.iter().filter(|g| g.is_none()).count() as u64;
            let fps = fingerprints(&mix);
            out.check(fps == reference, || {
                format!(
                    "mix build {} differs from the warm-up build",
                    iter_secs.len()
                )
            });
        });
        let rss = peak_rss_mb();
        let nodes_per_s: Vec<f64> = iter_secs
            .iter()
            .map(|s| TOPOLOGIES.len() as f64 * n / s)
            .collect();
        out.metric("peak_rss_mb", rss);
        out.metric("throughput_per_s", median(&nodes_per_s));
        let (lo, mid, hi) = spread(&iter_secs);
        out.note(format!(
            "build-cold: nodes={n} builds={} mix_s min/median/max={lo:.4}/{mid:.4}/{hi:.4} \
             build_nodes_per_s={:.0}",
            iter_secs.len(),
            median(&nodes_per_s)
        ));
    }
    check_serial_oracle(seed, threads, scale.pick(5_000.0, 1_500.0), &mut out);
    out
}

/// Every builder of the mix must equal the serial builders on a small
/// deployment drawn from the same seed.
fn check_serial_oracle(seed: u64, threads: usize, n_target: f64, out: &mut Outcome) {
    set_threads(threads);
    let small = deploy(derive_seed2(seed, 0xB1, 1), n_target);
    let got = fingerprints(&build_mix(&small));
    let want = fingerprints(&build_serial(&small));
    for (i, name) in TOPOLOGIES.iter().enumerate() {
        out.check(got[i].is_some() && got[i] == want[i], || {
            format!("{name}: sharded build differs from the serial builder")
        });
    }
}

/// Per-layer timings of one mix build: the same work as [`build_mix`],
/// split at each layer's public function.
#[derive(Default, Clone)]
struct Spans {
    order: f64,
    index: f64,
    derive: [f64; 3],
    remap: [f64; 3],
    sens: f64,
    wall: f64,
}

impl Spans {
    fn sum(&self) -> f64 {
        self.order + self.derive.iter().sum::<f64>() + self.remap.iter().sum::<f64>() + self.sens
    }
}

/// The sharded derive of topology `i` on a rank-space point set.
fn derive(i: usize, pts: &PointSet) -> Csr {
    match i {
        0 => build_udg_sharded(pts, RADIUS, TILES),
        1 => build_rng_sharded(pts, RADIUS, TILES),
        _ => build_knn_sharded(pts, K, TILES),
    }
}

fn traced_mix(d: &Deployment) -> (Spans, Mix) {
    let mut s = Spans::default();
    let t0 = std::time::Instant::now();
    let (order, secs) = timed(|| PointOrder::morton(&d.points));
    s.order = secs;
    let mut mix: Mix = [None, None, None, None];
    for (i, slot) in mix.iter_mut().take(3).enumerate() {
        let (g, secs) = timed(|| derive(i, order.points()));
        s.derive[i] = secs;
        let (g, secs) = timed(|| remap_csr(&g, order.to_orig()));
        s.remap[i] = secs;
        *slot = Some(g);
    }
    let (sens, secs) = timed(|| {
        build_udg_sens_ordered(
            &d.points,
            &order,
            UdgSensParams::strict_default(),
            d.grid.clone(),
        )
    });
    s.sens = secs;
    mix[3] = sens.ok().map(|n| n.graph);
    s.wall = t0.elapsed().as_secs_f64();
    // The gather index the sharded builders construct internally, timed
    // as its own call (outside the mix wall).
    let (index, secs) = timed(|| GridIndex::build(order.points(), RADIUS));
    s.index = secs;
    drop(index);
    (s, mix)
}

/// The traced run: rounds of one traced mix build, the same derives at one
/// thread, and one untraced mix build. `redeploy` is the deployment's
/// `(seed, n_target)`, re-sampled each round to time the deploy layer.
fn traced(d: &Deployment, redeploy: (u64, f64), seconds: f64, threads: usize, out: &mut Outcome) {
    let mut rounds: Vec<Spans> = Vec::new();
    let mut serial_derive: Vec<[f64; 3]> = Vec::new();
    let mut untraced: Vec<f64> = Vec::new();
    let mut deploys: Vec<f64> = Vec::new();
    let mut edges = [0f64; 4];
    let reference = fingerprints(&build_mix(d));
    repeat_for(seconds, 2, || {
        let (_, secs) = timed(|| deploy(redeploy.0, redeploy.1));
        deploys.push(secs);
        let (spans, mix) = traced_mix(d);
        out.attempted += TOPOLOGIES.len() as u64;
        out.failed += mix.iter().filter(|g| g.is_none()).count() as u64;
        out.check(fingerprints(&mix) == reference, || {
            "traced mix build differs from the untraced build".into()
        });
        for (e, g) in edges.iter_mut().zip(&mix) {
            *e = g.as_ref().map_or(0.0, |g| g.m() as f64);
        }
        drop(mix);
        rounds.push(spans);
        // The same derives at one thread, for the scaling ratio.
        set_threads(1);
        let order = PointOrder::morton(&d.points);
        serial_derive.push([0, 1, 2].map(|i| timed(|| derive(i, order.points())).1));
        set_threads(threads);
        drop(order);
        untraced.push(timed(|| build_mix(d)).1);
    });
    let med = |f: &dyn Fn(&Spans) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.metric("pointproc.deploy_s", median(&deploys));
    out.metric("pointproc.order_s", med(&|s| s.order));
    out.metric("spatial.index_s", med(&|s| s.index));
    const DERIVE: [&str; 3] = ["rgg.derive_s.udg", "rgg.derive_s.rng", "rgg.derive_s.knn"];
    const SPEEDUP: [&str; 3] = [
        "rgg.derive_speedup.udg",
        "rgg.derive_speedup.rng",
        "rgg.derive_speedup.knn",
    ];
    const REMAP: [&str; 3] = [
        "graph.remap_s.udg",
        "graph.remap_s.rng",
        "graph.remap_s.knn",
    ];
    const EDGES: [&str; 4] = [
        "graph.edges.udg",
        "graph.edges.rng",
        "graph.edges.knn",
        "graph.edges.sens",
    ];
    for i in 0..3 {
        let at_budget = med(&|s| s.derive[i]);
        let at_one = median(&serial_derive.iter().map(|d| d[i]).collect::<Vec<_>>());
        out.metric(DERIVE[i], at_budget);
        out.metric(SPEEDUP[i], at_one / at_budget);
        out.metric(REMAP[i], med(&|s| s.remap[i]));
        out.note(format!(
            "trace: {} derive 1 thread {at_one:.4}s, {threads} threads {at_budget:.4}s",
            TOPOLOGIES[i]
        ));
    }
    out.metric("core.sens_s", med(&|s| s.sens));
    for (name, e) in EDGES.iter().zip(edges) {
        out.metric(name, e);
    }
    let untraced_mix = median(&untraced);
    out.metric("trace.overhead_s", med(&|s| s.wall) - untraced_mix);
    out.metric("trace.unattributed_s", untraced_mix - med(&|s| s.sum()));
    out.note(format!(
        "trace: rounds={} untraced mix {untraced_mix:.4}s traced mix {:.4}s",
        rounds.len(),
        med(&|s| s.wall)
    ));
}
