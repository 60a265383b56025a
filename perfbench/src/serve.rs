//! `serve-mixed`: `run_serve`, the epoch-snapshot topology service, on the
//! lifetime workload's universe shape under light churn (about 1% per
//! epoch, every death replaced). One reader thread serves 8 clients a mix
//! of routes (through the per-client route cache, from a hot source set),
//! k-nearest, coverage and membership queries while the writer — its
//! fan-out pinned to one thread — repairs, captures and publishes each
//! epoch. One operation is one query.

use wsn_geom::hash::derive_seed2;
use wsn_graph::EpochPublisher;
use wsn_rgg::{IncTopology, IncrementalGraph};
use wsn_simnet::{
    run_replay, run_serve, ChurnConfig, ChurnModel, ServeConfig, ServeReport, Snapshot,
};
use wsn_spatial::GridIndex;

use crate::common::{
    median, meta_note, peak_rss_mb, repeat_for, set_threads, spread, timed, BlastSchedule, Outcome,
    Scale, Universe,
};

const LAMBDA: f64 = 10.0;
const KIND: IncTopology = IncTopology::Udg { radius: 1.0 };
const P_FAIL: f64 = 0.01;
const BLAST_RADIUS: f64 = 2.5;
const JOIN_RATE: f64 = 1.0;
const RESERVE_FRAC: f64 = 0.3;
const CLIENTS: usize = 8;
/// Route sources are drawn from this many alive ids (the gateway model the
/// route cache is built for).
const HOT_ROUTES: usize = 4;
/// Per-client LRU capacity: room for a good share of the hot pairs.
const CACHE_CAPACITY: usize = 512;
/// Calls timed in the traced run's `in_disk` probe.
const IN_DISK_PROBES: u64 = 20_000;

struct Shape {
    deployed: usize,
    epochs: usize,
    queries: usize,
}

fn shape(scale: Scale) -> Shape {
    scale.pick(
        Shape {
            deployed: 100_000,
            epochs: 10,
            queries: 600,
        },
        Shape {
            deployed: 3_000,
            epochs: 3,
            queries: 40,
        },
    )
}

fn config(shape: &Shape, seed: u64) -> ServeConfig {
    let mut churn = ChurnConfig::new(shape.epochs, 1e12, 0, P_FAIL, JOIN_RATE);
    churn.churn_model = ChurnModel::Clustered {
        radius: BLAST_RADIUS,
    };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, 1, CLIENTS, shape.queries);
    cfg.hot_routes = HOT_ROUTES;
    cfg.cache_capacity = CACHE_CAPACITY;
    cfg.seed = seed;
    cfg
}

/// The seed-determined answers of a serve run.
fn answers(r: &ServeReport) -> (&[u64], &[u64], u64, u64) {
    (
        &r.client_digests,
        &r.epoch_fingerprints,
        r.cache_hits,
        r.final_alive,
    )
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    // One reader thread plus the writer, whose repair fan-out runs inline.
    set_threads(1);
    let shape = shape(scale);
    let useed = derive_seed2(seed, 0x5E7E, 0);
    let cfg = config(&shape, derive_seed2(seed, 0x5E7E, 1));
    let mut out = Outcome::default();
    out.note(meta_note("serve-mixed", seed, "1 reader + 1 writer"));

    let (u, deploy_s) = timed(|| Universe::sample(useed, shape.deployed, LAMBDA, RESERVE_FRAC));

    if trace {
        traced(&u, &cfg, useed, seconds, deploy_s, &mut out);
        return out;
    }

    // Every call builds its own index and graph before serving: its
    // set-up is the call's wall time minus the served wall time. The
    // first call is the warm-up and is not timed as an operation.
    let mut setups = Vec::new();
    let mut qps = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut reports: Vec<ServeReport> = Vec::new();
    repeat_for(seconds, 5, || {
        let (r, secs) = timed(|| run_serve(&u.points, &u.alive, KIND, &cfg));
        setups.push(deploy_s + secs - r.wall_secs);
        if !reports.is_empty() {
            qps.push(r.qps);
            p50.push(r.p50_us);
            p99.push(r.p99_us);
            out.attempted += r.queries;
            out.failed += r.errors;
        }
        reports.push(r);
    });
    let rss = peak_rss_mb();
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", rss);
    out.metric("throughput_per_s", median(&qps));
    let first = &reports[0];
    let (lo, mid, hi) = spread(&p99);
    out.note(format!(
        "serve-mixed: universe={} deployed={} epochs={} calls={} queries/call={} \
         serve_qps={:.0} query_p50_us={:.3} query_p99_us min/median/max={lo:.2}/{mid:.2}/{hi:.2} \
         (samples/call={}) cache_hit_ratio={:.4} failed_frac={}",
        u.points.len(),
        u.deployed(),
        shape.epochs,
        qps.len(),
        first.queries,
        median(&qps),
        median(&p50),
        first.queries,
        first.cache_hits as f64 / first.cache_lookups.max(1) as f64,
        out.failed as f64 / out.attempted.max(1) as f64,
    ));

    let replay = run_replay(&u.points, &u.alive, KIND, &cfg);
    for (i, r) in reports.iter().enumerate() {
        out.check(answers(r) == answers(&replay), || {
            format!("serve call {i} differs from the single-threaded replay")
        });
    }
    out
}

/// Per-epoch writer spans of one traced pass.
#[derive(Default)]
struct Pass {
    repair: f64,
    clone: f64,
    capture: f64,
    publish: f64,
    wall: f64,
}

impl Pass {
    fn busy(&self) -> f64 {
        self.repair + self.capture + self.publish
    }
}

/// The serve writer's epoch loop rebuilt from public calls — repair,
/// capture, publish — on the benchmark's own churn schedule at the
/// workload's rates, plus a timed clone of the chunked CSR as a probe of
/// the capture's largest part. With `timers` off the probe is skipped and
/// nothing is wrapped, which prices the wrappers.
fn writer_replica(u: &Universe, epochs: usize, seed: u64, timers: bool) -> Pass {
    let clock = |on: bool| on.then(std::time::Instant::now);
    let lap = |t: Option<std::time::Instant>| t.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let mut p = Pass::default();
    let mut sched = BlastSchedule::new(&u.points, &u.alive, P_FAIL, BLAST_RADIUS, JOIN_RATE, seed);
    let mut g = IncrementalGraph::build(u.points.clone(), u.alive.clone(), KIND, 4);
    let publisher: EpochPublisher<Snapshot> = EpochPublisher::new();
    let t_wall = std::time::Instant::now();
    for epoch in 0..epochs as u64 {
        let (deaths, joins) = sched.epoch(epoch, g.alive());
        let t = clock(timers);
        g.apply_churn(&deaths, &joins);
        p.repair += lap(t);
        if timers {
            let t = clock(timers);
            std::hint::black_box(g.graph().clone());
            p.clone += lap(t);
        }
        let t = clock(timers);
        let snap = Snapshot::capture(epoch, &g);
        p.capture += lap(t);
        let t = clock(timers);
        publisher.publish(epoch, snap);
        p.publish += lap(t);
    }
    p.wall = t_wall.elapsed().as_secs_f64() - p.clone;
    assert!(
        sched.reserve_left() > 0,
        "traced schedule ran the reserve dry"
    );
    let e = epochs as f64;
    Pass {
        repair: p.repair / e,
        clone: p.clone / e,
        capture: p.capture / e,
        publish: p.publish / e,
        wall: p.wall / e,
    }
}

fn traced(
    u: &Universe,
    cfg: &ServeConfig,
    useed: u64,
    seconds: f64,
    deploy_s: f64,
    out: &mut Outcome,
) {
    let epochs = cfg.churn.epochs;
    let mut passes = Vec::new();
    let mut bare = Vec::new();
    let mut served: Vec<ServeReport> = Vec::new();
    let mut deploys = vec![deploy_s];
    repeat_for(seconds, 1, || {
        passes.push(writer_replica(u, epochs, cfg.seed, true));
        bare.push(writer_replica(u, epochs, cfg.seed, false).wall);
        let r = run_serve(&u.points, &u.alive, KIND, cfg);
        out.attempted += r.queries;
        out.failed += r.errors;
        if let Some(first) = served.first() {
            out.check(answers(&r) == answers(first), || {
                "traced-run serve calls disagree".into()
            });
        }
        served.push(r);
        let (_, secs) = timed(|| Universe::sample(useed, u.deployed(), LAMBDA, RESERVE_FRAC));
        deploys.push(secs);
    });
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let served_median =
        |f: &dyn Fn(&ServeReport) -> f64| median(&served.iter().map(f).collect::<Vec<_>>());
    let wall_epoch = served_median(&|r| r.wall_secs) / epochs as f64;
    let busy = med(&|p| p.busy());

    // The reader's disk search at the route radius, on the same index
    // shape `run_serve` builds.
    let index = GridIndex::build(&u.points, cfg.route_radius.max(cfg.coverage_radius));
    let mut hits = Vec::new();
    let (_, secs) = timed(|| {
        for i in 0..IN_DISK_PROBES {
            let v = (derive_seed2(cfg.seed, 0xD15C, i) % u.points.len() as u64) as u32;
            hits.clear();
            index.in_disk(u.points.get(v), cfg.route_radius, &mut hits);
            std::hint::black_box(hits.len());
        }
    });

    let first = &served[0];
    out.metric("pointproc.deploy_s", median(&deploys));
    out.metric("rgg.repair_s", med(&|p| p.repair));
    out.metric("simnet.capture_s", med(&|p| p.capture));
    out.metric("graph.clone_s", med(&|p| p.clone));
    out.metric("graph.publish_s", med(&|p| p.publish));
    out.metric("simnet.writer_busy_s", busy);
    out.metric("simnet.writer_idle_s", wall_epoch - busy);
    out.metric("spatial.in_disk_us", secs / IN_DISK_PROBES as f64 * 1e6);
    out.metric(
        "simnet.cache_hit_ratio",
        first.cache_hits as f64 / first.cache_lookups.max(1) as f64,
    );
    out.metric("graph.snapshots_max_live", first.max_live_snapshots as f64);
    out.metric("simnet.query_p50_us", served_median(&|r| r.p50_us));
    out.metric("simnet.query_p99_us", served_median(&|r| r.p99_us));
    out.metric("trace.overhead_s", med(&|p| p.wall) - median(&bare));
    out.metric("trace.unattributed_s", wall_epoch - busy);
    out.note(format!(
        "trace: passes={} serve wall {wall_epoch:.5}s/epoch, writer busy {busy:.5}s/epoch",
        passes.len()
    ));
}
