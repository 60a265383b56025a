//! `lifetime-churn`: `simulate_lifetime_plain` on a churning UDG universe —
//! clustered outages at about 2% of the alive nodes per epoch, each death
//! replaced from a reserve pool sized so joins never run dry, and a few
//! hop-count packets per epoch. Incremental repair, traffic BFS and the
//! per-epoch metrics all carry a share; construction and serve code do not
//! run. One operation is one simulated epoch.

use wsn_geom::hash::derive_seed2;
use wsn_graph::components::connected_components;
use wsn_graph::{bfs, fingerprint};
use wsn_rgg::{IncTopology, IncrementalGraph};
use wsn_simnet::{simulate_lifetime_plain, ChurnConfig, ChurnModel, LifetimeReport, RepairMode};

use crate::common::{
    median, meta_note, nproc, peak_rss_mb, repeat_for, set_threads, spread, timed, BlastSchedule,
    Outcome, Scale, Universe,
};

const LAMBDA: f64 = 10.0;
const KIND: IncTopology = IncTopology::Udg { radius: 1.0 };
const P_FAIL: f64 = 0.02;
const JOIN_RATE: f64 = 1.0;
const PACKETS: usize = 16;
/// Reserve pool as a share of the deployment: 8 epochs at the realised
/// ~2.3% need about 0.19; the margin keeps joins flowing through the last
/// epoch (a dry reserve would switch repair to a much cheaper regime).
const RESERVE_FRAC: f64 = 0.3;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 7;
/// Timed runs at least, whatever `--seconds` says.
const MIN_RUNS: usize = 4;

struct Shape {
    deployed: usize,
    epochs: usize,
    /// Outage radius (the miniature's window is too small for the full
    /// radius to stay near the 2% rate).
    blast_radius: f64,
}

fn shape(scale: Scale) -> Shape {
    scale.pick(
        Shape {
            deployed: 100_000,
            epochs: 8,
            blast_radius: 5.0,
        },
        Shape {
            deployed: 3_000,
            epochs: 4,
            blast_radius: 1.5,
        },
    )
}

fn config(epochs: usize, blast_radius: f64) -> ChurnConfig {
    let mut cfg = ChurnConfig::new(epochs, 1e12, PACKETS, P_FAIL, JOIN_RATE);
    cfg.churn_model = ChurnModel::Clustered {
        radius: blast_radius,
    };
    cfg.verify = false;
    cfg
}

/// The seed-determined part of an epoch report (everything but timings).
fn walk(r: &LifetimeReport) -> Vec<[u64; 6]> {
    r.epochs
        .iter()
        .map(|e| {
            [
                e.graph_hash,
                e.alive,
                e.offered,
                e.delivered,
                e.deaths_battery + e.deaths_random,
                e.joins,
            ]
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let threads = nproc().min(2);
    set_threads(threads);
    let shape = shape(scale);
    let useed = derive_seed2(seed, 0x11FE, 0);
    let sim_seed = derive_seed2(seed, 0x11FE, 1);
    let cfg = config(shape.epochs, shape.blast_radius);
    let mut out = Outcome::default();
    out.note(meta_note("lifetime-churn", seed, &threads.to_string()));

    // Set-up: deployment plus the engine's initial build (a zero-epoch run:
    // coverage probe, population and the incremental graph), repeated.
    let mut setups = Vec::new();
    let mut build_only = Vec::new();
    let mut universe = None;
    for _ in 0..SETUP_REPS {
        let (u, deploy_s) = timed(|| Universe::sample(useed, shape.deployed, LAMBDA, RESERVE_FRAC));
        let (_, build_s) = timed(|| {
            simulate_lifetime_plain(
                &u.points,
                &u.alive,
                KIND,
                &config(0, shape.blast_radius),
                sim_seed,
            )
        });
        setups.push(deploy_s + build_s);
        build_only.push(build_s);
        universe = Some(u);
    }
    let u = universe.expect("at least one set-up");
    out.metric("setup_s", median(&setups));
    let build_s = median(&build_only);

    if trace {
        traced(&u, &cfg, sim_seed, seconds, build_s, &mut out);
        return out;
    }

    let mut runs = Vec::new();
    let mut reference: Option<LifetimeReport> = None;
    repeat_for(seconds, MIN_RUNS, || {
        let (r, secs) =
            timed(|| simulate_lifetime_plain(&u.points, &u.alive, KIND, &cfg, sim_seed));
        runs.push(secs);
        out.attempted += shape.epochs as u64;
        match &reference {
            None => reference = Some(r),
            Some(first) => out.check(walk(&r) == walk(first), || {
                format!("lifetime run {} differs from the first run", runs.len())
            }),
        }
    });
    let rss = peak_rss_mb();
    let report = reference.expect("at least one run");
    let epoch_s = (median(&runs) - build_s) / shape.epochs as f64;
    out.metric("peak_rss_mb", rss);
    out.metric("throughput_per_s", 1.0 / epoch_s);
    let (lo, mid, hi) = spread(&runs);
    out.note(format!(
        "lifetime-churn: universe={} deployed={} epochs={} runs={} run_s min/median/max=\
         {lo:.4}/{mid:.4}/{hi:.4} build_s={build_s:.4} lifetime_epochs_per_s={:.3} \
         repair_s/run={:.4} joins={} deaths={}",
        u.points.len(),
        u.deployed(),
        shape.epochs,
        runs.len(),
        1.0 / epoch_s,
        report.repair_secs_total,
        report.joins_total,
        report.deaths_battery_total + report.deaths_random_total,
    ));
    check(&u, &cfg, sim_seed, &report, &mut out);
    out
}

/// The incremental walk must equal a cold-rebuild walk, and joins must keep
/// pace with deaths in every epoch (a dry reserve changes the regime).
fn check(u: &Universe, cfg: &ChurnConfig, seed: u64, report: &LifetimeReport, out: &mut Outcome) {
    let mut rebuild = *cfg;
    rebuild.repair = RepairMode::Rebuild;
    let oracle = simulate_lifetime_plain(&u.points, &u.alive, KIND, &rebuild, seed);
    out.check(walk(report) == walk(&oracle), || {
        "incremental lifetime walk differs from the rebuild walk".into()
    });
    for e in &report.epochs {
        out.check(e.joins == e.deaths_battery + e.deaths_random, || {
            format!("reserve ran dry at epoch {}", e.epoch)
        });
    }
}

/// Per-epoch layer spans of one traced pass.
#[derive(Default)]
struct Pass {
    epochs: f64,
    inc_build: f64,
    repair: f64,
    splice: f64,
    route: f64,
    components: f64,
    fingerprint: f64,
    wall: f64,
    offered: u64,
    delivered: u64,
    dirty: u64,
    rederived: u64,
    gathered: u64,
    escalations: u64,
}

impl Pass {
    fn per_epoch(&self, x: f64) -> f64 {
        x / self.epochs
    }

    fn counts(&self) -> [u64; 6] {
        [
            self.offered,
            self.delivered,
            self.dirty,
            self.rederived,
            self.gathered,
            self.escalations,
        ]
    }

    fn spans(&self) -> f64 {
        self.repair + self.route + self.components + self.fingerprint
    }
}

/// The engine's epoch loop rebuilt from public calls — traffic BFS, repair,
/// components, fingerprint — on the benchmark's own churn schedule at the
/// workload's rates. With `timers` off the same loop runs unwrapped, which
/// prices the wrappers.
fn replica(u: &Universe, cfg: &ChurnConfig, seed: u64, timers: bool) -> Pass {
    let (epochs, ChurnModel::Clustered { radius }) = (cfg.epochs, cfg.churn_model) else {
        unreachable!("the workload's churn is clustered")
    };
    let mut p = Pass {
        epochs: epochs as f64,
        ..Pass::default()
    };
    let clock = |on: bool| on.then(std::time::Instant::now);
    let lap = |t: Option<std::time::Instant>| t.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let t_wall = std::time::Instant::now();
    let mut sched = BlastSchedule::new(&u.points, &u.alive, P_FAIL, radius, JOIN_RATE, seed);
    let t = clock(timers);
    let mut g = IncrementalGraph::build(u.points.clone(), u.alive.clone(), KIND, 4);
    p.inc_build = lap(t);
    for epoch in 0..epochs as u64 {
        let alive_ids: Vec<u32> = (0..g.alive().len() as u32)
            .filter(|&v| g.alive()[v as usize])
            .collect();
        let t = clock(timers);
        for i in 0..PACKETS as u64 {
            let h = derive_seed2(seed ^ 0x7AFF, epoch, i);
            let src = alive_ids[(h % alive_ids.len() as u64) as usize];
            let dst = alive_ids[((h >> 32) % alive_ids.len() as u64) as usize];
            if src != dst {
                p.offered += 1;
                p.delivered += bfs::path(g.graph(), src, dst).is_some() as u64;
            }
        }
        p.route += lap(t);
        let (deaths, joins) = sched.epoch(epoch, g.alive());
        let t = clock(timers);
        let stats = g.apply_churn(&deaths, &joins);
        p.repair += lap(t);
        p.splice += stats.splice_secs;
        p.dirty += stats.dirty as u64;
        p.rederived += stats.rederived as u64;
        p.gathered += stats.gathered as u64;
        p.escalations += stats.escalations as u64;
        let t = clock(timers);
        std::hint::black_box(connected_components(g.graph()).largest().len());
        p.components += lap(t);
        let t = clock(timers);
        std::hint::black_box(fingerprint(g.graph()));
        p.fingerprint += lap(t);
    }
    assert!(
        sched.reserve_left() > 0,
        "traced schedule ran the reserve dry"
    );
    p.wall = t_wall.elapsed().as_secs_f64();
    p
}

fn traced(
    u: &Universe,
    cfg: &ChurnConfig,
    seed: u64,
    seconds: f64,
    build_s: f64,
    out: &mut Outcome,
) {
    let mut passes = Vec::new();
    let mut bare = Vec::new();
    let mut untraced = Vec::new();
    let mut engine_repair = Vec::new();
    let mut deploys = Vec::new();
    let mut reference: Option<(Vec<[u64; 6]>, [u64; 6])> = None;
    let deployed = u.deployed();
    repeat_for(seconds, 1, || {
        let (_, secs) = timed(|| Universe::sample(seed, deployed, LAMBDA, RESERVE_FRAC));
        deploys.push(secs);
        let pass = replica(u, cfg, seed, true);
        bare.push(replica(u, cfg, seed, false).wall);
        let (r, secs) = timed(|| simulate_lifetime_plain(&u.points, &u.alive, KIND, cfg, seed));
        untraced.push(secs);
        engine_repair.push(r.repair_secs_total);
        out.attempted += cfg.epochs as u64;
        // Walks and counts are schedule-determined: every round must agree.
        let seen = (walk(&r), pass.counts());
        out.check(reference.as_ref().is_none_or(|r| *r == seen), || {
            "traced-run rounds disagree".into()
        });
        reference.get_or_insert(seen);
        passes.push(pass);
    });
    let epochs = cfg.epochs as f64;
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = &passes[0];
    let untraced_epoch = (median(&untraced) - build_s) / epochs;
    let spans_epoch = med(&|p| p.per_epoch(p.spans()));
    // What the untraced epoch spends outside repair (as the engine itself
    // times it, so both sides come from the same run), less the traced
    // route, components and fingerprint spans.
    let unattributed = untraced_epoch
        - median(&engine_repair) / epochs
        - med(&|p| p.per_epoch(p.route + p.components + p.fingerprint));
    out.metric("pointproc.deploy_s", median(&deploys));
    out.metric("rgg.inc_build_s", med(&|p| p.inc_build));
    out.metric("rgg.repair_s", med(&|p| p.per_epoch(p.repair)));
    out.metric("graph.splice_s", med(&|p| p.per_epoch(p.splice)));
    out.metric("rgg.repair_dirty", first.dirty as f64);
    out.metric("rgg.repair_rederived", first.rederived as f64);
    out.metric("rgg.repair_gathered", first.gathered as f64);
    out.metric("rgg.repair_escalations", first.escalations as f64);
    out.metric(
        "rgg.rederive_ratio",
        first.rederived as f64 / first.dirty.max(1) as f64,
    );
    out.metric("graph.route_s", med(&|p| p.per_epoch(p.route)));
    out.metric(
        "graph.route_delivered_ratio",
        first.delivered as f64 / first.offered.max(1) as f64,
    );
    out.metric("graph.components_s", med(&|p| p.per_epoch(p.components)));
    out.metric("graph.fingerprint_s", med(&|p| p.per_epoch(p.fingerprint)));
    out.metric("simnet.epoch_unattributed_s", unattributed);
    out.metric(
        "trace.overhead_s",
        (med(&|p| p.wall) - median(&bare)) / epochs,
    );
    out.metric("trace.unattributed_s", unattributed);
    out.note(format!(
        "trace: passes={} untraced epoch {untraced_epoch:.5}s, traced spans {spans_epoch:.5}s/epoch",
        passes.len()
    ));
}
