//! Concurrency suite of the always-on topology service.
//!
//! The serve loop broadcasts one immutable snapshot of the incremental
//! graph per epoch to reader threads that answer route / k-NN / coverage /
//! membership queries against it, in lockstep: the writer splices epoch
//! *e+1* while the readers serve *e*, and publishes *e+1* once every reader
//! has released *e*. Its correctness story is *determinism under
//! concurrency*: answers are a pure function of `(seed, epoch, client,
//! query)`, never of thread interleaving. This suite pins that story from
//! five sides:
//!
//! 1. **Differential**: concurrent [`run_serve`] must be byte-identical —
//!    per-client digests, per-epoch fingerprints, folded answer digest —
//!    to the single-threaded [`run_replay`] oracle, across topology kinds
//!    × reader counts × churn regimes (quiescent and 10% clustered).
//! 2. **Held snapshots**: a reader's `Arc` of epoch *e* stays readable and
//!    byte-unchanged while the writer splices epoch *e+1*.
//! 3. **Properties**: for any reader and epoch count, every reader
//!    receives every epoch exactly once, in order, untorn, and every
//!    snapshot retires with at most one live at a time; across an epoch
//!    advance the route cache keeps only routes valid on the new snapshot
//!    and evicts only routes through a node the repair changed.
//! 4. **Channel sharing**: the published fingerprint walk and death count
//!    equal the batch churn engine's for the same schedule, traffic, idle
//!    drain and renewal included — serve mode and batch mode cannot drift
//!    apart silently.
//! 5. **Fail fast**: a panic in the writer or in any reader ends the
//!    lockstep loop with that panic, under a 60 s watchdog, instead of
//!    leaving the other side waiting.
//!
//! The `--ignored` soak scales the same invariants to a 10⁵-node universe
//! over 50 clustered-blackout epochs (run with
//! `cargo test --release --test serve_concurrency -- --ignored`).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;
use wsn::geom::hash::derive_seed2;
use wsn::geom::{Aabb, Point};
use wsn::graph::bfs::BfsScratch;
use wsn::graph::{fingerprint, run_lockstep, EpochPublisher};
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::{IncTopology, IncrementalGraph};
use wsn::simnet::churn::{simulate_lifetime_plain, ChurnConfig, ChurnModel, RenewalPolicy};
use wsn::simnet::{run_replay, run_serve, RouteCache, ServeConfig, ServeReport, Snapshot};

/// The serve-capable (plain incremental) topology kinds the differential
/// matrix sweeps.
const KINDS: [IncTopology; 3] = [
    IncTopology::Udg { radius: 1.0 },
    IncTopology::Rng { radius: 1.0 },
    IncTopology::Knn { k: 4 },
];

/// Reader counts of the differential matrix. On any host — including a
/// single hardware thread — every count must produce identical bytes.
const READER_COUNTS: [usize; 3] = [1, 4, 8];

/// A Poisson universe with a reserve pool (dead at start, admitted as
/// churn joins).
fn universe(seed: u64, side: f64, lambda: f64, reserve: f64) -> (PointSet, Vec<bool>) {
    let pts = sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let n = pts.len();
    let deployed = n - (reserve * n as f64).round() as usize;
    (pts, (0..n).map(|i| i < deployed).collect())
}

/// A serve schedule: `p_fail > 0` gives 10%-scale clustered blackouts with
/// reserve joins; `p_fail == 0` serves a quiescent network (the cache-
/// promotion-heavy regime).
fn serve_cfg(epochs: usize, readers: usize, p_fail: f64, seed: u64) -> ServeConfig {
    let join_rate = if p_fail > 0.0 { 1.0 } else { 0.0 };
    let mut churn = ChurnConfig::new(epochs, 1e9, 0, p_fail, join_rate);
    churn.churn_model = ChurnModel::Clustered { radius: 1.5 };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, readers, 6, 16);
    cfg.seed = seed;
    cfg
}

/// The byte-identity comparison: everything answer-derived must agree;
/// timing fields are the only allowed difference.
fn assert_identical(serve: &ServeReport, oracle: &ServeReport, context: &str) {
    assert_eq!(
        serve.client_digests, oracle.client_digests,
        "{context}: per-client digests diverged"
    );
    assert_eq!(
        serve.answer_digest, oracle.answer_digest,
        "{context}: folded answer digest diverged"
    );
    assert_eq!(
        serve.epoch_fingerprints, oracle.epoch_fingerprints,
        "{context}: published fingerprint walk diverged"
    );
    assert_eq!(
        serve.errors, oracle.errors,
        "{context}: error counts diverged"
    );
    assert_eq!(
        serve.cache_hits, oracle.cache_hits,
        "{context}: cache behaviour diverged"
    );
    assert_eq!(
        serve.final_alive, oracle.final_alive,
        "{context}: churn schedules diverged"
    );
}

// ---------------------------------------------------------------------
// 1. The differential matrix.
// ---------------------------------------------------------------------

/// kinds × readers {1, 4, 8} × churn {quiescent, 10% clustered}: the
/// concurrent service answers byte-identically to the single-threaded
/// replay of the same schedule. The oracle runs once per (kind, churn) —
/// reader count must never reach the answers.
#[test]
fn concurrent_answers_match_single_threaded_replay() {
    for (ki, kind) in KINDS.into_iter().enumerate() {
        for (ci, p_fail) in [0.0, 0.10].into_iter().enumerate() {
            let seed = derive_seed2(0x5EC0, ki as u64, ci as u64);
            let (pts, alive) = universe(seed, 10.0, 14.0, 0.2);
            let oracle = run_replay(&pts, &alive, kind, &serve_cfg(4, 1, p_fail, seed));
            assert_eq!(oracle.errors, 0);
            for readers in READER_COUNTS {
                let cfg = serve_cfg(4, readers, p_fail, seed);
                let serve = run_serve(&pts, &alive, kind, &cfg);
                let context = format!("{} readers={readers} p_fail={p_fail}", kind.label());
                assert_identical(&serve, &oracle, &context);
                assert_eq!(
                    serve.snapshots_retired, serve.snapshots_published,
                    "{context}: snapshots leaked"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. A held snapshot across a live splice.
// ---------------------------------------------------------------------

/// A reader's `Arc` of epoch 0 stays readable and byte-unchanged while the
/// writer churns and splices epoch 1 into the live graph; epoch 0 retires
/// once it is released.
#[test]
fn pinned_snapshot_survives_the_next_splice_unchanged() {
    let (pts, alive) = universe(0x919, 8.0, 16.0, 0.2);
    let mut g = IncrementalGraph::build(pts, alive, IncTopology::Udg { radius: 1.0 }, 4);

    let publisher: EpochPublisher<Snapshot> = EpochPublisher::new();
    let link = publisher.subscribe();
    publisher.publish(0, Snapshot::capture(0, &g));
    let held = link.recv().expect("epoch 0 is published");
    let held_bytes = format!("{held:?}");
    let held_fp = held.fingerprint;

    // The writer splices epoch 1 while the snapshot is held: kill a block
    // of its alive population and admit some reserve.
    let deaths: Vec<u32> = (0..g.points().len() as u32)
        .filter(|&u| g.alive()[u as usize] && u % 7 == 0)
        .collect();
    let joins: Vec<u32> = (0..g.points().len() as u32)
        .filter(|&u| !g.alive()[u as usize])
        .take(20)
        .collect();
    assert!(!deaths.is_empty() && !joins.is_empty());
    g.apply_churn(&deaths, &joins);

    assert_eq!(
        format!("{held:?}"),
        held_bytes,
        "the splice reached a held snapshot"
    );
    assert_eq!(fingerprint(&held.csr), held_fp);
    link.release(held);

    publisher.publish(1, Snapshot::capture(1, &g));
    let next = link.recv().expect("epoch 1 is published");
    assert_eq!(next.epoch, 1);
    assert_ne!(
        next.fingerprint, held_fp,
        "the splice must have changed the published topology"
    );
    assert_eq!(
        (publisher.published(), publisher.retired()),
        (2, 1),
        "released epoch 0 retires at the next publish"
    );
}

// ---------------------------------------------------------------------
// 3a. Property: the lockstep broadcast delivers every epoch once, in order.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any reader count and epoch count: every reader receives every epoch
    /// exactly once and in order, each payload untorn; after `finish` every
    /// snapshot has retired, and no more than one was ever live.
    #[test]
    fn lockstep_broadcast_delivers_every_epoch_once_in_order(
        readers in 1usize..=8,
        epochs in 1u64..=12,
        seed in 0u64..10_000,
    ) {
        /// A payload whose words are all derived from its epoch — a torn
        /// or reused buffer cannot keep them consistent.
        fn payload(seed: u64, epoch: u64) -> (u64, Vec<u64>) {
            (epoch, (0..8).map(|i| derive_seed2(seed, epoch, i)).collect())
        }

        let (seen, publisher) = run_lockstep(
            epochs,
            readers,
            |e| payload(seed, e),
            |_| Vec::new(),
            |seen: &mut Vec<u64>, snap: &(u64, Vec<u64>)| {
                // Plain assert: a torn payload is a hard bug either way.
                assert_eq!(*snap, payload(seed, snap.0), "torn snapshot payload");
                seen.push(snap.0);
            },
        );
        prop_assert_eq!(seen.len(), readers);
        let all: Vec<u64> = (0..epochs).collect();
        for s in &seen {
            prop_assert_eq!(s, &all);
        }
        prop_assert_eq!(publisher.published(), epochs);
        prop_assert_eq!(publisher.retired(), publisher.published());
        prop_assert_eq!(publisher.max_live(), 1);
    }
}

// ---------------------------------------------------------------------
// 3b. The route-cache eviction rule.
// ---------------------------------------------------------------------

/// Every plain kind the incremental graph maintains.
const ALL_KINDS: [IncTopology; 6] = [
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
        seed: 0x48_4E_47,
    },
];

/// Uniform in [0, 1) from one hash word (mirrors the simnet helper, which
/// is crate-private).
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The eviction rule, for every kind over several churn epochs: a cache
/// seeded with BFS routes on snapshot *e* and advanced with snapshot
/// *e+1*'s changed mask keeps only routes that are valid on *e+1*
/// ([`Snapshot::path_valid`], the oracle), and evicts only routes with a
/// changed node. The cache carries its survivors across epochs, so an
/// entry promoted several times is held to the same rule.
#[test]
fn route_cache_keeps_valid_routes_and_evicts_only_changed_paths() {
    const ROUTES_PER_EPOCH: u64 = 48;
    for (ki, kind) in ALL_KINDS.into_iter().enumerate() {
        let seed = derive_seed2(0xCAC4E, ki as u64, 0);
        let (pts, alive) = universe(seed, 10.0, 14.0, 0.2);
        let mut g = IncrementalGraph::build(pts.clone(), alive, kind, 4);
        let mut snap = Snapshot::capture(0, &g);
        let mut cache = RouteCache::new(usize::MAX);
        let mut resident: Vec<(u32, u32, Vec<u32>)> = Vec::new();
        let mut scratch = BfsScratch::default();
        let (mut kept, mut evicted) = (0usize, 0usize);
        for e in 1..=5u64 {
            // Seed: routes between nearby alive pairs on snapshot e − 1.
            for i in 0..ROUTES_PER_EPOCH {
                let k = derive_seed2(seed, e, 2 * i) % snap.n_alive() as u64;
                let src = snap.alive_id(k as usize);
                let near: Vec<u32> = (0..pts.len() as u32)
                    .filter(|&v| snap.alive[v as usize])
                    .filter(|&v| v != src && pts.get(v).dist(pts.get(src)) <= 3.0)
                    .collect();
                if near.is_empty() || resident.iter().any(|r| r.0 == src) {
                    continue;
                }
                let dst = near[(derive_seed2(seed, e, 2 * i + 1) % near.len() as u64) as usize];
                // The snapshot CSR's nodes are Morton ranks: search between
                // ranks, with rank-ordered positions, and map the path back.
                let (to_rank, to_orig) = (snap.csr.to_rank(), snap.csr.to_orig());
                let (s, t) = (to_rank[src as usize], to_rank[dst as usize]);
                let rank_pts = g.rank_points();
                let path = scratch
                    .guided_path(&snap.csr, s, t, kind.max_edge_len(), |u| rank_pts.get(u))
                    .map(|p| p.iter().map(|&u| to_orig[u as usize]).collect::<Vec<u32>>());
                if let Some(path) = path {
                    cache.insert(src, dst, path.clone(), e - 1);
                    resident.push((src, dst, path));
                }
            }
            // Churn: one clustered blackout, and reserve joins in another
            // disk.
            let centre = |salt: u64| {
                let h = |k: u64| 10.0 * u01(derive_seed2(seed, e, salt + k));
                Point::new(h(0), h(1))
            };
            let (blast, arrivals) = (centre(1000), centre(2000));
            let within = |u: u32, c: Point| pts.get(u).dist(c) <= 1.5;
            let deaths: Vec<u32> = (0..pts.len() as u32)
                .filter(|&u| g.alive()[u as usize] && within(u, blast))
                .collect();
            let joins: Vec<u32> = (0..pts.len() as u32)
                .filter(|&u| !g.alive()[u as usize] && within(u, arrivals))
                .collect();
            g.apply_churn(&deaths, &joins);
            snap = Snapshot::capture(e, &g);
            cache.advance_epoch(e, &snap.changed);
            resident.retain(|(src, dst, path)| {
                let ctx = format!("{} epoch {e} route {src}→{dst}", kind.label());
                match cache.get(*src, *dst) {
                    Some(p) => {
                        assert_eq!(p, &path[..], "{ctx}: the cache rewrote a path");
                        assert!(snap.path_valid(p), "{ctx}: a kept route is invalid");
                        kept += 1;
                        true
                    }
                    None => {
                        assert!(
                            path.iter().any(|&u| snap.changed[u as usize]),
                            "{ctx}: evicted a route with no changed node"
                        );
                        evicted += 1;
                        false
                    }
                }
            });
            assert_eq!(cache.len(), resident.len(), "{}: residency", kind.label());
            assert!(
                cache.epochs().iter().all(|&t| t == e),
                "{}: unpromoted survivor",
                kind.label()
            );
        }
        assert!(
            kept > 0 && evicted > 0,
            "{}: kept {kept}, evicted {evicted} — both halves must be exercised",
            kind.label()
        );
    }
}

// ---------------------------------------------------------------------
// 4. Channel sharing with the batch engine.
// ---------------------------------------------------------------------

/// The published fingerprint walk equals the batch churn engine's
/// `graph_hash` channel for the same `(universe, kind, schedule, seed)` —
/// the regression fence for serve/batch divergence — and the two runs
/// agree on every death. The second schedule drains batteries by traffic
/// and idle cost and recharges them by solar trickle, so it fails if the
/// serve writer skips any phase of the batch epoch.
#[test]
fn published_fingerprints_equal_batch_graph_hash_channel() {
    let draining = |mut cfg: ServeConfig| {
        cfg.churn.battery = 800.0;
        cfg.churn.idle_cost = 250.0;
        cfg.churn.renewal = RenewalPolicy::Solar {
            rate: 100.0,
            max_charge: 800.0,
        };
        cfg.churn.traffic_per_epoch = 30;
        cfg
    };
    for (ki, kind) in KINDS.into_iter().enumerate() {
        let seed = derive_seed2(0xF1F0, ki as u64, 0);
        let (pts, alive) = universe(seed, 9.0, 14.0, 0.25);
        for cfg in [
            serve_cfg(4, 2, 0.10, seed),
            draining(serve_cfg(5, 2, 0.10, seed)),
        ] {
            let serve = run_serve(&pts, &alive, kind, &cfg);
            let batch = simulate_lifetime_plain(&pts, &alive, kind, &cfg.churn, cfg.seed);
            let walk: Vec<u64> = batch.epochs.iter().map(|e| e.graph_hash).collect();
            assert_eq!(
                serve.epoch_fingerprints,
                walk,
                "{}: serve fingerprints diverged from the batch graph_hash walk",
                kind.label()
            );
            assert_eq!(
                serve.deaths_total,
                batch.deaths_battery_total + batch.deaths_random_total,
                "{}: serve and batch killed different nodes",
                kind.label()
            );
        }
    }
}

// ---------------------------------------------------------------------
// 5. Fail fast: a panic on either side ends the loop promptly.
// ---------------------------------------------------------------------

/// Run `f` on its own thread under `catch_unwind` and return its panic
/// message. The test fails if `f` returns normally, or if no result has
/// arrived within 60 s — so a reintroduced hang fails here instead of
/// stalling the suite.
fn panic_within_watchdog<R>(f: impl FnOnce() -> R + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(
            catch_unwind(AssertUnwindSafe(f))
                .err()
                .map(|p| panic_message(&*p)),
        );
    });
    let message = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the lockstep loop hung instead of failing");
    run.join()
        .expect("the panic was caught on the run's thread");
    message.expect("the lockstep loop must re-raise the panic")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
        .unwrap_or_default()
}

/// The serve writer's shape: churn a few nodes, splice, capture. Panics
/// instead of capturing epoch `fail_at`.
fn churning_writer(fail_at: Option<u64>) -> impl FnMut(u64) -> Snapshot {
    let (pts, alive) = universe(0xFA17, 8.0, 14.0, 0.2);
    let mut g = IncrementalGraph::build(pts, alive, IncTopology::Udg { radius: 1.0 }, 4);
    move |epoch| {
        let deaths: Vec<u32> = (0..g.points().len() as u32)
            .filter(|&u| g.alive()[u as usize] && u % 13 == epoch as u32)
            .collect();
        g.apply_churn(&deaths, &[]);
        assert_ne!(
            Some(epoch),
            fail_at,
            "writer dies before capturing epoch {epoch}"
        );
        Snapshot::capture(epoch, &g)
    }
}

/// Four readers; reader `who` panics while serving epoch `at`.
fn lockstep_with_failing_reader(epochs: u64, who: usize, at: u64) -> String {
    panic_within_watchdog(move || {
        run_lockstep(
            epochs,
            4,
            churning_writer(None),
            |r| (r, 0usize),
            |(r, served): &mut (usize, usize), snap: &Snapshot| {
                *served += snap.n_alive();
                assert!(
                    !(*r == who && snap.epoch == at),
                    "reader {who} dies mid-epoch {at}"
                );
            },
        )
    })
}

#[test]
fn writer_panic_before_publish_fails_fast() {
    let message = panic_within_watchdog(|| {
        run_lockstep(4, 2, churning_writer(Some(1)), |_| (), |_, _: &Snapshot| ())
    });
    assert!(
        message.contains("writer dies before capturing epoch 1"),
        "unexpected panic: {message}"
    );
}

#[test]
fn reader_panic_mid_epoch_fails_fast() {
    let message = lockstep_with_failing_reader(4, 2, 1);
    assert!(
        message.contains("reader 2 hung up before releasing epoch 1"),
        "unexpected panic: {message}"
    );
}

#[test]
fn reader_panic_on_the_last_epoch_fails_fast() {
    let message = lockstep_with_failing_reader(4, 0, 3);
    assert!(
        message.contains("reader 0 hung up before releasing epoch 3"),
        "unexpected panic: {message}"
    );
}

// ---------------------------------------------------------------------
// 6. The release soak (--ignored).
// ---------------------------------------------------------------------

/// 10⁵-node universe, 50 epochs of clustered blackouts with reserve
/// joins, 4 readers: snapshot residency stays bounded (no leak), every
/// snapshot retires at quiescence, epochs publish monotonically (one
/// fingerprint per epoch, changing whenever churn actually struck), and
/// the answers still match the single-threaded replay byte for byte.
#[test]
#[ignore = "release soak: run with cargo test --release --test serve_concurrency -- --ignored"]
fn soak_100k_nodes_50_epochs_bounded_and_deterministic() {
    let (pts, alive) = universe(0x50A7 ^ 0xFFFF, 100.0, 10.0, 0.125);
    assert!(pts.len() > 90_000, "universe came up short: {}", pts.len());
    let mut churn = ChurnConfig::new(50, 1e12, 0, 0.10, 0.5);
    churn.churn_model = ChurnModel::Clustered { radius: 5.0 };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, 4, 8, 12);
    cfg.seed = 0x50AC;
    let kind = IncTopology::Udg { radius: 1.0 };

    let report = run_serve(&pts, &alive, kind, &cfg);
    assert_eq!(report.epochs, 50);
    assert_eq!(report.errors, 0);
    assert!(report.qps > 0.0);
    assert_eq!(report.epoch_fingerprints.len(), 50, "one publish per epoch");
    assert_eq!(report.snapshots_published, 50);
    assert_eq!(
        report.snapshots_retired, report.snapshots_published,
        "soak leaked snapshots"
    );
    assert!(
        report.max_live_snapshots <= 2,
        "lockstep residency bound violated: {} live",
        report.max_live_snapshots
    );
    assert!(
        report.deaths_total > 0 && report.joins_total > 0,
        "soak schedule produced no churn"
    );
    // Monotone epoch progression with real topology movement: adjacent
    // fingerprints differ whenever that epoch actually churned — over 50
    // epochs at 10% clustered churn, at least half must move.
    let moved = report
        .epoch_fingerprints
        .windows(2)
        .filter(|w| w[0] != w[1])
        .count();
    assert!(moved >= 25, "only {moved}/49 epochs moved the topology");

    let oracle = run_replay(&pts, &alive, kind, &cfg);
    assert_identical(&report, &oracle, "soak 100k/50-epoch");
}
