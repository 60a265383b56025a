//! Chunked-CSR differential suite.
//!
//! The churn engine keeps its graph as a chunked CSR instead of
//! rebuilding a monolithic one per epoch (Θ(n + m) even for a 1-shard
//! repair): per-shard chunks that each own their rows, spliced on the
//! worker pool from each repair's coalesced edge delta. The contract
//! is double:
//!
//! 1. **Byte identity.** The chunked representation densified
//!    ([`ChunkedCsr::to_dense`]) must be byte-identical to a cold
//!    monolithic rebuild after any churn — for every topology kind,
//!    deployment model, dirty-shard footprint, and `RAYON_NUM_THREADS` —
//!    and [`fingerprint`] must agree across both representations. There
//!    is no bless step: a divergence is a splice-routing bug (usually a
//!    cross-shard emission whose endpoint's owner chunk was skipped),
//!    never an intentional change.
//! 2. **Splice locality.** The splice's work counters must scale with the
//!    churned region: a 1-shard churn touches a bounded neighbourhood of
//!    chunks, a quiescent epoch touches none, and sustained churn inside
//!    one shard keeps every chunk's buffer bounded by its live rows.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};
use wsn::geom::hash::derive_seed2;
use wsn::geom::Aabb;
use wsn::graph::fingerprint;
use wsn::pointproc::matern::sample_matern_ii;
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::{IncTopology, IncrementalGraph};

/// Serialises every test in this binary: the thread-matrix test mutates
/// `RAYON_NUM_THREADS` while the others trigger reads of it inside the
/// rayon shim, and concurrent `setenv`/`getenv` is undefined behaviour.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const KINDS: [IncTopology; 5] = [
    IncTopology::Udg { radius: 1.0 },
    IncTopology::Knn { k: 4 },
    IncTopology::Gabriel { radius: 1.0 },
    IncTopology::Rng { radius: 1.0 },
    IncTopology::Yao {
        radius: 1.0,
        cones: 6,
    },
];

/// Same window/shard geometry as `churn_locality.rs`: a 16-unit window at
/// 4 tiles per shard gives enough interior shards to craft 1- and 3-shard
/// churn footprints.
const SIDE: f64 = 16.0;
const TILES_PER_SHARD: usize = 4;

fn deployments(seed: u64) -> Vec<(&'static str, PointSet)> {
    let window = Aabb::square(SIDE);
    let poisson = sample_poisson_window(&mut rng_from_seed(seed), 12.0, &window);
    let matern = sample_matern_ii(&mut rng_from_seed(seed ^ 0xA5), 20.0, 0.12, &window);
    vec![("poisson", poisson), ("matern2", matern)]
}

/// Interior shards of the plan (finite core blocks on every side).
fn interior_shards(g: &IncrementalGraph) -> Vec<usize> {
    let grid = g.grid();
    let (cols, rows) = (grid.cols(), grid.rows());
    let mut out = Vec::new();
    for j in 1..rows.saturating_sub(1) {
        for i in 1..cols.saturating_sub(1) {
            out.push(j * cols + i);
        }
    }
    out
}

/// Churn footprints dirtying exactly 1, exactly 3, or all shards (each
/// region is a shard's core block shrunk by the halo, as in the locality
/// suite).
fn footprints(g: &IncrementalGraph) -> Vec<(&'static str, Vec<Aabb>)> {
    let interior = interior_shards(g);
    let shrink = |s: usize| g.grid().padded(s, 0.0).inflate(-g.halo());
    let mut out = Vec::new();
    if !interior.is_empty() {
        out.push(("1-shard", vec![shrink(interior[0])]));
    }
    if interior.len() >= 3 {
        out.push((
            "3-shard",
            interior[..3].iter().map(|&s| shrink(s)).collect(),
        ));
    }
    out.push((
        "all",
        vec![Aabb::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        )],
    ));
    out
}

/// Hash-scheduled churn inside the union of `regions`: ~30% of the alive
/// population dies, every dead (reserve) node re-joins.
fn churn_in_regions(g: &IncrementalGraph, regions: &[Aabb], seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut deaths = Vec::new();
    let mut joins = Vec::new();
    for (u, p) in g.points().iter_enumerated() {
        if !regions.iter().any(|r| r.contains(p)) {
            continue;
        }
        if g.alive()[u as usize] {
            if derive_seed2(seed, 1, u as u64) % 10 < 3 {
                deaths.push(u);
            }
        } else {
            joins.push(u);
        }
    }
    (deaths, joins)
}

fn build(points: &PointSet, kind: IncTopology) -> IncrementalGraph {
    // A fifth of the universe starts dead as the join reserve.
    let alive: Vec<bool> = (0..points.len()).map(|i| i % 5 != 4).collect();
    IncrementalGraph::build(points.clone(), alive, kind, TILES_PER_SHARD)
}

/// Chunked == densified == cold, and the fingerprint cannot tell the
/// representations apart.
fn assert_representations_agree(g: &IncrementalGraph, ctx: &str) {
    let dense = g.graph().to_dense();
    assert_eq!(*g.graph(), dense, "{ctx}: chunked != its own densification");
    assert_eq!(
        fingerprint(g.graph()),
        fingerprint(&dense),
        "{ctx}: fingerprint distinguishes chunked from dense"
    );
    assert!(g.verify_cold(), "{ctx}: diverged from cold rebuild");
}

/// The headline matrix: every kind × deployment × dirty-shard footprint
/// {1, 3, all} × `RAYON_NUM_THREADS` {1, 4, 8}. After every epoch the
/// spliced chunked CSR must densify to the cold rebuild's exact bytes and
/// fingerprint, and the whole trajectory must be thread-count invariant.
#[test]
fn chunked_equals_monolithic_across_the_matrix() {
    let _guard = env_guard();
    for (dname, points) in deployments(0xC4 + 0x10CA1) {
        for kind in KINDS {
            let mut prints_per_thread: Vec<(String, Vec<u64>)> = Vec::new();
            for threads in ["1", "4", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let mut g = build(&points, kind);
                let mut prints = vec![fingerprint(g.graph())];
                for (fname, regions) in footprints(&g) {
                    let (deaths, joins) = churn_in_regions(&g, &regions, 0xFEE);
                    if deaths.is_empty() && joins.is_empty() {
                        continue;
                    }
                    let stats = g.apply_churn(&deaths, &joins);
                    let ctx = format!(
                        "{dname}/{kind:?}/{fname}/threads={threads} \
                         ({} deaths, {} joins)",
                        deaths.len(),
                        joins.len()
                    );
                    assert_representations_agree(&g, &ctx);
                    assert!(
                        stats.spliced_chunks > 0,
                        "{ctx}: churn produced an edge delta but spliced no chunks"
                    );
                    prints.push(fingerprint(g.graph()));
                }
                prints_per_thread.push((threads.to_string(), prints));
            }
            std::env::remove_var("RAYON_NUM_THREADS");
            let (ref t0, ref p0) = prints_per_thread[0];
            for (t, p) in &prints_per_thread[1..] {
                assert_eq!(
                    p, p0,
                    "{dname}/{kind:?}: fingerprint trajectory at {t} threads \
                     diverged from {t0} threads"
                );
            }
        }
    }
}

/// Every incremental kind (HNG included) stays byte-identical to the cold
/// rebuild after the initial build and after every repair, across
/// deployment × footprint {1, 3, all}.
#[test]
fn every_kind_matches_cold_after_build_and_each_repair() {
    let _guard = env_guard();
    let hng = IncTopology::Hng {
        p: 0.5,
        links: 1,
        seed: 0x48_4E_47,
    };
    for (dname, points) in deployments(0x5027) {
        for kind in KINDS.into_iter().chain([hng]) {
            let mut g = build(&points, kind);
            assert!(g.verify_cold(), "{dname}/{kind:?}/build");
            for (fname, regions) in footprints(&g) {
                let (deaths, joins) = churn_in_regions(&g, &regions, 0x50E7);
                g.apply_churn(&deaths, &joins);
                let ctx = format!("{dname}/{kind:?}/{fname}");
                assert!(g.verify_cold(), "{ctx}: diverged from cold rebuild");
            }
        }
    }
}

/// Splice work tracks the churn footprint: a quiescent epoch touches zero
/// chunks, and a 1-shard churn touches far fewer chunks than an
/// all-shards churn. (Owner-chunk routing means a 1-shard churn may touch
/// neighbour chunks whose nodes share cross-shard edges — bounded by the
/// halo, not by the shard count.)
#[test]
fn splice_work_scales_with_the_churned_region() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(0x5CA1E), 12.0, &Aabb::square(SIDE));
    for kind in [
        IncTopology::Udg { radius: 1.0 },
        IncTopology::Rng { radius: 1.0 },
        IncTopology::Yao {
            radius: 1.0,
            cones: 6,
        },
    ] {
        let mut g = build(&points, kind);
        let chunk_total = g.graph().chunk_count();
        assert!(chunk_total >= 9, "{kind:?}: plan too coarse for the test");

        // Quiescent epoch: no churn, no delta, no chunks touched.
        let s0 = g.apply_churn(&[], &[]);
        assert_eq!(s0.spliced_chunks, 0, "{kind:?}: quiescent epoch spliced");

        let fps = footprints(&g);
        let (_, one_region) = &fps[0];
        let (_, all_region) = fps.last().unwrap();

        let (d1, j1) = churn_in_regions(&g, one_region, 0xAB);
        let s1 = g.apply_churn(&d1, &j1);
        // Restore, then churn everything with the same schedule.
        g.apply_churn(&j1, &d1);
        let (da, ja) = churn_in_regions(&g, all_region, 0xAB);
        let sa = g.apply_churn(&da, &ja);

        assert!(s1.spliced_chunks > 0, "{kind:?}: 1-shard churn must splice");
        assert!(
            s1.spliced_chunks * 3 < sa.spliced_chunks,
            "{kind:?}: spliced {} chunks (1 shard) vs {} (all) — not \
             locality-proportional",
            s1.spliced_chunks,
            sa.spliced_chunks
        );
        assert!(
            sa.spliced_chunks <= chunk_total,
            "{kind:?}: spliced more chunks than exist"
        );
        assert!(g.verify_cold(), "{kind:?}");
    }
}

/// No chunk keeps more buffer than twice its live entries plus a page.
fn assert_storage_bounded(g: &IncrementalGraph, ctx: &str) {
    let csr = g.graph();
    for c in 0..csr.chunk_count() {
        let (live, capacity) = csr.chunk_storage(c);
        assert!(
            capacity <= 2 * live + 64,
            "{ctx}: chunk {c} holds {capacity} entries of buffer for {live} live"
        );
    }
}

/// Sustained churn inside one shard rewrites its chunk again and again
/// with a different degree profile each time, while the splice workers
/// swap their merge buffers between chunks. The graph stays
/// byte-identical to the cold rebuild after every round and every undo,
/// and no chunk's buffer grows without bound.
#[test]
fn oscillating_churn_stays_identical_with_bounded_chunk_storage() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(0x51AC), 14.0, &Aabb::square(SIDE));
    let kind = IncTopology::Udg { radius: 1.0 };
    let mut g = build(&points, kind);
    assert_storage_bounded(&g, "build");
    let fps = footprints(&g);
    let (_, one_region) = &fps[0];

    let mut spliced = 0usize;
    for round in 0..20u64 {
        let (deaths, joins) = churn_in_regions(&g, one_region, 0x0DD ^ round);
        if deaths.is_empty() && joins.is_empty() {
            continue;
        }
        spliced += g.apply_churn(&deaths, &joins).spliced_chunks;
        let ctx = format!("round {round}");
        assert_representations_agree(&g, &ctx);
        assert_storage_bounded(&g, &ctx);
        // Undo the round so the next one draws a fresh schedule against
        // the same baseline population.
        spliced += g.apply_churn(&joins, &deaths).spliced_chunks;
        let ctx = format!("round {round} (undo)");
        assert_representations_agree(&g, &ctx);
        assert_storage_bounded(&g, &ctx);
    }
    assert!(spliced > 0, "20 oscillation rounds never spliced a chunk");
}

/// Extinction and resurrection through the splice path: killing everything
/// leaves an all-empty chunked CSR (m = 0) that still densifies to the
/// cold rebuild, and re-admitting the population splices it back.
#[test]
fn extinction_and_resurrection_stay_identical() {
    let _guard = env_guard();
    let points = sample_poisson_window(&mut rng_from_seed(3), 12.0, &Aabb::square(5.0));
    let n = points.len() as u32;
    for kind in [IncTopology::Rng { radius: 1.0 }, IncTopology::Knn { k: 3 }] {
        let mut g = IncrementalGraph::build(points.clone(), vec![true; n as usize], kind, 2);
        let evens: Vec<u32> = (0..n).filter(|u| u % 2 == 0).collect();
        let odds: Vec<u32> = (0..n).filter(|u| u % 2 == 1).collect();
        g.apply_churn(&evens, &[]);
        assert_representations_agree(&g, &format!("{kind:?} first wave"));
        g.apply_churn(&odds, &[]);
        assert_eq!(g.graph().m(), 0, "{kind:?}: extinct graph keeps edges");
        assert_representations_agree(&g, &format!("{kind:?} extinct"));
        g.apply_churn(&[], &evens);
        assert_representations_agree(&g, &format!("{kind:?} resurrected"));
        assert!(g.graph().m() > 0, "{kind:?}: resurrection spliced no edges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised schedules: arbitrary seeds, kill probabilities and epoch
    /// counts keep the spliced chunked CSR byte-identical to the cold
    /// rebuild (and fingerprint-equal to its densification) for every
    /// kind.
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
            let mut deaths = Vec::new();
            let mut joins = Vec::new();
            for u in 0..g.points().len() as u32 {
                let h = derive_seed2(seed ^ 0xFEED, e, u as u64);
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                if g.alive()[u as usize] {
                    if unit < p_fail {
                        deaths.push(u);
                    }
                } else if unit < 0.3 {
                    joins.push(u);
                }
            }
            g.apply_churn(&deaths, &joins);
            let dense = g.graph().to_dense();
            prop_assert!(
                *g.graph() == dense,
                "{:?} seed {} epoch {}: chunked != densification",
                kind, seed, e
            );
            prop_assert!(
                fingerprint(g.graph()) == fingerprint(&dense),
                "{:?} seed {} epoch {}: fingerprint diverged",
                kind, seed, e
            );
            prop_assert!(
                g.verify_cold(),
                "{:?} seed {} epoch {} diverged from cold rebuild",
                kind, seed, e
            );
        }
    }
}
