//! Criterion microbenches for the substrates: Poisson sampling, spatial
//! index queries, and graph algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsn_geom::hash::derive_seed2;
use wsn_geom::{Aabb, Point};
use wsn_graph::bfs::BfsScratch;
use wsn_pointproc::{rng_from_seed, sample_poisson, sample_poisson_window};
use wsn_spatial::GridIndex;

fn bench_poisson_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_sampler");
    for mean in [2.0, 50.0, 5000.0] {
        group.bench_with_input(BenchmarkId::from_parameter(mean), &mean, |b, &mean| {
            let mut rng = rng_from_seed(1);
            b.iter(|| black_box(sample_poisson(&mut rng, mean)))
        });
    }
    group.finish();
}

fn bench_spatial_queries(c: &mut Criterion) {
    let window = Aabb::square(50.0);
    let pts = sample_poisson_window(&mut rng_from_seed(2), 10.0, &window);
    let idx = GridIndex::build(&pts, 1.0);
    let mut out = Vec::new();
    c.bench_function("grid_in_disk_r1", |b| {
        b.iter(|| {
            idx.in_disk(Point::new(25.0, 25.0), 1.0, &mut out);
            black_box(out.len())
        })
    });
    c.bench_function("grid_knn_16", |b| {
        b.iter(|| black_box(idx.knn(Point::new(25.0, 25.0), 16, None)))
    });
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let window = Aabb::square(40.0);
    let pts = sample_poisson_window(&mut rng_from_seed(3), 5.0, &window);
    let g = wsn_rgg::build_udg(&pts, 1.0);
    c.bench_function("udg_bfs_full", |b| {
        b.iter(|| black_box(wsn_graph::bfs::distances(&g, 0)))
    });
    c.bench_function("udg_dijkstra_full", |b| {
        b.iter(|| {
            black_box(wsn_graph::dijkstra::distances(&g, 0, |u, v| {
                pts.get(u).dist(pts.get(v))
            }))
        })
    });
    c.bench_function("udg_components", |b| {
        b.iter(|| black_box(wsn_graph::components::connected_components(&g)))
    });
}

/// Plain vs guided shortest-hop routing on a 10⁵-node UDG at λ = 10: 64
/// seeded pairs at least half the window apart, one iteration = all 64
/// queries. Both searches return the same paths; the guided one searches
/// only the lens its edge-length bound allows.
fn bench_route_search(c: &mut Criterion) {
    let side = 100.0;
    let pts = sample_poisson_window(&mut rng_from_seed(4), 10.0, &Aabb::square(side));
    let g = wsn_rgg::build_udg(&pts, 1.0);
    let n = pts.len() as u64;
    let pairs: Vec<(u32, u32)> = (0u64..)
        .map(|i| {
            let s = (derive_seed2(0x7A11, i, 0) % n) as u32;
            let t = (derive_seed2(0x7A11, i, 1) % n) as u32;
            (s, t)
        })
        .filter(|&(s, t)| pts.get(s).dist(pts.get(t)) >= side / 2.0)
        .take(64)
        .collect();
    let mut plain = BfsScratch::new(g.n());
    let mut guided = BfsScratch::new(g.n());
    let (mut plain_visited, mut guided_visited) = (0, 0);
    for &(s, t) in &pairs {
        let want = plain.path(&g, s, t);
        plain_visited += plain.visited();
        let got = guided.guided_path(&g, s, t, Some(1.0), |u| pts.get(u));
        guided_visited += guided.visited();
        assert_eq!(got, want, "guided and plain paths differ for {s}->{t}");
    }
    println!(
        "route search: {} nodes, {} far pairs, mean visited per query plain {} guided {}",
        n,
        pairs.len(),
        plain_visited / pairs.len(),
        guided_visited / pairs.len()
    );
    c.bench_function("udg_1e5_route_plain_64_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(s, t)| plain.path(&g, s, t).map_or(0, |p| p.len()))
                .sum::<usize>()
        })
    });
    c.bench_function("udg_1e5_route_guided_64_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(s, t)| {
                    guided
                        .guided_path(&g, s, t, Some(1.0), |u| pts.get(u))
                        .map_or(0, |p| p.len())
                })
                .sum::<usize>()
        })
    });
}

criterion_group!(
    benches,
    bench_poisson_sampler,
    bench_spatial_queries,
    bench_graph_algorithms,
    bench_route_search
);
criterion_main!(benches);
