//! The serve query engine on a frozen snapshot: `run_replay` over a
//! quiescent schedule (no deaths, no joins, no traffic), so every epoch's
//! repair is empty and the measured time is the reader's queries plus one
//! capture per epoch. Prints queries/s, p50 and p99 per topology beside
//! the shim's time per call; set-up (deployment, graph build) is outside
//! the report's clock.
//!
//! ```bash
//! cargo bench -p wsn-bench --bench serve_reader     # WSN_QUICK=1: 2·10⁴ nodes
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wsn_geom::Aabb;
use wsn_pointproc::{rng_from_seed, sample_poisson_window};
use wsn_rgg::IncTopology;
use wsn_simnet::{run_replay, ChurnConfig, ServeConfig};

/// The perfbench `serve-mixed` query shape: 8 clients, a hot set of four
/// route sources and a 512-entry route cache per client.
fn frozen_config(queries: usize) -> ServeConfig {
    let mut churn = ChurnConfig::new(4, 1e12, 0, 0.0, 0.0);
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, 1, 8, queries);
    cfg.hot_routes = 4;
    cfg.cache_capacity = 512;
    cfg.seed = 0x5E12;
    cfg
}

fn bench_frozen_reader(c: &mut Criterion) {
    let quick = std::env::var("WSN_QUICK").is_ok_and(|v| v != "0");
    let side = if quick { 45.0 } else { 100.0 };
    let pts = sample_poisson_window(&mut rng_from_seed(9), 10.0, &Aabb::square(side));
    let alive = vec![true; pts.len()];
    let cfg = frozen_config(2_000);
    let mut group = c.benchmark_group("serve_reader");
    for kind in [IncTopology::Udg { radius: 1.0 }, IncTopology::Knn { k: 6 }] {
        let id = BenchmarkId::new(kind.label(), pts.len());
        group.bench_with_input(id.clone(), &kind, |b, &kind| {
            let mut last = None;
            b.iter(|| last = Some(black_box(run_replay(&pts, &alive, kind, &cfg))));
            let r = last.expect("the shim runs every bench at least once");
            assert_eq!(r.errors, 0, "a frozen snapshot answers every query");
            println!(
                "serve_reader: {:<10} n={} queries/call={} qps={:.0} p50_us={:.2} p99_us={:.2} cache_hits={}",
                kind.label(),
                pts.len(),
                r.queries,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.cache_hits,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frozen_reader);
criterion_main!(benches);
