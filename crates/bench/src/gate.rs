//! The CI performance-regression gates.
//!
//! `wsn-scenarios gate`, `gate-lifetime` and `gate-serve` compare a freshly
//! measured bench document against the committed baseline of the same kind
//! (`BENCH_pipeline.json`, `BENCH_lifetime.json`, `BENCH_serve.json`). Both
//! sides are read as the typed reports the emitters write
//! ([`BenchReport`], [`LifetimeBenchReport`], [`ServeBenchReport`]) by
//! [`parse`], which first checks the `schema` tag against the version this
//! gate was built for and names that version on a mismatch. A document
//! that does not deserialize (a partial run missing a section, a row
//! missing a field, a value of the wrong type) is rejected with the side
//! and the path of the field, before any comparison runs.
//!
//! Every row field is one of two kinds, and each kind is gated one way.
//!
//! **Schedule-deterministic fields are gated exactly.** Node and edge
//! counts, the distributed construction's rounds and per-shard message
//! accounting, dirty / gathered / churned counts,
//! deaths, joins and survivors, queries, errors and the cache-hit rate,
//! snapshot counts, the identity flags and the whole renewal section are a
//! pure function of the seed. A fresh row must equal the baseline row of
//! the same key on each of them, on any host and at any thread count.
//! Rows present on only one side are skipped (the committed baselines
//! carry the full size grid, CI measures the quick one), but a fresh
//! document that matches no baseline row at all fails: that is a wrong
//! baseline file, not a pass. The identity flags (`edge_identical`,
//! `fingerprint_identical`, `identical`, zero query errors) bind on every
//! fresh row, matched or not.
//!
//! **Timing fields are gated only by ratios inside the fresh run.** Each
//! timing is the median of [`REPEATS`](crate::REPEATS) runs; no timing is
//! ever compared with the committed document, whose host may differ.
//!
//! * lifetime: per topology × size, the all-dirty rung's median repair
//!   over the most-local rung's is at least [`LOCALITY_MIN_RATIO`] (repair
//!   cost tracks the churned region), and the most-local repair beats the
//!   cold rebuild;
//! * pipeline: each row's sharded build runs at least
//!   [`MIN_SHARDED_SPEEDUP`] times the monolithic oracle's speed, and each
//!   thread-scaling point at least [`MIN_SCALING_RATIO`] times its own
//!   `threads = 1` point's;
//! * serve: each reader count's qps is at least [`MIN_SCALING_RATIO`] times
//!   the `readers = 1` row's.
//!
//! **Self-checks** bind each document on its own ([`BenchDoc::self_check`]):
//! every lifetime document must carry the complete renewal policy set with
//! renewal out-living the drain-only baseline. A *full* (`quick: false`)
//! document — in practice the committed baseline, since CI's runs are
//! quick-sized — must also hold the rungs no quick run reaches:
//!
//! * the **splice floor**: the UDG most-local sweep row at
//!   [`SPLICE_FLOOR_N_TARGET`] nodes has speedup ≥
//!   [`SPLICE_FLOOR_MIN_SPEEDUP`];
//! * the **k-NN certificate rung**: the k-NN most-local row at the same
//!   size has speedup ≥ [`KNN_LOCAL_MIN_SPEEDUP`];
//! * **HNG presence**: the sweep records hierarchical-neighbor-graph rows;
//! * **parallel efficiency**: the pipeline's thread-scaling curve shows
//!   `speedup_vs_serial > 1` and efficiency ≥ [`MIN_PARALLEL_EFFICIENCY`]
//!   on every point with `1 < threads ≤ host_cpus` (vacuous on a 1-core
//!   recording host, whose honest curve is flat).

use serde::Deserialize;

use crate::lifetime::{
    LifetimeBenchReport, LifetimeBenchRow, LocalitySweepRow, RenewalBenchRow, LIFETIME_SCHEMA,
    RENEWAL_POLICIES,
};
use crate::pipeline::{
    BenchReport, BenchRow, DistributedRow, ThreadScalingRow, PIPELINE_SCHEMA, THREAD_LADDER,
};
use crate::serve::{ServeBenchReport, ServeBenchRow, SERVE_SCHEMA};

/// Minimum ratio of the all-dirty rung's median repair time to the
/// most-local rung's, per topology × size of a fresh locality sweep. The
/// all-dirty rung churns 25–64× more shards than the most-local one at
/// the quick size; with medians of five the ratio sat at 10–90× on a
/// 2-vCPU host at 1 and 2 threads, while a repair that gathers globally
/// costs nearly the same at every rung.
pub const LOCALITY_MIN_RATIO: f64 = 4.0;

/// Minimum `monolithic_secs / sharded_secs` of a fresh pipeline row. The
/// sharded path is the production build; at the quick size it runs from
/// about half the oracle's speed (UDG-SENS, whose build is a millisecond)
/// to several times it (RNG). A quarter catches a sharded path that
/// collapsed, not the fixed cost of sharding a tiny deployment.
pub const MIN_SHARDED_SPEEDUP: f64 = 0.25;

/// Minimum throughput of a thread-scaling point relative to its own
/// `threads = 1` point, and of a serve row relative to its `readers = 1`
/// row. Oversubscribed points (more workers than cores) measure about
/// 1×; adding workers must never halve throughput.
pub const MIN_SCALING_RATIO: f64 = 0.5;

/// The deployment size of the splice-floor acceptance rung.
pub const SPLICE_FLOOR_N_TARGET: u64 = 1_000_000;

/// Minimum UDG most-local (`target_dirty_shards == 1`) speedup a full
/// committed baseline must record at [`SPLICE_FLOOR_N_TARGET`] nodes. The
/// monolithic per-epoch `to_csr` capped this rung at ~4.2× (the splice was
/// O(n + m) no matter how local the churn); the chunked splice recorded
/// ~1680× on the baseline host, so 100× keeps an order of magnitude of
/// headroom for slower recording hosts while sitting far above anything an
/// O(n + m) splice could reach. UDG carries the claim because its repair
/// derivation is the cheapest — it was the topology the splice floor
/// dominated.
pub const SPLICE_FLOOR_MIN_SPEEDUP: f64 = 100.0;

/// Minimum k-NN most-local speedup a full committed baseline must record
/// at [`SPLICE_FLOOR_N_TARGET`] nodes. The whole-group `covers_all`
/// certificate re-derived whole straggler groups against escalated
/// extents and floored this rung at ~342× (~111× at 10⁵); the per-group
/// kth-distance margin certificate (escalate only when the kth candidate
/// actually reaches past the padded box's interior margin) recorded
/// ~369× at 10⁶ and ~142× at 10⁵ on the baseline host. 150× sits with
/// ~2.5× headroom under the measurement for slower recording hosts while
/// staying far above the always-escalating failure mode this rung exists
/// to catch (a whole-population index per epoch lands near 0.5×, like
/// HNG's clique stragglers).
pub const KNN_LOCAL_MIN_SPEEDUP: f64 = 150.0;

/// Minimum parallel efficiency (`speedup_vs_serial / threads`) a full
/// committed baseline must record on every thread-scaling point with
/// `1 < threads ≤ host_cpus`. 0.35 is deliberately loose — the shim's
/// fan-out pays a queue lock per batch and the builds have serial stitch
/// phases — but it is far above the ~`1/threads` efficiency of a fan-out
/// that stopped parallelising at all, which is the regression this floor
/// exists to catch. Points with `threads > host_cpus` measure
/// oversubscription and are exempt.
pub const MIN_PARALLEL_EFFICIENCY: f64 = 0.35;

/// Outcome of one gate evaluation.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Each check that held, with how many times, in first-seen order.
    pub checks: Vec<(String, usize)>,
    /// Human-readable failures; empty = gate passes.
    pub failures: Vec<String>,
    /// Fresh rows without a baseline counterpart (informational).
    pub skipped: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// How many times `check` held.
    pub fn held(&self, check: &str) -> usize {
        self.checks
            .iter()
            .find(|(c, _)| c == check)
            .map_or(0, |(_, n)| *n)
    }

    fn hold(&mut self, check: &str) {
        match self.checks.iter_mut().find(|(c, _)| c == check) {
            Some((_, n)) => *n += 1,
            None => self.checks.push((check.to_string(), 1)),
        }
    }

    /// Record one evaluation of `check`: a hold, or `failure()`.
    fn check(&mut self, ok: bool, check: &str, failure: impl FnOnce() -> String) {
        if ok {
            self.hold(check);
        } else {
            self.failures.push(failure());
        }
    }
}

/// A bench document the gates read.
pub trait BenchDoc: Deserialize {
    /// The `schema` tag this gate expects.
    const SCHEMA: &'static str;

    /// Compare a fresh document against the committed baseline.
    fn gate(baseline: &Self, fresh: &Self) -> GateReport;

    /// The checks this document must pass on its own (see module docs).
    fn self_check(&self, _side: &str, _report: &mut GateReport) {}
}

/// Just the tag, read before the whole document so a foreign or stale file
/// is named as such instead of failing on its first missing field.
#[derive(Deserialize)]
struct SchemaTag {
    schema: String,
}

/// Read one side (`"baseline"` or `"fresh"`) of a gate as a `T`.
pub fn parse<T: BenchDoc>(side: &str, json: &str) -> Result<T, String> {
    let expects = T::SCHEMA;
    let tag: SchemaTag = serde_json::from_str(json).map_err(|e| {
        format!(
            "{side} document has no readable \"schema\" tag ({e}); this gate expects \"{expects}\""
        )
    })?;
    if tag.schema != expects {
        return Err(format!(
            "{side} document schema is \"{}\" but this gate expects \"{expects}\" — stale \
             baseline or mismatched emitter?",
            tag.schema
        ));
    }
    serde_json::from_str(json).map_err(|e| format!("{side} document: {e}"))
}

/// A row's key: the fields that name it, which also label its diagnostics.
trait Keyed {
    fn key(&self) -> String;
}

impl Keyed for BenchRow {
    fn key(&self) -> String {
        format!("{} @ n={}", self.topology, self.n_target)
    }
}

impl Keyed for ThreadScalingRow {
    fn key(&self) -> String {
        format!(
            "{} @ n={} threads={}",
            self.topology, self.n_target, self.threads
        )
    }
}

impl Keyed for DistributedRow {
    fn key(&self) -> String {
        format!("n={}", self.n_target)
    }
}

impl Keyed for LifetimeBenchRow {
    fn key(&self) -> String {
        format!("{} @ n={}", self.topology, self.n_target)
    }
}

impl Keyed for LocalitySweepRow {
    fn key(&self) -> String {
        format!(
            "{} @ n={} locality={}",
            self.topology, self.n_target, self.target_dirty_shards
        )
    }
}

impl Keyed for RenewalBenchRow {
    fn key(&self) -> String {
        self.policy.clone()
    }
}

impl Keyed for ServeBenchRow {
    fn key(&self) -> String {
        format!(
            "{} @ n={} readers={}",
            self.topology, self.n_target, self.readers
        )
    }
}

/// Pair each fresh row of `section` with the baseline row of the same key,
/// labelled `"{section} {key}"`. Fresh rows without a counterpart are
/// skipped; if none has one, the gate fails: the documents share nothing
/// to compare.
fn pairs<'a, R: Keyed>(
    report: &mut GateReport,
    section: &str,
    baseline: &'a [R],
    fresh: &'a [R],
) -> Vec<(&'a R, &'a R, String)> {
    let mut out = Vec::new();
    for row in fresh {
        let (key, label) = (row.key(), format!("{section} {}", row.key()));
        match baseline.iter().find(|b| b.key() == key) {
            Some(base) => out.push((base, row, label)),
            None => report.skipped.push(label),
        }
    }
    if out.is_empty() {
        report.failures.push(format!(
            "no fresh {section} row matched any baseline row — wrong baseline file?"
        ));
    }
    out
}

/// Gate the named schedule-deterministic fields of each matched row pair of
/// `section` exactly; a mismatch names the row, the side and the field.
macro_rules! exact {
    ($report:expr, $section:ident, $baseline:expr, $fresh:expr; $($field:ident),+ $(,)?) => {
        for (base, fresh, label) in pairs(
            &mut $report, stringify!($section), &$baseline.$section, &$fresh.$section,
        ) {
            let mut same = true;
            $(if fresh.$field != base.$field {
                same = false;
                $report.failures.push(format!(
                    "{label}: fresh {} {:?} != baseline {:?}",
                    stringify!($field), fresh.$field, base.$field
                ));
            })+
            if same {
                $report.hold(concat!("exact counts: ", stringify!($section)));
            }
        }
    };
}

/// The rows of `rows` grouped into runs of one topology × size.
fn curves<R>(rows: &[R], curve: impl Fn(&R) -> (&str, u64)) -> impl Iterator<Item = &[R]> {
    rows.chunk_by(move |a, b| curve(a) == curve(b))
}

impl BenchDoc for BenchReport {
    const SCHEMA: &'static str = PIPELINE_SCHEMA;

    fn gate(baseline: &Self, fresh: &Self) -> GateReport {
        let mut report = GateReport::default();
        for row in &fresh.rows {
            let label = format!("rows {}", row.key());
            report.check(
                row.edge_identical,
                "sharded build equals the oracle",
                || format!("{label}: fresh edge_identical is false"),
            );
            report.check(
                row.speedup >= MIN_SHARDED_SPEEDUP,
                &format!("sharded median build ≥ {MIN_SHARDED_SPEEDUP}× the oracle's speed"),
                || {
                    format!(
                        "{label}: fresh speedup {:.2}x is below {MIN_SHARDED_SPEEDUP}x",
                        row.speedup
                    )
                },
            );
        }
        exact!(report, rows, baseline, fresh; nodes, edges, shards, shard_tiles, lambda, side);

        for row in &fresh.thread_scaling {
            let label = format!("thread_scaling {}", row.key());
            report.check(
                row.edge_identical,
                "scaling point equals threads = 1",
                || format!("{label}: fresh edge_identical is false"),
            );
            report.check(
                row.threads == 1 || row.speedup_vs_serial >= MIN_SCALING_RATIO,
                &format!("scaling point ≥ {MIN_SCALING_RATIO}× its threads = 1 speed"),
                || {
                    let s = row.speedup_vs_serial;
                    format!(
                        "{label}: fresh speedup_vs_serial {s:.2}x is below {MIN_SCALING_RATIO}x"
                    )
                },
            );
        }
        // A sweep that silently dropped a thread count would thin the curve
        // without failing any per-row check.
        for curve in curves(&fresh.thread_scaling, |r| (&r.topology, r.n_target)) {
            let threads: Vec<usize> = curve.iter().map(|r| r.threads).collect();
            report.check(threads == THREAD_LADDER, "thread ladder complete", || {
                format!(
                    "thread_scaling {} @ n={}: fresh thread ladder {threads:?} is incomplete — \
                     expected {THREAD_LADDER:?}",
                    curve[0].topology, curve[0].n_target
                )
            });
        }
        exact!(report, thread_scaling, baseline, fresh; nodes, edge_identical);
        exact!(report, distributed, baseline, fresh; nodes, rounds, msgs_total, accounting);
        baseline.self_check("baseline", &mut report);
        fresh.self_check("fresh", &mut report);
        report
    }

    fn self_check(&self, side: &str, report: &mut GateReport) {
        if self.quick {
            return;
        }
        report.check(
            !self.thread_scaling.is_empty(),
            "full document records a thread-scaling curve",
            || format!("{side}: full document records no thread_scaling rows"),
        );
        let host_cpus = self.host_cpus;
        for row in &self.thread_scaling {
            if row.threads <= 1 || row.threads > host_cpus {
                continue;
            }
            report.check(
                row.speedup_vs_serial > 1.0 && row.efficiency >= MIN_PARALLEL_EFFICIENCY,
                &format!("full-document parallel efficiency ≥ {MIN_PARALLEL_EFFICIENCY}"),
                || {
                    format!(
                        "{side} thread_scaling {}: speedup_vs_serial {:.2}x, efficiency {:.2} \
                         on a {host_cpus}-core recording host — the fan-out stopped scaling \
                         (needs speedup > 1 and efficiency ≥ {MIN_PARALLEL_EFFICIENCY})",
                        row.key(),
                        row.speedup_vs_serial,
                        row.efficiency
                    )
                },
            );
        }
    }
}

impl BenchDoc for LifetimeBenchReport {
    const SCHEMA: &'static str = LIFETIME_SCHEMA;

    fn gate(baseline: &Self, fresh: &Self) -> GateReport {
        let mut report = GateReport::default();
        // Identity on every fresh row: a faster repair that walks a
        // different topology is a bug.
        for row in &fresh.rows {
            report.check(
                row.edge_identical,
                "lifetime run equals the rebuild run",
                || format!("rows {}: fresh edge_identical is false", row.key()),
            );
        }
        for row in &fresh.locality_sweep {
            report.check(
                row.fingerprint_identical,
                "sweep rung equals the cold rebuild",
                || {
                    format!(
                        "locality_sweep {}: fresh fingerprint_identical is false",
                        row.key()
                    )
                },
            );
        }
        exact!(report, rows, baseline, fresh;
            nodes, epochs, edge_identical, verified_cold, mean_dirty_shards,
            final_alive, deaths_total, delivered_total);
        exact!(report, locality_sweep, baseline, fresh;
            nodes, shard_count, mean_dirty_shards, mean_gathered,
            churned_nodes, repeats, fingerprint_identical);
        exact!(report, renewal, baseline, fresh;
            topology, nodes, epochs, lifetime_rounds, partitioned, recharged_total,
            final_alive, deaths_battery, final_battery_variance, delivered_fraction);

        for curve in curves(&fresh.locality_sweep, |r| (&r.topology, r.n_target)) {
            let (local, all) = (&curve[0], &curve[curve.len() - 1]);
            let label = format!("locality_sweep {} @ n={}", local.topology, local.n_target);
            if local.target_dirty_shards != 1 || all.target_dirty_shards != all.shard_count {
                report.failures.push(format!(
                    "{label}: fresh curve lacks its most-local (1) or all-dirty ({}) rung",
                    all.shard_count
                ));
                continue;
            }
            let (repair, rebuild) = (local.median_repair_secs, local.median_rebuild_secs);
            let ratio = all.median_repair_secs / repair;
            report.check(
                ratio >= LOCALITY_MIN_RATIO,
                &format!("all-dirty ÷ most-local median repair ≥ {LOCALITY_MIN_RATIO}×"),
                || {
                    format!(
                        "{label}: fresh all-dirty median repair is only {ratio:.2}x the \
                         most-local one (floor {LOCALITY_MIN_RATIO}x) — repair cost stopped \
                         tracking the churned region"
                    )
                },
            );
            report.check(
                repair < rebuild,
                "most-local median repair beats the cold rebuild",
                || {
                    format!(
                    "{label}: fresh most-local median repair {repair:.5}s does not beat the cold \
                     rebuild {rebuild:.5}s"
                )
                },
            );
        }
        baseline.self_check("baseline", &mut report);
        fresh.self_check("fresh", &mut report);
        report
    }

    fn self_check(&self, side: &str, report: &mut GateReport) {
        // The renewal invariants: the complete policy set, a drain-only row
        // that actually partitioned (otherwise every comparison is censored
        // at the horizon), and the two energy-adding policies strictly
        // out-living it. Sink rotation adds no energy and is exempt.
        let found: Vec<&str> = self.renewal.iter().map(|r| r.policy.as_str()).collect();
        if found != RENEWAL_POLICIES {
            report.failures.push(format!(
                "{side} renewal section: expected policies {RENEWAL_POLICIES:?}, found {found:?}"
            ));
        } else {
            let (none, adding) = (&self.renewal[0], &self.renewal[1..3]);
            report.check(
                none.partitioned,
                "drain-only renewal row partitions",
                || {
                    format!(
                    "{side} renewal section: the drain-only row never partitioned — the renewal \
                     comparison is censored at the horizon"
                )
                },
            );
            for row in adding {
                report.check(
                    row.lifetime_rounds > none.lifetime_rounds,
                    "renewal out-lives the drain-only row",
                    || {
                        format!(
                            "{side} renewal section: {} lifetime {} rounds does not strictly \
                             exceed the drain-only baseline's {}",
                            row.policy, row.lifetime_rounds, none.lifetime_rounds
                        )
                    },
                );
            }
        }
        if self.quick {
            return;
        }
        for (prefix, floor, what) in [
            (
                "udg",
                SPLICE_FLOOR_MIN_SPEEDUP,
                "the one-dirty-shard epoch cost regressed toward O(n + m)",
            ),
            (
                "knn",
                KNN_LOCAL_MIN_SPEEDUP,
                "the margin certificate regressed toward over-escalation",
            ),
        ] {
            let rung = self.locality_sweep.iter().find(|r| {
                r.topology.starts_with(prefix)
                    && r.n_target == SPLICE_FLOOR_N_TARGET
                    && r.target_dirty_shards == 1
            });
            let Some(rung) = rung else {
                report.failures.push(format!(
                    "{side} has no {prefix} most-local sweep row at n={SPLICE_FLOOR_N_TARGET} — \
                     the {prefix} floor rung is not recorded"
                ));
                continue;
            };
            report.check(
                rung.speedup >= floor,
                "full-document floor rung holds",
                || {
                    format!(
                    "{side} {prefix} @ n={SPLICE_FLOOR_N_TARGET} locality=1: speedup {:.2}x is \
                     below the {prefix} floor {floor:.1}x — {what}",
                    rung.speedup
                )
                },
            );
        }
        let hng = self
            .locality_sweep
            .iter()
            .any(|r| r.topology.starts_with("hng"));
        report.check(hng, "full document records hng sweep rows", || {
            format!(
                "{side} records no hng locality-sweep rows — the HNG topology dropped out of \
                 the repair economics"
            )
        });
    }
}

impl BenchDoc for ServeBenchReport {
    const SCHEMA: &'static str = SERVE_SCHEMA;

    fn gate(baseline: &Self, fresh: &Self) -> GateReport {
        let mut report = GateReport::default();
        // Identity on every fresh row: a service that got faster by
        // answering differently (or by failing queries) is a bug.
        for row in &fresh.rows {
            let label = format!("rows {}", row.key());
            report.check(row.identical, "answers equal the replay oracle's", || {
                format!("{label}: fresh identical is false")
            });
            report.check(row.errors == 0, "zero query errors", || {
                format!("{label}: fresh errors {} (query errors)", row.errors)
            });
        }
        exact!(report, rows, baseline, fresh;
            nodes, epochs, clients, queries_per_client, queries, errors, cache_hit_rate,
            identical, deaths_total, joins_total, final_alive, snapshots_published,
            snapshots_retired, max_live_snapshots);
        for curve in curves(&fresh.rows, |r| (&r.topology, r.n_target)) {
            let label = format!("rows {} @ n={}", curve[0].topology, curve[0].n_target);
            let Some(one) = curve.iter().find(|r| r.readers == 1) else {
                report
                    .failures
                    .push(format!("{label}: fresh reader sweep has no readers=1 row"));
                continue;
            };
            for row in curve.iter().filter(|r| r.readers > 1) {
                let ratio = row.qps / one.qps;
                report.check(
                    ratio >= MIN_SCALING_RATIO,
                    &format!("reader row ≥ {MIN_SCALING_RATIO}× the readers = 1 qps"),
                    || {
                        format!(
                            "{label} readers={}: fresh median qps is {ratio:.2}x the readers=1 \
                             row's (floor {MIN_SCALING_RATIO}x)",
                            row.readers
                        )
                    },
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_simnet::ShardAccounting;

    /// Assert some failure mentions every needle.
    fn fails_with(report: &GateReport, needles: &[&str]) {
        assert!(
            report
                .failures
                .iter()
                .any(|f| needles.iter().all(|n| f.contains(n))),
            "no failure mentions {needles:?}: {:?}",
            report.failures
        );
    }

    /// The parse error of `doc` serialised with its first `field` key
    /// renamed away, read as the fresh side.
    fn parse_without<T: BenchDoc + serde::Serialize>(doc: &T, field: &str) -> String {
        let json = serde_json::to_string(doc).unwrap().replacen(
            &format!("\"{field}\":"),
            "\"renamed\":",
            1,
        );
        match parse::<T>("fresh", &json) {
            Ok(_) => panic!("a document without {field} parsed"),
            Err(e) => e,
        }
    }

    fn pipeline_row(topology: &str, n: u64) -> BenchRow {
        BenchRow {
            topology: topology.into(),
            n_target: n,
            nodes: n - 50,
            edges: 5 * n,
            shards: 4,
            sharded_secs: 0.02,
            monolithic_secs: 0.03,
            speedup: 1.5,
            edge_identical: true,
            ..Default::default()
        }
    }

    /// A thread ladder whose every multi-thread point runs `speedup` times
    /// the `threads = 1` point.
    fn ladder(topology: &str, n: u64, speedup: f64) -> Vec<ThreadScalingRow> {
        THREAD_LADDER
            .iter()
            .map(|&threads| {
                let s = if threads == 1 { 1.0 } else { speedup };
                ThreadScalingRow {
                    topology: topology.into(),
                    n_target: n,
                    nodes: n - 50,
                    threads,
                    build_secs: 0.02 / s,
                    speedup_vs_serial: s,
                    efficiency: s / threads as f64,
                    edge_identical: true,
                    ..Default::default()
                }
            })
            .collect()
    }

    fn pipeline() -> BenchReport {
        BenchReport {
            schema: PIPELINE_SCHEMA.into(),
            quick: true,
            seed: 1,
            threads: 2,
            vm_hwm_kb: 0,
            host_cpus: 2,
            rows: vec![pipeline_row("udg(r=1)", 10000)],
            thread_scaling: ladder("udg(r=1)", 10000, 1.0),
            distributed: vec![DistributedRow {
                n_target: 5000,
                nodes: 4980,
                rounds: 4,
                msgs_total: 13000,
                build_secs: 0.01,
                accounting: ShardAccounting {
                    shards: 2,
                    tiles_per_shard: 16,
                    msgs_per_shard: vec![7000, 6000],
                    msgs_outside: 0,
                    msgs_border: 2500,
                    msgs_max_shard: 7000,
                },
            }],
        }
    }

    #[test]
    fn passes_within_the_band() {
        let base = pipeline();
        let g = BenchDoc::gate(&base, &base);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.held("exact counts: rows"), 1);
        assert_eq!(g.held("exact counts: thread_scaling"), 4);
        assert_eq!(g.held("exact counts: distributed"), 1);
        assert_eq!(g.held("thread ladder complete"), 1);
        // Timings are never compared across documents: a host ten times
        // slower passes, and within-run ratios exactly at their floors pass.
        let mut slow = base.clone();
        slow.rows[0].sharded_secs *= 40.0;
        slow.rows[0].monolithic_secs *= 10.0;
        slow.rows[0].speedup = MIN_SHARDED_SPEEDUP;
        slow.thread_scaling = ladder("udg(r=1)", 10000, MIN_SCALING_RATIO);
        let g2 = BenchDoc::gate(&base, &slow);
        assert!(g2.passed(), "{:?}", g2.failures);
    }

    #[test]
    fn fails_below_the_band() {
        let base = pipeline();
        let mut fresh = base.clone();
        fresh.rows[0].speedup = MIN_SHARDED_SPEEDUP * 0.9;
        let g = BenchDoc::gate(&base, &fresh);
        fails_with(
            &g,
            &["rows udg(r=1) @ n=10000", "fresh speedup", "below 0.25x"],
        );
        fresh.thread_scaling[2].speedup_vs_serial = MIN_SCALING_RATIO * 0.9;
        let g2 = BenchDoc::gate(&base, &fresh);
        fails_with(&g2, &["threads=4", "fresh speedup_vs_serial", "below 0.5x"]);
    }

    #[test]
    fn pipeline_gate_fails_on_one_edge_off() {
        let base = pipeline();
        let mut fresh = base.clone();
        fresh.rows[0].edges += 1;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &[
                "rows udg(r=1) @ n=10000",
                "fresh edges 50001",
                "baseline 50000",
            ],
        );
    }

    #[test]
    fn pipeline_gate_fails_on_a_doctored_message_count() {
        let base = pipeline();
        let mut fresh = base.clone();
        fresh.distributed[0].build_secs *= 10.0;
        assert!(
            BenchDoc::gate(&base, &fresh).passed(),
            "timings are not counts"
        );
        fresh.distributed[0].msgs_total += 1;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &[
                "distributed n=5000",
                "fresh msgs_total 13001",
                "baseline 13000",
            ],
        );
        let mut fresh = base.clone();
        fresh.distributed[0].accounting.msgs_per_shard[1] -= 1;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &["distributed n=5000", "fresh accounting"],
        );
    }

    #[test]
    fn fails_on_non_identical_edges_even_without_baseline_match() {
        let base = pipeline();
        let mut fresh = base.clone();
        fresh.rows.push(BenchRow {
            edge_identical: false,
            ..pipeline_row("rng(r=1)", 10000)
        });
        let g = BenchDoc::gate(&base, &fresh);
        fails_with(&g, &["rows rng(r=1) @ n=10000", "edge_identical is false"]);
        assert_eq!(g.skipped, vec!["rows rng(r=1) @ n=10000".to_string()]);
    }

    #[test]
    fn unmatched_rows_are_skipped_not_failed() {
        let base = pipeline();
        let mut fresh = base.clone();
        fresh.rows.push(pipeline_row("udg(r=1)", 1_000_000));
        let g = BenchDoc::gate(&base, &fresh);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.held("exact counts: rows"), 1);
        assert_eq!(g.skipped, vec!["rows udg(r=1) @ n=1000000".to_string()]);
    }

    #[test]
    fn disjoint_documents_fail_loudly() {
        // A fresh document sharing no row with the baseline compared
        // nothing: fail rather than green-light a wrong baseline file.
        let base = pipeline();
        let mut disjoint = base.clone();
        disjoint.rows = vec![pipeline_row("yao(r=1,c=6)", 10000)];
        disjoint.thread_scaling = ladder("yao(r=1,c=6)", 10000, 1.0);
        let g = BenchDoc::gate(&base, &disjoint);
        fails_with(&g, &["no fresh rows row matched", "wrong baseline"]);
        fails_with(&g, &["no fresh thread_scaling row matched"]);
        assert_eq!(g.held("exact counts: rows"), 0);
        let mut empty = base.clone();
        empty.rows.clear();
        fails_with(
            &BenchDoc::gate(&base, &empty),
            &["no fresh rows row matched"],
        );
    }

    #[test]
    fn missing_throughput_fields_fail_not_pass() {
        // A document missing a field no longer reads as 0 or 1: it does not
        // parse, and the error names the field and where it is.
        let e = parse_without(&pipeline(), "host_cpus");
        assert!(
            e.contains("fresh document: missing field `host_cpus` in BenchReport"),
            "{e}"
        );
        let e = parse_without(&pipeline(), "sharded_secs");
        assert!(
            e.contains("rows[0]: missing field `sharded_secs` in BenchRow"),
            "{e}"
        );
        let e = parse_without(&pipeline(), "speedup_vs_serial");
        assert!(
            e.contains("thread_scaling[0]: missing field `speedup_vs_serial`"),
            "{e}"
        );
        let e = parse_without(&serve(), "qps");
        assert!(
            e.contains("rows[0]: missing field `qps` in ServeBenchRow"),
            "{e}"
        );
    }

    #[test]
    fn missing_sections_fail_with_a_named_diagnostic() {
        for section in ["rows", "thread_scaling"] {
            let e = parse_without(&pipeline(), section);
            assert!(e.starts_with("fresh document: missing field"), "{e}");
            assert!(e.contains(&format!("`{section}` in BenchReport")), "{e}");
        }
        for section in ["rows", "locality_sweep", "renewal"] {
            let e = parse_without(&lifetime(), section);
            assert!(
                e.contains(&format!("fresh document: missing field `{section}`")),
                "{e}"
            );
        }
        let e = parse_without(&serve(), "rows");
        assert!(
            e.contains("fresh document: missing field `rows` in ServeBenchReport"),
            "{e}"
        );
    }

    #[test]
    fn thread_scaling_rows_hold_identity_band_and_ladder() {
        let base = pipeline();
        // A non-identical scaling point fails even without a baseline match.
        let mut leaky = base.clone();
        let mut curve = ladder("rng(r=1)", 10000, 1.0);
        curve[2].edge_identical = false;
        leaky.thread_scaling.extend(curve);
        fails_with(
            &BenchDoc::gate(&base, &leaky),
            &[
                "thread_scaling rng(r=1) @ n=10000 threads=4",
                "edge_identical is false",
            ],
        );
        // A point below its own threads = 1 speed fails, naming its threads.
        let slow = BenchReport {
            thread_scaling: ladder("udg(r=1)", 10000, 0.4),
            ..base.clone()
        };
        fails_with(&BenchDoc::gate(&base, &slow), &["threads=8", "below 0.5x"]);
        // A curve that dropped a ladder point fails the completeness check.
        let mut thin = base.clone();
        thin.thread_scaling.remove(1);
        fails_with(
            &BenchDoc::gate(&base, &thin),
            &["fresh thread ladder [1, 4, 8] is incomplete"],
        );
        // A doctored count on a matched point fails too.
        let mut off = base.clone();
        off.thread_scaling[3].nodes += 1;
        fails_with(&BenchDoc::gate(&base, &off), &["threads=8: fresh nodes"]);
    }

    #[test]
    fn full_baseline_scaling_self_checks_bind_only_in_core_points() {
        let fresh = pipeline();
        let full = |host_cpus: usize, speedup: f64| BenchReport {
            quick: false,
            host_cpus,
            thread_scaling: ladder("udg(r=1)", 10000, speedup),
            ..pipeline()
        };
        // 1.8x at every point holds the efficiency floor at 2 and 4 threads.
        let g = BenchDoc::gate(&full(4, 1.8), &fresh);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.held("full-document parallel efficiency ≥ 0.35"), 2);
        // A flat curve on a multi-core host: the fan-out stopped scaling.
        fails_with(
            &BenchDoc::gate(&full(8, 1.0), &fresh),
            &[
                "baseline thread_scaling udg(r=1) @ n=10000 threads=2",
                "stopped scaling",
            ],
        );
        // Positive but inefficient speedup fails the efficiency floor.
        fails_with(
            &BenchDoc::gate(&full(8, 1.8), &fresh),
            &["threads=8", "efficiency 0.23"],
        );
        // The same flat curve recorded on one core is exempt.
        assert!(BenchDoc::gate(&full(1, 1.0), &fresh).passed());
        // A full baseline with no curve at all fails.
        let mut bare = full(8, 1.8);
        bare.thread_scaling.clear();
        fails_with(&BenchDoc::gate(&bare, &fresh), &["no thread_scaling rows"]);
    }

    /// A locality curve with the given median repair seconds per rung,
    /// most local first; the last rung dirties every shard.
    fn curve(topology: &str, n: u64, repair: &[f64]) -> Vec<LocalitySweepRow> {
        let shard_count = 64;
        repair
            .iter()
            .enumerate()
            .map(|(i, &secs)| {
                let target = if i + 1 == repair.len() {
                    shard_count
                } else {
                    1 + 8 * i as u64
                };
                LocalitySweepRow {
                    topology: topology.into(),
                    n_target: n,
                    nodes: n - 100,
                    shard_count,
                    target_dirty_shards: target,
                    mean_dirty_shards: target as f64,
                    mean_gathered: 300.0 * target as f64,
                    churned_nodes: 40 * target,
                    repeats: 5,
                    median_repair_secs: secs,
                    median_splice_secs: secs / 2.0,
                    median_rebuild_secs: 0.05,
                    speedup: 0.05 / secs,
                    fingerprint_identical: true,
                    ..Default::default()
                }
            })
            .collect()
    }

    fn renewal_row(policy: &str, lifetime_rounds: u64, partitioned: bool) -> RenewalBenchRow {
        RenewalBenchRow {
            policy: policy.into(),
            topology: "udg(r=1)".into(),
            nodes: 322,
            epochs: 18,
            lifetime_rounds,
            partitioned,
            ..Default::default()
        }
    }

    fn lifetime() -> LifetimeBenchReport {
        LifetimeBenchReport {
            schema: LIFETIME_SCHEMA.into(),
            quick: true,
            seed: 1,
            threads: 2,
            host_cpus: 2,
            rows: vec![LifetimeBenchRow {
                topology: "udg(r=1)".into(),
                n_target: 10000,
                nodes: 9933,
                epochs: 5,
                edge_identical: true,
                verified_cold: true,
                mean_dirty_shards: 12.4,
                final_alive: 6000,
                ..Default::default()
            }],
            locality_sweep: curve("udg(r=1)", 10000, &[0.001, 0.01, 0.1]),
            renewal: vec![
                renewal_row("none", 7, true),
                renewal_row("mobile-charger", 18, false),
                renewal_row("solar", 18, false),
                renewal_row("sink-rotation", 7, true),
            ],
        }
    }

    #[test]
    fn lifetime_gate_passes_within_the_band_and_pins_only_the_local_rung() {
        let base = lifetime();
        let g = BenchDoc::gate(&base, &base);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.held("exact counts: locality_sweep"), 3);
        assert_eq!(g.held("all-dirty ÷ most-local median repair ≥ 4×"), 1);
        assert_eq!(g.held("most-local median repair beats the cold rebuild"), 1);
        // Three times slower everywhere, with a middle rung that costs as
        // much as the all-dirty one: the ratios bind only the most-local
        // and all-dirty rungs of the fresh run, so this passes.
        let mut slow = base.clone();
        slow.locality_sweep = curve("udg(r=1)", 10000, &[0.003, 0.3, 0.3]);
        for row in &mut slow.locality_sweep {
            row.median_rebuild_secs *= 3.0;
        }
        let g2 = BenchDoc::gate(&base, &slow);
        assert!(g2.passed(), "{:?}", g2.failures);
    }

    #[test]
    fn lifetime_gate_fails_on_within_run_ratios_below_their_floors() {
        let base = lifetime();
        // Repair that costs about the same at every rung: global, not local.
        let mut flat = base.clone();
        flat.locality_sweep = curve("udg(r=1)", 10000, &[0.02, 0.03, 0.06]);
        fails_with(
            &BenchDoc::gate(&base, &flat),
            &[
                "locality_sweep udg(r=1) @ n=10000",
                "only 3.00x",
                "stopped tracking",
            ],
        );
        // A most-local repair slower than the cold rebuild.
        let mut slow = base.clone();
        slow.locality_sweep = curve("udg(r=1)", 10000, &[0.06, 0.6, 6.0]);
        fails_with(
            &BenchDoc::gate(&base, &slow),
            &["does not beat the cold rebuild"],
        );
        // A curve without its all-dirty rung cannot be judged.
        let mut cut = base.clone();
        cut.locality_sweep.pop();
        fails_with(
            &BenchDoc::gate(&base, &cut),
            &["lacks its most-local (1) or all-dirty (64) rung"],
        );
    }

    #[test]
    fn lifetime_gate_fails_on_one_rederived_shard_off() {
        let base = lifetime();
        let mut fresh = base.clone();
        fresh.locality_sweep[0].mean_dirty_shards += 1.0;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &[
                "locality_sweep udg(r=1) @ n=10000 locality=1",
                "fresh mean_dirty_shards 2.0",
                "baseline 1.0",
            ],
        );
        let mut fresh = base.clone();
        fresh.rows[0].deaths_total += 1;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &["rows udg(r=1) @ n=10000", "fresh deaths_total 1"],
        );
        let mut fresh = base.clone();
        fresh.renewal[2].final_alive = 316;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &["renewal solar", "fresh final_alive 316"],
        );
    }

    #[test]
    fn lifetime_gate_fails_on_lost_identity_anywhere() {
        let base = lifetime();
        let mut fresh = base.clone();
        let mut other = curve("rng(r=1)", 10000, &[0.001, 0.1]);
        other[1].fingerprint_identical = false;
        fresh.locality_sweep.extend(other);
        fresh.rows[0].edge_identical = false;
        let g = BenchDoc::gate(&base, &fresh);
        fails_with(
            &g,
            &[
                "locality_sweep rng(r=1) @ n=10000 locality=64",
                "fingerprint_identical is false",
            ],
        );
        fails_with(&g, &["rows udg(r=1) @ n=10000", "edge_identical is false"]);
    }

    #[test]
    fn lifetime_gate_skips_unmatched_and_fails_on_disjoint_docs() {
        let base = lifetime();
        let mut fresh = base.clone();
        fresh
            .locality_sweep
            .extend(curve("udg(r=1)", 1_000_000, &[0.001, 0.1]));
        let g = BenchDoc::gate(&base, &fresh);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.skipped.len(), 2, "{:?}", g.skipped);
        let mut disjoint = base.clone();
        disjoint.locality_sweep = curve("yao(r=1,c=6)", 10000, &[0.001, 0.1]);
        fails_with(
            &BenchDoc::gate(&base, &disjoint),
            &["no fresh locality_sweep row matched"],
        );
    }

    #[test]
    fn renewal_gate_requires_the_full_policy_set_with_named_diagnostics() {
        let base = lifetime();
        let mut missing = base.clone();
        missing.renewal.remove(2);
        fails_with(
            &BenchDoc::gate(&base, &missing),
            &[
                "fresh renewal section",
                "expected policies",
                "solar",
                "found",
            ],
        );
    }

    #[test]
    fn renewal_gate_pins_strict_exceed_and_an_uncensored_baseline() {
        let base = lifetime();
        let mut tied = base.clone();
        tied.renewal[1] = renewal_row("mobile-charger", 7, true);
        fails_with(
            &BenchDoc::gate(&tied, &base),
            &["baseline renewal section", "mobile-charger", "strictly"],
        );
        let mut censored = base.clone();
        censored.renewal[0] = renewal_row("none", 18, false);
        fails_with(
            &BenchDoc::gate(&base, &censored),
            &["fresh renewal section", "censored"],
        );
    }

    /// A full lifetime document with the given most-local speedups on the
    /// UDG and k-NN floor rungs and an HNG curve, minus the curve `drop`.
    fn full_lifetime(drop: &str, udg: f64, knn: f64) -> LifetimeBenchReport {
        let mut doc = LifetimeBenchReport {
            quick: false,
            ..lifetime()
        };
        for (name, topology, n, local) in [
            ("udg", "udg(r=1)", SPLICE_FLOOR_N_TARGET, 0.1 / udg),
            ("knn", "knn(k=8)", SPLICE_FLOOR_N_TARGET, 0.1 / knn),
            ("hng", "hng(p=0.5,m=1)", 10000, 0.001),
        ] {
            if name != drop {
                let mut rows = curve(topology, n, &[local, 0.1]);
                rows[0].median_rebuild_secs = 0.1;
                rows[0].speedup = 0.1 / local;
                doc.locality_sweep.extend(rows);
            }
        }
        doc
    }

    #[test]
    fn full_baseline_self_checks_hold_all_three_rungs() {
        let fresh = lifetime();
        let (udg, knn) = (SPLICE_FLOOR_MIN_SPEEDUP + 2.0, KNN_LOCAL_MIN_SPEEDUP + 2.0);
        let g = BenchDoc::gate(&full_lifetime("", udg, knn), &fresh);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.held("full-document floor rung holds"), 2);
        let low = full_lifetime(
            "",
            SPLICE_FLOOR_MIN_SPEEDUP - 1.0,
            KNN_LOCAL_MIN_SPEEDUP - 1.0,
        );
        let g2 = BenchDoc::gate(&low, &fresh);
        fails_with(&g2, &["baseline udg", "below the udg floor"]);
        fails_with(&g2, &["baseline knn", "below the knn floor"]);
        for (drop, diagnostic) in [
            ("udg", "udg floor rung is not recorded"),
            ("knn", "knn floor rung is not recorded"),
            ("hng", "no hng locality-sweep rows"),
        ] {
            let g3 = BenchDoc::gate(&full_lifetime(drop, udg, knn), &fresh);
            fails_with(&g3, &[diagnostic]);
        }
        // Quick documents never reach the 10⁶ size: no floor rungs asked.
        assert!(BenchDoc::gate(&fresh, &fresh).passed());
    }

    fn serve_rows(topology: &str, qps: [f64; 4]) -> Vec<ServeBenchRow> {
        [1, 2, 4, 8]
            .into_iter()
            .zip(qps)
            .map(|(readers, qps)| ServeBenchRow {
                topology: topology.into(),
                n_target: 100000,
                nodes: 100289,
                readers,
                epochs: 5,
                queries: 2560,
                qps,
                cache_hit_rate: 0.022,
                identical: true,
                snapshots_published: 5,
                snapshots_retired: 5,
                max_live_snapshots: 2,
                ..Default::default()
            })
            .collect()
    }

    fn serve() -> ServeBenchReport {
        ServeBenchReport {
            schema: SERVE_SCHEMA.into(),
            quick: true,
            seed: 1,
            threads: 2,
            host_cpus: 2,
            rows: serve_rows("udg(r=1)", [5000.0, 5400.0, 5300.0, 5100.0]),
        }
    }

    #[test]
    fn serve_gate_passes_within_the_band_and_fails_below() {
        let base = serve();
        let g = BenchDoc::gate(&base, &base);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.held("exact counts: rows"), 4);
        assert_eq!(g.held("reader row ≥ 0.5× the readers = 1 qps"), 3);
        // A tenth of the baseline's qps, with exactly half the readers = 1
        // rate at 8 readers, still passes: no qps crosses documents.
        let slow = ServeBenchReport {
            rows: serve_rows("udg(r=1)", [500.0, 540.0, 530.0, 250.0]),
            ..base.clone()
        };
        assert!(BenchDoc::gate(&base, &slow).passed());
        let collapsed = ServeBenchReport {
            rows: serve_rows("udg(r=1)", [5000.0, 5400.0, 5300.0, 2250.0]),
            ..base.clone()
        };
        fails_with(
            &BenchDoc::gate(&base, &collapsed),
            &["readers=8", "0.45x the readers=1 row's"],
        );
        let mut no_single = base.clone();
        no_single.rows.remove(0);
        fails_with(&BenchDoc::gate(&base, &no_single), &["no readers=1 row"]);
    }

    #[test]
    fn serve_gate_fails_on_a_doctored_count() {
        let base = serve();
        let mut fresh = base.clone();
        fresh.rows[1].queries += 1;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &["rows udg(r=1) @ n=100000 readers=2", "fresh queries 2561"],
        );
        let mut fresh = base.clone();
        fresh.rows[2].cache_hit_rate = 0.021;
        fails_with(
            &BenchDoc::gate(&base, &fresh),
            &["fresh cache_hit_rate 0.021"],
        );
    }

    #[test]
    fn serve_gate_fails_on_divergence_or_errors_even_unmatched() {
        let base = serve();
        let mut fresh = base.clone();
        let mut other = serve_rows("rng(r=1)", [3000.0; 4]);
        other[3].identical = false;
        other[1].errors = 3;
        fresh.rows.extend(other);
        let g = BenchDoc::gate(&base, &fresh);
        fails_with(&g, &["rng(r=1) @ n=100000 readers=8", "identical is false"]);
        fails_with(&g, &["rng(r=1) @ n=100000 readers=2", "query errors"]);
    }

    #[test]
    fn serve_gate_skips_unmatched_and_fails_disjoint_or_partial_docs() {
        let base = serve();
        let mut fresh = base.clone();
        fresh.rows.extend(serve_rows("rng(r=1)", [3000.0; 4]));
        let g = BenchDoc::gate(&base, &fresh);
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.skipped.len(), 4);
        let disjoint = ServeBenchReport {
            rows: serve_rows("knn(k=8)", [3000.0; 4]),
            ..base.clone()
        };
        fails_with(
            &BenchDoc::gate(&base, &disjoint),
            &["no fresh rows row matched"],
        );
        let e = parse_without(&serve(), "host_cpus");
        assert!(
            e.contains("missing field `host_cpus` in ServeBenchReport"),
            "{e}"
        );
    }

    #[test]
    fn schema_mismatch_fails_naming_the_expected_version() {
        let stale = serde_json::to_string(&pipeline())
            .unwrap()
            .replace(PIPELINE_SCHEMA, "wsn-bench-pipeline/1");
        let e = parse::<BenchReport>("baseline", &stale).unwrap_err();
        assert!(
            e.contains("baseline")
                && e.contains("\"wsn-bench-pipeline/1\"")
                && e.contains(PIPELINE_SCHEMA),
            "{e}"
        );
        let e = parse::<LifetimeBenchReport>("fresh", r#"{"rows": []}"#).unwrap_err();
        assert!(
            e.contains("fresh") && e.contains("\"schema\" tag") && e.contains(LIFETIME_SCHEMA),
            "{e}"
        );
        let e = parse::<ServeBenchReport>("fresh", "{} trailing").unwrap_err();
        assert!(e.contains(SERVE_SCHEMA), "{e}");
        // The three kinds never read each other's documents.
        let serve_json = serde_json::to_string(&serve()).unwrap();
        assert!(parse::<LifetimeBenchReport>("fresh", &serve_json).is_err());
        assert!(parse::<ServeBenchReport>("fresh", &serve_json).is_ok());
    }
}
