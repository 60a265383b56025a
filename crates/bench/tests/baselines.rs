//! The committed bench baselines are live documents. Each one deserializes
//! as its typed report, passes the gate's self-checks, and is byte for byte
//! what the emitter writes for its own contents, so a stale or hand-edited
//! baseline fails here and not only in the CI perf job.

use std::path::Path;

use serde::Serialize;
use wsn_bench::gate::{parse, BenchDoc, GateReport};
use wsn_bench::lifetime::LifetimeBenchReport;
use wsn_bench::pipeline::BenchReport;
use wsn_bench::serve::ServeBenchReport;

/// The bytes the emitter writes: pretty JSON and a final newline.
fn emitted<T: Serialize>(doc: &T) -> String {
    let mut json = serde_json::to_string_pretty(doc).unwrap();
    json.push('\n');
    json
}

/// Read a committed baseline, require it to be exactly what the emitter
/// writes for its contents, and run its self-checks.
fn committed<T: BenchDoc + Serialize>(file: &str) -> (T, GateReport) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc: T = parse("committed", &text).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert!(
        emitted(&doc) == text,
        "{file} differs from what the emitter writes for its own contents — hand-edited?"
    );
    let mut report = GateReport::default();
    doc.self_check("committed", &mut report);
    assert!(report.passed(), "{file}: {:?}", report.failures);
    (doc, report)
}

/// Serialize, deserialize and serialize again: identical bytes.
fn round_trips<T: BenchDoc + Serialize>(doc: &T) {
    let json = emitted(doc);
    let back: T = parse("round-trip", &json).unwrap();
    assert_eq!(emitted(&back), json);
}

#[test]
fn committed_baselines_parse_pass_their_self_checks_and_round_trip() {
    let (mut pipeline, report) = committed::<BenchReport>("BENCH_pipeline.json");
    assert!(
        !pipeline.quick,
        "a quick pipeline baseline skips the self-checks"
    );
    assert_eq!(
        report.held("full document records a thread-scaling curve"),
        1
    );
    pipeline.rows.truncate(1);
    pipeline.thread_scaling.truncate(2);
    round_trips(&pipeline);

    let (mut lifetime, report) = committed::<LifetimeBenchReport>("BENCH_lifetime.json");
    assert!(
        !lifetime.quick,
        "a quick lifetime baseline skips the floor rungs"
    );
    assert_eq!(report.held("full-document floor rung holds"), 2);
    assert_eq!(report.held("full document records hng sweep rows"), 1);
    lifetime.rows.truncate(1);
    lifetime.locality_sweep.truncate(2);
    round_trips(&lifetime);

    let (mut serve, _) = committed::<ServeBenchReport>("BENCH_serve.json");
    assert!(!serve.quick);
    serve.rows.truncate(2);
    round_trips(&serve);
}
