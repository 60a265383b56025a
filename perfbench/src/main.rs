//! Command line of the benchmark:
//!
//! ```text
//! wsn-perfbench --workload <build-cold|lifetime-churn|serve-mixed>
//!               --seed <u64> --seconds <n> --trace <0|1> [--scale <full|mini>]
//! ```
//!
//! `--scale mini` runs a seconds-long miniature of the workload (the
//! benchmark's own test uses it); the default is the measured size.
//!
//! Prints the run's notes, one `name value unit` line per metric, and as the
//! last line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when an output check fails, 2 on a usage error.

use std::process::ExitCode;

use wsn_perfbench::common::{Outcome, Scale};
use wsn_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "mini" => Scale::Mini,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The result's metrics in table order: every end-to-end metric untraced,
/// every per-layer metric traced (0 where the workload makes no such call).
fn table(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let names = if trace { PER_LAYER } else { END_TO_END };
    names
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            assert!(
                trace || value.is_some(),
                "end-to-end metric {name} was not measured"
            );
            (name, value.unwrap_or(0.0), unit)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wsn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = wsn_perfbench::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.scale,
    )
    .expect("workload name was validated");
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.mismatches {
        println!("MISMATCH: {m}");
    }
    let rows = table(&out, args.trace);
    let mut metrics = Vec::new();
    for &(name, value, unit) in &rows {
        println!("{name} {value} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.correct() && rows.iter().all(|r| r.1.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
