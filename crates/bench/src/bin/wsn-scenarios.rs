//! `wsn-scenarios` — the unified experiment driver.
//!
//! One binary replaces the fifteen `exp_*` binaries that used to live in
//! this directory: every paper claim is a named preset of the
//! `wsn-scenario` crate, run over the declarative scenario matrix with
//! deterministic per-replication seeds.
//!
//! ```text
//! wsn-scenarios list                      # the preset catalogue
//! wsn-scenarios run --all                 # full-profile run, aligned tables
//! wsn-scenarios run sparsity coverage     # a subset
//! wsn-scenarios run --quick --out DIR     # quick profile + JSON reports
//! wsn-scenarios check --all               # quick run vs tests/golden (CI)
//! wsn-scenarios bless --all               # regenerate tests/golden
//! ```
//!
//! `check` and `bless` always use the quick profile and the default seed:
//! that is the configuration the golden files pin. Byte-identical output at
//! any `RAYON_NUM_THREADS` is part of the contract `check` verifies.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wsn_bench::gate::{self, BenchDoc};
use wsn_bench::lifetime::LifetimeBenchReport;
use wsn_bench::paths::{bench_output_path, default_output_path};
use wsn_bench::pipeline::BenchReport;
use wsn_bench::serve::ServeBenchReport;
use wsn_bench::table::{f, Table};
use wsn_scenario::{all_presets, find_preset, golden, run_preset, Profile, Report};

/// Default seed (override with `--seed` for `run`; pinned for goldens).
const DEFAULT_SEED: u64 = 0xC0FFEE;

fn default_golden_dir() -> PathBuf {
    // Resolved at run time relative to the enclosing workspace (a binary
    // restored from a CI cache must not write to its compile-time path).
    default_output_path("tests").join("golden")
}

struct Args {
    command: String,
    presets: Vec<String>,
    all: bool,
    quick: bool,
    seed: Option<u64>,
    out_dir: Option<PathBuf>,
    golden_dir: PathBuf,
    baseline: Option<PathBuf>,
    fresh: Option<PathBuf>,
    serve: ServeArgs,
}

/// Knobs of the `serve` subcommand (the ad-hoc service runner).
struct ServeArgs {
    topology: String,
    nodes: u64,
    epochs: usize,
    readers: usize,
    clients: usize,
    queries: usize,
    churn: f64,
    blast: f64,
    join: f64,
    verify: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            topology: "udg".into(),
            nodes: 100_000,
            epochs: 5,
            readers: 4,
            clients: 8,
            queries: 64,
            churn: 0.10,
            blast: 5.0,
            join: 0.5,
            verify: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: wsn-scenarios <list | run | check | bless | serve | bench | bench-lifetime | \
         bench-serve | gate | gate-lifetime | gate-serve> [PRESET...] [options]\n\
         \n\
         commands:\n\
         \x20 list            show the preset catalogue\n\
         \x20 run             run presets and print aligned result tables\n\
         \x20 check           quick-profile run, byte-compare against golden files\n\
         \x20 bless           quick-profile run, rewrite the golden files\n\
         \x20 serve           run the always-on topology service once: churn the\n\
         \x20                 network while reader threads answer queries over\n\
         \x20                 epoch snapshots; nonzero exit on errors or zero qps\n\
         \x20 bench           sharded-vs-monolithic construction pipeline bench,\n\
         \x20                 writes BENCH_pipeline.json (nodes/sec, phases, RSS)\n\
         \x20 bench-lifetime  churn-engine incremental-vs-rebuild repair bench,\n\
         \x20                 writes BENCH_lifetime.json (speedup per topology +\n\
         \x20                 churn-locality sweep)\n\
         \x20 bench-serve     topology-service throughput bench, writes\n\
         \x20                 BENCH_serve.json (qps/p50/p99/cache per reader count,\n\
         \x20                 every row digest-checked against the replay oracle)\n\
         \x20 gate            CI perf gate: compare a fresh pipeline bench JSON\n\
         \x20                 against the committed baseline (--baseline/--fresh)\n\
         \x20 gate-lifetime   CI perf gate over lifetime bench JSONs: exact counts,\n\
         \x20                 fingerprints, repair cost vs churn locality\n\
         \x20 gate-serve      CI perf gate over serve bench JSONs: exact counts,\n\
         \x20                 replay identity, zero errors, qps per reader count\n\
         \n\
         options:\n\
         \x20 --all           select every preset\n\
         \x20 --quick         run the quick (smoke) profile      [run, bench*]\n\
         \x20 --seed N        base seed, default 0xC0FFEE        [run, bench*, serve]\n\
         \x20 --out PATH      JSON output: report dir for `run`,\n\
         \x20                 output file or dir for `bench*`    [run, bench*]\n\
         \x20 --golden-dir D  golden directory, default tests/golden\n\
         \x20 --baseline P    committed bench JSON               [gate*]\n\
         \x20 --fresh P       freshly measured bench JSON        [gate*]\n\
         \n\
         serve options:\n\
         \x20 --topology T    udg | rng | gabriel | yao | knn | hng  (default udg)\n\
         \x20 --nodes N       target universe size               (default 100000)\n\
         \x20 --epochs N      churn epochs to serve              (default 5)\n\
         \x20 --readers N     reader threads                     (default 4)\n\
         \x20 --clients N     query clients                      (default 8)\n\
         \x20 --queries N     queries per client per epoch       (default 64)\n\
         \x20 --churn F       per-epoch kill fraction            (default 0.10)\n\
         \x20 --blast R       clustered blast radius, UDG radii  (default 5.0)\n\
         \x20 --join F        joins admitted per death           (default 0.5)\n\
         \x20 --verify        also run the single-threaded replay oracle and\n\
         \x20                 fail on any answer divergence"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let Some(command) = it.next() else { usage() };
    let mut args = Args {
        command,
        presets: Vec::new(),
        all: false,
        quick: false,
        seed: None,
        out_dir: None,
        golden_dir: default_golden_dir(),
        baseline: None,
        fresh: None,
        serve: ServeArgs::default(),
    };
    fn next_parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.seed = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--out" => args.out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--topology" => args.serve.topology = it.next().unwrap_or_else(|| usage()),
            "--nodes" => args.serve.nodes = next_parse(&mut it),
            "--epochs" => args.serve.epochs = next_parse(&mut it),
            "--readers" => args.serve.readers = next_parse(&mut it),
            "--clients" => args.serve.clients = next_parse(&mut it),
            "--queries" => args.serve.queries = next_parse(&mut it),
            "--churn" => args.serve.churn = next_parse(&mut it),
            "--blast" => args.serve.blast = next_parse(&mut it),
            "--join" => args.serve.join = next_parse(&mut it),
            "--verify" => args.serve.verify = true,
            "--golden-dir" => args.golden_dir = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--fresh" => args.fresh = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            name if !name.starts_with('-') => args.presets.push(name.to_string()),
            _ => usage(),
        }
    }
    // The goldens pin the quick profile at the default seed: rejecting the
    // run-only flags here keeps `bless --seed 42` from silently rewriting
    // them at a seed the user did not get.
    if matches!(args.command.as_str(), "check" | "bless")
        && (args.quick || args.seed.is_some() || args.out_dir.is_some())
    {
        eprintln!(
            "--quick/--seed/--out apply to `run` only; `{}` always uses the \
             quick profile at the default seed",
            args.command
        );
        std::process::exit(2);
    }
    args
}

fn selected(args: &Args) -> Vec<&'static str> {
    if args.all {
        return all_presets().iter().map(|p| p.name).collect();
    }
    if args.presets.is_empty() {
        // Guard against accidentally launching the whole full-profile
        // catalogue (minutes of compute) on a bare `run`.
        eprintln!("no presets selected: name them explicitly or pass --all");
        std::process::exit(2);
    }
    let mut out = Vec::new();
    for name in &args.presets {
        match find_preset(name) {
            Some(p) => out.push(p.name),
            None => {
                eprintln!("unknown preset `{name}` (see `wsn-scenarios list`)");
                std::process::exit(2);
            }
        }
    }
    out
}

fn cmd_list() -> ExitCode {
    let mut t = Table::new("wsn-scenarios presets", &["preset", "replaces", "title"]);
    for p in all_presets() {
        let replaces = if p.replaces.is_empty() {
            "(new)".to_string()
        } else {
            p.replaces.join(", ")
        };
        t.row(&[p.name.to_string(), replaces, p.title.to_string()]);
    }
    t.print();
    ExitCode::SUCCESS
}

/// Aligned per-cell metric tables for human consumption.
fn print_report(report: &Report) {
    println!("== preset `{}` ({}) ==", report.name, report.title);
    for cell in &report.scenarios {
        let mut t = Table::new(&cell.label, &["metric", "n", "mean", "min", "max"]);
        for (name, agg) in &cell.metrics.0 {
            t.row(&[
                name.clone(),
                agg.n.to_string(),
                f(agg.mean, 4),
                f(agg.min, 4),
                f(agg.max, 4),
            ]);
        }
        t.print();
    }
    if let Some(substrate) = &report.substrate {
        // Substrate payloads are structured tables already; print the JSON.
        println!(
            "substrate payload:\n{}",
            serde_json::to_string_pretty(substrate).unwrap()
        );
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    let profile = if args.quick {
        Profile::Quick
    } else {
        Profile::Full
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    for name in selected(args) {
        let report = run_preset(name, profile, seed).expect("preset name pre-validated");
        print_report(&report);
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("{name}.json"));
            std::fs::create_dir_all(dir).expect("create --out dir");
            std::fs::write(&path, report.canonical_json()).expect("write report");
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_goldens(args: &Args, bless: bool) -> ExitCode {
    let mut failures = 0usize;
    for name in selected(args) {
        let report = run_preset(name, Profile::Quick, DEFAULT_SEED).expect("pre-validated");
        if bless {
            let path = golden::bless(&args.golden_dir, &report).expect("write golden");
            println!("blessed {}", path.display());
            continue;
        }
        match golden::check(&args.golden_dir, &report) {
            golden::GoldenOutcome::Match => println!("OK    {name}"),
            golden::GoldenOutcome::Diff { detail } => {
                failures += 1;
                eprintln!("DIFF  {name}: {detail}");
            }
            golden::GoldenOutcome::Missing { detail } => {
                failures += 1;
                eprintln!("MISS  {name}: {detail}");
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} preset(s) diverged from the goldens; \
             run `wsn-scenarios bless` if the change is intentional"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Shared head of the bench emitters: no presets, and an output path
/// resolved before any work (see [`bench_output_path`]). `Err` is the
/// exit code of a refused run, its reason already printed.
fn bench_setup(args: &Args, cmd: &str, default_name: &str) -> Result<PathBuf, ExitCode> {
    if !args.presets.is_empty() || args.all {
        eprintln!("`{cmd}` takes no presets (it has its own topology × size grid)");
        return Err(ExitCode::from(2));
    }
    bench_output_path(args.out_dir.as_deref(), default_name).map_err(|e| {
        eprintln!("{cmd}: {e}");
        ExitCode::from(2)
    })
}

/// Shared tail of the bench emitters: pretty-print to `path`.
fn write_bench_json<T: serde::Serialize>(path: &Path, report: &T) {
    let mut json = serde_json::to_string_pretty(report).expect("bench serialisation is total");
    json.push('\n');
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// `bench`: measure the sharded pipeline against the monolithic builders
/// and write the machine-readable baseline.
fn cmd_bench(args: &Args) -> ExitCode {
    let path = match bench_setup(args, "bench", "BENCH_pipeline.json") {
        Ok(path) => path,
        Err(code) => return code,
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let report = wsn_bench::pipeline::run_pipeline_bench(args.quick, seed);
    write_bench_json(&path, &report);
    ExitCode::SUCCESS
}

/// `bench-lifetime`: incremental-vs-rebuild churn repair economics.
fn cmd_bench_lifetime(args: &Args) -> ExitCode {
    let path = match bench_setup(args, "bench-lifetime", "BENCH_lifetime.json") {
        Ok(path) => path,
        Err(code) => return code,
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let report = wsn_bench::lifetime::run_lifetime_bench(args.quick, seed);
    write_bench_json(&path, &report);
    ExitCode::SUCCESS
}

/// `bench-serve`: topology-service throughput per reader count, every row
/// digest-checked against the single-threaded replay oracle.
fn cmd_bench_serve(args: &Args) -> ExitCode {
    let path = match bench_setup(args, "bench-serve", "BENCH_serve.json") {
        Ok(path) => path,
        Err(code) => return code,
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let report = wsn_bench::serve::run_serve_bench(args.quick, seed);
    write_bench_json(&path, &report);
    ExitCode::SUCCESS
}

/// `serve`: one ad-hoc run of the always-on topology service. Exits
/// nonzero on query errors, zero qps, or (with `--verify`) any answer
/// divergence from the single-threaded replay oracle.
fn cmd_serve(args: &Args) -> ExitCode {
    use wsn_geom::Aabb;
    use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointSet};
    use wsn_rgg::IncTopology;
    use wsn_simnet::churn::{ChurnConfig, ChurnModel};
    use wsn_simnet::{run_replay, run_serve, ServeConfig};

    if !args.presets.is_empty() || args.all || args.quick {
        eprintln!("`serve` takes no presets/--quick (configure it with the serve options)");
        return ExitCode::from(2);
    }
    let s = &args.serve;
    let kind = match s.topology.as_str() {
        "udg" => IncTopology::Udg { radius: 1.0 },
        "rng" => IncTopology::Rng { radius: 1.0 },
        "gabriel" => IncTopology::Gabriel { radius: 1.0 },
        "yao" => IncTopology::Yao {
            radius: 1.0,
            cones: 6,
        },
        "knn" => IncTopology::Knn { k: 8 },
        "hng" => IncTopology::Hng {
            p: 0.5,
            links: 1,
            seed: args.seed.unwrap_or(DEFAULT_SEED),
        },
        other => {
            eprintln!("unknown --topology `{other}` (udg | rng | gabriel | yao | knn | hng)");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut churn = ChurnConfig::new(s.epochs, 1e12, 0, s.churn, s.join);
    churn.churn_model = ChurnModel::Clustered { radius: s.blast };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, s.readers, s.clients, s.queries);
    cfg.seed = seed;
    if let Err(e) = cfg.validate() {
        eprintln!("serve: invalid configuration: {e}");
        return ExitCode::from(2);
    }
    // The universe: a Poisson deployment at the benches' density, with a
    // reserve pool (dead at start) for churn joins to admit.
    let lambda = 10.0;
    let side = ((s.nodes as f64) / lambda).sqrt();
    let points: PointSet =
        sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let deployed = points.len() - (0.125 * points.len() as f64).round() as usize;
    let alive: Vec<bool> = (0..points.len()).map(|i| i < deployed).collect();

    let report = run_serve(&points, &alive, kind, &cfg);
    let mut t = Table::new(
        &format!("serve: {} over {} nodes", kind.label(), points.len()),
        &["metric", "value"],
    );
    t.row(&["epochs served".into(), report.epochs.to_string()]);
    t.row(&["readers".into(), report.readers.to_string()]);
    t.row(&["clients".into(), report.clients.to_string()]);
    t.row(&["queries".into(), report.queries.to_string()]);
    t.row(&["errors".into(), report.errors.to_string()]);
    t.row(&["qps".into(), f(report.qps, 0)]);
    t.row(&["p50 (us)".into(), f(report.p50_us, 1)]);
    t.row(&["p99 (us)".into(), f(report.p99_us, 1)]);
    t.row(&[
        "cache hits / lookups".into(),
        format!("{} / {}", report.cache_hits, report.cache_lookups),
    ]);
    t.row(&[
        "snapshots published / retired".into(),
        format!(
            "{} / {}",
            report.snapshots_published, report.snapshots_retired
        ),
    ]);
    t.row(&[
        "max live snapshots".into(),
        report.max_live_snapshots.to_string(),
    ]);
    t.row(&[
        "deaths / joins".into(),
        format!("{} / {}", report.deaths_total, report.joins_total),
    ]);
    t.row(&["final alive".into(), report.final_alive.to_string()]);
    t.row(&[
        "final fingerprint".into(),
        format!(
            "{:016x}",
            report.epoch_fingerprints.last().copied().unwrap_or(0)
        ),
    ]);
    t.print();

    let mut failed = false;
    if report.errors > 0 {
        eprintln!("serve: FAIL — {} query error(s)", report.errors);
        failed = true;
    }
    if report.qps <= 0.0 {
        eprintln!("serve: FAIL — zero sustained qps");
        failed = true;
    }
    if s.verify {
        let oracle = run_replay(&points, &alive, kind, &cfg);
        if report.client_digests != oracle.client_digests
            || report.epoch_fingerprints != oracle.epoch_fingerprints
            || report.answer_digest != oracle.answer_digest
        {
            eprintln!("serve: FAIL — concurrent answers diverged from the single-threaded replay");
            failed = true;
        } else {
            println!("serve: answers verified identical to the single-threaded replay");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `gate` / `gate-lifetime` / `gate-serve`: the CI perf-regression gates
/// over bench documents of type `T`.
fn cmd_gate<T: BenchDoc>(args: &Args, cmd: &str) -> ExitCode {
    let (Some(baseline_path), Some(fresh_path)) = (&args.baseline, &args.fresh) else {
        eprintln!("`{cmd}` needs --baseline and --fresh bench JSON paths");
        return ExitCode::from(2);
    };
    // A missing file or a document that does not deserialize is an
    // environment problem, not a perf regression: name the file and the
    // field and exit 2, so CI logs show the cause.
    let load = |side: &str, path: &PathBuf| -> Result<T, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{cmd}: cannot read {}: {e}", path.display()))?;
        gate::parse(side, &text).map_err(|e| format!("{cmd}: {}: {e}", path.display()))
    };
    let (baseline, fresh) = match (load("baseline", baseline_path), load("fresh", fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::from(2);
        }
    };
    let report = T::gate(&baseline, &fresh);
    for s in &report.skipped {
        println!("SKIP  {s} (no baseline row)");
    }
    for (check, n) in &report.checks {
        println!("{cmd}: held {n}x  {check}");
    }
    if report.passed() {
        println!("{cmd}: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("FAIL  {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.command.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&args),
        "check" => cmd_goldens(&args, false),
        "bless" => cmd_goldens(&args, true),
        "serve" => cmd_serve(&args),
        "bench" => cmd_bench(&args),
        "bench-lifetime" => cmd_bench_lifetime(&args),
        "bench-serve" => cmd_bench_serve(&args),
        "gate" => cmd_gate::<BenchReport>(&args, "gate"),
        "gate-lifetime" => cmd_gate::<LifetimeBenchReport>(&args, "gate-lifetime"),
        "gate-serve" => cmd_gate::<ServeBenchReport>(&args, "gate-serve"),
        _ => usage(),
    }
}
