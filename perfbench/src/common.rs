//! Shared pieces of the workloads: sizes, the result record, statistics,
//! host metadata, universes and the traced runs' own churn schedule.

use std::time::Instant;

use wsn_geom::hash::{derive_seed2, mix64};
use wsn_geom::{Aabb, Point};
use wsn_pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn_spatial::GridIndex;

/// Workload size: `Full` is what the benchmark measures, `Mini` is a
/// seconds-long miniature for the benchmark's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Mini,
}

impl Scale {
    /// `full` at full scale, `mini` in the miniature.
    pub fn pick<T>(self, full: T, mini: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Mini => mini,
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (build `Err`s, query errors).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty when the run is correct.
    pub mismatches: Vec<String>,
    /// Measured metrics by name (units come from the metric tables).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result: run metadata,
    /// sample counts and the workload-specific names of the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `(min, median, max)` of `xs`, for the notes.
pub fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, median(xs), hi)
}

/// Wall seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Call `f` until `seconds` have passed and it has run at least `min_reps`
/// times.
pub fn repeat_for(seconds: f64, min_reps: usize, mut f: impl FnMut()) {
    let t = Instant::now();
    let mut reps = 0;
    while reps < min_reps || t.elapsed().as_secs_f64() < seconds {
        f();
        reps += 1;
    }
}

/// The host's CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the fan-out width of the library's parallel loops (the vendored
/// rayon reads `RAYON_NUM_THREADS` at every fan-out). Call only while no
/// other thread of the benchmark is running.
pub fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metadata line every result carries.
pub fn meta_note(workload: &str, seed: u64, threads: &str) -> String {
    format!(
        "meta: workload={workload} seed={seed} nproc={} threads={threads} \
         profile={} opt-level={} debug-assertions={}",
        nproc(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        if cfg!(debug_assertions) { "on" } else { "off" },
    )
}

/// A churn universe: the deployed nodes plus a reserve pool, all sampled
/// from one Poisson process over a square, with the first `deployed` ids
/// alive (the sample is in random order, so that is a uniform thinning).
pub struct Universe {
    pub points: PointSet,
    pub alive: Vec<bool>,
}

impl Universe {
    /// About `deployed` alive nodes at intensity `lambda`, plus
    /// `reserve_frac × deployed` reserve nodes in the same window.
    pub fn sample(seed: u64, deployed: usize, lambda: f64, reserve_frac: f64) -> Universe {
        let side = (deployed as f64 / lambda).sqrt();
        let points = sample_poisson_window(
            &mut rng_from_seed(seed),
            lambda * (1.0 + reserve_frac),
            &Aabb::square(side),
        );
        let n = points.len();
        let alive_n = (n as f64 / (1.0 + reserve_frac)).round() as usize;
        let alive = (0..n).map(|i| i < alive_n).collect();
        Universe { points, alive }
    }

    pub fn deployed(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

/// Uniform f64 in `[0, 1)` from one hash word.
fn u01(x: u64) -> f64 {
    (mix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The traced runs' churn schedule: disk-shaped outages placed by the
/// benchmark's own seed, sized like the engine's clustered model (enough
/// blasts that the expected kill fraction is `p_fail`), and joins admitted
/// from the reserve pool in ascending id order at `join_rate` per death.
pub struct BlastSchedule<'p> {
    index: GridIndex<'p>,
    window: Aabb,
    blasts: u64,
    radius: f64,
    join_rate: f64,
    reserve: Vec<u32>,
    next: usize,
    seed: u64,
}

impl<'p> BlastSchedule<'p> {
    pub fn new(
        points: &'p PointSet,
        alive: &[bool],
        p_fail: f64,
        radius: f64,
        join_rate: f64,
        seed: u64,
    ) -> Self {
        let window = points.bounding_box().unwrap_or_else(|| Aabb::square(1.0));
        let per_blast = std::f64::consts::PI * radius * radius;
        let blasts = ((-(1.0 - p_fail).ln() * window.area() / per_blast).round() as u64).max(1);
        BlastSchedule {
            index: GridIndex::build(points, radius),
            window,
            blasts,
            radius,
            join_rate,
            reserve: (0..alive.len() as u32)
                .filter(|&u| !alive[u as usize])
                .collect(),
            next: 0,
            seed,
        }
    }

    /// Deaths (alive nodes inside this epoch's blasts) and joins, both
    /// ascending.
    pub fn epoch(&mut self, epoch: u64, alive: &[bool]) -> (Vec<u32>, Vec<u32>) {
        let mut deaths = Vec::new();
        for c in 0..self.blasts {
            let h = derive_seed2(self.seed, epoch, c);
            let centre = Point::new(
                self.window.min.x + self.window.width() * u01(h),
                self.window.min.y + self.window.height() * u01(h ^ 0x5bd1_e995),
            );
            self.index.for_each_in_disk(centre, self.radius, |u, _| {
                if alive[u as usize] {
                    deaths.push(u);
                }
            });
        }
        deaths.sort_unstable();
        deaths.dedup();
        let want = (self.join_rate * deaths.len() as f64).round() as usize;
        let take = want.min(self.reserve.len() - self.next);
        let joins = self.reserve[self.next..self.next + take].to_vec();
        self.next += take;
        (deaths, joins)
    }

    /// Reserve nodes not yet admitted.
    pub fn reserve_left(&self) -> usize {
        self.reserve.len() - self.next
    }
}
