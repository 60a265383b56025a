//! # wsn-bench
//!
//! The experiment harness. Every theorem, claim and algorithm figure of the
//! paper is a *named preset* of the `wsn-scenario` crate, driven by the one
//! `wsn-scenarios` binary in this crate (which replaced the fifteen
//! historical `exp_*` binaries):
//!
//! ```text
//! cargo run -p wsn-bench --release --bin wsn-scenarios -- list
//! cargo run -p wsn-bench --release --bin wsn-scenarios -- run sparsity
//! cargo run -p wsn-bench --release --bin wsn-scenarios -- run --all --quick
//! cargo run -p wsn-bench --release --bin wsn-scenarios -- check --all
//! ```
//!
//! The quick profile of every preset is pinned by the golden-file suite
//! (`tests/scenarios_golden.rs` against `tests/golden/*.json`); `check`
//! re-runs it and fails on any byte difference.
//!
//! The criterion microbenches for the hot paths live under `benches/`.
//! This library keeps small shared helpers: `WSN_QUICK` / `WSN_SEED`
//! handling for ad-hoc tooling, aligned-table rendering, and JSON dumps.

pub mod gate;
pub mod lifetime;
pub mod paths;
pub mod pipeline;
pub mod serve;
pub mod table;

/// Timed repeats behind every timing a bench document records: each is the
/// median of this many runs, and the gates compare only ratios of medians
/// taken within one run.
pub const REPEATS: usize = 5;

/// The middle sample by `key` (the upper middle for an even count).
pub fn median_by<T>(mut samples: Vec<T>, key: impl Fn(&T) -> f64) -> T {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| key(a).total_cmp(&key(b)));
    samples.swap_remove(samples.len() / 2)
}

/// Run `f` [`REPEATS`] times; return its last result and the median
/// wall-clock seconds of one run.
pub fn median_timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t = std::time::Instant::now();
        let out = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (last.expect("REPEATS > 0"), median_by(secs, |s| *s))
}

/// True when quick (smoke-test) mode is requested.
pub fn quick_mode() -> bool {
    std::env::var("WSN_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Scale a replicate count down in quick mode.
pub fn scaled(full: usize) -> usize {
    if quick_mode() {
        (full / 10).max(8)
    } else {
        full
    }
}

/// Default deterministic seed for experiments (override with `WSN_SEED`).
pub fn seed() -> u64 {
    std::env::var("WSN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_reduces_in_quick_mode() {
        // Environment-dependent, so only check the arithmetic helper
        // directly.
        let scale = |full: usize| (full / 10).max(8);
        assert_eq!(scale(1000), 100);
        assert_eq!(scale(20), 8);
        let _ = quick_mode();
        assert!(seed() > 0);
    }

    #[test]
    fn median_picks_the_middle_sample() {
        assert_eq!(median_by(vec![3.0, 1.0, 9.0, 2.0, 5.0], |s| *s), 3.0);
        assert_eq!(median_by(vec![4.0, 1.0], |s| *s), 4.0);
        let (last, secs) = median_timed(|| 7);
        assert_eq!(last, 7);
        assert!(secs >= 0.0);
    }
}
