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
}
