//! Good-tile probabilities and critical-parameter estimation — the paper's
//! "numerical calculations" behind Theorems 2.2 (λ_s = 1.568) and 2.4
//! (k_s = 188 at a = 0.893), reproduced by Monte Carlo (experiments EXP-T22
//! and EXP-T24).
//!
//! The logic in both cases: the coupled site-percolation process is
//! supercritical as soon as `P[tile good] > p_c ≈ 0.5927`, so the critical
//! parameter estimate is the smallest λ (resp. k) whose good-tile
//! probability exceeds the paper's target 0.593.

use rayon::prelude::*;
use wsn_geom::hash::{derive_seed, derive_seed2};
use wsn_geom::tile::Dir;
use wsn_geom::{Aabb, Point};
use wsn_pointproc::{rng_from_seed, sample_poisson_window};

use crate::nn::{sample_nn_tile, NnTileGeometry};
use crate::params::{NnSensParams, UdgGeometryMode, UdgSensParams};
use crate::subgraph::{relay_bit, ROLE_REP};
use crate::udg::UdgTileGeometry;

/// The paper's goodness-probability target (upper end of the cited p_c
/// bracket).
pub const GOODNESS_TARGET: f64 = 0.593;

/// Is a single UDG tile good, given its points in tile-local coordinates?
///
/// Strict mode: all five regions occupied. Paper mode: additionally a
/// visibility-verified election must exist (some representative reaches a
/// candidate in every relay region).
pub fn udg_tile_is_good(geom: &UdgTileGeometry, locals: &[Point]) -> bool {
    match geom.params().mode {
        UdgGeometryMode::Strict => {
            let mut have = 0u16;
            let all = ROLE_REP | 0b0001_1110;
            for &p in locals {
                have |= geom.classify(p);
                if have == all {
                    return true;
                }
            }
            false
        }
        UdgGeometryMode::Paper => {
            let radius = geom.params().radius;
            let reps: Vec<Point> = locals
                .iter()
                .copied()
                .filter(|&p| geom.c0_contains(p))
                .collect();
            if reps.is_empty() {
                return false;
            }
            let mut relays: [Vec<Point>; 4] = Default::default();
            for &p in locals {
                for d in Dir::ALL {
                    if geom.classify(p) & relay_bit(d) != 0 {
                        relays[d.index()].push(p);
                    }
                }
            }
            reps.iter().any(|&r| {
                Dir::ALL
                    .iter()
                    .all(|d| relays[d.index()].iter().any(|&q| q.dist(r) <= radius))
            })
        }
    }
}

/// Monte-Carlo estimate of `P[tile good]` for UDG-SENS at density `lambda`.
pub fn p_good_udg(params: UdgSensParams, lambda: f64, reps: usize, seed: u64) -> f64 {
    let geom = UdgTileGeometry::new(params).expect("invalid params");
    let a = params.tile_side;
    let tile = Aabb::centered_square(Point::ORIGIN, a);
    let hits: usize = (0..reps as u64)
        .into_par_iter()
        .map(|r| {
            let mut rng = rng_from_seed(derive_seed2(seed, r, lambda.to_bits()));
            let pts = sample_poisson_window(&mut rng, lambda, &tile);
            let locals: Vec<Point> = pts.iter().collect();
            udg_tile_is_good(&geom, &locals) as usize
        })
        .sum();
    hits as f64 / reps as f64
}

/// Exact `P[tile good]` for *strict* geometries whose five regions are
/// pairwise disjoint: occupancy of disjoint regions is independent under a
/// PPP, so `P = (1 − e^(−λ·A₀)) · ∏_d (1 − e^(−λ·A_d))`.
///
/// Returns `None` when the regions are not provably disjoint (or in paper
/// mode, where the election is not a product event).
pub fn p_good_udg_analytic(params: UdgSensParams, lambda: f64) -> Option<f64> {
    if params.mode != UdgGeometryMode::Strict {
        return None;
    }
    let (r0, re, de) = (params.r0, params.relay_radius, params.relay_offset);
    // Relay ↔ C0 disjoint; adjacent relays disjoint (opposite relays are
    // farther apart than adjacent ones).
    if de - re < r0 || std::f64::consts::SQRT_2 * de < 2.0 * re {
        return None;
    }
    let a0 = std::f64::consts::PI * r0 * r0;
    let ae = std::f64::consts::PI * re * re;
    Some((1.0 - (-lambda * a0).exp()) * (1.0 - (-lambda * ae).exp()).powi(4))
}

/// Estimate `λ_s = inf { λ : P[good](λ) ≥ target }` by bisection.
/// `P[good]` is monotone in λ for strict mode (more points can only help)
/// and empirically monotone in paper mode.
pub fn lambda_s_udg(
    params: UdgSensParams,
    target: f64,
    reps: usize,
    iterations: usize,
    seed: u64,
) -> f64 {
    let (mut lo, mut hi) = (0.05, 200.0);
    for it in 0..iterations {
        let mid = 0.5 * (lo + hi);
        let p = p_good_udg(params, mid, reps, derive_seed(seed, it as u64));
        if p < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Batch of NN tile samples at scale `a`, unit density.
pub fn nn_tile_samples(a: f64, reps: usize, seed: u64) -> Vec<crate::nn::NnTileSample> {
    let geom = NnTileGeometry::new(NnSensParams {
        a,
        k: usize::MAX / 2,
    })
    .expect("invalid a");
    (0..reps as u64)
        .into_par_iter()
        .map(|r| {
            let mut rng = rng_from_seed(derive_seed2(seed, r, a.to_bits()));
            sample_nn_tile(&geom, &mut rng)
        })
        .collect()
}

/// `P[tile good]` for NN-SENS from a sample batch: regions occupied AND
/// count ≤ k/2. Monotone in `k`.
pub fn p_good_nn_from_samples(samples: &[crate::nn::NnTileSample], k: usize) -> f64 {
    let hits = samples
        .iter()
        .filter(|s| s.regions_ok && s.count <= k / 2)
        .count();
    hits as f64 / samples.len() as f64
}

/// Monte-Carlo `P[tile good]` for NN-SENS at `(a, k)`.
pub fn p_good_nn(a: f64, k: usize, reps: usize, seed: u64) -> f64 {
    p_good_nn_from_samples(&nn_tile_samples(a, reps, seed), k)
}

/// Smallest `k` with `P[good](a, k) ≥ target`, or `None` if even `k = ∞`
/// (regions alone) cannot reach the target at this scale.
pub fn k_s_for_scale(a: f64, target: f64, reps: usize, seed: u64) -> Option<usize> {
    let samples = nn_tile_samples(a, reps, seed);
    let p_regions = samples.iter().filter(|s| s.regions_ok).count() as f64 / samples.len() as f64;
    if p_regions < target {
        return None;
    }
    // P is monotone in k: binary search the smallest satisfying k.
    let (mut lo, mut hi) = (2usize, 4096usize);
    if p_good_nn_from_samples(&samples, hi) < target {
        return None;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if p_good_nn_from_samples(&samples, mid) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tile_is_bad_and_dense_tile_is_good() {
        let p = UdgSensParams::strict_default();
        let geom = UdgTileGeometry::new(p).unwrap();
        assert!(!udg_tile_is_good(&geom, &[]));
        // One point in each region.
        let locals = [
            Point::new(0.0, 0.0),
            Point::new(0.4, 0.0),
            Point::new(-0.4, 0.0),
            Point::new(0.0, 0.4),
            Point::new(0.0, -0.4),
        ];
        assert!(udg_tile_is_good(&geom, &locals));
        // Missing one relay → bad.
        assert!(!udg_tile_is_good(&geom, &locals[..4]));
    }

    #[test]
    fn paper_mode_requires_visible_election() {
        let p = UdgSensParams::paper();
        let geom = UdgTileGeometry::new(p).unwrap();
        // Rep at the far left of C0; relays near the right boundary are out
        // of unit range of it, top/bottom/left fine.
        let rep = Point::new(-0.49, 0.0);
        let relays = [
            Point::new(0.6, 0.0),
            Point::new(-0.6, 0.0),
            Point::new(0.0, 0.6),
            Point::new(0.0, -0.6),
        ];
        let mut locals = vec![rep];
        locals.extend_from_slice(&relays);
        // d(rep, right relay) = 1.09 > 1 → election fails.
        assert!(!udg_tile_is_good(&geom, &locals));
        // Moving the rep to the centre fixes it.
        locals[0] = Point::new(0.0, 0.0);
        assert!(udg_tile_is_good(&geom, &locals));
    }

    #[test]
    fn p_good_udg_is_monotone_in_lambda() {
        let p = UdgSensParams::strict_default();
        let lo = p_good_udg(p, 5.0, 400, 1);
        let hi = p_good_udg(p, 40.0, 400, 1);
        assert!(lo < hi, "{lo} !< {hi}");
        assert!(hi > 0.9);
    }

    #[test]
    fn analytic_matches_monte_carlo_for_disjoint_strict_geometry() {
        let p = UdgSensParams::strict_default();
        for lambda in [5.0, 15.0, 30.0] {
            let exact = p_good_udg_analytic(p, lambda).expect("default geometry is disjoint");
            let mc = p_good_udg(p, lambda, 4000, 2);
            assert!(
                (exact - mc).abs() < 0.04,
                "λ = {lambda}: exact {exact} vs MC {mc}"
            );
        }
    }

    #[test]
    fn analytic_rejects_overlapping_or_paper_geometry() {
        assert!(p_good_udg_analytic(UdgSensParams::paper(), 1.0).is_none());
        let mut p = UdgSensParams::strict_default();
        p.r0 = 0.25; // d_e − r_e = 0.2 < r_0 → relay overlaps C0
        assert!(p_good_udg_analytic(p, 1.0).is_none());
    }

    #[test]
    fn lambda_s_agrees_with_analytic_inverse() {
        let p = UdgSensParams::strict_default();
        let ls = lambda_s_udg(p, GOODNESS_TARGET, 3000, 12, 3);
        // Invert the analytic formula at the estimate: P should be ≈ target.
        let at = p_good_udg_analytic(p, ls).unwrap();
        assert!((at - GOODNESS_TARGET).abs() < 0.05, "P(λ_s = {ls}) = {at}");
    }

    #[test]
    fn nn_goodness_is_monotone_in_k() {
        let samples = nn_tile_samples(0.893, 600, 4);
        let p100 = p_good_nn_from_samples(&samples, 100);
        let p200 = p_good_nn_from_samples(&samples, 200);
        let p400 = p_good_nn_from_samples(&samples, 400);
        assert!(p100 <= p200 && p200 <= p400, "{p100} {p200} {p400}");
    }

    #[test]
    fn k_s_search_matches_linear_scan() {
        let seed = 9;
        let a = 1.0;
        let samples = nn_tile_samples(a, 400, derive_seed(seed, a.to_bits()));
        let target = 0.3; // modest target so the search succeeds at small a
        let binary = {
            // Reuse the library search on identical samples by reimplementing
            // the scan here.
            let mut k = 2;
            while k < 4096 && p_good_nn_from_samples(&samples, k) < target {
                k += 1;
            }
            (k < 4096).then_some(k)
        };
        // Library result on the same seed/sample parameters.
        let lib = k_s_for_scale(a, target, 400, seed);
        assert_eq!(lib, binary);
    }

    #[test]
    fn determinism() {
        let p = UdgSensParams::strict_default();
        assert_eq!(p_good_udg(p, 10.0, 200, 5), p_good_udg(p, 10.0, 200, 5));
        assert_eq!(p_good_nn(1.0, 300, 100, 6), p_good_nn(1.0, 300, 100, 6));
    }
}
