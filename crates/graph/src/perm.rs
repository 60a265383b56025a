//! Arbitrary-permutation relabelling of a built graph.
//!
//! [`crate::delta::relabel`] deliberately accepts only *monotone* maps —
//! the survivor-compaction case, where relative order is preserved. The ordered
//! construction pipeline runs its builders in a spatially sorted *rank*
//! space (`wsn_pointproc::order::PointOrder`) through a permutation that is
//! anything but monotone; those builders hand the map to the assembler
//! ([`crate::Csr::from_runs`]), which emits straight into deployment ids.
//!
//! [`remap_csr`] is the same assembler call over an already-built graph:
//! its edges, read row range by row range on the worker pool, are the
//! runs. It is the tool for relabelling a finished graph (and for timing
//! that relabel on its own);
//! the result is in canonical form, so two graphs equal up to relabelling
//! compare equal — including under [`crate::delta::fingerprint`].

use rayon::prelude::*;

use crate::assemble::Emitted;
use crate::csr::Csr;
use crate::view::GraphView;

/// Rows of `g` per assembler run.
const ROWS_PER_RUN: usize = 1 << 12;

/// Rebuild `g` with every node id pushed through `map` (an arbitrary
/// bijection on `0..g.n()`).
pub fn remap_csr<G: GraphView + Sync + ?Sized>(g: &G, map: &[u32]) -> Csr {
    assert_eq!(map.len(), g.n(), "map must cover every node");
    let n = g.n();
    let starts: Vec<usize> = (0..n).step_by(ROWS_PER_RUN).collect();
    let runs: Vec<Vec<(u32, u32)>> = starts
        .into_par_iter()
        .map(|lo| {
            let rows = lo as u32..(lo + ROWS_PER_RUN).min(n) as u32;
            rows.flat_map(|u| {
                g.neighbors(u)
                    .iter()
                    .filter(move |&&v| u < v)
                    .map(move |&v| (u, v))
            })
            .collect()
        })
        .collect();
    Csr::from_runs(n, runs, Some(map), Emitted::Once)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::fingerprint;

    fn sample() -> Csr {
        Csr::from_canonical_edges(5, &[(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn remap_by_identity_is_identity() {
        let g = sample();
        let id: Vec<u32> = (0..5).collect();
        let h = remap_csr(&g, &id);
        assert_eq!(g, h);
        assert_eq!(fingerprint(&g), fingerprint(&h));
    }

    #[test]
    fn remap_then_inverse_restores_the_graph() {
        let g = sample();
        let perm = vec![4u32, 2, 0, 3, 1];
        let mut inverse = vec![0u32; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p as usize] = i as u32;
        }
        let scrambled = remap_csr(&g, &perm);
        assert_ne!(fingerprint(&g), fingerprint(&scrambled));
        let restored = remap_csr(&scrambled, &inverse);
        assert_eq!(g, restored);
        assert_eq!(fingerprint(&g), fingerprint(&restored));
    }

    #[test]
    fn remap_preserves_adjacency_semantics() {
        let g = sample();
        let perm = vec![1u32, 3, 0, 4, 2];
        let h = remap_csr(&g, &perm);
        for u in 0..5u32 {
            for &v in g.neighbors(u) {
                let (a, b) = (perm[u as usize], perm[v as usize]);
                assert!(h.neighbors(a).contains(&b), "({u},{v}) → ({a},{b})");
            }
        }
        assert_eq!(g.m(), h.m());
    }

    #[test]
    fn remap_equals_assembling_the_mapped_edges() {
        let g = sample();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let perm = vec![2u32, 4, 1, 0, 3];
        let h = Csr::from_runs(5, vec![edges], Some(&perm), Emitted::Once);
        assert_eq!(h, remap_csr(&g, &perm));
    }
}
