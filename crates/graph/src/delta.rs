//! Id-space helpers for graphs maintained over a fixed universe.
//!
//! * [`relabel`] — monotone id relabelling, used to lift a graph built on a
//!   compacted survivor set back into the stable universe id space so it
//!   can be compared byte-for-byte against the incrementally maintained
//!   CSR.
//! * [`fingerprint`] — a layout-blind 64-bit hash of the per-node
//!   neighbour lists, summed over nodes on the worker pool; a cheap
//!   cross-run witness that two maintenance strategies walked through
//!   identical topologies.

use crate::csr::Csr;
use crate::view::GraphView;
use rayon::prelude::*;
use std::fmt;
use std::num::Wrapping;
use wsn_geom::hash::mix64;

/// A strict-monotonicity violation in an id map: `prev` at `index - 1` is
/// not below `next` at `index`.
///
/// Monotonicity is correctness load-bearing for [`relabel`] (it is what
/// makes id comparisons — canonical edge orientation, sorted neighbour
/// lists — survive the remap), and the bench/gate path runs in release
/// mode, so the check must not be debug-only: a corrupted map has to fail
/// loudly, not produce a silently different graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonotonicityError {
    /// Position of the offending element.
    pub index: usize,
    /// The element before it.
    pub prev: u32,
    /// The element at `index`.
    pub next: u32,
}

impl fmt::Display for MonotonicityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ids not strictly ascending at index {}: {} !< {}",
            self.index, self.prev, self.next
        )
    }
}

impl std::error::Error for MonotonicityError {}

/// Check that `ids` is strictly ascending (a single branchy pass — cheap
/// against the derivation work that follows it).
pub fn check_monotone(ids: &[u32]) -> Result<(), MonotonicityError> {
    for (i, w) in ids.windows(2).enumerate() {
        if w[0] >= w[1] {
            return Err(MonotonicityError {
                index: i + 1,
                prev: w[0],
                next: w[1],
            });
        }
    }
    Ok(())
}

/// Relabel a graph through a strictly monotone id map (`map[local] =
/// universe`), producing a graph on `n_universe` nodes where unmapped ids
/// are isolated.
///
/// Monotonicity means every id comparison — and therefore every canonical
/// `(min, max)` orientation and every sorted neighbour list — is preserved,
/// so the result is byte-identical to building the same topology directly
/// in the universe id space.
pub fn relabel(g: &Csr, map: &[u32], n_universe: usize) -> Csr {
    assert_eq!(map.len(), g.n(), "map length must match node count");
    if let Err(e) = check_monotone(map) {
        panic!("relabel map must be strictly monotone: {e}");
    }
    if let Some(&last) = map.last() {
        assert!((last as usize) < n_universe, "map target out of range");
    }
    // Monotone maps preserve order, so the relabelled neighbour lists stay
    // sorted and the CSR arrays can be written directly — no transient
    // O(m) edge vector, no re-sort.
    let mut offsets = vec![0u32; n_universe + 1];
    for u in 0..g.n() {
        offsets[map[u] as usize + 1] = g.degree(u as u32) as u32;
    }
    for i in 0..n_universe {
        offsets[i + 1] += offsets[i];
    }
    let mut targets = vec![0u32; offsets[n_universe] as usize];
    for u in 0..g.n() as u32 {
        let base = offsets[map[u as usize] as usize] as usize;
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            targets[base + i] = map[v as usize];
        }
    }
    Csr::from_sorted_parts(offsets, targets)
}

/// Nodes per block of [`fingerprint`]'s fan-out.
const FINGERPRINT_BLOCK: usize = 1 << 12;

/// One node's term of [`fingerprint`], given its id, its row (ascending)
/// and the neighbours' ids by `key`: the id, the degree and the neighbour
/// ids, one multiply-rotate step per neighbour, then one full [`mix64`].
/// The chunked CSR keeps these terms per row across splices.
#[inline]
pub(crate) fn node_hash(id: u32, row: &[u32], key: impl Fn(u32) -> u32) -> u64 {
    let mut h = ((u64::from(id) << 32) | row.len() as u64) ^ 0xE703_7ED1_A0B4_28DB;
    for &v in row {
        h = (h ^ u64::from(key(v)))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(27);
    }
    mix64(h)
}

/// The fingerprint of an `n`-node graph whose [`node_hash`] terms sum
/// (wrapping) to `sum`.
#[inline]
pub(crate) fn finish(sum: Wrapping<u64>, n: usize) -> u64 {
    mix64(sum.0 ^ mix64(n as u64 ^ 0xA076_1D64_78BD_642F))
}

/// Layout-blind 64-bit fingerprint of the adjacency structure.
///
/// Two graphs have equal fingerprints iff (up to hash collision) they have
/// the same node count and identical per-node neighbour lists — the
/// property `Csr::eq` checks, but transportable across processes (the
/// lifetime bench uses it to prove the incremental and rebuild-per-epoch
/// runs traversed identical topologies).
///
/// Each node hashes its id, degree and sorted neighbour list
/// (`node_hash`). The fingerprint is the wrapping sum of the node hashes,
/// mixed with `n`. Addition commutes, so node blocks hash on the worker
/// pool and the value is the same at any thread count. Generic over
/// [`GraphView`] and hashing every node by its [`GraphView::id`] (rows are
/// ascending by id), so a chunked CSR in any layout and the dense CSR of
/// the same graph hash equal. This is the full pass; a
/// [`ChunkedCsr`](crate::ChunkedCsr) keeps the same value across splices
/// ([`ChunkedCsr::fingerprint`](crate::ChunkedCsr::fingerprint)).
pub fn fingerprint<G: GraphView + Sync + ?Sized>(g: &G) -> u64 {
    let n = g.n();
    let sum: Wrapping<u64> = (0..n)
        .step_by(FINGERPRINT_BLOCK)
        .into_par_iter()
        .map(|lo| {
            let block = lo as u32..(lo + FINGERPRINT_BLOCK).min(n) as u32;
            block
                .map(|u| Wrapping(node_hash(g.id(u), g.neighbors(u), |v| g.id(v))))
                .sum::<Wrapping<u64>>()
        })
        .sum();
    finish(sum, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;

    fn path_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.add(i - 1, i);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn dedup_path_collapses_cross_shard_duplicates() {
        // One edge emitted from both of its endpoints' shards folds into a
        // single entry backed by two emissions.
        let g = crate::ChunkedCsr::build(2, &[0, 0, 1], [vec![(0u32, 1u32), (1, 2)], vec![(1, 2)]]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn withdrawing_one_copy_of_a_twice_emitted_key_keeps_the_edge() {
        // A k-NN mutual pair is emitted by both endpoints; after repair
        // only one endpoint still selects the other. Withdrawing exactly
        // one emission leaves the edge backed by the other.
        let chunk_of = [0u32, 0, 0, 1];
        let mut g =
            crate::ChunkedCsr::build(2, &chunk_of, [vec![(0, 1), (1, 2), (1, 2)], vec![(2, 3)]]);
        g.splice(&[(1, 2)], &[]);
        assert!(
            g.has_edge(1, 2) && g.has_edge(2, 1),
            "edge lost its backing"
        );
        // Withdrawing the last copy removes it.
        g.splice(&[(1, 2)], &[]);
        assert!(!g.has_edge(1, 2));
        let expected = crate::ChunkedCsr::build(2, &chunk_of, [vec![(0u32, 1u32)], vec![(2, 3)]]);
        assert_eq!(g, expected);
    }

    #[test]
    fn relabel_lifts_into_universe_space() {
        // Compact graph on {0,1,2} ≙ universe nodes {1,3,4} of 6.
        let g = path_graph(3);
        let lifted = relabel(&g, &[1, 3, 4], 6);
        assert_eq!(lifted.n(), 6);
        assert_eq!(lifted.m(), 2);
        assert!(lifted.has_edge(1, 3));
        assert!(lifted.has_edge(3, 4));
        assert!(lifted.neighbors(0).is_empty());
        assert!(lifted.neighbors(5).is_empty());
    }

    #[test]
    fn relabel_identity_is_a_noop() {
        let g = path_graph(4);
        assert_eq!(relabel(&g, &[0, 1, 2, 3], 4), g);
    }

    #[test]
    fn relabel_rejects_non_monotone_maps_in_release_builds_too() {
        let g = path_graph(3);
        let panic = std::panic::catch_unwind(|| relabel(&g, &[1, 4, 2], 6)).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("strictly monotone"), "got: {msg}");
    }

    #[test]
    fn streamed_relabel_matches_edge_list_rebuild() {
        // Dense reference: collect mapped edges and rebuild from scratch.
        let mut el = EdgeList::new(5);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)] {
            el.add(u, v);
        }
        let g = Csr::from_edge_list(el);
        let map = [2u32, 3, 7, 8, 11];
        let streamed = relabel(&g, &map, 12);
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (map[u as usize], map[v as usize]))
            .collect();
        assert_eq!(streamed, Csr::from_canonical_edges(12, &edges));
    }

    #[test]
    fn fingerprint_is_layout_blind_across_representations() {
        let g = path_graph(6);
        let chunked = crate::chunked::ChunkedCsr::build(
            3,
            &[0, 0, 1, 1, 2, 2],
            &[g.edges().collect::<Vec<_>>()],
        );
        assert_eq!(fingerprint(&g), fingerprint(&chunked));
        assert_eq!(
            fingerprint(&chunked),
            fingerprint(&crate::view::CsrView::Chunked(&chunked))
        );
    }

    #[test]
    fn fingerprint_separates_structures_and_matches_equality() {
        let a = path_graph(6);
        let b = path_graph(6);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let mut el = EdgeList::new(6);
        for i in 1..6u32 {
            el.add(i - 1, i);
        }
        el.add(0, 5); // cycle, not path
        let c = Csr::from_edge_list(el);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        // Isolated tail changes n and must change the print.
        assert_ne!(fingerprint(&a), fingerprint(&path_graph(7)));
    }
}
