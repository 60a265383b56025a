//! Incremental CSR maintenance primitives.
//!
//! The construction pipeline shards a deployment and emits each canonical
//! edge exactly once, from the shard owning its smaller endpoint. This
//! module adds the id-space machinery that turns those per-shard emissions
//! into an *incrementally maintainable* graph:
//!
//! * [`ShardedEdgeStore`] — the per-shard edge cache. Replacing one shard's
//!   slice and re-splicing is the delta operation behind
//!   `wsn_rgg::incremental`: shards untouched by churn keep their cached
//!   emissions byte-for-byte. Every shard list is kept sorted (as a
//!   multiset), so [`diff_emissions`] turns a repaired shard's old and new
//!   lists into its net splice delta in one linear merge.
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
/// Monotonicity is correctness load-bearing for [`IdRemap`] and
/// [`relabel`] (it is what makes id comparisons — canonical edge
/// orientation, sorted gathers — survive the remap), and the bench/gate
/// path runs in release mode, so the check must not be debug-only: a
/// corrupted gather has to fail loudly, not splice garbage.
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

/// Sort one shard's emissions ascending — the [`ShardedEdgeStore`] cache
/// invariant. Owner-grouped output (runs of one ascending first endpoint,
/// as the UDG, Gabriel and RNG shard builders emit) only needs each short
/// run sorted; anything else falls back to one sort.
pub fn sort_emissions(edges: &mut [(u32, u32)]) {
    if edges.is_sorted() {
        return;
    }
    if edges.is_sorted_by_key(|e| e.0) {
        for run in edges.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_unstable();
        }
    } else {
        edges.sort_unstable();
    }
}

/// `(removed, added)` emission lists.
type EmissionDelta = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Multiset difference of two ascending emission lists, as
/// `(removed, added)`: the entries of `old` that `new` does not match
/// one-for-one, and vice versa. Matching is per occurrence — a k-NN shard
/// emits a mutual pair of owned nodes twice, and withdrawing one copy
/// removes exactly one — so the result is the net splice delta that
/// [`crate::ChunkedCsr::splice`] expects. One linear merge, no sort.
pub fn diff_emissions(old: &[(u32, u32)], new: &[(u32, u32)]) -> EmissionDelta {
    debug_assert!(old.is_sorted() && new.is_sorted(), "unsorted emissions");
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (removed, added)
}

/// Per-shard canonical edge cache with splice-to-CSR.
///
/// Edges are stored as the shard builders emit them (canonical `(min,
/// max)` pairs; the k-NN and Yao builders may emit one edge from both
/// endpoints — possibly in different shards — which
/// [`crate::ChunkedCsr::build`] folds into multiplicities), each shard's
/// list sorted ascending ([`sort_emissions`]) so old and new lists diff
/// linearly.
#[derive(Clone, Debug)]
pub struct ShardedEdgeStore {
    n: usize,
    per_shard: Vec<Vec<(u32, u32)>>,
}

impl ShardedEdgeStore {
    /// An empty store over `shards` shards of a graph on `n` nodes.
    pub fn new(n: usize, shards: usize) -> Self {
        ShardedEdgeStore {
            n,
            per_shard: vec![Vec::new(); shards],
        }
    }

    /// Number of nodes in the universe id space.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shard slots.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// The cached emissions of shard `s`.
    #[inline]
    pub fn shard(&self, s: usize) -> &[(u32, u32)] {
        &self.per_shard[s]
    }

    /// Replace shard `s`'s cached emissions (the re-derivation path). The
    /// list must be sorted ascending ([`sort_emissions`]).
    pub fn replace(&mut self, s: usize, edges: Vec<(u32, u32)>) {
        debug_assert!(edges.is_sorted(), "shard {s} emissions unsorted");
        self.per_shard[s] = edges;
    }

    /// Move shard `s`'s cached emissions out, leaving it empty (the repair
    /// path diffs them against the re-derived list without a copy).
    pub fn take(&mut self, s: usize) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.per_shard[s])
    }

    /// Total cached edge emissions (duplicates counted).
    pub fn emission_count(&self) -> usize {
        self.per_shard.iter().map(Vec::len).sum()
    }

    /// Every shard's cached emissions, in shard order (duplicates included —
    /// the chunked-CSR build folds them into multiplicities).
    pub fn runs(&self) -> &[Vec<(u32, u32)>] {
        &self.per_shard
    }

    /// The shards' cached emissions, moved out.
    pub fn into_runs(self) -> Vec<Vec<(u32, u32)>> {
        self.per_shard
    }
}

/// A compacted-local id space over a sparse, ascending subset of universe
/// ids — what the dirty-extent repair path hands to shard derivation.
///
/// The localized gather yields the universe ids of the alive points inside
/// a dirty region; geometry kernels, however, want a dense `0..len` id
/// space (their index buckets and neighbour lists are arrays). `IdRemap`
/// is that bridge, and its strict monotonicity is the correctness
/// load-bearing part: every id comparison — canonical `(min, max)` edge
/// orientation, k-NN heap tie-breaks, sorted gathers — resolves
/// identically in local and universe space, so derivations over the dense
/// space splice back byte-identical to a cold rebuild (the same argument
/// [`relabel`] rests on).
#[derive(Clone, Debug, Default)]
pub struct IdRemap {
    to_universe: Vec<u32>,
}

impl IdRemap {
    /// Wrap a strictly ascending universe-id list, panicking on violation
    /// — in release builds too, since the bench/gate path runs in release
    /// and a silently-accepted corrupted gather would splice garbage.
    pub fn from_sorted(to_universe: Vec<u32>) -> Self {
        match Self::try_from_sorted(to_universe) {
            Ok(remap) => remap,
            Err(e) => panic!("IdRemap requires strictly ascending universe ids: {e}"),
        }
    }

    /// Fallible constructor: the same monotonicity contract as
    /// [`Self::from_sorted`], surfaced as a typed error for callers that
    /// can recover (or report) instead of aborting.
    pub fn try_from_sorted(to_universe: Vec<u32>) -> Result<Self, MonotonicityError> {
        check_monotone(&to_universe)?;
        Ok(IdRemap { to_universe })
    }

    /// Number of local ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.to_universe.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.to_universe.is_empty()
    }

    /// The full local→universe map (ascending).
    #[inline]
    pub fn to_universe(&self) -> &[u32] {
        &self.to_universe
    }

    /// Universe id of a local id.
    #[inline]
    pub fn universe_of(&self, local: u32) -> u32 {
        self.to_universe[local as usize]
    }

    /// Local id of a universe id, or `None` when the id is not in the
    /// subset (binary search — the map is sorted by construction).
    #[inline]
    pub fn local_of(&self, universe: u32) -> Option<u32> {
        self.to_universe
            .binary_search(&universe)
            .ok()
            .map(|i| i as u32)
    }
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

/// Layout-blind 64-bit fingerprint of the adjacency structure.
///
/// Two graphs have equal fingerprints iff (up to hash collision) they have
/// the same node count and identical per-node neighbour lists — the
/// property `Csr::eq` checks, but transportable across processes (the
/// lifetime bench uses it to prove the incremental and rebuild-per-epoch
/// runs traversed identical topologies).
///
/// Each node hashes its id, degree and sorted neighbour list: one
/// multiply-rotate step per neighbour, then one full [`mix64`]. The
/// fingerprint is the wrapping sum of the node hashes, mixed with `n`.
/// Addition commutes, so node blocks hash on the worker pool and the value
/// is the same at any thread count. Generic over [`GraphView`], so a
/// chunked CSR and the dense CSR of the same graph hash equal.
pub fn fingerprint<G: GraphView + Sync + ?Sized>(g: &G) -> u64 {
    let n = g.n();
    let node = |u: u32| {
        let ns = g.neighbors(u);
        let mut h = ((u64::from(u) << 32) | ns.len() as u64) ^ 0xE703_7ED1_A0B4_28DB;
        for &v in ns {
            h = (h ^ u64::from(v))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(27);
        }
        Wrapping(mix64(h))
    };
    let sum: Wrapping<u64> = (0..n)
        .step_by(FINGERPRINT_BLOCK)
        .into_par_iter()
        .map(|lo| {
            let block = lo as u32..(lo + FINGERPRINT_BLOCK).min(n) as u32;
            block.map(&node).sum::<Wrapping<u64>>()
        })
        .sum();
    mix64(sum.0 ^ mix64(n as u64 ^ 0xA076_1D64_78BD_642F))
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

    /// The graph a store's emissions splice into (one chunk).
    fn spliced(store: &ShardedEdgeStore) -> crate::ChunkedCsr {
        crate::ChunkedCsr::build(1, &vec![0u32; store.n()], store.runs())
    }

    #[test]
    fn store_splices_shards_in_any_partition() {
        // The same edge set split 1 shard vs 3 shards gives the same CSR.
        let edges = [(0u32, 1u32), (0, 3), (1, 2), (2, 3)];
        let mut one = ShardedEdgeStore::new(4, 1);
        one.replace(0, edges.to_vec());
        let mut three = ShardedEdgeStore::new(4, 3);
        three.replace(0, vec![edges[0]]);
        three.replace(1, vec![edges[1], edges[2]]);
        three.replace(2, vec![edges[3]]);
        assert_eq!(spliced(&one), spliced(&three));
        assert_eq!(spliced(&one).m(), 4);
        // Taking one shard empties only that shard.
        assert_eq!(three.take(1), vec![edges[1], edges[2]]);
        assert_eq!(three.shard(1), &[]);
        assert_eq!(three.emission_count(), 2);
    }

    #[test]
    fn dedup_path_collapses_cross_shard_duplicates() {
        let mut store = ShardedEdgeStore::new(3, 2);
        store.replace(0, vec![(0, 1), (1, 2)]);
        store.replace(1, vec![(1, 2)]); // emitted again from the other side
        assert_eq!(spliced(&store).m(), 2);
        assert_eq!(store.emission_count(), 3);
    }

    #[test]
    fn sort_emissions_sorts_owner_runs_and_arbitrary_lists() {
        // Owner-grouped (UDG-style): only the runs are out of order.
        let mut runs = vec![(1u32, 9u32), (1, 4), (3, 7), (5, 8), (5, 6)];
        sort_emissions(&mut runs);
        assert_eq!(runs, vec![(1, 4), (1, 9), (3, 7), (5, 6), (5, 8)]);
        // Canonical pairs from both endpoints (Yao/k-NN-style), with a
        // duplicate key that must survive as a multiset.
        let mut mixed = vec![(4u32, 6u32), (2, 4), (4, 5), (2, 4), (0, 4)];
        sort_emissions(&mut mixed);
        assert_eq!(mixed, vec![(0, 4), (2, 4), (2, 4), (4, 5), (4, 6)]);
    }

    #[test]
    fn diff_emissions_is_the_multiset_difference() {
        let old = [(0u32, 1u32), (0, 2), (1, 2), (1, 2), (2, 3)];
        let new = [(0u32, 2u32), (1, 2), (1, 3), (2, 3), (2, 3)];
        let (removed, added) = diff_emissions(&old, &new);
        assert_eq!(removed, vec![(0, 1), (1, 2)]);
        assert_eq!(added, vec![(1, 3), (2, 3)]);
        let (r, a) = diff_emissions(&old, &old);
        assert!(r.is_empty() && a.is_empty());
        assert_eq!(diff_emissions(&[], &new).1, new.to_vec());
        assert_eq!(diff_emissions(&old, &[]).0, old.to_vec());
    }

    #[test]
    fn withdrawing_one_copy_of_a_twice_emitted_key_keeps_the_edge() {
        // A k-NN shard owning both endpoints of a mutual pair emits the
        // canonical key twice; after repair only one endpoint still lists
        // the other. The diff withdraws exactly one copy and the edge stays
        // backed by the other.
        let chunk_of = [0u32, 0, 0, 1];
        let mut store = ShardedEdgeStore::new(4, 2);
        store.replace(0, vec![(0, 1), (1, 2), (1, 2)]);
        store.replace(1, vec![(2, 3)]);
        let mut g = crate::ChunkedCsr::build(2, &chunk_of, store.runs());
        let old = store.take(0);
        store.replace(0, vec![(0, 1), (1, 2)]);
        let (removed, added) = diff_emissions(&old, store.shard(0));
        assert_eq!(removed, vec![(1, 2)]);
        assert!(added.is_empty());
        g.splice(&removed, &added);
        assert!(
            g.has_edge(1, 2) && g.has_edge(2, 1),
            "edge lost its backing"
        );
        assert_eq!(g, spliced(&store));
        // Withdrawing the last copy removes it.
        let old = store.take(0);
        store.replace(0, vec![(0, 1)]);
        let (removed, added) = diff_emissions(&old, store.shard(0));
        g.splice(&removed, &added);
        assert!(!g.has_edge(1, 2));
        assert_eq!(g, spliced(&store));
    }

    #[test]
    fn id_remap_round_trips_and_rejects_outsiders() {
        let m = IdRemap::from_sorted(vec![2, 5, 9, 40]);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        for (local, universe) in [(0u32, 2u32), (1, 5), (2, 9), (3, 40)] {
            assert_eq!(m.universe_of(local), universe);
            assert_eq!(m.local_of(universe), Some(local));
        }
        for outsider in [0u32, 3, 10, 41] {
            assert_eq!(m.local_of(outsider), None);
        }
        assert!(IdRemap::default().is_empty());
        // Monotone by construction, so id comparisons survive the round
        // trip: local order == universe order.
        assert!(m.to_universe().windows(2).all(|w| w[0] < w[1]));
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
    fn id_remap_rejects_non_monotone_ids_in_release_builds_too() {
        let err = IdRemap::try_from_sorted(vec![2, 5, 5, 9]).unwrap_err();
        assert_eq!(
            err,
            MonotonicityError {
                index: 2,
                prev: 5,
                next: 5
            }
        );
        assert!(err.to_string().contains("index 2"));
        assert!(IdRemap::try_from_sorted(vec![0, 7, 40]).is_ok());
        // The panicking constructor carries the same diagnostic, with no
        // debug_assertions gate.
        let panic = std::panic::catch_unwind(|| IdRemap::from_sorted(vec![3, 1])).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("strictly ascending"), "got: {msg}");
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
    fn store_emissions_iterate_in_shard_order_with_duplicates() {
        let mut store = ShardedEdgeStore::new(3, 2);
        store.replace(0, vec![(0, 1), (1, 2)]);
        store.replace(1, vec![(1, 2)]);
        let all: Vec<(u32, u32)> = store.runs().concat();
        assert_eq!(all, vec![(0, 1), (1, 2), (1, 2)]);
        assert_eq!(all.len(), store.emission_count());
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
