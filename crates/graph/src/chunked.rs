//! Chunked CSR: per-shard adjacency sub-arrays with slack, spliced in
//! place.
//!
//! The monolithic [`Csr`] packs every neighbour list into one flat arena,
//! so replacing *one* shard's edges means rebuilding the whole structure —
//! O(n + m) per churned epoch no matter how local the churn was. That
//! rebuild is exactly the splice floor the lifetime bench's locality sweep
//! hits once repair *derivation* became locality-proportional.
//!
//! [`ChunkedCsr`] removes the floor. Nodes are grouped by **chunk** (the
//! caller's repair shard): each chunk owns a contiguous region of the
//! arena holding its nodes' neighbour lists back to back, padded with
//! slack so a chunk's edge count can drift without moving its neighbours.
//! [`ChunkedCsr::splice`] takes a churn epoch's edge delta — emissions
//! withdrawn and emissions added — and rewrites only the chunks whose
//! adjacency actually changed: O(delta), not O(m).
//!
//! The delta the repair path hands in tracks the change, not the graph. Every
//! [`crate::ShardedEdgeStore`] shard list is kept sorted (a multiset: a
//! k-NN shard may hold one key twice), so a re-derived shard's old and new
//! lists diff in one linear two-pointer merge
//! ([`crate::diff_emissions`]), fanned out over the dirty shards; an
//! event-local UDG repair hands in its deaths' rows and its joins' disks.
//! The splice routes the delta's half-edges into per-chunk buckets — no
//! global sort — and each touched chunk sorts, coalesces and merges its own
//! bucket on the worker pool. Coalescing cancels entries that appear in
//! both lists, so direct callers passing whole old/new emission sets get
//! the same result.
//!
//! [`ChunkedCsr::build`] is sort-free too. It hands the per-shard emission
//! runs to the crate's assembler ([`crate::assemble`]) with the chunks as
//! its blocks: each chunk's rows scatter straight into the chunk's arena
//! region on the worker pool, each short row then sorted and folded into
//! multiplicities.
//!
//! Two representation details make the splice exact for every topology:
//!
//! * **Emission multiplicities.** The k-NN and Yao builders emit one
//!   canonical edge from *both* endpoints, possibly from different shards.
//!   Each arena entry therefore carries the count of emissions backing it:
//!   a dirty shard withdrawing its emission of `(u, v)` decrements the
//!   count, and the edge survives while another emission still backs it.
//!   Deduplication is a per-chunk counting merge, never a global sort.
//! * **Delta addressing by endpoint, not by emitter.** A dirty shard's
//!   re-derivation can change lists of nodes owned by *clean* shards (the
//!   far endpoint of a cross-shard edge). The delta is expanded into
//!   directed half-edges and routed to each endpoint's chunk, so exactly
//!   the affected chunks rewrite — whether or not churn marked them dirty.
//!
//! ## Slack policy
//!
//! Regions are sized in [`SLACK_PAGE`]-entry pages: a chunk of `len` live
//! entries gets `len + max(len/8, SLACK_PAGE)` rounded up to a page
//! multiple (a fresh build counts the emitted half-edges, before
//! duplicates fold). A splice that outgrows its region relocates the chunk
//! to the arena tail with fresh slack (the old region becomes dead
//! space); when dead space exceeds half the arena, one O(arena) compaction
//! rebuilds it densely. Both paths are semantically invisible — equality and
//! fingerprints read per-node neighbour slices, never the layout.

use crate::assemble::{assemble, Assembly, Blocks, Emitted};
use crate::csr::Csr;

/// Arena slack granularity, in half-edge entries.
pub const SLACK_PAGE: u32 = 64;

/// Region capacity for a chunk holding `len` live entries: at least one
/// slack page, proportionally more for large chunks, page-aligned.
#[inline]
fn cap_for(len: u32) -> u32 {
    let slack = (len / 8).max(SLACK_PAGE);
    (len + slack).next_multiple_of(SLACK_PAGE)
}

/// What one [`ChunkedCsr::splice`] call did (all costs O(dirty)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Chunks whose region was rewritten (0 when the delta cancelled).
    pub chunks_touched: usize,
    /// Chunks that outgrew their slack and moved to the arena tail.
    pub relocations: usize,
    /// Whole-arena compactions (0 or 1 per splice).
    pub compactions: usize,
    /// Coalesced non-zero half-edge delta entries applied.
    pub delta_halfedges: usize,
    /// Nodes whose neighbour list the delta changed (distinct endpoints of
    /// the net delta).
    pub nodes_touched: usize,
}

/// One directed half-edge of a splice delta: `(node, neighbour, change in
/// emission count)`.
type HalfEdge = (u32, u32, i32);

/// One chunk's merged region, computed read-only by `merge_chunk` (possibly
/// on a worker thread) and written back serially by `apply_chunk`.
struct ChunkRewrite {
    chunk: usize,
    targets: Vec<u32>,
    mult: Vec<u8>,
    /// `(node, offset-into-targets)` in chunk node order.
    node_starts: Vec<(u32, u32)>,
    /// Coalesced non-zero half-edge delta entries merged in.
    delta_halfedges: usize,
    /// Nodes of the chunk whose list the delta changed.
    nodes_touched: usize,
}

/// An undirected graph in chunked CSR form: per-node sorted neighbour
/// slices, grouped into per-chunk arena regions with slack so
/// [`Self::splice`] can rewrite one chunk without touching the rest.
///
/// Equality (against itself or a dense [`Csr`]) and
/// [`crate::fingerprint`] are *semantic*: two layouts that differ only in
/// slack or relocation history compare equal.
#[derive(Clone, Debug)]
pub struct ChunkedCsr {
    /// Node → owning chunk.
    chunk_of: Vec<u32>,
    /// Chunk → its nodes, ascending (CSR layout over chunks).
    chunk_nodes_off: Vec<u32>,
    chunk_nodes: Vec<u32>,
    /// Per-node slice into the arena.
    start: Vec<u32>,
    deg: Vec<u32>,
    /// Per-chunk arena region.
    region_start: Vec<u32>,
    region_cap: Vec<u32>,
    region_len: Vec<u32>,
    /// The arena: neighbour ids plus per-entry emission multiplicities.
    targets: Vec<u32>,
    mult: Vec<u8>,
    /// Entries abandoned by relocations (reclaimed by compaction).
    dead: usize,
    /// Live half-edge entries (sum of degrees) — `m` is half of this.
    live: usize,
}

impl ChunkedCsr {
    /// Build from per-shard edge emission runs; `chunk_of[u]` is node
    /// `u`'s owning chunk. An edge emitted from both endpoints (k-NN, Yao)
    /// may appear twice — multiplicities absorb the duplicate.
    ///
    /// The chunks are the assembler's blocks: each chunk's rows scatter
    /// straight into its own arena region, sized by the slack policy (see
    /// the module docs) from the half-edges emitted into it — before
    /// duplicates fold, so a folding chunk starts with extra slack. Owned
    /// runs are freed as they are bucketed.
    pub fn build<R>(n_chunks: usize, chunk_of: &[u32], runs: impl IntoIterator<Item = R>) -> Self
    where
        R: AsRef<[(u32, u32)]> + Send,
    {
        let n = chunk_of.len();
        assert!(n_chunks >= 1, "need at least one chunk");
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_chunks];
        for (u, &c) in chunk_of.iter().enumerate() {
            assert!((c as usize) < n_chunks, "chunk id {c} out of range");
            members[c as usize].push(u as u32);
        }
        let mut chunk_nodes_off = Vec::with_capacity(n_chunks + 1);
        chunk_nodes_off.push(0u32);
        let mut chunk_nodes = Vec::with_capacity(n);
        let mut slot_of = vec![0u32; n];
        for nodes in members {
            for (s, &u) in nodes.iter().enumerate() {
                slot_of[u as usize] = s as u32;
            }
            chunk_nodes.extend_from_slice(&nodes);
            chunk_nodes_off.push(chunk_nodes.len() as u32);
        }

        let blocks = Blocks::Chunks {
            chunk_of,
            slot_of: &slot_of,
            nodes_off: &chunk_nodes_off,
            nodes: &chunk_nodes,
        };
        let Assembly {
            targets,
            mult,
            deg: deg_by_pos,
            base: region_start,
            cap: region_cap,
            len: region_len,
        } = assemble(
            runs.into_iter().collect(),
            None,
            &blocks,
            Emitted::Repeated,
            cap_for,
            true,
        );

        let mut start = vec![0u32; n];
        let mut deg = vec![0u32; n];
        for c in 0..n_chunks {
            let mut cur = region_start[c];
            for p in chunk_nodes_off[c] as usize..chunk_nodes_off[c + 1] as usize {
                let u = chunk_nodes[p] as usize;
                start[u] = cur;
                deg[u] = deg_by_pos[p];
                cur += deg_by_pos[p];
            }
        }
        let live = region_len.iter().map(|&l| l as usize).sum();

        ChunkedCsr {
            chunk_of: chunk_of.to_vec(),
            chunk_nodes_off,
            chunk_nodes,
            start,
            deg,
            region_start,
            region_cap,
            region_len,
            targets,
            mult,
            dead: 0,
            live,
        }
    }

    /// An edgeless graph on `n` nodes in a single chunk.
    pub fn empty(n: usize) -> Self {
        Self::build::<&[(u32, u32)]>(1, &vec![0u32; n], [])
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.chunk_of.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.live / 2
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.region_start.len()
    }

    /// Neighbours of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let s = self.start[u as usize] as usize;
        &self.targets[s..s + self.deg[u as usize] as usize]
    }

    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.deg[u as usize] as usize
    }

    /// Membership test via binary search (neighbour lists are sorted).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Arena entries abandoned by relocations (observable so tests can pin
    /// the slack/compaction policy).
    #[inline]
    pub fn dead_entries(&self) -> usize {
        self.dead
    }

    /// Apply a churn delta: `removed` are edge emissions withdrawn since the
    /// last splice, `added` the new ones (the repair path passes its net
    /// edge delta). An emission present in both lists cancels; only chunks
    /// with a surviving net change rewrite. Cost is O(delta), not O(m).
    ///
    /// Panics if the delta is inconsistent with the current structure
    /// (removing an emission that was never spliced in) — that means the
    /// caller's view of the graph diverged from the CSR.
    pub fn splice(&mut self, removed: &[(u32, u32)], added: &[(u32, u32)]) -> SpliceStats {
        // Route every emission's two directed half-edges to their
        // endpoints' chunk buckets — no global sort. Each bucket is sorted,
        // coalesced and merged inside the parallel pass below.
        let mut buckets: Vec<Vec<HalfEdge>> = vec![Vec::new(); self.chunk_count()];
        for (list, d) in [(removed, -1), (added, 1)] {
            for &(a, b) in list {
                for (u, v) in [(a, b), (b, a)] {
                    buckets[self.chunk_of[u as usize] as usize].push((u, v, d));
                }
            }
        }
        let runs: Vec<(usize, Vec<HalfEdge>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, run)| !run.is_empty())
            .collect();

        // Merge pass: sorting and coalescing each bucket and the
        // two-pointer list merges (the compute) read only shared state, so
        // the touched chunks fan out over the worker pool; the writes back
        // into the arena — in-place copies, tail relocations, region
        // bookkeeping — happen serially below, in chunk order, so
        // relocation layout stays deterministic.
        let rewrites: Vec<Option<ChunkRewrite>> = {
            use rayon::prelude::*;
            runs.into_par_iter()
                .map(|(c, mut run)| self.merge_chunk(c, &mut run))
                .collect()
        };
        let mut stats = SpliceStats::default();
        for rw in rewrites.into_iter().flatten() {
            stats.chunks_touched += 1;
            stats.delta_halfedges += rw.delta_halfedges;
            stats.nodes_touched += rw.nodes_touched;
            self.apply_chunk(rw, &mut stats);
        }

        // Reclaim relocation debris once it dominates the arena; amortised
        // against the relocations that created it.
        if self.dead > self.targets.len() / 2 {
            self.compact_arena();
            stats.compactions = 1;
        }
        stats
    }

    /// Compute chunk `c`'s rewritten region: sort its half-edge bucket by
    /// `(node, nbr)`, coalesce it into net per-slot counts (an emission
    /// withdrawn and re-added cancels; so do the half-edges of distinct
    /// emissions `(u, v)` and `(v, u)`), and merge the survivors into the
    /// chunk's current lists. `None` when the bucket cancelled entirely.
    /// Read-only on `self` — safe to fan out across touched chunks;
    /// [`Self::apply_chunk`] writes the result back.
    fn merge_chunk(&self, c: usize, run: &mut [HalfEdge]) -> Option<ChunkRewrite> {
        run.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut w = 0usize;
        let mut i = 0usize;
        while i < run.len() {
            let (u, v, mut d) = run[i];
            let mut j = i + 1;
            while j < run.len() && run[j].0 == u && run[j].1 == v {
                d += run[j].2;
                j += 1;
            }
            if d != 0 {
                run[w] = (u, v, d);
                w += 1;
            }
            i = j;
        }
        let delta = &run[..w];
        if delta.is_empty() {
            return None;
        }
        let cap = self.region_len[c] as usize + delta.len();
        let mut s_targets: Vec<u32> = Vec::with_capacity(cap);
        let mut s_mult: Vec<u8> = Vec::with_capacity(cap);
        let nodes = self.chunk_nodes_off[c] as usize..self.chunk_nodes_off[c + 1] as usize;
        let mut s_node: Vec<(u32, u32)> = Vec::with_capacity(nodes.len());
        let mut nodes_touched = 0usize;
        let mut di = 0usize;
        for &u in &self.chunk_nodes[nodes] {
            let s_start = s_targets.len() as u32;
            let old_s = self.start[u as usize] as usize;
            let old_e = old_s + self.deg[u as usize] as usize;
            let d0 = di;
            while di < delta.len() && delta[di].0 == u {
                di += 1;
            }
            let drun = &delta[d0..di];
            if drun.is_empty() {
                s_targets.extend_from_slice(&self.targets[old_s..old_e]);
                s_mult.extend_from_slice(&self.mult[old_s..old_e]);
            } else {
                nodes_touched += 1;
                // Two-pointer merge of the sorted list with the sorted run.
                let (mut a, mut b) = (old_s, 0usize);
                let push_new = |v: u32, d: i32, t: &mut Vec<u32>, m: &mut Vec<u8>| {
                    assert!(d > 0, "splice removes emission ({u}, {v}) not present");
                    t.push(v);
                    m.push(u8::try_from(d).expect("emission multiplicity fits u8"));
                };
                while a < old_e && b < drun.len() {
                    let (va, vb) = (self.targets[a], drun[b].1);
                    match va.cmp(&vb) {
                        std::cmp::Ordering::Less => {
                            s_targets.push(va);
                            s_mult.push(self.mult[a]);
                            a += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            push_new(vb, drun[b].2, &mut s_targets, &mut s_mult);
                            b += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let m = self.mult[a] as i32 + drun[b].2;
                            assert!(m >= 0, "splice multiplicity of ({u}, {va}) went negative");
                            if m > 0 {
                                s_targets.push(va);
                                s_mult
                                    .push(u8::try_from(m).expect("emission multiplicity fits u8"));
                            }
                            a += 1;
                            b += 1;
                        }
                    }
                }
                for a in a..old_e {
                    s_targets.push(self.targets[a]);
                    s_mult.push(self.mult[a]);
                }
                for &(_, v, d) in &drun[b..] {
                    push_new(v, d, &mut s_targets, &mut s_mult);
                }
            }
            s_node.push((u, s_start));
        }
        debug_assert_eq!(di, delta.len(), "delta run references a foreign node");
        Some(ChunkRewrite {
            chunk: c,
            targets: s_targets,
            mult: s_mult,
            node_starts: s_node,
            delta_halfedges: delta.len(),
            nodes_touched,
        })
    }

    /// Write one merged chunk back into the arena: in place when the slack
    /// absorbs the drift, relocated to the tail otherwise.
    fn apply_chunk(&mut self, rw: ChunkRewrite, stats: &mut SpliceStats) {
        let ChunkRewrite {
            chunk: c,
            targets: s_targets,
            mult: s_mult,
            node_starts: s_node,
            ..
        } = rw;
        let new_len = s_targets.len();
        let old_len = self.region_len[c] as usize;
        if new_len <= self.region_cap[c] as usize {
            // Fits in place (slack absorbed the drift).
            let base = self.region_start[c] as usize;
            self.targets[base..base + new_len].copy_from_slice(&s_targets);
            self.mult[base..base + new_len].copy_from_slice(&s_mult);
        } else {
            // Relocate to the arena tail with fresh slack.
            let cap = cap_for(u32::try_from(new_len).expect("chunk length fits u32")) as usize;
            let base = self.targets.len();
            self.targets.extend_from_slice(&s_targets);
            self.mult.extend_from_slice(&s_mult);
            self.targets.resize(base + cap, 0);
            self.mult.resize(base + cap, 0);
            self.dead += self.region_cap[c] as usize;
            self.region_start[c] = u32::try_from(base).expect("arena offset fits u32");
            self.region_cap[c] = cap as u32;
            stats.relocations += 1;
        }
        self.region_len[c] = new_len as u32;
        let base = self.region_start[c];
        for (k, &(u, s_start)) in s_node.iter().enumerate() {
            let end = s_node.get(k + 1).map(|&(_, e)| e).unwrap_or(new_len as u32);
            self.start[u as usize] = base + s_start;
            self.deg[u as usize] = end - s_start;
        }
        self.live = (self.live + new_len) - old_len;
    }

    /// Rebuild the arena densely in chunk order, dropping dead regions and
    /// resetting every chunk's slack to policy.
    fn compact_arena(&mut self) {
        let n_chunks = self.chunk_count();
        let total: usize = self.region_len.iter().map(|&l| cap_for(l) as usize).sum();
        let mut targets: Vec<u32> = Vec::with_capacity(total);
        let mut mult: Vec<u8> = Vec::with_capacity(total);
        for c in 0..n_chunks {
            let len = self.region_len[c] as usize;
            let old_base = self.region_start[c] as usize;
            let new_base = targets.len();
            targets.extend_from_slice(&self.targets[old_base..old_base + len]);
            mult.extend_from_slice(&self.mult[old_base..old_base + len]);
            let cap = cap_for(len as u32) as usize;
            targets.resize(new_base + cap, 0);
            mult.resize(new_base + cap, 0);
            self.region_start[c] = u32::try_from(new_base).expect("arena offset fits u32");
            self.region_cap[c] = cap as u32;
            let mut cur = new_base as u32;
            for idx in self.chunk_nodes_off[c] as usize..self.chunk_nodes_off[c + 1] as usize {
                let u = self.chunk_nodes[idx] as usize;
                self.start[u] = cur;
                cur += self.deg[u];
            }
        }
        self.targets = targets;
        self.mult = mult;
        self.dead = 0;
    }

    /// Copy out as a dense [`Csr`] (layout-normalising; used by the
    /// differential suites to byte-compare against cold builds).
    pub fn to_dense(&self) -> Csr {
        let n = self.n();
        let mut offsets = vec![0u32; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + self.deg[u];
        }
        let mut targets = Vec::with_capacity(self.live);
        for u in 0..n as u32 {
            targets.extend_from_slice(self.neighbors(u));
        }
        Csr::from_sorted_parts(offsets, targets)
    }
}

/// Semantic equality: same node count, same per-node neighbour lists —
/// slack, relocation history and multiplicity layout are invisible.
impl PartialEq for ChunkedCsr {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n()
            && self.live == other.live
            && (0..self.n() as u32).all(|u| self.neighbors(u) == other.neighbors(u))
    }
}

impl PartialEq<Csr> for ChunkedCsr {
    fn eq(&self, other: &Csr) -> bool {
        self.n() == other.n()
            && self.m() == other.m()
            && (0..self.n() as u32).all(|u| self.neighbors(u) == other.neighbors(u))
    }
}

impl PartialEq<ChunkedCsr> for Csr {
    fn eq(&self, other: &ChunkedCsr) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;
    use proptest::prelude::*;

    fn dense(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut el = EdgeList::new(n);
        for &(u, v) in edges {
            el.add(u, v);
        }
        Csr::from_edge_list(el)
    }

    /// Structural invariants every mutation must preserve.
    fn check_invariants(g: &ChunkedCsr) {
        let mut live = 0usize;
        for u in 0..g.n() as u32 {
            let ns = g.neighbors(u);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "node {u} list unsorted");
            for &v in ns {
                assert!(g.has_edge(v, u), "asymmetric edge ({u}, {v})");
            }
            live += ns.len();
        }
        assert_eq!(live, g.m() * 2, "live count drifted");
    }

    #[test]
    fn build_matches_dense_with_duplicate_emissions() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 3), (1, 3)];
        // Emit (1, 2) and (0, 3) twice, as a two-sided builder would.
        let emissions = [(0, 1), (1, 2), (2, 3), (1, 2), (0, 3), (1, 3), (0, 3)];
        let g = ChunkedCsr::build(2, &[0, 0, 1, 1], [emissions]);
        let d = dense(4, &edges);
        assert_eq!(g, d);
        assert_eq!(d, g);
        assert_eq!(g.m(), 5);
        assert_eq!(g.to_dense(), d);
        check_invariants(&g);
    }

    #[test]
    fn cancelled_delta_touches_nothing() {
        let emissions = [(0u32, 1u32), (1, 2)];
        let mut g = ChunkedCsr::build(2, &[0, 1, 1], [emissions]);
        let stats = g.splice(&emissions, &emissions);
        assert_eq!(stats.chunks_touched, 0);
        assert_eq!(stats.delta_halfedges, 0);
        assert_eq!(stats.nodes_touched, 0);
        assert_eq!(g, dense(3, &emissions));
    }

    #[test]
    fn splice_add_remove_matches_reference() {
        // 3 chunks over 9 nodes; splice across chunk boundaries.
        let chunk_of = [0u32, 0, 0, 1, 1, 1, 2, 2, 2];
        let initial = [(0u32, 1u32), (1, 4), (3, 4), (4, 7), (6, 8)];
        let mut g = ChunkedCsr::build(3, &chunk_of, [&initial]);
        // Remove chunk-crossing (1,4), add (2,6) and (0,8).
        let stats = g.splice(&[(1, 4)], &[(2, 6), (0, 8)]);
        assert_eq!(stats.chunks_touched, 3);
        assert_eq!(stats.delta_halfedges, 6);
        assert_eq!(stats.nodes_touched, 6, "nodes 0, 1, 2, 4, 6, 8");
        let want = dense(9, &[(0, 1), (3, 4), (4, 7), (6, 8), (2, 6), (0, 8)]);
        assert_eq!(g, want);
        assert_eq!(g.to_dense(), want);
        check_invariants(&g);
        // Undo splices back byte-identically.
        g.splice(&[(2, 6), (0, 8)], &[(1, 4)]);
        assert_eq!(g, dense(9, &initial));
        check_invariants(&g);
    }

    #[test]
    fn multiplicity_keeps_edges_backed_by_a_clean_shard() {
        // Edge (1, 2) emitted from both endpoints' chunks (k-NN style).
        let mut g = ChunkedCsr::build(2, &[0, 0, 1], [[(1u32, 2u32), (1, 2)]]);
        assert_eq!(g.m(), 1);
        // One side withdraws its emission: the edge must survive.
        g.splice(&[(1, 2)], &[]);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        // The other side withdraws too: now it is gone.
        g.splice(&[(1, 2)], &[]);
        assert_eq!(g.m(), 0);
        assert!(g.neighbors(1).is_empty() && g.neighbors(2).is_empty());
        check_invariants(&g);
    }

    #[test]
    fn slack_exhaustion_relocates_then_compaction_reclaims() {
        // One tiny chunk plus a big stable one; grow the tiny chunk far
        // past its initial slack page.
        let n = 400usize;
        let chunk_of: Vec<u32> = (0..n).map(|u| if u < 4 { 0 } else { 1 }).collect();
        let stable: Vec<(u32, u32)> = (4..n as u32 - 1).map(|u| (u, u + 1)).collect();
        let mut g = ChunkedCsr::build(2, &chunk_of, [&stable]);
        let mut reference: Vec<(u32, u32)> = stable.clone();
        let mut relocations = 0usize;
        let mut compactions = 0usize;
        // Node 0 progressively links to every node of chunk 1: each batch
        // adds entries to chunk 0 (node 0's list) and chunk 1 (back refs).
        for batch in 0..12 {
            let added: Vec<(u32, u32)> = (0..32u32).map(|i| (0u32, 4 + batch * 32 + i)).collect();
            let stats = g.splice(&[], &added);
            relocations += stats.relocations;
            compactions += stats.compactions;
            reference.extend_from_slice(&added);
            assert_eq!(g, dense(n, &reference), "batch {batch} diverged");
            check_invariants(&g);
        }
        assert!(relocations > 0, "growth past a slack page must relocate");
        assert!(compactions > 0, "repeated relocations must compact");
        assert_eq!(g.dead_entries(), 0, "compaction reclaims dead space");
        // Shrink back down: in-place, no relocation churn.
        let back: Vec<(u32, u32)> = reference.iter().copied().filter(|&(u, _)| u == 0).collect();
        let stats = g.splice(&back, &[]);
        assert_eq!(stats.relocations, 0);
        assert_eq!(g, dense(n, &stable));
        check_invariants(&g);
    }

    #[test]
    fn extinction_and_resurrection() {
        let edges = [(0u32, 1u32), (1, 2), (0, 2)];
        let mut g = ChunkedCsr::build(2, &[0, 1, 1], [&edges]);
        g.splice(&edges, &[]);
        assert_eq!(g.m(), 0);
        assert_eq!(g, Csr::empty(3));
        g.splice(&[], &edges);
        assert_eq!(g, dense(3, &edges));
        check_invariants(&g);
    }

    #[test]
    fn empty_graphs() {
        let g = ChunkedCsr::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = ChunkedCsr::empty(5);
        assert_eq!(g.n(), 5);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g, Csr::empty(5));
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_a_never_spliced_emission_panics() {
        let mut g = ChunkedCsr::build(1, &[0, 0, 0], [[(0u32, 1u32)]]);
        g.splice(&[(1, 2)], &[]);
    }

    /// Build over `raw` projected onto `n` nodes (self loops dropped,
    /// pairs canonicalised) and compare against the dense reference.
    fn check_build_matches_dense(n: usize, chunks: usize, raw: &[(u32, u32)]) {
        let chunk_of: Vec<u32> = (0..n as u32).map(|u| u % chunks as u32).collect();
        let emissions: Vec<(u32, u32)> = raw
            .iter()
            .filter(|_| n >= 2)
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let g = ChunkedCsr::build(chunks, &chunk_of, [&emissions]);
        let d = dense(n, &emissions);
        assert_eq!(g, d, "n = {n}, chunks = {chunks}");
        assert_eq!(g.to_dense(), d);
        check_invariants(&g);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counting-scatter build equals the dense reference on random
        /// emissions with duplicate keys and isolated nodes, and on the
        /// degenerate n ∈ {0, 1, 2} projections of the same draw.
        #[test]
        fn prop_build_matches_dense(
            n in 3usize..40,
            chunks in 1usize..5,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..60),
        ) {
            let mut raw = raw;
            raw.extend_from_within(..raw.len() / 2);
            for n in [0, 1, 2, n] {
                check_build_matches_dense(n, chunks, &raw);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The scatter-by-chunk splice equals the dense reference on random
        /// deltas: withdraw a random subset of the current edges, add fresh
        /// ones, and re-add some withdrawn ones in the same call (those
        /// must cancel), with both orientations of a pair in the lists.
        #[test]
        fn prop_splice_matches_dense(
            n in 2usize..40,
            chunks in 1usize..6,
            initial in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
            fresh in proptest::collection::vec((0u32..40, 0u32..40), 0..40),
            drop_mask in proptest::collection::vec(0u8..4, 80..81),
        ) {
            let canon = |raw: &[(u32, u32)]| -> Vec<(u32, u32)> {
                let mut out: Vec<(u32, u32)> = raw
                    .iter()
                    .map(|&(a, b)| (a % n as u32, b % n as u32))
                    .filter(|&(a, b)| a != b)
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            };
            let edges = canon(&initial);
            let chunk_of: Vec<u32> = (0..n as u32).map(|u| u % chunks as u32).collect();
            let mut g = ChunkedCsr::build(chunks, &chunk_of, [&edges]);
            // Mask 0 withdraws, 1 withdraws and re-adds, else keeps.
            let (mut removed, mut added, mut kept) = (Vec::new(), Vec::new(), Vec::new());
            for (i, &(a, b)) in edges.iter().enumerate() {
                match drop_mask[i % drop_mask.len()] {
                    0 => removed.push((b, a)),
                    1 => {
                        removed.push((a, b));
                        added.push((a, b));
                        kept.push((a, b));
                    }
                    _ => kept.push((a, b)),
                }
            }
            for e in canon(&fresh) {
                if edges.binary_search(&e).is_err() {
                    added.push(e);
                    kept.push(e);
                }
            }
            let stats = g.splice(&removed, &added);
            check_invariants(&g);
            prop_assert_eq!(&g, &dense(n, &kept));
            let changed = (0..n as u32)
                .filter(|&u| dense(n, &edges).neighbors(u) != g.neighbors(u))
                .count();
            prop_assert_eq!(stats.nodes_touched, changed);
        }
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same graph, different chunking and different splice history.
        let edges = [(0u32, 1u32), (1, 2), (2, 3)];
        let a = ChunkedCsr::build(2, &[0, 0, 1, 1], [&edges]);
        let mut b = ChunkedCsr::build(4, &[0, 1, 2, 3], [[(0u32, 1u32)]]);
        b.splice(&[], &[(1, 2), (2, 3)]);
        assert_eq!(a, b);
        assert_eq!(a, dense(4, &edges));
    }
}
