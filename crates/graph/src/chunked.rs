//! Chunked CSR: per-shard adjacency chunks, each owning its rows' buffer,
//! spliced on the worker pool.
//!
//! The monolithic [`Csr`] packs every neighbour list into one flat arena,
//! so replacing *one* shard's edges means rebuilding the whole structure —
//! O(n + m) per churned epoch no matter how local the churn was.
//! [`ChunkedCsr`] removes that floor. Nodes are grouped by **chunk** (a
//! shard of the caller's plan, which sizes only the chunks), and each
//! chunk owns a buffer no other chunk shares: its nodes' rows back to back
//! in node order, each a length header followed by the neighbours, plus
//! one emission multiplicity per entry; a clone of the graph shares these
//! buffers until a splice replaces them. A per-node record names the
//! node's chunk and where its row starts, so [`ChunkedCsr::neighbors`]
//! reads one record, one chunk header and the row, whose length sits on
//! the row's first cache line.
//!
//! ## Nodes are ranks, rows are in deployment-id order
//!
//! A chunked CSR's nodes `0..n` are *ranks*: positions in a spatially
//! local layout of the deployment (the incremental engine uses the Morton
//! order of `wsn_pointproc::PointOrder`), so that a traversal's per-node
//! arrays — the row records, a BFS parent array, positions, liveness — are
//! read in spatial order. Each node carries its deployment id,
//! [`ChunkedCsr::to_orig`], and **every row holds ranks sorted by their
//! deployment ids**. A traversal over ascending adjacency therefore visits
//! neighbours in exactly the order it would on the deployment-id graph, so
//! BFS parents, paths and every other order-dependent result are the same
//! up to the renaming. [`ChunkedCsr::build`] is the identity layout
//! (rank = id); [`ChunkedCsr::build_ranked`] takes any permutation.
//!
//! Equality and [`crate::fingerprint`] read through the map (via
//! [`GraphView::id`]), so they speak deployment ids: a chunked CSR equals
//! the dense deployment-id [`Csr`] of the same graph, whatever its layout.
//!
//! ## The splice
//!
//! [`ChunkedCsr::splice`] takes a churn epoch's net edge delta — emissions
//! withdrawn and emissions added, between ranks — and rewrites only the
//! chunks whose adjacency changed, all on the worker pool:
//!
//! 1. The assembler's bucket pass ([`crate::assemble`]) sorts the delta's
//!    half-edges by the chunk owning their row — no global sort.
//! 2. Each touched chunk counting-sorts its half-edges by node slot, sorts
//!    each node's few entries by deployment id and coalesces them (an
//!    emission withdrawn and re-added cancels), and merges them into its
//!    rows in one sequential walk of the old buffer. The merge writes into
//!    a spare buffer of the worker's: runs of unchanged rows are copied
//!    whole, changed rows are two-pointer merged.
//! 3. The chunk then swaps that buffer in. Its old buffer becomes a spare
//!    for a later chunk unless a clone still holds it — so a splice of a
//!    graph nobody cloned allocates no row storage once the spares have
//!    room, and a clone ([`Clone`], which the serve path's snapshots take
//!    every epoch) copies the row records and one pointer per chunk, never
//!    the adjacency, and keeps reading the buffers it shares.
//!
//! [`ChunkedCsr::build`] is the same assembler with the chunks as its
//! blocks: each chunk's rows scatter straight into the chunk's own buffer,
//! sorted by deployment id.
//!
//! Two representation details make the splice exact for every topology:
//!
//! * **Emission multiplicities.** The k-NN and Yao builders emit one
//!   canonical edge from *both* endpoints, possibly from different chunks.
//!   Each entry therefore carries the count of emissions backing it: an
//!   owner withdrawing its emission of `(u, v)` decrements the count, and
//!   the edge survives while another emission still backs it. An edge
//!   whose count crosses zero, either way, is reported in the splice's
//!   [`SpliceStats::edges_removed`] / [`SpliceStats::edges_added`].
//! * **Delta addressing by endpoint, not by emitter.** An owner's new
//!   selection changes the row of each far endpoint too, which may live in
//!   another chunk. The delta is expanded into directed half-edges and
//!   routed to each endpoint's chunk, so exactly the affected chunks
//!   rewrite.
//!
//! ## The fingerprint is kept with the rows
//!
//! Each chunk keeps one hash per row — the node's term of
//! [`crate::fingerprint`], over deployment ids — and their wrapping sum.
//! The build seeds them, and the splice rehashes exactly the rows it
//! rewrites while they are hot, so [`ChunkedCsr::fingerprint`] sums one
//! value per chunk and equals the full pass bit for bit.

use std::num::Wrapping;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

use rayon::prelude::*;

use crate::assemble::{bucket, scatter_block, split_runs, Blocks, Emitted};
use crate::csr::Csr;
use crate::delta::{finish, node_hash};
use crate::view::GraphView;

/// What one [`ChunkedCsr::splice`] call did (all costs O(dirty)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Chunks whose rows were rewritten (0 when the delta cancelled).
    pub chunks_touched: usize,
    /// Coalesced non-zero half-edge delta entries applied.
    pub delta_halfedges: usize,
    /// Nodes whose neighbour list the delta changed (distinct endpoints of
    /// the net delta).
    pub nodes_touched: usize,
    /// Edges the splice deleted (their emission count fell to zero), as
    /// node pairs with the larger deployment id first, in chunk order.
    pub edges_removed: Vec<(u32, u32)>,
    /// Edges the splice created (their emission count rose from zero), in
    /// the same form.
    pub edges_added: Vec<(u32, u32)>,
}

/// Where a node's row lives: its chunk (fixed at build) and the position
/// of the row's length header in the chunk's buffer (rewritten by the
/// splice worker that owns the chunk — hence an atomic, read and written
/// `Relaxed`; the pool's join orders it against every later read). The
/// row's length lives in its header, not here: at eight bytes a node, the
/// records of a 10⁵-node graph stay L2-resident beside a BFS's own
/// per-node state.
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) chunk: u32,
    start: AtomicU32,
}

impl Row {
    #[inline]
    fn start(&self) -> usize {
        self.start.load(Relaxed) as usize
    }

    #[inline]
    fn set(&self, start: usize) {
        self.start.store(start as u32, Relaxed);
    }
}

impl Clone for Row {
    fn clone(&self) -> Self {
        let start = AtomicU32::new(self.start.load(Relaxed));
        Row { start, ..*self }
    }
}

/// A splice worker's reusable scratch: the slot offsets and coalesced
/// delta of the chunk in hand, the slots and starts of the rows it
/// rewrote, the edges whose count crossed zero, and the spare buffers it
/// merges into.
#[derive(Default)]
struct Scratch {
    off: Vec<u32>,
    delta: Vec<(u32, i32)>,
    rehashed: Vec<(u32, u32)>,
    flips: SpliceStats,
    targets: Spare<u32>,
    mult: Spare<u8>,
}

/// A worker's spare chunk buffers: the last few buffers the chunks it
/// spliced gave up while no clone shared them. A chunk merges straight
/// into a spare with room, so a splice of a graph nobody cloned writes
/// warm memory and allocates nothing, as a swap of plain vectors would.
struct Spare<T>(Vec<Arc<[T]>>);

impl<T> Default for Spare<T> {
    fn default() -> Self {
        Spare(Vec::new())
    }
}

/// Spare buffers a worker keeps.
const SPARES: usize = 4;

impl<T: Copy + Default> Spare<T> {
    /// A buffer with room for `need` entries: a spare with room and not
    /// more than the storage bound allows, else a new one with headroom.
    fn take(&mut self, need: usize) -> Arc<[T]> {
        let fits = |buf: &Arc<[T]>| (need..=2 * need + 64).contains(&buf.len());
        match self.0.iter().rposition(fits) {
            Some(i) => self.0.swap_remove(i),
            None => std::iter::repeat_n(T::default(), need + need / 2 + 16).collect(),
        }
    }

    /// Keep `old`, the buffer a chunk just gave up, if no clone holds it.
    fn keep(&mut self, mut old: Arc<[T]>) {
        if Arc::get_mut(&mut old).is_some() {
            if self.0.len() == SPARES {
                self.0.remove(0);
            }
            self.0.push(old);
        }
    }
}

/// Appends to a buffer the merge owns.
struct Writer<'a, T> {
    buf: &'a mut [T],
    len: usize,
}

impl<'a, T: Copy> Writer<'a, T> {
    fn new(buf: &'a mut Arc<[T]>) -> Self {
        let buf = Arc::get_mut(buf).expect("a merge buffer is not shared");
        Writer { buf, len: 0 }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn push(&mut self, x: T) {
        self.buf[self.len] = x;
        self.len += 1;
    }

    #[inline]
    fn extend_from_slice(&mut self, xs: &[T]) {
        self.buf[self.len..self.len + xs.len()].copy_from_slice(xs);
        self.len += xs.len();
    }

    /// Overwrite the already written entry `i`.
    #[inline]
    fn set(&mut self, i: usize, x: T) {
        assert!(i < self.len, "entry {i} is not written yet");
        self.buf[i] = x;
    }
}

/// A chunked CSR's fixed layout, shared by its clones (a clone copies the
/// row records and the chunk pointers, never the layout).
#[derive(Debug)]
struct Layout {
    /// `to_orig[u]`: node `u`'s deployment id, the key its rows sort by.
    to_orig: Vec<u32>,
    /// `to_rank[id]`: the node carrying deployment id `id`.
    to_rank: Vec<u32>,
    /// Node → slot in its chunk.
    slot: Vec<u32>,
    /// Chunk → its nodes, ascending: slot order.
    chunk_nodes: Vec<Vec<u32>>,
}

/// One chunk's buffers as a splice worker rewrites them.
struct ChunkMut<'a> {
    targets: &'a mut Arc<[u32]>,
    mult: &'a mut Arc<[u8]>,
    len: &'a mut u32,
    hashes: &'a mut Arc<[u64]>,
    sum: &'a mut Wrapping<u64>,
}

/// An undirected graph in chunked CSR form: per-node neighbour slices
/// sorted by deployment id, grouped into per-chunk buffers so
/// [`Self::splice`] can rewrite one chunk without touching the rest.
///
/// Equality (against itself or a dense [`Csr`]) and
/// [`crate::fingerprint`] are *semantic* and in deployment ids: two graphs
/// with different layouts, chunkings or splice histories compare equal.
/// A clone shares every chunk buffer with its original until a splice
/// replaces it.
#[derive(Clone, Debug)]
pub struct ChunkedCsr {
    /// Node → chunk and row start.
    rows: Vec<Row>,
    /// Per chunk, its rows in slot order, each a length header and the
    /// neighbours, and per-entry emission multiplicities (unused at
    /// headers); `lens[c]` entries of each are in use, and a buffer the
    /// splice wrote may hold room past them.
    targets: Vec<Arc<[u32]>>,
    mult: Vec<Arc<[u8]>>,
    lens: Vec<u32>,
    /// Per chunk, each row's fingerprint term in slot order, and their
    /// wrapping sum.
    hashes: Vec<Arc<[u64]>>,
    sums: Vec<Wrapping<u64>>,
    layout: Arc<Layout>,
}

impl ChunkedCsr {
    /// Build from per-shard edge emission runs over the identity layout
    /// (node `u` has deployment id `u`); `chunk_of[u]` is node `u`'s
    /// owning chunk. See [`ChunkedCsr::build_ranked`].
    pub fn build<R>(n_chunks: usize, chunk_of: &[u32], runs: impl IntoIterator<Item = R>) -> Self
    where
        R: AsRef<[(u32, u32)]> + Send,
    {
        let identity = (0..chunk_of.len() as u32).collect();
        Self::build_ranked(n_chunks, chunk_of, identity, runs)
    }

    /// Build from per-shard edge emission runs between ranks, where
    /// `to_orig[u]` is node `u`'s deployment id (a permutation of `0..n`)
    /// and `chunk_of[u]` its owning chunk. An edge emitted from both
    /// endpoints (k-NN, Yao) may appear twice — multiplicities absorb the
    /// duplicate.
    ///
    /// The chunks are the assembler's blocks: each chunk's rows scatter
    /// straight into its own buffer, sized from the half-edges emitted into
    /// it, sort by deployment id and are hashed for the fingerprint. Owned
    /// runs are freed as they are bucketed. Panics unless `to_orig` is a
    /// permutation.
    pub fn build_ranked<R>(
        n_chunks: usize,
        chunk_of: &[u32],
        to_orig: Vec<u32>,
        runs: impl IntoIterator<Item = R>,
    ) -> Self
    where
        R: AsRef<[(u32, u32)]> + Send,
    {
        let n = chunk_of.len();
        assert!(n_chunks >= 1, "need at least one chunk");
        assert_eq!(to_orig.len(), n, "to_orig must cover every node");
        let mut to_rank = vec![u32::MAX; n];
        for (u, &id) in to_orig.iter().enumerate() {
            assert!(
                (id as usize) < n && to_rank[id as usize] == u32::MAX,
                "to_orig is not a permutation: id {id} at node {u}"
            );
            to_rank[id as usize] = u as u32;
        }
        let mut chunk_nodes: Vec<Vec<u32>> = vec![Vec::new(); n_chunks];
        let (mut rows, mut slot) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (u, &chunk) in chunk_of.iter().enumerate() {
            assert!((chunk as usize) < n_chunks, "chunk id {chunk} out of range");
            let nodes = &mut chunk_nodes[chunk as usize];
            rows.push(Row {
                chunk,
                start: AtomicU32::new(0),
            });
            slot.push(nodes.len() as u32);
            nodes.push(u as u32);
        }
        let layout = Arc::new(Layout {
            to_orig,
            to_rank,
            slot,
            chunk_nodes,
        });

        let blocks = Blocks::Chunks {
            rows: &rows,
            slot: &layout.slot,
            nodes: &layout.chunk_nodes,
            to_orig: &layout.to_orig,
            to_rank: &layout.to_rank,
        };
        let buckets = bucket(runs.into_iter().collect(), None, &blocks);
        let key = &layout.to_orig[..];
        type Built = (Arc<[u32]>, Arc<[u8]>, u32, Arc<[u64]>, Wrapping<u64>);
        let chunks: Vec<Built> = (0..n_chunks)
            .into_par_iter()
            .map(|c| {
                let nodes = &layout.chunk_nodes[c];
                let len = buckets.len(c) + nodes.len();
                let mut t: Arc<[u32]> = std::iter::repeat_n(0, len).collect();
                let mut m: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
                let mut deg = vec![0u32; nodes.len()];
                let w = scatter_block(
                    &blocks,
                    c,
                    buckets.block(c),
                    Arc::get_mut(&mut t).expect("a new buffer is not shared"),
                    Arc::get_mut(&mut m).expect("a new buffer is not shared"),
                    &mut deg,
                    Emitted::Repeated,
                );
                let (mut start, mut sum) = (0usize, Wrapping(0u64));
                let mut hashes = Vec::with_capacity(nodes.len());
                for (&u, &d) in nodes.iter().zip(&deg) {
                    rows[u as usize].set(start);
                    let row = &t[start + 1..start + 1 + d as usize];
                    let h = node_hash(key[u as usize], row, |v| key[v as usize]);
                    hashes.push(h);
                    sum += h;
                    start += 1 + d as usize;
                }
                // Folded repeats leave room; more than the storage bound
                // allows is cut.
                if len > 2 * w + 64 {
                    (t, m) = (t[..w].into(), m[..w].into());
                }
                (t, m, w as u32, hashes.into(), sum)
            })
            .collect();
        drop(buckets);
        let mut csr = ChunkedCsr {
            rows,
            targets: Vec::with_capacity(n_chunks),
            mult: Vec::with_capacity(n_chunks),
            lens: Vec::with_capacity(n_chunks),
            hashes: Vec::with_capacity(n_chunks),
            sums: Vec::with_capacity(n_chunks),
            layout,
        };
        for (t, m, w, h, sum) in chunks {
            csr.lens.push(w);
            csr.targets.push(t);
            csr.mult.push(m);
            csr.hashes.push(h);
            csr.sums.push(sum);
        }
        csr
    }

    /// An edgeless graph on `n` nodes in a single chunk.
    pub fn empty(n: usize) -> Self {
        Self::build::<&[(u32, u32)]>(1, &vec![0u32; n], [])
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        (self.lens.iter().map(|&l| l as usize).sum::<usize>() - self.n()) / 2
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.targets.len()
    }

    /// Chunk `c`'s live entries (row headers included) and the entries its
    /// buffers have room for (observable so tests can bound per-chunk
    /// storage).
    pub fn chunk_storage(&self, c: usize) -> (usize, usize) {
        let (t, m) = (&self.targets[c], &self.mult[c]);
        (self.lens[c] as usize, t.len().max(m.len()))
    }

    /// The [`crate::fingerprint`] of this graph, from the per-chunk sums of
    /// the row hashes the build seeded and every splice kept: O(chunks),
    /// and bit-identical to the full pass.
    pub fn fingerprint(&self) -> u64 {
        finish(self.sums.iter().sum(), self.n())
    }

    /// Node → deployment id: the key every row is sorted by.
    #[inline]
    pub fn to_orig(&self) -> &[u32] {
        &self.layout.to_orig
    }

    /// Deployment id → node.
    #[inline]
    pub fn to_rank(&self) -> &[u32] {
        &self.layout.to_rank
    }

    /// Neighbours of node `u`, ascending by deployment id.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let r = &self.rows[u as usize];
        let (row, start) = (&self.targets[r.chunk as usize], r.start());
        &row[start + 1..start + 1 + row[start] as usize]
    }

    /// Neighbours of the node with deployment id `id`, as deployment ids,
    /// ascending — the row as a deployment-id graph would hold it.
    pub fn id_neighbors(&self, id: u32) -> impl ExactSizeIterator<Item = u32> + '_ {
        let to_orig = &self.layout.to_orig;
        let row = self.neighbors(self.layout.to_rank[id as usize]);
        row.iter().map(move |&v| to_orig[v as usize])
    }

    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Membership test between nodes, by binary search on the neighbours'
    /// deployment ids (the order rows are sorted in).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let to_orig = &self.layout.to_orig;
        let key = to_orig[v as usize];
        self.neighbors(u)
            .binary_search_by_key(&key, |&w| to_orig[w as usize])
            .is_ok()
    }

    /// Apply a churn delta: `removed` are edge emissions withdrawn since the
    /// last splice, `added` the new ones (the repair path passes its net
    /// edge delta). An emission present in both lists cancels; only chunks
    /// with a surviving net change rewrite, and only their changed rows are
    /// rehashed. Cost is O(delta) plus the touched chunks' rows, spread
    /// over the worker pool. The returned stats name the edges whose
    /// emission count crossed zero.
    ///
    /// Panics if the delta is inconsistent with the current structure
    /// (removing an emission that was never spliced in) — that means the
    /// caller's view of the graph diverged from the CSR.
    pub fn splice(&mut self, removed: &[(u32, u32)], added: &[(u32, u32)]) -> SpliceStats {
        let ChunkedCsr {
            rows,
            targets,
            mult,
            lens,
            hashes,
            sums,
            layout,
        } = self;
        let key = &layout.to_orig[..];
        let blocks = Blocks::Chunks {
            rows,
            slot: &layout.slot,
            nodes: &layout.chunk_nodes,
            to_orig: key,
            to_rank: &layout.to_rank,
        };
        let gone = bucket(split_runs(&[removed]), None, &blocks);
        let new = bucket(split_runs(&[added]), None, &blocks);
        let work: Vec<_> = (targets.iter_mut().zip(mult.iter_mut()).zip(lens.iter_mut()))
            .zip(hashes.iter_mut().zip(sums.iter_mut()))
            .enumerate()
            .filter(|&(c, _)| gone.len(c) + new.len(c) > 0)
            .map(|(c, (((targets, mult), len), (hashes, sum)))| {
                let chunk = ChunkMut {
                    targets,
                    mult,
                    len,
                    hashes,
                    sum,
                };
                (c, chunk)
            })
            .collect();
        let merged: Vec<Option<SpliceStats>> = work
            .into_par_iter()
            .map_init(Scratch::default, |scratch, (c, chunk)| {
                let deltas = [(gone.block(c), -1), (new.block(c), 1)];
                let nodes = &layout.chunk_nodes[c];
                merge_chunk(rows, nodes, key, deltas, chunk, scratch)
            })
            .collect();

        let merged: Vec<SpliceStats> = merged.into_iter().flatten().collect();
        let total = |flips: fn(&SpliceStats) -> &Vec<(u32, u32)>| {
            Vec::with_capacity(merged.iter().map(|m| flips(m).len()).sum())
        };
        let mut stats = SpliceStats {
            edges_removed: total(|m| &m.edges_removed),
            edges_added: total(|m| &m.edges_added),
            ..SpliceStats::default()
        };
        for m in &merged {
            stats.chunks_touched += m.chunks_touched;
            stats.delta_halfedges += m.delta_halfedges;
            stats.nodes_touched += m.nodes_touched;
            stats.edges_removed.extend_from_slice(&m.edges_removed);
            stats.edges_added.extend_from_slice(&m.edges_added);
        }
        stats
    }

    /// Copy out as a dense [`Csr`] in deployment ids (layout-normalising;
    /// used by the differential suites to byte-compare against cold
    /// builds).
    pub fn to_dense(&self) -> Csr {
        let n = self.n();
        let mut offsets = vec![0u32; n + 1];
        let mut targets = Vec::with_capacity(2 * self.m());
        for id in 0..n as u32 {
            targets.extend(self.id_neighbors(id));
            offsets[id as usize + 1] = targets.len() as u32;
        }
        Csr::from_sorted_parts(offsets, targets)
    }
}

/// Splice one chunk. Counting-sort its bucketed half-edges by node slot,
/// then walk the slots once: sort each node's few entries by `key` (the
/// deployment ids rows are ordered by) and coalesce them into net counts
/// (an emission withdrawn and re-added cancels; so do the half-edges of
/// distinct emissions `(u, v)` and `(v, u)`), merge the survivors into
/// the node's row through the worker's buffers, and rehash the row. The
/// chunk then takes fresh buffers copied from the worker's, and its hash
/// sum moves by the rehashed rows. `None` when the chunk's delta cancelled
/// entirely (its rows are left as they were).
fn merge_chunk<'b>(
    rows: &[Row],
    nodes: &[u32],
    key: &[u32],
    deltas: [(impl Iterator<Item = &'b [(u32, u32)]> + Clone, i32); 2],
    chunk: ChunkMut,
    scratch: &mut Scratch,
) -> Option<SpliceStats> {
    let Scratch {
        off,
        delta,
        rehashed,
        flips,
        targets: spare_t,
        mult: spare_m,
    } = scratch;
    let k = nodes.len();
    off.clear();
    off.resize(k + 1, 0);
    for (lists, _) in &deltas {
        for &(s, _) in lists.clone().flatten() {
            off[s as usize + 1] += 1;
        }
    }
    for s in 0..k {
        off[s + 1] += off[s];
    }
    delta.clear();
    delta.resize(off[k] as usize, (0, 0));
    for (lists, d) in deltas {
        for &(s, v) in lists.flatten() {
            delta[off[s as usize] as usize] = (v, d);
            off[s as usize] += 1;
        }
    }
    // The scatter left each slot's end in its own offset: shift back.
    off.copy_within(0..k, 1);
    off[0] = 0;

    let used = *chunk.len as usize;
    let (targets, mult) = (&chunk.targets[..used], &chunk.mult[..used]);
    // Each delta entry adds at most one entry.
    let need = used + delta.len();
    let (mut fresh_t, mut fresh_m) = (spare_t.take(need), spare_m.take(need));
    let (mut out_t, mut out_m) = (Writer::new(&mut fresh_t), Writer::new(&mut fresh_m));
    rehashed.clear();
    flips.edges_removed.clear();
    flips.edges_added.clear();
    let mut stats = SpliceStats {
        chunks_touched: 1,
        ..SpliceStats::default()
    };
    // One sequential walk of the old rows. A run of unchanged rows is
    // copied whole once the next changed row or the end is reached; its
    // rows' new starts are known before the copy, since nothing is
    // appended in between.
    let (mut copy_from, mut old_start) = (0usize, 0usize);
    for (s, &u) in nodes.iter().enumerate() {
        let old_end = old_start + 1 + targets[old_start] as usize;
        let d = coalesce(&mut delta[off[s] as usize..off[s + 1] as usize], key);
        if d.is_empty() {
            let start = out_t.len() + old_start - copy_from;
            if start != old_start {
                rows[u as usize].set(start);
            }
        } else {
            out_t.extend_from_slice(&targets[copy_from..old_start]);
            out_m.extend_from_slice(&mult[copy_from..old_start]);
            let start = out_t.len();
            out_t.push(0);
            out_m.push(0);
            let (old_t, old_m) = (
                &targets[old_start + 1..old_end],
                &mult[old_start + 1..old_end],
            );
            merge_row(u, key, old_t, old_m, d, &mut out_t, &mut out_m, flips);
            out_t.set(start, (out_t.len() - start - 1) as u32);
            rehashed.push((s as u32, start as u32));
            rows[u as usize].set(start);
            copy_from = old_end;
            stats.delta_halfedges += d.len();
            stats.nodes_touched += 1;
        }
        old_start = old_end;
    }
    if stats.nodes_touched == 0 {
        // Nothing moved, so no row record was rewritten.
        spare_t.keep(fresh_t);
        spare_m.keep(fresh_m);
        return None;
    }
    out_t.extend_from_slice(&targets[copy_from..]);
    out_m.extend_from_slice(&mult[copy_from..]);
    let len = out_t.len();
    *chunk.len = u32::try_from(len).expect("chunk entries fit u32");
    // A buffer with more room than the storage bound allows is cut to
    // its entries.
    if fresh_t.len() > 2 * len + 64 {
        (fresh_t, fresh_m) = (fresh_t[..len].into(), fresh_m[..len].into());
    }
    spare_t.keep(std::mem::replace(chunk.targets, fresh_t));
    spare_m.keep(std::mem::replace(chunk.mult, fresh_m));

    // Rehash the rewritten rows while they are hot.
    let (out_t, hashes) = (&**chunk.targets, Arc::make_mut(chunk.hashes));
    for &(s, start) in rehashed.iter() {
        let start = start as usize;
        let row = &out_t[start + 1..start + 1 + out_t[start] as usize];
        let h = node_hash(key[nodes[s as usize] as usize], row, |v| key[v as usize]);
        let old = std::mem::replace(&mut hashes[s as usize], h);
        *chunk.sum += h.wrapping_sub(old);
    }
    stats.edges_removed = flips.edges_removed.clone();
    stats.edges_added = flips.edges_added.clone();
    Some(stats)
}

/// Sort one node's delta entries by the neighbours' `key` and sum the
/// entries of each neighbour, dropping zero sums; returns the coalesced
/// prefix.
fn coalesce<'d>(d: &'d mut [(u32, i32)], key: &[u32]) -> &'d [(u32, i32)] {
    if d.len() > 1 {
        d.sort_unstable_by_key(|&(v, _)| key[v as usize]);
    }
    let (mut w, mut i) = (0usize, 0usize);
    while i < d.len() {
        let v = d[i].0;
        let mut sum = 0;
        while i < d.len() && d[i].0 == v {
            sum += d[i].1;
            i += 1;
        }
        if sum != 0 {
            d[w] = (v, sum);
            w += 1;
        }
    }
    &d[..w]
}

/// Two-pointer merge of node `u`'s row (`targets`, `mult`) with its
/// coalesced delta `d`, both sorted by `key`, appended to `out_t` /
/// `out_m`. Old entries between delta entries are copied as runs. An entry
/// whose count crosses zero is recorded in `flips` from the endpoint with
/// the larger key, so each such edge is recorded once, and a joining node
/// (whose id is usually the larger) lists its new edges together.
#[allow(clippy::too_many_arguments)]
fn merge_row(
    u: u32,
    key: &[u32],
    targets: &[u32],
    mult: &[u8],
    d: &[(u32, i32)],
    out_t: &mut Writer<u32>,
    out_m: &mut Writer<u8>,
    flips: &mut SpliceStats,
) {
    let ku = key[u as usize];
    let mut a = 0usize;
    for &(v, dv) in d {
        let from = a;
        let kv = key[v as usize];
        while a < targets.len() && key[targets[a] as usize] < kv {
            a += 1;
        }
        out_t.extend_from_slice(&targets[from..a]);
        out_m.extend_from_slice(&mult[from..a]);
        let m = if a < targets.len() && targets[a] == v {
            a += 1;
            let m = i32::from(mult[a - 1]) + dv;
            assert!(m >= 0, "splice multiplicity of ({u}, {v}) went negative");
            if m == 0 && ku > kv {
                flips.edges_removed.push((u, v));
            }
            m
        } else {
            assert!(dv > 0, "splice removes emission ({u}, {v}) not present");
            if ku > kv {
                flips.edges_added.push((u, v));
            }
            dv
        };
        if m > 0 {
            out_t.push(v);
            out_m.push(u8::try_from(m).expect("emission multiplicity fits u8"));
        }
    }
    out_t.extend_from_slice(&targets[a..]);
    out_m.extend_from_slice(&mult[a..]);
}

/// Semantic equality: same node count, same per-node neighbour lists in
/// deployment ids — layout, chunking, buffer capacities and multiplicities
/// are invisible.
impl PartialEq for ChunkedCsr {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n()
            && self.m() == other.m()
            && (0..self.n() as u32).all(|id| self.id_neighbors(id).eq(other.id_neighbors(id)))
    }
}

impl PartialEq<Csr> for ChunkedCsr {
    fn eq(&self, other: &Csr) -> bool {
        self.n() == other.n()
            && self.m() == other.m()
            && (0..self.n() as u32).all(|u| {
                let (row, want) = (self.neighbors(u), other.neighbors(self.id(u)));
                row.len() == want.len() && row.iter().zip(want).all(|(&v, &w)| self.id(v) == w)
            })
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

    /// Structural invariants every mutation must preserve: rows strictly
    /// ascending by deployment id, edges symmetric, storage bounded.
    fn check_invariants(g: &ChunkedCsr) {
        let mut live = 0usize;
        for u in 0..g.n() as u32 {
            let ns = g.neighbors(u);
            assert!(
                ns.windows(2).all(|w| g.id(w[0]) < g.id(w[1])),
                "node {u} row not sorted by id"
            );
            for &v in ns {
                assert!(g.has_edge(v, u), "asymmetric edge ({u}, {v})");
            }
            live += ns.len();
        }
        assert_eq!(live, g.m() * 2, "live count drifted");
        for c in 0..g.chunk_count() {
            let (len, cap) = g.chunk_storage(c);
            assert!(cap <= 2 * len + 64, "chunk {c}: room for {cap}, {len} live");
        }
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
    fn growth_and_shrink_keep_chunk_storage_bounded() {
        // One tiny chunk plus a big stable one; grow the tiny chunk far
        // past its build size, then shrink it back. Every step checks the
        // per-chunk storage bound in `check_invariants`.
        let n = 400usize;
        let chunk_of: Vec<u32> = (0..n).map(|u| if u < 4 { 0 } else { 1 }).collect();
        let stable: Vec<(u32, u32)> = (4..n as u32 - 1).map(|u| (u, u + 1)).collect();
        let mut g = ChunkedCsr::build(2, &chunk_of, [&stable]);
        let mut reference: Vec<(u32, u32)> = stable.clone();
        // Node 0 progressively links to every node of chunk 1: each batch
        // adds entries to chunk 0 (node 0's list) and chunk 1 (back refs).
        for batch in 0..12 {
            let added: Vec<(u32, u32)> = (0..32u32).map(|i| (0u32, 4 + batch * 32 + i)).collect();
            let stats = g.splice(&[], &added);
            assert_eq!(stats.chunks_touched, 2);
            reference.extend_from_slice(&added);
            assert_eq!(g, dense(n, &reference), "batch {batch} diverged");
            check_invariants(&g);
        }
        // Node 0 links to 384 nodes; each of the chunk's 4 rows has a header.
        assert_eq!(g.chunk_storage(0).0, 12 * 32 + 4);
        let back: Vec<(u32, u32)> = reference.iter().copied().filter(|&(u, _)| u == 0).collect();
        g.splice(&back, &[]);
        assert_eq!(g, dense(n, &stable));
        assert_eq!(g.chunk_storage(0).0, 4);
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

    /// A layout of `n` nodes: the identity when `seed` is 0, otherwise a
    /// hash-shuffled `to_orig` permutation.
    fn layout(n: usize, seed: u64) -> Vec<u32> {
        let mut to_orig: Vec<u32> = (0..n as u32).collect();
        if seed != 0 {
            to_orig.sort_by_key(|&id| wsn_geom::hash::mix64(seed ^ u64::from(id)));
        }
        to_orig
    }

    /// Build `edges` (deployment ids) into a chunked CSR over the layout
    /// `to_orig`, chunked by rank.
    fn ranked(chunks: usize, to_orig: &[u32], edges: &[(u32, u32)]) -> ChunkedCsr {
        let n = to_orig.len();
        let mut to_rank = vec![0u32; n];
        for (r, &id) in to_orig.iter().enumerate() {
            to_rank[id as usize] = r as u32;
        }
        let chunk_of: Vec<u32> = (0..n as u32).map(|r| r % chunks as u32).collect();
        let runs: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(a, b)| (to_rank[a as usize], to_rank[b as usize]))
            .collect();
        ChunkedCsr::build_ranked(chunks, &chunk_of, to_orig.to_vec(), [runs])
    }

    /// `g` in any layout is the dense deployment-id graph `d`: semantic
    /// equality both ways, its densification, its fingerprint, and a
    /// `has_edge` that answers for every node pair as `d` does for their
    /// ids.
    fn check_matches_dense(g: &ChunkedCsr, d: &Csr, ctx: &str) {
        assert_eq!(g, d, "{ctx}");
        assert_eq!(d, g, "{ctx}");
        assert_eq!(&g.to_dense(), d, "{ctx}");
        assert_eq!(crate::fingerprint(g), crate::fingerprint(d), "{ctx}");
        assert_eq!(
            g.fingerprint(),
            crate::fingerprint(d),
            "{ctx}: kept fingerprint"
        );
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                let want = d.has_edge(g.id(u), g.id(v));
                assert_eq!(g.has_edge(u, v), want, "{ctx}: has_edge({u}, {v})");
            }
            assert!(g
                .id_neighbors(g.id(u))
                .eq(d.neighbors(g.id(u)).iter().copied()));
        }
        check_invariants(g);
    }

    /// Build over `raw` projected onto `n` nodes (self loops dropped,
    /// pairs canonicalised) in the identity layout and in a shuffled one,
    /// and compare against the dense reference.
    fn check_build_matches_dense(n: usize, chunks: usize, raw: &[(u32, u32)], seed: u64) {
        let emissions: Vec<(u32, u32)> = raw
            .iter()
            .filter(|_| n >= 2)
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let d = dense(n, &emissions);
        for seed in [0, seed] {
            let g = ranked(chunks, &layout(n, seed), &emissions);
            check_matches_dense(
                &g,
                &d,
                &format!("n = {n}, chunks = {chunks}, layout {seed}"),
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counting-scatter build equals the dense reference on random
        /// emissions with duplicate keys and isolated nodes, and on the
        /// degenerate n ∈ {0, 1, 2} projections of the same draw, in the
        /// identity layout and under a random rank → id permutation.
        #[test]
        fn prop_build_matches_dense(
            n in 3usize..40,
            chunks in 1usize..5,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..60),
            seed in 1u64..u64::MAX,
        ) {
            let mut raw = raw;
            raw.extend_from_within(..raw.len() / 2);
            for n in [0, 1, 2, n] {
                check_build_matches_dense(n, chunks, &raw, seed);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The scatter-by-chunk splice equals the dense reference on random
        /// deltas: withdraw a random subset of the current edges, add fresh
        /// ones, and re-add some withdrawn ones in the same call (those
        /// must cancel), with both orientations of a pair in the lists —
        /// in the identity layout and under a random rank → id permutation,
        /// whose rows must stay sorted by id through the merge.
        #[test]
        fn prop_splice_matches_dense(
            n in 2usize..40,
            chunks in 1usize..6,
            initial in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
            fresh in proptest::collection::vec((0u32..40, 0u32..40), 0..40),
            drop_mask in proptest::collection::vec(0u8..4, 80..81),
            seed in 1u64..u64::MAX,
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
            let mut kept_sorted = kept.clone();
            kept_sorted.sort_unstable();
            for seed in [0, seed] {
                let to_orig = layout(n, seed);
                let mut to_rank = vec![0u32; n];
                for (r, &id) in to_orig.iter().enumerate() {
                    to_rank[id as usize] = r as u32;
                }
                let rank = |list: &[(u32, u32)]| -> Vec<(u32, u32)> {
                    list.iter()
                        .map(|&(a, b)| (to_rank[a as usize], to_rank[b as usize]))
                        .collect()
                };
                let (removed, added) = (rank(&removed), rank(&added));
                let mut g = ranked(chunks, &to_orig, &edges);
                // The splice is the same at one worker and at four. (No
                // other test in this binary sets the variable.)
                let (saved, mut wide) = (std::env::var("RAYON_NUM_THREADS"), g.clone());
                std::env::set_var("RAYON_NUM_THREADS", "1");
                let stats = g.splice(&removed, &added);
                std::env::set_var("RAYON_NUM_THREADS", "4");
                prop_assert_eq!(&wide.splice(&removed, &added), &stats);
                match saved {
                    Ok(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                    Err(_) => std::env::remove_var("RAYON_NUM_THREADS"),
                }
                for u in 0..n as u32 {
                    prop_assert_eq!(g.neighbors(u), wide.neighbors(u));
                }
                check_invariants(&wide);
                let want = dense(n, &kept);
                check_matches_dense(&g, &want, &format!("splice, layout {seed}"));
                let before = dense(n, &edges);
                let changed = (0..n as u32)
                    .filter(|&id| !g.id_neighbors(id).eq(before.neighbors(id).iter().copied()))
                    .count();
                prop_assert_eq!(stats.nodes_touched, changed);
                // The flipped edges are exactly the difference of the two
                // edge sets, each once, larger deployment id first.
                let ids = |list: &[(u32, u32)]| -> Vec<(u32, u32)> {
                    let mut out: Vec<(u32, u32)> =
                        list.iter().map(|&(a, b)| (g.id(b), g.id(a))).collect();
                    out.sort_unstable();
                    out
                };
                let (mut gone, mut new) = (Vec::new(), Vec::new());
                for &e in &edges {
                    if kept_sorted.binary_search(&e).is_err() {
                        gone.push(e);
                    }
                }
                for &e in &kept_sorted {
                    if edges.binary_search(&e).is_err() {
                        new.push(e);
                    }
                }
                prop_assert_eq!(ids(&stats.edges_removed), gone);
                prop_assert_eq!(ids(&stats.edges_added), new);
            }
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
