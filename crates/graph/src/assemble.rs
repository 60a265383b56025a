//! The CSR assembler: per-shard edge runs in, sorted adjacency rows out.
//!
//! Every adjacency structure in this crate is assembled here. The dense
//! [`Csr`](crate::Csr) constructors ([`Csr::from_runs`](crate::Csr::from_runs),
//! `from_canonical_edges`, `from_edge_list`, [`crate::perm::remap_csr`]) and
//! [`ChunkedCsr::build`](crate::ChunkedCsr::build) differ only in how rows
//! are grouped into *blocks* and where a block's rows live: dense blocks
//! are consecutive ids sharing one arena, chunks own one buffer each.
//!
//! The input is a list of edge *runs*, typically one per construction
//! shard, each holding the edges that shard derived from its local view. An
//! optional id map is applied to both endpoints on the way in, so a builder
//! that ran over a reordered copy of a deployment (the Morton-ordered
//! pipeline) emits straight into deployment ids: there is no concatenated
//! edge vector, no intermediate CSR in the reordered id space and no remap
//! pass over it.
//!
//! Two passes, both on the worker pool:
//!
//! 1. **Bucket** (`bucket`), one worker per group of runs: each edge is
//!    mapped and checked, and its two directed half-edges are counting-
//!    sorted into one array per group, ordered by the block owning their
//!    row. A first walk sizes the array exactly, and owned runs are freed
//!    as soon as their group is done. [`ChunkedCsr::splice`] buckets its
//!    delta with the same pass.
//! 2. **Scatter** (`scatter_block`), one worker per block: count each
//!    row's half-edges, prefix-sum, scatter into the block's rows (a slice
//!    of the dense arena, or the chunk's own buffer), then sort each row
//!    and fold equal neighbours into one entry with a multiplicity.
//!
//! Dense rows come out strictly ascending, and chunk rows strictly
//! ascending by the chunked CSR's key (each neighbour's deployment id),
//! whatever order the runs arrive in, so the result is the same at any
//! thread count.
//!
//! [`ChunkedCsr::splice`]: crate::ChunkedCsr::splice

use rayon::prelude::*;

use crate::chunked::Row;

/// How often a builder may emit one undirected edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Emitted {
    /// Exactly once: UDG, Gabriel and RNG emit each edge from the shard
    /// owning its smaller endpoint. Debug builds assert that no pair folds
    /// a multiplicity above 1; release builds fold it silently.
    Once,
    /// Possibly more than once: k-NN, Yao and HNG select an edge from
    /// either endpoint, and edge lists may repeat pairs. Repeats fold.
    Repeated,
}

/// Runs are grouped so the bucket pass allocates at most this many bucket
/// arrays, however many (small) runs a caller hands in.
const GROUPS: usize = 64;

/// Long slices are cut into sub-runs of this many edges, so a single big
/// run still spreads over the pool.
const RUN_SPLIT: usize = 1 << 15;

/// How rows are grouped into blocks.
pub(crate) enum Blocks<'a> {
    /// Rows `0..n` in consecutive-id blocks of `1 << shift` rows; a row's
    /// position is its id. The blocks' rows share one arena.
    Dense { n: usize, shift: u32 },
    /// Rows grouped by chunk. `rows[u]` names `u`'s chunk and `slot[u]`
    /// its index there, and `nodes[c]` are chunk `c`'s rows ascending.
    /// Each chunk keeps its own buffers, and its rows are sorted by
    /// `to_orig[v]` (the chunked CSR's rank → deployment-id map, inverted
    /// by `to_rank`), not by `v`.
    Chunks {
        rows: &'a [Row],
        slot: &'a [u32],
        nodes: &'a [Vec<u32>],
        to_orig: &'a [u32],
        to_rank: &'a [u32],
    },
}

impl Blocks<'_> {
    /// Dense blocks over `n` rows: a power of two of at least 1024 rows,
    /// about 64 blocks for a large graph.
    pub(crate) fn dense(n: usize) -> Blocks<'static> {
        let rows = (n / 64).next_power_of_two().max(1 << 10);
        Blocks::Dense {
            n,
            shift: rows.trailing_zeros(),
        }
    }

    fn n(&self) -> usize {
        match *self {
            Blocks::Dense { n, .. } => n,
            Blocks::Chunks { rows, .. } => rows.len(),
        }
    }

    fn count(&self) -> usize {
        match *self {
            Blocks::Dense { n, shift } => n.div_ceil(1 << shift),
            Blocks::Chunks { nodes, .. } => nodes.len(),
        }
    }

    /// `(block, slot within the block)` of row `u`.
    #[inline]
    fn locate(&self, u: u32) -> (usize, u32) {
        match *self {
            Blocks::Dense { shift, .. } => ((u >> shift) as usize, u & ((1 << shift) - 1)),
            Blocks::Chunks { rows, slot, .. } => {
                (rows[u as usize].chunk as usize, slot[u as usize])
            }
        }
    }

    /// Number of rows in block `b`.
    fn rows(&self, b: usize) -> usize {
        match *self {
            Blocks::Dense { n, shift } => ((b + 1) << shift).min(n) - (b << shift),
            Blocks::Chunks { nodes, .. } => nodes[b].len(),
        }
    }

    /// Id of the row at `slot` of block `b` (for diagnostics).
    fn row_id(&self, b: usize, slot: usize) -> usize {
        match *self {
            Blocks::Dense { shift, .. } => (b << shift) + slot,
            Blocks::Chunks { nodes, .. } => nodes[b][slot] as usize,
        }
    }
}

/// One run group's per-block offsets and its half-edges ordered by block.
type Group = (Vec<u32>, Vec<(u32, u32)>);

/// Half-edges `(slot, neighbour)` bucketed by block, one [`Group`] per run
/// group.
pub(crate) struct Buckets {
    groups: Vec<Group>,
}

impl Buckets {
    /// Block `b`'s half-edges, one slice per run group.
    pub(crate) fn block(&self, b: usize) -> impl Iterator<Item = &[(u32, u32)]> + Clone {
        self.groups
            .iter()
            .map(move |(off, halves)| &halves[off[b] as usize..off[b + 1] as usize])
    }

    /// Number of half-edges in block `b`.
    pub(crate) fn len(&self, b: usize) -> usize {
        self.block(b).map(<[_]>::len).sum()
    }
}

/// Bucket pass: every edge `(u, v)` of every run becomes the half-edges
/// `map[u] → map[v]` and `map[v] → map[u]` (no map: the ids themselves),
/// bucketed by the block owning each half-edge's row. Contiguous groups of
/// runs run on the worker pool; each group counts its half-edges per block
/// first, so its array is sized exactly, and owned runs are freed as soon
/// as their group is done.
///
/// Panics, in release builds too, on an endpoint out of range or a
/// self-loop, naming the pair as the run gave it.
pub(crate) fn bucket<R>(runs: Vec<R>, map: Option<&[u32]>, blocks: &Blocks) -> Buckets
where
    R: AsRef<[(u32, u32)]> + Send,
{
    if let Some(map) = map {
        assert_eq!(map.len(), blocks.n(), "map must cover every node");
    }
    let n_blocks = blocks.count();
    let per_group = runs.len().div_ceil(GROUPS).max(1);
    let mut groups: Vec<Vec<R>> = Vec::new();
    let mut runs = runs.into_iter().peekable();
    while runs.peek().is_some() {
        groups.push(runs.by_ref().take(per_group).collect());
    }
    let groups = groups
        .into_par_iter()
        .map(|group| {
            let mut off = vec![0u32; n_blocks + 1];
            for_each_half_edge(&group, map, blocks, |b, _| off[b + 1] += 1);
            for b in 0..n_blocks {
                off[b + 1] += off[b];
            }
            let mut halves = vec![(0u32, 0u32); off[n_blocks] as usize];
            let mut cursor = off[..n_blocks].to_vec();
            for_each_half_edge(&group, map, blocks, |b, h| {
                halves[cursor[b] as usize] = h;
                cursor[b] += 1;
            });
            (off, halves)
        })
        .collect();
    Buckets { groups }
}

/// Assemble `runs` into dense rows `0..n`: the bucket pass, then one
/// counting scatter per block into the block's slice of one arena. Returns
/// the arena, its rows back to back in id order, and each row's length.
pub(crate) fn dense<R>(
    n: usize,
    runs: Vec<R>,
    map: Option<&[u32]>,
    emitted: Emitted,
) -> (Vec<u32>, Vec<u32>)
where
    R: AsRef<[(u32, u32)]> + Send,
{
    let blocks = Blocks::dense(n);
    let buckets = bucket(runs, map, &blocks);
    let cap: Vec<usize> = (0..blocks.count()).map(|b| buckets.len(b)).collect();
    let mut targets = vec![0u32; cap.iter().sum()];
    let mut deg = vec![0u32; n];
    // Each block owns disjoint slices of the arena and of the degrees.
    let mut work = Vec::with_capacity(cap.len());
    let (mut t_rest, mut d_rest) = (&mut targets[..], &mut deg[..]);
    for (b, &c) in cap.iter().enumerate() {
        let (t, tail) = std::mem::take(&mut t_rest).split_at_mut(c);
        t_rest = tail;
        let (d, tail) = std::mem::take(&mut d_rest).split_at_mut(blocks.rows(b));
        d_rest = tail;
        work.push((b, t, d));
    }
    let len: Vec<usize> = work
        .into_par_iter()
        .map(|(b, t, d)| scatter_block(&blocks, b, buckets.block(b), t, &mut [], d, emitted))
        .collect();
    drop(buckets);
    // Close the gaps folding left between blocks.
    let (mut base, mut w) = (0usize, 0usize);
    for (&c, &l) in cap.iter().zip(&len) {
        if base != w {
            targets.copy_within(base..base + l, w);
        }
        base += c;
        w += l;
    }
    if w < targets.len() {
        targets.truncate(w);
        targets.shrink_to_fit();
    }
    (targets, deg)
}

/// Visit both half-edges of every edge in `group` as `(block, (slot,
/// neighbour))`, mapping and checking each edge first.
fn for_each_half_edge<R: AsRef<[(u32, u32)]>>(
    group: &[R],
    map: Option<&[u32]>,
    blocks: &Blocks,
    mut visit: impl FnMut(usize, (u32, u32)),
) {
    let n = blocks.n();
    for &(u, v) in group.iter().flat_map(|r| r.as_ref()) {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} nodes"
        );
        let (a, b) = map.map_or((u, v), |m| (m[u as usize], m[v as usize]));
        assert!(a != b, "self-loop ({u}, {v})");
        let (ba, sa) = blocks.locate(a);
        let (bb, sb) = blocks.locate(b);
        visit(ba, (sa, b));
        visit(bb, (sb, a));
    }
}

/// Count, prefix-sum and scatter block `b`'s half-edges `lists` into
/// `targets`, then sort each row (by id for dense blocks, by deployment id
/// for chunks: each entry is mapped through `to_orig`, sorted, and mapped
/// back) and fold repeats in place. Writes each
/// row's distinct neighbour count to `deg` (and multiplicities to `mult`
/// unless it is empty); returns the block's folded length.
///
/// A chunk's row starts with a header entry holding its length (see
/// [`crate::chunked`]), so chunk `targets` hold the half-edges plus one
/// entry per row; dense rows have no header.
pub(crate) fn scatter_block<'l>(
    blocks: &Blocks,
    b: usize,
    lists: impl Iterator<Item = &'l [(u32, u32)]> + Clone,
    targets: &mut [u32],
    mult: &mut [u8],
    deg: &mut [u32],
    emitted: Emitted,
) -> usize {
    let (head, maps) = match *blocks {
        Blocks::Dense { .. } => (0, None),
        Blocks::Chunks {
            to_orig, to_rank, ..
        } => (1, Some((to_orig, to_rank))),
    };
    let rows = deg.len();
    let mut off = vec![0u32; rows + 1];
    for &(s, _) in lists.clone().flatten() {
        off[s as usize + 1] += 1;
    }
    for s in 0..rows {
        off[s + 1] += off[s] + head as u32;
    }
    // `deg` doubles as the scatter cursor until the fold overwrites it.
    for s in 0..rows {
        deg[s] = off[s] + head as u32;
    }
    for &(s, v) in lists.flatten() {
        targets[deg[s as usize] as usize] = v;
        deg[s as usize] += 1;
    }
    // The write cursor never passes the row being read, so the fold
    // compacts the block in place.
    let mut w = 0usize;
    for s in 0..rows {
        let (lo, hi) = (off[s] as usize + head, off[s + 1] as usize);
        if let Some((to_orig, _)) = maps {
            targets[lo..hi]
                .iter_mut()
                .for_each(|v| *v = to_orig[*v as usize]);
        }
        targets[lo..hi].sort_unstable();
        let row_start = w;
        w += head;
        let mut i = lo;
        while i < hi {
            let v = targets[i];
            let mut j = i + 1;
            while j < hi && targets[j] == v {
                j += 1;
            }
            debug_assert!(
                j - i == 1 || emitted == Emitted::Repeated,
                "edge ({}, {v}) emitted {} times by a build that emits each edge once",
                blocks.row_id(b, s),
                j - i
            );
            targets[w] = v;
            if !mult.is_empty() {
                mult[w] = u8::try_from(j - i).expect("emission multiplicity fits u8");
            }
            w += 1;
            i = j;
        }
        if let Some((_, to_rank)) = maps {
            targets[row_start + head..w]
                .iter_mut()
                .for_each(|v| *v = to_rank[*v as usize]);
        }
        deg[s] = (w - row_start - head) as u32;
        if head == 1 {
            targets[row_start] = deg[s];
        }
    }
    w
}

/// Slice runs into sub-runs of at most [`RUN_SPLIT`] edges.
pub(crate) fn split_runs<R: AsRef<[(u32, u32)]>>(runs: &[R]) -> Vec<&[(u32, u32)]> {
    runs.iter()
        .flat_map(|r| r.as_ref().chunks(RUN_SPLIT))
        .collect()
}
