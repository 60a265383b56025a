//! The CSR assembler: per-shard edge runs in, sorted adjacency rows out.
//!
//! Every adjacency structure in this crate is assembled here. The dense
//! [`Csr`](crate::Csr) constructors ([`Csr::from_runs`](crate::Csr::from_runs),
//! `from_canonical_edges`, `from_edge_list`, [`crate::perm::remap_csr`]) and
//! the slack-padded [`ChunkedCsr::build`](crate::ChunkedCsr::build) arena
//! differ only in how rows are grouped into *blocks* and how much arena each
//! block reserves.
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
//! 1. **Bucket**, one worker per group of runs: each edge is mapped and
//!    checked, and its two directed half-edges are appended to the buckets
//!    of the blocks owning their rows. A first walk over the group sizes
//!    every bucket exactly, so none reallocates, and owned runs are freed
//!    as soon as their group is done.
//! 2. **Scatter**, one worker per block: count each row's half-edges,
//!    prefix-sum, scatter into the block's disjoint slice of the arena,
//!    then sort each row and fold equal neighbours into one entry with a
//!    multiplicity.
//!
//! This is the crate's only counting scatter. Rows come out strictly
//! ascending whatever order the runs arrive in, so the result is the same
//! at any thread count.

use rayon::prelude::*;

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
/// sets, however many (small) runs a caller hands in.
const GROUPS: usize = 64;

/// Long slices are cut into sub-runs of this many edges, so a single big
/// run still spreads over the pool.
const RUN_SPLIT: usize = 1 << 15;

/// How rows are grouped into blocks. A block's rows occupy a contiguous
/// range of *positions*; the arena holds the blocks' rows in position
/// order.
pub(crate) enum Blocks<'a> {
    /// Rows `0..n` in consecutive-id blocks of `1 << shift` rows; a row's
    /// position is its id.
    Dense { n: usize, shift: u32 },
    /// Rows grouped by chunk. `nodes[nodes_off[c]..nodes_off[c + 1]]` are
    /// chunk `c`'s rows ascending, and `slot_of[u]` is `u`'s index there.
    Chunks {
        chunk_of: &'a [u32],
        slot_of: &'a [u32],
        nodes_off: &'a [u32],
        nodes: &'a [u32],
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
            Blocks::Chunks { chunk_of, .. } => chunk_of.len(),
        }
    }

    fn count(&self) -> usize {
        match *self {
            Blocks::Dense { n, shift } => n.div_ceil(1 << shift),
            Blocks::Chunks { nodes_off, .. } => nodes_off.len() - 1,
        }
    }

    /// `(block, slot within the block)` of row `u`.
    #[inline]
    fn locate(&self, u: u32) -> (usize, u32) {
        match *self {
            Blocks::Dense { shift, .. } => ((u >> shift) as usize, u & ((1 << shift) - 1)),
            Blocks::Chunks {
                chunk_of, slot_of, ..
            } => (chunk_of[u as usize] as usize, slot_of[u as usize]),
        }
    }

    /// Number of rows in block `b`.
    fn rows(&self, b: usize) -> usize {
        match *self {
            Blocks::Dense { n, shift } => ((b + 1) << shift).min(n) - (b << shift),
            Blocks::Chunks { nodes_off, .. } => (nodes_off[b + 1] - nodes_off[b]) as usize,
        }
    }

    /// Id of the row at `slot` of block `b` (for diagnostics).
    fn row_id(&self, b: usize, slot: usize) -> usize {
        match *self {
            Blocks::Dense { shift, .. } => (b << shift) + slot,
            Blocks::Chunks {
                nodes_off, nodes, ..
            } => nodes[nodes_off[b] as usize + slot] as usize,
        }
    }
}

/// An assembled arena. Block `b` reserves `cap[b]` entries from `base[b]`
/// and holds its folded rows, in position order, in the first `len[b]`.
pub(crate) struct Assembly {
    pub(crate) targets: Vec<u32>,
    /// Per-entry multiplicities (empty unless requested).
    pub(crate) mult: Vec<u8>,
    /// Distinct neighbours per row, by position.
    pub(crate) deg: Vec<u32>,
    pub(crate) base: Vec<u32>,
    pub(crate) cap: Vec<u32>,
    pub(crate) len: Vec<u32>,
}

/// One block's bucketed half-edges: `(slot, neighbour)`, one list per run
/// group that reached the block.
type Bucket = Vec<Vec<(u32, u32)>>;

/// Assemble `runs` into rows grouped by `blocks`.
///
/// Every edge `(u, v)` of every run becomes the half-edges `map[u] → map[v]`
/// and `map[v] → map[u]` (no map: the ids themselves). `region_cap` sizes a
/// block's arena region from its half-edge count before folding;
/// `keep_mult` keeps the per-entry multiplicities.
///
/// Panics, in release builds too, on an endpoint out of range or a
/// self-loop, naming the pair as the run gave it.
pub(crate) fn assemble<R>(
    runs: Vec<R>,
    map: Option<&[u32]>,
    blocks: &Blocks,
    emitted: Emitted,
    region_cap: impl Fn(u32) -> u32,
    keep_mult: bool,
) -> Assembly
where
    R: AsRef<[(u32, u32)]> + Send,
{
    let n = blocks.n();
    if let Some(map) = map {
        assert_eq!(map.len(), n, "map must cover every node");
    }
    let n_blocks = blocks.count();
    // Bucket pass: contiguous groups of runs, one bucket set per group,
    // each bucket sized exactly by a first walk (growing them by doubling
    // would leave the outgrown copies resident).
    let per_group = runs.len().div_ceil(GROUPS).max(1);
    let mut groups: Vec<Vec<R>> = Vec::new();
    let mut runs = runs.into_iter().peekable();
    while runs.peek().is_some() {
        groups.push(runs.by_ref().take(per_group).collect());
    }
    let bucketed: Vec<Vec<Vec<(u32, u32)>>> = groups
        .into_par_iter()
        .map(|group| {
            let mut count = vec![0usize; n_blocks];
            for_each_half_edge(&group, map, blocks, |b, _| count[b] += 1);
            let mut buckets: Vec<Vec<(u32, u32)>> =
                count.into_iter().map(Vec::with_capacity).collect();
            for_each_half_edge(&group, map, blocks, |b, h| buckets[b].push(h));
            buckets
        })
        .collect();
    let mut by_block: Vec<Bucket> = (0..n_blocks).map(|_| Vec::new()).collect();
    for buckets in bucketed {
        for (b, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                by_block[b].push(bucket);
            }
        }
    }

    // Arena layout from the pre-fold half-edge counts.
    let mut base = Vec::with_capacity(n_blocks);
    let mut cap = Vec::with_capacity(n_blocks);
    let mut total = 0u32;
    for lists in &by_block {
        let len: usize = lists.iter().map(Vec::len).sum();
        let c = region_cap(u32::try_from(len).expect("half-edge count fits u32"));
        base.push(total);
        cap.push(c);
        total = total.checked_add(c).expect("arena offset fits u32");
    }
    let mut targets = vec![0u32; total as usize];
    let mut mult = vec![0u8; if keep_mult { total as usize } else { 0 }];
    let mut deg = vec![0u32; n];

    // Scatter pass: each block owns disjoint slices of the arena and of the
    // per-position degrees.
    let mut work = Vec::with_capacity(n_blocks);
    let (mut t_rest, mut m_rest, mut d_rest) = (&mut targets[..], &mut mult[..], &mut deg[..]);
    for (b, lists) in by_block.into_iter().enumerate() {
        let c = cap[b] as usize;
        let (t, tail) = std::mem::take(&mut t_rest).split_at_mut(c);
        t_rest = tail;
        let (m, tail) = std::mem::take(&mut m_rest).split_at_mut(if keep_mult { c } else { 0 });
        m_rest = tail;
        let (d, tail) = std::mem::take(&mut d_rest).split_at_mut(blocks.rows(b));
        d_rest = tail;
        work.push((b, lists, t, m, d));
    }
    let len: Vec<u32> = work
        .into_par_iter()
        .map(|(b, lists, t, m, d)| scatter_block(blocks, b, lists, t, m, d, emitted))
        .collect();
    Assembly {
        targets,
        mult,
        deg,
        base,
        cap,
        len,
    }
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

/// Count, prefix-sum and scatter block `b`'s half-edges into `targets`,
/// then sort each row and fold repeats in place. Writes each row's distinct
/// neighbour count to `deg` (and multiplicities to `mult` unless it is
/// empty); returns the block's folded length.
fn scatter_block(
    blocks: &Blocks,
    b: usize,
    lists: Bucket,
    targets: &mut [u32],
    mult: &mut [u8],
    deg: &mut [u32],
    emitted: Emitted,
) -> u32 {
    let rows = deg.len();
    let mut off = vec![0u32; rows + 1];
    for list in &lists {
        for &(s, _) in list {
            off[s as usize + 1] += 1;
        }
    }
    for s in 0..rows {
        off[s + 1] += off[s];
    }
    // `deg` doubles as the scatter cursor until the fold overwrites it.
    deg.copy_from_slice(&off[..rows]);
    for list in lists {
        for (s, v) in list {
            targets[deg[s as usize] as usize] = v;
            deg[s as usize] += 1;
        }
    }
    // The write cursor never passes the row being read, so the fold
    // compacts the block in place.
    let mut w = 0usize;
    for s in 0..rows {
        let (lo, hi) = (off[s] as usize, off[s + 1] as usize);
        targets[lo..hi].sort_unstable();
        let row_start = w;
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
        deg[s] = (w - row_start) as u32;
    }
    w as u32
}

/// Slice runs into sub-runs of at most [`RUN_SPLIT`] edges.
pub(crate) fn split_runs<R: AsRef<[(u32, u32)]>>(runs: &[R]) -> Vec<&[(u32, u32)]> {
    runs.iter()
        .flat_map(|r| r.as_ref().chunks(RUN_SPLIT))
        .collect()
}
