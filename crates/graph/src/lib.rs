//! # wsn-graph
//!
//! Compact graph substrate shared by the percolation lattice, the geometric
//! random graphs and the SENS subgraph constructions.
//!
//! Graphs are stored in CSR (compressed sparse row) form with `u32` node ids
//! — one flat `targets` array plus an `offsets` array — which keeps
//! traversals cache-dense and the memory footprint at 8 bytes per directed
//! edge (perf-book guidance on flat data structures).
//!
//! Modules:
//!
//! * [`assemble`] — the CSR assembler every constructor calls: per-shard
//!   edge runs, optionally id-mapped, bucketed and scattered into sorted
//!   rows on the worker pool.
//! * [`csr`] — the [`Csr`] structure and its [`builder::EdgeList`] builder.
//! * [`chunked`] — the [`ChunkedCsr`]: per-shard adjacency chunks, each
//!   owning its rows' buffer, spliced on the worker pool in O(dirty) per
//!   churned epoch.
//! * [`view`] — the [`GraphView`] trait and [`CsrView`] enum unifying the
//!   dense and chunked representations for read-side consumers.
//! * [`builder`] — edge-list accumulation and deduplication.
//! * [`delta`] — universe id-space helpers: monotone relabelling and
//!   layout-blind CSR fingerprints.
//! * [`perm`] — arbitrary-permutation relabelling of a built graph.
//! * [`snapshot`] — the serve path's per-epoch snapshot broadcast: one
//!   lockstep writer, reader links that release each epoch, fail-fast
//!   hang-up.
//! * [`unionfind`] — disjoint sets with union by size + path halving.
//! * [`bfs`] — unweighted shortest paths (hop distance).
//! * [`dijkstra`] — weighted shortest paths with a caller-supplied weight
//!   function (Euclidean edge lengths in the stretch experiments).
//! * [`components`] — connected components (canonical smallest-id labels)
//!   and the giant component.
//! * [`stats`] — degree statistics (sparsity property P1).
//! * [`stretch`] — hop/Euclidean stretch sampling (stretch property P2).

pub mod assemble;
pub mod bfs;
pub mod builder;
pub mod chunked;
pub mod components;
pub mod csr;
pub mod delta;
pub mod dijkstra;
pub mod perm;
pub mod snapshot;
pub mod stats;
pub mod stretch;
pub mod unionfind;
pub mod view;

pub use assemble::Emitted;
pub use builder::EdgeList;
pub use chunked::{ChunkedCsr, SpliceStats};
pub use csr::Csr;
pub use delta::{check_monotone, fingerprint, relabel, MonotonicityError};
pub use perm::remap_csr;
pub use snapshot::{run_lockstep, EpochPublisher, Subscriber};
pub use unionfind::UnionFind;
pub use view::{CsrView, GraphView};

/// Sentinel for "unreachable" in hop-distance arrays.
pub const UNREACHABLE: u32 = u32::MAX;
