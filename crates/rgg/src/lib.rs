//! # wsn-rgg
//!
//! Geometric random graphs on point sets:
//!
//! * [`udg`] — the unit-disk graph `UDG(2, λ)` (edge iff `d(x, y) ≤ r`,
//!   r = 1 in the paper).
//! * [`knn`] — the k-nearest-neighbour graph `NN(2, k)` of Häggström &
//!   Meester: each point connects (undirectedly) to its k nearest.
//! * [`hng`] — hierarchical neighbor graphs (Bagchi–Madan–Premi): seeded
//!   probabilistic level promotion plus nearest-higher-level uplinks,
//!   connected by construction with O(1) expected degree.
//!
//! plus the classical *topology-control baselines* the related-work section
//! compares against (each computed as a spanning subgraph of the UDG, as in
//! Li–Wan–Wang):
//!
//! * [`gabriel`] — Gabriel graph (diameter-disk empty);
//! * [`rng_graph`] — relative neighbourhood graph (lune empty);
//! * [`yao`] — Yao graph (shortest edge per angular cone).
//!
//! All builders return [`wsn_graph::Csr`] over the ids of the input
//! [`wsn_pointproc::PointSet`].
//!
//! Every topology also has a tile-sharded, rayon-parallel builder in
//! [`sharded`] that streams the deployment as ghost-padded shards and is
//! proven edge-identical to the monolithic builder — the construction
//! pipeline behind million-node experiments. [`ordered`] holds the one
//! cold-build dispatch, [`IncTopology::build`] / [`IncTopology::build_alive`]:
//! [`Exec::Serial`] runs the monolithic oracle, [`Exec::Sharded`] runs the
//! sharded builders over a Morton-sorted copy of the deployment
//! (cache-linear gathers), whose shard runs the CSR assembler writes
//! straight into original-id rows, byte-identically.
//!
//! Under node churn [`incremental`] repairs per event, on the paper's local
//! computability: every kind's selection depends only on a bounded
//! neighbourhood, so a death or join re-selects only the owners whose
//! certificate ball holds it — against indexes built once over the fixed
//! universe — and splices their emission delta into a chunked CSR that
//! stays byte-identical to a cold rebuild at a fraction of the cost.

pub mod gabriel;
pub mod hng;
pub mod incremental;
pub mod knn;
pub mod ordered;
pub mod rng_graph;
pub mod sharded;
pub mod udg;
pub mod yao;

pub use gabriel::build_gabriel;
pub use hng::{
    build_hng, build_hng_on_levels, build_hng_sharded, build_hng_sharded_on_levels, hng_halo,
    hng_levels, HngParams,
};
pub use incremental::{compact_alive, IncTopology, IncrementalGraph, RepairStats};
pub use knn::{build_knn, knn_lists};
pub use ordered::Exec;
pub use rng_graph::build_rng;
pub use sharded::{
    build_gabriel_sharded, build_knn_sharded, build_rng_sharded, build_udg_sharded,
    build_yao_sharded, knn_halo, knn_lists_sharded, mean_spacing, WHOLE_WINDOW,
};
pub use udg::build_udg;
pub use yao::{build_yao, yao_out_lists};
