//! # wsn-spatial
//!
//! A flat grid-bucket spatial index over a [`wsn_pointproc::PointSet`].
//!
//! Both geometric random-graph models need fast neighbourhood queries:
//! `UDG(2, λ)` needs all points within distance 1 (disk range query), and
//! `NN(2, k)` needs the k nearest neighbours of every point. A uniform grid
//! with a prefix-sum (CSR-style) bucket layout gives O(1)-amortised disk
//! queries at Poisson densities and an expanding-ring k-NN search, with zero
//! per-query allocation when reusing output buffers.
//!
//! [`bruteforce`] contains O(n) reference implementations used as oracles in
//! the property tests.

pub mod bruteforce;
pub mod grid;

pub use grid::{CellIndex, GridIndex};
