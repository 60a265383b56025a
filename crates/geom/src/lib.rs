//! # wsn-geom
//!
//! Two-dimensional computational-geometry substrate for the `wsn-topology`
//! workspace. Everything downstream — point processes, spatial indices,
//! geometric random graphs and the paper's tile constructions — is built on
//! the primitives defined here.
//!
//! The crate is deliberately small and allocation-free in its hot paths:
//! points are plain `f64` pairs, and all predicates (`contains`,
//! `intersects`, distances) are branch-light and `#[inline]`.
//!
//! Modules:
//!
//! * [`point`] — points/vectors in R² with distance helpers.
//! * [`aabb`] — axis-aligned bounding boxes.
//! * [`disk`] — closed disks and their predicates.
//! * [`lens`] — intersections of two disks (the shape of the paper's
//!   UDG relay regions in "paper" mode).
//! * [`region`] — the [`region::Region`] trait uniting all shapes,
//!   plus boolean combinators and quadrature-based area estimation.
//! * [`tile`] — the square tiling of R² that both SENS constructions use,
//!   plus the [`ShardGrid`] decomposition driving the parallel pipeline.
//! * [`hash`] — SplitMix64 seed derivation for deterministic parallel
//!   experiments.
//! * [`morton`] — Z-order keys for the cache-linear point layout the
//!   construction pipeline sorts deployments into.
//! * [`ordf64`] — the [`OrdF64`] total-order wrapper shared by every heap
//!   or sort keyed on distances.
//! * [`svg`] — a minimal SVG writer used to regenerate the paper's figures.

pub mod aabb;
pub mod disk;
pub mod hash;
pub mod lens;
pub mod morton;
pub mod ordf64;
pub mod point;
pub mod region;
pub mod svg;
pub mod tile;

pub use aabb::Aabb;
pub use disk::Disk;
pub use lens::Lens;
pub use morton::morton_key;
pub use ordf64::OrdF64;
pub use point::Point;
pub use region::Region;
pub use tile::{ShardGrid, TileIndex, Tiling};
