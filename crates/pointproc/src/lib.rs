//! # wsn-pointproc
//!
//! Stochastic substrate: seeded random-number plumbing, an exact Poisson
//! sampler, and the point processes that generate sensor deployments.
//!
//! The paper models sensor positions as a homogeneous Poisson point process
//! (PPP) of intensity λ in R². Experiments realise the process inside a
//! finite window; [`ppp::sample_poisson_window`] does exactly that (count
//! `N ~ Poisson(λ·area)`, then `N` i.i.d. uniform positions).
//!
//! Modules:
//!
//! * [`rng`] — deterministic RNG construction from `u64` seeds.
//! * [`poisson`] — exact Poisson(μ) sampling for any μ ≥ 0 (inversion for
//!   small means, Hörmann's PTRS transformed rejection for large).
//! * [`points`] — the flat [`points::PointSet`] container (SoA layout).
//! * [`ppp`] — homogeneous Poisson and binomial point processes in a window.
//! * [`matern`] — Matérn type-II hard-core thinning (a dependent-deployment
//!   workload variant used by the robustness experiments).
//! * [`order`] — Morton (Z-order) and explicit point reorderings with
//!   rank ↔ original-id maps, the cache-layout substrate of the ordered
//!   builders.

pub mod matern;
pub mod order;
pub mod points;
pub mod poisson;
pub mod ppp;
pub mod rng;

pub use order::PointOrder;
pub use points::PointSet;
pub use poisson::sample_poisson;
pub use ppp::{sample_binomial_window, sample_poisson_window};
pub use rng::{rng_from_seed, SimRng};
