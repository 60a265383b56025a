//! Cold construction: the one plain-topology build dispatch.
//!
//! [`IncTopology::build`] and [`IncTopology::build_alive`] are the only
//! places a plain kind is turned into a builder call. [`Exec`] picks the
//! path:
//!
//! * [`Exec::Serial`] runs the monolithic reference builders — the oracle
//!   every other path is pinned to.
//! * [`Exec::Sharded`] is the production path: a Morton reorder, then the
//!   tile-sharded builder over the rank-space copy (grid buckets, ghost
//!   gathers and per-shard resident lists then walk the point SoA
//!   near-sequentially). Its shard runs go to the CSR assembler
//!   ([`Csr::from_runs`]) together with the order's `to_orig` map, so every
//!   half-edge is written straight into its deployment-id row of the dense
//!   result, and there is no remap pass. (The churn-maintained graph,
//!   [`crate::IncrementalGraph`], is the one CSR kept in rank space: its
//!   rows hold ranks sorted by deployment id.)
//!
//! The `build_*_on_order` functions are the sharded path over a prepared
//! [`PointOrder`]; they stay public so callers can drive them with any
//! order (the permutation-invariance suite uses arbitrary bijections).
//!
//! ## Why emitting through `to_orig` yields the deployment-order graph
//!
//! The reordered copy carries bit-identical coordinates, and every
//! predicate these builders evaluate is symmetric in its operands
//! (`dist_sq`, `midpoint`) or canonicalised through `min`/`max`, so the
//! *edge set* a builder derives is a pure function of the point multiset —
//! ids only name the endpoints. The assembler renames each endpoint
//! through `to_orig` as it buckets the half-edge, and then sorts every
//! deployment-id row, so the rows are byte-for-byte those of the
//! deployment-order build whatever order the shards emitted in. Selection
//! tie-breaks (k-NN, Yao cones, HNG uplinks) do key on ids as a *last*
//! resort, but only after exact distance equality — a measure-zero event
//! for the continuous deployments this pipeline generates; the
//! permutation-invariance suite (including a lattice with tied distances
//! for the threshold kinds, which break no ties) and the golden matrix pin
//! the equality in practice. HNG level draws are seeded per *original* id
//! ([`crate::hng::hng_levels`]) and gathered into rank space, so the level
//! structure itself is layout-independent by construction.

use wsn_graph::{relabel, Csr};
use wsn_pointproc::{PointOrder, PointSet};

use crate::hng::{hng_levels, HngParams};
use crate::incremental::{compact_alive, survivor_levels, IncTopology};
use crate::sharded::assemble_sharded;
use crate::{build_gabriel, build_hng_on_levels, build_knn, build_rng, build_udg, build_yao};

/// How a cold build runs. Both paths produce the same graph byte for byte;
/// only wall-clock and memory shape differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// The monolithic reference builders (the oracle).
    Serial,
    /// Morton reorder, tile-sharded rayon build with `tiles` topology
    /// tiles per shard side ([`crate::WHOLE_WINDOW`] = one shard), emitted
    /// straight into deployment ids.
    Sharded { tiles: usize },
}

impl IncTopology {
    /// Build this topology over every point of `points`.
    pub fn build(&self, points: &PointSet, exec: Exec) -> Csr {
        self.build_on_levels(points, &self.levels(points.len()), exec)
    }

    /// Build this topology over the survivors `alive` marks, in the
    /// universe id space of `points` (dead nodes isolated): compact, build
    /// through the same dispatch, relabel back. HNG levels are rolled over
    /// the whole universe and restricted through the mask — never
    /// re-rolled over survivor ids — so this is the cold rebuild that
    /// incremental repair must match.
    pub fn build_alive(&self, points: &PointSet, alive: &[bool], exec: Exec) -> Csr {
        let (sub, to_universe) = compact_alive(points, alive);
        let levels_sub = survivor_levels(&self.levels(points.len()), alive);
        let g = self.build_on_levels(&sub, &levels_sub, exec);
        relabel(&g, &to_universe, points.len())
    }

    /// HNG levels of an `n`-point universe (empty for every other kind).
    pub(crate) fn levels(&self, n: usize) -> Vec<u32> {
        match *self {
            IncTopology::Hng { p, links, seed } => {
                let params = HngParams::new(p, links); // validate
                hng_levels(n, params.p, seed)
            }
            _ => Vec::new(),
        }
    }

    /// The dispatch proper; `levels` is read only by HNG.
    fn build_on_levels(&self, points: &PointSet, levels: &[u32], exec: Exec) -> Csr {
        let Exec::Sharded { tiles } = exec else {
            return match *self {
                IncTopology::Udg { radius } => build_udg(points, radius),
                IncTopology::Knn { k } => build_knn(points, k),
                IncTopology::Gabriel { radius } => build_gabriel(points, radius),
                IncTopology::Rng { radius } => build_rng(points, radius),
                IncTopology::Yao { radius, cones } => build_yao(points, radius, cones),
                IncTopology::Hng { links, .. } => build_hng_on_levels(points, levels, links),
            };
        };
        self.build_on_order(&PointOrder::morton(points), levels, tiles)
    }

    /// The sharded path over a prepared order: the builder runs over the
    /// rank-space copy and the assembler renames every endpoint through
    /// `to_orig`. `levels` is per original id (read by HNG only).
    fn build_on_order(&self, order: &PointOrder, levels: &[u32], tiles: usize) -> Csr {
        let rank_levels = if levels.is_empty() {
            Vec::new()
        } else {
            order.gather_values(levels)
        };
        let to_orig = Some(order.to_orig());
        assemble_sharded(*self, order.points(), &rank_levels, tiles, to_orig)
    }
}

/// UDG over a prepared order — edge-identical to [`crate::build_udg`].
pub fn build_udg_on_order(order: &PointOrder, radius: f64, tiles_per_shard: usize) -> Csr {
    IncTopology::Udg { radius }.build_on_order(order, &[], tiles_per_shard)
}

/// Gabriel graph over a prepared order — edge-identical to
/// [`crate::build_gabriel`].
pub fn build_gabriel_on_order(order: &PointOrder, radius: f64, tiles_per_shard: usize) -> Csr {
    IncTopology::Gabriel { radius }.build_on_order(order, &[], tiles_per_shard)
}

/// Relative neighborhood graph over a prepared order — edge-identical to
/// [`crate::build_rng`].
pub fn build_rng_on_order(order: &PointOrder, radius: f64, tiles_per_shard: usize) -> Csr {
    IncTopology::Rng { radius }.build_on_order(order, &[], tiles_per_shard)
}

/// Yao graph over a prepared order — edge-identical to [`crate::build_yao`].
pub fn build_yao_on_order(
    order: &PointOrder,
    radius: f64,
    cones: usize,
    tiles_per_shard: usize,
) -> Csr {
    IncTopology::Yao { radius, cones }.build_on_order(order, &[], tiles_per_shard)
}

/// Symmetrised k-NN over a prepared order — edge-identical to
/// [`crate::build_knn`].
pub fn build_knn_on_order(order: &PointOrder, k: usize, tiles_per_shard: usize) -> Csr {
    IncTopology::Knn { k }.build_on_order(order, &[], tiles_per_shard)
}

/// HNG over a prepared order — edge-identical to [`crate::build_hng`].
///
/// Level promotion draws are keyed on original deployment ids (the same
/// `derive_seed2(seed, node, level)` stream every other HNG builder uses)
/// and gathered into rank space, so the hierarchy is identical no matter
/// the layout.
pub fn build_hng_on_order(
    order: &PointOrder,
    params: HngParams,
    seed: u64,
    tiles_per_shard: usize,
) -> Csr {
    let kind = IncTopology::Hng {
        p: params.p,
        links: params.links,
        seed,
    };
    kind.build_on_order(order, &kind.levels(order.len()), tiles_per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_hng;
    use wsn_geom::Aabb;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn pts(n: usize, seed: u64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(12.0))
    }

    #[test]
    fn ordered_builders_match_monolithic() {
        let p = pts(900, 41);
        let sharded = Exec::Sharded { tiles: 4 };
        let build = |kind: IncTopology| kind.build(&p, sharded);
        assert_eq!(build(IncTopology::Udg { radius: 1.0 }), build_udg(&p, 1.0));
        assert_eq!(
            build(IncTopology::Gabriel { radius: 1.2 }),
            build_gabriel(&p, 1.2)
        );
        assert_eq!(build(IncTopology::Rng { radius: 1.2 }), build_rng(&p, 1.2));
        assert_eq!(
            build(IncTopology::Yao {
                radius: 1.0,
                cones: 6
            }),
            build_yao(&p, 1.0, 6)
        );
        assert_eq!(build(IncTopology::Knn { k: 8 }), build_knn(&p, 8));
        let hng = IncTopology::Hng {
            p: 0.5,
            links: 2,
            seed: 7,
        };
        assert_eq!(build(hng), build_hng(&p, HngParams::new(0.5, 2), 7));
    }

    #[test]
    fn arbitrary_orders_also_match() {
        // Not just Morton: any bijection must map back to the same graph.
        let p = pts(400, 42);
        let n = p.len() as u32;
        // A fixed "shuffle": reverse, which is maximally non-monotone.
        let rev: Vec<u32> = (0..n).rev().collect();
        let order = PointOrder::from_to_orig(&p, rev);
        assert_eq!(build_udg_on_order(&order, 1.0, 4), build_udg(&p, 1.0));
        assert_eq!(build_knn_on_order(&order, 6, 4), build_knn(&p, 6));
        let hp = HngParams::new(0.4, 2);
        assert_eq!(build_hng_on_order(&order, hp, 3, 4), build_hng(&p, hp, 3));
    }

    #[test]
    fn empty_point_sets_are_fine() {
        let p = PointSet::new();
        let order = PointOrder::morton(&p);
        assert_eq!(build_udg_on_order(&order, 1.0, 4).n(), 0);
        assert_eq!(build_knn_on_order(&order, 4, 4).n(), 0);
    }
}
