//! Construction-time point reorderings.
//!
//! A [`PointOrder`] is a reordered *copy* of a deployment: the same point
//! multiset stored in a different id order (ranks), plus the two maps
//! between rank space and the original deployment ids. The canonical use
//! is [`PointOrder::morton`]: sorting the copy into Z-order makes every
//! spatially local scan downstream — `GridIndex` buckets, ghost gathers,
//! per-shard resident lists — walk the SoA nearly sequentially.
//!
//! The *logical* id space of every graph, golden, and seeded draw stays
//! the original deployment order: builders run over `points()` in rank
//! space and name their emissions through [`PointOrder::to_orig`]
//! (`wsn_rgg::ordered` hands it to the CSR assembler, which writes every
//! half-edge straight into its deployment-id row; `wsn_core`'s
//! `*_ordered` builders map their candidates). Churn, HNG level promotion, and every other per-node seeded
//! stream key on original ids, so reordering can never change an observable
//! byte — the permutation-invariance suite pins this for all eight
//! topology kinds.

use wsn_geom::morton::morton_key;

use crate::points::PointSet;

/// A reordered copy of a point set with rank ↔ original id maps.
#[derive(Clone, Debug)]
pub struct PointOrder {
    points: PointSet,
    /// `to_orig[rank]` = original id stored at `rank`.
    to_orig: Vec<u32>,
    /// `to_rank[orig]` = rank holding original id `orig`.
    to_rank: Vec<u32>,
}

impl PointOrder {
    /// Morton (Z-order) layout of `points`, quantised against the tight
    /// bounding box. Key ties (coincident or quantisation-coincident
    /// points) break by original id, so the order is deterministic.
    pub fn morton(points: &PointSet) -> PointOrder {
        let Some(bb) = points.bounding_box() else {
            return PointOrder::from_to_orig(points, Vec::new());
        };
        let mut keyed: Vec<(u64, u32)> = points
            .iter_enumerated()
            .map(|(i, p)| (morton_key(p, &bb), i))
            .collect();
        keyed.sort_unstable();
        PointOrder::from_to_orig(points, keyed.into_iter().map(|(_, i)| i).collect())
    }

    /// The identity layout (rank = original id). Useful as a differential
    /// baseline: an ordered build over the identity order must equal the
    /// plain build structurally, not just after remapping.
    pub fn identity(points: &PointSet) -> PointOrder {
        PointOrder::from_to_orig(points, (0..points.len() as u32).collect())
    }

    /// An explicit layout: `to_orig[rank]` names the original id stored at
    /// `rank`. Panics unless `to_orig` is a permutation of `0..len` — a
    /// partial or duplicated map would silently drop or alias points.
    pub fn from_to_orig(points: &PointSet, to_orig: Vec<u32>) -> PointOrder {
        let n = points.len();
        assert_eq!(to_orig.len(), n, "order must cover every point");
        let mut to_rank = vec![u32::MAX; n];
        let mut reordered = PointSet::with_capacity(n);
        for (rank, &orig) in to_orig.iter().enumerate() {
            assert!(
                to_rank[orig as usize] == u32::MAX,
                "id {orig} appears twice in the order"
            );
            to_rank[orig as usize] = rank as u32;
            reordered.push(points.get(orig));
        }
        PointOrder {
            points: reordered,
            to_orig,
            to_rank,
        }
    }

    /// The reordered copy: `points().get(rank)` is the original point
    /// `to_orig()[rank]`, bit-for-bit (reordering copies coordinates, it
    /// never recomputes them).
    #[inline]
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Rank → original id.
    #[inline]
    pub fn to_orig(&self) -> &[u32] {
        &self.to_orig
    }

    /// Original id → rank.
    #[inline]
    pub fn to_rank(&self) -> &[u32] {
        &self.to_rank
    }

    /// Take the order apart: the reordered copy, `to_orig` and `to_rank`.
    pub fn into_parts(self) -> (PointSet, Vec<u32>, Vec<u32>) {
        (self.points, self.to_orig, self.to_rank)
    }

    /// Map a per-original-id attribute vector (levels, priorities, alive
    /// masks …) into rank space, so rank-space builders can consume values
    /// seeded in the stable original id space.
    pub fn gather_values<T: Copy>(&self, per_orig: &[T]) -> Vec<T> {
        assert_eq!(per_orig.len(), self.points.len());
        self.to_orig.iter().map(|&o| per_orig[o as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rng_from_seed, sample_binomial_window};
    use wsn_geom::{Aabb, Point};

    fn pts(n: usize, seed: u64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(10.0))
    }

    #[test]
    fn morton_is_a_permutation_preserving_coordinates() {
        let p = pts(500, 1);
        let ord = PointOrder::morton(&p);
        assert_eq!(ord.len(), p.len());
        let mut seen = vec![false; p.len()];
        for (rank, &orig) in ord.to_orig().iter().enumerate() {
            assert!(!seen[orig as usize]);
            seen[orig as usize] = true;
            assert_eq!(ord.points().get(rank as u32), p.get(orig));
            assert_eq!(ord.to_rank()[orig as usize], rank as u32);
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn morton_order_is_sorted_by_key() {
        let p = pts(300, 2);
        let bb = p.bounding_box().unwrap();
        let ord = PointOrder::morton(&p);
        let keys: Vec<(u64, u32)> = ord
            .to_orig()
            .iter()
            .map(|&o| (wsn_geom::morton_key(p.get(o), &bb), o))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn identity_order_is_the_same_layout() {
        let p = pts(50, 3);
        let ord = PointOrder::identity(&p);
        assert_eq!(ord.points(), &p);
        assert_eq!(ord.to_orig(), ord.to_rank());
    }

    #[test]
    fn gather_values_translates_attribute_spaces() {
        let p = pts(40, 4);
        let ord = PointOrder::morton(&p);
        let per_orig: Vec<u32> = (0..p.len() as u32).map(|i| i * 10).collect();
        let per_rank = ord.gather_values(&per_orig);
        for (rank, &orig) in ord.to_orig().iter().enumerate() {
            assert_eq!(per_rank[rank], orig * 10);
        }
    }

    #[test]
    fn empty_and_degenerate_sets() {
        let empty = PointSet::new();
        let ord = PointOrder::morton(&empty);
        assert!(ord.is_empty());
        // All-coincident points: keys tie, order falls back to original id.
        let same: PointSet = (0..5).map(|_| wsn_geom::Point::new(1.0, 2.0)).collect();
        let ord = PointOrder::morton(&same);
        assert_eq!(ord.to_orig(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_ids_in_an_explicit_order_panic() {
        let p = pts(3, 5);
        PointOrder::from_to_orig(&p, vec![0, 0, 2]);
    }

    #[test]
    fn morton_ranks_are_spatially_coherent() {
        // Consecutive ranks should on average be far closer in space than
        // consecutive original ids of a uniform deployment.
        let p = pts(2000, 6);
        let ord = PointOrder::morton(&p);
        let mean_step = |ids: &dyn Fn(u32) -> Point| -> f64 {
            (0..p.len() as u32 - 1)
                .map(|i| ids(i).dist(ids(i + 1)))
                .sum::<f64>()
                / (p.len() - 1) as f64
        };
        let orig = mean_step(&|i| p.get(i));
        let morton = mean_step(&|i| ord.points().get(i));
        assert!(
            morton < orig * 0.25,
            "morton mean step {morton} vs original {orig}"
        );
    }
}
