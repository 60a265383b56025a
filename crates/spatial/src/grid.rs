//! The grid-bucket index.

use wsn_geom::{Aabb, OrdF64, Point};
use wsn_pointproc::PointSet;

/// The bucket layout of a uniform grid over (a subset of) a point set,
/// without the borrow of the points: every query takes the points it was
/// built over. An owner of the points keeps it beside them — the
/// incremental repair indexes its fixed universe once this way — and
/// [`GridIndex`] is the borrowing form the builders use.
///
/// Bucket layout is CSR-style: `ids` holds the member ids sorted by cell,
/// and `cell_start[c]..cell_start[c + 1]` is the slice of cell `c` — one
/// flat allocation, cache-dense iteration (perf-book idiom).
#[derive(Clone, Debug)]
pub struct CellIndex {
    bounds: Aabb,
    cell: f64,
    cols: usize,
    rows: usize,
    cell_start: Vec<u32>,
    ids: Vec<u32>,
}

impl CellIndex {
    /// Index every point of `points` with the given cell size.
    pub fn build(points: &PointSet, cell: f64) -> Self {
        CellIndex::build_with(
            points,
            || 0..points.len() as u32,
            points.len(),
            points.bounding_box(),
            cell,
        )
    }

    /// Index only the `members` of `points` (queries return ids of
    /// `points`). The grid is sized to the members' bounding box.
    pub fn build_subset(points: &PointSet, members: &[u32], cell: f64) -> Self {
        let mut bounds: Option<Aabb> = None;
        for &m in members {
            let p = points.get(m);
            let b = Aabb::new(p, p);
            bounds = Some(match bounds {
                None => b,
                Some(cur) => cur.union(&b),
            });
        }
        CellIndex::build_with(
            points,
            || members.iter().copied(),
            members.len(),
            bounds,
            cell,
        )
    }

    /// The one counting-sort construction both entry points share;
    /// `members` yields the indexed ids (twice — count, then scatter).
    fn build_with<I, F>(
        points: &PointSet,
        members: F,
        n_members: usize,
        bounds: Option<Aabb>,
        cell: f64,
    ) -> Self
    where
        I: Iterator<Item = u32>,
        F: Fn() -> I,
    {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        let bounds = bounds.unwrap_or_else(|| Aabb::square(cell));
        // Guard against degenerate (single-point / colinear) extents.
        let cols = ((bounds.width() / cell).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell).ceil() as usize).max(1);
        let n_cells = cols * rows;

        // Counting sort of member ids by cell.
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: Point| -> usize {
            let i = (((p.x - bounds.min.x) / cell) as usize).min(cols - 1);
            let j = (((p.y - bounds.min.y) / cell) as usize).min(rows - 1);
            j * cols + i
        };
        for m in members() {
            counts[cell_of(points.get(m)) + 1] += 1;
        }
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut cursor = counts;
        let mut ids = vec![0u32; n_members];
        for m in members() {
            let c = cell_of(points.get(m));
            ids[cursor[c] as usize] = m;
            cursor[c] += 1;
        }
        CellIndex {
            bounds,
            cell,
            cols,
            rows,
            cell_start,
            ids,
        }
    }

    /// The indexed ids, in cell order.
    #[inline]
    pub fn members(&self) -> &[u32] {
        &self.ids
    }

    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let i = (((p.x - self.bounds.min.x) / self.cell).max(0.0) as usize).min(self.cols - 1);
        let j = (((p.y - self.bounds.min.y) / self.cell).max(0.0) as usize).min(self.rows - 1);
        (i, j)
    }

    #[inline]
    fn cell_ids(&self, i: usize, j: usize) -> &[u32] {
        let c = j * self.cols + i;
        let (s, e) = (self.cell_start[c] as usize, self.cell_start[c + 1] as usize);
        &self.ids[s..e]
    }

    /// Every member within `radius` of `center` (closed ball) for which
    /// `f(id, point)` returns `true` stops the scan and is returned;
    /// `None` once the overlapping cells are exhausted.
    fn scan_disk<F: FnMut(u32, Point) -> bool>(
        &self,
        points: &PointSet,
        center: Point,
        radius: f64,
        mut f: F,
    ) -> Option<u32> {
        if self.ids.is_empty() {
            return None;
        }
        let r2 = radius * radius;
        let lo = self.cell_coords(Point::new(center.x - radius, center.y - radius));
        let hi = self.cell_coords(Point::new(center.x + radius, center.y + radius));
        for j in lo.1..=hi.1 {
            for i in lo.0..=hi.0 {
                for &id in self.cell_ids(i, j) {
                    let p = points.get(id);
                    if p.dist_sq(center) <= r2 && f(id, p) {
                        return Some(id);
                    }
                }
            }
        }
        None
    }

    /// Call `f(id, point)` for every member within `radius` of `center`
    /// (closed ball). Visits only the O(r²/cell²) overlapping cells.
    pub fn for_each_in_disk<F: FnMut(u32, Point)>(
        &self,
        points: &PointSet,
        center: Point,
        radius: f64,
        mut f: F,
    ) {
        self.scan_disk(points, center, radius, |id, p| {
            f(id, p);
            false
        });
    }

    /// First member (in cell-scan order) within `radius` of `center` that
    /// satisfies `pred`, or `None` — the scan stops at the first hit.
    pub fn find_in_disk<F: FnMut(u32, Point) -> bool>(
        &self,
        points: &PointSet,
        center: Point,
        radius: f64,
        pred: F,
    ) -> Option<u32> {
        self.scan_disk(points, center, radius, pred)
    }

    /// Ids of all members inside the closed box, appended to `out`
    /// (cleared first).
    pub fn in_aabb(&self, points: &PointSet, b: &Aabb, out: &mut Vec<u32>) {
        out.clear();
        if self.ids.is_empty() {
            return;
        }
        let lo = self.cell_coords(b.min);
        let hi = self.cell_coords(b.max);
        for j in lo.1..=hi.1 {
            for i in lo.0..=hi.0 {
                for &id in self.cell_ids(i, j) {
                    if b.contains(points.get(id)) {
                        out.push(id);
                    }
                }
            }
        }
    }

    /// The `k` nearest members of `query` that `keep` accepts, as
    /// `(id, distance)` pairs sorted by increasing distance; fewer than `k`
    /// when fewer are accepted. Ties are broken deterministically by
    /// `(distance, id)`, so the answer is a function of the accepted point
    /// multiset alone — whatever the cell size or the members left out.
    pub fn knn_where<F: Fn(u32) -> bool>(
        &self,
        points: &PointSet,
        query: Point,
        k: usize,
        keep: F,
    ) -> Vec<(u32, f64)> {
        self.knn_keyed(points, query, k, keep, |id| id, |id| id)
    }

    /// [`CellIndex::knn_where`] with exact-distance ties broken by
    /// `(distance, tie(id))` instead: an index over a reordered copy of a
    /// deployment passes the rank → deployment-id map, so it selects the
    /// same members as an index over the deployment order. `tie` must be
    /// injective on the members.
    pub fn knn_by<F: Fn(u32) -> bool, T: Fn(u32) -> u32>(
        &self,
        points: &PointSet,
        query: Point,
        k: usize,
        keep: F,
        tie: T,
    ) -> Vec<(u32, f64)> {
        self.knn_keyed(points, query, k, keep, |id| (tie(id), id), |(_, id)| id)
    }

    /// The search behind [`CellIndex::knn_where`] and [`CellIndex::knn_by`]:
    /// members rank by `(distance², key_of(id))`, and `id_of` recovers the
    /// id from its key.
    fn knn_keyed<K, F, T, I>(
        &self,
        points: &PointSet,
        query: Point,
        k: usize,
        keep: F,
        key_of: T,
        id_of: I,
    ) -> Vec<(u32, f64)>
    where
        K: Ord + Copy,
        F: Fn(u32) -> bool,
        T: Fn(u32) -> K,
        I: Fn(K) -> u32,
    {
        if k == 0 || self.ids.is_empty() {
            return Vec::new();
        }
        // Max-heap of the best k so far, keyed by (dist_sq, key); it never
        // holds more than the members, whatever `k` the caller asks for.
        let mut heap: std::collections::BinaryHeap<(OrdF64, K)> =
            std::collections::BinaryHeap::with_capacity(k.min(self.ids.len()) + 1);
        let (qi, qj) = self.cell_coords(query);
        let max_ring = self.cols.max(self.rows);

        for ring in 0..=max_ring {
            // Smallest possible distance from `query` to a cell `ring` cells
            // away (Chebyshev): (ring − 1) · cell, because the query may sit
            // anywhere within its own cell.
            if heap.len() == k {
                let kth = heap.peek().unwrap().0 .0.sqrt();
                if ring >= 1 && (ring as f64 - 1.0) * self.cell > kth {
                    break;
                }
            }
            let mut visit = |i: isize, j: isize| {
                if i < 0 || j < 0 || i as usize >= self.cols || j as usize >= self.rows {
                    return;
                }
                for &id in self.cell_ids(i as usize, j as usize) {
                    if !keep(id) {
                        continue;
                    }
                    let d2 = points.get(id).dist_sq(query);
                    let key = (OrdF64(d2), key_of(id));
                    if heap.len() < k {
                        heap.push(key);
                    } else if key < *heap.peek().unwrap() {
                        heap.pop();
                        heap.push(key);
                    }
                }
            };
            let (ci, cj) = (qi as isize, qj as isize);
            let r = ring as isize;
            if r == 0 {
                visit(ci, cj);
            } else {
                for d in -r..=r {
                    visit(ci + d, cj - r);
                    visit(ci + d, cj + r);
                }
                for d in (-r + 1)..r {
                    visit(ci - r, cj + d);
                    visit(ci + r, cj + d);
                }
            }
        }
        // Order on the heap's key *before* taking square roots: distinct
        // squared distances can collapse to the same sqrt, and ordering on
        // the rounded value would tie-break by id where the true distances
        // differ.
        let mut out = heap.into_vec();
        out.sort_unstable();
        out.into_iter()
            .map(|(d2, key)| (id_of(key), d2.0.sqrt()))
            .collect()
    }
}

/// A uniform-grid spatial index borrowing its point set: a [`CellIndex`]
/// over every point, queried against the points it was built from.
pub struct GridIndex<'p> {
    points: &'p PointSet,
    cells: CellIndex,
}

impl<'p> GridIndex<'p> {
    /// Build an index with the given cell size (typically the query radius).
    ///
    /// Empty point sets are allowed and yield an index whose queries return
    /// nothing.
    pub fn build(points: &'p PointSet, cell: f64) -> Self {
        GridIndex {
            points,
            cells: CellIndex::build(points, cell),
        }
    }

    #[inline]
    pub fn points(&self) -> &PointSet {
        self.points
    }

    /// Call `f(id, point)` for every point within `radius` of `center`
    /// (closed ball). Visits only the O(r²/cell²) overlapping cells.
    pub fn for_each_in_disk<F: FnMut(u32, Point)>(&self, center: Point, radius: f64, f: F) {
        self.cells.for_each_in_disk(self.points, center, radius, f);
    }

    /// Ids of all points within `radius` of `center`, appended to `out`
    /// (cleared first). Reuse `out` across calls to avoid allocation.
    pub fn in_disk(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_in_disk(center, radius, |id, _| out.push(id));
    }

    /// First point (in cell-scan order) within `radius` of `center` that
    /// satisfies `pred`, or `None`. Unlike [`Self::for_each_in_disk`] this
    /// stops at the first hit — the primitive for region-emptiness tests
    /// that should not scan the whole disk once a witness is found.
    pub fn find_in_disk<F: FnMut(u32, Point) -> bool>(
        &self,
        center: Point,
        radius: f64,
        pred: F,
    ) -> Option<u32> {
        self.cells.find_in_disk(self.points, center, radius, pred)
    }

    /// Ids of all points inside the closed box, sorted ascending — the ghost
    /// gather of the sharded pipeline (sorted ids keep local→global id maps
    /// monotone, which preserves every id tie-break downstream).
    pub fn gather_sorted(&self, b: &Aabb, out: &mut Vec<u32>) {
        self.in_aabb(b, out);
        out.sort_unstable();
    }

    /// Ids of all points inside the closed box, appended to `out`.
    pub fn in_aabb(&self, b: &Aabb, out: &mut Vec<u32>) {
        self.cells.in_aabb(self.points, b, out);
    }

    /// Number of points within `radius` of `center`.
    pub fn count_in_disk(&self, center: Point, radius: f64) -> usize {
        let mut n = 0usize;
        self.for_each_in_disk(center, radius, |_, _| n += 1);
        n
    }

    /// The `k` nearest neighbours of `query`, excluding `skip` (pass the
    /// query point's own id when it belongs to the set). Returns
    /// `(id, distance)` pairs sorted by increasing distance; fewer than `k`
    /// when the set is small. Ties are broken deterministically by
    /// `(distance, id)`.
    pub fn knn(&self, query: Point, k: usize, skip: Option<u32>) -> Vec<(u32, f64)> {
        self.cells
            .knn_where(self.points, query, k, |id| Some(id) != skip)
    }

    /// Nearest neighbour (excluding `skip`), if any.
    pub fn nearest(&self, query: Point, skip: Option<u32>) -> Option<(u32, f64)> {
        self.knn(query, 1, skip).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use proptest::prelude::*;
    use rand::RngExt;
    use wsn_pointproc::{rng_from_seed, sample_binomial_window};

    fn sample_points(n: usize, seed: u64) -> PointSet {
        sample_binomial_window(&mut rng_from_seed(seed), n, &Aabb::square(10.0))
    }

    #[test]
    fn empty_set_queries_are_empty() {
        let pts = PointSet::new();
        let idx = GridIndex::build(&pts, 1.0);
        let mut out = Vec::new();
        idx.in_disk(Point::new(0.0, 0.0), 5.0, &mut out);
        assert!(out.is_empty());
        assert!(idx.knn(Point::new(0.0, 0.0), 3, None).is_empty());
        assert!(idx.nearest(Point::new(0.0, 0.0), None).is_none());
    }

    /// Four members at exactly the same distance: `knn_where` keeps the
    /// smallest ids, `knn_by` the smallest tie keys, and both order their
    /// answer by the key they rank with.
    #[test]
    fn knn_by_breaks_exact_ties_by_its_key() {
        let pts: PointSet = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (3.0, 3.0)]
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let index = CellIndex::build(&pts, 1.0);
        let origin = Point::new(0.0, 0.0);
        let ids = |found: Vec<(u32, f64)>| found.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(ids(index.knn_where(&pts, origin, 2, |_| true)), [0, 1]);
        let reversed = |id: u32| 10 - id;
        let by = index.knn_by(&pts, origin, 3, |_| true, reversed);
        assert_eq!(ids(by.clone()), [3, 2, 1]);
        assert!(by.iter().all(|e| e.1 == 1.0));
    }

    /// `k = usize::MAX` returns every accepted member in `(d², id)` order
    /// (the heap is sized by the members, so nothing overflows).
    #[test]
    fn knn_where_with_unbounded_k_returns_every_member() {
        let pts: PointSet = [(2.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 2.0)]
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let idx = CellIndex::build(&pts, 1.0);
        let got = idx.knn_where(&pts, Point::new(0.0, 0.0), usize::MAX, |_| true);
        assert_eq!(got, [(1, 1.0), (2, 1.0), (0, 2.0), (3, 2.0)]);
        let odd = idx.knn_where(&pts, Point::new(0.0, 0.0), usize::MAX, |id| id % 2 == 1);
        assert_eq!(odd, [(1, 1.0), (3, 2.0)]);
    }

    #[test]
    fn single_point() {
        let pts: PointSet = vec![Point::new(5.0, 5.0)].into_iter().collect();
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(
            idx.nearest(Point::new(0.0, 0.0), None),
            Some((0, 50.0_f64.sqrt()))
        );
        assert!(idx.nearest(Point::new(0.0, 0.0), Some(0)).is_none());
        assert_eq!(idx.count_in_disk(Point::new(5.0, 5.0), 0.1), 1);
    }

    #[test]
    fn disk_query_matches_bruteforce_on_fixed_sets() {
        let pts = sample_points(500, 1);
        let idx = GridIndex::build(&pts, 1.0);
        let mut fast = Vec::new();
        for &(cx, cy, r) in &[
            (5.0, 5.0, 1.0),
            (0.0, 0.0, 2.5),
            (10.0, 10.0, 0.5),
            (3.3, 7.7, 4.0),
        ] {
            let c = Point::new(cx, cy);
            idx.in_disk(c, r, &mut fast);
            fast.sort_unstable();
            let slow = bruteforce::in_disk(&pts, c, r);
            assert_eq!(fast, slow, "center ({cx},{cy}) r {r}");
        }
    }

    #[test]
    fn find_in_disk_agrees_with_full_scan_and_short_circuits() {
        let pts = sample_points(400, 9);
        let idx = GridIndex::build(&pts, 1.0);
        for &(cx, cy, r) in &[(5.0, 5.0, 1.5), (0.5, 9.5, 2.0), (11.0, 11.0, 1.0)] {
            let c = Point::new(cx, cy);
            // Existence must agree with the exhaustive scan for any pred.
            let pred = |id: u32, _: Point| id.is_multiple_of(3);
            let mut any = false;
            idx.for_each_in_disk(c, r, |id, p| any |= pred(id, p));
            assert_eq!(idx.find_in_disk(c, r, pred).is_some(), any, "({cx},{cy})");
            // And the hit (when any) genuinely satisfies the predicate +
            // the ball.
            if let Some(id) = idx.find_in_disk(c, r, pred) {
                assert!(id.is_multiple_of(3) && pts.get(id).dist(c) <= r);
            }
        }
        // Short-circuit: the predicate is not called again after a hit.
        let mut calls = 0usize;
        let _ = idx.find_in_disk(Point::new(5.0, 5.0), 3.0, |_, _| {
            calls += 1;
            true
        });
        assert_eq!(calls, 1, "must stop at the first accepted point");
    }

    #[test]
    fn knn_matches_bruteforce_on_fixed_sets() {
        let pts = sample_points(300, 2);
        let idx = GridIndex::build(&pts, 0.8);
        for qi in [0u32, 7, 42, 299] {
            let q = pts.get(qi);
            for k in [1usize, 3, 10, 50] {
                let fast = idx.knn(q, k, Some(qi));
                let slow = bruteforce::knn(&pts, q, k, Some(qi));
                let f: Vec<u32> = fast.iter().map(|&(i, _)| i).collect();
                let s: Vec<u32> = slow.iter().map(|&(i, _)| i).collect();
                assert_eq!(f, s, "query {qi} k {k}");
            }
        }
    }

    #[test]
    fn knn_returns_all_when_k_exceeds_n() {
        let pts = sample_points(5, 3);
        let idx = GridIndex::build(&pts, 1.0);
        let res = idx.knn(Point::new(5.0, 5.0), 100, None);
        assert_eq!(res.len(), 5);
        // Sorted by distance.
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn knn_handles_duplicate_positions() {
        let pts: PointSet = vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]
        .into_iter()
        .collect();
        let idx = GridIndex::build(&pts, 1.0);
        let res = idx.knn(Point::new(1.0, 1.0), 2, Some(0));
        // Ids 1 and 2 are both at distance 0; deterministic tie-break by id.
        assert_eq!(res.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn aabb_query_matches_predicate() {
        let pts = sample_points(400, 4);
        let idx = GridIndex::build(&pts, 1.3);
        let b = Aabb::from_coords(2.0, 3.0, 6.5, 8.0);
        let mut out = Vec::new();
        idx.in_aabb(&b, &mut out);
        out.sort_unstable();
        let expected: Vec<u32> = pts
            .iter_enumerated()
            .filter(|&(_, p)| b.contains(p))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn cell_size_does_not_change_results() {
        let pts = sample_points(200, 5);
        let q = Point::new(4.2, 6.1);
        let mut reference: Option<Vec<u32>> = None;
        for cell in [0.3, 1.0, 2.7, 9.0] {
            let idx = GridIndex::build(&pts, cell);
            let ids: Vec<u32> = idx.knn(q, 12, None).iter().map(|&(i, _)| i).collect();
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "cell = {cell}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_disk_query_equals_bruteforce(
            seed in 0u64..1000,
            n in 0usize..200,
            cx in 0.0f64..10.0,
            cy in 0.0f64..10.0,
            r in 0.0f64..5.0,
            cell in 0.1f64..3.0,
        ) {
            let pts = sample_points(n, seed);
            let idx = GridIndex::build(&pts, cell);
            let mut fast = Vec::new();
            idx.in_disk(Point::new(cx, cy), r, &mut fast);
            fast.sort_unstable();
            let slow = bruteforce::in_disk(&pts, Point::new(cx, cy), r);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_knn_equals_bruteforce(
            seed in 0u64..1000,
            n in 1usize..150,
            k in 1usize..20,
            cell in 0.1f64..3.0,
        ) {
            let pts = sample_points(n, seed);
            let mut rng = rng_from_seed(seed ^ 0xABCD);
            let q_id = rng.random_range(0..n) as u32;
            let q = pts.get(q_id);
            let idx = GridIndex::build(&pts, cell);
            let fast: Vec<u32> = idx.knn(q, k, Some(q_id)).iter().map(|&(i, _)| i).collect();
            let slow: Vec<u32> = bruteforce::knn(&pts, q, k, Some(q_id)).iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(fast, slow);
        }
    }
}
