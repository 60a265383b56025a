//! Breadth-first search: hop distances and shortest hop paths.
//!
//! Shortest hop paths all run through one reusable [`BfsScratch`]: a
//! parent array that doubles as the visited set, undone entry by entry
//! (no O(n) clear per query), plus a FIFO queue. The free function
//! [`path`] is a one-shot wrapper over it.
//!
//! ## Guided route search
//!
//! On a geometric graph whose every edge is at most `ℓ` long, the hop
//! distance `hops(v, t)` between two nodes is at least `|v − t| / ℓ`, so a
//! shortest `s → t` route cannot stray far from the segment `st`.
//! [`BfsScratch::guided_path`] exploits this and returns **exactly the path
//! [`BfsScratch::path`] returns** while searching only that lens:
//!
//! 1. *Upper bound `U`.* A greedy geographic walk from `s`: the next hop is
//!    `t` itself when adjacent, else the neighbour strictly closest to `t`
//!    (ties by id). On a stall it runs a plain BFS from the stall node to
//!    the first node that is `t` or strictly closer to `t`. Every step
//!    strictly reduces the distance to `t`, so the walk ends; its hop count
//!    is a real path length, hence `U ≥ D`, the true hop distance. An
//!    escape BFS that exhausts its component proves `t` unreachable, and
//!    the search returns `None` without a second pass.
//! 2. *Pruned BFS.* The same FIFO over ascending adjacency as the plain
//!    search, with the same early exit on discovering `t`. A node `v`
//!    discovered at level `k` is marked visited but not enqueued when
//!    `|v − t|² > ((U − k)·ℓ)²·(1 + 1e-9)` (the slack absorbs rounding).
//!
//! *Why the path is identical.* Call `v` *viable* when
//! `|v − t| ≤ (U − level(v))·ℓ`, with `level` the true BFS level from `s`.
//! Every node on a shortest `s → t` path is viable, since
//! `|v − t| ≤ hops(v, t)·ℓ = (D − level(v))·ℓ ≤ (U − level(v))·ℓ`; in
//! particular `s` and `t` are. The viable set is closed under BFS
//! predecessors: a neighbour `p` of a viable `v` one level up has
//! `|p − t| ≤ |v − t| + ℓ ≤ (U − level(p))·ℓ`. Hence every viable node keeps
//! a shortest `s`-path through viable nodes, is discovered at its true
//! level and passes the test, while a non-viable node fails the test at its
//! true level and at every later one (the bound only shrinks with `k`). The
//! pruned search is therefore exactly BFS on the subgraph induced by the
//! viable nodes. There, each viable node sees the same set of one-level-up
//! neighbours as in the full graph, so by induction over levels the viable
//! nodes are dequeued in the same relative order, take the same
//! first-dequeued parent, and `t` walks back along the same path.
//!
//! *Where `ℓ` comes from.* The caller passes the topology's edge-length
//! bound; without one ([`None`]) the search is the plain BFS.
//!
//! | topology | `ℓ` |
//! |---|---|
//! | UDG(r) | `r` |
//! | Gabriel, RNG, Yao over UDG(r) | `r` (subgraphs of UDG(r)) |
//! | k-NN, HNG | none: edge lengths are unbounded |

use crate::view::GraphView;
use crate::UNREACHABLE;
use std::collections::VecDeque;
use wsn_geom::Point;

/// Relative slack on the squared pruning bound, far above the rounding of
/// coordinate differences and far below any real geometric margin.
const PRUNE_SLACK: f64 = 1e-9;

/// Hop distance from `src` to every node (`UNREACHABLE` when disconnected).
pub fn distances<G: GraphView + ?Sized>(g: &G, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Hop distance from `src` to `dst` only (early exit), or `None`.
pub fn distance_to<G: GraphView + ?Sized>(g: &G, src: u32, dst: u32) -> Option<u32> {
    if src == dst {
        return Some(0);
    }
    let found = BfsScratch::new(g.n()).search(g, src, |v| v == dst, |_, _| false);
    found.map(|(_, hops)| hops)
}

/// Shortest hop path `src → dst` inclusive, or `None` when disconnected.
/// One-shot wrapper over [`BfsScratch::path`].
pub fn path<G: GraphView + ?Sized>(g: &G, src: u32, dst: u32) -> Option<Vec<u32>> {
    BfsScratch::new(g.n()).path(g, src, dst)
}

/// Reusable shortest-hop-path workspace. A search undoes only the entries
/// the previous one touched, so a query costs O(visited) instead of O(n).
/// Results never depend on which scratch instance served a query; keep one
/// per thread.
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    /// BFS parent per node; `UNREACHABLE` marks nodes the current search
    /// has not reached. Doubling as the visited set keeps the array every
    /// adjacency scan reads at 4 bytes a node.
    parent: Vec<u32>,
    /// The FIFO: every node the current search enqueued.
    queue: Vec<u32>,
    /// Nodes the current search reached but never enqueued (pruned nodes
    /// and the target) — with `queue`, exactly the `parent` entries to undo.
    parked: Vec<u32>,
    visited: usize,
}

impl BfsScratch {
    /// A scratch sized for graphs of `n` nodes (it grows on demand).
    pub fn new(n: usize) -> Self {
        BfsScratch {
            parent: vec![UNREACHABLE; n],
            ..BfsScratch::default()
        }
    }

    /// Nodes reached by the last query, escape searches included — the
    /// locality witness of the guided search.
    pub fn visited(&self) -> usize {
        self.visited
    }

    /// Shortest hop path `src → dst` inclusive, or `None` when
    /// disconnected: FIFO over ascending adjacency with early exit.
    pub fn path<G: GraphView + ?Sized>(&mut self, g: &G, src: u32, dst: u32) -> Option<Vec<u32>> {
        self.visited = 0;
        if src == dst {
            return Some(vec![src]);
        }
        self.search(g, src, |v| v == dst, |_, _| false)?;
        Some(self.walk_back(src, dst))
    }

    /// The same path as [`BfsScratch::path`], searched only inside the
    /// lens that `max_edge` (every edge's length bound, `ℓ`) and the node
    /// positions `pos` allow — see the module docs for the identity
    /// argument. `None` for `max_edge` runs the plain search.
    pub fn guided_path<G, P>(
        &mut self,
        g: &G,
        src: u32,
        dst: u32,
        max_edge: Option<f64>,
        pos: P,
    ) -> Option<Vec<u32>>
    where
        G: GraphView + ?Sized,
        P: Fn(u32) -> Point,
    {
        let ell = match max_edge {
            Some(l) if l > 0.0 && l.is_finite() => l,
            _ => return self.path(g, src, dst),
        };
        self.visited = 0;
        if src == dst {
            return Some(vec![src]);
        }
        let bound = self.hop_bound(g, src, dst, &pos)?;
        let target = pos(dst);
        let ell2 = ell * ell * (1.0 + PRUNE_SLACK);
        let prune = |v: u32, k: u32| {
            k > bound || {
                let left = (bound - k) as f64;
                pos(v).dist_sq(target) > left * left * ell2
            }
        };
        match self.search(g, src, |v| v == dst, prune) {
            Some(_) => Some(self.walk_back(src, dst)),
            None => {
                // Unreachable by the identity argument; an `ℓ` that does not
                // bound the edges would land here.
                debug_assert!(false, "pruned search lost a reachable target");
                self.path(g, src, dst)
            }
        }
    }

    /// Hop count of a greedy geographic walk `src → dst` (with BFS escapes
    /// from local minima), or `None` when `dst` is unreachable.
    fn hop_bound<G, P>(&mut self, g: &G, src: u32, dst: u32, pos: &P) -> Option<u32>
    where
        G: GraphView + ?Sized,
        P: Fn(u32) -> Point,
    {
        let target = pos(dst);
        let (mut cur, mut d_cur, mut hops) = (src, pos(src).dist_sq(target), 0u32);
        while cur != dst {
            let mut next: Option<(f64, u32)> = None;
            for &v in g.neighbors(cur) {
                if v == dst {
                    next = Some((0.0, dst));
                    break;
                }
                let d = pos(v).dist_sq(target);
                if d < d_cur && next.is_none_or(|best| d < best.0) {
                    next = Some((d, v));
                }
            }
            let (d, v) = match next {
                Some(step) => {
                    hops += 1;
                    step
                }
                None => {
                    let (v, k) = self.search(
                        g,
                        cur,
                        |v| v == dst || pos(v).dist_sq(target) < d_cur,
                        |_, _| false,
                    )?;
                    hops += k;
                    (pos(v).dist_sq(target), v)
                }
            };
            cur = v;
            d_cur = d;
        }
        Some(hops)
    }

    /// FIFO BFS from `src` over ascending adjacency until a reached node
    /// satisfies `is_target`; returns it with its level. `prune(v, k)`
    /// marks `v`, reached at level `k`, as visited without enqueuing it.
    fn search<G, T, R>(&mut self, g: &G, src: u32, is_target: T, prune: R) -> Option<(u32, u32)>
    where
        G: GraphView + ?Sized,
        T: Fn(u32) -> bool,
        R: Fn(u32, u32) -> bool,
    {
        // Locals, so the hot loop keeps them in registers.
        let parent = &mut self.parent;
        let (mut queue, mut parked) = (
            std::mem::take(&mut self.queue),
            std::mem::take(&mut self.parked),
        );
        for &u in queue.iter().chain(&parked) {
            parent[u as usize] = UNREACHABLE;
        }
        queue.clear();
        parked.clear();
        if parent.len() < g.n() {
            parent.resize(g.n(), UNREACHABLE);
        }
        parent[src as usize] = src;
        queue.push(src);
        let mut found = None;
        let (mut head, mut level_end, mut level) = (0, 1, 0u32);
        'bfs: while head < queue.len() {
            if head == level_end {
                level += 1;
                level_end = queue.len();
            }
            let u = queue[head];
            head += 1;
            for &v in g.neighbors(u) {
                if parent[v as usize] == UNREACHABLE {
                    parent[v as usize] = u;
                    if is_target(v) {
                        parked.push(v);
                        found = Some((v, level + 1));
                        break 'bfs;
                    }
                    if prune(v, level + 1) {
                        parked.push(v);
                    } else {
                        queue.push(v);
                    }
                }
            }
        }
        self.visited += queue.len() + parked.len();
        (self.queue, self.parked) = (queue, parked);
        found
    }

    /// The parent chain of the last search, `src → dst` inclusive.
    fn walk_back(&self, src: u32, dst: u32) -> Vec<u32> {
        let mut p = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = self.parent[cur as usize];
            p.push(cur);
        }
        p.reverse();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;
    use crate::csr::Csr;

    fn cycle(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 0..n as u32 {
            el.add(i, ((i + 1) as usize % n) as u32);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn distances_on_cycle() {
        let g = cycle(6);
        let d = distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn unreachable_nodes() {
        let mut el = EdgeList::new(4);
        el.add(0, 1);
        let g = Csr::from_edge_list(el);
        let d = distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(distance_to(&g, 0, 3), None);
        assert_eq!(path(&g, 0, 3), None);
    }

    #[test]
    fn distance_to_matches_full_bfs() {
        let g = cycle(9);
        let d = distances(&g, 2);
        for v in 0..9u32 {
            assert_eq!(distance_to(&g, 2, v), Some(d[v as usize]));
        }
    }

    #[test]
    fn path_is_shortest_and_valid() {
        let g = cycle(8);
        let p = path(&g, 0, 3).unwrap();
        assert_eq!(p.len() as u32 - 1, distance_to(&g, 0, 3).unwrap());
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 3);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "invalid step {w:?}");
        }
    }

    #[test]
    fn trivial_source_equals_target() {
        let g = cycle(4);
        assert_eq!(distance_to(&g, 1, 1), Some(0));
        assert_eq!(path(&g, 1, 1), Some(vec![1]));
    }

    /// A ring of unit-spaced points on a circle: the greedy walk heads the
    /// short way round, and the guided search agrees with the plain one
    /// for every pair — including the antipodal ties.
    #[test]
    fn guided_matches_plain_on_a_ring() {
        let n = 12u32;
        let g = cycle(n as usize);
        let radius = 1.0 / (2.0 * (std::f64::consts::PI / n as f64).sin());
        let pos = |u: u32| {
            let a = std::f64::consts::TAU * u as f64 / n as f64;
            Point::new(radius * a.cos(), radius * a.sin())
        };
        let mut plain = BfsScratch::new(0);
        let mut guided = BfsScratch::new(0);
        for s in 0..n {
            for t in 0..n {
                let want = plain.path(&g, s, t);
                assert_eq!(guided.guided_path(&g, s, t, Some(1.0 + 1e-12), pos), want);
            }
        }
    }

    /// One scratch across graphs of different sizes and interleaved
    /// queries: nothing a previous search reached may read as visited.
    #[test]
    fn reused_scratch_forgets_previous_searches() {
        let (small, big) = (cycle(6), cycle(10));
        let mut s = BfsScratch::default();
        for _ in 0..3 {
            assert_eq!(s.path(&small, 0, 3), path(&small, 0, 3));
            assert_eq!(s.path(&big, 2, 8), Some(vec![2, 1, 0, 9, 8]));
            assert_eq!(s.path(&small, 5, 2), path(&small, 5, 2));
        }
    }

    /// A two-node component far from the target: the escape search
    /// exhausts it and proves the target unreachable.
    #[test]
    fn guided_reports_unreachable_targets() {
        let mut el = EdgeList::new(3);
        el.add(0, 1);
        let g = Csr::from_edge_list(el);
        let pos = |u: u32| Point::new(u as f64, 0.0);
        let mut s = BfsScratch::default();
        assert_eq!(s.guided_path(&g, 0, 2, Some(1.0), pos), None);
        assert_eq!(s.visited(), 2, "the escape search covers the component");
        assert_eq!(s.guided_path(&g, 1, 1, Some(1.0), pos), Some(vec![1]));
    }
}
