//! Weighted shortest paths.
//!
//! Edge weights come from a caller-supplied function — the stretch and
//! power-efficiency experiments use Euclidean length `d(u, v)` and its powers
//! `d(u, v)^β` (the paper's power model, after Li–Wan–Wang), so weights are
//! never materialised.

use crate::view::GraphView;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wsn_geom::OrdF64;

/// Weighted distance from `src` to all nodes (`f64::INFINITY` when
/// unreachable). `weight(u, v)` must be ≥ 0 and symmetric.
pub fn distances<G, W>(g: &G, src: u32, weight: W) -> Vec<f64>
where
    G: GraphView + ?Sized,
    W: Fn(u32, u32) -> f64,
{
    let mut dist = vec![f64::INFINITY; g.n()];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), src)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for &v in g.neighbors(u) {
            let w = weight(u, v);
            debug_assert!(w >= 0.0, "negative edge weight");
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    dist
}

/// Weighted distance `src → dst` with early exit, or `None`.
pub fn distance_to<G, W>(g: &G, src: u32, dst: u32, weight: W) -> Option<f64>
where
    G: GraphView + ?Sized,
    W: Fn(u32, u32) -> f64,
{
    let mut dist = vec![f64::INFINITY; g.n()];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), src)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if u == dst {
            return Some(d);
        }
        if d > dist[u as usize] {
            continue;
        }
        for &v in g.neighbors(u) {
            let nd = d + weight(u, v);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    None
}

/// Weighted shortest path `src → dst` inclusive, or `None`. Equal
/// distances pop in [`GraphView::id`] order, so the path does not depend
/// on the graph's layout.
pub fn path<G, W>(g: &G, src: u32, dst: u32, weight: W) -> Option<Vec<u32>>
where
    G: GraphView + ?Sized,
    W: Fn(u32, u32) -> f64,
{
    let mut dist = vec![f64::INFINITY; g.n()];
    let mut parent = vec![u32::MAX; g.n()];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32, u32)>> = BinaryHeap::new();
    dist[src as usize] = 0.0;
    parent[src as usize] = src;
    heap.push(Reverse((OrdF64(0.0), g.id(src), src)));
    while let Some(Reverse((OrdF64(d), _, u))) = heap.pop() {
        if u == dst {
            break;
        }
        if d > dist[u as usize] {
            continue;
        }
        for &v in g.neighbors(u) {
            let nd = d + weight(u, v);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                parent[v as usize] = u;
                heap.push(Reverse((OrdF64(nd), g.id(v), v)));
            }
        }
    }
    if parent[dst as usize] == u32::MAX {
        return None;
    }
    let mut p = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        p.push(cur);
    }
    p.reverse();
    Some(p)
}

/// Widest (bottleneck) path `src → dst` inclusive, or `None`: maximises
/// the minimum `node_width` over every node of the path (src and dst
/// included). The battery-aware lifetime routing uses node residual charge
/// as the width, so traffic steers around nearly-depleted relays.
///
/// Deterministic: the max-heap order (equal widths pop in
/// [`GraphView::id`] order) and the strict-improvement rule make the
/// chosen path a pure function of the graph and the width values, whatever
/// its layout.
pub fn widest_path<G, W>(g: &G, src: u32, dst: u32, node_width: W) -> Option<Vec<u32>>
where
    G: GraphView + ?Sized,
    W: Fn(u32) -> f64,
{
    let mut best = vec![f64::NEG_INFINITY; g.n()];
    let mut parent = vec![u32::MAX; g.n()];
    let mut heap: BinaryHeap<(OrdF64, Reverse<(u32, u32)>)> = BinaryHeap::new();
    best[src as usize] = node_width(src);
    parent[src as usize] = src;
    heap.push((OrdF64(best[src as usize]), Reverse((g.id(src), src))));
    while let Some((OrdF64(b), Reverse((_, u)))) = heap.pop() {
        if u == dst {
            break;
        }
        if b < best[u as usize] {
            continue; // stale entry
        }
        for &v in g.neighbors(u) {
            let nb = b.min(node_width(v));
            if nb > best[v as usize] {
                best[v as usize] = nb;
                parent[v as usize] = u;
                heap.push((OrdF64(nb), Reverse((g.id(v), v))));
            }
        }
    }
    if parent[dst as usize] == u32::MAX {
        return None;
    }
    let mut p = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        p.push(cur);
    }
    p.reverse();
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;
    use crate::csr::Csr;
    use crate::{bfs, UNREACHABLE};

    /// Weighted grid-ish test graph:
    ///
    /// 0 --1.0-- 1 --1.0-- 2
    ///  \                 /
    ///   ----- 2.5 ------
    fn triangle() -> Csr {
        let mut el = EdgeList::new(3);
        el.add(0, 1);
        el.add(1, 2);
        el.add(0, 2);
        Csr::from_edge_list(el)
    }

    fn tri_weight(u: u32, v: u32) -> f64 {
        match (u.min(v), u.max(v)) {
            (0, 1) | (1, 2) => 1.0,
            (0, 2) => 2.5,
            _ => unreachable!(),
        }
    }

    #[test]
    fn prefers_lighter_two_hop_route() {
        let g = triangle();
        let d = distances(&g, 0, tri_weight);
        assert_eq!(d[2], 2.0);
        assert_eq!(distance_to(&g, 0, 2, tri_weight), Some(2.0));
        assert_eq!(path(&g, 0, 2, tri_weight), Some(vec![0, 1, 2]));
    }

    #[test]
    fn unit_weights_reduce_to_bfs() {
        // Random-ish sparse graph.
        let mut el = EdgeList::new(12);
        for i in 0..11u32 {
            el.add(i, i + 1);
        }
        el.add(0, 6);
        el.add(3, 9);
        let g = Csr::from_edge_list(el);
        let dw = distances(&g, 0, |_, _| 1.0);
        let db = bfs::distances(&g, 0);
        for v in 0..12 {
            if db[v] == UNREACHABLE {
                assert!(dw[v].is_infinite());
            } else {
                assert_eq!(dw[v] as u32, db[v]);
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut el = EdgeList::new(4);
        el.add(0, 1);
        let g = Csr::from_edge_list(el);
        assert_eq!(distance_to(&g, 0, 3, |_, _| 1.0), None);
        assert_eq!(path(&g, 0, 3, |_, _| 1.0), None);
        let d = distances(&g, 0, |_, _| 1.0);
        assert!(d[3].is_infinite());
    }

    #[test]
    fn widest_path_avoids_the_narrow_relay() {
        // 0—1—3 and 0—2—3: relay 1 is nearly depleted, relay 2 is full.
        let mut el = EdgeList::new(4);
        el.add(0, 1);
        el.add(1, 3);
        el.add(0, 2);
        el.add(2, 3);
        let g = Csr::from_edge_list(el);
        let width = |u: u32| [100.0, 1.0, 80.0, 100.0][u as usize];
        assert_eq!(widest_path(&g, 0, 3, width), Some(vec![0, 2, 3]));
        // With both relays equal, the tie breaks to the smaller id.
        let flat = |_: u32| 5.0;
        assert_eq!(widest_path(&g, 0, 3, flat), Some(vec![0, 1, 3]));
        // Unreachable is None.
        let mut el2 = EdgeList::new(3);
        el2.add(0, 1);
        let g2 = Csr::from_edge_list(el2);
        assert_eq!(widest_path(&g2, 0, 2, flat), None);
    }

    #[test]
    fn path_weights_sum_to_distance() {
        let g = triangle();
        let p = path(&g, 0, 2, tri_weight).unwrap();
        let total: f64 = p.windows(2).map(|w| tri_weight(w[0], w[1])).sum();
        assert_eq!(Some(total), distance_to(&g, 0, 2, tri_weight));
    }
}
