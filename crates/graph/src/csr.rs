//! CSR (compressed sparse row) adjacency.

use crate::assemble::{self, split_runs, Emitted};
use crate::builder::EdgeList;

/// An undirected graph in CSR form: `targets[offsets[u]..offsets[u + 1]]`
/// are the neighbours of `u`, sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Assemble from edge runs (typically one per construction shard),
    /// pushing both endpoints of every edge through `map` when given — the
    /// Morton-ordered builders pass `to_orig` and so emit straight into
    /// deployment ids. Rows come out sorted with repeats folded; `emitted`
    /// says whether repeats are expected (see [`Emitted`]). Panics on an
    /// endpoint out of range or a self-loop.
    pub fn from_runs<R>(n: usize, runs: Vec<R>, map: Option<&[u32]>, emitted: Emitted) -> Self
    where
        R: AsRef<[(u32, u32)]> + Send,
    {
        let (targets, deg) = assemble::dense(n, runs, map, emitted);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for d in deg {
            acc += d;
            offsets.push(acc);
        }
        Csr { offsets, targets }
    }

    /// Build from an edge list; duplicates are removed.
    pub fn from_edge_list(edges: EdgeList) -> Self {
        Self::from_runs(
            edges.n(),
            split_runs(&[edges.edges()]),
            None,
            Emitted::Repeated,
        )
    }

    /// Build from unique undirected edges, in either orientation. A
    /// repeated pair is a caller bug: debug builds panic on it, release
    /// builds fold it.
    pub fn from_canonical_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_runs(n, split_runs(&[edges]), None, Emitted::Once)
    }

    /// Assemble from already-valid CSR arrays: `offsets` of length `n + 1`
    /// starting at 0, non-decreasing, ending at `targets.len()`, with each
    /// per-node slice strictly ascending. Callers (streaming relabel,
    /// chunked-CSR densification) uphold the invariants by construction;
    /// debug builds re-check them.
    pub(crate) fn from_sorted_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets.windows(2).all(|w| {
            targets[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|t| t[0] < t[1])
        }));
        Csr { offsets, targets }
    }

    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let s = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.targets[s..e]
    }

    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Membership test via binary search (neighbour lists are sorted).
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate canonical undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph induced by keeping only nodes where `keep[u]` is true;
    /// node ids are preserved (non-kept nodes become isolated).
    pub fn filter_nodes(&self, keep: &[bool]) -> Csr {
        assert_eq!(keep.len(), self.n());
        let mut el = EdgeList::new(self.n());
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                el.add(u, v);
            }
        }
        Csr::from_edge_list(el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.add(i - 1, i);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn path_graph_structure() {
        let g = path_graph(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut el = EdgeList::new(3);
        el.add(0, 1);
        el.add(1, 0);
        el.add(0, 1);
        el.add(1, 2);
        let g = Csr::from_edge_list(el);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = path_graph(5);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn filter_nodes_removes_incident_edges() {
        let g = path_graph(5);
        let keep = vec![true, true, false, true, true];
        let f = g.filter_nodes(&keep);
        assert_eq!(f.n(), 5);
        assert_eq!(f.m(), 2); // 0-1 and 3-4 survive
        assert!(f.has_edge(0, 1));
        assert!(f.has_edge(3, 4));
        assert!(!f.has_edge(1, 2));
        assert!(f.neighbors(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loop (2, 2)")]
    fn canonical_edges_reject_self_loops() {
        Csr::from_canonical_edges(4, &[(0, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop (3, 0)")]
    fn a_map_that_merges_endpoints_is_a_self_loop() {
        Csr::from_runs(
            4,
            vec![vec![(3u32, 0u32)]],
            Some(&[1, 2, 3, 1]),
            Emitted::Once,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn canonical_edges_reject_out_of_range_ids() {
        Csr::from_canonical_edges(3, &[(0, 3)]);
    }

    /// A repeated pair in an emit-once build is a builder bug, caught in
    /// debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "emitted 2 times")]
    fn canonical_edges_reject_repeated_pairs() {
        Csr::from_canonical_edges(3, &[(0, 1), (1, 2), (0, 1)]);
    }

    #[test]
    fn repeated_emissions_fold_into_one_edge() {
        let runs = vec![
            vec![(0u32, 1u32), (1, 2)],
            vec![],
            vec![(1, 0), (2, 1), (0, 1)],
        ];
        let g = Csr::from_runs(3, runs, None, Emitted::Repeated);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn neighbor_lists_sorted_regardless_of_insert_order() {
        let mut el = EdgeList::new(5);
        el.add(4, 0);
        el.add(2, 0);
        el.add(0, 3);
        el.add(1, 0);
        let g = Csr::from_edge_list(el);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }
}
