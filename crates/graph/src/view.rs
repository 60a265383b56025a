//! Read-only graph views: one trait over every CSR representation.
//!
//! The incremental churn engine maintains a [`ChunkedCsr`] (per-shard
//! chunks, each owning its rows' buffer, spliced on the worker pool),
//! while cold builders and the rebuild baseline produce a dense [`Csr`].
//! Every read-side consumer — BFS routing, connected components,
//! fingerprints, the metric suites — only needs `n`, `degree`, sorted
//! `neighbors` and each node's `id`, so they are written against
//! [`GraphView`] and accept either representation unchanged. A dense CSR's
//! nodes are their own ids; a chunked CSR's nodes are ranks of a spatially
//! local layout whose rows are sorted by deployment id (see
//! [`crate::chunked`]).

use crate::chunked::ChunkedCsr;
use crate::csr::Csr;

/// Read access to an undirected graph with `u32` nodes and sorted
/// adjacency slices.
///
/// The two invariants every implementation upholds (and every generic
/// consumer may rely on): `neighbors(u)` is strictly ascending by
/// [`GraphView::id`], and edges are symmetric (`v ∈ neighbors(u)` iff
/// `u ∈ neighbors(v)`). A traversal over ascending adjacency therefore
/// visits nodes in the same order whatever the layout, and anything that
/// names nodes outside the traversal (a hash, a tie-break) names them by
/// `id`.
pub trait GraphView {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// Neighbours of `u`, ascending by [`GraphView::id`].
    fn neighbors(&self, u: u32) -> &[u32];

    /// The deployment id of node `u` — the identity unless the nodes are
    /// ranks of a reordered layout.
    #[inline]
    fn id(&self, u: u32) -> u32 {
        u
    }

    /// Degree of `u`.
    #[inline]
    fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Number of undirected edges.
    fn m(&self) -> usize {
        (0..self.n() as u32).map(|u| self.degree(u)).sum::<usize>() / 2
    }

    /// Membership test via binary search on the neighbours' ids.
    #[inline]
    fn has_edge(&self, u: u32, v: u32) -> bool {
        let key = self.id(v);
        self.neighbors(u)
            .binary_search_by_key(&key, |&w| self.id(w))
            .is_ok()
    }
}

impl GraphView for Csr {
    #[inline]
    fn n(&self) -> usize {
        Csr::n(self)
    }

    #[inline]
    fn neighbors(&self, u: u32) -> &[u32] {
        Csr::neighbors(self, u)
    }

    #[inline]
    fn m(&self) -> usize {
        Csr::m(self)
    }

    #[inline]
    fn has_edge(&self, u: u32, v: u32) -> bool {
        Csr::has_edge(self, u, v)
    }
}

impl GraphView for ChunkedCsr {
    #[inline]
    fn n(&self) -> usize {
        ChunkedCsr::n(self)
    }

    #[inline]
    fn neighbors(&self, u: u32) -> &[u32] {
        ChunkedCsr::neighbors(self, u)
    }

    #[inline]
    fn id(&self, u: u32) -> u32 {
        self.to_orig()[u as usize]
    }

    #[inline]
    fn m(&self) -> usize {
        ChunkedCsr::m(self)
    }

    #[inline]
    fn has_edge(&self, u: u32, v: u32) -> bool {
        ChunkedCsr::has_edge(self, u, v)
    }
}

/// A borrowed either-representation view, for code that must return "the
/// current graph" from storage that is dense in one mode and chunked in
/// another (the churn engine's rebuild vs incremental maintenance modes).
#[derive(Clone, Copy, Debug)]
pub enum CsrView<'a> {
    Dense(&'a Csr),
    Chunked(&'a ChunkedCsr),
}

impl GraphView for CsrView<'_> {
    #[inline]
    fn n(&self) -> usize {
        match self {
            CsrView::Dense(g) => g.n(),
            CsrView::Chunked(g) => g.n(),
        }
    }

    #[inline]
    fn neighbors(&self, u: u32) -> &[u32] {
        match self {
            CsrView::Dense(g) => g.neighbors(u),
            CsrView::Chunked(g) => g.neighbors(u),
        }
    }

    #[inline]
    fn id(&self, u: u32) -> u32 {
        match self {
            CsrView::Dense(_) => u,
            CsrView::Chunked(g) => g.id(u),
        }
    }

    #[inline]
    fn m(&self) -> usize {
        match self {
            CsrView::Dense(g) => g.m(),
            CsrView::Chunked(g) => g.m(),
        }
    }

    #[inline]
    fn has_edge(&self, u: u32, v: u32) -> bool {
        match self {
            CsrView::Dense(g) => g.has_edge(u, v),
            CsrView::Chunked(g) => g.has_edge(u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeList;

    fn path_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 1..n as u32 {
            el.add(i - 1, i);
        }
        Csr::from_edge_list(el)
    }

    fn sum_deg<G: GraphView + ?Sized>(g: &G) -> usize {
        (0..g.n() as u32).map(|u| g.degree(u)).sum()
    }

    #[test]
    fn csr_view_delegates_to_both_representations() {
        let dense = path_graph(5);
        let chunked = ChunkedCsr::build(2, &[0, 0, 1, 1, 1], &[dense.edges().collect::<Vec<_>>()]);
        for view in [CsrView::Dense(&dense), CsrView::Chunked(&chunked)] {
            assert_eq!(view.n(), 5);
            assert_eq!(view.m(), 4);
            assert_eq!(view.neighbors(1), &[0, 2]);
            assert!(view.has_edge(2, 3));
            assert!(!view.has_edge(0, 3));
            assert_eq!(sum_deg(&view), 8);
        }
    }
}
