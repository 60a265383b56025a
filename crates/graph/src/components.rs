//! Connected components.
//!
//! [`connected_components`] is a serial two-phase sampled union-find (the
//! Afforest scheme of Sutton, Ben-Nun and Barak, IPDPS 2018):
//!
//! 1. every node is joined with its first two neighbours, which on a
//!    geometric graph already merges most of the giant component;
//! 2. the largest set after phase 1 is taken as the provisional giant, and
//!    only nodes whose set is *not* that giant join their remaining
//!    neighbours.
//!
//! Phase 2 is exact because adjacency is symmetric: for any edge `{u, v}`
//! outside both endpoints' first two neighbours, either one endpoint was
//! outside the giant when it was visited, and it joined the other, or both
//! endpoints were already in the giant's set, and so already joined. Sets
//! only grow, so an endpoint seen in the giant stays in it.
//!
//! Sets are linked larger root under smaller root, so `parent[u] <= u`
//! always holds and every root is its set's smallest node. Labels are
//! therefore **canonical**: the smallest node of the component, however
//! the unions were ordered. On a graph whose nodes are ranks of a
//! reordered layout, [`Components::by_id`] re-keys them by deployment id.

use crate::view::GraphView;

/// Component labelling of every node. `label[u]` is the smallest node id
/// in `u`'s component; `count` is the number of components (isolated
/// nodes count).
#[derive(Clone, Debug)]
pub struct Components {
    pub label: Vec<u32>,
    pub count: usize,
}

impl Components {
    /// Label and size of the largest component, ties broken toward the
    /// smallest label (that is, the component holding the smallest id).
    /// `None` for the empty graph.
    pub fn giant(&self) -> Option<(u32, usize)> {
        let mut sizes = vec![0u32; self.label.len()];
        for &l in &self.label {
            sizes[l as usize] += 1;
        }
        sizes
            .iter()
            .enumerate()
            .max_by_key(|&(l, &s)| (s, std::cmp::Reverse(l)))
            .map(|(l, &s)| (l as u32, s as usize))
    }

    /// Ids of nodes in the largest component ([`Components::giant`]'s tie
    /// rule), ascending. Empty for the empty graph.
    pub fn largest(&self) -> Vec<u32> {
        let Some((giant, size)) = self.giant() else {
            return Vec::new();
        };
        let mut ids = Vec::with_capacity(size);
        ids.extend((0..self.label.len() as u32).filter(|&u| self.label[u as usize] == giant));
        ids
    }

    /// Membership mask of the largest component.
    pub fn largest_mask(&self) -> Vec<bool> {
        let giant = self.giant().map_or(u32::MAX, |(l, _)| l);
        self.label.iter().map(|&l| l == giant).collect()
    }

    #[inline]
    pub fn same(&self, u: u32, v: u32) -> bool {
        self.label[u as usize] == self.label[v as usize]
    }

    /// These components of `g`, indexed and labelled by [`GraphView::id`]:
    /// `label[id]` is the smallest id in the component of the node with
    /// that id. The identity for a graph whose nodes are their own ids; a
    /// chunked CSR in a reordered layout gets the labels its deployment-id
    /// graph would.
    pub fn by_id<G: GraphView + ?Sized>(&self, g: &G) -> Components {
        let n = self.label.len();
        let mut least = vec![u32::MAX; n];
        for (u, &root) in self.label.iter().enumerate() {
            let l = &mut least[root as usize];
            *l = (*l).min(g.id(u as u32));
        }
        let mut label = vec![0u32; n];
        for (u, &root) in self.label.iter().enumerate() {
            label[g.id(u as u32) as usize] = least[root as usize];
        }
        Components {
            label,
            count: self.count,
        }
    }
}

/// Root of `x`'s set, with path halving (keeps `parent[x] <= x`).
#[inline]
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Join the sets of `a` and `b`, the larger root under the smaller.
#[inline]
fn link(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
}

/// Point every node straight at its root. One ascending pass suffices:
/// `parent[u] < u` for a non-root, and that parent is already flat.
fn flatten(parent: &mut [u32]) {
    for u in 0..parent.len() {
        parent[u] = parent[parent[u] as usize];
    }
}

/// Canonically labelled components (see the module docs), in
/// near-linear time, with phase 2 skipping the giant's edges.
pub fn connected_components<G: GraphView + ?Sized>(g: &G) -> Components {
    /// Neighbours each node joins in phase 1.
    const SAMPLED: usize = 2;
    let n = g.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for u in 0..n as u32 {
        for &v in g.neighbors(u).iter().take(SAMPLED) {
            link(&mut parent, u, v);
        }
    }
    // Provisional giant: the most common root after phase 1.
    flatten(&mut parent);
    let mut sizes = vec![0u32; n];
    for &r in &parent {
        sizes[r as usize] += 1;
    }
    let giant = (0..n as u32).max_by_key(|&r| sizes[r as usize]);
    if let Some(giant) = giant {
        for u in 0..n as u32 {
            // Membership first: it reads `parent` only, while a chunked
            // graph keeps each row's length in the row itself.
            if find(&mut parent, u) == find(&mut parent, giant) {
                continue;
            }
            for &v in g.neighbors(u).iter().skip(SAMPLED) {
                link(&mut parent, u, v);
            }
        }
    }
    flatten(&mut parent);
    let count = (0..n).filter(|&u| parent[u] == u as u32).count();
    Components {
        label: parent,
        count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::builder::EdgeList;
    use crate::csr::Csr;

    fn two_cliques() -> Csr {
        // {0,1,2} triangle, {3,4} edge, 5 isolated.
        let mut el = EdgeList::new(6);
        el.add(0, 1);
        el.add(1, 2);
        el.add(0, 2);
        el.add(3, 4);
        Csr::from_edge_list(el)
    }

    #[test]
    fn counts_components_including_isolated() {
        let c = connected_components(&two_cliques());
        assert_eq!(c.count, 3);
        assert!(c.same(0, 2));
        assert!(c.same(3, 4));
        assert!(!c.same(0, 3));
        assert!(!c.same(5, 0));
    }

    #[test]
    fn largest_component_is_the_triangle() {
        let c = connected_components(&two_cliques());
        assert_eq!(c.largest(), vec![0, 1, 2]);
        assert_eq!(c.giant(), Some((0, 3)));
        let mask = c.largest_mask();
        assert_eq!(mask, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn labels_agree_with_bfs_reachability() {
        let g = two_cliques();
        let c = connected_components(&g);
        for u in 0..g.n() as u32 {
            let d = bfs::distances(&g, u);
            for v in 0..g.n() as u32 {
                assert_eq!(c.same(u, v), d[v as usize] != crate::UNREACHABLE);
            }
        }
    }

    #[test]
    fn by_id_labels_match_the_deployment_id_graph() {
        // {0,1,2} triangle, {3,4} edge, 5 isolated, stored with node r
        // carrying id to_orig[r].
        let to_orig = vec![4u32, 2, 5, 0, 3, 1];
        let mut to_rank = [0u32; 6];
        for (r, &id) in to_orig.iter().enumerate() {
            to_rank[id as usize] = r as u32;
        }
        let g = two_cliques();
        let runs: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (to_rank[u as usize], to_rank[v as usize]))
            .collect();
        let ranked = crate::ChunkedCsr::build_ranked(2, &[0, 1, 0, 1, 0, 1], to_orig, [runs]);
        let want = connected_components(&g);
        let got = connected_components(&ranked).by_id(&ranked);
        assert_eq!(got.label, want.label);
        assert_eq!(got.count, want.count);
        assert_eq!(got.giant(), want.giant());
        assert_eq!(want.by_id(&g).label, want.label, "identity layout");
    }

    #[test]
    fn empty_graph_edge_cases() {
        let c = connected_components(&Csr::empty(0));
        assert_eq!(c.count, 0);
        assert!(c.largest().is_empty());
        assert_eq!(c.giant(), None);
        let c1 = connected_components(&Csr::empty(4));
        assert_eq!(c1.count, 4);
        assert_eq!(c1.largest(), vec![0]); // the smallest singleton
    }
}
