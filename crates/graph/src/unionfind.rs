//! Disjoint-set forest (union by size, path halving).
//!
//! Used for percolation cluster labelling and crossing tests, hot paths in
//! the threshold experiments, hence the flat `u32` layout. Graph components
//! have their own giant-skipping pass in [`crate::components`].

/// Disjoint sets over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set, with path halving.
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    #[inline]
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    #[inline]
    pub fn set_size(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }

    /// Number of disjoint sets.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Root and size of the largest set (`None` when empty).
    pub fn largest_set(&mut self) -> Option<(u32, usize)> {
        (0..self.parent.len() as u32)
            .map(|x| {
                let r = self.find(x);
                (r, self.size[r as usize] as usize)
            })
            .max_by_key(|&(r, s)| (s, std::cmp::Reverse(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_fully_disjoint() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.set_size(i), 1);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0)); // already merged
        assert_eq!(uf.component_count(), 4);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 3));
        assert_eq!(uf.set_size(3), 4);
        assert_eq!(uf.component_count(), 3);
    }

    #[test]
    fn largest_set_tracks_chain() {
        let mut uf = UnionFind::new(10);
        for i in 0..4 {
            uf.union(i, i + 1); // {0..4} size 5
        }
        uf.union(7, 8); // size 2
        let (root, size) = uf.largest_set().unwrap();
        assert_eq!(size, 5);
        assert!(uf.connected(root, 0));
    }

    #[test]
    fn empty_unionfind() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.largest_set(), None);
        assert_eq!(uf.component_count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Union-find agrees with a naive label-propagation reference.
        #[test]
        fn prop_matches_naive_labels(
            n in 1usize..40,
            ops in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
        ) {
            let mut uf = UnionFind::new(n);
            let mut labels: Vec<usize> = (0..n).collect();
            for &(a, b) in &ops {
                let (a, b) = (a % n, b % n);
                if a == b { continue; }
                uf.union(a as u32, b as u32);
                let (la, lb) = (labels[a], labels[b]);
                if la != lb {
                    for l in labels.iter_mut() {
                        if *l == lb { *l = la; }
                    }
                }
            }
            // Same partition.
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(
                        uf.connected(a as u32, b as u32),
                        labels[a] == labels[b],
                        "pair ({}, {})", a, b
                    );
                }
            }
            // Same component count and sizes.
            let mut uniq: Vec<usize> = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uf.component_count(), uniq.len());
            for a in 0..n {
                let naive = labels.iter().filter(|&&l| l == labels[a]).count();
                prop_assert_eq!(uf.set_size(a as u32), naive);
            }
        }
    }
}
