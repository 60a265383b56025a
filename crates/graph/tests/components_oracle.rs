//! `connected_components` against a plain BFS reachability oracle, on both
//! CSR representations: the partition, `count`, canonical labels (the
//! smallest id of each component), and the giant with its tie rule.
//!
//! The graph families target the two-phase union-find: sparse graphs that
//! phase 1 leaves in many fragments, dense ones, all-isolated ones, tiny
//! ones, graphs whose giant only forms in phase 2, and equal-size largest
//! components whose tie must go to the smallest id.

use proptest::prelude::*;
use wsn_graph::components::{connected_components, Components};
use wsn_graph::{ChunkedCsr, Csr, EdgeList, GraphView};

/// splitmix64: the test's own deterministic stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// A giant that only forms in phase 2, beside a path that is the largest
/// set after phase 1. Hub `i` joins its two private leaves (ids `2i`,
/// `2i + 1`, below every other id) in phase 1; the hub chain's edges are
/// beyond both endpoints' first two neighbours. The path's nodes come
/// next in id order and merge whole in phase 1.
fn late_giant(hubs: usize, path: usize) -> (usize, Vec<(u32, u32)>) {
    let path_base = 2 * hubs as u32;
    let hub_base = path_base + path as u32;
    let mut edges = Vec::new();
    for i in 0..hubs as u32 {
        edges.push((hub_base + i, 2 * i));
        edges.push((hub_base + i, 2 * i + 1));
        if i > 0 {
            edges.push((hub_base + i - 1, hub_base + i));
        }
    }
    for i in 1..path as u32 {
        edges.push((path_base + i - 1, path_base + i));
    }
    (hub_base as usize + hubs, edges)
}

/// Two disjoint paths of `len` nodes over shuffled ids: equal-size largest
/// components, so the giant is whichever holds id 0.
fn twin_paths(len: usize, seed: u64) -> (usize, Vec<(u32, u32)>) {
    let p = permutation(2 * len, seed);
    let mut edges = Vec::new();
    for half in [0, len] {
        for i in 1..len {
            edges.push((p[half + i - 1], p[half + i]));
        }
    }
    (2 * len, edges)
}

/// A graph of family `family` (0 sparse, 1 dense, 2 isolated, 3 late
/// giant, 4 twin paths) on about `n` nodes, relabelled by a seeded
/// permutation where the family allows it.
fn family_graph(family: u8, n: usize, seed: u64) -> (usize, Vec<(u32, u32)>) {
    let pair = |k: u64| {
        let h = mix(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407));
        ((h % n as u64) as u32, ((h >> 32) % n as u64) as u32)
    };
    match family {
        0 if n > 0 => (n, (0..n as u64 / 2).map(pair).collect()),
        1 if n > 0 => (n, (0..(n * n / 3) as u64).map(pair).collect()),
        3 => {
            let (m, edges) = late_giant(n / 6 + 2, n / 6 + 3);
            let p = permutation(m, seed);
            match seed % 2 {
                // As built: phase 2 must form the giant.
                0 => (m, edges),
                _ => (
                    m,
                    edges
                        .iter()
                        .map(|&(u, v)| (p[u as usize], p[v as usize]))
                        .collect(),
                ),
            }
        }
        4 => twin_paths(n / 2 + 1, seed),
        _ => (n, Vec::new()),
    }
}

fn csr(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut el = EdgeList::new(n);
    for &(u, v) in edges {
        if u != v {
            el.add(u, v);
        }
    }
    Csr::from_edge_list(el)
}

fn chunked(g: &Csr, seed: u64) -> ChunkedCsr {
    let chunk_of: Vec<u32> = (0..g.n() as u64)
        .map(|u| (mix(seed ^ u) % 3) as u32)
        .collect();
    ChunkedCsr::build(3, &chunk_of, [g.edges().collect::<Vec<_>>()])
}

/// The oracle: BFS from every unvisited node in ascending order, so each
/// component's first node is its smallest id.
fn bfs_labels<G: GraphView>(g: &G) -> Vec<u32> {
    let mut label = vec![u32::MAX; g.n()];
    for s in 0..g.n() as u32 {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = s;
        let mut queue = vec![s];
        while let Some(u) = queue.pop() {
            for &v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = s;
                    queue.push(v);
                }
            }
        }
    }
    label
}

/// Every claim of `c` on `g` against the oracle.
fn check<G: GraphView>(g: &G, c: &Components) -> Result<(), TestCaseError> {
    let want = bfs_labels(g);
    prop_assert_eq!(&c.label, &want);
    let roots = (0..g.n()).filter(|&u| want[u] == u as u32).count();
    prop_assert_eq!(c.count, roots);
    let mut sizes = vec![0usize; g.n()];
    for &l in &want {
        sizes[l as usize] += 1;
    }
    // Largest size, then the smallest label of that size.
    let giant = (0..g.n())
        .filter(|&l| sizes[l] > 0)
        .min_by_key(|&l| (std::cmp::Reverse(sizes[l]), l))
        .map(|l| (l as u32, sizes[l]));
    prop_assert_eq!(c.giant(), giant);
    let members: Vec<u32> = giant.map_or(Vec::new(), |(l, _)| {
        (0..g.n() as u32)
            .filter(|&u| want[u as usize] == l)
            .collect()
    });
    let mask: Vec<bool> = (0..g.n() as u32).map(|u| members.contains(&u)).collect();
    prop_assert_eq!(c.largest(), members);
    prop_assert_eq!(c.largest_mask(), mask);
    Ok(())
}

fn check_both(n: usize, edges: &[(u32, u32)], seed: u64) -> Result<(), TestCaseError> {
    let g = csr(n, edges);
    check(&g, &connected_components(&g))?;
    let h = chunked(&g, seed);
    check(&h, &connected_components(&h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_components_match_bfs_reachability(
        family in 0u8..5,
        n in 0usize..90,
        seed in 0u64..1_000_000_000,
    ) {
        let (n, edges) = family_graph(family, n, seed);
        check_both(n, &edges, seed)?;
    }
}

#[test]
fn tiny_graphs() {
    for (n, edges) in [
        (0, vec![]),
        (1, vec![]),
        (2, vec![]),
        (2, vec![(0u32, 1u32)]),
    ] {
        check_both(n, &edges, 7).unwrap();
    }
}

#[test]
fn giant_formed_in_phase_two_wins_over_the_phase_one_path() {
    let (n, edges) = late_giant(6, 10);
    let g = csr(n, &edges);
    let c = connected_components(&g);
    // 6 hubs × 3 = 18 nodes beat the 10-node path; label = leaf 0.
    assert_eq!(c.giant(), Some((0, 18)));
    check_both(n, &edges, 3).unwrap();
}

#[test]
fn equal_largest_components_tie_to_the_smallest_id() {
    // {0, 5, 6} and {1, 2, 3}: both size 3; 0 < 1 wins.
    let edges = [(5, 6), (0, 6), (1, 2), (2, 3)];
    let c = connected_components(&csr(7, &edges));
    assert_eq!(c.giant(), Some((0, 3)));
    assert_eq!(c.largest(), vec![0, 5, 6]);
    for seed in 0..20 {
        let (n, edges) = twin_paths(5, seed);
        check_both(n, &edges, seed).unwrap();
    }
}
