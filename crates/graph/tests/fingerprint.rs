//! `fingerprint` against its contract: it separates graphs and ignores
//! layout.
//!
//! One edge toggled, or one isolated node appended, must change the
//! fingerprint, and the dense CSR, chunked CSRs at several chunkings and
//! `RAYON_NUM_THREADS` ∈ {1, 4} must all give the same value. Half the
//! cases have over 10 000 nodes, so the sum fans out over several node
//! blocks. (This binary holds one test, so nothing races on the variable.)

use proptest::prelude::*;
use wsn_graph::{fingerprint, ChunkedCsr, Csr, EdgeList};

fn dense(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut el = EdgeList::new(n);
    for &(u, v) in edges {
        el.add(u, v);
    }
    Csr::from_edge_list(el)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_fingerprint_tracks_edges_and_ignores_layout(
        small in 2usize..60,
        wide in 0usize..2,
        raw in proptest::collection::vec((0u32..20_000, 0u32..20_000), 0..120),
        toggle in (0u32..20_000, 0u32..20_000),
    ) {
        let n = small + wide * 10_000;
        let canon = |(a, b): (u32, u32)| {
            let (a, b) = (a % n as u32, b % n as u32);
            (a.min(b), a.max(b))
        };
        let mut edges: Vec<(u32, u32)> =
            raw.iter().map(|&e| canon(e)).filter(|&(a, b)| a != b).collect();
        edges.sort_unstable();
        edges.dedup();
        let g = dense(n, &edges);
        let fp = fingerprint(&g);
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            prop_assert_eq!(fingerprint(&g), fp, "dense, threads = {}", threads);
            for chunks in [1u32, 3, 7] {
                let chunk_of: Vec<u32> = (0..n as u32).map(|u| u % chunks).collect();
                let c = ChunkedCsr::build(chunks as usize, &chunk_of, [&edges]);
                prop_assert_eq!(fingerprint(&c), fp, "{} chunks, threads = {}", chunks, threads);
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");

        let t = canon(toggle);
        if t.0 != t.1 {
            let mut toggled = edges.clone();
            match toggled.binary_search(&t) {
                Ok(i) => {
                    toggled.remove(i);
                }
                Err(i) => toggled.insert(i, t),
            }
            prop_assert_ne!(fingerprint(&dense(n, &toggled)), fp);
        }
        prop_assert_ne!(fingerprint(&dense(n + 1, &edges)), fp);
    }
}
