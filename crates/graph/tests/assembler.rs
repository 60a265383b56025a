//! The CSR assembler against a dense `BTreeSet` reference.
//!
//! Every constructor that assembles adjacency rows — `Csr::from_runs` with
//! or without an id map, `Csr::from_canonical_edges` and
//! `ChunkedCsr::build` — must produce exactly the neighbour sets a naive
//! per-node `BTreeSet` build produces, whatever the shape of the runs
//! (duplicates, empty runs, one run holding everything), whatever the map
//! (identity or an arbitrary non-monotone bijection), on the degenerate
//! n ∈ {0, 1, 2} projections of each draw, and at any worker count
//! (`RAYON_NUM_THREADS` is varied in-process; this binary holds one test, so
//! nothing races on the variable).

use std::collections::BTreeSet;

use proptest::prelude::*;
use wsn_geom::hash::mix64;
use wsn_graph::{ChunkedCsr, Csr, Emitted};

/// Per-node neighbour sets of the undirected graph `runs` describe, with
/// every endpoint pushed through `map`.
fn reference(n: usize, runs: &[Vec<(u32, u32)>], map: &[u32]) -> Vec<BTreeSet<u32>> {
    let mut rows = vec![BTreeSet::new(); n];
    for &(u, v) in runs.iter().flatten() {
        let (a, b) = (map[u as usize], map[v as usize]);
        rows[a as usize].insert(b);
        rows[b as usize].insert(a);
    }
    rows
}

fn rows_of(g: &Csr) -> Vec<BTreeSet<u32>> {
    (0..g.n() as u32)
        .map(|u| g.neighbors(u).iter().copied().collect())
        .collect()
}

/// A bijection on `0..n` that is not monotone for n ≥ 2 (ids sorted by a
/// per-id hash), or the identity when `seed` is 0.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    if seed != 0 {
        ids.sort_by_key(|&i| mix64(seed ^ u64::from(i)));
    }
    ids
}

/// `raw` projected onto `n` nodes (self-loops dropped, run boundaries and
/// empty runs kept), then reshaped: 0 = as drawn, 1 = one run holding
/// everything, 2 = every edge repeated reversed in a later run, 3 = an
/// empty run between every pair of runs.
fn shape_runs(raw: &[Vec<(u32, u32)>], n: usize, shape: u32) -> Vec<Vec<(u32, u32)>> {
    let project = |run: &Vec<(u32, u32)>| -> Vec<(u32, u32)> {
        run.iter()
            .map(|&(u, v)| (u % n.max(1) as u32, v % n.max(1) as u32))
            .filter(|&(u, v)| u != v)
            .collect()
    };
    let runs: Vec<Vec<(u32, u32)>> = raw.iter().map(project).collect();
    match shape {
        0 => runs,
        1 => vec![runs.concat()],
        2 => {
            let mirrored: Vec<Vec<(u32, u32)>> = runs
                .iter()
                .rev()
                .map(|r| r.iter().map(|&(u, v)| (v, u)).collect())
                .collect();
            runs.into_iter().chain(mirrored).collect()
        }
        _ => runs.into_iter().flat_map(|r| [r, Vec::new()]).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_assembler_matches_btreeset_reference(
        n in 3usize..48,
        raw in proptest::collection::vec(
            proptest::collection::vec((0u32..48, 0u32..48), 0..40),
            0..7,
        ),
        seed in 0u64..4,
        shape in 0u32..4,
        chunks in 1usize..5,
    ) {
        for threads in ["1", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            for n in [0, 1, 2, n] {
                let runs = shape_runs(&raw, n, shape);
                let identity = permutation(n, 0);
                let map = permutation(n, seed);
                let ctx = format!("n = {n}, shape = {shape}, seed = {seed}, threads = {threads}");

                let mapped = Csr::from_runs(n, runs.clone(), Some(&map), Emitted::Repeated);
                prop_assert_eq!(rows_of(&mapped), reference(n, &runs, &map), "mapped: {}", ctx);
                let plain = Csr::from_runs(n, runs.clone(), None, Emitted::Repeated);
                let want = reference(n, &runs, &identity);
                prop_assert_eq!(rows_of(&plain), want.clone(), "unmapped: {}", ctx);
                prop_assert_eq!(plain.m(), want.iter().map(BTreeSet::len).sum::<usize>() / 2);

                // Unique canonical edges take the emit-once path.
                let unique: Vec<(u32, u32)> = want
                    .iter()
                    .enumerate()
                    .flat_map(|(u, row)| {
                        row.iter().filter(move |&&v| u < v as usize).map(move |&v| (u as u32, v))
                    })
                    .collect();
                prop_assert_eq!(&Csr::from_canonical_edges(n, &unique), &plain, "{}", ctx);

                // The chunked build is the same assembler with chunks as
                // blocks; its equality with a dense CSR is semantic.
                let chunk_of: Vec<u32> =
                    (0..n as u64).map(|u| (mix64(seed ^ u) % chunks as u64) as u32).collect();
                let chunked = ChunkedCsr::build(chunks, &chunk_of, &runs);
                prop_assert!(chunked == plain, "chunked: {}", ctx);
                prop_assert_eq!(chunked.m(), plain.m());
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}
