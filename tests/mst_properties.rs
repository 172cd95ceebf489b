//! Property-based tests (proptest) for the EMST substrate: Borůvka must
//! match the Prim oracle on adversarial inputs — duplicate points,
//! collinear grids, single-cluster blobs, all with quantized coordinates so
//! exact distance ties abound — and on well-separated blobs, where late
//! rounds retire whole kd-subtrees by box-to-tree bounds. The kd-tree's
//! structural invariants (contiguous subtree ranges, boxes containing their
//! points, cached splits separating the children) must hold for every
//! build configuration.

mod common;

use proptest::prelude::*;

use common::emst::{adversarial_points, bare_emst, edge_bits};
use pandora::core::pandora::dendrogram_from_sorted;
use pandora::core::{Edge, SortedMst};
use pandora::data::synthetic::gaussian_blobs;
use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::kruskal::total_weight;
use pandora::mst::prim::prim_mst;
use pandora::mst::{
    boruvka_mst_with, core_distances2, emst, emst_from_index, knn_rows_into, row_witness_scan,
    BoruvkaExtras, BoruvkaStats, EmstIndex, EmstScratch, Euclidean, KdTree, KnnRows, Metric,
    MutualReachability, PointSet,
};

/// Borůvka over `points` under `metric` with subtree bounds and counters
/// engaged, on a fresh tree built in `ctx`; returns the edges and the
/// run's `(subtree_tests, subtree_skips)`.
fn counted_boruvka<M: Metric>(
    ctx: &ExecCtx,
    points: &PointSet,
    metric: &M,
    core2: Option<&[f32]>,
) -> (Vec<Edge>, (u64, u64)) {
    let tree = KdTree::build(ctx, points);
    let mut node_core2 = Vec::new();
    if let Some(core2) = core2 {
        tree.min_core2_into(core2, &mut node_core2);
    }
    let stats = BoruvkaStats::new();
    let extras = BoruvkaExtras {
        node_core2: &node_core2,
        stats: Some(&stats),
        ..Default::default()
    };
    let edges = boruvka_mst_with(ctx, points, &tree, metric, extras, &ScratchPool::new());
    (edges, (stats.subtree_tests(), stats.subtree_skips()))
}

/// Edges as sorted `(min endpoint, max endpoint, weight bits)` — the
/// orientation- and order-free form of an edge set.
fn edge_set(edges: &[Edge]) -> Vec<(u32, u32, u32)> {
    let mut set: Vec<_> = edges
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.w.to_bits()))
        .collect();
    set.sort_unstable();
    set
}

/// Sorted edge-weight bits: identical for *every* MST of a graph, ties or
/// not, so it compares trees exactly where the edge set is not unique.
fn weight_multiset(edges: &[Edge]) -> Vec<u32> {
    let mut w: Vec<u32> = edges.iter().map(|e| e.w.to_bits()).collect();
    w.sort_unstable();
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn boruvka_matches_prim_euclidean(points in adversarial_points()) {
        let ctx = ExecCtx::serial();
        let got = bare_emst(&ctx, &points, 1).edges;
        prop_assert_eq!(got.len(), points.len() - 1);
        let expect = prim_mst(&points, &Euclidean);
        let (wa, wb) = (total_weight(&got), total_weight(&expect));
        prop_assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "Boruvka {} vs Prim {}", wa, wb
        );
    }

    #[test]
    fn boruvka_matches_prim_mutual_reachability(
        (points, min_pts) in (adversarial_points(), 2usize..8)
    ) {
        let ctx = ExecCtx::serial();
        let min_pts = min_pts.min(points.len());
        let result = bare_emst(&ctx, &points, min_pts);
        prop_assert_eq!(result.edges.len(), points.len() - 1);
        let metric = MutualReachability { core2: &result.core2 };
        let expect = prim_mst(&points, &metric);
        let (wa, wb) = (total_weight(&result.edges), total_weight(&expect));
        prop_assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "minPts={}: Boruvka {} vs Prim {}", min_pts, wa, wb
        );
    }

    #[test]
    fn serial_and_threaded_emst_agree_exactly(
        (points, min_pts) in (adversarial_points(), 1usize..6)
    ) {
        // The whole parallel EMST stage must be deterministic across
        // execution contexts: the atomic min-edge reduction is commutative
        // and every tie is index-broken, so serial and threaded runs must
        // produce the SAME edges (not just the same weight), and therefore
        // identical dendrograms.
        let min_pts = min_pts.min(points.len());
        let serial_ctx = ExecCtx::serial();
        let threaded_ctx = ExecCtx::threads();
        let a = emst(&serial_ctx, &points, min_pts);
        let b = emst(&threaded_ctx, &points, min_pts);
        prop_assert_eq!(a.core2.as_slice(), b.core2.as_slice());
        prop_assert_eq!(a.edges.len(), b.edges.len());
        for (ea, eb) in a.edges.iter().zip(b.edges.iter()) {
            prop_assert_eq!((ea.u, ea.v, ea.w), (eb.u, eb.v, eb.w));
        }
        let wa = total_weight(&a.edges);
        let wb = total_weight(&b.edges);
        prop_assert_eq!(wa, wb);
        // Identical edges must condense into identical dendrograms.
        let mst_a = SortedMst::from_edges(&serial_ctx, points.len(), &a.edges);
        let mst_b = SortedMst::from_edges(&threaded_ctx, points.len(), &b.edges);
        let (da, _) = dendrogram_from_sorted(&serial_ctx, &mst_a);
        let (db, _) = dendrogram_from_sorted(&threaded_ctx, &mst_b);
        prop_assert_eq!(da, db);
    }

    #[test]
    fn kdtree_invariants_hold_for_every_build(points in adversarial_points()) {
        for leaf_size in [1usize, 4, 32] {
            let serial = KdTree::build_with_leaf_size(&ExecCtx::serial(), &points, leaf_size);
            serial.check_invariants(&points).unwrap();
            let threaded = KdTree::build_with_leaf_size(&ExecCtx::threads(), &points, leaf_size);
            threaded.check_invariants(&points).unwrap();
            // Median splits keep the depth logarithmic even with total
            // coordinate degeneracy (the index tie-break still halves).
            let bound = (points.len().max(2)).ilog2() as usize + 2;
            prop_assert!(
                serial.depth() <= bound,
                "depth {} exceeds {} at n={} leaf={}",
                serial.depth(), bound, points.len(), leaf_size
            );
        }
    }

    #[test]
    fn row_witness_scan_invariants(
        (points, min_pts, comp_seed) in (adversarial_points(), 2usize..6, any::<u64>())
    ) {
        // The witness scan's documented contract, on ties-everywhere inputs
        // with an arbitrary component labelling:
        //   * `best` is the brute-force canonical minimum (smaller metric
        //     distance, then smaller index) over the row's foreign members;
        //   * a found `second` is foreign, lives outside `best`'s component,
        //     and its exact metric distance is ≥ `best`'s — so a promoted
        //     2-hop witness can never propose an edge shorter than the true
        //     nearest-foreign distance;
        //   * `second` is found whenever the row holds a foreign member
        //     outside `best`'s component.
        let ctx = ExecCtx::serial();
        let n = points.len();
        let min_pts = min_pts.min(n);
        let tree = KdTree::build(&ctx, &points);
        let k = (min_pts + 3).min(n - 1);
        let (mut row_d2, mut row_idx) = (Vec::new(), Vec::new());
        knn_rows_into(&ctx, &points, &tree, k, &mut row_d2, &mut row_idx);
        let rows = KnnRows { k, d2: &row_d2, idx: &row_idx };
        // Brute-force core distances keep the oracle independent of `knn`.
        let core2: Vec<f32> = (0..n)
            .map(|q| {
                let mut d: Vec<f32> = (0..n)
                    .filter(|&p| p != q)
                    .map(|p| points.dist2(q, p))
                    .collect();
                d.sort_by(f32::total_cmp);
                d[min_pts - 2]
            })
            .collect();
        let metric = MutualReachability { core2: &core2 };
        let exact = |q: usize, p: u32| {
            points
                .dist2(q, p as usize)
                .max(core2[q])
                .max(core2[p as usize])
        };
        // A deterministic pseudo-random labelling into four components —
        // arbitrary labels are exactly what mid-run Borůvka hands the scan.
        let comp: Vec<u32> = (0..n as u64)
            .map(|p| ((p.wrapping_add(1).wrapping_mul(comp_seed | 1)) >> 32) as u32 % 4)
            .collect();
        for q in 0..n {
            let root = comp[q] as usize;
            let (best, second) = row_witness_scan(&rows, &metric, q as u32, root, &comp);
            let members: Vec<u32> = (0..k)
                .map(|j| row_idx[q * k + j])
                .take_while(|&p| p != u32::MAX)
                .collect();
            let expect_best = members
                .iter()
                .filter(|&&p| comp[p as usize] as usize != root)
                .map(|&p| (exact(q, p), p))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            match expect_best {
                Some(expected) => prop_assert_eq!(best, expected, "q={}", q),
                None => prop_assert_eq!(best.1, u32::MAX, "q={}", q),
            }
            let two_hop_exists = best.1 != u32::MAX
                && members.iter().any(|&p| {
                    comp[p as usize] as usize != root && comp[p as usize] != comp[best.1 as usize]
                });
            if second.1 != u32::MAX {
                prop_assert_ne!(comp[second.1 as usize] as usize, root, "q={}", q);
                prop_assert_ne!(comp[second.1 as usize], comp[best.1 as usize], "q={}", q);
                prop_assert_eq!(second.0, exact(q, second.1), "q={}", q);
                prop_assert!(
                    second.0 >= best.0,
                    "q={}: second {} undercuts nearest-foreign {}", q, second.0, best.0
                );
            } else {
                prop_assert!(!two_hop_exists, "q={}: missed a 2-hop witness", q);
            }
        }
    }

    #[test]
    fn warm_index_path_matches_cold_and_prim_exactly(
        (points, min_pts) in (adversarial_points(), 1usize..6)
    ) {
        // The production pipeline layers every acceleration at once — row
        // screen, merge-surviving witnesses, endgame snapshots (second run
        // through the same scratch), shared-store adoption (fresh scratch
        // after a publish) — and must still return the bare cold Borůvka
        // run's edges BIT-identically, serial and threaded, while the bare
        // run itself matches the Prim oracle on these tie-heavy inputs.
        let min_pts = min_pts.min(points.len());
        let cold = bare_emst(&ExecCtx::serial(), &points, min_pts);
        let metric = MutualReachability { core2: &cold.core2 };
        let oracle = prim_mst(&points, &metric);
        let (wc, wo) = (total_weight(&cold.edges), total_weight(&oracle));
        prop_assert!((wc - wo).abs() <= 1e-3 * wo.max(1.0), "cold {} vs Prim {}", wc, wo);
        let want = edge_bits(&cold);
        for ctx in [ExecCtx::serial(), ExecCtx::threads()] {
            prop_assert_eq!(edge_bits(&bare_emst(&ctx, &points, min_pts)), want.clone());
            let one_shot = emst(&ctx, &points, min_pts);
            let index = EmstIndex::freeze(&ctx, points.clone(), min_pts)
                .expect("freeze a non-empty dataset");
            let mut scratch = EmstScratch::new();
            let first = emst_from_index(&ctx, &index, min_pts, &mut scratch)
                .expect("valid request");
            let second = emst_from_index(&ctx, &index, min_pts, &mut scratch)
                .expect("valid request");
            let mut fresh = EmstScratch::new();
            let adopted = emst_from_index(&ctx, &index, min_pts, &mut fresh)
                .expect("valid request");
            for run in [&one_shot, &first, &second, &adopted] {
                prop_assert_eq!(run.core2.as_slice(), cold.core2.as_slice());
                prop_assert_eq!(edge_bits(run), want.clone());
            }
        }
    }

    #[test]
    fn subtree_retirement_matches_prim_on_separated_blobs(
        (dim, seed, quantize) in (2usize..4, any::<u64>(), any::<bool>())
    ) {
        // Four well-separated Gaussian blobs: late rounds leave one
        // component per blob, whose pure kd-subtrees the subtree test
        // retires wholesale. Continuous coordinates make the Euclidean MST
        // unique, so its exact edge set must match Prim's; mutual
        // reachability at minPts 8 ties many edges at core distances, and
        // a quarter-unit grid (`quantize`) ties distances too — there the
        // trees may differ but their weight multisets may not. Serial and
        // threaded runs (two lane chunks at this size) must agree bit for
        // bit, and the retirement path must actually run.
        let (mut points, _) = gaussian_blobs(400, dim, 4, 40.0, 1.0, seed);
        if quantize {
            let grid: Vec<f32> = points.coords().iter().map(|c| (c * 4.0).round() / 4.0).collect();
            points = PointSet::new(grid, dim);
        }
        let serial = ExecCtx::serial();
        for min_pts in [1usize, 2, 8] {
            let tree = KdTree::build(&serial, &points);
            let core2 = core_distances2(&serial, &points, &tree, min_pts);
            let mr = MutualReachability { core2: &core2 };
            let run = |ctx: &ExecCtx| {
                if min_pts == 1 {
                    counted_boruvka(ctx, &points, &Euclidean, None)
                } else {
                    counted_boruvka(ctx, &points, &mr, Some(&core2))
                }
            };
            let (edges, (tests, skips)) = run(&serial);
            prop_assert!(tests > 0 && skips > 0, "minPts={}: no subtree was retired", min_pts);
            let (threaded, _) = run(&ExecCtx::threads());
            let bits = |es: &[Edge]| es.iter().map(|e| (e.u, e.v, e.w.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&edges), bits(&threaded), "minPts={}: serial and threaded runs diverged", min_pts
            );
            let oracle = if min_pts == 1 {
                prim_mst(&points, &Euclidean)
            } else {
                prim_mst(&points, &mr)
            };
            prop_assert_eq!(weight_multiset(&edges), weight_multiset(&oracle), "minPts={}", min_pts);
            // minPts 2 mutual reachability equals Euclidean (every core
            // distance is the nearest-neighbour distance), so it is unique
            // on continuous inputs too.
            if !quantize && min_pts <= 2 {
                prop_assert_eq!(edge_set(&edges), edge_set(&oracle), "minPts={}", min_pts);
            }
        }
    }

    #[test]
    fn core_distances_match_brute_force(points in adversarial_points()) {
        let ctx = ExecCtx::serial();
        let tree = KdTree::build(&ctx, &points);
        let min_pts = 3usize.min(points.len());
        let core2 = core_distances2(&ctx, &points, &tree, min_pts);
        for (q, &got) in core2.iter().enumerate() {
            let mut d: Vec<f32> = (0..points.len())
                .filter(|&p| p != q)
                .map(|p| points.dist2(q, p))
                .collect();
            d.sort_by(f32::total_cmp);
            let expect = if min_pts >= 2 { d[min_pts - 2] } else { 0.0 };
            prop_assert_eq!(got, expect, "q={}", q);
        }
    }
}
