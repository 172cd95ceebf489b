//! Borůvka EMST validated against the dense Prim oracle across dataset
//! families, metrics and execution contexts: the bare reference run and
//! the production `emst()` pipeline alike.

mod common;

use common::emst::bare_emst;
use pandora::core::SortedMst;
use pandora::data::all_datasets;
use pandora::exec::ExecCtx;
use pandora::mst::kruskal::{kruskal_mst, total_weight};
use pandora::mst::prim::prim_mst;
use pandora::mst::{emst, Euclidean, MutualReachability};

#[test]
fn boruvka_matches_prim_across_families() {
    let ctx = ExecCtx::threads();
    for spec in all_datasets() {
        let points = spec.generate(700, 3);
        let got = emst(&ctx, &points, 1).edges;
        assert_eq!(got.len(), points.len() - 1, "{}", spec.name);
        let expect = prim_mst(&points, &Euclidean);
        let (wa, wb) = (total_weight(&got), total_weight(&expect));
        assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "{}: Borůvka {wa} vs Prim {wb}",
            spec.name
        );
    }
}

#[test]
fn boruvka_matches_prim_under_mutual_reachability() {
    let ctx = ExecCtx::threads();
    for (name, min_pts) in [("Hacc37M", 4usize), ("VisualVar10M2D", 8), ("Pamap2", 16)] {
        let spec = pandora::data::by_name(name).unwrap();
        let points = spec.generate(600, 21);
        let result = emst(&ctx, &points, min_pts);
        let (core2, got) = (result.core2, result.edges);
        let metric = MutualReachability { core2: &core2 };
        let expect = prim_mst(&points, &metric);
        let (wa, wb) = (total_weight(&got), total_weight(&expect));
        assert!(
            (wa - wb).abs() <= 1e-3 * wb.max(1.0),
            "{name} minPts={min_pts}: {wa} vs {wb}"
        );
    }
}

#[test]
fn boruvka_output_is_a_spanning_tree() {
    let ctx = ExecCtx::threads();
    let points = pandora::data::by_name("Normal100M2D")
        .unwrap()
        .generate(5_000, 8);
    let edges = emst(&ctx, &points, 1).edges;
    let mst = SortedMst::from_edges(&ctx, points.len(), &edges);
    mst.validate_tree().unwrap();
}

#[test]
fn kruskal_agrees_with_boruvka_on_dense_graph() {
    // Build the complete graph over a few points and feed it to Kruskal;
    // compare with Borůvka on the same points.
    let ctx = ExecCtx::serial();
    let points = pandora::data::synthetic::uniform(120, 2, 5);
    let mut graph = Vec::new();
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            graph.push(pandora::core::Edge::new(
                i as u32,
                j as u32,
                points.dist2(i, j).sqrt(),
            ));
        }
    }
    let via_kruskal = kruskal_mst(&ctx, points.len(), &graph);
    let via_boruvka = bare_emst(&ctx, &points, 1).edges;
    let (wa, wb) = (total_weight(&via_kruskal), total_weight(&via_boruvka));
    assert!((wa - wb).abs() <= 1e-3 * wb.max(1.0), "{wa} vs {wb}");
}
