//! The independent EMST reference and the adversarial point families the
//! EMST suites (`mst_properties.rs`, `mst_correctness.rs`,
//! `serve_concurrent.rs`) check it on.
//!
//! [`bare_emst`] is Borůvka with nothing engaged: a fresh kd-tree, fresh
//! core distances from a plain k-NN query, and `BoruvkaExtras::default()`
//! — no sorted rows, witnesses, subtree bounds or endgame cache. Every
//! acceleration of the production pipeline (`emst()`, `EmstIndex`,
//! `Session`) is strictly conservative, so its edges must equal these bit
//! for bit; the bare run itself is checked against the Prim oracle.

use proptest::prelude::*;

use pandora::exec::{ExecCtx, ScratchPool};
use pandora::mst::{
    boruvka_mst_with, core_distances2, BoruvkaExtras, Emst, EmstTimings, Euclidean, KdTree,
    MutualReachability, PointSet,
};

/// The bare Borůvka reference at `min_pts` (Euclidean for `min_pts <= 1`).
pub fn bare_emst(ctx: &ExecCtx, points: &PointSet, min_pts: usize) -> Emst {
    let tree = KdTree::build(ctx, points);
    let core2 = core_distances2(ctx, points, &tree, min_pts.max(1));
    let pool = ScratchPool::new();
    let extras = BoruvkaExtras::default();
    let edges = if min_pts <= 1 {
        boruvka_mst_with(ctx, points, &tree, &Euclidean, extras, &pool)
    } else {
        let metric = MutualReachability { core2: &core2 };
        boruvka_mst_with(ctx, points, &tree, &metric, extras, &pool)
    };
    Emst {
        edges,
        core2,
        timings: EmstTimings::default(),
    }
}

/// `(u, v, weight bits)` of every edge, for bit-for-bit comparison.
pub fn edge_bits(emst: &Emst) -> Vec<(u32, u32, u32)> {
    emst.edges
        .iter()
        .map(|e| (e.u, e.v, e.w.to_bits()))
        .collect()
}

/// Adversarial point sets of 8..100 points in 2 or 3 dimensions. `mode`
/// picks the family; coordinates are quantized so equal distances (the
/// tie-break stress case) are common, not measure-zero.
pub fn adversarial_points() -> impl Strategy<Value = PointSet> {
    (0usize..3, 2usize..4, 8usize..100).prop_flat_map(|(mode, dim, n)| {
        prop::collection::vec(0u32..32, n * dim..n * dim + 1).prop_map(move |raw| {
            let coords: Vec<f32> = match mode {
                // Duplicates: coordinates drawn from an 8-value alphabet,
                // so many points coincide exactly.
                0 => raw.iter().map(|&v| (v % 8) as f32).collect(),
                // Collinear: every point sits on the main diagonal.
                1 => raw
                    .chunks(dim)
                    .flat_map(|c| std::iter::repeat_n(c[0] as f32 * 0.25, dim))
                    .collect(),
                // Single-cluster blob on a quarter-unit grid.
                _ => raw.iter().map(|&v| v as f32 * 0.25).collect(),
            };
            PointSet::new(coords, dim)
        })
    })
}
