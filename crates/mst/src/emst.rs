//! The one-shot EMST: freeze at `minPts`, answer one request.
//!
//! The paper treats EMST construction (its ArborX stage, \[39\]) as a
//! single pre-processing step ahead of the PANDORA dendrogram. This crate
//! has one pipeline for it — [`crate::index::EmstIndex`] plus a per-request
//! [`crate::index::EmstScratch`] — and [`emst`] is that pipeline run once:
//!
//! 1. freeze the index at `max_min_pts = min_pts` — kd-tree build (traced
//!    phase `emst_build`) and one sorted k-NN pass (phase `emst_core`);
//! 2. answer one request on a throwaway scratch set — core distances by
//!    row prefix (phase `emst_core`), then Borůvka under the
//!    mutual-reachability metric, or plain Euclidean when `min_pts <= 1`
//!    where both metrics coincide (phase `emst_boruvka`).
//!
//! Every stage is wall-clock timed ([`EmstTimings`]) and kernel-traced via
//! [`pandora_exec::trace`], so the bench harness and the HDBSCAN\* pipeline
//! report the same decomposition the paper's Figures 1 and 12 use.

use pandora_core::Edge;
use pandora_exec::ExecCtx;

use crate::index::{emst_from_index, EmstIndex, EmstScratch};
use crate::point::PointSet;

/// Per-stage wall-clock seconds of an EMST run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmstTimings {
    /// kd-tree construction.
    pub tree_build_s: f64,
    /// Core-distance k-NN queries (incl. attaching subtree minima).
    pub core_s: f64,
    /// Borůvka rounds.
    pub boruvka_s: f64,
}

impl EmstTimings {
    /// Total EMST seconds.
    pub fn total(&self) -> f64 {
        self.tree_build_s + self.core_s + self.boruvka_s
    }
}

/// The result of an EMST run.
#[derive(Debug, Clone)]
pub struct Emst {
    /// The `n − 1` MST edges (weights are metric distances, not squared).
    pub edges: Vec<Edge>,
    /// Squared core distance per point (all zero when `min_pts <= 1`).
    pub core2: Vec<f32>,
    /// Stage timings.
    pub timings: EmstTimings,
}

/// Runs the full EMST pipeline on `points`: a freeze at `min_pts` plus one
/// request (module docs).
///
/// Returns the mutual-reachability MST for `min_pts >= 2`, the Euclidean
/// MST otherwise; `timings` include the freeze. Non-finite coordinates are
/// rejected by [`PointSet::new`], so every distance seen here is finite.
///
/// # Panics
///
/// Panics if `min_pts` exceeds the point count (for two or more points):
/// the `min_pts`-th neighbour does not exist. The fallible form is
/// [`EmstIndex::freeze`] + [`emst_from_index`].
pub fn emst(ctx: &ExecCtx, points: &PointSet, min_pts: usize) -> Emst {
    if points.is_empty() {
        // The index rejects empty datasets; there is nothing to connect.
        return Emst {
            edges: Vec::new(),
            core2: Vec::new(),
            timings: EmstTimings::default(),
        };
    }
    // `min_pts <= 1` is plain single linkage either way.
    let min_pts = min_pts.max(1);
    let index = EmstIndex::freeze(ctx, points.clone(), min_pts).unwrap_or_else(|e| panic!("{e}"));
    let mut emst = emst_from_index(ctx, &index, min_pts, &mut EmstScratch::new())
        .unwrap_or_else(|e| panic!("{e}"));
    emst.timings.tree_build_s = index.build_seconds();
    emst.timings.core_s += index.rows_seconds();
    emst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::total_weight;
    use crate::metric::{Euclidean, MutualReachability};
    use crate::prim::prim_mst;
    use rand::prelude::*;

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::new(
            (0..n * dim).map(|_| rng.gen_range(-5.0..5.0f32)).collect(),
            dim,
        )
    }

    #[test]
    fn emst_matches_prim_at_min_pts_two() {
        let ctx = ExecCtx::serial();
        let points = random_points(300, 3, 7);
        let result = emst(&ctx, &points, 2);
        assert_eq!(result.edges.len(), 299);
        assert_eq!(result.core2.len(), 300);
        let metric = MutualReachability {
            core2: &result.core2,
        };
        let expect = prim_mst(&points, &metric);
        let (wa, wb) = (total_weight(&result.edges), total_weight(&expect));
        assert!((wa - wb).abs() < 1e-3 * wb.max(1.0), "{wa} vs {wb}");
    }

    #[test]
    fn min_pts_one_is_euclidean() {
        let ctx = ExecCtx::serial();
        let points = random_points(200, 2, 3);
        let result = emst(&ctx, &points, 1);
        assert!(result.core2.iter().all(|&c| c == 0.0));
        let expect = prim_mst(&points, &Euclidean);
        let (wa, wb) = (total_weight(&result.edges), total_weight(&expect));
        assert!((wa - wb).abs() < 1e-3 * wb.max(1.0), "{wa} vs {wb}");
    }

    #[test]
    fn timings_and_phases_are_recorded() {
        let (ctx, tracer) = ExecCtx::serial().with_tracing();
        let points = random_points(400, 2, 5);
        let result = emst(&ctx, &points, 2);
        assert!(result.timings.tree_build_s > 0.0);
        assert!(result.timings.boruvka_s > 0.0);
        assert!(result.timings.total() >= result.timings.core_s);
        let phases = tracer.snapshot().phases();
        for phase in ["emst_build", "emst_core", "emst_boruvka"] {
            assert!(phases.contains(&phase), "missing phase {phase}");
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let ctx = ExecCtx::serial();
        // Degenerate sets must stay trivially well-defined even at
        // min_pts = 2 (there is no neighbour, but also nothing to cluster).
        for min_pts in [0, 1, 2] {
            let empty = PointSet::new(vec![], 2);
            assert!(emst(&ctx, &empty, min_pts).edges.is_empty());
            let one = PointSet::new(vec![0.0, 0.0], 2);
            let result = emst(&ctx, &one, min_pts);
            assert!(result.edges.is_empty());
            assert_eq!(result.core2, vec![0.0]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the number of points")]
    fn min_pts_above_n_panics() {
        let _ = emst(&ExecCtx::serial(), &random_points(5, 2, 1), 6);
    }
}
