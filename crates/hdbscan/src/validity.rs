//! Density-Based Cluster Validity (DBCV, Moulavi et al. 2014) — the
//! standard internal quality index for density-based clusterings, computed
//! with the same machinery the clustering itself uses (mutual-reachability
//! MSTs), so it comes almost for free on top of the pandora stack.
//!
//! For each cluster, the **density sparseness** `DSC(C)` is the maximum
//! edge of the cluster's internal mutual-reachability MST; the **density
//! separation** `DSPC(Cᵢ, Cⱼ)` is the minimum mutual-reachability distance
//! between their points. Cluster validity is
//! `(min_j DSPC − DSC) / max(min_j DSPC, DSC)` ∈ [−1, 1], and DBCV is the
//! size-weighted average — higher is better.
//!
//! This implementation follows the original definition but computes core
//! distances over the full dataset (all-points core distance), which is the
//! common simplification in practice.

use pandora_exec::{ExecCtx, ScratchPool};
use pandora_mst::{
    boruvka_mst_with, core_distances2, BoruvkaExtras, KdTree, Metric, MutualReachability, PointSet,
};

/// DBCV score of a flat clustering (−1 = worst, 1 = best).
///
/// `labels[i] < 0` marks noise (excluded from cluster validity but counted
/// in the size weighting denominator, as in the reference implementation).
/// Returns `None` when fewer than two real clusters exist.
pub fn dbcv(ctx: &ExecCtx, points: &PointSet, labels: &[i32], min_pts: usize) -> Option<f64> {
    assert_eq!(labels.len(), points.len());
    let k = labels.iter().copied().max().map_or(0, |m| m + 1) as usize;
    if k < 2 {
        return None;
    }

    // Core distances over the full dataset.
    let tree = KdTree::build(ctx, points);
    let core2 = core_distances2(ctx, points, &tree, min_pts);
    let metric = MutualReachability { core2: &core2 };

    // Cluster member lists.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (i, &l) in labels.iter().enumerate() {
        if l >= 0 {
            members[l as usize].push(i as u32);
        }
    }
    if members.iter().filter(|m| m.len() >= 2).count() < 2 {
        return None;
    }

    // Density sparseness per cluster: max edge of the internal MST, with
    // distances evaluated under the *global* mutual reachability metric.
    let mut sparseness = vec![f64::NAN; k];
    for (c, m) in members.iter().enumerate() {
        if m.len() < 2 {
            continue;
        }
        let sub = points.select(m);
        let sub_core2: Vec<f32> = m.iter().map(|&i| core2[i as usize]).collect();
        let mst = subset_mst(ctx, &sub, &sub_core2);
        sparseness[c] = mst.iter().map(|e| e.w as f64).fold(0.0f64, f64::max);
    }

    // Pairwise density separation: min mutual-reachability distance between
    // clusters. O(Σ|Cᵢ|·|Cⱼ|) — fine for validation-scale data; the kd-tree
    // nearest-foreign machinery could accelerate this if ever needed.
    let mut separation = vec![vec![f64::INFINITY; k]; k];
    for ci in 0..k {
        for cj in (ci + 1)..k {
            if members[ci].len() < 2 || members[cj].len() < 2 {
                continue;
            }
            let mut best = f64::INFINITY;
            for &a in &members[ci] {
                for &b in &members[cj] {
                    let d2 = metric.dist2(points, a, b);
                    best = best.min((d2 as f64).sqrt());
                }
            }
            separation[ci][cj] = best;
            separation[cj][ci] = best;
        }
    }

    // Validity per cluster, weighted by size.
    let n_total = labels.len() as f64;
    let mut score = 0.0f64;
    for c in 0..k {
        if members[c].len() < 2 {
            continue;
        }
        let min_sep = (0..k)
            .filter(|&o| o != c && members[o].len() >= 2)
            .map(|o| separation[c][o])
            .fold(f64::INFINITY, f64::min);
        let dsc = sparseness[c];
        let validity = (min_sep - dsc) / min_sep.max(dsc);
        score += validity * members[c].len() as f64 / n_total;
    }
    Some(score)
}

/// Mutual-reachability MST of a cluster's points under caller-provided
/// (global) squared core distances: a fresh kd-tree, its subtree core
/// minima for pruning, and one bare Borůvka run.
fn subset_mst(ctx: &ExecCtx, points: &PointSet, core2: &[f32]) -> Vec<pandora_core::Edge> {
    let tree = KdTree::build(ctx, points);
    let mut node_core2 = Vec::new();
    tree.min_core2_into(core2, &mut node_core2);
    let extras = BoruvkaExtras {
        node_core2: &node_core2,
        ..Default::default()
    };
    let metric = MutualReachability { core2 };
    boruvka_mst_with(ctx, points, &tree, &metric, extras, &ScratchPool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_data::synthetic::gaussian_blobs;

    #[test]
    fn good_clustering_scores_high() {
        let (points, truth) = gaussian_blobs(300, 2, 3, 200.0, 0.5, 5);
        let ctx = ExecCtx::serial();
        let labels: Vec<i32> = truth.iter().map(|&t| t as i32).collect();
        let score = dbcv(&ctx, &points, &labels, 4).unwrap();
        assert!(score > 0.6, "well-separated blobs scored {score}");
    }

    #[test]
    fn scrambled_labels_score_low() {
        let (points, truth) = gaussian_blobs(300, 2, 3, 200.0, 0.5, 5);
        let ctx = ExecCtx::serial();
        // Truth is assigned round-robin (`i % 3`); contiguous blocks of 100
        // therefore mix all three blobs — a density-meaningless partition.
        let labels: Vec<i32> = (0..points.len()).map(|i| ((i / 100) % 3) as i32).collect();
        let good: Vec<i32> = truth.iter().map(|&t| t as i32).collect();
        let bad_score = dbcv(&ctx, &points, &labels, 4).unwrap();
        let good_score = dbcv(&ctx, &points, &good, 4).unwrap();
        assert!(
            good_score > bad_score + 0.5,
            "good {good_score} vs bad {bad_score}"
        );
        assert!(bad_score < 0.0, "scrambled labels scored {bad_score}");
    }

    #[test]
    fn single_cluster_is_none() {
        let (points, _) = gaussian_blobs(100, 2, 1, 1.0, 0.5, 2);
        let ctx = ExecCtx::serial();
        let labels = vec![0i32; points.len()];
        assert!(dbcv(&ctx, &points, &labels, 4).is_none());
    }

    /// Brute-force DBCV straight from the definition: dense core
    /// distances, Prim per cluster over the global mutual-reachability
    /// distance, and O(n²) separation — no kd-tree, no Borůvka.
    fn dbcv_brute_force(points: &PointSet, labels: &[i32], min_pts: usize) -> Option<f64> {
        let n = points.len();
        let core2: Vec<f32> = (0..n)
            .map(|q| {
                let mut d: Vec<f32> = (0..n)
                    .filter(|&p| p != q)
                    .map(|p| points.dist2(q, p))
                    .collect();
                d.sort_by(f32::total_cmp);
                if min_pts >= 2 {
                    d[min_pts - 2]
                } else {
                    0.0
                }
            })
            .collect();
        let mreach2 = |a: usize, b: usize| points.dist2(a, b).max(core2[a]).max(core2[b]);
        let k = labels.iter().copied().max().map_or(0, |m| m + 1) as usize;
        let members: Vec<Vec<usize>> = (0..k as i32)
            .map(|c| (0..n).filter(|&i| labels[i] == c).collect())
            .collect();
        let valid: Vec<usize> = (0..k).filter(|&c| members[c].len() >= 2).collect();
        if valid.len() < 2 {
            return None;
        }
        // Density sparseness: the largest edge of the cluster's Prim MST.
        let sparseness = |m: &[usize]| -> f64 {
            let mut dist = vec![f32::INFINITY; m.len()];
            let mut done = vec![false; m.len()];
            dist[0] = 0.0;
            let mut widest = 0.0f32;
            for _ in 0..m.len() {
                let next = (0..m.len())
                    .filter(|&i| !done[i])
                    .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
                    .expect("an unvisited member remains");
                done[next] = true;
                widest = widest.max(dist[next]);
                for i in 0..m.len() {
                    if !done[i] {
                        dist[i] = dist[i].min(mreach2(m[next], m[i]));
                    }
                }
            }
            widest.sqrt() as f64
        };
        let separation = |a: &[usize], b: &[usize]| -> f64 {
            a.iter()
                .flat_map(|&x| b.iter().map(move |&y| (mreach2(x, y) as f64).sqrt()))
                .fold(f64::INFINITY, f64::min)
        };
        let mut score = 0.0f64;
        for &c in &valid {
            let dsc = sparseness(&members[c]);
            let min_sep = valid
                .iter()
                .filter(|&&o| o != c)
                .map(|&o| separation(&members[c], &members[o]))
                .fold(f64::INFINITY, f64::min);
            score += (min_sep - dsc) / min_sep.max(dsc) * members[c].len() as f64 / n as f64;
        }
        Some(score)
    }

    #[test]
    fn matches_the_brute_force_definition() {
        let ctx = ExecCtx::serial();
        let mut checked = 0;
        for seed in 0..12u64 {
            let n_blobs = 2 + (seed % 3) as usize;
            let n = 60 + 12 * seed as usize; // 60..=192
            let spread = 6.0 + 4.0 * (seed % 4) as f32;
            let (points, truth) = gaussian_blobs(n, 2, n_blobs, spread, 1.0, seed + 100);
            // Every seventh point (offset by the seed) is labelled noise.
            let labels: Vec<i32> = truth
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    if (i + seed as usize).is_multiple_of(7) {
                        -1
                    } else {
                        t as i32
                    }
                })
                .collect();
            for min_pts in [2usize, 4, 6] {
                let got = dbcv(&ctx, &points, &labels, min_pts);
                let want = dbcv_brute_force(&points, &labels, min_pts);
                match (got, want) {
                    (Some(g), Some(w)) => {
                        assert!(
                            (g - w).abs() <= 1e-6 * w.abs(),
                            "seed {seed} minPts {min_pts}: {g} vs brute force {w}"
                        );
                        checked += 1;
                    }
                    (g, w) => assert_eq!(g.is_some(), w.is_some(), "seed {seed}"),
                }
            }
        }
        assert_eq!(checked, 36);
    }

    #[test]
    fn noise_is_tolerated() {
        let (points, truth) = gaussian_blobs(200, 2, 2, 150.0, 0.5, 9);
        let ctx = ExecCtx::serial();
        let mut labels: Vec<i32> = truth.iter().map(|&t| t as i32).collect();
        for l in labels.iter_mut().step_by(17) {
            *l = -1;
        }
        let score = dbcv(&ctx, &points, &labels, 4).unwrap();
        assert!(score > 0.3);
    }
}
