//! Distance metrics for MST construction.
//!
//! HDBSCAN\* runs single-linkage over the **mutual reachability distance**
//! `d_mreach(a,b) = max(core_k(a), core_k(b), d(a,b))` (paper §6.5). All
//! internal computation uses *squared* distances: `max` commutes with the
//! monotone square, so comparisons are unaffected and `sqrt` is deferred to
//! the final edge weights.

use crate::point::PointSet;

/// Which base dissimilarity a clustering request runs under — the
/// **per-request metric selection** the serving tier threads down to the
/// compute substrate (Borůvka EMST or the NN-chain engine), instead of the
/// metric being baked into call sites.
///
/// Both kinds are served from the same frozen spatial substrate: mutual
/// reachability is plain Euclidean plus a per-point core-distance floor, so
/// the kd-tree and k-NN rows never change shape with the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetricKind {
    /// HDBSCAN\*'s `d_mreach(a,b) = max(core_k(a), core_k(b), d(a,b))`
    /// (the default). Degenerates to Euclidean at `minPts ≤ 1`, where every
    /// core distance is zero.
    #[default]
    MutualReachability,
    /// Plain Euclidean distance, regardless of `minPts` (core distances are
    /// still computed for the result, they just do not enter the metric).
    Euclidean,
}

impl MetricKind {
    /// Every metric kind, in default-first order.
    pub const ALL: [Self; 2] = [Self::MutualReachability, Self::Euclidean];

    /// The canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::MutualReachability => "mutual-reachability",
            Self::Euclidean => "euclidean",
        }
    }

    /// Parses a metric name (case-insensitive; accepts the canonical
    /// spellings plus common aliases). Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mutual-reachability" | "mutual_reachability" | "mreach" | "mutual" => {
                Some(Self::MutualReachability)
            }
            "euclidean" | "euclid" | "l2" => Some(Self::Euclidean),
            _ => None,
        }
    }

    /// Whether a request under this metric at `min_pts` is *effectively*
    /// Euclidean: either the metric is Euclidean outright, or it is mutual
    /// reachability with every core distance identically zero
    /// (`min_pts ≤ 1`). The dispatch layer uses this to pick the Euclidean
    /// Borůvka arm and to validate Ward requests.
    pub fn effectively_euclidean(self, min_pts: usize) -> bool {
        match self {
            Self::Euclidean => true,
            Self::MutualReachability => min_pts <= 1,
        }
    }
}

impl core::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A metric usable by the Borůvka EMST and k-NN code paths.
///
/// All values are squared distances.
pub trait Metric: Sync {
    /// Squared distance between points `a` and `b`.
    fn dist2(&self, points: &PointSet, a: u32, b: u32) -> f32;

    /// Finalizes a precomputed squared **Euclidean** distance into this
    /// metric's squared distance for the pair `(a, b)`.
    ///
    /// Must agree exactly with [`Metric::dist2`]; the chunked leaf kernels
    /// ([`euclid_block_dist2`]) compute the Euclidean part for a whole block
    /// of points at once and hand each lane's result through here.
    fn refine_euclid2(&self, euclid_d2: f32, a: u32, b: u32) -> f32;

    /// Lower bound on the squared distance from query point `q` to any point
    /// inside the axis-aligned box `[bbox_min, bbox_max]`, given the minimum
    /// (squared) core distance of the points inside the box.
    fn box_bound2(&self, points: &PointSet, q: u32, box_dist2: f32, box_min_core2: f32) -> f32;

    /// Lower bound on the squared distance between *any* point of one box
    /// and *any* point of another, given the squared box–box distance and
    /// each box's minimum squared core distance — the node-to-node bound of
    /// the kd-tree's subtree margin query ([`crate::KdTree::subtree_margin`]).
    fn node_bound2(&self, box_box_dist2: f32, min_core2_a: f32, min_core2_b: f32) -> f32;
}

/// Width of the chunked leaf distance kernels: distances to this many
/// consecutive points are computed per inner-loop step.
///
/// Eight f32 lanes fill one AVX2 register (or two NEON registers), and the
/// kernels below are written as fixed-trip-count loops over contiguous
/// coordinates precisely so LLVM auto-vectorizes them at this width.
pub const LEAF_BLOCK: usize = 8;

/// Squared Euclidean distances from `q` (one point, `dim` coordinates) to
/// one [`LEAF_BLOCK`]-point coordinate block in **dimension-major** layout:
/// `block[d * LEAF_BLOCK + j]` is coordinate `d` of block point `j`
/// (AoSoA — the kd-tree stores leaf coordinates this way).
///
/// Every dimension is a contiguous 8-lane subtract–square–accumulate with a
/// fixed trip count, the exact shape LLVM turns into packed vector ops; no
/// strided loads or shuffles are needed. Callers always pass a full block
/// (padding lanes compute garbage distances that are simply never read).
#[inline]
pub fn euclid_block_dist2(q: &[f32], block: &[f32], out: &mut [f32; LEAF_BLOCK]) {
    debug_assert_eq!(block.len(), q.len() * LEAF_BLOCK);
    match *q {
        [q0, q1] => {
            for j in 0..LEAF_BLOCK {
                let dx = block[j] - q0;
                let dy = block[LEAF_BLOCK + j] - q1;
                out[j] = dx * dx + dy * dy;
            }
        }
        [q0, q1, q2] => {
            for j in 0..LEAF_BLOCK {
                let dx = block[j] - q0;
                let dy = block[LEAF_BLOCK + j] - q1;
                let dz = block[2 * LEAF_BLOCK + j] - q2;
                out[j] = dx * dx + dy * dy + dz * dz;
            }
        }
        _ => {
            out.fill(0.0);
            for (d, &qc) in q.iter().enumerate() {
                let lane = &block[d * LEAF_BLOCK..(d + 1) * LEAF_BLOCK];
                for j in 0..LEAF_BLOCK {
                    let diff = lane[j] - qc;
                    out[j] += diff * diff;
                }
            }
        }
    }
}

/// Squared distance from a point to an axis-aligned bounding box.
///
/// Per-axis overshoot as a branch-free clamp, with the same low-dimension
/// specialization as [`crate::point::PointSet::dist2`] — this runs twice
/// per internal node visited on the kd-tree hot path.
#[inline(always)]
pub fn point_box_dist2(p: &[f32], bbox_min: &[f32], bbox_max: &[f32]) -> f32 {
    #[inline(always)]
    fn axis(c: f32, lo: f32, hi: f32) -> f32 {
        let diff = (lo - c).max(c - hi).max(0.0);
        diff * diff
    }
    match p.len() {
        2 => axis(p[0], bbox_min[0], bbox_max[0]) + axis(p[1], bbox_min[1], bbox_max[1]),
        3 => {
            axis(p[0], bbox_min[0], bbox_max[0])
                + axis(p[1], bbox_min[1], bbox_max[1])
                + axis(p[2], bbox_min[2], bbox_max[2])
        }
        _ => {
            let mut acc = 0.0f32;
            for d in 0..p.len() {
                acc += axis(p[d], bbox_min[d], bbox_max[d]);
            }
            acc
        }
    }
}

/// Squared distance between two axis-aligned boxes: per axis, the gap
/// between the intervals (0 where they overlap).
///
/// Every per-axis gap lower-bounds the coordinate difference of any pair of
/// points drawn from the two boxes, and rounded subtraction, squaring and
/// summation are monotone, so the result never exceeds the
/// [`euclid_block_dist2`] distance of such a pair.
#[inline]
pub fn box_box_dist2(a_min: &[f32], a_max: &[f32], b_min: &[f32], b_max: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for d in 0..a_min.len() {
        let gap = (a_min[d] - b_max[d]).max(b_min[d] - a_max[d]).max(0.0);
        acc += gap * gap;
    }
    acc
}

/// Plain Euclidean distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euclidean;

impl Metric for Euclidean {
    #[inline(always)]
    fn dist2(&self, points: &PointSet, a: u32, b: u32) -> f32 {
        points.dist2(a as usize, b as usize)
    }

    #[inline(always)]
    fn refine_euclid2(&self, euclid_d2: f32, _a: u32, _b: u32) -> f32 {
        euclid_d2
    }

    #[inline(always)]
    fn box_bound2(&self, _points: &PointSet, _q: u32, box_dist2: f32, _box_min_core2: f32) -> f32 {
        box_dist2
    }

    #[inline(always)]
    fn node_bound2(&self, box_box_dist2: f32, _min_core2_a: f32, _min_core2_b: f32) -> f32 {
        box_box_dist2
    }
}

/// HDBSCAN\*'s mutual reachability distance over squared core distances.
#[derive(Debug, Clone, Copy)]
pub struct MutualReachability<'a> {
    /// Squared core distance (distance to the `minPts`-th neighbour) per point.
    pub core2: &'a [f32],
}

impl Metric for MutualReachability<'_> {
    #[inline(always)]
    fn dist2(&self, points: &PointSet, a: u32, b: u32) -> f32 {
        let d2 = points.dist2(a as usize, b as usize);
        d2.max(self.core2[a as usize]).max(self.core2[b as usize])
    }

    #[inline(always)]
    fn refine_euclid2(&self, euclid_d2: f32, a: u32, b: u32) -> f32 {
        euclid_d2
            .max(self.core2[a as usize])
            .max(self.core2[b as usize])
    }

    #[inline(always)]
    fn box_bound2(&self, _points: &PointSet, q: u32, box_dist2: f32, box_min_core2: f32) -> f32 {
        // d_mreach(q, x) ≥ max(core(q), d(q,x), min core in box) for any x
        // in the box.
        box_dist2.max(self.core2[q as usize]).max(box_min_core2)
    }

    #[inline(always)]
    fn node_bound2(&self, box_box_dist2: f32, min_core2_a: f32, min_core2_b: f32) -> f32 {
        // d_mreach(y, x) ≥ max(d(y,x), core(y), core(x)) for y, x in the
        // two boxes, and each core is at least its box's minimum.
        box_box_dist2.max(min_core2_a).max(min_core2_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_kind_parse_and_effective_euclidean() {
        for k in MetricKind::ALL {
            assert_eq!(MetricKind::parse(k.name()), Some(k));
        }
        assert_eq!(
            MetricKind::parse(" MREACH "),
            Some(MetricKind::MutualReachability)
        );
        assert_eq!(MetricKind::parse("L2"), Some(MetricKind::Euclidean));
        assert_eq!(MetricKind::parse("cosine"), None);
        assert!(MetricKind::Euclidean.effectively_euclidean(8));
        assert!(MetricKind::MutualReachability.effectively_euclidean(1));
        assert!(!MetricKind::MutualReachability.effectively_euclidean(2));
        assert_eq!(MetricKind::default(), MetricKind::MutualReachability);
    }

    #[test]
    fn point_box_distance() {
        let bbox_min = [0.0, 0.0];
        let bbox_max = [1.0, 1.0];
        assert_eq!(point_box_dist2(&[0.5, 0.5], &bbox_min, &bbox_max), 0.0);
        assert_eq!(point_box_dist2(&[2.0, 0.5], &bbox_min, &bbox_max), 1.0);
        assert_eq!(point_box_dist2(&[2.0, 2.0], &bbox_min, &bbox_max), 2.0);
        assert_eq!(point_box_dist2(&[-1.0, 0.5], &bbox_min, &bbox_max), 1.0);
    }

    #[test]
    fn mutual_reachability_takes_max() {
        let points = PointSet::new(vec![0.0, 0.0, 1.0, 0.0], 2);
        let core2 = vec![4.0, 0.25];
        let m = MutualReachability { core2: &core2 };
        // d² = 1, core²(0) = 4 dominates.
        assert_eq!(m.dist2(&points, 0, 1), 4.0);
        let m2 = MutualReachability { core2: &[0.0, 0.0] };
        assert_eq!(m2.dist2(&points, 0, 1), 1.0);
    }

    #[test]
    fn block_kernel_matches_scalar_dist2() {
        for dim in [2usize, 3, 5] {
            // One full AoSoA block of deterministic coordinates plus a
            // query point; the kernel must agree bitwise with the scalar
            // path (the tree's `refine_euclid2` contract depends on it).
            let n = LEAF_BLOCK;
            let coords: Vec<f32> = (0..(n + 1) * dim)
                .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
                .collect();
            let points = PointSet::new(coords, dim);
            let q = points.point(n);
            // Dimension-major block: lane d holds coordinate d of all points.
            let mut block = vec![0.0f32; LEAF_BLOCK * dim];
            for p in 0..n {
                for (d, &c) in points.point(p).iter().enumerate() {
                    block[d * LEAF_BLOCK + p] = c;
                }
            }
            let mut out = [0.0f32; LEAF_BLOCK];
            euclid_block_dist2(q, &block, &mut out);
            for (p, &got) in out.iter().enumerate() {
                assert_eq!(got, points.dist2(n, p), "dim={dim} p={p}");
            }
        }
    }

    #[test]
    fn refine_euclid2_agrees_with_dist2() {
        let points = PointSet::new(vec![0.0, 0.0, 3.0, 4.0, 1.0, 1.0], 2);
        let core2 = vec![4.0, 30.0, 0.5];
        let m = MutualReachability { core2: &core2 };
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2)] {
            let e2 = points.dist2(a as usize, b as usize);
            assert_eq!(m.refine_euclid2(e2, a, b), m.dist2(&points, a, b));
            assert_eq!(
                Euclidean.refine_euclid2(e2, a, b),
                Euclidean.dist2(&points, a, b)
            );
        }
    }

    #[test]
    fn bounds_never_exceed_distance() {
        let points = PointSet::new(vec![0.0, 0.0, 3.0, 4.0], 2);
        let core2 = vec![1.0, 9.0];
        let m = MutualReachability { core2: &core2 };
        let d2 = m.dist2(&points, 0, 1);
        // Box containing point 1 exactly.
        let bd2 = point_box_dist2(points.point(0), points.point(1), points.point(1));
        let bound = m.box_bound2(&points, 0, bd2, 9.0);
        assert!(bound <= d2);
    }
}
