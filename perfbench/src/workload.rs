//! The three workloads: their inputs (made from the seed alone) and the
//! in-process lifecycle each one runs — cold one-shot runs, fresh freeze +
//! first request, warm repeats and the dendrogram loop.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pandora_core::{Dendrogram, DendrogramBackend, DendrogramWorkspace, Edge, SortedMst};
use pandora_data::registry::by_name;
use pandora_data::synthetic::gaussian_blobs;
use pandora_exec::ExecCtx;
use pandora_hdbscan::{
    ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams, HdbscanResult, Linkage,
};
use pandora_mst::{emst_from_index_with, EmstScratch, MetricKind, PointSet};

use crate::daemon_mix::{Shape, Windows};
use crate::report::{secs, Tally};

/// `minPts` of every in-process request.
pub const MIN_PTS: usize = 8;
/// `min_cluster_size` of every in-process request.
pub const MIN_CLUSTER_SIZE: usize = 20;
/// Freeze ceiling: the largest `minPts` a frozen index serves.
pub const CEILING: usize = 16;
/// Size of the Hacc37M proxy, served by the daemon on daemon-mixed.
pub const HACC_N: usize = 32_768;
/// Size of the draw the daemon serves on the two in-process workloads:
/// small enough that the mix completes hundreds of requests per run.
pub const SERVED_N: usize = 8_192;
/// Planted clusters in the blob workloads.
pub const BLOBS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Blobs3dLifecycle,
    DendroSkewed,
    DaemonMixed,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::Blobs3dLifecycle,
        Kind::DendroSkewed,
        Kind::DaemonMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Blobs3dLifecycle => "blobs3d-lifecycle",
            Kind::DendroSkewed => "dendro-skewed",
            Kind::DaemonMixed => "daemon-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The in-process points of round `round`, with the planted blob of
    /// each point where the generator has one. Every round draws a new
    /// dataset from the seed, so a run's medians cover several draws and
    /// the run-to-run spread reflects the code and the host more than the
    /// luck of one draw. Round 0 uses the seed itself.
    pub fn points(self, seed: u64, round: usize) -> (PointSet, Option<Vec<u32>>) {
        let seed = round_seed(seed, round);
        match self {
            Kind::Blobs3dLifecycle => {
                let (points, truth) = gaussian_blobs(100_000, 3, BLOBS, 60.0, 1.0, seed);
                (points, Some(truth))
            }
            Kind::DendroSkewed => (generate("Normal100M2D", 400_000, seed), None),
            Kind::DaemonMixed => (generate("Hacc37M", HACC_N, seed), None),
        }
    }

    /// Draw `draw` of the dataset the daemon serves (the in-process points
    /// of the same round on daemon-mixed). Each mix window reloads the
    /// next draw.
    pub fn served(self, seed: u64, draw: usize) -> PointSet {
        let draw_seed = round_seed(seed, draw);
        match self {
            Kind::Blobs3dLifecycle => gaussian_blobs(SERVED_N, 3, BLOBS, 60.0, 1.0, draw_seed).0,
            Kind::DendroSkewed => generate("Normal100M2D", SERVED_N, draw_seed),
            Kind::DaemonMixed => self.points(seed, draw).0,
        }
    }

    /// How one run divides its work into rounds (see `Plan`).
    pub fn plan(self) -> Plan {
        match self {
            Kind::Blobs3dLifecycle => Plan {
                min_rounds: 5,
                warm: 2,
                dendro: 3,
                mix: Shape { blocks: 3 },
                setup_loads: 1,
            },
            Kind::DendroSkewed => Plan {
                min_rounds: 5,
                warm: 2,
                dendro: 3,
                mix: Shape { blocks: 2 },
                setup_loads: 1,
            },
            Kind::DaemonMixed => Plan {
                min_rounds: 8,
                warm: 3,
                dendro: 5,
                mix: Shape { blocks: 2 },
                setup_loads: 7,
            },
        }
    }
}

/// A run is a sequence of rounds, repeated until `--seconds` have passed
/// (and at least `min_rounds`): one cold run, one fresh freeze + first
/// request, `warm` warm repeats, `dendro` dendrogram builds, with a window
/// of the daemon mix (cut as `mix`) after each phase. Interleaving spreads
/// every metric's samples over the whole run, so a slow spell of the host
/// shifts all of them a little instead of one of them a lot.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub min_rounds: usize,
    pub warm: usize,
    pub dendro: usize,
    pub mix: Shape,
    /// Wire `load`s sent before the first window (timed as `setup_s` on
    /// daemon-mixed).
    pub setup_loads: usize,
}

/// Seed of round (or draw) `round`; round 0 is the run's seed itself.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64).wrapping_mul(1_000_003))
}

fn generate(dataset: &str, n: usize, seed: u64) -> PointSet {
    by_name(dataset)
        .unwrap_or_else(|| panic!("dataset {dataset} is registered"))
        .generate(n, seed)
}

/// The in-process request: `minPts` 8, single linkage and α-contraction
/// pinned so no environment variable can change the code path.
pub fn request(min_pts: usize, min_cluster_size: usize) -> ClusterRequest {
    ClusterRequest::new()
        .min_pts(min_pts)
        .min_cluster_size(min_cluster_size)
        .linkage(Linkage::Single)
        .dendrogram(DendrogramBackend::AlphaContraction)
}

/// The one-shot HDBSCAN* front end at minPts 8, min_cluster_size 20.
pub fn hdbscan(ctx: ExecCtx) -> Hdbscan {
    Hdbscan::with_ctx(
        HdbscanParams {
            min_pts: MIN_PTS,
            min_cluster_size: MIN_CLUSTER_SIZE,
            allow_single_cluster: false,
        },
        ctx,
    )
}

/// Samples of the in-process lifecycle, plus the outputs of its last
/// round for the output checks.
pub struct Lifecycle {
    pub n: usize,
    pub cold_s: Vec<f64>,
    /// Wall time of each `DatasetIndex::freeze(points, 16)`.
    pub freeze_s: Vec<f64>,
    pub first_s: Vec<f64>,
    pub warm_s: Vec<f64>,
    /// `SortedMst::from_edges` + α-contraction on the raw Borůvka edges.
    pub dendro_s: Vec<f64>,
    /// Borůvka work on the indexes the first and warm requests used.
    pub witness_hits: u64,
    pub researches: u64,
    pub last: Round,
}

/// The outputs of one round.
pub struct Round {
    pub truth: Option<Vec<u32>>,
    pub cold: HdbscanResult,
    pub warm: HdbscanResult,
    pub raw_edges: Vec<Edge>,
    pub mst: SortedMst,
    pub alpha: Dendrogram,
}

/// Runs the in-process lifecycle in rounds (see [`Plan`]), with a daemon
/// window after each of a round's three phases.
pub fn lifecycle(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    windows: &Windows<'_>,
) -> Option<Lifecycle> {
    let plan = kind.plan();
    let ctx = ExecCtx::threads();
    let req = request(MIN_PTS, MIN_CLUSTER_SIZE);
    let one_shot = hdbscan(ctx.clone());
    let mut ws = DendrogramWorkspace::new();
    let (mut cold_s, mut freeze_s, mut first_s, mut warm_s, mut dendro_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut witness_hits, mut researches) = (0, 0);
    let mut last = None;
    let mut n = 0;
    let start = Instant::now();
    let mut round = 0;
    while round < plan.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let (points, truth) = kind.points(seed, round);
        n = points.len();
        round += 1;

        // Cold: points → labels on a fresh engine.
        let t = Instant::now();
        let cold = black_box(one_shot.run(black_box(&points)));
        cold_s.push(secs(t));
        tally.ok(1);
        windows.window();

        // Fresh freeze + first request: no endgame snapshot published yet.
        let copy = points.clone();
        let t = Instant::now();
        let frozen = DatasetIndex::freeze(copy, CEILING);
        freeze_s.push(secs(t));
        let index = Arc::new(tally.op("freeze", frozen)?);
        let mut session = index.session();
        let t = Instant::now();
        let run = session.run(&req);
        first_s.push(secs(t));
        tally.op("first request", run.map(black_box))?;

        // Warm: the same request again on the same session (replay).
        let mut warm = None;
        for _ in 0..plan.warm {
            let t = Instant::now();
            let run = session.run(&req);
            warm_s.push(secs(t));
            warm = Some(tally.op("warm request", run)?);
        }
        let mut scratch = EmstScratch::new();
        let emst = emst_from_index_with(
            &ctx,
            index.emst(),
            MIN_PTS,
            MetricKind::MutualReachability,
            &mut scratch,
        );
        let raw_edges = tally.op("raw MST edges", emst)?.edges;
        let stats = index.emst().stats();
        witness_hits += stats.witness_hits();
        researches += stats.researches();
        drop((session, index));
        windows.window();

        // Dendrogram loop over the raw (unsorted) edges of the same request.
        let mut built = None;
        for _ in 0..plan.dendro {
            let t = Instant::now();
            let mst = SortedMst::from_edges(&ctx, n, black_box(&raw_edges));
            let (alpha, _) = DendrogramBackend::AlphaContraction.build(&ctx, &mst, &mut ws);
            dendro_s.push(secs(t));
            tally.ok(1);
            built = Some((mst, black_box(alpha)));
        }
        let (mst, alpha) = built?;
        last = Some(Round {
            truth,
            cold,
            warm: warm?,
            raw_edges,
            mst,
            alpha,
        });

        windows.window();
    }
    windows.top_up(Duration::from_secs(60));
    Some(Lifecycle {
        n,
        cold_s,
        freeze_s,
        first_s,
        warm_s,
        dendro_s,
        witness_hits,
        researches,
        last: last?,
    })
}
