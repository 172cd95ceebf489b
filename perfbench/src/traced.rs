//! The traced run: per-layer numbers from spans recorded around calls
//! into each layer's public functions, all from the benchmark's own code.
//!
//! The cold pipeline is rebuilt stage by stage from public calls — the
//! sequence the one-shot path runs: kd-tree, sorted k-NN rows, core
//! distances, Borůvka, sort, dendrogram, condense/select/extract — and its
//! result must equal the untraced `Hdbscan::run` bit for bit. Spans that
//! wrap a call which also times itself (`StageTimings`, `EmstTimings`,
//! `PhaseTimings`, the index's freeze seconds) are cross-checked against
//! that figure: the medians must agree within [`CROSS_CHECK_ABS_S`] +
//! [`CROSS_CHECK_REL`] × span, which shows each span brackets the call it
//! names.

use std::hint::black_box;
use std::time::Duration;

use pandora_core::baseline::dendrogram_union_find_mt;
use pandora_core::{DendrogramBackend, DendrogramWorkspace, Edge, SortedMst};
use pandora_exec::{ExecCtx, ScratchPool};
use pandora_hdbscan::{
    cluster_stabilities, condense, extract_labels, select_clusters, HdbscanResult, StageTimings,
};
use pandora_mst::kdtree::DEFAULT_LEAF_SIZE;
use pandora_mst::knn::core2_from_rows;
use pandora_mst::{
    boruvka_mst_with, emst_from_index_with, knn_rows_into, BoruvkaExtras, BoruvkaStats, EmstIndex,
    EmstScratch, KdTree, KnnRows, MetricKind, MutualReachability, PointSet, ROW_SLACK,
};

use crate::checks;
use crate::daemon_mix::{replay, with_mix};
use crate::report::{Metrics, Tally};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{hdbscan, Kind, CEILING, MIN_CLUSTER_SIZE, MIN_PTS};

/// Absolute slack of the span cross-check (clock reads, call overhead).
pub const CROSS_CHECK_ABS_S: f64 = 0.002;
/// Relative slack of the span cross-check (drops and allocations the
/// program's own timers leave out).
pub const CROSS_CHECK_REL: f64 = 0.10;
/// Cluster requests replayed serially to split daemon compute from queueing.
const REPLAYED: usize = 48;

/// Medians of `(span, own)` pairs agree within the stated tolerance.
fn cross_check(tally: &mut Tally, what: &str, pairs: &[(f64, f64)]) {
    let diff: Vec<f64> = pairs.iter().map(|(s, o)| s - o).collect();
    let span: Vec<f64> = pairs.iter().map(|(s, _)| *s).collect();
    let (Some(d), Some(s)) = (median(&diff), median(&span)) else {
        tally.check(what, false, || "no samples".into());
        return;
    };
    let ok = d >= -50e-6 && d <= CROSS_CHECK_ABS_S + CROSS_CHECK_REL * s;
    tally.check(what, ok, || {
        format!("span median {s:.6} s exceeds the program's own timing by {d:.6} s")
    });
}

fn same_edges(a: &[Edge], b: &[Edge]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.u, x.v, x.w.to_bits()) == (y.u, y.v, y.w.to_bits()))
}

/// Stage-by-stage cold pipeline under spans; returns the result, the raw
/// Borůvka edges and the Borůvka counters of this run.
fn recompose(
    ctx: &ExecCtx,
    points: &PointSet,
    rec: &Recorder,
    rid: u64,
) -> (HdbscanResult, Vec<Edge>, (u64, u64)) {
    let n = points.len();
    let parent = rec.open("pipeline.cold", None, rid);
    let p = Some(parent);
    let (tree, _) = rec.time("mst.kdtree.build", p, rid, || {
        KdTree::build_with_leaf_size(ctx, points, DEFAULT_LEAF_SIZE)
    });
    let k = (MIN_PTS - 1 + ROW_SLACK).min(n - 1);
    let ((row_d2, row_idx), _) = rec.time("mst.knn.rows", p, rid, || {
        let (mut d2, mut idx) = (Vec::new(), Vec::new());
        knn_rows_into(ctx, points, &tree, k, &mut d2, &mut idx);
        (d2, idx)
    });
    let ((core2, node_core2), _) = rec.time("mst.knn.core2", p, rid, || {
        let mut core2 = vec![0.0f32; n];
        core2_from_rows(ctx, &row_d2, k, MIN_PTS, &mut core2);
        let mut node_core2 = Vec::new();
        tree.min_core2_into(&core2, &mut node_core2);
        (core2, node_core2)
    });
    let stats = BoruvkaStats::new();
    let pool = ScratchPool::new();
    let (edges, _) = rec.time("mst.boruvka", p, rid, || {
        let extras = BoruvkaExtras {
            rows: Some(KnnRows {
                k,
                d2: &row_d2,
                idx: &row_idx,
            }),
            node_core2: &node_core2,
            stats: Some(&stats),
            ..Default::default()
        };
        boruvka_mst_with(
            ctx,
            points,
            &tree,
            &MutualReachability { core2: &core2 },
            extras,
            &pool,
        )
    });
    let (mst, _) = rec.time("core.edge.sort", p, rid, || {
        SortedMst::from_edges(ctx, n, &edges)
    });
    let ((dendrogram, pandora_stats), _) = rec.time("core.dendro.build", p, rid, || {
        DendrogramBackend::AlphaContraction.build(ctx, &mst, &mut DendrogramWorkspace::new())
    });
    let (condensed, _) = rec.time("hdbscan.extract.condense", p, rid, || {
        condense(&dendrogram, MIN_CLUSTER_SIZE)
    });
    let ((stabilities, selected), _) = rec.time("hdbscan.extract.select", p, rid, || {
        let stabilities = cluster_stabilities(&condensed);
        let selected = select_clusters(&condensed, &stabilities, false);
        (stabilities, selected)
    });
    let ((labels, probabilities), _) = rec.time("hdbscan.extract.labels", p, rid, || {
        extract_labels(&condensed, &selected)
    });
    rec.close(parent);
    let result = HdbscanResult {
        core2,
        mst,
        dendrogram,
        condensed,
        stabilities,
        labels,
        probabilities,
        timings: StageTimings::default(),
        pandora_stats,
    };
    (result, edges, (stats.witness_hits(), stats.researches()))
}

/// Runs every traced phase on the workload's round-0 points and returns
/// the per-layer metrics.
pub fn run_traced(kind: Kind, seed: u64, tally: &mut Tally, rec: &Recorder) -> Metrics {
    let mut m = Metrics::default();
    let plan = kind.plan();
    let threads = ExecCtx::threads();
    let serial = ExecCtx::serial();
    let (points, truth) = kind.points(seed, 0);
    let points = &points;
    let n = points.len();
    let reps = plan.min_rounds;
    let med = |name: &str| median(&rec.durations_s(name));

    // exec pool: the one-shot run on 2 lanes and on one.
    let one_shot = hdbscan(threads.clone());
    let mut cold = None;
    let mut pairs = Vec::new();
    for rep in 0..reps {
        let (result, s) = rec.time("hdbscan.run", None, rep as u64, || one_shot.run(points));
        pairs.push((s, result.timings.total()));
        tally.ok(1);
        cold.get_or_insert(result);
    }
    cross_check(tally, "span vs StageTimings (Hdbscan::run)", &pairs);
    let Some(cold) = cold else {
        return m;
    };
    let cold_s = med("hdbscan.run");
    let serial_one_shot = hdbscan(serial.clone());
    for rep in 0..reps.div_ceil(2) {
        let (result, _) = rec.time("hdbscan.run_serial", None, rep as u64, || {
            serial_one_shot.run(points)
        });
        tally.check(
            "serial ≡ threaded",
            checks::same_result(&result, &cold).is_ok(),
            || "serial one-shot differs".into(),
        );
    }
    let cold_serial_s = med("hdbscan.run_serial");
    m.put("exec.cold_serial_s", "s", cold_serial_s);
    m.put(
        "exec.lane_speedup",
        "x",
        cold_serial_s.zip(cold_s).map(|(s, c)| s / c),
    );

    // Stage-by-stage recomposition.
    let mut raw = Vec::new();
    let mut recomposed = None;
    let (mut hits, mut researches) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let (result, edges, (h, r)) = recompose(&threads, points, rec, 1000 + rep as u64);
        let same = checks::same_result(&result, &cold);
        tally.check("recomposition ≡ Hdbscan::run", same.is_ok(), || {
            format!("{same:?}")
        });
        hits.push(h as f64);
        researches.push(r as f64);
        raw = edges;
        recomposed = Some(result);
    }
    let Some(recomposed) = recomposed else {
        return m;
    };
    for (metric, span) in [
        ("mst.kdtree.build_s", "mst.kdtree.build"),
        ("mst.knn.rows_s", "mst.knn.rows"),
        ("mst.knn.core2_s", "mst.knn.core2"),
        ("mst.boruvka.s", "mst.boruvka"),
        ("core.edge.sort_s", "core.edge.sort"),
        ("hdbscan.extract.condense_s", "hdbscan.extract.condense"),
        ("hdbscan.extract.select_s", "hdbscan.extract.select"),
        ("hdbscan.extract.labels_s", "hdbscan.extract.labels"),
    ] {
        m.put(metric, "s", med(span));
    }
    let (hits, researches) = (median(&hits), median(&researches));
    m.put("mst.boruvka.witness_hits", "count", hits);
    m.put("mst.boruvka.researches", "count", researches);
    m.put(
        "mst.boruvka.witness_hit_ratio",
        "ratio",
        hits.zip(researches).map(|(h, r)| h / (h + r).max(1.0)),
    );
    let traced = med("pipeline.cold");
    m.put("trace.cold_traced_s", "s", traced);
    m.put(
        "trace.overhead_s",
        "s",
        traced.zip(cold_s).map(|(t, c)| t - c),
    );
    m.put(
        "trace.pipeline_self_s",
        "s",
        median(&rec.self_times_s("pipeline.cold")),
    );

    // mst::index — fresh freeze, first request on a fresh scratch, then
    // warm repeats on the reused scratch.
    let (mut freeze_pairs, mut request_pairs) = (Vec::new(), Vec::new());
    let mut last: Option<(EmstIndex, EmstScratch)> = None;
    for rep in 0..reps {
        last = None;
        let copy = points.clone();
        let (index, s) = rec.time("mst.index.freeze", None, rep as u64, || {
            EmstIndex::freeze(&threads, copy, CEILING)
        });
        let Some(index) = tally.op("index freeze", index) else {
            continue;
        };
        freeze_pairs.push((s, index.build_seconds() + index.rows_seconds()));
        let mut scratch = EmstScratch::new();
        let (emst, s) = rec.time("mst.index.request_first", None, rep as u64, || {
            emst_from_index_with(
                &threads,
                &index,
                MIN_PTS,
                MetricKind::MutualReachability,
                &mut scratch,
            )
        });
        if let Some(emst) = tally.op("index request", emst) {
            request_pairs.push((s, emst.timings.total()));
            tally.check(
                "index edges ≡ recomposition",
                same_edges(&emst.edges, &raw),
                || "edges differ".into(),
            );
            last = Some((index, scratch));
        }
    }
    cross_check(tally, "span vs freeze seconds", &freeze_pairs);
    if let Some((index, mut scratch)) = last {
        let (takes0, hits0) = (scratch.pool().takes(), scratch.pool().reuse_hits());
        let mut warm_reps = 0usize;
        for rep in 0..reps * plan.warm {
            let (emst, s) = rec.time("mst.index.request_warm", None, rep as u64, || {
                emst_from_index_with(
                    &threads,
                    &index,
                    MIN_PTS,
                    MetricKind::MutualReachability,
                    &mut scratch,
                )
            });
            if let Some(emst) = tally.op("warm index request", emst) {
                request_pairs.push((s, emst.timings.total()));
                warm_reps += 1;
            }
        }
        let takes = scratch.pool().takes() - takes0;
        let reused = scratch.pool().reuse_hits() - hits0;
        m.put(
            "exec.scratch.takes",
            "count",
            Some(takes as f64 / warm_reps.max(1) as f64),
        );
        m.put(
            "exec.scratch.reuse_ratio",
            "ratio",
            Some(reused as f64 / takes.max(1) as f64),
        );
    }
    cross_check(tally, "span vs EmstTimings", &request_pairs);
    m.put("mst.index.freeze_s", "s", med("mst.index.freeze"));
    m.put(
        "mst.index.request_first_s",
        "s",
        med("mst.index.request_first"),
    );
    m.put(
        "mst.index.request_warm_s",
        "s",
        med("mst.index.request_warm"),
    );

    // core dendrogram backends on the recomposition's sorted MST.
    let mst = &recomposed.mst;
    let mut phase_pairs = Vec::new();
    for (span, backend, ctx) in [
        (
            "core.dendro.alpha",
            DendrogramBackend::AlphaContraction,
            &threads,
        ),
        (
            "core.dendro.alpha_serial",
            DendrogramBackend::AlphaContraction,
            &serial,
        ),
        (
            "core.dendro.work_optimal",
            DendrogramBackend::WorkOptimal,
            &threads,
        ),
        (
            "core.dendro.work_optimal_serial",
            DendrogramBackend::WorkOptimal,
            &serial,
        ),
    ] {
        let mut ws = DendrogramWorkspace::new();
        for rep in 0..reps * plan.dendro {
            let ((d, stats), s) =
                rec.time(span, None, rep as u64, || backend.build(ctx, mst, &mut ws));
            if span == "core.dendro.alpha" {
                phase_pairs.push((s, stats.timings.total()));
            }
            if rep == 0 {
                let same = checks::same_dendrogram(&d, &recomposed.dendrogram);
                tally.check(span, same, || {
                    format!("{span} differs from the pipeline dendrogram")
                });
            }
        }
    }
    cross_check(tally, "span vs PhaseTimings", &phase_pairs);
    for rep in 0..reps * plan.dendro {
        let ((d, _, _), _) = rec.time("core.dendro.ufmt", None, rep as u64, || {
            dendrogram_union_find_mt(&threads, n, &raw)
        });
        if rep == 0 {
            let same = checks::same_dendrogram(&d, &recomposed.dendrogram);
            tally.check("union-find", same, || "union-find differs".into());
        }
        black_box(d);
    }
    for (metric, span) in [
        ("core.dendro.alpha_s", "core.dendro.alpha"),
        ("core.dendro.alpha_serial_s", "core.dendro.alpha_serial"),
        ("core.dendro.work_optimal_s", "core.dendro.work_optimal"),
        (
            "core.dendro.work_optimal_serial_s",
            "core.dendro.work_optimal_serial",
        ),
        ("core.dendro.ufmt_s", "core.dendro.ufmt"),
    ] {
        m.put(metric, "s", med(span));
    }
    m.count(
        "core.dendro.levels",
        recomposed.pandora_stats.n_levels as u64,
    );
    m.put(
        "core.dendro.skew",
        "ratio",
        Some(recomposed.dendrogram.skewness()),
    );
    if let Some(truth) = &truth {
        let ok = checks::planted(&cold.labels, truth, crate::workload::BLOBS);
        tally.check("planted clusters", ok.is_ok(), || format!("{ok:?}"));
    }

    // hdbscan::daemon — the same mix as the untraced run, then a serial
    // replay of its first cluster requests.
    let served = |draw| kind.served(seed, draw);
    let run = with_mix(
        &served,
        seed,
        plan.mix,
        plan.setup_loads,
        tally,
        Some(rec),
        |w, _| {
            for _ in 0..reps {
                w.round();
            }
            w.top_up(Duration::from_secs(60));
        },
    );
    let Some(((), mix)) = run else {
        return m;
    };
    let (compute, encode) = replay(&served(0), &mix.completions, REPLAYED, tally, rec);
    let ms = |v: Option<f64>| v.map(|x| x * 1e3);
    let client_p50 = ms(median(&mix.cluster_s));
    let compute_p50 = ms(median(&compute));
    m.put("hdbscan.daemon.server_p50_ms", "ms", mix.server_p50_ms);
    m.put("hdbscan.daemon.server_p95_ms", "ms", mix.server_p95_ms);
    m.put("hdbscan.daemon.compute_ms", "ms", compute_p50);
    m.put(
        "hdbscan.daemon.queue_ms",
        "ms",
        mix.server_p50_ms.zip(compute_p50).map(|(s, c)| s - c),
    );
    m.put(
        "hdbscan.daemon.wire_ms",
        "ms",
        client_p50.zip(mix.server_p50_ms).map(|(c, s)| c - s),
    );
    m.put("hdbscan.daemon.encode_ms", "ms", ms(median(&encode)));
    m.put("hdbscan.daemon.reload_ms", "ms", ms(median(&mix.reload_s)));
    if let Some(c) = mix.counters {
        m.count("hdbscan.daemon.engine_runs", c.engine_runs);
        m.count("hdbscan.daemon.coalesced", c.coalesced);
        m.count("hdbscan.daemon.shed", c.shed);
        m.count("hdbscan.daemon.served", c.served);
    }
    m.count("hdbscan.daemon.researches", mix.boruvka.researches);
    m.count("hdbscan.daemon.witness_hits", mix.boruvka.witness_hits);
    m.count("mst.boruvka.snapshot_adopts", mix.boruvka.snapshot_adopts);
    m
}
