//! The serving API's contract, stress-tested: one `Arc<DatasetIndex>`
//! shared by many threads must answer every mixed request **bit-identical**
//! to the cold one-shot pipeline, with the scratch books balanced and no
//! panic reachable from user input. On adversarial inputs, one session's
//! MSTs must also equal the bare Borůvka reference (`common::emst`) bit
//! for bit, whatever it served before.
//!
//! The CI thread matrix runs this file under both `PANDORA_THREADS=1` and
//! `PANDORA_THREADS=4`, so the threaded-context paths (`ExecCtx::threads`
//! inside a serving thread, concurrent broadcasts on the global pool) are
//! exercised at both extremes.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::emst::{adversarial_points, bare_emst};
use pandora::core::SortedMst;
use pandora::data::synthetic::gaussian_blobs;
use pandora::exec::ExecCtx;
use pandora::hdbscan::{
    ClusterRequest, DatasetIndex, Hdbscan, HdbscanParams, HdbscanResult, PandoraError,
};
use pandora::mst::PointSet;

/// Asserts two pipeline results agree in every deterministic field.
fn assert_results_identical(a: &HdbscanResult, b: &HdbscanResult, what: &str) {
    assert_eq!(a.core2, b.core2, "{what}: core distances");
    assert_eq!(a.mst.src, b.mst.src, "{what}: MST sources");
    assert_eq!(a.mst.dst, b.mst.dst, "{what}: MST destinations");
    assert_eq!(a.mst.weight, b.mst.weight, "{what}: MST weights");
    assert_eq!(a.dendrogram, b.dendrogram, "{what}: dendrogram");
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.probabilities, b.probabilities, "{what}: probabilities");
    assert_eq!(a.stabilities, b.stabilities, "{what}: stabilities");
}

#[test]
fn concurrent_sessions_are_bit_identical_to_cold_runs() {
    const THREADS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 6;

    let (points, _) = gaussian_blobs(900, 2, 4, 110.0, 0.9, 31);
    // The mixed request matrix: minPts and min_cluster_size both vary, so
    // concurrent sessions exercise different row prefixes, different
    // metric ranks in the endgame cache, and different condense cuts.
    let mix = [
        ClusterRequest::new().min_pts(2),
        ClusterRequest::new().min_pts(3).min_cluster_size(3),
        ClusterRequest::new().min_pts(8).min_cluster_size(10),
        ClusterRequest::new().min_pts(16),
        ClusterRequest::new().min_pts(1), // plain single linkage
        ClusterRequest::new().min_pts(4).allow_single_cluster(true),
    ];

    // Ground truth per mix member, computed cold (fresh substrate each).
    let cold: Vec<HdbscanResult> = mix
        .iter()
        .map(|request| Hdbscan::with_ctx(request.to_params(), ExecCtx::serial()).run(&points))
        .collect();

    let index = Arc::new(DatasetIndex::freeze(points, 16).expect("finite dataset freezes"));

    // N threads × M requests, every thread walking the mix at a different
    // offset so distinct requests are genuinely in flight simultaneously.
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let index = Arc::clone(&index);
            let cold = &cold;
            let mix = &mix;
            scope.spawn(move || {
                let mut session = index.session();
                for i in 0..REQUESTS_PER_THREAD {
                    let which = (thread * 2 + i) % mix.len();
                    let served = session
                        .run(&mix[which])
                        .expect("every mix member is a valid request");
                    assert_results_identical(
                        &served,
                        &cold[which],
                        &format!("thread {thread} request {i} (mix {which})"),
                    );
                    assert_eq!(
                        session.scratch_outstanding(),
                        0,
                        "thread {thread}: leaked scratch after request {i}"
                    );
                }
            });
        }
    });

    // Every session parked its scratch on drop; the pool serves it back.
    assert_eq!(index.pooled_sessions(), THREADS);
    let mut warm = index.session();
    assert_eq!(index.pooled_sessions(), THREADS - 1);
    let served = warm.run(&mix[0]).expect("warm session still serves");
    assert_results_identical(&served, &cold[0], "post-stress warm session");
}

#[test]
fn serving_threads_may_use_the_shared_thread_pool() {
    // Sessions dispatching stages on ExecCtx::threads() from multiple
    // serving threads broadcast concurrently on the process-global pool;
    // results must still be exact (the pool serializes regions, never
    // corrupts them).
    let (points, _) = gaussian_blobs(500, 3, 3, 80.0, 1.0, 7);
    let cold = Hdbscan::with_ctx(
        ClusterRequest::new().min_pts(4).to_params(),
        ExecCtx::serial(),
    )
    .run(&points);
    let index = Arc::new(DatasetIndex::freeze(points, 8).expect("freeze"));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let index = Arc::clone(&index);
            let cold = &cold;
            scope.spawn(move || {
                let mut session = index.session_with_ctx(ExecCtx::threads());
                for _ in 0..3 {
                    let served = session
                        .run(&ClusterRequest::new().min_pts(4))
                        .expect("valid request");
                    assert_results_identical(&served, cold, "threaded-ctx session");
                }
            });
        }
    });
}

#[test]
fn a_second_session_warms_from_the_shared_endgame_store() {
    // The endgame store lives on the frozen index, not inside any session:
    // the first request against a dataset publishes its endgame snapshots,
    // and a session drawn cold afterwards — while the first still holds its
    // scratch, so nothing warm can be handed over through the park pool —
    // adopts them instead of re-proving the bounds from scratch. Observable
    // as an adoption tick plus a strictly smaller tree re-search bill on
    // the engine counters, with answers still bit-identical to cold.
    let (points, _) = gaussian_blobs(600, 2, 4, 160.0, 0.8, 21);
    let cold = Hdbscan::with_ctx(
        ClusterRequest::new().min_pts(4).to_params(),
        ExecCtx::serial(),
    )
    .run(&points);
    let index = Arc::new(DatasetIndex::freeze(points, 8).expect("freeze"));
    let stats = index.emst().stats();
    assert_eq!(stats.snapshot_adopts(), 0, "no adoption before any request");

    let mut first = index.session();
    let served = first
        .run(&ClusterRequest::new().min_pts(4))
        .expect("valid request");
    assert_results_identical(&served, &cold, "first (cold-store) session");
    assert!(
        index.emst().endgame_store().is_published(),
        "the first request must publish its endgame snapshots"
    );
    assert_eq!(
        stats.snapshot_adopts(),
        0,
        "the first session had nothing to adopt"
    );
    let first_searches = stats.researches();
    assert!(
        first_searches > 0,
        "separated blobs must force real endgame re-searches on a cold run"
    );

    // `first` is still alive, so this session starts from a fresh scratch.
    let mut second = index.session();
    let served = second
        .run(&ClusterRequest::new().min_pts(4))
        .expect("valid request");
    assert_results_identical(&served, &cold, "second (adopting) session");
    assert_eq!(
        stats.snapshot_adopts(),
        1,
        "the second session's cold scratch must adopt the published set"
    );
    let second_searches = stats.researches() - first_searches;
    assert!(
        second_searches < first_searches,
        "adopted endgame bounds must cut the re-search bill: \
         {second_searches} vs cold {first_searches}"
    );
}

#[test]
fn no_user_input_reaches_a_panic_in_the_serving_api() {
    // The acceptance checklist's error paths: non-finite coordinates,
    // min_pts ∈ {0, n + 1}, empty dataset — all errors, never panics.
    assert_eq!(
        PointSet::try_new(vec![1.0, f32::NAN, 2.0, 3.0], 2).err(),
        Some(PandoraError::NonFinite { point: 0, dim: 1 })
    );
    assert_eq!(
        PointSet::try_new(vec![1.0, 2.0, 3.0], 2).err(),
        Some(PandoraError::BadShape { len: 3, dim: 2 })
    );
    assert_eq!(
        DatasetIndex::freeze(PointSet::try_new(vec![], 2).expect("empty set is valid"), 2).err(),
        Some(PandoraError::EmptyDataset)
    );

    let (points, _) = gaussian_blobs(60, 2, 2, 40.0, 0.5, 3);
    let n = points.len();
    let index = Arc::new(DatasetIndex::freeze(points, n).expect("freeze at the n ceiling"));
    let mut session = index.session();
    // min_pts = n is the largest valid request; 0 and n + 1 are errors.
    assert!(session.run(&ClusterRequest::new().min_pts(n)).is_ok());
    for bad in [0usize, n + 1] {
        let err = session.run(&ClusterRequest::new().min_pts(bad));
        assert!(
            matches!(
                err,
                Err(PandoraError::BadParams {
                    param: "min_pts",
                    ..
                })
            ),
            "min_pts={bad} gave {err:?}"
        );
    }
    assert!(session
        .run(&ClusterRequest::new().min_cluster_size(0))
        .is_err());
    // Rejected requests leave the session fully serviceable.
    assert_eq!(session.scratch_outstanding(), 0);
    assert!(session.run(&ClusterRequest::new()).is_ok());
}

#[test]
fn request_order_cannot_leak_state_between_sessions() {
    // Two sessions over one index, interleaved wildly different requests:
    // the endgame cache and pooled buffers inside each session must never
    // bleed into the other's answers (each is compared against cold).
    let (points, _) = gaussian_blobs(400, 2, 3, 70.0, 0.8, 13);
    let orders: [&[usize]; 2] = [&[16, 2, 8, 2, 16], &[2, 16, 2, 8, 8]];
    let cold: Vec<HdbscanResult> = [2usize, 8, 16]
        .iter()
        .map(|&m| {
            Hdbscan::with_ctx(
                ClusterRequest::new().min_pts(m).to_params(),
                ExecCtx::serial(),
            )
            .run(&points)
        })
        .collect();
    let which = |m: usize| {
        [2usize, 8, 16]
            .iter()
            .position(|&x| x == m)
            .expect("member")
    };
    let index = Arc::new(DatasetIndex::freeze(points, 16).expect("freeze"));
    std::thread::scope(|scope| {
        for order in orders {
            let index = Arc::clone(&index);
            let cold = &cold;
            scope.spawn(move || {
                let mut session = index.session();
                for &m in order {
                    let served = session
                        .run(&ClusterRequest::new().min_pts(m))
                        .expect("valid request");
                    assert_results_identical(&served, &cold[which(m)], &format!("minPts={m}"));
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn repeated_and_unordered_requests_stay_identical(
        points in adversarial_points()
    ) {
        // A serving session sees arbitrary request orders — descending,
        // repeated, interleaved — on tie-heavy inputs. Every answer must
        // match the one-shot pipeline and, at the MST, the bare Borůvka
        // reference, regardless of what the session served before (the
        // endgame cache and row reuse must never leak state between
        // requests).
        let n = points.len();
        let requests: Vec<usize> = [8usize, 2, 8, 16, 2, 1].iter().map(|&m| m.min(n)).collect();
        let ceiling = requests.iter().copied().max().expect("non-empty");
        for ctx in [ExecCtx::serial(), ExecCtx::threads()] {
            let index = DatasetIndex::freeze_with_ctx(ctx.clone(), points.clone(), ceiling)
                .expect("freeze a non-empty dataset");
            let mut session = Arc::new(index).session();
            for &min_pts in &requests {
                let what = format!("lanes={} m={min_pts}", ctx.lanes());
                let served = session
                    .run(&ClusterRequest::new().min_pts(min_pts))
                    .expect("valid request");
                let params = HdbscanParams { min_pts, ..Default::default() };
                let one_shot = Hdbscan::with_ctx(params, ctx.clone()).run(&points);
                assert_results_identical(&served, &one_shot, &what);

                let bare = bare_emst(&ctx, &points, min_pts);
                let mst = SortedMst::from_edges(&ctx, n, &bare.edges);
                prop_assert_eq!(served.core2.as_slice(), bare.core2.as_slice(), "{}", &what);
                prop_assert_eq!(served.mst.src.as_slice(), mst.src.as_slice(), "{}", &what);
                prop_assert_eq!(served.mst.dst.as_slice(), mst.dst.as_slice(), "{}", &what);
                let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&served.mst.weight), bits(&mst.weight), "{}", &what);
            }
        }
    }
}
