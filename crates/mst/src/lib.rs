//! # pandora-mst
//!
//! Euclidean and mutual-reachability minimum spanning trees — the substrate
//! the paper takes from ArborX (\[39\]) rebuilt in Rust:
//!
//! * [`point::PointSet`] — flat f32 point storage (rejects non-finite
//!   coordinates, so every distance downstream is finite);
//! * [`kdtree::KdTree`] — parallel-built bounding-box kd-tree with
//!   allocation-free k-NN and component-aware nearest-foreign queries
//!   (SoA node metadata, cached splits, fixed-capacity traversal stacks);
//! * [`knn`] — batched k-NN / HDBSCAN\* core distances over reused
//!   per-worker scratch;
//! * [`boruvka`] — parallel Borůvka MST over any [`metric::Metric`]
//!   (Euclidean or mutual reachability), warm-started across rounds;
//! * [`index`] — the one EMST pipeline: an immutable, shareable
//!   [`index::EmstIndex`] (tree built once per dataset, sorted k-NN rows
//!   serving every `minPts` up to the freeze ceiling by prefix) plus a
//!   per-request [`index::EmstScratch`] (pooled Borůvka buffers, endgame
//!   cache);
//! * [`emst`](mod@emst) — the one-shot call: freeze at `minPts`, answer one
//!   request, with per-stage timings and kernel-trace phases;
//! * [`linkage`] / [`nnchain`] — the agglomerative generalization: a
//!   per-request [`linkage::Linkage`] (single / complete / average / Ward)
//!   served by a nearest-neighbor-chain engine (ParChain, arXiv
//!   2106.04727) over the same frozen substrate, with per-request
//!   [`metric::MetricKind`] selection;
//! * [`prim`] / [`kruskal`] — exact oracles and graph-input MST.

pub mod boruvka;
pub mod emst;
pub mod error;
pub mod index;
pub mod kdtree;
pub mod knn;
pub mod kruskal;
pub mod linkage;
pub mod metric;
pub mod nnchain;
pub mod point;
pub mod prim;

pub use boruvka::{
    boruvka_mst_with, row_witness_scan, BoruvkaExtras, BoruvkaStats, EndgameCache, EndgameStore,
    SnapshotSet,
};
pub use emst::{emst, Emst, EmstTimings};
pub use error::PandoraError;
pub use index::{emst_from_index, emst_from_index_with, EmstIndex, EmstScratch, ROW_SLACK};
pub use kdtree::{ForeignSearch, KdTree, KnnHeap};
pub use knn::{core_distances2, knn_rows_into, KnnRows};
pub use linkage::{Linkage, LINKAGE_ENV};
pub use metric::{Euclidean, Metric, MetricKind, MutualReachability};
pub use nnchain::{nnchain_from_index, nnchain_merges, NnChainRun};
pub use point::PointSet;
