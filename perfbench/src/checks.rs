//! Output checks. Each returns `Err(reason)` on a mismatch; the caller
//! counts it as a failed operation.

use std::collections::BTreeMap;

use pandora_core::baseline::dendrogram_union_find_mt;
use pandora_core::{Dendrogram, DendrogramBackend, DendrogramWorkspace, Edge, SortedMst};
use pandora_exec::ExecCtx;
use pandora_hdbscan::HdbscanResult;

/// Bit-for-bit equality of two pipeline results (core distances, MST,
/// dendrogram, labels, probabilities).
pub fn same_result(a: &HdbscanResult, b: &HdbscanResult) -> Result<(), String> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let parts = [
        ("core2", bits(&a.core2) == bits(&b.core2)),
        ("mst.src", a.mst.src == b.mst.src),
        ("mst.dst", a.mst.dst == b.mst.dst),
        ("mst.weight", bits(&a.mst.weight) == bits(&b.mst.weight)),
        ("dendrogram", same_dendrogram(&a.dendrogram, &b.dendrogram)),
        ("labels", a.labels == b.labels),
        (
            "probabilities",
            bits(&a.probabilities) == bits(&b.probabilities),
        ),
    ];
    match parts.iter().find(|(_, ok)| !ok) {
        Some((what, _)) => Err(format!("{what} differs")),
        None => Ok(()),
    }
}

/// Parents and heights equal, heights compared by bit pattern.
pub fn same_dendrogram(a: &Dendrogram, b: &Dendrogram) -> bool {
    a.edge_parent == b.edge_parent
        && a.vertex_parent == b.vertex_parent
        && a.edge_weight.len() == b.edge_weight.len()
        && a.edge_weight
            .iter()
            .zip(&b.edge_weight)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The flat clustering recovers the `k` planted blobs: exactly `k`
/// clusters, each drawn from one blob, each blob in one cluster, and at
/// most 5% of the points marked noise.
pub fn planted(labels: &[i32], truth: &[u32], k: usize) -> Result<(), String> {
    let mut blob_of_cluster: BTreeMap<i32, u32> = BTreeMap::new();
    let mut cluster_of_blob: BTreeMap<u32, i32> = BTreeMap::new();
    let mut noise = 0usize;
    for (&label, &blob) in labels.iter().zip(truth) {
        if label < 0 {
            noise += 1;
            continue;
        }
        if *blob_of_cluster.entry(label).or_insert(blob) != blob {
            return Err(format!("cluster {label} mixes blobs"));
        }
        if *cluster_of_blob.entry(blob).or_insert(label) != label {
            return Err(format!("blob {blob} split across clusters"));
        }
    }
    if blob_of_cluster.len() != k {
        return Err(format!("{} clusters, expected {k}", blob_of_cluster.len()));
    }
    if noise * 20 > labels.len() {
        return Err(format!("{noise} of {} points are noise", labels.len()));
    }
    Ok(())
}

/// The MST is a spanning tree, the α-contraction dendrogram is valid, and
/// the work-optimal backend and the union–find baseline build the same
/// parents and heights from the same raw edges.
pub fn dendrogram_differential(
    ctx: &ExecCtx,
    raw: &[Edge],
    mst: &SortedMst,
    alpha: &Dendrogram,
) -> Result<(), String> {
    mst.validate_tree().map_err(|e| format!("MST: {e}"))?;
    alpha.validate().map_err(|e| format!("dendrogram: {e}"))?;
    let (work_optimal, _) =
        DendrogramBackend::WorkOptimal.build(ctx, mst, &mut DendrogramWorkspace::new());
    if !same_dendrogram(alpha, &work_optimal) {
        return Err("work-optimal differs from α-contraction".into());
    }
    let (union_find, _, _) = dendrogram_union_find_mt(ctx, mst.n_vertices(), raw);
    if !same_dendrogram(alpha, &union_find) {
        return Err("union-find differs from α-contraction".into());
    }
    Ok(())
}
