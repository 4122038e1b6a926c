//! Cross-crate validation: every selection backend in the workspace —
//! native queues, simulated GPU kernels, CPU baselines and the
//! state-of-the-art comparators — must produce the same k-NN sets on the
//! same data.

use gpu_kselect::kselect::buffered::BufferConfig;
use gpu_kselect::kselect::gpu::{gpu_select_k, DistanceMatrix};
use gpu_kselect::kselect::hierarchical::HpConfig;
use gpu_kselect::prelude::*;
use rand::{Rng, SeedableRng};

fn dm_from(rows: &[Vec<f32>]) -> DistanceMatrix {
    DistanceMatrix::from_row_major(&rows.concat(), rows.len(), rows[0].len())
}

fn rows(q: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..q)
        .map(|_| (0..n).map(|_| rng.gen()).collect())
        .collect()
}

fn dists_of(nbs: &[Neighbor]) -> Vec<f32> {
    nbs.iter().map(|n| n.dist).collect()
}

#[test]
fn all_backends_agree_on_one_workload() {
    let q = 48; // 1.5 warps
    let n = 700;
    let k = 16;
    let data = rows(q, n, 1001);
    let dm = dm_from(&data);
    let spec = GpuSpec::tesla_c2075();

    // Reference: CPU std-heap baseline.
    let reference: Vec<Vec<f32>> = data
        .iter()
        .map(|r| dists_of(&knn::heap_select(r, k)))
        .collect();

    // Native queue-based selection, all queue kinds and technique combos.
    for kind in QueueKind::ALL {
        for buffer in [None, Some(BufferConfig::default())] {
            for hp in [None, Some(HpConfig { g: 4 })] {
                let mut cfg = SelectConfig::plain(kind, k);
                cfg.buffer = buffer;
                cfg.hp = hp;
                for (qi, r) in data.iter().enumerate() {
                    assert_eq!(
                        dists_of(&select_k(r, &cfg)),
                        reference[qi],
                        "native {} query {qi}",
                        cfg.label()
                    );
                }
            }
        }
    }

    // Simulated GPU kernels, the paper's four Table-I variants.
    for cfg in [
        SelectConfig::plain(QueueKind::Insertion, k),
        SelectConfig::plain(QueueKind::Heap, k),
        SelectConfig::plain(QueueKind::Merge, k).with_aligned(true),
        SelectConfig::optimized(QueueKind::Merge, k),
    ] {
        let res = gpu_select_k(&spec, &dm, &cfg);
        for (qi, nbs) in res.neighbors.iter().enumerate() {
            assert_eq!(
                dists_of(nbs),
                reference[qi],
                "gpu {} query {qi}",
                cfg.label()
            );
        }
    }

    // State-of-the-art baselines, native and simulated.
    for (qi, r) in data.iter().enumerate() {
        assert_eq!(dists_of(&tbs_select(r, k)), reference[qi], "tbs query {qi}");
        assert_eq!(dists_of(&qms_select(r, k)), reference[qi], "qms query {qi}");
        assert_eq!(
            dists_of(&baselines::bucket_select(r, k)),
            reference[qi],
            "bucket query {qi}"
        );
        assert_eq!(
            dists_of(&baselines::radix_select(r, k)),
            reference[qi],
            "radix query {qi}"
        );
        assert_eq!(
            dists_of(&sort_select(r, k)),
            reference[qi],
            "sort query {qi}"
        );
    }
    let (tbs_gpu, _) = baselines::gpu_tbs_select(&spec, &dm, k);
    let (tbs_block, _) = baselines::gpu_tbs_block_select(&spec, &dm, k);
    let (qms_gpu, _) = baselines::gpu_qms_select(&spec, &dm, k);
    let (ws_gpu, _) = baselines::gpu_warp_select(&spec, &dm, k);
    for qi in 0..q {
        assert_eq!(dists_of(&tbs_gpu[qi]), reference[qi], "gpu tbs query {qi}");
        assert_eq!(
            dists_of(&tbs_block[qi]),
            reference[qi],
            "gpu tbs-block query {qi}"
        );
        assert_eq!(dists_of(&qms_gpu[qi]), reference[qi], "gpu qms query {qi}");
        assert_eq!(
            dists_of(&ws_gpu[qi]),
            reference[qi],
            "warp-select query {qi}"
        );
    }

    // Batched / extended selection paths.
    let clustered = baselines::clustered_sort_select(&data, k);
    for qi in 0..q {
        assert_eq!(
            dists_of(&clustered[qi]),
            reference[qi],
            "clustered query {qi}"
        );
    }
    for (qi, r) in data.iter().enumerate() {
        assert_eq!(
            dists_of(&baselines::sample_select(r, k)),
            reference[qi],
            "sample query {qi}"
        );
        assert_eq!(
            dists_of(&gpu_kselect::kselect::select_k_chunked(
                r,
                &SelectConfig::optimized(QueueKind::Merge, k),
                100
            )),
            reference[qi],
            "chunked query {qi}"
        );
    }
}

#[test]
fn pathological_all_equal_workload() {
    // Every distance identical: maximal tie pressure on every backend.
    let q = 32;
    let n = 300;
    let k = 16;
    let data: Vec<Vec<f32>> = vec![vec![0.25f32; n]; q];
    let dm = dm_from(&data);
    let spec = GpuSpec::tesla_c2075();
    for cfg in [
        SelectConfig::plain(QueueKind::Insertion, k),
        SelectConfig::plain(QueueKind::Heap, k),
        SelectConfig::optimized(QueueKind::Merge, k),
    ] {
        let res = gpu_select_k(&spec, &dm, &cfg);
        for nbs in &res.neighbors {
            assert_eq!(nbs.len(), k, "{}", cfg.label());
            assert!(nbs.iter().all(|nb| nb.dist == 0.25));
        }
    }
    let (ws, _) = baselines::gpu_warp_select(&spec, &dm, k);
    assert!(ws
        .iter()
        .all(|r| r.len() == k && r.iter().all(|nb| nb.dist == 0.25)));
    let (tbs, _) = baselines::gpu_tbs_block_select(&spec, &dm, k);
    assert!(tbs.iter().all(|r| r.len() == k));
}

#[test]
fn native_and_gpu_pipelines_agree_end_to_end() {
    let refs = PointSet::uniform(400, 24, 55);
    let queries = PointSet::uniform(40, 24, 56);
    let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
    let index = Index::new(&refs).unwrap();
    let native = index.search(&queries, &SearchPlan::new(8), Hooks::NONE);
    let native = native.unwrap();
    let tm = TimingModel::tesla_c2075();
    let plan = knn::GpuPlan::new(cfg);
    let sim = knn::gpu_knn(&tm, &queries, &refs, &plan, knn::GpuHooks::NONE).unwrap();
    // Every answer must come from a clean first kernel attempt: a result
    // the default plan's retry or host fallback supplied would hide a
    // wrong kernel behind the equality below.
    assert_eq!(sim.report.ok_count(), queries.len(), "{:?}", sim.report);
    assert_eq!(sim.neighbors.len(), native.len());
    for (a, b) in native.iter().zip(&sim.neighbors) {
        assert_eq!(Some(dists_of(a)), b.as_deref().map(dists_of));
    }
}

#[test]
fn ids_are_consistent_across_backends() {
    // Distances with no ties: ids must agree exactly, not just values.
    let n = 500;
    let data: Vec<f32> = (0..n).map(|i| ((i * 7919) % n) as f32).collect();
    let k = 16; // m·2^j so the Merge Queue accepts it
    let reference: Vec<u32> = knn::heap_select(&data, k).iter().map(|nb| nb.id).collect();
    let native: Vec<u32> = select_k(&data, &SelectConfig::optimized(QueueKind::Merge, k))
        .iter()
        .map(|nb| nb.id)
        .collect();
    assert_eq!(native, reference);
    let tbs: Vec<u32> = tbs_select(&data, k).iter().map(|nb| nb.id).collect();
    assert_eq!(tbs, reference);
}
