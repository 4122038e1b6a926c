//! End-to-end native k-NN pipeline benchmarks: distance phase, selection
//! phase, and the CPU baselines of Table I's top rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use knn::{
    block, cpu_select_parallel, cpu_select_serial, distance_matrix, knn_search,
    knn_search_streamed_parallel, PointSet,
};
use kselect::{QueueKind, SelectConfig};
use rand::{Rng, SeedableRng};

/// The pre-blocking scalar kernel (one loop-carried accumulator per
/// pair, one `Vec` per query row), kept as the baseline the blocked
/// kernel is compared against.
fn scalar_distance_matrix(queries: &PointSet, refs: &PointSet) -> Vec<Vec<f32>> {
    (0..queries.len())
        .map(|qi| {
            let qp = queries.point(qi);
            (0..refs.len())
                .map(|ri| {
                    let rp = refs.point(ri);
                    let mut acc = 0.0f32;
                    for d in 0..qp.len() {
                        let diff = qp[d] - rp[d];
                        acc += diff * diff;
                    }
                    acc
                })
                .collect()
        })
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let dim = 128;
    let refs = PointSet::uniform(4096, dim, 1);
    let queries = PointSet::uniform(64, dim, 2);

    let mut g = c.benchmark_group("knn_pipeline_q64_n4096_d128");
    g.sample_size(10);
    g.bench_function("distance_scalar_baseline", |b| {
        b.iter(|| {
            black_box(scalar_distance_matrix(
                black_box(&queries),
                black_box(&refs),
            ))
        })
    });
    g.bench_function("distance_blocked_flat", |b| {
        b.iter(|| {
            black_box(block::squared_distances(
                black_box(&queries),
                black_box(&refs),
            ))
        })
    });
    g.bench_function("distance_matrix", |b| {
        b.iter(|| black_box(distance_matrix(black_box(&queries), black_box(&refs))))
    });
    g.bench_function("end_to_end_merge_optimized_k64", |b| {
        let cfg = SelectConfig::optimized(QueueKind::Merge, 64);
        b.iter(|| black_box(knn_search(black_box(&queries), black_box(&refs), &cfg)))
    });
    g.bench_function("end_to_end_insertion_plain_k64", |b| {
        let cfg = SelectConfig::plain(QueueKind::Insertion, 64);
        b.iter(|| black_box(knn_search(black_box(&queries), black_box(&refs), &cfg)))
    });
    g.bench_function("end_to_end_streamed_merge_k64_tile1024", |b| {
        let cfg = SelectConfig::optimized(QueueKind::Merge, 64);
        b.iter(|| {
            black_box(knn_search_streamed_parallel(
                black_box(&queries),
                black_box(&refs),
                &cfg,
                1024,
                1,
            ))
        })
    });
    g.finish();

    // CPU selection baselines over precomputed distances (Table I rows).
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let rows: Vec<Vec<f32>> = (0..256)
        .map(|_| (0..(1 << 14)).map(|_| rng.gen()).collect())
        .collect();
    let mut g = c.benchmark_group("cpu_kselect_q256_n16384_k256");
    g.sample_size(10);
    g.bench_function("serial_std_heap", |b| {
        b.iter(|| black_box(cpu_select_serial(black_box(&rows), 256)))
    });
    g.bench_function("parallel_std_heap", |b| {
        b.iter(|| black_box(cpu_select_parallel(black_box(&rows), 256)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pipeline
}
criterion_main!(benches);
