//! Native k-selection algorithm comparison: the paper's techniques
//! against the §II-C taxonomy baselines, wall-clock on the host.

use baselines::{
    bucket_select, clustered_sort_select, qms_select, radix_select, sample_select, sort_select,
    tbs_select,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kselect::buffered::BufferConfig;
use kselect::{select_k, Candidates, QueueKind, SelectConfig, TopK};
use rand::{Rng, SeedableRng};

fn dists(n: usize) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_variants(c: &mut Criterion) {
    let n = 1 << 15;
    let k = 256;
    let data = dists(n);
    let mut g = c.benchmark_group("select_variants_n32768_k256");
    g.sample_size(20);
    let variants: Vec<(&str, SelectConfig)> = vec![
        ("merge_plain", SelectConfig::plain(QueueKind::Merge, k)),
        (
            "merge_buffered",
            SelectConfig::plain(QueueKind::Merge, k).with_buffer(BufferConfig::default()),
        ),
        // Natively HP is the whole selection: the queue and buffer of an
        // HP config only shape the simulated kernels, so one entry
        // covers every HP variant.
        ("hp", SelectConfig::optimized(QueueKind::Merge, k)),
    ];
    for (name, cfg) in &variants {
        g.bench_function(*name, |b| {
            b.iter(|| black_box(select_k(black_box(&data), cfg)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("baselines_n32768_k256");
    g.sample_size(20);
    g.bench_function("tbs", |b| {
        b.iter(|| black_box(tbs_select(black_box(&data), k)))
    });
    g.bench_function("qms", |b| {
        b.iter(|| black_box(qms_select(black_box(&data), k)))
    });
    g.bench_function("bucket", |b| {
        b.iter(|| black_box(bucket_select(black_box(&data), k)))
    });
    g.bench_function("radix", |b| {
        b.iter(|| black_box(radix_select(black_box(&data), k)))
    });
    g.bench_function("full_sort", |b| {
        b.iter(|| black_box(sort_select(black_box(&data), k)))
    });
    g.bench_function("sample", |b| {
        b.iter(|| black_box(sample_select(black_box(&data), k)))
    });
    g.finish();

    // Batched selection: Clustered-Sort amortises one radix sort across
    // queries; compare against the per-query optimized path.
    let rows: Vec<Vec<f32>> = (0..32u64)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i);
            (0..1 << 13).map(|_| rng.gen()).collect()
        })
        .collect();
    let mut g = c.benchmark_group("batched_q32_n8192_k64");
    g.sample_size(10);
    g.bench_function("clustered_sort", |b| {
        b.iter(|| black_box(clustered_sort_select(black_box(&rows), 64)))
    });
    g.bench_function("per_query_optimized_merge", |b| {
        let cfg = SelectConfig::optimized(QueueKind::Merge, 64);
        b.iter(|| {
            rows.iter()
                .map(|r| select_k(black_box(r), &cfg))
                .collect::<Vec<_>>()
        })
    });
    g.finish();

    // Chunked divide-and-merge across chunk sizes.
    let big = dists(1 << 18);
    let mut g = c.benchmark_group("chunked_n262144_k128");
    g.sample_size(10);
    for chunk_exp in [14u32, 16, 18] {
        g.bench_with_input(
            BenchmarkId::from_parameter(chunk_exp),
            &chunk_exp,
            |b, &ce| {
                let cfg = SelectConfig::optimized(QueueKind::Merge, 128);
                b.iter(|| {
                    black_box(kselect::select_k_chunked(
                        black_box(&big),
                        &cfg,
                        1usize << ce,
                    ))
                })
            },
        );
    }
    g.finish();

    // k scaling of the flagship variant.
    let mut g = c.benchmark_group("optimized_merge_k_sweep_n32768");
    g.sample_size(20);
    for &k in &[32usize, 128, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = SelectConfig::optimized(QueueKind::Merge, k);
            b.iter(|| black_box(select_k(black_box(&data), &cfg)))
        });
    }
    g.finish();

    // The final sort of a streamed query alone: `TopK::finish` on k
    // settled keys of a 4096-value row, the `batch-k1024` row length.
    // The AVX-512 sorting network on the `avx512` dispatch,
    // `sort_unstable` under `KNN_SIMD=scalar`. k = 1025 takes the
    // network's padding. Each iteration also clones the k held keys,
    // one copy next to the sort.
    let row = dists(4096);
    let mut g = c.benchmark_group("topk_finish_n4096");
    g.sample_size(20);
    for &k in &[32usize, 1024, 1025] {
        let mut cand = Candidates::new(k);
        let mut held = TopK::new(k);
        held.push(&mut cand, &row, 0);
        held.settle(&mut cand);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(held.clone().finish(&mut cand)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_variants
}
criterion_main!(benches);
