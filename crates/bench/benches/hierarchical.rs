//! Hierarchical Partition micro-benchmarks: construction cost, top-down
//! search cost, the G sweep (Figs. 7/8 measured natively) and the
//! per-tile selection the streamed pipeline runs at its default tile.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kselect::hierarchical::{select_top_down, Hierarchy, HpConfig};
use kselect::{hierarchical_select, select_k, QueueKind, SelectConfig};
use rand::{Rng, SeedableRng};

fn dists(n: usize) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_hierarchy(c: &mut Criterion) {
    let n = 1 << 15;
    let k = 256;
    let data = dists(n);

    let mut g = c.benchmark_group("hp_phases_n32768_k256");
    g.sample_size(20);
    g.bench_function("build_g4", |b| {
        b.iter(|| black_box(Hierarchy::build(black_box(&data), 4, k)))
    });
    let h = Hierarchy::build(&data, 4, k);
    g.bench_function("top_down_g4", |b| {
        b.iter(|| black_box(select_top_down(black_box(&data), &h, k)))
    });
    g.bench_function("direct_scan_baseline", |b| {
        let cfg = SelectConfig::plain(QueueKind::Insertion, k);
        b.iter(|| black_box(select_k(black_box(&data), &cfg)))
    });
    g.finish();

    let mut g = c.benchmark_group("hp_g_sweep_n32768_k256");
    g.sample_size(20);
    for &gsz in &[2usize, 4, 6, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(gsz), &gsz, |b, &gsz| {
            b.iter(|| {
                black_box(hierarchical_select(
                    black_box(&data),
                    k,
                    HpConfig { g: gsz },
                ))
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("hp_n_sweep_k256_g4");
    g.sample_size(20);
    for exp in [13u32, 14, 15, 16] {
        let data = dists(1 << exp);
        g.bench_with_input(BenchmarkId::from_parameter(exp), &exp, |b, _| {
            b.iter(|| black_box(hierarchical_select(black_box(&data), k, HpConfig { g: 4 })))
        });
    }
    g.finish();

    // One streamed tile (`DEFAULT_STREAM_TILE` = 2048 values) selected by
    // the optimized config across the paper's k range.
    let data = dists(2048);
    let mut g = c.benchmark_group("hp_tile2048");
    g.sample_size(20);
    for k in [32usize, 256, 1024] {
        let cfg = SelectConfig::optimized(QueueKind::Merge, k);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(select_k(black_box(&data), &cfg)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_hierarchy
}
criterion_main!(benches);
