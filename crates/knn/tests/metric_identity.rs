//! Every native entry returns the exact ground truth under every metric.
//!
//! `Index::search` and the instrumented streamed entry run one loop.
//! Whatever the metric, and at any tile and thread count, their
//! neighbors must equal
//! `eval::ground_truth` — the full `(dist, id)` sort of each query's
//! materialized distance row, cut at k — ids included. The data is
//! built for ties: every reference appears three times, coordinates are
//! quantized to a few values, some queries copy a reference (cosine
//! rounds those distances a little below zero) and some are the zero
//! vector (a negated dot product of `−0.0`, a cosine of exactly 2).

use knn::{ground_truth, Hooks, Index, Metric, PointSet, SearchPlan};
use kselect::Neighbor;
use proptest::prelude::*;

const METRICS: [Metric; 4] = [
    Metric::SquaredEuclidean,
    Metric::Manhattan,
    Metric::Cosine,
    Metric::NegativeDot,
];

/// `count` points of dimension `dim`, coordinates in {-1, -0.5, …, 1.5}.
fn quantized(raw: &[u32], dim: usize) -> PointSet {
    PointSet::from_flat(raw.iter().map(|&v| v as f32 * 0.5 - 1.0).collect(), dim)
}

/// Each base point three times, the copies spread apart.
fn tripled(base: &PointSet) -> PointSet {
    let n = base.len();
    let flat = (0..3 * n)
        .flat_map(|i| base.point(i % n).to_vec())
        .collect();
    PointSet::from_flat(flat, base.dim())
}

/// Queries: quantized points, with every third one a copy of a
/// reference and the first the zero vector.
fn queries(raw: &[u32], refs: &PointSet) -> PointSet {
    let dim = refs.dim();
    let mut flat: Vec<f32> = quantized(raw, dim).as_flat().to_vec();
    for (qi, q) in flat.chunks_mut(dim).enumerate() {
        if qi == 0 {
            q.fill(0.0);
        } else if qi % 3 == 0 {
            q.copy_from_slice(refs.point((qi * 7) % refs.len()));
        }
    }
    PointSet::from_flat(flat, dim)
}

/// Ground truth as the search returns it: `−0.0` ranks as `+0.0`, and
/// the search reports it as `+0.0`.
fn truth(queries: &PointSet, refs: &PointSet, k: usize, metric: Metric) -> Vec<Vec<Neighbor>> {
    let mut t = ground_truth(queries, refs, k, metric);
    for n in t.iter_mut().flatten() {
        n.dist += 0.0;
    }
    t
}

/// Neighbors as `(dist bits, id)`, so a sign-of-zero slip shows too.
fn bits(v: &[Vec<Neighbor>]) -> Vec<Vec<(u32, u32)>> {
    v.iter()
        .map(|ns| ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect())
        .collect()
}

fn workload() -> impl Strategy<Value = (PointSet, PointSet, usize, usize)> {
    (1usize..5, 1usize..24, 1usize..40, 1usize..80, 0usize..1000).prop_flat_map(
        |(dim, n_base, q, tile, k_pick)| {
            (
                proptest::collection::vec(0u32..6, n_base * dim),
                proptest::collection::vec(0u32..6, q * dim),
            )
                .prop_map(move |(r, qr)| {
                    let refs = tripled(&quantized(&r, dim));
                    let qs = queries(&qr, &refs);
                    let k = 1 + k_pick % refs.len();
                    (qs, refs, k, tile)
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn search_equals_ground_truth_for_every_metric(
        (qs, refs, k, _tile) in workload(),
    ) {
        let index = Index::new(&refs).unwrap();
        for metric in METRICS {
            let want = bits(&truth(&qs, &refs, k, metric));
            let plan = SearchPlan::new(k).with_metric(metric);
            let got = index.search(&qs, &plan, Hooks::NONE).unwrap();
            prop_assert_eq!(&bits(&got), &want, "{:?}", metric);
        }
    }
}

#[cfg(feature = "metrics")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The instrumented entry at any tile and thread count, with a
    /// registry attached, returns the same ground truth.
    #[test]
    fn instrumented_entry_equals_ground_truth_at_any_thread_count(
        (qs, refs, k, tile) in workload(),
    ) {
        use knn::metered::{knn_search_streamed_instrumented, Instruments};
        let reg = trace::MetricsRegistry::new();
        let ins = Instruments {
            registry: Some(&reg),
            ..Instruments::default()
        };
        let index = Index::new(&refs).unwrap();
        for metric in METRICS {
            let want = bits(&truth(&qs, &refs, k, metric));
            for threads in [1usize, 2, 4] {
                let plan = SearchPlan { k, metric, tile, threads };
                let got = knn_search_streamed_instrumented(&index, &qs, &plan, &ins).unwrap();
                prop_assert_eq!(
                    &bits(&got), &want,
                    "{:?} tile {} threads {}", metric, tile, threads
                );
            }
        }
    }
}
