//! Bad shapes are typed errors, never panics.
//!
//! Every public search entry gets generated bad shapes: an empty
//! reference set, k of 0 or of N + 1, queries whose dimension differs
//! from the references', and a zero tile. `Index::new`,
//! `Index::search`, the metered entry and `gpu_knn_resilient` must
//! each return the named `KnnError`; a panic fails the test.

use knn::{gpu_knn_resilient, Hooks, Index, PointSet, SearchPlan};
use kselect::gpu::GpuResilience;
use kselect::{KnnError, QueueKind, SelectConfig};
use proptest::prelude::*;
use simt::TimingModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bad_shapes_are_typed_errors(
        q in 0usize..40,
        n in 1usize..64,
        dim in 1usize..9,
        tile in 1usize..100,
        threads in 1usize..9,
        seed in 0u64..1000,
    ) {
        let refs = PointSet::uniform(n, dim, seed);
        let queries = PointSet::uniform(q, dim, seed ^ 1);
        let wide = PointSet::uniform(q.max(1), dim + 1, seed ^ 2);
        let empty = PointSet::from_flat(vec![], dim);
        prop_assert_eq!(
            Index::new(&empty).unwrap_err(),
            KnnError::EmptyInput { what: "reference" }
        );

        let index = Index::new(&refs).unwrap();
        let plan = SearchPlan::new(1).with_tile(tile).with_threads(threads);
        let bad = [
            (&queries, SearchPlan { k: 0, ..plan }, KnnError::InvalidK { k: 0, n }),
            (&queries, SearchPlan { k: n + 1, ..plan }, KnnError::InvalidK { k: n + 1, n }),
            (&wide, plan, KnnError::DimMismatch { queries: dim + 1, refs: dim }),
            (
                &queries,
                SearchPlan { tile: 0, ..plan },
                KnnError::InvalidParam { what: "tile", value: 0, min: 1 },
            ),
        ];
        for (qs, plan, want) in &bad {
            prop_assert_eq!(index.search(qs, plan, Hooks::NONE), Err(want.clone()));
            #[cfg(feature = "metrics")]
            {
                use knn::metered::{knn_search_streamed_instrumented, Instruments};
                let reg = trace::MetricsRegistry::new();
                let journal = trace::EventJournal::new(trace::JournalConfig::default());
                let ins = Instruments {
                    registry: Some(&reg),
                    journal: Some(&journal),
                    ..Instruments::default()
                };
                let got = knn_search_streamed_instrumented(&index, qs, plan, &ins);
                prop_assert_eq!(got, Err(want.clone()));
                prop_assert!(journal.snapshot().is_empty(), "a failed search records nothing");
                prop_assert_eq!(reg.counter(knn::metered::QUERIES), 0);
            }
        }

        let tm = TimingModel::tesla_c2075();
        let res = GpuResilience::default();
        let gq = PointSet::uniform(q.max(1), dim, seed ^ 3);
        let gpu = |qs: &PointSet, rs: &PointSet, k: usize| {
            let cfg = SelectConfig::plain(QueueKind::Heap, k);
            gpu_knn_resilient(&tm, qs, rs, &cfg, &res).map(|r| r.neighbors)
        };
        prop_assert_eq!(gpu(&gq, &empty, 1).unwrap_err(), KnnError::EmptyInput { what: "reference" });
        prop_assert_eq!(gpu(&gq, &refs, 0).unwrap_err().name(), "invalid-k");
        prop_assert_eq!(gpu(&gq, &refs, n + 1).unwrap_err(), KnnError::InvalidK { k: n + 1, n });
        prop_assert_eq!(
            gpu(&wide, &refs, 1).unwrap_err(),
            KnnError::DimMismatch { queries: dim + 1, refs: dim }
        );
    }
}

/// Each checked simulated entry returns the dimension mismatch, and the
/// journaled one records nothing.
#[test]
fn resilient_entries_return_dim_mismatch() {
    use knn::{gpu_knn_resilient_deadline, gpu_knn_resilient_journaled};
    let tm = TimingModel::tesla_c2075();
    let queries = PointSet::uniform(4, 6, 125);
    let refs = PointSet::uniform(64, 8, 126);
    let cfg = SelectConfig::plain(QueueKind::Heap, 8);
    let res = GpuResilience::default();
    let want = KnnError::DimMismatch {
        queries: 6,
        refs: 8,
    };
    let plain = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res);
    assert_eq!(plain.unwrap_err(), want);
    let bounded = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 1e9);
    assert_eq!(bounded.unwrap_err(), want);
    let journal = trace::EventJournal::new(trace::JournalConfig::default());
    let journaled = gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &journal, "dims");
    assert_eq!(journaled.unwrap_err(), want);
    assert!(journal.snapshot().is_empty());
}
