//! Bad shapes are typed errors, never panics.
//!
//! Every public search entry gets generated bad shapes: an empty
//! reference set, k of 0 or of N + 1, queries whose dimension differs
//! from the references', and a zero tile. `Index::new`,
//! `Index::search` and the metered entry must each return the named
//! `KnnError`; a panic fails the test. The simulated `gpu_knn` gets
//! the shapes that apply to it, plus a Merge k that is not m·2^j, a
//! Hierarchical Partition group of one, an empty candidate buffer and
//! one past shared memory, three ways: with no hooks, with
//! a tracer and a journal, and under a deadline. A failed call leaves
//! the tracer without events and the journal without records.

use knn::{gpu_knn, GpuHooks, GpuPlan, Hooks, Index, PointSet, SearchPlan};
use kselect::buffered::BufferConfig;
use kselect::hierarchical::HpConfig;
use kselect::{KnnError, QueueKind, SelectConfig};
use proptest::prelude::*;
use simt::TimingModel;

/// `gpu_knn` of `qs` × `rs` under `select`, run with no hooks, with a
/// tracer and a journal, and under a deadline: the error each run
/// returns, asserted equal across the three, with nothing recorded.
fn gpu_error(qs: &PointSet, rs: &PointSet, select: SelectConfig) -> KnnError {
    let tm = TimingModel::tesla_c2075();
    let plan = GpuPlan::new(select);
    let plain = gpu_knn(&tm, qs, rs, &plan, GpuHooks::NONE).unwrap_err();

    let mut tracer = trace::Tracer::new();
    let journal = trace::EventJournal::new(trace::JournalConfig::default());
    let hooks = GpuHooks::NONE
        .with_tracer(&mut tracer)
        .with_journal(&journal, "bad");
    let hooked = gpu_knn(&tm, qs, rs, &plan, hooks).unwrap_err();
    assert!(tracer.events().is_empty(), "a failed call traces nothing");
    assert!(
        journal.snapshot().is_empty(),
        "a failed call journals nothing"
    );

    let bounded = gpu_knn(&tm, qs, rs, &plan.with_budget(1e9), GpuHooks::NONE).unwrap_err();
    assert_eq!(hooked, plain);
    assert_eq!(bounded, plain);
    plain
}

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

        let gq = PointSet::uniform(q.max(1), dim, seed ^ 3);
        let heap = |k| SelectConfig::plain(QueueKind::Heap, k);
        // k below the Merge Queue's level-0 size m = 8 is never m·2^j.
        let merge = SelectConfig::plain(QueueKind::Merge, n.min(7));
        let buffer = |size| {
            heap(1).with_buffer(BufferConfig { size, sorted: false, intra_warp: true })
        };
        let one_group = SelectConfig { hp: Some(HpConfig { g: 1 }), ..heap(1) };
        let limit = TimingModel::tesla_c2075().spec.shared_mem_bytes;
        let gpu_bad = [
            (&gq, &empty, heap(1), KnnError::EmptyInput { what: "reference" }),
            (&gq, &refs, heap(0), KnnError::InvalidK { k: 0, n }),
            (&gq, &refs, heap(n + 1), KnnError::InvalidK { k: n + 1, n }),
            (&wide, &refs, heap(1), KnnError::DimMismatch { queries: dim + 1, refs: dim }),
            (&gq, &refs, merge, KnnError::MergeShape { k: n.min(7), m: 8 }),
            (
                &gq,
                &refs,
                buffer(1 << 20),
                KnnError::BufferTooLarge { bytes: (1 << 20) * 32 * 8 + 4, limit },
            ),
            (
                &gq,
                &refs,
                one_group,
                KnnError::InvalidParam {
                    what: "hierarchical partition group size",
                    value: 1,
                    min: 2,
                },
            ),
            (
                &gq,
                &refs,
                buffer(0),
                KnnError::InvalidParam { what: "buffer size", value: 0, min: 1 },
            ),
        ];
        for (qs, rs, select, want) in gpu_bad {
            prop_assert_eq!(gpu_error(qs, rs, select), want);
        }
    }
}
