//! The `knn_search*` functions held for `knnbench` are one-line
//! wrappers over `Index::search`: each must return exactly what the
//! index returns under the plan it stands for. Delete this file with
//! the wrappers when the benchmark moves onto `Index`.

use knn::{
    knn_search, knn_search_streamed_parallel, knn_search_streamed_parallel_timelined,
    knn_search_with_observed, Hooks, Index, Metric, NeverCancel, NullObserver, PointSet,
    SearchPlan,
};
use kselect::{QueueKind, SelectConfig};
use trace::NullTimeline;

#[test]
fn held_wrappers_equal_index_search() {
    let queries = PointSet::uniform(37, 8, 230);
    let refs = PointSet::uniform(300, 8, 231);
    let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
    let index = Index::new(&refs).unwrap();
    let plan = SearchPlan::new(8).with_tile(64).with_threads(2);
    let want = index.search(&queries, &plan, Hooks::NONE).unwrap();
    let streamed = knn_search_streamed_parallel(&queries, &refs, &cfg, 64, 2);
    assert_eq!(streamed, want);
    let (obs, never, null) = (&NullObserver, &NeverCancel, &NullTimeline);
    let timelined =
        knn_search_streamed_parallel_timelined(&queries, &refs, &cfg, 64, 2, obs, never, null);
    assert_eq!(timelined, Ok(want));
    let library = index.search(&queries, &SearchPlan::new(8), Hooks::NONE);
    assert_eq!(Ok(knn_search(&queries, &refs, &cfg)), library);
    let manhattan = SearchPlan::new(8).with_metric(Metric::Manhattan);
    let observed = knn_search_with_observed(&queries, &refs, &cfg, Metric::Manhattan, obs);
    assert_eq!(
        Ok(observed),
        index.search(&queries, &manhattan, Hooks::NONE)
    );
    // An owned index answers like a borrowed one.
    let owned = Index::new(refs.clone()).unwrap();
    assert_eq!(owned.search(&queries, &plan, Hooks::NONE), timelined);
}

/// A wrapper turns a `KnnError` into a panic carrying its message.
#[test]
#[should_panic(expected = "k = 0 is invalid for 40 reference points")]
fn held_wrappers_panic_with_the_typed_error() {
    let p = PointSet::uniform(40, 4, 122);
    knn_search_streamed_parallel(&p, &p, &SelectConfig::plain(QueueKind::Heap, 0), 16, 2);
}
