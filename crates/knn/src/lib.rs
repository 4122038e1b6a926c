//! # knn — the k-NN pipeline around k-selection
//!
//! The substrate the paper's evaluation runs on: synthetic datasets
//! ([`dataset`]), Euclidean distance matrices ([`distance`]) with both a
//! real rayon implementation and an analytic simulated-GPU cost model,
//! CPU k-selection baselines ([`cpu`], the paper's "CPU 1"/"CPU 16"
//! rows), the PCIe transfer model ([`pcie`], the "Data Copy" row), and
//! end-to-end pipelines ([`pipeline`]).
//!
//! ```
//! use knn::{PointSet, knn_search};
//! use kselect::{SelectConfig, QueueKind};
//!
//! let refs = PointSet::uniform(1000, 32, 1);
//! let queries = PointSet::uniform(4, 32, 2);
//! let knn = knn_search(&queries, &refs, &SelectConfig::optimized(QueueKind::Merge, 8));
//! assert_eq!(knn.len(), 4);
//! assert_eq!(knn[0].len(), 8);
//! ```

pub mod cpu;
pub mod dataset;
pub mod distance;
pub mod eval;
#[cfg(feature = "metrics")]
pub mod metered;
pub mod metric;
pub mod pcie;
pub mod pipeline;

pub use cpu::{cpu_select_parallel, cpu_select_serial, heap_select};
pub use dataset::PointSet;
pub use distance::block::{self, FlatMatrix, DEFAULT_STREAM_TILE};
pub use distance::simd::{self, dispatch_name};
pub use distance::{
    clamp_non_finite, distance_matrix, dot, gpu_distance_metrics, squared_distance, squared_norm,
};
pub use eval::{ground_truth, mean_recall, recall_at_k};
#[cfg(feature = "metrics")]
pub use metered::{
    knn_search_streamed_instrumented, Instruments, JournalObserver, RegistryObserver,
    TimelineObserver,
};
pub use metric::{distance_matrix_flat_with, Metric};
pub use pcie::{data_copy_time, transfer_with_faults, PcieReport};
pub use pipeline::{
    gpu_knn, gpu_knn_resilient, gpu_knn_resilient_deadline, gpu_knn_resilient_journaled,
    gpu_knn_traced, knn_search, knn_search_streamed_parallel,
    knn_search_streamed_parallel_timelined, knn_search_with, knn_search_with_observed, queue_tag,
    resolve_threads, validate_points, CancelToken, Cancelled, GpuKnnResult, NeverCancel,
    NullObserver, Phase, PhaseObserver, ResilientKnnResult, TileBudget,
};
