//! # knn — the k-NN pipeline around k-selection
//!
//! The substrate the paper's evaluation runs on: synthetic datasets
//! ([`dataset`]), Euclidean distance matrices ([`distance`]) with both a
//! real rayon implementation and an analytic simulated-GPU cost model,
//! CPU k-selection baselines ([`cpu`], the paper's "CPU 1"/"CPU 16"
//! rows), the PCIe transfer model ([`pcie`], the "Data Copy" row), the
//! native end-to-end pipeline ([`pipeline`]) and the simulated GPU one
//! ([`simulated`]).
//!
//! Native search is one prepared [`Index`] and one
//! [`Index::search`] under a [`SearchPlan`]:
//!
//! ```
//! use knn::{Hooks, Index, PointSet, SearchPlan};
//!
//! let refs = PointSet::uniform(1000, 32, 1);
//! let queries = PointSet::uniform(4, 32, 2);
//! let index = Index::new(&refs)?;
//! let knn = index.search(&queries, &SearchPlan::new(8), Hooks::NONE)?;
//! assert_eq!(knn.len(), 4);
//! assert_eq!(knn[0].len(), 8);
//! # Ok::<(), kselect::KnnError>(())
//! ```
//!
//! The simulated GPU pipeline is one [`gpu_knn`] under a [`GpuPlan`]
//! with a [`GpuHooks`] bundle.

pub mod cpu;
pub mod dataset;
pub mod distance;
pub mod eval;
#[cfg(feature = "metrics")]
pub mod metered;
pub mod metric;
pub mod pcie;
pub mod pipeline;
pub mod simulated;

pub use cpu::{cpu_select_parallel, cpu_select_serial, heap_select};
pub use dataset::{validate_points, PointSet};
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
    knn_search, knn_search_streamed_parallel, knn_search_streamed_parallel_timelined,
    knn_search_with_observed, resolve_threads, CancelToken, Hooks, Index, NeverCancel,
    NullObserver, Phase, PhaseObserver, SearchPlan, TileBudget,
};
pub use simulated::{gpu_knn, kernel_seconds, queue_tag, GpuHooks, GpuKnnResult, GpuPlan};
