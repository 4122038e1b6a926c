//! # gpu-kselect — facade crate
//!
//! Re-exports the whole workspace behind one dependency, for the examples
//! and integration tests and for downstream users who want a single
//! `use gpu_kselect::...` entry point:
//!
//! * [`kselect`] — the paper's contribution: Merge Queue, Buffered
//!   Search, Hierarchical Partition; native + simulated-GPU forms.
//! * [`simt`] — the software SIMT simulator substrate.
//! * [`knn`] — datasets, distances, CPU baselines, end-to-end pipelines.
//! * [`baselines`] — TBS, QMS, bucket/radix/sort selection.
//!
//! ```
//! use gpu_kselect::prelude::*;
//!
//! let refs = PointSet::uniform(500, 16, 7);
//! let queries = PointSet::uniform(3, 16, 8);
//! let index = Index::new(&refs)?;
//! let res = index.search(&queries, &SearchPlan::new(8), Hooks::NONE)?;
//! assert_eq!(res.len(), 3);
//! # Ok::<(), KnnError>(())
//! ```

pub use baselines;
pub use knn;
pub use kselect;
pub use simt;

/// The most commonly used items in one import.
pub mod prelude {
    pub use baselines::{gpu_warp_select, qms_select, sort_select, tbs_select};
    pub use knn::{Hooks, Index, Metric, PointSet, SearchPlan};
    pub use kselect::{
        select_k, select_k_chunked, BufferConfig, HeapQueue, HpConfig, InsertionQueue, KQueue,
        KnnError, MergeQueue, Neighbor, QueueKind, SelectConfig,
    };
    pub use simt::{GpuSpec, TimingModel};
}
