//! # kselect — efficient k-selection for k-NN search
//!
//! A full reimplementation of *"Efficient Selection Algorithm for Fast
//! k-NN Search on GPU"* (Tang, Huang, Eyers, Mills, Guo — IPDPS 2015).
//!
//! k-NN search ends with *k-selection*: finding the k smallest of each
//! query's N distances. The paper contributes three techniques that make
//! this fast on SIMT hardware, all implemented here:
//!
//! * **Merge Queue** ([`queues::MergeQueue`]) — a multi-level,
//!   lazily-merged queue with O(log² k) amortised inserts whose repairs
//!   are regular bitonic-merge networks ([`bitonic`]);
//! * **Buffered Search** ([`buffered`]) — candidate staging that batches
//!   the divergent insertion work of a warp;
//! * **Hierarchical Partition** ([`hierarchical`]) — a tournament of group
//!   minima that shrinks the searched set from N to ~G·k·log_G(N/k).
//!
//! Every structure exists in two forms:
//!
//! * **native** (this crate's top level) — scalar Rust, used as the
//!   correctness oracle and as a genuinely fast CPU k-selection library
//!   (see the `knn` crate for the rayon-parallel pipeline);
//! * **simulated GPU** ([`gpu`]) — warp-synchronous kernels over the
//!   [`simt`] simulator, reproducing the paper's measurements (branch
//!   divergence, coalescing, intra-warp communication).
//!
//! A streaming caller that sees each list one tile at a time keeps its
//! running k best in a [`TopK`] ([`topk`]): Buffered Search done
//! natively, where a threshold scan fills one candidate buffer and the
//! picks are sorted once at the end. The scan has an AVX-512 body, and
//! the sort an AVX-512 bitonic network, both picked by the one runtime
//! SIMD probe of the native search ([`dispatch`]), which the `knn`
//! crate's distance kernels share.
//!
//! ## Quick start
//!
//! ```
//! use kselect::{select_k, SelectConfig, QueueKind};
//!
//! let dists: Vec<f32> = (0..1000).map(|i| ((i * 37) % 1000) as f32).collect();
//! let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
//! let knn = select_k(&dists, &cfg);
//! assert_eq!(knn.len(), 16);
//! assert_eq!(knn[0].dist, 0.0);
//! assert!(knn.windows(2).all(|w| w[0].dist <= w[1].dist));
//! ```

pub mod bitonic;
pub mod buffered;
pub mod chunked;
pub mod dispatch;
pub mod error;
pub mod gpu;
pub mod hierarchical;
pub mod queues;
pub mod select;
#[cfg(target_arch = "x86_64")]
mod sortnet;
pub mod topk;
pub mod types;

pub use buffered::{buffered_select_into, BufferConfig};
pub use chunked::select_k_chunked;
pub use error::KnnError;
pub use hierarchical::{hierarchical_select, Hierarchy, HpConfig};
pub use queues::{HeapQueue, InsertionQueue, KQueue, MergeQueue, UpdateCounter};
pub use select::{select_k, SelectConfig, Selector};
pub use topk::{Candidates, TopK};
pub use types::{Neighbor, QueueKind, INF, NO_ID};
