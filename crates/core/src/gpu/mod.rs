//! Simulated GPU kernels for the paper's k-selection techniques.
//!
//! Everything in this module is warp-synchronous code over the [`simt`]
//! simulator: one lane per k-NN query, 32 queries per warp, queues in
//! interleaved lane-local memory, candidate buffers and intra-warp flags
//! in shared memory. The entry point is [`gpu_select_k`], which takes the
//! same [`crate::SelectConfig`] as the native API and returns both the
//! per-query neighbors and the execution [`simt::Metrics`] from which
//! simulated kernel times are derived.
//!
//! See `DESIGN.md` §2 for why a simulator substitutes for the paper's
//! CUDA testbed and what behaviour the substitution preserves.

pub mod buffered;
pub mod hierarchical;
pub mod queues;
pub mod resilient;
pub mod select;

pub use buffered::WarpBuffer;
pub use hierarchical::{level_sizes, WarpHierarchy};
pub use queues::{RepairKind, WarpQueues};
pub use resilient::{
    gpu_select_k_resilient, gpu_select_k_resilient_gated, validate_request, GpuResilience,
    GpuResilientSelect, QueryStatus, ResilienceCounters, SearchReport,
};
pub use select::{gpu_select_k, DistanceMatrix, GpuSelectResult};

/// Technique-level event counters accumulated inside the simulated
/// kernels: how often each of the paper's mechanisms actually fired.
///
/// The struct is always present (it appears in [`GpuSelectResult`]), but
/// the increments at the kernel call sites are compiled only under the
/// `trace` cargo feature — without it every field stays zero and the hot
/// loops carry no bookkeeping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Candidates accepted into a queue (any structure).
    pub queue_inserts: u64,
    /// Candidates rejected by the cheap `d >= qmax` guard (at the scan
    /// or at buffer drain) before any queue work.
    pub cheap_rejects: u64,
    /// Candidates staged into a Buffered Search buffer.
    pub buffer_pushes: u64,
    /// Buffer flush events.
    pub buffer_flushes: u64,
    /// Local-Sort networks run over a buffer before draining.
    pub local_sorts: u64,
    /// Reverse-bitonic (or linear) merge repairs, indexed by cascade
    /// level: `[0]` repairs the `2m` prefix, `[1]` the `4m` prefix, …
    pub merge_repairs_by_level: Vec<u64>,
    /// Intra-warp ballot/flag rounds of the aligned Merge Queue.
    pub aligned_syncs: u64,
    /// Hierarchical-Partition child-group expansions during Top-Down
    /// search (one per queue slot × child read, summed over lanes).
    pub hp_expansions: u64,
}

impl KernelCounters {
    /// Fold another warp's counters into this one.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.queue_inserts += other.queue_inserts;
        self.cheap_rejects += other.cheap_rejects;
        self.buffer_pushes += other.buffer_pushes;
        self.buffer_flushes += other.buffer_flushes;
        self.local_sorts += other.local_sorts;
        if self.merge_repairs_by_level.len() < other.merge_repairs_by_level.len() {
            self.merge_repairs_by_level
                .resize(other.merge_repairs_by_level.len(), 0);
        }
        for (a, b) in self
            .merge_repairs_by_level
            .iter_mut()
            .zip(&other.merge_repairs_by_level)
        {
            *a += b;
        }
        self.aligned_syncs += other.aligned_syncs;
        self.hp_expansions += other.hp_expansions;
    }

    /// Total merge repairs across all cascade levels.
    pub fn merge_repairs(&self) -> u64 {
        self.merge_repairs_by_level.iter().sum()
    }

    /// Export as a named [`trace::CounterSet`] under the canonical
    /// [`trace::names`]. Zero-valued counters are omitted so traces of
    /// un-exercised techniques stay clean.
    pub fn to_counter_set(&self) -> trace::CounterSet {
        let mut set = trace::CounterSet::new();
        let mut put = |name: &str, v: u64| {
            if v > 0 {
                set.add(name, v);
            }
        };
        put(trace::names::QUEUE_INSERT, self.queue_inserts);
        put(trace::names::QUEUE_CHEAP_REJECT, self.cheap_rejects);
        put(trace::names::BUFFER_PUSH, self.buffer_pushes);
        put(trace::names::BUFFER_FLUSH, self.buffer_flushes);
        put(trace::names::LOCAL_SORT, self.local_sorts);
        for (level, &v) in self.merge_repairs_by_level.iter().enumerate() {
            put(&trace::names::merge_repair_level(level), v);
        }
        put(trace::names::MERGE_ALIGNED_SYNC, self.aligned_syncs);
        put(trace::names::HP_NODE_EXPANSION, self.hp_expansions);
        set
    }

    /// Record every non-zero counter into `tracer` at its current clock.
    pub fn record(&self, tracer: &mut trace::Tracer) {
        for (name, v) in self.to_counter_set().iter() {
            tracer.add(name, v);
        }
    }
}
