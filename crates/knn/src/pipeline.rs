//! End-to-end k-NN search: distance phase + k-selection phase.
//!
//! Every native entry runs one loop, the tile-streamed search:
//!
//! * [`knn_search`] / [`knn_search_with`] — the library entry points a
//!   downstream user calls: that loop at
//!   [`block::DEFAULT_STREAM_TILE`] on one worker, under any
//!   [`Metric`].
//! * [`knn_search_streamed_parallel`] — the same loop on `threads`
//!   workers with a caller-chosen tile. Workers claim query *blocks*
//!   from a shared cursor and, per reference tile, fill the distance
//!   rows of a query quad into four reused `tile`-length scratch rows,
//!   then scan each row into that query's [`kselect::TopK`]: the values
//!   below the query's running k-th distance go into one per-worker
//!   candidate buffer, which is cut back to k whenever it fills. Each
//!   query's k best are sorted once, after its last tile. The full Q×N
//!   matrix is never materialised, so peak distance memory is
//!   O(workers·tile) instead of O(Q·N). The neighbors are the k
//!   smallest by `(dist, id)` — a full sort of the row, the lowest id
//!   winning a tie — identical for every entry, tile size and thread
//!   count, whatever the [`SelectConfig`] beyond its `k`. One worker
//!   runs inline on the caller's thread.
//!   [`knn_search_streamed_parallel_timelined`] is the same loop with
//!   observer, cancellation and timeline hooks; `knn::metered` builds
//!   every instrumented search on it.
//! * [`gpu_knn`] — the simulated pipeline the experiments use: distances
//!   are computed natively (they are *data*), the distance kernel's cost
//!   is charged analytically, and k-selection runs for real on the SIMT
//!   simulator. Returns the per-phase simulated times the paper's Table I
//!   reports.
//! * [`gpu_knn_traced`] — the same pipeline recording its phases as
//!   spans on a [`trace::Tracer`]'s simulated clock, plus the kernel
//!   event counters when the `trace` feature is on.
//! * [`gpu_knn_resilient`] — the checked, fault-tolerant pipeline:
//!   typed input validation ([`KnnError`]), PCIe transfers that survive
//!   stalls and detected corruption, and per-warp retry with degraded
//!   host fallback via [`kselect::gpu::gpu_select_k_resilient`].

use std::ops::Range;

use kselect::gpu::{
    gpu_select_k, gpu_select_k_resilient, gpu_select_k_resilient_gated, DistanceMatrix,
    GpuResilience, GpuResilientSelect, KernelCounters, SearchReport,
};
use kselect::types::Neighbor;
use kselect::{Candidates, KnnError, SelectConfig, TopK};
use simt::{Metrics, TimingModel};
use trace::{NullTimeline, TimelineHooks};

use crate::dataset::PointSet;
use crate::distance::{block, clamp_non_finite, gpu_distance_metrics, simd};
use crate::metric::Metric;
use crate::pcie::{self, PcieReport};

/// A phase of the native (wall-clock) pipeline, named for observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One query end to end on the former row path. No pipeline emits
    /// it since [`knn_search_with`] runs the streamed loop, which
    /// reports the `Tile*` phases; it stays so observers that match it
    /// by name keep compiling.
    Query,
    /// Distance-row fill of one query on the former row path. Not
    /// emitted; kept for the same reason as [`Phase::Query`].
    RowFill,
    /// k-selection over one query's full row on the former row path.
    /// Not emitted; kept for the same reason as [`Phase::Query`].
    RowSelect,
    /// Distance fill of one query quad (the last of a block may hold
    /// fewer queries) × one reference tile in
    /// [`knn_search_streamed_parallel_timelined`].
    TileFill,
    /// Threshold scan of one query × one tile row into the worker's
    /// candidate buffer in [`knn_search_streamed_parallel_timelined`],
    /// including the cuts a full buffer triggers mid-tile.
    TileSelect,
    /// Cut of one query's buffered candidates back to its k best in
    /// [`knn_search_streamed_parallel_timelined`], plus, on its last
    /// tile, the sort of those k — one observation per query × tile at
    /// every thread count.
    TileMerge,
}

/// Observation hooks for the native pipeline.
///
/// The default methods are no-ops, and the pipelines are generic over
/// the observer, so [`NullObserver`] monomorphizes to *exactly* the
/// uninstrumented code — no wall-clock reads, no bookkeeping. The
/// `metrics` cargo feature ships a registry-backed implementation
/// ([`crate::metered`]); library users can plug their own.
///
/// Hooks must not change observable behaviour: `timed` runs `f` exactly
/// once and returns its result unchanged.
pub trait PhaseObserver: Sync {
    /// Run `f`, optionally measuring its duration under `phase`.
    #[inline]
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let _ = phase;
        f()
    }
    /// [`PhaseObserver::timed`] that also identifies which query the
    /// phase belongs to. Defaults to the query-blind `timed`, so
    /// aggregate-only observers keep working unchanged; the per-query
    /// journal overrides this to attribute latency to individual
    /// queries.
    #[inline]
    fn timed_q<R>(&self, phase: Phase, qi: usize, f: impl FnOnce() -> R) -> R {
        let _ = qi;
        self.timed(phase, f)
    }
    /// [`PhaseObserver::timed`] for one span shared by the queries
    /// `qs` — the streamed path fills a query quad's rows in one kernel
    /// call. Defaults to the query-blind `timed` (one observation); the
    /// per-query journal overrides this to split the span across `qs`.
    #[inline]
    fn timed_qs<R>(&self, phase: Phase, qs: Range<usize>, f: impl FnOnce() -> R) -> R {
        let _ = qs;
        self.timed(phase, f)
    }
    /// Peak bytes of the distance scratch a pipeline holds.
    #[inline]
    fn scratch_bytes(&self, _bytes: u64) {}
    /// Final stream-merge totals: candidates the per-query top-k
    /// buffers took in (values below the running bound) and candidates
    /// their cuts dropped.
    #[inline]
    fn merger_stats(&self, _pushed: u64, _rejected: u64) {}
    /// One query's stream-merge totals (the per-query refinement of
    /// [`PhaseObserver::merger_stats`]).
    #[inline]
    fn query_merger_stats(&self, _qi: usize, _pushed: u64, _rejected: u64) {}
    /// Which pool worker serviced query `qi`. Fired once per query;
    /// the journal records it on the query's record.
    #[inline]
    fn query_worker(&self, _qi: usize, _worker: usize) {}
}

/// The zero-cost default observer.
pub struct NullObserver;

impl PhaseObserver for NullObserver {}

/// Cooperative cancellation for the streamed pipeline, polled at tile
/// boundaries.
///
/// The serving layer propagates per-request deadlines through this
/// hook: once a request's budget is spent, the next poll returns
/// `true` and the search stops consuming work instead of finishing
/// late. Implementations must be deterministic functions of
/// `tiles_done` (and their own construction) — the streamed pipeline
/// replays byte-identically, and a token that consulted a wall clock
/// would break that.
pub trait CancelToken: Sync {
    /// Polled before each tile with the number of tiles already
    /// completed; return `true` to stop before the next tile starts.
    fn is_cancelled(&self, tiles_done: usize) -> bool;
}

/// The zero-cost default token: never cancels. Monomorphizes
/// [`knn_search_streamed_parallel_timelined`] to exactly the
/// uncancellable code.
pub struct NeverCancel;

impl CancelToken for NeverCancel {
    #[inline]
    fn is_cancelled(&self, _tiles_done: usize) -> bool {
        false
    }
}

/// Token that admits exactly `max_tiles` tiles — how a caller with a
/// precomputed per-tile cost model (the serving layer) expresses "this
/// request's deadline affords N tiles".
pub struct TileBudget(pub usize);

impl CancelToken for TileBudget {
    #[inline]
    fn is_cancelled(&self, tiles_done: usize) -> bool {
        tiles_done >= self.0
    }
}

/// A streamed search stopped at a tile boundary by its [`CancelToken`].
///
/// Partial results are deliberately not returned: a top-k over a
/// prefix of the references is not the exact answer, and delivering it
/// silently would violate the pipeline's never-wrong contract. The
/// caller knows how many tiles were completed and can report the
/// consumed work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// Tiles fully processed before the token tripped.
    pub tiles_done: usize,
    /// Tiles the full search would have processed.
    pub tiles_total: usize,
}

/// Native k-NN search: for each query, the k nearest references by
/// squared Euclidean distance, sorted ascending by `(dist, id)`.
///
/// # Panics
/// When `cfg.k` is zero or exceeds the number of references, or the
/// point sets disagree on dimensionality.
pub fn knn_search(queries: &PointSet, refs: &PointSet, cfg: &SelectConfig) -> Vec<Vec<Neighbor>> {
    knn_search_with(queries, refs, cfg, Metric::SquaredEuclidean)
}

/// [`knn_search`] under an arbitrary [`crate::metric::Metric`].
///
/// The streamed loop of [`knn_search_streamed_parallel_timelined`] at
/// [`block::DEFAULT_STREAM_TILE`] on one worker, so the neighbors are
/// those of every other native entry at any tile and thread count.
/// Squared Euclidean rows go through the GEMM-decomposed quad fill with
/// the norms hoisted out of the tile loop; the other metrics fill each
/// row with [`Metric::distance`], non-finite values clamped to `+∞`.
///
/// # Panics
/// When `cfg.k` is zero or exceeds the number of references, or the
/// point sets disagree on dimensionality.
pub fn knn_search_with(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
) -> Vec<Vec<Neighbor>> {
    knn_search_with_observed(queries, refs, cfg, metric, &NullObserver)
}

/// [`knn_search_with`] with [`PhaseObserver`] hooks: the per query ×
/// tile fill, select and merge spans, the worker's scratch bytes and
/// the merge totals. Results are identical to the unobserved path.
///
/// # Panics
/// As [`knn_search_with`].
pub fn knn_search_with_observed<O: PhaseObserver>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
    obs: &O,
) -> Vec<Vec<Neighbor>> {
    let (tile, never, null) = (block::DEFAULT_STREAM_TILE, &NeverCancel, &NullTimeline);
    let out = stream(queries, refs, cfg, metric, tile, 1, obs, never, null);
    out.unwrap_or_else(|c| unreachable!("NeverCancel cancelled at tile {}", c.tiles_done))
}

/// Resolve a caller-facing thread-count request: `0` means "auto"
/// (`RAYON_NUM_THREADS`, else the host's available parallelism), any
/// positive value is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
}

/// Tile-streamed native k-NN search by squared Euclidean distance on
/// `threads` OS threads (`0` = auto, see [`resolve_threads`]), never
/// materialising the Q×N distance matrix. See
/// [`knn_search_streamed_parallel_timelined`] for the schedule.
///
/// Use [`block::DEFAULT_STREAM_TILE`] for `tile` when in doubt. The
/// result is the `cfg.k` smallest distances of each query's row,
/// ordered by `(dist, id)`: under exact ties at the k-th distance the
/// lowest ids are kept. Only `cfg.k` is read; every queue kind, with or
/// without buffering and Hierarchical Partition, returns the same
/// neighbors, and so does [`knn_search`].
/// `+∞` distances are never returned: with fewer than k finite
/// distances a query gets fewer than k neighbors.
///
/// # Panics
/// When `tile` is zero, `cfg.k` is zero or exceeds the number of
/// references, or the point sets disagree on dimensionality.
pub fn knn_search_streamed_parallel(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tile: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    knn_search_streamed_parallel_timelined(
        queries,
        refs,
        cfg,
        tile,
        threads,
        &NullObserver,
        &NeverCancel,
        &NullTimeline,
    )
    .unwrap_or_else(|c| unreachable!("NeverCancel cancelled at tile {}", c.tiles_done))
}

/// [`knn_search_streamed_parallel`] with observer, cancellation and
/// timeline hooks: the streamed pipeline, the one loop every native
/// entry runs (by squared Euclidean distance here; [`knn_search_with`]
/// and `knn::metered` run it under any [`Metric`]).
///
/// Workers claim [`block::QUERY_BLOCK`]-sized query blocks from a shared
/// atomic cursor (a fast worker takes the next block as soon as it
/// finishes one) and walk *every* reference tile of their block in
/// ascending order. Per tile, the block's queries are walked in quads
/// of [`simd::QUAD`] (the last quad of a block holds the 1–3 left
/// over): one kernel call fills the quad's distance rows into the
/// worker's `tile`-length scratch rows ([`Phase::TileFill`], one span
/// shared by the quad), then each query in turn is pushed into its
/// [`TopK`] ([`Phase::TileSelect`]) and settled ([`Phase::TileMerge`])
/// before the next quad reuses the rows. Squared Euclidean rows come
/// from [`simd::fill_rows_quad`], every distance bit-equal to the
/// single-row fill's, so the grouping changes no neighbor. Any other
/// `metric` fills each row with [`Metric::distance`], non-finite values
/// clamped to `+∞`; the [`TopK`] key ranks negative distances too.
///
/// The push is a branch-free scan of the row: every value below the
/// query's running k-th distance is appended to the worker's one
/// [`Candidates`] buffer of `2k + 64` keys, and a full buffer is cut
/// to the k smallest mid-tile, which tightens the bound. The settle
/// cuts to k and keeps those keys as the query's state. On the query's
/// last tile [`TopK::finish`] takes the settle's place: it cuts to k
/// and sorts those keys in the worker's buffer, the one sort of the
/// query's picks, by a bitonic network on the `avx512` dispatch and
/// `sort_unstable` on the others (the same order, since no two keys
/// are equal).
/// A value at or above the bound has a larger id than the k-th key,
/// so it loses the `(dist, id)` order and skipping it is exact. Each
/// query's tiles are pushed in ascending order at any thread count, so
/// the neighbors are identical at any thread count; only wall-clock
/// interleaving varies. Peak distance scratch is
/// `workers × (rows × min(tile, N) + 4 × dim)` floats, where `rows` is
/// `min(4, block length)` and `4 × dim` is the quad kernel's query
/// pack ([`simd::pack_len`]), reserved on every kernel and metric. One
/// worker runs inline on the caller's thread.
///
/// `obs` receives the per-phase hooks from whichever worker owns the
/// query's block; the aggregate merge totals are folded once after the
/// pool joins. `tl` receives per-worker [`TimelineHooks`]: each worker
/// announces itself, every block claim / tile walk / block completion
/// fires on that worker's track, and the scratch reservation is
/// reported once per worker. The hooks carry **no timestamps** — a
/// clock-owning implementation (such as `knn::metered`'s recorder
/// adapter) stamps them on arrival, so this module stays clock-free.
/// [`NullObserver`], [`NeverCancel`] and [`NullTimeline`] monomorphize
/// to exactly the uninstrumented code.
///
/// `token` is polled per block with that block's completed-tile count.
/// [`CancelToken`]s are deterministic functions of `tiles_done` (the
/// trait contract), so every block trips at the same tile index and the
/// returned [`Cancelled`] reports the same boundary at any thread
/// count; when workers race past a trip, the earliest boundary wins.
/// Partial results are dropped (see [`Cancelled`]).
///
/// # Panics
/// When `tile` is zero, `cfg.k` is zero or exceeds the number of
/// references, or the point sets disagree on dimensionality.
#[allow(clippy::too_many_arguments)]
pub fn knn_search_streamed_parallel_timelined<
    O: PhaseObserver,
    C: CancelToken,
    T: TimelineHooks,
>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tile: usize,
    threads: usize,
    obs: &O,
    token: &C,
    tl: &T,
) -> Result<Vec<Vec<Neighbor>>, Cancelled> {
    let metric = Metric::SquaredEuclidean;
    stream(queries, refs, cfg, metric, tile, threads, obs, token, tl)
}

/// [`knn_search_streamed_parallel_timelined`] under any `metric`: the
/// loop itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream<O: PhaseObserver, C: CancelToken, T: TimelineHooks>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
    tile: usize,
    threads: usize,
    obs: &O,
    token: &C,
    tl: &T,
) -> Result<Vec<Vec<Neighbor>>, Cancelled> {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    assert!(tile > 0, "tile size must be positive");
    assert!(cfg.k <= refs.len(), "k exceeds the number of references");
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");
    let q = queries.len();
    let n = refs.len();
    let tile = tile.min(n.max(1));
    let euclidean = metric == Metric::SquaredEuclidean;
    let (ref_norms, q_norms) = if euclidean {
        (block::norms(refs), block::norms(queries))
    } else {
        (Vec::new(), Vec::new())
    };
    let tiles_total = n.div_ceil(tile);
    let block_len = block::QUERY_BLOCK.min(q.max(1));
    let blocks_total = q.div_ceil(block_len);
    let workers = resolve_threads(threads).min(blocks_total.max(1));
    // One scratch row per query of the quad the kernel fills at once,
    // then the kernel's query pack, whatever the kernel and metric.
    let rows = simd::QUAD.min(block_len);
    let scratch_len = rows * tile + simd::pack_len(refs.dim());
    let scratch_bytes = (scratch_len * core::mem::size_of::<f32>()) as u64;
    obs.scratch_bytes(workers as u64 * scratch_bytes);

    let next_block = AtomicUsize::new(0);
    // Earliest tile boundary any block's token tripped at; usize::MAX =
    // not cancelled.
    let cancel_at = AtomicUsize::new(usize::MAX);
    let pushed_total = AtomicU64::new(0);
    let rejected_total = AtomicU64::new(0);
    let done: Mutex<Vec<(usize, Vec<Vec<Neighbor>>)>> =
        Mutex::new(Vec::with_capacity(blocks_total));

    rayon::scope_broadcast(workers, |worker| {
        tl.worker_started(worker);
        tl.scratch_reserved(worker, scratch_bytes);
        let mut scratch = vec![0.0f32; scratch_len];
        let (dist_rows, pack) = scratch.split_at_mut(rows * tile);
        let mut cand = Candidates::new(cfg.k);
        'work: loop {
            if cancel_at.load(Ordering::Relaxed) != usize::MAX {
                break 'work;
            }
            let b = next_block.fetch_add(1, Ordering::Relaxed);
            if b >= blocks_total {
                break 'work;
            }
            tl.block_claimed(worker, b);
            let q0 = b * block_len;
            let q1 = (q0 + block_len).min(q);
            let mut tops: Vec<TopK> = (q0..q1).map(|_| TopK::new(cfg.k)).collect();
            let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); q1 - q0];
            for (tiles_done, r0) in (0..n).step_by(tile).enumerate() {
                if token.is_cancelled(tiles_done) {
                    cancel_at.fetch_min(tiles_done, Ordering::Relaxed);
                    tl.block_finished(worker, b, tiles_done);
                    break 'work;
                }
                // Another block already tripped: this block's remaining
                // work would be discarded anyway.
                if cancel_at.load(Ordering::Relaxed) != usize::MAX {
                    tl.block_finished(worker, b, tiles_done);
                    break 'work;
                }
                let len = tile.min(n - r0);
                let last = r0 + len == n;
                for ((qa, ts), outs) in (q0..q1)
                    .step_by(simd::QUAD)
                    .zip(tops.chunks_mut(simd::QUAD))
                    .zip(out.chunks_mut(simd::QUAD))
                {
                    let (qs, m) = (qa..qa + ts.len(), ts.len());
                    let mut fill = block::quad_rows(dist_rows, tile, 0..len);
                    obs.timed_qs(Phase::TileFill, qs.clone(), || {
                        if euclidean {
                            let qps: [&[f32]; simd::QUAD] =
                                core::array::from_fn(|b| queries.point(qa + b.min(m - 1)));
                            simd::fill_rows_quad(
                                &qps[..m],
                                &q_norms[qs.clone()],
                                refs,
                                &ref_norms,
                                r0,
                                &mut fill[..m],
                                pack,
                            )
                        } else {
                            fill_rows_with(metric, queries, qs.clone(), refs, r0, &mut fill[..m])
                        }
                    });
                    for (((qi, top), o), row) in qs.zip(ts).zip(outs).zip(&fill) {
                        obs.timed_q(Phase::TileSelect, qi, || {
                            top.push(&mut cand, row, r0 as u32)
                        });
                        obs.timed_q(Phase::TileMerge, qi, || {
                            if last {
                                *o = top.finish(&mut cand);
                            } else {
                                top.settle(&mut cand);
                            }
                        });
                    }
                }
                tl.tile_walked(worker, b, tiles_done);
            }
            let (mut pushed, mut rejected) = (0u64, 0u64);
            for (qi, t) in (q0..q1).zip(&tops) {
                let s = t.stats();
                obs.query_merger_stats(qi, s.pushed, s.rejected);
                obs.query_worker(qi, worker);
                pushed += s.pushed;
                rejected += s.rejected;
            }
            pushed_total.fetch_add(pushed, Ordering::Relaxed);
            rejected_total.fetch_add(rejected, Ordering::Relaxed);
            done.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((b, out));
            // Finish *after* the results push so the block span absorbs
            // any contention on the results mutex.
            tl.block_finished(worker, b, tiles_total);
        }
        tl.worker_finished(worker);
    });

    let tripped = cancel_at.load(Ordering::Relaxed);
    if tripped != usize::MAX {
        return Err(Cancelled {
            tiles_done: tripped,
            tiles_total,
        });
    }
    obs.merger_stats(
        pushed_total.load(Ordering::Relaxed),
        rejected_total.load(Ordering::Relaxed),
    );
    let mut blocks = done.into_inner().unwrap_or_else(|e| e.into_inner());
    blocks.sort_unstable_by_key(|&(b, _)| b);
    Ok(blocks.into_iter().flat_map(|(_, v)| v).collect())
}

/// Fill the row of each query in `qs` (one per entry of `rows`) with
/// its `metric` distances to the references from `r0` on, non-finite
/// values clamped to `+∞`. Kept out of line so that the squared
/// Euclidean loop around it stays small.
#[inline(never)]
fn fill_rows_with(
    metric: Metric,
    queries: &PointSet,
    qs: Range<usize>,
    refs: &PointSet,
    r0: usize,
    rows: &mut [&mut [f32]],
) {
    for (qi, row) in qs.zip(rows) {
        let qp = queries.point(qi);
        for (d, ri) in row.iter_mut().zip(r0..) {
            *d = clamp_non_finite(metric.distance(qp, refs.point(ri)));
        }
    }
}

/// Result of the simulated GPU k-NN pipeline.
pub struct GpuKnnResult {
    /// Per-query neighbors from the simulated selection kernel.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Metrics of the k-selection kernel (measured on the simulator).
    pub select_metrics: Metrics,
    /// Metrics of the distance kernel (analytic model).
    pub distance_metrics: Metrics,
    /// Simulated seconds for the selection kernel.
    pub select_time: f64,
    /// Simulated seconds for the distance kernel.
    pub distance_time: f64,
    /// Technique-level event counters from the selection kernel
    /// (all-zero unless built with the `trace` feature).
    pub counters: KernelCounters,
}

/// Run the full simulated pipeline for `queries` × `refs`.
///
/// The distance matrix is computed natively and uploaded into simulated
/// global memory; the distance kernel's execution cost comes from
/// [`gpu_distance_metrics`] (see that function for the calibration
/// rationale), while k-selection executes instruction-by-instruction on
/// the simulator.
pub fn gpu_knn(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
) -> GpuKnnResult {
    let mut scratch = trace::Tracer::new();
    gpu_knn_traced(tm, queries, refs, cfg, &mut scratch)
}

/// [`gpu_knn`], recording the pipeline onto `tracer`'s simulated clock.
///
/// The trace lays out as: a `gpu_knn` phase containing the `distance`
/// phase (analytic distance kernel), a `transfer.upload` phase (PCIe
/// cost of the distance matrix — informational; not part of the
/// returned kernel times, matching the paper's timing breakdown), and
/// the `select` phase whose `gpu_select_k` kernel span nests an
/// `hp_build` span (when Hierarchical Partition is on) and one
/// concurrent per-warp span per launched warp. Kernel event counters
/// are folded into the tracer at the end of the selection phase.
pub fn gpu_knn_traced(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tracer: &mut trace::Tracer,
) -> GpuKnnResult {
    use trace::Category;

    let pipeline = tracer.open_span(Category::Phase, "gpu_knn");

    // Distance phase: computed natively, costed analytically.
    let dist_m = gpu_distance_metrics(queries.len(), refs.len(), queries.dim());
    let distance_time = tracer.scoped(Category::Phase, "distance", |t| {
        simt::tracing::kernel_span(t, "distance_kernel", tm, &dist_m)
    });
    let fm = block::squared_distances(queries, refs);
    let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());

    // The distance matrix never leaves the device in the real pipeline;
    // this span records what uploading the *inputs* would cost.
    let input_bytes = ((queries.len() + refs.len()) * queries.dim() * 4) as u64;
    simt::tracing::transfer_span(tracer, "transfer.upload", tm, input_bytes);

    // Selection phase: executed instruction-by-instruction.
    let sel = gpu_select_k(&tm.spec, &dm, cfg);
    let select_time = tm.kernel_time(&sel.metrics);
    let select_phase = tracer.open_span(Category::Phase, "select");
    let kernel = tracer.open_span(Category::Kernel, "gpu_select_k");
    // HP construction is a prefix of the kernel's metrics, and the
    // timing model is monotone, so its share fits inside the kernel span.
    let build_time = tm.kernel_time(&sel.build_metrics);
    if sel.build_metrics.issued > 0 {
        tracer.span(Category::Build, "hp_build", build_time);
    }
    simt::tracing::warp_spans(tracer, "select", sel.n_warps, select_time - build_time);
    tracer.close_span(kernel);
    tracer.merge_counters(&sel.counters.to_counter_set());
    tracer.close_span(select_phase);

    tracer.close_span(pipeline);

    GpuKnnResult {
        neighbors: sel.neighbors,
        select_time,
        distance_time,
        select_metrics: sel.metrics,
        distance_metrics: dist_m,
        counters: sel.counters,
    }
}

/// Typed validation of one point set: a zero-dimensional or empty set,
/// or any non-finite coordinate, is a named error instead of a panic or
/// a silently wrong answer downstream. `kind` labels the set in the
/// error ("query" / "reference").
pub fn validate_points(points: &PointSet, kind: &'static str) -> Result<(), KnnError> {
    if points.is_empty() {
        return Err(KnnError::EmptyInput { what: kind });
    }
    if points.dim() == 0 {
        return Err(KnnError::ZeroDim);
    }
    if let Some(flat_idx) = points.as_flat().iter().position(|v| !v.is_finite()) {
        return Err(KnnError::NonFiniteInput {
            kind,
            index: flat_idx / points.dim(),
        });
    }
    Ok(())
}

/// Result of the resilient simulated pipeline.
#[derive(Debug)]
pub struct ResilientKnnResult {
    /// Per-query neighbors; `None` only for queries whose status is
    /// [`kselect::gpu::QueryStatus::Failed`].
    pub neighbors: Vec<Option<Vec<Neighbor>>>,
    /// Per-query outcomes and recovery totals. PCIe stall/corruption
    /// counts from the input upload are folded in.
    pub report: SearchReport,
    /// Metrics of the accepted selection attempts.
    pub select_metrics: Metrics,
    /// Metrics of rejected selection attempts — simulated work that was
    /// retried away.
    pub wasted_metrics: Metrics,
    /// Metrics of the distance kernel (analytic model).
    pub distance_metrics: Metrics,
    /// Simulated seconds for the accepted selection work.
    pub select_time: f64,
    /// Simulated seconds for the distance kernel.
    pub distance_time: f64,
    /// The (possibly faulted, possibly retried) input upload.
    pub upload: PcieReport,
    /// Technique-level event counters from accepted attempts.
    pub counters: KernelCounters,
}

impl ResilientKnnResult {
    /// Total modelled simulated seconds this request consumed end to
    /// end: the input upload (including stall and retry time), the
    /// analytic distance kernel, accepted *and* wasted selection work,
    /// retry backoff, and the host-fallback row transfers. A selection
    /// phase that never launched (every warp gated out by a deadline)
    /// costs zero rather than a phantom launch overhead.
    pub fn modeled_seconds(&self, tm: &TimingModel) -> f64 {
        let kernel_s = |m: &Metrics| {
            if m.issued == 0 {
                0.0
            } else {
                tm.kernel_time(m)
            }
        };
        self.upload.seconds
            + self.distance_time
            + kernel_s(&self.select_metrics)
            + kernel_s(&self.wasted_metrics)
            + self.report.backoff_s
            + self.report.fallback_transfer_s
    }
}

/// [`gpu_knn`] hardened end to end. Inputs are validated up front
/// ([`validate_points`] plus the selection-request checks), the input
/// upload runs through the faultable PCIe model
/// ([`pcie::transfer_with_faults`]), and k-selection runs under
/// `res`'s retry/validation/fallback policy. Everything — including an
/// injected fault campaign — is deterministic, so the whole
/// [`ResilientKnnResult`] replays byte for byte.
pub fn gpu_knn_resilient(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    res: &GpuResilience,
) -> Result<ResilientKnnResult, KnnError> {
    resilient_pipeline(tm, queries, refs, res, |dm, _| {
        gpu_select_k_resilient(&tm.spec, dm, cfg, res)
    })
}

/// The body [`gpu_knn_resilient`] and [`gpu_knn_resilient_deadline`]
/// share: validate the inputs, compute the distance matrix natively
/// (costed analytically), upload the input points across the (possibly
/// faulted) link, then run `select` on the matrix with the simulated
/// seconds spent so far, and fold the upload's PCIe counts into the
/// selection report.
fn resilient_pipeline(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    res: &GpuResilience,
    select: impl FnOnce(&DistanceMatrix, f64) -> Result<GpuResilientSelect, KnnError>,
) -> Result<ResilientKnnResult, KnnError> {
    validate_points(queries, "query")?;
    validate_points(refs, "reference")?;
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");

    let dist_m = gpu_distance_metrics(queries.len(), refs.len(), queries.dim());
    let distance_time = tm.kernel_time(&dist_m);
    let fm = block::squared_distances(queries, refs);
    let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());

    // Upload the input points across the (possibly faulted) link. A
    // corrupt payload is detected and retried; only persistent
    // corruption escalates to `TransferFailed`.
    let input_bytes = ((queries.len() + refs.len()) * queries.dim() * 4) as u64;
    let upload = match &res.faults {
        Some(plan) => pcie::transfer_with_faults(&tm.spec, input_bytes, plan, 0, res.max_attempts)?,
        None => PcieReport {
            attempts: 1,
            seconds: pcie::transfer_time(&tm.spec, input_bytes),
            ..PcieReport::default()
        },
    };

    let sel = select(&dm, upload.seconds + distance_time)?;
    let mut report = sel.report;
    report.counters.pcie_stalls += upload.stalls;
    report.counters.pcie_corruptions += upload.corruptions;

    Ok(ResilientKnnResult {
        neighbors: sel.neighbors,
        report,
        select_time: tm.kernel_time(&sel.metrics),
        distance_time,
        select_metrics: sel.metrics,
        wasted_metrics: sel.wasted,
        distance_metrics: dist_m,
        upload,
        counters: sel.counters,
    })
}

/// [`gpu_knn_resilient`] under a simulated-time deadline, with
/// cooperative cancellation at warp-launch boundaries.
///
/// `budget_s` is the request's remaining deadline budget in simulated
/// seconds, measured from the start of the input upload. The upload
/// and the analytic distance kernel are single device-side operations
/// and always complete (a launch in flight is not preempted); the
/// selection kernel then consults a gate before *every* warp launch —
/// once `upload + distance + selection work so far (accepted and
/// wasted) + backoff` reaches the budget, no further warp launches,
/// and the remaining queries report
/// [`kselect::gpu::QueryStatus::DeadlineExceeded`] with no result:
/// past-deadline queries stop consuming work instead of finishing
/// late. Gated selection runs warps sequentially in warp-id order (see
/// [`simt::launch_resilient_gated`]), so with a generous budget the
/// output is byte-identical to [`gpu_knn_resilient`].
pub fn gpu_knn_resilient_deadline(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    res: &GpuResilience,
    budget_s: f64,
) -> Result<ResilientKnnResult, KnnError> {
    resilient_pipeline(tm, queries, refs, res, |dm, spent_before_select| {
        gpu_select_k_resilient_gated(&tm.spec, dm, cfg, res, |_, consumed, backoff_s| {
            let select_s = if consumed.issued == 0 {
                0.0
            } else {
                tm.kernel_time(consumed)
            };
            spent_before_select + select_s + backoff_s < budget_s
        })
    })
}

/// Lowercase queue-kind tag journal records carry (`merge`, `heap`,
/// `insertion`).
pub fn queue_tag(cfg: &SelectConfig) -> String {
    format!("{:?}", cfg.queue).to_lowercase()
}

/// [`gpu_knn_resilient`] that additionally emits one
/// [`trace::QueryRecord`] per query into `journal`, correlating each
/// query's retry/fallback outcome with its latency share.
///
/// The simulated pipeline has no per-query wall clock, so the record's
/// nanoseconds are **simulated-time attribution**: the distance
/// kernel's time is shared evenly across queries, the accepted
/// selection time is split proportionally to each query's kernel
/// attempts (a query that needed 3 attempts carries 3 shares), retry
/// backoff is split across the *extra* attempts, and the host-fallback
/// transfer across the fallback queries. The attribution sums back to
/// the report's totals, and — by construction — the slowest-query
/// exemplars are exactly the queries the resilience layer struggled
/// with, which is what a tail investigation needs surfaced.
///
/// `tag` labels the run in every record (e.g. the fault-campaign seed).
/// With a [`trace::NullJournal`] this is `gpu_knn_resilient` plus one
/// dead branch.
pub fn gpu_knn_resilient_journaled<J: trace::Journal>(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    res: &GpuResilience,
    journal: &J,
    tag: &str,
) -> Result<ResilientKnnResult, KnnError> {
    use kselect::gpu::QueryStatus;

    let out = gpu_knn_resilient(tm, queries, refs, cfg, res)?;
    if !journal.enabled() {
        return Ok(out);
    }
    let q = out.report.statuses.len().max(1) as f64;
    let attempts: Vec<u32> = out
        .report
        .statuses
        .iter()
        .map(|s| match s {
            QueryStatus::Ok => 1,
            QueryStatus::Recovered { attempts } | QueryStatus::Fallback { attempts } => *attempts,
            QueryStatus::Failed { after_attempts, .. } => *after_attempts,
            // A gated-out warp never launched, so its queries carry no
            // attempt share of the selection time.
            QueryStatus::DeadlineExceeded => 0,
        })
        .collect();
    let total_attempts: u64 = attempts.iter().map(|&a| a as u64).sum();
    let extra_attempts: u64 = attempts.iter().map(|&a| a.saturating_sub(1) as u64).sum();
    let fallbacks = out.report.fallback_count().max(1) as f64;
    let distance_ns = out.distance_time * 1e9 / q;
    let select_ns_per_attempt = out.select_time * 1e9 / total_attempts.max(1) as f64;
    let backoff_ns_per_extra = out.report.backoff_s * 1e9 / extra_attempts.max(1) as f64;
    let fallback_ns_each = out.report.fallback_transfer_s * 1e9 / fallbacks;
    for (qi, status) in out.report.statuses.iter().enumerate() {
        let a = attempts[qi];
        let select_ns = select_ns_per_attempt * a as f64;
        let backoff_ns = backoff_ns_per_extra * a.saturating_sub(1) as f64;
        let fallback_ns = if matches!(status, QueryStatus::Fallback { .. }) {
            fallback_ns_each
        } else {
            0.0
        };
        let mut phase_ns = vec![
            (
                trace::journal::phases::DISTANCE.to_string(),
                distance_ns as u64,
            ),
            (trace::journal::phases::SELECT.to_string(), select_ns as u64),
        ];
        if backoff_ns > 0.0 {
            phase_ns.push((
                trace::journal::phases::BACKOFF.to_string(),
                backoff_ns as u64,
            ));
        }
        if fallback_ns > 0.0 {
            phase_ns.push((
                trace::journal::phases::FALLBACK.to_string(),
                fallback_ns as u64,
            ));
        }
        journal.record(trace::QueryRecord {
            query: qi as u64,
            queue: queue_tag(cfg),
            tag: tag.to_string(),
            total_ns: phase_ns.iter().map(|(_, ns)| ns).sum(),
            phase_ns,
            blocks: 1,
            status: status.name().to_string(),
            attempts: a,
            ..trace::QueryRecord::default()
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ground_truth;
    use kselect::QueueKind;

    #[test]
    fn native_and_simulated_pipelines_agree() {
        let queries = PointSet::uniform(40, 16, 101);
        let refs = PointSet::uniform(300, 16, 102);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
        let native = knn_search(&queries, &refs, &cfg);
        let tm = TimingModel::tesla_c2075();
        let sim = gpu_knn(&tm, &queries, &refs, &cfg);
        assert_eq!(native.len(), sim.neighbors.len());
        for (a, b) in native.iter().zip(&sim.neighbors) {
            let ad: Vec<f32> = a.iter().map(|n| n.dist).collect();
            let bd: Vec<f32> = b.iter().map(|n| n.dist).collect();
            assert_eq!(ad, bd);
        }
    }

    #[test]
    fn streamed_matches_materialized_across_tiles() {
        let queries = PointSet::uniform(30, 12, 118);
        let refs = PointSet::uniform(500, 12, 119);
        let full = ground_truth(&queries, &refs, 16, Metric::SquaredEuclidean);
        for kind in [QueueKind::Insertion, QueueKind::Merge, QueueKind::Heap] {
            let cfg = SelectConfig::plain(kind, 16);
            // Tiles straddling k, tile-edge remainders, and tile > N.
            for tile in [7usize, 16, 100, 499, 500, 4096] {
                let streamed = knn_search_streamed_parallel(&queries, &refs, &cfg, tile, 1);
                assert_eq!(streamed, full, "kind {kind:?} tile {tile}");
            }
        }
    }

    #[test]
    fn parallel_streamed_matches_one_thread_at_any_thread_count() {
        // 70 queries = 3 query blocks (QUERY_BLOCK = 32): more blocks
        // than workers at 2 threads, fewer at 8.
        let queries = PointSet::uniform(70, 12, 218);
        let refs = PointSet::uniform(500, 12, 219);
        for kind in [QueueKind::Insertion, QueueKind::Merge, QueueKind::Heap] {
            let cfg = SelectConfig::plain(kind, 16);
            for tile in [7usize, 100, 500, 4096] {
                let one = knn_search_streamed_parallel(&queries, &refs, &cfg, tile, 1);
                for threads in [2usize, 8] {
                    let parallel =
                        knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
                    assert_eq!(parallel, one, "kind {kind:?} tile {tile} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn optimized_streamed_matches_materialized_at_any_tile_and_thread_count() {
        // The streamed top-k only takes values below its running k-th
        // distance; the neighbors must still be byte-identical to one
        // unbounded selection over the whole row.
        // 40 queries = 2 query blocks.
        let queries = PointSet::uniform(40, 12, 226);
        let refs = PointSet::uniform(1000, 12, 227);
        for k in [8usize, 32, 128, 512] {
            let cfg = SelectConfig::optimized(QueueKind::Merge, k);
            let full = ground_truth(&queries, &refs, k, Metric::SquaredEuclidean);
            for tile in [7usize, k - 1, k, 100, 499, 4096] {
                for threads in [1usize, 2, 8] {
                    let streamed =
                        knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
                    assert_eq!(streamed, full, "k {k} tile {tile} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn optimized_streamed_is_exact_under_ties_at_the_kth_value() {
        // 340 distinct points, each three times: every distance comes in
        // three tied copies spread over different tiles, and no k below
        // is a multiple of 3, so the k-th value is tied. Of the copies
        // tied at the k-th value the lowest ids are kept, as in the
        // ground truth's full `(dist, id)` sort.
        let base = PointSet::uniform(340, 6, 228);
        let flat: Vec<f32> = (0..1020)
            .flat_map(|i| base.point(i % 340).to_vec())
            .collect();
        let refs = PointSet::from_flat(flat, 6);
        let queries = PointSet::uniform(40, 6, 229);
        let bits = |rows: &[Vec<Neighbor>]| {
            rows.iter()
                .map(|ns| ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect())
                .collect::<Vec<Vec<_>>>()
        };
        for k in [8usize, 32, 128, 512] {
            let cfg = SelectConfig::optimized(QueueKind::Merge, k);
            let full = bits(&ground_truth(&queries, &refs, k, Metric::SquaredEuclidean));
            for tile in [7usize, k - 1, k, 100, 499, 4096] {
                for threads in [1usize, 2, 8] {
                    let streamed =
                        knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
                    assert_eq!(bits(&streamed), full, "k {k} tile {tile} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_streamed_handles_small_query_counts() {
        // Fewer queries than one block, and exactly one block.
        let refs = PointSet::uniform(300, 8, 220);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        for q in [1usize, 5, 32] {
            let queries = PointSet::uniform(q, 8, 221);
            let one = knn_search_streamed_parallel(&queries, &refs, &cfg, 64, 1);
            let parallel = knn_search_streamed_parallel(&queries, &refs, &cfg, 64, 8);
            assert_eq!(parallel, one, "q {q}");
        }
    }

    /// Records the largest scratch the pipeline reports.
    #[derive(Default)]
    struct ScratchPeak(std::sync::atomic::AtomicU64);

    impl PhaseObserver for ScratchPeak {
        fn scratch_bytes(&self, bytes: u64) {
            self.0
                .fetch_max(bytes, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn scratch_is_one_tile_row_quad_and_pack_per_worker() {
        // 300 queries = 10 query blocks, so 8 workers all get one.
        let queries = PointSet::uniform(300, 8, 224);
        let refs = PointSet::uniform(500, 8, 225);
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);
        let peak_of = |queries: &PointSet, tile: usize, threads: usize| {
            let peak = ScratchPeak::default();
            knn_search_streamed_parallel_timelined(
                queries,
                &refs,
                &cfg,
                tile,
                threads,
                &peak,
                &NeverCancel,
                &NullTimeline,
            )
            .expect("NeverCancel never trips");
            peak.0.into_inner()
        };
        // The query pack of the quad kernel: four rows of dim 8,
        // reserved whatever kernel the host dispatches.
        let pack = 4 * 8;
        for threads in [1usize, 2, 8] {
            // tile < N, and tile > N (the row clamps to N): four rows,
            // one per query of the quad the kernel fills at once.
            for (tile, row) in [(100u64, 100u64), (4096, 500)] {
                assert_eq!(
                    peak_of(&queries, tile as usize, threads),
                    threads as u64 * (4 * row + pack) * 4,
                    "threads {threads} tile {tile}"
                );
            }
        }
        // Searches of 1–3 queries have blocks that short: one row each.
        for q in 1..4 {
            let queries = PointSet::uniform(q, 8, 226);
            assert_eq!(peak_of(&queries, 100, 2), (q as u64 * 100 + pack) * 4);
        }
    }

    #[test]
    fn tile_budget_cancels_at_the_same_boundary_at_any_thread_count() {
        let queries = PointSet::uniform(70, 8, 222);
        let refs = PointSet::uniform(400, 8, 223);
        let cfg = SelectConfig::plain(QueueKind::Heap, 4);
        let run = |threads: usize, budget: usize| {
            knn_search_streamed_parallel_timelined(
                &queries,
                &refs,
                &cfg,
                64,
                threads,
                &NullObserver,
                &TileBudget(budget),
                &NullTimeline,
            )
        };
        // 400 refs / 64-tile = 7 tiles; admit 3 — every block trips at
        // the same boundary, so the report is thread-count independent,
        // and no partial results escape. A zero budget stops before any
        // tile; a budget covering every tile completes exactly.
        let full = knn_search_streamed_parallel(&queries, &refs, &cfg, 64, 1);
        for threads in [1usize, 2, 8] {
            for budget in [0usize, 3] {
                assert_eq!(
                    run(threads, budget),
                    Err(Cancelled {
                        tiles_done: budget,
                        tiles_total: 7
                    }),
                    "threads {threads} budget {budget}"
                );
            }
            assert_eq!(run(threads, 7).as_ref(), Ok(&full), "threads {threads}");
        }
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
    }

    #[test]
    fn deadline_pipeline_with_generous_budget_matches_resilient() {
        let queries = PointSet::uniform(64, 12, 214);
        let refs = PointSet::uniform(300, 12, 215);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let tm = TimingModel::tesla_c2075();
        let res = GpuResilience::default();
        let plain = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap();
        let bounded = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 1e9).unwrap();
        assert_eq!(plain.neighbors, bounded.neighbors);
        assert_eq!(plain.report, bounded.report);
        assert_eq!(plain.select_metrics, bounded.select_metrics);
        assert!(bounded.modeled_seconds(&tm) > 0.0);
    }

    #[test]
    fn deadline_pipeline_sheds_work_past_the_budget() {
        let queries = PointSet::uniform(96, 12, 216); // 3 warps
        let refs = PointSet::uniform(300, 12, 217);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let tm = TimingModel::tesla_c2075();
        let res = GpuResilience::default();
        let full = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 1e9).unwrap();
        let full_s = full.modeled_seconds(&tm);

        // A budget below even the upload+distance cost launches nothing.
        let starved = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 0.0).unwrap();
        assert_eq!(starved.report.deadline_exceeded_count(), 96);
        assert!(starved.neighbors.iter().all(Option::is_none));
        assert_eq!(starved.select_metrics.issued, 0);
        assert!(starved.modeled_seconds(&tm) < full_s);

        // A budget that barely clears upload+distance admits warp 0's
        // launch (a launch in flight completes), then the gate closes:
        // warps 1 and 2 never start, and their 64 queries report
        // deadline-exceeded.
        let partial_budget = starved.upload.seconds + starved.distance_time + 1e-9;
        let partial =
            gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, partial_budget).unwrap();
        assert_eq!(partial.report.deadline_exceeded_count(), 64);
        assert_eq!(partial.report.counters.deadline_skips, 2);
        // The served prefix is bit-identical to the unbounded run.
        for (a, b) in partial.neighbors.iter().zip(&full.neighbors) {
            if let Some(a) = a {
                assert_eq!(Some(a), b.as_ref());
            }
        }
        assert!(partial.modeled_seconds(&tm) < full_s);
    }

    #[test]
    #[should_panic]
    fn streamed_zero_tile_rejected() {
        let p = PointSet::uniform(2, 4, 120);
        knn_search_streamed_parallel(&p, &p, &SelectConfig::plain(QueueKind::Heap, 1), 0, 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let p = PointSet::uniform(2, 4, 121);
        knn_search(&p, &p, &SelectConfig::plain(QueueKind::Heap, 0));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn streamed_zero_k_rejected() {
        let p = PointSet::uniform(40, 4, 122);
        let cfg = SelectConfig::plain(QueueKind::Heap, 0);
        knn_search_streamed_parallel(&p, &p, &cfg, 16, 2);
    }

    #[test]
    fn knn_of_identical_point_is_itself() {
        let refs = PointSet::uniform(50, 8, 103);
        // Query = reference 17 exactly.
        let q = PointSet::from_flat(refs.point(17).to_vec(), 8);
        let cfg = SelectConfig::plain(QueueKind::Insertion, 3);
        let res = knn_search(&q, &refs, &cfg);
        assert_eq!(res[0][0].id, 17);
        assert_eq!(res[0][0].dist, 0.0);
    }

    #[test]
    fn traced_pipeline_emits_balanced_monotonic_spans() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(40, 8, 106);
        let refs = PointSet::uniform(512, 8, 107);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let mut tracer = trace::Tracer::new();
        let res = gpu_knn_traced(&tm, &queries, &refs, &cfg, &mut tracer);
        assert_eq!(res.neighbors.len(), 40);
        assert!(tracer.is_balanced(), "every opened span must close");
        let ts: Vec<f64> = tracer.events().iter().map(|e| e.ts_us).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "simulated timestamps must be monotonic"
        );
        // the pipeline covers the full modelled duration
        assert!(tracer.clock_s() >= res.distance_time + res.select_time);
        let names: Vec<&str> = tracer.events().iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "gpu_knn",
            "distance",
            "transfer.upload",
            "select",
            "gpu_select_k",
        ] {
            assert!(names.contains(&expected), "missing span {expected}");
        }
        // optimized config uses HP ⇒ build span + per-warp lanes appear
        assert!(names.contains(&"hp_build"));
        assert!(names.iter().any(|n| n.starts_with("select.warp")));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_pipeline_collects_kernel_counters() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(32, 8, 108);
        let refs = PointSet::uniform(400, 8, 109);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let mut tracer = trace::Tracer::new();
        let res = gpu_knn_traced(&tm, &queries, &refs, &cfg, &mut tracer);
        assert!(res.counters.queue_inserts > 0);
        assert_eq!(
            tracer.counters().get(trace::names::QUEUE_INSERT),
            res.counters.queue_inserts
        );
    }

    #[test]
    fn resilient_pipeline_validates_inputs() {
        let tm = TimingModel::tesla_c2075();
        let refs = PointSet::uniform(64, 8, 110);
        let good = PointSet::uniform(4, 8, 111);
        let res = GpuResilience::default();
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);

        let empty = PointSet::from_flat(vec![], 8);
        let err = gpu_knn_resilient(&tm, &empty, &refs, &cfg, &res).unwrap_err();
        assert_eq!(err.name(), "empty-input");

        let mut bad = good.as_flat().to_vec();
        bad[2 * 8 + 3] = f32::NAN;
        let nan_query = PointSet::from_flat(bad, 8);
        let err = gpu_knn_resilient(&tm, &nan_query, &refs, &cfg, &res).unwrap_err();
        assert_eq!(
            err,
            KnnError::NonFiniteInput {
                kind: "query",
                index: 2
            }
        );

        let mut bad = refs.as_flat().to_vec();
        bad[7 * 8] = f32::INFINITY;
        let inf_refs = PointSet::from_flat(bad, 8);
        let err = gpu_knn_resilient(&tm, &good, &inf_refs, &cfg, &res).unwrap_err();
        assert_eq!(
            err,
            KnnError::NonFiniteInput {
                kind: "reference",
                index: 7
            }
        );

        let err = gpu_knn_resilient(
            &tm,
            &good,
            &refs,
            &SelectConfig::plain(QueueKind::Heap, 0),
            &res,
        )
        .unwrap_err();
        assert_eq!(err.name(), "invalid-k");
        let err = gpu_knn_resilient(
            &tm,
            &good,
            &refs,
            &SelectConfig::plain(QueueKind::Heap, 65),
            &res,
        )
        .unwrap_err();
        assert_eq!(err, KnnError::InvalidK { k: 65, n: 64 });
    }

    #[test]
    fn resilient_pipeline_matches_plain_when_fault_free() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(40, 16, 112);
        let refs = PointSet::uniform(300, 16, 113);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
        let plain = gpu_knn(&tm, &queries, &refs, &cfg);
        let out = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &GpuResilience::default()).unwrap();
        assert_eq!(out.select_metrics, plain.select_metrics);
        assert_eq!(out.select_time, plain.select_time);
        assert_eq!(out.distance_time, plain.distance_time);
        assert_eq!(out.wasted_metrics, Metrics::new());
        for (qi, got) in out.neighbors.iter().enumerate() {
            assert_eq!(got.as_deref(), Some(&plain.neighbors[qi][..]));
        }
        assert_eq!(out.report.ok_count(), 40);
        assert_eq!(out.upload.attempts, 1);
        assert!(out.upload.seconds > 0.0);
    }

    #[test]
    fn pcie_stalls_surface_in_the_report_without_kernel_hooks() {
        // A PCIe-only plan needs no kernel instrumentation, so this runs
        // (and must behave identically) with or without the `fault`
        // feature: the upload stalls, costs extra simulated time, and the
        // stall is counted — but every query still gets the exact result.
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(8, 8, 114);
        let refs = PointSet::uniform(128, 8, 115);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(9).with_pcie(1.0, 0.0));
        let out = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap();
        assert_eq!(out.report.counters.pcie_stalls, 1);
        assert_eq!(out.report.counters.pcie_corruptions, 0);
        let clean = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &GpuResilience::default())
            .unwrap()
            .upload
            .seconds;
        assert!(out.upload.seconds > clean, "a stall costs link time");
        assert_eq!(out.report.ok_count(), 8);
    }

    #[test]
    fn persistent_pcie_corruption_is_a_typed_error() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(4, 8, 116);
        let refs = PointSet::uniform(64, 8, 117);
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);
        let res = GpuResilience {
            max_attempts: 3,
            ..GpuResilience::default()
        }
        .with_faults(simt::FaultPlan::seeded(10).with_pcie(0.0, 1.0));
        let err = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap_err();
        assert_eq!(err, KnnError::TransferFailed { attempts: 3 });
    }

    #[test]
    fn journaled_resilient_pipeline_is_transparent_and_attributes_time() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(24, 8, 121);
        let refs = PointSet::uniform(200, 8, 122);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let res = GpuResilience::default();
        // NullJournal: identical result, nothing recorded
        let plain = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap();
        let nulled =
            gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &trace::NullJournal, "x")
                .unwrap();
        assert_eq!(nulled.select_time, plain.select_time);
        assert_eq!(nulled.neighbors.len(), plain.neighbors.len());
        // EventJournal: one record per query, simulated time attributed
        let journal = trace::EventJournal::new(trace::JournalConfig::default());
        let out =
            gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &journal, "campaign")
                .unwrap();
        let snap = journal.snapshot();
        assert_eq!(snap.len(), 24);
        let attributed: u64 = snap.iter().map(|r| r.total_ns).sum();
        let modelled = ((out.distance_time + out.select_time) * 1e9) as u64;
        let drift = attributed.abs_diff(modelled);
        assert!(
            drift <= 24 * 2, // one truncated ns per phase per query
            "attribution must sum back to the modelled total: {attributed} vs {modelled}"
        );
        let expected_dominant = if out.select_time >= out.distance_time {
            "select"
        } else {
            "distance"
        };
        for r in &snap {
            assert_eq!(r.status, "ok");
            assert_eq!(r.attempts, 1);
            assert_eq!(r.queue, "merge");
            assert_eq!(r.tag, "campaign");
            assert_eq!(r.dominant_phase().map(|(p, _)| p), Some(expected_dominant));
        }
    }

    #[cfg(feature = "fault")]
    #[test]
    fn journaled_fault_campaign_surfaces_retries_as_exemplars() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(96, 8, 123);
        let refs = PointSet::uniform(256, 8, 124);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(102).with_aborts(0.9));
        let journal = trace::EventJournal::new(trace::JournalConfig {
            exemplars: 4,
            ..trace::JournalConfig::default()
        });
        gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &journal, "seed41").unwrap();
        let snap = journal.snapshot();
        let retried: Vec<&trace::QueryRecord> = snap.iter().filter(|r| r.attempts > 1).collect();
        assert!(!retried.is_empty(), "a 30% abort rate must retry something");
        for r in &retried {
            assert_ne!(r.status, "ok");
            assert!(
                r.phase_ns
                    .iter()
                    .any(|(p, _)| p == "backoff" || p == "fallback"),
                "retried query must carry recovery phases: {r:?}"
            );
        }
        // exemplars (slowest queries) are exactly where the retries are
        let exemplar_min = snap
            .iter()
            .filter(|r| r.exemplar)
            .map(|r| r.total_ns)
            .min()
            .unwrap();
        let clean_max = snap
            .iter()
            .filter(|r| r.attempts == 1)
            .map(|r| r.total_ns)
            .max()
            .unwrap();
        assert!(
            exemplar_min >= clean_max,
            "retried queries must dominate the exemplar set"
        );
    }

    #[test]
    fn simulated_times_are_positive_and_split() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(32, 8, 104);
        let refs = PointSet::uniform(256, 8, 105);
        let r = gpu_knn(
            &tm,
            &queries,
            &refs,
            &SelectConfig::plain(QueueKind::Heap, 8),
        );
        assert!(r.select_time > 0.0);
        assert!(r.distance_time > 0.0);
        assert!(r.select_metrics.issued > 0);
        assert!(r.distance_metrics.issued > 0);
    }
}
