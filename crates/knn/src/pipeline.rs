//! End-to-end k-NN search: distance phase + k-selection phase.
//!
//! Native search has one entry, [`Index::search`]:
//!
//! * [`Index::new`] checks a reference set once and keeps the squared
//!   norms of its points; every search on the index reuses them.
//! * [`Index::search`] answers a batch of queries under a [`SearchPlan`]
//!   (k, metric, tile, threads) with a [`Hooks`] bundle (observer,
//!   cancel token, timeline), by the tile-streamed loop. Workers claim
//!   query *blocks* from a shared cursor and, per reference tile, fill
//!   the distance rows of a query quad into four reused `tile`-length
//!   scratch rows, then scan each row into that query's
//!   [`kselect::TopK`]: the values below the query's running k-th
//!   distance go into one per-worker candidate buffer, which is cut
//!   back to k whenever it fills. Each query's k best are sorted once,
//!   after its last tile. The full Q×N matrix is never materialised, so
//!   peak distance memory is O(workers·tile) instead of O(Q·N). The
//!   neighbors are the k smallest by `(dist, id)` — a full sort of the
//!   row, the lowest id winning a tie — identical for every tile size
//!   and thread count. One worker runs inline on the caller's thread. A
//!   bad shape (k of 0 or past N, a dimension mismatch, a zero tile) is
//!   a typed [`KnnError`], as is a tripped [`CancelToken`].
//! * [`knn_search`], [`knn_search_with_observed`],
//!   [`knn_search_streamed_parallel`] and
//!   [`knn_search_streamed_parallel_timelined`] are one-line wrappers
//!   over [`Index::search`] that take a [`SelectConfig`] and read only
//!   its `k`. They are held for the `knnbench` benchmark, which calls
//!   them, until the next benchmark change moves it onto [`Index`].
//!   Each builds its [`Index`] per call, borrowing the caller's
//!   references.
//!
//! The simulated GPU pipeline the experiments use is a separate entry,
//! [`crate::simulated::gpu_knn`].

use std::borrow::Cow;
use std::ops::Range;

use kselect::types::Neighbor;
use kselect::{Candidates, KnnError, SelectConfig, TopK};
use trace::{NullTimeline, TimelineHooks};

use crate::dataset::PointSet;
use crate::distance::{block, clamp_non_finite, simd, squared_norm};
use crate::metric::Metric;

/// A phase of the native (wall-clock) pipeline, named for observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One query end to end on the former row path. No search emits
    /// it; the streamed loop reports the `Tile*` phases. It stays so
    /// observers that match it by name keep compiling.
    Query,
    /// Distance-row fill of one query on the former row path. Not
    /// emitted; kept for the same reason as [`Phase::Query`].
    RowFill,
    /// k-selection over one query's full row on the former row path.
    /// Not emitted; kept for the same reason as [`Phase::Query`].
    RowSelect,
    /// Distance fill of one query quad (the last of a block may hold
    /// fewer queries) × one reference tile in [`Index::search`].
    TileFill,
    /// Threshold scan of one query × one tile row into the worker's
    /// candidate buffer in [`Index::search`], including the cuts a full
    /// buffer triggers mid-tile.
    TileSelect,
    /// Cut of one query's buffered candidates back to its k best in
    /// [`Index::search`], plus, on its last tile, the sort of those
    /// k — one observation per query × tile at every thread count.
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
/// [`Index::search`] to exactly the uncancellable code.
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

/// The hooks of one [`Index::search`]: a [`PhaseObserver`], a
/// [`CancelToken`] and per-worker [`TimelineHooks`].
///
/// [`Hooks::NONE`] holds [`NullObserver`], [`NeverCancel`] and
/// [`NullTimeline`], which monomorphize the search to exactly the
/// uninstrumented code; each `with_*` method swaps one hook in.
pub struct Hooks<'h, O = NullObserver, C = NeverCancel, T = NullTimeline> {
    observer: &'h O,
    cancel: &'h C,
    timeline: &'h T,
}

impl Hooks<'static> {
    /// No observer, no cancellation, no timeline.
    pub const NONE: Self = Hooks::new(&NullObserver, &NeverCancel, &NullTimeline);
}

impl<'h, O, C, T> Hooks<'h, O, C, T> {
    /// Hooks from one observer, one cancel token and one timeline.
    const fn new(observer: &'h O, cancel: &'h C, timeline: &'h T) -> Self {
        Hooks {
            observer,
            cancel,
            timeline,
        }
    }
    /// These hooks with `observer` in place of the observer.
    pub fn with_observer<P: PhaseObserver>(self, observer: &'h P) -> Hooks<'h, P, C, T> {
        Hooks::new(observer, self.cancel, self.timeline)
    }
    /// These hooks with `cancel` in place of the cancel token.
    pub fn with_cancel<D: CancelToken>(self, cancel: &'h D) -> Hooks<'h, O, D, T> {
        Hooks::new(self.observer, cancel, self.timeline)
    }
    /// These hooks with `timeline` in place of the timeline.
    pub fn with_timeline<U: TimelineHooks>(self, timeline: &'h U) -> Hooks<'h, O, C, U> {
        Hooks::new(self.observer, self.cancel, timeline)
    }
}

/// What one [`Index::search`] computes: k neighbors per query under
/// `metric`, streamed in `tile`-length reference tiles on `threads`
/// workers. These are all the loop reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchPlan {
    /// Neighbors per query, from 1 to the number of references.
    pub k: usize,
    /// The distance neighbors are ranked by.
    pub metric: Metric,
    /// References per tile; positive, clamped to the number of
    /// references. [`block::DEFAULT_STREAM_TILE`] when in doubt.
    pub tile: usize,
    /// Pool workers; `0` means auto (see [`resolve_threads`]).
    pub threads: usize,
}

impl SearchPlan {
    /// k neighbors by squared Euclidean distance, at
    /// [`block::DEFAULT_STREAM_TILE`] on one worker.
    pub fn new(k: usize) -> Self {
        SearchPlan {
            k,
            metric: Metric::SquaredEuclidean,
            tile: block::DEFAULT_STREAM_TILE,
            threads: 1,
        }
    }
    /// This plan under `metric`.
    pub fn with_metric(self, metric: Metric) -> Self {
        SearchPlan { metric, ..self }
    }
    /// This plan at `tile` references per tile.
    pub fn with_tile(self, tile: usize) -> Self {
        SearchPlan { tile, ..self }
    }
    /// This plan on `threads` workers.
    pub fn with_threads(self, threads: usize) -> Self {
        SearchPlan { threads, ..self }
    }
}

/// A reference set prepared for search: checked once, with the squared
/// norm of every point kept for the squared Euclidean fill.
///
/// The index borrows the caller's references (`Index::new(&refs)`) or
/// owns them (`Index::new(refs)`); either way the norms are computed
/// here, once, and every [`Index::search`] reuses them.
#[derive(Clone, Debug)]
pub struct Index<'r> {
    refs: Cow<'r, PointSet>,
    norms: Vec<f32>,
}

impl<'r> Index<'r> {
    /// Prepare `refs` for search.
    ///
    /// # Errors
    /// [`KnnError::EmptyInput`] when `refs` holds no points.
    pub fn new(refs: impl Into<Cow<'r, PointSet>>) -> Result<Self, KnnError> {
        let refs = refs.into();
        if refs.is_empty() {
            return Err(KnnError::EmptyInput { what: "reference" });
        }
        let norms = block::norms(&refs);
        Ok(Index { refs, norms })
    }

    /// The reference set.
    pub fn refs(&self) -> &PointSet {
        &self.refs
    }

    /// For each query, the `plan.k` nearest references under
    /// `plan.metric`, ordered by `(dist, id)`: under exact ties at the
    /// k-th distance the lowest ids are kept. `+∞` distances are never
    /// returned, so with fewer than k finite distances a query gets
    /// fewer than k neighbors. No queries give no rows.
    ///
    /// Workers claim [`block::QUERY_BLOCK`]-sized query blocks from a
    /// shared atomic cursor (a fast worker takes the next block as soon
    /// as it finishes one) and walk *every* reference tile of their
    /// block in ascending order. Per tile, the block's queries are
    /// walked in quads of [`simd::QUAD`] (the last quad of a block holds
    /// the 1–3 left over): one kernel call fills the quad's distance
    /// rows into the worker's `tile`-length scratch rows
    /// ([`Phase::TileFill`], one span shared by the quad), then each
    /// query in turn is pushed into its [`TopK`] ([`Phase::TileSelect`])
    /// and settled ([`Phase::TileMerge`]) before the next quad reuses
    /// the rows. Squared Euclidean rows come from
    /// [`simd::fill_rows_quad`], every distance bit-equal to the
    /// single-row fill's, so the grouping changes no neighbor; the
    /// worker computes its block's query norms on claiming it, into a
    /// stack array, and takes the reference norms from the index. Any
    /// other metric fills each row with [`Metric::distance`], non-finite
    /// values clamped to `+∞`; the [`TopK`] key ranks negative distances
    /// too.
    ///
    /// The push is a branch-free scan of the row: every value below the
    /// query's running k-th distance is appended to the worker's one
    /// [`Candidates`] buffer of `2k + 64` keys, and a full buffer is cut
    /// to the k smallest mid-tile, which tightens the bound. The settle
    /// cuts to k and keeps those keys as the query's state. On the
    /// query's last tile [`TopK::finish`] takes the settle's place: it
    /// cuts to k and sorts those keys in the worker's buffer, the one
    /// sort of the query's picks, by a bitonic network on the `avx512`
    /// dispatch and `sort_unstable` on the others (the same order, since
    /// no two keys are equal).
    /// A value at or above the bound has a larger id than the k-th key,
    /// so it loses the `(dist, id)` order and skipping it is exact. Each
    /// query's tiles are pushed in ascending order at any thread count,
    /// so the neighbors are identical at any thread count; only
    /// wall-clock interleaving varies. Peak distance scratch is
    /// `workers × (rows × min(tile, N) + 4 × dim)` floats, where `rows`
    /// is `min(4, block length)` and `4 × dim` is the quad kernel's
    /// query pack ([`simd::pack_len`]), reserved on every kernel and
    /// metric. One worker runs inline on the caller's thread.
    ///
    /// The observer in `hooks` receives the per-phase hooks from
    /// whichever worker owns the query's block; the aggregate merge
    /// totals are folded once after the pool joins. The timeline receives
    /// per-worker [`TimelineHooks`]: each worker announces itself, every
    /// block claim / tile walk / block completion fires on that worker's
    /// track, and the scratch reservation is reported once per worker.
    /// The hooks carry **no timestamps** — a clock-owning implementation
    /// (such as `knn::metered`'s recorder adapter) stamps them on
    /// arrival, so this module stays clock-free.
    ///
    /// The cancel token is polled per block with that block's
    /// completed-tile count. [`CancelToken`]s are deterministic
    /// functions of `tiles_done` (the trait contract), so every block
    /// trips at the same tile index and the returned
    /// [`KnnError::Cancelled`] reports the same boundary at any thread
    /// count; when workers race past a trip, the earliest boundary wins.
    /// Partial results are dropped.
    ///
    /// # Errors
    /// [`KnnError::InvalidParam`] for a zero `plan.tile`,
    /// [`KnnError::InvalidK`] for a `plan.k` of zero or past the number
    /// of references, [`KnnError::DimMismatch`] when the queries and
    /// references differ in dimension, [`KnnError::Cancelled`] when
    /// the cancel token trips.
    pub fn search<O: PhaseObserver, C: CancelToken, T: TimelineHooks>(
        &self,
        queries: &PointSet,
        plan: &SearchPlan,
        hooks: Hooks<'_, O, C, T>,
    ) -> Result<Vec<Vec<Neighbor>>, KnnError> {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
        use std::sync::Mutex;

        let refs = &*self.refs;
        let (q, n, k) = (queries.len(), refs.len(), plan.k);
        if plan.tile == 0 {
            return Err(KnnError::InvalidParam {
                what: "tile",
                value: 0,
                min: 1,
            });
        }
        if k == 0 || k > n {
            return Err(KnnError::InvalidK { k, n });
        }
        if queries.dim() != refs.dim() {
            return Err(KnnError::DimMismatch {
                queries: queries.dim(),
                refs: refs.dim(),
            });
        }
        let (obs, token, tl) = (hooks.observer, hooks.cancel, hooks.timeline);
        let metric = plan.metric;
        let tile = plan.tile.min(n);
        let euclidean = metric == Metric::SquaredEuclidean;
        let tiles_total = n.div_ceil(tile);
        let block_len = block::QUERY_BLOCK.min(q.max(1));
        let blocks_total = q.div_ceil(block_len);
        let workers = resolve_threads(plan.threads).min(blocks_total.max(1));
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
            let mut cand = Candidates::new(k);
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
                let mut q_norms = [0.0f32; block::QUERY_BLOCK];
                if euclidean {
                    for (norm, qi) in q_norms.iter_mut().zip(q0..q1) {
                        *norm = squared_norm(queries.point(qi));
                    }
                }
                let mut tops: Vec<TopK> = (q0..q1).map(|_| TopK::new(k)).collect();
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
                                    &q_norms[qa - q0..qa - q0 + m],
                                    refs,
                                    &self.norms,
                                    r0,
                                    &mut fill[..m],
                                    pack,
                                )
                            } else {
                                fill_rows_with(
                                    metric,
                                    queries,
                                    qs.clone(),
                                    refs,
                                    r0,
                                    &mut fill[..m],
                                )
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
            return Err(KnnError::Cancelled {
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

/// [`Index::search`] on a borrowed `refs` under `plan`, a [`KnnError`]
/// turned into a panic: the body of the wrappers held for `knnbench`.
fn held<O: PhaseObserver>(
    queries: &PointSet,
    refs: &PointSet,
    plan: &SearchPlan,
    obs: &O,
) -> Vec<Vec<Neighbor>> {
    let hooks = Hooks::NONE.with_observer(obs);
    let out = Index::new(refs).and_then(|index| index.search(queries, plan, hooks));
    out.unwrap_or_else(|e| panic!("{e}"))
}

/// [`Index::search`] by squared Euclidean distance at
/// [`block::DEFAULT_STREAM_TILE`] on one worker, reading only `cfg.k`.
/// Held for `knnbench` until its next change; new code uses [`Index`].
///
/// # Panics
/// On any [`KnnError`] of [`Index::new`] or [`Index::search`].
pub fn knn_search(queries: &PointSet, refs: &PointSet, cfg: &SelectConfig) -> Vec<Vec<Neighbor>> {
    held(queries, refs, &SearchPlan::new(cfg.k), &NullObserver)
}

/// [`knn_search`] under `metric` with `obs` attached. Held for
/// `knnbench` until its next change; new code uses [`Index`].
///
/// # Panics
/// As [`knn_search`].
pub fn knn_search_with_observed<O: PhaseObserver>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
    obs: &O,
) -> Vec<Vec<Neighbor>> {
    held(
        queries,
        refs,
        &SearchPlan::new(cfg.k).with_metric(metric),
        obs,
    )
}

/// [`Index::search`] by squared Euclidean distance at `tile` on
/// `threads` workers, reading only `cfg.k`. Held for `knnbench` until
/// its next change; new code uses [`Index`].
///
/// # Panics
/// As [`knn_search`].
pub fn knn_search_streamed_parallel(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tile: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    let plan = SearchPlan::new(cfg.k).with_tile(tile).with_threads(threads);
    held(queries, refs, &plan, &NullObserver)
}

/// [`knn_search_streamed_parallel`] with all three hooks, returning the
/// [`KnnError`]. Held for `knnbench` until its next change; new code
/// uses [`Index`].
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
) -> Result<Vec<Vec<Neighbor>>, KnnError> {
    let plan = SearchPlan::new(cfg.k).with_tile(tile).with_threads(threads);
    let hooks = Hooks::NONE
        .with_observer(obs)
        .with_cancel(token)
        .with_timeline(tl);
    Index::new(refs)?.search(queries, &plan, hooks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ground_truth;

    /// `k` neighbors at `tile` on `threads` workers.
    fn plan(k: usize, tile: usize, threads: usize) -> SearchPlan {
        SearchPlan::new(k).with_tile(tile).with_threads(threads)
    }

    /// `queries` searched under `plan`, no hooks.
    fn search(queries: &PointSet, refs: &PointSet, plan: SearchPlan) -> Vec<Vec<Neighbor>> {
        let index = Index::new(refs).expect("non-empty references");
        index
            .search(queries, &plan, Hooks::NONE)
            .expect("a valid plan")
    }

    #[test]
    fn streamed_equals_ground_truth_at_any_tile_and_thread_count() {
        // The streamed top-k only takes values below its running k-th
        // distance; the neighbors must still be byte-identical to one
        // unbounded selection over the whole row. 70 queries = 3 query
        // blocks (QUERY_BLOCK = 32): more blocks than workers at 2
        // threads, fewer at 8. On the tied set, 340 distinct points each
        // appear three times: every distance comes in three tied copies
        // spread over different tiles, and no k below is a multiple of
        // 3, so the k-th value is tied. Of the copies tied at the k-th
        // value the lowest ids are kept, as in the ground truth's full
        // `(dist, id)` sort.
        let queries = PointSet::uniform(70, 6, 229);
        let base = PointSet::uniform(340, 6, 228);
        let flat: Vec<f32> = (0..1020)
            .flat_map(|i| base.point(i % 340).to_vec())
            .collect();
        let tied = PointSet::from_flat(flat, 6);
        let bits = |rows: &[Vec<Neighbor>]| {
            rows.iter()
                .map(|ns| ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect())
                .collect::<Vec<Vec<_>>>()
        };
        for refs in [PointSet::uniform(1000, 6, 227), tied] {
            for k in [8usize, 32, 128, 512] {
                let full = bits(&ground_truth(&queries, &refs, k, Metric::SquaredEuclidean));
                // Tiles straddling k, tile-edge remainders, tile = N and
                // tile > N.
                for tile in [7usize, k - 1, k, 100, 499, refs.len(), 4096] {
                    for threads in [1usize, 2, 8] {
                        let streamed = search(&queries, &refs, plan(k, tile, threads));
                        let at = format!("n {} k {k} tile {tile} threads {threads}", refs.len());
                        assert_eq!(bits(&streamed), full, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_streamed_handles_small_query_counts() {
        // No queries, fewer queries than one block, and exactly one block.
        let refs = PointSet::uniform(300, 8, 220);
        for q in [0usize, 1, 5, 32] {
            let queries = PointSet::uniform(q, 8, 221);
            let one = search(&queries, &refs, plan(8, 64, 1));
            assert_eq!(one.len(), q);
            assert_eq!(search(&queries, &refs, plan(8, 64, 8)), one, "q {q}");
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
        let index = Index::new(PointSet::uniform(500, 8, 225)).unwrap();
        let peak_of = |queries: &PointSet, tile: usize, threads: usize| {
            let peak = ScratchPeak::default();
            let hooks = Hooks::NONE.with_observer(&peak);
            let plan = plan(8, tile, threads);
            index.search(queries, &plan, hooks).expect("a valid plan");
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
        let index = Index::new(&refs).unwrap();
        let run = |threads: usize, budget: usize| {
            let budget = TileBudget(budget);
            index.search(
                &queries,
                &plan(4, 64, threads),
                Hooks::NONE.with_cancel(&budget),
            )
        };
        // 400 refs / 64-tile = 7 tiles; admit 3 — every block trips at
        // the same boundary, so the report is thread-count independent,
        // and no partial results escape. A zero budget stops before any
        // tile; a budget covering every tile completes exactly.
        let full = search(&queries, &refs, plan(4, 64, 1));
        for threads in [1usize, 2, 8] {
            for budget in [0usize, 3] {
                assert_eq!(
                    run(threads, budget),
                    Err(KnnError::Cancelled {
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
    fn knn_of_identical_point_is_itself() {
        let refs = PointSet::uniform(50, 8, 103);
        // Query = reference 17 exactly.
        let q = PointSet::from_flat(refs.point(17).to_vec(), 8);
        let res = search(&q, &refs, SearchPlan::new(3));
        assert_eq!(res[0][0].id, 17);
        assert_eq!(res[0][0].dist, 0.0);
    }
}
