//! Registry-backed instrumentation of the native pipeline (`metrics`
//! cargo feature).
//!
//! This is the bridge between the pipeline's [`PhaseObserver`] and
//! [`TimelineHooks`] and the `trace` crate's sinks: every phase gets a
//! wall-clock latency histogram in a [`MetricsRegistry`], the streamed
//! loop reports its scratch high-water mark and the push/reject totals
//! of its per-query [`kselect::TopK`]s, a
//! [`Journal`] gets one [`QueryRecord`] per query, and a
//! [`TimelineRecorder`] gets per-worker tracks. Only this module reads
//! the host clock on knn's behalf — the default-feature pipeline
//! monomorphizes the hooks away entirely.
//!
//! One entry point covers every combination of sinks:
//! [`knn_search_streamed_instrumented`], [`Index::search`] under any
//! [`SearchPlan`]. It takes an [`Instruments`] bundle and picks the
//! observer internally: a
//! [`JournalObserver`] when a live journal is given (it forwards to the
//! registry too, so one set of clock reads feeds both), a
//! [`RegistryObserver`] for a registry alone, and [`NullObserver`] — the
//! plain code — when neither is.
//!
//! Metric names (`trace::openmetrics` sanitizes the dots for
//! OpenMetrics output):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `knn.tile.fill_ns` | histogram | distance fill of one query quad (the last of a block may hold 1–3 queries) × tile |
//! | `knn.tile.select_ns` | histogram | per query × tile threshold scan (with any mid-tile cuts) |
//! | `knn.tile.merge_ns` | histogram | cut of one query's buffered candidates back to k, plus the final sort on its last tile (per query × tile, at every thread count) |
//! | `knn.scratch.peak_bytes` | peak | distance-scratch high-water mark: `workers × (rows × min(tile, N) + 4 × dim) × 4`, where `rows` = `min(4, block length)` and `4 × dim` floats are the quad kernel's query pack |
//! | `knn.stream.merge_push` / `knn.stream.merge_reject` | counter | candidates appended below the running k-th distance / dropped by the cuts to k |
//! | `knn.queries` | counter | queries answered by instrumented searches |
//!
//! `knn.query.latency_ns`, `knn.row.fill_ns` and `knn.row.select_ns`
//! name the [`Phase`]s of the former row path; no search records them.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use kselect::types::Neighbor;
use kselect::KnnError;
use trace::journal::{phases, Journal, QueryRecord};
use trace::metrics::MetricsRegistry;
use trace::timeline::{SpanKind, TimelineHooks, TimelineRecorder, TimelineReport};

use crate::dataset::PointSet;
use crate::pipeline::{Hooks, Index, NullObserver, Phase, PhaseObserver, SearchPlan};

/// Histogram name a [`Phase`] records under.
pub fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::Query => "knn.query.latency_ns",
        Phase::RowFill => "knn.row.fill_ns",
        Phase::RowSelect => "knn.row.select_ns",
        Phase::TileFill => "knn.tile.fill_ns",
        Phase::TileSelect => "knn.tile.select_ns",
        Phase::TileMerge => "knn.tile.merge_ns",
    }
}

/// Peak distance-scratch bytes, both search paths.
pub const SCRATCH_PEAK_BYTES: &str = "knn.scratch.peak_bytes";
/// Candidates appended to the per-query top-k buffers: the values
/// below each query's running k-th distance.
pub const MERGE_PUSH: &str = "knn.stream.merge_push";
/// Candidates the cuts back to k dropped.
pub const MERGE_REJECT: &str = "knn.stream.merge_reject";
/// Queries answered by instrumented searches.
pub const QUERIES: &str = "knn.queries";

/// A [`PhaseObserver`] that records every hook into a
/// [`MetricsRegistry`].
pub struct RegistryObserver<'a> {
    registry: &'a MetricsRegistry,
}

impl<'a> RegistryObserver<'a> {
    pub fn new(registry: &'a MetricsRegistry) -> Self {
        RegistryObserver { registry }
    }
}

impl PhaseObserver for RegistryObserver<'_> {
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.registry
            .observe_ns(phase_metric(phase), t0.elapsed().as_nanos() as u64);
        out
    }

    fn scratch_bytes(&self, bytes: u64) {
        self.registry.record_peak(SCRATCH_PEAK_BYTES, bytes);
    }

    fn merger_stats(&self, pushed: u64, rejected: u64) {
        self.registry.inc(MERGE_PUSH, pushed);
        self.registry.inc(MERGE_REJECT, rejected);
    }
}

/// Journal phase-name key of a pipeline [`Phase`] (`None` for the
/// phases no search emits).
fn phase_key(phase: Phase) -> Option<&'static str> {
    match phase {
        Phase::TileFill => Some(phases::TILE_FILL),
        Phase::TileSelect => Some(phases::TILE_SELECT),
        Phase::TileMerge => Some(phases::TILE_MERGE),
        Phase::Query | Phase::RowFill | Phase::RowSelect => None,
    }
}

/// One query's accumulating measurements (tile phases sum across
/// tiles).
#[derive(Clone, Copy, Default)]
struct Draft {
    tile_fill_ns: u64,
    tile_select_ns: u64,
    tile_merge_ns: u64,
    merge_push: u64,
    merge_reject: u64,
    worker: u32,
}

impl Draft {
    fn add(&mut self, phase: Phase, ns: u64) {
        match phase {
            Phase::TileFill => self.tile_fill_ns += ns,
            Phase::TileSelect => self.tile_select_ns += ns,
            Phase::TileMerge => self.tile_merge_ns += ns,
            Phase::Query | Phase::RowFill | Phase::RowSelect => {}
        }
    }
}

/// A [`PhaseObserver`] that accumulates per-query drafts for the
/// journal, optionally forwarding every hook to a [`MetricsRegistry`]
/// as well (so one instrumented run feeds both the aggregate histograms
/// and the per-query records from a single set of clock reads).
pub struct JournalObserver<'a> {
    registry: Option<&'a MetricsRegistry>,
    drafts: Vec<Mutex<Draft>>,
    scratch: Mutex<u64>,
}

impl<'a> JournalObserver<'a> {
    pub fn new(n_queries: usize, registry: Option<&'a MetricsRegistry>) -> Self {
        JournalObserver {
            registry,
            drafts: (0..n_queries)
                .map(|_| Mutex::new(Draft::default()))
                .collect(),
            scratch: Mutex::new(0),
        }
    }

    fn draft(&self, qi: usize) -> std::sync::MutexGuard<'_, Draft> {
        self.drafts[qi].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emit one [`QueryRecord`] per query into `journal`. `blocks`
    /// counts reference tiles crossed per query; `total_ns` is the sum
    /// of the query's tile phases. The `queue` field reads `merge`, the
    /// tag native records carried when a search still took a queue
    /// kind, so the journal schema is unchanged.
    fn flush(&self, journal: &dyn Journal, tag: &str, tile: u64, blocks: u32) {
        let scratch_bytes = *self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        for (qi, slot) in self.drafts.iter().enumerate() {
            let d = *slot.lock().unwrap_or_else(|e| e.into_inner());
            let phase_ns = [
                (phases::TILE_FILL, d.tile_fill_ns),
                (phases::TILE_SELECT, d.tile_select_ns),
                (phases::TILE_MERGE, d.tile_merge_ns),
            ]
            .map(|(key, ns)| (key.to_string(), ns))
            .to_vec();
            journal.record(QueryRecord {
                query: qi as u64,
                queue: "merge".to_string(),
                tag: tag.to_string(),
                tile,
                total_ns: d.tile_fill_ns + d.tile_select_ns + d.tile_merge_ns,
                phase_ns,
                scratch_bytes,
                merge_push: d.merge_push,
                merge_reject: d.merge_reject,
                blocks,
                status: "ok".to_string(),
                attempts: 1,
                worker: d.worker,
                ..QueryRecord::default()
            });
        }
    }
}

impl PhaseObserver for JournalObserver<'_> {
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        if let Some(reg) = self.registry {
            reg.observe_ns(phase_metric(phase), t0.elapsed().as_nanos() as u64);
        }
        out
    }

    fn timed_q<R>(&self, phase: Phase, qi: usize, f: impl FnOnce() -> R) -> R {
        self.timed_qs(phase, qi..qi + 1, f)
    }

    /// One registry observation for the shared span; the journal splits
    /// its nanoseconds evenly across `qs`, the remainder to the first
    /// query, so the per-query values sum to the span exactly.
    fn timed_qs<R>(&self, phase: Phase, qs: Range<usize>, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(reg) = self.registry {
            reg.observe_ns(phase_metric(phase), ns);
        }
        if phase_key(phase).is_some() && !qs.is_empty() {
            let n = qs.len() as u64;
            let (share, rem) = (ns / n, ns % n);
            for qi in qs.clone() {
                let extra = if qi == qs.start { rem } else { 0 };
                self.draft(qi).add(phase, share + extra);
            }
        }
        out
    }

    fn scratch_bytes(&self, bytes: u64) {
        let mut peak = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        *peak = (*peak).max(bytes);
        if let Some(reg) = self.registry {
            reg.record_peak(SCRATCH_PEAK_BYTES, bytes);
        }
    }

    fn merger_stats(&self, pushed: u64, rejected: u64) {
        if let Some(reg) = self.registry {
            reg.inc(MERGE_PUSH, pushed);
            reg.inc(MERGE_REJECT, rejected);
        }
    }

    fn query_merger_stats(&self, qi: usize, pushed: u64, rejected: u64) {
        let mut d = self.draft(qi);
        d.merge_push = pushed;
        d.merge_reject = rejected;
    }

    fn query_worker(&self, qi: usize, worker: usize) {
        self.draft(qi).worker = worker as u32;
    }
}

/// Bridges the pipeline's clock-free [`TimelineHooks`] to a
/// [`trace::TimelineRecorder`]: this module owns the host clock on
/// knn's behalf, so hook arrivals are stamped here as nanoseconds
/// since the observer's construction epoch. One observer covers one
/// instrumented run (or several back-to-back runs sharing an epoch,
/// as `knn-cli stats` does across its sweep).
pub struct TimelineObserver<'a> {
    rec: &'a TimelineRecorder,
    epoch: Instant,
}

impl<'a> TimelineObserver<'a> {
    pub fn new(rec: &'a TimelineRecorder) -> Self {
        TimelineObserver {
            rec,
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since this observer's construction — the
    /// zero point of every track it stamps.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder this observer stamps into.
    pub fn recorder(&self) -> &'a TimelineRecorder {
        self.rec
    }

    /// Fold the recorder's shards into a report whose wall-clock span
    /// ends "now" on this observer's epoch.
    pub fn report(&self) -> TimelineReport {
        self.rec.report(self.now_ns())
    }

    /// Run `f` as one `Service` span on `worker`'s track. Work with no
    /// block claims to record (the CLI's selection bench) gets an
    /// honest busy lane this way; `detail` disambiguates repeated
    /// services (the CLI uses the run index).
    pub fn service<R>(&self, worker: usize, detail: u64, f: impl FnOnce() -> R) -> R {
        let t0 = self.now_ns();
        let out = f();
        self.rec
            .span(worker, SpanKind::Service, detail, t0, self.now_ns());
        out
    }
}

impl TimelineHooks for TimelineObserver<'_> {
    fn worker_started(&self, worker: usize) {
        self.rec.worker_started(worker, self.now_ns());
    }
    fn scratch_reserved(&self, worker: usize, bytes: u64) {
        self.rec.scratch_peak(worker, bytes);
    }
    fn block_claimed(&self, worker: usize, block: usize) {
        self.rec.block_claimed(worker, block as u64, self.now_ns());
    }
    fn tile_walked(&self, worker: usize, _block: usize, tile: usize) {
        self.rec.tile_walked(worker, tile as u64, self.now_ns());
    }
    fn block_finished(&self, worker: usize, block: usize, _tiles: usize) {
        self.rec.block_finished(worker, block as u64, self.now_ns());
    }
    fn worker_finished(&self, worker: usize) {
        self.rec.worker_finished(worker, self.now_ns());
    }
}

/// The sinks an instrumented search reports into; every field is
/// optional, and [`Instruments::default`] reports nowhere (the plain
/// code path).
#[derive(Clone, Copy, Default)]
pub struct Instruments<'a> {
    /// Aggregate histograms, counters and scratch peaks.
    pub registry: Option<&'a MetricsRegistry>,
    /// One [`QueryRecord`] per query, written after the search returns.
    /// A disabled journal ([`trace::NullJournal`]) counts as none.
    pub journal: Option<&'a dyn Journal>,
    /// Per-worker tracks of block lanes.
    pub timeline: Option<&'a TimelineObserver<'a>>,
    /// Labels the run in every journal record.
    pub tag: &'a str,
}

/// [`Index::search`] of `queries` under `plan`, reporting into `ins`:
/// per query × tile fill/select/merge histograms, the scratch peak,
/// stream-merge totals, one journal record per query (tile phases
/// summed across tiles, per-query merge counts, the owning worker), and
/// the timeline's block lanes at every thread count. Observers are
/// thread-safe, so totals and per-query records are exact at any thread
/// count. Same results as the plain path.
///
/// # Errors
/// As [`Index::search`]; a failed search records nothing.
pub fn knn_search_streamed_instrumented(
    index: &Index<'_>,
    queries: &PointSet,
    plan: &SearchPlan,
    ins: &Instruments<'_>,
) -> Result<Vec<Vec<Neighbor>>, KnnError> {
    let tl = ins.timeline;
    let out = match (ins.journal.filter(|j| j.enabled()), ins.registry) {
        (Some(journal), registry) => {
            let obs = JournalObserver::new(queries.len(), registry);
            let out = run(index, queries, plan, &obs, tl)?;
            let n = index.refs().len();
            let eff_tile = plan.tile.min(n);
            let blocks = n.div_ceil(eff_tile) as u32;
            obs.flush(journal, ins.tag, eff_tile as u64, blocks);
            out
        }
        (None, Some(reg)) => run(index, queries, plan, &RegistryObserver::new(reg), tl)?,
        (None, None) => run(index, queries, plan, &NullObserver, tl)?,
    };
    if let Some(reg) = ins.registry {
        reg.inc(QUERIES, queries.len() as u64);
    }
    Ok(out)
}

/// The search under `obs`, on `timeline`'s tracks when one is given.
fn run<O: PhaseObserver>(
    index: &Index<'_>,
    queries: &PointSet,
    plan: &SearchPlan,
    obs: &O,
    timeline: Option<&TimelineObserver<'_>>,
) -> Result<Vec<Vec<Neighbor>>, KnnError> {
    let hooks = Hooks::NONE.with_observer(obs);
    match timeline {
        Some(tl) => index.search(queries, plan, hooks.with_timeline(tl)),
        None => index.search(queries, plan, hooks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use trace::{EventJournal, JournalConfig, NullJournal};

    /// `k` neighbors under `metric` at `tile` on `threads` workers.
    fn plan(k: usize, metric: Metric, tile: usize, threads: usize) -> SearchPlan {
        SearchPlan::new(k)
            .with_metric(metric)
            .with_tile(tile)
            .with_threads(threads)
    }

    /// The search with no hooks.
    fn plain(queries: &PointSet, refs: &PointSet, plan: SearchPlan) -> Vec<Vec<Neighbor>> {
        let index = Index::new(refs).unwrap();
        index.search(queries, &plan, Hooks::NONE).unwrap()
    }

    /// The search reporting into `ins`.
    fn instrumented(
        queries: &PointSet,
        refs: &PointSet,
        plan: SearchPlan,
        ins: &Instruments<'_>,
    ) -> Vec<Vec<Neighbor>> {
        let index = Index::new(refs).unwrap();
        knn_search_streamed_instrumented(&index, queries, &plan, ins).unwrap()
    }

    fn metered(reg: &MetricsRegistry) -> Instruments<'_> {
        Instruments {
            registry: Some(reg),
            ..Instruments::default()
        }
    }

    /// Values each query appends to its top-k buffer, recounted from
    /// its full distance row under the buffer's rules: per tile, the
    /// held values are reloaded, each `STRIP`-value strip with a value
    /// below the running bound appends exactly those values, a buffer
    /// past `2k` values is first cut to the k smallest (tightening the
    /// bound to the k-th), and the tile ends with a cut to k.
    fn buffered_pushes(queries: &PointSet, refs: &PointSet, k: usize, tile: usize) -> Vec<u64> {
        use kselect::topk::STRIP;
        let norms = crate::block::norms(refs);
        let mut row = vec![0.0f32; refs.len()];
        let cut = |buf: &mut Vec<f32>| {
            buf.sort_by(|a, b| a.partial_cmp(b).unwrap());
            buf.truncate(k);
            buf[k - 1]
        };
        (0..queries.len())
            .map(|qi| {
                let qp = queries.point(qi);
                let norm_q = crate::distance::squared_norm(qp);
                crate::block::fill_row_range(qp, norm_q, refs, &norms, 0, &mut row);
                let (mut held, mut bound, mut pushed) = (Vec::new(), f32::INFINITY, 0);
                for piece in row.chunks(tile) {
                    for strip in piece.chunks(STRIP) {
                        if !strip.iter().any(|&d| d < bound) {
                            continue;
                        }
                        if held.len() > 2 * k {
                            bound = cut(&mut held);
                        }
                        let below = strip.iter().filter(|&&d| d < bound);
                        pushed += below.clone().count() as u64;
                        held.extend(below);
                    }
                    if held.len() >= k {
                        bound = cut(&mut held);
                    }
                }
                pushed
            })
            .collect()
    }

    #[test]
    fn metered_searches_match_unmetered_and_populate_the_registry() {
        let queries = PointSet::uniform(24, 12, 131);
        let refs = PointSet::uniform(400, 12, 132);
        let euclid = plan(16, Metric::SquaredEuclidean, 100, 1);

        let streamed_plain = plain(&queries, &refs, euclid);
        let streamed_reg = MetricsRegistry::new();
        let streamed = instrumented(&queries, &refs, euclid, &metered(&streamed_reg));
        assert_eq!(streamed, streamed_plain, "metering must not change results");
        assert_eq!(streamed, plain(&queries, &refs, SearchPlan::new(16)));
        // four tile rows per worker, one per query of the quad the
        // distance kernel fills at once, plus its query pack (4 × dim 12)
        assert_eq!(
            streamed_reg.peak(SCRATCH_PEAK_BYTES),
            (4 * 100 + 4 * 12) * 4
        );

        let hist = |reg: &MetricsRegistry, name: &str| {
            reg.snapshot()
                .histograms
                .into_iter()
                .find(|h| h.name == name)
                .map_or(0, |h| h.count)
        };
        // 400 refs / tile 100 = 4 tiles × 24 queries; the merge is
        // observed per query × tile too. One fill span covers a query
        // quad: 6 quads × 4 tiles.
        assert_eq!(hist(&streamed_reg, "knn.tile.fill_ns"), 24);
        assert_eq!(hist(&streamed_reg, "knn.tile.select_ns"), 96);
        assert_eq!(hist(&streamed_reg, "knn.tile.merge_ns"), 96);
        for unemitted in [Phase::Query, Phase::RowFill, Phase::RowSelect] {
            assert_eq!(hist(&streamed_reg, phase_metric(unemitted)), 0);
        }
        assert_eq!(streamed_reg.counter(QUERIES), 24);
        // each query appends its first strip whole (the bound is +∞
        // until k values are held), and the bound prunes the rest of its
        // 400 values
        let pushes: u64 = buffered_pushes(&queries, &refs, 16, 100).iter().sum();
        assert!(
            (24 * 64..24 * 400).contains(&pushes),
            "the bound prunes: {pushes}"
        );
        assert_eq!(streamed_reg.counter(MERGE_PUSH), pushes);
        assert_eq!(
            streamed_reg.counter(MERGE_PUSH) - streamed_reg.counter(MERGE_REJECT),
            (24 * 16) as u64,
            "kept candidates must equal Q × k"
        );

        // Every metric runs the same loop: the library entry holds one
        // default-tile row quad (clamped to N) and the query pack on its
        // one worker.
        for metric in [Metric::Manhattan, Metric::Cosine, Metric::NegativeDot] {
            let reg = MetricsRegistry::new();
            let out = instrumented(&queries, &refs, plan(16, metric, 4096, 1), &metered(&reg));
            let library = SearchPlan::new(16).with_metric(metric);
            assert_eq!(out, plain(&queries, &refs, library), "{metric:?}");
            let peak = (4 * 400 + 4 * 12) * 4;
            assert_eq!(reg.peak(SCRATCH_PEAK_BYTES), peak, "{metric:?}");
            assert_eq!(hist(&reg, "knn.tile.merge_ns"), 24, "{metric:?}");
        }
    }

    #[test]
    fn journaled_searches_match_plain_and_emit_one_record_per_query() {
        let queries = PointSet::uniform(16, 10, 135);
        let refs = PointSet::uniform(300, 10, 136);
        let euclid = plan(8, Metric::SquaredEuclidean, 100, 1);
        let plain = plain(&queries, &refs, euclid);

        // disabled journal, no registry: plain path, nothing recorded
        let off = Instruments {
            journal: Some(&NullJournal),
            ..Instruments::default()
        };
        assert_eq!(instrumented(&queries, &refs, euclid, &off), plain);

        // live journal + registry: tile phases sum, per-query merge
        // stats, blocks count
        let journal = EventJournal::new(JournalConfig::default());
        let reg = MetricsRegistry::new();
        let ins = Instruments {
            registry: Some(&reg),
            journal: Some(&journal),
            tag: "stream-run",
            ..Instruments::default()
        };
        assert_eq!(instrumented(&queries, &refs, euclid, &ins), plain);
        assert_eq!(reg.counter(QUERIES), 16, "registry forwarding stays on");
        let snap = journal.snapshot();
        assert_eq!(snap.len(), 16);
        let pushes = buffered_pushes(&queries, &refs, 8, 100);
        for r in &snap {
            assert_eq!(r.tile, 100);
            assert_eq!(r.blocks, 3, "300 refs / tile 100");
            assert_eq!(r.status, "ok");
            assert_eq!(r.tag, "stream-run");
            // the values appended below the running bound
            assert_eq!(r.merge_push, pushes[r.query as usize]);
            assert_eq!(r.merge_push - r.merge_reject, 8, "kept = k");
            assert_eq!(
                r.scratch_bytes,
                (4 * 100 + 4 * 10) * 4,
                "one worker, one tile-row quad and the query pack"
            );
            assert!(r.phase_ns.iter().any(|(k, _)| k == "tile_select"));
            assert!(r.total_ns > 0);
        }
    }

    #[test]
    fn metered_totals_are_exact_at_any_thread_count() {
        let queries = PointSet::uniform(70, 12, 137);
        let refs = PointSet::uniform(400, 12, 138);
        let euclid = |threads| plan(16, Metric::SquaredEuclidean, 100, threads);
        let one = plain(&queries, &refs, euclid(1));
        let pushes: u64 = buffered_pushes(&queries, &refs, 16, 100).iter().sum();
        for threads in [1usize, 2, 8] {
            let reg = MetricsRegistry::new();
            let out = instrumented(&queries, &refs, euclid(threads), &metered(&reg));
            assert_eq!(out, one, "threads {threads}");
            let snap = reg.snapshot();
            let hist = |name: &str| {
                snap.histograms
                    .iter()
                    .find(|h| h.name == name)
                    .unwrap_or_else(|| panic!("missing histogram {name}"))
            };
            // 400 refs / tile 100 = 4 tiles × 70 queries, regardless of
            // how blocks were distributed across workers. One fill span
            // covers a query quad: blocks of 32, 32 and 6 queries are
            // 8 + 8 + 2 quads × 4 tiles.
            assert_eq!(hist("knn.tile.fill_ns").count, 72, "threads {threads}");
            assert_eq!(hist("knn.tile.select_ns").count, 280);
            assert_eq!(hist("knn.tile.merge_ns").count, 280);
            assert_eq!(reg.counter(QUERIES), 70);
            assert_eq!(reg.counter(MERGE_PUSH), pushes);
            assert_eq!(
                reg.counter(MERGE_PUSH) - reg.counter(MERGE_REJECT),
                70 * 16,
                "kept candidates must equal Q × k"
            );
        }
    }

    #[test]
    fn journaled_records_match_at_any_thread_count() {
        let queries = PointSet::uniform(40, 10, 139);
        let refs = PointSet::uniform(300, 10, 140);
        let euclid = |threads| plan(8, Metric::SquaredEuclidean, 100, threads);
        let one = plain(&queries, &refs, euclid(1));
        let pushes = buffered_pushes(&queries, &refs, 8, 100);
        for threads in [1usize, 2, 8] {
            let journal = EventJournal::new(JournalConfig::default());
            let ins = Instruments {
                journal: Some(&journal),
                tag: "par-run",
                ..Instruments::default()
            };
            let out = instrumented(&queries, &refs, euclid(threads), &ins);
            assert_eq!(out, one, "threads {threads}");
            let snap = journal.snapshot();
            assert_eq!(snap.len(), 40, "one record per query");
            for r in &snap {
                assert_eq!(r.tile, 100);
                assert_eq!(r.blocks, 3, "300 refs / tile 100");
                // Deterministic per-query merge invariants: the values
                // appended below the running bound, and kept = k.
                assert_eq!(r.merge_push, pushes[r.query as usize], "threads {threads}");
                assert_eq!(r.merge_push - r.merge_reject, 8);
                assert_eq!(r.status, "ok");
                assert!(r.total_ns > 0, "tile phases must be timed");
                // Every query's cuts and final sort are its own span.
                assert!(
                    r.phase_ns.iter().any(|(k, _)| k == phases::TILE_MERGE),
                    "threads {threads}: {r:?}"
                );
                let phase_sum: u64 = r.phase_ns.iter().map(|(_, ns)| ns).sum();
                assert_eq!(phase_sum, r.total_ns, "the total is fill + select + merge");
            }
        }
    }

    #[test]
    fn shared_fill_spans_split_exactly_across_their_queries() {
        // 33 queries: one full block of 8 quads and a one-query block.
        let queries = PointSet::uniform(33, 10, 149);
        let refs = PointSet::uniform(300, 10, 150);
        for threads in [1usize, 2] {
            let journal = EventJournal::new(JournalConfig::default());
            let reg = MetricsRegistry::new();
            let ins = Instruments {
                registry: Some(&reg),
                journal: Some(&journal),
                tag: "split-run",
                ..Instruments::default()
            };
            instrumented(
                &queries,
                &refs,
                plan(8, Metric::SquaredEuclidean, 100, threads),
                &ins,
            );
            let fill = |r: &QueryRecord| {
                r.phase_ns
                    .iter()
                    .find(|(k, _)| k == phases::TILE_FILL)
                    .map_or(0, |(_, ns)| *ns)
            };
            let snap = journal.snapshot();
            assert_eq!(snap.len(), 33);
            assert!(
                snap.iter().all(|r| fill(r) > 0),
                "every query carries a share of its fill spans (threads {threads})"
            );
            let spans = reg
                .snapshot()
                .histograms
                .into_iter()
                .find(|h| h.name == "knn.tile.fill_ns")
                .expect("fill histogram");
            // 8 quads + 1 single query, × 3 tiles
            assert_eq!(spans.count, 9 * 3);
            assert_eq!(
                snap.iter().map(fill).sum::<u64>(),
                spans.sum_ns,
                "per-query fill shares sum to the registry's spans (threads {threads})"
            );
        }
    }

    /// Runs the streamed search with only a timeline attached and checks
    /// the block accounting every timeline promises: every block on
    /// exactly one lane, and busy + idle == wall on every lane.
    fn timeline_run(queries: &PointSet, threads: usize) -> TimelineReport {
        let refs = PointSet::uniform(400, 12, 142);
        let euclid = plan(16, Metric::SquaredEuclidean, 100, threads);
        let plain = plain(queries, &refs, euclid);

        let rec = TimelineRecorder::new(threads);
        let tl = TimelineObserver::new(&rec);
        let ins = Instruments {
            timeline: Some(&tl),
            ..Instruments::default()
        };
        let out = instrumented(queries, &refs, euclid, &ins);
        assert_eq!(out, plain, "timeline recording must not change results");

        let report = tl.report();
        assert_eq!(report.lanes.len(), threads);
        let mut blocks: Vec<u64> = report
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.kind == SpanKind::Block)
            .map(|s| s.detail)
            .collect();
        blocks.sort_unstable();
        let expected: Vec<u64> = (0..queries.len().div_ceil(32) as u64).collect();
        assert_eq!(blocks, expected, "every block on exactly one lane");
        assert_eq!(report.blocks_total, expected.len() as u64);
        for lane in &report.lanes {
            assert_eq!(
                lane.busy_ns + lane.idle_ns,
                report.wall_ns,
                "worker {} must account its whole wall span",
                lane.worker
            );
            assert!(lane.utilization <= 1.0 + f64::EPSILON);
            // one tile-row quad and the query pack (4 × dim 12) per worker
            assert_eq!(lane.scratch_peak_bytes, (4 * 100 + 4 * 12) * 4);
        }
        assert!(report.imbalance >= 1.0);
        report
    }

    #[test]
    fn instrumented_matches_plain_and_accounts_every_block_exactly_once() {
        // 130 queries / QUERY_BLOCK(32) = 5 blocks -> all 4 workers run.
        let report = timeline_run(&PointSet::uniform(130, 12, 141), 4);
        assert_eq!(report.blocks_total, 5, "130 queries / 32-query blocks");
    }

    #[test]
    fn instrumented_single_thread_records_block_lanes() {
        // One worker runs the same block loop inline: 3 block spans on
        // the single lane, no service span.
        let report = timeline_run(&PointSet::uniform(70, 12, 143), 1);
        let spans = &report.lanes[0].spans;
        assert_eq!(report.lanes[0].blocks, 3);
        assert!(spans.iter().all(|s| s.kind != SpanKind::Service));
        assert!(report.lanes[0].busy_ns > 0, "block spans are busy time");
    }

    #[test]
    fn journal_records_carry_the_owning_worker() {
        let queries = PointSet::uniform(130, 10, 145);
        let refs = PointSet::uniform(300, 10, 146);
        let journal = EventJournal::new(JournalConfig::default());
        let rec = TimelineRecorder::new(4);
        let tl = TimelineObserver::new(&rec);
        let ins = Instruments {
            journal: Some(&journal),
            timeline: Some(&tl),
            tag: "tl-run",
            ..Instruments::default()
        };
        instrumented(
            &queries,
            &refs,
            plan(8, Metric::SquaredEuclidean, 100, 4),
            &ins,
        );
        let snap = journal.snapshot();
        assert_eq!(snap.len(), 130);
        assert!(snap.iter().all(|r| (r.worker as usize) < 4));
        // Queries of one 32-query block share one worker.
        for block in snap.chunks(32) {
            let w = block[0].worker;
            assert!(block.iter().all(|r| r.worker == w));
        }
        // The journal's worker attribution agrees with the timeline: a
        // worker that owns journal records also owns block spans.
        let report = tl.report();
        for w in snap.iter().map(|r| r.worker as usize) {
            assert!(report.lanes[w].blocks > 0);
        }
    }
}
