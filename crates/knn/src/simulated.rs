//! The simulated GPU k-NN pipeline the experiments use, behind one
//! entry: [`gpu_knn`] under a [`GpuPlan`] with a [`GpuHooks`] bundle.
//!
//! Distances are computed natively (they are *data*) and the distance
//! kernel's cost is charged analytically; the input upload crosses the
//! (possibly faulted) PCIe model; k-selection runs for real on the SIMT
//! simulator under the plan's retry, validation and fallback policy,
//! optionally gated by a simulated-time deadline. The result carries
//! the per-phase simulated times the paper's Table I reports. A bad
//! shape is a typed [`KnnError`], checked before any distance is
//! computed. Everything, an injected fault campaign included, is
//! deterministic, so a whole [`GpuKnnResult`] replays byte for byte.

use kselect::gpu::{
    gpu_select_k_resilient, gpu_select_k_resilient_gated, validate_request, DistanceMatrix,
    GpuResilience, KernelCounters, QueryStatus, SearchReport,
};
use kselect::types::Neighbor;
use kselect::{KnnError, SelectConfig};
use simt::{Metrics, TimingModel};
use trace::{Category, Journal, Tracer};

use crate::dataset::{validate_points, PointSet};
use crate::distance::{block, gpu_distance_metrics};
use crate::pcie::{self, PcieReport};

/// What one [`gpu_knn`] runs: the selection kernel, the resilience
/// policy around its launch and the input upload, and an optional
/// deadline.
#[derive(Clone, Copy, Debug)]
pub struct GpuPlan {
    /// The simulated k-selection kernel: queue, k and the paper's
    /// optimizations.
    pub select: SelectConfig,
    /// Retries, validation, host fallback and the fault campaign.
    pub resilience: GpuResilience,
    /// The request's deadline budget in simulated seconds, measured
    /// from the start of the input upload; `None` launches every warp.
    pub budget_s: Option<f64>,
}

impl GpuPlan {
    /// `select` under [`GpuResilience::default`], with no deadline.
    pub fn new(select: SelectConfig) -> Self {
        GpuPlan {
            select,
            resilience: GpuResilience::default(),
            budget_s: None,
        }
    }
    /// This plan under `resilience`.
    pub fn with_resilience(self, resilience: GpuResilience) -> Self {
        GpuPlan { resilience, ..self }
    }
    /// This plan under a deadline of `budget_s` simulated seconds.
    pub fn with_budget(self, budget_s: f64) -> Self {
        GpuPlan {
            budget_s: Some(budget_s),
            ..self
        }
    }
}

/// The hooks of one [`gpu_knn`]: an optional [`Tracer`] that receives
/// the pipeline's spans on its simulated clock, and an optional
/// [`Journal`] that receives one [`trace::QueryRecord`] per query,
/// each labelled with a tag. [`GpuHooks::NONE`] records nothing; each
/// `with_*` method swaps one hook in. Both hooks are fed from the
/// finished result, so they never change it, and a call that returns
/// an error records nothing.
pub struct GpuHooks<'h> {
    tracer: Option<&'h mut Tracer>,
    journal: Option<(&'h dyn Journal, &'h str)>,
}

impl GpuHooks<'static> {
    /// No tracer, no journal.
    pub const NONE: Self = GpuHooks {
        tracer: None,
        journal: None,
    };
}

impl<'h> GpuHooks<'h> {
    /// These hooks with `tracer` recording the pipeline's spans.
    pub fn with_tracer(self, tracer: &'h mut Tracer) -> Self {
        GpuHooks {
            tracer: Some(tracer),
            ..self
        }
    }
    /// These hooks with `journal` receiving one record per query, each
    /// labelled `tag` (e.g. the fault campaign's seed).
    pub fn with_journal(self, journal: &'h dyn Journal, tag: &'h str) -> Self {
        GpuHooks {
            journal: Some((journal, tag)),
            ..self
        }
    }
}

/// Result of the simulated GPU k-NN pipeline.
#[derive(Debug)]
pub struct GpuKnnResult {
    /// Per-query neighbors; `None` only for queries whose status is
    /// [`QueryStatus::Failed`] or [`QueryStatus::DeadlineExceeded`].
    pub neighbors: Vec<Option<Vec<Neighbor>>>,
    /// Per-query outcomes and recovery totals. PCIe stall/corruption
    /// counts from the input upload are folded in.
    pub report: SearchReport,
    /// Metrics of the accepted selection attempts.
    pub select_metrics: Metrics,
    /// The Hierarchical Partition construction inside the accepted
    /// attempts: a prefix of `select_metrics`, zero without HP.
    pub build_metrics: Metrics,
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
    /// Technique-level event counters from accepted attempts (all-zero
    /// unless built with the `trace` feature).
    pub counters: KernelCounters,
}

impl GpuKnnResult {
    /// Total modelled simulated seconds this request consumed end to
    /// end: the input upload (including stall and retry time), the
    /// analytic distance kernel, accepted *and* wasted selection work,
    /// retry backoff, and the host-fallback row transfers.
    pub fn modeled_seconds(&self, tm: &TimingModel) -> f64 {
        self.upload.seconds
            + self.distance_time
            + kernel_seconds(tm, &self.select_metrics)
            + kernel_seconds(tm, &self.wasted_metrics)
            + self.report.backoff_s
            + self.report.fallback_transfer_s
    }
}

/// Simulated seconds of a kernel that did `m`'s work: zero when it never
/// launched (every warp gated out by a deadline) rather than a phantom
/// launch overhead, [`TimingModel::kernel_time`] otherwise.
pub fn kernel_seconds(tm: &TimingModel, m: &Metrics) -> f64 {
    if m.issued == 0 {
        0.0
    } else {
        tm.kernel_time(m)
    }
}

/// Run the simulated pipeline for `queries` × `refs` under `plan`.
///
/// The inputs are validated first ([`validate_points`], matching
/// dimensions, [`validate_request`]). The distance matrix is then
/// computed natively; the distance kernel's cost comes from
/// [`gpu_distance_metrics`] (see that function for the calibration
/// rationale). The input points cross PCIe through
/// [`pcie::transfer_with_faults`] under the plan's fault campaign, if
/// any: a corrupt payload is detected and retried, and only
/// persistent corruption escalates to [`KnnError::TransferFailed`].
/// k-selection executes instruction by instruction on the simulator
/// under `plan.resilience` ([`gpu_select_k_resilient`]).
///
/// With `plan.budget_s`, the upload and the distance kernel always
/// complete (a launch in flight is not preempted), and the selection
/// kernel consults a gate before *every* warp launch
/// ([`gpu_select_k_resilient_gated`]): once upload + distance +
/// selection work so far (accepted and wasted) + backoff reaches the
/// budget, no further warp launches, and the remaining queries report
/// [`QueryStatus::DeadlineExceeded`] with no result. Gated warps run
/// sequentially in warp-id order, so with a generous budget the result
/// is byte-identical to the ungated run.
///
/// A tracer in `hooks` receives a `gpu_knn` phase holding the
/// `distance` phase (the analytic distance kernel), a `transfer.upload`
/// phase (the upload's link time — informational: not part of the
/// returned kernel times, matching the paper's timing breakdown), and
/// the `select` phase, whose `gpu_select_k` kernel span nests an
/// `hp_build` span (when Hierarchical Partition ran) and one concurrent
/// per-warp span per launched warp. The kernel event counters are
/// folded into the tracer at the end of the selection phase.
///
/// A journal in `hooks` receives one [`trace::QueryRecord`] per query,
/// correlating its retry/fallback outcome with its latency share. The
/// pipeline has no per-query wall clock, so the record's nanoseconds
/// are **simulated-time attribution**: the distance kernel's time is
/// shared evenly across queries, the accepted selection time is split
/// in proportion to each query's kernel attempts (a query that needed 3
/// attempts carries 3 shares), retry backoff across the *extra*
/// attempts, and the host-fallback transfer across the fallback
/// queries. The attribution sums back to the report's totals, and the
/// slowest-query exemplars are exactly the queries the resilience layer
/// struggled with.
///
/// # Errors
/// [`KnnError::EmptyInput`] or [`KnnError::NonFiniteInput`] for a bad
/// point set, [`KnnError::DimMismatch`], the errors of
/// [`validate_request`] (invalid k, Merge shape, a buffer past shared
/// memory), [`KnnError::TransferFailed`] for persistent upload
/// corruption and [`KnnError::FaultsNotCompiled`] for a kernel fault
/// campaign in a build without the `fault` feature.
pub fn gpu_knn(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    plan: &GpuPlan,
    hooks: GpuHooks<'_>,
) -> Result<GpuKnnResult, KnnError> {
    validate_points(queries, "query")?;
    validate_points(refs, "reference")?;
    if queries.dim() != refs.dim() {
        return Err(KnnError::DimMismatch {
            queries: queries.dim(),
            refs: refs.dim(),
        });
    }
    let (spec, cfg, res) = (&tm.spec, &plan.select, &plan.resilience);
    validate_request(spec, refs.len(), cfg)?;

    let dist_m = gpu_distance_metrics(queries.len(), refs.len(), queries.dim());
    let distance_time = tm.kernel_time(&dist_m);
    let fm = block::squared_distances(queries, refs);
    let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());

    // The distance matrix never leaves the device; the inputs cross the
    // link.
    let input_bytes = ((queries.len() + refs.len()) * queries.dim() * 4) as u64;
    let upload =
        pcie::transfer_with_faults(spec, input_bytes, res.faults.as_ref(), 0, res.max_attempts)?;

    let sel = match plan.budget_s {
        None => gpu_select_k_resilient(spec, &dm, cfg, res)?,
        Some(budget_s) => {
            let spent = upload.seconds + distance_time;
            gpu_select_k_resilient_gated(spec, &dm, cfg, res, |_, consumed, backoff_s| {
                spent + kernel_seconds(tm, consumed) + backoff_s < budget_s
            })?
        }
    };
    let mut report = sel.report;
    report.counters.pcie_stalls += upload.stalls;
    report.counters.pcie_corruptions += upload.corruptions;
    let launched = sel.n_warps - report.counters.deadline_skips as usize;
    let out = GpuKnnResult {
        neighbors: sel.neighbors,
        report,
        select_time: tm.kernel_time(&sel.metrics),
        distance_time,
        select_metrics: sel.metrics,
        build_metrics: sel.build_metrics,
        wasted_metrics: sel.wasted,
        distance_metrics: dist_m,
        upload,
        counters: sel.counters,
    };
    if let Some(tracer) = hooks.tracer {
        record_spans(tracer, tm, &out, launched);
    }
    if let Some((journal, tag)) = hooks.journal {
        record_queries(journal, tag, cfg, &out);
    }
    Ok(out)
}

/// Lay `out` onto `tracer`'s simulated clock as [`gpu_knn`] describes,
/// with one warp span for each of the `warps` launched.
fn record_spans(tracer: &mut Tracer, tm: &TimingModel, out: &GpuKnnResult, warps: usize) {
    let pipeline = tracer.open_span(Category::Phase, "gpu_knn");
    tracer.scoped(Category::Phase, "distance", |t| {
        t.span(Category::Kernel, "distance_kernel", out.distance_time)
    });
    tracer.span(Category::Phase, "transfer.upload", out.upload.seconds);
    let select_phase = tracer.open_span(Category::Phase, "select");
    let kernel = tracer.open_span(Category::Kernel, "gpu_select_k");
    // HP construction is a prefix of the kernel's metrics, and the
    // timing model is monotone, so its share fits inside the kernel span.
    let build_time = tm.kernel_time(&out.build_metrics);
    if out.build_metrics.issued > 0 {
        tracer.span(Category::Build, "hp_build", build_time);
    }
    simt::tracing::warp_spans(tracer, "select", warps, out.select_time - build_time);
    tracer.close_span(kernel);
    tracer.merge_counters(&out.counters.to_counter_set());
    tracer.close_span(select_phase);
    tracer.close_span(pipeline);
}

/// Lowercase queue-kind tag journal records carry (`merge`, `heap`,
/// `insertion`).
pub fn queue_tag(cfg: &SelectConfig) -> String {
    format!("{:?}", cfg.queue).to_lowercase()
}

/// Offer `journal` one record per query of `out`, labelled `tag`, with
/// the simulated-time attribution [`gpu_knn`] describes.
fn record_queries(journal: &dyn Journal, tag: &str, cfg: &SelectConfig, out: &GpuKnnResult) {
    use trace::journal::phases::{BACKOFF, DISTANCE, FALLBACK, SELECT};
    if !journal.enabled() {
        return;
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
    let fallback_ns = out.report.fallback_transfer_s * 1e9 / fallbacks;
    for (qi, status) in out.report.statuses.iter().enumerate() {
        let a = attempts[qi];
        let select_ns = select_ns_per_attempt * a as f64;
        let backoff_ns = backoff_ns_per_extra * a.saturating_sub(1) as f64;
        let fell_back = matches!(status, QueryStatus::Fallback { .. });
        // Distance and select always; backoff and fallback when spent.
        let phase_ns: Vec<(String, u64)> = [
            (DISTANCE, distance_ns, true),
            (SELECT, select_ns, true),
            (BACKOFF, backoff_ns, backoff_ns > 0.0),
            (FALLBACK, fallback_ns, fell_back && fallback_ns > 0.0),
        ]
        .into_iter()
        .filter(|&(_, _, spent)| spent)
        .map(|(phase, ns, _)| (phase.to_string(), ns as u64))
        .collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use kselect::gpu::gpu_select_k;
    use kselect::QueueKind;

    /// `plan` run with no hooks, unwrapped.
    fn run(queries: &PointSet, refs: &PointSet, plan: &GpuPlan) -> GpuKnnResult {
        let tm = TimingModel::tesla_c2075();
        gpu_knn(&tm, queries, refs, plan, GpuHooks::NONE).expect("a valid plan")
    }

    #[test]
    fn default_plan_equals_gpu_select_k_on_the_same_matrix() {
        // The independent reference: the plain kernel launch on the
        // natively computed matrix, with no retry or validation layer.
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(40, 16, 112);
        let refs = PointSet::uniform(300, 16, 113);
        for cfg in [
            SelectConfig::optimized(QueueKind::Merge, 8),
            SelectConfig::plain(QueueKind::Heap, 16),
        ] {
            let fm = block::squared_distances(&queries, &refs);
            let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());
            let want = gpu_select_k(&tm.spec, &dm, &cfg);
            let out = run(&queries, &refs, &GpuPlan::new(cfg));
            let got: Vec<Vec<Neighbor>> = out.neighbors.into_iter().flatten().collect();
            assert_eq!(got, want.neighbors);
            assert_eq!(out.select_metrics, want.metrics);
            assert_eq!(out.select_time, tm.kernel_time(&want.metrics));
            assert_eq!(out.build_metrics, want.build_metrics);
            assert_eq!(out.counters, want.counters);
            assert_eq!(out.wasted_metrics, Metrics::new());
            assert_eq!(out.report.ok_count(), 40);
            assert_eq!(out.upload.attempts, 1);
            assert!(out.upload.seconds > 0.0);
        }
    }

    #[test]
    fn generous_budget_matches_the_ungated_run() {
        let queries = PointSet::uniform(64, 12, 214);
        let refs = PointSet::uniform(300, 12, 215);
        let plan = GpuPlan::new(SelectConfig::optimized(QueueKind::Merge, 16));
        let tm = TimingModel::tesla_c2075();
        let plain = run(&queries, &refs, &plan);
        let bounded = run(&queries, &refs, &plan.with_budget(1e9));
        assert_eq!(plain.neighbors, bounded.neighbors);
        assert_eq!(plain.report, bounded.report);
        assert_eq!(plain.select_metrics, bounded.select_metrics);
        assert!(bounded.modeled_seconds(&tm) > 0.0);
    }

    #[test]
    fn deadline_sheds_work_past_the_budget() {
        let queries = PointSet::uniform(96, 12, 216); // 3 warps
        let refs = PointSet::uniform(300, 12, 217);
        let plan = GpuPlan::new(SelectConfig::optimized(QueueKind::Merge, 16));
        let tm = TimingModel::tesla_c2075();
        let full = run(&queries, &refs, &plan.with_budget(1e9));
        let full_s = full.modeled_seconds(&tm);

        // A budget below even the upload+distance cost launches nothing.
        let starved = run(&queries, &refs, &plan.with_budget(0.0));
        assert_eq!(starved.report.deadline_exceeded_count(), 96);
        assert!(starved.neighbors.iter().all(Option::is_none));
        assert_eq!(starved.select_metrics.issued, 0);
        assert!(starved.modeled_seconds(&tm) < full_s);

        // A budget that barely clears upload+distance admits warp 0's
        // launch (a launch in flight completes), then the gate closes:
        // warps 1 and 2 never start, and their 64 queries report
        // deadline-exceeded.
        let partial_budget = starved.upload.seconds + starved.distance_time + 1e-9;
        let partial = run(&queries, &refs, &plan.with_budget(partial_budget));
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
    fn never_launched_kernel_costs_zero() {
        let tm = TimingModel::tesla_c2075();
        assert_eq!(kernel_seconds(&tm, &Metrics::new()), 0.0);
        let m = Metrics {
            issued: 10,
            ..Metrics::new()
        };
        assert_eq!(kernel_seconds(&tm, &m), tm.kernel_time(&m));
    }

    #[test]
    fn traced_pipeline_emits_balanced_monotonic_spans() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(40, 8, 106);
        let refs = PointSet::uniform(512, 8, 107);
        let plan = GpuPlan::new(SelectConfig::optimized(QueueKind::Merge, 16));
        let mut tracer = Tracer::new();
        let hooks = GpuHooks::NONE.with_tracer(&mut tracer);
        let res = gpu_knn(&tm, &queries, &refs, &plan, hooks).unwrap();
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
        let plan = GpuPlan::new(SelectConfig::optimized(QueueKind::Merge, 16));
        let mut tracer = Tracer::new();
        let hooks = GpuHooks::NONE.with_tracer(&mut tracer);
        let res = gpu_knn(&tm, &queries, &refs, &plan, hooks).unwrap();
        assert!(res.counters.queue_inserts > 0);
        assert_eq!(
            tracer.counters().get(trace::names::QUEUE_INSERT),
            res.counters.queue_inserts
        );
    }

    #[test]
    fn gpu_knn_validates_inputs() {
        let tm = TimingModel::tesla_c2075();
        let refs = PointSet::uniform(64, 8, 110);
        let good = PointSet::uniform(4, 8, 111);
        let plan = |k| GpuPlan::new(SelectConfig::plain(QueueKind::Heap, k));
        let err = |qs: &PointSet, rs: &PointSet, k| {
            gpu_knn(&tm, qs, rs, &plan(k), GpuHooks::NONE).unwrap_err()
        };

        let empty = PointSet::from_flat(vec![], 8);
        assert_eq!(err(&empty, &refs, 8).name(), "empty-input");

        let mut bad = good.as_flat().to_vec();
        bad[2 * 8 + 3] = f32::NAN;
        let nan_query = PointSet::from_flat(bad, 8);
        assert_eq!(
            err(&nan_query, &refs, 8),
            KnnError::NonFiniteInput {
                kind: "query",
                index: 2
            }
        );

        let mut bad = refs.as_flat().to_vec();
        bad[7 * 8] = f32::INFINITY;
        let inf_refs = PointSet::from_flat(bad, 8);
        assert_eq!(
            err(&good, &inf_refs, 8),
            KnnError::NonFiniteInput {
                kind: "reference",
                index: 7
            }
        );

        assert_eq!(err(&good, &refs, 0).name(), "invalid-k");
        assert_eq!(err(&good, &refs, 65), KnnError::InvalidK { k: 65, n: 64 });
    }

    #[test]
    fn pcie_stalls_surface_in_the_report_without_kernel_hooks() {
        // A PCIe-only plan needs no kernel instrumentation, so this runs
        // (and must behave identically) with or without the `fault`
        // feature: the upload stalls, costs extra simulated time, and the
        // stall is counted — but every query still gets the exact result.
        let queries = PointSet::uniform(8, 8, 114);
        let refs = PointSet::uniform(128, 8, 115);
        let plan = GpuPlan::new(SelectConfig::plain(QueueKind::Merge, 8));
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(9).with_pcie(1.0, 0.0));
        let out = run(&queries, &refs, &plan.with_resilience(res));
        assert_eq!(out.report.counters.pcie_stalls, 1);
        assert_eq!(out.report.counters.pcie_corruptions, 0);
        let clean = run(&queries, &refs, &plan).upload.seconds;
        assert!(out.upload.seconds > clean, "a stall costs link time");
        assert_eq!(out.report.ok_count(), 8);
    }

    #[test]
    fn persistent_pcie_corruption_is_a_typed_error() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(4, 8, 116);
        let refs = PointSet::uniform(64, 8, 117);
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(10).with_pcie(0.0, 1.0));
        let plan = GpuPlan::new(SelectConfig::plain(QueueKind::Heap, 8)).with_resilience(res);
        let err = gpu_knn(&tm, &queries, &refs, &plan, GpuHooks::NONE).unwrap_err();
        let attempts = res.max_attempts;
        assert_eq!(err, KnnError::TransferFailed { attempts });
    }

    #[test]
    fn journal_is_transparent_and_attributes_time() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(24, 8, 121);
        let refs = PointSet::uniform(200, 8, 122);
        let plan = GpuPlan::new(SelectConfig::plain(QueueKind::Merge, 8));
        // NullJournal: identical result, nothing recorded
        let plain = run(&queries, &refs, &plan);
        let hooks = GpuHooks::NONE.with_journal(&trace::NullJournal, "x");
        let nulled = gpu_knn(&tm, &queries, &refs, &plan, hooks).unwrap();
        assert_eq!(nulled.select_time, plain.select_time);
        assert_eq!(nulled.neighbors, plain.neighbors);
        // EventJournal: one record per query, simulated time attributed
        let journal = trace::EventJournal::new(trace::JournalConfig::default());
        let hooks = GpuHooks::NONE.with_journal(&journal, "campaign");
        let out = gpu_knn(&tm, &queries, &refs, &plan, hooks).unwrap();
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
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(102).with_aborts(0.9));
        let plan = GpuPlan::new(SelectConfig::plain(QueueKind::Merge, 8)).with_resilience(res);
        let journal = trace::EventJournal::new(trace::JournalConfig {
            exemplars: 4,
            ..trace::JournalConfig::default()
        });
        let hooks = GpuHooks::NONE.with_journal(&journal, "seed41");
        gpu_knn(&tm, &queries, &refs, &plan, hooks).unwrap();
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
        let queries = PointSet::uniform(32, 8, 104);
        let refs = PointSet::uniform(256, 8, 105);
        let r = run(
            &queries,
            &refs,
            &GpuPlan::new(SelectConfig::plain(QueueKind::Heap, 8)),
        );
        assert!(r.select_time > 0.0);
        assert!(r.distance_time > 0.0);
        assert!(r.select_metrics.issued > 0);
        assert!(r.distance_metrics.issued > 0);
    }
}
