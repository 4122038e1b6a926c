//! The discrete-event serving engine.
//!
//! One simulated server drains a bounded admission queue of k-NN
//! requests under open-loop arrivals. Everything advances on the
//! *simulated* clock — the same clock the SIMT timing model charges
//! kernels against — so a run is a pure function of its
//! [`ServeConfig`]: same seed, same arrival schedule, same queue
//! states, same degradation decisions, same journal, byte for byte.
//!
//! Service itself is not faked: every served request runs a real
//! pipeline from the `knn` crate (full matrix + simulated resilient
//! selection for `full-exact`, tile-streamed native search for the
//! degraded steps) and is charged that pipeline's modelled simulated
//! time. Deadlines propagate into the pipelines as cooperative
//! cancellation: warp-launch gating for `full-exact`
//! ([`knn::gpu_knn_resilient_deadline`]) and tile-boundary budgets for
//! the streamed steps ([`knn::TileBudget`]), so a request past its
//! deadline stops consuming work instead of finishing late. The streamed
//! steps search a [`knn::Index`] of each reference set, built once per
//! campaign.
//!
//! Every offered request terminates in exactly one named [`Outcome`];
//! the engine asserts the accounting (offered = Σ outcomes, queue
//! drained) before returning.

use knn::pipeline::queue_tag;
use knn::{
    block, gpu_distance_metrics, gpu_knn_resilient, gpu_knn_resilient_deadline, pcie, Hooks, Index,
    PointSet, SearchPlan, TileBudget,
};
use kselect::gpu::{gpu_select_k, DistanceMatrix, GpuResilience};
use kselect::queues::merge::padded_capacity;
use kselect::{KnnError, Neighbor, QueueKind, SelectConfig};
use simt::{FaultPlan, TimingModel};
use trace::journal::phases;
use trace::{Journal, MetricsRegistry, QueryRecord};

use crate::arrivals::{arrival_times, ArrivalProcess};
use crate::breaker::{Breaker, BreakerConfig, DegradeStep};
use crate::queue::{AdmissionQueue, Admit, QueuePolicy};

/// Metric names the engine emits into a [`MetricsRegistry`].
pub mod metrics {
    /// Requests generated by the load generator.
    pub const OFFERED: &str = "serve.offered";
    /// Requests served at full quality.
    pub const SERVED_EXACT: &str = "serve.served_exact";
    /// Requests served by a degraded ladder step (any).
    pub const SERVED_DEGRADED: &str = "serve.served_degraded";
    /// Requests shed (queue overflow or open breaker).
    pub const SHED: &str = "serve.shed";
    /// Requests that missed their deadline (in queue or mid-service).
    pub const DEADLINE_EXCEEDED: &str = "serve.deadline_exceeded";
    /// Requests that failed outright (e.g. persistent PCIe corruption).
    pub const FAILED: &str = "serve.failed";
    /// Downward breaker transitions.
    pub const BREAKER_TRIPS: &str = "serve.breaker_trips";
    /// Upward breaker transitions.
    pub const BREAKER_RECOVERIES: &str = "serve.breaker_recoveries";
    /// Simulated end-to-end latency of completed (non-shed) requests.
    pub const LATENCY: &str = "serve.latency_ns";
    /// Deepest queue occupancy observed.
    pub const QUEUE_PEAK_DEPTH: &str = "serve.queue_peak_depth";
}

/// One k-NN request flowing through the serving layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Dense id, also the seed discriminator for this request's query
    /// points and fault substream.
    pub id: u64,
    /// Simulated arrival second.
    pub arrival_s: f64,
    /// Absolute simulated deadline second.
    pub deadline_s: f64,
}

/// Why a request was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// The admission queue was full and the policy refused the
    /// arrival ([`QueuePolicy::Reject`] / [`QueuePolicy::DropNewest`]).
    QueueFull,
    /// The arrival displaced this (older) queued request
    /// ([`QueuePolicy::DropOldest`]).
    Evicted,
    /// The circuit breaker was open (ladder at [`DegradeStep::Shed`]).
    BreakerOpen,
}

impl ShedCause {
    /// Stable kebab-case detail tag.
    pub fn detail(self) -> &'static str {
        match self {
            ShedCause::QueueFull => "queue-full",
            ShedCause::Evicted => "evicted",
            ShedCause::BreakerOpen => "breaker-open",
        }
    }
}

/// Where a deadline miss was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlinePhase {
    /// The deadline expired while the request was still queued; it
    /// was dropped at dequeue without consuming any service.
    InQueue,
    /// The deadline expired during service; the pipeline stopped at
    /// the next cooperative cancellation point.
    MidService,
}

impl DeadlinePhase {
    /// Stable kebab-case detail tag.
    pub fn detail(self) -> &'static str {
        match self {
            DeadlinePhase::InQueue => "in-queue",
            DeadlinePhase::MidService => "mid-service",
        }
    }
}

/// Terminal state of one offered request. Every request reaches
/// exactly one of these; the engine's accounting check enforces it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Full-quality service completed within the deadline.
    ServedExact,
    /// A degraded ladder step completed within the deadline. Carries
    /// [`DegradeStep::LargeTile`] or [`DegradeStep::Sampled`].
    ServedDegraded(DegradeStep),
    /// Dropped without service.
    Shed(ShedCause),
    /// The deadline expired before service completed.
    DeadlineExceeded(DeadlinePhase),
    /// Service failed with the named [`KnnError`] (e.g.
    /// `transfer-failed` after retry exhaustion).
    Failed(&'static str),
}

impl Outcome {
    /// Stable journal status name.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::ServedExact => "served-exact",
            Outcome::ServedDegraded(DegradeStep::Sampled) => "served-degraded-sampled",
            Outcome::ServedDegraded(_) => "served-degraded-large-tile",
            Outcome::Shed(_) => "shed",
            Outcome::DeadlineExceeded(_) => "deadline-exceeded",
            Outcome::Failed(_) => "failed",
        }
    }

    /// Secondary tag (cause / ladder step / error name).
    pub fn detail(&self) -> &'static str {
        match self {
            Outcome::ServedExact => "full-exact",
            Outcome::ServedDegraded(step) => step.name(),
            Outcome::Shed(cause) => cause.detail(),
            Outcome::DeadlineExceeded(phase) => phase.detail(),
            Outcome::Failed(name) => name,
        }
    }

    /// Whether this outcome counts as saturation pressure for the
    /// circuit breaker. Breaker-open sheds are excluded so the open
    /// state cannot feed itself (see the `breaker` module docs).
    pub fn pressure(&self) -> bool {
        match self {
            Outcome::ServedExact | Outcome::ServedDegraded(_) => false,
            Outcome::Shed(ShedCause::BreakerOpen) => false,
            Outcome::Shed(_) | Outcome::DeadlineExceeded(_) | Outcome::Failed(_) => true,
        }
    }
}

/// Full description of one serving run. A run is a pure function of
/// this struct: replaying the same config reproduces the same journal
/// byte for byte.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Reference points shared by every request.
    pub n: usize,
    /// Point dimensionality.
    pub dim: usize,
    /// Neighbors per query. The simulated Merge kernels select it
    /// padded to a valid capacity (m·2^j); the native search does not.
    pub k: usize,
    /// Queries per request (32 = one simulated warp).
    pub queries_per_request: usize,
    /// Master seed: arrival schedule, data sets, and per-request
    /// fault substreams all derive from it.
    pub seed: u64,
    /// Simulated seconds of arrivals to generate. `0.0` = auto: long
    /// enough for roughly 256 offered requests at the derived rate.
    pub duration_s: f64,
    /// Arrival process shape.
    pub process: ArrivalProcess,
    /// Explicit mean arrival rate in requests per simulated second;
    /// `None` derives it as `load / exact_service_s`.
    pub rate_hz: Option<f64>,
    /// Offered load as a multiple of single-server capacity (used
    /// when `rate_hz` is `None`). 2.0 = saturated twice over.
    pub load: f64,
    /// Explicit per-request deadline budget in simulated seconds;
    /// `None` derives it as `deadline_factor × exact_service_s`.
    pub deadline_s: Option<f64>,
    /// Deadline as a multiple of the calibrated full-exact service
    /// time (used when `deadline_s` is `None`).
    pub deadline_factor: f64,
    /// Admission-queue capacity.
    pub capacity: usize,
    /// Admission-queue overflow policy.
    pub policy: QueuePolicy,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Reference-tile length for the `large-tile` streamed step.
    pub large_tile: usize,
    /// Stride of the `sampled` step's reference subset (recall bound
    /// ≈ 1/stride of the references are searched).
    pub sample_stride: usize,
    /// Worker threads of the native streamed pipeline behind the
    /// simulated clock: 1 (default) runs it inline, 0 auto-detects.
    /// Neighbors and journal bytes are identical at every setting —
    /// every worker merges tiles per query in ascending order and the
    /// tile budget trips at the same boundary.
    pub threads: usize,
    /// Chaos campaign: the base fault plan every request derives its
    /// own substream from (`seed` remixed with the request id).
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n: 2048,
            dim: 16,
            k: 16,
            queries_per_request: 32,
            seed: 1,
            duration_s: 0.0,
            process: ArrivalProcess::Poisson,
            rate_hz: None,
            load: 2.0,
            deadline_s: None,
            deadline_factor: 8.0,
            capacity: 8,
            policy: QueuePolicy::Reject,
            breaker: BreakerConfig::default(),
            large_tile: 1024,
            sample_stride: 4,
            threads: 1,
            faults: None,
        }
    }
}

/// Aggregate result of one serving run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeSummary {
    /// Requests the load generator offered.
    pub offered: u64,
    /// Outcome counts.
    pub served_exact: u64,
    /// Requests completed by the `large-tile` step.
    pub served_degraded_large_tile: u64,
    /// Requests completed by the `sampled` step.
    pub served_degraded_sampled: u64,
    /// Requests shed without service (all causes).
    pub shed: u64,
    /// Requests whose deadline expired (in queue or mid-service).
    pub deadline_exceeded: u64,
    /// Requests that failed with a typed error.
    pub failed: u64,
    /// Downward breaker transitions.
    pub breaker_trips: u64,
    /// Upward breaker transitions.
    pub breaker_recoveries: u64,
    /// Worst ladder step reached.
    pub worst_step: DegradeStep,
    /// Deepest admission-queue occupancy observed.
    pub queue_peak_depth: usize,
    /// Expected recall@k bound of the `sampled` step (fraction of
    /// references it searches).
    pub sampled_recall_bound: f64,
    /// Calibrated full-exact service time (simulated seconds).
    pub exact_service_s: f64,
    /// Mean arrival rate actually used (requests per simulated second).
    pub rate_hz: f64,
    /// Per-request deadline budget actually used (simulated seconds).
    pub deadline_s: f64,
    /// Simulated second the last outcome was recorded at.
    pub sim_end_s: f64,
}

impl ServeSummary {
    /// Requests that reached a terminal outcome.
    pub fn accounted(&self) -> u64 {
        self.served_exact
            + self.served_degraded_large_tile
            + self.served_degraded_sampled
            + self.shed
            + self.deadline_exceeded
            + self.failed
    }

    /// The zero-lost-requests invariant: every offered request
    /// terminated in exactly one named outcome.
    pub fn verify(&self) -> Result<(), String> {
        if self.accounted() == self.offered {
            Ok(())
        } else {
            Err(format!(
                "accounting violation: offered {} requests but recorded {} outcomes",
                self.offered,
                self.accounted()
            ))
        }
    }

    /// Fraction of offered requests shed.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / (self.offered.max(1)) as f64
    }
}

/// Simulated-seconds → journal nanoseconds.
fn ns(s: f64) -> u64 {
    (s.max(0.0) * 1e9).round() as u64
}

/// Stride-sampled reference subset: rows `0, stride, 2·stride, …`.
/// Neighbor ids from a search over the subset are mapped back with
/// [`unsample_ids`].
fn sample_refs(refs: &PointSet, stride: usize) -> PointSet {
    let stride = stride.max(1);
    let dim = refs.dim();
    let mut flat = Vec::with_capacity((refs.len() / stride + 1) * dim);
    let mut i = 0;
    while i < refs.len() {
        flat.extend_from_slice(refs.point(i));
        i += stride;
    }
    PointSet::from_flat(flat, dim)
}

/// Map subset-local neighbor ids back to full-reference-set ids.
fn unsample_ids(neighbors: &mut [Vec<Neighbor>], stride: usize) {
    for row in neighbors.iter_mut() {
        for nb in row.iter_mut() {
            nb.id *= stride as u32;
        }
    }
}

/// Per-step cost model of a tile-streamed search, calibrated once at
/// engine start by actually running the selection kernel on a
/// representative tile (the simulated pipelines are deterministic, so
/// one calibration run prices every later request exactly).
struct StreamedModel {
    tile: usize,
    tiles_total: usize,
    /// Simulated seconds of one full tile (distance + selection).
    full_tile_s: f64,
    /// Simulated seconds of the trailing partial tile (0 when the
    /// reference count divides evenly).
    last_tile_s: f64,
    /// Host→device payload for this step's reference subset.
    upload_bytes: u64,
}

impl StreamedModel {
    fn calibrate(
        tm: &TimingModel,
        cal_queries: &PointSet,
        refs: &PointSet,
        cfg: &SelectConfig,
        tile: usize,
    ) -> StreamedModel {
        let n = refs.len();
        let tile = tile.clamp(1, n.max(1));
        let tiles_total = n.div_ceil(tile);
        let q = cal_queries.len();
        let tile_cost = |t_len: usize| -> f64 {
            if t_len == 0 {
                return 0.0;
            }
            // The kernel needs k candidates per query: a tile shorter
            // than k (a small `--tile`, or the trailing partial tile) is
            // priced as a k-candidate selection, an upper bound.
            let sel_len = t_len.max(cfg.k);
            let window =
                PointSet::from_flat(refs.as_flat()[..sel_len * refs.dim()].to_vec(), refs.dim());
            let fm = block::squared_distances(cal_queries, &window);
            let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());
            let sel = gpu_select_k(&tm.spec, &dm, cfg);
            tm.kernel_time(&gpu_distance_metrics(q, t_len, refs.dim()))
                + tm.kernel_time(&sel.metrics)
        };
        let full_tile_s = tile_cost(tile);
        let rem = n % tile;
        StreamedModel {
            tile,
            tiles_total,
            full_tile_s,
            last_tile_s: tile_cost(rem),
            upload_bytes: ((q + n) * refs.dim() * 4) as u64,
        }
    }

    fn tile_s(&self, idx: usize) -> f64 {
        if idx + 1 == self.tiles_total && self.last_tile_s > 0.0 {
            self.last_tile_s
        } else {
            self.full_tile_s
        }
    }

    /// Largest tile prefix a budget affords after the upload, plus the
    /// simulated seconds that prefix consumes. Mirrors the pipelines'
    /// cooperative-cancellation contract: a tile *started* before the
    /// budget ran out completes even if it overruns.
    fn afford(&self, upload_s: f64, budget_s: f64) -> (usize, f64) {
        let mut spent = upload_s;
        for idx in 0..self.tiles_total {
            if spent >= budget_s {
                return (idx, spent);
            }
            spent += self.tile_s(idx);
        }
        (self.tiles_total, spent)
    }
}

/// One request's service attempt: its outcome, the simulated seconds
/// it held the server, and the journal phase breakdown.
struct Served {
    outcome: Outcome,
    service_s: f64,
    phase_ns: Vec<(String, u64)>,
}

/// Most arrivals one run may schedule (8 MiB of arrival instants).
const MAX_ARRIVALS: usize = 1 << 20;

/// Everything immutable a run needs: indexed data sets, calibrated
/// models, derived rates.
struct Engine {
    cfg: ServeConfig,
    tm: TimingModel,
    index: Index<'static>,
    sampled_index: Index<'static>,
    select_full: SelectConfig,
    /// The streamed steps' search; each step sets its model's tile.
    select_native: SearchPlan,
    res: GpuResilience,
    large_model: StreamedModel,
    sampled_model: StreamedModel,
    exact_service_s: f64,
    rate_hz: f64,
    deadline_s: f64,
    duration_s: f64,
}

impl Engine {
    fn new(cfg: ServeConfig) -> Result<Engine, KnnError> {
        if let Some(plan) = &cfg.faults {
            if plan.wants_kernel_faults() && !cfg!(feature = "fault") {
                return Err(KnnError::FaultsNotCompiled);
            }
        }
        let tm = TimingModel::tesla_c2075();
        let refs = PointSet::uniform(cfg.n, cfg.dim, mix(cfg.seed, 0xD5EF));
        let sampled_refs = sample_refs(&refs, cfg.sample_stride);
        // The simulated Merge kernels select k padded to m·2^j; the
        // native search takes k as given. The sampled step selects from
        // its subset, so the padded k must fit the smaller of the two
        // reference sets before anything calibrates.
        let k = match cfg.k {
            0 => 0,
            k => padded_capacity(k, 8),
        };
        if k == 0 || k > sampled_refs.len() {
            return Err(KnnError::InvalidK {
                k,
                n: sampled_refs.len(),
            });
        }
        let select_full = SelectConfig::optimized(QueueKind::Merge, k);
        let select_plain = SelectConfig::plain(QueueKind::Merge, k);
        let select_native = SearchPlan::new(cfg.k).with_threads(cfg.threads);
        let res = GpuResilience::default();

        // Calibrate the full-exact service time on a representative
        // fault-free request; every derived rate and deadline hangs
        // off this number, so it is part of the deterministic replay.
        let cal_queries = request_queries(&cfg, u64::MAX);
        let cal = gpu_knn_resilient(&tm, &cal_queries, &refs, &select_full, &res)?;
        let exact_service_s = cal.modeled_seconds(&tm);

        let large_model =
            StreamedModel::calibrate(&tm, &cal_queries, &refs, &select_plain, cfg.large_tile);
        let sampled_model = StreamedModel::calibrate(
            &tm,
            &cal_queries,
            &sampled_refs,
            &select_plain,
            cfg.large_tile,
        );

        let rate_hz = match cfg.rate_hz {
            Some(r) => r,
            None => cfg.load / exact_service_s,
        };
        let deadline_s = match cfg.deadline_s {
            Some(d) => d,
            None => cfg.deadline_factor * exact_service_s,
        };
        let duration_s = if cfg.duration_s > 0.0 {
            cfg.duration_s
        } else {
            256.0 / rate_hz
        };
        // The arrival schedule is materialized up front: refuse one
        // whose expected length (or a non-finite rate) would exhaust
        // memory instead of allocating until the process dies.
        let arrivals = rate_hz * duration_s;
        if arrivals.is_nan() || arrivals > MAX_ARRIVALS as f64 {
            return Err(KnnError::LimitExceeded {
                what: "expected arrivals",
                // `as` saturates +∞ at u64::MAX; NaN (∞ Hz for 0 s) is
                // just as unbounded.
                value: if arrivals.is_nan() {
                    u64::MAX
                } else {
                    arrivals as u64
                },
                limit: MAX_ARRIVALS as u64,
            });
        }
        Ok(Engine {
            cfg,
            tm,
            index: Index::new(refs)?,
            sampled_index: Index::new(sampled_refs)?,
            select_full,
            select_native,
            res,
            large_model,
            sampled_model,
            exact_service_s,
            rate_hz,
            deadline_s,
            duration_s,
        })
    }

    /// This request's resilience policy: the shared defaults plus its
    /// own fault substream (the campaign seed remixed with the request
    /// id, so each request replays its own faults independently).
    fn request_res(&self, req_id: u64) -> GpuResilience {
        let mut res = self.res;
        if let Some(base) = &self.cfg.faults {
            res.faults = Some(FaultPlan {
                seed: mix(base.seed, req_id),
                ..*base
            });
        }
        res
    }

    /// Serve one request at the given ladder step with `budget_s`
    /// simulated seconds of deadline budget remaining.
    fn serve(&self, req: &Request, step: DegradeStep, budget_s: f64) -> Served {
        match step {
            DegradeStep::FullExact => self.serve_full(req, budget_s),
            DegradeStep::LargeTile => self.serve_streamed(req, budget_s, DegradeStep::LargeTile),
            // `Shed` never reaches service; a queued request found
            // with the breaker open still gets the cheapest service.
            DegradeStep::Sampled | DegradeStep::Shed => {
                self.serve_streamed(req, budget_s, DegradeStep::Sampled)
            }
        }
    }

    fn serve_full(&self, req: &Request, budget_s: f64) -> Served {
        let queries = request_queries(&self.cfg, req.id);
        let res = self.request_res(req.id);
        match gpu_knn_resilient_deadline(
            &self.tm,
            &queries,
            self.index.refs(),
            &self.select_full,
            &res,
            budget_s,
        ) {
            Ok(r) => {
                let select_s = {
                    let k = |m: &simt::Metrics| {
                        if m.issued == 0 {
                            0.0
                        } else {
                            self.tm.kernel_time(m)
                        }
                    };
                    k(&r.select_metrics) + k(&r.wasted_metrics)
                };
                let phase_ns = vec![
                    (phases::UPLOAD.to_string(), ns(r.upload.seconds)),
                    (phases::DISTANCE.to_string(), ns(r.distance_time)),
                    (phases::SELECT.to_string(), ns(select_s)),
                    (phases::BACKOFF.to_string(), ns(r.report.backoff_s)),
                    (
                        phases::FALLBACK.to_string(),
                        ns(r.report.fallback_transfer_s),
                    ),
                ];
                let outcome = if r.report.deadline_exceeded_count() > 0 {
                    Outcome::DeadlineExceeded(DeadlinePhase::MidService)
                } else if r.report.failed_count() > 0 {
                    Outcome::Failed("select-failed")
                } else {
                    Outcome::ServedExact
                };
                Served {
                    outcome,
                    service_s: r.modeled_seconds(&self.tm),
                    phase_ns,
                }
            }
            Err(e) => self.failed(req, e),
        }
    }

    fn serve_streamed(&self, req: &Request, budget_s: f64, step: DegradeStep) -> Served {
        let (model, index) = if step == DegradeStep::Sampled {
            (&self.sampled_model, &self.sampled_index)
        } else {
            (&self.large_model, &self.index)
        };
        let n = index.refs().len();
        let queries = request_queries(&self.cfg, req.id);
        let res = self.request_res(req.id);
        let upload = match &res.faults {
            Some(plan) => {
                match pcie::transfer_with_faults(
                    &self.tm.spec,
                    model.upload_bytes,
                    plan,
                    1,
                    res.max_attempts,
                ) {
                    Ok(rep) => rep,
                    Err(e) => return self.failed(req, e),
                }
            }
            None => knn::PcieReport {
                attempts: 1,
                seconds: pcie::transfer_time(&self.tm.spec, model.upload_bytes),
                ..knn::PcieReport::default()
            },
        };
        let (budget_tiles, spent_s) = model.afford(upload.seconds, budget_s);
        let plan = self.select_native.with_tile(model.tile);
        let budget = TileBudget(budget_tiles);
        let result = index.search(&queries, &plan, Hooks::NONE.with_cancel(&budget));
        let tiles_run = match result {
            Ok(_) => model.tiles_total,
            Err(KnnError::Cancelled { tiles_done, .. }) => tiles_done,
            Err(e) => return self.failed(req, e),
        };
        let stream_s: f64 = (0..tiles_run).map(|i| model.tile_s(i)).sum();
        // The calibrated per-tile cost bundles distance + selection;
        // split the journal attribution by the calibration's own ratio
        // would require carrying both — charge the bundle to `select`
        // and the analytic distance share to `distance`.
        let dist_s: f64 = (0..tiles_run)
            .map(|i| {
                let t_len = if i + 1 == model.tiles_total && n % model.tile != 0 {
                    n % model.tile
                } else {
                    model.tile
                };
                self.tm
                    .kernel_time(&gpu_distance_metrics(queries.len(), t_len, self.cfg.dim))
            })
            .sum();
        let phase_ns = vec![
            (phases::UPLOAD.to_string(), ns(upload.seconds)),
            (phases::DISTANCE.to_string(), ns(dist_s)),
            (phases::SELECT.to_string(), ns((stream_s - dist_s).max(0.0))),
        ];
        match result {
            Ok(mut neighbors) => {
                if step == DegradeStep::Sampled {
                    unsample_ids(&mut neighbors, self.cfg.sample_stride);
                }
                Served {
                    outcome: Outcome::ServedDegraded(step),
                    service_s: spent_s,
                    phase_ns,
                }
            }
            Err(_) => Served {
                outcome: Outcome::DeadlineExceeded(DeadlinePhase::MidService),
                service_s: spent_s,
                phase_ns,
            },
        }
    }

    /// A request-level error: the server was still occupied for the
    /// attempts it made. The only error reachable under a well-formed
    /// config is retry-exhausted PCIe corruption (the engine checks k
    /// against both reference sets before the campaign), whose time we
    /// approximate as `max_attempts` clean transfers (the faulted
    /// per-attempt times are not observable once the transfer errors).
    fn failed(&self, _req: &Request, e: KnnError) -> Served {
        let clean = pcie::transfer_time(&self.tm.spec, self.large_model.upload_bytes);
        let service_s = clean * f64::from(self.res.max_attempts);
        Served {
            outcome: Outcome::Failed(e.name()),
            service_s,
            phase_ns: vec![(phases::UPLOAD.to_string(), ns(service_s))],
        }
    }
}

/// This request's query points: derived from the master seed and the
/// request id, so every request is distinct yet replayable.
fn request_queries(cfg: &ServeConfig, req_id: u64) -> PointSet {
    PointSet::uniform(cfg.queries_per_request, cfg.dim, mix(cfg.seed, req_id))
}

/// SplitMix64-style mixer for deriving per-request substreams.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .rotate_left(17)
        .wrapping_add(salt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A request being serviced: it completes (and its outcome is
/// recorded) at `done_at`.
struct InFlight {
    req: Request,
    served: Served,
    queue_wait_s: f64,
    done_at: f64,
}

/// Run one serving campaign. Records one [`QueryRecord`] per offered
/// request into `journal` (status = outcome name) and the outcome /
/// latency counters into `reg`, then returns the aggregate summary.
/// The caller should gate on [`ServeSummary::verify`].
///
/// With a [`TimelineRecorder`](trace::TimelineRecorder), service
/// intervals land as `Service` spans on track 0 ("server"), time spent
/// queued as `QueueWait` spans on track 1 ("queue"), and every brownout
/// ladder transition as a `step:<name>` mark on the server track — all
/// in the campaign's **simulated** nanoseconds (the engine reads no
/// host clock). Recording changes nothing else: the summary, journal
/// and registry are the same with `None`, and the simulation is
/// deterministic, so recording cannot perturb outcomes either way.
pub fn run<J: Journal>(
    cfg: &ServeConfig,
    reg: &MetricsRegistry,
    journal: &J,
    tl: Option<&trace::TimelineRecorder>,
) -> Result<ServeSummary, KnnError> {
    use trace::timeline::SpanKind;

    let eng = Engine::new(*cfg)?;
    let arrivals = arrival_times(cfg.process, eng.rate_hz, eng.duration_s, cfg.seed);

    let mut queue = AdmissionQueue::new(cfg.capacity, cfg.policy);
    let mut breaker = Breaker::new(cfg.breaker);
    let mut summary = ServeSummary {
        offered: arrivals.len() as u64,
        sampled_recall_bound: eng.sampled_index.refs().len() as f64 / eng.index.refs().len() as f64,
        exact_service_s: eng.exact_service_s,
        rate_hz: eng.rate_hz,
        deadline_s: eng.deadline_s,
        ..ServeSummary::default()
    };
    reg.inc(metrics::OFFERED, summary.offered);

    let tag_queue = queue_tag(&eng.select_full);
    let record = |summary: &mut ServeSummary,
                  breaker: &mut Breaker,
                  req: &Request,
                  outcome: Outcome,
                  at_s: f64,
                  queue_wait_s: f64,
                  mut phase_ns: Vec<(String, u64)>| {
        match outcome {
            Outcome::ServedExact => summary.served_exact += 1,
            Outcome::ServedDegraded(DegradeStep::Sampled) => summary.served_degraded_sampled += 1,
            Outcome::ServedDegraded(_) => summary.served_degraded_large_tile += 1,
            Outcome::Shed(_) => summary.shed += 1,
            Outcome::DeadlineExceeded(_) => summary.deadline_exceeded += 1,
            Outcome::Failed(_) => summary.failed += 1,
        }
        summary.sim_end_s = summary.sim_end_s.max(at_s);
        let step_before = breaker.step();
        let step_after = breaker.observe(outcome.pressure());
        if let Some(rec) = tl {
            if queue_wait_s > 0.0 {
                let a = ns(req.arrival_s);
                rec.span(1, SpanKind::QueueWait, req.id, a, a + ns(queue_wait_s));
            }
            // Sheds and in-queue deadline misses never reached the
            // server, so they get no service span.
            let end = ns(at_s);
            let reached_server = !matches!(
                outcome,
                Outcome::Shed(_) | Outcome::DeadlineExceeded(DeadlinePhase::InQueue)
            );
            if reached_server {
                let svc_start = (ns(req.arrival_s) + ns(queue_wait_s)).min(end);
                rec.span(0, SpanKind::Service, req.id, svc_start, end);
            }
            if step_after != step_before {
                rec.mark(0, end, &format!("step:{}", step_after.name()));
            }
        }
        let counter = match outcome {
            Outcome::ServedExact => metrics::SERVED_EXACT,
            Outcome::ServedDegraded(_) => metrics::SERVED_DEGRADED,
            Outcome::Shed(_) => metrics::SHED,
            Outcome::DeadlineExceeded(_) => metrics::DEADLINE_EXCEEDED,
            Outcome::Failed(_) => metrics::FAILED,
        };
        reg.inc(counter, 1);
        let total_ns = ns(at_s - req.arrival_s);
        if !matches!(outcome, Outcome::Shed(_)) {
            reg.observe_ns(metrics::LATENCY, total_ns);
        }
        if journal.enabled() {
            if queue_wait_s > 0.0 {
                phase_ns.insert(0, (phases::QUEUE_WAIT.to_string(), ns(queue_wait_s)));
            }
            journal.record(QueryRecord {
                query: req.id,
                queue: tag_queue.clone(),
                tag: outcome.detail().to_string(),
                tile: eng.large_model.tile as u64,
                total_ns,
                phase_ns,
                status: outcome.name().to_string(),
                attempts: 1,
                ..QueryRecord::default()
            });
        }
    };

    let mut in_flight: Option<InFlight> = None;
    let mut next_arrival = 0usize;

    // Start the next serviceable queued request at simulated second
    // `now`, recording in-queue deadline misses along the way.
    macro_rules! start_from_queue {
        ($now:expr) => {
            while let Some(req) = queue.pop() {
                let now = $now;
                if now >= req.deadline_s {
                    record(
                        &mut summary,
                        &mut breaker,
                        &req,
                        Outcome::DeadlineExceeded(DeadlinePhase::InQueue),
                        now,
                        now - req.arrival_s,
                        Vec::new(),
                    );
                    continue;
                }
                let step = breaker.step();
                let served = eng.serve(&req, step, req.deadline_s - now);
                in_flight = Some(InFlight {
                    done_at: now + served.service_s,
                    queue_wait_s: now - req.arrival_s,
                    req,
                    served,
                });
                break;
            }
        };
    }

    loop {
        let arrival_t = arrivals.get(next_arrival).copied();
        let completion_t = in_flight.as_ref().map(|f| f.done_at);
        match (arrival_t, completion_t) {
            (None, None) => {
                // No more arrivals and the server is idle: drain any
                // queued stragglers (each necessarily starts service
                // the moment the server freed up, so reaching here
                // with a non-empty queue is impossible; the loop below
                // is the belt to that suspender).
                if queue.is_empty() {
                    break;
                }
                let now = summary.sim_end_s;
                start_from_queue!(now);
                if in_flight.is_none() && queue.is_empty() {
                    break;
                }
            }
            // Completions at the same simulated second win ties so the
            // freed server admits the tying arrival directly.
            (arrival, Some(done_at)) if arrival.is_none_or(|a| done_at <= a) => {
                let f = match in_flight.take() {
                    Some(f) => f,
                    None => continue,
                };
                record(
                    &mut summary,
                    &mut breaker,
                    &f.req,
                    f.served.outcome,
                    f.done_at,
                    f.queue_wait_s,
                    f.served.phase_ns,
                );
                start_from_queue!(done_at);
            }
            (Some(t), _) => {
                next_arrival += 1;
                let req = Request {
                    id: (next_arrival - 1) as u64,
                    arrival_s: t,
                    deadline_s: t + eng.deadline_s,
                };
                if breaker.step() == DegradeStep::Shed {
                    record(
                        &mut summary,
                        &mut breaker,
                        &req,
                        Outcome::Shed(ShedCause::BreakerOpen),
                        t,
                        0.0,
                        Vec::new(),
                    );
                    continue;
                }
                if in_flight.is_none() && queue.is_empty() {
                    let step = breaker.step();
                    let served = eng.serve(&req, step, eng.deadline_s);
                    in_flight = Some(InFlight {
                        done_at: t + served.service_s,
                        queue_wait_s: 0.0,
                        req,
                        served,
                    });
                    continue;
                }
                match queue.offer(req) {
                    Admit::Queued => {}
                    Admit::Rejected(r) | Admit::DroppedNewest(r) => record(
                        &mut summary,
                        &mut breaker,
                        &r,
                        Outcome::Shed(ShedCause::QueueFull),
                        t,
                        0.0,
                        Vec::new(),
                    ),
                    Admit::EvictedOldest(victim) => record(
                        &mut summary,
                        &mut breaker,
                        &victim,
                        Outcome::Shed(ShedCause::Evicted),
                        t,
                        t - victim.arrival_s,
                        Vec::new(),
                    ),
                }
            }
            // Unreachable: the guards above cover every combination,
            // but the match must be exhaustive.
            (None, Some(_)) => unreachable!("completion arm already handled"),
        }
    }

    summary.breaker_trips = breaker.trips();
    summary.breaker_recoveries = breaker.recoveries();
    summary.worst_step = breaker.worst();
    summary.queue_peak_depth = queue.max_depth();
    reg.inc(metrics::BREAKER_TRIPS, summary.breaker_trips);
    reg.inc(metrics::BREAKER_RECOVERIES, summary.breaker_recoveries);
    reg.record_peak(metrics::QUEUE_PEAK_DEPTH, summary.queue_peak_depth as u64);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{EventJournal, JournalConfig, NullJournal};

    fn small() -> ServeConfig {
        ServeConfig {
            n: 256,
            dim: 8,
            k: 8,
            queries_per_request: 32,
            duration_s: 0.0,
            large_tile: 128,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn sampled_step_with_k_past_its_subset_is_invalid_k() {
        let cfg = ServeConfig {
            n: 64,
            k: 8,
            sample_stride: 16,
            ..small()
        };
        let err = run(&cfg, &MetricsRegistry::new(), &NullJournal, None).unwrap_err();
        assert_eq!(err, KnnError::InvalidK { k: 8, n: 4 });
    }

    #[test]
    fn tiles_shorter_than_k_are_priced_as_k_candidates() {
        // tile 1 < k, and 256 % 250 leaves a trailing tile of 6 < k = 8
        for large_tile in [1, 250] {
            let cfg = ServeConfig {
                large_tile,
                ..small()
            };
            let sum = run(&cfg, &MetricsRegistry::new(), &NullJournal, None).expect("run");
            sum.verify().expect("accounting");
        }
    }

    #[test]
    fn an_arrival_schedule_past_the_cap_is_refused() {
        for (rate_hz, duration_s) in [(1e300, 1.0), (f64::INFINITY, 0.0)] {
            let cfg = ServeConfig {
                rate_hz: Some(rate_hz),
                duration_s,
                ..small()
            };
            let err = run(&cfg, &MetricsRegistry::new(), &NullJournal, None).unwrap_err();
            assert_eq!(
                err.name(),
                "limit-exceeded",
                "{rate_hz} Hz for {duration_s} s"
            );
        }
    }

    #[test]
    fn every_request_reaches_exactly_one_outcome() {
        let reg = MetricsRegistry::new();
        let sum = run(&small(), &reg, &NullJournal, None).expect("run");
        assert!(sum.offered > 0);
        sum.verify().expect("accounting");
        assert_eq!(reg.counter(metrics::OFFERED), sum.offered);
    }

    #[test]
    fn same_seed_reproduces_the_journal_byte_identically() {
        let cfg = small();
        let run_once = || {
            let reg = MetricsRegistry::new();
            let j = EventJournal::new(JournalConfig::default());
            let sum = run(&cfg, &reg, &j, None).expect("run");
            (sum, j.to_jsonl())
        };
        let (a_sum, a) = run_once();
        let (_b_sum, b) = run_once();
        assert_eq!(a, b, "same seed must replay the journal byte for byte");
        assert!(a_sum.offered > 0);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let reg = MetricsRegistry::new();
        let j1 = EventJournal::new(JournalConfig::default());
        let j2 = EventJournal::new(JournalConfig::default());
        let a = run(&small(), &reg, &j1, None).expect("run");
        let cfg2 = ServeConfig { seed: 2, ..small() };
        let b = run(&cfg2, &reg, &j2, None).expect("run");
        assert!(a.offered > 0 && b.offered > 0);
        assert_ne!(j1.to_jsonl(), j2.to_jsonl());
    }

    #[test]
    fn overload_sheds_but_underload_serves_everything_exactly() {
        let reg = MetricsRegistry::new();
        // 2× overload: something must give (queue overflow, deadline
        // misses, or degradation).
        let over = run(&small(), &reg, &NullJournal, None).expect("run");
        over.verify().expect("accounting");
        assert!(
            over.shed
                + over.deadline_exceeded
                + over.served_degraded_large_tile
                + over.served_degraded_sampled
                > 0,
            "2x overload must trigger some protection: {over:?}"
        );
        // 0.5× load with the same config: everything serves exactly.
        let calm_cfg = ServeConfig {
            load: 0.5,
            ..small()
        };
        let calm = run(&calm_cfg, &reg, &NullJournal, None).expect("run");
        calm.verify().expect("accounting");
        assert_eq!(calm.served_exact, calm.offered, "{calm:?}");
        assert_eq!(calm.shed, 0);
        assert_eq!(calm.breaker_trips, 0);
    }

    #[test]
    fn tight_deadlines_are_detected_not_served_late() {
        // A deadline below the exact service time: full-exact service
        // cannot finish, so requests either degrade or miss.
        let cfg = ServeConfig {
            deadline_factor: 0.5,
            ..small()
        };
        let reg = MetricsRegistry::new();
        let sum = run(&cfg, &reg, &NullJournal, None).expect("run");
        sum.verify().expect("accounting");
        assert_eq!(sum.served_exact, 0, "{sum:?}");
        assert!(sum.deadline_exceeded > 0, "{sum:?}");
    }

    #[test]
    fn pcie_chaos_is_accounted_and_deterministic() {
        let cfg = ServeConfig {
            faults: Some(FaultPlan::seeded(9).with_pcie(0.2, 0.1)),
            ..small()
        };
        let run_once = || {
            let reg = MetricsRegistry::new();
            let j = EventJournal::new(JournalConfig::default());
            let sum = run(&cfg, &reg, &j, None).expect("run");
            (sum, j.to_jsonl())
        };
        let (a_sum, a) = run_once();
        let (b_sum, b) = run_once();
        a_sum.verify().expect("accounting");
        assert_eq!(a, b, "chaos must replay byte-identically");
        assert_eq!(a_sum.offered, b_sum.offered);
    }

    #[test]
    fn sampled_step_reports_its_recall_bound() {
        let reg = MetricsRegistry::new();
        let sum = run(&small(), &reg, &NullJournal, None).expect("run");
        let expect = (256usize.div_ceil(4)) as f64 / 256.0;
        assert!((sum.sampled_recall_bound - expect).abs() < 1e-12);
    }

    #[test]
    fn timelined_run_is_byte_identical_and_lands_on_the_right_tracks() {
        use trace::timeline::SpanKind;
        use trace::TimelineRecorder;

        let cfg = small();
        let run_with = |tl: Option<&TimelineRecorder>| {
            let reg = MetricsRegistry::new();
            let j = EventJournal::new(JournalConfig::default());
            let sum = run(&cfg, &reg, &j, tl).expect("run");
            (sum, j.to_jsonl())
        };
        let (plain_sum, plain_journal) = run_with(None);

        let rec = TimelineRecorder::with_names(&["server", "queue"]);
        let (on_sum, on_journal) = run_with(Some(&rec));
        assert_eq!(on_sum, plain_sum, "recording must not perturb the campaign");
        assert_eq!(on_journal, plain_journal);

        let report = rec.report(ns(on_sum.sim_end_s));
        assert_eq!(report.lanes.len(), 2);
        let server = &report.lanes[0];
        let queue = &report.lanes[1];
        assert_eq!(server.name, "server");
        assert_eq!(queue.name, "queue");
        assert!(server.spans.iter().all(|s| s.kind == SpanKind::Service));
        assert!(queue.spans.iter().all(|s| s.kind == SpanKind::QueueWait));
        // Every request that reached the server owns exactly one
        // service span; sheds and in-queue misses own none.
        let reached = on_sum.served_exact
            + on_sum.served_degraded_large_tile
            + on_sum.served_degraded_sampled
            + on_sum.failed;
        assert!(server.spans.len() as u64 >= reached);
        assert!(server.spans.len() as u64 <= on_sum.offered - on_sum.shed);
        assert!(server.busy_ns > 0, "the server must have been busy");
        // Brownout transitions mark the server track, one per ladder
        // move the breaker made.
        assert_eq!(
            server.marks.len() as u64,
            on_sum.breaker_trips + on_sum.breaker_recoveries
        );
        assert!(server
            .marks
            .iter()
            .all(|(_, label)| label.starts_with("step:")));
        // Busy + idle conservation holds on the simulated clock too.
        for lane in &report.lanes {
            assert_eq!(lane.busy_ns + lane.idle_ns, report.wall_ns);
        }
    }

    #[test]
    fn journal_statuses_use_the_stable_taxonomy() {
        let j = EventJournal::new(JournalConfig::default());
        let reg = MetricsRegistry::new();
        let sum = run(&small(), &reg, &j, None).expect("run");
        let recs = j.snapshot();
        assert_eq!(recs.len() as u64, sum.offered);
        let legal = [
            "served-exact",
            "served-degraded-large-tile",
            "served-degraded-sampled",
            "shed",
            "deadline-exceeded",
            "failed",
        ];
        for r in &recs {
            assert!(legal.contains(&r.status.as_str()), "status {}", r.status);
        }
        // Per-status journal counts must agree with the summary.
        let count = |s: &str| recs.iter().filter(|r| r.status == s).count() as u64;
        assert_eq!(count("served-exact"), sum.served_exact);
        assert_eq!(count("shed"), sum.shed);
        assert_eq!(count("deadline-exceeded"), sum.deadline_exceeded);
    }
}
