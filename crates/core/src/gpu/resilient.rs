//! Resilient k-selection: checked inputs, per-warp retry, output
//! verification, and graceful degradation to exact host selection.
//!
//! [`validate_request`] turns untrusted inputs (`k`, merge shape,
//! buffer size) into typed [`KnnError`]s instead of the panics of
//! [`super::gpu_select_k`]. [`gpu_select_k_resilient`] checks them the
//! same way and runs every warp through [`simt::launch_resilient`]:
//! injected or genuine failures are retried with simulated backoff,
//! each completed attempt is validated structurally (sorted, ids in
//! range, distances match the device matrix — via [`check::audit`])
//! and optionally against a host oracle, and a warp that exhausts its
//! attempts degrades to an exact host-side selection for its queries.
//! The outcome of every query is recorded in a [`SearchReport`] —
//! results are never silently wrong, only slower or explicitly failed.

use simt::{GpuSpec, Metrics, WarpCtx, WARP_SIZE};

use crate::error::KnnError;
use crate::select::SelectConfig;
use crate::types::{sort_neighbors, Neighbor};

use super::select::{warp_kernel, DistanceMatrix};
use super::KernelCounters;

/// Configuration of the resilient launch around the selection kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuResilience {
    /// Kernel attempts per warp before degrading (≥ 1).
    pub max_attempts: u32,
    /// Simulated watchdog deadline in issue slots per warp attempt.
    pub watchdog_issue_limit: Option<u64>,
    /// First-retry backoff in simulated seconds; doubles per attempt.
    pub backoff_base_s: f64,
    /// Verify every completed attempt against a host-computed top-k
    /// oracle. Catches corruption that is structurally plausible (e.g. a
    /// bit-flipped distance that pushed a true neighbor out). Costs a
    /// host-side sort per query; structural validation always runs.
    pub verify_oracle: bool,
    /// Degrade a warp that exhausts its attempts to exact host
    /// selection (true) or report its queries as failed (false).
    pub fallback: bool,
    /// Fault campaign to inject, if any.
    pub faults: Option<simt::FaultPlan>,
}

impl Default for GpuResilience {
    fn default() -> Self {
        GpuResilience {
            max_attempts: 3,
            watchdog_issue_limit: None,
            backoff_base_s: 1e-6,
            verify_oracle: true,
            fallback: true,
            faults: None,
        }
    }
}

impl GpuResilience {
    /// Builder: attach a fault plan.
    pub fn with_faults(mut self, plan: simt::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    fn retry_policy(&self) -> simt::RetryPolicy {
        simt::RetryPolicy {
            max_attempts: self.max_attempts,
            watchdog_issue_limit: self.watchdog_issue_limit,
            backoff_base_s: self.backoff_base_s,
            fault_plan: self.faults,
        }
    }
}

/// How one query's result was obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// Clean first-attempt GPU result.
    Ok,
    /// GPU result delivered after `attempts` tries (≥ 2).
    Recovered { attempts: u32 },
    /// The GPU path kept failing; the result came from exact host
    /// selection after `attempts` kernel tries.
    Fallback { attempts: u32 },
    /// No result: the GPU path failed `after_attempts` times and
    /// fallback was disabled. `reason` is the last failure.
    Failed { after_attempts: u32, reason: String },
    /// No result and no work consumed: the caller's launch gate (a
    /// deadline check — see [`gpu_select_k_resilient_gated`]) closed
    /// before this query's warp started, so the query stopped consuming
    /// work instead of finishing late.
    DeadlineExceeded,
}

impl QueryStatus {
    /// Stable kebab-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            QueryStatus::Ok => "ok",
            QueryStatus::Recovered { .. } => "recovered",
            QueryStatus::Fallback { .. } => "fallback",
            QueryStatus::Failed { .. } => "failed",
            QueryStatus::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

/// Recovery-event totals for one resilient run. Mirrors
/// [`KernelCounters`]' pattern: plain struct, [`merge`](Self::merge) to
/// fold, [`to_counter_set`](Self::to_counter_set) to export under the
/// canonical [`trace::names`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Warp attempts beyond each warp's first.
    pub retries: u64,
    /// Queries degraded to exact host selection.
    pub fallbacks: u64,
    /// Kernel aborts observed (injected or genuine).
    pub aborts: u64,
    /// Warp attempts killed at the watchdog deadline.
    pub watchdog_timeouts: u64,
    /// Non-injected kernel panics caught.
    pub panics: u64,
    /// Completed attempts rejected by validation.
    pub validation_failures: u64,
    /// Bit flips injected into simulated DRAM loads.
    pub bitflips_injected: u64,
    /// PCIe transfer attempts that stalled (filled by the `knn` layer).
    pub pcie_stalls: u64,
    /// PCIe transfer attempts with corrupt payload (filled by `knn`).
    pub pcie_corruptions: u64,
    /// Warps never launched because the deadline gate closed first.
    pub deadline_skips: u64,
}

impl ResilienceCounters {
    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.aborts += other.aborts;
        self.watchdog_timeouts += other.watchdog_timeouts;
        self.panics += other.panics;
        self.validation_failures += other.validation_failures;
        self.bitflips_injected += other.bitflips_injected;
        self.pcie_stalls += other.pcie_stalls;
        self.pcie_corruptions += other.pcie_corruptions;
        self.deadline_skips += other.deadline_skips;
    }

    /// Export as a named [`trace::CounterSet`]; zero counters omitted.
    pub fn to_counter_set(&self) -> trace::CounterSet {
        let mut set = trace::CounterSet::new();
        let mut put = |name: &str, v: u64| {
            if v > 0 {
                set.add(name, v);
            }
        };
        put(trace::names::RESILIENCE_RETRY, self.retries);
        put(trace::names::RESILIENCE_FALLBACK, self.fallbacks);
        put(trace::names::RESILIENCE_ABORT, self.aborts);
        put(trace::names::RESILIENCE_WATCHDOG, self.watchdog_timeouts);
        put(trace::names::RESILIENCE_PANIC, self.panics);
        put(
            trace::names::RESILIENCE_VALIDATION,
            self.validation_failures,
        );
        put(trace::names::RESILIENCE_BITFLIP, self.bitflips_injected);
        put(trace::names::RESILIENCE_PCIE_STALL, self.pcie_stalls);
        put(trace::names::RESILIENCE_PCIE_CORRUPT, self.pcie_corruptions);
        put(trace::names::RESILIENCE_DEADLINE_SKIP, self.deadline_skips);
        set
    }

    /// Record every non-zero counter into `tracer` at its current clock.
    pub fn record(&self, tracer: &mut trace::Tracer) {
        for (name, v) in self.to_counter_set().iter() {
            tracer.add(name, v);
        }
    }
}

/// Per-query outcomes plus recovery totals for one resilient search.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReport {
    /// One status per query, in query order.
    pub statuses: Vec<QueryStatus>,
    /// Recovery-event totals.
    pub counters: ResilienceCounters,
    /// Simulated seconds spent in retry backoff.
    pub backoff_s: f64,
    /// Simulated seconds spent copying failed warps' distance rows back
    /// to the host for fallback selection.
    pub fallback_transfer_s: f64,
}

impl SearchReport {
    /// Queries answered by a clean first attempt.
    pub fn ok_count(&self) -> usize {
        self.count("ok")
    }

    /// Queries answered by the GPU after at least one retry.
    pub fn recovered_count(&self) -> usize {
        self.count("recovered")
    }

    /// Queries answered by the exact host fallback.
    pub fn fallback_count(&self) -> usize {
        self.count("fallback")
    }

    /// Queries with no result.
    pub fn failed_count(&self) -> usize {
        self.count("failed")
    }

    /// Queries whose warp was never launched because the deadline gate
    /// closed first.
    pub fn deadline_exceeded_count(&self) -> usize {
        self.count("deadline-exceeded")
    }

    fn count(&self, name: &str) -> usize {
        self.statuses.iter().filter(|s| s.name() == name).count()
    }
}

/// Outcome of [`gpu_select_k_resilient`].
#[derive(Clone, Debug)]
pub struct GpuResilientSelect {
    /// Per-query neighbors sorted ascending by distance; `None` only for
    /// queries whose status is [`QueryStatus::Failed`] or
    /// [`QueryStatus::DeadlineExceeded`].
    pub neighbors: Vec<Option<Vec<Neighbor>>>,
    /// Metrics of the accepted kernel attempts (the delivered work).
    pub metrics: Metrics,
    /// The Hierarchical Partition construction inside the accepted
    /// attempts: a prefix of `metrics`, zero without HP.
    pub build_metrics: Metrics,
    /// Metrics of rejected attempts — real simulated work, thrown away.
    pub wasted: Metrics,
    /// Warps launched.
    pub n_warps: usize,
    /// Technique-level event counters from accepted attempts.
    pub counters: KernelCounters,
    /// Per-query outcomes and recovery totals.
    pub report: SearchReport,
}

/// Validate a selection request over `n` references per query against
/// the device, returning the typed error a caller can act on: the
/// config's own rules ([`SelectConfig::validate`]), then the buffer's
/// fit in shared memory. The resilient entry points run it first, and
/// so does the `knn` crate's simulated pipeline before it computes any
/// distance. A config the kernels cannot run must fail here: inside the
/// resilient launch its panics would be retried and then degraded to
/// host fallback.
pub fn validate_request(spec: &GpuSpec, n: usize, cfg: &SelectConfig) -> Result<(), KnnError> {
    if n == 0 {
        return Err(KnnError::EmptyInput {
            what: "reference points",
        });
    }
    cfg.validate(n)?;
    if let Some(buf) = &cfg.buffer {
        // Same capacity rule as `gpu_select_k`'s assert: padded slots ×
        // 32 lanes × (f32 + u32) + the intra-warp flag word.
        let bytes = (buf.size.next_power_of_two() * WARP_SIZE * 8 + 4) as u64;
        if bytes > spec.shared_mem_bytes {
            return Err(KnnError::BufferTooLarge {
                bytes,
                limit: spec.shared_mem_bytes,
            });
        }
    }
    Ok(())
}

/// Exact host-side selection for one query: the degraded path warps
/// fall back to. Sorts the query's full distance row (ties by id).
fn host_exact_select(dm: &DistanceMatrix, query: usize, k: usize) -> Vec<Neighbor> {
    let mut row: Vec<Neighbor> = (0..dm.n())
        .map(|e| Neighbor::new(dm.value(query, e), e as u32))
        .collect();
    sort_neighbors(&mut row);
    row.truncate(k);
    row
}

type WarpOutput = (Vec<Vec<Neighbor>>, Metrics, KernelCounters);

/// Run k-selection with per-warp retry, validation and degraded-mode
/// fallback. See the module docs for semantics; fault plans in
/// `res.faults` inject deterministically keyed on `(warp, attempt)`, so
/// the entire output — including the [`SearchReport`] — is reproducible
/// byte for byte from the same inputs.
pub fn gpu_select_k_resilient(
    spec: &GpuSpec,
    dm: &DistanceMatrix,
    cfg: &SelectConfig,
    res: &GpuResilience,
) -> Result<GpuResilientSelect, KnnError> {
    resilient_select(spec, dm, cfg, res, None::<fn(usize, &Metrics, f64) -> bool>)
}

/// [`gpu_select_k_resilient`] with a cooperative deadline gate at
/// warp-launch boundaries.
///
/// Before each warp launches, `gate(warp_id, consumed, backoff_s)` is
/// consulted with the metrics of all selection work already executed
/// (accepted and wasted attempts) and the simulated backoff spent so
/// far; the caller converts those to seconds with its
/// [`simt::TimingModel`] and compares against the request's remaining
/// budget. Once the gate closes, no further warp launches: each
/// skipped warp's queries report [`QueryStatus::DeadlineExceeded`]
/// with `None` neighbors — past-deadline queries stop consuming work
/// rather than finishing late (no host fallback either; that would
/// consume *more* work after the deadline). Gated launches run warps
/// sequentially in warp-id order (see
/// [`simt::launch_resilient_gated`]); per-warp results and fault draws
/// are unchanged, so an always-open gate reproduces
/// [`gpu_select_k_resilient`] byte for byte.
pub fn gpu_select_k_resilient_gated<G>(
    spec: &GpuSpec,
    dm: &DistanceMatrix,
    cfg: &SelectConfig,
    res: &GpuResilience,
    gate: G,
) -> Result<GpuResilientSelect, KnnError>
where
    G: FnMut(usize, &Metrics, f64) -> bool,
{
    resilient_select(spec, dm, cfg, res, Some(gate))
}

fn resilient_select<G>(
    spec: &GpuSpec,
    dm: &DistanceMatrix,
    cfg: &SelectConfig,
    res: &GpuResilience,
    gate: Option<G>,
) -> Result<GpuResilientSelect, KnnError>
where
    G: FnMut(usize, &Metrics, f64) -> bool,
{
    validate_request(spec, dm.n(), cfg)?;
    if res.faults.is_some_and(|p| p.wants_kernel_faults()) && !simt::fault::compiled() {
        return Err(KnnError::FaultsNotCompiled);
    }

    // Host oracle: the exact ascending top-k distances per query.
    // Computed once, outside the retry loop, from the pristine matrix.
    let oracle: Option<Vec<Vec<f32>>> = res.verify_oracle.then(|| {
        (0..dm.q())
            .map(|qi| {
                let mut row: Vec<f32> = (0..dm.n()).map(|e| dm.value(qi, e)).collect();
                row.sort_by(f32::total_cmp);
                row.truncate(cfg.k);
                row
            })
            .collect()
    });

    let validate = |warp_id: usize, out: &WarpOutput| -> Result<(), String> {
        let q_base = warp_id * WARP_SIZE;
        for (l, lane) in out.0.iter().enumerate() {
            let query = q_base + l;
            if query >= dm.q() {
                continue;
            }
            if lane.len() != cfg.k {
                return Err(format!(
                    "query {query}: {} neighbors delivered, expected {}",
                    lane.len(),
                    cfg.k
                ));
            }
            let dists: Vec<f32> = lane.iter().map(|nb| nb.dist).collect();
            check::audit::audit_sorted_asc(&dists, &format!("query {query} top-k"))
                .map_err(|e| e.to_string())?;
            for nb in lane {
                if nb.id as usize >= dm.n() {
                    return Err(format!("query {query}: id {} out of range", nb.id));
                }
                if dm.value(query, nb.id as usize).to_bits() != nb.dist.to_bits() {
                    return Err(format!(
                        "query {query}: delivered distance {} disagrees with the \
                         stored distance for id {}",
                        nb.dist, nb.id
                    ));
                }
            }
            if let Some(oracle) = oracle.as_ref() {
                if dists != oracle[query] {
                    return Err(format!(
                        "query {query}: top-k differs from the exact oracle"
                    ));
                }
            }
        }
        Ok(())
    };

    let n_warps = dm.q().div_ceil(WARP_SIZE);
    let kernel = |warp_id: usize, ctx: &mut WarpCtx| warp_kernel(ctx, warp_id, dm, cfg);
    let launched = match gate {
        Some(g) => {
            simt::launch_resilient_gated(spec, n_warps, &res.retry_policy(), kernel, validate, g)?
        }
        None => simt::launch_resilient(spec, n_warps, &res.retry_policy(), kernel, validate)?,
    };

    let mut neighbors: Vec<Option<Vec<Neighbor>>> = Vec::with_capacity(dm.q());
    let mut statuses: Vec<QueryStatus> = Vec::with_capacity(dm.q());
    let mut counters = KernelCounters::default();
    let mut build_metrics = Metrics::new();
    let mut rc = ResilienceCounters::default();
    let mut fallback_bytes = 0u64;

    for (w, run) in launched.runs.iter().enumerate() {
        rc.retries += u64::from(run.attempts.saturating_sub(1));
        rc.bitflips_injected += run.bitflips_injected;
        for f in &run.failures {
            match f {
                simt::WarpFailure::Abort { .. } => rc.aborts += 1,
                simt::WarpFailure::WatchdogTimeout { .. } => rc.watchdog_timeouts += 1,
                simt::WarpFailure::Panic { .. } => rc.panics += 1,
                simt::WarpFailure::Validation { .. } => rc.validation_failures += 1,
            }
        }
        let q_base = w * WARP_SIZE;
        let live = dm.q().saturating_sub(q_base).min(WARP_SIZE);
        if run.attempts == 0 {
            // Never launched: the deadline gate closed first. The
            // query consumed no work and gets none retroactively.
            rc.deadline_skips += 1;
            for _ in 0..live {
                neighbors.push(None);
                statuses.push(QueryStatus::DeadlineExceeded);
            }
            continue;
        }
        match &run.result {
            Some((lanes, build, warp_counters)) => {
                counters.merge(warp_counters);
                build_metrics.add(build);
                for lane in lanes.iter().take(live) {
                    neighbors.push(Some(lane.clone()));
                    statuses.push(if run.attempts == 1 {
                        QueryStatus::Ok
                    } else {
                        QueryStatus::Recovered {
                            attempts: run.attempts,
                        }
                    });
                }
            }
            None if res.fallback => {
                for l in 0..live {
                    let query = q_base + l;
                    neighbors.push(Some(host_exact_select(dm, query, cfg.k)));
                    statuses.push(QueryStatus::Fallback {
                        attempts: run.attempts,
                    });
                    rc.fallbacks += 1;
                    // The host must pull this query's distance row over
                    // PCIe to select on it.
                    fallback_bytes += (dm.n() * core::mem::size_of::<f32>()) as u64;
                }
            }
            None => {
                let reason = run
                    .failures
                    .last()
                    .map(|f| f.to_string())
                    .unwrap_or_else(|| "unknown failure".to_string());
                for _ in 0..live {
                    neighbors.push(None);
                    statuses.push(QueryStatus::Failed {
                        after_attempts: run.attempts,
                        reason: reason.clone(),
                    });
                }
            }
        }
    }

    let fallback_transfer_s = fallback_bytes as f64 / (spec.pcie_gbps * 1e9);
    Ok(GpuResilientSelect {
        neighbors,
        metrics: launched.metrics,
        build_metrics,
        wasted: launched.wasted,
        n_warps,
        counters,
        report: SearchReport {
            statuses,
            counters: rc,
            backoff_s: launched.backoff_s,
            fallback_transfer_s,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffered::BufferConfig;
    use crate::types::QueueKind;
    use rand::{Rng, SeedableRng};

    fn random_dm(q: usize, n: usize, seed: u64) -> DistanceMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let flat: Vec<f32> = (0..q * n).map(|_| rng.gen()).collect();
        DistanceMatrix::from_row_major(&flat, q, n)
    }

    #[test]
    fn validate_request_rejects_bad_inputs_with_typed_errors() {
        let spec = GpuSpec::tesla_c2075();
        let err = |cfg: SelectConfig| validate_request(&spec, 32, &cfg).unwrap_err();

        assert_eq!(
            err(SelectConfig::plain(QueueKind::Heap, 0)).name(),
            "invalid-k"
        );
        assert_eq!(
            err(SelectConfig::plain(QueueKind::Heap, 64)).name(),
            "invalid-k"
        );
        let mut bad_shape = SelectConfig::plain(QueueKind::Merge, 24);
        bad_shape.m = 8;
        assert_eq!(err(bad_shape).name(), "merge-shape");
        let huge_buffer = SelectConfig::plain(QueueKind::Heap, 8).with_buffer(BufferConfig {
            size: 1 << 20,
            sorted: false,
            intra_warp: true,
        });
        assert_eq!(err(huge_buffer).name(), "buffer-too-large");
        // The rest of `SelectConfig::validate` applies too (its own
        // tests cover each rule).
        let mut one_group = SelectConfig::plain(QueueKind::Heap, 8);
        one_group.hp = Some(crate::hierarchical::HpConfig { g: 1 });
        assert_eq!(err(one_group).name(), "invalid-param");
    }

    #[test]
    fn resilient_without_faults_matches_plain_launch() {
        let spec = GpuSpec::tesla_c2075();
        let dm = random_dm(70, 300, 3);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let plain = super::super::gpu_select_k(&spec, &dm, &cfg);
        let res = gpu_select_k_resilient(&spec, &dm, &cfg, &GpuResilience::default()).unwrap();
        assert_eq!(res.metrics, plain.metrics, "accepted work identical");
        assert_eq!(res.build_metrics, plain.build_metrics);
        assert_eq!(res.wasted, Metrics::new());
        assert_eq!(res.counters, plain.counters);
        for (qi, got) in res.neighbors.iter().enumerate() {
            assert_eq!(got.as_deref(), Some(&plain.neighbors[qi][..]));
        }
        assert!(res.report.statuses.iter().all(|s| *s == QueryStatus::Ok));
        assert_eq!(res.report.counters, ResilienceCounters::default());
        assert_eq!(res.report.backoff_s, 0.0);
    }

    #[test]
    fn gated_with_open_gate_matches_ungated() {
        let spec = GpuSpec::tesla_c2075();
        let dm = random_dm(70, 300, 3);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let res = GpuResilience::default();
        let a = gpu_select_k_resilient(&spec, &dm, &cfg, &res).unwrap();
        let b = gpu_select_k_resilient_gated(&spec, &dm, &cfg, &res, |_, _, _| true).unwrap();
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn closed_gate_reports_deadline_exceeded_without_consuming_work() {
        let spec = GpuSpec::tesla_c2075();
        let dm = random_dm(90, 200, 6); // 3 warps: 32 + 32 + 26 queries
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);
        let res = GpuResilience::default();
        // Admit only the first warp's launch.
        let out = gpu_select_k_resilient_gated(&spec, &dm, &cfg, &res, |w, _, _| w == 0).unwrap();
        assert_eq!(out.report.deadline_exceeded_count(), 90 - 32);
        assert_eq!(out.report.counters.deadline_skips, 2);
        assert_eq!(out.report.counters.retries, 0);
        for (qi, (nb, status)) in out.neighbors.iter().zip(&out.report.statuses).enumerate() {
            if qi < 32 {
                assert_eq!(*status, QueryStatus::Ok);
                assert!(nb.is_some());
            } else {
                assert_eq!(*status, QueryStatus::DeadlineExceeded);
                assert!(nb.is_none(), "a past-deadline query gets no result");
            }
        }
        // Only the launched warp's work is accounted.
        let dm1 = random_dm(90, 200, 6);
        let full = gpu_select_k_resilient(&spec, &dm1, &cfg, &res).unwrap();
        assert!(out.metrics.issued < full.metrics.issued);
        assert_eq!(out.wasted, Metrics::new());
    }

    #[test]
    fn gate_sees_monotone_consumption() {
        let spec = GpuSpec::tesla_c2075();
        let dm = random_dm(128, 100, 7);
        let cfg = SelectConfig::plain(QueueKind::Insertion, 4);
        let mut issued_at_gate = Vec::new();
        gpu_select_k_resilient_gated(&spec, &dm, &cfg, &GpuResilience::default(), |w, m, _| {
            issued_at_gate.push(m.issued);
            let _ = w;
            true
        })
        .unwrap();
        assert_eq!(issued_at_gate.len(), 4);
        assert_eq!(issued_at_gate[0], 0, "nothing consumed before warp 0");
        assert!(issued_at_gate.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn resilient_rejects_kernel_fault_plan_without_feature() {
        let spec = GpuSpec::tesla_c2075();
        let dm = random_dm(4, 32, 4);
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);
        let res = GpuResilience::default().with_faults(simt::FaultPlan::seeded(1).with_aborts(0.5));
        let out = gpu_select_k_resilient(&spec, &dm, &cfg, &res);
        if simt::fault::compiled() {
            assert!(out.is_ok());
        } else {
            assert_eq!(out.unwrap_err(), KnnError::FaultsNotCompiled);
        }
    }

    #[test]
    fn host_fallback_is_exact() {
        let dm = random_dm(3, 100, 5);
        for qi in 0..3 {
            let got = host_exact_select(&dm, qi, 7);
            let mut want: Vec<f32> = (0..100).map(|e| dm.value(qi, e)).collect();
            want.sort_by(f32::total_cmp);
            want.truncate(7);
            let got_d: Vec<f32> = got.iter().map(|nb| nb.dist).collect();
            assert_eq!(got_d, want);
            for nb in &got {
                assert_eq!(dm.value(qi, nb.id as usize), nb.dist);
            }
        }
    }

    #[test]
    fn counter_set_export_uses_canonical_names() {
        let rc = ResilienceCounters {
            retries: 3,
            fallbacks: 1,
            bitflips_injected: 7,
            ..ResilienceCounters::default()
        };
        let set = rc.to_counter_set();
        assert_eq!(set.get(trace::names::RESILIENCE_RETRY), 3);
        assert_eq!(set.get(trace::names::RESILIENCE_FALLBACK), 1);
        assert_eq!(set.get(trace::names::RESILIENCE_BITFLIP), 7);
        // Zero counters are omitted.
        assert_eq!(set.iter().count(), 3);
        let mut merged = ResilienceCounters::default();
        merged.merge(&rc);
        merged.merge(&rc);
        assert_eq!(merged.retries, 6);
    }
}
