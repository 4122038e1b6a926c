//! Cross-crate resilience properties of the end-to-end pipeline.
//!
//! The central contract, checked here property-style over arbitrary
//! seeded fault campaigns: `gpu_knn` either delivers exactly the
//! fault-free top-k for a query or reports an explicit, named
//! per-query (or whole-request) error — **never** a silently corrupted
//! result. And the whole thing is deterministic: the same fault seed
//! replays to a byte-identical report.
//!
//! Runs in every build: kernel-fault campaigns are exercised when the
//! `fault` feature is on and must be *rejected by name* when it is off;
//! PCIe-fault campaigns work either way.

use gpu_kselect::knn::{block, gpu_knn, GpuHooks, GpuKnnResult, GpuPlan, PointSet};
use gpu_kselect::kselect::gpu::{
    gpu_select_k, DistanceMatrix, GpuResilience, GpuSelectResult, QueryStatus,
};
use gpu_kselect::kselect::KnnError;
use gpu_kselect::prelude::*;
use proptest::prelude::*;
use simt::FaultPlan;

fn queue_of(tag: u8) -> QueueKind {
    match tag % 3 {
        0 => QueueKind::Merge,
        1 => QueueKind::Heap,
        _ => QueueKind::Insertion,
    }
}

/// `gpu_knn` of `queries` × `refs` under `cfg` and `res`, no hooks.
fn resilient(
    queries: &PointSet,
    refs: &PointSet,
    cfg: SelectConfig,
    res: GpuResilience,
) -> Result<GpuKnnResult, KnnError> {
    let tm = TimingModel::tesla_c2075();
    let plan = GpuPlan::new(cfg).with_resilience(res);
    gpu_knn(&tm, queries, refs, &plan, GpuHooks::NONE)
}

/// The fault-free oracle, independent of the pipeline under test: the
/// plain kernel launch on the natively computed matrix.
fn fault_free(queries: &PointSet, refs: &PointSet, cfg: &SelectConfig) -> GpuSelectResult {
    let fm = block::squared_distances(queries, refs);
    let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());
    gpu_select_k(&TimingModel::tesla_c2075().spec, &dm, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded campaign: every delivered result equals the fault-free
    /// oracle; everything else is an explicit error.
    #[test]
    fn no_silent_corruption_under_any_campaign(
        seed in any::<u64>(),
        aborts in 0u32..600,
        hangs in 0u32..400,
        bitflips in 0u32..80,
        pcie_stall in 0u32..500,
        pcie_corrupt in 0u32..400,
        attempts in 2u32..7,
        fallback in any::<bool>(),
        queue_tag in 0u8..3,
        n in 64usize..256,
        q in 8usize..33,
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_aborts(f64::from(aborts) / 1000.0)
            .with_hangs(f64::from(hangs) / 1000.0)
            .with_bitflips(f64::from(bitflips) / 80_000.0)
            .with_pcie(f64::from(pcie_stall) / 1000.0, f64::from(pcie_corrupt) / 1000.0);
        let queue = queue_of(queue_tag);
        let cfg = SelectConfig::optimized(queue, 8);
        let queries = PointSet::uniform(q, 8, seed ^ 1);
        let refs = PointSet::uniform(n, 8, seed ^ 2);
        let res = GpuResilience { max_attempts: attempts, fallback, ..GpuResilience::default() }
            .with_faults(plan);

        match resilient(&queries, &refs, cfg, res) {
            Err(KnnError::FaultsNotCompiled) => {
                // Only acceptable when the plan needs kernel hooks the
                // build lacks — never a silent no-op.
                prop_assert!(plan.wants_kernel_faults() && !simt::fault::compiled());
            }
            Err(KnnError::TransferFailed { attempts: a }) => {
                // Persistent PCIe corruption exhausted its retries: a
                // named whole-request error, and only reachable when
                // corruption was actually in the campaign.
                prop_assert!(pcie_corrupt > 0);
                prop_assert_eq!(a, attempts);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
            Ok(out) => {
                let oracle = fault_free(&queries, &refs, &cfg);
                prop_assert_eq!(out.neighbors.len(), q);
                for (qi, got) in out.neighbors.iter().enumerate() {
                    match got {
                        Some(neigh) => prop_assert_eq!(
                            neigh,
                            &oracle.neighbors[qi],
                            "query {} delivered a result differing from the fault-free oracle",
                            qi
                        ),
                        None => {
                            prop_assert!(!fallback, "fallback must never leave a hole");
                            match &out.report.statuses[qi] {
                                QueryStatus::Failed { reason, after_attempts } => {
                                    prop_assert!(!reason.is_empty());
                                    prop_assert_eq!(*after_attempts, attempts);
                                }
                                other => prop_assert!(false, "hole with status {:?}", other),
                            }
                        }
                    }
                }
            }
        }
    }

    /// The same seed replays to a byte-identical report and identical
    /// results — fault draws depend only on (seed, warp, attempt), never
    /// on host scheduling.
    #[test]
    fn same_fault_seed_is_byte_identical(
        seed in any::<u64>(),
        queue_tag in 0u8..3,
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_aborts(0.3)
            .with_hangs(0.1)
            .with_bitflips(2e-4)
            .with_pcie(0.2, 0.1);
        if plan.wants_kernel_faults() && !simt::fault::compiled() {
            // Covered by the rejection arm of the property above.
            return Ok(());
        }
        let cfg = SelectConfig::optimized(queue_of(queue_tag), 16);
        let queries = PointSet::uniform(40, 8, seed ^ 3);
        let refs = PointSet::uniform(200, 8, seed ^ 4);
        let res = GpuResilience { max_attempts: 5, ..GpuResilience::default() }
            .with_faults(plan);
        let run = || resilient(&queries, &refs, cfg, res);
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
                prop_assert_eq!(a.neighbors, b.neighbors);
                prop_assert_eq!(a.upload, b.upload);
                prop_assert_eq!(a.select_metrics, b.select_metrics);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "non-deterministic outcome: {:?} vs {:?}",
                                   a.is_ok(), b.is_ok()),
        }
    }
}

/// PCIe-only campaigns (no kernel hooks needed) must behave identically
/// in default and `fault` builds — this test runs in both and pins the
/// exact counter values for one seed.
#[test]
fn pcie_only_campaign_is_build_independent() {
    let plan = FaultPlan::seeded(12345).with_pcie(0.6, 0.3);
    let queries = PointSet::uniform(16, 8, 1);
    let refs = PointSet::uniform(128, 8, 2);
    let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
    let res = GpuResilience::default().with_faults(plan);
    let out = resilient(&queries, &refs, cfg, res).unwrap();
    assert!(out.report.statuses.iter().all(|s| *s == QueryStatus::Ok));
    // Deterministic: these totals are a regression pin, not a sample.
    let c = &out.report.counters;
    assert_eq!(
        (c.pcie_stalls + c.pcie_corruptions > 0),
        out.upload.attempts > 1 || out.upload.stalls > 0,
        "upload report and counters must agree: {c:?} vs {:?}",
        out.upload
    );
    let again = resilient(&queries, &refs, cfg, res).unwrap();
    assert_eq!(format!("{:?}", again.report), format!("{:?}", out.report));
}
