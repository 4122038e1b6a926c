//! Host↔device transfer model — the paper's "Data Copy" row.
//!
//! Table I shows that offloading k-selection to the CPU requires copying
//! the distance matrix (and index array) from GPU memory to host memory,
//! and that this copy alone dwarfs the benefit of the faster CPU
//! selection. We model the copy as bytes over effective PCIe bandwidth.

use kselect::KnnError;
use simt::GpuSpec;

/// Bytes that must cross PCIe to run k-selection on the host: the
/// distance values and the index array for `q` queries × `n` references
/// (both f32/u32-sized, matching the paper's setup).
pub fn kselection_offload_bytes(q: usize, n: usize) -> u64 {
    (q as u64) * (n as u64) * 4 * 2
}

/// Seconds to move `bytes` device→host.
pub fn transfer_time(spec: &GpuSpec, bytes: u64) -> f64 {
    bytes as f64 / (spec.pcie_gbps * 1e9)
}

/// The paper's "Data Copy" row for a given workload.
pub fn data_copy_time(spec: &GpuSpec, q: usize, n: usize) -> f64 {
    transfer_time(spec, kselection_offload_bytes(q, n))
}

/// A stalled PCIe transfer still completes, just slower — the link
/// retrains and replays at a fraction of its rated bandwidth.
const STALL_FACTOR: f64 = 4.0;

/// Outcome of a (possibly faulted, possibly retried) PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PcieReport {
    /// Transfer attempts made (1 when nothing went wrong).
    pub attempts: u32,
    /// Attempts that hit a simulated link stall.
    pub stalls: u64,
    /// Attempts whose payload arrived corrupted (checksum reject → retry).
    pub corruptions: u64,
    /// Total simulated seconds on the link, including failed attempts.
    pub seconds: f64,
}

/// Move `bytes` across PCIe, under a fault plan if one is given (with
/// none, one clean attempt). Each attempt draws
/// deterministic stall/corruption events from
/// [`simt::FaultPlan::pcie_events`] keyed on `(transfer_idx, attempt)`:
/// a stall multiplies that attempt's time by [`STALL_FACTOR`]; a
/// corruption spends the time but forces a retry (the model assumes an
/// end-to-end checksum, so corrupt payloads are *detected*, never
/// delivered). All `max_attempts` corrupt →
/// [`KnnError::TransferFailed`].
///
/// PCIe faults live entirely in this host-side model, so they work
/// without the `fault` feature (which only gates kernel hooks).
pub fn transfer_with_faults(
    spec: &GpuSpec,
    bytes: u64,
    plan: Option<&simt::FaultPlan>,
    transfer_idx: u64,
    max_attempts: u32,
) -> Result<PcieReport, KnnError> {
    let clean = transfer_time(spec, bytes);
    let mut report = PcieReport::default();
    for attempt in 1..=max_attempts.max(1) {
        report.attempts = attempt;
        let (stalled, corrupted) =
            plan.map_or((false, false), |p| p.pcie_events(transfer_idx, attempt));
        report.seconds += if stalled {
            report.stalls += 1;
            clean * STALL_FACTOR
        } else {
            clean
        };
        if corrupted {
            report.corruptions += 1;
        } else {
            return Ok(report);
        }
    }
    Err(KnnError::TransferFailed {
        attempts: report.attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_data_copy_row() {
        let spec = GpuSpec::tesla_c2075();
        // Paper: 0.46 s at N = 2^15, Q = 2^13; doubles with N.
        let t15 = data_copy_time(&spec, 1 << 13, 1 << 15);
        assert!((0.35..0.6).contains(&t15), "t15 = {t15}");
        let t16 = data_copy_time(&spec, 1 << 13, 1 << 16);
        assert!((1.9..2.1).contains(&(t16 / t15)));
        // and is independent of k by construction
    }

    #[test]
    fn bytes_accounting() {
        assert_eq!(kselection_offload_bytes(2, 3), 48);
    }

    #[test]
    fn clean_plan_is_one_clean_attempt() {
        let spec = GpuSpec::tesla_c2075();
        let plan = simt::FaultPlan::seeded(1); // all rates zero
        let r = transfer_with_faults(&spec, 1 << 20, Some(&plan), 0, 3).unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(r.stalls, 0);
        assert_eq!(r.corruptions, 0);
        assert_eq!(r.seconds, transfer_time(&spec, 1 << 20));
        assert_eq!(transfer_with_faults(&spec, 1 << 20, None, 0, 3), Ok(r));
    }

    #[test]
    fn stalls_cost_time_but_deliver() {
        let spec = GpuSpec::tesla_c2075();
        let plan = simt::FaultPlan::seeded(2).with_pcie(1.0, 0.0);
        let r = transfer_with_faults(&spec, 1 << 20, Some(&plan), 0, 3).unwrap();
        assert_eq!(r.attempts, 1, "stall alone never forces a retry");
        assert_eq!(r.stalls, 1);
        assert_eq!(r.seconds, transfer_time(&spec, 1 << 20) * STALL_FACTOR);
    }

    #[test]
    fn persistent_corruption_is_a_named_error() {
        let spec = GpuSpec::tesla_c2075();
        let plan = simt::FaultPlan::seeded(3).with_pcie(0.0, 1.0);
        let err = transfer_with_faults(&spec, 1 << 20, Some(&plan), 0, 4).unwrap_err();
        assert_eq!(err, KnnError::TransferFailed { attempts: 4 });
        assert_eq!(err.name(), "transfer-failed");
    }

    #[test]
    fn faulted_transfers_replay_deterministically() {
        let spec = GpuSpec::tesla_c2075();
        let plan = simt::FaultPlan::seeded(4).with_pcie(0.4, 0.4);
        for idx in 0..8 {
            let a = transfer_with_faults(&spec, 4096, Some(&plan), idx, 5);
            let b = transfer_with_faults(&spec, 4096, Some(&plan), idx, 5);
            assert_eq!(a, b);
        }
    }
}
