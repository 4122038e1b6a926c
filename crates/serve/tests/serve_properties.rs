//! Property tests for the serving layer's core promises.
//!
//! Whatever the load, queue policy, deadline pressure, or chaos plan:
//!
//! * **Conservation** — every offered request terminates in exactly
//!   one named outcome, and the outcome counts sum back to the
//!   offered load (no lost requests, no double counting).
//! * **Journal completeness** — the journal holds exactly one record
//!   per offered request, every status drawn from the stable outcome
//!   taxonomy.
//! * **Determinism** — replaying the same config reproduces the
//!   journal byte-identically.

use proptest::prelude::*;
use serve::{ArrivalProcess, QueuePolicy, ServeConfig, ServeSummary};
use trace::{EventJournal, JournalConfig, MetricsRegistry};

const OUTCOMES: [&str; 6] = [
    "served-exact",
    "served-degraded-large-tile",
    "served-degraded-sampled",
    "shed",
    "deadline-exceeded",
    "failed",
];

/// Small-but-adversarial configs: loads from comfortable to 4×
/// saturation, tight to generous deadlines, tiny queues, every
/// overflow policy, and an optional PCIe chaos plan.
fn configs() -> impl Strategy<Value = ServeConfig> {
    (
        (1u64..1024, 0u8..3, 1usize..6),
        (
            1u8..8,  // load in units of 0.5×
            1u8..24, // deadline factor in units of 0.5×
            1usize..6,
            0u8..2, // chaos on/off
        ),
    )
        .prop_map(
            |((seed, policy, capacity), (load_halves, dl_halves, stride, chaos))| ServeConfig {
                n: 128,
                dim: 4,
                k: 8,
                queries_per_request: 32,
                seed,
                duration_s: 0.0,
                process: ArrivalProcess::Poisson,
                rate_hz: None,
                load: f64::from(load_halves) * 0.5,
                deadline_s: None,
                deadline_factor: f64::from(dl_halves) * 0.5,
                capacity,
                policy: match policy {
                    0 => QueuePolicy::Reject,
                    1 => QueuePolicy::DropNewest,
                    _ => QueuePolicy::DropOldest,
                },
                large_tile: 64,
                sample_stride: stride,
                faults: if chaos == 1 {
                    Some(simt::FaultPlan::seeded(seed).with_pcie(0.1, 0.05))
                } else {
                    None
                },
                ..ServeConfig::default()
            },
        )
}

fn run_with_journal(cfg: &ServeConfig) -> (ServeSummary, Vec<trace::QueryRecord>, String) {
    let reg = MetricsRegistry::new();
    let journal = EventJournal::new(JournalConfig::default());
    let summary = serve::run(cfg, &reg, &journal, None).expect("serve::run");
    let jsonl = journal.to_jsonl();
    (summary, journal.snapshot(), jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_offered_request_reaches_exactly_one_outcome(cfg in configs()) {
        let (summary, records, _) = run_with_journal(&cfg);
        prop_assert!(summary.offered > 0, "campaign generated no arrivals");
        // Outcome counts conserve the offered load.
        prop_assert_eq!(
            summary.accounted(),
            summary.offered,
            "outcomes {:?} must sum to offered load",
            summary
        );
        prop_assert!(summary.verify().is_ok());
        // The journal holds exactly one record per request, ids dense.
        prop_assert_eq!(records.len() as u64, summary.offered);
        let mut ids: Vec<u64> = records.iter().map(|r| r.query).collect();
        ids.sort_unstable();
        for (expect, got) in ids.iter().enumerate() {
            prop_assert_eq!(*got, expect as u64, "request ids must be dense, no loss");
        }
        // Every status is a named member of the outcome taxonomy, and
        // the per-status journal counts agree with the summary.
        for r in &records {
            prop_assert!(
                OUTCOMES.contains(&r.status.as_str()),
                "unknown outcome status {:?}",
                &r.status
            );
        }
        let count = |s: &str| records.iter().filter(|r| r.status == s).count() as u64;
        prop_assert_eq!(count("served-exact"), summary.served_exact);
        prop_assert_eq!(
            count("served-degraded-large-tile"),
            summary.served_degraded_large_tile
        );
        prop_assert_eq!(count("served-degraded-sampled"), summary.served_degraded_sampled);
        prop_assert_eq!(count("shed"), summary.shed);
        prop_assert_eq!(count("deadline-exceeded"), summary.deadline_exceeded);
        prop_assert_eq!(count("failed"), summary.failed);
    }

    #[test]
    fn same_seed_reproduces_the_journal_byte_identically(cfg in configs()) {
        let (sum_a, _, jsonl_a) = run_with_journal(&cfg);
        let (sum_b, _, jsonl_b) = run_with_journal(&cfg);
        prop_assert_eq!(sum_a.offered, sum_b.offered);
        prop_assert_eq!(jsonl_a, jsonl_b, "same config must replay byte for byte");
    }
}
