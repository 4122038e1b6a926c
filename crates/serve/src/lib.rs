//! Overload-resilient serving layer over the gpu-kselect pipelines.
//!
//! A k-NN service that is merely *fast* still falls over when offered
//! load exceeds capacity: queues grow without bound, every request
//! times out, and throughput collapses. This crate adds the classic
//! overload defenses on top of the repository's deterministic
//! pipelines, all advancing on the simulated clock so every overload
//! scenario replays byte-identically:
//!
//! * **Admission control** ([`queue`]) — a bounded queue with
//!   `reject` / `drop-newest` / `drop-oldest` overflow policies and a
//!   typed [`kselect::KnnError::Overloaded`] rejection.
//! * **Deadlines** ([`engine`]) — per-request budgets propagate into
//!   the pipelines as cooperative cancellation (warp-launch gating in
//!   the simulated path, tile-boundary budgets in the streamed path);
//!   a late request stops consuming work instead of finishing late.
//! * **Brownout ladder** ([`breaker`]) — under sustained saturation
//!   the service degrades in named steps (`full-exact` →
//!   `large-tile` → `sampled` → `shed`) and recovers hysteretically.
//! * **Seeded load generation** ([`arrivals`]) — open-loop Poisson
//!   arrivals on the simulated clock, so a 2× overload campaign is a
//!   deterministic, replayable artifact rather than a flaky stress
//!   test.
//!
//! Per-request outcomes (`served-exact`, `served-degraded-*`, `shed`,
//! `deadline-exceeded`, `failed`) flow into the existing
//! [`trace::MetricsRegistry`] and [`trace::EventJournal`], so the
//! `knn-cli report` / `xtask slogate` tooling works on serving
//! journals unchanged.
//!
//! Everything here is simulated-time only: no wall clocks, no
//! threads racing the scheduler. The `xtask lint` wall-clock rule is
//! enforced over this crate's sources to keep it that way.

pub mod arrivals;
pub mod breaker;
pub mod engine;
pub mod queue;

pub use arrivals::{arrival_times, ArrivalProcess};
pub use breaker::{Breaker, BreakerConfig, DegradeStep};
pub use engine::{run, DeadlinePhase, Outcome, Request, ServeConfig, ServeSummary, ShedCause};
pub use queue::{AdmissionQueue, Admit, QueuePolicy};
