//! The typed error surface of the k-NN pipeline.
//!
//! Untrusted-input and fault-recovery paths return [`KnnError`] instead
//! of panicking; each variant has a stable kebab-case [`KnnError::name`]
//! that the CLI prints and tests match on. Kernel-internal bugs (an
//! out-of-bounds simulated access, a broken queue invariant in a clean
//! run) still panic — those are programming errors, not inputs.

/// Why a k-NN request (or one of its queries) could not be served.
///
/// Marked `#[non_exhaustive]`: the serving layer keeps growing this
/// surface (admission control added [`KnnError::Overloaded`] and
/// [`KnnError::DeadlineExceeded`]), and downstream crates must be able
/// to `?`-propagate without a new variant being a breaking change.
/// Match with a `_` arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum KnnError {
    /// `k` is zero or exceeds the number of reference points.
    InvalidK { k: usize, n: usize },
    /// Points with zero dimensions carry no information to search.
    ZeroDim,
    /// An input coordinate was NaN or infinite. `kind` says which side
    /// (`"query"` / `"reference"`), `index` which point.
    NonFiniteInput { kind: &'static str, index: usize },
    /// The Merge Queue needs `k = m·2^j`; this `(k, m)` pair is not.
    MergeShape { k: usize, m: usize },
    /// The configured candidate buffer exceeds the device's shared
    /// memory.
    BufferTooLarge { bytes: u64, limit: u64 },
    /// No queries / no reference points were supplied.
    EmptyInput { what: &'static str },
    /// A fault campaign was requested but the binary was built without
    /// the `fault` feature, so the injection hooks do not exist.
    FaultsNotCompiled,
    /// A PCIe transfer kept failing its integrity check after every
    /// allowed retry.
    TransferFailed { attempts: u32 },
    /// The serving layer refused admission: the bounded queue already
    /// holds `depth` requests against a capacity of `capacity` (or the
    /// circuit breaker is open, in which case `depth == capacity`).
    Overloaded { depth: usize, capacity: usize },
    /// The request's deadline expired before service completed; the
    /// remaining work was cancelled cooperatively. `budget_ns` is the
    /// deadline budget the request arrived with, in simulated
    /// nanoseconds.
    DeadlineExceeded { budget_ns: u64 },
    /// A request asks for more of something than a configured limit
    /// allows (`what` names it, e.g. the expected arrivals of a serve
    /// schedule); `value` saturates at `u64::MAX`.
    LimitExceeded {
        what: &'static str,
        value: u64,
        limit: u64,
    },
    /// A selection parameter is below the smallest value its structure
    /// works with (a hierarchical-partition group of 1, a zero-size
    /// buffer).
    InvalidParam {
        what: &'static str,
        value: usize,
        min: usize,
    },
    /// The queries and the references have different dimensions.
    DimMismatch { queries: usize, refs: usize },
    /// A streamed search was stopped at a tile boundary by its cancel
    /// token after `tiles_done` of its `tiles_total` tiles. No partial
    /// result is returned: a top-k over a prefix of the references is
    /// not the exact answer.
    Cancelled {
        tiles_done: usize,
        tiles_total: usize,
    },
}

impl KnnError {
    /// Stable kebab-case error name for CLI output and counters.
    pub fn name(&self) -> &'static str {
        match self {
            KnnError::InvalidK { .. } => "invalid-k",
            KnnError::ZeroDim => "zero-dim",
            KnnError::NonFiniteInput { .. } => "non-finite-input",
            KnnError::MergeShape { .. } => "merge-shape",
            KnnError::BufferTooLarge { .. } => "buffer-too-large",
            KnnError::EmptyInput { .. } => "empty-input",
            KnnError::FaultsNotCompiled => "faults-not-compiled",
            KnnError::TransferFailed { .. } => "transfer-failed",
            KnnError::Overloaded { .. } => "overloaded",
            KnnError::DeadlineExceeded { .. } => "deadline-exceeded",
            KnnError::LimitExceeded { .. } => "limit-exceeded",
            KnnError::InvalidParam { .. } => "invalid-param",
            KnnError::DimMismatch { .. } => "dim-mismatch",
            KnnError::Cancelled { .. } => "cancelled",
        }
    }
}

impl core::fmt::Display for KnnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KnnError::InvalidK { k, n } => {
                write!(
                    f,
                    "k = {k} is invalid for {n} reference points (need 1 <= k <= n)"
                )
            }
            KnnError::ZeroDim => f.write_str("points must have at least one dimension"),
            KnnError::NonFiniteInput { kind, index } => {
                write!(f, "{kind} point {index} contains a non-finite coordinate")
            }
            KnnError::MergeShape { k, m } => {
                write!(
                    f,
                    "merge queue requires k = m·2^j, got k = {k} with m = {m}"
                )
            }
            KnnError::BufferTooLarge { bytes, limit } => {
                write!(
                    f,
                    "candidate buffer needs {bytes} B of shared memory but the device has {limit} B"
                )
            }
            KnnError::EmptyInput { what } => write!(f, "no {what} supplied"),
            KnnError::FaultsNotCompiled => f.write_str(
                "fault injection requested but this binary was built without the `fault` feature",
            ),
            KnnError::TransferFailed { attempts } => {
                write!(
                    f,
                    "PCIe transfer failed integrity check after {attempts} attempts"
                )
            }
            KnnError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "admission refused: queue holds {depth} of {capacity} requests"
                )
            }
            KnnError::DeadlineExceeded { budget_ns } => {
                write!(
                    f,
                    "deadline of {budget_ns} ns expired before service completed"
                )
            }
            KnnError::LimitExceeded { what, value, limit } => {
                write!(f, "{what} = {value} exceeds the limit of {limit}")
            }
            KnnError::InvalidParam { what, value, min } => {
                write!(f, "{what} = {value} is invalid (need at least {min})")
            }
            KnnError::DimMismatch { queries, refs } => {
                write!(
                    f,
                    "queries have {queries} dimensions but references have {refs}"
                )
            }
            KnnError::Cancelled {
                tiles_done,
                tiles_total,
            } => write!(f, "cancelled after {tiles_done} of {tiles_total} tiles"),
        }
    }
}

impl std::error::Error for KnnError {}

impl From<simt::ResilienceError> for KnnError {
    fn from(e: simt::ResilienceError) -> Self {
        match e {
            simt::ResilienceError::FaultsNotCompiled => KnnError::FaultsNotCompiled,
            // A zero-attempt policy is a configuration bug surfaced as an
            // invalid input rather than a panic.
            simt::ResilienceError::ZeroAttempts => KnnError::InvalidK { k: 0, n: 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_messages_are_stable() {
        let cases: Vec<(KnnError, &str, &str)> = vec![
            (KnnError::InvalidK { k: 0, n: 10 }, "invalid-k", "k = 0"),
            (KnnError::ZeroDim, "zero-dim", "dimension"),
            (
                KnnError::NonFiniteInput {
                    kind: "query",
                    index: 3,
                },
                "non-finite-input",
                "query point 3",
            ),
            (KnnError::MergeShape { k: 24, m: 8 }, "merge-shape", "m·2^j"),
            (
                KnnError::BufferTooLarge {
                    bytes: 1 << 20,
                    limit: 49152,
                },
                "buffer-too-large",
                "49152",
            ),
            (
                KnnError::EmptyInput { what: "queries" },
                "empty-input",
                "queries",
            ),
            (KnnError::FaultsNotCompiled, "faults-not-compiled", "fault"),
            (
                KnnError::TransferFailed { attempts: 4 },
                "transfer-failed",
                "4 attempts",
            ),
            (
                KnnError::Overloaded {
                    depth: 8,
                    capacity: 8,
                },
                "overloaded",
                "8 of 8",
            ),
            (
                KnnError::DeadlineExceeded { budget_ns: 5_000 },
                "deadline-exceeded",
                "5000 ns",
            ),
            (
                KnnError::LimitExceeded {
                    what: "expected arrivals",
                    value: 1 << 21,
                    limit: 1 << 20,
                },
                "limit-exceeded",
                "expected arrivals = 2097152 exceeds the limit of 1048576",
            ),
            (
                KnnError::InvalidParam {
                    what: "buffer size",
                    value: 0,
                    min: 1,
                },
                "invalid-param",
                "buffer size = 0",
            ),
            (
                KnnError::DimMismatch {
                    queries: 4,
                    refs: 8,
                },
                "dim-mismatch",
                "4 dimensions but references have 8",
            ),
            (
                KnnError::Cancelled {
                    tiles_done: 3,
                    tiles_total: 7,
                },
                "cancelled",
                "3 of 7 tiles",
            ),
        ];
        for (err, name, fragment) in cases {
            assert_eq!(err.name(), name);
            let msg = err.to_string();
            assert!(msg.contains(fragment), "{name}: {msg}");
        }
    }

    #[test]
    fn propagates_as_std_error() {
        // Downstream crates `?`-propagate into `Box<dyn Error>`.
        fn fallible() -> Result<(), Box<dyn std::error::Error>> {
            Err(KnnError::Overloaded {
                depth: 1,
                capacity: 1,
            })?
        }
        let e = fallible().unwrap_err();
        assert!(e.to_string().contains("admission refused"));
    }

    #[test]
    fn resilience_error_converts() {
        assert_eq!(
            KnnError::from(simt::ResilienceError::FaultsNotCompiled),
            KnnError::FaultsNotCompiled
        );
    }
}
