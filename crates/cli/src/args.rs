//! Hand-rolled argument parsing (no CLI-framework dependency).

use std::collections::HashMap;
use std::path::PathBuf;

use knn::Metric;
use kselect::QueueKind;
use serve::{ArrivalProcess, QueuePolicy};

/// Per-query journal options shared by the instrumented subcommands
/// (`--journal-out FILE [--journal-sample P] [--journal-exemplars E]`).
/// `out: None` means journaling is off and the run takes the
/// `NullJournal` (zero-cost) path.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalArgs {
    /// JSONL destination; `None` disables the journal entirely.
    pub out: Option<PathBuf>,
    /// Head-sampling probability in `[0, 1]` (default 1.0: keep all).
    pub sample: f64,
    /// Slowest-query exemplars always kept (default 16).
    pub exemplars: usize,
}

impl Default for JournalArgs {
    fn default() -> Self {
        JournalArgs {
            out: None,
            sample: 1.0,
            exemplars: 16,
        }
    }
}

/// Fault rates parsed from `serve --fault-plan`
/// (`aborts=R,hangs=R,bitflips=R,pcie-stall=R,pcie-corrupt=R`; any
/// subset of keys, the rest default to zero).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlanArgs {
    pub aborts: f64,
    pub hangs: f64,
    pub bitflips: f64,
    pub pcie_stall: f64,
    pub pcie_corrupt: f64,
}

/// Parse a `--fault-plan` spec: comma-separated `key=rate` pairs.
pub fn parse_fault_plan(spec: &str) -> Result<FaultPlanArgs, String> {
    let mut plan = FaultPlanArgs::default();
    for pair in spec.split(',').filter(|p| !p.is_empty()) {
        let Some((key, val)) = pair.split_once('=') else {
            return Err(format!("--fault-plan entry `{pair}` is not key=rate"));
        };
        let rate: f64 = val
            .parse()
            .map_err(|_| format!("--fault-plan {key} rate `{val}` is not a number"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "--fault-plan {key} rate must be in [0, 1], got {rate}"
            ));
        }
        match key {
            "aborts" => plan.aborts = rate,
            "hangs" => plan.hangs = rate,
            "bitflips" => plan.bitflips = rate,
            "pcie-stall" => plan.pcie_stall = rate,
            "pcie-corrupt" => plan.pcie_corrupt = rate,
            other => return Err(format!("--fault-plan has no key `{other}`")),
        }
    }
    Ok(plan)
}

/// Parsed `knn-cli` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `generate --count N --dim D [--seed S] --out FILE`
    Generate {
        count: usize,
        dim: usize,
        seed: u64,
        out: PathBuf,
    },
    /// `search --refs FILE --queries FILE --dim D --k K [--metric M]
    /// [--queue Q] [--threads T] [--json] [--metrics-out FILE]`
    Search {
        refs: PathBuf,
        queries: PathBuf,
        dim: usize,
        k: usize,
        metric: Metric,
        queue: QueueKind,
        threads: usize,
        json: bool,
        metrics_out: Option<PathBuf>,
        timeline_out: Option<PathBuf>,
        journal: JournalArgs,
    },
    /// `bench --n N --k K [--queue Q] [--threads T] [--metrics-out FILE]`
    /// — native selection benchmark.
    Bench {
        n: usize,
        k: usize,
        queue: QueueKind,
        threads: usize,
        metrics_out: Option<PathBuf>,
        timeline_out: Option<PathBuf>,
        journal: JournalArgs,
    },
    /// `stats --n N [--dim D] [--k K] [--queries Q] [--threads T]
    /// [--metrics-out FILE]` — native runtime-metrics sweep: the streamed
    /// pipeline across tile sizes × queue kinds, reported as latency
    /// histograms.
    Stats {
        n: usize,
        dim: usize,
        k: usize,
        queries: usize,
        threads: usize,
        metrics_out: Option<PathBuf>,
        timeline_out: Option<PathBuf>,
        journal: JournalArgs,
    },
    /// `simulate --n N --k K [--queue Q]` — simulated-GPU run with a
    /// profiler report.
    Simulate {
        n: usize,
        k: usize,
        queue: QueueKind,
    },
    /// `profile --n N --k K [--queries Q] [--queue Q] [--trace-out FILE]
    /// [--jsonl-out FILE]` — run the traced pipeline and print a
    /// simulated-time profile; optionally export a Chrome trace / JSONL.
    Profile {
        n: usize,
        k: usize,
        queries: usize,
        queue: QueueKind,
        trace_out: Option<PathBuf>,
        jsonl_out: Option<PathBuf>,
    },
    /// `faults --n N --k K [--queries Q] [--queue Q] [--seeds S]
    /// [--seed BASE] [--aborts R] [--hangs R] [--bitflips R]
    /// [--pcie-stall R] [--pcie-corrupt R] [--attempts A]` — run seeded
    /// fault campaigns through the resilient pipeline and check every
    /// delivered result against the fault-free oracle.
    Faults {
        n: usize,
        k: usize,
        queries: usize,
        queue: QueueKind,
        seeds: u64,
        seed: u64,
        aborts: f64,
        hangs: f64,
        bitflips: f64,
        pcie_stall: f64,
        pcie_corrupt: f64,
        attempts: u32,
        journal: JournalArgs,
    },
    /// `serve [--arrivals poisson|uniform] [--seed S] [--duration-sim T]
    /// [--rate R | --load L] [--deadline D | --deadline-factor F]
    /// [--capacity C] [--policy reject|drop-newest|drop-oldest]
    /// [--n N] [--dim D] [--k K] [--queries Q] [--tile T] [--stride S]
    /// [--fault-plan SPEC] [--json] [--metrics-out FILE]
    /// [--journal-out FILE ...]` — deterministic overload campaign
    /// through the serving layer on the simulated clock.
    Serve {
        n: usize,
        dim: usize,
        k: usize,
        queries: usize,
        seed: u64,
        duration: f64,
        arrivals: ArrivalProcess,
        rate: Option<f64>,
        load: f64,
        deadline: Option<f64>,
        deadline_factor: f64,
        capacity: usize,
        policy: QueuePolicy,
        tile: usize,
        stride: usize,
        threads: usize,
        fault_plan: Option<FaultPlanArgs>,
        json: bool,
        metrics_out: Option<PathBuf>,
        timeline_out: Option<PathBuf>,
        journal: JournalArgs,
    },
    /// `report [JOURNAL.jsonl] [--top N] [--timeline TIMELINE.json]` —
    /// per-phase tail attribution (p99 vs p50 cohorts), retry/fallback
    /// breakdown and a slowest-query drill-down over a journal written
    /// by `--journal-out`; `--timeline` additionally (or instead)
    /// prints a per-worker utilization table from a timeline JSON
    /// written by `--timeline-out`.
    Report {
        journal: Option<PathBuf>,
        top: usize,
        timeline: Option<PathBuf>,
    },
    /// `--help`
    Help,
}

/// Parse an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut bools: Vec<String> = Vec::new();
    let mut positionals: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            match name {
                "json" | "help" => bools.push(name.to_string()),
                _ => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
            }
        } else if cmd == "report" {
            positionals.push(a.clone());
        } else {
            return Err(format!("unexpected argument: {a}"));
        }
    }
    let get = |k: &str| -> Result<&String, String> {
        flags.get(k).ok_or_else(|| format!("missing --{k}"))
    };
    let get_usize = |k: &str| -> Result<usize, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be an integer"))
    };
    let queue = |flags: &HashMap<String, String>| -> Result<QueueKind, String> {
        match flags.get("queue").map(String::as_str).unwrap_or("merge") {
            "merge" => Ok(QueueKind::Merge),
            "heap" => Ok(QueueKind::Heap),
            "insertion" => Ok(QueueKind::Insertion),
            other => Err(format!("unknown queue kind: {other}")),
        }
    };
    // Worker threads of the native distance/select pipeline: 1 (default)
    // runs on the calling thread, 0 resolves to the machine's parallelism at
    // runtime (`RAYON_NUM_THREADS`, else available cores).
    let threads = |flags: &HashMap<String, String>| -> Result<usize, String> {
        flags
            .get("threads")
            .map(|s| {
                s.parse::<usize>()
                    .map_err(|_| "--threads must be an integer".to_string())
            })
            .transpose()
            .map(|v| v.unwrap_or(1))
    };
    let journal = |flags: &HashMap<String, String>| -> Result<JournalArgs, String> {
        let sample = flags
            .get("journal-sample")
            .map(|s| {
                s.parse::<f64>()
                    .map_err(|_| "--journal-sample must be a number".to_string())
                    .and_then(|p| {
                        if (0.0..=1.0).contains(&p) {
                            Ok(p)
                        } else {
                            Err(format!("--journal-sample must be in [0, 1], got {p}"))
                        }
                    })
            })
            .transpose()?
            .unwrap_or(1.0);
        let exemplars = flags
            .get("journal-exemplars")
            .map(|s| {
                s.parse::<usize>()
                    .map_err(|_| "--journal-exemplars must be an integer".to_string())
            })
            .transpose()?
            .unwrap_or(16);
        Ok(JournalArgs {
            out: flags.get("journal-out").map(PathBuf::from),
            sample,
            exemplars,
        })
    };
    match cmd.as_str() {
        "generate" => Ok(Command::Generate {
            count: get_usize("count")?,
            dim: get_usize("dim")?,
            seed: flags
                .get("seed")
                .map(|s| {
                    s.parse()
                        .map_err(|_| "--seed must be an integer".to_string())
                })
                .transpose()?
                .unwrap_or(0),
            out: PathBuf::from(get("out")?),
        }),
        "search" => Ok(Command::Search {
            refs: PathBuf::from(get("refs")?),
            queries: PathBuf::from(get("queries")?),
            dim: get_usize("dim")?,
            k: get_usize("k")?,
            metric: match flags
                .get("metric")
                .map(String::as_str)
                .unwrap_or("euclidean")
            {
                "euclidean" => Metric::SquaredEuclidean,
                "manhattan" => Metric::Manhattan,
                "cosine" => Metric::Cosine,
                "dot" => Metric::NegativeDot,
                other => return Err(format!("unknown metric: {other}")),
            },
            queue: queue(&flags)?,
            threads: threads(&flags)?,
            json: bools.contains(&"json".to_string()),
            metrics_out: flags.get("metrics-out").map(PathBuf::from),
            timeline_out: flags.get("timeline-out").map(PathBuf::from),
            journal: journal(&flags)?,
        }),
        "bench" => Ok(Command::Bench {
            n: get_usize("n")?,
            k: get_usize("k")?,
            queue: queue(&flags)?,
            threads: threads(&flags)?,
            metrics_out: flags.get("metrics-out").map(PathBuf::from),
            timeline_out: flags.get("timeline-out").map(PathBuf::from),
            journal: journal(&flags)?,
        }),
        "stats" => {
            let get_usize_or = |k: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(k)
                    .map(|s| s.parse().map_err(|_| format!("--{k} must be an integer")))
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            Ok(Command::Stats {
                n: get_usize("n")?,
                dim: get_usize_or("dim", 16)?,
                k: get_usize_or("k", 16)?,
                queries: get_usize_or("queries", 64)?,
                threads: threads(&flags)?,
                metrics_out: flags.get("metrics-out").map(PathBuf::from),
                timeline_out: flags.get("timeline-out").map(PathBuf::from),
                journal: journal(&flags)?,
            })
        }
        "simulate" => Ok(Command::Simulate {
            n: get_usize("n")?,
            k: get_usize("k")?,
            queue: queue(&flags)?,
        }),
        "profile" => Ok(Command::Profile {
            n: get_usize("n")?,
            k: get_usize("k")?,
            queries: flags
                .get("queries")
                .map(|s| {
                    s.parse()
                        .map_err(|_| "--queries must be an integer".to_string())
                })
                .transpose()?
                .unwrap_or(64),
            queue: queue(&flags)?,
            trace_out: flags.get("trace-out").map(PathBuf::from),
            jsonl_out: flags.get("jsonl-out").map(PathBuf::from),
        }),
        "faults" => {
            let get_or = |k: &str, default: f64| -> Result<f64, String> {
                flags
                    .get(k)
                    .map(|s| s.parse().map_err(|_| format!("--{k} must be a number")))
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            let get_u64_or = |k: &str, default: u64| -> Result<u64, String> {
                flags
                    .get(k)
                    .map(|s| s.parse().map_err(|_| format!("--{k} must be an integer")))
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            Ok(Command::Faults {
                n: get_usize("n")?,
                k: get_usize("k")?,
                queries: get_u64_or("queries", 64)? as usize,
                queue: queue(&flags)?,
                seeds: get_u64_or("seeds", 4)?,
                seed: get_u64_or("seed", 1)?,
                aborts: get_or("aborts", 0.2)?,
                hangs: get_or("hangs", 0.1)?,
                bitflips: get_or("bitflips", 1e-4)?,
                pcie_stall: get_or("pcie-stall", 0.1)?,
                pcie_corrupt: get_or("pcie-corrupt", 0.05)?,
                attempts: get_u64_or("attempts", 6)? as u32,
                journal: journal(&flags)?,
            })
        }
        "serve" => {
            let get_usize_or = |k: &str, default: usize| -> Result<usize, String> {
                flags
                    .get(k)
                    .map(|s| s.parse().map_err(|_| format!("--{k} must be an integer")))
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            let get_f64 = |k: &str| -> Result<Option<f64>, String> {
                flags
                    .get(k)
                    .map(|s| s.parse().map_err(|_| format!("--{k} must be a number")))
                    .transpose()
            };
            Ok(Command::Serve {
                n: get_usize_or("n", 2048)?,
                dim: get_usize_or("dim", 16)?,
                k: get_usize_or("k", 16)?,
                queries: get_usize_or("queries", 32)?,
                seed: flags
                    .get("seed")
                    .map(|s| {
                        s.parse()
                            .map_err(|_| "--seed must be an integer".to_string())
                    })
                    .transpose()?
                    .unwrap_or(1),
                duration: get_f64("duration-sim")?.unwrap_or(0.0),
                arrivals: match flags.get("arrivals").map(String::as_str) {
                    None => ArrivalProcess::Poisson,
                    Some(s) => ArrivalProcess::parse(s)
                        .ok_or_else(|| format!("unknown arrival process: {s}"))?,
                },
                rate: get_f64("rate")?,
                load: get_f64("load")?.unwrap_or(2.0),
                deadline: get_f64("deadline")?,
                deadline_factor: get_f64("deadline-factor")?.unwrap_or(8.0),
                capacity: get_usize_or("capacity", 8)?,
                policy: match flags.get("policy").map(String::as_str) {
                    None => QueuePolicy::Reject,
                    Some(s) => {
                        QueuePolicy::parse(s).ok_or_else(|| format!("unknown queue policy: {s}"))?
                    }
                },
                tile: get_usize_or("tile", 1024)?,
                stride: get_usize_or("stride", 4)?,
                threads: threads(&flags)?,
                fault_plan: flags
                    .get("fault-plan")
                    .map(|s| parse_fault_plan(s))
                    .transpose()?,
                json: bools.contains(&"json".to_string()),
                metrics_out: flags.get("metrics-out").map(PathBuf::from),
                timeline_out: flags.get("timeline-out").map(PathBuf::from),
                journal: journal(&flags)?,
            })
        }
        "report" => {
            let timeline = flags.get("timeline").map(PathBuf::from);
            if positionals.len() > 1 {
                return Err("report takes at most one JOURNAL.jsonl path".to_string());
            }
            if positionals.is_empty() && timeline.is_none() {
                return Err("report needs a JOURNAL.jsonl path or --timeline FILE".to_string());
            }
            Ok(Command::Report {
                journal: positionals.first().map(PathBuf::from),
                top: flags
                    .get("top")
                    .map(|s| {
                        s.parse()
                            .map_err(|_| "--top must be an integer".to_string())
                    })
                    .transpose()?
                    .unwrap_or(5),
                timeline,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command: {other}")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
knn-cli — k-NN search and k-selection benchmarking

USAGE:
  knn-cli generate --count N --dim D [--seed S] --out FILE
  knn-cli search   --refs FILE --queries FILE --dim D --k K
                   [--metric euclidean|manhattan|cosine|dot]
                   [--queue merge|heap|insertion] [--threads T] [--json]
                   [--metrics-out metrics.txt] [--timeline-out t.json]
                   [--journal-out j.jsonl] [--journal-sample P]
                   [--journal-exemplars E]
  knn-cli bench    --n N --k K [--queue merge|heap|insertion]
                   [--threads T] [--metrics-out metrics.txt]
                   [--timeline-out t.json] [--journal-out j.jsonl]
                   [--journal-sample P] [--journal-exemplars E]
  knn-cli stats    --n N [--dim D] [--k K] [--queries Q] [--threads T]
                   [--metrics-out metrics.txt] [--timeline-out t.json]
                   [--journal-out j.jsonl] [--journal-sample P]
                   [--journal-exemplars E]
  knn-cli simulate --n N --k K [--queue merge|heap|insertion]
  knn-cli profile  --n N --k K [--queries Q] [--queue merge|heap|insertion]
                   [--trace-out trace.json] [--jsonl-out trace.jsonl]
  knn-cli faults   --n N --k K [--queries Q] [--queue merge|heap|insertion]
                   [--seeds S] [--seed BASE] [--aborts R] [--hangs R]
                   [--bitflips R] [--pcie-stall R] [--pcie-corrupt R]
                   [--attempts A] [--journal-out j.jsonl]
                   [--journal-sample P] [--journal-exemplars E]
  knn-cli serve    [--arrivals poisson|uniform] [--seed S] [--duration-sim T]
                   [--rate R | --load L] [--deadline D | --deadline-factor F]
                   [--capacity C] [--policy reject|drop-newest|drop-oldest]
                   [--n N] [--dim D] [--k K] [--queries Q] [--tile T]
                   [--stride S] [--threads T] [--fault-plan k=R,...]
                   [--json] [--metrics-out metrics.txt]
                   [--timeline-out t.json] [--journal-out j.jsonl]
                   [--journal-sample P] [--journal-exemplars E]
  knn-cli report   [JOURNAL.jsonl] [--top N] [--timeline t.json]
  knn-cli help

`profile` runs the simulated pipeline with tracing on and prints a
profile over *simulated* time; --trace-out writes a Chrome-trace JSON
loadable in ui.perfetto.dev or chrome://tracing.

`stats` sweeps the *native* streamed pipeline over tile sizes × queue
kinds and prints wall-clock latency histograms (p50/p95/p99) plus the
stream-merge counters. --metrics-out (also on search/bench) writes the
collected metrics: OpenMetrics text exposition by default, or a JSON
snapshot when FILE ends in .json.

`faults` injects a deterministic fault campaign (kernel aborts, hangs,
DRAM bit flips, PCIe stalls/corruption) per seed and checks every
delivered result against the fault-free oracle. Kernel faults need a
binary built with `--features fault`; PCIe-only campaigns (--aborts 0
--hangs 0 --bitflips 0) work in any build. Exit codes: 0 clean, 1 on
error (e.g. faults-not-compiled), 2 on silent corruption.

`serve` drives a deterministic overload campaign through the serving
layer: open-loop seeded arrivals on the *simulated* clock, a bounded
admission queue, per-request deadlines with cooperative cancellation,
and a circuit breaker that degrades full-exact → large-tile → sampled
→ shed and recovers hysteretically. --load L offers L× the calibrated
single-server capacity (default 2.0: overloaded); --fault-plan adds a
chaos campaign (`aborts=0.01,pcie-corrupt=0.05`; kernel faults need a
`--features fault` build). Every request terminates in exactly one
journaled outcome; the run exits 2 if any request goes unaccounted.
--json prints a one-line machine-readable summary to stdout.

--threads T (on search/bench/stats/serve) sets the worker-thread count
of the native distance/select pipeline: 1 (default) runs on the calling
thread, 0 auto-detects (RAYON_NUM_THREADS, else available cores).
Results are identical at every thread count — every worker merges
tiles per query in ascending order. Instrumented commands report
the active SIMD kernel (`simd_dispatch`: avx2+fma or scalar8; override
with KNN_SIMD=scalar) alongside the thread count.

--journal-out (on search/bench/stats/faults/serve) records one structured
event per query — per-phase latency, merge counters, retry/fallback
outcome, owning worker — into a versioned JSONL journal. --journal-sample
keeps a deterministic fraction of queries; the top --journal-exemplars
slowest are always kept. `report` reads the journal back and prints
per-phase tail attribution (p99-cohort vs p50-cohort), a status breakdown
and the slowest queries; `cargo xtask slogate` evaluates SLOs against it.

--timeline-out (on search/bench/stats/serve) records per-worker execution
timelines: block claims, tile walks, idle gaps, queue waits and brownout
marks, folded into busy/idle accounting with a utilization and imbalance
score per worker. FILE ending in .trace.json writes Chrome-trace JSON
(load in ui.perfetto.dev, one track per worker); any other name writes
the versioned timeline report JSON. `report --timeline FILE` prints the
per-worker utilization table from a report JSON.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generate_parses() {
        let c = parse(&v(&[
            "generate", "--count", "10", "--dim", "4", "--out", "x.f32",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Generate {
                count: 10,
                dim: 4,
                seed: 0,
                out: PathBuf::from("x.f32")
            }
        );
    }

    #[test]
    fn search_defaults() {
        let c = parse(&v(&[
            "search",
            "--refs",
            "r",
            "--queries",
            "q",
            "--dim",
            "8",
            "--k",
            "5",
        ]))
        .unwrap();
        match c {
            Command::Search {
                metric,
                queue,
                json,
                k,
                ..
            } => {
                assert_eq!(metric, Metric::SquaredEuclidean);
                assert_eq!(queue, QueueKind::Merge);
                assert!(!json);
                assert_eq!(k, 5);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn search_with_options() {
        let c = parse(&v(&[
            "search",
            "--refs",
            "r",
            "--queries",
            "q",
            "--dim",
            "8",
            "--k",
            "5",
            "--metric",
            "cosine",
            "--queue",
            "heap",
            "--json",
        ]))
        .unwrap();
        match c {
            Command::Search {
                metric,
                queue,
                json,
                ..
            } => {
                assert_eq!(metric, Metric::Cosine);
                assert_eq!(queue, QueueKind::Heap);
                assert!(json);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&v(&["search", "--refs"])).is_err()); // missing value
        assert!(parse(&v(&["search", "--refs", "r"])).is_err()); // missing flags
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["bench", "--n", "ten", "--k", "4"])).is_err());
        assert!(parse(&v(&["bench", "--n", "10", "--k", "4", "--queue", "zap"])).is_err());
        assert!(parse(&v(&["bench", "stray", "--n", "10"])).is_err());
    }

    #[test]
    fn profile_parses_with_defaults_and_outputs() {
        let c = parse(&v(&["profile", "--n", "4096", "--k", "32"])).unwrap();
        assert_eq!(
            c,
            Command::Profile {
                n: 4096,
                k: 32,
                queries: 64,
                queue: QueueKind::Merge,
                trace_out: None,
                jsonl_out: None,
            }
        );
        let c = parse(&v(&[
            "profile",
            "--n",
            "1000",
            "--k",
            "8",
            "--queries",
            "32",
            "--queue",
            "heap",
            "--trace-out",
            "t.json",
            "--jsonl-out",
            "t.jsonl",
        ]))
        .unwrap();
        match c {
            Command::Profile {
                queries,
                queue,
                trace_out,
                jsonl_out,
                ..
            } => {
                assert_eq!(queries, 32);
                assert_eq!(queue, QueueKind::Heap);
                assert_eq!(trace_out, Some(PathBuf::from("t.json")));
                assert_eq!(jsonl_out, Some(PathBuf::from("t.jsonl")));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn faults_parses_with_defaults_and_overrides() {
        let c = parse(&v(&["faults", "--n", "1000", "--k", "16"])).unwrap();
        assert_eq!(
            c,
            Command::Faults {
                n: 1000,
                k: 16,
                queries: 64,
                queue: QueueKind::Merge,
                seeds: 4,
                seed: 1,
                aborts: 0.2,
                hangs: 0.1,
                bitflips: 1e-4,
                pcie_stall: 0.1,
                pcie_corrupt: 0.05,
                attempts: 6,
                journal: JournalArgs::default(),
            }
        );
        let c = parse(&v(&[
            "faults",
            "--n",
            "500",
            "--k",
            "8",
            "--seeds",
            "2",
            "--seed",
            "9",
            "--aborts",
            "0",
            "--hangs",
            "0",
            "--bitflips",
            "0",
            "--pcie-stall",
            "0.5",
            "--pcie-corrupt",
            "0.25",
            "--attempts",
            "3",
            "--queue",
            "heap",
        ]))
        .unwrap();
        match c {
            Command::Faults {
                seeds,
                seed,
                aborts,
                pcie_stall,
                attempts,
                queue,
                ..
            } => {
                assert_eq!(seeds, 2);
                assert_eq!(seed, 9);
                assert_eq!(aborts, 0.0);
                assert_eq!(pcie_stall, 0.5);
                assert_eq!(attempts, 3);
                assert_eq!(queue, QueueKind::Heap);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["faults", "--k", "16"])).is_err());
        assert!(parse(&v(&["faults", "--n", "10", "--k", "2", "--aborts", "lots"])).is_err());
    }

    #[test]
    fn stats_parses_with_defaults_and_overrides() {
        let c = parse(&v(&["stats", "--n", "8192"])).unwrap();
        assert_eq!(
            c,
            Command::Stats {
                n: 8192,
                dim: 16,
                k: 16,
                queries: 64,
                threads: 1,
                metrics_out: None,
                timeline_out: None,
                journal: JournalArgs::default(),
            }
        );
        let c = parse(&v(&[
            "stats",
            "--n",
            "4096",
            "--dim",
            "32",
            "--k",
            "8",
            "--queries",
            "10",
            "--metrics-out",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Stats {
                n: 4096,
                dim: 32,
                k: 8,
                queries: 10,
                threads: 1,
                metrics_out: Some(PathBuf::from("m.json")),
                timeline_out: None,
                journal: JournalArgs::default(),
            }
        );
        assert!(parse(&v(&["stats"])).is_err()); // --n required
        assert!(parse(&v(&["stats", "--n", "many"])).is_err());
    }

    #[test]
    fn metrics_out_parses_on_search_and_bench() {
        let c = parse(&v(&[
            "bench",
            "--n",
            "1000",
            "--k",
            "16",
            "--metrics-out",
            "m.txt",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Bench {
                n: 1000,
                k: 16,
                queue: QueueKind::Merge,
                threads: 1,
                metrics_out: Some(PathBuf::from("m.txt")),
                timeline_out: None,
                journal: JournalArgs::default(),
            }
        );
        let c = parse(&v(&[
            "search",
            "--refs",
            "r",
            "--queries",
            "q",
            "--dim",
            "8",
            "--k",
            "5",
            "--metrics-out",
            "m.txt",
        ]))
        .unwrap();
        match c {
            Command::Search { metrics_out, .. } => {
                assert_eq!(metrics_out, Some(PathBuf::from("m.txt")));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["bench", "--n", "10", "--k", "4", "--metrics-out"])).is_err());
    }

    #[test]
    fn threads_parses_on_all_native_commands() {
        // default is 1 (one worker)
        match parse(&v(&["bench", "--n", "100", "--k", "4"])).unwrap() {
            Command::Bench { threads, .. } => assert_eq!(threads, 1),
            _ => panic!("wrong command"),
        }
        match parse(&v(&["bench", "--n", "100", "--k", "4", "--threads", "8"])).unwrap() {
            Command::Bench { threads, .. } => assert_eq!(threads, 8),
            _ => panic!("wrong command"),
        }
        match parse(&v(&[
            "search",
            "--refs",
            "r",
            "--queries",
            "q",
            "--dim",
            "8",
            "--k",
            "5",
            "--threads",
            "4",
        ]))
        .unwrap()
        {
            Command::Search { threads, .. } => assert_eq!(threads, 4),
            _ => panic!("wrong command"),
        }
        // 0 = auto-detect at runtime
        match parse(&v(&["stats", "--n", "100", "--threads", "0"])).unwrap() {
            Command::Stats { threads, .. } => assert_eq!(threads, 0),
            _ => panic!("wrong command"),
        }
        match parse(&v(&["serve", "--threads", "2"])).unwrap() {
            Command::Serve { threads, .. } => assert_eq!(threads, 2),
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["bench", "--n", "10", "--k", "2", "--threads", "two"])).is_err());
        assert!(parse(&v(&["bench", "--n", "10", "--k", "2", "--threads", "-1"])).is_err());
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn journal_flags_parse_with_defaults_and_overrides() {
        let c = parse(&v(&["stats", "--n", "1000", "--journal-out", "j.jsonl"])).unwrap();
        match c {
            Command::Stats { journal, .. } => {
                assert_eq!(journal.out, Some(PathBuf::from("j.jsonl")));
                assert_eq!(journal.sample, 1.0);
                assert_eq!(journal.exemplars, 16);
            }
            _ => panic!("wrong command"),
        }
        let c = parse(&v(&[
            "bench",
            "--n",
            "1000",
            "--k",
            "8",
            "--journal-out",
            "j.jsonl",
            "--journal-sample",
            "0.01",
            "--journal-exemplars",
            "8",
        ]))
        .unwrap();
        match c {
            Command::Bench { journal, .. } => {
                assert_eq!(journal.sample, 0.01);
                assert_eq!(journal.exemplars, 8);
            }
            _ => panic!("wrong command"),
        }
        // faults and search accept the flags too
        let c = parse(&v(&[
            "faults",
            "--n",
            "100",
            "--k",
            "4",
            "--journal-out",
            "f.jsonl",
        ]))
        .unwrap();
        match c {
            Command::Faults { journal, .. } => {
                assert_eq!(journal.out, Some(PathBuf::from("f.jsonl")))
            }
            _ => panic!("wrong command"),
        }
        // out-of-range / malformed values are named errors
        assert!(parse(&v(&["stats", "--n", "10", "--journal-sample", "1.5"])).is_err());
        assert!(parse(&v(&["stats", "--n", "10", "--journal-sample", "lots"])).is_err());
        assert!(parse(&v(&["stats", "--n", "10", "--journal-exemplars", "-2"])).is_err());
    }

    #[test]
    fn serve_parses_with_defaults_and_overrides() {
        let c = parse(&v(&["serve"])).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                n: 2048,
                dim: 16,
                k: 16,
                queries: 32,
                seed: 1,
                duration: 0.0,
                arrivals: ArrivalProcess::Poisson,
                rate: None,
                load: 2.0,
                deadline: None,
                deadline_factor: 8.0,
                capacity: 8,
                policy: QueuePolicy::Reject,
                tile: 1024,
                stride: 4,
                threads: 1,
                fault_plan: None,
                json: false,
                metrics_out: None,
                timeline_out: None,
                journal: JournalArgs::default(),
            }
        );
        let c = parse(&v(&[
            "serve",
            "--arrivals",
            "uniform",
            "--seed",
            "7",
            "--duration-sim",
            "0.25",
            "--load",
            "3",
            "--capacity",
            "4",
            "--policy",
            "drop-oldest",
            "--fault-plan",
            "pcie-corrupt=0.1,aborts=0.05",
            "--json",
        ]))
        .unwrap();
        match c {
            Command::Serve {
                arrivals,
                seed,
                duration,
                load,
                capacity,
                policy,
                fault_plan,
                json,
                ..
            } => {
                assert_eq!(arrivals, ArrivalProcess::Uniform);
                assert_eq!(seed, 7);
                assert_eq!(duration, 0.25);
                assert_eq!(load, 3.0);
                assert_eq!(capacity, 4);
                assert_eq!(policy, QueuePolicy::DropOldest);
                assert_eq!(
                    fault_plan,
                    Some(FaultPlanArgs {
                        aborts: 0.05,
                        pcie_corrupt: 0.1,
                        ..FaultPlanArgs::default()
                    })
                );
                assert!(json);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["serve", "--arrivals", "bursty"])).is_err());
        assert!(parse(&v(&["serve", "--policy", "lifo"])).is_err());
        assert!(parse(&v(&["serve", "--fault-plan", "gamma=0.1"])).is_err());
        assert!(parse(&v(&["serve", "--fault-plan", "aborts=2.0"])).is_err());
        assert!(parse(&v(&["serve", "--fault-plan", "aborts"])).is_err());
    }

    #[test]
    fn report_takes_one_positional_journal_path() {
        assert_eq!(
            parse(&v(&["report", "journal.jsonl"])).unwrap(),
            Command::Report {
                journal: Some(PathBuf::from("journal.jsonl")),
                top: 5,
                timeline: None,
            }
        );
        assert_eq!(
            parse(&v(&["report", "j.jsonl", "--top", "12"])).unwrap(),
            Command::Report {
                journal: Some(PathBuf::from("j.jsonl")),
                top: 12,
                timeline: None,
            }
        );
        assert!(parse(&v(&["report"])).is_err());
        assert!(parse(&v(&["report", "a.jsonl", "b.jsonl"])).is_err());
        assert!(parse(&v(&["report", "j.jsonl", "--top", "many"])).is_err());
        // positionals stay rejected everywhere else
        assert!(parse(&v(&["bench", "j.jsonl", "--n", "10", "--k", "2"])).is_err());
    }

    #[test]
    fn report_timeline_makes_the_journal_optional() {
        assert_eq!(
            parse(&v(&["report", "--timeline", "t.json"])).unwrap(),
            Command::Report {
                journal: None,
                top: 5,
                timeline: Some(PathBuf::from("t.json")),
            }
        );
        assert_eq!(
            parse(&v(&["report", "j.jsonl", "--timeline", "t.json"])).unwrap(),
            Command::Report {
                journal: Some(PathBuf::from("j.jsonl")),
                top: 5,
                timeline: Some(PathBuf::from("t.json")),
            }
        );
    }

    #[test]
    fn timeline_out_parses_on_instrumented_commands() {
        match parse(&v(&[
            "stats",
            "--n",
            "1000",
            "--threads",
            "4",
            "--timeline-out",
            "t.trace.json",
        ]))
        .unwrap()
        {
            Command::Stats { timeline_out, .. } => {
                assert_eq!(timeline_out, Some(PathBuf::from("t.trace.json")))
            }
            _ => panic!("wrong command"),
        }
        match parse(&v(&[
            "bench",
            "--n",
            "100",
            "--k",
            "4",
            "--timeline-out",
            "t.json",
        ]))
        .unwrap()
        {
            Command::Bench { timeline_out, .. } => {
                assert_eq!(timeline_out, Some(PathBuf::from("t.json")))
            }
            _ => panic!("wrong command"),
        }
        match parse(&v(&[
            "search",
            "--refs",
            "r",
            "--queries",
            "q",
            "--dim",
            "8",
            "--k",
            "5",
            "--timeline-out",
            "t.json",
        ]))
        .unwrap()
        {
            Command::Search { timeline_out, .. } => {
                assert_eq!(timeline_out, Some(PathBuf::from("t.json")))
            }
            _ => panic!("wrong command"),
        }
        match parse(&v(&["serve", "--timeline-out", "t.json"])).unwrap() {
            Command::Serve { timeline_out, .. } => {
                assert_eq!(timeline_out, Some(PathBuf::from("t.json")))
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["stats", "--n", "10", "--timeline-out"])).is_err());
    }
}
