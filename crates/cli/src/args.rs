//! Declarative flag parsing for `knn-cli` (no CLI-framework dependency).
//!
//! [`parse`] splits argv into a subcommand and a `Flags` bag of
//! `--name value` pairs plus the `--json` / `--help` switches. Each
//! subcommand's args struct drains the flags it knows through typed
//! getters, which reject out-of-range values (a zero count, a
//! non-positive rate, a fault rate outside [0, 1]) where they enter.
//! `Flags::finish` then rejects whatever is left — a typo, or a flag of
//! another subcommand — and suggests the closest name that subcommand
//! asked for. A flag given twice is an error too, so no input is
//! silently dropped; `main` exits 2 on every parse error.

use std::path::PathBuf;
use std::str::FromStr;

use knn::Metric;
use kselect::QueueKind;
use serve::{ArrivalProcess, QueuePolicy};

/// The flags of one invocation, drained by the subcommand that owns
/// them.
#[derive(Default)]
struct Flags {
    cmd: String,
    /// `--name value` pairs in argv order; a switch has an empty value.
    values: Vec<(String, String)>,
    positionals: Vec<String>,
    /// Every name the subcommand asked for: the did-you-mean candidates.
    asked: Vec<&'static str>,
}

impl Flags {
    fn new(cmd: &str, rest: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            cmd: cmd.to_string(),
            ..Flags::default()
        };
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                f.positionals.push(a.clone());
                continue;
            };
            if f.values.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            let v = match name {
                "json" | "help" => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone(),
            };
            f.values.push((name.to_string(), v));
        }
        Ok(f)
    }

    /// Take `--name`'s raw value out of the bag.
    fn take(&mut self, name: &'static str) -> Option<String> {
        self.asked.push(name);
        let i = self.values.iter().position(|(n, _)| n == name)?;
        Some(self.values.remove(i).1)
    }

    fn opt_with<T>(
        &mut self,
        name: &'static str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.take(name)
            .map(|v| parse(&v).ok_or_else(|| format!("invalid --{name} value `{v}`")))
            .transpose()
    }

    fn opt<T: FromStr>(&mut self, name: &'static str) -> Result<Option<T>, String> {
        self.opt_with(name, |v| v.parse().ok())
    }

    fn req<T: FromStr>(&mut self, name: &'static str) -> Result<T, String> {
        self.opt(name)?.ok_or_else(|| format!("missing --{name}"))
    }

    fn or<T: FromStr>(&mut self, name: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    fn path(&mut self, name: &'static str) -> Option<PathBuf> {
        self.take(name).map(PathBuf::from)
    }

    fn switch(&mut self, name: &'static str) -> bool {
        self.take(name).is_some()
    }

    /// A count that must be at least 1; `default: None` makes it
    /// required.
    fn count<T: FromStr + PartialOrd + From<u8>>(
        &mut self,
        name: &'static str,
        default: Option<T>,
    ) -> Result<T, String> {
        let v = match default {
            Some(d) => self.or(name, d)?,
            None => self.req(name)?,
        };
        if v < T::from(1) {
            return Err(format!("--{name} must be at least 1"));
        }
        Ok(v)
    }

    /// An optional real that must be positive and finite.
    fn positive(&mut self, name: &'static str) -> Result<Option<f64>, String> {
        match self.opt::<f64>(name)? {
            Some(v) if !(v > 0.0 && v.is_finite()) => {
                Err(format!("--{name} must be positive and finite, got {v}"))
            }
            v => Ok(v),
        }
    }

    /// An optional fault rate in [0, 1] (see [`check_rate`]).
    fn rate(&mut self, name: &'static str, default: f64) -> Result<f64, String> {
        let v = self.or(name, default)?;
        check_rate(&format!("--{name}"), v)
    }

    /// Reject every flag, switch or positional the subcommand did not
    /// take.
    fn finish(self) -> Result<(), String> {
        if let Some(a) = self.positionals.first() {
            return Err(format!("unexpected argument: {a}"));
        }
        let Some((name, _)) = self.values.first() else {
            return Ok(());
        };
        let hint = self
            .asked
            .iter()
            .map(|a| (edit_distance(name, a), a))
            .filter(|(d, _)| *d <= 2)
            .min()
            .map_or(String::new(), |(_, a)| format!(" (did you mean --{a}?)"));
        Err(format!("`{}` has no --{name}{hint}", self.cmd))
    }
}

/// Levenshtein distance, for the did-you-mean hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != *cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

fn take_queue(f: &mut Flags) -> Result<QueueKind, String> {
    let kind = f.opt_with("queue", |s| match s {
        "merge" => Some(QueueKind::Merge),
        "heap" => Some(QueueKind::Heap),
        "insertion" => Some(QueueKind::Insertion),
        _ => None,
    })?;
    Ok(kind.unwrap_or(QueueKind::Merge))
}

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

impl JournalArgs {
    fn take(f: &mut Flags) -> Result<JournalArgs, String> {
        let out = f.path("journal-out");
        let sample = f.opt::<f64>("journal-sample")?;
        let exemplars = f.opt("journal-exemplars")?;
        if out.is_none() && (sample.is_some() || exemplars.is_some()) {
            return Err("--journal-sample and --journal-exemplars need --journal-out".into());
        }
        let d = JournalArgs::default();
        let sample = sample.unwrap_or(d.sample);
        if !(0.0..=1.0).contains(&sample) {
            return Err(format!("--journal-sample must be in [0, 1], got {sample}"));
        }
        Ok(JournalArgs {
            out,
            sample,
            exemplars: exemplars.unwrap_or(d.exemplars),
        })
    }
}

/// Run artifacts of the native subcommands (`search`, `bench`, `stats`,
/// `serve`): `--metrics-out`, `--timeline-out` and the journal group.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sinks {
    pub metrics_out: Option<PathBuf>,
    pub timeline_out: Option<PathBuf>,
    pub journal: JournalArgs,
}

impl Sinks {
    fn take(f: &mut Flags) -> Result<Sinks, String> {
        Ok(Sinks {
            metrics_out: f.path("metrics-out"),
            timeline_out: f.path("timeline-out"),
            journal: JournalArgs::take(f)?,
        })
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

/// A fault rate is a probability: NaN, a negative value or one past 1
/// is an error named after `what`, not a rate that means "never" or
/// "always".
fn check_rate(what: &str, rate: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(format!("{what} rate must be in [0, 1], got {rate}"))
    }
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
        let rate = check_rate(&format!("--fault-plan {key}"), rate)?;
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

/// `search --refs FILE --queries FILE --dim D --k K [--metric M]
/// [--threads T] [--json] [SINKS]`. There is no `--queue`: the native
/// search keeps each query's k best by `(distance, id)` whatever the
/// queue, so the flag would change nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchArgs {
    pub refs: PathBuf,
    pub queries: PathBuf,
    pub dim: usize,
    pub k: usize,
    pub metric: Metric,
    pub threads: usize,
    pub json: bool,
    pub sinks: Sinks,
}

impl SearchArgs {
    fn take(f: &mut Flags) -> Result<SearchArgs, String> {
        Ok(SearchArgs {
            refs: f.req("refs")?,
            queries: f.req("queries")?,
            dim: f.count("dim", None)?,
            k: f.req("k")?,
            metric: f
                .opt_with("metric", |s| match s {
                    "euclidean" => Some(Metric::SquaredEuclidean),
                    "manhattan" => Some(Metric::Manhattan),
                    "cosine" => Some(Metric::Cosine),
                    "dot" => Some(Metric::NegativeDot),
                    _ => None,
                })?
                .unwrap_or(Metric::SquaredEuclidean),
            threads: f.or("threads", 1)?,
            json: f.switch("json"),
            sinks: Sinks::take(f)?,
        })
    }
}

/// `bench --n N --k K [--queue Q] [--threads T] [SINKS]` — native
/// selection benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    pub n: usize,
    pub k: usize,
    pub queue: QueueKind,
    pub threads: usize,
    pub sinks: Sinks,
}

impl BenchArgs {
    fn take(f: &mut Flags) -> Result<BenchArgs, String> {
        Ok(BenchArgs {
            n: f.req("n")?,
            k: f.req("k")?,
            queue: take_queue(f)?,
            threads: f.or("threads", 1)?,
            sinks: Sinks::take(f)?,
        })
    }
}

/// `stats --n N [--dim D] [--k K] [--queries Q] [--threads T] [SINKS]`
/// — native runtime-metrics sweep: the streamed pipeline across tile
/// sizes × queue kinds, reported as latency histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsArgs {
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    pub queries: usize,
    pub threads: usize,
    pub sinks: Sinks,
}

impl StatsArgs {
    fn take(f: &mut Flags) -> Result<StatsArgs, String> {
        Ok(StatsArgs {
            n: f.req("n")?,
            dim: f.count("dim", Some(16))?,
            k: f.or("k", 16)?,
            queries: f.count("queries", Some(64))?,
            threads: f.or("threads", 1)?,
            sinks: Sinks::take(f)?,
        })
    }
}

/// `profile --n N --k K [--queries Q] [--queue Q] [--trace-out FILE]
/// [--jsonl-out FILE]` — run the traced pipeline and print a
/// simulated-time profile; optionally export a Chrome trace / JSONL.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileArgs {
    pub n: usize,
    pub k: usize,
    pub queries: usize,
    pub queue: QueueKind,
    pub trace_out: Option<PathBuf>,
    pub jsonl_out: Option<PathBuf>,
}

impl ProfileArgs {
    fn take(f: &mut Flags) -> Result<ProfileArgs, String> {
        Ok(ProfileArgs {
            n: f.req("n")?,
            k: f.req("k")?,
            queries: f.count("queries", Some(64))?,
            queue: take_queue(f)?,
            trace_out: f.path("trace-out"),
            jsonl_out: f.path("jsonl-out"),
        })
    }
}

/// `faults --n N --k K [--queries Q] [--queue Q] [--seeds S]
/// [--seed BASE] [--aborts R] [--hangs R] [--bitflips R]
/// [--pcie-stall R] [--pcie-corrupt R] [--attempts A] [JOURNAL]` — run
/// seeded fault campaigns through the resilient pipeline and check
/// every delivered result against the fault-free oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultArgs {
    pub n: usize,
    pub k: usize,
    pub queries: usize,
    pub queue: QueueKind,
    pub seeds: u64,
    pub seed: u64,
    pub aborts: f64,
    pub hangs: f64,
    pub bitflips: f64,
    pub pcie_stall: f64,
    pub pcie_corrupt: f64,
    pub attempts: u32,
    pub journal: JournalArgs,
}

impl FaultArgs {
    fn take(f: &mut Flags) -> Result<FaultArgs, String> {
        let a = FaultArgs {
            n: f.req("n")?,
            k: f.req("k")?,
            queries: f.count("queries", Some(64))?,
            queue: take_queue(f)?,
            seeds: f.count("seeds", Some(4))?,
            seed: f.or("seed", 1)?,
            aborts: f.rate("aborts", 0.2)?,
            hangs: f.rate("hangs", 0.1)?,
            bitflips: f.rate("bitflips", 1e-4)?,
            pcie_stall: f.rate("pcie-stall", 0.1)?,
            pcie_corrupt: f.rate("pcie-corrupt", 0.05)?,
            attempts: f.count("attempts", Some(6))?,
            journal: JournalArgs::take(f)?,
        };
        if a.seed.checked_add(a.seeds).is_none() {
            return Err("--seed + --seeds overflows u64".into());
        }
        Ok(a)
    }
}

/// `serve [--arrivals poisson|uniform] [--seed S] [--duration-sim T]
/// [--rate R | --load L] [--deadline D | --deadline-factor F]
/// [--capacity C] [--policy reject|drop-newest|drop-oldest]
/// [--n N] [--dim D] [--k K] [--queries Q] [--tile T] [--stride S]
/// [--threads T] [--fault-plan SPEC] [--json] [SINKS]` — deterministic
/// overload campaign through the serving layer on the simulated clock.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    pub queries: usize,
    pub seed: u64,
    pub duration: f64,
    pub arrivals: ArrivalProcess,
    pub rate: Option<f64>,
    pub load: f64,
    pub deadline: Option<f64>,
    pub deadline_factor: f64,
    pub capacity: usize,
    pub policy: QueuePolicy,
    pub tile: usize,
    pub stride: usize,
    pub threads: usize,
    pub fault_plan: Option<FaultPlanArgs>,
    pub json: bool,
    pub sinks: Sinks,
}

impl ServeArgs {
    fn take(f: &mut Flags) -> Result<ServeArgs, String> {
        let (rate, load) = (f.positive("rate")?, f.positive("load")?);
        let (deadline, factor) = (f.positive("deadline")?, f.positive("deadline-factor")?);
        for (a, b, both) in [
            ("rate", "load", rate.is_some() && load.is_some()),
            (
                "deadline",
                "deadline-factor",
                deadline.is_some() && factor.is_some(),
            ),
        ] {
            if both {
                return Err(format!("give --{a} or --{b}, not both"));
            }
        }
        let duration: f64 = f.or("duration-sim", 0.0)?;
        if !(duration >= 0.0 && duration.is_finite()) {
            return Err(format!(
                "--duration-sim must be finite and >= 0, got {duration}"
            ));
        }
        Ok(ServeArgs {
            n: f.or("n", 2048)?,
            dim: f.count("dim", Some(16))?,
            k: f.or("k", 16)?,
            queries: f.count("queries", Some(32))?,
            seed: f.or("seed", 1)?,
            duration,
            arrivals: f
                .opt_with("arrivals", ArrivalProcess::parse)?
                .unwrap_or(ArrivalProcess::Poisson),
            rate,
            load: load.unwrap_or(2.0),
            deadline,
            deadline_factor: factor.unwrap_or(8.0),
            capacity: f.or("capacity", 8)?,
            policy: f
                .opt_with("policy", QueuePolicy::parse)?
                .unwrap_or(QueuePolicy::Reject),
            tile: f.count("tile", Some(1024))?,
            stride: f.count("stride", Some(4))?,
            threads: f.or("threads", 1)?,
            fault_plan: f
                .take("fault-plan")
                .map(|s| parse_fault_plan(&s))
                .transpose()?,
            json: f.switch("json"),
            sinks: Sinks::take(f)?,
        })
    }
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
    Search(SearchArgs),
    Bench(BenchArgs),
    Stats(StatsArgs),
    /// `simulate --n N --k K [--queue Q]` — simulated-GPU run with a
    /// profiler report.
    Simulate {
        n: usize,
        k: usize,
        queue: QueueKind,
    },
    Profile(ProfileArgs),
    Faults(FaultArgs),
    Serve(ServeArgs),
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
    /// `help`, or `--help` anywhere
    Help,
}

/// Parse an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    let mut f = Flags::new(cmd, rest)?;
    if f.switch("help") {
        return Ok(Command::Help);
    }
    let command = match cmd.as_str() {
        "generate" => Command::Generate {
            count: f.req("count")?,
            dim: f.count("dim", None)?,
            seed: f.or("seed", 0)?,
            out: f.req("out")?,
        },
        "search" => Command::Search(SearchArgs::take(&mut f)?),
        "bench" => Command::Bench(BenchArgs::take(&mut f)?),
        "stats" => Command::Stats(StatsArgs::take(&mut f)?),
        "simulate" => Command::Simulate {
            n: f.req("n")?,
            k: f.req("k")?,
            queue: take_queue(&mut f)?,
        },
        "profile" => Command::Profile(ProfileArgs::take(&mut f)?),
        "faults" => Command::Faults(FaultArgs::take(&mut f)?),
        "serve" => Command::Serve(ServeArgs::take(&mut f)?),
        "report" => {
            let timeline = f.path("timeline");
            let journal = f.positionals.pop();
            if journal.is_none() && timeline.is_none() {
                return Err("report needs a JOURNAL.jsonl path or --timeline FILE".to_string());
            }
            if !f.positionals.is_empty() {
                return Err("report takes at most one JOURNAL.jsonl path".to_string());
            }
            let top = f.opt("top")?;
            if journal.is_none() && top.is_some() {
                // The top list ranks journal records; a timeline has none.
                return Err("report --top needs a JOURNAL.jsonl path".to_string());
            }
            Command::Report {
                journal: journal.map(PathBuf::from),
                top: top.unwrap_or(5),
                timeline,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown command: {other}")),
    };
    f.finish()?;
    Ok(command)
}

/// Usage text.
pub const USAGE: &str = "\
knn-cli — k-NN search and k-selection benchmarking

USAGE:
  knn-cli generate --count N --dim D [--seed S] --out FILE
  knn-cli search   --refs FILE --queries FILE --dim D --k K
                   [--metric euclidean|manhattan|cosine|dot]
                   [--threads T] [--json]
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

Unknown or repeated flags exit 2; --help after a subcommand prints this.

`profile` runs the simulated pipeline with tracing on and prints a
profile over *simulated* time; --trace-out writes a Chrome-trace JSON
loadable in ui.perfetto.dev or chrome://tracing.

`stats` sweeps the *native* streamed pipeline over tile sizes and
prints wall-clock latency histograms (p50/p95/p99) plus the
stream-merge counters. --metrics-out (also on search/bench/serve) writes
the collected metrics: OpenMetrics text exposition by default, or a JSON
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
Every metric runs the one streamed pipeline, and results are identical
at every thread count: the k smallest by (distance, id), the lowest id
winning a tie. That rule does not depend on a queue, so `search` takes
no --queue. Instrumented commands report the active SIMD kernel
(`simd_dispatch`: avx512, avx2+fma or scalar8; override with
KNN_SIMD=scalar) alongside the thread count.

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
            Command::Search(SearchArgs {
                metric, json, k, ..
            }) => {
                assert_eq!(metric, Metric::SquaredEuclidean);
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
            "--json",
        ]))
        .unwrap();
        match c {
            Command::Search(SearchArgs { metric, json, .. }) => {
                assert_eq!(metric, Metric::Cosine);
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
            Command::Profile(ProfileArgs {
                n: 4096,
                k: 32,
                queries: 64,
                queue: QueueKind::Merge,
                trace_out: None,
                jsonl_out: None,
            })
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
            Command::Profile(ProfileArgs {
                queries,
                queue,
                trace_out,
                jsonl_out,
                ..
            }) => {
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
            Command::Faults(FaultArgs {
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
            })
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
            Command::Faults(FaultArgs {
                seeds,
                seed,
                aborts,
                pcie_stall,
                attempts,
                queue,
                ..
            }) => {
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
        // a rate is a probability: NaN, negative and past-1 values fail
        let e = parse(&v(&["faults", "--n", "10", "--k", "2", "--hangs", "1.5"])).unwrap_err();
        assert_eq!(e, "--hangs rate must be in [0, 1], got 1.5");
        assert_eq!(
            parse_fault_plan("hangs=1.5").unwrap_err(),
            "--fault-plan hangs rate must be in [0, 1], got 1.5"
        );
    }

    #[test]
    fn stats_parses_with_defaults_and_overrides() {
        let c = parse(&v(&["stats", "--n", "8192"])).unwrap();
        assert_eq!(
            c,
            Command::Stats(StatsArgs {
                n: 8192,
                dim: 16,
                k: 16,
                queries: 64,
                threads: 1,
                sinks: Sinks::default(),
            })
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
            Command::Stats(StatsArgs {
                n: 4096,
                dim: 32,
                k: 8,
                queries: 10,
                threads: 1,
                sinks: Sinks {
                    metrics_out: Some(PathBuf::from("m.json")),
                    ..Sinks::default()
                },
            })
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
            Command::Bench(BenchArgs {
                n: 1000,
                k: 16,
                queue: QueueKind::Merge,
                threads: 1,
                sinks: Sinks {
                    metrics_out: Some(PathBuf::from("m.txt")),
                    ..Sinks::default()
                },
            })
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
            Command::Search(a) => {
                assert_eq!(a.sinks.metrics_out, Some(PathBuf::from("m.txt")));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["bench", "--n", "10", "--k", "4", "--metrics-out"])).is_err());
    }

    #[test]
    fn threads_parses_on_all_native_commands() {
        // default is 1 (one worker)
        match parse(&v(&["bench", "--n", "100", "--k", "4"])).unwrap() {
            Command::Bench(a) => assert_eq!(a.threads, 1),
            _ => panic!("wrong command"),
        }
        match parse(&v(&["bench", "--n", "100", "--k", "4", "--threads", "8"])).unwrap() {
            Command::Bench(a) => assert_eq!(a.threads, 8),
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
            Command::Search(a) => assert_eq!(a.threads, 4),
            _ => panic!("wrong command"),
        }
        // 0 = auto-detect at runtime
        match parse(&v(&["stats", "--n", "100", "--threads", "0"])).unwrap() {
            Command::Stats(a) => assert_eq!(a.threads, 0),
            _ => panic!("wrong command"),
        }
        match parse(&v(&["serve", "--threads", "2"])).unwrap() {
            Command::Serve(a) => assert_eq!(a.threads, 2),
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
            Command::Stats(StatsArgs { sinks, .. }) => {
                let journal = sinks.journal;
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
            Command::Bench(BenchArgs { sinks, .. }) => {
                let journal = sinks.journal;
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
            Command::Faults(FaultArgs { journal, .. }) => {
                assert_eq!(journal.out, Some(PathBuf::from("f.jsonl")))
            }
            _ => panic!("wrong command"),
        }
        // out-of-range / malformed values are named errors
        let stats_j = |flag: &str, val: &str| {
            parse(&v(&["stats", "--n", "10", "--journal-out", "j", flag, val]))
        };
        assert!(stats_j("--journal-sample", "1.5").is_err());
        assert!(stats_j("--journal-sample", "lots").is_err());
        assert!(stats_j("--journal-exemplars", "-2").is_err());
        // the sub-flags mean nothing without a journal to shape
        let e = parse(&v(&["stats", "--n", "10", "--journal-sample", "0.5"])).unwrap_err();
        assert!(e.contains("need --journal-out"), "{e}");
    }

    #[test]
    fn serve_parses_with_defaults_and_overrides() {
        let c = parse(&v(&["serve"])).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs {
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
                sinks: Sinks::default(),
            })
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
            Command::Serve(ServeArgs {
                arrivals,
                seed,
                duration,
                load,
                capacity,
                policy,
                fault_plan,
                json,
                ..
            }) => {
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
        // --top ranks journal records: meaningless with a timeline alone
        let e = parse(&v(&["report", "--timeline", "t.json", "--top", "3"])).unwrap_err();
        assert_eq!(e, "report --top needs a JOURNAL.jsonl path");
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
            Command::Stats(a) => {
                assert_eq!(a.sinks.timeline_out, Some(PathBuf::from("t.trace.json")))
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
            Command::Bench(a) => {
                assert_eq!(a.sinks.timeline_out, Some(PathBuf::from("t.json")))
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
            Command::Search(a) => {
                assert_eq!(a.sinks.timeline_out, Some(PathBuf::from("t.json")))
            }
            _ => panic!("wrong command"),
        }
        match parse(&v(&["serve", "--timeline-out", "t.json"])).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.sinks.timeline_out, Some(PathBuf::from("t.json")))
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&v(&["stats", "--n", "10", "--timeline-out"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_with_a_suggestion() {
        let e = parse(&v(&["bench", "--n", "10", "--k", "2", "--thread", "2"])).unwrap_err();
        assert_eq!(e, "`bench` has no --thread (did you mean --threads?)");
        // a flag of another subcommand, far from every name bench takes
        let e = parse(&v(&["bench", "--n", "10", "--k", "2", "--trace-out", "t"])).unwrap_err();
        assert_eq!(e, "`bench` has no --trace-out");
        let e = parse(&v(&["simulate", "--n", "10", "--k", "2", "--threads", "4"])).unwrap_err();
        assert!(e.starts_with("`simulate` has no --threads"), "{e}");
        // `faults` takes the journal group but not the other sinks
        let e = parse(&v(&[
            "faults",
            "--n",
            "9",
            "--k",
            "2",
            "--metrics-out",
            "m",
        ]))
        .unwrap_err();
        assert!(e.starts_with("`faults` has no --metrics-out"), "{e}");
    }

    #[test]
    fn repeated_flags_are_rejected() {
        let e = parse(&v(&["bench", "--n", "2048", "--k", "16", "--n", "5"])).unwrap_err();
        assert_eq!(e, "--n given twice");
        let e = parse(&v(&["serve", "--json", "--json"])).unwrap_err();
        assert_eq!(e, "--json given twice");
    }

    #[test]
    fn switches_are_rejected_where_they_mean_nothing() {
        let e = parse(&v(&["bench", "--n", "10", "--k", "2", "--json"])).unwrap_err();
        assert_eq!(e, "`bench` has no --json");
        assert!(parse(&v(&["stats", "--n", "10", "--json"])).is_err());
        assert!(parse(&v(&["help", "--json"])).is_err());
    }

    #[test]
    fn help_after_a_subcommand_is_help() {
        assert_eq!(
            parse(&v(&["bench", "--n", "10", "--k", "2", "--help"])).unwrap(),
            Command::Help
        );
        // even when the rest of the invocation would not parse
        assert_eq!(
            parse(&v(&["serve", "--help", "--rate", "0"])).unwrap(),
            Command::Help
        );
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn values_that_could_only_panic_or_do_nothing_are_rejected() {
        let bad: &[&[&str]] = &[
            &["generate", "--count", "3", "--dim", "0", "--out", "x"],
            &[
                "search",
                "--refs",
                "r",
                "--queries",
                "q",
                "--dim",
                "0",
                "--k",
                "1",
            ],
            &["stats", "--n", "512", "--k", "8", "--dim", "0"],
            &["stats", "--n", "512", "--k", "8", "--queries", "0"],
            &["profile", "--n", "512", "--k", "8", "--queries", "0"],
            &["faults", "--n", "512", "--k", "8", "--queries", "0"],
            &["faults", "--n", "512", "--k", "8", "--seeds", "0"],
            &["faults", "--n", "512", "--k", "8", "--attempts", "0"],
            // parsed at the field's own type, not as u64 then truncated
            &[
                "faults",
                "--n",
                "512",
                "--k",
                "8",
                "--attempts",
                "4294967297",
            ],
            &[
                "faults",
                "--n",
                "5",
                "--k",
                "1",
                "--seed",
                "2",
                "--seeds",
                "18446744073709551615",
            ],
            &["serve", "--tile", "0"],
            &["serve", "--stride", "0"],
            &["serve", "--dim", "0"],
            &["serve", "--queries", "0"],
            &["serve", "--rate", "0"],
            &["serve", "--rate", "inf"],
            &["serve", "--load", "-1"],
            &["serve", "--load", "nan"],
            &["serve", "--deadline", "-1"],
            &["serve", "--deadline-factor", "0"],
            &["serve", "--duration-sim", "-5"],
            &["serve", "--duration-sim", "inf"],
            // alternatives: one of each pair would be silently dropped
            &["serve", "--rate", "100", "--load", "3"],
            &["serve", "--deadline", "0.1", "--deadline-factor", "4"],
        ];
        for argv in bad {
            assert!(parse(&v(argv)).is_err(), "{argv:?} must not parse");
        }
        // the largest seed range that fits still parses
        let top = u64::MAX.to_string();
        let c = parse(&v(&[
            "faults", "--n", "5", "--k", "1", "--seed", "0", "--seeds", &top,
        ]));
        assert!(c.is_ok(), "{c:?}");
        // k is checked against n at run time (exit 1, invalid-k), not here
        assert!(parse(&v(&["serve", "--k", "0"])).is_ok());
    }
}
