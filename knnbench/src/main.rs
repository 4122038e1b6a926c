//! End-to-end and per-layer benchmark of the native k-NN library.
//!
//! ```text
//! cargo run --release --offline --manifest-path knnbench/Cargo.toml -- \
//!     --workload batch-k32 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One closed-loop client in one process calls a public search entry
//! back to back, each call on a fresh query batch drawn from the seed
//! and the call index, and checks a sample of every call's queries
//! against a brute-force oracle outside the timed region. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates plain and
//! traced calls and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the lines before it say the same
//! in words, with the host facts. See `README.md` beside this file for
//! the workloads and metrics.

mod heap;
mod host;
mod oracle;
mod tracer;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use knn::{PointSet, DEFAULT_STREAM_TILE};
use kselect::{Neighbor, QueueKind, SelectConfig};

use oracle::Oracle;
use tracer::{CallRecord, CallTrace, Layer};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const DIM: usize = 128;
/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: u64 = 9;
/// Untimed calls after the measured phase whose heap is counted; the
/// median of their peaks is reported.
const HEAP_PROBES: u64 = 3;
/// Stop measuring after this much wall time whatever `--seconds` says,
/// so a run always ends within three minutes.
const WALL_CAP_S: f64 = 150.0;

#[derive(Clone, Copy)]
enum Entry {
    /// `knn_search_streamed_parallel` on this many threads.
    Streamed { threads: usize },
    /// `knn_search`, the documented entry.
    Online,
}

struct Workload {
    name: &'static str,
    entry: Entry,
    q: usize,
    n: usize,
    k: usize,
    /// Queries of each call checked against the oracle.
    checks_per_call: usize,
}

/// The workloads, chosen so each stresses a different layer:
///
/// * `batch-k32` — the paper's small-k end. Distance fill is most of a
///   call, so a fill or SIMD change shows here and a selection change
///   barely moves it.
/// * `batch-k1024` — the paper's large-k end. Per-tile selection and the
///   stream merge take nearly all of a call; a fill change should not
///   move it. Q=256 gives each of the two workers four query blocks to
///   claim, so one worker slowed by outside load hands blocks to the
///   other; with fewer blocks per call the call times split into two
///   modes and their median jumps between them from run to run.
/// * `online-b8` — small batches through the documented entry. Selection
///   runs over whole rows with no merge, and fixed per-call costs (the
///   reference norms recomputed on every call, allocation) are a large
///   share, so caching them shows here and nowhere else.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "batch-k32",
        entry: Entry::Streamed { threads: 2 },
        q: 1024,
        n: 1 << 15,
        k: 32,
        checks_per_call: 16,
    },
    Workload {
        name: "batch-k1024",
        entry: Entry::Streamed { threads: 2 },
        q: 256,
        n: 1 << 12,
        k: 1024,
        checks_per_call: 16,
    },
    Workload {
        name: "online-b8",
        entry: Entry::Online,
        q: 8,
        n: 1 << 16,
        k: 128,
        checks_per_call: 1,
    },
];

impl Workload {
    fn cfg(&self) -> SelectConfig {
        SelectConfig::optimized(QueueKind::Merge, self.k)
    }

    /// Pool workers a call runs on.
    fn workers(&self) -> usize {
        match self.entry {
            Entry::Streamed { threads } => knn::resolve_threads(threads),
            // The rayon stand-in's `par_iter` runs on the calling thread.
            Entry::Online => 1,
        }
    }

    fn entry_name(&self) -> &'static str {
        match self.entry {
            Entry::Streamed { .. } => "knn_search_streamed_parallel",
            Entry::Online => "knn_search",
        }
    }

    fn search(
        &self,
        queries: &PointSet,
        refs: &PointSet,
        cfg: &SelectConfig,
    ) -> Vec<Vec<Neighbor>> {
        match self.entry {
            Entry::Streamed { threads } => {
                knn::knn_search_streamed_parallel(queries, refs, cfg, DEFAULT_STREAM_TILE, threads)
            }
            Entry::Online => knn::knn_search(queries, refs, cfg),
        }
    }

    /// The same call through the entry's observed form, which runs the
    /// same code with the hooks filled in.
    fn search_traced(
        &self,
        queries: &PointSet,
        refs: &PointSet,
        cfg: &SelectConfig,
        tr: &CallTrace,
    ) -> Vec<Vec<Neighbor>> {
        match self.entry {
            Entry::Streamed { threads } => knn::knn_search_streamed_parallel_timelined(
                queries,
                refs,
                cfg,
                DEFAULT_STREAM_TILE,
                threads,
                tr,
                &knn::NeverCancel,
                tr,
            )
            .expect("NeverCancel never cancels"),
            Entry::Online => {
                knn::knn_search_with_observed(queries, refs, cfg, knn::Metric::SquaredEuclidean, tr)
            }
        }
    }

    /// The norms the entry recomputes on every call.
    fn norms(&self, queries: &PointSet, refs: &PointSet) {
        black_box(knn::block::norms(black_box(refs)));
        if let Entry::Streamed { .. } = self.entry {
            black_box(knn::block::norms(black_box(queries)));
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: knnbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent input streams derived from the run's seed.
#[derive(Clone, Copy)]
enum Stream {
    Refs = 1,
    Warmup = 2,
    Call = 3,
    Check = 4,
}

fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ ((stream as u64) << 56)) ^ index)
}

/// Oracle verdicts over every call of the run.
struct Tally {
    attempted: u64,
    checked: u64,
    failed: u64,
}

impl Tally {
    /// Count a call's queries as attempted and check a sample of them.
    fn check(
        &mut self,
        oracle: &mut Oracle,
        w: &Workload,
        seed: u64,
        call: u64,
        queries: &PointSet,
        got: &[Vec<Neighbor>],
    ) {
        self.attempted += queries.len() as u64;
        let picks = w.checks_per_call.min(queries.len());
        let offset = derive(seed, Stream::Check, call) as usize % queries.len();
        for j in 0..picks {
            let qi = (offset + j * queries.len() / picks) % queries.len();
            self.checked += 1;
            let verdict = match got.get(qi) {
                Some(nbs) => oracle.check(queries.point(qi), w.k, nbs),
                None => Err(format!(
                    "{} result rows for {} queries",
                    got.len(),
                    queries.len()
                )),
            };
            if let Err(why) = verdict {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("knnbench: call {call} query {qi} disagrees with the oracle: {why}");
                }
            }
        }
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer metrics from the traced calls of a `--trace 1` run.
fn layer_metrics(
    w: &Workload,
    traced: &[CallRecord],
    plain_ns: u64,
    plain_queries: u64,
    norms_ms: &[f64],
    ceiling: f64,
) -> Vec<Metric> {
    let calls = traced.len() as f64;
    let queries = calls * w.q as f64;
    let mut busy = [0f64; tracer::LAYERS];
    let mut spans = [0f64; tracer::LAYERS];
    let (mut lane_wall, mut self_ns, mut idle_ns, mut lanes) = (0f64, 0f64, 0f64, 0f64);
    let (mut blocks, mut pushed, mut rejected, mut wall) = (0f64, 0f64, 0f64, 0f64);
    let mut per_lane_busy: Vec<f64> = Vec::new();
    let mut violations = 0u64;
    for c in traced {
        let cw = c.wall_ns as f64;
        wall += cw;
        blocks += c.blocks as f64;
        pushed += c.pushed as f64;
        rejected += c.rejected as f64;
        violations += c.misattributed;
        for (li, lane) in c.lanes.iter().enumerate() {
            lanes += 1.0;
            lane_wall += cw;
            for l in 0..tracer::LAYERS {
                busy[l] += lane.busy_ns[l] as f64;
                spans[l] += lane.spans[l] as f64;
            }
            let b = lane.busy();
            // Spans nest inside their call and never overlap on a lane,
            // so a lane's busy time fits inside the call's wall time.
            if b > c.wall_ns || lane.active.is_some_and(|(_, last)| last > c.wall_ns) {
                violations += 1;
            }
            self_ns += cw - b as f64;
            idle_ns += cw - lane.active.map_or(0, |(first, last)| last - first) as f64;
            if per_lane_busy.len() <= li {
                per_lane_busy.resize(li + 1, 0.0);
            }
            per_lane_busy[li] += b as f64;
        }
    }
    let (fill, select, merge) = (
        busy[Layer::Fill as usize],
        busy[Layer::Select as usize],
        busy[Layer::Merge as usize],
    );
    let workers = lanes / calls;
    println!(
        "accounting: {} traced calls on {} worker lane(s); per lane and call, layer busy + pipeline self = call wall:",
        traced.len(),
        per_lane_busy.len()
    );
    for (li, b) in per_lane_busy.iter().enumerate() {
        let n = traced.iter().filter(|c| c.lanes.len() > li).count() as f64;
        let lane_wall: f64 = traced
            .iter()
            .filter(|c| c.lanes.len() > li)
            .map(|c| c.wall_ns as f64)
            .sum();
        let lane_queries: u64 = traced
            .iter()
            .filter_map(|c| c.lanes.get(li))
            .map(|l| l.queries)
            .sum();
        println!(
            "  worker {li}: busy {:.3} ms + self {:.3} ms = wall {:.3} ms per call; query_worker reports: {lane_queries}",
            b / n / 1e6,
            (lane_wall - b) / n / 1e6,
            lane_wall / n / 1e6
        );
    }
    println!(
        "accounting: {}",
        if violations == 0 {
            "ok — no lane's spans exceed its call, every query_worker report fired on its own worker".to_string()
        } else {
            format!(
                "FAILED — {violations} lane/call records break span nesting or worker attribution"
            )
        }
    );
    let mean_lane_busy = per_lane_busy.iter().sum::<f64>() / per_lane_busy.len() as f64;
    let max_lane_busy = per_lane_busy.iter().cloned().fold(0.0, f64::max);
    let gflops = queries * w.n as f64 * 2.0 * DIM as f64 / fill;
    let plain_per_query = plain_ns as f64 / plain_queries as f64;
    let traced_per_query = wall / queries;
    vec![
        m("distance.fill_ns_per_query", fill / queries, "ns"),
        m("distance.share", fill / lane_wall, "ratio"),
        m("distance.gflops", gflops, "GFLOP/s"),
        m("distance.ceiling_gflops", ceiling, "GFLOP/s"),
        m("distance.pct_of_ceiling", 100.0 * gflops / ceiling, "%"),
        // Bytes the fill touches per query, counted from the shapes: every
        // reference row and norm read once, one distance written per
        // reference. Computed, not measured.
        m(
            "distance.bytes_per_query_computed",
            (w.n * (DIM * 4 + 4 + 4) + DIM * 4) as f64,
            "B",
        ),
        m("distance.norms_ms_per_call", median(norms_ms), "ms"),
        m("select.ns_per_query", select / queries, "ns"),
        m("select.share", select / lane_wall, "ratio"),
        m(
            "select.calls_per_query",
            spans[Layer::Select as usize] / queries,
            "count",
        ),
        m(
            "select.ns_per_candidate",
            select / (queries * w.n as f64),
            "ns",
        ),
        m("merge.share", merge / lane_wall, "ratio"),
        m("merge.pushed_per_query", pushed / queries, "count"),
        m("merge.rejected_per_query", rejected / queries, "count"),
        m(
            "merge.useful_ratio",
            if pushed > 0.0 {
                (pushed - rejected) / pushed
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "schedule.utilization",
            (fill + select + merge) / lane_wall,
            "ratio",
        ),
        m(
            "schedule.imbalance",
            max_lane_busy / mean_lane_busy,
            "ratio",
        ),
        m("schedule.idle_ms_per_call", idle_ns / calls / 1e6, "ms"),
        m("schedule.blocks_per_call", blocks / calls, "count"),
        m("pipeline.self_ns_per_call", self_ns / calls / workers, "ns"),
        m(
            "trace.overhead_pct",
            100.0 * (traced_per_query / plain_per_query - 1.0),
            "%",
        ),
    ]
}

/// Attainable GFLOP/s of the dispatched fill kernel: `simd::fill_rows`
/// over reference rows that stay in L1, so memory never limits it. The
/// kernel keeps the library's non-FMA rounding contract, so this is the
/// ceiling the real fill can approach, not the machine's FMA peak.
fn ceiling_gflops(seed: u64) -> f64 {
    const ROWS: usize = 32;
    const PASSES: usize = 20_000;
    let refs = PointSet::uniform(ROWS, DIM, seed);
    let q = PointSet::uniform(1, DIM, seed ^ 1);
    let norms = knn::block::norms(&refs);
    let norm_q = knn::squared_norm(q.point(0));
    let mut out = [0.0f32; ROWS];
    let rates: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PASSES {
                knn::simd::fill_rows(
                    black_box(q.point(0)),
                    black_box(norm_q),
                    &refs,
                    &norms,
                    0,
                    &mut out,
                );
                black_box(&mut out);
            }
            (PASSES * ROWS * 2 * DIM) as f64 / t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&rates)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("knnbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let w = args.workload;
    let cfg = w.cfg();
    let seed = args.seed;

    println!(
        "knnbench: workload {} seed {} seconds {} trace {}",
        w.name, seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc {} | cpu {} | caches {} | simd {}",
        host::nproc(),
        host::cpu_model(),
        host::caches(),
        knn::dispatch_name()
    );
    println!(
        "shape: {} Q={} N={} dim={} k={} tile={} threads={} select=\"{}\"",
        w.entry_name(),
        w.q,
        w.n,
        DIM,
        w.k,
        DEFAULT_STREAM_TILE,
        w.workers(),
        cfg.label()
    );

    let mut tally = Tally {
        attempted: 0,
        checked: 0,
        failed: 0,
    };

    // Set-up: the reference set, a query batch and one warm-up call,
    // repeated on fresh references so nothing is reused between
    // repetitions; the last repetition's references are measured.
    let mut setup_s = Vec::new();
    let mut refs = None;
    for rep in 0..SETUP_REPS {
        drop(refs.take());
        let t0 = Instant::now();
        let r = PointSet::uniform(w.n, DIM, derive(seed, Stream::Refs, rep));
        let queries = PointSet::uniform(w.q, DIM, derive(seed, Stream::Warmup, rep));
        let out = black_box(w.search(&queries, &r, &cfg));
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.check(
            &mut Oracle::new(&r),
            w,
            seed,
            u64::MAX - rep,
            &queries,
            &out,
        );
        refs = Some(r);
    }
    let refs = refs.expect("set-up runs at least once");
    let mut oracle = Oracle::new(&refs);

    // Measured phase: back-to-back calls until `--seconds` of call time.
    // With tracing, even calls run plain and odd calls traced, so both
    // see the same drift in machine load.
    let budget_ns = (args.seconds * 1e9) as u64;
    let (mut measured_ns, mut plain_ns, mut plain_queries) = (0u64, 0u64, 0u64);
    let mut call_ms = Vec::new();
    let mut traced: Vec<CallRecord> = Vec::new();
    let mut norms_ms = Vec::new();
    let mut call = 0u64;
    while (measured_ns < budget_ns || (args.trace && traced.is_empty()))
        && started.elapsed().as_secs_f64() < WALL_CAP_S
    {
        let queries = PointSet::uniform(w.q, DIM, derive(seed, Stream::Call, call));
        let out = if args.trace && call % 2 == 1 {
            let tr = CallTrace::start(w.workers());
            let out = black_box(w.search_traced(black_box(&queries), &refs, &cfg, &tr));
            let record = tr.finish();
            measured_ns += record.wall_ns;
            traced.push(record);
            let t0 = Instant::now();
            w.norms(&queries, &refs);
            norms_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out
        } else {
            let t0 = Instant::now();
            let out = black_box(w.search(black_box(&queries), &refs, &cfg));
            let ns = t0.elapsed().as_nanos() as u64;
            measured_ns += ns;
            plain_ns += ns;
            plain_queries += w.q as u64;
            call_ms.push(ns as f64 / 1e6);
            out
        };
        tally.check(&mut oracle, w, seed, call, &queries, &out);
        call += 1;
    }

    // Heap probes: more calls of the same kind, untimed, each with the
    // allocator counting. Checked like every other call.
    let mut heap_mb = Vec::new();
    if !args.trace {
        for _ in 0..HEAP_PROBES {
            let queries = PointSet::uniform(w.q, DIM, derive(seed, Stream::Call, call));
            let (out, peak) = heap::call_peak(|| w.search(&queries, &refs, &cfg));
            heap_mb.push(peak);
            tally.check(&mut oracle, w, seed, call, &queries, &out);
            call += 1;
        }
    }

    let metrics = if args.trace {
        let ceiling = ceiling_gflops(derive(seed, Stream::Refs, u64::MAX));
        layer_metrics(w, &traced, plain_ns, plain_queries, &norms_ms, ceiling)
    } else {
        vec![
            // Queries per second at the median call. A burst of outside
            // load slows a minority of calls; the whole-phase mean moves
            // with every burst, the median does not (see README.md).
            m("qps", w.q as f64 / (median(&call_ms) / 1e3), "1/s"),
            m("call_ms_p50", median(&call_ms), "ms"),
            m("setup_s", median(&setup_s), "s"),
            m("call_heap_mb", median(&heap_mb), "MiB"),
        ]
    };

    println!(
        "calls: {} measured, {} set-up, {} heap probes; call-time samples {}; oracle checked {} of {} queries attempted, {} failed (error_rate {})",
        call - heap_mb.len() as u64,
        SETUP_REPS,
        heap_mb.len(),
        call_ms.len(),
        tally.checked,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted as f64
    );
    if !args.trace {
        println!(
            "qps over the whole measured phase {:.6} (not gated)",
            plain_queries as f64 / (plain_ns as f64 / 1e9)
        );
        // Printed, not gated: on a shared host the tail of short calls is
        // set by bursts of outside load, and its run-to-run spread is
        // wider than any useful bound (see README.md).
        for p in [0.90, 0.99] {
            let beyond = call_ms.len() - (p * call_ms.len() as f64).ceil() as usize;
            println!(
                "call_ms_p{:.0} {:.6} ms ({} samples, {beyond} beyond it; not gated)",
                p * 100.0,
                percentile(&call_ms, p),
                call_ms.len()
            );
        }
        // Printed, not gated: it moves with which thread's allocator
        // arena the results landed in (see `heap.rs`).
        match host::peak_rss_mb() {
            Some(rss) => println!("peak resident set {rss:.6} MiB (VmHWM; not gated)"),
            None => println!("peak resident set unknown (not gated)"),
        }
    }
    for x in &metrics {
        println!("{:<36} {:>16.6} {}", x.name, x.value, x.unit);
    }
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        eprintln!("knnbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        json(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
