//! Command implementations for `knn-cli`.

use std::path::Path;
use std::time::Instant;

use knn::{validate_points, PointSet};
use kselect::gpu::{gpu_select_k, DistanceMatrix, GpuResilience};
use kselect::{select_k, KnnError, QueueKind, SelectConfig};
use rand::{Rng, SeedableRng};
use simt::TimingModel;
use trace::{EventJournal, Journal as _, JournalConfig, MetricsRegistry, QueryRecord};

use crate::args::{
    BenchArgs, Command, FaultArgs, JournalArgs, ProfileArgs, SearchArgs, ServeArgs, Sinks,
    StatsArgs,
};
use crate::io;

/// Round k up to a valid Merge Queue capacity (m·2^j with the fixed
/// m = 8 of [`SelectConfig`]) so the simulated kernels accept any k for
/// any queue; extra entries are trimmed after selection. The native
/// search takes k as given; its [`knn::Index`] checks it.
fn padded_k(queue: QueueKind, k: usize) -> usize {
    match queue {
        QueueKind::Merge => kselect::queues::merge::padded_capacity(k, 8),
        _ => k,
    }
}

/// [`padded_k`] checked by [`SelectConfig::validate`] against the `n`
/// candidates it selects from. A zero k, or a padded k larger than `n`,
/// prints the typed [`KnnError`] and returns `None` (the caller exits 1)
/// instead of panicking inside the queue.
fn checked_padded_k(queue: QueueKind, k: usize, n: usize) -> Option<usize> {
    let kk = if k == 0 { 0 } else { padded_k(queue, k) };
    let Err(e) = SelectConfig::optimized(queue, kk).validate(n) else {
        return Some(kk);
    };
    let padded = if kk != k {
        format!(" (k = {k} padded to {kk} for the {queue:?} queue)")
    } else {
        String::new()
    };
    eprintln!("error: {}: {e}{padded}", e.name());
    None
}

/// Print a run-time [`KnnError`] and return exit code 1.
fn failed(e: KnnError) -> i32 {
    eprintln!("error: {}: {e}", e.name());
    1
}

/// Write `body` to `path`; on failure say so on stderr and return
/// `false`.
fn write_file(path: &Path, body: String) -> bool {
    let res = std::fs::write(path, body);
    if let Err(e) = &res {
        eprintln!("error writing {}: {e}", path.display());
    }
    res.is_ok()
}

/// A metrics snapshot as written to `path`: OpenMetrics text exposition
/// by default, a JSON snapshot when the filename ends in `.json`.
fn metrics_body(path: &Path, snap: &trace::MetricsSnapshot) -> String {
    if path.extension().is_some_and(|e| e == "json") {
        snap.to_json()
    } else {
        trace::openmetrics::render(snap)
    }
}

/// A timeline report as written to `path`: a Chrome trace (one `tid`
/// per worker, open in ui.perfetto.dev) when the filename ends in
/// `.trace.json`, the versioned [`trace::TimelineReport`] JSON
/// otherwise.
fn timeline_body(path: &Path, report: &trace::TimelineReport) -> String {
    if path
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.ends_with(".trace.json"))
    {
        trace::chrome::timeline_to_chrome_json(report)
    } else {
        report.to_json()
    }
}

/// Per-worker utilization table over a folded timeline report — the
/// `report --timeline` view, also printed after `--timeline-out`
/// writes so a run's balance is visible without a second command.
fn render_timeline_table(r: &trace::TimelineReport) -> String {
    use std::fmt::Write as _;
    use trace::openmetrics::human_ns;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: wall {} | {} block(s) | pool utilization {:.1}% | imbalance {:.2}",
        human_ns(r.wall_ns as f64),
        r.blocks_total,
        r.utilization * 100.0,
        r.imbalance,
    );
    let _ = writeln!(
        out,
        "  {:<3} {:<10} {:>12} {:>12} {:>7} {:>7} {:>7} {:>12}",
        "w", "name", "busy", "idle", "util", "blocks", "tiles", "scratch"
    );
    for lane in &r.lanes {
        let _ = writeln!(
            out,
            "  {:<3} {:<10} {:>12} {:>12} {:>6.1}% {:>7} {:>7} {:>10} B",
            lane.worker,
            lane.name,
            human_ns(lane.busy_ns as f64),
            human_ns(lane.idle_ns as f64),
            lane.utilization * 100.0,
            lane.blocks,
            lane.tiles,
            lane.scratch_peak_bytes,
        );
    }
    out
}

/// The recorder `--timeline-out` asks for, one track per worker.
fn timeline_recorder(sinks: &Sinks, workers: usize) -> Option<trace::TimelineRecorder> {
    sinks
        .timeline_out
        .as_ref()
        .map(|_| trace::TimelineRecorder::new(workers))
}

/// Write the artifacts `sinks` asks for: the timeline (plus its
/// utilization table), the metrics snapshot with that timeline embedded,
/// and the journal. Every "wrote …" line goes to stderr, so `--json`
/// stdout stays parseable. Returns `false` on the first I/O failure.
fn write_artifacts(
    sinks: &Sinks,
    registry: Option<&MetricsRegistry>,
    timeline: Option<&trace::TimelineReport>,
    journal: Option<&EventJournal>,
) -> bool {
    if let (Some(path), Some(report)) = (&sinks.timeline_out, timeline) {
        if !write_file(path, timeline_body(path, report)) {
            return false;
        }
        eprintln!("wrote timeline to {}", path.display());
        eprint!("{}", render_timeline_table(report));
    }
    if let (Some(path), Some(reg)) = (&sinks.metrics_out, registry) {
        let mut snap = reg.snapshot();
        snap.timeline = timeline.cloned();
        if !write_file(path, metrics_body(path, &snap)) {
            return false;
        }
        eprintln!("wrote metrics to {}", path.display());
    }
    journal.is_none_or(|j| write_journal(&sinks.journal, j))
}

/// Record the resolved runtime configuration as snapshot gauges/labels,
/// so an exported metrics file says how the run was actually executed
/// (`--threads 0` resolves to the detected count, and the SIMD kernel
/// is picked at startup).
fn record_runtime_config(reg: &MetricsRegistry, workers: usize) {
    reg.set_gauge("knn.threads", workers as f64);
    reg.set_label("knn.simd_dispatch", knn::dispatch_name());
}

/// Build an [`EventJournal`] from the CLI flags; `None` when
/// `--journal-out` was not given, so callers take the `NullJournal`
/// (zero-cost) path instead.
fn make_journal(a: &JournalArgs) -> Option<EventJournal> {
    a.out.as_ref().map(|_| {
        EventJournal::new(JournalConfig {
            sample: a.sample,
            exemplars: a.exemplars,
            ..JournalConfig::default()
        })
    })
}

/// Write a finished journal to its `--journal-out` path and say how much
/// of the run it kept (on stderr, so `--json` stdout stays parseable).
/// Returns `false` on I/O failure.
fn write_journal(a: &JournalArgs, j: &EventJournal) -> bool {
    let Some(path) = &a.out else { return true };
    let records = j.snapshot();
    if !write_file(path, trace::journal::to_jsonl(&records)) {
        return false;
    }
    let s = j.stats();
    eprintln!(
        "wrote {} journal record(s) to {} (saw {}, sampled {}, evicted {})",
        records.len(),
        path.display(),
        s.seen,
        s.sampled_in,
        s.evicted,
    );
    true
}

/// The warning `profile` prints when a tracer finished with spans still
/// open — exported Chrome/JSONL traces would be structurally malformed
/// (unclosed spans render with zero duration or swallow their siblings),
/// so we say so instead of silently emitting them.
fn tracer_imbalance_warning(tracer: &trace::Tracer) -> Option<String> {
    if tracer.is_balanced() {
        None
    } else {
        Some(format!(
            "warning: tracer finished with {} open span(s); the exported trace is \
             malformed — treat span durations as unreliable",
            tracer.open_depth()
        ))
    }
}

/// Execute a parsed command, writing human-readable output to stdout.
/// Returns a process exit code.
pub fn run(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", crate::args::USAGE);
            0
        }
        Command::Generate {
            count,
            dim,
            seed,
            out,
        } => run_generate(count, dim, seed, &out),
        Command::Search(a) => run_search(a),
        Command::Bench(a) => run_bench(a),
        Command::Stats(a) => run_stats(a),
        Command::Simulate { n, k, queue } => run_simulate(n, k, queue),
        Command::Profile(a) => run_profile(a),
        Command::Faults(a) => run_faults(a),
        Command::Serve(a) => run_serve(a),
        Command::Report {
            journal,
            top,
            timeline,
        } => run_report(journal.as_deref(), top, timeline.as_deref()),
    }
}

fn run_generate(count: usize, dim: usize, seed: u64, out: &Path) -> i32 {
    let pts = PointSet::uniform(count, dim, seed);
    if let Err(e) = io::save_points(out, &pts) {
        eprintln!("error: {e}");
        return 1;
    }
    println!(
        "wrote {count} × {dim}-d points ({} bytes) to {}",
        count * dim * 4,
        out.display()
    );
    0
}

fn run_search(a: SearchArgs) -> i32 {
    let load = |path: &Path, what: &str| {
        io::load_points(path, a.dim).map_err(|e| eprintln!("error loading {what}: {e}"))
    };
    let (Ok(refs), Ok(queries)) = (load(&a.refs, "refs"), load(&a.queries, "queries")) else {
        return 1;
    };
    for (pts, label) in [(&queries, "query"), (&refs, "reference")] {
        if let Err(e) = validate_points(pts, label) {
            return failed(e);
        }
    }
    let index = match knn::Index::new(&refs) {
        Ok(index) => index,
        Err(e) => return failed(e),
    };
    let registry = a.sinks.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    let jn = make_journal(&a.sinks.journal);
    let workers = knn::resolve_threads(a.threads);
    let metric = a.metric;
    if let Some(reg) = &registry {
        record_runtime_config(reg, workers);
    }
    let tl_rec = timeline_recorder(&a.sinks, workers);
    let tlo = tl_rec.as_ref().map(knn::metered::TimelineObserver::new);
    let ins = knn::Instruments {
        registry: registry.as_ref(),
        journal: jn.as_ref().map(|j| j as &dyn trace::Journal),
        timeline: tlo.as_ref(),
        tag: "search",
    };
    let plan = knn::SearchPlan::new(a.k)
        .with_metric(metric)
        .with_threads(workers);
    let t0 = Instant::now();
    let results = match knn::knn_search_streamed_instrumented(&index, &queries, &plan, &ins) {
        Ok(results) => results,
        Err(e) => return failed(e),
    };
    let dt = t0.elapsed().as_secs_f64();
    let tl_report = tlo.as_ref().map(|tl| tl.report());
    if !write_artifacts(&a.sinks, registry.as_ref(), tl_report.as_ref(), jn.as_ref()) {
        return 1;
    }
    if a.json {
        let rows: Vec<Vec<(u32, f32)>> = results
            .iter()
            .map(|r| r.iter().map(|n| (n.id, n.dist)).collect())
            .collect();
        match serde_json::to_string(&rows) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("error serializing results: {e}");
                return 1;
            }
        }
    } else {
        println!(
            "{} queries × {} refs (dim {}, {metric:?}) in {:.1} ms \
             [kernel {}, threads {workers}]",
            queries.len(),
            refs.len(),
            a.dim,
            dt * 1e3,
            knn::dispatch_name(),
        );
        for (qi, r) in results.iter().enumerate() {
            let ids: Vec<u32> = r.iter().map(|n| n.id).collect();
            println!("query {qi}: {ids:?}");
        }
    }
    0
}

fn run_bench(a: BenchArgs) -> i32 {
    let (n, k, queue) = (a.n, a.k, a.queue);
    // The selection microbenchmark itself is single-query serial;
    // --threads is recorded for report parity with the pipeline
    // commands (and resolved, so `--threads 0` shows the detected
    // count).
    let workers = knn::resolve_threads(a.threads);
    println!(
        "native kernel: {} | threads: {workers}",
        knn::dispatch_name()
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let dists: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
    let Some(kk) = checked_padded_k(queue, k, n) else {
        return 1;
    };
    let registry = a.sinks.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    let jn = make_journal(&a.sinks.journal);
    // The bench is single-threaded, so its timeline is one
    // track with one service span per configuration — useful
    // mostly as a schema-stable artifact for tooling tests.
    let tl_rec = timeline_recorder(&a.sinks, 1);
    let tlo = tl_rec.as_ref().map(knn::metered::TimelineObserver::new);
    let mut iter_id = 0u64;
    for (run_idx, (label, metric_name, cfg)) in [
        (
            "plain",
            "bench.plain.select_ns",
            SelectConfig::plain(queue, kk),
        ),
        (
            "optimized (buf+hp)",
            "bench.optimized.select_ns",
            SelectConfig::optimized(queue, kk),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let t0 = Instant::now();
        let iters = 10;
        let mut run_iters = || {
            for _ in 0..iters {
                let ti = (registry.is_some() || jn.is_some()).then(Instant::now);
                std::hint::black_box(select_k(std::hint::black_box(&dists), &cfg));
                if let Some(ti) = ti {
                    let ns = ti.elapsed().as_nanos() as u64;
                    if let Some(reg) = &registry {
                        reg.observe_ns(metric_name, ns);
                    }
                    // One journal record per select call: bench has no
                    // per-query pipeline, so the whole iteration is its
                    // "select" phase.
                    if let Some(j) = &jn {
                        j.record(QueryRecord {
                            query: iter_id,
                            queue: format!("{queue:?}").to_lowercase(),
                            tag: label.to_string(),
                            total_ns: ns,
                            phase_ns: vec![(trace::journal::phases::SELECT.to_string(), ns)],
                            blocks: 1,
                            status: "ok".to_string(),
                            attempts: 1,
                            ..QueryRecord::default()
                        });
                        iter_id += 1;
                    }
                }
            }
        };
        match &tlo {
            Some(tl) => tl.service(0, run_idx as u64, run_iters),
            None => run_iters(),
        }
        let per = t0.elapsed().as_secs_f64() / iters as f64;
        println!(
            "{:<20} n={n} k={k}: {:>9.3} ms/query ({:.1} Melem/s)",
            label,
            per * 1e3,
            n as f64 / per / 1e6
        );
    }
    if let Some(reg) = &registry {
        reg.set_gauge("bench.n", n as f64);
        reg.set_gauge("bench.k", k as f64);
        reg.set_gauge("bench.threads", workers as f64);
        record_runtime_config(reg, workers);
    }
    let tl_report = tlo.as_ref().map(|tl| tl.report());
    if !write_artifacts(&a.sinks, registry.as_ref(), tl_report.as_ref(), jn.as_ref()) {
        return 1;
    }
    0
}

fn run_simulate(n: usize, k: usize, queue: QueueKind) -> i32 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let flat: Vec<f32> = (0..32 * n).map(|_| rng.gen()).collect();
    let dm = DistanceMatrix::from_row_major(&flat, 32, n);
    let tm = TimingModel::tesla_c2075();
    let Some(kk) = checked_padded_k(queue, k, n) else {
        return 1;
    };
    println!("simulated Tesla C2075, one warp (32 queries), n={n} k={k}\n");
    let reports: Vec<simt::KernelReport> = [
        ("plain", SelectConfig::plain(queue, kk)),
        (
            "optimized (aligned+buf+hp)",
            SelectConfig::optimized(queue, kk),
        ),
    ]
    .into_iter()
    .map(|(label, cfg)| {
        let res = gpu_select_k(&tm.spec, &dm, &cfg);
        simt::KernelReport::new(label, &res.metrics, &tm)
    })
    .collect();
    print!("{}", simt::comparison_table(&reports));
    0
}

fn run_profile(a: ProfileArgs) -> i32 {
    const DIM: usize = 16;
    let (n, k, queries, queue) = (a.n, a.k, a.queries, a.queue);
    let refs = PointSet::uniform(n, DIM, 11);
    let qs = PointSet::uniform(queries, DIM, 12);
    let tm = TimingModel::tesla_c2075();
    let Some(kk) = checked_padded_k(queue, k, n) else {
        return 1;
    };
    let cfg = SelectConfig::optimized(queue, kk);
    let mut tracer = trace::Tracer::new();
    let res = knn::gpu_knn_traced(&tm, &qs, &refs, &cfg, &mut tracer);
    println!(
        "profiled {queries} queries × {n} refs (dim {DIM}, {queue:?}, k={k}): \
         distance {:.3} ms + select {:.3} ms simulated\n",
        res.distance_time * 1e3,
        res.select_time * 1e3
    );
    print!("{}", trace::summary::render_summary(&tracer));
    if let Some(w) = tracer_imbalance_warning(&tracer) {
        eprintln!("{w}");
    }
    if let Some(path) = &a.trace_out {
        if !write_file(path, trace::chrome::to_chrome_json(&tracer)) {
            return 1;
        }
        println!(
            "\nwrote Chrome trace to {} (open in ui.perfetto.dev)",
            path.display()
        );
    }
    if let Some(path) = &a.jsonl_out {
        if !write_file(path, trace::jsonl::to_jsonl(&tracer)) {
            return 1;
        }
        println!("wrote JSONL event log to {}", path.display());
    }
    0
}

/// Tile sizes the `stats` sweep covers — the same span the wallclock
/// bench's `--sweep-tiles` mode walks.
const STATS_TILES: [usize; 4] = [1024, 2048, 4096, 8192];

/// `knn-cli stats`: run the native streamed pipeline at every tile of
/// [`STATS_TILES`] with the metrics registry attached, print per-tile
/// QPS plus the aggregated latency histograms, and optionally export
/// the registry snapshot. The search is one [`knn::SearchPlan`] per
/// tile; a bad k prints the index's typed error.
fn run_stats(a: StatsArgs) -> i32 {
    let (n, dim, k, queries) = (a.n, a.dim, a.k, a.queries);
    let index = match knn::Index::new(PointSet::uniform(n, dim, 11)) {
        Ok(index) => index,
        Err(e) => return failed(e),
    };
    let qs = PointSet::uniform(queries, dim, 12);
    let workers = knn::resolve_threads(a.threads);
    let reg = MetricsRegistry::new();
    record_runtime_config(&reg, workers);
    let jn = make_journal(&a.sinks.journal);
    // One recorder + observer across the whole sweep: every tile lands
    // on the same per-worker tracks, with inter-tile gaps showing up as
    // idle time.
    let tl_rec = timeline_recorder(&a.sinks, workers);
    let tlo = tl_rec.as_ref().map(knn::metered::TimelineObserver::new);
    let ins = knn::Instruments {
        registry: Some(&reg),
        journal: jn.as_ref().map(|j| j as &dyn trace::Journal),
        timeline: tlo.as_ref(),
        tag: "stats",
    };
    println!(
        "native streamed pipeline: {queries} queries × {n} refs (dim {dim}, k={k}) \
         [kernel {}, threads {workers}]\n",
        knn::dispatch_name()
    );
    println!("{:>6} {:>12} {:>14}", "tile", "qps", "ms total");
    for tile in STATS_TILES {
        let plan = knn::SearchPlan::new(k)
            .with_tile(tile)
            .with_threads(workers);
        let t0 = Instant::now();
        let out = knn::knn_search_streamed_instrumented(&index, &qs, &plan, &ins);
        let dt = t0.elapsed().as_secs_f64();
        if let Err(e) = std::hint::black_box(out) {
            return failed(e);
        }
        println!(
            "{:>6} {:>12.1} {:>14.2}",
            tile,
            queries as f64 / dt,
            dt * 1e3
        );
    }
    let tl_report = tlo.as_ref().map(|tl| tl.report());
    let mut snap = reg.snapshot();
    snap.timeline = tl_report.clone();
    println!();
    print!("{}", trace::openmetrics::render_table(&snap));
    if !write_artifacts(&a.sinks, Some(&reg), tl_report.as_ref(), jn.as_ref()) {
        return 1;
    }
    0
}

/// Run one deterministic fault campaign per seed and check every
/// delivered result against the fault-free oracle. Exit 0: every
/// campaign recovered or failed loudly. Exit 1: a named error (e.g.
/// `faults-not-compiled` for kernel faults in a default build). Exit 2:
/// silent corruption — a delivered result disagreed with the oracle,
/// which the resilience layer promises never happens.
fn run_faults(a: FaultArgs) -> i32 {
    const DIM: usize = 16;
    let refs = PointSet::uniform(a.n, DIM, 11);
    let qs = PointSet::uniform(a.queries, DIM, 12);
    let tm = TimingModel::tesla_c2075();
    let Some(kk) = checked_padded_k(a.queue, a.k, a.n) else {
        return 1;
    };
    let cfg = SelectConfig::optimized(a.queue, kk);
    let oracle = knn::gpu_knn(&tm, &qs, &refs, &cfg);
    println!(
        "fault campaigns: {} seeds × ({} queries × {} refs, {:?}, k={}) \
         [aborts {} hangs {} bitflips {} pcie {}/{}] attempts={} (fault hooks: {})\n",
        a.seeds,
        a.queries,
        a.n,
        a.queue,
        a.k,
        a.aborts,
        a.hangs,
        a.bitflips,
        a.pcie_stall,
        a.pcie_corrupt,
        a.attempts,
        if simt::fault::compiled() { "on" } else { "off" },
    );

    let jn = make_journal(&a.journal);
    let mut totals = kselect::gpu::ResilienceCounters::default();
    let mut corrupted = 0usize;
    for s in a.seed..a.seed + a.seeds {
        let plan = simt::FaultPlan::seeded(s)
            .with_aborts(a.aborts)
            .with_hangs(a.hangs)
            .with_bitflips(a.bitflips)
            .with_pcie(a.pcie_stall, a.pcie_corrupt);
        let res = GpuResilience {
            max_attempts: a.attempts,
            ..GpuResilience::default()
        }
        .with_faults(plan);
        let run = match &jn {
            Some(j) => knn::gpu_knn_resilient_journaled(
                &tm,
                &qs,
                &refs,
                &cfg,
                &res,
                j,
                &format!("seed{s}"),
            ),
            None => knn::gpu_knn_resilient(&tm, &qs, &refs, &cfg, &res),
        };
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: seed {s}: {}: {e}", e.name());
                eprintln!(
                    "{{\"verdict\":\"error\",\"error\":\"{}\",\"seed\":{s}}}",
                    e.name()
                );
                return 1;
            }
        };
        for (qi, got) in out.neighbors.iter().enumerate() {
            if let Some(got) = got {
                if got != &oracle.neighbors[qi] {
                    eprintln!("SILENT CORRUPTION: seed {s} query {qi} differs from oracle");
                    corrupted += 1;
                }
            }
        }
        let r = &out.report;
        println!(
            "seed {s}: ok {} recovered {} fallback {} failed {} | retries {} aborts {} \
             watchdog {} bitflips {} pcie-stalls {} pcie-corrupt {} | backoff {:.3} us",
            r.ok_count(),
            r.recovered_count(),
            r.fallback_count(),
            r.failed_count(),
            r.counters.retries,
            r.counters.aborts,
            r.counters.watchdog_timeouts,
            r.counters.bitflips_injected,
            r.counters.pcie_stalls,
            r.counters.pcie_corruptions,
            r.backoff_s * 1e6,
        );
        totals.merge(&r.counters);
    }
    println!(
        "\ntotals: retries {} fallbacks {} aborts {} watchdog {} panics {} validation {} \
         bitflips {} pcie-stalls {} pcie-corrupt {}",
        totals.retries,
        totals.fallbacks,
        totals.aborts,
        totals.watchdog_timeouts,
        totals.panics,
        totals.validation_failures,
        totals.bitflips_injected,
        totals.pcie_stalls,
        totals.pcie_corruptions,
    );
    if let Some(j) = &jn {
        if !write_journal(&a.journal, j) {
            return 1;
        }
    }
    // One-line machine-readable verdict on stderr, so CI can gate on
    // the campaign without scraping the human-readable stdout report.
    eprintln!(
        "{{\"verdict\":\"{}\",\"seeds\":{},\"corrupted\":{corrupted},\"retries\":{},\
         \"fallbacks\":{},\"aborts\":{},\"watchdog\":{},\"panics\":{},\
         \"validation_failures\":{},\"bitflips\":{},\"pcie_stalls\":{},\
         \"pcie_corruptions\":{}}}",
        if corrupted > 0 {
            "silent-corruption"
        } else {
            "clean"
        },
        a.seeds,
        totals.retries,
        totals.fallbacks,
        totals.aborts,
        totals.watchdog_timeouts,
        totals.panics,
        totals.validation_failures,
        totals.bitflips_injected,
        totals.pcie_stalls,
        totals.pcie_corruptions,
    );
    if corrupted > 0 {
        eprintln!("{corrupted} silently corrupted result(s)");
        return 2;
    }
    println!("no silent corruption: every delivered top-k matches the fault-free oracle");
    0
}

/// Drive a deterministic overload campaign through the serving layer.
/// Exit 0: campaign completed with clean accounting. Exit 1: a named
/// error (bad config, kernel faults without the `fault` feature).
/// Exit 2: the zero-unaccounted-requests invariant was violated —
/// some offered request never reached a terminal outcome, which the
/// serving layer promises never happens.
fn run_serve(a: ServeArgs) -> i32 {
    let faults = a.fault_plan.map(|f| {
        simt::FaultPlan::seeded(a.seed)
            .with_aborts(f.aborts)
            .with_hangs(f.hangs)
            .with_bitflips(f.bitflips)
            .with_pcie(f.pcie_stall, f.pcie_corrupt)
    });
    // The simulated kernels calibrate a padded Merge k; the native
    // search takes k as given.
    if checked_padded_k(QueueKind::Merge, a.k, a.n).is_none() {
        return 1;
    }
    let cfg = serve::ServeConfig {
        n: a.n,
        dim: a.dim,
        k: a.k,
        queries_per_request: a.queries,
        seed: a.seed,
        duration_s: a.duration,
        process: a.arrivals,
        rate_hz: a.rate,
        load: a.load,
        deadline_s: a.deadline,
        deadline_factor: a.deadline_factor,
        capacity: a.capacity,
        policy: a.policy,
        large_tile: a.tile,
        sample_stride: a.stride,
        threads: a.threads,
        faults,
        ..serve::ServeConfig::default()
    };
    let reg = MetricsRegistry::new();
    record_runtime_config(&reg, knn::resolve_threads(a.threads));
    let jn = make_journal(&a.sinks.journal);
    // Serving timelines run on the simulated clock: track 0 is the
    // server, track 1 the admission queue (see `serve::run`).
    let tl_rec = a
        .sinks
        .timeline_out
        .as_ref()
        .map(|_| trace::TimelineRecorder::with_names(&["server", "queue"]));
    let summary = match &jn {
        Some(j) => serve::run(&cfg, &reg, j, tl_rec.as_ref()),
        None => serve::run(&cfg, &reg, &trace::NullJournal, tl_rec.as_ref()),
    };
    let s = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", e.name());
            return 1;
        }
    };
    // Fold on the campaign's simulated wall span; the same seconds →
    // nanoseconds scale the engine stamps spans with.
    let tl_report = tl_rec
        .as_ref()
        .map(|rec| rec.report((s.sim_end_s * 1e9) as u64));
    println!(
        "serve: {} requests over {:.6} sim-s ({} arrivals @ {:.1} req/s, load {:.2}x, \
         deadline {:.1} us, queue {} [{}], faults: {})",
        s.offered,
        s.sim_end_s,
        a.arrivals.name(),
        s.rate_hz,
        a.rate.map_or(a.load, |r| r * s.exact_service_s),
        s.deadline_s * 1e6,
        a.capacity,
        a.policy.name(),
        if cfg.faults.is_some() { "on" } else { "off" },
    );
    println!(
        "  calibration: full-exact service {:.1} us/request",
        s.exact_service_s * 1e6
    );
    println!(
        "  outcomes: served-exact {} | served-degraded large-tile {} sampled {} \
         (recall bound {:.2}) | shed {} | deadline-exceeded {} | failed {}",
        s.served_exact,
        s.served_degraded_large_tile,
        s.served_degraded_sampled,
        s.sampled_recall_bound,
        s.shed,
        s.deadline_exceeded,
        s.failed,
    );
    println!(
        "  breaker: {} trips, {} recoveries, worst step {} | queue peak depth {}",
        s.breaker_trips,
        s.breaker_recoveries,
        s.worst_step.name(),
        s.queue_peak_depth,
    );
    if !write_artifacts(&a.sinks, Some(&reg), tl_report.as_ref(), jn.as_ref()) {
        return 1;
    }
    if a.json {
        println!(
            "{{\"offered\":{},\"served_exact\":{},\"served_degraded_large_tile\":{},\
             \"served_degraded_sampled\":{},\"shed\":{},\"deadline_exceeded\":{},\
             \"failed\":{},\"breaker_trips\":{},\"breaker_recoveries\":{},\
             \"worst_step\":\"{}\",\"queue_peak_depth\":{},\"shed_rate\":{:.6},\
             \"accounted\":{}}}",
            s.offered,
            s.served_exact,
            s.served_degraded_large_tile,
            s.served_degraded_sampled,
            s.shed,
            s.deadline_exceeded,
            s.failed,
            s.breaker_trips,
            s.breaker_recoveries,
            s.worst_step.name(),
            s.queue_peak_depth,
            s.shed_rate(),
            s.accounted(),
        );
    }
    if let Err(msg) = s.verify() {
        eprintln!("UNACCOUNTED REQUESTS: {msg}");
        return 2;
    }
    println!("accounting clean: every offered request reached exactly one outcome");
    0
}

/// Nearest-rank quantile over records already sorted by `total_ns`.
fn total_quantile(sorted: &[QueryRecord], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].total_ns
}

/// Mean nanoseconds per phase across a cohort, the `query` envelope
/// excluded (it duplicates `total_ns`). Queries that never entered a
/// phase contribute zero to its mean, so the means of one cohort sum to
/// (at most) its mean total latency and are comparable across cohorts.
fn cohort_phase_means(cohort: &[&QueryRecord]) -> std::collections::BTreeMap<String, f64> {
    let mut sums: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for r in cohort {
        for (name, ns) in &r.phase_ns {
            if name != trace::journal::phases::QUERY {
                *sums.entry(name.clone()).or_default() += *ns as f64;
            }
        }
    }
    for v in sums.values_mut() {
        *v /= cohort.len() as f64;
    }
    sums
}

/// Render the `report` command's output over parsed journal records:
/// overall latency quantiles, per-phase tail attribution (the p99 cohort
/// against the p50 cohort), a status/retry breakdown and a drill-down
/// into the slowest queries.
fn render_report(records: &mut [QueryRecord], top: usize) -> String {
    use std::fmt::Write as _;
    use trace::openmetrics::human_ns;

    records.sort_by_key(|r| r.total_ns);
    let n = records.len();
    let (p50, p95, p99) = (
        total_quantile(records, 0.50),
        total_quantile(records, 0.95),
        total_quantile(records, 0.99),
    );
    let mut out = String::new();
    let _ = writeln!(out, "{n} record(s)");
    let _ = writeln!(
        out,
        "total latency: p50 {}  p95 {}  p99 {}  max {}\n",
        human_ns(p50 as f64),
        human_ns(p95 as f64),
        human_ns(p99 as f64),
        human_ns(records[n - 1].total_ns as f64),
    );

    // Tail attribution: where does the p99 cohort spend its extra time
    // relative to the median cohort?
    let fast: Vec<&QueryRecord> = records.iter().filter(|r| r.total_ns <= p50).collect();
    let slow: Vec<&QueryRecord> = records.iter().filter(|r| r.total_ns >= p99).collect();
    let fast_means = cohort_phase_means(&fast);
    let slow_means = cohort_phase_means(&slow);
    let slow_total: f64 = slow_means.values().sum();
    let _ = writeln!(
        out,
        "per-phase tail attribution ({} p50-cohort vs {} p99-cohort queries):",
        fast.len(),
        slow.len()
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>14} {:>14} {:>14} {:>7}",
        "phase", "p50 mean", "p99 mean", "excess", "share"
    );
    let mut dominant: Option<(&str, f64)> = None;
    for (phase, slow_mean) in &slow_means {
        let fast_mean = fast_means.get(phase).copied().unwrap_or(0.0);
        let share = if slow_total > 0.0 {
            slow_mean / slow_total
        } else {
            0.0
        };
        if dominant.is_none_or(|(_, best)| *slow_mean > best) {
            dominant = Some((phase, *slow_mean));
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>14} {:>14} {:>14} {:>6.1}%",
            phase,
            human_ns(fast_mean),
            human_ns(*slow_mean),
            human_ns(slow_mean - fast_mean),
            share * 100.0,
        );
    }
    if let Some((phase, mean)) = dominant {
        let share = if slow_total > 0.0 {
            mean / slow_total * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  tail dominated by: {phase} ({share:.1}% of p99-cohort time)\n"
        );
    }

    // Status / retry breakdown.
    let mut statuses: std::collections::BTreeMap<&str, (usize, u64)> =
        std::collections::BTreeMap::new();
    for r in records.iter() {
        let status = if r.status.is_empty() { "ok" } else { &r.status };
        let e = statuses.entry(status).or_default();
        e.0 += 1;
        e.1 += u64::from(r.attempts);
    }
    let _ = writeln!(out, "status breakdown:");
    for (status, (count, attempts)) in &statuses {
        let _ = writeln!(
            out,
            "  {:<10} {:>6} ({:>5.1}%)  mean attempts {:.2}",
            status,
            count,
            *count as f64 / n as f64 * 100.0,
            *attempts as f64 / *count as f64,
        );
    }
    let retried = records.iter().filter(|r| r.attempts > 1).count();
    let _ = writeln!(
        out,
        "  retried queries: {retried} ({:.1}%)\n",
        retried as f64 / n as f64 * 100.0
    );

    // Slowest-query drill-down.
    let shown = top.min(n);
    let _ = writeln!(out, "slowest {shown} of {n}:");
    let _ = writeln!(
        out,
        "  {:<6} {:<10} {:>12} {:<12} {:<10} {:>8} {:>8} {:>8}",
        "query", "tag", "total", "dominant", "status", "attempts", "push", "reject"
    );
    for r in records.iter().rev().take(shown) {
        let _ = writeln!(
            out,
            "  {:<6} {:<10} {:>12} {:<12} {:<10} {:>8} {:>8} {:>8}{}",
            r.query,
            r.tag,
            human_ns(r.total_ns as f64),
            r.dominant_phase().map_or("-", |(name, _)| name),
            if r.status.is_empty() { "ok" } else { &r.status },
            r.attempts,
            r.merge_push,
            r.merge_reject,
            if r.exemplar { "  [exemplar]" } else { "" },
        );
    }
    out
}

/// `knn-cli report [JOURNAL.jsonl] [--timeline FILE]`: read a journal
/// written by `--journal-out` and print tail attribution, status
/// breakdown and the slowest queries; read a timeline written by
/// `--timeline-out` and print its per-worker utilization table. Exit 2
/// when an input is missing, malformed or empty — the artifact itself
/// is unusable, which is a different failure from a violated
/// expectation inside a valid one. (The parser guarantees at least one
/// of the two paths is present.)
fn run_report(path: Option<&Path>, top: usize, timeline: Option<&Path>) -> i32 {
    if let Some(tpath) = timeline {
        let Some(report) = read_artifact(tpath, trace::TimelineReport::from_json) else {
            return 2;
        };
        println!("timeline report: {}", tpath.display());
        print!("{}", render_timeline_table(&report));
        if path.is_some() {
            println!();
        }
    }
    let Some(path) = path else { return 0 };
    let Some(mut records) = read_artifact(path, trace::journal::parse_jsonl) else {
        return 2;
    };
    if records.is_empty() {
        eprintln!("error: {} holds no records", path.display());
        return 2;
    }
    print!(
        "journal report: {} — {}",
        path.display(),
        render_report(&mut records, top)
    );
    0
}

/// Read and parse an artifact written by an earlier run; on failure say
/// which step failed on stderr and return `None`.
fn read_artifact<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let parsed = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).map_err(|e| format!("error parsing {}: {e}", path.display())),
        Err(e) => Err(format!("error reading {}: {e}", path.display())),
    };
    parsed.map_err(|msg| eprintln!("{msg}")).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn::Metric;

    /// `stats` over 8-d points.
    fn stats_args(n: usize, k: usize, queries: usize, threads: usize, sinks: Sinks) -> StatsArgs {
        StatsArgs {
            n,
            dim: 8,
            k,
            queries,
            threads,
            sinks,
        }
    }

    #[test]
    fn padded_k_merge() {
        assert_eq!(padded_k(QueueKind::Merge, 5), 8);
        assert_eq!(padded_k(QueueKind::Merge, 8), 8);
        assert_eq!(padded_k(QueueKind::Merge, 9), 16);
        assert_eq!(padded_k(QueueKind::Merge, 100), 128);
        // SelectConfig fixes m = 8, so small k pads up to 8, never to
        // a smaller power of two.
        assert_eq!(padded_k(QueueKind::Merge, 3), 8);
        assert_eq!(padded_k(QueueKind::Merge, 1), 8);
        assert_eq!(padded_k(QueueKind::Heap, 5), 5);
        // a padded k past n, and k = 0, are typed errors
        assert_eq!(checked_padded_k(QueueKind::Merge, 3, 8), Some(8));
        assert_eq!(checked_padded_k(QueueKind::Merge, 3, 4), None);
        assert_eq!(checked_padded_k(QueueKind::Heap, 3, 4), Some(3));
        assert_eq!(checked_padded_k(QueueKind::Heap, 0, 4), None);
    }

    #[test]
    fn end_to_end_generate_and_search() {
        let dir = std::env::temp_dir().join("knn_cli_e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let refs = dir.join("refs.f32");
        let queries = dir.join("queries.f32");
        assert_eq!(
            run(Command::Generate {
                count: 200,
                dim: 8,
                seed: 1,
                out: refs.clone()
            }),
            0
        );
        assert_eq!(
            run(Command::Generate {
                count: 3,
                dim: 8,
                seed: 2,
                out: queries.clone()
            }),
            0
        );
        assert_eq!(
            run(Command::Search(SearchArgs {
                refs: refs.clone(),
                queries: queries.clone(),
                dim: 8,
                k: 5,
                metric: Metric::SquaredEuclidean,
                threads: 1,
                json: true,
                sinks: Sinks::default(),
            })),
            0
        );
        // k too large is a clean error, not a panic
        assert_eq!(
            run(Command::Search(SearchArgs {
                refs: refs.clone(),
                queries: queries.clone(),
                dim: 8,
                k: 500,
                metric: Metric::SquaredEuclidean,
                threads: 1,
                json: false,
                sinks: Sinks::default(),
            })),
            1
        );
        // k == 0 likewise
        assert_eq!(
            run(Command::Search(SearchArgs {
                refs: refs.clone(),
                queries: queries.clone(),
                dim: 8,
                k: 0,
                metric: Metric::SquaredEuclidean,
                threads: 1,
                json: false,
                sinks: Sinks::default(),
            })),
            1
        );
        // a NaN coordinate in the input is a named error, not a wrong answer
        let poisoned = dir.join("poisoned.f32");
        let mut pts = crate::io::load_points(&queries, 8)
            .unwrap()
            .as_flat()
            .to_vec();
        pts[5] = f32::NAN;
        crate::io::save_points(&poisoned, &knn::PointSet::from_flat(pts, 8)).unwrap();
        assert_eq!(
            run(Command::Search(SearchArgs {
                refs,
                queries: poisoned,
                dim: 8,
                k: 5,
                metric: Metric::SquaredEuclidean,
                threads: 1,
                json: false,
                sinks: Sinks::default(),
            })),
            1
        );
    }

    fn fault_args() -> FaultArgs {
        FaultArgs {
            n: 256,
            k: 8,
            queries: 40,
            queue: QueueKind::Merge,
            seeds: 2,
            seed: 1,
            aborts: 0.0,
            hangs: 0.0,
            bitflips: 0.0,
            pcie_stall: 0.5,
            pcie_corrupt: 0.0,
            attempts: 4,
            journal: JournalArgs::default(),
        }
    }

    #[test]
    fn pcie_only_campaign_runs_in_any_build() {
        // No kernel hooks needed: stalls are injected by the host-side
        // transfer model.
        assert_eq!(run_faults(fault_args()), 0);
    }

    #[test]
    fn kernel_campaign_needs_the_fault_feature() {
        let a = FaultArgs {
            aborts: 0.3,
            bitflips: 1e-4,
            ..fault_args()
        };
        let expect = if simt::fault::compiled() { 0 } else { 1 };
        assert_eq!(run_faults(a), expect);
    }

    #[test]
    fn bench_metrics_out_writes_openmetrics_and_json() {
        let dir = std::env::temp_dir().join("knn_cli_metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("m.txt");
        let json = dir.join("m.json");
        for path in [&txt, &json] {
            assert_eq!(
                run(Command::Bench(BenchArgs {
                    n: 2000,
                    k: 16,
                    queue: QueueKind::Merge,
                    threads: 1,
                    sinks: Sinks {
                        metrics_out: Some(path.clone()),
                        ..Sinks::default()
                    },
                })),
                0
            );
        }
        let text = std::fs::read_to_string(&txt).unwrap();
        assert!(text.contains("# TYPE bench_plain_select_ns histogram"));
        assert!(text.contains("bench_optimized_select_ns_count 10"));
        assert!(text.ends_with("# EOF\n"));
        let snap = trace::MetricsSnapshot::from_json(&std::fs::read_to_string(&json).unwrap())
            .expect("JSON snapshot must parse back");
        assert_eq!(snap.histograms.len(), 2);
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "bench.n" && *v == 2000.0));
    }

    #[test]
    fn stats_sweeps_and_exports() {
        let dir = std::env::temp_dir().join("knn_cli_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("stats.txt");
        assert_eq!(
            run_stats(stats_args(
                3000,
                8,
                6,
                1,
                Sinks {
                    metrics_out: Some(out.clone()),
                    ..Sinks::default()
                }
            )),
            0
        );
        let text = std::fs::read_to_string(&out).unwrap();
        // 4 tiles × 6 queries each hit the streamed path
        assert!(text.contains("knn_tile_select_ns_count"));
        assert!(text.contains("knn_queries_total 24"));
        assert!(text.ends_with("# EOF\n"));
        // invalid k is a clean named error
        assert_eq!(run_stats(stats_args(100, 0, 4, 1, Sinks::default())), 1);
        assert_eq!(run_stats(stats_args(100, 200, 4, 1, Sinks::default())), 1);
    }

    #[test]
    fn profile_warns_on_unbalanced_tracer() {
        let mut t = trace::Tracer::new();
        assert_eq!(tracer_imbalance_warning(&t), None);
        let _a = t.open_span(trace::Category::Phase, "left-open");
        let _b = t.open_span(trace::Category::Kernel, "also-open");
        let w = tracer_imbalance_warning(&t).expect("unbalanced tracer must warn");
        assert!(w.contains("2 open span(s)"), "warning names the count: {w}");
    }

    #[test]
    fn search_journal_writes_jsonl_and_report_reads_it() {
        let dir = std::env::temp_dir().join("knn_cli_journal");
        std::fs::create_dir_all(&dir).unwrap();
        let refs = dir.join("refs.f32");
        let queries = dir.join("queries.f32");
        let jpath = dir.join("search.jsonl");
        for (count, seed, path) in [(300, 1, &refs), (12, 2, &queries)] {
            assert_eq!(
                run(Command::Generate {
                    count,
                    dim: 8,
                    seed,
                    out: path.clone()
                }),
                0
            );
        }
        assert_eq!(
            run(Command::Search(SearchArgs {
                refs,
                queries,
                dim: 8,
                k: 5,
                metric: Metric::SquaredEuclidean,
                threads: 1,
                json: false,
                sinks: Sinks {
                    journal: JournalArgs {
                        out: Some(jpath.clone()),
                        ..JournalArgs::default()
                    },
                    ..Sinks::default()
                },
            })),
            0
        );
        let recs = trace::journal::parse_jsonl(&std::fs::read_to_string(&jpath).unwrap()).unwrap();
        assert_eq!(recs.len(), 12, "one record per query");
        assert!(recs.iter().all(|r| r.tag == "search" && r.total_ns > 0));
        // the report renders over it and exits cleanly
        assert_eq!(
            run(Command::Report {
                journal: Some(jpath),
                top: 3,
                timeline: None,
            }),
            0
        );
        // unreadable / empty / garbage journals are exit 2, not a panic
        assert_eq!(
            run(Command::Report {
                journal: Some(dir.join("missing.jsonl")),
                top: 3,
                timeline: None,
            }),
            2
        );
        let garbage = dir.join("garbage.jsonl");
        std::fs::write(&garbage, "not json\n").unwrap();
        assert_eq!(
            run(Command::Report {
                journal: Some(garbage),
                top: 3,
                timeline: None,
            }),
            2
        );
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert_eq!(
            run(Command::Report {
                journal: Some(empty),
                top: 3,
                timeline: None,
            }),
            2
        );
    }

    #[test]
    fn stats_and_bench_journal_record_every_combination() {
        let dir = std::env::temp_dir().join("knn_cli_journal_sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("stats.jsonl");
        let args = JournalArgs {
            out: Some(jpath.clone()),
            ..JournalArgs::default()
        };
        let sinks = Sinks {
            journal: args,
            ..Sinks::default()
        };
        assert_eq!(run_stats(stats_args(3000, 8, 6, 1, sinks)), 0);
        let recs = trace::journal::parse_jsonl(&std::fs::read_to_string(&jpath).unwrap()).unwrap();
        // 4 tiles × 6 queries
        assert_eq!(recs.len(), 24);
        assert!(recs.iter().all(|r| r.queue == "merge"));
        assert!(recs.iter().all(|r| r.tile > 0 && r.blocks > 0));

        let bpath = dir.join("bench.jsonl");
        assert_eq!(
            run(Command::Bench(BenchArgs {
                n: 2000,
                k: 16,
                queue: QueueKind::Merge,
                threads: 1,
                sinks: Sinks {
                    journal: JournalArgs {
                        out: Some(bpath.clone()),
                        ..JournalArgs::default()
                    },
                    ..Sinks::default()
                },
            })),
            0
        );
        let recs = trace::journal::parse_jsonl(&std::fs::read_to_string(&bpath).unwrap()).unwrap();
        // 2 configs × 10 iterations, all pure-select records
        assert_eq!(recs.len(), 20);
        assert!(recs
            .iter()
            .all(|r| r.dominant_phase().map(|(p, _)| p) == Some("select")));
    }

    #[test]
    fn faults_journal_tags_each_seed() {
        let dir = std::env::temp_dir().join("knn_cli_journal_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("faults.jsonl");
        let a = FaultArgs {
            journal: JournalArgs {
                out: Some(jpath.clone()),
                ..JournalArgs::default()
            },
            ..fault_args()
        };
        assert_eq!(run_faults(a), 0);
        let recs = trace::journal::parse_jsonl(&std::fs::read_to_string(&jpath).unwrap()).unwrap();
        // 2 seeds × 40 queries, tagged by campaign
        assert_eq!(recs.len(), 80);
        assert!(recs.iter().any(|r| r.tag == "seed1"));
        assert!(recs.iter().any(|r| r.tag == "seed2"));
        assert!(recs.iter().all(|r| !r.status.is_empty() && r.attempts >= 1));
    }

    #[test]
    fn report_attributes_the_tail_to_the_dominant_phase() {
        // Synthetic journal: 99 fast distance-bound queries and one huge
        // outlier that spent its time retrying in backoff.
        let mut recs: Vec<QueryRecord> = (0..99)
            .map(|i| QueryRecord {
                query: i,
                total_ns: 1_000 + i,
                phase_ns: vec![("distance".into(), 700), ("select".into(), 300)],
                status: "ok".into(),
                attempts: 1,
                ..QueryRecord::default()
            })
            .collect();
        recs.push(QueryRecord {
            query: 99,
            total_ns: 1_000_000,
            phase_ns: vec![
                ("distance".into(), 100_000),
                ("select".into(), 100_000),
                ("backoff".into(), 800_000),
            ],
            status: "recovered".into(),
            attempts: 3,
            exemplar: true,
            ..QueryRecord::default()
        });
        let out = render_report(&mut recs, 2);
        assert!(
            out.contains("tail dominated by: backoff"),
            "p99 cohort is the outlier, which is backoff-bound:\n{out}"
        );
        assert!(
            out.contains("recovered"),
            "status breakdown present:\n{out}"
        );
        assert!(
            out.contains("retried queries: 1 (1.0%)"),
            "retry rate over all records:\n{out}"
        );
        assert!(
            out.contains("[exemplar]"),
            "drill-down flags exemplars:\n{out}"
        );
        // quantiles are nearest-rank over totals
        assert_eq!(total_quantile(&recs, 1.0), 1_000_000);
        assert_eq!(total_quantile(&recs, 0.5), 1_049);
    }

    #[test]
    fn stats_timeline_out_writes_report_and_chrome_trace() {
        let dir = std::env::temp_dir().join("knn_cli_timeline");
        std::fs::create_dir_all(&dir).unwrap();
        let tl = dir.join("stats-timeline.json");
        let metrics = dir.join("stats-metrics.json");
        assert_eq!(
            run_stats(stats_args(
                3000,
                8,
                64,
                2,
                Sinks {
                    metrics_out: Some(metrics.clone()),
                    timeline_out: Some(tl.clone()),
                    ..Sinks::default()
                }
            )),
            0
        );
        let report =
            trace::TimelineReport::from_json(&std::fs::read_to_string(&tl).unwrap()).unwrap();
        assert_eq!(report.lanes.len(), 2, "one lane per worker");
        // 4 tiles, 64 queries each → 2 query blocks per tile, and every
        // claimed block lands on exactly one lane
        assert_eq!(report.blocks_total, 8);
        assert_eq!(
            report.lanes.iter().map(|l| l.blocks).sum::<u64>(),
            report.blocks_total
        );
        for lane in &report.lanes {
            assert_eq!(
                lane.busy_ns + lane.idle_ns,
                report.wall_ns,
                "busy+idle conservation on lane {}",
                lane.worker
            );
        }
        assert!(report.imbalance >= 1.0);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        // the metrics snapshot embeds the same timeline plus runtime config
        let snap =
            trace::MetricsSnapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(
            snap.timeline.expect("snapshot carries a timeline section"),
            report
        );
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "knn.threads" && *v == 2.0));
        assert!(snap
            .labels
            .iter()
            .any(|(n, v)| n == "knn.simd_dispatch" && v == knn::dispatch_name()));

        // a `.trace.json` path switches the artifact to a Chrome trace
        let chrome = dir.join("stats.trace.json");
        assert_eq!(
            run_stats(stats_args(
                3000,
                8,
                64,
                2,
                Sinks {
                    timeline_out: Some(chrome.clone()),
                    ..Sinks::default()
                }
            )),
            0
        );
        let doc = serde_json::parse_value(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let serde_json::Value::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array");
        };
        let named: Vec<u64> = events
            .iter()
            .filter(|e| e.get("name").and_then(serde_json::Value::as_str) == Some("thread_name"))
            .map(|e| e.get("tid").and_then(serde_json::Value::as_f64).unwrap() as u64)
            .collect();
        assert!(
            named.contains(&0) && named.contains(&1),
            "both worker tracks are named: {named:?}"
        );
    }

    #[test]
    fn stats_timeline_at_one_thread_records_block_lanes() {
        let dir = std::env::temp_dir().join("knn_cli_timeline_1t");
        std::fs::create_dir_all(&dir).unwrap();
        let tl = dir.join("stats-timeline.json");
        assert_eq!(
            run_stats(stats_args(
                3000,
                8,
                64,
                1,
                Sinks {
                    timeline_out: Some(tl.clone()),
                    ..Sinks::default()
                }
            )),
            0
        );
        let report =
            trace::TimelineReport::from_json(&std::fs::read_to_string(&tl).unwrap()).unwrap();
        // One worker runs the block loop inline: 4 tiles × 2 query
        // blocks, all on the single lane.
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.blocks_total, 8);
        assert_eq!(report.lanes[0].blocks, 8);
        assert_eq!(
            report.lanes[0].busy_ns + report.lanes[0].idle_ns,
            report.wall_ns
        );
    }

    #[test]
    fn serve_timeline_lands_on_named_tracks() {
        let dir = std::env::temp_dir().join("knn_cli_serve_timeline");
        std::fs::create_dir_all(&dir).unwrap();
        let tl = dir.join("serve-timeline.json");
        let argv: Vec<String> = [
            "serve",
            "--n",
            "512",
            "--dim",
            "8",
            "--queries",
            "8",
            "--duration-sim",
            "0.002",
            "--load",
            "2.0",
            "--timeline-out",
            tl.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run(crate::args::parse(&argv).unwrap()), 0);
        let report =
            trace::TimelineReport::from_json(&std::fs::read_to_string(&tl).unwrap()).unwrap();
        assert_eq!(report.lanes.len(), 2);
        assert_eq!(report.lanes[0].name, "server");
        assert_eq!(report.lanes[1].name, "queue");
        assert!(
            report.lanes[0].busy_ns > 0,
            "a 2x-overloaded campaign keeps the server busy"
        );
        for lane in &report.lanes {
            assert_eq!(lane.busy_ns + lane.idle_ns, report.wall_ns);
        }
    }

    #[test]
    fn report_timeline_prints_the_table_and_rejects_garbage() {
        use trace::timeline::SpanKind;

        let dir = std::env::temp_dir().join("knn_cli_report_timeline");
        std::fs::create_dir_all(&dir).unwrap();
        let rec = trace::TimelineRecorder::with_names(&["server", "queue"]);
        rec.span(0, SpanKind::Service, 0, 100, 900);
        rec.span(1, SpanKind::QueueWait, 0, 50, 100);
        let tpath = dir.join("t.json");
        std::fs::write(&tpath, rec.report(1_000).to_json()).unwrap();
        assert_eq!(run_report(None, 3, Some(&tpath)), 0);
        // unreadable / malformed timelines are exit 2, like journals
        assert_eq!(run_report(None, 3, Some(&dir.join("missing.json"))), 2);
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert_eq!(run_report(None, 3, Some(&garbage)), 2);
        // a valid timeline does not mask a broken journal
        assert_eq!(
            run_report(Some(&dir.join("missing.jsonl")), 3, Some(&tpath)),
            2
        );
    }
}
