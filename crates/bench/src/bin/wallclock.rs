//! Native wall-clock benchmark of the real (non-simulated) k-NN path:
//! the blocked GEMM-style distance kernel and the materialized vs
//! tile-streamed end-to-end pipelines.
//!
//!     wallclock [--quick] [--out FILE] [--sweep-tiles]
//!               [--queries Q] [--refs N] [--dim D] [--k K] [--tile T]
//!               [--threads T] [--metrics-out FILE] [--metrics-json FILE]
//!
//! Unlike the `repro` binary — whose figures report *simulated* Tesla
//! C2075 seconds — everything here is measured on the host with
//! `std::time::Instant`. The two sets of numbers are not comparable;
//! see the "Performance" section of the README.
//!
//! The default workload is Q = 1024 queries against N = 2^14 references
//! at dim = 128. Output goes to `BENCH_native.json`:
//!
//! * `distance.scalar_seconds` — a faithful copy of the seed
//!   implementation's per-pair scalar loop (one loop-carried `f32`
//!   accumulator, one row `Vec` per query), timed on the same data;
//! * `distance.blocked_seconds` / `gflops` — the blocked kernel
//!   (`knn::block::squared_distances`), counting 2·Q·N·dim flops;
//! * `pipeline.*_qps` — end-to-end queries/second of the materialized
//!   (full Q×N matrix, then per-row selection) and tile-streamed
//!   (`knn::Index::search` on `--threads` workers, the index and its
//!   reference norms built once before timing) paths, which are
//!   asserted to return identical neighbors before any number is
//!   written;
//! * `*_peak_distance_bytes` — the distance-buffer working set of each
//!   path: Q·N·4 materialized; streamed, the `knn.scratch.peak_bytes`
//!   the pipeline reports on an untimed metered run (four tile rows per
//!   worker, one per query of the quad the distance kernel fills, plus
//!   the kernel's `4 × dim`-float query pack);
//! * with `--sweep-tiles`, `tile_sweep[]` — streamed QPS per tile size
//!   in {1024, 2048, 4096, 8192} (clamped to N), plus `best_tile`, the
//!   sweep's QPS argmax. Each tile length is timed exactly once per
//!   run: `pipeline.streamed_*` and the sweep entry for the default
//!   tile reference the *same* measurement, so the two places can never
//!   disagree (they used to be timed separately and drifted apart);
//! * `k_sweep[]` — streamed QPS at k in {32, 128, 512, 1024} (those
//!   at most N) on the configured shape and tile: the median and the
//!   quartiles `streamed_qps_q1`/`_q3` over [`K_SWEEP_REPS`] timed
//!   repetitions, each checked against a `(dist, id)` sort of the
//!   blocked distance rows, plus `merge_share` from one untimed metered
//!   run: the cuts and the final sort (`knn.tile.merge_ns`) over the
//!   run's lane time (wall × workers), the share knnbench reports as
//!   `merge.share`;
//! * `threads` / `simd_dispatch` — the resolved worker count and the
//!   SIMD kernel the runtime dispatch picked (`avx512`, `avx2+fma` or
//!   `scalar8`),
//!   so snapshots from differently-pinned CI runs are distinguishable;
//! * `pipeline.utilization` / `pipeline.imbalance` — worker-pool busy
//!   fraction and `max_busy/mean_busy` of one *instrumented* streamed
//!   run at the configured tile (`null` when `--threads` resolves to
//!   1: a one-lane timeline has no contention to measure). The
//!   instrumented run is timed separately and never contributes to the
//!   `streamed_*` numbers, so timeline overhead cannot skew them.
//!
//! Every timed repetition also lands in a `trace::MetricsRegistry`;
//! `--metrics-out` writes it as OpenMetrics text, `--metrics-json` as
//! the JSON snapshot (what CI uploads as a workflow artifact).

use std::time::Instant;

use knn::{block, Hooks, Index, PointSet, SearchPlan};
use kselect::{QueueKind, SelectConfig};
use rayon::prelude::*;
use serde::Serialize;
use trace::MetricsRegistry;

#[derive(Serialize)]
struct DistanceReport {
    scalar_seconds: f64,
    blocked_seconds: f64,
    speedup: f64,
    blocked_gflops: f64,
}

#[derive(Serialize)]
struct PipelineReport {
    materialized_seconds: f64,
    materialized_qps: f64,
    materialized_peak_distance_bytes: u64,
    streamed_seconds: f64,
    streamed_qps: f64,
    streamed_peak_distance_bytes: u64,
    results_identical: bool,
    /// Worker-pool busy fraction from one instrumented streamed run;
    /// `null` on single-threaded runs.
    utilization: Option<f64>,
    /// `max_busy/mean_busy` across workers (1.0 = perfectly balanced);
    /// `null` on single-threaded runs.
    imbalance: Option<f64>,
}

#[derive(Serialize)]
struct TileSweepEntry {
    tile: usize,
    streamed_seconds: f64,
    streamed_qps: f64,
    peak_distance_bytes: u64,
}

#[derive(Serialize)]
struct KSweepEntry {
    k: usize,
    /// Timed repetitions behind the quartiles.
    reps: usize,
    /// Median streamed QPS over `reps`.
    streamed_qps: f64,
    /// First and third quartiles of the same repetitions.
    streamed_qps_q1: f64,
    streamed_qps_q3: f64,
    /// Merge layer (cuts + final sort) over lane time, from one metered
    /// run.
    merge_share: f64,
    results_identical: bool,
}

#[derive(Serialize)]
struct Report {
    queries: usize,
    refs: usize,
    dim: usize,
    k: usize,
    tile: usize,
    /// Resolved worker-thread count the streamed pipeline ran with.
    threads: usize,
    /// SIMD kernel the runtime dispatch picked (`avx512` / `avx2+fma` /
    /// `scalar8`).
    simd_dispatch: String,
    distance: DistanceReport,
    pipeline: PipelineReport,
    /// Empty unless `--sweep-tiles` was given.
    tile_sweep: Vec<TileSweepEntry>,
    /// QPS argmax of the sweep; `tile` when no sweep ran.
    best_tile: usize,
    /// Streamed QPS and merge share per k, at the configured tile.
    k_sweep: Vec<KSweepEntry>,
}

struct Args {
    q: usize,
    n: usize,
    dim: usize,
    k: usize,
    tile: usize,
    threads: usize,
    sweep_tiles: bool,
    out: String,
    metrics_out: Option<String>,
    metrics_json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        q: 1024,
        n: 1 << 14,
        dim: 128,
        k: 32,
        tile: block::DEFAULT_STREAM_TILE,
        threads: 1,
        sweep_tiles: false,
        out: "BENCH_native.json".to_string(),
        metrics_out: None,
        metrics_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match flag.as_str() {
            "--quick" => {
                args.q = 128;
                args.n = 2048;
                args.dim = 32;
            }
            "--sweep-tiles" => args.sweep_tiles = true,
            "--queries" => args.q = take("--queries").parse().expect("--queries"),
            "--refs" => args.n = take("--refs").parse().expect("--refs"),
            "--dim" => args.dim = take("--dim").parse().expect("--dim"),
            "--k" => args.k = take("--k").parse().expect("--k"),
            "--tile" => args.tile = take("--tile").parse().expect("--tile"),
            "--threads" => args.threads = take("--threads").parse().expect("--threads"),
            "--out" => args.out = take("--out"),
            "--metrics-out" => args.metrics_out = Some(take("--metrics-out")),
            "--metrics-json" => args.metrics_json = Some(take("--metrics-json")),
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: wallclock [--quick] [--out FILE] \
                     [--sweep-tiles] [--queries Q] [--refs N] [--dim D] [--k K] [--tile T] \
                     [--threads T] [--metrics-out FILE] [--metrics-json FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// The tile sizes `--sweep-tiles` walks (clamped to N), matching
/// `knn-cli stats`.
const SWEEP_TILES: [usize; 4] = [1024, 2048, 4096, 8192];

/// The k values the k sweep walks (those at most N): the paper's span
/// of k at the configured shape.
const SWEEP_KS: [usize; 4] = [32, 128, 512, 1024];

/// Timed repetitions per k of the k sweep.
const K_SWEEP_REPS: usize = 5;

/// The first, second and third quartiles of `v`, interpolating
/// linearly between order statistics.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let x = p * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    })
}

/// Each query's `k` nearest by `(dist, id)` from its full distance row:
/// the k sweep's oracle, independent of the streamed top-k.
fn sorted_prefix(m: &knn::FlatMatrix, k: usize) -> Vec<Vec<kselect::Neighbor>> {
    (0..m.q())
        .map(|qi| {
            let mut row: Vec<(f32, u32)> = m.row(qi).iter().copied().zip(0..).collect();
            let by = |a: &(f32, u32), b: &(f32, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
            if k < row.len() {
                row.select_nth_unstable_by(k, by);
                row.truncate(k);
            }
            row.sort_unstable_by(by);
            row.iter()
                .map(|&(d, id)| kselect::Neighbor::new(d, id))
                .collect()
        })
        .collect()
}

/// The seed implementation's distance kernel, kept verbatim as the
/// baseline this benchmark reports speedups against: a scalar per-pair
/// loop with a single loop-carried accumulator, collecting one `Vec`
/// per query.
fn seed_scalar_distance_matrix(queries: &PointSet, refs: &PointSet) -> Vec<Vec<f32>> {
    (0..queries.len())
        .map(|qi| {
            let qp = queries.point(qi);
            (0..refs.len())
                .map(|ri| {
                    let rp = refs.point(ri);
                    let mut acc = 0.0f32;
                    for d in 0..qp.len() {
                        let diff = qp[d] - rp[d];
                        acc += diff * diff;
                    }
                    acc
                })
                .collect()
        })
        .collect()
}

/// Best-of-`reps` wall time of `f`, with a result sink so the work
/// cannot be optimized away. Every repetition is also recorded into
/// `reg` under `metric` (the registry observation happens outside the
/// timed region).
fn time_best<T>(
    reps: usize,
    reg: &MetricsRegistry,
    metric: &str,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        best = best.min(dt.as_secs_f64());
        reg.observe_ns(metric, dt.as_nanos() as u64);
        out = Some(r);
    }
    (best, out.unwrap())
}

fn main() {
    let args = parse_args();
    let (q, n, dim, k) = (args.q, args.n, args.dim, args.k);
    let tile = args.tile.min(n);
    let workers = knn::resolve_threads(args.threads);
    let dispatch = knn::dispatch_name();
    eprintln!(
        "wallclock: Q={q} N={n} dim={dim} k={k} tile={tile} threads={workers} kernel={dispatch}"
    );

    let queries = PointSet::uniform(q, dim, 71);
    let refs = PointSet::uniform(n, dim, 72);
    let cfg = SelectConfig::optimized(QueueKind::Merge, k);
    let reg = MetricsRegistry::new();
    reg.set_gauge("wallclock.queries", q as f64);
    reg.set_gauge("wallclock.refs", n as f64);
    reg.set_gauge("wallclock.dim", dim as f64);
    reg.set_gauge("wallclock.k", k as f64);
    reg.set_gauge("wallclock.threads", workers as f64);

    // Distance kernels. One scalar reference pass (it is the slow one),
    // best-of-3 for the blocked kernel.
    let (t_scalar, scalar_rows) = time_best(1, &reg, "wallclock.distance.scalar_ns", || {
        seed_scalar_distance_matrix(&queries, &refs)
    });
    let (t_blocked, blocked) = time_best(3, &reg, "wallclock.distance.blocked_ns", || {
        block::squared_distances(&queries, &refs)
    });
    // Keep the baseline honest: same values, up to the documented
    // decomposition rounding.
    for (qi, row) in scalar_rows.iter().enumerate().take(q.min(4)) {
        for (ri, &a) in row.iter().enumerate().take(n.min(64)) {
            let b = blocked.at(qi, ri);
            assert!(
                (a - b).abs() <= 1e-3 * a.abs().max(1.0),
                "kernel mismatch at ({qi}, {ri}): scalar {a} vs blocked {b}"
            );
        }
    }
    let flops = 2.0 * q as f64 * n as f64 * dim as f64;
    let distance = DistanceReport {
        scalar_seconds: t_scalar,
        blocked_seconds: t_blocked,
        speedup: t_scalar / t_blocked,
        blocked_gflops: flops / t_blocked / 1e9,
    };
    eprintln!(
        "distance: scalar {:.3}s, blocked {:.3}s ({:.1}x, {:.2} GFLOP/s)",
        distance.scalar_seconds,
        distance.blocked_seconds,
        distance.speedup,
        distance.blocked_gflops
    );

    // End-to-end pipelines: materialize-then-select vs tile-streamed.
    let (t_mat, mat_neighbors) = time_best(1, &reg, "wallclock.pipeline.materialized_ns", || {
        let m = block::squared_distances(&queries, &refs);
        (0..m.q())
            .into_par_iter()
            .map(|qi| kselect::select_k(m.row(qi), &cfg))
            .collect::<Vec<_>>()
    });
    // Streamed pipeline: every tile length (the configured tile plus,
    // with --sweep-tiles, the standard sweep span) is measured exactly
    // once; `pipeline.streamed_*` and the sweep entry for `tile` then
    // reference the same numbers, so the two report sections cannot
    // disagree. Each measurement is checked against the materialized
    // neighbors before its number counts.
    let mut sweep_span: Vec<usize> = Vec::new();
    if args.sweep_tiles {
        for t in SWEEP_TILES {
            let t = t.min(n);
            if !sweep_span.contains(&t) {
                sweep_span.push(t); // clamping can alias sweep points on small N
            }
        }
    }
    let mut measure_tiles = sweep_span.clone();
    if !measure_tiles.contains(&tile) {
        measure_tiles.insert(0, tile);
    }
    // Distance-scratch working set of the streamed path, as the pipeline
    // itself reports it (`knn.scratch.peak_bytes`) on one untimed metered
    // run per tile, so the artifact cannot drift from the code. The run
    // is checked against the materialized neighbors too.
    let index = Index::new(&refs).expect("a non-empty reference set");
    let plan = |k: usize, tile: usize| SearchPlan::new(k).with_tile(tile).with_threads(workers);
    let streamed_peak = |t: usize| -> u64 {
        let tile_reg = MetricsRegistry::new();
        let ins = knn::Instruments {
            registry: Some(&tile_reg),
            ..knn::Instruments::default()
        };
        let nb = knn::knn_search_streamed_instrumented(&index, &queries, &plan(k, t), &ins);
        assert_eq!(
            nb.as_ref(),
            Ok(&mat_neighbors),
            "metered streamed pipeline (tile {t}) disagrees with the materialized oracle"
        );
        tile_reg.peak(knn::metered::SCRATCH_PEAK_BYTES)
    };
    let mut measured: Vec<TileSweepEntry> = Vec::new();
    for &t in &measure_tiles {
        let metric = if t == tile {
            "wallclock.pipeline.streamed_ns".to_string()
        } else {
            format!("wallclock.sweep.tile_{t}_ns")
        };
        let (secs, nb) = time_best(2, &reg, &metric, || {
            index.search(&queries, &plan(k, t), Hooks::NONE)
        });
        assert_eq!(
            nb.as_ref(),
            Ok(&mat_neighbors),
            "streamed (tile {t}, {workers} thread(s)) and materialized pipelines \
             disagree — refusing to write numbers"
        );
        let qps = q as f64 / secs;
        eprintln!("streamed: tile {t}: {qps:.1} q/s ({secs:.3}s)");
        measured.push(TileSweepEntry {
            tile: t,
            streamed_seconds: secs,
            streamed_qps: qps,
            peak_distance_bytes: streamed_peak(t),
        });
    }
    let default_entry = measured
        .iter()
        .find(|e| e.tile == tile)
        .expect("the configured tile is always measured");
    reg.record_peak("wallclock.peak.materialized_bytes", (q * n * 4) as u64);
    reg.record_peak(
        "wallclock.peak.streamed_bytes",
        default_entry.peak_distance_bytes,
    );
    // Worker-pool balance: one extra instrumented run at the configured
    // tile, separate from the timed measurements above so the timeline
    // hooks cannot skew the QPS numbers.
    let (utilization, imbalance) = if workers > 1 {
        let rec = trace::TimelineRecorder::new(workers);
        let tl = knn::metered::TimelineObserver::new(&rec);
        let ins = knn::Instruments {
            timeline: Some(&tl),
            ..knn::Instruments::default()
        };
        let nb = knn::knn_search_streamed_instrumented(&index, &queries, &plan(k, tile), &ins);
        assert_eq!(
            nb.as_ref(),
            Ok(&mat_neighbors),
            "instrumented streamed pipeline disagrees with the materialized oracle"
        );
        let t = tl.report();
        reg.set_gauge("wallclock.pipeline.utilization", t.utilization);
        reg.set_gauge("wallclock.pipeline.imbalance", t.imbalance);
        eprintln!(
            "workers: utilization {:.1}%, imbalance {:.2} ({} block(s) over {} lane(s))",
            t.utilization * 100.0,
            t.imbalance,
            t.blocks_total,
            t.lanes.len(),
        );
        (Some(t.utilization), Some(t.imbalance))
    } else {
        (None, None)
    };
    let pipeline = PipelineReport {
        materialized_seconds: t_mat,
        materialized_qps: q as f64 / t_mat,
        materialized_peak_distance_bytes: (q * n * 4) as u64,
        streamed_seconds: default_entry.streamed_seconds,
        streamed_qps: default_entry.streamed_qps,
        streamed_peak_distance_bytes: default_entry.peak_distance_bytes,
        results_identical: true, // asserted per tile above
        utilization,
        imbalance,
    };
    eprintln!(
        "pipeline: materialized {:.1} q/s ({} MB peak), streamed {:.1} q/s ({} MB peak)",
        pipeline.materialized_qps,
        pipeline.materialized_peak_distance_bytes >> 20,
        pipeline.streamed_qps,
        pipeline.streamed_peak_distance_bytes >> 20,
    );

    let mut best_tile = tile;
    let tile_sweep: Vec<TileSweepEntry> = measured
        .into_iter()
        .filter(|e| sweep_span.contains(&e.tile))
        .collect();
    if args.sweep_tiles {
        let mut best_qps = 0.0f64;
        for e in &tile_sweep {
            if e.streamed_qps > best_qps {
                best_qps = e.streamed_qps;
                best_tile = e.tile;
            }
        }
        reg.set_gauge("wallclock.sweep.best_tile", best_tile as f64);
        eprintln!("sweep: best tile {best_tile} ({best_qps:.1} q/s)");
    }

    // k sweep: the streamed path at each k, timed K_SWEEP_REPS times
    // (every repetition checked), then once metered for the merge share.
    let mut k_sweep = Vec::new();
    for sk in SWEEP_KS.into_iter().filter(|&sk| sk <= n) {
        let want = sorted_prefix(&blocked, sk);
        let mut qps = Vec::with_capacity(K_SWEEP_REPS);
        for _ in 0..K_SWEEP_REPS {
            let t0 = Instant::now();
            let nb = index.search(&queries, &plan(sk, tile), Hooks::NONE);
            let dt = t0.elapsed();
            reg.observe_ns(
                &format!("wallclock.k_sweep.k_{sk}_ns"),
                dt.as_nanos() as u64,
            );
            assert_eq!(
                nb.as_ref(),
                Ok(&want),
                "streamed search at k {sk} disagrees with the sort oracle"
            );
            qps.push(q as f64 / dt.as_secs_f64());
        }
        let k_reg = MetricsRegistry::new();
        let ins = knn::Instruments {
            registry: Some(&k_reg),
            ..knn::Instruments::default()
        };
        let t0 = Instant::now();
        let nb = knn::knn_search_streamed_instrumented(&index, &queries, &plan(sk, tile), &ins);
        let lane_ns = t0.elapsed().as_nanos() as f64 * workers as f64;
        assert_eq!(
            nb.as_ref(),
            Ok(&want),
            "metered search at k {sk} disagrees with the sort oracle"
        );
        let merge_metric = knn::metered::phase_metric(knn::Phase::TileMerge);
        let merge_ns = k_reg
            .snapshot()
            .histograms
            .iter()
            .find(|h| h.name == merge_metric)
            .map_or(0, |h| h.sum_ns);
        let [q1, median, q3] = quartiles(&qps);
        let merge_share = merge_ns as f64 / lane_ns;
        reg.set_gauge(
            &format!("wallclock.k_sweep.k_{sk}_merge_share"),
            merge_share,
        );
        eprintln!(
            "k sweep: k {sk}: {median:.1} q/s [q1 {q1:.1}, q3 {q3:.1}] over {K_SWEEP_REPS} reps, merge share {merge_share:.3}"
        );
        k_sweep.push(KSweepEntry {
            k: sk,
            reps: K_SWEEP_REPS,
            streamed_qps: median,
            streamed_qps_q1: q1,
            streamed_qps_q3: q3,
            merge_share,
            results_identical: true, // asserted per repetition above
        });
    }

    let report = Report {
        queries: q,
        refs: n,
        dim,
        k,
        tile,
        threads: workers,
        simd_dispatch: dispatch.to_string(),
        distance,
        pipeline,
        tile_sweep,
        best_tile,
        k_sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&args.out, json + "\n").expect("write report");
    eprintln!("wrote {}", args.out);

    let snap = reg.snapshot();
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, trace::openmetrics::render(&snap)).expect("write metrics");
        eprintln!("wrote OpenMetrics to {path}");
    }
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, snap.to_json()).expect("write metrics json");
        eprintln!("wrote metrics JSON to {path}");
    }
}
