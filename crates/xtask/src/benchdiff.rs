//! `cargo xtask benchdiff OLD.json NEW.json [--tolerance PCT]
//! [--markdown]` — the CI perf-regression gate over
//! `BENCH_native.json`-shaped reports.
//!
//! The two files are compared structurally:
//!
//! * **Same workload** (`queries`/`refs`/`dim`/`k` all equal, plus
//!   `threads`/`simd_dispatch` wherever both reports carry them —
//!   reports that merely *gained* those fields stay comparable to older
//!   baselines without them): every
//!   numeric leaf whose key names a direction is checked within the
//!   tolerance. Keys ending in `_qps`, `speedup` or `_gflops` are
//!   higher-is-better; keys ending in `_seconds`, `_ns` or `_bytes` are
//!   lower-is-better. Other numerics (workload params, `tile`,
//!   `best_tile`) are configuration, not performance, and are ignored.
//! * **Different workloads** (e.g. the committed full-size baseline vs
//!   a CI `--quick` run): magnitudes are incomparable, so only the
//!   invariants are checked — currently `pipeline.results_identical`,
//!   which must be `true` wherever present. The report names the keys
//!   that differ.
//!
//! Exit codes: 0 clean (improvements are reported, never fatal), 1 on
//! any regression beyond tolerance or a failed invariant, 2 on unusable
//! input (missing file, malformed JSON, bad flags).

use serde::Value;

/// One compared metric.
#[derive(Debug, PartialEq)]
pub struct MetricDiff {
    /// Dotted path of the leaf, e.g. `pipeline.streamed_qps`.
    pub path: String,
    pub old: f64,
    pub new: f64,
    /// Signed change in the *bad* direction, percent: positive means
    /// worse, negative means better, regardless of which direction is
    /// better for this key.
    pub worse_pct: f64,
}

/// Outcome of one benchdiff run.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Workload keys whose values differ between the reports; empty
    /// when the workloads match and magnitudes were compared.
    pub differing: Vec<&'static str>,
    /// Metrics worse than tolerance.
    pub regressions: Vec<MetricDiff>,
    /// Metrics better than tolerance (informational).
    pub improvements: Vec<MetricDiff>,
    /// Metrics within tolerance.
    pub unchanged: usize,
    /// Failed invariants (checked in both modes).
    pub broken_invariants: Vec<String>,
}

impl DiffReport {
    /// Workloads matched, so magnitudes were compared.
    pub fn comparable(&self) -> bool {
        self.differing.is_empty()
    }
}

/// Direction a numeric key is compared in.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    HigherBetter,
    LowerBetter,
}

/// Classify a leaf key by suffix; `None` means "configuration, skip".
/// `utilization` (worker busy fraction) counts as a throughput-style
/// metric: a build that leaves the pool idler regressed. `imbalance`
/// (`max_busy/mean_busy`, 1.0 = perfectly balanced) regresses upward,
/// like a latency.
fn direction_of(key: &str) -> Option<Direction> {
    if key.ends_with("_qps")
        || key.ends_with("speedup")
        || key.ends_with("_gflops")
        || key.ends_with("utilization")
    {
        Some(Direction::HigherBetter)
    } else if key.ends_with("_seconds")
        || key.ends_with("_ns")
        || key.ends_with("_bytes")
        || key.ends_with("imbalance")
    {
        Some(Direction::LowerBetter)
    } else {
        None
    }
}

/// The workload-identity keys: reports are magnitude-comparable only
/// when all of these match.
const WORKLOAD_KEYS: [&str; 4] = ["queries", "refs", "dim", "k"];

/// Workload keys added after the first baselines were committed
/// (`threads`: worker count, `simd_dispatch`: the kernel the runtime
/// picked). They split the workload only when *both* reports carry them
/// and disagree — a report that simply gained the fields stays
/// comparable to an old baseline without them, so schema additions are
/// not workload mismatches.
const OPTIONAL_WORKLOAD_KEYS: [&str; 2] = ["threads", "simd_dispatch"];

/// Equality for workload values: numeric when both sides are numeric,
/// string otherwise (e.g. `simd_dispatch`).
fn workload_value_eq(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => match (a.as_str(), b.as_str()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

/// The workload keys on which `old` and `new` differ: a required key
/// missing from either side differs too.
fn workload_diff(old: &Value, new: &Value) -> Vec<&'static str> {
    let required = WORKLOAD_KEYS.into_iter().filter(|k| {
        match (
            old.get(k).and_then(Value::as_f64),
            new.get(k).and_then(Value::as_f64),
        ) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    });
    let optional = OPTIONAL_WORKLOAD_KEYS.into_iter().filter(|k| {
        match (old.get(k), new.get(k)) {
            (Some(a), Some(b)) => !workload_value_eq(a, b),
            // Absent on either side: the field did not exist when that
            // report was generated — a compatible addition.
            _ => false,
        }
    });
    required.chain(optional).collect()
}

/// Walk `old`/`new` in parallel, comparing directional numeric leaves.
fn diff_value(path: &str, old: &Value, new: &Value, tol_pct: f64, out: &mut DiffReport) {
    match (old, new) {
        (Value::Object(of), _) => {
            for (k, ov) in of {
                if let Some(nv) = new.get(k) {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    diff_value(&p, ov, nv, tol_pct, out);
                }
            }
        }
        (Value::Array(oa), Value::Array(na)) => {
            // e.g. tile_sweep: positional compare of the common prefix.
            for (i, (ov, nv)) in oa.iter().zip(na).enumerate() {
                diff_value(&format!("{path}[{i}]"), ov, nv, tol_pct, out);
            }
        }
        _ => {
            let key = path.rsplit('.').next().unwrap_or(path);
            let (Some(dir), Some(a), Some(b)) = (direction_of(key), old.as_f64(), new.as_f64())
            else {
                return;
            };
            if a == 0.0 {
                return; // no meaningful ratio against a zero baseline
            }
            let worse_pct = match dir {
                Direction::HigherBetter => (a - b) / a * 100.0,
                Direction::LowerBetter => (b - a) / a * 100.0,
            };
            let d = MetricDiff {
                path: path.to_string(),
                old: a,
                new: b,
                worse_pct,
            };
            if worse_pct > tol_pct {
                out.regressions.push(d);
            } else if worse_pct < -tol_pct {
                out.improvements.push(d);
            } else {
                out.unchanged += 1;
            }
        }
    }
}

/// Check the invariants that hold regardless of workload: every
/// `results_identical` leaf in `new` must be `true`.
fn check_invariants(path: &str, new: &Value, out: &mut DiffReport) {
    match new {
        Value::Object(fields) => {
            for (k, v) in fields {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                if k == "results_identical" {
                    if *v != Value::Bool(true) {
                        out.broken_invariants.push(p);
                    }
                } else {
                    check_invariants(&p, v, out);
                }
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                check_invariants(&format!("{path}[{i}]"), v, out);
            }
        }
        _ => {}
    }
}

/// Compare two parsed bench reports under a tolerance (percent).
pub fn diff_reports(old: &Value, new: &Value, tol_pct: f64) -> DiffReport {
    let mut report = DiffReport {
        differing: workload_diff(old, new),
        ..DiffReport::default()
    };
    if report.comparable() {
        diff_value("", old, new, tol_pct, &mut report);
    }
    check_invariants("", new, &mut report);
    report
}

/// Render the outcome as the table CI logs show.
pub fn render_report(report: &DiffReport, tol_pct: f64) -> String {
    let mut s = String::new();
    if !report.comparable() {
        s.push_str(&format!(
            "workloads differ ({}); skipping magnitude comparison, \
             checking invariants only\n",
            report.differing.join("/")
        ));
    } else {
        s.push_str(&format!(
            "compared at ±{tol_pct}% tolerance: {} regressed, {} improved, {} within\n",
            report.regressions.len(),
            report.improvements.len(),
            report.unchanged
        ));
        for d in &report.regressions {
            s.push_str(&format!(
                "  REGRESSED {:<42} {:>12.4} -> {:>12.4}  ({:+.1}% worse)\n",
                d.path, d.old, d.new, d.worse_pct
            ));
        }
        for d in &report.improvements {
            s.push_str(&format!(
                "  improved  {:<42} {:>12.4} -> {:>12.4}  ({:+.1}% better)\n",
                d.path, d.old, d.new, -d.worse_pct
            ));
        }
    }
    for inv in &report.broken_invariants {
        s.push_str(&format!("  INVARIANT FAILED: {inv} is not true\n"));
    }
    if report.regressions.is_empty() && report.broken_invariants.is_empty() {
        s.push_str("benchdiff: OK\n");
    } else {
        s.push_str("benchdiff: FAILED\n");
    }
    s
}

/// Render the outcome as a GitHub-flavored markdown table for
/// `$GITHUB_STEP_SUMMARY`.
pub fn render_markdown(report: &DiffReport, tol_pct: f64) -> String {
    let ok = report.regressions.is_empty() && report.broken_invariants.is_empty();
    let mut s = format!(
        "### benchdiff: {} (±{tol_pct}% tolerance)\n\n",
        if ok { "OK" } else { "FAILED" }
    );
    if !report.comparable() {
        s.push_str(&format!(
            "Workloads differ ({}); magnitudes skipped, invariants only.\n",
            report.differing.join("/")
        ));
    } else {
        s.push_str("| metric | old | new | change |\n|---|---|---|---|\n");
        for d in &report.regressions {
            s.push_str(&format!(
                "| `{}` | {:.4} | {:.4} | ❌ {:+.1}% worse |\n",
                d.path, d.old, d.new, d.worse_pct
            ));
        }
        for d in &report.improvements {
            s.push_str(&format!(
                "| `{}` | {:.4} | {:.4} | {:+.1}% better |\n",
                d.path, d.old, d.new, -d.worse_pct
            ));
        }
        s.push_str(&format!(
            "\n{} metric(s) within tolerance.\n",
            report.unchanged
        ));
    }
    for inv in &report.broken_invariants {
        s.push_str(&format!("\n❌ **invariant failed:** `{inv}` is not true\n"));
    }
    s
}

/// Entry point for `cargo xtask benchdiff`. Returns the process exit
/// code.
pub fn run(args: &[String]) -> u8 {
    let mut paths = Vec::new();
    let mut tol_pct = 10.0f64;
    let mut markdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--markdown" {
            markdown = true;
        } else if a == "--tolerance" {
            let Some(v) = it.next() else {
                eprintln!("--tolerance needs a value (percent)");
                return 2;
            };
            match v.parse::<f64>() {
                Ok(t) if t >= 0.0 => tol_pct = t,
                _ => {
                    eprintln!("--tolerance must be a non-negative number, got '{v}'");
                    return 2;
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: cargo xtask benchdiff OLD.json NEW.json [--tolerance PCT] [--markdown]");
        return 2;
    };
    let mut parsed = Vec::new();
    for p in [old_path, new_path] {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error reading {p}: {e}");
                return 2;
            }
        };
        match serde_json::parse_value(&text) {
            Ok(v) => parsed.push(v),
            Err(e) => {
                eprintln!("error parsing {p}: {e}");
                return 2;
            }
        }
    }
    let report = diff_reports(&parsed[0], &parsed[1], tol_pct);
    if markdown {
        print!("{}", render_markdown(&report, tol_pct));
    } else {
        print!("{}", render_report(&report, tol_pct));
    }
    if report.regressions.is_empty() && report.broken_invariants.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(qps: f64, seconds: f64, identical: bool, refs: u64) -> Value {
        Value::Object(vec![
            ("queries".into(), Value::U64(1024)),
            ("refs".into(), Value::U64(refs)),
            ("dim".into(), Value::U64(128)),
            ("k".into(), Value::U64(32)),
            (
                "pipeline".into(),
                Value::Object(vec![
                    ("streamed_qps".into(), Value::F64(qps)),
                    ("streamed_seconds".into(), Value::F64(seconds)),
                    ("results_identical".into(), Value::Bool(identical)),
                ]),
            ),
        ])
    }

    #[test]
    fn suffixes_pick_the_direction() {
        assert_eq!(direction_of("streamed_qps"), Some(Direction::HigherBetter));
        assert_eq!(direction_of("speedup"), Some(Direction::HigherBetter));
        assert_eq!(
            direction_of("blocked_gflops"),
            Some(Direction::HigherBetter)
        );
        assert_eq!(direction_of("scalar_seconds"), Some(Direction::LowerBetter));
        assert_eq!(direction_of("fill_ns"), Some(Direction::LowerBetter));
        assert_eq!(
            direction_of("peak_distance_bytes"),
            Some(Direction::LowerBetter)
        );
        assert_eq!(direction_of("utilization"), Some(Direction::HigherBetter));
        assert_eq!(
            direction_of("worker_utilization"),
            Some(Direction::HigherBetter)
        );
        assert_eq!(direction_of("imbalance"), Some(Direction::LowerBetter));
        assert_eq!(direction_of("tile"), None);
        assert_eq!(direction_of("best_tile"), None);
        assert_eq!(direction_of("queries"), None);
    }

    #[test]
    fn qps_drop_beyond_tolerance_is_a_regression() {
        let old = report(1000.0, 1.0, true, 1 << 14);
        let new = report(800.0, 1.28, true, 1 << 14);
        let d = diff_reports(&old, &new, 10.0);
        assert!(d.comparable());
        let paths: Vec<&str> = d.regressions.iter().map(|m| m.path.as_str()).collect();
        assert_eq!(
            paths,
            ["pipeline.streamed_qps", "pipeline.streamed_seconds"],
            "both the QPS drop and the seconds rise regress"
        );
        assert!(d.broken_invariants.is_empty());
        assert!(render_report(&d, 10.0).contains("FAILED"));
    }

    #[test]
    fn changes_within_tolerance_pass() {
        let old = report(1000.0, 1.0, true, 1 << 14);
        let new = report(950.0, 1.05, true, 1 << 14);
        let d = diff_reports(&old, &new, 10.0);
        assert!(d.regressions.is_empty());
        assert_eq!(d.unchanged, 2);
        assert!(render_report(&d, 10.0).contains("OK"));
    }

    #[test]
    fn improvements_are_reported_not_fatal() {
        let old = report(1000.0, 1.0, true, 1 << 14);
        let new = report(1500.0, 0.66, true, 1 << 14);
        let d = diff_reports(&old, &new, 10.0);
        assert!(d.regressions.is_empty());
        assert_eq!(d.improvements.len(), 2);
    }

    #[test]
    fn different_workloads_skip_magnitudes_but_keep_invariants() {
        let old = report(1000.0, 1.0, true, 1 << 14);
        let quick_ok = report(50.0, 20.0, true, 2048);
        let d = diff_reports(&old, &quick_ok, 10.0);
        assert!(!d.comparable());
        assert!(d.regressions.is_empty(), "magnitudes must not be compared");
        assert!(d.broken_invariants.is_empty());

        let quick_bad = report(50.0, 20.0, false, 2048);
        let d = diff_reports(&old, &quick_bad, 10.0);
        assert_eq!(d.broken_invariants, ["pipeline.results_identical"]);
    }

    #[test]
    fn results_identical_false_fails_even_on_same_workload() {
        let old = report(1000.0, 1.0, true, 1 << 14);
        let new = report(1000.0, 1.0, false, 1 << 14);
        let d = diff_reports(&old, &new, 10.0);
        assert_eq!(d.broken_invariants, ["pipeline.results_identical"]);
    }

    #[test]
    fn tile_sweep_arrays_compare_positionally() {
        let entry = |qps: f64| {
            Value::Object(vec![
                ("tile".into(), Value::U64(1024)),
                ("streamed_qps".into(), Value::F64(qps)),
            ])
        };
        let mut old = report(1000.0, 1.0, true, 1 << 14);
        let mut new = report(1000.0, 1.0, true, 1 << 14);
        if let (Value::Object(of), Value::Object(nf)) = (&mut old, &mut new) {
            of.push(("tile_sweep".into(), Value::Array(vec![entry(900.0)])));
            nf.push(("tile_sweep".into(), Value::Array(vec![entry(500.0)])));
        }
        let d = diff_reports(&old, &new, 10.0);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].path, "tile_sweep[0].streamed_qps");
    }

    #[test]
    fn new_schema_fields_are_compatible_additions() {
        let with_env = |mut v: Value, threads: u64, kernel: &str| {
            if let Value::Object(f) = &mut v {
                f.push(("threads".into(), Value::U64(threads)));
                f.push(("simd_dispatch".into(), Value::Str(kernel.into())));
            }
            v
        };
        // An old baseline that predates `threads`/`simd_dispatch` stays
        // comparable to a new report that has them.
        let old = report(1000.0, 1.0, true, 1 << 14);
        let new = with_env(report(1000.0, 1.0, true, 1 << 14), 1, "avx2+fma");
        let d = diff_reports(&old, &new, 10.0);
        assert!(
            d.comparable(),
            "schema additions are not workload mismatches"
        );

        // When both reports carry the fields they become part of the
        // workload identity: a 4-thread run against a 1-thread baseline
        // is not magnitude-comparable…
        let base1 = with_env(report(1000.0, 1.0, true, 1 << 14), 1, "avx2+fma");
        let par4 = with_env(report(4000.0, 0.25, true, 1 << 14), 4, "avx2+fma");
        assert!(!diff_reports(&base1, &par4, 10.0).comparable());
        // …and neither is a scalar-kernel run against a vector baseline.
        let scalar = with_env(report(300.0, 3.3, true, 1 << 14), 1, "scalar8");
        assert!(!diff_reports(&base1, &scalar, 10.0).comparable());
        // Matching values compare as before.
        let same = with_env(report(990.0, 1.01, true, 1 << 14), 1, "avx2+fma");
        assert!(diff_reports(&base1, &same, 10.0).comparable());
    }

    #[test]
    fn the_report_names_the_differing_key() {
        let with_dispatch = |kernel: &str| {
            let mut v = report(1000.0, 1.0, true, 1 << 14);
            if let Value::Object(f) = &mut v {
                f.push(("simd_dispatch".into(), Value::Str(kernel.into())));
            }
            v
        };
        let d = diff_reports(&with_dispatch("avx2+fma"), &with_dispatch("avx512"), 10.0);
        assert_eq!(d.differing, ["simd_dispatch"]);
        let text = render_report(&d, 10.0);
        assert!(text.contains("workloads differ (simd_dispatch)"), "{text}");
        assert!(
            render_markdown(&d, 10.0).contains("Workloads differ (simd_dispatch)"),
            "markdown names it too"
        );
        let quick = report(1000.0, 1.0, true, 2048);
        let d = diff_reports(&report(1000.0, 1.0, true, 1 << 14), &quick, 10.0);
        assert_eq!(d.differing, ["refs"]);
    }

    #[test]
    fn markdown_rendering_flags_regressions_and_invariants() {
        let old = report(1000.0, 1.0, true, 1 << 14);
        let new = report(800.0, 1.0, false, 1 << 14);
        let d = diff_reports(&old, &new, 10.0);
        let md = render_markdown(&d, 10.0);
        assert!(md.starts_with("### benchdiff: FAILED"), "{md}");
        assert!(md.contains("| `pipeline.streamed_qps` |"), "{md}");
        assert!(
            md.contains("`pipeline.results_identical` is not true"),
            "{md}"
        );
        let clean = diff_reports(&old, &report(990.0, 1.0, true, 1 << 14), 10.0);
        assert!(render_markdown(&clean, 10.0).starts_with("### benchdiff: OK"));
    }

    #[test]
    fn end_to_end_against_real_json_text() {
        let old = serde_json::parse_value(
            r#"{"queries":128,"refs":2048,"dim":32,"k":32,
                "distance":{"scalar_seconds":0.5,"blocked_seconds":0.05,"speedup":10.0,"blocked_gflops":4.0},
                "pipeline":{"streamed_qps":2000.0,"results_identical":true}}"#,
        )
        .unwrap();
        let new = serde_json::parse_value(
            r#"{"queries":128,"refs":2048,"dim":32,"k":32,
                "distance":{"scalar_seconds":0.5,"blocked_seconds":0.04,"speedup":12.5,"blocked_gflops":5.0},
                "pipeline":{"streamed_qps":400.0,"results_identical":true}}"#,
        )
        .unwrap();
        let d = diff_reports(&old, &new, 25.0);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].path, "pipeline.streamed_qps");
        assert!((d.regressions[0].worse_pct - 80.0).abs() < 1e-9);
    }
}
