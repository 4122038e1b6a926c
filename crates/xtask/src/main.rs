//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `lint [--markdown] [--verbose]` — run the kernel-authoring token
//!   lint ([`check::lint`]) over the simulated-kernel sources
//!   (`crates/core/src/gpu/` and `crates/simt/src/`), the host-path
//!   `no-unwrap-io` rule over the user-facing CLI sources, and the
//!   `no-row-alloc` rule over the `crates/knn` hot paths, filtered
//!   through the `lint-allow.txt` allowlist at the workspace root. The
//!   migrated divergence/time rules (`charge-divergence`, `time-charge`)
//!   are delegated to the CFG analyzer and merged into the report, so
//!   `lint` remains a superset of its pre-analyzer self. CI runs this on
//!   every push.
//! * `analyze [--json PATH] [--markdown] [--verbose]` — the full CFG
//!   analyzer gate ([`analyze`] module): barrier-divergence,
//!   shared-alias and time-charge proofs over every kernel, with a
//!   machine-readable findings artifact.
//! * `benchdiff OLD.json NEW.json [--tolerance PCT] [--markdown]` — the
//!   perf-regression gate over `BENCH_native.json`-shaped reports
//!   ([`benchdiff`]).
//! * `slogate JOURNAL.jsonl --slo SPEC [--markdown]` — the CI latency
//!   gate over per-query journals written by `knn-cli --journal-out`
//!   ([`slogate`]).
//!
//! All subcommands share the exit-code convention: 0 clean, 1 findings
//! (lint violations, analyzer findings, perf regressions, SLO
//! violations), 2 unusable input (bad flags, malformed files).

mod analyze;
mod benchdiff;
mod slogate;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use check::lint::{
    lint_host_tree, lint_row_alloc_tree, lint_tree, parse_allowlist, AllowEntry, LintReport,
    Violation,
};

/// Directories (or single files) the kernel lint scans, relative to the
/// workspace root. Kernel code lives here; host-side library crates
/// (knn, baselines, trace) are free to use wall-clock time and unwrap —
/// except `trace/src/metrics.rs`, which is scanned deliberately so its
/// wall-clock use stays a reviewed allowlist entry: it is the one
/// module the native pipelines route *all* their clock reads through.
/// `trace/src/journal.rs` and `knn/src/metered.rs` are scanned for the
/// same reason: the journal must stay clock-free (every nanosecond it
/// stores arrives pre-measured), and the metered call sites are the only
/// other place the native pipelines may read `Instant`.
/// `crates/serve/src` is scanned for the same reason the journal is:
/// the serving engine is deterministic-replay-only — every duration it
/// handles is simulated seconds — so any wall-clock read in it is a
/// reproducibility bug, not a style nit.
/// `knn/src/distance/simd.rs` holds the runtime-dispatched SIMD
/// microkernels: the innermost hot loop of the native pipelines, where
/// a wall-clock read or a panic would sit inside every distance tile.
/// `core/src/topk.rs` holds the top-k threshold scan, dispatched to an
/// AVX-512 body like the distance kernels: it runs once per query and
/// tile, so a clock read or an unwrap there would run in every tile.
/// `core/src/sortnet.rs` holds the AVX-512 sorting network that
/// `TopK::finish` dispatches to: it runs once per query, on the same
/// hot path as the scan.
/// `trace/src/timeline.rs` is scanned because worker timelines must be
/// clock-free by construction: every timestamp they hold arrives
/// pre-stamped by the metered layer, so an `Instant` read there would
/// silently fork the repo's single-clock discipline.
const SCAN_ROOTS: [&str; 10] = [
    "crates/core/src/gpu",
    "crates/simt/src",
    "crates/trace/src/metrics.rs",
    "crates/trace/src/journal.rs",
    "crates/knn/src/metered.rs",
    "crates/knn/src/distance/simd.rs",
    "crates/core/src/topk.rs",
    "crates/core/src/sortnet.rs",
    "crates/trace/src/timeline.rs",
    "crates/serve/src",
];

/// Directories the host-path lint (`no-unwrap-io`) scans: user-facing
/// code where a panic on bad input is a bug, not a diagnostic. The
/// serving engine qualifies: it fronts the pipelines under overload,
/// where "panic on a full queue" defeats the whole point.
const HOST_SCAN_ROOTS: [&str; 2] = ["crates/cli/src", "crates/serve/src"];

/// Directories the hot-path allocation lint (`no-row-alloc`) scans:
/// the native k-NN distance/selection code, where a `Vec<Vec<f32>>`
/// distance buffer costs one heap allocation per query row.
const ROW_ALLOC_SCAN_ROOTS: [&str; 1] = ["crates/knn/src"];

const ALLOWLIST: &str = "lint-allow.txt";

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Load and parse the shared allowlist. A missing file means nothing is
/// exempt; a malformed file is an error (CI must fail loudly).
fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    match std::fs::read_to_string(root.join(ALLOWLIST)) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Ok(Vec::new()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => ExitCode::from(lint(&args[1..])),
        Some("analyze") => ExitCode::from(analyze::run(&args[1..])),
        Some("benchdiff") => ExitCode::from(benchdiff::run(&args[1..])),
        Some("slogate") => ExitCode::from(slogate::run(&args[1..])),
        Some(other) => {
            eprintln!("unknown xtask subcommand '{other}'");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--markdown] [--verbose]\n       \
     cargo xtask analyze [--json PATH] [--markdown] [--verbose]\n       \
     cargo xtask benchdiff OLD.json NEW.json [--tolerance PCT] [--markdown]\n       \
     cargo xtask slogate JOURNAL.jsonl --slo SPEC [--markdown]";

/// Render the lint outcome as a GitHub-flavored markdown summary for
/// `$GITHUB_STEP_SUMMARY`, matching the benchdiff/slogate convention.
fn render_lint_markdown(report: &LintReport) -> String {
    let ok = report.violations.is_empty();
    let mut s = format!(
        "### kernel lint: {}\n\n{} files scanned, {} violation{}, {} allowlisted\n",
        if ok { "OK" } else { "FAILED" },
        report.files_scanned,
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
        report.suppressed.len()
    );
    if !ok {
        s.push_str("\n| rule | location | message |\n|---|---|---|\n");
        for v in &report.violations {
            s.push_str(&format!(
                "| `{}` | `{}:{}` | {} |\n",
                v.rule,
                v.file,
                v.line,
                v.message.replace('|', "\\|")
            ));
        }
    }
    s
}

fn lint(args: &[String]) -> u8 {
    let mut verbose = false;
    let mut markdown = false;
    for a in args {
        match a.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--markdown" => markdown = true,
            other => {
                eprintln!("unknown lint flag '{other}'\n{USAGE}");
                return 2;
            }
        }
    }
    let root = workspace_root();
    let allow = match load_allowlist(&root) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let roots: Vec<PathBuf> = SCAN_ROOTS.iter().map(|r| root.join(r)).collect();
    let root_refs: Vec<&Path> = roots.iter().map(PathBuf::as_path).collect();
    let mut report = match lint_tree(&root_refs, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to scan kernel sources: {e}");
            return 2;
        }
    };
    let host_roots: Vec<PathBuf> = HOST_SCAN_ROOTS.iter().map(|r| root.join(r)).collect();
    let host_refs: Vec<&Path> = host_roots.iter().map(PathBuf::as_path).collect();
    match lint_host_tree(&host_refs, &allow) {
        Ok(host) => {
            report.files_scanned += host.files_scanned;
            report.violations.extend(host.violations);
            report.suppressed.extend(host.suppressed);
        }
        Err(e) => {
            eprintln!("error: failed to scan host sources: {e}");
            return 2;
        }
    }
    let alloc_roots: Vec<PathBuf> = ROW_ALLOC_SCAN_ROOTS.iter().map(|r| root.join(r)).collect();
    let alloc_refs: Vec<&Path> = alloc_roots.iter().map(PathBuf::as_path).collect();
    match lint_row_alloc_tree(&alloc_refs, &allow) {
        Ok(alloc) => {
            report.files_scanned += alloc.files_scanned;
            report.violations.extend(alloc.violations);
            report.suppressed.extend(alloc.suppressed);
        }
        Err(e) => {
            eprintln!("error: failed to scan hot-path sources: {e}");
            return 2;
        }
    }
    // Delegate the migrated divergence/time rules to the CFG analyzer
    // and fold its charge-divergence/time-charge findings in, so `lint`
    // still gates everything the old token rules gated (the remaining
    // analyzer rules are owned by `cargo xtask analyze`).
    match analyze::run_analysis(&root, &allow) {
        Ok((analysis, suppressed)) => {
            let migrated = [::analyze::RULE_CHARGE, ::analyze::RULE_TIME];
            let to_violation = |f: &::analyze::Finding| Violation {
                file: f.file.clone(),
                line: f.line,
                rule: f.rule,
                message: format!("{} (in fn `{}`)", f.message, f.function),
                line_text: f.line_text.clone(),
            };
            report.violations.extend(
                analysis
                    .findings
                    .iter()
                    .filter(|f| migrated.contains(&f.rule))
                    .map(to_violation),
            );
            report.suppressed.extend(
                suppressed
                    .iter()
                    .filter(|f| migrated.contains(&f.rule))
                    .map(to_violation),
            );
        }
        Err(e) => {
            eprintln!("error: failed to run the CFG analyzer: {e}");
            return 2;
        }
    }
    if verbose {
        for v in &report.suppressed {
            println!("allowed: {}:{} [{}]", v.file, v.line, v.rule);
        }
    }
    for v in &report.violations {
        // Print paths relative to the workspace root so they are stable
        // across machines and clickable in CI logs.
        let mut v = v.clone();
        if let Ok(rel) = Path::new(&v.file).strip_prefix(&root) {
            v.file = rel.display().to_string();
        }
        eprintln!("{v}\n");
    }
    if markdown {
        print!("{}", render_lint_markdown(&report));
    } else {
        println!(
            "kernel lint: {} files scanned, {} violations, {} allowlisted",
            report.files_scanned,
            report.violations.len(),
            report.suppressed.len()
        );
    }
    if report.violations.is_empty() {
        0
    } else {
        eprintln!(
            "error: kernel-authoring violations found; fix them or add a \
             justified entry to {ALLOWLIST} (see CONTRIBUTING.md)"
        );
        1
    }
}
