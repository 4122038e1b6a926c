//! Exit-code regressions, run against the built `knn-cli` binary so a
//! panic (exit 101) cannot hide behind an in-process test harness.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run_in(dir: Option<&Path>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_knn-cli"));
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    cmd.args(args).output().expect("knn-cli runs")
}

fn knn_cli(args: &[&str]) -> i32 {
    run_in(None, args)
        .status
        .code()
        .expect("knn-cli exits with a code")
}

/// A scratch directory of its own for one test, so relative output
/// paths never land in the source tree and tests never share files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("knn_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn bench_merge_queue_accepts_k_below_the_queue_width() {
    // k = 4 pads to the merge queue's minimum capacity of 8.
    assert_eq!(
        knn_cli(&["bench", "--n", "2048", "--k", "4", "--queue", "merge"]),
        0
    );
}

#[test]
fn padded_k_past_n_is_a_typed_error() {
    // k = 3 pads to 8, which exceeds the 4 candidates.
    assert_eq!(
        knn_cli(&["bench", "--n", "4", "--k", "3", "--queue", "merge"]),
        1
    );
}

/// The native search reads only k, so a k below the Merge queue width
/// is not padded there: k = 3 of 5 references answers 3 neighbors per
/// query.
#[test]
fn search_k_below_the_merge_queue_width_is_not_padded() {
    let dir = scratch("merge_k3");
    for (name, count) in [("refs", "5"), ("queries", "2")] {
        let out = run_in(
            Some(&dir),
            &["generate", "--count", count, "--dim", "4", "--out", name],
        );
        assert_eq!(out.status.code(), Some(0), "generate {name}");
    }
    let out = run_in(
        Some(&dir),
        &[
            "search",
            "--refs",
            "refs",
            "--queries",
            "queries",
            "--dim",
            "4",
            "--k",
            "3",
            "--json",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let rows = serde_json::parse_value(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let serde_json::Value::Array(rows) = rows else {
        panic!("one array per query");
    };
    assert_eq!(rows.len(), 2);
    for row in rows {
        let serde_json::Value::Array(neighbors) = row else {
            panic!("a query's neighbors are an array");
        };
        assert_eq!(neighbors.len(), 3);
    }
}

/// `search` used to accept `--queue` and ignore it: the native search
/// keeps the k smallest by `(distance, id)` whatever the queue. The
/// flag layer now rejects it before any file is read.
#[test]
fn search_rejects_queue_with_exit_2() {
    for queue in ["merge", "heap", "insertion"] {
        let out = run_in(
            None,
            &[
                "search",
                "--refs",
                "missing-refs.f32",
                "--queries",
                "missing-queries.f32",
                "--dim",
                "4",
                "--k",
                "3",
                "--queue",
                queue,
            ],
        );
        assert_eq!(out.status.code(), Some(2), "--queue {queue}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`search` has no --queue"), "{stderr}");
    }
}

/// A fault rate outside [0, 1] used to act as "never" (negative, NaN)
/// or "always" (past 1); every rate flag of `faults` now rejects it
/// with exit 2 before any campaign runs.
#[test]
fn faults_rates_outside_the_unit_interval_exit_2() {
    for flag in ["aborts", "hangs", "bitflips", "pcie-stall", "pcie-corrupt"] {
        for bad in ["NaN", "-0.1", "1.5"] {
            let out = run_in(
                None,
                &[
                    "faults",
                    "--n",
                    "512",
                    "--k",
                    "8",
                    &format!("--{flag}"),
                    bad,
                ],
            );
            assert_eq!(out.status.code(), Some(2), "--{flag} {bad}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("--{flag} rate must be in [0, 1], got")),
                "--{flag} {bad}: {stderr}"
            );
        }
    }
}

/// `report --top` ranks journal records; with only `--timeline` it used
/// to be accepted and ignored. It is a parse error now, reported before
/// the timeline file is read.
#[test]
fn report_top_without_a_journal_exits_2() {
    let out = run_in(
        None,
        &[
            "report",
            "--timeline",
            "missing-timeline.json",
            "--top",
            "3",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("report --top needs a JOURNAL.jsonl path"),
        "{stderr}"
    );
}

/// Inputs that used to be silently ignored, misparsed or panicked, and
/// the code each must exit with now: 2 for a rejected invocation, 1 for
/// a typed `invalid-k` at run time.
#[test]
fn ignored_or_panicking_inputs_exit_with_their_code() {
    let table: &[(&str, i32)] = &[
        ("bench --n 2048 --k 16 --bogus-flag 7", 2),
        ("bench --n 2048 --k 16 --thread 2", 2),
        ("bench --n 2048 --k 16 --json", 2),
        ("simulate --n 2048 --k 16 --threads 4", 2),
        ("bench --n 2048 --k 16 --n 5", 2),
        ("bench --n 2048 --k 16 --help", 0),
        (
            "faults --n 512 --k 8 --aborts 0 --hangs 0 --bitflips 0 --attempts 4294967297",
            2,
        ),
        (
            "faults --n 512 --k 8 --aborts 0 --hangs 0 --bitflips 0 --attempts 0",
            2,
        ),
        (
            "faults --n 512 --k 8 --seed 2 --seeds 18446744073709551615",
            2,
        ),
        ("faults --n 512 --k 8 --seeds 0", 2),
        ("generate --count 3 --dim 0 --out x", 2),
        ("stats --n 512 --k 8 --dim 0", 2),
        ("profile --n 512 --k 8 --queries 0", 2),
        ("faults --n 512 --k 8 --queries 0", 2),
        ("serve --tile 0", 2),
        ("serve --load -1", 2),
        ("serve --rate 0", 2),
        ("serve --stride 0", 2),
        ("serve --deadline -1", 2),
        ("serve --duration-sim -5", 2),
        ("stats --n 512 --k 8 --queries 0", 2),
        ("serve --k 0", 1),
        ("serve --n 64 --k 8 --stride 16", 1),
        ("serve --n 64 --k 8 --stride 64", 1),
        ("serve --n 64 --k 64", 1),
    ];
    for (argv, want) in table {
        let args: Vec<&str> = argv.split(' ').collect();
        assert_eq!(knn_cli(&args), *want, "knn-cli {argv}");
    }
    let help = run_in(None, &["bench", "--n", "2048", "--k", "16", "--help"]);
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(
        stdout.contains("USAGE:"),
        "--help prints the usage: {stdout}"
    );
    assert!(
        !stdout.contains("ms/query"),
        "--help does not run the bench"
    );
}

/// splitmix64: a seeded, dependency-free stream for the argv generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Every subcommand: the flags that keep one run in milliseconds
/// (drawn flags replace these or add to them), then the rest of the
/// flags it takes.
type Subcommand = (
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static [&'static str],
);

const SUBCOMMANDS: &[Subcommand] = &[
    (
        "generate",
        &[("count", "8"), ("dim", "4"), ("out", "g.f32")],
        &["seed"],
    ),
    (
        "search",
        &[
            ("refs", "r.f32"),
            ("queries", "q.f32"),
            ("dim", "4"),
            ("k", "4"),
        ],
        &[
            "metric",
            "threads",
            "json",
            "metrics-out",
            "timeline-out",
            "journal-out",
            "journal-sample",
            "journal-exemplars",
        ],
    ),
    (
        "bench",
        &[("n", "64"), ("k", "8")],
        &[
            "queue",
            "threads",
            "metrics-out",
            "timeline-out",
            "journal-out",
            "journal-sample",
            "journal-exemplars",
        ],
    ),
    (
        "stats",
        &[("n", "64"), ("k", "8"), ("dim", "4"), ("queries", "4")],
        &[
            "threads",
            "metrics-out",
            "timeline-out",
            "journal-out",
            "journal-sample",
            "journal-exemplars",
        ],
    ),
    ("simulate", &[("n", "64"), ("k", "8")], &["queue"]),
    (
        "profile",
        &[("n", "64"), ("k", "8"), ("queries", "8")],
        &["queue", "trace-out", "jsonl-out"],
    ),
    (
        "faults",
        &[
            ("n", "64"),
            ("k", "8"),
            ("queries", "8"),
            ("seeds", "2"),
            ("aborts", "0"),
            ("hangs", "0"),
            ("bitflips", "0"),
        ],
        &[
            "queue",
            "seed",
            "pcie-stall",
            "pcie-corrupt",
            "attempts",
            "journal-out",
            "journal-sample",
            "journal-exemplars",
        ],
    ),
    (
        "serve",
        &[("n", "64"), ("k", "8"), ("dim", "4"), ("queries", "4")],
        &[
            "seed",
            "duration-sim",
            "arrivals",
            "rate",
            "load",
            "deadline",
            "deadline-factor",
            "capacity",
            "policy",
            "tile",
            "stride",
            "threads",
            "fault-plan",
            "json",
            "metrics-out",
            "timeline-out",
            "journal-out",
            "journal-sample",
            "journal-exemplars",
        ],
    ),
    ("report", &[("timeline", "t.json")], &["top"]),
    ("help", &[], &[]),
];

/// The union of every subcommand's flags plus one misspelling, each
/// with small valid values. An empty list marks a switch.
const FLAGS: &[(&str, &[&str])] = &[
    ("count", &["8"]),
    ("dim", &["4"]),
    ("seed", &["3"]),
    ("out", &["g.f32"]),
    ("refs", &["r.f32"]),
    ("queries", &["8", "q.f32"]),
    ("k", &["1", "8"]),
    ("n", &["64"]),
    ("metric", &["cosine", "manhattan"]),
    ("queue", &["heap", "insertion"]),
    ("threads", &["2"]),
    ("json", &[]),
    ("help", &[]),
    ("metrics-out", &["m.json", "m.txt"]),
    ("timeline-out", &["t.json", "t.trace.json"]),
    ("journal-out", &["j.jsonl"]),
    ("journal-sample", &["0.5"]),
    ("journal-exemplars", &["4"]),
    ("trace-out", &["trace.json"]),
    ("jsonl-out", &["trace.jsonl"]),
    ("seeds", &["2"]),
    ("aborts", &["0.1"]),
    ("hangs", &["0.1"]),
    ("bitflips", &["0.001"]),
    ("pcie-stall", &["0.2"]),
    ("pcie-corrupt", &["0.1"]),
    ("attempts", &["2"]),
    ("duration-sim", &["0.0005"]),
    ("arrivals", &["uniform"]),
    ("rate", &["2000"]),
    ("load", &["0.5"]),
    ("deadline", &["0.0001"]),
    ("deadline-factor", &["2"]),
    ("capacity", &["2"]),
    ("policy", &["drop-oldest"]),
    ("tile", &["16"]),
    ("stride", &["2"]),
    ("fault-plan", &["pcie-stall=0.2,pcie-corrupt=0.1"]),
    ("top", &["3"]),
    ("timeline", &["t.json"]),
    ("thread", &["2"]),
];

/// Values no flag should be able to turn into a panic.
const HOSTILE: &[&str] = &[
    "0",
    "-1",
    "1e300",
    "nan",
    "inf",
    "",
    "x",
    "18446744073709551616",
];

/// Random invocations — a subcommand and 0–6 drawn flags, each with a
/// small valid or a hostile value — end in a result or a named error
/// (exit 0, 1 or 2), never a panic (101) or a signal.
#[test]
fn random_argv_never_panics() {
    let dir = scratch("argv");
    for (out, count) in [("r.f32", "64"), ("q.f32", "8")] {
        let made = run_in(
            Some(&dir),
            &["generate", "--count", count, "--dim", "4", "--out", out],
        );
        assert!(made.status.success(), "fixture {out}");
    }
    let mut rng = Rng(0x006b_6e6e_2d63_6c69);
    for case in 0..1500 {
        let (cmd, base, rest) = rng.pick(SUBCOMMANDS);
        let own: Vec<&str> = base
            .iter()
            .map(|(n, _)| *n)
            .chain(rest.iter().copied())
            .collect();
        let mut flags: Vec<(&str, Option<&str>)> =
            base.iter().map(|(n, v)| (*n, Some(*v))).collect();
        for _ in 0..rng.next() % 7 {
            // mostly the subcommand's own flags, sometimes any flag at all
            let name = if own.is_empty() || rng.next().is_multiple_of(4) {
                rng.pick(FLAGS).0
            } else {
                *rng.pick(&own)
            };
            let valid = FLAGS
                .iter()
                .find(|(n, _)| *n == name)
                .expect("listed flag")
                .1;
            let value = if valid.is_empty() {
                None
            } else if rng.next().is_multiple_of(3) {
                Some(*rng.pick(HOSTILE))
            } else {
                Some(*rng.pick(valid))
            };
            flags.retain(|(n, _)| *n != name);
            flags.push((name, value));
        }
        let names: Vec<String> = flags.iter().map(|(n, _)| format!("--{n}")).collect();
        let mut argv = vec![*cmd];
        for ((_, value), name) in flags.iter().zip(&names) {
            argv.push(name);
            argv.extend(value);
        }
        let out = run_in(Some(&dir), &argv);
        let code = out.status.code();
        assert!(
            matches!(code, Some(0..=2)),
            "case {case}: knn-cli {argv:?} exited {code:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
