//! Exit-code regressions, run against the built `knn-cli` binary so a
//! panic (exit 101) cannot hide behind an in-process test harness.

use std::process::Command;

fn knn_cli(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_knn-cli"))
        .args(args)
        .output()
        .expect("knn-cli runs");
    out.status.code().expect("knn-cli exits with a code")
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
