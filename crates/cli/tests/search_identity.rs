//! `knn-cli search` answers the same whatever the thread count: on
//! references that each appear three times (so every distance is tied
//! three ways and the k-th usually is), `--json` output is
//! byte-identical at `--threads 1`, `2` and `4` for every `--metric`. 40 queries make two query blocks, so two or more
//! workers split them.

use std::path::{Path, PathBuf};
use std::process::Command;

const DIM: usize = 4;

/// Coordinates from a few values, so distances collide beyond the
/// tripled references too.
fn quantized(count: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..count * DIM)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 5) as f32 * 0.5 - 1.0
        })
        .collect()
}

fn write_points(path: &Path, flat: &[f32]) {
    let bytes: Vec<u8> = flat.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(path, bytes).expect("write points");
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("knn_cli_identity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn search_json_is_byte_identical_at_any_thread_count() {
    let dir = scratch();
    let (refs, queries) = (dir.join("refs.f32"), dir.join("queries.f32"));
    let base = quantized(30, 7);
    write_points(&refs, &base.repeat(3));
    // Every fourth query copies a reference exactly.
    let mut qs = quantized(40, 11);
    for (qi, q) in qs.chunks_mut(DIM).enumerate().step_by(4) {
        q.copy_from_slice(&base[(qi % 30) * DIM..][..DIM]);
    }
    write_points(&queries, &qs);
    let (refs, queries) = (refs.to_str().unwrap(), queries.to_str().unwrap());
    for metric in ["euclidean", "manhattan", "cosine", "dot"] {
        let run = |threads: &str| {
            let out = Command::new(env!("CARGO_BIN_EXE_knn-cli"))
                .args([
                    "search",
                    "--refs",
                    refs,
                    "--queries",
                    queries,
                    "--dim",
                    "4",
                    "--k",
                    "6",
                    "--metric",
                    metric,
                    "--threads",
                    threads,
                    "--json",
                ])
                .output()
                .expect("knn-cli runs");
            assert_eq!(out.status.code(), Some(0), "{metric} {threads}");
            out.stdout
        };
        let one = run("1");
        for threads in ["2", "4"] {
            assert!(
                run(threads) == one,
                "--metric {metric}: --threads {threads} differs from 1"
            );
        }
    }
}
