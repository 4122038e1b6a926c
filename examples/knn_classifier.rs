//! k-NN statistical classification — the paper's §I framing: "by finding
//! similar items within a known database, existing knowledge can be used
//! for predicting unknown information".
//!
//! Synthetic 3-class Gaussian clusters in 32 dimensions; a k-NN
//! majority-vote classifier labels held-out points, sweeping k and the
//! worker count to show that the worker count changes no prediction
//! (it is purely a performance decision).
//!
//! ```text
//! cargo run --release --example knn_classifier
//! ```

use gpu_kselect::prelude::*;
use rand::{Rng, SeedableRng};

const DIM: usize = 32;
const PER_CLASS: usize = 600;
const TEST: usize = 300;

fn gaussian_cluster(rng: &mut impl Rng, center: f32, count: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(count * DIM);
    for _ in 0..count * DIM {
        // Box–Muller-ish cheap normal approximation: mean `center`.
        let u: f32 = (0..6).map(|_| rng.gen::<f32>()).sum::<f32>() / 6.0 - 0.5;
        out.push(center + u);
    }
    out
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let centers = [0.0f32, 1.2, 2.4];
    // Training set: labelled clusters.
    let mut train_flat = Vec::new();
    let mut labels = Vec::new();
    for (ci, &c) in centers.iter().enumerate() {
        train_flat.extend(gaussian_cluster(&mut rng, c, PER_CLASS));
        labels.extend(std::iter::repeat_n(ci, PER_CLASS));
    }
    let train = PointSet::from_flat(train_flat, DIM);
    // Test set: fresh draws with known labels.
    let mut test_flat = Vec::new();
    let mut truth = Vec::new();
    for i in 0..TEST {
        let ci = i % centers.len();
        test_flat.extend(gaussian_cluster(&mut rng, centers[ci], 1));
        truth.push(ci);
    }
    let test = PointSet::from_flat(test_flat, DIM);

    println!(
        "k-NN classifier: {} training points, {} test points, {} classes",
        train.len(),
        TEST,
        centers.len()
    );
    let index = Index::new(&train).expect("a non-empty training set");
    let mut last_preds: Option<Vec<usize>> = None;
    for threads in [1usize, 2] {
        for k in [8usize, 32] {
            let plan = SearchPlan::new(k).with_threads(threads);
            let t0 = std::time::Instant::now();
            let knn = index.search(&test, &plan, Hooks::NONE).expect("k <= N");
            let preds: Vec<usize> = knn
                .iter()
                .map(|nbs| {
                    let mut votes = [0usize; 3];
                    for n in nbs {
                        votes[labels[n.id as usize]] += 1;
                    }
                    votes
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &v)| v)
                        .map(|(c, _)| c)
                        .unwrap()
                })
                .collect();
            let acc = preds.iter().zip(&truth).filter(|(p, t)| p == t).count() as f64 / TEST as f64;
            println!(
                "  threads={threads} k={k:<3} accuracy {:>5.1}%  ({:.1} ms)",
                acc * 100.0,
                t0.elapsed().as_secs_f64() * 1e3
            );
            assert!(acc > 0.9, "classifier should separate these clusters");
            // Same k ⇒ identical predictions at any worker count.
            if k == 32 {
                if let Some(prev) = &last_preds {
                    assert_eq!(prev, &preds, "the worker count must not change results");
                }
                last_preds = Some(preds);
            }
        }
    }
    println!("every worker count agrees — the choice is purely about speed");
}
