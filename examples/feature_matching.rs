//! Image feature matching — the workload that motivates the paper
//! (§I cites Agarwal et al.'s "Building Rome in a Day": pairwise image
//! matching for 3D reconstruction is k-NN over 128-dimensional SIFT
//! descriptors).
//!
//! We synthesise two "images": image B's descriptors are noisy copies of
//! half of image A's (true correspondences) plus clutter. For every
//! descriptor in A we find its 2 nearest neighbors in B and apply Lowe's
//! ratio test (best/second-best < 0.8) to accept a match — then check
//! how many accepted matches are the planted ground truth.
//!
//! ```text
//! cargo run --release --example feature_matching
//! ```

use gpu_kselect::prelude::*;
use rand::{Rng, SeedableRng};

const DIM: usize = 128;
const N_A: usize = 2_000;
const CLUTTER: usize = 3_000;
const NOISE: f32 = 0.02;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2015);
    // Image A: N_A random unit-ish descriptors.
    let a = PointSet::uniform(N_A, DIM, 11);
    // Image B: noisy copies of the first half of A (ground-truth
    // correspondences), then clutter.
    let mut b_flat = Vec::with_capacity((N_A / 2 + CLUTTER) * DIM);
    for i in 0..N_A / 2 {
        for &v in a.point(i) {
            b_flat.push(v + rng.gen_range(-NOISE..NOISE));
        }
    }
    let clutter = PointSet::uniform(CLUTTER, DIM, 12);
    b_flat.extend_from_slice(clutter.as_flat());
    let b = PointSet::from_flat(b_flat, DIM);

    println!(
        "matching {} descriptors of image A against {} of image B (dim {DIM})",
        a.len(),
        b.len()
    );

    // 2-NN per descriptor with the paper's optimized pipeline.
    let t0 = std::time::Instant::now();
    let index = Index::new(&b).expect("image B has descriptors");
    let knn = index
        .search(&a, &SearchPlan::new(2), Hooks::NONE)
        .expect("2 <= N");
    let elapsed = t0.elapsed().as_secs_f64();

    // Lowe's ratio test on squared distances (ratio on distances →
    // squared ratio on squared distances).
    let ratio = 0.8f32;
    let mut accepted = 0usize;
    let mut correct = 0usize;
    for (qi, nbs) in knn.iter().enumerate() {
        let best = nbs[0];
        let second = nbs[1];
        if best.dist < ratio * ratio * second.dist {
            accepted += 1;
            if qi < N_A / 2 && best.id as usize == qi {
                correct += 1;
            }
        }
    }
    println!(
        "matched in {:.2} s: {accepted} accepted by the ratio test, \
         {correct}/{} planted correspondences recovered ({:.1}% precision on planted half)",
        elapsed,
        N_A / 2,
        100.0 * correct as f64 / accepted.max(1) as f64
    );
    assert!(
        correct as f64 >= 0.95 * (N_A / 2) as f64,
        "expected to recover nearly all planted correspondences"
    );
}
