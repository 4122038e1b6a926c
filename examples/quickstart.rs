//! Quickstart: k-selection and end-to-end k-NN with the optimized
//! Merge Queue pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_kselect::prelude::*;

fn main() {
    // --- 1. Pure k-selection: the k smallest of a distance list -------
    let dists: Vec<f32> = (0..10_000)
        .map(|i| ((i * 2654435761u64 as usize) % 10_000) as f32)
        .collect();
    let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
    let knn = select_k(&dists, &cfg);
    println!("k-selection with `{}`:", cfg.label());
    for n in &knn[..5] {
        println!("  dist {:>8.1}  id {:>6}", n.dist, n.id);
    }
    assert!(knn.windows(2).all(|w| w[0].dist <= w[1].dist));

    // --- 2. End-to-end k-NN: queries against a reference set ----------
    let refs = PointSet::uniform(20_000, 128, 1); // paper's dim = 128
    let queries = PointSet::uniform(8, 128, 2);
    let t0 = std::time::Instant::now();
    // Prepare the references once; search them as often as needed.
    let index = Index::new(&refs).expect("a non-empty reference set");
    let results = index
        .search(&queries, &SearchPlan::new(8), Hooks::NONE)
        .expect("8 <= N and matching dimensions");
    println!(
        "\n8-NN of {} queries against {} references ({} dims) in {:.1} ms:",
        queries.len(),
        refs.len(),
        refs.dim(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    for (qi, nbs) in results.iter().enumerate() {
        let ids: Vec<u32> = nbs.iter().map(|n| n.id).collect();
        println!("  query {qi}: nearest refs {ids:?}");
    }

    // --- 3. Pick a queue per regime ------------------------------------
    // Small k: the insertion queue is hard to beat. Large k: Merge Queue.
    for (k, kind) in [(8, QueueKind::Insertion), (512, QueueKind::Merge)] {
        let cfg = SelectConfig::optimized(kind, k);
        let t0 = std::time::Instant::now();
        let r = select_k(&dists, &cfg);
        println!(
            "k = {k:>4} via {:<28} -> {} results in {:>6.2} ms",
            cfg.label(),
            r.len(),
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
}
