//! `Selector::select` against a restatement of the selection it
//! replaced: every level of the Hierarchical Partition, and the plain
//! insertion-queue scan, picked their k best through an insertion queue
//! fed in arrival order, so the first-seen of equal values wins at the
//! k-th place. The bounded selector must return exactly those picks with
//! the ones `≥ bound` removed — same values (bit for bit, so `-0.0` and
//! `0.0` stay apart), same ids, same order.

use kselect::{
    BufferConfig, HpConfig, InsertionQueue, KQueue, Neighbor, QueueKind, SelectConfig, Selector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The k best of `(value, index)` pairs through an insertion queue, in
/// `(value, index)` order.
fn queue_k_best(pairs: impl Iterator<Item = (f32, u32)>, k: usize) -> Vec<(f32, u32)> {
    let mut q = InsertionQueue::new(k);
    for (d, i) in pairs {
        if d < q.max() {
            q.offer(d, i);
        }
    }
    q.into_sorted().iter().map(|n| (n.dist, n.id)).collect()
}

/// Hierarchical Partition as first written: build group minima until a
/// level has ≤ k values, take the top level's k best, then expand each
/// level's picks in their sorted order and re-pick through the queue.
fn reference_hp(dists: &[f32], g: usize, k: usize) -> Vec<(f32, u32)> {
    let mut levels: Vec<Vec<f32>> = vec![dists.to_vec()];
    while levels.last().unwrap().len() > k {
        let next = levels
            .last()
            .unwrap()
            .chunks(g)
            .map(|c| c.iter().copied().fold(f32::INFINITY, f32::min))
            .collect();
        levels.push(next);
    }
    let top = levels.last().unwrap();
    let mut cands = queue_k_best(top.iter().copied().zip(0u32..), k);
    for below in levels.iter().rev().skip(1) {
        let expanded = cands.iter().flat_map(|&(_, i)| {
            let start = i as usize * g;
            (start..(start + g).min(below.len())).map(|j| (below[j], j as u32))
        });
        cands = queue_k_best(expanded, k);
    }
    cands
}

fn reference(dists: &[f32], cfg: &SelectConfig, bound: f32) -> Vec<(u32, u32)> {
    let picks = match cfg.hp {
        Some(hp) => reference_hp(dists, hp.g, cfg.k),
        None => queue_k_best(dists.iter().copied().zip(0u32..), cfg.k),
    };
    picks
        .into_iter()
        .filter(|&(d, _)| d < bound)
        .map(|(d, i)| (d.to_bits(), i))
        .collect()
}

fn bits(ns: &[Neighbor]) -> Vec<(u32, u32)> {
    ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect()
}

/// A list drawn from a few levels so ties are common, with `-0.0`, +∞
/// and NaN mixed in.
fn tied_list(rng: &mut StdRng) -> Vec<f32> {
    let len = rng.gen_range(0..=80usize);
    let levels = rng.gen_range(1..=6u32);
    (0..len)
        .map(|_| match rng.gen_range(0..20u32) {
            0 => f32::INFINITY,
            1 => f32::NAN,
            2 => -0.0,
            _ => rng.gen_range(0..levels) as f32 * 0.5,
        })
        .collect()
}

/// The configs whose tie rule is pinned: every HP config (natively the
/// queue and buffer do not apply under HP), and the insertion-queue scan
/// with and without a buffer.
fn pinned_configs(k: usize) -> Vec<SelectConfig> {
    let mut out = vec![
        SelectConfig::plain(QueueKind::Insertion, k),
        SelectConfig::plain(QueueKind::Insertion, k).with_buffer(BufferConfig::default()),
    ];
    for g in [2usize, 3, 4, 8] {
        for queue in QueueKind::ALL {
            out.push(SelectConfig::optimized(queue, k).with_hp(HpConfig { g }));
        }
    }
    out
}

#[test]
fn bounded_selector_equals_the_insertion_queue_reference() {
    let mut rng = StdRng::seed_from_u64(1501);
    let mut lists: Vec<Vec<f32>> = (0..150).map(|_| tied_list(&mut rng)).collect();
    lists.push(vec![f32::INFINITY; 37]);
    let mut cases = 0u64;
    for dists in &lists {
        let finite_min = dists
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(f32::INFINITY, f32::min);
        let mut bounds = vec![f32::INFINITY, finite_min - 1.0];
        if !dists.is_empty() {
            bounds.push(dists[rng.gen_range(0..dists.len())]);
        }
        for k in 1..=dists.len() + 4 {
            for cfg in pinned_configs(k) {
                // One selector per config, reused across the bounds.
                let mut sel = Selector::new(cfg);
                for &bound in &bounds {
                    let got = sel.select(dists, bound);
                    assert_eq!(
                        bits(&got),
                        reference(dists, &cfg, bound),
                        "{} k={k} bound={bound} dists={dists:?}",
                        cfg.label()
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 50_000, "{cases} cases");
}

#[test]
fn select_k_is_the_unbounded_selector() {
    let mut rng = StdRng::seed_from_u64(1502);
    for _ in 0..50 {
        let dists: Vec<f32> = (0..rng.gen_range(1..3000usize))
            .map(|_| rng.gen())
            .collect();
        for queue in QueueKind::ALL {
            for cfg in [
                SelectConfig::plain(queue, 16),
                SelectConfig::optimized(queue, 64),
            ] {
                assert_eq!(
                    kselect::select_k(&dists, &cfg),
                    Selector::new(cfg).select(&dists, f32::INFINITY),
                    "{}",
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn a_reused_selector_forgets_the_previous_list() {
    // A deep list then a shallow one then a deep one again: stale levels
    // from the first call must not leak into the second.
    let mut rng = StdRng::seed_from_u64(1503);
    let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
    let mut sel = Selector::new(cfg);
    for len in [4096usize, 5, 300, 0, 4096] {
        let dists: Vec<f32> = (0..len).map(|_| rng.gen()).collect();
        assert_eq!(
            sel.select(&dists, f32::INFINITY),
            Selector::new(cfg).select(&dists, f32::INFINITY),
            "len {len}"
        );
    }
}
