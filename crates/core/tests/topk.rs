//! `TopK` against a full `(dist, id)` sort of everything pushed, cut at
//! k: tie-heavy rows, negative values, mixed `−0.0`/`+0.0` and `+∞`
//! entries, k from 1 to the row
//! length (and past it), empty rows, rows split across many pushes at
//! arbitrary offsets with or without a settle between them, and buffer
//! fills landing just below, at and just above the `2k` cut point; and
//! `batch-k1024`'s shape, k near 1024 over two 2048-value tiles.

use kselect::topk::STRIP;
use kselect::{Candidates, Neighbor, TopK};
use proptest::prelude::*;

/// The k smallest finite values of `row` by `(dist, id)` under IEEE
/// `<` (`−0.0 == +0.0`, returned as `+0.0`), as `(dist bits, id)`.
fn oracle(row: &[f32], k: usize) -> Vec<(u32, u32)> {
    let mut v: Vec<(f32, u32)> = row
        .iter()
        .map(|&d| if d == 0.0 { 0.0 } else { d })
        .zip(0u32..)
        .filter(|(d, _)| d.is_finite())
        .collect();
    v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    v.iter().take(k).map(|&(d, i)| (d.to_bits(), i)).collect()
}

fn bits(ns: &[Neighbor]) -> Vec<(u32, u32)> {
    ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect()
}

/// Push `row` in pieces starting at `splits` (ascending offsets), with
/// a settle after the pieces `settle_after` marks, and always at the
/// end. Returns the result and `pushed - rejected`.
fn stream(row: &[f32], k: usize, splits: &[usize], settle_after: &[bool]) -> (Vec<Neighbor>, u64) {
    let mut cand = Candidates::new(k);
    let mut top = TopK::new(k);
    let mut starts: Vec<usize> = splits.iter().map(|&s| s.min(row.len())).collect();
    starts.push(0);
    starts.sort_unstable();
    starts.dedup();
    for (i, &s) in starts.iter().enumerate() {
        let e = starts.get(i + 1).copied().unwrap_or(row.len());
        top.push(&mut cand, &row[s..e], s as u32);
        if settle_after.get(i).copied().unwrap_or(false) {
            top.settle(&mut cand);
        }
    }
    top.settle(&mut cand);
    let s = top.stats();
    (top.finish(&mut cand), s.pushed - s.rejected)
}

/// A value drawn from few distinct ones (ties everywhere, negatives
/// among them), `+0.0`, `−0.0`, `+∞` and the finite extremes included,
/// or from a spread range of either sign.
fn value() -> impl Strategy<Value = f32> {
    (0u32..13, 0u32..1 << 20).prop_map(|(pick, v)| match pick {
        0..=3 => (v % 6) as f32 * 0.5 - 1.0,
        4 => 0.0,
        5 => -0.0,
        6 | 7 => f32::INFINITY,
        8 | 9 => -(v as f32) / 1024.0,
        10 => [f32::MIN, f32::MAX, -1e-30, 1e-30][v as usize % 4],
        _ => v as f32 / 1024.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equals_the_sort_oracle(
        row in proptest::collection::vec(value(), 0..400),
        k_pick in 0usize..4,
        k_raw in 1usize..64,
        splits in proptest::collection::vec(0usize..400, 0..12),
        settle_after in proptest::collection::vec(any::<bool>(), 0..13),
    ) {
        // k = 1, k = the row length, k past it, and anything between.
        let k = match k_pick {
            0 => 1,
            1 => row.len().max(1),
            2 => row.len() + 3,
            _ => k_raw,
        };
        let (got, held) = stream(&row, k, &splits, &settle_after);
        let want = oracle(&row, k);
        prop_assert_eq!(bits(&got), want.clone());
        prop_assert_eq!(held, got.len() as u64);
        prop_assert!(got.iter().all(|n| n.dist.is_finite()), "+∞ is never returned");
        let finite = row.iter().filter(|d| d.is_finite()).count();
        prop_assert_eq!(got.len(), finite.min(k));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// knnbench `batch-k1024`'s shape: a 4096-value row arrives as two
    /// 2048-value tiles, settled after each, and k = 1024 is held at
    /// the end. k = 1000 and 1025 give the final sort a length that is
    /// not a power of two. Without the last settle, `finish` makes the
    /// last cut itself, as the streamed search calls it.
    #[test]
    fn two_tiles_at_large_k(row in proptest::collection::vec(value(), 4096)) {
        for k in [1000, 1024, 1025] {
            for settle_last in [true, false] {
                let mut cand = Candidates::new(k);
                let mut top = TopK::new(k);
                for (t, tile) in row.chunks(2048).enumerate() {
                    top.push(&mut cand, tile, (2048 * t) as u32);
                    if t == 0 || settle_last {
                        top.settle(&mut cand);
                    }
                }
                let got = top.finish(&mut cand);
                prop_assert_eq!(bits(&got), oracle(&row, k), "k {} settle_last {}", k, settle_last);
                let s = top.stats();
                prop_assert_eq!(s.pushed - s.rejected, got.len() as u64);
            }
        }
    }
}

#[test]
fn empty_rows_return_nothing() {
    for k in [1usize, 5] {
        let (got, held) = stream(&[], k, &[], &[]);
        assert!(got.is_empty());
        assert_eq!(held, 0);
        let (got, _) = stream(&[], k, &[0, 0], &[true]);
        assert!(got.is_empty());
    }
}

/// Fill the buffer with exactly `fill` values before a strip that holds
/// a value below everything: the first two strips carry `fill` finite
/// values (the rest `+∞`), so the bound stays `+∞` and they all enter.
/// The third strip's first value is the global minimum. Only a fill
/// past `2k` is cut before that strip is written.
#[test]
fn buffer_fills_at_2k_minus_1_2k_and_2k_plus_1() {
    let k = 40;
    assert!(2 * k < 2 * STRIP, "every fill fits the first two strips");
    for fill in [2 * k - 1, 2 * k, 2 * k + 1] {
        let mut row = vec![f32::INFINITY; 3 * STRIP];
        for (i, d) in row.iter_mut().take(fill).enumerate() {
            *d = (1 + i / 4) as f32; // tied in fours
        }
        row[2 * STRIP] = 0.0;
        row[2 * STRIP + 1] = 0.5;

        let mut cand = Candidates::new(k);
        let mut top = TopK::new(k);
        top.push(&mut cand, &row, 0);
        let cut_before_third = top.stats().rejected;
        assert_eq!(
            cut_before_third,
            if fill > 2 * k { (fill - k) as u64 } else { 0 },
            "fill {fill}"
        );
        top.settle(&mut cand);
        let s = top.stats();
        assert_eq!(s.pushed, fill as u64 + 2, "fill {fill}");
        assert_eq!(s.pushed - s.rejected, k as u64, "fill {fill}");
        assert_eq!(bits(&top.finish(&mut cand)), oracle(&row, k), "fill {fill}");
    }
}

/// A held state reloaded into the buffer counts toward its fill: with
/// k held from an earlier settle, `k + 1` more values reach `2k + 1`.
#[test]
fn reloaded_keys_count_toward_the_fill() {
    let k = 8;
    let mut cand = Candidates::new(k);
    let mut top = TopK::new(k);
    let first: Vec<f32> = (0..k).map(|i| 100.0 + i as f32).collect();
    top.push(&mut cand, &first, 0);
    top.settle(&mut cand);
    assert_eq!(top.bound(), 107.0);
    // One strip of k + 1 values below the bound fills the buffer to
    // 2k + 1; the next strip's value below the bound forces a cut.
    let mut second = vec![f32::INFINITY; 2 * STRIP];
    for (i, d) in second.iter_mut().take(k + 1).enumerate() {
        *d = 50.0 + i as f32;
    }
    second[STRIP] = 1.0;
    top.push(&mut cand, &second, k as u32);
    assert_eq!(top.stats().rejected, (k + 1) as u64, "2k + 1 cut to k");
    assert_eq!(top.bound(), 57.0);
    top.settle(&mut cand);
    let mut row = first;
    row.extend(&second);
    assert_eq!(bits(&top.finish(&mut cand)), oracle(&row, k));
}
