//! Divide-and-merge k-selection for very large N.
//!
//! The paper evaluates N ∈ [2^13, 2^16] and notes (§IV) that "a
//! divide-and-merge method [Arefin et al., GPU-FS-kNN] can be applied to
//! support N larger than the range without hurting the performance". This
//! module is that extension: split the list into chunks, run any
//! configured k-selection variant per chunk, and merge the per-chunk
//! top-k sets into a running top-k.
//!
//! Chunking is exact for any chunk size: an element in the global top-k
//! is necessarily in its own chunk's top-k. Each merge is a linear merge
//! of two sorted runs (the running top-k and the chunk's picks), cut at
//! k and written in place. Once the running set holds k entries its
//! k-th distance bounds every later chunk: chunks arrive with ascending
//! ids, so a later value equal to the k-th would lose the `(dist, id)`
//! tie and a larger one loses outright. [`StreamMerger::bound`] exposes
//! that distance, and the chunk's [`Selector`] considers only values
//! strictly below it.

use crate::select::{SelectConfig, Selector};
use crate::types::{cmp_neighbors, Neighbor};

/// Incremental top-k merge over per-chunk selections — the host-side
/// "global merge" state of the divide-and-merge literature, which
/// [`select_k_chunked`] runs. (The native streamed k-NN search keeps
/// its running top-k in a [`crate::TopK`] instead: it scans each chunk
/// against the bound itself rather than merging a chunk's picks.)
///
/// Feed it each chunk's top-k with the chunk's global id offset; it keeps
/// at most `k` candidates, merged in place, so memory stays O(k)
/// regardless of how many chunks stream through. Ties resolve by
/// `(dist, id)` — identical to a single [`crate::select_k`] over the
/// concatenated list.
#[derive(Clone, Debug)]
pub struct StreamMerger {
    k: usize,
    acc: Vec<Neighbor>,
    stats: MergeStats,
}

/// Lifetime totals of one [`StreamMerger`]: how many candidates were
/// pushed into it and how many the running top-k evicted. Cheap enough
/// to track unconditionally (two integer adds per *chunk*), and the
/// push/reject ratio is the signal tile-size tuning needs — a tile
/// whose selections mostly get rejected is paying merge cost for
/// nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Candidates fed in via [`StreamMerger::push_chunk`].
    pub pushed: u64,
    /// Candidates evicted by the running top-k truncation.
    pub rejected: u64,
}

impl StreamMerger {
    /// A merger retaining the `k` smallest candidates seen.
    ///
    /// # Panics
    /// When `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        StreamMerger {
            k,
            acc: Vec::with_capacity(k),
            stats: MergeStats::default(),
        }
    }

    /// Merge one chunk's survivors, rebasing their chunk-local ids by
    /// `id_offset`.
    ///
    /// Equivalent to sorting the running set and the chunk together and
    /// keeping the first k (truncation is lossless: an element of the
    /// global top-k is necessarily in the running top-k of every prefix
    /// of chunks). A chunk already sorted by `(dist, id)`, as a
    /// [`Selector`] returns it, is merged in linear time; any other
    /// chunk is sorted first. The merge runs in place, in the running
    /// set's own k-entry buffer.
    pub fn push_chunk(&mut self, mut chunk: Vec<Neighbor>, id_offset: u32) {
        if !chunk.is_sorted_by(|a, b| cmp_neighbors(a, b).is_le()) {
            chunk.sort_by(cmp_neighbors);
        }
        // A constant offset keeps the chunk's (dist, id) order.
        for c in &mut chunk {
            c.id += id_offset;
        }
        self.stats.pushed += chunk.len() as u64;
        let held = self.acc.len();
        let kept = self.k.min(held + chunk.len());
        // Count, without writing, how many chunk (`j`) and held (`i`)
        // entries make the first `kept`. A chunk entry goes first only
        // when strictly smaller, as in a stable sort of the held entries
        // followed by the chunk, so `j` is the least count at which
        // `chunk[j]` no longer beats the last held entry taken; that
        // test flips once as `j` grows, so a binary search finds it.
        let (mut lo, mut hi) = (kept.saturating_sub(held), kept.min(chunk.len()));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp_neighbors(&chunk[mid], &self.acc[kept - mid - 1]).is_lt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let (mut i, mut j) = (kept - lo, lo);
        // Merge those backwards in place. While chunk entries remain,
        // the write slot `i + j - 1` lies above every unread held entry;
        // once they are placed, the held prefix is already in position.
        // `kept ≤ k`, the buffer's capacity, so this never reallocates.
        self.acc.resize(kept, Neighbor::new(0.0, 0));
        while j > 0 {
            let c = chunk[j - 1];
            if i > 0 && cmp_neighbors(&c, &self.acc[i - 1]).is_lt() {
                self.acc[i + j - 1] = self.acc[i - 1];
                i -= 1;
            } else {
                self.acc[i + j - 1] = c;
                j -= 1;
            }
        }
        self.stats.rejected += (held + chunk.len() - kept) as u64;
    }

    /// The strict bound a later chunk's value must beat to enter: the
    /// current k-th distance once k candidates are held, +∞ before.
    /// Passing it to the next chunk's [`Selector::select`] is exact when
    /// later chunks carry larger ids, as every streaming caller's do.
    pub fn bound(&self) -> f32 {
        if self.acc.len() == self.k {
            self.acc[self.k - 1].dist
        } else {
            f32::INFINITY
        }
    }

    /// Lifetime push/reject totals.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// The current top-k of everything pushed so far, sorted ascending.
    pub fn current(&self) -> &[Neighbor] {
        &self.acc
    }

    /// Finish: the global top-k, sorted ascending by `(dist, id)`.
    pub fn finish(self) -> Vec<Neighbor> {
        self.acc
    }
}

/// k smallest of `dists` computed chunk-by-chunk. `chunk_size` bounds the
/// working set of each inner selection (e.g. what fits device memory).
///
/// # Panics
/// When `chunk_size` is zero.
pub fn select_k_chunked(dists: &[f32], cfg: &SelectConfig, chunk_size: usize) -> Vec<Neighbor> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut selector = Selector::new(*cfg);
    if dists.len() <= chunk_size {
        return selector.select(dists, f32::INFINITY);
    }
    let mut merger = StreamMerger::new(cfg.k);
    for (ci, chunk) in dists.chunks(chunk_size).enumerate() {
        let picks = selector.select(chunk, merger.bound());
        merger.push_chunk(picks, (ci * chunk_size) as u32);
    }
    merger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_k;
    use crate::types::QueueKind;
    use rand::{Rng, SeedableRng};

    fn oracle(dists: &[f32], k: usize) -> Vec<f32> {
        let mut v = dists.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    fn matches_oracle_across_chunk_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(301);
        let dists: Vec<f32> = (0..10_000).map(|_| rng.gen()).collect();
        let cfg = SelectConfig::optimized(QueueKind::Merge, 32);
        let expect = oracle(&dists, 32);
        for chunk in [17usize, 100, 1024, 9_999, 100_000] {
            let got: Vec<f32> = select_k_chunked(&dists, &cfg, chunk)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got, expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn merge_stats_account_for_every_candidate() {
        let mut m = StreamMerger::new(2);
        assert_eq!(m.stats(), MergeStats::default());
        m.push_chunk(vec![Neighbor::new(3.0, 0), Neighbor::new(1.0, 1)], 0);
        // 2 pushed, all kept (k = 2)
        assert_eq!(
            m.stats(),
            MergeStats {
                pushed: 2,
                rejected: 0
            }
        );
        m.push_chunk(vec![Neighbor::new(0.5, 0), Neighbor::new(9.0, 1)], 10);
        // 4 pushed lifetime; the running set held 4 and truncated to 2
        assert_eq!(
            m.stats(),
            MergeStats {
                pushed: 4,
                rejected: 2
            }
        );
        let out = m.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dist, 0.5);
    }

    /// The merge as first written: concatenate, stable-sort, cut at k.
    fn sort_merge(
        acc: &mut Vec<Neighbor>,
        stats: &mut MergeStats,
        chunk: &[Neighbor],
        off: u32,
        k: usize,
    ) {
        stats.pushed += chunk.len() as u64;
        acc.extend(chunk.iter().map(|n| Neighbor::new(n.dist, n.id + off)));
        crate::types::sort_neighbors(acc);
        stats.rejected += acc.len().saturating_sub(k) as u64;
        acc.truncate(k);
    }

    #[test]
    fn linear_merge_equals_the_sort_based_merge() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(304);
        let bits = |ns: &[Neighbor]| -> Vec<(u32, u32)> {
            ns.iter().map(|n| (n.dist.to_bits(), n.id)).collect()
        };
        for case in 0..400 {
            let k = rng.gen_range(1..=24usize);
            let mut merger = StreamMerger::new(k);
            let (mut acc, mut stats) = (Vec::new(), MergeStats::default());
            let mut off = 0u32;
            for _ in 0..rng.gen_range(1..=8) {
                // Few distinct values (ties across and within chunks),
                // repeated ids, and half the chunks left unsorted.
                let len = rng.gen_range(0..=2 * k);
                let mut chunk: Vec<Neighbor> = (0..len)
                    .map(|_| {
                        // -0.0 and 0.0 tie but differ in bits, so the
                        // order of equal keys shows in the result.
                        let d = match rng.gen_range(0..10u32) {
                            0 => -0.0,
                            1 => 0.0,
                            2 => f32::INFINITY,
                            v => v as f32,
                        };
                        Neighbor::new(d, rng.gen_range(0..8u32))
                    })
                    .collect();
                if rng.gen::<bool>() {
                    crate::types::sort_neighbors(&mut chunk);
                }
                sort_merge(&mut acc, &mut stats, &chunk, off, k);
                merger.push_chunk(chunk, off);
                assert_eq!(bits(merger.current()), bits(&acc), "case {case}");
                assert_eq!(merger.stats(), stats, "case {case}");
                off += rng.gen_range(0..4u32);
            }
            assert_eq!(bits(&merger.finish()), bits(&acc), "case {case}");
        }
    }

    #[test]
    fn bound_is_the_kth_distance_once_full() {
        let mut m = StreamMerger::new(2);
        assert_eq!(m.bound(), f32::INFINITY);
        m.push_chunk(vec![Neighbor::new(3.0, 0)], 0);
        assert_eq!(m.bound(), f32::INFINITY);
        m.push_chunk(vec![Neighbor::new(1.0, 0), Neighbor::new(5.0, 1)], 1);
        assert_eq!(m.bound(), 3.0);
    }

    #[test]
    fn bounded_chunks_match_unbounded_chunks() {
        // select_k_chunked seeds each chunk with the running k-th
        // distance; the neighbors must equal an unseeded chunked merge,
        // ties at the k-th value included.
        let mut rng = rand::rngs::StdRng::seed_from_u64(305);
        for _ in 0..100 {
            let dists: Vec<f32> = (0..rng.gen_range(1..600usize))
                .map(|_| rng.gen_range(0..40u32) as f32)
                .collect();
            let chunk = rng.gen_range(1..200usize);
            for cfg in [
                SelectConfig::optimized(QueueKind::Merge, 16),
                SelectConfig::plain(QueueKind::Insertion, 8),
            ] {
                let mut unseeded = StreamMerger::new(cfg.k);
                for (ci, c) in dists.chunks(chunk).enumerate() {
                    unseeded.push_chunk(select_k(c, &cfg), (ci * chunk) as u32);
                }
                let want = if dists.len() <= chunk {
                    select_k(&dists, &cfg)
                } else {
                    unseeded.finish()
                };
                assert_eq!(select_k_chunked(&dists, &cfg, chunk), want, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn chunk_smaller_than_k_still_exact() {
        // Each chunk yields fewer than k survivors; the merge must still
        // recover the global top-k.
        let mut rng = rand::rngs::StdRng::seed_from_u64(302);
        let dists: Vec<f32> = (0..500).map(|_| rng.gen()).collect();
        let cfg = SelectConfig::plain(QueueKind::Insertion, 64);
        let got: Vec<f32> = select_k_chunked(&dists, &cfg, 16)
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(got, oracle(&dists, 64));
    }

    #[test]
    fn ids_are_globally_offset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(303);
        let dists: Vec<f32> = (0..3_000).map(|_| rng.gen()).collect();
        let cfg = SelectConfig::plain(QueueKind::Heap, 16);
        for nb in select_k_chunked(&dists, &cfg, 250) {
            assert_eq!(dists[nb.id as usize], nb.dist);
        }
    }

    #[test]
    fn very_large_synthetic_n() {
        // Beyond the paper's 2^16 range — the reason this module exists.
        let n = 1 << 20;
        let dists: Vec<f32> = (0..n)
            .map(|i| ((i as u64 * 2654435761) % 1_000_003) as f32)
            .collect();
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let got: Vec<f32> = select_k_chunked(&dists, &cfg, 1 << 16)
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(got, oracle(&dists, 16));
    }

    #[test]
    #[should_panic]
    fn zero_chunk_rejected() {
        select_k_chunked(&[1.0], &SelectConfig::plain(QueueKind::Heap, 1), 0);
    }
}
