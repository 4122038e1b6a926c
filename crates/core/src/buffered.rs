//! **Buffered Search** (paper §III-D, Algorithm 3) — native semantic model.
//!
//! On the GPU, buffering exists to raise SIMT efficiency: candidates are
//! staged in a small buffer and the expensive queue insertions happen for
//! the whole warp together. The *semantics*, however, are
//! architecture-independent and captured here: an element is buffered when
//! it beats the queue maximum at scan time, and re-checked against the
//! (possibly tighter) maximum when the buffer is flushed.
//!
//! Correctness argument: the queue maximum is monotonically non-increasing
//! and always ≥ the k-th smallest of the elements seen so far; an element
//! `d ≥ max` therefore already has k smaller elements before it and can
//! never be in the final answer, so skipping it is safe. Elements that are
//! buffered are eventually offered, so nothing eligible is lost. The
//! property tests pin this down.
//!
//! **Local Sort**: sorting the buffer ascending before flushing inserts
//! the smallest candidate first, tightening the queue maximum so that the
//! remaining buffered elements are often rejected by the cheap re-check
//! instead of paying a full insertion — the effect the paper measures as
//! "full+sorted" in Fig. 6.

use serde::{Deserialize, Serialize};

use crate::queues::KQueue;
use crate::types::Neighbor;

/// Configuration for Buffered Search.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Buffer capacity per query (the paper's `bsize`).
    pub size: usize,
    /// Sort the buffer ascending before flushing ("Local Sort").
    pub sorted: bool,
    /// GPU-only knob: flush all lanes of the warp when *any* lane's buffer
    /// fills (intra-warp communication) instead of each lane flushing its
    /// own. No semantic effect natively; the simulated kernels use it.
    pub intra_warp: bool,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            size: 16,
            sorted: true,
            intra_warp: true,
        }
    }
}

/// Statistics from a buffered run, used by tests and the harness to show
/// the local-sort rejection effect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Elements that entered the buffer.
    pub buffered: u64,
    /// Buffer flushes performed.
    pub flushes: u64,
    /// Buffered elements rejected by the flush-time re-check (saved a
    /// full insertion).
    pub recheck_rejects: u64,
}

/// Run k-selection over `dists` with buffering in front of `queue`.
pub fn buffered_select_into<Q: KQueue>(
    queue: &mut Q,
    dists: &[f32],
    cfg: &BufferConfig,
) -> BufferStats {
    buffered_select_below(queue, dists, cfg, f32::INFINITY)
}

/// [`buffered_select_into`] over only the values `< bound`.
pub(crate) fn buffered_select_below<Q: KQueue>(
    queue: &mut Q,
    dists: &[f32],
    cfg: &BufferConfig,
    bound: f32,
) -> BufferStats {
    assert!(cfg.size > 0, "buffer size must be positive");
    let mut stats = BufferStats::default();
    let mut buf: Vec<Neighbor> = Vec::with_capacity(cfg.size);
    for (id, &d) in dists.iter().enumerate() {
        if d < bound && d < queue.max() {
            buf.push(Neighbor::new(d, id as u32));
            stats.buffered += 1;
            if buf.len() == cfg.size {
                flush(queue, &mut buf, cfg, &mut stats);
            }
        }
    }
    if !buf.is_empty() {
        flush(queue, &mut buf, cfg, &mut stats);
    }
    stats
}

fn flush<Q: KQueue>(
    queue: &mut Q,
    buf: &mut Vec<Neighbor>,
    cfg: &BufferConfig,
    stats: &mut BufferStats,
) {
    if cfg.sorted {
        // Ascending: smallest first tightens the max earliest.
        buf.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap());
    }
    for n in buf.drain(..) {
        if n.dist < queue.max() {
            queue.offer(n.dist, n.id);
        } else {
            stats.recheck_rejects += 1;
        }
    }
    stats.flushes += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{select_into, HeapQueue, InsertionQueue, MergeQueue};
    use rand::{Rng, SeedableRng};

    fn data(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn buffered_equals_direct_for_all_queues_and_sizes() {
        let dists = data(5000, 41);
        for k in [8usize, 64] {
            for size in [1usize, 4, 16, 128] {
                for sorted in [false, true] {
                    let cfg = BufferConfig {
                        size,
                        sorted,
                        intra_warp: true,
                    };
                    // insertion
                    let mut direct = InsertionQueue::new(k);
                    select_into(&mut direct, &dists);
                    let mut buffered = InsertionQueue::new(k);
                    buffered_select_into(&mut buffered, &dists, &cfg);
                    assert_eq!(
                        direct
                            .into_sorted()
                            .iter()
                            .map(|n| n.dist)
                            .collect::<Vec<_>>(),
                        buffered
                            .into_sorted()
                            .iter()
                            .map(|n| n.dist)
                            .collect::<Vec<_>>(),
                        "insertion k={k} size={size} sorted={sorted}"
                    );
                    // heap
                    let mut direct = HeapQueue::new(k);
                    select_into(&mut direct, &dists);
                    let mut buffered = HeapQueue::new(k);
                    buffered_select_into(&mut buffered, &dists, &cfg);
                    assert_eq!(
                        direct
                            .into_sorted()
                            .iter()
                            .map(|n| n.dist)
                            .collect::<Vec<_>>(),
                        buffered
                            .into_sorted()
                            .iter()
                            .map(|n| n.dist)
                            .collect::<Vec<_>>(),
                        "heap k={k} size={size} sorted={sorted}"
                    );
                    // merge
                    let mut direct = MergeQueue::new(k, 8);
                    select_into(&mut direct, &dists);
                    let mut buffered = MergeQueue::new(k, 8);
                    buffered_select_into(&mut buffered, &dists, &cfg);
                    assert_eq!(
                        direct
                            .into_sorted()
                            .iter()
                            .map(|n| n.dist)
                            .collect::<Vec<_>>(),
                        buffered
                            .into_sorted()
                            .iter()
                            .map(|n| n.dist)
                            .collect::<Vec<_>>(),
                        "merge k={k} size={size} sorted={sorted}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_sort_increases_recheck_rejects() {
        // The whole point of Local Sort: with the buffer sorted ascending,
        // more buffered elements get rejected by the cheap re-check.
        let dists = data(20000, 42);
        let k = 64;
        let mut q1 = InsertionQueue::new(k);
        let unsorted = buffered_select_into(
            &mut q1,
            &dists,
            &BufferConfig {
                size: 32,
                sorted: false,
                intra_warp: true,
            },
        );
        let mut q2 = InsertionQueue::new(k);
        let sorted = buffered_select_into(
            &mut q2,
            &dists,
            &BufferConfig {
                size: 32,
                sorted: true,
                intra_warp: true,
            },
        );
        assert!(
            sorted.recheck_rejects >= unsorted.recheck_rejects,
            "sorted {} vs unsorted {}",
            sorted.recheck_rejects,
            unsorted.recheck_rejects
        );
        assert!(sorted.recheck_rejects > 0);
    }

    #[test]
    fn final_partial_flush_preserved() {
        // Fewer candidates than the buffer size: everything must still
        // reach the queue via the final flush.
        let mut q = InsertionQueue::new(4);
        let stats = buffered_select_into(
            &mut q,
            &[0.3, 0.1, 0.2],
            &BufferConfig {
                size: 64,
                sorted: true,
                intra_warp: true,
            },
        );
        assert_eq!(stats.flushes, 1);
        assert_eq!(
            q.into_sorted().iter().map(|n| n.dist).collect::<Vec<_>>(),
            vec![0.1, 0.2, 0.3]
        );
    }

    #[test]
    fn buffer_size_one_degenerates_to_direct() {
        let dists = data(1000, 43);
        let mut q = HeapQueue::new(16);
        let stats = buffered_select_into(
            &mut q,
            &dists,
            &BufferConfig {
                size: 1,
                sorted: true,
                intra_warp: false,
            },
        );
        assert_eq!(stats.buffered, stats.flushes);
    }
}
