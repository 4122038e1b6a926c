//! The paper's **Merge Queue** (Fig. 1b, Algorithm 2).
//!
//! # Structure
//!
//! Capacity `k` is split into levels of sizes `m, m, 2m, 4m, …` (the first
//! two levels share size `m`; every later level doubles), so `k` must be
//! `m · 2^j` (or exactly `m`, the degenerate single-level case). Level
//! boundaries for `k = 8m`: `[0,m) [m,2m) [2m,4m) [4m,8m)`.
//!
//! # Invariant
//!
//! Every level is sorted decreasing, and the level *heads* (first element
//! of each level) are decreasing from level 0 downwards. Together these
//! guarantee `queue[0]` is the global maximum — the only value an incoming
//! candidate has to beat.
//!
//! # Lazy update
//!
//! An insert is an insertion-sort into level 0 (evicting the old global
//! maximum off the front). Only when the fresh level-0 head drops below the
//! level-1 head does a repair run: the fully-sorted prefix `[0, S)` is
//! merged with the next level `[S, 2S)` by the **Reverse Bitonic Merge**
//! (both runs sorted the same direction — see [`crate::bitonic`]), cascading
//! down while heads remain out of order. Because the prefix above level
//! `ℓ+1` has exactly level-`ℓ+1`'s size, every merge is a balanced
//! power-of-two merge. Amortised cost per insert: O(log² k).
//!
//! # Erratum note
//!
//! Algorithm 2 in the paper triggers the merge when
//! `dqueue[prev] >= dqueue[next]`, which contradicts its own prose ("if the
//! head of the first level is *smaller* than that of the second level, a
//! merge operation is applied") and would repair a *satisfied* invariant.
//! We follow the prose; the property tests in this module and in
//! `tests/` confirm the queue then retains exactly the k smallest values.

use super::{KQueue, NoStats, UpdateSink};
use crate::bitonic::{reverse_bitonic_merge_schedule, Comparator};
use crate::types::{Neighbor, INF, NO_ID};

/// Multi-level lazily-merged queue retaining the k smallest values.
#[derive(Clone, Debug)]
pub struct MergeQueue<S: UpdateSink = NoStats> {
    dist: Vec<f32>,
    id: Vec<u32>,
    m: usize,
    /// Reverse-bitonic-merge schedules for prefix sizes 2m, 4m, …, k.
    schedules: Vec<Vec<Comparator>>,
    merges: u64,
    sink: S,
}

/// Check that `k` is a valid Merge Queue capacity for level-0 size `m`:
/// `k == m` or `k == m · 2^j` with `j ≥ 1`. Both must be powers of two.
pub fn valid_capacity(k: usize, m: usize) -> bool {
    k > 0
        && m > 0
        && m.is_power_of_two()
        && k >= m
        && k.is_multiple_of(m)
        && (k / m).is_power_of_two()
}

/// The smallest valid capacity (see [`valid_capacity`]) that holds `k`
/// entries at a power-of-two level-0 size `m`: `m · 2^j ≥ k`.
pub fn padded_capacity(k: usize, m: usize) -> usize {
    k.next_power_of_two().max(m)
}

impl MergeQueue<NoStats> {
    /// A queue of capacity `k` with level-0 size `m` (the paper uses
    /// `m = 8`), pre-filled with sentinels.
    ///
    /// # Panics
    /// When `k` is not `m · 2^j` (see [`valid_capacity`]).
    pub fn new(k: usize, m: usize) -> Self {
        Self::with_stats(k, m, NoStats)
    }
}

impl<S: UpdateSink> MergeQueue<S> {
    /// Instrumented constructor; every position write goes to `sink`.
    pub fn with_stats(k: usize, m: usize, sink: S) -> Self {
        assert!(
            valid_capacity(k, m),
            "MergeQueue requires k = m·2^j (got k={k}, m={m})"
        );
        let mut schedules = Vec::new();
        let mut s = 2 * m;
        while s <= k {
            schedules.push(reverse_bitonic_merge_schedule(s));
            s *= 2;
        }
        MergeQueue {
            dist: vec![INF; k],
            id: vec![NO_ID; k],
            m,
            schedules,
            merges: 0,
            sink,
        }
    }

    /// Level-0 size `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of merge (invariant-repair) operations performed so far.
    /// The lazy-update claim of the paper is that this stays far below the
    /// number of accepted inserts.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Start offsets of each level: `0, m, 2m, 4m, …`.
    pub fn level_offsets(&self) -> Vec<usize> {
        let k = self.dist.len();
        let mut offs = vec![0];
        let mut o = self.m;
        while o < k {
            offs.push(o);
            o *= 2;
        }
        offs
    }

    /// Full invariant audit — each level sorted decreasing, level heads
    /// decreasing top-to-bottom — with an actionable diagnosis naming the
    /// offending level and positions on failure.
    pub fn audit(&self) -> Result<(), check::audit::AuditError> {
        check::audit::audit_merge_queue(&self.dist, self.m)
    }

    /// Verify the Merge Queue invariant: each level sorted decreasing and
    /// level heads decreasing top-to-bottom. Exposed for tests; see
    /// [`Self::audit`] for the diagnosing variant.
    pub fn invariant_holds(&self) -> bool {
        self.audit().is_ok()
    }

    /// Decompose into `(contents, sink)`.
    pub fn into_parts(self) -> (Vec<Neighbor>, S) {
        let contents = self
            .dist
            .iter()
            .zip(&self.id)
            .map(|(&d, &i)| Neighbor::new(d, i))
            .collect();
        (contents, self.sink)
    }

    fn flat_insert(&mut self, dist: f32, id: u32) {
        let m = self.m.min(self.dist.len());
        let mut i = 1;
        while i < m && self.dist[i] > dist {
            self.dist[i - 1] = self.dist[i];
            self.id[i - 1] = self.id[i];
            self.sink.record(i - 1);
            i += 1;
        }
        self.dist[i - 1] = dist;
        self.id[i - 1] = id;
        self.sink.record(i - 1);
    }

    fn merge_prefix(&mut self, size: usize) {
        let sched_idx = (size / (2 * self.m)).trailing_zeros() as usize;
        // Clone the schedule handle out to appease the borrow checker —
        // schedules are shared immutable data.
        let schedule = core::mem::take(&mut self.schedules[sched_idx]);
        for &(a, b) in &schedule {
            if self.dist[a] < self.dist[b] {
                self.dist.swap(a, b);
                self.id.swap(a, b);
                self.sink.record(a);
                self.sink.record(b);
            }
        }
        self.schedules[sched_idx] = schedule;
        self.merges += 1;
    }
}

impl<S: UpdateSink> KQueue for MergeQueue<S> {
    fn k(&self) -> usize {
        self.dist.len()
    }

    #[inline]
    fn max(&self) -> f32 {
        self.dist[0]
    }

    fn offer(&mut self, dist: f32, id: u32) -> bool {
        if dist >= self.dist[0] {
            return false;
        }
        self.flat_insert(dist, id);
        // Lazy repair (Algorithm 2, comparison corrected — see module docs).
        let k = self.dist.len();
        let mut prev = 0;
        let mut next = self.m;
        while next < k {
            if self.dist[prev] >= self.dist[next] {
                break; // invariant satisfied — stay lazy
            }
            self.merge_prefix(2 * next);
            prev = next;
            next *= 2;
        }
        #[cfg(feature = "sanitize")]
        if let Err(e) = self.audit() {
            panic!("sanitize audit: MergeQueue after offer({dist}, {id}): {e}");
        }
        true
    }

    fn contents(&self) -> Vec<Neighbor> {
        self.dist
            .iter()
            .zip(&self.id)
            .map(|(&d, &i)| Neighbor::new(d, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::UpdateCounter;
    use rand::{Rng, SeedableRng};

    #[test]
    fn capacity_validation() {
        assert!(valid_capacity(8, 8)); // degenerate single level
        assert!(valid_capacity(16, 8));
        assert!(valid_capacity(64, 8));
        assert!(valid_capacity(1024, 8));
        assert!(valid_capacity(4, 1));
        assert!(!valid_capacity(24, 8)); // 3·m
        assert!(!valid_capacity(8, 3)); // m not a power of two
        assert!(!valid_capacity(4, 8)); // k < m
        assert!(!valid_capacity(0, 8));
    }

    #[test]
    fn level_offsets_shape() {
        let q = MergeQueue::new(64, 8);
        assert_eq!(q.level_offsets(), vec![0, 8, 16, 32]);
        let q1 = MergeQueue::new(8, 8);
        assert_eq!(q1.level_offsets(), vec![0]);
    }

    #[test]
    fn invariant_held_after_every_offer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut q = MergeQueue::new(32, 8);
        for _ in 0..2000 {
            let d: f32 = rng.gen();
            q.offer(d, 0);
            assert!(q.invariant_holds());
        }
    }

    #[test]
    fn retains_k_smallest() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for k in [8usize, 16, 32, 128] {
            let dists: Vec<f32> = (0..2000).map(|_| rng.gen()).collect();
            let mut q = MergeQueue::new(k, 8);
            for (i, &d) in dists.iter().enumerate() {
                q.offer(d, i as u32);
            }
            let got: Vec<f32> = q.into_sorted().iter().map(|n| n.dist).collect();
            let mut expect = dists.clone();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, &expect[..k], "k = {k}");
        }
    }

    #[test]
    fn lazy_update_paper_example() {
        // Fig. 1b with m = 2, k = 4 (levels of size 2 + 2): queue holds
        // 7,6 / 5,4. Inserting 3 evicts 7; head 6 ≥ 5 so NO merge happens.
        let mut q = MergeQueue::new(4, 2);
        for d in [7.0, 6.0, 5.0, 4.0] {
            q.offer(d, 0);
        }
        // After the queue fills, levels settle to heads (max first).
        let before_merges = q.merge_count();
        q.offer(3.0, 9);
        assert_eq!(q.merge_count(), before_merges, "lazy: no merge needed");
        assert!(q.invariant_holds());
        // Now inserting another small value pushes the level-0 head below
        // the level-1 head and forces a merge (the paper's follow-up
        // example inserting a duplicate 4).
        let before = q.merge_count();
        q.offer(3.5, 10);
        assert!(q.merge_count() > before, "eager case must merge");
        assert!(q.invariant_holds());
    }

    #[test]
    fn merges_are_rare_relative_to_inserts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut q = MergeQueue::new(256, 8);
        let mut inserts = 0u64;
        for _ in 0..100_000 {
            let d: f32 = rng.gen();
            if q.offer(d, 0) {
                inserts += 1;
            }
        }
        assert!(inserts > 1000);
        // Lazy update: at least m/2-ish inserts between merges on average.
        assert!(
            q.merge_count() * 2 < inserts,
            "merges {} inserts {}",
            q.merge_count(),
            inserts
        );
    }

    #[test]
    fn degenerate_single_level_acts_like_insertion_queue() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let dists: Vec<f32> = (0..500).map(|_| rng.gen()).collect();
        let mut mq = MergeQueue::new(8, 8);
        let mut iq = crate::queues::InsertionQueue::new(8);
        for (i, &d) in dists.iter().enumerate() {
            mq.offer(d, i as u32);
            iq.offer(d, i as u32);
        }
        assert_eq!(mq.merge_count(), 0);
        let a: Vec<f32> = mq.into_sorted().iter().map(|n| n.dist).collect();
        let b: Vec<f32> = iq.into_sorted().iter().map(|n| n.dist).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn update_counts_grow_slower_than_insertion_queue() {
        // Fig. 5b: as k grows, merge queue total updates grow much slower
        // than the insertion queue's (which are ~linear in k).
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let n = 1 << 13;
        let dists: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
        let run_merge = |k: usize| {
            let mut q = MergeQueue::with_stats(k, 8, UpdateCounter::new(k));
            for (i, &d) in dists.iter().enumerate() {
                if d < q.max() {
                    q.offer(d, i as u32);
                }
            }
            q.into_parts().1.total()
        };
        let run_insertion = |k: usize| {
            let mut q = crate::queues::InsertionQueue::with_stats(k, UpdateCounter::new(k));
            for (i, &d) in dists.iter().enumerate() {
                if d < q.max() {
                    q.offer(d, i as u32);
                }
            }
            q.into_parts().1.total()
        };
        let merge_growth = run_merge(256) as f64 / run_merge(32) as f64;
        let ins_growth = run_insertion(256) as f64 / run_insertion(32) as f64;
        assert!(
            merge_growth < ins_growth,
            "merge growth {merge_growth:.1} vs insertion growth {ins_growth:.1}"
        );
        // And at k = 256 the merge queue does far fewer updates overall.
        assert!(run_merge(256) * 2 < run_insertion(256));
    }

    #[test]
    fn ids_follow_values_through_merges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let dists: Vec<f32> = (0..3000).map(|_| rng.gen()).collect();
        let mut q = MergeQueue::new(64, 8);
        for (i, &d) in dists.iter().enumerate() {
            q.offer(d, i as u32);
        }
        for n in q.into_sorted() {
            assert_eq!(dists[n.id as usize], n.dist);
        }
    }
}
