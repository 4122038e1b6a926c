//! **Hierarchical Partition** (paper §III-E, Fig. 4, Algorithm 4) —
//! native reference implementation.
//!
//! # Bottom-Up Construction
//!
//! The distance list is split into groups of `G`; each group's minimum
//! forms the next level. Repeat until a level has at most `k` elements.
//! Construction is a linear scan per level, `O(N · G/(G-1))` total work
//! and `O(N/(G-1))` extra space. [`crate::Selector`] rebuilds one
//! hierarchy in place per call, so its level buffers are allocated once.
//!
//! # Top-Down Search
//!
//! Take the (≤ k) top-level elements as candidates; then, level by level,
//! expand only the child groups of the current k best candidates and
//! re-select the k best among the expanded elements. At most `G·k`
//! elements are touched per level, over `log_G(N/k)` levels. Each
//! level's re-selection is linear in its `G·k` candidates
//! (`select_nth_unstable` on one integer key per candidate, see
//! "Ties"); only the final k picks are sorted.
//!
//! # Bound pruning
//!
//! The search takes a strict upper `bound`: only values `< bound` are
//! candidates. A group whose minimum is `≥ bound` has no child below it,
//! so its whole subtree is pruned at the level where its minimum is
//! seen. The result is exactly the unbounded result with the picks
//! `≥ bound` removed. A streaming caller passes the k-th distance it
//! already holds, so later tiles only ever expand groups that can still
//! improve its top-k.
//!
//! # Exactness
//!
//! *Claim*: at every level `ℓ`, the candidate set (the k smallest values
//! of level `ℓ` restricted to expanded groups) contains the parents of all
//! of level `ℓ-1`'s true k smallest.
//!
//! *Proof sketch*: let `x` be among the k smallest of level `ℓ-1`. Its
//! parent `p = min(x's group) ≤ x`. Suppose `p` were not among the k
//! smallest of level `ℓ`: then k values at level `ℓ` are `< p`, each the
//! minimum of a distinct group, so each witnesses a distinct element of
//! level `ℓ-1` that is `< p ≤ x` — contradicting `x` being in the k
//! smallest at level `ℓ-1`. Induction from the top level (all elements
//! are candidates) down to the original list gives exactness. ∎
//!
//! Unlike the paper's in-place description (which can insert a group
//! minimum twice — once as the parent, once as the child), we rebuild the
//! candidate set at each level, which avoids duplicate entries
//! displacing genuine candidates. The property tests in this module
//! verify exactness against a full sort.
//!
//! # Ties
//!
//! Among equal values, the pick is the one an insertion queue fed the
//! level's candidates in expansion order would keep: candidates are
//! expanded in `(value, index)` order of their parents, and the queue
//! keeps the first-seen of equal values. Each candidate therefore ranks
//! by `(value, parent value, index)`, a key of its own, so the linear
//! selection needs no ordered expansion to reproduce it.

use serde::{Deserialize, Serialize};

use crate::types::Neighbor;

/// Configuration for Hierarchical Partition.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HpConfig {
    /// Group size `G` (the paper sweeps 2, 4, 6, 8 and defaults to 4).
    pub g: usize,
}

impl Default for HpConfig {
    fn default() -> Self {
        HpConfig { g: 4 }
    }
}

/// The bottom-up structure: `levels[0]` is the first *reduced* level
/// (group minima of the input); the input itself is not duplicated.
/// Only the first `depth` buffers are live; the rest are spare
/// allocations kept for the next rebuild.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<Vec<f32>>,
    depth: usize,
    g: usize,
}

impl Hierarchy {
    /// Build the hierarchy over `dists` with group size `g`, stopping once
    /// a level has at most `k` elements (Algorithm 4).
    ///
    /// # Panics
    /// When `g < 2` (a group size of 1 never reduces) or `k == 0`.
    pub fn build(dists: &[f32], g: usize, k: usize) -> Self {
        let mut h = Hierarchy::empty();
        h.rebuild(dists, g, k);
        h
    }

    /// A hierarchy of depth 0 with no level buffers yet, for
    /// [`Hierarchy::rebuild`] to fill.
    pub(crate) fn empty() -> Self {
        Hierarchy {
            levels: Vec::new(),
            depth: 0,
            g: 0,
        }
    }

    /// [`Hierarchy::build`] in place, reusing the level buffers.
    pub(crate) fn rebuild(&mut self, dists: &[f32], g: usize, k: usize) {
        assert!(g >= 2, "group size must be at least 2");
        assert!(k > 0, "k must be positive");
        self.g = g;
        self.depth = 0;
        // A level of length ≤ k terminates; chunks() guarantees strict
        // shrinkage for g ≥ 2 whenever len > 1.
        while self.below(self.depth, dists).len() > k {
            if self.levels.len() == self.depth {
                self.levels.push(Vec::new());
            }
            let (built, rest) = self.levels.split_at_mut(self.depth);
            let cur: &[f32] = built.last().map_or(dists, Vec::as_slice);
            let next = &mut rest[0];
            next.clear();
            next.extend(cur.chunks(g).map(group_min));
            self.depth += 1;
        }
    }

    /// The level that reduced level `i`'s groups cover: `dists` for
    /// `i == 0`, else reduced level `i - 1`.
    fn below<'a>(&'a self, i: usize, dists: &'a [f32]) -> &'a [f32] {
        match i {
            0 => dists,
            _ => &self.levels[i - 1],
        }
    }

    /// Group size used to build this hierarchy.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Number of reduced levels (0 when the input already had ≤ k
    /// elements).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Extra storage consumed, in elements. The paper bounds this by
    /// `N/(G-1)`.
    pub fn extra_space(&self) -> usize {
        self.levels[..self.depth].iter().map(Vec::len).sum()
    }

    /// Borrow level `i` (0 = first reduced level; the deepest index is the
    /// top of the pyramid).
    pub fn level(&self, i: usize) -> &[f32] {
        &self.levels[..self.depth][i]
    }
}

/// Minimum of a group, NaN ignored (an all-NaN group gives +∞, which
/// no bound admits).
#[inline]
fn group_min(group: &[f32]) -> f32 {
    group
        .iter()
        .fold(f32::INFINITY, |m, &x| if x < m { x } else { m })
}

/// Order-preserving `u32` image of a non-NaN value under IEEE `<`:
/// `-0.0` and `0.0` map alike, as they compare equal.
#[inline]
fn ordered(x: f32) -> u32 {
    let b = (x + 0.0).to_bits();
    if b >> 31 == 1 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// A top-down candidate's rank as one integer, so selection compares
/// integers: `(value, parent value, index in its level)` — the
/// insertion-queue order of the module docs' "Ties" section. At the top
/// level every candidate is its own root and `parent` is 0.
#[inline]
fn rank_key(d: f32, parent: u32, i: u32) -> u128 {
    ((ordered(d) as u128) << 64) | ((parent as u128) << 32) | i as u128
}

/// The ordered value a rank key starts with (a child's `parent`).
#[inline]
fn key_value(key: u128) -> u32 {
    (key >> 64) as u32
}

/// The index in its level a rank key ends with.
#[inline]
fn key_index(key: u128) -> u32 {
    key as u32
}

/// Reusable candidate buffers of the top-down search: the current level's
/// picks and the next level's expansion (at most `G·k` keys each), and
/// the final `(value, index)` sort keys.
#[derive(Clone, Debug, Default)]
pub(crate) struct TopDown {
    cur: Vec<u128>,
    next: Vec<u128>,
    out: Vec<u64>,
}

impl TopDown {
    /// Exact k-selection of the values of `dists` below `bound` through
    /// the prebuilt `h`, sorted ascending by `(dist, id)`.
    pub(crate) fn select(
        &mut self,
        dists: &[f32],
        h: &Hierarchy,
        k: usize,
        bound: f32,
    ) -> Vec<Neighbor> {
        assert!(k > 0, "k must be positive");
        let TopDown { cur, next, out } = self;
        // Top level (the input itself when depth is 0): every element is
        // a candidate.
        cur.clear();
        cur.extend(
            h.below(h.depth, dists)
                .iter()
                .zip(0u32..)
                .filter(|&(&d, _)| d < bound)
                .map(|(&d, i)| rank_key(d, 0, i)),
        );
        keep_k_best(cur, k);
        // Descend: level `li`'s picks expand into the level below it.
        for li in (0..h.depth).rev() {
            let below = h.below(li, dists);
            next.clear();
            for &c in cur.iter() {
                let start = key_index(c) as usize * h.g;
                let end = (start + h.g).min(below.len());
                next.extend(
                    below[start..end]
                        .iter()
                        .zip(start as u32..)
                        .filter(|&(&d, _)| d < bound)
                        .map(|(&d, i)| rank_key(d, key_value(c), i)),
                );
            }
            keep_k_best(next, k);
            core::mem::swap(cur, next);
        }
        // Result order is `(dist, id)`: drop the parent from the keys.
        out.clear();
        out.extend(
            cur.iter()
                .map(|&c| (u64::from(key_value(c)) << 32) | u64::from(key_index(c))),
        );
        out.sort_unstable();
        out.iter()
            .map(|&o| Neighbor::new(dists[o as u32 as usize], o as u32))
            .collect()
    }
}

/// Keep the k smallest of `keys`, in linear time and no particular order.
fn keep_k_best(keys: &mut Vec<u128>, k: usize) {
    if keys.len() > k {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
}

/// Exact k-selection of `dists` using a prebuilt [`Hierarchy`]
/// (Top-Down search). Returns neighbors sorted ascending.
pub fn select_top_down(dists: &[f32], h: &Hierarchy, k: usize) -> Vec<Neighbor> {
    TopDown::default().select(dists, h, k, f32::INFINITY)
}

/// Convenience wrapper: build the hierarchy and search in one call.
pub fn hierarchical_select(dists: &[f32], k: usize, cfg: HpConfig) -> Vec<Neighbor> {
    let h = Hierarchy::build(dists, cfg.g, k);
    select_top_down(dists, &h, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn oracle(dists: &[f32], k: usize) -> Vec<f32> {
        let mut v = dists.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    fn paper_figure_4_example() {
        // Fig. 4: N = 16, k = 2, G = 2.
        let dists = vec![
            9.0, 0.0, 12.0, 1.0, 8.0, 2.0, 0.0, 15.0, 13.0, 2.0, 0.0, 2.0, 4.0, 10.0, 14.0, 5.0,
        ];
        let h = Hierarchy::build(&dists, 2, 2);
        // Levels: 8, 4, 2 elements.
        assert_eq!(h.depth(), 3);
        assert_eq!(h.level(0), &[0.0, 1.0, 2.0, 0.0, 2.0, 0.0, 4.0, 5.0]);
        assert_eq!(h.level(1), &[0.0, 0.0, 0.0, 4.0]);
        assert_eq!(h.level(2), &[0.0, 0.0]);
        let res = select_top_down(&dists, &h, 2);
        assert_eq!(
            res.iter().map(|n| n.dist).collect::<Vec<_>>(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn matches_oracle_across_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for &n in &[1usize, 7, 64, 100, 1000, 4096] {
            for &k in &[1usize, 2, 8, 32] {
                for &g in &[2usize, 3, 4, 6, 8] {
                    let dists: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
                    let got: Vec<f32> = hierarchical_select(&dists, k, HpConfig { g })
                        .iter()
                        .map(|n| n.dist)
                        .collect();
                    let want = oracle(&dists, k.min(n));
                    assert_eq!(got, want, "n={n} k={k} g={g}");
                }
            }
        }
    }

    #[test]
    fn ids_point_at_matching_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let dists: Vec<f32> = (0..500).map(|_| rng.gen()).collect();
        for nb in hierarchical_select(&dists, 16, HpConfig::default()) {
            assert_eq!(dists[nb.id as usize], nb.dist);
        }
    }

    #[test]
    fn duplicates_do_not_displace_candidates() {
        // The regression the rebuild-per-level design prevents: a group
        // minimum appearing both as parent and child. All-equal input with
        // a single strictly-smaller element.
        let mut dists = vec![1.0f32; 64];
        dists[37] = 0.5;
        dists[11] = 0.75;
        let got: Vec<f32> = hierarchical_select(&dists, 3, HpConfig { g: 2 })
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(got, vec![0.5, 0.75, 1.0]);
    }

    #[test]
    fn extra_space_bounded() {
        let dists = vec![0.0f32; 1 << 14];
        for g in [2usize, 4, 8] {
            let h = Hierarchy::build(&dists, g, 16);
            let bound = dists.len() / (g - 1) + h.depth() * 2;
            assert!(
                h.extra_space() <= bound,
                "g={g}: {} > {}",
                h.extra_space(),
                bound
            );
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let dists = vec![0.0f32; 1 << 16];
        let h = Hierarchy::build(&dists, 4, 256);
        // 65536 → 16384 → 4096 → 1024 → 256: four reduced levels.
        assert_eq!(h.depth(), 4);
    }

    #[test]
    fn n_smaller_than_k() {
        let dists = vec![3.0, 1.0, 2.0];
        let res = hierarchical_select(&dists, 10, HpConfig::default());
        assert_eq!(
            res.iter().map(|n| n.dist).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn non_divisible_group_tail() {
        // N not a multiple of G: the last (short) group must still be
        // represented by its minimum.
        let mut dists: Vec<f32> = (0..21).map(|i| 21.0 - i as f32).collect();
        dists[20] = 0.25; // minimum lives in the 1-element tail group
        let got = hierarchical_select(&dists, 2, HpConfig { g: 4 });
        assert_eq!(got[0].dist, 0.25);
        assert_eq!(got[0].id, 20);
    }

    #[test]
    #[should_panic]
    fn group_size_one_rejected() {
        Hierarchy::build(&[1.0, 2.0], 1, 1);
    }
}
