//! Threshold top-k for streamed search: keep one query's k best as
//! integer keys and sort them once.
//!
//! A streaming caller sees each query's distances one reference tile at
//! a time. [`TopK`] holds the query's state between tiles: its `≤ k`
//! best as unsorted `i64` keys `(signed(dist) << 32) | id` and the
//! running bound, the k-th smallest distance once k are held.
//! `signed(dist)` is the distance's sign and magnitude bits as an
//! `i32`, computed without a branch: the raw bits for `dist ≥ +0.0`,
//! minus the magnitude below zero, so `−0.0` is `+0.0`. The key order is
//! therefore the `(dist, id)` order of IEEE `<` (`−0.0 == +0.0`) for
//! every finite distance, so one integer compare ranks a candidate and
//! the lowest id wins a tie, for negative distances (a negated dot
//! product, a cosine rounded below zero) as for positive ones. The scan
//! writes the raw bits, which are already the key for `dist ≥ +0.0`,
//! and converts a strip's kept keys only when the strip holds a value
//! with the sign bit set.
//!
//! Per tile, [`TopK::push`] scans the row branch-free in strips of
//! [`STRIP`] values into a per-worker [`Candidates`] buffer of
//! `2k + STRIP` keys: every key is written, and the write cursor
//! advances only when the value is below the bound. A strip with no
//! value below the bound is skipped after a branch-free compare of its
//! values.
//! When the buffer holds more than `2k` keys, `select_nth_unstable`
//! cuts it to the k smallest and the bound tightens mid-tile.
//! [`TopK::settle`] cuts to k and keeps the result as the query's state;
//! [`TopK::finish`] sorts the k keys once and builds the neighbors.
//! This is the threshold filtering of FAISS's WarpSelect and RTop-K:
//! most values fail one compare against the bound and cost nothing
//! more.
//!
//! # Exactness
//!
//! Ids must arrive in ascending order, as they do when a row is pushed
//! in consecutive pieces. Every buffered key then has a smaller id than
//! any value still to come. A later value equal to the k-th distance
//! loses the `(dist, id)` tie to the k-th key, and a larger one loses
//! outright, so only values strictly below the bound can enter. A cut
//! keeps the k smallest keys it sees, which contain the k smallest of
//! the whole prefix. The result is therefore a full `(dist, id)` sort of
//! everything pushed, cut at k. `+∞` and NaN never pass `d < bound`, so
//! they are never returned; with fewer than k finite values, fewer than
//! k come back.

use crate::chunked::MergeStats;
use crate::types::Neighbor;

/// Values scanned per branch-free strip. A power of two, so a cursor
/// masked with `STRIP - 1` indexes a strip without a bounds check.
pub const STRIP: usize = 64;

/// One worker's candidate buffer: `2k + STRIP` keys, reused for every
/// query the worker serves. Between a query's first [`TopK::push`] of a
/// tile and its [`TopK::settle`] it holds that query's candidates;
/// `settle` always leaves it empty.
#[derive(Clone, Debug)]
pub struct Candidates {
    keys: Vec<i64>,
    len: usize,
}

impl Candidates {
    /// A buffer for selections of `k` values.
    pub fn new(k: usize) -> Self {
        Candidates {
            keys: vec![0; 2 * k + STRIP],
            len: 0,
        }
    }
}

/// One query's streaming top-k: its `≤ k` best keys, unsorted, and the
/// strict bound a new value must beat. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    keys: Vec<i64>,
    bound: f32,
    stats: MergeStats,
}

/// What the scan writes for every value: `(d.to_bits() << 32) | id`.
/// For `d ≥ +0.0` this is the rank key; [`signed`] converts the rest.
#[inline]
fn raw_key(d: f32, id: u32) -> i64 {
    (i64::from(d.to_bits()) << 32) | i64::from(id)
}

/// The rank key of a [`raw_key`]: its distance's magnitude bits, negated
/// when the sign bit is set, so the key order is the `(dist, id)` order
/// for every finite distance and `−0.0` becomes `+0.0`. The identity for
/// `d ≥ +0.0`.
#[inline]
fn signed(raw: i64) -> i64 {
    let bits = (raw >> 32) as i32;
    // 0 for a non-negative value, -1 for a negative one.
    let s = bits >> 31;
    let mag = bits & 0x7FFF_FFFF;
    (i64::from((mag ^ s) - s) << 32) | (raw & 0xFFFF_FFFF)
}

/// The distance a key starts with.
#[inline]
fn key_dist(key: i64) -> f32 {
    let hi = (key >> 32) as i32;
    let s = hi >> 31;
    let mag = ((hi ^ s) - s) as u32;
    f32::from_bits(mag | (s as u32 & 0x8000_0000))
}

/// Cut `keys` to its `k` smallest (in `keys[..k]`, no particular
/// order) and return the k-th smallest distance. `keys.len() ≥ k`.
#[inline]
fn cut(keys: &mut [i64], k: usize) -> f32 {
    let (_, kth, _) = keys.select_nth_unstable(k - 1);
    key_dist(*kth)
}

impl TopK {
    /// An empty top-k of `k` values.
    ///
    /// # Panics
    /// When `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK {
            k,
            keys: Vec::with_capacity(k),
            bound: f32::INFINITY,
            stats: MergeStats::default(),
        }
    }

    /// The strict bound a value must beat to enter: the k-th smallest
    /// distance once k values are held, `+∞` before.
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Lifetime totals: `pushed` counts values appended below the
    /// running bound, `rejected` the keys the cuts dropped. After
    /// [`TopK::settle`], `pushed - rejected` is the number held.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Offer `row[j]` with id `id0 + j` for every `j`: each value below
    /// the running bound is appended to `cand`. Before a strip is
    /// written into a buffer holding more than `2k` keys, the buffer is
    /// cut to k and the bound tightened. When `cand` is empty, this
    /// query's held keys are loaded into it first, so a query may push
    /// several pieces before it settles.
    ///
    /// Values may be any `f32`; `+∞` and NaN are never kept. `id0` must
    /// exceed every id pushed before. `cand` must be empty or hold this
    /// query's candidates: settle one query before pushing the next.
    ///
    /// # Panics
    /// When `cand` was made for a different `k`.
    pub fn push(&mut self, cand: &mut Candidates, row: &[f32], id0: u32) {
        let k = self.k;
        assert_eq!(cand.keys.len(), 2 * k + STRIP, "buffer made for another k");
        let mut len = cand.len;
        if len == 0 {
            len = self.keys.len();
            cand.keys[..len].copy_from_slice(&self.keys);
        }
        let mut bound = self.bound;
        let mut pushed = 0;
        for (strip, id) in row.chunks(STRIP).zip((id0..).step_by(STRIP)) {
            // One compare per value, folded without a branch, decides
            // whether the strip needs the write loop at all.
            if !strip.iter().fold(false, |any, &d| any | (d < bound)) {
                continue;
            }
            if len > 2 * k {
                bound = cut(&mut cand.keys[..len], k);
                self.stats.rejected += (len - k) as u64;
                len = k;
            }
            // `len ≤ 2k`, so a whole strip fits. The cursor `c` never
            // passes the value index `j < STRIP`, so `c & (STRIP - 1)`
            // is `c`.
            let dst: &mut [i64; STRIP] = (&mut cand.keys[len..len + STRIP])
                .try_into()
                .expect("the buffer has a strip of slack");
            let (mut c, mut signs) = (0, 0);
            for (&d, j) in strip.iter().zip(0u32..) {
                dst[c & (STRIP - 1)] = raw_key(d, id + j);
                c += usize::from(d < bound);
                signs |= d.to_bits();
            }
            // Raw keys of values with the sign bit set are not yet rank
            // keys; a strip without one (every strip of a squared
            // Euclidean row) skips the conversion.
            if signs >> 31 != 0 {
                for k in &mut dst[..c] {
                    *k = signed(*k);
                }
            }
            len += c;
            pushed += c as u64;
        }
        cand.len = len;
        self.bound = bound;
        self.stats.pushed += pushed;
    }

    /// Cut the buffered candidates to the k smallest and keep them as
    /// this query's state, tightening the bound once k are held. Leaves
    /// `cand` empty for the next query. Without a push since the last
    /// settle there is nothing to cut, and the state is unchanged.
    pub fn settle(&mut self, cand: &mut Candidates) {
        let len = cand.len;
        if len == 0 {
            // Nothing loaded: a push would have loaded the held keys.
            return;
        }
        let held = &mut cand.keys[..len];
        let kept = if len >= self.k {
            self.bound = cut(held, self.k);
            self.k
        } else {
            len
        };
        self.stats.rejected += (len - kept) as u64;
        self.keys.clear();
        self.keys.extend_from_slice(&held[..kept]);
        cand.len = 0;
    }

    /// The held values as neighbors, sorted ascending by `(dist, id)`:
    /// the one sort of a query's picks. Frees the held keys and leaves
    /// the top-k empty; the lifetime [`TopK::stats`] stay.
    pub fn finish(&mut self) -> Vec<Neighbor> {
        let mut keys = core::mem::take(&mut self.keys);
        self.bound = f32::INFINITY;
        keys.sort_unstable();
        keys.iter()
            .map(|&o| Neighbor::new(key_dist(o), o as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_and_nan_are_never_kept() {
        let mut cand = Candidates::new(2);
        let mut top = TopK::new(2);
        top.push(&mut cand, &[f32::INFINITY, f32::NAN, 3.0], 0);
        top.settle(&mut cand);
        assert_eq!(top.finish(), [Neighbor::new(3.0, 2)]);
        assert_eq!(top.stats().pushed, 1);
    }

    #[test]
    fn the_bound_is_the_kth_distance_once_k_are_held() {
        let mut cand = Candidates::new(2);
        let mut top = TopK::new(2);
        top.push(&mut cand, &[4.0], 0);
        top.settle(&mut cand);
        assert_eq!(top.bound(), f32::INFINITY);
        top.push(&mut cand, &[1.0, 9.0], 1);
        top.settle(&mut cand);
        assert_eq!(top.bound(), 4.0);
        assert_eq!(cand.len, 0, "settle empties the buffer");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        TopK::new(0);
    }
}
