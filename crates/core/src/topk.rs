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
//! Per tile, [`TopK::push`] scans the row in strips of [`STRIP`] values
//! into a per-worker [`Candidates`] buffer of `2k + STRIP` keys. A
//! strip with no value below the bound is skipped after a branch-free
//! compare of its values. Before a strip is written into a buffer
//! holding more than `2k` keys, `select_nth_unstable` cuts it to the k
//! smallest, the bound tightens mid-tile, and the strip is written
//! against the tightened bound. The scan has two bodies, picked by
//! [`crate::dispatch::active_kernel`]:
//!
//! * **portable** (`avx2+fma`, `scalar8`): one compare per value; every
//!   key is written, and the write cursor advances only when the value
//!   is below the bound.
//! * **AVX-512** (`avx512`): four 16-lane mask compares per strip
//!   decide the skip. A strip with survivors is written 8 values at a
//!   time: the distance bits are widened into keys, the ids or-ed in,
//!   the survivors compressed to the front of the vector
//!   (`vpcompressq`) and stored as a full 8-lane vector into the
//!   buffer's strip of slack, so the buffer does not grow. The
//!   `len % STRIP` tail takes the portable code.
//!
//! Both bodies leave the same keys in the same order, the same bound and
//! the same stats; a unit test checks this push by push. Measured on a
//! 2-vCPU AVX-512 Xeon (knnbench `batch-k1024`, traced), the AVX-512
//! body scans a query's 4096 values in 4.2 µs against the portable
//! body's 10.1 µs.
//! [`TopK::settle`] cuts to k and keeps the result as the query's state.
//! [`TopK::finish`] cuts the query's last candidates to k in the
//! [`Candidates`] buffer, sorts them there once and builds the
//! neighbors. The sort is dispatched like the scan:
//!
//! * **AVX-512** (`avx512`): a bitonic sorting network (`sortnet`),
//!   the paper's Reverse Bitonic Merge on 8-key zmm registers. It pads
//!   the keys with `i64::MAX` to a multiple of 64 in the buffer's
//!   slack, so it allocates nothing.
//! * **portable** (`avx2+fma`, `scalar8`): `sort_unstable`.
//!
//! No two keys are equal, since each holds its id, so both give the
//! same order. Measured on a 2-vCPU AVX-512 Xeon VM (criterion
//! `topk_finish_n4096`, two runs per dispatch, the clone of the held
//! keys included), finishing k = 1024 took 5.1–5.6 µs with the network
//! against 8.0–9.4 µs with `sort_unstable`, k = 1025 6.2–6.8 µs against
//! 8.6–12.3 µs, and k = 32 160–164 ns against 167–173 ns. In traced
//! knnbench `batch-k1024` the cuts and this sort (`merge.share`) fell
//! from 0.43 to 0.31 of a call.
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
use crate::dispatch::{active_kernel, Kernel};
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
pub(crate) fn raw_key(d: f32, id: u32) -> i64 {
    (i64::from(d.to_bits()) << 32) | i64::from(id)
}

/// The rank key of a [`raw_key`]: its distance's magnitude bits, negated
/// when the sign bit is set, so the key order is the `(dist, id)` order
/// for every finite distance and `−0.0` becomes `+0.0`. The identity for
/// `d ≥ +0.0`.
#[inline]
pub(crate) fn signed(raw: i64) -> i64 {
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

/// Bit `j` set when `strip[j] < bound`: four 16-lane ordered compares,
/// so NaN fails as it fails `<`.
///
/// # Safety
/// The host must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn below_avx512(strip: &[f32; STRIP], bound: f32) -> u64 {
    use std::arch::x86_64::*;

    let b = _mm512_set1_ps(bound);
    let mut below = 0;
    for q in 0..STRIP / 16 {
        let v = _mm512_loadu_ps(strip[16 * q..16 * q + 16].as_ptr());
        below |= u64::from(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, b)) << (16 * q);
    }
    below
}

/// Byte `g` of the result: the set bits of `mask` below bit `8g + 8`,
/// the values a strip keeps up to and including its group `g` of 8. A
/// branch-free byte-wise popcount and prefix sum, so the scan needs no
/// `popcnt` beyond the features the dispatch probes.
#[cfg(target_arch = "x86_64")]
#[inline]
fn kept_through(mask: u64) -> u64 {
    let x = mask - ((mask >> 1) & 0x5555_5555_5555_5555);
    let x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    let per_byte = (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    per_byte.wrapping_mul(0x0101_0101_0101_0101)
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
        match active_kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_kernel` only returns `Avx512` when
            // `avx512_available()` confirmed `avx512f` and `avx512dq`.
            Kernel::Avx512 => unsafe { self.push_avx512(cand, row, id0) },
            _ => self.push_portable(cand, row, id0),
        }
    }

    /// [`TopK::push`]'s portable body: [`TopK::scan_strip`] per strip.
    fn push_portable(&mut self, cand: &mut Candidates, row: &[f32], id0: u32) {
        let mut len = self.load(cand);
        let mut bound = self.bound;
        let mut pushed = 0;
        for (strip, id) in row.chunks(STRIP).zip((id0..).step_by(STRIP)) {
            pushed += self.scan_strip(&mut cand.keys, &mut len, &mut bound, strip, id);
        }
        cand.len = len;
        self.bound = bound;
        self.stats.pushed += pushed as u64;
    }

    /// [`TopK::push`]'s AVX-512 body. Each full strip is tested with four
    /// 16-lane compares against the bound and skipped when none is
    /// below it. Otherwise the buffer is cut first when full, and the
    /// strip re-tested against the tightened bound, as the portable body
    /// writes against it. The survivors are then written 8 values at a
    /// time: the distance bits widened into keys, the ids or-ed in,
    /// compressed to the front and stored as a full 8-lane vector into
    /// the buffer's strip of slack. The `len % STRIP` tail takes the
    /// portable [`TopK::scan_strip`]. The buffer's keys (in order), the
    /// bound and the stats end as the portable body leaves them.
    ///
    /// # Safety
    /// The host must support `avx512f` and `avx512dq` (check
    /// [`avx512_available`](crate::dispatch::avx512_available)).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn push_avx512(&mut self, cand: &mut Candidates, row: &[f32], id0: u32) {
        use std::arch::x86_64::*;

        let mut len = self.load(cand);
        let mut bound = self.bound;
        let mut pushed = 0;
        let (strips, tail) = row.as_chunks::<STRIP>();
        let lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        for (strip, id) in strips.iter().zip((id0..).step_by(STRIP)) {
            let mut below = below_avx512(strip, bound);
            if below == 0 {
                continue;
            }
            if self.make_room(&mut cand.keys, &mut len, &mut bound) {
                below = below_avx512(strip, bound);
            }
            let dst: &mut [i64; STRIP] = (&mut cand.keys[len..len + STRIP])
                .try_into()
                .expect("the buffer has a strip of slack");
            let kept = kept_through(below);
            let mut signs = _mm512_setzero_si512();
            for g in 0..STRIP / 8 {
                let bits = _mm512_cvtepu32_epi64(_mm256_loadu_si256(
                    strip[8 * g..8 * g + 8].as_ptr().cast(),
                ));
                let ids = _mm512_add_epi64(_mm512_set1_epi64(i64::from(id) + 8 * g as i64), lane);
                let keys = _mm512_maskz_compress_epi64(
                    (below >> (8 * g)) as u8,
                    _mm512_or_si512(_mm512_slli_epi64::<32>(bits), ids),
                );
                // The values kept by the groups before this one.
                let at = ((kept << 8) >> (8 * g)) as u8 as usize;
                // SAFETY: at most `8g` values of the groups before this
                // one were kept, so the 8 lanes at `at ≤ 56` end within
                // `dst`'s STRIP = 64 slots.
                _mm512_storeu_si512(dst.as_mut_ptr().add(at).cast(), keys);
                signs = _mm512_or_si512(signs, keys);
            }
            let c = (kept >> 56) as usize;
            // Compressed-out lanes are zero, so `signs` has a sign bit
            // only if a kept value has one.
            if _mm512_movepi64_mask(signs) != 0 {
                for key in &mut dst[..c] {
                    *key = signed(*key);
                }
            }
            len += c;
            pushed += c;
        }
        if !tail.is_empty() {
            let id = id0 + (row.len() - tail.len()) as u32;
            pushed += self.scan_strip(&mut cand.keys, &mut len, &mut bound, tail, id);
        }
        cand.len = len;
        self.bound = bound;
        self.stats.pushed += pushed as u64;
    }

    /// The buffer's fill at the start of a push: when `cand` is empty,
    /// this query's held keys are loaded into it first.
    ///
    /// # Panics
    /// When `cand` was made for a different `k`.
    fn load(&self, cand: &mut Candidates) -> usize {
        assert_eq!(
            cand.keys.len(),
            2 * self.k + STRIP,
            "buffer made for another k"
        );
        if cand.len == 0 {
            let held = self.keys.len();
            cand.keys[..held].copy_from_slice(&self.keys);
            held
        } else {
            cand.len
        }
    }

    /// The cut-before-write rule: a buffer holding more than `2k` keys is
    /// cut to k and the bound tightened, so that a whole strip fits.
    /// Returns whether it cut.
    #[inline]
    fn make_room(&mut self, keys: &mut [i64], len: &mut usize, bound: &mut f32) -> bool {
        if *len <= 2 * self.k {
            return false;
        }
        *bound = cut(&mut keys[..*len], self.k);
        self.stats.rejected += (*len - self.k) as u64;
        *len = self.k;
        true
    }

    /// The portable scan of one strip of at most [`STRIP`] values with
    /// ids from `id`: append the values below the bound to
    /// `keys[..len]` and return how many. Every key is written, and the
    /// write cursor advances only when the value is below the bound.
    #[inline]
    fn scan_strip(
        &mut self,
        keys: &mut [i64],
        len: &mut usize,
        bound: &mut f32,
        strip: &[f32],
        id: u32,
    ) -> usize {
        // One compare per value, folded without a branch, decides
        // whether the strip needs the write loop at all.
        if !strip.iter().fold(false, |any, &d| any | (d < *bound)) {
            return 0;
        }
        self.make_room(keys, len, bound);
        let bound = *bound;
        // `len ≤ 2k`, so a whole strip fits. The cursor `c` never
        // passes the value index `j < STRIP`, so `c & (STRIP - 1)` is
        // `c`.
        let dst: &mut [i64; STRIP] = (&mut keys[*len..*len + STRIP])
            .try_into()
            .expect("the buffer has a strip of slack");
        let (mut c, mut signs) = (0, 0);
        for (&d, j) in strip.iter().zip(0u32..) {
            dst[c & (STRIP - 1)] = raw_key(d, id + j);
            c += usize::from(d < bound);
            signs |= d.to_bits();
        }
        // Raw keys of values with the sign bit set are not yet rank
        // keys; a strip without one (every strip of a squared Euclidean
        // row) skips the conversion.
        if signs >> 31 != 0 {
            for key in &mut dst[..c] {
                *key = signed(*key);
            }
        }
        *len += c;
        c
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

    /// The query's k best as neighbors, sorted ascending by
    /// `(dist, id)`: the one sort of a query's picks. The buffered
    /// candidates (or, with none since the last settle, the held keys)
    /// are cut to k in `cand` and sorted there: by a bitonic network on
    /// the `avx512` dispatch, which pads them to a multiple of 64 in the
    /// buffer's slack, and by `sort_unstable` on the others. No two keys
    /// are equal, so both give the same order. Frees the held keys and
    /// leaves the top-k and `cand` empty; the lifetime [`TopK::stats`]
    /// count the last cut.
    ///
    /// # Panics
    /// When `cand` was made for a different `k`.
    pub fn finish(&mut self, cand: &mut Candidates) -> Vec<Neighbor> {
        let len = self.load(cand);
        let kept = len.min(self.k);
        if len > kept {
            cut(&mut cand.keys[..len], kept);
        }
        self.stats.rejected += (len - kept) as u64;
        self.keys = Vec::new();
        self.bound = f32::INFINITY;
        cand.len = 0;
        match active_kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_kernel` only returns `Avx512` when
            // `avx512_available()` confirmed `avx512f`. The network
            // pads `kept ≤ k` to a multiple of 64, within the buffer's
            // `2k + STRIP` keys.
            Kernel::Avx512 => unsafe { crate::sortnet::sort(&mut cand.keys, kept) },
            _ => cand.keys[..kept].sort_unstable(),
        }
        cand.keys[..kept]
            .iter()
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
        assert_eq!(top.finish(&mut cand), [Neighbor::new(3.0, 2)]);
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

    /// A value for the state-identity test: few distinct values (so
    /// many equal the bound), `±0.0`, NaN of either sign, `+∞`, and
    /// with `neg_inf` also `−∞`, or a spread value of either sign; only
    /// non-negative ones when `euclid` (no strip needs the sign
    /// conversion).
    #[cfg(target_arch = "x86_64")]
    fn value(r: u64, neg_inf: bool, euclid: bool) -> f32 {
        let d = match r % 32 {
            0 => -0.0,
            1 => 0.0,
            2 => f32::NAN,
            3 => -f32::NAN,
            4 => f32::INFINITY,
            5 if neg_inf => f32::NEG_INFINITY,
            6..=19 => ((r >> 8) % 8) as f32 * 0.5 - 1.0,
            _ => ((r >> 8) % 100_000) as f32 / 1000.0 - 20.0,
        };
        if euclid {
            d.abs()
        } else {
            d
        }
    }

    /// Both bodies hold the same state: buffer fill, buffered keys in
    /// order, held keys, bound and stats.
    #[cfg(target_arch = "x86_64")]
    fn assert_same(a: (&TopK, &Candidates), b: (&TopK, &Candidates), what: &str) {
        assert_eq!(a.1.len, b.1.len, "{what}: buffer fill");
        assert_eq!(
            a.1.keys[..a.1.len],
            b.1.keys[..b.1.len],
            "{what}: buffered keys"
        );
        assert_eq!(a.0.keys, b.0.keys, "{what}: held keys");
        assert_eq!(a.0.bound.to_bits(), b.0.bound.to_bits(), "{what}: bound");
        assert_eq!(a.0.stats, b.0.stats, "{what}: stats");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_scan_leaves_the_portable_state() {
        if !crate::dispatch::avx512_available() {
            eprintln!("skipping: host lacks avx512f+avx512dq");
            return;
        }
        // xorshift64: the rows are generated, not drawn from a crate.
        let mut r = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            r
        };
        for k in [1, 2, 31, 32, 70] {
            for case in 0..90 {
                let (neg_inf, euclid) = (case % 3 == 0, case % 3 == 2);
                let mut portable = (TopK::new(k), Candidates::new(k));
                let mut avx512 = portable.clone();
                let mut id0 = 0u32;
                for round in 0..1 + case % 3 {
                    // Several pushes before one settle, so the buffer
                    // crosses 2k inside a push and is cut mid-row.
                    for piece in 0..1 + (case / 3) % 4 {
                        let len = (next() % 301) as usize;
                        let row: Vec<f32> =
                            (0..len).map(|_| value(next(), neg_inf, euclid)).collect();
                        portable.0.push_portable(&mut portable.1, &row, id0);
                        // SAFETY: gated on avx512_available above.
                        unsafe { avx512.0.push_avx512(&mut avx512.1, &row, id0) };
                        id0 += len as u32;
                        let what = format!("k {k} case {case} round {round} push {piece}");
                        assert_same((&portable.0, &portable.1), (&avx512.0, &avx512.1), &what);
                    }
                    portable.0.settle(&mut portable.1);
                    avx512.0.settle(&mut avx512.1);
                    let what = format!("k {k} case {case} round {round} settle");
                    assert_same((&portable.0, &portable.1), (&avx512.0, &avx512.1), &what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        TopK::new(0);
    }
}
