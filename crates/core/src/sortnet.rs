//! A bitonic sorting network for `i64` keys on AVX-512: the final sort
//! of [`TopK::finish`](crate::TopK::finish) on the `avx512` dispatch.
//!
//! The network is the paper's Reverse Bitonic Merge (the repair network
//! of the Merge Queue, simulated in [`crate::bitonic`]) laid out for
//! 8-lane zmm registers. Every merge sorts ascending: two sorted runs
//! of `h` keys are merged by comparing key `i` of the pair with key
//! `2h - 1 - i` (the *flip*), which leaves two bitonic halves with every
//! key of the lower half at most every key of the upper, and then by
//! half-cleaners of stride `h/2, h/4, …, 1`, which sort each half.
//!
//! * A [`BLOCK`] of 64 keys is sorted in eight registers. An optimal
//!   19-comparator network, each comparator one `vpminsq` and one
//!   `vpmaxsq` between two registers, sorts the eight lane columns; an
//!   8 × 8 transpose turns them into eight sorted registers, which are
//!   merged in registers.
//! * Blocks are merged pairwise into runs of 128, 256, … keys. The flip
//!   and every half-cleaner of stride 8 registers or more run over
//!   memory, one register pair at a time; the strides below 8 registers
//!   run in registers, one block at a time.
//! * The half-cleaners inside a register (strides of 4, 2 and 1 lanes)
//!   run on two registers at once: each step shuffles the lanes it pairs
//!   into one register of lower and one of upper partners, so one min
//!   and one max serve both.
//!
//! The flip compares a register with its partner's lanes reversed, and
//! stores the upper result without reversing it back. Every later step
//! of that merge compares lane `e` with lane `e`, so it still pairs the
//! right keys, and the last in-register steps sort any bitonic register
//! whatever its direction. This saves one permute per flip.
//!
//! A length that is not a multiple of [`BLOCK`] is padded with
//! `i64::MAX` to the next one. Past that the network runs as if padded
//! with `+∞` to a power of two: a compare whose upper key lies past the
//! end would leave both keys where they are, so it is skipped. Since
//! every merge sorts ascending, the virtual `+∞` keys stay at the top
//! and never need storage. The sort is a correct sort of any keys:
//! a real key equal to the `i64::MAX` padding is indistinguishable
//! from it.

use std::arch::x86_64::*;

/// Keys per zmm register.
const LANES: usize = 8;
/// Keys one block sorts in registers: eight registers.
const BLOCK: usize = 64;
/// Registers per [`BLOCK`].
const BLOCK_REGS: usize = BLOCK / LANES;

/// One register's worth of keys in memory.
type Reg = [i64; LANES];

/// Apply `$op` to each listed register pair of `$v`, as straight-line
/// code: every index is a constant, so the registers never leave the
/// register file.
macro_rules! pairs {
    ($op:ident, $v:expr, [$(($i:literal, $j:literal)),* $(,)?]) => {
        $($op($v, $i, $j);)*
    };
}

/// Sort `buf[..len]` ascending. For `len ≥ 2`, `buf[len..]` up to the
/// next multiple of [`BLOCK`] is overwritten with `i64::MAX` padding;
/// nothing past it is touched.
///
/// # Panics
/// When `buf` is shorter than `len` rounded up to a multiple of
/// [`BLOCK`].
///
/// # Safety
/// The host must support `avx512f`.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn sort(buf: &mut [i64], len: usize) {
    if len < 2 {
        return;
    }
    let keys = &mut buf[..len.next_multiple_of(BLOCK)];
    keys[len..].fill(i64::MAX);
    let (regs, _) = keys.as_chunks_mut::<LANES>();
    for block in regs.as_chunks_mut::<BLOCK_REGS>().0 {
        sort_block(block);
    }
    let mut run = BLOCK_REGS;
    while run < regs.len() {
        for pair in regs.chunks_mut(2 * run) {
            merge_runs(pair, run);
        }
        run *= 2;
    }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn load(r: &Reg) -> __m512i {
    // SAFETY: `r` is 8 initialized `i64`s; the load is unaligned.
    unsafe { _mm512_loadu_si512(r.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store(r: &mut Reg, v: __m512i) {
    // SAFETY: `r` is 8 writable `i64`s; the store is unaligned.
    unsafe { _mm512_storeu_si512(r.as_mut_ptr().cast(), v) }
}

/// `v` with its lanes in reverse order.
#[inline]
#[target_feature(enable = "avx512f")]
fn reverse(v: __m512i) -> __m512i {
    _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v)
}

/// Compare-exchange registers `i` and `j` of `v` lane by lane: the min
/// stays in `v[i]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn minmax(v: &mut [__m512i; BLOCK_REGS], i: usize, j: usize) {
    let (a, b) = (v[i], v[j]);
    v[i] = _mm512_min_epi64(a, b);
    v[j] = _mm512_max_epi64(a, b);
}

/// The flip of register `i` against register `j` with its lanes
/// reversed. The upper result is stored unreversed (see the
/// [module docs](self)).
#[inline]
#[target_feature(enable = "avx512f")]
fn flip(v: &mut [__m512i; BLOCK_REGS], i: usize, j: usize) {
    let (a, b) = (v[i], reverse(v[j]));
    v[i] = _mm512_min_epi64(a, b);
    v[j] = _mm512_max_epi64(a, b);
}

/// Sort two bitonic registers `a = A0..A7` and `b = B0..B7`: the
/// half-cleaners of stride 4, 2 and 1 lanes, run on both at once. Each
/// step shuffles the lanes it pairs into one register of lower and one
/// of upper partners, so one min and one max serve both registers.
#[inline]
#[target_feature(enable = "avx512f")]
fn clean_pair(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
    // Stride 4: [A0..A3 B0..B3] against [A4..A7 B4..B7].
    let (x, y) = (
        _mm512_shuffle_i64x2::<0x44>(a, b),
        _mm512_shuffle_i64x2::<0xEE>(a, b),
    );
    let (l, h) = (_mm512_min_epi64(x, y), _mm512_max_epi64(x, y));
    // Stride 2: [A0 A1 B0 B1 A4 A5 B4 B5] against [A2 A3 B2 B3 A6 A7
    // B6 B7].
    let (x, y) = (
        _mm512_shuffle_i64x2::<0x88>(l, h),
        _mm512_shuffle_i64x2::<0xDD>(l, h),
    );
    let (l, h) = (_mm512_min_epi64(x, y), _mm512_max_epi64(x, y));
    // Stride 1: [A0 A2 B0 B2 A4 A6 B4 B6] against [A1 A3 B1 B3 A5 A7
    // B5 B7].
    let (x, y) = (_mm512_unpacklo_epi64(l, h), _mm512_unpackhi_epi64(l, h));
    let (l, h) = (_mm512_min_epi64(x, y), _mm512_max_epi64(x, y));
    // Back to lane order: lane `i` of `h` is lane `8 + i` of the pair.
    (
        _mm512_permutex2var_epi64(l, _mm512_set_epi64(13, 5, 12, 4, 9, 1, 8, 0), h),
        _mm512_permutex2var_epi64(l, _mm512_set_epi64(15, 7, 14, 6, 11, 3, 10, 2), h),
    )
}

/// Sort each of eight bitonic registers.
#[inline]
#[target_feature(enable = "avx512f")]
fn clean_each(v: &mut [__m512i; BLOCK_REGS]) {
    (v[0], v[1]) = clean_pair(v[0], v[1]);
    (v[2], v[3]) = clean_pair(v[2], v[3]);
    (v[4], v[5]) = clean_pair(v[4], v[5]);
    (v[6], v[7]) = clean_pair(v[6], v[7]);
}

/// The half-cleaners of strides 2 and 1 register over eight
/// registers, then of 4, 2 and 1 lanes in each: sorts them when each
/// run of four registers is bitonic and at most the next run.
#[inline]
#[target_feature(enable = "avx512f")]
fn clean_from2(v: &mut [__m512i; BLOCK_REGS]) {
    pairs!(minmax, v, [(0, 2), (1, 3), (4, 6), (5, 7)]);
    pairs!(minmax, v, [(0, 1), (2, 3), (4, 5), (6, 7)]);
    clean_each(v);
}

/// Transpose eight registers as an 8 × 8 matrix: lane `j` of register
/// `i` moves to lane `i` of register `j`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(v: &mut [__m512i; BLOCK_REGS]) {
    // t[2p] holds lanes 0, 2, 4, 6 of registers 2p and 2p + 1 in pairs,
    // t[2p + 1] their odd lanes.
    let mut t = *v;
    for p in 0..4 {
        t[2 * p] = _mm512_unpacklo_epi64(v[2 * p], v[2 * p + 1]);
        t[2 * p + 1] = _mm512_unpackhi_epi64(v[2 * p], v[2 * p + 1]);
    }
    for odd in 0..2 {
        let [t0, t2, t4, t6] = [0, 2, 4, 6].map(|i| t[i + odd]);
        let (s0, s1) = (
            _mm512_shuffle_i64x2::<0x88>(t0, t2),
            _mm512_shuffle_i64x2::<0xDD>(t0, t2),
        );
        let (s2, s3) = (
            _mm512_shuffle_i64x2::<0x88>(t4, t6),
            _mm512_shuffle_i64x2::<0xDD>(t4, t6),
        );
        v[odd] = _mm512_shuffle_i64x2::<0x88>(s0, s2);
        v[4 + odd] = _mm512_shuffle_i64x2::<0xDD>(s0, s2);
        v[2 + odd] = _mm512_shuffle_i64x2::<0x88>(s1, s3);
        v[6 + odd] = _mm512_shuffle_i64x2::<0xDD>(s1, s3);
    }
}

/// Sort one [`BLOCK`] of eight registers in registers. An optimal
/// 19-comparator network over the registers sorts each of the eight
/// lane columns, a transpose turns the columns into sorted registers,
/// and runs of 1, 2 and 4 registers are then merged.
#[inline]
#[target_feature(enable = "avx512f")]
fn sort_block(block: &mut [Reg; BLOCK_REGS]) {
    let mut v = block.each_ref().map(|r| load(r));
    let w = &mut v;
    pairs!(minmax, w, [(0, 2), (1, 3), (4, 6), (5, 7)]);
    pairs!(minmax, w, [(0, 4), (1, 5), (2, 6), (3, 7)]);
    pairs!(minmax, w, [(0, 1), (2, 3), (4, 5), (6, 7)]);
    pairs!(minmax, w, [(2, 4), (3, 5)]);
    pairs!(minmax, w, [(1, 4), (3, 6)]);
    pairs!(minmax, w, [(1, 2), (3, 4), (5, 6)]);
    transpose(w);
    pairs!(flip, w, [(0, 1), (2, 3), (4, 5), (6, 7)]);
    clean_each(w);
    pairs!(flip, w, [(0, 3), (1, 2), (4, 7), (5, 6)]);
    pairs!(minmax, w, [(0, 1), (2, 3), (4, 5), (6, 7)]);
    clean_each(w);
    pairs!(flip, w, [(0, 7), (1, 6), (2, 5), (3, 4)]);
    clean_from2(w);
    for (r, x) in block.iter_mut().zip(v) {
        store(r, x);
    }
}

/// Merge the sorted runs `regs[..run]` and `regs[run..]` (at most `run`
/// registers, the rest virtual `+∞`). `run` is a power of two of at
/// least [`BLOCK_REGS`] registers, and `regs` holds whole blocks.
#[target_feature(enable = "avx512f")]
fn merge_runs(regs: &mut [Reg], run: usize) {
    if regs.len() <= run {
        return;
    }
    let (lo, hi) = regs.split_at_mut(run);
    // The flip pairs register `i` of `hi` with register `run - 1 - i`
    // of `lo`; a virtual `hi` register would leave its partner as is.
    for (a, b) in lo.iter_mut().rev().zip(hi.iter_mut()) {
        let (x, y) = (load(a), reverse(load(b)));
        store(a, _mm512_min_epi64(x, y));
        store(b, _mm512_max_epi64(x, y));
    }
    let mut s = run / 2;
    while s >= BLOCK_REGS {
        for part in regs.chunks_mut(2 * s) {
            if part.len() > s {
                let (a, b) = part.split_at_mut(s);
                for (a, b) in a.iter_mut().zip(b.iter_mut()) {
                    let (x, y) = (load(a), load(b));
                    store(a, _mm512_min_epi64(x, y));
                    store(b, _mm512_max_epi64(x, y));
                }
            }
        }
        s /= 2;
    }
    for block in regs.as_chunks_mut::<BLOCK_REGS>().0 {
        let mut v = block.each_ref().map(|r| load(r));
        pairs!(minmax, &mut v, [(0, 4), (1, 5), (2, 6), (3, 7)]);
        clean_from2(&mut v);
        for (r, x) in block.iter_mut().zip(v) {
            store(r, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{raw_key, signed};

    /// Sort `keys` with the network in a buffer with the slack a
    /// [`crate::Candidates`] gives, and check it against `sort_unstable`
    /// and that nothing past the padding is touched.
    fn check(keys: &[i64], what: &str) {
        let len = keys.len();
        let padded = len.next_multiple_of(BLOCK);
        let mut buf = keys.to_vec();
        buf.resize(padded + 5, 7);
        // SAFETY: the caller checked `avx512_available`.
        unsafe { sort(&mut buf, len) };
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(buf[..len], want, "{what}: len {len}");
        assert_eq!(buf[padded..], [7; 5], "{what}: len {len}: past the padding");
    }

    /// A distance with many equal values, `±0.0`, negatives and the
    /// finite extremes.
    fn dist(r: u64) -> f32 {
        match r % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN,
            3 => f32::MAX,
            4..=9 => ((r >> 8) % 4) as f32 - 1.5,
            10 | 11 => -(((r >> 8) % 100_000) as f32) / 7.0,
            _ => ((r >> 8) % 100_000) as f32 / 7.0,
        }
    }

    #[test]
    fn sorts_like_sort_unstable() {
        if !crate::dispatch::avx512_available() {
            eprintln!("skipping: host lacks avx512f+avx512dq");
            return;
        }
        // xorshift64: the keys are generated, not drawn from a crate.
        let mut r = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            r
        };
        let lens = (0..=300).chain([511, 512, 513, 1023, 1024, 1025, 2047, 2048, 4096]);
        for len in lens {
            // Ids are distinct, as a query's held ids are; their order
            // is shuffled by the distances.
            let held: Vec<i64> = (0..len as u32)
                .map(|id| signed(raw_key(dist(next()), id * 3 + 1)))
                .collect();
            check(&held, "held keys");
            let mut sorted = held.clone();
            sorted.sort_unstable();
            check(&sorted, "ascending");
            sorted.reverse();
            check(&sorted, "descending");
        }
        // Keys at both ends of the `i64` range, the padding value among
        // them: a correct sort of any keys.
        let ends: Vec<i64> = (0..200)
            .map(|i| match next() % 4 {
                0 => i64::MIN + i,
                1 => i64::MAX - i % 3,
                _ => next() as i64,
            })
            .collect();
        check(&ends, "extremes");
    }
}
