//! Runtime-dispatched SIMD microkernels for the distance row primitive.
//!
//! The tile inner loop — ‖q‖² + ‖r‖² − 2·q·r per (query, reference)
//! pair — spends all of its time in [`crate::distance::dot`]. That
//! function's contract fixes the accumulation order: [`LANES`]
//! independent partial sums (`acc[l] += a[l] * b[l]` per 8-wide chunk),
//! a sequential scalar tail, and a fixed-shape pairwise reduce tree.
//! This module provides three implementations of the row primitive that
//! reproduce those bits exactly and picks one at runtime:
//!
//! * **`avx512`** — a 512-bit kernel that fills four query rows per
//!   pass against four reference rows (see below). Each 256-bit half of
//!   an accumulator is one query's 8-lane chain, so it runs the AVX2
//!   kernel's arithmetic lane for lane.
//! * **`avx2+fma`** — an AVX2 vector kernel register-blocked over `B`
//!   query rows × four reference rows per pass. Each accumulator lane
//!   *is* one of the scalar kernel's eight partial sums, the horizontal
//!   reduce performs the same pairwise tree, and the `dim % 8` tail is
//!   the same scalar loop — so every pair's distance is bit-identical to
//!   the scalar path. The blocking exists for throughput, not numerics:
//!   one query chunk load feeds four independent add chains, which
//!   covers the f32-add latency that a single-accumulator port would
//!   stall on, and one reference chunk load feeds `B` queries.
//! * **`scalar8`** — the portable fallback: the existing 8-accumulator
//!   scalar kernel (which autovectorizes), one reference row at a time.
//!
//! [`fill_rows`] fills one query row (the AVX2 body at `B = 1` on both
//! vector kernels); [`fill_rows_quad`] fills up to [`QUAD`] rows that
//! share a reference range, and is what the streamed search and the
//! materialized matrix call.
//!
//! # The 4 × 4 query quad
//!
//! With one query per pass a streamed worker reads its whole reference
//! tile (2048 × 128 × 4 B = 1 MiB) from L2 once per query. Sharing each
//! reference load between queries divides that traffic, but the AVX2
//! block cannot grow past two queries: eight ymm accumulators plus four
//! reference vectors fill its 16 registers, and 3 × 4 and 4 × 4 AVX2
//! prototypes were no faster than 2 × 4.
//!
//! The AVX-512 kernel has 32 zmm registers. Per call it packs the four
//! queries once, as two query pairs `[q_a chunk c | q_b chunk c]` per
//! zmm, into a caller-provided area of [`pack_len`] floats. Per 8-lane
//! chunk it then broadcasts each of the four reference chunks into both
//! halves of a zmm (`vbroadcastf32x8`), loads the two query pairs, and
//! updates 8 accumulators: 4 references × 2 pairs, 16 chains of 8
//! lanes. Each reference chunk is loaded once for four queries. The
//! arithmetic is a separate `mul` then `add`. A 512-bit form of the
//! AVX2 kernel's transposed reduce then folds both halves of a pair at
//! once, adding the same values in the same tree, and the clamp and the
//! scalar tail are the AVX2 kernel's, so every distance is bit-equal to
//! the scalar path. One to three live rows fill the empty slots by
//! repeating the last live query, and those rows are discarded; the
//! `len % 4` last references take one reference per pass in the same
//! call.
//!
//! On the AVX2 kernel [`fill_rows_quad`] runs the `B = 2` body once per
//! query pair (the `B = 1` body for an odd last row); the portable
//! kernel fills the rows one after the other.
//!
//! Measured on a 2-vCPU Xeon VM with AVX-512 (48 KiB L1d, 2 MiB L2 per
//! core), one thread pinned, a 32-query block against N = 2^15
//! references of dim 128 in tiles of 2048, alternating rounds: the AVX2
//! pair body ran at 14.5–16.0 GFLOP/s (the parent commit's pair kernel
//! at 15.6–16.5) and the AVX-512 quad at 19.2–21.8. In a prototype on
//! the same VM a 512-bit pair (two queries × four references) reached
//! 16.1–19.0.
//! The quad size is a fixed constant, not a tuning knob.
//!
//! # Why not `_mm256_fmadd_ps`?
//!
//! The dispatch gate requires the `fma` CPUID flag (every AVX2 part
//! ships it, and enabling it lets LLVM schedule the loop for FMA-class
//! ports), but the kernels deliberately issue separate `mul` + `add`:
//! a fused multiply-add rounds once where the scalar contract rounds
//! twice, so an FMA kernel would *not* be bit-identical — and the fig5
//! experiment artifacts, the property tests, and the streamed-vs-
//! materialized equivalence all hang off that identity. Rust never
//! contracts a separate `mul`/`add` pair on its own (no fast-math), so
//! the explicit intrinsics pin the arithmetic.
//!
//! Dispatch is decided once per process ([`active_kernel`]) from CPUID
//! via `is_x86_feature_detected!`; setting `KNN_SIMD=scalar` in the
//! environment forces the portable kernel (used by tests and benches to
//! compare the paths on the same machine). The probe lives in
//! [`kselect::dispatch`] and is re-exported here: the same answer picks
//! the body of the top-k scan ([`kselect::TopK::push`]) and of its final
//! sort ([`kselect::TopK::finish`]), so one host runs one instruction
//! set in the fill and the selection alike.

use super::{clamp_non_finite, dot, squared_distance_from_parts, LANES};
use crate::dataset::PointSet;

/// Query rows one [`fill_rows_quad`] call fills at most.
pub const QUAD: usize = 4;

/// Floats of the query-pack area [`fill_rows_quad`] takes at
/// dimension `dim`. Callers reserve it whatever the dispatched kernel,
/// so their scratch size does not depend on the host.
pub fn pack_len(dim: usize) -> usize {
    QUAD * dim
}

// The dispatch lives in `kselect`, shared with the top-k scan.
pub use kselect::dispatch::{active_kernel, avx2_available, avx512_available, Kernel};

/// Name of the dispatched kernel (`"avx512"` / `"avx2+fma"` /
/// `"scalar8"`).
pub fn dispatch_name() -> &'static str {
    active_kernel().name()
}

/// The dispatched row primitive: `out[j] = clamp_non_finite(‖q −
/// refs[r0 + j]‖²)` with hoisted norms, bit-identical on every kernel.
/// This is the single arithmetic entry point
/// [`crate::distance::block::fill_row_range`] routes through.
#[inline]
pub fn fill_rows(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` only returns a vector kernel when
        // `avx2_available()` confirmed both CPUID flags.
        Kernel::Avx512 | Kernel::Avx2 => unsafe {
            fill_rows_avx2(qp, norm_q, refs, ref_norms, r0, out)
        },
        _ => fill_rows_portable(qp, norm_q, refs, ref_norms, r0, out),
    }
}

/// [`fill_rows`] for one to [`QUAD`] queries against the same reference
/// range: `outs[b][j] = clamp_non_finite(‖qps[b] − refs[r0 + j]‖²)`,
/// every value bit-equal to the single-row fill. `pack` is the
/// AVX-512 kernel's query-pack area, at least [`pack_len`]`(dim)`
/// floats; its contents on entry and exit are unspecified.
///
/// # Panics
/// When `qps`, `norm_qs` and `outs` differ in length or hold no row or
/// more than [`QUAD`], the output rows differ in length, a query row is
/// not `refs.dim()` long, or `pack` is short.
#[inline]
pub fn fill_rows_quad(
    qps: &[&[f32]],
    norm_qs: &[f32],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: &mut [&mut [f32]],
    pack: &mut [f32],
) {
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` only returns `Avx512` when
        // `avx512_available()` confirmed its CPUID flags.
        Kernel::Avx512 => unsafe {
            fill_rows_quad_avx512(qps, norm_qs, refs, ref_norms, r0, outs, pack)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` only returns `Avx2` when
        // `avx2_available()` confirmed both CPUID flags.
        Kernel::Avx2 => unsafe {
            fill_rows_quad_avx2(qps, norm_qs, refs, ref_norms, r0, outs, pack)
        },
        _ => fill_rows_quad_portable(qps, norm_qs, refs, ref_norms, r0, outs, pack),
    }
}

/// The shape checks of [`fill_rows_quad`], shared by its bodies, so
/// that a call panics alike on every kernel.
fn check_quad(qps: &[&[f32]], norm_qs: &[f32], refs: &PointSet, outs: &[&mut [f32]], pack: &[f32]) {
    let m = qps.len();
    assert!((1..=QUAD).contains(&m), "a quad holds 1 to {QUAD} rows");
    assert!(norm_qs.len() == m && outs.len() == m, "quad shape mismatch");
    assert!(
        qps.iter().all(|q| q.len() == refs.dim()) && outs.iter().all(|o| o.len() == outs[0].len()),
        "row shape mismatch"
    );
    assert!(pack.len() >= pack_len(refs.dim()), "query pack too short");
}

/// The portable quad kernel: one [`fill_rows_portable`] call per row.
/// `pack` is only checked, as on every kernel.
///
/// # Panics
/// As [`fill_rows_quad`].
pub fn fill_rows_quad_portable(
    qps: &[&[f32]],
    norm_qs: &[f32],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: &mut [&mut [f32]],
    pack: &mut [f32],
) {
    check_quad(qps, norm_qs, refs, outs, pack);
    for ((qp, &norm_q), out) in qps.iter().zip(norm_qs).zip(outs) {
        fill_rows_portable(qp, norm_q, refs, ref_norms, r0, out);
    }
}

/// The portable row kernel: the 8-accumulator scalar [`dot`] per
/// reference. This is byte-for-byte the pre-SIMD `fill_row_range` body
/// and the bit-identity reference the vector kernels are tested against.
pub fn fill_rows_portable(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    for (j, o) in out.iter_mut().enumerate() {
        let r = r0 + j;
        let d = squared_distance_from_parts(norm_q, ref_norms[r], dot(qp, refs.point(r)));
        *o = clamp_non_finite(d);
    }
}

/// The AVX2 row kernel for one query: [`fill_block_avx2`] at `B = 1`.
///
/// # Safety
/// The host must support `avx2` and `fma` (check [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn fill_rows_avx2(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    fill_block_avx2::<1>([qp], [norm_q], refs, ref_norms, r0, [out]);
}

/// The AVX2 quad kernel: [`fill_block_avx2`] at `B = 2` per query pair,
/// at `B = 1` for an odd last row. `pack` is only checked, as on every
/// kernel.
///
/// # Safety
/// The host must support `avx2` and `fma` (check [`avx2_available`]).
///
/// # Panics
/// As [`fill_rows_quad`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn fill_rows_quad_avx2(
    qps: &[&[f32]],
    norm_qs: &[f32],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: &mut [&mut [f32]],
    pack: &mut [f32],
) {
    check_quad(qps, norm_qs, refs, outs, pack);
    for ((qs, ns), os) in qps.chunks(2).zip(norm_qs.chunks(2)).zip(outs.chunks_mut(2)) {
        match os {
            [oa, ob] => fill_block_avx2::<2>(
                [qs[0], qs[1]],
                [ns[0], ns[1]],
                refs,
                ref_norms,
                r0,
                [oa, ob],
            ),
            _ => fill_block_avx2::<1>([qs[0]], [ns[0]], refs, ref_norms, r0, [&mut *os[0]]),
        }
    }
}

/// The one AVX2 body: `B` query rows × four reference rows per pass,
/// one 256-bit accumulator chain per pair, exact scalar tail and reduce
/// tree. Every output row has `outs[0].len()` entries.
///
/// # Safety
/// The host must support `avx2` and `fma`.
///
/// # Panics
/// When a query row is not `refs.dim()` long, the output rows differ in
/// length, or `ref_norms` or `refs` end before the reference range does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fill_block_avx2<const B: usize>(
    qps: [&[f32]; B],
    norm_qs: [f32; B],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: [&mut [f32]; B],
) {
    use std::arch::x86_64::*;

    let dim = refs.dim();
    let chunks = dim / LANES;
    let tail0 = chunks * LANES;
    let len = outs[0].len();
    // The raw reads below rely on these: every query row spans `dim`,
    // every output row `len`, and the norms cover the reference range
    // (`refs.point` bounds-checks the reference rows themselves).
    assert!(r0 + len <= ref_norms.len(), "reference norms too short");
    let mut qptrs = [core::ptr::null::<f32>(); B];
    for b in 0..B {
        assert!(
            qps[b].len() == dim && outs[b].len() == len,
            "row shape mismatch"
        );
        qptrs[b] = qps[b].as_ptr();
    }

    let mut j = 0;
    // Register-blocked main loop: B query rows against four reference
    // rows. The 4·B accumulator chains are independent, so the f32-add
    // latency of one chain overlaps the others; each query chunk is
    // loaded once instead of four times and each reference chunk once
    // instead of B times. Within a chain the operation order is exactly
    // `dot`'s: mul, then add, chunk by chunk (two roundings — never a
    // fused multiply-add).
    while j + 4 <= len {
        let r = r0 + j;
        let ptrs = ref_ptrs4(refs, r);
        let mut acc = [[_mm256_setzero_ps(); 4]; B];
        for c in 0..chunks {
            let o = c * LANES;
            let vr = [
                _mm256_loadu_ps(ptrs[0].add(o)),
                _mm256_loadu_ps(ptrs[1].add(o)),
                _mm256_loadu_ps(ptrs[2].add(o)),
                _mm256_loadu_ps(ptrs[3].add(o)),
            ];
            for b in 0..B {
                let vq = _mm256_loadu_ps(qptrs[b].add(o));
                for i in 0..4 {
                    acc[b][i] = _mm256_add_ps(acc[b][i], _mm256_mul_ps(vq, vr[i]));
                }
            }
        }
        for b in 0..B {
            let (dots, q, norm_q) = (reduce4(acc[b]), qptrs[b], norm_qs[b]);
            finish4(
                dots,
                q,
                norm_q,
                ptrs,
                ref_norms,
                r,
                tail0,
                dim,
                &mut outs[b][j..j + 4],
            );
        }
        j += 4;
    }
    // Remaining references (fewer than four): one chain per pair, the
    // reference chunk still shared by the B queries — the per-pair
    // arithmetic is the same either way.
    while j < len {
        let r = r0 + j;
        let p = refs.point(r).as_ptr();
        let mut acc = [_mm256_setzero_ps(); B];
        for c in 0..chunks {
            let o = c * LANES;
            let vr = _mm256_loadu_ps(p.add(o));
            for b in 0..B {
                acc[b] = _mm256_add_ps(acc[b], _mm256_mul_ps(_mm256_loadu_ps(qptrs[b].add(o)), vr));
            }
        }
        for b in 0..B {
            let tail = tail_dot(qptrs[b], p, tail0, dim);
            let d = squared_distance_from_parts(norm_qs[b], ref_norms[r], hsum8(acc[b]) + tail);
            outs[b][j] = clamp_non_finite(d);
        }
        j += 1;
    }
}

/// The AVX-512 quad kernel: up to four query rows × four reference
/// rows per pass, the queries packed in pairs into `pack` (see the
/// module docs). Every value is bit-equal to [`fill_rows_portable`].
///
/// # Safety
/// The host must support `avx512f`, `avx512dq`, `avx2` and `fma` (check
/// [`avx512_available`]).
///
/// # Panics
/// As [`fill_rows_quad`], or when `ref_norms` or `refs` end before the
/// reference range does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
pub unsafe fn fill_rows_quad_avx512(
    qps: &[&[f32]],
    norm_qs: &[f32],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: &mut [&mut [f32]],
    pack: &mut [f32],
) {
    use std::arch::x86_64::*;

    check_quad(qps, norm_qs, refs, outs, pack);
    let m = qps.len();
    let dim = refs.dim();
    let chunks = dim / LANES;
    let tail0 = chunks * LANES;
    let len = outs[0].len();
    assert!(r0 + len <= ref_norms.len(), "reference norms too short");
    // Slot s holds query min(s, m − 1): an empty slot repeats the last
    // live query, and its row is never written.
    let slot = |s: usize| s.min(m - 1);
    let qptrs: [*const f32; QUAD] = core::array::from_fn(|s| qps[slot(s)].as_ptr());
    let norms: [f32; QUAD] = core::array::from_fn(|s| norm_qs[slot(s)]);
    // Chunk c of query pair p sits at 16·(2c + p): the low half from
    // slot 2p, the high half from slot 2p + 1.
    for c in 0..chunks {
        for s in 0..QUAD {
            let at = 16 * (2 * c + s / 2) + LANES * (s % 2);
            pack[at..at + LANES].copy_from_slice(&qps[slot(s)][c * LANES..(c + 1) * LANES]);
        }
    }
    let pk = pack.as_ptr();

    let mut j = 0;
    // Main loop: four references × two query pairs = 8 accumulators.
    // Lane l of half h of `acc[p][i]` is `dot`'s partial sum l for
    // query 2p + h and reference i, updated by mul then add per chunk.
    while j + 4 <= len {
        let r = r0 + j;
        let ptrs = ref_ptrs4(refs, r);
        let mut acc = [[_mm512_setzero_ps(); 4]; 2];
        for c in 0..chunks {
            let o = c * LANES;
            let vr = [
                _mm512_broadcast_f32x8(_mm256_loadu_ps(ptrs[0].add(o))),
                _mm512_broadcast_f32x8(_mm256_loadu_ps(ptrs[1].add(o))),
                _mm512_broadcast_f32x8(_mm256_loadu_ps(ptrs[2].add(o))),
                _mm512_broadcast_f32x8(_mm256_loadu_ps(ptrs[3].add(o))),
            ];
            for (p, acc) in acc.iter_mut().enumerate() {
                let vq = _mm512_loadu_ps(pk.add(16 * (2 * c + p)));
                for i in 0..4 {
                    acc[i] = _mm512_add_ps(acc[i], _mm512_mul_ps(vq, vr[i]));
                }
            }
        }
        for (p, acc) in acc.into_iter().enumerate().take(m.div_ceil(2)) {
            let dots = reduce_pairs4(acc);
            let (sa, sb) = (2 * p, 2 * p + 1);
            if tail0 == dim {
                // No scalar tail: finish both queries at once, lane for
                // lane `finish4`'s vector arm.
                let d = finish_pairs4(dots, norms[sa], norms[sb], &ref_norms[r..r + 4]);
                _mm_storeu_ps(outs[sa][j..j + 4].as_mut_ptr(), _mm512_castps512_ps128(d));
                if sb < m {
                    _mm_storeu_ps(
                        outs[sb][j..j + 4].as_mut_ptr(),
                        _mm512_extractf32x4_ps::<2>(d),
                    );
                }
            } else {
                for s in sa..(sb + 1).min(m) {
                    let dots = quarter(dots, s);
                    let out = &mut outs[s][j..j + 4];
                    finish4(
                        dots, qptrs[s], norms[s], ptrs, ref_norms, r, tail0, dim, out,
                    );
                }
            }
        }
        j += 4;
    }
    // Remaining references (fewer than four): one reference per pass,
    // its chunk still shared by the four slots.
    while j < len {
        let r = r0 + j;
        let p = refs.point(r).as_ptr();
        let mut acc = [_mm512_setzero_ps(); 2];
        for c in 0..chunks {
            let vr = _mm512_broadcast_f32x8(_mm256_loadu_ps(p.add(c * LANES)));
            for (pi, acc) in acc.iter_mut().enumerate() {
                let vq = _mm512_loadu_ps(pk.add(16 * (2 * c + pi)));
                *acc = _mm512_add_ps(*acc, _mm512_mul_ps(vq, vr));
            }
        }
        for s in 0..m {
            let tail = tail_dot(qptrs[s], p, tail0, dim);
            let dot = hsum8(half(acc[s / 2], s)) + tail;
            outs[s][j] = clamp_non_finite(squared_distance_from_parts(norms[s], ref_norms[r], dot));
        }
        j += 1;
    }
}

/// Slot `s`'s four tree sums from [`reduce_pairs4`]'s result for its
/// pair: 128-bit lane 0 for an even slot, lane 2 for an odd one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn quarter(v: std::arch::x86_64::__m512, s: usize) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    if s.is_multiple_of(2) {
        _mm512_castps512_ps128(v)
    } else {
        _mm512_extractf32x4_ps::<2>(v)
    }
}

/// The 256-bit half of a query-pair accumulator that belongs to slot
/// `s`: the low half for an even slot, the high half for an odd one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
unsafe fn half(v: std::arch::x86_64::__m512, s: usize) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    if s.is_multiple_of(2) {
        _mm512_castps512_ps256(v)
    } else {
        _mm512_extractf32x8_ps::<1>(v)
    }
}

/// Row pointers of references `r..r + 4`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ref_ptrs4(refs: &PointSet, r: usize) -> [*const f32; 4] {
    [
        refs.point(r).as_ptr(),
        refs.point(r + 1).as_ptr(),
        refs.point(r + 2).as_ptr(),
        refs.point(r + 3).as_ptr(),
    ]
}

/// Reduce one query's four 8-lane accumulators (references `r..r + 4`)
/// with `dot`'s exact tree: lane i of the result is reference i's
/// tree sum.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn reduce4(acc: [std::arch::x86_64::__m256; 4]) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;

    let [a0, a1, a2, a3] = acc;
    // Transposed reduce of the four accumulators, each lane following
    // `dot`'s exact pairwise tree. `hadd` pairs adjacent lanes, which
    // *is* the tree's level: l_i = [a01, a23, a45, a67] for ref i, then
    // x = [b01_0, b23_0, b01_1, b23_1] (and y likewise for refs 2/3)
    // where b01 = a01 + a23, b23 = a45 + a67, so `even + odd` performs
    // the root add per ref.
    let l0 = _mm_hadd_ps(_mm256_castps256_ps128(a0), _mm256_extractf128_ps(a0, 1));
    let l1 = _mm_hadd_ps(_mm256_castps256_ps128(a1), _mm256_extractf128_ps(a1, 1));
    let l2 = _mm_hadd_ps(_mm256_castps256_ps128(a2), _mm256_extractf128_ps(a2, 1));
    let l3 = _mm_hadd_ps(_mm256_castps256_ps128(a3), _mm256_extractf128_ps(a3, 1));
    let x = _mm_hadd_ps(l0, l1);
    let y = _mm_hadd_ps(l2, l3);
    let even = _mm_shuffle_ps::<0b10_00_10_00>(x, y); // [b01_0..3]
    let odd = _mm_shuffle_ps::<0b11_01_11_01>(x, y); // [b23_0..3]
    _mm_add_ps(even, odd)
}

/// [`reduce4`] for a query pair at once: `acc[i]` holds reference i's
/// chains of two queries, one per 256-bit half. The result's 128-bit
/// lanes 0 and 1 hold the low half's four tree sums, lanes 2 and 3 the
/// high half's. Every add pairs the same two values as `dot`'s tree
/// (f32 addition is commutative, so operand order cannot change a
/// finite sum, and a NaN sum clamps to +∞ either way).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn reduce_pairs4(acc: [std::arch::x86_64::__m512; 4]) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;

    // `hadd` within each 128-bit lane: [a0 + a1, a2 + a3, b0 + b1, b2 + b3].
    #[inline(always)]
    unsafe fn hadd(a: __m512, b: __m512) -> __m512 {
        _mm512_add_ps(
            _mm512_shuffle_ps::<0b10_00_10_00>(a, b),
            _mm512_shuffle_ps::<0b11_01_11_01>(a, b),
        )
    }
    let [a0, a1, a2, a3] = acc;
    // Lane 0 of a query now holds its b01 = a01 + a23 for refs 0..3,
    // lane 1 its b23 = a45 + a67; adding the swapped lanes is the root.
    let b = hadd(hadd(a0, a1), hadd(a2, a3));
    _mm512_add_ps(b, _mm512_shuffle_f32x4::<0b10_11_00_01>(b, b))
}

/// `finish4`'s vector arm (no scalar tail) for a query pair: `dots` as
/// [`reduce_pairs4`] returns it, `norm_a`/`norm_b` the norms of its low
/// and high query, `ref_norms` the four references' norms. The result's
/// 128-bit lane 0 holds the low query's four distances, lane 2 the high
/// query's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
unsafe fn finish_pairs4(
    dots: std::arch::x86_64::__m512,
    norm_a: f32,
    norm_b: f32,
    ref_norms: &[f32],
) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;

    let norm_q = _mm512_insertf32x8::<1>(_mm512_set1_ps(norm_a), _mm256_set1_ps(norm_b));
    let norm_r = _mm512_broadcast_f32x4(_mm_loadu_ps(ref_norms[..4].as_ptr()));
    let raw = _mm512_sub_ps(
        _mm512_add_ps(norm_q, norm_r),
        _mm512_mul_ps(_mm512_set1_ps(2.0), dots),
    );
    let d = _mm512_max_ps(_mm512_setzero_ps(), raw);
    let inf = _mm512_set1_ps(f32::INFINITY);
    _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(d, inf), inf, d)
}

/// Finish four pairs of one query against references `r..r + 4` from
/// their tree sums `dots`: add the scalar tail, assemble the distance
/// from the norms, clamp, and write the four values to `out`.
///
/// # Safety
/// The host must support `avx2` and `fma`; `q` and every `ptrs[i]` span
/// `dim` floats and `ref_norms` covers `r..r + 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn finish4(
    dots: std::arch::x86_64::__m128,
    q: *const f32,
    norm_q: f32,
    ptrs: [*const f32; 4],
    ref_norms: &[f32],
    r: usize,
    tail0: usize,
    dim: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;

    if tail0 == dim {
        // No scalar tail: finish all four pairs in vector registers
        // with the scalar path's exact expression shape — `(norm_q +
        // norm_r) - 2·dot`, negative-clamp, then the non-finite map.
        // `max(0, raw)` matches `if raw < 0.0 { 0.0 }` bitwise: maxps
        // returns the second operand on NaN and on ±0 equality, i.e.
        // `raw` itself in both cases, exactly like the scalar branch.
        // The ordered `d < ∞` compare is false for NaN and +∞, selecting
        // the scalar clamp's `+∞` arm.
        let sums = _mm_add_ps(
            _mm_set1_ps(norm_q),
            _mm_loadu_ps(ref_norms[r..r + 4].as_ptr()),
        );
        let raw = _mm_sub_ps(sums, _mm_mul_ps(_mm_set1_ps(2.0), dots));
        let d = _mm_max_ps(_mm_setzero_ps(), raw);
        let inf = _mm_set1_ps(f32::INFINITY);
        let finite = _mm_cmp_ps::<_CMP_LT_OQ>(d, inf);
        let clamped = _mm_blendv_ps(inf, d, finite);
        _mm_storeu_ps(out[..4].as_mut_ptr(), clamped);
    } else {
        finish4_tail(dots, q, norm_q, ptrs, ref_norms, r, tail0, dim, out);
    }
}

/// `finish4`'s scalar arm, for dimensions that leave a tail. Out of
/// line, so that the vector arm inlines into the kernels' loops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
unsafe fn finish4_tail(
    dots: std::arch::x86_64::__m128,
    q: *const f32,
    norm_q: f32,
    ptrs: [*const f32; 4],
    ref_norms: &[f32],
    r: usize,
    tail0: usize,
    dim: usize,
    out: &mut [f32],
) {
    let mut dot4 = [0.0f32; 4];
    std::arch::x86_64::_mm_storeu_ps(dot4.as_mut_ptr(), dots);
    for (i, (tree_sum, p)) in dot4.into_iter().zip(ptrs).enumerate() {
        let tail = tail_dot(q, p, tail0, dim);
        let d = squared_distance_from_parts(norm_q, ref_norms[r + i], tree_sum + tail);
        out[i] = clamp_non_finite(d);
    }
}

/// `dot`'s sequential scalar tail over dimensions `tail0..dim`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tail_dot(q: *const f32, p: *const f32, tail0: usize, dim: usize) -> f32 {
    let mut tail = 0.0f32;
    for t in tail0..dim {
        tail += *q.add(t) * *p.add(t);
    }
    tail
}

/// Horizontal sum of an 8-lane accumulator with `dot`'s exact pairwise
/// tree: `b = [a0+a1, a2+a3, a4+a5, a6+a7]`, then `(b0+b1) + (b2+b3)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn hsum8(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    // hadd pairs adjacent lanes: exactly the tree's first level.
    let b = _mm_hadd_ps(lo, hi);
    // second level: [b0+b1, b2+b3, b0+b1, b2+b3]
    let c = _mm_hadd_ps(b, b);
    // root: (b0+b1) + (b2+b3)
    _mm_cvtss_f32(_mm_add_ss(c, _mm_movehdup_ps(c)))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::block;
    use crate::distance::squared_distance;

    fn expected(qp: &[f32], refs: &PointSet, r0: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|j| clamp_non_finite(squared_distance(qp, refs.point(r0 + j))))
            .collect()
    }

    #[test]
    fn dispatch_name_is_stable() {
        let k = active_kernel();
        assert_eq!(dispatch_name(), k.name());
        assert_eq!(Kernel::Avx512.name(), "avx512");
        assert_eq!(Kernel::Avx2.name(), "avx2+fma");
        assert_eq!(Kernel::Scalar8.name(), "scalar8");
        match k {
            Kernel::Avx512 => assert!(avx512_available() && avx2_available()),
            Kernel::Avx2 => assert!(avx2_available() && !avx512_available()),
            Kernel::Scalar8 => {}
        }
    }

    #[test]
    fn portable_rows_equal_scalar_reference_bitwise() {
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let qs = PointSet::uniform(3, dim, 21);
            let rs = PointSet::uniform(41, dim, 22);
            let ref_norms = block::norms(&rs);
            for (r0, len) in [(0usize, 41usize), (5, 13), (40, 1)] {
                let qp = qs.point(1);
                let mut out = vec![0.0f32; len];
                fill_rows_portable(
                    qp,
                    super::super::squared_norm(qp),
                    &rs,
                    &ref_norms,
                    r0,
                    &mut out,
                );
                let want = expected(qp, &rs, r0, len);
                for (got, want) in out.iter().zip(&want) {
                    assert_eq!(got.to_bits(), want.to_bits(), "dim {dim} r0 {r0} len {len}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_rows_equal_scalar_reference_bitwise() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        // Dims straddling the 8-lane chunk edge, row lengths straddling
        // the 4-reference register block (remainders 0..3).
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let qs = PointSet::uniform(2, dim, 31);
            let rs = PointSet::uniform(23, dim, 32);
            let ref_norms = block::norms(&rs);
            for len in [1usize, 2, 3, 4, 5, 7, 8, 23] {
                let qp = qs.point(0);
                let mut out = vec![0.0f32; len];
                // SAFETY: gated on avx2_available above.
                unsafe {
                    fill_rows_avx2(
                        qp,
                        super::super::squared_norm(qp),
                        &rs,
                        &ref_norms,
                        0,
                        &mut out,
                    );
                }
                let want = expected(qp, &rs, 0, len);
                for (ri, (got, want)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "dim {dim} len {len} ref {ri}: avx2 {got} vs scalar {want}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_clamps_non_finite_like_the_scalar_path() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        let dim = 16;
        let qs = PointSet::uniform(1, dim, 33);
        let mut flat = PointSet::uniform(9, dim, 34).as_flat().to_vec();
        flat[3 * dim] = f32::MAX; // ‖r‖² overflows → +inf → clamp
        flat[6 * dim + 2] = f32::MAX;
        let rs = PointSet::from_flat(flat, dim);
        let ref_norms = block::norms(&rs);
        let qp = qs.point(0);
        let mut out = vec![0.0f32; rs.len()];
        // SAFETY: gated on avx2_available above.
        unsafe {
            fill_rows_avx2(
                qp,
                super::super::squared_norm(qp),
                &rs,
                &ref_norms,
                0,
                &mut out,
            );
        }
        let want = expected(qp, &rs, 0, rs.len());
        assert_eq!(out[3], f32::INFINITY);
        assert_eq!(out[6], f32::INFINITY);
        for (got, want) in out.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// A quad-kernel entry: `fill_rows_quad` or one of its bodies.
    type QuadFill = fn(&[&[f32]], &[f32], &PointSet, &[f32], usize, &mut [&mut [f32]], &mut [f32]);

    /// The query slots each quad check fills, as indices into a query
    /// set whose point 4 is an `f32::MAX` query (‖q‖² overflows, so its
    /// whole row clamps to +∞): four distinct queries, the `f32::MAX`
    /// query in each of the four slots, one point four times, and 1, 2
    /// and 3 live rows (with and without the `f32::MAX` query).
    const QUADS: &[&[usize]] = &[
        &[0, 1, 2, 3],
        &[4, 1, 2, 3],
        &[0, 4, 2, 3],
        &[0, 1, 4, 3],
        &[0, 1, 2, 4],
        &[1, 1, 1, 1],
        &[2],
        &[4],
        &[3, 0],
        &[1, 4],
        &[2, 3, 1],
        &[0, 1, 4],
    ];

    /// Checks `fill` against the scalar reference for every row of
    /// every quad in [`QUADS`]: dims straddling the 8-lane chunk edge,
    /// row lengths straddling the 4-reference register block
    /// (remainders 0..3) and two row offsets. The pack starts as NaN,
    /// so a kernel that reads a lane it did not pack shows.
    fn assert_quads_equal_scalar_reference(fill: QuadFill, kernel: &str) {
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let mut flat = PointSet::uniform(5, dim, 37).as_flat().to_vec();
            flat[4 * dim] = f32::MAX;
            let qs = PointSet::from_flat(flat, dim);
            let rs = PointSet::uniform(28, dim, 38);
            let ref_norms = block::norms(&rs);
            for &quad in QUADS {
                let qps: Vec<&[f32]> = quad.iter().map(|&q| qs.point(q)).collect();
                let norms: Vec<f32> = qps.iter().map(|q| super::super::squared_norm(q)).collect();
                for r0 in [0usize, 5] {
                    for len in [1usize, 2, 3, 4, 5, 7, 8, 23] {
                        let mut rows = vec![vec![-1.0f32; len]; quad.len()];
                        let mut outs: Vec<&mut [f32]> =
                            rows.iter_mut().map(|r| &mut r[..]).collect();
                        let mut pack = vec![f32::NAN; pack_len(dim)];
                        fill(&qps, &norms, &rs, &ref_norms, r0, &mut outs, &mut pack);
                        for (slot, (qp, out)) in qps.iter().zip(&rows).enumerate() {
                            let want = expected(qp, &rs, r0, len);
                            for (ri, (got, want)) in out.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{kernel}: dim {dim} quad {quad:?} slot {slot} \
                                     r0 {r0} len {len} ref {ri}: {got} vs {want}"
                                );
                            }
                            if quad[slot] == 4 {
                                assert!(out.iter().all(|&d| d == f32::INFINITY), "{kernel}");
                            }
                        }
                        if quad.iter().all(|&q| q == quad[0]) {
                            assert!(rows.iter().all(|r| r == &rows[0]), "{kernel}: one point");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_quads_equal_scalar_reference_bitwise() {
        assert_quads_equal_scalar_reference(fill_rows_quad_portable, "portable");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_quads_equal_scalar_reference_bitwise() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        // SAFETY: gated on avx2_available above.
        assert_quads_equal_scalar_reference(
            |qps, norms, rs, ref_norms, r0, outs, pack| unsafe {
                fill_rows_quad_avx2(qps, norms, rs, ref_norms, r0, outs, pack)
            },
            "avx2",
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_quads_equal_scalar_reference_bitwise() {
        if !avx512_available() {
            eprintln!("skipping: host lacks avx512f+avx512dq (or avx2+fma)");
            return;
        }
        // SAFETY: gated on avx512_available above.
        assert_quads_equal_scalar_reference(
            |qps, norms, rs, ref_norms, r0, outs, pack| unsafe {
                fill_rows_quad_avx512(qps, norms, rs, ref_norms, r0, outs, pack)
            },
            "avx512",
        );
    }

    #[test]
    fn dispatched_quads_equal_scalar_reference_bitwise() {
        assert_quads_equal_scalar_reference(fill_rows_quad, dispatch_name());
    }

    #[test]
    #[should_panic(expected = "query pack too short")]
    fn a_short_pack_is_refused_on_every_kernel() {
        let (qs, rs) = (PointSet::uniform(2, 9, 1), PointSet::uniform(5, 9, 2));
        let (mut a, mut b) = ([0.0f32; 5], [0.0f32; 5]);
        fill_rows_quad(
            &[qs.point(0), qs.point(1)],
            &[0.0, 0.0],
            &rs,
            &block::norms(&rs),
            0,
            &mut [&mut a, &mut b],
            &mut [0.0; 35],
        );
    }

    #[test]
    fn dispatched_rows_equal_scalar_reference_bitwise() {
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let qs = PointSet::uniform(1, dim, 35);
            let rs = PointSet::uniform(19, dim, 36);
            let ref_norms = block::norms(&rs);
            let qp = qs.point(0);
            let mut out = vec![0.0f32; rs.len()];
            fill_rows(
                qp,
                super::super::squared_norm(qp),
                &rs,
                &ref_norms,
                0,
                &mut out,
            );
            let want = expected(qp, &rs, 0, rs.len());
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "dim {dim}");
            }
        }
    }
}
