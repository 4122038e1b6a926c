//! Runtime-dispatched SIMD microkernels for the distance row primitive.
//!
//! The tile inner loop — ‖q‖² + ‖r‖² − 2·q·r per (query, reference)
//! pair — spends all of its time in [`crate::distance::dot`]. That
//! function's contract fixes the accumulation order: [`LANES`]
//! independent partial sums (`acc[l] += a[l] * b[l]` per 8-wide chunk),
//! a sequential scalar tail, and a fixed-shape pairwise reduce tree.
//! This module provides two implementations of the *row* primitive that
//! reproduce those bits exactly and picks between them at runtime:
//!
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
//! # The 2 × 4 block
//!
//! One const-generic body, `fill_block_avx2::<B>`, serves both entries:
//! [`fill_rows`] is `B = 1` (one query × four references, four ymm
//! accumulators) and [`fill_rows_pair`] is `B = 2` (eight accumulators
//! plus four reference loads per 8-lane chunk, which fits the 16 ymm
//! registers). The reduce, clamp and tail code exists once. With one
//! query per pass a streamed worker reads its whole reference tile
//! (2048 × 128 × 4 B = 1 MiB) from L2 once per query; the pair halves
//! that traffic.
//!
//! `B = 2` is measured, not guessed. On `knnbench --workload batch-k32`
//! (2-vCPU x86-64 VM with AVX2, 10 alternating 45 s runs each), pairing
//! raised the streamed call from a median 3501 to 4074 q/s. A prototype
//! on a 2-vCPU Xeon (48 KiB L1d, 2 MiB L2 per core) also tried 3 × 4
//! and 4 × 4 blocks: 3650–3870 and 3410–3760 q/s against 3790–3860 for
//! 2 × 4 in the same rounds, so no faster, for 2–3× the extra scratch
//! rows. `B` is a fixed constant, not a tuning knob.
//!
//! # Why not `_mm256_fmadd_ps`?
//!
//! The dispatch gate requires the `fma` CPUID flag (every AVX2 part
//! ships it, and enabling it lets LLVM schedule the loop for FMA-class
//! ports), but the kernel deliberately issues separate `mul` + `add`:
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
//! compare the two paths on the same machine).

use super::{clamp_non_finite, dot, squared_distance_from_parts, LANES};
use crate::dataset::PointSet;

/// One of the row-kernel implementations this module can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// 256-bit AVX2 kernel, register-blocked over one or two query rows
    /// × four reference rows.
    Avx2,
    /// Portable 8-accumulator scalar kernel.
    Scalar8,
}

impl Kernel {
    /// Stable name reported by the CLI and recorded in
    /// `BENCH_native.json` (`simd_dispatch`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2+fma",
            Kernel::Scalar8 => "scalar8",
        }
    }
}

/// Whether the host CPU supports the AVX2 kernel (requires both the
/// `avx2` and `fma` CPUID flags — see the module docs for why `fma` is
/// gated on but never used for the accumulation itself).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel every dispatched row fill in this process uses, decided
/// once: `KNN_SIMD=scalar` forces [`Kernel::Scalar8`], otherwise the
/// CPUID probe picks the fastest supported implementation.
pub fn active_kernel() -> Kernel {
    static ACTIVE: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("KNN_SIMD").is_some_and(|v| v == "scalar" || v == "scalar8");
        if !forced_scalar && avx2_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar8
        }
    })
}

/// Name of the dispatched kernel (`"avx2+fma"` / `"scalar8"`).
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
        // SAFETY: `active_kernel` only returns `Avx2` when
        // `avx2_available()` confirmed both CPUID flags.
        Kernel::Avx2 => unsafe { fill_rows_avx2(qp, norm_q, refs, ref_norms, r0, out) },
        _ => fill_rows_portable(qp, norm_q, refs, ref_norms, r0, out),
    }
}

/// [`fill_rows`] for two queries at once: `outs[b][j] =
/// clamp_non_finite(‖qps[b] − refs[r0 + j]‖²)`, every value bit-equal to
/// the single-row fill. On the AVX2 kernel each reference chunk is
/// loaded once for both queries; the portable kernel fills the rows one
/// after the other.
///
/// # Panics
/// When the two output rows differ in length.
#[inline]
pub fn fill_rows_pair(
    qps: [&[f32]; 2],
    norm_qs: [f32; 2],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: [&mut [f32]; 2],
) {
    assert_eq!(outs[0].len(), outs[1].len(), "pair rows differ in length");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` only returns `Avx2` when
        // `avx2_available()` confirmed both CPUID flags.
        Kernel::Avx2 => unsafe { fill_rows_pair_avx2(qps, norm_qs, refs, ref_norms, r0, outs) },
        _ => fill_rows_pair_portable(qps, norm_qs, refs, ref_norms, r0, outs),
    }
}

/// The portable pair kernel: two [`fill_rows_portable`] calls.
pub fn fill_rows_pair_portable(
    qps: [&[f32]; 2],
    norm_qs: [f32; 2],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: [&mut [f32]; 2],
) {
    let [o0, o1] = outs;
    fill_rows_portable(qps[0], norm_qs[0], refs, ref_norms, r0, o0);
    fill_rows_portable(qps[1], norm_qs[1], refs, ref_norms, r0, o1);
}

/// The portable row kernel: the 8-accumulator scalar [`dot`] per
/// reference. This is byte-for-byte the pre-SIMD `fill_row_range` body
/// and the bit-identity reference the vector kernel is tested against.
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

/// The AVX2 row kernel for two queries: [`fill_block_avx2`] at `B = 2`.
///
/// # Safety
/// The host must support `avx2` and `fma` (check [`avx2_available`]).
///
/// # Panics
/// When the output rows differ in length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn fill_rows_pair_avx2(
    qps: [&[f32]; 2],
    norm_qs: [f32; 2],
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    outs: [&mut [f32]; 2],
) {
    fill_block_avx2::<2>(qps, norm_qs, refs, ref_norms, r0, outs);
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
        let ptrs = [
            refs.point(r).as_ptr(),
            refs.point(r + 1).as_ptr(),
            refs.point(r + 2).as_ptr(),
            refs.point(r + 3).as_ptr(),
        ];
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
            let [a0, a1, a2, a3] = acc[b];
            // Transposed reduce of one query's four accumulators, each
            // lane following `dot`'s exact pairwise tree. `hadd` pairs
            // adjacent lanes, which *is* the tree's level: l_i = [a01,
            // a23, a45, a67] for ref i, then x = [b01_0, b23_0, b01_1,
            // b23_1] (and y likewise for refs 2/3) where b01 = a01 +
            // a23, b23 = a45 + a67, so `even + odd` performs the root
            // add per ref.
            let l0 = _mm_hadd_ps(_mm256_castps256_ps128(a0), _mm256_extractf128_ps(a0, 1));
            let l1 = _mm_hadd_ps(_mm256_castps256_ps128(a1), _mm256_extractf128_ps(a1, 1));
            let l2 = _mm_hadd_ps(_mm256_castps256_ps128(a2), _mm256_extractf128_ps(a2, 1));
            let l3 = _mm_hadd_ps(_mm256_castps256_ps128(a3), _mm256_extractf128_ps(a3, 1));
            let x = _mm_hadd_ps(l0, l1);
            let y = _mm_hadd_ps(l2, l3);
            let even = _mm_shuffle_ps::<0b10_00_10_00>(x, y); // [b01_0..3]
            let odd = _mm_shuffle_ps::<0b11_01_11_01>(x, y); // [b23_0..3]
            let dots = _mm_add_ps(even, odd);
            let out = &mut *outs[b];
            if tail0 == dim {
                // No scalar tail: finish all four pairs in vector
                // registers with the scalar path's exact expression
                // shape — `(norm_q + norm_r) - 2·dot`, negative-clamp,
                // then the non-finite map. `max(0, raw)` matches `if raw
                // < 0.0 { 0.0 }` bitwise: maxps returns the second
                // operand on NaN and on ±0 equality, i.e. `raw` itself in
                // both cases, exactly like the scalar branch. The ordered
                // `d < ∞` compare is false for NaN and +∞, selecting the
                // scalar clamp's `+∞` arm.
                let sums = _mm_add_ps(
                    _mm_set1_ps(norm_qs[b]),
                    _mm_loadu_ps(ref_norms.as_ptr().add(r)),
                );
                let raw = _mm_sub_ps(sums, _mm_mul_ps(_mm_set1_ps(2.0), dots));
                let d = _mm_max_ps(_mm_setzero_ps(), raw);
                let inf = _mm_set1_ps(f32::INFINITY);
                let finite = _mm_cmp_ps::<_CMP_LT_OQ>(d, inf);
                let clamped = _mm_blendv_ps(inf, d, finite);
                _mm_storeu_ps(out.as_mut_ptr().add(j), clamped);
            } else {
                let mut dot4 = [0.0f32; 4];
                _mm_storeu_ps(dot4.as_mut_ptr(), dots);
                for (i, (tree_sum, p)) in dot4.into_iter().zip(ptrs).enumerate() {
                    let tail = tail_dot(qptrs[b], p, tail0, dim);
                    let d =
                        squared_distance_from_parts(norm_qs[b], ref_norms[r + i], tree_sum + tail);
                    out[j + i] = clamp_non_finite(d);
                }
            }
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
        assert!(matches!(k, Kernel::Avx2 | Kernel::Scalar8));
        assert_eq!(dispatch_name(), k.name());
        assert_eq!(Kernel::Avx2.name(), "avx2+fma");
        assert_eq!(Kernel::Scalar8.name(), "scalar8");
        if k == Kernel::Avx2 {
            assert!(avx2_available());
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

    /// A pair-kernel entry: `fill_rows_pair` or one of its bodies.
    type PairFill = fn([&[f32]; 2], [f32; 2], &PointSet, &[f32], usize, [&mut [f32]; 2]);

    /// Checks `fill` against the scalar reference for every pair: dims
    /// straddling the 8-lane chunk edge, row lengths straddling the
    /// 4-reference register block (remainders 0..3), two row offsets,
    /// an `f32::MAX` query (‖q‖² overflows, so its whole row clamps to
    /// +∞) in either slot of the pair, and a pair of one point twice.
    fn assert_pairs_equal_scalar_reference(fill: PairFill, kernel: &str) {
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let mut flat = PointSet::uniform(3, dim, 37).as_flat().to_vec();
            flat[2 * dim] = f32::MAX;
            let qs = PointSet::from_flat(flat, dim);
            let rs = PointSet::uniform(28, dim, 38);
            let ref_norms = block::norms(&rs);
            for (a, b) in [(0usize, 1usize), (0, 2), (2, 0), (1, 1)] {
                let qps = [qs.point(a), qs.point(b)];
                let norms = qps.map(super::super::squared_norm);
                for r0 in [0usize, 5] {
                    for len in [1usize, 2, 3, 4, 5, 7, 8, 23] {
                        let (mut o0, mut o1) = (vec![0.0f32; len], vec![0.0f32; len]);
                        fill(qps, norms, &rs, &ref_norms, r0, [&mut o0, &mut o1]);
                        for (slot, (qp, out)) in qps.iter().zip([&o0, &o1]).enumerate() {
                            let want = expected(qp, &rs, r0, len);
                            for (ri, (got, want)) in out.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{kernel}: dim {dim} pair ({a}, {b}) slot {slot} \
                                     r0 {r0} len {len} ref {ri}: {got} vs {want}"
                                );
                            }
                        }
                        let max_row = [(a, &o0), (b, &o1)].into_iter().find(|&(q, _)| q == 2);
                        if let Some((_, row)) = max_row {
                            assert!(row.iter().all(|&d| d == f32::INFINITY), "{kernel}");
                        }
                        if a == b {
                            assert_eq!(o0, o1, "{kernel}: one point twice");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_pairs_equal_scalar_reference_bitwise() {
        assert_pairs_equal_scalar_reference(fill_rows_pair_portable, "portable");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pairs_equal_scalar_reference_bitwise() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        // SAFETY: gated on avx2_available above.
        assert_pairs_equal_scalar_reference(
            |qps, norms, rs, ref_norms, r0, outs| unsafe {
                fill_rows_pair_avx2(qps, norms, rs, ref_norms, r0, outs)
            },
            "avx2",
        );
    }

    #[test]
    fn dispatched_pairs_equal_scalar_reference_bitwise() {
        assert_pairs_equal_scalar_reference(fill_rows_pair, dispatch_name());
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
