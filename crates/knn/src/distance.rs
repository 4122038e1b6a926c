//! Euclidean distance computation — the phase that precedes k-selection.
//!
//! Three forms:
//!
//! * [`block`] — the blocked, flat, GEMM-style host kernel
//!   ([`block::squared_distances`]) every real pipeline uses: norms
//!   computed once, tiled inner products over cache-sized blocks, flat
//!   row-major output. Returns *squared* distances: the square root is
//!   monotone, so k-NN ranks are unchanged and the paper's brute-force
//!   baseline (Garcia et al. \[3\]) does the same.
//! * [`simd`] — runtime-dispatched SIMD microkernels for the row
//!   primitive the blocked kernel is built from: an AVX-512 kernel
//!   that fills four query rows × four reference rows per pass (picked
//!   when the host supports `avx512f`+`avx512dq`), an AVX2 kernel
//!   register-blocked over one or two query rows × four reference rows
//!   (`avx2`+`fma`), and the portable 8-accumulator scalar kernel as
//!   fallback. All reproduce [`dot`]'s accumulation order bit for bit —
//!   see that module for why an actual fused multiply-add is
//!   deliberately *not* issued.
//! * [`distance_matrix`] — the legacy heap-of-rows interface, now a thin
//!   wrapper over the blocked kernel kept for downstream compatibility.
//! * [`gpu_distance_metrics`] — an *analytic* metrics model of the
//!   distance kernel on the simulated device. Simulating Q·N·dim
//!   multiply-adds element-by-element would be pointless (it's a dense
//!   GEMM-like kernel with no divergence); instead we charge its issue
//!   slots and tiled memory traffic directly. Calibration: at the paper's
//!   N = 2^15, Q = 2^13, dim = 128 the model yields ≈ 0.13 s on the C2075
//!   versus the paper's measured 0.14 s ("Distance Calculation on GPU",
//!   Table I).
//!
//! # Numerics
//!
//! [`squared_distance`] uses the FAISS decomposition
//! ‖q−r‖² = ‖q‖² + ‖r‖² − 2·q·r (Johnson et al., *Billion-scale
//! similarity search with GPUs*), with each reduction accumulated over
//! [`LANES`] independent partial sums folded by a fixed-shape tree. That
//! accumulation order is part of the function's contract: the blocked
//! kernel hoists the norms out of the pair loop and reproduces the
//! per-pair arithmetic *bit for bit* (a property test enforces this), so
//! every path — scalar, blocked, tile-streamed — returns identical
//! floats. Cancellation can drive the decomposition a few ulp below
//! zero for near-identical points; the result is clamped to `max(0, ·)`
//! (NaN from non-finite inputs is preserved for [`clamp_non_finite`]).

pub mod block;
pub mod simd;

use simt::Metrics;

use crate::dataset::PointSet;

/// Number of independent accumulators in the reduction kernels below.
/// Eight f32 lanes give the autovectorizer a full 256-bit vector (or two
/// 128-bit chains) with no loop-carried dependence on the critical path.
pub const LANES: usize = 8;

/// Inner product of two equal-length vectors, accumulated over
/// [`LANES`] partial sums folded pairwise. This exact operation order is
/// shared by every distance path in the crate.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let chunks = a.chunks_exact(LANES);
    let tail_a = chunks.remainder();
    let tail_b = &b[a.len() - tail_a.len()..];
    for (ca, cb) in chunks.zip(b.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in tail_a.iter().zip(tail_b) {
        tail += x * y;
    }
    // Fixed-shape pairwise tree so the result is deterministic.
    let a01 = acc[0] + acc[1];
    let a23 = acc[2] + acc[3];
    let a45 = acc[4] + acc[5];
    let a67 = acc[6] + acc[7];
    ((a01 + a23) + (a45 + a67)) + tail
}

/// Squared L2 norm ‖a‖² with the same accumulation order as [`dot`].
#[inline]
pub fn squared_norm(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Assemble ‖q−r‖² from precomputed parts: ‖q‖² + ‖r‖² − 2·q·r, clamped
/// at zero (cancellation on near-identical points can land a few ulp
/// negative, which would break non-negativity assumptions downstream —
/// e.g. the radix-select baselines' float bit tricks). NaN (from
/// non-finite inputs) passes through for [`clamp_non_finite`] to map.
#[inline]
pub fn squared_distance_from_parts(norm_q: f32, norm_r: f32, dot_qr: f32) -> f32 {
    let raw = norm_q + norm_r - 2.0 * dot_qr;
    if raw < 0.0 {
        0.0
    } else {
        raw
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// Computed as ‖a‖² + ‖b‖² − 2·a·b (see the module docs for why, and for
/// the bit-exactness contract with the blocked kernel).
#[inline]
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    squared_distance_from_parts(squared_norm(a), squared_norm(b), dot(a, b))
}

/// The pipeline's NaN/Inf policy: a non-finite distance (overflow, or a
/// NaN leaking past input validation) is mapped to `+∞`, which every
/// queue's `d < qmax` guard rejects — so a poisoned pair sorts last and
/// can never displace a genuine neighbor from the top-k. Identity on
/// finite values, so fault-free results are bit-for-bit unaffected.
#[inline]
pub fn clamp_non_finite(d: f32) -> f32 {
    if d.is_finite() {
        d
    } else {
        f32::INFINITY
    }
}

/// Compute the full distance matrix as per-query rows: `rows[q][r]` is
/// the squared distance between query `q` and reference `r`.
///
/// Legacy interface: the heap-of-rows return type costs one allocation
/// per query on top of the flat kernel output. New code should call
/// [`block::squared_distances`] and keep the flat [`block::FlatMatrix`]
/// (`cargo xtask lint`'s `no-row-alloc` rule flags new `Vec<Vec<f32>>`
/// distance buffers in this crate's hot paths).
pub fn distance_matrix(queries: &PointSet, refs: &PointSet) -> Vec<Vec<f32>> {
    block::squared_distances(queries, refs).to_rows()
}

/// Analytic execution metrics of the brute-force distance kernel on the
/// simulated GPU: one fused multiply-add pair per dimension per
/// (query, reference) pair, with shared-memory tiling (tile = 32) for the
/// operand traffic.
pub fn gpu_distance_metrics(q: usize, n: usize, dim: usize) -> Metrics {
    const TILE: u64 = 32;
    let pairs = q as u64 * n as u64;
    // sub + fma per dimension, warp-wide (32 lanes per issue slot).
    let lane_instr = pairs * dim as u64 * 2;
    let issued = lane_instr / 32;
    // Tiled operand traffic: each query row is re-read N/TILE times and
    // each reference row Q/TILE times.
    let bytes = (q as u64 * dim as u64 * 4) * (n as u64).div_ceil(TILE)
        + (n as u64 * dim as u64 * 4) * (q as u64).div_ceil(TILE)
        // result write-back
        + pairs * 4;
    Metrics {
        issued,
        lane_work: lane_instr,
        global_transactions: bytes / 128,
        global_bytes: bytes,
        ..Metrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::TimingModel;

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn matrix_matches_pointwise() {
        let q = PointSet::uniform(5, 16, 1);
        let r = PointSet::uniform(9, 16, 2);
        let m = distance_matrix(&q, &r);
        assert_eq!(m.len(), 5);
        assert_eq!(m[0].len(), 9);
        for (qi, row) in m.iter().enumerate() {
            for (ri, &got) in row.iter().enumerate() {
                let d = squared_distance(q.point(qi), r.point(ri));
                assert_eq!(got, d);
            }
        }
    }

    #[test]
    fn self_distance_is_zero_and_symmetricish() {
        let p = PointSet::uniform(4, 32, 3);
        let m = distance_matrix(&p, &p);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - m[j][i]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn analytic_model_matches_paper_distance_time() {
        // Table I: distance calculation for N = 2^15, Q = 2^13, dim = 128
        // takes 0.14 s on the C2075.
        let m = gpu_distance_metrics(1 << 13, 1 << 15, 128);
        let t = TimingModel::tesla_c2075().kernel_time(&m);
        assert!((0.10..0.20).contains(&t), "t = {t}");
        // And N = 2^16 roughly doubles it (paper: 0.28 s).
        let m2 = gpu_distance_metrics(1 << 13, 1 << 16, 128);
        let t2 = TimingModel::tesla_c2075().kernel_time(&m2);
        assert!((1.8..2.2).contains(&(t2 / t)), "ratio {}", t2 / t);
    }

    #[test]
    fn non_finite_distances_sort_last() {
        // A reference with an overflowing coordinate produces a
        // non-finite squared distance; the policy clamps it to +∞ so it
        // can never enter a top-k.
        assert_eq!(clamp_non_finite(f32::NAN), f32::INFINITY);
        assert_eq!(clamp_non_finite(f32::NEG_INFINITY), f32::INFINITY);
        assert_eq!(clamp_non_finite(1.25), 1.25);
        let q = PointSet::from_flat(vec![0.0, 0.0], 2);
        let r = PointSet::from_flat(vec![1.0, 0.0, f32::MAX, f32::MAX, 2.0, 0.0], 2);
        let m = distance_matrix(&q, &r);
        assert_eq!(m[0][0], 1.0);
        assert_eq!(m[0][1], f32::INFINITY, "overflowed pair clamps to +inf");
        assert_eq!(m[0][2], 4.0);
        let cfg = kselect::SelectConfig::plain(kselect::QueueKind::Insertion, 2);
        let top = kselect::select_k(&m[0], &cfg);
        assert_eq!(
            top.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![0, 2],
            "the poisoned reference never makes the top-k"
        );
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_rejected() {
        let a = PointSet::uniform(2, 4, 1);
        let b = PointSet::uniform(2, 8, 1);
        distance_matrix(&a, &b);
    }
}
