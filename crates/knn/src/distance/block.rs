//! Blocked, flat, GEMM-style distance kernel.
//!
//! The paper treats k-selection as the GPU bottleneck; on the host side
//! of this reproduction the distance phase is the dominant *real*
//! computation, and the seed implementation — a scalar per-pair loop
//! into a heap of per-query rows — was both latency-bound (one
//! loop-carried f32 add chain) and allocation-heavy. This module applies
//! the standard GEMM decomposition (Johnson et al., *Billion-scale
//! similarity search with GPUs*): ‖q−r‖² = ‖q‖² + ‖r‖² − 2·q·r, so the
//! pair loop reduces to an inner product with one multiply-add per
//! dimension, norms are hoisted and computed once per point, and the
//! whole matrix is written into a single flat row-major buffer.
//!
//! Blocking: query rows are split into per-worker slabs
//! (rayon-parallel) and references into [`REF_TILE`]-sized tiles walked
//! in the outer loop, so one tile of reference rows stays
//! cache-resident while every query row in the slab streams over it —
//! the reference set is read once per slab instead of once per
//! [`QUERY_BLOCK`]. (The streamed pipeline still schedules work in
//! `QUERY_BLOCK` units; only this materialising kernel is tile-outer.)
//!
//! The inner reduction is [`crate::distance::dot`] —
//! [`crate::distance::LANES`] independent accumulators over
//! `chunks_exact`, which autovectorizes — and is *the same function* the
//! scalar [`crate::squared_distance`] uses, so blocked output equals the
//! scalar reference bit for bit (property-tested).
//!
//! Both this kernel and the tile-streamed search path
//! ([`crate::pipeline::knn_search_streamed_parallel`]) fill rows in
//! query quads through [`simd::fill_rows_quad`], so on the AVX-512
//! kernel each reference chunk is loaded once for four queries (once
//! for two on AVX2). The streamed path fills one quad × one reference
//! tile at a time into four reused scratch rows, never materialising
//! the Q×N matrix.

use std::ops::Range;

use rayon::prelude::*;

use crate::dataset::PointSet;
use crate::distance::{simd, squared_norm};

/// Queries per parallel work unit. 32 rows of dim ≤ 512 stay within L1/L2
/// alongside one reference tile.
pub const QUERY_BLOCK: usize = 32;

/// References per cache tile of the materialising kernel: 256 rows × 128
/// dims × 4 B = 128 KiB, sized for a typical L2.
pub const REF_TILE: usize = 256;

/// Default reference-tile length (elements per query per chunk) of the
/// streamed search path. Each worker's scratch is four rows of
/// `DEFAULT_STREAM_TILE` floats — one per query of the quad the
/// distance kernel fills at once — so 2048 keeps it at 32 KiB (plus
/// the kernel's [`simd::pack_len`] query pack). Besides
/// the scan of its row, every tile costs each query a fixed O(k): its
/// k held keys are reloaded into the worker's candidate buffer and cut
/// back to k at the tile's end. A 2048-value tile amortises that for
/// typical `k ≤ 512`.
///
/// Chosen empirically: `wallclock --sweep-tiles` (Q=1024, N=2^14,
/// dim=128, k=32) measures streamed QPS across {1024, 2048, 4096,
/// 8192}, and 2048 wins — ~21% over 4096 on the reference machine (see
/// `tile_sweep` in `BENCH_native.json`); larger tiles thrash L2, while
/// 1024 pays one extra reload and cut per query. That sweep predates
/// the threshold top-k, which replaced a per-tile selection and merge.
pub const DEFAULT_STREAM_TILE: usize = 2048;

/// A dense Q×N matrix in one flat row-major allocation:
/// `at(q, r) == data[q * n + r]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatMatrix {
    data: Vec<f32>,
    q: usize,
    n: usize,
}

impl FlatMatrix {
    /// Wrap an existing flat row-major buffer.
    ///
    /// # Panics
    /// When `data.len() != q * n`.
    pub fn from_flat(data: Vec<f32>, q: usize, n: usize) -> Self {
        assert_eq!(data.len(), q * n, "flat buffer does not match q × n");
        FlatMatrix { data, q, n }
    }

    /// Number of rows (queries).
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of columns (references) per row.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `q` as a contiguous slice of length [`Self::n`].
    pub fn row(&self, q: usize) -> &[f32] {
        &self.data[q * self.n..(q + 1) * self.n]
    }

    /// Element access.
    pub fn at(&self, q: usize, r: usize) -> f32 {
        self.data[q * self.n + r]
    }

    /// The whole matrix, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Iterate over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.n.max(1))
    }

    /// Consume into the flat row-major buffer.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Copy out as per-query row vectors — the legacy heap-of-rows shape
    /// (one allocation per query; kept only for `distance_matrix`
    /// compatibility).
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        self.rows().map(<[f32]>::to_vec).collect()
    }

    /// Bytes held by the distance values.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * core::mem::size_of::<f32>()) as u64
    }
}

/// Squared norms of every point, computed once: the hoisted ‖·‖² terms
/// of the decomposition.
pub fn norms(points: &PointSet) -> Vec<f32> {
    (0..points.len())
        .into_par_iter()
        .map(|i| squared_norm(points.point(i)))
        .collect()
}

/// Fill `out[j] = clamp_non_finite(‖q − refs[r0 + j]‖²)` for one query
/// against the reference range starting at `r0`. `norm_q` and
/// `ref_norms` are the precomputed squared norms (`ref_norms` indexed by
/// absolute reference id). This is the inner row primitive shared by the
/// materialising kernel, the per-query search path and the tile-streamed
/// path — one call site for the arithmetic keeps all of them bit-equal.
/// The arithmetic itself lives in [`crate::distance::simd`], which
/// dispatches at runtime between the AVX2 vector kernel and the
/// portable scalar kernel; both reproduce the scalar reference bit for
/// bit, so every caller of this function is unaffected by the dispatch.
#[inline]
pub fn fill_row_range(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    debug_assert!(r0 + out.len() <= refs.len());
    simd::fill_rows(qp, norm_q, refs, ref_norms, r0, out);
}

/// The output rows of one [`simd::fill_rows_quad`] call: rows
/// `0, stride, 2·stride, …` of `buf`, each cut to `cols`. Slots past
/// the end of `buf` are empty.
pub(crate) fn quad_rows(
    buf: &mut [f32],
    stride: usize,
    cols: Range<usize>,
) -> [&mut [f32]; simd::QUAD] {
    let mut rows = buf.chunks_mut(stride);
    core::array::from_fn(|_| {
        rows.next()
            .map_or(&mut [][..], |row| &mut row[cols.clone()])
    })
}

/// The blocked kernel: the full Q×N squared-distance matrix as a flat
/// row-major [`FlatMatrix`], parallel over per-worker slabs of query
/// rows, tile-outer over [`REF_TILE`]-sized reference tiles within
/// each slab (each tile is read once per slab, not once per
/// [`QUERY_BLOCK`]).
///
/// Output is bit-identical to calling
/// `clamp_non_finite(squared_distance(q, r))` per pair.
///
/// # Panics
/// When the point sets disagree on dimensionality.
pub fn squared_distances(queries: &PointSet, refs: &PointSet) -> FlatMatrix {
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");
    let q = queries.len();
    let n = refs.len();
    let ref_norms = norms(refs);
    let q_norms = norms(queries);
    let mut data = vec![0.0f32; q * n];
    // One contiguous slab of whole query rows per worker, so the
    // parallel split stays balanced and each worker owns a disjoint
    // region of the output.
    let workers = crate::pipeline::resolve_threads(0).clamp(1, q.max(1));
    let rows_per = q.div_ceil(workers).max(1);
    let slabs: Vec<(usize, &mut [f32])> =
        data.chunks_mut((rows_per * n).max(1)).enumerate().collect();
    slabs.into_par_iter().for_each(|(si, slab)| {
        let q0 = si * rows_per;
        // Tile-outer: each REF_TILE-sized slice of the reference set is
        // pulled into cache once per slab and reused across every query
        // row in the slab, instead of once per QUERY_BLOCK — for large
        // N that divides the reference re-read traffic by the slab's
        // row count. Within a tile the slab's rows are filled in quads
        // (the last quad may hold fewer rows), sharing each reference
        // load between the quad's queries. Fill order changes; per-pair
        // bits do not.
        let mut pack = vec![0.0f32; simd::pack_len(refs.dim())];
        for r0 in (0..n).step_by(REF_TILE) {
            let cols = r0..r0 + REF_TILE.min(n - r0);
            for (i, quad) in slab.chunks_mut(simd::QUAD * n).enumerate() {
                let qa = q0 + simd::QUAD * i;
                let m = quad.len() / n;
                let mut outs = quad_rows(quad, n, cols.clone());
                let qps: [&[f32]; simd::QUAD] =
                    core::array::from_fn(|b| queries.point(qa + b.min(m - 1)));
                simd::fill_rows_quad(
                    &qps[..m],
                    &q_norms[qa..qa + m],
                    refs,
                    &ref_norms,
                    r0,
                    &mut outs[..m],
                    &mut pack,
                );
            }
        }
    });
    FlatMatrix::from_flat(data, q, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{clamp_non_finite, squared_distance};

    #[test]
    fn blocked_equals_scalar_bitwise() {
        // Dimensions straddling the LANES boundary and sizes straddling
        // both block edges.
        for dim in [1, 7, 8, 9, 16, 33] {
            let qs = PointSet::uniform(QUERY_BLOCK + 3, dim, 11);
            let rs = PointSet::uniform(REF_TILE + 5, dim, 12);
            let m = squared_distances(&qs, &rs);
            assert_eq!(m.q(), qs.len());
            assert_eq!(m.n(), rs.len());
            for qi in 0..qs.len() {
                for ri in 0..rs.len() {
                    let expect = clamp_non_finite(squared_distance(qs.point(qi), rs.point(ri)));
                    assert_eq!(
                        m.at(qi, ri).to_bits(),
                        expect.to_bits(),
                        "dim {dim} pair ({qi}, {ri})"
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_is_exactly_zero() {
        let p = PointSet::uniform(40, 33, 13);
        let m = squared_distances(&p, &p);
        for i in 0..p.len() {
            assert_eq!(m.at(i, i).to_bits(), 0.0f32.to_bits(), "point {i}");
        }
    }

    #[test]
    fn row_primitive_matches_matrix() {
        let qs = PointSet::uniform(3, 19, 14);
        let rs = PointSet::uniform(57, 19, 15);
        let ref_norms = norms(&rs);
        let m = squared_distances(&qs, &rs);
        let mut out = vec![0.0f32; 10];
        fill_row_range(
            qs.point(1),
            squared_norm(qs.point(1)),
            &rs,
            &ref_norms,
            20,
            &mut out,
        );
        assert_eq!(&m.row(1)[20..30], &out[..]);
    }

    #[test]
    fn flat_matrix_accessors() {
        let m = FlatMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.at(0, 2), 3.0);
        assert_eq!(m.rows().count(), 2);
        assert_eq!(m.bytes(), 24);
        assert_eq!(m.to_rows(), vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.into_inner().len(), 6);
    }

    #[test]
    #[should_panic]
    fn ragged_flat_rejected() {
        FlatMatrix::from_flat(vec![0.0; 5], 2, 3);
    }
}
