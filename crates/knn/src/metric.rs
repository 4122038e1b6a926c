//! Distance metrics beyond the paper's squared Euclidean.
//!
//! k-selection is metric-agnostic (it sees only a list of scores to
//! minimise), so the library supports the metrics common in the paper's
//! motivating domains: Euclidean for SIFT-style descriptors, cosine and
//! (negated) dot product for embedding retrieval, Manhattan for robust
//! matching. All metrics are oriented so that **smaller = closer**.

use serde::{Deserialize, Serialize};

use crate::dataset::PointSet;
use crate::distance::block::{self, FlatMatrix, QUERY_BLOCK};
use rayon::prelude::*;

/// A dissimilarity measure; smaller values mean closer points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Σ (aᵢ − bᵢ)² — the paper's metric (monotone in Euclidean).
    SquaredEuclidean,
    /// Σ |aᵢ − bᵢ| (L1).
    Manhattan,
    /// 1 − cos(a, b) ∈ [0, 2]; zero vectors are treated as maximally far.
    Cosine,
    /// −⟨a, b⟩ — maximum inner product search as a minimisation.
    NegativeDot,
}

impl Metric {
    /// Dissimilarity between two equal-length vectors.
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::SquaredEuclidean => crate::distance::squared_distance(a, b),
            Metric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Metric::Cosine => {
                let mut dot = 0.0f32;
                let mut na = 0.0f32;
                let mut nb = 0.0f32;
                for (x, y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                let denom = (na * nb).sqrt();
                if denom == 0.0 {
                    2.0
                } else {
                    1.0 - dot / denom
                }
            }
            Metric::NegativeDot => -a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>(),
        }
    }

    /// True when the metric never produces negative values (radix-select
    /// style bit tricks require this).
    pub fn is_non_negative(&self) -> bool {
        !matches!(self, Metric::NegativeDot)
    }
}

/// Full distance matrix under an arbitrary metric, in one flat row-major
/// allocation: `m.at(q, r)` is the dissimilarity between query `q` and
/// reference `r`, with non-finite values clamped to `+∞`.
///
/// Squared Euclidean routes through the blocked GEMM-style kernel
/// ([`block::squared_distances`]); the other metrics fill the flat
/// buffer directly, parallel over query blocks, with no per-query
/// allocation either way.
pub fn distance_matrix_flat_with(
    queries: &PointSet,
    refs: &PointSet,
    metric: Metric,
) -> FlatMatrix {
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");
    if metric == Metric::SquaredEuclidean {
        return block::squared_distances(queries, refs);
    }
    let q = queries.len();
    let n = refs.len();
    let mut data = vec![0.0f32; q * n];
    let blocks: Vec<(usize, &mut [f32])> = data
        .chunks_mut((QUERY_BLOCK * n).max(1))
        .enumerate()
        .collect();
    blocks.into_par_iter().for_each(|(bi, slab)| {
        let q0 = bi * QUERY_BLOCK;
        for (i, row) in slab.chunks_exact_mut(n).enumerate() {
            let qp = queries.point(q0 + i);
            for (r, o) in row.iter_mut().enumerate() {
                *o = crate::distance::clamp_non_finite(metric.distance(qp, refs.point(r)));
            }
        }
    });
    FlatMatrix::from_flat(data, q, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_dedicated_impl() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(Metric::SquaredEuclidean.distance(&a, &b), 25.0);
    }

    #[test]
    fn manhattan() {
        assert_eq!(Metric::Manhattan.distance(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn cosine_identical_and_orthogonal() {
        let a = [1.0, 0.0];
        assert!((Metric::Cosine.distance(&a, &[2.0, 0.0])).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &[0.0, 5.0]) - 1.0).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        // zero vector: maximally far, not NaN
        assert_eq!(Metric::Cosine.distance(&a, &[0.0, 0.0]), 2.0);
    }

    #[test]
    fn negative_dot_orders_by_similarity() {
        let q = [1.0, 1.0];
        let close = Metric::NegativeDot.distance(&q, &[3.0, 3.0]);
        let far = Metric::NegativeDot.distance(&q, &[0.1, 0.0]);
        assert!(close < far, "more similar must score lower");
        assert!(!Metric::NegativeDot.is_non_negative());
        assert!(Metric::Cosine.is_non_negative());
    }

    #[test]
    fn matrix_with_metric() {
        // Sizes straddling the query-block edge, so the blocked fill
        // path runs for every metric.
        let q = PointSet::uniform(QUERY_BLOCK + 2, 8, 3);
        let r = PointSet::uniform(37, 8, 4);
        for metric in [
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Cosine,
            Metric::NegativeDot,
        ] {
            let m = distance_matrix_flat_with(&q, &r, metric);
            assert_eq!((m.q(), m.n()), (q.len(), r.len()));
            for qi in 0..q.len() {
                for ri in 0..r.len() {
                    let want = crate::distance::clamp_non_finite(
                        metric.distance(q.point(qi), r.point(ri)),
                    );
                    assert_eq!(m.at(qi, ri).to_bits(), want.to_bits(), "{metric:?}");
                }
            }
        }
    }
}
