//! Synthetic dataset generation matching the paper's evaluation setup:
//! query and reference tuples with dimensionality 128, each coordinate
//! uniform in [0, 1], deterministic under a seed.

use std::borrow::Cow;

use kselect::KnnError;
use rand::{Rng, SeedableRng};

/// A dense row-major set of `count` points of dimension `dim`.
#[derive(Clone, Debug)]
pub struct PointSet {
    data: Vec<f32>,
    dim: usize,
}

impl PointSet {
    /// Generate `count` uniform-\[0,1\] points of dimension `dim` from
    /// `seed` (the paper's synthetic workload; `dim = 128` there).
    pub fn uniform(count: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..count * dim).map(|_| rng.gen::<f32>()).collect();
        PointSet { data, dim }
    }

    /// Wrap existing row-major data.
    ///
    /// # Panics
    /// When `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "ragged point data"
        );
        PointSet { data, dim }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow point `i`.
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The raw row-major data.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }
}

/// Typed validation of one point set: an empty set, or any non-finite
/// coordinate, is a named error instead of a panic or a silently wrong
/// answer downstream (a [`PointSet`] cannot have zero dimensions).
/// `kind` labels the set in the error ("query" / "reference").
pub fn validate_points(points: &PointSet, kind: &'static str) -> Result<(), KnnError> {
    if points.is_empty() {
        return Err(KnnError::EmptyInput { what: kind });
    }
    if let Some(flat_idx) = points.as_flat().iter().position(|v| !v.is_finite()) {
        return Err(KnnError::NonFiniteInput {
            kind,
            index: flat_idx / points.dim(),
        });
    }
    Ok(())
}

/// An owned set, for [`crate::Index::new`].
impl From<PointSet> for Cow<'_, PointSet> {
    fn from(points: PointSet) -> Self {
        Cow::Owned(points)
    }
}

/// A borrowed set, for [`crate::Index::new`].
impl<'a> From<&'a PointSet> for Cow<'a, PointSet> {
    fn from(points: &'a PointSet) -> Self {
        Cow::Borrowed(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = PointSet::uniform(10, 8, 42);
        let b = PointSet::uniform(10, 8, 42);
        assert_eq!(a.as_flat(), b.as_flat());
        let c = PointSet::uniform(10, 8, 43);
        assert_ne!(a.as_flat(), c.as_flat());
    }

    #[test]
    fn values_in_unit_interval() {
        let s = PointSet::uniform(100, 16, 7);
        assert!(s.as_flat().iter().all(|&v| (0.0..1.0).contains(&v)));
        assert_eq!(s.len(), 100);
        assert_eq!(s.dim(), 16);
        assert_eq!(s.point(3).len(), 16);
    }

    #[test]
    #[should_panic]
    fn ragged_data_rejected() {
        PointSet::from_flat(vec![1.0; 10], 3);
    }
}
