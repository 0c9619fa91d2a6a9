//! Dense `f64` vector with the handful of BLAS-1 operations the workspace
//! needs.

use std::ops::{Index, IndexMut};

/// A dense vector of `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Vector(Vec<f64>);

impl Vector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self(vec![0.0; n])
    }

    /// Creates a vector of `n` ones.
    pub fn ones(n: usize) -> Self {
        Self(vec![1.0; n])
    }

    /// Length of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the vector has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Immutable slice view.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutable slice view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Consumes the vector, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.0
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Scales every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.0 {
            *x *= s;
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean (NaN for an empty vector).
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Applies `f` to every entry, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector(self.0.iter().map(|&x| f(x)).collect())
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Self(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Self(v.to_vec())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = Vector::from(vec![3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn mean_of_known_values() {
        let v = Vector::from(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.mean(), 2.5);
    }

    #[test]
    fn map_preserves_length() {
        let v = Vector::from(vec![-1.0, 2.0]);
        let m = v.map(f64::abs);
        assert_eq!(m.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn scale_and_sum() {
        let mut v = Vector::ones(4);
        v.scale_mut(0.25);
        assert!((v.sum() - 1.0).abs() < 1e-15);
    }
}
