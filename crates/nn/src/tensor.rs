//! Minimal dense tensors for plaintext inference.

use std::fmt;

/// A dense row-major `f64` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor(shape={:?}, data[..4]={:?})",
            self.shape,
            &self.data[..self.data.len().min(4)]
        )
    }
}

impl Tensor {
    /// All-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from shape and data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape/data mismatch"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable data view.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable data view.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Index into a CHW tensor.
    #[inline]
    pub(crate) fn at3(&self, c: usize, h: usize, w: usize) -> f64 {
        let (_, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[(c * hh + h) * ww + w]
    }

    /// Mutable index into a CHW tensor.
    #[inline]
    pub(crate) fn at3_mut(&mut self, c: usize, h: usize, w: usize) -> &mut f64 {
        let (_, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        &mut self.data[(c * hh + h) * ww + w]
    }

    /// Index into a 4-D (e.g. `[co, ci, kh, kw]`) tensor.
    #[inline]
    pub(crate) fn at4(&self, a: usize, b: usize, c: usize, d: usize) -> f64 {
        let (_, s1, s2, s3) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((a * s1 + b) * s2 + c) * s3 + d]
    }

    /// Reshapes in place (volume must match).
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different volume.
    pub(crate) fn reshape(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "reshape must preserve volume"
        );
        self.shape = shape.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|x| x as f64).collect());
        assert_eq!(t.at3(0, 0, 0), 0.0);
        assert_eq!(t.at3(1, 1, 1), 7.0);
        assert_eq!(t.at3(0, 1, 0), 2.0);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn four_d_indexing() {
        let t = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|x| x as f64).collect());
        assert_eq!(t.at4(1, 0, 1, 1), 7.0);
        assert_eq!(t.at4(0, 0, 1, 0), 2.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        t.reshape(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn bad_reshape_rejected() {
        Tensor::zeros(&[3]).reshape(&[2, 2]);
    }

    #[test]
    #[should_panic]
    fn bad_from_vec_rejected() {
        Tensor::from_vec(&[2, 2], vec![0.0; 3]);
    }
}
