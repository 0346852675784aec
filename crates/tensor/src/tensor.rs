//! The dense tensor type.

use crate::random::XorShiftRng;
use crate::shape::Shape;
use skipper_memprof::{record_op, OpKind, Registration};
use std::fmt;
use std::sync::Arc;

/// Backing buffer of a tensor. Registers its bytes with the memory tracker
/// for as long as it lives.
#[derive(Debug)]
struct Storage {
    data: Vec<f32>,
    _reg: Registration,
}

impl Storage {
    fn new(data: Vec<f32>) -> Storage {
        let bytes = (data.len() * std::mem::size_of::<f32>()) as u64;
        Storage {
            data,
            _reg: Registration::new(bytes),
        }
    }

    fn with_category_of(data: Vec<f32>, other: &Storage) -> Storage {
        let bytes = (data.len() * std::mem::size_of::<f32>()) as u64;
        Storage {
            data,
            _reg: Registration::with_category(bytes, other._reg.category()),
        }
    }
}

impl Clone for Storage {
    /// Deep copy; the copy is booked under the *same category* as the
    /// original (a cloned activation stays an activation).
    fn clone(&self) -> Storage {
        Storage::with_category_of(self.data.clone(), self)
    }
}

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is cheap to [`Clone`] (reference-counted storage); mutation
/// through [`Tensor::data_mut`] is copy-on-write. Every distinct storage is
/// registered with [`skipper_memprof`] under the category active at creation
/// time, which is how the training stack reproduces the paper's memory
/// measurements.
///
/// ```
/// use skipper_tensor::Tensor;
/// let t = Tensor::zeros([2, 3]);
/// assert_eq!(t.numel(), 6);
/// let u = t.reshape([3, 2]); // same storage, new shape
/// assert_eq!(u.shape().dims(), &[3, 2]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    storage: Arc<Storage>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// Tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let data = vec![value; shape.numel()];
        Tensor {
            storage: Arc::new(Storage::new(data)),
            shape,
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Tensor {
        let mut t = Tensor::zeros([n, n]);
        let d = t.data_mut();
        for i in 0..n {
            d[i * n + i] = 1.0;
        }
        t
    }

    /// Tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            storage: Arc::new(Storage::new(data)),
            shape,
        }
    }

    /// Tensor whose flat element `i` is `f(i)`.
    pub fn from_fn(shape: impl Into<Shape>, f: impl FnMut(usize) -> f32) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.numel()).map(f).collect();
        Tensor::from_vec(data, shape)
    }

    /// Standard-normal tensor (Box–Muller over `rng`).
    pub fn randn(shape: impl Into<Shape>, rng: &mut XorShiftRng) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.next_normal()).collect();
        Tensor::from_vec(data, shape)
    }

    /// Uniform `[0, 1)` tensor.
    pub fn rand(shape: impl Into<Shape>, rng: &mut XorShiftRng) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.next_f32()).collect();
        Tensor::from_vec(data, shape)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Size in bytes of the element buffer.
    pub fn byte_size(&self) -> u64 {
        (self.numel() * std::mem::size_of::<f32>()) as u64
    }

    /// The elements, row-major.
    pub fn data(&self) -> &[f32] {
        &self.storage.data
    }

    /// Mutable access to the elements (copy-on-write: clones the storage if
    /// it is shared).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut Arc::make_mut(&mut self.storage).data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.storage.data[self.shape.offset(index)]
    }

    /// Whether this tensor shares storage with `other`.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// View with a different shape over the same storage.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} to {shape}",
            self.shape
        );
        Tensor {
            storage: Arc::clone(&self.storage),
            shape,
        }
    }

    /// Deep copy with independent storage (booked under the original
    /// storage's category).
    pub fn deep_clone(&self) -> Tensor {
        Tensor {
            storage: Arc::new(Storage::clone(&self.storage)),
            shape: self.shape.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (allocating)
    // ------------------------------------------------------------------

    fn zip(&self, other: &Tensor, op: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| op(a, b))
            .collect();
        record_op(
            OpKind::Elementwise,
            self.numel() as f64,
            3.0 * self.byte_size() as f64,
        );
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// `self * s` elementwise.
    pub fn scale(&self, s: f32) -> Tensor {
        record_op(
            OpKind::Elementwise,
            self.numel() as f64,
            2.0 * self.byte_size() as f64,
        );
        let data = self.data().iter().map(|&a| a * s).collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// `self + s * other` elementwise (axpy). Panics on shape mismatch.
    pub fn add_scaled(&self, other: &Tensor, s: f32) -> Tensor {
        self.zip(other, |a, b| a + s * b)
    }

    /// Apply `f` to every element, allocating a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        record_op(
            OpKind::Elementwise,
            self.numel() as f64,
            2.0 * self.byte_size() as f64,
        );
        let data = self.data().iter().map(|&a| f(a)).collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (in place)
    // ------------------------------------------------------------------

    /// `self += s * other` in place. Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Tensor, s: f32) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        record_op(
            OpKind::Elementwise,
            2.0 * self.numel() as f64,
            3.0 * self.byte_size() as f64,
        );
        // Copy-on-write makes aliasing safe: if `other` shares this storage,
        // `data_mut` un-shares it first, so `other` keeps the old values.
        let dst = self.data_mut();
        for (a, &b) in dst.iter_mut().zip(other.data()) {
            *a += s * b;
        }
    }

    /// `self += other` in place. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.add_scaled_assign(other, 1.0);
    }

    /// `self *= s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        record_op(
            OpKind::Elementwise,
            self.numel() as f64,
            2.0 * self.byte_size() as f64,
        );
        for a in self.data_mut() {
            *a *= s;
        }
    }

    /// Set every element to `value`.
    pub fn fill(&mut self, value: f32) {
        for a in self.data_mut() {
            *a = value;
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (f64 accumulator).
    pub fn sum(&self) -> f64 {
        record_op(OpKind::Reduce, self.numel() as f64, self.byte_size() as f64);
        self.data().iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.numel() == 0 {
            return 0.0;
        }
        self.sum() / self.numel() as f64
    }

    /// Maximum element (`-inf` if empty).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in each row of a rank-2 tensor; ties
    /// resolve to the lowest index (and so does a row without columns).
    ///
    /// # Panics
    ///
    /// Panics if the rank is not 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, cols) = self.shape.as_2d();
        let data = self.data();
        (0..rows)
            .map(|r| {
                let row = &data[r * cols..(r + 1) * cols];
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Largest absolute difference to `other`. Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether all elements are within `tol` of `other`'s.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const MAX: usize = 8;
        let d = self.data();
        if d.len() <= MAX {
            write!(f, "{d:?}")
        } else {
            write!(f, "[{:?}, ... {} more]", &d[..MAX], d.len() - MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([3]).sum(), 3.0);
        assert_eq!(Tensor::full([2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        let t = Tensor::from_fn([3], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        Tensor::from_vec(vec![1.0], [2, 2]);
    }

    #[test]
    fn clone_shares_then_cow() {
        let a = Tensor::ones([4]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.data_mut()[0] = 7.0;
        assert!(!a.shares_storage(&b));
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(b.data()[0], 7.0);
    }

    #[test]
    fn reshape_shares_storage() {
        let a = Tensor::from_fn([2, 3], |i| i as f32);
        let b = a.reshape([3, 2]);
        assert!(a.shares_storage(&b));
        assert_eq!(b.at(&[2, 1]), 5.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).data(), &[10.0, 40.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, 6.0]);
        assert_eq!(a.add_scaled(&b, 0.5).data(), &[6.0, 12.0]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 4.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![4.0, 8.0], [2]);
        a.add_scaled_assign(&b, 0.25);
        assert_eq!(a.data(), &[2.0, 4.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.fill(9.0);
        assert_eq!(a.data(), &[9.0, 9.0]);
    }

    #[test]
    fn in_place_handles_aliased_views() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let mut b = a.reshape([2]); // aliases a
        b.add_assign(&a);
        assert_eq!(b.data(), &[2.0, 4.0]);
        assert_eq!(a.data(), &[1.0, 2.0], "original must be untouched (COW)");
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], [2, 2]);
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax_rows(), vec![0, 0]);
        let u = Tensor::from_vec(vec![-1.0, 2.0, 5.0, 0.5], [2, 2]);
        assert_eq!(u.argmax_rows(), vec![1, 0]);
        let ties = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 2.0, 2.0], [2, 3]);
        assert_eq!(
            ties.argmax_rows(),
            vec![0, 1],
            "ties go to the lowest index"
        );
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![1.05, 2.0], [2]);
        assert!((a.max_abs_diff(&b) - 0.05).abs() < 1e-6);
        assert!(a.allclose(&b, 0.1));
        assert!(!a.allclose(&b, 0.01));
    }

    #[test]
    fn memory_is_tracked() {
        use skipper_memprof as mp;
        mp::reset_all();
        let t = Tensor::zeros([1024]);
        assert_eq!(mp::snapshot().total_live(), 4096);
        let view = t.reshape([32, 32]);
        assert_eq!(mp::snapshot().total_live(), 4096, "views are free");
        let copy = t.deep_clone();
        assert_eq!(mp::snapshot().total_live(), 8192);
        drop((t, view, copy));
        assert_eq!(mp::snapshot().total_live(), 0);
    }

    #[test]
    fn debug_is_truncated() {
        let t = Tensor::zeros([100]);
        let s = format!("{t:?}");
        assert!(s.contains("more"));
        assert!(s.len() < 200);
    }

    #[test]
    fn randn_has_sane_moments() {
        let mut rng = XorShiftRng::new(42);
        let t = Tensor::randn([10_000], &mut rng);
        assert!(t.mean().abs() < 0.05);
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
