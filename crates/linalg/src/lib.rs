//! `linalg` — minimal dense linear algebra for the `mlcore` classifiers.
//!
//! Just enough for a linear SVM and a one-hidden-layer neural network:
//! vector dot/axpy/scale helpers on slices, a row-major [`Matrix`] with
//! the forward/backward products a feed-forward net needs, and the
//! blocked [`panel`] kernels that evaluate many linear models at once,
//! bit-identical to one [`dot`] each. Deliberately small: no BLAS, no
//! SIMD intrinsics — the compiler auto-vectorizes the tight loops well
//! enough for feature dimensions in the tens-to-hundreds this framework
//! uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod panel;
pub mod vector;

pub use matrix::Matrix;
pub use vector::{add_assign, axpy, dot, norm2, scale};
