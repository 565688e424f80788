//! Slice-based vector helpers.

/// Dot product of two equal-length slices: one chain that starts at
/// `-0.0` and adds `a[i] * b[i]` for ascending `i`. The kernels in
/// [`crate::panel`] keep exactly this chain, so their values match it bit
/// for bit.
///
/// # Panics
/// Panics in debug builds if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(-0.0, |acc, (x, y)| acc + x * y)
}

/// `y += alpha * x`, element-wise.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha`, element-wise.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y {
        *yi *= alpha;
    }
}

/// `y += x`, element-wise.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_and_add() {
        let mut y = vec![2.0, 4.0];
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
        add_assign(&mut y, &[1.0, 1.0]);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn norm2_known() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }
}
