//! Blocked evaluation of many independent dot products, each
//! bit-identical to [`crate::dot`].
//!
//! A dot product is one serial chain of `f64` adds, so on its own it
//! runs at the latency of an add per dimension while the CPU's other
//! adders sit idle. The kernels here keep every chain exactly as
//! [`crate::dot`] builds it — start at `-0.0`, add `w[d] * x[d]` for
//! ascending `d`, one rounding per multiply and per add (no fused
//! multiply-add, no reassociation) — and only interleave *independent*
//! chains, so their latencies overlap while each result keeps its bits.
//!
//! * [`Panel`]: `k` models over a block of rows that every model reads
//!   (a committee, or one model, scoring a pool).
//! * [`dots`]: `k` weight vectors, each against a row of its own (a
//!   committee stepping through its own training examples in lockstep).

/// Rows [`Panel::eval`] scores together.
const ROWS: usize = 4;
/// Models [`Panel::eval`] scores together on each row: two 2-wide
/// registers of accumulators per row.
const LANES: usize = 4;

/// `k` linear models `f_m(x) = w_m·x + b_m` over `dim` features, packed
/// dim-major in one flat buffer: weight `d` of model `m` sits at
/// `w[d * k + m]`, so the kernel reads the `k` weights of a dimension
/// contiguously.
#[derive(Debug, Clone)]
pub struct Panel {
    dim: usize,
    w: Vec<f64>,
    bias: Vec<f64>,
}

impl Panel {
    /// Pack models given as `(weights, bias)`.
    ///
    /// # Panics
    /// Panics when a weight vector's length is not `dim`.
    pub fn pack<'a>(dim: usize, models: impl IntoIterator<Item = (&'a [f64], f64)>) -> Panel {
        let models: Vec<(&[f64], f64)> = models.into_iter().collect();
        let k = models.len();
        let mut w = vec![0.0; dim * k];
        for (m, &(wm, _)) in models.iter().enumerate() {
            assert_eq!(wm.len(), dim, "panel model/dim mismatch");
            for (slot, &v) in w.iter_mut().skip(m).step_by(k).zip(wm) {
                *slot = v;
            }
        }
        let bias = models.iter().map(|&(_, b)| b).collect();
        Panel { dim, w, bias }
    }

    /// Number of models `k`.
    pub fn models(&self) -> usize {
        self.bias.len()
    }

    /// Evaluate every model on each of `rows`, calling `each` once per
    /// row in order with that row's `k` values: `values[m]` has the bits
    /// of `dot(w_m, x) + b_m`. Each row's first `dim` entries are read.
    ///
    /// # Panics
    /// Panics when a row is shorter than `dim`.
    pub fn eval<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a [f64]>,
        mut each: impl FnMut(&[f64]),
    ) {
        let k = self.models();
        let mut rows = rows.into_iter();
        if k == 0 {
            rows.for_each(|_| each(&[]));
            return;
        }
        let mut out = vec![0.0; ROWS * k];
        let mut xs: [&[f64]; ROWS] = [&[]; ROWS];
        loop {
            let mut filled = 0;
            for (slot, x) in xs.iter_mut().zip(rows.by_ref()) {
                *slot = x;
                filled += 1;
            }
            if filled < ROWS {
                for &x in &xs[..filled] {
                    self.block(&[x], &mut out);
                    each(&out[..k]);
                }
                return;
            }
            self.block(&xs, &mut out);
            out.chunks_exact(k).for_each(&mut each);
        }
    }

    /// All `k` models on `R` rows: `out[r * k + m]`.
    fn block<const R: usize>(&self, xs: &[&[f64]; R], out: &mut [f64]) {
        let xs: [&[f64]; R] = std::array::from_fn(|r| &xs[r][..self.dim]);
        let k = self.models();
        let mut m = 0;
        while m + LANES <= k {
            self.tile::<R, LANES>(m, &xs, out);
            m += LANES;
        }
        if m + 2 <= k {
            self.tile::<R, 2>(m, &xs, out);
            m += 2;
        }
        if m < k {
            self.tile::<R, 1>(m, &xs, out);
        }
    }

    /// Models `m0..m0 + L` on `R` rows of exactly `dim` entries: `R × L`
    /// chains, interleaved.
    #[inline(always)]
    fn tile<const R: usize, const L: usize>(&self, m0: usize, xs: &[&[f64]; R], out: &mut [f64]) {
        let k = self.models();
        let mut acc = [[-0.0f64; L]; R];
        for d in 0..self.dim {
            let wd = &self.w[d * k + m0..][..L];
            for (acc_r, x) in acc.iter_mut().zip(xs) {
                let xd = x[d];
                for (a, &wl) in acc_r.iter_mut().zip(wd) {
                    *a += wl * xd;
                }
            }
        }
        let bias = &self.bias[m0..m0 + L];
        for (acc_r, out_r) in acc.iter().zip(out.chunks_exact_mut(k)) {
            for ((o, &a), &b) in out_r[m0..m0 + L].iter_mut().zip(acc_r).zip(bias) {
                *o = a + b;
            }
        }
    }
}

/// `out[q] = dot(&w[q * dim..(q + 1) * dim], xs[q])` for every `q`, bit
/// for bit, with up to four chains interleaved. Each row's first `dim`
/// entries are read.
///
/// # Panics
/// Panics when `w.len() != xs.len() * dim`, when `out.len() != xs.len()`
/// or when a row is shorter than `dim`.
// Always inlined into the Pegasos loop: as a call per step it cost
// single-model training on 4 dims about 30 % per fit.
#[inline(always)]
pub fn dots(dim: usize, w: &[f64], xs: &[&[f64]], out: &mut [f64]) {
    assert_eq!(w.len(), xs.len() * dim, "dots weights/rows mismatch");
    assert_eq!(out.len(), xs.len(), "dots output/rows mismatch");
    let mut q = 0;
    while q + 4 <= xs.len() {
        chains::<4>(dim, &w[q * dim..], &xs[q..], &mut out[q..]);
        q += 4;
    }
    if q + 2 <= xs.len() {
        chains::<2>(dim, &w[q * dim..], &xs[q..], &mut out[q..]);
        q += 2;
    }
    if q < xs.len() {
        // A lone chain is `dot` itself.
        out[q] = crate::dot(&w[q * dim..][..dim], &xs[q][..dim]);
    }
}

/// The first `N` of [`dots`]' chains.
#[inline(always)]
fn chains<const N: usize>(dim: usize, w: &[f64], xs: &[&[f64]], out: &mut [f64]) {
    let ws: [&[f64]; N] = std::array::from_fn(|q| &w[q * dim..][..dim]);
    let xs: [&[f64]; N] = std::array::from_fn(|q| &xs[q][..dim]);
    let mut acc = [-0.0f64; N];
    for d in 0..dim {
        for ((a, wq), xq) in acc.iter_mut().zip(&ws).zip(&xs) {
            *a += wq[d] * xq[d];
        }
    }
    out[..N].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot;

    /// Values that stress the chain contract: signed zeros, mixed signs
    /// and magnitudes, so a reordered or fused chain changes some bits.
    fn value(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        match *seed >> 61 {
            0 => 0.0,
            1 => -0.0,
            s => ((*seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi(s as i32 - 4),
        }
    }

    #[test]
    fn panel_matches_dot_bits_for_every_shape() {
        let mut seed = 7;
        for dim in [0, 1, 2, 3, 5, 8, 189] {
            for k in 0..=9 {
                for n in 0..=9 {
                    let models: Vec<(Vec<f64>, f64)> = (0..k)
                        .map(|_| {
                            (
                                (0..dim).map(|_| value(&mut seed)).collect(),
                                value(&mut seed),
                            )
                        })
                        .collect();
                    let rows: Vec<Vec<f64>> = (0..n)
                        .map(|_| (0..dim + 2).map(|_| value(&mut seed)).collect())
                        .collect();
                    let panel = Panel::pack(dim, models.iter().map(|(w, b)| (w.as_slice(), *b)));
                    let mut j = 0;
                    panel.eval(rows.iter().map(Vec::as_slice), |vals| {
                        assert_eq!(vals.len(), k);
                        for ((w, b), v) in models.iter().zip(vals) {
                            let want = dot(w, &rows[j][..dim]) + b;
                            assert_eq!(v.to_bits(), want.to_bits(), "dim={dim} k={k} n={n}");
                        }
                        j += 1;
                    });
                    assert_eq!(j, n);
                }
            }
        }
    }

    #[test]
    fn empty_chain_starts_at_negative_zero() {
        // -0.0 + -0.0 keeps the sign; a chain started at +0.0 would not.
        let panel = Panel::pack(0, [(&[][..], -0.0)]);
        panel.eval([&[][..]], |v| assert!(v[0].is_sign_negative()));
        let mut out = [1.0];
        dots(0, &[], &[&[]], &mut out);
        assert!(out[0].is_sign_negative());
        assert!(dot(&[], &[]).is_sign_negative());
    }

    #[test]
    fn dots_match_dot_bits() {
        let mut seed = 11;
        for dim in [0, 1, 4, 189] {
            for k in 0..=9 {
                let w: Vec<f64> = (0..k * dim).map(|_| value(&mut seed)).collect();
                let rows: Vec<Vec<f64>> = (0..k)
                    .map(|_| (0..dim).map(|_| value(&mut seed)).collect())
                    .collect();
                let xs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                let mut out = vec![f64::NAN; k];
                dots(dim, &w, &xs, &mut out);
                for (q, v) in out.iter().enumerate() {
                    let want = dot(&w[q * dim..(q + 1) * dim], xs[q]);
                    assert_eq!(v.to_bits(), want.to_bits(), "dim={dim} k={k} q={q}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "panel model/dim mismatch")]
    fn pack_rejects_a_model_of_another_dim() {
        let _ = Panel::pack(2, [(&[1.0][..], 0.0)]);
    }
}
