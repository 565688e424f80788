//! One-hidden-layer feed-forward network — the paper's non-convex
//! non-linear classifier (§4.2.2).
//!
//! Architecture and training follow the paper exactly: an affine hidden
//! layer with ReLU activation, dropout over half the hidden units, batch
//! normalization before the output layer, a scalar affine output (the
//! *margin*), and a sigmoid producing the match probability. Training
//! minimizes the L2 loss with SGD + momentum (learning rate 0.001, decay
//! 0.99, momentum 0.95) for 50 epochs with mini-batches of 8.

use crate::data::TrainSet;
use crate::Classifier;
use linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

const BN_EPS: f64 = 1e-5;
const BN_RUNNING_MOMENTUM: f64 = 0.9;

/// Hyper-parameters for [`NeuralNet`] training. Defaults are the paper's.
#[derive(Debug, Clone)]
pub struct NnConfig {
    /// Hidden-layer width `h`.
    pub hidden: usize,
    /// Training epochs (paper: 50).
    pub epochs: usize,
    /// Mini-batch size (paper: 8).
    pub batch_size: usize,
    /// Initial SGD learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Per-epoch learning-rate decay constant (paper: 0.99).
    pub decay: f64,
    /// SGD momentum (paper: 0.95).
    pub momentum: f64,
    /// Dropout probability on hidden units (paper: 0.5).
    pub dropout: f64,
}

impl Default for NnConfig {
    fn default() -> Self {
        NnConfig {
            hidden: 16,
            epochs: 50,
            batch_size: 8,
            learning_rate: 0.001,
            decay: 0.99,
            momentum: 0.95,
            dropout: 0.5,
        }
    }
}

/// A trained feed-forward network.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NeuralNet {
    w1: Matrix, // hidden × dim
    b1: Vec<f64>,
    gamma: Vec<f64>,
    beta: Vec<f64>,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
}

impl NeuralNet {
    fn forward_inference(&self, x: &[f64]) -> f64 {
        let mut hidden = self.w1.matvec(x);
        for (h, b) in hidden.iter_mut().zip(&self.b1) {
            *h = (*h + b).max(0.0);
        }
        let mut out = self.b2;
        for (j, &h) in hidden.iter().enumerate() {
            let norm = (h - self.running_mean[j]) / (self.running_var[j] + BN_EPS).sqrt();
            out += self.w2[j] * (self.gamma[j] * norm + self.beta[j]);
        }
        out
    }
}

impl Classifier for NeuralNet {
    /// The affine output before the sigmoid — the paper's margin for
    /// non-convex classifiers (§4.2.2). Ambiguous examples have margin
    /// near 0 (equivalently, probability near 0.5).
    fn decision_value(&self, x: &[f64]) -> f64 {
        self.forward_inference(x)
    }
}

impl NnConfig {
    /// Train a network on `set`. Deterministic for a given RNG state.
    pub fn train<R: Rng>(&self, set: &TrainSet<'_>, rng: &mut R) -> NeuralNet {
        let dim = set.dim();
        let h = self.hidden;
        // Xavier-uniform initialization.
        let bound1 = (6.0 / (dim + h).max(1) as f64).sqrt();
        let w1 = Matrix::from_fn(h, dim, |_, _| rng.gen_range(-bound1..=bound1));
        let bound2 = (6.0 / (h + 1) as f64).sqrt();
        let w2: Vec<f64> = (0..h).map(|_| rng.gen_range(-bound2..=bound2)).collect();
        let mut net = NeuralNet {
            w1,
            b1: vec![0.0; h],
            gamma: vec![1.0; h],
            beta: vec![0.0; h],
            running_mean: vec![0.0; h],
            running_var: vec![1.0; h],
            w2,
            b2: 0.0,
        };
        if set.is_empty() || dim == 0 {
            return net;
        }

        // Momentum buffers.
        let mut v_w1 = Matrix::zeros(h, dim);
        let mut v_b1 = vec![0.0; h];
        let mut v_gamma = vec![0.0; h];
        let mut v_beta = vec![0.0; h];
        let mut v_w2 = vec![0.0; h];
        let mut v_b2 = 0.0;

        let mut lr = self.learning_rate;
        let mut order: Vec<usize> = (0..set.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(rng);
            for batch in order.chunks(self.batch_size) {
                self.train_batch(
                    &mut net,
                    set,
                    batch,
                    lr,
                    rng,
                    &mut v_w1,
                    &mut v_b1,
                    &mut v_gamma,
                    &mut v_beta,
                    &mut v_w2,
                    &mut v_b2,
                );
            }
            lr *= self.decay;
        }
        net
    }

    #[allow(clippy::too_many_arguments)]
    fn train_batch<R: Rng>(
        &self,
        net: &mut NeuralNet,
        set: &TrainSet<'_>,
        batch: &[usize],
        lr: f64,
        rng: &mut R,
        v_w1: &mut Matrix,
        v_b1: &mut [f64],
        v_gamma: &mut [f64],
        v_beta: &mut [f64],
        v_w2: &mut [f64],
        v_b2: &mut f64,
    ) {
        let h = self.hidden;
        let m = batch.len();
        let m_f = m as f64;

        // --- Forward pass over the mini-batch ---
        // Shared dropout mask per batch (inverted dropout).
        let keep = 1.0 - self.dropout;
        let mask: Vec<f64> = (0..h)
            .map(|_| {
                if self.dropout > 0.0 && rng.gen::<f64>() < self.dropout {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();

        // Hidden activations after ReLU + dropout: m × h.
        let mut act = vec![vec![0.0f64; h]; m];
        let mut relu_on = vec![vec![false; h]; m];
        for (bi, &i) in batch.iter().enumerate() {
            let z = net.w1.matvec(set.x(i));
            for j in 0..h {
                let pre = z[j] + net.b1[j];
                if pre > 0.0 {
                    relu_on[bi][j] = true;
                    act[bi][j] = pre * mask[j];
                }
            }
        }

        // Batch statistics per hidden unit.
        let mut mu = vec![0.0f64; h];
        let mut var = vec![0.0f64; h];
        for a in &act {
            for j in 0..h {
                mu[j] += a[j];
            }
        }
        for x in &mut mu {
            *x /= m_f;
        }
        for a in &act {
            for j in 0..h {
                let d = a[j] - mu[j];
                var[j] += d * d;
            }
        }
        for x in &mut var {
            *x /= m_f;
        }

        // Update running stats for inference.
        for j in 0..h {
            net.running_mean[j] =
                BN_RUNNING_MOMENTUM * net.running_mean[j] + (1.0 - BN_RUNNING_MOMENTUM) * mu[j];
            net.running_var[j] =
                BN_RUNNING_MOMENTUM * net.running_var[j] + (1.0 - BN_RUNNING_MOMENTUM) * var[j];
        }

        // Normalized activations and output.
        let inv_std: Vec<f64> = var.iter().map(|v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let mut xhat = vec![vec![0.0f64; h]; m];
        let mut margins = vec![0.0f64; m];
        for bi in 0..m {
            let mut out = net.b2;
            for j in 0..h {
                let xh = (act[bi][j] - mu[j]) * inv_std[j];
                xhat[bi][j] = xh;
                out += net.w2[j] * (net.gamma[j] * xh + net.beta[j]);
            }
            margins[bi] = out;
        }

        // --- Backward pass (L2 loss on sigmoid output) ---
        let mut d_margin = vec![0.0f64; m];
        for (bi, &i) in batch.iter().enumerate() {
            let p = 1.0 / (1.0 + (-margins[bi]).exp());
            let y = if set.y(i) { 1.0 } else { 0.0 };
            d_margin[bi] = 2.0 * (p - y) * p * (1.0 - p) / m_f;
        }

        let mut g_w2 = vec![0.0f64; h];
        let mut g_b2 = 0.0f64;
        // Gradient wrt batchnorm output per example: d_margin * w2.
        let mut g_gamma = vec![0.0f64; h];
        let mut g_beta = vec![0.0f64; h];
        let mut d_xhat = vec![vec![0.0f64; h]; m];
        for bi in 0..m {
            g_b2 += d_margin[bi];
            for j in 0..h {
                let bn_out = net.gamma[j] * xhat[bi][j] + net.beta[j];
                g_w2[j] += d_margin[bi] * bn_out;
                let d_bn = d_margin[bi] * net.w2[j];
                g_gamma[j] += d_bn * xhat[bi][j];
                g_beta[j] += d_bn;
                d_xhat[bi][j] = d_bn * net.gamma[j];
            }
        }

        // Batch-norm backward to activations.
        let mut sum_dxhat = vec![0.0f64; h];
        let mut sum_dxhat_xhat = vec![0.0f64; h];
        for bi in 0..m {
            for j in 0..h {
                sum_dxhat[j] += d_xhat[bi][j];
                sum_dxhat_xhat[j] += d_xhat[bi][j] * xhat[bi][j];
            }
        }
        // d_act[bi][j] = inv_std/m * (m*d_xhat - sum_dxhat - xhat*sum_dxhat_xhat)
        let mut g_w1 = Matrix::zeros(net.w1.rows(), net.w1.cols());
        let mut g_b1 = vec![0.0f64; h];
        for (bi, &i) in batch.iter().enumerate() {
            let x = set.x(i);
            for j in 0..h {
                let d_act = inv_std[j] / m_f
                    * (m_f * d_xhat[bi][j] - sum_dxhat[j] - xhat[bi][j] * sum_dxhat_xhat[j]);
                // Through dropout and ReLU.
                if !relu_on[bi][j] || mask[j] == 0.0 {
                    continue;
                }
                let d_pre = d_act * mask[j];
                g_b1[j] += d_pre;
                let row = g_w1.row_mut(j);
                for (cell, &xv) in row.iter_mut().zip(x) {
                    *cell += d_pre * xv;
                }
            }
        }

        // --- SGD with momentum ---
        v_w1.scale(self.momentum);
        v_w1.axpy(-lr, &g_w1);
        net.w1.axpy(1.0, v_w1);
        let upd = |v: &mut [f64], g: &[f64], p: &mut [f64], momentum: f64| {
            for j in 0..v.len() {
                v[j] = momentum * v[j] - lr * g[j];
                p[j] += v[j];
            }
        };
        upd(v_b1, &g_b1, &mut net.b1, self.momentum);
        upd(v_gamma, &g_gamma, &mut net.gamma, self.momentum);
        upd(v_beta, &g_beta, &mut net.beta, self.momentum);
        upd(v_w2, &g_w2, &mut net.w2, self.momentum);
        *v_b2 = self.momentum * *v_b2 - lr * g_b2;
        net.b2 += *v_b2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring() -> (Vec<Vec<f64>>, Vec<bool>) {
        // Non-linearly separable: positive inside a radius.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let a = i as f64 * 0.7;
            let r = if i % 2 == 0 { 0.3 } else { 1.0 };
            xs.push(vec![r * a.cos(), r * a.sin()]);
            ys.push(r < 0.5);
        }
        (xs, ys)
    }

    fn accuracy(net: &NeuralNet, xs: &[Vec<f64>], ys: &[bool]) -> f64 {
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| net.predict(x) == y)
            .count();
        correct as f64 / xs.len() as f64
    }

    #[test]
    fn learns_nonlinear_ring() {
        let (xs, ys) = ring();
        let set = TrainSet::new(&xs, &ys);
        let cfg = NnConfig {
            hidden: 32,
            epochs: 400,
            batch_size: 16,
            learning_rate: 0.2,
            momentum: 0.5,
            dropout: 0.0,
            ..NnConfig::default()
        };
        let net = cfg.train(&set, &mut StdRng::seed_from_u64(3));
        let acc = accuracy(&net, &xs, &ys);
        assert!(acc >= 0.95, "accuracy {acc}");
    }

    #[test]
    fn paper_defaults_make_progress() {
        let (xs, ys) = ring();
        let set = TrainSet::new(&xs, &ys);
        let net = NnConfig::default().train(&set, &mut StdRng::seed_from_u64(3));
        let acc = accuracy(&net, &xs, &ys);
        assert!(acc >= 0.6, "accuracy {acc}");
    }

    #[test]
    fn margin_is_presigmoid_output() {
        let (xs, ys) = ring();
        let set = TrainSet::new(&xs, &ys);
        let net = NnConfig::default().train(&set, &mut StdRng::seed_from_u64(3));
        for x in xs.iter().take(10) {
            let m = net.decision_value(x);
            let p = net.positive_probability(x);
            let expect = 1.0 / (1.0 + (-m).exp());
            assert!((p - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = ring();
        let set = TrainSet::new(&xs, &ys);
        let cfg = NnConfig {
            epochs: 3,
            ..NnConfig::default()
        };
        let a = cfg.train(&set, &mut StdRng::seed_from_u64(77));
        let b = cfg.train(&set, &mut StdRng::seed_from_u64(77));
        for (x, _) in xs.iter().zip(&ys).take(20) {
            assert_eq!(a.decision_value(x), b.decision_value(x));
        }
    }

    #[test]
    fn empty_training_set_is_safe() {
        let xs: Vec<Vec<f64>> = vec![];
        let ys: Vec<bool> = vec![];
        let set = TrainSet::new(&xs, &ys);
        let net = NnConfig::default().train(&set, &mut StdRng::seed_from_u64(1));
        let _ = net.decision_value(&[]);
    }
}
