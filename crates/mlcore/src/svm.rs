//! Linear support vector machine trained by stochastic gradient descent on
//! the L2-regularized hinge loss (Pegasos).
//!
//! The trained model exposes its weight vector and bias — margin-based
//! example selection needs `|w·x + b|` (paper §4.2.1) and the selection-time
//! blocking optimization needs the top-K `|w|` dimensions (paper §5.1).

use crate::data::TrainSet;
use crate::Classifier;
use linalg::panel::{self, Panel};
use linalg::vector::{dot, scale};
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters for [`LinearSvm`] training.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// L2 regularization strength λ in the Pegasos objective.
    pub lambda: f64,
    /// Number of passes over the (shuffled) training data.
    pub epochs: usize,
    /// Multiplier on the hinge gradient of positive examples; values > 1
    /// compensate class skew. 1.0 = unweighted.
    pub positive_weight: f64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            lambda: 1e-4,
            epochs: 40,
            positive_weight: 1.0,
        }
    }
}

impl SvmConfig {
    /// Train a linear SVM on `set`. Deterministic for a given RNG state.
    ///
    /// Returns a zero model for an empty training set (it predicts
    /// non-match everywhere, matching the paper's cold-start behaviour
    /// before the seed labels arrive).
    pub fn train<R: Rng>(&self, set: &TrainSet<'_>, rng: &mut R) -> LinearSvm {
        self.train_weighted(set, None, rng)
    }

    /// Train with optional per-example importance weights (IWAL-style
    /// inverse-propensity weights). `None` = uniform weights; otherwise
    /// `weights.len()` must equal `set.len()`.
    pub fn train_weighted<R: Rng>(
        &self,
        set: &TrainSet<'_>,
        weights: Option<&[f64]>,
        rng: &mut R,
    ) -> LinearSvm {
        let dim = set.dim();
        let state = SvmWarmState::zero(dim);
        if set.is_empty() || dim == 0 {
            return LinearSvm {
                weights: state.weights,
                bias: state.bias,
            };
        }
        let out = self.run_one(set, weights, state, self.epochs, rng);
        LinearSvm {
            weights: out.weights,
            bias: out.bias,
        }
    }

    /// Continue Pegasos from a previous round's optimizer state: `epochs`
    /// more passes over `set`, with the step-size schedule `η = 1/(λt)`
    /// resuming at `state.t` instead of restarting — the warm rounds are
    /// a continuation of one long optimization, not a fresh solve.
    ///
    /// Returns the refined model and the state to carry into the next
    /// round. `state.weights.len()` must equal `set.dim()` (or the set
    /// must be empty, which returns the state unchanged).
    pub fn train_warm<R: Rng>(
        &self,
        set: &TrainSet<'_>,
        state: SvmWarmState,
        epochs: usize,
        rng: &mut R,
    ) -> (LinearSvm, SvmWarmState) {
        if set.is_empty() || set.dim() == 0 {
            let model = LinearSvm {
                weights: state.weights.clone(),
                bias: state.bias,
            };
            return (model, state);
        }
        assert_eq!(state.weights.len(), set.dim(), "warm state/dim mismatch");
        let out = self.run_one(set, None, state, epochs, rng);
        let model = LinearSvm {
            weights: out.weights.clone(),
            bias: out.bias,
        };
        (model, out)
    }

    /// Train one model per bootstrap, in lockstep, over one shared table
    /// of labeled rows that every member indexes instead of copying.
    /// Member `(boot, rng)` trains on `rows[boot[0]], rows[boot[1]], …`
    /// with its own `rng`, and its model equals [`SvmConfig::train`] on a
    /// copy of those rows and labels with that `rng`, bit for bit.
    ///
    /// # Panics
    /// Panics when `rows` and `labels` differ in length, rows are ragged,
    /// bootstraps differ in length, or an index is out of range.
    pub fn train_bootstraps<R: Rng>(
        &self,
        rows: &[&[f64]],
        labels: &[bool],
        members: Vec<(Vec<usize>, R)>,
    ) -> Vec<LinearSvm> {
        assert_eq!(rows.len(), labels.len(), "features/labels length mismatch");
        let dim = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == dim), "ragged feature matrix");
        let n = members.first().map_or(0, |(boot, _)| boot.len());
        assert!(
            members.iter().all(|(boot, _)| boot.len() == n),
            "bootstraps differ in length"
        );
        if n == 0 || dim == 0 {
            // What `train` returns for each member's (empty or 0-dim) copy.
            let zero = LinearSvm {
                weights: Vec::new(),
                bias: 0.0,
            };
            return vec![zero; members.len()];
        }
        let mut w = vec![0.0; members.len() * dim];
        let mut members: Vec<Member<R>> = members
            .into_iter()
            .map(|(order, rng)| Member {
                order,
                rng,
                bias: 0.0,
                t: 0,
            })
            .collect();
        self.lockstep(rows, labels, None, &mut w, &mut members, self.epochs);
        w.chunks_exact(dim)
            .zip(&members)
            .map(|(wm, m)| LinearSvm {
                weights: wm.to_vec(),
                bias: m.bias,
            })
            .collect()
    }

    /// [`SvmConfig::lockstep`] with one member: `epochs` shuffled passes
    /// over all of `set`, continuing from `state`.
    fn run_one<R: Rng>(
        &self,
        set: &TrainSet<'_>,
        weights: Option<&[f64]>,
        state: SvmWarmState,
        epochs: usize,
        rng: &mut R,
    ) -> SvmWarmState {
        if let Some(ws) = weights {
            assert_eq!(ws.len(), set.len(), "weight/example mismatch");
        }
        let SvmWarmState {
            weights: mut w,
            bias,
            t,
        } = state;
        let mut members = [Member {
            order: (0..set.len()).collect(),
            rng,
            bias,
            t,
        }];
        self.lockstep(
            set.features(),
            set.labels(),
            weights,
            &mut w,
            &mut members,
            epochs,
        );
        let [m] = members;
        SvmWarmState {
            weights: w,
            bias: m.bias,
            t: m.t,
        }
    }

    /// The Pegasos loop, shared by every way of training: `epochs`
    /// passes in which each member first reshuffles its `order` with its
    /// own RNG, then every member takes step `s` before any takes step
    /// `s + 1`. The members' margins at a step are independent dot
    /// products, computed interleaved by [`panel::dots`] with the bits of
    /// one [`linalg::dot`] each; every other operation is the same per
    /// member as when it trains alone. `w` holds the members' weight
    /// vectors back to back, each as long as a row; `weights` are per
    /// table row.
    fn lockstep<X: AsRef<[f64]>, G: Rng>(
        &self,
        rows: &[X],
        labels: &[bool],
        weights: Option<&[f64]>,
        w: &mut [f64],
        members: &mut [Member<G>],
        epochs: usize,
    ) {
        let Some(n) = members.first().map(|m| m.order.len()) else {
            return;
        };
        let dim = w.len() / members.len();
        let mut xs: Vec<&[f64]> = vec![&[]; members.len()];
        let mut margins = vec![0.0; members.len()];
        for _ in 0..epochs {
            for m in members.iter_mut() {
                m.order.shuffle(&mut m.rng);
            }
            for s in 0..n {
                for (x, m) in xs.iter_mut().zip(members.iter()) {
                    *x = rows[m.order[s]].as_ref();
                }
                panel::dots(dim, w, &xs, &mut margins);
                for (q, m) in members.iter_mut().enumerate() {
                    let (wm, x, wx) = (&mut w[q * dim..][..dim], xs[q], margins[q]);
                    let i = m.order[s];
                    m.t += 1;
                    let eta = 1.0 / (self.lambda * m.t as f64);
                    let y = if labels[i] { 1.0 } else { -1.0 };
                    let margin = y * (wx + m.bias);
                    // Regularization shrink (bias is conventionally
                    // unshrunk), then the hinge step, in one pass: each
                    // weight is rounded after `* shrink` and again after
                    // `+ step * x`, as in two passes.
                    let shrink = 1.0 - eta * self.lambda;
                    if margin < 1.0 {
                        let cw = if labels[i] { self.positive_weight } else { 1.0 };
                        let iw = weights.map_or(1.0, |ws| ws[i]);
                        let step = eta * cw * iw * y;
                        for (wj, xj) in wm.iter_mut().zip(x) {
                            *wj = *wj * shrink + step * xj;
                        }
                        m.bias += step;
                    } else {
                        scale(shrink, wm);
                    }
                }
            }
        }
    }
}

/// One model in [`SvmConfig::lockstep`]: the table rows it trains on
/// (its bootstrap, or every row), reshuffled in place each epoch, its RNG
/// and the scalar part of its optimizer state.
struct Member<G> {
    order: Vec<usize>,
    rng: G,
    bias: f64,
    t: u64,
}

/// Resumable Pegasos optimizer state: the weight vector, bias, and the
/// global step counter `t` that drives the `η = 1/(λt)` schedule. Carried
/// across AL rounds by warm-started strategies and serialized into
/// session checkpoints so a resumed run continues bit-identically.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SvmWarmState {
    /// Current weight vector.
    pub weights: Vec<f64>,
    /// Current bias.
    pub bias: f64,
    /// Global Pegasos step count so far.
    pub t: u64,
}

impl SvmWarmState {
    /// Cold-start state: zero model, schedule at the beginning.
    pub fn zero(dim: usize) -> Self {
        SvmWarmState {
            weights: vec![0.0; dim],
            bias: 0.0,
            t: 0,
        }
    }

    /// State equivalent to having cold-trained `model` with `cfg` on `n`
    /// examples: the schedule advances by `epochs × n` steps. Lets a
    /// warm-started strategy seed its state from an ordinary first fit.
    pub fn after_cold_fit(model: &LinearSvm, cfg: &SvmConfig, n: usize) -> Self {
        SvmWarmState {
            weights: model.weights().to_vec(),
            bias: model.bias(),
            t: (cfg.epochs * n) as u64,
        }
    }
}

/// A trained linear SVM: `f(x) = w·x + b`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Construct directly from weights and bias (used by tests and by the
    /// active-ensemble union model).
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        LinearSvm { weights, bias }
    }

    /// The separating hyperplane's weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Margin of an example: `|w·x + b|`, the learner-aware ambiguity
    /// measure for margin-based selection (sign ignored per §4.2.1).
    pub fn margin(&self, x: &[f64]) -> f64 {
        self.decision_value(x).abs()
    }

    /// Pack `models` for [`Panel::eval`], which then gives each model's
    /// [`Classifier::decision_value`] on every row, bit for bit.
    ///
    /// # Panics
    /// Panics when the models differ in dimensionality.
    pub fn panel(models: &[LinearSvm]) -> Panel {
        let dim = models.first().map_or(0, |m| m.weights.len());
        Panel::pack(dim, models.iter().map(|m| (m.weights.as_slice(), m.bias)))
    }

    /// Indices of the `k` dimensions with the largest `|w|`, descending —
    /// the blocking dimensions of §5.1.
    pub fn top_weight_dims(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| {
            self.weights[b]
                .abs()
                .partial_cmp(&self.weights[a].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }
}

impl Classifier for LinearSvm {
    fn decision_value(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    fn decision_values<'a>(&self, rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
        let mut values = Vec::new();
        LinearSvm::panel(std::slice::from_ref(self)).eval(rows, |v| values.extend_from_slice(v));
        values
    }

    fn committee_votes<'a>(
        committee: &[Self],
        rows: impl IntoIterator<Item = &'a [f64]>,
    ) -> Vec<usize> {
        let mut votes = Vec::new();
        LinearSvm::panel(committee).eval(rows, |values| {
            votes.push(values.iter().filter(|&&v| v > 0.0).count());
        });
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A feature or weight for the kernel checks: often a signed zero,
    /// else mixed signs across several magnitudes.
    fn cell(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            k => (rng.gen::<f64>() - 0.5) * 10f64.powi(k as i32 - 4),
        }
    }

    /// `k` models on `n` rows of `dim` features through the panel kernel,
    /// `committee_votes` and each model's `decision_values`: every value
    /// has the bits of `decision_value`, every vote count matches
    /// `predict`. Every third
    /// model has only negative weights and a `-0.0` bias, and every third
    /// row only signed zeros, so a chain that started at `+0.0` would
    /// show.
    fn check_panel(dim: usize, k: usize, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let committee: Vec<LinearSvm> = (0..k)
            .map(|m| {
                if m % 3 == 0 {
                    let w = (0..dim).map(|_| -cell(&mut rng).abs()).collect();
                    LinearSvm::from_parts(w, -0.0)
                } else {
                    let w = (0..dim).map(|_| cell(&mut rng)).collect();
                    LinearSvm::from_parts(w, cell(&mut rng))
                }
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                (0..dim)
                    .map(|_| match r % 3 {
                        0 if rng.gen::<bool>() => -0.0,
                        0 => 0.0,
                        _ => cell(&mut rng),
                    })
                    .collect()
            })
            .collect();
        let mut j = 0;
        LinearSvm::panel(&committee).eval(rows.iter().map(Vec::as_slice), |values| {
            assert_eq!(values.len(), k);
            for (m, v) in committee.iter().zip(values) {
                let want = m.decision_value(&rows[j]);
                assert_eq!(v.to_bits(), want.to_bits(), "dim={dim} k={k} n={n} row={j}");
            }
            j += 1;
        });
        assert_eq!(j, n);
        let votes: Vec<usize> = rows
            .iter()
            .map(|x| committee.iter().filter(|m| m.predict(x)).count())
            .collect();
        assert_eq!(
            LinearSvm::committee_votes(&committee, rows.iter().map(Vec::as_slice)),
            votes
        );
        let bits = |vs: Vec<f64>| vs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for m in &committee {
            let want = bits(rows.iter().map(|x| m.decision_value(x)).collect());
            assert_eq!(
                bits(m.decision_values(rows.iter().map(Vec::as_slice))),
                want
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Panel decision values are bit-identical to one
        /// `decision_value` each, for any model count (lane
        /// non-multiples included) and pool length (row-block
        /// non-multiples included).
        #[test]
        fn panel_values_have_decision_value_bits(
            dim in 0usize..=200,
            k in 1usize..=20,
            n in 0usize..=9,
            seed in any::<u64>(),
        ) {
            check_panel(dim, k, n, seed);
        }
    }

    fn separable() -> (Vec<Vec<f64>>, Vec<bool>) {
        // Positive iff x0 > 0.5; x1 is noise.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let v = i as f64 / 60.0;
            xs.push(vec![v, (i % 7) as f64 / 7.0]);
            ys.push(v > 0.5);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        let mut rng = StdRng::seed_from_u64(1);
        let svm = SvmConfig::default().train(&set, &mut rng);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert!(correct >= 57, "only {correct}/60 correct");
    }

    #[test]
    fn empty_set_gives_zero_model() {
        let xs: Vec<Vec<f64>> = vec![];
        let ys: Vec<bool> = vec![];
        let set = TrainSet::new(&xs, &ys);
        let mut rng = StdRng::seed_from_u64(1);
        let svm = SvmConfig::default().train(&set, &mut rng);
        assert!(!svm.predict(&[]));
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        let a = SvmConfig::default().train(&set, &mut StdRng::seed_from_u64(9));
        let b = SvmConfig::default().train(&set, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn warm_training_continues_deterministically() {
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        let cfg = SvmConfig::default();
        let cold = cfg.train(&set, &mut StdRng::seed_from_u64(2));
        let state = SvmWarmState::after_cold_fit(&cold, &cfg, set.len());
        let (a, sa) = cfg.train_warm(&set, state.clone(), 5, &mut StdRng::seed_from_u64(3));
        let (b, sb) = cfg.train_warm(&set, state.clone(), 5, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // The schedule advanced by 5 passes over the set.
        assert_eq!(sa.t, state.t + 5 * set.len() as u64);
        // Warm refinement keeps the model accurate.
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| a.predict(x) == y)
            .count();
        assert!(correct >= 57, "only {correct}/60 correct after warm rounds");
    }

    #[test]
    fn warm_training_with_zero_epochs_is_identity() {
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        let cfg = SvmConfig::default();
        let cold = cfg.train(&set, &mut StdRng::seed_from_u64(2));
        let state = SvmWarmState::after_cold_fit(&cold, &cfg, set.len());
        let (m, s) = cfg.train_warm(&set, state.clone(), 0, &mut StdRng::seed_from_u64(9));
        assert_eq!(m.weights(), cold.weights());
        assert_eq!(m.bias(), cold.bias());
        assert_eq!(s, state);
    }

    #[test]
    fn warm_training_on_empty_set_returns_state_unchanged() {
        let xs: Vec<Vec<f64>> = vec![];
        let ys: Vec<bool> = vec![];
        let set = TrainSet::new(&xs, &ys);
        let state = SvmWarmState {
            weights: vec![1.0, -2.0],
            bias: 0.5,
            t: 77,
        };
        let (m, s) =
            SvmConfig::default().train_warm(&set, state.clone(), 3, &mut StdRng::seed_from_u64(1));
        assert_eq!(m.weights(), &[1.0, -2.0]);
        assert_eq!(s, state);
    }

    #[test]
    fn margin_is_absolute_decision() {
        let svm = LinearSvm::from_parts(vec![1.0, -2.0], 0.5);
        assert_eq!(svm.decision_value(&[1.0, 1.0]), -0.5);
        assert_eq!(svm.margin(&[1.0, 1.0]), 0.5);
    }

    #[test]
    fn top_weight_dims_orders_by_magnitude() {
        let svm = LinearSvm::from_parts(vec![0.1, -3.0, 2.0, 0.0], 0.0);
        assert_eq!(svm.top_weight_dims(2), vec![1, 2]);
        assert_eq!(svm.top_weight_dims(10).len(), 4);
    }

    #[test]
    fn weighted_training_matches_uniform_when_weights_are_one() {
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        let ones = vec![1.0; xs.len()];
        let a = SvmConfig::default().train(&set, &mut StdRng::seed_from_u64(4));
        let b =
            SvmConfig::default().train_weighted(&set, Some(&ones), &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn importance_weights_tilt_the_model() {
        // Upweighting one mislabeled-looking point should move the model.
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        // Upweight a boundary example — those violate the hinge during
        // training, so their weight actually shows up in the updates.
        let mut ws = vec![1.0; xs.len()];
        ws[30] = 50.0;
        let uniform = SvmConfig::default().train(&set, &mut StdRng::seed_from_u64(4));
        let weighted =
            SvmConfig::default().train_weighted(&set, Some(&ws), &mut StdRng::seed_from_u64(4));
        assert_ne!(uniform, weighted);
    }

    #[test]
    #[should_panic(expected = "weight/example mismatch")]
    fn weighted_training_rejects_bad_lengths() {
        let (xs, ys) = separable();
        let set = TrainSet::new(&xs, &ys);
        let _ =
            SvmConfig::default().train_weighted(&set, Some(&[1.0]), &mut StdRng::seed_from_u64(4));
    }

    #[test]
    fn positive_weight_shifts_boundary_toward_recall() {
        // Skewed data: few positives. A large positive weight should not
        // reduce recall.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            xs.push(vec![v]);
            ys.push(v > 0.9);
        }
        let set = TrainSet::new(&xs, &ys);
        let unweighted = SvmConfig::default().train(&set, &mut StdRng::seed_from_u64(3));
        let weighted = SvmConfig {
            positive_weight: 5.0,
            ..SvmConfig::default()
        }
        .train(&set, &mut StdRng::seed_from_u64(3));
        let recall = |m: &LinearSvm| {
            let tp = xs
                .iter()
                .zip(&ys)
                .filter(|(x, &y)| y && m.predict(x))
                .count();
            tp as f64 / ys.iter().filter(|&&y| y).count() as f64
        };
        assert!(recall(&weighted) >= recall(&unweighted));
    }
}
