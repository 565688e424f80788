//! `mlcore` — the classifier suite behind the alem benchmark framework.
//!
//! Implements the four learner families the SIGMOD 2020 paper plugs into its
//! active-learning pipeline (§1, §4):
//!
//! * [`svm`] — linear SVM trained with SGD on the regularized hinge loss
//!   (Pegasos-style), exposing its weight vector for margin-based selection
//!   and blocking dimensions.
//! * [`nn`] — a one-hidden-layer feed-forward network with ReLU, batch
//!   normalization, dropout and a sigmoid output, trained with SGD +
//!   momentum on the L2 loss, using exactly the paper's hyper-parameters.
//! * [`tree`] / [`forest`] — CART decision trees with random feature
//!   subsets and bagged random forests in the Corleone configuration
//!   (unlimited depth, `log2(D+1)` features per split).
//! * [`rules`] — monotone-DNF rule learner over Boolean
//!   similarity-threshold predicates, in the style of Qian et al.
//!
//! All model families implement [`Classifier`], the minimal surface the
//! active-learning loop needs. Training is deterministic given a seeded
//! RNG, which is what makes the paper's experiments reproducible here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod forest;
pub mod metrics;
pub mod nn;
pub mod rules;
pub mod svm;
pub mod tree;

/// A trained binary classifier over dense feature vectors.
///
/// `decision_value` returns a signed score: positive values predict the
/// positive (match) class and the magnitude expresses confidence. For a
/// linear SVM this is `w·x + b`; for the neural net it is the pre-sigmoid
/// affine output the paper calls the *margin* (§4.2.2); for ensembles it is
/// the vote balance in `[-1, 1]`.
pub trait Classifier {
    /// Signed decision score; `> 0` means the positive class.
    fn decision_value(&self, x: &[f64]) -> f64;

    /// Hard label: `true` = match.
    fn predict(&self, x: &[f64]) -> bool {
        self.decision_value(x) > 0.0
    }

    /// Probability-like confidence of the positive class in `[0, 1]`.
    /// Default squashes the decision value through a sigmoid.
    fn positive_probability(&self, x: &[f64]) -> f64 {
        1.0 / (1.0 + (-self.decision_value(x)).exp())
    }

    /// Decision values on each of `rows`, in order. The default calls
    /// [`Classifier::decision_value`] per row; [`svm::LinearSvm`]
    /// overrides it with the blocked kernel of [`linalg::panel`], which
    /// gives the same bits.
    fn decision_values<'a>(&self, rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64>
    where
        Self: Sized,
    {
        rows.into_iter().map(|x| self.decision_value(x)).collect()
    }

    /// Votes of a committee on each of `rows`: how many members
    /// [`Classifier::predict`] a match. The default asks every member
    /// about every row; [`svm::LinearSvm`] overrides it with the blocked
    /// kernel of [`linalg::panel`], which gives the same votes because its
    /// decision values have the same bits.
    fn committee_votes<'a>(
        committee: &[Self],
        rows: impl IntoIterator<Item = &'a [f64]>,
    ) -> Vec<usize>
    where
        Self: Sized,
    {
        rows.into_iter()
            .map(|x| committee.iter().filter(|m| m.predict(x)).count())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub(f64);
    impl Classifier for Stub {
        fn decision_value(&self, _x: &[f64]) -> f64 {
            self.0
        }
    }

    #[test]
    fn default_predict_thresholds_at_zero() {
        assert!(Stub(0.1).predict(&[]));
        assert!(!Stub(-0.1).predict(&[]));
        assert!(!Stub(0.0).predict(&[]));
    }

    #[test]
    fn default_decision_values_map_decision_value() {
        let rows = [[0.0], [1.0]];
        assert_eq!(
            Stub(0.5).decision_values(rows.iter().map(|r| &r[..])),
            vec![0.5, 0.5]
        );
        assert!(Stub(0.5).decision_values([]).is_empty());
    }

    #[test]
    fn default_committee_votes_count_predictions() {
        let committee = [Stub(1.0), Stub(-1.0), Stub(2.0)];
        let rows = [[0.0], [1.0]];
        let votes = Stub::committee_votes(&committee, rows.iter().map(|r| &r[..]));
        assert_eq!(votes, vec![2, 2]);
        assert!(Stub::committee_votes(&committee, []).is_empty());
    }

    #[test]
    fn default_probability_is_sigmoid() {
        assert!((Stub(0.0).positive_probability(&[]) - 0.5).abs() < 1e-12);
        assert!(Stub(5.0).positive_probability(&[]) > 0.99);
        assert!(Stub(-5.0).positive_probability(&[]) < 0.01);
    }
}
