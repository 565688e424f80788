//! The [`Trainer`] abstraction: anything that can produce a fresh
//! classifier from labeled data.
//!
//! The paper's framework (Fig. 2) models learners as a class hierarchy so
//! the same pipeline drives every classifier family; here the equivalent is
//! a small trait implemented by thin wrappers around the `mlcore` training
//! configs. Learner-agnostic QBC (§4.1) retrains a committee of models from
//! bootstrap resamples, which is [`Trainer::train_bootstraps`]: by
//! default "call [`Trainer::train`] B times".

use crate::model_io::SavedModel;
use mlcore::data::TrainSet;
use mlcore::forest::{ForestConfig, RandomForest};
use mlcore::nn::{NeuralNet, NnConfig};
use mlcore::rules::{Dnf, DnfConfig};
use mlcore::svm::{LinearSvm, SvmConfig};
use mlcore::Classifier;
use rand::rngs::StdRng;

/// Trains a model of a fixed family from labeled feature rows.
///
/// `Sync` (on the trainer) and `Send + Sync` (on the model) let committee
/// members train on worker threads and score the pool from shared
/// references — every implementation is a plain data struct, so the
/// bounds are free.
pub trait Trainer: Sync {
    /// The trained model type.
    type Model: Classifier + Send + Sync;

    /// Train a fresh model. Implementations must be deterministic given
    /// the RNG state.
    fn train(&self, xs: &[Vec<f64>], ys: &[bool], rng: &mut StdRng) -> Self::Model;

    /// Train one model per bootstrap over one shared table of labeled
    /// rows: member `(boot, rng)` gets the model [`Trainer::train`] makes
    /// from rows `rows[boot[j]]`, labels `ys[boot[j]]` and its `rng`.
    /// The default copies each member's rows and calls `train`;
    /// [`SvmTrainer`] trains the members in lockstep without copying.
    fn train_bootstraps(
        &self,
        rows: &[&[f64]],
        ys: &[bool],
        members: Vec<(Vec<usize>, StdRng)>,
    ) -> Vec<Self::Model> {
        members
            .into_iter()
            .map(|(boot, mut rng)| {
                // alem-lint: allow(flat-feature-store) -- O(labeled) bootstrap sample per committee member, not the pool matrix
                let xs: Vec<Vec<f64>> = boot.iter().map(|&j| rows[j].to_vec()).collect();
                let ys: Vec<bool> = boot.iter().map(|&j| ys[j]).collect();
                self.train(&xs, &ys, &mut rng)
            })
            .collect()
    }

    /// Human-readable name used in reports (e.g. `"Linear"`).
    fn name(&self) -> &'static str;

    /// Snapshot an active ensemble of this family's models for
    /// persistence, if the family supports it (see
    /// [`crate::model_io::SavedModel`]). Only [`SvmTrainer`] does.
    fn saved_ensemble(&self, _members: &[&Self::Model]) -> Option<SavedModel> {
        None
    }
}

/// Linear SVM trainer (paper's linear classifier).
#[derive(Debug, Clone, Default)]
pub struct SvmTrainer(pub SvmConfig);

impl Trainer for SvmTrainer {
    type Model = LinearSvm;

    fn train(&self, xs: &[Vec<f64>], ys: &[bool], rng: &mut StdRng) -> LinearSvm {
        self.0.train(&TrainSet::new(xs, ys), rng)
    }

    fn train_bootstraps(
        &self,
        rows: &[&[f64]],
        ys: &[bool],
        members: Vec<(Vec<usize>, StdRng)>,
    ) -> Vec<LinearSvm> {
        self.0.train_bootstraps(rows, ys, members)
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn saved_ensemble(&self, members: &[&LinearSvm]) -> Option<SavedModel> {
        Some(SavedModel::SvmEnsemble(
            members.iter().map(|&m| m.clone()).collect(),
        ))
    }
}

/// Feed-forward neural network trainer (paper's non-convex non-linear
/// classifier).
#[derive(Debug, Clone, Default)]
pub struct NnTrainer(pub NnConfig);

impl Trainer for NnTrainer {
    type Model = NeuralNet;

    fn train(&self, xs: &[Vec<f64>], ys: &[bool], rng: &mut StdRng) -> NeuralNet {
        self.0.train(&TrainSet::new(xs, ys), rng)
    }

    fn name(&self) -> &'static str {
        "Non-Convex Non-Linear"
    }
}

/// Random-forest trainer (paper's tree-based classifier, Corleone
/// settings).
#[derive(Debug, Clone, Default)]
pub struct ForestTrainer(pub ForestConfig);

impl ForestTrainer {
    /// Forest with `n` trees and paper defaults.
    pub fn with_trees(n: usize) -> Self {
        ForestTrainer(ForestConfig::with_trees(n))
    }
}

impl Trainer for ForestTrainer {
    type Model = RandomForest;

    fn train(&self, xs: &[Vec<f64>], ys: &[bool], rng: &mut StdRng) -> RandomForest {
        self.0.train(&TrainSet::new(xs, ys), rng)
    }

    fn name(&self) -> &'static str {
        "Tree-based"
    }
}

/// Monotone-DNF rule trainer (paper's rule-based classifier). Expects
/// Boolean predicate features.
#[derive(Debug, Clone, Default)]
pub struct DnfTrainer(pub DnfConfig);

impl Trainer for DnfTrainer {
    type Model = Dnf;

    fn train(&self, xs: &[Vec<f64>], ys: &[bool], _rng: &mut StdRng) -> Dnf {
        self.0.train(&TrainSet::new(xs, ys))
    }

    fn name(&self) -> &'static str {
        "Rules"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn data() -> (Vec<Vec<f64>>, Vec<bool>) {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i) / 40.0]).collect();
        let ys: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        (xs, ys)
    }

    #[test]
    fn all_trainers_produce_working_models() {
        let (xs, ys) = data();
        let mut rng = StdRng::seed_from_u64(1);
        let svm = SvmTrainer::default().train(&xs, &ys, &mut rng);
        assert!(svm.predict(&[0.95]));
        let forest = ForestTrainer::with_trees(5).train(&xs, &ys, &mut rng);
        assert!(forest.predict(&[0.95]));
        assert!(!forest.predict(&[0.05]));
        let nn = NnTrainer::default().train(&xs, &ys, &mut rng);
        let _ = nn.decision_value(&[0.95]);
        // Rules need Boolean features.
        let bx: Vec<Vec<f64>> = xs
            .iter()
            .map(|r| vec![f64::from(u8::from(r[0] >= 0.5))])
            .collect();
        let dnf = DnfTrainer::default().train(&bx, &ys, &mut rng);
        assert!(dnf.predict(&[1.0]));
        assert!(!dnf.predict(&[0.0]));
    }

    #[test]
    fn names_are_paper_families() {
        assert_eq!(SvmTrainer::default().name(), "Linear");
        assert_eq!(ForestTrainer::default().name(), "Tree-based");
        assert_eq!(NnTrainer::default().name(), "Non-Convex Non-Linear");
        assert_eq!(DnfTrainer::default().name(), "Rules");
    }
}
