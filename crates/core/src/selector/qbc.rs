//! Learner-agnostic query-by-committee (§4.1).
//!
//! Draws `B` bootstrap resamples of the labeled data, trains a committee of
//! `B` classifiers, and scores every unlabeled example by the vote variance
//! of Mozafari et al.: `(P/C)(1 − P/C)` where `P` of `C` committee members
//! vote match. Examples with the highest variance are the most ambiguous.
//! The latency is reported split into committee-creation and
//! example-scoring time, the decomposition plotted in Fig. 10.

use crate::corpus::Corpus;
use crate::learner::Trainer;
use alem_par::Parallelism;
use mlcore::data::bootstrap_indices;
use mlcore::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Train a bootstrap committee of `size` models on the labeled examples,
/// one worker per chunk of members.
///
/// Every member gets its own `StdRng` seeded from a u64 pre-drawn on the
/// caller's thread, so member `i`'s bootstrap sample and training run are
/// independent of scheduling: the committee is byte-identical for any
/// thread count. Members index one shared table of the labeled rows
/// (borrowed from the corpus) through [`Trainer::train_bootstraps`], once
/// per chunk.
///
/// Returns an empty committee when `use_bool_features` is requested on a
/// corpus without Boolean predicates — [`crate::strategy::Strategy::fit`]
/// rejects that configuration before selection can reach this point.
pub fn train_committee<T: Trainer>(
    trainer: &T,
    corpus: &Corpus,
    labeled: &[(usize, bool)],
    size: usize,
    rng: &mut StdRng,
    use_bool_features: bool,
    par: &Parallelism,
) -> Vec<T::Model> {
    let bools = if use_bool_features {
        match corpus.bool_features() {
            Some(b) => Some(b),
            None => return Vec::new(),
        }
    } else {
        None
    };
    let x = |i: usize| -> &[f64] {
        match bools {
            Some(b) => &b[i],
            None => corpus.x(i),
        }
    };
    let table: Vec<&[f64]> = labeled.iter().map(|&(i, _)| x(i)).collect();
    let ys: Vec<bool> = labeled.iter().map(|&(_, y)| y).collect();
    let seeds: Vec<u64> = (0..size).map(|_| rng.gen()).collect();
    par.map_chunks(&seeds, |chunk| {
        let members = chunk
            .iter()
            .map(|&seed| {
                let mut mrng = StdRng::seed_from_u64(seed);
                let boot = bootstrap_indices(labeled.len(), &mut mrng);
                (boot, mrng)
            })
            .collect();
        trainer.train_bootstraps(&table, &ys, members)
    })
}

/// Vote-variance scores for the pool, aligned with `unlabeled`; higher =
/// more committee disagreement. Each chunk of the pool is voted on in one
/// [`Classifier::committee_votes`] call, so a linear committee is
/// evaluated with linalg's blocked kernel. Thread-count invariant.
pub fn score_pool<M: Classifier + Sync>(
    committee: &[M],
    corpus: &Corpus,
    unlabeled: &[usize],
    use_bool_features: bool,
    par: &Parallelism,
) -> Vec<f64> {
    let bools = if use_bool_features {
        corpus.bool_features()
    } else {
        None
    };
    let x = |i: usize| -> &[f64] {
        match bools {
            Some(b) => &b[i],
            None => corpus.x(i),
        }
    };
    par.map_chunks(unlabeled, |chunk| {
        M::committee_votes(committee, chunk.iter().map(|&i| x(i)))
            .into_iter()
            .map(|votes| {
                let p = votes as f64 / committee.len() as f64;
                p * (1.0 - p)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::SvmTrainer;
    use crate::strategy::{QbcStrategy, Strategy};
    use alem_obs::Registry;
    use mlcore::data::TrainSet;
    use mlcore::svm::{LinearSvm, SvmConfig};
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The lockstep committee, members indexing one shared table,
        /// equals one `SvmConfig::train` per member on a copy of its
        /// bootstrap rows, bit for bit, at every thread count.
        #[test]
        fn lockstep_committee_matches_per_member_training(
            size in 1usize..=11,
            dim in 1usize..=12,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let feats: Vec<Vec<f64>> = (0..600)
                .map(|_| (0..dim).map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen() }).collect())
                .collect();
            let truth: Vec<bool> = feats.iter().map(|x| x[0] + rng.gen::<f64>() * 0.3 > 0.7).collect();
            let c = Corpus::from_features(feats, truth).unwrap();
            for n in [0, 1, 2, 600] {
                let labeled: Vec<(usize, bool)> = (0..n).map(|i| (i, c.truth(i))).collect();
                let mut seeds = StdRng::seed_from_u64(seed ^ 0x5eed);
                let want: Vec<LinearSvm> = (0..size)
                    .map(|_| {
                        let mut mrng = StdRng::seed_from_u64(seeds.gen());
                        let boot = bootstrap_indices(n, &mut mrng);
                        let xs: Vec<Vec<f64>> = boot.iter().map(|&j| c.x(j).to_vec()).collect();
                        let ys: Vec<bool> = boot.iter().map(|&j| labeled[j].1).collect();
                        SvmConfig::default().train(&TrainSet::new(&xs, &ys), &mut mrng)
                    })
                    .collect();
                for threads in [1, 2, 3, 8] {
                    let got = train_committee(
                        &SvmTrainer::default(),
                        &c,
                        &labeled,
                        size,
                        &mut StdRng::seed_from_u64(seed ^ 0x5eed),
                        false,
                        &Parallelism::fixed(threads),
                    );
                    prop_assert_eq!(got.len(), size);
                    for (g, w) in got.iter().zip(&want) {
                        let bits = |m: &LinearSvm| -> Vec<u64> {
                            m.weights().iter().chain([m.bias()].iter()).map(|v| v.to_bits()).collect()
                        };
                        prop_assert_eq!(bits(g), bits(w), "n={} threads={}", n, threads);
                    }
                }
            }
        }
    }

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        Corpus::from_features(feats, truth).unwrap()
    }

    fn labeled_seed(c: &Corpus) -> Vec<(usize, bool)> {
        [0, 10, 20, 30, 60, 70, 80, 90]
            .iter()
            .map(|&i| (i, c.truth(i)))
            .collect()
    }

    #[test]
    fn committee_has_requested_size() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let committee = train_committee(
            &SvmTrainer::default(),
            &c,
            &labeled,
            5,
            &mut rng,
            false,
            &Parallelism::sequential(),
        );
        assert_eq!(committee.len(), 5);
    }

    #[test]
    fn committee_is_thread_count_invariant() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let train = |par: Parallelism| {
            let mut rng = StdRng::seed_from_u64(7);
            train_committee(
                &SvmTrainer::default(),
                &c,
                &labeled,
                6,
                &mut rng,
                false,
                &par,
            )
        };
        let seq = train(Parallelism::sequential());
        for t in [2, 3, 8] {
            let p = train(Parallelism::fixed(t));
            for (a, b) in seq.iter().zip(&p) {
                for i in 0..c.len() {
                    assert_eq!(
                        a.decision_value(c.x(i)),
                        b.decision_value(c.x(i)),
                        "threads={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn selects_from_unlabeled_only() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let unlabeled: Vec<usize> = (0..100)
            .filter(|i| !labeled.iter().any(|(j, _)| j == i))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = QbcStrategy::new(SvmTrainer::default(), 4).select(
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
        );
        assert_eq!(sel.chosen.len(), 10);
        for i in &sel.chosen {
            assert!(unlabeled.contains(i));
        }
        // No duplicates.
        let mut sorted = sel.chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn ambiguous_examples_cluster_near_boundary() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let unlabeled: Vec<usize> = (0..100)
            .filter(|i| !labeled.iter().any(|(j, _)| j == i))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = QbcStrategy::new(SvmTrainer::default(), 8).select(
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
        );
        // The decision boundary is at 0.5; the committee should disagree
        // mostly near it.
        let near = sel
            .chosen
            .iter()
            .filter(|&&i| (0.3..0.7).contains(&c.x(i)[0]))
            .count();
        assert!(near >= 6, "only {near}/10 chosen near the boundary");
    }

    #[test]
    fn variance_bounds() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let committee = train_committee(
            &SvmTrainer::default(),
            &c,
            &labeled,
            6,
            &mut rng,
            false,
            &Parallelism::sequential(),
        );
        let all: Vec<usize> = (0..c.len()).collect();
        let scores = score_pool(&committee, &c, &all, false, &Parallelism::sequential());
        assert_eq!(scores.len(), c.len());
        for v in scores {
            assert!((0.0..=0.25 + 1e-12).contains(&v));
        }
    }
}
