//! Learner-aware QBC for tree ensembles (§4.1.1).
//!
//! A random forest already contains a committee — its trees — built during
//! training, so the bootstrap committee-creation step of learner-agnostic
//! QBC is unnecessary. Selection only scores the unlabeled pool by the
//! forest's vote variance, which is why Fig. 10c shows near-flat selection
//! times across forest sizes and Fig. 13 shows trees with the lowest user
//! wait times.

use crate::corpus::Corpus;
use alem_par::Parallelism;
use mlcore::forest::RandomForest;

/// Vote-variance scores for the pool, aligned with `unlabeled`; higher =
/// more tree disagreement. Thread-count invariant.
pub fn score_pool(
    forest: &RandomForest,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64> {
    par.map(unlabeled, |&i| forest.vote_variance(corpus.x(i)))
}

#[cfg(test)]
mod tests {
    use crate::corpus::Corpus;
    use crate::strategy::{Strategy, TreeQbcStrategy};
    use alem_obs::Registry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        Corpus::from_features(feats, truth).unwrap()
    }

    #[test]
    fn no_committee_creation_time() {
        let c = corpus();
        let labeled: Vec<(usize, bool)> = [0, 10, 20, 30, 60, 70, 80, 90]
            .iter()
            .map(|&i| (i, c.truth(i)))
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = TreeQbcStrategy::new(10);
        s.fit(&c, &labeled, &mut rng).unwrap();
        let unlabeled: Vec<usize> = (0..100)
            .filter(|i| !labeled.iter().any(|(j, _)| j == i))
            .collect();
        let sel = s.select(
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
        );
        assert_eq!(sel.committee_creation, Duration::ZERO);
        assert_eq!(sel.chosen.len(), 10);
        for i in &sel.chosen {
            assert!(unlabeled.contains(i));
        }
    }
}
