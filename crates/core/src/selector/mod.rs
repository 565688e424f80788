//! Example selectors: the policies that pick which unlabeled pairs to send
//! to the Oracle.
//!
//! The paper groups them into **learner-agnostic** (bootstrap
//! query-by-committee, [`qbc`]) and **learner-aware** policies: QBC over a
//! random forest's own trees ([`tree_qbc`]), margin-based selection for
//! linear and non-convex classifiers ([`margin`]) with the optional
//! blocking-dimension pruning of §5.1 ([`blocking_dim`]), and the LFP/LFN
//! heuristic for rule learners ([`lfp_lfn`]).
//!
//! A linear SVM's margin can also be computed in stages: [`lazy_margin`]
//! is the one scan of the top-|w| dims, which reads their cells without
//! building a pair's row and skips pairs under one of two rules, §5.1's
//! all-zero test ([`blocking_dim`]) or an exact bound on the margin.

pub mod blocking_dim;
pub mod iwal;
pub mod lazy_margin;
pub mod lfp_lfn;
pub mod lsh;
pub mod margin;
pub mod qbc;
pub mod tree_qbc;

use crate::error::AlemError;
use alem_obs::Registry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Duration;

/// Score marking an example as excluded from selection (pruned by
/// blocking dimensions, covered by an accepted rule, …). Top-k consumers
/// drop excluded entries before ranking, so an excluded example is never
/// chosen even when the pool is smaller than the batch.
pub const EXCLUDED: f64 = f64::NEG_INFINITY;

/// Pair pool indices with their scores, dropping [`EXCLUDED`] entries.
pub fn scored_pool(unlabeled: &[usize], scores: &[f64]) -> Vec<(usize, f64)> {
    unlabeled
        .iter()
        .copied()
        .zip(scores.iter().copied())
        .filter(|&(_, s)| s != EXCLUDED)
        .collect()
}

/// Outcome of one selection round.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Chosen unlabeled example indices (at most the requested batch).
    pub chosen: Vec<usize>,
    /// Time spent building a classifier committee (zero for learner-aware
    /// policies — the latency decomposition of §3, "Latency").
    pub committee_creation: Duration,
    /// Time spent scoring unlabeled examples and picking the batch.
    pub scoring: Duration,
}

impl Selection {
    /// Total example-selection latency.
    pub fn total(&self) -> Duration {
        self.committee_creation + self.scoring
    }
}

/// One whole-pool selection round: run `score` (scores aligned with
/// `unlabeled`) under the `select.score` span and take the `batch`
/// highest, ties randomized. An `Err` (no model yet) gives an empty
/// [`Selection`].
pub(crate) fn select_top_k(
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    score: impl FnOnce() -> Result<Vec<f64>, AlemError>,
) -> Selection {
    let score_span = obs.span("select.score");
    let Ok(scores) = score() else {
        return Selection::default();
    };
    obs.counter_add("select.pairs_scored", scores.len() as u64);
    let chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    Selection {
        chosen,
        committee_creation: Duration::ZERO,
        scoring: score_span.finish(),
    }
}

/// Pick the `k` candidates with the highest score, randomizing ties by
/// shuffling before a stable sort (the paper randomizes among equally
/// ambiguous examples, §4.1).
pub fn top_k_desc<R: Rng>(mut scored: Vec<(usize, f64)>, k: usize, rng: &mut R) -> Vec<usize> {
    scored.shuffle(rng);
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(i, _)| i).collect()
}

/// Pick the `k` candidates with the lowest score (e.g. smallest margin).
pub fn bottom_k_asc<R: Rng>(mut scored: Vec<(usize, f64)>, k: usize, rng: &mut R) -> Vec<usize> {
    scored.shuffle(rng);
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn top_k_takes_highest() {
        let scored = vec![(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7)];
        let mut rng = StdRng::seed_from_u64(1);
        let top = top_k_desc(scored, 2, &mut rng);
        assert_eq!(top.len(), 2);
        assert!(top.contains(&1) && top.contains(&3));
    }

    #[test]
    fn bottom_k_takes_lowest() {
        let scored = vec![(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7)];
        let mut rng = StdRng::seed_from_u64(1);
        let bot = bottom_k_asc(scored, 2, &mut rng);
        assert!(bot.contains(&0) && bot.contains(&2));
    }

    #[test]
    fn ties_are_randomized() {
        let scored: Vec<(usize, f64)> = (0..100).map(|i| (i, 1.0)).collect();
        let a = top_k_desc(scored.clone(), 5, &mut StdRng::seed_from_u64(1));
        let b = top_k_desc(scored, 5, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b, "different seeds should break ties differently");
    }

    #[test]
    fn k_larger_than_input_returns_all() {
        let scored = vec![(7, 0.3)];
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(top_k_desc(scored, 10, &mut rng), vec![7]);
    }

    #[test]
    fn scored_pool_drops_excluded() {
        let unlabeled = vec![4, 9, 2, 7];
        let scores = vec![0.5, EXCLUDED, 0.1, EXCLUDED];
        assert_eq!(scored_pool(&unlabeled, &scores), vec![(4, 0.5), (2, 0.1)]);
    }

    #[test]
    fn select_top_k_skips_excluded_and_degrades_on_err() {
        let obs = Registry::disabled();
        let mut rng = StdRng::seed_from_u64(1);
        let sel = select_top_k(&[4, 9, 2], 5, &mut rng, &obs, || {
            Ok(vec![0.5, EXCLUDED, 0.9])
        });
        assert_eq!(sel.chosen, vec![2, 4]);
        assert_eq!(sel.committee_creation, Duration::ZERO);
        let none = select_top_k(&[4, 9, 2], 5, &mut rng, &obs, || {
            Err(AlemError::InvalidConfig("no model".to_owned()))
        });
        assert!(none.chosen.is_empty());
    }
}
