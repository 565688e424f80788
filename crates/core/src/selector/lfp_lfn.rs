//! The LFP/LFN example-selection heuristic for rule learners (§4.3).
//!
//! Given the current candidate conjunctive rule, the selector finds
//!
//! * **Likely False Positives** — unlabeled pairs the rule predicts as
//!   matches but whose overall feature similarity is low (suspicious
//!   matches). Labeling them teaches the learner more selective predicates,
//!   raising precision.
//! * **Likely False Negatives** — pairs the rule rejects but some
//!   *Rule-Minus* relaxation (the rule with one predicate dropped, Fig. 5)
//!   accepts, and whose overall similarity is high (suspicious
//!   non-matches). Labeling them recovers recall.
//!
//! Active learning for rules terminates when neither kind exists, which is
//! why the paper's rule runs stop early with few labels (§6, Table 2).

use super::{top_k_desc, Selection, EXCLUDED};
use crate::corpus::Corpus;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::rules::{Conjunction, Dnf};
use rand::rngs::StdRng;
use std::time::Duration;

/// Scores at or above this value encode LFP candidates; positive scores
/// below it encode LFN candidates (see [`score_pool`]).
const LFP_BAND: f64 = 2.0;

/// Outcome of an LFP/LFN round.
#[derive(Debug, Clone, Default)]
pub struct LfpLfnSelection {
    /// The selection result.
    pub selection: Selection,
    /// Number of likely-false-positive candidates found.
    pub lfp_found: usize,
    /// Number of likely-false-negative candidates found.
    pub lfn_found: usize,
}

impl LfpLfnSelection {
    /// True when no LFPs and no LFNs exist — the rule learner's
    /// termination signal.
    pub fn exhausted(&self) -> bool {
        self.lfp_found == 0 && self.lfn_found == 0
    }
}

/// Mean continuous similarity of an example — the feature-similarity
/// heuristic scoring how "match-like" a pair looks overall. Clamped to
/// `[0, 1]` so the LFP/LFN score bands of [`score_pool`] cannot collide.
fn mean_similarity(corpus: &Corpus, i: usize) -> f64 {
    let x = corpus.x(i);
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().sum::<f64>() / x.len() as f64).clamp(0.0, 1.0)
}

/// Composite LFP/LFN scores for the pool, aligned with `unlabeled`.
///
/// The two candidate kinds are encoded in disjoint bands so one score
/// vector carries both: an LFP (rule predicts match) scores
/// `2 + (1 − sim)` ∈ `[2, 3]` — suspicious *low*-similarity matches rank
/// highest — while an LFN (only a Rule-Minus relaxation matches) scores
/// `sim` ∈ `[0, 1]` — suspicious *high*-similarity non-matches rank
/// highest. Pairs covered by `accepted` or matched by neither rule get
/// [`EXCLUDED`]. Within each band, higher = more informative, so a
/// generic top-k consumer drains LFPs before LFNs; [`select`] instead
/// splits the batch half-and-half per the paper.
pub fn score_pool(
    candidate: &Conjunction,
    accepted: &Dnf,
    corpus: &Corpus,
    unlabeled: &[usize],
    par: &Parallelism,
) -> Vec<f64> {
    let Some(bools) = corpus.bool_features() else {
        return vec![EXCLUDED; unlabeled.len()];
    };
    let minus = candidate.minus_variants();
    par.map(unlabeled, |&i| {
        let b = &bools[i];
        if accepted.matches(b) {
            EXCLUDED // already covered by accepted high-precision rules
        } else if candidate.matches(b) {
            LFP_BAND + (1.0 - mean_similarity(corpus, i))
        } else if minus.iter().any(|m| m.matches(b)) {
            mean_similarity(corpus, i)
        } else {
            EXCLUDED
        }
    })
}

/// One LFP/LFN selection round for `candidate`, ignoring pairs already
/// covered by the `accepted` rule ensemble.
#[allow(clippy::too_many_arguments)] // mirrors the pipeline's natural inputs
pub fn select(
    candidate: &Conjunction,
    accepted: &Dnf,
    corpus: &Corpus,
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    obs: &Registry,
    par: &Parallelism,
) -> LfpLfnSelection {
    // A corpus without Boolean predicates cannot reach this point through
    // the session driver (Strategy::fit rejects it); degrade to an
    // exhausted round rather than panicking.
    if corpus.bool_features().is_none() {
        return LfpLfnSelection::default();
    }
    let score_span = obs.span("select.score");
    let scores = score_pool(candidate, accepted, corpus, unlabeled, par);

    let mut lfp: Vec<(usize, f64)> = Vec::new();
    let mut lfn: Vec<(usize, f64)> = Vec::new();
    for (&i, &s) in unlabeled.iter().zip(&scores) {
        if s == EXCLUDED {
            continue;
        }
        if s >= LFP_BAND {
            lfp.push((i, s));
        } else {
            lfn.push((i, s));
        }
    }
    let lfp_found = lfp.len();
    let lfn_found = lfn.len();
    obs.counter_add("select.pairs_scored", unlabeled.len() as u64);
    obs.counter_add("select.lfp_found", lfp_found as u64);
    obs.counter_add("select.lfn_found", lfn_found as u64);

    // Lowest-similarity predicted matches and highest-similarity predicted
    // non-matches, half the batch each; shortfalls fill from the other.
    // Both bands already rank "most suspicious first" under descending
    // score, so a single top-k shape serves both halves.
    let half = batch / 2;
    let lfp_take = half.max(batch.saturating_sub(lfn_found));
    let mut chosen = top_k_desc(lfp, lfp_take, rng);
    let rest = batch - chosen.len().min(batch);
    chosen.extend(top_k_desc(lfn, rest, rng));
    chosen.truncate(batch);

    LfpLfnSelection {
        selection: Selection {
            chosen,
            committee_creation: Duration::ZERO,
            scoring: score_span.finish(),
        },
        lfp_found,
        lfn_found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Corpus with 2 Boolean predicates and matching continuous scores.
    /// Continuous rows carry the "true" similarity signal.
    fn corpus() -> Corpus {
        // idx 0..10: both atoms hold, high sim (true matches)
        // idx 10..20: both atoms hold, low sim (false positives of rule {0,1})
        // idx 20..30: only atom 0 holds, high sim (false negatives)
        // idx 30..40: nothing holds, low sim
        let mut feats = Vec::new();
        let mut bools = Vec::new();
        let mut truth = Vec::new();
        for i in 0..40 {
            let (b0, b1, sim, t) = match i / 10 {
                0 => (1.0, 1.0, 0.9, true),
                1 => (1.0, 1.0, 0.2, false),
                2 => (1.0, 0.0, 0.8, true),
                _ => (0.0, 0.0, 0.1, false),
            };
            feats.push(vec![sim]);
            bools.push(vec![b0, b1]);
            truth.push(t);
        }
        Corpus::from_features(feats, truth)
            .and_then(|c| c.with_bool_features(bools))
            .unwrap()
    }

    #[test]
    fn finds_lfps_and_lfns() {
        let c = corpus();
        let candidate = Conjunction::new(vec![0, 1]);
        let accepted = Dnf::empty();
        let unlabeled: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let out = select(
            &candidate,
            &accepted,
            &c,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(out.lfp_found, 20); // all rows where both atoms hold
        assert_eq!(out.lfn_found, 10); // rows matched only by minus-rule {0}
        assert_eq!(out.selection.chosen.len(), 10);
        // LFP half should prefer the low-sim predicted matches (10..20).
        let lfp_chosen = out
            .selection
            .chosen
            .iter()
            .filter(|&&i| (10..20).contains(&i))
            .count();
        assert!(lfp_chosen >= 4, "lfp half chose {lfp_chosen} low-sim rows");
        // LFN half should prefer high-sim uncovered rows (20..30).
        let lfn_chosen = out
            .selection
            .chosen
            .iter()
            .filter(|&&i| (20..30).contains(&i))
            .count();
        assert!(lfn_chosen >= 4, "lfn half chose {lfn_chosen} rows");
    }

    #[test]
    fn score_bands_are_disjoint_and_thread_count_invariant() {
        let c = corpus();
        let candidate = Conjunction::new(vec![0, 1]);
        let unlabeled: Vec<usize> = (0..40).collect();
        let seq = score_pool(
            &candidate,
            &Dnf::empty(),
            &c,
            &unlabeled,
            &Parallelism::sequential(),
        );
        for (j, &s) in seq.iter().enumerate() {
            match j / 10 {
                0 | 1 => assert!((LFP_BAND..=LFP_BAND + 1.0).contains(&s), "idx {j}: {s}"),
                2 => assert!((0.0..=1.0).contains(&s), "idx {j}: {s}"),
                _ => assert_eq!(s, EXCLUDED, "idx {j}"),
            }
        }
        for t in [2, 3, 8] {
            let p = score_pool(
                &candidate,
                &Dnf::empty(),
                &c,
                &unlabeled,
                &Parallelism::fixed(t),
            );
            assert_eq!(seq, p, "threads={t}");
        }
    }

    #[test]
    fn accepted_rules_suppress_candidates() {
        let c = corpus();
        let candidate = Conjunction::new(vec![0, 1]);
        // An accepted rule covering everything with atom 0 removes both
        // LFP and LFN pools.
        let accepted = Dnf::new(vec![Conjunction::new(vec![0])]);
        let unlabeled: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let out = select(
            &candidate,
            &accepted,
            &c,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert!(out.exhausted());
        assert!(out.selection.chosen.is_empty());
    }

    #[test]
    fn single_atom_rule_has_no_lfns() {
        let c = corpus();
        let candidate = Conjunction::new(vec![1]);
        let unlabeled: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let out = select(
            &candidate,
            &Dnf::empty(),
            &c,
            &unlabeled,
            10,
            &mut rng,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(out.lfn_found, 0);
        assert!(out.lfp_found > 0);
    }
}
