//! The staged margin scan: cheap partial evidence first, the exact
//! margin only for the pairs still in doubt.
//!
//! **Phase 1** reads the chosen dims of each unlabeled pair — usually
//! the model's highest-`|weight|` ones — through
//! [`FeatureStore::read_dims`](crate::featurestore::FeatureStore::read_dims),
//! in stages of descending `|weight|`. On a lazy corpus this computes
//! those cells instead of all `21 × #attrs`, and never materializes a
//! row. After each stage a [`Skip`] rule takes pairs out of the scan:
//!
//! * [`Skip::Zero`] is §5.1's blocking-dims rule (see
//!   [`super::blocking_dim`]): a pair whose read cells are all zero is
//!   taken to have an all-zero vector, whose margin is just `|b|`, and is
//!   skipped. A pair leaves the scan as a survivor at its first nonzero
//!   cell.
//! * [`Skip::Bound`] is exact. Because every feature lies in `[0, 1]`
//!   ([`Corpus::features_bounded_01`]), the unread remainder contributes
//!   at most `[Σ min(0, w_d), Σ max(0, w_d)]`, giving each pair a sound
//!   interval for its decision value and hence for its ambiguity score
//!   `-|decision|`. A pair whose interval cannot reach the selection
//!   threshold (the `batch`-th best worst-case bound) is skipped.
//!
//! **Phase 2** materializes full rows only for the survivors and scores
//! them exactly with [`margin::score_pool`].
//!
//! Under the bound rule the chosen batch is **bit-identical to eager
//! selection**: at least `batch` pairs have true score ≥ the phase-1
//! threshold `W`, every skipped pair's true score is strictly below `W`
//! (its upper bound is), and the final ranking shuffles the *full* pool
//! with the caller's RNG before a stable sort — the same permutation the
//! eager path draws — so tie-breaking among survivors matches exactly.
//! Float-rounding between the partial and full summation orders is
//! absorbed by widening both interval ends with an epsilon proportional
//! to `|b| + Σ|w_d|`.

use super::{margin, scored_pool, top_k_desc, Selection, EXCLUDED};
use crate::corpus::Corpus;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;
use std::time::Duration;

/// Which pairs phase 1 of the staged scan skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// §5.1: skip a pair whose read cells are all zero. A skipped pair
    /// scores [`EXCLUDED`]; when every pair is skipped, the round falls
    /// back to a full margin over the pool.
    Zero,
    /// Skip a pair whose margin interval cannot reach the batch. Exact;
    /// needs [`Corpus::features_bounded_01`].
    Bound,
}

/// One staged margin round over the phase-1 `dims`: the chosen batch,
/// and how many pairs phase 1 skipped. An empty pool or a zero batch
/// selects nothing.
///
/// Under [`Skip::Bound`] the batch is bit-identical to
/// [`margin::select`] with the same SVM and RNG. The bounds are valid
/// for *any* set of distinct in-range dims — the unread remainder is
/// always the complement under the current weights — so the choice of
/// dims only moves the speed/pruning trade-off. This is what lets
/// [`crate::strategy::MarginSvmStrategy`] freeze the dim set after the
/// first fit: on a lazy corpus the partial-cell memo then stays at
/// `pool × topk` cells instead of growing every round as the top-weight
/// ranking churns, turning recurring phase-1 scans into pure cache
/// reads. Callers gate the bound rule on [`Corpus::features_bounded_01`]
/// and fall back to the eager path otherwise.
///
/// Both rules count the pairs phase 2 scores in `select.pairs_scored`;
/// the zero rule counts its skips in `select.pairs_skipped`, the bound
/// rule in `feat.phase1_only`.
#[allow(clippy::too_many_arguments)] // mirrors the eager selector's natural inputs
pub fn select(
    svm: &LinearSvm,
    corpus: &Corpus,
    unlabeled: &[usize],
    batch: usize,
    dims: &[usize],
    skip: Skip,
    rng: &mut StdRng,
    obs: &Registry,
    par: &Parallelism,
) -> (Selection, usize) {
    let score_span = obs.span("select.score");
    if unlabeled.is_empty() || batch == 0 {
        let selection = Selection {
            chosen: Vec::new(),
            committee_creation: Duration::ZERO,
            scoring: score_span.finish(),
        };
        return (selection, 0);
    }
    let (scores, skipped) = scan(svm, corpus, unlabeled, dims, skip, batch, par);
    let scored = (unlabeled.len() - skipped) as u64;
    match skip {
        Skip::Zero => {
            obs.counter_add("select.pairs_skipped", skipped as u64);
            obs.counter_add("select.pairs_scored", scored);
        }
        Skip::Bound => {
            obs.counter_add("select.pairs_scored", scored);
            obs.counter_add("feat.phase1_only", skipped as u64);
        }
    }
    let mut chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    // Only the zero rule can skip every pair (a pair the bound rule
    // skips keeps a finite score): fall back to a full margin over the
    // pool so active learning can still progress.
    if chosen.is_empty() {
        let scores = margin::score_pool(svm, corpus, unlabeled, par);
        obs.counter_add("select.pairs_scored", unlabeled.len() as u64);
        chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    }
    let selection = Selection {
        chosen,
        committee_creation: Duration::ZERO,
        scoring: score_span.finish(),
    };
    (selection, skipped)
}

/// Phase 1 and phase 2 over the pool: scores aligned with `unlabeled`,
/// and the number of pairs phase 1 skipped. A survivor gets its exact
/// margin score; a pair the zero rule skips gets [`EXCLUDED`], and one
/// the bound rule skips its upper bound (provably below the threshold,
/// hence below every chosen score), so the final ranking shuffles the
/// same full pool the eager path does. Only the bound rule reads
/// `batch`, which must then be at least 1 for a non-empty pool.
pub(super) fn scan(
    svm: &LinearSvm,
    corpus: &Corpus,
    unlabeled: &[usize],
    dims: &[usize],
    skip: Skip,
    batch: usize,
    par: &Parallelism,
) -> (Vec<f64>, usize) {
    let bound = skip == Skip::Bound;
    debug_assert!(
        !bound || corpus.features_bounded_01(),
        "bounds need [0,1] features"
    );
    let weights = svm.weights();
    let bias = svm.bias();
    let n = unlabeled.len();
    let k = batch.min(n);

    // Phase 1 reads the dims in *stages* of descending |weight|, so most
    // skipped pairs never touch more than a short prefix. After each
    // stage the rule runs and pairs it decides stop reading. Under the
    // bound rule the threshold (the k-th best worst-case bound so far)
    // is recomputed and pairs whose upper bound already falls below it
    // are skipped; their bounds freeze. Every stage's threshold is sound
    // on its own — a worst-case bound from any read prefix is still a
    // lower bound on the true score, so at least k pairs truly score ≥
    // it — which is why staged pruning cannot change the chosen batch.
    // Within a stage dims are read in ascending order (attr-major,
    // matching the extractor's layout) for cache locality; the
    // summation-order difference against the eager dot product is
    // absorbed by the epsilon below, and the exact phase-2 scores never
    // depend on phase-1 order.
    let mut dims: Vec<usize> = dims.to_vec();
    dims.sort_unstable_by(|&a, &b| {
        weights[b]
            .abs()
            .partial_cmp(&weights[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    debug_assert!(
        dims.windows(2).all(|w| w[0] != w[1]),
        "phase-1 dims must be distinct"
    );
    // Before any stage runs, *every* dim is unread — the rest-mass
    // interval starts over the whole weight vector and each stage
    // subtracts the dims it reads (dims outside the phase-1 set simply
    // stay in the rest forever).
    let (mut lo_rest, mut hi_rest) = (0.0f64, 0.0f64);
    let mut wsum_abs = bias.abs();
    for &w in weights {
        wsum_abs += w.abs();
        lo_rest += w.min(0.0);
        hi_rest += w.max(0.0);
    }
    // Absorbs summation-order rounding between the phase-1 partial sum
    // and the eager full-dim dot product.
    let eps = 1e-9 * (1.0 + wsum_abs);

    // Running per-pair state: partial decision sum (bias plus the dims
    // read so far), (worst, best) score bounds, and whether the pair is
    // still reading. Bounds start from the empty read set — everything
    // unread contributes its weight-mass interval.
    let mut partial = vec![bias; n];
    let mut worst = vec![0.0f64; n];
    let mut best = vec![0.0f64; n];
    let mut alive = vec![true; n];
    let bound_of = |p: f64, lo: f64, hi: f64| -> (f64, f64) {
        let (d_lo, d_hi) = (p + lo, p + hi);
        let w = -d_lo.abs().max(d_hi.abs()) - eps;
        let b = if d_lo <= 0.0 && d_hi >= 0.0 {
            eps
        } else {
            -d_lo.abs().min(d_hi.abs()) + eps
        };
        (w, b)
    };
    let mut threshold = f64::NEG_INFINITY;
    let reprune = |partial: &[f64],
                   worst: &mut [f64],
                   best: &mut [f64],
                   alive: &mut [bool],
                   lo_rest: f64,
                   hi_rest: f64|
     -> f64 {
        for j in 0..n {
            if alive[j] {
                let (w, b) = bound_of(partial[j], lo_rest, hi_rest);
                worst[j] = w;
                best[j] = b;
            }
        }
        let mut worsts: Vec<f64> = worst.to_vec();
        worsts.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let t = worsts[k - 1];
        for j in 0..n {
            if alive[j] && best[j] < t {
                alive[j] = false;
            }
        }
        t
    };
    if bound {
        threshold = threshold.max(reprune(
            &partial, &mut worst, &mut best, &mut alive, lo_rest, hi_rest,
        ));
    }

    // Stage sizes double from a short prefix: a pair decided by the
    // first 8 highest-|weight| dims never pays for the rest.
    let store = corpus.store();
    let mut start = 0usize;
    let mut stage_len = 8usize.min(dims.len().max(1));
    while start < dims.len() {
        let end = (start + stage_len).min(dims.len());
        let mut stage: Vec<usize> = dims[start..end].to_vec();
        stage.sort_unstable();
        for &d in &stage {
            lo_rest -= weights[d].min(0.0);
            hi_rest -= weights[d].max(0.0);
        }
        let reading: Vec<usize> = (0..n).filter(|&j| alive[j]).collect();
        let reads: Vec<(f64, bool)> = par.map(&reading, |&j| {
            let (mut sum, mut nonzero) = (0.0, false);
            store.read_dims(unlabeled[j], &stage, |d, v| {
                sum += weights[d] * v;
                nonzero |= v != 0.0;
            });
            (sum, nonzero)
        });
        for (&j, &(sum, nonzero)) in reading.iter().zip(&reads) {
            partial[j] += sum;
            // A nonzero cell decides the zero rule: the pair survives.
            if nonzero && !bound {
                alive[j] = false;
            }
        }
        if bound {
            threshold = threshold.max(reprune(
                &partial, &mut worst, &mut best, &mut alive, lo_rest, hi_rest,
            ));
        }
        start = end;
        stage_len *= 2;
    }
    // A frozen pair's bounds stay valid (they only ever widen relative
    // to a fuller read), so the final threshold — never lower than any
    // stage's, and the stage that froze the pair already had its upper
    // bound strictly below — still separates it from the batch.

    // Phase 2: exact scores for survivors only, via full (memoized) rows.
    // A zero-rule pair still reading read only zeros.
    let survivors: Vec<usize> = (0..n)
        .filter(|&j| match skip {
            Skip::Zero => !alive[j],
            Skip::Bound => alive[j] && best[j] >= threshold,
        })
        .collect();
    let rows: Vec<usize> = survivors.iter().map(|&j| unlabeled[j]).collect();
    let exact = margin::score_pool(svm, corpus, &rows, par);
    let mut scores = match skip {
        Skip::Zero => vec![EXCLUDED; n],
        Skip::Bound => best,
    };
    for (&j, &s) in survivors.iter().zip(&exact) {
        scores[j] = s;
    }
    (scores, n - survivors.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize, dim: usize, seed: u64) -> Corpus {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let truth: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        Corpus::from_features(feats, truth)
            .unwrap()
            .with_bounded_features()
    }

    fn svm(dim: usize, seed: u64) -> LinearSvm {
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        LinearSvm::from_parts(w, rng.gen::<f64>() - 0.5)
    }

    #[test]
    fn chosen_batch_matches_eager_bit_for_bit() {
        for seed in 0..8u64 {
            let c = corpus(300, 12, seed);
            let m = svm(12, seed + 100);
            let unlabeled: Vec<usize> = (0..300).collect();
            let lazy = select(
                &m,
                &c,
                &unlabeled,
                10,
                &m.top_weight_dims(4),
                Skip::Bound,
                &mut StdRng::seed_from_u64(seed),
                &Registry::disabled(),
                &Parallelism::sequential(),
            );
            let eager = margin::select(
                &m,
                &c,
                &unlabeled,
                10,
                &mut StdRng::seed_from_u64(seed),
                &Registry::disabled(),
                &Parallelism::sequential(),
            );
            assert_eq!(lazy.0.chosen, eager.chosen, "seed {seed}");
        }
    }

    #[test]
    fn arbitrary_dim_sets_stay_exact() {
        // The chosen batch is invariant to WHICH dims phase 1 reads — the
        // property that makes freezing the dim set across rounds sound.
        for seed in 0..6u64 {
            let c = corpus(200, 10, seed);
            let m = svm(10, seed + 50);
            let unlabeled: Vec<usize> = (0..200).collect();
            let eager = margin::select(
                &m,
                &c,
                &unlabeled,
                8,
                &mut StdRng::seed_from_u64(seed),
                &Registry::disabled(),
                &Parallelism::sequential(),
            );
            for dims in [
                vec![],
                vec![9, 1],
                vec![0, 2, 4, 6, 8],
                (0..10).collect::<Vec<_>>(),
            ] {
                let lazy = select(
                    &m,
                    &c,
                    &unlabeled,
                    8,
                    &dims,
                    Skip::Bound,
                    &mut StdRng::seed_from_u64(seed),
                    &Registry::disabled(),
                    &Parallelism::sequential(),
                );
                assert_eq!(lazy.0.chosen, eager.chosen, "seed {seed} dims {dims:?}");
            }
        }
    }

    #[test]
    fn prunes_most_of_the_pool() {
        let c = corpus(500, 16, 3);
        // Weight mass concentrated on a few dims — the regime lazy-topk
        // targets (trained SVMs put most mass on a handful of features).
        let mut w = vec![0.001; 16];
        w[2] = 4.0;
        w[7] = -3.0;
        w[11] = 2.5;
        let m = LinearSvm::from_parts(w, -1.5);
        let unlabeled: Vec<usize> = (0..500).collect();
        let out = select(
            &m,
            &c,
            &unlabeled,
            10,
            &m.top_weight_dims(6),
            Skip::Bound,
            &mut StdRng::seed_from_u64(1),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert!(out.1 > 0, "phase 1 should prune some of a 500-pair pool");
        assert_eq!(out.0.chosen.len(), 10);
    }

    #[test]
    fn thread_count_invariant() {
        let c = corpus(250, 10, 9);
        let m = svm(10, 77);
        let unlabeled: Vec<usize> = (0..250).collect();
        let pick = |par: Parallelism| {
            select(
                &m,
                &c,
                &unlabeled,
                10,
                &m.top_weight_dims(3),
                Skip::Bound,
                &mut StdRng::seed_from_u64(5),
                &Registry::disabled(),
                &par,
            )
            .0
            .chosen
        };
        let seq = pick(Parallelism::sequential());
        for t in [2, 4, 8] {
            assert_eq!(seq, pick(Parallelism::fixed(t)), "threads={t}");
        }
    }

    #[test]
    fn empty_pool_is_fine() {
        let c = corpus(10, 4, 1);
        let m = svm(4, 2);
        let out = select(
            &m,
            &c,
            &[],
            10,
            &m.top_weight_dims(2),
            Skip::Bound,
            &mut StdRng::seed_from_u64(1),
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert!(out.0.chosen.is_empty());
    }
}
