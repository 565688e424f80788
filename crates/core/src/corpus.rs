//! [`Corpus`]: the post-blocking pair universe an active-learning run
//! operates on — feature vectors, optional Boolean predicate vectors, and
//! the hidden ground truth consulted by the Oracle and the evaluator.
//!
//! Feature rows live in a [`FeatureStore`]
//! — flat and contiguous when built eagerly, memoized on-demand when built
//! with [`Corpus::from_candidates_lazy`]. Boolean predicate rows are
//! derived lazily from the continuous rows on first use, so runs that never
//! touch the rule learner never pay for a second full matrix.

use crate::candidates::{collect_validated, CandidateSource};
use crate::error::AlemError;
use crate::features::FeatureExtractor;
use crate::featurestore::FeatureStore;
use crate::schema::{EmDataset, Pair};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::{Arc, OnceLock};

/// Boolean predicate rows: absent, attached verbatim, or derived on
/// demand from the continuous rows (and then memoized).
#[derive(Debug, Clone)]
enum BoolFeatures {
    None,
    // alem-lint: allow(flat-feature-store) -- verbatim caller-attached predicate rows, the rule-learner ingestion seam
    Eager(Vec<Vec<f64>>),
    Derived {
        fx: Arc<FeatureExtractor>,
        // alem-lint: allow(flat-feature-store) -- memo cell for rows derived via FeatureExtractor::booleanize
        cell: OnceLock<Vec<Vec<f64>>>,
    },
}

/// A fully featurized set of candidate pairs with hidden ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    name: String,
    /// Shared with a lazy store, which extracts rows from it.
    pairs: Arc<Vec<Pair>>,
    store: FeatureStore,
    bool_features: BoolFeatures,
    truth: Vec<bool>,
    /// True when every feature value is guaranteed to lie in `[0, 1]`
    /// (extractor-built corpora: similarities clamp, sanitize maps
    /// non-finite to 0). Interval-bound lazy selection requires this.
    bounded01: bool,
}

impl Corpus {
    /// Build a corpus from any [`CandidateSource`] — the paper's Jaccard
    /// filter (`alem_block::TokenIndex`), another `alem-block` index
    /// strategy, or anything else that streams deterministic sorted pairs
    /// — featurize eagerly, and attach ground truth. Returns the corpus and the
    /// (shared) extractor, whose feature descriptions the
    /// interpretability reports need.
    pub fn from_candidates(
        ds: &EmDataset,
        source: &dyn CandidateSource,
    ) -> Result<(Self, Arc<FeatureExtractor>), AlemError> {
        Corpus::from_candidates_with(ds, source, &alem_par::Parallelism::default())
    }

    /// [`Corpus::from_candidates`] with an explicit thread-count policy
    /// for the feature-extraction fan-out. Output is byte-identical for
    /// any `par` (rows merge in pair order); only build wall-clock
    /// changes.
    ///
    /// Boolean predicate rows are *not* built here: they derive from the
    /// continuous rows on the first [`Corpus::bool_features`] call, so
    /// strategies that never use them never pay the second matrix.
    pub fn from_candidates_with(
        ds: &EmDataset,
        source: &dyn CandidateSource,
        par: &alem_par::Parallelism,
    ) -> Result<(Self, Arc<FeatureExtractor>), AlemError> {
        Corpus::from_stream(ds, source, Some(par))
    }

    /// Fully lazy corpus from any [`CandidateSource`]: candidate pairs
    /// and ground truth are computed up front but no feature row is
    /// extracted until a learner or selector first reads it, after which
    /// the row is memoized for the corpus lifetime. Rows are
    /// bit-identical to the eager build; see
    /// [`Corpus::content_fingerprint`] for the one observable difference.
    pub fn from_candidates_lazy(
        ds: &EmDataset,
        source: &dyn CandidateSource,
    ) -> Result<(Self, Arc<FeatureExtractor>), AlemError> {
        Corpus::from_stream(ds, source, None)
    }

    /// The one build body behind every extractor-backed corpus: collect
    /// the candidate stream while checking its contract (sorted, no
    /// duplicates, in bounds; otherwise `AlemError::InvalidConfig`),
    /// build the extractor, featurize, and attach ground truth. Eager
    /// and lazy builds differ only in the store: `Some(par)` scores
    /// every row now, fanned out over `par`, straight into the flat
    /// store; `None` leaves each row to its first read.
    fn from_stream(
        ds: &EmDataset,
        source: &dyn CandidateSource,
        eager: Option<&alem_par::Parallelism>,
    ) -> Result<(Self, Arc<FeatureExtractor>), AlemError> {
        let pairs = Arc::new(collect_validated(source, ds)?);
        let fx = Arc::new(FeatureExtractor::new(ds)?);
        let store = match eager {
            Some(par) => {
                FeatureStore::from_flat(fx.extract_all_with(&pairs, par), pairs.len(), fx.dim())
            }
            None => FeatureStore::lazy(Arc::clone(&fx), Arc::clone(&pairs)),
        };
        let truth = pairs.iter().map(|&p| ds.is_match(p)).collect();
        Ok((
            Corpus {
                name: ds.name.clone(),
                pairs,
                store,
                bool_features: BoolFeatures::Derived {
                    fx: Arc::clone(&fx),
                    cell: OnceLock::new(),
                },
                truth,
                bounded01: true,
            },
            fx,
        ))
    }

    /// Build a corpus directly from feature vectors and labels (tests,
    /// docs, and workloads that skip the table layer).
    ///
    /// Every row must share the first row's dimensionality.
    // alem-lint: allow(flat-feature-store) -- caller-facing ingestion seam; rows are flattened into the store here
    pub fn from_features(features: Vec<Vec<f64>>, truth: Vec<bool>) -> Self {
        assert_eq!(features.len(), truth.len(), "feature/label mismatch");
        let len = features.len();
        let dim = features.first().map_or(0, Vec::len);
        let mut flat = Vec::with_capacity(len * dim);
        for row in features {
            assert_eq!(row.len(), dim, "feature row dimensionality mismatch");
            flat.extend_from_slice(&row);
        }
        Corpus {
            name: "anonymous".into(),
            pairs: Arc::new((0..len as u32).map(|i| (i, 0)).collect()),
            store: FeatureStore::from_flat(flat, len, dim),
            bool_features: BoolFeatures::None,
            truth,
            bounded01: false,
        }
    }

    /// Attach Boolean predicate vectors (needed by the rule learner).
    // alem-lint: allow(flat-feature-store) -- caller-facing ingestion seam for pre-built predicate rows
    pub fn with_bool_features(mut self, bool_features: Vec<Vec<f64>>) -> Self {
        assert_eq!(bool_features.len(), self.len(), "bool feature mismatch");
        self.bool_features = BoolFeatures::Eager(bool_features);
        self
    }

    /// Set the dataset name (reports group results by it).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of post-blocking pairs.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the corpus has no pairs.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Continuous feature dimensionality.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// The record pair behind example `i`.
    pub fn pair(&self, i: usize) -> Pair {
        self.pairs[i]
    }

    /// Continuous feature row of example `i`. On a lazy corpus this
    /// materializes (and memoizes) the row on first read.
    pub fn x(&self, i: usize) -> &[f64] {
        self.store.row(i)
    }

    /// The backing feature store (flat eager matrix or memoized lazy
    /// rows). Selectors use this for partial, selected-dims reads.
    pub fn store(&self) -> &FeatureStore {
        &self.store
    }

    /// True when every feature value is guaranteed to lie in `[0, 1]`.
    /// Extractor-built corpora always qualify (similarity functions clamp
    /// their output and sanitization maps non-finite values to 0); a
    /// [`Corpus::from_features`] corpus only after
    /// [`Corpus::with_bounded_features`]. Two-phase lazy selection keys
    /// off this: its pruning bounds are only sound for bounded features.
    pub fn features_bounded_01(&self) -> bool {
        self.bounded01
    }

    /// Declare that every feature value lies in `[0, 1]`, enabling
    /// interval-bound lazy selection on hand-built corpora. Debug builds
    /// verify the claim against already-materialized rows.
    pub fn with_bounded_features(mut self) -> Self {
        #[cfg(debug_assertions)]
        if let Some(flat) = self.store.flat() {
            debug_assert!(
                flat.iter().all(|v| (0.0..=1.0).contains(v)),
                "with_bounded_features: a feature value lies outside [0, 1]"
            );
        }
        self.bounded01 = true;
        self
    }

    /// Boolean predicate rows. Rows attached via
    /// [`Corpus::with_bool_features`] are returned verbatim; corpora built
    /// from datasets derive them from the continuous rows on first call
    /// (memoized thereafter). Returns `None` only for
    /// [`Corpus::from_features`] corpora with nothing attached.
    pub fn bool_features(&self) -> Option<&[Vec<f64>]> {
        match &self.bool_features {
            BoolFeatures::None => None,
            BoolFeatures::Eager(rows) => Some(rows),
            BoolFeatures::Derived { fx, cell } => Some(cell.get_or_init(|| {
                (0..self.store.len())
                    .map(|i| fx.booleanize(self.store.row(i)))
                    .collect()
            })),
        }
    }

    /// Ground-truth label of example `i` (hidden from learners; only the
    /// Oracle and evaluator read it).
    pub fn truth(&self, i: usize) -> bool {
        self.truth[i]
    }

    /// All ground-truth labels.
    pub fn truths(&self) -> &[bool] {
        &self.truth
    }

    /// Non-finite feature values (NaN/±∞) sanitized to 0 so far. Eager
    /// corpora count at construction; lazy corpora count as rows
    /// materialize. The session layer logs this once per run.
    pub fn sanitized_features(&self) -> usize {
        self.store.sanitized_count() as usize
    }

    /// Cumulative feature-cache traffic `(hits, misses)` of the backing
    /// store. Always `(0, 0)` for eager corpora — eager row reads are
    /// plain slices, not cache lookups.
    pub fn feature_cache_stats(&self) -> (u64, u64) {
        (self.store.cache_hits(), self.store.cache_misses())
    }

    /// Content fingerprint: FNV-1a over every feature bit pattern, truth
    /// label, and Boolean predicate row. Two corpora with the same length
    /// but different contents fingerprint differently, which is what lets
    /// [`crate::session::Checkpoint`] reject a resume against the wrong
    /// data (same-length corpora previously slipped through silently).
    /// Pair ids and the dataset name are deliberately excluded: they don't
    /// affect learning, and the dataset name is checked separately.
    ///
    /// Lazy corpora hash pair identities (plus a lazy marker) instead of
    /// feature bytes — hashing bytes would force full materialization and
    /// defeat laziness. Derived-on-demand Boolean rows hash a marker for
    /// the same reason (they are a pure function of the continuous rows).
    /// Consequence: a checkpoint written against a lazy corpus must be
    /// resumed against a lazy corpus, and likewise for eager.
    pub fn content_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        fn eat(h: &mut u64, byte: u8) {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(PRIME);
        }
        fn eat_u64(h: &mut u64, v: u64) {
            for byte in v.to_le_bytes() {
                eat(h, byte);
            }
        }
        eat_u64(&mut h, self.store.len() as u64);
        eat_u64(&mut h, self.dim() as u64);
        match self.store.flat() {
            Some(flat) => {
                for v in flat {
                    eat_u64(&mut h, v.to_bits());
                }
            }
            None => {
                // Lazy marker, then pair identities: content is defined by
                // what would be extracted, not what has been.
                eat_u64(&mut h, 0x4c41_5a59); // "LAZY"
                for &(l, r) in self.pairs.iter() {
                    eat_u64(&mut h, u64::from(l));
                    eat_u64(&mut h, u64::from(r));
                }
            }
        }
        for &t in &self.truth {
            eat(&mut h, u8::from(t));
        }
        match &self.bool_features {
            BoolFeatures::None => {}
            BoolFeatures::Eager(rows) => {
                for row in rows {
                    for v in row {
                        eat_u64(&mut h, v.to_bits());
                    }
                }
            }
            BoolFeatures::Derived { .. } => {
                // Derived rows add no information over the continuous rows
                // already hashed; a marker keeps the stream deterministic
                // regardless of whether derivation has happened yet.
                eat_u64(&mut h, 0x4445_5249); // "DERI"
            }
        }
        h
    }

    /// Class skew: fraction of true matches among pairs.
    pub fn skew(&self) -> f64 {
        if self.truth.is_empty() {
            return 0.0;
        }
        self.truth.iter().filter(|&&t| t).count() as f64 / self.truth.len() as f64
    }

    /// Stratified hold-out split preserving class skew (the conventional
    /// 80/20 supervised split of §6.2). Returns `(train_pool, test)`
    /// example indices, shuffled.
    pub fn split_holdout<R: Rng>(&self, test_frac: f64, rng: &mut R) -> (Vec<usize>, Vec<usize>) {
        assert!(
            (0.0..1.0).contains(&test_frac),
            "test_frac must be in [0,1)"
        );
        let mut pos: Vec<usize> = (0..self.len()).filter(|&i| self.truth[i]).collect();
        let mut neg: Vec<usize> = (0..self.len()).filter(|&i| !self.truth[i]).collect();
        pos.shuffle(rng);
        neg.shuffle(rng);
        let pos_test = (pos.len() as f64 * test_frac).round() as usize;
        let neg_test = (neg.len() as f64 * test_frac).round() as usize;
        let mut test: Vec<usize> = pos[..pos_test].to_vec();
        test.extend(&neg[..neg_test]);
        let mut train: Vec<usize> = pos[pos_test..].to_vec();
        train.extend(&neg[neg_test..]);
        train.shuffle(rng);
        test.shuffle(rng);
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::tests::{dataset, Fixed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_stream_keeps_the_extractor_width() {
        let ds = dataset();
        let (eager, fx) = Corpus::from_candidates(&ds, &Fixed(Vec::new(), 1)).unwrap();
        let (lazy, _) = Corpus::from_candidates_lazy(&ds, &Fixed(Vec::new(), 1)).unwrap();
        assert!(eager.is_empty() && lazy.is_empty());
        assert_eq!(eager.dim(), fx.dim());
        assert_eq!(lazy.dim(), fx.dim());
    }

    #[test]
    fn builds_reject_streams_that_break_the_contract() {
        let ds = dataset();
        let ok = Fixed(vec![(0, 0), (0, 1), (1, 1)], 2);
        assert_eq!(Corpus::from_candidates(&ds, &ok).unwrap().0.len(), 3);
        assert_eq!(Corpus::from_candidates_lazy(&ds, &ok).unwrap().0.len(), 3);
        for bad in [
            vec![(0, 4)],
            vec![(3, 0)],
            vec![(1, 1), (0, 0)],
            vec![(1, 1), (0, 0), (0, 0)],
            vec![(0, 0), (0, 0)],
        ] {
            let source = Fixed(bad, 2);
            let eager = Corpus::from_candidates(&ds, &source).map(|_| ());
            let lazy = Corpus::from_candidates_lazy(&ds, &source).map(|_| ());
            for (build, got) in [("eager", eager), ("lazy", lazy)] {
                assert!(
                    matches!(got, Err(AlemError::InvalidConfig(_))),
                    "{build} build of {:?} gave {got:?}",
                    source.0
                );
            }
        }
    }

    fn toy(n: usize) -> Corpus {
        let features = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let truth = (0..n).map(|i| i % 5 == 0).collect();
        Corpus::from_features(features, truth)
    }

    #[test]
    fn accessors() {
        let c = toy(50);
        assert_eq!(c.len(), 50);
        assert_eq!(c.dim(), 1);
        assert!(c.truth(0));
        assert!(!c.truth(1));
        assert!((c.skew() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn holdout_preserves_skew() {
        let c = toy(100);
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) = c.split_holdout(0.2, &mut rng);
        assert_eq!(train.len() + test.len(), 100);
        assert_eq!(test.len(), 20);
        let skew =
            |idx: &[usize]| idx.iter().filter(|&&i| c.truth(i)).count() as f64 / idx.len() as f64;
        assert!((skew(&test) - 0.2).abs() < 0.05);
        assert!((skew(&train) - 0.2).abs() < 0.05);
    }

    #[test]
    fn holdout_disjoint_and_complete() {
        let c = toy(60);
        let mut rng = StdRng::seed_from_u64(6);
        let (train, test) = c.split_holdout(0.25, &mut rng);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 60);
    }

    #[test]
    #[should_panic(expected = "feature/label mismatch")]
    fn rejects_mismatch() {
        Corpus::from_features(vec![vec![0.0]], vec![true, false]);
    }

    #[test]
    fn content_fingerprint_tracks_contents_not_length() {
        let a = toy(40);
        let b = toy(40);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());

        // Same length, one feature bit different: fingerprints diverge.
        let mut feats: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        feats[17][0] += 1e-12;
        let c = Corpus::from_features(feats, (0..40).map(|i| i % 5 == 0).collect());
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());

        // Same features, one truth label different: fingerprints diverge.
        let feats: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let mut truth: Vec<bool> = (0..40).map(|i| i % 5 == 0).collect();
        truth[3] = !truth[3];
        let d = Corpus::from_features(feats, truth);
        assert_ne!(a.content_fingerprint(), d.content_fingerprint());

        // Attaching bool features changes the fingerprint (it is part of
        // what the learner sees).
        let e = toy(40).with_bool_features(vec![vec![1.0]; 40]);
        assert_ne!(a.content_fingerprint(), e.content_fingerprint());

        // Renaming does not (identity is content, not label).
        let f = toy(40).with_name("renamed");
        assert_eq!(a.content_fingerprint(), f.content_fingerprint());
    }

    #[test]
    fn non_finite_features_are_sanitized() {
        let c = Corpus::from_features(
            vec![
                vec![0.5, f64::NAN],
                vec![f64::INFINITY, 1.0],
                vec![0.1, f64::NEG_INFINITY],
            ],
            vec![true, false, true],
        );
        assert_eq!(c.sanitized_features(), 3);
        assert!((0..c.len()).all(|i| c.x(i).iter().all(|v| v.is_finite())));
        assert_eq!(c.x(0), &[0.5, 0.0]);
        assert_eq!(c.x(1), &[0.0, 1.0]);
    }
}
