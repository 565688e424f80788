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
use crate::features::{extract_rows, FeatureExtractor, FeatureSpace};
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
        space: FeatureSpace,
        // alem-lint: allow(flat-feature-store) -- memo cell for rows derived via FeatureSpace::booleanize
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
    /// — featurize eagerly, and attach ground truth. Returns the corpus and
    /// its [`FeatureSpace`], whose feature descriptions the
    /// interpretability reports need.
    pub fn from_candidates(
        ds: &EmDataset,
        source: &dyn CandidateSource,
    ) -> Result<(Self, FeatureSpace), AlemError> {
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
    ) -> Result<(Self, FeatureSpace), AlemError> {
        Corpus::from_stream(ds, source, Some(par))
    }

    /// Fully lazy corpus from any [`CandidateSource`]: candidate pairs
    /// and ground truth are computed up front but no feature row is
    /// extracted until a learner or selector first reads it, after which
    /// the row is memoized for the corpus lifetime. Rows are
    /// bit-identical to the eager build; see
    /// [`Corpus::content_fingerprint`] for the one observable difference.
    /// The store keeps the whole [`FeatureExtractor`] to fill rows from.
    pub fn from_candidates_lazy(
        ds: &EmDataset,
        source: &dyn CandidateSource,
    ) -> Result<(Self, FeatureSpace), AlemError> {
        Corpus::from_stream(ds, source, None)
    }

    /// The one build body behind every extractor-backed corpus: collect
    /// the candidate stream while checking its contract (sorted, no
    /// duplicates, in bounds; otherwise `AlemError::InvalidConfig`),
    /// featurize, and attach ground truth. Eager and lazy builds differ
    /// only in the store: `Some(par)` scores every row now, one
    /// attribute at a time and in row blocks run on `par`, straight into
    /// the flat store, and keeps no prepared view; `None` leaves each row
    /// to its first read from the whole extractor.
    fn from_stream(
        ds: &EmDataset,
        source: &dyn CandidateSource,
        eager: Option<&alem_par::Parallelism>,
    ) -> Result<(Self, FeatureSpace), AlemError> {
        let pairs = Arc::new(collect_validated(source, ds)?);
        let space = FeatureSpace::new(ds)?;
        let store = match eager {
            Some(par) => {
                FeatureStore::from_flat(extract_rows(ds, &pairs, par)?, pairs.len(), space.dim())?
            }
            None => FeatureStore::lazy(Arc::new(FeatureExtractor::new(ds)?), Arc::clone(&pairs)),
        };
        let truth = pairs.iter().map(|&p| ds.is_match(p)).collect();
        Ok((
            Corpus {
                name: ds.name.clone(),
                pairs,
                store,
                bool_features: BoolFeatures::Derived {
                    space: space.clone(),
                    cell: OnceLock::new(),
                },
                truth,
                bounded01: true,
            },
            space,
        ))
    }

    /// Build a corpus directly from feature vectors and labels (tests,
    /// docs, and workloads that skip the table layer).
    ///
    /// Fails with [`AlemError::InvalidConfig`] unless there is one label
    /// per row and every row shares the first row's dimensionality.
    // alem-lint: allow(flat-feature-store) -- caller-facing ingestion seam; rows are flattened into the store here
    pub fn from_features(features: Vec<Vec<f64>>, truth: Vec<bool>) -> Result<Self, AlemError> {
        if features.len() != truth.len() {
            return Err(AlemError::InvalidConfig(format!(
                "{} feature rows but {} labels",
                features.len(),
                truth.len()
            )));
        }
        let len = features.len();
        let dim = features.first().map_or(0, Vec::len);
        let mut flat = Vec::with_capacity(len * dim);
        for (i, row) in features.into_iter().enumerate() {
            if row.len() != dim {
                return Err(AlemError::InvalidConfig(format!(
                    "feature row {i} has {} dims, row 0 has {dim}",
                    row.len()
                )));
            }
            flat.extend_from_slice(&row);
        }
        Ok(Corpus {
            name: "anonymous".into(),
            pairs: Arc::new((0..len as u32).map(|i| (i, 0)).collect()),
            store: FeatureStore::from_flat(flat, len, dim)?,
            bool_features: BoolFeatures::None,
            truth,
            bounded01: false,
        })
    }

    /// Attach Boolean predicate vectors (needed by the rule learner).
    /// Fails with [`AlemError::InvalidConfig`] unless there is one row
    /// per pair.
    // alem-lint: allow(flat-feature-store) -- caller-facing ingestion seam for pre-built predicate rows
    pub fn with_bool_features(mut self, bool_features: Vec<Vec<f64>>) -> Result<Self, AlemError> {
        if bool_features.len() != self.len() {
            return Err(AlemError::InvalidConfig(format!(
                "{} Boolean feature rows for {} pairs",
                bool_features.len(),
                self.len()
            )));
        }
        self.bool_features = BoolFeatures::Eager(bool_features);
        Ok(self)
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
            BoolFeatures::Derived { space, cell } => Some(cell.get_or_init(|| {
                (0..self.store.len())
                    .map(|i| space.atoms(self.store.row(i)))
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
    ///
    /// # Errors
    /// [`AlemError::InvalidConfig`] when `test_frac` is outside `[0, 1)`
    /// (NaN included).
    pub fn split_holdout<R: Rng>(
        &self,
        test_frac: f64,
        rng: &mut R,
    ) -> Result<(Vec<usize>, Vec<usize>), AlemError> {
        if !(0.0..1.0).contains(&test_frac) {
            return Err(AlemError::InvalidConfig(format!(
                "hold-out test_frac must be in [0, 1), got {test_frac}"
            )));
        }
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
        Ok((train, test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::tests::{dataset, Fixed};
    use crate::schema::{Record, Schema, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_stream_keeps_the_extractor_width() {
        let ds = dataset();
        let (eager, space) = Corpus::from_candidates(&ds, &Fixed(Vec::new(), 1)).unwrap();
        let (lazy, _) = Corpus::from_candidates_lazy(&ds, &Fixed(Vec::new(), 1)).unwrap();
        assert!(eager.is_empty() && lazy.is_empty());
        assert_eq!(eager.dim(), space.dim());
        assert_eq!(lazy.dim(), space.dim());
    }

    /// `ds` cut to its first `n` attributes.
    fn first_attrs(ds: &EmDataset, n: usize) -> EmDataset {
        let cut = |t: &Table| {
            let attrs = t.schema().attributes().iter().take(n);
            let schema = Schema::new(attrs.map(|a| (a.name.as_str(), a.kind)).collect());
            let records = t.records().iter();
            let records = records.map(|r| Record::new(r.values()[..n].to_vec()));
            Table::new(t.name(), schema, records.collect())
        };
        EmDataset {
            left: cut(&ds.left),
            right: cut(&ds.right),
            ..ds.clone()
        }
    }

    /// The in-place fill gives one corpus at any thread count, with the
    /// rows of the whole extractor, on schemas of two, one and no
    /// attributes and on streams of every pair, of fewer pairs than
    /// threads, and of none.
    #[test]
    fn eager_fill_is_the_same_at_every_thread_count() {
        let every: Vec<Pair> = (0..3).flat_map(|l| (0..4).map(move |r| (l, r))).collect();
        for n_attrs in [2, 1, 0] {
            let ds = first_attrs(&dataset(), n_attrs);
            let fx = FeatureExtractor::new(&ds).unwrap();
            for pairs in [every.clone(), vec![(0, 1), (2, 3)], Vec::new()] {
                let build = |threads: usize| {
                    let source = Fixed(pairs.clone(), 5);
                    let par = alem_par::Parallelism::fixed(threads);
                    Corpus::from_candidates_with(&ds, &source, &par).unwrap().0
                };
                let seq = build(1);
                assert_eq!((seq.len(), seq.dim()), (pairs.len(), 21 * n_attrs));
                for (i, &p) in pairs.iter().enumerate() {
                    let want: Vec<u64> = fx.extract_pair(p).into_iter().map(f64::to_bits).collect();
                    let got: Vec<u64> = seq.x(i).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{n_attrs} attributes, row {i}");
                }
                for threads in [2, 3, 8] {
                    assert_eq!(
                        build(threads).content_fingerprint(),
                        seq.content_fingerprint(),
                        "{n_attrs} attributes, {} pairs, {threads} threads",
                        pairs.len()
                    );
                }
            }
        }
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
        Corpus::from_features(features, truth).unwrap()
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
        let (train, test) = c.split_holdout(0.2, &mut rng).unwrap();
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
        let (train, test) = c.split_holdout(0.25, &mut rng).unwrap();
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 60);
    }

    #[test]
    fn holdout_rejects_a_fraction_outside_unit_interval() {
        let c = toy(20);
        let mut rng = StdRng::seed_from_u64(6);
        for frac in [1.0, -0.1, f64::NAN] {
            assert!(
                matches!(
                    c.split_holdout(frac, &mut rng),
                    Err(AlemError::InvalidConfig(_))
                ),
                "test_frac {frac}"
            );
        }
    }

    #[test]
    fn rejects_mismatch() {
        let rejected = |r: Result<Corpus, AlemError>, want: &str| match r {
            Err(AlemError::InvalidConfig(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        rejected(
            Corpus::from_features(vec![vec![0.0]], vec![true, false]),
            "1 feature rows but 2 labels",
        );
        rejected(
            Corpus::from_features(vec![vec![0.0], vec![0.0, 1.0]], vec![true, false]),
            "row 1 has 2 dims",
        );
        rejected(
            toy(3).with_bool_features(vec![vec![1.0]; 2]),
            "2 Boolean feature rows for 3 pairs",
        );
        assert!(matches!(
            FeatureStore::from_flat(vec![0.0; 5], 2, 3),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn content_fingerprint_tracks_contents_not_length() {
        let a = toy(40);
        let b = toy(40);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());

        // Same length, one feature bit different: fingerprints diverge.
        let mut feats: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        feats[17][0] += 1e-12;
        let c = Corpus::from_features(feats, (0..40).map(|i| i % 5 == 0).collect()).unwrap();
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());

        // Same features, one truth label different: fingerprints diverge.
        let feats: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let mut truth: Vec<bool> = (0..40).map(|i| i % 5 == 0).collect();
        truth[3] = !truth[3];
        let d = Corpus::from_features(feats, truth).unwrap();
        assert_ne!(a.content_fingerprint(), d.content_fingerprint());

        // Attaching bool features changes the fingerprint (it is part of
        // what the learner sees).
        let e = toy(40).with_bool_features(vec![vec![1.0]; 40]).unwrap();
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
        )
        .unwrap();
        assert_eq!(c.sanitized_features(), 3);
        assert!((0..c.len()).all(|i| c.x(i).iter().all(|v| v.is_finite())));
        assert_eq!(c.x(0), &[0.5, 0.0]);
        assert_eq!(c.x(1), &[0.0, 1.0]);
    }
}
