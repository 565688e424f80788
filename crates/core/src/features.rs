//! Feature extraction: similarity-based feature vectors for record pairs.
//!
//! Continuous features apply all 21 similarity functions to every pair of
//! aligned attributes (paper §3) — e.g. Abt-Buy's 3 matched columns give 63
//! dimensions (the paper reports 62; the count is 21 × #attrs up to the
//! exact Simmetrics subset). Rule learners instead get Boolean predicate
//! features: the 3 supported functions (equality, Jaro-Winkler, Jaccard)
//! evaluated against thresholds 0.1..1.0.
//!
//! The extractor pre-tokenizes every distinct attribute value once
//! ([`textsim::Prepared`]) so evaluating 21 measures per pair doesn't re-do
//! tokenization, and scores through one [`textsim::Scratch`] per worker so
//! the kernels do not allocate per cell.

use crate::error::AlemError;
use crate::schema::{EmDataset, Pair, Table};
use std::collections::BTreeMap;
use std::fmt;
use textsim::{Prepared, Scratch, SimilarityFunction};

/// The discrete thresholds rule predicates are evaluated on (paper §3:
/// "a discrete set of thresholds in (0,1] ... with τ from 0.1 to 1.0").
pub const RULE_THRESHOLDS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Description of one continuous feature dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureDesc {
    /// The similarity function applied.
    pub sim: SimilarityFunction,
    /// The aligned attribute name.
    pub attr: String,
}

impl fmt::Display for FeatureDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(left.{attr}, right.{attr})",
            self.sim.name(),
            attr = self.attr
        )
    }
}

/// Description of one Boolean rule predicate (an *atom* in the paper's
/// interpretability metric).
#[derive(Debug, Clone, PartialEq)]
pub struct BoolFeatureDesc {
    /// The similarity function applied.
    pub sim: SimilarityFunction,
    /// The aligned attribute name.
    pub attr: String,
    /// Predicate threshold.
    pub threshold: f64,
}

impl fmt::Display for BoolFeatureDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sim == SimilarityFunction::Identity {
            write!(f, "left.{attr} = right.{attr}", attr = self.attr)
        } else {
            write!(
                f,
                "{}(left.{attr}, right.{attr}) >= {:.1}",
                self.sim.name(),
                self.threshold,
                attr = self.attr
            )
        }
    }
}

/// Pre-tokenized feature extractor over a dataset's two tables.
///
/// Cells that hold the same raw string share one [`Prepared`] value:
/// `Prepared::new` is a pure function of the raw string, so interning is
/// exact, and most cells of a real table repeat a value.
pub struct FeatureExtractor {
    attr_names: Vec<String>,
    /// One prepared view per distinct raw value of either table.
    values: Vec<Prepared>,
    /// `values` index of each cell, `[record * #attrs + attr]`.
    left: Vec<usize>,
    right: Vec<usize>,
}

impl fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_attrs = self.attr_names.len().max(1);
        f.debug_struct("FeatureExtractor")
            .field("attrs", &self.attr_names)
            .field("left_records", &(self.left.len() / n_attrs))
            .field("right_records", &(self.right.len() / n_attrs))
            .field("distinct_values", &self.values.len())
            .finish()
    }
}

/// The `values` index of every cell of `table`, interning each distinct
/// raw value (a missing value is the empty string) on first sight.
fn intern_table<'t>(
    table: &'t Table,
    ids: &mut BTreeMap<&'t str, usize>,
    values: &mut Vec<Prepared>,
) -> Vec<usize> {
    let mut cells = Vec::with_capacity(table.len() * table.schema().len());
    for i in 0..table.len() {
        let record = table.record(i);
        for a in 0..table.schema().len() {
            let raw = record.value(a).unwrap_or("");
            let id = *ids.entry(raw).or_insert_with(|| {
                values.push(Prepared::new(raw));
                values.len() - 1
            });
            cells.push(id);
        }
    }
    cells
}

impl FeatureExtractor {
    /// Tokenize every distinct attribute value of both tables.
    ///
    /// Fails with [`AlemError::InvalidConfig`] when the two tables'
    /// schemas differ, since features pair attributes by position.
    pub fn new(ds: &EmDataset) -> Result<Self, AlemError> {
        if ds.left.schema() != ds.right.schema() {
            return Err(AlemError::InvalidConfig(format!(
                "tables {:?} and {:?} must share an aligned schema",
                ds.left.name(),
                ds.right.name()
            )));
        }
        let mut ids = BTreeMap::new();
        let mut values = Vec::new();
        let left = intern_table(&ds.left, &mut ids, &mut values);
        let right = intern_table(&ds.right, &mut ids, &mut values);
        Ok(FeatureExtractor {
            attr_names: ds
                .left
                .schema()
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
            values,
            left,
            right,
        })
    }

    /// Score `dims` of `pair` in the order given, sending each
    /// `(dim, value)` to `sink`. Every run of dims on one attribute shares
    /// one [`textsim::PairScorer`]. All feature values come from here.
    fn score_dims(
        &self,
        pair: Pair,
        dims: impl IntoIterator<Item = usize>,
        scratch: &mut Scratch,
        mut sink: impl FnMut(usize, f64),
    ) {
        let n_sims = SimilarityFunction::ALL.len();
        let n_attrs = self.attr_names.len();
        let l = &self.left[pair.0 as usize * n_attrs..][..n_attrs];
        let r = &self.right[pair.1 as usize * n_attrs..][..n_attrs];
        let mut dims = dims.into_iter().peekable();
        while let Some(&first) = dims.peek() {
            let attr = first / n_sims;
            let mut scorer = scratch.pair(&self.values[l[attr]], &self.values[r[attr]]);
            while let Some(d) = dims.next_if(|&d| d / n_sims == attr) {
                sink(d, scorer.score(SimilarityFunction::ALL[d % n_sims]));
            }
        }
    }

    /// Number of continuous feature dimensions (21 × #attrs).
    pub fn dim(&self) -> usize {
        self.attr_names.len() * SimilarityFunction::ALL.len()
    }

    /// Descriptions of the continuous dimensions, attribute-major: the
    /// feature at index `a * 21 + s` is similarity `s` on attribute `a`.
    pub fn descriptions(&self) -> Vec<FeatureDesc> {
        let mut out = Vec::with_capacity(self.dim());
        for attr in &self.attr_names {
            for sim in SimilarityFunction::ALL {
                out.push(FeatureDesc {
                    sim,
                    attr: attr.clone(),
                });
            }
        }
        out
    }

    /// Continuous feature vector for one candidate pair.
    pub fn extract_pair(&self, pair: Pair) -> Vec<f64> {
        self.extract_all_with(&[pair], &alem_par::Parallelism::sequential())
    }

    /// Continuous feature matrix for a pair list, row-major: row `i`
    /// (the features of `pairs[i]`) is `[i * dim .. (i + 1) * dim]`.
    /// Work fans out over worker threads; each chunk scores into one
    /// buffer through one [`Scratch`], and the buffers join in pair
    /// order, so the matrix (and every fingerprint downstream of it) is
    /// identical to the sequential build. With one thread the chunk's
    /// buffer is the matrix, with no copy.
    pub fn extract_all_with(&self, pairs: &[Pair], par: &alem_par::Parallelism) -> Vec<f64> {
        par.map_chunks(pairs, |chunk| {
            let mut scratch = Scratch::default();
            let mut flat = Vec::with_capacity(chunk.len() * self.dim());
            for &p in chunk {
                self.score_dims(p, 0..self.dim(), &mut scratch, |_, v| flat.push(v));
            }
            flat
        })
    }

    /// Compute a *single* continuous feature dimension on demand.
    ///
    /// The lazy feature store's single-cell reads land here: one
    /// similarity computation instead of the full 21×#attrs vector.
    pub fn compute_dim(&self, pair: Pair, dim: usize) -> f64 {
        let mut value = 0.0;
        self.score_dims(pair, [dim], &mut Scratch::default(), |_, v| value = v);
        value
    }

    /// [`FeatureExtractor::compute_dim`] batched: compute `dims` for one
    /// pair, emitting `(dim, value)` through `sink` in `dims` order. Runs
    /// of dims sharing an attribute (the common case — dims are
    /// attr-major) share one value-pair lookup and scratch space, as in
    /// [`FeatureExtractor::extract_pair`]. Values are bit-identical to
    /// `compute_dim`.
    ///
    /// This is the lazy feature store's batch fill path: sorted dim runs
    /// from phase-1 partial reads and row materialization land here.
    pub fn compute_dims_with(&self, pair: Pair, dims: &[usize], sink: impl FnMut(usize, f64)) {
        self.score_dims(pair, dims.iter().copied(), &mut Scratch::default(), sink);
    }

    /// Number of Boolean rule-predicate dimensions
    /// (3 functions × 10 thresholds × #attrs).
    pub fn bool_dim(&self) -> usize {
        self.attr_names.len() * SimilarityFunction::RULE_SUBSET.len() * RULE_THRESHOLDS.len()
    }

    /// Descriptions of the Boolean predicate dimensions, attribute-major
    /// then function-major then threshold.
    pub fn bool_descriptions(&self) -> Vec<BoolFeatureDesc> {
        let mut out = Vec::with_capacity(self.bool_dim());
        for attr in &self.attr_names {
            for sim in SimilarityFunction::RULE_SUBSET {
                for &threshold in &RULE_THRESHOLDS {
                    out.push(BoolFeatureDesc {
                        sim,
                        attr: attr.clone(),
                        threshold,
                    });
                }
            }
        }
        out
    }

    /// Derive the Boolean predicate vector from a continuous feature row
    /// (the 3 rule functions are among the 21 continuous ones, so no
    /// similarity needs recomputing). Atoms hold as `1.0`, else `0.0`.
    pub fn booleanize(&self, continuous: &[f64]) -> Vec<f64> {
        assert_eq!(continuous.len(), self.dim(), "row dimensionality mismatch");
        let n_sims = SimilarityFunction::ALL.len();
        let mut out = Vec::with_capacity(self.bool_dim());
        for a in 0..self.attr_names.len() {
            for sim in SimilarityFunction::RULE_SUBSET {
                let sim_idx = SimilarityFunction::ALL
                    .iter()
                    .position(|&s| s == sim)
                    // alem-lint: allow(no-panic) -- RULE_SUBSET is a compile-time subset of ALL, covered by unit tests
                    .expect("rule subset is part of ALL");
                let v = continuous[a * n_sims + sim_idx];
                for &threshold in &RULE_THRESHOLDS {
                    out.push(f64::from(u8::from(v >= threshold - 1e-12)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrKind, EmDataset, Record, Schema};

    fn toy() -> EmDataset {
        let schema = Schema::new(vec![("name", AttrKind::Text), ("price", AttrKind::Numeric)]);
        let l = Table::new(
            "l",
            schema.clone(),
            vec![
                Record::new(vec![Some("apple ipod nano".into()), Some("149".into())]),
                Record::new(vec![Some("sony walkman".into()), None]),
            ],
        );
        let r = Table::new(
            "r",
            schema,
            vec![
                Record::new(vec![Some("apple ipod nano 8gb".into()), Some("149".into())]),
                Record::new(vec![Some("dell monitor".into()), Some("300".into())]),
            ],
        );
        EmDataset {
            left: l,
            right: r,
            matches: [(0u32, 0u32)].into_iter().collect(),
            name: "toy".into(),
        }
    }

    #[test]
    fn mismatched_schemas_are_an_error() {
        let mut ds = toy();
        let other = Schema::new(vec![("title", AttrKind::Text)]);
        ds.right = Table::new(
            "r",
            other,
            vec![Record::new(vec![Some("apple ipod".into())])],
        );
        match FeatureExtractor::new(&ds) {
            Err(AlemError::InvalidConfig(msg)) => assert!(msg.contains("schema"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn repeated_values_share_one_prepared_view() {
        let mut ds = toy();
        // Left record 1's name also appears on the right.
        ds.right = Table::new(
            "r",
            ds.right.schema().clone(),
            vec![Record::new(vec![
                Some("sony walkman".into()),
                Some("149".into()),
            ])],
        );
        let fx = FeatureExtractor::new(&ds).unwrap();
        // Six cells, four distinct raw values: "apple ipod nano", "149",
        // "sony walkman" and the missing price "".
        assert_eq!(fx.values.len(), 4);
        assert_eq!(fx.left[2], fx.right[0], "one view for both tables");
        assert_eq!(fx.left[1], fx.right[1]);
        assert!(fx.extract_pair((1, 0))[..21].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn dims_are_21_per_attr() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        assert_eq!(fx.dim(), 42);
        assert_eq!(fx.descriptions().len(), 42);
        assert_eq!(fx.bool_dim(), 60);
        assert_eq!(fx.bool_descriptions().len(), 60);
    }

    #[test]
    fn matching_pair_scores_higher() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let m: f64 = fx.extract_pair((0, 0)).iter().sum();
        let n: f64 = fx.extract_pair((0, 1)).iter().sum();
        assert!(m > n, "match {m} vs non-match {n}");
    }

    #[test]
    fn missing_attr_scores_zero() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let row = fx.extract_pair((1, 0)); // left price is None
                                           // Price dims are the second attribute block.
        for v in &row[21..42] {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn compute_dim_matches_full_extraction() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let full = fx.extract_pair((0, 0));
        for (d, &v) in full.iter().enumerate() {
            assert_eq!(fx.compute_dim((0, 0), d), v, "dim {d}");
        }
    }

    #[test]
    fn booleanize_thresholds() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let row = fx.extract_pair((0, 0));
        let b = fx.booleanize(&row);
        assert_eq!(b.len(), 60);
        assert!(b.iter().all(|&v| v == 0.0 || v == 1.0));
        // Price is exactly equal → Identity atoms hold at every threshold.
        let descs = fx.bool_descriptions();
        for (v, d) in b.iter().zip(&descs) {
            if d.attr == "price" && d.sim == SimilarityFunction::Identity {
                assert_eq!(*v, 1.0, "{d}");
            }
        }
    }

    #[test]
    fn bool_monotone_in_threshold() {
        // If an atom holds at τ it must hold at every smaller τ.
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let b = fx.booleanize(&fx.extract_pair((0, 0)));
        let descs = fx.bool_descriptions();
        for w in 0..b.len() - 1 {
            let (d1, d2) = (&descs[w], &descs[w + 1]);
            if d1.attr == d2.attr && d1.sim == d2.sim {
                assert!(b[w] >= b[w + 1], "{d1} vs {d2}");
            }
        }
    }

    #[test]
    fn display_formats() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let d = &fx.descriptions()[0];
        assert_eq!(d.to_string(), "LevenshteinSim(left.name, right.name)");
        let bd = fx
            .bool_descriptions()
            .into_iter()
            .find(|d| d.sim == SimilarityFunction::Jaccard && d.attr == "name")
            .unwrap();
        assert_eq!(bd.to_string(), "JaccardSim(left.name, right.name) >= 0.1");
        let eq = fx
            .bool_descriptions()
            .into_iter()
            .find(|d| d.sim == SimilarityFunction::Identity && d.attr == "price")
            .unwrap();
        assert_eq!(eq.to_string(), "left.price = right.price");
    }
}
