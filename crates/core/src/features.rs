//! Feature extraction: similarity-based feature vectors for record pairs.
//!
//! Continuous features apply all 21 similarity functions to every pair of
//! aligned attributes (paper §3) — e.g. Abt-Buy's 3 matched columns give 63
//! dimensions (the paper reports 62; the count is 21 × #attrs up to the
//! exact Simmetrics subset). Rule learners instead get Boolean predicate
//! features: the 3 supported functions (equality, Jaro-Winkler, Jaccard)
//! evaluated against thresholds 0.1..1.0.
//!
//! The extractor pre-tokenizes every attribute value once
//! ([`textsim::Prepared`]) so evaluating 21 measures per pair doesn't re-do
//! tokenization.

use crate::schema::{EmDataset, Pair, Table};
use std::fmt;
use textsim::{Prepared, SimilarityFunction};

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
pub struct FeatureExtractor {
    attr_names: Vec<String>,
    left: Vec<Vec<Prepared>>,  // [record][attr]
    right: Vec<Vec<Prepared>>, // [record][attr]
}

impl fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureExtractor")
            .field("attrs", &self.attr_names)
            .field("left_records", &self.left.len())
            .field("right_records", &self.right.len())
            .finish()
    }
}

fn prepare_table(table: &Table) -> Vec<Vec<Prepared>> {
    (0..table.len())
        .map(|i| {
            (0..table.schema().len())
                .map(|a| Prepared::new(table.record(i).value(a).unwrap_or("")))
                .collect()
        })
        .collect()
}

impl FeatureExtractor {
    /// Tokenize every attribute value of both tables.
    pub fn new(ds: &EmDataset) -> Self {
        assert_eq!(
            ds.left.schema(),
            ds.right.schema(),
            "tables must share an aligned schema"
        );
        FeatureExtractor {
            attr_names: ds
                .left
                .schema()
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
            left: prepare_table(&ds.left),
            right: prepare_table(&ds.right),
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
        let l = &self.left[pair.0 as usize];
        let r = &self.right[pair.1 as usize];
        let mut out = Vec::with_capacity(self.dim());
        for a in 0..self.attr_names.len() {
            for sim in SimilarityFunction::ALL {
                out.push(sim.compute_prepared(&l[a], &r[a]));
            }
        }
        out
    }

    /// Continuous feature matrix for a pair list, fanned out over worker
    /// threads. Rows come back in pair order regardless of thread count,
    /// so the resulting corpus (and every fingerprint downstream of it)
    /// is identical to the sequential build.
    // alem-lint: allow(flat-feature-store) -- extraction seam; rows are flattened into FeatureStore by the corpus builders
    pub fn extract_all_with(&self, pairs: &[Pair], par: &alem_par::Parallelism) -> Vec<Vec<f64>> {
        par.map(pairs, |&p| self.extract_pair(p))
    }

    /// Compute a *single* continuous feature dimension on demand.
    ///
    /// The lazy feature store's single-cell reads land here: one
    /// similarity computation instead of the full 21×#attrs vector.
    pub fn compute_dim(&self, pair: Pair, dim: usize) -> f64 {
        let n_sims = SimilarityFunction::ALL.len();
        let attr = dim / n_sims;
        let sim = SimilarityFunction::ALL[dim % n_sims];
        let l = &self.left[pair.0 as usize][attr];
        let r = &self.right[pair.1 as usize][attr];
        sim.compute_prepared(l, r)
    }

    /// [`FeatureExtractor::compute_dim`] batched: compute `dims` for one
    /// pair, emitting `(dim, value)` through `sink` in `dims` order. The
    /// per-attribute `Prepared` lookups are hoisted out of the similarity
    /// loop, so runs of dims sharing an attribute (the common case —
    /// dims are attr-major) pay for the record indexing once, matching
    /// [`FeatureExtractor::extract_pair`]'s per-similarity cost instead
    /// of `compute_dim`'s. Values are bit-identical to `compute_dim`.
    ///
    /// This is the lazy feature store's batch fill path: sorted dim runs
    /// from phase-1 partial reads and row materialization land here.
    pub fn compute_dims_with(&self, pair: Pair, dims: &[usize], mut sink: impl FnMut(usize, f64)) {
        let n_sims = SimilarityFunction::ALL.len();
        let l = &self.left[pair.0 as usize];
        let r = &self.right[pair.1 as usize];
        let mut k = 0;
        while k < dims.len() {
            let attr = dims[k] / n_sims;
            let (la, ra) = (&l[attr], &r[attr]);
            while k < dims.len() && dims[k] / n_sims == attr {
                let d = dims[k];
                sink(
                    d,
                    SimilarityFunction::ALL[d % n_sims].compute_prepared(la, ra),
                );
                k += 1;
            }
        }
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
    fn dims_are_21_per_attr() {
        let fx = FeatureExtractor::new(&toy());
        assert_eq!(fx.dim(), 42);
        assert_eq!(fx.descriptions().len(), 42);
        assert_eq!(fx.bool_dim(), 60);
        assert_eq!(fx.bool_descriptions().len(), 60);
    }

    #[test]
    fn matching_pair_scores_higher() {
        let fx = FeatureExtractor::new(&toy());
        let m: f64 = fx.extract_pair((0, 0)).iter().sum();
        let n: f64 = fx.extract_pair((0, 1)).iter().sum();
        assert!(m > n, "match {m} vs non-match {n}");
    }

    #[test]
    fn missing_attr_scores_zero() {
        let fx = FeatureExtractor::new(&toy());
        let row = fx.extract_pair((1, 0)); // left price is None
                                           // Price dims are the second attribute block.
        for v in &row[21..42] {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn compute_dim_matches_full_extraction() {
        let fx = FeatureExtractor::new(&toy());
        let full = fx.extract_pair((0, 0));
        for (d, &v) in full.iter().enumerate() {
            assert_eq!(fx.compute_dim((0, 0), d), v, "dim {d}");
        }
    }

    #[test]
    fn booleanize_thresholds() {
        let fx = FeatureExtractor::new(&toy());
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
        let fx = FeatureExtractor::new(&toy());
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
        let fx = FeatureExtractor::new(&toy());
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
