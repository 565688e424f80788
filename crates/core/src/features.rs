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
//! the kernels do not allocate per cell. An eager build prepares one
//! attribute's values at a time and scores them into the store in place;
//! what a corpus keeps afterwards is a [`FeatureSpace`], which holds the
//! attribute names and no prepared value.

use crate::error::AlemError;
use crate::schema::{EmDataset, Pair, Table};
use alem_par::Parallelism;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
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

/// Similarity functions per attribute: the continuous dims of one
/// attribute.
const N_SIMS: usize = SimilarityFunction::ALL.len();

/// Row blocks per worker thread in an eager build: more blocks than
/// threads, so the work queue of [`Parallelism::run`] evens out rows
/// that cost more than others.
const BLOCKS_PER_THREAD: usize = 4;

/// The feature space of a dataset's aligned schema: its attribute names,
/// and from them the continuous and Boolean dimensions, their
/// descriptions, and the Boolean predicates of a continuous row. It holds
/// no prepared value, so it is all a corpus keeps of its build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSpace {
    attr_names: Box<[String]>,
}

impl FeatureSpace {
    /// The feature space of `ds`'s schema.
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
        Ok(FeatureSpace {
            attr_names: ds
                .left
                .schema()
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
        })
    }

    /// Number of continuous feature dimensions (21 × #attrs).
    pub fn dim(&self) -> usize {
        self.attr_names.len() * N_SIMS
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
    ///
    /// Fails with [`AlemError::InvalidConfig`] unless the row has
    /// [`FeatureSpace::dim`] values.
    pub fn booleanize(&self, continuous: &[f64]) -> Result<Vec<f64>, AlemError> {
        if continuous.len() != self.dim() {
            return Err(AlemError::InvalidConfig(format!(
                "a row of {} values is not a {}-dim feature row",
                continuous.len(),
                self.dim()
            )));
        }
        Ok(self.atoms(continuous))
    }

    /// [`FeatureSpace::booleanize`] of a row known to be `dim` wide, such
    /// as a row of the corpus's own store.
    pub(crate) fn atoms(&self, continuous: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.bool_dim());
        for sims in continuous.chunks_exact(N_SIMS) {
            for rule in SimilarityFunction::RULE_SUBSET {
                let v = SimilarityFunction::ALL
                    .iter()
                    .zip(sims)
                    .find_map(|(&sim, &v)| (sim == rule).then_some(v))
                    .unwrap_or(0.0);
                for &threshold in &RULE_THRESHOLDS {
                    out.push(f64::from(u8::from(v >= threshold - 1e-12)));
                }
            }
        }
        out
    }
}

/// Pre-tokenized feature extractor over a dataset's two tables, for all
/// of the schema's attributes ([`FeatureExtractor::new`]) or for one
/// ([`FeatureExtractor::attribute`]).
///
/// Cells that hold the same raw string share one [`Prepared`] value:
/// `Prepared::new` is a pure function of the raw string, so interning is
/// exact, and most cells of a real table repeat a value.
pub struct FeatureExtractor {
    space: FeatureSpace,
    /// One prepared view per distinct raw value of the extractor's
    /// attributes in either table.
    values: Box<[Prepared]>,
    /// `values` index of each cell, `[record * #attrs + attr]`.
    left: Box<[u32]>,
    right: Box<[u32]>,
}

impl fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_attrs = self.space.attr_names.len().max(1);
        f.debug_struct("FeatureExtractor")
            .field("attrs", &self.space.attr_names)
            .field("left_records", &(self.left.len() / n_attrs))
            .field("right_records", &(self.right.len() / n_attrs))
            .field("distinct_values", &self.values.len())
            .field("retained_bytes", &self.retained_bytes())
            .finish()
    }
}

/// The `values` index of every cell of `table` in the columns `attrs`,
/// interning each distinct raw value (a missing value is the empty
/// string) on first sight.
fn intern_table<'t>(
    table: &'t Table,
    attrs: Range<usize>,
    ids: &mut BTreeMap<&'t str, u32>,
    values: &mut Vec<Prepared>,
) -> Box<[u32]> {
    let mut cells = Vec::with_capacity(table.len() * attrs.len());
    for record in table.records() {
        for a in attrs.clone() {
            let raw = record.value(a).unwrap_or("");
            let id = *ids.entry(raw).or_insert_with(|| {
                values.push(Prepared::new(raw));
                (values.len() - 1) as u32
            });
            cells.push(id);
        }
    }
    cells.into_boxed_slice()
}

impl FeatureExtractor {
    /// Tokenize every distinct attribute value of both tables.
    ///
    /// Fails with [`AlemError::InvalidConfig`] when the two tables'
    /// schemas differ, since features pair attributes by position.
    pub fn new(ds: &EmDataset) -> Result<Self, AlemError> {
        let space = FeatureSpace::new(ds)?;
        let attrs = 0..space.attr_names.len();
        Ok(FeatureExtractor::over(ds, space, attrs))
    }

    /// The extractor of attribute `attr` alone: it tokenizes that
    /// attribute's distinct values in both tables, and its 21 dims are
    /// that attribute's dims of the full row, bit for bit.
    ///
    /// Fails with [`AlemError::InvalidConfig`] when the two tables'
    /// schemas differ or the schema has no attribute `attr`.
    pub fn attribute(ds: &EmDataset, attr: usize) -> Result<Self, AlemError> {
        let all = FeatureSpace::new(ds)?;
        let Some(name) = all.attr_names.get(attr) else {
            return Err(AlemError::InvalidConfig(format!(
                "attribute {attr} is past the schema's {}",
                all.attr_names.len()
            )));
        };
        let space = FeatureSpace {
            attr_names: Box::new([name.clone()]),
        };
        Ok(FeatureExtractor::over(ds, space, attr..attr + 1))
    }

    /// Intern the columns `attrs` of both tables; `space` names them.
    fn over(ds: &EmDataset, space: FeatureSpace, attrs: Range<usize>) -> Self {
        let mut ids = BTreeMap::new();
        let mut values = Vec::new();
        let left = intern_table(&ds.left, attrs.clone(), &mut ids, &mut values);
        let right = intern_table(&ds.right, attrs, &mut ids, &mut values);
        FeatureExtractor {
            space,
            values: values.into_boxed_slice(),
            left,
            right,
        }
    }

    /// The feature space of the extractor's attributes.
    pub fn space(&self) -> &FeatureSpace {
        &self.space
    }

    /// Bytes the extractor holds: its own struct, the attribute names,
    /// every prepared value with its views, and the two cell indexes.
    /// Every part is an exact-size slice or string, so the count is
    /// exact and does not depend on the allocator.
    fn retained_bytes(&self) -> usize {
        let names: usize = self
            .space
            .attr_names
            .iter()
            .map(|a| size_of_val(a) + a.len())
            .sum();
        let values: usize = self
            .values
            .iter()
            .map(|v| size_of_val(v) + v.heap_bytes())
            .sum();
        size_of::<Self>() + names + values + size_of_val(&*self.left) + size_of_val(&*self.right)
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
        let n_attrs = self.space.attr_names.len();
        let l = &self.left[pair.0 as usize * n_attrs..][..n_attrs];
        let r = &self.right[pair.1 as usize * n_attrs..][..n_attrs];
        let mut dims = dims.into_iter().peekable();
        while let Some(&first) = dims.peek() {
            let attr = first / N_SIMS;
            let (a, b) = (l[attr] as usize, r[attr] as usize);
            let mut scorer = scratch.pair(&self.values[a], &self.values[b]);
            while let Some(d) = dims.next_if(|&d| d / N_SIMS == attr) {
                sink(d, scorer.score(SimilarityFunction::ALL[d % N_SIMS]));
            }
        }
    }

    /// Continuous feature vector for one candidate pair.
    pub fn extract_pair(&self, pair: Pair) -> Vec<f64> {
        let dim = self.space.dim();
        let mut row = Vec::with_capacity(dim);
        self.score_dims(pair, 0..dim, &mut Scratch::default(), |_, v| row.push(v));
        row
    }

    /// Compute the continuous feature dimensions `dims` of one pair on
    /// demand, emitting `(dim, value)` through `sink` in `dims` order.
    /// Runs of dims sharing an attribute (the common case — dims are
    /// attr-major) share one value-pair lookup and scratch space, as in
    /// [`FeatureExtractor::extract_pair`], and every value is
    /// bit-identical to that dim of the full row.
    ///
    /// This is the lazy feature store's fill path: the sorted missing
    /// cells of a partial read, and those of a row being materialized,
    /// land here.
    pub fn compute_dims_with(&self, pair: Pair, dims: &[usize], sink: impl FnMut(usize, f64)) {
        self.score_dims(pair, dims.iter().copied(), &mut Scratch::default(), sink);
    }
}

/// The continuous feature matrix of `pairs` over `ds`, row-major: row
/// `i`, the features of `pairs[i]`, is `[i * dim..(i + 1) * dim]`. This
/// is the eager store's one buffer, scored in place one attribute at a
/// time: the extractor of attribute `a` prepares that attribute's
/// distinct values only, scores its 21 columns of every row, and is
/// dropped before the next attribute, so the build holds at most the
/// buffer plus the largest attribute's views. The rows split into
/// disjoint blocks that run on `par`; every cell is a pure function of
/// its pair and attribute, so the matrix is the same for any thread
/// count and any blocking.
pub(crate) fn extract_rows(
    ds: &EmDataset,
    pairs: &[Pair],
    par: &Parallelism,
) -> Result<Vec<f64>, AlemError> {
    let space = FeatureSpace::new(ds)?;
    let (n_attrs, dim) = (space.attr_names.len(), space.dim());
    let mut flat = vec![0.0; pairs.len() * dim];
    let block_rows = pairs
        .len()
        .div_ceil(par.threads() * BLOCKS_PER_THREAD)
        .max(1);
    for attr in 0..n_attrs {
        let fx = FeatureExtractor::attribute(ds, attr)?;
        let jobs: Vec<_> = flat
            .chunks_mut(block_rows * dim)
            .zip(pairs.chunks(block_rows))
            .map(|(rows, pairs)| {
                let fx = &fx;
                move || {
                    let mut scratch = Scratch::default();
                    // This attribute's 21 cells of each row.
                    let cells = rows.chunks_exact_mut(N_SIMS).skip(attr).step_by(n_attrs);
                    for (cells, &pair) in cells.zip(pairs) {
                        let mut out = cells.iter_mut();
                        fx.score_dims(pair, 0..N_SIMS, &mut scratch, |_, v| {
                            if let Some(cell) = out.next() {
                                *cell = v;
                            }
                        });
                    }
                }
            })
            .collect();
        par.run(jobs);
    }
    Ok(flat)
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
        let space = FeatureSpace::new(&toy()).unwrap();
        assert_eq!(space.dim(), 42);
        assert_eq!(space.descriptions().len(), 42);
        assert_eq!(space.bool_dim(), 60);
        assert_eq!(space.bool_descriptions().len(), 60);
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
            let mut got = Vec::new();
            fx.compute_dims_with((0, 0), &[d], |dim, x| got.push((dim, x)));
            assert_eq!(got, vec![(d, v)], "dim {d}");
        }
        let dims: Vec<usize> = (0..full.len()).rev().step_by(3).collect();
        let mut got = Vec::new();
        fx.compute_dims_with((0, 0), &dims, |dim, x| got.push((dim, x)));
        let want: Vec<(usize, f64)> = dims.iter().map(|&d| (d, full[d])).collect();
        assert_eq!(got, want, "a batch arrives in dims order");
    }

    #[test]
    fn booleanize_thresholds() {
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let row = fx.extract_pair((0, 0));
        let b = fx.space().booleanize(&row).unwrap();
        assert_eq!(b.len(), 60);
        assert!(b.iter().all(|&v| v == 0.0 || v == 1.0));
        // Price is exactly equal → Identity atoms hold at every threshold.
        let descs = fx.space().bool_descriptions();
        for (v, d) in b.iter().zip(&descs) {
            if d.attr == "price" && d.sim == SimilarityFunction::Identity {
                assert_eq!(*v, 1.0, "{d}");
            }
        }
    }

    #[test]
    fn booleanize_rejects_a_row_of_another_width() {
        let space = FeatureSpace::new(&toy()).unwrap();
        for width in [41, 43, 0] {
            match space.booleanize(&vec![0.5; width]) {
                Err(AlemError::InvalidConfig(msg)) => {
                    assert!(msg.contains(&format!("{width} values")), "{msg}")
                }
                other => panic!("width {width}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_attribute_extractor_scores_its_slice_of_the_row() {
        let ds = toy();
        let fx = FeatureExtractor::new(&ds).unwrap();
        for attr in 0..2 {
            let one = FeatureExtractor::attribute(&ds, attr).unwrap();
            assert_eq!(one.space().dim(), 21);
            assert_eq!(
                one.space().descriptions(),
                fx.space().descriptions()[attr * 21..][..21]
            );
            for pair in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let full = fx.extract_pair(pair);
                let got = one.extract_pair(pair);
                let same = got
                    .iter()
                    .zip(&full[attr * 21..])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "attribute {attr} of {pair:?}");
            }
        }
        assert!(matches!(
            FeatureExtractor::attribute(&ds, 2),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn bool_monotone_in_threshold() {
        // If an atom holds at τ it must hold at every smaller τ.
        let fx = FeatureExtractor::new(&toy()).unwrap();
        let b = fx.space().booleanize(&fx.extract_pair((0, 0))).unwrap();
        let descs = fx.space().bool_descriptions();
        for w in 0..b.len() - 1 {
            let (d1, d2) = (&descs[w], &descs[w + 1]);
            if d1.attr == d2.attr && d1.sim == d2.sim {
                assert!(b[w] >= b[w + 1], "{d1} vs {d2}");
            }
        }
    }

    #[test]
    fn display_formats() {
        let space = FeatureSpace::new(&toy()).unwrap();
        let d = &space.descriptions()[0];
        assert_eq!(d.to_string(), "LevenshteinSim(left.name, right.name)");
        let bd = space
            .bool_descriptions()
            .into_iter()
            .find(|d| d.sim == SimilarityFunction::Jaccard && d.attr == "name")
            .unwrap();
        assert_eq!(bd.to_string(), "JaccardSim(left.name, right.name) >= 0.1");
        let eq = space
            .bool_descriptions()
            .into_iter()
            .find(|d| d.sim == SimilarityFunction::Identity && d.attr == "price")
            .unwrap();
        assert_eq!(eq.to_string(), "left.price = right.price");
    }
}
