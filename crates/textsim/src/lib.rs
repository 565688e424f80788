//! `textsim` — string similarity functions for entity matching.
//!
//! This crate replaces the Java Simmetrics library used by the SIGMOD 2020
//! paper *"A Comprehensive Benchmark Framework for Active Learning Methods in
//! Entity Matching"* (Meduri et al.). It implements the same 21 similarity
//! functions the paper's feature extractor applies to every pair of aligned
//! attributes, all normalized to `[0, 1]`.
//!
//! The central entry points are [`SimilarityFunction`], an enum covering all
//! 21 measures; [`Prepared`], a pre-tokenized view of a string that lets
//! callers amortize tokenization when evaluating many measures against the
//! same value (exactly what a feature extractor does); and [`Scratch`], the
//! caller-owned working memory that lets the kernels run without
//! allocating. [`Scratch::pair`] scores many measures on one value pair.
//!
//! Per the paper (§3), if one or both attribute values are null/missing the
//! similarity evaluates to `0`; the empty string is treated as missing.
//!
//! # Example
//!
//! ```
//! use textsim::{Prepared, SimilarityFunction};
//!
//! let a = Prepared::new("apple ipod nano 8gb");
//! let b = Prepared::new("apple ipod nano 8 gb silver");
//! let jac = SimilarityFunction::Jaccard.compute_prepared(&a, &b);
//! assert!(jac > 0.4 && jac < 1.0);
//! let exact = SimilarityFunction::Identity.compute_prepared(&a, &a);
//! assert_eq!(exact, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod phonetic;
pub mod prepared;
pub mod qgram;
mod scratch;
pub mod seq;
pub mod setsim;
pub mod tokenize;

pub use prepared::Prepared;
pub use scratch::Scratch;

/// One of the 21 string similarity measures from the Simmetrics suite used by
/// the paper's feature extractor.
///
/// Every measure is normalized to `[0, 1]` where `1` means identical and `0`
/// means maximally dissimilar (or missing input). Distance-like measures
/// (Levenshtein, q-gram distance, block distance, Euclidean distance) are
/// converted to similarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimilarityFunction {
    /// Normalized Levenshtein (edit distance) similarity on characters.
    Levenshtein,
    /// Normalized Damerau-Levenshtein similarity (edits + transpositions).
    DamerauLevenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity (prefix-boosted Jaro, p = 0.1, max prefix 4).
    JaroWinkler,
    /// Normalized Needleman-Wunsch global alignment similarity.
    NeedlemanWunsch,
    /// Normalized Smith-Waterman local alignment similarity.
    SmithWaterman,
    /// Normalized Smith-Waterman-Gotoh (affine gap penalties).
    SmithWatermanGotoh,
    /// Longest common subsequence similarity, `|lcs| / max(|a|, |b|)`.
    LongestCommonSubsequence,
    /// Longest common substring similarity, `|lcsstr| / max(|a|, |b|)`.
    LongestCommonSubstring,
    /// Exact string equality (1.0 or 0.0).
    Identity,
    /// Jaccard coefficient on whitespace token sets.
    Jaccard,
    /// Generalized Jaccard: soft token overlap with Jaro inner similarity.
    GeneralizedJaccard,
    /// Sørensen-Dice coefficient on whitespace token sets.
    Dice,
    /// Overlap coefficient on whitespace token sets.
    OverlapCoefficient,
    /// Cosine similarity on whitespace token sets.
    Cosine,
    /// Simon White similarity: Dice coefficient on bigram multisets.
    SimonWhite,
    /// Ukkonen q-gram distance (q = 3, padded), converted to a similarity.
    QGram,
    /// Block (L1) distance on token multisets, converted to a similarity.
    BlockDistance,
    /// Euclidean (L2) distance on token multisets, converted to a similarity.
    EuclideanDistance,
    /// Monge-Elkan: average best-match token similarity with a
    /// Smith-Waterman inner measure.
    MongeElkan,
    /// Soundex: Jaro-Winkler over the Soundex codes of the first tokens.
    Soundex,
}

impl SimilarityFunction {
    /// All 21 similarity functions in a stable, documented order. The
    /// feature extractor iterates this array, so feature indices are
    /// reproducible across runs.
    pub const ALL: [SimilarityFunction; 21] = [
        SimilarityFunction::Levenshtein,
        SimilarityFunction::DamerauLevenshtein,
        SimilarityFunction::Jaro,
        SimilarityFunction::JaroWinkler,
        SimilarityFunction::NeedlemanWunsch,
        SimilarityFunction::SmithWaterman,
        SimilarityFunction::SmithWatermanGotoh,
        SimilarityFunction::LongestCommonSubsequence,
        SimilarityFunction::LongestCommonSubstring,
        SimilarityFunction::Identity,
        SimilarityFunction::Jaccard,
        SimilarityFunction::GeneralizedJaccard,
        SimilarityFunction::Dice,
        SimilarityFunction::OverlapCoefficient,
        SimilarityFunction::Cosine,
        SimilarityFunction::SimonWhite,
        SimilarityFunction::QGram,
        SimilarityFunction::BlockDistance,
        SimilarityFunction::EuclideanDistance,
        SimilarityFunction::MongeElkan,
        SimilarityFunction::Soundex,
    ];

    /// The subset of similarity functions supported by the rule-based learner
    /// of Qian et al. (paper §3: equality, Jaro-Winkler and Jaccard).
    pub const RULE_SUBSET: [SimilarityFunction; 3] = [
        SimilarityFunction::Identity,
        SimilarityFunction::JaroWinkler,
        SimilarityFunction::Jaccard,
    ];

    /// Short stable name used in feature descriptions and learned-rule
    /// pretty-printing (e.g. `JaccardSim(left.name, right.name) >= 0.4`).
    pub fn name(self) -> &'static str {
        match self {
            SimilarityFunction::Levenshtein => "LevenshteinSim",
            SimilarityFunction::DamerauLevenshtein => "DamerauLevenshteinSim",
            SimilarityFunction::Jaro => "JaroSim",
            SimilarityFunction::JaroWinkler => "JaroWinklerSim",
            SimilarityFunction::NeedlemanWunsch => "NeedlemanWunschSim",
            SimilarityFunction::SmithWaterman => "SmithWatermanSim",
            SimilarityFunction::SmithWatermanGotoh => "SmithWatermanGotohSim",
            SimilarityFunction::LongestCommonSubsequence => "LcsSeqSim",
            SimilarityFunction::LongestCommonSubstring => "LcsStrSim",
            SimilarityFunction::Identity => "ExactMatch",
            SimilarityFunction::Jaccard => "JaccardSim",
            SimilarityFunction::GeneralizedJaccard => "GeneralizedJaccardSim",
            SimilarityFunction::Dice => "DiceSim",
            SimilarityFunction::OverlapCoefficient => "OverlapSim",
            SimilarityFunction::Cosine => "CosineSim",
            SimilarityFunction::SimonWhite => "SimonWhiteSim",
            SimilarityFunction::QGram => "QGramSim",
            SimilarityFunction::BlockDistance => "BlockDistSim",
            SimilarityFunction::EuclideanDistance => "EuclideanSim",
            SimilarityFunction::MongeElkan => "MongeElkanSim",
            SimilarityFunction::Soundex => "SoundexSim",
        }
    }

    /// Compute the similarity of two raw strings.
    ///
    /// Prefer [`Scratch::pair`] when evaluating many measures over the same
    /// values; this convenience method tokenizes on every call.
    pub fn compute(self, a: &str, b: &str) -> f64 {
        self.compute_prepared(&Prepared::new(a), &Prepared::new(b))
    }

    /// Compute the similarity of two pre-tokenized strings.
    ///
    /// Returns `0.0` if either side is missing (empty after trimming), per
    /// the paper's null-handling rule.
    pub fn compute_prepared(self, a: &Prepared, b: &Prepared) -> f64 {
        Scratch::default().pair(a, b).score(self)
    }
}

impl Scratch {
    /// A scorer of measures on the value pair `(a, b)` that works in this
    /// scratch space.
    pub fn pair<'s, 'p>(&'s mut self, a: &'p Prepared, b: &'p Prepared) -> PairScorer<'s, 'p> {
        PairScorer {
            a,
            b,
            scratch: self,
            jaro: None,
        }
    }
}

/// Scores similarity measures on one value pair; see [`Scratch::pair`].
/// Jaro and Jaro-Winkler share one Jaro computation per pair.
#[derive(Debug)]
pub struct PairScorer<'s, 'p> {
    a: &'p Prepared,
    b: &'p Prepared,
    scratch: &'s mut Scratch,
    jaro: Option<f64>,
}

impl PairScorer<'_, '_> {
    /// Similarity `f` of the pair, in `[0, 1]`: `0.0` if either side is
    /// missing (empty after trimming), per the paper's null-handling rule.
    pub fn score(&mut self, f: SimilarityFunction) -> f64 {
        let (a, b) = (self.a, self.b);
        if a.is_missing() || b.is_missing() {
            return 0.0;
        }
        let s = &mut *self.scratch;
        let (x, y) = (a.chars(), b.chars());
        let v = match f {
            SimilarityFunction::Levenshtein => seq::levenshtein_sim(x, y, s),
            SimilarityFunction::DamerauLevenshtein => seq::damerau_levenshtein_sim(x, y, s),
            SimilarityFunction::Jaro => self.jaro(),
            SimilarityFunction::JaroWinkler => seq::winkler(self.jaro(), x, y),
            SimilarityFunction::NeedlemanWunsch => seq::needleman_wunsch_sim(x, y, s),
            SimilarityFunction::SmithWaterman => seq::smith_waterman_sim(x, y, s),
            SimilarityFunction::SmithWatermanGotoh => seq::smith_waterman_gotoh_sim(x, y, s),
            SimilarityFunction::LongestCommonSubsequence => seq::lcs_seq_sim(x, y, s),
            SimilarityFunction::LongestCommonSubstring => seq::lcs_str_sim(x, y, s),
            SimilarityFunction::Identity => f64::from(u8::from(x == y)),
            SimilarityFunction::Jaccard => setsim::jaccard(a, b),
            SimilarityFunction::GeneralizedJaccard => setsim::generalized_jaccard(a, b, s),
            SimilarityFunction::Dice => setsim::dice(a, b),
            SimilarityFunction::OverlapCoefficient => setsim::overlap(a, b),
            SimilarityFunction::Cosine => setsim::cosine(a, b),
            SimilarityFunction::SimonWhite => qgram::simon_white(a.bigrams(), b.bigrams()),
            SimilarityFunction::QGram => qgram::qgram_sim(a.trigrams(), b.trigrams()),
            SimilarityFunction::BlockDistance => setsim::block_distance_sim(a, b),
            SimilarityFunction::EuclideanDistance => setsim::euclidean_sim(a, b),
            SimilarityFunction::MongeElkan => setsim::monge_elkan(a, b, s),
            SimilarityFunction::Soundex => phonetic::soundex_sim(a, b, s),
        };
        // Guard against float drift: all measures are defined on [0, 1].
        v.clamp(0.0, 1.0)
    }

    /// Jaro similarity of the pair, computed once.
    fn jaro(&mut self) -> f64 {
        match self.jaro {
            Some(j) => j,
            None => {
                let j = seq::jaro(self.a.chars(), self.b.chars(), self.scratch);
                self.jaro = Some(j);
                j
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_21_functions() {
        assert_eq!(SimilarityFunction::ALL.len(), 21);
        let mut v = SimilarityFunction::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 21);
    }

    #[test]
    fn missing_values_score_zero() {
        for f in SimilarityFunction::ALL {
            assert_eq!(f.compute("", "anything"), 0.0, "{:?}", f);
            assert_eq!(f.compute("anything", ""), 0.0, "{:?}", f);
            assert_eq!(f.compute("   ", "anything"), 0.0, "{:?}", f);
        }
    }

    #[test]
    fn identical_strings_score_one() {
        for f in SimilarityFunction::ALL {
            let s = f.compute("apple ipod nano", "apple ipod nano");
            assert!((s - 1.0).abs() < 1e-12, "{:?} gave {}", f, s);
        }
    }

    #[test]
    fn rule_subset_is_three() {
        assert_eq!(SimilarityFunction::RULE_SUBSET.len(), 3);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SimilarityFunction::ALL.iter().map(|f| f.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
    }
}
