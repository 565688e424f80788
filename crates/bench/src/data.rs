//! Corpus construction for the benchmark harness: generate a synthetic
//! dataset, block it, and featurize the candidate pairs through
//! [`Corpus::from_candidates_with`].

use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::features::FeatureSpace;
use alem_core::schema::EmDataset;
use alem_par::Parallelism;
use datagen::PaperDataset;

/// Fixed generation seed so every experiment sees the same corpora.
pub const DATA_SEED: u64 = 20200614; // SIGMOD'20 opening day

/// A fully prepared benchmark corpus.
pub struct PreparedData {
    /// The featurized post-blocking pair universe.
    pub corpus: Corpus,
    /// The feature space (for feature descriptions in interpretability
    /// output).
    pub space: FeatureSpace,
}

/// Build a corpus for a generated dataset with its configured blocking
/// threshold, featurizing across the machine's cores.
pub fn prepare_dataset(ds: &EmDataset, blocking_threshold: f64) -> PreparedData {
    let blocking = TokenIndex::builder().threshold(blocking_threshold).build();
    let (corpus, space) = Corpus::from_candidates_with(ds, &blocking, &Parallelism::default())
        // alem-lint: allow(panic-reach) -- the Jaccard filter cannot fail; a failed build is a harness bug
        .unwrap_or_else(|e| panic!("corpus build failed: {e}"));
    PreparedData { corpus, space }
}

/// Generate + prepare one paper dataset at `scale`.
pub fn prepare(dataset: PaperDataset, scale: f64) -> PreparedData {
    let cfg = dataset.config(scale);
    let ds = datagen::generate(&cfg, DATA_SEED);
    prepare_dataset(&ds, cfg.blocking_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_dataset() {
        let p = prepare(PaperDataset::Beer, 1.0);
        assert!(p.corpus.len() > 50);
        assert_eq!(p.corpus.dim(), 4 * 21);
        assert!(p.corpus.bool_features().is_some());
        assert_eq!(p.corpus.name(), "BeerAdvocate-RateBeer");
    }

    #[test]
    fn parallel_extraction_matches_serial() {
        let cfg = PaperDataset::DblpAcm.config(0.05);
        let ds = datagen::generate(&cfg, 1);
        let blocking = TokenIndex::builder()
            .threshold(cfg.blocking_threshold)
            .build();
        let build = |par: &Parallelism| {
            Corpus::from_candidates_with(&ds, &blocking, par)
                .expect("blocking succeeds")
                .0
                .content_fingerprint()
        };
        assert_eq!(
            build(&Parallelism::sequential()),
            build(&Parallelism::fixed(3))
        );
    }
}
