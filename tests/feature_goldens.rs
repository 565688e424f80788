//! Pinned feature bits of every datagen corpus. Each constant is the
//! eager [`Corpus::content_fingerprint`] (an FNV-1a hash over every
//! feature bit and truth label) of one generated dataset, blocked at its
//! paper threshold and featurized with all 21 similarity measures. The
//! constants were recorded from the per-cell kernels that score one
//! `Prepared` per table cell; any rewrite of the similarity kernels or of
//! the extractor must reproduce them bit for bit, at any thread count.
//! Next to them sit the exact memory footprints, on the benchmark's Cora
//! tables, of the whole extractor and of the largest one-attribute
//! extractor an eager build holds.

use alem_bench::data::DATA_SEED;
use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::features::FeatureExtractor;
use alem_core::schema::EmDataset;
use alem_par::Parallelism;
use datagen::social::{generate_social, SocialConfig};
use datagen::PaperDataset;

/// Generation scale of the paper datasets: small enough for a debug
/// build, large enough that every dataset blocks to 120–1,300 pairs over
/// all of its attributes.
const SCALE: f64 = 0.03;
/// Table seed of every generated dataset.
const SEED: u64 = 17;

/// `(dataset, eager content fingerprint)` at [`SCALE`] and [`SEED`], in
/// `datagen::configs::ALL_DATASETS` order.
const PAPER_PINS: [(PaperDataset, u64); 9] = [
    (PaperDataset::AbtBuy, 0x4d96_cf90_4790_90c9),
    (PaperDataset::AmazonGoogle, 0x276e_33cd_acb4_ed7e),
    (PaperDataset::DblpAcm, 0x3ef2_e04c_a154_b76e),
    (PaperDataset::DblpScholar, 0x16af_7b16_23ed_57d7),
    (PaperDataset::Cora, 0x620f_ca1b_acff_6e96),
    (PaperDataset::WalmartAmazon, 0x52f0_c53b_1023_0fb2),
    (PaperDataset::AmazonBestBuy, 0xcfcc_0890_a44f_8394),
    (PaperDataset::Beer, 0x0874_5505_7032_1deb),
    (PaperDataset::BabyProducts, 0x233c_3554_b8c2_154e),
];

/// The social corpus at `SocialConfig::scaled(0.1)`, seed [`SEED`],
/// blocked at Jaccard 0.2.
const SOCIAL_PIN: u64 = 0x728b_1037_ef19_534e;

/// The extractor's `Debug` on Cora at scale 0.2 and [`DATA_SEED`], the
/// tables of the `qbc-cora` benchmark workload. `retained_bytes` counts
/// its boxed slices by length and its structs by size, so it is exact and
/// independent of the allocator: a change to the layout of the prepared
/// views or of the cell index moves it.
const CORA_EXTRACTOR: &str = "FeatureExtractor { \
    attrs: [\"author\", \"title\", \"venue\", \"address\", \"publisher\", \"editor\", \
    \"date\", \"vol\", \"pgs\"], left_records: 2864, right_records: 2864, \
    distinct_values: 14359, retained_bytes: 9384676 }";

/// The `Debug` of Cora's largest one-attribute extractor, title's, on the
/// same tables. An eager build prepares one attribute at a time, so this
/// extractor, not [`CORA_EXTRACTOR`], is what the `qbc-cora` build holds
/// beside its store at its peak.
const CORA_TITLE_EXTRACTOR: &str = "FeatureExtractor { attrs: [\"title\"], \
    left_records: 2864, right_records: 2864, distinct_values: 4911, retained_bytes: 4953633 }";

/// Eager fingerprints of `ds` blocked at `threshold`, built sequentially
/// and on three threads; both must agree before either is compared.
fn fingerprint(ds: &EmDataset, threshold: f64) -> u64 {
    let blocking = TokenIndex::builder().threshold(threshold).build();
    let build = |par: &Parallelism| {
        let (corpus, _) =
            Corpus::from_candidates_with(ds, &blocking, par).expect("blocking streams pairs");
        assert!(!corpus.is_empty(), "{}: empty corpus", ds.name);
        corpus.content_fingerprint()
    };
    let seq = build(&Parallelism::sequential());
    assert_eq!(
        seq,
        build(&Parallelism::fixed(3)),
        "{}: thread count changed the features",
        ds.name
    );
    seq
}

#[test]
fn paper_dataset_features_are_pinned() {
    assert_eq!(
        PAPER_PINS.map(|(d, _)| d),
        datagen::configs::ALL_DATASETS,
        "one pin per dataset, in order"
    );
    let mut wrong = Vec::new();
    for (dataset, pin) in PAPER_PINS {
        let cfg = dataset.config(SCALE);
        let ds = datagen::generate(&cfg, SEED);
        let got = fingerprint(&ds, cfg.blocking_threshold);
        if got != pin {
            wrong.push(format!(
                "{}: got {got:#018x}, pinned {pin:#018x}",
                dataset.name()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "feature bits changed:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn cora_extractor_footprint_is_pinned() {
    let ds = datagen::generate(&PaperDataset::Cora.config(0.2), DATA_SEED);
    let fx = FeatureExtractor::new(&ds).expect("both tables share Cora's schema");
    assert_eq!(format!("{fx:?}"), CORA_EXTRACTOR);
}

#[test]
fn cora_title_extractor_footprint_is_pinned() {
    let ds = datagen::generate(&PaperDataset::Cora.config(0.2), DATA_SEED);
    let title = ds.left.schema().index_of("title").expect("Cora has titles");
    let fx = FeatureExtractor::attribute(&ds, title).expect("title is an attribute");
    assert_eq!(format!("{fx:?}"), CORA_TITLE_EXTRACTOR);
}

/// The lazy store fills rows through the extractor's two entry points: a
/// whole row, and a sorted batch of cells, read through the store's one
/// partial read (one cell or many) or completed into a row. Each must
/// give the eager rows' bits, so the pins cover it too.
#[test]
fn lazy_fills_match_eager_rows() {
    for dataset in datagen::configs::ALL_DATASETS {
        let cfg = dataset.config(SCALE);
        let ds = datagen::generate(&cfg, SEED);
        let blocking = TokenIndex::builder()
            .threshold(cfg.blocking_threshold)
            .build();
        let seq = Parallelism::sequential();
        let (eager, _) = Corpus::from_candidates_with(&ds, &blocking, &seq).expect("eager");
        let (lazy, _) = Corpus::from_candidates_lazy(&ds, &blocking).expect("lazy");
        let dim = eager.dim();
        let cells = |c: &Corpus, i: usize, dims: &[usize]| {
            let mut bits = Vec::new();
            c.store()
                .read_dims(i, dims, |d, v| bits.push((d, v.to_bits())));
            bits
        };
        for i in 0..eager.len() {
            if i % 3 != 0 {
                let dims: Vec<usize> = if i % 3 == 1 {
                    vec![i % dim]
                } else {
                    (i % 5..dim).step_by(4).collect()
                };
                let (got, want) = (cells(&lazy, i, &dims), cells(&eager, i, &dims));
                assert_eq!(got, want, "{} cells of row {i}", ds.name);
            }
            let same = lazy
                .x(i)
                .iter()
                .zip(eager.x(i))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{}: lazy row {i} differs", ds.name);
        }
    }
}

#[test]
fn social_features_are_pinned() {
    let ds = generate_social(&SocialConfig::scaled(0.1), SEED);
    let got = fingerprint(&ds, 0.2);
    assert_eq!(got, SOCIAL_PIN, "got {got:#018x}");
}
