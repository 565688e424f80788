//! One function per paper table/figure, producing the same rows/series the
//! paper plots (see DESIGN.md §4 for the experiment index).

use crate::data::{prepare, prepare_dataset, DATA_SEED};
use crate::runner::{paper_params, run_noisy, run_parallel, run_perfect, RUN_SEED};
use alem_core::corpus::Corpus;
use alem_core::ensemble::ActiveEnsembleStrategy;
use alem_core::evaluator::RunResult;
use alem_core::learner::{DnfTrainer, ForestTrainer, NnTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::{Oracle, RetryPolicy, TransientOracle};
use alem_core::report::{Figure, Series, TableReport};
use alem_core::session::SessionConfig;
use alem_core::strategy::{
    IwalSvmStrategy, LfpLfnStrategy, LshMarginStrategy, MarginNnStrategy, MarginSvmStrategy,
    QbcStrategy, RandomStrategy, Strategy, TreeQbcStrategy,
};
use datagen::PaperDataset;
use mlcore::nn::NnConfig;
use mlcore::rules::Dnf;

/// The acceptance precision for active ensembles and rules (§5.2, §6.3).
const TAU: f64 = 0.85;
/// A rule is "valid" if its hidden precision reaches this bar (§6.3).
const VALID_RULE_PRECISION: f64 = 0.88;
/// The paper's label cap for the perfect-Oracle comparisons (Figs. 8–13).
const PAPER_MAX_LABELS: usize = 2360;

/// Harness-wide experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Corpus scale (1.0 ≈ paper sizes).
    pub scale: f64,
    /// Seeds averaged for noisy-Oracle and DeepMatcher-proxy runs.
    pub noise_seeds: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.25,
            noise_seeds: 5,
        }
    }
}

/// A strategy blueprint buildable inside worker threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spec {
    /// `Trees(n)`: forest + learner-aware QBC.
    TreeQbc(usize),
    /// `Linear-QBC(b)`.
    QbcSvm(usize),
    /// `Non-Convex Non-Linear-QBC(b)`.
    QbcNn(usize),
    /// `Linear-Margin` over all dimensions.
    MarginSvm,
    /// `Linear-Margin(kDim)` with blocking dimensions.
    MarginSvmBlocking(usize),
    /// `NN-Margin`.
    MarginNn,
    /// `Linear-Margin(Ensemble)` with τ = 0.85.
    EnsembleSvm,
    /// `Rules(LFP/LFN)`.
    Rules,
    /// `Non-Convex Non-Linear-Margin(Ensemble)` — the §5.2 extension to
    /// neural networks.
    EnsembleNn,
    /// `Linear-Margin(LSHb)` — Jain et al. hyperplane hashing baseline.
    LshMargin(usize),
    /// `Linear-IWAL` — importance-weighted active learning baseline.
    Iwal,
    /// `SupervisedTrees(Random-n)`.
    SupervisedTrees(usize),
    /// DeepMatcher proxy: wide NN, random selection, 3:1 train/validation.
    DeepMatcherProxy,
}

impl Spec {
    /// Instantiate the strategy.
    pub fn build(self) -> Box<dyn Strategy + Send> {
        match self {
            Spec::TreeQbc(n) => Box::new(TreeQbcStrategy::new(n)),
            Spec::QbcSvm(b) => Box::new(QbcStrategy::new(SvmTrainer::default(), b)),
            Spec::QbcNn(b) => Box::new(QbcStrategy::new(NnTrainer::default(), b)),
            Spec::MarginSvm => Box::new(MarginSvmStrategy::new(SvmTrainer::default())),
            Spec::MarginSvmBlocking(k) => {
                Box::new(MarginSvmStrategy::builder().blocking_dims(k).build())
            }
            Spec::MarginNn => Box::new(MarginNnStrategy::new(NnTrainer::default())),
            Spec::EnsembleSvm => Box::new(ActiveEnsembleStrategy::new(SvmTrainer::default(), TAU)),
            Spec::EnsembleNn => Box::new(ActiveEnsembleStrategy::new(NnTrainer::default(), TAU)),
            Spec::LshMargin(bits) => {
                Box::new(LshMarginStrategy::new(SvmTrainer::default(), bits, 4))
            }
            Spec::Iwal => Box::new(IwalSvmStrategy::new(
                mlcore::svm::SvmConfig::default(),
                alem_core::selector::iwal::IwalConfig::default(),
            )),
            Spec::Rules => Box::new(LfpLfnStrategy::new(DnfTrainer::default(), TAU)),
            Spec::SupervisedTrees(n) => Box::new(RandomStrategy::new(
                ForestTrainer::with_trees(n),
                &format!("SupervisedTrees(Random-{n})"),
            )),
            Spec::DeepMatcherProxy => Box::new(
                RandomStrategy::builder(
                    NnTrainer(NnConfig {
                        hidden: 64,
                        ..NnConfig::default()
                    }),
                    "DeepMatcher",
                )
                .train_frac(0.75)
                .build(),
            ),
        }
    }
}

/// Run several specs on one corpus in parallel (perfect Oracle,
/// progressive evaluation).
fn run_specs(corpus: &Corpus, specs: &[Spec], max_labels: usize) -> Vec<RunResult> {
    let jobs: Vec<_> = specs
        .iter()
        .map(|&spec| {
            move || {
                let params = paper_params(corpus, max_labels);
                run_perfect(corpus, spec.build(), params, RUN_SEED)
            }
        })
        .collect();
    run_parallel(jobs)
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: dataset statistics (ours vs the paper's reported values).
pub fn table1(cfg: ExpConfig) -> TableReport {
    let rows = run_parallel(
        datagen::configs::ALL_DATASETS
            .iter()
            .map(|&d| {
                move || {
                    let data = d.config(cfg.scale);
                    let ds = datagen::generate(&data, DATA_SEED);
                    let corpus = prepare_dataset(&ds, data.blocking_threshold).corpus;
                    vec![
                        d.name().to_owned(),
                        format!("{}", ds.total_pairs()),
                        format!("{}", corpus.len()),
                        format!("{:.3}", corpus.skew()),
                        format!("{}", d.paper_post_blocking()),
                        format!("{:.3}", d.paper_skew()),
                    ]
                }
            })
            .collect(),
    );
    TableReport {
        id: "table1".into(),
        title: format!("Synthetic EM dataset statistics (scale {})", cfg.scale),
        header: vec![
            "Dataset".into(),
            "#Total Pairs".into(),
            "#Post-Blocking".into(),
            "Skew".into(),
            "Paper #Post-Blocking".into(),
            "Paper Skew".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figs. 8 & 9 — QBC vs margin per classifier family
// ---------------------------------------------------------------------------

/// Shared implementation of Figs. 8 and 9.
fn qbc_vs_margin(fig: &str, dataset: PaperDataset, cfg: ExpConfig) -> Vec<Figure> {
    let p = prepare(dataset, cfg.scale);
    let name = dataset.name();
    let nn = run_specs(
        &p.corpus,
        &[Spec::QbcNn(2), Spec::MarginNn],
        PAPER_MAX_LABELS,
    );
    let linear = run_specs(
        &p.corpus,
        &[Spec::QbcSvm(2), Spec::QbcSvm(20), Spec::MarginSvm],
        PAPER_MAX_LABELS,
    );
    let trees = run_specs(
        &p.corpus,
        &[Spec::TreeQbc(2), Spec::TreeQbc(10), Spec::TreeQbc(20)],
        PAPER_MAX_LABELS,
    );
    let mk = |suffix: &str, title: &str, runs: &[RunResult]| Figure {
        id: format!("{fig}{suffix}"),
        title: format!("{title} ({name})"),
        x_label: "#Labeled Examples".into(),
        y_label: "Progressive F1".into(),
        series: runs.iter().map(Series::f1_curve).collect(),
    };
    vec![
        mk("a", "QBC vs Margin, Non-Convex Non-Linear", &nn),
        mk("b", "QBC vs Margin, Linear Classifier", &linear),
        mk("c", "Learner-aware QBC, Tree-based Classifier", &trees),
    ]
}

/// Fig. 8: QBC vs margin on Abt-Buy.
pub fn fig8(cfg: ExpConfig) -> Vec<Figure> {
    qbc_vs_margin("fig8", PaperDataset::AbtBuy, cfg)
}

/// Fig. 9: QBC vs margin on Cora.
pub fn fig9(cfg: ExpConfig) -> Vec<Figure> {
    qbc_vs_margin("fig9", PaperDataset::Cora, cfg)
}

// ---------------------------------------------------------------------------
// Fig. 10 — example-selection latency decomposition (Cora)
// ---------------------------------------------------------------------------

/// Fig. 10: committee-creation vs example-scoring times on Cora, plus the
/// effect of blocking and active ensembles on selection time.
pub fn fig10(cfg: ExpConfig) -> Vec<Figure> {
    let p = prepare(PaperDataset::Cora, cfg.scale);
    let corpus = &p.corpus;
    let all_dims = corpus.dim();

    let nn = run_specs(corpus, &[Spec::QbcNn(2), Spec::MarginNn], PAPER_MAX_LABELS);
    let linear = run_specs(
        corpus,
        &[Spec::QbcSvm(2), Spec::QbcSvm(20), Spec::MarginSvm],
        PAPER_MAX_LABELS,
    );
    let trees = run_specs(
        corpus,
        &[Spec::TreeQbc(2), Spec::TreeQbc(10), Spec::TreeQbc(20)],
        PAPER_MAX_LABELS,
    );
    let enhanced = run_specs(
        corpus,
        &[
            Spec::MarginSvmBlocking(1),
            Spec::MarginSvmBlocking(all_dims),
            Spec::EnsembleSvm,
        ],
        PAPER_MAX_LABELS,
    );

    let mut fig_a = Figure {
        id: "fig10a".into(),
        title: "Selection time split, Non-Convex Non-Linear (Cora)".into(),
        x_label: "#Labeled Examples".into(),
        y_label: "secs".into(),
        series: vec![
            Series::committee_time_curve(&nn[0]),
            Series::scoring_time_curve(&nn[0]),
            Series::scoring_time_curve(&nn[1]),
        ],
    };
    fig_a.series[2].label = "scoreMargin".into();

    let mut fig_b = Figure {
        id: "fig10b".into(),
        title: "Selection time split, Linear Classifier (Cora)".into(),
        x_label: "#Labeled Examples".into(),
        y_label: "secs".into(),
        series: vec![
            Series::committee_time_curve(&linear[0]),
            Series::committee_time_curve(&linear[1]),
            Series::scoring_time_curve(&linear[0]),
            Series::scoring_time_curve(&linear[1]),
            Series::scoring_time_curve(&linear[2]),
        ],
    };
    fig_b.series[4].label = format!("scoreMargin({all_dims}Dim)");

    let fig_c = Figure {
        id: "fig10c".into(),
        title: "Example scoring time, Tree-based Classifier (Cora)".into(),
        x_label: "#Labeled Examples".into(),
        y_label: "secs".into(),
        series: trees.iter().map(Series::scoring_time_curve).collect(),
    };

    let fig_d = Figure {
        id: "fig10d".into(),
        title: "Effect of Blocking and Ensemble on Linear Classifier (Cora)".into(),
        x_label: "#Labeled Examples".into(),
        y_label: "secs".into(),
        series: enhanced.iter().map(Series::scoring_time_curve).collect(),
    };

    vec![fig_a, fig_b, fig_c, fig_d]
}

// ---------------------------------------------------------------------------
// Fig. 11 — blocking & active ensembles, progressive F1
// ---------------------------------------------------------------------------

/// The five perfect-Oracle datasets of §6.1.
pub const FIVE_DATASETS: [PaperDataset; 5] = [
    PaperDataset::AbtBuy,
    PaperDataset::AmazonGoogle,
    PaperDataset::DblpAcm,
    PaperDataset::DblpScholar,
    PaperDataset::Cora,
];

/// Fig. 11: blocking dimensions and active ensembles vs vanilla margin on
/// linear classifiers, per dataset.
pub fn fig11(cfg: ExpConfig) -> Vec<Figure> {
    let subfigs = "abcde".chars();
    FIVE_DATASETS
        .iter()
        .zip(subfigs)
        .map(|(&d, sub)| {
            let p = prepare(d, cfg.scale);
            let all_dims = p.corpus.dim();
            let runs = run_specs(
                &p.corpus,
                &[
                    Spec::MarginSvmBlocking(1),
                    Spec::MarginSvmBlocking(all_dims),
                    Spec::EnsembleSvm,
                ],
                PAPER_MAX_LABELS,
            );
            let accepted = runs[2]
                .iterations
                .last()
                .and_then(|s| s.accepted_models)
                .unwrap_or(0);
            let mut fig = Figure {
                id: format!("fig11{sub}"),
                title: format!(
                    "Effect of Blocking and Ensemble on Linear Classifier ({}), #AcceptedSVMs={accepted}",
                    d.name()
                ),
                x_label: "#Labeled Examples".into(),
                y_label: "Progressive F1".into(),
                series: runs.iter().map(Series::f1_curve).collect(),
            };
            fig.series[2].label = format!("Linear-Margin(Ensemble), #AcceptedSVMs={accepted}");
            fig
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figs. 12 & 13 — best variant per classifier family
// ---------------------------------------------------------------------------

/// The best selector per classifier family per dataset, as identified by
/// the paper's Figs. 12–13.
fn best_variants(d: PaperDataset) -> Vec<Spec> {
    let nn = if d == PaperDataset::Cora {
        Spec::QbcNn(2)
    } else {
        Spec::MarginNn
    };
    let linear = match d {
        PaperDataset::AmazonGoogle | PaperDataset::DblpScholar => Spec::MarginSvmBlocking(1),
        _ => Spec::EnsembleSvm,
    };
    vec![nn, linear, Spec::TreeQbc(20), Spec::Rules]
}

/// Figs. 12 (progressive F1) and 13 (user wait time) from the same runs.
pub fn fig12_13(cfg: ExpConfig) -> (Vec<Figure>, Vec<Figure>) {
    let mut f12 = Vec::new();
    let mut f13 = Vec::new();
    for (&d, sub) in FIVE_DATASETS.iter().zip("abcde".chars()) {
        let p = prepare(d, cfg.scale);
        let runs = run_specs(&p.corpus, &best_variants(d), PAPER_MAX_LABELS);
        f12.push(Figure {
            id: format!("fig12{sub}"),
            title: format!("Comparison of Classifiers, Best Variants ({})", d.name()),
            x_label: "#Labeled Examples".into(),
            y_label: "Progressive F1".into(),
            series: runs.iter().map(Series::f1_curve).collect(),
        });
        f13.push(Figure {
            id: format!("fig13{sub}"),
            title: format!("User Wait Time, Best Variants ({})", d.name()),
            x_label: "#Labeled Examples".into(),
            y_label: "Training + Selection secs".into(),
            series: runs.iter().map(Series::user_wait_curve).collect(),
        });
    }
    (f12, f13)
}

// ---------------------------------------------------------------------------
// Table 2 — best progressive F1 and #labels to convergence
// ---------------------------------------------------------------------------

/// The approaches tabulated in Table 2, with the paper's reported
/// `F1 (labels)` values for comparison.
const TABLE2_SPECS: [(Spec, &str); 8] = [
    (Spec::TreeQbc(20), "Trees(20)"),
    (Spec::EnsembleSvm, "Linear-Margin(Ensemble)"),
    (Spec::MarginSvmBlocking(1), "Linear-Margin(Blocking)"),
    (Spec::QbcSvm(2), "Linear-QBC(2)"),
    (Spec::QbcSvm(20), "Linear-QBC(20)"),
    (Spec::MarginNn, "Non-Convex Non-Linear-Margin"),
    (Spec::QbcNn(2), "Non-Convex Non-Linear-QBC(2)"),
    (Spec::Rules, "Rules(LFP/LFN)"),
];

/// The paper's Table 2 values (best progressive F1 with #labels), for the
/// comparison rows emitted under each measured row.
const TABLE2_PAPER: [[&str; 5]; 8] = [
    [
        "0.963 (2360)",
        "0.971 (2360)",
        "0.99 (260)",
        "0.99 (1770)",
        "0.98 (1700)",
    ],
    [
        "0.663 (1470)",
        "0.69 (330)",
        "0.977 (210)",
        "0.922 (560)",
        "0.945 (1220)",
    ],
    [
        "0.61 (640)",
        "0.7 (930)",
        "0.975 (170)",
        "0.936 (920)",
        "0.89 (220)",
    ],
    [
        "0.61 (1420)",
        "0.7 (1550)",
        "0.976 (170)",
        "0.935 (1090)",
        "0.941 (2190)",
    ],
    [
        "0.61 (1620)",
        "0.7 (1260)",
        "0.976 (180)",
        "0.936 (1600)",
        "0.95 (2130)",
    ],
    [
        "0.63 (670)",
        "0.72 (2360)",
        "0.978 (1100)",
        "0.938 (970)",
        "0.709 (410)",
    ],
    [
        "0.63 (970)",
        "0.725 (1350)",
        "0.97 (90)",
        "0.949 (740)",
        "0.95 (1640)",
    ],
    [
        "0.17 (230)",
        "0.51 (50)",
        "0.962 (350)",
        "0.586 (490)",
        "0.18 (170)",
    ],
];

/// Table 2: best progressive F1 (with #labels to convergence) per approach
/// per dataset, measured and paper-reported.
pub fn table2(cfg: ExpConfig) -> TableReport {
    // One column of runs per dataset; all runs in one parallel batch.
    let jobs: Vec<_> = FIVE_DATASETS
        .iter()
        .map(|&d| {
            move || {
                let p = prepare(d, cfg.scale);
                run_specs(&p.corpus, &TABLE2_SPECS.map(|(s, _)| s), PAPER_MAX_LABELS)
            }
        })
        .collect();
    let per_dataset: Vec<Vec<RunResult>> = run_parallel(jobs);

    let mut rows = Vec::new();
    for (ai, (_, label)) in TABLE2_SPECS.iter().enumerate() {
        let mut row = vec![(*label).to_owned()];
        for runs in &per_dataset {
            let r = &runs[ai];
            row.push(format!(
                "{:.3} ({})",
                r.best_f1(),
                r.labels_to_convergence(0.005)
            ));
        }
        rows.push(row);
        let mut paper_row = vec![format!("  paper: {label}")];
        paper_row.extend(TABLE2_PAPER[ai].iter().map(|s| (*s).to_owned()));
        rows.push(paper_row);
    }
    TableReport {
        id: "table2".into(),
        title: "Best Progressive F1-Scores (Perfect Oracle) — measured vs paper".into(),
        header: {
            let mut h = vec!["Approach".into()];
            h.extend(FIVE_DATASETS.iter().map(|d| d.name().to_owned()));
            h
        },
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figs. 14 & 15 — noisy Oracles
// ---------------------------------------------------------------------------

/// The noise probabilities swept in §6.2.
pub const NOISE_LEVELS: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];

/// Average F1 curve of `spec` on `corpus` under `noise`, over several
/// seeded runs (noisy Oracles are averaged over 5 seeds in the paper).
fn noisy_curve(corpus: &Corpus, spec: Spec, noise: f64, seeds: usize, label: &str) -> Series {
    let n_runs = if noise == 0.0 { 1 } else { seeds };
    let jobs: Vec<_> = (0..n_runs)
        .map(|k| {
            move || {
                let params = LoopParams {
                    stop_at_f1: None, // termination = label exhaustion (§6.2)
                    ..paper_params(corpus, corpus.len())
                };
                run_noisy(corpus, spec.build(), params, noise, RUN_SEED + k as u64)
            }
        })
        .collect();
    let runs = run_parallel(jobs);
    let curves: Vec<Series> = runs.iter().map(Series::f1_curve).collect();
    Series::average(label, &curves)
}

/// Fig. 14: noise sweep on Abt-Buy for four classifier variants.
pub fn fig14(cfg: ExpConfig) -> Vec<Figure> {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let variants: [(Spec, &str, &str); 4] = [
        (Spec::TreeQbc(20), "a", "Trees(20)"),
        (Spec::MarginNn, "b", "Non-Convex Non-Linear(Margin)"),
        (Spec::EnsembleSvm, "c", "Linear-Margin(Ensemble)"),
        (Spec::MarginSvmBlocking(1), "d", "Linear-Margin(1Dim)"),
    ];
    variants
        .iter()
        .map(|&(spec, sub, title)| Figure {
            id: format!("fig14{sub}"),
            title: format!("Imperfect Oracle, Effect of Noise (Abt-Buy, {title})"),
            x_label: "#Labeled Examples".into(),
            y_label: "Progressive F1".into(),
            series: NOISE_LEVELS
                .iter()
                .map(|&noise| {
                    noisy_curve(
                        &p.corpus,
                        spec,
                        noise,
                        cfg.noise_seeds,
                        &format!("{}%", (noise * 100.0) as u32),
                    )
                })
                .collect(),
        })
        .collect()
}

/// Fig. 15: Trees(20) noise sweep on the Magellan/DeepMatcher datasets.
pub fn fig15(cfg: ExpConfig) -> Vec<Figure> {
    let datasets: [(PaperDataset, &str); 4] = [
        (PaperDataset::WalmartAmazon, "a"),
        (PaperDataset::AmazonBestBuy, "b"),
        (PaperDataset::Beer, "c"),
        (PaperDataset::BabyProducts, "d"),
    ];
    datasets
        .iter()
        .map(|&(d, sub)| {
            let p = prepare(d, cfg.scale);
            Figure {
                id: format!("fig15{sub}"),
                title: format!("Imperfect Oracle, Trees(20) ({})", d.name()),
                x_label: "#Labeled Examples".into(),
                y_label: "Progressive F1".into(),
                series: NOISE_LEVELS
                    .iter()
                    .map(|&noise| {
                        noisy_curve(
                            &p.corpus,
                            Spec::TreeQbc(20),
                            noise,
                            cfg.noise_seeds,
                            &format!("{}%", (noise * 100.0) as u32),
                        )
                    })
                    .collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figs. 16 & 17 — active vs supervised learning (hold-out evaluation)
// ---------------------------------------------------------------------------

/// A hold-out run (80/20 split, §6.2).
fn run_holdout(corpus: &Corpus, spec: Spec, noise: f64, seed: u64) -> RunResult {
    let params = LoopParams {
        eval: EvalMode::Holdout { test_frac: 0.2 },
        stop_at_f1: None,
        ..paper_params(corpus, (corpus.len() * 4) / 5)
    };
    if noise == 0.0 {
        run_perfect(corpus, spec.build(), params, seed)
    } else {
        run_noisy(corpus, spec.build(), params, noise, seed)
    }
}

/// Fig. 16: active Trees(20) vs supervised Trees(20) vs the DeepMatcher
/// proxy on the Magellan/DeepMatcher datasets, perfect Oracles.
pub fn fig16(cfg: ExpConfig) -> Vec<Figure> {
    let datasets: [(PaperDataset, &str); 4] = [
        (PaperDataset::WalmartAmazon, "a"),
        (PaperDataset::AmazonBestBuy, "b"),
        (PaperDataset::Beer, "c"),
        (PaperDataset::BabyProducts, "d"),
    ];
    datasets
        .iter()
        .map(|&(d, sub)| {
            let p = prepare(d, cfg.scale);
            let corpus = &p.corpus;
            let active = run_holdout(corpus, Spec::TreeQbc(20), 0.0, RUN_SEED);
            let supervised = run_holdout(corpus, Spec::SupervisedTrees(20), 0.0, RUN_SEED);
            // DeepMatcher runs are averaged over seeds — the paper reports
            // its std-dev across 5 runs because it fluctuates.
            let dm_jobs: Vec<_> = (0..cfg.noise_seeds)
                .map(|k| {
                    move || run_holdout(corpus, Spec::DeepMatcherProxy, 0.0, RUN_SEED + k as u64)
                })
                .collect();
            let dm_runs = run_parallel(dm_jobs);
            let dm_curves: Vec<Series> = dm_runs.iter().map(Series::f1_curve).collect();
            let test_labels = corpus.len() / 5;
            Figure {
                id: format!("fig16{sub}"),
                title: format!(
                    "Active vs Supervised Learning, {} Test Labels ({})",
                    test_labels,
                    d.name()
                ),
                x_label: "#Labeled Examples".into(),
                y_label: "Test F1".into(),
                series: vec![
                    {
                        let mut s = Series::f1_curve(&active);
                        s.label = "ActiveTrees(QBC-20)".into();
                        s
                    },
                    Series::f1_curve(&supervised),
                    Series::average("DeepMatcher", &dm_curves),
                ],
            }
        })
        .collect()
}

/// Fig. 17: active vs supervised Trees(20) on Abt-Buy at 0/10/20% noise.
pub fn fig17(cfg: ExpConfig) -> Vec<Figure> {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let corpus = &p.corpus;
    let test_labels = corpus.len() / 5;
    [(0.0, "a"), (0.1, "b"), (0.2, "c")]
        .iter()
        .map(|&(noise, sub)| {
            let jobs: Vec<Box<dyn FnOnce() -> RunResult + Send>> = vec![
                Box::new(move || run_holdout(corpus, Spec::TreeQbc(20), noise, RUN_SEED)),
                Box::new(move || run_holdout(corpus, Spec::SupervisedTrees(20), noise, RUN_SEED)),
            ];
            let runs = run_parallel(jobs);
            let mut active = Series::f1_curve(&runs[0]);
            active.label = "ActiveTrees(QBC-20)".into();
            Figure {
                id: format!("fig17{sub}"),
                title: format!(
                    "Active vs Supervised Trees(20), {test_labels} Test Labels, {}% Noise (Abt-Buy)",
                    (noise * 100.0) as u32
                ),
                x_label: "#Labeled Examples".into(),
                y_label: "Test F1".into(),
                series: vec![active, Series::f1_curve(&runs[1])],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 18 — interpretability
// ---------------------------------------------------------------------------

/// Fig. 18: #DNF atoms (trees vs rules) and tree-ensemble depth on Abt-Buy.
pub fn fig18(cfg: ExpConfig) -> Vec<Figure> {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let runs = run_specs(
        &p.corpus,
        &[
            Spec::TreeQbc(2),
            Spec::TreeQbc(10),
            Spec::TreeQbc(20),
            Spec::Rules,
        ],
        PAPER_MAX_LABELS,
    );
    vec![
        Figure {
            id: "fig18a".into(),
            title: "#DNF Atoms vs #Labels (Abt-Buy)".into(),
            x_label: "#Labeled Examples".into(),
            y_label: "#DNF Atoms".into(),
            series: runs.iter().map(Series::atoms_curve).collect(),
        },
        Figure {
            id: "fig18b".into(),
            title: "Depth of Tree-based Classifiers (Abt-Buy)".into(),
            x_label: "#Labeled Examples".into(),
            y_label: "Depth".into(),
            series: runs[..3].iter().map(Series::depth_curve).collect(),
        },
    ]
}

// ---------------------------------------------------------------------------
// §6.3 listing — the learned rule ensemble for Abt-Buy
// ---------------------------------------------------------------------------

/// Run LFP/LFN rule learning on Abt-Buy and pretty-print the learned DNF
/// ensemble (the §6.3 listing).
pub fn rules_listing(cfg: ExpConfig) -> String {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let oracle = Oracle::perfect(p.corpus.truths().to_vec());
    let params = paper_params(&p.corpus, PAPER_MAX_LABELS);
    let mut al = ActiveLearner::new(LfpLfnStrategy::new(DnfTrainer::default(), TAU), params);
    let run = al
        .run(&p.corpus, &oracle, RUN_SEED)
        // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; fatal by contract
        .unwrap_or_else(|e| panic!("rules listing run failed: {e}"));
    let strategy = al.into_strategy();
    let dnf = strategy.effective_dnf();
    let descs = p.space.bool_descriptions();
    format!
        (
        "Abt-Buy learned rule ensemble (#DNF Atoms = {}, best progressive F1 = {:.3}, labels = {}):\n{}",
        dnf.atom_count(),
        run.best_f1(),
        run.total_labels(),
        alem_core::interpret::dnf_to_string(&dnf, &descs)
    )
}

// ---------------------------------------------------------------------------
// Fig. 19 — rules on the social-media corpus
// ---------------------------------------------------------------------------

/// Metrics for one rule-learning approach on the social corpus.
struct SocialOutcome {
    label: String,
    total_wait_secs: f64,
    iterations: usize,
    valid_rules: usize,
    coverage: usize,
}

/// Validate a learned DNF's clauses against the hidden ground truth — the
/// stand-in for the paper's human expert. Returns (valid rules, coverage).
#[allow(clippy::needless_range_loop)] // parallel bools/covered indexing
fn expert_validate(dnf: &Dnf, corpus: &Corpus) -> (usize, usize) {
    // alem-lint: allow(panic-reach) -- bool features exist for every paper dataset config used here
    let bools = corpus.bool_features().expect("bool features");
    let mut valid = 0usize;
    let mut covered = vec![false; corpus.len()];
    for clause in dnf.clauses() {
        let mut claimed = 0usize;
        let mut correct = 0usize;
        for i in 0..corpus.len() {
            if clause.matches(&bools[i]) {
                claimed += 1;
                if corpus.truth(i) {
                    correct += 1;
                }
            }
        }
        if claimed > 0 && correct as f64 / claimed as f64 >= VALID_RULE_PRECISION {
            valid += 1;
            for (i, c) in covered.iter_mut().enumerate() {
                if clause.matches(&bools[i]) {
                    *c = true;
                }
            }
        }
    }
    (valid, covered.iter().filter(|&&c| c).count())
}

/// Fig. 19: LFP/LFN vs learner-agnostic QBC (committee sizes 2–20) for
/// rule learning on the social-media corpus.
pub fn fig19(cfg: ExpConfig) -> TableReport {
    let social_cfg = datagen::social::SocialConfig {
        n_employees: (400.0 * cfg.scale.max(0.1) * 4.0) as usize,
        n_profiles: (4000.0 * cfg.scale.max(0.1) * 4.0) as usize,
        coverage: 0.8,
    };
    let ds = datagen::social::generate_social(&social_cfg, crate::data::DATA_SEED);
    let p = crate::data::prepare_dataset(&ds, 0.2);
    let corpus = &p.corpus;
    let max_labels = corpus.len().min(1000);

    let mut outcomes: Vec<SocialOutcome> = Vec::new();

    // LFP/LFN.
    {
        let oracle = Oracle::perfect(corpus.truths().to_vec());
        let params = LoopParams {
            stop_at_f1: None,
            ..paper_params(corpus, max_labels)
        };
        let mut al = ActiveLearner::new(LfpLfnStrategy::new(DnfTrainer::default(), TAU), params);
        let run = al
            .run(corpus, &oracle, RUN_SEED)
            // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; fatal by contract
            .unwrap_or_else(|e| panic!("LFP/LFN run failed: {e}"));
        let dnf = al.into_strategy().effective_dnf();
        let (valid, coverage) = expert_validate(&dnf, corpus);
        outcomes.push(SocialOutcome {
            label: "LFP/LFN".into(),
            total_wait_secs: run.total_user_wait_secs(),
            iterations: run.iterations.len(),
            valid_rules: valid,
            coverage,
        });
    }

    // Learner-agnostic QBC over the rule learner.
    for b in [2usize, 5, 10, 20] {
        let oracle = Oracle::perfect(corpus.truths().to_vec());
        let params = LoopParams {
            stop_at_f1: None,
            ..paper_params(corpus, max_labels)
        };
        let mut al = ActiveLearner::new(
            QbcStrategy::builder(DnfTrainer::default())
                .committee_size(b)
                .bool_features(true)
                .build(),
            params,
        );
        let run = al
            .run(corpus, &oracle, RUN_SEED)
            // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; fatal by contract
            .unwrap_or_else(|e| panic!("QBC({b}) run failed: {e}"));
        let strategy = al.into_strategy();
        let dnf = strategy.model().cloned().unwrap_or_default();
        let (valid, coverage) = expert_validate(&dnf, corpus);
        outcomes.push(SocialOutcome {
            label: format!("QBC({b})"),
            total_wait_secs: run.total_user_wait_secs(),
            iterations: run.iterations.len(),
            valid_rules: valid,
            coverage,
        });
    }

    TableReport {
        id: "fig19".into(),
        title: "Social Media Dataset — QBC vs LFP/LFN (Rules)".into(),
        header: vec![
            "Approach".into(),
            "Total Wait (s)".into(),
            "Avg Wait/Iter (s)".into(),
            "#Iterations".into(),
            "#Valid Rules".into(),
            "Coverage".into(),
            "Wait per Valid Rule (s)".into(),
        ],
        rows: outcomes
            .iter()
            .map(|o| {
                vec![
                    o.label.clone(),
                    format!("{:.3}", o.total_wait_secs),
                    format!("{:.4}", o.total_wait_secs / o.iterations.max(1) as f64),
                    format!("{}", o.iterations),
                    format!("{}", o.valid_rules),
                    format!("{}", o.coverage),
                    if o.valid_rules == 0 {
                        "n/a".into()
                    } else {
                        format!("{:.3}", o.total_wait_secs / o.valid_rules as f64)
                    },
                ]
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Extension: active ensembles for neural networks (§5.2's closing remark)
// ---------------------------------------------------------------------------

/// Extension experiment: the paper's §5.2 ensemble generalized to neural
/// networks, compared against the single NN-Margin model and the linear
/// ensemble on Abt-Buy and DBLP-ACM.
pub fn ext_ensemble_nn(cfg: ExpConfig) -> Vec<Figure> {
    [(PaperDataset::AbtBuy, "a"), (PaperDataset::DblpAcm, "b")]
        .iter()
        .map(|&(d, sub)| {
            let p = prepare(d, cfg.scale);
            let runs = run_specs(
                &p.corpus,
                &[Spec::MarginNn, Spec::EnsembleNn, Spec::EnsembleSvm],
                PAPER_MAX_LABELS,
            );
            Figure {
                id: format!("ext-ensemble-nn-{sub}"),
                title: format!("Active Ensemble for Neural Networks ({})", d.name()),
                x_label: "#Labeled Examples".into(),
                y_label: "Progressive F1".into(),
                series: runs.iter().map(Series::f1_curve).collect(),
            }
        })
        .collect()
}

/// Extension experiment: selection speed-ups for linear classifiers —
/// blocking dimensions (§5.1) vs the LSH hyperplane-hashing baseline of
/// Jain et al. vs exact margin, on quality and selection latency.
pub fn ext_lsh(cfg: ExpConfig) -> Vec<Figure> {
    let p = prepare(PaperDataset::Cora, cfg.scale);
    let runs = run_specs(
        &p.corpus,
        &[
            Spec::MarginSvm,
            Spec::MarginSvmBlocking(1),
            Spec::LshMargin(32),
        ],
        PAPER_MAX_LABELS,
    );
    vec![
        Figure {
            id: "ext-lsh-a".into(),
            title: "Margin speed-ups: exact vs blocking-dims vs LSH (Cora, F1)".into(),
            x_label: "#Labeled Examples".into(),
            y_label: "Progressive F1".into(),
            series: runs.iter().map(Series::f1_curve).collect(),
        },
        Figure {
            id: "ext-lsh-b".into(),
            title: "Margin speed-ups: selection time (Cora)".into(),
            x_label: "#Labeled Examples".into(),
            y_label: "secs".into(),
            series: runs.iter().map(Series::scoring_time_curve).collect(),
        },
    ]
}

/// Extension experiment: IWAL vs margin vs random selection on the F1
/// objective — reproducing the §2 claim that IWAL is label-inefficient
/// for skewed EM data.
pub fn ext_iwal(cfg: ExpConfig) -> Vec<Figure> {
    [(PaperDataset::DblpAcm, "a"), (PaperDataset::AbtBuy, "b")]
        .iter()
        .map(|&(d, sub)| {
            let p = prepare(d, cfg.scale);
            let runs = run_specs(
                &p.corpus,
                &[Spec::MarginSvm, Spec::Iwal, Spec::QbcSvm(2)],
                PAPER_MAX_LABELS,
            );
            Figure {
                id: format!("ext-iwal-{sub}"),
                title: format!("IWAL vs margin vs QBC, linear classifier ({})", d.name()),
                x_label: "#Labeled Examples".into(),
                y_label: "Progressive F1".into(),
                series: runs.iter().map(Series::f1_curve).collect(),
            }
        })
        .collect()
}

/// Extension experiment: crowd majority voting (the §6.2 error-correction
/// technique the paper leaves out) — Trees(20) at 30% per-vote noise with
/// 1, 3, and 5 votes per query.
pub fn ext_voting(cfg: ExpConfig) -> Figure {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let corpus = &p.corpus;
    let votes = [1usize, 3, 5];
    let jobs: Vec<_> = votes
        .iter()
        .map(|&v| {
            move || {
                let oracle =
                    Oracle::noisy_with_voting(corpus.truths().to_vec(), 0.3, v, RUN_SEED ^ 0xbeef)
                        // alem-lint: allow(panic-reach) -- experiment harness aborts on invalid oracle config; fatal by contract
                        .unwrap_or_else(|e| panic!("invalid voting oracle: {e}"));
                let params = LoopParams {
                    stop_at_f1: None,
                    ..paper_params(corpus, corpus.len())
                };
                ActiveLearner::new(Spec::TreeQbc(20).build(), params)
                    .run(corpus, &oracle, RUN_SEED)
                    // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; fatal by contract
                    .unwrap_or_else(|e| panic!("voting run failed: {e}"))
            }
        })
        .collect();
    let runs = run_parallel(jobs);
    Figure {
        id: "ext-voting".into(),
        title: "Majority voting vs 30% per-vote noise, Trees(20) (Abt-Buy)".into(),
        x_label: "#Labeled Examples (votes cost extra queries)".into(),
        y_label: "Progressive F1".into(),
        series: votes
            .iter()
            .zip(&runs)
            .map(|(&v, r)| {
                let mut s = Series::f1_curve(r);
                s.label = format!("{v} vote(s)");
                s
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Extension: fault sweep — robustness under noise + transient failures
// ---------------------------------------------------------------------------

/// The transient-failure probabilities swept by [`fault_sweep`].
pub const FAILURE_RATES: [f64; 3] = [0.0, 0.1, 0.2];
/// The label-noise probabilities swept by [`fault_sweep`].
pub const FAULT_NOISE_LEVELS: [f64; 3] = [0.0, 0.1, 0.2];

/// Fault sweep: Trees(10) on Abt-Buy under every (label noise, transient
/// failure rate) combination, driven through the fault-tolerant session
/// layer with the default retry policy. Each row reports the injected
/// failure count alongside the best/final progressive F1, quantifying
/// whether retried faults degrade quality beyond the noise itself.
pub fn fault_sweep(cfg: ExpConfig) -> TableReport {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let corpus = &p.corpus;
    let max_labels = corpus.len().min(600);
    let grid: Vec<(f64, f64)> = FAULT_NOISE_LEVELS
        .iter()
        .flat_map(|&noise| FAILURE_RATES.iter().map(move |&rate| (noise, rate)))
        .collect();
    let jobs: Vec<_> = grid
        .iter()
        .map(|&(noise, rate)| {
            move || {
                let base = if noise == 0.0 {
                    Oracle::perfect(corpus.truths().to_vec())
                } else {
                    Oracle::noisy(corpus.truths().to_vec(), noise, RUN_SEED ^ 0x5eed)
                        // alem-lint: allow(panic-reach) -- experiment harness aborts on invalid oracle config; fatal by contract
                        .unwrap_or_else(|e| panic!("invalid oracle configuration: {e}"))
                };
                let oracle = TransientOracle::new(base, rate, RUN_SEED ^ 0xfa17)
                    // alem-lint: allow(panic-reach) -- experiment harness aborts on invalid failure rate; fatal by contract
                    .unwrap_or_else(|e| panic!("invalid failure rate: {e}"));
                let params = LoopParams {
                    stop_at_f1: None,
                    ..paper_params(corpus, max_labels)
                };
                let mut al = ActiveLearner::new(Spec::TreeQbc(10).build(), params);
                // Deep retry budget: at a 20% failure rate a 5-attempt
                // policy exhausts with probability ~0.03% per query, which
                // over hundreds of queries aborts most sweeps; 10 attempts
                // make exhaustion vanishingly rare while the short base
                // delay keeps the sweep fast.
                let config = SessionConfig {
                    retry: RetryPolicy {
                        max_attempts: 10,
                        base_delay: std::time::Duration::from_micros(100),
                        ..RetryPolicy::default()
                    },
                    ..SessionConfig::default()
                };
                let run = al
                    .run_session(corpus, &oracle, RUN_SEED, &config)
                    // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; fatal by contract
                    .unwrap_or_else(|e| panic!("fault-sweep run failed: {e}"));
                (run, oracle.failures())
            }
        })
        .collect();
    let results = run_parallel(jobs);
    TableReport {
        id: "fault_sweep".into(),
        title: "Fault sweep: Trees(10) under noise × transient failures (Abt-Buy)".into(),
        header: vec![
            "Noise".into(),
            "Failure Rate".into(),
            "#Injected Failures".into(),
            "Best F1".into(),
            "Final F1".into(),
            "#Labels".into(),
        ],
        rows: grid
            .iter()
            .zip(&results)
            .map(|(&(noise, rate), (run, failures))| {
                vec![
                    format!("{noise:.2}"),
                    format!("{rate:.2}"),
                    format!("{failures}"),
                    format!("{:.3}", run.best_f1()),
                    format!("{:.3}", run.final_f1()),
                    format!("{}", run.total_labels()),
                ]
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Telemetry-derived latency breakdown (DESIGN.md §7)
// ---------------------------------------------------------------------------

/// Latency breakdown per strategy × iteration from telemetry spans — the
/// data behind Figs. 10–13, but sourced from the `alem-obs` span stream
/// instead of the loop's own `IterationStats`: committee-build, scoring
/// (incl. LSH index builds), training, and oracle wait, in milliseconds.
/// The strategies span the committee-size axis (Linear-QBC 2/10/20,
/// Trees(20)), the blocking-dimension axis (margin over 1/3/8/all dims,
/// LSH) and the training axis (SVM, forest, NN, rules).
pub fn latency_breakdown(cfg: ExpConfig) -> TableReport {
    use alem_obs::{EventKind, Registry};
    let p = prepare(PaperDataset::DblpAcm, cfg.scale);
    let corpus = &p.corpus;
    let max_labels = corpus.len().min(600);
    let specs = [
        Spec::TreeQbc(20),
        Spec::QbcSvm(2),
        Spec::QbcSvm(10),
        Spec::QbcSvm(20),
        Spec::MarginSvm,
        Spec::MarginSvmBlocking(1),
        Spec::MarginSvmBlocking(3),
        Spec::MarginSvmBlocking(8),
        Spec::LshMargin(16),
        Spec::MarginNn,
        Spec::Rules,
    ];
    let jobs: Vec<_> = specs
        .iter()
        .map(|&spec| {
            move || {
                let obs = Registry::enabled();
                let oracle = Oracle::perfect(corpus.truths().to_vec());
                let params = LoopParams {
                    stop_at_f1: None,
                    ..paper_params(corpus, max_labels)
                };
                let config = SessionConfig {
                    obs: obs.clone(),
                    ..SessionConfig::default()
                };
                let mut al = ActiveLearner::new(spec.build(), params);
                let run = al
                    .run_session(corpus, &oracle, RUN_SEED, &config)
                    // alem-lint: allow(panic-reach) -- experiment harness aborts on run failure; fatal by contract
                    .unwrap_or_else(|e| panic!("latency-breakdown run failed: {e}"));
                (run.strategy.clone(), obs.events())
            }
        })
        .collect();
    let results = run_parallel(jobs);
    let mut rows = Vec::new();
    for (strategy, events) in &results {
        // iteration → [committee, scoring, train, oracle] totals in µs.
        let mut per_iter: std::collections::BTreeMap<u64, [u64; 4]> = Default::default();
        for e in events {
            if e.kind != EventKind::Span {
                continue;
            }
            let slot = match e.name {
                "select.committee" => 0,
                "select.score" | "select.index_build" => 1,
                "train" => 2,
                "oracle.query" => 3,
                _ => continue,
            };
            per_iter.entry(e.iter).or_default()[slot] += e.value;
        }
        for (iter, us) in per_iter {
            let ms = |v: u64| format!("{:.3}", v as f64 / 1000.0);
            rows.push(vec![
                strategy.clone(),
                iter.to_string(),
                ms(us[0]),
                ms(us[1]),
                ms(us[2]),
                ms(us[3]),
            ]);
        }
    }
    TableReport {
        id: "latency_breakdown".into(),
        title: "Telemetry latency breakdown per iteration (DBLP-ACM)".into(),
        header: vec![
            "Strategy".into(),
            "Iteration".into(),
            "committee_ms".into(),
            "scoring_ms".into(),
            "train_ms".into(),
            "oracle_ms".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5) — quality side; the latency ablations
// (committee size, blocking dims K, training time) are rows of
// `latency_breakdown`.
// ---------------------------------------------------------------------------

/// Ablation: active-ensemble precision threshold τ. The paper fixes τ at
/// 0.85 and observes it is conservative for Abt-Buy/DBLP-ACM but not ideal
/// for DBLP-Scholar; this sweep quantifies the τ trade-off between
/// #accepted SVMs and final F1.
pub fn ablation_tau(cfg: ExpConfig) -> TableReport {
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let corpus = &p.corpus;
    let taus = [0.70, 0.80, 0.85, 0.90, 0.95];
    let jobs: Vec<_> = taus
        .iter()
        .map(|&tau| {
            move || {
                let params = paper_params(corpus, PAPER_MAX_LABELS);
                run_perfect(
                    corpus,
                    ActiveEnsembleStrategy::new(SvmTrainer::default(), tau),
                    params,
                    RUN_SEED,
                )
            }
        })
        .collect();
    let runs = run_parallel(jobs);
    TableReport {
        id: "ablation_tau".into(),
        title: "Active-ensemble precision threshold τ (Abt-Buy)".into(),
        header: vec![
            "τ".into(),
            "Best F1".into(),
            "Final F1".into(),
            "#Accepted SVMs".into(),
            "#Labels".into(),
        ],
        rows: taus
            .iter()
            .zip(&runs)
            .map(|(&tau, r)| {
                let accepted = r
                    .iterations
                    .last()
                    .and_then(|s| s.accepted_models)
                    .unwrap_or(0);
                vec![
                    format!("{tau:.2}"),
                    format!("{:.3}", r.best_f1()),
                    format!("{:.3}", r.final_f1()),
                    format!("{accepted}"),
                    format!("{}", r.total_labels()),
                ]
            })
            .collect(),
    }
}

/// Ablation: labels queried per iteration. Smaller batches converge in
/// fewer labels (fresher models pick better examples) but cost more
/// iterations of user wait.
pub fn ablation_batch(cfg: ExpConfig) -> TableReport {
    let p = prepare(PaperDataset::DblpAcm, cfg.scale);
    let corpus = &p.corpus;
    let batches = [1usize, 5, 10, 25, 50];
    let jobs: Vec<_> = batches
        .iter()
        .map(|&batch| {
            move || {
                let params = LoopParams {
                    batch_size: batch,
                    ..paper_params(corpus, 600)
                };
                run_perfect(corpus, Spec::TreeQbc(10).build(), params, RUN_SEED)
            }
        })
        .collect();
    let runs = run_parallel(jobs);
    TableReport {
        id: "ablation_batch".into(),
        title: "Batch size per iteration, Trees(10) (DBLP-ACM)".into(),
        header: vec![
            "Batch".into(),
            "Best F1".into(),
            "#Labels to converge".into(),
            "#Iterations".into(),
            "Total wait (s)".into(),
        ],
        rows: batches
            .iter()
            .zip(&runs)
            .map(|(&b, r)| {
                vec![
                    format!("{b}"),
                    format!("{:.3}", r.best_f1()),
                    format!("{}", r.labels_to_convergence(0.005)),
                    format!("{}", r.iterations.len()),
                    format!("{:.2}", r.total_user_wait_secs()),
                ]
            })
            .collect(),
    }
}

/// Ablation: per-split feature subset for random forests — Corleone's
/// `log2(D+1)` (the paper's setting) vs `sqrt(D)` vs all features.
pub fn ablation_feature_subset(cfg: ExpConfig) -> TableReport {
    use mlcore::forest::ForestConfig;
    use mlcore::tree::{FeatureSubset, TreeConfig};
    let p = prepare(PaperDataset::AbtBuy, cfg.scale);
    let corpus = &p.corpus;
    let variants: [(&str, FeatureSubset); 3] = [
        ("log2(D+1) [Corleone]", FeatureSubset::Log2),
        ("sqrt(D)", FeatureSubset::Sqrt),
        ("all D", FeatureSubset::All),
    ];
    let jobs: Vec<_> = variants
        .iter()
        .map(|&(_, subset)| {
            move || {
                let trainer = ForestTrainer(ForestConfig {
                    n_trees: 20,
                    tree: TreeConfig {
                        max_depth: None,
                        min_samples_split: 2,
                        feature_subset: subset,
                    },
                    bootstrap: true,
                });
                let params = paper_params(corpus, PAPER_MAX_LABELS);
                run_perfect(
                    corpus,
                    TreeQbcStrategy::builder().trainer(trainer).build(),
                    params,
                    RUN_SEED,
                )
            }
        })
        .collect();
    let runs = run_parallel(jobs);
    TableReport {
        id: "ablation_feature_subset".into(),
        title: "Forest feature-subset policy, Trees(20) (Abt-Buy)".into(),
        header: vec![
            "Subset".into(),
            "Best F1".into(),
            "#Labels to converge".into(),
            "Train time total (s)".into(),
        ],
        rows: variants
            .iter()
            .zip(&runs)
            .map(|((name, _), r)| {
                let train: f64 = r.iterations.iter().map(|s| s.train_secs).sum();
                vec![
                    (*name).to_owned(),
                    format!("{:.3}", r.best_f1()),
                    format!("{}", r.labels_to_convergence(0.005)),
                    format!("{train:.2}"),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.03,
            noise_seeds: 2,
        }
    }

    #[test]
    fn table1_has_nine_rows() {
        let t = table1(tiny());
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.header.len(), 6);
    }

    #[test]
    fn spec_builds_every_strategy() {
        for spec in [
            Spec::TreeQbc(2),
            Spec::QbcSvm(2),
            Spec::QbcNn(2),
            Spec::MarginSvm,
            Spec::MarginSvmBlocking(1),
            Spec::MarginNn,
            Spec::EnsembleSvm,
            Spec::Rules,
            Spec::SupervisedTrees(2),
            Spec::DeepMatcherProxy,
        ] {
            let s = spec.build();
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn fig18_emits_atoms_and_depth() {
        let figs = fig18(tiny());
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].series.len(), 4);
        assert_eq!(figs[1].series.len(), 3);
        // Tree atom counts grow with labels.
        let trees20 = &figs[0].series[2];
        assert!(trees20.y.last().unwrap() > &0.0);
    }

    #[test]
    fn ablation_tables_have_expected_shape() {
        let t = ablation_tau(tiny());
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.header.len(), 5);
        let t = ablation_batch(tiny());
        assert_eq!(t.rows.len(), 5);
        let t = ablation_feature_subset(tiny());
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn ext_voting_emits_three_series() {
        let f = ext_voting(tiny());
        assert_eq!(f.series.len(), 3);
        assert_eq!(f.series[0].label, "1 vote(s)");
    }

    #[test]
    fn fault_sweep_covers_grid_and_completes_budget() {
        let t = fault_sweep(tiny());
        assert_eq!(t.rows.len(), FAULT_NOISE_LEVELS.len() * FAILURE_RATES.len());
        assert_eq!(t.header.len(), 6);
        // The 20% failure-rate rows retried their way to the full budget:
        // every row labels the same number of examples as the fault-free one.
        let labels: Vec<&str> = t.rows.iter().map(|r| r[5].as_str()).collect();
        assert!(labels.iter().all(|&l| l == labels[0]), "rows: {labels:?}");
        // Failures were actually injected at non-zero rates.
        let failures: usize = t.rows.iter().map(|r| r[2].parse::<usize>().unwrap()).sum();
        assert!(failures > 0);
    }

    #[test]
    fn best_variants_match_paper_legend() {
        let v = best_variants(PaperDataset::Cora);
        assert_eq!(v[0], Spec::QbcNn(2));
        let v = best_variants(PaperDataset::AbtBuy);
        assert_eq!(v[0], Spec::MarginNn);
        assert_eq!(v[1], Spec::EnsembleSvm);
    }
}
