//! Calibration smoke test: quick per-dataset strategy comparison.
//!
//! Usage: `smoke [scale] [--metrics-out FILE.jsonl] [--fingerprints]
//! [--threads N]` — runs a representative strategy set on
//! Amazon-GoogleProducts and Cora and prints best/final progressive F1 so
//! generator difficulty can be compared against the paper's Table 2. With
//! `--metrics-out` the runs are driven with an enabled telemetry registry
//! and every span/counter event is written as JSONL (the CI
//! telemetry-validation step). With `--fingerprints` each run also prints
//! its `RunResult::deterministic_fingerprint`, so two builds — or the same
//! build at different `--threads` values, which must agree byte-for-byte —
//! can be compared for bit-identical labeling/modeling decisions.

use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::ensemble::ActiveEnsembleStrategy;
use alem_core::learner::{DnfTrainer, NnTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::session::SessionConfig;
use alem_core::strategy::*;
use alem_obs::Registry;
use datagen::PaperDataset;
use std::io::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_out: Option<String> = None;
    let mut fingerprints = false;
    let mut scale = 0.25f64;
    let mut parallelism = alem_par::Parallelism::default();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--fingerprints" {
            fingerprints = true;
            i += 1;
        } else if args[i] == "--threads" {
            let n = args
                .get(i + 1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                });
            parallelism = alem_par::Parallelism::fixed(n);
            i += 2;
        } else if args[i] == "--metrics-out" {
            metrics_out = args.get(i + 1).cloned();
            if metrics_out.is_none() {
                eprintln!("--metrics-out needs a file path");
                std::process::exit(2);
            }
            i += 2;
        } else {
            if let Ok(s) = args[i].parse() {
                scale = s;
            }
            i += 1;
        }
    }
    let obs = if metrics_out.is_some() {
        Registry::enabled()
    } else {
        Registry::disabled()
    };
    obs.set_run_id("smoke");
    for d in [PaperDataset::AmazonGoogle, PaperDataset::Cora] {
        let cfg = d.config(scale);
        let t0 = Instant::now();
        let ds = datagen::generate(&cfg, 42);
        let (corpus, _fx) = Corpus::from_candidates_with(
            &ds,
            &TokenIndex::builder()
                .threshold(cfg.blocking_threshold)
                .parallelism(parallelism)
                .build(),
            &parallelism,
        )
        .expect("the token index streams valid candidates");
        println!(
            "{}: pairs={} skew={:.3} dim={} prep={:?}",
            d.name(),
            corpus.len(),
            corpus.skew(),
            corpus.dim(),
            t0.elapsed()
        );
        let params = LoopParams {
            max_labels: 800,
            ..LoopParams::default()
        };

        macro_rules! run {
            ($name:expr, $strat:expr) => {{
                let t = Instant::now();
                let oracle = Oracle::perfect(corpus.truths().to_vec());
                let mut al = ActiveLearner::new($strat, params.clone());
                let config = SessionConfig {
                    obs: obs.clone(),
                    parallelism,
                    ..SessionConfig::default()
                };
                let r = al
                    .run_session(&corpus, &oracle, 7, &config)
                    .unwrap_or_else(|e| panic!("smoke run failed: {e}"));
                println!(
                    "  {:<28} best_f1={:.3} final={:.3} labels={} wall={:?}",
                    $name,
                    r.best_f1(),
                    r.final_f1(),
                    r.total_labels(),
                    t.elapsed()
                );
                if fingerprints {
                    println!("  fingerprint {}", r.deterministic_fingerprint());
                }
            }};
        }
        run!("Trees(20)", TreeQbcStrategy::new(20));
        run!(
            "Linear-Margin",
            MarginSvmStrategy::new(SvmTrainer::default())
        );
        run!(
            "Linear-Margin(1Dim)",
            MarginSvmStrategy::builder().blocking_dims(1).build()
        );
        run!(
            "Linear-QBC(10)",
            QbcStrategy::builder(SvmTrainer::default())
                .committee_size(10)
                .build()
        );
        run!(
            "Linear-Margin(Ensemble)",
            ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85)
        );
        run!("NN-Margin", MarginNnStrategy::new(NnTrainer::default()));
        run!(
            "Rules(LFP/LFN)",
            LfpLfnStrategy::new(DnfTrainer::default(), 0.85)
        );
    }

    if let Some(path) = metrics_out {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}")),
        );
        obs.write_jsonl(&mut f)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        f.flush()
            .unwrap_or_else(|e| panic!("cannot flush {path}: {e}"));
        eprintln!("[smoke] telemetry events written to {path}");
    }
}
