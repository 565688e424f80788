//! Selection-latency benchmark across thread counts (§6.3 systems axis)
//! plus the lazy-extraction / warm-training comparison behind the flat
//! feature store.
//!
//! Usage: `bench_selection [--scale S] [--threads-list 1,2,4,8]
//! [--mode-threads N] [--lazy-topk K] [--tolerance T] [--gate] [--out FILE]`
//!
//! Two sections go into `BENCH_selection.json`:
//!
//! 1. **Thread sweep** — a committee-heavy and a scoring-heavy strategy on
//!    the smoke datasets at each thread count, with per-phase latency from
//!    the run's own iteration clocks. Every run's
//!    `deterministic_fingerprint` is cross-checked: a thread count may
//!    only change wall-clock numbers, never results, and the process
//!    exits non-zero if any fingerprint diverges.
//!
//! 2. **Mode comparison** — the margin strategy in the four
//!    {eager,lazy} × {cold,warm} modes plus a cold/partial-refresh forest
//!    pair, on three pool-size regimes, each run end to end (corpus build
//!    included) with an enabled telemetry registry; repeats are
//!    interleaved across modes and each mode keeps its fastest, so
//!    thermal/load drift does not land on whichever mode runs last. Rows
//!    carry `pairs_per_sec_scored`, the `train_secs_per_round` series,
//!    and feature-cache counters. The gate (always computed; `--gate`
//!    makes failures fatal) checks that lazy selection is byte-identical
//!    to eager at both warmth levels, that lazy never regresses wall time
//!    beyond `--tolerance` on any dataset, that lazy+warm beats
//!    eager+cold outright on at least two of the three, and that warm
//!    per-round train cost stays flat as the labeled pool grows.
//!
//! Timings are whatever this machine actually measured — on a single-core
//! host the thread counts will (honestly) tie.

use alem_block::TokenIndex;
use alem_core::corpus::Corpus;
use alem_core::learner::SvmTrainer;
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::schema::EmDataset;
use alem_core::session::SessionConfig;
use alem_core::strategy::{MarginSvmStrategy, QbcStrategy, Strategy, TreeQbcStrategy};
use alem_obs::Registry;
use alem_par::Parallelism;
use datagen::PaperDataset;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    scale: f64,
    host_threads: usize,
    thread_counts: Vec<usize>,
    mode_threads: usize,
    /// `--lazy-topk` override; `null` means the per-dataset default of
    /// three quarters of the feature dimensionality (see
    /// `DatasetReport::lazy_topk`).
    lazy_topk: Option<usize>,
    tolerance: f64,
    datasets: Vec<DatasetReport>,
    gate: GateReport,
}

#[derive(Serialize)]
struct DatasetReport {
    dataset: String,
    pairs: usize,
    dims: usize,
    runs: Vec<RunRow>,
    /// True iff, per strategy, every thread count produced the same
    /// `deterministic_fingerprint` — the layer's core contract.
    fingerprints_identical: bool,
    /// Phase-1 dims used by this dataset's lazy modes.
    lazy_topk: usize,
    /// Lazy/warm mode comparison (margin strategy + forest refresh).
    modes: Vec<ModeRow>,
}

#[derive(Serialize)]
struct RunRow {
    strategy: String,
    threads: usize,
    select_secs: f64,
    train_secs: f64,
    wall_secs: f64,
    best_f1: f64,
    fingerprint: String,
}

#[derive(Serialize)]
struct ModeRow {
    mode: String,
    strategy: String,
    threads: usize,
    /// Corpus build + full session, the end-to-end number the gate compares.
    wall_secs: f64,
    build_secs: f64,
    select_secs: f64,
    train_secs: f64,
    /// Per-iteration training cost; warm modes must hold this flat.
    train_secs_per_round: Vec<f64>,
    rounds: usize,
    pairs_scored: u64,
    /// Pool entries resolved by the lazy phase-1 bound alone.
    phase1_only: u64,
    pairs_per_sec_scored: f64,
    feat_cache_hits: u64,
    feat_cache_misses: u64,
    /// Similarity values memoized by phase-1 partial reads alone.
    partial_cells_filled: u64,
    /// Rows fully materialized by round end (lazy modes; pool size when eager).
    materialized_rows: u64,
    best_f1: f64,
    fingerprint: String,
}

#[derive(Serialize)]
struct GateReport {
    tolerance: f64,
    checks: Vec<GateCheck>,
    passed: bool,
}

#[derive(Serialize)]
struct GateCheck {
    dataset: String,
    name: &'static str,
    detail: String,
    passed: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_selection [--scale S] [--threads-list 1,2,4,8] [--mode-threads N] \
         [--lazy-topk K] [--tolerance T] [--gate] [--out FILE]"
    );
    std::process::exit(2);
}

fn strategies() -> Vec<(&'static str, Box<dyn Strategy + Send>)> {
    vec![
        (
            "Trees(20)",
            Box::new(TreeQbcStrategy::builder().trees(20).build()),
        ),
        (
            "QBC-SVM(10)",
            Box::new(
                QbcStrategy::builder(SvmTrainer::default())
                    .committee_size(10)
                    .build(),
            ),
        ),
        (
            "Linear-Margin",
            Box::new(MarginSvmStrategy::builder().build()),
        ),
    ]
}

/// `(mode, lazy corpus?, strategy)` for the lazy/warm comparison.
fn mode_strategies(lazy_topk: usize) -> Vec<(&'static str, bool, Box<dyn Strategy + Send>)> {
    vec![
        (
            "eager-cold",
            false,
            Box::new(MarginSvmStrategy::builder().build()),
        ),
        (
            "lazy-cold",
            true,
            Box::new(MarginSvmStrategy::builder().lazy_topk(lazy_topk).build()),
        ),
        (
            "eager-warm",
            false,
            Box::new(MarginSvmStrategy::builder().warm_start().build()),
        ),
        (
            "lazy-warm",
            true,
            Box::new(
                MarginSvmStrategy::builder()
                    .lazy_topk(lazy_topk)
                    .warm_start()
                    .build(),
            ),
        ),
        (
            "trees-cold",
            false,
            Box::new(TreeQbcStrategy::builder().trees(20).build()),
        ),
        (
            "trees-refresh",
            false,
            Box::new(
                TreeQbcStrategy::builder()
                    .trees(20)
                    .refresh_frac(0.3)
                    .build(),
            ),
        ),
    ]
}

/// One end-to-end mode run: corpus build (eager or lazy) + full session
/// under an enabled registry, so scoring-throughput and feature-cache
/// counters land in the row.
fn run_mode(
    ds: &EmDataset,
    blocking: &TokenIndex,
    mode: &'static str,
    lazy_corpus: bool,
    strat: Box<dyn Strategy + Send>,
    params: &LoopParams,
    threads: usize,
) -> ModeRow {
    let strategy = strat.name();
    let obs = Registry::enabled();
    let t0 = Instant::now();
    let par = Parallelism::fixed(threads);
    let (corpus, _fx) = if lazy_corpus {
        Corpus::from_candidates_lazy(ds, blocking)
    } else {
        Corpus::from_candidates_with(ds, blocking, &par)
    }
    .expect("the token index streams valid candidates");
    let build_secs = t0.elapsed().as_secs_f64();
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let config = SessionConfig {
        parallelism: par,
        obs: obs.clone(),
        ..SessionConfig::default()
    };
    let r = ActiveLearner::new(strat, params.clone())
        .run_session(&corpus, &oracle, 7, &config)
        .unwrap_or_else(|e| panic!("mode run {mode} failed: {e}"));
    let wall_secs = t0.elapsed().as_secs_f64();
    let select_secs: f64 = r.iterations.iter().map(|it| it.selection_secs()).sum();
    let train_secs_per_round: Vec<f64> = r.iterations.iter().map(|it| it.train_secs).collect();
    let pairs_scored = obs.counter_value("select.pairs_scored");
    let (feat_cache_hits, feat_cache_misses) = corpus.feature_cache_stats();
    ModeRow {
        mode: mode.to_string(),
        strategy,
        threads,
        wall_secs,
        build_secs,
        select_secs,
        train_secs: train_secs_per_round.iter().sum(),
        rounds: train_secs_per_round.len(),
        train_secs_per_round,
        pairs_scored,
        phase1_only: obs.counter_value("feat.phase1_only"),
        pairs_per_sec_scored: pairs_scored as f64 / select_secs.max(1e-9),
        feat_cache_hits,
        feat_cache_misses,
        partial_cells_filled: corpus.store().partial_cells_filled() as u64,
        materialized_rows: corpus.store().materialized_rows() as u64,
        best_f1: r.best_f1(),
        fingerprint: r.deterministic_fingerprint(),
    }
}

/// Robust per-round train-cost flatness: median of the last third of
/// selecting rounds over the median of the middle third, each round
/// clamped to a 1 ms noise floor (sub-millisecond fits are "flat" by
/// construction, not by timer luck). Cold refits grow with the labeled
/// pool; warm/refresh updates must hold this near 1.
fn train_flat_ratio(series: &[f64]) -> f64 {
    // Round 0 is the cold seed fit in every mode; only the growth
    // trajectory after it matters.
    let sel = &series[series.len().min(1)..];
    let third = sel.len() / 3;
    if third == 0 {
        return 1.0;
    }
    let median_clamped = |s: &[f64]| -> f64 {
        let mut v: Vec<f64> = s.iter().map(|&t| t.max(1e-3)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[v.len() / 2]
    };
    let early = median_clamped(&sel[third..2 * third]);
    let late = median_clamped(&sel[sel.len() - third..]);
    late / early
}

fn mode<'a>(modes: &'a [ModeRow], name: &str) -> &'a ModeRow {
    modes
        .iter()
        .find(|m| m.mode == name)
        .unwrap_or_else(|| panic!("mode {name} missing from report"))
}

/// The lazy/warm acceptance checks for one dataset's mode rows.
fn gate_checks(dataset: &str, modes: &[ModeRow], tolerance: f64) -> Vec<GateCheck> {
    let (ec, lc) = (mode(modes, "eager-cold"), mode(modes, "lazy-cold"));
    let (ew, lw) = (mode(modes, "eager-warm"), mode(modes, "lazy-warm"));
    let mut checks = Vec::new();
    let mut push = |name: &'static str, detail: String, passed: bool| {
        checks.push(GateCheck {
            dataset: dataset.to_string(),
            name,
            detail,
            passed,
        });
    };
    push(
        "lazy-cold-fingerprint",
        format!("lazy {} vs eager {}", lc.fingerprint, ec.fingerprint),
        lc.fingerprint == ec.fingerprint,
    );
    push(
        "lazy-warm-fingerprint",
        format!("lazy {} vs eager {}", lw.fingerprint, ew.fingerprint),
        lw.fingerprint == ew.fingerprint,
    );
    push(
        "lazy-cold-wall",
        format!(
            "lazy {:.3}s vs eager {:.3}s (tolerance x{tolerance})",
            lc.wall_secs, ec.wall_secs
        ),
        lc.wall_secs <= ec.wall_secs * tolerance,
    );
    push(
        "lazy-warm-wall",
        format!(
            "lazy {:.3}s vs eager {:.3}s (tolerance x{tolerance})",
            lw.wall_secs, ew.wall_secs
        ),
        lw.wall_secs <= ew.wall_secs * tolerance,
    );
    // Recorded per dataset, but aggregated in main: the strict win is
    // required on at least two datasets, not every one — tiny pools
    // leave lazy+warm neck-and-neck with eager rather than ahead.
    push(
        "lazy-warm-beats-eager-cold",
        format!(
            "lazy+warm {:.3}s vs eager+cold {:.3}s",
            lw.wall_secs, ec.wall_secs
        ),
        lw.wall_secs < ec.wall_secs,
    );
    for m in [ew, lw] {
        let ratio = train_flat_ratio(&m.train_secs_per_round);
        push(
            "warm-train-flat",
            format!("{}: late/early median train ratio {ratio:.3}", m.mode),
            ratio <= 1.10,
        );
    }
    checks
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.15f64;
    let mut out = String::from("BENCH_selection.json");
    let mut thread_counts = vec![1usize, 2, 4, 8];
    let mut mode_threads = 1usize;
    let mut lazy_topk: Option<usize> = None;
    // Wall-clock ceiling for the lazy modes relative to their eager
    // counterparts on datasets where lazy cannot win outright (strict
    // wins are separately required on at least two datasets); wide
    // enough that scheduler jitter does not flake the gate.
    let mut tolerance = 1.15f64;
    let mut gate = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--threads-list" => {
                thread_counts = args
                    .get(i + 1)
                    .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
                    .filter(|v: &Vec<usize>| !v.is_empty() && !v.contains(&0))
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--mode-threads" => {
                mode_threads = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--lazy-topk" => {
                lazy_topk = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--tolerance" => {
                tolerance = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t >= 1.0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--gate" => {
                gate = true;
                i += 1;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = LoopParams {
        max_labels: 400,
        ..LoopParams::default()
    };
    // Mode comparison runs under a fixed label budget on a hold-out
    // split — the benchmark's framing: labels are the scarce resource,
    // so a run labels far fewer pairs than the pool holds and an eager
    // upfront extraction of every blocked pair is mostly wasted work.
    // (Progressive eval is not an option here: it scores the *entire*
    // pool every round, which forces a lazy corpus to materialize every
    // row in round one and erases the contrast under test.) The 10%
    // test split keeps eval honest while bounding how much of the lazy
    // corpus the evaluator alone drags into existence — eval cost is
    // orthogonal to the selection/training policies being gated. Every
    // mode does the same number of rounds (no F1 early-out), so the
    // per-round train series is comparable across modes.
    let mode_params = LoopParams::builder()
        .max_labels(90)
        .eval(EvalMode::Holdout { test_frac: 0.1 })
        .run_to_exhaustion()
        .build();
    let mut report = Report {
        bench: "selection_latency",
        scale,
        host_threads,
        thread_counts: thread_counts.clone(),
        mode_threads,
        lazy_topk,
        tolerance,
        datasets: Vec::new(),
        gate: GateReport {
            tolerance,
            checks: Vec::new(),
            passed: true,
        },
    };
    let mut all_identical = true;

    for d in [
        PaperDataset::AmazonGoogle,
        PaperDataset::Cora,
        PaperDataset::DblpScholar,
    ] {
        let cfg = d.config(scale);
        let ds = datagen::generate(&cfg, 42);
        let blocking = TokenIndex::builder()
            .threshold(cfg.blocking_threshold)
            .build();
        let (corpus, _fx) = Corpus::from_candidates_with(&ds, &blocking, &Parallelism::default())
            .expect("the token index streams valid candidates");
        println!("{}: pairs={} dim={}", d.name(), corpus.len(), corpus.dim());
        let mut runs = Vec::new();
        let mut identical = true;

        // The thread sweep covers the two contrast datasets; DBLP-Scholar
        // rides along only for the lazy/warm mode contrast below (a third
        // pool-size regime for the gate).
        let sweep = !matches!(d, PaperDataset::DblpScholar);
        for si in 0..(if sweep { strategies().len() } else { 0 }) {
            let mut baseline: Option<String> = None;
            for &threads in &thread_counts {
                let (name, strat) = strategies().remove(si);
                let oracle = Oracle::perfect(corpus.truths().to_vec());
                let config = SessionConfig {
                    parallelism: Parallelism::fixed(threads),
                    ..SessionConfig::default()
                };
                let t0 = Instant::now();
                let r = ActiveLearner::new(strat, params.clone())
                    .run_session(&corpus, &oracle, 7, &config)
                    .unwrap_or_else(|e| panic!("bench run failed: {e}"));
                let wall = t0.elapsed().as_secs_f64();
                let select: f64 = r.iterations.iter().map(|it| it.selection_secs()).sum();
                let train: f64 = r.iterations.iter().map(|it| it.train_secs).sum();
                let fp = r.deterministic_fingerprint();
                match &baseline {
                    None => baseline = Some(fp.clone()),
                    Some(b) if *b != fp => {
                        identical = false;
                        eprintln!(
                            "FINGERPRINT DIVERGENCE: {} / {name} at {threads} threads",
                            d.name()
                        );
                    }
                    Some(_) => {}
                }
                println!(
                    "  {name:<16} threads={threads} select={select:.3}s train={train:.3}s wall={wall:.3}s"
                );
                runs.push(RunRow {
                    strategy: name.to_string(),
                    threads,
                    select_secs: select,
                    train_secs: train,
                    wall_secs: wall,
                    best_f1: r.best_f1(),
                    fingerprint: fp,
                });
            }
        }
        all_identical &= identical;

        // Phase-1 reads three quarters of the dims unless overridden:
        // warm-started Pegasos keeps many small nonzero weights, so the
        // unread-mass interval needs a large read set to stay tight
        // enough to prune; pruned pairs still skip a quarter of the
        // extraction cost, and pairs pruned every round never pay it.
        let topk = lazy_topk.unwrap_or_else(|| (corpus.dim() * 3 / 4).max(1));
        // Best of five end-to-end runs per mode, with the repeats
        // *interleaved* — the full mode sweep runs five times and each
        // mode keeps its fastest repeat. Consecutive repeats would bias
        // the contrast: thermal/load drift across the sweep lands
        // entirely on whichever modes run last, and the drift is the same
        // order as the lazy-vs-eager gap being gated. The first sweep
        // also absorbs first-touch warmup (page faults, allocator
        // growth); five samples keep the min-wall estimator stable on
        // the smallest dataset, whose gated gap is tens of milliseconds.
        let mut modes: Vec<ModeRow> = Vec::new();
        for rep in 0..5 {
            for (mi, (mode_name, lazy_corpus, strat)) in
                mode_strategies(topk).into_iter().enumerate()
            {
                let row = run_mode(
                    &ds,
                    &blocking,
                    mode_name,
                    lazy_corpus,
                    strat,
                    &mode_params,
                    mode_threads,
                );
                if rep == 0 {
                    modes.push(row);
                } else if row.wall_secs < modes[mi].wall_secs {
                    modes[mi] = row;
                }
            }
        }
        for row in &modes {
            println!(
                "  {:<14} wall={:.3}s (build {:.3}s) train={:.3}s \
                 scored={} pruned={} {:.0} pairs/s",
                row.mode,
                row.wall_secs,
                row.build_secs,
                row.train_secs,
                row.pairs_scored,
                row.phase1_only,
                row.pairs_per_sec_scored,
            );
        }
        report
            .gate
            .checks
            .extend(gate_checks(d.name(), &modes, tolerance));

        report.datasets.push(DatasetReport {
            dataset: d.name().to_string(),
            pairs: corpus.len(),
            dims: corpus.dim(),
            runs,
            fingerprints_identical: identical,
            lazy_topk: topk,
            modes,
        });
    }

    // Aggregate: every fingerprint/tolerance/flatness check is a hard
    // requirement; the strict lazy-warm-vs-eager-cold win must hold on at
    // least two datasets (acceptance: "beats eager on ≥2 smoke
    // datasets").
    const BEATS: &str = "lazy-warm-beats-eager-cold";
    let beats: Vec<bool> = report
        .gate
        .checks
        .iter()
        .filter(|c| c.name == BEATS)
        .map(|c| c.passed)
        .collect();
    let beats_won = beats.iter().filter(|&&p| p).count();
    let beats_needed = beats.len().min(2);
    report.gate.checks.push(GateCheck {
        dataset: "*".to_string(),
        name: "lazy-warm-beats-eager-cold-on-2",
        detail: format!("strict win on {beats_won}/{} datasets", beats.len()),
        passed: beats_won >= beats_needed,
    });
    report.gate.passed = report
        .gate
        .checks
        .iter()
        .all(|c| c.passed || c.name == BEATS);
    for c in report.gate.checks.iter().filter(|c| !c.passed) {
        let gating = if c.name == BEATS { "note" } else { "FAIL" };
        eprintln!("GATE {gating} [{}] {}: {}", c.dataset, c.name, c.detail);
    }

    let js = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, js).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "wrote {out} (host_threads={host_threads}, gate {})",
        if report.gate.passed { "PASS" } else { "FAIL" }
    );
    if !all_identical {
        eprintln!("bench_selection: fingerprints diverged across thread counts");
        std::process::exit(1);
    }
    if gate && !report.gate.passed {
        eprintln!("bench_selection: lazy/warm perf gate failed");
        std::process::exit(1);
    }
}
