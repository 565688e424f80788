//! Blocking-strategy sweep over the scaled social corpus (§6.3.1 data,
//! candidate-generation axis).
//!
//! Usage: `bench_blocking [--scale-factor F] [--threads-list 1,4]
//! [--min-candidates N] [--smoke] [--out FILE]`
//!
//! Every `alem-block` strategy — capped token index, q-gram index,
//! sorted-neighborhood at two windows, minhash-LSH — runs at each thread
//! count. Each run is a single streaming pass producing a
//! [`BlockingReport`]: candidate count, reduction ratio, recall,
//! gender-group recall, and a pair-stream fingerprint.
//!
//! Two gates are always fatal:
//!
//! 1. **Thread invariance** — a strategy's fingerprint must be identical
//!    at every thread count; the process exits non-zero otherwise.
//! 2. **Scale floor** — unless `--smoke`, at least one strategy must
//!    stream `--min-candidates` pairs (default 100,000), proving the
//!    sweep exercised the streaming path well past the in-memory pool
//!    sizes of the selection benchmarks.
//!
//! Timings are whatever this machine actually measured.

use alem_block::{
    BlockingReport, CandidateSource, MinHashLsh, QGramIndex, SortedNeighborhood, TokenIndex,
};
use alem_core::schema::EmDataset;
use alem_par::Parallelism;
use datagen::SocialConfig;
use serde::Serialize;
use std::time::Instant;

/// `gender` in [`datagen::social::social_schema`] — the group-recall key.
const GROUP_ATTR: usize = 4;
const GROUP_ATTR_NAME: &str = "gender";
const SEED: u64 = 42;

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    smoke: bool,
    scale_factor: f64,
    seed: u64,
    min_candidates: u64,
    threads_list: Vec<usize>,
    group_attr: usize,
    group_attr_name: &'static str,
    dataset: DatasetInfo,
    strategies: Vec<StrategyReport>,
    /// Largest per-strategy candidate count in the sweep.
    max_candidates: u64,
    /// Candidate pairs streamed across all strategies (first thread
    /// count only — re-runs at other thread counts stream the same
    /// sequence again).
    total_candidates: u64,
    all_fingerprints_thread_invariant: bool,
    scale_floor_met: bool,
}

#[derive(Serialize)]
struct DatasetInfo {
    name: String,
    left_rows: usize,
    right_rows: usize,
    matches: usize,
    total_pairs: u64,
}

#[derive(Serialize)]
struct StrategyReport {
    strategy: String,
    candidates: u64,
    reduction_ratio: f64,
    recall: f64,
    matches_total: usize,
    matches_retained: usize,
    group_recall: Vec<GroupRow>,
    /// Smallest group recall minus overall recall; negative means one
    /// group is blocked worse than average.
    worst_group_gap: f64,
    runs: Vec<RunRow>,
    fingerprint: String,
    fingerprints_identical: bool,
}

#[derive(Serialize)]
struct GroupRow {
    group: String,
    matches_total: usize,
    matches_retained: usize,
    recall: f64,
}

#[derive(Serialize)]
struct RunRow {
    threads: usize,
    wall_secs: f64,
    pairs_per_sec: f64,
    fingerprint: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_blocking [--scale-factor F] [--threads-list 1,4] \
         [--min-candidates N] [--smoke] [--out FILE]"
    );
    std::process::exit(2);
}

/// The sweep: label + strategy factory per thread count.
fn strategies() -> Vec<(&'static str, StrategyFactory)> {
    vec![
        (
            "token-capped",
            Box::new(|par| {
                Box::new(
                    TokenIndex::builder()
                        .threshold(0.1875)
                        .max_postings(20_000)
                        .parallelism(par)
                        .build(),
                )
            }),
        ),
        (
            "token-loose",
            Box::new(|par| {
                Box::new(
                    TokenIndex::builder()
                        .threshold(0.125)
                        .max_postings(20_000)
                        .parallelism(par)
                        .build(),
                )
            }),
        ),
        (
            "qgram",
            Box::new(|par| {
                Box::new(
                    QGramIndex::builder()
                        .q(3)
                        .min_shared(12)
                        .max_postings(20_000)
                        .parallelism(par)
                        .build(),
                )
            }),
        ),
        (
            "sorted-w10",
            Box::new(|par| {
                Box::new(
                    SortedNeighborhood::builder()
                        .window(10)
                        .parallelism(par)
                        .build(),
                )
            }),
        ),
        (
            "sorted-w25",
            Box::new(|par| {
                Box::new(
                    SortedNeighborhood::builder()
                        .window(25)
                        .parallelism(par)
                        .build(),
                )
            }),
        ),
        (
            "minhash",
            Box::new(|par| {
                Box::new(
                    MinHashLsh::builder()
                        .bands(8)
                        .rows(2)
                        .seed(SEED)
                        .parallelism(par)
                        .build(),
                )
            }),
        ),
    ]
}

type StrategyFactory = Box<dyn Fn(Parallelism) -> Box<dyn CandidateSource>>;

fn sweep_strategy(
    label: &str,
    factory: &StrategyFactory,
    ds: &EmDataset,
    threads_list: &[usize],
) -> StrategyReport {
    let mut runs = Vec::new();
    let mut first: Option<BlockingReport> = None;
    for &threads in threads_list {
        let source = factory(Parallelism::fixed(threads));
        let t0 = Instant::now();
        let report = BlockingReport::compute(source.as_ref(), ds, Some(GROUP_ATTR))
            .expect("blocking strategies stream valid candidates");
        let wall = t0.elapsed().as_secs_f64();
        runs.push(RunRow {
            threads,
            wall_secs: wall,
            pairs_per_sec: if wall > 0.0 {
                report.candidates as f64 / wall
            } else {
                0.0
            },
            fingerprint: format!("{:016x}", report.fingerprint),
        });
        eprintln!(
            "[bench_blocking] {label} t={threads}: {} candidates, recall {:.3}, {:.2}s",
            report.candidates, report.recall, wall
        );
        first.get_or_insert(report);
    }
    let report = first.expect("threads_list is non-empty");
    let identical = runs
        .windows(2)
        .all(|w| w[0].fingerprint == w[1].fingerprint);
    StrategyReport {
        strategy: report.source.clone(),
        candidates: report.candidates,
        reduction_ratio: report.reduction_ratio,
        recall: report.recall,
        matches_total: report.matches_total,
        matches_retained: report.matches_retained,
        worst_group_gap: report.worst_group_gap(),
        group_recall: report
            .group_recall
            .iter()
            .map(|g| GroupRow {
                group: g.group.clone(),
                matches_total: g.matches_total,
                matches_retained: g.matches_retained,
                recall: g.recall,
            })
            .collect(),
        runs,
        fingerprint: format!("{:016x}", report.fingerprint),
        fingerprints_identical: identical,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut scale_factor: Option<f64> = None;
    let mut threads_list = vec![1usize, 4];
    let mut min_candidates = 100_000u64;
    let mut out = String::from("BENCH_blocking.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale-factor" => {
                scale_factor = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|&f: &f64| f > 0.0)
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--threads-list" => {
                threads_list = args
                    .get(i + 1)
                    .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
                    .filter(|v: &Vec<usize>| !v.is_empty() && !v.contains(&0))
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--min-candidates" => {
                min_candidates = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
    // Smoke: the default 400 × 4k corpus. Full: 10k employees × 100k
    // profiles — 1G Cartesian pairs, far past anything the selection
    // benchmarks materialize.
    let factor = scale_factor.unwrap_or(if smoke { 1.0 } else { 25.0 });

    let cfg = SocialConfig::scaled(factor);
    eprintln!(
        "[bench_blocking] generating social corpus: {} employees x {} profiles (factor {factor})",
        cfg.n_employees, cfg.n_profiles
    );
    let ds = datagen::generate_social(&cfg, SEED);
    let dataset = DatasetInfo {
        name: ds.name.clone(),
        left_rows: ds.left.len(),
        right_rows: ds.right.len(),
        matches: ds.matches.len(),
        total_pairs: ds.total_pairs(),
    };

    let strategy_reports: Vec<StrategyReport> = strategies()
        .iter()
        .map(|(label, factory)| sweep_strategy(label, factory, &ds, &threads_list))
        .collect();

    let max_candidates = strategy_reports
        .iter()
        .map(|s| s.candidates)
        .max()
        .unwrap_or(0);
    let total_candidates = strategy_reports.iter().map(|s| s.candidates).sum();
    let invariant = strategy_reports.iter().all(|s| s.fingerprints_identical);
    let floor_met = smoke || max_candidates >= min_candidates;

    let report = Report {
        bench: "blocking",
        smoke,
        scale_factor: factor,
        seed: SEED,
        min_candidates,
        threads_list,
        group_attr: GROUP_ATTR,
        group_attr_name: GROUP_ATTR_NAME,
        dataset,
        strategies: strategy_reports,
        max_candidates,
        total_candidates,
        all_fingerprints_thread_invariant: invariant,
        scale_floor_met: floor_met,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write report file");
    eprintln!("[bench_blocking] wrote {out}");

    if !invariant {
        eprintln!("[bench_blocking] FAIL: fingerprints diverge across thread counts");
        std::process::exit(1);
    }
    if !floor_met {
        eprintln!(
            "[bench_blocking] FAIL: no strategy reached {min_candidates} candidates \
             (max {max_candidates})"
        );
        std::process::exit(1);
    }
}
