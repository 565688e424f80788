//! Pass/fail gate: telemetry overhead on a hot selection round.
//!
//! Runs the same margin-selection round with a disabled registry (the
//! default for every production code path) and with an enabled one
//! recording spans + counters, then compares the fastest observed round
//! of each. ISSUE acceptance: the enabled path costs < 5% over the
//! disabled path on a realistic round. Exits non-zero past the
//! threshold, so CI can run it as a gate:
//!
//! ```text
//! cargo bench --bench obs_overhead
//! ```
//!
//! Minimum-of-samples (not mean) is compared because scheduler noise
//! only ever adds time; the minimum is the closest observable to the
//! true cost of each configuration. The round runs on one thread, so no
//! sample waits for a second core, and each sample repeats it for at
//! least [`SAMPLE_SECS`], so a sample is long against the host's timer
//! and scheduling jitter: a round alone takes well under a millisecond.

use alem_bench::data::prepare;
use alem_core::learner::{SvmTrainer, Trainer};
use alem_core::selector;
use alem_obs::Registry;
use datagen::PaperDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Interleaved measured samples per configuration.
const SAMPLES: usize = 25;
/// Least wall time of one sample; the rounds per sample are set from a
/// timed round to reach it.
const SAMPLE_SECS: f64 = 0.02;
/// Maximum tolerated (enabled − disabled) / disabled.
const MAX_OVERHEAD: f64 = 0.05;

fn main() {
    // Tolerate the extra args harness=false benches receive from cargo
    // (e.g. `--bench`); none of them change what this gate measures.
    let _ = std::env::args();

    let p = prepare(PaperDataset::DblpAcm, 0.25);
    let corpus = &p.corpus;
    let labeled: Vec<(usize, bool)> = (0..corpus.len())
        .step_by(corpus.len() / 200)
        .map(|i| (i, corpus.truth(i)))
        .collect();
    let unlabeled: Vec<usize> = (0..corpus.len())
        .filter(|i| !labeled.iter().any(|(j, _)| j == i))
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let svm = SvmTrainer::default().train(
        &labeled
            .iter()
            .map(|&(i, _)| corpus.x(i).to_vec())
            .collect::<Vec<_>>(),
        &labeled.iter().map(|&(_, y)| y).collect::<Vec<_>>(),
        &mut rng,
    );
    let par = alem_par::Parallelism::sequential();

    let round = |obs: &Registry| {
        let mut rng = StdRng::seed_from_u64(1);
        black_box(selector::margin::select(
            &svm, corpus, &unlabeled, 10, &mut rng, obs, &par,
        ))
    };

    let disabled = Registry::disabled();
    let enabled = Registry::enabled();

    // Warmup both paths (page cache, branch predictors, allocator), then
    // time the disabled path to size the samples.
    for _ in 0..2 {
        round(&disabled);
        round(&enabled);
    }
    let timed = |obs: &Registry| {
        let t = Instant::now();
        round(obs);
        t.elapsed().as_secs_f64()
    };
    let rounds_per_sample = (SAMPLE_SECS / timed(&disabled)).ceil().max(1.0) as usize;

    // A sample of each configuration is the sum of its rounds, which
    // alternate round by round, so drift (thermal, background load) hits
    // both configurations alike.
    let mut best_disabled = f64::INFINITY;
    let mut best_enabled = f64::INFINITY;
    for _ in 0..SAMPLES {
        let (mut sample_disabled, mut sample_enabled) = (0.0, 0.0);
        for _ in 0..rounds_per_sample {
            sample_disabled += timed(&disabled);
            sample_enabled += timed(&enabled);
        }
        best_disabled = best_disabled.min(sample_disabled);
        best_enabled = best_enabled.min(sample_enabled);
    }

    let overhead = (best_enabled - best_disabled) / best_disabled;
    println!(
        "obs_overhead: {rounds_per_sample} rounds per sample, disabled {:.3} ms/round, \
         enabled {:.3} ms/round, overhead {:+.2}%",
        best_disabled * 1e3 / rounds_per_sample as f64,
        best_enabled * 1e3 / rounds_per_sample as f64,
        overhead * 100.0
    );
    if overhead > MAX_OVERHEAD {
        println!(
            "obs_overhead: FAILED (enabled telemetry costs {:.2}% > {:.0}% budget)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    println!("obs_overhead: OK (budget {:.0}%)", MAX_OVERHEAD * 100.0);
}
