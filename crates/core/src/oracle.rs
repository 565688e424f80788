//! Oracles: the labeling authority queried by the example selector.
//!
//! A perfect Oracle returns the ground-truth label. The noisy Oracle of
//! §6.2 models crowd-sourcing: whenever queried it flips the true label
//! with a fixed probability ("we always perturb the original label whenever
//! the imperfect Oracle generates a random probability that falls within
//! the noise percentage threshold" — i.e. a fresh Bernoulli per query, with
//! no majority-vote correction).
//!
//! On top of the base [`Oracle`] this module provides the fault-injection
//! harness used by the robustness benchmarks: the [`QueryOracle`] trait
//! (fallible labeling), decorators that inject transient failures
//! ([`TransientOracle`]) and abstentions ([`AbstainingOracle`]), and the
//! [`RetryPolicy`] the session layer uses to ride out transient failures
//! with exponential backoff.

use crate::error::AlemError;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Where an Oracle's authoritative answers come from.
enum Source {
    /// Stored ground truth (benchmarks).
    Truth(Vec<bool>),
    /// A callback answering per example (interactive/human labeling).
    Callback {
        /// Number of labelable examples.
        n: usize,
        /// The labeler.
        f: Box<dyn Fn(usize) -> bool + Send + Sync>,
    },
}

impl Source {
    fn answer(&self, i: usize) -> bool {
        match self {
            Source::Truth(t) => t[i],
            Source::Callback { f, .. } => f(i),
        }
    }

    fn len(&self) -> usize {
        match self {
            Source::Truth(t) => t.len(),
            Source::Callback { n, .. } => *n,
        }
    }
}

/// One answer from a fallible Oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleAnswer {
    /// A definitive (possibly noisy) label.
    Label(bool),
    /// The Oracle declined to answer; the example stays unlabeled and may
    /// be selected again later.
    Abstain,
}

/// A labeling authority that can fail. The base [`Oracle`] never fails;
/// the fault-injection decorators wrap any `QueryOracle` to simulate
/// crowd workers going offline, abstaining, or answering slowly.
pub trait QueryOracle: Send + Sync {
    /// Ask for the label of example `i`. `Err(OracleUnavailable)` models a
    /// transient outage the caller may retry; `Ok(Abstain)` is a definitive
    /// "no answer" for this query.
    fn try_label(&self, i: usize) -> Result<OracleAnswer, AlemError>;

    /// Number of labels asked so far (every vote counts, see
    /// [`Oracle::queries`]).
    fn queries(&self) -> u64;

    /// Number of examples the Oracle can label.
    fn universe(&self) -> usize;

    /// Replay the Oracle to the state it had after answering `n` queries —
    /// used when resuming a checkpointed session so the noise stream
    /// continues exactly where the interrupted run left off.
    fn fast_forward(&self, n: u64);
}

/// A labeling Oracle over a corpus's example indices.
pub struct Oracle {
    source: Source,
    noise: f64,
    /// Independent noisy votes per query; the majority wins. 1 = the
    /// paper's harsh no-correction setting.
    votes: usize,
    rng: Mutex<StdRng>,
    queries: Mutex<u64>,
}

impl Oracle {
    /// A perfect Oracle that always answers the ground truth.
    pub fn perfect(truth: Vec<bool>) -> Self {
        Oracle {
            source: Source::Truth(truth),
            noise: 0.0,
            votes: 1,
            rng: Mutex::new(StdRng::seed_from_u64(0)),
            queries: Mutex::new(0),
        }
    }

    /// A noisy Oracle flipping each answer independently with probability
    /// `noise` (0.10–0.40 in the paper's sweeps), seeded for
    /// reproducibility. Rejects `noise` outside `[0, 1]`.
    pub fn noisy(truth: Vec<bool>, noise: f64, seed: u64) -> Result<Self, AlemError> {
        if !(0.0..=1.0).contains(&noise) {
            return Err(AlemError::InvalidConfig(format!(
                "oracle noise must be a probability in [0, 1], got {noise}"
            )));
        }
        Ok(Oracle {
            source: Source::Truth(truth),
            noise,
            votes: 1,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            queries: Mutex::new(0),
        })
    }

    /// Crowd-style error correction the paper deliberately leaves out
    /// (§6.2: real deployments "regulate the noisy labels using techniques
    /// such as majority voting"): each query draws `votes` independent
    /// noisy answers and returns the majority. Each vote counts as one
    /// Oracle query (crowd answers are paid per vote). Rejects `noise`
    /// outside `[0, 1]` and even or zero `votes` (the majority must be
    /// decisive).
    pub fn noisy_with_voting(
        truth: Vec<bool>,
        noise: f64,
        votes: usize,
        seed: u64,
    ) -> Result<Self, AlemError> {
        if !(0.0..=1.0).contains(&noise) {
            return Err(AlemError::InvalidConfig(format!(
                "oracle noise must be a probability in [0, 1], got {noise}"
            )));
        }
        if votes == 0 || votes.is_multiple_of(2) {
            return Err(AlemError::InvalidConfig(format!(
                "votes must be odd and positive, got {votes}"
            )));
        }
        Ok(Oracle {
            source: Source::Truth(truth),
            noise,
            votes,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            queries: Mutex::new(0),
        })
    }

    /// An Oracle backed by a labeling callback over `n` examples — e.g.
    /// a human answering y/n in a terminal. Noise-free; each call counts
    /// as one query.
    pub fn from_fn<F: Fn(usize) -> bool + Send + Sync + 'static>(n: usize, f: F) -> Self {
        Oracle {
            source: Source::Callback { n, f: Box::new(f) },
            noise: 0.0,
            votes: 1,
            rng: Mutex::new(StdRng::seed_from_u64(0)),
            queries: Mutex::new(0),
        }
    }

    /// Ask for the label of example `i`.
    pub fn label(&self, i: usize) -> bool {
        *self.queries.lock() += self.votes as u64;
        let truth = self.source.answer(i);
        if self.noise == 0.0 {
            return truth;
        }
        let mut rng = self.rng.lock();
        let positive_votes = (0..self.votes)
            .filter(|_| {
                let flipped = rng.gen::<f64>() < self.noise;
                truth != flipped
            })
            .count();
        2 * positive_votes > self.votes
    }

    /// Number of labels asked so far — the paper's #labels metric counts
    /// every Oracle query including the initial seed.
    pub fn queries(&self) -> u64 {
        *self.queries.lock()
    }

    /// Number of examples the Oracle can label.
    pub fn universe(&self) -> usize {
        self.source.len()
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field(
                "source",
                &match &self.source {
                    Source::Truth(t) => format!("Truth({} examples)", t.len()),
                    Source::Callback { n, .. } => format!("Callback({n} examples)"),
                },
            )
            .field("noise", &self.noise)
            .field("votes", &self.votes)
            .field("queries", &*self.queries.lock())
            .finish()
    }
}

impl QueryOracle for Oracle {
    fn try_label(&self, i: usize) -> Result<OracleAnswer, AlemError> {
        Ok(OracleAnswer::Label(self.label(i)))
    }

    fn queries(&self) -> u64 {
        Oracle::queries(self)
    }

    fn universe(&self) -> usize {
        Oracle::universe(self)
    }

    fn fast_forward(&self, n: u64) {
        // Each counted query consumes exactly one noise draw (when noise is
        // on), so replaying `n` draws reproduces the post-`n`-queries RNG
        // state exactly.
        *self.queries.lock() = n;
        if self.noise > 0.0 {
            let mut rng = self.rng.lock();
            for _ in 0..n {
                let _ = rng.gen::<f64>();
            }
        }
    }
}

/// Decorator injecting transient failures: each query independently fails
/// with `failure_rate` before reaching the inner Oracle (a crowd platform
/// timing out, a worker dropping the task). Failed queries cost nothing and
/// are retryable; the session's [`RetryPolicy`] decides how hard to try.
pub struct TransientOracle<O: QueryOracle> {
    inner: O,
    failure_rate: f64,
    rng: Mutex<StdRng>,
    /// Scripted consecutive failures injected before random ones (tests).
    fail_burst: Mutex<u32>,
    failures: Mutex<u64>,
}

impl<O: QueryOracle> TransientOracle<O> {
    /// Wrap `inner` so each query fails independently with probability
    /// `failure_rate`, seeded for reproducibility.
    pub fn new(inner: O, failure_rate: f64, seed: u64) -> Result<Self, AlemError> {
        if !(0.0..=1.0).contains(&failure_rate) {
            return Err(AlemError::InvalidConfig(format!(
                "transient failure rate must be a probability in [0, 1], got {failure_rate}"
            )));
        }
        Ok(TransientOracle {
            inner,
            failure_rate,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            fail_burst: Mutex::new(0),
            failures: Mutex::new(0),
        })
    }

    /// Script the next `k` queries to fail unconditionally (before random
    /// failures resume) — lets tests pin down exact consecutive-failure
    /// scenarios.
    pub fn script_failures(&self, k: u32) {
        *self.fail_burst.lock() = k;
    }

    /// Total failures injected so far.
    pub fn failures(&self) -> u64 {
        *self.failures.lock()
    }
}

impl<O: QueryOracle> QueryOracle for TransientOracle<O> {
    fn try_label(&self, i: usize) -> Result<OracleAnswer, AlemError> {
        {
            let mut burst = self.fail_burst.lock();
            if *burst > 0 {
                *burst -= 1;
                *self.failures.lock() += 1;
                return Err(AlemError::OracleUnavailable {
                    example: i,
                    attempts: 1,
                    reason: "transient failure (scripted)".into(),
                });
            }
        }
        if self.failure_rate > 0.0 && self.rng.lock().gen_bool(self.failure_rate) {
            *self.failures.lock() += 1;
            return Err(AlemError::OracleUnavailable {
                example: i,
                attempts: 1,
                reason: "transient failure".into(),
            });
        }
        self.inner.try_label(i)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn universe(&self) -> usize {
        self.inner.universe()
    }

    fn fast_forward(&self, n: u64) {
        // Only the inner Oracle's draw count is tied to the query count;
        // the decorator's failure stream depends on how many attempts the
        // interrupted run made, which is not checkpointed. Resumed runs
        // continue with a fresh failure stream (documented in DESIGN.md).
        self.inner.fast_forward(n)
    }
}

/// Decorator injecting abstentions: each query independently returns
/// [`OracleAnswer::Abstain`] with `abstain_rate` (a human labeler answering
/// "can't tell"). Abstained examples stay unlabeled and re-selectable.
pub struct AbstainingOracle<O: QueryOracle> {
    inner: O,
    abstain_rate: f64,
    rng: Mutex<StdRng>,
    abstentions: Mutex<u64>,
}

impl<O: QueryOracle> AbstainingOracle<O> {
    /// Wrap `inner` so each query abstains independently with probability
    /// `abstain_rate`, seeded for reproducibility.
    pub fn new(inner: O, abstain_rate: f64, seed: u64) -> Result<Self, AlemError> {
        if !(0.0..=1.0).contains(&abstain_rate) {
            return Err(AlemError::InvalidConfig(format!(
                "abstain rate must be a probability in [0, 1], got {abstain_rate}"
            )));
        }
        Ok(AbstainingOracle {
            inner,
            abstain_rate,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            abstentions: Mutex::new(0),
        })
    }

    /// Total abstentions so far.
    pub fn abstentions(&self) -> u64 {
        *self.abstentions.lock()
    }
}

impl<O: QueryOracle> QueryOracle for AbstainingOracle<O> {
    fn try_label(&self, i: usize) -> Result<OracleAnswer, AlemError> {
        if self.abstain_rate > 0.0 && self.rng.lock().gen_bool(self.abstain_rate) {
            *self.abstentions.lock() += 1;
            return Ok(OracleAnswer::Abstain);
        }
        self.inner.try_label(i)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn universe(&self) -> usize {
        self.inner.universe()
    }

    fn fast_forward(&self, n: u64) {
        self.inner.fast_forward(n)
    }
}

/// Exponential-backoff retry policy for transient Oracle failures. Only
/// [`AlemError::OracleUnavailable`] is retried; every other error (and
/// abstentions, which are definitive answers) passes straight through.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Multiplier applied to the delay after each failed retry.
    pub multiplier: f64,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Delays are kept small because benchmark sweeps make thousands of
        // queries; production deployments should raise base_delay/max_delay
        // to match their labeling channel.
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            multiplier: 2.0,
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff delay before retry number `retry` (1-based): `base_delay *
    /// multiplier^(retry-1)`, capped at `max_delay`.
    pub fn delay_for(&self, retry: u32) -> Duration {
        let factor = self.multiplier.powi(retry.saturating_sub(1) as i32);
        let delay = self.base_delay.mul_f64(factor.max(0.0));
        delay.min(self.max_delay)
    }

    /// Query `oracle` for example `i`, retrying transient failures with
    /// exponential backoff up to `max_attempts` total attempts. The final
    /// error reports the true attempt count. Records telemetry counters
    /// into `obs`: `oracle.labels`, `oracle.abstentions`, `oracle.retries`
    /// (attempts after the first), and `oracle.failures` (injected or real
    /// transient faults observed, whether or not a retry recovered them).
    pub fn query_observed(
        &self,
        oracle: &dyn QueryOracle,
        i: usize,
        obs: &alem_obs::Registry,
    ) -> Result<OracleAnswer, AlemError> {
        let attempts_allowed = self.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt > 1 {
                obs.counter_add("oracle.retries", 1);
            }
            match oracle.try_label(i) {
                Ok(answer) => {
                    match answer {
                        OracleAnswer::Label(_) => obs.counter_add("oracle.labels", 1),
                        OracleAnswer::Abstain => obs.counter_add("oracle.abstentions", 1),
                    }
                    return Ok(answer);
                }
                Err(AlemError::OracleUnavailable { reason, .. }) => {
                    obs.counter_add("oracle.failures", 1);
                    if attempt >= attempts_allowed {
                        return Err(AlemError::OracleUnavailable {
                            example: i,
                            attempts: attempt,
                            reason,
                        });
                    }
                    std::thread::sleep(self.delay_for(attempt));
                }
                Err(other) => return Err(other),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Asynchronous answering
// ---------------------------------------------------------------------------

/// An order-invariant answer function: the label for example `i` is a pure
/// function of `(key_seed, i, truth)`, derived by hashing instead of a
/// sequential RNG stream.
///
/// The sequential fault decorators ([`TransientOracle`],
/// [`AbstainingOracle`]) draw from one RNG stream, so their behavior
/// depends on *query order* — correct for benchmarking a blocking loop,
/// useless for a service where answers arrive late, duplicated, or out of
/// order. `AnswerKey` makes the answer for an example stable across
/// re-asks, replays, and process restarts: exactly the property the
/// `serve-load` chaos harness needs to assert that a kill-and-restart run
/// reproduces the fault-free fingerprint bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct AnswerKey {
    seed: u64,
    noise: f64,
    abstain_rate: f64,
}

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl AnswerKey {
    /// A key answering with `noise` probability of a flipped label and
    /// `abstain_rate` probability of abstaining (decided per example, not
    /// per query). Rates outside `[0, 1]` are rejected.
    pub fn new(seed: u64, noise: f64, abstain_rate: f64) -> Result<Self, AlemError> {
        for (name, rate) in [("noise", noise), ("abstain_rate", abstain_rate)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(AlemError::InvalidConfig(format!(
                    "{name} must be in [0, 1], got {rate}"
                )));
            }
        }
        Ok(AnswerKey {
            seed,
            noise,
            abstain_rate,
        })
    }

    /// A noiseless, never-abstaining key (still useful as a stable
    /// identity for a labeler).
    pub fn perfect(seed: u64) -> Self {
        AnswerKey {
            seed,
            noise: 0.0,
            abstain_rate: 0.0,
        }
    }

    /// Uniform value in `[0, 1)` for (key, example, concern-salt).
    fn unit(&self, example: usize, salt: u64) -> f64 {
        let h = mix64(self.seed ^ mix64(example as u64 ^ salt));
        // 53 high bits → f64 in [0, 1), the standard conversion.
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The answer for `example` whose ground truth is `truth`. Calling
    /// this twice (or on a different machine, or after a restart) gives
    /// the same answer.
    pub fn answer(&self, example: usize, truth: bool) -> OracleAnswer {
        if self.unit(example, 0x0a11_ab5e) < self.abstain_rate {
            return OracleAnswer::Abstain;
        }
        let flip = self.unit(example, 0x0f11_99ed) < self.noise;
        OracleAnswer::Label(truth ^ flip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alem_obs::Registry;

    #[test]
    fn perfect_oracle_is_truth() {
        let o = Oracle::perfect(vec![true, false, true]);
        assert!(o.label(0));
        assert!(!o.label(1));
        assert!(o.label(2));
        assert_eq!(o.queries(), 3);
    }

    #[test]
    fn noisy_oracle_flips_at_rate() {
        let n = 20_000;
        let o = Oracle::noisy(vec![true; n], 0.3, 99).unwrap();
        let flips = (0..n).filter(|&i| !o.label(i)).count();
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed flip rate {rate}");
    }

    #[test]
    fn zero_noise_never_flips() {
        let o = Oracle::noisy(vec![false; 100], 0.0, 1).unwrap();
        assert!((0..100).all(|i| !o.label(i)));
    }

    #[test]
    fn full_noise_always_flips() {
        let o = Oracle::noisy(vec![false; 100], 1.0, 1).unwrap();
        assert!((0..100).all(|i| o.label(i)));
    }

    #[test]
    fn repeat_queries_redraw_noise() {
        // Asking about the same example twice can give different answers —
        // the paper's harsh crowdsourcing criterion.
        let o = Oracle::noisy(vec![true; 1], 0.5, 7).unwrap();
        let answers: Vec<bool> = (0..100).map(|_| o.label(0)).collect();
        assert!(answers.iter().any(|&a| a));
        assert!(answers.iter().any(|&a| !a));
    }

    #[test]
    fn majority_voting_suppresses_noise() {
        let n = 5000;
        // 30% noise, 5 votes: error rate = P(≥3 of 5 flips) ≈ 0.163.
        let o = Oracle::noisy_with_voting(vec![true; n], 0.3, 5, 42).unwrap();
        let wrong = (0..n).filter(|&i| !o.label(i)).count();
        let rate = wrong as f64 / n as f64;
        assert!((rate - 0.163).abs() < 0.03, "voting error rate {rate}");
        // Every query costs 5 crowd votes.
        assert_eq!(o.queries(), 5 * n as u64);
    }

    #[test]
    fn voting_rejects_even_committees() {
        let err = Oracle::noisy_with_voting(vec![true], 0.2, 4, 1).unwrap_err();
        assert!(matches!(err, AlemError::InvalidConfig(ref m) if m.contains("odd")));
        let err = Oracle::noisy_with_voting(vec![true], 0.2, 0, 1).unwrap_err();
        assert!(matches!(err, AlemError::InvalidConfig(_)));
    }

    #[test]
    fn noise_out_of_range_is_rejected() {
        assert!(matches!(
            Oracle::noisy(vec![true], 1.5, 1),
            Err(AlemError::InvalidConfig(_))
        ));
        assert!(matches!(
            Oracle::noisy(vec![true], -0.1, 1),
            Err(AlemError::InvalidConfig(_))
        ));
        assert!(matches!(
            Oracle::noisy_with_voting(vec![true], 2.0, 3, 1),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn callback_oracle_counts_queries() {
        let o = Oracle::from_fn(10, |i| i % 2 == 0);
        assert!(o.label(0));
        assert!(!o.label(1));
        assert_eq!(o.queries(), 2);
        assert_eq!(o.universe(), 10);
    }

    #[test]
    fn seeded_oracles_reproduce() {
        let a = Oracle::noisy(vec![true; 50], 0.4, 123).unwrap();
        let b = Oracle::noisy(vec![true; 50], 0.4, 123).unwrap();
        let va: Vec<bool> = (0..50).map(|i| a.label(i)).collect();
        let vb: Vec<bool> = (0..50).map(|i| b.label(i)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn fast_forward_reproduces_noise_stream() {
        let n = 200;
        let reference = Oracle::noisy(vec![true; n], 0.4, 77).unwrap();
        let answers: Vec<bool> = (0..n).map(|i| reference.label(i)).collect();

        // A fresh Oracle fast-forwarded past the first half must produce
        // the reference's second half exactly.
        let resumed = Oracle::noisy(vec![true; n], 0.4, 77).unwrap();
        resumed.fast_forward(100);
        assert_eq!(QueryOracle::queries(&resumed), 100);
        let tail: Vec<bool> = (100..n).map(|i| resumed.label(i)).collect();
        assert_eq!(tail, answers[100..]);
    }

    #[test]
    fn transient_oracle_fails_at_rate() {
        let inner = Oracle::perfect(vec![true; 10_000]);
        let o = TransientOracle::new(inner, 0.2, 5).unwrap();
        let failures = (0..10_000).filter(|&i| o.try_label(i).is_err()).count();
        let rate = failures as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "failure rate {rate}");
        assert_eq!(o.failures(), failures as u64);
        // Failed queries never reached (or billed) the inner Oracle.
        assert_eq!(o.queries(), (10_000 - failures) as u64);
    }

    #[test]
    fn transient_oracle_rejects_bad_rate() {
        let inner = Oracle::perfect(vec![true]);
        assert!(matches!(
            TransientOracle::new(inner, 1.2, 0),
            Err(AlemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn retry_recovers_from_consecutive_failures() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_micros(10),
            multiplier: 2.0,
            max_delay: Duration::from_micros(100),
        };

        // 4 consecutive failures, 5 attempts allowed: recovery.
        let o = TransientOracle::new(Oracle::perfect(vec![true]), 0.0, 0).unwrap();
        o.script_failures(4);
        assert_eq!(
            policy.query_observed(&o, 0, &Registry::disabled()).unwrap(),
            OracleAnswer::Label(true)
        );
        assert_eq!(o.failures(), 4);

        // 5 consecutive failures exhaust the policy with the attempt count.
        o.script_failures(5);
        match policy.query_observed(&o, 0, &Registry::disabled()) {
            Err(AlemError::OracleUnavailable {
                attempts, example, ..
            }) => {
                assert_eq!(attempts, 5);
                assert_eq!(example, 0);
            }
            other => panic!("expected OracleUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(35),
        };
        assert_eq!(p.delay_for(1), Duration::from_millis(10));
        assert_eq!(p.delay_for(2), Duration::from_millis(20));
        assert_eq!(p.delay_for(3), Duration::from_millis(35)); // capped (40 → 35)
        assert_eq!(p.delay_for(4), Duration::from_millis(35));
    }

    #[test]
    fn abstaining_oracle_abstains_at_rate() {
        let inner = Oracle::perfect(vec![true; 10_000]);
        let o = AbstainingOracle::new(inner, 0.3, 9).unwrap();
        let abstained = (0..10_000)
            .filter(|&i| o.try_label(i) == Ok(OracleAnswer::Abstain))
            .count();
        let rate = abstained as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "abstain rate {rate}");
        assert_eq!(o.abstentions(), abstained as u64);
    }

    #[test]
    fn decorators_stack() {
        // Transient failures over abstentions over a noisy base.
        let base = Oracle::noisy(vec![true; 1000], 0.1, 3).unwrap();
        let abstaining = AbstainingOracle::new(base, 0.1, 4).unwrap();
        let o = TransientOracle::new(abstaining, 0.1, 5).unwrap();
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_micros(1),
            multiplier: 1.0,
            max_delay: Duration::from_micros(1),
        };
        let mut labels = 0;
        let mut abstains = 0;
        for i in 0..1000 {
            match policy.query_observed(&o, i, &Registry::disabled()).unwrap() {
                OracleAnswer::Label(_) => labels += 1,
                OracleAnswer::Abstain => abstains += 1,
            }
        }
        assert_eq!(labels + abstains, 1000);
        assert!(abstains > 50, "abstains {abstains}");
        assert!(o.failures() > 50, "failures {}", o.failures());
    }

    #[test]
    fn answer_key_is_order_invariant_and_replayable() {
        let key = AnswerKey::new(99, 0.2, 0.15).unwrap();
        let forward: Vec<OracleAnswer> = (0..500).map(|i| key.answer(i, i % 3 == 0)).collect();
        let backward: Vec<OracleAnswer> =
            (0..500).rev().map(|i| key.answer(i, i % 3 == 0)).collect();
        let rereversed: Vec<OracleAnswer> = backward.into_iter().rev().collect();
        assert_eq!(forward, rereversed, "answers depend on query order");

        // Rates actually bite, roughly at their configured levels.
        let abstains = forward
            .iter()
            .filter(|a| matches!(a, OracleAnswer::Abstain))
            .count();
        assert!((40..=110).contains(&abstains), "abstains {abstains}");
        let flips = (0..500)
            .filter(|&i| forward[i] == OracleAnswer::Label(i % 3 != 0))
            .count();
        assert!(flips > 30, "flips {flips}");

        // Different seeds disagree somewhere.
        let other = AnswerKey::new(100, 0.2, 0.15).unwrap();
        assert!((0..500).any(|i| key.answer(i, false) != other.answer(i, false)));

        // Perfect keys echo the truth.
        let perfect = AnswerKey::perfect(7);
        assert!((0..100).all(|i| perfect.answer(i, i % 2 == 0) == OracleAnswer::Label(i % 2 == 0)));

        assert!(AnswerKey::new(1, 1.5, 0.0).is_err());
        assert!(AnswerKey::new(1, 0.0, -0.1).is_err());
    }
}
