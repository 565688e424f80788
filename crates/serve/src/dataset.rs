//! Server-side corpus registry: a dataset *spec string* deterministically
//! reconstructs the same [`Corpus`] in any process.
//!
//! The service cannot ship corpora over the wire (clients only see example
//! indices), and a restarted server must rebuild each session's corpus
//! bit-identically so the checkpoint's content fingerprint validates. Both
//! needs are met by making the corpus a **pure function of the spec
//! string**: features and truth derive from SplitMix64 hashes of the
//! example index, with no RNG stream and no ambient state.
//!
//! Specs: the named presets in [`SPECS`], or parametric `synth:<n>:<salt>`
//! for arbitrary sizes.

use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::loop_::{EvalMode, LoopParams};
use alem_core::oracle::AnswerKey;
use alem_core::session::{MachineState, SessionConfig, SessionMachine};
use alem_core::strategy::Strategy;

/// Named dataset presets: `(spec, pairs, positive_rate_percent)`.
pub const SPECS: &[(&str, usize, u64)] = &[("toy", 160, 35), ("skew", 240, 15), ("wide", 400, 30)];

/// SplitMix64 finalizer (the same mix `AnswerKey` uses; duplicated here
/// because `alem-core` keeps it private to the oracle module).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform value in `[0, 1)` for `(salt, example, dim)`.
fn unit(salt: u64, example: usize, dim: u64) -> f64 {
    let h = mix64(salt ^ mix64(example as u64 ^ (dim << 40)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Build the corpus for `spec`. Deterministic: the same spec yields a
/// byte-identical corpus (same `content_fingerprint`) in every process.
pub fn build(spec: &str) -> Result<Corpus, AlemError> {
    let (n, pos_percent, salt) = parse_spec(spec)?;
    let pos_rate = pos_percent as f64 / 100.0;
    let mut features = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for i in 0..n {
        let t = unit(salt, i, 0) < pos_rate;
        // Two informative dims (class-shifted), one noise dim, one
        // correlated composite — separable but not trivially so.
        let shift = if t { 0.5 } else { 0.0 };
        let f0 = unit(salt, i, 1) * 0.5 + shift;
        let f1 = unit(salt, i, 2) * 0.5 + shift * 0.8;
        let f2 = unit(salt, i, 3);
        let f3 = (f0 + f1) / 2.0 + (unit(salt, i, 4) - 0.5) * 0.2;
        features.push(vec![f0, f1, f2, f3]);
        truth.push(t);
    }
    Ok(Corpus::from_features(features, truth)?.with_name(spec))
}

fn parse_spec(spec: &str) -> Result<(usize, u64, u64), AlemError> {
    for &(name, n, pos) in SPECS {
        if spec == name {
            return Ok((n, pos, mix64(name.len() as u64 ^ 0x5e12_e5e1)));
        }
    }
    if let Some(rest) = spec.strip_prefix("synth:") {
        let mut it = rest.split(':');
        let n: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .filter(|&n| (8..=100_000).contains(&n))
            .ok_or_else(|| {
                AlemError::InvalidConfig(format!("bad synth size in dataset spec '{spec}'"))
            })?;
        let salt: u64 = match it.next() {
            Some(s) => s.parse().map_err(|_| {
                AlemError::InvalidConfig(format!("bad synth salt in dataset spec '{spec}'"))
            })?,
            None => 0,
        };
        if it.next().is_some() {
            return Err(AlemError::InvalidConfig(format!(
                "dataset spec '{spec}' has trailing fields"
            )));
        }
        return Ok((n, 30, mix64(salt)));
    }
    Err(AlemError::InvalidConfig(format!(
        "unknown dataset spec '{spec}' (named: {}, or synth:<n>[:<salt>])",
        SPECS
            .iter()
            .map(|&(n, _, _)| n)
            .collect::<Vec<_>>()
            .join("/")
    )))
}

/// Default loop parameters for service sessions: small enough that a
/// session is a few hundred wire round-trips, large enough to cross
/// several checkpoint boundaries.
pub fn default_params() -> LoopParams {
    LoopParams {
        seed_size: 12,
        batch_size: 8,
        max_labels: 80,
        eval: EvalMode::Progressive,
        stop_at_f1: None,
    }
}

/// Run `(spec, seed, strategy, params)` to completion **in-process**,
/// answering every query with [`AnswerKey::perfect`] — i.e. the ground
/// truth. Returns the run's deterministic fingerprint.
///
/// This is the fault-free reference the chaos harness and the crash
/// recovery tests compare against: a served session that saw disconnects,
/// duplicated answers, kills, and restarts must reproduce exactly this
/// string.
pub fn reference_fingerprint<S: Strategy>(
    spec: &str,
    seed: u64,
    strategy: S,
    params: &LoopParams,
) -> Result<String, AlemError> {
    let corpus = build(spec)?;
    let key = AnswerKey::perfect(seed);
    let mut machine = SessionMachine::new(strategy, params.clone(), SessionConfig::default());
    machine.start(&corpus, seed)?;
    while machine.state() == MachineState::AwaitingAnswers {
        let wave: Vec<usize> = machine.pending().iter().map(|q| q.example).collect();
        for example in wave {
            let answer = key.answer(example, corpus.truth(example));
            machine.deliver(&corpus, example, answer)?;
        }
    }
    let result = machine.take_result().ok_or_else(|| {
        AlemError::InvalidConfig("reference session halted without a result".into())
    })?;
    Ok(result.deterministic_fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alem_core::strategy::MarginSvmStrategy;

    #[test]
    fn specs_build_reproducibly() {
        for &(name, n, _) in SPECS {
            let a = build(name).unwrap();
            let b = build(name).unwrap();
            assert_eq!(a.len(), n);
            assert_eq!(a.content_fingerprint(), b.content_fingerprint(), "{name}");
        }
        // Different specs yield different contents.
        assert_ne!(
            build("toy").unwrap().content_fingerprint(),
            build("synth:160:1").unwrap().content_fingerprint()
        );
    }

    #[test]
    fn synth_spec_parses_and_bad_specs_fail() {
        assert_eq!(build("synth:64").unwrap().len(), 64);
        assert_eq!(build("synth:64:9").unwrap().len(), 64);
        assert!(build("synth:3").is_err()); // below minimum
        assert!(build("synth:64:9:9").is_err());
        assert!(build("nope").is_err());
    }

    #[test]
    fn reference_fingerprint_is_stable_and_seed_sensitive() {
        let params = default_params();
        let fp = |seed| {
            reference_fingerprint(
                "toy",
                seed,
                MarginSvmStrategy::new(Default::default()),
                &params,
            )
            .unwrap()
        };
        assert_eq!(fp(5), fp(5));
        assert_ne!(fp(5), fp(6));
    }
}
