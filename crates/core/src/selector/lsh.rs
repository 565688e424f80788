//! Locality-sensitive hashing for margin-based selection — the baseline
//! of Jain et al. (NIPS 2010) that §5.1 contrasts with blocking
//! dimensions.
//!
//! Random-hyperplane LSH: each example gets an `H`-bit signature
//! (`bit_i = sign(r_i · x)` for Gaussian directions `r_i`), computed
//! *once* for the whole corpus. A point close to the separating
//! hyperplane `w` is nearly orthogonal to it, so its signature agrees
//! with `sign(r_i · w)` on about half the bits. Selection ranks the
//! unlabeled pool by `|hamming(sig(x), sig(w)) − H/2|` (cheap, `O(1)` per
//! example once signatures exist), exactly evaluates margins only for a
//! small oversampled candidate set, and returns the least-margin batch.
//!
//! Compared to blocking dimensions this needs no sparsity assumption, but
//! pays an upfront `O(n·H·d)` signature build and is approximate.

use super::{bottom_k_asc, Selection};
use crate::corpus::Corpus;
use crate::error::AlemError;
use alem_obs::Registry;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Maximum signature width (bits of one `u64`).
pub const MAX_BITS: usize = 64;

/// A random-hyperplane LSH index over a corpus's feature vectors.
pub struct HyperplaneLsh {
    // alem-lint: allow(flat-feature-store) -- `bits` random hyperplanes, not a per-pair feature matrix
    planes: Vec<Vec<f64>>,
    signatures: Vec<u64>,
    bits: usize,
}

/// One standard-normal sample via Box-Muller (keeps `rand_distr` out of
/// the dependency set).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn signature(planes: &[Vec<f64>], x: &[f64]) -> u64 {
    let mut sig = 0u64;
    for (b, r) in planes.iter().enumerate() {
        if linalg::dot(r, x) > 0.0 {
            sig |= 1 << b;
        }
    }
    sig
}

/// `Ok` when `bits` is a signature width one `u64` can hold.
pub(crate) fn check_bits(bits: usize) -> Result<(), AlemError> {
    if (1..=MAX_BITS).contains(&bits) {
        Ok(())
    } else {
        Err(AlemError::InvalidConfig(format!(
            "LSH signature bits must be in 1..={MAX_BITS}, got {bits}"
        )))
    }
}

impl HyperplaneLsh {
    /// Build an index with `bits`-bit signatures over every corpus
    /// example. This is the one-off preprocessing cost.
    ///
    /// # Errors
    /// [`AlemError::InvalidConfig`] when `bits` is outside `1..=MAX_BITS`.
    pub fn build(
        corpus: &Corpus,
        bits: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Result<Self, AlemError> {
        check_bits(bits)?;
        let build_span = obs.span("select.index_build");
        let dim = corpus.dim();
        // alem-lint: allow(flat-feature-store) -- `bits` random hyperplanes, not a per-pair feature matrix
        let planes: Vec<Vec<f64>> = (0..bits)
            .map(|_| (0..dim).map(|_| gaussian(rng)).collect())
            .collect();
        let signatures = (0..corpus.len())
            .map(|i| signature(&planes, corpus.x(i)))
            .collect();
        build_span.finish();
        Ok(HyperplaneLsh {
            planes,
            signatures,
            bits,
        })
    }

    /// Signature width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// One approximate margin-selection round: hamming-rank the pool,
    /// exactly score the best `oversample × batch` candidates, return the
    /// least-margin `batch`.
    #[allow(clippy::too_many_arguments)]
    pub fn select(
        &self,
        svm: &LinearSvm,
        corpus: &Corpus,
        unlabeled: &[usize],
        batch: usize,
        oversample: usize,
        rng: &mut StdRng,
        obs: &Registry,
    ) -> Selection {
        let score_span = obs.span("select.score");
        let w_sig = signature(&self.planes, svm.weights());
        let half = self.bits as f64 / 2.0;
        let ranked: Vec<(usize, f64)> = unlabeled
            .iter()
            .map(|&i| {
                let hamming = (self.signatures[i] ^ w_sig).count_ones() as f64;
                (i, (hamming - half).abs())
            })
            .collect();
        let shortlist = bottom_k_asc(ranked, (oversample.max(1)) * batch, rng);
        let exact: Vec<(usize, f64)> = shortlist
            .into_iter()
            .map(|i| (i, svm.margin(corpus.x(i))))
            .collect();
        obs.counter_add("select.pairs_scored", exact.len() as u64);
        let chosen = bottom_k_asc(exact, batch, rng);
        Selection {
            chosen,
            committee_creation: Duration::ZERO,
            scoring: score_span.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// 2-D corpus around the unit circle; hyperplane w = (1, 0) → points
    /// near ±(0, 1) have the least margin.
    fn ring_corpus(n: usize) -> Corpus {
        let feats: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![a.cos(), a.sin()]
            })
            .collect();
        let truth: Vec<bool> = feats.iter().map(|x| x[0] > 0.0).collect();
        Corpus::from_features(feats, truth).unwrap()
    }

    #[test]
    fn build_produces_signatures_for_all() {
        let c = ring_corpus(100);
        let mut rng = StdRng::seed_from_u64(1);
        let lsh = HyperplaneLsh::build(&c, 32, &mut rng, &Registry::disabled()).unwrap();
        assert_eq!(lsh.signatures.len(), 100);
        assert_eq!(lsh.bits(), 32);
    }

    #[test]
    fn selects_near_hyperplane_points() {
        let c = ring_corpus(360);
        let mut rng = StdRng::seed_from_u64(1);
        let lsh = HyperplaneLsh::build(&c, 48, &mut rng, &Registry::disabled()).unwrap();
        let svm = LinearSvm::from_parts(vec![1.0, 0.0], 0.0);
        let unlabeled: Vec<usize> = (0..360).collect();
        let sel = lsh.select(&svm, &c, &unlabeled, 10, 4, &mut rng, &Registry::disabled());
        assert_eq!(sel.chosen.len(), 10);
        // Chosen points should have small |x[0]| (close to the w·x = 0
        // plane); allow LSH slack.
        let worst = sel
            .chosen
            .iter()
            .map(|&i| c.x(i)[0].abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.45, "LSH picked a far point with |x0| = {worst}");
    }

    #[test]
    fn oversample_one_still_fills_batch() {
        let c = ring_corpus(50);
        let mut rng = StdRng::seed_from_u64(2);
        let lsh = HyperplaneLsh::build(&c, 16, &mut rng, &Registry::disabled()).unwrap();
        let svm = LinearSvm::from_parts(vec![0.3, 0.7], 0.1);
        let unlabeled: Vec<usize> = (0..50).collect();
        let sel = lsh.select(&svm, &c, &unlabeled, 7, 1, &mut rng, &Registry::disabled());
        assert_eq!(sel.chosen.len(), 7);
    }

    #[test]
    fn rejects_oversized_signatures() {
        let c = ring_corpus(10);
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [0, MAX_BITS + 1] {
            let built = HyperplaneLsh::build(&c, bits, &mut rng, &Registry::disabled());
            assert!(
                matches!(built, Err(AlemError::InvalidConfig(_))),
                "bits {bits}"
            );
        }
    }
}
