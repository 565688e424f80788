//! Token-set and token-multiset similarity measures.
//!
//! Set measures take the distinct tokens of each value and multiset
//! measures their counts (see [`Prepared`]), walking both sides in token
//! order. Every sum they take is a sum of small integers, so it is exact
//! in any order. The soft measures (Monge-Elkan, generalized Jaccard) take
//! the tokens in order of appearance and a caller-owned [`Scratch`].

use crate::prepared::Prepared;
use crate::scratch::Scratch;
use crate::seq;
use crate::tokenize::merge_sorted;

/// Sum `f(count_a, count_b)` over the distinct tokens of either value.
fn merge_tokens(a: &Prepared, b: &Prepared, f: impl FnMut(u32, u32) -> f64) -> f64 {
    merge_sorted(a.token_counts(), b.token_counts(), f)
}

/// Sizes of the two token sets and of their intersection.
fn set_sizes(a: &Prepared, b: &Prepared) -> (usize, usize, usize) {
    let inter = merge_tokens(a, b, |x, y| f64::from(u8::from(x > 0 && y > 0)));
    (
        a.token_counts().len(),
        b.token_counts().len(),
        inter as usize,
    )
}

/// Jaccard coefficient `|A ∩ B| / |A ∪ B|` on token sets.
pub fn jaccard(a: &Prepared, b: &Prepared) -> f64 {
    let (la, lb, inter) = set_sizes(a, b);
    if la == 0 && lb == 0 {
        return 1.0;
    }
    let union = la + lb - inter;
    inter as f64 / union as f64
}

/// Sørensen-Dice coefficient `2|A ∩ B| / (|A| + |B|)` on token sets.
pub fn dice(a: &Prepared, b: &Prepared) -> f64 {
    let (la, lb, inter) = set_sizes(a, b);
    if la == 0 && lb == 0 {
        return 1.0;
    }
    2.0 * inter as f64 / (la + lb) as f64
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` on token sets.
pub fn overlap(a: &Prepared, b: &Prepared) -> f64 {
    let (la, lb, inter) = set_sizes(a, b);
    if la == 0 || lb == 0 {
        return f64::from(u8::from(la == lb));
    }
    inter as f64 / la.min(lb) as f64
}

/// Cosine similarity `|A ∩ B| / sqrt(|A| · |B|)` on token sets.
pub fn cosine(a: &Prepared, b: &Prepared) -> f64 {
    let (la, lb, inter) = set_sizes(a, b);
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    inter as f64 / ((la * lb) as f64).sqrt()
}

/// Total token count of a value.
fn token_total(p: &Prepared) -> u32 {
    p.token_counts().map(|(_, n)| n).sum()
}

/// Block (L1 / Manhattan) distance on token multisets, converted to a
/// similarity: `1 - L1 / (|a| + |b|)` where `|·|` is total token count.
pub fn block_distance_sim(a: &Prepared, b: &Prepared) -> f64 {
    let total = token_total(a) + token_total(b);
    if total == 0 {
        return 1.0;
    }
    let l1 = merge_tokens(a, b, |x, y| f64::from(x.abs_diff(y)));
    1.0 - l1 / f64::from(total)
}

/// Euclidean (L2) distance on token multisets, converted to a similarity:
/// `1 - L2 / sqrt(|a|² + |b|²)` — the Simmetrics normalization, where the
/// denominator is the largest possible L2 for disjoint multisets of the
/// same total counts.
pub fn euclidean_sim(a: &Prepared, b: &Prepared) -> f64 {
    let sq = |p: &Prepared| -> f64 {
        p.token_counts()
            .map(|(_, n)| f64::from(n) * f64::from(n))
            .sum()
    };
    let denom = (sq(a) + sq(b)).sqrt();
    if denom == 0.0 {
        return 1.0;
    }
    let l2 = merge_tokens(a, b, |x, y| {
        let d = f64::from(x) - f64::from(y);
        d * d
    })
    .sqrt();
    1.0 - l2 / denom
}

/// Monge-Elkan similarity with a Smith-Waterman inner measure:
/// symmetrized `avg_a max_b innersim(a, b)`.
///
/// Smith-Waterman is symmetric (the transposed DP has the same cells), so
/// each token pair is aligned once and both directions read the same
/// table.
pub fn monge_elkan(a: &Prepared, b: &Prepared, s: &mut Scratch) -> f64 {
    let (m, n) = (a.tokens().len(), b.tokens().len());
    if m == 0 && n == 0 {
        return 1.0;
    }
    if m == 0 || n == 0 {
        return 0.0;
    }
    let mut sims = std::mem::take(&mut s.sims);
    sims.clear();
    for x in a.tokens() {
        for y in b.tokens() {
            sims.push(seq::smith_waterman_sim(x, y, s));
        }
    }
    let mut a_to_b = 0.0;
    for row in sims.chunks_exact(n) {
        a_to_b += row.iter().fold(0.0f64, |best, &v| best.max(v));
    }
    let mut b_to_a = 0.0;
    for j in 0..n {
        b_to_a += sims[j..]
            .iter()
            .step_by(n)
            .fold(0.0f64, |best, &v| best.max(v));
    }
    s.sims = sims;
    0.5 * (a_to_b / m as f64 + b_to_a / n as f64)
}

/// Generalized Jaccard: soft token overlap where tokens `x, y` with
/// `Jaro(x, y) >= 0.8` count as a (weighted) intersection element.
pub fn generalized_jaccard(a: &Prepared, b: &Prepared, s: &mut Scratch) -> f64 {
    let (m, n) = (a.tokens().len(), b.tokens().len());
    if m == 0 && n == 0 {
        return 1.0;
    }
    if m == 0 || n == 0 {
        return 0.0;
    }
    // Greedy best-first soft matching.
    let mut pairs = std::mem::take(&mut s.pairs);
    pairs.clear();
    for (i, x) in a.tokens().enumerate() {
        for (j, y) in b.tokens().enumerate() {
            let sim = seq::jaro(x, y, s);
            if sim >= 0.8 {
                pairs.push((sim, i as u32, j as u32));
            }
        }
    }
    // Best first; ties in the order found, as a stable sort would leave
    // them.
    pairs.sort_unstable_by(|p, q| q.0.total_cmp(&p.0).then((p.1, p.2).cmp(&(q.1, q.2))));
    let [used_a, used_b] = &mut s.flags;
    used_a.clear();
    used_a.resize(m, false);
    used_b.clear();
    used_b.resize(n, false);
    let mut soft_inter = 0.0;
    let mut matched = 0usize;
    for &(sim, i, j) in &pairs {
        let (i, j) = (i as usize, j as usize);
        if !used_a[i] && !used_b[j] {
            used_a[i] = true;
            used_b[j] = true;
            soft_inter += sim;
            matched += 1;
        }
    }
    s.pairs = pairs;
    let union = (m + n - matched) as f64;
    soft_inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prepared {
        Prepared::new(s)
    }

    #[test]
    fn jaccard_known() {
        assert_eq!(jaccard(&p("a b c"), &p("b c d")), 0.5);
        assert_eq!(jaccard(&p("a"), &p("b")), 0.0);
        assert_eq!(jaccard(&p("a b"), &p("a b")), 1.0);
        assert_eq!(jaccard(&p("a b b"), &p("b a")), 1.0);
    }

    #[test]
    fn dice_known() {
        assert_eq!(dice(&p("a b"), &p("b c")), 0.5);
    }

    #[test]
    fn overlap_subsets_score_one() {
        assert_eq!(overlap(&p("a b"), &p("a b c d")), 1.0);
    }

    #[test]
    fn cosine_known() {
        let s = cosine(&p("a b"), &p("b c"));
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn block_distance_disjoint_zero() {
        let (a, b) = (p("a b"), p("c d"));
        assert_eq!(block_distance_sim(&a, &b), 0.0);
        assert_eq!(block_distance_sim(&a, &a), 1.0);
    }

    #[test]
    fn euclidean_identical_one() {
        let a = p("a b b");
        assert_eq!(euclidean_sim(&a, &a), 1.0);
        assert_eq!(euclidean_sim(&a, &p("c d")), 0.0);
    }

    #[test]
    fn monge_elkan_partial() {
        let sc = &mut Scratch::default();
        let s = monge_elkan(&p("apple ipod"), &p("apple ipod nano"), sc);
        assert!(s > 0.6 && s <= 1.0, "{s}");
        assert_eq!(monge_elkan(&p("a"), &p("a"), sc), 1.0);
    }

    #[test]
    fn generalized_jaccard_tolerates_typos() {
        let sc = &mut Scratch::default();
        let exact = jaccard(&p("panasonic dvd"), &p("panasonik dvd"));
        let soft = generalized_jaccard(&p("panasonic dvd"), &p("panasonik dvd"), sc);
        assert!(soft > exact, "soft {soft} vs exact {exact}");
    }

    #[test]
    fn set_measures_symmetric() {
        let (a, b) = (p("x y z"), p("y z w v"));
        for f in [jaccard, dice, overlap, cosine] {
            assert!((f(&a, &b) - f(&b, &a)).abs() < 1e-12);
        }
    }
}
