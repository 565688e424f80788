//! The similarity kernels as first written: straightforward f64 DPs with
//! per-call allocations, and token, set and q-gram views as `String`s.
//! They define what every measure computes. The production kernels must
//! return the same bits for every input; `sim_properties.rs` checks that.

use textsim::tokenize::{counted, normalize, qgrams, tokens};
use textsim::SimilarityFunction;

/// The derived views of one value, as `String`s.
pub struct OldPrepared {
    normalized: String,
    chars: Vec<char>,
    tokens: Vec<String>,
    token_set: Vec<String>,
    token_counts: Vec<(String, u32)>,
    bigrams: Vec<(String, u32)>,
    trigrams: Vec<(String, u32)>,
}

impl OldPrepared {
    pub fn new(raw: &str) -> Self {
        let normalized = normalize(raw);
        let chars: Vec<char> = normalized.chars().collect();
        let tokens = tokens(&normalized);
        let mut token_set = tokens.clone();
        token_set.sort_unstable();
        token_set.dedup();
        let token_counts = counted(tokens.iter().cloned());
        let bigrams = counted(qgrams(&normalized, 2));
        let trigrams = counted(qgrams(&normalized, 3));
        OldPrepared {
            normalized,
            chars,
            tokens,
            token_set,
            token_counts,
            bigrams,
            trigrams,
        }
    }
}

/// Measure `f` of two raw strings, as first written.
pub fn compute(f: SimilarityFunction, a: &str, b: &str) -> f64 {
    compute_prepared(f, &OldPrepared::new(a), &OldPrepared::new(b))
}

/// Measure `f` of two prepared values, as first written.
pub fn compute_prepared(f: SimilarityFunction, a: &OldPrepared, b: &OldPrepared) -> f64 {
    if a.normalized.is_empty() || b.normalized.is_empty() {
        return 0.0;
    }
    let s = match f {
        SimilarityFunction::Levenshtein => seq::levenshtein_sim(&a.chars, &b.chars),
        SimilarityFunction::DamerauLevenshtein => seq::damerau_levenshtein_sim(&a.chars, &b.chars),
        SimilarityFunction::Jaro => seq::jaro(&a.chars, &b.chars),
        SimilarityFunction::JaroWinkler => seq::jaro_winkler(&a.chars, &b.chars),
        SimilarityFunction::NeedlemanWunsch => seq::needleman_wunsch_sim(&a.chars, &b.chars),
        SimilarityFunction::SmithWaterman => seq::smith_waterman_sim(&a.chars, &b.chars),
        SimilarityFunction::SmithWatermanGotoh => seq::smith_waterman_gotoh_sim(&a.chars, &b.chars),
        SimilarityFunction::LongestCommonSubsequence => seq::lcs_seq_sim(&a.chars, &b.chars),
        SimilarityFunction::LongestCommonSubstring => seq::lcs_str_sim(&a.chars, &b.chars),
        SimilarityFunction::Identity => {
            if a.normalized == b.normalized {
                1.0
            } else {
                0.0
            }
        }
        SimilarityFunction::Jaccard => setsim::jaccard(&a.token_set, &b.token_set),
        SimilarityFunction::GeneralizedJaccard => setsim::generalized_jaccard(&a.tokens, &b.tokens),
        SimilarityFunction::Dice => setsim::dice(&a.token_set, &b.token_set),
        SimilarityFunction::OverlapCoefficient => setsim::overlap(&a.token_set, &b.token_set),
        SimilarityFunction::Cosine => setsim::cosine(&a.token_set, &b.token_set),
        SimilarityFunction::SimonWhite => qgram::simon_white(&a.bigrams, &b.bigrams),
        SimilarityFunction::QGram => qgram::qgram_sim(&a.trigrams, &b.trigrams),
        SimilarityFunction::BlockDistance => {
            setsim::block_distance_sim(&a.token_counts, &b.token_counts)
        }
        SimilarityFunction::EuclideanDistance => {
            setsim::euclidean_sim(&a.token_counts, &b.token_counts)
        }
        SimilarityFunction::MongeElkan => setsim::monge_elkan(&a.tokens, &b.tokens),
        SimilarityFunction::Soundex => phonetic::soundex_sim(&a.tokens, &b.tokens),
    };
    s.clamp(0.0, 1.0)
}

pub mod seq {
    /// Normalized Levenshtein similarity: `1 - dist / max(|a|, |b|)`.
    pub fn levenshtein_sim(a: &[char], b: &[char]) -> f64 {
        let maxlen = a.len().max(b.len());
        if maxlen == 0 {
            return 1.0;
        }
        1.0 - levenshtein(a, b) as f64 / maxlen as f64
    }

    /// Plain Levenshtein edit distance with a two-row DP.
    pub fn levenshtein(a: &[char], b: &[char]) -> usize {
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    /// Normalized Damerau-Levenshtein similarity (optimal string alignment:
    /// edits plus adjacent transpositions).
    pub fn damerau_levenshtein_sim(a: &[char], b: &[char]) -> f64 {
        let maxlen = a.len().max(b.len());
        if maxlen == 0 {
            return 1.0;
        }
        1.0 - damerau_levenshtein(a, b) as f64 / maxlen as f64
    }

    /// Optimal-string-alignment distance (Damerau-Levenshtein without
    /// substring-reuse).
    pub fn damerau_levenshtein(a: &[char], b: &[char]) -> usize {
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let w = b.len() + 1;
        // Full DP table (the i-2 row access makes rolling rows awkward).
        let mut d = vec![vec![0usize; w]; a.len() + 1];
        for (i, row) in d.iter_mut().enumerate() {
            row[0] = i;
        }
        for (j, cell) in d[0].iter_mut().enumerate() {
            *cell = j;
        }
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                let mut best = (d[i - 1][j] + 1)
                    .min(d[i][j - 1] + 1)
                    .min(d[i - 1][j - 1] + cost);
                if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                    best = best.min(d[i - 2][j - 2] + 1);
                }
                d[i][j] = best;
            }
        }
        d[a.len()][b.len()]
    }

    /// Jaro similarity.
    pub fn jaro(a: &[char], b: &[char]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_matched = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_match_idx: Vec<usize> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == ca {
                    b_matched[j] = true;
                    a_match_idx.push(j);
                    matches += 1;
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        // Half-transpositions: matched b-characters in a-order vs. b-order.
        let mut t = 0usize;
        let b_seq: Vec<char> = a_match_idx.iter().map(|&j| b[j]).collect();
        let mut sorted_js = a_match_idx.clone();
        sorted_js.sort_unstable();
        let b_sorted: Vec<char> = sorted_js.iter().map(|&j| b[j]).collect();
        for (x, y) in b_seq.iter().zip(b_sorted.iter()) {
            if x != y {
                t += 1;
            }
        }
        let t = (t / 2) as f64;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    /// Jaro-Winkler similarity with scaling factor 0.1 and max prefix length 4.
    pub fn jaro_winkler(a: &[char], b: &[char]) -> f64 {
        let j = jaro(a, b);
        let prefix = a
            .iter()
            .zip(b.iter())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }

    const NW_GAP: f64 = 2.0;
    const NW_SUB: f64 = 1.0;

    /// Normalized Needleman-Wunsch similarity.
    ///
    /// Global alignment distance with gap cost 2 and substitution cost 1
    /// (the Simmetrics defaults), normalized as
    /// `1 - dist / (max(|a|, |b|) * max(gap, sub))`.
    pub fn needleman_wunsch_sim(a: &[char], b: &[char]) -> f64 {
        let maxlen = a.len().max(b.len());
        if maxlen == 0 {
            return 1.0;
        }
        let mut prev: Vec<f64> = (0..=b.len()).map(|j| j as f64 * NW_GAP).collect();
        let mut cur = vec![0.0; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = (i + 1) as f64 * NW_GAP;
            for (j, &cb) in b.iter().enumerate() {
                let sub = prev[j] + if ca == cb { 0.0 } else { NW_SUB };
                cur[j + 1] = sub.min(prev[j + 1] + NW_GAP).min(cur[j] + NW_GAP);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        let dist = prev[b.len()];
        1.0 - dist / (maxlen as f64 * NW_GAP.max(NW_SUB))
    }

    const SW_MATCH: f64 = 1.0;
    const SW_MISMATCH: f64 = -2.0;
    const SW_GAP: f64 = -0.5;

    /// Normalized Smith-Waterman similarity: best local alignment score with
    /// match +1, mismatch −2, gap −0.5, normalized by `min(|a|, |b|)`.
    pub fn smith_waterman_sim(a: &[char], b: &[char]) -> f64 {
        let minlen = a.len().min(b.len());
        if minlen == 0 {
            return if a.len() == b.len() { 1.0 } else { 0.0 };
        }
        let mut prev = vec![0.0f64; b.len() + 1];
        let mut cur = vec![0.0f64; b.len() + 1];
        let mut best = 0.0f64;
        for &ca in a {
            for (j, &cb) in b.iter().enumerate() {
                let diag = prev[j] + if ca == cb { SW_MATCH } else { SW_MISMATCH };
                let v = diag.max(prev[j + 1] + SW_GAP).max(cur[j] + SW_GAP).max(0.0);
                cur[j + 1] = v;
                best = best.max(v);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        best / (minlen as f64 * SW_MATCH)
    }

    const SWG_OPEN: f64 = -1.0;
    const SWG_EXTEND: f64 = -0.5;

    /// Normalized Smith-Waterman-Gotoh similarity: local alignment with affine
    /// gaps (open −1, extend −0.5), match +1, mismatch −2, normalized by
    /// `min(|a|, |b|)`.
    pub fn smith_waterman_gotoh_sim(a: &[char], b: &[char]) -> f64 {
        let minlen = a.len().min(b.len());
        if minlen == 0 {
            return if a.len() == b.len() { 1.0 } else { 0.0 };
        }
        let w = b.len() + 1;
        let neg = f64::NEG_INFINITY;
        // h: best ending at (i,j); e: gap in b (horizontal); f: gap in a.
        let mut h_prev = vec![0.0f64; w];
        let mut f_prev = vec![neg; w];
        let mut best = 0.0f64;
        for &ca in a {
            let mut h_cur = vec![0.0f64; w];
            let mut f_cur = vec![neg; w];
            let mut e = neg;
            for (j, &cb) in b.iter().enumerate() {
                e = (h_cur[j] + SWG_OPEN).max(e + SWG_EXTEND);
                f_cur[j + 1] = (h_prev[j + 1] + SWG_OPEN).max(f_prev[j + 1] + SWG_EXTEND);
                let diag = h_prev[j] + if ca == cb { SW_MATCH } else { SW_MISMATCH };
                let v = diag.max(e).max(f_cur[j + 1]).max(0.0);
                h_cur[j + 1] = v;
                best = best.max(v);
            }
            h_prev = h_cur;
            f_prev = f_cur;
        }
        best / (minlen as f64 * SW_MATCH)
    }

    /// Longest-common-subsequence similarity: `|lcs| / max(|a|, |b|)`.
    pub fn lcs_seq_sim(a: &[char], b: &[char]) -> f64 {
        let maxlen = a.len().max(b.len());
        if maxlen == 0 {
            return 1.0;
        }
        let mut prev = vec![0usize; b.len() + 1];
        let mut cur = vec![0usize; b.len() + 1];
        for &ca in a {
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = if ca == cb {
                    prev[j] + 1
                } else {
                    prev[j + 1].max(cur[j])
                };
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()] as f64 / maxlen as f64
    }

    /// Longest-common-substring similarity: `|lcsstr| / max(|a|, |b|)`.
    pub fn lcs_str_sim(a: &[char], b: &[char]) -> f64 {
        let maxlen = a.len().max(b.len());
        if maxlen == 0 {
            return 1.0;
        }
        let mut prev = vec![0usize; b.len() + 1];
        let mut cur = vec![0usize; b.len() + 1];
        let mut best = 0usize;
        for &ca in a {
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
                best = best.max(cur[j + 1]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        best as f64 / maxlen as f64
    }
}

pub mod setsim {
    use textsim::tokenize::merge_counts;

    /// Size of the intersection of two sorted, deduplicated slices.
    fn intersection_size(a: &[String], b: &[String]) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Jaccard coefficient `|A ∩ B| / |A ∪ B|` on token sets.
    pub fn jaccard(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let inter = intersection_size(a, b);
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }

    /// Sørensen-Dice coefficient `2|A ∩ B| / (|A| + |B|)` on token sets.
    pub fn dice(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        2.0 * intersection_size(a, b) as f64 / (a.len() + b.len()) as f64
    }

    /// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` on token sets.
    pub fn overlap(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::from(u8::from(a.len() == b.len()));
        }
        intersection_size(a, b) as f64 / a.len().min(b.len()) as f64
    }

    /// Cosine similarity `|A ∩ B| / sqrt(|A| · |B|)` on token sets.
    pub fn cosine(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        intersection_size(a, b) as f64 / ((a.len() * b.len()) as f64).sqrt()
    }

    /// Block (L1 / Manhattan) distance on token multisets, converted to a
    /// similarity: `1 - L1 / (|a| + |b|)` where `|·|` is total token count.
    pub fn block_distance_sim(a: &[(String, u32)], b: &[(String, u32)]) -> f64 {
        let total: u32 =
            a.iter().map(|(_, n)| n).sum::<u32>() + b.iter().map(|(_, n)| n).sum::<u32>();
        if total == 0 {
            return 1.0;
        }
        let l1 = merge_counts(a, b, |x, y| (f64::from(x) - f64::from(y)).abs());
        1.0 - l1 / f64::from(total)
    }

    /// Euclidean (L2) distance on token multisets, converted to a similarity:
    /// `1 - L2 / sqrt(|a|² + |b|²)` — the Simmetrics normalization, where the
    /// denominator is the largest possible L2 for disjoint multisets of the
    /// same total counts.
    pub fn euclidean_sim(a: &[(String, u32)], b: &[(String, u32)]) -> f64 {
        let sq = |v: &[(String, u32)]| -> f64 {
            v.iter().map(|(_, n)| f64::from(*n) * f64::from(*n)).sum()
        };
        let denom = (sq(a) + sq(b)).sqrt();
        if denom == 0.0 {
            return 1.0;
        }
        let l2 = merge_counts(a, b, |x, y| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sqrt();
        1.0 - l2 / denom
    }

    /// Monge-Elkan similarity with a Smith-Waterman inner measure:
    /// symmetrized `avg_a max_b innersim(a, b)`.
    pub fn monge_elkan(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let one_way = |xs: &[String], ys: &[String]| -> f64 {
            let mut total = 0.0;
            for x in xs {
                let xc: Vec<char> = x.chars().collect();
                let mut best: f64 = 0.0;
                for y in ys {
                    let yc: Vec<char> = y.chars().collect();
                    best = best.max(super::seq::smith_waterman_sim(&xc, &yc));
                }
                total += best;
            }
            total / xs.len() as f64
        };
        0.5 * (one_way(a, b) + one_way(b, a))
    }

    /// Generalized Jaccard: soft token overlap where tokens `x, y` with
    /// `Jaro(x, y) >= 0.8` count as a (weighted) intersection element.
    pub fn generalized_jaccard(a: &[String], b: &[String]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        // Greedy best-first soft matching.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        let acs: Vec<Vec<char>> = a.iter().map(|t| t.chars().collect()).collect();
        let bcs: Vec<Vec<char>> = b.iter().map(|t| t.chars().collect()).collect();
        for (i, x) in acs.iter().enumerate() {
            for (j, y) in bcs.iter().enumerate() {
                let s = super::seq::jaro(x, y);
                if s >= 0.8 {
                    pairs.push((s, i, j));
                }
            }
        }
        pairs.sort_by(|p, q| q.0.partial_cmp(&p.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut used_a = vec![false; a.len()];
        let mut used_b = vec![false; b.len()];
        let mut soft_inter = 0.0;
        let mut matched = 0usize;
        for (s, i, j) in pairs {
            if !used_a[i] && !used_b[j] {
                used_a[i] = true;
                used_b[j] = true;
                soft_inter += s;
                matched += 1;
            }
        }
        let union = (a.len() + b.len() - matched) as f64;
        soft_inter / union
    }
}

pub mod qgram {
    use textsim::tokenize::merge_counts;

    /// Ukkonen q-gram distance converted to a similarity:
    /// `1 - sum |count_a - count_b| / (total_a + total_b)` over the q-gram
    /// multisets (this crate uses padded trigrams).
    pub fn qgram_sim(a: &[(String, u32)], b: &[(String, u32)]) -> f64 {
        let total: u32 =
            a.iter().map(|(_, n)| n).sum::<u32>() + b.iter().map(|(_, n)| n).sum::<u32>();
        if total == 0 {
            return 1.0;
        }
        let dist = merge_counts(a, b, |x, y| (f64::from(x) - f64::from(y)).abs());
        1.0 - dist / f64::from(total)
    }

    /// Simon White coefficient: Dice on bigram multisets,
    /// `2 * |overlap| / (|a| + |b|)` where overlap takes `min(count_a, count_b)`
    /// per gram.
    pub fn simon_white(a: &[(String, u32)], b: &[(String, u32)]) -> f64 {
        let total: u32 =
            a.iter().map(|(_, n)| n).sum::<u32>() + b.iter().map(|(_, n)| n).sum::<u32>();
        if total == 0 {
            return 1.0;
        }
        let inter = merge_counts(a, b, |x, y| f64::from(x.min(y)));
        2.0 * inter / f64::from(total)
    }
}

pub mod phonetic {
    /// Similarity of the Soundex codes of the first tokens, compared with
    /// Jaro-Winkler. Falls back to Jaro-Winkler on the first tokens themselves
    /// when a code cannot be derived.
    pub fn soundex_sim(a_tokens: &[String], b_tokens: &[String]) -> f64 {
        let a = a_tokens.first().map(String::as_str).unwrap_or("");
        let b = b_tokens.first().map(String::as_str).unwrap_or("");
        match (textsim::phonetic::soundex(a), textsim::phonetic::soundex(b)) {
            (Some(ca), Some(cb)) => {
                let x: Vec<char> = ca.chars().collect();
                let y: Vec<char> = cb.chars().collect();
                super::seq::jaro_winkler(&x, &y)
            }
            _ => {
                let x: Vec<char> = a.chars().collect();
                let y: Vec<char> = b.chars().collect();
                super::seq::jaro_winkler(&x, &y)
            }
        }
    }
}
