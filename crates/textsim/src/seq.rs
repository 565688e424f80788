//! Character-sequence similarity measures: edit distances, Jaro family,
//! global/local alignment, and longest-common-subsequence/substring.
//!
//! All functions take pre-split `&[char]` slices (see
//! [`crate::Prepared::chars`]) and a caller-owned [`Scratch`], and return
//! similarities in `[0, 1]`. Callers guarantee non-empty inputs; the
//! empty-vs-empty case returns 1 where the strings are trivially equal.
//!
//! The kernels are exact. Levenshtein and the longest common subsequence
//! run bit-parallel over 64-char blocks (Myers 1999; Hyyrö 2004); the
//! other distances run integer DPs over rolling rows. The alignment costs
//! (Smith-Waterman +1/−2/−0.5, Gotoh −1/−0.5) are multiples of 0.5, so
//! their DPs run in integer half units: every score is the exact value
//! of the real-valued recurrence, and each similarity takes the same final
//! f64 operations on it.

use crate::scratch::Scratch;

/// Normalized Levenshtein similarity: `1 - dist / max(|a|, |b|)`.
pub fn levenshtein_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let maxlen = a.len().max(b.len());
    if maxlen == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b, s) as f64 / maxlen as f64
}

/// Levenshtein edit distance, bit-parallel over `a` in blocks of 64
/// chars (Myers 1999, with the block carries of its §4).
pub fn levenshtein(a: &[char], b: &[char], s: &mut Scratch) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    s.peq.build(a);
    let words = s.peq.words;
    let [vp, vn] = &mut s.words;
    vp.clear();
    vp.resize(words, !0);
    vn.clear();
    vn.resize(words, 0);
    // The last row's bit within the last block.
    let last = 1u64 << ((a.len() - 1) % 64);
    let mut dist = a.len();
    for &c in b {
        // Horizontal delta entering the top of each block: the first
        // row of the table is 0, 1, 2, …, so +1 enters block 0.
        let (mut hp_in, mut hn_in) = (1u64, 0u64);
        for (w, &eq) in s.peq.row(c).iter().enumerate() {
            let (pv, mv) = (vp[w], vn[w]);
            let xv = eq | mv;
            let eq = eq | hn_in;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            let top = if w + 1 == words { last } else { 1 << 63 };
            let (hp_out, hn_out) = (u64::from(ph & top != 0), u64::from(mh & top != 0));
            let ph = (ph << 1) | hp_in;
            let mh = (mh << 1) | hn_in;
            vp[w] = mh | !(xv | ph);
            vn[w] = ph & xv;
            (hp_in, hn_in) = (hp_out, hn_out);
        }
        dist = dist + hp_in as usize - hn_in as usize;
    }
    dist
}

/// Normalized Damerau-Levenshtein similarity (optimal string alignment:
/// edits plus adjacent transpositions).
pub fn damerau_levenshtein_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let maxlen = a.len().max(b.len());
    if maxlen == 0 {
        return 1.0;
    }
    1.0 - damerau_levenshtein(a, b, s) as f64 / maxlen as f64
}

/// Optimal-string-alignment distance (Damerau-Levenshtein without
/// substring-reuse), over three rolling rows.
pub fn damerau_levenshtein(a: &[char], b: &[char], s: &mut Scratch) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let n = b.len();
    let [two_up, up, cur] = &mut s.rows;
    for row in [&mut *two_up, &mut *up, &mut *cur] {
        row.clear();
        row.resize(n + 1, 0);
    }
    for (j, cell) in up.iter_mut().enumerate() {
        *cell = j as u32;
    }
    let mut prev_a = None;
    for (i, &ca) in a.iter().enumerate() {
        let (two_up_row, up_row, cur_row) = (&two_up[..=n], &up[..=n], &mut cur[..=n]);
        let mut left = i as u32 + 1;
        cur_row[0] = left;
        for j in 0..n {
            let cb = b[j];
            let cost = u32::from(ca != cb);
            let mut v = (up_row[j + 1] + 1).min(left + 1).min(up_row[j] + cost);
            if j > 0 && prev_a == Some(cb) && ca == b[j - 1] {
                v = v.min(two_up_row[j - 1] + 1);
            }
            cur_row[j + 1] = v;
            left = v;
        }
        prev_a = Some(ca);
        std::mem::swap(two_up, up);
        std::mem::swap(up, cur);
    }
    up[n] as usize
}

/// Jaro similarity.
pub fn jaro(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let [a_matched, b_matched] = &mut s.flags;
    a_matched.clear();
    a_matched.resize(a.len(), false);
    b_matched.clear();
    b_matched.resize(b.len(), false);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_matched[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Half-transpositions: the matched chars in a-order against the
    // matched chars in b-order.
    let in_b_order = b.iter().zip(b_matched.iter()).filter(|(_, &m)| m);
    let in_a_order = a.iter().zip(a_matched.iter()).filter(|(_, &m)| m);
    let t = in_a_order
        .zip(in_b_order)
        .filter(|((x, _), (y, _))| x != y)
        .count();
    let t = (t / 2) as f64;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with scaling factor 0.1 and max prefix length 4.
pub fn jaro_winkler(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    winkler(jaro(a, b, s), a, b)
}

/// Jaro-Winkler from the Jaro similarity `j` of `a` and `b`: boost `j` by
/// their common prefix (at most 4 chars, scaling factor 0.1).
pub(crate) fn winkler(j: f64, a: &[char], b: &[char]) -> f64 {
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

const NW_GAP: u32 = 2;
const NW_SUB: u32 = 1;

/// Normalized Needleman-Wunsch similarity.
///
/// Global alignment distance with gap cost 2 and substitution cost 1
/// (the Simmetrics defaults), normalized as
/// `1 - dist / (max(|a|, |b|) * max(gap, sub))`.
pub fn needleman_wunsch_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let maxlen = a.len().max(b.len());
    if maxlen == 0 {
        return 1.0;
    }
    let row = &mut s.rows[0];
    row.clear();
    row.extend((0..=b.len() as u32).map(|j| j * NW_GAP));
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = (i as u32 + 1) * NW_GAP;
        let mut left = row[0];
        for (cell, &cb) in row[1..].iter_mut().zip(b) {
            let up = *cell;
            let sub = diag + if ca == cb { 0 } else { NW_SUB };
            left = sub.min(up + NW_GAP).min(left + NW_GAP);
            *cell = left;
            diag = up;
        }
    }
    let dist = f64::from(row[b.len()]);
    1.0 - dist / (maxlen as f64 * f64::from(NW_GAP.max(NW_SUB)))
}

// Alignment scores in half units.
const SW_MATCH: i32 = 2;
const SW_MISMATCH: i32 = -4;
const SW_GAP: i32 = -1;

/// A local alignment similarity from its best score in half units: the
/// score (exact, as halving an integer is) over the `minlen` matches of
/// +1 a perfect alignment scores.
fn half_units_to_sim(best: i32, minlen: usize) -> f64 {
    let score = f64::from(best) / 2.0;
    score / minlen as f64
}

/// Normalized Smith-Waterman similarity: best local alignment score with
/// match +1, mismatch −2, gap −0.5, normalized by `min(|a|, |b|)`.
pub fn smith_waterman_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let minlen = a.len().min(b.len());
    if minlen == 0 {
        return if a.len() == b.len() { 1.0 } else { 0.0 };
    }
    let h = &mut s.half[0];
    h.clear();
    h.resize(b.len() + 1, 0);
    let mut best = 0;
    for &ca in a {
        let (mut diag, mut left) = (0, 0);
        for (cell, &cb) in h[1..].iter_mut().zip(b) {
            let up = *cell;
            let score = diag + if ca == cb { SW_MATCH } else { SW_MISMATCH };
            left = score.max(up + SW_GAP).max(left + SW_GAP).max(0);
            *cell = left;
            best = best.max(left);
            diag = up;
        }
    }
    half_units_to_sim(best, minlen)
}

const SWG_OPEN: i32 = -2;
const SWG_EXTEND: i32 = -1;
/// Stands for −∞ in the gap rows: far below any reachable score, and far
/// enough above `i32::MIN` that adding an extension cannot overflow.
const SWG_NONE: i32 = i32::MIN / 2;

/// Normalized Smith-Waterman-Gotoh similarity: local alignment with affine
/// gaps (open −1, extend −0.5), match +1, mismatch −2, normalized by
/// `min(|a|, |b|)`.
pub fn smith_waterman_gotoh_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let minlen = a.len().min(b.len());
    if minlen == 0 {
        return if a.len() == b.len() { 1.0 } else { 0.0 };
    }
    // h: best ending at (i, j); f: best ending in a gap in a; e (a
    // scalar): best ending in a gap in b.
    let [h, f] = &mut s.half;
    h.clear();
    h.resize(b.len() + 1, 0);
    f.clear();
    f.resize(b.len() + 1, SWG_NONE);
    let mut best = 0;
    for &ca in a {
        let (mut diag, mut left, mut e) = (0, 0, SWG_NONE);
        for ((cell, gap), &cb) in h[1..].iter_mut().zip(&mut f[1..]).zip(b) {
            let up = *cell;
            e = (left + SWG_OPEN).max(e + SWG_EXTEND);
            *gap = (up + SWG_OPEN).max(*gap + SWG_EXTEND);
            let score = diag + if ca == cb { SW_MATCH } else { SW_MISMATCH };
            left = score.max(e).max(*gap).max(0);
            *cell = left;
            best = best.max(left);
            diag = up;
        }
    }
    half_units_to_sim(best, minlen)
}

/// Longest-common-subsequence similarity: `|lcs| / max(|a|, |b|)`.
pub fn lcs_seq_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let maxlen = a.len().max(b.len());
    if maxlen == 0 {
        return 1.0;
    }
    lcs_seq(a, b, s) as f64 / maxlen as f64
}

/// Length of the longest common subsequence, bit-parallel over `a` in
/// blocks of 64 chars (Hyyrö 2004): the zero bits of the state vector
/// mark the rows where the LCS grew.
fn lcs_seq(a: &[char], b: &[char], s: &mut Scratch) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    s.peq.build(a);
    let v = &mut s.words[0];
    v.clear();
    v.resize(s.peq.words, !0);
    for &c in b {
        let mut carry = false;
        for (x, &m) in v.iter_mut().zip(s.peq.row(c)) {
            let u = *x & m;
            let (sum, c1) = x.overflowing_add(u);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            *x = sum | (*x & !m);
        }
    }
    let tail = a.len() % 64;
    v.iter()
        .enumerate()
        .map(|(w, &x)| {
            let valid = if tail != 0 && w + 1 == v.len() {
                (1u64 << tail) - 1
            } else {
                !0
            };
            (!x & valid).count_ones() as usize
        })
        .sum()
}

/// Longest-common-substring similarity: `|lcsstr| / max(|a|, |b|)`.
pub fn lcs_str_sim(a: &[char], b: &[char], s: &mut Scratch) -> f64 {
    let maxlen = a.len().max(b.len());
    if maxlen == 0 {
        return 1.0;
    }
    let row = &mut s.rows[0];
    row.clear();
    row.resize(b.len() + 1, 0);
    let mut best = 0u32;
    for &ca in a {
        let mut diag = 0;
        for (cell, &cb) in row[1..].iter_mut().zip(b) {
            let up = *cell;
            *cell = if ca == cb { diag + 1 } else { 0 };
            best = best.max(*cell);
            diag = up;
        }
    }
    f64::from(best) / maxlen as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn levenshtein_known_values() {
        let s = &mut Scratch::default();
        assert_eq!(levenshtein(&cs("kitten"), &cs("sitting"), s), 3);
        assert_eq!(levenshtein(&cs("abc"), &cs("abc"), s), 0);
        assert_eq!(levenshtein(&cs(""), &cs("abc"), s), 3);
        // Across block boundaries: 70 vs 140 chars.
        let long = "ab".repeat(70);
        assert_eq!(levenshtein(&cs(&long[..70]), &cs(&long), s), 70);
        assert_eq!(lcs_seq(&cs(&long[..70]), &cs(&long), s), 70);
    }

    #[test]
    fn damerau_counts_transposition_once() {
        let s = &mut Scratch::default();
        assert_eq!(damerau_levenshtein(&cs("ca"), &cs("ac"), s), 1);
        assert_eq!(levenshtein(&cs("ca"), &cs("ac"), s), 2);
        assert_eq!(damerau_levenshtein(&cs("abcdef"), &cs("abcdfe"), s), 1);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook examples.
        let sc = &mut Scratch::default();
        let s = jaro(&cs("martha"), &cs("marhta"), sc);
        assert!((s - 0.944444).abs() < 1e-4, "{s}");
        let s = jaro(&cs("dixon"), &cs("dicksonx"), sc);
        assert!((s - 0.766667).abs() < 1e-4, "{s}");
        assert_eq!(jaro(&cs("abc"), &cs("xyz"), sc), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let s = &mut Scratch::default();
        let jw = jaro_winkler(&cs("martha"), &cs("marhta"), s);
        assert!((jw - 0.961111).abs() < 1e-4, "{jw}");
        let j = jaro(&cs("marxxx"), &cs("maryyy"), s);
        let w = jaro_winkler(&cs("marxxx"), &cs("maryyy"), s);
        assert!(w > j);
    }

    #[test]
    fn needleman_wunsch_bounds() {
        let s = &mut Scratch::default();
        assert_eq!(needleman_wunsch_sim(&cs("abc"), &cs("abc"), s), 1.0);
        let v = needleman_wunsch_sim(&cs("abc"), &cs("xyz"), s);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn smith_waterman_finds_local_match() {
        // "ipod" is a perfect local match inside both strings.
        let s = &mut Scratch::default();
        let v = smith_waterman_sim(&cs("ipod"), &cs("apple ipod nano"), s);
        assert_eq!(v, 1.0);
        let v = smith_waterman_gotoh_sim(&cs("ipod"), &cs("apple ipod nano"), s);
        assert_eq!(v, 1.0);
    }

    #[test]
    fn gotoh_prefers_contiguous_gaps() {
        // Affine penalties make one 4-char gap cheaper than two 2-char gaps;
        // linear Smith-Waterman scores both identically.
        let s = &mut Scratch::default();
        let a = cs("abcdefgh");
        let one_gap = cs("abcdXXXXefgh");
        let two_gaps = cs("abXXcdefXXgh");
        assert!(
            smith_waterman_gotoh_sim(&a, &one_gap, s) > smith_waterman_gotoh_sim(&a, &two_gaps, s)
        );
        assert!(
            (smith_waterman_sim(&a, &one_gap, s) - smith_waterman_sim(&a, &two_gaps, s)).abs()
                < 1e-12
        );
    }

    #[test]
    fn lcs_variants() {
        let s = &mut Scratch::default();
        assert!((lcs_seq_sim(&cs("abcde"), &cs("axcxe"), s) - 0.6).abs() < 1e-12);
        assert!((lcs_str_sim(&cs("abcde"), &cs("xxabcxx"), s) - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn all_measures_symmetric() {
        let s = &mut Scratch::default();
        let pairs = [("panasonic dvd", "panasonic dvd player"), ("abc", "cba")];
        for (x, y) in pairs {
            let (a, b) = (cs(x), cs(y));
            for f in [
                levenshtein_sim,
                damerau_levenshtein_sim,
                jaro,
                jaro_winkler,
                needleman_wunsch_sim,
                smith_waterman_sim,
                smith_waterman_gotoh_sim,
                lcs_seq_sim,
                lcs_str_sim,
            ] {
                assert!((f(&a, &b, s) - f(&b, &a, s)).abs() < 1e-12);
            }
        }
    }
}
