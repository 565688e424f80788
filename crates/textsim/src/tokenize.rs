//! Tokenizers: normalization, whitespace tokens and character q-grams.
//!
//! All similarity measures in this crate operate on the *normalized* form of
//! a string: lowercased, with punctuation mapped to spaces and runs of
//! whitespace collapsed. This mirrors the preprocessing entity-matching
//! pipelines apply before computing Simmetrics similarities.

use std::cmp::Ordering;

/// Lowercase, replace punctuation with spaces and collapse whitespace.
///
/// ```
/// assert_eq!(textsim::tokenize::normalize("  Apple, iPod-Nano!  "), "apple ipod nano");
/// ```
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Split a normalized string into whitespace tokens.
pub fn tokens(normalized: &str) -> Vec<String> {
    normalized.split_whitespace().map(str::to_owned).collect()
}

/// Character q-grams of a normalized string, padded with `q - 1` sentinel
/// characters (`#`) on each side, as in the Simmetrics q-gram tokenizer.
///
/// Strings shorter than `q` (after padding this can't happen for `q >= 1`)
/// still produce at least one gram; the empty string produces none.
pub fn qgrams(normalized: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q-gram size must be at least 1");
    if normalized.is_empty() {
        return Vec::new();
    }
    let pad = "#".repeat(q - 1);
    let padded: Vec<char> = format!("{pad}{normalized}{pad}").chars().collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Multiset of items with counts, sorted by item for deterministic iteration.
pub fn counted<T: Ord, I: IntoIterator<Item = T>>(items: I) -> Vec<(T, u32)> {
    let mut v: Vec<T> = items.into_iter().collect();
    v.sort_unstable();
    let mut out: Vec<(T, u32)> = Vec::new();
    for item in v {
        match out.last_mut() {
            Some((last, n)) if *last == item => *n += 1,
            _ => out.push((item, 1)),
        }
    }
    out
}

/// Intersect two count-sorted multisets, applying `f(count_a, count_b)` to
/// aligned entries (missing entries count 0). Returns the sum of `f` over the
/// union of keys.
pub fn merge_counts<K: Ord, F: FnMut(u32, u32) -> f64>(
    a: &[(K, u32)],
    b: &[(K, u32)],
    f: F,
) -> f64 {
    let (a, b) = (
        a.iter().map(|(k, n)| (k, *n)),
        b.iter().map(|(k, n)| (k, *n)),
    );
    merge_sorted(a, b, f)
}

/// [`merge_counts`] over any two `(key, count)` sequences in ascending
/// key order, such as the distinct tokens of two values or the runs of
/// two sorted key lists: `f` runs once per key, in key order.
pub(crate) fn merge_sorted<K: Ord>(
    a: impl IntoIterator<Item = (K, u32)>,
    b: impl IntoIterator<Item = (K, u32)>,
    mut f: impl FnMut(u32, u32) -> f64,
) -> f64 {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let mut acc = 0.0;
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some((x, _)), Some((y, _))) => x.cmp(y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return acc,
        };
        let x = a.next_if(|_| order.is_le()).map_or(0, |(_, n)| n);
        let y = b.next_if(|_| order.is_ge()).map_or(0, |(_, n)| n);
        acc += f(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_punct_and_case() {
        assert_eq!(normalize("Sony DSC-W55, 7.2MP"), "sony dsc w55 7 2mp");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("!!!"), "");
    }

    #[test]
    fn normalize_handles_unicode() {
        assert_eq!(normalize("Café Müller"), "café müller");
    }

    #[test]
    fn tokens_split() {
        assert_eq!(tokens("a bb ccc"), vec!["a", "bb", "ccc"]);
        assert!(tokens("").is_empty());
    }

    #[test]
    fn qgrams_padded() {
        let g = qgrams("ab", 2);
        assert_eq!(g, vec!["#a", "ab", "b#"]);
        assert!(qgrams("", 3).is_empty());
    }

    #[test]
    fn qgrams_q1_no_padding() {
        assert_eq!(qgrams("abc", 1), vec!["a", "b", "c"]);
    }

    #[test]
    fn counted_counts() {
        let c = counted(vec!["b".to_owned(), "a".to_owned(), "b".to_owned()]);
        assert_eq!(c, vec![("a".to_owned(), 1), ("b".to_owned(), 2)]);
    }

    #[test]
    fn merge_counts_union() {
        let a = counted(vec!["x".to_owned(), "y".to_owned()]);
        let b = counted(vec!["y".to_owned(), "z".to_owned(), "z".to_owned()]);
        // L1 distance: |1-0| + |1-1| + |0-2| = 3
        let l1 = merge_counts(&a, &b, |x, y| (x as f64 - y as f64).abs());
        assert_eq!(l1, 3.0);
    }
}
