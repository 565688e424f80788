//! Character q-gram similarity measures (Ukkonen q-gram distance and the
//! Simon White bigram coefficient).
//!
//! Both take each multiset as a sorted key list that repeats a key once
//! per occurrence (the packed grams of [`crate::Prepared`], or the sorted
//! strings of [`crate::tokenize::qgrams`]) and merge its runs of equal keys.

use crate::tokenize::merge_sorted;

/// Each distinct key of a sorted key list, with its run length.
fn runs<K: Ord>(keys: &[K]) -> impl Iterator<Item = (&K, u32)> {
    keys.chunk_by(|x, y| x == y)
        .map(|run| (&run[0], run.len() as u32))
}

/// Ukkonen q-gram distance converted to a similarity:
/// `1 - sum |count_a - count_b| / (total_a + total_b)` over the q-gram
/// multisets (this crate uses padded trigrams).
pub fn qgram_sim<K: Ord>(a: &[K], b: &[K]) -> f64 {
    let total = a.len() + b.len();
    if total == 0 {
        return 1.0;
    }
    let dist = merge_sorted(runs(a), runs(b), |x, y| f64::from(x.abs_diff(y)));
    1.0 - dist / total as f64
}

/// Simon White coefficient: Dice on bigram multisets,
/// `2 * |overlap| / (|a| + |b|)` where overlap takes `min(count_a, count_b)`
/// per gram.
pub fn simon_white<K: Ord>(a: &[K], b: &[K]) -> f64 {
    let total = a.len() + b.len();
    if total == 0 {
        return 1.0;
    }
    let inter = merge_sorted(runs(a), runs(b), |x, y| f64::from(x.min(y)));
    2.0 * inter / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::qgrams;

    fn grams(s: &str, q: usize) -> Vec<String> {
        let mut g = qgrams(s, q);
        g.sort_unstable();
        g
    }

    #[test]
    fn qgram_identical_one() {
        let a = grams("hello world", 3);
        assert_eq!(qgram_sim(&a, &a), 1.0);
    }

    #[test]
    fn qgram_disjoint_zero() {
        let a = grams("aaa", 3);
        let b = grams("zzz", 3);
        assert_eq!(qgram_sim(&a, &b), 0.0);
    }

    #[test]
    fn simon_white_example() {
        // Classic Simon White article example: "Healed" vs "Sealed" on
        // letter-pair (unpadded) bigrams gives 0.8; with padding the value
        // differs but stays high.
        let a = grams("healed", 2);
        let b = grams("sealed", 2);
        let s = simon_white(&a, &b);
        assert!(s > 0.6 && s < 1.0, "{s}");
    }

    #[test]
    fn both_symmetric() {
        let a = grams("microsoft zune", 2);
        let b = grams("zune 30gb", 2);
        assert!((simon_white(&a, &b) - simon_white(&b, &a)).abs() < 1e-12);
        assert!((qgram_sim(&a, &b) - qgram_sim(&b, &a)).abs() < 1e-12);
    }
}
