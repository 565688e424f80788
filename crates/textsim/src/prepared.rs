//! [`Prepared`]: a pre-tokenized string value.
//!
//! Feature extraction evaluates all 21 similarity measures against the same
//! pair of attribute values. Tokenizing once and sharing the result across
//! measures avoids re-deriving tokens, q-grams and counts 21 times.

use crate::phonetic;
use crate::tokenize;

/// Every derived view of a string that the similarity measures need:
/// normalized characters, whitespace tokens (as char ranges), the token
/// multiset, 2-/3-gram multisets, and the Soundex code of the first
/// token.
///
/// Each view is an exact-size boxed slice, and char and token offsets are
/// `u32`, so a value holds fewer than 2^32 chars.
///
/// Construct once per attribute value and reuse across measures:
///
/// ```
/// use textsim::{Prepared, SimilarityFunction};
/// let p = Prepared::new("Apple iPod");
/// let q = Prepared::new("apple ipod nano");
/// for f in SimilarityFunction::ALL {
///     let s = f.compute_prepared(&p, &q);
///     assert!((0.0..=1.0).contains(&s));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Characters of the normalized string.
    chars: Box<[char]>,
    /// `chars[start..end]` of each whitespace token, in order.
    tokens: Box<[(u32, u32)]>,
    /// The distinct tokens, as (index into `tokens` of one occurrence,
    /// count), sorted by token content.
    token_counts: Box<[(u32, u32)]>,
    /// Padded bigram and trigram multisets: each gram packed into a
    /// `u64` (see [`pack`]), sorted, one key per occurrence.
    bigrams: Box<[u64]>,
    trigrams: Box<[u64]>,
    /// Soundex code of the first token, when it has one.
    soundex: Option<[char; 4]>,
}

/// Pack up to three chars into one integer, 21 bits each: every char is
/// below `0x110000 < 2^21`, so equal keys mean equal grams.
fn pack(gram: &[char]) -> u64 {
    gram.iter().fold(0, |key, &c| key << 21 | u64::from(c))
}

/// Padded q-grams of `chars` as sorted packed keys, one per occurrence:
/// the multiset of [`tokenize::qgrams`] of the normalized string.
fn packed_qgrams(chars: &[char], q: usize) -> Box<[u64]> {
    if chars.is_empty() {
        return Box::default();
    }
    let pad = std::iter::repeat_n('#', q - 1);
    let padded: Vec<char> = pad
        .clone()
        .chain(chars.iter().copied())
        .chain(pad)
        .collect();
    let mut keys: Box<[u64]> = padded.windows(q).map(pack).collect();
    keys.sort_unstable();
    keys
}

impl Prepared {
    /// Normalize and tokenize `raw` into all derived views.
    pub fn new(raw: &str) -> Self {
        let normalized = tokenize::normalize(raw);
        let chars: Box<[char]> = normalized.chars().collect();
        let mut tokens = Vec::new();
        let mut start = None;
        // A space past the end closes the last token.
        for (i, c) in (0u32..).zip(chars.iter().chain([&' '])) {
            match (c.is_whitespace(), start) {
                (true, Some(s)) => {
                    tokens.push((s, i));
                    start = None;
                }
                (false, None) => start = Some(i),
                _ => {}
            }
        }
        let token = |k: &u32| span(&chars, tokens[*k as usize]);
        let mut order: Vec<u32> = (0..tokens.len() as u32).collect();
        order.sort_by(|x, y| token(x).cmp(token(y)));
        let token_counts = order
            .chunk_by(|x, y| token(x) == token(y))
            .map(|run| (run[0], run.len() as u32))
            .collect();
        let soundex = normalized
            .split_whitespace()
            .next()
            .and_then(phonetic::soundex)
            .map(|code| {
                let mut out = ['0'; 4];
                for (slot, c) in out.iter_mut().zip(code.chars()) {
                    *slot = c;
                }
                out
            });
        Prepared {
            bigrams: packed_qgrams(&chars, 2),
            trigrams: packed_qgrams(&chars, 3),
            chars,
            tokens: tokens.into_boxed_slice(),
            token_counts,
            soundex,
        }
    }

    /// True when the value is null/absent for matching purposes (empty after
    /// normalization). The paper scores such pairs 0 for every measure.
    pub fn is_missing(&self) -> bool {
        self.chars.is_empty()
    }

    /// Characters of the normalized (lowercased, punctuation-stripped)
    /// string.
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// The chars of each whitespace token, in order of appearance.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &[char]> + '_ {
        self.tokens.iter().map(|&t| span(&self.chars, t))
    }

    /// Bytes the views hold on the heap: each slice's length times its
    /// element size, exact since every view is an exact-size boxed slice.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.chars)
            + size_of_val(&*self.tokens)
            + size_of_val(&*self.token_counts)
            + size_of_val(&*self.bigrams)
            + size_of_val(&*self.trigrams)
    }

    /// The chars of the first token (empty when there is none).
    pub(crate) fn first_token(&self) -> &[char] {
        self.tokens().next().unwrap_or_default()
    }

    /// The distinct tokens with their counts, in token order.
    pub(crate) fn token_counts(&self) -> impl ExactSizeIterator<Item = (&[char], u32)> + '_ {
        let token = |k: u32| span(&self.chars, self.tokens[k as usize]);
        self.token_counts.iter().map(move |&(k, n)| (token(k), n))
    }

    /// Packed padded bigram multiset.
    pub(crate) fn bigrams(&self) -> &[u64] {
        &self.bigrams
    }

    /// Packed padded trigram multiset.
    pub(crate) fn trigrams(&self) -> &[u64] {
        &self.trigrams
    }

    /// Soundex code of the first token.
    pub(crate) fn soundex(&self) -> Option<&[char; 4]> {
        self.soundex.as_ref()
    }
}

/// `chars[start..end]`.
fn span(chars: &[char], (start, end): (u32, u32)) -> &[char] {
    &chars[start as usize..end as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::qgrams;

    #[test]
    fn derives_all_views() {
        let p = Prepared::new("Apple iPod apple");
        let normalized = "apple ipod apple";
        assert_eq!(p.chars().iter().collect::<String>(), normalized);
        assert_eq!(p.tokens().len(), 3);
        let counts: Vec<(String, u32)> = p
            .token_counts()
            .map(|(token, n)| (token.iter().collect(), n))
            .collect();
        assert_eq!(counts, [("apple".to_owned(), 2), ("ipod".to_owned(), 1)]);
        // The packed grams are the string grams' multisets.
        for (q, packed) in [(2, p.bigrams()), (3, p.trigrams())] {
            let mut want: Vec<u64> = qgrams(normalized, q)
                .iter()
                .map(|g| pack(&g.chars().collect::<Vec<_>>()))
                .collect();
            want.sort_unstable();
            assert_eq!(packed, want.as_slice(), "q = {q}");
        }
        assert_eq!(p.soundex(), Some(&['A', '1', '4', '0']));
        assert!(!p.is_missing());
        // 16 chars, 3 token ranges, 2 distinct tokens, 17 bigrams and 18
        // trigrams.
        assert_eq!(p.heap_bytes(), 16 * 4 + 3 * 8 + 2 * 8 + 17 * 8 + 18 * 8);
    }

    #[test]
    fn empty_is_missing() {
        assert!(Prepared::new("").is_missing());
        assert!(Prepared::new(" .,! ").is_missing());
        assert_eq!(Prepared::new(" .,! ").heap_bytes(), 0);
    }
}
