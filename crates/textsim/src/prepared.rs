//! [`Prepared`]: a pre-tokenized string value.
//!
//! Feature extraction evaluates all 21 similarity measures against the same
//! pair of attribute values. Tokenizing once and sharing the result across
//! measures avoids re-deriving tokens, q-grams and counts 21 times.

use crate::phonetic;
use crate::tokenize::{self, counted};

/// A string plus every derived view the similarity measures need: normalized
/// characters, whitespace tokens (as char ranges), the token multiset,
/// 2-/3-gram multisets, and the Soundex code of the first token.
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
    normalized: String,
    chars: Vec<char>,
    /// `chars[start..end]` of each whitespace token, in order.
    tokens: Vec<(usize, usize)>,
    /// The distinct tokens, as (index into `tokens` of one occurrence,
    /// count), sorted by token content.
    token_counts: Vec<(usize, u32)>,
    /// Padded bigram and trigram multisets, each gram packed into a
    /// `u64` (see [`pack`]), sorted by key.
    bigrams: Vec<(u64, u32)>,
    trigrams: Vec<(u64, u32)>,
    /// Soundex code of the first token, when it has one.
    soundex: Option<[char; 4]>,
}

/// Pack up to three chars into one integer, 21 bits each: every char is
/// below `0x110000 < 2^21`, so equal keys mean equal grams.
fn pack(gram: &[char]) -> u64 {
    gram.iter().fold(0, |key, &c| key << 21 | u64::from(c))
}

/// Padded q-grams of `chars` packed into keys, with counts: the same
/// multiset as [`tokenize::qgrams`] of the normalized string.
fn packed_qgrams(chars: &[char], q: usize) -> Vec<(u64, u32)> {
    if chars.is_empty() {
        return Vec::new();
    }
    let pad = std::iter::repeat_n('#', q - 1);
    let padded: Vec<char> = pad
        .clone()
        .chain(chars.iter().copied())
        .chain(pad)
        .collect();
    counted(padded.windows(q).map(pack))
}

impl Prepared {
    /// Normalize and tokenize `raw` into all derived views.
    pub fn new(raw: &str) -> Self {
        let normalized = tokenize::normalize(raw);
        let chars: Vec<char> = normalized.chars().collect();
        let mut tokens = Vec::new();
        let mut start = None;
        for (i, c) in chars.iter().enumerate() {
            match (c.is_whitespace(), start) {
                (true, Some(s)) => {
                    tokens.push((s, i));
                    start = None;
                }
                (false, None) => start = Some(i),
                _ => {}
            }
        }
        if let Some(s) = start {
            tokens.push((s, chars.len()));
        }
        let token = |k: usize| &chars[tokens[k].0..tokens[k].1];
        let mut order: Vec<usize> = (0..tokens.len()).collect();
        order.sort_by(|&x, &y| token(x).cmp(token(y)));
        let mut token_counts: Vec<(usize, u32)> = Vec::new();
        for k in order {
            match token_counts.last_mut() {
                Some((first, n)) if token(*first) == token(k) => *n += 1,
                _ => token_counts.push((k, 1)),
            }
        }
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
            normalized,
            chars,
            tokens,
            token_counts,
            soundex,
        }
    }

    /// True when the value is null/absent for matching purposes (empty after
    /// normalization). The paper scores such pairs 0 for every measure.
    pub fn is_missing(&self) -> bool {
        self.normalized.is_empty()
    }

    /// The normalized (lowercased, punctuation-stripped) string.
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// Characters of the normalized string.
    pub fn chars(&self) -> &[char] {
        &self.chars
    }

    /// The chars of each whitespace token, in order of appearance.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &[char]> + '_ {
        self.tokens.iter().map(|&(s, e)| &self.chars[s..e])
    }

    /// The chars of token `k`.
    pub(crate) fn token(&self, k: usize) -> &[char] {
        let (s, e) = self.tokens[k];
        &self.chars[s..e]
    }

    /// The chars of the first token (empty when there is none).
    pub(crate) fn first_token(&self) -> &[char] {
        self.tokens.first().map_or(&[], |&(s, e)| &self.chars[s..e])
    }

    /// The distinct tokens with counts; see the field.
    pub(crate) fn token_counts(&self) -> &[(usize, u32)] {
        &self.token_counts
    }

    /// Packed padded bigram multiset.
    pub(crate) fn bigrams(&self) -> &[(u64, u32)] {
        &self.bigrams
    }

    /// Packed padded trigram multiset.
    pub(crate) fn trigrams(&self) -> &[(u64, u32)] {
        &self.trigrams
    }

    /// Soundex code of the first token.
    pub(crate) fn soundex(&self) -> Option<&[char; 4]> {
        self.soundex.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::qgrams;

    #[test]
    fn derives_all_views() {
        let p = Prepared::new("Apple iPod apple");
        assert_eq!(p.normalized(), "apple ipod apple");
        assert_eq!(p.tokens().len(), 3);
        let counts: Vec<(String, u32)> = p
            .token_counts()
            .iter()
            .map(|&(k, n)| (p.token(k).iter().collect(), n))
            .collect();
        assert_eq!(counts, [("apple".to_owned(), 2), ("ipod".to_owned(), 1)]);
        // The packed grams are the string grams' multisets.
        for (q, packed) in [(2, p.bigrams()), (3, p.trigrams())] {
            let want = counted(
                qgrams(p.normalized(), q)
                    .iter()
                    .map(|g| pack(&g.chars().collect::<Vec<_>>())),
            );
            assert_eq!(packed, want.as_slice(), "q = {q}");
        }
        assert_eq!(p.soundex(), Some(&['A', '1', '4', '0']));
        assert!(!p.is_missing());
    }

    #[test]
    fn empty_is_missing() {
        assert!(Prepared::new("").is_missing());
        assert!(Prepared::new(" .,! ").is_missing());
    }
}
