//! [`Scratch`]: the reusable buffers of the similarity kernels.
//!
//! Every kernel that needs working memory borrows it from a caller-owned
//! `Scratch`, so scoring many value pairs with one `Scratch` allocates
//! only while the buffers grow to the longest inputs seen.

/// Working memory for the similarity kernels. Create one per thread and
/// reuse it across calls; its contents between calls are meaningless.
///
/// ```
/// use textsim::{Prepared, Scratch, SimilarityFunction};
/// let mut scratch = Scratch::default();
/// let (a, b) = (Prepared::new("apple ipod"), Prepared::new("apple ipod nano"));
/// let mut pair = scratch.pair(&a, &b);
/// let scores: Vec<f64> = SimilarityFunction::ALL.iter().map(|&f| pair.score(f)).collect();
/// assert_eq!(scores[0], SimilarityFunction::ALL[0].compute_prepared(&a, &b));
/// ```
#[derive(Debug, Default)]
pub struct Scratch {
    /// Rolling DP rows in whole units.
    pub(crate) rows: [Vec<u32>; 3],
    /// Rolling alignment rows in half units (scores, then Gotoh's
    /// vertical-gap row).
    pub(crate) half: [Vec<i32>; 2],
    /// Bit-parallel state words.
    pub(crate) words: [Vec<u64>; 2],
    /// Match masks of the current bit-parallel pattern.
    pub(crate) peq: Peq,
    /// Jaro's matched flags (left side, then right side), and
    /// generalized Jaccard's used-token flags.
    pub(crate) flags: [Vec<bool>; 2],
    /// Monge-Elkan's token-pair similarities, row-major.
    pub(crate) sims: Vec<f64>,
    /// Generalized Jaccard's candidate token pairs.
    pub(crate) pairs: Vec<(f64, u32, u32)>,
}

/// Match masks of a pattern for the bit-parallel kernels: in the row of
/// char `c`, bit `i % 64` of word `i / 64` is set where the pattern holds
/// `c` at position `i`. Row 0 is all zeros and stands for every char the
/// pattern does not hold.
#[derive(Debug)]
pub(crate) struct Peq {
    /// Words per row: `ceil(pattern length / 64)`.
    pub(crate) words: usize,
    /// Row of each ASCII char (0 when absent).
    ascii: [u32; 128],
    /// Rows of the other chars, sorted by char.
    other: Vec<(char, u32)>,
    /// The rows, `words` words each.
    masks: Vec<u64>,
}

impl Default for Peq {
    fn default() -> Self {
        Peq {
            words: 0,
            ascii: [0; 128],
            other: Vec::new(),
            masks: Vec::new(),
        }
    }
}

impl Peq {
    /// Replace the masks with those of `pattern`.
    pub(crate) fn build(&mut self, pattern: &[char]) {
        self.words = pattern.len().div_ceil(64);
        self.ascii = [0; 128];
        self.other.clear();
        self.masks.clear();
        self.masks.resize(self.words, 0);
        for (i, &c) in pattern.iter().enumerate() {
            let row = match self.row_index(c) {
                0 => self.add_row(c),
                r => r,
            };
            self.masks[row as usize * self.words + i / 64] |= 1 << (i % 64);
        }
    }

    /// The masks of `c`: `words` words.
    pub(crate) fn row(&self, c: char) -> &[u64] {
        let start = self.row_index(c) as usize * self.words;
        &self.masks[start..start + self.words]
    }

    fn row_index(&self, c: char) -> u32 {
        match self.ascii.get(c as usize) {
            Some(&row) => row,
            None => self
                .other
                .binary_search_by_key(&c, |&(k, _)| k)
                .map_or(0, |i| self.other[i].1),
        }
    }

    fn add_row(&mut self, c: char) -> u32 {
        let row = (self.masks.len() / self.words) as u32;
        self.masks.resize(self.masks.len() + self.words, 0);
        match self.ascii.get_mut(c as usize) {
            Some(slot) => *slot = row,
            None => {
                let at = self.other.partition_point(|&(k, _)| k < c);
                self.other.insert(at, (c, row));
            }
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_mark_every_position_across_words() {
        let pattern: Vec<char> = "aéa".chars().cycle().take(130).collect();
        let mut peq = Peq::default();
        peq.build(&pattern);
        assert_eq!(peq.words, 3);
        for c in ['a', 'é', 'z', 'ü'] {
            let row = peq.row(c);
            for (i, &p) in pattern.iter().enumerate() {
                assert_eq!(row[i / 64] >> (i % 64) & 1 == 1, p == c, "{c} at {i}");
            }
        }
        // A rebuild forgets the old pattern.
        peq.build(&['b']);
        assert_eq!(peq.row('a'), &[0]);
        assert_eq!(peq.row('b'), &[1]);
    }
}
