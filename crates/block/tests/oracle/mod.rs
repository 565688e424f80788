//! The reference the token index is checked against: the paper's §6
//! Jaccard filter as a plain sequential probe. One inverted index over
//! the right table's tokens; each left record, in order, counts its
//! token overlap with every right record it shares a token with and
//! keeps the pairs whose token-set Jaccard reaches the threshold.

use alem_core::schema::{EmDataset, Pair, Table};
use std::collections::BTreeMap;

/// Sorted, deduplicated tokens of two or more characters over all
/// attribute values of a record.
fn record_tokens(table: &Table, idx: usize) -> Vec<String> {
    let mut toks: Vec<String> = Vec::new();
    for v in table.record(idx).values().iter().flatten() {
        let norm = textsim::tokenize::normalize(v);
        toks.extend(
            textsim::tokenize::tokens(&norm)
                .into_iter()
                .filter(|t| t.chars().count() >= 2),
        );
    }
    toks.sort_unstable();
    toks.dedup();
    toks
}

/// Every pair of `ds` whose record-level token Jaccard is at least
/// `threshold`, sorted by `(left, right)`.
pub fn jaccard_pairs(ds: &EmDataset, threshold: f64) -> Vec<Pair> {
    let mut postings: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut token_count = Vec::with_capacity(ds.right.len());
    for r in 0..ds.right.len() {
        let toks = record_tokens(&ds.right, r);
        token_count.push(toks.len());
        for t in toks {
            postings.entry(t).or_default().push(r);
        }
    }
    let mut pairs = Vec::new();
    let mut overlap = vec![0usize; ds.right.len()];
    let mut touched: Vec<usize> = Vec::new();
    for l in 0..ds.left.len() {
        let ltoks = record_tokens(&ds.left, l);
        for rs in ltoks.iter().filter_map(|t| postings.get(t)) {
            for &r in rs {
                if overlap[r] == 0 {
                    touched.push(r);
                }
                overlap[r] += 1;
            }
        }
        touched.sort_unstable();
        for &r in &touched {
            let inter = overlap[r];
            overlap[r] = 0;
            let union = ltoks.len() + token_count[r] - inter;
            if inter as f64 / union as f64 >= threshold {
                pairs.push((l as u32, r as u32));
            }
        }
        touched.clear();
    }
    pairs
}
