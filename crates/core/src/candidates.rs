//! The candidate-generation seam: [`CandidateSource`].
//!
//! Real entity matching starts from two raw tables, not a materialized
//! pair list. A `CandidateSource` is anything that can *stream* the
//! candidate pairs of an [`EmDataset`] — the index strategies of
//! `alem-block` (the paper's Jaccard token filter, a q-gram index,
//! sorted-neighborhood, minhash-LSH), or a replayed pair file. [`crate::corpus::Corpus`]
//! consumes the trait via `Corpus::from_candidates`, so the active-learning
//! layer never needs to know (or hold in one `Vec`) how candidates were
//! produced.
//!
//! The contract every implementation must honor:
//!
//! * **Deterministic** — the emitted pair sequence is a pure function of
//!   the source's configuration and the dataset. No ambient RNG, time, or
//!   hash-iteration order; thread counts may only change wall-clock time.
//! * **Chunked** — pairs arrive at the sink in consecutive chunks whose
//!   concatenation is the full candidate sequence; no chunk is empty.
//!   Chunk *boundaries* are unspecified (callers must not fingerprint
//!   them), only the concatenated sequence is.
//! * **Sorted and deduplicated** — the concatenated sequence is strictly
//!   increasing in `(left, right)`, with both indices in bounds.
//!
//! [`BlockingReport`] measures a source against a dataset's hidden ground
//! truth — blocking recall, reduction ratio, and *group-wise* recall (the
//! skew diagnostic of "Evaluating Blocking Biases in Entity Matching") —
//! in one streaming pass, without materializing the candidate set.

use crate::error::AlemError;
use crate::schema::{EmDataset, Pair};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Default chunk size sources should aim for when buffering emissions.
pub const DEFAULT_CHUNK: usize = 4096;

/// FNV-1a accumulator over a candidate-pair stream. Identical pair
/// sequences hash identically regardless of chunk boundaries or thread
/// count — the quantity `bench_blocking` diffs across `--threads`.
#[derive(Debug, Clone)]
pub struct PairHasher {
    h: u64,
    n: u64,
}

impl Default for PairHasher {
    fn default() -> Self {
        PairHasher::new()
    }
}

impl PairHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh accumulator.
    pub fn new() -> Self {
        PairHasher {
            h: Self::OFFSET,
            n: 0,
        }
    }

    /// Feed one pair.
    pub fn eat(&mut self, (l, r): Pair) {
        for byte in u64::from(l)
            .to_le_bytes()
            .into_iter()
            .chain(u64::from(r).to_le_bytes())
        {
            self.h ^= u64::from(byte);
            self.h = self.h.wrapping_mul(Self::PRIME);
        }
        self.n += 1;
    }

    /// Feed a chunk of pairs.
    pub fn eat_chunk(&mut self, pairs: &[Pair]) {
        for &p in pairs {
            self.eat(p);
        }
    }

    /// Number of pairs eaten so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Final fingerprint (also mixes in the pair count, so a truncated
    /// stream never collides with its prefix).
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        for byte in self.n.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(Self::PRIME);
        }
        h
    }
}

/// A deterministic, chunked producer of candidate record pairs.
///
/// See the [module docs](self) for the streaming contract. Implementors
/// provide [`describe`](CandidateSource::describe),
/// [`size_hint`](CandidateSource::size_hint) and
/// [`stream`](CandidateSource::stream); fingerprinting is derived, and
/// [`collect_validated`] collects a stream while checking its contract.
pub trait CandidateSource {
    /// Human-readable strategy label including its parameters, e.g.
    /// `"token-index(t=0.1875,attr=all,cap=none)"`. Used in reports and
    /// benchmarks.
    fn describe(&self) -> String;

    /// `(lower, upper)` bounds on the number of candidate pairs this
    /// source will emit for `ds`, before running it. `None` means no
    /// upper bound cheaper than streaming. Used to pre-size collectors.
    fn size_hint(&self, ds: &EmDataset) -> (usize, Option<usize>);

    /// Stream the candidate pairs of `ds` into `sink` in consecutive
    /// chunks. A sink error aborts the stream and is returned verbatim.
    fn stream(
        &self,
        ds: &EmDataset,
        sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
    ) -> Result<(), AlemError>;

    /// Fingerprint of the emitted pair sequence (chunk-boundary and
    /// thread-count invariant). Streams the source; does not materialize.
    fn fingerprint(&self, ds: &EmDataset) -> Result<u64, AlemError> {
        let mut hasher = PairHasher::new();
        self.stream(ds, &mut |chunk| {
            hasher.eat_chunk(chunk);
            Ok(())
        })?;
        Ok(hasher.finish())
    }
}

/// Collect a source's pairs while *verifying* the streaming contract:
/// strictly increasing `(left, right)` order (which implies deduplication)
/// and in-bounds indices. Returns `AlemError::InvalidConfig` naming the
/// source and the first offending pair otherwise. Property tests and the
/// corpus builds use this so a buggy source fails loudly instead of
/// corrupting fingerprints downstream.
pub fn collect_validated(
    source: &dyn CandidateSource,
    ds: &EmDataset,
) -> Result<Vec<Pair>, AlemError> {
    let (lower, _) = source.size_hint(ds);
    let mut out: Vec<Pair> = Vec::with_capacity(lower);
    let n_left = ds.left.len();
    let n_right = ds.right.len();
    let mut bad: Option<String> = None;
    source.stream(ds, &mut |chunk| {
        for &(l, r) in chunk {
            if l as usize >= n_left || r as usize >= n_right {
                bad = Some(format!("out-of-bounds pair ({l}, {r})"));
            } else if let Some(&last) = out.last() {
                if last >= (l, r) {
                    bad = Some(format!(
                        "unsorted or duplicate pair ({l}, {r}) after ({}, {})",
                        last.0, last.1
                    ));
                }
            }
            if let Some(why) = bad.take() {
                return Err(AlemError::InvalidConfig(format!(
                    "candidate source {} violated the streaming contract: {why}",
                    source.describe()
                )));
            }
            out.push((l, r));
        }
        Ok(())
    })?;
    Ok(out)
}

/// Recall of one group of true matches (grouped by an attribute of the
/// left record), the skew diagnostic of group-wise blocking evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRecall {
    /// Group key: the left record's attribute value (`"(missing)"` when
    /// null).
    pub group: String,
    /// True matches whose left record falls in this group.
    pub matches_total: usize,
    /// Of those, matches surviving candidate generation.
    pub matches_retained: usize,
    /// `matches_retained / matches_total`.
    pub recall: f64,
}

/// Quality report of one [`CandidateSource`] on one dataset: the blocking
/// metrics of "Evaluating Blocking Biases in Entity Matching" computed in
/// a single streaming pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingReport {
    /// [`CandidateSource::describe`] of the measured source.
    pub source: String,
    /// Candidate pairs emitted.
    pub candidates: u64,
    /// Size of the full Cartesian product.
    pub total_pairs: u64,
    /// `1 - candidates / total_pairs`: how much of the Cartesian product
    /// the source pruned away.
    pub reduction_ratio: f64,
    /// True matches in the dataset.
    pub matches_total: usize,
    /// True matches surviving candidate generation.
    pub matches_retained: usize,
    /// Blocking recall: `matches_retained / matches_total`.
    pub recall: f64,
    /// Per-group recall (groups keyed by a left-record attribute), sorted
    /// by group key. Empty when no grouping attribute was requested.
    pub group_recall: Vec<GroupRecall>,
    /// Fingerprint of the emitted pair sequence (see [`PairHasher`]).
    pub fingerprint: u64,
}

impl BlockingReport {
    /// Measure `source` against `ds` in one streaming pass. `group_attr`
    /// names a left-table schema attribute to bucket true matches by
    /// (e.g. `gender` on the social corpus); `None` skips group-wise
    /// recall. Memory stays `O(matches)` — the candidate set itself is
    /// never materialized.
    pub fn compute(
        source: &dyn CandidateSource,
        ds: &EmDataset,
        group_attr: Option<usize>,
    ) -> Result<Self, AlemError> {
        if let Some(a) = group_attr {
            if a >= ds.left.schema().len() {
                return Err(AlemError::InvalidConfig(format!(
                    "group attribute index {a} out of range for schema of arity {}",
                    ds.left.schema().len()
                )));
            }
        }
        let mut hasher = PairHasher::new();
        let mut retained: BTreeSet<Pair> = BTreeSet::new();
        source.stream(ds, &mut |chunk| {
            hasher.eat_chunk(chunk);
            for &p in chunk {
                if ds.is_match(p) {
                    retained.insert(p);
                }
            }
            Ok(())
        })?;

        let total_pairs = ds.total_pairs();
        let candidates = hasher.count();
        let matches_total = ds.matches.len();
        let matches_retained = retained.len();
        let recall = if matches_total == 0 {
            1.0
        } else {
            matches_retained as f64 / matches_total as f64
        };
        let reduction_ratio = if total_pairs == 0 {
            0.0
        } else {
            1.0 - candidates as f64 / total_pairs as f64
        };

        let mut group_recall = Vec::new();
        if let Some(attr) = group_attr {
            let mut groups: BTreeMap<String, (usize, usize)> = BTreeMap::new();
            for &m in &ds.matches {
                let key = ds
                    .left
                    .record(m.0 as usize)
                    .value(attr)
                    .unwrap_or("(missing)")
                    .to_owned();
                let entry = groups.entry(key).or_insert((0, 0));
                entry.0 += 1;
                if retained.contains(&m) {
                    entry.1 += 1;
                }
            }
            group_recall = groups
                .into_iter()
                .map(|(group, (total, kept))| GroupRecall {
                    group,
                    matches_total: total,
                    matches_retained: kept,
                    recall: if total == 0 {
                        1.0
                    } else {
                        kept as f64 / total as f64
                    },
                })
                .collect();
        }

        Ok(BlockingReport {
            source: source.describe(),
            candidates,
            total_pairs,
            reduction_ratio,
            matches_total,
            matches_retained,
            recall,
            group_recall,
            fingerprint: hasher.finish(),
        })
    }

    /// Smallest per-group recall minus the overall recall — a negative
    /// value means at least one group is blocked *worse* than average
    /// (the skew signal). `0.0` when no grouping was computed.
    pub fn worst_group_gap(&self) -> f64 {
        self.group_recall
            .iter()
            .map(|g| g.recall - self.recall)
            .fold(0.0, f64::min)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::{AttrKind, Record, Schema, Table};

    /// A source that replays a fixed pair list, contract or not, in
    /// fixed-size chunks.
    pub(crate) struct Fixed(pub(crate) Vec<Pair>, pub(crate) usize);

    impl CandidateSource for Fixed {
        fn describe(&self) -> String {
            format!("fixed({} pairs)", self.0.len())
        }
        fn size_hint(&self, _ds: &EmDataset) -> (usize, Option<usize>) {
            (self.0.len(), Some(self.0.len()))
        }
        fn stream(
            &self,
            _ds: &EmDataset,
            sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
        ) -> Result<(), AlemError> {
            for chunk in self.0.chunks(self.1.max(1)) {
                sink(chunk)?;
            }
            Ok(())
        }
    }

    /// Three left and four right records over two text attributes;
    /// `(i, i)` matches for `i < 3`.
    pub(crate) fn dataset() -> EmDataset {
        let schema = Schema::new(vec![("name", AttrKind::Text), ("group", AttrKind::Text)]);
        let rec = |n: &str, g: &str| Record::new(vec![Some(n.into()), Some(g.into())]);
        EmDataset {
            left: Table::new(
                "l",
                schema.clone(),
                vec![rec("a", "x"), rec("b", "x"), rec("c", "y")],
            ),
            right: Table::new(
                "r",
                schema,
                vec![rec("a", "x"), rec("b", "x"), rec("c", "y"), rec("d", "y")],
            ),
            matches: [(0, 0), (1, 1), (2, 2)].into_iter().collect(),
            name: "toy".into(),
        }
    }

    #[test]
    fn fingerprint_is_chunk_boundary_invariant() {
        let ds = dataset();
        let pairs = vec![(0, 0), (0, 1), (1, 1), (2, 3)];
        let a = Fixed(pairs.clone(), 1).fingerprint(&ds).unwrap();
        let b = Fixed(pairs.clone(), 3).fingerprint(&ds).unwrap();
        let c = Fixed(pairs, 64).fingerprint(&ds).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn fingerprint_distinguishes_prefix_from_full_stream() {
        let ds = dataset();
        let full = Fixed(vec![(0, 0), (1, 1)], 8).fingerprint(&ds).unwrap();
        let prefix = Fixed(vec![(0, 0)], 8).fingerprint(&ds).unwrap();
        assert_ne!(full, prefix);
    }

    #[test]
    fn report_metrics() {
        let ds = dataset();
        // Retains matches (0,0) and (1,1) but loses (2,2): recall 2/3.
        let src = Fixed(vec![(0, 0), (0, 3), (1, 1)], 2);
        let rep = BlockingReport::compute(&src, &ds, Some(1)).unwrap();
        assert_eq!(rep.candidates, 3);
        assert_eq!(rep.total_pairs, 12);
        assert_eq!(rep.matches_total, 3);
        assert_eq!(rep.matches_retained, 2);
        assert!((rep.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((rep.reduction_ratio - (1.0 - 3.0 / 12.0)).abs() < 1e-12);
        // Group x keeps both its matches; group y loses its only one.
        assert_eq!(rep.group_recall.len(), 2);
        assert_eq!(rep.group_recall[0].group, "x");
        assert_eq!(rep.group_recall[0].recall, 1.0);
        assert_eq!(rep.group_recall[1].group, "y");
        assert_eq!(rep.group_recall[1].recall, 0.0);
        assert!((rep.worst_group_gap() - (0.0 - rep.recall)).abs() < 1e-12);
    }

    #[test]
    fn report_rejects_bad_group_attr() {
        let ds = dataset();
        let src = Fixed(vec![(0, 0)], 2);
        assert!(BlockingReport::compute(&src, &ds, Some(9)).is_err());
    }

    #[test]
    fn collect_validated_accepts_sorted_and_rejects_violations() {
        let ds = dataset();
        let ok = Fixed(vec![(0, 0), (0, 1), (2, 3)], 2);
        assert_eq!(
            collect_validated(&ok, &ds).unwrap(),
            vec![(0, 0), (0, 1), (2, 3)]
        );

        let dup = Fixed(vec![(0, 0), (0, 0)], 2);
        assert!(collect_validated(&dup, &ds).is_err());

        let unsorted = Fixed(vec![(1, 0), (0, 0)], 2);
        assert!(collect_validated(&unsorted, &ds).is_err());

        let oob = Fixed(vec![(0, 17)], 2);
        assert!(collect_validated(&oob, &ds).is_err());
    }
}
