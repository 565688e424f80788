//! Character q-gram inverted-index blocking: keep a pair when the two
//! records share at least `min_shared` distinct q-grams. Robust to
//! typos and token-boundary noise that break whole-token overlap.

use crate::index::InvertedIndex;
use crate::token::DEFAULT_PROBE_BLOCK;
use crate::{attr_label, record_text};
use alem_core::candidates::CandidateSource;
use alem_core::error::AlemError;
use alem_core::schema::{EmDataset, Pair, Table};
use alem_obs::Registry;
use alem_par::Parallelism;

/// Distinct, sorted q-grams of a record's normalized text.
fn record_qgrams(table: &Table, idx: usize, attr: Option<usize>, q: usize) -> Vec<String> {
    let text = record_text(table, idx, attr);
    let mut grams = textsim::tokenize::qgrams(&text, q);
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// Q-gram inverted-index blocking.
///
/// Records are normalized, concatenated, and split into overlapping
/// character q-grams; a pair survives when the two records share at
/// least `min_shared` *distinct* grams. Because a single typo destroys
/// at most `q` grams, near-duplicates keep passing where token-level
/// Jaccard would drop to zero.
///
/// Frequent grams (posting list longer than `max_postings`) are skipped
/// during indexing — on natural text the gram distribution is heavily
/// skewed and the cap is what keeps probing near-linear.
///
/// ```
/// use alem_block::{CandidateSource, QGramIndex};
/// let src = QGramIndex::builder().q(3).min_shared(4).build();
/// assert!(src.describe().starts_with("qgram-index"));
/// ```
#[derive(Clone)]
pub struct QGramIndex {
    q: usize,
    min_shared: u32,
    attr: Option<usize>,
    max_postings: usize,
    probe_block: usize,
    par: Parallelism,
    obs: Registry,
}

/// Builder for [`QGramIndex`]; start from [`QGramIndex::builder`].
#[derive(Clone)]
pub struct QGramIndexBuilder {
    inner: QGramIndex,
}

impl QGramIndexBuilder {
    /// Gram length (default 3).
    pub fn q(mut self, q: usize) -> Self {
        self.inner.q = q.max(1);
        self
    }

    /// Minimum shared distinct grams for a pair to survive (default 4).
    pub fn min_shared(mut self, n: u32) -> Self {
        self.inner.min_shared = n.max(1);
        self
    }

    /// Gram only this attribute index instead of all attributes.
    pub fn attr(mut self, attr: usize) -> Self {
        self.inner.attr = Some(attr);
        self
    }

    /// Skip grams whose posting list exceeds `cap` right records
    /// (default 4096).
    pub fn max_postings(mut self, cap: usize) -> Self {
        self.inner.max_postings = cap;
        self
    }

    /// Left records probed per parallel round (default 8192).
    pub fn probe_block(mut self, n: usize) -> Self {
        self.inner.probe_block = n;
        self
    }

    /// Thread configuration for index build and probe (default: auto).
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.inner.par = par;
        self
    }

    /// Observability registry for `block.*` spans and counters
    /// (default: disabled).
    pub fn obs(mut self, obs: Registry) -> Self {
        self.inner.obs = obs;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> QGramIndex {
        self.inner
    }
}

impl QGramIndex {
    /// Start a builder: trigrams, 4 shared grams, all attributes,
    /// posting cap 4096.
    pub fn builder() -> QGramIndexBuilder {
        QGramIndexBuilder {
            inner: QGramIndex {
                q: 3,
                min_shared: 4,
                attr: None,
                max_postings: 4096,
                probe_block: DEFAULT_PROBE_BLOCK,
                par: Parallelism::auto(),
                obs: Registry::disabled(),
            },
        }
    }
}

impl CandidateSource for QGramIndex {
    fn describe(&self) -> String {
        format!(
            "qgram-index(q={},shared>={},{},cap={})",
            self.q,
            self.min_shared,
            attr_label(self.attr),
            self.max_postings
        )
    }

    fn size_hint(&self, ds: &EmDataset) -> (usize, Option<usize>) {
        (0, usize::try_from(ds.total_pairs()).ok())
    }

    fn stream(
        &self,
        ds: &EmDataset,
        sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
    ) -> Result<(), AlemError> {
        let (attr, q) = (self.attr, self.q);
        let keys = move |t: &Table, i: usize| record_qgrams(t, i, attr, q);
        let span = self.obs.span("block.index_build");
        let index = InvertedIndex::build(&ds.right, &keys, &self.par, self.max_postings);
        span.finish();
        self.obs
            .counter_add("block.index_keys", index.keys_indexed() as u64);
        self.obs
            .counter_add("block.index_keys_skipped", index.keys_skipped());
        let min_shared = self.min_shared;
        let accept = move |inter: u32, _lk: usize, _rk: u32| inter >= min_shared;
        index.probe_stream(
            &ds.left,
            &keys,
            &accept,
            &self.par,
            self.probe_block,
            &self.obs,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_validated;
    use alem_core::schema::{AttrKind, Record, Schema};

    fn table(name: &str, vals: &[&str]) -> Table {
        let schema = Schema::new(vec![("name", AttrKind::Text)]);
        let records = vals
            .iter()
            .map(|v| Record::new(vec![Some((*v).to_owned())]))
            .collect();
        Table::new(name, schema, records)
    }

    fn dataset() -> EmDataset {
        EmDataset {
            // "walkmann" is a typo of "walkman": zero token overlap,
            // plenty of shared trigrams.
            left: table("l", &["sony walkmann", "dell laptop"]),
            right: table("r", &["sony walkman mp3", "hp printer"]),
            matches: [(0, 0)].into_iter().collect(),
            name: "toy".into(),
        }
    }

    #[test]
    fn survives_typos_that_break_tokens() {
        let ds = dataset();
        let pairs =
            collect_validated(&QGramIndex::builder().q(3).min_shared(4).build(), &ds).unwrap();
        assert!(pairs.contains(&(0, 0)));
        assert!(!pairs.contains(&(1, 1)));
    }

    #[test]
    fn min_shared_monotone() {
        let ds = dataset();
        let loose = collect_validated(&QGramIndex::builder().min_shared(2).build(), &ds).unwrap();
        let tight = collect_validated(&QGramIndex::builder().min_shared(8).build(), &ds).unwrap();
        assert!(tight.iter().all(|p| loose.contains(p)));
    }

    #[test]
    fn thread_count_does_not_change_stream() {
        let ds = dataset();
        let fp1 = QGramIndex::builder()
            .parallelism(Parallelism::sequential())
            .build()
            .fingerprint(&ds)
            .unwrap();
        let fp4 = QGramIndex::builder()
            .parallelism(Parallelism::fixed(4))
            .probe_block(1)
            .build()
            .fingerprint(&ds)
            .unwrap();
        assert_eq!(fp1, fp4);
    }
}
