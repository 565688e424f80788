//! Sorted-neighborhood blocking: both tables merged into one key-sorted
//! sequence, candidate pairs drawn from a sliding window.

use crate::{attr_label, record_text};
use alem_core::candidates::{CandidateSource, DEFAULT_CHUNK};
use alem_core::error::AlemError;
use alem_core::schema::{EmDataset, Pair};
use alem_obs::Registry;
use alem_par::{chunks, Parallelism};

/// Classic sorted-neighborhood blocking (Hernández & Stolfo).
///
/// Every record of both tables is given a sort key (the normalized
/// concatenation of the selected attributes); the merged sequence is
/// sorted by `(key, side, id)` and every left/right pair within a
/// sliding window of `window` consecutive entries becomes a candidate.
/// Cost is `O(n log n + n·window)` — linear in the data for a fixed
/// window, independent of any similarity threshold, which makes it the
/// strategy of choice when index-based probing degenerates on skewed
/// vocabularies.
///
/// ```
/// use alem_block::{CandidateSource, SortedNeighborhood};
/// let src = SortedNeighborhood::builder().window(10).build();
/// assert!(src.describe().starts_with("sorted-neighborhood"));
/// ```
#[derive(Clone)]
pub struct SortedNeighborhood {
    window: usize,
    attr: Option<usize>,
    par: Parallelism,
    obs: Registry,
}

/// Builder for [`SortedNeighborhood`]; start from
/// [`SortedNeighborhood::builder`].
#[derive(Clone)]
pub struct SortedNeighborhoodBuilder {
    inner: SortedNeighborhood,
}

impl SortedNeighborhoodBuilder {
    /// Window width in merged-sequence entries (default 10; minimum 2).
    pub fn window(mut self, w: usize) -> Self {
        self.inner.window = w.max(2);
        self
    }

    /// Sort on this attribute index only instead of all attributes.
    pub fn attr(mut self, attr: usize) -> Self {
        self.inner.attr = Some(attr);
        self
    }

    /// Thread configuration for key extraction and window scan
    /// (default: auto).
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
    pub fn build(self) -> SortedNeighborhood {
        self.inner
    }
}

impl SortedNeighborhood {
    /// Start a builder: window 10, all attributes as the sort key.
    pub fn builder() -> SortedNeighborhoodBuilder {
        SortedNeighborhoodBuilder {
            inner: SortedNeighborhood {
                window: 10,
                attr: None,
                par: Parallelism::auto(),
                obs: Registry::disabled(),
            },
        }
    }
}

/// One entry of the merged sequence: sort key, side (0 = left,
/// 1 = right), record id. Side breaks key ties deterministically.
type Entry = (String, u8, u32);

impl CandidateSource for SortedNeighborhood {
    fn describe(&self) -> String {
        format!(
            "sorted-neighborhood(w={},{})",
            self.window,
            attr_label(self.attr)
        )
    }

    fn size_hint(&self, ds: &EmDataset) -> (usize, Option<usize>) {
        // Each merged entry pairs with at most `window - 1` neighbors.
        let n = ds.left.len() + ds.right.len();
        (0, n.checked_mul(self.window.saturating_sub(1)))
    }

    fn stream(
        &self,
        ds: &EmDataset,
        sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
    ) -> Result<(), AlemError> {
        let attr = self.attr;
        let span = self.obs.span("block.sort_keys");
        let left_ids: Vec<u32> = (0..ds.left.len() as u32).collect();
        let right_ids: Vec<u32> = (0..ds.right.len() as u32).collect();
        let mut entries: Vec<Entry> = self
            .par
            .map(&left_ids, |&i| {
                (record_text(&ds.left, i as usize, attr), 0u8, i)
            })
            .into_iter()
            .chain(self.par.map(&right_ids, |&i| {
                (record_text(&ds.right, i as usize, attr), 1u8, i)
            }))
            .collect();
        entries.sort_unstable();
        span.finish();

        let span = self.obs.span("block.window_scan");
        let n = entries.len();
        let w = self.window;
        let ranges = chunks(n, self.par.threads());
        let parts: Vec<Vec<Pair>> = self.par.map(&ranges, |range| {
            let mut out = Vec::new();
            for i in range.clone() {
                let (side_i, id_i) = (entries[i].1, entries[i].2);
                let hi = (i + w).min(n);
                for entry in &entries[i + 1..hi] {
                    let (side_j, id_j) = (entry.1, entry.2);
                    if side_i != side_j {
                        let (l, r) = if side_i == 0 {
                            (id_i, id_j)
                        } else {
                            (id_j, id_i)
                        };
                        out.push((l, r));
                    }
                }
            }
            out
        });
        let mut pairs: Vec<Pair> = parts.into_iter().flatten().collect();
        pairs.sort_unstable();
        pairs.dedup();
        span.finish();
        self.obs
            .counter_add("block.pairs_emitted", pairs.len() as u64);

        for chunk in pairs.chunks(DEFAULT_CHUNK) {
            sink(chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_validated;
    use alem_core::schema::{AttrKind, Record, Schema, Table};

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
            left: table("l", &["anna schmidt", "karl weber", "zoe young"]),
            right: table("r", &["anna schmit", "karl webber", "max muster"]),
            matches: [(0, 0), (1, 1)].into_iter().collect(),
            name: "toy".into(),
        }
    }

    #[test]
    fn window_pairs_adjacent_keys() {
        let ds = dataset();
        let pairs =
            collect_validated(&SortedNeighborhood::builder().window(2).build(), &ds).unwrap();
        // "anna schmidt"/"anna schmit" and "karl weber"/"karl webber"
        // sort adjacently.
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
    }

    #[test]
    fn wider_window_is_superset() {
        let ds = dataset();
        let narrow =
            collect_validated(&SortedNeighborhood::builder().window(2).build(), &ds).unwrap();
        let wide =
            collect_validated(&SortedNeighborhood::builder().window(4).build(), &ds).unwrap();
        assert!(narrow.iter().all(|p| wide.contains(p)));
        assert!(wide.len() >= narrow.len());
    }

    #[test]
    fn full_window_is_cartesian_product() {
        let ds = dataset();
        let all = collect_validated(&SortedNeighborhood::builder().window(6).build(), &ds).unwrap();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn thread_count_does_not_change_stream() {
        let ds = dataset();
        let fp1 = SortedNeighborhood::builder()
            .window(3)
            .parallelism(Parallelism::sequential())
            .build()
            .fingerprint(&ds)
            .unwrap();
        let fp4 = SortedNeighborhood::builder()
            .window(3)
            .parallelism(Parallelism::fixed(4))
            .build()
            .fingerprint(&ds)
            .unwrap();
        assert_eq!(fp1, fp4);
    }
}
