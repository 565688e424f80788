//! Minhash-LSH blocking: seeded minhash signatures over record token
//! sets, banded so that a collision in any band makes a candidate pair.

use crate::{attr_label, record_tokens};
use alem_core::candidates::{CandidateSource, DEFAULT_CHUNK};
use alem_core::error::AlemError;
use alem_core::schema::{EmDataset, Pair, Table};
use alem_obs::Registry;
use alem_par::Parallelism;
use std::collections::BTreeMap;

/// 64-bit finalizer (splitmix64): bijective, avalanching — one
/// evaluation per token per hash function.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string — the stable base hash of a token.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Minhash-LSH blocking.
///
/// Each record's token set is summarized by `bands × rows` minhash
/// values (seeded, data-independent hash family — fully deterministic);
/// the signature is cut into `bands` bands of `rows` values, and two
/// records collide when any band hashes identically. The standard LSH
/// S-curve applies: more rows per band → precision, more bands →
/// recall. Buckets larger than `max_bucket` on either side are skipped
/// (they pair everything with everything and carry no signal).
///
/// ```
/// use alem_block::{CandidateSource, MinHashLsh};
/// let src = MinHashLsh::builder().bands(8).rows(2).seed(7).build();
/// assert!(src.describe().starts_with("minhash-lsh"));
/// ```
#[derive(Clone)]
pub struct MinHashLsh {
    bands: usize,
    rows: usize,
    seed: u64,
    attr: Option<usize>,
    max_bucket: usize,
    par: Parallelism,
    obs: Registry,
}

/// Builder for [`MinHashLsh`]; start from [`MinHashLsh::builder`].
#[derive(Clone)]
pub struct MinHashLshBuilder {
    inner: MinHashLsh,
}

impl MinHashLshBuilder {
    /// Number of bands (default 8; minimum 1).
    pub fn bands(mut self, b: usize) -> Self {
        self.inner.bands = b.max(1);
        self
    }

    /// Minhash values per band (default 2; minimum 1).
    pub fn rows(mut self, r: usize) -> Self {
        self.inner.rows = r.max(1);
        self
    }

    /// Seed of the hash family (default 0). Different seeds give
    /// different — equally valid — candidate sets.
    pub fn seed(mut self, s: u64) -> Self {
        self.inner.seed = s;
        self
    }

    /// Hash only this attribute index instead of all attributes.
    pub fn attr(mut self, attr: usize) -> Self {
        self.inner.attr = Some(attr);
        self
    }

    /// Skip band buckets holding more than `cap` records on either side
    /// (default 1024).
    pub fn max_bucket(mut self, cap: usize) -> Self {
        self.inner.max_bucket = cap.max(1);
        self
    }

    /// Thread configuration for signature computation (default: auto).
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
    pub fn build(self) -> MinHashLsh {
        self.inner
    }
}

impl MinHashLsh {
    /// Start a builder: 8 bands × 2 rows, seed 0, all attributes,
    /// bucket cap 1024.
    pub fn builder() -> MinHashLshBuilder {
        MinHashLshBuilder {
            inner: MinHashLsh {
                bands: 8,
                rows: 2,
                seed: 0,
                attr: None,
                max_bucket: 1024,
                par: Parallelism::auto(),
                obs: Registry::disabled(),
            },
        }
    }

    /// Minhash signature of one record, `None` when it has no tokens
    /// (empty records collide with everything and must not hash).
    fn signature(&self, table: &Table, idx: usize) -> Option<Vec<u64>> {
        let toks = record_tokens(table, idx, self.attr);
        if toks.is_empty() {
            return None;
        }
        let k = self.bands * self.rows;
        let base: Vec<u64> = toks.iter().map(|t| fnv1a(t.as_bytes())).collect();
        let mut sig = Vec::with_capacity(k);
        for i in 0..k {
            let salt = mix64(self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let m = base
                .iter()
                .map(|&h| mix64(h ^ salt))
                .min()
                .unwrap_or(u64::MAX);
            sig.push(m);
        }
        Some(sig)
    }

    /// Hash one band of a signature into a bucket key, salted by the
    /// band index so identical value runs in different bands don't
    /// collide.
    fn band_key(band: usize, values: &[u64]) -> u64 {
        let mut h = mix64(0x42 ^ band as u64);
        for &v in values {
            h = mix64(h ^ v);
        }
        h
    }
}

impl CandidateSource for MinHashLsh {
    fn describe(&self) -> String {
        format!(
            "minhash-lsh(bands={},rows={},seed={},{},bucket<={})",
            self.bands,
            self.rows,
            self.seed,
            attr_label(self.attr),
            self.max_bucket
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
        let span = self.obs.span("block.signatures");
        let left_ids: Vec<u32> = (0..ds.left.len() as u32).collect();
        let right_ids: Vec<u32> = (0..ds.right.len() as u32).collect();
        let left_sigs: Vec<Option<Vec<u64>>> = self
            .par
            .map(&left_ids, |&i| self.signature(&ds.left, i as usize));
        let right_sigs: Vec<Option<Vec<u64>>> = self
            .par
            .map(&right_ids, |&i| self.signature(&ds.right, i as usize));
        span.finish();

        let span = self.obs.span("block.banding");
        let mut pairs: Vec<Pair> = Vec::new();
        let mut skipped_buckets = 0u64;
        for band in 0..self.bands {
            let lo = band * self.rows;
            let hi = lo + self.rows;
            // Bucket key → (left ids, right ids), ascending by
            // construction: ids are pushed in id order.
            let mut buckets: BTreeMap<u64, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
            for (i, sig) in left_sigs.iter().enumerate() {
                if let Some(sig) = sig {
                    let key = Self::band_key(band, &sig[lo..hi]);
                    buckets.entry(key).or_default().0.push(i as u32);
                }
            }
            for (i, sig) in right_sigs.iter().enumerate() {
                if let Some(sig) = sig {
                    let key = Self::band_key(band, &sig[lo..hi]);
                    buckets.entry(key).or_default().1.push(i as u32);
                }
            }
            for (_, (ls, rs)) in buckets {
                if ls.is_empty() || rs.is_empty() {
                    continue;
                }
                if ls.len() > self.max_bucket || rs.len() > self.max_bucket {
                    skipped_buckets += 1;
                    continue;
                }
                for &l in &ls {
                    for &r in &rs {
                        pairs.push((l, r));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        span.finish();
        self.obs
            .counter_add("block.buckets_skipped", skipped_buckets);
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
            left: table(
                "l",
                &["apple ipod nano 4gb silver", "sony walkman mp3 player"],
            ),
            right: table(
                "r",
                &["apple ipod nano 4gb silver", "completely different thing"],
            ),
            matches: [(0, 0)].into_iter().collect(),
            name: "toy".into(),
        }
    }

    #[test]
    fn identical_records_always_collide() {
        let ds = dataset();
        let pairs =
            collect_validated(&MinHashLsh::builder().bands(4).rows(2).build(), &ds).unwrap();
        // Identical token sets hash identically in every band.
        assert!(pairs.contains(&(0, 0)));
    }

    #[test]
    fn seed_changes_candidates_deterministically() {
        let ds = dataset();
        let a = MinHashLsh::builder().seed(1).build();
        let b = MinHashLsh::builder().seed(1).build();
        assert_eq!(a.fingerprint(&ds).unwrap(), b.fingerprint(&ds).unwrap());
    }

    #[test]
    fn thread_count_does_not_change_stream() {
        let ds = dataset();
        let fp1 = MinHashLsh::builder()
            .parallelism(Parallelism::sequential())
            .build()
            .fingerprint(&ds)
            .unwrap();
        let fp4 = MinHashLsh::builder()
            .parallelism(Parallelism::fixed(4))
            .build()
            .fingerprint(&ds)
            .unwrap();
        assert_eq!(fp1, fp4);
    }

    #[test]
    fn empty_records_never_pair() {
        let mut ds = dataset();
        ds.left = table("l", &["", "sony walkman"]);
        let pairs = collect_validated(&MinHashLsh::builder().build(), &ds).unwrap();
        assert!(pairs.iter().all(|&(l, _)| l != 0));
    }
}
