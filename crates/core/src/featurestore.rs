//! Flat, cache-friendly feature storage with per-pair memoization.
//!
//! [`FeatureStore`] is the one place in the workspace allowed to hold a
//! feature matrix. It has two backings behind one accessor surface:
//!
//! * **Eager** — a single contiguous `Vec<f64>` in row-major order with a
//!   fixed `dim` stride. One allocation for the whole corpus instead of
//!   one per pair, and row reads are a pure slice into hot memory.
//! * **Lazy** — rows materialize on first access from a shared
//!   [`FeatureExtractor`] and are memoized per pair for the lifetime of
//!   the store. Features are immutable per pair, so nothing is ever
//!   extracted twice; the memo survives across AL iterations.
//!
//! Both backings sanitize non-finite similarity outputs to `0.0` with the
//! exact rule the eager pipeline has always used, so a lazily materialized
//! row is bit-identical to its eager counterpart. Cache traffic is counted
//! in relaxed atomics (`cache_hits`/`cache_misses`) which the session
//! layer surfaces as `feat.cache_hits`/`feat.cache_misses` telemetry.
//!
//! [`FeatureStore::read_dims`] is the one partial read: it hands a
//! caller chosen cells of a row (from the memoized row if present, else
//! from a per-row partial-cell memo it fills on demand) without forcing
//! full-row materialization. Phase 1 of the staged margin scan runs
//! entirely on it, under both of its skip rules (DESIGN §12).

use crate::error::AlemError;
use crate::features::FeatureExtractor;
use crate::schema::Pair;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Replace NaN/±∞ with 0.0 in place, returning how many values changed.
/// Broken similarity functions (divide-by-zero on empty strings, overflow
/// on pathological inputs) must not poison a whole training run.
fn sanitize_row(row: &mut [f64]) -> u64 {
    let mut fixed = 0;
    for v in row.iter_mut() {
        if !v.is_finite() {
            *v = 0.0;
            fixed += 1;
        }
    }
    fixed
}

enum Backing {
    /// Row-major flat matrix: row `i` lives at `flat[i*dim .. (i+1)*dim]`.
    Eager { flat: Vec<f64> },
    /// Memoized on-demand extraction; `rows[i]` fills on first access.
    Lazy {
        fx: Arc<FeatureExtractor>,
        pairs: Arc<Vec<Pair>>,
        rows: Vec<OnceLock<Box<[f64]>>>,
        /// Per-(row, dim) memo for partial reads on rows that have never
        /// been fully materialized. A cell holds the sanitized feature's
        /// bit pattern, or [`PARTIAL_EMPTY`] while unset; the per-row
        /// array allocates on that row's first partial read. Races are
        /// benign: every writer stores the same deterministic bits.
        partials: Vec<OnceLock<Box<[AtomicU64]>>>,
    },
}

/// Sentinel bit pattern marking an unfilled partial cell. Stored values
/// are always sanitized to finite floats, so a NaN pattern cannot collide.
const PARTIAL_EMPTY: u64 = 0x7ff8_0000_0000_0000; // f64::NAN bits

/// Flat SoA feature matrix with a per-pair memoization cache.
///
/// See the [module docs](self) for the eager/lazy contract.
pub struct FeatureStore {
    backing: Backing,
    len: usize,
    dim: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    sanitized: AtomicU64,
}

impl FeatureStore {
    /// Build an eager store over a row-major matrix of `len` rows of
    /// `dim` values each (row `i` at `flat[i * dim..(i + 1) * dim]`),
    /// sanitizing non-finite values in place. The buffer becomes the
    /// store; nothing is copied. Fails with [`AlemError::InvalidConfig`]
    /// when `flat` does not hold `len * dim` values.
    pub fn from_flat(mut flat: Vec<f64>, len: usize, dim: usize) -> Result<Self, AlemError> {
        if len.checked_mul(dim) != Some(flat.len()) {
            return Err(AlemError::InvalidConfig(format!(
                "a flat matrix of {} values is not {len} rows × {dim} dims",
                flat.len()
            )));
        }
        let sanitized = sanitize_row(&mut flat);
        Ok(FeatureStore {
            backing: Backing::Eager { flat },
            len,
            dim,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sanitized: AtomicU64::new(sanitized),
        })
    }

    /// Build a lazy store over `pairs`, shared with the corpus that owns
    /// them: no row is extracted until first accessed, and each
    /// materialized row is memoized for the store's lifetime.
    pub fn lazy(fx: Arc<FeatureExtractor>, pairs: Arc<Vec<Pair>>) -> Self {
        let len = pairs.len();
        let dim = fx.space().dim();
        let rows = (0..len).map(|_| OnceLock::new()).collect();
        let partials = (0..len).map(|_| OnceLock::new()).collect();
        FeatureStore {
            backing: Backing::Lazy {
                fx,
                pairs,
                rows,
                partials,
            },
            len,
            dim,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sanitized: AtomicU64::new(0),
        }
    }

    /// Number of rows (pairs).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row stride: the continuous feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True for the memoized on-demand backing.
    pub fn is_lazy(&self) -> bool {
        matches!(self.backing, Backing::Lazy { .. })
    }

    /// Full feature row of pair `i`, materializing (and memoizing) it on
    /// the lazy backing. Exactly one cache miss is counted per row per
    /// store lifetime; every later access is a hit.
    ///
    /// Materialization reuses every partial cell already memoized by
    /// [`FeatureStore::read_dims`] and computes only the missing dims, so
    /// phase-1 work is never paid twice when a pair later survives into
    /// phase 2. Cells hold sanitized values, so the assembled row is
    /// bit-identical to a from-scratch extraction.
    pub fn row(&self, i: usize) -> &[f64] {
        match &self.backing {
            Backing::Eager { flat } => &flat[i * self.dim..(i + 1) * self.dim],
            Backing::Lazy {
                fx,
                pairs,
                rows,
                partials,
            } => {
                let mut fresh = false;
                let row = rows[i].get_or_init(|| {
                    fresh = true;
                    match partials[i].get() {
                        Some(cells) => {
                            let mut v = vec![0.0f64; self.dim].into_boxed_slice();
                            let mut missing: Vec<usize> = Vec::new();
                            for (d, out) in v.iter_mut().enumerate() {
                                // alem-lint: allow(determinism-taint) -- write-once cell; racing writers store the identical deterministic value
                                let bits = cells[d].load(Ordering::Relaxed);
                                if bits != PARTIAL_EMPTY {
                                    *out = f64::from_bits(bits);
                                } else {
                                    missing.push(d);
                                }
                            }
                            fx.compute_dims_with(pairs[i], &missing, |d, raw| {
                                v[d] = if raw.is_finite() {
                                    raw
                                } else {
                                    self.sanitized.fetch_add(1, Ordering::Relaxed);
                                    0.0
                                };
                            });
                            v
                        }
                        None => {
                            let mut v = fx.extract_pair(pairs[i]).into_boxed_slice();
                            let fixed = sanitize_row(&mut v);
                            if fixed > 0 {
                                self.sanitized.fetch_add(fixed, Ordering::Relaxed);
                            }
                            v
                        }
                    }
                });
                if fresh {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                row
            }
        }
    }

    /// Cells `dims` of row `i`, handed to `visit` as `(dim, value)` in
    /// `dims` order, *without* forcing materialization: a memoized row
    /// is read in place; otherwise the row's partial-cell plane serves
    /// the cells, and the ones not yet filled are computed in one
    /// [`FeatureExtractor::compute_dims_with`] call (sanitized with the
    /// same non-finite → 0.0 rule) and memoized. A cell is computed at
    /// most once per store lifetime, so recurring phase-1 scans cost
    /// cache lookups after the first round, and every backing hands out
    /// the same bits, so a caller's sum in `dims` order is the same on
    /// all of them. Does not touch the hit/miss counters: partial reads
    /// are phase-1 traffic, accounted by the selector's counters.
    pub fn read_dims(&self, i: usize, dims: &[usize], mut visit: impl FnMut(usize, f64)) {
        let row: &[f64] = match &self.backing {
            Backing::Eager { flat } => &flat[i * self.dim..(i + 1) * self.dim],
            Backing::Lazy {
                fx,
                pairs,
                rows,
                partials,
            } => match rows[i].get() {
                Some(row) => row,
                None => {
                    let cells = partials[i].get_or_init(|| {
                        (0..self.dim)
                            .map(|_| AtomicU64::new(PARTIAL_EMPTY))
                            .collect()
                    });
                    // Fill the unfilled cells in one batched, attr-major
                    // pass (steady state allocates nothing), then read
                    // every cell from the memo.
                    let mut missing: Vec<usize> = dims
                        .iter()
                        .copied()
                        // alem-lint: allow(determinism-taint) -- write-once cell; racing writers store the identical deterministic value
                        .filter(|&d| cells[d].load(Ordering::Relaxed) == PARTIAL_EMPTY)
                        .collect();
                    if !missing.is_empty() {
                        missing.sort_unstable();
                        fx.compute_dims_with(pairs[i], &missing, |d, raw| {
                            let v = if raw.is_finite() { raw } else { 0.0 };
                            cells[d].store(v.to_bits(), Ordering::Relaxed);
                        });
                    }
                    for &d in dims {
                        // alem-lint: allow(determinism-taint) -- write-once cell; racing writers store the identical deterministic value
                        visit(d, f64::from_bits(cells[d].load(Ordering::Relaxed)));
                    }
                    return;
                }
            },
        };
        for &d in dims {
            visit(d, row[d]);
        }
    }

    /// Partial cells memoized so far on never-materialized rows (eager
    /// stores: always 0). Each counted cell is one single-similarity
    /// computation that recurring phase-1 scans no longer repeat.
    pub fn partial_cells_filled(&self) -> usize {
        match &self.backing {
            Backing::Eager { .. } => 0,
            Backing::Lazy { partials, .. } => partials
                .iter()
                .filter_map(|p| p.get())
                .map(|cells| {
                    cells
                        .iter()
                        // alem-lint: allow(determinism-taint) -- telemetry snapshot; never enters state, seeds, or fingerprints
                        .filter(|c| c.load(Ordering::Relaxed) != PARTIAL_EMPTY)
                        .count()
                })
                .sum(),
        }
    }

    /// How many rows are currently materialized (eager: all of them).
    pub fn materialized_rows(&self) -> usize {
        match &self.backing {
            Backing::Eager { .. } => self.len,
            Backing::Lazy { rows, .. } => rows.iter().filter(|r| r.get().is_some()).count(),
        }
    }

    /// Memoized full-row reads served from the cache (lazy backing only).
    pub fn cache_hits(&self) -> u64 {
        // alem-lint: allow(determinism-taint) -- monotone telemetry counter; never enters state, seeds, or fingerprints
        self.hits.load(Ordering::Relaxed)
    }

    /// Full-row materializations (lazy backing only): exactly one per
    /// distinct row ever read.
    pub fn cache_misses(&self) -> u64 {
        // alem-lint: allow(determinism-taint) -- monotone telemetry counter; never enters state, seeds, or fingerprints
        self.misses.load(Ordering::Relaxed)
    }

    /// Non-finite values replaced by 0.0 so far. Eager stores count at
    /// construction; lazy stores count as rows materialize.
    pub fn sanitized_count(&self) -> u64 {
        // alem-lint: allow(determinism-taint) -- monotone telemetry counter; never enters state, seeds, or fingerprints
        self.sanitized.load(Ordering::Relaxed)
    }

    /// The contiguous row-major matrix, eager backing only. Lazy stores
    /// return `None` — their content is defined by pair identity, not
    /// materialized bytes (see `Corpus::content_fingerprint`).
    pub fn flat(&self) -> Option<&[f64]> {
        match &self.backing {
            Backing::Eager { flat } => Some(flat),
            Backing::Lazy { .. } => None,
        }
    }
}

impl Clone for FeatureStore {
    fn clone(&self) -> Self {
        let backing = match &self.backing {
            Backing::Eager { flat } => Backing::Eager { flat: flat.clone() },
            Backing::Lazy {
                fx,
                pairs,
                rows,
                partials,
            } => Backing::Lazy {
                fx: Arc::clone(fx),
                pairs: Arc::clone(pairs),
                rows: rows.clone(),
                partials: partials
                    .iter()
                    .map(|p| {
                        let copy = OnceLock::new();
                        if let Some(cells) = p.get() {
                            let cloned: Box<[AtomicU64]> = cells
                                .iter()
                                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                                .collect();
                            let _ = copy.set(cloned);
                        }
                        copy
                    })
                    .collect(),
            },
        };
        FeatureStore {
            backing,
            len: self.len,
            dim: self.dim,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            sanitized: AtomicU64::new(self.sanitized.load(Ordering::Relaxed)),
        }
    }
}

impl fmt::Debug for FeatureStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureStore")
            .field("len", &self.len)
            .field("dim", &self.dim)
            .field("lazy", &self.is_lazy())
            .field("materialized", &self.materialized_rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrKind, EmDataset, Record, Schema, Table};

    fn toy_fx() -> (Arc<FeatureExtractor>, Arc<Vec<Pair>>) {
        let schema = Schema::new(vec![("name", AttrKind::Text)]);
        let l = Table::new(
            "l",
            schema.clone(),
            vec![
                Record::new(vec![Some("apple ipod".into())]),
                Record::new(vec![Some("sony walkman".into())]),
            ],
        );
        let r = Table::new(
            "r",
            schema,
            vec![
                Record::new(vec![Some("apple ipod nano".into())]),
                Record::new(vec![Some("dell monitor".into())]),
            ],
        );
        let ds = EmDataset {
            left: l,
            right: r,
            matches: [(0u32, 0u32)].into_iter().collect(),
            name: "toy".into(),
        };
        let pairs = Arc::new(vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        (Arc::new(FeatureExtractor::new(&ds).unwrap()), pairs)
    }

    /// Cell `(i, d)` through the partial read.
    fn cell(store: &FeatureStore, i: usize, d: usize) -> f64 {
        let mut value = f64::NAN;
        store.read_dims(i, &[d], |_, v| value = v);
        value
    }

    #[test]
    fn eager_rows_round_trip_flat() {
        let flat = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let store = FeatureStore::from_flat(flat.clone(), 3, 2).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.dim(), 2);
        assert!(!store.is_lazy());
        for (i, row) in flat.chunks(2).enumerate() {
            assert_eq!(store.row(i), row);
            assert_eq!(cell(&store, i, 1), row[1]);
        }
        assert_eq!(store.flat().unwrap(), flat.as_slice());
    }

    #[test]
    fn eager_sanitizes_and_counts() {
        let store = FeatureStore::from_flat(vec![f64::NAN, 1.0, 0.5, f64::INFINITY], 2, 2).unwrap();
        assert_eq!(store.sanitized_count(), 2);
        assert_eq!(store.row(0), &[0.0, 1.0]);
        assert_eq!(store.row(1), &[0.5, 0.0]);
    }

    #[test]
    fn lazy_rows_match_eager_bit_for_bit() {
        let (fx, pairs) = toy_fx();
        let flat = pairs.iter().flat_map(|&p| fx.extract_pair(p)).collect();
        let eager = FeatureStore::from_flat(flat, pairs.len(), fx.space().dim()).unwrap();
        let lazy = FeatureStore::lazy(Arc::clone(&fx), Arc::clone(&pairs));
        assert_eq!(lazy.len(), eager.len());
        assert_eq!(lazy.dim(), eager.dim());
        for i in 0..pairs.len() {
            for d in 0..lazy.dim() {
                assert_eq!(cell(&lazy, i, d).to_bits(), cell(&eager, i, d).to_bits());
            }
            assert_eq!(lazy.row(i), eager.row(i));
        }
    }

    #[test]
    fn lazy_counts_one_miss_per_row_then_hits() {
        let (fx, pairs) = toy_fx();
        let store = FeatureStore::lazy(fx, pairs);
        assert_eq!(store.materialized_rows(), 0);
        // Partial reads never materialize.
        let _ = cell(&store, 0, 0);
        assert_eq!(store.materialized_rows(), 0);
        assert_eq!(store.cache_misses(), 0);
        store.row(0);
        store.row(0);
        store.row(2);
        assert_eq!(store.cache_misses(), 2);
        assert_eq!(store.cache_hits(), 1);
        assert_eq!(store.materialized_rows(), 2);
    }

    #[test]
    fn read_dims_agrees_with_full_rows() {
        let (fx, pairs) = toy_fx();
        let store = FeatureStore::lazy(Arc::clone(&fx), Arc::clone(&pairs));
        let dims = [3, 0, 7];
        for (i, &pair) in pairs.iter().enumerate() {
            let row = fx.extract_pair(pair);
            let mut seen = Vec::new();
            store.read_dims(i, &dims, |d, v| {
                assert_eq!(v.to_bits(), row[d].to_bits(), "pair {i} dim {d}");
                seen.push(d);
            });
            assert_eq!(seen, dims, "cells arrive in dims order");
        }
        // The reads alone must not have materialized anything.
        assert_eq!(store.materialized_rows(), 0);
        assert_eq!(store.partial_cells_filled(), pairs.len() * dims.len());
    }

    #[test]
    fn partial_reads_memoize_without_materializing() {
        let (fx, pairs) = toy_fx();
        let store = FeatureStore::lazy(Arc::clone(&fx), Arc::clone(&pairs));
        let first = cell(&store, 1, 3);
        assert_eq!(first.to_bits(), fx.extract_pair(pairs[1])[3].to_bits());
        assert_eq!(store.partial_cells_filled(), 1);
        assert_eq!(store.materialized_rows(), 0);
        // A repeat read serves the memo: the fill count stays put.
        assert_eq!(cell(&store, 1, 3).to_bits(), first.to_bits());
        assert_eq!(store.partial_cells_filled(), 1);
        // Another dim of the same row fills one more cell; full
        // materialization then short-circuits partial bookkeeping.
        let _ = cell(&store, 1, 5);
        assert_eq!(store.partial_cells_filled(), 2);
        // Materialization assembles the row from the filled cells plus
        // the missing dims — bit-identical to a from-scratch extraction.
        let mut expect = fx.extract_pair(pairs[1]);
        sanitize_row(&mut expect);
        assert_eq!(store.row(1), expect.as_slice());
        assert_eq!(cell(&store, 1, 7).to_bits(), store.row(1)[7].to_bits());
        assert_eq!(store.partial_cells_filled(), 2);
        // Clones carry the partial memo along with the row memo.
        assert_eq!(store.clone().partial_cells_filled(), 2);
    }

    #[test]
    fn clone_preserves_counters_and_memo() {
        let (fx, pairs) = toy_fx();
        let store = FeatureStore::lazy(fx, pairs);
        store.row(1);
        let copy = store.clone();
        assert_eq!(copy.cache_misses(), 1);
        assert_eq!(copy.materialized_rows(), 1);
        // Memoized row carried over: reading it is a hit, not a miss.
        copy.row(1);
        assert_eq!(copy.cache_misses(), 1);
        assert_eq!(copy.cache_hits(), 1);
    }
}
