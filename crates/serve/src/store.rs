//! State-directory persistence for the fleet.
//!
//! Each session owns three files under the state dir, all keyed by its
//! (path-safe, see [`crate::proto::valid_session_name`]) name:
//!
//! - `<name>.meta.json` — the immutable open-time spec (dataset, seed,
//!   strategy, params, corpus fingerprint), written once at `open`, atomically
//!   (tmp + rename). This is what a cold restart needs to rebuild the
//!   machine *before* it can even read a checkpoint, so a kill mid-write
//!   must leave no meta rather than a truncated one.
//! - `<name>.ckpt.json` — the latest iteration-boundary [`Checkpoint`],
//!   written atomically (tmp + rename) by [`Checkpoint::save`].
//! - `<name>.done.json` — the terminal record (fingerprint, stats) once
//!   the session completes, written atomically. It is the only copy of a
//!   finished session's result: the fleet reads it back for each request
//!   on that session, and a restart registers the session from the
//!   directory listing alone, without replaying it.
//!
//! The `chaos_die_at_checkpoint` hook simulates the worst-timed kill: on
//! the N-th checkpoint write the process leaves a *truncated* `.tmp`
//! sibling behind and aborts before the rename. [`Checkpoint::load`]
//! removes the stale sibling on the next start, falling back to the last
//! durable snapshot — the crash-recovery tests assert the resumed run is
//! still byte-identical.

use crate::proto;
use alem_core::error::AlemError;
use alem_core::session::Checkpoint;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Immutable per-session spec persisted at `open`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMeta {
    /// Session name (redundant with the file name; kept for diagnostics).
    pub session: String,
    /// Dataset spec for [`crate::dataset::build`].
    pub dataset: String,
    /// Master seed.
    pub seed: u64,
    /// Strategy name for [`crate::fleet::build_strategy`].
    pub strategy: String,
    /// Seed draw size.
    pub seed_size: usize,
    /// Labels per iteration.
    pub batch_size: usize,
    /// Total label budget.
    pub max_labels: usize,
    /// Early-stop F1 target.
    pub stop_at_f1: Option<f64>,
    /// `Corpus::content_fingerprint` of the built corpus, as hex — a
    /// restart rejects the session if the rebuilt corpus drifts.
    pub corpus_fingerprint: String,
}

/// Terminal record persisted when a session completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoneRecord {
    /// Session name.
    pub session: String,
    /// `RunResult::deterministic_fingerprint`.
    pub fingerprint: String,
    /// Iterations recorded.
    pub iterations: usize,
    /// Labels consumed.
    pub labels_used: usize,
    /// Best F1 reached.
    pub best_f1: f64,
}

/// Filesystem facade for one state directory.
pub struct Store {
    dir: PathBuf,
    ckpt_writes: AtomicU64,
    chaos_die_at: Option<u64>,
}

impl Store {
    /// Open (creating if needed) the state directory. `chaos_die_at`
    /// arms the die-mid-checkpoint-write fault injection.
    pub fn open(dir: &Path, chaos_die_at: Option<u64>) -> Result<Self, AlemError> {
        std::fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            ckpt_writes: AtomicU64::new(0),
            chaos_die_at,
        })
    }

    fn path(&self, name: &str, kind: &str) -> PathBuf {
        self.dir.join(format!("{name}.{kind}.json"))
    }

    /// Path of the session's checkpoint file.
    pub fn checkpoint_path(&self, name: &str) -> PathBuf {
        self.path(name, "ckpt")
    }

    /// Persist the open-time spec.
    pub fn save_meta(&self, meta: &SessionMeta) -> Result<(), AlemError> {
        let json = serde_json::to_string(meta)
            .map_err(|e| AlemError::Io(format!("serializing meta: {e}")))?;
        write_atomic(&self.path(&meta.session, "meta"), &json)
    }

    /// Load the open-time spec for `name`.
    pub fn load_meta(&self, name: &str) -> Result<SessionMeta, AlemError> {
        let text = std::fs::read_to_string(self.path(name, "meta"))?;
        serde_json::from_str(&text)
            .map_err(|e| AlemError::CheckpointCorrupt(format!("meta for '{name}': {e}")))
    }

    /// Persist the terminal record.
    pub fn save_done(&self, done: &DoneRecord) -> Result<(), AlemError> {
        let json = serde_json::to_string(done)
            .map_err(|e| AlemError::Io(format!("serializing done record: {e}")))?;
        write_atomic(&self.path(&done.session, "done"), &json)
    }

    /// Load the terminal record for `name`, if the session finished.
    pub fn load_done(&self, name: &str) -> Option<DoneRecord> {
        let text = std::fs::read_to_string(self.path(name, "done")).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Whether a checkpoint exists for `name`.
    pub fn has_checkpoint(&self, name: &str) -> bool {
        self.checkpoint_path(name).exists()
    }

    /// Write `ckpt` atomically — unless the chaos counter says this is the
    /// write to die on, in which case a truncated `.tmp` sibling is left
    /// behind and the process aborts (simulating a kill between
    /// `Checkpoint::save`'s write and rename).
    pub fn save_checkpoint(&self, name: &str, ckpt: &Checkpoint) -> Result<(), AlemError> {
        let n = self.ckpt_writes.fetch_add(1, Ordering::SeqCst) + 1;
        let path = self.checkpoint_path(name);
        if self.chaos_die_at == Some(n) {
            let json = ckpt.encode()?;
            let half = &json[..json.len() / 2];
            std::fs::write(path.with_extension("tmp"), half)?;
            eprintln!("alem-serve: chaos_die_at_checkpoint={n} firing: aborting mid-write");
            std::process::abort();
        }
        ckpt.save(&path)
    }

    /// Load the checkpoint for `name` (removing any stale `.tmp` sibling).
    pub fn load_checkpoint(&self, name: &str) -> Result<Checkpoint, AlemError> {
        Checkpoint::load(&self.checkpoint_path(name))
    }

    /// Session names present in the state dir (from `*.meta.json`),
    /// sorted for deterministic restore order, each with whether a done
    /// record sits beside its meta. One directory listing; no session
    /// file is opened.
    pub fn list_sessions(&self) -> Result<Vec<(String, bool)>, AlemError> {
        let mut names = Vec::new();
        let mut done = BTreeSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            if let Some(name) = file.strip_suffix(".meta.json") {
                if proto::valid_session_name(name) {
                    names.push(name.to_string());
                }
            } else if let Some(name) = file.strip_suffix(".done.json") {
                done.insert(name.to_string());
            }
        }
        names.sort();
        Ok(names
            .into_iter()
            .map(|name| {
                let finished = done.contains(&name);
                (name, finished)
            })
            .collect())
    }

    /// Checkpoint writes performed so far (diagnostics).
    pub fn checkpoint_writes(&self) -> u64 {
        self.ckpt_writes.load(Ordering::SeqCst)
    }
}

/// Write `json` to a `.tmp` sibling of `path`, then rename it over
/// `path`, so a kill mid-write leaves the old file or none, never a
/// truncated one.
fn write_atomic(path: &Path, json: &str) -> Result<(), AlemError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alem_core::loop_::LoopParams;
    use alem_core::session::CHECKPOINT_VERSION;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alem-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(name: &str) -> SessionMeta {
        SessionMeta {
            session: name.to_string(),
            dataset: "toy".into(),
            seed: 7,
            strategy: "margin".into(),
            seed_size: 12,
            batch_size: 8,
            max_labels: 80,
            stop_at_f1: None,
            corpus_fingerprint: "00ff00ff00ff00ff".into(),
        }
    }

    #[test]
    fn meta_and_done_round_trip() {
        let store = Store::open(&tmp_dir("meta"), None).unwrap();
        store.save_meta(&meta("a")).unwrap();
        store.save_meta(&meta("b")).unwrap();
        assert_eq!(store.load_meta("a").unwrap(), meta("a"));
        assert_eq!(
            store.list_sessions().unwrap(),
            vec![("a".to_string(), false), ("b".to_string(), false)]
        );
        assert!(store.load_done("a").is_none());
        let done = DoneRecord {
            session: "a".into(),
            fingerprint: "deadbeef".into(),
            iterations: 9,
            labels_used: 76,
            best_f1: 0.5,
        };
        store.save_done(&done).unwrap();
        assert_eq!(store.load_done("a").unwrap(), done);
        assert_eq!(
            store.list_sessions().unwrap(),
            vec![("a".to_string(), true), ("b".to_string(), false)]
        );
    }

    #[test]
    fn done_records_with_long_mixed_strings_round_trip() {
        let store = Store::open(&tmp_dir("long"), None).unwrap();
        // A fingerprint-sized text of plain runs, escaped chars and
        // multibyte chars: every `poll` of a finished session reads one.
        let pieces = [
            "0123456789abcdef",
            "\"",
            "\\",
            "\n",
            "\t",
            "\u{7}",
            "é€😀",
            "/",
        ];
        let done = DoneRecord {
            session: "s-1".into(),
            fingerprint: (0..600).map(|i| pieces[(i * 5) % pieces.len()]).collect(),
            iterations: 28,
            labels_used: 124,
            best_f1: 0.9130434782608695,
        };
        assert!(done.fingerprint.len() > 2_000);
        store.save_done(&done).unwrap();
        assert_eq!(store.load_done("s-1").unwrap(), done);
    }

    #[test]
    fn a_meta_write_killed_before_its_rename_leaves_no_session() {
        let dir = tmp_dir("torn");
        let store = Store::open(&dir, None).unwrap();
        // What a kill between the write and the rename leaves behind.
        std::fs::write(dir.join("c.meta.tmp"), "{\"session\":").unwrap();
        assert!(store.list_sessions().unwrap().is_empty());
        store.save_meta(&meta("c")).unwrap();
        assert_eq!(
            store.list_sessions().unwrap(),
            vec![("c".to_string(), false)]
        );
        assert_eq!(store.load_meta("c").unwrap(), meta("c"));
        assert!(!dir.join("c.meta.tmp").exists());
    }

    #[test]
    fn checkpoints_round_trip_through_store() {
        let store = Store::open(&tmp_dir("ckpt"), None).unwrap();
        let ckpt = Checkpoint {
            version: CHECKPOINT_VERSION,
            master_seed: 3,
            iter_no: 2,
            stalled: 0,
            labeled: vec![(0, true)],
            unlabeled: vec![1, 2],
            eval_idx: vec![0, 1, 2],
            iterations: vec![],
            oracle_queries: 1,
            params: LoopParams::default(),
            strategy: "margin".into(),
            dataset: "toy".into(),
            corpus_len: 3,
            corpus_fingerprint: 0xabcd,
            warm: None,
        };
        assert!(!store.has_checkpoint("s"));
        store.save_checkpoint("s", &ckpt).unwrap();
        assert!(store.has_checkpoint("s"));
        assert_eq!(store.load_checkpoint("s").unwrap(), ckpt);
        assert_eq!(store.checkpoint_writes(), 1);
    }
}
