//! Structured errors for the fault-tolerant session layer.
//!
//! Every user-reachable failure in the active-learning driver — bad
//! configuration, an Oracle that stops answering, a corrupt checkpoint —
//! surfaces as an [`AlemError`] instead of a panic, so callers (the CLI,
//! the benchmark harness, a long-running service) can report a one-line
//! diagnostic, retry, or resume from a checkpoint.

use std::fmt;

/// All failures the active-learning session layer can report.
#[derive(Debug, Clone, PartialEq)]
pub enum AlemError {
    /// Loop or session parameters are unusable (zero batch size, noise
    /// outside `[0, 1]`, even vote committees, mismatched strategy on
    /// resume, …).
    InvalidConfig(String),

    /// The labeled data cannot train any model and degradation was unable
    /// to repair it (e.g. an empty labeled set after seeding).
    DegenerateLabels(String),

    /// The Oracle failed to answer a query even after the retry policy was
    /// exhausted.
    OracleUnavailable {
        /// Example index that was being labeled.
        example: usize,
        /// Attempts made (including the first).
        attempts: u32,
        /// Human-readable cause ("transient failure", "timed out after …").
        reason: String,
    },

    /// The label budget is exhausted before the session could do any work.
    BudgetExhausted {
        /// Labels already consumed.
        used: usize,
        /// Configured budget.
        budget: usize,
    },

    /// A checkpoint file exists but cannot be trusted: unparsable, wrong
    /// version, or inconsistent with the corpus it is being resumed on.
    CheckpointCorrupt(String),

    /// The loop made no labeling progress for too many consecutive
    /// iterations (every selected example abstained).
    Stalled {
        /// Consecutive zero-progress iterations observed.
        iterations: usize,
    },

    /// The session stopped at its configured `halt_after` boundary
    /// (a simulated kill) after writing its checkpoint; resume from that
    /// checkpoint to finish the run.
    Halted {
        /// Iteration about to run when the session stopped.
        iteration: usize,
    },

    /// Filesystem failure while reading or writing checkpoints/outputs.
    Io(String),
}

impl fmt::Display for AlemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlemError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AlemError::DegenerateLabels(msg) => write!(f, "degenerate labels: {msg}"),
            AlemError::OracleUnavailable {
                example,
                attempts,
                reason,
            } => write!(
                f,
                "oracle unavailable labeling example {example} after {attempts} attempt(s): {reason}"
            ),
            AlemError::BudgetExhausted { used, budget } => {
                write!(f, "label budget exhausted: {used} used of {budget}")
            }
            AlemError::CheckpointCorrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            AlemError::Stalled { iterations } => write!(
                f,
                "session stalled: no labeling progress for {iterations} consecutive iterations"
            ),
            AlemError::Halted { iteration } => {
                write!(f, "session halted at iteration {iteration} after checkpointing")
            }
            AlemError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for AlemError {}

impl From<std::io::Error> for AlemError {
    fn from(e: std::io::Error) -> Self {
        AlemError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AlemError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_one_line() {
        let errors = [
            AlemError::InvalidConfig("batch_size = 0".into()),
            AlemError::DegenerateLabels("empty seed".into()),
            AlemError::OracleUnavailable {
                example: 7,
                attempts: 5,
                reason: "transient failure".into(),
            },
            AlemError::BudgetExhausted {
                used: 40,
                budget: 40,
            },
            AlemError::CheckpointCorrupt("bad version".into()),
            AlemError::Stalled { iterations: 3 },
            AlemError::Halted { iteration: 3 },
            AlemError::Io("disk full".into()),
        ];
        for e in errors {
            let line = e.to_string();
            assert!(!line.is_empty());
            assert!(!line.contains('\n'), "multi-line diagnostic: {line}");
        }
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: AlemError = io.into();
        assert!(matches!(e, AlemError::Io(_)));
    }
}
