//! `alem-bench` — the benchmark harness that regenerates every table and
//! figure of the paper's evaluation (§6).
//!
//! The `figures` binary is the entry point:
//!
//! ```text
//! cargo run --release -p alem-bench --bin figures -- table1
//! cargo run --release -p alem-bench --bin figures -- fig8 --scale 0.25
//! cargo run --release -p alem-bench --bin figures -- all --json results.json
//! ```
//!
//! `--scale` shrinks the synthetic corpora (1.0 ≈ paper sizes; the default
//! 0.25 reproduces every shape in minutes). `figures latency-breakdown`
//! is the selection-latency and training-time table, built from telemetry
//! spans; `benches/obs_overhead.rs` gates telemetry overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod experiments;
pub mod runner;
