//! The `alem` binary end to end: `generate` → `block` → `match` →
//! `predict` on the synthetic BeerAdvocate-RateBeer tables. Pins what a
//! user sees — `block`'s report and the bytes of both match files — so a
//! refactor of blocking, featurization or the CLI plumbing cannot change
//! them unnoticed.

use std::path::Path;
use std::process::Command;

/// Match-based success accessor, as in the crate's unit tests: panicking
/// accessors stay out of the CLI crate so every panic site is visible.
fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Run `alem` in `dir`, require success, and return its stdout.
fn alem(dir: &Path, args: &[&str]) -> String {
    let out = ok(Command::new(env!("CARGO_BIN_EXE_alem"))
        .current_dir(dir)
        .args(args)
        .output());
    assert!(
        out.status.success(),
        "alem {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    ok(String::from_utf8(out.stdout))
}

/// FNV-1a over a file's bytes.
fn digest(path: &Path) -> u64 {
    ok(std::fs::read(path))
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn generate_block_match_predict() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("alem-cli-flow");
    let _ = std::fs::remove_dir_all(&dir);
    ok(std::fs::create_dir_all(&dir));
    let tables = ["--left", "left.csv", "--right", "right.csv"];

    alem(
        &dir,
        &[
            "generate",
            "--dataset",
            "beer",
            "--out-dir",
            ".",
            "--seed",
            "42",
        ],
    );

    let report = alem(
        &dir,
        &[&["block"][..], &tables, &["--truth", "truth.csv"]].concat(),
    );
    assert_eq!(
        report,
        "left records:        28\n\
         right records:       28\n\
         cartesian pairs:     784\n\
         post-blocking pairs: 202 (threshold 0.1875)\n\
         truth matches kept:  28/28 (class skew 0.139)\n"
    );

    let learn = [
        "--truth",
        "truth.csv",
        "--strategy",
        "margin",
        "--budget",
        "60",
        "--seed",
        "7",
        "--output",
        "matches.csv",
        "--save-model",
        "model.json",
    ];
    alem(&dir, &[&["match"][..], &tables, &learn].concat());
    let apply = ["--model", "model.json", "--output", "predicted.csv"];
    alem(&dir, &[&["predict"][..], &tables, &apply].concat());

    // The saved model scores the same corpus it was trained on, so both
    // files hold the same predictions.
    assert_eq!(
        (
            digest(&dir.join("matches.csv")),
            digest(&dir.join("predicted.csv"))
        ),
        (0xd8a6_1383_ef13_9b03, 0xd8a6_1383_ef13_9b03)
    );
    ok(std::fs::remove_dir_all(&dir));
}
