//! `alembench`: the repository's benchmark. One invocation runs one
//! workload for `--seconds`, checks its outputs, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! pass (`--trace 1`), ending with one JSON result line. See README.md.
//!
//! ```text
//! alembench --workload qbc-cora --seed 1 --seconds 20 --trace 0 \
//!           --server-bin .bench_build/release/alem-serve --work-dir .bench_build/run
//! alembench --self-test --server-bin … --work-dir …
//! ```

mod inproc;
mod report;
mod wire;

use alem_par::Parallelism;
use report::{HostSample, Ops, Outcome};
use std::path::{Path, PathBuf};

/// A seed no change may be tuned on: a claim must also hold here.
const HELD_OUT_SEED: u64 = 7_340_033;

/// The workloads and why each was chosen.
const WORKLOADS: [(&str, &str); 2] = [(inproc::NAME, inproc::WHY), (wire::NAME, wire::WHY)];

/// SplitMix64 finalizer, for deriving input seeds from the workload seed.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a digest of a sequence of fingerprints.
pub fn digest<'a>(fps: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fps.flat_map(|f| f.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

const USAGE: &str = "usage: alembench --workload NAME --seed N --seconds S --trace 0|1 \
--server-bin PATH --work-dir DIR | alembench --self-test --server-bin PATH --work-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        self_test: false,
        server_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--server-bin" => a.server_bin = PathBuf::from(&value),
            "--work-dir" => a.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if a.server_bin.as_os_str().is_empty() || a.work_dir.as_os_str().is_empty() {
        return Err(USAGE.to_string());
    }
    // The run changes into its work directory; keep the binary reachable.
    a.server_bin = std::path::absolute(&a.server_bin).map_err(|e| e.to_string())?;
    if !a.self_test {
        if !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
            return Err(format!("unknown workload '{}'\n{USAGE}", a.workload));
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err(format!("--seconds must be positive\n{USAGE}"));
        }
    }
    Ok(a)
}

/// Program threads of the in-process workload. One, on purpose: on a
/// shared two-core host, two program threads leave no core for anything
/// else and every parallel section waits for its slowest part; measured
/// on one seed, alternating runs, wait p50 moved ±10 % at two threads
/// and ±3 % at one.
const THREADS: usize = 1;

/// Run one workload: its metrics, and one failed operation per session
/// error, wire error, busy reply or mismatch.
fn measure(a: &Args) -> Outcome {
    let mut ops = Ops::default();
    let metrics = if a.workload == inproc::NAME {
        let par = Parallelism::fixed(THREADS);
        inproc::measure(a.seed, a.seconds, a.trace, par, &mut ops)
    } else {
        wire::measure(&a.server_bin, a.seed, a.seconds, a.trace, &mut ops)
    };
    Outcome { ops, metrics }
}

fn main() {
    std::process::exit(match parse_args() {
        Ok(a) => {
            // Work in a private directory (server sockets, state and span
            // logs), removed on exit.
            let work = a.work_dir.join(std::process::id().to_string());
            let git = report::git_commit();
            let entered = std::fs::create_dir_all(&work)
                .and_then(|()| std::env::set_current_dir(&work))
                .map_err(|e| format!("entering {}: {e}", work.display()));
            let code = match entered {
                Err(e) => {
                    eprintln!("alembench: {e}");
                    2
                }
                Ok(()) if a.self_test => self_test(&a),
                Ok(()) => run(&a, &git),
            };
            let _ = std::fs::remove_dir_all(&work);
            code
        }
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    });
}

fn run(a: &Args, git: &str) -> i32 {
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == a.workload)
        .map_or("", |(_, w)| w);
    println!(
        "alembench workload={} seed={} seconds={} trace={} — {why}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let before = HostSample::now();
    let outcome = measure(a);
    let after = HostSample::now();
    report::print_host(&before, &after, THREADS, git, HELD_OUT_SEED);
    outcome.print(&a.workload);
    if outcome.correct() {
        0
    } else {
        1
    }
}

/// Each workload's inputs must be a pure function of its seed: the same
/// seed twice gives identical candidate, dim and wait counts and
/// fingerprints; another seed changes the fingerprints.
fn self_test(a: &Args) -> i32 {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let probes: Vec<Result<(String, u64), String>> = [1u64, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                if name == inproc::NAME {
                    inproc::probe(seed, Parallelism::fixed(THREADS))
                } else {
                    wire::probe(&a.server_bin, Path::new(&format!("probe{i}")), seed)
                }
            })
            .collect();
        for (seed, p) in [1, 1, 2].iter().zip(&probes) {
            match p {
                Ok((counts, fp)) => {
                    println!("self-test {name} seed={seed}: {counts} fingerprints={fp:016x}")
                }
                Err(e) => println!("self-test {name} seed={seed}: error: {e}"),
            }
        }
        let verdict = match (&probes[0], &probes[1], &probes[2]) {
            (Ok(x), Ok(y), Ok(z)) if x == y && x.1 != z.1 => "ok",
            (Ok(x), Ok(y), Ok(_)) if x != y => "FAIL: the same seed gave different inputs",
            (Ok(_), Ok(_), Ok(_)) => "FAIL: another seed gave the same fingerprints",
            _ => "FAIL: a probe failed",
        };
        ok &= verdict == "ok";
        println!("self-test {name}: {verdict}");
    }
    if ok {
        0
    } else {
        1
    }
}
