//! Raw-sample statistics, host facts read from `/proc`, and the output
//! format: human-readable lines, then one JSON result line.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Nearest-rank percentile of raw samples, or `None` when fewer than ten
/// samples lie beyond it (such a percentile is not reported).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported metric: name, value, unit, and the number of raw samples
/// behind the value (1 for totals and single reads).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// A percentile metric of raw samples in ms; a percentile with fewer than
/// ten samples beyond it is omitted, with a note.
pub fn pct_metric(name: &'static str, samples: &[f64], p: f64) -> Option<Metric> {
    let value = percentile(samples, p);
    if value.is_none() {
        println!(
            "omitted {name}: {} samples leave fewer than ten beyond p{p}",
            samples.len()
        );
    }
    Some(metric(name, value?, "ms", samples.len()))
}

/// Per-layer totals of one traced pass. A layer a workload does not use
/// keeps its zeros.
#[derive(Default)]
pub struct Layers {
    pub block_s: f64,
    pub block_candidates: u64,
    pub block_recall: f64,
    pub featurize_s: f64,
    pub featurize_rows: u64,
    pub featurize_rss_mb: f64,
    pub fit_s: f64,
    pub fit_calls: u64,
    pub select_s: f64,
    pub select_committee_s: f64,
    pub select_score_s: f64,
    pub select_pool_rows: u64,
    pub eval_s: f64,
    pub eval_predicts: u64,
    /// Summed time of the answers that completed an iteration in the
    /// traced pass: the waits plus each session's last answer.
    pub wait_s: f64,
    pub waits: u64,
    pub wire_requests: u64,
    /// Round trips of answers that complete no wave, in µs.
    pub wire_rtts_us: Vec<f64>,
    pub wire_bytes: u64,
    pub wire_busy: u64,
    pub server_cpu_s: f64,
    pub checkpoint_writes: u64,
    pub checkpoint_bytes: u64,
    /// Untraced waits the p99 is taken from (serve-wire only).
    pub p99_waits_ms: Vec<f64>,
    /// Answers applied per second of untraced loop time, and how many.
    pub labels_per_s: (f64, u64),
    pub overhead_frac: f64,
    /// Σ layer self times ÷ traced wall.
    pub attributed_frac: f64,
}

impl Layers {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = |n: u64| n as f64;
        let rtt_p50 = percentile(&self.wire_rtts_us, 50.0).unwrap_or(0.0);
        let p99 = percentile(&self.p99_waits_ms, 99.0).unwrap_or(0.0);
        let other = self.wait_s - self.fit_s - self.select_s - self.eval_s;
        vec![
            metric("block.s", self.block_s, "s", 1),
            metric("block.candidates", c(self.block_candidates), "count", 1),
            metric("block.recall", self.block_recall, "ratio", 1),
            metric("featurize.s", self.featurize_s, "s", 1),
            metric("featurize.rows", c(self.featurize_rows), "count", 1),
            metric("featurize.rss_mb", self.featurize_rss_mb, "MB", 1),
            metric("fit.s", self.fit_s, "s", c(self.fit_calls) as usize),
            metric("fit.calls", c(self.fit_calls), "count", 1),
            metric("select.s", self.select_s, "s", 1),
            metric("select.committee_s", self.select_committee_s, "s", 1),
            metric("select.score_s", self.select_score_s, "s", 1),
            metric("select.pool_rows", c(self.select_pool_rows), "count", 1),
            metric("eval.s", self.eval_s, "s", 1),
            metric("eval.predicts", c(self.eval_predicts), "count", 1),
            metric("session.other_s", other, "s", self.waits as usize),
            metric("session.waits", c(self.waits), "count", 1),
            metric("wire.requests", c(self.wire_requests), "count", 1),
            metric("wire.rtt_p50_us", rtt_p50, "us", self.wire_rtts_us.len()),
            metric("wire.bytes", c(self.wire_bytes), "bytes", 1),
            metric("wire.busy", c(self.wire_busy), "count", 1),
            metric("server.cpu_s", self.server_cpu_s, "s", 1),
            metric("checkpoint.writes", c(self.checkpoint_writes), "count", 1),
            metric("checkpoint.bytes", c(self.checkpoint_bytes), "bytes", 1),
            metric("wait_p99_ms", p99, "ms", self.p99_waits_ms.len()),
            metric(
                "labels_per_s",
                self.labels_per_s.0,
                "1/s",
                self.labels_per_s.1 as usize,
            ),
            metric("trace.overhead_frac", self.overhead_frac, "ratio", 1),
            metric(
                "trace.unattributed_frac",
                1.0 - self.attributed_frac,
                "ratio",
                1,
            ),
        ]
    }
}

/// Operations (sessions) attempted, and one reason per failed one.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Ops {
    pub fn fail(&mut self, reason: String) {
        self.failed.push(reason);
    }
}

/// The outcome of one benchmark invocation.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failed.is_empty()
    }

    /// Print every metric with its unit and sample count, the operation
    /// counts, and finally the JSON result line.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "metric {:<26} {:>16} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for f in &self.ops.failed {
            println!("failed {workload}: {f}");
        }
        println!(
            "operations {workload}: attempted={} failed={}",
            self.ops.attempted,
            self.ops.failed.len()
        );
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.ops.attempted,
            self.ops.failed.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A finite f64 with all its digits (JSON has no NaN/inf).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Minimal JSON string escape for the fact lines.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `key` field of `/proc/<pid>/status` in kB (e.g. `VmHWM`, `VmRSS`).
pub fn status_kb(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn status_mb(pid: &str, key: &str) -> f64 {
    status_kb(pid, key).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Seconds per clock tick, from the `AT_CLKTCK` auxv entry (100 Hz if
/// unreadable).
fn tick_secs() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let hz = std::fs::read("/proc/self/auxv").ok().and_then(|bytes| {
        bytes.chunks_exact(16).find_map(|e| {
            let key = u64::from_ne_bytes(e[..8].try_into().ok()?);
            let val = u64::from_ne_bytes(e[8..].try_into().ok()?);
            (key == AT_CLKTCK && val > 0).then_some(val)
        })
    });
    1.0 / hz.unwrap_or(100) as f64
}

/// User plus system CPU seconds consumed by process `pid`.
pub fn cpu_secs(pid: u32) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks as f64 * tick_secs()
}

/// `wchar` of `/proc/<pid>/io`: bytes the process passed to write calls.
pub fn write_chars(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    let line = text.lines().find(|l| l.starts_with("wchar:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Host facts sampled before and after a run.
pub struct HostSample {
    loadavg: String,
    /// (steal ticks, total ticks) of the aggregate `cpu` line.
    steal: (u64, u64),
}

impl HostSample {
    pub fn now() -> Self {
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_default();
        let cpu: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user/nice).
        let total = cpu.iter().take(8).sum();
        HostSample {
            loadavg,
            steal: (cpu.get(7).copied().unwrap_or(0), total),
        }
    }
}

/// Print the host facts line: core count, program threads, load and CPU
/// steal over the run, toolchain and commit, and the held-out seed.
pub fn print_host(
    before: &HostSample,
    after: &HostSample,
    threads: usize,
    git: &str,
    held_out: u64,
) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let d_steal = after.steal.0.saturating_sub(before.steal.0);
    let d_total = after.steal.1.saturating_sub(before.steal.1).max(1);
    println!(
        "host {{\"nproc\": {nproc}, \"threads\": {threads}, \"loadavg_before\": {}, \
         \"loadavg_after\": {}, \"steal_ticks\": {d_steal}, \"steal_frac\": {}, \
         \"rustc\": {}, \"git_commit\": {}, \"held_out_seed\": {held_out}}}",
        json_str(&before.loadavg),
        json_str(&after.loadavg),
        d_steal as f64 / d_total as f64,
        json_str(&command_line("rustc", &["--version"])),
        json_str(git),
    )
}

/// First output line of a command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout in the current directory, when it is a git
/// work tree of its own.
pub fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    command_line("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
