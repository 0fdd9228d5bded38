//! Shared plumbing: run options, timing statistics, metric records and
//! the result line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Options every workload receives from the command line.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Wall-clock budget of the measured region.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Smaller inputs for the smoke tests.
    pub short: bool,
    /// Deliberately corrupts one expected output, so the smoke tests can
    /// show that the output checks count failures.
    pub corrupt: bool,
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-rep samples of one timing, kept for the report.
#[derive(Debug, Clone)]
pub struct Samples {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metrics in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Per-rep samples (set-up times, per-op latencies).
    pub samples: Vec<Samples>,
    /// Human-readable lines printed before the result (tables, notes,
    /// check failures).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn samples(&mut self, name: &'static str, unit: &'static str, values: Vec<f64>) {
        self.samples.push(Samples { name, unit, values });
    }

    /// Counts one checked operation; a failed check is reported by line.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Checks that the traced stages add up to the untraced per-op time
    /// within `tolerance` (a share), and returns the unaccounted share.
    /// Short smoke runs time too little for the check to mean anything,
    /// so they only report the share.
    pub fn reconcile(
        &mut self,
        opts: &RunOpts,
        stage_sum: f64,
        untraced: f64,
        tolerance: f64,
    ) -> f64 {
        let unaccounted = (untraced - stage_sum) / untraced;
        if !opts.short {
            self.check(unaccounted.abs() <= tolerance, || {
                format!(
                    "stage sum {stage_sum:.4} vs untraced {untraced:.4} per op: beyond {tolerance}"
                )
            });
        }
        unaccounted
    }

    /// The end-to-end metrics shared by every workload, in order.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        latencies_ms: &[f64],
        tail_pct: f64,
        measured_s: f64,
        plan_reward: f64,
        served_latency_ms: f64,
        served_accuracy: f64,
    ) {
        let ops = latencies_ms.len();
        self.metric("setup_s", median(setup_s), "s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let ok = self.attempted.saturating_sub(self.failed);
        self.metric(
            "success_rate",
            ok as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        self.metric("latency_ms_p50", percentile(latencies_ms, 50.0), "ms");
        self.metric("latency_ms_tail", percentile(latencies_ms, tail_pct), "ms");
        self.metric("throughput_per_s", ops as f64 / measured_s, "1/s");
        self.metric("plan_reward", plan_reward, "score");
        self.metric("served_latency_ms", served_latency_ms, "ms");
        self.metric("served_accuracy", served_accuracy, "ratio");
        let beyond = ops as f64 * (1.0 - tail_pct / 100.0);
        self.lines.push(format!(
            "latency_ms_tail is p{tail_pct} over {ops} ops ({beyond:.1} samples beyond it); \
             throughput over {measured_s:.3} s measured"
        ));
        self.samples("setup_s", "s", setup_s.to_vec());
        self.samples("latency_ms", "ms", latencies_ms.to_vec());
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-layer stage row: name, mean cost per op, and the end-to-end
/// metric it is expected to move.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: &'static str,
    pub ms_per_op: f64,
    pub moves: &'static str,
}

/// Renders the per-layer table with each stage's share of `total_ms`.
pub fn stage_table(title: &str, stages: &[Stage], total_ms: f64) -> String {
    let mut out = format!("per-layer table: {title}\n");
    let _ = writeln!(
        out,
        "  {:<28} {:>12} {:>8}  moves",
        "stage", "ms/op", "share"
    );
    for s in stages {
        let _ = writeln!(
            out,
            "  {:<28} {:>12.4} {:>7.2}%  {}",
            s.name,
            s.ms_per_op,
            100.0 * s.ms_per_op / total_ms.max(f64::MIN_POSITIVE),
            s.moves
        );
    }
    let sum: f64 = stages.iter().map(|s| s.ms_per_op).sum();
    let _ = writeln!(
        out,
        "  {:<28} {:>12.4} {:>7.2}%  (untraced per-op latency {:.4} ms)",
        "sum of stages",
        sum,
        100.0 * sum / total_ms.max(f64::MIN_POSITIVE),
        total_ms
    );
    out
}

/// Splitmix64: a tiny seeded generator for input construction.
#[derive(Debug, Clone)]
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Formats a float with every digit (shortest round-trip form) as JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings encode")
}

/// Worker threads for the search workloads: the host's two cores. One
/// thread would let the scheduler move it between cores of different
/// speed; two keep both busy, so every run sees both.
pub const WORKERS: usize = 2;

/// Runs `f(i)` for every `i` in `0..n` on `WORKERS` threads that take the
/// next index as they free up; results come back in index order.
pub fn fan_out<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, U)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|d| d.1).collect()
}
