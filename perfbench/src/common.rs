//! Shared plumbing: seeded inputs, percentiles, peak memory, the
//! environment fingerprint and the result record every workload fills.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the stream named `stream` (workloads
    /// draw independent streams from one seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `count` distinct values from `0..bound`, in ascending order.
    pub fn distinct(&mut self, count: usize, bound: usize) -> Vec<usize> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < count.min(bound) {
            picked.insert(self.below(bound));
        }
        picked.into_iter().collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `elapsed`, at full resolution.
pub fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Microseconds in `elapsed`, at full resolution.
pub fn us(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and how a result was measured: the facts that make numbers
/// from two runs comparable.
pub fn env_fingerprint(seed: u64) -> BTreeMap<&'static str, String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, name)| name.trim().to_string(),
        );
    let sha_ni = cpuinfo
        .lines()
        .find(|line| line.starts_with("flags"))
        .is_some_and(|flags| flags.split_whitespace().any(|flag| flag == "sha_ni"));
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let mut env = BTreeMap::new();
    env.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, usize::from)
            .to_string(),
    );
    env.insert("cpu", cpu);
    env.insert("sha_ni", sha_ni.to_string());
    env.insert(
        "kernel",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
    );
    env.insert("rustc", command_line("rustc", &["--version"]));
    env.insert(
        "git_rev",
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    );
    env.insert("seed", seed.to_string());
    env
}

/// Workload sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] drives the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Devices in the `sweep` fleet.
    pub sweep_devices: usize,
    /// Devices in the `sweep` fleet that carry a flipped PMEM byte.
    pub sweep_tampered: usize,
    /// Devices in the `rollout` fleet.
    pub rollout_devices: usize,
    /// Times set-up is repeated per run (the median is reported).
    pub setups: usize,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Self {
        Scale {
            sweep_devices: 4096,
            sweep_tampered: 10,
            rollout_devices: 4096,
            setups: 5,
        }
    }

    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        Scale {
            sweep_devices: 64,
            sweep_tampered: 3,
            rollout_devices: 64,
            setups: 1,
        }
    }
}

/// One metric as reported: value and unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their correctness check.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Exact counts that must repeat bit-for-bit for a given seed and
    /// scale (the self-test compares these across runs).
    pub exact: BTreeMap<String, u64>,
    /// First few correctness failures, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    /// Records one op's correctness verdict.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Folds `other` into `self` (metrics and exact counts keep their
    /// names, so callers prefix them per workload).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.exact.extend(other.exact);
        self.failures.extend(other.failures);
    }
}

/// The end-to-end metrics every workload reports, from its per-op
/// latencies, the work units each op did, and its set-up times.
pub fn end_to_end(out: &mut Outcome, op_ms: &[f64], units: f64, setup_s: &[f64]) {
    let summed_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    out.put("op_ms_p50", quantile(op_ms, 0.5), "ms");
    out.put("op_ms_p90", quantile(op_ms, 0.9), "ms");
    out.put("throughput_per_s", units / summed_s.max(1e-12), "1/s");
    out.put("setup_s", median(setup_s), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(Rng::new(1, 2).distinct(5, 5), vec![0, 1, 2, 3, 4]);
    }
}
