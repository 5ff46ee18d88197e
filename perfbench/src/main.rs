//! Benchmark entry point.
//!
//! ```text
//! eilid_perfbench --workload sweep|cfi --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the named workload closed-loop and prints its
//! end-to-end metrics. `--trace 1` runs the per-layer ledger of `sweep`,
//! `rollout` and `cfi` (the layers span them) and prints every per-layer
//! metric.
//! Each run prints the environment fingerprint, one line per metric, and
//! as its last line one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is non-zero when any op failed its
//! correctness check.

use std::process::ExitCode;

use eilid_perfbench::common::{env_fingerprint, Outcome, Scale};
use eilid_perfbench::{cfi, rollout, sweep};

/// Ops per second of `--seconds` each workload schedules. The op count
/// is fixed by the arguments, not by the clock, so a run always does
/// the same work for the same seed and length.
const SWEEP_OPS_PER_S: f64 = 18.0;
const ROLLOUT_OPS_PER_S: f64 = 4.5;
const CFI_OPS_PER_S: f64 = 6.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["sweep", "cfi"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be sweep or cfi (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn ops(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let out = if args.trace {
        // The ledger covers every workload's layers; each gets a third of
        // the run, half of it traced and half untraced.
        let share = args.seconds / 6.0;
        let mut out = Outcome::default();
        out.absorb(sweep::trace(args.seed, ops(share, SWEEP_OPS_PER_S), scale));
        out.absorb(rollout::trace(
            args.seed,
            ops(share, ROLLOUT_OPS_PER_S),
            scale,
        ));
        out.absorb(cfi::trace(args.seed, ops(share, CFI_OPS_PER_S)));
        let rate = out.failed as f64 / out.attempted.max(1) as f64;
        out.put("error_rate", rate, "ratio");
        out
    } else {
        match args.workload.as_str() {
            "sweep" => sweep::run(args.seed, ops(args.seconds, SWEEP_OPS_PER_S), scale),
            _ => cfi::run(args.seed, ops(args.seconds, CFI_OPS_PER_S), scale),
        }
    };

    let env = env_fingerprint(args.seed);
    let env_json: Vec<String> = env
        .iter()
        .map(|(key, value)| format!("\"{key}\": \"{}\"", value.replace('"', "'")))
        .collect();
    println!(
        "env {{\"workload\": \"{}\", \"trace\": {}, {}}}",
        args.workload,
        u8::from(args.trace),
        env_json.join(", ")
    );
    for why in &out.failures {
        println!("FAILED {why}");
    }
    for (name, count) in &out.exact {
        println!("exact {name} = {count}");
    }
    for (name, metric) in &out.metrics {
        println!("metric {name} = {} {}", metric.value, metric.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, metric)| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.unit
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
