//! Table IV harness: compile-time, binary-size and run-time overhead of the
//! seven evaluation applications, original vs. EILID.
//!
//! Compile times are per-side wall-clock medians over a configurable,
//! odd number of iterations (the paper averages 50), so one descheduled
//! sample cannot flip the sign of the overhead. Run times are simulated cycles converted
//! to microseconds at the configured clock (the paper uses 100 MHz Vivado
//! behavioural simulation), so they are fully deterministic.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use eilid::{DeviceBuilder, EilidConfig, InstrumentedBuild, Runtime};
use eilid_workloads::{Workload, WorkloadId};

use crate::paper_reference::{paper_table4, PaperTable4Row};

/// Measurement knobs for the Table IV harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Options {
    /// Number of compile iterations to take the median of (odd, so the
    /// median is one sample; the paper averages 50).
    pub compile_iterations: u32,
    /// Cycle budget per simulated run.
    pub max_cycles: u64,
    /// EILID configuration used for the protected build.
    pub config: EilidConfig,
}

impl Default for Table4Options {
    fn default() -> Self {
        Table4Options {
            compile_iterations: 51,
            max_cycles: 20_000_000,
            config: EilidConfig::default(),
        }
    }
}

impl Table4Options {
    /// Fast settings for unit/integration tests (fewer compile iterations).
    pub fn quick() -> Self {
        Table4Options {
            compile_iterations: 7,
            ..Table4Options::default()
        }
    }
}

/// One measured row of Table IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Which application.
    pub workload: WorkloadId,
    /// Median wall-clock time of the baseline (single) build.
    pub original_compile: Duration,
    /// Median wall-clock time of the full EILID pipeline (three builds +
    /// instrumentation).
    pub eilid_compile: Duration,
    /// Application binary size without instrumentation (bytes).
    pub original_bytes: usize,
    /// Application binary size with instrumentation (bytes).
    pub eilid_bytes: usize,
    /// Simulated run time of the original application (microseconds).
    pub original_us: f64,
    /// Simulated run time of the EILID-protected application (microseconds).
    pub eilid_us: f64,
    /// Simulated cycles of the original application.
    pub original_cycles: u64,
    /// Simulated cycles of the EILID-protected application.
    pub eilid_cycles: u64,
}

impl Table4Row {
    /// Compile-time overhead fraction.
    pub fn compile_overhead(&self) -> f64 {
        if self.original_compile.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.eilid_compile.as_secs_f64() / self.original_compile.as_secs_f64() - 1.0
    }

    /// Binary-size overhead fraction.
    pub fn size_overhead(&self) -> f64 {
        if self.original_bytes == 0 {
            return 0.0;
        }
        self.eilid_bytes as f64 / self.original_bytes as f64 - 1.0
    }

    /// Run-time overhead fraction.
    pub fn runtime_overhead(&self) -> f64 {
        if self.original_us == 0.0 {
            return 0.0;
        }
        self.eilid_us / self.original_us - 1.0
    }

    /// The paper's row for the same workload.
    pub fn paper(&self) -> PaperTable4Row {
        paper_table4()
            .into_iter()
            .find(|r| r.workload == self.workload)
            .expect("every workload has a paper row")
    }
}

/// A complete Table IV measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4 {
    /// Per-workload rows in the paper's order.
    pub rows: Vec<Table4Row>,
    /// Options the measurement was taken with.
    pub options: Table4Options,
}

impl Table4 {
    /// The mean of `overhead` across all workloads (0 with no rows).
    fn average(&self, overhead: fn(&Table4Row) -> f64) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(overhead).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the table in the paper's layout, with the paper's reference
    /// values alongside the measured ones.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Software          |      Compile-time      |      Binary size       |       Running time\n",
        );
        out.push_str(
            "                  |  orig(ms) EILID(ms)  % |  orig(B) EILID(B)    % |  orig(us)  EILID(us)   %  (paper %)\n",
        );
        for row in &self.rows {
            let paper = row.paper();
            out.push_str(&format!(
                "{:<18}| {:>8.1} {:>9.1} {:>4.1} | {:>7} {:>8} {:>5.1} | {:>9.1} {:>10.1} {:>4.1}  ({:>4.1})\n",
                row.workload.name(),
                row.original_compile.as_secs_f64() * 1e3,
                row.eilid_compile.as_secs_f64() * 1e3,
                row.compile_overhead() * 100.0,
                row.original_bytes,
                row.eilid_bytes,
                row.size_overhead() * 100.0,
                row.original_us,
                row.eilid_us,
                row.runtime_overhead() * 100.0,
                paper.runtime_overhead() * 100.0,
            ));
        }
        out.push_str(&format!(
            "Average overhead: compile {:.2}%  size {:.2}%  runtime {:.2}%  (paper: 34.30% / 10.78% / 7.35%)\n",
            self.average(Table4Row::compile_overhead) * 100.0,
            self.average(Table4Row::size_overhead) * 100.0,
            self.average(Table4Row::runtime_overhead) * 100.0,
        ));
        out
    }
}

/// The middle sample (the upper middle for an even count).
fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Measures one workload.
///
/// # Panics
///
/// Panics if the workload fails to build or does not run to completion —
/// both indicate a broken reproduction rather than a measurement outcome.
pub fn measure_workload(workload: &Workload, options: &Table4Options) -> Table4Row {
    let runtime =
        Runtime::build(&options.config).expect("runtime builds for the default configuration");
    let pipeline = InstrumentedBuild::new(options.config.clone());

    // Compile-time measurement: the median of each side's per-iteration
    // samples.
    let mut original_samples = Vec::new();
    let mut eilid_samples = Vec::new();
    let mut artifacts = None;
    for _ in 0..options.compile_iterations.max(1) {
        let run = pipeline
            .run(&workload.source, &runtime)
            .expect("workload instruments");
        original_samples.push(run.metrics.original_compile_time);
        eilid_samples.push(run.metrics.instrumented_compile_time);
        artifacts = Some(run);
    }
    let original_compile = median(&mut original_samples);
    let eilid_compile = median(&mut eilid_samples);
    let artifacts = artifacts.expect("at least one compile iteration ran");

    // Run-time measurement (deterministic, one run each).
    let builder = DeviceBuilder::new().config(options.config.clone());
    let mut baseline = builder
        .build_baseline(&workload.source)
        .expect("baseline builds");
    let base_outcome = baseline.run_for(options.max_cycles);
    assert!(
        base_outcome.is_completed(),
        "{} baseline did not complete: {base_outcome}",
        workload.name
    );
    let mut protected = builder
        .build_eilid(&workload.source)
        .expect("EILID device builds");
    let eilid_outcome = protected.run_for(options.max_cycles);
    assert!(
        eilid_outcome.is_completed(),
        "{} EILID run did not complete: {eilid_outcome}",
        workload.name
    );

    let clock = options.config.clock_hz;
    Table4Row {
        workload: workload.id,
        original_compile,
        eilid_compile,
        original_bytes: artifacts.metrics.original_binary_bytes,
        eilid_bytes: artifacts.metrics.instrumented_binary_bytes,
        original_us: base_outcome.micros(clock),
        eilid_us: eilid_outcome.micros(clock),
        original_cycles: base_outcome.cycles(),
        eilid_cycles: eilid_outcome.cycles(),
    }
}

/// Measures all seven workloads (the full Table IV).
pub fn measure_all(options: &Table4Options) -> Table4 {
    let rows = eilid_workloads::all()
        .iter()
        .map(|w| measure_workload(w, options))
        .collect();
    Table4 {
        rows,
        options: options.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_workload_measurement_has_consistent_overheads() {
        let options = Table4Options::quick();
        let workload = WorkloadId::LightSensor.workload();
        let row = measure_workload(&workload, &options);
        assert!(row.eilid_bytes > row.original_bytes);
        assert!(row.eilid_us > row.original_us);
        assert!(row.compile_overhead() > 0.0);
        assert!(row.runtime_overhead() > 0.0 && row.runtime_overhead() < 0.30);
        assert_eq!(row.paper().workload, WorkloadId::LightSensor);
    }

    #[test]
    fn rendering_contains_all_columns() {
        let options = Table4Options::quick();
        let workload = WorkloadId::LightSensor.workload();
        let row = measure_workload(&workload, &options);
        let table = Table4 {
            rows: vec![row],
            options,
        };
        let rendered = table.render();
        assert!(rendered.contains("LightSensor"));
        assert!(rendered.contains("Average overhead"));
    }
}
