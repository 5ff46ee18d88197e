//! The iterated instrumented-build pipeline (paper Figure 2).
//!
//! The paper builds each application three times:
//!
//! 1. the original source is built to obtain a listing (`app_1.lst`);
//! 2. the instrumenter inserts the EILID instrumentation and the result is
//!    built again — instruction addresses shift because of the inserted
//!    code, so the return addresses embedded by Figure 3 are still stale;
//! 3. the instrumentation is re-applied using the shifted listing and the
//!    final binary is built. Because the *set* of insertions is identical,
//!    the layout no longer moves and the embedded return addresses are
//!    correct.
//!
//! [`InstrumentedBuild::run`] reproduces that flow and records the
//! compile-time and binary-size metrics reported in Table IV.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use eilid_asm::{assemble_program, parse, Image, Program};

use crate::config::EilidConfig;
use crate::error::EilidError;
use crate::instrument::analysis::{analyze, AppAnalysis};
use crate::instrument::report::InstrumentationReport;
use crate::instrument::rewrite::{patch_return_addresses, rewrite};
use crate::sw::Runtime;

/// Compile-time and size metrics of one instrumented build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildMetrics {
    /// Wall-clock time of the baseline (single-iteration) build.
    pub original_compile_time: Duration,
    /// Wall-clock time of the full EILID pipeline (analysis, rewriting and
    /// all build iterations).
    pub instrumented_compile_time: Duration,
    /// Number of build iterations performed (3, per Figure 2).
    pub iterations: usize,
    /// Application binary size without instrumentation, in bytes.
    pub original_binary_bytes: usize,
    /// Application binary size with instrumentation, in bytes.
    pub instrumented_binary_bytes: usize,
}

impl BuildMetrics {
    /// Compile-time overhead as a fraction (e.g. `0.30` for +30 %).
    pub fn compile_time_overhead(&self) -> f64 {
        let original = self.original_compile_time.as_secs_f64();
        if original == 0.0 {
            return 0.0;
        }
        self.instrumented_compile_time.as_secs_f64() / original - 1.0
    }

    /// Binary-size overhead as a fraction.
    pub fn binary_size_overhead(&self) -> f64 {
        if self.original_binary_bytes == 0 {
            return 0.0;
        }
        self.instrumented_binary_bytes as f64 / self.original_binary_bytes as f64 - 1.0
    }

    /// Binary growth in bytes.
    pub fn added_bytes(&self) -> usize {
        self.instrumented_binary_bytes
            .saturating_sub(self.original_binary_bytes)
    }
}

/// Everything produced by one run of the instrumented-build pipeline.
#[derive(Debug, Clone)]
pub struct BuildArtifacts {
    /// The original (uninstrumented) application image.
    pub original_image: Image,
    /// The final instrumented application image.
    pub instrumented_image: Image,
    /// The instrumented program (with patched return addresses).
    pub instrumented_program: Program,
    /// The instrumented assembly source.
    pub instrumented_source: String,
    /// Static analysis of the original application.
    pub analysis: AppAnalysis,
    /// What the instrumenter inserted, plus warnings.
    pub report: InstrumentationReport,
    /// Compile-time and size metrics (Table IV inputs).
    pub metrics: BuildMetrics,
}

/// The iterated instrumented-build pipeline.
#[derive(Debug, Clone)]
pub struct InstrumentedBuild {
    config: EilidConfig,
}

impl InstrumentedBuild {
    /// Creates a pipeline for the given configuration.
    pub fn new(config: EilidConfig) -> Self {
        InstrumentedBuild { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &EilidConfig {
        &self.config
    }

    /// Runs the full Figure 2 flow on `app_source`, linking the
    /// instrumentation against `runtime`.
    ///
    /// # Errors
    ///
    /// Returns [`EilidError`] if the application fails to parse or assemble,
    /// or if it cannot be instrumented (e.g. the function table is too
    /// small).
    pub fn run(&self, app_source: &str, runtime: &Runtime) -> Result<BuildArtifacts, EilidError> {
        // Baseline: one plain build of the original application.
        let original_start = Instant::now();
        let original_program = parse(app_source)?;
        let original_image = assemble_program(&original_program)?;
        let original_compile_time = original_start.elapsed();

        // EILID pipeline (three iterations, Figure 2).
        let instrumented_start = Instant::now();

        // Iteration 1: build the original source to obtain a listing. The
        // instrumenter only needs the source structure from this build; the
        // addresses it contains are superseded by iteration 2's listing.
        let program_iter1 = parse(app_source)?;
        let _listing_iter1 = assemble_program(&program_iter1)?;

        // Iteration 2: instrument and build; addresses shift.
        let analysis = analyze(&program_iter1);
        let mut rewritten = rewrite(
            &program_iter1,
            &analysis,
            &runtime.trampoline_symbols(),
            &self.config,
        )?;
        let image_iter2 = assemble_program(&rewritten.program)?;

        // Iteration 3: patch the shifted return addresses and rebuild.
        patch_return_addresses(
            &mut rewritten.program,
            &rewritten.patch_points,
            &image_iter2.listing,
        )?;
        let instrumented_image = assemble_program(&rewritten.program)?;
        debug_assert_eq!(
            instrumented_image.code_size(),
            image_iter2.code_size(),
            "instrumented layout must be stable between iterations 2 and 3"
        );
        let instrumented_compile_time = instrumented_start.elapsed();

        let metrics = BuildMetrics {
            original_compile_time,
            instrumented_compile_time,
            iterations: 3,
            original_binary_bytes: original_image.code_size(),
            instrumented_binary_bytes: instrumented_image.code_size(),
        };

        let instrumented_source = rewritten.program.to_source();
        Ok(BuildArtifacts {
            original_image,
            instrumented_image,
            instrumented_program: rewritten.program,
            instrumented_source,
            analysis,
            report: rewritten.report,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eilid_casu::MemoryLayout;

    const APP: &str = "    .org 0xe000
    .global main
    .equ SIM_CTL, 0x0100
    .equ SIM_OUT, 0x0102
    .equ DONE, 0x00ff
main:
    mov #0x0400, sp
    mov #3, r10
    call #triple
    mov r10, &SIM_OUT
    mov #DONE, &SIM_CTL
hang:
    jmp hang
triple:
    mov r10, r11
    add r11, r10
    add r11, r10
    ret
";

    fn runtime() -> Runtime {
        Runtime::build(&EilidConfig::default(), &MemoryLayout::default()).unwrap()
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let build = InstrumentedBuild::new(EilidConfig::default());
        let artifacts = build.run(APP, &runtime()).unwrap();
        assert_eq!(artifacts.metrics.iterations, 3);
        assert!(
            artifacts.metrics.instrumented_binary_bytes > artifacts.metrics.original_binary_bytes
        );
        assert!(artifacts.metrics.added_bytes() > 0);
        assert!(artifacts.metrics.binary_size_overhead() > 0.0);
        assert_eq!(artifacts.report.call_sites, 1);
        assert_eq!(artifacts.report.returns, 1);
        assert!(artifacts.instrumented_source.contains("NS_EILID_store_ra"));
        // The instrumented image still resolves the application symbols.
        assert!(artifacts.instrumented_image.symbol("triple").is_some());
        assert!(artifacts.instrumented_image.entry.is_some());
    }

    #[test]
    fn patched_return_address_points_after_the_call() {
        let build = InstrumentedBuild::new(EilidConfig::default());
        let artifacts = build.run(APP, &runtime()).unwrap();
        // Find the patched mov: its immediate must equal the address of the
        // instruction following `call #triple` in the final listing.
        let listing = &artifacts.instrumented_image.listing;
        let call_idx = artifacts
            .instrumented_program
            .lines
            .iter()
            .position(|l| match &l.statement {
                eilid_asm::Statement::Instruction { mnemonic, operands } => {
                    mnemonic == "call"
                        && operands
                            .first()
                            .map(|o| o.to_string() == "#triple")
                            .unwrap_or(false)
                }
                _ => false,
            })
            .expect("call #triple present");
        let expected_return = listing.entries[call_idx].end_address().unwrap();
        let mov_line = &artifacts.instrumented_program.lines[call_idx - 1];
        match &mov_line.statement {
            eilid_asm::Statement::Instruction { mnemonic, operands } => {
                assert_eq!(mnemonic, "call");
                // call #NS_EILID_store_ra sits directly before the call; the
                // patched mov is one line earlier.
                let _ = operands;
            }
            other => panic!("unexpected {other:?}"),
        }
        let mov_line = &artifacts.instrumented_program.lines[call_idx - 2];
        match &mov_line.statement {
            eilid_asm::Statement::Instruction { operands, .. } => {
                assert_eq!(
                    operands[0],
                    eilid_asm::OperandSpec::Immediate(eilid_asm::Expr::Number(expected_return))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_overheads_are_finite_and_positive() {
        let build = InstrumentedBuild::new(EilidConfig::default());
        let artifacts = build.run(APP, &runtime()).unwrap();
        let m = &artifacts.metrics;
        assert!(m.compile_time_overhead().is_finite());
        assert!(m.binary_size_overhead() > 0.0 && m.binary_size_overhead() < 2.0);
    }

    #[test]
    fn parse_errors_propagate() {
        let build = InstrumentedBuild::new(EilidConfig::default());
        assert!(build.run("    frobnicate r1\n", &runtime()).is_err());
    }
}
