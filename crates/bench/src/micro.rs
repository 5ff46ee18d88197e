//! Micro-cost measurement (§VI of the paper): per-call/interrupt overhead,
//! split into the store and check paths.
//!
//! The paper reports ≈25.2 µs of instrumentation overhead per function call
//! or interrupt, of which ≈11.8 µs is spent storing control-flow metadata
//! and ≈13.4 µs checking it, with 26 and 29 introduced instructions
//! respectively. This harness measures the same quantities on the simulator
//! by running a single-call microbenchmark and attributing every cycle spent
//! in the trampolines and the secure software to the store or check path
//! (selected by the dispatch register `r4`).

use serde::{Deserialize, Serialize};

use eilid::{DeviceBuilder, EilidConfig};
use eilid_msp430::cycles_to_micros;

/// Measured micro-costs of the EILID instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroCosts {
    /// Cycles attributed to the store path, per call.
    pub store_cycles: f64,
    /// Cycles attributed to the check path, per call.
    pub check_cycles: f64,
    /// Instructions executed on the store path, per call.
    pub store_instructions: f64,
    /// Instructions executed on the check path, per call.
    pub check_instructions: f64,
    /// Total extra cycles per protected call (EILID minus baseline), per
    /// call+return pair.
    pub total_cycles_per_call: f64,
    /// Simulated clock used to convert cycles to microseconds.
    pub clock_hz: u64,
}

impl MicroCosts {
    /// Store-path cost in microseconds.
    pub fn store_us(&self) -> f64 {
        cycles_to_micros(self.store_cycles.round() as u64, self.clock_hz)
    }

    /// Check-path cost in microseconds.
    pub fn check_us(&self) -> f64 {
        cycles_to_micros(self.check_cycles.round() as u64, self.clock_hz)
    }

    /// Total per-call overhead in microseconds.
    pub fn total_us(&self) -> f64 {
        cycles_to_micros(self.total_cycles_per_call.round() as u64, self.clock_hz)
    }

    /// Renders the measurement next to the paper's reported values.
    pub fn render(&self) -> String {
        let paper = crate::paper_reference::paper_micro_costs();
        format!(
            "per-call overhead: {:.1} cycles = {:.3} us (paper: {:.1} us)\n\
             store path: {:.1} cycles = {:.3} us, {:.0} instructions (paper: {:.1} us, {} instructions)\n\
             check path: {:.1} cycles = {:.3} us, {:.0} instructions (paper: {:.1} us, {} instructions)\n\
             store/check split: {:.0}% / {:.0}% (paper: 47% / 53%)\n",
            self.total_cycles_per_call,
            self.total_us(),
            paper.per_call_us,
            self.store_cycles,
            self.store_us(),
            self.store_instructions,
            paper.store_us,
            paper.store_instructions,
            self.check_cycles,
            self.check_us(),
            self.check_instructions,
            paper.check_us,
            paper.check_instructions,
            100.0 * self.store_cycles / (self.store_cycles + self.check_cycles),
            100.0 * self.check_cycles / (self.store_cycles + self.check_cycles),
        )
    }
}

/// The microbenchmark: `CALLS` invocations of an empty leaf function.
const CALLS: u64 = 64;

fn micro_source() -> String {
    format!(
        "    .org 0xe000
    .global main
    .equ SIM_CTL, 0x0100
    .equ DONE, 0x00ff
main:
    mov #0x0400, sp
    mov #{CALLS}, r8
micro_loop:
    call #leaf
    dec r8
    jnz micro_loop
    mov #DONE, &SIM_CTL
hang:
    jmp hang
leaf:
    nop
    ret
"
    )
}

/// Measures the micro-costs with the given configuration.
///
/// # Panics
///
/// Panics if the microbenchmark fails to build or complete, which indicates
/// a broken reproduction rather than a measurement outcome.
pub fn measure_micro_costs(config: &EilidConfig) -> MicroCosts {
    let source = micro_source();
    let builder = DeviceBuilder::new().config(config.clone());

    // Baseline cycles.
    let mut baseline = builder
        .build_baseline(&source)
        .expect("micro source builds");
    let base = baseline.run_for(10_000_000);
    assert!(base.is_completed(), "baseline microbenchmark: {base}");

    // Protected run, attributing cycles by dispatch selector while the PC is
    // inside the runtime (trampolines at 0xF700.., secure ROM at 0xF800..).
    let mut device = builder
        .build_eilid(&source)
        .expect("micro source instruments");
    let runtime_start = 0xF700u16;
    let secure_start = 0xF800u16;
    let mut store_cycles = 0u64;
    let mut check_cycles = 0u64;
    let mut store_instructions = 0u64;
    let mut check_instructions = 0u64;
    let mut total_cycles = 0u64;
    // The dispatch selector is only reliable while the PC is inside the
    // trampolines (EILIDsw reuses r4 as a scratch register afterwards), so
    // latch it there and keep the latched value while in the secure ROM.
    let mut current_is_check = false;

    loop {
        if device.cpu().peripherals.sim_done() {
            break;
        }
        if total_cycles > 10_000_000 {
            panic!("protected microbenchmark did not finish");
        }
        let (&trace, violation) = device.step().expect("microbenchmark executes");
        assert!(violation.is_none(), "unexpected violation: {violation:?}");
        total_cycles += trace.cycles;
        if trace.pc >= runtime_start && trace.pc < secure_start {
            current_is_check = device.cpu().regs.read(eilid_msp430::Reg::R4) == 2;
        }
        if trace.pc >= runtime_start {
            if current_is_check {
                check_cycles += trace.cycles;
                check_instructions += 1;
            } else {
                store_cycles += trace.cycles;
                store_instructions += 1;
            }
        }
    }

    // Site-inserted instructions (mov/call before the call and before ret)
    // execute in application PMEM; split them evenly between the paths they
    // belong to by construction: 2 instructions feed the store path and 2
    // feed the check path per call.
    let site_store_cycles = 7u64 * CALLS; // mov #imm, r6 (2) + call #NS (5)
    let site_check_cycles = 7u64 * CALLS; // mov @sp, r6 (2) + call #NS (5)
    store_cycles += site_store_cycles;
    check_cycles += site_check_cycles;
    store_instructions += 2 * CALLS;
    check_instructions += 2 * CALLS;

    let baseline_cycles = base.cycles();
    let protected_cycles = total_cycles;
    let per_call = (protected_cycles.saturating_sub(baseline_cycles)) as f64 / CALLS as f64;

    MicroCosts {
        store_cycles: store_cycles as f64 / CALLS as f64,
        check_cycles: check_cycles as f64 / CALLS as f64,
        store_instructions: store_instructions as f64 / CALLS as f64,
        check_instructions: check_instructions as f64 / CALLS as f64,
        total_cycles_per_call: per_call,
        clock_hz: config.clock_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_costs_have_the_papers_shape() {
        let costs = measure_micro_costs(&EilidConfig::default());
        // Checking is more expensive than storing (paper: 11.8 vs 13.4 us).
        assert!(
            costs.check_cycles > costs.store_cycles,
            "check {} vs store {}",
            costs.check_cycles,
            costs.store_cycles
        );
        // The split is roughly balanced (paper: 47% / 53%).
        let split = costs.store_cycles / (costs.store_cycles + costs.check_cycles);
        assert!((0.35..0.50).contains(&split), "store share {split:.2}");
        // The simulator's exact per-call counts, pinned so a simulator
        // change cannot shift them unnoticed. They sit below the paper's
        // 26/29 instructions (see the README's §VI discussion).
        assert_eq!(costs.store_instructions, 15.0, "store instructions");
        assert_eq!(costs.check_instructions, 18.0, "check instructions");
        assert_eq!(costs.store_cycles, 32.0, "store cycles");
        assert_eq!(costs.check_cycles, 35.0, "check cycles");
        // The total per-call overhead is exactly its parts.
        assert_eq!(
            costs.total_cycles_per_call,
            costs.store_cycles + costs.check_cycles,
            "total vs parts"
        );
        assert!(!costs.render().is_empty());
    }
}
