//! Pre-commit bus write gate.
//!
//! On real CASU hardware the monitor sits *on the bus*: an unauthorized
//! store to program memory is blocked in the same cycle it is issued —
//! the write never reaches the flash array — and the reset line fires.
//! The simulator originally modelled only the second half (check the
//! [`crate::StepTrace`] after the step, then reset), which let a
//! violating write *commit* before the reset landed.
//!
//! [`WriteGate`] closes that gap. The CASU monitor configures it with
//! the address ranges whose bus writes must be vetoed (PMEM, secure ROM,
//! the vector table); no bus write ever lands in them. The core consults
//! it in [`crate::Cpu`]'s bus-write path *before* committing to
//! [`crate::Memory`]. A vetoed write still appears in the step trace —
//! the transaction is observable on the bus, which is exactly what the
//! monitor needs to report the violation — but memory is left untouched.
//!
//! The gate only mediates *CPU bus* writes. Direct [`crate::Memory`]
//! mutation (image loading, the authenticated update engine's
//! DMA-style payload write, test fixtures modelling physical attackers)
//! bypasses it by design: those paths are either trusted or explicitly
//! model adversaries outside CASU's software threat model.

use serde::{Deserialize, Serialize};

/// Bus-level write-protection configuration installed by the hardware
/// monitor.
///
/// # Examples
///
/// ```
/// use eilid_msp430::WriteGate;
///
/// let mut gate = WriteGate::new();
/// gate.protect(0xE000, 0xF7FF);
/// assert!(gate.blocks(0xE010));
/// assert!(!gate.blocks(0x0200));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteGate {
    /// Inclusive address ranges whose bus writes are vetoed.
    protected: Vec<(u16, u16)>,
}

impl WriteGate {
    /// An empty gate that blocks nothing.
    pub fn new() -> Self {
        WriteGate::default()
    }

    /// Adds an inclusive protected range.
    pub fn protect(&mut self, start: u16, end: u16) {
        self.protected.push((start, end));
    }

    /// `true` when a bus write to byte address `addr` must be vetoed.
    pub fn blocks(&self, addr: u16) -> bool {
        self.protected
            .iter()
            .any(|&(start, end)| addr >= start && addr <= end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_gate_blocks_nothing() {
        let gate = WriteGate::new();
        assert!(!gate.blocks(0x0000));
        assert!(!gate.blocks(0xFFFF));
    }

    #[test]
    fn protected_ranges_are_inclusive() {
        let mut gate = WriteGate::new();
        gate.protect(0xE000, 0xF7FF);
        gate.protect(0xFFE0, 0xFFFF);
        assert!(gate.blocks(0xE000));
        assert!(gate.blocks(0xF7FF));
        assert!(gate.blocks(0xFFE0));
        assert!(gate.blocks(0xFFFF));
        assert!(!gate.blocks(0xDFFF));
        assert!(!gate.blocks(0xF800));
    }
}
