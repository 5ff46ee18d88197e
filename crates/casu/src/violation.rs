//! Violations detected by the hardware monitor.
//!
//! CASU (and the EILID extension on top of it) is an *active* Root-of-Trust:
//! every violation triggers an immediate device reset rather than being
//! merely logged for a later attestation round. The [`Violation`] enum
//! enumerates every condition that causes such a reset.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::layout::Region;

/// Reason code written by `EILIDsw` to the violation strobe when a CFI check
/// fails. The values are part of the trusted-software ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CfiFault {
    /// A function return address did not match the shadow stack (P1).
    ReturnAddress,
    /// An interrupt context was tampered with while the ISR ran (P2).
    InterruptContext,
    /// An indirect call targeted an address outside the function table (P3).
    IndirectCall,
    /// The shadow stack overflowed its secure-memory allocation.
    ShadowStackOverflow,
    /// The shadow stack underflowed (more returns than calls).
    ShadowStackUnderflow,
    /// The function table overflowed its secure-memory allocation.
    FunctionTableOverflow,
    /// An unknown fault code was strobed.
    Unknown(u16),
}

impl CfiFault {
    /// Strobe value written by the trusted software for this fault.
    pub fn code(self) -> u16 {
        match self {
            CfiFault::ReturnAddress => 0xDEA1,
            CfiFault::InterruptContext => 0xDEA2,
            CfiFault::IndirectCall => 0xDEA3,
            CfiFault::ShadowStackOverflow => 0xDEA4,
            CfiFault::ShadowStackUnderflow => 0xDEA5,
            CfiFault::FunctionTableOverflow => 0xDEA6,
            CfiFault::Unknown(v) => v,
        }
    }

    /// Decodes a strobe value.
    pub fn from_code(code: u16) -> Self {
        match code {
            0xDEA1 => CfiFault::ReturnAddress,
            0xDEA2 => CfiFault::InterruptContext,
            0xDEA3 => CfiFault::IndirectCall,
            0xDEA4 => CfiFault::ShadowStackOverflow,
            0xDEA5 => CfiFault::ShadowStackUnderflow,
            0xDEA6 => CfiFault::FunctionTableOverflow,
            other => CfiFault::Unknown(other),
        }
    }
}

impl fmt::Display for CfiFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfiFault::ReturnAddress => write!(f, "return-address mismatch (P1)"),
            CfiFault::InterruptContext => write!(f, "interrupt-context mismatch (P2)"),
            CfiFault::IndirectCall => write!(f, "illegal indirect-call target (P3)"),
            CfiFault::ShadowStackOverflow => write!(f, "shadow-stack overflow"),
            CfiFault::ShadowStackUnderflow => write!(f, "shadow-stack underflow"),
            CfiFault::FunctionTableOverflow => write!(f, "function-table overflow"),
            CfiFault::Unknown(v) => write!(f, "unknown CFI fault code {v:#06x}"),
        }
    }
}

/// A policy violation that forces a device reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// A bus write targeted program memory, which only the authenticated
    /// update engine may change.
    PmemWrite {
        /// Written address.
        addr: u16,
        /// Program counter of the offending instruction.
        pc: u16,
    },
    /// A write targeted the secure ROM.
    SecureRomWrite {
        /// Written address.
        addr: u16,
        /// Program counter of the offending instruction.
        pc: u16,
    },
    /// A write targeted the interrupt vector table.
    VectorTableWrite {
        /// Written address.
        addr: u16,
        /// Program counter of the offending instruction.
        pc: u16,
    },
    /// An instruction was fetched from a non-executable region (W⊕X).
    ExecutionFromWritableMemory {
        /// Program counter of the fetch.
        pc: u16,
        /// Region the fetch fell into.
        region: Region,
    },
    /// Non-secure code jumped into the secure ROM somewhere other than the
    /// published entry point.
    SecureEntryViolation {
        /// Address that was entered.
        pc: u16,
        /// The only legal entry address.
        entry: u16,
    },
    /// Secure execution left the secure ROM from an address other than the
    /// leave section.
    SecureExitViolation {
        /// Last secure address executed.
        from: u16,
        /// First non-secure address executed.
        to: u16,
    },
    /// Non-secure code accessed the secure data region (shadow stack).
    SecureDataAccess {
        /// Accessed address.
        addr: u16,
        /// Program counter of the offending instruction.
        pc: u16,
        /// `true` for a write, `false` for a read.
        write: bool,
    },
    /// An interrupt was accepted while trusted software was executing,
    /// breaking CASU's atomicity guarantee.
    SecureAtomicityViolation {
        /// Program counter inside the secure ROM at interrupt time.
        pc: u16,
    },
    /// The trusted software reported a failed control-flow check.
    Cfi {
        /// Decoded fault class.
        fault: CfiFault,
    },
    /// The core attempted to execute an undecodable instruction word.
    DecodeFault {
        /// Program counter of the fault.
        pc: u16,
    },
}

impl Violation {
    /// `true` if the violation came from an EILID control-flow check rather
    /// than a CASU memory-protection rule.
    pub fn is_cfi(&self) -> bool {
        matches!(self, Violation::Cfi { .. })
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PmemWrite { addr, pc } => {
                write!(f, "write to PMEM {addr:#06x} from pc {pc:#06x}")
            }
            Violation::SecureRomWrite { addr, pc } => {
                write!(f, "write to secure ROM {addr:#06x} from pc {pc:#06x}")
            }
            Violation::VectorTableWrite { addr, pc } => {
                write!(f, "write to vector table {addr:#06x} from pc {pc:#06x}")
            }
            Violation::ExecutionFromWritableMemory { pc, region } => {
                write!(f, "execution from {region} at pc {pc:#06x}")
            }
            Violation::SecureEntryViolation { pc, entry } => write!(
                f,
                "secure ROM entered at {pc:#06x} instead of entry point {entry:#06x}"
            ),
            Violation::SecureExitViolation { from, to } => write!(
                f,
                "secure ROM left from {from:#06x} to {to:#06x} outside the leave section"
            ),
            Violation::SecureDataAccess { addr, pc, write } => write!(
                f,
                "{} of secure data {addr:#06x} from non-secure pc {pc:#06x}",
                if *write { "write" } else { "read" }
            ),
            Violation::SecureAtomicityViolation { pc } => {
                write!(f, "interrupt accepted during secure execution at {pc:#06x}")
            }
            Violation::Cfi { fault } => write!(f, "control-flow violation: {fault}"),
            Violation::DecodeFault { pc } => write!(f, "undecodable instruction at {pc:#06x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfi_fault_codes_roundtrip() {
        for fault in [
            CfiFault::ReturnAddress,
            CfiFault::InterruptContext,
            CfiFault::IndirectCall,
            CfiFault::ShadowStackOverflow,
            CfiFault::ShadowStackUnderflow,
            CfiFault::FunctionTableOverflow,
        ] {
            assert_eq!(CfiFault::from_code(fault.code()), fault);
        }
        assert_eq!(CfiFault::from_code(0x1234), CfiFault::Unknown(0x1234));
    }

    #[test]
    fn violation_classification() {
        let cfi = Violation::Cfi {
            fault: CfiFault::ReturnAddress,
        };
        assert!(cfi.is_cfi());
        let hw = Violation::PmemWrite {
            addr: 0xE000,
            pc: 0xE100,
        };
        assert!(!hw.is_cfi());
    }

    #[test]
    fn displays_are_informative() {
        let samples: Vec<Violation> = vec![
            Violation::PmemWrite {
                addr: 0xE000,
                pc: 0xE100,
            },
            Violation::SecureRomWrite {
                addr: 0xF800,
                pc: 0xE100,
            },
            Violation::VectorTableWrite {
                addr: 0xFFFE,
                pc: 0xE100,
            },
            Violation::ExecutionFromWritableMemory {
                pc: 0x0300,
                region: Region::Dmem,
            },
            Violation::SecureEntryViolation {
                pc: 0xF810,
                entry: 0xF800,
            },
            Violation::SecureExitViolation {
                from: 0xF820,
                to: 0xE200,
            },
            Violation::SecureDataAccess {
                addr: 0x1000,
                pc: 0xE200,
                write: true,
            },
            Violation::SecureAtomicityViolation { pc: 0xF810 },
            Violation::Cfi {
                fault: CfiFault::IndirectCall,
            },
            Violation::DecodeFault { pc: 0xE123 },
        ];
        for v in samples {
            assert!(!v.to_string().is_empty());
        }
    }
}
