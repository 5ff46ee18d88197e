//! The secure ROM's gates and the violation strobe.
//!
//! The CASU/EILID monitor enforces one fixed rule set (see
//! [`crate::monitor`]); nothing about it is configurable. What differs
//! from one trusted-software image to the next is where the secure ROM's
//! only legal entry point and its leave (exit) section lie, so those two
//! are the policy. The MMIO address the trusted software strobes to
//! report a failed control-flow check is fixed:
//! [`VIOLATION_STROBE_ADDR`].

use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

/// MMIO address of the CFI-violation strobe register.
///
/// `EILIDsw` writes a [`CfiFault`](crate::CfiFault) code here when a check
/// fails; the hardware monitor observes the write and resets the device.
pub const VIOLATION_STROBE_ADDR: u16 = 0x01F0;

/// The secure ROM's entry point and leave section.
///
/// # Examples
///
/// ```
/// use eilid_casu::CasuPolicy;
///
/// let policy = CasuPolicy::with_secure_gates(0xF800, 0xF880..=0xF881);
/// assert_eq!(policy.secure_entry, 0xF800);
/// assert!(policy.secure_leave.contains(&0xF880));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CasuPolicy {
    /// The only address at which non-secure code may enter the secure ROM.
    pub secure_entry: u16,
    /// Addresses of the secure ROM's leave section: the last secure
    /// instruction executed before returning to non-secure code must fall in
    /// this range.
    pub secure_leave: RangeInclusive<u16>,
}

impl Default for CasuPolicy {
    fn default() -> Self {
        CasuPolicy::with_secure_gates(0xF800, 0xF800..=0xFFDF)
    }
}

impl CasuPolicy {
    /// The policy for a specific secure entry point and leave section (as
    /// published by the trusted-software image).
    pub fn with_secure_gates(entry: u16, leave: RangeInclusive<u16>) -> Self {
        CasuPolicy {
            secure_entry: entry,
            secure_leave: leave,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_secure_gates_sets_entry_and_leave() {
        let p = CasuPolicy::with_secure_gates(0xFA00, 0xFB00..=0xFB10);
        assert_eq!(p.secure_entry, 0xFA00);
        assert_eq!(p.secure_leave, 0xFB00..=0xFB10);
    }
}
