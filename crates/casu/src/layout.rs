//! Device memory layout.
//!
//! CASU's (and therefore EILID's) hardware policies are expressed over a
//! partition of the 64 KiB address space into peripheral page, data memory
//! (DMEM), secure data memory (the EILID shadow-stack extension), program
//! memory (PMEM), secure ROM (trusted software) and the interrupt vector
//! table. The layout mirrors the openMSP430 configuration used by the
//! paper's prototype and is one constant, [`LAYOUT`]: nothing builds or
//! configures another.

use std::fmt;
use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

/// Classification of an address by the hardware monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Memory-mapped peripheral page.
    Peripheral,
    /// Writable data memory available to the application.
    Dmem,
    /// Secure data memory reserved for the EILID shadow stack and function
    /// table; only trusted software may touch it.
    SecureDmem,
    /// Program memory holding the (immutable) application binary.
    Pmem,
    /// Secure ROM holding the trusted software (`EILIDsw`, CASU update
    /// routine).
    SecureRom,
    /// Interrupt vector table.
    VectorTable,
    /// Addresses not covered by any configured region.
    Unmapped,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Region::Peripheral => "peripheral",
            Region::Dmem => "DMEM",
            Region::SecureDmem => "secure DMEM",
            Region::Pmem => "PMEM",
            Region::SecureRom => "secure ROM",
            Region::VectorTable => "vector table",
            Region::Unmapped => "unmapped",
        };
        write!(f, "{name}")
    }
}

/// Partition of the address space used by the CASU/EILID hardware monitor.
///
/// The reproduction has one map, [`LAYOUT`], and the queries of this
/// module read it.
///
/// # Examples
///
/// ```
/// use eilid_casu::layout::{region_of, shadow_stack_base};
/// use eilid_casu::Region;
///
/// assert_eq!(region_of(0x0300), Region::Dmem);
/// assert_eq!(region_of(0xE000), Region::Pmem);
/// assert_eq!(region_of(shadow_stack_base()), Region::SecureDmem);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryLayout {
    /// Peripheral page (inclusive).
    pub peripherals: RangeInclusive<u16>,
    /// Application data memory (inclusive).
    pub dmem: RangeInclusive<u16>,
    /// Secure data memory for EILID control-flow metadata (inclusive).
    pub secure_dmem: RangeInclusive<u16>,
    /// Application program memory (inclusive).
    pub pmem: RangeInclusive<u16>,
    /// Secure ROM for trusted software (inclusive).
    pub secure_rom: RangeInclusive<u16>,
    /// Interrupt vector table (inclusive).
    pub vector_table: RangeInclusive<u16>,
}

/// The memory map of the paper's openMSP430 prototype: the one map the
/// monitor, the update engine, the trusted software and attestation use.
pub const LAYOUT: MemoryLayout = MemoryLayout {
    peripherals: 0x0000..=0x01FF,
    dmem: 0x0200..=0x0FFF,
    secure_dmem: 0x1000..=0x10FF,
    pmem: 0xE000..=0xF7FF,
    secure_rom: 0xF800..=0xFFDF,
    vector_table: 0xFFE0..=0xFFFF,
};

// The regions are non-empty, in ascending address order and therefore
// disjoint: the monitor's one-region fetch-span check relies on it.
const _: () = {
    let regions = [
        &LAYOUT.peripherals,
        &LAYOUT.dmem,
        &LAYOUT.secure_dmem,
        &LAYOUT.pmem,
        &LAYOUT.secure_rom,
        &LAYOUT.vector_table,
    ];
    let mut i = 0;
    while i < regions.len() {
        assert!(*regions[i].start() <= *regions[i].end(), "empty region");
        assert!(
            i == 0 || *regions[i - 1].end() < *regions[i].start(),
            "regions out of order or overlapping"
        );
        i += 1;
    }
};

/// Classifies an address.
#[inline]
pub fn region_of(addr: u16) -> Region {
    if LAYOUT.peripherals.contains(&addr) {
        Region::Peripheral
    } else if LAYOUT.dmem.contains(&addr) {
        Region::Dmem
    } else if LAYOUT.secure_dmem.contains(&addr) {
        Region::SecureDmem
    } else if LAYOUT.pmem.contains(&addr) {
        Region::Pmem
    } else if LAYOUT.secure_rom.contains(&addr) {
        Region::SecureRom
    } else if LAYOUT.vector_table.contains(&addr) {
        Region::VectorTable
    } else {
        Region::Unmapped
    }
}

/// `true` if `addr` may legally be executed from (PMEM or secure ROM).
#[inline]
pub fn is_executable(addr: u16) -> bool {
    matches!(region_of(addr), Region::Pmem | Region::SecureRom)
}

/// `true` if `addr` lies in the secure ROM.
#[inline]
pub fn in_secure_rom(addr: u16) -> bool {
    LAYOUT.secure_rom.contains(&addr)
}

/// `true` if `addr` lies in secure data memory.
#[inline]
pub fn in_secure_dmem(addr: u16) -> bool {
    LAYOUT.secure_dmem.contains(&addr)
}

/// First address of the secure data region; EILID places the shadow
/// stack here (paper §V: 256 bytes of secure DMEM).
pub const fn shadow_stack_base() -> u16 {
    *LAYOUT.secure_dmem.start()
}

/// Size of the secure data region in bytes.
pub const fn secure_dmem_size() -> usize {
    *LAYOUT.secure_dmem.end() as usize - *LAYOUT.secure_dmem.start() as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_valid_and_covers_key_regions() {
        assert_eq!(region_of(0x0100), Region::Peripheral);
        assert_eq!(region_of(0x0200), Region::Dmem);
        assert_eq!(region_of(0x1000), Region::SecureDmem);
        assert_eq!(region_of(0xE000), Region::Pmem);
        assert_eq!(region_of(0xF800), Region::SecureRom);
        assert_eq!(region_of(0xFFFE), Region::VectorTable);
        assert_eq!(region_of(0x2000), Region::Unmapped);
    }

    #[test]
    fn executability_follows_regions() {
        assert!(is_executable(0xE100));
        assert!(is_executable(0xF900));
        assert!(!is_executable(0x0300));
        assert!(!is_executable(0x1000));
        assert!(!is_executable(0x0100));
    }

    #[test]
    fn secure_region_helpers() {
        assert_eq!(shadow_stack_base(), 0x1000);
        assert_eq!(secure_dmem_size(), 256);
        assert!(in_secure_rom(0xF800));
        assert!(!in_secure_rom(0xE000));
        assert!(in_secure_dmem(0x10FF));
        assert!(!in_secure_dmem(0x1100));
    }

    #[test]
    fn region_display_names() {
        assert_eq!(Region::SecureRom.to_string(), "secure ROM");
        assert_eq!(Region::Unmapped.to_string(), "unmapped");
    }
}
