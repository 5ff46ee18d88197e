//! Device memory layout.
//!
//! CASU's (and therefore EILID's) hardware policies are expressed over a
//! partition of the 64 KiB address space into peripheral page, data memory
//! (DMEM), secure data memory (the EILID shadow-stack extension), program
//! memory (PMEM), secure ROM (trusted software) and the interrupt vector
//! table. The layout mirrors the openMSP430 configuration used by the
//! paper's prototype; all boundaries are configurable.

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

/// Error returned when a [`MemoryLayout`] is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError {
    message: String,
}

impl LayoutError {
    fn new(message: impl Into<String>) -> Self {
        LayoutError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid memory layout: {}", self.message)
    }
}

impl std::error::Error for LayoutError {}

/// Partition of the address space used by the CASU/EILID hardware monitor.
///
/// # Examples
///
/// ```
/// use eilid_casu::{MemoryLayout, Region};
///
/// let layout = MemoryLayout::default();
/// assert_eq!(layout.region_of(0x0300), Region::Dmem);
/// assert_eq!(layout.region_of(0xE000), Region::Pmem);
/// assert_eq!(layout.region_of(layout.shadow_stack_base()), Region::SecureDmem);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout {
            peripherals: 0x0000..=0x01FF,
            dmem: 0x0200..=0x0FFF,
            secure_dmem: 0x1000..=0x10FF,
            pmem: 0xE000..=0xF7FF,
            secure_rom: 0xF800..=0xFFDF,
            vector_table: 0xFFE0..=0xFFFF,
        }
    }
}

impl MemoryLayout {
    /// Validates that regions are non-empty and mutually disjoint.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] when two regions overlap or a region is empty.
    pub fn validate(&self) -> Result<(), LayoutError> {
        let regions: [(&str, &RangeInclusive<u16>); 6] = [
            ("peripherals", &self.peripherals),
            ("dmem", &self.dmem),
            ("secure_dmem", &self.secure_dmem),
            ("pmem", &self.pmem),
            ("secure_rom", &self.secure_rom),
            ("vector_table", &self.vector_table),
        ];
        for (name, range) in &regions {
            if range.is_empty() {
                return Err(LayoutError::new(format!("region `{name}` is empty")));
            }
        }
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                let (name_a, a) = regions[i];
                let (name_b, b) = regions[j];
                if a.start() <= b.end() && b.start() <= a.end() {
                    return Err(LayoutError::new(format!(
                        "regions `{name_a}` and `{name_b}` overlap"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Classifies an address.
    #[inline]
    pub fn region_of(&self, addr: u16) -> Region {
        if self.peripherals.contains(&addr) {
            Region::Peripheral
        } else if self.dmem.contains(&addr) {
            Region::Dmem
        } else if self.secure_dmem.contains(&addr) {
            Region::SecureDmem
        } else if self.pmem.contains(&addr) {
            Region::Pmem
        } else if self.secure_rom.contains(&addr) {
            Region::SecureRom
        } else if self.vector_table.contains(&addr) {
            Region::VectorTable
        } else {
            Region::Unmapped
        }
    }

    /// `true` if `addr` may legally be executed from (PMEM or secure ROM).
    #[inline]
    pub fn is_executable(&self, addr: u16) -> bool {
        matches!(self.region_of(addr), Region::Pmem | Region::SecureRom)
    }

    /// `true` if `addr` lies in the secure ROM.
    #[inline]
    pub fn in_secure_rom(&self, addr: u16) -> bool {
        self.secure_rom.contains(&addr)
    }

    /// `true` if `addr` lies in secure data memory.
    #[inline]
    pub fn in_secure_dmem(&self, addr: u16) -> bool {
        self.secure_dmem.contains(&addr)
    }

    /// First address of the secure data region; EILID places the shadow
    /// stack here (paper §V: 256 bytes of secure DMEM).
    pub fn shadow_stack_base(&self) -> u16 {
        *self.secure_dmem.start()
    }

    /// Size of the secure data region in bytes.
    pub fn secure_dmem_size(&self) -> usize {
        usize::from(*self.secure_dmem.end()) - usize::from(*self.secure_dmem.start()) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_valid_and_covers_key_regions() {
        let layout = MemoryLayout::default();
        layout.validate().expect("default layout is consistent");
        assert_eq!(layout.region_of(0x0100), Region::Peripheral);
        assert_eq!(layout.region_of(0x0200), Region::Dmem);
        assert_eq!(layout.region_of(0x1000), Region::SecureDmem);
        assert_eq!(layout.region_of(0xE000), Region::Pmem);
        assert_eq!(layout.region_of(0xF800), Region::SecureRom);
        assert_eq!(layout.region_of(0xFFFE), Region::VectorTable);
        assert_eq!(layout.region_of(0x2000), Region::Unmapped);
    }

    #[test]
    fn overlap_is_rejected() {
        let layout = MemoryLayout {
            secure_dmem: 0x0F00..=0x10FF,
            ..MemoryLayout::default()
        };
        let err = layout.validate().unwrap_err();
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn empty_region_is_rejected() {
        let layout = MemoryLayout {
            #[allow(clippy::reversed_empty_ranges)]
            secure_dmem: 0x1100..=0x10FF,
            ..MemoryLayout::default()
        };
        assert!(layout.validate().is_err());
    }

    #[test]
    fn executability_follows_regions() {
        let layout = MemoryLayout::default();
        assert!(layout.is_executable(0xE100));
        assert!(layout.is_executable(0xF900));
        assert!(!layout.is_executable(0x0300));
        assert!(!layout.is_executable(0x1000));
        assert!(!layout.is_executable(0x0100));
    }

    #[test]
    fn secure_region_helpers() {
        let layout = MemoryLayout::default();
        assert_eq!(layout.shadow_stack_base(), 0x1000);
        assert_eq!(layout.secure_dmem_size(), 256);
        assert!(layout.in_secure_rom(0xF800));
        assert!(!layout.in_secure_rom(0xE000));
        assert!(layout.in_secure_dmem(0x10FF));
        assert!(!layout.in_secure_dmem(0x1100));
    }

    #[test]
    fn region_display_names() {
        assert_eq!(Region::SecureRom.to_string(), "secure ROM");
        assert_eq!(Region::Unmapped.to_string(), "unmapped");
    }
}
