//! EILID configuration.
//!
//! The paper's prototype reserves 256 bytes of secure DMEM for the shadow
//! stack ("it can store ≤128 return addresses and the interrupt context",
//! §V) and notes that the size is configurable. [`EilidConfig`] captures
//! those knobs plus the software protections (P1–P3) and the shadow-stack
//! index placement that the ablation experiments toggle. The hardware
//! monitor's rules are not configurable (see [`eilid_casu::monitor`]).

use std::fmt;

use serde::{Deserialize, Serialize};

use eilid_casu::MemoryLayout;

/// Default simulated clock frequency (the paper evaluates at 100 MHz).
pub const DEFAULT_CLOCK_HZ: u64 = 100_000_000;

/// Configuration of an EILID-enabled device.
///
/// # Examples
///
/// ```
/// use eilid::EilidConfig;
///
/// let config = EilidConfig::default();
/// assert_eq!(config.shadow_stack_capacity, 112);
/// assert_eq!(config.secure_dmem_bytes(), 256);
/// config.validate(&eilid_casu::MemoryLayout::default())?;
/// # Ok::<(), eilid::EilidError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EilidConfig {
    /// Number of 16-bit entries the shadow stack can hold. Interrupt
    /// contexts occupy two entries (saved PC and saved SR).
    pub shadow_stack_capacity: u16,
    /// Number of entries in the legitimate-function table used for
    /// function-level forward-edge CFI (P3).
    pub function_table_capacity: u16,
    /// Enable backward-edge protection (P1: return-address integrity).
    pub protect_returns: bool,
    /// Enable return-from-interrupt protection (P2).
    pub protect_interrupts: bool,
    /// Enable function-level forward-edge protection (P3: indirect calls).
    pub protect_indirect_calls: bool,
    /// Keep the shadow-stack index in register `r5` (the paper's
    /// optimisation, §V-B). When `false`, the index lives in secure memory
    /// and every trusted-software invocation pays two extra memory accesses;
    /// the ablation benchmark quantifies the difference.
    pub index_in_register: bool,
    /// Simulated core clock in hertz (used to convert cycles to
    /// microseconds when reporting Table IV).
    pub clock_hz: u64,
    /// Cycle budget for a single run before it is declared hung.
    pub max_cycles: u64,
}

impl Default for EilidConfig {
    fn default() -> Self {
        EilidConfig {
            // 112 return-address slots + 16 function-table slots = 256 bytes
            // of secure DMEM, matching the paper's default allocation.
            shadow_stack_capacity: 112,
            function_table_capacity: 15,
            protect_returns: true,
            protect_interrupts: true,
            protect_indirect_calls: true,
            index_in_register: true,
            clock_hz: DEFAULT_CLOCK_HZ,
            max_cycles: 50_000_000,
        }
    }
}

/// Error returned when a configuration does not fit the memory layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid EILID configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

impl EilidConfig {
    /// Bytes of secure DMEM required by this configuration: the shadow
    /// stack, one count word for the function table, and the table itself.
    pub fn secure_dmem_bytes(&self) -> usize {
        2 * usize::from(self.shadow_stack_capacity)
            + 2
            + 2 * usize::from(self.function_table_capacity)
    }

    /// Address of the shadow stack base within `layout`.
    pub fn shadow_stack_base(&self, layout: &MemoryLayout) -> u16 {
        layout.shadow_stack_base()
    }

    /// Address of the function-table count word.
    pub fn function_count_addr(&self, layout: &MemoryLayout) -> u16 {
        layout
            .shadow_stack_base()
            .wrapping_add(2 * self.shadow_stack_capacity)
    }

    /// Address of the first function-table entry.
    pub fn function_table_base(&self, layout: &MemoryLayout) -> u16 {
        self.function_count_addr(layout).wrapping_add(2)
    }

    /// Address of the shadow-stack index word in secure memory, used only
    /// when [`EilidConfig::index_in_register`] is `false`.
    pub fn index_word_addr(&self, layout: &MemoryLayout) -> u16 {
        // Stored in the last word of the secure region.
        (*layout.secure_dmem.end()) & !1
    }

    /// Checks that the configuration fits within the secure data region of
    /// `layout`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] (wrapped in [`EilidError`](crate::EilidError))
    /// when the shadow stack plus function table exceed the secure region or
    /// a capacity is zero.
    pub fn validate(&self, layout: &MemoryLayout) -> Result<(), crate::EilidError> {
        if self.shadow_stack_capacity == 0 {
            return Err(ConfigError::new("shadow stack capacity must be non-zero").into());
        }
        if self.protect_indirect_calls && self.function_table_capacity == 0 {
            return Err(ConfigError::new(
                "function table capacity must be non-zero when indirect-call protection is on",
            )
            .into());
        }
        let available = layout.secure_dmem_size();
        let needed = self.secure_dmem_bytes() + if self.index_in_register { 0 } else { 2 };
        if needed > available {
            return Err(ConfigError::new(format!(
                "secure DMEM needs {needed} bytes but the layout provides {available}"
            ))
            .into());
        }
        if self.clock_hz == 0 {
            return Err(ConfigError::new("clock frequency must be non-zero").into());
        }
        Ok(())
    }

    /// Convenience constructor matching the paper's prototype parameters.
    pub fn paper_prototype() -> Self {
        EilidConfig::default()
    }

    /// Configuration with forward-edge (P3) protection disabled, used by the
    /// forward-edge ablation.
    pub fn backward_edge_only() -> Self {
        EilidConfig {
            protect_indirect_calls: false,
            ..EilidConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_allocation() {
        let config = EilidConfig::default();
        assert_eq!(config.secure_dmem_bytes(), 256);
        config.validate(&MemoryLayout::default()).unwrap();
    }

    #[test]
    fn secure_dmem_addresses_are_laid_out_in_order() {
        let config = EilidConfig::default();
        let layout = MemoryLayout::default();
        let base = config.shadow_stack_base(&layout);
        let count = config.function_count_addr(&layout);
        let table = config.function_table_base(&layout);
        assert_eq!(base, 0x1000);
        assert_eq!(count, base + 224);
        assert_eq!(table, count + 2);
        assert!(table + 2 * config.function_table_capacity - 1 <= *layout.secure_dmem.end() + 1);
    }

    #[test]
    fn oversized_configuration_is_rejected() {
        let config = EilidConfig {
            shadow_stack_capacity: 1024,
            ..EilidConfig::default()
        };
        let err = config.validate(&MemoryLayout::default()).unwrap_err();
        assert!(err.to_string().contains("secure DMEM"));
    }

    #[test]
    fn zero_capacities_are_rejected() {
        let config = EilidConfig {
            shadow_stack_capacity: 0,
            ..EilidConfig::default()
        };
        assert!(config.validate(&MemoryLayout::default()).is_err());

        let config = EilidConfig {
            function_table_capacity: 0,
            ..EilidConfig::default()
        };
        assert!(config.validate(&MemoryLayout::default()).is_err());

        // With P3 disabled an empty function table is fine.
        let config = EilidConfig {
            function_table_capacity: 0,
            protect_indirect_calls: false,
            shadow_stack_capacity: 64,
            ..EilidConfig::default()
        };
        assert!(config.validate(&MemoryLayout::default()).is_ok());
    }

    #[test]
    fn ablation_constructors() {
        assert!(!EilidConfig::backward_edge_only().protect_indirect_calls);
        assert!(EilidConfig::paper_prototype().protect_returns);
    }

    #[test]
    fn index_word_lives_at_top_of_secure_region() {
        let config = EilidConfig {
            index_in_register: false,
            shadow_stack_capacity: 64,
            ..EilidConfig::default()
        };
        let layout = MemoryLayout::default();
        assert_eq!(config.index_word_addr(&layout), 0x10FE);
        config.validate(&layout).unwrap();
    }
}
