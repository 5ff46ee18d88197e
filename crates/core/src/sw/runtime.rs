//! Assembled trusted-software runtime.
//!
//! [`Runtime`] assembles the emitted runtime source (see
//! [`emit`](crate::sw::emit)) and resolves the addresses the rest of the
//! system needs: the secure entry point and leave section for the CASU
//! policy gates, and the `NS_EILID_*` trampoline addresses the instrumenter
//! links instrumented applications against.

use std::collections::BTreeMap;

use eilid_asm::{assemble, Image};
use eilid_casu::{CasuPolicy, MemoryLayout};

use crate::config::EilidConfig;
use crate::error::EilidError;
use crate::sw::dispatch::{Selector, ENTRY_SYMBOL, LEAVE_SYMBOL};
use crate::sw::emit::{emit_runtime_source, RuntimeParams};

/// The assembled EILID runtime (trampolines + secure software).
#[derive(Debug, Clone)]
pub struct Runtime {
    params: RuntimeParams,
    source: String,
    image: Image,
    entry: u16,
    leave_start: u16,
    leave_end: u16,
}

impl Runtime {
    /// Emits and assembles the runtime for a configuration and layout.
    ///
    /// # Errors
    ///
    /// Returns [`EilidError`] if the configuration does not fit the layout
    /// or the generated assembly fails to build (which would be an internal
    /// bug surfaced as [`EilidError::Asm`]).
    pub fn build(config: &EilidConfig, layout: &MemoryLayout) -> Result<Self, EilidError> {
        layout.validate()?;
        config.validate(layout)?;
        let params = RuntimeParams::new(config, layout);
        let source = emit_runtime_source(&params);
        let image = assemble(&source)?;

        let entry = image
            .symbol(ENTRY_SYMBOL)
            .ok_or_else(|| EilidError::MissingSymbol(ENTRY_SYMBOL.into()))?;
        let leave_start = image
            .symbol(LEAVE_SYMBOL)
            .ok_or_else(|| EilidError::MissingSymbol(LEAVE_SYMBOL.into()))?;
        // The leave section is a single `ret` (2 bytes).
        let leave_end = leave_start.wrapping_add(1);

        Ok(Runtime {
            params,
            source,
            image,
            entry,
            leave_start,
            leave_end,
        })
    }

    /// The resolved runtime parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// The generated assembly source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The assembled runtime image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Address of the secure entry point (`S_EILID_entry`).
    pub fn entry(&self) -> u16 {
        self.entry
    }

    /// Address range of the leave section.
    pub fn leave_range(&self) -> std::ops::RangeInclusive<u16> {
        self.leave_start..=self.leave_end
    }

    /// Bytes of secure ROM occupied by `EILIDsw`.
    pub fn secure_rom_bytes(&self) -> usize {
        self.image
            .segments
            .iter()
            .filter(|s| s.base >= self.params.secure_org)
            .map(|s| s.bytes.len())
            .sum()
    }

    /// Bytes of PMEM occupied by the non-secure trampolines.
    pub fn trampoline_bytes(&self) -> usize {
        self.image
            .segments
            .iter()
            .filter(|s| s.base < self.params.secure_org)
            .map(|s| s.bytes.len())
            .sum()
    }

    /// Addresses of every `NS_EILID_*` trampoline, keyed by symbol name.
    /// The instrumenter injects these as `.equ` definitions into the
    /// application source, playing the role of linking against the fixed
    /// ROM image.
    pub fn trampoline_symbols(&self) -> BTreeMap<String, u16> {
        Selector::ALL
            .iter()
            .filter_map(|s| {
                self.image
                    .symbol(s.trampoline_symbol())
                    .map(|addr| (s.trampoline_symbol().to_string(), addr))
            })
            .collect()
    }

    /// The CASU secure gates of this runtime: its entry point and leave
    /// section.
    pub fn policy(&self) -> CasuPolicy {
        CasuPolicy::with_secure_gates(self.entry, self.leave_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> Runtime {
        Runtime::build(&EilidConfig::default(), &MemoryLayout::default())
            .expect("default runtime builds")
    }

    #[test]
    fn runtime_builds_and_resolves_gates() {
        let rt = runtime();
        assert!(rt.entry() >= 0xF800);
        assert!(rt.leave_range().start() > &rt.entry());
        assert!(rt.leave_range().end() <= &0xFFDF);
        assert!(rt.secure_rom_bytes() > 50);
        assert!(rt.secure_rom_bytes() < 512, "EILIDsw should stay tiny");
        assert!(rt.trampoline_bytes() > 20);
        assert!(rt.trampoline_bytes() < 128);
        assert!(rt.source().contains("S_EILID_store_ra"));
    }

    #[test]
    fn all_trampolines_are_resolved() {
        let rt = runtime();
        let symbols = rt.trampoline_symbols();
        assert_eq!(symbols.len(), 6);
        for selector in Selector::ALL {
            let addr = symbols[selector.trampoline_symbol()];
            assert!((0xF700..0xF800).contains(&addr), "{addr:#06x}");
        }
    }

    #[test]
    fn policy_points_at_runtime() {
        let rt = runtime();
        let policy = rt.policy();
        assert_eq!(policy.secure_entry, rt.entry());
        assert_eq!(policy.secure_leave, rt.leave_range());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = EilidConfig {
            shadow_stack_capacity: 0,
            ..EilidConfig::default()
        };
        assert!(Runtime::build(&config, &MemoryLayout::default()).is_err());
    }

    #[test]
    fn memory_index_variant_builds_and_is_larger() {
        let fast = runtime();
        // A smaller shadow stack leaves room for the in-memory index word.
        let slow = Runtime::build(
            &EilidConfig {
                index_in_register: false,
                shadow_stack_capacity: 64,
                ..EilidConfig::default()
            },
            &MemoryLayout::default(),
        )
        .unwrap();
        assert!(slow.secure_rom_bytes() > fast.secure_rom_bytes());
    }
}
