//! Unified error type for the EILID core crate.

use std::fmt;

use eilid_asm::AsmError;
use eilid_msp430::{LoadImageError, StepError};

use crate::config::ConfigError;

/// Any error produced while building or running an EILID-enabled device.
#[derive(Debug)]
pub enum EilidError {
    /// Assembling the application or the trusted-software runtime failed.
    Asm(AsmError),
    /// A memory image did not fit the 64 KiB address space.
    Load(LoadImageError),
    /// The simulated core hit an undecodable instruction outside of a
    /// monitored run (during loading or self-test).
    Step(StepError),
    /// The EILID configuration does not fit secure DMEM.
    Config(ConfigError),
    /// The application cannot be instrumented.
    Instrument(String),
    /// A required symbol is missing from an assembled image.
    MissingSymbol(String),
}

impl fmt::Display for EilidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EilidError::Asm(e) => write!(f, "assembly failed: {e}"),
            EilidError::Load(e) => write!(f, "image load failed: {e}"),
            EilidError::Step(e) => write!(f, "execution failed: {e}"),
            EilidError::Config(e) => write!(f, "{e}"),
            EilidError::Instrument(msg) => write!(f, "instrumentation failed: {msg}"),
            EilidError::MissingSymbol(name) => {
                write!(f, "required symbol `{name}` missing from image")
            }
        }
    }
}

impl std::error::Error for EilidError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EilidError::Asm(e) => Some(e),
            EilidError::Load(e) => Some(e),
            EilidError::Step(e) => Some(e),
            EilidError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AsmError> for EilidError {
    fn from(e: AsmError) -> Self {
        EilidError::Asm(e)
    }
}

impl From<LoadImageError> for EilidError {
    fn from(e: LoadImageError) -> Self {
        EilidError::Load(e)
    }
}

impl From<StepError> for EilidError {
    fn from(e: StepError) -> Self {
        EilidError::Step(e)
    }
}

impl From<ConfigError> for EilidError {
    fn from(e: ConfigError) -> Self {
        EilidError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let asm_err: EilidError =
            eilid_asm::AsmError::new(2, eilid_asm::AsmErrorKind::UnknownMnemonic("frob".into()))
                .into();
        assert!(asm_err.to_string().contains("assembly failed"));
        assert!(std::error::Error::source(&asm_err).is_some());

        let missing = EilidError::MissingSymbol("S_EILID_entry".into());
        assert!(missing.to_string().contains("S_EILID_entry"));
        assert!(std::error::Error::source(&missing).is_none());

        let instr = EilidError::Instrument("no entry point".into());
        assert!(instr.to_string().contains("no entry point"));
    }
}
