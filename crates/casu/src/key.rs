//! Typed device keys with a minimum-length guard and per-device derivation.
//!
//! The raw `&[u8]` constructors on [`crate::UpdateAuthority`],
//! [`crate::UpdateEngine`], [`crate::Attestor`] and
//! [`crate::AttestationVerifier`] accept any byte string, which makes it
//! too easy to deploy a fleet with eight-byte keys. [`DeviceKey`] enforces
//! a minimum length at construction and adds the derivation scheme a
//! fleet uses to give every device a unique symmetric key from one root:
//!
//! ```text
//! K_dev = HMAC-SHA256(K_root, "eilid-device-key" ‖ device_id_le64)
//! ```
//!
//! Compromise of a single device therefore never reveals the key of any
//! other device, and the verifier can re-derive every device key on
//! demand instead of storing millions of them.
//!
//! # Examples
//!
//! ```
//! use eilid_casu::DeviceKey;
//!
//! let root = DeviceKey::new(b"fleet-root-key-0123456789abcdef").unwrap();
//! let a = root.derive(7);
//! let b = root.derive(8);
//! assert_ne!(a.as_bytes(), b.as_bytes());
//! assert_eq!(a.as_bytes(), root.derive(7).as_bytes());
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hmac::HmacKey;

/// Minimum accepted key length in bytes (128 bits).
pub const MIN_KEY_LEN: usize = 16;

/// Why a key was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyError {
    /// The key material is shorter than [`MIN_KEY_LEN`].
    TooShort {
        /// Length of the rejected key in bytes.
        len: usize,
    },
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::TooShort { len } => write!(
                f,
                "key of {len} bytes rejected: device keys must be at least {MIN_KEY_LEN} bytes"
            ),
        }
    }
}

impl std::error::Error for KeyError {}

/// A device-unique (or fleet-root) symmetric key of guaranteed minimum
/// length.
///
/// Deliberately implements neither `Serialize` nor a transparent
/// `Debug`: key material must not leak through logs or serialized
/// reports.
///
/// The key's [`HmacKey`] schedule is computed once, when the key is
/// built, and every holder that MACs with the key copies the schedule
/// instead of the bytes.
#[derive(Clone)]
pub struct DeviceKey {
    bytes: Vec<u8>,
    schedule: HmacKey,
}

impl DeviceKey {
    /// Wraps key material, enforcing the minimum length.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::TooShort`] for keys under [`MIN_KEY_LEN`]
    /// bytes.
    pub fn new(bytes: &[u8]) -> Result<Self, KeyError> {
        if bytes.len() < MIN_KEY_LEN {
            return Err(KeyError::TooShort { len: bytes.len() });
        }
        Ok(DeviceKey::from_material(bytes))
    }

    fn from_material(bytes: &[u8]) -> Self {
        DeviceKey {
            bytes: bytes.to_vec(),
            schedule: HmacKey::new(bytes),
        }
    }

    /// Derives the key of device `device_id` from this (root) key.
    pub fn derive(&self, device_id: u64) -> DeviceKey {
        let info: [u8; 24] = crate::concat(&[b"eilid-device-key", &device_id.to_le_bytes()]);
        DeviceKey::from_material(&self.schedule.mac(&info))
    }

    /// The raw key material.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The key's HMAC schedule, computed when the key was built.
    pub fn schedule(&self) -> &HmacKey {
        &self.schedule
    }
}

// The schedule is a function of the bytes, so the bytes decide.
impl PartialEq for DeviceKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for DeviceKey {}

// Keys must never leak through debug logs.
impl fmt::Debug for DeviceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeviceKey([redacted; {} bytes])", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keys_are_rejected() {
        assert_eq!(DeviceKey::new(b"tiny"), Err(KeyError::TooShort { len: 4 }));
        assert_eq!(
            DeviceKey::new(&[0u8; MIN_KEY_LEN - 1]),
            Err(KeyError::TooShort {
                len: MIN_KEY_LEN - 1
            })
        );
        assert!(DeviceKey::new(&[0u8; MIN_KEY_LEN]).is_ok());
    }

    #[test]
    fn derivation_is_deterministic_and_device_unique() {
        let root = DeviceKey::new(b"fleet-root-key-0123456789abcdef").unwrap();
        let keys: Vec<DeviceKey> = (0..64).map(|id| root.derive(id)).collect();
        for (i, a) in keys.iter().enumerate() {
            assert_eq!(a.as_bytes().len(), 32);
            assert_eq!(a, &root.derive(i as u64));
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two devices derived the same key");
            }
            assert_ne!(a.as_bytes(), root.as_bytes());
        }
    }

    #[test]
    fn different_roots_derive_different_keys() {
        let a = DeviceKey::new(b"fleet-root-key-aaaaaaaaaaaaaaaa").unwrap();
        let b = DeviceKey::new(b"fleet-root-key-bbbbbbbbbbbbbbbb").unwrap();
        assert_ne!(a.derive(1), b.derive(1));
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = DeviceKey::new(b"super-secret-key-material!").unwrap();
        let debug = format!("{key:?}");
        assert!(debug.contains("redacted"));
        assert!(!debug.contains("super-secret"));
    }

    #[test]
    fn error_message_names_the_minimum() {
        let err = DeviceKey::new(b"short").unwrap_err();
        assert!(err.to_string().contains("16"));
    }
}
