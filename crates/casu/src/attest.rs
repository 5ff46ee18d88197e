//! Static remote attestation (the service CASU largely obviates).
//!
//! The paper positions CASU against passive RoTs that rely on remote
//! attestation (RA): with CASU, software immutability makes periodic RA
//! between updates unnecessary. The protocol is still part of the substrate
//! — the update authority uses it to confirm the software state right after
//! an update, and the comparison against passive designs needs it — so this
//! module implements the classic challenge/response MAC over program memory
//! used by VRASED-class hybrid designs.

use serde::{Deserialize, Serialize};

use eilid_msp430::Memory;

use crate::hmac::{verify_tag, HmacKey, TAG_SIZE};
use crate::key::DeviceKey;
use crate::layout::LAYOUT;
use crate::sha256::sha256;

/// A verifier challenge: a fresh nonce and the PMEM range to attest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Challenge {
    /// Fresh random nonce chosen by the verifier.
    pub nonce: u64,
    /// First address of the attested range.
    pub start: u16,
    /// Last address of the attested range (inclusive).
    pub end: u16,
}

/// The prover's attestation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttestationReport {
    /// The challenge this report answers.
    pub challenge: Challenge,
    /// SHA-256 measurement of the attested range.
    pub measurement: [u8; 32],
    /// `HMAC-SHA256(key, "eilid-attest-v1" ‖ nonce ‖ start ‖ end ‖ measurement)`.
    pub mac: [u8; TAG_SIZE],
}

/// Domain-separation tag for attestation-report MACs. Devices use one
/// key for both attestation and authenticated updates, so the two MAC
/// message formats must be disjoint: without a tag, a 44-byte report
/// message re-parses bit-for-bit as an update message (target ‖ nonce ‖
/// 34-byte payload), letting an attacker turn an attestation response
/// into an authenticated PMEM write.
const ATTEST_MAC_TAG: &[u8] = b"eilid-attest-v1";

/// The report MAC's message: 59 bytes, so three compressions under a
/// precomputed [`HmacKey`] schedule.
fn report_message(
    challenge: &Challenge,
    measurement: &[u8; 32],
) -> [u8; ATTEST_MAC_TAG.len() + 44] {
    crate::concat(&[
        ATTEST_MAC_TAG,
        &challenge.nonce.to_le_bytes(),
        &challenge.start.to_le_bytes(),
        &challenge.end.to_le_bytes(),
        measurement,
    ])
}

/// Device-side attestation routine (conceptually part of the secure ROM).
#[derive(Debug, Clone)]
pub struct Attestor {
    key: HmacKey,
}

impl Attestor {
    /// Creates an attestor holding the device key's HMAC schedule.
    pub fn new(key: &[u8]) -> Self {
        Attestor {
            key: HmacKey::new(key),
        }
    }

    /// Creates an attestor from a length-checked [`DeviceKey`], copying
    /// the schedule the key already holds.
    pub fn with_key(key: &DeviceKey) -> Self {
        Attestor {
            key: *key.schedule(),
        }
    }

    /// Produces a report for `challenge` over the device memory.
    pub fn attest(&self, memory: &Memory, challenge: Challenge) -> AttestationReport {
        let start = usize::from(challenge.start.min(challenge.end));
        let end = usize::from(challenge.start.max(challenge.end)) + 1;
        let measurement = sha256(memory.slice(start..end));
        self.report(challenge, measurement)
    }

    /// Produces a report binding an externally computed `measurement` to
    /// `challenge` — the path incremental measurement engines use: the
    /// [`crate::merkle::IncrementalMeasurer`] produces the digest, the
    /// attestor MACs it into the standard (wire-compatible) report.
    pub fn report(&self, challenge: Challenge, measurement: [u8; 32]) -> AttestationReport {
        let mac = self.key.mac(&report_message(&challenge, &measurement));
        AttestationReport {
            challenge,
            measurement,
            mac,
        }
    }
}

/// Verifier-side check of an attestation report.
#[derive(Debug, Clone)]
pub struct AttestationVerifier {
    key: HmacKey,
}

/// Why an attestation report was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttestError {
    /// The MAC did not verify (wrong key or tampered report).
    BadMac,
    /// The report answers a different challenge than the one issued.
    ChallengeMismatch,
    /// The measurement differs from the verifier's expected software state.
    UnexpectedMeasurement,
}

impl std::fmt::Display for AttestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestError::BadMac => write!(f, "attestation report MAC verification failed"),
            AttestError::ChallengeMismatch => {
                write!(f, "attestation report answers a different challenge")
            }
            AttestError::UnexpectedMeasurement => {
                write!(
                    f,
                    "attested software state does not match the expected measurement"
                )
            }
        }
    }
}

impl std::error::Error for AttestError {}

impl AttestationVerifier {
    /// Creates a verifier holding the device key's HMAC schedule.
    pub fn new(key: &[u8]) -> Self {
        AttestationVerifier {
            key: HmacKey::new(key),
        }
    }

    /// Creates a verifier from a length-checked [`DeviceKey`], copying
    /// the schedule the key already holds.
    pub fn with_key(key: &DeviceKey) -> Self {
        AttestationVerifier {
            key: *key.schedule(),
        }
    }

    /// Issues a challenge over the application PMEM region.
    pub fn challenge_pmem(&self, nonce: u64) -> Challenge {
        Challenge {
            nonce,
            start: *LAYOUT.pmem.start(),
            end: *LAYOUT.pmem.end(),
        }
    }

    /// Checks a report against the issued challenge and, optionally, an
    /// expected software measurement.
    ///
    /// # Errors
    ///
    /// Returns an [`AttestError`] describing the first check that failed.
    pub fn verify(
        &self,
        issued: &Challenge,
        report: &AttestationReport,
        expected_measurement: Option<&[u8; 32]>,
    ) -> Result<(), AttestError> {
        if report.challenge != *issued {
            return Err(AttestError::ChallengeMismatch);
        }
        let expected_mac = self
            .key
            .mac(&report_message(&report.challenge, &report.measurement));
        if !verify_tag(&expected_mac, &report.mac) {
            return Err(AttestError::BadMac);
        }
        if let Some(expected) = expected_measurement {
            if expected != &report.measurement {
                return Err(AttestError::UnexpectedMeasurement);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8] = b"attestation-key-0001";

    fn memory_with_code() -> Memory {
        let mut memory = Memory::new();
        memory.load(0xE000, &[0xAA; 64]).unwrap();
        memory
    }

    #[test]
    fn honest_prover_passes_verification() {
        let verifier = AttestationVerifier::new(KEY);
        let attestor = Attestor::new(KEY);
        let memory = memory_with_code();

        let challenge = verifier.challenge_pmem(42);
        let report = attestor.attest(&memory, challenge);
        verifier.verify(&challenge, &report, None).unwrap();

        // With a known-good reference measurement the check still passes.
        let expected = report.measurement;
        verifier
            .verify(&challenge, &report, Some(&expected))
            .unwrap();
    }

    #[test]
    fn modified_software_changes_the_measurement() {
        let verifier = AttestationVerifier::new(KEY);
        let attestor = Attestor::new(KEY);
        let memory = memory_with_code();
        let challenge = verifier.challenge_pmem(1);
        let good = attestor.attest(&memory, challenge);

        let mut compromised = memory.clone();
        compromised.write_byte(0xE010, 0x90);
        let bad = attestor.attest(&compromised, challenge);
        assert_ne!(good.measurement, bad.measurement);
        assert_eq!(
            verifier.verify(&challenge, &bad, Some(&good.measurement)),
            Err(AttestError::UnexpectedMeasurement)
        );
    }

    #[test]
    fn wrong_key_and_wrong_challenge_are_rejected() {
        let verifier = AttestationVerifier::new(KEY);
        let memory = memory_with_code();
        let challenge = verifier.challenge_pmem(7);

        let rogue = Attestor::new(b"not-the-device-key");
        let forged = rogue.attest(&memory, challenge);
        assert_eq!(
            verifier.verify(&challenge, &forged, None),
            Err(AttestError::BadMac)
        );

        let honest = Attestor::new(KEY);
        let stale = honest.attest(
            &memory,
            Challenge {
                nonce: 6,
                ..challenge
            },
        );
        assert_eq!(
            verifier.verify(&challenge, &stale, None),
            Err(AttestError::ChallengeMismatch)
        );
    }

    #[test]
    fn reports_are_nonce_dependent() {
        let attestor = Attestor::new(KEY);
        let memory = memory_with_code();
        let verifier = AttestationVerifier::new(KEY);
        let a = attestor.attest(&memory, verifier.challenge_pmem(1));
        let b = attestor.attest(&memory, verifier.challenge_pmem(2));
        assert_eq!(a.measurement, b.measurement);
        assert_ne!(
            a.mac, b.mac,
            "replay protection requires nonce-dependent MACs"
        );
    }

    #[test]
    fn error_messages() {
        for err in [
            AttestError::BadMac,
            AttestError::ChallengeMismatch,
            AttestError::UnexpectedMeasurement,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
