//! Authenticated software update (CASU's "secure update" service).
//!
//! CASU's defining property is that program memory can only change through
//! an authenticated update: the update authority (the verifier in RA terms)
//! signs the domain-tagged message
//! `("eilid-update-v1" ‖ target address ‖ nonce ‖ payload)` with a
//! device-unique symmetric key, and the trusted update routine on the
//! device verifies the MAC,
//! checks the nonce for freshness and writes the payload straight into
//! memory, with no step of the core in between. Every bus write to PMEM
//! by software is vetoed and causes a reset ([`crate::monitor`]), so this
//! engine is the only way PMEM changes.
//!
//! This module models both ends of that protocol: [`UpdateAuthority`]
//! (verifier side) and [`UpdateEngine`] (device side).

use std::fmt;

use serde::{Deserialize, Serialize};

use eilid_msp430::Memory;

use crate::hmac::{verify_tag, HmacKey, TAG_SIZE};
use crate::key::DeviceKey;
use crate::layout::{self, Region};

/// An authenticated request to replace a range of program memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateRequest {
    /// First address to be written.
    pub target: u16,
    /// New contents.
    pub payload: Vec<u8>,
    /// Monotonically increasing freshness counter.
    pub nonce: u64,
    /// Firmware version counter: the device refuses any request whose
    /// version is *below* its last accepted one (anti-rollback), while
    /// an equal version stays legal so an operator-authorized rollback
    /// of the bytes can be re-issued at the device's current version.
    pub version: u64,
    /// HMAC-SHA-256 over
    /// `"eilid-update-v2" ‖ target ‖ nonce ‖ version ‖ payload`.
    pub mac: [u8; TAG_SIZE],
}

/// Domain-separation tag for update-request MACs. Devices use one key
/// for both attestation and authenticated updates; the tag keeps the two
/// MAC message formats disjoint so an attestation-report MAC can never
/// verify as an update authorization (see `ATTEST_MAC_TAG` in
/// [`crate::attest`]). The `v2` tag covers the anti-rollback version
/// counter; a `v1` MAC (no version) can never verify under it.
const UPDATE_MAC_TAG: &[u8] = b"eilid-update-v2";

impl UpdateRequest {
    fn message(target: u16, payload: &[u8], nonce: u64, version: u64) -> Vec<u8> {
        let mut msg = Vec::with_capacity(UPDATE_MAC_TAG.len() + payload.len() + 18);
        msg.extend_from_slice(UPDATE_MAC_TAG);
        msg.extend_from_slice(&target.to_le_bytes());
        msg.extend_from_slice(&nonce.to_le_bytes());
        msg.extend_from_slice(&version.to_le_bytes());
        msg.extend_from_slice(payload);
        msg
    }
}

/// Why an update request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateError {
    /// The MAC did not verify under the device key.
    BadMac,
    /// The nonce was not strictly greater than the last accepted nonce.
    StaleNonce {
        /// Nonce presented by the request.
        presented: u64,
        /// Last nonce the device accepted.
        last_accepted: u64,
    },
    /// The target range is not entirely inside application PMEM.
    TargetOutsidePmem {
        /// First offending address.
        addr: u16,
    },
    /// The payload is empty.
    EmptyPayload,
    /// The version counter is below the last accepted one — a firmware
    /// downgrade, refused device-side even when the MAC and nonce are
    /// valid.
    RollbackVersion {
        /// Version presented by the request.
        presented: u64,
        /// Version the device currently runs.
        current: u64,
    },
    /// A delta request's segments do not fit the base range it declares
    /// (structurally malformed before any crypto is consulted).
    MalformedDelta,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::BadMac => write!(f, "update rejected: MAC verification failed"),
            UpdateError::StaleNonce {
                presented,
                last_accepted,
            } => write!(
                f,
                "update rejected: nonce {presented} is not fresher than {last_accepted}"
            ),
            UpdateError::TargetOutsidePmem { addr } => {
                write!(
                    f,
                    "update rejected: {addr:#06x} is outside application PMEM"
                )
            }
            UpdateError::EmptyPayload => write!(f, "update rejected: empty payload"),
            UpdateError::RollbackVersion { presented, current } => write!(
                f,
                "update rejected: version {presented} is a rollback below {current}"
            ),
            UpdateError::MalformedDelta => {
                write!(f, "update rejected: delta segments outside declared base")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Verifier-side helper that produces authenticated update requests.
#[derive(Debug, Clone)]
pub struct UpdateAuthority {
    key: HmacKey,
    next_nonce: u64,
    version: u64,
}

impl UpdateAuthority {
    /// Creates an authority holding the device key.
    ///
    /// Prefer [`UpdateAuthority::with_key`], which enforces a minimum key
    /// length; this raw constructor is kept for tests and legacy callers.
    pub fn new(key: &[u8]) -> Self {
        UpdateAuthority {
            key: HmacKey::new(key),
            next_nonce: 1,
            version: 0,
        }
    }

    /// Creates an authority from a length-checked [`DeviceKey`].
    pub fn with_key(key: &DeviceKey) -> Self {
        UpdateAuthority::with_key_resuming(key, 1)
    }

    /// Creates an authority that will issue `next_nonce` as its next
    /// freshness counter — used by a verifier resuming from persisted
    /// per-device state rather than a factory-fresh device.
    pub fn with_key_resuming(key: &DeviceKey, next_nonce: u64) -> Self {
        UpdateAuthority {
            key: *key.schedule(),
            next_nonce: next_nonce.max(1),
            version: 0,
        }
    }

    /// Sets the firmware version counter subsequent requests carry
    /// (builder form). Devices refuse versions below their last
    /// accepted one; a rollback re-issues the old bytes at the
    /// device's *current* version.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Sets the firmware version counter subsequent requests carry.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// The nonce the next authorized request will carry.
    pub fn next_nonce(&self) -> u64 {
        self.next_nonce
    }

    /// Builds an authenticated update request for `payload` at `target`.
    pub fn authorize(&mut self, target: u16, payload: &[u8]) -> UpdateRequest {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let version = self.version;
        let mac = self
            .key
            .mac(&UpdateRequest::message(target, payload, nonce, version));
        UpdateRequest {
            target,
            payload: payload.to_vec(),
            nonce,
            version,
            mac,
        }
    }
}

/// Device-side update engine (the trusted update routine in secure ROM).
///
/// Holds the device key's HMAC schedule, so, like [`DeviceKey`], it
/// implements no `Serialize`.
#[derive(Debug, Clone)]
pub struct UpdateEngine {
    key: HmacKey,
    last_nonce: u64,
    last_version: u64,
    updates_applied: u64,
}

impl UpdateEngine {
    /// Creates an engine holding the device key.
    ///
    /// Prefer [`UpdateEngine::with_key`], which enforces a minimum key
    /// length; this raw constructor is kept for tests and legacy callers.
    pub fn new(key: &[u8]) -> Self {
        UpdateEngine::with_schedule(HmacKey::new(key))
    }

    /// Creates an engine from a length-checked [`DeviceKey`].
    pub fn with_key(key: &DeviceKey) -> Self {
        UpdateEngine::with_schedule(*key.schedule())
    }

    fn with_schedule(key: HmacKey) -> Self {
        UpdateEngine {
            key,
            last_nonce: 0,
            last_version: 0,
            updates_applied: 0,
        }
    }

    /// Number of updates successfully applied.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Last accepted nonce.
    pub fn last_nonce(&self) -> u64 {
        self.last_nonce
    }

    /// Last accepted firmware version (the anti-rollback floor).
    pub fn last_version(&self) -> u64 {
        self.last_version
    }

    /// Verifies a request without applying it.
    ///
    /// # Errors
    ///
    /// Returns an [`UpdateError`] describing the first check that failed.
    pub fn verify(&self, request: &UpdateRequest) -> Result<(), UpdateError> {
        if request.payload.is_empty() {
            return Err(UpdateError::EmptyPayload);
        }
        let expected = self.key.mac(&UpdateRequest::message(
            request.target,
            &request.payload,
            request.nonce,
            request.version,
        ));
        if !verify_tag(&expected, &request.mac) {
            return Err(UpdateError::BadMac);
        }
        if request.nonce <= self.last_nonce {
            return Err(UpdateError::StaleNonce {
                presented: request.nonce,
                last_accepted: self.last_nonce,
            });
        }
        if request.version < self.last_version {
            return Err(UpdateError::RollbackVersion {
                presented: request.version,
                current: self.last_version,
            });
        }
        let end = u32::from(request.target) + request.payload.len() as u32 - 1;
        if end > 0xFFFF {
            return Err(UpdateError::TargetOutsidePmem {
                addr: request.target,
            });
        }
        for addr in [request.target, end as u16] {
            if layout::region_of(addr) != Region::Pmem {
                return Err(UpdateError::TargetOutsidePmem { addr });
            }
        }
        Ok(())
    }

    /// Verifies and applies a request: writes the payload into `memory`
    /// directly, as the trusted update routine does, bypassing the bus
    /// write gate.
    ///
    /// # Errors
    ///
    /// Returns an [`UpdateError`] if verification fails; memory is untouched
    /// in that case.
    pub fn apply(
        &mut self,
        request: &UpdateRequest,
        memory: &mut Memory,
    ) -> Result<(), UpdateError> {
        self.verify(request)?;
        memory
            .load(request.target, &request.payload)
            .expect("range checked by verify");
        self.last_nonce = request.nonce;
        self.last_version = request.version;
        self.updates_applied += 1;
        Ok(())
    }

    /// Verifies and applies a [`DeltaUpdateRequest`]: assembles the
    /// post-image from the device's *current* bytes in the target
    /// range, then runs the full-image verify/apply path on the
    /// assembled request. The MAC covers the assembled post-image, so
    /// a device whose base bytes were tampered with assembles a
    /// different image and fails MAC verification — a delta can never
    /// launder a tampered base into an accepted update.
    ///
    /// # Errors
    ///
    /// [`UpdateError::MalformedDelta`] when the segments do not fit the
    /// declared base; otherwise exactly the full-image errors.
    pub fn apply_delta(
        &mut self,
        request: &DeltaUpdateRequest,
        memory: &mut Memory,
    ) -> Result<(), UpdateError> {
        let full = request.assemble_from(memory)?;
        self.apply(&full, memory)
    }
}

/// Granularity of delta diffing: one segment boundary per simulated
/// dirty-tracking granule, so segment layout lines up with what the
/// incremental measurer re-hashes anyway.
pub const DELTA_GRANULE: usize = eilid_msp430::memory::DIRTY_GRANULE;

/// One contiguous run of changed bytes inside a delta update.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSegment {
    /// Byte offset of this run inside the update's target range.
    pub offset: u32,
    /// Replacement bytes for `[offset, offset + bytes.len())`.
    pub bytes: Vec<u8>,
}

/// A sparse-segment update: only the granules that differ from the
/// base image cross the wire, but the MAC (and the nonce/version
/// freshness rules) cover the *assembled post-image* — byte for byte
/// the same message a full-image [`UpdateRequest`] would carry, so
/// delta and full-image requests are unforgeable-equivalent. A device
/// whose base bytes diverge from what the authority diffed against
/// assembles a different post-image and rejects with `BadMac`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaUpdateRequest {
    /// First address of the update's target range.
    pub target: u16,
    /// Length of the target range (the full payload length).
    pub base_len: u32,
    /// Changed runs, ascending by offset, non-overlapping.
    pub segments: Vec<DeltaSegment>,
    /// Monotonically increasing freshness counter (same domain as the
    /// full-image request's).
    pub nonce: u64,
    /// Anti-rollback firmware version counter.
    pub version: u64,
    /// HMAC-SHA-256 over the assembled post-image, identical to the
    /// MAC of the equivalent full-image [`UpdateRequest`].
    pub mac: [u8; TAG_SIZE],
}

impl DeltaUpdateRequest {
    /// Diffs an authorized full-image request against the `base` bytes
    /// the authority knows the device currently holds in the target
    /// range (e.g. the cohort golden image), keeping only the
    /// [`DELTA_GRANULE`]-aligned granules that differ, with adjacent
    /// dirty granules merged into one segment. The MAC is carried over
    /// unchanged — it already covers the full post-image.
    ///
    /// `base` must be the same length as the payload; callers diffing
    /// against a differently-sized base should ship the full image
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics when `base.len() != full.payload.len()` — the diff is
    /// only meaningful over a like-sized base, and callers construct
    /// both sides from the same target range.
    pub fn from_full(full: &UpdateRequest, base: &[u8]) -> Self {
        assert_eq!(
            base.len(),
            full.payload.len(),
            "delta base must cover exactly the update's target range"
        );
        let len = full.payload.len();
        let mut segments: Vec<DeltaSegment> = Vec::new();
        let mut at = 0usize;
        while at < len {
            let end = (at + DELTA_GRANULE).min(len);
            if full.payload[at..end] != base[at..end] {
                match segments.last_mut() {
                    // Adjacent dirty granule: extend the open segment.
                    Some(last) if last.offset as usize + last.bytes.len() == at => {
                        last.bytes.extend_from_slice(&full.payload[at..end]);
                    }
                    _ => segments.push(DeltaSegment {
                        offset: at as u32,
                        bytes: full.payload[at..end].to_vec(),
                    }),
                }
            }
            at = end;
        }
        DeltaUpdateRequest {
            target: full.target,
            base_len: len as u32,
            segments,
            nonce: full.nonce,
            version: full.version,
            mac: full.mac,
        }
    }

    /// The full-image request as a delta: one segment covering the
    /// whole target range, applicable whatever bytes the device holds
    /// there.
    pub fn whole(full: UpdateRequest) -> Self {
        DeltaUpdateRequest {
            target: full.target,
            base_len: full.payload.len() as u32,
            segments: vec![DeltaSegment {
                offset: 0,
                bytes: full.payload,
            }],
            nonce: full.nonce,
            version: full.version,
            mac: full.mac,
        }
    }

    /// Bytes of actual patch content this delta ships (the wire win
    /// over `base_len` full-image bytes).
    pub fn delta_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }

    /// Assembles the full-image request from the device's current
    /// bytes in the target range: start from `current`, overlay each
    /// segment. Cryptographic judgement stays with
    /// [`UpdateEngine::verify`] on the result.
    ///
    /// # Errors
    ///
    /// [`UpdateError::MalformedDelta`] when `current` is not
    /// `base_len` bytes or a segment falls outside the declared range.
    pub fn assemble(&self, current: &[u8]) -> Result<UpdateRequest, UpdateError> {
        if current.len() != self.base_len as usize {
            return Err(UpdateError::MalformedDelta);
        }
        let mut payload = current.to_vec();
        for segment in &self.segments {
            let start = segment.offset as usize;
            let end = start
                .checked_add(segment.bytes.len())
                .ok_or(UpdateError::MalformedDelta)?;
            if end > payload.len() {
                return Err(UpdateError::MalformedDelta);
            }
            payload[start..end].copy_from_slice(&segment.bytes);
        }
        Ok(UpdateRequest {
            target: self.target,
            payload,
            nonce: self.nonce,
            version: self.version,
            mac: self.mac,
        })
    }

    /// [`DeltaUpdateRequest::assemble`] reading the base range
    /// straight out of device memory.
    ///
    /// # Errors
    ///
    /// [`UpdateError::MalformedDelta`] when the declared target range
    /// does not fit the address space or a segment falls outside it.
    fn assemble_from(&self, memory: &Memory) -> Result<UpdateRequest, UpdateError> {
        let start = usize::from(self.target);
        let end = start
            .checked_add(self.base_len as usize)
            .filter(|&end| end <= eilid_msp430::ADDRESS_SPACE)
            .ok_or(UpdateError::MalformedDelta)?;
        self.assemble(memory.slice(start..end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::merkle_measure_pmem;

    const KEY: &[u8] = b"eilid-device-key-0001";

    fn engine() -> (UpdateAuthority, UpdateEngine, Memory) {
        (
            UpdateAuthority::new(KEY),
            UpdateEngine::new(KEY),
            Memory::new(),
        )
    }

    #[test]
    fn authorized_update_is_applied() {
        let (mut authority, mut engine, mut memory) = engine();
        let request = authority.authorize(0xE000, &[0xAA, 0xBB, 0xCC, 0xDD]);
        engine.apply(&request, &mut memory).unwrap();
        assert_eq!(memory.read_byte(0xE000), 0xAA);
        assert_eq!(memory.read_byte(0xE003), 0xDD);
        assert_eq!(engine.updates_applied(), 1);
    }

    #[test]
    fn forged_mac_is_rejected() {
        let (mut authority, mut engine, mut memory) = engine();
        let mut request = authority.authorize(0xE000, &[1, 2, 3]);
        request.payload[0] = 0xFF;
        assert_eq!(
            engine.apply(&request, &mut memory),
            Err(UpdateError::BadMac)
        );
        assert_eq!(memory.read_byte(0xE000), 0);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let (_, mut engine, mut memory) = engine();
        let mut rogue = UpdateAuthority::new(b"attacker-key");
        let request = rogue.authorize(0xE000, &[1, 2, 3]);
        assert_eq!(
            engine.apply(&request, &mut memory),
            Err(UpdateError::BadMac)
        );
    }

    #[test]
    fn replayed_nonce_is_rejected() {
        let (mut authority, mut engine, mut memory) = engine();
        let request = authority.authorize(0xE000, &[1, 2]);
        engine.apply(&request, &mut memory).unwrap();
        assert!(matches!(
            engine.apply(&request, &mut memory),
            Err(UpdateError::StaleNonce { .. })
        ));
        // A fresh request from the same authority still works.
        let second = authority.authorize(0xE010, &[3, 4]);
        engine.apply(&second, &mut memory).unwrap();
        assert_eq!(engine.last_nonce(), 2);
    }

    #[test]
    fn update_outside_pmem_is_rejected() {
        let (mut authority, mut engine, mut memory) = engine();
        for target in [0x0200u16, 0xF900, 0xFFF0, 0x1000] {
            let request = authority.authorize(target, &[1, 2, 3, 4]);
            assert!(matches!(
                engine.apply(&request, &mut memory),
                Err(UpdateError::TargetOutsidePmem { .. })
            ));
        }
        // A payload that starts in PMEM but runs past its end is rejected too.
        let request = authority.authorize(0xF7FE, &[1, 2, 3, 4]);
        assert!(matches!(
            engine.apply(&request, &mut memory),
            Err(UpdateError::TargetOutsidePmem { .. })
        ));
    }

    #[test]
    fn empty_payload_is_rejected() {
        let (mut authority, mut engine, mut memory) = engine();
        let request = authority.authorize(0xE000, &[]);
        assert_eq!(
            engine.apply(&request, &mut memory),
            Err(UpdateError::EmptyPayload)
        );
    }

    #[test]
    fn pmem_measurement_changes_with_update() {
        let (mut authority, mut engine, mut memory) = engine();
        let before = merkle_measure_pmem(&memory);
        let request = authority.authorize(0xE000, &[9, 9, 9]);
        engine.apply(&request, &mut memory).unwrap();
        let after = merkle_measure_pmem(&memory);
        assert_ne!(before, after);
        // Measurement is deterministic.
        assert_eq!(after, merkle_measure_pmem(&memory));
    }

    #[test]
    fn downgrade_version_is_rejected_even_with_valid_mac_and_nonce() {
        let (_, mut engine, mut memory) = engine();
        let mut v2 = UpdateAuthority::new(KEY).with_version(2);
        let request = v2.authorize(0xE000, &[2, 2]);
        engine.apply(&request, &mut memory).unwrap();
        assert_eq!(engine.last_version(), 2);

        // A correctly MACed, fresh-nonced request at a *lower* version
        // is a downgrade: refused, memory untouched.
        let mut downgrade_authority = UpdateAuthority::new(KEY).with_version(1);
        // Advance past the accepted nonce so only the version check can fire.
        let _ = downgrade_authority.authorize(0xE000, &[0]);
        let downgrade = downgrade_authority.authorize(0xE000, &[1, 1]);
        assert_eq!(
            engine.apply(&downgrade, &mut memory),
            Err(UpdateError::RollbackVersion {
                presented: 1,
                current: 2,
            })
        );
        assert_eq!(memory.read_byte(0xE000), 2);
    }

    #[test]
    fn equal_version_reissue_is_accepted_for_rollbacks() {
        let (_, mut engine, mut memory) = engine();
        let mut authority = UpdateAuthority::new(KEY).with_version(3);
        let request = authority.authorize(0xE000, &[7, 7]);
        engine.apply(&request, &mut memory).unwrap();
        // Operator-authorized rollback of the *bytes* at the device's
        // current version: fresh nonce, same version — accepted.
        let rollback = authority.authorize(0xE000, &[5, 5]);
        engine.apply(&rollback, &mut memory).unwrap();
        assert_eq!(memory.read_byte(0xE000), 5);
        assert_eq!(engine.last_version(), 3);
    }

    #[test]
    fn delta_assembles_to_the_full_image_and_applies() {
        let (_, mut engine, mut memory) = engine();
        // Base image: 4 granules of 0x11 starting at 0xE000.
        let base = vec![0x11u8; 4 * DELTA_GRANULE];
        memory.load(0xE000, &base).unwrap();
        // New image differs in granules 1 and 3 only.
        let mut next = base.clone();
        next[DELTA_GRANULE] = 0x22;
        next[3 * DELTA_GRANULE + 5] = 0x33;
        let mut authority = UpdateAuthority::new(KEY).with_version(1);
        let full = authority.authorize(0xE000, &next);
        let delta = DeltaUpdateRequest::from_full(&full, &base);
        assert_eq!(delta.segments.len(), 2);
        assert_eq!(delta.delta_bytes(), 2 * DELTA_GRANULE);
        assert_eq!(delta.assemble(&base).unwrap(), full);
        engine.apply_delta(&delta, &mut memory).unwrap();
        assert_eq!(memory.read_byte(0xE000 + DELTA_GRANULE as u16), 0x22);
        assert_eq!(engine.last_nonce(), full.nonce);
        assert_eq!(engine.last_version(), 1);
    }

    #[test]
    fn adjacent_dirty_granules_merge_into_one_segment() {
        let base = vec![0u8; 4 * DELTA_GRANULE];
        let mut next = base.clone();
        next[DELTA_GRANULE] = 1;
        next[2 * DELTA_GRANULE] = 1;
        let mut authority = UpdateAuthority::new(KEY);
        let full = authority.authorize(0xE000, &next);
        let delta = DeltaUpdateRequest::from_full(&full, &base);
        assert_eq!(delta.segments.len(), 1);
        assert_eq!(delta.segments[0].offset as usize, DELTA_GRANULE);
        assert_eq!(delta.segments[0].bytes.len(), 2 * DELTA_GRANULE);
    }

    #[test]
    fn tampered_base_makes_a_delta_fail_mac_not_apply_garbage() {
        let (_, mut engine, mut memory) = engine();
        let base = vec![0xAAu8; 2 * DELTA_GRANULE];
        memory.load(0xE000, &base).unwrap();
        let mut next = base.clone();
        next[0] = 0xBB;
        let mut authority = UpdateAuthority::new(KEY);
        let full = authority.authorize(0xE000, &next);
        let delta = DeltaUpdateRequest::from_full(&full, &base);
        // Adversary flips a byte the delta does not re-ship.
        memory.write_byte(0xE000 + DELTA_GRANULE as u16, 0xEE);
        assert_eq!(
            engine.apply_delta(&delta, &mut memory),
            Err(UpdateError::BadMac)
        );
        // The tampered byte is still there; nothing was applied.
        assert_eq!(memory.read_byte(0xE000 + DELTA_GRANULE as u16), 0xEE);
        assert_eq!(engine.updates_applied(), 0);
    }

    #[test]
    fn malformed_delta_segments_are_rejected_structurally() {
        let (_, mut engine, mut memory) = engine();
        let base = vec![0u8; DELTA_GRANULE];
        let mut next = base.clone();
        next[0] = 1;
        let mut authority = UpdateAuthority::new(KEY);
        let full = authority.authorize(0xE000, &next);
        let mut delta = DeltaUpdateRequest::from_full(&full, &base);
        delta.segments[0].offset = delta.base_len;
        assert_eq!(
            engine.apply_delta(&delta, &mut memory),
            Err(UpdateError::MalformedDelta)
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(UpdateError::BadMac.to_string().contains("MAC"));
        assert!(UpdateError::EmptyPayload.to_string().contains("empty"));
        assert!(UpdateError::StaleNonce {
            presented: 1,
            last_accepted: 5
        }
        .to_string()
        .contains("fresher"));
        assert!(UpdateError::TargetOutsidePmem { addr: 0x10 }
            .to_string()
            .contains("PMEM"));
    }
}
