//! Fixed-layout byte serialisation of the protocol types.
//!
//! The networked attestation gateway (`eilid_net`) moves [`Challenge`]s,
//! [`AttestationReport`]s and [`DeltaUpdateRequest`]s across an untrusted
//! transport. This module defines their canonical little-endian byte
//! layouts and a pair of small, allocation-conscious primitives —
//! writer-style append helpers and a bounds-checked [`Reader`] —
//! that the frame codec (and other persistence layers, like paused
//! campaign state) build on.
//!
//! Decoding is **total**: every failure is a typed [`CodecError`], never
//! a panic, and every length is validated against an explicit limit
//! *before* any allocation. What this layer rejects is structural
//! (truncation, oversized claims); cryptographic rejection — a MAC
//! minted under the wrong key or the wrong domain-separation tag — is
//! the job of [`crate::AttestationVerifier`] / [`crate::UpdateEngine`],
//! which sit behind it.
//!
//! Wire layouts (all integers little-endian):
//!
//! ```text
//! Challenge          := nonce:u64 ‖ start:u16 ‖ end:u16                  (12 B)
//! AttestationReport  := Challenge ‖ measurement:[u8;32] ‖ mac:[u8;32]   (76 B)
//! DeltaUpdateRequest := target:u16 ‖ nonce:u64 ‖ version:u64 ‖ base_len:u32
//!                       ‖ seg_count:u32 ‖ (offset:u32 ‖ len:u32 ‖ bytes)* ‖ mac:[u8;32]
//! ```

use std::fmt;

use crate::attest::{AttestationReport, Challenge};
use crate::hmac::TAG_SIZE;
use crate::update::{DeltaSegment, DeltaUpdateRequest};

/// Encoded size of a [`Challenge`] in bytes.
pub const CHALLENGE_WIRE_LEN: usize = 12;

/// Encoded size of an [`AttestationReport`] in bytes.
pub const REPORT_WIRE_LEN: usize = CHALLENGE_WIRE_LEN + 32 + TAG_SIZE;

/// Hard ceiling on an update's target range on the wire — larger
/// than any PMEM region (6 KiB in the default layout) but small enough
/// that a forged length can never drive a large allocation.
pub const MAX_UPDATE_PAYLOAD: usize = 0x2000;

/// Why a byte-level decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the fixed-layout fields did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A length field claims more than its limit allows.
    Oversized {
        /// The claimed length.
        claimed: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// A length field violates a structural rule other than a limit
    /// (e.g. a zero-length update payload, which the protocol forbids).
    BadLength {
        /// The offending length.
        len: usize,
    },
    /// An enum-coded byte holds an unknown discriminant.
    BadEnum {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated input: needed {needed} more bytes, have {have}"
                )
            }
            CodecError::Oversized { claimed, max } => {
                write!(f, "oversized field: claims {claimed} bytes, limit is {max}")
            }
            CodecError::BadLength { len } => write!(f, "invalid length field: {len}"),
            CodecError::BadEnum { field, value } => {
                write!(f, "invalid value {value} for field `{field}`")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `bytes` for sequential decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated {
                needed: len,
                have: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on empty input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Takes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(b);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Takes a fixed-size byte array.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Takes a `u32` list count, checked against what the remaining
    /// bytes can hold at `min_item_bytes` per item — a hard typed error
    /// before the caller allocates, never a clamp.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] without a count;
    /// [`CodecError::Oversized`] when the items cannot fit.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(CodecError::Oversized {
                claimed: count,
                max: self.remaining() / min_item_bytes.max(1),
            });
        }
        Ok(count)
    }

    /// Takes a `u32`-length-prefixed byte field (written by
    /// [`put_bytes`]), its length checked against `max` before the
    /// bytes are read.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversized`] past `max`; [`CodecError::Truncated`]
    /// when the input ends first.
    pub fn bytes(&mut self, max: usize) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(CodecError::Oversized { claimed: len, max });
        }
        self.take(len)
    }

    /// Takes a `u32`-counted list of little-endian `u64`s (written by
    /// [`put_u64s`]).
    ///
    /// # Errors
    ///
    /// As for [`Reader::count`] and [`Reader::u64`].
    pub fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let count = self.count(8)?;
        (0..count).map(|_| self.u64()).collect()
    }
}

/// Appends `bytes` with a `u32` length prefix (read by
/// [`Reader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends `values` as a `u32` count and little-endian `u64`s (read by
/// [`Reader::u64s`]).
pub fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for value in values {
        out.extend_from_slice(&value.to_le_bytes());
    }
}

/// Appends a [`Challenge`] in wire layout.
pub fn encode_challenge(challenge: &Challenge, out: &mut Vec<u8>) {
    out.extend_from_slice(&challenge.nonce.to_le_bytes());
    out.extend_from_slice(&challenge.start.to_le_bytes());
    out.extend_from_slice(&challenge.end.to_le_bytes());
}

/// Decodes a [`Challenge`] from `reader`.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated input.
pub fn decode_challenge(reader: &mut Reader<'_>) -> Result<Challenge, CodecError> {
    Ok(Challenge {
        nonce: reader.u64()?,
        start: reader.u16()?,
        end: reader.u16()?,
    })
}

/// Appends an [`AttestationReport`] in wire layout.
pub fn encode_report(report: &AttestationReport, out: &mut Vec<u8>) {
    encode_challenge(&report.challenge, out);
    out.extend_from_slice(&report.measurement);
    out.extend_from_slice(&report.mac);
}

/// Decodes an [`AttestationReport`] from `reader`.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated input.
pub fn decode_report(reader: &mut Reader<'_>) -> Result<AttestationReport, CodecError> {
    Ok(AttestationReport {
        challenge: decode_challenge(reader)?,
        measurement: reader.array()?,
        mac: reader.array()?,
    })
}

/// Appends a [`DeltaUpdateRequest`] in wire layout.
///
/// # Panics
///
/// Panics if the declared base range exceeds [`MAX_UPDATE_PAYLOAD`] —
/// like a full-image request, such a delta is not representable on the
/// wire.
pub fn encode_delta_update_request(request: &DeltaUpdateRequest, out: &mut Vec<u8>) {
    assert!(
        request.base_len as usize <= MAX_UPDATE_PAYLOAD,
        "delta base range of {} bytes exceeds the wire maximum {}",
        request.base_len,
        MAX_UPDATE_PAYLOAD
    );
    out.extend_from_slice(&request.target.to_le_bytes());
    out.extend_from_slice(&request.nonce.to_le_bytes());
    out.extend_from_slice(&request.version.to_le_bytes());
    out.extend_from_slice(&request.base_len.to_le_bytes());
    out.extend_from_slice(&(request.segments.len() as u32).to_le_bytes());
    for segment in &request.segments {
        out.extend_from_slice(&segment.offset.to_le_bytes());
        put_bytes(out, &segment.bytes);
    }
    out.extend_from_slice(&request.mac);
}

/// Decodes a [`DeltaUpdateRequest`] from `reader`.
///
/// Structural bounds only: the base range and every segment length are
/// validated against [`MAX_UPDATE_PAYLOAD`] and the remaining input
/// *before* any allocation. Whether the segments actually fit the
/// declared base — and whether the assembled image's MAC verifies — is
/// judged device-side by `UpdateEngine::apply_delta`.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated input or out-of-bounds length
/// claims.
pub fn decode_delta_update_request(
    reader: &mut Reader<'_>,
) -> Result<DeltaUpdateRequest, CodecError> {
    let target = reader.u16()?;
    let nonce = reader.u64()?;
    let version = reader.u64()?;
    let base_len = reader.u32()?;
    if base_len as usize > MAX_UPDATE_PAYLOAD {
        return Err(CodecError::Oversized {
            claimed: base_len as usize,
            max: MAX_UPDATE_PAYLOAD,
        });
    }
    if base_len == 0 {
        return Err(CodecError::BadLength { len: 0 });
    }
    // Each segment costs at least offset(4) + len(4) bytes.
    let seg_count = reader.count(8)?;
    let mut segments = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        let offset = reader.u32()?;
        let bytes = reader.bytes(MAX_UPDATE_PAYLOAD)?.to_vec();
        segments.push(DeltaSegment { offset, bytes });
    }
    let mac = reader.array()?;
    Ok(DeltaUpdateRequest {
        target,
        base_len,
        segments,
        nonce,
        version,
        mac,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn challenge() -> Challenge {
        Challenge {
            nonce: 0x0123_4567_89AB_CDEF,
            start: 0xE000,
            end: 0xF7FF,
        }
    }

    #[test]
    fn challenge_round_trips_at_fixed_length() {
        let mut buf = Vec::new();
        encode_challenge(&challenge(), &mut buf);
        assert_eq!(buf.len(), CHALLENGE_WIRE_LEN);
        let mut reader = Reader::new(&buf);
        assert_eq!(decode_challenge(&mut reader).unwrap(), challenge());
        assert!(reader.is_empty());
    }

    #[test]
    fn report_round_trips_at_fixed_length() {
        let report = AttestationReport {
            challenge: challenge(),
            measurement: [0xAB; 32],
            mac: [0xCD; 32],
        };
        let mut buf = Vec::new();
        encode_report(&report, &mut buf);
        assert_eq!(buf.len(), REPORT_WIRE_LEN);
        let mut reader = Reader::new(&buf);
        assert_eq!(decode_report(&mut reader).unwrap(), report);
    }

    #[test]
    fn delta_update_request_round_trips() {
        let request = DeltaUpdateRequest {
            target: 0xE100,
            base_len: 256,
            segments: vec![
                DeltaSegment {
                    offset: 0,
                    bytes: vec![1; 64],
                },
                DeltaSegment {
                    offset: 128,
                    bytes: vec![2; 64],
                },
            ],
            nonce: 42,
            version: 3,
            mac: [9; 32],
        };
        let mut buf = Vec::new();
        encode_delta_update_request(&request, &mut buf);
        let mut reader = Reader::new(&buf);
        assert_eq!(decode_delta_update_request(&mut reader).unwrap(), request);
        assert!(reader.is_empty());
    }

    #[test]
    fn delta_forged_counts_are_rejected_before_allocation() {
        // Forged huge segment count.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xE000u16.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&64u32.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = Reader::new(&buf);
        assert!(matches!(
            decode_delta_update_request(&mut reader),
            Err(CodecError::Oversized { .. })
        ));

        // Forged huge base range.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xE000u16.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = Reader::new(&buf);
        assert!(matches!(
            decode_delta_update_request(&mut reader),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_prefix() {
        let report = AttestationReport {
            challenge: challenge(),
            measurement: [1; 32],
            mac: [2; 32],
        };
        let mut buf = Vec::new();
        encode_report(&report, &mut buf);
        for cut in 0..buf.len() {
            let mut reader = Reader::new(&buf[..cut]);
            assert!(matches!(
                decode_report(&mut reader),
                Err(CodecError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn zero_length_delta_base_is_rejected() {
        // target ‖ nonce ‖ version ‖ empty base range.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xE000u16.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = Reader::new(&buf);
        assert_eq!(
            decode_delta_update_request(&mut reader),
            Err(CodecError::BadLength { len: 0 })
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CodecError::Truncated { needed: 4, have: 1 }
            .to_string()
            .contains("truncated"));
        assert!(CodecError::Oversized {
            claimed: 99,
            max: 10
        }
        .to_string()
        .contains("oversized"));
        assert!(CodecError::BadLength { len: 0 }.to_string().contains("0"));
    }

    /// The decoded bytes of a report MACed under the *update* domain tag
    /// decode fine (the codec is structural) but must then die on MAC
    /// verification — domain separation is enforced by the crypto layer,
    /// and the codec must not pretend otherwise.
    #[test]
    fn cross_protocol_mac_passes_the_codec_but_fails_verification() {
        use crate::{AttestationVerifier, Attestor, UpdateAuthority};
        let key = b"cross-protocol-key-0123456789abc";
        let mut authority = UpdateAuthority::new(key);
        let update = authority.authorize(0xE000, &[0xAA; 32]);

        // Adversary grafts the update MAC onto a report body.
        let forged = AttestationReport {
            challenge: challenge(),
            measurement: [0xAA; 32],
            mac: update.mac,
        };
        let mut buf = Vec::new();
        encode_report(&forged, &mut buf);
        let decoded = decode_report(&mut Reader::new(&buf)).unwrap();
        assert_eq!(
            decoded, forged,
            "the codec is structural, not cryptographic"
        );

        let verifier = AttestationVerifier::new(key);
        assert_eq!(
            verifier.verify(&challenge(), &decoded, None),
            Err(crate::AttestError::BadMac),
            "the domain-separated MAC tag must reject the cross-protocol graft"
        );

        // And the honest report still verifies after a wire round-trip.
        let honest = Attestor::new(key).report(challenge(), [0xAA; 32]);
        let mut buf = Vec::new();
        encode_report(&honest, &mut buf);
        let decoded = decode_report(&mut Reader::new(&buf)).unwrap();
        verifier.verify(&challenge(), &decoded, None).unwrap();
    }
}
