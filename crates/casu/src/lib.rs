//! # eilid-casu — CASU: the active Root-of-Trust that EILID builds on
//!
//! CASU ("Compromise Avoidance via Secure Updates", ICCAD 2022) is a hybrid
//! hardware/software Root-of-Trust for low-end MCUs. It *prevents* (rather
//! than detects) software compromise by monitoring CPU bus signals in
//! hardware and resetting the device whenever:
//!
//! * software writes program memory or the interrupt-vector table, which
//!   only the authenticated update engine may change (software
//!   immutability),
//! * an instruction is fetched from writable memory (W⊕X),
//! * trusted code in the secure ROM is entered anywhere but its entry point,
//!   left outside its leave section, or interrupted (atomicity),
//! * non-secure code touches the secure data region — the extension EILID
//!   adds for its shadow stack.
//!
//! This crate models that hardware as a [`CasuMonitor`] evaluated over the
//! per-step [`StepTrace`](eilid_msp430::StepTrace)s of the
//! [`eilid_msp430`] simulator, plus the authenticated-update protocol
//! ([`UpdateAuthority`] / [`UpdateEngine`]) with a self-contained
//! HMAC-SHA-256 implementation. Device and verifier share that one
//! crypto path: [`HmacKey`] (a key's HMAC schedule, computed once per
//! key) and [`sha256()`] (SHA-NI when the CPU has it) back attestation
//! reports, update MACs and the aggregation trees of [`agg`] alike.
//!
//! The EILID core crate (`eilid`) composes this monitor with its
//! instrumenter and trusted software to obtain run-time CFI on top of
//! CASU's static guarantees.
//!
//! # Examples
//!
//! Authenticated update flow:
//!
//! ```
//! use eilid_casu::{MemoryLayout, UpdateAuthority, UpdateEngine};
//! use eilid_msp430::Memory;
//!
//! let layout = MemoryLayout::default();
//! let key = b"device-key";
//! let mut authority = UpdateAuthority::new(key);
//! let mut engine = UpdateEngine::new(key, layout);
//! let mut memory = Memory::new();
//!
//! let request = authority.authorize(0xE000, &[0x03, 0x43]); // nop
//! engine.apply(&request, &mut memory)?;
//! assert_eq!(memory.read_word(0xE000), 0x4303);
//! # Ok::<(), eilid_casu::UpdateError>(())
//! ```

// Deny rather than forbid: the SHA-NI compression path in `sha256`
// needs CPU intrinsics behind a module-scoped allow, the same pattern
// the net crate's poller and the fleet crate's pool use.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod attest;
pub mod hmac;
pub mod key;
pub mod layout;
pub mod merkle;
pub mod monitor;
pub mod policy;
pub mod sha256;
pub mod update;
pub mod violation;
pub mod wire;

pub use agg::{
    evidence_leaf, fleet_root, missing_leaf, shard_agg_key, AggProof, DescentReport, EvidenceTree,
    AGG_FLEET_TAG, AGG_LEAF_TAG, AGG_NODE_TAG, AGG_ROOT_TAG, AGG_SHARD_KEY_TAG,
};
pub use attest::{
    measure_pmem, AttestError, AttestationReport, AttestationVerifier, Attestor, Challenge,
};
pub use hmac::{hmac_sha256, verify_tag, HmacKey, TAG_SIZE};
pub use key::{DeviceKey, KeyError, MIN_KEY_LEN};
pub use layout::{LayoutError, MemoryLayout, Region};
pub use merkle::{
    merkle_measure, merkle_measure_pmem, IncrementalMeasurer, MeasurementScheme, MeasurerStats,
    MerkleTree, LEAF_SIZE,
};
pub use monitor::CasuMonitor;
pub use policy::{CasuPolicy, VIOLATION_STROBE_ADDR};
pub use sha256::{sha256, Sha256, DIGEST_SIZE};
pub use update::{
    DeltaSegment, DeltaUpdateRequest, UpdateAuthority, UpdateEngine, UpdateError, UpdateRequest,
    DELTA_GRANULE,
};
pub use violation::{CfiFault, Violation};
pub use wire::CodecError;

/// Concatenates `parts` into a stack buffer of exactly `N` bytes: how
/// the fixed-size MAC and hash messages are built, with no heap
/// allocation per hash.
fn concat<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut at = 0;
    for part in parts {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    assert_eq!(at, N, "message parts must fill the buffer exactly");
    out
}
