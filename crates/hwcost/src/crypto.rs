//! Cost model for the verifier's sweep crypto.
//!
//! The collective-attestation verifier hashes and MACs with
//! [`eilid_casu::sha256::sha256`] and [`eilid_casu::hmac::hmac_sha256`];
//! this module prices a sweep's crypto the same way [`crate::model`]
//! prices the monitor: structurally, from operation counts (SHA-256
//! compressions), with the per-compression cost left to the caller.
//!
//! Two workload shapes are priced:
//!
//! * a **per-device sweep** — one report-MAC verification per device,
//!   and the operator re-verifies nothing (the gateway ships per-device
//!   verdicts);
//! * an **aggregated sweep** — the gateway additionally folds evidence
//!   leaves into per-shard trees and MACs one root per shard, and the
//!   operator verifies at most `shards` root MACs instead of trusting
//!   per-device verdicts.
//!
//! The aggregation overhead (leaves + nodes + root MACs) and the
//! operator-side saving (`devices` → `shards` verifications) both fall
//! out of the counts, so the rendered table doubles as the "is the
//! tree worth it" calculation at any fleet size.

use serde::{Deserialize, Serialize};

/// SHA-256 compressions to hash a `len`-byte message (9 bytes of
/// mandatory padding, 64-byte blocks).
pub fn sha_compressions(len: u64) -> u64 {
    (len + 9).div_ceil(64)
}

/// Bytes of the attestation-report MAC message (domain tag + challenge
/// + measurement).
pub const REPORT_MAC_MESSAGE_BYTES: u64 = 15 + 44;
/// Bytes of an aggregate evidence leaf preimage (tag + device + nonce +
/// range + measurement + report MAC).
pub const AGG_LEAF_MESSAGE_BYTES: u64 = 17 + 84;
/// Bytes of an aggregate interior-node preimage (tag + two children).
pub const AGG_NODE_MESSAGE_BYTES: u64 = 17 + 64;
/// Bytes of an aggregate root MAC message (tag + shard + epoch + count
/// + root).
pub const AGG_ROOT_MESSAGE_BYTES: u64 = 17 + 46;

/// Compressions of one HMAC (ipad + opad absorbs, inner message
/// finalize, outer digest finalize).
pub fn hmac_compressions(message_len: u64) -> u64 {
    3 + sha_compressions(message_len)
}

/// The verifier-side crypto operations one sweep performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CryptoWorkload {
    /// Devices swept (one report MAC verification each, device-unique
    /// keys).
    pub devices: u64,
    /// Non-empty shards (zero for a per-device sweep: nothing is
    /// aggregated, the operator trusts per-device verdicts instead).
    pub shards: u64,
    /// Evidence-leaf hashes (aggregated sweeps only: one per device).
    pub leaf_hashes: u64,
    /// Interior-node hashes (≈ one per leaf across all shard trees,
    /// padding included).
    pub node_hashes: u64,
    /// Aggregate-root MACs minted by the gateway — and the *only* MACs
    /// the operator must verify.
    pub root_macs: u64,
}

impl CryptoWorkload {
    /// A per-device sweep over `devices`: report MACs only.
    pub fn per_device_sweep(devices: u64) -> Self {
        CryptoWorkload {
            devices,
            shards: 0,
            leaf_hashes: 0,
            node_hashes: 0,
            root_macs: 0,
        }
    }

    /// An aggregated sweep over `devices` partitioned into `shards`
    /// trees: report MACs plus leaves, interior nodes and one root MAC
    /// per shard.
    pub fn aggregated_sweep(devices: u64, shards: u64) -> Self {
        CryptoWorkload {
            devices,
            shards,
            leaf_hashes: devices,
            node_hashes: devices,
            root_macs: shards,
        }
    }

    /// MAC verifications the *operator* performs to accept this sweep:
    /// every root MAC for an aggregated sweep, every device otherwise.
    pub fn operator_verifications(&self) -> u64 {
        if self.root_macs > 0 {
            self.root_macs
        } else {
            self.devices
        }
    }

    /// SHA-256 compressions the verifier host runs for this sweep:
    /// every MAC pays its full key schedule, every hash runs on the
    /// host.
    pub fn host_compressions(&self) -> u64 {
        self.devices * hmac_compressions(REPORT_MAC_MESSAGE_BYTES)
            + self.root_macs * hmac_compressions(AGG_ROOT_MESSAGE_BYTES)
            + self.leaf_hashes * sha_compressions(AGG_LEAF_MESSAGE_BYTES)
            + self.node_hashes * sha_compressions(AGG_NODE_MESSAGE_BYTES)
    }

    /// Sweep-crypto microseconds at `compression_micros` per host
    /// compression. The constant is the caller's to measure: the
    /// scalar schedule in `eilid_casu::sha256` runs ~0.33 µs per
    /// compression on a typical x86-64 core, the SHA-NI path ~0.08 µs
    /// — the compression *counts* priced here are identical either
    /// way, which is why the model is parametric in the constant.
    pub fn host_micros(&self, compression_micros: f64) -> f64 {
        self.host_compressions() as f64 * compression_micros
    }
}

/// Renders the per-device vs aggregated sweep-crypto table for a fleet
/// of `devices` across `shards` shards, plus the operator-verification
/// comparison row the aggregation tree earns its keep with.
pub fn render_crypto_matrix(devices: u64, shards: u64, compression_micros: f64) -> String {
    let per_device = CryptoWorkload::per_device_sweep(devices);
    let aggregated = CryptoWorkload::aggregated_sweep(devices, shards);
    let mut out = format!(
        "Verifier sweep crypto ({devices} devices, {shards} shards, \
         {compression_micros} µs/compression)\n\
         sweep       host compressions   total µs\n"
    );
    for (label, workload) in [("per-device", &per_device), ("aggregated", &aggregated)] {
        out.push_str(&format!(
            "{:<11} {:>17} {:>10.0}\n",
            label,
            workload.host_compressions(),
            workload.host_micros(compression_micros),
        ));
    }
    out.push_str(&format!(
        "operator  verifications: per-device {} vs aggregated {} ({}x fewer)\n",
        per_device.operator_verifications(),
        aggregated.operator_verifications(),
        per_device.operator_verifications() / aggregated.operator_verifications().max(1),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_counts_follow_block_structure() {
        assert_eq!(sha_compressions(0), 1);
        assert_eq!(sha_compressions(55), 1);
        assert_eq!(sha_compressions(56), 2);
        assert_eq!(sha_compressions(64), 2);
        assert_eq!(sha_compressions(119), 2);
        assert_eq!(sha_compressions(120), 3);
        // The 59-byte report message straddles the padding boundary.
        assert_eq!(hmac_compressions(REPORT_MAC_MESSAGE_BYTES), 5);
        assert_eq!(
            CryptoWorkload::per_device_sweep(1000).host_compressions(),
            5000
        );
    }

    #[test]
    fn aggregation_compresses_operator_work_sublinearly() {
        let per_device = CryptoWorkload::per_device_sweep(1000);
        let aggregated = CryptoWorkload::aggregated_sweep(1000, 16);
        assert_eq!(per_device.operator_verifications(), 1000);
        assert_eq!(aggregated.operator_verifications(), 16);
        // The gateway pays for the tree (leaves + nodes + root MACs)...
        let gateway_overhead = aggregated.host_compressions() - per_device.host_compressions();
        assert!(gateway_overhead > 0);
        // ...but stays linear in devices, while the operator drops from
        // O(devices) to O(shards).
        assert!(gateway_overhead < 6 * 1000);
    }

    #[test]
    fn matrix_renders_both_sweeps_and_the_operator_row() {
        let matrix = render_crypto_matrix(1000, 16, 0.25);
        assert!(matrix.contains("per-device"));
        assert!(matrix.contains("aggregated"));
        assert!(matrix.contains("per-device 1000 vs aggregated 16 (62x fewer)"));
    }
}
