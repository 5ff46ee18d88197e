//! Collective attestation: aggregation trees over per-device
//! attestation evidence, and shard-scoped aggregate proofs.
//!
//! The SEDA/SANA lineage shows fleet attestation evidence can be
//! *aggregated* up a hash tree so the all-clean common case verifies in
//! far fewer operations than one MAC check per device. This module is
//! the cryptographic core of EILID's aggregated sweep:
//!
//! * a **leaf** binds one device's evidence — id, answered challenge,
//!   measurement and report MAC — under a leaf-only domain tag;
//! * an **interior node** hashes its two children under a node-only
//!   tag (so no leaf can masquerade as a node or vice versa);
//! * the **root** of each gateway shard's tree is MAC'd with a
//!   shard-scoped key derived from the fleet root key, with the sweep
//!   **epoch** (the sweep's reserved challenge-nonce base — strictly
//!   increasing, so a proof can never be replayed into a later sweep)
//!   and the participant count bound into the MAC message;
//! * per-gateway shard roots fold into one **fleet root** digest, so a
//!   clean N-device, G-gateway sweep costs the operator O(G·S) MAC
//!   verifications (S = shard count, a constant 16) instead of O(N).
//!
//! When an aggregate does *not* match expectations, the verifier
//! descends only into mismatching subtrees ([`EvidenceTree::diff`]) —
//! equal subtrees are skipped wholesale — isolating exactly the suspect
//! leaves for per-device fallback.
//!
//! Layout and idiom deliberately mirror [`crate::merkle::MerkleTree`]:
//! 1-indexed heap order, power-of-two leaf padding, domain-separated
//! leaf/node hashing.

use crate::attest::AttestationReport;
use crate::concat;
use crate::hmac::{hmac_sha256, verify_tag, TAG_SIZE};
use crate::sha256::sha256;

/// Domain tag for evidence leaves.
pub const AGG_LEAF_TAG: &[u8] = b"eilid-agg-leaf-v1";
/// Domain tag for interior nodes.
pub const AGG_NODE_TAG: &[u8] = b"eilid-agg-node-v1";
/// Domain tag for the shard-root MAC message.
pub const AGG_ROOT_TAG: &[u8] = b"eilid-agg-root-v1";
/// Domain tag for deriving shard aggregation keys from the fleet root
/// key.
pub const AGG_SHARD_KEY_TAG: &[u8] = b"eilid-agg-shard-key-v1";
/// Domain tag for folding shard roots into one fleet root.
pub const AGG_FLEET_TAG: &[u8] = b"eilid-agg-fleet-v1";

/// Digest of one device's attestation evidence: the leaf the
/// aggregation tree is built over.
///
/// Binds the device id, the full answered challenge (nonce and range),
/// the reported measurement *and* the report MAC — so flipping any bit
/// of what the device actually sent changes the leaf, and therefore the
/// root (pinned by the adversarial tests).
pub fn evidence_leaf(device: u64, report: &AttestationReport) -> [u8; 32] {
    let msg: [u8; AGG_LEAF_TAG.len() + 8 + 12 + 32 + TAG_SIZE] = concat(&[
        AGG_LEAF_TAG,
        &device.to_le_bytes(),
        &report.challenge.nonce.to_le_bytes(),
        &report.challenge.start.to_le_bytes(),
        &report.challenge.end.to_le_bytes(),
        &report.measurement,
        &report.mac,
    ]);
    sha256(&msg)
}

/// Leaf for a device that answered no probe at all (connection gone or
/// reply lost): there is no report to digest, but the device must still
/// occupy its canonical slot so the tree geometry — and the suspect
/// indices a descent yields — stay aligned with the participant list.
/// Domain-separated from evidence leaves (84 bytes after the tag) and
/// padding leaves (4 bytes) by carrying exactly 8.
pub fn missing_leaf(device: u64) -> [u8; 32] {
    let msg: [u8; AGG_LEAF_TAG.len() + 8] = concat(&[AGG_LEAF_TAG, &device.to_le_bytes()]);
    sha256(&msg)
}

/// Padding leaf for index `index` (real leaves carry 84 bytes after the
/// tag, padding leaves 4 — the lengths keep the domains disjoint).
fn padding_leaf(index: u32) -> [u8; 32] {
    let msg: [u8; AGG_LEAF_TAG.len() + 4] = concat(&[AGG_LEAF_TAG, &index.to_le_bytes()]);
    sha256(&msg)
}

/// Hash of an interior node over its two children.
fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let msg: [u8; AGG_NODE_TAG.len() + 64] = concat(&[AGG_NODE_TAG, left, right]);
    sha256(&msg)
}

/// An aggregation tree over per-device evidence leaves.
///
/// Same shape as [`crate::merkle::MerkleTree`]: leaves padded to the
/// next power of two, nodes in 1-indexed heap order (`nodes[1]` is the
/// root; children of `i` are `2i` and `2i+1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceTree {
    leaves: usize,
    padded: usize,
    nodes: Vec<[u8; 32]>,
}

impl EvidenceTree {
    /// Builds the tree over `leaves` (already-digested evidence, in the
    /// shard's canonical device-id order).
    pub fn from_leaves(leaves: &[[u8; 32]]) -> Self {
        let count = leaves.len().max(1);
        let padded = count.next_power_of_two();
        let mut nodes = vec![[0u8; 32]; 2 * padded];
        for (index, leaf) in leaves.iter().enumerate() {
            nodes[padded + index] = *leaf;
        }
        for index in leaves.len()..padded {
            nodes[padded + index] = padding_leaf(index as u32);
        }
        for index in (1..padded).rev() {
            nodes[index] = node_hash(&nodes[2 * index], &nodes[2 * index + 1]);
        }
        EvidenceTree {
            leaves: leaves.len(),
            padded,
            nodes,
        }
    }

    /// The aggregate root.
    pub fn root(&self) -> [u8; 32] {
        self.nodes[1]
    }

    /// Number of real (non-padding) leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The leaf digest at `index` (real leaves only).
    pub fn leaf(&self, index: usize) -> Option<[u8; 32]> {
        (index < self.leaves).then(|| self.nodes[self.padded + index])
    }

    /// Suspect-subtree descent: the indices of real leaves that differ
    /// between `self` and `other`, found by walking both trees top-down
    /// and *skipping every subtree whose node hashes agree*. The
    /// returned [`DescentReport`] also counts the nodes visited — the
    /// witness that a localized discrepancy costs O(log n), not O(n).
    ///
    /// Trees of different geometry (leaf counts) have no common shape
    /// to descend; every real leaf of `self` is suspect.
    pub fn diff(&self, other: &EvidenceTree) -> DescentReport {
        if self.padded != other.padded || self.leaves != other.leaves {
            return DescentReport {
                suspects: (0..self.leaves).collect(),
                nodes_visited: 1,
            };
        }
        let mut report = DescentReport {
            suspects: Vec::new(),
            nodes_visited: 0,
        };
        self.descend(other, 1, &mut report);
        report.suspects.sort_unstable();
        report
    }

    fn descend(&self, other: &EvidenceTree, index: usize, report: &mut DescentReport) {
        report.nodes_visited += 1;
        if self.nodes[index] == other.nodes[index] {
            return; // Clean subtree: never descended into.
        }
        if index >= self.padded {
            let leaf = index - self.padded;
            if leaf < self.leaves {
                report.suspects.push(leaf);
            }
            return;
        }
        self.descend(other, 2 * index, report);
        self.descend(other, 2 * index + 1, report);
    }
}

/// Result of a suspect-subtree descent ([`EvidenceTree::diff`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescentReport {
    /// Indices of real leaves whose digests differ, ascending.
    pub suspects: Vec<usize>,
    /// Tree nodes visited during the descent (root included). For one
    /// differing leaf among n this is ~2·log₂(n), not n.
    pub nodes_visited: usize,
}

/// Derives the aggregation key of `shard` from the fleet root key.
///
/// Shard-scoped so a proof forged for one shard can never verify as
/// another's, and domain-tagged so the derivation can never collide
/// with device-key derivation (`"eilid-device-key"`).
pub fn shard_agg_key(root_key: &[u8], shard: u16) -> [u8; 32] {
    let msg: [u8; AGG_SHARD_KEY_TAG.len() + 2] = concat(&[AGG_SHARD_KEY_TAG, &shard.to_le_bytes()]);
    hmac_sha256(root_key, &msg)
}

/// One shard's aggregate proof: the MAC'd root of its evidence tree.
///
/// The MAC message binds the shard index, the sweep epoch and the
/// participant count alongside the root, so a proof cannot be replayed
/// across shards, sweeps, or participant sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggProof {
    /// The shard this proof aggregates (`device % SHARD_COUNT`).
    pub shard: u16,
    /// The sweep epoch: the sweep's reserved challenge-nonce base,
    /// strictly increasing across the fleet's lifetime.
    pub epoch: u64,
    /// Devices aggregated under the root.
    pub count: u32,
    /// Root of the shard's [`EvidenceTree`].
    pub root: [u8; 32],
    /// `HMAC(shard_key, root-tag ‖ shard ‖ epoch ‖ count ‖ root)`.
    pub mac: [u8; TAG_SIZE],
}

fn root_message(
    shard: u16,
    epoch: u64,
    count: u32,
    root: &[u8; 32],
) -> [u8; AGG_ROOT_TAG.len() + 2 + 8 + 4 + 32] {
    concat(&[
        AGG_ROOT_TAG,
        &shard.to_le_bytes(),
        &epoch.to_le_bytes(),
        &count.to_le_bytes(),
        root,
    ])
}

impl AggProof {
    /// MACs `root` with the shard's aggregation key.
    pub fn sign(shard_key: &[u8; 32], shard: u16, epoch: u64, count: u32, root: [u8; 32]) -> Self {
        let mac = hmac_sha256(shard_key, &root_message(shard, epoch, count, &root));
        AggProof {
            shard,
            epoch,
            count,
            root,
            mac,
        }
    }

    /// Constant-time verification of the proof under the shard's
    /// aggregation key — the one cryptographic check a clean shard
    /// costs the operator.
    pub fn verify(&self, shard_key: &[u8; 32]) -> bool {
        let expected = hmac_sha256(
            shard_key,
            &root_message(self.shard, self.epoch, self.count, &self.root),
        );
        verify_tag(&expected, &self.mac)
    }
}

/// Folds (shard, root) pairs — in the caller's canonical order:
/// ascending shard within a gateway, gateways in placement order — into
/// one fleet-root digest. The pair count is bound so a truncated
/// sequence can never collide with a full one.
pub fn fleet_root(roots: &[(u16, [u8; 32])]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(AGG_FLEET_TAG.len() + 4 + roots.len() * 34);
    msg.extend_from_slice(AGG_FLEET_TAG);
    msg.extend_from_slice(&(roots.len() as u32).to_le_bytes());
    for (shard, root) in roots {
        msg.extend_from_slice(&shard.to_le_bytes());
        msg.extend_from_slice(root);
    }
    sha256(&msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::{Attestor, Challenge};

    fn report_for(device: u64, tamper: bool) -> AttestationReport {
        let attestor = Attestor::new(b"device-key-material!");
        let challenge = Challenge {
            nonce: 100 + device,
            start: 0xE000,
            end: 0xFFDF,
        };
        let mut measurement = [0x42u8; 32];
        if tamper {
            measurement[7] ^= 0x01;
        }
        attestor.report(challenge, measurement)
    }

    fn leaves(n: u64, tampered: &[u64]) -> Vec<[u8; 32]> {
        (0..n)
            .map(|device| evidence_leaf(device, &report_for(device, tampered.contains(&device))))
            .collect()
    }

    #[test]
    fn single_bit_leaf_flip_changes_the_root() {
        // The adversarial core: a tampered device can never hide inside
        // a clean aggregate, because any change to any report bit — a
        // single measurement bit here — changes its leaf and the root.
        for n in [1u64, 2, 3, 7, 8, 33] {
            let clean = EvidenceTree::from_leaves(&leaves(n, &[]));
            for victim in 0..n {
                let dirty = EvidenceTree::from_leaves(&leaves(n, &[victim]));
                assert_ne!(
                    clean.root(),
                    dirty.root(),
                    "tampered device {victim} hidden in a {n}-leaf aggregate"
                );
            }
        }
    }

    #[test]
    fn mac_flip_also_changes_the_leaf() {
        let honest = report_for(3, false);
        let mut forged = honest;
        forged.mac[0] ^= 0x80;
        assert_ne!(evidence_leaf(3, &honest), evidence_leaf(3, &forged));
    }

    #[test]
    fn descent_isolates_exactly_the_tampered_set() {
        let n = 64u64;
        let tampered = [5u64, 6, 41];
        let clean = EvidenceTree::from_leaves(&leaves(n, &[]));
        let dirty = EvidenceTree::from_leaves(&leaves(n, &tampered));
        let report = clean.diff(&dirty);
        assert_eq!(report.suspects, vec![5, 6, 41]);
        // Sublinear: 3 localized discrepancies in a 64-leaf tree must
        // not visit anywhere near all 127 nodes.
        assert!(
            report.nodes_visited < 2 * dirty.padded,
            "descent visited {} nodes",
            report.nodes_visited
        );
    }

    #[test]
    fn clean_subtrees_are_never_descended() {
        let clean = EvidenceTree::from_leaves(&leaves(128, &[]));
        let dirty = EvidenceTree::from_leaves(&leaves(128, &[127]));
        let report = clean.diff(&dirty);
        assert_eq!(report.suspects, vec![127]);
        // One bad leaf in 128: the path root→leaf is 8 nodes; with both
        // children inspected at each level that is ≤ 2·8 visits.
        assert!(report.nodes_visited <= 16);
        // And the all-clean diff inspects exactly one node: the root.
        assert_eq!(clean.diff(&clean).nodes_visited, 1);
        assert!(clean.diff(&clean).suspects.is_empty());
    }

    #[test]
    fn proof_binds_shard_epoch_count_and_root() {
        let key = shard_agg_key(b"fleet-root-key-0123", 4);
        let tree = EvidenceTree::from_leaves(&leaves(10, &[]));
        let proof = AggProof::sign(&key, 4, 7_000, 10, tree.root());
        assert!(proof.verify(&key));

        let wrong_key = shard_agg_key(b"fleet-root-key-0123", 5);
        assert!(!proof.verify(&wrong_key));

        for mutate in [
            AggProof { shard: 5, ..proof },
            AggProof {
                epoch: 7_001,
                ..proof
            },
            AggProof { count: 11, ..proof },
            AggProof {
                root: [0u8; 32],
                ..proof
            },
            AggProof {
                mac: [0u8; TAG_SIZE],
                ..proof
            },
        ] {
            assert!(!mutate.verify(&key), "mutation accepted: {mutate:?}");
        }
    }

    #[test]
    fn padding_leaves_cannot_forge_participants() {
        // A 3-leaf tree and a 4-leaf tree whose 4th leaf equals the
        // padding digest would share a root only if a real leaf could
        // collide with a padding leaf — their preimage lengths differ.
        let three = leaves(3, &[]);
        let tree3 = EvidenceTree::from_leaves(&three);
        let mut four = three.clone();
        four.push(evidence_leaf(3, &report_for(3, false)));
        let tree4 = EvidenceTree::from_leaves(&four);
        assert_ne!(tree3.root(), tree4.root());
    }

    #[test]
    fn fleet_root_is_order_and_count_sensitive() {
        let a = (0u16, [1u8; 32]);
        let b = (1u16, [2u8; 32]);
        assert_ne!(fleet_root(&[a, b]), fleet_root(&[b, a]));
        assert_ne!(fleet_root(&[a]), fleet_root(&[a, a]));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn aggregation_bytes_are_pinned() {
        // Every digest and MAC the aggregated sweep puts on the wire,
        // on fixed inputs. Padding paths: n = 0 and 3 pad, 1 and 4 do
        // not, 17 pads to 32.
        assert_eq!(
            hex(&evidence_leaf(7, &report_for(7, false))),
            "8a92ce2db98bbd29fc86efe6552c69a144734e14fc48fc7f5cec59152d34a3d3"
        );
        assert_eq!(
            hex(&missing_leaf(7)),
            "63bb5ce5dce5333a077a4c0a1cb35fbac952efa8f8679ac69b7ef3d19cf373fb"
        );
        let roots: Vec<String> = [0u64, 1, 3, 4, 17]
            .iter()
            .map(|&n| hex(&EvidenceTree::from_leaves(&leaves(n, &[])).root()))
            .collect();
        assert_eq!(
            roots,
            [
                "65485b96eec6b51cd77a02a027fb6300efa631146ef1337599fb34c87121deef",
                "ebc7957c591f9a20831b68c70c59299be43a3217cdc027959cad883d66624fe7",
                "a7860a5cc8655cb2d702a392645360445bfc629e6452185b586369fb34467790",
                "77d93ba92f8a2c57399f9e5f0010bea49cfc8d1c4ea34aa750df11948f3f2530",
                "85869be2e3ef6699e89c6a4a77b0757672ed14209e773ee2d4262aa5e3e8187e",
            ]
        );
        let key = shard_agg_key(b"fleet-root-key-0123", 4);
        assert_eq!(
            hex(&key),
            "95bbdb95623fd53acb6b4281512f23e60645ef13c372c027e29ab7f3b26c1361"
        );
        let root = EvidenceTree::from_leaves(&leaves(17, &[])).root();
        let proof = AggProof::sign(&key, 4, 7_000, 17, root);
        assert_eq!(
            hex(&proof.mac),
            "2018feb41c145252da2c896e1016758c350fc07b5bc3d790b52aebd036958062"
        );
        assert_eq!(
            hex(&fleet_root(&[(0, [1u8; 32]), (4, root)])),
            "b43f43d217265c36639ca306c3fa2a8c191e866b04dbe43961b029f532affda7"
        );
    }

    #[test]
    fn empty_and_single_leaf_trees_are_well_formed() {
        let empty = EvidenceTree::from_leaves(&[]);
        assert_eq!(empty.leaf_count(), 0);
        let one = leaves(1, &[]);
        let single = EvidenceTree::from_leaves(&one);
        assert_eq!(single.leaf_count(), 1);
        assert_ne!(empty.root(), single.root());
        assert_eq!(single.leaf(0), Some(one[0]));
        assert_eq!(single.leaf(1), None);
    }
}
