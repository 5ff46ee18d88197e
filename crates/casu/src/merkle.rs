//! Incremental Merkle measurement of program memory.
//!
//! Flat measurement re-hashes the entire PMEM range (6 KiB in the
//! default layout, ~96 SHA-256 compressions) on every attestation. But
//! CASU's defining invariant is that PMEM only changes through writes the
//! hardware monitor mediates — which is exactly the precondition for
//! *incremental* measurement: track which lines changed since the last
//! measurement and re-hash only those.
//!
//! This module provides:
//!
//! * [`MerkleTree`] — a chunked Merkle tree over an address range with
//!   [`LEAF_SIZE`]-byte leaves, domain-separated leaf/interior hashes and
//!   index-bound leaves.
//! * [`IncrementalMeasurer`] — a tree kept coherent with a
//!   [`Memory`] by draining the memory's dirty-granule bits (see
//!   [`eilid_msp430::memory::DIRTY_GRANULE`]): serving a root re-hashes
//!   only dirty leaves plus the tree spine above them. Because *every*
//!   content mutation of [`Memory`] sets dirty bits — CPU bus writes,
//!   authenticated-update loads, and simulated physical tampering alike —
//!   the engine can never serve a stale root: there is no mutation path
//!   that bypasses invalidation.
//! * [`MeasurementScheme`] — the verifier/device agreement on what the
//!   32-byte measurement in an attestation report *is*: the Merkle root,
//!   which fits the existing report format, so the wire protocol is
//!   unchanged.
//!
//! The leaf hash binds the leaf index (`H("eilid-merkle-leaf" ‖ index ‖
//! bytes)`) and interior nodes are domain-separated
//! (`H("eilid-merkle-node" ‖ left ‖ right)`), so leaves cannot be
//! reinterpreted as interior nodes or relocated without changing the
//! root. Trees are padded to a power-of-two leaf count with empty-leaf
//! hashes.

use serde::{Deserialize, Serialize};

use eilid_msp430::{memory::DIRTY_GRANULE, Memory};

use crate::layout::{MemoryLayout, LAYOUT};
use crate::sha256::Sha256;

/// Bytes covered by one Merkle leaf. Equal to the memory dirty-tracking
/// granule so one dirty bit maps to (at most two) leaves.
pub const LEAF_SIZE: usize = DIRTY_GRANULE;

const LEAF_TAG: &[u8] = b"eilid-merkle-leaf";
const NODE_TAG: &[u8] = b"eilid-merkle-node";

fn leaf_hash(index: u32, bytes: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(LEAF_TAG);
    hasher.update(&index.to_le_bytes());
    hasher.update(bytes);
    hasher.finalize()
}

fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(NODE_TAG);
    hasher.update(left);
    hasher.update(right);
    hasher.finalize()
}

/// A chunked Merkle tree over the byte range `start..=end` of a
/// [`Memory`], with [`LEAF_SIZE`]-byte leaves.
///
/// Stored as a classic 1-indexed heap: `nodes[1]` is the root, node `i`
/// has children `2i` and `2i + 1`, and the `padded` leaves occupy
/// `nodes[padded..2 * padded]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MerkleTree {
    start: u16,
    end: u16,
    leaves: usize,
    padded: usize,
    nodes: Vec<[u8; 32]>,
}

impl MerkleTree {
    /// Builds the tree over `start..=end` (inclusive) from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn build(memory: &Memory, start: u16, end: u16) -> Self {
        assert!(start <= end, "empty measurement range");
        let len = usize::from(end) - usize::from(start) + 1;
        let leaves = len.div_ceil(LEAF_SIZE);
        let padded = leaves.next_power_of_two();
        let mut tree = MerkleTree {
            start,
            end,
            leaves,
            padded,
            nodes: vec![[0u8; 32]; 2 * padded],
        };
        for index in 0..leaves {
            tree.nodes[padded + index] = tree.hash_leaf(memory, index);
        }
        for index in leaves..padded {
            tree.nodes[padded + index] = leaf_hash(index as u32, &[]);
        }
        for index in (1..padded).rev() {
            tree.nodes[index] = node_hash(&tree.nodes[2 * index], &tree.nodes[2 * index + 1]);
        }
        tree
    }

    /// First address of the measured range.
    pub fn start(&self) -> u16 {
        self.start
    }

    /// Last address of the measured range (inclusive).
    pub fn end(&self) -> u16 {
        self.end
    }

    /// Number of real (non-padding) leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The current root.
    pub fn root(&self) -> [u8; 32] {
        self.nodes[1]
    }

    /// The byte range (half-open, clamped to the measured range) covered
    /// by leaf `index`.
    fn leaf_span(&self, index: usize) -> (usize, usize) {
        let base = usize::from(self.start) + index * LEAF_SIZE;
        let end = (base + LEAF_SIZE).min(usize::from(self.end) + 1);
        (base, end)
    }

    fn hash_leaf(&self, memory: &Memory, index: usize) -> [u8; 32] {
        let (base, end) = self.leaf_span(index);
        leaf_hash(index as u32, memory.slice(base..end))
    }

    /// Re-hashes the given leaves from `memory` and recomputes the spine
    /// above them. Returns the number of leaves re-hashed. Out-of-range
    /// leaf indices are ignored.
    fn refresh_leaves<I: IntoIterator<Item = usize>>(
        &mut self,
        memory: &Memory,
        leaves: I,
    ) -> usize {
        let mut rehashed = 0;
        // Collect the set of parents whose children changed, level by
        // level, so shared spine nodes are recomputed once.
        let mut frontier: Vec<usize> = Vec::new();
        for index in leaves {
            if index >= self.leaves {
                continue;
            }
            self.nodes[self.padded + index] = self.hash_leaf(memory, index);
            rehashed += 1;
            // A single-leaf tree has no interior nodes: the leaf slot
            // (nodes[1]) *is* the root.
            if self.padded > 1 {
                frontier.push((self.padded + index) / 2);
            }
        }
        while !frontier.is_empty() {
            frontier.sort_unstable();
            frontier.dedup();
            let mut next = Vec::with_capacity(frontier.len());
            for &node in &frontier {
                self.nodes[node] = node_hash(&self.nodes[2 * node], &self.nodes[2 * node + 1]);
                if node > 1 {
                    next.push(node / 2);
                }
            }
            frontier = next;
        }
        rehashed
    }
}

/// Computes the Merkle measurement of `start..=end` from scratch,
/// without retaining any tree state — the reference the incremental
/// engine must always agree with, and what verifiers use to measure
/// golden images.
pub fn merkle_measure(memory: &Memory, start: u16, end: u16) -> [u8; 32] {
    MerkleTree::build(memory, start, end).root()
}

/// Merkle measurement of the application PMEM region of `memory`.
pub fn merkle_measure_pmem(memory: &Memory) -> [u8; 32] {
    merkle_measure(memory, *LAYOUT.pmem.start(), *LAYOUT.pmem.end())
}

/// Running statistics of one [`IncrementalMeasurer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasurerStats {
    /// Roots served (one per measurement request).
    pub roots_served: u64,
    /// Leaves re-hashed across all measurements (excluding the initial
    /// full build).
    pub leaves_rehashed: u64,
}

/// A [`MerkleTree`] kept coherent with a [`Memory`] via the memory's
/// dirty-granule bits.
///
/// [`IncrementalMeasurer::root`] drains the dirty bits overlapping its
/// range, re-hashes exactly the dirtied leaves (plus the spine above
/// them) and clears the bits of granules lying fully inside the range.
/// Writes *outside* the range leave its bits untouched. A granule
/// straddling a range boundary is shared with the adjacent range's
/// consumer, so its bit is never cleared ([`Memory::clear_dirty_in`]):
/// once written, a boundary leaf of an *unaligned* range is re-hashed on
/// every subsequent root — a bounded conservative cost (at most two
/// leaves) that guarantees two measurers over adjacent unaligned ranges
/// can never hide each other's writes. Granule-aligned ranges (like the
/// default PMEM range) pay nothing.
///
/// # Examples
///
/// ```
/// use eilid_casu::merkle::{merkle_measure, IncrementalMeasurer};
/// use eilid_msp430::Memory;
///
/// let mut memory = Memory::new();
/// memory.load(0xE000, &[0xAA; 128]).unwrap();
/// let mut measurer = IncrementalMeasurer::new(&mut memory, 0xE000, 0xF7FF);
///
/// // Clean memory: the cached root is served without re-hashing.
/// let before = measurer.root(&mut memory);
/// assert_eq!(before, merkle_measure(&memory, 0xE000, 0xF7FF));
///
/// // Any write through the memory API — even "physical" tampering —
/// // invalidates exactly the covering leaf.
/// memory.write_byte(0xE010, 0x90);
/// let after = measurer.root(&mut memory);
/// assert_ne!(before, after);
/// assert_eq!(after, merkle_measure(&memory, 0xE000, 0xF7FF));
/// assert_eq!(measurer.stats().leaves_rehashed, 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalMeasurer {
    tree: MerkleTree,
    stats: MeasurerStats,
}

impl IncrementalMeasurer {
    /// Builds a measurer over `start..=end`, performing the initial full
    /// measurement and claiming the range's dirty bits.
    pub fn new(memory: &mut Memory, start: u16, end: u16) -> Self {
        let tree = MerkleTree::build(memory, start, end);
        memory.clear_dirty_in(usize::from(start), usize::from(end) + 1);
        IncrementalMeasurer {
            tree,
            stats: MeasurerStats::default(),
        }
    }

    /// Builds a measurer over the application PMEM region.
    pub fn for_pmem(memory: &mut Memory) -> Self {
        IncrementalMeasurer::new(memory, *LAYOUT.pmem.start(), *LAYOUT.pmem.end())
    }

    /// `true` if this measurer measures exactly `start..=end` — the
    /// check attestors use to decide whether a challenge can be answered
    /// incrementally or needs a flat fallback hash.
    pub fn covers(&self, start: u16, end: u16) -> bool {
        self.tree.start == start && self.tree.end == end
    }

    /// Serves the current root, first re-hashing every leaf whose
    /// granule was written since the previous call.
    pub fn root(&mut self, memory: &mut Memory) -> [u8; 32] {
        let range_start = usize::from(self.tree.start);
        let range_end = usize::from(self.tree.end) + 1;
        let dirty = memory.dirty_granules_in(range_start, range_end);
        if !dirty.is_empty() {
            // Map dirty granules to the leaves they overlap. With the
            // range 64-byte aligned this is 1:1; an unaligned range makes
            // a granule straddle two leaves, so mark both.
            let mut leaves: Vec<usize> = Vec::with_capacity(dirty.len() + 1);
            for granule in dirty {
                let gstart = (granule * DIRTY_GRANULE).max(range_start);
                let gend = ((granule + 1) * DIRTY_GRANULE).min(range_end);
                let first = (gstart - range_start) / LEAF_SIZE;
                let last = (gend - 1 - range_start) / LEAF_SIZE;
                leaves.push(first);
                if last != first {
                    leaves.push(last);
                }
            }
            leaves.sort_unstable();
            leaves.dedup();
            self.stats.leaves_rehashed += self.tree.refresh_leaves(memory, leaves) as u64;
            memory.clear_dirty_in(range_start, range_end);
        }
        self.stats.roots_served += 1;
        self.tree.root()
    }

    /// Running measurement statistics.
    pub fn stats(&self) -> &MeasurerStats {
        &self.stats
    }
}

/// What the 32-byte measurement in an attestation report is computed
/// over: the agreement between a fleet's devices and its verifier. The
/// Merkle root is the only scheme; it fits the standard report format,
/// so the wire protocol carries no scheme field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasurementScheme {
    /// Root of the chunked Merkle tree over the measured range, enabling
    /// incremental re-measurement on the device.
    Merkle,
}

impl MeasurementScheme {
    /// Measures the application PMEM region of `memory` from scratch
    /// under this scheme. `_layout` is ignored (the map is [`LAYOUT`]);
    /// the argument is kept for the frozen benchmark crate.
    pub fn measure_pmem(&self, memory: &Memory, _layout: &MemoryLayout) -> [u8; 32] {
        merkle_measure_pmem(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_memory() -> Memory {
        let mut memory = Memory::new();
        let image: Vec<u8> = (0..0x1800u32).map(|i| (i * 37 % 251) as u8).collect();
        memory.load(0xE000, &image).unwrap();
        memory
    }

    #[test]
    fn build_matches_reference_and_is_deterministic() {
        let memory = image_memory();
        let a = merkle_measure(&memory, 0xE000, 0xF7FF);
        let b = MerkleTree::build(&memory, 0xE000, 0xF7FF).root();
        assert_eq!(a, b);
        // 6 KiB / 64 B = 96 leaves, padded to 128.
        let tree = MerkleTree::build(&memory, 0xE000, 0xF7FF);
        assert_eq!(tree.leaf_count(), 96);
        assert_eq!(tree.start(), 0xE000);
        assert_eq!(tree.end(), 0xF7FF);
    }

    #[test]
    fn different_content_different_root() {
        let memory = image_memory();
        let mut other = memory.clone();
        other.write_byte(0xF7FF, memory.read_byte(0xF7FF) ^ 0x80);
        assert_ne!(
            merkle_measure(&memory, 0xE000, 0xF7FF),
            merkle_measure(&other, 0xE000, 0xF7FF)
        );
    }

    #[test]
    fn range_is_bound_into_the_root() {
        let memory = image_memory();
        assert_ne!(
            merkle_measure(&memory, 0xE000, 0xF7FF),
            merkle_measure(&memory, 0xE000, 0xF7BF),
            "truncating the range must change the root"
        );
    }

    #[test]
    fn single_leaf_and_sub_leaf_ranges_work() {
        let memory = image_memory();
        let root = merkle_measure(&memory, 0xE000, 0xE00F);
        assert_eq!(MerkleTree::build(&memory, 0xE000, 0xE00F).leaf_count(), 1);
        assert_ne!(root, [0u8; 32]);
    }

    #[test]
    fn incremental_tracks_every_mutation_path() {
        let mut memory = image_memory();
        let mut measurer = IncrementalMeasurer::new(&mut memory, 0xE000, 0xF7FF);
        let clean = measurer.root(&mut memory);
        assert_eq!(measurer.stats().leaves_rehashed, 0);

        // write_byte
        memory.write_byte(0xE123, 0xFF);
        let r1 = measurer.root(&mut memory);
        assert_ne!(clean, r1);
        assert_eq!(r1, merkle_measure(&memory, 0xE000, 0xF7FF));

        // write_word
        memory.write_word(0xF000, 0xDEAD);
        // load
        memory.load(0xE800, &[9; 100]).unwrap();
        // fill
        memory.fill(0xF700..0xF7A0, 0x55);
        let r2 = measurer.root(&mut memory);
        assert_eq!(r2, merkle_measure(&memory, 0xE000, 0xF7FF));
        assert_ne!(r1, r2);
    }

    #[test]
    fn clean_roots_are_served_without_rehashing() {
        let mut memory = image_memory();
        let mut measurer = IncrementalMeasurer::new(&mut memory, 0xE000, 0xF7FF);
        for _ in 0..10 {
            measurer.root(&mut memory);
        }
        assert_eq!(measurer.stats().roots_served, 10);
        assert_eq!(measurer.stats().leaves_rehashed, 0);

        // DMEM churn (outside the range) does not invalidate anything.
        memory.write_word(0x0300, 0xAAAA);
        measurer.root(&mut memory);
        assert_eq!(measurer.stats().leaves_rehashed, 0);
    }

    #[test]
    fn one_dirty_byte_rehashes_exactly_one_leaf() {
        let mut memory = image_memory();
        let mut measurer = IncrementalMeasurer::new(&mut memory, 0xE000, 0xF7FF);
        memory.write_byte(0xE040, 1);
        measurer.root(&mut memory);
        assert_eq!(measurer.stats().leaves_rehashed, 1);
    }

    #[test]
    fn unaligned_range_straddles_are_handled() {
        // Range starting mid-granule: a granule write can touch two
        // leaves; the incremental root must still match from-scratch.
        let mut memory = image_memory();
        let (start, end) = (0xE020, 0xF01F);
        let mut measurer = IncrementalMeasurer::new(&mut memory, start, end);
        for addr in [0xE020u16, 0xE05F, 0xE060, 0xF01F] {
            memory.write_byte(addr, memory.read_byte(addr) ^ 0xA5);
            assert_eq!(
                measurer.root(&mut memory),
                merkle_measure(&memory, start, end),
                "divergence after write at {addr:#06x}"
            );
        }
    }

    #[test]
    fn adjacent_measurers_sharing_a_boundary_granule_stay_coherent() {
        // Two measurers over adjacent unaligned ranges share the granule
        // straddling their boundary. Serving a root on one must never
        // consume dirtiness the other still needs: a write visible only
        // to B, followed by A serving a root first, must still show up
        // in B's next root.
        let mut memory = image_memory();
        let mut a = IncrementalMeasurer::new(&mut memory, 0xE000, 0xE01F);
        let mut b = IncrementalMeasurer::new(&mut memory, 0xE020, 0xE05F);
        let b_clean = b.root(&mut memory);

        memory.write_byte(0xE030, memory.read_byte(0xE030) ^ 0x55);
        // A roots first (its range shares granule 0xE000..0xE03F with B).
        let _ = a.root(&mut memory);
        let b_after = b.root(&mut memory);
        assert_ne!(b_clean, b_after, "B served a stale root");
        assert_eq!(b_after, merkle_measure(&memory, 0xE020, 0xE05F));
        assert_eq!(a.root(&mut memory), merkle_measure(&memory, 0xE000, 0xE01F));
    }

    #[test]
    fn covers_is_exact() {
        let mut memory = image_memory();
        let measurer = IncrementalMeasurer::for_pmem(&mut memory);
        assert!(measurer.covers(0xE000, 0xF7FF));
        assert!(!measurer.covers(0xE000, 0xF7FE));
        assert!(!measurer.covers(0xE002, 0xF7FF));
    }
}
