//! Property tests for the incremental Merkle measurement engine.
//!
//! The two contract properties the rest of the system leans on:
//!
//! 1. **Coherence** — for *any* sequence of PMEM writes through the
//!    memory API (byte writes, word writes, image loads, fills),
//!    interleaved arbitrarily with root requests, the incremental root
//!    always equals the from-scratch measurement of the same range.
//! 2. **Sensitivity** — flipping any single bit anywhere in the measured
//!    range changes the root (and restoring it restores the root).
//!
//! Together they rule out both failure modes of a caching measurement
//! engine: serving a stale root after a missed invalidation, and
//! hashing in a way that collides on single-bit differences.

use eilid_casu::merkle::{merkle_measure, IncrementalMeasurer, MerkleTree, LEAF_SIZE};
use eilid_msp430::memory::{DIRTY_GRANULE, GRANULE_COUNT};
use eilid_msp430::{Memory, ADDRESS_SPACE};
use proptest::prelude::*;

const PMEM_START: u16 = 0xE000;
const PMEM_END: u16 = 0xF7FF;

/// A firmware-like non-uniform image over the whole PMEM range.
fn image_memory() -> Memory {
    let mut memory = Memory::new();
    let image: Vec<u8> = (0..0x1800u32).map(|i| (i * 131 % 251) as u8).collect();
    memory.load(PMEM_START, &image).unwrap();
    memory
}

/// One step of an adversarial write schedule.
#[derive(Debug, Clone)]
enum Op {
    WriteByte(u16, u8),
    WriteWord(u16, u16),
    Load(u16, Vec<u8>),
    Fill(u16, u16, u8),
    /// Ask the engine for a root mid-sequence (exercises the
    /// cleared-dirty-bits state between mutations).
    Root,
}

fn arb_addr() -> impl Strategy<Value = u16> {
    PMEM_START..=PMEM_END
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_addr(), 0u8..=255).prop_map(|(a, v)| Op::WriteByte(a, v)),
        (arb_addr(), 0u16..=0xFFFF).prop_map(|(a, v)| Op::WriteWord(a, v)),
        (arb_addr(), proptest::collection::vec(0u8..=255, 1..192)).prop_map(|(a, bytes)| {
            // Clamp so the load stays inside PMEM.
            let max_len = usize::from(PMEM_END) - usize::from(a) + 1;
            let len = bytes.len().min(max_len);
            Op::Load(a, bytes[..len].to_vec())
        }),
        (arb_addr(), 1u16..256, 0u8..=255).prop_map(|(a, len, v)| {
            let end = (u32::from(a) + u32::from(len)).min(u32::from(PMEM_END) + 1) as u16;
            Op::Fill(a, end, v)
        }),
        Just(Op::Root),
    ]
}

fn apply(memory: &mut Memory, op: &Op) {
    match op {
        Op::WriteByte(addr, value) => memory.write_byte(*addr, *value),
        Op::WriteWord(addr, value) => {
            // Word writes align down; keep the aligned address in range.
            let addr = (*addr).max(PMEM_START);
            memory.write_word(addr, *value);
        }
        Op::Load(addr, bytes) => memory.load(*addr, bytes).unwrap(),
        Op::Fill(start, end, value) => memory.fill(usize::from(*start)..usize::from(*end), *value),
        Op::Root => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Coherence: incremental root == from-scratch measurement after any
    /// write schedule, with roots requested at arbitrary points.
    #[test]
    fn incremental_root_always_equals_from_scratch(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut memory = image_memory();
        let mut measurer = IncrementalMeasurer::new(&mut memory, PMEM_START, PMEM_END);
        for op in &ops {
            apply(&mut memory, op);
            if matches!(op, Op::Root) {
                prop_assert_eq!(
                    measurer.root(&mut memory),
                    merkle_measure(&memory, PMEM_START, PMEM_END),
                    "mid-sequence root diverged"
                );
            }
        }
        prop_assert_eq!(
            measurer.root(&mut memory),
            merkle_measure(&memory, PMEM_START, PMEM_END),
            "final root diverged after {} ops", ops.len()
        );
    }

    /// Sensitivity: any single-bit flip anywhere in the measured range
    /// changes the incremental root; restoring the bit restores it.
    #[test]
    fn any_single_bit_flip_changes_the_root(addr in arb_addr(), bit in 0u8..8) {
        let mut memory = image_memory();
        let mut measurer = IncrementalMeasurer::new(&mut memory, PMEM_START, PMEM_END);
        let clean = measurer.root(&mut memory);

        let original = memory.read_byte(addr);
        memory.write_byte(addr, original ^ (1 << bit));
        let flipped = measurer.root(&mut memory);
        prop_assert_ne!(
            clean, flipped,
            "flipping bit {} of {:#06x} did not change the root", bit, addr
        );
        prop_assert_eq!(flipped, merkle_measure(&memory, PMEM_START, PMEM_END));

        memory.write_byte(addr, original);
        prop_assert_eq!(clean, measurer.root(&mut memory), "restore must restore the root");
    }

    /// Coherence holds for ranges that are not granule-aligned (a dirty
    /// granule can straddle two leaves there).
    #[test]
    fn unaligned_ranges_stay_coherent(
        offset in 1usize..LEAF_SIZE,
        writes in proptest::collection::vec((0usize..0x400, 0u8..=255), 1..24),
    ) {
        let start = PMEM_START + offset as u16;
        let end = start + 0x3FF;
        let mut memory = image_memory();
        let mut measurer = IncrementalMeasurer::new(&mut memory, start, end);
        for (off, value) in writes {
            memory.write_byte(start + off as u16, value);
        }
        prop_assert_eq!(
            measurer.root(&mut memory),
            merkle_measure(&memory, start, end)
        );
    }

    /// Two memories agree on the Merkle root iff their measured ranges
    /// agree bytewise (collision-freedom smoke check over random pairs).
    #[test]
    fn roots_agree_iff_content_agrees(
        writes_a in proptest::collection::vec((0usize..0x1800, 0u8..=255), 0..16),
        writes_b in proptest::collection::vec((0usize..0x1800, 0u8..=255), 0..16),
    ) {
        let mut a = image_memory();
        let mut b = image_memory();
        for (off, value) in &writes_a {
            a.write_byte(PMEM_START + *off as u16, *value);
        }
        for (off, value) in &writes_b {
            b.write_byte(PMEM_START + *off as u16, *value);
        }
        let range = usize::from(PMEM_START)..usize::from(PMEM_END) + 1;
        let same_content = a.slice(range.clone()) == b.slice(range);
        let same_root = merkle_measure(&a, PMEM_START, PMEM_END)
            == merkle_measure(&b, PMEM_START, PMEM_END);
        prop_assert_eq!(same_content, same_root);
    }
}

/// The per-granule reference the word-wise dirty scan must agree with.
fn dirty_granules_reference(memory: &Memory, start: usize, end: usize) -> Vec<usize> {
    if end <= start {
        return Vec::new();
    }
    let last = (end - 1).min(ADDRESS_SPACE - 1) / DIRTY_GRANULE;
    (start / DIRTY_GRANULE..=last)
        .filter(|&granule| memory.granule_dirty(granule))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dirty_granules_in` walks the bitmap a word at a time; over
    /// seeded bitmaps (sparse to dense) it lists exactly the granules a
    /// per-granule test finds, for random ranges with unaligned ends
    /// and for the edge cases: one granule, one byte, the whole space,
    /// and ranges ending at 0x10000.
    #[test]
    fn word_wise_dirty_scan_matches_the_per_granule_reference(
        seed in any::<u64>(),
        density in 0u64..=64,
        ranges in proptest::collection::vec((0usize..=ADDRESS_SPACE, 0usize..=ADDRESS_SPACE), 1..24),
    ) {
        let mut memory = Memory::new();
        memory.clear_dirty_in(0, ADDRESS_SPACE);
        let mut state = seed;
        for granule in 0..GRANULE_COUNT {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 58) < density {
                memory.write_byte((granule * DIRTY_GRANULE + (state >> 8) as usize % DIRTY_GRANULE) as u16, 1);
            }
        }
        let granule = (seed as usize) % GRANULE_COUNT;
        let at = granule * DIRTY_GRANULE;
        let fixed = [
            (0, ADDRESS_SPACE),
            (at, at + DIRTY_GRANULE),
            (at + 5, at + 6),
            (at, ADDRESS_SPACE),
            (at + 17, ADDRESS_SPACE),
            (0, at + 1),
            (at, at),
            (ADDRESS_SPACE - 1, ADDRESS_SPACE),
        ];
        for &(start, end) in fixed.iter().chain(&ranges) {
            prop_assert_eq!(
                memory.dirty_granules_in(start, end),
                dirty_granules_reference(&memory, start, end),
                "range {:#x}..{:#x}", start, end
            );
        }
    }
}

/// The dirty-tracking contract the engine's soundness rests on: there is
/// no mutation path of [`Memory`] that leaves the measured range changed
/// but its granules clean.
#[test]
fn every_mutation_path_marks_dirty_granules() {
    let mut memory = image_memory();
    memory.clear_dirty_in(0, 0x1_0000);

    memory.write_byte(0xE000, 1);
    memory.write_word(0xE080, 0xBEEF);
    memory.load(0xE100, &[1, 2, 3]).unwrap();
    memory.fill(0xE200..0xE210, 9);

    for addr in [0xE000u16, 0xE080, 0xE100, 0xE200] {
        assert!(
            memory.granule_dirty(Memory::granule_of(addr)),
            "mutation at {addr:#06x} left its granule clean"
        );
    }
}

/// Padding leaves are index-bound: trees over ranges with different leaf
/// counts never collide even when the data prefix matches.
#[test]
fn tree_shape_is_bound_into_the_root() {
    let memory = image_memory();
    // 96 leaves (6 KiB) vs 64 leaves (4 KiB) vs 95.5 leaves: all distinct.
    let full = MerkleTree::build(&memory, 0xE000, 0xF7FF).root();
    let shorter = MerkleTree::build(&memory, 0xE000, 0xEFFF).root();
    let odd = MerkleTree::build(&memory, 0xE000, 0xF7DF).root();
    assert_ne!(full, shorter);
    assert_ne!(full, odd);
    assert_ne!(shorter, odd);
}
