//! Flat 64 KiB von-Neumann memory.
//!
//! Low-end MSP430-class devices expose a single 16-bit address space that
//! holds peripherals, data memory (SRAM) and program memory (flash/ROM).
//! The simulator models it as a flat byte array; policy about which ranges
//! are writable or executable lives in the CASU monitor crate, not here.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Total size of the MSP430 address space in bytes.
pub const ADDRESS_SPACE: usize = 0x1_0000;

/// Size of one dirty-tracking granule in bytes.
///
/// Every mutation of memory contents — CPU bus writes, image loads,
/// fills — marks the covering granule(s) dirty. This models what the
/// CASU hardware monitor sees for free: all writes travel over the bus,
/// so "which 64-byte lines changed since the last measurement" is
/// observable without any software cooperation. Incremental measurement
/// engines (see `eilid_casu::merkle`) consume and clear these bits.
pub const DIRTY_GRANULE: usize = 64;

/// Number of dirty-tracking granules covering the address space.
pub const GRANULE_COUNT: usize = ADDRESS_SPACE / DIRTY_GRANULE;

/// Address of the reset vector (the last word of the interrupt vector table).
pub const RESET_VECTOR: u16 = 0xFFFE;

/// First address of the interrupt vector table.
pub const IVT_BASE: u16 = 0xFFE0;

/// Error produced by [`Memory::load`] when an image does not fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadImageError {
    base: u16,
    len: usize,
}

impl LoadImageError {
    /// Base address the caller attempted to load at.
    pub fn base(&self) -> u16 {
        self.base
    }

    /// Length of the rejected image in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for LoadImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image of {} bytes at {:#06x} exceeds the 64 KiB address space",
            self.len, self.base
        )
    }
}

impl std::error::Error for LoadImageError {}

/// Flat 64 KiB memory with little-endian word access.
///
/// # Examples
///
/// ```
/// use eilid_msp430::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_word(0x0200, 0xBEEF);
/// assert_eq!(mem.read_word(0x0200), 0xBEEF);
/// assert_eq!(mem.read_byte(0x0200), 0xEF);
/// assert_eq!(mem.read_byte(0x0201), 0xBE);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Memory {
    /// The whole address space, so a `u16` index needs no bounds check.
    /// Copy-on-write: a clone shares the image until either side first
    /// writes, so cloning a device (thousands per fleet) copies and
    /// touches no memory.
    #[serde(with = "serde_bytes_array")]
    bytes: Arc<[u8; ADDRESS_SPACE]>,
    /// One bit per [`DIRTY_GRANULE`]-byte line, set by every content
    /// mutation since the bits were last cleared. `GRANULE_COUNT` bits
    /// packed into `u64` words.
    dirty: Vec<u64>,
}

// Unused under the vendored stub serde, whose derive ignores
// `#[serde(with = ...)]`; a real serde calls back into it.
#[allow(dead_code)]
mod serde_bytes_array {
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serializer};

    use std::sync::Arc;

    use super::ADDRESS_SPACE;

    pub fn serialize<S: Serializer>(bytes: &[u8], ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_bytes(bytes)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<Arc<[u8; ADDRESS_SPACE]>, D::Error> {
        let v: Vec<u8> = Vec::deserialize(de)?;
        let image: Box<[u8; ADDRESS_SPACE]> = v
            .into_boxed_slice()
            .try_into()
            .map_err(|_| D::Error::custom("a memory image is exactly 64 KiB"))?;
        Ok(Arc::from(image))
    }
}

impl Memory {
    /// Creates a memory image with every byte cleared to zero.
    pub fn new() -> Self {
        Memory {
            bytes: Arc::new([0; ADDRESS_SPACE]),
            dirty: vec![0; GRANULE_COUNT / 64],
        }
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u16) -> u8 {
        self.bytes[usize::from(addr)]
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u16, value: u8) {
        let addr = usize::from(addr);
        self.bytes_mut()[addr] = value;
        let granule = addr / DIRTY_GRANULE;
        self.dirty[granule / 64] |= 1 << (granule % 64);
    }

    /// The image for writing: copied first if a clone still shares it.
    fn bytes_mut(&mut self) -> &mut [u8; ADDRESS_SPACE] {
        Arc::make_mut(&mut self.bytes)
    }

    /// Marks every granule overlapping `start..end` (byte addresses,
    /// half-open) dirty.
    fn mark_dirty_range(&mut self, start: usize, end: usize) {
        if end <= start {
            return;
        }
        let first = start / DIRTY_GRANULE;
        let last = (end - 1) / DIRTY_GRANULE;
        for granule in first..=last {
            self.dirty[granule / 64] |= 1 << (granule % 64);
        }
    }

    /// The index of the granule covering byte address `addr`.
    pub fn granule_of(addr: u16) -> usize {
        usize::from(addr) / DIRTY_GRANULE
    }

    /// `true` if granule `granule` has been written since its dirty bit
    /// was last cleared.
    pub fn granule_dirty(&self, granule: usize) -> bool {
        self.dirty[granule / 64] & (1 << (granule % 64)) != 0
    }

    /// Indices of the dirty granules overlapping the byte range
    /// `start..end` (half-open), in ascending order.
    ///
    /// Walks the bitmap a `u64` word at a time, masking the bits outside
    /// the range off both edge words, and visits only the set bits.
    pub fn dirty_granules_in(&self, start: usize, end: usize) -> Vec<usize> {
        let mut dirty = Vec::new();
        if end <= start {
            return dirty;
        }
        let first = start / DIRTY_GRANULE;
        let last = (end - 1).min(ADDRESS_SPACE - 1) / DIRTY_GRANULE;
        for word_index in first / 64..=last / 64 {
            let mut word = self.dirty[word_index];
            if word_index == first / 64 {
                word &= u64::MAX << (first % 64);
            }
            if word_index == last / 64 {
                word &= u64::MAX >> (63 - last % 64);
            }
            while word != 0 {
                dirty.push(word_index * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        dirty
    }

    /// Clears the dirty bits of the granules lying *fully inside*
    /// `start..end` (half-open byte range). A granule straddling either
    /// boundary is deliberately left dirty: its bytes are shared with
    /// whatever watches the adjacent range, and clearing it here would
    /// make that consumer miss a write. Consumers of unaligned ranges
    /// therefore see their boundary granules stay dirty (and re-check
    /// them conservatively) rather than ever observing a lost write.
    pub fn clear_dirty_in(&mut self, start: usize, end: usize) {
        if end <= start {
            return;
        }
        let end = end.min(ADDRESS_SPACE);
        // Round start up and end down to granule boundaries.
        let first = start.div_ceil(DIRTY_GRANULE);
        let last = end / DIRTY_GRANULE;
        for granule in first..last {
            self.dirty[granule / 64] &= !(1 << (granule % 64));
        }
    }

    /// Reads a little-endian word. The address is aligned down to an even
    /// boundary first, mirroring the bus behaviour of the core.
    pub fn read_word(&self, addr: u16) -> u16 {
        let addr = addr & !1;
        let lo = u16::from(self.read_byte(addr));
        let hi = u16::from(self.read_byte(addr.wrapping_add(1)));
        (hi << 8) | lo
    }

    /// Writes a little-endian word at an even-aligned address.
    pub fn write_word(&mut self, addr: u16, value: u16) {
        // An even address and the next byte share one granule.
        let addr = usize::from(addr & !1);
        self.bytes_mut()[addr..addr + 2].copy_from_slice(&value.to_le_bytes());
        let granule = addr / DIRTY_GRANULE;
        self.dirty[granule / 64] |= 1 << (granule % 64);
    }

    /// Copies `image` into memory starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadImageError`] if the image would extend past `0xFFFF`.
    pub fn load(&mut self, base: u16, image: &[u8]) -> Result<(), LoadImageError> {
        let end = usize::from(base) + image.len();
        if end > ADDRESS_SPACE {
            return Err(LoadImageError {
                base,
                len: image.len(),
            });
        }
        self.bytes_mut()[usize::from(base)..end].copy_from_slice(image);
        self.mark_dirty_range(usize::from(base), end);
        Ok(())
    }

    /// Returns a read-only view of an address range.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the 64 KiB address space.
    pub fn slice(&self, range: Range<usize>) -> &[u8] {
        &self.bytes[range]
    }

    /// Word stored at the reset vector.
    pub fn reset_vector(&self) -> u16 {
        self.read_word(RESET_VECTOR)
    }

    /// Word stored at interrupt vector `index` (0–15, where 15 is reset).
    pub fn interrupt_vector(&self, index: u8) -> u16 {
        let addr = IVT_BASE.wrapping_add(u16::from(index) * 2);
        self.read_word(addr)
    }

    /// Fills an address range with a byte value.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the 64 KiB address space.
    pub fn fill(&mut self, range: Range<usize>, value: u8) {
        self.bytes_mut()[range.clone()].fill(value);
        self.mark_dirty_range(range.start, range.end);
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .field("nonzero_bytes", &nonzero)
            .finish()
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes
    }
}

impl Eq for Memory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_access_is_little_endian() {
        let mut mem = Memory::new();
        mem.write_word(0x0200, 0x1234);
        assert_eq!(mem.read_byte(0x0200), 0x34);
        assert_eq!(mem.read_byte(0x0201), 0x12);
        assert_eq!(mem.read_word(0x0200), 0x1234);
    }

    #[test]
    fn word_access_aligns_down() {
        let mut mem = Memory::new();
        mem.write_word(0x0201, 0xABCD);
        assert_eq!(mem.read_word(0x0200), 0xABCD);
        assert_eq!(mem.read_word(0x0201), 0xABCD);
    }

    #[test]
    fn load_image_and_reset_vector() {
        let mut mem = Memory::new();
        mem.load(0xFFFE, &[0x00, 0xF0]).expect("fits");
        assert_eq!(mem.reset_vector(), 0xF000);
    }

    #[test]
    fn load_out_of_range_is_error() {
        let mut mem = Memory::new();
        let err = mem.load(0xFFFE, &[0, 0, 0]).unwrap_err();
        assert_eq!(err.base(), 0xFFFE);
        assert_eq!(err.len(), 3);
        assert!(err.to_string().contains("64 KiB"));
    }

    #[test]
    fn interrupt_vector_lookup() {
        let mut mem = Memory::new();
        mem.write_word(0xFFE0, 0xE000);
        mem.write_word(0xFFF0, 0xE100);
        assert_eq!(mem.interrupt_vector(0), 0xE000);
        assert_eq!(mem.interrupt_vector(8), 0xE100);
    }

    #[test]
    fn fill_and_slice() {
        let mut mem = Memory::new();
        mem.fill(0x0200..0x0210, 0xAA);
        assert!(mem.slice(0x0200..0x0210).iter().all(|&b| b == 0xAA));
        assert_eq!(mem.read_byte(0x0210), 0);
    }

    #[test]
    fn writes_mark_granules_dirty_and_clear_resets_them() {
        let mut mem = Memory::new();
        mem.clear_dirty_in(0, ADDRESS_SPACE);
        assert!(mem.dirty_granules_in(0, ADDRESS_SPACE).is_empty());

        mem.write_byte(0xE010, 0xAA);
        assert!(mem.granule_dirty(Memory::granule_of(0xE010)));
        assert_eq!(
            mem.dirty_granules_in(0xE000, 0xF800),
            vec![Memory::granule_of(0xE000)]
        );
        // Writes outside the queried range do not show up in it.
        mem.write_word(0x0200, 0xBEEF);
        assert_eq!(mem.dirty_granules_in(0xE000, 0xF800).len(), 1);

        mem.clear_dirty_in(0xE000, 0xF800);
        assert!(mem.dirty_granules_in(0xE000, 0xF800).is_empty());
        // The DMEM write's bit survives a clear of a disjoint range.
        assert!(mem.granule_dirty(Memory::granule_of(0x0200)));
    }

    #[test]
    fn load_and_fill_mark_every_covered_granule() {
        let mut mem = Memory::new();
        mem.clear_dirty_in(0, ADDRESS_SPACE);
        // A load straddling a granule boundary dirties both granules.
        mem.load(0xE03E, &[1, 2, 3, 4]).unwrap();
        assert_eq!(
            mem.dirty_granules_in(0xE000, 0xE100),
            vec![Memory::granule_of(0xE000), Memory::granule_of(0xE040)]
        );
        mem.clear_dirty_in(0, ADDRESS_SPACE);
        mem.fill(0x0200..0x0300, 0xAA);
        assert_eq!(mem.dirty_granules_in(0, ADDRESS_SPACE).len(), 4);
    }

    #[test]
    fn dirty_scan_masks_both_edge_words() {
        let mut mem = Memory::new();
        mem.clear_dirty_in(0, ADDRESS_SPACE);
        // Granules 63, 64, 127, 128 and 1023: both sides of two word
        // boundaries and the last granule of the address space.
        for granule in [63usize, 64, 127, 128, GRANULE_COUNT - 1] {
            mem.write_byte((granule * DIRTY_GRANULE) as u16, 1);
        }
        let at = |granule: usize| granule * DIRTY_GRANULE;
        assert_eq!(
            mem.dirty_granules_in(0, ADDRESS_SPACE),
            vec![63, 64, 127, 128, GRANULE_COUNT - 1]
        );
        assert_eq!(mem.dirty_granules_in(at(64), at(128)), vec![64, 127]);
        assert_eq!(mem.dirty_granules_in(at(63) + 63, at(64) + 1), vec![63, 64]);
        assert_eq!(mem.dirty_granules_in(at(65), at(127)), Vec::<usize>::new());
        assert_eq!(mem.dirty_granules_in(at(128), at(128) + 1), vec![128]);
        assert_eq!(
            mem.dirty_granules_in(at(GRANULE_COUNT - 1), ADDRESS_SPACE),
            vec![GRANULE_COUNT - 1]
        );
    }

    #[test]
    fn same_value_writes_are_conservatively_dirty() {
        // The tracker watches bus writes, not content diffs: rewriting
        // the value already stored still marks the granule.
        let mut mem = Memory::new();
        assert!(mem.dirty_granules_in(0, ADDRESS_SPACE).is_empty());
        mem.write_byte(0x0200, 0);
        assert!(mem.granule_dirty(Memory::granule_of(0x0200)));
    }

    #[test]
    fn debug_shows_nonzero_count() {
        let mut mem = Memory::new();
        mem.write_byte(0x10, 1);
        let dbg = format!("{:?}", mem);
        assert!(dbg.contains("nonzero_bytes: 1"));
    }
}
