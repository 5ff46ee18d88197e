//! Assembled memory images.
//!
//! An [`Image`] is the output of the assembler: byte segments at absolute
//! addresses, the symbol table, the listing, the program entry point and the
//! interrupt-vector assignments. It plays the role of the `.elf` produced by
//! the paper's GCC toolchain, while the [`Listing`] plays the
//! role of the `.lst` file consumed by `EILIDinst`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use eilid_msp430::{LoadImageError, Memory, IVT_BASE, RESET_VECTOR};

use crate::listing::Listing;

/// A contiguous run of assembled bytes at an absolute base address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// First address of the segment.
    pub base: u16,
    /// Segment contents.
    pub bytes: Vec<u8>,
}

impl Segment {
    /// Address one past the last byte of the segment.
    pub fn end(&self) -> u32 {
        u32::from(self.base) + self.bytes.len() as u32
    }

    /// `true` if the segment overlaps `other`.
    pub fn overlaps(&self, other: &Segment) -> bool {
        let (a0, a1) = (u32::from(self.base), self.end());
        let (b0, b1) = (u32::from(other.base), other.end());
        a0 < b1 && b0 < a1 && !self.bytes.is_empty() && !other.bytes.is_empty()
    }
}

/// A fully assembled program image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    /// Output segments in ascending base-address order.
    pub segments: Vec<Segment>,
    /// Absolute value of every label and `.equ` symbol.
    pub symbols: BTreeMap<String, u16>,
    /// Per-line listing (the `.lst` equivalent used by the instrumenter).
    pub listing: Listing,
    /// Program entry point (from `.global`), if declared.
    pub entry: Option<u16>,
    /// Interrupt-vector assignments from `.isr` directives.
    pub vectors: Vec<(u8, u16)>,
}

impl Image {
    /// Looks up a symbol's address/value.
    pub fn symbol(&self, name: &str) -> Option<u16> {
        self.symbols.get(name).copied()
    }

    /// Total number of assembled code/data bytes across all segments.
    ///
    /// This is the "binary size" metric reported in Table IV of the paper:
    /// interrupt vectors and the reset vector are excluded because they are
    /// part of the fixed vector table, not of the application binary.
    pub fn code_size(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }

    /// Loads the image into a memory: segments, interrupt vectors and the
    /// reset vector (when an entry point is declared).
    ///
    /// # Errors
    ///
    /// Returns [`LoadImageError`] if any segment extends past `0xFFFF`.
    pub fn load_into(&self, memory: &mut Memory) -> Result<(), LoadImageError> {
        for segment in &self.segments {
            memory.load(segment.base, &segment.bytes)?;
        }
        for (vector, handler) in &self.vectors {
            memory.write_word(IVT_BASE.wrapping_add(u16::from(*vector) * 2), *handler);
        }
        if let Some(entry) = self.entry {
            memory.write_word(RESET_VECTOR, entry);
        }
        Ok(())
    }

    /// Builds a ready-to-run memory image (convenience for tests and
    /// examples).
    ///
    /// # Errors
    ///
    /// Returns [`LoadImageError`] if any segment extends past `0xFFFF`.
    pub fn to_memory(&self) -> Result<Memory, LoadImageError> {
        let mut memory = Memory::new();
        self.load_into(&mut memory)?;
        Ok(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listing::Listing;

    fn image_with(segments: Vec<Segment>) -> Image {
        Image {
            segments,
            symbols: BTreeMap::new(),
            listing: Listing::default(),
            entry: Some(0xE000),
            vectors: vec![(8, 0xE100)],
        }
    }

    #[test]
    fn segment_overlap_detection() {
        let a = Segment {
            base: 0xE000,
            bytes: vec![0; 16],
        };
        let b = Segment {
            base: 0xE008,
            bytes: vec![0; 16],
        };
        let c = Segment {
            base: 0xE010,
            bytes: vec![0; 4],
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        let empty = Segment {
            base: 0xE000,
            bytes: vec![],
        };
        assert!(!a.overlaps(&empty));
    }

    #[test]
    fn code_size_sums_segments() {
        let image = image_with(vec![
            Segment {
                base: 0xE000,
                bytes: vec![0; 100],
            },
            Segment {
                base: 0xF000,
                bytes: vec![0; 33],
            },
        ]);
        assert_eq!(image.code_size(), 133);
    }

    #[test]
    fn load_into_installs_vectors_and_entry() {
        let image = image_with(vec![Segment {
            base: 0xE000,
            bytes: vec![0xAA, 0xBB],
        }]);
        let mem = image.to_memory().expect("fits");
        assert_eq!(mem.read_byte(0xE000), 0xAA);
        assert_eq!(mem.read_word(RESET_VECTOR), 0xE000);
        assert_eq!(mem.read_word(IVT_BASE + 16), 0xE100);
    }

    #[test]
    fn load_error_propagates() {
        let image = image_with(vec![Segment {
            base: 0xFFFE,
            bytes: vec![0; 8],
        }]);
        assert!(image.to_memory().is_err());
    }
}
