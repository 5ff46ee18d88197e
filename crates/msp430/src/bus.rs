//! Bus-level observation types.
//!
//! Every simulator step produces a [`StepTrace`] describing the hardware
//! signals an external monitor (such as the CASU/EILID hardware) can observe
//! on the real core: the program counter, instruction fetch addresses, and
//! every data read and write with its address. The EILID hardware is a
//! passive observer of these signals that triggers a reset when a policy is
//! violated, so the trace is the natural integration point between the
//! simulator and the monitor crate.
//!
//! A trace is plain, fixed-size data: the data reads and writes live in
//! inline [`AccessLog`]s (the ISA bounds each to [`MAX_ACCESSES`] per
//! step) and the fetch addresses are derived from `pc` and
//! `instruction_size` by [`StepTrace::fetch_addresses`], so producing and
//! consuming a step allocates nothing.

use serde::{Deserialize, Serialize};

use crate::flags::Width;
use crate::instruction::Instruction;

/// Direction of a data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// A single data-memory access observed on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Accessed address.
    pub addr: u16,
    /// Value read or written.
    pub value: u16,
    /// Access width.
    pub width: Width,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Inclusive range of byte addresses touched by this access.
    fn byte_range(&self) -> (u16, u16) {
        match self.width {
            Width::Byte => (self.addr, self.addr),
            Width::Word => (self.addr & !1, (self.addr & !1).wrapping_add(1)),
        }
    }
}

/// Most data reads, and separately most data writes, one step can make.
///
/// The bound comes from the ISA: a format-I instruction with memory
/// operands on both sides reads its source and its destination and
/// writes the destination back (2 reads, 1 write); `push`/`call` read
/// one operand and write one stack word; `reti` pops two words (2
/// reads); interrupt entry pushes PC and SR and reads the vector (1
/// read, 2 writes). Instruction fetches are not data accesses and are
/// bounded separately by [`MAX_FETCHES`]. `crates/msp430/tests/bus_bound.rs`
/// checks the bound against every first instruction word.
pub const MAX_ACCESSES: usize = 2;

/// Most instruction words one step fetches: an opcode word plus a
/// source and a destination extension word.
pub const MAX_FETCHES: usize = 3;

/// The data reads or the data writes of one step: an inline list of at
/// most [`MAX_ACCESSES`] entries that dereferences to `&[MemAccess]`.
///
/// # Panics
///
/// [`AccessLog::push`] panics past the capacity — the ISA bound was
/// broken, and a silently truncated trace would hide accesses from the
/// monitor.
///
/// # Examples
///
/// ```
/// use eilid_msp430::{AccessKind, AccessLog, MemAccess, Width};
///
/// let mut log = AccessLog::new();
/// log.push(MemAccess { addr: 0x0200, value: 7, width: Width::Word, kind: AccessKind::Write });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log[0].addr, 0x0200);
/// ```
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct AccessLog {
    len: u8,
    items: [MemAccess; MAX_ACCESSES],
}

impl AccessLog {
    /// Placeholder for the unused slots.
    const EMPTY_SLOT: MemAccess = MemAccess {
        addr: 0,
        value: 0,
        width: Width::Word,
        kind: AccessKind::Read,
    };

    /// An empty log.
    pub const fn new() -> Self {
        AccessLog {
            len: 0,
            items: [Self::EMPTY_SLOT; MAX_ACCESSES],
        }
    }

    /// Appends one access.
    ///
    /// # Panics
    ///
    /// Panics when the log already holds [`MAX_ACCESSES`] entries.
    #[inline]
    pub fn push(&mut self, access: MemAccess) {
        let len = usize::from(self.len);
        assert!(
            len < MAX_ACCESSES,
            "one step made more than {MAX_ACCESSES} data {}s (at {:#06x})",
            match access.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            },
            access.addr,
        );
        self.items[len] = access;
        self.len += 1;
    }
}

impl Default for AccessLog {
    fn default() -> Self {
        AccessLog::new()
    }
}

impl std::ops::Deref for AccessLog {
    type Target = [MemAccess];

    #[inline]
    fn deref(&self) -> &[MemAccess] {
        &self.items[..usize::from(self.len)]
    }
}

impl PartialEq for AccessLog {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for AccessLog {}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a AccessLog {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Why a simulator step ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepEvent {
    /// A regular instruction was fetched and executed.
    Executed,
    /// An interrupt was accepted instead of executing an instruction.
    InterruptTaken {
        /// Interrupt vector index (0–15).
        vector: u8,
    },
    /// The CPU is idle in a low-power mode waiting for an interrupt.
    Idle,
    /// The instruction word could not be decoded; the core signals an error.
    DecodeFault {
        /// The undecodable instruction word.
        word: u16,
    },
}

/// Full record of the hardware signals produced by one simulator step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepTrace {
    /// Program counter at the start of the step.
    pub pc: u16,
    /// Program counter after the step (start of the next instruction).
    pub next_pc: u16,
    /// What happened during this step.
    pub event: StepEvent,
    /// The executed instruction, when [`StepEvent::Executed`].
    pub instruction: Option<Instruction>,
    /// Encoded size of the executed instruction in bytes (0 otherwise).
    /// With `pc` it gives the fetch addresses
    /// ([`StepTrace::fetch_addresses`]).
    pub instruction_size: u16,
    /// Data reads performed this step (stack pops, operand loads, vector
    /// fetches).
    pub reads: AccessLog,
    /// Data writes performed this step (stack pushes, operand stores).
    pub writes: AccessLog,
    /// Clock cycles consumed by this step.
    pub cycles: u64,
    /// Total clock cycles consumed since reset, including this step.
    pub total_cycles: u64,
}

impl StepTrace {
    /// Addresses of the instruction words fetched this step, in fetch
    /// order: `pc`, `pc + 2`, … for `instruction_size` bytes (none on
    /// interrupt and idle steps).
    #[inline]
    pub fn fetch_addresses(&self) -> impl ExactSizeIterator<Item = u16> {
        let pc = self.pc;
        (0..self.instruction_size / 2).map(move |word| pc.wrapping_add(2 * word))
    }

    /// `true` if this step wrote to `addr` (any width overlapping it).
    pub fn wrote_to(&self, addr: u16) -> bool {
        self.writes.iter().any(|w| {
            let (lo, hi) = w.byte_range();
            addr >= lo && addr <= hi
        })
    }

    /// Returns the last value written to `addr` during this step, if any.
    pub fn written_value(&self, addr: u16) -> Option<u16> {
        self.writes
            .iter()
            .rev()
            .find(|w| {
                let (lo, hi) = w.byte_range();
                addr >= lo && addr <= hi
            })
            .map(|w| w.value)
    }

    /// `true` if an interrupt was accepted during this step.
    pub fn interrupt_taken(&self) -> bool {
        matches!(self.event, StepEvent::InterruptTaken { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(addr: u16, value: u16, width: Width) -> MemAccess {
        MemAccess {
            addr,
            value,
            width,
            kind: AccessKind::Write,
        }
    }

    #[test]
    fn byte_range_word_access() {
        let acc = write(0x0201, 0xBEEF, Width::Word);
        assert_eq!(acc.byte_range(), (0x0200, 0x0201));
        let acc = write(0x0203, 0xAB, Width::Byte);
        assert_eq!(acc.byte_range(), (0x0203, 0x0203));
    }

    #[test]
    fn trace_write_queries() {
        let mut writes = AccessLog::new();
        writes.push(write(0x0200, 0x1234, Width::Word));
        writes.push(write(0x0300, 0x55, Width::Byte));
        let trace = StepTrace {
            pc: 0xF000,
            next_pc: 0xF004,
            event: StepEvent::Executed,
            instruction: None,
            instruction_size: 4,
            reads: AccessLog::new(),
            writes,
            cycles: 5,
            total_cycles: 5,
        };
        assert!(trace.wrote_to(0x0200));
        assert!(trace.wrote_to(0x0201));
        assert!(!trace.wrote_to(0x0202));
        assert_eq!(trace.written_value(0x0200), Some(0x1234));
        assert_eq!(trace.written_value(0x0300), Some(0x55));
        assert_eq!(trace.written_value(0x0400), None);
        assert!(!trace.interrupt_taken());
        assert_eq!(
            trace.fetch_addresses().collect::<Vec<_>>(),
            vec![0xF000, 0xF002]
        );
    }

    #[test]
    fn fetch_addresses_wrap_at_the_top_of_memory() {
        let trace = StepTrace {
            pc: 0xFFFC,
            next_pc: 0x0002,
            event: StepEvent::Executed,
            instruction: None,
            instruction_size: 6,
            reads: AccessLog::new(),
            writes: AccessLog::new(),
            cycles: 5,
            total_cycles: 5,
        };
        assert_eq!(
            trace.fetch_addresses().collect::<Vec<_>>(),
            vec![0xFFFC, 0xFFFE, 0x0000]
        );
    }

    #[test]
    fn access_log_derefs_to_its_entries() {
        let mut log = AccessLog::new();
        assert!(log.is_empty());
        log.push(write(0x0200, 1, Width::Word));
        log.push(write(0x0202, 2, Width::Byte));
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].value, 2);
        assert_eq!(format!("{log:?}"), format!("{:?}", &log[..]));
    }

    #[test]
    #[should_panic(expected = "more than 2 data writes")]
    fn access_log_overflow_panics() {
        let mut log = AccessLog::new();
        for i in 0..3 {
            log.push(write(0x0200 + 2 * i, 0, Width::Word));
        }
    }

    #[test]
    fn interrupt_event_query() {
        let trace = StepTrace {
            pc: 0xF000,
            next_pc: 0xE100,
            event: StepEvent::InterruptTaken { vector: 8 },
            instruction: None,
            instruction_size: 0,
            reads: AccessLog::new(),
            writes: AccessLog::new(),
            cycles: 6,
            total_cycles: 100,
        };
        assert!(trace.interrupt_taken());
    }
}
