//! CPU register file for the 16-bit MSP430 core.
//!
//! The MSP430 exposes sixteen 16-bit registers. Four of them have dedicated
//! roles: `r0` is the program counter, `r1` the stack pointer, `r2` the
//! status register (and first constant generator), and `r3` the second
//! constant generator. The remaining registers `r4`–`r15` are general
//! purpose. EILID reserves `r4`–`r7` for its trusted-software ABI
//! (paper Table III).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of one of the sixteen MSP430 CPU registers.
///
/// # Examples
///
/// ```
/// use eilid_msp430::Reg;
///
/// assert_eq!(Reg::PC.index(), 0);
/// assert_eq!(Reg::from_index(6)?, Reg::R6);
/// assert_eq!(Reg::R6.to_string(), "r6");
/// # Ok::<(), eilid_msp430::RegisterIndexError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Reg {
    /// `r0` — program counter (`PC`).
    PC = 0,
    /// `r1` — stack pointer (`SP`).
    SP = 1,
    /// `r2` — status register (`SR`) and constant generator 1.
    SR = 2,
    /// `r3` — constant generator 2.
    CG = 3,
    /// `r4` — general purpose. Reserved by EILID for `S_EILID_init`/dispatch.
    R4 = 4,
    /// `r5` — general purpose. Reserved by EILID as the shadow-stack index.
    R5 = 5,
    /// `r6` — general purpose. Reserved by EILID as the first argument register.
    R6 = 6,
    /// `r7` — general purpose. Reserved by EILID as the second argument register.
    R7 = 7,
    /// `r8` — general purpose.
    R8 = 8,
    /// `r9` — general purpose.
    R9 = 9,
    /// `r10` — general purpose.
    R10 = 10,
    /// `r11` — general purpose.
    R11 = 11,
    /// `r12` — general purpose.
    R12 = 12,
    /// `r13` — general purpose.
    R13 = 13,
    /// `r14` — general purpose.
    R14 = 14,
    /// `r15` — general purpose.
    R15 = 15,
}

/// Error returned when converting an out-of-range index into a [`Reg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterIndexError {
    index: u16,
}

impl RegisterIndexError {
    /// The offending index value.
    pub fn index(&self) -> u16 {
        self.index
    }
}

impl fmt::Display for RegisterIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "register index {} is out of range 0..=15", self.index)
    }
}

impl std::error::Error for RegisterIndexError {}

impl Reg {
    /// All sixteen registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::PC,
        Reg::SP,
        Reg::SR,
        Reg::CG,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Numeric index of the register (0–15).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Converts a numeric index into a register identifier.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterIndexError`] if `index > 15`.
    pub fn from_index(index: u16) -> Result<Reg, RegisterIndexError> {
        Reg::ALL
            .get(usize::from(index))
            .copied()
            .ok_or(RegisterIndexError { index })
    }

    /// `true` for `r4`–`r7`, the registers reserved by the EILID ABI
    /// (paper Table III).
    pub fn is_eilid_reserved(self) -> bool {
        (4..=7).contains(&self.index())
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

impl From<Reg> for u16 {
    fn from(reg: Reg) -> u16 {
        reg.index() as u16
    }
}

/// The sixteen-entry register file of the core.
///
/// Writes to the program counter are forced even, mirroring the hardware
/// behaviour of the openMSP430 front end (instruction fetches are word
/// aligned).
///
/// # Examples
///
/// ```
/// use eilid_msp430::{Reg, RegisterFile};
///
/// let mut regs = RegisterFile::new();
/// regs.write(Reg::R6, 0xe200);
/// assert_eq!(regs.read(Reg::R6), 0xe200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterFile {
    values: [u16; 16],
}

impl RegisterFile {
    /// Creates a register file with every register cleared to zero.
    pub fn new() -> Self {
        RegisterFile { values: [0; 16] }
    }

    /// Reads the current value of `reg`.
    pub fn read(&self, reg: Reg) -> u16 {
        self.values[reg.index()]
    }

    /// Writes `value` to `reg`.
    ///
    /// The least-significant bit of the program counter is always cleared,
    /// as on the real core.
    pub fn write(&mut self, reg: Reg, value: u16) {
        let value = if reg == Reg::PC { value & !1 } else { value };
        self.values[reg.index()] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u16 {
        self.read(Reg::PC)
    }

    /// Sets the program counter (forced even).
    pub fn set_pc(&mut self, value: u16) {
        self.write(Reg::PC, value);
    }

    /// Current stack pointer.
    pub fn sp(&self) -> u16 {
        self.read(Reg::SP)
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, value: u16) {
        self.write(Reg::SP, value);
    }

    /// Current status register.
    pub fn sr(&self) -> u16 {
        self.read(Reg::SR)
    }

    /// Sets the status register.
    pub fn set_sr(&mut self, value: u16) {
        self.write(Reg::SR, value);
    }

    /// Iterator over `(register, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, u16)> + '_ {
        Reg::ALL.iter().map(move |&r| (r, self.read(r)))
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_roundtrip_all_indices() {
        for i in 0u16..16 {
            let reg = Reg::from_index(i).expect("index in range");
            assert_eq!(reg.index() as u16, i);
        }
    }

    #[test]
    fn register_index_out_of_range_is_error() {
        let err = Reg::from_index(16).unwrap_err();
        assert_eq!(err.index(), 16);
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn eilid_reserved_registers_are_r4_to_r7() {
        assert!(Reg::R4.is_eilid_reserved());
        assert!(Reg::R7.is_eilid_reserved());
        assert!(!Reg::R8.is_eilid_reserved());
        assert!(!Reg::SR.is_eilid_reserved());
    }

    #[test]
    fn display_uses_numeric_names() {
        assert_eq!(Reg::PC.to_string(), "r0");
        assert_eq!(Reg::R15.to_string(), "r15");
    }

    #[test]
    fn pc_writes_are_forced_even() {
        let mut regs = RegisterFile::new();
        regs.write(Reg::PC, 0x1235);
        assert_eq!(regs.pc(), 0x1234);
        regs.write(Reg::R10, 0x1235);
        assert_eq!(regs.read(Reg::R10), 0x1235);
    }

    #[test]
    fn accessors_match_named_registers() {
        let mut regs = RegisterFile::new();
        regs.set_pc(0xF000);
        regs.set_sp(0x0400);
        regs.set_sr(0x0008);
        assert_eq!(regs.read(Reg::PC), 0xF000);
        assert_eq!(regs.read(Reg::SP), 0x0400);
        assert_eq!(regs.read(Reg::SR), 0x0008);
        assert_eq!(regs.iter().count(), 16);
    }
}
