//! Status-register flag handling.
//!
//! The MSP430 status register (`r2`) packs the arithmetic flags together
//! with the global interrupt enable and low-power mode bits. This module
//! provides a typed view over that word plus the flag-update helpers used by
//! the executor.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Bit position of the carry flag.
pub const SR_C: u16 = 1 << 0;
/// Bit position of the zero flag.
pub const SR_Z: u16 = 1 << 1;
/// Bit position of the negative flag.
pub const SR_N: u16 = 1 << 2;
/// Bit position of the global interrupt enable bit.
pub const SR_GIE: u16 = 1 << 3;
/// Bit position of the CPU-off (low power) bit.
pub const SR_CPUOFF: u16 = 1 << 4;
/// Bit position of the oscillator-off bit.
pub const SR_OSCOFF: u16 = 1 << 5;
/// Bit position of the system clock generator 0 bit.
pub const SR_SCG0: u16 = 1 << 6;
/// Bit position of the system clock generator 1 bit.
pub const SR_SCG1: u16 = 1 << 7;
/// Bit position of the overflow flag.
pub const SR_V: u16 = 1 << 8;

/// Typed view of the MSP430 status register.
///
/// # Examples
///
/// ```
/// use eilid_msp430::flags::SR_GIE;
/// use eilid_msp430::StatusFlags;
///
/// let mut sr = StatusFlags::from_word(SR_GIE);
/// sr.set_zero(true);
/// assert!(sr.zero() && sr.gie());
/// assert_eq!(sr.to_word() & 0b1010, 0b1010);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StatusFlags {
    word: u16,
}

impl StatusFlags {
    /// Builds a flag view from a raw status-register word.
    pub fn from_word(word: u16) -> Self {
        StatusFlags { word }
    }

    /// Raw status-register word.
    pub fn to_word(self) -> u16 {
        self.word
    }

    fn get(self, mask: u16) -> bool {
        self.word & mask != 0
    }

    fn set(&mut self, mask: u16, value: bool) {
        if value {
            self.word |= mask;
        } else {
            self.word &= !mask;
        }
    }

    /// Carry flag.
    pub fn carry(self) -> bool {
        self.get(SR_C)
    }

    /// Sets the carry flag.
    pub fn set_carry(&mut self, value: bool) {
        self.set(SR_C, value);
    }

    /// Zero flag.
    pub fn zero(self) -> bool {
        self.get(SR_Z)
    }

    /// Sets the zero flag.
    pub fn set_zero(&mut self, value: bool) {
        self.set(SR_Z, value);
    }

    /// Negative flag.
    pub fn negative(self) -> bool {
        self.get(SR_N)
    }

    /// Sets the negative flag.
    pub fn set_negative(&mut self, value: bool) {
        self.set(SR_N, value);
    }

    /// Overflow flag.
    pub fn overflow(self) -> bool {
        self.get(SR_V)
    }

    /// Sets the overflow flag.
    pub fn set_overflow(&mut self, value: bool) {
        self.set(SR_V, value);
    }

    /// Global interrupt enable.
    pub fn gie(self) -> bool {
        self.get(SR_GIE)
    }

    /// CPU-off (low power mode) bit.
    pub fn cpu_off(self) -> bool {
        self.get(SR_CPUOFF)
    }
}

impl fmt::Display for StatusFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{}{}{}{}]",
            if self.overflow() { 'V' } else { '-' },
            if self.negative() { 'N' } else { '-' },
            if self.zero() { 'Z' } else { '-' },
            if self.carry() { 'C' } else { '-' },
            if self.gie() { 'I' } else { '-' },
        )
    }
}

/// Operand width of an instruction (`.W` word or `.B` byte suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Width {
    /// 16-bit word operation (default).
    #[default]
    Word,
    /// 8-bit byte operation (`.B` suffix).
    Byte,
}

impl Width {
    /// Mask selecting the bits that participate in the operation.
    pub fn mask(self) -> u32 {
        match self {
            Width::Word => 0xFFFF,
            Width::Byte => 0x00FF,
        }
    }

    /// Mask of the operand's sign bit.
    pub fn sign_bit(self) -> u32 {
        match self {
            Width::Word => 0x8000,
            Width::Byte => 0x0080,
        }
    }

    /// Size of the operand in bytes.
    pub fn bytes(self) -> u16 {
        match self {
            Width::Word => 2,
            Width::Byte => 1,
        }
    }

    /// `true` for byte-width operations.
    pub fn is_byte(self) -> bool {
        matches!(self, Width::Byte)
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Width::Word => write!(f, ".w"),
            Width::Byte => write!(f, ".b"),
        }
    }
}

/// Result of an arithmetic or logic operation together with its flag effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluResult {
    /// Result value, already truncated to the operand width.
    pub value: u16,
    /// New carry flag.
    pub carry: bool,
    /// New zero flag.
    pub zero: bool,
    /// New negative flag.
    pub negative: bool,
    /// New overflow flag.
    pub overflow: bool,
}

impl AluResult {
    /// Applies the result's flags to `flags`.
    pub fn apply(&self, flags: &mut StatusFlags) {
        flags.set_carry(self.carry);
        flags.set_zero(self.zero);
        flags.set_negative(self.negative);
        flags.set_overflow(self.overflow);
    }
}

/// Computes `src + dst + carry_in` with MSP430 flag semantics.
pub fn add(src: u16, dst: u16, carry_in: bool, width: Width) -> AluResult {
    let mask = width.mask();
    let sign = width.sign_bit();
    let s = u32::from(src) & mask;
    let d = u32::from(dst) & mask;
    let c = u32::from(carry_in);
    let full = s + d + c;
    let value = full & mask;
    let carry = full > mask;
    let overflow = ((s ^ value) & (d ^ value) & sign) != 0;
    AluResult {
        value: value as u16,
        carry,
        zero: value == 0,
        negative: value & sign != 0,
        overflow,
    }
}

/// Computes `dst - src` (optionally with borrow) with MSP430 flag semantics.
///
/// The MSP430 implements subtraction as `dst + !src + carry_in`, so the carry
/// flag is set when no borrow occurs.
pub fn sub(src: u16, dst: u16, carry_in: bool, width: Width) -> AluResult {
    let mask = width.mask();
    let not_src = (!u32::from(src)) & mask;
    add(not_src as u16, dst, carry_in, width)
}

/// Computes flag effects for logical operations (`AND`, `BIT`, `XOR`).
///
/// For these instructions the MSP430 sets carry to "result not zero" and, for
/// `XOR`, overflow when both operands are negative; `AND`/`BIT` clear
/// overflow.
pub fn logic(value: u16, width: Width, xor_overflow: bool) -> AluResult {
    let mask = width.mask();
    let sign = width.sign_bit();
    let v = u32::from(value) & mask;
    AluResult {
        value: v as u16,
        carry: v != 0,
        zero: v == 0,
        negative: v & sign != 0,
        overflow: xor_overflow,
    }
}

/// Performs BCD addition for the `DADD` instruction.
pub fn dadd(src: u16, dst: u16, carry_in: bool, width: Width) -> AluResult {
    let digits = match width {
        Width::Word => 4,
        Width::Byte => 2,
    };
    let mut carry = u16::from(carry_in);
    let mut value: u16 = 0;
    for i in 0..digits {
        let shift = i * 4;
        let sd = (src >> shift) & 0xF;
        let dd = (dst >> shift) & 0xF;
        let mut sum = sd + dd + carry;
        if sum >= 10 {
            sum -= 10;
            carry = 1;
        } else {
            carry = 0;
        }
        value |= (sum & 0xF) << shift;
    }
    let sign = width.sign_bit() as u16;
    AluResult {
        value,
        carry: carry != 0,
        zero: value == 0,
        negative: value & sign != 0,
        // Overflow is documented as undefined for DADD; the simulator clears it.
        overflow: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_word_sets_carry_and_zero() {
        let r = add(0x0001, 0xFFFF, false, Width::Word);
        assert_eq!(r.value, 0);
        assert!(r.carry);
        assert!(r.zero);
        assert!(!r.negative);
        assert!(!r.overflow);
    }

    #[test]
    fn add_overflow_on_signed_wrap() {
        let r = add(0x7FFF, 0x0001, false, Width::Word);
        assert_eq!(r.value, 0x8000);
        assert!(r.overflow);
        assert!(r.negative);
        assert!(!r.carry);
    }

    #[test]
    fn add_byte_width_truncates() {
        let r = add(0x00F0, 0x0020, false, Width::Byte);
        assert_eq!(r.value, 0x10);
        assert!(r.carry);
        assert!(!r.zero);
    }

    #[test]
    fn sub_sets_carry_when_no_borrow() {
        // 5 - 3: no borrow => carry set.
        let r = sub(3, 5, true, Width::Word);
        assert_eq!(r.value, 2);
        assert!(r.carry);
        // 3 - 5: borrow => carry clear, negative result.
        let r = sub(5, 3, true, Width::Word);
        assert_eq!(r.value, 0xFFFE);
        assert!(!r.carry);
        assert!(r.negative);
    }

    #[test]
    fn cmp_equal_sets_zero() {
        let r = sub(0x1234, 0x1234, true, Width::Word);
        assert!(r.zero);
        assert!(r.carry);
    }

    #[test]
    fn logic_flags() {
        let r = logic(0x8000, Width::Word, false);
        assert!(r.negative);
        assert!(r.carry);
        assert!(!r.zero);
        let r = logic(0, Width::Word, false);
        assert!(r.zero);
        assert!(!r.carry);
    }

    #[test]
    fn dadd_decimal_carry() {
        let r = dadd(0x0009, 0x0001, false, Width::Word);
        assert_eq!(r.value, 0x0010);
        assert!(!r.carry);
        let r = dadd(0x9999, 0x0001, false, Width::Word);
        assert_eq!(r.value, 0x0000);
        assert!(r.carry);
        assert!(r.zero);
    }

    #[test]
    fn status_flags_roundtrip() {
        let mut sr = StatusFlags::from_word(SR_GIE | SR_CPUOFF);
        sr.set_carry(true);
        sr.set_overflow(true);
        sr.set_negative(true);
        sr.set_zero(true);
        assert!(sr.carry() && sr.overflow() && sr.negative() && sr.zero());
        assert!(sr.gie() && sr.cpu_off());
        assert_eq!(StatusFlags::from_word(sr.to_word()).to_word(), sr.to_word());
        assert_eq!(sr.to_string(), "[VNZCI]");
    }

    #[test]
    fn width_helpers() {
        assert_eq!(Width::Word.bytes(), 2);
        assert_eq!(Width::Byte.bytes(), 1);
        assert!(Width::Byte.is_byte());
        assert_eq!(Width::Word.to_string(), ".w");
        assert_eq!(Width::Byte.to_string(), ".b");
    }
}
