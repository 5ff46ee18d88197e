//! Decoded instruction model.
//!
//! The MSP430 has three instruction formats: double-operand (format I),
//! single-operand (format II) and relative jumps (format III). This module
//! defines a typed representation of decoded instructions shared by the
//! decoder, the encoder, the executor and the assembler.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::flags::Width;
use crate::registers::Reg;

/// Double-operand (format I) opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TwoOpOpcode {
    /// Copy source to destination.
    Mov,
    /// Add source to destination.
    Add,
    /// Add source and carry to destination.
    Addc,
    /// Subtract source with borrow from destination.
    Subc,
    /// Subtract source from destination.
    Sub,
    /// Compare (destination minus source, flags only).
    Cmp,
    /// Decimal (BCD) add with carry.
    Dadd,
    /// Test bits (destination AND source, flags only).
    Bit,
    /// Clear bits in destination.
    Bic,
    /// Set bits in destination.
    Bis,
    /// Exclusive-or source into destination.
    Xor,
    /// And source into destination.
    And,
}

impl TwoOpOpcode {
    /// Encoding of the opcode in bits 15..12 of the instruction word.
    pub fn encoding(self) -> u16 {
        match self {
            TwoOpOpcode::Mov => 0x4,
            TwoOpOpcode::Add => 0x5,
            TwoOpOpcode::Addc => 0x6,
            TwoOpOpcode::Subc => 0x7,
            TwoOpOpcode::Sub => 0x8,
            TwoOpOpcode::Cmp => 0x9,
            TwoOpOpcode::Dadd => 0xA,
            TwoOpOpcode::Bit => 0xB,
            TwoOpOpcode::Bic => 0xC,
            TwoOpOpcode::Bis => 0xD,
            TwoOpOpcode::Xor => 0xE,
            TwoOpOpcode::And => 0xF,
        }
    }

    /// Decodes bits 15..12 into an opcode, if they denote format I.
    pub fn from_encoding(bits: u16) -> Option<Self> {
        Some(match bits {
            0x4 => TwoOpOpcode::Mov,
            0x5 => TwoOpOpcode::Add,
            0x6 => TwoOpOpcode::Addc,
            0x7 => TwoOpOpcode::Subc,
            0x8 => TwoOpOpcode::Sub,
            0x9 => TwoOpOpcode::Cmp,
            0xA => TwoOpOpcode::Dadd,
            0xB => TwoOpOpcode::Bit,
            0xC => TwoOpOpcode::Bic,
            0xD => TwoOpOpcode::Bis,
            0xE => TwoOpOpcode::Xor,
            0xF => TwoOpOpcode::And,
            _ => return None,
        })
    }

    /// Lower-case mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TwoOpOpcode::Mov => "mov",
            TwoOpOpcode::Add => "add",
            TwoOpOpcode::Addc => "addc",
            TwoOpOpcode::Subc => "subc",
            TwoOpOpcode::Sub => "sub",
            TwoOpOpcode::Cmp => "cmp",
            TwoOpOpcode::Dadd => "dadd",
            TwoOpOpcode::Bit => "bit",
            TwoOpOpcode::Bic => "bic",
            TwoOpOpcode::Bis => "bis",
            TwoOpOpcode::Xor => "xor",
            TwoOpOpcode::And => "and",
        }
    }
}

/// Single-operand (format II) opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OneOpOpcode {
    /// Rotate right through carry.
    Rrc,
    /// Swap bytes.
    Swpb,
    /// Rotate right arithmetically.
    Rra,
    /// Sign-extend byte to word.
    Sxt,
    /// Push operand onto the stack.
    Push,
    /// Call subroutine (pushes return address, used for EILID trampolines).
    Call,
    /// Return from interrupt (pops SR then PC).
    Reti,
}

impl OneOpOpcode {
    /// Encoding of the opcode in bits 9..7 of the instruction word.
    pub fn encoding(self) -> u16 {
        match self {
            OneOpOpcode::Rrc => 0b000,
            OneOpOpcode::Swpb => 0b001,
            OneOpOpcode::Rra => 0b010,
            OneOpOpcode::Sxt => 0b011,
            OneOpOpcode::Push => 0b100,
            OneOpOpcode::Call => 0b101,
            OneOpOpcode::Reti => 0b110,
        }
    }

    /// Decodes bits 9..7 into an opcode.
    pub fn from_encoding(bits: u16) -> Option<Self> {
        Some(match bits {
            0b000 => OneOpOpcode::Rrc,
            0b001 => OneOpOpcode::Swpb,
            0b010 => OneOpOpcode::Rra,
            0b011 => OneOpOpcode::Sxt,
            0b100 => OneOpOpcode::Push,
            0b101 => OneOpOpcode::Call,
            0b110 => OneOpOpcode::Reti,
            _ => return None,
        })
    }

    /// Lower-case mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OneOpOpcode::Rrc => "rrc",
            OneOpOpcode::Swpb => "swpb",
            OneOpOpcode::Rra => "rra",
            OneOpOpcode::Sxt => "sxt",
            OneOpOpcode::Push => "push",
            OneOpOpcode::Call => "call",
            OneOpOpcode::Reti => "reti",
        }
    }
}

/// Jump (format III) conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Condition {
    /// Jump if not equal / not zero.
    Jne,
    /// Jump if equal / zero.
    Jeq,
    /// Jump if carry clear.
    Jnc,
    /// Jump if carry set.
    Jc,
    /// Jump if negative.
    Jn,
    /// Jump if greater or equal (signed).
    Jge,
    /// Jump if less (signed).
    Jl,
    /// Unconditional jump.
    Jmp,
}

impl Condition {
    /// Encoding of the condition in bits 12..10 of the instruction word.
    pub fn encoding(self) -> u16 {
        match self {
            Condition::Jne => 0b000,
            Condition::Jeq => 0b001,
            Condition::Jnc => 0b010,
            Condition::Jc => 0b011,
            Condition::Jn => 0b100,
            Condition::Jge => 0b101,
            Condition::Jl => 0b110,
            Condition::Jmp => 0b111,
        }
    }

    /// Decodes bits 12..10 into a condition.
    pub fn from_encoding(bits: u16) -> Option<Self> {
        Some(match bits {
            0b000 => Condition::Jne,
            0b001 => Condition::Jeq,
            0b010 => Condition::Jnc,
            0b011 => Condition::Jc,
            0b100 => Condition::Jn,
            0b101 => Condition::Jge,
            0b110 => Condition::Jl,
            0b111 => Condition::Jmp,
            _ => return None,
        })
    }

    /// Lower-case mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Condition::Jne => "jne",
            Condition::Jeq => "jeq",
            Condition::Jnc => "jnc",
            Condition::Jc => "jc",
            Condition::Jn => "jn",
            Condition::Jge => "jge",
            Condition::Jl => "jl",
            Condition::Jmp => "jmp",
        }
    }
}

/// An instruction operand together with its addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Register direct: `Rn`.
    Register(Reg),
    /// Indexed: `offset(Rn)`.
    Indexed {
        /// Base register.
        reg: Reg,
        /// Signed byte offset added to the register.
        offset: i16,
    },
    /// Register indirect: `@Rn`.
    Indirect(Reg),
    /// Register indirect with post-increment: `@Rn+`.
    IndirectAutoInc(Reg),
    /// Immediate: `#value` (source only).
    Immediate(u16),
    /// Absolute: `&addr`.
    Absolute(u16),
    /// Symbolic (PC-relative): resolves to `pc_of_extension_word + offset`.
    Symbolic {
        /// Signed offset relative to the address of the extension word.
        offset: i16,
    },
}

impl Operand {
    /// Number of extension words this operand occupies in the instruction
    /// stream when encoded **as a source** operand.
    ///
    /// Immediates representable by the constant generators (0, 1, 2, 4, 8 and
    /// `0xFFFF`) need no extension word.
    fn src_extension_words(&self) -> u16 {
        match self {
            Operand::Register(_) | Operand::Indirect(_) | Operand::IndirectAutoInc(_) => 0,
            Operand::Immediate(v) => {
                if constant_generator(*v).is_some() {
                    0
                } else {
                    1
                }
            }
            Operand::Indexed { .. } | Operand::Absolute(_) | Operand::Symbolic { .. } => 1,
        }
    }

    /// Number of extension words this operand occupies when encoded **as a
    /// destination** operand.
    fn dst_extension_words(&self) -> u16 {
        match self {
            Operand::Register(_) => 0,
            Operand::Indexed { .. } | Operand::Absolute(_) | Operand::Symbolic { .. } => 1,
            // Not encodable as destinations; counted defensively.
            Operand::Indirect(_) | Operand::IndirectAutoInc(_) | Operand::Immediate(_) => 0,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Register(r) => write!(f, "{r}"),
            Operand::Indexed { reg, offset } => write!(f, "{offset}({reg})"),
            Operand::Indirect(r) => write!(f, "@{r}"),
            Operand::IndirectAutoInc(r) => write!(f, "@{r}+"),
            Operand::Immediate(v) => write!(f, "#{:#x}", v),
            Operand::Absolute(a) => write!(f, "&{:#06x}", a),
            Operand::Symbolic { offset } => write!(f, "{offset}(pc)"),
        }
    }
}

/// Returns the `(register, As)` pair of the constant generator that produces
/// `value`, if any.
///
/// The MSP430 hardware derives the constants 4, 8 from `r2` and 0, 1, 2, −1
/// from `r3`, saving an extension word for the most common immediates.
pub fn constant_generator(value: u16) -> Option<(Reg, u16)> {
    match value {
        0x0000 => Some((Reg::CG, 0b00)),
        0x0001 => Some((Reg::CG, 0b01)),
        0x0002 => Some((Reg::CG, 0b10)),
        0xFFFF => Some((Reg::CG, 0b11)),
        0x0004 => Some((Reg::SR, 0b10)),
        0x0008 => Some((Reg::SR, 0b11)),
        _ => None,
    }
}

/// A fully decoded MSP430 instruction.
///
/// # Examples
///
/// ```
/// use eilid_msp430::{Instruction, Operand, Reg, TwoOpOpcode, Width};
///
/// let mov = Instruction::TwoOp {
///     opcode: TwoOpOpcode::Mov,
///     width: Width::Word,
///     src: Operand::Immediate(0xe200),
///     dst: Operand::Register(Reg::R6),
/// };
/// assert_eq!(mov.to_string(), "mov #0xe200, r6");
/// assert_eq!(mov.size_bytes(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instruction {
    /// Format I: two-operand instruction.
    TwoOp {
        /// Operation.
        opcode: TwoOpOpcode,
        /// Byte or word width.
        width: Width,
        /// Source operand.
        src: Operand,
        /// Destination operand.
        dst: Operand,
    },
    /// Format II: single-operand instruction.
    OneOp {
        /// Operation.
        opcode: OneOpOpcode,
        /// Byte or word width (ignored by `SWPB`, `SXT`, `CALL`, `RETI`).
        width: Width,
        /// Operand (unused by `RETI`).
        operand: Operand,
    },
    /// Format III: conditional or unconditional PC-relative jump.
    Jump {
        /// Jump condition.
        condition: Condition,
        /// Word offset in the range −511..=512 relative to the next
        /// instruction (`target = pc + 2 + 2*offset`).
        offset: i16,
    },
}

impl Instruction {
    /// Size of the encoded instruction in bytes (2, 4, or 6).
    pub fn size_bytes(&self) -> u16 {
        match self {
            Instruction::TwoOp { src, dst, .. } => {
                2 + 2 * (src.src_extension_words() + dst.dst_extension_words())
            }
            Instruction::OneOp {
                opcode, operand, ..
            } => {
                if *opcode == OneOpOpcode::Reti {
                    2
                } else {
                    2 + 2 * operand.src_extension_words()
                }
            }
            Instruction::Jump { .. } => 2,
        }
    }

    /// `true` if this instruction is `call` (direct or indirect).
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            Instruction::OneOp {
                opcode: OneOpOpcode::Call,
                ..
            }
        )
    }

    /// `true` if this instruction is `reti`.
    pub fn is_reti(&self) -> bool {
        matches!(
            self,
            Instruction::OneOp {
                opcode: OneOpOpcode::Reti,
                ..
            }
        )
    }

    /// `true` if this instruction is the emulated `ret`
    /// (`mov @sp+, pc`).
    pub fn is_ret(&self) -> bool {
        matches!(
            self,
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Mov,
                src: Operand::IndirectAutoInc(Reg::SP),
                dst: Operand::Register(Reg::PC),
                ..
            }
        )
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::TwoOp {
                opcode,
                width,
                src,
                dst,
            } => {
                let suffix = if width.is_byte() { ".b" } else { "" };
                write!(f, "{}{} {}, {}", opcode.mnemonic(), suffix, src, dst)
            }
            Instruction::OneOp {
                opcode,
                width,
                operand,
            } => {
                if *opcode == OneOpOpcode::Reti {
                    write!(f, "reti")
                } else {
                    let suffix = if width.is_byte() { ".b" } else { "" };
                    write!(f, "{}{} {}", opcode.mnemonic(), suffix, operand)
                }
            }
            Instruction::Jump { condition, offset } => {
                write!(f, "{} {:+}", condition.mnemonic(), offset * 2 + 2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_op_encoding_roundtrip() {
        for op in [
            TwoOpOpcode::Mov,
            TwoOpOpcode::Add,
            TwoOpOpcode::Addc,
            TwoOpOpcode::Subc,
            TwoOpOpcode::Sub,
            TwoOpOpcode::Cmp,
            TwoOpOpcode::Dadd,
            TwoOpOpcode::Bit,
            TwoOpOpcode::Bic,
            TwoOpOpcode::Bis,
            TwoOpOpcode::Xor,
            TwoOpOpcode::And,
        ] {
            assert_eq!(TwoOpOpcode::from_encoding(op.encoding()), Some(op));
        }
        assert_eq!(TwoOpOpcode::from_encoding(0x3), None);
    }

    #[test]
    fn one_op_encoding_roundtrip() {
        for op in [
            OneOpOpcode::Rrc,
            OneOpOpcode::Swpb,
            OneOpOpcode::Rra,
            OneOpOpcode::Sxt,
            OneOpOpcode::Push,
            OneOpOpcode::Call,
            OneOpOpcode::Reti,
        ] {
            assert_eq!(OneOpOpcode::from_encoding(op.encoding()), Some(op));
        }
        assert_eq!(OneOpOpcode::from_encoding(0b111), None);
    }

    #[test]
    fn condition_encoding_roundtrip() {
        for c in [
            Condition::Jne,
            Condition::Jeq,
            Condition::Jnc,
            Condition::Jc,
            Condition::Jn,
            Condition::Jge,
            Condition::Jl,
            Condition::Jmp,
        ] {
            assert_eq!(Condition::from_encoding(c.encoding()), Some(c));
        }
    }

    #[test]
    fn constant_generator_values() {
        assert!(constant_generator(0).is_some());
        assert!(constant_generator(1).is_some());
        assert!(constant_generator(2).is_some());
        assert!(constant_generator(4).is_some());
        assert!(constant_generator(8).is_some());
        assert!(constant_generator(0xFFFF).is_some());
        assert!(constant_generator(3).is_none());
        assert!(constant_generator(0xE200).is_none());
    }

    #[test]
    fn instruction_sizes() {
        let reg_to_reg = Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Word,
            src: Operand::Register(Reg::R10),
            dst: Operand::Register(Reg::R11),
        };
        assert_eq!(reg_to_reg.size_bytes(), 2);

        let imm_to_reg = Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Word,
            src: Operand::Immediate(0xE200),
            dst: Operand::Register(Reg::R6),
        };
        assert_eq!(imm_to_reg.size_bytes(), 4);

        let cg_imm = Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Word,
            src: Operand::Immediate(1),
            dst: Operand::Register(Reg::R6),
        };
        assert_eq!(cg_imm.size_bytes(), 2);

        let abs_to_abs = Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Word,
            src: Operand::Absolute(0x0200),
            dst: Operand::Absolute(0x0202),
        };
        assert_eq!(abs_to_abs.size_bytes(), 6);

        let call_imm = Instruction::OneOp {
            opcode: OneOpOpcode::Call,
            width: Width::Word,
            operand: Operand::Immediate(0xF000),
        };
        assert_eq!(call_imm.size_bytes(), 4);

        let reti = Instruction::OneOp {
            opcode: OneOpOpcode::Reti,
            width: Width::Word,
            operand: Operand::Register(Reg::CG),
        };
        assert_eq!(reti.size_bytes(), 2);

        let jmp = Instruction::Jump {
            condition: Condition::Jmp,
            offset: -1,
        };
        assert_eq!(jmp.size_bytes(), 2);
    }

    #[test]
    fn classification_helpers() {
        let call = Instruction::OneOp {
            opcode: OneOpOpcode::Call,
            width: Width::Word,
            operand: Operand::Immediate(0xF000),
        };
        assert!(call.is_call());
        assert!(!call.is_ret());

        let ret = Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Word,
            src: Operand::IndirectAutoInc(Reg::SP),
            dst: Operand::Register(Reg::PC),
        };
        assert!(ret.is_ret());
    }

    #[test]
    fn display_formats() {
        let mov = Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Byte,
            src: Operand::Indexed {
                reg: Reg::SP,
                offset: 2,
            },
            dst: Operand::Register(Reg::R6),
        };
        assert_eq!(mov.to_string(), "mov.b 2(r1), r6");

        let jmp = Instruction::Jump {
            condition: Condition::Jeq,
            offset: 3,
        };
        assert_eq!(jmp.to_string(), "jeq +8");
    }
}
