//! Instruction execution semantics.
//!
//! [`lower`] turns a decoded [`Instruction`] into an [`Op`]: a handler
//! chosen once for its opcode, width and operand modes, and its operands
//! resolved once (PC-relative and extension-word addresses,
//! autoincrement steps, jump targets). [`execute`] dispatches once per
//! step, on that handler, whose body the compiler specialised for all
//! of them, flag arithmetic included. The core's decode table stores
//! lowered ops, and a table miss lowers the freshly decoded instruction,
//! so hits and misses run the same executor.
//!
//! Handlers operate on a [`Cpu`](crate::cpu::Cpu) through its bus
//! helpers so that every data access is recorded for the hardware monitor.

use crate::cpu::Cpu;
use crate::cycles::cycle_count;
use crate::flags::{
    self, AluResult, Bits, Width, ARITHMETIC_FLAGS, SR_C, SR_N, SR_V, SR_Z, W16, W8,
};
use crate::instruction::{Condition, Instruction, OneOpOpcode, Operand, TwoOpOpcode};
use crate::registers::Reg;

/// The work of one lowered instruction: one function per opcode, width
/// and operand modes.
type Handler = fn(&mut Cpu, Operands);

/// Operands resolved at lowering. What a field holds depends on its
/// side's mode: a register, and a constant, an address, an index offset
/// or an autoincrement step (see [`mode`]).
#[derive(Clone, Copy)]
pub(crate) struct Operands {
    src_reg: Reg,
    src: u16,
    dst_reg: Reg,
    dst: u16,
}

/// An instruction lowered for execution: its handler and operands, and
/// its encoded size and cycle count.
#[derive(Clone, Copy)]
pub(crate) struct Op {
    run: Handler,
    operands: Operands,
    size: u8,
    cycles: u8,
}

impl Op {
    /// Encoded size in bytes.
    #[inline]
    pub(crate) fn size(&self) -> u16 {
        u16::from(self.size)
    }

    /// Clock cycles the instruction takes.
    #[inline]
    pub(crate) fn cycles(&self) -> u64 {
        u64::from(self.cycles)
    }
}

/// Executes a lowered instruction.
///
/// The caller must already have advanced the program counter past the
/// instruction (register reads of `r0` observe the address of the *next*
/// instruction, matching the hardware's fetch pipeline).
#[inline]
pub(crate) fn execute(cpu: &mut Cpu, op: &Op) {
    (op.run)(cpu, op.operands);
}

/// Lowers `instruction`, decoded at `pc` from `size` bytes.
///
/// A single-operand `rrc`, `rra`, `swpb` or `sxt` writes its result
/// back to its operand. An immediate operand (`@pc+`) is the
/// instruction's own extension word, read and written back at `pc + 2`
/// like any memory operand; a constant-generator operand has no word
/// to write back, so the result is dropped.
///
/// # Panics
///
/// Panics on a format-I destination the decoder never yields
/// (`@Rn`, `@Rn+` or an immediate: format I has no encoding for them).
pub(crate) fn lower(instruction: &Instruction, pc: u16, size: u16) -> Op {
    let next = pc.wrapping_add(size);
    let mut operands = Operands {
        src_reg: Reg::CG,
        src: 0,
        dst_reg: Reg::CG,
        dst: 0,
    };
    let run = match *instruction {
        Instruction::Jump { condition, offset } => {
            operands.dst = next.wrapping_add((offset as u16).wrapping_mul(2));
            jump_handler(condition)
        }
        Instruction::TwoOp {
            opcode,
            width,
            src,
            dst,
        } => {
            let src = operands.source(src, width, next);
            let dst = operands.destination(dst, width, next);
            assert!(
                matches!(dst, Mode::Register | Mode::Indexed | Mode::Absolute),
                "format I encodes no {dst:?} destination"
            );
            two_op_handler(opcode, width, src, dst)
        }
        Instruction::OneOp {
            opcode,
            width,
            operand,
        } => {
            // Read-modify-write operations on their own extension word
            // write back to it; on a constant, to nothing.
            let in_place =
                |operands: &mut Operands, width| match operands.destination(operand, width, next) {
                    Mode::Constant if size > 2 => {
                        operands.dst = pc.wrapping_add(2);
                        Mode::Absolute
                    }
                    mode => mode,
                };
            match opcode {
                OneOpOpcode::Push => push_handler(width, operands.source(operand, width, next)),
                OneOpOpcode::Call => call_handler(operands.source(operand, Width::Word, next)),
                OneOpOpcode::Reti => reti,
                OneOpOpcode::Rrc | OneOpOpcode::Rra => {
                    let mode = in_place(&mut operands, width);
                    rotate_handler(opcode, width, mode)
                }
                OneOpOpcode::Swpb => swpb_handler(in_place(&mut operands, Width::Word)),
                OneOpOpcode::Sxt => sxt_handler(in_place(&mut operands, Width::Word)),
            }
        }
    };
    Op {
        run,
        operands,
        size: size as u8,
        cycles: cycle_count(instruction) as u8,
    }
}

/// The mode of an operand, chosen at lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Register,
    Constant,
    Indexed,
    Absolute,
    Indirect,
    AutoInc,
}

/// The mode of `operand` of an instruction ending at `next`, its
/// register and its value field.
fn resolve(operand: Operand, width: Width, next: u16) -> (Mode, Reg, u16) {
    match operand {
        Operand::Register(reg) => (Mode::Register, reg, 0),
        Operand::Immediate(value) => (Mode::Constant, Reg::CG, value),
        Operand::Indexed { reg, offset } => (Mode::Indexed, reg, offset as u16),
        Operand::Absolute(addr) => (Mode::Absolute, Reg::CG, addr),
        // The decoder resolves symbolic operands; a raw one is relative
        // to the next instruction.
        Operand::Symbolic { offset } => (Mode::Absolute, Reg::CG, next.wrapping_add(offset as u16)),
        Operand::Indirect(reg) => (Mode::Indirect, reg, 0),
        // SP and PC always advance by a full word, even for byte
        // accesses.
        Operand::IndirectAutoInc(reg) => {
            let step = if matches!(reg, Reg::SP | Reg::PC) {
                2
            } else {
                width.bytes()
            };
            (Mode::AutoInc, reg, step)
        }
    }
}

impl Operands {
    fn source(&mut self, operand: Operand, width: Width, next: u16) -> Mode {
        let (mode, reg, value) = resolve(operand, width, next);
        self.src_reg = reg;
        self.src = value;
        mode
    }

    fn destination(&mut self, operand: Operand, width: Width, next: u16) -> Mode {
        let (mode, reg, value) = resolve(operand, width, next);
        self.dst_reg = reg;
        self.dst = value;
        mode
    }
}

/// Operand modes as types, so that each handler is compiled for its
/// modes. A mode loads a source from the `src` fields of [`Operands`]
/// and resolves a destination from the `dst` fields.
mod mode {
    /// `Rn`.
    pub(super) struct Register;
    /// `#N`, from an extension word or a constant generator.
    pub(super) struct Constant;
    /// `X(Rn)`.
    pub(super) struct Indexed;
    /// `&addr`, and a symbolic operand resolved to its address.
    pub(super) struct Absolute;
    /// `@Rn`.
    pub(super) struct Indirect;
    /// `@Rn+`.
    pub(super) struct AutoInc;
}

/// How a mode reads a source operand.
trait Source {
    fn load<B: Bits>(cpu: &mut Cpu, operands: Operands) -> u16;
}

/// How a mode resolves a destination operand to where it lives.
trait Destination {
    type Place: Place;
    fn resolve(cpu: &mut Cpu, operands: Operands) -> Self::Place;
}

/// Where a destination operand lives: read it, write it back.
trait Place: Copy {
    fn read<B: Bits>(self, cpu: &mut Cpu) -> u16;
    fn write<B: Bits>(self, cpu: &mut Cpu, value: u16);
}

impl Place for Reg {
    #[inline(always)]
    fn read<B: Bits>(self, cpu: &mut Cpu) -> u16 {
        cpu.regs.read(self) & B::MASK
    }

    /// Byte operations clear the upper byte of the register.
    #[inline(always)]
    fn write<B: Bits>(self, cpu: &mut Cpu, value: u16) {
        cpu.regs.write(self, value & B::MASK);
    }
}

/// A data address.
#[derive(Clone, Copy)]
struct Address(u16);

impl Place for Address {
    #[inline(always)]
    fn read<B: Bits>(self, cpu: &mut Cpu) -> u16 {
        cpu.bus_read(self.0, B::WIDTH)
    }

    #[inline(always)]
    fn write<B: Bits>(self, cpu: &mut Cpu, value: u16) {
        cpu.bus_write(self.0, value & B::MASK, B::WIDTH);
    }
}

/// A constant-generator operand: reads as its constant, drops writes.
#[derive(Clone, Copy)]
struct Constant(u16);

impl Place for Constant {
    #[inline(always)]
    fn read<B: Bits>(self, _cpu: &mut Cpu) -> u16 {
        self.0 & B::MASK
    }

    #[inline(always)]
    fn write<B: Bits>(self, _cpu: &mut Cpu, _value: u16) {}
}

/// Advances `reg` by `step` and returns the address it held.
#[inline(always)]
fn post_increment(cpu: &mut Cpu, reg: Reg, step: u16) -> u16 {
    let addr = cpu.regs.read(reg);
    cpu.regs.write(reg, addr.wrapping_add(step));
    addr
}

impl Source for mode::Register {
    #[inline(always)]
    fn load<B: Bits>(cpu: &mut Cpu, operands: Operands) -> u16 {
        operands.src_reg.read::<B>(cpu)
    }
}

impl Destination for mode::Register {
    type Place = Reg;
    #[inline(always)]
    fn resolve(_cpu: &mut Cpu, operands: Operands) -> Reg {
        operands.dst_reg
    }
}

impl Source for mode::Constant {
    #[inline(always)]
    fn load<B: Bits>(_cpu: &mut Cpu, operands: Operands) -> u16 {
        operands.src & B::MASK
    }
}

impl Destination for mode::Constant {
    type Place = Constant;
    #[inline(always)]
    fn resolve(_cpu: &mut Cpu, operands: Operands) -> Constant {
        Constant(operands.dst)
    }
}

impl Source for mode::Indexed {
    #[inline(always)]
    fn load<B: Bits>(cpu: &mut Cpu, operands: Operands) -> u16 {
        let addr = cpu.regs.read(operands.src_reg).wrapping_add(operands.src);
        Address(addr).read::<B>(cpu)
    }
}

impl Destination for mode::Indexed {
    type Place = Address;
    #[inline(always)]
    fn resolve(cpu: &mut Cpu, operands: Operands) -> Address {
        Address(cpu.regs.read(operands.dst_reg).wrapping_add(operands.dst))
    }
}

impl Source for mode::Absolute {
    #[inline(always)]
    fn load<B: Bits>(cpu: &mut Cpu, operands: Operands) -> u16 {
        Address(operands.src).read::<B>(cpu)
    }
}

impl Destination for mode::Absolute {
    type Place = Address;
    #[inline(always)]
    fn resolve(_cpu: &mut Cpu, operands: Operands) -> Address {
        Address(operands.dst)
    }
}

impl Source for mode::Indirect {
    #[inline(always)]
    fn load<B: Bits>(cpu: &mut Cpu, operands: Operands) -> u16 {
        let addr = cpu.regs.read(operands.src_reg);
        Address(addr).read::<B>(cpu)
    }
}

impl Destination for mode::Indirect {
    type Place = Address;
    #[inline(always)]
    fn resolve(cpu: &mut Cpu, operands: Operands) -> Address {
        Address(cpu.regs.read(operands.dst_reg))
    }
}

impl Source for mode::AutoInc {
    #[inline(always)]
    fn load<B: Bits>(cpu: &mut Cpu, operands: Operands) -> u16 {
        let addr = post_increment(cpu, operands.src_reg, operands.src);
        Address(addr).read::<B>(cpu)
    }
}

/// Only the single-operand RRC, RRA, SWPB and SXT address their operand
/// as `@Rn+`: they write the result back to the address read, and Rn
/// advances as for a source operand.
impl Destination for mode::AutoInc {
    type Place = Address;
    #[inline(always)]
    fn resolve(cpu: &mut Cpu, operands: Operands) -> Address {
        Address(post_increment(cpu, operands.dst_reg, operands.dst))
    }
}

/// Sets the carry, zero, negative and overflow flags from `result`.
#[inline(always)]
fn set_flags(cpu: &mut Cpu, result: AluResult) {
    let sr = cpu.regs.sr();
    cpu.regs
        .set_sr((sr & !ARITHMETIC_FLAGS) | result.flag_bits());
}

/// Picks the mode type for `$mode` as `$M` and evaluates `$handler`.
macro_rules! with_mode {
    ($mode:expr, $M:ident => $handler:expr) => {
        match $mode {
            Mode::Register => {
                type $M = mode::Register;
                $handler
            }
            Mode::Constant => {
                type $M = mode::Constant;
                $handler
            }
            Mode::Indexed => {
                type $M = mode::Indexed;
                $handler
            }
            Mode::Absolute => {
                type $M = mode::Absolute;
                $handler
            }
            Mode::Indirect => {
                type $M = mode::Indirect;
                $handler
            }
            Mode::AutoInc => {
                type $M = mode::AutoInc;
                $handler
            }
        }
    };
}

/// Picks the width type for `$width` as `$B` and evaluates `$handler`.
macro_rules! with_width {
    ($width:expr, $B:ident => $handler:expr) => {
        match $width {
            Width::Word => {
                type $B = W16;
                $handler
            }
            Width::Byte => {
                type $B = W8;
                $handler
            }
        }
    };
}

const MOV: u8 = TwoOpOpcode::Mov as u8;
const ADD: u8 = TwoOpOpcode::Add as u8;
const ADDC: u8 = TwoOpOpcode::Addc as u8;
const SUBC: u8 = TwoOpOpcode::Subc as u8;
const SUB: u8 = TwoOpOpcode::Sub as u8;
const CMP: u8 = TwoOpOpcode::Cmp as u8;
const DADD: u8 = TwoOpOpcode::Dadd as u8;
const BIT: u8 = TwoOpOpcode::Bit as u8;
const BIC: u8 = TwoOpOpcode::Bic as u8;
const BIS: u8 = TwoOpOpcode::Bis as u8;
const XOR: u8 = TwoOpOpcode::Xor as u8;
const AND: u8 = TwoOpOpcode::And as u8;

fn two_op_handler(opcode: TwoOpOpcode, width: Width, src: Mode, dst: Mode) -> Handler {
    fn select<const OP: u8>(width: Width, src: Mode, dst: Mode) -> Handler {
        with_width!(width, B => with_mode!(src, S => match dst {
            Mode::Register => two_op::<OP, B, S, mode::Register> as Handler,
            Mode::Indexed => two_op::<OP, B, S, mode::Indexed>,
            _ => two_op::<OP, B, S, mode::Absolute>,
        }))
    }
    match opcode {
        TwoOpOpcode::Mov => select::<MOV>(width, src, dst),
        TwoOpOpcode::Add => select::<ADD>(width, src, dst),
        TwoOpOpcode::Addc => select::<ADDC>(width, src, dst),
        TwoOpOpcode::Subc => select::<SUBC>(width, src, dst),
        TwoOpOpcode::Sub => select::<SUB>(width, src, dst),
        TwoOpOpcode::Cmp => select::<CMP>(width, src, dst),
        TwoOpOpcode::Dadd => select::<DADD>(width, src, dst),
        TwoOpOpcode::Bit => select::<BIT>(width, src, dst),
        TwoOpOpcode::Bic => select::<BIC>(width, src, dst),
        TwoOpOpcode::Bis => select::<BIS>(width, src, dst),
        TwoOpOpcode::Xor => select::<XOR>(width, src, dst),
        TwoOpOpcode::And => select::<AND>(width, src, dst),
    }
}

fn two_op<const OP: u8, B: Bits, S: Source, D: Destination>(cpu: &mut Cpu, operands: Operands) {
    let src = S::load::<B>(cpu, operands);
    let place = D::resolve(cpu, operands);
    match OP {
        MOV => place.write::<B>(cpu, src),
        BIC => {
            let dst = place.read::<B>(cpu);
            place.write::<B>(cpu, dst & !src);
        }
        BIS => {
            let dst = place.read::<B>(cpu);
            place.write::<B>(cpu, dst | src);
        }
        _ => {
            let dst = place.read::<B>(cpu);
            let carry = cpu.regs.sr() & SR_C != 0;
            let result = match OP {
                ADD => flags::add_as::<B>(src, dst, false),
                ADDC => flags::add_as::<B>(src, dst, carry),
                SUB | CMP => flags::sub_as::<B>(src, dst, true),
                SUBC => flags::sub_as::<B>(src, dst, carry),
                DADD => flags::dadd_as::<B>(src, dst, carry),
                BIT | AND => flags::logic_as::<B>(src & dst, false),
                // XOR overflows when both operands are negative.
                _ => flags::logic_as::<B>(src ^ dst, src & dst & B::SIGN != 0),
            };
            set_flags(cpu, result);
            if OP != CMP && OP != BIT {
                place.write::<B>(cpu, result.value);
            }
        }
    }
}

fn push_handler(width: Width, src: Mode) -> Handler {
    with_width!(width, B => with_mode!(src, S => push::<B, S> as Handler))
}

fn push<B: Bits, S: Source>(cpu: &mut Cpu, operands: Operands) {
    let value = S::load::<B>(cpu, operands);
    cpu.push_word(value);
}

fn call_handler(src: Mode) -> Handler {
    with_mode!(src, S => call::<S> as Handler)
}

fn call<S: Source>(cpu: &mut Cpu, operands: Operands) {
    let target = S::load::<W16>(cpu, operands);
    let return_address = cpu.regs.pc();
    cpu.push_word(return_address);
    cpu.regs.set_pc(target);
}

fn reti(cpu: &mut Cpu, _operands: Operands) {
    let sr = cpu.pop_word();
    cpu.regs.set_sr(sr);
    let pc = cpu.pop_word();
    cpu.regs.set_pc(pc);
}

const RRC: u8 = OneOpOpcode::Rrc as u8;
const RRA: u8 = OneOpOpcode::Rra as u8;

fn rotate_handler(opcode: OneOpOpcode, width: Width, operand: Mode) -> Handler {
    if opcode == OneOpOpcode::Rrc {
        with_width!(width, B => with_mode!(operand, D => rotate::<RRC, B, D> as Handler))
    } else {
        with_width!(width, B => with_mode!(operand, D => rotate::<RRA, B, D> as Handler))
    }
}

/// RRC shifts the carry in, RRA the sign bit.
fn rotate<const OP: u8, B: Bits, D: Destination>(cpu: &mut Cpu, operands: Operands) {
    let place = D::resolve(cpu, operands);
    let value = place.read::<B>(cpu);
    let high_bit = match OP {
        RRC if cpu.regs.sr() & SR_C != 0 => B::SIGN,
        RRC => 0,
        _ => value & B::SIGN,
    };
    let result = ((value >> 1) & !B::SIGN) | high_bit;
    set_flags(
        cpu,
        AluResult {
            value: result,
            carry: value & 1 != 0,
            zero: result == 0,
            negative: result & B::SIGN != 0,
            overflow: false,
        },
    );
    place.write::<B>(cpu, result);
}

fn swpb_handler(operand: Mode) -> Handler {
    with_mode!(operand, D => swpb::<D> as Handler)
}

fn swpb<D: Destination>(cpu: &mut Cpu, operands: Operands) {
    let place = D::resolve(cpu, operands);
    let value = place.read::<W16>(cpu);
    place.write::<W16>(cpu, value.rotate_left(8));
}

fn sxt_handler(operand: Mode) -> Handler {
    with_mode!(operand, D => sxt::<D> as Handler)
}

fn sxt<D: Destination>(cpu: &mut Cpu, operands: Operands) {
    let place = D::resolve(cpu, operands);
    let extended = place.read::<W16>(cpu) as u8 as i8 as u16;
    set_flags(
        cpu,
        AluResult {
            value: extended,
            carry: extended != 0,
            zero: extended == 0,
            negative: extended & 0x8000 != 0,
            overflow: false,
        },
    );
    place.write::<W16>(cpu, extended);
}

const JNE: u8 = Condition::Jne as u8;
const JEQ: u8 = Condition::Jeq as u8;
const JNC: u8 = Condition::Jnc as u8;
const JC: u8 = Condition::Jc as u8;
const JN: u8 = Condition::Jn as u8;
const JGE: u8 = Condition::Jge as u8;
const JL: u8 = Condition::Jl as u8;
const JMP: u8 = Condition::Jmp as u8;

fn jump_handler(condition: Condition) -> Handler {
    match condition {
        Condition::Jne => jump::<JNE>,
        Condition::Jeq => jump::<JEQ>,
        Condition::Jnc => jump::<JNC>,
        Condition::Jc => jump::<JC>,
        Condition::Jn => jump::<JN>,
        Condition::Jge => jump::<JGE>,
        Condition::Jl => jump::<JL>,
        Condition::Jmp => jump::<JMP>,
    }
}

/// A taken jump loads the target lowering computed from the encoded
/// offset, relative to the next instruction.
fn jump<const COND: u8>(cpu: &mut Cpu, operands: Operands) {
    let sr = cpu.regs.sr();
    let taken = match COND {
        JNE => sr & SR_Z == 0,
        JEQ => sr & SR_Z != 0,
        JNC => sr & SR_C == 0,
        JC => sr & SR_C != 0,
        JN => sr & SR_N != 0,
        JGE => (sr & SR_N != 0) == (sr & SR_V != 0),
        JL => (sr & SR_N != 0) != (sr & SR_V != 0),
        _ => true,
    };
    if taken {
        cpu.regs.set_pc(operands.dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{AccessKind, MemAccess};
    use crate::encoder::encode;
    use crate::memory::Memory;

    /// A core about to run `program` from 0xF000.
    fn cpu_with(program: &[Instruction]) -> Cpu {
        let mut mem = Memory::new();
        let mut addr = 0xF000u16;
        for word in program.iter().flat_map(|i| encode(i).expect("encodable")) {
            mem.write_word(addr, word);
            addr += 2;
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu
    }

    fn one_op(opcode: OneOpOpcode, width: Width, reg: Reg) -> Instruction {
        Instruction::OneOp {
            opcode,
            width,
            operand: Operand::IndirectAutoInc(reg),
        }
    }

    fn access(kind: AccessKind, addr: u16, value: u16, width: Width) -> MemAccess {
        MemAccess {
            addr,
            value,
            width,
            kind,
        }
    }

    /// Steps `opcode` on `@reg+` with `reg` at `addr`; checks that `reg`
    /// advanced by `increment` and that the step read `before` from
    /// `addr` and wrote `after` back there.
    fn check_autoinc(
        opcode: OneOpOpcode,
        width: Width,
        reg: Reg,
        (addr, increment): (u16, u16),
        (before, after): (u16, u16),
    ) {
        let mut cpu = cpu_with(&[one_op(opcode, width, reg)]);
        cpu.regs.write(reg, addr);
        match width {
            Width::Word => cpu.memory.write_word(addr, before),
            Width::Byte => cpu.memory.write_byte(addr, before as u8),
        }
        let trace = *cpu.step().expect("executes");
        let case = format!("{opcode:?} {width:?} @{reg:?}+");
        assert_eq!(cpu.regs.read(reg), addr + increment, "{case}: register");
        assert_eq!(
            &trace.reads[..],
            &[access(AccessKind::Read, addr, before, width)],
            "{case}: reads"
        );
        assert_eq!(
            &trace.writes[..],
            &[access(AccessKind::Write, addr, after, width)],
            "{case}: writes"
        );
    }

    #[test]
    fn rrc_autoinc_advances_and_writes_back_to_the_address_read() {
        // Carry is clear after reset, so RRC shifts in a zero.
        check_autoinc(
            OneOpOpcode::Rrc,
            Width::Word,
            Reg::R5,
            (0x0200, 2),
            (0x8003, 0x4001),
        );
        check_autoinc(
            OneOpOpcode::Rrc,
            Width::Byte,
            Reg::R5,
            (0x0201, 1),
            (0x83, 0x41),
        );
        check_autoinc(
            OneOpOpcode::Rrc,
            Width::Byte,
            Reg::SP,
            (0x03F0, 2),
            (0x02, 0x01),
        );
    }

    #[test]
    fn rra_autoinc_advances_and_writes_back_to_the_address_read() {
        check_autoinc(
            OneOpOpcode::Rra,
            Width::Word,
            Reg::R5,
            (0x0200, 2),
            (0x8004, 0xC002),
        );
        check_autoinc(
            OneOpOpcode::Rra,
            Width::Byte,
            Reg::R5,
            (0x0201, 1),
            (0x84, 0xC2),
        );
        check_autoinc(
            OneOpOpcode::Rra,
            Width::Word,
            Reg::SP,
            (0x03F0, 2),
            (0x0010, 0x0008),
        );
        check_autoinc(
            OneOpOpcode::Rra,
            Width::Byte,
            Reg::SP,
            (0x03F0, 2),
            (0x10, 0x08),
        );
    }

    #[test]
    fn swpb_autoinc_advances_and_writes_back_to_the_address_read() {
        check_autoinc(
            OneOpOpcode::Swpb,
            Width::Word,
            Reg::R5,
            (0x0200, 2),
            (0x1234, 0x3412),
        );
        check_autoinc(
            OneOpOpcode::Swpb,
            Width::Word,
            Reg::SP,
            (0x03F0, 2),
            (0xAB00, 0x00AB),
        );
    }

    #[test]
    fn sxt_autoinc_advances_and_writes_back_to_the_address_read() {
        check_autoinc(
            OneOpOpcode::Sxt,
            Width::Word,
            Reg::R5,
            (0x0200, 2),
            (0x0080, 0xFF80),
        );
        check_autoinc(
            OneOpOpcode::Sxt,
            Width::Word,
            Reg::SP,
            (0x03F0, 2),
            (0x127F, 0x007F),
        );
    }

    #[test]
    fn immediate_operand_writes_back_to_its_own_extension_word() {
        // rra #0x1234 at 0xF000: the operand is the word at 0xF002.
        for gated in [false, true] {
            let mut cpu = cpu_with(&[Instruction::OneOp {
                opcode: OneOpOpcode::Rra,
                width: Width::Word,
                operand: Operand::Immediate(0x1234),
            }]);
            cpu.memory.write_word(0x0000, 0xAAAA);
            if gated {
                let mut gate = crate::gate::WriteGate::new();
                gate.protect(0xF000, 0xF0FF);
                cpu.set_write_gate(Some(gate));
            }
            let trace = *cpu.step().expect("executes");
            assert_eq!(
                &trace.reads[..],
                &[access(AccessKind::Read, 0xF002, 0x1234, Width::Word)]
            );
            assert_eq!(
                &trace.writes[..],
                &[access(AccessKind::Write, 0xF002, 0x091A, Width::Word)]
            );
            let committed = if gated { 0x1234 } else { 0x091A };
            assert_eq!(cpu.memory.read_word(0xF002), committed, "gated: {gated}");
            assert_eq!(cpu.vetoed_writes(), u64::from(gated));
            assert_eq!(cpu.memory.read_word(0x0000), 0xAAAA);
        }
    }

    #[test]
    fn constant_generator_operand_drops_the_result() {
        // sxt #-1 (r3, As = 11): no word to read or write back; the
        // flags still follow the result.
        let mut cpu = cpu_with(&[Instruction::OneOp {
            opcode: OneOpOpcode::Sxt,
            width: Width::Word,
            operand: Operand::Immediate(0xFFFF),
        }]);
        cpu.memory.write_word(0x0000, 0xAAAA);
        let trace = *cpu.step().expect("executes");
        assert_eq!(trace.instruction_size, 2);
        assert!(trace.reads.is_empty() && trace.writes.is_empty());
        assert!(cpu.flags().negative() && cpu.flags().carry());
        assert_eq!(cpu.memory.read_word(0x0000), 0xAAAA);
    }

    #[test]
    fn autoinc_walks_one_word_per_single_operand_instruction() {
        // mov #0x0200, r5 ; rra @r5+ ; swpb @r5+ ; sxt @r5+
        let mut cpu = cpu_with(&[
            Instruction::TwoOp {
                opcode: TwoOpOpcode::Mov,
                width: Width::Word,
                src: Operand::Immediate(0x0200),
                dst: Operand::Register(Reg::R5),
            },
            one_op(OneOpOpcode::Rra, Width::Word, Reg::R5),
            one_op(OneOpOpcode::Swpb, Width::Word, Reg::R5),
            one_op(OneOpOpcode::Sxt, Width::Word, Reg::R5),
        ]);
        for (addr, value) in [(0x0200, 0x0004), (0x0202, 0x1234), (0x0204, 0x0080)] {
            cpu.memory.write_word(addr, value);
        }
        for _ in 0..4 {
            cpu.step().expect("executes");
        }
        assert_eq!(cpu.regs.read(Reg::R5), 0x0206);
        assert_eq!(cpu.memory.read_word(0x0200), 0x0002);
        assert_eq!(cpu.memory.read_word(0x0202), 0x3412);
        assert_eq!(cpu.memory.read_word(0x0204), 0xFF80);
    }
}
