//! Instruction execution semantics.
//!
//! The executor operates on a [`Cpu`](crate::cpu::Cpu) through its bus
//! helpers so that every data access is recorded for the hardware monitor.

use crate::cpu::Cpu;
use crate::flags::{self, AluResult, StatusFlags, Width};
use crate::instruction::{Condition, Instruction, OneOpOpcode, Operand, TwoOpOpcode};
use crate::registers::Reg;

/// Executes a decoded instruction.
///
/// The caller must already have advanced the program counter past the
/// instruction (register reads of `r0` observe the address of the *next*
/// instruction, matching the hardware's fetch pipeline).
pub(crate) fn execute(cpu: &mut Cpu, instruction: &Instruction) {
    match instruction {
        Instruction::Jump { condition, offset } => execute_jump(cpu, *condition, *offset),
        Instruction::OneOp {
            opcode,
            width,
            operand,
        } => execute_one_op(cpu, *opcode, *width, operand),
        Instruction::TwoOp {
            opcode,
            width,
            src,
            dst,
        } => execute_two_op(cpu, *opcode, *width, src, dst),
    }
}

/// Location a destination operand resolves to.
enum Place {
    Register(Reg),
    Memory(u16),
}

fn read_source(cpu: &mut Cpu, operand: &Operand, width: Width) -> u16 {
    match operand {
        Operand::Register(r) => truncate(cpu.regs.read(*r), width),
        Operand::Immediate(v) => truncate(*v, width),
        Operand::Indexed { reg, offset } => {
            let addr = cpu.regs.read(*reg).wrapping_add(*offset as u16);
            cpu.bus_read(addr, width)
        }
        Operand::Absolute(addr) => cpu.bus_read(*addr, width),
        Operand::Symbolic { offset } => {
            // The decoder normally resolves symbolic operands; treat a raw one
            // as PC-relative to the current (already advanced) PC.
            let addr = cpu.regs.pc().wrapping_add(*offset as u16);
            cpu.bus_read(addr, width)
        }
        Operand::Indirect(r) => {
            let addr = cpu.regs.read(*r);
            cpu.bus_read(addr, width)
        }
        Operand::IndirectAutoInc(r) => {
            let addr = post_increment(cpu, *r, width);
            cpu.bus_read(addr, width)
        }
    }
}

/// Advances `r` past an `@Rn+` access of `width` and returns the address
/// it held. SP and PC always advance by a full word, even for byte
/// accesses.
fn post_increment(cpu: &mut Cpu, r: Reg, width: Width) -> u16 {
    let addr = cpu.regs.read(r);
    let increment = if matches!(r, Reg::SP | Reg::PC) {
        2
    } else {
        width.bytes()
    };
    cpu.regs.write(r, addr.wrapping_add(increment));
    addr
}

fn resolve_destination(cpu: &mut Cpu, operand: &Operand, width: Width) -> Place {
    match operand {
        Operand::Register(r) => Place::Register(*r),
        Operand::Indexed { reg, offset } => {
            Place::Memory(cpu.regs.read(*reg).wrapping_add(*offset as u16))
        }
        Operand::Absolute(addr) => Place::Memory(*addr),
        Operand::Symbolic { offset } => Place::Memory(cpu.regs.pc().wrapping_add(*offset as u16)),
        // Only the single-operand RRC, RRA, SWPB and SXT address their
        // operand as `@Rn` or `@Rn+`: they write the result back to the
        // address read, and `@Rn+` advances Rn as a source operand does.
        Operand::Indirect(r) => Place::Memory(cpu.regs.read(*r)),
        Operand::IndirectAutoInc(r) => Place::Memory(post_increment(cpu, *r, width)),
        // Not a legal destination; resolve defensively so a malformed
        // program faults visibly instead of corrupting state.
        Operand::Immediate(_) => Place::Memory(0),
    }
}

fn read_place(cpu: &mut Cpu, place: &Place, width: Width) -> u16 {
    match place {
        Place::Register(r) => truncate(cpu.regs.read(*r), width),
        Place::Memory(addr) => cpu.bus_read(*addr, width),
    }
}

fn write_place(cpu: &mut Cpu, place: &Place, value: u16, width: Width) {
    match place {
        Place::Register(r) => {
            // Byte operations clear the upper byte of the destination register.
            cpu.regs.write(*r, truncate(value, width));
        }
        Place::Memory(addr) => cpu.bus_write(*addr, truncate(value, width), width),
    }
}

fn truncate(value: u16, width: Width) -> u16 {
    (u32::from(value) & width.mask()) as u16
}

fn flags_of(cpu: &Cpu) -> StatusFlags {
    StatusFlags::from_word(cpu.regs.sr())
}

fn store_flags(cpu: &mut Cpu, flags: StatusFlags) {
    cpu.regs.set_sr(flags.to_word());
}

fn execute_two_op(cpu: &mut Cpu, opcode: TwoOpOpcode, width: Width, src: &Operand, dst: &Operand) {
    let src_value = read_source(cpu, src, width);
    let place = resolve_destination(cpu, dst, width);
    let mut flags = flags_of(cpu);

    match opcode {
        TwoOpOpcode::Mov => {
            write_place(cpu, &place, src_value, width);
        }
        TwoOpOpcode::Add | TwoOpOpcode::Addc => {
            let dst_value = read_place(cpu, &place, width);
            let carry_in = opcode == TwoOpOpcode::Addc && flags.carry();
            let result = flags::add(src_value, dst_value, carry_in, width);
            result.apply(&mut flags);
            store_flags(cpu, flags);
            write_place(cpu, &place, result.value, width);
        }
        TwoOpOpcode::Sub | TwoOpOpcode::Subc | TwoOpOpcode::Cmp => {
            let dst_value = read_place(cpu, &place, width);
            let carry_in = if opcode == TwoOpOpcode::Subc {
                flags.carry()
            } else {
                true
            };
            let result = flags::sub(src_value, dst_value, carry_in, width);
            result.apply(&mut flags);
            store_flags(cpu, flags);
            if opcode != TwoOpOpcode::Cmp {
                write_place(cpu, &place, result.value, width);
            }
        }
        TwoOpOpcode::Dadd => {
            let dst_value = read_place(cpu, &place, width);
            let result = flags::dadd(src_value, dst_value, flags.carry(), width);
            result.apply(&mut flags);
            store_flags(cpu, flags);
            write_place(cpu, &place, result.value, width);
        }
        TwoOpOpcode::Bit | TwoOpOpcode::And => {
            let dst_value = read_place(cpu, &place, width);
            let value = src_value & dst_value;
            let result = flags::logic(value, width, false);
            result.apply(&mut flags);
            store_flags(cpu, flags);
            if opcode == TwoOpOpcode::And {
                write_place(cpu, &place, value, width);
            }
        }
        TwoOpOpcode::Xor => {
            let dst_value = read_place(cpu, &place, width);
            let value = src_value ^ dst_value;
            let sign = width.sign_bit() as u16;
            let overflow = (src_value & sign != 0) && (dst_value & sign != 0);
            let result = flags::logic(value, width, overflow);
            result.apply(&mut flags);
            store_flags(cpu, flags);
            write_place(cpu, &place, value, width);
        }
        TwoOpOpcode::Bic => {
            let dst_value = read_place(cpu, &place, width);
            write_place(cpu, &place, dst_value & !src_value, width);
        }
        TwoOpOpcode::Bis => {
            let dst_value = read_place(cpu, &place, width);
            write_place(cpu, &place, dst_value | src_value, width);
        }
    }
}

fn execute_one_op(cpu: &mut Cpu, opcode: OneOpOpcode, width: Width, operand: &Operand) {
    match opcode {
        OneOpOpcode::Call => {
            let target = read_source(cpu, operand, Width::Word);
            let return_address = cpu.regs.pc();
            cpu.push_word(return_address);
            cpu.regs.set_pc(target);
        }
        OneOpOpcode::Push => {
            let value = read_source(cpu, operand, width);
            cpu.push_word(value);
        }
        OneOpOpcode::Reti => {
            let sr = cpu.pop_word();
            cpu.regs.set_sr(sr);
            let pc = cpu.pop_word();
            cpu.regs.set_pc(pc);
        }
        OneOpOpcode::Rrc | OneOpOpcode::Rra => {
            let place = resolve_destination(cpu, operand, width);
            let value = read_place(cpu, &place, width);
            let mut flags = flags_of(cpu);
            let high_bit = match opcode {
                OneOpOpcode::Rrc => {
                    if flags.carry() {
                        width.sign_bit() as u16
                    } else {
                        0
                    }
                }
                _ => value & width.sign_bit() as u16,
            };
            let carry_out = value & 1 != 0;
            let result = ((value >> 1) & !(width.sign_bit() as u16)) | high_bit;
            let alu = AluResult {
                value: truncate(result, width),
                carry: carry_out,
                zero: truncate(result, width) == 0,
                negative: result & width.sign_bit() as u16 != 0,
                overflow: false,
            };
            alu.apply(&mut flags);
            store_flags(cpu, flags);
            write_place(cpu, &place, result, width);
        }
        OneOpOpcode::Swpb => {
            let place = resolve_destination(cpu, operand, Width::Word);
            let value = read_place(cpu, &place, Width::Word);
            let swapped = value.rotate_left(8);
            write_place(cpu, &place, swapped, Width::Word);
        }
        OneOpOpcode::Sxt => {
            let place = resolve_destination(cpu, operand, Width::Word);
            let value = read_place(cpu, &place, Width::Word) & 0x00FF;
            let extended = if value & 0x0080 != 0 {
                value | 0xFF00
            } else {
                value
            };
            let mut flags = flags_of(cpu);
            flags.set_zero(extended == 0);
            flags.set_negative(extended & 0x8000 != 0);
            flags.set_carry(extended != 0);
            flags.set_overflow(false);
            store_flags(cpu, flags);
            write_place(cpu, &place, extended, Width::Word);
        }
    }
}

fn execute_jump(cpu: &mut Cpu, condition: Condition, offset: i16) {
    let flags = flags_of(cpu);
    let taken = match condition {
        Condition::Jne => !flags.zero(),
        Condition::Jeq => flags.zero(),
        Condition::Jnc => !flags.carry(),
        Condition::Jc => flags.carry(),
        Condition::Jn => flags.negative(),
        Condition::Jge => flags.negative() == flags.overflow(),
        Condition::Jl => flags.negative() != flags.overflow(),
        Condition::Jmp => true,
    };
    if taken {
        // PC already points at the next instruction; the encoded offset is
        // relative to that address.
        let pc = cpu.regs.pc();
        cpu.regs
            .set_pc(pc.wrapping_add((offset as u16).wrapping_mul(2)));
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
