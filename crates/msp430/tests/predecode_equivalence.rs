//! A predecoded core steps exactly like a plain one.
//!
//! [`Cpu::predecode`] caches the decoder's output for the loaded code and
//! uses an entry only while the words in memory still match it. This
//! property runs a predecoded core and a `Cpu::new` twin over random
//! legal programs and, at random steps, writes the same word into both
//! cores' code through `memory.write_word`: a same-size opcode swap, a
//! size-changing opcode, an illegal word or a changed extension word.
//! Every step must give an equal `StepTrace`, or an equal `StepError`.

use eilid_msp430::{
    encode, Condition, Cpu, Instruction, Memory, OneOpOpcode, Operand, Reg, TwoOpOpcode, Width,
};
use proptest::prelude::*;

/// Where the generated program is loaded (and the reset vector points).
const BASE: u16 = 0xF000;
/// Steps per case.
const STEPS: usize = 256;

fn arb_gp_reg() -> impl Strategy<Value = Reg> {
    (4u16..16).prop_map(|i| Reg::from_index(i).expect("in range"))
}

fn arb_src_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_gp_reg().prop_map(Operand::Register),
        (arb_gp_reg(), any::<i16>()).prop_map(|(reg, offset)| Operand::Indexed { reg, offset }),
        arb_gp_reg().prop_map(Operand::Indirect),
        arb_gp_reg().prop_map(Operand::IndirectAutoInc),
        any::<u16>().prop_map(Operand::Immediate),
        any::<u16>().prop_map(Operand::Absolute),
        any::<i16>().prop_map(|offset| Operand::Symbolic { offset }),
    ]
}

fn arb_dst_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_gp_reg().prop_map(Operand::Register),
        (arb_gp_reg(), any::<i16>()).prop_map(|(reg, offset)| Operand::Indexed { reg, offset }),
        any::<u16>().prop_map(Operand::Absolute),
        any::<i16>().prop_map(|offset| Operand::Symbolic { offset }),
    ]
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::Word), Just(Width::Byte)]
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (
            (0x4u16..=0xF).prop_map(|bits| TwoOpOpcode::from_encoding(bits).expect("format I")),
            arb_width(),
            arb_src_operand(),
            arb_dst_operand(),
        )
            .prop_map(|(opcode, width, src, dst)| Instruction::TwoOp {
                opcode,
                width,
                src,
                dst
            }),
        (
            (0u16..6).prop_map(|bits| OneOpOpcode::from_encoding(bits).expect("format II")),
            arb_src_operand(),
        )
            .prop_map(|(opcode, operand)| Instruction::OneOp {
                opcode,
                width: Width::Word,
                operand
            }),
        (
            (0u16..8).prop_map(|bits| Condition::from_encoding(bits).expect("3 bits")),
            -8i16..=8,
        )
            .prop_map(|(condition, offset)| Instruction::Jump { condition, offset }),
        // A branch anywhere near the program, often into the middle of
        // an instruction (the core forces the pc even).
        (BASE - 8..BASE + 0x100).prop_map(|target| Instruction::TwoOp {
            opcode: TwoOpOpcode::Mov,
            width: Width::Word,
            src: Operand::Immediate(target),
            dst: Operand::Register(Reg::PC),
        }),
    ]
}

/// SplitMix64: the mutation schedule, seeded from the case.
struct Schedule(u64);

impl Schedule {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The program's words at `BASE`, closed by a jump back to `BASE`, and
/// the address of each instruction.
fn assemble(program: &[Instruction]) -> (Vec<u16>, Vec<u16>) {
    let mut words = Vec::new();
    let mut starts = Vec::new();
    for instruction in program {
        starts.push(BASE + 2 * words.len() as u16);
        words.extend(encode(instruction).expect("generated instructions encode"));
    }
    starts.push(BASE + 2 * words.len() as u16);
    let back = -(words.len() as i16) - 1;
    words.extend(
        encode(&Instruction::Jump {
            condition: Condition::Jmp,
            offset: back,
        })
        .expect("the closing jump encodes"),
    );
    (words, starts)
}

/// One write into the code: `(address, word)`.
fn mutation(cpu: &Cpu, starts: &[u16], schedule: &mut Schedule) -> (u16, u16) {
    // Half the time the instruction about to run, else any instruction.
    let at = if schedule.below(2) == 0 {
        cpu.regs.pc()
    } else {
        starts[schedule.below(starts.len() as u64) as usize]
    };
    let word = cpu.memory.read_word(at);
    match schedule.below(4) {
        // Same size: another format-I opcode, jump condition or
        // format-II opcode over the same operand bits.
        0 => {
            let swapped = if word >> 12 >= 0x4 {
                (word & 0x0FFF) | ((0x4 + schedule.below(12) as u16) << 12)
            } else if word >> 13 == 0b001 {
                (word & !0x1C00) | ((schedule.below(8) as u16) << 10)
            } else {
                (word & !0x0380) | ((schedule.below(6) as u16) << 7)
            };
            (at, swapped)
        }
        // Size-changing: `mov #imm, r5` (two words) over a one-word
        // instruction, `mov r4, r5` (one word) over a longer one.
        1 => {
            let long = encode(&Instruction::TwoOp {
                opcode: TwoOpOpcode::Mov,
                width: Width::Word,
                src: Operand::Immediate(0x1234),
                dst: Operand::Register(Reg::R5),
            })
            .expect("encodes")[0];
            let short = 0x4405;
            let one_word = eilid_msp430::decode(&cpu.memory, at)
                .map(|decoded| decoded.size_bytes == 2)
                .unwrap_or(true);
            (at, if one_word { long } else { short })
        }
        // Illegal: format I's top nibble is 4..=F, so 0x0000..0x1000 is
        // no instruction.
        2 => (at, schedule.below(0x1000) as u16),
        // A changed extension word (or, after a one-word instruction,
        // the next instruction's first word).
        _ => (at.wrapping_add(2), schedule.next() as u16),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn predecoded_core_steps_like_a_plain_one(
        program in prop::collection::vec(arb_instruction(), 4..48),
        seed in any::<u64>(),
    ) {
        let (words, starts) = assemble(&program);
        let mut memory = Memory::new();
        for (index, word) in words.iter().enumerate() {
            memory.write_word(BASE + 2 * index as u16, *word);
        }
        memory.write_word(0xFFFE, BASE);
        let end = usize::from(BASE) + 2 * words.len();

        let mut plain = Cpu::new(memory.clone());
        let mut cached = Cpu::new(memory);
        cached.predecode(std::iter::once(usize::from(BASE)..end));
        plain.reset();
        cached.reset();

        let mut schedule = Schedule(seed);
        for step in 0..STEPS {
            if schedule.below(6) == 0 {
                let (addr, word) = mutation(&plain, &starts, &mut schedule);
                plain.memory.write_word(addr, word);
                cached.memory.write_word(addr, word);
            }
            let expected = plain.step().copied();
            let got = cached.step().copied();
            prop_assert_eq!(&got, &expected, "step {} of {:04x?}", step, words);
            prop_assert_eq!(&cached.regs, &plain.regs);
            if expected.is_err() {
                // Both cores stopped at the same undecodable word: go on
                // from a random instruction.
                let restart = starts[schedule.below(starts.len() as u64) as usize];
                plain.regs.set_pc(restart);
                cached.regs.set_pc(restart);
            }
        }
        prop_assert_eq!(cached.total_cycles(), plain.total_cycles());
        prop_assert!(cached.memory.slice(0..0x1_0000) == plain.memory.slice(0..0x1_0000));
    }
}
