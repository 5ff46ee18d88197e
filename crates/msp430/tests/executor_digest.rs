//! Executor oracle: every first instruction word `0x0000..=0xFFFF`,
//! stepped [`VARIANTS`] times, each time once on a fresh core whose
//! extension words, registers, flags and RAM are drawn from a fixed
//! seed, folded into one pinned digest per opcode.
//!
//! The first word fixes the format, opcode, width, both addressing
//! modes and both registers, so the sweep meets every opcode × width ×
//! source class × destination class, byte operations, constant
//! generators, `r0`–`r3` as destinations and every illegal word. Each
//! case steps twice, on a plain core and on a core that predecoded the
//! case's words: both must agree on the trace, the registers, the state
//! and what memory holds at every written address, and the digest folds
//! the plain core's result. A code write is vetoed by a write gate over
//! the code page, as on a protected device.
//!
//! A change to the executor that alters any of that for any word fails
//! its opcode's digest.

use eilid_msp430::{
    AccessKind, Cpu, CpuState, MemAccess, Memory, Reg, StepError, StepEvent, StepTrace, Width,
    WriteGate,
};

/// Where each case's instruction sits (inside the gated code page).
const PC: u16 = 0xF000;
/// The seed of every drawn operand.
const SEED: u64 = 0x4549_4c49_445f_4558;
/// Cases per first word, each with freshly drawn operands.
const VARIANTS: u16 = 4;

/// Pinned digests, one per opcode (the family of every first word),
/// in the order the sweep first meets them. The `rrc`, `swpb`, `rra`
/// and `sxt` digests were re-pinned once, when an immediate operand
/// (`#N`) of theirs stopped reading and rewriting address 0: `@pc+`
/// now reads and writes back its own extension word, and a
/// constant-generator operand drops the result.
const GOLDEN: &[(&str, u64)] = &[
    ("illegal", 0x9add5651c9aae678),
    ("rrc", 0x6e3b8e8ce650d2b6),
    ("swpb", 0x8bbe388dac86202c),
    ("rra", 0x5c6d6cd5b3bb7b23),
    ("sxt", 0x89c59d08d0dabe21),
    ("push", 0x8a8d619052e5e754),
    ("call", 0x3f29c54f892811af),
    ("reti", 0x633494fd0372b3a8),
    ("jump", 0x3b2da7c635dccbea),
    ("mov", 0xa1fd53bb0a093cee),
    ("add", 0x571bd03f8c78c7af),
    ("addc", 0x6cfdf968dbaf1476),
    ("subc", 0x823e7e296ff87701),
    ("sub", 0xf0a90a31be5b7a61),
    ("cmp", 0xa013f85ccd4aeb04),
    ("dadd", 0x1f8731ddf9e85292),
    ("bit", 0xd2ed94062f5d0a03),
    ("bic", 0x6b08948ee975fc0c),
    ("bis", 0x79aca185e3bb8a70),
    ("xor", 0xeb2524b2cb2e19b1),
    ("and", 0x1d26f812dd4c5eff),
];

/// SplitMix64.
struct Rng(u64);

impl Rng {
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

    /// An operand value: mostly a RAM address, else a peripheral
    /// address, a small constant or any word (odd and wrapping ones
    /// included).
    fn operand(&mut self) -> u16 {
        match self.below(8) {
            0..=3 => 0x0200 + self.below(0x200) as u16,
            4 => 0x0100 + self.below(0x60) as u16,
            5 => self.below(16) as u16,
            _ => self.next() as u16,
        }
    }
}

/// 64-bit FNV-1a over the little-endian bytes of each folded value.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn accesses(&mut self, accesses: &[MemAccess]) {
        self.u64(accesses.len() as u64);
        for a in accesses {
            self.u16(a.addr);
            self.u16(a.value);
            self.u16(match a.width {
                Width::Byte => 1,
                Width::Word => 2,
            });
            self.u16(match a.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            });
        }
    }

    fn trace(&mut self, trace: &StepTrace) {
        self.u16(trace.pc);
        self.u16(trace.next_pc);
        match trace.event {
            StepEvent::Executed => self.u16(0),
            StepEvent::InterruptTaken { vector } => {
                self.u16(1);
                self.u16(u16::from(vector));
            }
            StepEvent::Idle => self.u16(2),
            StepEvent::DecodeFault { word } => {
                self.u16(3);
                self.u16(word);
            }
        }
        self.u16(trace.instruction_size);
        self.accesses(&trace.reads);
        self.accesses(&trace.writes);
        self.u64(trace.cycles);
        self.u64(trace.total_cycles);
    }
}

/// What one step leaves observable: its result, the registers, the
/// core's state and vetoed-write count, and the word memory holds at
/// each written address.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<StepTrace, StepError>,
    regs: [u16; 16],
    low_power: bool,
    vetoed: u64,
    written: Vec<u16>,
}

fn step(cpu: &mut Cpu) -> Outcome {
    let result = cpu.step().copied();
    let written = result
        .as_ref()
        .map(|trace| {
            trace
                .writes
                .iter()
                .map(|w| cpu.memory.read_word(w.addr))
                .collect()
        })
        .unwrap_or_default();
    Outcome {
        result,
        regs: Reg::ALL.map(|reg| cpu.regs.read(reg)),
        low_power: cpu.state() == CpuState::LowPower,
        vetoed: cpu.vetoed_writes(),
        written,
    }
}

impl Digest {
    fn outcome(&mut self, outcome: &Outcome) {
        match &outcome.result {
            Ok(trace) => {
                self.u16(0);
                self.trace(trace);
            }
            Err(err) => {
                self.u16(1);
                self.u16(err.address);
                self.u16(err.word);
            }
        }
        for reg in outcome.regs {
            self.u16(reg);
        }
        self.u16(u16::from(outcome.low_power));
        self.u64(outcome.vetoed);
        for &word in &outcome.written {
            self.u16(word);
        }
    }
}

/// The opcode family of a first word, as the digest table names it.
fn family(word: u16) -> &'static str {
    const TWO_OP: [&str; 12] = [
        "mov", "add", "addc", "subc", "sub", "cmp", "dadd", "bit", "bic", "bis", "xor", "and",
    ];
    const ONE_OP: [&str; 8] = [
        "rrc", "swpb", "rra", "sxt", "push", "call", "reti", "illegal",
    ];
    match word >> 12 {
        0x4..=0xF => TWO_OP[usize::from(word >> 12) - 4],
        0x2 | 0x3 => "jump",
        0x1 if word & 0x0C00 == 0 => ONE_OP[usize::from((word >> 7) & 0b111)],
        _ => "illegal",
    }
}

/// A core about to execute at [`PC`] with seeded RAM, a gate over the
/// code page and the reset vector pointing at `PC`.
fn template(rng: &mut Rng) -> Cpu {
    let mut memory = Memory::new();
    for addr in (0x0200..0x0400).step_by(2) {
        memory.write_word(addr, rng.next() as u16);
    }
    memory.write_word(0xFFFE, PC);
    let mut cpu = Cpu::new(memory);
    cpu.reset();
    let mut gate = WriteGate::new();
    gate.protect(0xE000, 0xFFFF);
    cpu.set_write_gate(Some(gate));
    cpu
}

/// The plain core of case `first`: its words at [`PC`] and seeded
/// registers and flags.
fn case(template: &Cpu, first: u16, rng: &mut Rng) -> Cpu {
    let mut cpu = template.clone();
    cpu.memory.write_word(PC, first);
    cpu.memory.write_word(PC + 2, rng.operand());
    cpu.memory.write_word(PC + 4, rng.operand());
    for reg in &Reg::ALL[3..] {
        cpu.regs.write(*reg, rng.operand());
    }
    // SP in RAM, even or odd; SR with random C, Z, N and V only,
    // so the core never sleeps or takes an interrupt.
    cpu.regs.set_sp(0x0300 + rng.below(0x100) as u16);
    cpu.regs.set_sr(rng.next() as u16 & 0x0107);
    cpu
}

fn digests() -> Vec<(&'static str, u64)> {
    let mut rng = Rng(SEED);
    let template = template(&mut rng);
    let mut digests: Vec<(&'static str, Digest)> = Vec::new();
    for (first, variant) in (0..=u16::MAX).flat_map(|first| (0..VARIANTS).map(move |v| (first, v)))
    {
        let mut plain = case(&template, first, &mut rng);
        let mut predecoded = plain.clone();
        predecoded.predecode(std::iter::once(usize::from(PC)..usize::from(PC) + 6));
        let expected = step(&mut plain);
        assert_eq!(
            step(&mut predecoded),
            expected,
            "{first:#06x} (variant {variant}): predecoded core"
        );
        let name = family(first);
        let index = match digests.iter().position(|(n, _)| *n == name) {
            Some(index) => index,
            None => {
                digests.push((name, Digest::new()));
                digests.len() - 1
            }
        };
        let digest = &mut digests[index].1;
        digest.u16(first);
        digest.outcome(&expected);
    }
    digests
        .into_iter()
        .map(|(name, digest)| (name, digest.0))
        .collect()
}

#[test]
fn every_instruction_word_executes_as_pinned() {
    let got = digests();
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(got, GOLDEN, "re-pin only a deliberate change of behaviour");
}
