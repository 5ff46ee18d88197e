//! The per-step bus bound behind the inline access logs: no step fetches
//! more than [`MAX_FETCHES`] instruction words or makes more than
//! [`MAX_ACCESSES`] data reads or data writes.
//!
//! Every first instruction word `0x0000..=0xFFFF` runs once per
//! extension-word pattern on a fresh core, so every addressing mode of
//! every format meets register, immediate, RAM, peripheral and wrapping
//! operands; interrupt entry, the one step that writes twice, runs too.

use eilid_msp430::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_DIVIDER};
use eilid_msp430::{Cpu, Memory, Reg, StepEvent, StepTrace, MAX_ACCESSES, MAX_FETCHES};

const PC: u16 = 0xF000;
const HANDLER: u16 = 0xE100;

/// Extension words following the first word: small offsets/immediates,
/// RAM addresses, peripheral-page addresses, and odd/wrapping values.
const EXTENSIONS: [[u16; 2]; 4] = [
    [0x0002, 0x0004],
    [0x0200, 0x0210],
    [0x0100, 0x0104],
    [0xFFFF, 0xFFFE],
];

/// A core about to execute at [`PC`], registers pointing into RAM.
fn template() -> Cpu {
    let mut mem = Memory::new();
    mem.write_word(0xFFFE, PC);
    mem.write_word(0xFFF0, HANDLER); // timer vector (8)
    let mut cpu = Cpu::new(mem);
    cpu.reset();
    for index in 4..16u16 {
        let reg = Reg::from_index(index).expect("general register");
        cpu.regs.write(reg, 0x0200 + 0x10 * index);
    }
    cpu
}

/// Running maxima over every step checked.
#[derive(Default)]
struct Maxima {
    fetches: usize,
    reads: usize,
    writes: usize,
}

impl Maxima {
    fn record(&mut self, trace: &StepTrace, case: &str) {
        let fetches = trace.fetch_addresses().len();
        assert!(fetches <= MAX_FETCHES, "{case}: {fetches} fetches");
        assert!(trace.reads.len() <= MAX_ACCESSES, "{case}: reads");
        assert!(trace.writes.len() <= MAX_ACCESSES, "{case}: writes");
        self.fetches = self.fetches.max(fetches);
        self.reads = self.reads.max(trace.reads.len());
        self.writes = self.writes.max(trace.writes.len());
    }
}

#[test]
fn every_instruction_word_stays_within_the_bus_bound() {
    let template = template();
    let mut maxima = Maxima::default();
    let mut executed = 0u32;
    for first in 0..=u16::MAX {
        for ext in EXTENSIONS {
            let mut cpu = template.clone();
            cpu.memory.write_word(PC, first);
            cpu.memory.write_word(PC + 2, ext[0]);
            cpu.memory.write_word(PC + 4, ext[1]);
            // Undecodable words are a step error, not a bus transaction.
            let Ok(trace) = cpu.step() else { continue };
            assert_eq!(trace.event, StepEvent::Executed);
            maxima.record(&trace, &format!("{first:#06x} {ext:04x?}"));
            executed += 1;
        }
    }
    // Every legal encoding ran: 8192 jumps, 12 × 4096 format-I words and
    // 7 × 128 format-II words. The bound is tight on every axis an
    // instruction reaches (an instruction writes at most once).
    assert_eq!(executed, 4 * (8192 + 12 * 4096 + 7 * 128));
    assert_eq!(maxima.fetches, MAX_FETCHES);
    assert_eq!(maxima.reads, MAX_ACCESSES);
    assert_eq!(maxima.writes, 1);
}

#[test]
fn interrupt_entry_stays_within_the_bus_bound() {
    let mut cpu = template();
    cpu.memory.write_word(PC, 0x4303); // nop
    cpu.peripherals.write(TIMER_COMPARE, 1);
    cpu.peripherals.write(TIMER_CTL, 0b11); // run + interrupt enable
    cpu.peripherals.tick(TIMER_DIVIDER);
    assert!(cpu.peripherals.irq_pending().is_some());
    cpu.regs.set_sr(0x0008); // GIE

    let trace = cpu.step().expect("interrupt entry");
    assert!(trace.interrupt_taken());
    assert_eq!(trace.next_pc, HANDLER);
    let mut maxima = Maxima::default();
    maxima.record(&trace, "interrupt entry");
    // PC and SR pushed, the vector read; nothing fetched.
    assert_eq!(
        (maxima.fetches, maxima.reads, maxima.writes),
        (0, 1, MAX_ACCESSES)
    );
}
