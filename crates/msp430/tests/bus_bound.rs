//! The per-step bus bound behind the inline access logs: no step fetches
//! more than [`MAX_FETCHES`] instruction words or makes more than
//! [`MAX_ACCESSES`] data reads or data writes.
//!
//! Every first instruction word `0x0000..=0xFFFF` runs once per
//! extension-word pattern on a fresh core, so every addressing mode of
//! every format meets register, immediate, RAM, peripheral and wrapping
//! operands; interrupt entry, the one step that writes twice, runs too.
//!
//! After each of those steps the core steps one register-only
//! `mov r4, r5`, whose trace must hold no read or write: a step's trace
//! carries only that step's accesses, never a leftover of the one
//! before.

use eilid_msp430::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_DIVIDER};
use eilid_msp430::{Cpu, CpuState, Memory, Reg, StepEvent, StepTrace, MAX_ACCESSES, MAX_FETCHES};

const PC: u16 = 0xF000;
const HANDLER: u16 = 0xE100;
/// `mov r4, r5`: no data access, one word, one cycle.
const MOV_R4_R5: u16 = 0x4405;

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

/// Steps a `mov r4, r5` written at the core's pc and checks that its
/// trace describes that step alone. The step before may have set GIE or
/// CPUOFF; SR is cleared first, and a sleeping core is woken by a reset,
/// so the follow-up always executes.
fn assert_next_step_is_clean(cpu: &mut Cpu, case: &str) {
    cpu.regs.set_sr(0);
    if cpu.state() == CpuState::LowPower {
        cpu.reset();
    }
    let pc = cpu.regs.pc();
    cpu.memory.write_word(pc, MOV_R4_R5);
    let total_cycles = cpu.total_cycles();
    let trace = cpu.step().expect("mov r4, r5 executes");
    assert_eq!(trace.event, StepEvent::Executed, "{case}: follow-up event");
    assert_eq!(trace.pc, pc, "{case}: follow-up pc");
    assert_eq!(
        trace.next_pc,
        pc.wrapping_add(2),
        "{case}: follow-up next_pc"
    );
    assert_eq!(trace.instruction_size, 2, "{case}: follow-up size");
    assert_eq!(trace.cycles, 1, "{case}: follow-up cycles");
    assert_eq!(
        trace.total_cycles,
        total_cycles + 1,
        "{case}: follow-up total"
    );
    assert!(
        trace.reads.is_empty(),
        "{case}: stale reads {:?}",
        trace.reads
    );
    assert!(
        trace.writes.is_empty(),
        "{case}: stale writes {:?}",
        trace.writes
    );
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
            let case = format!("{first:#06x} {ext:04x?}");
            maxima.record(trace, &case);
            assert_next_step_is_clean(&mut cpu, &case);
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
    maxima.record(trace, "interrupt entry");
    // PC and SR pushed, the vector read; nothing fetched.
    assert_eq!(
        (maxima.fetches, maxima.reads, maxima.writes),
        (0, 1, MAX_ACCESSES)
    );
    assert_next_step_is_clean(&mut cpu, "interrupt entry");
}
