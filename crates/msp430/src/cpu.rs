//! The simulated CPU core.
//!
//! [`Cpu`] ties together the register file, the flat memory, the peripheral
//! page and the interrupt logic, and exposes a [`Cpu::step`] method that
//! executes one instruction (or accepts one interrupt) and reports the
//! observable bus activity as a [`StepTrace`]. External monitors — the CASU
//! hardware and the EILID extension — consume those traces to enforce their
//! policies, exactly as the real hardware taps the core's bus signals.
//!
//! A step allocates nothing and copies no trace: the core keeps one
//! [`StepTrace`] for the latest step and builds it in place. A step
//! clears its two inline [`AccessLog`]s, the core's bus helpers log every
//! data access straight into them, and the step's other fields are
//! written once at its end. [`Cpu::step`] lends the finished trace to the
//! caller, who copies it (it is `Copy`) only to keep it past the next
//! step.
//!
//! A step decodes nothing it decoded before, either. [`Cpu::predecode`]
//! decodes every even address of the loaded firmware once and lowers
//! each instruction into an execution-ready op (its handler, chosen for
//! its opcode, width and operand modes, and its resolved operands), into
//! a table that clones of the core share. A step finds its pc's entry
//! through an index over the build's code range and uses it only after
//! checking that the one to three words in memory still equal the words
//! the entry was decoded from (a verified hit); otherwise it decodes
//! from memory and lowers the result, as a core without a table does.
//! Either way the op runs through the same executor. A write to code,
//! whether a direct write, an attack, an OTA patch or self-modifying
//! code, therefore decodes exactly as before, and the table needs no
//! invalidation.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bus::{AccessKind, AccessLog, MemAccess, StepEvent, StepTrace};
use crate::cycles::INTERRUPT_CYCLES;
use crate::decoder::{decode_instruction, DecodeError, DecodeTable};
use crate::execute::{execute, lower, Op};
use crate::flags::{StatusFlags, Width};
use crate::gate::WriteGate;
use crate::memory::Memory;
use crate::peripherals::Peripherals;
use crate::registers::RegisterFile;

/// Stack pointer installed by [`Cpu::reset`]: the top of the default
/// data memory.
const INITIAL_SP: u16 = 0x0400;

/// Number of interrupt vectors in the vector table at `0xFFE0..=0xFFFF`.
pub const NUM_VECTORS: u8 = 16;

/// Execution state of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuState {
    /// Executing instructions normally.
    Running,
    /// Low-power mode (`CPUOFF` set); only interrupts resume execution.
    LowPower,
}

/// The simulated MSP430 core.
///
/// # Examples
///
/// Running a two-instruction program that loads a register and halts by
/// looping forever:
///
/// ```
/// use eilid_msp430::{Cpu, Memory, Reg};
///
/// let mut mem = Memory::new();
/// // mov #0x1234, r10 ; jmp $
/// mem.write_word(0xF000, 0x403A);
/// mem.write_word(0xF002, 0x1234);
/// mem.write_word(0xF004, 0x3FFF);
/// mem.write_word(0xFFFE, 0xF000); // reset vector
///
/// let mut cpu = Cpu::new(mem);
/// cpu.reset();
/// cpu.step().expect("mov executes");
/// assert_eq!(cpu.regs.read(Reg::R10), 0x1234);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cpu {
    /// Register file (public so monitors and tests can inspect it).
    pub regs: RegisterFile,
    /// Flat 64 KiB memory.
    pub memory: Memory,
    /// Memory-mapped peripherals.
    pub peripherals: Peripherals,
    state: CpuState,
    total_cycles: u64,
    irq_inhibited: bool,
    /// Pre-commit bus write gate installed by the hardware monitor;
    /// `None` for unprotected (baseline) cores.
    write_gate: Option<WriteGate>,
    /// Bus writes vetoed by the gate since construction.
    vetoed_writes: u64,
    /// The latest step's trace, built in place: the bus helpers log the
    /// step's data accesses into it as they happen.
    #[serde(skip, default = "empty_trace")]
    trace: StepTrace,
    /// The firmware's instructions decoded once ([`Cpu::predecode`]),
    /// shared by every clone.
    #[serde(skip)]
    table: Option<Arc<DecodeTable>>,
}

/// Error returned by [`Cpu::step`] when the instruction stream is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepError {
    /// Address of the undecodable word.
    pub address: u16,
    /// The undecodable word.
    pub word: u16,
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot decode instruction word {:#06x} at {:#06x}",
            self.word, self.address
        )
    }
}

impl std::error::Error for StepError {}

/// The trace a core holds before its first step.
fn empty_trace() -> StepTrace {
    StepTrace {
        pc: 0,
        next_pc: 0,
        event: StepEvent::Idle,
        instruction_size: 0,
        reads: AccessLog::new(),
        writes: AccessLog::new(),
        cycles: 0,
        total_cycles: 0,
    }
}

impl Cpu {
    /// Creates a core around a pre-loaded memory image.
    pub fn new(memory: Memory) -> Self {
        Cpu {
            regs: RegisterFile::new(),
            memory,
            peripherals: Peripherals::new(),
            state: CpuState::Running,
            total_cycles: 0,
            irq_inhibited: false,
            write_gate: None,
            vetoed_writes: 0,
            trace: empty_trace(),
            table: None,
        }
    }

    /// Decodes every even address of `spans` (byte ranges of the loaded
    /// firmware, such as its image segments) once, as memory holds them
    /// now, into a table this core and all its clones share.
    ///
    /// The table only saves work: a step uses an entry only while the
    /// words in memory still equal the ones it was decoded from, and
    /// decodes from memory otherwise, so a core with a table steps
    /// exactly like one without. Cover only the loaded code: each entry
    /// costs memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use eilid_msp430::{Cpu, Memory, Reg};
    ///
    /// let mut mem = Memory::new();
    /// mem.write_word(0xF000, 0x403A); // mov #0x1234, r10
    /// mem.write_word(0xF002, 0x1234);
    /// mem.write_word(0xFFFE, 0xF000);
    /// let mut cpu = Cpu::new(mem);
    /// cpu.predecode([0xF000..0xF004]);
    /// cpu.reset();
    /// cpu.memory.write_word(0xF002, 0x4321); // patch the immediate
    /// cpu.step()?;
    /// assert_eq!(cpu.regs.read(Reg::R10), 0x4321);
    /// # Ok::<(), eilid_msp430::StepError>(())
    /// ```
    pub fn predecode(&mut self, spans: impl IntoIterator<Item = Range<usize>>) {
        self.table = Some(Arc::new(DecodeTable::build(&self.memory, spans)));
    }

    /// Installs (or removes, with `None`) the pre-commit bus write gate.
    ///
    /// The CASU/EILID monitor builds the gate from its memory layout (see
    /// the companion crate); the core then vetoes any bus write the
    /// gate blocks *before* it commits to memory, exactly as the real
    /// hardware blocks the flash write in the violating cycle. The
    /// attempted write still appears in the [`StepTrace`], so monitors
    /// observe — and punish — the transaction as before.
    pub fn set_write_gate(&mut self, gate: Option<WriteGate>) {
        self.write_gate = gate;
    }

    /// The installed write gate, if any.
    pub fn write_gate(&self) -> Option<&WriteGate> {
        self.write_gate.as_ref()
    }

    /// Number of bus writes the gate has vetoed since construction.
    pub fn vetoed_writes(&self) -> u64 {
        self.vetoed_writes
    }

    /// Masks or unmasks the external interrupt request line.
    ///
    /// The CASU/EILID hardware gates interrupt delivery while trusted
    /// software executes in the secure ROM (this is how the atomicity of
    /// secure execution is preserved on the real core); the device layer
    /// drives this line from the current program counter's region. Pending
    /// peripheral interrupts stay pending and are delivered once the line is
    /// unmasked.
    pub fn set_irq_inhibited(&mut self, inhibited: bool) {
        self.irq_inhibited = inhibited;
    }

    /// `true` while the interrupt request line is masked.
    pub fn irq_inhibited(&self) -> bool {
        self.irq_inhibited
    }

    /// Performs a power-up/watchdog reset: clears registers, loads the PC
    /// from the reset vector and installs the initial stack pointer
    /// (0x0400).
    pub fn reset(&mut self) {
        self.regs = RegisterFile::new();
        self.regs.set_pc(self.memory.reset_vector());
        self.regs.set_sp(INITIAL_SP);
        self.state = CpuState::Running;
    }

    /// Total clock cycles consumed since construction.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Current execution state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Typed view of the status register.
    pub fn flags(&self) -> StatusFlags {
        StatusFlags::from_word(self.regs.sr())
    }

    pub(crate) fn bus_read(&mut self, addr: u16, width: Width) -> u16 {
        let value = if Peripherals::contains(addr) {
            let word = self.peripherals.read(addr);
            match width {
                Width::Word => word,
                Width::Byte => {
                    if addr & 1 == 0 {
                        word & 0xFF
                    } else {
                        word >> 8
                    }
                }
            }
        } else {
            match width {
                Width::Word => self.memory.read_word(addr),
                Width::Byte => u16::from(self.memory.read_byte(addr)),
            }
        };
        self.trace.reads.push(MemAccess {
            addr,
            value,
            width,
            kind: AccessKind::Read,
        });
        value
    }

    pub(crate) fn bus_write(&mut self, addr: u16, value: u16, width: Width) {
        if Peripherals::contains(addr) {
            self.peripherals.write(addr, value);
        } else if self.write_blocked(addr, width) {
            // Pre-commit veto: the store is observable on the bus (and
            // lands in the trace below, where the monitor will flag it)
            // but never reaches the memory array.
            self.vetoed_writes += 1;
        } else {
            match width {
                Width::Word => self.memory.write_word(addr, value),
                Width::Byte => self.memory.write_byte(addr, (value & 0xFF) as u8),
            }
        }
        self.trace.writes.push(MemAccess {
            addr,
            value,
            width,
            kind: AccessKind::Write,
        });
    }

    /// `true` when the installed gate vetoes a write of `width` at
    /// `addr` (any covered byte blocked blocks the whole access, like a
    /// bus-level abort of the transaction).
    fn write_blocked(&self, addr: u16, width: Width) -> bool {
        let Some(gate) = &self.write_gate else {
            return false;
        };
        match width {
            Width::Byte => gate.blocks(addr),
            Width::Word => {
                let aligned = addr & !1;
                gate.blocks(aligned) || gate.blocks(aligned.wrapping_add(1))
            }
        }
    }

    pub(crate) fn push_word(&mut self, value: u16) {
        let sp = self.regs.sp().wrapping_sub(2);
        self.regs.set_sp(sp);
        self.bus_write(sp, value, Width::Word);
    }

    pub(crate) fn pop_word(&mut self) -> u16 {
        let sp = self.regs.sp();
        let value = self.bus_read(sp, Width::Word);
        self.regs.set_sp(sp.wrapping_add(2));
        value
    }

    /// Executes one step: accepts a pending interrupt if possible, otherwise
    /// executes the instruction at the current program counter, and lends
    /// out the step's trace. The core rebuilds that trace in place on the
    /// next step; copy it (`*cpu.step()?`) to keep it.
    ///
    /// # Errors
    ///
    /// Returns [`StepError`] when the word at the program counter is not a
    /// valid instruction. The core is left unchanged in that case so a
    /// monitor can treat the fault as a violation.
    #[inline]
    pub fn step(&mut self) -> Result<&StepTrace, StepError> {
        let pc = self.regs.pc();
        self.trace.reads.clear();
        self.trace.writes.clear();

        // Interrupt acceptance: GIE must be set, the IRQ line must not be
        // gated by the hardware monitor, and a peripheral must be requesting
        // service.
        if self.flags().gie() && !self.irq_inhibited {
            if let Some(vector) = self.peripherals.irq_pending() {
                self.take_interrupt(pc, vector);
                return Ok(&self.trace);
            }
        }

        if self.state == CpuState::LowPower {
            // CPU is off; burn one cycle waiting for an interrupt.
            self.peripherals.tick(1);
            self.total_cycles += 1;
            self.finish(pc, StepEvent::Idle, 0, 1);
            return Ok(&self.trace);
        }

        let hit = self
            .table
            .as_deref()
            .and_then(|table| table.lookup(&self.memory, pc))
            .copied();
        match hit {
            Some(op) => self.execute_at(pc, op),
            None => {
                let (instruction, size) = decode_instruction(&self.memory, pc).map_err(
                    |DecodeError::IllegalOpcode { word, address }| StepError { address, word },
                )?;
                self.execute_at(pc, lower(&instruction, pc, size));
            }
        }
        Ok(&self.trace)
    }

    /// Executes `op`, the instruction at `pc`, and completes the step.
    /// Inlined into both arms of the lookup, so a table hit runs its
    /// entry's op as loaded, without first merging it with a miss's.
    #[inline(always)]
    fn execute_at(&mut self, pc: u16, op: Op) {
        // Advance the PC past the instruction before executing it, so that
        // `call` pushes the correct return address and PC-relative reads see
        // the next instruction's address.
        let size = op.size();
        self.regs.set_pc(pc.wrapping_add(size));
        execute(self, &op);

        // Entering low-power mode happens by setting CPUOFF in SR.
        self.state = if self.flags().cpu_off() {
            CpuState::LowPower
        } else {
            CpuState::Running
        };

        let cycles = op.cycles();
        self.total_cycles += cycles;
        self.peripherals.tick(cycles);

        self.finish(pc, StepEvent::Executed, size, cycles);
    }

    fn take_interrupt(&mut self, pc: u16, vector: u8) {
        // Hardware interrupt sequence: push PC, push SR, clear SR (which
        // clears GIE and wakes the CPU from low-power mode), load the vector.
        self.push_word(pc);
        self.push_word(self.regs.sr());
        self.regs.set_sr(0);
        let handler = self.memory.interrupt_vector(vector);
        // Reading the vector is a visible bus access.
        self.trace.reads.push(MemAccess {
            addr: crate::memory::IVT_BASE.wrapping_add(u16::from(vector) * 2),
            value: handler,
            width: Width::Word,
            kind: AccessKind::Read,
        });
        self.regs.set_pc(handler);
        self.state = CpuState::Running;

        self.total_cycles += INTERRUPT_CYCLES;
        self.peripherals.tick(INTERRUPT_CYCLES);

        self.finish(
            pc,
            StepEvent::InterruptTaken { vector },
            0,
            INTERRUPT_CYCLES,
        );
    }

    /// Completes the step's trace in place: everything but the data
    /// accesses, which the bus helpers logged as they happened, with the
    /// current PC as `next_pc`.
    #[inline]
    fn finish(&mut self, pc: u16, event: StepEvent, instruction_size: u16, cycles: u64) {
        let trace = &mut self.trace;
        trace.pc = pc;
        trace.next_pc = self.regs.pc();
        trace.event = event;
        trace.instruction_size = instruction_size;
        trace.cycles = cycles;
        trace.total_cycles = self.total_cycles;
    }

    /// Runs until the application signals completion through the simulation
    /// control register, an error occurs, or `max_cycles` elapse.
    ///
    /// Returns the number of cycles consumed.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from [`Cpu::step`].
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, StepError> {
        let start = self.total_cycles;
        while !self.peripherals.sim_done() && self.total_cycles - start < max_cycles {
            self.step()?;
        }
        Ok(self.total_cycles - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::decode;
    use crate::registers::Reg;

    /// Builds a CPU with `words` loaded at 0xF000 and the reset vector set.
    fn cpu_with_program(words: &[u16]) -> Cpu {
        let mut mem = Memory::new();
        for (i, w) in words.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu
    }

    #[test]
    fn reset_installs_vector_and_stack() {
        let cpu = cpu_with_program(&[0x4303]); // nop
        assert_eq!(cpu.regs.pc(), 0xF000);
        assert_eq!(cpu.regs.sp(), 0x0400);
    }

    #[test]
    fn mov_immediate_and_trace() {
        let mut cpu = cpu_with_program(&[0x403A, 0x1234]); // mov #0x1234, r10
        let trace = *cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0x1234);
        assert_eq!(trace.pc, 0xF000);
        assert_eq!(trace.next_pc, 0xF004);
        assert_eq!(
            trace.fetch_addresses().collect::<Vec<_>>(),
            vec![0xF000, 0xF002]
        );
        assert_eq!(trace.cycles, 2);
    }

    #[test]
    fn call_pushes_return_address() {
        // call #0xF100 at 0xF000 (4 bytes) => return address 0xF004.
        let mut cpu = cpu_with_program(&[0x12B0, 0xF100]);
        let trace = *cpu.step().unwrap();
        assert_eq!(cpu.regs.pc(), 0xF100);
        assert_eq!(cpu.regs.sp(), 0x03FE);
        assert_eq!(cpu.memory.read_word(0x03FE), 0xF004);
        assert!(trace
            .writes
            .iter()
            .any(|w| w.addr == 0x03FE && w.value == 0xF004));
        assert_eq!(trace.cycles, 5);
    }

    #[test]
    fn call_ret_roundtrip() {
        // 0xF000: call #0xF100
        // 0xF004: jmp $            (landing point)
        // 0xF100: ret
        let mut cpu = cpu_with_program(&[0x12B0, 0xF100, 0x3FFF]);
        cpu.memory.write_word(0xF100, 0x4130);
        cpu.step().unwrap(); // call
        let ret = decode(&cpu.memory, cpu.regs.pc()).unwrap().instruction;
        assert!(ret.is_ret());
        cpu.step().unwrap();
        assert_eq!(cpu.regs.pc(), 0xF004);
        assert_eq!(cpu.regs.sp(), 0x0400);
    }

    #[test]
    fn push_pop_roundtrip() {
        // mov #0xBEEF, r10 ; push r10 ; pop r11 (pop = mov @sp+, r11)
        let mut cpu = cpu_with_program(&[0x403A, 0xBEEF, 0x120A, 0x413B]);
        cpu.step().unwrap();
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0x03FE), 0xBEEF);
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R11), 0xBEEF);
        assert_eq!(cpu.regs.sp(), 0x0400);
    }

    #[test]
    fn conditional_jump_taken_and_not_taken() {
        // mov #1, r10 ; cmp #1, r10 ; jeq +1 ; mov #0, r11 ; mov #1, r12 ; jmp $
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x431A, // mov #1, r10
            0x931A, // cmp #1, r10
            0x2401, // jeq +1 word (skip next single-word instruction)
            0x430B, // mov #0, r11  (skipped)
            0x431C, // mov #1, r12
            0x3FFF, // jmp $
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        for _ in 0..4 {
            cpu.step().unwrap();
        }
        assert_eq!(cpu.regs.read(Reg::R11), 0, "jeq should skip the mov to r11");
        assert_eq!(cpu.regs.read(Reg::R12), 1);
    }

    #[test]
    fn arithmetic_flags_drive_branches() {
        // mov #5, r10 ; sub #5, r10 ; jz taken
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x403A, 0x0005, // mov #5, r10
            0x803A, 0x0005, // sub #5, r10
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu.step().unwrap();
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0);
        assert!(cpu.flags().zero());
        assert!(cpu.flags().carry());
    }

    #[test]
    fn peripheral_write_is_visible_in_trace() {
        // mov #0x00FF, &0x0100  (SIM_CTL done magic)
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![0x40B2, 0x00FF, 0x0100];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        let trace = *cpu.step().unwrap();
        assert!(cpu.peripherals.sim_done());
        assert!(trace.wrote_to(0x0100));
    }

    #[test]
    fn run_stops_on_sim_done() {
        // mov #0x00FF, &0x0100 ; jmp $
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![0x40B2, 0x00FF, 0x0100, 0x3FFF];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        let cycles = cpu.run(1_000).unwrap();
        assert!(cpu.peripherals.sim_done());
        assert!(cycles < 1_000);
    }

    #[test]
    fn run_times_out_on_infinite_loop() {
        let mut cpu = cpu_with_program(&[0x3FFF]); // jmp $
        let cycles = cpu.run(100).unwrap();
        assert!(cycles >= 100);
        assert!(!cpu.peripherals.sim_done());
    }

    #[test]
    fn interrupt_pushes_context_and_vectors() {
        use crate::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
        // Program: enable GIE, enable timer, loop. ISR at 0xE100: reti.
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x40B2,
            0x0002,
            TIMER_COMPARE, // mov #2, &TIMER_COMPARE
            0x40B2,
            0x0003,
            TIMER_CTL, // mov #3, &TIMER_CTL (enable + irq)
            0xD232,    // bis #8, sr (GIE) via constant generator
            0x3FFF,    // jmp $
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xE100, 0x1300); // reti
        mem.write_word(0xFFFE, 0xF000);
        mem.write_word(
            crate::memory::IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2,
            0xE100,
        );
        let mut cpu = Cpu::new(mem);
        cpu.reset();

        let mut took_interrupt = false;
        let mut returned = false;
        for _ in 0..200 {
            let next = decode(&cpu.memory, cpu.regs.pc()).map(|d| d.instruction);
            let trace = *cpu.step().unwrap();
            if trace.interrupt_taken() {
                took_interrupt = true;
                assert_eq!(cpu.regs.pc(), 0xE100);
                // PC and SR must have been pushed onto the main stack.
                assert_eq!(trace.writes.len(), 2);
            }
            if took_interrupt
                && trace.event == StepEvent::Executed
                && next.is_ok_and(|instr| instr.is_reti())
            {
                returned = true;
            }
            if returned {
                break;
            }
        }
        assert!(took_interrupt, "timer interrupt was never taken");
        assert!(returned, "ISR never returned");
        // After reti the CPU is back in the main loop with GIE restored.
        assert!(cpu.flags().gie());
    }

    #[test]
    fn low_power_mode_waits_for_interrupt() {
        use crate::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
        // enable timer/GIE then set CPUOFF; ISR clears CPUOFF on the stacked SR.
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x40B2,
            0x0002,
            TIMER_COMPARE,
            0x40B2,
            0x0003,
            TIMER_CTL,
            0xD232, // bis #8, sr (GIE)
            0xD132, // bis #16(=CPUOFF? constant gen can't do 16)
        ];
        // Replace the last word with an explicit immediate form: bis #0x0010, sr
        let mut words = program;
        words.pop();
        words.push(0xD032);
        words.push(0x0010);
        words.push(0x3FFF); // jmp $
        for (i, w) in words.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xE100, 0x1300); // reti
        mem.write_word(0xFFFE, 0xF000);
        mem.write_word(
            crate::memory::IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2,
            0xE100,
        );
        let mut cpu = Cpu::new(mem);
        cpu.reset();

        let mut saw_idle = false;
        let mut took_interrupt = false;
        for _ in 0..500 {
            let trace = *cpu.step().unwrap();
            if trace.event == StepEvent::Idle {
                saw_idle = true;
            }
            if trace.interrupt_taken() {
                took_interrupt = true;
                break;
            }
        }
        assert!(saw_idle, "CPU never entered low-power idle");
        assert!(took_interrupt, "interrupt never woke the CPU");
    }

    #[test]
    fn irq_inhibit_defers_interrupts() {
        use crate::peripherals::{TIMER_COMPARE, TIMER_CTL, TIMER_IRQ_VECTOR};
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![
            0x40B2,
            0x0001,
            TIMER_COMPARE,
            0x40B2,
            0x0003,
            TIMER_CTL,
            0xD232, // bis #8, sr (GIE)
            0x3FFF, // jmp $
        ];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xE100, 0x1300); // reti
        mem.write_word(0xFFFE, 0xF000);
        mem.write_word(
            crate::memory::IVT_BASE + u16::from(TIMER_IRQ_VECTOR) * 2,
            0xE100,
        );
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu.set_irq_inhibited(true);
        assert!(cpu.irq_inhibited());
        for _ in 0..100 {
            let trace = *cpu.step().unwrap();
            assert!(!trace.interrupt_taken(), "interrupt taken while inhibited");
        }
        // Unmasking delivers the pending interrupt promptly.
        cpu.set_irq_inhibited(false);
        let mut taken = false;
        for _ in 0..5 {
            if cpu.step().unwrap().interrupt_taken() {
                taken = true;
                break;
            }
        }
        assert!(taken, "pending interrupt not delivered after unmask");
    }

    #[test]
    fn write_gate_vetoes_before_commit_but_keeps_the_trace() {
        // mov #0x1234, &0xE010 (a protected store) then mov #0x5678, &0x0200.
        let mut cpu = cpu_with_program(&[0x40B2, 0x1234, 0xE010, 0x40B2, 0x5678, 0x0200]);
        cpu.memory.write_word(0xE010, 0xAAAA);
        let mut gate = crate::gate::WriteGate::new();
        gate.protect(0xE000, 0xF7FF);
        cpu.set_write_gate(Some(gate));

        let trace = *cpu.step().unwrap();
        // The attempted store is on the bus for the monitor to see...
        assert!(trace.wrote_to(0xE010));
        assert_eq!(trace.written_value(0xE010), Some(0x1234));
        // ...but never committed.
        assert_eq!(cpu.memory.read_word(0xE010), 0xAAAA);
        assert_eq!(cpu.vetoed_writes(), 1);

        // Unprotected stores still commit.
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0x0200), 0x5678);
        assert_eq!(cpu.vetoed_writes(), 1);
    }

    #[test]
    fn word_write_straddling_the_gate_boundary_is_vetoed() {
        // A word store whose low byte is unprotected but whose high byte
        // is protected must be vetoed whole (bus transactions are atomic).
        let mut cpu = cpu_with_program(&[0x40B2, 0xBEEF, 0xDFFE]);
        let mut gate = crate::gate::WriteGate::new();
        gate.protect(0xDFFF, 0xF7FF);
        cpu.set_write_gate(Some(gate));
        cpu.step().unwrap();
        assert_eq!(cpu.memory.read_word(0xDFFE), 0);
        assert_eq!(cpu.vetoed_writes(), 1);
    }

    #[test]
    fn step_error_on_illegal_instruction() {
        let mut cpu = cpu_with_program(&[0x0FFF]);
        let err = cpu.step().unwrap_err();
        assert_eq!(err.address, 0xF000);
        assert_eq!(err.word, 0x0FFF);
        assert!(err.to_string().contains("cannot decode"));
    }

    #[test]
    fn step_error_changes_nothing_and_the_next_trace_is_whole() {
        use crate::bus::{AccessKind, MemAccess};
        use crate::cycles::cycle_count;
        use crate::instruction::{Instruction, OneOpOpcode, Operand};

        for predecoded in [false, true] {
            // push r10 ; mov @r4, &0xE010 (read, vetoed write) ; illegal
            let mut cpu = cpu_with_program(&[0x120A, 0x44A2, 0xE010, 0x0FFF]);
            if predecoded {
                cpu.predecode(std::iter::once(0xF000..0xF008));
            }
            let mut gate = WriteGate::new();
            gate.protect(0xE000, 0xE0FF);
            cpu.set_write_gate(Some(gate));
            cpu.regs.write(Reg::R10, 0xBEEF);
            cpu.regs.write(Reg::R4, 0x0200);
            cpu.memory.write_word(0x0200, 0x5555);
            cpu.step().unwrap();
            let trace = *cpu.step().unwrap();
            assert_eq!((trace.reads.len(), trace.writes.len()), (1, 1));
            assert_eq!(cpu.vetoed_writes(), 1);

            let regs = cpu.regs.clone();
            let memory = cpu.memory.slice(0..0x1_0000).to_vec();
            let total_cycles = cpu.total_cycles();
            let err = cpu.step().unwrap_err();
            assert_eq!((err.address, err.word), (0xF006, 0x0FFF));
            assert_eq!(cpu.regs, regs);
            assert_eq!(cpu.memory.slice(0..0x1_0000), &memory[..]);
            assert_eq!(cpu.total_cycles(), total_cycles);
            assert_eq!(cpu.vetoed_writes(), 1);

            // push r10 in place of the illegal word: its trace holds its
            // own write and nothing of the steps before.
            cpu.memory.write_word(0xF006, 0x120A);
            let push = Instruction::OneOp {
                opcode: OneOpOpcode::Push,
                width: Width::Word,
                operand: Operand::Register(Reg::R10),
            };
            let cycles = cycle_count(&push);
            let mut writes = AccessLog::new();
            writes.push(MemAccess {
                addr: 0x03FC,
                value: 0xBEEF,
                width: Width::Word,
                kind: AccessKind::Write,
            });
            let expected = StepTrace {
                pc: 0xF006,
                next_pc: 0xF008,
                event: StepEvent::Executed,
                instruction_size: 2,
                reads: AccessLog::new(),
                writes,
                cycles,
                total_cycles: total_cycles + cycles,
            };
            assert_eq!(*cpu.step().unwrap(), expected, "predecoded: {predecoded}");
        }
    }

    #[test]
    fn byte_operations_clear_upper_register_byte() {
        // mov #0xFFFF, r10 ; mov.b #0x12, r10
        let mut mem = Memory::new();
        let program: Vec<u16> = vec![0x433A, 0x407A, 0x0012];
        for (i, w) in program.iter().enumerate() {
            mem.write_word(0xF000 + 2 * i as u16, *w);
        }
        mem.write_word(0xFFFE, 0xF000);
        let mut cpu = Cpu::new(mem);
        cpu.reset();
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0xFFFF);
        cpu.step().unwrap();
        assert_eq!(cpu.regs.read(Reg::R10), 0x0012);
    }
}
