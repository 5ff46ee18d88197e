//! # eilid-msp430 — MSP430 instruction-set simulator substrate
//!
//! This crate is the hardware substrate of the EILID reproduction: a
//! cycle-accurate simulator of a low-end, 16-bit, von-Neumann MSP430-class
//! microcontroller, comparable to the openMSP430 soft core the paper
//! prototypes on.
//!
//! It provides:
//!
//! * a typed [`Instruction`] model with a [`decode`]r and an [`encode`]r for
//!   all three MSP430 instruction formats, including the constant
//!   generators;
//! * a [`Cpu`] with a flat 64 KiB [`Memory`], memory-mapped
//!   [`peripherals`], interrupts and MSP430 family-accurate
//!   [cycle counts](cycle_count);
//! * per-step [`StepTrace`]s describing every bus signal an external
//!   hardware monitor (the CASU/EILID hardware in the companion crates) can
//!   observe on a real core.
//!
//! # Examples
//!
//! ```
//! use eilid_msp430::{Cpu, Memory, Reg};
//!
//! // A tiny program: mov #42, r10 ; "done" write ; loop forever.
//! let mut mem = Memory::new();
//! mem.write_word(0xF000, 0x403A);
//! mem.write_word(0xF002, 42);
//! mem.write_word(0xF004, 0x40B2); // mov #0x00FF, &0x0100
//! mem.write_word(0xF006, 0x00FF);
//! mem.write_word(0xF008, 0x0100);
//! mem.write_word(0xF00A, 0x3FFF); // jmp $
//! mem.write_word(0xFFFE, 0xF000);
//!
//! let mut cpu = Cpu::new(mem);
//! cpu.reset();
//! cpu.run(1_000)?;
//! assert_eq!(cpu.regs.read(Reg::R10), 42);
//! assert!(cpu.peripherals.sim_done());
//! # Ok::<(), eilid_msp430::StepError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cpu;
pub mod cycles;
pub mod decoder;
pub mod disasm;
pub mod encoder;
pub mod flags;
pub mod gate;
pub mod instruction;
pub mod memory;
pub mod peripherals;
pub mod registers;

mod execute;

pub use bus::{AccessKind, AccessLog, MemAccess, StepEvent, StepTrace, MAX_ACCESSES, MAX_FETCHES};
pub use cpu::{Cpu, CpuState, StepError, NUM_VECTORS};
pub use cycles::{cycle_count, cycles_to_micros, INTERRUPT_CYCLES, RETI_CYCLES};
pub use decoder::{decode, DecodeError, Decoded};
pub use disasm::{disassemble_range, render_disassembly, DisasmLine};
pub use encoder::{encode, encode_bytes, encode_with, EncodeError};
pub use flags::{StatusFlags, Width};
pub use gate::WriteGate;
pub use instruction::{
    constant_generator, Condition, Instruction, OneOpOpcode, Operand, TwoOpOpcode,
};
pub use memory::{LoadImageError, Memory, ADDRESS_SPACE, IVT_BASE, RESET_VECTOR};
pub use peripherals::{AdcStimulus, Peripherals};
pub use registers::{Reg, RegisterFile, RegisterIndexError};
