//! The CASU/EILID hardware monitor.
//!
//! The monitor is a passive observer of the core's per-step bus signals
//! ([`StepTrace`]): program counter, instruction fetch addresses, and every
//! data read/write. It evaluates one fixed rule set over each step and
//! reports the first [`Violation`] it finds; the device layer then resets
//! the core, exactly as the CASU hardware asserts the reset line. In
//! priority order:
//!
//! 1. a non-zero write to the [`VIOLATION_STROBE_ADDR`] register (a failed
//!    EILID check);
//! 2. an interrupt taken inside the secure ROM (atomicity);
//! 3. an instruction fetched outside PMEM and the secure ROM (W ⊕ X);
//! 4. a write to PMEM, the secure ROM or the vector table (immutability),
//!    and a read or write of secure DMEM by non-secure code;
//! 5. entering the secure ROM anywhere but its entry point, or leaving it
//!    from outside its leave section (the gates of a [`CasuPolicy`]).
//!
//! PMEM changes only through the authenticated update engine
//! ([`crate::update`]), which writes memory directly and never while a
//! step runs, so no step sees an exception to rule 4.
//!
//! On hardware the check is free; in simulation it runs once per step,
//! so two fast checks keep its common case short without changing a
//! verdict:
//!
//! * *W ⊕ X over the fetch span.* The regions are address ranges, so
//!   when a step's first and last fetch lie in one executable region
//!   without wrapping, every fetch between them does too, and the
//!   per-fetch walk is skipped. Any other span is walked and its first
//!   bad fetch named, as before.
//! * *The quiet step.* A step with no data read or write, an `Executed`
//!   event, no crossing of the secure-ROM boundary and a fetch span that
//!   passed the check above passes at once: every rule needs one of
//!   those to fire. All other steps run the rules in their fixed order,
//!   so which violation wins is unchanged.

use serde::{Deserialize, Serialize};

use eilid_msp430::{StepEvent, StepTrace, WriteGate};

use crate::layout::{MemoryLayout, Region};
use crate::policy::{CasuPolicy, VIOLATION_STROBE_ADDR};
use crate::violation::{CfiFault, Violation};

/// Stateful hardware monitor evaluated once per simulator step.
///
/// # Examples
///
/// Detecting a code-injection attempt (executing from data memory):
///
/// ```
/// use eilid_casu::{CasuMonitor, CasuPolicy, MemoryLayout, Violation};
/// use eilid_msp430::{Cpu, Memory};
///
/// // Program at 0xE000 jumps straight into DMEM (0x0300).
/// let mut mem = Memory::new();
/// mem.write_word(0xE000, 0x4030); // mov #0x0300, pc  (br #0x0300)
/// mem.write_word(0xE002, 0x0300);
/// mem.write_word(0x0300, 0x4303); // nop "payload" in DMEM
/// mem.write_word(0xFFFE, 0xE000);
///
/// let mut cpu = Cpu::new(mem);
/// cpu.reset();
/// let mut monitor = CasuMonitor::new(MemoryLayout::default(), CasuPolicy::default());
///
/// let mut detected = None;
/// for _ in 0..4 {
///     let trace = cpu.step()?;
///     if let Some(v) = monitor.check(trace) {
///         detected = Some(v);
///         break;
///     }
/// }
/// assert!(matches!(
///     detected,
///     Some(Violation::ExecutionFromWritableMemory { pc: 0x0300, .. })
/// ));
/// # Ok::<(), eilid_msp430::StepError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CasuMonitor {
    layout: MemoryLayout,
    policy: CasuPolicy,
    prev_pc: Option<u16>,
}

impl CasuMonitor {
    /// Creates a monitor for the given layout and secure gates.
    pub fn new(layout: MemoryLayout, policy: CasuPolicy) -> Self {
        CasuMonitor {
            layout,
            policy,
            prev_pc: None,
        }
    }

    /// Clears transition state after a device reset.
    pub fn reset(&mut self) {
        self.prev_pc = None;
    }

    /// Builds the pre-commit bus [`WriteGate`] of rule 4: bus writes to
    /// PMEM, the secure ROM and the vector table are vetoed before they
    /// commit (real CASU hardware blocks the flash write in the violating
    /// cycle; the trace-level check in [`CasuMonitor::check`] still
    /// fires the reset).
    pub fn write_gate(&self) -> WriteGate {
        let mut gate = WriteGate::new();
        for range in [
            &self.layout.pmem,
            &self.layout.secure_rom,
            &self.layout.vector_table,
        ] {
            gate.protect(*range.start(), *range.end());
        }
        gate
    }

    /// Evaluates one step trace and returns the first violation found, if
    /// any. The caller is expected to reset the device (and call
    /// [`CasuMonitor::reset`]) when a violation is reported.
    #[inline]
    pub fn check(&mut self, trace: &StepTrace) -> Option<Violation> {
        let violation = self.evaluate(trace);
        // Track the last executed address for entry/exit transition checks.
        self.prev_pc = Some(trace.pc);
        violation
    }

    /// The quiet-step exit: a few compares, `#[inline]` so the crate
    /// that runs the step loop compiles it there. Every other step walks
    /// the rules in [`CasuMonitor::apply_rules`], out of line.
    #[inline]
    fn evaluate(&self, trace: &StepTrace) -> Option<Violation> {
        let pc_secure = self.layout.in_secure_rom(trace.pc);
        let prev_secure = self
            .prev_pc
            .is_some_and(|prev| self.layout.in_secure_rom(prev));
        let fetch_span_ok = self.fetches_in_one_region(trace);

        // A quiet step passes here: each rule needs a data access (1,
        // 4), an interrupt (2), a fetch outside one executable region
        // (3) or a crossing of the secure-ROM boundary (5) to fire, and
        // this step has none of them.
        if fetch_span_ok
            && trace.event == StepEvent::Executed
            && pc_secure == prev_secure
            && trace.reads.is_empty()
            && trace.writes.is_empty()
        {
            return None;
        }
        self.apply_rules(trace, pc_secure, prev_secure, fetch_span_ok)
    }

    /// Rules 1–5 in their fixed order over a step that is not quiet;
    /// the first violation wins.
    fn apply_rules(
        &self,
        trace: &StepTrace,
        pc_secure: bool,
        prev_secure: bool,
        fetch_span_ok: bool,
    ) -> Option<Violation> {
        let pc = trace.pc;

        // 1. The EILID violation strobe has priority: it is the trusted
        //    software asking for a reset.
        for write in &trace.writes {
            if write.addr == VIOLATION_STROBE_ADDR && write.value != 0 {
                return Some(Violation::Cfi {
                    fault: CfiFault::from_code(write.value),
                });
            }
        }

        // 2. Atomicity of secure execution.
        if matches!(trace.event, StepEvent::InterruptTaken { .. }) && pc_secure {
            return Some(Violation::SecureAtomicityViolation { pc });
        }

        // 3. W ⊕ X: instruction fetches only from executable regions.
        //    A span inside one region needs no per-fetch walk; any other
        //    span is walked to name its first bad fetch.
        if !fetch_span_ok {
            for fetch in trace.fetch_addresses() {
                if !self.layout.is_executable(fetch) {
                    return Some(Violation::ExecutionFromWritableMemory {
                        pc: fetch,
                        region: self.layout.region_of(fetch),
                    });
                }
            }
        }

        // 4. Memory-protection rules for data accesses.
        for write in &trace.writes {
            match self.layout.region_of(write.addr) {
                Region::Pmem => {
                    return Some(Violation::PmemWrite {
                        addr: write.addr,
                        pc,
                    });
                }
                Region::SecureRom => {
                    return Some(Violation::SecureRomWrite {
                        addr: write.addr,
                        pc,
                    });
                }
                Region::VectorTable => {
                    return Some(Violation::VectorTableWrite {
                        addr: write.addr,
                        pc,
                    });
                }
                Region::SecureDmem if !pc_secure => {
                    return Some(Violation::SecureDataAccess {
                        addr: write.addr,
                        pc,
                        write: true,
                    });
                }
                _ => {}
            }
        }
        if !pc_secure {
            for read in &trace.reads {
                if self.layout.in_secure_dmem(read.addr) {
                    return Some(Violation::SecureDataAccess {
                        addr: read.addr,
                        pc,
                        write: false,
                    });
                }
            }
        }

        // 5. Secure ROM entry/exit gates.
        if pc_secure && !prev_secure && pc != self.policy.secure_entry {
            return Some(Violation::SecureEntryViolation {
                pc,
                entry: self.policy.secure_entry,
            });
        }
        if !pc_secure && prev_secure {
            let from = self.prev_pc.expect("prev_secure implies prev_pc");
            if !self.policy.secure_leave.contains(&from) {
                return Some(Violation::SecureExitViolation { from, to: pc });
            }
        }

        None
    }

    /// `true` when the step fetched nothing, or when its first and last
    /// fetch address lie in one executable region (PMEM or secure ROM)
    /// without wrapping past 0xFFFF. Each region is one address range,
    /// disjoint from the others as [`MemoryLayout::validate`] requires,
    /// so every fetch between the two lies in it too: the span passes
    /// W ⊕ X exactly as the per-fetch walk would find.
    #[inline]
    fn fetches_in_one_region(&self, trace: &StepTrace) -> bool {
        let words = trace.fetch_addresses().len() as u16;
        if words == 0 {
            return true;
        }
        let first = trace.pc;
        let Some(last) = first.checked_add(2 * (words - 1)) else {
            return false;
        };
        [&self.layout.pmem, &self.layout.secure_rom]
            .into_iter()
            .any(|region| region.contains(&first) && region.contains(&last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eilid_msp430::{AccessKind, AccessLog, MemAccess, Width};

    fn monitor() -> CasuMonitor {
        let policy = CasuPolicy::with_secure_gates(0xF800, 0xF880..=0xF88F);
        CasuMonitor::new(MemoryLayout::default(), policy)
    }

    fn executed(pc: u16) -> StepTrace {
        StepTrace {
            pc,
            next_pc: pc.wrapping_add(2),
            event: StepEvent::Executed,
            instruction_size: 2,
            reads: AccessLog::new(),
            writes: AccessLog::new(),
            cycles: 1,
            total_cycles: 1,
        }
    }

    fn write(addr: u16, value: u16) -> MemAccess {
        MemAccess {
            addr,
            value,
            width: Width::Word,
            kind: AccessKind::Write,
        }
    }

    fn read(addr: u16, value: u16) -> MemAccess {
        MemAccess {
            addr,
            value,
            width: Width::Word,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn clean_execution_in_pmem_passes() {
        let mut m = monitor();
        for pc in (0xE000u16..0xE020).step_by(2) {
            assert_eq!(m.check(&executed(pc)), None);
        }
    }

    #[test]
    fn pmem_write_is_blocked() {
        let mut m = monitor();
        let mut trace = executed(0xE000);
        trace.writes.push(write(0xE100, 0x1234));
        assert!(matches!(
            m.check(&trace),
            Some(Violation::PmemWrite { addr: 0xE100, .. })
        ));
    }

    #[test]
    fn secure_rom_and_vector_table_writes_are_blocked() {
        let mut m = monitor();
        let mut trace = executed(0xE000);
        trace.writes.push(write(0xF900, 0x1));
        assert!(matches!(
            m.check(&trace),
            Some(Violation::SecureRomWrite { .. })
        ));
        let mut trace = executed(0xE000);
        trace.writes.push(write(0xFFF0, 0x1));
        assert!(matches!(
            m.check(&trace),
            Some(Violation::VectorTableWrite { .. })
        ));
    }

    #[test]
    fn wxorx_blocks_execution_from_dmem_and_peripherals() {
        let mut m = monitor();
        assert!(matches!(
            m.check(&executed(0x0300)),
            Some(Violation::ExecutionFromWritableMemory {
                region: Region::Dmem,
                ..
            })
        ));
        assert!(matches!(
            m.check(&executed(0x0100)),
            Some(Violation::ExecutionFromWritableMemory {
                region: Region::Peripheral,
                ..
            })
        ));
    }

    #[test]
    fn secure_dmem_is_exclusive_to_secure_rom_code() {
        let mut m = monitor();
        // Non-secure read of the shadow stack.
        let mut trace = executed(0xE000);
        trace.reads.push(read(0x1000, 0xAAAA));
        assert!(matches!(
            m.check(&trace),
            Some(Violation::SecureDataAccess { write: false, .. })
        ));
        // Non-secure write.
        let mut trace = executed(0xE000);
        trace.writes.push(write(0x1002, 0xBBBB));
        assert!(matches!(
            m.check(&trace),
            Some(Violation::SecureDataAccess { write: true, .. })
        ));
        // The same accesses from secure-ROM code are fine (after a legal entry).
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xE000)), None);
        assert_eq!(m.check(&executed(0xF800)), None); // entry point
        let mut trace = executed(0xF802);
        trace.writes.push(write(0x1000, 0xCCCC));
        trace.reads.push(read(0x1002, 0xDDDD));
        assert_eq!(m.check(&trace), None);
    }

    #[test]
    fn secure_entry_must_use_the_entry_point() {
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xE000)), None);
        assert!(matches!(
            m.check(&executed(0xF850)),
            Some(Violation::SecureEntryViolation { pc: 0xF850, .. })
        ));
        // Entering at the published entry point is fine.
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xE000)), None);
        assert_eq!(m.check(&executed(0xF800)), None);
    }

    #[test]
    fn secure_exit_must_use_the_leave_section() {
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xE000)), None);
        assert_eq!(m.check(&executed(0xF800)), None);
        assert_eq!(m.check(&executed(0xF810)), None);
        // Leaving from 0xF810 (not in the leave section 0xF880..=0xF88F) faults.
        assert!(matches!(
            m.check(&executed(0xE004)),
            Some(Violation::SecureExitViolation {
                from: 0xF810,
                to: 0xE004
            })
        ));

        // Leaving from inside the leave section is fine.
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xF800)), None);
        assert_eq!(m.check(&executed(0xF884)), None);
        assert_eq!(m.check(&executed(0xE004)), None);
    }

    #[test]
    fn interrupt_during_secure_execution_is_atomicity_violation() {
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xF800)), None);
        let trace = StepTrace {
            pc: 0xF802,
            next_pc: 0xE100,
            event: StepEvent::InterruptTaken { vector: 8 },
            instruction_size: 0,
            reads: AccessLog::new(),
            writes: AccessLog::new(),
            cycles: 6,
            total_cycles: 10,
        };
        assert!(matches!(
            m.check(&trace),
            Some(Violation::SecureAtomicityViolation { pc: 0xF802 })
        ));
    }

    #[test]
    fn violation_strobe_reports_cfi_fault() {
        let mut m = monitor();
        let mut trace = executed(0xF800);
        trace.writes.push(write(VIOLATION_STROBE_ADDR, 0xDEA1));
        let v = m.check(&trace);
        assert!(matches!(
            v,
            Some(Violation::Cfi {
                fault: CfiFault::ReturnAddress
            })
        ));
        assert!(v.unwrap().is_cfi());
    }

    #[test]
    fn write_gate_covers_pmem_secure_rom_and_vector_table() {
        let gate = monitor().write_gate();
        assert!(gate.blocks(0xE000)); // PMEM
        assert!(gate.blocks(0xF900)); // secure ROM
        assert!(gate.blocks(0xFFFE)); // vector table
        assert!(!gate.blocks(0x0300)); // DMEM
        assert!(!gate.blocks(0x1000)); // secure DMEM (data rules stay trace-level)
    }

    fn sized(pc: u16, instruction_size: u16) -> StepTrace {
        StepTrace {
            instruction_size,
            next_pc: pc.wrapping_add(instruction_size),
            ..executed(pc)
        }
    }

    #[test]
    fn fetch_span_straddling_pmem_into_secure_rom_passes() {
        // 0xF7FE is PMEM's last word, 0xF800 secure ROM's first: both
        // executable, so the two-region span is legal.
        assert_eq!(monitor().check(&sized(0xF7FE, 4)), None);
    }

    #[test]
    fn fetch_span_running_into_the_vector_table_names_its_first_bad_fetch() {
        assert_eq!(
            monitor().check(&sized(0xFFDE, 4)),
            Some(Violation::ExecutionFromWritableMemory {
                pc: 0xFFE0,
                region: Region::VectorTable,
            })
        );
    }

    #[test]
    fn fetch_span_wrapping_past_the_top_of_memory_faults() {
        assert_eq!(
            monitor().check(&sized(0xFFFC, 6)),
            Some(Violation::ExecutionFromWritableMemory {
                pc: 0xFFFC,
                region: Region::VectorTable,
            })
        );
    }

    #[test]
    fn idle_and_interrupt_steps_fetch_nothing() {
        // Neither step fetches an instruction word, so a non-executable
        // pc is no W⊕X fault.
        let mut m = monitor();
        let idle = StepTrace {
            event: StepEvent::Idle,
            instruction_size: 0,
            next_pc: 0x0300,
            ..executed(0x0300)
        };
        assert_eq!(m.check(&idle), None);
        let mut interrupt = StepTrace {
            event: StepEvent::InterruptTaken { vector: 8 },
            instruction_size: 0,
            next_pc: 0xE100,
            cycles: 6,
            ..executed(0x0300)
        };
        interrupt.writes.push(write(0x03FE, 0x0300));
        interrupt.writes.push(write(0x03FC, 0x0008));
        interrupt.reads.push(read(0xFFF0, 0xE100));
        assert_eq!(m.check(&interrupt), None);
    }

    #[test]
    fn register_only_step_entering_secure_rom_off_the_entry_faults() {
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xE000)), None);
        assert_eq!(
            m.check(&executed(0xF802)),
            Some(Violation::SecureEntryViolation {
                pc: 0xF802,
                entry: 0xF800,
            })
        );
    }

    #[test]
    fn non_secure_read_of_secure_dmem_is_named_exactly() {
        let mut trace = executed(0xE010);
        trace.reads.push(read(0x10FE, 0x1234));
        assert_eq!(
            monitor().check(&trace),
            Some(Violation::SecureDataAccess {
                addr: 0x10FE,
                pc: 0xE010,
                write: false,
            })
        );
    }

    #[test]
    fn violation_strobe_outranks_a_bad_fetch_in_the_same_step() {
        let mut trace = executed(0x0300);
        trace.writes.push(write(VIOLATION_STROBE_ADDR, 0xDEA1));
        assert_eq!(
            monitor().check(&trace),
            Some(Violation::Cfi {
                fault: CfiFault::ReturnAddress,
            })
        );
    }

    #[test]
    fn reset_clears_transition_state() {
        let mut m = monitor();
        assert_eq!(m.check(&executed(0xF800)), None);
        m.reset();
        // After reset there is no "previous secure pc", so executing PMEM
        // directly is not an exit violation.
        assert_eq!(m.check(&executed(0xE000)), None);
    }
}
