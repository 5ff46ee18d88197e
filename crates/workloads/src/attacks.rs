//! Run-time attack injectors (the paper's threat model, §III-B).
//!
//! The adversary "can arbitrarily access any executable memory location at
//! run-time \[and\] tamper with any data (e.g., return addresses, function
//! pointers, and indirect function calls) on the stack and heap". The
//! injectors model exactly that: a memory-corruption bug that fires at a
//! known point in the application (`attack_point` / `isr_attack_point`
//! labels in the workload sources) and overwrites control-flow data in
//! DMEM. Each attack maps onto one of EILID's properties:
//!
//! | Attack | Tampered data | Detected by |
//! |---|---|---|
//! | [`CfiAttack::ReturnAddressOverwrite`] | saved return address on the main stack | P1 (`S_EILID_check_ra`) |
//! | [`CfiAttack::IsrContextTamper`] | saved PC of the interrupt context | P2 (`S_EILID_check_rfi`) |
//! | [`CfiAttack::IndirectCallHijack`] | function pointer in DMEM | P3 (`S_EILID_check_ind`) |
//! | [`CfiAttack::CodeInjectionJump`] | return address redirected into injected DMEM code | CASU W⊕X |
//!
//! Two further attacks exercise the CASU substrate itself and are expressed
//! as stand-alone malicious programs: [`pmem_overwrite_source`] and
//! [`dmem_execution_source`].

use std::fmt;

use serde::{Deserialize, Serialize};

use eilid::{Device, RunOutcome};
use eilid_casu::{CfiFault, Violation};

/// Control-flow attacks injected into a running workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CfiAttack {
    /// Overwrite the saved return address on the main stack while a victim
    /// function runs (classic stack smashing / ROP entry).
    ReturnAddressOverwrite,
    /// Overwrite the saved program counter of the interrupt context while
    /// the ISR runs.
    IsrContextTamper,
    /// Overwrite a function pointer in DMEM so a later indirect call lands
    /// on an address that is not a legitimate function entry point.
    IndirectCallHijack,
    /// Inject code into DMEM and redirect the saved return address to it.
    CodeInjectionJump,
}

impl CfiAttack {
    /// All injectable attacks.
    pub const ALL: [CfiAttack; 4] = [
        CfiAttack::ReturnAddressOverwrite,
        CfiAttack::IsrContextTamper,
        CfiAttack::IndirectCallHijack,
        CfiAttack::CodeInjectionJump,
    ];

    /// The fault class an EILID device is expected to report for this
    /// attack (code injection is caught by the W⊕X rule or, earlier, by the
    /// return-address check).
    pub fn expected_fault(self) -> Option<CfiFault> {
        match self {
            CfiAttack::ReturnAddressOverwrite => Some(CfiFault::ReturnAddress),
            CfiAttack::IsrContextTamper => Some(CfiFault::InterruptContext),
            CfiAttack::IndirectCallHijack => Some(CfiFault::IndirectCall),
            CfiAttack::CodeInjectionJump => None,
        }
    }
}

impl fmt::Display for CfiAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CfiAttack::ReturnAddressOverwrite => "return-address overwrite",
            CfiAttack::IsrContextTamper => "ISR context tampering",
            CfiAttack::IndirectCallHijack => "indirect-call hijack",
            CfiAttack::CodeInjectionJump => "code injection into DMEM",
        };
        write!(f, "{name}")
    }
}

/// Why an attack could not be injected into a particular workload/device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// The workload image lacks a symbol the attack needs (for example
    /// `isr_attack_point` on an interrupt-free workload).
    MissingSymbol(String),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::MissingSymbol(s) => {
                write!(f, "workload does not expose required symbol `{s}`")
            }
        }
    }
}

impl std::error::Error for AttackError {}

/// Result of injecting an attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackResult {
    /// The attack that was injected.
    pub attack: CfiAttack,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl AttackResult {
    /// `true` if the device detected the attack (reported any violation).
    pub fn detected(&self) -> bool {
        self.outcome.violation().is_some()
    }

    /// `true` if the detection matches the fault class EILID should report.
    pub fn detected_as_expected(&self) -> bool {
        match (self.attack.expected_fault(), self.outcome.violation()) {
            (Some(expected), Some(Violation::Cfi { fault })) => *fault == expected,
            (None, Some(Violation::ExecutionFromWritableMemory { .. })) => true,
            // A code-injection jump on a fully protected device may be
            // stopped even earlier, by the return-address check.
            (
                None,
                Some(Violation::Cfi {
                    fault: CfiFault::ReturnAddress,
                }),
            ) => true,
            _ => false,
        }
    }
}

fn required_symbol(device: &Device, name: &str) -> Result<u16, AttackError> {
    let symbol = match device.artifacts() {
        // Protected devices carry the instrumented image's symbol table.
        Some(artifacts) => artifacts.instrumented_image.symbol(name),
        // Baseline devices do not; re-derive the symbols from the registry
        // workload whose assembled bytes match what is loaded in memory.
        None => lookup_in_memoryless_image(device, name),
    };
    symbol.ok_or_else(|| AttackError::MissingSymbol(name.to_string()))
}

/// Finds `name` in the registry workload whose assembled image is byte-for-
/// byte identical to the device's loaded program memory, so symbols from an
/// unrelated workload can never leak into an attack.
fn lookup_in_memoryless_image(device: &Device, name: &str) -> Option<u16> {
    crate::app::all().iter().find_map(|w| {
        let image = eilid_asm::assemble(&w.source).ok()?;
        let segment = image.segments.first()?;
        let loaded = device
            .cpu()
            .memory
            .slice(usize::from(segment.base)..usize::from(segment.base) + segment.bytes.len());
        if loaded == segment.bytes.as_slice() {
            image.symbol(name)
        } else {
            None
        }
    })
}

/// Injects `attack` into a device running one of the registry workloads and
/// runs it to completion/violation/timeout.
///
/// Works on both baseline and EILID devices, so callers can contrast
/// "undetected hijack" with "detected and reset".
///
/// # Errors
///
/// Returns [`AttackError::MissingSymbol`] when the workload does not contain
/// the label the attack needs (e.g. ISR tampering on an interrupt-free
/// workload).
pub fn inject(
    device: &mut Device,
    attack: CfiAttack,
    max_cycles: u64,
) -> Result<AttackResult, AttackError> {
    let attack_point = required_symbol(device, "attack_point")?;
    let gadget = required_symbol(device, "main")?;
    let protected = device.is_protected();

    let outcome = match attack {
        CfiAttack::ReturnAddressOverwrite => device.run_with_hook(max_cycles, move |cpu, trace| {
            if trace.pc == attack_point {
                let sp = cpu.regs.sp();
                cpu.memory.write_word(sp, gadget);
            }
        }),
        CfiAttack::IsrContextTamper => {
            let isr_point = required_symbol(device, "isr_attack_point")?;
            // The EILID prologue pushes r4/r6/r7 before the ISR body, so the
            // saved PC sits deeper in the frame on a protected device.
            let saved_pc_offset = if protected { 8 } else { 2 };
            device.run_with_hook(max_cycles, move |cpu, trace| {
                if trace.pc == isr_point {
                    let slot = cpu.regs.sp().wrapping_add(saved_pc_offset);
                    cpu.memory.write_word(slot, gadget);
                }
            })
        }
        CfiAttack::IndirectCallHijack => {
            let pointer = required_symbol(device, "PATTERN_PTR")?;
            let rogue = required_symbol(device, "attack_gadget")?;
            device.run_with_hook(max_cycles, move |cpu, trace| {
                if trace.pc == attack_point {
                    cpu.memory.write_word(pointer, rogue);
                }
            })
        }
        CfiAttack::CodeInjectionJump => {
            let payload_addr = 0x0380u16;
            device.run_with_hook(max_cycles, move |cpu, trace| {
                if trace.pc == attack_point {
                    // Payload: `jmp $` — enough to prove execution moved to DMEM.
                    cpu.memory.write_word(payload_addr, 0x3FFF);
                    let sp = cpu.regs.sp();
                    cpu.memory.write_word(sp, payload_addr);
                }
            })
        }
    };

    Ok(AttackResult { attack, outcome })
}

/// A malicious program that tries to patch its own program memory (e.g. to
/// install a backdoor). CASU's immutability rule must reset the device.
pub fn pmem_overwrite_source() -> String {
    crate::common::with_standard_header(
        "    .global main
main:
    mov #STACK_TOP, sp
    mov #0x4303, &0xe100      ; overwrite an instruction in PMEM
    mov #DONE, &SIM_CTL
hang:
    jmp hang
",
    )
}

/// A malicious program that copies a payload to DMEM and branches to it
/// (classic code injection). CASU's W⊕X rule must reset the device.
pub fn dmem_execution_source() -> String {
    crate::common::with_standard_header(
        "    .global main
main:
    mov #STACK_TOP, sp
    mov #0x4303, &0x0300      ; nop payload
    mov #0x3fff, &0x0302      ; jmp $ payload
    br #0x0300
",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::WorkloadId;
    use eilid::DeviceBuilder;

    fn eilid_device(id: WorkloadId) -> Device {
        DeviceBuilder::new()
            .build_eilid(&id.workload().source)
            .expect("workload builds under EILID")
    }

    fn baseline_device(id: WorkloadId) -> Device {
        DeviceBuilder::new()
            .build_baseline(&id.workload().source)
            .expect("workload builds")
    }

    #[test]
    fn return_address_attack_is_detected_on_every_workload() {
        for id in WorkloadId::ALL {
            let mut device = eilid_device(id);
            let result = inject(&mut device, CfiAttack::ReturnAddressOverwrite, 20_000_000)
                .expect("attack applies to every workload");
            assert!(result.detected(), "{id}: attack not detected");
            assert!(
                result.detected_as_expected(),
                "{id}: wrong fault {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn return_address_attack_is_missed_by_baseline_devices() {
        let mut device = baseline_device(WorkloadId::LightSensor);
        let result = inject(&mut device, CfiAttack::ReturnAddressOverwrite, 2_000_000).unwrap();
        assert!(!result.detected());
    }

    #[test]
    fn isr_context_attack_is_detected_on_interrupt_workloads() {
        for id in [WorkloadId::SyringePump, WorkloadId::TempSensor] {
            let mut device = eilid_device(id);
            let result = inject(&mut device, CfiAttack::IsrContextTamper, 20_000_000).unwrap();
            assert!(result.detected(), "{id}: attack not detected");
            assert!(result.detected_as_expected(), "{id}: {:?}", result.outcome);
        }
    }

    #[test]
    fn isr_attack_requires_an_interrupt_workload() {
        let mut device = eilid_device(WorkloadId::LightSensor);
        assert!(matches!(
            inject(&mut device, CfiAttack::IsrContextTamper, 1_000_000),
            Err(AttackError::MissingSymbol(_))
        ));
    }

    #[test]
    fn indirect_call_hijack_is_detected_on_charlieplexing() {
        let mut device = eilid_device(WorkloadId::Charlieplexing);
        let result = inject(&mut device, CfiAttack::IndirectCallHijack, 20_000_000).unwrap();
        assert!(result.detected());
        assert!(result.detected_as_expected(), "{:?}", result.outcome);

        // The baseline device completes without noticing anything.
        let mut baseline = baseline_device(WorkloadId::Charlieplexing);
        let result = inject(&mut baseline, CfiAttack::IndirectCallHijack, 5_000_000).unwrap();
        assert!(!result.detected());
    }

    #[test]
    fn code_injection_jump_is_detected() {
        let mut device = eilid_device(WorkloadId::LightSensor);
        let result = inject(&mut device, CfiAttack::CodeInjectionJump, 20_000_000).unwrap();
        assert!(result.detected());
        assert!(result.detected_as_expected(), "{:?}", result.outcome);
    }

    #[test]
    fn casu_level_attacks_are_detected_by_the_monitor() {
        let builder = DeviceBuilder::new();
        let mut pmem = builder
            .build_monitored_raw(&pmem_overwrite_source())
            .unwrap();
        assert!(matches!(
            pmem.run_for(100_000).violation(),
            Some(Violation::PmemWrite { .. })
        ));
        let mut wxorx = builder
            .build_monitored_raw(&dmem_execution_source())
            .unwrap();
        assert!(matches!(
            wxorx.run_for(100_000).violation(),
            Some(Violation::ExecutionFromWritableMemory { .. })
        ));
    }

    #[test]
    fn attack_metadata() {
        assert_eq!(CfiAttack::ALL.len(), 4);
        for attack in CfiAttack::ALL {
            assert!(!attack.to_string().is_empty());
        }
        assert_eq!(
            CfiAttack::ReturnAddressOverwrite.expected_fault(),
            Some(CfiFault::ReturnAddress)
        );
        assert_eq!(CfiAttack::CodeInjectionJump.expected_fault(), None);
        assert!(AttackError::MissingSymbol("x".into())
            .to_string()
            .contains('x'));
    }
}
