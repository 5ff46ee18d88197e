//! Emitter for the EILID trusted-software runtime.
//!
//! The runtime has two parts, both emitted as assembly for the
//! [`eilid_asm`] toolchain and executed by the simulator:
//!
//! * **Non-secure trampolines** (`NS_EILID_*`, placed at the top of PMEM):
//!   each loads the dispatch selector into `r4` and branches to the secure
//!   entry point. Instrumented application code calls these trampolines
//!   (Figures 3–8 of the paper).
//! * **Secure software** (`EILIDsw`, placed in the secure ROM): the entry
//!   section dispatches on `r4`, the body implements the six `S_EILID_*`
//!   routines over the shadow stack and function table in secure DMEM, and
//!   the leave section is the only way back to non-secure code
//!   (Figure 9(a)).
//!
//! A failed check writes a [`CfiFault`] code to the
//! CASU violation strobe, which the hardware monitor turns into a device
//! reset.

use eilid_casu::{CfiFault, LAYOUT, VIOLATION_STROBE_ADDR};

use crate::config::EilidConfig;
use crate::sw::dispatch::{Selector, ENTRY_SYMBOL, LEAVE_SYMBOL};

/// Origin of the non-secure trampolines (top of application PMEM).
pub const DEFAULT_TRAMPOLINE_ORG: u16 = 0xF700;

/// Parameters of the emitted runtime (resolved addresses for the
/// instrumenter and the device builder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeParams {
    /// Origin of the trampoline block.
    pub trampoline_org: u16,
    /// Origin of the secure software (start of secure ROM).
    pub secure_org: u16,
    /// Shadow-stack base address in secure DMEM.
    pub shadow_base: u16,
    /// Shadow-stack capacity in entries.
    pub shadow_capacity: u16,
    /// Address of the function-table count word.
    pub function_count_addr: u16,
    /// Address of the first function-table entry.
    pub function_table_addr: u16,
    /// Function-table capacity in entries.
    pub function_table_capacity: u16,
    /// Keep the shadow-stack index in `r5` (`true`) or in secure memory
    /// (`false`).
    pub index_in_register: bool,
    /// Address of the in-memory index word (used when
    /// `index_in_register == false`).
    pub index_addr: u16,
}

impl RuntimeParams {
    /// Derives the runtime parameters from a configuration.
    pub fn new(config: &EilidConfig) -> Self {
        RuntimeParams {
            trampoline_org: DEFAULT_TRAMPOLINE_ORG,
            secure_org: *LAYOUT.secure_rom.start(),
            shadow_base: config.shadow_stack_base(),
            shadow_capacity: config.shadow_stack_capacity,
            function_count_addr: config.function_count_addr(),
            function_table_addr: config.function_table_base(),
            function_table_capacity: config.function_table_capacity,
            index_in_register: config.index_in_register,
            index_addr: config.index_word_addr(),
        }
    }
}

/// Emits the complete runtime assembly source (trampolines + secure
/// software).
///
/// # Examples
///
/// ```
/// use eilid::sw::{emit_runtime_source, RuntimeParams};
/// use eilid::EilidConfig;
///
/// let params = RuntimeParams::new(&EilidConfig::default());
/// let source = emit_runtime_source(&params);
/// assert!(source.contains("S_EILID_entry:"));
/// assert!(source.contains("NS_EILID_store_ra:"));
/// ```
pub fn emit_runtime_source(params: &RuntimeParams) -> String {
    let mut out = String::new();
    out.push_str("; EILID trusted-software runtime (generated)\n");
    out.push_str("; Non-secure trampolines + secure shadow-stack software.\n");
    emit_constants(&mut out, params);
    emit_trampolines(&mut out, params);
    emit_secure_software(&mut out, params);
    out
}

fn emit_constants(out: &mut String, p: &RuntimeParams) {
    out.push_str(&format!(
        "    .equ EILID_SHADOW_BASE, 0x{:04x}\n",
        p.shadow_base
    ));
    out.push_str(&format!(
        "    .equ EILID_SHADOW_CAP, {}\n",
        p.shadow_capacity
    ));
    out.push_str(&format!(
        "    .equ EILID_SHADOW_CAP_M1, {}\n",
        p.shadow_capacity.saturating_sub(1)
    ));
    out.push_str(&format!(
        "    .equ EILID_FUNC_COUNT, 0x{:04x}\n",
        p.function_count_addr
    ));
    out.push_str(&format!(
        "    .equ EILID_FUNC_TABLE, 0x{:04x}\n",
        p.function_table_addr
    ));
    out.push_str(&format!(
        "    .equ EILID_FUNC_CAP, {}\n",
        p.function_table_capacity
    ));
    out.push_str(&format!(
        "    .equ EILID_STROBE, 0x{VIOLATION_STROBE_ADDR:04x}\n"
    ));
    if !p.index_in_register {
        out.push_str(&format!("    .equ EILID_INDEX, 0x{:04x}\n", p.index_addr));
    }
    for fault in [
        CfiFault::ReturnAddress,
        CfiFault::InterruptContext,
        CfiFault::IndirectCall,
        CfiFault::ShadowStackOverflow,
        CfiFault::ShadowStackUnderflow,
        CfiFault::FunctionTableOverflow,
    ] {
        out.push_str(&format!(
            "    .equ EILID_FAULT_{}, 0x{:04x}\n",
            fault_suffix(fault),
            fault.code()
        ));
    }
}

fn fault_suffix(fault: CfiFault) -> &'static str {
    match fault {
        CfiFault::ReturnAddress => "RA",
        CfiFault::InterruptContext => "RFI",
        CfiFault::IndirectCall => "IND",
        CfiFault::ShadowStackOverflow => "OVF",
        CfiFault::ShadowStackUnderflow => "UNF",
        CfiFault::FunctionTableOverflow => "FTO",
        CfiFault::Unknown(_) => "UNK",
    }
}

fn emit_trampolines(out: &mut String, p: &RuntimeParams) {
    out.push_str(&format!("\n    .org 0x{:04x}\n", p.trampoline_org));
    out.push_str("; --- non-secure trampolines ---\n");
    for selector in Selector::ALL {
        out.push_str(&format!("{}:\n", selector.trampoline_symbol()));
        out.push_str(&format!("    mov #{}, r4\n", selector.code()));
        out.push_str(&format!("    br #{ENTRY_SYMBOL}\n"));
    }
}

fn emit_secure_software(out: &mut String, p: &RuntimeParams) {
    out.push_str(&format!("\n    .org 0x{:04x}\n", p.secure_org));
    out.push_str("; --- EILIDsw: entry section ---\n");
    out.push_str(&format!("{ENTRY_SYMBOL}:\n"));
    for selector in Selector::ALL {
        out.push_str(&format!("    cmp #{}, r4\n", selector.code()));
        out.push_str(&format!("    jeq {}\n", selector.secure_symbol()));
    }
    out.push_str("    jmp S_EILID_fault_unknown\n");

    out.push_str("\n; --- EILIDsw: body section ---\n");
    let load_index = |out: &mut String| {
        if !p.index_in_register {
            out.push_str("    mov &EILID_INDEX, r5\n");
        }
    };
    let store_index = |out: &mut String| {
        if !p.index_in_register {
            out.push_str("    mov r5, &EILID_INDEX\n");
        }
    };

    // S_EILID_store_ra: r6 = return address.
    out.push_str("S_EILID_store_ra:\n");
    load_index(out);
    out.push_str("    cmp #EILID_SHADOW_CAP, r5\n");
    out.push_str("    jge S_EILID_fault_overflow\n");
    out.push_str("    mov r5, r4\n");
    out.push_str("    add r5, r4\n");
    out.push_str("    add #EILID_SHADOW_BASE, r4\n");
    out.push_str("    mov r6, 0(r4)\n");
    out.push_str("    inc r5\n");
    store_index(out);
    out.push_str(&format!("    jmp {LEAVE_SYMBOL}\n"));

    // S_EILID_check_ra: r6 = return address read from the main stack.
    out.push_str("S_EILID_check_ra:\n");
    load_index(out);
    out.push_str("    tst r5\n");
    out.push_str("    jz S_EILID_fault_underflow\n");
    out.push_str("    dec r5\n");
    out.push_str("    mov r5, r4\n");
    out.push_str("    add r5, r4\n");
    out.push_str("    add #EILID_SHADOW_BASE, r4\n");
    out.push_str("    cmp 0(r4), r6\n");
    out.push_str("    jne S_EILID_fault_ra\n");
    store_index(out);
    out.push_str(&format!("    jmp {LEAVE_SYMBOL}\n"));

    // S_EILID_store_rfi: r6 = saved PC, r7 = saved SR.
    out.push_str("S_EILID_store_rfi:\n");
    load_index(out);
    out.push_str("    cmp #EILID_SHADOW_CAP_M1, r5\n");
    out.push_str("    jge S_EILID_fault_overflow\n");
    out.push_str("    mov r5, r4\n");
    out.push_str("    add r5, r4\n");
    out.push_str("    add #EILID_SHADOW_BASE, r4\n");
    out.push_str("    mov r6, 0(r4)\n");
    out.push_str("    mov r7, 2(r4)\n");
    out.push_str("    incd r5\n");
    store_index(out);
    out.push_str(&format!("    jmp {LEAVE_SYMBOL}\n"));

    // S_EILID_check_rfi: r6 = saved PC, r7 = saved SR.
    out.push_str("S_EILID_check_rfi:\n");
    load_index(out);
    out.push_str("    cmp #2, r5\n");
    out.push_str("    jl S_EILID_fault_underflow\n");
    out.push_str("    decd r5\n");
    out.push_str("    mov r5, r4\n");
    out.push_str("    add r5, r4\n");
    out.push_str("    add #EILID_SHADOW_BASE, r4\n");
    out.push_str("    cmp 0(r4), r6\n");
    out.push_str("    jne S_EILID_fault_rfi\n");
    out.push_str("    cmp 2(r4), r7\n");
    out.push_str("    jne S_EILID_fault_rfi\n");
    store_index(out);
    out.push_str(&format!("    jmp {LEAVE_SYMBOL}\n"));

    // S_EILID_store_ind: r6 = legitimate function entry point.
    out.push_str("S_EILID_store_ind:\n");
    out.push_str("    mov &EILID_FUNC_COUNT, r4\n");
    out.push_str("    cmp #EILID_FUNC_CAP, r4\n");
    out.push_str("    jge S_EILID_fault_fto\n");
    out.push_str("    add r4, r4\n");
    out.push_str("    add #EILID_FUNC_TABLE, r4\n");
    out.push_str("    mov r6, 0(r4)\n");
    out.push_str("    inc &EILID_FUNC_COUNT\n");
    out.push_str(&format!("    jmp {LEAVE_SYMBOL}\n"));

    // S_EILID_check_ind: r6 = indirect-call target.
    out.push_str("S_EILID_check_ind:\n");
    out.push_str("    mov &EILID_FUNC_COUNT, r4\n");
    out.push_str("    mov #EILID_FUNC_TABLE, r7\n");
    out.push_str("S_EILID_check_ind_loop:\n");
    out.push_str("    tst r4\n");
    out.push_str("    jz S_EILID_fault_ind\n");
    out.push_str("    cmp @r7, r6\n");
    out.push_str(&format!("    jeq {LEAVE_SYMBOL}\n"));
    out.push_str("    incd r7\n");
    out.push_str("    dec r4\n");
    out.push_str("    jmp S_EILID_check_ind_loop\n");

    // Fault reporting: write the fault code to the CASU strobe; the hardware
    // resets the device on that very write.
    out.push_str("\n; --- EILIDsw: fault reporting ---\n");
    for (label, code_symbol) in [
        ("S_EILID_fault_ra", "EILID_FAULT_RA"),
        ("S_EILID_fault_rfi", "EILID_FAULT_RFI"),
        ("S_EILID_fault_ind", "EILID_FAULT_IND"),
        ("S_EILID_fault_overflow", "EILID_FAULT_OVF"),
        ("S_EILID_fault_underflow", "EILID_FAULT_UNF"),
        ("S_EILID_fault_fto", "EILID_FAULT_FTO"),
        ("S_EILID_fault_unknown", "EILID_FAULT_UNF"),
    ] {
        out.push_str(&format!("{label}:\n"));
        out.push_str(&format!("    mov #{code_symbol}, &EILID_STROBE\n"));
        out.push_str(&format!("    jmp {label}\n"));
    }

    // Leave section: the only legal way back to non-secure code.
    out.push_str("\n; --- EILIDsw: leave section ---\n");
    out.push_str(&format!("{LEAVE_SYMBOL}:\n"));
    out.push_str("    ret\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RuntimeParams {
        RuntimeParams::new(&EilidConfig::default())
    }

    #[test]
    fn params_are_derived_from_config_and_layout() {
        let p = params();
        assert_eq!(p.secure_org, 0xF800);
        assert_eq!(p.shadow_base, 0x1000);
        assert_eq!(p.shadow_capacity, 112);
        assert_eq!(p.function_count_addr, 0x10E0);
        assert_eq!(p.function_table_addr, 0x10E2);
        assert!(p.index_in_register);
    }

    #[test]
    fn emitted_source_contains_all_sections_and_symbols() {
        let source = emit_runtime_source(&params());
        assert!(source.contains(".equ EILID_STROBE, 0x01f0"));
        assert!(source.contains("S_EILID_entry:"));
        assert!(source.contains("S_EILID_leave:"));
        for selector in Selector::ALL {
            assert!(source.contains(&format!("{}:", selector.trampoline_symbol())));
            assert!(source.contains(&format!("{}:", selector.secure_symbol())));
        }
        assert!(source.contains("EILID_SHADOW_BASE"));
        assert!(source.contains("EILID_STROBE"));
        // Register-resident index: no in-memory index constant.
        assert!(!source.contains("EILID_INDEX"));
    }

    #[test]
    fn memory_resident_index_variant_adds_loads_and_stores() {
        let mut p = params();
        p.index_in_register = false;
        let source = emit_runtime_source(&p);
        assert!(source.contains(".equ EILID_INDEX"));
        assert!(source.contains("mov &EILID_INDEX, r5"));
        assert!(source.contains("mov r5, &EILID_INDEX"));
        // The in-register variant is strictly shorter.
        let fast = emit_runtime_source(&params());
        assert!(source.len() > fast.len());
    }

    #[test]
    fn emitted_source_assembles() {
        let image =
            eilid_asm::assemble(&emit_runtime_source(&params())).expect("runtime assembles");
        assert!(image.symbol("S_EILID_entry").is_some());
        assert!(image.symbol("S_EILID_leave").is_some());
        assert!(image.symbol("NS_EILID_check_ind").is_some());
        // Trampolines live below the secure ROM, secure software inside it.
        assert!(image.symbol("NS_EILID_store_ra").unwrap() < 0xF800);
        assert!(image.symbol("S_EILID_entry").unwrap() >= 0xF800);
        assert!(image.symbol("S_EILID_leave").unwrap() <= 0xFFDF);
    }
}
