//! Pins the memory map of the paper's openMSP430 prototype at every one
//! of the 65 536 addresses: the region each address falls in, the region
//! queries the monitor uses, the monitor's pre-commit write gate, and the
//! secure-DMEM and secure-ROM addresses the trusted-software runtime is
//! built against. A change that moves any boundary fails here.

use eilid::{EilidConfig, Runtime};
use eilid_casu::layout;
use eilid_casu::{CasuMonitor, CasuPolicy, Region};

/// The six regions of the paper's prototype, inclusive; every other
/// address is unmapped.
const MAP: [(u16, u16, Region); 6] = [
    (0x0000, 0x01FF, Region::Peripheral),
    (0x0200, 0x0FFF, Region::Dmem),
    (0x1000, 0x10FF, Region::SecureDmem),
    (0xE000, 0xF7FF, Region::Pmem),
    (0xF800, 0xFFDF, Region::SecureRom),
    (0xFFE0, 0xFFFF, Region::VectorTable),
];

fn expected_region(addr: u16) -> Region {
    MAP.iter()
        .find(|&&(start, end, _)| (start..=end).contains(&addr))
        .map_or(Region::Unmapped, |&(_, _, region)| region)
}

#[test]
fn every_address_lies_in_the_prototypes_region() {
    for addr in 0..=u16::MAX {
        let region = expected_region(addr);
        assert_eq!(layout::region_of(addr), region, "{addr:#06x}");
        assert_eq!(
            layout::is_executable(addr),
            matches!(region, Region::Pmem | Region::SecureRom),
            "{addr:#06x}"
        );
        assert_eq!(
            layout::in_secure_rom(addr),
            region == Region::SecureRom,
            "{addr:#06x}"
        );
        assert_eq!(
            layout::in_secure_dmem(addr),
            region == Region::SecureDmem,
            "{addr:#06x}"
        );
    }
    assert_eq!(layout::shadow_stack_base(), 0x1000);
    assert_eq!(layout::secure_dmem_size(), 256);
}

#[test]
fn the_write_gate_vetoes_exactly_the_immutable_regions() {
    let gate = CasuMonitor::new(CasuPolicy::default()).write_gate();
    for addr in 0..=u16::MAX {
        let immutable = matches!(
            expected_region(addr),
            Region::Pmem | Region::SecureRom | Region::VectorTable
        );
        assert_eq!(gate.blocks(addr), immutable, "{addr:#06x}");
    }
}

#[test]
fn the_runtime_is_built_against_the_maps_addresses() {
    let runtime = Runtime::build(&EilidConfig::default()).expect("default runtime");
    let params = runtime.params();
    assert_eq!(params.secure_org, 0xF800);
    assert_eq!(params.shadow_base, 0x1000);
    assert_eq!(params.function_count_addr, 0x10E0);
    assert_eq!(params.function_table_addr, 0x10E2);

    // The in-memory shadow-stack index takes the last word of secure
    // DMEM; a smaller shadow stack leaves room for it.
    let config = EilidConfig {
        index_in_register: false,
        shadow_stack_capacity: 64,
        ..EilidConfig::default()
    };
    let runtime = Runtime::build(&config).expect("memory-index runtime");
    assert_eq!(runtime.params().index_addr, 0x10FE);
}
