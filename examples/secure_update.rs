//! CASU secure update: the only legitimate way to change program memory.
//!
//! EILID inherits CASU's software-immutability guarantee: PMEM can only
//! change through an authenticated update. This example walks through the
//! update protocol — authorising an update, applying it, rejecting forgeries
//! and replays — and shows the PMEM measurement (the Merkle root devices
//! attest) changing accordingly.
//!
//! Run with: `cargo run --example secure_update`

use eilid_casu::{merkle_measure_pmem, UpdateAuthority, UpdateEngine};
use eilid_msp430::{Cpu, Memory};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== CASU authenticated software update ==\n");

    let key = b"device-unique-key-0001";
    let mut authority = UpdateAuthority::new(key);
    let mut engine = UpdateEngine::new(key);
    let mut memory = Memory::new();

    // Version 1 of the firmware: writes 1 to the debug output and finishes.
    let v1 = eilid_asm::assemble(
        "    .org 0xe000\n    .global main\nmain:\n    mov #0x0400, sp\n    mov #1, &0x0102\n    mov #0x00ff, &0x0100\nhang:\n    jmp hang\n",
    )?;
    v1.load_into(&mut memory)?;
    println!(
        "v1 measurement: {:02x?}...",
        &merkle_measure_pmem(&memory)[..8]
    );

    let mut cpu = Cpu::new(memory.clone());
    cpu.reset();
    cpu.run(100_000)?;
    println!("v1 output: {:?}", cpu.peripherals.sim_output());

    // Version 2: the authority authorises a patch that reports 2 instead.
    let v2 = eilid_asm::assemble(
        "    .org 0xe000\n    .global main\nmain:\n    mov #0x0400, sp\n    mov #2, &0x0102\n    mov #0x00ff, &0x0100\nhang:\n    jmp hang\n",
    )?;
    let payload = &v2.segments[0].bytes;
    let request = authority.authorize(v2.segments[0].base, payload);
    engine.apply(&request, &mut memory)?;
    println!("\nupdate applied (nonce {})", request.nonce);
    println!(
        "v2 measurement: {:02x?}...",
        &merkle_measure_pmem(&memory)[..8]
    );

    let mut cpu = Cpu::new(memory.clone());
    cpu.reset();
    cpu.run(100_000)?;
    println!("v2 output: {:?}", cpu.peripherals.sim_output());

    // A forged update (wrong key) is rejected.
    let mut rogue = UpdateAuthority::new(b"attacker-key");
    let forged = rogue.authorize(0xE000, &[0xFF, 0xFF]);
    println!(
        "\nforged update  : {:?}",
        engine.apply(&forged, &mut memory)
    );

    // Replaying the legitimate update is rejected too.
    println!("replayed update: {:?}", engine.apply(&request, &mut memory));

    println!("\nPMEM can only change through fresh, authenticated updates — the CASU property EILID builds on.");
    Ok(())
}
