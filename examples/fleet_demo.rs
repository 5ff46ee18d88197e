//! Fleet demo: spin up a heterogeneous device fleet, sweep it with
//! batched attestation, catch a physically tampered device, then run two
//! staged OTA campaigns — one deliberately bad (halted by the canary
//! wave and rolled back) and one good (completes, becomes the new golden
//! firmware).
//!
//! Run with `cargo run --example fleet_demo`.

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{
    benign_patch, bricking_patch, BENIGN_PATCH_TARGET, BRICKING_PATCH_TARGET,
};
use eilid_fleet::{CampaignConfig, CampaignOutcome, FleetBuilder, FleetOps, HealthClass, LocalOps};
use eilid_workloads::WorkloadId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = DeviceKey::new(b"fleet-demo-root-key-0123456789ab")?;
    let (mut fleet, mut verifier) = FleetBuilder::new(root).devices(64).threads(4).build()?;
    println!(
        "fleet: {} devices, {} firmware cohorts, per-device keys derived from one root\n",
        fleet.len(),
        fleet.cohort_ids().len()
    );

    // 1. Run every device concurrently for a slice of simulated time.
    let slice = fleet.run_slice(5_000_000);
    println!(
        "run slice: {} completed, {} still running, {} violations\n",
        slice.completed, slice.running, slice.violations
    );

    // 2. Batched attestation sweep: all healthy.
    let sweep = verifier.sweep(&mut fleet);
    println!(
        "baseline sweep: {} of {} devices attested\n",
        sweep.count(HealthClass::Attested),
        sweep.devices
    );

    // 3. A physical attacker flips a byte of one device's firmware; the
    //    next sweep flags exactly that device.
    {
        let victim = &mut fleet.devices_mut()[13];
        let memory = &mut victim.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE014);
        memory.write_byte(0xE014, original ^ 0x40);
    }
    let sweep = verifier.sweep(&mut fleet);
    println!(
        "after tampering with device 13: tampered = {:?}\n",
        sweep.flagged_as(HealthClass::Tampered)
    );

    // 4. A bad OTA campaign, driven through the unified operator plane
    //    (the same `FleetOps` calls drive a remote gateway in
    //    `examples/operator_plane.rs`): the patch bricks its first
    //    instruction. The canary wave catches it; the campaign halts
    //    and rolls back.
    let report = LocalOps::new(&mut fleet, &mut verifier).run_campaign(&CampaignConfig::new(
        WorkloadId::LightSensor,
        BRICKING_PATCH_TARGET,
        bricking_patch(),
    ))?;
    match report.outcome {
        CampaignOutcome::HaltedAndRolledBack {
            wave,
            failure_rate,
            rolled_back,
        } => println!(
            "bad campaign: HALTED at wave {wave} ({:.0}% failures), {rolled_back} device(s) rolled back\n",
            failure_rate * 100.0
        ),
        ref other => println!("bad campaign unexpectedly ended as {other:?}\n"),
    }

    // 5. A good campaign: a benign data patch below the trampolines rolls
    //    out canary-first and completes; the new image becomes golden.
    let report = LocalOps::new(&mut fleet, &mut verifier).run_campaign(&CampaignConfig::new(
        WorkloadId::LightSensor,
        BENIGN_PATCH_TARGET,
        benign_patch(),
    ))?;
    println!(
        "good campaign: {:?} across {} wave(s)\n",
        report.outcome,
        report.waves.len()
    );

    // 6. Final sweep: the updated cohort attests against the *new* golden
    //    measurement; the tampered device is still flagged.
    let sweep = verifier.sweep(&mut fleet);
    println!(
        "final sweep: {} of {} devices attested, flagged {:?}",
        sweep.count(HealthClass::Attested),
        sweep.devices,
        sweep.flagged
    );
    println!(
        "ledger recorded {} events, {} violation resets",
        fleet.ledger().events().len(),
        fleet.ledger().total_violation_resets()
    );
    Ok(())
}
