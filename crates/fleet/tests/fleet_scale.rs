//! Fleet integration tests: batched attestation, violation telemetry,
//! staged OTA campaigns with halt-and-rollback, and the release-mode
//! 1 000-device scale test.

use std::time::Instant;

use eilid_casu::{DeviceKey, UpdateAuthority};
use eilid_fleet::fixtures::{
    benign_patch, bricking_patch, BENIGN_PATCH_TARGET, BRICKING_PATCH_TARGET,
};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, Fleet, FleetBuilder, FleetOps, HealthClass, LedgerEvent,
    LocalOps, OpsError, SimDevice,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn root_key() -> DeviceKey {
    DeviceKey::new(ROOT).unwrap()
}

/// The build artifacts of a cohort exist once, shared by its devices;
/// each device still owns its memory.
#[test]
fn devices_of_one_cohort_share_one_build() {
    let (mut fleet, _) = FleetBuilder::new(root_key())
        .devices(14)
        .threads(1)
        .build()
        .unwrap();
    fn artifacts(device: &SimDevice) -> &eilid::BuildArtifacts {
        device
            .device()
            .artifacts()
            .expect("fleet devices are protected")
    }
    // Round-robin over seven cohorts: 0 and 7 are siblings, 1 is not.
    let (tampered, sibling, other) = (0, 7, 1);
    let devices = fleet.devices();
    assert_eq!(devices[tampered].cohort(), devices[sibling].cohort());
    assert_ne!(devices[tampered].cohort(), devices[other].cohort());
    assert!(std::ptr::eq(
        artifacts(&devices[tampered]),
        artifacts(&devices[sibling])
    ));
    assert!(!std::ptr::eq(
        artifacts(&devices[tampered]),
        artifacts(&devices[other])
    ));
    let image = artifacts(&devices[tampered])
        .instrumented_image
        .segments
        .clone();

    let clean = fleet.devices_mut()[sibling].measure_pmem_cached();
    let memory = &mut fleet.devices_mut()[tampered].device_mut().cpu_mut().memory;
    let original = memory.read_byte(0xE010);
    memory.write_byte(0xE010, original ^ 0x01);

    assert_ne!(fleet.devices_mut()[tampered].measure_pmem_cached(), clean);
    assert_eq!(fleet.devices_mut()[sibling].measure_pmem_cached(), clean);
    for id in [tampered, sibling] {
        assert_eq!(
            artifacts(&fleet.devices()[id]).instrumented_image.segments,
            image,
            "device {id}'s build artifacts changed"
        );
    }
}

#[test]
fn fresh_fleet_attests_clean() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(14)
        .threads(2)
        .build()
        .unwrap();
    assert_eq!(fleet.len(), 14);
    // Round-robin over all seven workloads → two devices per cohort.
    assert_eq!(fleet.cohort_ids().len(), 7);

    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 14);
    assert_eq!(report.count(HealthClass::Tampered), 0);
    assert_eq!(report.devices, 14);
}

#[test]
fn tampered_pmem_is_flagged_by_the_sweep() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(8)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    // A physical attacker flips one instruction byte on two devices.
    for &victim in &[2usize, 5] {
        let device = &mut fleet.devices_mut()[victim];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }

    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 6);
    assert_eq!(report.count(HealthClass::Tampered), 2);
    assert_eq!(report.flagged_as(HealthClass::Tampered), vec![2, 5]);
    // Flagged devices land in the ledger.
    assert!(fleet
        .ledger()
        .events()
        .iter()
        .any(|e| matches!(e, LedgerEvent::AttestationFlagged { device: 2, .. })));
}

/// The flagged events a sweep appended to the ledger after `from`.
fn flagged_since(fleet: &Fleet, from: usize) -> Vec<(u64, HealthClass)> {
    fleet.ledger().events()[from..]
        .iter()
        .map(|event| match event {
            LedgerEvent::AttestationFlagged { device, class } => (*device, *class),
            other => panic!("a sweep appended a non-flag event: {other:?}"),
        })
        .collect()
}

/// A sweep over a fleet with k flagged devices appends exactly k
/// `AttestationFlagged` events, in id order and with each device's
/// class, and none for the attested devices — on every sweep entry
/// point.
#[test]
fn sweep_ledger_records_exactly_the_flagged_devices() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(12)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    let span =
        usize::from(BENIGN_PATCH_TARGET)..usize::from(BENIGN_PATCH_TARGET) + benign_patch().len();
    let old_bytes = fleet.devices()[0]
        .device()
        .cpu()
        .memory
        .slice(span)
        .to_vec();
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();

    // Ids chosen out of order and across shards.
    for victim in [9u64, 2] {
        let device = &mut fleet.devices_mut()[victim as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }
    for stale in [11u64, 4] {
        let key = verifier.device_key(stale);
        let device = &mut fleet.devices_mut()[stale as usize];
        let mut authority =
            UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
        let request = authority.authorize(BENIGN_PATCH_TARGET, &old_bytes);
        device.apply_update(&request).unwrap();
    }
    fleet.devices_mut()[7].corrupt_attestation_key();
    let expected = vec![
        (2, HealthClass::Tampered),
        (4, HealthClass::Stale),
        (7, HealthClass::Unverified),
        (9, HealthClass::Tampered),
        (11, HealthClass::Stale),
    ];

    let before = fleet.ledger().events().len();
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 7);
    assert_eq!(flagged_since(&fleet, before), expected);

    let before = fleet.ledger().events().len();
    LocalOps::new(&mut fleet, &mut verifier)
        .sweep_aggregated()
        .unwrap();
    assert_eq!(flagged_since(&fleet, before), expected);

    let before = fleet.ledger().events().len();
    LocalOps::new(&mut fleet, &mut verifier).sweep().unwrap();
    assert_eq!(flagged_since(&fleet, before), expected);
}

#[test]
fn violation_telemetry_records_reset_and_recovery() {
    let (mut fleet, verifier) = FleetBuilder::new(root_key())
        .devices(4)
        .threads(1)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    // Tamper device 1's entry point so execution jumps into DMEM.
    {
        let device = &mut fleet.devices_mut()[1];
        let memory = &mut device.device_mut().cpu_mut().memory;
        memory.load(0xE000, &bricking_patch()).unwrap();
    }

    let report = fleet.run_slice(5_000_000);
    assert_eq!(report.completed, 3);
    assert_eq!(report.violations, 1);
    assert_eq!(fleet.ledger().violation_resets(1), 1);
    assert_eq!(fleet.ledger().total_violation_resets(), 1);

    // Repair the device through the authenticated update path (the same
    // bytes an untampered sibling holds), reboot, and watch it recover.
    {
        let span = 0xE000..0xE000 + bricking_patch().len();
        let good_bytes: Vec<u8> = fleet.devices()[0]
            .device()
            .cpu()
            .memory
            .slice(span)
            .to_vec();
        let key = verifier.device_key(1);
        let device = &mut fleet.devices_mut()[1];
        let mut authority =
            UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
        let request = authority.authorize(0xE000, &good_bytes);
        device.apply_update(&request).unwrap();
        device.reboot();
    }

    let report = fleet.run_slice(5_000_000);
    assert_eq!(report.completed, 4);
    assert_eq!(report.violations, 0);
    assert_eq!(fleet.ledger().recovered_devices(), vec![1]);

    // Recovery is recorded once, not on every later slice.
    fleet.run_slice(5_000_000);
    fleet.run_slice(5_000_000);
    assert_eq!(fleet.ledger().recovered_devices(), vec![1]);
}

#[test]
fn campaign_patch_past_address_space_is_rejected_not_a_panic() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(2)
        .threads(1)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    let config = CampaignConfig::new(WorkloadId::LightSensor, 0xFFFE, vec![0; 8]);
    let result = LocalOps::new(&mut fleet, &mut verifier).run_campaign(&config);
    assert!(
        matches!(
            result,
            Err(OpsError::Fleet(eilid_fleet::FleetError::InvalidCampaign(_)))
        ),
        "got {result:?}"
    );
}

#[test]
fn good_campaign_completes_and_new_firmware_attests() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(10)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();

    assert!(report.is_completed(), "outcome: {:?}", report.outcome);
    assert_eq!(report.outcome, CampaignOutcome::Completed { updated: 10 });
    // Canary wave (10% of 10 = 1 device) then the rest.
    assert_eq!(report.waves.len(), 2);
    assert_eq!(report.waves[0].size, 1);
    assert_eq!(report.waves[1].size, 9);
    assert_eq!(report.waves.iter().map(|w| w.failures).sum::<usize>(), 0);

    // The new firmware is now golden: everyone attests clean against it.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 10);

    // And the devices still work after the patch + reboot.
    let slice = fleet.run_slice(5_000_000);
    assert_eq!(slice.completed, 10);
}

/// A wave that passes the failure threshold must still not leave its
/// individual probe-failed devices on the new firmware: each one is
/// rolled back, excluded from the campaign's `updated` count, and
/// flagged by later sweeps.
#[test]
fn probe_failed_devices_are_rolled_back_when_the_wave_passes() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(10)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    // Pre-tamper two non-canary devices in the unused PMEM gap, outside
    // the patch range: the update still applies and the smoke run still
    // completes, but the post-update attestation probe fails on exactly
    // these devices — 2 of 9 in the full wave, under the 25% threshold.
    for &victim in &[3u64, 5] {
        let device = &mut fleet.devices_mut()[victim as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xF680);
        memory.write_byte(0xF680, original ^ 0x01);
    }

    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();

    // The campaign completes, but the two quarantined devices are not
    // counted as updated — and the report names them directly.
    assert_eq!(report.outcome, CampaignOutcome::Completed { updated: 8 });
    assert_eq!(report.waves.len(), 2);
    assert_eq!(report.waves[1].failures, 2);
    assert_eq!(report.quarantined, vec![3, 5]);
    assert!(report.rollback_incomplete.is_empty());

    // The ledger records the probe failures and the per-device rollbacks.
    let events = fleet.ledger().events();
    for victim in [3u64, 5] {
        assert!(events
            .iter()
            .any(|e| matches!(e, LedgerEvent::ProbeFailed { device } if *device == victim)));
        assert!(events
            .iter()
            .any(|e| matches!(e, LedgerEvent::RolledBack { device } if *device == victim)));
    }

    // Rolled-back devices no longer match the promoted golden (nor, with
    // their tampered byte, the previous one) and are flagged by the next
    // sweep; the other eight attest clean against the new firmware.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 8);
    assert_eq!(sweep.flagged_as(HealthClass::Tampered), vec![3, 5]);
}

/// A campaign that "completes" with every updated device individually
/// rolled back (possible with a permissive failure threshold) must not
/// promote the new golden: no device runs the new firmware.
#[test]
fn zero_retained_campaign_does_not_promote_the_golden_measurement() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(4)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    let before = verifier
        .expected_measurement(WorkloadId::LightSensor)
        .unwrap();

    // Pre-tamper every device outside the patch range so each
    // post-update attestation probe fails, and set the threshold to 1.0
    // so every wave still "passes" (rate 1.0 is not > 1.0).
    for device in fleet.devices_mut() {
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xF680);
        memory.write_byte(0xF680, original ^ 0x01);
    }
    let mut config =
        CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    config.failure_threshold = 1.0;
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();

    assert_eq!(report.outcome, CampaignOutcome::Completed { updated: 0 });
    assert_eq!(
        verifier.expected_measurement(WorkloadId::LightSensor),
        Some(before),
        "a campaign no device retained must not change the golden"
    );
}

/// A bad patch whose violating store lands *outside* its own range used
/// to corrupt memory before the reset (the simulator committed the
/// write), leaving rollbacks incomplete. The bus-level pre-commit veto
/// closes that gap: the store never reaches the memory array, so rolling
/// back just the patch range restores the device byte-for-byte.
#[test]
fn out_of_range_violating_write_is_vetoed_and_rollback_is_clean() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(10)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    let write_target = eilid_fleet::fixtures::BRICKING_WRITE_TARGET;
    let before = fleet.devices()[0]
        .device()
        .cpu()
        .memory
        .read_word(write_target);

    // The bricking patch stores to BRICKING_WRITE_TARGET — PMEM far
    // outside the 8-byte patch range at 0xE000.
    let config = CampaignConfig::new(
        WorkloadId::LightSensor,
        BRICKING_PATCH_TARGET,
        bricking_patch(),
    );
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();

    match report.outcome {
        CampaignOutcome::HaltedAndRolledBack { rolled_back, .. } => {
            assert_eq!(
                rolled_back, 1,
                "the vetoed write leaves nothing to corrupt: rollback restores the canary"
            );
        }
        other => panic!("bad campaign was not halted: {other:?}"),
    }
    assert!(
        report.rollback_incomplete.is_empty(),
        "no rollback can be incomplete when the violating write never committed"
    );
    assert!(!fleet
        .ledger()
        .events()
        .iter()
        .any(|e| matches!(e, LedgerEvent::RollbackIncomplete { .. })));

    // The out-of-range target still holds its original bytes on every
    // device, the canary's violating run was vetoed at the bus, and the
    // whole fleet attests clean after rollback.
    for device in fleet.devices() {
        assert_eq!(device.device().cpu().memory.read_word(write_target), before);
    }
    assert!(fleet.devices()[0].device().cpu().vetoed_writes() >= 1);
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 10);
}

#[test]
fn bad_campaign_halts_on_the_canary_wave_and_rolls_back() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(20)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    // The patch bricks the entry point: canary devices violate W⊕X on
    // their post-update smoke run.
    let config = CampaignConfig::new(
        WorkloadId::LightSensor,
        BRICKING_PATCH_TARGET,
        bricking_patch(),
    );
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();

    match report.outcome {
        CampaignOutcome::HaltedAndRolledBack {
            wave,
            failure_rate,
            rolled_back,
        } => {
            assert_eq!(wave, 0, "the canary wave must catch the bad firmware");
            assert!(failure_rate > 0.99, "failure rate {failure_rate}");
            assert_eq!(rolled_back, 2, "10% canary of 20 devices");
        }
        other => panic!("bad campaign was not halted: {other:?}"),
    }
    // Only the canary was ever updated.
    assert_eq!(report.waves.len(), 1);

    // Rollback restored the original firmware fleet-wide: everyone
    // attests clean against the unchanged golden measurement and runs.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 20);
    let slice = fleet.run_slice(5_000_000);
    assert_eq!(slice.completed, 20);
    assert_eq!(slice.violations, 0);

    // The ledger tells the whole story.
    let events = fleet.ledger().events();
    assert!(events
        .iter()
        .any(|e| matches!(e, LedgerEvent::CampaignHalted { wave: 0, .. })));
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, LedgerEvent::RolledBack { .. }))
            .count(),
        2
    );
}

/// The acceptance-scale test: ≥ 1 000 heterogeneous devices, a full
/// A partially-updated cohort must be reported `Stale`, not `Tampered`
/// (and not `Attested`): devices running the *previous* golden firmware
/// are authentic but missed the update.
///
/// The partial cohort is built the way an operator would: a completed
/// campaign promotes the new golden, then an authorized per-device
/// downgrade (e.g. triaging a field regression) returns a few devices to
/// the previous image through the authenticated update path.
#[test]
fn partially_updated_cohort_reports_stale_not_tampered() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(10)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    // The bytes the previous firmware holds in the patch range.
    let span = usize::from(BENIGN_PATCH_TARGET)..usize::from(BENIGN_PATCH_TARGET) + 8;
    let old_bytes: Vec<u8> = fleet.devices()[0]
        .device()
        .cpu()
        .memory
        .slice(span)
        .to_vec();

    // Everyone updates; the patched image becomes golden, the previous
    // image is demoted to "stale but authentic".
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .unwrap();
    assert_eq!(report.outcome, CampaignOutcome::Completed { updated: 10 });

    // Authorized downgrade of three devices back to the previous bytes.
    let downgraded = [1u64, 4, 7];
    for &id in &downgraded {
        let key = verifier.device_key(id);
        let device = &mut fleet.devices_mut()[id as usize];
        let mut authority =
            UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
        let request = authority.authorize(BENIGN_PATCH_TARGET, &old_bytes);
        device.apply_update(&request).unwrap();
        device.reboot();
    }

    // The sweep distinguishes all three classes correctly: downgraded
    // devices are stale (authentic previous firmware), the rest attest
    // against the new golden, and nothing is misreported as tampered.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 7);
    assert_eq!(sweep.flagged_as(HealthClass::Stale), downgraded);
    assert_eq!(sweep.count(HealthClass::Tampered), 0);
    assert_eq!(sweep.count(HealthClass::Unverified), 0);

    // Stale devices are flagged in the ledger for operator follow-up.
    for &id in &downgraded {
        assert!(fleet.ledger().events().iter().any(|e| matches!(
            e,
            LedgerEvent::AttestationFlagged {
                device,
                class: HealthClass::Stale
            } if *device == id
        )));
    }

    // A stale device differs from a tampered one: flip a byte on one
    // downgraded device and it stops being stale.
    {
        let device = &mut fleet.devices_mut()[4];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE030);
        memory.write_byte(0xE030, original ^ 0x01);
    }
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.flagged_as(HealthClass::Stale), vec![1, 7]);
    assert_eq!(sweep.flagged_as(HealthClass::Tampered), vec![4]);
}

/// attestation sweep, a staged OTA campaign with an injected bad wave
/// (halts + rolls back), a good campaign (completes), and tampered
/// devices flagged — all in well under 60 s in release mode.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode scale test; run with `cargo test --release -p eilid_fleet`"
)]
fn thousand_device_fleet_sweep_and_staged_campaign() {
    let start = Instant::now();
    const DEVICES: usize = 1_000;

    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(DEVICES)
        .threads(8)
        .build()
        .unwrap();
    assert_eq!(fleet.len(), DEVICES);

    // 1. Baseline sweep: every device healthy.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), DEVICES);
    println!("baseline sweep: {sweep:?}");

    // 2. Injected bad wave: a bricking patch for the LightSensor cohort
    //    must halt on the canary and roll back.
    let cohort = WorkloadId::LightSensor;
    let cohort_size = fleet.cohort_members(cohort).len();
    let bad = CampaignConfig::new(cohort, BRICKING_PATCH_TARGET, bricking_patch());
    let bad_report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&bad)
        .unwrap();
    match bad_report.outcome {
        CampaignOutcome::HaltedAndRolledBack {
            wave, rolled_back, ..
        } => {
            assert_eq!(wave, 0);
            let canary = bad_report.waves[0].size;
            assert!(
                canary >= cohort_size / 12 && canary <= cohort_size / 8,
                "canary wave of {canary} is not ~10% of {cohort_size}"
            );
            assert_eq!(
                rolled_back, canary,
                "every updated canary device rolls back"
            );
        }
        other => panic!("bad wave was not halted: {other:?}"),
    }

    // 3. Good campaign on the same cohort completes in two waves.
    let good = CampaignConfig::new(cohort, BENIGN_PATCH_TARGET, benign_patch());
    let good_report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&good)
        .unwrap();
    assert_eq!(
        good_report.outcome,
        CampaignOutcome::Completed {
            updated: cohort_size
        }
    );

    // 4. Physical tampering on a handful of devices in another cohort.
    let tampered: Vec<u64> = fleet
        .cohort_members(WorkloadId::FireSensor)
        .into_iter()
        .take(5)
        .collect();
    for &id in &tampered {
        let device = &mut fleet.devices_mut()[id as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE020);
        memory.write_byte(0xE020, original ^ 0x80);
    }

    // 5. Final sweep: healthy devices attest (including the whole updated
    //    cohort against its new golden), tampered devices are flagged.
    let final_sweep = verifier.sweep(&mut fleet);
    assert_eq!(final_sweep.count(HealthClass::Tampered), tampered.len());
    assert_eq!(
        final_sweep.count(HealthClass::Attested),
        DEVICES - tampered.len()
    );
    assert_eq!(
        final_sweep.flagged_as(HealthClass::Tampered),
        tampered,
        "exactly the tampered devices are flagged"
    );
    println!("final sweep: {final_sweep:?}");

    let elapsed = start.elapsed();
    println!("scale test wall time: {elapsed:?}");
    assert!(
        elapsed.as_secs() < 60,
        "scale test took {elapsed:?}, budget is 60s"
    );
}
