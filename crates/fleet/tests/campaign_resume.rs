//! Resumable-campaign tests: pause between waves, persist the state as
//! bytes, resume, and end up bit-for-bit where an uninterrupted run
//! would have — plus the rollback-verification path that only a
//! *physical* mid-campaign attacker can still trigger now that the
//! bus-level pre-commit veto stops software from corrupting PMEM.

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    Campaign, CampaignConfig, CampaignOutcome, CampaignStatus, FleetBuilder, FleetOps, HealthClass,
    LedgerEvent, PausedCampaign,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn root_key() -> DeviceKey {
    DeviceKey::new(ROOT).unwrap()
}

fn build(devices: usize) -> (eilid_fleet::Fleet, eilid_fleet::Verifier) {
    FleetBuilder::new(root_key())
        .devices(devices)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

/// A campaign paused after the canary wave, serialised to bytes,
/// deserialised and resumed must produce exactly the report (and leave
/// the fleet in exactly the sweep-visible state) of an uninterrupted
/// run on an identical fleet.
#[test]
fn paused_then_resumed_campaign_matches_uninterrupted_run() {
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());

    // Reference: uninterrupted run (through the operator plane).
    let (mut fleet_a, mut verifier_a) = build(10);
    let report_a = eilid_fleet::LocalOps::new(&mut fleet_a, &mut verifier_a)
        .run_campaign(&config)
        .unwrap();
    assert_eq!(report_a.outcome, CampaignOutcome::Completed { updated: 10 });

    // Same campaign on an identical fleet, paused + persisted between
    // the canary wave and the full wave.
    let (mut fleet_b, mut verifier_b) = build(10);
    let campaign = Campaign::new(config).unwrap();
    let mut run = campaign.begin(&mut fleet_b, &mut verifier_b).unwrap();
    assert_eq!(run.wave_cursor(), 0);
    let status = run.step(&mut fleet_b, &mut verifier_b).unwrap();
    assert_eq!(status, CampaignStatus::InProgress { next_wave: 1 });

    let paused = run.pause();
    assert_eq!(paused.wave_cursor(), 1, "the wave cursor is persisted");
    let bytes = paused.to_bytes();
    let restored = PausedCampaign::from_bytes(&bytes).unwrap();
    assert_eq!(restored, paused, "byte round-trip is lossless");

    let mut resumed = Campaign::resume(restored);
    while resumed.step(&mut fleet_b, &mut verifier_b).unwrap() != CampaignStatus::Finished {}
    let report_b = resumed.report().unwrap();

    assert_eq!(
        report_b, report_a,
        "a paused-then-resumed campaign must report exactly like an uninterrupted one"
    );

    // And the fleets are observably identical afterwards: same golden,
    // same sweep classification.
    assert_eq!(
        verifier_a.expected_measurement(WorkloadId::LightSensor),
        verifier_b.expected_measurement(WorkloadId::LightSensor)
    );
    let sweep_a = verifier_a.sweep(&mut fleet_a);
    let sweep_b = verifier_b.sweep(&mut fleet_b);
    assert_eq!(sweep_a.count(HealthClass::Attested), 10);
    assert_eq!(sweep_b.count(HealthClass::Attested), 10);
}

/// Pausing immediately (before any wave) and resuming is also lossless.
#[test]
fn pause_before_the_first_wave_resumes_from_the_start() {
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let (mut fleet, mut verifier) = build(6);
    let campaign = Campaign::new(config).unwrap();
    let run = campaign.begin(&mut fleet, &mut verifier).unwrap();
    let paused = run.pause();
    assert_eq!(paused.wave_cursor(), 0);
    let restored = PausedCampaign::from_bytes(&paused.to_bytes()).unwrap();
    let mut resumed = Campaign::resume(restored);
    while resumed.step(&mut fleet, &mut verifier).unwrap() != CampaignStatus::Finished {}
    assert_eq!(
        resumed.report().unwrap().outcome,
        CampaignOutcome::Completed { updated: 6 }
    );
}

/// Corrupt bytes are a typed error, never a panic.
#[test]
fn malformed_paused_campaign_bytes_are_rejected() {
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let (mut fleet, mut verifier) = build(4);
    let paused = Campaign::new(config)
        .unwrap()
        .begin(&mut fleet, &mut verifier)
        .unwrap()
        .pause();
    let bytes = paused.to_bytes();

    // Truncations at every plausible boundary.
    for cut in [0usize, 3, 4, 17, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            PausedCampaign::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(PausedCampaign::from_bytes(&bad).is_err());
    // Trailing garbage.
    let mut bad = bytes.clone();
    bad.push(0);
    assert!(PausedCampaign::from_bytes(&bad).is_err());
    // Unknown cohort index.
    let mut bad = bytes;
    bad[4] = 0xEE;
    assert!(PausedCampaign::from_bytes(&bad).is_err());
}

/// With the pre-commit veto, campaign firmware can no longer corrupt
/// PMEM outside its patch range — but a *physical* attacker striking
/// while a campaign is paused still can. The rollback verification must
/// catch exactly that: the tampered device's post-rollback measurement
/// differs from its pre-update snapshot, so it is reported
/// `RollbackIncomplete` while untampered devices roll back clean.
#[test]
fn mid_pause_physical_tamper_is_reported_rollback_incomplete() {
    let (mut fleet, mut verifier) = build(10);

    // Pre-tamper three non-canary devices in the unused PMEM gap: their
    // post-update probes will fail, pushing the full wave's failure rate
    // (3/9) over the 0.25 threshold — the campaign halts and rolls back.
    for &victim in &[3u64, 5, 7] {
        let device = &mut fleet.devices_mut()[victim as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xF680);
        memory.write_byte(0xF680, original ^ 0x01);
    }

    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let campaign = Campaign::new(config).unwrap();
    let mut run = campaign.begin(&mut fleet, &mut verifier).unwrap();

    // Canary wave (device 0) passes.
    assert_eq!(
        run.step(&mut fleet, &mut verifier).unwrap(),
        CampaignStatus::InProgress { next_wave: 1 }
    );
    let paused = run.pause();

    // While the campaign is paused, a physical attacker flips a byte on
    // the already-updated canary, *outside* the patch range. Its
    // pre-update snapshot was taken before the tamper, so no rollback of
    // the patch range can restore that measurement.
    {
        let device = &mut fleet.devices_mut()[0];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xF680);
        memory.write_byte(0xF680, original ^ 0x01);
    }

    let mut resumed = Campaign::resume(PausedCampaign::from_bytes(&paused.to_bytes()).unwrap());
    while resumed.step(&mut fleet, &mut verifier).unwrap() != CampaignStatus::Finished {}
    let report = resumed.report().unwrap();

    match report.outcome {
        CampaignOutcome::HaltedAndRolledBack {
            wave, rolled_back, ..
        } => {
            assert_eq!(wave, 1, "the full wave trips the threshold");
            // All 10 devices updated; 9 roll back verified, the tampered
            // canary cannot be restored to its snapshot.
            assert_eq!(rolled_back, 9);
        }
        other => panic!("campaign was not halted: {other:?}"),
    }
    assert_eq!(
        report.rollback_incomplete,
        vec![0],
        "the mid-pause-tampered canary must be named"
    );
    assert!(fleet
        .ledger()
        .events()
        .iter()
        .any(|e| matches!(e, LedgerEvent::RollbackIncomplete { device: 0 })));

    // The next sweep flags exactly the physically tampered devices
    // (canary + the three pre-tampered ones); the rest attest clean.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.flagged_as(HealthClass::Tampered), vec![0, 3, 5, 7]);
    assert_eq!(sweep.count(HealthClass::Attested), 6);
}

/// `record` with its config's patch target replaced. The config section
/// follows the 4-byte magic and opens `cohort:u8 ‖ target:u16`.
fn with_target(record: &[u8], target: u16) -> Vec<u8> {
    let mut forged = record.to_vec();
    forged[5..7].copy_from_slice(&target.to_le_bytes());
    forged
}

/// A record whose patch runs past the 64 KiB address space is refused
/// when it is decoded, like the same config at begin, instead of
/// loading and then panicking on the next step's memory slice.
#[test]
fn record_whose_patch_overruns_the_address_space_is_refused() {
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let len = config.payload.len();
    let (mut fleet, mut verifier) = build(4);
    let record = Campaign::new(config)
        .unwrap()
        .begin(&mut fleet, &mut verifier)
        .unwrap()
        .pause()
        .to_bytes();

    let last_fit = (0x1_0000 - len) as u16;
    assert!(PausedCampaign::from_bytes(&with_target(&record, last_fit)).is_ok());
    let forged = with_target(&record, last_fit + 1);
    let err = PausedCampaign::from_bytes(&forged).unwrap_err();
    assert!(err.to_string().contains("64 KiB"), "{err}");

    let mut ops = eilid_fleet::LocalOps::new(&mut fleet, &mut verifier);
    assert!(ops.campaign_resume(&forged).is_err());
    assert!(matches!(
        ops.campaign_step(),
        Err(eilid_fleet::OpsError::NoCampaign)
    ));
}
