//! The in-process `FleetOps` backend: trait semantics (lifecycle
//! errors, pause/resume through the byte record, health queries) and
//! equivalence with the raw `Campaign` engine it wraps.

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    Campaign, CampaignConfig, CampaignOutcome, CampaignPhase, CampaignStatus, FleetBuilder,
    FleetOps, HealthClass, LocalOps, OpsError,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn build(devices: usize) -> (eilid_fleet::Fleet, eilid_fleet::Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

fn config() -> CampaignConfig {
    CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch())
}

/// `run_campaign` through the trait equals the raw engine's report.
#[test]
fn run_campaign_matches_the_raw_engine() {
    let (mut fleet_a, mut verifier_a) = build(10);
    let mut run = Campaign::new(config())
        .unwrap()
        .begin(&mut fleet_a, &mut verifier_a)
        .unwrap();
    while run.step(&mut fleet_a, &mut verifier_a).unwrap() != CampaignStatus::Finished {}
    let report_engine = run.report().unwrap();

    let (mut fleet_b, mut verifier_b) = build(10);
    let report_trait = LocalOps::new(&mut fleet_b, &mut verifier_b)
        .run_campaign(&config())
        .unwrap();

    assert_eq!(report_trait, report_engine);
    assert_eq!(
        report_trait.outcome,
        CampaignOutcome::Completed { updated: 10 }
    );
}

/// The sweep summary agrees with the verifier's full report.
#[test]
fn sweep_summary_matches_the_full_report() {
    let (mut fleet, mut verifier) = build(8);
    // Tamper one device so the flagged list is non-trivial.
    {
        let device = &mut fleet.devices_mut()[3];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }
    let reference = verifier.sweep(&mut fleet);
    let summary = LocalOps::new(&mut fleet, &mut verifier).sweep().unwrap();
    assert_eq!(summary.devices, 8);
    assert_eq!(summary.count(HealthClass::Attested), 7);
    assert_eq!(summary.count(HealthClass::Tampered), 1);
    assert_eq!(summary.flagged, vec![(3, HealthClass::Tampered)]);
    assert_eq!(
        summary.count(HealthClass::Attested),
        reference.count(HealthClass::Attested)
    );
    assert_eq!(
        summary.count(HealthClass::Tampered),
        reference.count(HealthClass::Tampered)
    );
}

/// The campaign slot lifecycle: begin/step/status/report transitions
/// and their typed error cases.
#[test]
fn campaign_slot_lifecycle_and_errors() {
    let (mut fleet, mut verifier) = build(10);
    let mut ops = LocalOps::new(&mut fleet, &mut verifier);

    // Nothing loaded yet.
    assert_eq!(ops.campaign_status().unwrap(), CampaignPhase::Idle);
    assert!(matches!(ops.campaign_step(), Err(OpsError::NoCampaign)));
    assert!(matches!(ops.campaign_report(), Err(OpsError::NoCampaign)));
    assert!(matches!(ops.campaign_pause(), Err(OpsError::NoCampaign)));

    // Load, double-begin refused.
    ops.campaign_begin(&config()).unwrap();
    assert_eq!(
        ops.campaign_status().unwrap(),
        CampaignPhase::InProgress { next_wave: 0 }
    );
    assert!(matches!(
        ops.campaign_begin(&config()),
        Err(OpsError::CampaignActive)
    ));

    // Step to completion.
    assert_eq!(
        ops.campaign_step().unwrap(),
        CampaignStatus::InProgress { next_wave: 1 }
    );
    assert_eq!(ops.campaign_step().unwrap(), CampaignStatus::Finished);
    assert_eq!(ops.campaign_status().unwrap(), CampaignPhase::Finished);
    let report = ops.campaign_report().unwrap();
    assert_eq!(report.outcome, CampaignOutcome::Completed { updated: 10 });

    // A finished run cannot be paused (same refusal as the gateway
    // backend), and its report stays readable afterwards.
    assert!(matches!(ops.campaign_pause(), Err(OpsError::NoCampaign)));
    assert_eq!(ops.campaign_report().unwrap(), report);

    // Health reflects fleet + slot state.
    let health = ops.health().unwrap();
    assert_eq!(health.devices, 10);
    assert_eq!(health.campaign, CampaignPhase::Finished);
    assert!(health.ledger_events > 0);
}

/// Pause hands the caller the `PausedCampaign` bytes; resuming them on
/// the same backend finishes bit-for-bit like an uninterrupted run.
#[test]
fn pause_resume_through_the_trait_is_lossless() {
    let (mut fleet_a, mut verifier_a) = build(10);
    let report_reference = LocalOps::new(&mut fleet_a, &mut verifier_a)
        .run_campaign(&config())
        .unwrap();

    let (mut fleet_b, mut verifier_b) = build(10);
    let mut ops = LocalOps::new(&mut fleet_b, &mut verifier_b);
    ops.campaign_begin(&config()).unwrap();
    assert_eq!(
        ops.campaign_step().unwrap(),
        CampaignStatus::InProgress { next_wave: 1 }
    );
    let paused = ops.campaign_pause().unwrap();
    // The slot is empty while the caller owns the bytes.
    assert_eq!(ops.campaign_status().unwrap(), CampaignPhase::Idle);
    assert!(matches!(ops.campaign_step(), Err(OpsError::NoCampaign)));

    ops.campaign_resume(&paused).unwrap();
    assert_eq!(
        ops.campaign_status().unwrap(),
        CampaignPhase::InProgress { next_wave: 1 }
    );
    while ops.campaign_step().unwrap() != CampaignStatus::Finished {}
    assert_eq!(ops.campaign_report().unwrap(), report_reference);

    // A finished run does not block a resume (it would be replaced, as
    // on the gateway), so malformed bytes surface as a typed error and
    // leave the finished run's report readable.
    assert!(matches!(
        ops.campaign_resume(b"not a paused campaign"),
        Err(OpsError::Fleet(_))
    ));
    assert_eq!(ops.campaign_report().unwrap(), report_reference);
}

/// Invalid configs and unknown cohorts surface as `OpsError::Fleet`.
#[test]
fn invalid_campaigns_are_typed_fleet_errors() {
    let (mut fleet, mut verifier) = build(4);
    let mut ops = LocalOps::new(&mut fleet, &mut verifier);

    let mut bad = config();
    bad.payload.clear();
    assert!(matches!(ops.campaign_begin(&bad), Err(OpsError::Fleet(_))));

    let mut foreign = config();
    foreign.cohort = WorkloadId::FireSensor; // not in this fleet
    assert!(matches!(
        ops.campaign_begin(&foreign),
        Err(OpsError::Fleet(_))
    ));

    // Rejected begins leave the slot clean.
    assert_eq!(ops.campaign_status().unwrap(), CampaignPhase::Idle);
}
