//! Wire-driven pause/resume — the TCP mirror of the in-process
//! `campaign_resume.rs` suite, plus the failure modes only a networked
//! operator plane has: the operator connection dying mid-wave (the
//! gateway keeps the run alive for a recovery console) and a full
//! gateway restart bridged by the persisted `PausedCampaign` bytes.

use std::sync::Arc;
use std::time::Duration;

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, CampaignPhase, CampaignReport, CampaignStatus, Fleet,
    FleetBuilder, FleetOps, LocalOps, OpsError, Verifier,
};
use eilid_net::{
    with_attached_fleet, AttestationService, Frame, Gateway, GatewayConfig, GatewayHandle,
    RemoteOps, TcpTransport, Transport, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const COHORT: WorkloadId = WorkloadId::LightSensor;

fn build(devices: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[COHORT])
        .build()
        .unwrap()
}

fn config() -> CampaignConfig {
    let mut config = CampaignConfig::new(COHORT, BENIGN_PATCH_TARGET, benign_patch());
    config.smoke_cycles = 200_000;
    config
}

fn spawn_gateway(verifier: &mut Verifier) -> GatewayHandle {
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .unwrap()
        .spawn()
}

/// Reference: one uninterrupted wire-driven run.
fn uninterrupted_reference(devices: usize) -> CampaignReport {
    let (mut fleet, mut verifier) = build(devices);
    let handle = spawn_gateway(&mut verifier);
    let addr = handle.addr();
    let report = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.run_campaign(&config())
    })
    .unwrap()
    .unwrap();
    handle.shutdown().unwrap();
    report
}

/// The full satellite scenario:
///
/// 1. the operator fires the canary-wave step and its connection dies
///    before the reply (operator crash mid-wave);
/// 2. a recovery console adopts the cohort, waits out the wave, and
///    pauses the campaign into persisted bytes;
/// 3. the gateway itself is shut down and a *new* gateway starts;
/// 4. the devices re-attach, the campaign resumes from the persisted
///    bytes over `OpResume`, and runs to completion.
///
/// The final report must be bit-for-bit equal to an uninterrupted
/// wire-driven run on an identical fleet.
#[test]
fn operator_crash_pause_and_gateway_restart_resume_is_lossless() {
    let report_reference = uninterrupted_reference(10);
    assert_eq!(
        report_reference.outcome,
        CampaignOutcome::Completed { updated: 10 }
    );

    let (mut fleet, mut verifier) = build(10);

    // --- First gateway: begin, crash mid-wave, recover, pause. ---
    let handle = spawn_gateway(&mut verifier);
    let addr = handle.addr();
    let paused_bytes = with_attached_fleet(&mut fleet, 2, addr, || {
        // The doomed operator: raw frames so we can vanish without
        // waiting for the step reply.
        let mut doomed = TcpTransport::connect(addr).unwrap();
        doomed
            .send(&Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            })
            .unwrap();
        assert!(matches!(doomed.recv().unwrap(), Frame::HelloAck { .. }));
        doomed.send(&Frame::OpBegin { config: config() }).unwrap();
        assert!(matches!(
            doomed.recv().unwrap(),
            Frame::CampaignStatus { .. }
        ));
        doomed.send(&Frame::OpStep { cohort: COHORT }).unwrap();
        // Give the reactor a beat to read the step off the socket, then
        // die without ever seeing the reply.
        std::thread::sleep(Duration::from_millis(100));
        drop(doomed); // the connection dies while the wave executes

        // Recovery console: adopt the cohort and wait for the wave to
        // land (mid-wave queries are answered Busy; retry).
        let mut recovery = RemoteOps::connect(addr).unwrap();
        recovery.adopt(COHORT);
        let mut waited = 0;
        loop {
            match recovery.campaign_status() {
                Ok(CampaignPhase::InProgress { next_wave: 1 }) => break,
                Ok(CampaignPhase::InProgress { next_wave: 0 }) | Err(OpsError::Backend(_)) => {
                    waited += 1;
                    assert!(waited < 2_000, "canary wave never completed");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("unexpected campaign phase: {other:?}"),
            }
        }
        recovery.campaign_pause().unwrap()
    })
    .unwrap();
    handle.shutdown().unwrap();

    // --- Second gateway (fresh process state): resume from bytes. ---
    let handle = spawn_gateway(&mut verifier);
    let addr = handle.addr();
    let report = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.campaign_resume(&paused_bytes)?;
        assert_eq!(
            ops.campaign_status()?,
            CampaignPhase::InProgress { next_wave: 1 },
            "the persisted wave cursor survived the gateway restart"
        );
        while ops.campaign_step()? != CampaignStatus::Finished {}
        ops.campaign_report()
    })
    .unwrap()
    .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(
        report, report_reference,
        "a wire campaign paused across an operator crash and a gateway \
         restart must report bit-for-bit like an uninterrupted one"
    );
}

/// Pausing before any wave and resuming on the same gateway (the
/// retained-slot `CampaignOp::Resume` path, no bytes crossing the
/// operator) is also lossless.
#[test]
fn retained_pause_resume_on_the_same_gateway_is_lossless() {
    let report_reference = uninterrupted_reference(8);

    let (mut fleet, mut verifier) = build(8);
    let handle = spawn_gateway(&mut verifier);
    let addr = handle.addr();
    let report = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.campaign_begin(&config())?;
        let paused = ops.campaign_pause()?;
        assert!(
            paused.len() > eilid_net::MAX_FRAME_PAYLOAD,
            "the paused record (64 KiB golden + snapshots) exercises the \
             operator-plane frame ceiling"
        );
        // Resume the gateway-retained slot (no bytes needed).
        ops.resume_retained()?;
        while ops.campaign_step()? != CampaignStatus::Finished {}
        ops.campaign_report()
    })
    .unwrap()
    .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(report, report_reference);
}

/// A finished run only keeps its report readable: resuming paused bytes
/// replaces it on both backends (in-process and over the gateway's
/// `OpResume`), exactly as `campaign_begin` does.
#[test]
fn resume_replaces_a_finished_run_on_both_backends() {
    let (mut fleet, mut verifier) = build(8);
    let mut local = LocalOps::new(&mut fleet, &mut verifier);
    local.campaign_begin(&config()).unwrap();
    local.campaign_step().unwrap();
    let paused = local.campaign_pause().unwrap();
    local.campaign_resume(&paused).unwrap();
    while local.campaign_step().unwrap() != CampaignStatus::Finished {}
    let local_report = local.campaign_report().unwrap();
    local.campaign_resume(&paused).unwrap();
    let local_phase = local.campaign_status().unwrap();

    let (mut fleet, mut verifier) = build(8);
    let handle = spawn_gateway(&mut verifier);
    let addr = handle.addr();
    let (remote_report, remote_phase) = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.campaign_begin(&config())?;
        ops.campaign_step()?;
        let paused = ops.campaign_pause()?;
        ops.resume_retained()?;
        while ops.campaign_step()? != CampaignStatus::Finished {}
        let report = ops.campaign_report()?;
        ops.campaign_resume(&paused)?;
        Ok::<_, OpsError>((report, ops.campaign_status()?))
    })
    .unwrap()
    .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(remote_report, local_report);
    assert_eq!(local_phase, CampaignPhase::InProgress { next_wave: 1 });
    assert_eq!(remote_phase, local_phase);
}
