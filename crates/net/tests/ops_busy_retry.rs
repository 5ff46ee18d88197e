//! Satellite regression: a device-scoped `DeviceError{Busy}` shed by a
//! device agent during a campaign push (snapshot, update or probe) must
//! be *retried with backoff* by the gateway's campaign engine — never
//! counted as a probe failure. A scripted agent sheds the first few
//! pushes; the campaign still completes with zero failures and a report
//! identical to an in-process run on an unshedding fleet.
//!
//! A second scripted agent answers a gateway sweep with hostile timing
//! (out of order, duplicated, stray, shed-then-answered, a report for a
//! challenge never issued, and a hang-up with devices unanswered). The
//! gateway verifies replies as they land, so both sweep verbs must
//! still count each device once and verify each answered report exactly
//! once.

use std::sync::Arc;
use std::time::Duration;

use eilid::RunOutcome;
use eilid_casu::{merkle_measure_pmem, AttestationReport, Challenge, DeviceKey};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, Fleet, FleetBuilder, FleetOps, HealthClass, LocalOps,
    OpsError, SweepSummary, Verifier,
};
use eilid_net::{
    AttestationService, ErrorCode, Frame, Gateway, GatewayConfig, NetError, ProbeMode, RemoteOps,
    TcpTransport, Transport, PROTOCOL_VERSION,
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

/// Connects a scripted agent to the gateway, negotiates, and attaches
/// every device in `devices`, waiting for each acknowledgement.
fn connect_and_attach(
    addr: std::net::SocketAddr,
    devices: &[eilid_fleet::SimDevice],
) -> Result<TcpTransport, NetError> {
    let mut transport = TcpTransport::connect_with_timeout(addr, Duration::from_millis(100))?;
    transport.send(&Frame::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    })?;
    assert!(matches!(transport.recv()?, Frame::HelloAck { .. }));
    let attaches: Vec<Frame> = devices
        .iter()
        .map(|device| Frame::Attach {
            device: device.id(),
            cohort: device.cohort(),
        })
        .collect();
    transport.send_batch(&attaches)?;
    let mut acked = 0;
    while acked < devices.len() {
        match transport.recv() {
            Ok(Frame::AttachAck { .. }) => acked += 1,
            Ok(other) => panic!("unexpected frame during attach: {other:?}"),
            Err(NetError::Timeout) => continue,
            Err(err) => return Err(err),
        }
    }
    Ok(transport)
}

/// A hand-rolled device agent that sheds the first `sheds` campaign
/// pushes with a device-scoped `Busy` before serving normally — the
/// device-side shape of transient backpressure. When `busy_device` is
/// set, every push at that one device is shed forever while the rest
/// of the fleet serves immediately.
fn scripted_busy_agent(
    addr: std::net::SocketAddr,
    devices: &mut [eilid_fleet::SimDevice],
    mut sheds: usize,
    busy_device: Option<u64>,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(), NetError> {
    let mut transport = connect_and_attach(addr, devices)?;
    let find = |devices: &mut [eilid_fleet::SimDevice], id: u64| {
        devices.iter_mut().position(|d| d.id() == id).unwrap()
    };
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(NetError::Timeout) => {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Err(NetError::Closed) => return Ok(()),
            Err(err) => return Err(err),
        };
        // Shed the first pushes of any kind: the engine must retry,
        // not fail the device.
        let device_of = match &frame {
            Frame::SnapshotRequest { device, .. }
            | Frame::DeltaUpdateRequest { device, .. }
            | Frame::ProbeRequest { device, .. } => Some(*device),
            _ => None,
        };
        if let Some(device) = device_of {
            if busy_device == Some(device) {
                transport.send(&Frame::DeviceError {
                    device,
                    code: ErrorCode::Busy,
                })?;
                continue;
            }
            if sheds > 0 {
                sheds -= 1;
                transport.send(&Frame::DeviceError {
                    device,
                    code: ErrorCode::Busy,
                })?;
                continue;
            }
        }
        match frame {
            Frame::SnapshotRequest { device, start, len } => {
                let index = find(devices, device);
                let sim = &mut devices[index];
                let last_nonce = sim.engine().last_nonce();
                let version = sim.engine().last_version();
                let memory = &sim.device().cpu().memory;
                let measurement = merkle_measure_pmem(memory);
                let data = memory
                    .slice(usize::from(start)..usize::from(start) + usize::from(len))
                    .to_vec();
                transport.send(&Frame::SnapshotReport {
                    device,
                    last_nonce,
                    version,
                    measurement,
                    data,
                })?;
            }
            Frame::DeltaUpdateRequest { device, request } => {
                let index = find(devices, device);
                let status = match devices[index].apply_delta_update(&request) {
                    Ok(()) => 0,
                    Err(_) => 1,
                };
                transport.send(&Frame::UpdateResult { device, status })?;
            }
            Frame::ProbeRequest {
                device,
                mode,
                smoke_cycles,
                challenge,
            } => {
                let index = find(devices, device);
                let sim = &mut devices[index];
                let (healthy, report) = match mode {
                    ProbeMode::AttestOnly => (1, sim.attest(challenge)),
                    ProbeMode::UpdateAttest => {
                        let report = sim.attest(challenge);
                        sim.reboot();
                        (2, report)
                    }
                    ProbeMode::UpdateProbe => {
                        let report = sim.attest(challenge);
                        sim.reboot();
                        let outcome = sim.run_slice(smoke_cycles);
                        let healthy = matches!(
                            outcome,
                            RunOutcome::Completed { .. } | RunOutcome::Timeout { .. }
                        );
                        (u8::from(healthy), report)
                    }
                    ProbeMode::RollbackVerify => {
                        sim.reboot();
                        (1, sim.attest(challenge))
                    }
                };
                transport.send(&Frame::ProbeResult {
                    device,
                    healthy,
                    report,
                })?;
            }
            Frame::Bye => return Ok(()),
            other => panic!("unexpected frame at scripted agent: {other:?}"),
        }
    }
}

/// Busy sheds during campaign pushes are invisible in the report: the
/// engine retries with backoff and every wave completes with zero
/// failures, identical to an in-process run that never saw a shed.
#[test]
fn busy_sheds_during_campaign_pushes_are_retried_not_probe_failed() {
    // In-process reference on an identical fleet.
    let (mut fleet_a, mut verifier_a) = build(8);
    let report_a = LocalOps::new(&mut fleet_a, &mut verifier_a)
        .run_campaign(&config())
        .unwrap();
    assert_eq!(report_a.outcome, CampaignOutcome::Completed { updated: 8 });

    // Wire run through a scripted agent that sheds the first 5 pushes.
    let (mut fleet_b, mut verifier_b) = build(8);
    let service = Arc::new(AttestationService::new(
        verifier_b.service_snapshot(1 << 20),
    ));
    let handle = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .unwrap()
        .spawn();
    let addr = handle.addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let report_b = std::thread::scope(|scope| {
        let agent =
            scope.spawn(|| scripted_busy_agent(addr, fleet_b.devices_mut(), 5, None, &stop));
        // The agent attaches before serving; give it a moment, then
        // drive the campaign.
        std::thread::sleep(Duration::from_millis(200));
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&config())?;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        agent.join().expect("agent thread panicked").unwrap();
        Ok::<_, OpsError>(report)
    })
    .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(
        report_b, report_a,
        "busy sheds must be retried away, leaving the report identical"
    );
    assert!(
        report_b.waves.iter().all(|wave| wave.failures == 0),
        "no shed may surface as a wave failure: {:?}",
        report_b.waves
    );
}

/// Head-of-line regression: one permanently busy device amid fast ones
/// must not stall the wave. The engine's backoff used to `sleep` on the
/// single engine thread (up to 50 ms per retry, serialising everyone
/// behind the slow device); retry deadlines now live inside the event
/// loop, so the seven fast devices stream to completion while the busy
/// one backs off in parallel, fails its bounded retry budget, and is
/// the wave's only casualty.
#[test]
fn permanently_busy_device_does_not_stall_the_fast_ones() {
    let (mut fleet, mut verifier) = build(8);
    // The busy device must not be the canary (the first in wave
    // order), or the whole campaign halts at wave 0 by design.
    let busy = fleet.devices().iter().map(|d| d.id()).max().unwrap();
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        service,
        GatewayConfig {
            ops_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::time::Instant::now();
    let report = std::thread::scope(|scope| {
        let agent =
            scope.spawn(|| scripted_busy_agent(addr, fleet.devices_mut(), 0, Some(busy), &stop));
        std::thread::sleep(Duration::from_millis(200));
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&config())?;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        agent.join().expect("agent thread panicked").unwrap();
        Ok::<_, OpsError>(report)
    })
    .unwrap();
    let elapsed = start.elapsed();
    handle.shutdown().unwrap();

    // 1/7 failures in the full wave is under the 25% halt threshold:
    // the seven fast devices complete, the busy one is the only loss.
    assert_eq!(
        report.outcome,
        CampaignOutcome::Completed { updated: 7 },
        "fast devices must complete despite the permanently busy one"
    );
    assert_eq!(
        report.waves.iter().map(|w| w.failures).sum::<usize>(),
        1,
        "exactly the busy device fails: {:?}",
        report.waves
    );
    // The busy device's whole backoff ladder sums to ~150 ms; nothing
    // here justifies serialised-sleep wall time.
    assert!(
        elapsed < Duration::from_secs(20),
        "wave stalled behind the busy device: {elapsed:?}"
    );
}

/// A device that stays busy past the engine's retry budget is *then* a
/// failure — bounded retries, not an infinite loop.
#[test]
fn permanently_busy_device_eventually_fails_the_wave() {
    let (mut fleet, mut verifier) = build(4);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        service,
        GatewayConfig {
            ops_timeout: Duration::from_secs(2),
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    // Shed effectively forever: every push is answered Busy.
    let report = std::thread::scope(|scope| {
        let agent =
            scope.spawn(|| scripted_busy_agent(addr, fleet.devices_mut(), usize::MAX, None, &stop));
        std::thread::sleep(Duration::from_millis(200));
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&config())?;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        agent.join().expect("agent thread panicked").unwrap();
        Ok::<_, OpsError>(report)
    })
    .unwrap();
    handle.shutdown().unwrap();

    // Every wave fails outright (no snapshot ever lands), the campaign
    // halts at the canary, and nothing was updated to roll back.
    assert!(matches!(
        report.outcome,
        CampaignOutcome::HaltedAndRolledBack {
            wave: 0,
            rolled_back: 0,
            ..
        }
    ));
}

/// The hostile sweep script: which devices get which treatment.
struct HostileScript {
    /// Shed with `Busy` first, answered once the gateway re-pushes.
    shed: u64,
    /// Answered twice.
    duplicated: u64,
    /// Never answered: the agent hangs up with these outstanding.
    unanswered: [u64; 2],
    /// An id the gateway never challenged; the agent sends it a reply.
    stray: u64,
    /// Answered with a report for a challenge it was never issued.
    replayed: u64,
}

fn probe_result(device: u64, report: AttestationReport) -> Frame {
    Frame::ProbeResult {
        device,
        healthy: 1,
        report,
    }
}

/// A scripted agent that answers exactly one gateway sweep with
/// hostile timing, over a connection `connect_and_attach` set up. It
/// collects every probe first, then: sheds `script.shed` with `Busy`;
/// answers the rest in descending id order, sending
/// `script.duplicated`'s reply twice, `script.replayed`'s attesting a
/// challenge whose nonce was never issued, and a reply for the never
/// challenged `script.stray`; answers the shed device when the gateway
/// re-pushes it; and hangs up with `script.unanswered` outstanding.
fn hostile_sweep_agent(
    mut transport: TcpTransport,
    devices: &mut [eilid_fleet::SimDevice],
    script: &HostileScript,
) -> Result<(), NetError> {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let next_probe = |transport: &mut TcpTransport| loop {
        match transport.recv() {
            Ok(Frame::ProbeRequest {
                device, challenge, ..
            }) => return Ok((device, challenge)),
            Ok(other) => panic!("unexpected frame at hostile agent: {other:?}"),
            Err(NetError::Timeout) if std::time::Instant::now() < deadline => continue,
            Err(err) => return Err(err),
        }
    };
    let mut probes = std::collections::BTreeMap::new();
    while probes.len() < devices.len() {
        let (device, challenge) = next_probe(&mut transport)?;
        probes.insert(device, challenge);
    }
    let mut reply = |device: u64, challenge: Challenge| {
        let sim = devices.iter_mut().find(|sim| sim.id() == device).unwrap();
        probe_result(device, sim.attest(challenge))
    };

    transport.send(&Frame::DeviceError {
        device: script.shed,
        code: ErrorCode::Busy,
    })?;
    let mut duplicate = None;
    for (&device, &challenge) in probes.iter().rev() {
        if device == script.shed || script.unanswered.contains(&device) {
            continue;
        }
        let frame = if device == script.replayed {
            let forged = Challenge {
                nonce: challenge.nonce ^ 0x5A5A,
                ..challenge
            };
            reply(device, forged)
        } else {
            reply(device, challenge)
        };
        transport.send(&frame)?;
        if device == script.duplicated {
            duplicate = Some(frame);
        }
    }
    let Some(Frame::ProbeResult { report, .. }) = duplicate else {
        panic!("the duplicated device was probed and answered");
    };
    transport.send(&probe_result(script.duplicated, report))?;
    transport.send(&probe_result(script.stray, report))?;

    let (device, challenge) = next_probe(&mut transport)?;
    assert_eq!(device, script.shed, "only the shed device is re-pushed");
    transport.send(&reply(device, challenge))?;
    // Dropping the transport hangs up with the unanswered devices
    // still pending at the gateway.
    Ok(())
}

/// Both sweep verbs under hostile reply timing: a duplicate counts
/// once, a stray reply is ignored, a shed-then-answered device is
/// `Attested`, a report for a challenge never issued is verified once
/// and `Unverified`, the devices left unanswered at hang-up are
/// `Unverified` (promptly, not at the idle timeout), and the gateway
/// verifies each distinct answered report exactly once.
#[test]
fn sweeps_verify_each_reply_once_under_hostile_timing() {
    const DEVICES: usize = 8;
    let script = HostileScript {
        shed: 1,
        duplicated: 4,
        unanswered: [3, 6],
        stray: 1_000,
        replayed: 5,
    };
    let (mut fleet, mut verifier) = build(DEVICES);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig {
            ops_timeout: Duration::from_secs(60),
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();
    let mut ops = RemoteOps::connect(addr).unwrap();
    ops.set_agg_root_key(ROOT);

    let mut flagged: Vec<(u64, HealthClass)> = script
        .unanswered
        .iter()
        .chain([&script.replayed])
        .map(|&device| (device, HealthClass::Unverified))
        .collect();
    flagged.sort_unstable();
    let expected = SweepSummary {
        devices: DEVICES,
        counts: [DEVICES - 3, 0, 0, 3],
        flagged,
    };
    let answered = (DEVICES - script.unanswered.len()) as u64;
    for aggregated in [false, true] {
        // The hang-up dropped every registration, so each sweep gets a
        // fresh connection.
        let transport = connect_and_attach(addr, fleet.devices()).unwrap();
        let verified_before = service.stats().reports_verified();
        let start = std::time::Instant::now();
        let summary = std::thread::scope(|scope| {
            let agent =
                scope.spawn(|| hostile_sweep_agent(transport, fleet.devices_mut(), &script));
            let summary = if aggregated {
                ops.sweep_aggregated().map(|agg| agg.summary)
            } else {
                ops.sweep()
            };
            agent.join().expect("agent thread panicked").unwrap();
            summary.unwrap()
        });
        let elapsed = start.elapsed();

        assert_eq!(summary, expected, "aggregated: {aggregated}");
        assert_eq!(
            service.stats().reports_verified() - verified_before,
            answered,
            "each distinct answered report is verified exactly once (aggregated: {aggregated})"
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "the hang-up, not the idle timeout, ends the sweep: {elapsed:?}"
        );
    }
    handle.shutdown().unwrap();
}
