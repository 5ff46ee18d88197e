//! End-to-end protocol tests over real loopback TCP through the
//! non-blocking gateway: the gateway challenges, device agents answer,
//! the operator console reads the verdicts. The session's per-frame
//! rules are unit-tested on `Session::handle` itself.

use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use eilid_casu::{DeltaUpdateRequest, DeviceKey, UpdateError};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{CampaignConfig, Fleet, FleetBuilder, FleetOps, HealthClass, SweepSummary};
use eilid_net::{
    with_attached_fleet, AttestationService, ErrorCode, Frame, Gateway, GatewayConfig,
    GatewayHandle, NetError, PipeTransport, RemoteOps, TcpTransport, Transport, PROTOCOL_VERSION,
    TRACE_CAT_ENGINE, TRACE_ENGINE_WAVE,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn root_key() -> DeviceKey {
    DeviceKey::new(ROOT).unwrap()
}

fn build_fleet(devices: usize) -> (eilid_fleet::Fleet, eilid_fleet::Verifier) {
    FleetBuilder::new(root_key())
        .devices(devices)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

fn spawn_gateway(service: &Arc<AttestationService>, config: GatewayConfig) -> GatewayHandle {
    Gateway::bind(("127.0.0.1", 0), Arc::clone(service), config)
        .unwrap()
        .spawn()
}

/// One gateway sweep of `fleet`, its devices attached over `agents`
/// agent connections.
fn sweep_through_agents(fleet: &mut Fleet, agents: usize, addr: SocketAddr) -> SweepSummary {
    with_attached_fleet(fleet, agents, addr, || {
        RemoteOps::connect(addr).unwrap().sweep().unwrap()
    })
    .unwrap()
}

fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

fn tamper(fleet: &mut eilid_fleet::Fleet, victim: usize) {
    let device = &mut fleet.devices_mut()[victim];
    let memory = &mut device.device_mut().cpu_mut().memory;
    let original = memory.read_byte(0xE010);
    memory.write_byte(0xE010, original ^ 0x01);
}

/// A sweep over real loopback TCP: device agents answer the gateway's
/// probes, and the gateway classifies tampered devices exactly like the
/// in-process verifier.
#[test]
fn loopback_tcp_sweep_through_the_gateway() {
    let (mut fleet, mut verifier) = build_fleet(12);
    tamper(&mut fleet, 5);

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = spawn_gateway(&service, GatewayConfig::default());

    let summary = sweep_through_agents(&mut fleet, 3, handle.addr());
    assert_eq!(summary.devices, 12);
    assert_eq!(summary.count(HealthClass::Attested), 11);
    assert_eq!(summary.count(HealthClass::Tampered), 1);
    assert_eq!(summary.flagged, vec![(5, HealthClass::Tampered)]);

    let gateway = handle.shutdown().unwrap();
    let counters = gateway.counters();
    assert_eq!(load(&counters.accepted), 4, "three agents and the console");
    assert_eq!(service.stats().reports_verified(), 12);
    assert_eq!(load(&counters.malformed_streams), 0);

    // And a follow-up in-process sweep agrees (disjoint nonce domains).
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.flagged_as(HealthClass::Tampered), vec![5]);
}

/// Connects a scripted agent, negotiates, and attaches every device in
/// `devices`, waiting for each acknowledgement.
fn connect_and_attach(
    addr: SocketAddr,
    devices: &[eilid_fleet::SimDevice],
) -> Result<TcpTransport, NetError> {
    let mut transport = TcpTransport::connect_with_timeout(addr, Duration::from_secs(10))?;
    transport.send(&Frame::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    })?;
    assert!(matches!(transport.recv()?, Frame::HelloAck { .. }));
    for device in devices {
        transport.send(&Frame::Attach {
            device: device.id(),
            cohort: device.cohort(),
        })?;
        assert!(matches!(transport.recv()?, Frame::AttachAck { .. }));
    }
    Ok(transport)
}

/// A forged report — right structure, MAC minted under the wrong key —
/// crosses the codec fine and is classified `Unverified` by the MAC
/// layer: the wire rejects garbage bytes, the MAC rejects garbage
/// cryptography.
#[test]
fn forged_report_is_unverified_not_a_wire_error() {
    let (mut fleet, mut verifier) = build_fleet(2);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let handle = spawn_gateway(&service, GatewayConfig::default());
    let addr = handle.addr();

    // A scripted agent: device 0's probe is answered with an honest
    // measurement under the wrong key (the attacker doesn't have device
    // 0's derived key); device 1 answers honestly.
    let mut transport = connect_and_attach(addr, fleet.devices()).unwrap();
    let rogue = eilid_casu::Attestor::new(b"not-the-derived-device-key-0000");
    let summary = std::thread::scope(|scope| {
        let sweep = scope.spawn(|| RemoteOps::connect(addr).unwrap().sweep().unwrap());
        for _ in 0..fleet.len() {
            let Frame::ProbeRequest {
                device, challenge, ..
            } = transport.recv().unwrap()
            else {
                panic!("expected a probe");
            };
            let sim = &mut fleet.devices_mut()[device as usize];
            let report = if device == 0 {
                rogue.attest(&sim.device().cpu().memory, challenge)
            } else {
                sim.attest(challenge)
            };
            transport
                .send(&Frame::ProbeResult {
                    device,
                    healthy: 1,
                    report,
                })
                .unwrap();
        }
        sweep.join().unwrap()
    });

    assert_eq!(summary.count(HealthClass::Attested), 1);
    assert_eq!(summary.flagged, vec![(0, HealthClass::Unverified)]);
    assert_eq!(service.stats().reports_verified(), 2);
    let gateway = handle.shutdown().unwrap();
    assert_eq!(load(&gateway.counters().malformed_streams), 0);
}

/// Gateway-pushed authenticated updates ride the same connection: the
/// device applies a valid request (through its CASU engine and the
/// monitor's update window) and rejects a forged one, acknowledging
/// each with a typed status. A full image travels as a one-segment
/// delta — the only update frame.
#[test]
fn update_over_the_wire_applies_and_rejects() {
    let (mut fleet, verifier) = build_fleet(1);
    let key = verifier.device_key(0);

    let (mut operator, mut device_end) = PipeTransport::pair_with_timeout(Duration::from_secs(5));

    // Device side on a thread: handshake + one attest exchange, during
    // which the operator interleaves two update pushes.
    let handle = std::thread::spawn(move || {
        let mut device = fleet.devices_mut()[0].clone();
        // Hand-rolled client loop so we control the device end fully.
        device_end
            .send(&Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            })
            .unwrap();
        assert!(matches!(device_end.recv().unwrap(), Frame::HelloAck { .. }));
        let mut applied = Vec::new();
        loop {
            match device_end.recv().unwrap() {
                Frame::DeltaUpdateRequest {
                    device: id,
                    request,
                } => {
                    let status = match device.apply_delta_update(&request) {
                        Ok(()) => 0,
                        Err(UpdateError::BadMac) => 1,
                        Err(_) => 0xFE,
                    };
                    applied.push(status);
                    device_end
                        .send(&Frame::UpdateResult { device: id, status })
                        .unwrap();
                }
                Frame::Bye => break,
                other => panic!("unexpected frame on device end: {other:?}"),
            }
        }
        (device, applied)
    });

    // Operator side: play the gateway for this scripted exchange.
    assert!(matches!(operator.recv().unwrap(), Frame::Hello { .. }));
    operator
        .send(&Frame::HelloAck {
            version: PROTOCOL_VERSION,
        })
        .unwrap();

    // A valid authenticated update...
    let mut authority = eilid_casu::UpdateAuthority::with_key(&key);
    let good = authority.authorize(0xF680, &[0xAB, 0xCD]);
    operator
        .send(&Frame::DeltaUpdateRequest {
            device: 0,
            request: DeltaUpdateRequest::whole(good),
        })
        .unwrap();
    assert_eq!(
        operator.recv().unwrap(),
        Frame::UpdateResult {
            device: 0,
            status: 0,
        }
    );

    // ...and a forged one (wrong key).
    let mut rogue = eilid_casu::UpdateAuthority::new(b"attacker-key-0123456789abcdef01");
    let bad = rogue.authorize(0xF682, &[0xEE]);
    operator
        .send(&Frame::DeltaUpdateRequest {
            device: 0,
            request: DeltaUpdateRequest::whole(bad),
        })
        .unwrap();
    assert_eq!(
        operator.recv().unwrap(),
        Frame::UpdateResult {
            device: 0,
            status: 1,
        }
    );
    operator.send(&Frame::Bye).unwrap();

    let (device, applied) = handle.join().unwrap();
    assert_eq!(applied, vec![0, 1]);
    assert_eq!(device.device().cpu().memory.read_byte(0xF680), 0xAB);
    assert_eq!(device.device().cpu().memory.read_byte(0xF682), 0x00);
}

/// The same sweep with the portable scan fallback forced: identical
/// classification, readiness just costs O(connections) per pass.
#[test]
fn loopback_tcp_sweep_through_the_scan_fallback() {
    let (mut fleet, mut verifier) = build_fleet(12);
    tamper(&mut fleet, 7);

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig {
            poller: eilid_net::PollerChoice::Scan,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    assert_eq!(gateway.poller_backend(), eilid_net::PollerBackend::Scan);
    let handle = gateway.spawn();

    let summary = sweep_through_agents(&mut fleet, 3, handle.addr());
    assert_eq!(summary.devices, 12);
    assert_eq!(summary.count(HealthClass::Tampered), 1);
    assert_eq!(summary.flagged, vec![(7, HealthClass::Tampered)]);

    let gateway = handle.shutdown().unwrap();
    assert!(
        load(&gateway.counters().scan_passes) > 0,
        "the scan backend counts its full passes"
    );
    assert_eq!(service.stats().reports_verified(), 12);
}

/// A malformed frame arriving while an agent's sweep is in flight
/// poisons only its own connection: the sweep completes with the right
/// verdicts and the reactor keeps serving. A scripted agent holds the
/// sweep open — it answers no probe until the hostile connection has
/// been dropped — so the garbage lands mid-sweep by construction.
#[test]
fn malformed_frame_mid_sweep_poisons_only_its_own_connection() {
    use std::io::{Read, Write};

    let (mut fleet, mut verifier) = build_fleet(10);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = spawn_gateway(&service, GatewayConfig::default());
    let addr = handle.addr();

    // A hostile peer negotiates first; its garbage waits for the sweep.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            &Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .unwrap();
    let mut transport = connect_and_attach(addr, fleet.devices()).unwrap();
    let summary = std::thread::scope(|scope| {
        let sweep = scope.spawn(|| RemoteOps::connect(addr).unwrap().sweep().unwrap());
        // The first probe proves the sweep is in flight; none is
        // answered yet, so it cannot finish before the garbage lands.
        let mut probes = vec![transport.recv().unwrap()];

        // A valid frame followed by garbage in a single write.
        let mut bytes = Frame::OpHealth.encode();
        bytes.extend_from_slice(b"\xDE\xAD\xBE\xEFgarbage-poisons-the-framing");
        stream.write_all(&bytes).unwrap();
        // The gateway drops us: EOF (or reset) follows.
        let mut sink = [0u8; 64];
        loop {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => continue,
            }
        }

        // Now the agent answers every probe honestly.
        probes.extend((1..fleet.len()).map(|_| transport.recv().unwrap()));
        for probe in probes {
            let Frame::ProbeRequest {
                device, challenge, ..
            } = probe
            else {
                panic!("expected a probe, got {probe:?}");
            };
            let report = fleet.devices_mut()[device as usize].attest(challenge);
            transport
                .send(&Frame::ProbeResult {
                    device,
                    healthy: 1,
                    report,
                })
                .unwrap();
        }
        sweep.join().unwrap()
    });
    assert_eq!(summary.count(HealthClass::Attested), 10);

    let gateway = handle.shutdown().unwrap();
    assert_eq!(load(&gateway.counters().malformed_streams), 1);
    assert_eq!(service.stats().reports_verified(), 10);
}

#[test]
fn malformed_tcp_stream_is_dropped_and_counted() {
    use std::io::Write;

    let (mut fleet, mut verifier) = build_fleet(4);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let handle = spawn_gateway(&service, GatewayConfig::default());
    let addr = handle.addr();

    // Hostile peer: raw garbage.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // The gateway drops us; a subsequent read sees EOF quickly.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        use std::io::Read;
        let _ = stream.read(&mut buf);
    }

    // Honest agents still get served.
    let summary = sweep_through_agents(&mut fleet, 1, addr);
    assert_eq!(summary.count(HealthClass::Attested), 4);

    let gateway = handle.shutdown().unwrap();
    assert_eq!(load(&gateway.counters().malformed_streams), 1);
}

/// The trace ring keeps the rare events: after one campaign wave and
/// one sweep it holds exactly the wave's event, with no per-pass
/// reactor spans crowding it out.
#[test]
fn the_trace_ring_holds_the_wave_event_and_no_reactor_passes() {
    let (mut fleet, mut verifier) = build_fleet(8);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let handle = spawn_gateway(&service, GatewayConfig::default());
    let addr = handle.addr();
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let summary = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).unwrap();
        ops.campaign_begin(&config).unwrap();
        ops.campaign_step().unwrap();
        ops.sweep().unwrap()
    })
    .unwrap();
    let events = handle.metrics().trace().snapshot();
    handle.shutdown().unwrap();

    assert_eq!(summary.devices, 8);
    let kinds: Vec<(u8, u16)> = events
        .iter()
        .map(|event| (event.category, event.code))
        .collect();
    assert_eq!(kinds, [(TRACE_CAT_ENGINE, TRACE_ENGINE_WAVE)]);
}

/// A closure that panics inside the agent harness stops the agents and
/// hands the panic to the caller, instead of leaving the scope waiting
/// on agents that serve forever.
#[test]
fn a_panicking_closure_in_the_agent_harness_fails_within_a_deadline() {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let (mut fleet, mut verifier) = build_fleet(2);
        let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
        let handle = spawn_gateway(&service, GatewayConfig::default());
        let addr = handle.addr();
        let harness = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_attached_fleet(&mut fleet, 2, addr, || {
                panic!("an operator assertion fails inside the harness")
            })
        }));
        handle.shutdown().unwrap();
        let _ = tx.send(harness.is_err());
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(60)),
        Ok(true),
        "the closure's panic must reach the caller within the deadline"
    );
    thread.join().unwrap();
}

/// A paused-campaign record whose patch runs past the 64 KiB address
/// space — a valid record re-encoded with its target moved — is refused
/// with `Error{Unsupported}` at `OpResume`, so nothing is loaded for a
/// later `OpStep` to panic the engine thread on. The same gateway then
/// still answers `OpHealth` and completes a sweep.
#[test]
fn resume_of_a_record_overrunning_memory_is_refused_and_the_gateway_lives() {
    let (mut fleet, mut verifier) = build_fleet(6);
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    let len = config.payload.len();
    let mut record = eilid_fleet::Campaign::new(config)
        .unwrap()
        .begin(&mut fleet, &mut verifier)
        .unwrap()
        .pause()
        .to_bytes();
    // The config section follows the 4-byte magic: cohort:u8 ‖ target:u16.
    record[5..7].copy_from_slice(&((0x1_0000 - len + 1) as u16).to_le_bytes());

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = spawn_gateway(&service, GatewayConfig::default());
    let addr = handle.addr();

    let mut console = TcpTransport::connect(addr).unwrap();
    let mut ask = |frame: Frame| {
        console.send(&frame).unwrap();
        console.recv().unwrap()
    };
    assert!(matches!(
        ask(Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        }),
        Frame::HelloAck { .. }
    ));
    assert_eq!(
        ask(Frame::OpResume { paused: record }),
        Frame::Error {
            code: ErrorCode::Unsupported
        }
    );
    assert_eq!(
        ask(Frame::OpStep {
            cohort: WorkloadId::LightSensor
        }),
        Frame::Error {
            code: ErrorCode::NoCampaign
        }
    );
    assert!(matches!(
        ask(Frame::OpHealth),
        Frame::OpHealthResult {
            active_campaigns: 0,
            ..
        }
    ));

    let summary = sweep_through_agents(&mut fleet, 2, addr);
    assert_eq!(summary.count(HealthClass::Attested), 6);
    handle.shutdown().unwrap();
}
