//! End-to-end protocol tests over both transports: the in-memory pipe
//! (pure codec + session, no sockets) and real loopback TCP through the
//! non-blocking gateway. Same `Session` state machine on both paths, so
//! any divergence is a bug.

use std::sync::Arc;
use std::time::Duration;

use eilid_casu::{DeltaUpdateRequest, DeviceKey, UpdateError};
use eilid_fleet::{FleetBuilder, HealthClass};
use eilid_net::{
    serve_transport, sweep_fleet, AttestationService, DeviceClient, ErrorCode, Frame, Gateway,
    GatewayConfig, NetError, PipeTransport, TcpTransport, Transport, DEFAULT_PIPELINE_WINDOW,
    PROTOCOL_VERSION,
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

/// Spawns a detached server thread for one pipe connection.
fn pipe_server(service: Arc<AttestationService>) -> PipeTransport {
    let (client_end, mut server_end) = PipeTransport::pair_with_timeout(Duration::from_secs(5));
    std::thread::spawn(move || {
        let _ = serve_transport(&service, &mut server_end);
    });
    client_end
}

fn tamper(fleet: &mut eilid_fleet::Fleet, victim: usize) {
    let device = &mut fleet.devices_mut()[victim];
    let memory = &mut device.device_mut().cpu_mut().memory;
    let original = memory.read_byte(0xE010);
    memory.write_byte(0xE010, original ^ 0x01);
}

/// The in-memory transport runs the whole protocol — negotiation,
/// challenge, report, verdict — and classifies tampered devices exactly
/// like the in-process verifier.
#[test]
fn in_memory_sweep_classifies_like_the_in_process_verifier() {
    let (mut fleet, mut verifier) = build_fleet(14);
    tamper(&mut fleet, 3);
    tamper(&mut fleet, 9);

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let report = {
        let service = Arc::clone(&service);
        sweep_fleet(&mut fleet, 4, DEFAULT_PIPELINE_WINDOW, None, move || {
            Ok(pipe_server(Arc::clone(&service)))
        })
        .unwrap()
    };

    assert_eq!(report.devices, 14);
    assert_eq!(report.count(HealthClass::Attested), 12);
    assert_eq!(report.count(HealthClass::Tampered), 2);
    assert_eq!(
        report
            .flagged
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<u64>>(),
        vec![3, 9]
    );
    assert_eq!(service.stats().reports_verified(), 14);
    assert_eq!(service.cached_keys(), 14);

    // The in-process verifier sees the same world afterwards — and its
    // challenge nonces never collided with the gateway's reserved block.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), 12);
    assert_eq!(sweep.devices_in(HealthClass::Tampered), vec![3, 9]);
}

/// The same sweep over real loopback TCP through the non-blocking
/// gateway + worker pool.
#[test]
fn loopback_tcp_sweep_through_the_gateway() {
    let (mut fleet, mut verifier) = build_fleet(12);
    tamper(&mut fleet, 5);

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig {
            workers: 2,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let handle = gateway.spawn();
    let addr = handle.addr();

    let report = sweep_fleet(&mut fleet, 3, DEFAULT_PIPELINE_WINDOW, None, || {
        TcpTransport::connect(addr)
    })
    .unwrap();
    assert_eq!(report.devices, 12);
    assert_eq!(report.clients, 3);
    assert_eq!(report.count(HealthClass::Attested), 11);
    assert_eq!(report.count(HealthClass::Tampered), 1);
    assert_eq!(report.flagged, vec![(5, HealthClass::Tampered)]);

    let gateway = handle.shutdown().unwrap();
    let counters = gateway.counters();
    assert_eq!(
        counters.accepted.load(std::sync::atomic::Ordering::Relaxed),
        3
    );
    assert_eq!(service.stats().reports_verified(), 12);
    assert_eq!(
        counters
            .malformed_streams
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );

    // And a follow-up in-process sweep agrees (disjoint nonce domains).
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.devices_in(HealthClass::Tampered), vec![5]);
}

/// A client that cannot agree on a version is refused with a typed
/// error frame and the connection closes.
#[test]
fn version_negotiation_rejects_a_disjoint_range() {
    let (_, mut verifier) = build_fleet(2);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let mut transport = pipe_server(service);

    transport
        .send(&Frame::Hello {
            min_version: PROTOCOL_VERSION + 1,
            max_version: PROTOCOL_VERSION + 5,
        })
        .unwrap();
    assert_eq!(
        transport.recv().unwrap(),
        Frame::Error {
            code: ErrorCode::UnsupportedVersion,
        }
    );
    // The server hangs up afterwards.
    assert!(matches!(transport.recv(), Err(NetError::Closed)));
}

/// Frames before negotiation, reports answering no challenge, and
/// cohorts the gateway is not provisioned for all get typed protocol
/// errors.
#[test]
fn session_violations_get_typed_protocol_errors() {
    let (_, mut verifier) = build_fleet(2);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));

    // 1. Attesting before Hello.
    let mut transport = pipe_server(Arc::clone(&service));
    transport
        .send(&Frame::AttestRequest {
            device: 0,
            cohort: WorkloadId::LightSensor,
        })
        .unwrap();
    assert_eq!(
        transport.recv().unwrap(),
        Frame::Error {
            code: ErrorCode::NotNegotiated,
        }
    );

    // 2. A cohort this service has no goldens for.
    let mut transport = pipe_server(Arc::clone(&service));
    transport
        .send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })
        .unwrap();
    assert_eq!(
        transport.recv().unwrap(),
        Frame::HelloAck {
            version: PROTOCOL_VERSION,
        }
    );
    transport
        .send(&Frame::AttestRequest {
            device: 0,
            cohort: WorkloadId::FireSensor,
        })
        .unwrap();
    // Attest-request failures are device-scoped so pipelining clients
    // can attribute them to one exchange.
    assert_eq!(
        transport.recv().unwrap(),
        Frame::DeviceError {
            device: 0,
            code: ErrorCode::UnknownCohort,
        }
    );

    // 3. A report answering no issued challenge.
    transport
        .send(&Frame::Report {
            device: 0,
            report: eilid_casu::AttestationReport {
                challenge: eilid_casu::Challenge {
                    nonce: 1,
                    start: 0xE000,
                    end: 0xF7FF,
                },
                measurement: [0; 32],
                mac: [0; 32],
            },
        })
        .unwrap();
    assert_eq!(
        transport.recv().unwrap(),
        Frame::Error {
            code: ErrorCode::UnexpectedFrame,
        }
    );

    // 4. An UpdateResult (the device's ack for a pushed update) is
    // legal device→gateway traffic: no error, and the session keeps
    // serving — the next attest request still draws a challenge.
    transport
        .send(&Frame::UpdateResult {
            device: 0,
            status: 0,
        })
        .unwrap();
    transport
        .send(&Frame::AttestRequest {
            device: 0,
            cohort: WorkloadId::LightSensor,
        })
        .unwrap();
    assert!(matches!(
        transport.recv().unwrap(),
        Frame::Challenge { device: 0, .. }
    ));
}

/// A forged report — right structure, MAC minted under the wrong key —
/// crosses the codec fine and is classified `Unverified` by the MAC
/// layer: the wire rejects garbage bytes, the MAC rejects garbage
/// cryptography.
#[test]
fn forged_report_is_unverified_not_a_wire_error() {
    let (fleet, mut verifier) = build_fleet(2);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let mut transport = pipe_server(service);

    transport
        .send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })
        .unwrap();
    transport.recv().unwrap();
    transport
        .send(&Frame::AttestRequest {
            device: 0,
            cohort: WorkloadId::LightSensor,
        })
        .unwrap();
    let Frame::Challenge { challenge, .. } = transport.recv().unwrap() else {
        panic!("expected a challenge");
    };

    // Honest measurement, wrong key: the attacker doesn't have device
    // 0's derived key.
    let rogue = eilid_casu::Attestor::new(b"not-the-derived-device-key-0000");
    let memory = fleet.devices()[0].device().cpu().memory.clone();
    let report = rogue.attest(&memory, challenge);
    transport
        .send(&Frame::Report { device: 0, report })
        .unwrap();
    assert_eq!(
        transport.recv().unwrap(),
        Frame::AttestResult {
            device: 0,
            class: eilid_net::WireHealth::Unverified,
        }
    );
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

/// Campaign control frames are first-class on the wire; this gateway
/// build answers them with a typed `Unsupported` (campaigns run
/// in-process via `CampaignRun`).
#[test]
fn campaign_control_gets_a_typed_unsupported_answer() {
    let (_, mut verifier) = build_fleet(2);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let mut transport = pipe_server(service);
    transport
        .send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })
        .unwrap();
    transport.recv().unwrap();
    transport
        .send(&Frame::CampaignControl {
            cohort: WorkloadId::LightSensor,
            op: eilid_net::CampaignOp::Pause,
        })
        .unwrap();
    assert_eq!(
        transport.recv().unwrap(),
        Frame::Error {
            code: ErrorCode::Unsupported,
        }
    );
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
            workers: 2,
            poller: eilid_net::PollerChoice::Scan,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    assert_eq!(gateway.poller_backend(), eilid_net::PollerBackend::Scan);
    let handle = gateway.spawn();

    let report = sweep_fleet(&mut fleet, 3, DEFAULT_PIPELINE_WINDOW, None, || {
        TcpTransport::connect(handle.addr())
    })
    .unwrap();
    assert_eq!(report.devices, 12);
    assert_eq!(report.count(HealthClass::Tampered), 1);
    assert_eq!(report.flagged, vec![(7, HealthClass::Tampered)]);

    let gateway = handle.shutdown().unwrap();
    let counters = gateway.counters();
    assert!(
        counters
            .scan_passes
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the scan backend counts its full passes"
    );
    assert_eq!(service.stats().reports_verified(), 12);
}

/// Batched dispatch really batches: a pipelined sweep must finish with
/// strictly fewer pool jobs than reports (the per-request dispatch the
/// batching exists to amortize).
#[test]
fn pipelined_sweep_amortizes_pool_dispatch() {
    let (mut fleet, mut verifier) = build_fleet(64);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig::default(),
    )
    .unwrap()
    .spawn();

    let report = sweep_fleet(&mut fleet, 1, 64, None, || {
        TcpTransport::connect(handle.addr())
    })
    .unwrap();
    assert_eq!(report.count(HealthClass::Attested), 64);

    let gateway = handle.shutdown().unwrap();
    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    let batches = load(&gateway.counters().batches_submitted);
    let reports = load(&gateway.counters().batched_reports);
    assert_eq!(reports, 64, "every report rode a batch");
    assert!(
        batches < reports,
        "64 reports must not cost 64 pool jobs (got {batches} batches)"
    );
}

/// A malformed frame arriving mid-batch poisons only its own
/// connection: reports already coalesced from that connection still
/// verify, other connections' exchanges complete untouched, and the
/// reactor keeps serving.
#[test]
fn mid_batch_malformed_frame_poisons_only_its_own_connection() {
    use std::io::{Read, Write};

    let (mut fleet, mut verifier) = build_fleet(10);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig::default(),
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();

    // Connection A, hand-rolled: negotiate, obtain a challenge, then
    // send [valid report ‖ garbage] in a single write — the report
    // joins a shard batch, the garbage kills the framing.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut decoder = eilid_net::FrameDecoder::new();
        let recv =
            |stream: &mut std::net::TcpStream, decoder: &mut eilid_net::FrameDecoder| -> Frame {
                let mut buf = [0u8; 4096];
                loop {
                    if let Some(frame) = decoder.next_frame().unwrap() {
                        return frame;
                    }
                    let n = stream.read(&mut buf).unwrap();
                    assert!(n > 0, "gateway hung up early");
                    decoder.extend(&buf[..n]);
                }
            };

        stream
            .write_all(
                &Frame::Hello {
                    min_version: PROTOCOL_VERSION,
                    max_version: PROTOCOL_VERSION,
                }
                .encode(),
            )
            .unwrap();
        assert!(matches!(
            recv(&mut stream, &mut decoder),
            Frame::HelloAck { .. }
        ));
        let victim = 0u64;
        stream
            .write_all(
                &Frame::AttestRequest {
                    device: victim,
                    cohort: WorkloadId::LightSensor,
                }
                .encode(),
            )
            .unwrap();
        let Frame::Challenge { challenge, .. } = recv(&mut stream, &mut decoder) else {
            panic!("expected a challenge");
        };
        let report = fleet.devices_mut()[victim as usize].attest(challenge);
        let mut bytes = Frame::Report {
            device: victim,
            report,
        }
        .encode();
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
    }

    // Connection B, pipelined over the remaining devices: every
    // exchange completes with the right verdicts.
    let devices = fleet.len();
    let mut client = DeviceClient::connect(TcpTransport::connect(addr).unwrap()).unwrap();
    let verdicts = client
        .attest_batch(&mut fleet.devices_mut()[1..devices], 8, None)
        .unwrap();
    assert_eq!(verdicts.len(), devices - 1);
    assert!(verdicts
        .iter()
        .all(|(_, class)| *class == HealthClass::Attested));
    let _ = client.bye();

    let gateway = handle.shutdown().unwrap();
    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&gateway.counters().malformed_streams), 1);
    // A's coalesced report was verified even though its connection died
    // before the verdict could be delivered.
    assert_eq!(service.stats().reports_verified(), devices as u64);
}

/// A peer that sends unparseable bytes is dropped and counted; honest
/// connections are unaffected.
#[test]
fn malformed_tcp_stream_is_dropped_and_counted() {
    use std::io::Write;

    let (mut fleet, mut verifier) = build_fleet(4);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let handle = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .unwrap()
        .spawn();
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

    // Honest client still gets served.
    let mut client = DeviceClient::connect(TcpTransport::connect(addr).unwrap()).unwrap();
    let class = client.attest(&mut fleet.devices_mut()[0]).unwrap();
    assert_eq!(class, HealthClass::Attested);
    let _ = client.bye();

    let gateway = handle.shutdown().unwrap();
    assert_eq!(
        gateway
            .counters()
            .malformed_streams
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}
