//! The gateway's one sweep verb. Protocol version 9 retired the
//! per-device sweep frames `0x19`/`0x1A` and version 10 the
//! device-initiated attestation frames `0x03`–`0x06`: a gateway answers
//! each retired frame with a typed error instead of hanging the peer,
//! and `RemoteOps::sweep` reads the aggregated result with every
//! structural check in force even when the console holds no root key.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eilid_casu::agg::AggProof;
use eilid_casu::DeviceKey;
use eilid_fleet::{FleetBuilder, FleetOps, HealthClass, OpsError};
use eilid_net::{
    AttestationService, ErrorCode, Frame, FrameDecoder, Gateway, GatewayConfig, PipeTransport,
    RemoteOps, Transport, WireHealth, FRAME_MAGIC, PROTOCOL_VERSION,
};

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

#[test]
fn a_retired_sweep_frame_gets_a_typed_error_not_a_hang() {
    let (_fleet, mut verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(2)
        .threads(1)
        .build()
        .unwrap();
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 10)));
    let handle = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .unwrap()
        .spawn();

    for retired in [0x03, 0x04, 0x05, 0x06, 0x19] {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
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
        // A well-formed header naming the retired type, no payload.
        let mut frame = FRAME_MAGIC.to_vec();
        frame.extend_from_slice(&[PROTOCOL_VERSION, retired, 0, 0, 0, 0]);
        stream.write_all(&frame).unwrap();

        let started = Instant::now();
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => decoder.extend(&buf[..n]),
                Err(err) => {
                    panic!("type {retired:#04x}: gateway neither answered nor closed: {err}")
                }
            }
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "type {retired:#04x}"
        );
        assert!(
            matches!(frames[0], Frame::HelloAck { .. }),
            "type {retired:#04x}"
        );
        assert_eq!(
            frames[1..],
            [Frame::Error {
                code: ErrorCode::Unsupported
            }],
            "type {retired:#04x}"
        );
    }

    let gateway = handle.shutdown().unwrap();
    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&gateway.counters().malformed_streams), 5);
}

/// A two-device aggregated result whose shard proof covers `proof_count`
/// devices; the proof MAC is junk, which a keyless console never checks.
fn agg_result(epoch: u64, proof_count: u32) -> Frame {
    Frame::OpAggSweepResult {
        epoch,
        devices: 2,
        counts: [1, 0, 1, 0],
        bitmap_base: 0,
        bitmap: vec![0b11],
        proofs: vec![AggProof {
            shard: 0,
            epoch,
            count: proof_count,
            root: [0x11; 32],
            mac: [0x22; 32],
        }],
        suspects: vec![(1, WireHealth::Tampered)],
    }
}

#[test]
fn keyless_sweep_rejects_replayed_and_inconsistent_results() {
    let (console_end, mut gateway_end) = PipeTransport::pair_with_timeout(Duration::from_secs(10));
    let gateway = std::thread::spawn(move || {
        assert!(matches!(gateway_end.recv().unwrap(), Frame::Hello { .. }));
        gateway_end
            .send(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
        // An honest result, the same frame replayed, then a fresh epoch
        // whose proof totals disagree with the claimed device count.
        for reply in [agg_result(7, 2), agg_result(7, 2), agg_result(8, 1)] {
            assert_eq!(gateway_end.recv().unwrap(), Frame::OpAggSweep);
            gateway_end.send(&reply).unwrap();
        }
    });

    let mut console = RemoteOps::from_transport(console_end).unwrap();
    let summary = console.sweep().unwrap();
    assert_eq!(summary.devices, 2);
    assert_eq!(summary.count(HealthClass::Attested), 1);
    assert_eq!(summary.flagged, vec![(1, HealthClass::Tampered)]);

    let replayed = console.sweep().unwrap_err();
    assert!(
        matches!(&replayed, OpsError::Backend(msg) if msg.contains("replay")),
        "{replayed}"
    );
    let short = console.sweep().unwrap_err();
    assert!(
        matches!(&short, OpsError::Backend(msg) if msg.contains("shard proofs cover 1 devices")),
        "{short}"
    );
    gateway.join().unwrap();
}
