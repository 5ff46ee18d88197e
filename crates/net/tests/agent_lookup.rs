//! The device agent resolves each pushed request to the device it
//! addresses. One agent holds a fleet attached in shuffled id order; a
//! scripted gateway on the other end of an in-memory pipe pushes attest
//! probes and reads the replies. Every report must verify under the
//! addressed device's key (and fail under its neighbour's), an id the
//! agent does not hold must be refused with `UnknownDevice`, and a
//! duplicated id must be answered by its first slot. The handshake
//! must also survive the short receive timeouts `serve` wants.

use std::sync::atomic::AtomicBool;
use std::time::Duration;

use eilid_casu::{
    AttestError, AttestationReport, AttestationVerifier, Challenge, DeviceKey, MeasurementScheme,
};
use eilid_fleet::{FleetBuilder, SimDevice};
use eilid_net::{
    DeviceAgent, ErrorCode, Frame, PipeTransport, ProbeMode, Transport, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const DEVICES: usize = 72;

fn root() -> DeviceKey {
    DeviceKey::new(ROOT).unwrap()
}

/// A fleet's devices (and its measurement scheme), permuted by a
/// fixed-seed Fisher–Yates shuffle so slot order and id order disagree.
fn shuffled_devices() -> (Vec<SimDevice>, MeasurementScheme) {
    let (fleet, _) = FleetBuilder::new(root())
        .devices(DEVICES)
        .threads(1)
        .workloads(&[WorkloadId::LightSensor, WorkloadId::TempSensor])
        .build()
        .unwrap();
    let mut devices = fleet.devices().to_vec();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..devices.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        devices.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let ids: Vec<u64> = devices.iter().map(SimDevice::id).collect();
    assert!(
        ids.windows(2).any(|pair| pair[0] > pair[1]),
        "the shuffle must break id order"
    );
    (devices, fleet.scheme())
}

/// A distinct attest-only challenge per device id.
fn challenge_for(device: &SimDevice) -> Challenge {
    let layout = device.device().layout();
    Challenge {
        nonce: 1_000 + device.id(),
        start: *layout.pmem.start(),
        end: *layout.pmem.end(),
    }
}

fn probe(device: u64, challenge: Challenge) -> Frame {
    Frame::ProbeRequest {
        device,
        mode: ProbeMode::AttestOnly,
        smoke_cycles: 0,
        challenge,
    }
}

fn verify(
    device: u64,
    challenge: &Challenge,
    report: &AttestationReport,
) -> Result<(), AttestError> {
    AttestationVerifier::with_key(&root().derive(device)).verify(challenge, report, None)
}

/// Runs one agent over `devices` against a scripted gateway: handshake,
/// acknowledge every attach, push `pushes` as one burst, read one reply
/// per push, say `Bye`. Returns the replies in arrival order.
fn serve_pushes(
    devices: &mut [SimDevice],
    scheme: MeasurementScheme,
    pushes: &[Frame],
) -> Vec<Frame> {
    let (mut gateway, agent_end) = PipeTransport::pair_with_timeout(Duration::from_secs(10));
    let stop = AtomicBool::new(false);
    let attached = devices.len();
    std::thread::scope(|scope| {
        let agent = scope.spawn(|| {
            let mut agent = DeviceAgent::connect(agent_end, scheme)?;
            agent.attach(&*devices)?;
            agent.serve(devices, &stop)
        });

        assert!(matches!(gateway.recv().unwrap(), Frame::Hello { .. }));
        gateway
            .send(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
        for _ in 0..attached {
            match gateway.recv().unwrap() {
                Frame::Attach { device, .. } => {
                    gateway.send(&Frame::AttachAck { device }).unwrap();
                }
                other => panic!("expected Attach, got {other:?}"),
            }
        }
        gateway.send_batch(pushes).unwrap();
        let replies: Vec<Frame> = (0..pushes.len())
            .map(|_| gateway.recv().expect("one reply per push"))
            .collect();
        gateway.send(&Frame::Bye).unwrap();
        agent
            .join()
            .expect("agent thread panicked")
            .expect("agent serves until Bye");
        replies
    })
}

/// Every probe is answered by the device it names: the report echoes
/// the challenge, verifies under that device's key, and fails under the
/// key of the device in the next slot.
#[test]
fn each_probe_is_answered_by_the_addressed_device() {
    let (mut devices, scheme) = shuffled_devices();
    // Push in ascending id order, not the agent's shuffled slot order.
    let mut order: Vec<&SimDevice> = devices.iter().collect();
    order.sort_by_key(|device| device.id());
    let pushes: Vec<Frame> = order
        .iter()
        .map(|device| probe(device.id(), challenge_for(device)))
        .collect();
    let issued: std::collections::HashMap<u64, Challenge> = order
        .iter()
        .map(|device| (device.id(), challenge_for(device)))
        .collect();
    let neighbour: std::collections::HashMap<u64, u64> = devices
        .iter()
        .zip(devices.iter().cycle().skip(1))
        .map(|(device, next)| (device.id(), next.id()))
        .collect();

    let replies = serve_pushes(&mut devices, scheme, &pushes);

    let mut answered = std::collections::BTreeSet::new();
    for reply in replies {
        let Frame::ProbeResult { device, report, .. } = reply else {
            panic!("expected ProbeResult, got {reply:?}");
        };
        let challenge = &issued[&device];
        assert_eq!(
            verify(device, challenge, &report),
            Ok(()),
            "device {device}'s report must verify under its own key"
        );
        assert_eq!(
            verify(neighbour[&device], challenge, &report),
            Err(AttestError::BadMac),
            "device {device}'s report must fail under its neighbour's key"
        );
        assert!(answered.insert(device), "device {device} answered twice");
    }
    assert_eq!(answered.len(), DEVICES);
}

/// An id the agent does not hold is refused device-scoped, and the
/// agent keeps serving the ids it does hold.
#[test]
fn an_unheld_id_is_refused_with_unknown_device() {
    let (mut devices, scheme) = shuffled_devices();
    let held = devices[0].clone();
    let unheld = devices.iter().map(SimDevice::id).max().unwrap() + 1;
    let pushes = [
        probe(unheld, challenge_for(&held)),
        probe(held.id(), challenge_for(&held)),
    ];

    let replies = serve_pushes(&mut devices, scheme, &pushes);

    assert_eq!(
        replies[0],
        Frame::DeviceError {
            device: unheld,
            code: ErrorCode::UnknownDevice,
        }
    );
    assert!(
        matches!(replies[1], Frame::ProbeResult { device, .. } if device == held.id()),
        "a held id is still answered: {:?}",
        replies[1]
    );
}

/// On a duplicated id the first slot answers. The copy holds a key the
/// verifier never derived, so which slot answered shows in the MAC —
/// whichever order the two copies are in.
#[test]
fn a_duplicated_id_is_answered_by_its_first_slot() {
    for impostor_first in [false, true] {
        let (mut devices, scheme) = shuffled_devices();
        let target = devices[DEVICES / 2].clone();
        let mut impostor = target.clone();
        impostor.corrupt_attestation_key();
        if impostor_first {
            devices.insert(0, impostor);
        } else {
            devices.push(impostor);
        }
        let challenge = challenge_for(&target);

        let replies = serve_pushes(&mut devices, scheme, &[probe(target.id(), challenge)]);

        let Frame::ProbeResult { device, report, .. } = replies[0] else {
            panic!("expected ProbeResult, got {:?}", replies[0]);
        };
        assert_eq!(device, target.id());
        let expected = if impostor_first {
            Err(AttestError::BadMac)
        } else {
            Ok(())
        };
        assert_eq!(
            verify(device, &challenge, &report),
            expected,
            "the first slot holding id {device} must answer (impostor first: {impostor_first})"
        );
    }
}

/// An agent on a short-poll transport (what `serve` wants) still
/// connects when the gateway's `HelloAck` takes many receive timeouts
/// to arrive.
#[test]
fn connect_waits_out_short_receive_timeouts() {
    let (mut gateway, agent_end) = PipeTransport::pair_with_timeout(Duration::from_millis(2));
    std::thread::scope(|scope| {
        let agent = scope.spawn(|| DeviceAgent::connect(agent_end, MeasurementScheme::Merkle));
        let hello = loop {
            match gateway.recv() {
                Err(eilid_net::NetError::Timeout) => continue,
                other => break other.unwrap(),
            }
        };
        assert!(matches!(hello, Frame::Hello { .. }));
        std::thread::sleep(Duration::from_millis(50));
        gateway
            .send(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
        agent
            .join()
            .expect("agent thread panicked")
            .expect("the handshake outlasts the 2 ms poll");
    });
}
