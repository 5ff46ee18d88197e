//! The rollout state machine and its driver on their own: no sockets,
//! no threads, no executor, and a fake clock. A scripted network
//! answers each request the driver hands out with the shared device
//! handler (`rollout::serve`) and delivers the replies in order,
//! permuted, duplicated, late (after their device retired), after a
//! busy shed and through a narrow admission window; the composed
//! outcome must not depend on any of it. Two cases pin the driver's
//! timing exactly: the idle deadline and the busy backoff.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use eilid_casu::{merkle_measure_pmem, DeviceKey, DELTA_GRANULE};
use eilid_fleet::fixtures::{benign_patch, bricking_patch, BRICKING_PATCH_TARGET};
use eilid_fleet::rollout::{serve, BUSY_RETRIES};
use eilid_fleet::{
    busy_backoff, CampaignConfig, CohortSnapshot, DeviceId, Driver, Fleet, FleetBuilder,
    LedgerEvent, PreUpdateSnapshot, Reply, Request, RollbackOutcome, Rollout, SimDevice, Verifier,
    WaveRollout,
};
use eilid_workloads::WorkloadId;
use proptest::prelude::*;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const COHORT: WorkloadId = WorkloadId::LightSensor;
const DEVICES: usize = 6;
/// First address of a four-granule image of the unused PMEM gap, whose
/// first granule the benign patch changes: wide enough that in-sync
/// devices get a sparse delta.
const IMAGE_TARGET: u16 = 0xF600;
const IMAGE_LEN: usize = 4 * DELTA_GRANULE;
/// The driver's idle ceiling.
const IDLE: Duration = Duration::from_secs(5);
/// How long the scripted network takes to deliver one message.
const HOP: Duration = Duration::from_micros(100);

fn build() -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(DEVICES)
        .threads(1)
        .workloads(&[COHORT])
        .build()
        .unwrap()
}

/// A campaign config plus what a campaign run derives from it: the
/// expected post-patch measurement and the golden bytes deltas are
/// encoded against.
struct Plan {
    config: CampaignConfig,
    expected_after: [u8; 32],
    delta_base: Vec<u8>,
}

fn golden(verifier: &mut Verifier) -> CohortSnapshot {
    verifier
        .service_snapshot(0)
        .cohorts
        .remove(&COHORT)
        .unwrap()
}

fn plan(verifier: &mut Verifier, target: u16, payload: Vec<u8>) -> Plan {
    let cohort = golden(verifier);
    let range = usize::from(target)..usize::from(target) + payload.len();
    let delta_base = cohort.golden.slice(range).to_vec();
    let mut patched = cohort.golden.clone();
    patched.load(target, &payload).unwrap();
    let mut config = CampaignConfig::new(COHORT, target, payload);
    config.smoke_cycles = 200_000;
    Plan {
        config,
        expected_after: merkle_measure_pmem(&patched),
        delta_base,
    }
}

/// The benign patch inside a 64-byte image of the golden gap.
fn sparse_plan(verifier: &mut Verifier) -> Plan {
    let start = usize::from(IMAGE_TARGET);
    let mut image = golden(verifier)
        .golden
        .slice(start..start + IMAGE_LEN)
        .to_vec();
    let patch = benign_patch();
    image[..patch.len()].copy_from_slice(&patch);
    plan(verifier, IMAGE_TARGET, image)
}

/// How a scripted network delivers the machine's traffic. Requests to
/// one device keep their order (one connection per device); everything
/// else may be reordered.
#[derive(Debug, Clone, Default)]
struct Network {
    /// Picks which in-transit message moves next; 0 is first-in,
    /// first-out.
    seed: u64,
    /// Every reply arrives twice.
    duplicate: bool,
    /// Every reply arrives once more after the machine finished.
    late: bool,
    /// Devices that shed their first request with "busy".
    busy: BTreeSet<DeviceId>,
    /// Devices whose connection drops before their first request.
    lost: BTreeSet<DeviceId>,
    /// The driver's admission window (unbounded when `None`).
    window: Option<usize>,
}

enum Message {
    Push(Request),
    Answer(DeviceId, Reply),
}

/// Runs `machine` to completion against `devices` over `network`, one
/// message per [`HOP`] of the fake clock; when nothing is in transit
/// the clock jumps to the driver's next wake time.
fn drive(
    machine: &mut Rollout<'_>,
    devices: &mut BTreeMap<DeviceId, SimDevice>,
    keys: &mut Verifier,
    network: &Network,
) {
    let mut state = network.seed;
    let mut now = Instant::now();
    let window = network.window.unwrap_or(usize::MAX);
    let mut driver = Driver::new(machine, window, IDLE, now);
    let mut transit: Vec<Message> = Vec::new();
    let mut shed = BTreeSet::new();
    let mut delivered = Vec::new();
    loop {
        driver.poll(now, |request| {
            transit.push(Message::Push(request));
            true
        });
        if transit.is_empty() {
            match driver.tick(now) {
                Some(wake_at) => {
                    now = wake_at;
                    continue;
                }
                None => break,
            }
        }
        now += HOP;
        let index = if network.seed == 0 {
            0
        } else {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % transit.len() as u64) as usize
        };
        // Per-device request order: move the earliest message that is
        // not a request queued behind another to the same device.
        let index = match &transit[index] {
            Message::Push(request) => transit
                .iter()
                .position(|m| matches!(m, Message::Push(r) if r.device() == request.device()))
                .expect("the picked request is in transit"),
            Message::Answer(..) => index,
        };
        match transit.remove(index) {
            Message::Push(request) => {
                let device = request.device();
                if network.lost.contains(&device) {
                    assert!(driver.lost(now, device));
                    continue;
                }
                if network.busy.contains(&device) && shed.insert(device) {
                    assert!(driver.busy(now, device));
                    continue;
                }
                let sim = devices.get_mut(&device).expect("a wave device");
                let reply = serve(sim, &request).expect("a servable request");
                if network.duplicate {
                    transit.push(Message::Answer(device, reply.clone()));
                }
                transit.push(Message::Answer(device, reply));
            }
            Message::Answer(device, reply) => {
                if network.late {
                    delivered.push((device, reply.clone()));
                }
                driver.reply(now, device, reply, keys);
            }
        }
    }
    assert!(driver.rollout().is_done(), "every device retires");
    for (device, reply) in delivered {
        assert_eq!(
            driver.reply(now, device, reply, keys),
            None,
            "a late reply from retired device {device} must be ignored"
        );
    }
}

fn devices_of(fleet: &Fleet) -> BTreeMap<DeviceId, SimDevice> {
    fleet
        .devices()
        .iter()
        .map(|device| (device.id(), device.clone()))
        .collect()
}

/// One wave over a fresh copy of `fleet`'s devices; returns the outcome
/// and the devices afterwards.
fn wave(
    fleet: &Fleet,
    verifier: &mut Verifier,
    plan: &Plan,
    network: &Network,
) -> (WaveRollout, BTreeMap<DeviceId, SimDevice>) {
    let mut devices = devices_of(fleet);
    let ids: Vec<DeviceId> = devices.keys().copied().collect();
    let mut machine = Rollout::wave(
        &ids,
        &plan.config,
        plan.expected_after,
        Some(plan.delta_base.clone()),
    );
    drive(&mut machine, &mut devices, verifier, network);
    (machine.into_wave(), devices)
}

fn rollback(
    verifier: &mut Verifier,
    mut devices: BTreeMap<DeviceId, SimDevice>,
    plan: &Plan,
    snapshots: &BTreeMap<DeviceId, PreUpdateSnapshot>,
    network: &Network,
) -> RollbackOutcome {
    let ids: Vec<DeviceId> = snapshots.keys().copied().collect();
    let config = &plan.config;
    let mut machine = Rollout::rollback(config.cohort, &ids, config.target, snapshots);
    drive(&mut machine, &mut devices, verifier, network);
    machine.into_rollback()
}

/// Flips one byte of `device`'s image outside the patched granule, so
/// its sparse delta fails the MAC and the full-range resend repairs it.
fn diverge(fleet: &mut Fleet, device: usize) {
    let memory = &mut fleet.devices_mut()[device].device_mut().cpu_mut().memory;
    let addr = IMAGE_TARGET + 3 * DELTA_GRANULE as u16 + 5;
    memory.write_byte(addr, memory.read_byte(addr) ^ 0x5A);
}

/// Every delivery the property below varies, for one generated case.
fn networks(seed: u64, busy: u64, device: DeviceId) -> Vec<Network> {
    let busy: BTreeSet<DeviceId> = (0..DEVICES as u64).filter(|d| busy >> d & 1 == 1).collect();
    vec![
        Network::default(),
        Network {
            seed: seed | 1,
            ..Network::default()
        },
        Network {
            seed: seed | 1,
            duplicate: true,
            ..Network::default()
        },
        Network {
            duplicate: true,
            late: true,
            ..Network::default()
        },
        Network {
            seed: (seed >> 1) | 1,
            late: true,
            busy: busy.clone(),
            ..Network::default()
        },
        Network {
            seed: seed | 1,
            duplicate: true,
            late: true,
            busy: [device].into(),
            ..Network::default()
        },
        Network {
            seed: (seed >> 2) | 1,
            busy,
            window: Some(2),
            ..Network::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Order, duplicates, late replies and busy sheds never change a
    /// wave's outcome — with in-sync devices on the sparse path, a
    /// diverged device on the full-range resend, and a probe-isolated
    /// device running its own smoke probe — nor the rollback of it.
    #[test]
    fn delivery_never_changes_the_outcome(
        seed in any::<u64>(),
        busy in 0u64..64,
        diverged in 0usize..DEVICES,
        isolated in 0usize..DEVICES,
    ) {
        let (mut fleet, mut verifier) = build();
        diverge(&mut fleet, diverged);
        fleet.devices_mut()[isolated].set_probe_isolated(true);
        let plan = sparse_plan(&mut verifier);

        let (reference, after) = wave(&fleet, &mut verifier, &plan, &Network::default());
        prop_assert_eq!(reference.updated.len(), DEVICES);
        prop_assert_eq!(reference.failures, 0);
        // The reference and the probe-isolated device run smoke probes.
        prop_assert_eq!(reference.probes_executed, 2);
        prop_assert_eq!(reference.probes_memoized, DEVICES - 2);
        let rolled = rollback(
            &mut verifier, after, &plan, &reference.snapshots, &Network::default(),
        );
        prop_assert_eq!(rolled.rolled_back.len(), DEVICES);

        for network in networks(seed, busy, diverged as DeviceId) {
            let (outcome, after) = wave(&fleet, &mut verifier, &plan, &network);
            prop_assert_eq!(&outcome, &reference, "wave under {:?}", network);
            let outcome = rollback(
                &mut verifier, after, &plan, &outcome.snapshots, &network,
            );
            prop_assert_eq!(&outcome, &rolled, "rollback under {:?}", network);
        }
    }
}

/// Counts the wire bytes the way the gateway reports them: a sparse
/// delta at 8 framing bytes per segment plus its content, the
/// full-range resend at its payload, the full range in the denominator
/// once per device.
#[test]
fn update_bytes_count_sparse_segments_and_full_resends() {
    let (mut fleet, mut verifier) = build();
    diverge(&mut fleet, 3);
    let plan = sparse_plan(&mut verifier);
    let mut devices = devices_of(&fleet);
    let ids: Vec<DeviceId> = devices.keys().copied().collect();
    let mut machine = Rollout::wave(
        &ids,
        &plan.config,
        plan.expected_after,
        Some(plan.delta_base.clone()),
    );
    drive(
        &mut machine,
        &mut devices,
        &mut verifier,
        &Network::default(),
    );
    // One dirty granule per sparse delta; the diverged device pays that
    // plus the whole image.
    let sparse = (8 + DELTA_GRANULE) as u64;
    assert_eq!(
        machine.update_bytes(),
        (
            (DEVICES * IMAGE_LEN) as u64,
            DEVICES as u64 * sparse + IMAGE_LEN as u64
        )
    );
}

/// A device lost before its update applied keeps its old firmware and
/// counts exactly one failure, recorded as a failed probe.
#[test]
fn a_device_lost_before_its_update_fails_once() {
    let (fleet, mut verifier) = build();
    let plan = sparse_plan(&mut verifier);
    let network = Network {
        lost: [2].into(),
        duplicate: true,
        ..Network::default()
    };
    let (outcome, devices) = wave(&fleet, &mut verifier, &plan, &network);
    assert_eq!(outcome.failures, 1);
    assert_eq!(outcome.updated.len(), DEVICES - 1);
    assert!(!outcome.updated.contains(&2));
    assert!(!outcome.snapshots.contains_key(&2));
    let events: Vec<&LedgerEvent> = outcome
        .events
        .iter()
        .filter(|event| {
            matches!(
                event,
                LedgerEvent::ProbeFailed { device: 2 }
                    | LedgerEvent::UpdateApplied { device: 2, .. }
                    | LedgerEvent::UpdateRejected { device: 2, .. }
            )
        })
        .collect();
    assert_eq!(events, vec![&LedgerEvent::ProbeFailed { device: 2 }]);
    assert_eq!(devices[&2].engine().updates_applied(), 0);
}

/// The probe counters' one definition: the cohort reference runs the
/// smoke probe, byte-identical siblings inherit it, and a device whose
/// post-update measurement mismatches fails with no smoke run at all —
/// counting toward neither counter.
#[test]
fn a_tampered_device_counts_toward_neither_probe_counter() {
    let (mut fleet, mut verifier) = build();
    // Tamper outside the patch range: the update applies, the
    // attestation then mismatches the expected post-patch image.
    let memory = &mut fleet.devices_mut()[4].device_mut().cpu_mut().memory;
    memory.write_byte(0xE200, memory.read_byte(0xE200) ^ 0xFF);
    let plan = plan(&mut verifier, IMAGE_TARGET, benign_patch());
    let (outcome, _) = wave(&fleet, &mut verifier, &plan, &Network::default());
    assert_eq!(outcome.updated.len(), DEVICES);
    assert_eq!(outcome.probe_failed, vec![4]);
    assert_eq!(outcome.failures, 1);
    assert_eq!(
        outcome.probes_executed, 1,
        "the reference alone runs the smoke"
    );
    assert_eq!(outcome.probes_memoized, DEVICES - 2);
}

/// A bricking patch fails the reference's smoke run, and every sibling
/// inherits the failure — whichever device answers first.
#[test]
fn a_failed_reference_fails_every_sibling_in_any_order() {
    let (fleet, mut verifier) = build();
    let plan = plan(&mut verifier, BRICKING_PATCH_TARGET, bricking_patch());
    let (reference, _) = wave(&fleet, &mut verifier, &plan, &Network::default());
    assert_eq!(reference.probe_failed.len(), DEVICES);
    assert_eq!(reference.failures, DEVICES);
    assert_eq!(
        (reference.probes_executed, reference.probes_memoized),
        (1, DEVICES - 1)
    );
    for seed in [3, 7, 11] {
        let network = Network {
            seed,
            duplicate: true,
            ..Network::default()
        };
        let (outcome, _) = wave(&fleet, &mut verifier, &plan, &network);
        assert_eq!(outcome, reference);
    }
}

/// The idle deadline extends on every accepted reply and expires a
/// silent device at exactly the last progress plus the idle ceiling:
/// not a nanosecond before. The expired device counts as lost.
#[test]
fn a_silent_device_expires_at_exactly_the_idle_deadline() {
    let (fleet, mut verifier) = build();
    let plan = sparse_plan(&mut verifier);
    let mut devices = devices_of(&fleet);
    let (answering, silent) = (0, 1);
    let mut machine = Rollout::wave(
        &[answering, silent],
        &plan.config,
        plan.expected_after,
        Some(plan.delta_base.clone()),
    );
    let start = Instant::now();
    let mut driver = Driver::new(&mut machine, usize::MAX, IDLE, start);
    // The answering device replies one hop after each push; the silent
    // one never does.
    let mut now = start;
    let mut requests = Vec::new();
    loop {
        driver.poll(now, |request| {
            requests.push(request);
            true
        });
        let Some(request) = requests.drain(..).find(|r| r.device() == answering) else {
            break;
        };
        now += HOP;
        let reply = serve(devices.get_mut(&answering).unwrap(), &request).unwrap();
        assert!(driver.reply(now, answering, reply, &mut verifier).is_some());
    }
    let deadline = now + IDLE;
    assert_eq!(
        driver.tick(start + IDLE),
        Some(deadline),
        "progress extends"
    );
    assert_eq!(
        driver.tick(deadline - Duration::from_nanos(1)),
        Some(deadline)
    );
    assert!(!driver.is_done());
    assert_eq!(driver.tick(deadline), None);
    assert!(driver.is_done());

    let outcome = machine.into_wave();
    assert_eq!(outcome.updated, vec![answering]);
    assert_eq!(outcome.failures, 1);
    assert!(outcome
        .events
        .contains(&LedgerEvent::ProbeFailed { device: silent }));
}

/// A shed request is re-pushed exactly `busy_backoff(n)` after its
/// n-th shed — not before — and the device retires after
/// `BUSY_RETRIES` sheds.
#[test]
fn a_shed_device_is_re_pushed_after_exactly_its_backoff() {
    let (_, mut verifier) = build();
    let plan = sparse_plan(&mut verifier);
    let device = 3;
    let mut machine = Rollout::wave(
        &[device],
        &plan.config,
        plan.expected_after,
        Some(plan.delta_base.clone()),
    );
    let mut now = Instant::now();
    let mut driver = Driver::new(&mut machine, usize::MAX, IDLE, now);
    let mut pushed = Vec::new();
    driver.poll(now, |request| {
        pushed.push(request);
        true
    });
    let first = pushed.pop().expect("the snapshot request");
    assert!(pushed.is_empty());
    for attempt in 1..=BUSY_RETRIES {
        now += HOP;
        assert!(driver.busy(now, device));
        let due = now + busy_backoff(attempt);
        assert_eq!(driver.tick(now), Some(due));
        driver.poll(due - Duration::from_nanos(1), |request| {
            panic!("re-pushed early: {request:?}")
        });
        driver.poll(due, |request| {
            pushed.push(request);
            true
        });
        assert_eq!(pushed, vec![first.clone()], "shed {attempt}");
        pushed.clear();
        now = due;
    }
    assert!(
        driver.busy(now, device),
        "past the budget the device retires"
    );
    assert_eq!(driver.tick(now), None);
    assert_eq!(machine.into_wave().failures, 1);
}
