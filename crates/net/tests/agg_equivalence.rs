//! The collective-attestation equivalence oracle: an aggregated sweep
//! must yield verdicts **bit-equal** to a from-scratch per-device
//! classification — same totals, same per-class counts, same flagged
//! list — for arbitrary mixes of clean, stale, tampered and wrong-key
//! devices, on both the in-process `LocalOps` backend and the wire
//! `RemoteOps` backend over real loopback TCP. The per-device reference
//! lives in this file (its own keys, nonces, MAC checks and golden
//! measurements), so it shares no classification code with either
//! backend. Aggregation compresses the operator's verification work (at
//! most `SHARD_COUNT` aggregate roots) and the result frame; it must
//! never change a single classification.

use std::sync::Arc;

use eilid_casu::{merkle_measure_pmem, AttestationVerifier, DeviceKey, UpdateAuthority};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    CampaignConfig, Fleet, FleetBuilder, FleetOps, HealthClass, LocalOps, OpsError, SweepSummary,
    Verifier, SHARD_COUNT,
};
use eilid_net::{
    with_attached_fleet, AttestationService, Gateway, GatewayConfig, GatewayHandle, RemoteOps,
};
use eilid_workloads::WorkloadId;
use proptest::prelude::*;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const DEVICES: usize = 12;

/// The four device populations an attestation sweep distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceState {
    /// Updated, honest → `Attested`.
    Clean,
    /// Downgraded to the authentic previous firmware → `Stale`.
    Stale,
    /// One firmware byte flipped → `Tampered`.
    Tampered,
    /// Reports MAC'd under a key the verifier never derived →
    /// `Unverified`.
    WrongKey,
}

fn arb_state() -> impl Strategy<Value = DeviceState> {
    prop_oneof![
        Just(DeviceState::Clean),
        Just(DeviceState::Stale),
        Just(DeviceState::Tampered),
        Just(DeviceState::WrongKey),
    ]
}

fn expected_class(state: DeviceState) -> HealthClass {
    match state {
        DeviceState::Clean => HealthClass::Attested,
        DeviceState::Stale => HealthClass::Stale,
        DeviceState::Tampered => HealthClass::Tampered,
        DeviceState::WrongKey => HealthClass::Unverified,
    }
}

/// The cohort's golden measurements as this test tracks them itself:
/// the post-campaign image and the one it replaced.
struct Golden {
    current: [u8; 32],
    previous: [u8; 32],
}

/// Builds a fleet with real measurement history (one completed benign
/// campaign, so "stale" is a reachable class), then perturbs each
/// device into its assigned state. The golden measurements are taken
/// from scratch over the pre-campaign image and a patched copy of it.
fn prepare(states: &[DeviceState]) -> (Fleet, Verifier, Golden) {
    let (mut fleet, mut verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(states.len())
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();

    // The pre-campaign firmware bytes in the patch range — what a
    // downgraded device reverts to.
    let span =
        usize::from(BENIGN_PATCH_TARGET)..usize::from(BENIGN_PATCH_TARGET) + benign_patch().len();
    let old_bytes: Vec<u8> = fleet.devices()[0]
        .device()
        .cpu()
        .memory
        .slice(span)
        .to_vec();
    let mut image = fleet.devices()[0].device().cpu().memory.clone();
    let previous = merkle_measure_pmem(&image);
    image.load(BENIGN_PATCH_TARGET, &benign_patch()).unwrap();
    let golden = Golden {
        current: merkle_measure_pmem(&image),
        previous,
    };

    // Everyone updates; the previous image becomes stale-but-authentic.
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .expect("benign campaign completes");

    for (index, state) in states.iter().enumerate() {
        match state {
            DeviceState::Clean => {}
            DeviceState::Stale => {
                // An authorized downgrade back to the old bytes: still
                // authentic, no longer current.
                let key = verifier.device_key(index as u64);
                let device = &mut fleet.devices_mut()[index];
                let mut authority =
                    UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
                let request = authority.authorize(BENIGN_PATCH_TARGET, &old_bytes);
                device.apply_update(&request).unwrap();
                device.reboot();
            }
            DeviceState::Tampered => {
                let device = &mut fleet.devices_mut()[index];
                let memory = &mut device.device_mut().cpu_mut().memory;
                let original = memory.read_byte(0xE010);
                memory.write_byte(0xE010, original ^ 0x01);
            }
            DeviceState::WrongKey => {
                fleet.devices_mut()[index].corrupt_attestation_key();
            }
        }
    }
    (fleet, verifier, golden)
}

/// Challenges every device with a fresh nonce under its re-derived key,
/// checks the report MAC and classifies the measurement against
/// `golden` — the per-device sweep, written out from scratch.
fn classify_per_device(fleet: &mut Fleet, verifier: &Verifier, golden: &Golden) -> SweepSummary {
    // Far above any nonce the verifier's own domain hands out here.
    const NONCE_BASE: u64 = 1 << 40;
    let mut summary = SweepSummary {
        devices: 0,
        counts: [0; 4],
        flagged: Vec::new(),
    };
    for device in fleet.devices_mut() {
        let id = device.id();
        let checker = AttestationVerifier::with_key(&verifier.device_key(id));
        let challenge = checker.challenge_pmem(NONCE_BASE + id);
        let report = device.attest(challenge);
        let (slot, class) = match checker.verify(&challenge, &report, None) {
            Err(_) => (3, HealthClass::Unverified),
            Ok(()) if report.measurement == golden.current => (0, HealthClass::Attested),
            Ok(()) if report.measurement == golden.previous => (1, HealthClass::Stale),
            Ok(()) => (2, HealthClass::Tampered),
        };
        summary.devices += 1;
        summary.counts[slot] += 1;
        if class != HealthClass::Attested {
            summary.flagged.push((id, class));
        }
    }
    summary.flagged.sort_by_key(|(id, _)| *id);
    summary
}

fn spawn_gateway(verifier: &mut Verifier) -> (GatewayHandle, Arc<AttestationService>) {
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig::default(),
    )
    .unwrap();
    (gateway.spawn(), service)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The load-bearing oracle: for any device-state mix, the
    /// aggregated sweep's summary equals the from-scratch per-device
    /// classification, bit for bit, on both backends — and the operator
    /// verified at most `SHARD_COUNT` aggregate roots to get it.
    #[test]
    fn aggregated_sweep_matches_per_device_on_both_backends(
        states in prop::collection::vec(arb_state(), DEVICES..DEVICES + 1),
    ) {
        // In-process backend.
        let (mut fleet, mut verifier, golden) = prepare(&states);
        let reference = classify_per_device(&mut fleet, &verifier, &golden);
        let (local_agg, local_sweep) = {
            let mut ops = LocalOps::new(&mut fleet, &mut verifier);
            let agg = ops.sweep_aggregated().expect("local aggregated sweep");
            let sweep = ops.sweep().expect("local sweep");
            (agg, sweep)
        };
        prop_assert_eq!(&local_agg.summary, &reference);
        prop_assert_eq!(&local_sweep, &reference);
        prop_assert!(local_agg.roots_verified <= SHARD_COUNT);
        prop_assert_eq!(local_agg.roots_verified, local_agg.shards);

        // Wire backend on an identically prepared fleet: gateway +
        // device agents over loopback TCP, operator verifying the
        // gateway's aggregate-root MACs with re-derived shard keys.
        let (mut fleet, mut verifier, golden) = prepare(&states);
        prop_assert_eq!(&classify_per_device(&mut fleet, &verifier, &golden), &reference);
        let (handle, _service) = spawn_gateway(&mut verifier);
        let addr = handle.addr();
        let remote = with_attached_fleet(&mut fleet, 3, addr, || {
            let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
            ops.set_agg_root_key(ROOT);
            let agg = ops.sweep_aggregated()?;
            let sweep = ops.sweep()?;
            Ok::<_, OpsError>((agg, sweep))
        })
        .expect("device agents served cleanly");
        handle.shutdown().unwrap();
        let (remote_agg, remote_sweep) = remote.expect("remote sweeps succeed");

        prop_assert_eq!(&remote_agg.summary, &reference);
        prop_assert_eq!(&remote_sweep, &reference);
        prop_assert!(remote_agg.roots_verified <= SHARD_COUNT);
        prop_assert_eq!(remote_agg.roots_verified, remote_agg.shards);

        // The reference (and so both backends) agrees with the injected
        // ground truth.
        for (index, &state) in states.iter().enumerate() {
            let id = index as u64;
            let expected = expected_class(state);
            let flagged = reference.flagged.iter().find(|(device, _)| *device == id);
            match expected {
                HealthClass::Attested => prop_assert!(flagged.is_none()),
                class => prop_assert_eq!(flagged, Some(&(id, class))),
            }
        }

        // The memoized-probe rule: devices in suspect-free shards are
        // short-circuited; suspects' shards are not.
        let suspect_shards: std::collections::BTreeSet<u16> = local_agg
            .summary
            .flagged
            .iter()
            .map(|(device, _)| (device % SHARD_COUNT as u64) as u16)
            .collect();
        let expected_short: usize = (0..states.len() as u64)
            .filter(|id| !suspect_shards.contains(&((id % SHARD_COUNT as u64) as u16)))
            .count();
        prop_assert_eq!(local_agg.short_circuited, expected_short);
        prop_assert_eq!(remote_agg.short_circuited, expected_short);
    }
}

/// Epochs are nonce bases, so back-to-back aggregated sweeps on one
/// backend carry strictly increasing epochs — the property the
/// operator-side replay check rests on.
#[test]
fn aggregated_sweep_epochs_strictly_increase() {
    let states = vec![DeviceState::Clean; DEVICES];
    let (mut fleet, mut verifier, _) = prepare(&states);
    let mut ops = LocalOps::new(&mut fleet, &mut verifier);
    let first = ops.sweep_aggregated().expect("first sweep");
    let second = ops.sweep_aggregated().expect("second sweep");
    assert!(
        second.epoch > first.epoch,
        "epoch must advance: {} then {}",
        first.epoch,
        second.epoch
    );
    assert_eq!(first.summary, second.summary);
    // Same fleet state, fresh nonces: roots must differ (leaves bind
    // the challenge nonce), so a cached aggregate can never be replayed
    // as a later sweep's.
    assert_ne!(first.fleet_root, second.fleet_root);
}
