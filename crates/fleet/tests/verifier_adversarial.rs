//! Adversarial tests against the *optimised* verifier path: the sharded
//! sweep with cached device keys and the incremental (Merkle) device
//! measurers. Every optimisation is a place where stale state could leak
//! into a trust decision; these tests pin down that none does:
//!
//! * stale-cache attack — tamper a device's PMEM *between* sweeps and
//!   assert the next incremental sweep classifies it `Tampered` (the
//!   device-side Merkle cache must be invalidated by the write, and the
//!   verifier must never echo a previous sweep's verdict);
//! * cross-device replay — present device A's honestly produced report
//!   as device B's answer and assert the cached-key verifier rejects it
//!   (per-device keys, challenge binding);
//! * thread-count independence — the same seeded fleet, tampered and
//!   downgraded alike, sweeps to equal verdicts and evidence whether one
//!   thread or several run the shard jobs.

use std::collections::BTreeSet;

use eilid_casu::{
    AttestError, AttestationVerifier, Attestor, DeviceKey, MeasurementScheme, UpdateAuthority,
};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    AggSweepSummary, CampaignConfig, Fleet, FleetBuilder, FleetOps, HealthClass, LocalOps, Verifier,
};
use eilid_workloads::WorkloadId;
use proptest::test_runner::{for_each_case, mix_seed, run_seed};

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn root_key() -> DeviceKey {
    DeviceKey::new(ROOT).unwrap()
}

/// Tampering after a clean sweep must flip the device to `Tampered` on
/// the next sweep — across repeated sweeps (warm key caches, warm Merkle
/// trees), and back to `Attested` after an authenticated repair.
#[test]
fn stale_cache_attack_is_flagged_on_the_next_sweep() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(8)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    assert_eq!(fleet.scheme(), MeasurementScheme::Merkle);

    // Several clean sweeps first: key caches and Merkle trees are warm,
    // and the devices' measurers have served cached roots repeatedly.
    for _ in 0..3 {
        let report = verifier.sweep(&mut fleet);
        assert_eq!(report.count(HealthClass::Attested), 8);
    }
    assert_eq!(verifier.cached_keys(), 8);
    let clean_stats = *fleet.devices()[3].measurer_stats().unwrap();
    assert_eq!(
        clean_stats.leaves_rehashed, 0,
        "clean sweeps must not re-hash any leaf"
    );

    // The attacker flips one byte on device 3 *after* the sweeps.
    {
        let device = &mut fleet.devices_mut()[3];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }

    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 7);
    assert_eq!(report.flagged_as(HealthClass::Tampered), vec![3]);
    // Detection cost: exactly the one dirtied leaf was re-hashed.
    let stats = *fleet.devices()[3].measurer_stats().unwrap();
    assert_eq!(stats.leaves_rehashed, 1);

    // The flag is sticky across further sweeps (the engine keeps
    // reporting the tampered content, never a cached pre-tamper root).
    let again = verifier.sweep(&mut fleet);
    assert_eq!(again.flagged_as(HealthClass::Tampered), vec![3]);

    // Authenticated repair through the update path clears it.
    {
        let good: Vec<u8> = fleet.devices()[0]
            .device()
            .cpu()
            .memory
            .slice(0xE010..0xE011)
            .to_vec();
        let key = verifier.device_key(3);
        let device = &mut fleet.devices_mut()[3];
        let mut authority =
            eilid_casu::UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
        let request = authority.authorize(0xE010, &good);
        device.apply_update(&request).unwrap();
    }
    let healed = verifier.sweep(&mut fleet);
    assert_eq!(healed.count(HealthClass::Attested), 8);
}

/// Device A's honest report must never verify as device B's: the shard
/// key cache hands back *B's* key for B's challenge, under which A's MAC
/// is garbage — and the challenge binding catches mismatched nonces
/// first when the attacker replays wholesale.
#[test]
fn cross_device_report_replay_is_rejected() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(4)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    // Warm the verifier's key caches so the replay hits cached keys.
    verifier.sweep(&mut fleet);
    assert_eq!(verifier.cached_keys(), 4);

    let key_a = verifier.device_key(0);
    let key_b = verifier.device_key(1);
    let verifier_b = AttestationVerifier::with_key(&key_b);
    let layout = fleet.devices()[0].device().layout().clone();

    // The verifier challenges device B; the attacker answers with a
    // report honestly produced by (clean) device A under A's key.
    let challenge_b = verifier_b.challenge_pmem(&layout, 10_001);
    let report_a = fleet.devices_mut()[0].attest(challenge_b);
    assert_eq!(
        verifier_b.verify(&challenge_b, &report_a, None),
        Err(AttestError::BadMac),
        "a report MACed under device A's key must not verify as device B"
    );

    // Wholesale replay of A's *previous* report (answering A's own
    // challenge) against B's fresh challenge dies on challenge binding
    // even before the MAC check.
    let attestor_a = Attestor::with_key(&key_a);
    let challenge_a = AttestationVerifier::with_key(&key_a).challenge_pmem(&layout, 10_000);
    let recorded_a = attestor_a.attest(&fleet.devices()[0].device().cpu().memory, challenge_a);
    assert_eq!(
        verifier_b.verify(&challenge_b, &recorded_a, None),
        Err(AttestError::ChallengeMismatch)
    );

    // And the sweep as a whole still attests the untampered fleet clean:
    // replay attempts leave no residue in cached state.
    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 4);
}

/// The key cache fills on the first whole-fleet sweep and is reused by
/// every later one, whichever sweep entry point runs (correctness
/// witnessed by classifications staying exact).
#[test]
fn whole_fleet_sweeps_derive_each_key_once_and_stay_correct() {
    let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
        .devices(6)
        .threads(3)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap();
    assert_eq!(verifier.cached_keys(), 0, "keys are derived lazily");

    let report = verifier.sweep(&mut fleet);
    assert_eq!(report.count(HealthClass::Attested), 6);
    assert_eq!(verifier.cached_keys(), 6);
    assert_eq!(verifier.key_derivations(), 6);

    for round in 1..=3 {
        let report = verifier.sweep(&mut fleet);
        assert_eq!(report.count(HealthClass::Attested), 6);
        let aggregated = verifier.sweep_aggregated(&mut fleet);
        assert_eq!(aggregated.summary.count(HealthClass::Attested), 6);
        assert_eq!(verifier.cached_keys(), 6);
        assert_eq!(
            verifier.key_derivations(),
            6,
            "re-sweep {round} must not re-derive any key"
        );
    }
}

/// SplitMix64: the seeded draws of the thread-count case.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// `count` distinct ids below `devices`, none in `taken`.
    fn pick(&mut self, count: usize, devices: u64, taken: &BTreeSet<u64>) -> BTreeSet<u64> {
        let mut picked = BTreeSet::new();
        while picked.len() < count {
            let id = self.below(devices);
            if !taken.contains(&id) {
                picked.insert(id);
            }
        }
        picked
    }
}

/// One seeded fleet: `devices` across all seven cohorts, the
/// `(device, PMEM address)` firmware flips, and the devices downgraded
/// to their cohort's previous golden image.
struct Scenario {
    devices: usize,
    tampered: Vec<(u64, u16)>,
    stale: BTreeSet<u64>,
}

impl Scenario {
    fn draw(rng: &mut SplitMix) -> Self {
        let devices = 21 + rng.below(43);
        let (tampered, stale) = (1 + rng.below(4) as usize, 1 + rng.below(3) as usize);
        let tampered_ids = rng.pick(tampered, devices, &BTreeSet::new());
        let stale = rng.pick(stale, devices, &tampered_ids);
        let tampered = tampered_ids
            .into_iter()
            .map(|id| (id, 0xE000 + rng.below(0x40) as u16))
            .collect();
        Scenario {
            devices: devices as usize,
            tampered,
            stale,
        }
    }

    /// The verdicts every build must reach, in id order.
    fn flagged(&self) -> Vec<(u64, HealthClass)> {
        let tampered = self
            .tampered
            .iter()
            .map(|&(id, _)| (id, HealthClass::Tampered));
        let stale = self.stale.iter().map(|&id| (id, HealthClass::Stale));
        let mut flagged: Vec<_> = tampered.chain(stale).collect();
        flagged.sort_unstable();
        flagged
    }

    /// Builds the fleet at `threads`, completes a benign campaign on
    /// every cohort holding a stale device, rolls those devices back to
    /// the pre-campaign bytes, and flips one firmware byte per tampered
    /// device.
    fn build(&self, threads: usize) -> (Fleet, Verifier) {
        let (mut fleet, mut verifier) = FleetBuilder::new(root_key())
            .devices(self.devices)
            .threads(threads)
            .build()
            .unwrap();
        let span = usize::from(BENIGN_PATCH_TARGET)
            ..usize::from(BENIGN_PATCH_TARGET) + benign_patch().len();
        let stale: Vec<(u64, Vec<u8>)> = self
            .stale
            .iter()
            .map(|&id| {
                let memory = &fleet.devices()[id as usize].device().cpu().memory;
                (id, memory.slice(span.clone()).to_vec())
            })
            .collect();
        let cohorts: BTreeSet<WorkloadId> = self
            .stale
            .iter()
            .map(|&id| fleet.devices()[id as usize].cohort())
            .collect();
        for cohort in cohorts {
            let config = CampaignConfig::new(cohort, BENIGN_PATCH_TARGET, benign_patch());
            LocalOps::new(&mut fleet, &mut verifier)
                .run_campaign(&config)
                .expect("benign campaign completes");
        }
        for (id, old_bytes) in stale {
            let key = verifier.device_key(id);
            let device = &mut fleet.devices_mut()[id as usize];
            let mut authority =
                UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
            device
                .apply_update(&authority.authorize(BENIGN_PATCH_TARGET, &old_bytes))
                .unwrap();
            device.reboot();
        }
        for &(id, address) in &self.tampered {
            let memory = &mut fleet.devices_mut()[id as usize]
                .device_mut()
                .cpu_mut()
                .memory;
            let original = memory.read_byte(address);
            memory.write_byte(address, original ^ 0x01);
        }
        (fleet, verifier)
    }
}

/// However many threads run the shard jobs, a sweep reaches the same
/// verdicts and the same evidence: one seeded 7-cohort fleet with
/// tampered and stale devices, built at 1, 2, 3 and 8 threads, yields
/// equal aggregated sweeps (epoch, counts, flagged list, shard roots,
/// fleet root) three sweeps running, and derives each key once.
#[test]
fn sweeps_do_not_depend_on_the_thread_count() {
    const THREADS: [usize; 4] = [1, 2, 3, 8];
    for_each_case("sweep thread-count independence", 3, |case| {
        let mut rng = SplitMix(mix_seed(0x5EED_0000 + u64::from(case), run_seed()));
        let scenario = Scenario::draw(&mut rng);
        let mut builds: Vec<(Fleet, Verifier)> = THREADS
            .iter()
            .map(|&threads| scenario.build(threads))
            .collect();
        for round in 0..3 {
            let sweeps: Vec<AggSweepSummary> = builds
                .iter_mut()
                .map(|(fleet, verifier)| verifier.sweep_aggregated(fleet))
                .collect();
            assert_eq!(sweeps[0].summary.devices, scenario.devices);
            assert_eq!(
                sweeps[0].summary.flagged,
                scenario.flagged(),
                "round {round}"
            );
            for (threads, sweep) in THREADS.iter().zip(&sweeps).skip(1) {
                assert_eq!(
                    sweep, &sweeps[0],
                    "round {round}: threads({threads}) differs from threads(1)"
                );
            }
        }
        for (threads, (_, verifier)) in THREADS.iter().zip(&builds) {
            assert_eq!(
                verifier.key_derivations(),
                scenario.devices as u64,
                "threads({threads})"
            );
        }
    });
}
