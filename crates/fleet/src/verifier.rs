//! The verifier core both sweeps share, and the in-process verifier
//! built on it.
//!
//! The in-process [`Verifier`] and the `eilid_net` gateway (its
//! attestation service and engine) run one verifier core:
//!
//! * [`CohortSnapshot`] — one cohort's golden history, with the one
//!   classification rule ([`CohortSnapshot::classify`]) and the one
//!   golden promotion ([`CohortSnapshot::promote`]);
//! * [`KeyShard`] — one stable shard of the device-key cache, with the
//!   one lookup ([`KeyShard::key`]);
//! * [`fold_shard`] — the one fold of a shard's verdicts into its
//!   [`SweepSummary`] and signed [`AggProof`];
//! * [`AggSweepSummary::verified`] — the one operator-side proof check.
//!
//! The verifier runs one job per shard on the fleet's threads
//! ([`parallel_map_mut`]), giving each job exclusive use of its key
//! shard; the gateway keeps one lock per shard.

use std::collections::{BTreeMap, HashMap};

use eilid_casu::agg::{evidence_leaf, shard_agg_key, AggProof, EvidenceTree};
use eilid_casu::{
    merkle_measure_pmem, AttestError, AttestationReport, AttestationVerifier, Challenge, DeviceKey,
    MemoryLayout, LAYOUT,
};
use eilid_msp430::Memory;
use eilid_workloads::WorkloadId;

use crate::device::{DeviceId, SimDevice};
use crate::exec::parallel_map_mut;
use crate::fleet::Fleet;
use crate::ops::{class_index, merge_sweeps, AggSweepSummary, SweepSummary};
use crate::report::{HealthClass, LedgerEvent};
use crate::rollout::RolloutKeys;

/// Number of sweep shards — the unit device-key caches are keyed by.
///
/// Deliberately **independent of the worker-thread count** and fixed for
/// the verifier's lifetime: devices map to shards by `id % SHARD_COUNT`
/// forever, so a cached key is never orphaned.
pub const SHARD_COUNT: usize = 16;

/// The stable shard of `device`: `device % SHARD_COUNT`.
pub fn shard_of(device: DeviceId) -> usize {
    (device % SHARD_COUNT as u64) as usize
}

/// One stable shard of the verifier-side device-key cache. Devices are
/// assigned to shards by [`shard_of`], which never changes, so a
/// shard's cache keeps hitting for the same devices forever.
#[derive(Debug, Clone, Default)]
pub struct KeyShard {
    /// Device keys derived once from the fleet root, then reused.
    keys: HashMap<DeviceId, DeviceKey>,
    /// How many derivations this shard ever performed (each device key
    /// is derived exactly once — the regression witness for the
    /// shard-stability guarantee).
    derivations: u64,
}

impl KeyShard {
    /// The cached (or newly derived and cached) key of `device`.
    pub fn key(&mut self, root: &DeviceKey, device: DeviceId) -> &DeviceKey {
        let derivations = &mut self.derivations;
        self.keys.entry(device).or_insert_with(|| {
            *derivations += 1;
            root.derive(device)
        })
    }

    /// Number of keys cached in this shard.
    pub fn cached(&self) -> usize {
        self.keys.len()
    }

    /// Key derivations this shard ever performed.
    fn derivations(&self) -> u64 {
        self.derivations
    }
}

/// Folds one shard's verdicts — `(device, class, evidence leaf)` in
/// ascending device id, the canonical leaf order every aggregator
/// agrees on — into the shard's [`SweepSummary`] and its [`AggProof`]:
/// the evidence-tree root signed under the shard's aggregation key
/// (derived from the fleet `root`) for `epoch`. Only suspect
/// (non-attested) verdicts are kept; the clean majority is represented
/// solely by the proof.
pub fn fold_shard(
    root: &DeviceKey,
    shard: u16,
    epoch: u64,
    verdicts: impl IntoIterator<Item = (DeviceId, HealthClass, [u8; 32])>,
) -> (SweepSummary, AggProof) {
    let verdicts = verdicts.into_iter();
    let mut leaves = Vec::with_capacity(verdicts.size_hint().0);
    let mut summary = SweepSummary {
        devices: 0,
        counts: [0; 4],
        flagged: Vec::new(),
    };
    for (device, class, leaf) in verdicts {
        leaves.push(leaf);
        summary.counts[class_index(class)] += 1;
        if class != HealthClass::Attested {
            summary.flagged.push((device, class));
        }
    }
    summary.devices = leaves.len();
    let key = shard_agg_key(root.as_bytes(), shard);
    let tree_root = EvidenceTree::from_leaves(&leaves).root();
    let proof = AggProof::sign(&key, shard, epoch, leaves.len() as u32, tree_root);
    (summary, proof)
}

/// Exportable, self-contained snapshot of the verifier's trust state —
/// what the `eilid_net` attestation gateway is provisioned with. The
/// snapshot carries its own reserved block of the verifier's challenge
/// nonce domain, so networked challenges can never collide with
/// in-process sweep challenges.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// The fleet root key (device keys are derived from it).
    pub root: DeviceKey,
    /// Per-cohort golden state.
    pub cohorts: BTreeMap<WorkloadId, CohortSnapshot>,
    /// First nonce of the block reserved for this snapshot.
    pub nonce_base: u64,
    /// Number of nonces reserved (exclusive upper bound is
    /// `nonce_base + nonce_span`).
    pub nonce_span: u64,
}

/// One cohort's golden history: what the [`Verifier`] keeps per cohort
/// and a [`ServiceSnapshot`] hands to a gateway.
#[derive(Debug, Clone)]
pub struct CohortSnapshot {
    /// The memory map, always [`LAYOUT`]. Kept for the frozen benchmark
    /// crate, which passes it to [`MeasurementScheme::measure_pmem`].
    ///
    /// [`MeasurementScheme::measure_pmem`]: eilid_casu::MeasurementScheme::measure_pmem
    pub layout: MemoryLayout,
    /// The current golden measurement.
    pub current: [u8; 32],
    /// Previous still-authentic measurements ("stale").
    pub previous: Vec<[u8; 32]>,
    /// The golden memory image itself — what a gateway-resident campaign
    /// patches (on a copy) to compute the expected post-update
    /// measurement, and promotes on completion.
    pub golden: Memory,
}

impl CohortSnapshot {
    /// Classifies a verified-or-not report measurement against this
    /// golden history — the one rule both sweeps apply. Allocation-free:
    /// it runs once per report on both verification hot paths.
    pub fn classify(
        &self,
        verified: Result<(), AttestError>,
        measurement: &[u8; 32],
    ) -> (HealthClass, Option<AttestError>) {
        match verified {
            Err(error) => (HealthClass::Unverified, Some(error)),
            Ok(()) if *measurement == self.current => (HealthClass::Attested, None),
            Ok(()) if self.previous.contains(measurement) => (HealthClass::Stale, None),
            Ok(()) => (
                HealthClass::Tampered,
                Some(AttestError::UnexpectedMeasurement),
            ),
        }
    }

    /// Promotes `measurement` (taken over `golden`) to the current
    /// golden state, demoting the old measurement to "stale but
    /// authentic". Promoting the current measurement again is a no-op.
    pub fn promote(&mut self, golden: &Memory, measurement: [u8; 32]) {
        if self.current != measurement {
            self.previous.push(self.current);
            self.current = measurement;
            self.golden = golden.clone();
        }
    }
}

/// The trusted fleet verifier.
///
/// Holds the fleet root key (from which every device key is derived,
/// then cached in stable shards), the per-cohort golden state and the
/// challenge nonce state.
#[derive(Debug, Clone)]
pub struct Verifier {
    root: DeviceKey,
    expected: BTreeMap<WorkloadId, CohortSnapshot>,
    shards: Vec<KeyShard>,
    next_nonce: u64,
}

impl Verifier {
    /// Enrolls a fleet: records each cohort's golden measurement and
    /// sizes the stable shard set.
    pub(crate) fn enroll(root: DeviceKey, fleet: &Fleet) -> Self {
        let mut expected = BTreeMap::new();
        for cohort in fleet.cohort_ids() {
            let golden = fleet.golden(cohort).expect("cohort exists");
            expected.insert(
                cohort,
                CohortSnapshot {
                    layout: LAYOUT,
                    current: merkle_measure_pmem(golden),
                    previous: Vec::new(),
                    golden: golden.clone(),
                },
            );
        }
        Verifier {
            root,
            expected,
            shards: vec![KeyShard::default(); SHARD_COUNT],
            next_nonce: 1,
        }
    }

    /// Re-derives the key of `device` from the fleet root.
    pub fn device_key(&self, device: DeviceId) -> DeviceKey {
        self.root.derive(device)
    }

    /// Number of device keys currently cached across all sweep shards.
    pub fn cached_keys(&self) -> usize {
        self.shards.iter().map(KeyShard::cached).sum()
    }

    /// Total key derivations ever performed. With stable shards this
    /// equals [`Verifier::cached_keys`] however many sweeps ran — each
    /// device key is derived exactly once.
    pub fn key_derivations(&self) -> u64 {
        self.shards.iter().map(KeyShard::derivations).sum()
    }

    /// The current golden measurement for `cohort`.
    pub fn expected_measurement(&self, cohort: WorkloadId) -> Option<[u8; 32]> {
        self.expected.get(&cohort).map(|history| history.current)
    }

    /// Promotes `measurement` (taken over `golden`) to the current
    /// golden state for `cohort` through [`CohortSnapshot::promote`].
    pub(crate) fn promote_measurement(
        &mut self,
        cohort: WorkloadId,
        measurement: [u8; 32],
        golden: &Memory,
    ) {
        if let Some(history) = self.expected.get_mut(&cohort) {
            history.promote(golden, measurement);
        }
    }

    /// Exports a self-contained [`ServiceSnapshot`] for a networked
    /// attestation gateway, reserving `nonce_span` nonces from the
    /// verifier's single strictly increasing challenge-nonce domain so
    /// gateway challenges and in-process sweep challenges can never
    /// collide on a device key.
    pub fn service_snapshot(&mut self, nonce_span: u64) -> ServiceSnapshot {
        let nonce_base = self.reserve_challenge_nonces(nonce_span);
        ServiceSnapshot {
            root: self.root.clone(),
            cohorts: self.expected.clone(),
            nonce_base,
            nonce_span,
        }
    }

    /// Reserves `span` challenge nonces and returns their base, so
    /// `base + id` is a never-before-issued nonce for every id below
    /// `span`. All attestation challenges for the fleet — sweeps and
    /// campaign post-update probes alike — MUST allocate through this
    /// one strictly increasing domain, so no two challenges to the same
    /// device key can ever share a nonce.
    fn reserve_challenge_nonces(&mut self, span: u64) -> u64 {
        let base = self.next_nonce;
        self.next_nonce += span;
        base
    }

    /// Challenges, verifies and classifies one device against `shard`'s
    /// cached key. The report's measurement is *never* trusted from
    /// cache on the verifier side: only keys (immutable per device) are
    /// cached; classification always uses the fresh report, which is
    /// returned next to the verdict.
    fn check_device(
        shard: &mut KeyShard,
        root: &DeviceKey,
        expected: &BTreeMap<WorkloadId, CohortSnapshot>,
        nonce_base: u64,
        device: &mut SimDevice,
    ) -> (HealthClass, AttestationReport) {
        let verifier = AttestationVerifier::with_key(shard.key(root, device.id()));
        // Offset nonces so no two devices ever share one.
        let challenge = verifier.challenge_pmem(nonce_base + device.id());
        let report = device.attest(challenge);
        let verified = verifier.verify(&challenge, &report, None);
        let class = match expected.get(&device.cohort()) {
            Some(history) => history.classify(verified, &report.measurement).0,
            // A cohort this verifier never enrolled (a foreign
            // fleet): there is nothing to verify against.
            None => HealthClass::Unverified,
        };
        (class, report)
    }

    /// Partitions the fleet into its stable shards ([`shard_of`],
    /// ascending id within a shard) and runs one job per non-empty
    /// shard through [`parallel_map_mut`] on the fleet's threads: each
    /// job exclusively borrows its shard's key cache, verifies the
    /// shard's devices and folds the verdicts through [`fold_shard`].
    /// The only shared data is read-only; results come back in shard
    /// order.
    fn aggregate_shards(&mut self, fleet: &mut Fleet, epoch: u64) -> Vec<(SweepSummary, AggProof)> {
        let threads = fleet.threads();
        let mut shard_targets: Vec<Vec<&mut SimDevice>> =
            (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for device in fleet.devices_mut() {
            shard_targets[shard_of(device.id())].push(device);
        }
        let mut jobs: Vec<(usize, &mut KeyShard, Vec<&mut SimDevice>)> = self
            .shards
            .iter_mut()
            .zip(shard_targets)
            .enumerate()
            .filter(|(_, (_, targets))| !targets.is_empty())
            .map(|(index, (shard, mut targets))| {
                targets.sort_by_key(|device| device.id());
                (index, shard, targets)
            })
            .collect();
        let (root, expected) = (&self.root, &self.expected);
        parallel_map_mut(&mut jobs, threads, |(index, shard, targets)| {
            let verdicts = targets.iter_mut().map(|device| {
                let (class, report) = Self::check_device(shard, root, expected, epoch, device);
                (device.id(), class, evidence_leaf(device.id(), &report))
            });
            fold_shard(root, *index as u16, epoch, verdicts)
        })
    }

    /// Issues one attestation sweep across the whole fleet and returns
    /// its per-class verdicts (the `summary` of
    /// [`Verifier::sweep_aggregated`]).
    pub fn sweep(&mut self, fleet: &mut Fleet) -> SweepSummary {
        self.sweep_aggregated(fleet).summary
    }

    /// Issues one attestation sweep across the whole fleet, folding the
    /// evidence into one signed aggregate root per shard.
    ///
    /// Every device is challenged with a fresh nonce and every report
    /// MAC is checked. Devices are partitioned into stable shards by
    /// [`shard_of`]; the fleet's threads run one job per non-empty
    /// shard, each exclusively owning its shard's key cache, so keys are
    /// derived once per device *ever*, not once per sweep. The
    /// operator-side check ([`AggSweepSummary::verified`]) verifies at
    /// most [`SHARD_COUNT`] aggregate root MACs and takes per-device
    /// verdicts only for the suspects each shard reports. The sweep's
    /// reserved challenge-nonce base doubles as the aggregation
    /// **epoch** — strictly increasing, so no aggregate proof can be
    /// replayed into a later sweep. Flagged devices are recorded in the
    /// fleet ledger.
    ///
    /// # Panics
    ///
    /// If a shard proof fails verification, which only a verifier bug
    /// can cause: both sides of the check run in this process.
    pub fn sweep_aggregated(&mut self, fleet: &mut Fleet) -> AggSweepSummary {
        let span = fleet
            .devices()
            .iter()
            .map(|d| d.id() + 1)
            .max()
            .unwrap_or(1);
        let epoch = self.reserve_challenge_nonces(span);
        let (summaries, proofs): (Vec<SweepSummary>, Vec<AggProof>) =
            self.aggregate_shards(fleet, epoch).into_iter().unzip();
        let agg = AggSweepSummary::verified(
            merge_sweeps(&summaries),
            epoch,
            &proofs,
            self.root.as_bytes(),
        )
        .unwrap_or_else(|shard| panic!("shard {shard} aggregate root failed verification"));
        for (device, class) in &agg.summary.flagged {
            fleet.ledger_mut().record(LedgerEvent::AttestationFlagged {
                device: *device,
                class: *class,
            });
        }
        agg
    }
}

/// In-process campaigns draw keys and probe challenges from the
/// verifier.
impl RolloutKeys for Verifier {
    fn device_key(&self, device: DeviceId) -> DeviceKey {
        Verifier::device_key(self, device)
    }

    fn challenge(&mut self, cohort: WorkloadId, _device: DeviceId) -> Option<Challenge> {
        // Only an enrolled cohort is challenged.
        self.expected.get(&cohort)?;
        let (start, end) = (*LAYOUT.pmem.start(), *LAYOUT.pmem.end());
        // One nonce from the domain sweeps draw from too, so no
        // challenge to a device key ever repeats.
        let nonce = self.reserve_challenge_nonces(1);
        Some(Challenge { nonce, start, end })
    }
}
