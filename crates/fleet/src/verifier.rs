//! The fleet verifier: batched attestation sweeps on the persistent
//! worker pool, sharded sweep state with cached device keys, and
//! measurement bookkeeping.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use eilid_casu::agg::{evidence_leaf, shard_agg_key, AggProof, EvidenceTree};
use eilid_casu::{
    AttestError, AttestationReport, AttestationVerifier, Challenge, CryptoProvider, DeviceKey,
    MeasurementScheme, MemoryLayout, SoftwareProvider,
};
use eilid_msp430::Memory;
use eilid_workloads::WorkloadId;

use crate::device::{DeviceId, SimDevice};
use crate::fleet::Fleet;
use crate::ops::{class_index, AggSweepSummary, SweepSummary};
use crate::pool::WorkerPool;
use crate::report::{DeviceHealth, FleetReport, HealthClass, LedgerEvent};
use crate::rollout::RolloutKeys;

/// What one shard's aggregated-sweep job produces: the signed aggregate
/// proof over the shard's evidence tree, plus only the *suspect*
/// verdicts — clean devices are represented solely by the aggregate.
#[derive(Debug, Clone)]
struct ShardAggregate {
    shard: u16,
    devices: usize,
    counts: [usize; 4],
    proof: AggProof,
    suspects: Vec<DeviceHealth>,
}

/// Number of sweep shards — the unit device-key caches are keyed by.
///
/// Deliberately **independent of the worker-thread count** and fixed for
/// the verifier's lifetime: devices map to shards by `id % SHARD_COUNT`
/// forever, so changing the sweep parallelism between sweeps (see
/// [`Verifier::set_parallelism`]) re-routes shards to workers but can
/// never orphan a cached key. (The PR 2 design keyed shards by
/// `id % threads`, which silently abandoned every cache when the caller
/// asked for a different thread count.)
pub const SHARD_COUNT: usize = 16;

/// Known-good measurements of one firmware cohort: the current version
/// plus every previous version still considered "stale but authentic",
/// the memory layout the cohort's devices attest over, and the golden
/// memory image itself (campaigns patch a copy of it to derive the
/// expected post-update measurement — the networked gateway gets its
/// copy through [`ServiceSnapshot`]).
#[derive(Debug, Clone)]
pub(crate) struct MeasurementHistory {
    pub(crate) current: [u8; 32],
    pub(crate) previous: Vec<[u8; 32]>,
    pub(crate) layout: MemoryLayout,
    pub(crate) golden: Memory,
}

/// Classifies one verified-or-not report measurement against a golden
/// history — the single classification rule the in-process verifier and
/// the networked gateway both apply. Allocation-free: it sits on the
/// per-report verification hot path of both.
fn classify_measurement(
    current: &[u8; 32],
    previous: &[[u8; 32]],
    verified: Result<(), AttestError>,
    measurement: &[u8; 32],
) -> (HealthClass, Option<AttestError>) {
    match verified {
        Err(error) => (HealthClass::Unverified, Some(error)),
        Ok(()) if measurement == current => (HealthClass::Attested, None),
        Ok(()) if previous.contains(measurement) => (HealthClass::Stale, None),
        Ok(()) => (
            HealthClass::Tampered,
            Some(AttestError::UnexpectedMeasurement),
        ),
    }
}

impl MeasurementHistory {
    /// Classifies one verified-or-not report measurement against this
    /// history.
    pub(crate) fn classify(
        &self,
        verified: Result<(), AttestError>,
        measurement: &[u8; 32],
    ) -> (HealthClass, Option<AttestError>) {
        classify_measurement(&self.current, &self.previous, verified, measurement)
    }
}

/// Per-shard sweep state. Devices are assigned to shards by
/// `id % SHARD_COUNT`, which is stable across sweeps *and* across
/// parallelism changes, so a shard's key cache keeps hitting for the
/// same devices forever. During a sweep each pool worker owns the shards
/// routed to it exclusively, so no cross-thread synchronisation is ever
/// needed.
#[derive(Debug, Clone, Default)]
struct SweepShard {
    /// Device keys derived once from the fleet root, then reused.
    keys: HashMap<DeviceId, DeviceKey>,
    /// How many derivations this shard ever performed (each device key
    /// is derived exactly once — the regression witness for the
    /// shard-stability guarantee).
    derivations: u64,
}

impl SweepShard {
    /// The cached (or newly derived and cached) key of `device`.
    fn key(&mut self, root: &DeviceKey, device: DeviceId) -> &DeviceKey {
        let derivations = &mut self.derivations;
        self.keys.entry(device).or_insert_with(|| {
            *derivations += 1;
            root.derive(device)
        })
    }
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
    /// The measurement scheme reports are verified under.
    pub scheme: MeasurementScheme,
    /// Per-cohort golden state.
    pub cohorts: BTreeMap<WorkloadId, CohortSnapshot>,
    /// First nonce of the block reserved for this snapshot.
    pub nonce_base: u64,
    /// Number of nonces reserved (exclusive upper bound is
    /// `nonce_base + nonce_span`).
    pub nonce_span: u64,
}

/// One cohort's golden state inside a [`ServiceSnapshot`].
#[derive(Debug, Clone)]
pub struct CohortSnapshot {
    /// Layout the cohort's devices attest over.
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
    /// Classifies a verified-or-not measurement exactly as the fleet
    /// verifier would (same rule, no allocation — this runs once per
    /// networked report).
    pub fn classify(
        &self,
        verified: Result<(), AttestError>,
        measurement: &[u8; 32],
    ) -> (HealthClass, Option<AttestError>) {
        classify_measurement(&self.current, &self.previous, verified, measurement)
    }
}

/// The trusted fleet verifier.
///
/// Holds the fleet root key (from which every device key is derived,
/// then cached in stable shards), the per-cohort golden measurements,
/// the measurement scheme the fleet was enrolled under, the challenge
/// nonce state, and the persistent [`WorkerPool`] sweeps run on.
#[derive(Debug)]
pub struct Verifier {
    root: DeviceKey,
    expected: BTreeMap<WorkloadId, MeasurementHistory>,
    scheme: MeasurementScheme,
    shards: Vec<SweepShard>,
    pool: WorkerPool,
    next_nonce: u64,
    /// Backend for verifier-side bulk crypto (aggregated sweeps route
    /// MAC recomputation and tree hashing through it; the per-device
    /// sweep keeps the scalar path). All backends are bit-compatible.
    provider: Arc<dyn CryptoProvider>,
}

impl Clone for Verifier {
    /// Cloning duplicates the trust state (keys, goldens, caches) and
    /// spins up a *fresh* worker pool with the same parallelism —
    /// worker threads are not shareable state.
    fn clone(&self) -> Self {
        Verifier {
            root: self.root.clone(),
            expected: self.expected.clone(),
            scheme: self.scheme,
            shards: self.shards.clone(),
            pool: WorkerPool::new(self.pool.workers(), SHARD_COUNT),
            next_nonce: self.next_nonce,
            provider: Arc::clone(&self.provider),
        }
    }
}

impl Verifier {
    /// Enrolls a fleet: records each cohort's golden measurement (under
    /// the fleet's measurement scheme, over the layout the cohort's
    /// devices were actually built with), sizes the stable shard set,
    /// and spins up the persistent worker pool with one worker per
    /// fleet thread.
    pub(crate) fn enroll(root: DeviceKey, fleet: &Fleet) -> Self {
        let scheme = fleet.scheme();
        let mut expected = BTreeMap::new();
        for cohort in fleet.cohort_ids() {
            let state = fleet.cohort(cohort).expect("cohort exists");
            expected.insert(
                cohort,
                MeasurementHistory {
                    current: scheme.measure_pmem(&state.golden, &state.layout),
                    previous: Vec::new(),
                    layout: state.layout.clone(),
                    golden: state.golden.clone(),
                },
            );
        }
        Verifier {
            root,
            expected,
            scheme,
            shards: vec![SweepShard::default(); SHARD_COUNT],
            pool: WorkerPool::new(fleet.threads(), SHARD_COUNT),
            next_nonce: 1,
            provider: Arc::new(SoftwareProvider),
        }
    }

    /// Routes verifier-side bulk crypto (aggregated sweeps) through
    /// `provider`. Backends are bit-compatible, so this changes cost,
    /// never verdicts.
    pub fn set_provider(&mut self, provider: Arc<dyn CryptoProvider>) {
        self.provider = provider;
    }

    /// The crypto backend aggregated sweeps run on.
    pub fn provider(&self) -> &Arc<dyn CryptoProvider> {
        &self.provider
    }

    /// Re-derives the key of `device` from the fleet root.
    pub fn device_key(&self, device: DeviceId) -> DeviceKey {
        self.root.derive(device)
    }

    /// The measurement scheme this verifier checks reports against.
    pub fn scheme(&self) -> MeasurementScheme {
        self.scheme
    }

    /// Number of device keys currently cached across all sweep shards.
    pub fn cached_keys(&self) -> usize {
        self.shards.iter().map(|s| s.keys.len()).sum()
    }

    /// Total key derivations ever performed. With stable shards this
    /// equals [`Verifier::cached_keys`] no matter how often the
    /// parallelism changes — each device key is derived exactly once.
    pub fn key_derivations(&self) -> u64 {
        self.shards.iter().map(|s| s.derivations).sum()
    }

    /// Number of persistent sweep workers.
    pub fn parallelism(&self) -> usize {
        self.pool.workers()
    }

    /// Changes the number of persistent sweep workers. The stable shard
    /// set (and every cached key in it) is untouched: only the
    /// shard→worker routing changes, so resizing between sweeps never
    /// costs a re-derivation.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.pool.set_workers(workers);
    }

    /// The current golden measurement for `cohort`.
    pub fn expected_measurement(&self, cohort: WorkloadId) -> Option<[u8; 32]> {
        self.expected.get(&cohort).map(|h| h.current)
    }

    /// Promotes `measurement` (taken over `golden`) to the current
    /// golden state for `cohort`, demoting the old measurement to
    /// "stale but authentic".
    pub(crate) fn promote_measurement(
        &mut self,
        cohort: WorkloadId,
        measurement: [u8; 32],
        golden: &Memory,
    ) {
        if let Some(history) = self.expected.get_mut(&cohort) {
            if history.current != measurement {
                let old = history.current;
                history.previous.push(old);
                history.current = measurement;
                history.golden = golden.clone();
            }
        }
    }

    /// Exports a self-contained [`ServiceSnapshot`] for a networked
    /// attestation gateway, reserving `nonce_span` nonces from the
    /// verifier's single strictly increasing challenge-nonce domain so
    /// gateway challenges and in-process sweep challenges can never
    /// collide on a device key.
    pub fn service_snapshot(&mut self, nonce_span: u64) -> ServiceSnapshot {
        let nonce_base = self.next_nonce;
        self.next_nonce += nonce_span;
        ServiceSnapshot {
            root: self.root.clone(),
            scheme: self.scheme,
            cohorts: self
                .expected
                .iter()
                .map(|(cohort, history)| {
                    (
                        *cohort,
                        CohortSnapshot {
                            layout: history.layout.clone(),
                            current: history.current,
                            previous: history.previous.clone(),
                            golden: history.golden.clone(),
                        },
                    )
                })
                .collect(),
            nonce_base,
            nonce_span,
        }
    }

    /// Reserves challenge nonces for the devices in `ids` and returns a
    /// base such that `base + id` is a never-before-issued nonce for
    /// every listed id. All attestation challenges for the fleet —
    /// sweeps and campaign post-update probes alike — MUST allocate
    /// through this one strictly increasing domain, so no two challenges
    /// to the same device key can ever share a nonce.
    pub(crate) fn reserve_challenge_nonces(&mut self, ids: &[DeviceId]) -> u64 {
        // Span to the max id so `base + id` is unique even for a sparse
        // subset of high device ids.
        let span = ids.iter().copied().max().unwrap_or(0) + 1;
        let base = self.next_nonce;
        self.next_nonce += span;
        base
    }

    /// Challenges, verifies and classifies one device against `shard`'s
    /// cached state, with the report MAC recomputed through `provider`
    /// (bit-compatible backends, identical verdicts). The report's
    /// measurement is *never* trusted from cache on the verifier side:
    /// only keys (immutable per device) are cached; classification
    /// always uses the fresh report, which is returned next to the
    /// verdict.
    fn check_device(
        shard: &mut SweepShard,
        provider: &dyn CryptoProvider,
        root: &DeviceKey,
        expected: &BTreeMap<WorkloadId, MeasurementHistory>,
        nonce_base: u64,
        device: &mut SimDevice,
    ) -> (DeviceHealth, AttestationReport) {
        let key = shard.key(root, device.id());
        let verifier = AttestationVerifier::with_key(key);
        // Offset nonces so no two devices ever share one.
        let challenge = verifier.challenge_pmem(device.device().layout(), nonce_base + device.id());
        let report = device.attest(challenge);
        let verified = verifier.verify_with(provider, &challenge, &report, None);
        let (class, error) = match expected.get(&device.cohort()) {
            Some(history) => history.classify(verified, &report.measurement),
            // A cohort this verifier never enrolled (a foreign
            // fleet): there is nothing to verify against.
            None => (HealthClass::Unverified, None),
        };
        let health = DeviceHealth {
            device: device.id(),
            cohort: device.cohort(),
            class,
            error,
        };
        (health, report)
    }

    /// Partitions `targets` into their stable shards (`id % SHARD_COUNT`,
    /// ascending id within a shard — the canonical leaf order every
    /// aggregator agrees on) and runs `job` once per non-empty shard,
    /// with that shard's state exclusively borrowed, as one
    /// [`WorkerPool::scope`] job per shard (shards route to exactly one
    /// worker, so the only shared data is read-only; a one-worker pool
    /// runs them inline). Results come back in shard order.
    fn run_shards<'env, R, F>(
        shards: &'env mut [SweepShard],
        pool: &WorkerPool,
        targets: Vec<&'env mut SimDevice>,
        job: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut SweepShard, Vec<&'env mut SimDevice>) -> R + Sync,
    {
        let mut shard_targets: Vec<Vec<&mut SimDevice>> =
            (0..shards.len()).map(|_| Vec::new()).collect();
        for device in targets {
            let shard = (device.id() % shards.len() as u64) as usize;
            shard_targets[shard].push(device);
        }
        for targets in &mut shard_targets {
            targets.sort_by_key(|device| device.id());
        }
        let work = shards
            .iter_mut()
            .zip(shard_targets)
            .enumerate()
            .filter(|(_, (_, targets))| !targets.is_empty());
        let job = &job;
        let jobs: Vec<(usize, Box<dyn FnOnce() -> R + Send + '_>)> = work
            .map(|(index, (shard, targets))| {
                let run: Box<dyn FnOnce() -> R + Send + '_> =
                    Box::new(move || job(index, shard, targets));
                (index, run)
            })
            .collect();
        pool.scope(jobs)
    }

    /// Issues one batched attestation sweep across the whole fleet.
    ///
    /// Every device gets a fresh challenge over its full application PMEM
    /// range. Devices are partitioned into stable shards by
    /// `id % SHARD_COUNT`; the persistent pool runs one job per
    /// non-empty shard, each exclusively owning its shard's key cache,
    /// so keys are derived once per device *ever*, not once per sweep —
    /// and no threads are spawned per sweep. Flagged devices are
    /// recorded in the fleet ledger.
    pub fn sweep(&mut self, fleet: &mut Fleet) -> FleetReport {
        let ids: Vec<DeviceId> = fleet.devices().iter().map(|d| d.id()).collect();
        self.sweep_devices(fleet, &ids)
    }

    /// Issues a batched attestation sweep over a subset of devices.
    ///
    /// Shard assignment is `id % SHARD_COUNT` — stable across sweeps
    /// (and parallelism changes) so key caches keep hitting, and evenly
    /// balanced for dense id sets (the whole-fleet sweep). The report's
    /// `threads` field records the workers that actually ran shard
    /// batches, not the configured count.
    pub fn sweep_devices(&mut self, fleet: &mut Fleet, ids: &[DeviceId]) -> FleetReport {
        let nonce_base = self.reserve_challenge_nonces(ids);
        let targets = fleet.devices_by_ids_mut(ids);
        let challenged: BTreeSet<DeviceId> = targets.iter().map(|d| d.id()).collect();
        let threads = challenged
            .iter()
            .map(|id| self.pool.worker_of((id % SHARD_COUNT as u64) as usize))
            .collect::<BTreeSet<usize>>()
            .len()
            .max(1);

        let start = Instant::now();
        let (root, expected) = (&self.root, &self.expected);
        let per_shard = Self::run_shards(
            &mut self.shards,
            &self.pool,
            targets,
            |_, shard, targets| {
                targets
                    .into_iter()
                    .map(|device| {
                        Self::check_device(
                            shard,
                            &SoftwareProvider,
                            root,
                            expected,
                            nonce_base,
                            device,
                        )
                        .0
                    })
                    .collect::<Vec<DeviceHealth>>()
            },
        );
        let elapsed = start.elapsed();
        let mut healths: Vec<DeviceHealth> = per_shard.into_iter().flatten().collect();
        // Shard partitioning interleaves ids; reports stay in id order.
        healths.sort_by_key(|h| h.device);

        // Ids that matched no device were never challenged; surface them
        // rather than letting the report silently shrink.
        let missing: Vec<DeviceId> = ids
            .iter()
            .copied()
            .filter(|id| !challenged.contains(id))
            .collect();

        for health in &healths {
            if health.class != HealthClass::Attested {
                fleet.ledger_mut().record(LedgerEvent::AttestationFlagged {
                    device: health.device,
                    class: health.class,
                });
            }
        }
        FleetReport {
            devices: healths,
            missing,
            elapsed,
            threads,
            scheme: self.scheme,
        }
    }

    /// Runs one shard of an aggregated sweep: verify every device,
    /// build the evidence tree (leaves in ascending device-id order),
    /// and sign the root with the shard's aggregation key. Only the
    /// suspect (non-attested) verdicts are materialised — the clean
    /// majority is represented solely by the aggregate.
    fn aggregate_shard(
        index: usize,
        shard: &mut SweepShard,
        targets: Vec<&mut SimDevice>,
        provider: &dyn CryptoProvider,
        root: &DeviceKey,
        expected: &BTreeMap<WorkloadId, MeasurementHistory>,
        epoch: u64,
    ) -> ShardAggregate {
        let devices = targets.len();
        let mut counts = [0usize; 4];
        let mut suspects = Vec::new();
        let mut leaves = Vec::with_capacity(devices);
        for device in targets {
            let (health, report) =
                Self::check_device(shard, provider, root, expected, epoch, device);
            leaves.push(evidence_leaf(provider, health.device, &report));
            counts[class_index(health.class)] += 1;
            if health.class != HealthClass::Attested {
                suspects.push(health);
            }
        }
        let tree = EvidenceTree::from_leaves(provider, &leaves);
        let key = shard_agg_key(provider, root.as_bytes(), index as u16);
        let proof = AggProof::sign(
            provider,
            &key,
            index as u16,
            epoch,
            devices as u32,
            tree.root(),
        );
        ShardAggregate {
            shard: index as u16,
            devices,
            counts,
            proof,
            suspects,
        }
    }

    /// Issues one *aggregated* attestation sweep across the whole
    /// fleet.
    ///
    /// Trust semantics are identical to [`Verifier::sweep`] — every
    /// device is challenged with a fresh nonce and every report MAC is
    /// checked — but the evidence is folded into one signed aggregate
    /// root per shard, and an all-clean shard short-circuits per-device
    /// verdict assembly: the operator-side check verifies at most
    /// [`SHARD_COUNT`] aggregate root MACs, descending to per-device
    /// verdicts only for the suspects each shard reports.
    pub fn sweep_aggregated(&mut self, fleet: &mut Fleet) -> AggSweepSummary {
        let ids: Vec<DeviceId> = fleet.devices().iter().map(|d| d.id()).collect();
        self.sweep_devices_aggregated(fleet, &ids)
    }

    /// Aggregated sweep over a subset of devices (see
    /// [`Verifier::sweep_aggregated`]). The sweep's reserved
    /// challenge-nonce base doubles as the aggregation **epoch** —
    /// strictly increasing, so no aggregate proof can be replayed into
    /// a later sweep.
    pub fn sweep_devices_aggregated(
        &mut self,
        fleet: &mut Fleet,
        ids: &[DeviceId],
    ) -> AggSweepSummary {
        let epoch = self.reserve_challenge_nonces(ids);
        let provider_ref: &dyn CryptoProvider = &*self.provider;
        let (root, expected) = (&self.root, &self.expected);
        let targets = fleet.devices_by_ids_mut(ids);
        let aggregates = Self::run_shards(
            &mut self.shards,
            &self.pool,
            targets,
            |index, shard, targets| {
                Self::aggregate_shard(index, shard, targets, provider_ref, root, expected, epoch)
            },
        );

        // Operator-side assembly: one MAC verification per shard
        // aggregate covers its whole clean population; per-device
        // verdicts are assembled only from the reported suspects.
        let mut summary = SweepSummary {
            devices: 0,
            counts: [0; 4],
            flagged: Vec::new(),
        };
        let mut shard_roots = Vec::with_capacity(aggregates.len());
        let mut roots_verified = 0usize;
        let mut short_circuited = 0usize;
        for aggregate in &aggregates {
            let key = shard_agg_key(provider_ref, self.root.as_bytes(), aggregate.shard);
            assert!(
                aggregate.proof.verify(provider_ref, &key),
                "shard {} aggregate root failed verification",
                aggregate.shard
            );
            roots_verified += 1;
            summary.devices += aggregate.devices;
            for (slot, count) in summary.counts.iter_mut().zip(aggregate.counts) {
                *slot += count;
            }
            if aggregate.suspects.is_empty() {
                short_circuited += aggregate.devices;
            }
            for suspect in &aggregate.suspects {
                summary.flagged.push((suspect.device, suspect.class));
            }
            shard_roots.push((aggregate.shard, aggregate.proof.root));
        }
        summary.flagged.sort_by_key(|(id, _)| *id);
        for (device, class) in &summary.flagged {
            fleet.ledger_mut().record(LedgerEvent::AttestationFlagged {
                device: *device,
                class: *class,
            });
        }
        let fleet_root = eilid_casu::agg::fleet_root(provider_ref, &shard_roots);
        AggSweepSummary {
            summary,
            epoch,
            shards: aggregates.len(),
            roots_verified,
            short_circuited,
            shard_roots,
            fleet_root,
        }
    }
}

/// In-process campaigns draw keys and probe challenges from the
/// verifier.
impl RolloutKeys for Verifier {
    fn device_key(&self, device: DeviceId) -> DeviceKey {
        Verifier::device_key(self, device)
    }

    fn challenge(&mut self, cohort: WorkloadId, _device: DeviceId) -> Option<Challenge> {
        let pmem = &self.expected.get(&cohort)?.layout.pmem;
        let (start, end) = (*pmem.start(), *pmem.end());
        // One nonce from the domain sweeps draw from too, so no
        // challenge to a device key ever repeats.
        let nonce = self.reserve_challenge_nonces(&[0]);
        Some(Challenge { nonce, start, end })
    }
}
