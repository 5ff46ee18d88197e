//! The per-device rollout protocol as one sans-IO state machine.
//!
//! ```text
//!  wave:      snapshot ─▶ update ─▶ attest probe ─▶ verdict
//!                           └─ sparse delta rejected: full range, same nonce
//!  rollback:  snapshot ─▶ full-range restore ─▶ verify probe
//! ```
//!
//! [`Rollout`] makes every decision along those chains — authorizing
//! off the nonce and version the device reports, shipping a sparse
//! delta only when it undercuts the full range, the same-nonce resend,
//! choosing the cohort reference whose smoke verdict byte-identical
//! siblings inherit, and what counts as an executed or memoized probe —
//! and performs no I/O: a driver feeds it device [`Reply`]s and the
//! transport signals "busy" and "lost", and pushes the [`Request`]s it
//! hands back. The in-process
//! [`LocalExecutor`](crate::campaign::LocalExecutor) and the gateway
//! engine in `eilid_net` are its two drivers. [`serve`] is the device
//! half, shared by the local driver and the network device agent.

use std::collections::{BTreeMap, HashMap, VecDeque};

use eilid::RunOutcome;
use eilid_casu::{
    AttestationReport, AttestationVerifier, Challenge, DeltaUpdateRequest, DeviceKey,
    MeasurementScheme, UpdateAuthority, UpdateError,
};
use eilid_msp430::ADDRESS_SPACE;
use eilid_workloads::WorkloadId;

use crate::campaign::CampaignConfig;
use crate::device::{DeviceId, SimDevice};
use crate::report::LedgerEvent;

/// How many times a device may shed the same request with "busy"
/// before the machine gives up on it.
pub const BUSY_RETRIES: usize = 8;

/// What a probe request asks the device to do around answering its
/// attestation challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Answer the challenge from the running image — the sweep probe.
    AttestOnly,
    /// Attest first, then reboot into the (just-updated) firmware and
    /// smoke-run it for the request's cycle budget. The reply's
    /// `healthy` reports the smoke run.
    UpdateProbe,
    /// Reboot first, then attest — the post-rollback verification
    /// probe.
    RollbackVerify,
    /// Attest, then reboot into the just-updated firmware — the
    /// memoized campaign probe. A device eligible for memoization
    /// answers with no verdict of its own ("inherit the cohort
    /// reference's"); a probe-isolated device runs the full
    /// [`ProbeMode::UpdateProbe`] flow instead.
    UpdateAttest,
}

impl ProbeMode {
    /// The mode's stable wire code.
    pub fn to_u8(self) -> u8 {
        match self {
            ProbeMode::AttestOnly => 0,
            ProbeMode::UpdateProbe => 1,
            ProbeMode::RollbackVerify => 2,
            ProbeMode::UpdateAttest => 3,
        }
    }

    /// The mode for a wire code, if it names one.
    pub fn from_u8(code: u8) -> Option<Self> {
        Some(match code {
            0 => ProbeMode::AttestOnly,
            1 => ProbeMode::UpdateProbe,
            2 => ProbeMode::RollbackVerify,
            3 => ProbeMode::UpdateAttest,
            _ => return None,
        })
    }
}

/// One request for one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Report the update engine's last nonce and version, the full-PMEM
    /// measurement, and the bytes of `[start, start + len)`.
    Snapshot {
        /// The target device.
        device: DeviceId,
        /// First address of the range to copy.
        start: u16,
        /// Bytes to copy (0 for a bare nonce query).
        len: u16,
    },
    /// Apply an authenticated update. A full image is a delta with one
    /// segment covering the whole target range.
    Update {
        /// The target device.
        device: DeviceId,
        /// The MACed update.
        request: DeltaUpdateRequest,
    },
    /// Answer an attestation challenge per `mode`.
    Probe {
        /// The target device.
        device: DeviceId,
        /// What to do around the attestation.
        mode: ProbeMode,
        /// Cycle budget of the smoke run, where `mode` runs one.
        smoke_cycles: u64,
        /// The challenge to answer.
        challenge: Challenge,
    },
}

impl Request {
    /// The device the request is for.
    pub fn device(&self) -> DeviceId {
        match self {
            Request::Snapshot { device, .. }
            | Request::Update { device, .. }
            | Request::Probe { device, .. } => *device,
        }
    }
}

/// A device's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The answer to [`Request::Snapshot`].
    Snapshot {
        /// The update engine's last accepted nonce.
        last_nonce: u64,
        /// The update engine's anti-rollback version.
        version: u64,
        /// The full-PMEM measurement.
        measurement: [u8; 32],
        /// The requested bytes.
        data: Vec<u8>,
    },
    /// The answer to [`Request::Update`].
    Update(Result<(), UpdateError>),
    /// The answer to [`Request::Probe`].
    Probe {
        /// The smoke run's verdict. Probes that run no smoke answer
        /// `Some(true)`; a memoized [`ProbeMode::UpdateAttest`] answers
        /// `None` — no verdict of its own.
        healthy: Option<bool>,
        /// The attestation report.
        report: AttestationReport,
    },
}

/// Where the machine gets device keys and fresh challenges from.
pub trait RolloutKeys {
    /// The key `device` MACs updates and reports with.
    fn device_key(&self, device: DeviceId) -> DeviceKey;

    /// A challenge under a nonce never issued to `device` before, over
    /// the cohort's PMEM; `None` when none can be minted (the probe is
    /// then lost).
    fn challenge(&mut self, cohort: WorkloadId, device: DeviceId) -> Option<Challenge>;
}

/// What a driver does after feeding the machine an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Next {
    /// Nothing: the input was stale, a duplicate, or for a device that
    /// already retired.
    Ignore,
    /// Push this request to its device.
    Push(Request),
    /// Re-push the device's [in-flight](Rollout::in_flight) request
    /// after the backoff for this attempt number.
    Retry(usize),
    /// The device retired; nothing more goes to it.
    Retired,
}

/// Device state captured immediately before an update is applied — what
/// a real device's A/B-slot update routine would preserve. Rollbacks
/// restore `patch_range` and verify the result against `measurement`;
/// paused campaigns carry these snapshots across the pause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreUpdateSnapshot {
    /// The device's own bytes in the patch range, pre-update.
    pub patch_range: Vec<u8>,
    /// The device's full-PMEM measurement, pre-update.
    pub measurement: [u8; 32],
}

/// What one wave rollout produced.
#[derive(Debug, Default, PartialEq)]
pub struct WaveRollout {
    /// Ledger events, in wave order.
    pub events: Vec<LedgerEvent>,
    /// Devices that accepted and applied the update.
    pub updated: Vec<DeviceId>,
    /// Subset of `updated` whose post-update probe failed.
    pub probe_failed: Vec<DeviceId>,
    /// Total failures: rejected or lost updates plus failed probes.
    pub failures: usize,
    /// Pre-update snapshot of every updated device, for rollback.
    pub snapshots: BTreeMap<DeviceId, PreUpdateSnapshot>,
    /// Smoke runs executed on a device: the cohort reference plus every
    /// probe-isolated device. A device whose post-update measurement
    /// mismatches fails without a smoke run and counts in neither
    /// counter.
    pub probes_executed: usize,
    /// Devices whose health verdict was inherited from the cohort
    /// reference instead of running their own smoke probe.
    pub probes_memoized: usize,
}

/// What a rollback pass achieved, per device.
#[derive(Debug, Default, PartialEq)]
pub struct RollbackOutcome {
    /// Ledger events, in rollback order.
    pub events: Vec<LedgerEvent>,
    /// Devices verified restored to their pre-campaign measurement.
    pub rolled_back: Vec<DeviceId>,
    /// Devices whose rollback was rejected, lost, or left them
    /// measuring differently from their pre-campaign state.
    pub incomplete: Vec<DeviceId>,
}

/// What the machine is driving.
#[derive(Debug)]
enum Plan<'a> {
    /// A wave rollout of `config`'s patch, expected to measure
    /// `expected_after`; sparse deltas are encoded against `delta_base`.
    Wave {
        config: &'a CampaignConfig,
        expected_after: [u8; 32],
        delta_base: Option<Vec<u8>>,
    },
    /// A rollback of updated devices to their pre-update bytes.
    Rollback {
        target: u16,
        snapshots: &'a BTreeMap<DeviceId, PreUpdateSnapshot>,
    },
}

/// Where a device sits in its chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Queued,
    Snapshot,
    /// `delta` marks the sparse attempt.
    Update {
        delta: bool,
    },
    /// Nonce query settling whether the full-range resend applied.
    Confirm,
    /// Post-update [`ProbeMode::UpdateAttest`].
    Attest,
    /// The cohort reference's [`ProbeMode::UpdateProbe`].
    Reference,
    /// Post-rollback [`ProbeMode::RollbackVerify`].
    Verify,
    /// Retired: no further requests.
    Done,
}

/// Per-device progress.
#[derive(Debug, Default)]
struct Slot {
    phase: Phase,
    /// The request awaiting a reply, kept for busy re-pushes.
    in_flight: Option<Request>,
    /// Busy sheds of the in-flight request.
    attempts: usize,
    key: Option<DeviceKey>,
    /// Nonce of the authorized update.
    nonce: u64,
    snapshot: Option<PreUpdateSnapshot>,
    /// The full-range update, held while the sparse attempt is in
    /// flight.
    fallback: Option<DeltaUpdateRequest>,
    challenge: Option<Challenge>,
    applied: bool,
    /// Rejection of the sparse attempt.
    sparse_error: Option<UpdateError>,
    /// Rejection of the final update attempt.
    rejected: Option<UpdateError>,
    attested: bool,
    /// The device's own verdict: healthy (wave) or restored
    /// (rollback).
    verdict: Option<bool>,
    /// Verdict deferred to the cohort reference's smoke outcome.
    inherit: bool,
}

impl Slot {
    fn verifies(&self, report: &AttestationReport, expected: &[u8; 32]) -> bool {
        match (&self.key, &self.challenge) {
            (Some(key), Some(challenge)) => AttestationVerifier::with_key(key)
                .verify(challenge, report, Some(expected))
                .is_ok(),
            _ => false,
        }
    }
}

/// One wave rollout or one rollback pass, driven device by device.
///
/// Replies may arrive in any order and any number of times: a reply
/// that does not answer the device's in-flight request is ignored, so
/// duplicates and late replies never count twice. The outcome lists
/// devices in the order the machine was built with.
#[derive(Debug)]
pub struct Rollout<'a> {
    cohort: WorkloadId,
    plan: Plan<'a>,
    order: Vec<DeviceId>,
    slots: HashMap<DeviceId, Slot>,
    queue: VecDeque<DeviceId>,
    /// Admitted devices not yet retired.
    live: usize,
    /// Devices not yet retired.
    remaining: usize,
    reference: Option<DeviceId>,
    reference_verdict: Option<bool>,
    probes: (usize, usize),
    bytes: (u64, u64),
}

impl<'a> Rollout<'a> {
    /// A wave rollout of `config`'s patch over `wave`, whose updated
    /// devices must attest `expected_after`. With a `delta_base` (the
    /// cohort golden's bytes under the patch range) in-sync devices get
    /// sparse deltas whenever those undercut the full range.
    pub fn wave(
        wave: &[DeviceId],
        config: &'a CampaignConfig,
        expected_after: [u8; 32],
        delta_base: Option<Vec<u8>>,
    ) -> Self {
        let plan = Plan::Wave {
            config,
            expected_after,
            delta_base,
        };
        Rollout::new(config.cohort, plan, wave)
    }

    /// A rollback of `ids` to their own pre-update bytes at `target`,
    /// each verified against its pre-update measurement.
    pub fn rollback(
        cohort: WorkloadId,
        ids: &[DeviceId],
        target: u16,
        snapshots: &'a BTreeMap<DeviceId, PreUpdateSnapshot>,
    ) -> Self {
        Rollout::new(cohort, Plan::Rollback { target, snapshots }, ids)
    }

    fn new(cohort: WorkloadId, plan: Plan<'a>, ids: &[DeviceId]) -> Self {
        let mut slots = HashMap::with_capacity(ids.len());
        let order: Vec<DeviceId> = ids
            .iter()
            .copied()
            .filter(|&id| slots.insert(id, Slot::default()).is_none())
            .collect();
        Rollout {
            cohort,
            plan,
            queue: order.iter().copied().collect(),
            remaining: order.len(),
            order,
            slots,
            live: 0,
            reference: None,
            reference_verdict: None,
            probes: (0, 0),
            bytes: (0, 0),
        }
    }

    /// The cohort the devices belong to.
    pub fn cohort(&self) -> WorkloadId {
        self.cohort
    }

    /// The devices, in the order the outcome lists them.
    pub fn devices(&self) -> &[DeviceId] {
        &self.order
    }

    /// Admitted devices not yet retired (a driver's window occupancy).
    pub fn live(&self) -> usize {
        self.live
    }

    /// `true` once every device retired.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Smoke probes so far: `(executed, memoized)`, as
    /// [`Rollout::into_wave`] reports them.
    pub fn probes(&self) -> (usize, usize) {
        self.probes
    }

    /// Update bytes so far: `(full, wire)` — what full-range pushes of
    /// every wave update would ship, and what was shipped (a sparse
    /// delta counts 8 framing bytes per segment plus its content, a
    /// full-range push its payload). Rollbacks count nothing.
    pub fn update_bytes(&self) -> (u64, u64) {
        self.bytes
    }

    /// Starts the next queued device: its snapshot request, or `None`
    /// when every device was admitted.
    pub fn admit(&mut self) -> Option<Request> {
        let device = self.queue.pop_front()?;
        self.live += 1;
        let (start, len) = match &self.plan {
            Plan::Wave { config, .. } => (config.target, config.payload.len() as u16),
            Plan::Rollback { .. } => (0, 0),
        };
        Some(self.arm(Phase::Snapshot, Request::Snapshot { device, start, len }))
    }

    /// The request `device` is waiting on, if it is still live.
    pub fn in_flight(&self, device: DeviceId) -> Option<&Request> {
        self.slots.get(&device)?.in_flight.as_ref()
    }

    /// The device's request was shed with "busy": retry it, or retire
    /// the device past [`BUSY_RETRIES`] sheds.
    pub fn busy(&mut self, device: DeviceId) -> Next {
        let Some(slot) = self
            .slots
            .get_mut(&device)
            .filter(|s| s.in_flight.is_some())
        else {
            return Next::Ignore;
        };
        slot.attempts += 1;
        if slot.attempts > BUSY_RETRIES {
            return self.retire(device);
        }
        Next::Retry(slot.attempts)
    }

    /// The device is unreachable (connection gone, refused request,
    /// deadline): retire it with whatever it achieved so far. Returns
    /// `true` when this retired a live device.
    pub fn lost(&mut self, device: DeviceId) -> bool {
        let live = self.in_flight(device).is_some();
        if live {
            self.retire(device);
        }
        live
    }

    /// Feeds one device reply through the machine. A reply that cannot
    /// answer the device's in-flight request — another kind, or a probe
    /// report for another challenge — is ignored.
    pub fn reply(&mut self, device: DeviceId, reply: Reply, keys: &mut dyn RolloutKeys) -> Next {
        let Some(slot) = self.slots.get_mut(&device) else {
            return Next::Ignore;
        };
        match (slot.phase, reply) {
            (
                Phase::Snapshot,
                Reply::Snapshot {
                    last_nonce,
                    version,
                    measurement,
                    data,
                },
            ) => {
                let snapshot = PreUpdateSnapshot {
                    patch_range: data,
                    measurement,
                };
                self.on_snapshot(device, last_nonce, version, snapshot, keys)
            }
            (Phase::Update { delta }, Reply::Update(result)) => {
                self.on_update(device, delta, result, keys)
            }
            // Whichever settles the resend first: its own success, or the
            // (empty-range) nonce query showing its nonce consumed.
            (Phase::Confirm, Reply::Update(Ok(()))) => self.on_applied(device, keys),
            (
                Phase::Confirm,
                Reply::Snapshot {
                    last_nonce, data, ..
                },
            ) if data.is_empty() => {
                if last_nonce >= slot.nonce {
                    return self.on_applied(device, keys);
                }
                slot.rejected = slot.sparse_error;
                self.retire(device)
            }
            (
                phase @ (Phase::Attest | Phase::Reference | Phase::Verify),
                Reply::Probe { healthy, report },
            ) if slot.challenge == Some(report.challenge) => {
                self.on_probe(device, phase, healthy, &report, keys)
            }
            _ => Next::Ignore,
        }
    }

    fn on_snapshot(
        &mut self,
        device: DeviceId,
        last_nonce: u64,
        version: u64,
        snapshot: PreUpdateSnapshot,
        keys: &mut dyn RolloutKeys,
    ) -> Next {
        let key = keys.device_key(device);
        let slot = self.slots.get_mut(&device).expect("replying device");
        let (request, delta) = match &self.plan {
            Plan::Wave {
                config, delta_base, ..
            } => {
                let full = UpdateAuthority::with_key_resuming(&key, last_nonce + 1)
                    .with_version(config.version)
                    .authorize(config.target, &config.payload);
                let len = full.payload.len();
                // A sparse delta pays only when its segments (plus their
                // offset+len framing) undercut the full range.
                let sparse = delta_base
                    .as_deref()
                    .map(|base| DeltaUpdateRequest::from_full(&full, base))
                    .map(|delta| (delta.segments.len() * 8 + delta.delta_bytes(), delta))
                    .filter(|(wire, _)| *wire < len);
                let whole = DeltaUpdateRequest::whole(full);
                slot.nonce = whole.nonce;
                slot.snapshot = Some(snapshot);
                self.bytes.0 += len as u64;
                match sparse {
                    Some((wire, delta)) => {
                        self.bytes.1 += wire as u64;
                        slot.fallback = Some(whole);
                        (delta, true)
                    }
                    None => {
                        self.bytes.1 += len as u64;
                        (whole, false)
                    }
                }
            }
            Plan::Rollback { target, snapshots } => {
                let Some(snapshot) = snapshots.get(&device) else {
                    return self.retire(device);
                };
                // The pre-campaign bytes go back *at the device's
                // current version*: the anti-rollback counter accepts
                // equal versions precisely so a sanctioned rollback can
                // restore older bytes.
                let full = UpdateAuthority::with_key_resuming(&key, last_nonce + 1)
                    .with_version(version)
                    .authorize(*target, &snapshot.patch_range);
                (DeltaUpdateRequest::whole(full), false)
            }
        };
        slot.key = Some(key);
        Next::Push(self.arm(Phase::Update { delta }, Request::Update { device, request }))
    }

    fn on_update(
        &mut self,
        device: DeviceId,
        delta: bool,
        result: Result<(), UpdateError>,
        keys: &mut dyn RolloutKeys,
    ) -> Next {
        let slot = self.slots.get_mut(&device).expect("replying device");
        match result {
            Ok(()) => self.on_applied(device, keys),
            // The sparse attempt was rejected (a divergent or tampered
            // base): resend the full range under the same nonce. A
            // rejected request never advances the device's nonce, and
            // only the final attempt's outcome is recorded.
            Err(error) if delta => {
                slot.sparse_error = Some(error);
                let request = slot
                    .fallback
                    .take()
                    .expect("a sparse attempt holds its fallback");
                self.bytes.1 += u64::from(request.base_len);
                Next::Push(self.arm(
                    Phase::Update { delta: false },
                    Request::Update { device, request },
                ))
            }
            // The resend failed exactly as the sparse attempt did — or
            // this is a repeat of the sparse rejection, which an update
            // reply cannot be told apart from. A nonce query settles
            // whether the resend applied.
            Err(error) if slot.sparse_error == Some(error) => {
                let request = Request::Snapshot {
                    device,
                    start: 0,
                    len: 0,
                };
                Next::Push(self.arm(Phase::Confirm, request))
            }
            Err(error) => {
                slot.rejected = Some(error);
                self.retire(device)
            }
        }
    }

    fn on_applied(&mut self, device: DeviceId, keys: &mut dyn RolloutKeys) -> Next {
        self.slots.get_mut(&device).expect("applied device").applied = true;
        let mode = match self.plan {
            Plan::Wave { .. } => ProbeMode::UpdateAttest,
            Plan::Rollback { .. } => ProbeMode::RollbackVerify,
        };
        self.probe(device, mode, keys)
    }

    fn on_probe(
        &mut self,
        device: DeviceId,
        phase: Phase,
        healthy: Option<bool>,
        report: &AttestationReport,
        keys: &mut dyn RolloutKeys,
    ) -> Next {
        let slot = self.slots.get_mut(&device).expect("replying device");
        match (&self.plan, phase) {
            (Plan::Wave { expected_after, .. }, Phase::Attest) => {
                slot.attested = slot.verifies(report, expected_after);
                match (healthy, self.reference_verdict) {
                    // A probe-isolated device ran its own smoke probe.
                    (Some(healthy), _) => {
                        slot.verdict = Some(slot.attested && healthy);
                        self.probes.0 += 1;
                    }
                    // A measurement mismatch never inherits a clean
                    // verdict, and runs no smoke probe either.
                    (None, _) if !slot.attested => slot.verdict = Some(false),
                    (None, Some(verdict)) => {
                        slot.verdict = Some(verdict);
                        self.probes.1 += 1;
                    }
                    // The first eligible device becomes the cohort
                    // reference and runs the one real smoke probe.
                    (None, None) if self.reference.is_none() => {
                        self.reference = Some(device);
                        return self.probe(device, ProbeMode::UpdateProbe, keys);
                    }
                    // The reference is still running: the verdict
                    // resolves when the outcome is composed.
                    (None, None) => {
                        slot.inherit = true;
                        self.probes.1 += 1;
                    }
                }
            }
            (Plan::Wave { .. }, _) => {
                let healthy = healthy != Some(false);
                self.reference_verdict = Some(healthy);
                slot.verdict = Some(slot.attested && healthy);
                self.probes.0 += 1;
            }
            (Plan::Rollback { snapshots, .. }, _) => {
                let restored = snapshots
                    .get(&device)
                    .is_some_and(|snapshot| slot.verifies(report, &snapshot.measurement));
                slot.verdict = Some(restored);
            }
        }
        self.retire(device)
    }

    /// Mints a challenge and arms a probe; a mint failure reads as a
    /// lost probe.
    fn probe(&mut self, device: DeviceId, mode: ProbeMode, keys: &mut dyn RolloutKeys) -> Next {
        let Some(challenge) = keys.challenge(self.cohort, device) else {
            return self.retire(device);
        };
        let phase = match mode {
            ProbeMode::UpdateAttest => Phase::Attest,
            ProbeMode::UpdateProbe => Phase::Reference,
            _ => Phase::Verify,
        };
        let smoke_cycles = match &self.plan {
            Plan::Wave { config, .. } => config.smoke_cycles,
            Plan::Rollback { .. } => 0,
        };
        self.slots
            .get_mut(&device)
            .expect("probed device")
            .challenge = Some(challenge);
        let request = Request::Probe {
            device,
            mode,
            smoke_cycles,
            challenge,
        };
        Next::Push(self.arm(phase, request))
    }

    fn arm(&mut self, phase: Phase, request: Request) -> Request {
        let slot = self.slots.get_mut(&request.device()).expect("armed device");
        slot.phase = phase;
        slot.attempts = 0;
        slot.in_flight = Some(request.clone());
        request
    }

    fn retire(&mut self, device: DeviceId) -> Next {
        let slot = self.slots.get_mut(&device).expect("retired device");
        if slot.phase != Phase::Done {
            slot.phase = Phase::Done;
            slot.in_flight = None;
            self.live -= 1;
            self.remaining -= 1;
        }
        Next::Retired
    }

    /// Composes a wave's outcome (for a machine built with
    /// [`Rollout::wave`]). Devices still live count as lost: before
    /// their update applied they fail with `ProbeFailed`, after it with
    /// a failed probe.
    pub fn into_wave(mut self) -> WaveRollout {
        let (probes_executed, probes_memoized) = self.probes;
        let mut rollout = WaveRollout {
            probes_executed,
            probes_memoized,
            ..WaveRollout::default()
        };
        for device in self.order {
            let slot = self.slots.remove(&device).expect("every device has a slot");
            if let Some(error) = slot.rejected {
                rollout
                    .events
                    .push(LedgerEvent::UpdateRejected { device, error });
                rollout.failures += 1;
                continue;
            }
            if !slot.applied {
                // Lost before the update applied: the device keeps its
                // old firmware and the wave counts a failure.
                rollout.events.push(LedgerEvent::ProbeFailed { device });
                rollout.failures += 1;
                continue;
            }
            rollout.events.push(LedgerEvent::UpdateApplied {
                device,
                nonce: slot.nonce,
            });
            rollout.updated.push(device);
            let snapshot = slot.snapshot.expect("an applied device was snapshotted");
            rollout.snapshots.insert(device, snapshot);
            // An inherited verdict fails closed when the reference
            // probe was lost; a probe lost in flight fails.
            let healthy = slot
                .verdict
                .or(self.reference_verdict.filter(|_| slot.inherit))
                .unwrap_or(false);
            if !healthy {
                rollout.events.push(LedgerEvent::ProbeFailed { device });
                rollout.probe_failed.push(device);
                rollout.failures += 1;
            }
        }
        rollout
    }

    /// Composes a rollback's outcome (for a machine built with
    /// [`Rollout::rollback`]). A rejected or lost restore leaves the
    /// device on campaign firmware: `RollbackIncomplete`.
    pub fn into_rollback(mut self) -> RollbackOutcome {
        let mut outcome = RollbackOutcome::default();
        for device in self.order {
            let slot = self.slots.remove(&device).expect("every device has a slot");
            if let Some(error) = slot.rejected {
                outcome
                    .events
                    .push(LedgerEvent::UpdateRejected { device, error });
            }
            if slot.verdict == Some(true) {
                outcome.events.push(LedgerEvent::RolledBack { device });
                outcome.rolled_back.push(device);
            } else {
                outcome
                    .events
                    .push(LedgerEvent::RollbackIncomplete { device });
                outcome.incomplete.push(device);
            }
        }
        outcome
    }
}

/// The device half of the protocol: answers `request` on `device`.
/// Snapshot measurements come from the device's live incremental
/// measurer when it covers PMEM (re-hashing only dirty granules).
/// Returns `None` for a snapshot range past the address space.
pub fn serve(
    device: &mut SimDevice,
    scheme: MeasurementScheme,
    request: &Request,
) -> Option<Reply> {
    Some(match *request {
        Request::Snapshot { start, len, .. } => {
            // The range may come off the wire: a hostile or
            // version-skewed gateway must not panic the device side.
            let from = usize::from(start);
            let to = from + usize::from(len);
            if to > ADDRESS_SPACE {
                return None;
            }
            Reply::Snapshot {
                last_nonce: device.engine().last_nonce(),
                version: device.engine().last_version(),
                measurement: device.measure_pmem_cached(scheme),
                data: device.device().cpu().memory.slice(from..to).to_vec(),
            }
        }
        Request::Update { ref request, .. } => Reply::Update(device.apply_delta_update(request)),
        Request::Probe {
            mode,
            smoke_cycles,
            challenge,
            ..
        } => probe(device, mode, smoke_cycles, challenge),
    })
}

fn probe(
    device: &mut SimDevice,
    mode: ProbeMode,
    smoke_cycles: u64,
    challenge: Challenge,
) -> Reply {
    let (healthy, report) = match mode {
        ProbeMode::AttestOnly => (Some(true), device.attest(challenge)),
        // A probe-isolated device never takes the memoized shortcut.
        ProbeMode::UpdateAttest if !device.probe_isolated() => {
            let report = device.attest(challenge);
            device.reboot();
            (None, report)
        }
        ProbeMode::UpdateProbe | ProbeMode::UpdateAttest => {
            let report = device.attest(challenge);
            device.reboot();
            let outcome = device.run_slice(smoke_cycles);
            let healthy = matches!(
                outcome,
                RunOutcome::Completed { .. } | RunOutcome::Timeout { .. }
            );
            (Some(healthy), report)
        }
        ProbeMode::RollbackVerify => {
            device.reboot();
            (Some(true), device.attest(challenge))
        }
    };
    Reply::Probe { healthy, report }
}
