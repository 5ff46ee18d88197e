//! Staged OTA campaigns: canary wave → full rollout, with automatic
//! halt-and-rollback and pause/resume between waves.
//!
//! A campaign pushes one authenticated firmware patch to every device of
//! one cohort. Devices are partitioned into waves (a canary fraction
//! first, then the remainder). After each wave the engine probes the
//! updated devices — a post-update attestation against the *expected*
//! post-patch golden measurement plus a bounded smoke run from reset —
//! and halts the campaign, rolling every already-updated device back to
//! the previous firmware, when the wave's failure rate exceeds the
//! configured threshold.
//!
//! # One driver, two shells
//!
//! The campaign engine has four layers:
//!
//! * **Campaign decisions** — wave cursor, failure threshold, quarantine,
//!   rollback ordering, golden promotion — live in [`CampaignRun`]:
//!   [`Campaign::begin_with`] / [`CampaignRun::step_with`] run against
//!   any [`WaveExecutor`].
//! * **Per-device protocol** — snapshot, delta or full-range update,
//!   attest probe, memoized smoke verdict, rollback — is one sans-IO
//!   state machine, [`Rollout`]. Each wave and each rollback pass
//!   builds one and hands it to the executor.
//! * **Scheduling** — admission window, busy-retry backoff, idle
//!   deadline — is one sans-IO [`Driver`] over an injected clock.
//! * **Transport** — how the driver's requests reach devices — is a
//!   shell behind [`WaveExecutor::drive`]. The in-process
//!   [`LocalExecutor`] serves each round of requests on the fleet's
//!   worker threads; `eilid_net`'s gateway engine streams them as frames
//!   to device agents, which answer with the same [`serve`] handler.
//!
//! Both backends share the decisions, the protocol and the scheduler,
//! so a wire-driven campaign's [`CampaignReport`] matches the
//! in-process one wave for wave — a property the `eilid_net` golden
//! campaign and equivalence suites pin.
//!
//! # Resumable campaigns
//!
//! [`Campaign::begin`] returns a [`CampaignRun`] whose
//! [`CampaignRun::step`] executes exactly one wave. Between waves the
//! run can be [paused](CampaignRun::pause) into a [`PausedCampaign`] — a
//! self-contained, byte-serialisable record (persisted wave cursor,
//! accumulated wave reports, per-device pre-update snapshots, the
//! patched golden image) — and later resumed with [`Campaign::resume`],
//! producing bit-for-bit the same [`CampaignReport`] an uninterrupted
//! run would have produced. Nonces keep flowing from the verifier's
//! single challenge-nonce domain, so a resumed campaign is also
//! cryptographically indistinguishable from an uninterrupted one. The
//! same bytes survive a *gateway* restart: the networked operator plane
//! pauses into, and resumes from, this exact record.
//!
//! # Quarantine and rollback verification
//!
//! When a wave *passes* the threshold, any individual devices whose
//! probe still failed are not left running the new firmware: each is
//! rolled back to its pre-campaign state and excluded from the
//! campaign's `updated` count, and named in [`CampaignReport::quarantined`].
//! Rollbacks restore the *device's own* pre-update bytes (snapshotted
//! just before each update is applied, as an A/B-slot update routine
//! would) rather than the cohort golden image, and each rollback is
//! verified against the device's pre-campaign PMEM measurement; a
//! device whose memory was corrupted outside the patched range (by a
//! physical attacker — the bus-level pre-commit veto stops software
//! from doing it) is recorded `RollbackIncomplete` instead of
//! `RolledBack`.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use eilid_casu::merkle_measure_pmem;
use eilid_casu::wire::{self, CodecError, Reader};
use eilid_msp430::{Memory, ADDRESS_SPACE};
use eilid_workloads::WorkloadId;

use crate::device::{DeviceId, SimDevice};
use crate::driver::Driver;
use crate::error::FleetError;
use crate::exec::parallel_map_mut;
use crate::fleet::Fleet;
use crate::report::LedgerEvent;
use crate::rollout::{serve, PreUpdateSnapshot, Request, RollbackOutcome, Rollout};
use crate::verifier::Verifier;

/// Configuration of one staged OTA campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// The firmware cohort to update.
    pub cohort: WorkloadId,
    /// First PMEM address the patch writes.
    pub target: u16,
    /// The patch bytes.
    pub payload: Vec<u8>,
    /// Fraction of the cohort updated in the canary wave (default 0.1).
    pub canary_fraction: f64,
    /// Post-update failure rate above which the campaign halts and rolls
    /// back (default 0.25).
    pub failure_threshold: f64,
    /// Cycle budget for the post-update smoke run (default 2 million).
    pub smoke_cycles: u64,
    /// Firmware version the patch carries. Devices enforce a monotonic
    /// anti-rollback counter: an update whose version is below the
    /// device's last applied version is rejected with
    /// [`UpdateError::RollbackVersion`](eilid_casu::UpdateError)
    /// regardless of MAC and nonce (default 0).
    pub version: u64,
    /// Ship the patch as a sparse delta against the cohort golden
    /// (default `true`). Devices whose base bytes were tampered with
    /// fail the delta's MAC and automatically fall back to the full
    /// image under the same nonce, so reports are bit-for-bit equal to
    /// a full-image campaign either way.
    pub delta: bool,
}

impl CampaignConfig {
    /// A campaign for `cohort` writing `payload` at `target` with default
    /// staging parameters.
    pub fn new(cohort: WorkloadId, target: u16, payload: Vec<u8>) -> Self {
        CampaignConfig {
            cohort,
            target,
            payload,
            canary_fraction: 0.1,
            failure_threshold: 0.25,
            smoke_cycles: 2_000_000,
            version: 0,
            delta: true,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        if self.payload.is_empty() {
            return Err(FleetError::InvalidCampaign("empty payload".into()));
        }
        if self.payload.len() > wire::MAX_UPDATE_PAYLOAD {
            return Err(FleetError::InvalidCampaign(format!(
                "payload of {} bytes exceeds the wire maximum {}",
                self.payload.len(),
                wire::MAX_UPDATE_PAYLOAD
            )));
        }
        if !(0.0..=1.0).contains(&self.canary_fraction) || self.canary_fraction <= 0.0 {
            return Err(FleetError::InvalidCampaign(format!(
                "canary fraction {} outside (0, 1]",
                self.canary_fraction
            )));
        }
        if !(0.0..=1.0).contains(&self.failure_threshold) {
            return Err(FleetError::InvalidCampaign(format!(
                "failure threshold {} outside [0, 1]",
                self.failure_threshold
            )));
        }
        // Snapshots, the golden copy and rollbacks all slice the patch
        // range, and `Memory::slice` panics past the address space.
        if usize::from(self.target) + self.payload.len() > ADDRESS_SPACE {
            return Err(FleetError::InvalidCampaign(format!(
                "patch of {} bytes at {:#06x} runs past the 64 KiB address space",
                self.payload.len(),
                self.target
            )));
        }
        Ok(())
    }

    /// Appends the config in its one byte layout, the
    /// `OpBegin` payload and the config section of a paused-campaign
    /// record: `cohort:u8 ‖ target:u16 ‖ canary:f64bits ‖
    /// threshold:f64bits ‖ smoke:u64 ‖ version:u64 ‖ delta:u8 ‖
    /// payload_len:u32 ‖ payload`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.payload.len() <= wire::MAX_UPDATE_PAYLOAD);
        out.push(self.cohort.index());
        out.extend_from_slice(&self.target.to_le_bytes());
        out.extend_from_slice(&self.canary_fraction.to_bits().to_le_bytes());
        out.extend_from_slice(&self.failure_threshold.to_bits().to_le_bytes());
        out.extend_from_slice(&self.smoke_cycles.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.push(u8::from(self.delta));
        wire::put_bytes(out, &self.payload);
    }

    /// Structural decode of [`CampaignConfig::encode`]'s layout: the
    /// payload is bounded like an update's and may not be empty. The
    /// semantic rules (staging ranges, the address space) are
    /// [`Campaign::new`]'s and [`PausedCampaign::from_bytes`]'s.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncation, an unknown cohort or delta flag,
    /// or an empty or oversized payload.
    pub fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let cohort = decode_cohort(reader)?;
        let target = reader.u16()?;
        let canary_fraction = f64::from_bits(reader.u64()?);
        let failure_threshold = f64::from_bits(reader.u64()?);
        let smoke_cycles = reader.u64()?;
        let version = reader.u64()?;
        let delta = match reader.u8()? {
            0 => false,
            1 => true,
            value => {
                return Err(CodecError::BadEnum {
                    field: "campaign delta flag",
                    value,
                })
            }
        };
        let payload = reader.bytes(wire::MAX_UPDATE_PAYLOAD)?;
        if payload.is_empty() {
            return Err(CodecError::BadLength { len: 0 });
        }
        Ok(CampaignConfig {
            cohort,
            target,
            payload: payload.to_vec(),
            canary_fraction,
            failure_threshold,
            smoke_cycles,
            version,
            delta,
        })
    }
}

/// Decodes a cohort index byte.
///
/// # Errors
///
/// [`CodecError::BadEnum`] (field `"cohort"`) for an index naming no
/// workload; [`CodecError::Truncated`] on empty input.
pub fn decode_cohort(reader: &mut Reader<'_>) -> Result<WorkloadId, CodecError> {
    let value = reader.u8()?;
    WorkloadId::from_index(value).ok_or(CodecError::BadEnum {
        field: "cohort",
        value,
    })
}

/// Outcome of one wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveReport {
    /// Wave index (0 = canary).
    pub wave: usize,
    /// Devices the wave attempted to update.
    pub size: usize,
    /// Devices that accepted and applied the update.
    pub updated: usize,
    /// Devices for which the rollout failed: the update was rejected
    /// (`updated < size`) or a post-update health probe (attestation or
    /// smoke run) failed. The ledger's `UpdateRejected`/`ProbeFailed`
    /// events distinguish the two.
    pub failures: usize,
}

impl WaveReport {
    /// The wave's post-update failure rate in `[0, 1]`.
    pub fn failure_rate(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        self.failures as f64 / self.size as f64
    }
}

/// How a campaign ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// Every wave passed; the new firmware is the cohort's golden image
    /// (unless `updated` is 0 — when every device was individually
    /// rolled back, the previous golden is kept).
    Completed {
        /// Devices updated and still healthy. Devices whose post-update
        /// probe failed were individually rolled back and are excluded.
        updated: usize,
    },
    /// A wave exceeded the failure threshold; every updated device was
    /// rolled back to the previous firmware.
    HaltedAndRolledBack {
        /// Index of the failing wave.
        wave: usize,
        /// The observed failure rate.
        failure_rate: f64,
        /// Devices that were rolled back.
        rolled_back: usize,
    },
}

/// Full record of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// How the campaign ended.
    pub outcome: CampaignOutcome,
    /// Per-wave statistics, in rollout order.
    pub waves: Vec<WaveReport>,
    /// Devices rolled back individually because their post-update probe
    /// failed while their wave passed — verified restored to their
    /// pre-campaign state, and flagged by later sweeps whenever the
    /// campaign went on to promote a new golden measurement.
    pub quarantined: Vec<DeviceId>,
    /// Devices whose rollback (halt-path or quarantine) could not be
    /// verified complete: the rollback request was rejected or the
    /// post-rollback measurement still differs from the pre-campaign
    /// state. These still run campaign (or corrupted) firmware and need
    /// operator attention.
    pub rollback_incomplete: Vec<DeviceId>,
}

impl CampaignReport {
    /// `true` when the rollout completed on every wave.
    pub fn is_completed(&self) -> bool {
        matches!(self.outcome, CampaignOutcome::Completed { .. })
    }

    /// Appends the report in its one byte layout, the `OpReport`
    /// payload after the cohort: the outcome (tag 1 `updated:u32`, or
    /// tag 2 `wave:u32 ‖ failure_rate:f64bits ‖ rolled_back:u32`), the
    /// per-wave stats (`count:u32`, then `wave ‖ size ‖ updated ‖
    /// failures`, each `u32`), then the quarantined and
    /// rollback-incomplete id lists (`count:u32 ‖ id:u64*`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_outcome(out, Some(&self.outcome));
        put_wave_reports(out, &self.waves);
        wire::put_u64s(out, &self.quarantined);
        wire::put_u64s(out, &self.rollback_incomplete);
    }

    /// Decodes [`CampaignReport::encode`]'s layout.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncation, an unknown outcome tag, or a
    /// list count the remaining bytes cannot hold.
    pub fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CampaignReport {
            outcome: decode_outcome(reader)?.ok_or(CodecError::BadEnum {
                field: "campaign outcome",
                value: 0,
            })?,
            waves: decode_wave_reports(reader)?,
            quarantined: reader.u64s()?,
            rollback_incomplete: reader.u64s()?,
        })
    }
}

/// Appends an optional outcome: tag 0 for none, else the outcome's tag
/// and fields.
fn put_outcome(out: &mut Vec<u8>, outcome: Option<&CampaignOutcome>) {
    match outcome {
        None => out.push(0),
        Some(CampaignOutcome::Completed { updated }) => {
            out.push(1);
            out.extend_from_slice(&(*updated as u32).to_le_bytes());
        }
        Some(CampaignOutcome::HaltedAndRolledBack {
            wave,
            failure_rate,
            rolled_back,
        }) => {
            out.push(2);
            out.extend_from_slice(&(*wave as u32).to_le_bytes());
            out.extend_from_slice(&failure_rate.to_bits().to_le_bytes());
            out.extend_from_slice(&(*rolled_back as u32).to_le_bytes());
        }
    }
}

fn decode_outcome(reader: &mut Reader<'_>) -> Result<Option<CampaignOutcome>, CodecError> {
    Ok(match reader.u8()? {
        0 => None,
        1 => Some(CampaignOutcome::Completed {
            updated: reader.u32()? as usize,
        }),
        2 => Some(CampaignOutcome::HaltedAndRolledBack {
            wave: reader.u32()? as usize,
            failure_rate: f64::from_bits(reader.u64()?),
            rolled_back: reader.u32()? as usize,
        }),
        value => {
            return Err(CodecError::BadEnum {
                field: "campaign outcome",
                value,
            })
        }
    })
}

fn put_wave_reports(out: &mut Vec<u8>, waves: &[WaveReport]) {
    out.extend_from_slice(&(waves.len() as u32).to_le_bytes());
    for wave in waves {
        for field in [wave.wave, wave.size, wave.updated, wave.failures] {
            out.extend_from_slice(&(field as u32).to_le_bytes());
        }
    }
}

fn decode_wave_reports(reader: &mut Reader<'_>) -> Result<Vec<WaveReport>, CodecError> {
    let count = reader.count(16)?;
    (0..count)
        .map(|_| {
            Ok(WaveReport {
                wave: reader.u32()? as usize,
                size: reader.u32()? as usize,
                updated: reader.u32()? as usize,
                failures: reader.u32()? as usize,
            })
        })
        .collect()
}

/// What one [`CampaignRun::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// A wave was rolled out and passed; more waves remain.
    InProgress {
        /// Index of the next wave to roll out.
        next_wave: usize,
    },
    /// The campaign finished (completed or halted);
    /// [`CampaignRun::report`] is now available.
    Finished,
}

/// Splits `members` into waves: `fractions` are cumulative cut points in
/// `(0, 1]`, e.g. `[0.1, 1.0]` → a 10% canary wave and the remaining
/// 90%. This is the one wave-partition rule both campaign backends (the
/// in-process executor and the networked gateway) apply, so identical
/// member sets always produce identical waves.
pub fn partition_waves(members: &[DeviceId], fractions: &[f64]) -> Vec<Vec<DeviceId>> {
    let total = members.len();
    // Ceiling semantics: every non-empty cut point gets at least one
    // device, so a 10% canary of a six-device cohort is still one real
    // canary device rather than an empty wave.
    let cuts: Vec<usize> = fractions
        .iter()
        .map(|&cut| ((cut * total as f64).ceil() as usize).min(total))
        .collect();
    let mut waves: Vec<Vec<DeviceId>> = fractions.iter().map(|_| Vec::new()).collect();
    for (index, id) in members.iter().copied().enumerate() {
        let wave = cuts
            .iter()
            .position(|&cut| index < cut)
            .unwrap_or(fractions.len() - 1);
        waves[wave].push(id);
    }
    waves
}

/// What an executor knows about a cohort before a campaign starts.
#[derive(Debug, Clone)]
pub struct CohortInfo {
    /// Devices running the cohort firmware, in id order. The wave
    /// partition is computed over exactly this list.
    pub members: Vec<DeviceId>,
    /// The cohort's current golden memory image (the patch is applied to
    /// a copy of it to derive the expected post-patch measurement).
    pub golden: Memory,
}

/// The mechanism half of the campaign engine: how a [`Rollout`]
/// machine's requests reach devices. Both implementations are shells
/// over one [`Driver`]: [`LocalExecutor`] answers its requests
/// in-process; `eilid_net`'s gateway pushes them as frames to connected
/// device agents. The campaign decisions ([`CampaignRun::step_with`]),
/// the per-device protocol ([`Rollout`]) and the scheduler are the same
/// under both, which is what makes a wire-driven campaign report
/// wave-for-wave equal to an in-process one.
pub trait WaveExecutor {
    /// Describes `cohort` before the campaign starts: its members (the
    /// wave-partition input) and golden image.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownCohort`] when no reachable device runs the
    /// cohort firmware.
    fn cohort_info(&mut self, cohort: WorkloadId) -> Result<CohortInfo, FleetError>;

    /// Runs `rollout` until every device retired, answering each
    /// request it emits.
    ///
    /// # Errors
    ///
    /// Backend-level failures only; per-device failures end up inside
    /// the machine's outcome.
    fn drive(&mut self, rollout: &mut Rollout<'_>) -> Result<(), FleetError>;

    /// Promotes `golden`/`measurement` to the cohort's current golden
    /// state (the previous golden becomes "stale but authentic").
    fn promote(&mut self, cohort: WorkloadId, golden: &Memory, measurement: [u8; 32]);

    /// Records campaign lifecycle events in the backend's ledger.
    fn record(&mut self, events: Vec<LedgerEvent>);
}

/// The in-process [`WaveExecutor`]: a shell over the [`Driver`] that
/// serves each round of its requests on the fleet's worker threads.
/// Probe-challenge nonces come from the verifier's single
/// strictly-increasing nonce domain, and events land in the fleet
/// ledger.
#[derive(Debug)]
pub struct LocalExecutor<'a> {
    fleet: &'a mut Fleet,
    verifier: &'a mut Verifier,
}

impl<'a> LocalExecutor<'a> {
    /// Wraps the fleet and its verifier for in-process campaign driving.
    pub fn new(fleet: &'a mut Fleet, verifier: &'a mut Verifier) -> Self {
        LocalExecutor { fleet, verifier }
    }
}

impl WaveExecutor for LocalExecutor<'_> {
    fn cohort_info(&mut self, cohort: WorkloadId) -> Result<CohortInfo, FleetError> {
        let members = self.fleet.cohort_members(cohort);
        if members.is_empty() {
            return Err(FleetError::UnknownCohort(cohort));
        }
        let golden = self.fleet.golden(cohort).expect("cohort exists");
        Ok(CohortInfo {
            members,
            golden: golden.clone(),
        })
    }

    fn drive(&mut self, rollout: &mut Rollout<'_>) -> Result<(), FleetError> {
        let threads = self.fleet.threads();
        // Rounds never wait, so the driver is never ticked and its idle
        // deadline never applies; the window is unbounded.
        let now = Instant::now();
        let mut driver = Driver::new(rollout, usize::MAX, Duration::ZERO, now);
        let mut pending: HashMap<DeviceId, Request> = HashMap::new();
        // One round per step of the chain: every outstanding request is
        // served in parallel, then the replies go through the driver in
        // device order, which makes the first eligible device in wave
        // order the cohort reference.
        loop {
            driver.poll(now, |request| {
                pending.insert(request.device(), request);
                true
            });
            if pending.is_empty() {
                return Ok(());
            }
            let devices = self.fleet.devices_mut().iter_mut();
            let mut work: Vec<(&mut SimDevice, Request)> = devices
                .filter_map(|device| {
                    let request = pending.remove(&device.id())?;
                    Some((device, request))
                })
                .collect();
            let replies = parallel_map_mut(&mut work, threads, |(device, request)| {
                (device.id(), serve(device, request))
            });
            // Requests for devices outside the fleet are lost.
            for (device, _) in pending.drain() {
                driver.lost(now, device);
            }
            for (device, reply) in replies {
                let Some(reply) = reply else {
                    driver.lost(now, device);
                    continue;
                };
                driver.reply(now, device, reply, self.verifier);
            }
        }
    }

    fn promote(&mut self, cohort: WorkloadId, golden: &Memory, measurement: [u8; 32]) {
        *self.fleet.golden_mut(cohort).expect("cohort exists") = golden.clone();
        self.verifier
            .promote_measurement(cohort, measurement, golden);
    }

    fn record(&mut self, events: Vec<LedgerEvent>) {
        for event in events {
            self.fleet.ledger_mut().record(event);
        }
    }
}

/// The staged-rollout engine.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidCampaign`] for out-of-range staging
    /// parameters, an empty or oversized payload, or a patch that runs
    /// past the 64 KiB address space.
    pub fn new(config: CampaignConfig) -> Result<Self, FleetError> {
        config.validate()?;
        Ok(Campaign { config })
    }

    /// Starts the campaign against any [`WaveExecutor`] and returns the
    /// stateful wave driver. Nothing is rolled out yet; call
    /// [`CampaignRun::step_with`] per wave.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownCohort`] if the executor reaches no
    /// device of the configured cohort.
    pub fn begin_with(&self, exec: &mut dyn WaveExecutor) -> Result<CampaignRun, FleetError> {
        let cohort = self.config.cohort;
        let info = exec.cohort_info(cohort)?;

        // Expected post-patch measurement, computed on a golden copy
        // (devices attest Merkle roots, so the probe's expected value
        // must be one too).
        let mut patched_golden = info.golden.clone();
        patched_golden
            .load(self.config.target, &self.config.payload)
            .map_err(|e| FleetError::InvalidCampaign(e.to_string()))?;
        let expected_after = merkle_measure_pmem(&patched_golden);

        let waves = partition_waves(&info.members, &[self.config.canary_fraction, 1.0]);
        Ok(CampaignRun {
            config: self.config.clone(),
            waves,
            cursor: 0,
            wave_reports: Vec::new(),
            updated_so_far: Vec::new(),
            quarantined: Vec::new(),
            rollback_incomplete: Vec::new(),
            snapshots: BTreeMap::new(),
            patched_golden,
            expected_after,
            outcome: None,
        })
    }

    /// [`Campaign::begin_with`] specialised to the in-process executor
    /// (the fleet's devices called directly, nonces from the verifier).
    ///
    /// # Errors
    ///
    /// As for [`Campaign::begin_with`].
    pub fn begin(
        &self,
        fleet: &mut Fleet,
        verifier: &mut Verifier,
    ) -> Result<CampaignRun, FleetError> {
        self.begin_with(&mut LocalExecutor::new(fleet, verifier))
    }

    /// Rebuilds the wave driver from a paused campaign. The executor
    /// later passed to [`CampaignRun::step_with`] must reach the same
    /// devices the campaign was started on (or restored equivalents):
    /// per-device nonces and snapshots refer to their state.
    pub fn resume(paused: PausedCampaign) -> CampaignRun {
        paused.0
    }
}

/// In-flight state of a staged rollout, stepped one wave at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    config: CampaignConfig,
    /// Device ids per wave, fixed at [`Campaign::begin_with`].
    waves: Vec<Vec<DeviceId>>,
    /// Index of the next wave to roll out — the persisted wave cursor.
    cursor: usize,
    wave_reports: Vec<WaveReport>,
    updated_so_far: Vec<DeviceId>,
    quarantined: Vec<DeviceId>,
    rollback_incomplete: Vec<DeviceId>,
    /// Per-device state captured just before each update is applied;
    /// rollbacks restore and verify against it.
    snapshots: BTreeMap<DeviceId, PreUpdateSnapshot>,
    patched_golden: Memory,
    expected_after: [u8; 32],
    outcome: Option<CampaignOutcome>,
}

impl CampaignRun {
    /// Index of the next wave to roll out.
    pub fn wave_cursor(&self) -> usize {
        self.cursor
    }

    /// The cohort this campaign updates.
    pub fn cohort(&self) -> WorkloadId {
        self.config.cohort
    }

    /// `true` once the campaign completed or halted.
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// The final report, once [`CampaignRun::is_finished`].
    pub fn report(&self) -> Option<CampaignReport> {
        self.outcome.clone().map(|outcome| CampaignReport {
            outcome,
            waves: self.wave_reports.clone(),
            quarantined: self.quarantined.clone(),
            rollback_incomplete: self.rollback_incomplete.clone(),
        })
    }

    /// Pauses the campaign between waves into a self-contained,
    /// serialisable record.
    pub fn pause(self) -> PausedCampaign {
        PausedCampaign(self)
    }

    /// The `EPC3` record this run would pause into
    /// ([`PausedCampaign::to_bytes`]), taken without stopping or
    /// copying the run.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ADDRESS_SPACE + 1024);
        out.extend_from_slice(PAUSE_MAGIC);
        self.config.encode(&mut out);
        out.extend_from_slice(&(self.waves.len() as u32).to_le_bytes());
        for wave in &self.waves {
            wire::put_u64s(&mut out, wave);
        }
        out.extend_from_slice(&(self.cursor as u32).to_le_bytes());
        put_wave_reports(&mut out, &self.wave_reports);
        wire::put_u64s(&mut out, &self.updated_so_far);
        wire::put_u64s(&mut out, &self.quarantined);
        wire::put_u64s(&mut out, &self.rollback_incomplete);
        out.extend_from_slice(&(self.snapshots.len() as u32).to_le_bytes());
        for (id, snapshot) in &self.snapshots {
            out.extend_from_slice(&id.to_le_bytes());
            wire::put_bytes(&mut out, &snapshot.patch_range);
            out.extend_from_slice(&snapshot.measurement);
        }
        out.extend_from_slice(self.patched_golden.slice(0..ADDRESS_SPACE));
        out.extend_from_slice(&self.expected_after);
        put_outcome(&mut out, self.outcome.as_ref());
        out
    }

    /// Decodes the body of a [`CampaignRun::checkpoint`] record (after
    /// the magic). Structural only: [`PausedCampaign::from_bytes`]
    /// judges the result.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = CampaignConfig::decode(reader)?;
        // Each wave costs at least its id count.
        let wave_count = reader.count(4)?;
        let waves = (0..wave_count)
            .map(|_| reader.u64s())
            .collect::<Result<Vec<_>, _>>()?;
        let cursor = reader.u32()? as usize;
        let wave_reports = decode_wave_reports(reader)?;
        let updated_so_far = reader.u64s()?;
        let quarantined = reader.u64s()?;
        let rollback_incomplete = reader.u64s()?;
        // Each snapshot costs at least id(8) + length(4) + measurement(32).
        let snapshot_count = reader.count(8 + 4 + 32)?;
        let mut snapshots = BTreeMap::new();
        for _ in 0..snapshot_count {
            let id = reader.u64()?;
            let patch_range = reader.bytes(wire::MAX_UPDATE_PAYLOAD)?.to_vec();
            let measurement = reader.array()?;
            snapshots.insert(
                id,
                PreUpdateSnapshot {
                    patch_range,
                    measurement,
                },
            );
        }
        let mut patched_golden = Memory::new();
        patched_golden
            .load(0, reader.take(ADDRESS_SPACE)?)
            .expect("a full 64 KiB image always fits");
        Ok(CampaignRun {
            config,
            waves,
            cursor,
            wave_reports,
            updated_so_far,
            quarantined,
            rollback_incomplete,
            snapshots,
            patched_golden,
            expected_after: reader.array()?,
            outcome: decode_outcome(reader)?,
        })
    }

    /// Rolls out the next wave (skipping empty ones) through any
    /// [`WaveExecutor`]. When the last wave passes, finalises the
    /// campaign: promotes the patched golden if any device retained it.
    ///
    /// # Errors
    ///
    /// Propagates executor-level failures (transport loss on the
    /// networked backend; infallible in practice in-process).
    pub fn step_with(&mut self, exec: &mut dyn WaveExecutor) -> Result<CampaignStatus, FleetError> {
        if self.outcome.is_some() {
            return Ok(CampaignStatus::Finished);
        }
        // Skip empty waves without consuming a step.
        while self.cursor < self.waves.len() && self.waves[self.cursor].is_empty() {
            self.cursor += 1;
        }
        if self.cursor >= self.waves.len() {
            self.finalize(exec);
            return Ok(CampaignStatus::Finished);
        }

        let wave_index = self.cursor;
        let wave_ids = self.waves[wave_index].clone();
        // Sparse deltas are encoded against the cohort's current golden
        // (the base every untampered device still holds: promotion
        // happens only after the last wave).
        let start = usize::from(self.config.target);
        let golden = if self.config.delta {
            exec.cohort_info(self.config.cohort).ok()
        } else {
            None
        };
        let delta_base = golden.map(|info| {
            let range = start..start + self.config.payload.len();
            info.golden.slice(range).to_vec()
        });
        let mut machine = Rollout::wave(&wave_ids, &self.config, self.expected_after, delta_base);
        exec.drive(&mut machine)?;
        let rollout = machine.into_wave();
        exec.record(rollout.events);
        self.updated_so_far.extend(&rollout.updated);
        self.snapshots.extend(rollout.snapshots);

        let report = WaveReport {
            wave: wave_index,
            size: wave_ids.len(),
            updated: rollout.updated.len(),
            failures: rollout.failures,
        };
        exec.record(vec![LedgerEvent::WaveCompleted {
            wave: wave_index,
            updated: report.updated,
            failures: report.failures,
        }]);
        let failure_rate = report.failure_rate();
        self.wave_reports.push(report);

        if failure_rate > self.config.failure_threshold {
            exec.record(vec![LedgerEvent::CampaignHalted {
                wave: wave_index,
                failure_rate,
            }]);
            let result = self.roll_back(exec, &self.updated_so_far)?;
            exec.record(result.events);
            self.rollback_incomplete.extend(result.incomplete);
            self.outcome = Some(CampaignOutcome::HaltedAndRolledBack {
                wave: wave_index,
                failure_rate,
                rolled_back: result.rolled_back.len(),
            });
            return Ok(CampaignStatus::Finished);
        }

        // The wave passed, but devices whose probe failed must not
        // silently keep the new firmware: roll each back to its
        // pre-campaign state individually. The report's `quarantined`
        // list and the `ProbeFailed`/`RolledBack` ledger entries flag
        // them for operator follow-up; if the campaign goes on to
        // promote a new golden, later sweeps flag them too.
        if !rollout.probe_failed.is_empty() {
            let result = self.roll_back(exec, &rollout.probe_failed)?;
            exec.record(result.events);
            self.quarantined.extend(result.rolled_back);
            self.rollback_incomplete.extend(result.incomplete);
            self.updated_so_far
                .retain(|id| !rollout.probe_failed.contains(id));
        }

        self.cursor += 1;
        // Skip trailing empty waves so the last real wave finalises.
        while self.cursor < self.waves.len() && self.waves[self.cursor].is_empty() {
            self.cursor += 1;
        }
        if self.cursor >= self.waves.len() {
            self.finalize(exec);
            return Ok(CampaignStatus::Finished);
        }
        Ok(CampaignStatus::InProgress {
            next_wave: self.cursor,
        })
    }

    /// Rolls `ids` back to their own pre-campaign patch-range bytes and
    /// verifies each against its pre-campaign measurement.
    fn roll_back(
        &self,
        exec: &mut dyn WaveExecutor,
        ids: &[DeviceId],
    ) -> Result<RollbackOutcome, FleetError> {
        let mut machine =
            Rollout::rollback(self.config.cohort, ids, self.config.target, &self.snapshots);
        exec.drive(&mut machine)?;
        Ok(machine.into_rollback())
    }

    /// [`CampaignRun::step_with`] specialised to the in-process
    /// executor.
    ///
    /// # Errors
    ///
    /// As for [`CampaignRun::step_with`] (infallible in practice
    /// in-process).
    pub fn step(
        &mut self,
        fleet: &mut Fleet,
        verifier: &mut Verifier,
    ) -> Result<CampaignStatus, FleetError> {
        self.step_with(&mut LocalExecutor::new(fleet, verifier))
    }

    /// Every wave passed. Promote the patched image to golden — but
    /// only if some device actually retained the new firmware; when
    /// every updated device was individually rolled back, the old
    /// golden is still what the fleet runs.
    fn finalize(&mut self, exec: &mut dyn WaveExecutor) {
        if !self.updated_so_far.is_empty() {
            exec.promote(
                self.config.cohort,
                &self.patched_golden,
                self.expected_after,
            );
        }
        self.outcome = Some(CampaignOutcome::Completed {
            updated: self.updated_so_far.len(),
        });
    }
}

/// A campaign paused between waves: plain data, independent of any
/// fleet/verifier borrow, and serialisable with
/// [`PausedCampaign::to_bytes`] so an operator (or the networked
/// gateway) can persist the wave cursor — and everything else a resume
/// needs — across process restarts.
///
/// The `EPC3` record, all integers little-endian:
///
/// ```text
/// magic "EPC3" ‖ config (= the OpBegin payload, CampaignConfig::encode)
/// ‖ wave_count:u32 ‖ (id_count:u32 ‖ id:u64*)* ‖ cursor:u32
/// ‖ wave reports (as in OpReport) ‖ updated, quarantined and
/// rollback-incomplete id lists ‖ snapshot_count:u32
/// ‖ (id:u64 ‖ len:u32 ‖ patch-range bytes ‖ measurement:[u8;32])*
/// ‖ patched golden image (64 KiB) ‖ expected measurement:[u8;32]
/// ‖ outcome (tag 0 = running, else as in OpReport)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PausedCampaign(CampaignRun);

/// Magic + version prefix of the paused-campaign byte format. `EPC2`
/// extended `EPC1` with the campaign's anti-rollback version counter
/// and delta-shipping flag; `EPC3` writes the config, wave reports and
/// outcome in their wire layouts, so its config section is an `OpBegin`
/// payload. Older records are refused as a bad magic.
const PAUSE_MAGIC: &[u8; 4] = b"EPC3";

impl PausedCampaign {
    /// Index of the next wave a resumed run will roll out.
    pub fn wave_cursor(&self) -> usize {
        self.0.cursor
    }

    /// The cohort the paused campaign updates.
    pub fn cohort(&self) -> WorkloadId {
        self.0.config.cohort
    }

    /// Serialises the paused state to its `EPC3` record.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.checkpoint()
    }

    /// Deserialises a paused campaign written by
    /// [`PausedCampaign::to_bytes`], then applies the config's
    /// semantic rules ([`Campaign::new`]'s) and checks the wave cursor.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidCampaign`] on any structural defect
    /// (bad magic, truncation, oversized counts, trailing bytes), on a
    /// config [`Campaign::new`] would refuse, or on a cursor past the
    /// recorded waves — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FleetError> {
        let Some(body) = bytes.strip_prefix(PAUSE_MAGIC) else {
            let magic = &bytes[..bytes.len().min(PAUSE_MAGIC.len())];
            return Err(FleetError::InvalidCampaign(format!(
                "bad paused-campaign magic {magic:02x?}"
            )));
        };
        let mut reader = Reader::new(body);
        let run = CampaignRun::decode(&mut reader)
            .map_err(|err| FleetError::InvalidCampaign(err.to_string()))?;
        if !reader.is_empty() {
            return Err(FleetError::InvalidCampaign(format!(
                "{} trailing bytes after paused campaign",
                reader.remaining()
            )));
        }
        run.config.validate()?;
        if run.cursor > run.waves.len() {
            return Err(FleetError::InvalidCampaign(format!(
                "wave cursor {} is outside the {} recorded waves",
                run.cursor,
                run.waves.len()
            )));
        }
        Ok(PausedCampaign(run))
    }
}
