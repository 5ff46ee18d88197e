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

use eilid_casu::wire::{self, CodecError, Reader};
use eilid_casu::{merkle_measure_pmem, MemoryLayout};
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
        Ok(())
    }
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
    /// Memory layout the cohort's devices attest over.
    pub layout: MemoryLayout,
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
    /// wave-partition input), golden image and layout.
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
        let state = self.fleet.cohort(cohort).expect("cohort exists");
        Ok(CohortInfo {
            members,
            golden: state.golden.clone(),
            layout: state.layout.clone(),
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
        self.fleet.cohort_mut(cohort).expect("cohort exists").golden = golden.clone();
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
    /// parameters or an empty payload.
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
    /// device of the configured cohort, or
    /// [`FleetError::InvalidCampaign`] for a patch that does not fit the
    /// address space.
    pub fn begin_with(&self, exec: &mut dyn WaveExecutor) -> Result<CampaignRun, FleetError> {
        let cohort = self.config.cohort;
        let info = exec.cohort_info(cohort)?;

        // Range-check before any memory slicing (pre-update snapshots
        // slice the patch range too): Memory::slice panics past the
        // 64 KiB address space.
        let end = usize::from(self.config.target) + self.config.payload.len();
        if end > ADDRESS_SPACE {
            return Err(FleetError::InvalidCampaign(format!(
                "patch of {} bytes at {:#06x} runs past the 64 KiB address space",
                self.config.payload.len(),
                self.config.target
            )));
        }

        // Expected post-patch measurement, computed on a golden copy
        // (devices attest Merkle roots, so the probe's expected value
        // must be one too). Golden images are measured over the layout
        // the cohort's devices were actually built with.
        let mut patched_golden = info.golden.clone();
        patched_golden
            .load(self.config.target, &self.config.payload)
            .map_err(|e| FleetError::InvalidCampaign(e.to_string()))?;
        let expected_after = merkle_measure_pmem(&patched_golden, &info.layout);

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

    /// The `EPC2` record this run would pause into
    /// ([`PausedCampaign::to_bytes`]), taken without stopping or
    /// copying the run.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ADDRESS_SPACE + 1024);
        out.extend_from_slice(PAUSE_MAGIC);
        out.push(self.config.cohort.index());
        out.extend_from_slice(&self.config.target.to_le_bytes());
        write_bytes(&mut out, &self.config.payload);
        out.extend_from_slice(&self.config.canary_fraction.to_bits().to_le_bytes());
        out.extend_from_slice(&self.config.failure_threshold.to_bits().to_le_bytes());
        out.extend_from_slice(&self.config.smoke_cycles.to_le_bytes());
        out.extend_from_slice(&self.config.version.to_le_bytes());
        out.push(u8::from(self.config.delta));

        out.extend_from_slice(&(self.waves.len() as u32).to_le_bytes());
        for wave in &self.waves {
            write_ids(&mut out, wave);
        }
        out.extend_from_slice(&(self.cursor as u32).to_le_bytes());

        out.extend_from_slice(&(self.wave_reports.len() as u32).to_le_bytes());
        for report in &self.wave_reports {
            out.extend_from_slice(&(report.wave as u32).to_le_bytes());
            out.extend_from_slice(&(report.size as u32).to_le_bytes());
            out.extend_from_slice(&(report.updated as u32).to_le_bytes());
            out.extend_from_slice(&(report.failures as u32).to_le_bytes());
        }

        write_ids(&mut out, &self.updated_so_far);
        write_ids(&mut out, &self.quarantined);
        write_ids(&mut out, &self.rollback_incomplete);

        out.extend_from_slice(&(self.snapshots.len() as u32).to_le_bytes());
        for (id, snapshot) in &self.snapshots {
            out.extend_from_slice(&id.to_le_bytes());
            write_bytes(&mut out, &snapshot.patch_range);
            out.extend_from_slice(&snapshot.measurement);
        }

        out.extend_from_slice(self.patched_golden.slice(0..ADDRESS_SPACE));
        out.extend_from_slice(&self.expected_after);

        match &self.outcome {
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
        out
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
#[derive(Debug, Clone, PartialEq)]
pub struct PausedCampaign(CampaignRun);

/// Magic + version prefix of the paused-campaign byte format. `EPC2`
/// extended `EPC1` with the campaign's anti-rollback version counter
/// and delta-shipping flag.
const PAUSE_MAGIC: &[u8; 4] = b"EPC2";

impl PausedCampaign {
    /// Index of the next wave a resumed run will roll out.
    pub fn wave_cursor(&self) -> usize {
        self.0.cursor
    }

    /// The cohort the paused campaign updates.
    pub fn cohort(&self) -> WorkloadId {
        self.0.config.cohort
    }

    /// Serialises the paused state to a self-describing byte record
    /// (little-endian, `EPC2`-tagged).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.checkpoint()
    }

    /// Deserialises a paused campaign written by
    /// [`PausedCampaign::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidCampaign`] on any structural defect
    /// (bad magic, truncation, out-of-range fields) — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FleetError> {
        let invalid = |err: CodecError| FleetError::InvalidCampaign(err.to_string());
        let mut reader = Reader::new(bytes);
        let magic: [u8; 4] = reader.array().map_err(invalid)?;
        if &magic != PAUSE_MAGIC {
            return Err(FleetError::InvalidCampaign(format!(
                "bad paused-campaign magic {magic:02x?}"
            )));
        }
        let cohort = cohort_from_u8(reader.u8().map_err(invalid)?)?;
        let target = reader.u16().map_err(invalid)?;
        let payload = read_bytes(&mut reader).map_err(invalid)?;
        let canary_fraction = f64::from_bits(reader.u64().map_err(invalid)?);
        let failure_threshold = f64::from_bits(reader.u64().map_err(invalid)?);
        let smoke_cycles = reader.u64().map_err(invalid)?;
        let version = reader.u64().map_err(invalid)?;
        let delta = match reader.u8().map_err(invalid)? {
            0 => false,
            1 => true,
            tag => {
                return Err(FleetError::InvalidCampaign(format!(
                    "unknown delta flag {tag}"
                )))
            }
        };
        let config = CampaignConfig {
            cohort,
            target,
            payload,
            canary_fraction,
            failure_threshold,
            smoke_cycles,
            version,
            delta,
        };
        config.validate()?;

        // Count fields are validated against what the input could
        // possibly hold — a corrupt count is a hard typed error, never
        // a silent clamp (which would misparse everything after it)
        // and never an unbounded allocation.
        let checked_count = |count: u32, min_item_bytes: usize, remaining: usize, what: &str| {
            let count = count as usize;
            if count.saturating_mul(min_item_bytes) > remaining {
                return Err(FleetError::InvalidCampaign(format!(
                    "{what} count {count} exceeds what {remaining} remaining bytes can hold"
                )));
            }
            Ok(count)
        };

        let wave_count = checked_count(
            reader.u32().map_err(invalid)?,
            4,
            reader.remaining(),
            "wave",
        )?;
        let mut waves = Vec::with_capacity(wave_count);
        for _ in 0..wave_count {
            waves.push(read_ids(&mut reader).map_err(invalid)?);
        }
        let cursor = reader.u32().map_err(invalid)? as usize;
        if cursor > waves.len() {
            return Err(FleetError::InvalidCampaign(format!(
                "wave cursor {cursor} is outside the {} recorded waves",
                waves.len()
            )));
        }

        let report_count = checked_count(
            reader.u32().map_err(invalid)?,
            16,
            reader.remaining(),
            "wave report",
        )?;
        let mut wave_reports = Vec::with_capacity(report_count);
        for _ in 0..report_count {
            wave_reports.push(WaveReport {
                wave: reader.u32().map_err(invalid)? as usize,
                size: reader.u32().map_err(invalid)? as usize,
                updated: reader.u32().map_err(invalid)? as usize,
                failures: reader.u32().map_err(invalid)? as usize,
            });
        }

        let updated_so_far = read_ids(&mut reader).map_err(invalid)?;
        let quarantined = read_ids(&mut reader).map_err(invalid)?;
        let rollback_incomplete = read_ids(&mut reader).map_err(invalid)?;

        let snapshot_count = checked_count(
            reader.u32().map_err(invalid)?,
            8 + 4 + 32,
            reader.remaining(),
            "snapshot",
        )?;
        let mut snapshots = BTreeMap::new();
        for _ in 0..snapshot_count {
            let id = reader.u64().map_err(invalid)?;
            let patch_range = read_bytes(&mut reader).map_err(invalid)?;
            let measurement: [u8; 32] = reader.array().map_err(invalid)?;
            snapshots.insert(
                id,
                PreUpdateSnapshot {
                    patch_range,
                    measurement,
                },
            );
        }

        let golden_bytes = reader.take(ADDRESS_SPACE).map_err(invalid)?;
        let mut patched_golden = Memory::new();
        patched_golden
            .load(0, golden_bytes)
            .expect("a full 64 KiB image always fits");
        let expected_after: [u8; 32] = reader.array().map_err(invalid)?;

        let outcome = match reader.u8().map_err(invalid)? {
            0 => None,
            1 => Some(CampaignOutcome::Completed {
                updated: reader.u32().map_err(invalid)? as usize,
            }),
            2 => Some(CampaignOutcome::HaltedAndRolledBack {
                wave: reader.u32().map_err(invalid)? as usize,
                failure_rate: f64::from_bits(reader.u64().map_err(invalid)?),
                rolled_back: reader.u32().map_err(invalid)? as usize,
            }),
            tag => {
                return Err(FleetError::InvalidCampaign(format!(
                    "unknown outcome tag {tag}"
                )))
            }
        };
        if !reader.is_empty() {
            return Err(FleetError::InvalidCampaign(format!(
                "{} trailing bytes after paused campaign",
                reader.remaining()
            )));
        }

        Ok(PausedCampaign(CampaignRun {
            config,
            waves,
            cursor,
            wave_reports,
            updated_so_far,
            quarantined,
            rollback_incomplete,
            snapshots,
            patched_golden,
            expected_after,
            outcome,
        }))
    }
}

fn cohort_from_u8(raw: u8) -> Result<WorkloadId, FleetError> {
    WorkloadId::from_index(raw)
        .ok_or_else(|| FleetError::InvalidCampaign(format!("unknown cohort index {raw}")))
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn read_bytes(reader: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
    let len = reader.u32()? as usize;
    Ok(reader.take(len)?.to_vec())
}

fn write_ids(out: &mut Vec<u8>, ids: &[DeviceId]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

fn read_ids(reader: &mut Reader<'_>) -> Result<Vec<DeviceId>, CodecError> {
    let len = reader.u32()? as usize;
    // A count the remaining bytes cannot hold is rejected before any
    // allocation (8 bytes per id).
    if len.saturating_mul(8) > reader.remaining() {
        return Err(CodecError::Oversized {
            claimed: len,
            max: reader.remaining() / 8,
        });
    }
    let mut ids = Vec::with_capacity(len);
    for _ in 0..len {
        ids.push(reader.u64()?);
    }
    Ok(ids)
}
