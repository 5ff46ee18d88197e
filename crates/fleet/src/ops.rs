//! The unified operator plane: one [`FleetOps`] surface for attestation
//! sweeps, staged OTA campaigns and health queries, with
//! backend-independent semantics.
//!
//! EILID's deployment story is a *remote* verifier that both attests and
//! heals a fleet. This module defines the operator-facing API once:
//!
//! * [`LocalOps`] — the in-process backend. Sweeps run on the
//!   [`Verifier`]'s persistent worker pool; campaigns drive the
//!   [`CampaignRun`] engine through the in-process
//!   [`LocalExecutor`](crate::campaign::LocalExecutor).
//! * `eilid_net::RemoteOps` — the wire backend. The same trait methods
//!   become protocol frames to an attestation gateway, which executes
//!   waves by pushing updates and probes to connected device clients.
//!
//! Every scenario — CLI subcommands, examples, benches, the equivalence
//! test suite — runs against `&mut dyn FleetOps`, so the two backends
//! cannot drift: a wire-driven campaign's [`CampaignReport`] is pinned
//! wave-for-wave equal to the in-process one.

use std::fmt;

use crate::campaign::{
    Campaign, CampaignConfig, CampaignOutcome, CampaignReport, CampaignRun, CampaignStatus,
    PausedCampaign, WaveReport,
};
use crate::device::DeviceId;
use crate::error::FleetError;
use crate::fleet::Fleet;
use crate::report::{FleetReport, HealthClass};
use crate::verifier::Verifier;

/// Why an operator-plane call failed.
#[derive(Debug)]
pub enum OpsError {
    /// The underlying fleet/campaign machinery rejected the operation.
    Fleet(FleetError),
    /// A campaign operation was issued with no campaign in the required
    /// state (step/pause/report with nothing running, resume with
    /// nothing paused).
    NoCampaign,
    /// A campaign begin/resume collided with one already running.
    CampaignActive,
    /// A backend-transport failure (connection loss, protocol error,
    /// gateway-side refusal). In-process backends never produce this.
    Backend(String),
}

impl fmt::Display for OpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpsError::Fleet(err) => write!(f, "fleet operation failed: {err}"),
            OpsError::NoCampaign => write!(f, "no campaign in the required state"),
            OpsError::CampaignActive => write!(f, "a campaign is already active for this cohort"),
            OpsError::Backend(msg) => write!(f, "operator-plane backend error: {msg}"),
        }
    }
}

impl std::error::Error for OpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpsError::Fleet(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FleetError> for OpsError {
    fn from(err: FleetError) -> Self {
        OpsError::Fleet(err)
    }
}

/// Lifecycle phase of the backend's campaign slot, as reported by
/// [`FleetOps::campaign_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// No campaign is loaded.
    Idle,
    /// A campaign is running; the next [`FleetOps::campaign_step`] rolls
    /// out `next_wave`.
    InProgress {
        /// Index of the next wave to roll out.
        next_wave: usize,
    },
    /// A campaign is paused *inside the backend* (the networked gateway
    /// retains paused campaigns; [`LocalOps`] hands the paused bytes to
    /// the caller instead and reports `Idle`).
    Paused {
        /// The persisted wave cursor.
        next_wave: usize,
    },
    /// The campaign finished; [`FleetOps::campaign_report`] is
    /// available.
    Finished,
}

/// Backend-independent summary of one attestation sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// Devices attested.
    pub devices: usize,
    /// Devices per health class:
    /// `[attested, stale, tampered, unverified]`.
    pub counts: [usize; 4],
    /// Devices in a non-attested class, in id order.
    pub flagged: Vec<(DeviceId, HealthClass)>,
}

impl SweepSummary {
    /// Devices in `class`.
    pub fn count(&self, class: HealthClass) -> usize {
        self.counts[class_index(class)]
    }
}

/// Backend-independent summary of one *aggregated* attestation sweep:
/// the same per-class verdicts a per-device sweep yields (the
/// equivalence the proptest oracle pins), plus the aggregate evidence —
/// shard roots, their count, and how much operator-side work the
/// aggregation saved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSweepSummary {
    /// Per-class verdicts, bit-equal to a per-device sweep's.
    pub summary: SweepSummary,
    /// The sweep epoch bound into every aggregate root MAC (the sweep's
    /// reserved challenge-nonce base, strictly increasing).
    pub epoch: u64,
    /// Shards that aggregated at least one participant.
    pub shards: usize,
    /// Aggregate root MACs the operator verified — at most
    /// `SHARD_COUNT` per gateway, no matter the fleet size.
    pub roots_verified: usize,
    /// Devices whose per-device verdict assembly was skipped because
    /// their shard's aggregate was all-clean (the memoized-probe rule
    /// pushed into sweeps).
    pub short_circuited: usize,
    /// Verified `(shard, aggregate root)` pairs, in canonical order
    /// (ascending shard; for a cluster, gateways in placement order).
    pub shard_roots: Vec<(u16, [u8; 32])>,
    /// Digest folding all shard roots — one fleet-wide aggregate.
    pub fleet_root: [u8; 32],
}

/// Maps a health class to its [`SweepSummary::counts`] slot.
pub fn class_index(class: HealthClass) -> usize {
    match class {
        HealthClass::Attested => 0,
        HealthClass::Stale => 1,
        HealthClass::Tampered => 2,
        HealthClass::Unverified => 3,
    }
}

impl From<&FleetReport> for SweepSummary {
    fn from(report: &FleetReport) -> Self {
        let mut counts = [0usize; 4];
        let mut flagged = Vec::new();
        for health in &report.devices {
            counts[class_index(health.class)] += 1;
            if health.class != HealthClass::Attested {
                flagged.push((health.device, health.class));
            }
        }
        flagged.sort_by_key(|(id, _)| *id);
        SweepSummary {
            devices: report.devices.len(),
            counts,
            flagged,
        }
    }
}

/// Backend-independent health/ledger summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpsHealth {
    /// Devices the backend can reach (fleet size in-process; attached
    /// device-plane registrations on a gateway).
    pub devices: usize,
    /// Events recorded in the backend's ledger.
    pub ledger_events: usize,
    /// Phase of the backend's campaign slot.
    pub campaign: CampaignPhase,
}

/// The unified operator plane: sweeps, staged campaigns, and health
/// queries — one surface, two first-class backends ([`LocalOps`]
/// in-process, `eilid_net::RemoteOps` over the wire).
///
/// The campaign methods drive a single campaign slot through its
/// lifecycle: `begin → step* → report`, with `pause`/`resume` between
/// waves serialising through the same [`PausedCampaign`] byte record
/// both backends persist.
pub trait FleetOps {
    /// Runs one full attestation sweep and summarises per-class health.
    ///
    /// # Errors
    ///
    /// Backend failures only; per-device verification failures are
    /// *classifications*, not errors.
    fn sweep(&mut self) -> Result<SweepSummary, OpsError>;

    /// Runs one full *aggregated* attestation sweep: per-class verdicts
    /// identical to [`FleetOps::sweep`], but the evidence folds into
    /// one signed aggregate root per shard, so the operator verifies at
    /// most `SHARD_COUNT` roots and descends to per-device verdicts
    /// only for reported suspects.
    ///
    /// # Errors
    ///
    /// Backend failures, including an aggregate the operator cannot
    /// verify.
    fn sweep_aggregated(&mut self) -> Result<AggSweepSummary, OpsError>;

    /// Loads and validates a campaign into the backend's campaign slot,
    /// replacing a finished one. Nothing is rolled out yet.
    ///
    /// # Errors
    ///
    /// [`OpsError::CampaignActive`] if an unfinished campaign is loaded
    /// (or, on a gateway, a paused one is retained);
    /// [`OpsError::Fleet`] for invalid configs or unknown cohorts.
    fn campaign_begin(&mut self, config: &CampaignConfig) -> Result<(), OpsError>;

    /// Rolls out exactly one wave of the loaded campaign.
    ///
    /// # Errors
    ///
    /// [`OpsError::NoCampaign`] with nothing loaded; backend transport
    /// failures otherwise.
    fn campaign_step(&mut self) -> Result<CampaignStatus, OpsError>;

    /// Phase of the campaign slot.
    ///
    /// # Errors
    ///
    /// Backend failures only.
    fn campaign_status(&mut self) -> Result<CampaignPhase, OpsError>;

    /// Pauses the loaded campaign between waves into the serialised
    /// [`PausedCampaign`] byte record — the caller owns persistence.
    ///
    /// # Errors
    ///
    /// [`OpsError::NoCampaign`] with nothing running.
    fn campaign_pause(&mut self) -> Result<Vec<u8>, OpsError>;

    /// Resumes a campaign from [`PausedCampaign`] bytes (from
    /// [`FleetOps::campaign_pause`], possibly persisted across a
    /// process or gateway restart), replacing a finished one.
    ///
    /// # Errors
    ///
    /// [`OpsError::CampaignActive`] if an unfinished campaign is loaded
    /// (or, on a gateway, a paused one is retained);
    /// [`OpsError::Fleet`] for malformed bytes.
    fn campaign_resume(&mut self, paused: &[u8]) -> Result<(), OpsError>;

    /// The finished campaign's report.
    ///
    /// # Errors
    ///
    /// [`OpsError::NoCampaign`] unless a loaded campaign has finished.
    fn campaign_report(&mut self) -> Result<CampaignReport, OpsError>;

    /// Backend health: reachable devices, ledger size, campaign phase.
    ///
    /// # Errors
    ///
    /// Backend failures only.
    fn health(&mut self) -> Result<OpsHealth, OpsError>;

    /// Convenience: `begin`, step every wave, return the report. The
    /// campaign slot is left in the `Finished` phase.
    ///
    /// # Errors
    ///
    /// As for the individual lifecycle calls.
    fn run_campaign(&mut self, config: &CampaignConfig) -> Result<CampaignReport, OpsError> {
        self.campaign_begin(config)?;
        while self.campaign_step()? != CampaignStatus::Finished {}
        self.campaign_report()
    }
}

/// The in-process [`FleetOps`] backend: a [`Fleet`] and its [`Verifier`]
/// borrowed for the operator session. Campaign state (the slot) lives in
/// this struct; paused campaigns are handed to the caller as bytes.
#[derive(Debug)]
pub struct LocalOps<'a> {
    fleet: &'a mut Fleet,
    verifier: &'a mut Verifier,
    run: Option<CampaignRun>,
}

impl<'a> LocalOps<'a> {
    /// Wraps the fleet and verifier as an operator-plane backend.
    pub fn new(fleet: &'a mut Fleet, verifier: &'a mut Verifier) -> Self {
        LocalOps {
            fleet,
            verifier,
            run: None,
        }
    }

    /// A finished run only keeps its report readable; the next begin or
    /// resume replaces it, exactly as on the gateway. An unfinished run
    /// is refused.
    fn refuse_unfinished(&self) -> Result<(), OpsError> {
        if self.run.as_ref().is_some_and(|run| !run.is_finished()) {
            return Err(OpsError::CampaignActive);
        }
        Ok(())
    }
}

impl FleetOps for LocalOps<'_> {
    fn sweep(&mut self) -> Result<SweepSummary, OpsError> {
        let report = self.verifier.sweep(self.fleet);
        Ok(SweepSummary::from(&report))
    }

    fn sweep_aggregated(&mut self) -> Result<AggSweepSummary, OpsError> {
        Ok(self.verifier.sweep_aggregated(self.fleet))
    }

    fn campaign_begin(&mut self, config: &CampaignConfig) -> Result<(), OpsError> {
        self.refuse_unfinished()?;
        let campaign = Campaign::new(config.clone())?;
        self.run = Some(campaign.begin(self.fleet, self.verifier)?);
        Ok(())
    }

    fn campaign_step(&mut self) -> Result<CampaignStatus, OpsError> {
        let run = self.run.as_mut().ok_or(OpsError::NoCampaign)?;
        Ok(run.step(self.fleet, self.verifier)?)
    }

    fn campaign_status(&mut self) -> Result<CampaignPhase, OpsError> {
        Ok(match &self.run {
            None => CampaignPhase::Idle,
            Some(run) if run.is_finished() => CampaignPhase::Finished,
            Some(run) => CampaignPhase::InProgress {
                next_wave: run.wave_cursor(),
            },
        })
    }

    fn campaign_pause(&mut self) -> Result<Vec<u8>, OpsError> {
        let run = self.run.take().ok_or(OpsError::NoCampaign)?;
        // A finished run has nothing left to pause — keep it loaded so
        // its report stays readable, exactly as the gateway backend
        // refuses (backends must not drift on lifecycle semantics).
        if run.is_finished() {
            self.run = Some(run);
            return Err(OpsError::NoCampaign);
        }
        Ok(run.pause().to_bytes())
    }

    fn campaign_resume(&mut self, paused: &[u8]) -> Result<(), OpsError> {
        self.refuse_unfinished()?;
        let paused = PausedCampaign::from_bytes(paused)?;
        self.run = Some(Campaign::resume(paused));
        Ok(())
    }

    fn campaign_report(&mut self) -> Result<CampaignReport, OpsError> {
        self.run
            .as_ref()
            .and_then(CampaignRun::report)
            .ok_or(OpsError::NoCampaign)
    }

    fn health(&mut self) -> Result<OpsHealth, OpsError> {
        let campaign = self.campaign_status()?;
        Ok(OpsHealth {
            devices: self.fleet.len(),
            ledger_events: self.fleet.ledger().events().len(),
            campaign,
        })
    }
}

// --- cluster merge helpers -------------------------------------------------
//
// A multi-gateway cluster runs each operator call on every gateway's
// partition of the fleet and folds the partial results back into the
// backend-independent summary types above. The folds live here — next
// to the types they fold — so `eilid_net::ClusterOps` and the test
// suite share one definition of "what the union looks like".

/// Folds per-gateway sweep summaries into the union fleet's summary:
/// device and per-class counts add; flagged lists concatenate and
/// re-sort into global id order. Merging the partition of a fleet
/// equals sweeping the whole fleet through one backend.
pub fn merge_sweeps(parts: &[SweepSummary]) -> SweepSummary {
    let mut merged = SweepSummary {
        devices: 0,
        counts: [0; 4],
        flagged: Vec::new(),
    };
    for part in parts {
        merged.devices += part.devices;
        for (slot, count) in merged.counts.iter_mut().zip(part.counts) {
            *slot += count;
        }
        merged.flagged.extend(part.flagged.iter().copied());
    }
    merged.flagged.sort_by_key(|(id, _)| *id);
    merged
}

/// Folds per-gateway *aggregated* sweep summaries into the cluster's:
/// verdict summaries fold through [`merge_sweeps`]; shard-root lists
/// concatenate in the caller's gateway placement order (shards overlap
/// across gateways — each gateway aggregates its own partition of every
/// shard); root-verification and short-circuit counters add; the merged
/// fleet root re-folds the concatenated shard roots through `provider`.
/// The merged epoch is the newest partition's (each gateway draws from
/// its own reserved nonce block).
pub fn merge_agg_sweeps(
    provider: &dyn eilid_casu::CryptoProvider,
    parts: &[AggSweepSummary],
) -> AggSweepSummary {
    let summaries: Vec<SweepSummary> = parts.iter().map(|part| part.summary.clone()).collect();
    let shard_roots: Vec<(u16, [u8; 32])> = parts
        .iter()
        .flat_map(|part| part.shard_roots.iter().copied())
        .collect();
    let fleet_root = eilid_casu::agg::fleet_root(provider, &shard_roots);
    AggSweepSummary {
        summary: merge_sweeps(&summaries),
        epoch: parts.iter().map(|part| part.epoch).max().unwrap_or(0),
        shards: parts.iter().map(|part| part.shards).sum(),
        roots_verified: parts.iter().map(|part| part.roots_verified).sum(),
        short_circuited: parts.iter().map(|part| part.short_circuited).sum(),
        shard_roots,
        fleet_root,
    }
}

/// Folds per-gateway campaign reports, wave-aligned: wave `i` of the
/// merged report sums the size/updated/failure counts of every part's
/// wave `i` (parts halted early simply stop contributing), and the
/// quarantine/rollback id lists concatenate into global id order.
///
/// The outcome folds conservatively: the merge is `Completed` (with the
/// summed update count) only when *every* part completed; one halted
/// gateway halts the merged outcome at the earliest halted wave, with
/// that wave's aggregate failure rate and the summed rollback count.
/// Returns `None` for an empty slice — there is no empty campaign.
pub fn merge_reports(parts: &[CampaignReport]) -> Option<CampaignReport> {
    if parts.is_empty() {
        return None;
    }
    let wave_count = parts.iter().map(|part| part.waves.len()).max().unwrap_or(0);
    let mut waves = Vec::with_capacity(wave_count);
    for wave in 0..wave_count {
        let mut merged = WaveReport {
            wave,
            size: 0,
            updated: 0,
            failures: 0,
        };
        for part in parts {
            if let Some(report) = part.waves.iter().find(|w| w.wave == wave) {
                merged.size += report.size;
                merged.updated += report.updated;
                merged.failures += report.failures;
            }
        }
        waves.push(merged);
    }

    let halted_at = parts
        .iter()
        .filter_map(|part| match part.outcome {
            CampaignOutcome::HaltedAndRolledBack { wave, .. } => Some(wave),
            CampaignOutcome::Completed { .. } => None,
        })
        .min();
    let outcome = match halted_at {
        None => CampaignOutcome::Completed {
            updated: parts
                .iter()
                .map(|part| match part.outcome {
                    CampaignOutcome::Completed { updated } => updated,
                    CampaignOutcome::HaltedAndRolledBack { .. } => 0,
                })
                .sum(),
        },
        Some(wave) => {
            let (size, failures) = waves
                .get(wave)
                .map(|w| (w.size, w.failures))
                .unwrap_or((0, 0));
            CampaignOutcome::HaltedAndRolledBack {
                wave,
                failure_rate: if size == 0 {
                    0.0
                } else {
                    failures as f64 / size as f64
                },
                rolled_back: parts
                    .iter()
                    .map(|part| match part.outcome {
                        CampaignOutcome::HaltedAndRolledBack { rolled_back, .. } => rolled_back,
                        CampaignOutcome::Completed { .. } => 0,
                    })
                    .sum(),
            }
        }
    };

    let mut quarantined: Vec<DeviceId> = parts
        .iter()
        .flat_map(|part| part.quarantined.iter().copied())
        .collect();
    quarantined.sort_unstable();
    let mut rollback_incomplete: Vec<DeviceId> = parts
        .iter()
        .flat_map(|part| part.rollback_incomplete.iter().copied())
        .collect();
    rollback_incomplete.sort_unstable();

    Some(CampaignReport {
        outcome,
        waves,
        quarantined,
        rollback_incomplete,
    })
}

/// Folds per-gateway campaign phases into the cluster's phase: the
/// least-advanced gateway wins, so a cluster driver keeps stepping
/// until *every* partition finished. `InProgress` (at the minimum next
/// wave) dominates `Paused`, which dominates `Finished`; a cluster is
/// `Idle` only when every gateway is.
pub fn merge_phases(parts: &[CampaignPhase]) -> CampaignPhase {
    let min_wave = |running: bool| {
        parts
            .iter()
            .filter_map(|phase| match phase {
                CampaignPhase::InProgress { next_wave } if running => Some(*next_wave),
                CampaignPhase::Paused { next_wave } if !running => Some(*next_wave),
                _ => None,
            })
            .min()
            .unwrap_or(0)
    };
    if parts
        .iter()
        .any(|phase| matches!(phase, CampaignPhase::InProgress { .. }))
    {
        CampaignPhase::InProgress {
            next_wave: min_wave(true),
        }
    } else if parts
        .iter()
        .any(|phase| matches!(phase, CampaignPhase::Paused { .. }))
    {
        CampaignPhase::Paused {
            next_wave: min_wave(false),
        }
    } else if parts
        .iter()
        .any(|phase| matches!(phase, CampaignPhase::Finished))
    {
        CampaignPhase::Finished
    } else {
        CampaignPhase::Idle
    }
}

/// Folds per-gateway health summaries: reachable devices and ledger
/// events add; the campaign phase folds through [`merge_phases`].
pub fn merge_health(parts: &[OpsHealth]) -> OpsHealth {
    let phases: Vec<CampaignPhase> = parts.iter().map(|health| health.campaign).collect();
    OpsHealth {
        devices: parts.iter().map(|health| health.devices).sum(),
        ledger_events: parts.iter().map(|health| health.ledger_events).sum(),
        campaign: merge_phases(&phases),
    }
}
