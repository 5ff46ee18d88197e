//! Fleet health aggregation and the event ledger.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use eilid_casu::{AttestError, MeasurementScheme, UpdateError, Violation};
use eilid_workloads::WorkloadId;

use crate::device::DeviceId;

/// Coarse health classification of one device after an attestation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthClass {
    /// Report verified against the cohort's current golden measurement.
    Attested,
    /// Report verified, but against a *previous* firmware version — the
    /// device missed an update (or was rolled back).
    Stale,
    /// Report verified cryptographically but the measurement matches no
    /// known firmware version: the device's program memory was tampered
    /// with.
    Tampered,
    /// The report failed cryptographic verification (wrong key, mangled
    /// transport, replay).
    Unverified,
}

impl fmt::Display for HealthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            HealthClass::Attested => "attested",
            HealthClass::Stale => "stale",
            HealthClass::Tampered => "tampered",
            HealthClass::Unverified => "unverified",
        };
        write!(f, "{name}")
    }
}

/// Per-device result of one attestation sweep.
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    /// The attested device.
    pub device: DeviceId,
    /// The device's firmware cohort.
    pub cohort: WorkloadId,
    /// Health classification.
    pub class: HealthClass,
    /// The verification error, for unverified reports.
    pub error: Option<AttestError>,
}

/// Aggregated result of one batched attestation sweep.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-device health, in device order.
    pub devices: Vec<DeviceHealth>,
    /// Requested device ids that matched no fleet device — these were
    /// never challenged, so "no bad entries" must not be read as
    /// "healthy" for them.
    pub missing: Vec<DeviceId>,
    /// Wall-clock time for the sweep (challenge, report, verify).
    pub elapsed: Duration,
    /// Worker threads that actually processed devices (≤ the fleet's
    /// configured thread count; subset sweeps may use fewer shards).
    pub threads: usize,
    /// Measurement scheme the sweep's reports were verified under.
    pub scheme: MeasurementScheme,
}

impl FleetReport {
    /// Number of devices in `class`.
    pub fn count(&self, class: HealthClass) -> usize {
        self.devices.iter().filter(|d| d.class == class).count()
    }

    /// Devices (ids) in `class`.
    pub fn devices_in(&self, class: HealthClass) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.device)
            .collect()
    }

    /// Attestation throughput in devices verified per second.
    pub fn devices_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.devices.len() as f64 / secs
    }

    /// Per-cohort counts of each health class.
    pub fn by_cohort(&self) -> BTreeMap<WorkloadId, BTreeMap<HealthClass, usize>> {
        let mut out: BTreeMap<WorkloadId, BTreeMap<HealthClass, usize>> = BTreeMap::new();
        for device in &self.devices {
            *out.entry(device.cohort)
                .or_default()
                .entry(device.class)
                .or_default() += 1;
        }
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet attestation sweep [{}]: {} devices in {:.3}s on {} thread(s) ({:.0} devices/s)",
            self.scheme,
            self.devices.len(),
            self.elapsed.as_secs_f64(),
            self.threads,
            self.devices_per_second(),
        )?;
        for class in [
            HealthClass::Attested,
            HealthClass::Stale,
            HealthClass::Tampered,
            HealthClass::Unverified,
        ] {
            let count = self.count(class);
            if count > 0 {
                writeln!(f, "  {class:<10} {count}")?;
            }
        }
        if !self.missing.is_empty() {
            writeln!(
                f,
                "  missing    {} (unknown ids, never challenged)",
                self.missing.len()
            )?;
        }
        Ok(())
    }
}

/// One entry in the fleet's append-only event ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// A device was enrolled into the fleet.
    Enrolled {
        /// The device.
        device: DeviceId,
        /// Its firmware cohort.
        cohort: WorkloadId,
    },
    /// A device's monitor detected a violation; the hardware reset it.
    ViolationReset {
        /// The device.
        device: DeviceId,
        /// The detected violation.
        violation: Violation,
    },
    /// A previously reset device completed a run again.
    Recovered {
        /// The device.
        device: DeviceId,
    },
    /// An authenticated update was applied on a device.
    UpdateApplied {
        /// The device.
        device: DeviceId,
        /// The update's freshness nonce.
        nonce: u64,
    },
    /// A device rejected an update request.
    UpdateRejected {
        /// The device.
        device: DeviceId,
        /// Why the device rejected it.
        error: UpdateError,
    },
    /// A device failed the post-update health probe.
    ProbeFailed {
        /// The device.
        device: DeviceId,
    },
    /// A campaign wave finished.
    WaveCompleted {
        /// Wave index within its campaign.
        wave: usize,
        /// Devices updated in the wave.
        updated: usize,
        /// Devices whose rollout failed (update rejected or post-update
        /// health check failed; see `UpdateRejected`/`ProbeFailed`).
        failures: usize,
    },
    /// A campaign halted and rolled back.
    CampaignHalted {
        /// Wave index that tripped the halt.
        wave: usize,
        /// Observed post-update failure rate.
        failure_rate: f64,
    },
    /// A device was rolled back to its pre-campaign firmware, verified
    /// by measurement.
    RolledBack {
        /// The device.
        device: DeviceId,
    },
    /// A rollback was applied but the device's post-rollback measurement
    /// does not match its pre-campaign state (e.g. the bad firmware
    /// corrupted memory outside the patched range before its violation
    /// reset). The device needs operator attention; sweeps will keep
    /// flagging it.
    RollbackIncomplete {
        /// The device.
        device: DeviceId,
    },
    /// An attestation sweep flagged a device.
    AttestationFlagged {
        /// The device.
        device: DeviceId,
        /// The health class it was flagged with.
        class: HealthClass,
    },
}

/// Append-only record of fleet lifecycle events.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    events: Vec<LedgerEvent>,
}

impl Ledger {
    /// Appends an event.
    pub fn record(&mut self, event: LedgerEvent) {
        self.events.push(event);
    }

    /// All recorded events, oldest first.
    pub fn events(&self) -> &[LedgerEvent] {
        &self.events
    }

    /// Number of violation resets recorded for `device`.
    pub fn violation_resets(&self, device: DeviceId) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, LedgerEvent::ViolationReset { device: d, .. } if *d == device))
            .count()
    }

    /// Total violation resets across the fleet.
    pub fn total_violation_resets(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, LedgerEvent::ViolationReset { .. }))
            .count()
    }

    /// Devices recorded as recovered after a violation reset.
    pub fn recovered_devices(&self) -> Vec<DeviceId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                LedgerEvent::Recovered { device } => Some(*device),
                _ => None,
            })
            .collect()
    }

    /// Devices with more violation resets than recoveries — i.e. a reset
    /// that has not yet been followed by a completed run. Computed in one
    /// pass over the ledger.
    pub fn pending_recoveries(&self) -> std::collections::BTreeSet<DeviceId> {
        let mut balance: std::collections::BTreeMap<DeviceId, i64> =
            std::collections::BTreeMap::new();
        for event in &self.events {
            match event {
                LedgerEvent::ViolationReset { device, .. } => {
                    *balance.entry(*device).or_default() += 1;
                }
                LedgerEvent::Recovered { device } => {
                    *balance.entry(*device).or_default() -= 1;
                }
                _ => {}
            }
        }
        balance
            .into_iter()
            .filter_map(|(device, count)| (count > 0).then_some(device))
            .collect()
    }
}
