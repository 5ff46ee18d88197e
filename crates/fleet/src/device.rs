//! One simulated fleet member: an EILID-protected device plus the
//! device-resident halves of the update and attestation protocols.

use eilid::{Device, RunOutcome};
use eilid_casu::{
    merkle_measure, AttestationReport, Attestor, Challenge, DeltaUpdateRequest, DeviceKey,
    IncrementalMeasurer, MeasurerStats, UpdateEngine, UpdateError, UpdateRequest,
};
use eilid_workloads::WorkloadId;

/// Fleet-wide device identifier (also the key-derivation index).
pub type DeviceId = u64;

/// A fleet member: the simulated device and its device-side protocol
/// state (update engine, attestor, incremental measurement engine), all
/// keyed with the device-unique key.
#[derive(Debug, Clone)]
pub struct SimDevice {
    id: DeviceId,
    cohort: WorkloadId,
    device: Device,
    engine: UpdateEngine,
    attestor: Attestor,
    /// Incremental Merkle engine over the device's PMEM range. Kept
    /// coherent by the memory's dirty-granule bits, so *any* write path
    /// — authenticated updates, in-simulation bus writes, test-injected
    /// tampering — invalidates the covered leaves.
    measurer: IncrementalMeasurer,
    /// When set, campaign probe memoization is disabled for this
    /// device: its post-update health verdict must come from its own
    /// smoke run, never inherited from a cohort reference device.
    /// Fault-injection harnesses set this on devices whose behaviour
    /// deliberately diverges from the cohort's.
    probe_isolated: bool,
}

impl SimDevice {
    /// Assembles a fleet member from a clone of its cohort's prototype
    /// device and the prototype-built incremental measurer (cloned, like
    /// the device, so spawning thousands of devices re-hashes nothing).
    /// The clone copies the device state — registers, monitor — shares
    /// the memory image until the device first writes it, and shares the
    /// cohort's build artifacts with the prototype.
    pub(crate) fn new(
        id: DeviceId,
        cohort: WorkloadId,
        device: Device,
        key: &DeviceKey,
        measurer: IncrementalMeasurer,
    ) -> Self {
        let layout = device.layout().clone();
        SimDevice {
            id,
            cohort,
            device,
            engine: UpdateEngine::with_key(key, layout),
            attestor: Attestor::with_key(key),
            measurer,
            probe_isolated: false,
        }
    }

    /// The device's fleet-wide id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Which firmware cohort (workload) this device runs.
    pub fn cohort(&self) -> WorkloadId {
        self.cohort
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the underlying device — used by tests and
    /// attack injectors that model adversaries with memory access.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Device-side update state (applied count, last nonce).
    pub fn engine(&self) -> &UpdateEngine {
        &self.engine
    }

    /// Statistics of the incremental measurement engine (always
    /// `Some`).
    pub fn measurer_stats(&self) -> Option<&MeasurerStats> {
        Some(self.measurer.stats())
    }

    /// Whether this device is excluded from campaign probe memoization
    /// (see [`SimDevice::set_probe_isolated`]).
    pub fn probe_isolated(&self) -> bool {
        self.probe_isolated
    }

    /// Marks this device as probe-isolated: campaigns must run its
    /// post-update smoke probe on the device itself instead of
    /// inheriting the cohort reference verdict. Fault-injection
    /// configurations call this for every device they perturb.
    pub fn set_probe_isolated(&mut self, isolated: bool) {
        self.probe_isolated = isolated;
    }

    /// Fault injection: swaps the device's attestation key for one the
    /// verifier never derived, modelling a cloned or re-keyed impostor.
    /// Every subsequent report fails the MAC check and classifies
    /// `Unverified` — the adversarial and equivalence suites use this
    /// for wrong-key populations in sweep mixes.
    pub fn corrupt_attestation_key(&mut self) {
        self.attestor = Attestor::new(b"impostor-key-never-derived-0000!");
    }

    /// The device's current full-PMEM measurement, served from the live
    /// incremental measurer (re-hashing only dirty granules) — the fast
    /// path campaign snapshots take instead of a full `measure_pmem`.
    /// The measurer was built over this device's PMEM range, and a
    /// device's layout never changes, so it always covers the range.
    pub fn measure_pmem_cached(&mut self) -> [u8; 32] {
        self.measurer.root(&mut self.device.cpu_mut().memory)
    }

    /// Answers an attestation challenge over the device's memory.
    ///
    /// A challenge covering exactly the incremental engine's range is
    /// served from the maintained tree (re-hashing only dirty leaves);
    /// other ranges are measured from scratch under the same Merkle
    /// scheme, so verifier and device always agree on the digest.
    pub fn attest(&mut self, challenge: Challenge) -> AttestationReport {
        let measurement = if self.measurer.covers(challenge.start, challenge.end) {
            self.measurer.root(&mut self.device.cpu_mut().memory)
        } else {
            let start = challenge.start.min(challenge.end);
            let end = challenge.start.max(challenge.end);
            merkle_measure(&self.device.cpu().memory, start, end)
        };
        self.attestor.report(challenge, measurement)
    }

    /// Verifies and applies an authenticated update through the CASU
    /// engine, which writes device memory directly.
    ///
    /// # Errors
    ///
    /// Returns the [`UpdateError`] of the first failed check; device
    /// memory is untouched in that case.
    pub fn apply_update(&mut self, request: &UpdateRequest) -> Result<(), UpdateError> {
        self.engine
            .apply(request, &mut self.device.cpu_mut().memory)
    }

    /// Verifies and applies a sparse delta update: the post-image is
    /// assembled from the device's *current* bytes, so a tampered base
    /// fails MAC verification exactly as a forged full image would.
    ///
    /// # Errors
    ///
    /// Returns the [`UpdateError`] of the first failed check; device
    /// memory is untouched in that case.
    pub fn apply_delta_update(&mut self, request: &DeltaUpdateRequest) -> Result<(), UpdateError> {
        self.engine
            .apply_delta(request, &mut self.device.cpu_mut().memory)
    }

    /// Reboots into the current firmware image (post-OTA restart).
    pub fn reboot(&mut self) {
        self.device.reboot();
    }

    /// Runs the device for (up to) `cycles` clock cycles. A device that
    /// already completed reports completion without consuming cycles.
    pub fn run_slice(&mut self, cycles: u64) -> RunOutcome {
        self.device.run_for(cycles)
    }
}
