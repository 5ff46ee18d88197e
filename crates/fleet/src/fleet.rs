//! The fleet container: spawning heterogeneous devices and running them
//! concurrently.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::thread;

use eilid::{DeviceBuilder, RunOutcome};
use eilid_casu::{DeviceKey, IncrementalMeasurer, MeasurementScheme, MemoryLayout};
use eilid_msp430::Memory;
use eilid_workloads::WorkloadId;

use crate::device::{DeviceId, SimDevice};
use crate::error::FleetError;
use crate::exec::parallel_map_mut;
use crate::report::{Ledger, LedgerEvent};

/// Per-firmware-cohort state the verifier side keeps: the golden memory
/// image every healthy device of the cohort must measure equal to, and
/// the memory layout its devices were built with (golden measurements
/// must be taken over the same PMEM range the devices attest).
#[derive(Debug, Clone)]
pub(crate) struct Cohort {
    pub(crate) golden: Memory,
    pub(crate) layout: MemoryLayout,
}

/// Builder for [`Fleet`]s.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    root: DeviceKey,
    devices: usize,
    threads: usize,
    workloads: Vec<WorkloadId>,
}

impl FleetBuilder {
    /// Starts a fleet rooted at `root`; device keys are derived from it.
    pub fn new(root: DeviceKey) -> Self {
        FleetBuilder {
            root,
            devices: 16,
            threads: 4,
            workloads: WorkloadId::ALL.to_vec(),
        }
    }

    /// Sets the number of devices to spawn (default 16).
    pub fn devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Sets the worker-thread count for fleet-wide operations
    /// (default 4). [`FleetBuilder::build`] caps it at the machine's
    /// available parallelism: sweeps, slices and campaign rounds spawn
    /// their scoped threads per call, and threads beyond the core count
    /// only add spawns.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Restricts the firmware mix (devices are assigned round-robin;
    /// default: all seven paper workloads).
    pub fn workloads(mut self, workloads: &[WorkloadId]) -> Self {
        self.workloads = workloads.to_vec();
        self
    }

    /// Builds the fleet and its verifier.
    ///
    /// Each distinct firmware is instrumented once
    /// ([`DeviceBuilder::build_eilid`]) and the resulting prototype is
    /// cloned per device, so construction cost is O(workloads) + O(devices)
    /// clones rather than O(devices) instrumentation runs. A clone copies
    /// the device state (registers, monitor, Merkle tree) and shares the
    /// memory image until the device first writes it; the build
    /// artifacts are shared by every device of a cohort.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] if the fleet would be empty or a
    /// firmware fails to build.
    pub fn build(self) -> Result<(Fleet, crate::Verifier), FleetError> {
        if self.devices == 0 {
            return Err(FleetError::EmptyFleet);
        }
        if self.workloads.is_empty() {
            return Err(FleetError::EmptyWorkloadMix);
        }

        let builder = DeviceBuilder::new();
        let mut prototypes = Vec::with_capacity(self.workloads.len());
        let mut cohorts = BTreeMap::new();
        for &id in &self.workloads {
            let workload = id.workload();
            let mut prototype = builder.build_eilid(&workload.source)?;
            // Build the cohort's Merkle tree once, on the prototype;
            // every cloned device starts from the same (clean) memory, so
            // the measurer clones along with it instead of re-hashing
            // 6 KiB per device.
            let layout = prototype.layout().clone();
            let measurer = IncrementalMeasurer::for_pmem(&mut prototype.cpu_mut().memory, &layout);
            cohorts.insert(
                id,
                Cohort {
                    golden: prototype.cpu().memory.clone(),
                    layout: prototype.layout().clone(),
                },
            );
            prototypes.push((id, prototype, measurer));
        }

        let mut ledger = Ledger::default();
        let mut devices = Vec::with_capacity(self.devices);
        for index in 0..self.devices {
            let (cohort, prototype, measurer) = &prototypes[index % prototypes.len()];
            let id = index as DeviceId;
            let key = self.root.derive(id);
            devices.push(SimDevice::new(
                id,
                *cohort,
                prototype.clone(),
                &key,
                measurer.clone(),
            ));
            ledger.record(LedgerEvent::Enrolled {
                device: id,
                cohort: *cohort,
            });
        }

        // The executor runs inline below one thread, and threads past
        // the core count only add spawns.
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let fleet = Fleet {
            devices,
            cohorts,
            threads: self.threads.clamp(1, cores),
            ledger,
        };
        let verifier = crate::Verifier::enroll(self.root, &fleet);
        Ok((fleet, verifier))
    }
}

/// Result of running every device for one bounded time slice.
#[derive(Debug, Clone, Default)]
pub struct SliceReport {
    /// Devices whose application has completed.
    pub completed: usize,
    /// Devices still running (slice budget exhausted).
    pub running: usize,
    /// Devices reset by their monitor during this slice.
    pub violations: usize,
    /// Devices that hit an undecodable instruction.
    pub faults: usize,
}

/// N concurrently simulated EILID devices plus the fleet event ledger.
#[derive(Debug, Clone)]
pub struct Fleet {
    devices: Vec<SimDevice>,
    cohorts: BTreeMap<WorkloadId, Cohort>,
    threads: usize,
    ledger: Ledger,
}

impl Fleet {
    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` for a fleet with no devices (builders reject this).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Worker-thread count used for fleet-wide operations: the
    /// builder's count, capped at the available parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The measurement scheme this fleet's devices and verifier agree
    /// on — always [`MeasurementScheme::Merkle`].
    pub fn scheme(&self) -> MeasurementScheme {
        MeasurementScheme::Merkle
    }

    /// The devices, in id order.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// Mutable access to the devices (attack injection in tests, manual
    /// repair flows).
    pub fn devices_mut(&mut self) -> &mut [SimDevice] {
        &mut self.devices
    }

    /// A single device by id.
    pub fn device(&self, id: DeviceId) -> Option<&SimDevice> {
        self.devices.get(usize::try_from(id).ok()?)
    }

    /// Firmware cohorts present in the fleet.
    pub fn cohort_ids(&self) -> Vec<WorkloadId> {
        self.cohorts.keys().copied().collect()
    }

    /// Device ids belonging to `cohort`.
    pub fn cohort_members(&self, cohort: WorkloadId) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.cohort() == cohort)
            .map(|d| d.id())
            .collect()
    }

    /// The golden memory image for `cohort`, if present.
    pub(crate) fn cohort(&self, cohort: WorkloadId) -> Option<&Cohort> {
        self.cohorts.get(&cohort)
    }

    /// Mutable cohort state (campaign promotion).
    pub(crate) fn cohort_mut(&mut self, cohort: WorkloadId) -> Option<&mut Cohort> {
        self.cohorts.get_mut(&cohort)
    }

    /// The fleet event ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Mutable ledger access for orchestration layers.
    pub(crate) fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Runs every device for (up to) `cycles` clock cycles on the
    /// fleet's threads, recording violation resets and recoveries in
    /// the ledger.
    pub fn run_slice(&mut self, cycles: u64) -> SliceReport {
        // One ledger pass up front: devices whose last violation reset
        // has not yet been followed by a completed run.
        let awaiting_recovery = self.ledger.pending_recoveries();
        let outcomes = parallel_map_mut(&mut self.devices, self.threads, |device| {
            (device.id(), device.run_slice(cycles))
        });

        let mut report = SliceReport::default();
        for (id, outcome) in outcomes {
            match outcome {
                RunOutcome::Completed { .. } => {
                    report.completed += 1;
                    if awaiting_recovery.contains(&id) {
                        self.ledger.record(LedgerEvent::Recovered { device: id });
                    }
                }
                RunOutcome::Timeout { .. } => report.running += 1,
                RunOutcome::Violation { violation, .. } => {
                    report.violations += 1;
                    self.ledger.record(LedgerEvent::ViolationReset {
                        device: id,
                        violation,
                    });
                }
                RunOutcome::Fault { .. } => report.faults += 1,
            }
        }
        report
    }
}
