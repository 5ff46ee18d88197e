//! # eilid-fleet — fleet-scale orchestration for EILID devices
//!
//! EILID/CASU target deployments of *many* low-end devices, but the rest
//! of this workspace simulates one MSP430 at a time. This crate adds the
//! verifier-side fleet layer:
//!
//! * [`Fleet`] / [`FleetBuilder`] — spawns N concurrent simulated EILID
//!   devices with heterogeneous firmware (the seven
//!   [`eilid_workloads`] applications) and per-device keys derived from a
//!   single fleet root key ([`eilid_casu::DeviceKey::derive`]). Device
//!   construction instruments each distinct firmware once and clones the
//!   prototype, so spinning up thousands of devices stays cheap.
//! * [`Verifier`] — issues batched attestation challenges across the
//!   fleet, verifies the reports on a multi-threaded scheduler
//!   (`std::thread::scope` + per-worker shards, no async runtime) and
//!   aggregates per-device health into a [`FleetReport`]. Sweep state is
//!   sharded by `device_id % threads`, and each shard caches the device
//!   keys it has derived, so key derivation happens once per device ever
//!   rather than once per sweep.
//! * incremental measurement — by default
//!   ([`eilid_casu::MeasurementScheme::Merkle`]) devices answer
//!   challenges from an [`eilid_casu::IncrementalMeasurer`]: a chunked
//!   Merkle tree over PMEM kept coherent by the simulated bus's
//!   dirty-granule tracking, so a sweep over a clean fleet re-hashes
//!   nothing and a patched device re-hashes only the patched leaves.
//!   [`FleetBuilder::measurement`] selects the flat SHA-256 scheme for
//!   comparison benches and legacy compatibility.
//! * [`Campaign`] — drives staged OTA rollouts (canary wave → full wave)
//!   through the authenticated-update protocol
//!   ([`eilid_casu::UpdateAuthority`] / [`eilid_casu::UpdateEngine`]),
//!   with automatic halt-and-rollback when a wave's post-update health
//!   check fails beyond a configured threshold, and per-device rollback
//!   of the stray probe failures in waves that pass it. The per-device
//!   protocol under every wave is one sans-IO state machine,
//!   [`Rollout`], shared by the in-process and networked drivers.
//! * violation telemetry — devices that trip the
//!   [`eilid_casu::CasuMonitor`] report their
//!   [`eilid_casu::Violation`] upstream; the fleet [`Ledger`] records the
//!   reset and subsequent recovery.
//!
//! # Threat model
//!
//! The *verifier* (and everything in this crate that runs on it: root
//! key, update authority, golden images) is trusted. The *transport* is
//! attacker-controlled: reports and update requests may be dropped,
//! replayed or mangled, which the MAC/nonce checks in [`eilid_casu`]
//! must catch. *Devices* may be compromised up to the paper's threat
//! model — software adversaries are contained by CASU/EILID, and a
//! physically tampered device is expected to be *flagged* by
//! attestation, not prevented.
//!
//! # Examples
//!
//! ```
//! use eilid_casu::DeviceKey;
//! use eilid_fleet::{FleetBuilder, HealthClass};
//!
//! let root = DeviceKey::new(b"fleet-root-key-0123456789abcdef")?;
//! let (mut fleet, mut verifier) = FleetBuilder::new(root)
//!     .devices(16)
//!     .threads(2)
//!     .build()?;
//!
//! let report = verifier.sweep(&mut fleet);
//! assert_eq!(report.count(HealthClass::Attested), 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Unsafe code is denied crate-wide; the single, documented exception is
// the lifetime-erasure in `pool::WorkerPool::scope`, which re-creates
// `std::thread::scope`'s join guarantee on persistent worker threads.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod device;
pub mod error;
pub mod exec;
pub mod fixtures;
pub mod fleet;
pub mod ops;
pub mod pool;
pub mod report;
pub mod rollout;
pub mod verifier;

pub use campaign::{
    partition_waves, Campaign, CampaignConfig, CampaignOutcome, CampaignReport, CampaignRun,
    CampaignStatus, CohortInfo, LocalExecutor, PausedCampaign, WaveExecutor, WaveReport,
};
pub use device::{DeviceId, SimDevice};
pub use eilid_casu::MeasurementScheme;
pub use error::FleetError;
pub use fleet::{Fleet, FleetBuilder, SliceReport};
pub use ops::{
    merge_agg_sweeps, merge_health, merge_phases, merge_reports, merge_sweeps, AggSweepSummary,
    CampaignPhase, FleetOps, LocalOps, OpsError, OpsHealth, SweepSummary,
};
pub use pool::WorkerPool;
pub use report::{DeviceHealth, FleetReport, HealthClass, Ledger, LedgerEvent};
pub use rollout::{
    PreUpdateSnapshot, ProbeMode, Reply, Request, RollbackOutcome, Rollout, RolloutKeys,
    WaveRollout,
};
pub use verifier::{CohortSnapshot, ServiceSnapshot, Verifier, SHARD_COUNT};
