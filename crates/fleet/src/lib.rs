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
//!   fleet and verifies the reports on scoped threads, at most one per
//!   core ([`exec::parallel_map_mut`], no async runtime). Devices map
//!   to [`SHARD_COUNT`] stable shards by `device_id % SHARD_COUNT`;
//!   each shard job verifies its devices,
//!   folds their evidence into a signed aggregate root, and reports only
//!   its suspects, so a sweep yields one [`SweepSummary`]. Each shard
//!   caches the device keys it has derived, so key derivation happens
//!   once per device ever rather than once per sweep.
//! * the verifier core — one implementation per verifier job, shared by
//!   [`Verifier`] and the `eilid_net` gateway: [`CohortSnapshot`] (the
//!   golden history, its classification rule and its promotion),
//!   [`KeyShard`] (the device-key cache lookup), [`fold_shard`] (a
//!   shard's verdicts into its summary and signed aggregate proof) and
//!   [`AggSweepSummary::verified`] (the operator-side proof check).
//! * incremental measurement — devices answer challenges from an
//!   [`eilid_casu::IncrementalMeasurer`]: a chunked Merkle tree over
//!   PMEM ([`eilid_casu::MeasurementScheme::Merkle`]) kept coherent by
//!   the simulated bus's dirty-granule tracking, so a sweep over a clean
//!   fleet re-hashes nothing and a patched device re-hashes only the
//!   patched leaves.
//! * [`Campaign`] — drives staged OTA rollouts (canary wave → full wave)
//!   through the authenticated-update protocol
//!   ([`eilid_casu::UpdateAuthority`] / [`eilid_casu::UpdateEngine`]),
//!   with automatic halt-and-rollback when a wave's post-update health
//!   check fails beyond a configured threshold, and per-device rollback
//!   of the stray probe failures in waves that pass it. The per-device
//!   protocol under every wave, rollback and gateway sweep is one
//!   sans-IO state machine, [`Rollout`], scheduled by one sans-IO
//!   [`Driver`] that the in-process and networked backends wrap.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod device;
pub mod driver;
pub mod error;
pub mod exec;
pub mod fixtures;
pub mod fleet;
pub mod ops;
pub mod report;
pub mod rollout;
pub mod verifier;

pub use campaign::{
    partition_waves, Campaign, CampaignConfig, CampaignOutcome, CampaignReport, CampaignRun,
    CampaignStatus, CohortInfo, LocalExecutor, PausedCampaign, WaveExecutor, WaveReport,
};
pub use device::{DeviceId, SimDevice};
pub use driver::{busy_backoff, Driver};
pub use eilid_casu::MeasurementScheme;
pub use error::FleetError;
pub use fleet::{Fleet, FleetBuilder, SliceReport};
pub use ops::{
    merge_agg_sweeps, merge_health, merge_phases, merge_reports, merge_sweeps, AggSweepSummary,
    CampaignPhase, FleetOps, LocalOps, OpsError, OpsHealth, SweepSummary,
};
pub use report::{HealthClass, Ledger, LedgerEvent};
pub use rollout::{
    PreUpdateSnapshot, ProbeMode, Reply, Request, RollbackOutcome, Rollout, RolloutKeys,
    SweepChallenges, WaveRollout,
};
pub use verifier::{
    fold_shard, shard_of, CohortSnapshot, KeyShard, ServiceSnapshot, Verifier, SHARD_COUNT,
};
