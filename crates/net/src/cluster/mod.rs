//! Multi-gateway scale-out: placement, fan-out operations and a
//! supervising control plane.
//!
//! One gateway tops out at one process's worth of verification
//! throughput. This module turns N gateway processes into one logical
//! deployment without touching the wire protocol's device or operator
//! planes — scale-out is composed *around* the existing pieces:
//!
//! * [`Placement`] — deterministic shard → gateway assignment
//!   (rendezvous hashing over the fleet's fixed `id % SHARD_COUNT`
//!   shards), shared by agents, operators and supervisors with no
//!   coordination state.
//! * [`ClusterOps`] — a third [`eilid_fleet::FleetOps`] backend: every
//!   operator verb fans out across one [`crate::RemoteOps`] console
//!   per gateway and the partial results merge back into the
//!   single-gateway shapes (`SweepSummary`, `CampaignReport`, …).
//!   Campaigns checkpoint at every wave boundary, so a gateway crash
//!   resumes from console-held [`eilid_fleet::PausedCampaign`] bytes.
//! * [`Supervisor`] — the control plane over gateway *processes*:
//!   launch, health-check (`OpHealth` + reactor counters), restart on
//!   crash, drain (`OpDrain`) for planned maintenance.
//! * [`with_placed_fleet`] — the agent harness: partitions a fleet by
//!   placement, attaches each partition to its gateway, and keeps
//!   re-attaching through gateway restarts.

pub mod ops;
pub mod placement;
pub mod supervisor;

pub use ops::{with_placed_fleet, ClusterOps};
pub use placement::Placement;
pub use supervisor::{GatewayLauncher, Supervisor};
