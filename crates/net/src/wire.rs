//! The EILID attestation wire protocol: versioned, length-prefixed
//! binary frames.
//!
//! # Frame layout
//!
//! Every frame starts with a fixed 10-byte header, all integers
//! little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   = b"EILD"
//! 4       1     version = PROTOCOL_VERSION
//! 5       1     frame type
//! 6       4     payload length (≤ MAX_FRAME_PAYLOAD)
//! 10      n     payload (layout per frame type; casu wire encodings
//!               for Challenge / AttestationReport / DeltaUpdateRequest)
//! ```
//!
//! # What this layer rejects
//!
//! Decoding is total and allocation-bounded: bad magic, an unsupported
//! header version, an unknown frame type and an oversized length claim
//! are all rejected from the 10 header bytes alone, before any payload
//! is buffered; truncated payloads are typed errors; payload bytes
//! beyond the frame's structure are [`WireError::TrailingBytes`]. What
//! this layer deliberately does **not** judge is cryptography: a frame
//! whose MAC was minted under the wrong key — or under the wrong
//! domain-separation tag (an update MAC grafted onto a report, or vice
//! versa) — decodes fine and then dies in the verifier. The codec's
//! contract is "structurally valid bytes in, typed error or frame out,
//! never a panic, never an unbounded allocation".

use std::fmt;

use eilid_casu::agg::AggProof;
use eilid_casu::wire as casu_wire;
use eilid_casu::wire::{put_bytes, CodecError, Reader};
use eilid_casu::{AttestationReport, Challenge, DeltaUpdateRequest, UpdateError};
use eilid_fleet::campaign::decode_cohort;
pub use eilid_fleet::ProbeMode;
use eilid_fleet::{CampaignConfig, CampaignReport, Reply, Request};
use eilid_workloads::WorkloadId;

/// Frame magic, first on the wire.
pub const FRAME_MAGIC: [u8; 4] = *b"EILD";

/// The one protocol version this build speaks.
///
/// History: version 1 was the PR 3 lockstep protocol; version 2 added
/// the device-scoped [`Frame::DeviceError`] (type `0x0D`), which
/// gateways emit in routine situations (backpressure, unknown
/// cohorts). Version 3 added the operator plane (`Op*` frames driving
/// gateway-resident campaigns and sweeps) and the device-plane push
/// frames ([`Frame::Attach`], [`Frame::SnapshotRequest`],
/// [`Frame::ProbeRequest`] and their replies) campaigns execute waves
/// through. Version 4 added the supervision plane: the graceful-drain
/// exchange ([`Frame::OpDrain`] / [`Frame::OpDrained`]) and the reactor
/// counters ([`Frame::OpHealthResult`] grew `live_sessions`) cluster
/// supervisors steer by.
/// Version 5 added the telemetry scrape ([`Frame::OpMetrics`] /
/// [`Frame::OpMetricsResult`]): the gateway hands back its full
/// metrics registry as a compact JSON snapshot, which
/// `ClusterOps::metrics` merges across gateways.
/// Version 6 is the campaign fast path: sparse
/// [`Frame::DeltaUpdateRequest`] pushes (bytes proportional to the
/// dirty granules, MAC still over the assembled post-image), the
/// anti-rollback version counter carried by update requests and echoed
/// in [`Frame::SnapshotReport`], the memoized campaign probe
/// ([`ProbeMode::UpdateAttest`]) and the one-round-trip checkpoint verb
/// ([`Frame::OpCheckpoint`] / [`Frame::OpCheckpointAck`]).
/// Version 7 is collective attestation: the aggregated sweep exchange
/// ([`Frame::OpAggSweep`] / [`Frame::OpAggSweepResult`]) carries one
/// MAC'd aggregate evidence root per gateway shard (plus the
/// participant bitmap and the suspect list) instead of touching every
/// device at the operator, so a clean sweep costs the console at most
/// `SHARD_COUNT` MAC verifications regardless of fleet size.
/// Version 8 retired the full-image update frame `0x07`: a full image
/// is a one-segment [`Frame::DeltaUpdateRequest`] (`0x21`), so one
/// update frame carries every campaign update and rollback.
/// Version 9 retired the per-device sweep frames `0x19`/`0x1A`: every
/// gateway sweep is now [`Frame::OpAggSweep`], whose result carries the
/// same counts and flagged list plus the shard proofs.
/// Version 10 retired the device-initiated attestation frames
/// `0x03`–`0x06` (attest request, challenge, report, verdict): the
/// gateway challenges, through [`Frame::ProbeRequest`], and a device
/// only answers. [`Frame::OpHealthResult`] lost its pool queue depth
/// and submitted-batch count, which described that path's verification
/// batches.
/// Version 11 made pause mean one thing on every backend: the gateway
/// answers a pause with [`Frame::OpPaused`] and unloads the run,
/// keeping no copy. The retained-record resume (`CampaignControl` op
/// byte 1), the paused campaign state (`CampaignStatus` state byte 1)
/// and [`Frame::OpHealthResult`]'s paused-campaign count are gone;
/// [`Frame::OpCheckpoint`] lost its fetch byte and
/// [`Frame::OpCheckpointAck`] its state byte, since the ack always
/// carries the record of a running campaign.
/// Each bump makes an older peer fail *at negotiation* with a typed
/// `UnsupportedVersion` instead of mid-exchange on an unknown frame
/// type.
pub const PROTOCOL_VERSION: u8 = 11;

/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 10;

/// Hard ceiling on a regular frame payload. Large enough for a
/// one-segment update at the casu wire maximum (74 bytes of framing
/// around the payload), small enough that a forged length can never
/// drive a large allocation.
pub const MAX_FRAME_PAYLOAD: usize = casu_wire::MAX_UPDATE_PAYLOAD + 128;

/// Hard ceiling on the payload of the operator-plane carrier frames:
/// [`Frame::OpPaused`]/[`Frame::OpResume`] embed a serialised `EPC3`
/// [`PausedCampaign`](eilid_fleet::PausedCampaign) record (its config
/// section is an [`Frame::OpBegin`] payload; then the 64 KiB patched
/// golden image plus per-device snapshots — with a wire-maximum patch,
/// kilobytes per updated device), [`Frame::OpReport`] carries
/// per-device id lists that outgrow [`MAX_FRAME_PAYLOAD`] on large
/// fleets, [`Frame::OpDrained`] hands back *every* running campaign's
/// record at once, and [`Frame::OpMetricsResult`] carries a
/// whole-registry JSON snapshot. The cap is still enforced from the
/// header (which names the frame type) *before* any payload is
/// buffered, so a forged length drives at most 4 MiB of buffering on
/// exactly these operator-plane types ([`Frame::OpAggSweepResult`]'s
/// suspect list and participant bitmap joined them in version 7) — and
/// senders refuse (with a typed error) the rare record exceeding even
/// this, instead of emitting an unframeable reply.
pub const MAX_OP_PAYLOAD: usize = 4 * 1024 * 1024;

/// [`Frame::CampaignStatus`] `state`: a campaign run is loaded and
/// stepping.
pub const CAMPAIGN_STATE_RUNNING: u8 = 0;
/// [`Frame::CampaignStatus`] `state`: the run finished; the report is
/// available via [`CampaignOp::Report`].
pub const CAMPAIGN_STATE_FINISHED: u8 = 2;
/// [`Frame::CampaignStatus`] `state`: no campaign is loaded for the
/// cohort.
pub const CAMPAIGN_STATE_IDLE: u8 = 3;

/// The payload ceiling for `frame_type`, enforced from the 10 header
/// bytes alone.
fn max_payload_for(frame_type: u8) -> usize {
    match frame_type {
        0x16 | 0x17 | 0x18 | 0x1E | 0x20 | 0x23 | 0x25 => MAX_OP_PAYLOAD,
        _ => MAX_FRAME_PAYLOAD,
    }
}

/// Why a frame failed to encode or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The header names a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// The header names an unknown frame type.
    UnknownFrameType(u8),
    /// The header's length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        claimed: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// One-shot decoding ran out of bytes (streaming decoders treat
    /// this as "wait for more input" instead).
    Truncated {
        /// Bytes needed to make progress.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The payload is longer than the frame type's structure.
    TrailingBytes {
        /// Unconsumed payload bytes.
        extra: usize,
    },
    /// A structured field inside the payload failed to decode.
    BadPayload(CodecError),
    /// An enum-coded field holds an unknown discriminant.
    BadEnum {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(magic) => write!(f, "bad frame magic {magic:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Oversized { claimed, max } => {
                write!(
                    f,
                    "oversized frame: claims {claimed} payload bytes, limit {max}"
                )
            }
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame payload")
            }
            WireError::BadPayload(err) => write!(f, "malformed frame payload: {err}"),
            WireError::BadEnum { field, value } => {
                write!(f, "invalid value {value} for frame field `{field}`")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::BadEnum { field, value } => WireError::BadEnum { field, value },
            err => WireError::BadPayload(err),
        }
    }
}

/// Protocol-level error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No common protocol version.
    UnsupportedVersion,
    /// The gateway's worker queues are full — retry later.
    Busy,
    /// The named cohort is not enrolled with this gateway.
    UnknownCohort,
    /// A frame arrived before version negotiation completed.
    NotNegotiated,
    /// The frame is valid but not legal in the current exchange state.
    UnexpectedFrame,
    /// The frame type is understood but not served on this endpoint.
    Unsupported,
    /// A device-plane push named a device this connection does not
    /// serve.
    UnknownDevice,
    /// A campaign operation was issued with no campaign in the required
    /// state.
    NoCampaign,
    /// A campaign begin/resume collided with one already loaded for the
    /// cohort.
    CampaignActive,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::Busy => 2,
            ErrorCode::UnknownCohort => 3,
            ErrorCode::NotNegotiated => 4,
            ErrorCode::UnexpectedFrame => 5,
            ErrorCode::Unsupported => 6,
            ErrorCode::UnknownDevice => 7,
            ErrorCode::NoCampaign => 8,
            ErrorCode::CampaignActive => 9,
        }
    }

    fn from_u8(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::Busy,
            3 => ErrorCode::UnknownCohort,
            4 => ErrorCode::NotNegotiated,
            5 => ErrorCode::UnexpectedFrame,
            6 => ErrorCode::Unsupported,
            7 => ErrorCode::UnknownDevice,
            8 => ErrorCode::NoCampaign,
            9 => ErrorCode::CampaignActive,
            value => {
                return Err(WireError::BadEnum {
                    field: "error code",
                    value,
                })
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::Busy => "gateway busy",
            ErrorCode::UnknownCohort => "unknown cohort",
            ErrorCode::NotNegotiated => "version not negotiated",
            ErrorCode::UnexpectedFrame => "unexpected frame",
            ErrorCode::Unsupported => "unsupported operation",
            ErrorCode::UnknownDevice => "unknown device",
            ErrorCode::NoCampaign => "no campaign in the required state",
            ErrorCode::CampaignActive => "campaign already active",
        };
        write!(f, "{name}")
    }
}

/// Wire form of a device health classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireHealth {
    /// Verified against the current golden measurement.
    Attested,
    /// Verified against a previous ("stale but authentic") measurement.
    Stale,
    /// Verified cryptographically but matching no known firmware.
    Tampered,
    /// Failed cryptographic verification.
    Unverified,
}

impl WireHealth {
    fn to_u8(self) -> u8 {
        match self {
            WireHealth::Attested => 0,
            WireHealth::Stale => 1,
            WireHealth::Tampered => 2,
            WireHealth::Unverified => 3,
        }
    }

    fn from_u8(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            0 => WireHealth::Attested,
            1 => WireHealth::Stale,
            2 => WireHealth::Tampered,
            3 => WireHealth::Unverified,
            value => {
                return Err(WireError::BadEnum {
                    field: "health class",
                    value,
                })
            }
        })
    }
}

/// Campaign control operations (operator plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignOp {
    /// Pause the named cohort's campaign between waves; the gateway
    /// answers with [`Frame::OpPaused`] carrying the serialised record
    /// and unloads the run (resuming is [`Frame::OpResume`]).
    Pause,
    /// Query the campaign's state and wave cursor.
    Status,
    /// Fetch the finished campaign's [`Frame::OpReport`].
    Report,
}

impl CampaignOp {
    fn to_u8(self) -> u8 {
        match self {
            CampaignOp::Pause => 0,
            CampaignOp::Status => 2,
            CampaignOp::Report => 3,
        }
    }

    fn from_u8(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            0 => CampaignOp::Pause,
            2 => CampaignOp::Status,
            3 => CampaignOp::Report,
            value => {
                return Err(WireError::BadEnum {
                    field: "campaign op",
                    value,
                })
            }
        })
    }
}

/// One protocol frame.
///
/// `device` fields carry the fleet-wide device id, letting many devices
/// multiplex one connection (a device agent fronting a building's worth
/// of sensors — the shape the 1000-device loopback sweep runs).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → gateway: version negotiation offer.
    Hello {
        /// Lowest protocol version the client speaks.
        min_version: u8,
        /// Highest protocol version the client speaks.
        max_version: u8,
    },
    /// Gateway → client: negotiation accept.
    HelloAck {
        /// The agreed version.
        version: u8,
    },
    /// Device → gateway: update applied (0) or the device-side
    /// rejection code.
    UpdateResult {
        /// The updated device.
        device: u64,
        /// 0 on success; otherwise the device's rejection code.
        status: u8,
    },
    /// Operator plane: campaign control.
    CampaignControl {
        /// Target cohort.
        cohort: WorkloadId,
        /// Requested operation.
        op: CampaignOp,
    },
    /// Operator plane: campaign state echo. Emitted by the gateway on
    /// every wave boundary (the reply to [`Frame::OpStep`]), on
    /// begin/resume, and on an explicit [`CampaignOp::Status`] query.
    CampaignStatus {
        /// Target cohort.
        cohort: WorkloadId,
        /// [`CAMPAIGN_STATE_RUNNING`] / [`CAMPAIGN_STATE_FINISHED`] /
        /// [`CAMPAIGN_STATE_IDLE`].
        state: u8,
        /// Persisted wave cursor.
        wave_cursor: u32,
    },
    /// Either direction: a protocol error.
    Error {
        /// What went wrong.
        code: ErrorCode,
    },
    /// Either direction: orderly goodbye.
    Bye,
    /// Either direction: a device-scoped error. Unlike the
    /// connection-scoped [`Frame::Error`], this carries the device id,
    /// so a peer multiplexing many devices on one connection can
    /// attribute it to exactly one of them. The gateway refuses an
    /// attach for an unprovisioned cohort with `UnknownCohort`; an agent
    /// sheds a push (snapshot / update / probe) it cannot serve right
    /// now with `Busy`, and the gateway's engine retries with backoff.
    DeviceError {
        /// The device whose exchange failed.
        device: u64,
        /// What went wrong.
        code: ErrorCode,
    },
    /// Device agent → gateway: register this connection as serving
    /// `device`, so gateway-resident campaigns and sweeps can push
    /// updates and probes to it. Acknowledged per device with
    /// [`Frame::AttachAck`].
    Attach {
        /// The device this connection serves.
        device: u64,
        /// Its firmware cohort.
        cohort: WorkloadId,
    },
    /// Gateway → device agent: the attach registration is live.
    AttachAck {
        /// The registered device.
        device: u64,
    },
    /// Gateway → device agent: report the device's pre-update state —
    /// its bytes in `[start, start+len)`, its current full-PMEM
    /// measurement and its update engine's last accepted nonce (what
    /// the in-process campaign reads directly; the wire backend asks
    /// the device to report it).
    SnapshotRequest {
        /// The device to snapshot.
        device: u64,
        /// First address of the range to capture.
        start: u16,
        /// Bytes to capture (0 = nonce/measurement query only).
        len: u16,
    },
    /// Device agent → gateway: the snapshot reply.
    SnapshotReport {
        /// The snapshotted device.
        device: u64,
        /// The device engine's last accepted update nonce.
        last_nonce: u64,
        /// The device engine's anti-rollback version counter (version
        /// 6). Rollback authorities re-issue bytes at this version so
        /// the device's monotonic counter accepts them.
        version: u64,
        /// The device's current full-PMEM measurement.
        measurement: [u8; 32],
        /// The requested byte range (empty for a nonce query).
        data: Vec<u8>,
    },
    /// Gateway → device agent: attest (and, per [`ProbeMode`], reboot /
    /// smoke-run) the device against the embedded challenge.
    ProbeRequest {
        /// The device to probe.
        device: u64,
        /// What to do around the attestation.
        mode: ProbeMode,
        /// Cycle budget of the smoke run ([`ProbeMode::UpdateProbe`]
        /// only).
        smoke_cycles: u64,
        /// The attestation challenge to answer.
        challenge: Challenge,
    },
    /// Device agent → gateway: the probe reply.
    ProbeResult {
        /// The probed device.
        device: u64,
        /// 1 when the smoke run (if any) ended healthy — completed or
        /// still running; 0 on a violation reset or fault.
        healthy: u8,
        /// The authenticated attestation report.
        report: AttestationReport,
    },
    /// Operator → gateway: load a campaign into the cohort's campaign
    /// slot (validated gateway-side; nothing rolls out until
    /// [`Frame::OpStep`]).
    OpBegin {
        /// The full campaign configuration.
        config: CampaignConfig,
    },
    /// Operator → gateway: roll out exactly one wave of the cohort's
    /// campaign. Answered with a [`Frame::CampaignStatus`] on the wave
    /// boundary.
    OpStep {
        /// The campaign's cohort.
        cohort: WorkloadId,
    },
    /// Operator → gateway: restore a campaign from serialised
    /// [`PausedCampaign`](eilid_fleet::PausedCampaign) bytes — the one
    /// resume path, on the same gateway or a replacement. Refused with
    /// `Unsupported` when the record does not decode or its config
    /// fails `Campaign::new`'s rules, and with `CampaignActive` only
    /// while an unfinished run is loaded.
    OpResume {
        /// The `EPC3` paused-campaign record.
        paused: Vec<u8>,
    },
    /// Gateway → operator: the paused campaign, serialised for the
    /// operator to persist. The gateway has unloaded the run and keeps
    /// no copy.
    OpPaused {
        /// The paused campaign's cohort.
        cohort: WorkloadId,
        /// The `EPC3` paused-campaign record.
        paused: Vec<u8>,
    },
    /// Gateway → operator: the finished campaign's full report.
    OpReport {
        /// The campaign's cohort.
        cohort: WorkloadId,
        /// The report, wave for wave.
        report: CampaignReport,
    },
    /// Operator → gateway: health/ledger query.
    OpHealth,
    /// Gateway → operator: the health summary.
    OpHealthResult {
        /// Attached device-plane registrations.
        attached: u32,
        /// Campaign slots with a run loaded (stepping or finished).
        active_campaigns: u32,
        /// Events in the gateway's campaign ledger.
        ledger_events: u32,
        /// Live reactor connections (accepted minus closed).
        live_sessions: u32,
    },
    /// Operator/supervisor → gateway: drain for planned maintenance —
    /// stop accepting connections, pause every running campaign, and
    /// hand the records back.
    OpDrain,
    /// Gateway → operator: the drain is in effect; the record of every
    /// campaign it paused, so the supervisor can re-seed a replacement
    /// gateway via [`Frame::OpResume`]. A run whose record would not
    /// fit in the frame stays loaded instead.
    OpDrained {
        /// `(cohort, EPC3 paused-campaign record)` pairs, one per
        /// campaign running at drain time.
        paused: Vec<(WorkloadId, Vec<u8>)>,
    },
    /// Operator → gateway (version 5): scrape the gateway's telemetry
    /// registry.
    OpMetrics,
    /// Gateway → operator (version 5): the full metrics registry as a
    /// compact JSON snapshot (`eilid_obs::RegistrySnapshot::to_json`),
    /// bounded by [`MAX_OP_PAYLOAD`]. Kept as opaque bytes at the wire
    /// layer — the codec stays structural; snapshot semantics live in
    /// `eilid_obs`.
    OpMetricsResult {
        /// UTF-8 JSON snapshot bytes.
        snapshot: Vec<u8>,
    },
    /// Gateway → device (version 6): an authenticated update as
    /// segments over the target range, MACed over the *assembled*
    /// post-image. A sparse delta carries only the granules that differ
    /// from the cohort golden; a device whose base bytes diverge from
    /// the encoder's fails the MAC, and the sender resends the full
    /// range as one segment under the same nonce. Since version 8 it is
    /// the only update frame: a full image is one full-range segment.
    DeltaUpdateRequest {
        /// The target device.
        device: u64,
        /// The MACed sparse update request.
        request: DeltaUpdateRequest,
    },
    /// Operator → gateway (version 6): checkpoint the cohort's
    /// running campaign — one round trip, no pause: the run keeps
    /// stepping and the ack carries the serialised record it would
    /// pause into, for consoles that must survive gateway *process*
    /// death.
    OpCheckpoint {
        /// The campaign's cohort.
        cohort: WorkloadId,
    },
    /// Gateway → operator (version 6): the running campaign's record.
    OpCheckpointAck {
        /// The campaign's cohort.
        cohort: WorkloadId,
        /// The serialised `EPC3` record.
        paused: Vec<u8>,
    },
    /// Operator → gateway (version 7): run a gateway-driven
    /// *aggregated* attestation sweep over every attached device — the
    /// gateway's one sweep verb since version 9. The result folds the
    /// evidence into one MAC'd aggregate root per shard instead of
    /// shipping per-device verdicts.
    OpAggSweep,
    /// Gateway → operator (version 7): the aggregated sweep result.
    ///
    /// A clean sweep is verified operator-side by checking the at most
    /// `SHARD_COUNT` proof MACs — O(shards), not O(devices). Suspects
    /// (every non-attested device, with its class) ride alongside so
    /// the operator descends to per-device verdicts only where the
    /// aggregate says it must.
    OpAggSweepResult {
        /// The sweep epoch bound into every proof MAC (the gateway's
        /// reserved challenge-nonce base for this sweep).
        epoch: u64,
        /// Devices swept (equals the participant-bitmap popcount when
        /// the bitmap is present).
        devices: u32,
        /// Per-class counts: `[attested, stale, tampered, unverified]`.
        counts: [u32; 4],
        /// First device id covered by `bitmap` (bit `i` set ⇔ device
        /// `bitmap_base + i` participated).
        bitmap_base: u64,
        /// Participant bitmap; empty when the id span is too sparse to
        /// enumerate compactly (participation is then implied by
        /// `devices` alone).
        bitmap: Vec<u8>,
        /// One aggregate proof per non-empty shard, ascending shard
        /// order. Every proof's epoch equals the frame's (the wire
        /// carries it once).
        proofs: Vec<AggProof>,
        /// Non-attested devices with their health class, in id order.
        suspects: Vec<(u64, WireHealth)>,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::HelloAck { .. } => 0x02,
            Frame::UpdateResult { .. } => 0x08,
            Frame::CampaignControl { .. } => 0x09,
            Frame::CampaignStatus { .. } => 0x0A,
            Frame::Error { .. } => 0x0B,
            Frame::Bye => 0x0C,
            Frame::DeviceError { .. } => 0x0D,
            Frame::Attach { .. } => 0x0E,
            Frame::AttachAck { .. } => 0x0F,
            Frame::SnapshotRequest { .. } => 0x10,
            Frame::SnapshotReport { .. } => 0x11,
            Frame::ProbeRequest { .. } => 0x12,
            Frame::ProbeResult { .. } => 0x13,
            Frame::OpBegin { .. } => 0x14,
            Frame::OpStep { .. } => 0x15,
            Frame::OpResume { .. } => 0x16,
            Frame::OpPaused { .. } => 0x17,
            Frame::OpReport { .. } => 0x18,
            Frame::OpHealth => 0x1B,
            Frame::OpHealthResult { .. } => 0x1C,
            Frame::OpDrain => 0x1D,
            Frame::OpDrained { .. } => 0x1E,
            Frame::OpMetrics => 0x1F,
            Frame::OpMetricsResult { .. } => 0x20,
            Frame::DeltaUpdateRequest { .. } => 0x21,
            Frame::OpCheckpoint { .. } => 0x22,
            Frame::OpCheckpointAck { .. } => 0x23,
            Frame::OpAggSweep => 0x24,
            Frame::OpAggSweepResult { .. } => 0x25,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                min_version,
                max_version,
            } => {
                out.push(*min_version);
                out.push(*max_version);
            }
            Frame::HelloAck { version } => out.push(*version),
            Frame::UpdateResult { device, status } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.push(*status);
            }
            Frame::CampaignControl { cohort, op } => {
                out.push(cohort.index());
                out.push(op.to_u8());
            }
            Frame::CampaignStatus {
                cohort,
                state,
                wave_cursor,
            } => {
                out.push(cohort.index());
                out.push(*state);
                out.extend_from_slice(&wave_cursor.to_le_bytes());
            }
            Frame::Error { code } => out.push(code.to_u8()),
            Frame::Bye => {}
            Frame::DeviceError { device, code } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.push(code.to_u8());
            }
            Frame::Attach { device, cohort } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.push(cohort.index());
            }
            Frame::AttachAck { device } => out.extend_from_slice(&device.to_le_bytes()),
            Frame::SnapshotRequest { device, start, len } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Frame::SnapshotReport {
                device,
                last_nonce,
                version,
                measurement,
                data,
            } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.extend_from_slice(&last_nonce.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(measurement);
                put_bytes(out, data);
            }
            Frame::ProbeRequest {
                device,
                mode,
                smoke_cycles,
                challenge,
            } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.push(mode.to_u8());
                out.extend_from_slice(&smoke_cycles.to_le_bytes());
                casu_wire::encode_challenge(challenge, out);
            }
            Frame::ProbeResult {
                device,
                healthy,
                report,
            } => {
                out.extend_from_slice(&device.to_le_bytes());
                out.push(*healthy);
                casu_wire::encode_report(report, out);
            }
            Frame::OpBegin { config } => config.encode(out),
            Frame::OpStep { cohort } => out.push(cohort.index()),
            Frame::OpResume { paused } => put_bytes(out, paused),
            Frame::OpPaused { cohort, paused } => {
                out.push(cohort.index());
                put_bytes(out, paused);
            }
            Frame::OpReport { cohort, report } => {
                out.push(cohort.index());
                report.encode(out);
            }
            Frame::OpHealth => {}
            Frame::OpHealthResult {
                attached,
                active_campaigns,
                ledger_events,
                live_sessions,
            } => {
                out.extend_from_slice(&attached.to_le_bytes());
                out.extend_from_slice(&active_campaigns.to_le_bytes());
                out.extend_from_slice(&ledger_events.to_le_bytes());
                out.extend_from_slice(&live_sessions.to_le_bytes());
            }
            Frame::OpDrain => {}
            Frame::OpDrained { paused } => {
                out.extend_from_slice(&(paused.len() as u32).to_le_bytes());
                for (cohort, record) in paused {
                    out.push(cohort.index());
                    put_bytes(out, record);
                }
            }
            Frame::OpMetrics => {}
            Frame::OpMetricsResult { snapshot } => put_bytes(out, snapshot),
            Frame::DeltaUpdateRequest { device, request } => {
                out.extend_from_slice(&device.to_le_bytes());
                casu_wire::encode_delta_update_request(request, out);
            }
            Frame::OpCheckpoint { cohort } => out.push(cohort.index()),
            Frame::OpCheckpointAck { cohort, paused } => {
                out.push(cohort.index());
                put_bytes(out, paused);
            }
            Frame::OpAggSweep => {}
            Frame::OpAggSweepResult {
                epoch,
                devices,
                counts,
                bitmap_base,
                bitmap,
                proofs,
                suspects,
            } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&devices.to_le_bytes());
                for count in counts {
                    out.extend_from_slice(&count.to_le_bytes());
                }
                out.extend_from_slice(&bitmap_base.to_le_bytes());
                put_bytes(out, bitmap);
                // The epoch is carried once at frame level; every
                // proof's MAC binds it (the decoder re-attaches it).
                out.extend_from_slice(&(proofs.len() as u32).to_le_bytes());
                for proof in proofs {
                    debug_assert_eq!(proof.epoch, *epoch);
                    out.extend_from_slice(&proof.shard.to_le_bytes());
                    out.extend_from_slice(&proof.count.to_le_bytes());
                    out.extend_from_slice(&proof.root);
                    out.extend_from_slice(&proof.mac);
                }
                out.extend_from_slice(&(suspects.len() as u32).to_le_bytes());
                for (device, class) in suspects {
                    out.extend_from_slice(&device.to_le_bytes());
                    out.push(class.to_u8());
                }
            }
        }
    }

    fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut reader = Reader::new(payload);
        let frame = match type_byte {
            0x01 => Frame::Hello {
                min_version: reader.u8()?,
                max_version: reader.u8()?,
            },
            0x02 => Frame::HelloAck {
                version: reader.u8()?,
            },
            0x08 => Frame::UpdateResult {
                device: reader.u64()?,
                status: reader.u8()?,
            },
            0x09 => Frame::CampaignControl {
                cohort: decode_cohort(&mut reader)?,
                op: CampaignOp::from_u8(reader.u8()?)?,
            },
            0x0A => Frame::CampaignStatus {
                cohort: decode_cohort(&mut reader)?,
                state: reader.u8()?,
                wave_cursor: reader.u32()?,
            },
            0x0B => Frame::Error {
                code: ErrorCode::from_u8(reader.u8()?)?,
            },
            0x0C => Frame::Bye,
            0x0D => Frame::DeviceError {
                device: reader.u64()?,
                code: ErrorCode::from_u8(reader.u8()?)?,
            },
            0x0E => Frame::Attach {
                device: reader.u64()?,
                cohort: decode_cohort(&mut reader)?,
            },
            0x0F => Frame::AttachAck {
                device: reader.u64()?,
            },
            0x10 => Frame::SnapshotRequest {
                device: reader.u64()?,
                start: reader.u16()?,
                len: reader.u16()?,
            },
            0x11 => {
                let device = reader.u64()?;
                let last_nonce = reader.u64()?;
                let version = reader.u64()?;
                let measurement = reader.array()?;
                let data = reader.bytes(casu_wire::MAX_UPDATE_PAYLOAD)?.to_vec();
                Frame::SnapshotReport {
                    device,
                    last_nonce,
                    version,
                    measurement,
                    data,
                }
            }
            0x12 => Frame::ProbeRequest {
                device: reader.u64()?,
                mode: {
                    let value = reader.u8()?;
                    ProbeMode::from_u8(value).ok_or(WireError::BadEnum {
                        field: "probe mode",
                        value,
                    })?
                },
                smoke_cycles: reader.u64()?,
                challenge: casu_wire::decode_challenge(&mut reader)?,
            },
            0x13 => Frame::ProbeResult {
                device: reader.u64()?,
                healthy: reader.u8()?,
                report: casu_wire::decode_report(&mut reader)?,
            },
            0x14 => Frame::OpBegin {
                config: CampaignConfig::decode(&mut reader)?,
            },
            0x15 => Frame::OpStep {
                cohort: decode_cohort(&mut reader)?,
            },
            0x16 => Frame::OpResume {
                paused: reader.bytes(MAX_OP_PAYLOAD)?.to_vec(),
            },
            0x17 => {
                let cohort = decode_cohort(&mut reader)?;
                let paused = reader.bytes(MAX_OP_PAYLOAD)?.to_vec();
                Frame::OpPaused { cohort, paused }
            }
            0x18 => {
                let cohort = decode_cohort(&mut reader)?;
                let report = CampaignReport::decode(&mut reader)?;
                Frame::OpReport { cohort, report }
            }
            0x1B => Frame::OpHealth,
            0x1C => Frame::OpHealthResult {
                attached: reader.u32()?,
                active_campaigns: reader.u32()?,
                ledger_events: reader.u32()?,
                live_sessions: reader.u32()?,
            },
            0x1D => Frame::OpDrain,
            0x1E => {
                // Each record costs at least cohort(1) + len(4) bytes.
                let count = reader.count(5)?;
                let mut paused = Vec::with_capacity(count);
                for _ in 0..count {
                    let cohort = decode_cohort(&mut reader)?;
                    let record = reader.bytes(MAX_OP_PAYLOAD)?.to_vec();
                    paused.push((cohort, record));
                }
                Frame::OpDrained { paused }
            }
            0x1F => Frame::OpMetrics,
            0x20 => Frame::OpMetricsResult {
                snapshot: reader.bytes(MAX_OP_PAYLOAD)?.to_vec(),
            },
            0x21 => Frame::DeltaUpdateRequest {
                device: reader.u64()?,
                request: casu_wire::decode_delta_update_request(&mut reader)?,
            },
            0x22 => Frame::OpCheckpoint {
                cohort: decode_cohort(&mut reader)?,
            },
            0x23 => {
                let cohort = decode_cohort(&mut reader)?;
                let paused = reader.bytes(MAX_OP_PAYLOAD)?.to_vec();
                Frame::OpCheckpointAck { cohort, paused }
            }
            0x24 => Frame::OpAggSweep,
            0x25 => {
                let epoch = reader.u64()?;
                let devices = reader.u32()?;
                let mut counts = [0u32; 4];
                for count in &mut counts {
                    *count = reader.u32()?;
                }
                let bitmap_base = reader.u64()?;
                let bitmap = reader.bytes(MAX_OP_PAYLOAD)?.to_vec();
                // Each proof costs shard(2) + count(4) + root(32) +
                // mac(32) bytes on the wire.
                let proof_count = reader.count(70)?;
                let mut proofs = Vec::with_capacity(proof_count);
                for _ in 0..proof_count {
                    let shard = reader.u16()?;
                    let count = reader.u32()?;
                    let mut root = [0u8; 32];
                    root.copy_from_slice(reader.take(32)?);
                    let mut mac = [0u8; 32];
                    mac.copy_from_slice(reader.take(32)?);
                    proofs.push(AggProof {
                        shard,
                        epoch,
                        count,
                        root,
                        mac,
                    });
                }
                let suspect_count = reader.count(9)?;
                let mut suspects = Vec::with_capacity(suspect_count);
                for _ in 0..suspect_count {
                    suspects.push((reader.u64()?, WireHealth::from_u8(reader.u8()?)?));
                }
                Frame::OpAggSweepResult {
                    epoch,
                    devices,
                    counts,
                    bitmap_base,
                    bitmap,
                    proofs,
                    suspects,
                }
            }
            other => return Err(WireError::UnknownFrameType(other)),
        };
        if !reader.is_empty() {
            return Err(WireError::TrailingBytes {
                extra: reader.remaining(),
            });
        }
        Ok(frame)
    }

    /// Encodes the frame (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 16);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame (header + payload) to `out` without
    /// intermediate allocations — the hot-path encoder: the gateway
    /// encodes straight into connection outboxes and transports into
    /// reused write buffers, so steady-state frame encoding allocates
    /// nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.type_byte());
        // Length placeholder, patched once the payload is in place.
        out.extend_from_slice(&[0u8; 4]);
        let payload_at = out.len();
        self.encode_payload(out);
        let payload_len = out.len() - payload_at;
        debug_assert!(payload_len <= max_payload_for(self.type_byte()));
        out[header_at + 6..header_at + 10].copy_from_slice(&(payload_len as u32).to_le_bytes());
    }

    /// One-shot decode of exactly one frame.
    ///
    /// # Errors
    ///
    /// Every malformation is a typed [`WireError`]; incomplete input is
    /// [`WireError::Truncated`] (streaming consumers should use
    /// [`FrameDecoder`], which waits instead).
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut decoder = FrameDecoder::new();
        decoder.extend(bytes);
        match decoder.next_frame()? {
            Some(frame) => {
                if decoder.buffered() > 0 {
                    return Err(WireError::TrailingBytes {
                        extra: decoder.buffered(),
                    });
                }
                Ok(frame)
            }
            None => Err(WireError::Truncated {
                needed: decoder.needed().max(1),
                have: bytes.len(),
            }),
        }
    }
}

impl From<Request> for Frame {
    fn from(request: Request) -> Self {
        match request {
            Request::Snapshot { device, start, len } => {
                Frame::SnapshotRequest { device, start, len }
            }
            Request::Update { device, request } => Frame::DeltaUpdateRequest { device, request },
            Request::Probe {
                device,
                mode,
                smoke_cycles,
                challenge,
            } => Frame::ProbeRequest {
                device,
                mode,
                smoke_cycles,
                challenge,
            },
        }
    }
}

impl Frame {
    /// The device-plane request this frame pushes, if it is one.
    pub(crate) fn into_request(self) -> Option<Request> {
        Some(match self {
            Frame::SnapshotRequest { device, start, len } => {
                Request::Snapshot { device, start, len }
            }
            Frame::DeltaUpdateRequest { device, request } => Request::Update { device, request },
            Frame::ProbeRequest {
                device,
                mode,
                smoke_cycles,
                challenge,
            } => Request::Probe {
                device,
                mode,
                smoke_cycles,
                challenge,
            },
            _ => return None,
        })
    }

    /// The frame answering a request on `device` with `reply`.
    pub(crate) fn from_reply(device: u64, reply: Reply) -> Frame {
        match reply {
            Reply::Snapshot {
                last_nonce,
                version,
                measurement,
                data,
            } => Frame::SnapshotReport {
                device,
                last_nonce,
                version,
                measurement,
                data,
            },
            Reply::Update(result) => Frame::UpdateResult {
                device,
                status: result.map_or_else(|error| update_error_code(&error), |()| 0),
            },
            Reply::Probe { healthy, report } => Frame::ProbeResult {
                device,
                healthy: healthy.map_or(2, u8::from),
                report,
            },
        }
    }

    /// The device and reply a device-plane reply frame carries, if it
    /// is one. Rejection codes map back to a representative
    /// [`UpdateError`] (device-local field values do not cross the
    /// wire).
    pub(crate) fn into_reply(self) -> Option<(u64, Reply)> {
        Some(match self {
            Frame::SnapshotReport {
                device,
                last_nonce,
                version,
                measurement,
                data,
            } => (
                device,
                Reply::Snapshot {
                    last_nonce,
                    version,
                    measurement,
                    data,
                },
            ),
            Frame::UpdateResult { device, status } => (
                device,
                Reply::Update(match status {
                    0 => Ok(()),
                    code => Err(update_error_from_code(code)),
                }),
            ),
            Frame::ProbeResult {
                device,
                healthy,
                report,
            } => (
                device,
                Reply::Probe {
                    healthy: (healthy != 2).then_some(healthy == 1),
                    report,
                },
            ),
            _ => return None,
        })
    }
}

/// Stable wire codes for device-side update rejections.
pub(crate) fn update_error_code(error: &UpdateError) -> u8 {
    match error {
        UpdateError::BadMac => 1,
        UpdateError::StaleNonce { .. } => 2,
        UpdateError::TargetOutsidePmem { .. } => 3,
        UpdateError::EmptyPayload => 4,
        UpdateError::RollbackVersion { .. } => 5,
        UpdateError::MalformedDelta => 6,
    }
}

/// A representative [`UpdateError`] for a rejection code.
fn update_error_from_code(code: u8) -> UpdateError {
    match code {
        2 => UpdateError::StaleNonce {
            presented: 0,
            last_accepted: 0,
        },
        3 => UpdateError::TargetOutsidePmem { addr: 0 },
        4 => UpdateError::EmptyPayload,
        5 => UpdateError::RollbackVersion {
            presented: 0,
            current: 0,
        },
        6 => UpdateError::MalformedDelta,
        _ => UpdateError::BadMac,
    }
}

/// A byte FIFO that is read from an offset: consuming bytes advances
/// the offset instead of moving what follows to the front, so taking
/// many small items off one large burst costs no copying per item.
///
/// Appending clears the buffer once everything is consumed, and
/// compacts only when the consumed prefix is at least half the buffer,
/// so each byte is moved at most once more on average, however the
/// appends and reads interleave.
#[derive(Debug, Default)]
pub(crate) struct ByteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    read: usize,
}

impl ByteQueue {
    /// The unconsumed bytes.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.buf[self.read..]
    }

    /// Number of unconsumed bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// `true` when every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the first `n` pending bytes consumed.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.read += n;
    }

    /// The buffer to append to, reclaimed first: cleared when everything
    /// was consumed, compacted when the consumed prefix is at least
    /// half of it.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        if self.read > 0 && 2 * self.read >= self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        &mut self.buf
    }
}

/// Incremental frame decoder over a byte stream.
///
/// Feed arbitrary chunks with [`FrameDecoder::extend`] and drain
/// complete frames with [`FrameDecoder::next_frame`]. Header fields are
/// validated as soon as the 10 header bytes arrive — bad magic, a bad
/// version, an unknown type or an oversized length claim all fail
/// *before* any payload is buffered, so a hostile peer cannot make the
/// decoder hold more than [`MAX_FRAME_PAYLOAD`] bytes per frame.
///
/// Decoded frames are read from an offset into the buffered bytes, so
/// decoding a burst of frames copies none of the bytes behind them.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: ByteQueue,
    /// Bytes needed before another decode attempt can make progress
    /// (diagnostic; 0 when unknown).
    needed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.tail().extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Bytes still needed to complete the frame under construction
    /// (diagnostic only).
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// Attempts to decode the next complete frame. `Ok(None)` means
    /// "need more input".
    ///
    /// # Errors
    ///
    /// A [`WireError`] poisons the stream: the caller must drop the
    /// connection (framing can no longer be trusted after a malformed
    /// header).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let buf = self.buf.pending();
        if buf.len() < FRAME_HEADER_LEN {
            self.needed = FRAME_HEADER_LEN - buf.len();
            return Ok(None);
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[0..4]);
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = buf[4];
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let type_byte = buf[5];
        let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
        // The ceiling is per frame type (the two paused-campaign
        // carriers get a larger one) and still enforced before any
        // payload is buffered.
        let max = max_payload_for(type_byte);
        if len > max {
            return Err(WireError::Oversized { claimed: len, max });
        }
        let total = FRAME_HEADER_LEN + len;
        if buf.len() < total {
            self.needed = total - buf.len();
            return Ok(None);
        }
        let frame = Frame::decode_payload(type_byte, &buf[FRAME_HEADER_LEN..total])?;
        self.buf.consume(total);
        self.needed = 0;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_ten_bytes_and_tagged() {
        let bytes = Frame::Bye.encode();
        assert_eq!(bytes.len(), FRAME_HEADER_LEN);
        assert_eq!(&bytes[0..4], b"EILD");
        assert_eq!(bytes[4], PROTOCOL_VERSION);
    }

    #[test]
    fn streaming_decoder_handles_byte_at_a_time_input() {
        let frames = [
            Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            },
            Frame::Attach {
                device: 7,
                cohort: WorkloadId::LightSensor,
            },
            Frame::Bye,
        ];
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in stream {
            decoder.extend(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded.as_slice(), frames.as_slice());
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn an_extend_after_everything_was_consumed_resets_the_buffer() {
        let bytes = Frame::Bye.encode();
        let mut decoder = FrameDecoder::new();
        for _ in 0..3 {
            decoder.extend(&bytes);
            decoder.extend(&bytes);
        }
        while decoder.next_frame().unwrap().is_some() {}
        assert_eq!(decoder.buffered(), 0);
        assert_eq!(decoder.buf.read, 6 * bytes.len());
        decoder.extend(&bytes[..4]);
        assert_eq!(decoder.buf.read, 0);
        assert_eq!(decoder.buf.buf, &bytes[..4]);
        assert_eq!(decoder.buffered(), 4);
    }

    #[test]
    fn a_partial_frame_survives_compaction() {
        let attach = Frame::Attach {
            device: 0x0102_0304,
            cohort: WorkloadId::TempSensor,
        };
        let (bye, tail) = (Frame::Bye.encode(), attach.encode());
        let mut decoder = FrameDecoder::new();
        let mut stream = bye.repeat(4);
        stream.extend_from_slice(&tail[..7]);
        decoder.extend(&stream);
        for _ in 0..4 {
            assert_eq!(decoder.next_frame(), Ok(Some(Frame::Bye)));
        }
        assert_eq!(decoder.next_frame(), Ok(None));
        // Four consumed frames are more than half the buffer: the next
        // extend moves the seven pending bytes to the front.
        assert_eq!(decoder.buf.read, 4 * bye.len());
        decoder.extend(&tail[7..]);
        assert_eq!(decoder.buf.read, 0);
        assert_eq!(decoder.buf.buf, tail);
        assert_eq!(decoder.next_frame(), Ok(Some(attach)));
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn a_consumed_prefix_under_half_the_buffer_stays_in_place() {
        let bye = Frame::Bye.encode();
        let mut decoder = FrameDecoder::new();
        decoder.extend(&bye.repeat(3));
        assert_eq!(decoder.next_frame(), Ok(Some(Frame::Bye)));
        decoder.extend(&bye[..1]);
        assert_eq!(decoder.buf.read, bye.len());
        assert_eq!(decoder.buffered(), 2 * bye.len() + 1);
    }

    #[test]
    fn oversized_claim_is_rejected_from_the_header_alone() {
        let mut bytes = Frame::Bye.encode();
        bytes[6..10].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.extend(&bytes);
        assert_eq!(
            decoder.next_frame(),
            Err(WireError::Oversized {
                claimed: u32::MAX as usize,
                max: MAX_FRAME_PAYLOAD,
            })
        );
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let mut bytes = Frame::Bye.encode();
        bytes[4] = PROTOCOL_VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::UnsupportedVersion(PROTOCOL_VERSION + 1))
        );
        let mut bytes = Frame::Bye.encode();
        bytes[0] = b'X';
        assert!(matches!(Frame::decode(&bytes), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn the_retired_resume_op_byte_is_rejected() {
        let mut bytes = Frame::CampaignControl {
            cohort: WorkloadId::LightSensor,
            op: CampaignOp::Status,
        }
        .encode();
        bytes[FRAME_HEADER_LEN + 1] = 1;
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::BadEnum {
                field: "campaign op",
                value: 1,
            })
        );
    }

    #[test]
    fn agg_sweep_frames_round_trip() {
        let frame = Frame::OpAggSweep;
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));

        let epoch = 0x1122_3344_5566_7788;
        let frame = Frame::OpAggSweepResult {
            epoch,
            devices: 1000,
            counts: [997, 1, 1, 1],
            bitmap_base: 0,
            bitmap: vec![0xFF, 0x7F, 0x01],
            proofs: vec![
                AggProof {
                    shard: 0,
                    epoch,
                    count: 63,
                    root: [0xAB; 32],
                    mac: [0xCD; 32],
                },
                AggProof {
                    shard: 15,
                    epoch,
                    count: 62,
                    root: [0x01; 32],
                    mac: [0x02; 32],
                },
            ],
            suspects: vec![(3, WireHealth::Stale), (77, WireHealth::Tampered)],
        };
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    /// The paused-campaign record writes its config with the one config
    /// codec: the section after the `EPC3` magic is byte-equal to the
    /// `OpBegin` payload, and a record under the retired `EPC2` magic is
    /// refused as a bad magic.
    #[test]
    fn paused_record_config_section_is_the_op_begin_payload() {
        use eilid_casu::DeviceKey;
        use eilid_fleet::{Campaign, FleetBuilder, FleetError, PausedCampaign};

        let (mut fleet, mut verifier) =
            FleetBuilder::new(DeviceKey::new(b"fleet-root-key-0123456789abcdef").unwrap())
                .devices(3)
                .workloads(&[WorkloadId::LightSensor])
                .build()
                .unwrap();
        let config = CampaignConfig {
            canary_fraction: 0.5,
            failure_threshold: 0.125,
            smoke_cycles: 4_321,
            version: 3,
            delta: false,
            ..CampaignConfig::new(WorkloadId::LightSensor, 0xF600, vec![0x03, 0x43, 0x30])
        };
        let begin = Frame::OpBegin {
            config: config.clone(),
        }
        .encode();
        let payload = &begin[FRAME_HEADER_LEN..];
        let record = Campaign::new(config)
            .unwrap()
            .begin(&mut fleet, &mut verifier)
            .unwrap()
            .pause()
            .to_bytes();
        assert_eq!(&record[..4], b"EPC3");
        assert_eq!(&record[4..4 + payload.len()], payload);

        let mut old = record;
        old[..4].copy_from_slice(b"EPC2");
        let Err(FleetError::InvalidCampaign(msg)) = PausedCampaign::from_bytes(&old) else {
            panic!("an EPC2 record must be refused");
        };
        assert!(msg.contains("magic"), "{msg}");
    }

    #[test]
    fn agg_sweep_result_rejects_forged_list_counts() {
        let frame = Frame::OpAggSweepResult {
            epoch: 1,
            devices: 4,
            counts: [4, 0, 0, 0],
            bitmap_base: 0,
            bitmap: Vec::new(),
            proofs: Vec::new(),
            suspects: Vec::new(),
        };
        let mut bytes = frame.encode();
        // The proof-count word sits after epoch(8) + devices(4) +
        // counts(16) + base(8) + bitmap len(4): forge it huge.
        let offset = FRAME_HEADER_LEN + 8 + 4 + 16 + 8 + 4;
        bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadPayload(CodecError::Oversized { .. }))
        ));
    }
}
