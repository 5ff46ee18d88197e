//! # eilid-net — wire protocol + networked attestation gateway
//!
//! EILID's verifier is remote by definition: the paper's security
//! argument assumes challenges and authenticated reports cross an
//! *untrusted network*. Until this crate, the fleet verifier called
//! devices in-process; here the trust boundary becomes a real one:
//!
//! * [`wire`] — a versioned, length-prefixed binary frame codec
//!   ([`Frame`], [`FrameDecoder`]) with explicit limits and hard, typed
//!   rejection of malformed input. Structural checks live here;
//!   cryptographic checks (the domain-separated MACs from
//!   [`eilid_casu`]) stay in the verifier — the codec never pretends to
//!   authenticate.
//! * [`service`] — the gateway's trust core ([`AttestationService`]),
//!   provisioned from the fleet verifier's snapshot (same root key,
//!   same goldens, a reserved nonce block) plus the per-connection
//!   [`Session`] state machine shared by every server flavour.
//! * [`poller`] — the readiness seam: a Linux epoll backend (the
//!   crate's one documented-unsafe module, raw syscall bindings) and a
//!   portable scan fallback whose idle sleeps follow an adaptive
//!   backoff and are cut short by a [`Waker`].
//! * [`gateway`] — a std-only, readiness-driven TCP [`Gateway`]
//!   reactor: it owns the sockets and the framing and hands operator
//!   commands and device replies to the gateway's campaign engine. The
//!   engine challenges: it pushes probes to the attached
//!   [`DeviceAgent`]s and verifies each burst of replies as it lands.
//! * [`ops`] — the operator console ([`RemoteOps`]), the device agent
//!   ([`DeviceAgent`]) that answers the gateway's pushes, and
//!   [`with_attached_fleet`], which hosts a fleet's devices as agents.
//! * [`cluster`] — multi-gateway scale-out: deterministic shard →
//!   gateway [`Placement`] (rendezvous hashing over the fixed fleet
//!   shards), the fan-out [`ClusterOps`] operator backend that merges
//!   per-gateway results into single-gateway shapes, and the
//!   [`Supervisor`] control plane that launches, health-checks,
//!   drains and restarts gateway processes — mid-campaign failover
//!   resumes from retained paused-campaign bytes rather than redoing
//!   work.
//! * [`metrics`] — the per-gateway telemetry hub ([`NetMetrics`]):
//!   an [`eilid_obs::MetricsRegistry`] of latency histograms and
//!   counters plus a bounded [`eilid_obs::TraceRing`] of structured
//!   events, every hot-path handle pre-resolved (recording is
//!   lock-free), scrapeable over the wire via [`Frame::OpMetrics`]
//!   and mergeable across a cluster.
//!
//! # Threat model at the transport boundary
//!
//! Everything on the wire is attacker-controlled. Three layers reject
//! three different things:
//!
//! 1. **The codec** rejects what is not even a frame: bad magic, alien
//!    versions, unknown types, oversized length claims (before any
//!    allocation), truncations, trailing bytes.
//! 2. **The session and the engine** reject what is a frame but not a
//!    legal exchange: frames before version negotiation, frames only
//!    the gateway sends arriving at the gateway, and replies to no
//!    pending push.
//! 3. **The MAC layer** rejects what is a legal exchange but a forgery:
//!    wrong keys, replayed nonces, and cross-protocol grafts (an update
//!    MAC on a report or vice versa — killed by the domain-separation
//!    tags introduced with the fleet subsystem).

// Unsafe code is denied crate-wide; the single exception is the
// documented epoll/eventfd syscall module (`poller::sys`), mirroring
// the lifetime-erasure exception in `eilid_fleet::pool`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod engine;
pub mod error;
pub mod gateway;
pub mod metrics;
pub mod ops;
pub mod poller;
pub mod service;
pub mod transport;
pub mod wire;

pub use cluster::{with_placed_fleet, ClusterOps, GatewayLauncher, Placement, Supervisor};
pub use engine::ENGINE_BUSY_RETRIES;
pub use error::NetError;
pub use gateway::{Gateway, GatewayConfig, GatewayCounters, GatewayHandle};
pub use metrics::{
    error_code_slug, NetMetrics, ERROR_CODES, TRACE_CAT_CLUSTER, TRACE_CAT_ENGINE,
    TRACE_CAT_REACTOR, TRACE_CAT_SERVE, TRACE_CLUSTER_DRAIN, TRACE_CLUSTER_RESTART,
    TRACE_ENGINE_PHASE, TRACE_REACTOR_PASS, TRACE_RING_CAPACITY, TRACE_SERVE_IDLE,
};
pub use ops::{with_attached_fleet, DeviceAgent, RemoteOps};
pub use poller::{
    Event, IdleBackoff, Interest, Poller, PollerBackend, PollerChoice, WaitOutcome, Waker,
};
pub use service::{
    health_from_wire, health_to_wire, AttestationService, ChallengeError, Session, SessionOutput,
    VerifyTask,
};
pub use transport::{PipeTransport, TcpTransport, Transport, DEFAULT_RECV_TIMEOUT};
pub use wire::{
    CampaignOp, ErrorCode, Frame, FrameDecoder, ProbeMode, WireError, WireHealth,
    CAMPAIGN_STATE_FINISHED, CAMPAIGN_STATE_IDLE, CAMPAIGN_STATE_PAUSED, CAMPAIGN_STATE_RUNNING,
    FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD, MAX_OP_PAYLOAD, PROTOCOL_VERSION,
};
