//! The gateway's telemetry hub: one [`eilid_obs::MetricsRegistry`] +
//! [`eilid_obs::TraceRing`] per gateway, with every hot-path handle
//! resolved once at construction — the instrumented paths (reactor
//! passes, the engine's shard verification jobs, campaign waves) touch
//! only lock-free atomic cells.
//!
//! The pre-registry reactor counters ([`GatewayCounters`]) and the
//! trust core's [`AttestationService::stats`] keep their atomics; a
//! [`NetMetrics::snapshot`] injects them at scrape time so one
//! `OpMetrics` reply carries the gateway's whole self-knowledge.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use eilid_obs::{Counter, Histogram, MetricsRegistry, RegistrySnapshot, TraceRing};

use crate::gateway::GatewayCounters;
use crate::service::AttestationService;
use crate::wire::ErrorCode;

/// Trace-event category: reactor-level events.
pub const TRACE_CAT_REACTOR: u8 = 1;
/// Trace-event category: campaign-engine events.
pub const TRACE_CAT_ENGINE: u8 = 2;
/// Trace-event category: cluster control-plane events (supervisor
/// restarts/drains, fan-out).
pub const TRACE_CAT_CLUSTER: u8 = 3;
/// Trace-event category: `fleet serve` operator-console events.
pub const TRACE_CAT_SERVE: u8 = 4;

/// Reactor trace code: one reactor pass (span; `a` = elapsed µs, `b` =
/// frames handled).
pub const TRACE_REACTOR_PASS: u16 = 1;
/// Engine trace code: one campaign wave phase finished (`a` = elapsed
/// µs, `b` = phase index: 0 snapshot, 1 update, 2 probe).
pub const TRACE_ENGINE_PHASE: u16 = 1;
/// Engine trace code: one streamed campaign wave finished (`a` =
/// elapsed µs, `b` = devices in the wave).
pub const TRACE_ENGINE_WAVE: u16 = 2;
/// Cluster trace code: a gateway process was restarted (`a` = gateway
/// index, `b` = total restarts for that slot).
pub const TRACE_CLUSTER_RESTART: u16 = 1;
/// Cluster trace code: a gateway was drained (`a` = gateway index,
/// `b` = paused-campaign records handed back).
pub const TRACE_CLUSTER_DRAIN: u16 = 2;
/// Serve trace code: explicit idle heartbeat — emitted when a log tick
/// sees no counter movement, so a wedged reactor still produces
/// evidence (`a` = heartbeat ordinal, `b` = live connections).
pub const TRACE_SERVE_IDLE: u16 = 1;

/// Default trace-ring capacity (events retained).
pub const TRACE_RING_CAPACITY: usize = 1024;

/// Every [`ErrorCode`], index-aligned with
/// [`NetMetrics::reject_counter`].
pub const ERROR_CODES: [ErrorCode; 9] = [
    ErrorCode::UnsupportedVersion,
    ErrorCode::Busy,
    ErrorCode::UnknownCohort,
    ErrorCode::NotNegotiated,
    ErrorCode::UnexpectedFrame,
    ErrorCode::Unsupported,
    ErrorCode::UnknownDevice,
    ErrorCode::NoCampaign,
    ErrorCode::CampaignActive,
];

fn error_code_index(code: ErrorCode) -> usize {
    match code {
        ErrorCode::UnsupportedVersion => 0,
        ErrorCode::Busy => 1,
        ErrorCode::UnknownCohort => 2,
        ErrorCode::NotNegotiated => 3,
        ErrorCode::UnexpectedFrame => 4,
        ErrorCode::Unsupported => 5,
        ErrorCode::UnknownDevice => 6,
        ErrorCode::NoCampaign => 7,
        ErrorCode::CampaignActive => 8,
    }
}

/// The metric-name suffix for an [`ErrorCode`]'s reject counter
/// (`eilid_gateway_reject_<suffix>_total`).
pub fn error_code_slug(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::UnsupportedVersion => "unsupported_version",
        ErrorCode::Busy => "busy",
        ErrorCode::UnknownCohort => "unknown_cohort",
        ErrorCode::NotNegotiated => "not_negotiated",
        ErrorCode::UnexpectedFrame => "unexpected_frame",
        ErrorCode::Unsupported => "unsupported",
        ErrorCode::UnknownDevice => "unknown_device",
        ErrorCode::NoCampaign => "no_campaign",
        ErrorCode::CampaignActive => "campaign_active",
    }
}

/// Per-gateway telemetry: the registry, the trace ring, and every
/// hot-path metric handle pre-resolved. Cheap to share (`Arc` it once
/// at [`crate::Gateway::bind`]); every recording method is lock-free.
#[derive(Debug)]
pub struct NetMetrics {
    registry: MetricsRegistry,
    trace: TraceRing,
    /// Reactor pass duration in microseconds (one sample per
    /// readiness wake or scan pass).
    pub pass_us: Histogram,
    /// Frames handled per readiness wake (the reactor's realized
    /// batching factor).
    pub frames_per_wake: Histogram,
    /// Outbox residency in bytes, sampled per serviced connection —
    /// how close peers run to the high-water mark.
    pub outbox_bytes: Histogram,
    /// Verification batch size: the reports of one sweep reply burst.
    pub verify_batch_size: Histogram,
    /// `AttestationService::verify_batch` latency per reply burst, in
    /// microseconds — the MAC verification layer.
    pub verify_batch_us: Histogram,
    /// Campaign-wave snapshot-phase duration (µs).
    pub phase_snapshot_us: Histogram,
    /// Campaign-wave update-phase duration (µs).
    pub phase_update_us: Histogram,
    /// Campaign-wave probe-phase duration (µs).
    pub phase_probe_us: Histogram,
    /// Device exchanges the campaign engine retried after a `Busy`.
    pub engine_busy_retries: Counter,
    /// Sweep exchanges the engine abandoned because the reactor was
    /// gone (its frame channel closed): the sweep's devices end
    /// `Unverified` at once instead of idling out the timeout.
    pub engine_reactor_lost: Counter,
    /// Engine wall time per gateway-driven sweep (`OpAggSweep`),
    /// challenge mint to result sent, in µs.
    pub sweep_us: Histogram,
    /// Per sweep, µs from the last accepted probe reply to the result
    /// being sent: the verification and merge work that did not
    /// overlap the devices' attestation.
    pub sweep_verify_tail_us: Histogram,
    /// Campaign smoke probes actually executed on a device (the
    /// reference device plus per-device fallbacks).
    pub probes_executed: Counter,
    /// Campaign smoke verdicts inherited from the cohort reference
    /// instead of re-running the 2M-cycle probe.
    pub probes_memoized: Counter,
    /// Update payload bytes a full-image push *would* have shipped
    /// for every applied campaign update (the delta denominator).
    pub update_bytes_full: Counter,
    /// Update bytes actually shipped on the wire (delta segments, or
    /// the full image when delta is disabled or falls back).
    pub update_bytes_wire: Counter,
    /// Sweeps the engine has served (`OpAggSweep`, the gateway's one
    /// sweep verb, so this counts every gateway sweep).
    pub agg_sweeps: Counter,
    /// Shard aggregate roots the engine has signed and published.
    pub agg_roots_published: Counter,
    /// Devices reported in aggregated-sweep suspect lists.
    pub agg_suspects: Counter,
    /// Devices covered by all-clean shard aggregates — verdicts the
    /// operator accepts on the shard root alone, no per-device frame.
    pub agg_short_circuited: Counter,
    rejects: [Counter; ERROR_CODES.len()],
}

impl NetMetrics {
    /// A fresh hub with every gateway metric registered.
    pub fn new() -> Arc<Self> {
        let registry = MetricsRegistry::new();
        let rejects = ERROR_CODES.map(|code| {
            registry.counter(&format!(
                "eilid_gateway_reject_{}_total",
                error_code_slug(code)
            ))
        });
        Arc::new(NetMetrics {
            pass_us: registry.histogram("eilid_gateway_pass_us"),
            frames_per_wake: registry.histogram("eilid_gateway_frames_per_wake"),
            outbox_bytes: registry.histogram("eilid_gateway_outbox_bytes"),
            verify_batch_size: registry.histogram("eilid_verify_batch_size"),
            verify_batch_us: registry.histogram("eilid_verify_batch_us"),
            phase_snapshot_us: registry.histogram("eilid_ops_phase_snapshot_us"),
            phase_update_us: registry.histogram("eilid_ops_phase_update_us"),
            phase_probe_us: registry.histogram("eilid_ops_phase_probe_us"),
            engine_busy_retries: registry.counter("eilid_ops_busy_retries_total"),
            engine_reactor_lost: registry.counter("eilid_ops_reactor_lost_total"),
            sweep_us: registry.histogram("eilid_ops_sweep_us"),
            sweep_verify_tail_us: registry.histogram("eilid_ops_sweep_verify_tail_us"),
            probes_executed: registry.counter("eilid_ops_probes_executed_total"),
            probes_memoized: registry.counter("eilid_ops_probes_memoized_total"),
            update_bytes_full: registry.counter("eilid_ops_update_bytes_full_total"),
            update_bytes_wire: registry.counter("eilid_ops_update_bytes_wire_total"),
            agg_sweeps: registry.counter("eilid_ops_agg_sweeps_total"),
            agg_roots_published: registry.counter("eilid_ops_agg_roots_published_total"),
            agg_suspects: registry.counter("eilid_ops_agg_suspects_total"),
            agg_short_circuited: registry.counter("eilid_ops_agg_short_circuited_total"),
            rejects,
            trace: TraceRing::new(TRACE_RING_CAPACITY),
            registry,
        })
    }

    /// The underlying registry (for layers registering their own
    /// metrics).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The gateway's event trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Counts one rejection frame sent with `code`.
    pub fn count_reject(&self, code: ErrorCode) {
        self.rejects[error_code_index(code)].inc();
    }

    /// Value of the reject counter for `code`.
    pub fn reject_counter(&self, code: ErrorCode) -> u64 {
        self.rejects[error_code_index(code)].get()
    }

    /// A scrape-time snapshot: the registry plus the pre-registry
    /// atomics (reactor counters, trust-core stats, trace-ring
    /// accounting) injected under the same naming scheme.
    pub fn snapshot(
        &self,
        counters: &GatewayCounters,
        service: &AttestationService,
    ) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        let load = |cell: &std::sync::atomic::AtomicU64| cell.load(Ordering::Relaxed);
        snap.put_counter("eilid_gateway_accepted_total", load(&counters.accepted));
        snap.put_counter("eilid_gateway_refused_total", load(&counters.refused));
        snap.put_counter(
            "eilid_gateway_frames_received_total",
            load(&counters.frames_received),
        );
        snap.put_counter(
            "eilid_gateway_malformed_streams_total",
            load(&counters.malformed_streams),
        );
        snap.put_counter(
            "eilid_gateway_reactor_wakes_total",
            load(&counters.reactor_wakes),
        );
        snap.put_counter(
            "eilid_gateway_scan_passes_total",
            load(&counters.scan_passes),
        );
        snap.put_gauge(
            "eilid_gateway_live_connections",
            load(&counters.live_connections),
        );
        let stats = service.stats();
        snap.put_counter(
            "eilid_service_reports_verified_total",
            stats.reports_verified(),
        );
        snap.put_counter(
            "eilid_service_challenges_issued_total",
            stats.challenges_issued.load(Ordering::Relaxed),
        );
        snap.put_counter("eilid_trace_events_total", self.trace.appended());
        snap.put_counter("eilid_trace_dropped_total", self.trace.dropped());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every [`ErrorCode`] has a distinct reject counter and slug.
    #[test]
    fn reject_counters_cover_every_error_code() {
        let metrics = NetMetrics::new();
        for (index, &code) in ERROR_CODES.iter().enumerate() {
            for _ in 0..=index {
                metrics.count_reject(code);
            }
        }
        for (index, &code) in ERROR_CODES.iter().enumerate() {
            assert_eq!(metrics.reject_counter(code), index as u64 + 1);
        }
        let slugs: std::collections::BTreeSet<&str> =
            ERROR_CODES.iter().map(|&c| error_code_slug(c)).collect();
        assert_eq!(slugs.len(), ERROR_CODES.len(), "slugs must be distinct");
    }
}
