//! # eilid_obs — fleet-wide telemetry primitives
//!
//! A production EILID deployment is only operable if the operator can
//! *see* it. The paper's own operating model — an untrusted operator
//! continuously judging device health from attestation evidence —
//! extends naturally to the infrastructure: the gateway/cluster plane
//! should emit evidence about its own behaviour with the same rigor it
//! demands of devices. This crate is that evidence layer, std-only and
//! dependency-free, with three pieces:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s over lock-free `AtomicU64` cells. The
//!   hot path (increment, record) never takes a lock and never
//!   allocates; the registry's mutex guards only registration and
//!   snapshotting, both cold. Snapshots ([`RegistrySnapshot`],
//!   [`HistogramSnapshot`]) are plain data: mergeable element-wise, so
//!   cluster-level aggregation is associative and commutative by
//!   construction (the property the cluster proptests pin).
//! * [`TraceRing`] — a bounded ring of structured [`TraceEvent`]s
//!   (monotonic sequence number, coarse millisecond tick, category,
//!   code, two `u64` arguments) with overwrite-oldest semantics, an
//!   exact [`TraceRing::dropped`] counter, and [`TraceSpan`] helpers
//!   for timing scopes. Recording never allocates, and waits only for
//!   a writer a full lap behind that is still mid-store on its slot.
//! * Renderers — Prometheus-style text exposition
//!   ([`RegistrySnapshot::to_prometheus`]) and a compact JSON snapshot
//!   ([`RegistrySnapshot::to_json`] / [`RegistrySnapshot::from_json`])
//!   that is what crosses the wire in the gateway's `OpMetrics` reply.
//!
//! # Histogram bucket layout
//!
//! Histograms use power-of-two buckets: bucket `0` holds the value
//! `0`, bucket `b` (for `b ≥ 1`) holds values in `[2^(b-1), 2^b - 1]`,
//! and the last bucket ([`HIST_BUCKETS`]` - 1`) tops out at
//! `u64::MAX`. Quantile readout ([`HistogramSnapshot::quantile`])
//! walks the cumulative distribution and reports the *upper bound* of
//! the bucket holding the requested rank — a deterministic,
//! merge-stable answer that never under-reports a latency.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod render;
mod ring;

pub use metrics::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    RegistrySnapshot, HIST_BUCKETS,
};
pub use render::ObsError;
pub use ring::{TraceEvent, TraceRing, TraceSpan};
