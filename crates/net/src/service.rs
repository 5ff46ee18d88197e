//! The gateway's trust core: per-cohort golden state, nonce allocation,
//! sharded key caches, and the per-connection protocol state machine.
//!
//! [`AttestationService`] is provisioned from a fleet verifier's
//! [`ServiceSnapshot`](eilid_fleet::ServiceSnapshot) — same root key,
//! same golden measurements, and a reserved block of the verifier's
//! challenge-nonce domain, so networked challenges can never collide
//! with in-process sweep challenges on any device key.
//!
//! [`Session`] implements the per-connection state machine once; the
//! non-blocking TCP gateway and the in-memory [`serve_transport`] server
//! both drive it, so protocol behaviour cannot drift between the two.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use eilid_casu::{
    AttestError, AttestationVerifier, Challenge, CryptoProvider, DeviceKey, MeasurementScheme,
    SoftwareProvider,
};
use eilid_fleet::{CohortSnapshot, HealthClass, ServiceSnapshot, SHARD_COUNT};
use eilid_msp430::Memory;
use eilid_workloads::WorkloadId;

use crate::error::NetError;
use crate::transport::Transport;
use crate::wire::{ErrorCode, Frame, WireHealth, PROTOCOL_VERSION};

/// Maps a fleet health class to its wire form.
pub fn health_to_wire(class: HealthClass) -> WireHealth {
    match class {
        HealthClass::Attested => WireHealth::Attested,
        HealthClass::Stale => WireHealth::Stale,
        HealthClass::Tampered => WireHealth::Tampered,
        HealthClass::Unverified => WireHealth::Unverified,
    }
}

/// Maps a wire health class back to the fleet's.
pub fn health_from_wire(class: WireHealth) -> HealthClass {
    match class {
        WireHealth::Attested => HealthClass::Attested,
        WireHealth::Stale => HealthClass::Stale,
        WireHealth::Tampered => HealthClass::Tampered,
        WireHealth::Unverified => HealthClass::Unverified,
    }
}

/// Per-shard verifier-side cache: device keys derived once, ever —
/// the same stable-shard discipline as the fleet verifier, keyed by
/// `device % SHARD_COUNT` so worker-count changes never orphan keys.
#[derive(Debug, Default)]
struct KeyShard {
    keys: HashMap<u64, DeviceKey>,
}

/// Running verification totals, updated atomically by worker threads.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Challenges issued.
    pub challenges_issued: AtomicU64,
    /// Reports verified, by class.
    pub attested: AtomicU64,
    /// Reports classified stale.
    pub stale: AtomicU64,
    /// Reports classified tampered.
    pub tampered: AtomicU64,
    /// Reports that failed cryptographic verification.
    pub unverified: AtomicU64,
}

impl ServiceStats {
    /// Total reports verified (any class).
    pub fn reports_verified(&self) -> u64 {
        self.attested.load(Ordering::Relaxed)
            + self.stale.load(Ordering::Relaxed)
            + self.tampered.load(Ordering::Relaxed)
            + self.unverified.load(Ordering::Relaxed)
    }

    fn record(&self, class: HealthClass) {
        let counter = match class {
            HealthClass::Attested => &self.attested,
            HealthClass::Stale => &self.stale,
            HealthClass::Tampered => &self.tampered,
            HealthClass::Unverified => &self.unverified,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The networked verifier core. Thread-safe: the poll loop issues
/// challenges while pool workers verify reports concurrently, and the
/// campaign engine promotes goldens (behind the cohort `RwLock`) when a
/// gateway-resident rollout completes.
#[derive(Debug)]
pub struct AttestationService {
    root: DeviceKey,
    /// Per-cohort golden state. Read on every challenge/verify; written
    /// only when a gateway-resident campaign promotes a new golden.
    cohorts: RwLock<std::collections::BTreeMap<WorkloadId, CohortSnapshot>>,
    /// The measurement scheme the fleet was enrolled under (campaigns
    /// measure patched goldens with it).
    scheme: MeasurementScheme,
    next_nonce: AtomicU64,
    nonce_end: u64,
    shards: Vec<Mutex<KeyShard>>,
    stats: ServiceStats,
    /// Crypto backend every HMAC/SHA in this service routes through —
    /// [`SoftwareProvider`] by default, a [`eilid_casu::BatchedProvider`]
    /// when the gateway wants amortized key schedules across a sweep.
    provider: Arc<dyn CryptoProvider>,
}

impl AttestationService {
    /// Builds the service from a verifier's exported snapshot, on the
    /// default software crypto backend.
    pub fn new(snapshot: ServiceSnapshot) -> Self {
        Self::with_provider(snapshot, Arc::new(SoftwareProvider))
    }

    /// Builds the service on an explicit [`CryptoProvider`] backend.
    pub fn with_provider(snapshot: ServiceSnapshot, provider: Arc<dyn CryptoProvider>) -> Self {
        AttestationService {
            root: snapshot.root,
            cohorts: RwLock::new(snapshot.cohorts),
            scheme: snapshot.scheme,
            next_nonce: AtomicU64::new(snapshot.nonce_base),
            nonce_end: snapshot.nonce_base.saturating_add(snapshot.nonce_span),
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            stats: ServiceStats::default(),
            provider,
        }
    }

    /// The crypto backend this service verifies with.
    pub fn provider(&self) -> &Arc<dyn CryptoProvider> {
        &self.provider
    }

    /// The aggregation key for `shard`, derived from the fleet root key
    /// under the shard-key domain tag — what the gateway signs aggregate
    /// roots with and the operator re-derives to check them.
    pub fn agg_shard_key(&self, shard: u16) -> [u8; 32] {
        eilid_casu::shard_agg_key(&*self.provider, self.root.as_bytes(), shard)
    }

    /// The next unissued challenge nonce. An aggregated sweep snapshots
    /// this *before* minting its challenges as the sweep epoch: nonces
    /// are only ever consumed forward, so epochs are strictly
    /// monotone across sweeps that mint at least one challenge.
    pub fn nonce_watermark(&self) -> u64 {
        self.next_nonce.load(Ordering::Relaxed)
    }

    /// Verification totals so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The measurement scheme reports are verified under.
    pub fn scheme(&self) -> MeasurementScheme {
        self.scheme
    }

    /// `true` when the service holds goldens for `cohort`.
    pub fn has_cohort(&self, cohort: WorkloadId) -> bool {
        self.cohorts
            .read()
            .expect("cohort lock")
            .contains_key(&cohort)
    }

    /// The cohort's current golden image and layout (what a
    /// gateway-resident campaign patches and probes against).
    pub(crate) fn cohort_golden(
        &self,
        cohort: WorkloadId,
    ) -> Option<(Memory, eilid_casu::MemoryLayout)> {
        let cohorts = self.cohorts.read().expect("cohort lock");
        cohorts
            .get(&cohort)
            .map(|snapshot| (snapshot.golden.clone(), snapshot.layout.clone()))
    }

    /// Promotes `measurement`/`golden` to the cohort's current golden
    /// state, demoting the previous measurement to "stale but
    /// authentic" — the gateway-side mirror of the fleet verifier's
    /// promotion on campaign completion.
    pub(crate) fn promote_cohort(
        &self,
        cohort: WorkloadId,
        golden: &Memory,
        measurement: [u8; 32],
    ) {
        let mut cohorts = self.cohorts.write().expect("cohort lock");
        if let Some(snapshot) = cohorts.get_mut(&cohort) {
            if snapshot.current != measurement {
                let old = snapshot.current;
                snapshot.previous.push(old);
                snapshot.current = measurement;
                snapshot.golden = golden.clone();
            }
        }
    }

    /// The (shard-cached) key of `device`, derived once ever from the
    /// fleet root — the campaign engine MACs update requests and
    /// verifies probe reports with it.
    pub(crate) fn device_key(&self, device: u64) -> DeviceKey {
        let shard = &self.shards[(device % SHARD_COUNT as u64) as usize];
        let mut shard = shard.lock().expect("key shard lock");
        let root = &self.root;
        shard
            .keys
            .entry(device)
            .or_insert_with(|| root.derive(device))
            .clone()
    }

    /// Device keys currently cached across all shards.
    pub fn cached_keys(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("key shard lock").keys.len())
            .sum()
    }

    /// Issues a fresh challenge over `cohort`'s PMEM range.
    ///
    /// Nonce reuse would break replay protection, so exhausting the
    /// reserved block is refused — a typed error the session turns into
    /// a retryable `Busy` frame, never a reused nonce and never a panic
    /// on the serving thread (a hostile client must not be able to
    /// spam-drain the block into a gateway crash). The default span of
    /// 2³² outlives any realistic deployment of one gateway process.
    ///
    /// # Errors
    ///
    /// [`ChallengeError::UnknownCohort`] for a cohort this service is
    /// not provisioned for; [`ChallengeError::NoncesExhausted`] once the
    /// reserved block runs dry.
    pub fn challenge_for(&self, cohort: WorkloadId) -> Result<Challenge, ChallengeError> {
        let cohorts = self.cohorts.read().expect("cohort lock");
        let snapshot = cohorts.get(&cohort).ok_or(ChallengeError::UnknownCohort)?;
        // fetch_add past the end is harmless: the overshot value is
        // never issued, and the counter cannot wrap a u64 in practice.
        let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
        if nonce >= self.nonce_end {
            return Err(ChallengeError::NoncesExhausted);
        }
        self.stats.challenges_issued.fetch_add(1, Ordering::Relaxed);
        Ok(Challenge {
            nonce,
            start: *snapshot.layout.pmem.start(),
            end: *snapshot.layout.pmem.end(),
        })
    }

    /// Verifies one report against the issued challenge and the
    /// cohort's golden history, using the shard-cached device key.
    /// Classification semantics are identical to the fleet verifier's.
    pub fn verify(
        &self,
        device: u64,
        cohort: WorkloadId,
        issued: &Challenge,
        report: &eilid_casu::AttestationReport,
    ) -> (HealthClass, Option<AttestError>) {
        let cohorts = self.cohorts.read().expect("cohort lock");
        let Some(snapshot) = cohorts.get(&cohort) else {
            self.stats.record(HealthClass::Unverified);
            return (HealthClass::Unverified, None);
        };
        let shard = &self.shards[(device % SHARD_COUNT as u64) as usize];
        let verified = {
            let mut shard = shard.lock().expect("key shard lock");
            let root = &self.root;
            let key = shard
                .keys
                .entry(device)
                .or_insert_with(|| root.derive(device));
            AttestationVerifier::with_key(key).verify_with(&*self.provider, issued, report, None)
        };
        let (class, error) = snapshot.classify(verified, &report.measurement);
        self.stats.record(class);
        (class, error)
    }

    /// Verifies a batch of reports, yielding exactly the verdicts
    /// [`AttestationService::verify`] would produce one at a time —
    /// the equivalence is property-tested over arbitrary mixes of good,
    /// tampered, stale and replayed reports.
    ///
    /// The point of batching is amortization: consecutive tasks on the
    /// same key shard reuse one lock acquisition (the gateway batches
    /// per shard, so a whole batch typically costs a single lock),
    /// and the per-job pool dispatch the gateway used to pay per report
    /// is paid per batch.
    pub fn verify_batch(&self, tasks: &[VerifyTask]) -> Vec<(HealthClass, Option<AttestError>)> {
        let mut verdicts = Vec::with_capacity(tasks.len());
        // One cohort read-lock acquisition for the whole batch; golden
        // promotion (a rare write) waits for batch boundaries.
        let cohorts = self.cohorts.read().expect("cohort lock");
        let mut held: Option<(usize, std::sync::MutexGuard<'_, KeyShard>)> = None;
        for task in tasks {
            let Some(snapshot) = cohorts.get(&task.cohort) else {
                self.stats.record(HealthClass::Unverified);
                verdicts.push((HealthClass::Unverified, None));
                continue;
            };
            let shard_index = (task.device % SHARD_COUNT as u64) as usize;
            // Re-lock only when the shard changes; same-shard runs — the
            // common case by construction — hold one guard throughout.
            // The old guard MUST drop before the new lock is taken:
            // holding two shard locks at once would let concurrent
            // cross-shard batches deadlock ABBA-style.
            if held.as_ref().map(|(index, _)| *index) != Some(shard_index) {
                drop(held.take());
                held = Some((
                    shard_index,
                    self.shards[shard_index].lock().expect("key shard lock"),
                ));
            }
            let (_, shard) = held.as_mut().expect("shard guard held");
            let root = &self.root;
            let key = shard
                .keys
                .entry(task.device)
                .or_insert_with(|| root.derive(task.device));
            let verified = AttestationVerifier::with_key(key).verify_with(
                &*self.provider,
                &task.issued,
                &task.report,
                None,
            );
            let (class, error) = snapshot.classify(verified, &task.report.measurement);
            self.stats.record(class);
            verdicts.push((class, error));
        }
        verdicts
    }
}

/// Why [`AttestationService::challenge_for`] refused to mint a
/// challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChallengeError {
    /// The service holds no goldens for the requested cohort.
    UnknownCohort,
    /// The reserved nonce block ran dry; the gateway must be
    /// re-provisioned before it can issue fresh challenges.
    NoncesExhausted,
}

/// A report waiting to be verified — what the gateway hands to a pool
/// worker.
#[derive(Debug)]
pub struct VerifyTask {
    /// The reporting device.
    pub device: u64,
    /// Its cohort.
    pub cohort: WorkloadId,
    /// The challenge this service issued.
    pub issued: Challenge,
    /// The device's report.
    pub report: eilid_casu::AttestationReport,
}

impl VerifyTask {
    /// Runs the verification and builds the reply frame.
    pub fn run(self, service: &AttestationService) -> Frame {
        let (class, _) = service.verify(self.device, self.cohort, &self.issued, &self.report);
        Frame::AttestResult {
            device: self.device,
            class: health_to_wire(class),
        }
    }
}

/// What [`Session::handle`] wants done with one inbound frame.
#[derive(Debug)]
pub enum SessionOutput {
    /// Send these frames back, in order.
    Reply(Vec<Frame>),
    /// Verify this report (CPU-bound — the gateway offloads it to the
    /// worker pool; the in-memory server runs it inline).
    Verify(VerifyTask),
    /// Send these frames, then close the connection.
    ReplyAndClose(Vec<Frame>),
    /// Close the connection without a reply.
    Close,
    /// Register this connection as the push target for `device` and
    /// acknowledge (the gateway updates its device→connection registry;
    /// the in-memory server has no push plane and refuses).
    Attach {
        /// The device this connection serves.
        device: u64,
        /// Its firmware cohort.
        cohort: WorkloadId,
    },
    /// Route this operator-plane frame to the campaign engine, which
    /// replies asynchronously on this connection. Servers without an
    /// engine (the in-memory transport server) answer `Unsupported`.
    Operator(Frame),
    /// Route this device-plane reply (snapshot / probe / update result,
    /// or a device-scoped shed) to the campaign engine. Servers without
    /// an engine drop it.
    DeviceReply(Frame),
}

/// Hard cap on challenges outstanding per connection. A lockstep client
/// keeps one; a pipelining aggregator a few dozen; an attacker spamming
/// `AttestRequest`s with distinct device ids and never reporting would
/// otherwise grow the pending map without bound.
pub const MAX_PENDING_CHALLENGES: usize = 1024;

/// Per-connection protocol state machine (gateway side).
#[derive(Debug, Default)]
pub struct Session {
    negotiated: Option<u8>,
    /// Challenges issued on this connection, by device id, awaiting
    /// their report. Bounded by [`MAX_PENDING_CHALLENGES`].
    pending: HashMap<u64, (WorkloadId, Challenge)>,
}

impl Session {
    /// A fresh, un-negotiated session.
    pub fn new() -> Self {
        Session::default()
    }

    /// `true` once version negotiation succeeded.
    pub fn is_negotiated(&self) -> bool {
        self.negotiated.is_some()
    }

    /// Drives the state machine over one inbound frame.
    pub fn handle(&mut self, service: &AttestationService, frame: Frame) -> SessionOutput {
        match frame {
            Frame::Hello {
                min_version,
                max_version,
            } => {
                if self.negotiated.is_some() {
                    return SessionOutput::ReplyAndClose(vec![Frame::Error {
                        code: ErrorCode::UnexpectedFrame,
                    }]);
                }
                if (min_version..=max_version).contains(&PROTOCOL_VERSION) {
                    self.negotiated = Some(PROTOCOL_VERSION);
                    SessionOutput::Reply(vec![Frame::HelloAck {
                        version: PROTOCOL_VERSION,
                    }])
                } else {
                    SessionOutput::ReplyAndClose(vec![Frame::Error {
                        code: ErrorCode::UnsupportedVersion,
                    }])
                }
            }
            Frame::Bye => SessionOutput::Close,
            _ if self.negotiated.is_none() => SessionOutput::ReplyAndClose(vec![Frame::Error {
                code: ErrorCode::NotNegotiated,
            }]),
            Frame::AttestRequest { device, cohort } => {
                // Re-requesting for an already-pending device replaces
                // its challenge (doesn't grow the map); only genuinely
                // new outstanding ids count against the cap. Errors on
                // this path are *device-scoped* (`DeviceError`), so a
                // pipelining client can attribute and retry exactly the
                // affected exchange.
                if self.pending.len() >= MAX_PENDING_CHALLENGES
                    && !self.pending.contains_key(&device)
                {
                    return SessionOutput::Reply(vec![Frame::DeviceError {
                        device,
                        code: ErrorCode::Busy,
                    }]);
                }
                match service.challenge_for(cohort) {
                    Ok(challenge) => {
                        self.pending.insert(device, (cohort, challenge));
                        SessionOutput::Reply(vec![Frame::Challenge { device, challenge }])
                    }
                    Err(ChallengeError::UnknownCohort) => {
                        SessionOutput::Reply(vec![Frame::DeviceError {
                            device,
                            code: ErrorCode::UnknownCohort,
                        }])
                    }
                    // Out of nonces: shed load instead of minting a
                    // reused nonce (or crashing the serving thread).
                    Err(ChallengeError::NoncesExhausted) => {
                        SessionOutput::Reply(vec![Frame::DeviceError {
                            device,
                            code: ErrorCode::Busy,
                        }])
                    }
                }
            }
            Frame::Report { device, report } => match self.pending.remove(&device) {
                Some((cohort, issued)) => SessionOutput::Verify(VerifyTask {
                    device,
                    cohort,
                    issued,
                    report,
                }),
                None => SessionOutput::Reply(vec![Frame::Error {
                    code: ErrorCode::UnexpectedFrame,
                }]),
            },
            // Device-plane registration for gateway-initiated pushes.
            // Cohort validity is checked here so a bad attach is
            // rejected device-scoped before it reaches any registry.
            Frame::Attach { device, cohort } => {
                if service.has_cohort(cohort) {
                    SessionOutput::Attach { device, cohort }
                } else {
                    SessionOutput::Reply(vec![Frame::DeviceError {
                        device,
                        code: ErrorCode::UnknownCohort,
                    }])
                }
            }
            // The operator plane: campaign lifecycle and gateway-driven
            // sweeps, executed by the campaign engine (which replies on
            // this connection asynchronously).
            frame @ (Frame::CampaignControl { .. }
            | Frame::OpBegin { .. }
            | Frame::OpStep { .. }
            | Frame::OpResume { .. }
            | Frame::OpCheckpoint { .. }
            | Frame::OpAggSweep
            | Frame::OpHealth
            | Frame::OpDrain
            | Frame::OpMetrics) => SessionOutput::Operator(frame),
            // Device-plane replies to engine-initiated pushes: update
            // acks, snapshot reports, probe results — and device-scoped
            // sheds (`DeviceError{Busy}`), which the engine retries.
            frame @ (Frame::UpdateResult { .. }
            | Frame::SnapshotReport { .. }
            | Frame::ProbeResult { .. }
            | Frame::DeviceError { .. }) => SessionOutput::DeviceReply(frame),
            // Update requests flow gateway → device; one arriving at
            // the gateway is refused.
            Frame::DeltaUpdateRequest { .. } => SessionOutput::Reply(vec![Frame::Error {
                code: ErrorCode::Unsupported,
            }]),
            // Server-bound frames arriving at the server are a protocol
            // violation.
            Frame::HelloAck { .. }
            | Frame::Challenge { .. }
            | Frame::AttestResult { .. }
            | Frame::AttachAck { .. }
            | Frame::SnapshotRequest { .. }
            | Frame::ProbeRequest { .. }
            | Frame::OpPaused { .. }
            | Frame::OpReport { .. }
            | Frame::OpAggSweepResult { .. }
            | Frame::OpHealthResult { .. }
            | Frame::OpDrained { .. }
            | Frame::OpMetricsResult { .. }
            | Frame::OpCheckpointAck { .. }
            | Frame::CampaignStatus { .. } => SessionOutput::ReplyAndClose(vec![Frame::Error {
                code: ErrorCode::UnexpectedFrame,
            }]),
            Frame::Error { .. } => SessionOutput::Close,
        }
    }
}

/// Serves one connection synchronously over any [`Transport`] — the
/// in-memory counterpart of the TCP gateway, sharing [`Session`]
/// verbatim (verification runs inline on this thread).
///
/// This server has no push plane or campaign engine: operator frames
/// and attach registrations are answered with a typed `Unsupported`
/// (drive campaigns over the wire through the TCP [`Gateway`]
/// (crate::Gateway)); stray device-plane replies are dropped, exactly
/// as the gateway drops them when no campaign is in flight.
///
/// Returns when the peer says [`Frame::Bye`], hangs up, or breaks the
/// protocol.
///
/// # Errors
///
/// Propagates transport failures other than an orderly close.
pub fn serve_transport<T: Transport>(
    service: &AttestationService,
    transport: &mut T,
) -> Result<(), NetError> {
    let mut session = Session::new();
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(NetError::Closed) => return Ok(()),
            Err(err) => return Err(err),
        };
        match session.handle(service, frame) {
            SessionOutput::Reply(frames) => {
                for frame in frames {
                    transport.send(&frame)?;
                }
            }
            SessionOutput::Verify(task) => {
                let reply = task.run(service);
                transport.send(&reply)?;
            }
            SessionOutput::ReplyAndClose(frames) => {
                for frame in frames {
                    transport.send(&frame)?;
                }
                return Ok(());
            }
            SessionOutput::Close => return Ok(()),
            SessionOutput::Attach { .. } | SessionOutput::Operator(_) => {
                transport.send(&Frame::Error {
                    code: ErrorCode::Unsupported,
                })?;
            }
            SessionOutput::DeviceReply(_) => {}
        }
    }
}
