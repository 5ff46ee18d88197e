//! The gateway's trust state, and the per-connection protocol state
//! machine.
//!
//! [`AttestationService`] is provisioned from a fleet verifier's
//! [`ServiceSnapshot`] — same root key, same golden measurements, and
//! a reserved block of the verifier's challenge-nonce domain, so
//! networked challenges can never collide with in-process sweep
//! challenges on any device key. It runs the verifier core
//! `eilid_fleet` shares with the in-process verifier: goldens are
//! [`CohortSnapshot`]s (one classification, one promotion), and the
//! key cache is one lock per [`KeyShard`], looked up through the same
//! [`KeyShard::key`]. The engine folds each sweep shard through
//! [`eilid_fleet::fold_shard`], and the operator checks the proofs with
//! [`eilid_fleet::AggSweepSummary::verified`].
//!
//! [`Session`] is the per-connection state machine the gateway's
//! reactor drives: it negotiates the version and sorts each inbound
//! frame into a reply, an attach, an operator command or a device-plane
//! reply for the engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use eilid_casu::{AttestError, AttestationVerifier, Challenge, DeviceKey};
use eilid_fleet::{shard_of, CohortSnapshot, HealthClass, KeyShard, ServiceSnapshot, SHARD_COUNT};
use eilid_msp430::Memory;
use eilid_workloads::WorkloadId;

use crate::error::unpoisoned;
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

/// The networked verifier core. Thread-safe: the campaign engine
/// verifies sweep replies through it and promotes goldens (behind the
/// cohort `RwLock`) when a gateway-resident rollout completes.
#[derive(Debug)]
pub struct AttestationService {
    root: DeviceKey,
    /// Per-cohort golden state. Read on every challenge/verify; written
    /// only when a gateway-resident campaign promotes a new golden.
    cohorts: RwLock<std::collections::BTreeMap<WorkloadId, CohortSnapshot>>,
    next_nonce: AtomicU64,
    nonce_end: u64,
    shards: Vec<Mutex<KeyShard>>,
    stats: ServiceStats,
}

impl AttestationService {
    /// Builds the service from a verifier's exported snapshot.
    pub fn new(snapshot: ServiceSnapshot) -> Self {
        AttestationService {
            root: snapshot.root,
            cohorts: RwLock::new(snapshot.cohorts),
            next_nonce: AtomicU64::new(snapshot.nonce_base),
            nonce_end: snapshot.nonce_base.saturating_add(snapshot.nonce_span),
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            stats: ServiceStats::default(),
        }
    }

    /// The fleet root key: device keys and shard aggregation keys are
    /// derived from it.
    pub(crate) fn root(&self) -> &DeviceKey {
        &self.root
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

    /// `true` when the service holds goldens for `cohort`.
    fn has_cohort(&self, cohort: WorkloadId) -> bool {
        unpoisoned(self.cohorts.read()).contains_key(&cohort)
    }

    /// The cohort's current golden image and layout (what a
    /// gateway-resident campaign patches and probes against).
    pub(crate) fn cohort_golden(
        &self,
        cohort: WorkloadId,
    ) -> Option<(Memory, eilid_casu::MemoryLayout)> {
        let cohorts = unpoisoned(self.cohorts.read());
        cohorts
            .get(&cohort)
            .map(|snapshot| (snapshot.golden.clone(), snapshot.layout.clone()))
    }

    /// Promotes `measurement`/`golden` to the cohort's current golden
    /// state, demoting the previous measurement to "stale but
    /// authentic", through the same [`CohortSnapshot::promote`] the
    /// fleet verifier runs on campaign completion.
    pub(crate) fn promote_cohort(
        &self,
        cohort: WorkloadId,
        golden: &Memory,
        measurement: [u8; 32],
    ) {
        let mut cohorts = unpoisoned(self.cohorts.write());
        if let Some(snapshot) = cohorts.get_mut(&cohort) {
            snapshot.promote(golden, measurement);
        }
    }

    /// The (shard-cached) key of `device`, derived once ever from the
    /// fleet root — the campaign engine MACs update requests and
    /// verifies probe reports with it.
    pub(crate) fn device_key(&self, device: u64) -> DeviceKey {
        self.key_shard(shard_of(device))
            .key(&self.root, device)
            .clone()
    }

    /// Locks key shard `index`.
    fn key_shard(&self, index: usize) -> MutexGuard<'_, KeyShard> {
        unpoisoned(self.shards[index].lock())
    }

    /// Device keys currently cached across all shards.
    pub fn cached_keys(&self) -> usize {
        (0..SHARD_COUNT)
            .map(|index| self.key_shard(index).cached())
            .sum()
    }

    /// Issues a fresh challenge over `cohort`'s PMEM range.
    ///
    /// Nonce reuse would break replay protection, so exhausting the
    /// reserved block is refused — a typed error, never a reused nonce
    /// and never a panic on the engine thread. The default span of 2³²
    /// outlives any realistic deployment of one gateway process.
    ///
    /// # Errors
    ///
    /// [`ChallengeError::UnknownCohort`] for a cohort this service is
    /// not provisioned for; [`ChallengeError::NoncesExhausted`] once the
    /// reserved block runs dry.
    pub fn challenge_for(&self, cohort: WorkloadId) -> Result<Challenge, ChallengeError> {
        let cohorts = unpoisoned(self.cohorts.read());
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
    /// Classification semantics are identical to the fleet verifier's;
    /// [`AttestationService::verify_batch`] is property-tested against
    /// this.
    pub fn verify(
        &self,
        device: u64,
        cohort: WorkloadId,
        issued: &Challenge,
        report: &eilid_casu::AttestationReport,
    ) -> (HealthClass, Option<AttestError>) {
        let cohorts = unpoisoned(self.cohorts.read());
        let Some(snapshot) = cohorts.get(&cohort) else {
            self.stats.record(HealthClass::Unverified);
            return (HealthClass::Unverified, None);
        };
        let verified = {
            let mut shard = self.key_shard(shard_of(device));
            AttestationVerifier::with_key(shard.key(&self.root, device))
                .verify(issued, report, None)
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
    /// same key shard reuse one lock acquisition (the engine sorts each
    /// reply burst by shard, so a burst costs one lock per shard), and
    /// the cohort read lock is taken once per batch, not per report.
    pub fn verify_batch(&self, tasks: &[VerifyTask]) -> Vec<(HealthClass, Option<AttestError>)> {
        let mut verdicts = Vec::with_capacity(tasks.len());
        // One cohort read-lock acquisition for the whole batch; golden
        // promotion (a rare write) waits for batch boundaries.
        let cohorts = unpoisoned(self.cohorts.read());
        let mut held: Option<(usize, MutexGuard<'_, KeyShard>)> = None;
        for task in tasks {
            let Some(snapshot) = cohorts.get(&task.cohort) else {
                self.stats.record(HealthClass::Unverified);
                verdicts.push((HealthClass::Unverified, None));
                continue;
            };
            let shard_index = shard_of(task.device);
            // Re-lock only when the shard changes; same-shard runs — the
            // common case by construction — hold one guard throughout.
            // The old guard MUST drop before the new lock is taken:
            // holding two shard locks at once would let concurrent
            // cross-shard batches deadlock ABBA-style.
            if held.as_ref().map(|(index, _)| *index) != Some(shard_index) {
                drop(held.take());
                held = Some((shard_index, self.key_shard(shard_index)));
            }
            let (_, shard) = held.as_mut().expect("shard guard held");
            let verified = AttestationVerifier::with_key(shard.key(&self.root, task.device))
                .verify(&task.issued, &task.report, None);
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

/// A probe reply waiting to be verified: one entry of the reply burst
/// the engine hands to [`AttestationService::verify_batch`].
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

/// What [`Session::handle`] wants done with one inbound frame.
#[derive(Debug)]
pub enum SessionOutput {
    /// Send these frames back, in order.
    Reply(Vec<Frame>),
    /// Send these frames, then close the connection.
    ReplyAndClose(Vec<Frame>),
    /// Close the connection without a reply.
    Close,
    /// Register this connection as the push target for `device` and
    /// acknowledge (the gateway updates its device→connection
    /// registry).
    Attach {
        /// The device this connection serves.
        device: u64,
        /// Its firmware cohort.
        cohort: WorkloadId,
    },
    /// Route this operator-plane frame to the campaign engine, which
    /// replies asynchronously on this connection.
    Operator(Frame),
    /// Route this device-plane reply (snapshot / probe / update result,
    /// or a device-scoped shed) to the campaign engine.
    DeviceReply(Frame),
}

/// Per-connection protocol state machine (gateway side). A session
/// holds no per-exchange state: challenges are minted and matched by
/// the engine, so a peer cannot grow gateway memory through it.
#[derive(Debug, Default)]
pub struct Session {
    negotiated: Option<u8>,
}

impl Session {
    /// A fresh, un-negotiated session.
    pub fn new() -> Self {
        Session::default()
    }

    /// `true` once version negotiation succeeded.
    #[cfg(test)]
    fn is_negotiated(&self) -> bool {
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
            // Frames the gateway sends arriving at the gateway are a
            // protocol violation.
            Frame::HelloAck { .. }
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

#[cfg(test)]
mod tests {
    use super::*;
    use eilid_casu::AttestationReport;
    use eilid_fleet::FleetBuilder;

    /// A service provisioned for the LightSensor cohort only.
    fn service() -> AttestationService {
        let (_, mut verifier) =
            FleetBuilder::new(DeviceKey::new(b"fleet-root-key-0123456789abcdef").unwrap())
                .devices(2)
                .threads(1)
                .workloads(&[WorkloadId::LightSensor])
                .build()
                .unwrap();
        AttestationService::new(verifier.service_snapshot(1 << 10))
    }

    fn hello(min_version: u8, max_version: u8) -> Frame {
        Frame::Hello {
            min_version,
            max_version,
        }
    }

    fn negotiated(service: &AttestationService) -> Session {
        let mut session = Session::new();
        let SessionOutput::Reply(frames) =
            session.handle(service, hello(PROTOCOL_VERSION, PROTOCOL_VERSION))
        else {
            panic!("negotiation must succeed");
        };
        assert_eq!(
            frames,
            [Frame::HelloAck {
                version: PROTOCOL_VERSION
            }]
        );
        session
    }

    fn replied_and_closed(output: SessionOutput) -> Vec<Frame> {
        match output {
            SessionOutput::ReplyAndClose(frames) => frames,
            other => panic!("expected a reply and a close, got {other:?}"),
        }
    }

    fn error(code: ErrorCode) -> Frame {
        Frame::Error { code }
    }

    #[test]
    fn version_negotiation_refuses_a_disjoint_range_and_a_second_hello() {
        let service = service();
        let mut session = Session::new();
        let output = session.handle(&service, hello(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 5));
        assert_eq!(
            replied_and_closed(output),
            [error(ErrorCode::UnsupportedVersion)]
        );
        assert!(!session.is_negotiated());

        let mut session = negotiated(&service);
        assert!(session.is_negotiated());
        let output = session.handle(&service, hello(PROTOCOL_VERSION, PROTOCOL_VERSION));
        assert_eq!(
            replied_and_closed(output),
            [error(ErrorCode::UnexpectedFrame)]
        );
    }

    #[test]
    fn a_frame_before_hello_is_not_negotiated() {
        let service = service();
        let output = Session::new().handle(
            &service,
            Frame::Attach {
                device: 0,
                cohort: WorkloadId::LightSensor,
            },
        );
        assert_eq!(
            replied_and_closed(output),
            [error(ErrorCode::NotNegotiated)]
        );
    }

    #[test]
    fn attach_for_an_unprovisioned_cohort_is_a_device_scoped_error() {
        let service = service();
        let mut session = negotiated(&service);
        let output = session.handle(
            &service,
            Frame::Attach {
                device: 0,
                cohort: WorkloadId::FireSensor,
            },
        );
        let SessionOutput::Reply(frames) = output else {
            panic!("a bad attach is answered, not fatal: {output:?}");
        };
        assert_eq!(
            frames,
            [Frame::DeviceError {
                device: 0,
                code: ErrorCode::UnknownCohort,
            }]
        );
        // A provisioned cohort attaches.
        assert!(matches!(
            session.handle(
                &service,
                Frame::Attach {
                    device: 1,
                    cohort: WorkloadId::LightSensor,
                }
            ),
            SessionOutput::Attach { device: 1, .. }
        ));
    }

    #[test]
    fn gateway_to_device_frames_arriving_at_the_gateway_close_the_session() {
        let service = service();
        let challenge = Challenge {
            nonce: 1,
            start: 0xE000,
            end: 0xF7FF,
        };
        for frame in [
            Frame::ProbeRequest {
                device: 0,
                mode: crate::wire::ProbeMode::AttestOnly,
                smoke_cycles: 0,
                challenge,
            },
            Frame::SnapshotRequest {
                device: 0,
                start: 0xE000,
                len: 16,
            },
        ] {
            let output = negotiated(&service).handle(&service, frame);
            assert_eq!(
                replied_and_closed(output),
                [error(ErrorCode::UnexpectedFrame)]
            );
        }
    }

    #[test]
    fn an_update_request_arriving_at_the_gateway_is_unsupported() {
        let service = service();
        let key = service.device_key(0);
        let request = eilid_casu::UpdateAuthority::with_key(&key).authorize(0xF680, &[0xAB]);
        let output = negotiated(&service).handle(
            &service,
            Frame::DeltaUpdateRequest {
                device: 0,
                request: eilid_casu::DeltaUpdateRequest::whole(request),
            },
        );
        let SessionOutput::Reply(frames) = output else {
            panic!("an update request is refused, not fatal: {output:?}");
        };
        assert_eq!(frames, [error(ErrorCode::Unsupported)]);
    }

    #[test]
    fn device_plane_replies_route_to_the_engine() {
        let service = service();
        let mut session = negotiated(&service);
        let ack = Frame::UpdateResult {
            device: 0,
            status: 0,
        };
        assert!(matches!(
            session.handle(&service, ack.clone()),
            SessionOutput::DeviceReply(frame) if frame == ack
        ));
        let probe = Frame::ProbeResult {
            device: 1,
            healthy: 1,
            report: AttestationReport {
                challenge: Challenge {
                    nonce: 1,
                    start: 0xE000,
                    end: 0xF7FF,
                },
                measurement: [0; 32],
                mac: [0; 32],
            },
        };
        assert!(matches!(
            session.handle(&service, probe.clone()),
            SessionOutput::DeviceReply(frame) if frame == probe
        ));
        assert!(matches!(
            session.handle(&service, Frame::OpAggSweep),
            SessionOutput::Operator(Frame::OpAggSweep)
        ));
    }
}
