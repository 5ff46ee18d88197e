//! The gateway's campaign engine: the wire-driven [`WaveExecutor`]
//! behind the networked operator plane.
//!
//! One machine, two drivers: the campaign decisions
//! ([`CampaignRun::step_with`]) and the per-device protocol
//! ([`Rollout`]) are the exact code the in-process backend runs. This
//! engine is the second driver — it carries the machine's requests to
//! the device connections registered in the gateway's [`Registry`] and
//! feeds the replies back:
//!
//! ```text
//!  operator conn ── OpStep ──▶ engine ── SnapshotRequest ─────▶ device conns
//!                                │  ◀── SnapshotReport ─────────┘
//!                                ├── DeltaUpdateRequest ─▶  … ◀── UpdateResult
//!                                ├── ProbeRequest ───────▶  … ◀── ProbeResult
//!                                ▼
//!                        CampaignStatus (wave boundary) ─▶ operator conn
//! ```
//!
//! The reactor thread never blocks on campaign work: operator frames
//! and device replies reach the engine thread over an mpsc channel.
//! The engine keeps only transport concerns: waves are *streamed* (each
//! device advances the moment its reply lands, admission capped by a
//! per-connection window, [`ENGINE_WAVE_WINDOW`]), bursts of replies
//! are drained into one coalesced write, the idle deadline extends on
//! progress, a closed connection fails its devices fast, and the
//! phase-latency and update-byte metrics are recorded here. A device agent that cannot
//! serve a push right now sheds it with a device-scoped
//! [`Frame::DeviceError`] `Busy`; the engine re-pushes it after a
//! bounded exponential backoff scheduled *inside its event loop* (the
//! thread keeps draining other devices' replies — it never sleeps
//! through a backoff) — backpressure is a scheduling signal, not a
//! health verdict. Rollback passes stream the same way.
//!
//! The one sweep verb, `OpAggSweep`, is one probe exchange: every probe
//! is pushed at once, `Busy` sheds go through the same retry heap, and
//! the idle deadline extends on progress. Each burst of replies is
//! verified and hashed into evidence leaves on the engine thread the
//! moment it lands, so the gateway's MAC checks and leaf hashes overlap
//! the agents' attestation; only the shard trees' interior nodes and at
//! most `SHARD_COUNT` root MACs follow the last reply.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eilid_casu::agg::{evidence_leaf, missing_leaf, AggProof, EvidenceTree};
use eilid_casu::{AttestationReport, Challenge, DeviceKey};
use eilid_fleet::rollout::{Next, BUSY_RETRIES};
use eilid_fleet::{
    Campaign, CampaignRun, CohortInfo, DeviceId, FleetError, HealthClass, Ledger, LedgerEvent,
    PausedCampaign, Reply, Request, Rollout, RolloutKeys, WaveExecutor, SHARD_COUNT,
};
use eilid_workloads::WorkloadId;

use eilid_fleet::ops::class_index;

use crate::gateway::GatewayCounters;
use crate::metrics::{NetMetrics, TRACE_CAT_ENGINE, TRACE_ENGINE_WAVE};
use crate::poller::Waker;
use crate::service::{health_to_wire, AttestationService, VerifyTask};
use crate::wire::{
    CampaignOp, ErrorCode, Frame, ProbeMode, WireHealth, CAMPAIGN_STATE_FINISHED,
    CAMPAIGN_STATE_IDLE, CAMPAIGN_STATE_PAUSED, CAMPAIGN_STATE_RUNNING,
};

/// How many times the engine re-pushes an exchange a device agent shed
/// with a device-scoped `Busy` before giving up on that device.
pub const ENGINE_BUSY_RETRIES: usize = BUSY_RETRIES;

/// Per-connection cap on devices concurrently in flight during a
/// streamed campaign wave: enough to keep every agent's serve loop
/// saturated, small enough that one connection's outbox never
/// balloons.
pub const ENGINE_WAVE_WINDOW: usize = 32;

/// Bounded exponential backoff before re-pushing a `Busy`-shed frame
/// (`attempts` counts from 1).
fn busy_backoff(attempts: usize) -> Duration {
    Duration::from_micros(500)
        .saturating_mul(1 << (attempts - 1).min(8) as u32)
        .min(Duration::from_millis(50))
}

/// The gateway's device→connection registry: which connection serves
/// which attached device, and under which cohort. Written by the
/// reactor (attach frames, connection drops), read by the engine when
/// it pushes campaign work.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    devices: HashMap<DeviceId, (u64, WorkloadId)>,
}

impl Registry {
    /// Registers (or re-homes) `device` on `conn`.
    pub(crate) fn attach(&mut self, device: DeviceId, conn: u64, cohort: WorkloadId) {
        self.devices.insert(device, (conn, cohort));
    }

    /// Drops every registration served by `conn`.
    pub(crate) fn drop_conn(&mut self, conn: u64) {
        self.devices.retain(|_, (c, _)| *c != conn);
    }

    /// Registered devices.
    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    fn conn_of(&self, device: DeviceId) -> Option<u64> {
        self.devices.get(&device).map(|(conn, _)| *conn)
    }

    /// Device ids attached under `cohort`, in id order — the wave
    /// partition input, mirroring `Fleet::cohort_members`.
    fn members_of(&self, cohort: WorkloadId) -> Vec<DeviceId> {
        let mut members: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|(_, (_, c))| *c == cohort)
            .map(|(device, _)| *device)
            .collect();
        members.sort_unstable();
        members
    }

    /// Every registration as `(device, cohort)`, in id order.
    fn all(&self) -> Vec<(DeviceId, WorkloadId)> {
        let mut all: Vec<(DeviceId, WorkloadId)> = self
            .devices
            .iter()
            .map(|(device, (_, cohort))| (*device, *cohort))
            .collect();
        all.sort_unstable_by_key(|(device, _)| *device);
        all
    }
}

/// What the reactor routes to the engine.
#[derive(Debug)]
pub(crate) enum EngineInput {
    /// An operator-plane command, with the connection to answer on.
    Operator {
        /// The operator's connection token.
        conn: u64,
        /// The command frame.
        frame: Frame,
    },
    /// A device-plane reply to an engine push.
    Device {
        /// The reply frame.
        frame: Frame,
    },
    /// A batch of device-plane replies decoded in one reactor pass —
    /// one channel message (and one receiver wake) for the lot, in
    /// arrival order.
    Devices(Vec<Frame>),
    /// A connection disappeared (its registrations are already gone
    /// from the registry); pending exchanges on it should fail fast.
    ConnClosed(#[allow(dead_code)] u64),
}

/// One cohort's campaign slot: at most one loaded run, plus the
/// gateway-retained paused record for in-place resume.
#[derive(Debug, Default)]
struct CampaignSlot {
    run: Option<CampaignRun>,
    paused: Option<PausedCampaign>,
}

/// Per-device challenges minted for one sweep round, keyed by device
/// with the cohort each challenge was drawn from.
type SweepChallenges = BTreeMap<DeviceId, (WorkloadId, Challenge)>;

/// One sweep's verdicts, filled as probe replies land: each answering
/// device's class and the evidence leaf of the report it was drawn from.
type SweepVerdicts = HashMap<DeviceId, (HealthClass, [u8; 32])>;

/// The engine proper: one per gateway, on its own thread.
pub(crate) struct OpsEngine {
    service: Arc<AttestationService>,
    registry: Arc<Mutex<Registry>>,
    rx: Receiver<EngineInput>,
    out: Sender<Vec<(u64, Frame)>>,
    waker: Waker,
    /// Idle ceiling per device exchange: the deadline extends on every
    /// received reply, so big waves are bounded by per-device progress,
    /// not wave size.
    timeout: Duration,
    campaigns: BTreeMap<WorkloadId, CampaignSlot>,
    ledger: Ledger,
    /// The reactor's counters, read for [`Frame::OpHealthResult`]'s
    /// supervision fields and the metrics scrape.
    counters: Arc<GatewayCounters>,
    /// Set on [`Frame::OpDrain`]; the reactor's accept path reads it.
    draining: Arc<AtomicBool>,
    /// The gateway's telemetry hub: wave-phase histograms and busy
    /// retries recorded here, the whole registry rendered on
    /// [`Frame::OpMetrics`].
    metrics: Arc<NetMetrics>,
}

impl OpsEngine {
    /// Spawns the engine thread. It exits when every sender of `rx`
    /// (held by the gateway) is dropped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        service: Arc<AttestationService>,
        registry: Arc<Mutex<Registry>>,
        rx: Receiver<EngineInput>,
        out: Sender<Vec<(u64, Frame)>>,
        waker: Waker,
        timeout: Duration,
        counters: Arc<GatewayCounters>,
        draining: Arc<AtomicBool>,
        metrics: Arc<NetMetrics>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name("eilid-ops".into())
            .spawn(move || {
                OpsEngine {
                    service,
                    registry,
                    rx,
                    out,
                    waker,
                    timeout,
                    campaigns: BTreeMap::new(),
                    ledger: Ledger::default(),
                    counters,
                    draining,
                    metrics,
                }
                .run();
            })
            .expect("spawning the ops engine thread")
    }

    fn run(mut self) {
        while let Ok(input) = self.rx.recv() {
            match input {
                EngineInput::Operator { conn, frame } => self.handle_operator(conn, frame),
                // Device replies outside an exchange (a late probe
                // result after a timeout, an unsolicited ack) carry no
                // pending state; drop them.
                EngineInput::Device { .. }
                | EngineInput::Devices(_)
                | EngineInput::ConnClosed(_) => {}
            }
        }
    }

    /// Queues one frame to `conn` through the reactor.
    fn send(&self, conn: u64, frame: Frame) {
        let _ = self.out.send(vec![(conn, frame)]);
        self.waker.wake();
    }

    fn send_error(&self, conn: u64, code: ErrorCode) {
        self.send(conn, Frame::Error { code });
    }

    fn status_frame(&self, cohort: WorkloadId) -> Frame {
        let (state, wave_cursor) = match self.campaigns.get(&cohort) {
            Some(slot) => match (&slot.run, &slot.paused) {
                (Some(run), _) if run.is_finished() => {
                    (CAMPAIGN_STATE_FINISHED, run.wave_cursor() as u32)
                }
                (Some(run), _) => (CAMPAIGN_STATE_RUNNING, run.wave_cursor() as u32),
                (None, Some(paused)) => (CAMPAIGN_STATE_PAUSED, paused.wave_cursor() as u32),
                (None, None) => (CAMPAIGN_STATE_IDLE, 0),
            },
            None => (CAMPAIGN_STATE_IDLE, 0),
        };
        Frame::CampaignStatus {
            cohort,
            state,
            wave_cursor,
        }
    }

    /// `true` when `cohort`'s slot holds an unfinished run or a
    /// retained pause — a finished run only keeps its report readable,
    /// and the next begin or resume replaces it.
    fn slot_busy(&self, cohort: WorkloadId) -> bool {
        self.campaigns
            .get(&cohort)
            .is_some_and(|slot| match &slot.run {
                Some(run) => !run.is_finished(),
                None => slot.paused.is_some(),
            })
    }

    /// Loads `run` into `cohort`'s slot, dropping a finished run and any
    /// checkpoint retained for it.
    fn load(&mut self, cohort: WorkloadId, run: CampaignRun) {
        self.campaigns.insert(
            cohort,
            CampaignSlot {
                run: Some(run),
                paused: None,
            },
        );
    }

    fn handle_operator(&mut self, conn: u64, frame: Frame) {
        match frame {
            Frame::OpBegin { config } => {
                let cohort = config.cohort;
                if self.slot_busy(cohort) {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                match Campaign::new(config).and_then(|campaign| campaign.begin_with(&mut *self)) {
                    Ok(run) => {
                        self.load(cohort, run);
                        let status = self.status_frame(cohort);
                        self.send(conn, status);
                    }
                    Err(FleetError::UnknownCohort(_)) => {
                        self.send_error(conn, ErrorCode::UnknownCohort)
                    }
                    Err(_) => self.send_error(conn, ErrorCode::Unsupported),
                }
            }
            Frame::OpStep { cohort } => {
                let Some(mut run) = self
                    .campaigns
                    .get_mut(&cohort)
                    .and_then(|slot| slot.run.take())
                else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                let result = run.step_with(&mut *self);
                self.campaigns.entry(cohort).or_default().run = Some(run);
                match result {
                    Ok(_) => {
                        // The wave boundary: emit CampaignStatus to the
                        // operator (running or finished).
                        let status = self.status_frame(cohort);
                        self.send(conn, status);
                    }
                    // A backend-level wave failure (exhausted nonce
                    // block); the run state is intact, so the operator
                    // may retry.
                    Err(_) => self.send_error(conn, ErrorCode::Busy),
                }
            }
            Frame::OpResume { paused } => {
                let Ok(paused) = PausedCampaign::from_bytes(&paused) else {
                    return self.send_error(conn, ErrorCode::Unsupported);
                };
                let cohort = paused.cohort();
                if self.slot_busy(cohort) {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                self.load(cohort, Campaign::resume(paused));
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            Frame::CampaignControl { cohort, op } => self.handle_control(conn, cohort, op),
            Frame::OpAggSweep => self.handle_agg_sweep(conn),
            Frame::OpHealth => {
                let attached = self.registry.lock().expect("registry lock").len() as u32;
                let active = self
                    .campaigns
                    .values()
                    .filter(|slot| slot.run.is_some())
                    .count() as u32;
                let paused = self
                    .campaigns
                    .values()
                    .filter(|slot| slot.paused.is_some())
                    .count() as u32;
                self.send(
                    conn,
                    Frame::OpHealthResult {
                        attached,
                        active_campaigns: active,
                        paused_campaigns: paused,
                        ledger_events: self.ledger.events().len() as u32,
                        live_sessions: self.counters.live_connections.load(Ordering::Relaxed)
                            as u32,
                    },
                );
            }
            Frame::OpDrain => {
                // Planned maintenance: refuse new peers from here on,
                // pause every running campaign between waves, and hand
                // all retained records back so a supervisor can re-seed
                // a replacement gateway via `OpResume`.
                self.draining.store(true, Ordering::Relaxed);
                self.waker.wake();
                let mut records: Vec<(WorkloadId, Vec<u8>)> = Vec::new();
                for (&cohort, slot) in self.campaigns.iter_mut() {
                    if let Some(run) = slot.run.take() {
                        if run.is_finished() {
                            // Nothing left to move; the report stays
                            // queryable until shutdown.
                            slot.run = Some(run);
                            continue;
                        }
                        slot.paused = Some(run.pause());
                    }
                    if let Some(paused) = slot.paused.as_ref() {
                        records.push((cohort, paused.to_bytes()));
                    }
                }
                // The frame ceiling bounds what can cross the wire;
                // records past it stay gateway-retained (exactly like
                // the oversized-Pause path) rather than producing an
                // unframeable reply.
                let mut total = 0usize;
                records.retain(|(_, bytes)| {
                    total += 5 + bytes.len();
                    total <= crate::wire::MAX_OP_PAYLOAD - 4
                });
                self.send(conn, Frame::OpDrained { paused: records });
            }
            Frame::OpCheckpoint { cohort, fetch } => {
                let Some(slot) = self.campaigns.get_mut(&cohort) else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                let (state, record) = match slot.run.take() {
                    Some(run) => {
                        if run.is_finished() {
                            slot.run = Some(run);
                            return self.send_error(conn, ErrorCode::NoCampaign);
                        }
                        // Checkpoint without stopping: snapshot the run
                        // through its pause format and resume the same
                        // bytes in place — the campaign keeps stepping
                        // while the gateway retains the record for a
                        // failover resume.
                        let paused = run.pause();
                        let bytes = paused.to_bytes();
                        let resumed = PausedCampaign::from_bytes(&bytes)
                            .expect("checkpoint record round-trips");
                        slot.run = Some(Campaign::resume(resumed));
                        slot.paused = Some(paused);
                        (CAMPAIGN_STATE_RUNNING, bytes)
                    }
                    None => match slot.paused.as_ref() {
                        Some(paused) => (CAMPAIGN_STATE_PAUSED, paused.to_bytes()),
                        None => return self.send_error(conn, ErrorCode::NoCampaign),
                    },
                };
                let paused = if fetch != 0 { record } else { Vec::new() };
                if paused.len() > crate::wire::MAX_OP_PAYLOAD {
                    // Retained fine, but unframeable on the wire — same
                    // discipline as the oversized-Pause path.
                    return self.send_error(conn, ErrorCode::Unsupported);
                }
                self.send(
                    conn,
                    Frame::OpCheckpointAck {
                        cohort,
                        state,
                        paused,
                    },
                );
            }
            Frame::OpMetrics => {
                // Render the whole registry (plus the pre-registry
                // atomics) as the compact JSON the operator plane parses
                // back.
                let snapshot = self
                    .metrics
                    .snapshot(&self.counters, &self.service)
                    .to_json()
                    .into_bytes();
                if snapshot.len() > crate::wire::MAX_OP_PAYLOAD {
                    // Unframeable reply (would need ~50k distinct
                    // metric names); refuse rather than truncate.
                    return self.send_error(conn, ErrorCode::Unsupported);
                }
                self.send(conn, Frame::OpMetricsResult { snapshot });
            }
            // The session only routes the frames above.
            _ => self.send_error(conn, ErrorCode::UnexpectedFrame),
        }
    }

    /// Records one finished streamed wave into the trace ring. The
    /// per-phase latency histograms are fed per *device* (push →
    /// reply) by the wave loop; this is the wave-level span.
    fn note_wave(&self, started: Instant, devices: usize) {
        let elapsed = started.elapsed();
        self.metrics.trace().record(
            TRACE_CAT_ENGINE,
            TRACE_ENGINE_WAVE,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            devices as u64,
        );
    }

    fn handle_control(&mut self, conn: u64, cohort: WorkloadId, op: CampaignOp) {
        match op {
            CampaignOp::Pause => {
                let Some(run) = self
                    .campaigns
                    .get_mut(&cohort)
                    .and_then(|slot| slot.run.take())
                else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                if run.is_finished() {
                    // A finished run has nothing left to pause.
                    self.campaigns.entry(cohort).or_default().run = Some(run);
                    return self.send_error(conn, ErrorCode::NoCampaign);
                }
                let paused = run.pause();
                let bytes = paused.to_bytes();
                self.campaigns.entry(cohort).or_default().paused = Some(paused);
                // A record past the operator-plane frame ceiling cannot
                // cross the wire; the gateway still retains it (the
                // in-place Resume path keeps working) and tells the
                // operator with a typed error instead of emitting an
                // unframeable reply.
                if bytes.len() > crate::wire::MAX_OP_PAYLOAD {
                    return self.send_error(conn, ErrorCode::Unsupported);
                }
                self.send(
                    conn,
                    Frame::OpPaused {
                        cohort,
                        paused: bytes,
                    },
                );
            }
            CampaignOp::Resume => {
                if self
                    .campaigns
                    .get(&cohort)
                    .is_some_and(|slot| slot.run.is_some())
                {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                let Some(paused) = self
                    .campaigns
                    .get_mut(&cohort)
                    .and_then(|slot| slot.paused.take())
                else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                self.load(cohort, Campaign::resume(paused));
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            CampaignOp::Status => {
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            CampaignOp::Report => {
                let report = self
                    .campaigns
                    .get(&cohort)
                    .and_then(|slot| slot.run.as_ref())
                    .and_then(CampaignRun::report);
                match report {
                    Some(report) => self.send(conn, Frame::OpReport { cohort, report }),
                    None => self.send_error(conn, ErrorCode::NoCampaign),
                }
            }
        }
    }

    /// Mints the probe requests for one sweep round: every device in a
    /// cohort is challenged with the same round nonce (SEDA-style).
    /// Per-device MAC keys already rule out cross-device replay, the
    /// exchange's pending map drops duplicate replies, and nonces still
    /// only move forward across rounds — so a 1000-device sweep consumes
    /// one nonce per cohort instead of one per device. A cohort whose
    /// mint fails (unprovisioned, nonces exhausted) is skipped once, not
    /// retried per device.
    fn sweep_requests(&self) -> (SweepChallenges, Vec<(DeviceId, Frame)>) {
        let targets = self.registry.lock().expect("registry lock").all();
        let mut round: BTreeMap<WorkloadId, Option<Challenge>> = BTreeMap::new();
        let mut challenges: BTreeMap<DeviceId, (WorkloadId, Challenge)> = BTreeMap::new();
        let mut requests = Vec::with_capacity(targets.len());
        for (device, cohort) in targets {
            let challenge = match round
                .entry(cohort)
                .or_insert_with(|| self.service.challenge_for(cohort).ok())
            {
                Some(challenge) => *challenge,
                None => continue,
            };
            challenges.insert(device, (cohort, challenge));
            requests.push((
                device,
                Frame::ProbeRequest {
                    device,
                    mode: ProbeMode::AttestOnly,
                    smoke_cycles: 0,
                    challenge,
                },
            ));
        }
        (challenges, requests)
    }

    /// Probes every device `requests` names and verifies each reactor
    /// burst of replies the moment it lands, while the agents are still
    /// attesting the rest: one [`AttestationService::verify_batch`] per
    /// burst, sorted by key shard so each burst takes the cohort lock
    /// once and each shard lock once, then each report hashed into its
    /// [`evidence_leaf`]. Returns the verdict and leaf of every device
    /// that answered, plus when the last reply landed. A device absent
    /// from the verdicts lost or shed its probe.
    fn probe_and_verify(
        &self,
        challenges: &SweepChallenges,
        requests: Vec<(DeviceId, Frame)>,
    ) -> (SweepVerdicts, Option<Instant>) {
        let service = &*self.service;
        let provider = service.provider();
        let metrics = &*self.metrics;
        let mut verdicts = SweepVerdicts::with_capacity(challenges.len());
        let mut tasks: Vec<VerifyTask> = Vec::new();
        let last_reply = self.exchange(requests, |burst| {
            tasks.clear();
            tasks.extend(burst.iter().filter_map(|&(device, report)| {
                let &(cohort, issued) = challenges.get(&device)?;
                Some(VerifyTask {
                    device,
                    cohort,
                    issued,
                    report,
                })
            }));
            tasks.sort_by_key(|task| task.device % SHARD_COUNT as u64);
            metrics.verify_batch_size.record(tasks.len() as u64);
            let started = Instant::now();
            let classes = service.verify_batch(&tasks);
            metrics
                .verify_batch_us
                .record_duration_us(started.elapsed());
            for (task, (class, _)) in tasks.iter().zip(classes) {
                let leaf = evidence_leaf(&**provider, task.device, &task.report);
                verdicts.insert(task.device, (class, leaf));
            }
        });
        (verdicts, last_reply)
    }

    /// Sends a sweep's result frame and records the sweep's engine wall
    /// time and its verify tail (last accepted reply → result sent).
    fn send_sweep_result(
        &self,
        conn: u64,
        result: Frame,
        started: Instant,
        last_reply: Option<Instant>,
    ) {
        self.send(conn, result);
        let micros = |elapsed: Duration| u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.metrics.sweep_us.record(micros(started.elapsed()));
        if let Some(last_reply) = last_reply {
            self.metrics
                .sweep_verify_tail_us
                .record(micros(last_reply.elapsed()));
        }
    }

    /// Gateway-driven sweep: push an attest-only probe to every attached
    /// device and verify and classify each reply exactly as the
    /// in-process verifier would (same keys, same golden histories, same
    /// classification rule). Instead of shipping a per-device verdict
    /// list, fold each shard's evidence into an [`EvidenceTree`] and
    /// publish one MAC'd [`AggProof`] per shard. The operator verifies
    /// at most [`SHARD_COUNT`] aggregate MACs; only non-Attested devices (and
    /// lost probes) appear individually, in the suspect list. Every
    /// per-device report MAC is still verified *here*, at the gateway —
    /// aggregation compresses the operator's work and the result frame,
    /// never the trust checks.
    ///
    /// The sweep epoch is the service's nonce watermark taken before any
    /// challenge is minted: challenge nonces only move forward, so a
    /// replayed aggregate from an earlier sweep can never carry the
    /// current epoch.
    fn handle_agg_sweep(&mut self, conn: u64) {
        let started = Instant::now();
        let epoch = self.service.nonce_watermark();
        let (challenges, requests) = self.sweep_requests();
        let (verdicts, last_reply) = self.probe_and_verify(&challenges, requests);

        // Canonical order: ascending device id within each shard. The
        // challenge map iterates ascending, so pushing in iteration
        // order keeps every shard's member list sorted.
        let mut shards: BTreeMap<u16, Vec<DeviceId>> = BTreeMap::new();
        for device in challenges.keys() {
            shards
                .entry((device % SHARD_COUNT as u64) as u16)
                .or_default()
                .push(*device);
        }

        let provider = Arc::clone(self.service.provider());
        let mut counts = [0u32; 4];
        let mut suspects: Vec<(u64, WireHealth)> = Vec::new();
        let mut proofs = Vec::with_capacity(shards.len());
        let mut short_circuited: u64 = 0;
        for (shard, members) in &shards {
            let suspects_before = suspects.len();
            let mut leaves = Vec::with_capacity(members.len());
            for device in members {
                let class = match verdicts.get(device) {
                    Some((class, leaf)) => {
                        leaves.push(*leaf);
                        *class
                    }
                    // A lost or shed probe is a failed verification; its
                    // slot holds the domain-separated missing leaf so
                    // the tree geometry matches the participant list.
                    None => {
                        leaves.push(missing_leaf(&*provider, *device));
                        HealthClass::Unverified
                    }
                };
                counts[class_index(class)] += 1;
                if class != HealthClass::Attested {
                    suspects.push((*device, health_to_wire(class)));
                }
            }
            let tree = EvidenceTree::from_leaves(&*provider, &leaves);
            let key = self.service.agg_shard_key(*shard);
            proofs.push(AggProof::sign(
                &*provider,
                &key,
                *shard,
                epoch,
                members.len() as u32,
                tree.root(),
            ));
            if suspects.len() == suspects_before {
                short_circuited += members.len() as u64;
            }
        }
        suspects.sort_by_key(|(device, _)| *device);

        // Participant bitmap: bit (id - base) set for every device the
        // sweep actually challenged, so the operator can tell "absent
        // from the fleet" apart from "hidden by a forged aggregate".
        let bitmap_base = challenges.keys().next().copied().unwrap_or(0);
        let bitmap_len = challenges
            .keys()
            .next_back()
            .map_or(0, |last| ((last - bitmap_base) / 8 + 1) as usize);
        let mut bitmap = vec![0u8; bitmap_len];
        for device in challenges.keys() {
            let bit = device - bitmap_base;
            bitmap[(bit / 8) as usize] |= 1 << (bit % 8);
        }

        self.metrics.agg_sweeps.inc();
        self.metrics.agg_roots_published.add(proofs.len() as u64);
        self.metrics.agg_suspects.add(suspects.len() as u64);
        self.metrics.agg_short_circuited.add(short_circuited);

        let result = Frame::OpAggSweepResult {
            epoch,
            devices: challenges.len() as u32,
            counts,
            bitmap_base,
            bitmap,
            proofs,
            suspects,
        };
        self.send_sweep_result(conn, result, started, last_reply);
    }

    /// Pushes one probe request per device and streams the replies into
    /// `sink` as they land. Each accepted reply — a probe result for a
    /// device still pending, so duplicates and strays are dropped —
    /// reaches `sink` exactly once; a call carries the accepted replies
    /// of one reactor burst, in arrival order. Device-scoped `Busy`
    /// sheds are re-pushed after a bounded exponential backoff that is
    /// scheduled *inside* the event loop (a due-time heap bounds
    /// `recv_timeout`), so one busy device never blocks the thread from
    /// draining every other device's reply. Devices whose connection is
    /// gone, that refuse the push, or that never answer within the idle
    /// timeout never reach `sink`; the callers turn that into per-device
    /// failures. If the reactor is gone the exchange ends at once.
    ///
    /// Returns when the last accepted reply landed (`None` if none did).
    fn exchange(
        &self,
        requests: Vec<(DeviceId, Frame)>,
        mut sink: impl FnMut(&[(DeviceId, AttestationReport)]),
    ) -> Option<Instant> {
        let mut pending: HashMap<DeviceId, Frame> = HashMap::with_capacity(requests.len());
        let mut retries: HashMap<DeviceId, usize> = HashMap::new();
        let mut retry_at: BinaryHeap<Reverse<(Instant, DeviceId)>> = BinaryHeap::new();
        let mut accepted: Vec<(DeviceId, AttestationReport)> = Vec::new();
        let mut last_reply = None;

        // Initial push, one coalesced completions message for the lot.
        let mut batch: Vec<(u64, Frame)> = Vec::with_capacity(requests.len());
        {
            let registry = self.registry.lock().expect("registry lock");
            for (device, frame) in requests {
                let Some(conn) = registry.conn_of(device) else {
                    continue; // unreachable device: never answers
                };
                batch.push((conn, frame.clone()));
                pending.insert(device, frame);
            }
        }
        if batch.is_empty() || !self.push_to_reactor(batch) {
            return None;
        }

        // The deadline extends on progress: a wave of 1000 devices gets
        // `timeout` of *idle* tolerance, not `timeout` total.
        let mut deadline = Instant::now() + self.timeout;
        while !pending.is_empty() {
            // Re-push every backoff that has come due.
            let now = Instant::now();
            while let Some(&Reverse((when, device))) = retry_at.peek() {
                if when > now {
                    break;
                }
                retry_at.pop();
                let Some(request) = pending.get(&device).cloned() else {
                    continue;
                };
                match self.conn_of(device) {
                    Some(conn) => {
                        if !self.push_to_reactor(vec![(conn, request)]) {
                            return last_reply;
                        }
                        deadline = now + self.timeout;
                    }
                    None => {
                        pending.remove(&device);
                    }
                }
            }
            if pending.is_empty() || now >= deadline {
                break;
            }
            let wake_at = retry_at
                .peek()
                .map_or(deadline, |&Reverse((when, _))| deadline.min(when));
            let frames = match self.rx.recv_timeout(wake_at.saturating_duration_since(now)) {
                Ok(EngineInput::Device { frame }) => vec![frame],
                // A reactor pass delivers a whole burst of replies as
                // one message; process them in arrival order.
                Ok(EngineInput::Devices(frames)) => frames,
                // An operator command arriving mid-wave: the engine is
                // single-threaded by design (campaign semantics are
                // strictly wave-ordered), so answer Busy immediately
                // instead of queueing it behind the wave.
                Ok(EngineInput::Operator { conn, .. }) => {
                    self.send_error(conn, ErrorCode::Busy);
                    continue;
                }
                Ok(EngineInput::ConnClosed(_)) => {
                    // Fail-fast every pending device that lost its
                    // connection (the reactor already cleaned the
                    // registry).
                    let registry = self.registry.lock().expect("registry lock");
                    pending.retain(|device, _| registry.conn_of(*device).is_some());
                    continue;
                }
                // A timeout here may just be a backoff coming due; the
                // loop head re-pushes it and the deadline check decides.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // One clock read per burst: progress anywhere in it extends
            // the idle deadline for the whole wave.
            let arrived = Instant::now();
            for frame in frames {
                match frame {
                    // Only a reply for a still-pending device counts:
                    // duplicates and strays drop here.
                    Frame::ProbeResult { device, report, .. }
                        if pending.remove(&device).is_some() =>
                    {
                        accepted.push((device, report));
                    }
                    // A non-retryable device-scoped error (unknown
                    // device, refused push) fails that device fast — it
                    // must not stall the wave for the idle timeout.
                    Frame::DeviceError { device, code }
                        if code != ErrorCode::Busy && pending.remove(&device).is_some() =>
                    {
                        deadline = arrived + self.timeout;
                    }
                    // A busy shed is scheduled for a backoff retry,
                    // never counted as a failure — and never slept on:
                    // the loop keeps serving other devices.
                    Frame::DeviceError {
                        device,
                        code: ErrorCode::Busy,
                    } if pending.contains_key(&device) => {
                        let attempts = retries.entry(device).or_insert(0);
                        *attempts += 1;
                        self.metrics.engine_busy_retries.inc();
                        if *attempts > ENGINE_BUSY_RETRIES {
                            pending.remove(&device);
                        } else {
                            retry_at.push(Reverse((arrived + busy_backoff(*attempts), device)));
                        }
                    }
                    _ => {}
                }
            }
            if !accepted.is_empty() {
                deadline = arrived + self.timeout;
                last_reply = Some(arrived);
                sink(&accepted);
                accepted.clear();
            }
        }
        last_reply
    }

    /// Hands `batch` to the reactor and wakes it. `false` when the
    /// reactor is gone: the frames can never be written, so the caller
    /// stops waiting for replies (counted as a lost reactor).
    fn push_to_reactor(&self, batch: Vec<(u64, Frame)>) -> bool {
        if self.out.send(batch).is_err() {
            self.metrics.engine_reactor_lost.inc();
            return false;
        }
        self.waker.wake();
        true
    }

    fn conn_of(&self, device: DeviceId) -> Option<u64> {
        self.registry.lock().expect("registry lock").conn_of(device)
    }

    /// Pushes a fresh request from the machine to its device's
    /// connection; a connectionless device is retired on the spot.
    fn push(
        &self,
        request: Request,
        rollout: &mut Rollout<'_>,
        pushed_at: &mut HashMap<DeviceId, Instant>,
        outbox: &mut Vec<(u64, Frame)>,
    ) {
        let device = request.device();
        match self.conn_of(device) {
            Some(conn) => {
                pushed_at.insert(device, Instant::now());
                outbox.push((conn, Frame::from(request)));
            }
            None => {
                rollout.lost(device);
            }
        }
    }

    fn flush(&self, outbox: &mut Vec<(u64, Frame)>) {
        if !outbox.is_empty() {
            let _ = self.out.send(std::mem::take(outbox));
            self.waker.wake();
        }
    }

    /// Streams one wave (or rollback pass) over the device plane. Each
    /// device advances the moment its reply lands; admission is capped
    /// at [`ENGINE_WAVE_WINDOW`] per agent connection; `Busy` sheds are
    /// re-pushed from a due-time heap without ever sleeping the thread;
    /// the idle deadline extends on every accepted reply; devices whose
    /// connection closes, or that refuse a push, retire as lost.
    fn stream(&mut self, rollout: &mut Rollout<'_>) {
        let started = Instant::now();
        let service = Arc::clone(&self.service);
        let metrics = Arc::clone(&self.metrics);
        let mut keys = ServiceKeys(&service);
        let window = {
            let registry = self.registry.lock().expect("registry lock");
            let mut conns: Vec<u64> = rollout
                .devices()
                .iter()
                .filter_map(|&device| registry.conn_of(device))
                .collect();
            conns.sort_unstable();
            conns.dedup();
            ENGINE_WAVE_WINDOW * conns.len().max(1)
        };
        let mut pushed_at: HashMap<DeviceId, Instant> = HashMap::new();
        let mut retry_at: BinaryHeap<Reverse<(Instant, DeviceId)>> = BinaryHeap::new();
        let mut outbox: Vec<(u64, Frame)> = Vec::new();
        let mut deadline = Instant::now() + self.timeout;

        while !rollout.is_done() {
            let now = Instant::now();
            // Re-push every backoff that has come due.
            while let Some(&Reverse((when, device))) = retry_at.peek() {
                if when > now {
                    break;
                }
                retry_at.pop();
                let Some(request) = rollout.in_flight(device).cloned() else {
                    continue;
                };
                match self.conn_of(device) {
                    Some(conn) => {
                        outbox.push((conn, Frame::from(request)));
                        deadline = now + self.timeout;
                    }
                    None => {
                        rollout.lost(device);
                    }
                }
            }
            // Admit queued devices into freed window slots.
            while rollout.live() < window {
                let Some(request) = rollout.admit() else {
                    break;
                };
                self.push(request, rollout, &mut pushed_at, &mut outbox);
            }
            self.flush(&mut outbox);
            let now = Instant::now();
            if rollout.is_done() || now >= deadline {
                break;
            }
            let wake_at = retry_at
                .peek()
                .map_or(deadline, |&Reverse((when, _))| deadline.min(when));
            let first = match self.rx.recv_timeout(wake_at.saturating_duration_since(now)) {
                Ok(input) => input,
                // Possibly just a backoff coming due; the loop head
                // re-pushes it and the deadline check decides.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // Drain the burst that is already queued so one coalesced
            // completions message carries every frame this pass
            // produces, handled in arrival order — processing a
            // ConnClosed ahead of a same-burst reply would misclassify
            // an answered device.
            let mut burst = vec![first];
            burst.extend(std::iter::from_fn(|| self.rx.try_recv().ok()).take(1023));
            for input in burst {
                let frames = match input {
                    // The engine is single-threaded by design (campaign
                    // semantics are strictly wave-ordered): operator
                    // commands mid-wave answer Busy immediately.
                    EngineInput::Operator { conn, .. } => {
                        self.send_error(conn, ErrorCode::Busy);
                        continue;
                    }
                    EngineInput::ConnClosed(_) => {
                        let registry = self.registry.lock().expect("registry lock");
                        let gone: Vec<DeviceId> = rollout
                            .devices()
                            .iter()
                            .copied()
                            .filter(|&device| registry.conn_of(device).is_none())
                            .collect();
                        for device in gone {
                            rollout.lost(device);
                        }
                        continue;
                    }
                    EngineInput::Device { frame } => vec![frame],
                    EngineInput::Devices(frames) => frames,
                };
                for frame in frames {
                    if let Frame::DeviceError { device, code } = frame {
                        if code != ErrorCode::Busy {
                            // Non-retryable: fail that device fast.
                            if rollout.lost(device) {
                                deadline = Instant::now() + self.timeout;
                            }
                        } else {
                            // A busy shed is a scheduling signal, not a
                            // health verdict: back off and keep draining
                            // everyone else.
                            match rollout.busy(device) {
                                Next::Retry(attempts) => {
                                    self.metrics.engine_busy_retries.inc();
                                    let due = Instant::now() + busy_backoff(attempts);
                                    retry_at.push(Reverse((due, device)));
                                }
                                Next::Retired => self.metrics.engine_busy_retries.inc(),
                                _ => {}
                            }
                        }
                        continue;
                    }
                    let Some((device, reply)) = frame.into_reply() else {
                        continue;
                    };
                    let phase = match reply {
                        Reply::Snapshot { .. } => &metrics.phase_snapshot_us,
                        Reply::Update(_) => &metrics.phase_update_us,
                        Reply::Probe { .. } => &metrics.phase_probe_us,
                    };
                    let next = rollout.reply(device, reply, &mut keys);
                    if next == Next::Ignore {
                        continue;
                    }
                    deadline = Instant::now() + self.timeout;
                    if let Some(at) = pushed_at.get(&device) {
                        phase.record_duration_us(at.elapsed());
                    }
                    if let Next::Push(request) = next {
                        self.push(request, rollout, &mut pushed_at, &mut outbox);
                    }
                }
            }
            self.flush(&mut outbox);
        }
        self.note_wave(started, rollout.devices().len());
    }
}

/// Device keys and challenges from the gateway's attestation service.
struct ServiceKeys<'a>(&'a AttestationService);

impl RolloutKeys for ServiceKeys<'_> {
    fn device_key(&self, device: DeviceId) -> DeviceKey {
        self.0.device_key(device)
    }

    fn challenge(&mut self, cohort: WorkloadId, _device: DeviceId) -> Option<Challenge> {
        self.0.challenge_for(cohort).ok()
    }
}

impl WaveExecutor for OpsEngine {
    fn cohort_info(&mut self, cohort: WorkloadId) -> Result<CohortInfo, FleetError> {
        let members = self
            .registry
            .lock()
            .expect("registry lock")
            .members_of(cohort);
        if members.is_empty() {
            return Err(FleetError::UnknownCohort(cohort));
        }
        let (golden, layout) = self
            .service
            .cohort_golden(cohort)
            .ok_or(FleetError::UnknownCohort(cohort))?;
        Ok(CohortInfo {
            members,
            golden,
            layout,
            scheme: self.service.scheme(),
        })
    }

    fn drive(&mut self, rollout: &mut Rollout<'_>) -> Result<(), FleetError> {
        self.stream(rollout);
        let (executed, memoized) = rollout.probes();
        self.metrics.probes_executed.add(executed as u64);
        self.metrics.probes_memoized.add(memoized as u64);
        let (full, wire) = rollout.update_bytes();
        self.metrics.update_bytes_full.add(full);
        self.metrics.update_bytes_wire.add(wire);
        Ok(())
    }

    fn promote(
        &mut self,
        cohort: WorkloadId,
        golden: &eilid_msp430::Memory,
        measurement: [u8; 32],
    ) {
        self.service.promote_cohort(cohort, golden, measurement);
    }

    fn record(&mut self, events: Vec<LedgerEvent>) {
        for event in events {
            self.ledger.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::{Poller, PollerChoice};
    use eilid_fleet::FleetBuilder;
    use std::sync::mpsc;

    /// A sweep exchange whose frames cannot reach the reactor (its
    /// channel is closed) ends at once, with no reply delivered and the
    /// loss counted, instead of idling out the exchange timeout.
    #[test]
    fn exchange_fails_fast_when_the_reactor_is_gone() {
        let (fleet, mut verifier) =
            FleetBuilder::new(DeviceKey::new(b"fleet-root-key-0123456789abcdef").unwrap())
                .devices(1)
                .threads(1)
                .build()
                .unwrap();
        let device = fleet.devices()[0].id();
        let registry = Arc::new(Mutex::new(Registry::default()));
        registry
            .lock()
            .unwrap()
            .attach(device, 7, fleet.devices()[0].cohort());
        let (out, reactor) = mpsc::channel();
        drop(reactor);
        let (_engine_tx, rx) = mpsc::channel();
        let timeout = Duration::from_secs(30);
        let engine = OpsEngine {
            service: Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20))),
            registry,
            rx,
            out,
            waker: Poller::new(PollerChoice::Scan).unwrap().waker(),
            timeout,
            campaigns: BTreeMap::new(),
            ledger: Ledger::default(),
            counters: Arc::new(GatewayCounters::default()),
            draining: Arc::new(AtomicBool::new(false)),
            metrics: NetMetrics::new(),
        };
        let challenge = Challenge {
            nonce: 1,
            start: 0xE000,
            end: 0xE0FF,
        };
        let request = Frame::ProbeRequest {
            device,
            mode: ProbeMode::AttestOnly,
            smoke_cycles: 0,
            challenge,
        };

        let started = Instant::now();
        let mut delivered = 0;
        let last_reply = engine.exchange(vec![(device, request)], |burst| delivered += burst.len());

        assert!(started.elapsed() < timeout / 2, "{:?}", started.elapsed());
        assert_eq!((last_reply, delivered), (None, 0));
        assert_eq!(engine.metrics.engine_reactor_lost.get(), 1);
    }
}
