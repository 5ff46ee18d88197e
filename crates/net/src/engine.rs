//! The gateway's campaign engine: the wire-driven [`WaveExecutor`]
//! behind the networked operator plane.
//!
//! One driver, two shells: the campaign decisions
//! ([`CampaignRun::step_with`]), the per-device protocol ([`Rollout`])
//! and its scheduler ([`Driver`]) are the exact code the in-process
//! backend runs. This engine is the second shell — it carries the
//! driver's requests to the device connections registered in the
//! gateway's [`Registry`] and feeds the replies back:
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
//! The driver does all the scheduling: waves are *streamed* (each device
//! advances the moment its reply lands, admission capped by a
//! per-connection window, [`ENGINE_WAVE_WINDOW`]), a device agent's
//! device-scoped [`Frame::DeviceError`] `Busy` is re-pushed after a
//! bounded exponential backoff (backpressure is a scheduling signal, not
//! a health verdict), and the idle deadline extends on progress. The
//! engine keeps only the shell: one receive loop ([`OpsEngine::exchange`])
//! that drains bursts of replies, decodes them, routes pushes through
//! the registry, reads the clock, waits on its channel until the
//! driver's next wake time (it never sleeps through a backoff), fails a
//! closed connection's devices fast, and records the phase-latency and
//! update-byte metrics. Rollback passes stream the same way.
//!
//! The one sweep verb, `OpAggSweep`, runs the same loop over a
//! probe-only [`Rollout::sweep`] with an unbounded window. Each burst
//! of replies is verified and hashed into evidence leaves on the engine
//! thread the moment it lands, so the gateway's MAC checks and leaf
//! hashes overlap the agents' attestation; only the shard trees'
//! interior nodes and at most `SHARD_COUNT` root MACs follow the last
//! reply.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eilid_casu::agg::{evidence_leaf, missing_leaf, AggProof};
use eilid_casu::{AttestationReport, Challenge, DeviceKey};
use eilid_fleet::{
    fold_shard, merge_sweeps, shard_of, Campaign, CampaignRun, CohortInfo, DeviceId, Driver,
    FleetError, HealthClass, Ledger, LedgerEvent, PausedCampaign, Reply, Rollout, RolloutKeys,
    SweepChallenges, SweepSummary, WaveExecutor,
};
use eilid_workloads::WorkloadId;

use crate::error::unpoisoned;
use crate::gateway::GatewayCounters;
use crate::metrics::{NetMetrics, TRACE_CAT_ENGINE, TRACE_ENGINE_WAVE};
use crate::poller::Waker;
use crate::service::{health_to_wire, AttestationService, VerifyTask};
use crate::wire::{
    CampaignOp, ErrorCode, Frame, WireHealth, CAMPAIGN_STATE_FINISHED, CAMPAIGN_STATE_IDLE,
    CAMPAIGN_STATE_RUNNING, MAX_OP_PAYLOAD,
};

/// Per-connection cap on devices concurrently in flight during a
/// streamed campaign wave: enough to keep every agent's serve loop
/// saturated, small enough that one connection's outbox never
/// balloons.
pub const ENGINE_WAVE_WINDOW: usize = 32;

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
    ConnClosed,
}

/// Bytes an operator-plane carrier frame spends around one `EPC2`
/// record: its cohort byte and its length prefix.
const RECORD_FRAMING: usize = 5;

/// The `EPC2` record `run` would pause into, when it fits in `budget`
/// bytes. A record past it cannot cross the wire, so the run stays
/// loaded.
fn record_within(run: &CampaignRun, budget: usize) -> Option<Vec<u8>> {
    let record = run.checkpoint();
    (record.len() <= budget).then_some(record)
}

/// Where a sweep's exchange hands each burst of accepted probe reports.
type VerifySink<'s> = &'s mut dyn FnMut(&[(DeviceId, AttestationReport)]);

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
    /// At most one loaded run per cohort. A finished run stays only to
    /// keep its report readable; a paused one is handed to the operator
    /// and unloaded.
    campaigns: BTreeMap<WorkloadId, CampaignRun>,
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
                EngineInput::Device { .. } | EngineInput::Devices(_) | EngineInput::ConnClosed => {}
            }
        }
    }

    /// Queues one frame to `conn` through the reactor.
    fn send(&self, conn: u64, frame: Frame) {
        self.push_to_reactor(vec![(conn, frame)]);
    }

    fn send_error(&self, conn: u64, code: ErrorCode) {
        self.send(conn, Frame::Error { code });
    }

    fn status_frame(&self, cohort: WorkloadId) -> Frame {
        let (state, wave_cursor) = match self.campaigns.get(&cohort) {
            Some(run) if run.is_finished() => (CAMPAIGN_STATE_FINISHED, run.wave_cursor() as u32),
            Some(run) => (CAMPAIGN_STATE_RUNNING, run.wave_cursor() as u32),
            None => (CAMPAIGN_STATE_IDLE, 0),
        };
        Frame::CampaignStatus {
            cohort,
            state,
            wave_cursor,
        }
    }

    /// `true` when `cohort` has an unfinished run loaded — a finished
    /// run only keeps its report readable, and the next begin or resume
    /// replaces it, exactly as in `LocalOps`.
    fn running(&self, cohort: WorkloadId) -> bool {
        self.campaigns
            .get(&cohort)
            .is_some_and(|run| !run.is_finished())
    }

    fn handle_operator(&mut self, conn: u64, frame: Frame) {
        match frame {
            Frame::OpBegin { config } => {
                let cohort = config.cohort;
                if self.running(cohort) {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                match Campaign::new(config).and_then(|campaign| campaign.begin_with(&mut *self)) {
                    Ok(run) => {
                        self.campaigns.insert(cohort, run);
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
                let Some(mut run) = self.campaigns.remove(&cohort) else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                let result = run.step_with(&mut *self);
                self.campaigns.insert(cohort, run);
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
                if self.running(cohort) {
                    return self.send_error(conn, ErrorCode::CampaignActive);
                }
                self.campaigns.insert(cohort, Campaign::resume(paused));
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            Frame::CampaignControl { cohort, op } => self.handle_control(conn, cohort, op),
            Frame::OpAggSweep => self.handle_agg_sweep(conn),
            Frame::OpHealth => {
                let attached = unpoisoned(self.registry.lock()).len() as u32;
                self.send(
                    conn,
                    Frame::OpHealthResult {
                        attached,
                        active_campaigns: self.campaigns.len() as u32,
                        ledger_events: self.ledger.events().len() as u32,
                        live_sessions: self.counters.live_connections.load(Ordering::Relaxed)
                            as u32,
                    },
                );
            }
            Frame::OpDrain => {
                // Planned maintenance: refuse new peers from here on,
                // pause every running campaign between waves and hand
                // the records back, so a supervisor can re-seed a
                // replacement gateway via `OpResume`. Records past the
                // frame ceiling stay loaded, exactly like an oversized
                // pause, rather than producing an unframeable reply.
                self.draining.store(true, Ordering::Relaxed);
                self.waker.wake();
                let mut records: Vec<(WorkloadId, Vec<u8>)> = Vec::new();
                // The record count's 4 bytes, then each framed record.
                let mut used = 4usize;
                // A finished run has nothing left to move; its report
                // stays queryable until shutdown.
                for (&cohort, run) in self.campaigns.iter().filter(|(_, run)| !run.is_finished()) {
                    let budget = MAX_OP_PAYLOAD.saturating_sub(used + RECORD_FRAMING);
                    if let Some(bytes) = record_within(run, budget) {
                        used += RECORD_FRAMING + bytes.len();
                        records.push((cohort, bytes));
                    }
                }
                for (cohort, _) in &records {
                    self.campaigns.remove(cohort);
                }
                self.send(conn, Frame::OpDrained { paused: records });
            }
            Frame::OpCheckpoint { cohort } => {
                // Checkpoint without stopping: the record the run would
                // pause into, while the run keeps stepping.
                let Some(run) = self.campaigns.get(&cohort).filter(|run| !run.is_finished()) else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                match record_within(run, MAX_OP_PAYLOAD - RECORD_FRAMING) {
                    Some(paused) => self.send(conn, Frame::OpCheckpointAck { cohort, paused }),
                    // Unframeable on the wire — same discipline as an
                    // oversized pause.
                    None => self.send_error(conn, ErrorCode::Unsupported),
                }
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
                if snapshot.len() > MAX_OP_PAYLOAD {
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

    fn handle_control(&mut self, conn: u64, cohort: WorkloadId, op: CampaignOp) {
        match op {
            CampaignOp::Pause => {
                // Nothing loaded, or a finished run with nothing left to
                // pause.
                let Some(run) = self.campaigns.get(&cohort).filter(|run| !run.is_finished()) else {
                    return self.send_error(conn, ErrorCode::NoCampaign);
                };
                match record_within(run, MAX_OP_PAYLOAD - RECORD_FRAMING) {
                    // The operator owns the record now; the slot is
                    // empty, as after `LocalOps::campaign_pause`.
                    Some(paused) => {
                        self.campaigns.remove(&cohort);
                        self.send(conn, Frame::OpPaused { cohort, paused });
                    }
                    // A record past the operator-plane frame ceiling
                    // cannot cross the wire: the run stays loaded and
                    // the operator gets a typed error instead of an
                    // unframeable reply.
                    None => self.send_error(conn, ErrorCode::Unsupported),
                }
            }
            CampaignOp::Status => {
                let status = self.status_frame(cohort);
                self.send(conn, status);
            }
            CampaignOp::Report => {
                let report = self.campaigns.get(&cohort).and_then(CampaignRun::report);
                match report {
                    Some(report) => self.send(conn, Frame::OpReport { cohort, report }),
                    None => self.send_error(conn, ErrorCode::NoCampaign),
                }
            }
        }
    }

    /// Mints the challenges for one sweep round: every device in a
    /// cohort is challenged with the same round nonce (SEDA-style).
    /// Per-device MAC keys already rule out cross-device replay, the
    /// sweep machine accepts one reply per device, and nonces still only
    /// move forward across rounds — so a 1000-device sweep consumes one
    /// nonce per cohort instead of one per device. A cohort whose mint
    /// fails (unprovisioned, nonces exhausted) is skipped once, not
    /// retried per device.
    fn sweep_challenges(&self) -> SweepChallenges {
        let targets = unpoisoned(self.registry.lock()).all();
        let mut round: BTreeMap<WorkloadId, Option<Challenge>> = BTreeMap::new();
        let mut challenges = SweepChallenges::new();
        for (device, cohort) in targets {
            let minted = round
                .entry(cohort)
                .or_insert_with(|| self.service.challenge_for(cohort).ok());
            if let Some(challenge) = *minted {
                challenges.insert(device, (cohort, challenge));
            }
        }
        challenges
    }

    /// Probes every device `challenges` names and verifies each reactor
    /// burst of replies the moment it lands, while the agents are still
    /// attesting the rest: one [`AttestationService::verify_batch`] per
    /// burst, sorted by key shard so each burst takes the cohort lock
    /// once and each shard lock once, then each report hashed into its
    /// [`evidence_leaf`]. Every probe reply is verified against the
    /// challenge issued, so a report for any other challenge lands
    /// `Unverified` with its own leaf. Returns the verdict and leaf of
    /// every device that answered, plus when the last reply landed. A
    /// device absent from the verdicts lost or shed its probe.
    fn probe_and_verify(&self, challenges: &SweepChallenges) -> (SweepVerdicts, Option<Instant>) {
        let service = &*self.service;
        let metrics = &*self.metrics;
        let mut verdicts = SweepVerdicts::with_capacity(challenges.len());
        let mut tasks: Vec<VerifyTask> = Vec::new();
        let mut verify = |burst: &[(DeviceId, AttestationReport)]| {
            tasks.clear();
            tasks.extend(burst.iter().map(|&(device, report)| {
                let (cohort, issued) = challenges[&device];
                VerifyTask {
                    device,
                    cohort,
                    issued,
                    report,
                }
            }));
            tasks.sort_by_key(|task| shard_of(task.device));
            metrics.verify_batch_size.record(tasks.len() as u64);
            let started = Instant::now();
            let classes = service.verify_batch(&tasks);
            metrics
                .verify_batch_us
                .record_duration_us(started.elapsed());
            for (task, (class, _)) in tasks.iter().zip(classes) {
                let leaf = evidence_leaf(task.device, &task.report);
                verdicts.insert(task.device, (class, leaf));
            }
        };
        let mut rollout = Rollout::sweep(challenges);
        let mut driver = Driver::new(&mut rollout, usize::MAX, self.timeout, Instant::now());
        let last_reply = self.exchange(&mut driver, Some(&mut verify));
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
    /// list, fold each shard's evidence through the verifier's own
    /// [`fold_shard`] and publish one MAC'd [`AggProof`] per shard. The
    /// operator verifies at most `SHARD_COUNT` aggregate MACs; only
    /// non-Attested devices (and lost probes) appear individually, in
    /// the suspect list. Every
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
        let challenges = self.sweep_challenges();
        let (verdicts, last_reply) = self.probe_and_verify(&challenges);

        // Canonical order: ascending device id within each shard. The
        // challenge map iterates ascending, so pushing in iteration
        // order keeps every shard's member list sorted.
        let mut shards: BTreeMap<u16, Vec<DeviceId>> = BTreeMap::new();
        for device in challenges.keys() {
            shards
                .entry(shard_of(*device) as u16)
                .or_default()
                .push(*device);
        }
        let (parts, proofs): (Vec<SweepSummary>, Vec<AggProof>) = shards
            .into_iter()
            .map(|(shard, members)| {
                let verdicts = members
                    .into_iter()
                    .map(|device| match verdicts.get(&device) {
                        Some(&(class, leaf)) => (device, class, leaf),
                        // A lost or shed probe is a failed verification; its
                        // slot holds the domain-separated missing leaf so
                        // the tree geometry matches the participant list.
                        None => (device, HealthClass::Unverified, missing_leaf(device)),
                    });
                fold_shard(self.service.root(), shard, epoch, verdicts)
            })
            .unzip();
        let short_circuited: usize = parts
            .iter()
            .filter(|part| part.flagged.is_empty())
            .map(|part| part.devices)
            .sum();
        let summary = merge_sweeps(&parts);
        let suspects: Vec<(u64, WireHealth)> = summary
            .flagged
            .iter()
            .map(|&(device, class)| (device, health_to_wire(class)))
            .collect();

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
        self.metrics.agg_short_circuited.add(short_circuited as u64);

        let result = Frame::OpAggSweepResult {
            epoch,
            devices: challenges.len() as u32,
            counts: summary.counts.map(|count| count as u32),
            bitmap_base,
            bitmap,
            proofs,
            suspects,
        };
        self.send_sweep_result(conn, result, started, last_reply);
    }

    /// The engine's one receive loop: drives `driver` over the device
    /// plane until every device retired, the idle deadline expired the
    /// rest, or the reactor is gone. Each pass pushes what the driver
    /// hands out (a device with no connection retires at once), waits
    /// on the channel until the driver's next wake time, then feeds it
    /// the whole queued burst in arrival order: replies, `Busy` sheds
    /// (counted as retries), refusals and closed connections (lost).
    /// Operator commands arriving mid-exchange answer `Busy` at once —
    /// the engine is single-threaded by design, as campaign semantics
    /// are strictly wave-ordered.
    ///
    /// With a `verify` sink (a sweep), each burst's accepted probe
    /// reports reach it once, in arrival order; without one (a wave or
    /// rollback pass), each accepted reply's push-to-reply time feeds
    /// its phase histogram. Returns when the last reply `verify` saw
    /// landed.
    fn exchange(
        &self,
        driver: &mut Driver<'_, '_>,
        mut verify: Option<VerifySink<'_>>,
    ) -> Option<Instant> {
        let mut keys = ServiceKeys(&self.service);
        let mut outbox: Vec<(u64, Frame)> = Vec::new();
        let mut accepted: Vec<(DeviceId, AttestationReport)> = Vec::new();
        let mut last_reply = None;
        loop {
            let now = Instant::now();
            {
                let registry = unpoisoned(self.registry.lock());
                driver.poll(now, |request| match registry.conn_of(request.device()) {
                    Some(conn) => {
                        outbox.push((conn, Frame::from(request)));
                        true
                    }
                    None => false,
                });
            }
            if !outbox.is_empty() && !self.push_to_reactor(std::mem::take(&mut outbox)) {
                break;
            }
            let Some(wake_at) = driver.tick(now) else {
                break;
            };
            let first = match self.rx.recv_timeout(wake_at.saturating_duration_since(now)) {
                Ok(input) => input,
                // A backoff coming due or the deadline: the next pass
                // re-pushes or expires.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // Drain the burst already queued, handled in arrival order —
            // processing a ConnClosed ahead of a same-burst reply would
            // misclassify an answered device. One clock read per burst.
            let mut burst = vec![first];
            burst.extend(std::iter::from_fn(|| self.rx.try_recv().ok()).take(1023));
            let now = Instant::now();
            for input in burst {
                let frames = match input {
                    EngineInput::Operator { conn, .. } => {
                        self.send_error(conn, ErrorCode::Busy);
                        continue;
                    }
                    EngineInput::ConnClosed => {
                        let registry = unpoisoned(self.registry.lock());
                        let devices = driver.rollout().devices().to_vec();
                        for device in devices {
                            if registry.conn_of(device).is_none() {
                                driver.lost(now, device);
                            }
                        }
                        continue;
                    }
                    EngineInput::Device { frame } => vec![frame],
                    EngineInput::Devices(frames) => frames,
                };
                for frame in frames {
                    if let Frame::DeviceError { device, code } = frame {
                        if code != ErrorCode::Busy {
                            driver.lost(now, device);
                        } else if driver.busy(now, device) {
                            self.metrics.engine_busy_retries.inc();
                        }
                        continue;
                    }
                    let Some((device, reply)) = frame.into_reply() else {
                        continue;
                    };
                    let (phase, report) = match &reply {
                        Reply::Snapshot { .. } => (&self.metrics.phase_snapshot_us, None),
                        Reply::Update(_) => (&self.metrics.phase_update_us, None),
                        Reply::Probe { report, .. } => {
                            (&self.metrics.phase_probe_us, Some(*report))
                        }
                    };
                    let Some(in_flight) = driver.reply(now, device, reply, &mut keys) else {
                        continue;
                    };
                    match (&verify, report) {
                        (None, _) => phase.record_duration_us(in_flight),
                        (Some(_), Some(report)) => accepted.push((device, report)),
                        (Some(_), None) => {}
                    }
                }
            }
            if let Some(verify) = verify.as_mut().filter(|_| !accepted.is_empty()) {
                last_reply = Some(now);
                verify(&accepted);
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
        let members = unpoisoned(self.registry.lock()).members_of(cohort);
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
        })
    }

    /// Streams one wave (or rollback pass) over the device plane, with
    /// admission capped at [`ENGINE_WAVE_WINDOW`] per agent connection.
    /// If the reactor is gone the stream ends at once, leaving the
    /// devices still live to fail.
    fn drive(&mut self, rollout: &mut Rollout<'_>) -> Result<(), FleetError> {
        let started = Instant::now();
        let window = {
            let registry = unpoisoned(self.registry.lock());
            let conns: BTreeSet<u64> = rollout
                .devices()
                .iter()
                .filter_map(|&device| registry.conn_of(device))
                .collect();
            ENGINE_WAVE_WINDOW * conns.len().max(1)
        };
        self.exchange(
            &mut Driver::new(rollout, window, self.timeout, started),
            None,
        );
        // The wave-level span in the trace ring; the phase histograms
        // were fed per device.
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let devices = rollout.devices().len() as u64;
        self.metrics
            .trace()
            .record(TRACE_CAT_ENGINE, TRACE_ENGINE_WAVE, micros, devices);
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
    use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
    use eilid_fleet::{CampaignConfig, FleetBuilder};
    use std::sync::mpsc;

    /// An engine over a one-device fleet attached on connection 7,
    /// with its reactor channel's receiving end and its own input
    /// channel's sending end.
    #[allow(clippy::type_complexity)]
    fn engine(
        timeout: Duration,
    ) -> (
        OpsEngine,
        DeviceId,
        WorkloadId,
        Sender<EngineInput>,
        Receiver<Vec<(u64, Frame)>>,
    ) {
        let (fleet, mut verifier) =
            FleetBuilder::new(DeviceKey::new(b"fleet-root-key-0123456789abcdef").unwrap())
                .devices(1)
                .threads(1)
                .build()
                .unwrap();
        let (device, cohort) = (fleet.devices()[0].id(), fleet.devices()[0].cohort());
        let registry = Arc::new(Mutex::new(Registry::default()));
        registry.lock().unwrap().attach(device, 7, cohort);
        let (out, reactor) = mpsc::channel();
        let (engine_tx, rx) = mpsc::channel();
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
        (engine, device, cohort, engine_tx, reactor)
    }

    /// A sweep exchange whose frames cannot reach the reactor (its
    /// channel is closed) ends at once, with no reply delivered and the
    /// loss counted, instead of idling out the exchange timeout. The
    /// engine's own input channel stays open, so only the reactor loss
    /// can end it early.
    #[test]
    fn exchange_fails_fast_when_the_reactor_is_gone() {
        let timeout = Duration::from_secs(30);
        let (engine, device, cohort, _engine_tx, reactor) = engine(timeout);
        drop(reactor);
        let challenge = Challenge {
            nonce: 1,
            start: 0xE000,
            end: 0xE0FF,
        };
        let challenges = SweepChallenges::from([(device, (cohort, challenge))]);
        let mut rollout = Rollout::sweep(&challenges);

        let started = Instant::now();
        let mut delivered = 0;
        let last_reply = engine.exchange(
            &mut Driver::new(&mut rollout, usize::MAX, timeout, started),
            Some(&mut |burst: &[(DeviceId, AttestationReport)]| delivered += burst.len()),
        );

        assert!(started.elapsed() < timeout / 2, "{:?}", started.elapsed());
        assert_eq!((last_reply, delivered), (None, 0));
        assert!(!rollout.is_done(), "the device never answered");
        assert_eq!(engine.metrics.engine_reactor_lost.get(), 1);
    }

    /// A campaign wave whose pushes cannot reach the reactor ends at
    /// once: the device still live fails, and the loss is counted once.
    #[test]
    fn stream_fails_fast_when_the_reactor_is_gone() {
        let timeout = Duration::from_secs(30);
        let (mut engine, device, cohort, _engine_tx, reactor) = engine(timeout);
        drop(reactor);
        let config = CampaignConfig::new(cohort, BENIGN_PATCH_TARGET, benign_patch());
        let mut rollout = Rollout::wave(&[device], &config, [0; 32], None);

        let started = Instant::now();
        engine.drive(&mut rollout).unwrap();

        assert!(started.elapsed() < timeout / 2, "{:?}", started.elapsed());
        let wave = rollout.into_wave();
        assert_eq!((wave.failures, wave.updated.len()), (1, 0));
        assert_eq!(engine.metrics.engine_reactor_lost.get(), 1);
    }

    /// A record past its budget is refused; one that fits is the record
    /// `LocalOps` would pause into.
    #[test]
    fn a_record_past_its_budget_is_refused() {
        let (mut engine, _, cohort, _engine_tx, _reactor) = engine(Duration::from_millis(50));
        let config = CampaignConfig::new(cohort, BENIGN_PATCH_TARGET, benign_patch());
        let run = Campaign::new(config)
            .unwrap()
            .begin_with(&mut engine)
            .unwrap();
        let record = run.clone().pause().to_bytes();

        assert_eq!(record_within(&run, record.len() - 1), None);
        assert_eq!(record_within(&run, record.len()), Some(record));
    }

    /// A thread that panics while holding the registry lock poisons it;
    /// the engine recovers the map and still answers `cohort_info` and a
    /// sweep (whose silent device ends `Unverified` at the deadline).
    #[test]
    fn a_poisoned_registry_lock_does_not_stop_the_engine() {
        let (mut engine, device, cohort, _engine_tx, reactor) = engine(Duration::from_millis(50));
        let registry = Arc::clone(&engine.registry);
        let poisoner = std::thread::spawn(move || {
            let _guard = registry.lock().unwrap();
            panic!("poisoning the registry lock");
        });
        assert!(poisoner.join().is_err());
        assert!(engine.registry.is_poisoned());

        assert_eq!(engine.cohort_info(cohort).unwrap().members, vec![device]);
        engine.handle_operator(3, Frame::OpAggSweep);
        let pushed = reactor.recv().unwrap();
        assert!(matches!(
            pushed.as_slice(),
            [(7, Frame::ProbeRequest { device: probed, .. })] if *probed == device
        ));
        let answered = reactor.recv().unwrap();
        let [(
            3,
            Frame::OpAggSweepResult {
                devices, suspects, ..
            },
        )] = answered.as_slice()
        else {
            panic!("expected the sweep result, got {answered:?}");
        };
        assert_eq!(*devices, 1);
        assert_eq!(suspects, &[(device, WireHealth::Unverified)]);
    }
}
