//! The wire backend of the unified operator plane, plus the device
//! agent that serves gateway-initiated campaign pushes.
//!
//! Three pieces complete the networked deployment shape:
//!
//! * [`RemoteOps`] — the operator console. It implements
//!   [`eilid_fleet::FleetOps`] by translating each call into operator
//!   frames (`OpBegin`/`OpStep`/`CampaignControl`/`OpAggSweep`/…) to an
//!   attestation gateway, whose campaign engine executes the waves. The
//!   trait is shared with the in-process `LocalOps`, so every scenario
//!   (CLI, examples, benches, the equivalence suite) runs identically
//!   against either backend.
//! * [`DeviceAgent`] — the device plane. One agent (one connection)
//!   attaches any number of [`SimDevice`]s and then serves
//!   gateway-initiated pushes: pre-update snapshots, authenticated
//!   updates, and attestation probes (attest-only sweeps, post-update
//!   probe+smoke runs, post-rollback verification) — each answered by
//!   [`eilid_fleet::rollout::serve`], the handler the in-process
//!   executor calls too.
//! * [`with_attached_fleet`] — scoped orchestration for tests, the CLI
//!   and benches: spawn N agent threads over a fleet's devices, wait
//!   until every attach is acknowledged, run the operator closure, then
//!   stop and join the agents.

use std::borrow::{Borrow, BorrowMut};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use eilid_casu::agg::AggProof;
use eilid_casu::MeasurementScheme;
use eilid_fleet::rollout::serve;
use eilid_fleet::{
    AggSweepSummary, CampaignConfig, CampaignPhase, CampaignReport, CampaignStatus, DeviceId,
    Fleet, FleetOps, OpsError, OpsHealth, Request, SimDevice, SweepSummary,
};
use eilid_workloads::WorkloadId;

use crate::error::NetError;
use crate::service::health_from_wire;
use crate::transport::{TcpTransport, Transport};
use crate::wire::{
    CampaignOp, ErrorCode, Frame, CAMPAIGN_STATE_FINISHED, CAMPAIGN_STATE_RUNNING, MAX_OP_PAYLOAD,
    PROTOCOL_VERSION,
};

/// The wire [`FleetOps`] backend: an operator console connected to an
/// attestation gateway. Campaign state lives gateway-side; this client
/// is a thin, lockstep frame translator (one reply per command).
#[derive(Debug)]
pub struct RemoteOps<T: Transport> {
    transport: T,
    /// The cohort of the campaign this console is driving (set by
    /// begin/resume; `CampaignControl` frames are cohort-addressed).
    cohort: Option<WorkloadId>,
    /// Overall per-command reply deadline. One `OpStep` can span a
    /// whole wave of device exchanges and smoke runs on the gateway
    /// side, so individual transport receive timeouts are retried
    /// until this elapses — giving up early would leave the late reply
    /// in the stream and desynchronise every later command.
    op_timeout: Duration,
    /// Fleet root key bytes for aggregated sweeps: the operator
    /// re-derives each shard's aggregation key from these to verify the
    /// gateway's aggregate-root MACs. Unset consoles refuse
    /// [`FleetOps::sweep_aggregated`] — an unverifiable aggregate is
    /// worthless — but still run [`FleetOps::sweep`], which checks the
    /// same result's epoch and structure and reads its summary.
    agg_root: Option<Vec<u8>>,
    /// Highest aggregated-sweep epoch accepted so far; replayed or
    /// stale aggregates (epoch not strictly increasing) are rejected.
    last_agg_epoch: Option<u64>,
}

/// Default overall reply deadline for one operator command (a full
/// wave of a large campaign fits comfortably).
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(300);

impl RemoteOps<TcpTransport> {
    /// Connects to a gateway over TCP and negotiates the protocol.
    ///
    /// # Errors
    ///
    /// Connection and negotiation failures as [`NetError`].
    pub fn connect(addr: SocketAddr) -> Result<Self, NetError> {
        Self::from_transport(TcpTransport::connect(addr)?)
    }
}

impl<T: Transport> RemoteOps<T> {
    /// Negotiates the protocol over an existing transport.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the gateway refuses the version;
    /// transport failures otherwise.
    pub fn from_transport(mut transport: T) -> Result<Self, NetError> {
        transport.send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })?;
        match transport.recv()? {
            Frame::HelloAck { .. } => Ok(RemoteOps {
                transport,
                cohort: None,
                op_timeout: DEFAULT_OP_TIMEOUT,
                agg_root: None,
                last_agg_epoch: None,
            }),
            Frame::Error { code } => Err(NetError::Protocol(code)),
            _ => Err(NetError::Unexpected("expected HelloAck")),
        }
    }

    /// Overrides the overall per-command reply deadline (default
    /// [`DEFAULT_OP_TIMEOUT`]).
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    /// Provisions the fleet root key aggregated sweeps verify against.
    /// The console derives each shard's aggregation key from it
    /// ([`eilid_casu::shard_agg_key`]) and checks every [`AggProof`] the
    /// gateway publishes; without the key,
    /// [`FleetOps::sweep_aggregated`] is refused.
    pub fn set_agg_root_key(&mut self, key: &[u8]) {
        self.agg_root = Some(key.to_vec());
    }

    /// Sends an orderly goodbye and returns the transport.
    ///
    /// # Errors
    ///
    /// Propagates the send failure (the connection is dropped either
    /// way).
    pub fn bye(mut self) -> Result<T, NetError> {
        self.transport.send(&Frame::Bye)?;
        Ok(self.transport)
    }

    /// Addresses this console at `cohort`'s gateway-side campaign slot
    /// without beginning or resuming one — the recovery path for an
    /// operator console that crashed mid-campaign: reconnect, adopt the
    /// cohort, then query status / pause / step the run the gateway
    /// kept alive.
    pub fn adopt(&mut self, cohort: WorkloadId) {
        self.cohort = Some(cohort);
    }

    /// Checkpoints the active campaign *without pausing it* — one
    /// round trip: the run keeps stepping and the serialised record it
    /// would pause into rides back (consoles that must survive gateway
    /// *process* death re-seed a replacement from those bytes via
    /// [`eilid_fleet::ops::FleetOps::campaign_resume`]).
    ///
    /// # Errors
    ///
    /// [`OpsError::NoCampaign`] when nothing is loaded (or the run
    /// already finished); transport failures and gateway refusals as
    /// [`OpsError`].
    pub fn campaign_checkpoint(&mut self) -> Result<Vec<u8>, OpsError> {
        let cohort = self.active_cohort()?;
        match self.request(Frame::OpCheckpoint { cohort })? {
            Frame::OpCheckpointAck { paused, .. } => Ok(paused),
            _ => Err(unexpected("expected OpCheckpointAck")),
        }
    }

    /// Asks the gateway to drain for planned maintenance: stop
    /// accepting connections, pause every live campaign, and hand the
    /// paused records back. A run whose record would not fit in the
    /// reply frame stays loaded on the gateway, and goes when its
    /// process does. The supervising control plane calls this before
    /// taking a gateway down so no campaign progress is lost.
    ///
    /// # Errors
    ///
    /// Transport failures and gateway refusals as [`OpsError`].
    pub fn drain(&mut self) -> Result<Vec<(WorkloadId, Vec<u8>)>, OpsError> {
        match self.request(Frame::OpDrain)? {
            Frame::OpDrained { paused } => Ok(paused),
            _ => Err(unexpected("expected OpDrained")),
        }
    }

    /// Scrapes the gateway's telemetry registry: every counter, gauge
    /// and latency histogram as a mergeable
    /// [`eilid_obs::RegistrySnapshot`]. Cluster operators merge these
    /// across gateways — counter totals sum exactly.
    ///
    /// # Errors
    ///
    /// Transport failures, gateway refusals, and unparseable snapshot
    /// payloads as [`OpsError`].
    pub fn metrics(&mut self) -> Result<eilid_obs::RegistrySnapshot, OpsError> {
        match self.request(Frame::OpMetrics)? {
            Frame::OpMetricsResult { snapshot } => {
                let text = std::str::from_utf8(&snapshot)
                    .map_err(|_| OpsError::Backend("metrics snapshot not UTF-8".into()))?;
                eilid_obs::RegistrySnapshot::from_json(text)
                    .map_err(|err| OpsError::Backend(format!("bad metrics snapshot: {err}")))
            }
            _ => Err(unexpected("expected OpMetricsResult")),
        }
    }

    /// One lockstep command/reply exchange, with gateway error frames
    /// mapped to typed [`OpsError`]s. Transport-level receive timeouts
    /// are retried until [`RemoteOps::set_op_timeout`]'s deadline:
    /// gateway-side steps legitimately take a while, and abandoning
    /// the exchange early would desynchronise the lockstep stream.
    fn request(&mut self, frame: Frame) -> Result<Frame, OpsError> {
        self.transport.send(&frame).map_err(backend)?;
        let deadline = Instant::now() + self.op_timeout;
        let reply = loop {
            match self.transport.recv() {
                Ok(reply) => break reply,
                Err(NetError::Timeout) if Instant::now() < deadline => continue,
                Err(err) => return Err(backend(err)),
            }
        };
        match reply {
            Frame::Error {
                code: ErrorCode::NoCampaign,
            } => Err(OpsError::NoCampaign),
            Frame::Error {
                code: ErrorCode::CampaignActive,
            } => Err(OpsError::CampaignActive),
            Frame::Error { code } => Err(OpsError::Backend(format!("gateway refused: {code}"))),
            reply => Ok(reply),
        }
    }

    fn active_cohort(&self) -> Result<WorkloadId, OpsError> {
        self.cohort.ok_or(OpsError::NoCampaign)
    }
}

fn backend(err: NetError) -> OpsError {
    OpsError::Backend(err.to_string())
}

fn unexpected(what: &str) -> OpsError {
    OpsError::Backend(format!("unexpected gateway reply: {what}"))
}

/// Maps a `CampaignStatus` frame's `state` byte to the trait's phase.
fn phase_from_state(state: u8, wave_cursor: u32) -> CampaignPhase {
    match state {
        CAMPAIGN_STATE_RUNNING => CampaignPhase::InProgress {
            next_wave: wave_cursor as usize,
        },
        CAMPAIGN_STATE_FINISHED => CampaignPhase::Finished,
        _ => CampaignPhase::Idle,
    }
}

impl<T: Transport> RemoteOps<T> {
    /// Runs one gateway sweep (`OpAggSweep`) and checks the result's
    /// structure: the epoch is newer than every one accepted before,
    /// and the participant bitmap, the proof totals and the suspect list
    /// all agree with the claimed device count. The shard MACs are left
    /// to [`FleetOps::sweep_aggregated`], the one caller holding the
    /// root key. Returns the summary, the epoch and the shard proofs.
    fn agg_sweep(&mut self) -> Result<(SweepSummary, u64, Vec<AggProof>), OpsError> {
        let Frame::OpAggSweepResult {
            epoch,
            devices,
            counts,
            bitmap_base,
            bitmap,
            proofs,
            suspects,
        } = self.request(Frame::OpAggSweep)?
        else {
            return Err(unexpected("expected OpAggSweepResult"));
        };
        // Replay protection: epochs are challenge-nonce bases, so an
        // honest gateway's are strictly increasing. A replayed result
        // frame from an earlier sweep fails here even though its MACs
        // still verify.
        if devices > 0 {
            if let Some(last) = self.last_agg_epoch {
                if epoch <= last {
                    return Err(OpsError::Backend(format!(
                        "aggregated sweep epoch {epoch} not newer than {last} (replay?)"
                    )));
                }
            }
            self.last_agg_epoch = Some(epoch);
        }

        // Structural cross-checks: the participant bitmap and the
        // per-shard proof counts must both add up to the claimed device
        // total, and every suspect must be a participant — a tampered
        // device cannot be dropped from the aggregate without tripping
        // one of these.
        let popcount: u64 = bitmap.iter().map(|byte| u64::from(byte.count_ones())).sum();
        if popcount != u64::from(devices) {
            return Err(OpsError::Backend(format!(
                "participant bitmap covers {popcount} devices, result claims {devices}"
            )));
        }
        let proof_total: u64 = proofs.iter().map(|proof| u64::from(proof.count)).sum();
        if proof_total != u64::from(devices) {
            return Err(OpsError::Backend(format!(
                "shard proofs cover {proof_total} devices, result claims {devices}"
            )));
        }
        let participant = |device: u64| -> bool {
            device
                .checked_sub(bitmap_base)
                .and_then(|bit| bitmap.get((bit / 8) as usize).map(|byte| (byte, bit % 8)))
                .is_some_and(|(byte, bit)| byte & (1 << bit) != 0)
        };
        if let Some((device, _)) = suspects.iter().find(|(device, _)| !participant(*device)) {
            return Err(OpsError::Backend(format!(
                "suspect device {device} is not a sweep participant"
            )));
        }

        let summary = SweepSummary {
            devices: devices as usize,
            counts: counts.map(|count| count as usize),
            flagged: suspects
                .into_iter()
                .map(|(device, class)| (device, health_from_wire(class)))
                .collect(),
        };
        Ok((summary, epoch, proofs))
    }
}

impl<T: Transport> FleetOps for RemoteOps<T> {
    fn sweep(&mut self) -> Result<SweepSummary, OpsError> {
        Ok(self.agg_sweep()?.0)
    }

    fn sweep_aggregated(&mut self) -> Result<AggSweepSummary, OpsError> {
        let Some(agg_root) = self.agg_root.clone() else {
            return Err(OpsError::Backend(
                "aggregated sweep requires the fleet root key (set_agg_root_key)".to_string(),
            ));
        };
        let (summary, epoch, proofs) = self.agg_sweep()?;
        // The sublinear step: at most SHARD_COUNT aggregate-MAC
        // verifications stand in for per-device verdict frames.
        AggSweepSummary::verified(summary, epoch, &proofs, &agg_root).map_err(|shard| {
            OpsError::Backend(format!("shard {shard} aggregate root failed verification"))
        })
    }

    fn campaign_begin(&mut self, config: &CampaignConfig) -> Result<(), OpsError> {
        let cohort = config.cohort;
        match self.request(Frame::OpBegin {
            config: config.clone(),
        })? {
            Frame::CampaignStatus { .. } => {
                self.cohort = Some(cohort);
                Ok(())
            }
            _ => Err(unexpected("expected CampaignStatus")),
        }
    }

    fn campaign_step(&mut self) -> Result<CampaignStatus, OpsError> {
        let cohort = self.active_cohort()?;
        match self.request(Frame::OpStep { cohort })? {
            Frame::CampaignStatus {
                state, wave_cursor, ..
            } => match phase_from_state(state, wave_cursor) {
                CampaignPhase::Finished => Ok(CampaignStatus::Finished),
                CampaignPhase::InProgress { next_wave } => {
                    Ok(CampaignStatus::InProgress { next_wave })
                }
                CampaignPhase::Idle => Err(unexpected(
                    "campaign neither running nor finished after step",
                )),
            },
            _ => Err(unexpected("expected CampaignStatus")),
        }
    }

    fn campaign_status(&mut self) -> Result<CampaignPhase, OpsError> {
        let Some(cohort) = self.cohort else {
            return Ok(CampaignPhase::Idle);
        };
        match self.request(Frame::CampaignControl {
            cohort,
            op: CampaignOp::Status,
        })? {
            Frame::CampaignStatus {
                state, wave_cursor, ..
            } => Ok(phase_from_state(state, wave_cursor)),
            _ => Err(unexpected("expected CampaignStatus")),
        }
    }

    fn campaign_pause(&mut self) -> Result<Vec<u8>, OpsError> {
        let cohort = self.active_cohort()?;
        match self.request(Frame::CampaignControl {
            cohort,
            op: CampaignOp::Pause,
        })? {
            Frame::OpPaused { paused, .. } => Ok(paused),
            _ => Err(unexpected("expected OpPaused")),
        }
    }

    fn campaign_resume(&mut self, paused: &[u8]) -> Result<(), OpsError> {
        if paused.len() > MAX_OP_PAYLOAD {
            return Err(OpsError::Backend(format!(
                "paused-campaign record of {} bytes exceeds the operator-plane frame ceiling {}",
                paused.len(),
                MAX_OP_PAYLOAD
            )));
        }
        match self.request(Frame::OpResume {
            paused: paused.to_vec(),
        })? {
            Frame::CampaignStatus { cohort, .. } => {
                self.cohort = Some(cohort);
                Ok(())
            }
            _ => Err(unexpected("expected CampaignStatus")),
        }
    }

    fn campaign_report(&mut self) -> Result<CampaignReport, OpsError> {
        let cohort = self.active_cohort()?;
        match self.request(Frame::CampaignControl {
            cohort,
            op: CampaignOp::Report,
        })? {
            Frame::OpReport { report, .. } => Ok(report),
            _ => Err(unexpected("expected OpReport")),
        }
    }

    fn health(&mut self) -> Result<OpsHealth, OpsError> {
        let (attached, ledger_events) = match self.request(Frame::OpHealth)? {
            Frame::OpHealthResult {
                attached,
                ledger_events,
                ..
            } => (attached as usize, ledger_events as usize),
            _ => return Err(unexpected("expected OpHealthResult")),
        };
        let campaign = self.campaign_status()?;
        Ok(OpsHealth {
            devices: attached,
            ledger_events,
            campaign,
        })
    }
}

/// How many replies a [`DeviceAgent`] buffers before forcing a flush
/// mid-burst. Bounds agent memory against a gateway that streams
/// requests faster than the agent answers them.
const AGENT_REPLY_BURST: usize = 256;

/// How long a [`DeviceAgent`] waits for the gateway's handshake and
/// attach acknowledgements, across however many receive timeouts its
/// transport's short poll interval produces.
const AGENT_HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// The device-plane agent: serves gateway-initiated pushes for the
/// devices it attached on this connection. This is what turns a fleet
/// of [`SimDevice`]s into live campaign targets — the networked
/// equivalent of the in-process executor touching devices directly.
#[derive(Debug)]
pub struct DeviceAgent<T: Transport> {
    transport: T,
}

impl<T: Transport> DeviceAgent<T> {
    /// Negotiates the protocol over `transport`. `_scheme` is the
    /// fleet's measurement scheme, which is always
    /// [`MeasurementScheme::Merkle`]. A transport with a short
    /// receive timeout (what [`serve`](Self::serve) wants) is fine: the
    /// handshake waits out its timeouts up to a fixed deadline.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the gateway refuses the version;
    /// [`NetError::Timeout`] when it never answers; transport failures
    /// otherwise.
    pub fn connect(mut transport: T, _scheme: MeasurementScheme) -> Result<Self, NetError> {
        transport.send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })?;
        let deadline = Instant::now() + AGENT_HANDSHAKE_DEADLINE;
        loop {
            match transport.recv() {
                Ok(Frame::HelloAck { .. }) => return Ok(DeviceAgent { transport }),
                Ok(Frame::Error { code }) => return Err(NetError::Protocol(code)),
                Ok(_) => return Err(NetError::Unexpected("expected HelloAck")),
                Err(NetError::Timeout) if Instant::now() < deadline => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// Registers every device in `devices` on this connection, waiting
    /// until the gateway acknowledged each attach (so campaign begins
    /// issued afterwards see the full membership). Accepts owned
    /// devices (`&[SimDevice]`) or borrowed ones (`&[&mut SimDevice]`
    /// — the shape placement partitions produce).
    ///
    /// # Errors
    ///
    /// Transport failures; a device-scoped gateway refusal (unknown
    /// cohort) surfaces as [`NetError::Protocol`].
    pub fn attach<D: Borrow<SimDevice>>(&mut self, devices: &[D]) -> Result<(), NetError> {
        let frames: Vec<Frame> = devices
            .iter()
            .map(|device| {
                let device = device.borrow();
                Frame::Attach {
                    device: device.id(),
                    cohort: device.cohort(),
                }
            })
            .collect();
        self.transport.send_batch(&frames)?;
        let mut acked = 0usize;
        let deadline = Instant::now() + AGENT_HANDSHAKE_DEADLINE;
        while acked < devices.len() {
            match self.transport.recv() {
                Ok(Frame::AttachAck { .. }) => acked += 1,
                Ok(Frame::DeviceError { code, .. }) => return Err(NetError::Protocol(code)),
                Ok(_) => return Err(NetError::Unexpected("unexpected frame during attach")),
                Err(NetError::Timeout) if Instant::now() < deadline => continue,
                Err(err) => return Err(err),
            }
        }
        Ok(())
    }

    /// Serves gateway pushes for `devices` (the same slice attach was
    /// called with) until `stop` is set, the gateway hangs up, or it
    /// says [`Frame::Bye`]. Use a transport with a short receive
    /// timeout so the stop flag is polled responsively.
    ///
    /// Requests that arrive as a burst (an engine wave pushes hundreds
    /// of probes per connection in one coalesced write) are answered as
    /// a burst: the agent drains every already-buffered request via
    /// [`Transport::recv_now`] and flushes all the replies in one
    /// [`Transport::send_batch`] — one write syscall instead of one per
    /// device.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations; an orderly close is
    /// `Ok`.
    pub fn serve<D: BorrowMut<SimDevice>>(
        &mut self,
        devices: &mut [D],
        stop: &AtomicBool,
    ) -> Result<(), NetError> {
        // Built once per call: each pushed request then finds its
        // device in O(1). On a duplicated id the first slot wins.
        let mut slots: HashMap<DeviceId, usize> = HashMap::with_capacity(devices.len());
        for (slot, device) in devices.iter().enumerate() {
            slots.entry(device.borrow().id()).or_insert(slot);
        }
        let mut replies: Vec<Frame> = Vec::new();
        loop {
            let first = match self.transport.recv() {
                Ok(frame) => frame,
                Err(NetError::Timeout) => {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    continue;
                }
                Err(NetError::Closed) => return Ok(()),
                Err(err) => return Err(err),
            };
            let mut next = Some(first);
            // `Some(result)` ends the serve loop — but only after the
            // replies buffered so far are flushed below.
            let outcome: Option<Result<(), NetError>> = loop {
                let Some(frame) = next.take() else { break None };
                match frame {
                    Frame::Bye => break Some(Ok(())),
                    Frame::Error { code } => break Some(Err(NetError::Protocol(code))),
                    frame => match frame.into_request() {
                        Some(request) => replies.push(answer(devices, &slots, &request)),
                        None => {
                            break Some(Err(NetError::Unexpected(
                                "unexpected frame at device agent",
                            )))
                        }
                    },
                }
                if replies.len() >= AGENT_REPLY_BURST {
                    break None;
                }
                match self.transport.recv_now() {
                    Ok(frame) => next = frame,
                    Err(err) => break Some(Err(err)),
                }
            };
            if !replies.is_empty() {
                self.transport.send_batch(&replies)?;
                replies.clear();
            }
            if let Some(result) = outcome {
                return result;
            }
        }
    }
}

/// Answers one pushed request with the shared device-side handler
/// ([`serve`]), resolving its device through `slots` (id → index into
/// `devices`). An id the agent does not hold is refused with
/// `UnknownDevice`; a request range the device cannot serve with
/// `UnexpectedFrame` rather than panicking the agent.
fn answer<D: BorrowMut<SimDevice>>(
    devices: &mut [D],
    slots: &HashMap<DeviceId, usize>,
    request: &Request,
) -> Frame {
    let device = request.device();
    let code = match slots.get(&device) {
        Some(&slot) => match serve(devices[slot].borrow_mut(), request) {
            Some(reply) => return Frame::from_reply(device, reply),
            None => ErrorCode::UnexpectedFrame,
        },
        None => ErrorCode::UnknownDevice,
    };
    Frame::DeviceError { device, code }
}

/// Raises the agents' stop flag when dropped, so an operator closure
/// that panics still stops the agent threads and the panic reaches the
/// caller instead of leaving the scope waiting on them forever.
pub(crate) struct StopOnDrop<'a>(pub(crate) &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spawns `agents` device-agent threads over the fleet's devices
/// (partitioned evenly), waits until every attach is acknowledged, runs
/// the operator closure `f` (typically driving a [`RemoteOps`] against
/// the same gateway), then stops and joins the agents. A panic in `f`
/// stops the agents too, and reaches the caller.
///
/// # Errors
///
/// The first hard agent failure (anything but an orderly close)
/// replaces the closure's result.
pub fn with_attached_fleet<R, F>(
    fleet: &mut Fleet,
    agents: usize,
    addr: SocketAddr,
    f: F,
) -> Result<R, NetError>
where
    F: FnOnce() -> R,
{
    let scheme = fleet.scheme();
    let devices = fleet.devices_mut();
    let total = devices.len();
    let agents = agents.clamp(1, total.max(1));
    let chunk = total.div_ceil(agents);
    let stop = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();

    std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .chunks_mut(chunk)
            .map(|batch| {
                let ready_tx = ready_tx.clone();
                let stop = &stop;
                scope.spawn(move || -> Result<(), NetError> {
                    // Short receive timeout: `serve` polls the stop flag
                    // between frames.
                    let transport =
                        TcpTransport::connect_with_timeout(addr, Duration::from_millis(100))?;
                    let mut agent = DeviceAgent::connect(transport, scheme)?;
                    agent.attach(batch)?;
                    let _ = ready_tx.send(());
                    agent.serve(batch, stop)
                })
            })
            .collect();
        drop(ready_tx);

        // Wait for every attach to land before the operator acts, so a
        // campaign begun in `f` sees the full cohort membership. A dead
        // agent breaks the wait; its error surfaces at join below.
        let mut ready = 0usize;
        while ready < handles.len() {
            match ready_rx.recv_timeout(Duration::from_secs(30)) {
                Ok(()) => ready += 1,
                Err(_) => break,
            }
        }

        let output = {
            let _stop = StopOnDrop(&stop);
            f()
        };

        let mut agent_error: Option<NetError> = None;
        for handle in handles {
            if let Err(err) = handle.join().expect("device agent thread panicked") {
                if !matches!(err, NetError::Closed) {
                    agent_error.get_or_insert(err);
                }
            }
        }
        match agent_error {
            Some(err) => Err(err),
            None => Ok(output),
        }
    })
}
