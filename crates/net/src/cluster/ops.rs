//! [`ClusterOps`] — the fan-out [`FleetOps`] backend — plus
//! [`with_placed_fleet`], the placement-aware agent harness.
//!
//! A cluster campaign is N independent gateway campaigns over disjoint
//! placement partitions of one fleet, driven in lockstep from a single
//! operator surface. `ClusterOps` fans every operator verb out across
//! one [`RemoteOps`] console per gateway (scoped threads — one slow
//! gateway does not serialise the others), then folds the partial
//! results through the fleet crate's merge helpers
//! ([`merge_sweeps`], [`merge_reports`], [`merge_phases`],
//! [`merge_health`]) so the caller sees exactly the shape a
//! single-gateway deployment produces.
//!
//! **Failover.** After every wave (and right after begin), each
//! console checkpoints its gateway's campaign with the one-round-trip
//! `OpCheckpoint` verb: the gateway snapshots the *running* run into
//! its retained slot without pausing it, and — unless the console asks
//! for durable checkpoints — no [`PausedCampaign`] bytes cross the
//! wire at all; they are fetched only on actual failover. When a
//! gateway goes away mid-campaign, [`ClusterOps::reconnect`] repairs
//! state in layers: a connection blip finds the run still loaded
//! (nothing to do); a restarted process that kept its retained record
//! resumes in place; a fresh process is re-seeded from the
//! console-held bytes (durable mode — see
//! [`ClusterOps::set_durable_checkpoints`]). Stepping then continues
//! from the wave boundary — a resume, not a redo. Wave replay is
//! idempotent: update nonces resume from the device-reported last
//! nonce, so devices that already applied the wave's patch simply
//! accept it again.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use eilid_casu::SoftwareProvider;
use eilid_fleet::{
    merge_agg_sweeps, merge_health, merge_phases, merge_reports, merge_sweeps, AggSweepSummary,
    CampaignConfig, CampaignPhase, CampaignReport, CampaignStatus, Fleet, FleetOps, OpsError,
    OpsHealth, PausedCampaign, SimDevice, SweepSummary,
};
use eilid_workloads::WorkloadId;

use super::placement::Placement;
use crate::error::NetError;
use crate::ops::{DeviceAgent, RemoteOps, DEFAULT_OP_TIMEOUT};
use crate::transport::TcpTransport;

/// How long a placed agent waits between reconnect attempts while its
/// gateway is down (crash-to-restart windows are measured in hundreds
/// of milliseconds, so a short beat keeps failover snappy without
/// hammering a dead address).
const AGENT_RECONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// Magic tag of the cluster-level paused-campaign record
/// ([`FleetOps::campaign_pause`] on a cluster returns one blob holding
/// every gateway's record, index-aligned with the cluster's placement).
const CLUSTER_PAUSE_MAGIC: &[u8; 4] = b"ECL1";

/// Per-gateway flag bytes inside the cluster pause blob.
const PAUSE_NONE: u8 = 0;
const PAUSE_RECORD: u8 = 1;
const PAUSE_FINISHED: u8 = 2;

/// The cluster [`FleetOps`] backend: one operator surface fanning out
/// over N gateway consoles and merging their answers wave-aligned.
///
/// Construction pins the gateway order; placement
/// ([`ClusterOps::placement`]) and the pause blob are index-aligned
/// with it, so reconnections and resumes must target the same address
/// list in the same order.
#[derive(Debug)]
pub struct ClusterOps {
    addrs: Vec<SocketAddr>,
    consoles: Vec<RemoteOps<TcpTransport>>,
    /// Gateways hosting members of the active campaign's cohort (a
    /// gateway whose placement partition holds none refuses the begin
    /// with `unknown cohort` and sits the campaign out).
    participating: Vec<bool>,
    /// Gateways whose campaign run has finished (stepping skips them;
    /// the cluster is done when every participant is).
    finished: Vec<bool>,
    /// Latest per-gateway wave-boundary checkpoint: the
    /// [`PausedCampaign`] bytes replayed into a restarted gateway by
    /// [`ClusterOps::reconnect`]. Populated only in durable mode; the
    /// default keeps the record gateway-retained and off the wire.
    checkpoints: Vec<Option<Vec<u8>>>,
    /// When true, every wave-boundary checkpoint also fetches the
    /// serialised record so a gateway *process* death is recoverable;
    /// the default trusts the gateway-retained slot (connection blips,
    /// drains) and skips the byte shuttle.
    durable_checkpoints: bool,
    cohort: Option<WorkloadId>,
    op_timeout: Duration,
    /// Fleet root key bytes forwarded to every console (current and
    /// reconnected) so aggregated sweeps verify gateway aggregate
    /// proofs cluster-wide.
    agg_root: Option<Vec<u8>>,
    /// Operator-side telemetry: fan-out latency across the cluster's
    /// consoles, one sample per fanned-out verb.
    obs: eilid_obs::MetricsRegistry,
    fan_out_us: eilid_obs::Histogram,
}

/// Concurrent fan-out over the selected consoles: spawns one scoped
/// thread per selected gateway and returns the per-gateway results
/// (`None` for unselected gateways), index-aligned.
fn fan_out<R, F>(
    consoles: &mut [RemoteOps<TcpTransport>],
    select: impl Fn(usize) -> bool,
    f: F,
) -> Vec<Option<Result<R, OpsError>>>
where
    R: Send,
    F: Fn(usize, &mut RemoteOps<TcpTransport>) -> Result<R, OpsError> + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = consoles
            .iter_mut()
            .enumerate()
            .map(|(gateway, console)| {
                select(gateway).then(|| scope.spawn(move || f(gateway, console)))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.map(|h| h.join().expect("cluster fan-out thread panicked")))
            .collect()
    })
}

/// Prefixes backend errors with the gateway index so a fan-out failure
/// names its gateway; typed errors pass through (callers match on
/// them).
fn at_gateway(gateway: usize, err: OpsError) -> OpsError {
    match err {
        OpsError::Backend(msg) => OpsError::Backend(format!("gateway {gateway}: {msg}")),
        err => err,
    }
}

/// A begin refused because the gateway hosts no members of the cohort —
/// the gateway sits the campaign out rather than failing it. The match
/// is on the pinned protocol string rendered by the gateway's
/// `ErrorCode::UnknownCohort`.
fn is_unknown_cohort(err: &OpsError) -> bool {
    matches!(err, OpsError::Backend(msg) if msg.contains("unknown cohort"))
}

impl ClusterOps {
    /// Connects one operator console per gateway address. The address
    /// order defines gateway indices for placement, checkpoints and
    /// the pause blob.
    ///
    /// # Errors
    ///
    /// The first connection or negotiation failure as [`NetError`].
    pub fn connect(addrs: &[SocketAddr]) -> Result<Self, NetError> {
        assert!(!addrs.is_empty(), "a cluster needs at least one gateway");
        let consoles = addrs
            .iter()
            .map(|&addr| RemoteOps::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        let n = addrs.len();
        let obs = eilid_obs::MetricsRegistry::new();
        let fan_out_us = obs.histogram("eilid_cluster_fan_out_us");
        Ok(ClusterOps {
            addrs: addrs.to_vec(),
            consoles,
            participating: vec![false; n],
            finished: vec![false; n],
            checkpoints: vec![None; n],
            durable_checkpoints: false,
            cohort: None,
            op_timeout: DEFAULT_OP_TIMEOUT,
            agg_root: None,
            obs,
            fan_out_us,
        })
    }

    /// Gateways in this cluster.
    pub fn gateways(&self) -> usize {
        self.addrs.len()
    }

    /// The shard → gateway placement this cluster serves (device
    /// agents must partition the fleet with the same placement — see
    /// [`with_placed_fleet`]).
    pub fn placement(&self) -> Placement {
        Placement::new(self.addrs.len())
    }

    /// Opts wave-boundary checkpoints into durable mode: the
    /// serialised record rides back in every checkpoint ack and is
    /// kept console-side, so [`ClusterOps::reconnect`] can re-seed a
    /// gateway whose *process* died (SIGKILL, OOM) — not just one
    /// whose connection dropped. Costs one record payload per gateway
    /// per wave; leave off when a supervisor only restarts gateways
    /// that drain cleanly.
    pub fn set_durable_checkpoints(&mut self, durable: bool) {
        self.durable_checkpoints = durable;
    }

    /// Overrides the per-command reply deadline on every console
    /// (current and future reconnections).
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
        for console in &mut self.consoles {
            console.set_op_timeout(timeout);
        }
    }

    /// Provisions the fleet root key on every console (current and
    /// future reconnections) so aggregated sweeps can verify each
    /// gateway's aggregate-root MACs.
    pub fn set_agg_root_key(&mut self, key: &[u8]) {
        self.agg_root = Some(key.to_vec());
        for console in &mut self.consoles {
            console.set_agg_root_key(key);
        }
    }

    /// Re-establishes the console to `gateway` after a crash/restart
    /// and repairs campaign state in layers, cheapest first: a gateway
    /// that never lost its run (connection blip) answers the in-place
    /// resume with [`OpsError::CampaignActive`] and keeps stepping; a
    /// restarted-but-retaining gateway resumes from its own retained
    /// checkpoint; only a fresh process with nothing retained is
    /// re-seeded from the console-held bytes (populated in durable
    /// mode) via [`FleetOps::campaign_resume`].
    ///
    /// # Errors
    ///
    /// Connection failures and resume refusals as [`OpsError`].
    pub fn reconnect(&mut self, gateway: usize) -> Result<(), OpsError> {
        let mut console = RemoteOps::connect(self.addrs[gateway])
            .map_err(|err| OpsError::Backend(format!("gateway {gateway}: {err}")))?;
        console.set_op_timeout(self.op_timeout);
        if let Some(key) = &self.agg_root {
            console.set_agg_root_key(key);
        }
        if let Some(cohort) = self.cohort {
            console.adopt(cohort);
        }
        if self.participating[gateway] && !self.finished[gateway] {
            match console.resume_retained() {
                // In-place resume from the gateway-retained record, or
                // the run was never lost at all.
                Ok(()) | Err(OpsError::CampaignActive) => {}
                // A fresh process retains nothing: replay the
                // console-held durable checkpoint, when there is one.
                Err(OpsError::NoCampaign) => {
                    if let Some(bytes) = self.checkpoints[gateway].clone() {
                        match console.campaign_resume(&bytes) {
                            Ok(()) | Err(OpsError::CampaignActive) => {}
                            Err(err) => return Err(at_gateway(gateway, err)),
                        }
                    }
                }
                Err(err) => return Err(at_gateway(gateway, err)),
            }
        }
        self.consoles[gateway] = console;
        Ok(())
    }

    /// The latest wave-boundary checkpoint retained for `gateway`
    /// (`None` for non-participants, gateways that finished, or before
    /// the first checkpoint lands).
    pub fn checkpoint(&self, gateway: usize) -> Option<&[u8]> {
        self.checkpoints[gateway].as_deref()
    }

    /// Scrapes every gateway's telemetry registry concurrently.
    /// Returns the merged cluster view plus the per-gateway snapshots,
    /// index-aligned with the address list. Counter totals in the
    /// merged view are the exact sums of the per-gateway values, and
    /// the merge is order-invariant (see the cluster proptests).
    ///
    /// # Errors
    ///
    /// The first per-gateway scrape failure, named by gateway index.
    pub fn metrics(
        &mut self,
    ) -> Result<
        (
            eilid_obs::RegistrySnapshot,
            Vec<eilid_obs::RegistrySnapshot>,
        ),
        OpsError,
    > {
        let parts = self.fan_out_all(RemoteOps::metrics)?;
        let mut merged = eilid_obs::RegistrySnapshot::empty();
        for part in &parts {
            merged.merge(part);
        }
        Ok((merged, parts))
    }

    /// The operator-side telemetry this cluster console records
    /// locally (fan-out latency) — *not* the gateways' registries;
    /// those come from [`ClusterOps::metrics`].
    pub fn local_metrics(&self) -> eilid_obs::RegistrySnapshot {
        self.obs.snapshot()
    }

    /// Runs `f` on every gateway's console concurrently and records
    /// the fan-out latency. Returns the results in placement order, or
    /// the first failure, named by gateway index.
    fn fan_out_all<R: Send>(
        &mut self,
        f: impl Fn(&mut RemoteOps<TcpTransport>) -> Result<R, OpsError> + Sync,
    ) -> Result<Vec<R>, OpsError> {
        let started = Instant::now();
        let results = fan_out(&mut self.consoles, |_| true, |_, console| f(console));
        self.fan_out_us.record_duration_us(started.elapsed());
        results
            .into_iter()
            .enumerate()
            .map(|(gateway, result)| {
                result
                    .expect("all selected")
                    .map_err(|e| at_gateway(gateway, e))
            })
            .collect()
    }

    /// Checkpoints one console in a single round trip: the gateway
    /// snapshots its *running* campaign into the retained slot without
    /// pausing it. In durable mode the serialised record rides back in
    /// the ack and is kept console-side; otherwise no `EPC2` bytes
    /// cross the wire at all — they are fetched only on actual
    /// failover.
    fn checkpoint_console(
        console: &mut RemoteOps<TcpTransport>,
        durable: bool,
    ) -> Result<Option<Vec<u8>>, OpsError> {
        let (_state, bytes) = console.campaign_checkpoint(durable)?;
        Ok((!bytes.is_empty()).then_some(bytes))
    }
}

impl FleetOps for ClusterOps {
    fn sweep(&mut self) -> Result<SweepSummary, OpsError> {
        Ok(merge_sweeps(&self.fan_out_all(RemoteOps::sweep)?))
    }

    fn sweep_aggregated(&mut self) -> Result<AggSweepSummary, OpsError> {
        let parts = self.fan_out_all(RemoteOps::sweep_aggregated)?;
        // Each console verified its own gateway's aggregate MACs; the
        // cluster merge folds the per-gateway shard roots (in pinned
        // gateway order) into one fleet root — O(gateways) operator
        // verifications total, summed in `roots_verified`.
        Ok(merge_agg_sweeps(&SoftwareProvider, &parts))
    }

    fn campaign_begin(&mut self, config: &CampaignConfig) -> Result<(), OpsError> {
        let durable = self.durable_checkpoints;
        let results = fan_out(
            &mut self.consoles,
            |_| true,
            |_, console| {
                console.campaign_begin(config)?;
                // Checkpoint immediately: a gateway crash during the very
                // first wave must also be resumable, not restartable-only.
                Self::checkpoint_console(console, durable)
            },
        );
        let mut first_refusal = None;
        for (gateway, result) in results.into_iter().enumerate() {
            match result.expect("all selected") {
                Ok(checkpoint) => {
                    self.participating[gateway] = true;
                    self.finished[gateway] = false;
                    self.checkpoints[gateway] = checkpoint;
                }
                Err(err) if is_unknown_cohort(&err) => {
                    self.participating[gateway] = false;
                    self.finished[gateway] = false;
                    self.checkpoints[gateway] = None;
                    first_refusal.get_or_insert(at_gateway(gateway, err));
                }
                Err(err) => return Err(at_gateway(gateway, err)),
            }
        }
        if !self.participating.iter().any(|&p| p) {
            return Err(first_refusal.unwrap_or(OpsError::NoCampaign));
        }
        self.cohort = Some(config.cohort);
        Ok(())
    }

    fn campaign_step(&mut self) -> Result<CampaignStatus, OpsError> {
        if self.cohort.is_none() {
            return Err(OpsError::NoCampaign);
        }
        let participating = self.participating.clone();
        let finished = self.finished.clone();
        let durable = self.durable_checkpoints;
        let started = Instant::now();
        let results = fan_out(
            &mut self.consoles,
            |gateway| participating[gateway] && !finished[gateway],
            |_, console| {
                let status = console.campaign_step()?;
                let checkpoint = match status {
                    CampaignStatus::InProgress { .. } => {
                        Self::checkpoint_console(console, durable)?
                    }
                    CampaignStatus::Finished => None,
                };
                Ok((status, checkpoint))
            },
        );
        self.fan_out_us.record_duration_us(started.elapsed());
        let mut next_wave: Option<usize> = None;
        for (gateway, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            let (status, checkpoint) = result.map_err(|e| at_gateway(gateway, e))?;
            match status {
                CampaignStatus::Finished => {
                    self.finished[gateway] = true;
                    self.checkpoints[gateway] = None;
                }
                CampaignStatus::InProgress { next_wave: wave } => {
                    self.checkpoints[gateway] = checkpoint;
                    next_wave = Some(next_wave.map_or(wave, |w| w.min(wave)));
                }
            }
        }
        match next_wave {
            Some(wave) => Ok(CampaignStatus::InProgress { next_wave: wave }),
            None => Ok(CampaignStatus::Finished),
        }
    }

    fn campaign_status(&mut self) -> Result<CampaignPhase, OpsError> {
        if self.cohort.is_none() {
            return Ok(CampaignPhase::Idle);
        }
        let participating = self.participating.clone();
        let results = fan_out(
            &mut self.consoles,
            |gateway| participating[gateway],
            |_, console| console.campaign_status(),
        );
        let mut phases = Vec::new();
        for (gateway, result) in results.into_iter().enumerate() {
            if let Some(result) = result {
                phases.push(result.map_err(|e| at_gateway(gateway, e))?);
            }
        }
        Ok(merge_phases(&phases))
    }

    fn campaign_pause(&mut self) -> Result<Vec<u8>, OpsError> {
        if self.cohort.is_none() {
            return Err(OpsError::NoCampaign);
        }
        let participating = self.participating.clone();
        let finished = self.finished.clone();
        let results = fan_out(
            &mut self.consoles,
            |gateway| participating[gateway] && !finished[gateway],
            |_, console| console.campaign_pause(),
        );
        let mut records: Vec<Option<Vec<u8>>> = Vec::with_capacity(results.len());
        for (gateway, result) in results.into_iter().enumerate() {
            match result {
                Some(result) => records.push(Some(result.map_err(|e| at_gateway(gateway, e))?)),
                None => records.push(None),
            }
        }
        Ok(encode_cluster_pause(
            &records,
            &self.participating,
            &self.finished,
        ))
    }

    fn campaign_resume(&mut self, paused: &[u8]) -> Result<(), OpsError> {
        let records = decode_cluster_pause(paused, self.addrs.len())?;
        // Learn the cohort from the first real record: every per-gateway
        // partition of one cluster campaign shares it.
        let cohort = records
            .iter()
            .find_map(|record| match record {
                PauseRecord::Paused(bytes) => PausedCampaign::from_bytes(bytes)
                    .ok()
                    .map(|paused| paused.cohort()),
                _ => None,
            })
            .ok_or(OpsError::NoCampaign)?;
        let results = fan_out(
            &mut self.consoles,
            |_| true,
            |gateway, console| match &records[gateway] {
                PauseRecord::Paused(bytes) => console.campaign_resume(bytes),
                PauseRecord::Finished => {
                    console.adopt(cohort);
                    Ok(())
                }
                PauseRecord::None => Ok(()),
            },
        );
        for (gateway, result) in results.into_iter().enumerate() {
            result
                .expect("all selected")
                .map_err(|e| at_gateway(gateway, e))?;
            match &records[gateway] {
                PauseRecord::Paused(bytes) => {
                    self.participating[gateway] = true;
                    self.finished[gateway] = false;
                    self.checkpoints[gateway] = Some(bytes.clone());
                }
                PauseRecord::Finished => {
                    self.participating[gateway] = true;
                    self.finished[gateway] = true;
                    self.checkpoints[gateway] = None;
                }
                PauseRecord::None => {
                    self.participating[gateway] = false;
                    self.finished[gateway] = false;
                    self.checkpoints[gateway] = None;
                }
            }
        }
        self.cohort = Some(cohort);
        Ok(())
    }

    fn campaign_report(&mut self) -> Result<CampaignReport, OpsError> {
        if self.cohort.is_none() {
            return Err(OpsError::NoCampaign);
        }
        let participating = self.participating.clone();
        let results = fan_out(
            &mut self.consoles,
            |gateway| participating[gateway],
            |_, console| console.campaign_report(),
        );
        let mut parts = Vec::new();
        for (gateway, result) in results.into_iter().enumerate() {
            if let Some(result) = result {
                parts.push(result.map_err(|e| at_gateway(gateway, e))?);
            }
        }
        merge_reports(&parts).ok_or(OpsError::NoCampaign)
    }

    fn health(&mut self) -> Result<OpsHealth, OpsError> {
        Ok(merge_health(&self.fan_out_all(RemoteOps::health)?))
    }
}

/// One gateway's slot in the cluster pause blob.
enum PauseRecord {
    /// Not a participant of the paused campaign.
    None,
    /// Mid-campaign: the gateway's [`PausedCampaign`] bytes.
    Paused(Vec<u8>),
    /// This gateway's partition already ran to completion.
    Finished,
}

/// Encodes the cluster pause blob: magic, gateway count, then one
/// flagged record per gateway in placement order.
fn encode_cluster_pause(
    records: &[Option<Vec<u8>>],
    participating: &[bool],
    finished: &[bool],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CLUSTER_PAUSE_MAGIC);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for gateway in 0..records.len() {
        match &records[gateway] {
            Some(bytes) => {
                out.push(PAUSE_RECORD);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            None if participating[gateway] && finished[gateway] => out.push(PAUSE_FINISHED),
            None => out.push(PAUSE_NONE),
        }
    }
    out
}

/// Decodes the cluster pause blob, validating magic, gateway count and
/// record framing.
fn decode_cluster_pause(blob: &[u8], gateways: usize) -> Result<Vec<PauseRecord>, OpsError> {
    let bad = |what: &str| OpsError::Backend(format!("malformed cluster pause record: {what}"));
    if blob.len() < 8 || &blob[..4] != CLUSTER_PAUSE_MAGIC {
        return Err(bad("missing ECL1 magic"));
    }
    let count = u32::from_le_bytes(blob[4..8].try_into().expect("4 bytes")) as usize;
    if count != gateways {
        return Err(OpsError::Backend(format!(
            "cluster pause record covers {count} gateways, cluster has {gateways}"
        )));
    }
    let mut records = Vec::with_capacity(count);
    let mut at = 8usize;
    for _ in 0..count {
        let flag = *blob.get(at).ok_or_else(|| bad("truncated flag"))?;
        at += 1;
        match flag {
            PAUSE_NONE => records.push(PauseRecord::None),
            PAUSE_FINISHED => records.push(PauseRecord::Finished),
            PAUSE_RECORD => {
                let len_bytes = blob
                    .get(at..at + 4)
                    .ok_or_else(|| bad("truncated record length"))?;
                let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
                at += 4;
                let bytes = blob
                    .get(at..at + len)
                    .ok_or_else(|| bad("truncated record bytes"))?;
                at += len;
                records.push(PauseRecord::Paused(bytes.to_vec()));
            }
            _ => return Err(bad("unknown record flag")),
        }
    }
    if at != blob.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(records)
}

/// Spawns placement-partitioned device-agent threads over the fleet —
/// the cluster counterpart of [`crate::with_attached_fleet`]. Devices
/// are bucketed by [`Placement`] over `addrs` (whole shards per
/// gateway), each gateway's bucket is split across
/// `agents_per_gateway` agent connections, and every agent runs a
/// **reconnect loop**: when its gateway crashes or drains, the agent
/// retries connect + attach until the gateway returns (or `f`
/// finishes) — this is what lets a supervisor restart a gateway
/// mid-campaign and have its devices re-attach unattended.
///
/// Unlike the single-gateway harness, agent-side transport errors are
/// absorbed by the reconnect loop rather than surfaced: during
/// failover they are expected, not exceptional.
///
/// # Errors
///
/// Currently none beyond the closure's own result shape; the
/// `Result` wrapper mirrors [`crate::with_attached_fleet`] so call
/// sites compose the same way.
pub fn with_placed_fleet<R, F>(
    fleet: &mut Fleet,
    addrs: &[SocketAddr],
    agents_per_gateway: usize,
    f: F,
) -> Result<R, NetError>
where
    F: FnOnce() -> R,
{
    let placement = Placement::new(addrs.len());
    let scheme = fleet.scheme();
    let mut parts: Vec<Vec<&mut SimDevice>> = (0..addrs.len()).map(|_| Vec::new()).collect();
    for device in fleet.devices_mut().iter_mut() {
        let gateway = placement.gateway_of(device.id());
        parts[gateway].push(device);
    }

    let stop = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (gateway, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let addr = addrs[gateway];
            let agents = agents_per_gateway.clamp(1, part.len());
            let chunk = part.len().div_ceil(agents);
            let mut devices = part.into_iter();
            loop {
                let batch: Vec<&mut SimDevice> = devices.by_ref().take(chunk).collect();
                if batch.is_empty() {
                    break;
                }
                let ready_tx = ready_tx.clone();
                let stop = &stop;
                handles.push(scope.spawn(move || {
                    let mut batch = batch;
                    let mut announced = false;
                    loop {
                        let served = (|| -> Result<(), NetError> {
                            let transport = TcpTransport::connect_with_timeout(
                                addr,
                                Duration::from_millis(100),
                            )?;
                            let mut agent = DeviceAgent::connect(transport, scheme)?;
                            agent.attach(&batch)?;
                            if !announced {
                                announced = true;
                                let _ = ready_tx.send(());
                            }
                            agent.serve(&mut batch, stop)
                        })();
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        // An orderly close or a transport error both
                        // mean the gateway went away (drain, restart,
                        // crash): wait a beat and re-attach.
                        let _ = served;
                        std::thread::sleep(AGENT_RECONNECT_BACKOFF);
                    }
                }));
            }
        }
        drop(ready_tx);

        // Gate on every agent's first successful attach, so a campaign
        // begun in `f` sees full membership on every gateway.
        let mut ready = 0usize;
        while ready < handles.len() {
            match ready_rx.recv_timeout(Duration::from_secs(30)) {
                Ok(()) => ready += 1,
                Err(_) => break,
            }
        }

        let output = f();
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            handle.join().expect("placed agent thread panicked");
        }
        Ok(output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_pause_blob_round_trips() {
        let records = vec![Some(vec![1u8, 2, 3]), None, None, Some(Vec::new())];
        let participating = vec![true, false, true, true];
        let finished = vec![false, false, true, false];
        let blob = encode_cluster_pause(&records, &participating, &finished);
        let decoded = decode_cluster_pause(&blob, 4).expect("round trip");
        assert!(matches!(&decoded[0], PauseRecord::Paused(b) if b == &[1, 2, 3]));
        assert!(matches!(decoded[1], PauseRecord::None));
        assert!(matches!(decoded[2], PauseRecord::Finished));
        assert!(matches!(&decoded[3], PauseRecord::Paused(b) if b.is_empty()));
    }

    #[test]
    fn cluster_pause_blob_rejects_malformed() {
        assert!(decode_cluster_pause(b"nope", 1).is_err());
        assert!(decode_cluster_pause(b"ECL1\x02\x00\x00\x00\x00\x00", 1).is_err());
        let records = vec![None];
        let blob = encode_cluster_pause(&records, &[false], &[false]);
        assert!(decode_cluster_pause(&blob, 1).is_ok());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(decode_cluster_pause(&trailing, 1).is_err());
        let mut bad_flag = blob;
        *bad_flag.last_mut().unwrap() = 9;
        assert!(decode_cluster_pause(&bad_flag, 1).is_err());
    }
}
