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
//! **Failover.** Right after begin, and after every wave that leaves
//! the campaign in progress, each console checkpoints its gateway's
//! campaign with the one-round-trip `OpCheckpoint` verb: the gateway
//! serialises the *running* run without pausing it, and the
//! [`PausedCampaign`] bytes ride back to be kept console-side. A
//! gateway refuses a checkpoint whose record would not fit its reply
//! frame (`Unsupported`, as it refuses such a pause); that gateway then
//! holds no checkpoint and the wave still counts. Any other checkpoint
//! failure fails the verb, named by gateway, once every gateway's begin
//! or step is recorded, so the campaign stays live. When a gateway goes
//! away mid-campaign, [`ClusterOps::reconnect`] asks the gateway for
//! its campaign: one that still has its run loaded (a connection blip)
//! keeps stepping, and one that reports `Idle` (a fresh process) is
//! re-seeded from the console-held bytes. Stepping then continues from
//! the wave boundary — a resume, not a redo. Wave replay is idempotent:
//! update nonces resume from the device-reported last nonce, so devices
//! that already applied the wave's patch simply accept it again. Only a
//! caller that calls `reconnect` fails over; [`FleetOps::run_campaign`]
//! stops at the first failed verb.
//!
//! **Pause** hands every gateway's record to the caller in one blob and
//! drops the console-held checkpoints, exactly as a single backend
//! keeps nothing: the cluster then reads `Idle`, and a reconnect
//! re-seeds nothing, until [`FleetOps::campaign_resume`] takes the blob
//! back. A pause that fails on one gateway hands the others their
//! records back and keeps each as that gateway's checkpoint, so a
//! failed hand-back is re-seeded by a reconnect. The failed gateway
//! keeps its checkpoint from the last wave boundary, so a reconnect
//! re-seeds it there if its process died.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use eilid_casu::wire::{put_bytes, CodecError, Reader};
use eilid_fleet::{
    merge_agg_sweeps, merge_health, merge_phases, merge_reports, merge_sweeps, AggSweepSummary,
    CampaignConfig, CampaignPhase, CampaignReport, CampaignStatus, Fleet, FleetOps, OpsError,
    OpsHealth, PausedCampaign, SimDevice, SweepSummary,
};
use eilid_workloads::WorkloadId;

use super::placement::Placement;
use crate::error::NetError;
use crate::ops::{DeviceAgent, RemoteOps, StopOnDrop};
use crate::transport::TcpTransport;
use crate::wire::MAX_OP_PAYLOAD;

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
    /// [`ClusterOps::reconnect`].
    checkpoints: Vec<Option<Vec<u8>>>,
    cohort: Option<WorkloadId>,
    /// Fleet root key bytes forwarded to every console (current and
    /// reconnected) so aggregated sweeps verify gateway aggregate
    /// proofs cluster-wide.
    agg_root: Option<Vec<u8>>,
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

/// Checkpoints one console's running campaign in a single round trip:
/// the gateway serialises the run without pausing it and the record
/// rides back in the ack. A gateway refuses a record past its reply
/// frame with `Unsupported` (matched on the pinned protocol string of
/// `ErrorCode::Unsupported`), as it would refuse a pause of that run:
/// that gateway then holds no checkpoint, and the verb still succeeds.
fn checkpoint_console(console: &mut RemoteOps<TcpTransport>) -> Result<Option<Vec<u8>>, OpsError> {
    match console.campaign_checkpoint() {
        Ok(record) => Ok(Some(record)),
        Err(OpsError::Backend(msg)) if msg.contains("unsupported operation") => Ok(None),
        Err(err) => Err(err),
    }
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
        Ok(ClusterOps {
            addrs: addrs.to_vec(),
            consoles,
            participating: vec![false; n],
            finished: vec![false; n],
            checkpoints: vec![None; n],
            cohort: None,
            agg_root: None,
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

    /// Provisions the fleet root key on every console (current and
    /// future reconnections) so aggregated sweeps can verify each
    /// gateway's aggregate-root MACs.
    pub fn set_agg_root_key(&mut self, key: &[u8]) {
        self.agg_root = Some(key.to_vec());
        for console in &mut self.consoles {
            console.set_agg_root_key(key);
        }
    }

    /// Re-establishes the console to `gateway` after a crash/restart.
    /// A gateway that still has the campaign's run loaded (a connection
    /// blip) keeps stepping it; one that reports
    /// [`CampaignPhase::Idle`] (a fresh process) is re-seeded from the
    /// console-held checkpoint of the last wave boundary via
    /// [`FleetOps::campaign_resume`]. A paused cluster holds no
    /// checkpoint, so it stays paused.
    ///
    /// # Errors
    ///
    /// Connection failures, status queries and resume refusals as
    /// [`OpsError`].
    pub fn reconnect(&mut self, gateway: usize) -> Result<(), OpsError> {
        let mut console = RemoteOps::connect(self.addrs[gateway])
            .map_err(|err| OpsError::Backend(format!("gateway {gateway}: {err}")))?;
        if let Some(key) = &self.agg_root {
            console.set_agg_root_key(key);
        }
        if let Some(cohort) = self.cohort {
            console.adopt(cohort);
            if let Some(bytes) = &self.checkpoints[gateway] {
                let at = |err| at_gateway(gateway, err);
                if console.campaign_status().map_err(at)? == CampaignPhase::Idle {
                    console.campaign_resume(bytes).map_err(at)?;
                }
            }
        }
        self.consoles[gateway] = console;
        Ok(())
    }

    /// The latest wave-boundary checkpoint held for `gateway`: taken
    /// right after begin and after every wave that left the gateway's
    /// run in progress (a failed one keeps the previous record). `None`
    /// for non-participants, gateways that finished, a gateway whose
    /// record is past its reply frame or whose begin checkpoint failed,
    /// and after a pause.
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

    /// Runs `f` on every gateway's console concurrently. Returns the
    /// results in placement order, or the first failure, named by
    /// gateway index.
    fn fan_out_all<R: Send>(
        &mut self,
        f: impl Fn(&mut RemoteOps<TcpTransport>) -> Result<R, OpsError> + Sync,
    ) -> Result<Vec<R>, OpsError> {
        let results = fan_out(&mut self.consoles, |_| true, |_, console| f(console));
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
        Ok(merge_agg_sweeps(&parts))
    }

    fn campaign_begin(&mut self, config: &CampaignConfig) -> Result<(), OpsError> {
        let results = fan_out(
            &mut self.consoles,
            |_| true,
            |_, console| {
                console.campaign_begin(config)?;
                // Checkpoint immediately: a gateway crash during the very
                // first wave must also be resumable, not restartable-only.
                Ok(checkpoint_console(console))
            },
        );
        let mut first_refusal = None;
        let mut checkpoint_failure = None;
        for (gateway, result) in results.into_iter().enumerate() {
            match result.expect("all selected") {
                Ok(checkpoint) => {
                    self.participating[gateway] = true;
                    self.finished[gateway] = false;
                    self.checkpoints[gateway] = checkpoint.unwrap_or_else(|err| {
                        checkpoint_failure.get_or_insert(at_gateway(gateway, err));
                        None
                    });
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
        // Every participant loaded its run, so the campaign is live even
        // when a checkpoint failed: the caller can still step, pause or
        // reconnect the gateway the error names.
        self.cohort = Some(config.cohort);
        checkpoint_failure.map_or(Ok(()), Err)
    }

    fn campaign_step(&mut self) -> Result<CampaignStatus, OpsError> {
        if self.cohort.is_none() {
            return Err(OpsError::NoCampaign);
        }
        let participating = self.participating.clone();
        let finished = self.finished.clone();
        let results = fan_out(
            &mut self.consoles,
            |gateway| participating[gateway] && !finished[gateway],
            |_, console| {
                let status = console.campaign_step()?;
                let checkpoint = match status {
                    CampaignStatus::InProgress { .. } => checkpoint_console(console),
                    CampaignStatus::Finished => Ok(None),
                };
                Ok((status, checkpoint))
            },
        );
        // Record every gateway that stepped before reporting a failure,
        // so the next verb sees where each partition is.
        let mut failure = None;
        let mut next_wave: Option<usize> = None;
        for (gateway, result) in results.into_iter().enumerate() {
            let (status, checkpoint) = match result {
                None => continue,
                Some(Ok(stepped)) => stepped,
                Some(Err(err)) => {
                    failure.get_or_insert(at_gateway(gateway, err));
                    continue;
                }
            };
            match status {
                CampaignStatus::Finished => {
                    self.finished[gateway] = true;
                    self.checkpoints[gateway] = None;
                }
                CampaignStatus::InProgress { next_wave: wave } => {
                    // A failed checkpoint leaves the previous boundary's
                    // record: a re-seed from it replays one more wave.
                    match checkpoint {
                        Ok(record) => self.checkpoints[gateway] = record,
                        Err(err) => {
                            failure.get_or_insert(at_gateway(gateway, err));
                        }
                    }
                    next_wave = Some(next_wave.map_or(wave, |w| w.min(wave)));
                }
            }
        }
        if let Some(err) = failure {
            return Err(err);
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
        let participating = self.participating.clone();
        let finished = self.finished.clone();
        let running = |gateway: usize| participating[gateway] && !finished[gateway];
        if self.cohort.is_none() || !(0..self.addrs.len()).any(running) {
            // Nothing loaded, or every partition finished: nothing left
            // to pause, as on a single backend.
            return Err(OpsError::NoCampaign);
        }
        let results = fan_out(&mut self.consoles, running, |_, console| {
            console.campaign_pause()
        });
        let mut records: Vec<Option<Vec<u8>>> = Vec::with_capacity(results.len());
        let mut failure = None;
        for (gateway, result) in results.into_iter().enumerate() {
            match result {
                Some(Ok(bytes)) => records.push(Some(bytes)),
                Some(Err(err)) => {
                    failure.get_or_insert(at_gateway(gateway, err));
                    records.push(None);
                }
                None => records.push(None),
            }
        }
        if let Some(err) = failure {
            // The gateways that did pause hold nothing now: hand each
            // its record back, and keep it as that gateway's checkpoint,
            // so one whose hand-back fails is re-seeded by `reconnect`.
            // A record whose `OpPaused` reply never arrived is not here:
            // that gateway's checkpoint from the last wave boundary
            // stands in for it.
            for (gateway, record) in records.iter().enumerate() {
                if record.is_some() {
                    self.checkpoints[gateway].clone_from(record);
                }
            }
            let _ = fan_out(
                &mut self.consoles,
                |gateway| records[gateway].is_some(),
                |gateway, console| {
                    console.campaign_resume(records[gateway].as_deref().expect("selected"))
                },
            );
            return Err(err);
        }
        // The caller owns the campaign now: no checkpoint may re-seed a
        // gateway on reconnect, and the cluster reads `Idle`.
        self.checkpoints.fill(None);
        self.cohort = None;
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
        let merged = merge_health(&self.fan_out_all(RemoteOps::health)?);
        // After a pause the gateways of finished partitions still read
        // `Finished`, but the campaign is the caller's: the cluster
        // reads `Idle`. Otherwise non-participants read `Idle`, which
        // the merge ignores, so the merged phase is the cluster's own.
        Ok(OpsHealth {
            campaign: match self.cohort {
                Some(_) => merged.campaign,
                None => CampaignPhase::Idle,
            },
            ..merged
        })
    }
}

/// One gateway's slot in the cluster pause blob.
#[derive(Debug, PartialEq)]
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
                put_bytes(&mut out, bytes);
            }
            None if participating[gateway] && finished[gateway] => out.push(PAUSE_FINISHED),
            None => out.push(PAUSE_NONE),
        }
    }
    out
}

/// Decodes the cluster pause blob, validating magic, gateway count and
/// record framing (each record bounded like the frame that carried it).
fn decode_cluster_pause(blob: &[u8], gateways: usize) -> Result<Vec<PauseRecord>, OpsError> {
    let bad = |what: &dyn std::fmt::Display| {
        OpsError::Backend(format!("malformed cluster pause record: {what}"))
    };
    let Some(body) = blob.strip_prefix(CLUSTER_PAUSE_MAGIC) else {
        return Err(bad(&"missing ECL1 magic"));
    };
    let mut reader = Reader::new(body);
    let count = reader.u32().map_err(|err| bad(&err))? as usize;
    if count != gateways {
        return Err(OpsError::Backend(format!(
            "cluster pause record covers {count} gateways, cluster has {gateways}"
        )));
    }
    let records = (0..count)
        .map(|_| {
            Ok(match reader.u8()? {
                PAUSE_NONE => PauseRecord::None,
                PAUSE_FINISHED => PauseRecord::Finished,
                PAUSE_RECORD => PauseRecord::Paused(reader.bytes(MAX_OP_PAYLOAD)?.to_vec()),
                value => {
                    return Err(CodecError::BadEnum {
                        field: "cluster pause flag",
                        value,
                    })
                }
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()
        .map_err(|err| bad(&err))?;
    if !reader.is_empty() {
        return Err(bad(&"trailing bytes"));
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
/// mid-campaign and have its devices re-attach unattended. A panic in
/// `f` stops the agents too, and reaches the caller.
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

        let output = {
            let _stop = StopOnDrop(&stop);
            f()
        };
        for handle in handles {
            handle.join().expect("placed agent thread panicked");
        }
        Ok(output)
    })
}

#[cfg(test)]
#[path = "../../tests/support/mutate.rs"]
mod mutate;

#[cfg(test)]
mod tests {
    use super::mutate::{assert_round_trip, fuzz};
    use super::*;

    /// Re-encodes decoded records: a finished or paused slot is a
    /// participant, an empty one is not.
    fn reencode(records: &[PauseRecord]) -> Vec<u8> {
        let paused: Vec<Option<Vec<u8>>> = records
            .iter()
            .map(|record| match record {
                PauseRecord::Paused(bytes) => Some(bytes.clone()),
                _ => None,
            })
            .collect();
        let participating: Vec<bool> = records
            .iter()
            .map(|record| *record != PauseRecord::None)
            .collect();
        let finished: Vec<bool> = records
            .iter()
            .map(|record| *record == PauseRecord::Finished)
            .collect();
        encode_cluster_pause(&paused, &participating, &finished)
    }

    /// Mutation-fuzz loop over the ECL1 decoder (see
    /// `tests/support/mutate.rs`): it never panics, and whatever it
    /// accepts re-encodes to a blob that decodes to the same records.
    #[test]
    fn cluster_pause_decoder_survives_mutated_blobs() {
        let corpus = vec![
            encode_cluster_pause(
                &[Some(vec![1, 2, 3]), None, None],
                &[true, false, true],
                &[false, false, true],
            ),
            encode_cluster_pause(
                &[
                    Some(b"EPC3".to_vec()),
                    Some(Vec::new()),
                    Some(vec![0xFF; 40]),
                ],
                &[true, true, true],
                &[false, false, false],
            ),
            encode_cluster_pause(
                &[None, None, None],
                &[true, true, false],
                &[true, true, false],
            ),
        ];
        fuzz("cluster_pause", &corpus, 20_000, |input| {
            if let Ok(records) = decode_cluster_pause(input, 3) {
                let again = decode_cluster_pause(&reencode(&records), 3)
                    .expect("re-encoded pause blob decodes");
                assert_round_trip(records.as_slice(), again.as_slice(), reencode);
            }
        });
    }

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

    /// The ECL1 layout, pinned in hex: magic, gateway count, then per
    /// gateway a flag (1 paused with a length-prefixed record, 2
    /// finished, 0 not participating).
    #[test]
    fn cluster_pause_blob_bytes_are_pinned() {
        let blob = encode_cluster_pause(
            &[Some(vec![0xE5, 0x01]), None, None, Some(Vec::new())],
            &[true, true, false, true],
            &[false, true, false, false],
        );
        let hex: String = blob.iter().map(|byte| format!("{byte:02x}")).collect();
        assert_eq!(
            hex,
            "45434c3104000000\
             0102000000e501\
             02\
             00\
             0100000000"
        );
        assert_eq!(decode_cluster_pause(&blob, 4).unwrap().len(), 4);
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
