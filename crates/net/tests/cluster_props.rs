//! Cluster-plane properties: placement stability, merge equivalence,
//! and full multi-gateway scenarios over real loopback TCP — a cluster
//! sweep/campaign must look exactly like a single-gateway (or
//! in-process) run over the union fleet, including through a
//! mid-campaign gateway restart and a drain/hand-back cycle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::ops::class_index;
use eilid_fleet::{
    merge_sweeps, CampaignConfig, CampaignOutcome, CampaignPhase, CampaignStatus, Fleet,
    FleetBuilder, FleetOps, HealthClass, LocalOps, OpsError, SweepSummary, Verifier, SHARD_COUNT,
};
use eilid_net::cluster::{with_placed_fleet, ClusterOps, Placement};
use eilid_net::{
    AttestationService, ErrorCode, Frame, FrameDecoder, Gateway, GatewayConfig, GatewayHandle,
    RemoteOps, CAMPAIGN_STATE_IDLE, CAMPAIGN_STATE_RUNNING, PROTOCOL_VERSION,
};
use eilid_obs::RegistrySnapshot;
use eilid_workloads::WorkloadId;
use proptest::prelude::*;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

/// Named counter value in a snapshot (absent counters read as 0).
fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn build(devices: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

fn spawn_gateway_at(
    verifier: &mut Verifier,
    addr: (&str, u16),
) -> (GatewayHandle, Arc<AttestationService>) {
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let gateway = Gateway::bind(addr, Arc::clone(&service), GatewayConfig::default()).unwrap();
    (gateway.spawn(), service)
}

fn spawn_cluster(
    verifier: &mut Verifier,
    gateways: usize,
) -> (Vec<GatewayHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..gateways {
        let (handle, _service) = spawn_gateway_at(verifier, ("127.0.0.1", 0));
        addrs.push(handle.addr());
        handles.push(handle);
    }
    (handles, addrs)
}

/// Polls the cluster until every device re-attached (agents reconnect
/// asynchronously after a gateway restart).
fn wait_attached(ops: &mut ClusterOps, devices: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        match ops.health() {
            Ok(health) if health.devices == devices => return,
            _ if Instant::now() >= deadline => panic!("devices never re-attached"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A benign staged campaign whose canary cut is exact on every
/// placement partition: with `devices = 2 × SHARD_COUNT` each shard
/// holds exactly 2 devices, so a gateway owning `m` shards has `2m`
/// cohort members and `canary_fraction = 0.5` cuts it at exactly `m` —
/// making the merged wave sizes equal the union run's, not just close.
fn exact_cut_config() -> CampaignConfig {
    let mut config =
        CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    config.canary_fraction = 0.5;
    config.smoke_cycles = 100_000;
    config
}

// ---------------------------------------------------------------------
// Pure placement + merge properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Growing the cluster only moves shards **onto the new gateway**:
    /// every shard either keeps its owner or moves to index `n` — the
    /// rendezvous-hash stability that keeps per-shard key caches warm
    /// through scale-out.
    #[test]
    fn placement_growth_only_moves_shards_to_the_new_gateway(gateways in 1usize..12) {
        let before = Placement::new(gateways);
        let after = Placement::new(gateways + 1);
        for shard in 0..SHARD_COUNT {
            let old = before.gateway_of_shard(shard);
            let new = after.gateway_of_shard(shard);
            prop_assert!(
                new == old || new == gateways,
                "shard {shard} moved {old} → {new} while adding gateway {gateways}"
            );
        }
    }

    /// Partitioning is exact and placement-consistent: every device
    /// lands in exactly the bucket of its shard's gateway, and the
    /// buckets cover the input.
    #[test]
    fn placement_partition_is_exact(
        gateways in 1usize..8,
        devices in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let placement = Placement::new(gateways);
        let parts = placement.partition(devices.iter().copied());
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, devices.len());
        for (gateway, part) in parts.iter().enumerate() {
            for &device in part {
                prop_assert_eq!(placement.gateway_of(device), gateway);
                prop_assert_eq!(
                    placement.gateway_of_shard((device % SHARD_COUNT as u64) as usize),
                    gateway
                );
            }
        }
    }

    /// Merged telemetry is placement-independent: for synthetic
    /// per-gateway snapshots, every merged counter equals the sum over
    /// the parts, and merging in any order yields the identical
    /// snapshot — the guarantee that lets `ClusterOps::metrics` fold
    /// gateways in whatever order the fan-out returns them.
    #[test]
    fn merged_metrics_equal_per_gateway_sums_in_any_order(
        parts in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0u64..1 << 40), 0..8),
            1..5,
        ),
        order in proptest::collection::vec(any::<usize>(), 1..5),
    ) {
        let names = [
            "eilid_gateway_frames_received_total",
            "eilid_gateway_accepted_total",
            "eilid_service_reports_verified_total",
            "eilid_gateway_rejects_total",
        ];
        let snapshots: Vec<RegistrySnapshot> = parts
            .iter()
            .map(|counters| {
                let mut snap = RegistrySnapshot::empty();
                for &(name, value) in counters {
                    let prior = counter(&snap, names[name]);
                    snap.put_counter(names[name], prior + value);
                }
                snap
            })
            .collect();

        let mut merged = RegistrySnapshot::empty();
        for snap in &snapshots {
            merged.merge(snap);
        }
        for name in names {
            let sum: u64 = snapshots.iter().map(|s| counter(s, name)).sum();
            prop_assert_eq!(counter(&merged, name), sum);
        }

        // Fold the same parts in a permuted order: identical snapshot.
        let count = snapshots.len();
        let mut indices: Vec<usize> = (0..count).collect();
        for (slot, pick) in order.iter().enumerate().take(count) {
            indices.swap(slot, pick % count);
        }
        let mut permuted = RegistrySnapshot::empty();
        for &index in &indices {
            permuted.merge(&snapshots[index]);
        }
        prop_assert_eq!(permuted, merged);
    }

    /// Merging per-gateway sweep summaries built from a placement
    /// partition reproduces the summary of the union fleet exactly —
    /// counts, totals, and the id-sorted flagged list.
    #[test]
    fn merged_partition_sweeps_equal_union_sweep(
        gateways in 1usize..6,
        classified in proptest::collection::vec(
            (any::<u64>(), 0usize..4),
            0..48,
        ),
    ) {
        let classes = [
            HealthClass::Attested,
            HealthClass::Stale,
            HealthClass::Tampered,
            HealthClass::Unverified,
        ];
        // Dedup ids: a device appears on exactly one gateway.
        let mut seen = std::collections::BTreeMap::new();
        for (id, class) in classified {
            seen.entry(id).or_insert(classes[class]);
        }
        let summarize = |devices: &[(u64, HealthClass)]| {
            let mut summary = SweepSummary {
                devices: devices.len(),
                counts: [0; 4],
                flagged: Vec::new(),
            };
            for &(id, class) in devices {
                summary.counts[class_index(class)] += 1;
                if class != HealthClass::Attested {
                    summary.flagged.push((id, class));
                }
            }
            summary.flagged.sort_by_key(|&(id, _)| id);
            summary
        };
        let union: Vec<(u64, HealthClass)> = seen.into_iter().collect();
        let placement = Placement::new(gateways);
        let mut parts: Vec<Vec<(u64, HealthClass)>> = vec![Vec::new(); gateways];
        for &(id, class) in &union {
            parts[placement.gateway_of(id)].push((id, class));
        }
        let merged = merge_sweeps(&parts.iter().map(|p| summarize(p)).collect::<Vec<_>>());
        prop_assert_eq!(merged, summarize(&union));
    }
}

// ---------------------------------------------------------------------
// End-to-end cluster scenarios over loopback TCP
// ---------------------------------------------------------------------

/// A 3-gateway cluster sweep and staged campaign over loopback TCP
/// report exactly like the in-process backend over the union fleet:
/// same `SweepSummary`, wave-for-wave equal `CampaignReport`, merged
/// health seeing every device.
#[test]
fn cluster_sweep_and_campaign_match_union_run() {
    let devices = 2 * SHARD_COUNT;
    let config = exact_cut_config();

    let (mut fleet_a, mut verifier_a) = build(devices);
    let mut local = LocalOps::new(&mut fleet_a, &mut verifier_a);
    let report_a = local.run_campaign(&config).expect("local campaign");
    let sweep_a = local.sweep().expect("local sweep");
    assert_eq!(
        report_a.outcome,
        CampaignOutcome::Completed { updated: devices }
    );

    let (mut fleet_b, mut verifier_b) = build(devices);
    let (handles, addrs) = spawn_cluster(&mut verifier_b, 3);
    let (report_b, sweep_b, health) = with_placed_fleet(&mut fleet_b, &addrs, 2, || {
        let mut ops = ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&config)?;
        let sweep = ops.sweep()?;
        let health = ops.health()?;
        Ok::<_, OpsError>((report, sweep, health))
    })
    .expect("placed agents served cleanly")
    .expect("cluster campaign succeeds");
    for handle in handles {
        handle.shutdown().unwrap();
    }

    assert_eq!(
        report_b, report_a,
        "cluster campaign must report wave-for-wave like the union run"
    );
    assert_eq!(sweep_b, sweep_a, "cluster sweep must equal the union sweep");
    assert_eq!(sweep_b.count(HealthClass::Attested), devices);
    assert_eq!(health.devices, devices, "merged health sees every device");
}

/// Scraping a live 3-gateway cluster after a sweep: the merged
/// snapshot's counters equal the per-gateway sums, the service-level
/// verification counter accounts for every device, and folding the
/// per-gateway parts in any order produces the identical snapshot.
#[test]
fn cluster_metrics_merge_matches_per_gateway_sums() {
    let devices = 2 * SHARD_COUNT;
    let (mut fleet, mut verifier) = build(devices);
    let (handles, addrs) = spawn_cluster(&mut verifier, 3);

    let (merged, parts) = with_placed_fleet(&mut fleet, &addrs, 2, || {
        let mut ops = ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
        let sweep = ops.sweep()?;
        assert_eq!(sweep.count(HealthClass::Attested), devices);
        ops.metrics()
    })
    .expect("placed agents served cleanly")
    .expect("cluster metrics scrape succeeds");
    for handle in handles {
        handle.shutdown().unwrap();
    }

    assert_eq!(parts.len(), addrs.len(), "one snapshot per gateway");
    for name in [
        "eilid_gateway_frames_received_total",
        "eilid_gateway_accepted_total",
        "eilid_ops_agg_sweeps_total",
        "eilid_service_reports_verified_total",
        "eilid_service_challenges_issued_total",
    ] {
        let sum: u64 = parts.iter().map(|part| counter(part, name)).sum();
        assert_eq!(
            counter(&merged, name),
            sum,
            "merged {name} must equal the per-gateway sum"
        );
    }
    assert!(
        counter(&merged, "eilid_service_reports_verified_total") >= devices as u64,
        "a full sweep verifies every device at least once"
    );
    for part in &parts {
        assert!(
            counter(part, "eilid_gateway_accepted_total") > 0,
            "placement spreads connections over every gateway"
        );
    }

    // Fold the parts in reversed and rotated orders: merge must be
    // order-invariant, or a cluster scrape would depend on which
    // gateway answered first.
    let fold = |indices: &[usize]| {
        let mut snap = RegistrySnapshot::empty();
        for &index in indices {
            snap.merge(&parts[index]);
        }
        snap
    };
    let forward = fold(&[0, 1, 2]);
    assert_eq!(forward, fold(&[2, 1, 0]));
    assert_eq!(forward, fold(&[1, 2, 0]));
    assert_eq!(
        counter(&forward, "eilid_gateway_frames_received_total"),
        counter(&merged, "eilid_gateway_frames_received_total"),
    );
}

/// Mid-campaign failover: one of two gateways is torn down after the
/// canary wave and relaunched fresh on the same address. The agents
/// re-attach on their own, `ClusterOps::reconnect` replays the
/// console-held wave checkpoint into the new process, and the campaign
/// *resumes* — the final report equals the uninterrupted union run's.
#[test]
fn campaign_resumes_through_gateway_restart() {
    let devices = 2 * SHARD_COUNT;
    let config = exact_cut_config();

    let (mut fleet_a, mut verifier_a) = build(devices);
    let mut local = LocalOps::new(&mut fleet_a, &mut verifier_a);
    let report_a = local.run_campaign(&config).expect("local campaign");

    let (mut fleet_b, mut verifier_b) = build(devices);
    let (handles, addrs) = spawn_cluster(&mut verifier_b, 2);
    let mut handles: Vec<Option<GatewayHandle>> = handles.into_iter().map(Some).collect();
    let verifier = &mut verifier_b;
    let report_b = with_placed_fleet(&mut fleet_b, &addrs, 2, || {
        let mut ops = ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
        // The restarted gateway is a *fresh process image*: its
        // campaign dies with it, so the console holds the bytes itself
        // to replay them into the replacement.
        ops.campaign_begin(&config)?;
        let status = ops.campaign_step()?;
        assert!(
            matches!(status, CampaignStatus::InProgress { .. }),
            "canary wave leaves the campaign in progress"
        );
        assert!(
            ops.checkpoint(1).is_some() || ops.checkpoint(0).is_some(),
            "durable wave checkpoints are held operator-side"
        );

        // Tear gateway 1 down (its campaign state dies with it) and
        // bring up a fresh process on the same address.
        let port = addrs[1].port();
        handles[1].take().unwrap().shutdown().unwrap();
        let (handle, _service) = spawn_gateway_at(verifier, ("127.0.0.1", port));
        handles[1] = Some(handle);

        // Reconnect replays the checkpoint; the placed agents re-attach
        // on their own reconnect loops.
        ops.reconnect(1)?;
        wait_attached(&mut ops, devices, Duration::from_secs(30));

        loop {
            if ops.campaign_step()? == CampaignStatus::Finished {
                break;
            }
        }
        ops.campaign_report()
    })
    .expect("placed agents served cleanly")
    .expect("resumed cluster campaign succeeds");
    for handle in handles.into_iter().flatten() {
        handle.shutdown().unwrap();
    }

    assert_eq!(
        report_b, report_a,
        "a campaign resumed through a gateway restart must report like an uninterrupted run"
    );
}

/// A paused cluster stays paused through a reconnect: the pause hands
/// every gateway's record to the caller and drops the wave
/// checkpoints, so `reconnect(0)` re-seeds nothing and every gateway
/// reads `Idle`; the blob then resumes on the same cluster and the
/// report equals the uninterrupted union run's.
#[test]
fn paused_cluster_stays_paused_through_a_reconnect() {
    let devices = 2 * SHARD_COUNT;
    let config = exact_cut_config();

    let (mut fleet_a, mut verifier_a) = build(devices);
    let report_a = LocalOps::new(&mut fleet_a, &mut verifier_a)
        .run_campaign(&config)
        .expect("local campaign");

    let (mut fleet_b, mut verifier_b) = build(devices);
    let (handles, addrs) = spawn_cluster(&mut verifier_b, 2);
    let (phases, report_b) = with_placed_fleet(&mut fleet_b, &addrs, 2, || {
        let mut ops = ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
        // Every wave leaves a checkpoint a reconnect could wrongly
        // replay.
        ops.campaign_begin(&config)?;
        ops.campaign_step()?;
        let blob = ops.campaign_pause()?;
        ops.reconnect(0)?;
        let mut phases = vec![ops.campaign_status()?];
        for &addr in &addrs {
            let mut console =
                RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
            console.adopt(config.cohort);
            phases.push(console.campaign_status()?);
        }
        ops.campaign_resume(&blob)?;
        while ops.campaign_step()? != CampaignStatus::Finished {}
        Ok::<_, OpsError>((phases, ops.campaign_report()?))
    })
    .expect("placed agents served cleanly")
    .expect("paused cluster campaign resumes");
    for handle in handles {
        handle.shutdown().unwrap();
    }

    assert_eq!(
        phases,
        vec![CampaignPhase::Idle; 3],
        "the cluster, then each gateway, after pause and reconnect"
    );
    assert_eq!(report_b, report_a);
}

/// A cluster pause that fails on one gateway hands the others their
/// records back: with gateway 1 gone, the pause errors and gateway 0
/// still has its run loaded at the same wave.
#[test]
fn a_failed_cluster_pause_leaves_the_paused_gateways_loaded() {
    let devices = 2 * SHARD_COUNT;
    let config = exact_cut_config();

    let (mut fleet, mut verifier) = build(devices);
    let (handles, addrs) = spawn_cluster(&mut verifier, 2);
    let mut handles: Vec<Option<GatewayHandle>> = handles.into_iter().map(Some).collect();
    let (pause, phase) = with_placed_fleet(&mut fleet, &addrs, 2, || {
        let mut ops = ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.campaign_begin(&config)?;
        ops.campaign_step()?;
        handles[1].take().unwrap().shutdown().unwrap();
        let pause = ops.campaign_pause().map(|_| ());
        let mut console =
            RemoteOps::connect(addrs[0]).map_err(|e| OpsError::Backend(e.to_string()))?;
        console.adopt(config.cohort);
        Ok::<_, OpsError>((pause, console.campaign_status()?))
    })
    .expect("placed agents served cleanly")
    .expect("gateway 0 answers");
    for handle in handles.into_iter().flatten() {
        handle.shutdown().unwrap();
    }

    assert!(
        matches!(&pause, Err(OpsError::Backend(msg)) if msg.starts_with("gateway 1")),
        "the pause names the failed gateway: {pause:?}"
    );
    assert_eq!(phase, CampaignPhase::InProgress { next_wave: 1 });
}

/// A scripted gateway, for faults a live one cannot be made to show on
/// cue: it serves one console connection per script, in order, answers
/// the handshake, then answers each request with the script's next
/// frame, or hangs up at `None`. The thread returns every request.
fn scripted_gateway(scripts: Vec<Vec<Option<Frame>>>) -> (SocketAddr, JoinHandle<Vec<Frame>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut requests = Vec::new();
        for script in scripts {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut decoder = FrameDecoder::new();
            let mut recv = |stream: &mut TcpStream| loop {
                if let Some(frame) = decoder.next_frame().unwrap() {
                    break frame;
                }
                let mut buf = [0u8; 4096];
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "the console hung up");
                decoder.extend(&buf[..n]);
            };
            assert!(matches!(recv(&mut stream), Frame::Hello { .. }));
            let hello_ack = Frame::HelloAck {
                version: PROTOCOL_VERSION,
            };
            stream.write_all(&hello_ack.encode()).unwrap();
            for reply in script {
                requests.push(recv(&mut stream));
                let Some(reply) = reply else { break };
                stream.write_all(&reply.encode()).unwrap();
            }
        }
        requests
    });
    (addr, handle)
}

/// A cluster pause that fails on gateway 1 hands gateway 0 its record
/// back. When that hand-back fails too (gateway 0 hangs up), the record
/// stays console-held as gateway 0's checkpoint, and `reconnect(0)`
/// re-seeds the fresh gateway with exactly the paused bytes.
#[test]
fn a_failed_hand_back_keeps_the_record_for_reconnect() {
    let config = exact_cut_config();
    let cohort = config.cohort;
    // The scripted gateways do not parse records: any bytes stand in.
    let record = b"gateway 0's record at its pause".to_vec();
    let status = |state| {
        Some(Frame::CampaignStatus {
            cohort,
            state,
            wave_cursor: 0,
        })
    };
    let (addr0, gateway0) = scripted_gateway(vec![
        vec![
            status(CAMPAIGN_STATE_RUNNING),
            Some(Frame::OpCheckpointAck {
                cohort,
                paused: b"gateway 0's record at begin".to_vec(),
            }),
            Some(Frame::OpPaused {
                cohort,
                paused: record.clone(),
            }),
            None,
        ],
        vec![status(CAMPAIGN_STATE_IDLE), status(CAMPAIGN_STATE_RUNNING)],
    ]);
    let (addr1, gateway1) = scripted_gateway(vec![vec![
        status(CAMPAIGN_STATE_RUNNING),
        Some(Frame::OpCheckpointAck {
            cohort,
            paused: b"gateway 1's record at begin".to_vec(),
        }),
        Some(Frame::Error {
            code: ErrorCode::Unsupported,
        }),
    ]]);

    let mut ops = ClusterOps::connect(&[addr0, addr1]).unwrap();
    ops.campaign_begin(&config).unwrap();
    let pause = ops.campaign_pause();
    assert!(
        matches!(&pause, Err(OpsError::Backend(msg)) if msg.starts_with("gateway 1")),
        "the pause names the failed gateway: {pause:?}"
    );
    assert_eq!(ops.checkpoint(0), Some(record.as_slice()));
    ops.reconnect(0).unwrap();

    let requests = gateway0.join().unwrap();
    assert_eq!(requests.last(), Some(&Frame::OpResume { paused: record }));
    gateway1.join().unwrap();
}

/// The scripted replies of one gateway through begin and one step:
/// the begin's status, its checkpoint's ack, the step's status, then
/// `checkpoint` as the answer to the step's checkpoint.
fn begin_then_step(cohort: WorkloadId, checkpoint: Option<Frame>) -> Vec<Option<Frame>> {
    let status = |wave_cursor| {
        Some(Frame::CampaignStatus {
            cohort,
            state: CAMPAIGN_STATE_RUNNING,
            wave_cursor,
        })
    };
    let ack = Frame::OpCheckpointAck {
        cohort,
        paused: b"record at begin".to_vec(),
    };
    vec![status(0), Some(ack), status(1), checkpoint]
}

/// A gateway that refuses a checkpoint with `Unsupported` (its record
/// is past the reply frame, as a pause of that run would be) holds no
/// checkpoint, and the step still succeeds; the other gateway keeps
/// its record of the same wave.
#[test]
fn an_unsupported_checkpoint_clears_the_record_and_the_step_succeeds() {
    let cohort = exact_cut_config().cohort;
    let record = b"gateway 1's record after wave 0".to_vec();
    let (addr0, gateway0) = scripted_gateway(vec![begin_then_step(
        cohort,
        Some(Frame::Error {
            code: ErrorCode::Unsupported,
        }),
    )]);
    let (addr1, gateway1) = scripted_gateway(vec![begin_then_step(
        cohort,
        Some(Frame::OpCheckpointAck {
            cohort,
            paused: record.clone(),
        }),
    )]);

    let mut ops = ClusterOps::connect(&[addr0, addr1]).unwrap();
    ops.campaign_begin(&exact_cut_config()).unwrap();
    assert_eq!(ops.checkpoint(0), Some(b"record at begin".as_slice()));
    assert_eq!(
        ops.campaign_step().unwrap(),
        CampaignStatus::InProgress { next_wave: 1 }
    );
    assert_eq!(ops.checkpoint(0), None);
    assert_eq!(ops.checkpoint(1), Some(record.as_slice()));

    let requests = gateway0.join().unwrap();
    assert_eq!(requests.last(), Some(&Frame::OpCheckpoint { cohort }));
    gateway1.join().unwrap();
}

/// Any other checkpoint failure fails the step and names the gateway:
/// here gateway 0 hangs up on the checkpoint after its step. Gateway 1,
/// which stepped and checkpointed, still has its record kept.
#[test]
fn a_checkpoint_hang_up_fails_the_step_and_names_the_gateway() {
    let cohort = exact_cut_config().cohort;
    let record = b"gateway 1's record after wave 0".to_vec();
    let ack = Frame::OpCheckpointAck {
        cohort,
        paused: record.clone(),
    };
    let (addr0, gateway0) = scripted_gateway(vec![begin_then_step(cohort, None)]);
    let (addr1, gateway1) = scripted_gateway(vec![begin_then_step(cohort, Some(ack))]);

    let mut ops = ClusterOps::connect(&[addr0, addr1]).unwrap();
    ops.campaign_begin(&exact_cut_config()).unwrap();
    let step = ops.campaign_step();
    assert!(
        matches!(&step, Err(OpsError::Backend(msg)) if msg.starts_with("gateway 0")),
        "the step names the failed gateway: {step:?}"
    );
    assert_eq!(ops.checkpoint(1), Some(record.as_slice()));

    let requests = gateway0.join().unwrap();
    assert_eq!(requests.last(), Some(&Frame::OpCheckpoint { cohort }));
    gateway1.join().unwrap();
}

/// A gateway that hangs up on the checkpoint right after its begin
/// fails the begin, named, but every gateway loaded its run, so the
/// campaign stays live: after a reconnect, status and pause reach both
/// gateways instead of reading `Idle` and `NoCampaign`.
#[test]
fn a_begin_checkpoint_hang_up_leaves_the_campaign_live() {
    let config = exact_cut_config();
    let cohort = config.cohort;
    let running = Some(Frame::CampaignStatus {
        cohort,
        state: CAMPAIGN_STATE_RUNNING,
        wave_cursor: 0,
    });
    let paused = |record: &[u8]| {
        Some(Frame::OpPaused {
            cohort,
            paused: record.to_vec(),
        })
    };
    let (addr0, gateway0) = scripted_gateway(vec![vec![
        running.clone(),
        Some(Frame::OpCheckpointAck {
            cohort,
            paused: b"gateway 0's record at begin".to_vec(),
        }),
        running.clone(),
        paused(b"gateway 0's record"),
    ]]);
    let (addr1, gateway1) = scripted_gateway(vec![
        vec![running.clone(), None],
        vec![running, paused(b"gateway 1's record")],
    ]);

    let mut ops = ClusterOps::connect(&[addr0, addr1]).unwrap();
    let begin = ops.campaign_begin(&config);
    assert!(
        matches!(&begin, Err(OpsError::Backend(msg)) if msg.starts_with("gateway 1")),
        "the begin names the failed gateway: {begin:?}"
    );
    assert_eq!(ops.checkpoint(1), None);
    ops.reconnect(1).unwrap();
    assert_eq!(
        ops.campaign_status().unwrap(),
        CampaignPhase::InProgress { next_wave: 0 }
    );
    ops.campaign_pause().unwrap();
    assert_eq!(ops.campaign_status().unwrap(), CampaignPhase::Idle);

    gateway0.join().unwrap();
    let requests = gateway1.join().unwrap();
    assert_eq!(requests.len(), 4, "begin, checkpoint, status, pause");
}

/// A closure that panics inside the placed-agent harness stops the
/// agents and hands the panic to the caller, instead of leaving the
/// scope waiting on agents that serve forever.
#[test]
fn a_panicking_closure_in_the_placed_harness_fails_within_a_deadline() {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let (mut fleet, mut verifier) = build(SHARD_COUNT);
        let (handles, addrs) = spawn_cluster(&mut verifier, 2);
        let harness = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_placed_fleet(&mut fleet, &addrs, 2, || {
                panic!("an operator assertion fails inside the harness")
            })
        }));
        for handle in handles {
            handle.shutdown().unwrap();
        }
        let _ = tx.send(harness.is_err());
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(60)),
        Ok(true),
        "the closure's panic must reach the caller within the deadline"
    );
    thread.join().unwrap();
}

/// Drain for planned maintenance: the gateway pauses its campaign and
/// hands the record back, refuses fresh connections, and the record
/// resumes to completion on a replacement gateway.
#[test]
fn drain_hands_back_campaign_and_resumes_on_replacement() {
    let devices = 2 * SHARD_COUNT;
    let config = exact_cut_config();

    let (mut fleet, mut verifier) = build(devices);
    let (handle, _service) = spawn_gateway_at(&mut verifier, ("127.0.0.1", 0));
    let addr = handle.addr();
    let verifier = &mut verifier;

    let addrs = [addr];
    let paused = with_placed_fleet(&mut fleet, &addrs, 2, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.campaign_begin(&config)?;
        ops.campaign_step()?; // canary done, full wave outstanding
        let mut records = ops.drain()?;
        assert_eq!(records.len(), 1, "one live campaign drains to one record");
        let (cohort, bytes) = records.pop().unwrap();
        assert_eq!(cohort, WorkloadId::LightSensor);
        assert!(!bytes.is_empty());
        // Draining gateways refuse fresh connections.
        assert!(
            RemoteOps::connect(addr).is_err(),
            "a draining gateway must refuse new connections"
        );
        Ok::<_, OpsError>(bytes)
    })
    .expect("placed agents served cleanly")
    .expect("drain succeeds");
    handle.shutdown().unwrap();

    // Maintenance done: a replacement gateway on a fresh address picks
    // the campaign up from the drained record and completes it.
    let (handle, _service) = spawn_gateway_at(verifier, ("127.0.0.1", 0));
    let addr = handle.addr();
    let addrs = [addr];
    let report = with_placed_fleet(&mut fleet, &addrs, 2, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.campaign_resume(&paused)?;
        loop {
            if ops.campaign_step()? == CampaignStatus::Finished {
                break;
            }
        }
        ops.campaign_report()
    })
    .expect("placed agents served cleanly")
    .expect("resumed campaign succeeds");
    handle.shutdown().unwrap();

    assert_eq!(
        report.outcome,
        CampaignOutcome::Completed { updated: devices },
        "the drained campaign completes on the replacement gateway"
    );
}
