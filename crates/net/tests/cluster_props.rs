//! Cluster-plane properties: placement stability, merge equivalence,
//! and full multi-gateway scenarios over real loopback TCP — a cluster
//! sweep/campaign must look exactly like a single-gateway (or
//! in-process) run over the union fleet, including through a
//! mid-campaign gateway restart and a drain/hand-back cycle.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::ops::class_index;
use eilid_fleet::{
    merge_sweeps, CampaignConfig, CampaignOutcome, CampaignStatus, Fleet, FleetBuilder, FleetOps,
    HealthClass, LocalOps, OpsError, SweepSummary, Verifier, SHARD_COUNT,
};
use eilid_net::cluster::{with_placed_fleet, ClusterOps, Placement};
use eilid_net::{AttestationService, Gateway, GatewayConfig, GatewayHandle, RemoteOps};
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
/// retained wave checkpoint into the new process, and the campaign
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
        // retained checkpoint dies with it, so the console must hold
        // the bytes itself to replay them into the replacement.
        ops.set_durable_checkpoints(true);
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
