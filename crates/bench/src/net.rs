//! Networked attestation throughput: gateway sweeps, campaigns and
//! cluster fan-out over loopback TCP.
//!
//! Two questions, two kinds of measurement:
//!
//! 1. **What does the wire cost?** [`measure_aggregated_sweeps`] times
//!    the gateway-driven sweep — probes pushed to device agents, each
//!    reply burst verified as it lands, one MAC'd aggregate
//!    root per shard back to the operator. [`measure_campaigns`] and
//!    [`measure_cluster_sweeps`] time the rest of the operator plane the
//!    same way.
//! 2. **Is it recorded?** [`render_net_bench_json`] writes
//!    `BENCH_net.json`, the perf trajectory later changes regress
//!    against.

use std::sync::Arc;
use std::time::Instant;

use eilid_casu::DeviceKey;
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, Fleet, FleetBuilder, FleetOps, HealthClass, LocalOps,
    OpsError, Verifier,
};
use eilid_net::{
    with_attached_fleet, with_placed_fleet, AttestationService, ClusterOps, Gateway, GatewayConfig,
    PollerBackend, RemoteOps,
};
use eilid_workloads::WorkloadId;

/// The bench fleet's root key bytes — also what the operator feeds
/// `set_agg_root_key` to re-derive shard aggregate keys.
const BENCH_ROOT: &[u8] = b"bench-net-root-key-0123456789abc";

fn bench_root() -> DeviceKey {
    DeviceKey::new(BENCH_ROOT).expect("key length")
}

fn build(devices: usize, threads: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(bench_root())
        .devices(devices)
        .threads(threads)
        .build()
        .expect("bench fleet builds")
}

/// One staged-campaign measurement row (devices updated + probed +
/// smoke-run per second of campaign wall time).
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Devices the campaign updated.
    pub devices: usize,
    /// Campaign wall time in seconds.
    pub seconds: f64,
    /// Throughput in devices per second.
    pub devices_per_second: f64,
}

/// The same staged campaign through both operator-plane backends.
#[derive(Debug, Clone)]
pub struct CampaignComparison {
    /// `LocalOps`: in-process executor on the fleet's worker threads.
    pub in_process: CampaignRow,
    /// `RemoteOps` → gateway campaign engine → device agents over
    /// loopback TCP.
    pub over_tcp: CampaignRow,
    /// Device-agent connections the TCP run used.
    pub agents: usize,
    /// Full-image bytes the TCP campaign authorised (what the wire
    /// would have carried without delta encoding).
    pub update_bytes_full: u64,
    /// Update bytes the TCP campaign actually shipped (sparse segments
    /// plus full-image fallbacks).
    pub update_bytes_wire: u64,
    /// Reboot+smoke probes the TCP campaign executed device-side.
    pub probes_executed: u64,
    /// Probe verdicts inherited from the cohort reference device.
    pub probes_memoized: u64,
}

impl CampaignComparison {
    /// Wire update bytes relative to the full-image bytes (≤ 1.0; a
    /// mostly-clean cohort ships a small fraction of the image).
    pub fn delta_bytes_ratio(&self) -> f64 {
        if self.update_bytes_full == 0 {
            return 1.0;
        }
        self.update_bytes_wire as f64 / self.update_bytes_full as f64
    }
}

/// Runs one identical staged canary→full campaign (benign patch, every
/// device updated and probed) through each backend, asserting the two
/// reports equal before timing is trusted — then a second, ~1%-dirty
/// full-image campaign over TCP for the delta wire-bytes figures.
pub fn measure_campaigns(devices: usize, agents: usize) -> CampaignComparison {
    let build = || {
        FleetBuilder::new(bench_root())
            .devices(devices)
            .threads(agents)
            .workloads(&[WorkloadId::LightSensor])
            .build()
            .expect("bench fleet builds")
    };
    // The throughput rows use the historical benign-patch campaign —
    // the same workload the 590/556 devices/s phase-barrier baselines
    // were recorded on, so the trajectory stays comparable across PRs.
    let mut config = CampaignConfig::new(
        WorkloadId::LightSensor,
        eilid_fleet::fixtures::BENIGN_PATCH_TARGET,
        eilid_fleet::fixtures::benign_patch(),
    );
    config.smoke_cycles = 500_000;

    let (mut fleet, mut verifier) = build();
    let start = Instant::now();
    let local_report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .expect("in-process campaign succeeds");
    let local_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        local_report.outcome,
        CampaignOutcome::Completed { updated: devices }
    );

    let (mut fleet, mut verifier) = build();
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let handle = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .expect("gateway binds on loopback")
        .spawn();
    let addr = handle.addr();
    let (remote_report, tcp_seconds, metrics) =
        with_attached_fleet(&mut fleet, agents, addr, || {
            let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
            let start = Instant::now();
            let report = ops.run_campaign(&config)?;
            let seconds = start.elapsed().as_secs_f64();
            let metrics = ops.metrics()?;
            Ok::<_, OpsError>((report, seconds, metrics))
        })
        .expect("device agents served cleanly")
        .expect("wire campaign succeeds");
    handle.shutdown().expect("gateway shuts down");
    assert_eq!(
        remote_report, local_report,
        "backends must report identically before timings are comparable"
    );
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);

    // Separately, a realistic delta campaign for the wire-bytes
    // figures: a full application image with only a few granules
    // actually changed (dirt confined to the unused PMEM gap, so the
    // smoke runs are unaffected). The engine's win guard ships the
    // benign patch above as a full image — a few-byte patch is cheaper
    // whole than framed — so the delta ratio must be measured on an
    // image where sparse segments genuinely win.
    const PATCH_TARGET: u16 = 0xE000;
    const PATCH_END: usize = 0xF700;
    const GAP: usize = 0xF600 - PATCH_TARGET as usize;
    let (mut fleet, mut verifier) = build();
    let mut image: Vec<u8> = fleet.devices()[0]
        .device()
        .cpu()
        .memory
        .slice(usize::from(PATCH_TARGET)..PATCH_END)
        .to_vec();
    for (i, byte) in image[GAP..GAP + 4].iter_mut().enumerate() {
        *byte = 0xA5 ^ (i as u8);
    }
    let mut delta_config = CampaignConfig::new(WorkloadId::LightSensor, PATCH_TARGET, image);
    delta_config.smoke_cycles = 500_000;
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let handle = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .expect("gateway binds on loopback")
        .spawn();
    let addr = handle.addr();
    let (delta_report, delta_metrics) = with_attached_fleet(&mut fleet, agents, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&delta_config)?;
        let metrics = ops.metrics()?;
        Ok::<_, OpsError>((report, metrics))
    })
    .expect("device agents served cleanly")
    .expect("delta campaign succeeds");
    handle.shutdown().expect("gateway shuts down");
    assert_eq!(
        delta_report.outcome,
        CampaignOutcome::Completed { updated: devices }
    );
    let delta_counter = |name: &str| delta_metrics.counters.get(name).copied().unwrap_or(0);

    CampaignComparison {
        in_process: CampaignRow {
            devices,
            seconds: local_seconds,
            devices_per_second: devices as f64 / local_seconds.max(1e-9),
        },
        over_tcp: CampaignRow {
            devices,
            seconds: tcp_seconds,
            devices_per_second: devices as f64 / tcp_seconds.max(1e-9),
        },
        agents,
        update_bytes_full: delta_counter("eilid_ops_update_bytes_full_total"),
        update_bytes_wire: delta_counter("eilid_ops_update_bytes_wire_total"),
        probes_executed: counter("eilid_ops_probes_executed_total"),
        probes_memoized: counter("eilid_ops_probes_memoized_total"),
    }
}

/// Gateway-driven aggregated (collective-attestation) sweeps over
/// loopback TCP — the one wire sweep path.
#[derive(Debug, Clone)]
pub struct AggSweepMeasurement {
    /// Devices swept.
    pub devices: usize,
    /// Device-agent connections serving the probes.
    pub agents: usize,
    /// Sweep throughput, devices/s: probes pushed to the agents, each
    /// reply burst verified as it lands, one MAC'd aggregate
    /// root per shard back to the operator, which verifies at most
    /// `SHARD_COUNT` MACs.
    pub devices_per_second: f64,
    /// The readiness backend the gateway ran (epoll on Linux).
    pub poller_backend: PollerBackend,
    /// Non-empty shards in the aggregated result.
    pub shards: usize,
    /// Aggregate-root MACs the operator actually verified.
    pub roots_verified: usize,
    /// Devices whose verdict came from an aggregate root alone (all of
    /// them, on this clean bench fleet).
    pub short_circuited: usize,
}

/// Measures aggregated operator sweeps over loopback TCP (best of
/// `rounds`, after one warm-up round whose summary must agree with the
/// console's unverified sweep before any timing is trusted).
pub fn measure_aggregated_sweeps(
    devices: usize,
    agents: usize,
    rounds: usize,
) -> AggSweepMeasurement {
    let (mut fleet, mut verifier) = build(devices, agents.max(2));
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let gateway = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .expect("gateway binds on loopback");
    let poller_backend = gateway.poller_backend();
    let handle = gateway.spawn();
    let addr = handle.addr();
    let (best, last) = with_attached_fleet(&mut fleet, agents, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.set_agg_root_key(BENCH_ROOT);
        // Warm-up: both console reads of the sweep must agree before
        // timing.
        let warm_agg = ops.sweep_aggregated()?;
        let warm_summary = ops.sweep()?;
        assert_eq!(
            warm_agg.summary, warm_summary,
            "verified and unverified sweeps must classify identically"
        );
        assert_eq!(warm_agg.summary.count(HealthClass::Attested), devices);
        let mut best = 0.0f64;
        let mut last = warm_agg;
        for _ in 0..rounds {
            let start = Instant::now();
            let agg = ops.sweep_aggregated()?;
            let seconds = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(agg.summary.count(HealthClass::Attested), devices);
            best = best.max(devices as f64 / seconds);
            last = agg;
        }
        Ok::<_, OpsError>((best, last))
    })
    .expect("device agents served cleanly")
    .expect("aggregated sweeps succeed");
    handle.shutdown().expect("gateway shuts down");

    AggSweepMeasurement {
        devices,
        agents,
        devices_per_second: best,
        poller_backend,
        shards: last.shards,
        roots_verified: last.roots_verified,
        short_circuited: last.short_circuited,
    }
}

/// One multi-gateway fan-out sweep measurement row.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// In-process gateways the fleet was placed across.
    pub gateways: usize,
    /// Full-protocol fan-out sweep throughput, devices/s.
    pub devices_per_second: f64,
}

/// Fan-out sweep throughput as the gateway count grows: the same union
/// fleet placed shard-wise across 1, 2, … gateways, swept through the
/// `ClusterOps` operator console each time.
#[derive(Debug, Clone)]
pub struct ClusterComparison {
    /// Devices in the union fleet (placed per row).
    pub devices: usize,
    /// Device-agent connections per gateway.
    pub agents: usize,
    /// One row per measured gateway count, ascending.
    pub rows: Vec<ClusterRow>,
}

impl ClusterComparison {
    /// Throughput measured at exactly `gateways` gateways, if that
    /// width was in the measured set.
    pub fn rate_at(&self, gateways: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|row| row.gateways == gateways)
            .map(|row| row.devices_per_second)
    }

    /// Widest-cluster throughput relative to the single-gateway run
    /// (≥ 1.0 means fanning the operator plane out across processes
    /// never costs total sweep throughput).
    pub fn scaling_ratio(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(one), Some(widest)) if one.devices_per_second > 0.0 => {
                widest.devices_per_second / one.devices_per_second
            }
            _ => f64::INFINITY,
        }
    }
}

/// Measures fan-out sweep throughput at each gateway count in
/// `gateway_counts` (best of `rounds`, after a warm-up sweep that must
/// equal the in-process union sweep — throughput numbers are only
/// comparable once the backends provably agree).
///
/// Gateways run in-process, each provisioned with its own reserved
/// nonce block from the shared verifier lineage, exactly like the
/// multi-process cluster: same trust state, disjoint challenges.
pub fn measure_cluster_sweeps(
    devices: usize,
    gateway_counts: &[usize],
    agents: usize,
    rounds: usize,
) -> ClusterComparison {
    // The reference: an uninterrupted in-process sweep of the union
    // fleet. Every cluster width must reproduce this summary exactly.
    let (mut fleet, mut verifier) = build(devices, agents.max(2));
    let local_summary = LocalOps::new(&mut fleet, &mut verifier)
        .sweep()
        .expect("in-process reference sweep succeeds");

    let mut rows = Vec::new();
    for &gateways in gateway_counts {
        let (mut fleet, mut verifier) = build(devices, agents.max(2));
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..gateways {
            // Each snapshot call reserves the next disjoint nonce span.
            let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 24)));
            let gateway = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
                .expect("cluster gateway binds on loopback");
            let handle = gateway.spawn();
            addrs.push(handle.addr());
            handles.push(handle);
        }

        let best = with_placed_fleet(&mut fleet, &addrs, agents, || {
            let mut ops =
                ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
            let warmup = ops.sweep()?;
            assert_eq!(
                warmup, local_summary,
                "cluster sweep must equal the in-process union sweep"
            );
            let mut best = 0.0f64;
            for _ in 0..rounds {
                let start = Instant::now();
                let summary = ops.sweep()?;
                assert_eq!(summary.count(HealthClass::Attested), devices);
                best = best.max(devices as f64 / start.elapsed().as_secs_f64().max(1e-9));
            }
            Ok::<_, OpsError>(best)
        })
        .expect("placed agents served cleanly")
        .expect("cluster sweep succeeds");
        for handle in handles {
            handle.shutdown().expect("gateway shuts down");
        }
        rows.push(ClusterRow {
            gateways,
            devices_per_second: best,
        });
    }

    ClusterComparison {
        devices,
        agents,
        rows,
    }
}

/// Renders the `BENCH_net.json` record: a small, stable, hand-written
/// JSON object (the offline dependency set has no serde_json) extending
/// the repo's perf trajectory to the networked path.
pub fn render_net_bench_json(
    aggs: &AggSweepMeasurement,
    campaigns: &CampaignComparison,
    clusters: &ClusterComparison,
) -> String {
    format!(
        "{{\n  \"bench\": \"net_sweep\",\n  \"poller_backend\": \"{}\",\n  \
         \"agg_sweep_devices\": {},\n  \"agg_sweep_agents\": {},\n  \
         \"agg_sweep_devices_per_second\": {:.0},\n  \
         \"agg_roots_verified\": {},\n  \
         \"agg_shards\": {},\n  \
         \"agg_short_circuited\": {},\n  \
         \"campaign_devices\": {},\n  \"campaign_agents\": {},\n  \
         \"campaign_in_process_devices_per_second\": {:.0},\n  \
         \"campaign_over_tcp_devices_per_second\": {:.0},\n  \
         \"campaign_delta_bytes_ratio\": {:.3},\n  \
         \"campaign_probes_executed\": {},\n  \
         \"campaign_probes_memoized\": {},\n  \
         \"cluster_devices\": {},\n  \"cluster_agents_per_gateway\": {},\n  \
         \"cluster_sweep_1_gateway_devices_per_second\": {:.0},\n  \
         \"cluster_sweep_2_gateways_devices_per_second\": {:.0},\n  \
         \"cluster_sweep_4_gateways_devices_per_second\": {:.0},\n  \
         \"cluster_scaling_ratio\": {:.2}\n}}\n",
        aggs.poller_backend.name(),
        aggs.devices,
        aggs.agents,
        aggs.devices_per_second,
        aggs.roots_verified,
        aggs.shards,
        aggs.short_circuited,
        campaigns.in_process.devices,
        campaigns.agents,
        campaigns.in_process.devices_per_second,
        campaigns.over_tcp.devices_per_second,
        campaigns.delta_bytes_ratio(),
        campaigns.probes_executed,
        campaigns.probes_memoized,
        clusters.devices,
        clusters.agents,
        clusters.rate_at(1).unwrap_or(0.0),
        clusters.rate_at(2).unwrap_or(0.0),
        clusters.rate_at(4).unwrap_or(0.0),
        clusters.scaling_ratio(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_comparison_is_sane() {
        let comparison = measure_campaigns(8, 2);
        assert_eq!(comparison.in_process.devices, 8);
        assert!(comparison.in_process.devices_per_second > 0.0);
        assert!(comparison.over_tcp.devices_per_second > 0.0);
        assert_eq!(comparison.agents, 2);
        assert!(comparison.update_bytes_full > 0);
        assert!(
            comparison.delta_bytes_ratio() <= 0.10,
            "a ~1%-dirty bench image must ship as a sparse delta: {:.3}x",
            comparison.delta_bytes_ratio()
        );
        assert!(
            comparison.probes_memoized > 0,
            "an all-clean cohort must inherit most probe verdicts"
        );
        assert!(comparison.probes_executed >= 1, "the reference still runs");
    }

    #[test]
    fn aggregated_sweep_measurement_is_sane() {
        let measurement = measure_aggregated_sweeps(32, 2, 1);
        assert_eq!(measurement.devices, 32);
        assert!(measurement.devices_per_second > 0.0);
        assert!(measurement.roots_verified <= eilid_fleet::SHARD_COUNT);
        assert_eq!(measurement.roots_verified, measurement.shards);
        assert_eq!(
            measurement.short_circuited, 32,
            "a clean bench fleet short-circuits every verdict"
        );
    }

    #[test]
    fn cluster_comparison_is_sane() {
        let comparison = measure_cluster_sweeps(32, &[1, 2], 2, 1);
        assert_eq!(comparison.devices, 32);
        assert_eq!(comparison.rows.len(), 2);
        assert!(comparison.rate_at(1).expect("1-gateway row") > 0.0);
        assert!(comparison.rate_at(2).expect("2-gateway row") > 0.0);
        assert!(comparison.rate_at(4).is_none());
        assert!(comparison.scaling_ratio() > 0.0);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let aggs = AggSweepMeasurement {
            devices: 1000,
            agents: 8,
            devices_per_second: 34_000.0,
            poller_backend: PollerBackend::Epoll,
            shards: 16,
            roots_verified: 16,
            short_circuited: 1000,
        };
        let campaigns = CampaignComparison {
            in_process: CampaignRow {
                devices: 1000,
                seconds: 2.0,
                devices_per_second: 500.0,
            },
            over_tcp: CampaignRow {
                devices: 1000,
                seconds: 1.8,
                devices_per_second: 555.0,
            },
            agents: 8,
            update_bytes_full: 100_000,
            update_bytes_wire: 6_500,
            probes_executed: 2,
            probes_memoized: 998,
        };
        let clusters = ClusterComparison {
            devices: 1000,
            agents: 2,
            rows: vec![
                ClusterRow {
                    gateways: 1,
                    devices_per_second: 15_000.0,
                },
                ClusterRow {
                    gateways: 2,
                    devices_per_second: 16_500.0,
                },
                ClusterRow {
                    gateways: 4,
                    devices_per_second: 18_000.0,
                },
            ],
        };
        let json = render_net_bench_json(&aggs, &campaigns, &clusters);
        assert!(json.contains("\"bench\": \"net_sweep\""));
        assert!(json.contains("\"poller_backend\": \"epoll\""));
        assert!(json.contains("\"agg_sweep_devices\": 1000"));
        assert!(json.contains("\"agg_sweep_agents\": 8"));
        assert!(json.contains("\"agg_sweep_devices_per_second\": 34000"));
        assert!(json.contains("\"agg_roots_verified\": 16"));
        assert!(json.contains("\"agg_shards\": 16"));
        assert!(json.contains("\"agg_short_circuited\": 1000"));
        assert!(json.contains("\"campaign_devices\": 1000"));
        assert!(json.contains("\"campaign_over_tcp_devices_per_second\": 555"));
        assert!(json.contains("\"campaign_delta_bytes_ratio\": 0.065"));
        assert!(json.contains("\"campaign_probes_executed\": 2"));
        assert!(json.contains("\"campaign_probes_memoized\": 998"));
        assert!(json.contains("\"cluster_devices\": 1000"));
        assert!(json.contains("\"cluster_agents_per_gateway\": 2"));
        assert!(json.contains("\"cluster_sweep_1_gateway_devices_per_second\": 15000"));
        assert!(json.contains("\"cluster_sweep_4_gateways_devices_per_second\": 18000"));
        assert!(json.contains("\"cluster_scaling_ratio\": 1.20"));
        assert!(!json.contains("latency_us"), "no client-path fields remain");
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }
}
