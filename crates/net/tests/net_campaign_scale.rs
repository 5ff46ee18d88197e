//! The operator-plane acceptance-scale test: a staged canary→full OTA
//! campaign over 1 000 devices, driven end-to-end across loopback TCP —
//! `RemoteOps` console → gateway campaign engine → device agents — with
//! snapshots, authenticated updates, probe attestations and smoke runs
//! all crossing sockets, inside the 60 s release-mode budget, and the
//! report equal to the in-process backend's on an identical fleet.

use std::sync::Arc;
use std::time::Instant;

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, Fleet, FleetBuilder, FleetOps, HealthClass, LocalOps,
    OpsError, Verifier,
};
use eilid_net::{with_attached_fleet, AttestationService, Gateway, GatewayConfig, RemoteOps};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const DEVICES: usize = 1_000;
const AGENTS: usize = 8;
/// Committed campaign-throughput floors: ≥ 20x the phase-barrier
/// engine's recorded baselines (590 / 556 devices/s in BENCH_net.json
/// before the streamed wave engine + memoized probes landed).
const MIN_IN_PROCESS_DEVICES_PER_SECOND: f64 = 11_800.0;
const MIN_OVER_TCP_DEVICES_PER_SECOND: f64 = 11_100.0;

fn build() -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(DEVICES)
        .threads(8)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

fn config() -> CampaignConfig {
    let mut config =
        CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    config.smoke_cycles = 500_000;
    config
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode scale test; run with `make net-campaign`"
)]
fn thousand_device_campaign_over_loopback_tcp() {
    let start = Instant::now();

    // In-process reference on an identical fleet.
    let (mut fleet_a, mut verifier_a) = build();
    let local_start = Instant::now();
    let report_a = LocalOps::new(&mut fleet_a, &mut verifier_a)
        .run_campaign(&config())
        .unwrap();
    let in_process_elapsed = local_start.elapsed();
    assert_eq!(
        report_a.outcome,
        CampaignOutcome::Completed { updated: DEVICES }
    );

    // The wire-driven run: gateway + 8 device agents over loopback TCP.
    let (mut fleet_b, mut verifier_b) = build();
    let service = Arc::new(AttestationService::new(
        verifier_b.service_snapshot(1 << 32),
    ));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig::default(),
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();

    let (report_b, wire_elapsed, sweep, metrics) =
        with_attached_fleet(&mut fleet_b, AGENTS, addr, || {
            let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
            let wire_start = Instant::now();
            let report = ops.run_campaign(&config())?;
            let elapsed = wire_start.elapsed();
            let sweep = ops.sweep()?;
            let metrics = ops.metrics()?;
            Ok::<_, OpsError>((report, elapsed, sweep, metrics))
        })
        .unwrap()
        .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(
        report_b, report_a,
        "the wire-driven campaign must report wave-for-wave like the in-process one"
    );
    assert_eq!(report_b.waves.len(), 2, "canary wave + full wave");
    assert_eq!(report_b.waves[0].size, 100, "10% canary of 1000 devices");
    assert!(report_b.quarantined.is_empty());
    assert!(report_b.rollback_incomplete.is_empty());

    // The gateway-driven post-campaign sweep sees the whole fleet on
    // the *new* golden.
    assert_eq!(sweep.devices, DEVICES);
    assert_eq!(sweep.count(HealthClass::Attested), DEVICES);

    let in_process_rate = DEVICES as f64 / in_process_elapsed.as_secs_f64();
    let over_tcp_rate = DEVICES as f64 / wire_elapsed.as_secs_f64();
    println!(
        "in-process campaign: {DEVICES} devices in {:.3}s ({in_process_rate:.0} devices/s)",
        in_process_elapsed.as_secs_f64(),
    );
    println!(
        "campaign over TCP:   {DEVICES} devices in {:.3}s ({over_tcp_rate:.0} devices/s, \
         {AGENTS} agents)",
        wire_elapsed.as_secs_f64(),
    );
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let executed = counter("eilid_ops_probes_executed_total");
    let memoized = counter("eilid_ops_probes_memoized_total");
    println!("probes over TCP:     {executed} executed, {memoized} memoized");

    // The streamed engine + memoized probes must hold ≥ 20x the
    // phase-barrier baselines (590 / 556 devices/s).
    assert!(
        in_process_rate >= MIN_IN_PROCESS_DEVICES_PER_SECOND,
        "in-process campaign regression: {in_process_rate:.0} devices/s is below the \
         committed floor of {MIN_IN_PROCESS_DEVICES_PER_SECOND:.0}"
    );
    assert!(
        over_tcp_rate >= MIN_OVER_TCP_DEVICES_PER_SECOND,
        "campaign-over-TCP regression: {over_tcp_rate:.0} devices/s is below the \
         committed floor of {MIN_OVER_TCP_DEVICES_PER_SECOND:.0}"
    );
    // One reference probe per wave; the other 998 verdicts inherit.
    assert_eq!(executed, 2, "one reboot+smoke probe per wave");
    assert_eq!(memoized, (DEVICES - 2) as u64);

    let elapsed = start.elapsed();
    println!("campaign scale test wall time: {elapsed:?}");
    assert!(
        elapsed.as_secs() < 60,
        "campaign scale test took {elapsed:?}, budget is 60s"
    );
}
