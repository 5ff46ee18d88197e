//! The supervised multi-process cluster test (release mode): a fleet
//! swept and a staged campaign completed across four gateway
//! *processes*, with one gateway killed (SIGKILL) mid-campaign,
//! restarted by the [`Supervisor`], and the campaign *resumed* from
//! the operator's retained wave checkpoint — the final
//! `CampaignReport` must equal an uninterrupted in-process run over
//! the union fleet.
//!
//! Process shape: each gateway is a re-invocation of this test binary
//! running `gateway_child_for_cluster_scale`. Gateway provisioning is
//! deterministic (same fleet root key + fleet parameters → same device
//! keys and golden measurements), so a restarted child rebuilds the
//! exact trust state its predecessor had; campaign state, which is
//! *not* rebuildable, comes back via the checkpoint replay.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, CampaignStatus, Fleet, FleetBuilder, FleetOps, HealthClass,
    LocalOps, OpsError, Verifier, SHARD_COUNT,
};
use eilid_net::cluster::{with_placed_fleet, ClusterOps, Supervisor};
use eilid_net::{AttestationService, Gateway, GatewayConfig};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const GW_ENV_PORT: &str = "EILID_CLUSTER_GW_PORT";
const GW_ENV_INDEX: &str = "EILID_CLUSTER_GW_INDEX";
const GW_ENV_DEVICES: &str = "EILID_CLUSTER_GW_DEVICES";
const GATEWAYS: usize = 4;
const DEVICES: usize = 8 * SHARD_COUNT;
const KILL_VICTIM: usize = 2;

/// Same builder parameters in parent and children: gateway trust state
/// (device keys, goldens) re-derives identically on every (re)launch.
fn build(devices: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

/// Canary cut exact on every placement partition: 8 devices per shard,
/// a gateway owning `m` shards holds `8m` members, and `0.5 × 8m = 4m`
/// is whole — so merged wave sizes equal the union run's.
fn campaign_config() -> CampaignConfig {
    let mut config =
        CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    config.canary_fraction = 0.5;
    config.smoke_cycles = 100_000;
    config
}

/// Child-process body: re-provisions the gateway trust state from the
/// deterministic fleet parameters, binds on the fixed port from the
/// environment, then parks until killed (the supervisor's SIGKILL is
/// the intended exit). Invoked via
/// `--exact gateway_child_for_cluster_scale --ignored`; inert (no env)
/// when an `--include-ignored` filter sweeps it up.
#[test]
#[ignore = "child-process gateway for supervised_cluster_campaign_survives_gateway_kill"]
fn gateway_child_for_cluster_scale() {
    let Ok(port) = std::env::var(GW_ENV_PORT) else {
        return;
    };
    let port: u16 = port.parse().expect("gateway port");
    let index: usize = std::env::var(GW_ENV_INDEX)
        .expect("gateway index")
        .parse()
        .expect("gateway index");
    let devices: usize = std::env::var(GW_ENV_DEVICES)
        .expect("device count")
        .parse()
        .expect("device count");

    let (_fleet, mut verifier) = build(devices);
    // Walk to this gateway's nonce block: gateway i takes the i-th
    // reserved span, so concurrently-running gateways never mint
    // overlapping challenge nonces.
    for _ in 0..index {
        let _ = verifier.service_snapshot(1 << 20);
    }
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let gateway = Gateway::bind(("127.0.0.1", port), service, GatewayConfig::default())
        .expect("child gateway bind");
    let _handle = gateway.spawn();
    println!("GATEWAY READY {port}");
    std::io::stdout().flush().expect("child stdout");
    // Park: the supervisor kills us (crash drill) or closes stdin.
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
}

/// Reserves a distinct loopback port per gateway. The listener is
/// dropped before the child binds — the standard (slightly racy, fine
/// for a test) free-port dance.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("port probe"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("probe addr").port())
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode cluster test; run with `make net-cluster`"
)]
fn supervised_cluster_campaign_survives_gateway_kill() {
    let start = Instant::now();
    let config = campaign_config();

    // The reference: an uninterrupted in-process run over the union
    // fleet.
    let (mut fleet_a, mut verifier_a) = build(DEVICES);
    let mut local = LocalOps::new(&mut fleet_a, &mut verifier_a);
    let report_a = local.run_campaign(&config).expect("local campaign");
    let sweep_a = local.sweep().expect("local sweep");
    assert_eq!(
        report_a.outcome,
        CampaignOutcome::Completed { updated: DEVICES }
    );

    // Four supervised gateway processes on fixed ports.
    let ports = free_ports(GATEWAYS);
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|port| SocketAddr::from(([127, 0, 0, 1], *port)))
        .collect();
    let launcher_ports = ports.clone();
    let exe = std::env::current_exe().expect("test binary path");
    let mut supervisor = Supervisor::new(
        addrs.clone(),
        Box::new(move |gateway| {
            Command::new(&exe)
                .args([
                    "--exact",
                    "gateway_child_for_cluster_scale",
                    "--ignored",
                    "--nocapture",
                ])
                .env(GW_ENV_PORT, launcher_ports[gateway].to_string())
                .env(GW_ENV_INDEX, gateway.to_string())
                .env(GW_ENV_DEVICES, DEVICES.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
        }),
    );
    supervisor
        .start_all(Duration::from_secs(60))
        .expect("cluster launch");
    let launched = Instant::now();
    println!(
        "{GATEWAYS} gateway processes up in {:.2}s",
        (launched - start).as_secs_f64()
    );

    let (mut fleet_b, _verifier_b) = build(DEVICES);
    let supervisor = &mut supervisor;
    let (sweep_pre, report_b, sweep_b) = with_placed_fleet(&mut fleet_b, &addrs, 2, || {
        let mut ops = ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
        // SIGKILL wipes the victim's whole process, including its
        // retained gateway-side checkpoint — the console must hold the
        // serialised bytes itself to re-seed the fresh process.
        ops.set_durable_checkpoints(true);

        // Full-fleet sweep across all four processes first.
        let sweep_pre = ops.sweep()?;
        assert_eq!(sweep_pre.devices, DEVICES);
        assert_eq!(sweep_pre.count(HealthClass::Attested), DEVICES);

        // Staged campaign: canary wave, then the crash drill.
        ops.campaign_begin(&config)?;
        let status = ops.campaign_step()?;
        assert!(matches!(status, CampaignStatus::InProgress { .. }));

        // SIGKILL one gateway mid-campaign; its in-memory campaign
        // state dies with it.
        supervisor.stop(KILL_VICTIM);
        let restarted = supervisor
            .check_and_restart(Duration::from_secs(60))
            .expect("supervision pass");
        assert_eq!(
            restarted,
            vec![KILL_VICTIM],
            "exactly the killed gateway restarts"
        );

        // Repair the operator plane (checkpoint replay) and wait for
        // the placed agents' reconnect loops to re-attach.
        ops.reconnect(KILL_VICTIM)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match ops.health() {
                Ok(health) if health.devices == DEVICES => break,
                _ if Instant::now() >= deadline => panic!("devices never re-attached"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }

        // Resume: the remaining waves complete across all four
        // processes.
        loop {
            if ops.campaign_step()? == CampaignStatus::Finished {
                break;
            }
        }
        let report = ops.campaign_report()?;
        let sweep = ops.sweep()?;
        Ok::<_, OpsError>((sweep_pre, report, sweep))
    })
    .expect("placed agents served cleanly")
    .expect("supervised cluster campaign succeeds");

    assert_eq!(supervisor.restarts(KILL_VICTIM), 1);
    supervisor.stop_all();

    assert_eq!(
        report_b, report_a,
        "a campaign resumed through a gateway kill must report like the uninterrupted run"
    );
    assert_eq!(sweep_b, sweep_a, "post-campaign sweeps must agree");
    assert_eq!(sweep_pre.devices, DEVICES);

    let elapsed = start.elapsed();
    println!("supervised cluster test wall time: {elapsed:?}");
    assert!(
        elapsed.as_secs() < 120,
        "supervised cluster test took {elapsed:?}, budget is 120s"
    );
}
