//! The networked acceptance-scale test: 1 000 heterogeneous `SimDevice`s
//! attested over real loopback TCP through the gateway — the gateway
//! challenges every device through its device agents, probes and
//! reports crossing sockets — on the epoll reactor and on the scan
//! fallback, well inside the 60 s release-mode budget.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use eilid_casu::DeviceKey;
use eilid_fleet::{Fleet, FleetBuilder, FleetOps, HealthClass, SweepSummary};
use eilid_net::{
    with_attached_fleet, AttestationService, Gateway, GatewayConfig, PollerChoice, RemoteOps,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const AGENTS: usize = 8;

/// One gateway sweep of `fleet`, its devices attached over `AGENTS`
/// agent connections. Returns the summary and its wall time.
fn sweep_through_agents(fleet: &mut Fleet, addr: SocketAddr) -> (SweepSummary, f64) {
    with_attached_fleet(fleet, AGENTS, addr, || {
        let mut ops = RemoteOps::connect(addr).unwrap();
        let start = Instant::now();
        let summary = ops.sweep().unwrap();
        (summary, start.elapsed().as_secs_f64())
    })
    .unwrap()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode scale test; run with `cargo test --release -p eilid_net`"
)]
fn thousand_device_networked_sweep_over_loopback() {
    let start = Instant::now();
    const DEVICES: usize = 1_000;

    let (mut fleet, mut verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(DEVICES)
        .threads(8)
        .build()
        .unwrap();

    // Physical tampering on a handful of devices in one cohort.
    let tampered: Vec<u64> = fleet
        .cohort_members(WorkloadId::FireSensor)
        .into_iter()
        .take(5)
        .collect();
    for &id in &tampered {
        let device = &mut fleet.devices_mut()[id as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE020);
        memory.write_byte(0xE020, original ^ 0x80);
    }

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));

    // The epoll reactor, then the portable scan fallback: identical
    // verdicts, only the readiness mechanism differs.
    for poller in [PollerChoice::Auto, PollerChoice::Scan] {
        let handle = Gateway::bind(
            ("127.0.0.1", 0),
            Arc::clone(&service),
            GatewayConfig {
                poller,
                ..GatewayConfig::default()
            },
        )
        .unwrap()
        .spawn();

        let (summary, seconds) = sweep_through_agents(&mut fleet, handle.addr());
        assert_eq!(summary.devices, DEVICES, "{poller:?}");
        assert_eq!(
            summary.count(HealthClass::Attested),
            DEVICES - tampered.len(),
            "{poller:?}"
        );
        assert_eq!(
            summary
                .flagged
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<u64>>(),
            tampered,
            "exactly the tampered devices are flagged over TCP ({poller:?})"
        );
        println!(
            "{poller:?} TCP gateway sweep: {DEVICES} devices in {seconds:.3}s ({:.0} devices/s)",
            DEVICES as f64 / seconds
        );

        let gateway = handle.shutdown().unwrap();
        let load = |counter: &std::sync::atomic::AtomicU64| {
            counter.load(std::sync::atomic::Ordering::Relaxed)
        };
        let counters = gateway.counters();
        assert_eq!(
            load(&counters.accepted),
            AGENTS as u64 + 1,
            "agents + console"
        );
        assert_eq!(load(&counters.malformed_streams), 0);
        if poller == PollerChoice::Scan {
            assert!(load(&counters.scan_passes) > 0);
        }
    }
    assert_eq!(service.stats().reports_verified(), 2 * DEVICES as u64);

    // The in-process verifier still agrees and its nonce domain never
    // collided with the gateway's reserved block.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), DEVICES - tampered.len());
    assert_eq!(sweep.flagged_as(HealthClass::Tampered), tampered);

    let elapsed = start.elapsed();
    println!("networked scale test wall time: {elapsed:?}");
    assert!(
        elapsed.as_secs() < 60,
        "networked scale test took {elapsed:?}, budget is 60s"
    );
}
