//! The networked acceptance-scale test: 1 000 heterogeneous `SimDevice`s
//! attested over real loopback TCP through the gateway — challenges,
//! reports and verdicts all crossing sockets — plus the same sweep over
//! the in-memory transport, well inside the 60 s release-mode budget.

use std::sync::Arc;
use std::time::Instant;

use eilid_casu::DeviceKey;
use eilid_fleet::{FleetBuilder, HealthClass};
use eilid_net::{
    serve_transport, sweep_fleet, AttestationService, Gateway, GatewayConfig, PipeTransport,
    TcpTransport, DEFAULT_PIPELINE_WINDOW,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode scale test; run with `cargo test --release -p eilid_net`"
)]
fn thousand_device_networked_sweep_over_loopback() {
    let start = Instant::now();
    const DEVICES: usize = 1_000;
    const CLIENTS: usize = 8;

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

    // 1. In-memory transport sweep: full codec + session, no sockets.
    let in_memory = {
        let service = Arc::clone(&service);
        sweep_fleet(
            &mut fleet,
            CLIENTS,
            DEFAULT_PIPELINE_WINDOW,
            None,
            move || {
                let (client_end, mut server_end) = PipeTransport::pair();
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let _ = serve_transport(&service, &mut server_end);
                });
                Ok(client_end)
            },
        )
        .unwrap()
    };
    assert_eq!(in_memory.devices, DEVICES);
    assert_eq!(
        in_memory.count(HealthClass::Attested),
        DEVICES - tampered.len()
    );
    assert_eq!(
        in_memory
            .flagged
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<u64>>(),
        tampered
    );
    println!(
        "in-memory networked sweep: {} devices in {:.3}s ({:.0} devices/s)",
        in_memory.devices,
        in_memory.elapsed.as_secs_f64(),
        in_memory.devices_per_second()
    );

    // 2. Loopback TCP sweep through the non-blocking gateway.
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig {
            workers: 8,
            queue_depth: 256,
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();

    let loopback = sweep_fleet(&mut fleet, CLIENTS, DEFAULT_PIPELINE_WINDOW, None, || {
        TcpTransport::connect(handle.addr())
    })
    .unwrap();
    assert_eq!(loopback.devices, DEVICES);
    assert_eq!(
        loopback.count(HealthClass::Attested),
        DEVICES - tampered.len()
    );
    assert_eq!(
        loopback
            .flagged
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<u64>>(),
        tampered,
        "exactly the tampered devices are flagged over TCP"
    );
    println!(
        "loopback TCP networked sweep: {} devices in {:.3}s ({:.0} devices/s)",
        loopback.devices,
        loopback.elapsed.as_secs_f64(),
        loopback.devices_per_second()
    );

    let gateway = handle.shutdown().unwrap();
    assert_eq!(
        gateway
            .counters()
            .accepted
            .load(std::sync::atomic::Ordering::Relaxed),
        CLIENTS as u64
    );
    assert_eq!(service.stats().reports_verified(), 2 * DEVICES as u64);
    assert_eq!(
        gateway
            .counters()
            .malformed_streams
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );

    // 3. The portable scan-fallback reactor serves the same 1000-device
    //    sweep (identical verdicts, only the readiness mechanism
    //    differs).
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig {
            workers: 8,
            queue_depth: 256,
            poller: eilid_net::PollerChoice::Scan,
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let fallback = sweep_fleet(&mut fleet, CLIENTS, DEFAULT_PIPELINE_WINDOW, None, || {
        TcpTransport::connect(handle.addr())
    })
    .unwrap();
    assert_eq!(
        fallback.count(HealthClass::Attested),
        DEVICES - tampered.len()
    );
    assert_eq!(
        fallback
            .flagged
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<u64>>(),
        tampered,
        "the scan fallback classifies exactly like the epoll reactor"
    );
    println!(
        "scan-fallback TCP networked sweep: {} devices in {:.3}s ({:.0} devices/s)",
        fallback.devices,
        fallback.elapsed.as_secs_f64(),
        fallback.devices_per_second()
    );
    let gateway = handle.shutdown().unwrap();
    assert!(
        gateway
            .counters()
            .scan_passes
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );

    // 4. The in-process verifier still agrees and its nonce domain never
    //    collided with the gateway's reserved block.
    let sweep = verifier.sweep(&mut fleet);
    assert_eq!(sweep.count(HealthClass::Attested), DEVICES - tampered.len());
    assert_eq!(sweep.devices_in(HealthClass::Tampered), tampered);

    let elapsed = start.elapsed();
    println!("networked scale test wall time: {elapsed:?}");
    assert!(
        elapsed.as_secs() < 60,
        "networked scale test took {elapsed:?}, budget is 60s"
    );
}
