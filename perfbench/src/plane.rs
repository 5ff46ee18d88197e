//! The networked deployment the `sweep` and `rollout` workloads drive:
//! one gateway on loopback, one device agent holding the whole fleet,
//! one operator console.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eilid_casu::DeviceKey;
use eilid_fleet::{Fleet, FleetBuilder, ServiceSnapshot, Verifier};
use eilid_net::{
    AttestationService, DeviceAgent, Gateway, GatewayConfig, GatewayHandle, NetError, RemoteOps,
    TcpTransport,
};
use eilid_workloads::WorkloadId;

/// Fleet root key of every benchmark fleet.
const ROOT: &[u8] = b"perfbench-fleet-root-key-0123456";

/// How long an idle agent waits on its socket before re-checking its
/// stop flag: bounds the untimed hand-back of the fleet between ops.
const AGENT_POLL: Duration = Duration::from_millis(2);

/// Builds a fleet of `devices` over `cohorts` (one worker thread, so
/// in-process sweeps run inline on the calling thread).
pub fn build_fleet(devices: usize, cohorts: &[WorkloadId]) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).expect("benchmark root key is long enough"))
        .devices(devices)
        .threads(1)
        .workloads(cohorts)
        .build()
        .expect("benchmark fleet builds")
}

/// Binds and starts a gateway on loopback with one verification worker
/// and a verification budget large enough that no report is refused as
/// busy.
pub fn spawn_gateway(snapshot: ServiceSnapshot) -> GatewayHandle {
    let service = Arc::new(AttestationService::new(snapshot));
    let config = GatewayConfig {
        workers: 1,
        queue_depth: 8192,
        ..GatewayConfig::default()
    };
    Gateway::bind(("127.0.0.1", 0), service, config)
        .expect("gateway binds on loopback")
        .spawn()
}

/// Connects one device agent and attaches every device of `fleet`.
pub fn attach_agent(addr: SocketAddr, fleet: &Fleet) -> DeviceAgent<TcpTransport> {
    let transport =
        TcpTransport::connect_with_timeout(addr, AGENT_POLL).expect("agent connects on loopback");
    let mut agent =
        DeviceAgent::connect(transport, fleet.scheme()).expect("agent negotiates the protocol");
    agent
        .attach(fleet.devices())
        .expect("gateway acknowledges every attach");
    agent
}

/// Connects the operator console.
pub fn connect_console(addr: SocketAddr) -> RemoteOps<TcpTransport> {
    RemoteOps::connect(addr).expect("operator console connects on loopback")
}

/// Serves gateway pushes for the fleet on a second thread while `op`
/// runs on this one, then takes the fleet back. The agent's result is
/// returned next to the op's.
pub fn serve_during<R>(
    agent: &mut DeviceAgent<TcpTransport>,
    fleet: &mut Fleet,
    op: impl FnOnce() -> R,
) -> (R, Result<(), NetError>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let devices = fleet.devices_mut();
        let stop_ref = &stop;
        let server = scope.spawn(move || agent.serve(devices, stop_ref));
        let out = op();
        stop.store(true, Ordering::Relaxed);
        let served = server.join().expect("device agent thread panicked");
        (out, served)
    })
}
