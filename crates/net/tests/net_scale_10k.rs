//! The 10 000-connection reactor scale test (Linux / epoll, release
//! mode): the gateway holds 9 996 idle negotiated sessions while a
//! 1 000-device gateway sweep runs through four device agents and an
//! operator console — all within the 60 s budget.
//!
//! This is precisely the load shape the PR 3 scan loop could not serve:
//! every pass there touched every connection (a `read` syscall per conn
//! per pass), so 10 000 mostly-idle sessions made each pass ~10 000×
//! more expensive than its useful work. The epoll reactor's passes cost
//! only the *ready* connections, so the idle ten thousand are free.
//!
//! Process shape: this process would need ~20 000 fds to hold both ends
//! of 10 000 loopback connections, which is exactly the environment's
//! hard `RLIMIT_NOFILE`. The client ends therefore live in two child
//! processes (re-invocations of this test binary running
//! `holder_child_for_scale_10k`), each holding ~5 000 idle sessions;
//! the gateway side (~10 000 fds) stays in the parent.

#![cfg(target_os = "linux")]

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eilid_casu::DeviceKey;
use eilid_fleet::{FleetBuilder, FleetOps, HealthClass};
use eilid_net::{
    with_attached_fleet, AttestationService, Frame, Gateway, GatewayConfig, PollerBackend,
    RemoteOps, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const HOLDER_ENV_ADDR: &str = "EILID_HOLDER_ADDR";
const HOLDER_ENV_CONNS: &str = "EILID_HOLDER_CONNS";
const IDLE_PER_CHILD: usize = 4_998;
const SWEEP_AGENTS: usize = 4;

/// Child-process body: opens N connections, negotiates each, then
/// parks until the parent closes stdin. Invoked by the scale test via
/// `--exact holder_child_for_scale_10k --ignored`; inert (no env) when
/// an `--include-ignored` filter sweeps it up.
#[test]
#[ignore = "child-process helper for scale_10k_connections_on_the_epoll_reactor"]
fn holder_child_for_scale_10k() {
    let Ok(addr) = std::env::var(HOLDER_ENV_ADDR) else {
        return;
    };
    let addr: SocketAddr = addr.parse().expect("holder address");
    let conns: usize = std::env::var(HOLDER_ENV_CONNS)
        .expect("holder connection count")
        .parse()
        .expect("holder connection count");

    let hello = Frame::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    }
    .encode();
    let expected_ack = Frame::HelloAck {
        version: PROTOCOL_VERSION,
    }
    .encode();

    // Raw sockets + a fixed-size ack read keep per-connection client
    // memory at one fd (a full `TcpTransport` per session would cost
    // ~16 KiB of buffers × 5 000).
    let mut held: Vec<TcpStream> = Vec::with_capacity(conns);
    let mut ack = vec![0u8; expected_ack.len()];
    for _ in 0..conns {
        let mut stream = TcpStream::connect(addr).expect("holder connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("holder read timeout");
        stream.write_all(&hello).expect("holder hello");
        stream.read_exact(&mut ack).expect("holder hello ack");
        assert_eq!(ack, expected_ack, "negotiation must succeed");
        held.push(stream);
    }

    println!("HOLDING {}", held.len());
    std::io::stdout().flush().expect("holder stdout");
    // Park: the parent closing our stdin (or killing us) releases the
    // connections.
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    drop(held);
}

/// Kills the holder child on drop so a failing assertion never leaks
/// 5 000 connections holding the listener port.
struct Holder {
    child: Child,
}

impl Holder {
    fn spawn(addr: SocketAddr, conns: usize) -> Holder {
        let exe = std::env::current_exe().expect("test binary path");
        let child = Command::new(exe)
            .args([
                "--exact",
                "holder_child_for_scale_10k",
                "--ignored",
                "--nocapture",
            ])
            .env(HOLDER_ENV_ADDR, addr.to_string())
            .env(HOLDER_ENV_CONNS, conns.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawning a holder child");
        Holder { child }
    }

    /// Blocks until the child reports its connections are up.
    fn wait_holding(&mut self, expected: usize) {
        let stdout = self.child.stdout.take().expect("holder stdout piped");
        let mut reader = BufReader::new(stdout);
        // The libtest harness prints `test <name> ... ` with no newline
        // before the test body runs, so the HOLDING marker appears
        // mid-line — scan byte-wise for it rather than per line.
        let mut seen = String::new();
        let mut byte = [0u8; 1];
        loop {
            let n = reader.read(&mut byte).expect("holder stdout read");
            assert!(n > 0, "holder child exited before reporting HOLDING");
            seen.push(byte[0] as char);
            if byte[0] == b'\n' {
                if let Some(at) = seen.find("HOLDING ") {
                    let count: usize = seen[at + "HOLDING ".len()..]
                        .trim()
                        .parse()
                        .expect("holder count");
                    assert_eq!(
                        count, expected,
                        "holder child opened a different number of connections"
                    );
                    return;
                }
                seen.clear();
            }
        }
    }
}

impl Drop for Holder {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode scale test; run with `make net-scale-10k`"
)]
fn scale_10k_connections_on_the_epoll_reactor() {
    let start = Instant::now();
    const DEVICES: usize = 1_000;

    let (mut fleet, mut verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(DEVICES)
        .threads(4)
        .build()
        .unwrap();

    // A few physically tampered devices keep the sweep honest.
    let tampered: Vec<u64> = fleet
        .cohort_members(WorkloadId::FireSensor)
        .into_iter()
        .take(3)
        .collect();
    for &id in &tampered {
        let device = &mut fleet.devices_mut()[id as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE020);
        memory.write_byte(0xE020, original ^ 0x80);
    }

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig {
            max_connections: 12_000,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        gateway.poller_backend(),
        PollerBackend::Epoll,
        "this scale test exists to exercise the epoll reactor"
    );
    let handle = gateway.spawn();
    let addr = handle.addr();

    // 2 × 4 998 idle holders, then 4 sweep agents and one console.
    let mut holders = [
        Holder::spawn(addr, IDLE_PER_CHILD),
        Holder::spawn(addr, IDLE_PER_CHILD),
    ];
    for holder in &mut holders {
        holder.wait_holding(IDLE_PER_CHILD);
    }
    let connected = Instant::now();
    println!(
        "{} idle connections negotiated and held in {:.2}s",
        2 * IDLE_PER_CHILD,
        (connected - start).as_secs_f64()
    );

    // The sweep runs through 5 fresh connections while the 9 996 idle
    // sessions stay parked — with readiness, they cost nothing.
    let (summary, seconds) = with_attached_fleet(&mut fleet, SWEEP_AGENTS, addr, || {
        let mut ops = RemoteOps::connect(addr).unwrap();
        let started = Instant::now();
        let summary = ops.sweep().unwrap();
        (summary, started.elapsed().as_secs_f64())
    })
    .unwrap();
    assert_eq!(summary.devices, DEVICES);
    assert_eq!(
        summary.count(HealthClass::Attested),
        DEVICES - tampered.len()
    );
    assert_eq!(
        summary
            .flagged
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<u64>>(),
        tampered,
        "exactly the tampered devices are flagged amid 10k connections"
    );
    println!(
        "gateway sweep amid 10k connections: {DEVICES} devices in {seconds:.3}s ({:.0} devices/s)",
        DEVICES as f64 / seconds
    );

    drop(holders);
    let gateway = handle.shutdown().unwrap();
    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        load(&gateway.counters().accepted),
        (2 * IDLE_PER_CHILD + SWEEP_AGENTS + 1) as u64,
        "every idle session, agent and the console was accepted"
    );
    assert_eq!(load(&gateway.counters().refused), 0);
    assert_eq!(load(&gateway.counters().malformed_streams), 0);
    assert!(load(&gateway.counters().reactor_wakes) > 0);
    assert_eq!(service.stats().reports_verified(), DEVICES as u64);

    let elapsed = start.elapsed();
    println!("10k-connection scale test wall time: {elapsed:?}");
    assert!(
        elapsed.as_secs() < 60,
        "10k-connection scale test took {elapsed:?}, budget is 60s"
    );
}
