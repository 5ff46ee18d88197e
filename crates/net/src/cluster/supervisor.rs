//! [`Supervisor`] — the cluster's control plane: it owns the gateway
//! *processes*, where [`super::ClusterOps`] owns the gateway
//! *conversations*.
//!
//! The supervisor launches one OS process per gateway (via a
//! caller-supplied launcher, so the CLI, tests and deployments each
//! decide what a "gateway process" is), health-checks them over the
//! operator plane (`OpHealth`, which since protocol version 4 carries
//! the reactor counters), restarts crashed ones on their fixed
//! address, and drains live ones for planned maintenance
//! (`OpDrain` → the gateway stops accepting, pauses its campaigns and
//! hands the [`PausedCampaign`][eilid_fleet::PausedCampaign] records
//! back).
//!
//! Restart-on-same-address is the contract the rest of the cluster
//! leans on: placed device agents reconnect to the address they were
//! given, and [`super::ClusterOps::reconnect`] replays its console-held
//! wave checkpoint into the fresh process — so a mid-campaign crash
//! costs one replayed wave, never a redo.

use std::io;
use std::net::SocketAddr;
use std::process::Child;
use std::time::{Duration, Instant};

use eilid_fleet::{FleetOps, OpsError, OpsHealth};
use eilid_workloads::WorkloadId;

use crate::ops::RemoteOps;

/// Builds a gateway process for a gateway index. The child must bind
/// its gateway on the supervisor's address for that index and serve
/// until killed.
pub type GatewayLauncher = Box<dyn FnMut(usize) -> io::Result<Child> + Send>;

/// One supervised gateway slot.
#[derive(Debug)]
struct Slot {
    child: Option<Child>,
    launched: bool,
    restarts: usize,
}

/// Spawns, health-checks, restarts and drains a fixed-address fleet of
/// gateway processes.
pub struct Supervisor {
    addrs: Vec<SocketAddr>,
    launcher: GatewayLauncher,
    slots: Vec<Slot>,
    /// Reply deadline for supervision probes — deliberately much
    /// shorter than an operator's campaign-step deadline: a health
    /// probe that takes seconds *is* the failure signal.
    probe_timeout: Duration,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("addrs", &self.addrs)
            .field("slots", &self.slots)
            .field("probe_timeout", &self.probe_timeout)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A supervisor over `addrs.len()` gateway slots; nothing is
    /// launched until [`Supervisor::start_all`] or
    /// [`Supervisor::start`].
    pub fn new(addrs: Vec<SocketAddr>, launcher: GatewayLauncher) -> Self {
        let slots = addrs
            .iter()
            .map(|_| Slot {
                child: None,
                launched: false,
                restarts: 0,
            })
            .collect();
        Supervisor {
            addrs,
            launcher,
            slots,
            probe_timeout: Duration::from_secs(5),
        }
    }

    /// The fixed gateway addresses, index-aligned with
    /// [`super::ClusterOps`] and [`super::Placement`].
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// How many times `gateway` has been (re)started beyond its first
    /// launch.
    pub fn restarts(&self, gateway: usize) -> usize {
        self.slots[gateway].restarts
    }

    /// Launches `gateway`'s process (counting a restart if the slot ran
    /// before) and waits until it accepts operator connections.
    ///
    /// # Errors
    ///
    /// Launch failures, and [`io::ErrorKind::TimedOut`] when the
    /// process never became ready.
    pub fn start(&mut self, gateway: usize, ready_timeout: Duration) -> io::Result<()> {
        if self.slots[gateway].child.is_some() {
            self.stop(gateway);
        }
        let child = (self.launcher)(gateway)?;
        let slot = &mut self.slots[gateway];
        if slot.launched {
            slot.restarts += 1;
        }
        slot.launched = true;
        slot.child = Some(child);
        self.wait_ready(gateway, ready_timeout)
    }

    /// Launches every gateway and waits until all accept operator
    /// connections.
    ///
    /// # Errors
    ///
    /// The first launch or readiness failure.
    pub fn start_all(&mut self, ready_timeout: Duration) -> io::Result<()> {
        for gateway in 0..self.addrs.len() {
            let child = (self.launcher)(gateway)?;
            let slot = &mut self.slots[gateway];
            slot.launched = true;
            slot.child = Some(child);
        }
        for gateway in 0..self.addrs.len() {
            self.wait_ready(gateway, ready_timeout)?;
        }
        Ok(())
    }

    /// Polls `gateway` until an operator console connects and
    /// negotiates, i.e. the process is up and serving.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the deadline passes first.
    fn wait_ready(&self, gateway: usize, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            match RemoteOps::connect(self.addrs[gateway]) {
                Ok(console) => {
                    let _ = console.bye();
                    return Ok(());
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(err) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("gateway {gateway} not ready: {err}"),
                    ));
                }
            }
        }
    }

    /// One health probe over the operator plane: connect, `OpHealth`,
    /// goodbye.
    ///
    /// # Errors
    ///
    /// Connection and probe failures as [`OpsError`] — for the
    /// supervisor these *are* the crash signal, not exceptional.
    pub fn probe(&self, gateway: usize) -> Result<OpsHealth, OpsError> {
        let mut console = RemoteOps::connect(self.addrs[gateway])
            .map_err(|err| OpsError::Backend(format!("gateway {gateway}: {err}")))?;
        console.set_op_timeout(self.probe_timeout);
        let health = console.health()?;
        let _ = console.bye();
        Ok(health)
    }

    /// Kills and relaunches `gateway`, waiting for readiness.
    ///
    /// # Errors
    ///
    /// Launch and readiness failures.
    pub fn restart(&mut self, gateway: usize, ready_timeout: Duration) -> io::Result<()> {
        self.stop(gateway);
        let child = (self.launcher)(gateway)?;
        let slot = &mut self.slots[gateway];
        slot.child = Some(child);
        slot.launched = true;
        slot.restarts += 1;
        self.wait_ready(gateway, ready_timeout)
    }

    /// One supervision pass: every gateway whose process exited or
    /// whose health probe fails is restarted. Returns the restarted
    /// gateway indices — the operator's cue to call
    /// [`super::ClusterOps::reconnect`] for each.
    ///
    /// # Errors
    ///
    /// Relaunch failures (a failed *probe* triggers a restart; it does
    /// not error the pass).
    pub fn check_and_restart(&mut self, ready_timeout: Duration) -> io::Result<Vec<usize>> {
        let mut restarted = Vec::new();
        for gateway in 0..self.addrs.len() {
            let exited = match &mut self.slots[gateway].child {
                Some(child) => child.try_wait()?.is_some(),
                None => true,
            };
            let dead = exited || self.probe(gateway).is_err();
            if dead {
                self.restart(gateway, ready_timeout)?;
                restarted.push(gateway);
            }
        }
        Ok(restarted)
    }

    /// Drains `gateway` for planned maintenance: the gateway stops
    /// accepting connections, pauses every live campaign and hands the
    /// paused records back. The process keeps running (serving its
    /// remaining sessions) until [`Supervisor::stop`].
    ///
    /// # Errors
    ///
    /// Connection and drain failures as [`OpsError`].
    pub fn drain(&self, gateway: usize) -> Result<Vec<(WorkloadId, Vec<u8>)>, OpsError> {
        let mut console = RemoteOps::connect(self.addrs[gateway])
            .map_err(|err| OpsError::Backend(format!("gateway {gateway}: {err}")))?;
        console.set_op_timeout(self.probe_timeout.max(Duration::from_secs(30)));
        let paused = console.drain()?;
        let _ = console.bye();
        Ok(paused)
    }

    /// Kills `gateway`'s process (no-op when not running).
    pub fn stop(&mut self, gateway: usize) {
        if let Some(mut child) = self.slots[gateway].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Kills every gateway process.
    pub fn stop_all(&mut self) {
        for gateway in 0..self.addrs.len() {
            self.stop(gateway);
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_all();
    }
}
