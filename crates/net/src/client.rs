//! Device-side transport client and the networked sweep driver.
//!
//! [`DeviceClient`] speaks the device half of the protocol over any
//! [`Transport`]: version negotiation, challenge → attest → report, and
//! gateway-pushed authenticated updates. One client (one connection)
//! can multiplex any number of [`SimDevice`]s — the edge-aggregator
//! shape the 1000-device loopback sweep runs, with `device` ids in
//! every frame keeping the multiplexing honest.
//!
//! Two drive modes share the connection state machine:
//!
//! * [`DeviceClient::attest`] — lockstep, one exchange in flight. The
//!   simple mode, and the latency reference.
//! * [`DeviceClient::attest_batch`] — pipelined: up to `window`
//!   exchanges in flight per connection, requests and reports coalesced
//!   into batched sends ([`Transport::send_batch`], one syscall per
//!   burst over TCP). This is what closes most of the loopback-TCP
//!   throughput gap: a lockstep client pays two full round-trips of
//!   syscalls and scheduler hops *per device*; a pipelined client
//!   amortizes them over the window. Device-scoped gateway errors
//!   ([`Frame::DeviceError`]) keep `Busy` backpressure attributable —
//!   only the shed device is retried, with the same bounded backoff as
//!   lockstep mode.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use eilid_fleet::ops::class_index;
use eilid_fleet::{DeviceId, Fleet, HealthClass, SimDevice};

use crate::error::NetError;
use crate::service::health_from_wire;
use crate::transport::Transport;
use crate::wire::{ErrorCode, Frame, PROTOCOL_VERSION};

/// How many times an exchange shed with a `Busy` error is restarted
/// before the error surfaces to the caller.
pub const BUSY_RETRIES: usize = 8;

/// Default pipelining window of the sweep drivers: exchanges in flight
/// per connection.
pub const DEFAULT_PIPELINE_WINDOW: usize = 32;

/// The device half of the protocol, over any transport.
#[derive(Debug)]
pub struct DeviceClient<T: Transport> {
    transport: T,
    negotiated: u8,
}

impl<T: Transport> DeviceClient<T> {
    /// Performs version negotiation and returns the ready client.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the gateway refuses the version,
    /// transport errors otherwise.
    pub fn connect(mut transport: T) -> Result<Self, NetError> {
        transport.send(&Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })?;
        match transport.recv()? {
            Frame::HelloAck { version } => Ok(DeviceClient {
                transport,
                negotiated: version,
            }),
            Frame::Error { code } => Err(NetError::Protocol(code)),
            _ => Err(NetError::Unexpected("expected HelloAck")),
        }
    }

    /// The negotiated protocol version.
    pub fn version(&self) -> u8 {
        self.negotiated
    }

    /// Attests one device through the gateway: requests a challenge,
    /// answers it from the device's measurement engine, and returns the
    /// gateway's verdict.
    ///
    /// `Error{Busy}` — the gateway's backpressure signal when its
    /// worker queues are full — is honoured, not fatal: the exchange
    /// backs off briefly and restarts (a fresh challenge is requested;
    /// the gateway dropped the old one when it shed the report), up to
    /// [`BUSY_RETRIES`] attempts. The client protocol is lockstep — one
    /// exchange in flight per connection — so a Busy frame is always
    /// attributable to this exchange.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] carries gateway-reported errors
    /// (including `Busy` once the retry budget is exhausted); transport
    /// errors pass through.
    pub fn attest(&mut self, device: &mut SimDevice) -> Result<HealthClass, NetError> {
        let mut backoff = Duration::from_micros(500);
        for _ in 0..BUSY_RETRIES {
            match self.attest_once(device) {
                Err(NetError::Protocol(ErrorCode::Busy)) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(50));
                }
                other => return other,
            }
        }
        Err(NetError::Protocol(ErrorCode::Busy))
    }

    /// One challenge/report/verdict exchange, no retry.
    fn attest_once(&mut self, device: &mut SimDevice) -> Result<HealthClass, NetError> {
        let id = device.id();
        self.transport.send(&Frame::AttestRequest {
            device: id,
            cohort: device.cohort(),
        })?;
        loop {
            match self.transport.recv()? {
                Frame::Challenge {
                    device: for_device,
                    challenge,
                } => {
                    if for_device != id {
                        return Err(NetError::Unexpected("challenge for a different device"));
                    }
                    let report = device.attest(challenge);
                    self.transport.send(&Frame::Report { device: id, report })?;
                }
                Frame::AttestResult {
                    device: for_device,
                    class,
                } => {
                    if for_device != id {
                        return Err(NetError::Unexpected("result for a different device"));
                    }
                    return Ok(health_from_wire(class));
                }
                Frame::Error { code } => return Err(NetError::Protocol(code)),
                Frame::DeviceError { device, code } => {
                    if device != id {
                        return Err(NetError::Unexpected("error for a different device"));
                    }
                    return Err(NetError::Protocol(code));
                }
                _ => return Err(NetError::Unexpected("unexpected frame during attestation")),
            }
        }
    }

    /// Attests a batch of devices with up to `window` exchanges in
    /// flight on this connection, returning `(device, verdict)` pairs
    /// in device-id order.
    ///
    /// The pipeline keeps the window full: requests are issued as soon
    /// as slots free up, reports answer challenges as they arrive, and
    /// every burst of outgoing frames goes out as one batched send.
    /// Device-scoped `Busy` errors re-queue just that device (bounded
    /// by [`BUSY_RETRIES`] per device, with exponential backoff after
    /// any burst that shed work without delivering a verdict — the
    /// saturation signal).
    ///
    /// With `latency` set, each device's exchange latency (request
    /// issued → verdict received, in microseconds) is recorded into it;
    /// without, the pipeline stamps nothing.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for non-retryable gateway errors (or
    /// `Busy` past the retry budget); transport errors pass through.
    pub fn attest_batch(
        &mut self,
        devices: &mut [SimDevice],
        window: usize,
        latency: Option<&eilid_obs::Histogram>,
    ) -> Result<Vec<(DeviceId, HealthClass)>, NetError> {
        let window = window.max(1);
        let index_of: HashMap<DeviceId, usize> = devices
            .iter()
            .enumerate()
            .map(|(index, device)| (device.id(), index))
            .collect();
        if index_of.len() != devices.len() {
            return Err(NetError::Unexpected("duplicate device id in batch"));
        }
        let mut to_request: VecDeque<usize> = (0..devices.len()).collect();
        let mut retries: HashMap<DeviceId, usize> = HashMap::new();
        // Request-issue stamps, kept only when a latency observer is
        // attached (the bare path allocates and stamps nothing).
        let mut issued: HashMap<DeviceId, Instant> = HashMap::new();
        let mut verdicts: Vec<(DeviceId, HealthClass)> = Vec::with_capacity(devices.len());
        let mut in_flight = 0usize;
        let mut out: Vec<Frame> = Vec::new();
        let mut inbox: Vec<Frame> = Vec::new();
        let mut backoff = Duration::from_micros(500);

        while verdicts.len() < devices.len() {
            // Fill the window with fresh requests.
            while in_flight < window {
                let Some(index) = to_request.pop_front() else {
                    break;
                };
                out.push(Frame::AttestRequest {
                    device: devices[index].id(),
                    cohort: devices[index].cohort(),
                });
                if latency.is_some() {
                    issued.insert(devices[index].id(), Instant::now());
                }
                in_flight += 1;
            }
            // One coalesced send per burst...
            self.transport.send_batch(&out)?;
            out.clear();
            // ...then block for the next frame and drain whatever burst
            // arrived with it, so a window's worth of challenges turns
            // into one read and one coalesced reply write.
            inbox.push(self.transport.recv()?);
            while let Some(frame) = self.transport.recv_now()? {
                inbox.push(frame);
            }
            let mut burst_verdicts = 0usize;
            let mut burst_busy = 0usize;
            for frame in inbox.drain(..) {
                match frame {
                    Frame::Challenge { device, challenge } => {
                        let index = *index_of
                            .get(&device)
                            .ok_or(NetError::Unexpected("challenge for a device not in batch"))?;
                        let report = devices[index].attest(challenge);
                        out.push(Frame::Report { device, report });
                    }
                    Frame::AttestResult { device, class } => {
                        if !index_of.contains_key(&device) {
                            return Err(NetError::Unexpected("result for a device not in batch"));
                        }
                        if let (Some(hist), Some(at)) = (latency, issued.remove(&device)) {
                            hist.record_duration_us(at.elapsed());
                        }
                        verdicts.push((device, health_from_wire(class)));
                        in_flight -= 1;
                        burst_verdicts += 1;
                    }
                    Frame::DeviceError {
                        device,
                        code: ErrorCode::Busy,
                    } => {
                        // Attributable backpressure: retry exactly this
                        // device (bounded per device; the burst-level
                        // backoff below decides whether to sleep first).
                        let index = *index_of
                            .get(&device)
                            .ok_or(NetError::Unexpected("error for a device not in batch"))?;
                        in_flight -= 1;
                        burst_busy += 1;
                        let attempts = retries.entry(device).or_insert(0);
                        *attempts += 1;
                        if *attempts > BUSY_RETRIES {
                            return Err(NetError::Protocol(ErrorCode::Busy));
                        }
                        to_request.push_back(index);
                    }
                    Frame::DeviceError { code, .. } => return Err(NetError::Protocol(code)),
                    Frame::Error { code } => return Err(NetError::Protocol(code)),
                    _ => return Err(NetError::Unexpected("unexpected frame during attestation")),
                }
            }
            // Burst-level backoff: a burst that shed work and produced
            // no verdicts means the gateway is saturated — sleep with
            // exponential growth (matching the lockstep path's
            // resilience) before hammering it again. Any verdict in the
            // burst means capacity is flowing; keep streaming.
            if burst_busy > 0 && burst_verdicts == 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(50));
            } else if burst_verdicts > 0 {
                backoff = Duration::from_micros(500);
            }
        }
        verdicts.sort_by_key(|(device, _)| *device);
        Ok(verdicts)
    }

    /// Sends an orderly goodbye and returns the transport.
    ///
    /// # Errors
    ///
    /// Propagates the send failure (the connection is dropped either
    /// way).
    pub fn bye(mut self) -> Result<T, NetError> {
        self.transport.send(&Frame::Bye)?;
        Ok(self.transport)
    }
}

/// Aggregated result of a networked attestation sweep.
#[derive(Debug, Clone)]
pub struct NetSweepReport {
    /// Devices attested.
    pub devices: usize,
    /// Devices per health class: `[attested, stale, tampered, unverified]`.
    pub counts: [usize; 4],
    /// Device ids that came back in a non-attested class, in id order.
    pub flagged: Vec<(DeviceId, HealthClass)>,
    /// Wall-clock time for the whole sweep (connect → last verdict).
    pub elapsed: Duration,
    /// Concurrent client connections used.
    pub clients: usize,
}

impl NetSweepReport {
    /// Devices in `class`.
    pub fn count(&self, class: HealthClass) -> usize {
        self.counts[class_index(class)]
    }

    /// Sweep throughput in devices per second.
    pub fn devices_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.devices as f64 / secs
    }
}

/// Drives a full-fleet attestation sweep over `clients` concurrent
/// transports (one [`DeviceClient`] each, devices partitioned evenly),
/// opening each connection with `connect` — over TCP, pass
/// `|| TcpTransport::connect(addr)`. Each connection keeps up to
/// `window` exchanges in flight ([`DEFAULT_PIPELINE_WINDOW`] is the
/// usual choice; `1` degrades to lockstep exchanges through the same
/// pipeline). With `latency` set, every client records each exchange's
/// request → verdict time into it (the cells are atomic, so the clients
/// share one histogram without locks).
///
/// # Errors
///
/// The first transport/protocol error aborts the sweep.
pub fn sweep_fleet<T, F>(
    fleet: &mut Fleet,
    clients: usize,
    window: usize,
    latency: Option<&eilid_obs::Histogram>,
    connect: F,
) -> Result<NetSweepReport, NetError>
where
    T: Transport + Send,
    F: Fn() -> Result<T, NetError> + Sync,
{
    let devices = fleet.devices_mut();
    let total = devices.len();
    let clients = clients.clamp(1, total.max(1));
    let chunk = total.div_ceil(clients);
    // `chunks_mut(chunk)` opens one connection per chunk, which can be
    // fewer than requested (9 devices / 4 clients → chunks of 3 → 3
    // connections); report what actually ran.
    let clients = total.div_ceil(chunk);
    let start = Instant::now();

    let results: Vec<Result<Vec<(DeviceId, HealthClass)>, NetError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = devices
                .chunks_mut(chunk)
                .map(|batch| {
                    let connect = &connect;
                    scope.spawn(move || {
                        let mut client = DeviceClient::connect(connect()?)?;
                        let verdicts = client.attest_batch(batch, window, latency)?;
                        let _ = client.bye();
                        Ok(verdicts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("sweep client thread panicked"))
                .collect()
        });

    let mut counts = [0usize; 4];
    let mut flagged = Vec::new();
    for result in results {
        for (id, class) in result? {
            counts[class_index(class)] += 1;
            if class != HealthClass::Attested {
                flagged.push((id, class));
            }
        }
    }
    flagged.sort_by_key(|(id, _)| *id);
    Ok(NetSweepReport {
        devices: total,
        counts,
        flagged,
        elapsed: start.elapsed(),
        clients,
    })
}
