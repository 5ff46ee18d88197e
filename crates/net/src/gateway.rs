//! The networked attestation gateway: a readiness-driven reactor in
//! front of the campaign engine.
//!
//! Architecture (std-only, no async runtime):
//!
//! ```text
//!  TcpListener (non-blocking)
//!      │ accept
//!      ▼
//!  reactor ── epoll readiness (or scan fallback) ── read → FrameDecoder → Session
//!      ▲            │ cheap frames (hello, attach): reply into the outbox
//!      │            └─ operator commands, device replies ──▶ engine thread
//!      │ Waker (eventfd / condvar)                              │ verifies each
//!      └── completions (probe pushes, results) ◀────────────────┘ reply burst
//! ```
//!
//! The gateway challenges and devices answer: the engine pushes probe
//! requests to the device agents registered on the reactor's
//! connections and verifies each burst of replies as it lands, in one
//! [`AttestationService::verify_batch`] sorted by key shard.
//!
//! * **Readiness, not scanning.** With the epoll backend the reactor
//!   wakes only for sockets that have bytes (or writable room) and for
//!   engine completions (eventfd), so per-pass cost tracks *active*
//!   connections — 10 000 idle sessions cost nothing. The portable
//!   fallback still scans, but idles through an adaptive
//!   [`IdleBackoff`] instead of a fixed 200 µs sleep, and a [`Waker`]
//!   interrupts its sleep so completion latency stays bounded.
//! * **Coalesced I/O.** The device replies one reactor pass decodes go
//!   to the engine as one channel message, and the frames the engine
//!   sends back in one message are encoded back-to-back into the
//!   connection outboxes — one `write` syscall flushes them all.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{EngineInput, OpsEngine, Registry};
use crate::metrics::{NetMetrics, TRACE_CAT_REACTOR, TRACE_REACTOR_PASS};
use crate::poller::{
    Event, IdleBackoff, Interest, Poller, PollerBackend, PollerChoice, WaitOutcome, Waker,
};
use crate::service::{AttestationService, Session, SessionOutput};
use crate::wire::{ErrorCode, Frame, FrameDecoder, WireError};

/// Token the listening socket is registered under (connection ids count
/// up from 0 and cannot collide in any realistic process lifetime).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Tuning knobs for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Has no effect: the engine verifies every reply burst on its own
    /// thread. Kept only so existing struct literals still compile;
    /// slated for removal.
    pub workers: usize,
    /// Has no effect (the gateway has no job queue). Kept only so
    /// existing struct literals still compile; slated for removal.
    pub queue_depth: usize,
    /// Connections beyond this are refused on accept (default 1024).
    pub max_connections: usize,
    /// Readiness backend selection (default [`PollerChoice::Auto`]:
    /// epoll on Linux, scan elsewhere).
    pub poller: PollerChoice,
    /// Hard cap on a single idle sleep of the scan fallback's adaptive
    /// backoff (default 2 ms; the epoll backend does not sleep-poll).
    pub idle_backoff_max: Duration,
    /// Idle ceiling per campaign-engine device exchange: how long the
    /// operator plane waits for a snapshot/update/probe reply with no
    /// progress before counting the device unreachable (default 10 s;
    /// the deadline extends on every reply, so wave size does not eat
    /// the budget).
    pub ops_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            queue_depth: 256,
            max_connections: 1024,
            poller: PollerChoice::Auto,
            idle_backoff_max: Duration::from_millis(2),
            ops_timeout: Duration::from_secs(10),
        }
    }
}

/// Reactor counters (verification counts live in
/// [`AttestationService::stats`]).
#[derive(Debug, Default)]
pub struct GatewayCounters {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections refused because `max_connections` was reached.
    pub refused: AtomicU64,
    /// Frames successfully decoded.
    pub frames_received: AtomicU64,
    /// Connections dropped for unparseable framing.
    pub malformed_streams: AtomicU64,
    /// Readiness wake-ups that delivered at least one event
    /// (epoll backend only).
    pub reactor_wakes: AtomicU64,
    /// Full O(connections) scan passes (scan backend only).
    pub scan_passes: AtomicU64,
    /// Live reactor connections right now (gauge: accepted minus
    /// closed) — what [`Frame::OpHealthResult`] reports as
    /// `live_sessions`.
    pub live_connections: AtomicU64,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    session: Session,
    outbox: Vec<u8>,
    closing: bool,
    dead: bool,
    /// Interest currently registered with the poller (epoll backend).
    interest: Interest,
}

/// Stop reading (and stop producing replies) for a connection whose
/// peer is not draining what the gateway sends — TCP flow control then
/// pushes the backpressure to the peer.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

impl Conn {
    fn queue(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.outbox);
    }

    /// Writes as much of the outbox as the socket accepts. Returns
    /// `true` on progress.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.outbox.drain(0..n);
                    progress = true;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        progress
    }

    /// The interest this connection should be registered with right
    /// now: writable while the outbox has residue, readable unless the
    /// peer has stopped draining our replies.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing && self.outbox.len() < OUTBOX_HIGH_WATER,
            writable: !self.outbox.is_empty(),
        }
    }
}

#[cfg(unix)]
fn raw_fd(io: &impl std::os::fd::AsRawFd) -> i32 {
    io.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_io: &T) -> i32 {
    // The scan backend (the only one off unix) ignores descriptors.
    -1
}

/// Shared context for one reactor pass — everything connection
/// servicing needs besides the connection map itself (kept separate so
/// the map can be iterated mutably alongside).
struct PassCtx<'a> {
    service: &'a Arc<AttestationService>,
    counters: &'a GatewayCounters,
    metrics: &'a Arc<NetMetrics>,
    read_buf: &'a mut [u8],
    /// Device→connection registry the campaign engine pushes through.
    registry: &'a Arc<Mutex<Registry>>,
    /// Channel to the campaign engine (operator commands and
    /// device-plane replies).
    engine_tx: &'a mpsc::Sender<EngineInput>,
}

/// The networked attestation gateway. Create with [`Gateway::bind`],
/// then either drive [`Gateway::poll`] yourself or hand the gateway to
/// a thread with [`Gateway::spawn`].
pub struct Gateway {
    listener: TcpListener,
    service: Arc<AttestationService>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    completions_rx: mpsc::Receiver<Vec<(u64, Frame)>>,
    config: GatewayConfig,
    counters: Arc<GatewayCounters>,
    read_buf: Vec<u8>,
    poller: Poller,
    waker: Waker,
    /// Device→connection registry shared with the campaign engine.
    registry: Arc<Mutex<Registry>>,
    /// Channel to the campaign engine thread; dropping the gateway
    /// drops the last sender, which stops the engine.
    engine_tx: mpsc::Sender<EngineInput>,
    /// Set by the engine on [`Frame::OpDrain`]: stop accepting new
    /// connections (existing ones keep draining their outboxes).
    draining: Arc<AtomicBool>,
    /// Per-gateway telemetry hub, shared with the campaign engine;
    /// scraped over the wire via
    /// [`Frame::OpMetrics`].
    metrics: Arc<NetMetrics>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.listener.local_addr().ok())
            .field("connections", &self.conns.len())
            .field("poller", &self.poller.backend())
            .finish()
    }
}

impl Gateway {
    /// Binds the gateway to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors, and poller construction failures
    /// (requesting [`PollerChoice::Epoll`] off Linux).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<AttestationService>,
        config: GatewayConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new(config.poller)?;
        poller.register(raw_fd(&listener), LISTENER_TOKEN, Interest::READ)?;
        let waker = poller.waker();
        let (completions_tx, completions_rx) = mpsc::channel();
        let counters = Arc::new(GatewayCounters::default());
        let draining = Arc::new(AtomicBool::new(false));
        // The campaign engine: its own thread, fed by the reactor over
        // `engine_tx`, replying through the completions channel. It
        // exits when the gateway (the only sender) is dropped. It
        // verifies sweep replies, reads the reactor counters (for
        // `OpHealth`) and shares the drain flag read-write (it sets it
        // on `OpDrain`; the reactor's accept path reads it).
        let registry = Arc::new(Mutex::new(Registry::default()));
        let metrics = NetMetrics::new();
        let (engine_tx, engine_rx) = mpsc::channel();
        OpsEngine::spawn(
            Arc::clone(&service),
            Arc::clone(&registry),
            engine_rx,
            completions_tx,
            waker.clone(),
            config.ops_timeout,
            Arc::clone(&counters),
            Arc::clone(&draining),
            Arc::clone(&metrics),
        );
        Ok(Gateway {
            listener,
            service,
            conns: HashMap::new(),
            next_conn: 0,
            completions_rx,
            config,
            counters,
            read_buf: vec![0u8; 64 * 1024],
            poller,
            waker,
            registry,
            engine_tx,
            draining,
            metrics,
        })
    }

    /// The bound address (the ephemeral port after `bind(":0")`).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The trust core this gateway serves.
    pub fn service(&self) -> &Arc<AttestationService> {
        &self.service
    }

    /// Reactor counters.
    pub fn counters(&self) -> &Arc<GatewayCounters> {
        &self.counters
    }

    /// The gateway's telemetry hub (registry, histograms, trace ring).
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.metrics
    }

    /// A scrape-time snapshot of every gateway metric — what a wire
    /// [`Frame::OpMetrics`] returns, available in-process.
    pub fn metrics_snapshot(&self) -> eilid_obs::RegistrySnapshot {
        self.metrics.snapshot(&self.counters, &self.service)
    }

    /// Open connections right now.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// `true` once an operator's [`Frame::OpDrain`] put the gateway in
    /// drain mode (new connections refused, existing ones still
    /// served).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Which readiness backend the reactor ended up with.
    pub fn poller_backend(&self) -> PollerBackend {
        self.poller.backend()
    }

    /// Accepts every pending connection. Returns `true` on progress.
    fn accept_new(&mut self) -> io::Result<bool> {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    // A draining gateway refuses new peers exactly like
                    // a full one: typed `Busy`, so a supervisor-steered
                    // agent retries against the replacement gateway.
                    if self.conns.len() >= self.config.max_connections
                        || self.draining.load(Ordering::Relaxed)
                    {
                        self.counters.refused.fetch_add(1, Ordering::Relaxed);
                        // Best effort: tell the peer why before dropping.
                        let _ = stream.set_nonblocking(true);
                        let mut stream = stream;
                        let _ = stream.write(
                            &Frame::Error {
                                code: ErrorCode::Busy,
                            }
                            .encode(),
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    if self
                        .poller
                        .register(raw_fd(&stream), id, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .live_connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.next_conn += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            session: Session::new(),
                            outbox: Vec::new(),
                            closing: false,
                            dead: false,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            }
        }
        Ok(progress)
    }

    /// Drains the completions channel, queueing each message's frames
    /// into its connections' outboxes and flushing the touched
    /// connections — the coalesced write path: a whole burst of engine
    /// pushes for one connection goes out in one syscall. Returns
    /// `true` on progress.
    fn deliver_completions(&mut self) -> bool {
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        while let Ok(batch) = self.completions_rx.try_recv() {
            for (conn_id, frame) in batch {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    // Per-code reject accounting for the engine's
                    // asynchronous error replies.
                    if let Frame::Error { code } | Frame::DeviceError { code, .. } = &frame {
                        self.metrics.count_reject(*code);
                    }
                    conn.queue(&frame);
                    touched.insert(conn_id);
                }
            }
        }
        let progress = !touched.is_empty();
        for conn_id in touched {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.flush();
                Self::sync_interest(&self.poller, conn, conn_id);
                if conn.dead || (conn.closing && conn.outbox.is_empty()) {
                    self.drop_conn(conn_id);
                }
            }
        }
        progress
    }

    /// Re-registers the connection's poller interest when it changed
    /// (epoll backend; a no-op on scan).
    fn sync_interest(poller: &Poller, conn: &mut Conn, conn_id: u64) {
        let desired = conn.desired_interest();
        if desired != conn.interest {
            conn.interest = desired;
            let _ = poller.modify(raw_fd(&conn.stream), conn_id, desired);
        }
    }

    /// Deregisters and removes one connection, dropping its device
    /// attachments and letting the campaign engine fail-fast anything
    /// pending on it.
    fn drop_conn(&mut self, conn_id: u64) {
        if let Some(conn) = self.conns.remove(&conn_id) {
            self.poller.deregister(raw_fd(&conn.stream));
            self.counters
                .live_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.registry
                .lock()
                .expect("registry lock")
                .drop_conn(conn_id);
            let _ = self.engine_tx.send(EngineInput::ConnClosed(conn_id));
        }
    }

    /// One full scan pass: accept, deliver engine completions, flush,
    /// read, dispatch. Returns `true` when any progress was made. This
    /// is the whole service loop of the scan backend — and the drain
    /// step of both backends at shutdown.
    ///
    /// # Errors
    ///
    /// Returns fatal listener errors only; per-connection failures
    /// drop that connection.
    pub fn poll(&mut self) -> io::Result<bool> {
        let mut progress = self.accept_new()?;
        progress |= self.deliver_completions();

        let mut dead: Vec<u64> = Vec::new();
        let mut ctx = PassCtx {
            service: &self.service,
            counters: &self.counters,
            metrics: &self.metrics,
            read_buf: &mut self.read_buf,
            registry: &self.registry,
            engine_tx: &self.engine_tx,
        };
        for (&id, conn) in self.conns.iter_mut() {
            progress |= Self::service_conn(conn, id, &mut ctx);
            Self::sync_interest(&self.poller, conn, id);
            if conn.dead || (conn.closing && conn.outbox.is_empty()) {
                dead.push(id);
            }
        }
        for id in dead {
            self.drop_conn(id);
            progress = true;
        }
        // Engine frames that landed during the pass go out now, not
        // after the next wake.
        progress |= self.deliver_completions();
        Ok(progress)
    }

    /// Services exactly the connections the poller reported ready.
    /// Returns `true` on progress.
    fn service_ready(&mut self, events: &[Event]) -> io::Result<bool> {
        let mut progress = self.deliver_completions();
        let mut accept = false;
        {
            let mut ctx = PassCtx {
                service: &self.service,
                counters: &self.counters,
                metrics: &self.metrics,
                read_buf: &mut self.read_buf,
                registry: &self.registry,
                engine_tx: &self.engine_tx,
            };
            let mut dead: Vec<u64> = Vec::new();
            for event in events {
                if event.token == LISTENER_TOKEN {
                    accept = true;
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&event.token) else {
                    continue; // closed earlier in this same batch
                };
                progress |= Self::service_conn(conn, event.token, &mut ctx);
                Self::sync_interest(&self.poller, conn, event.token);
                if conn.dead || (conn.closing && conn.outbox.is_empty()) {
                    dead.push(event.token);
                }
            }
            for id in dead {
                self.drop_conn(id);
                progress = true;
            }
        }
        if accept {
            progress |= self.accept_new()?;
        }
        progress |= self.deliver_completions();
        Ok(progress)
    }

    /// Reads, dispatches and flushes one connection. Returns `true` on
    /// progress.
    fn service_conn(conn: &mut Conn, conn_id: u64, ctx: &mut PassCtx<'_>) -> bool {
        // Flush pending output first so closing connections drain.
        let mut progress = conn.flush();
        if conn.dead || conn.closing {
            return progress;
        }

        // Outbox high-water mark: a peer that sends requests but never
        // reads its replies must not grow our send buffer without
        // bound. Until it drains below the mark, stop reading (and
        // therefore stop producing replies) for this connection.
        if conn.outbox.len() >= OUTBOX_HIGH_WATER {
            return progress;
        }

        // Read what is available — bounded per connection per pass so
        // one firehosing peer cannot starve the rest (the poller's
        // level-triggered readiness re-delivers whatever is left).
        const READ_BUDGET_PER_PASS: usize = 256 * 1024;
        let mut taken = 0usize;
        while taken < READ_BUDGET_PER_PASS {
            match conn.stream.read(ctx.read_buf) {
                Ok(0) => {
                    conn.dead = true;
                    return true;
                }
                Ok(n) => {
                    progress = true;
                    taken += n;
                    conn.decoder.extend(&ctx.read_buf[..n]);
                    if n < ctx.read_buf.len() {
                        break;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }

        // Dispatch complete frames. Device-plane replies accumulate and
        // ship to the engine as ONE channel message per pass — a sweep
        // burst used to cost one send (and one engine wake) per device.
        let mut device_replies: Vec<Frame> = Vec::new();
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => {
                    progress = true;
                    ctx.counters.frames_received.fetch_add(1, Ordering::Relaxed);
                    match conn.session.handle(ctx.service, frame) {
                        SessionOutput::Reply(frames) => {
                            for frame in frames {
                                if let Frame::Error { code } | Frame::DeviceError { code, .. } =
                                    &frame
                                {
                                    ctx.metrics.count_reject(*code);
                                }
                                conn.queue(&frame);
                            }
                        }
                        SessionOutput::Attach { device, cohort } => {
                            ctx.registry
                                .lock()
                                .expect("registry lock")
                                .attach(device, conn_id, cohort);
                            conn.queue(&Frame::AttachAck { device });
                        }
                        SessionOutput::Operator(frame) => {
                            let _ = ctx.engine_tx.send(EngineInput::Operator {
                                conn: conn_id,
                                frame,
                            });
                        }
                        SessionOutput::DeviceReply(frame) => {
                            device_replies.push(frame);
                        }
                        SessionOutput::ReplyAndClose(frames) => {
                            for frame in frames {
                                if let Frame::Error { code } | Frame::DeviceError { code, .. } =
                                    &frame
                                {
                                    ctx.metrics.count_reject(*code);
                                }
                                conn.queue(&frame);
                            }
                            conn.closing = true;
                            break;
                        }
                        SessionOutput::Close => {
                            conn.closing = true;
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(wire) => {
                    // Framing can't be trusted anymore; drop the peer —
                    // but replies already decoded this pass are good.
                    Self::flush_device_replies(&mut device_replies, ctx);
                    ctx.counters
                        .malformed_streams
                        .fetch_add(1, Ordering::Relaxed);
                    if let WireError::UnknownFrameType(_) = wire {
                        // A well-formed header naming a retired or unknown
                        // frame type: tell the peer why before closing,
                        // so it fails with a typed error, not a bare EOF.
                        ctx.metrics.count_reject(ErrorCode::Unsupported);
                        conn.queue(&Frame::Error {
                            code: ErrorCode::Unsupported,
                        });
                        conn.closing = true;
                    } else {
                        conn.dead = true;
                    }
                    return true;
                }
            }
        }
        Self::flush_device_replies(&mut device_replies, ctx);
        // Push replies produced by this pass toward the socket now; the
        // poller's write interest covers whatever the socket refuses.
        progress |= conn.flush();
        // Outbox residency after the flush: how far this peer lags
        // behind draining its replies (0 for a healthy peer).
        ctx.metrics.outbox_bytes.record(conn.outbox.len() as u64);
        progress
    }

    /// Ships this pass's accumulated device-plane replies to the engine
    /// as a single batched message, preserving arrival order.
    fn flush_device_replies(replies: &mut Vec<Frame>, ctx: &mut PassCtx<'_>) {
        match replies.len() {
            0 => {}
            1 => {
                let frame = replies.pop().expect("one buffered reply");
                let _ = ctx.engine_tx.send(EngineInput::Device { frame });
            }
            _ => {
                let _ = ctx
                    .engine_tx
                    .send(EngineInput::Devices(std::mem::take(replies)));
            }
        }
    }

    /// Runs the reactor until `shutdown` is set. The epoll backend
    /// blocks in the kernel until readiness or a wake; the scan
    /// fallback sleeps per its adaptive backoff between passes.
    ///
    /// # Errors
    ///
    /// Returns fatal listener/poller errors.
    pub fn run(&mut self, shutdown: &AtomicBool) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut backoff = IdleBackoff::new(self.config.idle_backoff_max);
        while !shutdown.load(Ordering::Relaxed) {
            let outcome = self.poller.wait(&mut events, &backoff)?;
            let pass_started = Instant::now();
            let frames_before = self.counters.frames_received.load(Ordering::Relaxed);
            let progress = match outcome {
                WaitOutcome::Ready => {
                    if !events.is_empty() {
                        self.counters.reactor_wakes.fetch_add(1, Ordering::Relaxed);
                    }
                    self.service_ready(&events)?
                }
                WaitOutcome::ScanAll => {
                    self.counters.scan_passes.fetch_add(1, Ordering::Relaxed);
                    self.poll()?
                }
            };
            if progress {
                // Only productive passes are sampled: idle scan passes
                // would otherwise drown the histograms (and the trace
                // ring) in near-zero noise.
                let elapsed = pass_started.elapsed();
                let frames = self
                    .counters
                    .frames_received
                    .load(Ordering::Relaxed)
                    .saturating_sub(frames_before);
                self.metrics.pass_us.record_duration_us(elapsed);
                self.metrics.frames_per_wake.record(frames);
                self.metrics.trace().record(
                    TRACE_CAT_REACTOR,
                    TRACE_REACTOR_PASS,
                    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                    frames,
                );
                backoff.reset();
            } else {
                backoff.note_idle();
            }
        }
        // Final passes to flush replies already queued.
        for _ in 0..16 {
            if !self.poll()? {
                break;
            }
        }
        Ok(())
    }

    /// Moves the gateway onto its own thread; the returned handle stops
    /// it and hands it back.
    pub fn spawn(self) -> GatewayHandle {
        let addr = self
            .local_addr()
            .expect("a bound gateway has a local address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let counters = Arc::clone(&self.counters);
        let service = Arc::clone(&self.service);
        let metrics = Arc::clone(&self.metrics);
        let waker = self.waker.clone();
        let mut gateway = self;
        let handle = std::thread::Builder::new()
            .name("eilid-gateway".into())
            .spawn(move || {
                let result = gateway.run(&flag);
                result.map(|()| gateway)
            })
            .expect("spawning the gateway thread");
        GatewayHandle {
            addr,
            shutdown,
            counters,
            service,
            metrics,
            waker,
            handle,
        }
    }
}

/// Handle to a gateway running on its own thread.
pub struct GatewayHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<GatewayCounters>,
    service: Arc<AttestationService>,
    metrics: Arc<NetMetrics>,
    waker: Waker,
    handle: JoinHandle<io::Result<Gateway>>,
}

impl GatewayHandle {
    /// The gateway's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live reactor counters.
    pub fn counters(&self) -> &GatewayCounters {
        &self.counters
    }

    /// The trust core (for its verification stats).
    pub fn service(&self) -> &Arc<AttestationService> {
        &self.service
    }

    /// The gateway's telemetry hub.
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.metrics
    }

    /// A scrape-time snapshot of every gateway metric (in-process
    /// equivalent of a wire [`Frame::OpMetrics`]).
    pub fn metrics_snapshot(&self) -> eilid_obs::RegistrySnapshot {
        self.metrics.snapshot(&self.counters, &self.service)
    }

    /// Stops the reactor (waking it if blocked) and returns the
    /// gateway.
    ///
    /// # Errors
    ///
    /// Surfaces a fatal listener error from the reactor.
    ///
    /// # Panics
    ///
    /// Panics if the gateway thread itself panicked.
    pub fn shutdown(self) -> io::Result<Gateway> {
        self.shutdown.store(true, Ordering::Relaxed);
        self.waker.wake();
        self.handle.join().expect("gateway thread panicked")
    }
}
