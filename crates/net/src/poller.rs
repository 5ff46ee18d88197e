//! Socket readiness: the reactor seam between the gateway and the OS.
//!
//! The PR 3 gateway ran an O(connections) scan every pass — read every
//! socket, sleep 200 µs when nothing moved. Fine at 1 000 connections,
//! hopeless at 100 000: the scan itself becomes the hot loop and the
//! fixed sleep becomes the latency floor. [`Poller`] replaces it with a
//! readiness model and two backends behind one API:
//!
//! * **epoll** (Linux): the kernel tells us *which* sockets are ready,
//!   so a pass touches only live connections no matter how many idle
//!   ones exist. Implemented over raw `extern "C"` bindings to the libc
//!   symbols std already links (`epoll_create1`/`epoll_ctl`/
//!   `epoll_wait`/`eventfd`) — the crate's one documented-unsafe
//!   module.
//! * **scan** (portable fallback): the caller still scans every
//!   connection, but the fixed idle sleep is replaced by
//!   [`IdleBackoff`] — spin, then short sleeps, then longer sleeps with
//!   a hard cap — and the sleep is a condvar wait, so a [`Waker`] cuts
//!   it short instead of paying the full sleep as wakeup latency.
//!
//! Either way, worker-pool completions wake the reactor through a
//! [`Waker`] (eventfd on epoll, condvar on scan) instead of being
//! discovered by the next timed poll pass.

// The epoll/eventfd syscall bindings below are the one place this crate
// needs unsafe code; they are documented and encapsulated in `sys`.
#![allow(unsafe_code)]

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::error::unpoisoned;

/// Which readiness backend a [`Poller`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerBackend {
    /// Linux epoll: wake only for ready sockets.
    Epoll,
    /// Portable fallback: scan every connection, with adaptive backoff
    /// on idle passes.
    Scan,
}

impl PollerBackend {
    /// Stable lowercase name (recorded in `BENCH_net.json`).
    pub fn name(self) -> &'static str {
        match self {
            PollerBackend::Epoll => "epoll",
            PollerBackend::Scan => "scan",
        }
    }
}

/// Backend selection policy for [`Poller::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollerChoice {
    /// epoll where available (Linux), scan elsewhere.
    #[default]
    Auto,
    /// Require epoll; constructing the poller fails off-Linux.
    Epoll,
    /// Force the portable scan fallback (useful for A/B benches and for
    /// exercising the fallback on Linux).
    Scan,
}

/// One readiness event from an epoll wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Readable (or peer-hung-up — the read path discovers EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// What one [`Poller::wait`] observed.
#[derive(Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Readiness events were delivered into the caller's buffer
    /// (possibly zero of them, on a timed-out wait).
    Ready,
    /// This backend has no readiness information: service every
    /// connection (the portable scan pass).
    ScanAll,
}

/// Interest set for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// Adaptive idle backoff for the scan backend: spin first (a busy
/// gateway usually has more work within microseconds), then short
/// sleeps, then doubling sleeps up to a hard cap — so an idle gateway
/// costs almost no CPU while wakeup latency stays bounded by the cap
/// given to [`IdleBackoff::new`] even without a waker (and by the condvar
/// wake itself when there is one).
#[derive(Debug, Clone)]
pub struct IdleBackoff {
    consecutive_idle: u32,
    max_sleep: Duration,
}

/// Idle passes spent spinning (yielding) before any sleep.
const SPIN_PASSES: u32 = 64;
/// First sleep duration once spinning stops paying.
const SHORT_SLEEP: Duration = Duration::from_micros(50);

impl IdleBackoff {
    /// A fresh backoff capped at `max_sleep` per idle pass.
    pub fn new(max_sleep: Duration) -> Self {
        IdleBackoff {
            consecutive_idle: 0,
            max_sleep: max_sleep.max(SHORT_SLEEP),
        }
    }

    /// The pass made progress: back to spinning.
    pub fn reset(&mut self) {
        self.consecutive_idle = 0;
    }

    /// The pass was idle; advance the backoff schedule.
    pub fn note_idle(&mut self) {
        self.consecutive_idle = self.consecutive_idle.saturating_add(1);
    }

    /// The delay the *next* idle pass will wait: `None` while still in
    /// the spin stage, then `SHORT_SLEEP` doubling up to the cap. This
    /// is the backoff's bounded-latency witness: it never exceeds the
    /// cap.
    pub fn current_delay(&self) -> Option<Duration> {
        if self.consecutive_idle < SPIN_PASSES {
            return None;
        }
        let doublings = (self.consecutive_idle - SPIN_PASSES) / 16;
        let sleep = SHORT_SLEEP.saturating_mul(1u32 << doublings.min(20));
        Some(sleep.min(self.max_sleep))
    }

    /// Consecutive idle passes since the last reset.
    #[cfg(test)]
    fn consecutive_idle(&self) -> u32 {
        self.consecutive_idle
    }
}

/// Wakes a blocked [`Poller::wait`] from another thread (worker-pool
/// completion callbacks, shutdown). Clonable and cheap; waking an
/// un-blocked poller just makes its next wait return immediately.
#[derive(Debug, Clone)]
pub struct Waker {
    inner: WakerInner,
}

#[derive(Debug, Clone)]
enum WakerInner {
    #[cfg(target_os = "linux")]
    Epoll(Arc<sys::EventFd>),
    Scan(Arc<ScanSignal>),
}

impl Waker {
    /// Wakes the poller. Infallible by design: a failed eventfd write
    /// (full counter) means a wake is already pending, which is exactly
    /// the state we want.
    pub fn wake(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Epoll(eventfd) => eventfd.signal(),
            WakerInner::Scan(signal) => signal.raise(),
        }
    }
}

/// Condvar-based wake signal for the scan backend.
#[derive(Debug, Default)]
struct ScanSignal {
    woken: Mutex<bool>,
    condvar: Condvar,
}

impl ScanSignal {
    fn raise(&self) {
        let mut woken = unpoisoned(self.woken.lock());
        *woken = true;
        self.condvar.notify_one();
    }

    /// Sleeps up to `delay` unless a wake is (or becomes) pending;
    /// consumes the pending wake either way.
    fn wait(&self, delay: Duration) {
        let mut woken = unpoisoned(self.woken.lock());
        if !*woken {
            let (guard, _) = unpoisoned(self.condvar.wait_timeout(woken, delay));
            woken = guard;
        }
        *woken = false;
    }

    /// Consumes a pending wake without sleeping, reporting whether one
    /// was pending.
    fn take(&self) -> bool {
        let mut woken = unpoisoned(self.woken.lock());
        std::mem::replace(&mut *woken, false)
    }
}

/// The readiness poller. See the module docs for the two backends.
#[derive(Debug)]
pub struct Poller {
    inner: PollerImpl,
}

#[derive(Debug)]
enum PollerImpl {
    #[cfg(target_os = "linux")]
    Epoll(sys::EpollPoller),
    Scan(Arc<ScanSignal>),
}

impl Poller {
    /// Builds a poller per `choice`.
    ///
    /// # Errors
    ///
    /// [`PollerChoice::Epoll`] fails with `Unsupported` off Linux and
    /// propagates `epoll_create1`/`eventfd` failures on it.
    pub fn new(choice: PollerChoice) -> io::Result<Self> {
        match choice {
            PollerChoice::Scan => Ok(Poller {
                inner: PollerImpl::Scan(Arc::new(ScanSignal::default())),
            }),
            #[cfg(target_os = "linux")]
            PollerChoice::Auto | PollerChoice::Epoll => Ok(Poller {
                inner: PollerImpl::Epoll(sys::EpollPoller::new()?),
            }),
            #[cfg(not(target_os = "linux"))]
            PollerChoice::Auto => Ok(Poller {
                inner: PollerImpl::Scan(Arc::new(ScanSignal::default())),
            }),
            #[cfg(not(target_os = "linux"))]
            PollerChoice::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the epoll poller backend is only available on Linux",
            )),
        }
    }

    /// Which backend this poller runs.
    pub fn backend(&self) -> PollerBackend {
        match &self.inner {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(_) => PollerBackend::Epoll,
            PollerImpl::Scan(_) => PollerBackend::Scan,
        }
    }

    /// A clonable wake handle for this poller.
    pub fn waker(&self) -> Waker {
        match &self.inner {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(epoll) => Waker {
                inner: WakerInner::Epoll(epoll.eventfd()),
            },
            PollerImpl::Scan(signal) => Waker {
                inner: WakerInner::Scan(Arc::clone(signal)),
            },
        }
    }

    /// Registers `fd` under `token` with the given interest. A no-op on
    /// the scan backend (the caller scans everything anyway).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        match &self.inner {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(epoll) => epoll.register(fd, token, interest),
            PollerImpl::Scan(_) => {
                let _ = (fd, token, interest);
                Ok(())
            }
        }
    }

    /// Changes the interest set of a registered descriptor. A no-op on
    /// the scan backend.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn modify(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        match &self.inner {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(epoll) => epoll.modify(fd, token, interest),
            PollerImpl::Scan(_) => {
                let _ = (fd, token, interest);
                Ok(())
            }
        }
    }

    /// Removes a descriptor from the interest set. A no-op on the scan
    /// backend; on epoll a failure is ignored (the kernel drops closed
    /// descriptors from the set itself).
    pub fn deregister(&self, fd: i32) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(epoll) => epoll.deregister(fd),
            PollerImpl::Scan(_) => {
                let _ = fd;
            }
        }
    }

    /// Blocks until readiness, a wake, or a backend-chosen timeout.
    ///
    /// * epoll: fills `events` and returns [`WaitOutcome::Ready`]. The
    ///   wait is bounded (100 ms) so callers can observe shutdown flags
    ///   even without a waker.
    /// * scan: sleeps per `backoff`'s schedule (interruptible by the
    ///   [`Waker`]) and returns [`WaitOutcome::ScanAll`].
    ///
    /// The caller drives `backoff`: [`IdleBackoff::reset`] after a pass
    /// with progress, [`IdleBackoff::note_idle`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures (`EINTR` is retried inside).
    pub fn wait(&self, events: &mut Vec<Event>, backoff: &IdleBackoff) -> io::Result<WaitOutcome> {
        events.clear();
        match &self.inner {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll(epoll) => {
                epoll.wait(events, Duration::from_millis(100))?;
                Ok(WaitOutcome::Ready)
            }
            PollerImpl::Scan(signal) => {
                match backoff.current_delay() {
                    // Spin stage: yield so co-runners (workers, clients
                    // on the same box) get the core, but come right back.
                    None => {
                        if !signal.take() {
                            std::thread::yield_now();
                        }
                    }
                    Some(delay) => signal.wait(delay),
                }
                Ok(WaitOutcome::ScanAll)
            }
        }
    }
}

/// Raw Linux epoll/eventfd bindings.
///
/// # Safety policy
///
/// This module is the crate's single unsafe exception (see `lib.rs`):
/// every `unsafe` block is a direct FFI call into libc symbols that the
/// std runtime already links and uses, with arguments built from plain
/// integers and stack buffers whose lifetimes trivially cover the call.
/// File descriptors are owned by the wrapping structs and closed exactly
/// once, in `Drop`.
#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;

    // Values from the Linux UAPI headers; stable ABI.
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event`. Packed on x86-64 (the kernel ABI quirk the
    /// glibc headers encode as `__EPOLL_PACKED`), naturally aligned
    /// elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// An owned eventfd used as the epoll wake channel.
    ///
    /// Every `signal` writes the eventfd unconditionally: the kernel
    /// counter coalesces concurrent wakes by itself, and any userspace
    /// "already armed" fast path opens a race where a signal landing
    /// between a drain's flag-reset and its `read` is swallowed —
    /// permanently suppressing all future wakes.
    #[derive(Debug)]
    pub(super) struct EventFd {
        fd: i32,
    }

    impl EventFd {
        fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers.
            let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(EventFd { fd })
        }

        pub(super) fn signal(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a stack value that outlives
            // the call. A full counter (EAGAIN) still means a wake is
            // pending, which is the goal.
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        fn drain(&self) {
            let mut counter = [0u8; 8];
            // SAFETY: reads at most 8 bytes into a stack buffer that
            // outlives the call; the fd is non-blocking. One read
            // consumes the whole counter (all coalesced wakes).
            let _ = unsafe { read(self.fd, counter.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: this struct owns the fd and drops exactly once.
            unsafe { close(self.fd) };
        }
    }

    /// Token reserved for the internal wake eventfd.
    const WAKER_DATA: u64 = u64::MAX;

    /// The epoll backend: one epoll instance plus its wake eventfd.
    #[derive(Debug)]
    pub(super) struct EpollPoller {
        epfd: i32,
        eventfd: Arc<EventFd>,
    }

    impl EpollPoller {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers.
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let poller = EpollPoller {
                epfd,
                eventfd: Arc::new(EventFd::new().inspect_err(|_| {
                    // SAFETY: epfd was just created and is owned here.
                    unsafe { close(epfd) };
                })?),
            };
            poller.ctl(EPOLL_CTL_ADD, poller.eventfd.fd, EPOLLIN, WAKER_DATA)?;
            Ok(poller)
        }

        pub(super) fn eventfd(&self) -> Arc<EventFd> {
            Arc::clone(&self.eventfd)
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data };
            // SAFETY: `event` is a live stack value for the duration of
            // the call; epoll_ctl copies it before returning.
            check(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) })?;
            Ok(())
        }

        pub(super) fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest_bits(interest), token)
        }

        pub(super) fn modify(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest_bits(interest), token)
        }

        pub(super) fn deregister(&self, fd: i32) {
            // Best effort: a close() already removed the fd from the
            // interest set, making ENOENT here normal.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        pub(super) fn wait(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; 256];
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let ready = loop {
                // SAFETY: the buffer is a live stack array; the kernel
                // writes at most `maxevents` entries into it.
                let ret = unsafe {
                    epoll_wait(
                        self.epfd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if ret >= 0 {
                    break ret as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for event in &events[..ready] {
                let bits = event.events;
                if event.data == WAKER_DATA {
                    self.eventfd.drain();
                    continue;
                }
                out.push(Event {
                    token: event.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: this struct owns the epoll fd and drops it once
            // (the eventfd closes itself via its own Drop).
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn backoff_schedule_spins_then_sleeps_then_caps() {
        let max = Duration::from_millis(2);
        let mut backoff = IdleBackoff::new(max);
        assert_eq!(backoff.current_delay(), None, "fresh backoff spins");
        for _ in 0..SPIN_PASSES {
            backoff.note_idle();
        }
        assert_eq!(backoff.current_delay(), Some(SHORT_SLEEP));
        // However long the gateway idles, no single sleep exceeds the
        // cap — the bounded-wakeup-latency witness.
        for _ in 0..100_000 {
            backoff.note_idle();
            assert!(backoff.current_delay().expect("sleeping stage") <= max);
        }
        assert_eq!(backoff.current_delay(), Some(max));
        backoff.reset();
        assert_eq!(backoff.current_delay(), None);
        assert_eq!(backoff.consecutive_idle(), 0);
    }

    #[test]
    fn scan_waker_cuts_a_long_sleep_short() {
        let poller = Poller::new(PollerChoice::Scan).unwrap();
        assert_eq!(poller.backend(), PollerBackend::Scan);
        let waker = poller.waker();

        // Drive the backoff deep into the long-sleep stage.
        let mut backoff = IdleBackoff::new(Duration::from_millis(500));
        for _ in 0..100_000 {
            backoff.note_idle();
        }
        assert_eq!(backoff.current_delay(), Some(Duration::from_millis(500)));

        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        let outcome = poller.wait(&mut events, &backoff).unwrap();
        let elapsed = start.elapsed();
        handle.join().unwrap();
        assert_eq!(outcome, WaitOutcome::ScanAll);
        assert!(
            elapsed < Duration::from_millis(250),
            "a wake must interrupt the 500ms sleep, waited {elapsed:?}"
        );
    }

    #[test]
    fn scan_wake_before_wait_returns_immediately() {
        let poller = Poller::new(PollerChoice::Scan).unwrap();
        poller.waker().wake();
        let mut backoff = IdleBackoff::new(Duration::from_millis(500));
        for _ in 0..100_000 {
            backoff.note_idle();
        }
        let start = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, &backoff).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "a pending wake must not sleep"
        );
    }

    #[cfg(target_os = "linux")]
    mod epoll {
        use super::super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        use std::time::Instant;

        #[test]
        fn auto_selects_epoll_on_linux() {
            let poller = Poller::new(PollerChoice::Auto).unwrap();
            assert_eq!(poller.backend(), PollerBackend::Epoll);
            let poller = Poller::new(PollerChoice::Epoll).unwrap();
            assert_eq!(poller.backend(), PollerBackend::Epoll);
        }

        #[test]
        fn epoll_reports_readable_sockets_by_token() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let poller = Poller::new(PollerChoice::Epoll).unwrap();
            poller
                .register(server.as_raw_fd(), 42, Interest::READ)
                .unwrap();

            client.write_all(b"ping").unwrap();
            let mut events = Vec::new();
            let backoff = IdleBackoff::new(Duration::from_millis(1));
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                assert_eq!(
                    poller.wait(&mut events, &backoff).unwrap(),
                    WaitOutcome::Ready
                );
                if !events.is_empty() {
                    break;
                }
                assert!(Instant::now() < deadline, "socket readiness never arrived");
            }
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);
        }

        #[test]
        fn epoll_write_interest_toggles() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            let _ = client;

            let poller = Poller::new(PollerChoice::Epoll).unwrap();
            poller
                .register(server.as_raw_fd(), 7, Interest::READ)
                .unwrap();
            // An idle read-only socket yields no events.
            let mut events = Vec::new();
            let backoff = IdleBackoff::new(Duration::from_millis(1));
            poller.wait(&mut events, &backoff).unwrap();
            assert!(events.is_empty());
            // Adding write interest on an empty send buffer fires at once.
            poller
                .modify(
                    server.as_raw_fd(),
                    7,
                    Interest {
                        readable: true,
                        writable: true,
                    },
                )
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                poller.wait(&mut events, &backoff).unwrap();
                if events.iter().any(|e| e.token == 7 && e.writable) {
                    break;
                }
                assert!(Instant::now() < deadline, "writability never reported");
            }
            poller.deregister(server.as_raw_fd());
        }

        #[test]
        fn epoll_waker_wakes_a_blocked_wait() {
            let poller = Poller::new(PollerChoice::Epoll).unwrap();
            let waker = poller.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                waker.wake();
            });
            // Nothing registered: only the waker can end this wait early
            // (the built-in 100ms timeout is the fallback).
            let start = Instant::now();
            let mut events = Vec::new();
            let backoff = IdleBackoff::new(Duration::from_millis(1));
            poller.wait(&mut events, &backoff).unwrap();
            handle.join().unwrap();
            assert!(events.is_empty(), "the waker is internal, not an event");
            assert!(start.elapsed() < Duration::from_millis(95));
        }
    }
}
