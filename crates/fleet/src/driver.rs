//! The one scheduler over a [`Rollout`].
//!
//! [`Driver`] decides *when* the machine's requests go out; the machine
//! decides *what* they are. It holds the admission window, the
//! busy-retry heap, the idle deadline (which extends on progress) and
//! each device's push time, all over an injected `now`: no channel, no
//! clock, no lock. Its inputs are replies, busy signals, loss signals
//! and ticks; it returns the requests to push and the next wake time.
//!
//! Two shells drive it. The gateway engine in `eilid_net` carries its
//! requests as frames to device agents, feeds back each burst of
//! replies, and waits on its channel until the next wake time. The
//! in-process [`LocalExecutor`](crate::campaign::LocalExecutor) serves
//! each round of requests on the fleet's worker threads and feeds the
//! replies back in device order; it never waits, so it never ticks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::device::DeviceId;
use crate::rollout::{Next, Reply, Request, Rollout, RolloutKeys};

/// Bounded exponential backoff before re-pushing a request a device
/// shed with "busy" (`attempts` counts from 1).
pub fn busy_backoff(attempts: usize) -> Duration {
    Duration::from_micros(500)
        .saturating_mul(1 << (attempts - 1).min(8) as u32)
        .min(Duration::from_millis(50))
}

/// Schedules one [`Rollout`] until every device retired or the idle
/// deadline passed.
#[derive(Debug)]
pub struct Driver<'r, 'a> {
    rollout: &'r mut Rollout<'a>,
    /// Cap on admitted devices not yet retired.
    window: usize,
    /// Idle ceiling: how far past the last progress the deadline lies.
    idle: Duration,
    deadline: Instant,
    /// Set by the first tick at or past the deadline.
    expired: bool,
    /// Busy sheds waiting out their backoff, earliest first.
    retry_at: BinaryHeap<Reverse<(Instant, DeviceId)>>,
    /// When each slot's current request was pushed.
    pushed_at: Vec<Instant>,
    /// The machine's follow-up requests since the last poll.
    outbox: Vec<Request>,
}

impl<'r, 'a> Driver<'r, 'a> {
    /// Schedules `rollout` with at most `window` devices in flight and
    /// an idle ceiling of `idle` from `now`.
    pub fn new(rollout: &'r mut Rollout<'a>, window: usize, idle: Duration, now: Instant) -> Self {
        Driver {
            pushed_at: vec![now; rollout.devices().len()],
            rollout,
            window,
            idle,
            deadline: now + idle,
            expired: false,
            retry_at: BinaryHeap::new(),
            outbox: Vec::new(),
        }
    }

    /// The machine being driven.
    pub fn rollout(&self) -> &Rollout<'a> {
        self.rollout
    }

    /// `true` once every device retired or the deadline expired the
    /// rest (the machine counts them as lost when it composes its
    /// outcome).
    pub fn is_done(&self) -> bool {
        self.expired || self.rollout.is_done()
    }

    /// Hands `push` the requests due at `now`, in order: the machine's
    /// follow-ups to the replies fed since the last poll, every busy
    /// retry whose backoff ran out, then fresh admissions into free
    /// window slots. `push` returns `false` for a device it cannot
    /// reach, which retires that device on the spot.
    pub fn poll(&mut self, now: Instant, mut push: impl FnMut(Request) -> bool) {
        let mut due = std::mem::take(&mut self.outbox);
        while let Some(&Reverse((when, device))) = self.retry_at.peek() {
            if when > now {
                break;
            }
            self.retry_at.pop();
            if let Some(request) = self.rollout.in_flight(device) {
                due.push(request.clone());
                self.deadline = now + self.idle;
            }
        }
        for request in due {
            let device = request.device();
            if !push(request) {
                self.rollout.lost(device);
            }
        }
        while !self.expired && self.rollout.live() < self.window {
            let Some((slot, request)) = self.rollout.admit() else {
                break;
            };
            self.pushed_at[slot] = now;
            let device = request.device();
            if !push(request) {
                self.rollout.lost(device);
            }
        }
    }

    /// Feeds one device reply through the machine. Returns how long the
    /// request it answered was in flight, or `None` when the machine
    /// ignored it (stale, duplicate, or for a retired device).
    pub fn reply(
        &mut self,
        now: Instant,
        device: DeviceId,
        reply: Reply,
        keys: &mut dyn RolloutKeys,
    ) -> Option<Duration> {
        let slot = self.rollout.slot(device)?;
        let next = self.rollout.reply(slot, reply, keys);
        if next == Next::Ignore {
            return None;
        }
        self.deadline = now + self.idle;
        let in_flight = now.saturating_duration_since(self.pushed_at[slot]);
        if let Next::Push(request) = next {
            self.pushed_at[slot] = now;
            self.outbox.push(request);
        }
        Some(in_flight)
    }

    /// The device shed its request with "busy": re-push it after
    /// [`busy_backoff`], or retire it past the retry budget. Returns
    /// `false` when the device had nothing in flight.
    pub fn busy(&mut self, now: Instant, device: DeviceId) -> bool {
        match self.rollout.busy(device) {
            Next::Retry(attempts) => {
                self.retry_at
                    .push(Reverse((now + busy_backoff(attempts), device)));
                true
            }
            Next::Retired => true,
            _ => false,
        }
    }

    /// The device is unreachable (connection gone, request refused):
    /// retire it. Returns `true` when this retired a live device.
    pub fn lost(&mut self, now: Instant, device: DeviceId) -> bool {
        let retired = self.rollout.lost(device);
        if retired {
            self.deadline = now + self.idle;
        }
        retired
    }

    /// A clock tick. At or past the idle deadline the devices still live
    /// expire. Returns when the shell should tick next — the earliest
    /// due retry or the deadline — or `None` once the driver is done.
    pub fn tick(&mut self, now: Instant) -> Option<Instant> {
        self.expired |= now >= self.deadline;
        if self.is_done() {
            return None;
        }
        let retry = self.retry_at.peek().map(|&Reverse((when, _))| when);
        Some(retry.map_or(self.deadline, |when| when.min(self.deadline)))
    }
}
