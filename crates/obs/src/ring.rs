//! Bounded event trace ring with overwrite-oldest semantics and
//! per-slot sequence locks.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// One structured trace event, read back from a [`TraceRing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (0 for the first event ever
    /// recorded).
    pub seq: u64,
    /// Coarse tick: milliseconds since the ring was created.
    pub tick_ms: u64,
    /// Event category (layer-level namespace, assigned by the
    /// instrumented crate).
    pub category: u8,
    /// Event code within the category.
    pub code: u16,
    /// First event argument (spans store elapsed microseconds here).
    pub a: u64,
    /// Second event argument.
    pub b: u64,
}

/// One ring slot, guarded by a per-slot sequence lock: `ver` is odd
/// (`2 * seq + 1`) while the writer of global sequence `seq` is
/// mid-store and `2 * seq + 2` once its event is fully written. The
/// version only ever grows: writers claim a slot by compare-and-swap
/// and drop their event when a newer one already owns it. Readers skip
/// on mismatch.
#[derive(Debug)]
struct Slot {
    ver: AtomicU64,
    tick: AtomicU64,
    catcode: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            ver: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            catcode: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s. Recording takes one
/// atomic fetch-add to claim a sequence number, one compare-and-swap to
/// claim the slot, then plain stores, and never allocates. A writer
/// waits only while an older writer (a lap or more behind) is still
/// mid-store on the same slot; a writer that was itself lapped stores
/// nothing. When
/// the ring is full the oldest event is overwritten and the
/// [`TraceRing::dropped`] counter — derived from the same fetch-add,
/// hence exact under any writer concurrency — accounts for it; once
/// writers quiesce, every slot holds the newest event that maps to it.
///
/// Readers ([`TraceRing::snapshot`]) validate each slot's sequence
/// lock and skip events a concurrent writer is mid-overwrite on, so a
/// snapshot is always structurally sound even while the hot path keeps
/// appending.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    mask: u64,
    start: Instant,
}

impl TraceRing {
    /// A ring holding up to `capacity` events (rounded up to a power
    /// of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        TraceRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            mask: (capacity - 1) as u64,
            start: Instant::now(),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (monotonic).
    pub fn appended(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten before they could be read back: exactly
    /// `appended - capacity` once the ring has wrapped, 0 before.
    pub fn dropped(&self) -> u64 {
        self.appended().saturating_sub(self.slots.len() as u64)
    }

    /// Milliseconds since the ring was created (the coarse tick stamped
    /// into events).
    pub fn tick_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records one event; returns its sequence number.
    pub fn record(&self, category: u8, code: u16, a: u64, b: u64) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        self.write(seq, category, code, a, b);
        seq
    }

    /// Stores event `seq` into its slot, unless a newer event got there
    /// first.
    fn write(&self, seq: u64, category: u8, code: u16, a: u64, b: u64) {
        let slot = &self.slots[(seq & self.mask) as usize];
        // Claim the slot's seqlock. A writer preempted after its
        // fetch-add can be lapped: a version at or past ours means a
        // newer event owns the slot, and ours (already counted as
        // dropped) must not move the version backwards. An older odd
        // version is a writer a lap or more behind, mid-store: wait it
        // out.
        let writing = seq * 2 + 1;
        let mut current = slot.ver.load(Ordering::Acquire);
        loop {
            if current >= writing {
                return;
            }
            if current % 2 == 1 {
                std::thread::yield_now();
                current = slot.ver.load(Ordering::Acquire);
                continue;
            }
            match slot.ver.compare_exchange_weak(
                current,
                writing,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        // Orders the odd version before the payload stores, so a reader
        // that sees any of them also sees the slot mid-write.
        fence(Ordering::Release);
        slot.tick.store(self.tick_ms(), Ordering::Relaxed);
        slot.catcode.store(
            (u64::from(category) << 16) | u64::from(code),
            Ordering::Relaxed,
        );
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.ver.store(seq * 2 + 2, Ordering::Release);
    }

    /// Opens a timing span: the returned guard records an event on
    /// drop with elapsed microseconds in `a` and `b` passed through.
    pub fn span(&self, category: u8, code: u16, b: u64) -> TraceSpan<'_> {
        TraceSpan {
            ring: self,
            category,
            code,
            b,
            started: Instant::now(),
        }
    }

    /// The events currently retained, oldest first. Slots a concurrent
    /// writer is mid-overwrite on are skipped (never torn), so the
    /// result can be shorter than [`TraceRing::capacity`] even on a
    /// full ring.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - first) as usize);
        for seq in first..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let want = seq * 2 + 2;
            let v1 = slot.ver.load(Ordering::Acquire);
            if v1 != want {
                // Either mid-write (odd) or already overwritten by a
                // newer event (a later even version): skip.
                continue;
            }
            let event = TraceEvent {
                seq,
                tick_ms: slot.tick.load(Ordering::Relaxed),
                category: (slot.catcode.load(Ordering::Relaxed) >> 16) as u8,
                code: (slot.catcode.load(Ordering::Relaxed) & 0xFFFF) as u16,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            // Pairs with the writer's fence: a payload load that saw a
            // newer writer's store makes this re-check see its version.
            fence(Ordering::Acquire);
            if slot.ver.load(Ordering::Relaxed) == want {
                events.push(event);
            }
        }
        events
    }
}

/// Guard returned by [`TraceRing::span`]; records a timing event when
/// dropped.
#[derive(Debug)]
pub struct TraceSpan<'a> {
    ring: &'a TraceRing,
    category: u8,
    code: u16,
    b: u64,
    started: Instant,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.ring.record(self.category, self.code, elapsed, self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.record(1, 2, i, 0);
        }
        assert_eq!(ring.appended(), 20);
        assert_eq!(ring.dropped(), 12);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().seq, 12);
        assert_eq!(events.last().unwrap().seq, 19);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn a_lapped_writer_never_rolls_its_slot_back() {
        let ring = TraceRing::new(8);
        // A writer claims sequence 0 and stalls before storing it...
        let stalled = ring.head.fetch_add(1, Ordering::Relaxed);
        // ...while the others lap it on the same slot.
        for i in 1..=8u64 {
            ring.record(1, 2, i, 0);
        }
        ring.write(stalled, 1, 2, 0, 0);
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().seq, 1);
        assert_eq!(events.first().unwrap().a, 1);
    }

    #[test]
    fn span_records_elapsed_in_a() {
        let ring = TraceRing::new(8);
        {
            let _span = ring.span(3, 7, 42);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, 3);
        assert_eq!(events[0].code, 7);
        assert_eq!(events[0].b, 42);
    }

    #[test]
    fn empty_ring_snapshot_is_empty() {
        let ring = TraceRing::new(8);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 0);
    }
}
