//! The event calendar: a time-ordered priority queue backed by a
//! hierarchical timing wheel ([`wheel::TimingWheel`]).
//!
//! The wheel pops in exactly `(time, insertion-seq)` order with O(1)
//! pushes and batched slot drains — coincident-timestamp events are
//! sorted once per slot, not sifted one comparison at a time through a
//! half-megabyte heap. A test-local binary-heap model in
//! `tests/proptests.rs` (`wheel_matches_heap`) is the ordering oracle.
//!
//! Event payloads do not live inside the ordering structure. They sit in
//! a slab (`Vec<Option<E>>` plus a free list) and the wheel orders
//! 16-byte [`Slot`] keys — `{time, seq, slab index}` — so pushes and
//! cascades move two words, not a 100+-byte `EngineEv`, and the hot
//! loop allocates nothing once the slab and wheel have warmed up.

use crate::time::{SimDuration, SimTime};

pub mod wheel;

use wheel::TimingWheel;

/// The ordering key the wheel moves around: an event's timestamp in
/// picoseconds, its insertion sequence number (the deterministic
/// tie-break), and the slab index of its payload. 16 bytes — four keys
/// per cache line where the old inline entries spanned two lines each.
/// `seq` is deliberately `u32`: it caps a run at ~4.3 billion events
/// (28× the largest bench sweep), and [`EventQueue::schedule_at`] panics
/// before it can wrap, so the tie-break can never silently reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    pub(crate) time_ps: u64,
    pub(crate) seq: u32,
    pub(crate) idx: u32,
}

impl Slot {
    /// The total order pops follow.
    #[inline]
    pub(crate) fn key(&self) -> (u64, u32) {
        (self.time_ps, self.seq)
    }
}

/// Hints the CPU to pull `value`'s first two cache lines toward L1.
/// Purely a hint: no-op architectures simply skip it.
#[inline(always)]
fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions perform no program-visible memory
    // access and are sound for any address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = value as *const T as *const i8;
        _mm_prefetch(p, _MM_HINT_T0);
        if std::mem::size_of::<T>() > 64 {
            _mm_prefetch(p.wrapping_add(64), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// Raw-address variant of [`prefetch`] for one-past-the-end positions
/// (a `Vec`'s push target) where no reference can be formed. The pointer
/// is only ever a hint operand, never dereferenced, so a dangling
/// pointer (an unallocated empty `Vec`) is fine.
#[inline(always)]
fn prefetch_at<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions perform no program-visible memory
    // access and are sound for any address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A deterministic discrete-event calendar.
///
/// Events of type `E` are scheduled at absolute instants and popped in
/// `(time, insertion-order)` order. The calendar also tracks the current
/// simulation time: popping an event advances `now` to the event's time.
///
/// # Examples
///
/// ```
/// use fld_sim::queue::EventQueue;
/// use fld_sim::time::SimDuration;
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimDuration::from_nanos(10), "b");
/// q.schedule_in(SimDuration::from_nanos(5), "a");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimingWheel,
    /// Payload slab; `Slot::idx` points here. `None` marks a free slot
    /// (its index is on the `free` list).
    events: Vec<Option<E>>,
    free: Vec<u32>,
    now: SimTime,
    next_seq: u32,
    scheduled_total: u64,
    #[cfg(feature = "prof")]
    prof: ProfCounters,
}

/// Self-profiler bookkeeping (see [`crate::prof::CalendarStats`]).
/// `last_pop_ps` uses `u64::MAX` as "no pop yet" — a plain integer
/// compare on the hot path instead of an `Option<SimTime>` unpack.
#[cfg(feature = "prof")]
#[derive(Debug)]
struct ProfCounters {
    pops: u64,
    peak_depth: u64,
    last_pop_ps: u64,
    current_burst: u64,
    max_burst: u64,
    coincident_pops: u64,
}

#[cfg(feature = "prof")]
impl Default for ProfCounters {
    fn default() -> Self {
        ProfCounters {
            pops: 0,
            peak_depth: 0,
            last_pop_ps: u64::MAX,
            current_burst: 0,
            max_burst: 0,
            coincident_pops: 0,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            events: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            #[cfg(feature = "prof")]
            prof: ProfCounters::default(),
        }
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len() - self.free.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for throughput accounting).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// `at` is clamped to the current time: an instant already in the
    /// past (a model bug — this panics in debug builds) delivers at
    /// `now` rather than corrupting the wheel's ordering invariants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when scheduling in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        // A wrapped u32 tie-break would silently reorder same-timestamp
        // events; fail loudly instead (~4.3B events, 28× the largest
        // sweep). The branch is never taken, so it costs nothing.
        assert!(seq != u32::MAX, "event sequence space exhausted");
        self.next_seq += 1;
        self.scheduled_total += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.events[i as usize] = Some(event);
                i
            }
            None => {
                self.events.push(Some(event));
                (self.events.len() - 1) as u32
            }
        };
        self.wheel.push(Slot {
            time_ps: at.as_picos(),
            seq,
            idx,
        });
        #[cfg(feature = "prof")]
        // One relaxed load guards the bookkeeping: the unprofiled timed
        // legs must not pay for attribution they are not recording.
        if crate::prof::enabled() {
            self.prof.peak_depth = self.prof.peak_depth.max(self.len() as u64);
        }
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current time (processed after already-queued
    /// events with the same timestamp).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops the earliest event and advances the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Events pop long after they were pushed, so their slab slots
        // are cold. The wheel hands out prefetch hints a 32-entry chunk
        // at a time from its sorted drain buffer — issuing the whole
        // chunk overlaps the DRAM misses instead of stalling at the top
        // of every loop iteration.
        let slot = self.wheel.pop()?;
        for s in self.wheel.prefetch_hints() {
            if let Some(e) = self.events.get(s.idx as usize) {
                prefetch(e);
            }
        }
        let event = self.events[slot.idx as usize]
            .take()
            .expect("popped key has a live slab entry");
        self.free.push(slot.idx);
        let time = SimTime::from_picos(slot.time_ps);
        self.now = time;
        #[cfg(feature = "prof")]
        if crate::prof::enabled() {
            // Branchless on purpose: ~21% of pops are coincident, so a
            // same-time branch would be genuinely unpredictable — the
            // arithmetic form compiles to cmov/mul and costs the same
            // every pop.
            let same = (self.prof.last_pop_ps == slot.time_ps) as u64;
            self.prof.pops += 1;
            self.prof.coincident_pops += same;
            self.prof.current_burst = self.prof.current_burst * same + 1;
            self.prof.last_pop_ps = slot.time_ps;
            self.prof.max_burst = self.prof.max_burst.max(self.prof.current_burst);
        }
        Some((time, event))
    }

    /// This calendar's behavioral statistics for the self-profiler.
    ///
    /// `pushes` is always populated (it doubles as the throughput
    /// counter); the depth/burst counters require the `prof` feature and
    /// read zero without it. `sample_rearms` is owned by the engine, not
    /// the calendar, and is zero here.
    pub fn calendar_stats(&self) -> crate::prof::CalendarStats {
        #[cfg(feature = "prof")]
        {
            crate::prof::CalendarStats {
                pushes: self.scheduled_total,
                pops: self.prof.pops,
                peak_depth: self.prof.peak_depth,
                coincident_pops: self.prof.coincident_pops,
                max_burst: self.prof.max_burst,
                sample_rearms: 0,
            }
        }
        #[cfg(not(feature = "prof"))]
        crate::prof::CalendarStats {
            pushes: self.scheduled_total,
            ..Default::default()
        }
    }

    /// Time of the earliest pending event, if any.
    ///
    /// Takes `&mut self`: peeking the wheel may advance its internal
    /// cursor to the next occupied slot (a cascade), which never changes
    /// what pops next, only where it is stored.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time().map(SimTime::from_picos)
    }

    /// Drops all pending events (the clock is unchanged).
    ///
    /// Burst tracking (`last_pop` / `current_burst`) resets too: the
    /// first pop after a clear starts a fresh burst even if its
    /// timestamp matches the last pre-clear pop. Cumulative totals
    /// (`pops`, `peak_depth`, `max_burst`, `scheduled_total`) survive.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.events.clear();
        self.free.clear();
        #[cfg(feature = "prof")]
        {
            self.prof.last_pop_ps = u64::MAX;
            self.prof.current_burst = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_in(SimDuration::from_nanos(7), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn schedule_now_runs_at_current_time() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_in(SimDuration::from_nanos(5), 1);
        q.pop();
        q.schedule_now(2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(5));
        assert_eq!(e, 2);
    }

    #[test]
    fn schedule_during_pop_interleaves_correctly() {
        // Events scheduled while draining a coincident burst (the
        // engine's normal mode: every dispatch schedules successors)
        // must slot into the global order, not the end of the slot.
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        q.schedule_at(t + SimDuration::from_picos(1), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Same timestamp as the in-flight burst: runs after "1"
        // (insertion order) but before the later-time "3".
        q.schedule_now(2);
        q.schedule_in(SimDuration::from_nanos(50), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_millis(80), 2); // a level-2 slot
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(80)));
        // Scheduling earlier than the peeked (cascaded) slot still
        // pops first: the peek must not commit the wheel to it.
        q.schedule_in(SimDuration::from_nanos(5), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(15)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn calendar_stats_track_depth_and_bursts() {
        #[cfg(feature = "prof")]
        let _gate = crate::prof::TEST_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "prof")]
        crate::prof::set_enabled(true);
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 0);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(10), 2);
        q.schedule_at(SimTime::from_nanos(20), 3);
        while q.pop().is_some() {}
        let stats = q.calendar_stats();
        assert_eq!(stats.pushes, 4);
        assert_eq!(stats.sample_rearms, 0);
        #[cfg(feature = "prof")]
        {
            assert_eq!(stats.pops, 4);
            assert_eq!(stats.peak_depth, 4);
            // The three t=10 pops form one burst: two beyond its first.
            assert_eq!(stats.coincident_pops, 2);
            assert_eq!(stats.max_burst, 3);
        }
        #[cfg(not(feature = "prof"))]
        assert_eq!(stats.pops, 0);
        #[cfg(feature = "prof")]
        crate::prof::set_enabled(false);
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_now(1);
        q.schedule_now(2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[cfg(feature = "prof")]
    #[test]
    fn clear_resets_burst_tracking() {
        // Regression: `last_pop`/`current_burst` used to survive a
        // clear, so the next run's first pop at the same timestamp was
        // miscounted as a continuation of the previous run's burst.
        let _gate = crate::prof::TEST_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::prof::set_enabled(true);
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        while q.pop().is_some() {}
        assert_eq!(q.calendar_stats().coincident_pops, 1);
        q.clear();
        q.schedule_at(t, 2);
        q.pop();
        let stats = q.calendar_stats();
        assert_eq!(
            stats.coincident_pops, 1,
            "pop after clear must start a fresh burst"
        );
        assert_eq!(stats.max_burst, 2);
        crate::prof::set_enabled(false);
    }

    #[test]
    fn queue_reusable_after_clear() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule_in(SimDuration::from_nanos(10), 1);
        q.schedule_in(SimDuration::from_secs(2), 2); // past the wheel: overflow
        q.clear();
        assert_eq!(q.pop(), None);
        q.schedule_in(SimDuration::from_nanos(3), 7);
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
    }

    #[test]
    fn ordering_keys_stay_cache_line_friendly() {
        // Four slab keys per 64-byte line; the payload stays out of the
        // ordering structure entirely.
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }
}
