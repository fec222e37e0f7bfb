//! Property-based tests for the simulation engine: histogram accuracy
//! against exact percentiles, link conservation laws, calendar
//! ordering, and counter-tree group sums against a plain snapshot scan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use fld_sim::counters::CounterTree;
use fld_sim::link::{Link, TokenBucket};
use fld_sim::queue::EventQueue;
use fld_sim::stats::Histogram;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

/// One step of the differential calendar exercise. Delays are relative to
/// each calendar's own notion of "now", so the wheel and the reference
/// model see identical inputs.
#[derive(Debug, Clone)]
enum CalOp {
    /// Schedule a single event `delay_ps` past the current time.
    Schedule { delay_ps: u64 },
    /// Schedule `n` events at the *same* timestamp — the FIFO-within-a-
    /// tick case the engine's replay determinism depends on.
    Burst { delay_ps: u64, n: u8 },
    /// Pop up to `n` events, rescheduling every other popped event a
    /// little into the future (the engine's schedule-during-pop pattern).
    PopReschedule { n: u8 },
    /// Schedule past the wheel's 2^39 ps span so the overflow map and
    /// its epoch migration path are exercised.
    Far { delay_ps: u64 },
}

fn cal_op() -> impl Strategy<Value = CalOp> {
    // The vendored prop_oneof! is unweighted; duplicate arms bias the mix
    // toward schedules and pops, with overflow schedules rarest.
    prop_oneof![
        (0u64..100_000).prop_map(|delay_ps| CalOp::Schedule { delay_ps }),
        (0u64..100_000).prop_map(|delay_ps| CalOp::Schedule { delay_ps }),
        (0u64..100_000).prop_map(|delay_ps| CalOp::Schedule { delay_ps }),
        ((0u64..10_000), 2u8..8).prop_map(|(delay_ps, n)| CalOp::Burst { delay_ps, n }),
        ((0u64..10_000), 2u8..8).prop_map(|(delay_ps, n)| CalOp::Burst { delay_ps, n }),
        (1u8..16).prop_map(|n| CalOp::PopReschedule { n }),
        (1u8..16).prop_map(|n| CalOp::PopReschedule { n }),
        ((1u64 << 39)..(1u64 << 41)).prop_map(|delay_ps| CalOp::Far { delay_ps }),
    ]
}

/// The calendar surface the differential exercise drives: absolute
/// picosecond instants, `u32` ids handed out in insertion order.
trait Calendar {
    fn now_ps(&self) -> u64;
    fn schedule_at(&mut self, at_ps: u64, id: u32);
    fn pop(&mut self) -> Option<(u64, u32)>;
}

impl Calendar for EventQueue<u32> {
    fn now_ps(&self) -> u64 {
        self.now().as_picos()
    }
    fn schedule_at(&mut self, at_ps: u64, id: u32) {
        EventQueue::schedule_at(self, SimTime::from_picos(at_ps), id);
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        EventQueue::pop(self).map(|(t, id)| (t.as_picos(), id))
    }
}

/// Reference calendar: a min-heap on `(time_ps, id)` with its own clock.
/// Ids grow in insertion order, so `id` is the insertion-sequence
/// tie-break, and a past instant clamps to `now` like the real queue.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    now_ps: u64,
}

impl Calendar for HeapModel {
    fn now_ps(&self) -> u64 {
        self.now_ps
    }
    fn schedule_at(&mut self, at_ps: u64, id: u32) {
        self.heap.push(Reverse((at_ps.max(self.now_ps), id)));
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((t, id)) = self.heap.pop()?;
        self.now_ps = t;
        Some((t, id))
    }
}

/// Replays `ops` against one calendar, returning the full popped trace.
fn run_calendar(mut q: impl Calendar, ops: &[CalOp]) -> Vec<(u64, u32)> {
    let mut next_id = 0u32;
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            CalOp::Schedule { delay_ps } | CalOp::Far { delay_ps } => {
                q.schedule_at(q.now_ps() + delay_ps, next_id);
                next_id += 1;
            }
            CalOp::Burst { delay_ps, n } => {
                let at = q.now_ps() + delay_ps;
                for _ in 0..n {
                    q.schedule_at(at, next_id);
                    next_id += 1;
                }
            }
            CalOp::PopReschedule { n } => {
                for i in 0..n {
                    let Some(popped) = q.pop() else { break };
                    trace.push(popped);
                    if i % 2 == 1 {
                        q.schedule_at(q.now_ps() + 517 * (i as u64 + 1), next_id);
                        next_id += 1;
                    }
                }
            }
        }
    }
    while let Some(popped) = q.pop() {
        trace.push(popped);
    }
    trace
}

/// Counter paths for the group-cache exercise: nested groups, a sibling
/// sharing a string prefix (`port/0` vs `port/01`), a path equal to a
/// queried prefix, and one family leaf under several entities.
const COUNTER_PATHS: [&str; 10] = [
    "port/0/rx/packets",
    "port/0/queue/1/tx/packets",
    "port/0/queue/1/tx/drops",
    "port/0/queue/7/tx/packets",
    "port/01/queue/0/tx/packets",
    "port/0",
    "port/1/rx/packets",
    "faults/fld/drop",
    "faults/accel/drop",
    "faults/fld/pcie_timeout",
];
const COUNTER_PREFIXES: [&str; 9] = [
    "port",
    "port/0",
    "port/01",
    "port/0/queue",
    "port/0/queue/1",
    "port/0/rx/packets",
    "faults",
    "por",
    "zzz",
];
const COUNTER_LEAVES: [&str; 5] = ["packets", "drops", "drop", "pcie_timeout", "tx"];

/// One step of the counter-tree exercise; indices select from the
/// tables above.
#[derive(Debug, Clone)]
enum CtrOp {
    /// Resolve (registering on first use) a path's handle.
    Register(usize),
    /// Add through a path's handle, resolving it first.
    Add(usize, u64),
    /// Compare `sum_prefix` against the snapshot scan.
    SumPrefix(usize),
    /// Compare `sum_leaf` against the snapshot scan.
    SumLeaf(usize, usize),
}

fn ctr_op() -> impl Strategy<Value = CtrOp> {
    prop_oneof![
        (0..COUNTER_PATHS.len()).prop_map(CtrOp::Register),
        (0..COUNTER_PATHS.len(), 1u64..1000).prop_map(|(p, n)| CtrOp::Add(p, n)),
        (0..COUNTER_PREFIXES.len()).prop_map(CtrOp::SumPrefix),
        (0..COUNTER_PREFIXES.len(), 0..COUNTER_LEAVES.len())
            .prop_map(|(p, l)| CtrOp::SumLeaf(p, l)),
    ]
}

/// The reference: a plain scan of a fresh snapshot.
fn scan_sum(tree: &CounterTree, prefix: &str, leaf: Option<&str>) -> u64 {
    let below = format!("{prefix}/");
    tree.snapshot()
        .entries()
        .iter()
        .filter(|(path, _)| *path == prefix || path.starts_with(&below))
        .filter(|(path, _)| leaf.is_none_or(|l| path.ends_with(&format!("/{l}"))))
        .map(|(_, v)| *v)
        .sum()
}

proptest! {
    /// Cached group sums equal a plain snapshot scan under arbitrary
    /// interleavings of registration, increments and queries — including
    /// paths registered under a prefix that was already summed.
    #[test]
    fn cached_counter_sums_match_snapshot_scan(
        ops in proptest::collection::vec(ctr_op(), 1..120)
    ) {
        let tree = CounterTree::new();
        for op in ops {
            match op {
                CtrOp::Register(p) => {
                    tree.counter(COUNTER_PATHS[p]);
                }
                CtrOp::Add(p, n) => tree.counter(COUNTER_PATHS[p]).add(n),
                CtrOp::SumPrefix(p) => {
                    let prefix = COUNTER_PREFIXES[p];
                    prop_assert_eq!(
                        tree.sum_prefix(prefix),
                        scan_sum(&tree, prefix, None),
                        "sum_prefix({})", prefix
                    );
                }
                CtrOp::SumLeaf(p, l) => {
                    let (prefix, leaf) = (COUNTER_PREFIXES[p], COUNTER_LEAVES[l]);
                    prop_assert_eq!(
                        tree.sum_leaf(prefix, leaf),
                        scan_sum(&tree, prefix, Some(leaf)),
                        "sum_leaf({}, {})", prefix, leaf
                    );
                }
            }
        }
    }

    /// Histogram percentiles stay within the configured relative error of
    /// exact order statistics.
    #[test]
    fn histogram_accuracy(values in proptest::collection::vec(1u64..1_000_000, 10..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = sorted[rank.min(sorted.len() - 1)] as f64;
            let approx = h.percentile(p) as f64;
            // 1/64 bucket precision plus one bucket of rank slack.
            prop_assert!(
                (approx - exact).abs() <= exact * 0.05 + 2.0,
                "p{p}: approx {approx} exact {exact}"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    /// A link serializes: total occupancy equals the sum of serialization
    /// times, and arrivals are monotone for monotone sends.
    #[test]
    fn link_conservation(sizes in proptest::collection::vec(64u64..10_000, 1..100),
                         gap_ns in 0u64..1000) {
        let bw = Bandwidth::gbps(10.0);
        let mut link = Link::new(bw, SimDuration::from_nanos(100));
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for &s in &sizes {
            let arrival = link.transmit(now, s);
            prop_assert!(arrival >= last_arrival, "reordering");
            // Arrival must be at least serialization + propagation.
            prop_assert!(arrival >= now + bw.time_for_bytes(s) + SimDuration::from_nanos(100));
            last_arrival = arrival;
            now += SimDuration::from_nanos(gap_ns);
        }
        let total_bytes: u64 = sizes.iter().sum();
        prop_assert_eq!(link.bytes_sent(), total_bytes);
        // The last arrival can never beat perfect pipelining.
        let lower = bw.time_for_bytes(total_bytes);
        prop_assert!(last_arrival >= SimTime::ZERO + lower);
    }

    /// A token bucket never admits more than rate*time + burst bytes.
    #[test]
    fn token_bucket_rate_bound(
        sizes in proptest::collection::vec(64u64..2000, 1..200),
        gap_ns in 1u64..2000,
    ) {
        let rate = Bandwidth::gbps(1.0);
        let burst = 4000u64;
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut admitted = 0u64;
        for &s in &sizes {
            if tb.earliest_send(now, s) <= now {
                tb.consume(now, s);
                admitted += s;
            }
            now += SimDuration::from_nanos(gap_ns);
        }
        let max_allowed = (rate.as_bps() * now.as_secs_f64() / 8.0) as u64 + burst + 2000;
        prop_assert!(admitted <= max_allowed, "admitted {admitted} > {max_allowed}");
    }

    /// The event calendar pops in nondecreasing time order regardless of
    /// insertion order.
    #[test]
    fn calendar_orders(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// The timing wheel is observationally identical to a plain binary
    /// heap: identical op sequences — same-tick bursts, schedule-during-
    /// pop, far-future overflow — produce byte-identical pop traces. The
    /// simulated results depend on nothing else about the calendar.
    #[test]
    fn wheel_matches_heap(ops in proptest::collection::vec(cal_op(), 1..120)) {
        let heap = run_calendar(HeapModel::default(), &ops);
        let wheel = run_calendar(EventQueue::<u32>::new(), &ops);
        prop_assert_eq!(heap.len(), wheel.len(), "trace lengths diverge");
        for (i, (h, w)) in heap.iter().zip(wheel.iter()).enumerate() {
            prop_assert_eq!(h, w, "divergence at pop {}", i);
        }
        // (time, insertion-seq) order must hold within each trace too.
        for pair in wheel.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time went backwards");
        }
    }
}
