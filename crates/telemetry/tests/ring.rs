//! Event-ring test suites: overwrite-oldest semantics against a
//! reference model, drain-while-writing under a racing producer, and
//! exact accounting across interleaved drains.

use abs_telemetry::{Event, EventKind, EventRing};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reference model: an unbounded queue truncated to capacity from the
/// front (overwrite-oldest).
struct ModelRing {
    capacity: usize,
    queue: VecDeque<Event>,
    written: u64,
    overwritten: u64,
}

impl ModelRing {
    fn new(capacity: usize) -> Self {
        ModelRing {
            capacity,
            queue: VecDeque::new(),
            written: 0,
            overwritten: 0,
        }
    }

    fn record(&mut self, e: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.overwritten += 1;
        }
        self.queue.push_back(e);
        self.written += 1;
    }

    fn drain(&mut self) -> Vec<Event> {
        self.queue.drain(..).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any single-threaded record/drain interleaving matches the
    /// reference model exactly: same events, same order, same counters.
    #[test]
    fn matches_reference_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec(0u64..50, 0..120),
    ) {
        let ring = EventRing::with_capacity(capacity);
        let mut model = ModelRing::new(capacity);
        for &op in &ops {
            if op % 7 == 0 {
                // Drain: contents and cumulative counters must agree.
                let d = ring.drain();
                prop_assert_eq!(&d.events, &model.drain());
                prop_assert_eq!(d.written, model.written);
                prop_assert_eq!(d.overwritten, model.overwritten);
            } else {
                let e = Event::straight_walk(op);
                ring.record(e);
                model.record(e);
            }
        }
        let d = ring.drain();
        prop_assert_eq!(&d.events, &model.drain());
        prop_assert_eq!(d.written, model.written);
        prop_assert_eq!(d.overwritten, model.overwritten);
        // Exact accounting after the final drain: nothing buffered.
        prop_assert_eq!(ring.stats().buffered, 0);
    }

    /// The ring never yields more than `capacity` events per drain and
    /// never loses an event silently: written = drained + overwritten
    /// + buffered at every drain boundary.
    #[test]
    fn accounting_is_exact_across_drains(
        capacity in 1usize..6,
        batches in proptest::collection::vec(0usize..12, 1..20),
    ) {
        let ring = EventRing::with_capacity(capacity);
        let mut drained_total = 0u64;
        let mut recorded = 0u64;
        for (b, &k) in batches.iter().enumerate() {
            for i in 0..k {
                ring.record(Event::window_switch((b * 100 + i) as u64));
                recorded += 1;
            }
            let d = ring.drain();
            prop_assert!(d.events.len() <= capacity);
            drained_total += d.events.len() as u64;
            prop_assert_eq!(d.written, recorded);
            prop_assert_eq!(d.written, drained_total + d.overwritten);
        }
    }
}

/// A racing producer records continuously while the consumer drains:
/// no event is double-counted and none vanish — the union of all
/// drains plus the overwrite counter accounts for every write, and
/// payloads arrive in strictly increasing order within and across
/// drains (single producer, FIFO ring).
#[test]
fn drain_while_writing_racing_producer() {
    let ring = EventRing::with_capacity(64);
    let stop = AtomicBool::new(false);
    let produced = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                ring.record(Event::straight_walk(i));
                i += 1;
            }
            i
        });
        // Start draining only once the producer has written, so the
        // drains below race a live writer even when the scheduler runs
        // this thread first (a 2000-drain loop can finish before the
        // producer is ever scheduled on one core).
        let deadline = Instant::now() + Duration::from_secs(60);
        while ring.stats().written == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut drained: Vec<Event> = Vec::new();
        for _ in 0..2000 {
            drained.extend(ring.drain().events);
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Release);
        let produced = producer.join().expect("producer panicked");
        drained.extend(ring.drain().events);

        // Payloads strictly increase across the concatenated drains.
        for w in drained.windows(2) {
            assert!(w[0].value < w[1].value, "out-of-order drain");
        }
        assert!(drained.iter().all(|e| e.kind == EventKind::StraightWalk));

        // Exact accounting: every write is drained or counted as
        // overwritten; nothing is left after the final drain.
        let stats = ring.stats();
        assert_eq!(stats.written, produced);
        assert_eq!(stats.buffered, 0);
        assert_eq!(stats.written, drained.len() as u64 + stats.overwritten);
        produced
    });
    assert!(produced > 0, "producer never wrote within the deadline");
}
