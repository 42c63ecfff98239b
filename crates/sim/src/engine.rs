//! The discrete-event execution loop.
//!
//! [`Engine`] owns the simulated clock and the pending-event set; the caller
//! owns the world state `S`. An event is a plain function
//! `fn(&mut S, &mut Engine<S>, u64, u64)` plus two integer payload words,
//! so a handler can mutate the world *and* schedule follow-up events, and
//! scheduling allocates nothing. Execution is strictly ordered by `(time,
//! insertion order)` — see [`crate::queue::EventQueue`] — which makes every
//! run deterministic.
//!
//! # Examples
//!
//! ```
//! use iotse_sim::engine::Engine;
//! use iotse_sim::time::{SimDuration, SimTime};
//!
//! // World state: a counter.
//! let mut hits = 0u32;
//! let mut engine = Engine::new();
//!
//! // A self-rescheduling periodic event.
//! fn tick(hits: &mut u32, engine: &mut Engine<u32>, _: u64, _: u64) {
//!     *hits += 1;
//!     if *hits < 5 {
//!         let next = engine.now() + SimDuration::from_millis(10);
//!         engine.schedule_call(next, "tick", tick, 0, 0);
//!     }
//! }
//! engine.schedule_call(SimTime::ZERO, "tick", tick, 0, 0);
//! engine.run(&mut hits);
//!
//! assert_eq!(hits, 5);
//! assert_eq!(engine.now(), SimTime::from_millis(40));
//! ```

use crate::queue::EventQueue;
use crate::time::SimTime;

/// An event handler: a plain function carrying two integer arguments, so
/// events live inline in the queue with no per-event heap traffic (see
/// [`Engine::schedule_call`]).
pub type CallFn<S> = fn(&mut S, &mut Engine<S>, u64, u64);

/// A pending event. The schedule-time label is not stored: the executor
/// keeps a whole run's ticks pending at once, and 16 label bytes on every
/// 64-byte queue node were a quarter of the engine's memory.
struct Event<S> {
    f: CallFn<S>,
    a: u64,
    b: u64,
}

/// The discrete-event engine: clock plus pending-event set.
///
/// See the [module documentation](self) for an end-to-end example.
#[derive(Debug)]
pub struct Engine<S> {
    now: SimTime,
    queue: EventQueue<Event<S>>,
    executed: u64,
}

impl<S> Engine<S> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an engine whose pending-event set has room for `events`
    /// without reallocating — callers that schedule a whole run up front
    /// (the executor schedules every tick of every window) avoid the
    /// queue's doubling regrowth.
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(events),
            executed: 0,
        }
    }

    /// The current simulated instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `f(state, engine, a, b)` at the absolute instant `time`.
    /// The `label` names the event in the panic message below. Nothing is
    /// allocated: the handler and its arguments live inline in the event
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Engine::now`] — simulated time
    /// never runs backwards.
    // iotse-lint: hot-path
    pub fn schedule_call(
        &mut self,
        time: SimTime,
        label: &'static str,
        f: CallFn<S>,
        a: u64,
        b: u64,
    ) {
        assert!(
            time >= self.now,
            "cannot schedule {label:?} at {time} which is before now ({})",
            self.now
        );
        self.queue.push(time, Event { f, a, b });
    }

    /// Schedules a whole batch of events in one call, reserving queue
    /// capacity up front (via [`crate::queue::EventQueue::push_batch`]) so
    /// a dense warm-up schedule — the executor schedules every tick of
    /// every window before the run starts — never regrows the queue
    /// mid-loop. Firing order is identical to calling
    /// [`Engine::schedule_call`] once per `(time, a, b)` tuple in iteration
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any time is earlier than [`Engine::now`].
    // iotse-lint: hot-path
    pub fn schedule_call_batch(
        &mut self,
        label: &'static str,
        f: CallFn<S>,
        calls: impl IntoIterator<Item = (SimTime, u64, u64)>,
    ) {
        let now = self.now;
        self.queue.push_batch(calls.into_iter().map(|(time, a, b)| {
            assert!(
                time >= now,
                "cannot schedule {label:?} at {time} which is before now ({now})"
            );
            (time, Event { f, a, b })
        }));
    }

    /// Runs until the pending-event set drains.
    ///
    /// Same-tick entries are batch-drained: the loop peeks the frontier
    /// time once per tick and then pops with
    /// [`crate::queue::EventQueue::pop_at`] until the tick is exhausted —
    /// one slot visit fires the whole tick instead of a peek/pop pair per
    /// event. Events a handler schedules *at the current tick* join the
    /// same drain (they get higher seqs, so they fire after everything
    /// already pending at that tick), which is exactly the order a
    /// pop-per-event loop produces.
    // iotse-lint: hot-path
    pub fn run(&mut self, state: &mut S) {
        while let Some(t) = self.queue.peek_time() {
            debug_assert!(t >= self.now);
            self.now = t;
            while let Some(scheduled) = self.queue.pop_at(t) {
                self.executed += 1;
                let Event { f, a, b } = scheduled.item;
                f(state, self, a, b);
            }
        }
    }
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    type Log = Vec<(u64, u64)>;

    /// Logs `(now in ms, a)`.
    fn log_at(log: &mut Log, e: &mut Engine<Log>, a: u64, _: u64) {
        log.push((e.now().as_millis(), a));
    }

    fn noop(_: &mut (), _: &mut Engine<()>, _: u64, _: u64) {}

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut log = Log::new();
        let mut engine = Engine::new();
        engine.schedule_call(SimTime::from_millis(2), "b", log_at, 2, 0);
        engine.schedule_call(SimTime::from_millis(1), "a", log_at, 1, 0);
        engine.run(&mut log);
        assert_eq!(log, vec![(1, 1), (2, 2)]);
        assert_eq!(engine.events_executed(), 2);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        fn add(total: &mut u64, _: &mut Engine<u64>, n: u64, _: u64) {
            *total += n;
        }
        fn first(total: &mut u64, e: &mut Engine<u64>, _: u64, _: u64) {
            *total += 1;
            e.schedule_call(e.now() + SimDuration::from_millis(1), "add", add, 10, 0);
        }
        let mut total = 0u64;
        let mut engine = Engine::new();
        engine.schedule_call(SimTime::from_millis(1), "first", first, 0, 0);
        engine.run(&mut total);
        assert_eq!(total, 11);
        assert_eq!(engine.now(), SimTime::from_millis(2));
    }

    #[test]
    fn handlers_can_schedule_on_the_current_tick() {
        // A follow-up at `now` joins the same-tick drain, after everything
        // already pending at that tick.
        fn spawn(log: &mut Log, e: &mut Engine<Log>, a: u64, _: u64) {
            log.push((e.now().as_millis(), a));
            if a == 1 {
                e.schedule_call(e.now(), "spawned", log_at, 3, 0);
            }
        }
        let mut log = Log::new();
        let mut engine = Engine::new();
        engine.schedule_call(SimTime::from_millis(4), "first", spawn, 1, 0);
        engine.schedule_call(SimTime::from_millis(4), "second", spawn, 2, 0);
        engine.schedule_call(SimTime::from_millis(5), "later", spawn, 4, 0);
        engine.run(&mut log);
        assert_eq!(log, vec![(4, 1), (4, 2), (4, 3), (5, 4)]);
        assert_eq!(engine.events_executed(), 4);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_call(SimTime::from_millis(5), "early", noop, 0, 0);
        engine.run(&mut ());
        engine.schedule_call(SimTime::from_millis(1), "late", noop, 0, 0);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut log = Log::new();
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule_call(SimTime::from_millis(3), "tie", log_at, i, 0);
        }
        engine.run(&mut log);
        assert_eq!(log, (0..10).map(|i| (3, i)).collect::<Vec<_>>());
    }

    #[test]
    fn events_are_compact() {
        // A handler and two payload words, with the handler's non-null
        // niche absorbing the queue node's vacancy `Option`.
        assert_eq!(std::mem::size_of::<Event<()>>(), 24);
        assert_eq!(std::mem::size_of::<Option<Event<()>>>(), 24);
    }

    #[test]
    fn run_on_an_empty_engine_is_a_no_op() {
        let mut engine: Engine<()> = Engine::new();
        engine.run(&mut ());
        assert_eq!(engine.events_executed(), 0);
        assert_eq!(engine.now(), SimTime::ZERO);
    }

    #[test]
    fn calls_carry_both_payload_words() {
        fn push(log: &mut Log, e: &mut Engine<Log>, a: u64, b: u64) {
            let now = e.now().as_millis();
            log.push((now * 100 + a, b));
        }
        let mut log = Log::new();
        let mut engine = Engine::with_capacity(4);
        engine.schedule_call(SimTime::from_millis(2), "call", push, 1, 10);
        engine.schedule_call(SimTime::from_millis(2), "call", push, 3, 30);
        engine.schedule_call(SimTime::from_millis(1), "call", push, 2, 20);
        engine.run(&mut log);
        // Time order first, then insertion order at the same instant.
        assert_eq!(log, vec![(102, 20), (201, 10), (203, 30)]);
        assert_eq!(engine.events_executed(), 3);
    }

    #[test]
    fn scheduled_calls_can_reschedule_themselves() {
        fn tick(count: &mut u64, e: &mut Engine<u64>, n: u64, _: u64) {
            *count += n;
            if n < 4 {
                e.schedule_call(
                    e.now() + SimDuration::from_millis(1),
                    "tick",
                    tick,
                    n + 1,
                    0,
                );
            }
        }
        let mut count = 0u64;
        let mut engine = Engine::new();
        engine.schedule_call(SimTime::ZERO, "tick", tick, 1, 0);
        engine.run(&mut count);
        assert_eq!(count, 1 + 2 + 3 + 4);
        assert_eq!(engine.now(), SimTime::from_millis(3));
    }

    #[test]
    fn batched_calls_match_a_schedule_loop() {
        fn push(log: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, a: u64, _: u64) {
            log.push(a);
        }
        let ticks = |_| (0..20u64).map(|i| (SimTime::from_millis(i % 5), i, 0));
        let mut batched: Vec<u64> = Vec::new();
        let mut engine = Engine::with_capacity(20);
        engine.schedule_call_batch("tick", push, ticks(()));
        engine.run(&mut batched);
        let mut looped: Vec<u64> = Vec::new();
        let mut reference = Engine::with_capacity(20);
        for (t, a, b) in ticks(()) {
            reference.schedule_call(t, "tick", push, a, b);
        }
        reference.run(&mut looped);
        assert_eq!(batched, looped);
        assert_eq!(engine.events_executed(), 20);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn batch_scheduling_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_call(SimTime::from_millis(5), "early", noop, 0, 0);
        engine.run(&mut ());
        engine.schedule_call_batch("late", noop, [(SimTime::from_millis(1), 0u64, 0u64)]);
    }
}
