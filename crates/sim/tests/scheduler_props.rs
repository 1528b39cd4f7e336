//! Property coverage for the calendar-queue scheduler: against a
//! `BinaryHeap` reference it must pop *identical* `(timestamp, seq)`
//! sequences under arbitrary interleavings — timestamp ties, pushes into
//! the past, ring-span jumps, near-`u64::MAX` saturation, bursts that
//! fill one bucket past what the ring keeps once served — and a whole
//! simulation (including timer set/cancel churn) must produce the same
//! semantic record, event count and end time under either scheduler.

use std::collections::BinaryHeap;

use proptest::prelude::*;

use bft_sim::runner::{Actor, Context};
use bft_sim::{
    CalendarQueue, NetworkConfig, NetworkModel, NodeId, SchedulerKind, SimDuration, SimTime,
    Simulation, TimerId,
};
use bft_types::{TimerKind, WireSize};

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push at an absolute timestamp (`seq` is assigned in script order,
    /// like the simulator's monotone counter).
    Push(u64),
    /// Pop once (ignored when empty).
    Pop,
    /// Push this many entries into the one-bucket window at a timestamp
    /// (bucket width 2^16 ns), in scrambled order with ties: a broadcast
    /// burst larger than the storage a served bucket hands on.
    Burst(u64, u64),
}

/// Map a (regime selector, raw draw) pair onto a timestamp from one of the
/// regimes that stress distinct code paths: dense small values (ties,
/// intra-bucket ordering), bucket-boundary values, multi-ring-span jumps
/// (overflow heap + horizon jumps), and the saturation band near
/// `u64::MAX`.
fn timestamp_of(regime: u64, raw: u64) -> u64 {
    match regime {
        0..=7 => raw % 2_000,
        8..=11 => (raw % 64) * (1 << 16),
        12..=15 => raw % 200_000_000,
        16..=17 => raw % (1u64 << 40),
        _ => u64::MAX - (raw % (1 << 28)),
    }
}

fn timestamp() -> impl Strategy<Value = u64> {
    (0u64..19, any::<u64>()).prop_map(|(regime, raw)| timestamp_of(regime, raw))
}

/// Scripts mix pushes (3:1) with pops, timestamps drawn across regimes;
/// one push in twenty is a burst of 65–264 entries.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u64..4, 0u64..20, any::<u64>()).prop_map(|(kind, regime, raw)| match (kind, regime) {
            (0, _) => Op::Pop,
            (_, 19) => Op::Burst(timestamp_of(raw % 19, raw), 65 + raw % 200),
            _ => Op::Push(timestamp_of(regime, raw)),
        }),
        0..400,
    )
}

proptest! {
    /// The calendar queue and the reference heap pop identical
    /// `(at, seq)` sequences under any interleaving of pushes and pops.
    #[test]
    fn calendar_pops_exactly_like_a_binary_heap(script in ops()) {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        // Max-heap on Reverse == min-heap on (at, seq): the reference
        // order the simulator's `QueuedEvent` heap produces.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |cal: &mut CalendarQueue<u64>, heap: &mut BinaryHeap<_>, at: u64| {
            cal.push(SimTime(at), seq, seq);
            heap.push(std::cmp::Reverse((at, seq)));
            seq += 1;
        };
        for op in script {
            match op {
                Op::Push(at) => push(&mut cal, &mut heap, at),
                Op::Burst(at, n) => {
                    let window = at & !((1 << 16) - 1);
                    for i in 0..n {
                        push(&mut cal, &mut heap, window + (i / 2 * 40_503) % (1 << 15));
                    }
                }
                Op::Pop => {
                    let want = heap.pop().map(|std::cmp::Reverse((at, s))| (at, s));
                    let popped = cal.pop();
                    if let Some((_, s, item)) = popped {
                        prop_assert_eq!(s, item, "payload must travel with its key");
                    }
                    let got = popped.map(|(at, s, _)| (at.0, s));
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(cal.len(), heap.len());
                }
            }
        }
        // Drain whatever is left: the tail must match too.
        while let Some(std::cmp::Reverse((at, s))) = heap.pop() {
            let (got_at, got_seq, _) = cal.pop().expect("calendar ran dry early");
            prop_assert_eq!((got_at.0, got_seq), (at, s));
        }
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.min_key(), None);
    }

    /// Same-timestamp bursts (the broadcast pattern: one virtual instant,
    /// many seqs) must come back in strict seq order.
    #[test]
    fn ties_pop_in_seq_order(at in timestamp(), n in 1usize..200) {
        let mut cal: CalendarQueue<usize> = CalendarQueue::new();
        for i in 0..n {
            cal.push(SimTime(at), i as u64, i);
        }
        for i in 0..n {
            let (got_at, got_seq, item) = cal.pop().expect("entry");
            prop_assert_eq!(got_at.0, at);
            prop_assert_eq!(got_seq, i as u64);
            prop_assert_eq!(item, i);
        }
        prop_assert!(cal.is_empty());
    }
}

/// Message type for the churn simulation below.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
struct Ping(u64);

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        8
    }
}

/// An actor that churns timers: every tick it sets several staggered
/// timers, cancels a pseudo-random subset of the live ones, pings a peer,
/// and lets the rest fire. Exercises the cancelled-timer path (lazily
/// skipped at pop time) through whichever scheduler backs the run.
struct Churn {
    me: u32,
    peers: u32,
    live: Vec<TimerId>,
    ticks: u64,
    fired: u64,
}

impl Churn {
    fn new(me: u32, peers: u32) -> Churn {
        Churn {
            me,
            peers,
            live: Vec::new(),
            ticks: 0,
            fired: 0,
        }
    }
}

impl Actor<Ping> for Churn {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(TimerKind::T7Heartbeat, SimDuration::from_micros(50));
    }

    fn on_message(&mut self, _from: NodeId, msg: &Ping, ctx: &mut Context<'_, Ping>) {
        // Reply-churn: every other delivery sets a short timer that is
        // usually cancelled on the next tick.
        if msg.0.is_multiple_of(2) {
            let id = ctx.set_timer(TimerKind::T1WaitReplies, SimDuration::from_micros(130));
            self.live.push(id);
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, Ping>) {
        self.live.retain(|t| *t != id);
        match kind {
            TimerKind::T7Heartbeat => {
                self.ticks += 1;
                if self.ticks > 40 {
                    return; // wind down; leftover timers fire or are dead
                }
                for k in 0..4u64 {
                    let id = ctx.set_timer(
                        TimerKind::T1WaitReplies,
                        SimDuration::from_micros(60 + 40 * k),
                    );
                    self.live.push(id);
                }
                // deterministic pseudo-random cancel pattern
                let mut keep = Vec::new();
                for (i, t) in self.live.drain(..).enumerate() {
                    if (i as u64 + self.ticks).is_multiple_of(3) {
                        ctx.cancel_timer(t);
                    } else {
                        keep.push(t);
                    }
                }
                self.live = keep;
                ctx.send(
                    NodeId::replica((self.me + 1) % self.peers),
                    Ping(self.ticks),
                );
                ctx.set_timer(TimerKind::T7Heartbeat, SimDuration::from_micros(50));
            }
            _ => self.fired += 1,
        }
    }
}

/// Run the churn rig under one scheduler and capture everything observable:
/// the semantic record (log and metrics), the event count and the end time.
fn churn_fingerprint(kind: SchedulerKind) -> (String, u64, SimTime) {
    let mut sim = Simulation::with_scheduler(NetworkModel::new(NetworkConfig::lan()), 99, kind);
    let peers = 4u32;
    for r in 0..peers {
        sim.add_replica(r, Box::new(Churn::new(r, peers)));
    }
    sim.run(SimTime::ZERO + SimDuration::from_millis(20));
    let out = sim.finish();
    (out.semantic_record(), out.events_processed, out.end_time)
}

/// Heap and calendar schedulers drive timer-cancel churn to identical
/// outcomes.
#[test]
fn cancel_churn_is_scheduler_independent() {
    let heap = churn_fingerprint(SchedulerKind::Heap);
    let calendar = churn_fingerprint(SchedulerKind::Calendar);
    assert_eq!(heap, calendar);
}
