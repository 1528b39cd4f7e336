//! The real-time threaded engine: one OS thread per node, real channels,
//! real monotonic clocks.
//!
//! This is the second implementation behind the [`Context`] API. Where the
//! deterministic [`crate::runner::Simulation`] advances a virtual clock and
//! replays a seeded world, this engine runs every replica and client as its
//! own `std::thread`, carries messages over `std::sync::mpsc` channels
//! (shared `Arc` payloads — one allocation per multicast, like the sim's
//! `Rc` envelopes), reads `std::time::Instant` for `now()`, and gives each
//! thread a private seeded RNG. Wall-clock throughput becomes measurable
//! instead of simulated.
//!
//! What this engine does **not** guarantee:
//!
//! - **No determinism.** Message arrival order depends on the OS scheduler;
//!   two runs with the same seed produce different interleavings. The
//!   determinism suite only ever guards the sim engine.
//! - **No fault injection.** Crash/partition plans and wire adversaries are
//!   sim-engine features; constructing a threaded run from a scenario with
//!   a non-empty fault plan or adversary set is rejected loudly upstream.
//! - **No virtual CPU model.** `charge()` is accounting only — real time
//!   passes on a real core. Per-link FIFO is *stronger* ordering than the
//!   sim's independently sampled delays.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use bft_crypto::{CostTable, CryptoCostModel, CryptoOp};
use bft_types::{TimerKind, WireSize};
use serde::Serialize;

use crate::event::NodeId;
use crate::metrics::{Metrics, NodeCounters};
use crate::obs::{Observation, ObservationLog};
use crate::runner::{Actor, Context, RunOutcome, TimerArena, TimerId};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// A message in flight between threads. The payload is `Arc`-shared so a
/// multicast allocates once regardless of fan-out, mirroring the sim
/// engine's pooled `Rc` envelopes.
struct WireEnvelope<M> {
    from: NodeId,
    msg: Arc<M>,
}

/// Outgoing routes from one node to every other node.
struct Routes<M> {
    replicas: Vec<Sender<WireEnvelope<M>>>,
    clients: BTreeMap<u64, Sender<WireEnvelope<M>>>,
}

// Manual impl: `Sender` clones regardless of whether `M` does.
impl<M> Clone for Routes<M> {
    fn clone(&self) -> Self {
        Routes {
            replicas: self.replicas.clone(),
            clients: self.clients.clone(),
        }
    }
}

/// One pending timer in a thread-local wheel. Ordered soonest-first (the
/// `Ord` impl is reversed so `BinaryHeap` pops the earliest deadline).
struct TimerEntry {
    at_ns: u64,
    seq: u64,
    id: TimerId,
    kind: TimerKind,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at_ns
            .cmp(&self.at_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An observation recorded on one thread, stamped with its local arrival
/// index so the merged log can break wall-clock ties stably.
struct LocalObs {
    at: SimTime,
    seq: u64,
    obs: Observation,
}

/// Per-thread engine state behind the [`Context`] API: clock, routes, RNG,
/// timer wheel, and locally accumulated metrics (merged after join).
pub struct ThreadCtx<M> {
    node: NodeId,
    /// Shared run epoch: `now()` is nanoseconds since this instant, so
    /// timestamps are comparable across threads.
    epoch: Instant,
    routes: Routes<M>,
    rng: ChaCha8Rng,
    timers: TimerArena,
    timer_heap: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    n_replicas: usize,
    delta: SimDuration,
    topology: Option<Topology>,
    cost_table: CostTable,
    counters: NodeCounters,
    topology_blocked: u64,
    rec_state_transfers: u64,
    rec_retries: u64,
    rec_catchup_events: u64,
    obs: Vec<LocalObs>,
    obs_seq: u64,
    /// Shared count of `ClientAccept` observations across all threads —
    /// the run-completion signal the coordinator polls.
    accepted: Arc<AtomicU64>,
}

impl<M: WireSize + Serialize> ThreadCtx<M> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.now_ns())
    }

    pub(crate) fn delta(&self) -> SimDuration {
        self.delta
    }

    pub(crate) fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    pub(crate) fn charge(&mut self, d: SimDuration) {
        // Accounting only: real time passes on the real core.
        self.counters.cpu += d;
    }

    pub(crate) fn cost_ns(&self, op: CryptoOp) -> u64 {
        self.cost_table.cost_ns(op)
    }

    pub(crate) fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    pub(crate) fn send(&mut self, to: NodeId, msg: M) {
        let msg = Arc::new(msg);
        self.send_arc(to, &msg);
    }

    pub(crate) fn multicast(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M) {
        let msg = Arc::new(msg);
        for peer in to {
            self.send_arc(peer, &msg);
        }
    }

    fn send_arc(&mut self, to: NodeId, msg: &Arc<M>) {
        // Overlay enforcement mirrors the sim engine: only replica↔replica
        // links are constrained.
        if let (Some(topo), NodeId::Replica(f), NodeId::Replica(t)) =
            (&self.topology, self.node, to)
        {
            if f != t && !topo.allows(self.n_replicas, f, t) {
                self.topology_blocked += 1;
                return;
            }
        }
        let tx = match to {
            NodeId::Replica(r) => self.routes.replicas.get(r.0 as usize),
            NodeId::Client(c) => self.routes.clients.get(&c.0),
        };
        let Some(tx) = tx else { return };
        self.counters.msgs_sent += 1;
        self.counters.bytes_sent += msg.wire_size() as u64;
        // A closed receiver means that node already exited (run teardown);
        // dropping the message then is indistinguishable from network loss.
        let _ = tx.send(WireEnvelope {
            from: self.node,
            msg: Arc::clone(msg),
        });
    }

    pub(crate) fn set_timer(&mut self, kind: TimerKind, delay: SimDuration) -> TimerId {
        let id = self.timers.alloc();
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timer_heap.push(TimerEntry {
            at_ns: self.now_ns().saturating_add(delay.0),
            seq,
            id,
            kind,
        });
        id
    }

    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(id);
    }

    pub(crate) fn observe(&mut self, obs: Observation) {
        if matches!(obs, Observation::ClientAccept { .. }) {
            self.accepted.fetch_add(1, Ordering::Relaxed);
        }
        let seq = self.obs_seq;
        self.obs_seq += 1;
        self.obs.push(LocalObs {
            at: self.now(),
            seq,
            obs,
        });
    }

    pub(crate) fn count_state_transfer(&mut self) {
        self.rec_state_transfers += 1;
    }

    pub(crate) fn count_catchup_retry(&mut self) {
        self.rec_retries += 1;
    }

    pub(crate) fn count_catchup_event(&mut self) {
        self.rec_catchup_events += 1;
    }
}

/// What one node thread hands back when it exits.
struct NodeResult {
    node: NodeId,
    counters: NodeCounters,
    topology_blocked: u64,
    rec_state_transfers: u64,
    rec_retries: u64,
    rec_catchup_events: u64,
    obs: Vec<LocalObs>,
    events: u64,
}

/// The real-time engine: actors are registered up front, then `run` spawns
/// one OS thread per node and blocks until the workload completes (or a
/// wall-clock budget expires).
pub struct ThreadedEngine<M> {
    replicas: Vec<Box<dyn Actor<M> + Send>>,
    clients: Vec<(u64, Box<dyn Actor<M> + Send>)>,
    seed: u64,
    delta: SimDuration,
    topology: Option<Topology>,
    cost_table: CostTable,
}

impl<M: WireSize + Serialize + Send + Sync + 'static> ThreadedEngine<M> {
    /// Create an engine. `delta` is the synchrony bound protocols read via
    /// [`Context::delta`] to derive their timeouts — on a timeshared host
    /// it must cover real scheduling jitter, not just network latency.
    pub fn new(delta: SimDuration, seed: u64) -> Self {
        ThreadedEngine {
            replicas: Vec::new(),
            clients: Vec::new(),
            seed,
            delta,
            topology: None,
            cost_table: CryptoCostModel::free().table(),
        }
    }

    /// Set the crypto cost model charged by `Context::charge_crypto`
    /// (accounting only on this engine).
    pub fn set_cost_model(&mut self, model: CryptoCostModel) {
        self.cost_table = model.table();
    }

    /// Restrict replica↔replica communication to a topology.
    pub fn set_topology(&mut self, topology: Topology) {
        self.topology = Some(topology);
    }

    /// Add a replica actor as replica `i` (`i` must be dense from 0, in
    /// order).
    pub fn add_replica(&mut self, i: u32, actor: Box<dyn Actor<M> + Send>) {
        assert_eq!(
            i as usize,
            self.replicas.len(),
            "threaded engine replicas must be added densely in order"
        );
        self.replicas.push(actor);
    }

    /// Add a client actor.
    pub fn add_client(&mut self, c: u64, actor: Box<dyn Actor<M> + Send>) {
        assert!(
            self.clients.iter().all(|(id, _)| *id != c),
            "duplicate client c{c}"
        );
        self.clients.push((c, actor));
    }

    /// Number of replicas registered so far.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Run until `total_requests` client accepts are observed or
    /// `wall_budget` of real time elapses, then stop every thread and
    /// merge their local state into one [`RunOutcome`].
    pub fn run(self, total_requests: u64, wall_budget: SimDuration) -> RunOutcome {
        self.run_with_drain(total_requests, wall_budget, SimDuration::ZERO)
    }

    /// Like [`Self::run`], but after the workload completes keep the
    /// threads alive for `drain` (capped at one real second) so in-flight
    /// retransmissions settle before teardown.
    pub fn run_with_drain(
        self,
        total_requests: u64,
        wall_budget: SimDuration,
        drain: SimDuration,
    ) -> RunOutcome {
        let n_replicas = self.replicas.len();
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));

        // All channels exist before any thread starts: every node can reach
        // every other from its first instruction.
        type Merged = (SimTime, (u8, u64), u64, NodeId, Observation);
        let mut replica_rx = Vec::with_capacity(n_replicas);
        let mut replica_tx = Vec::with_capacity(n_replicas);
        for _ in 0..n_replicas {
            let (tx, rx) = channel::<WireEnvelope<M>>();
            replica_tx.push(tx);
            replica_rx.push(rx);
        }
        let mut client_rx = Vec::with_capacity(self.clients.len());
        let mut client_tx = BTreeMap::new();
        for (c, _) in &self.clients {
            let (tx, rx) = channel::<WireEnvelope<M>>();
            client_tx.insert(*c, tx);
            client_rx.push(rx);
        }
        let routes = Routes {
            replicas: replica_tx,
            clients: client_tx,
        };

        let seed = self.seed;
        let delta = self.delta;
        let topology = self.topology.clone();
        let cost_table = self.cost_table;
        let mut handles = Vec::with_capacity(n_replicas + self.clients.len());
        let spawn = |node: NodeId,
                     salt: u64,
                     actor: Box<dyn Actor<M> + Send>,
                     rx: Receiver<WireEnvelope<M>>,
                     routes: Routes<M>,
                     topology: Option<Topology>,
                     stop: Arc<AtomicBool>,
                     accepted: Arc<AtomicU64>| {
            let tctx = ThreadCtx {
                node,
                epoch,
                routes,
                // Distinct deterministic seed per thread; the *stream* is
                // reproducible even though the interleaving is not.
                rng: ChaCha8Rng::seed_from_u64(
                    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
                ),
                timers: TimerArena::default(),
                timer_heap: BinaryHeap::new(),
                timer_seq: 0,
                n_replicas,
                delta,
                topology,
                cost_table,
                counters: NodeCounters::default(),
                topology_blocked: 0,
                rec_state_transfers: 0,
                rec_retries: 0,
                rec_catchup_events: 0,
                obs: Vec::new(),
                obs_seq: 0,
                accepted,
            };
            std::thread::spawn(move || run_node(actor, rx, tctx, stop))
        };
        for (i, (actor, rx)) in self.replicas.into_iter().zip(replica_rx).enumerate() {
            handles.push(spawn(
                NodeId::replica(i as u32),
                i as u64,
                actor,
                rx,
                routes.clone(),
                topology.clone(),
                Arc::clone(&stop),
                Arc::clone(&accepted),
            ));
        }
        for ((c, actor), rx) in self.clients.into_iter().zip(client_rx) {
            handles.push(spawn(
                NodeId::client(c),
                (1 << 32) | c,
                actor,
                rx,
                routes.clone(),
                topology.clone(),
                Arc::clone(&stop),
                Arc::clone(&accepted),
            ));
        }
        // Senders inside `routes` stay alive in this scope until after the
        // threads join, so receivers never disconnect mid-run.

        let budget = Duration::from_nanos(wall_budget.0);
        let deadline = epoch + budget;
        let completed = loop {
            if accepted.load(Ordering::Relaxed) >= total_requests {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if completed && drain > SimDuration::ZERO {
            let cap = Duration::from_nanos(drain.0).min(Duration::from_secs(1));
            std::thread::sleep(cap);
        }
        stop.store(true, Ordering::Relaxed);
        let end_time = SimTime(epoch.elapsed().as_nanos() as u64);

        let mut results: Vec<NodeResult> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        drop(routes);

        // Merge per-thread logs into one chronologically ordered log. Ties
        // (same nanosecond) break by node order (replicas first, then
        // clients by id — matching the sim's node iteration order), then by
        // each thread's local emission sequence.
        let node_rank = |node: NodeId| -> (u8, u64) {
            match node {
                NodeId::Replica(r) => (0, r.0 as u64),
                NodeId::Client(c) => (1, c.0),
            }
        };
        results.sort_by_key(|r| node_rank(r.node));
        let mut merged: Vec<Merged> = Vec::new();
        let mut metrics = Metrics::default();
        let mut events_processed = 0u64;
        for r in &mut results {
            metrics.on_event_flush(
                r.node,
                r.counters.cpu,
                r.counters.msgs_sent,
                r.counters.bytes_sent,
                r.counters.msgs_received,
                r.counters.bytes_received,
            );
            metrics.topology_blocked += r.topology_blocked;
            metrics.rec_state_transfers += r.rec_state_transfers;
            metrics.rec_retries += r.rec_retries;
            metrics.rec_catchup_events += r.rec_catchup_events;
            events_processed += r.events;
            let rank = node_rank(r.node);
            for o in r.obs.drain(..) {
                merged.push((o.at, rank, o.seq, r.node, o.obs));
            }
        }
        merged.sort_by_key(|m| (m.0, m.1, m.2));
        let mut log = ObservationLog::default();
        for (at, _, _, node, obs) in merged {
            log.push(at, node, obs);
        }
        metrics.wall_elapsed_ns = end_time.0.max(1);
        metrics.wall_threads = results.len() as u64;
        RunOutcome {
            end_time,
            metrics,
            log,
            events_processed,
        }
    }
}

/// One node's thread body: fire due timers, then block on the inbox with a
/// deadline-aware timeout, until the coordinator raises the stop flag.
fn run_node<M: WireSize + Serialize + Send + Sync + 'static>(
    mut actor: Box<dyn Actor<M> + Send>,
    rx: Receiver<WireEnvelope<M>>,
    mut tctx: ThreadCtx<M>,
    stop: Arc<AtomicBool>,
) -> NodeResult {
    /// Upper bound on one inbox wait: bounds stop-flag latency when the
    /// node is idle and no timer is due.
    const POLL: Duration = Duration::from_millis(5);
    let node = tctx.node;
    let mut events = 0u64;
    {
        let mut ctx = Context::for_threaded(node, &mut tctx);
        actor.on_start(&mut ctx);
    }
    while !stop.load(Ordering::Relaxed) {
        // Fire every timer whose deadline has passed, in deadline order.
        loop {
            let now_ns = tctx.now_ns();
            let due = tctx.timer_heap.peek().is_some_and(|t| t.at_ns <= now_ns);
            if !due {
                break;
            }
            let entry = tctx.timer_heap.pop().expect("peeked");
            if tctx.timers.fire(entry.id) {
                events += 1;
                let mut ctx = Context::for_threaded(node, &mut tctx);
                actor.on_timer(entry.id, entry.kind, &mut ctx);
            }
        }
        let wait = match tctx.timer_heap.peek() {
            Some(t) => Duration::from_nanos(t.at_ns.saturating_sub(tctx.now_ns())).min(POLL),
            None => POLL,
        };
        match rx.recv_timeout(wait) {
            Ok(env) => {
                events += 1;
                tctx.counters.msgs_received += 1;
                tctx.counters.bytes_received += env.msg.wire_size() as u64;
                let mut ctx = Context::for_threaded(node, &mut tctx);
                actor.on_message(env.from, &env.msg, &mut ctx);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    NodeResult {
        node,
        counters: tctx.counters,
        topology_blocked: tctx.topology_blocked,
        rec_state_transfers: tctx.rec_state_transfers,
        rec_retries: tctx.rec_retries,
        rec_catchup_events: tctx.rec_catchup_events,
        obs: tctx.obs,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::{ClientId, RequestId, Transaction, TxnResult};

    #[derive(Debug, Serialize)]
    struct Ping(u64);

    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Client sends one ping on start; replica echoes; client observes a
    /// ClientAccept on the echo.
    struct EchoReplica;
    impl Actor<Ping> for EchoReplica {
        fn on_message(&mut self, from: NodeId, msg: &Ping, ctx: &mut Context<'_, Ping>) {
            ctx.send(from, Ping(msg.0 + 1));
        }
    }

    struct OnceClient {
        sent_at: SimTime,
    }
    impl Actor<Ping> for OnceClient {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            self.sent_at = ctx.now();
            ctx.send(NodeId::replica(0), Ping(0));
        }
        fn on_message(&mut self, _from: NodeId, _msg: &Ping, ctx: &mut Context<'_, Ping>) {
            ctx.observe(Observation::ClientAccept {
                request: RequestId {
                    client: ClientId(0),
                    timestamp: 1,
                },
                sent_at: self.sent_at,
                fast_path: false,
                txn: Transaction::default(),
                result: TxnResult { reads: vec![] },
            });
        }
    }

    #[test]
    fn threaded_round_trip_completes() {
        let mut eng = ThreadedEngine::<Ping>::new(SimDuration::from_millis(100), 7);
        eng.add_replica(0, Box::new(EchoReplica));
        eng.add_client(
            0,
            Box::new(OnceClient {
                sent_at: SimTime::ZERO,
            }),
        );
        let out = eng.run(1, SimDuration::from_secs(10));
        assert_eq!(out.log.accepted(), 1);
        assert!(out.metrics.wall_elapsed_ns > 0);
        assert_eq!(out.metrics.wall_threads, 2);
        assert_eq!(out.metrics.node(NodeId::replica(0)).msgs_received, 1);
        assert_eq!(out.metrics.node(NodeId::replica(0)).msgs_sent, 1);
    }

    #[test]
    fn threaded_timers_fire_and_cancel() {
        struct T {
            cancelled: Option<TimerId>,
        }
        impl Actor<Ping> for T {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.set_timer(TimerKind::T7Heartbeat, SimDuration::from_millis(1));
                let id = ctx.set_timer(TimerKind::T1WaitReplies, SimDuration::from_millis(2));
                ctx.cancel_timer(id);
                self.cancelled = Some(id);
            }
            fn on_message(&mut self, _f: NodeId, _m: &Ping, _c: &mut Context<'_, Ping>) {}
            fn on_timer(&mut self, id: TimerId, kind: TimerKind, ctx: &mut Context<'_, Ping>) {
                assert_ne!(Some(id), self.cancelled, "cancelled timer fired");
                assert_eq!(kind, TimerKind::T7Heartbeat);
                ctx.observe(Observation::Marker { label: "fired" });
            }
        }
        let mut eng = ThreadedEngine::<Ping>::new(SimDuration::from_millis(100), 7);
        eng.add_replica(0, Box::new(T { cancelled: None }));
        // No client accepts ever arrive: the run stops on its wall budget.
        let out = eng.run(u64::MAX, SimDuration::from_millis(200));
        assert_eq!(out.log.marker_count("fired"), 1);
    }
}
